"""Outside-in tracer: wraps named functions of the program from the benchmark.

The program is not edited.  While a :class:`Tracer` is installed, each name in
:data:`TARGETS` is replaced by a timing wrapper and restored afterwards.

* Coarse calls (file read, reference, the four method drivers, report
  writing) are *spans*: name, start, end, self time and the enclosing span.
* Per-shift and per-iteration calls are *aggregated*: call count, total time
  and self time per (enclosing span, layer).  A span per call would cost more
  than the call itself.

Self time is a call's duration minus the time of the wrapped calls it made.
A target that no longer exists is listed in :attr:`Tracer.missing`; the
metrics that need it are left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _matrix_bytes(args, result) -> float:
    """Computed bytes of the CSR arrays one matvec reads."""
    csr = getattr(result, "_csr", None)
    if csr is not None:
        arrays = (csr.data, csr.indices, csr.indptr)
    else:
        arrays = (result.values, result.col_idx, result.row_ptr)
    return float(sum(a.nbytes for a in arrays))


def _vector_bytes(args, result) -> float:
    """Computed bytes of the vector read and the vector written."""
    return float(args[1].nbytes + result.nbytes)


def _mu_emitted(args, result) -> float:
    return 1.0 if getattr(result, "mu", None) is not None else 0.0


@dataclass(frozen=True)
class Target:
    module: str
    path: str  # attribute path inside the module, e.g. "Class.method"
    layer: str
    span: bool = False
    # (args, result) -> amount added to the layer's ``extra`` counter
    measure: Optional[Callable] = None


# Names are looked up where the program calls them: a function imported with
# ``from .x import f`` is wrapped in the importing module's namespace.
TARGETS = (
    Target("resolvquad.harness", "read_matrix_market", "mmio.read",
           span=True, measure=_matrix_bytes),
    # Always called, so the reference step is timed on every workload.
    Target("resolvquad.harness", "_compute_reference", "oracle.reference",
           span=True),
    Target("resolvquad.harness", "run_quadratic_forms", "lanczos", span=True),
    Target("resolvquad.harness", "minres_run", "minres", span=True),
    Target("resolvquad.harness", "cocg_run", "cocg", span=True),
    Target("resolvquad.harness", "cocr_run", "cocr", span=True),
    Target("resolvquad.harness", "write_report", "report", span=True),
    Target("resolvquad.core", "hermitian_check_csr", "core.hermitian_check"),
    Target("resolvquad.core", "SparseHermitianMatrix.matvec", "core.matvec",
           measure=_vector_bytes),
    Target("resolvquad.shifted_lanczos", "lanczos_step", "lanczos.step"),
    Target("resolvquad.shifted_minres", "lanczos_step", "lanczos.step"),
    Target("resolvquad.shifted_lanczos", "shift_state_update",
           "shifted_lanczos.update"),
    Target("resolvquad.error_estimate", "EstimatorState.push",
           "error_estimate.push", measure=_mu_emitted),
    Target("resolvquad.error_estimate", "DelayedDifferenceWindow.push",
           "error_estimate.window_push"),
    Target("resolvquad.shifted_minres", "givens", "shifted_minres.givens"),
    Target("resolvquad.cg_variants", "collinear_pi_update",
           "cg_variants.update"),
    Target("resolvquad.cg_variants", "cocg_scalar_update",
           "cg_variants.update"),
    Target("resolvquad.cg_variants", "cocr_scalar_update",
           "cg_variants.update"),
)


class MissingLayer(LookupError):
    """A metric needs a layer whose wrapped name does not exist."""


class Stat:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_time: float
    parent: Optional[int]  # index into Tracer.spans


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict = defaultdict(Stat)  # (scope, layer) -> Stat
        self.spans: list = []
        self.missing: list = []
        self.layers: set = set()  # layers with at least one wrapped name
        self._scope: Optional[str] = None
        self._span: Optional[int] = None
        self._child = 0.0  # wrapped time inside the innermost open call

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore all of them on exit."""
        undo = []
        try:
            for target in self.targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(f"{target.module}:{target.path}")
                    continue
                owner, attr, original = found
                own = attr in vars(owner)
                setattr(owner, attr, self._wrap(original, target))
                undo.append((owner, attr, original, own))
                self.layers.add(target.layer)
            yield self
        finally:
            for owner, attr, original, own in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def _wrap(self, fn, target: Target):
        tracer = self
        layer, measure = target.layer, target.measure

        if not target.span:
            def aggregated(*args, **kwargs):
                outer_child = tracer._child
                tracer._child = 0.0
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stat = tracer.stats[(tracer._scope, layer)]
                    stat.calls += 1
                    stat.total += dt
                    stat.self_time += dt - tracer._child
                    tracer._child = outer_child + dt
                if measure is not None:
                    stat.extra += measure(args, result)
                return result
            return aggregated

        def spanned(*args, **kwargs):
            outer = (tracer._child, tracer._scope, tracer._span)
            index = len(tracer.spans)
            tracer.spans.append(Span(layer, 0.0, 0.0, 0.0, outer[2]))
            tracer._child, tracer._scope, tracer._span = 0.0, layer, index
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                span = tracer.spans[index]
                span.start, span.end = t0, t1
                span.self_time = dt - tracer._child
                stat = tracer.stats[(outer[1], layer)]
                stat.calls += 1
                stat.total += dt
                stat.self_time += span.self_time
                tracer._child = outer[0] + dt
                tracer._scope, tracer._span = outer[1], outer[2]
            if measure is not None:
                stat.extra += measure(args, result)
            return result
        return spanned

    # -- queries ---------------------------------------------------------------

    def stat(self, layer: str, scopes=None) -> Stat:
        """Sum of a layer's stats, over all scopes or the given ones."""
        if layer not in self.layers:
            raise MissingLayer(layer)
        out = Stat()
        for (scope, name), s in self.stats.items():
            if name == layer and (scopes is None or scope in scopes):
                out.calls += s.calls
                out.total += s.total
                out.self_time += s.self_time
                out.extra += s.extra
        return out


def _resolve(target: Target):
    """``(owner, attribute, current value)`` or ``None`` when it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *parents, attr = target.path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original
