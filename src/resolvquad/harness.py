"""Experiment engine and CLI for the quadratic-form benchmark protocol.

A run loads a Matrix Market matrix, builds the starting vector and shift
set, optionally computes per-shift reference values with a direct solve,
fans out over the requested methods, and writes a deterministic CSV
convergence history plus a JSON summary.

CLI surface::

    resolvquad run    --matrix A.mtx.gz [--config FILE] [overrides ...]
    resolvquad shifts --spec unit-circle:m=16 [--matrix A.mtx]
    resolvquad check  --matrix A.mtx.gz

Exit codes: 0 success, 1 configuration/input error, 2 numerical failure
(every shift of every executed method ended in breakdown/overflow).

Config files are plain ``key = value`` lines (same keys as the long CLI
flags); command-line flags override file values.  Two runs with the same
config produce byte-identical CSV output; timestamps only appear in the
JSON metadata.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import numbers
import platform
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import scipy

from . import __version__, floatrepr
from .cg_variants import cocg_run, cocr_run
from .core import (
    _STATUS_CODE,
    MethodResult,
    SolveStatus,
    SparseHermitianMatrix,
)
from .error_estimate import DEFAULT_LAG
from .mmio import read_matrix_market
from .oracle import (
    MAX_DENSE_N,
    SingularShiftError,
    SpectralDecomposition,
    condition_number,
    dense_resolvent_quadform,
    eigenpairs,
    spectral_quadform,
    spectral_weights,
)
from .shifted_lanczos import run_quadratic_forms
from .shifted_minres import minres_run

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "MethodReport",
    "generate_unit_circle_shifts",
    "run_experiment",
    "write_report",
    "render_summary_table",
    "main",
]

ALL_METHODS = ("lanczos", "cocg", "cocr", "minres")
CSV_HEADER = "method,shift_index,iteration,value_re,value_im,mu,nu,rel_err,status"


class ConfigError(ValueError):
    """Invalid experiment configuration or unreadable input."""


def generate_unit_circle_shifts(m: int) -> list:
    """``z_i = exp(-(2i+1)/(2m) pi i)`` for ``i = 1..m``: unit-circle shifts
    that avoid the real axis, so the breakdown-free condition holds for any
    matrix with a real spectrum."""
    if m < 1:
        raise ConfigError("unit-circle shift count must be >= 1")
    return [cmath.exp(-1j * math.pi * (2 * i + 1) / (2 * m))
            for i in range(1, m + 1)]


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one benchmark run."""

    matrix: Union[str, Path]
    vector: str = "uniform"  # uniform | file:PATH | random:SEED
    shifts: Union[str, Sequence[complex]] = "unit-circle:m=16"
    methods: Sequence[str] = ALL_METHODS
    rtol: float = 1e-10
    max_iter: Optional[int] = None
    lag: int = DEFAULT_LAG
    reference: str = "none"  # none | dense | spectral
    seed_shift: Optional[int] = None  # 1-based index into the shift list
    history: bool = False
    out: Optional[Union[str, Path]] = None

    def validate(self) -> None:
        if not isinstance(self.matrix, (str, Path)):
            raise ConfigError(f"matrix must be a str or Path: {self.matrix!r}")
        if not isinstance(self.vector, str):
            raise ConfigError(f"vector must be a str: {self.vector!r}")
        if not isinstance(self.shifts, str) and not _numbers(self.shifts):
            raise ConfigError("shifts must be a spec str or a sequence of "
                              f"numbers: {self.shifts!r}")
        if isinstance(self.methods, str):
            raise ConfigError("methods must be a sequence of names, not the "
                              f"str {self.methods!r}")
        if not self.methods:
            raise ConfigError("methods list must not be empty")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {unknown}")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"repeated methods in {list(self.methods)}")
        if not (isinstance(self.rtol, float) and 0 < self.rtol < math.inf):
            raise ConfigError("rtol must be a finite positive float")
        for key in ("lag", "max_iter", "seed_shift"):
            value = getattr(self, key)
            if value is None and key != "lag":
                continue
            if type(value) is bool or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if not isinstance(self.history, bool):
            raise ConfigError(f"history must be True or False: {self.history!r}")
        if self.lag < 1:
            raise ConfigError("estimator lag must be >= 1")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.reference not in ("none", "dense", "spectral"):
            raise ConfigError(f"unknown reference mode {self.reference!r}")


def _numbers(value) -> bool:
    """Whether ``value`` is a 1-D sequence or array of numbers, no
    ``bool`` among them."""
    return (isinstance(value, (Sequence, np.ndarray))
            and not isinstance(value, bytes) and np.ndim(value) == 1
            and all(isinstance(z, numbers.Number) and not isinstance(z, bool)
                    for z in value))


@dataclass
class MethodReport:
    method: str
    applicable: bool
    skip_reason: Optional[str] = None
    wall_time: Optional[float] = None
    result: Optional[MethodResult] = None


@dataclass
class ExperimentReport:
    config: dict
    matrix_info: dict
    shifts: list
    shift_meta: dict
    reference_mode: str
    reference_values: Optional[list]
    methods: list

    @property
    def executed(self) -> list:
        return [m for m in self.methods if m.applicable]

    @property
    def numerical_failure(self) -> bool:
        ran = self.executed
        if not ran:
            return False
        return all(
            all(s.status.failed for s in m.result.shifts) for m in ran)


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _number(cast, text: str, what: str):
    """``cast(text)``, or a :class:`ConfigError` naming ``what``."""
    try:
        return cast(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {what}: {text!r}") from exc


def _read_entries(path: str, what: str) -> np.ndarray:
    """The entries of a ``what`` file, one per line: a real number, or its
    real and imaginary parts.  Each part is kept as read, signed zeros
    included."""
    try:
        with warnings.catch_warnings():  # the caller rejects an empty file
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} file {path!r}: {exc}") from exc
    if data.shape[1] > 2:
        raise ConfigError(f"{what} file must have one or two columns")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{what} file {path!r} has a non-finite entry")
    entries = data[:, 0].astype(np.complex128)
    entries.imag = data[:, 1] if data.shape[1] == 2 else 0.0
    return entries


def _resolve_vector(spec: str, n: int) -> np.ndarray:
    if spec == "uniform":
        return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        vec = _read_entries(path, "vector")
        if vec.shape != (n,):
            raise ConfigError(f"vector length {vec.shape} does not match n={n}")
        if not np.linalg.norm(vec):
            fault = "norm underflows" if np.any(vec) else "must be nonzero"
            raise ConfigError(f"vector file {path!r}: {fault}")
        return vec
    if spec.startswith("random:"):
        seed = _number(int, spec[len("random:"):], "the vector seed")
        if seed < 0:
            raise ConfigError(f"the vector seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            / math.sqrt(2.0)
    raise ConfigError(f"unknown vector spec {spec!r}")


def _parse_kv(spec: str, keys: tuple) -> dict:
    """The ``key=value`` items of a shift spec; each key one of ``keys``,
    at most once."""
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"expected key=value in shift spec, got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        if key not in keys or key in out:
            raise ConfigError(f"{'repeated' if key in out else 'unknown'} "
                              f"key {key!r} in shift spec; expected one of "
                              f"{', '.join(keys)}")
        out[key] = val
    return out


def _dense(a: SparseHermitianMatrix) -> np.ndarray:
    """The dense ``A``, within the oracle's size cap."""
    if a.n > MAX_DENSE_N:
        raise ConfigError(f"--reference and spectrum-offset shifts need a "
                          f"dense copy, n <= {MAX_DENSE_N}; n = {a.n} here")
    return a.to_dense()


def _lazy_eigenpairs(a: SparseHermitianMatrix):
    """A call that returns ``eigenpairs`` of the dense ``A``, computed on the
    first call only, so ``spectrum-offset:`` shifts and the spectral
    reference of one run share one ``eigh``."""
    return functools.cache(lambda: eigenpairs(_dense(a)))


def _resolve_shifts(spec, spectrum):
    """Return ``(shifts, meta)``; meta records spectrum data when computed.

    Only ``spectrum-offset:`` calls ``spectrum`` (:func:`_lazy_eigenpairs`)."""
    meta: dict = {}
    if not isinstance(spec, str):
        shifts = [complex(z) for z in spec]
    elif spec.startswith("unit-circle:"):
        kv = _parse_kv(spec[len("unit-circle:"):], ("m",))
        m = _number(int, kv.get("m", "16"), "the shift count m")
        shifts = generate_unit_circle_shifts(m)
    elif spec.startswith("list:"):
        shifts = _read_entries(spec[len("list:"):], "shift").tolist()
    elif spec.startswith("spectrum-offset:"):
        kv = _parse_kv(spec[len("spectrum-offset:"):], ("zeta", "extremal"))
        if "zeta" not in kv:
            raise ConfigError("spectrum-offset requires zeta=...")
        zeta = _number(float, kv["zeta"], "zeta")
        extremal = kv.get("extremal", "smallest")
        if extremal not in ("smallest", "largest"):
            raise ConfigError("extremal must be smallest or largest")
        eigenvalues, _ = spectrum()
        lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
        lam = lam_min if extremal == "smallest" else lam_max
        z = complex(lam, zeta)
        meta = {
            "extremal": extremal,
            "lambda": lam,
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "zeta": zeta,
            "condition_number": condition_number(eigenvalues, z),
        }
        shifts = [z]
    else:
        raise ConfigError(f"unknown shift spec {spec!r}")
    if not shifts:
        raise ConfigError("the shift list is empty")
    if not all(cmath.isfinite(z) for z in shifts):
        raise ConfigError("every shift must be finite")
    return shifts, meta


def _compute_reference(mode: str, a: SparseHermitianMatrix, v: np.ndarray,
                       shifts: Sequence[complex], spectrum):
    """Per-shift reference values, or ``None`` for ``mode="none"``;
    ``spectrum`` is a :func:`_lazy_eigenpairs` of ``a``."""
    if mode == "none":
        return None
    if mode == "dense":
        dense = _dense(a)
        return [dense_resolvent_quadform(dense, v, z) for z in shifts]
    lam, u = spectrum()
    spec_dec = SpectralDecomposition(eigenvalues=lam, eigenvectors=u,
                                     weights=spectral_weights(u, v))
    vnorm2 = float(np.vdot(v, v).real)
    return [spectral_quadform(spec_dec, z, vnorm2) for z in shifts]


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _load_matrix(path) -> SparseHermitianMatrix:
    # ValueError covers MatrixMarketError and rejected entries; a truncated
    # .gz ends in EOFError
    try:
        return read_matrix_market(path)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"cannot read matrix {path!r}: {exc}") from exc


def _matrix_info(a: SparseHermitianMatrix, path) -> dict:
    return {
        "path": str(path),
        "n": a.n,
        "nnz": a.nnz,
        "density_percent": 100.0 * a.nnz / (a.n * a.n),
        "is_real": a.is_real,
        "hermitian_verified": a.hermitian_verified,
        "max_asymmetry": a.max_asymmetry,
    }


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute one full protocol run; per-method failures never abort it."""
    config.validate()
    a = _load_matrix(config.matrix)
    v = _resolve_vector(config.vector, a.n)
    spectrum = _lazy_eigenpairs(a)
    shifts, shift_meta = _resolve_shifts(config.shifts, spectrum)
    if config.seed_shift is not None and not (
            1 <= config.seed_shift <= len(shifts)):
        raise ConfigError(f"seed_shift index {config.seed_shift} outside "
                          f"1..{len(shifts)}")
    reference = _compute_reference(config.reference, a, v, shifts, spectrum)
    del spectrum  # drop the cached eigenvectors before the methods run

    reports = []
    for method in config.methods:
        reason = _skip_reason(method, a)
        if reason is not None:
            reports.append(MethodReport(method, False, skip_reason=reason))
            continue
        start = time.perf_counter()
        result = _dispatch(method, a, v, shifts, reference, config)
        reports.append(MethodReport(
            method, True, wall_time=time.perf_counter() - start,
            result=result))
    if not any(r.applicable for r in reports):
        raise ConfigError(
            "no requested method is applicable to this matrix: "
            + "; ".join(f"{r.method}: {r.skip_reason}" for r in reports))

    return ExperimentReport(
        config=_config_echo(config),
        matrix_info=_matrix_info(a, config.matrix),
        shifts=shifts,
        shift_meta=shift_meta,
        reference_mode=config.reference,
        reference_values=reference,
        methods=reports,
    )


def _skip_reason(method: str, a: SparseHermitianMatrix) -> Optional[str]:
    """Why ``method`` cannot run on ``a``, or ``None`` when it can."""
    if method in ("cocg", "cocr") and not (a.is_real and a.hermitian_verified):
        return "matrix is not real symmetric"
    if not a.hermitian_verified:
        return "matrix failed the Hermitian check"
    return None


def _dispatch(method, a, v, shifts, reference, config: ExperimentConfig):
    # looked up per call, so a wrapper installed on a driver name is called
    driver = {"lanczos": run_quadratic_forms, "minres": minres_run,
              "cocg": cocg_run, "cocr": cocr_run}[method]
    seeded = {}
    if method in ("cocg", "cocr") and config.seed_shift is not None:
        seeded["seed_shift"] = shifts[config.seed_shift - 1]
    return driver(a, v, shifts, rtol=config.rtol, lag=config.lag,
                  max_iter=config.max_iter, reference=reference,
                  keep_history=config.history, **seeded)


def _config_echo(config: ExperimentConfig) -> dict:
    echo = asdict(config)
    echo["matrix"] = str(echo["matrix"])
    if echo["out"] is not None:
        echo["out"] = str(echo["out"])
    if not isinstance(echo["shifts"], str):
        echo["shifts"] = [[z.real, z.imag] for z in
                          (complex(z) for z in echo["shifts"])]
    echo["methods"] = list(echo["methods"])
    return echo


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# rows formatted at a time: bounds the bytes alive at once
_CSV_CHUNK_ROWS = 1 << 14
# each status text by the codes of HistoryColumns.columns(), NUL-padded
_STATUS_CELLS = np.array(
    [list(status.value.encode().ljust(max(len(s.value) for s in SolveStatus),
                                      b"\0"))
     for status in SolveStatus], np.uint8)


def _lay_out(parts: list, rows: int) -> np.ndarray:
    """``rows`` rows of text, each the concatenation of ``parts``: byte
    strings that every row repeats and NUL-padded ``(rows, width)`` uint8
    cell matrices.  The result is such a matrix too; its text is
    ``tobytes().translate(None, b"\\0")``."""
    return np.concatenate([
        np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
        if isinstance(p, bytes) else p for p in parts], axis=1)


def _csv_chunks(method: str, cols: dict):
    """The CSV rows of one method's history columns, as bytes per chunk."""
    head = method.encode() + b","
    for a in range(0, cols["k"].size, _CSV_CHUNK_ROWS):
        c = {name: col[a:a + _CSV_CHUNK_ROWS] for name, col in cols.items()}
        rows = c["k"].size
        value = c["value"]
        floats = np.zeros((rows, 5, floatrepr.WIDTH + 1), np.uint8)
        for j, (col, has) in enumerate((
                (value.real, c["has_value"]), (value.imag, c["has_value"]),
                (c["mu"], c["has_mu"]), (c["nu"], c["has_nu"]),
                (c["rel_err"], c["has_rel_err"]))):
            floats[has, j, :-1] = floatrepr.repr_cells(col[has])
        floats[:, :, -1] = ord(",")
        yield _lay_out([head, floatrepr.int_cells(c["shift"] + 1), b",",
                        floatrepr.int_cells(c["k"]), b",",
                        floats.reshape(rows, -1), _STATUS_CELLS[c["status"]],
                        b"\n"], rows).tobytes().translate(None, b"\0")


def _history_chunks(report: ExperimentReport):
    for mrep in report.methods:
        if _recorded(mrep):
            yield from _csv_chunks(mrep.method, mrep.result.history.columns())


def _recorded(mrep: MethodReport) -> bool:
    return (mrep.applicable and mrep.result is not None
            and mrep.result.history is not None)


def write_report(report: ExperimentReport, out_dir) -> dict:
    """Write ``history.csv`` (when recorded, else remove an earlier run's,
    which would not match this summary) and ``summary.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    csv_path = out / "history.csv"
    if any(map(_recorded, report.methods)):
        with open(csv_path, "wb") as fh:
            fh.write(CSV_HEADER.encode() + b"\n")
            fh.writelines(_history_chunks(report))
        paths["history"] = csv_path
    else:
        csv_path.unlink(missing_ok=True)
    json_path = out / "summary.json"
    with open(json_path, "w", newline="\n") as fh:
        fh.write(summary_text(report))
    paths["summary"] = json_path
    return paths


def summary_text(report: ExperimentReport) -> str:
    """The text of ``summary.json``: exactly what ``json.dumps(...,
    indent=2, sort_keys=True) + "\\n"`` writes for its content.

    The per-shift rows and the shift and reference pair lists, which are
    nearly all of the file, are laid out as ``history.csv`` is, with
    :func:`_lay_out` from :func:`floatrepr.repr_cells`; the rest of the dict
    goes through ``json.dumps``.
    """
    return _render(_summary(report), "") + "\n"


def _summary(report: ExperimentReport) -> dict:
    """The summary dict, with the shift and reference lists and each
    method's shift list as callables that render them at a given indent."""
    methods = {}
    for mrep in report.methods:
        entry: dict = {"applicable": mrep.applicable}
        if not mrep.applicable:
            entry["skip_reason"] = mrep.skip_reason
        else:
            res = mrep.result
            entry.update({
                "wall_time_s": mrep.wall_time,
                "iterations": res.iterations,
                "converged": res.converged,
                "iterations_to_convergence": res.iterations_to_convergence,
                "shifts": functools.partial(_shift_rows, res.shifts),
            })
        methods[mrep.method] = entry
    return {
        "config": report.config,
        "matrix": report.matrix_info,
        "shifts": functools.partial(_pair_list, report.shifts),
        "shift_meta": report.shift_meta,
        "reference_mode": report.reference_mode,
        "reference_values": (
            functools.partial(_pair_list, report.reference_values)
            if report.reference_values is not None else None),
        "methods": methods,
        "environment": {
            "package_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
    }


def _json_cells(x: np.ndarray) -> np.ndarray:
    """:func:`floatrepr.repr_cells` of ``x``, with NaN and the infinities
    spelled as ``json.dumps`` spells them."""
    cells = floatrepr.repr_cells(x)
    for word, at in ((b"NaN", np.isnan(x)), (b"Infinity", x == np.inf),
                     (b"-Infinity", x == -np.inf)):
        cells[at] = np.frombuffer(word.ljust(floatrepr.WIDTH, b"\0"),
                                  np.uint8)
    return cells


def _or_null(cells: np.ndarray, has: np.ndarray) -> np.ndarray:
    """``cells`` on the rows where ``has`` is true, ``null`` on the others."""
    out = np.zeros((has.size, cells.shape[1]), np.uint8)
    out[~has, :4] = np.frombuffer(b"null", np.uint8)
    out[has] = cells
    return out


def _pair(real: np.ndarray, imag: np.ndarray, pad: str) -> np.ndarray:
    """``[real, imag]`` as ``json.dumps`` nests it at ``pad``, as cells."""
    return _lay_out([f"[\n{pad}  ".encode(), real, f",\n{pad}  ".encode(),
                     imag, f"\n{pad}]".encode()], len(real))


def _json_list(parts: list, rows: int, pad: str) -> str:
    """A list of ``rows`` items laid out from ``parts``, as ``json.dumps``
    nests it at ``pad``."""
    if not rows:
        return "[]"
    items = _lay_out([f",\n{pad}  ".encode(), *parts], rows)
    # drop the first item's comma
    return ("[" + items.tobytes().translate(None, b"\0")[1:].decode()
            + f"\n{pad}]")


def _pair_list(values: list, pad: str) -> str:
    """``[[x.real, x.imag] for x in values]``, as ``json.dumps`` nests it at
    ``pad``."""
    z = np.array(values, np.complex128)
    cells = _json_cells(np.concatenate([z.real, z.imag]))
    return _json_list([_pair(cells[:z.size], cells[z.size:], pad + "  ")],
                      z.size, pad)


def _shift_rows(outcomes: list, pad: str) -> str:
    """A method's per-shift rows, one per outcome, as ``json.dumps`` nests
    them at ``pad``."""
    key = pad + "    "  # the rows' keys; the pairs open at this indent
    value = np.array([s.value for s in outcomes], object)
    residual = np.array([s.residual_norm for s in outcomes], object)
    has_value = np.not_equal(value, None)
    has_residual = np.not_equal(residual, None)
    value = value[has_value].astype(np.complex128)
    z = np.array([s.z for s in outcomes], np.complex128)
    # every float of the list in one call, split back by column
    columns = (residual[has_residual].astype(np.float64), value.real,
               value.imag, z.real, z.imag)
    residual_cells, value_re, value_im, z_re, z_im = np.split(
        _json_cells(np.concatenate(columns)),
        np.cumsum([c.size for c in columns[:-1]]))
    return _json_list([
        f'{{\n{key}"index": '.encode(),
        floatrepr.int_cells(np.arange(1, z.size + 1)),
        f',\n{key}"iterations": '.encode(),
        floatrepr.int_cells([s.iterations for s in outcomes]),
        f',\n{key}"residual_norm": '.encode(),
        _or_null(residual_cells, has_residual),
        f',\n{key}"status": "'.encode(),
        _STATUS_CELLS[[_STATUS_CODE[s.status] for s in outcomes]],
        f'",\n{key}"value": '.encode(),
        _or_null(_pair(value_re, value_im, key), has_value),
        f',\n{key}"z": '.encode(), _pair(z_re, z_im, key),
        f"\n{pad}  }}".encode()], z.size, pad)


def _render(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` as it appears nested at
    indent ``pad``, with each callable value (a list renderer that
    :func:`_summary` puts in) called with ``pad``.  Dicts with string keys
    are walked to reach those values; anything else goes to ``json.dumps``
    whole, whose nested text is its top-level text with ``pad`` after every
    newline."""
    if callable(obj):
        return obj(pad)
    if isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        inner = pad + "  "
        items = [f"{json.dumps(k)}: {_render(obj[k], inner)}"
                 for k in sorted(obj)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def render_summary_table(report: ExperimentReport) -> str:
    """Per-method iteration/time table in the style of the benchmark."""
    lines = [f"{'method':<10} {'iters':>8} {'time [s]':>10}  status"]
    for mrep in report.methods:
        if not mrep.applicable:
            lines.append(f"{mrep.method:<10} {'-':>8} {'-':>10}  "
                         f"skipped ({mrep.skip_reason})")
            continue
        res = mrep.result
        iters = res.iterations_to_convergence
        iters_s = str(iters) if iters is not None else f"({res.iterations})"
        statuses = ",".join(sorted({s.status.value for s in res.shifts}))
        lines.append(f"{mrep.method:<10} {iters_s:>8} "
                     f"{mrep.wall_time:>10.3f}  {statuses}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def load_config_file(path) -> dict:
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip("\"'")
    return values


def _build_config(args) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in _CONFIG_KEYS:
        arg = getattr(args, key, None)
        if arg is not None and arg is not False:
            values[key] = arg
    if "matrix" not in values:
        raise ConfigError("a matrix path is required (--matrix or config file)")
    if "methods" in values and isinstance(values["methods"], str):
        values["methods"] = tuple(
            m.strip() for m in values["methods"].split(",") if m.strip())
    for key, cast in (("rtol", float), ("max_iter", int), ("lag", int),
                      ("seed_shift", int)):
        if key in values and isinstance(values[key], str):
            values[key] = _number(cast, values[key], key)
    if "history" in values and isinstance(values["history"], str):
        flag = values["history"].lower()
        if flag not in ("1", "true", "yes", "0", "false", "no"):
            raise ConfigError(f"bad value for history: {values['history']!r}")
        values["history"] = flag in ("1", "true", "yes")
    return ExperimentConfig(**values)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvquad",
        description="Resolvent quadratic forms via shifted Krylov methods")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a benchmark run")
    run.add_argument("--config", help="key = value config file")
    run.add_argument("--matrix", help="Matrix Market file (.mtx or .mtx.gz)")
    run.add_argument("--vector", help="uniform | file:PATH | random:SEED")
    run.add_argument("--shifts",
                     help="unit-circle:m=N | list:PATH | "
                          "spectrum-offset:zeta=Z[,extremal=smallest|largest]")
    run.add_argument("--methods", help="comma list from: " + ",".join(ALL_METHODS))
    run.add_argument("--rtol", help="stopping tolerance")
    run.add_argument("--max-iter", dest="max_iter", help="iteration cap")
    run.add_argument("--lag", help="estimator lag d")
    run.add_argument("--reference", help="none | dense | spectral")
    run.add_argument("--seed-shift", dest="seed_shift",
                     help="1-based seed index for COCG/COCR")
    run.add_argument("--history", action="store_true", default=None,
                     help="record per-iteration history (enables history.csv)")
    run.add_argument("--out", help="output directory for reports")

    shifts = sub.add_parser("shifts", help="print a shift set")
    shifts.add_argument("--spec", required=True)
    shifts.add_argument("--matrix", help="needed for spectrum-offset specs")

    check = sub.add_parser("check", help="structure/Hermitian report")
    check.add_argument("--matrix", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "shifts":
            return _cmd_shifts(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_run(args)
    except (ConfigError, SingularShiftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_shifts(args) -> int:
    if args.matrix:
        spectrum = _lazy_eigenpairs(_load_matrix(args.matrix))
    else:
        def spectrum():
            raise ConfigError("spectrum-offset shifts need --matrix")
    shifts, meta = _resolve_shifts(args.spec, spectrum)
    for z in shifts:
        print(f"{z.real!r} {z.imag!r}")
    if meta:
        print("# " + json.dumps(meta, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    a = _load_matrix(args.matrix)
    for key, val in _matrix_info(a, args.matrix).items():
        print(f"{key}: {val}")
    applicable = [m for m in ("lanczos", "minres", "cocg", "cocr")
                  if _skip_reason(m, a) is None]
    print(f"applicable_methods: {','.join(applicable) if applicable else 'none'}")
    return 0


def _cmd_run(args) -> int:
    config = _build_config(args)
    report = run_experiment(config)
    for mrep in report.methods:
        if not mrep.applicable:
            print(f"warning: {mrep.method} skipped: {mrep.skip_reason}",
                  file=sys.stderr)
    print(render_summary_table(report))
    if config.out is not None:
        try:
            paths = write_report(report, config.out)
        except OSError as exc:
            raise ConfigError(f"cannot write the reports: {exc}") from exc
        for kind, path in sorted(paths.items()):
            print(f"wrote {kind}: {path}")
    return 2 if report.numerical_failure else 0


if __name__ == "__main__":
    sys.exit(main())
