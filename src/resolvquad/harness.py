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
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import scipy

from . import __version__
from .cg_variants import cocg_run, cocr_run
from .core import MethodResult, SparseHermitianMatrix
from .error_estimate import DEFAULT_LAG
from .mmio import read_matrix_market
from .oracle import (
    MAX_DENSE_N,
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
        if not self.methods:
            raise ConfigError("methods list must not be empty")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods: {unknown}")
        if not (isinstance(self.rtol, float) and self.rtol > 0):
            raise ConfigError("rtol must be a positive float")
        if self.lag < 1:
            raise ConfigError("estimator lag must be >= 1")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.reference not in ("none", "dense", "spectral"):
            raise ConfigError(f"unknown reference mode {self.reference!r}")


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


def _resolve_vector(spec: str, n: int) -> np.ndarray:
    if spec == "uniform":
        return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            data = np.loadtxt(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read vector file {path!r}: {exc}") from exc
        if not np.all(np.isfinite(data)):
            raise ConfigError(f"vector file {path!r} has a non-finite entry")
        if data.ndim == 1:
            vec = data.astype(np.complex128)
        elif data.ndim == 2 and data.shape[1] == 2:
            vec = data[:, 0] + 1j * data[:, 1]
        else:
            raise ConfigError("vector file must have one or two columns")
        if vec.shape != (n,):
            raise ConfigError(f"vector length {vec.shape} does not match n={n}")
        if not np.any(vec):
            raise ConfigError(f"vector file {path!r} is the zero vector")
        return vec
    if spec.startswith("random:"):
        seed = _number(int, spec[len("random:"):], "the vector seed")
        rng = np.random.default_rng(seed)
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            / math.sqrt(2.0)
    raise ConfigError(f"unknown vector spec {spec!r}")


def _parse_kv(spec: str) -> dict:
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"expected key=value in shift spec, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _lazy_eigenpairs(a: SparseHermitianMatrix):
    """A call that returns ``eigenpairs`` of the dense ``A``, computed on the
    first call only, so ``spectrum-offset:`` shifts and the spectral
    reference of one run share one ``eigh``."""
    return functools.cache(lambda: eigenpairs(a.to_dense()))


def _resolve_shifts(spec, a: SparseHermitianMatrix, spectrum):
    """Return ``(shifts, meta)``; meta records spectrum data when computed.

    ``spectrum`` is a :func:`_lazy_eigenpairs` of ``a``."""
    meta: dict = {}
    if not isinstance(spec, str):
        shifts = [complex(z) for z in spec]
        if not shifts:
            raise ConfigError("explicit shift list must not be empty")
    elif spec.startswith("unit-circle:"):
        kv = _parse_kv(spec[len("unit-circle:"):])
        m = _number(int, kv.get("m", "16"), "the shift count m")
        shifts = generate_unit_circle_shifts(m)
    elif spec.startswith("list:"):
        path = spec[len("list:"):]
        try:
            data = np.loadtxt(path, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read shift file {path!r}: {exc}") from exc
        if data.shape[1] == 1:
            shifts = [complex(x, 0.0) for x in data[:, 0]]
        elif data.shape[1] == 2:
            shifts = [complex(re, im) for re, im in data]
        else:
            raise ConfigError("shift file must have one or two columns")
        if not shifts:
            raise ConfigError("shift file is empty")
    elif spec.startswith("spectrum-offset:"):
        kv = _parse_kv(spec[len("spectrum-offset:"):])
        if "zeta" not in kv:
            raise ConfigError("spectrum-offset requires zeta=...")
        zeta = _number(float, kv["zeta"], "zeta")
        extremal = kv.get("extremal", "smallest")
        if extremal not in ("smallest", "largest"):
            raise ConfigError("extremal must be smallest or largest")
        if a.n > MAX_DENSE_N:
            raise ConfigError(
                f"spectrum-offset shifts need a dense eigendecomposition "
                f"(n <= {MAX_DENSE_N})")
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
    if not all(cmath.isfinite(z) for z in shifts):
        raise ConfigError("every shift must be finite")
    return shifts, meta


def _compute_reference(mode: str, a: SparseHermitianMatrix, v: np.ndarray,
                       shifts: Sequence[complex], spectrum):
    """Per-shift reference values, or ``None`` for ``mode="none"``;
    ``spectrum`` is a :func:`_lazy_eigenpairs` of ``a``."""
    if mode == "none":
        return None
    if a.n > MAX_DENSE_N:
        raise ConfigError(
            f"reference mode {mode!r} needs a dense solve (n <= {MAX_DENSE_N})")
    if mode == "dense":
        dense = a.to_dense()
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
        "density_percent": 100.0 * a.nnz / (a.n * a.n) if a.n else 0.0,
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
    shifts, shift_meta = _resolve_shifts(config.shifts, a, spectrum)
    if config.seed_shift is not None and not (
            1 <= config.seed_shift <= len(shifts)):
        raise ConfigError(f"seed_shift index {config.seed_shift} outside "
                          f"1..{len(shifts)}")
    reference = _compute_reference(config.reference, a, v, shifts, spectrum)
    del spectrum  # drop the cached eigenvectors before the methods run

    real_symmetric = a.is_real and a.hermitian_verified
    reports = []
    for method in config.methods:
        if method in ("lanczos", "minres") and not a.hermitian_verified:
            reports.append(MethodReport(
                method, False,
                skip_reason="matrix failed the Hermitian check"))
            continue
        if method in ("cocg", "cocr") and not real_symmetric:
            reports.append(MethodReport(
                method, False,
                skip_reason="matrix is not real symmetric"))
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

def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def history_rows(report: ExperimentReport):
    """Yield CSV rows (as strings, no newline) for every recorded iteration."""
    for mrep in report.methods:
        if not mrep.applicable or mrep.result is None:
            continue
        for idx, shift in enumerate(mrep.result.shifts, start=1):
            if shift.history is None:
                continue
            for row in shift.history:
                value = row.value
                yield ",".join([
                    mrep.method,
                    str(idx),
                    str(row.k),
                    _fmt(value.real if value is not None else None),
                    _fmt(value.imag if value is not None else None),
                    _fmt(row.mu),
                    _fmt(row.nu),
                    _fmt(row.rel_err),
                    row.status.value,
                ])


def write_report(report: ExperimentReport, out_dir) -> dict:
    """Write ``history.csv`` (when recorded) and ``summary.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    if any(m.applicable and m.result is not None
           and any(s.history is not None for s in m.result.shifts)
           for m in report.methods):
        csv_path = out / "history.csv"
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in history_rows(report):
                fh.write(row + "\n")
        paths["history"] = csv_path
    json_path = out / "summary.json"
    with open(json_path, "w", newline="\n") as fh:
        json.dump(summary_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["summary"] = json_path
    return paths


def summary_dict(report: ExperimentReport) -> dict:
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
                "shifts": [
                    {
                        "index": i + 1,
                        "z": [s.z.real, s.z.imag],
                        "value": ([s.value.real, s.value.imag]
                                  if s.value is not None else None),
                        "iterations": s.iterations,
                        "status": s.status.value,
                        "residual_norm": s.residual_norm,
                    }
                    for i, s in enumerate(res.shifts)
                ],
            })
        methods[mrep.method] = entry
    return {
        "config": report.config,
        "matrix": report.matrix_info,
        "shifts": [[z.real, z.imag] for z in report.shifts],
        "shift_meta": report.shift_meta,
        "reference_mode": report.reference_mode,
        "reference_values": ([[r.real, r.imag] for r in report.reference_values]
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
        values["history"] = values["history"].lower() in ("1", "true", "yes")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_shifts(args) -> int:
    a = _load_matrix(args.matrix) if args.matrix else None
    if isinstance(args.spec, str) and args.spec.startswith("spectrum-offset") \
            and a is None:
        raise ConfigError("spectrum-offset shifts need --matrix")
    dummy = a if a is not None else SparseHermitianMatrix.diagonal([1.0])
    shifts, meta = _resolve_shifts(args.spec, dummy, _lazy_eigenpairs(dummy))
    for z in shifts:
        print(f"{z.real!r} {z.imag!r}")
    if meta:
        print("# " + json.dumps(meta, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    a = _load_matrix(args.matrix)
    info = _matrix_info(a, args.matrix)
    for key, val in info.items():
        print(f"{key}: {val}")
    applicable = ["lanczos", "minres"] if a.hermitian_verified else []
    if a.is_real and a.hermitian_verified:
        applicable += ["cocg", "cocr"]
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
        paths = write_report(report, config.out)
        for kind, path in sorted(paths.items()):
            print(f"wrote {kind}: {path}")
    return 2 if report.numerical_failure else 0


if __name__ == "__main__":
    sys.exit(main())
