"""resolvquad benchmark: Matrix Market file -> summary.json on four workloads.

Usage (from the repository root)::

    python3 bench/run_bench.py --workload many-shifts --seed 1 --seconds 25 --trace 0

Workloads: many-shifts, large-n, complex-gauge, protocol (see
``bench/workloads.py`` for why each exists).  A run

1. writes the workload's Matrix Market file for the seed, or reuses it from
   ``.bench_cache/inputs`` (not timed),
2. starts one worker process (``bench/worker.py``) with BLAS threads capped at
   the number of CPUs; it repeats ``run_experiment`` + ``write_report`` from
   ``src/resolvquad`` for ``--seconds``,
3. checks every value in every ``summary.json`` the worker wrote against the
   exact oracle; a (method, shift) solve fails when its status is not
   ``converged`` or its value misses the oracle,
4. prints each metric with its unit, then, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
wall times scaled to a reference machine speed, which a calibration kernel
timed around every repetition measures (see ``CALIBRATION_REF_S``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus ``harness.trace_overhead``: traced
over untraced ``total_s``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
# The worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170

# Time of worker.calibrate() on the reference machine (Intel Xeon, KVM,
# 2 vCPUs, Python 3.11.7, quiet host).  End-to-end times are reported at that
# speed: each repetition's wall time times CALIBRATION_REF_S over the kernel's
# time measured around it.
CALIBRATION_REF_S = 0.008

# End-to-end metrics of every workload, measured untraced.
END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("lanczos_s", "s"),
    ("minres_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Printed but not in the JSON line: absent or zero on some workloads, or,
# for report_s, a few milliseconds of file-system calls on three of them.
END_TO_END_EXTRA = (("report_s", "s"), ("cocg_s", "s"), ("cocr_s", "s"),
                    ("shift_fail_frac", "ratio"))

PER_LAYER = (
    ("mmio.read_s", "s"),
    ("mmio.entries_per_s", "1/s"),
    ("core.hermitian_check_s", "s"),
    ("core.matvec_calls", "count"),
    ("core.matvec_s", "s"),
    ("core.matvec_gb_per_s", "GB/s"),  # computed bytes
    ("core.matvecs_per_iter", "ratio"),
    ("lanczos.steps", "count"),
    ("lanczos.step_self_s", "s"),
    ("lanczos.step_self_us", "us"),
    ("shifted_lanczos.iters", "count"),
    ("shifted_lanczos.shift_iters", "count"),
    ("shifted_lanczos.update_s", "s"),
    ("shifted_lanczos.driver_self_s", "s"),
    ("shifted_lanczos.ns_per_shift_iter", "ns"),
    ("shifted_lanczos.stream_share", "ratio"),
    ("shifted_lanczos.scalar_ops", "count"),  # computed: 8 x shift_iters
    ("error_estimate.push_calls", "count"),
    ("error_estimate.push_s", "s"),
    ("error_estimate.mu_computed", "count"),
    ("error_estimate.mu_used_frac", "ratio"),
    ("error_estimate.window_push_s", "s"),
    ("shifted_minres.iters", "count"),
    ("shifted_minres.shift_iters", "count"),
    ("shifted_minres.givens_s", "s"),
    ("shifted_minres.driver_self_s", "s"),
    ("shifted_minres.ns_per_shift_iter", "ns"),
    ("cg_variants.cocg_iters", "count"),
    ("cg_variants.cocr_iters", "count"),
    ("cg_variants.shift_iters", "count"),
    ("cg_variants.matvec_calls", "count"),
    ("oracle.reference_s", "s"),
    ("harness.history_rows", "count"),
    ("harness.csv_bytes", "bytes"),
    ("harness.summary_bytes", "bytes"),
    ("harness.write_report_s", "s"),
    ("harness.trace_overhead", "ratio"),
)
# Printed but not in the JSON line: times that are exactly zero on the
# workloads where their layer does not run.
PER_LAYER_EXTRA = (("cg_variants.update_s", "s"),
                   ("cg_variants.driver_self_s", "s"),
                   ("harness.rows_per_s", "1/s"))


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def environment() -> dict:
    def sysconf(number):
        try:
            return os.sysconf(number)
        except (ValueError, OSError):
            return None

    nproc = len(os.sched_getaffinity(0))
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE, which os.sysconf_names does not list.
    return {
        "nproc": nproc,
        "l1d_bytes": sysconf(188),
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": nproc,
    }


def start_worker(spec: dict, work: Path, env_info: dict) -> dict:
    spec_path = work / "spec.json"
    result_path = work / "result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    threads = str(env_info["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             str(result_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n"
                         + proc.stderr[-4000:])
    return json.loads(result_path.read_text())


def check_outputs(w: workloads.Workload, out_dirs, shifts, exact):
    """Compare every summary.json with the oracle.

    Returns ``(attempted, failed, max_rel_err_per_method, problems)``; the
    values are
    read back from disk so the report layer is checked too.
    """
    attempted = failed = 0
    max_err = dict.fromkeys(w.methods, 0.0)
    limit = workloads.oracle_rtol(w)
    problems: list = []
    scale = np.abs(exact)
    for out in out_dirs:
        summary = json.loads((Path(out) / "summary.json").read_text())
        z = np.array([complex(*p) for p in summary["shifts"]])
        if z.shape != shifts.shape or np.max(np.abs(z - shifts)) > 1e-14:
            problems.append(f"{out}: shift list differs from unit-circle:m="
                            f"{shifts.size}")
        for method in w.methods:
            attempted += shifts.size
            entry = summary["methods"].get(method, {})
            if not entry.get("applicable"):
                failed += shifts.size
                problems.append(f"{out}: {method} did not run")
                continue
            rows = entry["shifts"]
            ok = np.zeros(shifts.size, dtype=bool)
            for i, row in enumerate(rows[:shifts.size]):
                if row["status"] != "converged" or row["value"] is None:
                    continue
                err = abs(complex(*row["value"]) - exact[i]) / scale[i]
                max_err[method] = max(max_err[method], err)
                ok[i] = err <= limit
            failed += int(np.count_nonzero(~ok))
    return attempted, failed, max_err, problems


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> dict:
    """Run one workload, print its metrics, return the result object."""
    if not (SRC / "resolvquad" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    w = workloads.WORKLOADS[name]
    env_info = environment()
    matrix_path, entries = workloads.input_file(w, seed, tiny, CACHE / "inputs")
    shifts, exact = workloads.exact_values(w, seed, tiny)

    work = CACHE / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = {
            "src": str(SRC),
            "work_dir": str(work),
            "config": workloads.program_config(w, seed, tiny, matrix_path),
            "file_entries": entries,
            "seconds": seconds,
            "trace": trace,
            # Three untraced repetitions give a median even on a workload
            # whose repetition takes a third of --seconds.
            "min_reps": 1 if trace else 3,
        }
        result = start_worker(spec, work, env_info)
        reps = result["reps"]
        out_dirs = [r["out"] for kind in reps.values() for r in kind]
        attempted, failed, max_err, problems = check_outputs(
            w, out_dirs, shifts, exact)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def times(kind):
        """Per-repetition wall times, flattened: key -> list of seconds."""
        out: dict = {}
        for r in reps[kind]:
            for key, value in [("total_s", r["total_s"]),
                               ("setup_s", r["setup_s"]),
                               ("report_s", r["report_s"])] + [
                    (f"{m}_s", t) for m, t in r["method_s"].items()]:
                out.setdefault(key, []).append(
                    (value, CALIBRATION_REF_S / r["calibration_s"]))
        return out

    def at_reference_speed(samples):
        return statistics.median(t * speed for t, speed in samples)

    untraced = times("untraced")
    values: dict = {}
    wall: dict = {}
    if not trace:
        for key, samples in untraced.items():
            values[key] = at_reference_speed(samples)
            wall[key] = statistics.median(t for t, _ in samples)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        values["shift_fail_frac"] = failed / attempted
        listed, extra = END_TO_END, END_TO_END_EXTRA
    else:
        traced = reps["traced"]
        for key in {k for r in traced for k in r["layers"]}:
            values[key] = statistics.median(
                r["layers"][key] for r in traced if key in r["layers"])
        values["harness.trace_overhead"] = (
            at_reference_speed(times("traced")["total_s"])
            / at_reference_speed(untraced["total_s"]))
        listed, extra = PER_LAYER, PER_LAYER_EXTRA
        per_iter = values.get("core.matvecs_per_iter")
        # The paper's cost model: at most one matvec per Lanczos coefficient.
        if per_iter is not None and per_iter > 1.0:
            problems.append(f"core.matvecs_per_iter = {per_iter} > 1")

    counts = {kind: len(r) for kind, r in reps.items()}
    print(f"workload: {name}  seed: {seed}  seconds: {seconds}  "
          f"trace: {int(trace)}  repetitions: {counts}")
    print(f"why: {w.why}")
    print("environment: " + json.dumps(env_info))
    calibration = [r["calibration_s"] for rs in reps.values() for r in rs]
    print(f"calibration kernel: median {statistics.median(calibration):.6g} s"
          f" (reference {CALIBRATION_REF_S} s); end-to-end times below are at"
          f" the reference speed, wall-clock medians in brackets")
    for key, unit in listed + extra:
        if key not in values:
            print(f"{key:<36} {'absent':>16} {unit}")
        elif key in wall:
            print(f"{key:<36} {values[key]:>16.6g} {unit}"
                  f"  (wall {wall[key]:.6g} {unit})")
        else:
            print(f"{key:<36} {values[key]:>16.6g} {unit}")
    if trace:
        if result["missing"]:
            print("tracer: not found, metrics left out: "
                  + ", ".join(result["missing"]))
        t0 = result["spans"][0]["start"] if result["spans"] else 0.0
        for s in result["spans"]:
            print(f"span {s['name']:<18} {s['start'] - t0:9.4f} "
                  f"{s['end'] - t0:9.4f} self {s['self_time']:.4f} s "
                  f"parent {s['parent']}")
    print(f"check: {attempted} (method, shift) solves against the exact "
          f"oracle, {failed} failed; max relative error "
          + ", ".join(f"{m} {e:.3g}" for m, e in max_err.items())
          + f" (limit {workloads.oracle_rtol(w):g})")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    correct = failed == 0 and not problems
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in listed if key in values}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    try:
        run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
