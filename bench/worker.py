"""Timed runs of the program for one workload, in a process of their own.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``

``SPEC.json`` (written by ``run_bench.py``) names the program's source
directory, the ``ExperimentConfig`` keyword arguments, the time budget and
whether to trace.  Each repetition calls ``resolvquad.harness.run_experiment``
and then ``write_report`` into a fresh directory, so the measured path is
Matrix Market file -> ``summary.json`` on disk.  With tracing on, untraced and
traced repetitions alternate, so the two can be compared.  ``RESULT.json``
receives the timings, the per-layer metrics of the traced repetitions and the
output directory of every repetition; checking those outputs is the caller's
job.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing

# The host's speed swings by about +-20% over tens of seconds as other
# tenants load it, and interpreter-bound code swings with it.  A fixed kernel
# timed before and after every repetition measures that speed, so the caller
# can scale wall times to a reference speed.
CALIBRATION_LOOP = 50_000


def calibrate() -> float:
    """Best of five timings of a fixed complex-arithmetic Python loop."""
    best = math.inf
    for _ in range(5):
        t0 = perf_counter()
        acc, z = 0j, 0.3 + 0.4j
        for i in range(CALIBRATION_LOOP):
            acc = acc * z + 1.0 / (z + i)
        best = min(best, perf_counter() - t0)
    return best


# write_report is repeated within a repetition until its calls add up to
# this long, so that a report of a few milliseconds is not timed from a
# single call.
REPORT_MIN_S = 0.25
REPORT_MAX_CALLS = 50


def _load_program(src: str):
    sys.path.insert(0, src)
    from resolvquad import harness
    where = Path(harness.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"resolvquad imported from {where}, not from {src}")
    return harness


def _repetition(harness, spec: dict, out_dir: Path, tracer=None) -> dict:
    """One file -> summary.json run; returns its timings and work counts."""
    config = harness.ExperimentConfig(**spec["config"])
    gc.collect()
    t0 = perf_counter()
    report = harness.run_experiment(config)
    t1 = perf_counter()
    harness.write_report(report, out_dir)
    t2 = perf_counter()
    report_times = [t2 - t1]
    while (sum(report_times) < REPORT_MIN_S
           and len(report_times) < REPORT_MAX_CALLS):
        ta = perf_counter()
        harness.write_report(report, out_dir)
        report_times.append(perf_counter() - ta)

    methods = {m.method: m for m in report.methods if m.applicable}
    method_s = {name: m.wall_time for name, m in methods.items()}
    csv = out_dir / "history.csv"
    rep = {
        "out": str(out_dir),
        "total_s": t2 - t0,
        "setup_s": (t1 - t0) - sum(method_s.values()),
        "report_s": statistics.median(report_times),
        "method_s": method_s,
        "summary_bytes": (out_dir / "summary.json").stat().st_size,
        "csv_bytes": csv.stat().st_size if csv.exists() else 0,
    }
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer, methods, rep, spec)
    # Only summary.json is checked; the history file can be large.
    if csv.exists():
        csv.unlink()
    return rep


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, methods: dict, rep: dict, spec: dict) -> dict:
    """Per-layer metrics of one traced repetition.

    Work counts come from the method results (iterations, per-shift
    iterations, history rows, bytes written), not from wrapper call counts,
    so they keep their meaning when the per-shift calls change shape.  A
    metric whose layer could not be wrapped is left out.
    """
    def result(name):
        return methods[name].result if name in methods else None

    def shift_iters(name):
        res = result(name)
        return sum(s.iterations for s in res.shifts) if res else 0

    def iters(name):
        res = result(name)
        return res.iterations if res else 0

    def stream_len(name):  # Lanczos coefficients produced = matvecs needed
        res = result(name)
        return len(getattr(res, "alpha", ())) if res else 0

    def span_s(name):
        return tr.stat(name).total

    def stream_s(scope):
        """Matvec plus vector update inside one driver."""
        return (tr.stat("core.matvec", {scope}).total
                + tr.stat("lanczos.step", {scope}).self_time)

    history = [row for m in methods.values() for s in m.result.shifts
               for row in (s.history or ())]
    lanczos_mu_rows = sum(
        1 for s in (result("lanczos").shifts if result("lanczos") else ())
        for row in (s.history or ()) if row.mu is not None)
    steps = sum(len(getattr(result(name), "beta", ()))
                for name in ("lanczos", "minres") if result(name))

    out: dict = {}

    def put(name, fn):
        try:
            out[name] = fn()
        except tracing.MissingLayer:
            pass

    read = lambda: tr.stat("mmio.read")  # noqa: E731
    matvec = lambda: tr.stat("core.matvec")  # noqa: E731
    put("mmio.read_s", lambda: read().self_time)
    put("mmio.entries_per_s",
        lambda: _ratio(spec["file_entries"], read().self_time))
    put("core.hermitian_check_s", lambda: tr.stat("core.hermitian_check").total)
    put("core.matvec_calls", lambda: matvec().calls)
    put("core.matvec_s", lambda: matvec().total)
    put("core.matvec_gb_per_s", lambda: _ratio(
        matvec().extra + matvec().calls * _ratio(read().extra, read().calls),
        matvec().total) / 1e9)
    put("core.matvecs_per_iter", lambda: _ratio(
        tr.stat("core.matvec", {"lanczos", "minres"}).calls,
        stream_len("lanczos") + stream_len("minres")))
    put("lanczos.steps", lambda: steps)
    put("lanczos.step_self_s", lambda: tr.stat("lanczos.step").self_time)
    put("lanczos.step_self_us",
        lambda: _ratio(tr.stat("lanczos.step").self_time, steps) * 1e6)

    for layer, scope in (("shifted_lanczos", "lanczos"),
                         ("shifted_minres", "minres")):
        put(f"{layer}.iters", lambda s=scope: iters(s))
        put(f"{layer}.shift_iters", lambda s=scope: shift_iters(s))
        put(f"{layer}.driver_self_s", lambda s=scope: tr.stat(s).self_time)
        put(f"{layer}.ns_per_shift_iter", lambda s=scope: _ratio(
            span_s(s) - stream_s(s), shift_iters(s)) * 1e9)
    put("shifted_lanczos.update_s",
        lambda: tr.stat("shifted_lanczos.update").total)
    put("shifted_lanczos.stream_share",
        lambda: _ratio(stream_s("lanczos"), span_s("lanczos")))
    # Computed from the paper's cost model, not measured.
    put("shifted_lanczos.scalar_ops", lambda: 8 * shift_iters("lanczos"))
    put("shifted_minres.givens_s",
        lambda: tr.stat("shifted_minres.givens").total)

    put("error_estimate.push_calls", lambda: tr.stat("error_estimate.push").calls)
    put("error_estimate.push_s", lambda: tr.stat("error_estimate.push").total)
    put("error_estimate.mu_computed",
        lambda: int(tr.stat("error_estimate.push").extra))
    # Stopping uses nu alone, so a mu is used only when history stores it.
    put("error_estimate.mu_used_frac", lambda: _ratio(
        lanczos_mu_rows, tr.stat("error_estimate.push").extra)
        if tr.stat("error_estimate.push").extra else 1.0)
    put("error_estimate.window_push_s",
        lambda: tr.stat("error_estimate.window_push").total)

    put("cg_variants.cocg_iters", lambda: iters("cocg"))
    put("cg_variants.cocr_iters", lambda: iters("cocr"))
    put("cg_variants.shift_iters",
        lambda: shift_iters("cocg") + shift_iters("cocr"))
    put("cg_variants.matvec_calls",
        lambda: tr.stat("core.matvec", {"cocg", "cocr"}).calls)
    put("cg_variants.update_s", lambda: tr.stat("cg_variants.update").total)
    put("cg_variants.driver_self_s",
        lambda: tr.stat("cocg").self_time + tr.stat("cocr").self_time)

    put("oracle.reference_s", lambda: span_s("oracle.reference"))

    put("harness.history_rows", lambda: len(history))
    put("harness.csv_bytes", lambda: rep["csv_bytes"])
    put("harness.summary_bytes", lambda: rep["summary_bytes"])
    put("harness.write_report_s", lambda: rep["report_s"])
    put("harness.rows_per_s", lambda: _ratio(len(history), rep["report_s"]))
    return out


def run(spec: dict) -> dict:
    """Repeat the workload for ``spec["seconds"]``; return all timings."""
    harness = _load_program(spec["src"])
    work = Path(spec["work_dir"])
    kinds = ["untraced", "traced"] if spec["trace"] else ["untraced"]
    reps: dict = {kind: [] for kind in kinds}
    missing: list = []
    spans: list = []
    deadline = perf_counter() + spec["seconds"]
    before = calibrate()
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        done = reps[kind]
        if len(done) >= spec["min_reps"]:
            # Start a repetition only if it should end before the deadline.
            expected = statistics.median(r["total_s"] for r in done)
            if perf_counter() + expected > deadline:
                break
        out_dir = work / f"rep{index}"
        if kind == "traced":
            tr = tracing.Tracer()
            with tr.installed():
                done.append(_repetition(harness, spec, out_dir, tr))
            missing = tr.missing
            spans = [vars(s) for s in tr.spans if s.name != "report"]
        else:
            done.append(_repetition(harness, spec, out_dir))
        after = calibrate()
        done[-1]["calibration_s"] = (before + after) / 2
        before = after
        index += 1
    return {
        "reps": reps,
        "missing": missing,
        "spans": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = run(spec)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
