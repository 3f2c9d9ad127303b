"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import run_bench
import tracer as tracing
import worker
import workloads

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_oracle_agrees_with_dense_eigendecomposition(name):
    w = workloads.WORKLOADS[name]
    seed = 7
    shifts, exact = workloads.exact_values(w, seed, tiny=True)
    grid, _ = workloads.sizes(w, tiny=True)
    a = workloads.matrix(w, seed, grid).toarray()
    v = workloads.start_vector(w, seed, grid * grid)
    lam, u = np.linalg.eigh(a)
    weights = np.abs(u.conj().T @ v) ** 2
    dense = np.array([np.sum(weights / (z - lam)) for z in shifts])
    np.testing.assert_allclose(exact, dense, rtol=1e-12)


@pytest.mark.parametrize("name", NAMES)
def test_input_file_round_trips_through_scipy(name, tmp_path):
    w = workloads.WORKLOADS[name]
    path, entries = workloads.input_file(w, 7, True, tmp_path)
    grid, _ = workloads.sizes(w, tiny=True)
    read = scipy.io.mmread(path).toarray()
    np.testing.assert_array_equal(read, workloads.matrix(w, 7, grid).toarray())
    stored = read if w.storage == "general" else np.tril(read)
    assert entries == np.count_nonzero(stored)


def _printed(lines, key):
    """The value printed for ``key``, ``None`` when printed as absent."""
    for line in lines:
        parts = line.split()
        if parts and parts[0] == key:
            return None if parts[1] == "absent" else float(parts[1])
    raise AssertionError(f"{key} not printed")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_and_checked(name, trace, capsys):
    line = run_bench.run_benchmark(name, seed=3, seconds=0.2, trace=trace,
                                   tiny=True)
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == line
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    listed, extra = ((run_bench.PER_LAYER, run_bench.PER_LAYER_EXTRA) if trace
                     else (run_bench.END_TO_END, run_bench.END_TO_END_EXTRA))
    assert set(line["metrics"]) == {key for key, _ in listed}
    for key, unit in listed:
        assert line["metrics"][key]["unit"] == unit
        assert math.isfinite(line["metrics"][key]["value"])
        assert _printed(lines, key) is not None
    cg_runs = "cocg" in workloads.WORKLOADS[name].methods
    for key, _ in extra:
        value = _printed(lines, key)
        if key in ("cocg_s", "cocr_s"):
            assert (value is not None) == cg_runs
        else:
            assert value is not None
    if trace:
        assert line["metrics"]["core.matvecs_per_iter"]["value"] == 1.0


def test_tracer_survives_a_missing_name(tmp_path):
    w = workloads.WORKLOADS["protocol"]
    path, entries = workloads.input_file(w, 3, True, tmp_path)
    harness = worker._load_program(str(run_bench.SRC))
    from resolvquad.core import SparseHermitianMatrix
    original = SparseHermitianMatrix.matvec
    bogus = tracing.Target("resolvquad.core",
                           "SparseHermitianMatrix.no_such_method",
                           "core.matvec")
    targets = tuple(t for t in tracing.TARGETS if t.layer != "core.matvec")
    tr = tracing.Tracer(targets + (bogus,))
    spec = {"config": workloads.program_config(w, 3, True, path),
            "file_entries": entries}
    with tr.installed():
        rep = worker._repetition(harness, spec, tmp_path / "out", tr)
    assert SparseHermitianMatrix.matvec is original
    assert tr.missing == ["resolvquad.core:SparseHermitianMatrix.no_such_method"]
    layers = rep["layers"]
    for key in ("core.matvec_s", "core.matvec_calls", "core.matvecs_per_iter",
                "shifted_lanczos.stream_share"):
        assert key not in layers
    assert layers["shifted_lanczos.iters"] > 0
    assert layers["lanczos.step_self_s"] > 0
    assert Path(tmp_path / "out" / "summary.json").is_file()
