"""The convergence history recorded as columns, and the ``history.csv``
writer that formats them.

``tests/data/history_golden.csv`` and ``tests/data/history_rows_golden.json``
were written by the row-per-object recorder that the columns replaced, from
the runs built below; the column path must reproduce both exactly.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad import (
    cg_variants,
    core,
    error_estimate,
    harness,
    shift_batch,
    shifted_lanczos,
    shifted_minres,
)
from resolvquad.core import SparseHermitianMatrix
from resolvquad.harness import (
    CSV_HEADER,
    ExperimentConfig,
    history_rows,
    run_experiment,
    write_report,
)
from resolvquad.mmio import write_matrix_market

from conftest import random_hermitian_dense

DATA = Path(__file__).parent / "data"
ALL_METHODS = ("lanczos", "minres", "cocg", "cocr")


def real24():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((24, 24))
    return SparseHermitianMatrix.from_dense((b + b.T) / 2)


def golden_runs(tmp: Path) -> list:
    """``(name, ExperimentConfig)`` of the golden history: Lanczos rows with
    and without ``mu``, MINRES, COCG and COCR, a spectral reference,
    ``max_iter=7, lag=2``, the invariant-subspace flush on ``diag(1, 2)``, a
    Lanczos ``overflow`` set on the last row and a ``breakdown`` row at
    ``k = 1`` with no value."""
    rng = np.random.default_rng(7)
    c = random_hermitian_dense(rng, 6)
    huge_b = np.random.default_rng(5).standard_normal((6, 6))
    matrices = {
        "real24": real24(),
        "diag12": SparseHermitianMatrix.diagonal([1.0, 2.0]),
        "huge": SparseHermitianMatrix.from_dense((huge_b + huge_b.T) * 1e305),
        "ones": SparseHermitianMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]]),
        "complex6": SparseHermitianMatrix.from_dense(c),
    }
    path = {}
    for name, a in matrices.items():
        path[name] = tmp / f"{name}.mtx"
        write_matrix_market(a, path[name])
    (tmp / "e1.txt").write_text("1.0\n0.0\n")
    (tmp / "shifts.txt").write_text("1.0 0.0\n2.0 1.0\n")

    def config(matrix, **kw):
        return ExperimentConfig(matrix=path[matrix], history=True, **kw)

    return [
        ("real24-spectral-lim", config(
            "real24", vector="random:3", shifts="unit-circle:m=2",
            reference="spectral", max_iter=7, lag=2, seed_shift=2)),
        ("real24-none", config("real24", shifts="unit-circle:m=2")),
        ("diag12-flush", config("diag12", shifts="unit-circle:m=4",
                                methods=("lanczos", "minres"))),
        ("diag12-dense", config("diag12", shifts="unit-circle:m=2",
                                reference="dense")),
        ("huge-overflow", config("huge", shifts="unit-circle:m=4",
                                 methods=("lanczos", "minres", "cocr"))),
        ("ones-breakdown", config("ones", vector=f"file:{tmp / 'e1.txt'}",
                                  shifts=f"list:{tmp / 'shifts.txt'}",
                                  methods=("lanczos", "minres"))),
        ("complex6-spectral", config("complex6", vector="random:3",
                                     shifts="unit-circle:m=3",
                                     reference="spectral",
                                     methods=("lanczos", "minres"))),
    ]


def golden_csv(tmp: Path) -> str:
    """Every golden run's ``history.csv``, each after a ``# name`` line."""
    parts = []
    for name, config in golden_runs(tmp):
        paths = write_report(run_experiment(config), tmp / name)
        parts.append(f"# {name}\n" + paths["history"].read_text())
    return "".join(parts)


def rows_config(tmp: Path) -> ExperimentConfig:
    """The 24x24 run, all four methods, whose history rows are pinned."""
    path = tmp / "real24.mtx"
    write_matrix_market(real24(), path)
    return ExperimentConfig(matrix=path, shifts="unit-circle:m=2",
                            reference="spectral", history=True,
                            methods=ALL_METHODS)


def rows_record(report) -> dict:
    """Every history row and ``pi`` list of a report, as JSON values."""
    def row(r):
        value = None if r.value is None else [r.value.real, r.value.imag]
        return [r.k, value, r.status.value, r.mu, r.nu, r.rel_err, r.g_abs,
                r.h_abs, r.residual]

    out = {}
    for mrep in report.executed:
        res = mrep.result
        out[mrep.method] = {
            "rows": [[row(r) for r in s.history] for s in res.shifts],
            "pi": ([[[p.real, p.imag] for p in pis] for pis in res.pi_history]
                   if hasattr(res, "pi_history") else None),
        }
    return out


def test_history_csv_matches_golden(tmp_path):
    assert golden_csv(tmp_path) == (DATA / "history_golden.csv").read_text()


def test_design_records_no_row_objects(tmp_path, monkeypatch):
    """No ``HistoryEntry`` is created by the drivers or the writer; the rows
    read afterwards are the rows the eager recorder produced."""
    built = []

    class Counting(core.HistoryEntry):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    for module in (core, shift_batch, shifted_lanczos, shifted_minres,
                   cg_variants, error_estimate, harness):
        monkeypatch.setattr(module, "HistoryEntry", Counting, raising=False)
    report = run_experiment(rows_config(tmp_path))
    write_report(report, tmp_path / "out")
    assert built == []
    monkeypatch.undo()
    want = json.loads((DATA / "history_rows_golden.json").read_text())
    assert rows_record(report) == want


def reference_rows(report):
    """The row-by-row formatter the column writer replaced, fed from the
    per-shift ``HistoryEntry`` rows."""
    def fmt(x):
        return "" if x is None else repr(float(x))

    for mrep in report.methods:
        if not mrep.applicable or mrep.result is None:
            continue
        for idx, shift in enumerate(mrep.result.shifts, start=1):
            if shift.history is None:
                continue
            for row in shift.history:
                value = row.value
                yield ",".join([
                    mrep.method, str(idx), str(row.k),
                    fmt(value.real if value is not None else None),
                    fmt(value.imag if value is not None else None),
                    fmt(row.mu), fmt(row.nu), fmt(row.rel_err),
                    row.status.value,
                ])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14),
       real=st.booleans(), m=st.integers(1, 4),
       reference=st.sampled_from(["none", "dense"]),
       lag=st.integers(1, 3), max_iter=st.sampled_from([None, 3, 9]))
def test_column_writer_equals_row_formatter(seed, n, real, m, reference, lag,
                                            max_iter):
    rng = np.random.default_rng(seed)
    a = SparseHermitianMatrix.from_dense(random_hermitian_dense(rng, n,
                                                                real=real))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.mtx"
        write_matrix_market(a, path)
        report = run_experiment(ExperimentConfig(
            matrix=path, vector=f"random:{seed}", shifts=f"unit-circle:m={m}",
            reference=reference, lag=lag, max_iter=max_iter, history=True,
            methods=ALL_METHODS if real else ("lanczos", "minres")))
        paths = write_report(report, tmp)
        text = paths["history"].read_text()
    rows = list(history_rows(report))
    assert rows == list(reference_rows(report))
    assert text == "\n".join([CSV_HEADER] + rows) + "\n"


@pytest.mark.parametrize("history", [False, True])
def test_history_off_and_empty(tmp_path, history):
    """Without history nothing is recorded and no CSV is written; a run that
    freezes before its first iteration records an empty history."""
    b = np.random.default_rng(5).standard_normal((6, 6))
    path = tmp_path / "huge.mtx"
    write_matrix_market(
        SparseHermitianMatrix.from_dense((b + b.T) * 1e305), path)
    report = run_experiment(ExperimentConfig(
        matrix=path, methods=("minres",), history=history))
    res = report.methods[0].result
    paths = write_report(report, tmp_path / "out")
    if history:
        assert [s.history for s in res.shifts] == [[]] * len(res.shifts)
        assert paths["history"].read_text() == CSV_HEADER + "\n"
    else:
        assert res.history is None
        assert all(s.history is None for s in res.shifts)
        assert "history" not in paths
