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
from resolvquad.core import SolveStatus, SparseHermitianMatrix
from resolvquad.error_estimate import EstimatorState
from resolvquad.harness import (
    CSV_HEADER,
    ExperimentConfig,
    history_rows,
    run_experiment,
    write_report,
)
from resolvquad.lanczos import lanczos_init
from resolvquad.mmio import write_matrix_market
from resolvquad.shifted_lanczos import (
    run_quadratic_forms,
    shift_state_init,
    shift_state_update,
)
from resolvquad.shifted_minres import minres_run

from conftest import random_hermitian_dense, random_vector

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
        # no COCR: its rows on this matrix are not in the golden file;
        # test_near_overflow_matrix_against_dense_oracle pins them
        ("huge-overflow", config("huge", shifts="unit-circle:m=4",
                                 methods=("lanczos", "minres"))),
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


FAILURE_RUNS = {
    # shift 1 overflows at k = 3 (its value passes 1e308 on the eigenvalue 2
    # at k = 3); the status goes on its last accepted row, k = 2
    "minres-overflow": (
        [1.0, 2.0, 3.0], 1e153 * np.ones(3), [2 + 1e-3j, 10 + 1j], "minres",
        None,
        [(1, 1, True, "active"), (1, 2, True, "overflow"),
         (2, 1, True, "active"), (2, 2, True, "active"),
         (2, 3, True, "converged")]),
    # pi_1 = 0 for z = 1.5 with the seed z = 0: shift 1 freezes before its
    # first accepted row and has none
    "cocg-pi-zero": (
        [1.0, 2.0], np.ones(2) / np.sqrt(2.0), [1.5, 3.0, 0.0], "cocg", 3,
        [(2, 1, True, "active"), (2, 2, True, "converged"),
         (3, 1, True, "active"), (3, 2, True, "converged")]),
    # the same problem scaled by 1e150 with z = 1.5 + 1e-20 i: the update
    # of shift 1 overflows at k = 1, so it has no row either
    "cocg-overflow": (
        [1.0, 2.0], 1e150 * np.ones(2) / np.sqrt(2.0),
        [1.5 + 1e-20j, 3.0, 0.0], "cocg", 3,
        [(2, 1, True, "active"), (2, 2, True, "converged"),
         (3, 1, True, "active"), (3, 2, True, "converged")]),
    # z_s = 1.5 is the Rayleigh quotient of v, so r_0^T (z_s I - A) r_0 = 0
    # is found after iteration 1 is accepted: the status goes on that row
    "cocr-seed-breakdown": (
        [1.0, 2.0], np.ones(2), [3 + 1j, 1.5], "cocr", 2,
        [(1, 1, True, "seed_breakdown"), (2, 1, True, "seed_breakdown")]),
    # L_3 of z = 1 + 1e-12 i passes 1e308 while the stream stays finite:
    # Lanczos gives the overflow a row of its own at k = 3, holding L_2.
    # z = 2 + 1e-12 i is 1e-12 i off alpha_1 = 2, so L_1 overflows: a row
    # of its own at k = 1 with no value
    "lanczos-overflow": (
        [1.0, 2.0, 3.0], 1e149 * np.ones(3),
        [1 + 1e-12j, 2 + 1e-12j, 10 + 1j], "lanczos", None,
        [(1, 1, True, "active"), (1, 2, True, "active"),
         (1, 3, True, "overflow"), (2, 1, False, "overflow"),
         (3, 1, True, "active"), (3, 2, True, "active"),
         (3, 3, True, "converged")]),
}


@pytest.mark.parametrize("case", list(FAILURE_RUNS))
def test_failure_status_placement_in_history_csv(tmp_path, case):
    """Where ``history.csv`` puts a per-shift failure: on the shift's last
    accepted row, no row when it failed before its first, and a row of its
    own for a Lanczos shift that fails after an accepted row.  Pinned as
    ``(shift_index, iteration, has value, status)`` of every row."""
    diag, v, shifts, method, seed, want = FAILURE_RUNS[case]
    matrix, vector = tmp_path / "a.mtx", tmp_path / "v.txt"
    write_matrix_market(SparseHermitianMatrix.diagonal(diag), matrix)
    vector.write_text("".join(f"{float(x)!r}\n" for x in v))
    report = run_experiment(ExperimentConfig(
        matrix=matrix, vector=f"file:{vector}", shifts=shifts,
        methods=(method,), seed_shift=seed, history=True))
    text = write_report(report, tmp_path / "out")["history"].read_text()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [(int(r[1]), int(r[2]), r[3] != "", r[8]) for r in rows] == want
    if method == "lanczos":  # the overflow row at k = 3 holds L_2
        assert rows[2][3:5] == rows[1][3:5]


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


def test_history_rows_carry_pi(tmp_path):
    """Each COCG/COCR row holds its iteration's cell of the ``pi`` column;
    a Lanczos or MINRES row holds none."""
    report = run_experiment(rows_config(tmp_path))
    for mrep in report.executed:
        res = mrep.result
        cols = res.history.columns()
        for s in res.shifts:
            pis = cols["pi"][cols["shift"] == s.index].tolist()
            if mrep.method not in ("cocg", "cocr"):
                pis = [None] * len(pis)
            assert [row.pi for row in s.history] == pis


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


ESTIMATE_RTOL = 1e-12
FREEZE_ROWS = (SolveStatus.BREAKDOWN, SolveStatus.OVERFLOW)


def estimate_problem(seed, n, real, spectrum):
    """A Hermitian problem whose ``dense`` spectrum or three distinct
    eigenvalues (an invariant subspace at k = 3); off-axis shifts, the exact
    Rayleigh quotient ``alpha_1`` (a breakdown at k = 1) and a shift 1e-3
    above an eigenvalue."""
    rng = np.random.default_rng(seed)
    dense = random_hermitian_dense(rng, n, real=real)
    if spectrum == "three":
        q = np.linalg.eigh(dense)[1]
        lam = rng.choice([-1.5, 0.25, 2.0], size=n)
        dense = (q * lam) @ q.conj().T
        dense = (dense + dense.conj().T) / 2
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, n, real=real)
    shifts = [complex(3 * rng.standard_normal(),
                      (0.05 + 2 * rng.random()) * rng.choice([-1, 1]))
              for _ in range(3)]
    shifts.append(complex(lanczos_init(a, v).coeffs.alpha[0]))
    lam = np.linalg.eigvalsh(dense)
    shifts.append(complex(lam[rng.integers(n)], 1e-3))
    return a, v, shifts


def close(got, want):
    if want is None:
        return got is None
    return got is not None and abs(got - want) <= ESTIMATE_RTOL * abs(want)


def scalar_reference(res, z, lag, iterations):
    """:class:`EstimatorState` driven by the scalar recursion over the
    run's own coefficients for ``iterations`` iterations: its reports by
    ``k`` and its final window."""
    est = EstimatorState(z, lag, res.vnorm2)
    state = shift_state_init(z, res.vnorm2, res.alpha[0])
    reports = {}
    for j in range(iterations):
        if j:
            shift_state_update(state, res.alpha[j], res.beta[j - 1])
        assert state.status is SolveStatus.ACTIVE
        report = est.push(res.alpha[j], res.beta[j - 1] if j else None,
                          state.delta, state.L)
        if report is not None:
            reports[report.k] = report
    return reports, est.window


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 16),
       real=st.booleans(), spectrum=st.sampled_from(["dense", "three"]),
       lag=st.integers(1, 6), max_iter=st.sampled_from([None, 4, 11]))
def test_history_estimates_match_the_scalar_estimator(seed, n, real, spectrum,
                                                      lag, max_iter):
    """The recorded ``nu`` is ``|L_k - L_{k+d}|`` of the recorded values,
    bit for bit, or ``|L_k - L_K|`` after an invariant subspace at ``K``;
    ``mu``, ``g_abs`` and ``h_abs`` are the scalar estimator's, with the
    same cells empty.  MINRES records ``nu`` alone."""
    a, v, shifts = estimate_problem(seed, n, real, spectrum)
    kw = dict(rtol=None, lag=lag, max_iter=max_iter, keep_history=True)
    res = run_quadratic_forms(a, v, shifts, **kw)
    assert res.shifts[-2].status is SolveStatus.BREAKDOWN
    for out in res.shifts:
        rows = [r for r in out.history if r.status not in FREEZE_ROWS]
        assert [r.k for r in rows] == list(range(1, len(rows) + 1))
        assert all(r.nu is r.mu is r.g_abs is r.h_abs is None
                   for r in out.history if r.status in FREEZE_ROWS)
        # with rtol=None only an invariant subspace ends a shift converged
        exact = out.status is SolveStatus.CONVERGED
        assert not exact or res.invariant_subspace_at == out.iterations
        reports, window = scalar_reference(res, out.z, lag, len(rows))
        tail = {e.k: e for e in window}
        for i, row in enumerate(rows):
            if i + lag < len(rows):
                assert row.nu == abs(row.value - rows[i + lag].value)
                want = reports[row.k]
                got = (row.mu, row.g_abs, row.h_abs)
                assert all(map(close, got, (want.mu, want.g_abs, want.h_abs)))
            elif exact:
                assert row.nu == abs(row.value - rows[-1].value)
                g = tail[row.k].g
                assert close(row.g_abs, None if g is None else abs(g))
                assert row.mu == (0.0 if row is rows[-1] else None)
                assert row.h_abs is None
            else:
                assert row.nu is row.mu is row.g_abs is row.h_abs is None

    res = minres_run(a, v, shifts, **kw)
    for out in res.shifts:
        values = [r.value for r in out.history]
        for i, row in enumerate(out.history):
            want = (abs(values[i] - values[i + lag])
                    if i + lag < len(values) else None)
            assert row.nu == want
            assert row.mu is row.g_abs is row.h_abs is None


def test_design_solve_loop_computes_no_corner_or_bridge(monkeypatch):
    """The Lanczos solve computes only ``nu``; the corner and bridge entries
    behind ``mu`` are computed when the history columns are built."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_bridge", "corner_update"):
        monkeypatch.setattr(error_estimate, name,
                            counting(getattr(error_estimate, name)))
    rng = np.random.default_rng(3)
    a = SparseHermitianMatrix.from_dense(random_hermitian_dense(rng, 12))
    res = run_quadratic_forms(a, random_vector(rng, 12),
                              [0.3 + 1j, -1 - 0.5j], rtol=None,
                              keep_history=True)
    assert calls == []
    assert res.shifts[0].history[0].mu is not None
    assert {"_bridge", "corner_update"} <= set(calls)
