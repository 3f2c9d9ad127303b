import cmath
import json
import math
import platform
import time

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad import __version__, harness
from resolvquad.core import (
    MethodResult,
    ShiftOutcome,
    SolveStatus,
    SparseHermitianMatrix,
)
from resolvquad.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    MethodReport,
    generate_unit_circle_shifts,
    load_config_file,
    main,
    render_summary_table,
    run_experiment,
    summary_text,
    write_report,
)
from resolvquad.mmio import read_matrix_market, write_matrix_market
from resolvquad.oracle import (
    MAX_DENSE_N,
    spectral_decomposition,
    spectral_quadform,
)

from conftest import laplacian, random_hermitian, random_hermitian_dense


@pytest.fixture
def diag_matrix_path(tmp_path):
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    path = tmp_path / "diag12.mtx"
    write_matrix_market(a, path)
    return path


@pytest.fixture
def random_matrix_path(tmp_path, rng):
    a = random_hermitian(rng, 24, real=True)
    path = tmp_path / "rand24.mtx"
    write_matrix_market(a, path)
    return path


# ---------------------------------------------------------------------------
# shift generation
# ---------------------------------------------------------------------------

def test_unit_circle_values_match_direct_exponential():
    shifts = generate_unit_circle_shifts(16)
    assert len(shifts) == 16
    assert shifts[0] == pytest.approx(cmath.exp(-3j * math.pi / 32))
    assert shifts[0] == pytest.approx(0.95694034 - 0.29028468j, abs=1e-8)
    assert shifts[15] == pytest.approx(cmath.exp(-33j * math.pi / 32))
    assert shifts[15] == pytest.approx(-0.99518473 + 0.09801714j, abs=1e-8)


def test_unit_circle_modulus_and_off_axis():
    for m in (1, 3, 16, 64):
        for z in generate_unit_circle_shifts(m):
            assert abs(z) == pytest.approx(1.0, abs=1e-15)
            assert z.imag != 0.0


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_empty_methods_rejected(diag_matrix_path):
    config = ExperimentConfig(matrix=diag_matrix_path, methods=())
    with pytest.raises(ConfigError, match="methods"):
        run_experiment(config)


def test_unknown_method_rejected(diag_matrix_path):
    config = ExperimentConfig(matrix=diag_matrix_path, methods=("qmr",))
    with pytest.raises(ConfigError):
        run_experiment(config)


@pytest.mark.parametrize("key, value", [
    ("lag", 2.5), ("lag", True), ("lag", "2"), ("lag", None),
    ("max_iter", "5"), ("max_iter", 5.0), ("max_iter", False),
    ("seed_shift", 1.5), ("seed_shift", True),
    ("history", "no"), ("history", 1), ("history", None),
    ("methods", ("lanczos", "minres", "lanczos")), ("methods", "lanczos"),
    ("vector", None), ("vector", b"uniform"),
    ("shifts", 5), ("shifts", [1 + 1j, "2"]), ("shifts", b"12"),
    ("shifts", [True]),
    ("matrix", 5), ("matrix", None),
])
def test_mistyped_config_rejected(diag_matrix_path, key, value):
    """A value the drivers cannot take is a configuration error, raised
    before anything runs: an integer key that is not an integer (or is a
    ``bool``), a ``history`` that is not ``True`` or ``False``, a method
    named twice or a bare ``str`` of methods, a ``vector`` that is not a
    ``str``, ``shifts`` that are neither a ``str`` nor a sequence of
    numbers, a ``matrix`` that is neither a ``str`` nor a ``Path``."""
    config = ExperimentConfig(**{"matrix": diag_matrix_path,
                                 "shifts": [1 + 1j, 2 + 1j], key: value})
    with pytest.raises(ConfigError, match=key):
        run_experiment(config)


def test_bad_reference_mode(diag_matrix_path):
    config = ExperimentConfig(matrix=diag_matrix_path, reference="exact")
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_missing_matrix_is_config_error(tmp_path):
    config = ExperimentConfig(matrix=tmp_path / "missing.mtx")
    with pytest.raises(ConfigError):
        run_experiment(config)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_diag_explicit_shift_all_methods(diag_matrix_path):
    config = ExperimentConfig(matrix=diag_matrix_path, shifts=[3.0 + 0j],
                              reference="dense")
    report = run_experiment(config)
    assert len(report.executed) == 4
    for mrep in report.methods:
        out = mrep.result.shifts[0]
        assert out.iterations <= 2
        assert out.value == pytest.approx(0.75, abs=1e-10)
    assert not report.numerical_failure


def test_complex_hermitian_skips_cg_methods(tmp_path, rng):
    a = random_hermitian(rng, 12)  # complex Hermitian
    path = tmp_path / "cplx.mtx"
    write_matrix_market(a, path)
    report = run_experiment(ExperimentConfig(matrix=path,
                                             shifts=[2.0 + 1.0j]))
    by_name = {m.method: m for m in report.methods}
    assert by_name["lanczos"].applicable
    assert by_name["minres"].applicable
    assert not by_name["cocg"].applicable
    assert "real symmetric" in by_name["cocg"].skip_reason
    assert not by_name["cocr"].applicable


def test_no_applicable_method_errors(tmp_path):
    sym = SparseHermitianMatrix.from_dense([[0.0, 1.0j], [1.0j, 0.0]])
    path = tmp_path / "sym.mtx"
    write_matrix_market(sym, path)
    with pytest.raises(ConfigError, match="applicable"):
        run_experiment(ExperimentConfig(matrix=path, shifts=[2.0 + 0j]))


def test_vector_specs(tmp_path, random_matrix_path):
    config = ExperimentConfig(matrix=random_matrix_path, vector="uniform",
                              shifts=[2.0 + 1.0j], methods=("lanczos",))
    run_experiment(config)  # n^{-1/2} e accepted

    r1 = run_experiment(ExperimentConfig(
        matrix=random_matrix_path, vector="random:7", shifts=[2.0 + 1.0j],
        methods=("lanczos",)))
    r2 = run_experiment(ExperimentConfig(
        matrix=random_matrix_path, vector="random:7", shifts=[2.0 + 1.0j],
        methods=("lanczos",)))
    assert r1.methods[0].result.values == r2.methods[0].result.values

    vec = np.arange(1.0, 25.0)
    vec_path = tmp_path / "vec.txt"
    np.savetxt(vec_path, vec)
    r3 = run_experiment(ExperimentConfig(
        matrix=random_matrix_path, vector=f"file:{vec_path}",
        shifts=[2.0 + 1.0j], methods=("lanczos",)))
    assert r3.methods[0].result.vnorm2 == pytest.approx(float(vec @ vec))

    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(
            matrix=random_matrix_path, vector="bogus",
            shifts=[2.0 + 1.0j], methods=("lanczos",)))


def test_shift_list_file(tmp_path, diag_matrix_path):
    shift_path = tmp_path / "shifts.txt"
    shift_path.write_text("3.0 -0.0\n4.0 1.0\n")
    report = run_experiment(ExperimentConfig(
        matrix=diag_matrix_path, shifts=f"list:{shift_path}",
        methods=("lanczos",)))
    assert report.shifts == [3.0 + 0j, 4.0 + 1.0j]
    assert math.copysign(1.0, report.shifts[0].imag) == -1.0  # as read


def test_spectrum_offset_spec(diag_matrix_path):
    report = run_experiment(ExperimentConfig(
        matrix=diag_matrix_path, shifts="spectrum-offset:zeta=0.5",
        methods=("lanczos",)))
    assert report.shifts == [pytest.approx(1.0 + 0.5j)]
    assert report.shift_meta["extremal"] == "smallest"
    report = run_experiment(ExperimentConfig(
        matrix=diag_matrix_path,
        shifts="spectrum-offset:zeta=0.5,extremal=largest",
        methods=("lanczos",)))
    assert report.shifts == [pytest.approx(2.0 + 0.5j)]
    assert report.shift_meta["condition_number"] == pytest.approx(
        abs(2.0 + 0.5j - 1.0) / 0.5)


def test_zeta_sweep_trend(tmp_path, rng):
    """Iterations grow as the shift approaches the spectrum (the harness
    path the benchmark sweep uses), on a synthetic ill-conditioned matrix."""
    lam = np.geomspace(1e-4, 10.0, 48)
    a = SparseHermitianMatrix.diagonal(lam)
    path = tmp_path / "geo.mtx"
    write_matrix_market(a, path)
    counts = []
    for zeta in (1e-1, 1e-2, 1e-3):
        report = run_experiment(ExperimentConfig(
            matrix=path, shifts=f"spectrum-offset:zeta={zeta}",
            methods=("lanczos",), reference="dense", max_iter=2000))
        result = report.methods[0].result
        assert result.converged
        counts.append(result.iterations_to_convergence)
        assert report.shift_meta["lambda"] == pytest.approx(lam[0])
    assert counts[0] < counts[1] < counts[2]


def test_stopping_rule_soundness(random_matrix_path):
    """With a dense reference, the reported iteration has true error <= rtol
    for every shift."""
    config = ExperimentConfig(matrix=random_matrix_path,
                              shifts="unit-circle:m=8", reference="dense",
                              rtol=1e-10)
    report = run_experiment(config)
    for mrep in report.executed:
        for out, ref in zip(mrep.result.shifts, report.reference_values):
            assert out.status.value == "converged"
            assert abs(out.value - ref) <= 1e-10 * abs(ref)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_csv_deterministic_and_round_trip(tmp_path, random_matrix_path):
    config = ExperimentConfig(matrix=random_matrix_path,
                              shifts="unit-circle:m=4", reference="dense",
                              history=True)
    paths = []
    for sub in ("a", "b"):
        report = run_experiment(config)
        out = tmp_path / sub
        paths.append(write_report(report, out)["history"])
    b1, b2 = (p.read_bytes() for p in paths)
    assert b1 == b2

    lines = b1.decode().splitlines()
    assert lines[0] == ("method,shift_index,iteration,value_re,value_im,"
                        "mu,nu,rel_err,status")
    rebuilt = []
    for line in lines[1:]:
        method, idx, it, vre, vim, mu, nu, rel, status = line.split(",")
        rebuilt.append((method, int(idx), int(it), float(vre), float(vim),
                        status))
    report = run_experiment(config)
    want = []
    for mrep in report.methods:
        for idx, shift in enumerate(mrep.result.shifts, start=1):
            for row in shift.history:
                want.append((mrep.method, idx, row.k, row.value.real,
                             row.value.imag, row.status.value))
    assert rebuilt == want


def test_one_row_run(tmp_path, diag_matrix_path):
    config = ExperimentConfig(matrix=diag_matrix_path, shifts=[2.0 + 1.0j],
                              methods=("minres",), history=True)
    report = run_experiment(config)
    paths = write_report(report, tmp_path / "out")
    assert paths["summary"].exists()
    rows = paths["history"].read_text().splitlines()[1:]
    assert len(rows) == report.methods[0].result.shifts[0].iterations


def test_summary_contents(tmp_path, random_matrix_path):
    config = ExperimentConfig(matrix=random_matrix_path,
                              shifts="unit-circle:m=4", reference="spectral")
    report = run_experiment(config)
    summary = reference_summary(report)
    assert summary["matrix"]["n"] == 24
    assert summary["reference_mode"] == "spectral"
    assert set(summary["methods"]) == {"lanczos", "cocg", "cocr", "minres"}
    for entry in summary["methods"].values():
        assert entry["applicable"]
        assert entry["converged"] is True
        assert entry["iterations_to_convergence"] >= 1
    assert "timestamp" in summary["environment"]
    text = render_summary_table(report)
    assert "lanczos" in text and "converged" in text

    json_path = write_report(report, tmp_path / "out")["summary"]
    parsed = json.loads(json_path.read_text())
    assert parsed["methods"]["lanczos"]["shifts"][0]["status"] == "converged"


def reference_summary(report) -> dict:
    """The content of ``summary.json`` as plain JSON values, built from the
    report's own fields, apart from the writer's code."""
    def pairs(values):
        return [[x.real, x.imag] for x in values]

    methods = {}
    for mrep in report.methods:
        entry = {"applicable": mrep.applicable}
        if not mrep.applicable:
            entry["skip_reason"] = mrep.skip_reason
        else:
            res = mrep.result
            entry.update({
                "wall_time_s": mrep.wall_time,
                "iterations": res.iterations,
                "converged": res.converged,
                "iterations_to_convergence": res.iterations_to_convergence,
                "shifts": [{
                    "index": i,
                    "z": [s.z.real, s.z.imag],
                    "value": (None if s.value is None
                              else [s.value.real, s.value.imag]),
                    "iterations": s.iterations,
                    "status": s.status.value,
                    "residual_norm": s.residual_norm,
                } for i, s in enumerate(res.shifts, start=1)],
            })
        methods[mrep.method] = entry
    return {
        "config": report.config,
        "matrix": report.matrix_info,
        "shifts": pairs(report.shifts),
        "shift_meta": report.shift_meta,
        "reference_mode": report.reference_mode,
        "reference_values": (None if report.reference_values is None
                             else pairs(report.reference_values)),
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


def json_oracle(report) -> str:
    """``summary.json`` as ``json.dumps`` writes :func:`reference_summary`;
    the writer must match it byte for byte."""
    return json.dumps(reference_summary(report), indent=2,
                      sort_keys=True) + "\n"


@pytest.fixture
def pinned_clock(monkeypatch):
    """The summary's timestamp, fixed, so two renderings agree."""
    monkeypatch.setattr(harness.time, "strftime",
                        lambda fmt: "2026-01-02T03:04:05+0000")


def overflowing_report(tmp_path):
    """All four methods on finite entries near 1e305, with non-finite
    floats put into the outcomes and the reference values, which a
    summary must spell as json does."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((6, 6))
    path = tmp_path / "huge.mtx"
    write_matrix_market(SparseHermitianMatrix.from_dense((b + b.T) * 1e305),
                        path)
    report = run_experiment(ExperimentConfig(matrix=path,
                                             shifts="unit-circle:m=3"))
    lanczos, minres = (m.result.shifts for m in report.methods
                       if m.method in ("lanczos", "minres"))
    lanczos[0].value = complex(math.nan, math.inf)
    lanczos[1].value = complex(-math.inf, -0.0)
    minres[0].value = complex(1e308, -math.nan)
    minres[0].residual_norm = math.inf
    minres[1].residual_norm = math.nan
    report.reference_values = [complex(math.nan, -math.inf), 0j, -1e-320j]
    return report


@pytest.mark.parametrize("case", ["skipped-dense", "breakdown-k1", "all-null",
                                  "huge", "one-shift-odd-path"])
def test_summary_text_equals_json_dumps(tmp_path, rng, pinned_clock, case):
    """The column-wise writer gives the bytes of ``json.dumps`` on the same
    dict: with a skipped method, a ``None`` value (a breakdown at k = 1),
    methods whose every value and residual norm is ``None``, NaN and
    infinite values and residual norms, ``residual_norm`` both ``None``
    (Lanczos) and a float (MINRES), reference values absent and present,
    one shift, and a config echo whose paths hold quotes, backslashes and
    non-ASCII characters."""
    if case == "skipped-dense":
        path = tmp_path / "cplx.mtx"
        write_matrix_market(random_hermitian(rng, 8), path)
        report = run_experiment(ExperimentConfig(
            matrix=path, shifts="unit-circle:m=4", reference="dense"))
        assert [m.applicable for m in report.methods] == [True, False,
                                                          False, True]
    elif case in ("breakdown-k1", "all-null"):
        # alpha_1 = 0 exactly for e_1, so the shift 0 breaks down at k = 1
        path = tmp_path / "offdiag.mtx"
        write_matrix_market(
            SparseHermitianMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]]), path)
        vector = tmp_path / "e1.txt"
        vector.write_text("1.0\n0.0\n")
        if case == "breakdown-k1":
            report = run_experiment(ExperimentConfig(
                matrix=path, vector=f"file:{vector}",
                shifts=[0.0, 1.0 + 1.0j], methods=("lanczos", "minres")))
            assert report.methods[0].result.shifts[0].value is None
        else:
            # with the single shift 0, Lanczos and COCG hold no number
            report = run_experiment(ExperimentConfig(
                matrix=path, vector=f"file:{vector}", shifts=[0.0]))
            for m in report.methods[:2]:
                assert [(s.value, s.residual_norm)
                        for s in m.result.shifts] == [(None, None)]
    elif case == "huge":
        report = overflowing_report(tmp_path)
    else:
        odd = tmp_path / 'q"uo\\te \u00f1 \u221a\U0001d49c'
        odd.mkdir()
        path = odd / "m\u00e4trix.mtx"
        write_matrix_market(random_hermitian(rng, 5, real=True), path)
        report = run_experiment(ExperimentConfig(
            matrix=path, shifts="unit-circle:m=1", out=odd / "out"))
        assert len(report.shifts) == 1
    want = json_oracle(report)
    assert summary_text(report) == want
    written = write_report(report, tmp_path / "out")["summary"]
    assert written.read_bytes() == want.encode()


def float_report(values, residuals, reference, shifts=None):
    """A report of two methods over ``len(values)`` shifts, built by hand:
    Lanczos with ``values``, MINRES with ``values`` reversed and the
    ``residuals``; the shifts are ``1 + i - 0.5i`` unless given."""
    if shifts is None:
        shifts = [complex(1.0 + i, -0.5) for i in range(len(values))]

    def result(method, vals, res):
        outcomes = [ShiftOutcome(z=z, value=x, iterations=i + 1,
                                 status=SolveStatus.MAX_ITER,
                                 residual_norm=r, index=i)
                    for i, (z, x, r) in enumerate(zip(shifts, vals, res))]
        return MethodReport(method, True, wall_time=0.25,
                            result=MethodResult(method, outcomes, 7))

    return ExperimentReport(
        config={"matrix": "a.mtx", "rtol": 1e-10}, matrix_info={"n": 3},
        shifts=shifts, shift_meta={}, reference_mode="dense",
        reference_values=reference,
        methods=[result("lanczos", values, [None] * len(values)),
                 result("minres", values[::-1], residuals)])


# besides any float, the ones floatrepr.repr_cells hands to float.__repr__
# one by one: zeros, few significant bits (0.5, integers) and magnitudes
# from 2**50 to 2**131
finite_or_not = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, -0.25]),
    st.integers(-2 ** 53, 2 ** 53).map(float),
    st.floats(1e19, 1e21), st.floats(-1e21, -1e19))
any_complex = st.builds(complex, finite_or_not, finite_or_not)
complex_or_none = st.one_of(st.none(), any_complex)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 6))
def test_summary_text_renders_every_float(data, m):
    """Any float, signed zeros, subnormals, NaN and infinities among them,
    is written as ``json.dumps`` writes it, in every float column: the
    shifts, the values, the residual norms and the reference values."""
    values = data.draw(st.lists(complex_or_none, min_size=m, max_size=m))
    residuals = data.draw(st.lists(st.one_of(st.none(), finite_or_not),
                                   min_size=m, max_size=m))
    reference = data.draw(st.one_of(st.none(), st.lists(
        any_complex, min_size=m, max_size=m)))
    shifts = data.draw(st.lists(any_complex, min_size=m, max_size=m))
    report = float_report(values, residuals, reference, shifts)
    with pytest.MonkeyPatch.context() as mp:  # as pinned_clock does
        mp.setattr(harness.time, "strftime",
                   lambda fmt: "2026-01-02T03:04:05+0000")
        assert summary_text(report) == json_oracle(report)


def test_summary_text_rows_keep_their_own_shift_bits(pinned_clock):
    """Each method's rows write their own ``z`` bits, not the shift
    list's: a method whose shifts differ from the list in the sign of a
    zero, or in number, writes its own."""
    report = float_report([1j, None, 2.0], [0.5, None, math.inf], None)
    report.shifts = [complex(z.real, 0.0) for z in report.shifts]
    lanczos, minres = (m.result.shifts for m in report.methods)
    for s in lanczos:
        s.z = complex(s.z.real, -0.0)
    minres.pop()
    assert summary_text(report) == json_oracle(report)
    assert '"z": [\n            1.0,\n            -0.0\n' in json_oracle(report)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_ok(tmp_path, random_matrix_path, capsys):
    code = main(["run", "--matrix", str(random_matrix_path),
                 "--shifts", "unit-circle:m=4", "--reference", "dense",
                 "--history", "--out", str(tmp_path / "cli_out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "lanczos" in out
    assert (tmp_path / "cli_out" / "history.csv").exists()
    assert (tmp_path / "cli_out" / "summary.json").exists()


def test_cli_run_without_history_removes_an_earlier_history(
        tmp_path, random_matrix_path):
    """A run without ``--history`` into a directory that holds an earlier
    run's ``history.csv`` removes it, so the directory never pairs a
    summary with another run's history."""
    out = tmp_path / "out"
    run = ["run", "--matrix", str(random_matrix_path), "--out", str(out)]
    assert main(run + ["--shifts", "unit-circle:m=4", "--history"]) == 0
    assert (out / "history.csv").exists()
    assert main(run + ["--shifts", "unit-circle:m=2"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["shifts"]) == 2


def test_cli_config_error_is_exit_1(tmp_path):
    code = main(["run", "--matrix", str(tmp_path / "nope.mtx")])
    assert code == 1
    code = main(["run"])  # no matrix at all
    assert code == 1


def test_cli_usage_error_is_exit_1():
    assert main(["frobnicate"]) == 1


def test_cli_numerical_failure_is_exit_2(tmp_path):
    # alpha_1 = 0 exactly for e_1 on this matrix, so the real shift z = 0
    # breaks the pivot at k = 1 and the only shift of the only method fails
    a = SparseHermitianMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    mat_path = tmp_path / "offdiag.mtx"
    write_matrix_market(a, mat_path)
    vec_path = tmp_path / "e1.txt"
    vec_path.write_text("1.0\n0.0\n")
    shift_path = tmp_path / "bad_shift.txt"
    shift_path.write_text("0.0 0.0\n")
    code = main(["run", "--matrix", str(mat_path),
                 "--vector", f"file:{vec_path}",
                 "--shifts", f"list:{shift_path}", "--methods", "lanczos"])
    assert code == 2


def test_cli_overflowing_stream_is_exit_2(tmp_path):
    # finite entries near 1e305: beta_1 overflows, so every shift of both
    # Lanczos-stream methods freezes as an overflow instead of crashing
    rng = np.random.default_rng(5)
    b = rng.standard_normal((6, 6))
    a = SparseHermitianMatrix.from_dense((b + b.T) * 1e305)
    mat_path = tmp_path / "huge.mtx"
    write_matrix_market(a, mat_path)
    out = tmp_path / "out"
    code = main(["run", "--matrix", str(mat_path), "--methods",
                 "lanczos,minres", "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    for method in ("lanczos", "minres"):
        statuses = {s["status"] for s in summary["methods"][method]["shifts"]}
        assert statuses == {"overflow"}


def test_cli_overflowing_frobenius_norm_is_exit_2(tmp_path):
    # ||A||_F = sqrt(7) 1e308 overflows; every method ends in an overflow,
    # where COCG and COCR reported a false convergence at k = 1
    mat_path = tmp_path / "big.mtx"
    mat_path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n"
        "1 1 1e308\n2 1 -1e308\n2 2 1e308\n3 2 -1e308\n3 3 1e308\n")
    out = tmp_path / "out"
    code = main(["run", "--matrix", str(mat_path), "--shifts",
                 "unit-circle:m=4", "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    # the frame's exits: Lanczos's L_1 needs only alpha_1 and ends at 1,
    # MINRES's M_1 needs the failed beta_1 too and ends at 0 with no
    # residual norm; COCG and COCR end at 2
    for method, iterations in (("lanczos", 1), ("minres", 0), ("cocg", 2),
                               ("cocr", 2)):
        shifts = summary["methods"][method]["shifts"]
        assert {s["status"] for s in shifts} == {"overflow"}
        assert {s["iterations"] for s in shifts} == {iterations}
    minres = summary["methods"]["minres"]["shifts"]
    assert [s["residual_norm"] for s in minres] == [None] * len(minres)


def test_cli_underflowing_cocg_seed_alpha_is_a_status(tmp_path):
    # on the 30 x 30-grid 5-point Laplacian times 4e307, COCG's seed alpha
    # underflows to zero at k = 3: COCG's shifts end as seed_breakdown, not
    # in an exception, and COCR converges, so the run exits 0
    mat_path = tmp_path / "lap.mtx"
    write_matrix_market(
        SparseHermitianMatrix.from_csr(laplacian(30) * 4e307), mat_path)
    out = tmp_path / "out"
    code = main(["run", "--matrix", str(mat_path), "--shifts",
                 "unit-circle:m=8", "--out", str(out)])
    assert code == 0
    methods = json.loads((out / "summary.json").read_text())["methods"]
    for method, status in (("cocg", "seed_breakdown"), ("cocr", "converged")):
        assert {s["status"] for s in methods[method]["shifts"]} == {status}


@pytest.mark.parametrize("content, fault", [
    ("nan\n1.0\n", "non-finite"), ("1.0\ninf\n", "non-finite"),
    ("1.0 -inf\n0.0 1.0\n", "non-finite"), ("0.0\n0.0\n", "nonzero"),
    ("1e-170\n1e-170\n", "norm underflows"), ("1.0\nabc\n", "cannot read"),
], ids=["nan", "inf", "complex-inf", "zero", "norm-underflows", "text"])
def test_cli_bad_vector_file_is_exit_1(tmp_path, diag_matrix_path, content,
                                       fault, capsys):
    vec_path = tmp_path / "v.txt"
    vec_path.write_text(content)
    code = main(["run", "--matrix", str(diag_matrix_path),
                 "--vector", f"file:{vec_path}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "vector file" in err and fault in err


@pytest.mark.parametrize("flag, spec", [
    ("--shifts", "unit-circle:m=abc"),
    ("--vector", "random:abc"),
    ("--shifts", "spectrum-offset:zeta=abc"),
    ("--shifts", "list:{shift_file}"),
])
def test_cli_malformed_number_is_exit_1(tmp_path, random_matrix_path, capsys,
                                        flag, spec):
    shift_file = tmp_path / "shifts.txt"
    shift_file.write_text("0.5 abc\n")
    code = main(["run", "--matrix", str(random_matrix_path),
                 flag, spec.format(shift_file=shift_file)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec, content", [
    ("list:{shift_file}", "nan 0.5\n0.3 0.4\n"),
    ("list:{shift_file}", "0.3 0.4\ninf 0.5\n"),
    ("list:{shift_file}", "0.3\n-inf\n"),
    ("spectrum-offset:zeta=nan", None),
    ("spectrum-offset:zeta=inf", None),
], ids=["list-nan", "list-inf", "list-real-inf", "zeta-nan", "zeta-inf"])
def test_cli_non_finite_shift_is_exit_1(tmp_path, random_matrix_path, capsys,
                                        spec, content):
    shift_file = tmp_path / "shifts.txt"
    if content is not None:
        shift_file.write_text(content)
    code = main(["run", "--matrix", str(random_matrix_path),
                 "--shifts", spec.format(shift_file=shift_file)])
    assert code == 1
    assert "finite" in capsys.readouterr().err


def test_explicit_non_finite_shift_rejected(diag_matrix_path):
    config = ExperimentConfig(matrix=diag_matrix_path,
                              shifts=[0.5 + 1j, complex(math.nan, 0.5)])
    with pytest.raises(ConfigError, match="finite"):
        run_experiment(config)


UNREADABLE_MATRICES = {
    "pattern": "%%MatrixMarket matrix coordinate pattern general\n"
               "2 2 1\n1 1\n",
    "nan": "%%MatrixMarket matrix coordinate real general\n"
           "2 2 2\n1 1 nan\n2 2 1.0\n",
    "truncated-gz": None,
    "empty": "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
}


@pytest.mark.parametrize("command", ["run", "check", "shifts"])
@pytest.mark.parametrize("kind", list(UNREADABLE_MATRICES))
def test_cli_unreadable_matrix_is_exit_1(tmp_path, capsys, kind, command):
    """A file the reader rejects is an input error, not a traceback."""
    if kind == "truncated-gz":
        a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0])
        whole = tmp_path / "whole.mtx.gz"
        write_matrix_market(a, whole)
        data = whole.read_bytes()
        path = tmp_path / "cut.mtx.gz"
        path.write_bytes(data[:len(data) // 2])
    else:
        path = tmp_path / f"{kind}.mtx"
        path.write_text(UNREADABLE_MATRICES[kind])
    argv = {"run": ["run", "--matrix", str(path),
                    "--shifts", "unit-circle:m=2"],
            "check": ["check", "--matrix", str(path)],
            "shifts": ["shifts", "--spec", "unit-circle:m=2",
                       "--matrix", str(path)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: cannot read matrix")


REJECTED_INPUTS = {
    # id: (argv, content of {file} or None); {diag} is diag(1, 2) and
    # {big} a diagonal matrix one past the dense cap
    "unit-circle-m0": (["--shifts", "unit-circle:m=0"], None),
    "unit-circle-item-without-eq": (["--shifts", "unit-circle:m5"], None),
    "rtol-0": (["--rtol", "0"], None),
    "rtol-inf": (["--rtol", "inf"], None),
    "rtol-1e400": (["--rtol", "1e400"], None),
    "config-rtol-inf": (["--config", "{file}"],
                        "matrix = {diag}\nrtol = inf\n"),
    "lag-0": (["--lag", "0"], None),
    "max-iter-0": (["--max-iter", "0"], None),
    "vector-three-columns": (["--vector", "file:{file}"],
                             "1.0 2.0 3.0\n4.0 5.0 6.0\n"),
    "vector-wrong-length": (["--vector", "file:{file}"], "1.0\n2.0\n3.0\n"),
    "vector-empty": (["--vector", "file:{file}"], "# no entries\n"),
    "vector-norm-underflows": (["--vector", "file:{file}"],
                               "1e-170\n1e-170\n"),
    "shifts-three-columns": (["--shifts", "list:{file}"], "1.0 2.0 3.0\n"),
    "shifts-empty": (["--shifts", "list:{file}"], ""),
    "offset-without-zeta": (["--shifts", "spectrum-offset:extremal=largest"],
                            None),
    "offset-extremal-middle": (
        ["--shifts", "spectrum-offset:zeta=1,extremal=middle"], None),
    "offset-past-dense-cap": (["--matrix", "{big}",
                               "--shifts", "spectrum-offset:zeta=1"], None),
    "dense-reference-past-dense-cap": (["--matrix", "{big}",
                                        "--reference", "dense"], None),
    "unknown-shift-spec": (["--shifts", "circle:m=4"], None),
    "seed-shift-0": (["--shifts", "unit-circle:m=4", "--seed-shift", "0"],
                     None),
    "seed-shift-past-m": (["--shifts", "unit-circle:m=4",
                           "--seed-shift", "5"], None),
    "config-unknown-key": (["--config", "{file}"],
                           "matrix = {diag}\nfrobnicate = 1\n"),
    "unit-circle-unknown-key": (["--shifts", "unit-circle:n=8"], None),
    "unit-circle-repeated-key": (["--shifts", "unit-circle:m=4,m=2"], None),
    "offset-unknown-key": (
        ["--shifts", "spectrum-offset:zeta=0.1,extremel=largest"], None),
    "vector-negative-seed": (["--vector", "random:-1"], None),
    "repeated-method": (["--methods", "lanczos,lanczos"], None),
    "config-bad-history": (["--config", "{file}"],
                           "matrix = {diag}\nhistory = on\n"),
    "out-is-a-file": (["--out", "{file}"], "not a directory\n"),
}


@pytest.mark.parametrize("case", list(REJECTED_INPUTS))
def test_cli_rejected_input_is_exit_1(tmp_path, diag_matrix_path, capsys,
                                      recwarn, case):
    """Each input the harness rejects ends in ``error: ...`` and exit 1,
    with no warning before it."""
    args, content = REJECTED_INPUTS[case]
    paths = {"diag": diag_matrix_path, "big": tmp_path / "big.mtx",
             "file": tmp_path / "input.txt"}
    if "{big}" in args:
        write_matrix_market(SparseHermitianMatrix.diagonal(
            np.arange(1.0, MAX_DENSE_N + 2.0)), paths["big"])
    if content is not None:
        paths["file"].write_text(content.format(**paths))
    argv = ["run"] + (["--matrix", "{diag}"] if "--matrix" not in args
                      and "--config" not in args else []) + args
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    ["run", "--shifts", "spectrum-offset:zeta=0"],
    ["shifts", "--spec", "spectrum-offset:zeta=0"],
    ["run", "--shifts", "list:{file}", "--reference", "dense"],
    ["run", "--shifts", "list:{file}", "--reference", "spectral"],
], ids=["run-zeta-0", "shifts-zeta-0", "dense-reference", "spectral-reference"])
def test_cli_shift_on_the_spectrum_is_exit_1(tmp_path, diag_matrix_path,
                                             capsys, argv):
    """No resolvent exists at an eigenvalue: the shift is an input error."""
    shift_path = tmp_path / "shifts.txt"
    shift_path.write_text("0.5 1.0\n2.0 0.0\n")  # 2 is an eigenvalue
    argv = argv + ["--matrix", str(diag_matrix_path)]
    assert main([arg.format(file=shift_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "z=" in err


@pytest.mark.parametrize("content, n, vnorm2", [
    ("3.0\n", 1, 9.0),
    ("1.0 2.0\n", 1, 5.0),
    ("1.0 2.0\n", 2, None),
], ids=["one-real-entry", "one-complex-entry", "one-line-is-one-entry"])
def test_vector_file_has_one_entry_per_line(tmp_path, content, n, vnorm2):
    """Each line is one entry, real or complex, whatever ``n`` is."""
    mat_path = tmp_path / "diag.mtx"
    write_matrix_market(SparseHermitianMatrix.diagonal(np.arange(1.0, n + 1)),
                        mat_path)
    vec_path = tmp_path / "v.txt"
    vec_path.write_text(content)
    config = ExperimentConfig(matrix=mat_path, vector=f"file:{vec_path}",
                              shifts=[1 + 1j], methods=("lanczos",))
    if vnorm2 is None:
        with pytest.raises(ConfigError, match="length"):
            run_experiment(config)
    else:
        report = run_experiment(config)
        assert report.methods[0].result.vnorm2 == pytest.approx(vnorm2)


def test_cli_shifts_spectrum_offset_needs_matrix(capsys):
    assert main(["shifts", "--spec", "spectrum-offset:zeta=1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_empty_explicit_shift_list_rejected(diag_matrix_path):
    with pytest.raises(ConfigError, match="empty"):
        run_experiment(ExperimentConfig(matrix=diag_matrix_path, shifts=[]))


def test_cli_complex_matrix_skips_cg_methods(tmp_path, rng, capsys):
    """COCG and COCR are skipped with a warning and a table row."""
    path = tmp_path / "cplx.mtx"
    write_matrix_market(random_hermitian(rng, 8), path)
    assert main(["run", "--matrix", str(path),
                 "--shifts", "unit-circle:m=2"]) == 0
    captured = capsys.readouterr()
    for method in ("cocg", "cocr"):
        assert (f"warning: {method} skipped: matrix is not real symmetric"
                in captured.err.splitlines())
        assert any(line.startswith(method) and line.endswith(
            "skipped (matrix is not real symmetric)")
            for line in captured.out.splitlines())


def _write_complex_vector(path, v):
    np.savetxt(path, np.column_stack([v.real, v.imag]))
    return f"file:{path}"


def test_spectrum_offset_and_spectral_reference_share_one_eigh(
        tmp_path, random_matrix_path, rng, monkeypatch):
    """``spectrum-offset:`` shifts and the spectral reference decompose the
    matrix once, and the reference equals the oracle called on its own."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(a.dtype)
        return eigh(a, *args, **kwargs)

    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    report = run_experiment(ExperimentConfig(
        matrix=random_matrix_path, shifts="spectrum-offset:zeta=0.1",
        vector=_write_complex_vector(tmp_path / "v.txt", v),
        reference="spectral", methods=("lanczos",)))
    assert calls == [np.float64]
    monkeypatch.undo()

    a = read_matrix_market(random_matrix_path)
    spec = spectral_decomposition(a.to_dense(), v)
    z = complex(spec.lambda_min, 0.1)
    assert report.shifts == [z]
    assert report.reference_values == [
        spectral_quadform(spec, z, float(np.vdot(v, v).real))]


def test_complex_spectral_reference_is_complex_eigh(tmp_path, rng):
    """A complex Hermitian matrix keeps the complex128 reference: the values
    are those of ``np.linalg.eigh`` on the dense matrix, bit for bit."""
    dense = random_hermitian_dense(rng, 16)
    path = tmp_path / "cplx16.mtx"
    write_matrix_market(SparseHermitianMatrix.from_dense(dense), path)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    shifts = [0.4 + 0.9j, -1.1 + 0.2j, 2.5 - 0.7j]
    report = run_experiment(ExperimentConfig(
        matrix=path, shifts=shifts, reference="spectral",
        vector=_write_complex_vector(tmp_path / "v.txt", v),
        methods=("lanczos",)))
    lam, u = np.linalg.eigh(read_matrix_market(path).to_dense())
    assert u.dtype == np.complex128
    vnorm2 = float(np.vdot(v, v).real)
    weights = np.abs(u.conj().T @ v) ** 2 / vnorm2
    assert report.reference_values == [
        complex(vnorm2 * np.sum(weights / (z - lam))) for z in shifts]


def test_cli_repeated_shifts(tmp_path, random_matrix_path):
    """A repeated shift is solved once per occurrence, with identical
    results each time."""
    shift_path = tmp_path / "shifts.txt"
    # the first shift is the COCG/COCR seed
    shift_path.write_text("0.3 0.8\n-1.2 0.1\n0.3 0.8\n-1.2 0.1\n0.3 0.8\n")
    out = tmp_path / "out"
    code = main(["run", "--matrix", str(random_matrix_path),
                 "--shifts", f"list:{shift_path}", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == {"lanczos", "cocg", "cocr", "minres"}
    for entry in summary["methods"].values():
        by_z = {}
        for shift in entry["shifts"]:
            by_z.setdefault(tuple(shift["z"]), []).append(
                (shift["value"], shift["status"], shift["iterations"]))
        assert [len(runs) for runs in by_z.values()] == [3, 2]
        for first, *repeats in by_z.values():
            assert all(again == first for again in repeats)


def test_cli_shifts_subcommand(capsys, diag_matrix_path):
    assert main(["shifts", "--spec", "unit-circle:m=4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 4
    re0, im0 = (float(t) for t in lines[0].split())
    assert complex(re0, im0) == pytest.approx(cmath.exp(-3j * math.pi / 8))
    # a trailing comma ends the spec's items
    assert main(["shifts", "--spec", "unit-circle:m=4,"]) == 0
    assert capsys.readouterr().out == out
    # spectrum-offset: the shift on stdout, its metadata line on stderr
    assert main(["shifts", "--spec", "spectrum-offset:zeta=0.5",
                 "--matrix", str(diag_matrix_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1.0 0.5\n"
    assert captured.err.startswith("# {")
    meta = json.loads(captured.err[2:])
    assert meta.pop("condition_number") == pytest.approx(
        abs(1.0 + 0.5j - 2.0) / 0.5)
    assert meta == {"extremal": "smallest", "lambda": 1.0, "lambda_max": 2.0,
                    "lambda_min": 1.0, "zeta": 0.5}


def test_cli_check_subcommand(diag_matrix_path, capsys):
    assert main(["check", "--matrix", str(diag_matrix_path)]) == 0
    out = capsys.readouterr().out
    assert "hermitian_verified: True" in out
    assert "applicable_methods: lanczos,minres,cocg,cocr" in out


def test_config_file_and_overrides(tmp_path, random_matrix_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""# benchmark config
matrix = {random_matrix_path}
shifts = unit-circle:m=4
rtol = 1e-8
methods = lanczos,minres
""")
    values = load_config_file(cfg)
    assert values["rtol"] == "1e-8"
    code = main(["run", "--config", str(cfg), "--rtol", "1e-6"])
    assert code == 0
    # the history key: yes writes history.csv, maybe is an input error
    text = cfg.read_text()
    cfg.write_text(text + "history = yes\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "history.csv").read_text().startswith(CSV_HEADER + "\n")
    cfg.write_text(text + "history = maybe\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: bad value for history: 'maybe'")
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.cfg")
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
