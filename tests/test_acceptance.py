"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 6 and 7 need the mhd1280b Matrix Market file
(set ``RESOLVQUAD_MHD1280B`` or drop it in ``data/``; see
``scripts/fetch_mhd1280b.py``) and are skipped cleanly when it is absent.
"""

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from resolvquad.cg_variants import (
    cocg_run,
    cocg_scalar_update,
    cocr_run,
    cocr_scalar_update,
    collinear_pi_update,
)
from resolvquad.core import SolveStatus, SparseHermitianMatrix
from resolvquad.harness import generate_unit_circle_shifts
from resolvquad.lanczos import lanczos_init, lanczos_step
from resolvquad.mmio import read_matrix_market
from resolvquad.oracle import (
    condition_number,
    dense_resolvent_quadform,
    shifted_determinant_sequence,
    spectral_decomposition,
    tridiag_resolvent_entry,
    tridiagonal_matrix,
)
from resolvquad.shifted_lanczos import (
    ShiftState,
    run_quadratic_forms,
    shift_state_init,
    shift_state_update,
)
from resolvquad.shifted_minres import minres_run

from conftest import random_hermitian_dense, random_vector

LAG = 5


def report(number, elapsed, budget, detail):
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.1f}s / budget {budget}s) "
          f"{detail}")
    assert elapsed < budget


# ---------------------------------------------------------------------------
# shared corpus: the 50 runs of criterion 1, reused by criteria 3 and 5
# ---------------------------------------------------------------------------

@dataclass
class Run:
    n: int
    real: bool
    dense: np.ndarray
    matrix: SparseHermitianMatrix
    v: np.ndarray
    shifts: list
    references: list
    lanczos: object
    others: dict


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(1234509876)
    shifts = generate_unit_circle_shifts(16)
    runs = []
    start = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(20, 201))
        real = trial % 2 == 0
        dense = random_hermitian_dense(rng, n, real=real)
        matrix = SparseHermitianMatrix.from_dense(dense)
        v = random_vector(rng, n)
        refs = [dense_resolvent_quadform(dense, v, z) for z in shifts]
        lan = run_quadratic_forms(matrix, v, shifts, rtol=1e-10, lag=LAG,
                                  max_iter=3 * n, keep_history=True)
        others = {"minres": minres_run(matrix, v, shifts, rtol=1e-10,
                                       lag=LAG, max_iter=3 * n)}
        if real:
            for name, runner in (("cocg", cocg_run), ("cocr", cocr_run)):
                others[name] = runner(matrix, v, shifts, rtol=1e-10, lag=LAG,
                                      max_iter=3 * n)
        runs.append(Run(n=n, real=real, dense=dense, matrix=matrix, v=v,
                        shifts=shifts, references=refs, lanczos=lan,
                        others=others))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_oracle_equivalence(corpus):
    """Every converged method agrees with the dense solve to 1e-8; the
    shifted Lanczos method converges on 100% of the off-axis cases."""
    runs, build_elapsed = corpus
    start = time.perf_counter()
    lanczos_converged = 0
    lanczos_total = 0
    checked = 0
    for run in runs:
        for method, result in [("lanczos", run.lanczos)] + list(run.others.items()):
            for out, ref in zip(result.shifts, run.references):
                if method == "lanczos":
                    lanczos_total += 1
                    if out.status is SolveStatus.CONVERGED:
                        lanczos_converged += 1
                if out.status is SolveStatus.CONVERGED:
                    assert abs(out.value - ref) <= 1e-8 * abs(ref), \
                        f"{method} n={run.n} z={out.z}"
                    checked += 1
    assert lanczos_converged == lanczos_total == 50 * 16
    elapsed = time.perf_counter() - start + build_elapsed
    report(1, elapsed, 60,
           f"{checked} converged (method, shift) pairs within 1e-8; "
           f"Lanczos {lanczos_converged}/{lanczos_total} converged")


def test_criterion_2_moment_matching():
    """First 2k moments match for both the plain and the shifted model."""
    start = time.perf_counter()
    rng = np.random.default_rng(24680)
    z = 0.4 + 0.8j
    for trial in range(5):
        n = int(rng.integers(20, 61))
        dense = random_hermitian_dense(rng, n, scale=False)
        dense = dense / np.linalg.norm(dense, 2)
        matrix = SparseHermitianMatrix.from_dense(dense)
        v = random_vector(rng, n)
        v /= np.linalg.norm(v)
        state = lanczos_init(matrix, v)
        for _ in range(5):
            if lanczos_step(state).invariant_subspace:
                break
        k = state.k
        t = tridiagonal_matrix(state.coeffs.alpha, state.coeffs.beta, k)
        e1 = np.zeros(k)
        e1[0] = 1.0
        # plain moments v^H A^i v
        power = v.copy()
        tpow = e1.copy()
        for i in range(2 * k):
            lhs = complex(np.vdot(v, power))
            rhs = state.vnorm2 * tpow[0]
            assert abs(lhs - rhs) <= 1e-8, f"moment i={i}, k={k}"
            power = dense @ power
            tpow = t @ tpow
        # shifted moments v^H (zI - A)^i v
        shifted = z * np.eye(n) - dense
        t_shifted = z * np.eye(k) - t
        power = v.copy()
        tpow = e1.astype(complex)
        for i in range(2 * k):
            lhs = complex(np.vdot(v, power))
            rhs = state.vnorm2 * tpow[0]
            assert abs(lhs - rhs) <= 1e-8, f"shifted moment i={i}, k={k}"
            power = shifted @ power
            tpow = t_shifted @ tpow
    elapsed = time.perf_counter() - start
    report(2, elapsed, 10, "plain and shifted moments to 1e-8 (k <= 6)")


def test_criterion_3_recursion_vs_solve(corpus):
    """L_k equals the tridiagonal-solve value at every k <= 50 and the
    production pivots equal determinant ratios, both to 1e-12."""
    runs, _ = corpus
    start = time.perf_counter()
    values_checked = 0
    for run in runs:
        alpha = run.lanczos.alpha
        beta = run.lanczos.beta
        vnorm2 = run.lanczos.vnorm2
        for out in run.lanczos.shifts:
            z = out.z
            kmax = min(out.iterations, len(alpha), 50)
            st = shift_state_init(z, vnorm2, alpha[0])
            dets = shifted_determinant_sequence(alpha[:kmax],
                                                beta[:kmax - 1], z)
            deltas = [st.delta]
            for k in range(1, kmax + 1):
                entry = tridiag_resolvent_entry(alpha[:k], beta[:k - 1],
                                                z, 1, 1)
                want = vnorm2 * entry
                assert abs(st.L - want) <= 1e-12 * abs(want), \
                    f"n={run.n} z={z} k={k}"
                values_checked += 1
                if k == kmax:
                    break
                shift_state_update(st, alpha[k], beta[k - 1])
                deltas.append(st.delta)
            for k in range(1, len(deltas)):
                ratio = dets[k] / dets[k - 1]
                assert abs(deltas[k] - ratio) <= 1e-12 * abs(ratio)
    elapsed = time.perf_counter() - start
    report(3, elapsed, 30, f"{values_checked} L_k values and pivot ratios "
                           f"to 1e-12")


def test_criterion_4_breakdown_semantics():
    """Exact interior pivots break down at k = 1; off-axis shifts never do."""
    start = time.perf_counter()
    # diag(1,2) with v = (1,1)/sqrt(2): exact alpha_1 = 1.5 and z = 1.5
    st = shift_state_init(1.5, 1.0, 1.5)
    assert st.status is SolveStatus.BREAKDOWN and st.k == 1
    # full-run pivot hit: alpha_1 = 0 computes exactly for e_1 here
    a = SparseHermitianMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    res = run_quadratic_forms(a, np.array([1.0, 0.0], dtype=complex), [0.0])
    assert res.shifts[0].status is SolveStatus.BREAKDOWN
    assert res.shifts[0].iterations == 1

    rng = np.random.default_rng(99887766)
    breakdowns = 0
    for trial in range(1000):
        n = int(rng.integers(4, 33))
        real = bool(rng.integers(2))
        matrix = SparseHermitianMatrix.from_dense(
            random_hermitian_dense(rng, n, real=real))
        v = random_vector(rng, n)
        im_floor = 1e-6 * matrix.frobenius_norm
        z = complex(3.0 * rng.standard_normal(),
                    (im_floor + 2.0 * rng.random())
                    * (1 if rng.integers(2) else -1))
        run = run_quadratic_forms(matrix, v, [z], rtol=None, max_iter=n)
        if run.shifts[0].status is SolveStatus.BREAKDOWN:
            breakdowns += 1
    assert breakdowns == 0
    elapsed = time.perf_counter() - start
    report(4, elapsed, 30, "exact interior pivots break at k=1; "
                           "0/1000 breakdowns off the real axis")


def test_criterion_5_estimator_correctness(corpus):
    """nu is bitwise-recomputable from the value history; |g| and the
    bridge entry match the Thomas oracle to 1e-10 (k + d <= 50)."""
    runs, _ = corpus
    start = time.perf_counter()
    nu_checked = g_checked = 0
    for run in runs:
        alpha = run.lanczos.alpha
        beta = run.lanczos.beta
        exhausted_at = run.lanczos.invariant_subspace_at
        for out in run.lanczos.shifts:
            hist = out.history
            values = [row.value for row in hist]
            for row in hist:
                if row.nu is not None:
                    k = row.k
                    if k + LAG <= len(values):
                        want = abs(values[k - 1] - values[k + LAG - 1])
                    else:
                        assert exhausted_at is not None
                        want = abs(values[k - 1] - values[-1])
                    assert row.nu == want  # bitwise
                    nu_checked += 1
                if row.g_abs is not None and row.k + LAG <= min(len(alpha), 50):
                    k = row.k
                    g_want = abs(tridiag_resolvent_entry(
                        alpha[:k], beta[:k - 1], out.z, 1, k))
                    assert abs(row.g_abs - g_want) <= 1e-10 * g_want
                    if row.h_abs is not None:
                        h_want = abs(tridiag_resolvent_entry(
                            alpha[:k + LAG], beta[:k + LAG - 1],
                            out.z, 1, k + 1))
                        assert abs(row.h_abs - h_want) <= 1e-10 * h_want
                    g_checked += 1
    assert nu_checked > 0 and g_checked > 0
    elapsed = time.perf_counter() - start
    report(5, elapsed, 30, f"{nu_checked} nu values bitwise, "
                           f"{g_checked} corner/bridge pairs to 1e-10")


# ---------------------------------------------------------------------------
# criteria 6-7: the mhd1280b tier (network-optional)
# ---------------------------------------------------------------------------

def _find_mhd1280b():
    env = os.environ.get("RESOLVQUAD_MHD1280B")
    candidates = [Path(env)] if env else []
    here = Path(__file__).resolve().parent.parent
    candidates += [
        here / "data" / "mhd1280b.mtx.gz",
        here / "data" / "mhd1280b.mtx",
    ]
    for path in candidates:
        if path.is_file():
            return path
    return None


MHD_PATH = _find_mhd1280b()
needs_mhd = pytest.mark.skipif(
    MHD_PATH is None,
    reason="mhd1280b.mtx[.gz] not available; set RESOLVQUAD_MHD1280B or run "
           "scripts/fetch_mhd1280b.py (network required)")


@pytest.fixture(scope="module")
def mhd1280b():
    matrix = read_matrix_market(MHD_PATH)
    assert matrix.n == 1280
    v = np.full(matrix.n, 1.0 / math.sqrt(matrix.n), dtype=np.complex128)
    return matrix, v


@needs_mhd
def test_criterion_6_benchmark_iteration_counts(mhd1280b):
    """Protocol reproduction: iteration counts within 20% of 219 (Lanczos)
    and 281 (MINRES), in that order; COCG/COCR only on real-symmetric data."""
    start = time.perf_counter()
    matrix, v = mhd1280b
    if not matrix.hermitian_verified:
        pytest.skip("downloaded mhd1280b is not Hermitian at tolerance; "
                    "no method is applicable")
    shifts = generate_unit_circle_shifts(16)
    dense = matrix.to_dense()
    refs = [dense_resolvent_quadform(dense, v, z) for z in shifts]

    expected = {"lanczos": 219, "minres": 281, "cocg": 446, "cocr": 437}
    counts = {}
    lan = run_quadratic_forms(matrix, v, shifts, rtol=1e-10, lag=LAG,
                              max_iter=2000, reference=refs)
    assert lan.converged
    counts["lanczos"] = lan.iterations_to_convergence
    mnr = minres_run(matrix, v, shifts, rtol=1e-10, lag=LAG, max_iter=2000,
                     reference=refs)
    assert mnr.converged
    counts["minres"] = mnr.iterations_to_convergence
    cg_ran = matrix.is_real and matrix.hermitian_verified
    if cg_ran:
        for name, runner in (("cocg", cocg_run), ("cocr", cocr_run)):
            counts[name] = runner(matrix, v, shifts, rtol=1e-10, lag=LAG,
                                  max_iter=2000,
                                  reference=refs).iterations_to_convergence
    for method, got in counts.items():
        want = expected[method]
        assert abs(got - want) <= 0.20 * want, f"{method}: {got} vs {want}"
    assert counts["lanczos"] < counts["minres"]
    if cg_ran:
        assert counts["minres"] < counts["cocg"]
        assert counts["minres"] < counts["cocr"]
    elapsed = time.perf_counter() - start
    skipped = "" if cg_ran else " (COCG/COCR skipped: matrix not real)"
    report(6, elapsed, 60, f"iteration counts {counts} within 20%"
                           f" of {expected}{skipped}")


@needs_mhd
def test_criterion_7_zeta_sweep(mhd1280b):
    """Counts grow with the condition number as the shift approaches the
    spectrum: within 25% of {76, 226, 680, 1894}, strictly increasing."""
    start = time.perf_counter()
    matrix, v = mhd1280b
    if not matrix.hermitian_verified:
        pytest.skip("downloaded mhd1280b is not Hermitian at tolerance")
    dense = matrix.to_dense()
    spec = spectral_decomposition(dense, v)
    # published extremal eigenvalues: ~70.32 and ~1.48e-11
    assert spec.lambda_max == pytest.approx(70.32, rel=1e-2)
    assert 0.0 < spec.lambda_min < 1e-9
    # pick the extremal eigenvalue whose kappa at zeta = 0.1 reproduces 1.1e3
    target = 1.1e3
    lam = min((spec.lambda_min, spec.lambda_max),
              key=lambda lam_: abs(condition_number(
                  spec.eigenvalues, complex(lam_, 0.1)) - target))
    kappa01 = condition_number(spec.eigenvalues, complex(lam, 0.1))
    assert 0.5 * target <= kappa01 <= 2.0 * target, \
        f"kappa(zeta=0.1) = {kappa01:.3g} does not reproduce 1.1e3"
    expected = {0.1: 76, 0.01: 226, 0.001: 680, 0.0001: 1894}
    counts = []
    for zeta, want in expected.items():
        z = complex(lam, zeta)
        ref = dense_resolvent_quadform(dense, v, z)
        run = run_quadratic_forms(matrix, v, [z], rtol=1e-10, lag=LAG,
                                  max_iter=4000, reference=[ref])
        assert run.converged
        got = run.iterations_to_convergence
        counts.append(got)
        assert abs(got - want) <= 0.25 * want, f"zeta={zeta}: {got} vs {want}"
    assert all(a < b for a, b in zip(counts, counts[1:]))
    elapsed = time.perf_counter() - start
    report(7, elapsed, 120, f"sweep counts {counts} vs {list(expected.values())}, "
                            f"kappa(0.1) = {kappa01:.3g}")


# ---------------------------------------------------------------------------
# criterion 8: scalar-operation audit
# ---------------------------------------------------------------------------

class CountingScalar:
    """Complex wrapper that tallies arithmetic into a shared dict."""

    counts: dict = {}
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = complex(v.v) if isinstance(v, CountingScalar) else complex(v)

    @staticmethod
    def _value(x):
        return x.v if isinstance(x, CountingScalar) else complex(x)

    def _op(self, other, kind, fn):
        CountingScalar.counts[kind] = CountingScalar.counts.get(kind, 0) + 1
        return CountingScalar(fn(self.v, self._value(other)))

    def __add__(self, o):
        return self._op(o, "add", lambda a, b: a + b)

    def __radd__(self, o):
        return self._op(o, "add", lambda a, b: b + a)

    def __sub__(self, o):
        return self._op(o, "add", lambda a, b: a - b)

    def __rsub__(self, o):
        return self._op(o, "add", lambda a, b: b - a)

    def __mul__(self, o):
        return self._op(o, "mul", lambda a, b: a * b)

    def __rmul__(self, o):
        return self._op(o, "mul", lambda a, b: b * a)

    def __truediv__(self, o):
        return self._op(o, "div", lambda a, b: a / b)

    def __rtruediv__(self, o):
        return self._op(o, "div", lambda a, b: b / a)

    def __abs__(self):
        return abs(self.v)

    def __complex__(self):
        return self.v


def _counted(fn):
    CountingScalar.counts = {}
    fn()
    return dict(CountingScalar.counts)


def test_criterion_8_scalar_operation_audit():
    """The shifted-Lanczos update costs exactly 3 add + 4 mul + 1 div = 8
    complex operations per shift per iteration (the squared off-diagonal is
    shared across shifts); the collinear methods stay within their budgets."""
    start = time.perf_counter()

    def lanczos_update():
        st = ShiftState(z=CountingScalar(2.0 + 1.0j), c=CountingScalar(1.0),
                        delta=CountingScalar(1.5 + 1.0j),
                        pi=CountingScalar(1.0 / (1.5 + 1.0j)),
                        L=CountingScalar(0.4 - 0.2j),
                        status=SolveStatus.ACTIVE, k=1)
        shift_state_update(st, CountingScalar(0.3), CountingScalar(0.5),
                           beta_sq=CountingScalar(0.25))
        assert st.status is SolveStatus.ACTIVE

    lan = _counted(lanczos_update)
    assert lan == {"add": 3, "mul": 4, "div": 1}, lan
    assert sum(lan.values()) == 8

    def cocg_update():
        pi_new = collinear_pi_update(
            CountingScalar(1.1), CountingScalar(0.9), CountingScalar(0.5),
            CountingScalar(0.2), CountingScalar(1.0 + 1.0j))
        cocg_scalar_update(CountingScalar(1.1), pi_new, CountingScalar(0.7),
                           CountingScalar(0.1), CountingScalar(0.5),
                           CountingScalar(0.3), CountingScalar(0.8))

    cocg = _counted(cocg_update)
    assert cocg == {"add": 5, "mul": 8, "div": 2}, cocg
    assert sum(cocg.values()) <= 18  # documented budget

    def cocr_update():
        pi_new = collinear_pi_update(
            CountingScalar(1.1), CountingScalar(0.9), CountingScalar(0.5),
            CountingScalar(0.2), CountingScalar(1.0 + 1.0j))
        cocr_scalar_update(CountingScalar(0.9), CountingScalar(1.1), pi_new,
                           CountingScalar(0.7), CountingScalar(0.1),
                           CountingScalar(0.5), CountingScalar(0.3),
                           CountingScalar(0.8))

    cocr = _counted(cocr_update)
    assert cocr == {"add": 5, "mul": 8, "div": 3}, cocr
    assert sum(cocr.values()) <= 17  # documented budget

    elapsed = time.perf_counter() - start
    report(8, elapsed, 1,
           f"lanczos 3+4+1=8 exact; cocg {sum(cocg.values())}<=18, "
           f"cocr {sum(cocr.values())}<=17")
