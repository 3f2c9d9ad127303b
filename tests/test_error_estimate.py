import numpy as np
import pytest

from resolvquad.core import SparseHermitianMatrix
from resolvquad.error_estimate import (
    DelayedDifferenceWindow,
    EstimatorState,
    EstimatorUnavailable,
    LagWindow,
    bridge_entry,
    corner_update,
)
from resolvquad.lanczos import lanczos_init, lanczos_step
from resolvquad.oracle import (
    dense_resolvent_quadform,
    tridiag_resolvent_entry,
)
from resolvquad.shifted_lanczos import (
    run_quadratic_forms,
    shift_state_init,
    shift_state_update,
)

from conftest import random_jacobi


def run_states(alpha, beta, z, vnorm2=1.0, lag=2):
    """Drive a shift state and its estimator over a coefficient stream."""
    est = EstimatorState(z, lag, vnorm2)
    st = shift_state_init(z, vnorm2, alpha[0])
    reports = {}
    rep = est.push(alpha[0], None, st.delta, st.L)
    if rep:
        reports[rep.k] = rep
    for k in range(1, len(alpha)):
        shift_state_update(st, alpha[k], beta[k - 1])
        rep = est.push(alpha[k], beta[k - 1], st.delta, st.L)
        if rep:
            reports[rep.k] = rep
    return reports


def test_corner_first_entry_is_pi1():
    z, a1 = 3.0 + 0j, 1.5
    est = EstimatorState(z, 1, 1.0)
    st = shift_state_init(z, 1.0, a1)
    est.push(a1, None, st.delta, st.L)
    assert est.window[-1].g == pytest.approx(1.0 / (z - a1), rel=1e-15)


def test_corner_diag12_example():
    # alpha=(1.5,1.5), beta_1=0.5, z=3: |g_2| = |(3I-T_2)^{-1}_{12}| = 0.25
    g2 = corner_update(1.0 / 1.5, 0.5, 4.0 / 3.0)
    assert abs(g2) == pytest.approx(0.25, abs=1e-15)


def test_corner_matches_thomas_oracle(rng):
    alpha, beta = random_jacobi(rng, 20)
    z = 2.0j
    g = 1.0 / (z - alpha[0])
    deltas = [z - alpha[0]]
    for k in range(1, 20):
        delta = z - alpha[k] - beta[k - 1] ** 2 / deltas[-1]
        g = corner_update(g, beta[k - 1], delta)
        deltas.append(delta)
        want = tridiag_resolvent_entry(alpha[:k + 1], beta[:k], z, 1, k + 1)
        assert abs(g) == pytest.approx(abs(want), rel=1e-11)


def test_bridge_lag1_degenerates_to_corner():
    alpha, beta = [0.3, -0.2], [0.8]
    z = 1.0 + 1.0j
    d1 = z - alpha[0]
    d2 = z - alpha[1] - beta[0] ** 2 / d1
    g1 = 1.0 / d1
    h = bridge_entry(z, g1, beta[0], [alpha[1]], [], [d2])
    assert h == pytest.approx(corner_update(g1, beta[0], d2), rel=1e-14)


def test_bridge_diag1234_example():
    """diag(1,2,3,4), v=e/2, z=5, k=2, d=2: |h| = |(zI-T_4)^{-1}_{13}|."""
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0, 4.0])
    v = np.full(4, 0.5, dtype=complex)
    state = lanczos_init(a, v)
    while state.k < 4:
        lanczos_step(state)
    alpha, beta = state.coeffs.alpha, state.coeffs.beta
    z = 5.0 + 0j
    reports = run_states(alpha, beta, z, vnorm2=1.0, lag=2)
    want = abs(tridiag_resolvent_entry(alpha[:4], beta[:3], z, 1, 3))
    assert reports[2].h_abs == pytest.approx(want, rel=1e-11)


def test_bridge_matches_thomas_oracle(rng):
    z = 0.4 + 0.9j
    for lag in (1, 2, 5):
        kmax = 20
        alpha, beta = random_jacobi(rng, kmax + lag)
        reports = run_states(alpha, beta, z, lag=lag)
        for k, rep in reports.items():
            if rep.h_abs is None:
                continue
            want = abs(tridiag_resolvent_entry(
                alpha[:k + lag], beta[:k + lag - 1], z, 1, k + 1))
            assert rep.h_abs == pytest.approx(want, rel=1e-10)


def test_mu_assembly_diag5_example():
    """mu_{2,2} equals |beta_2| * vnorm2 * |corner| * |bridge| from oracle."""
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0, 4.0, 5.0])
    v = np.full(5, 1.0, dtype=complex) / np.sqrt(5.0)
    state = lanczos_init(a, v)
    while state.k < 4:
        lanczos_step(state)
    alpha, beta = state.coeffs.alpha, state.coeffs.beta
    z = 2.5 + 0.5j
    reports = run_states(alpha, beta, z, vnorm2=1.0, lag=2)
    k = 2
    g = abs(tridiag_resolvent_entry(alpha[:k], beta[:k - 1], z, 1, k))
    h = abs(tridiag_resolvent_entry(alpha[:k + 2], beta[:k + 1], z, 1, k + 1))
    want = beta[k - 1] * 1.0 * g * h
    assert reports[k].mu == pytest.approx(want, rel=1e-10)


def test_mu_tracks_true_error_smooth_case():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0, 4.0])
    v = np.full(4, 0.5, dtype=complex)
    z = 5.0 + 0j
    state = lanczos_init(a, v)
    while state.k < 4:
        lanczos_step(state)
    alpha, beta = state.coeffs.alpha, state.coeffs.beta
    exact = dense_resolvent_quadform(a.to_dense(), v, z)
    st = shift_state_init(z, 1.0, alpha[0])
    values = {1: st.L}
    for k in range(1, 4):
        shift_state_update(st, alpha[k], beta[k - 1])
        values[k + 1] = st.L
    reports = run_states(alpha, beta, z, lag=2)
    for k, rep in reports.items():
        true_err = abs(values[k] - exact)
        assert rep.mu == pytest.approx(true_err, rel=0.25)


def test_nu_is_definitional():
    alpha, beta = [0.5, -0.1, 0.9, 0.0, 0.4], [1.0, 0.7, 1.3, 0.2]
    z = 2.0 + 0.3j
    st = shift_state_init(z, 1.0, alpha[0])
    values = [st.L]
    for k in range(1, 5):
        shift_state_update(st, alpha[k], beta[k - 1])
        values.append(st.L)
    reports = run_states(alpha, beta, z, lag=2)
    for k, rep in reports.items():
        assert rep.nu == abs(values[k - 1] - values[k + 1])  # bitwise


def test_happy_breakdown_flush_mu_zero_nu_exact():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    res = run_quadratic_forms(a, v, [3.0], lag=5, keep_history=True)
    hist = res.shifts[0].history
    assert res.invariant_subspace_at == 2
    assert hist[-1].mu == 0.0  # vanished off-diagonal makes mu exact zero
    assert hist[-1].nu == 0.0  # value stationary after exhaustion
    assert hist[0].nu == abs(hist[0].value - hist[-1].value)


def test_delayed_difference_window_is_a_lag_window_of_one_shift(rng):
    values = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    lag = 4
    batch = LagWindow(np.zeros(3), lag)
    windows = [DelayedDifferenceWindow(lag) for _ in range(3)]
    reports = 0
    for column in values.T:
        report = batch.push(column)
        got = [w.push(complex(x)) for w, x in zip(windows, column)]
        if report is None:
            assert got == [None] * 3
            continue
        reports += 1
        for i, (k, nu, scale) in enumerate(got):
            assert (k, nu, scale) == (report.k, report.nu[i], report.scale[i])
            assert nu == abs(values[i, k - 1] - values[i, k - 1 + lag])
    assert reports == values.shape[1] - lag


def test_estimator_rejects_bad_lag():
    with pytest.raises(ValueError):
        EstimatorState(2.0, 0, 1.0)


def test_bridge_terminal_pivot_zero_gives_zero_entry():
    # phi_d = 0 zeroes the trailing determinant, hence the entry itself
    h = bridge_entry(2.0 + 0j, 1.0 + 0j, 1.0, [0.5, 2.0], [1.0], [1.0, 1.0])
    assert h == 0.0


def test_bridge_interior_zero_pivot_signals_unavailable():
    with pytest.raises(EstimatorUnavailable):
        # phi_3 = z - alpha_{k+3} = 0 would be divided by in the recursion
        bridge_entry(2.0 + 0j, 1.0 + 0j, 1.0, [0.5, 1.0, 2.0], [0.7, 0.9],
                     [1.0, 1.0, 1.0])


def test_lag_contract_timing():
    est = EstimatorState(2.0 + 1.0j, 3, 1.0)
    st = shift_state_init(2.0 + 1.0j, 1.0, 0.0)
    assert est.push(0.0, None, st.delta, st.L) is None
    outs = []
    for k, (a_next, b) in enumerate([(0.1, 0.5), (0.2, 0.6), (0.3, 0.7),
                                     (0.4, 0.8)], start=2):
        shift_state_update(st, a_next, b)
        outs.append(est.push(a_next, b, st.delta, st.L))
    assert outs[0] is None and outs[1] is None
    assert outs[2] is not None and outs[2].k == 1  # emitted at k = 1 + 3
    assert outs[3].k == 2
