import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad import shifted_lanczos
from resolvquad.core import NonFiniteError, SolveStatus, SparseHermitianMatrix
from resolvquad.error_estimate import DEFAULT_LAG
from resolvquad.lanczos import lanczos_init, lanczos_step
from resolvquad.oracle import (
    dense_resolvent_quadform,
    shifted_determinant_sequence,
    tridiag_resolvent_entry,
)
from resolvquad.shift_batch import ShiftBatch
from resolvquad.shifted_lanczos import (
    TOL_DELTA,
    bilinear_form,
    run_quadratic_forms,
    shift_start,
    shift_state_init,
    shift_state_update,
    shift_update,
    stream_result,
)

from conftest import (
    random_hermitian,
    random_hermitian_dense,
    random_jacobi,
    random_vector,
    result_bits,
    stream_problem,
)


def diag12():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return a, v


# ---------------------------------------------------------------------------
# state init / update
# ---------------------------------------------------------------------------

def test_init_one_by_one_resolvent():
    st_ = shift_state_init(3.0, 1.0, 1.5)
    assert st_.L == pytest.approx(1.0 / 1.5, abs=1e-15)
    assert st_.status is SolveStatus.ACTIVE


def test_init_breakdown_on_real_interior_shift():
    st_ = shift_state_init(1.5, 1.0, 1.5)
    assert st_.status is SolveStatus.BREAKDOWN
    assert st_.L is None


def test_init_overflow_status():
    st_ = shift_state_init(1.0 + 1e-10j, 1e308, 1.0)  # |L_1| = 1e318
    assert st_.status is SolveStatus.OVERFLOW
    assert st_.L is None


@pytest.mark.parametrize("alpha2,beta1", [(1.0, 1.0), (0.0, 1e-150)],
                         ids=["zero-pivot", "pivot-below-tol"])
def test_update_breakdown_on_a_vanished_pivot(alpha2, beta1):
    """``delta_2 = z - alpha_2 - beta_1^2 / delta_1`` is exactly 0, or
    1e-300 <= TOL_DELTA; the state keeps ``L_1``."""
    st_ = shift_state_init(0j, 1.0, 1.0)  # delta_1 = -1
    shift_state_update(st_, alpha2, beta1)
    assert st_.status is SolveStatus.BREAKDOWN
    assert (st_.k, st_.L) == (1, -1.0)


def test_init_pure_imaginary_shift():
    st_ = shift_state_init(1.0j, 2.0, 0.0)
    assert st_.L == pytest.approx(-2.0j, abs=1e-15)


def test_update_reproduces_2x2_resolvent():
    # diag(1,2), v=(1,1)/sqrt(2): alpha = (1.5, 1.5), beta_1 = 0.5
    st_ = shift_state_init(3.0, 1.0, 1.5)
    shift_state_update(st_, 1.5, 0.5)
    assert st_.L == pytest.approx(0.75, abs=1e-14)
    assert st_.k == 2


@settings(max_examples=80, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.05, 2.0),
       st.floats(-4, 4), st.floats(0.1, 4))
def test_update_matches_2x2_closed_form(a1, a2, b1, zr, zi):
    z = complex(zr, zi)
    denom = (z - a1) * (z - a2) - b1 * b1
    st_ = shift_state_init(z, 1.0, a1)
    shift_state_update(st_, a2, b1)
    assert st_.status is SolveStatus.ACTIVE
    want = (z - a2) / denom
    assert st_.L == pytest.approx(want, rel=1e-12)


def test_update_with_zero_beta_freezes_value():
    st_ = shift_state_init(2.0 + 1.0j, 1.0, 0.5)
    before = st_.L
    shift_state_update(st_, 0.9, 0.0)
    assert st_.L == before  # c_{k+1} = 0
    assert st_.status is SolveStatus.ACTIVE


def test_update_overflow_status():
    st_ = shift_state_init(1e300 + 1e300j, 1e308, 0.0)
    shift_state_update(st_, -1e308, 1e150)
    assert st_.status in (SolveStatus.OVERFLOW, SolveStatus.ACTIVE)
    huge = shift_state_init(2.0, 1e308, 1.0)
    # pivot ~1e-12 makes pi ~1e12 and c*pi overflow
    shift_state_update(huge, 1.0 - 1e-12, 1.0)
    assert huge.status is SolveStatus.OVERFLOW
    assert huge.L is not None  # previous L retained


def test_update_skips_frozen_state():
    st_ = shift_state_init(1.5, 1.0, 1.5)
    assert st_.status is SolveStatus.BREAKDOWN
    shift_state_update(st_, 1.0, 1.0)
    assert st_.k == 1


def test_pi_delta_inverse_invariant():
    st_ = shift_state_init(2.0 + 0.5j, 1.0, 0.3)
    for alpha, beta in ((0.1, 0.7), (-0.4, 1.2), (0.9, 0.2)):
        shift_state_update(st_, alpha, beta)
        assert st_.pi * st_.delta == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def test_identity_matrix_exact_at_k1(rng):
    a = SparseHermitianMatrix.diagonal([1.0] * 4)
    v = random_vector(rng, 4)
    vnorm2 = float(np.vdot(v, v).real)
    res = run_quadratic_forms(a, v, [2.0, 3.0 + 1.0j])
    for out, z in zip(res.shifts, [2.0, 3.0 + 1.0j]):
        assert out.status is SolveStatus.CONVERGED
        assert out.iterations == 1
        assert out.value == pytest.approx(vnorm2 / (z - 1.0), rel=1e-13)


def test_diag5_matches_partial_fractions():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0, 4.0, 5.0])
    v = np.full(5, 1.0 / np.sqrt(5.0), dtype=complex)
    z = 2.5 + 0.1j
    res = run_quadratic_forms(a, v, [z], rtol=1e-12)
    want = sum(0.2 / (z - j) for j in range(1, 6))
    assert res.shifts[0].status is SolveStatus.CONVERGED
    assert abs(res.values[0] - want) <= 1e-10 * abs(want)


def test_invariant_subspace_is_exact():
    a, v = diag12()
    res = run_quadratic_forms(a, v, [3.0])
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    assert out.iterations == 2
    assert res.invariant_subspace_at == 2
    assert out.value == pytest.approx(0.75, abs=1e-14)


def test_breakdown_reported_not_raised():
    # alpha_1 = 0 computes exactly here, so z = 0 gives delta_1 = 0 exactly;
    # the breakdown freezes that shift without touching the other one
    a = SparseHermitianMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    v = np.array([1.0, 0.0], dtype=complex)
    res = run_quadratic_forms(a, v, [0.0, 3.0])
    assert res.shifts[0].status is SolveStatus.BREAKDOWN
    assert res.shifts[0].iterations == 1
    assert res.shifts[0].value is None
    assert res.shifts[1].status is SolveStatus.CONVERGED
    assert res.shifts[1].value == pytest.approx(0.375, abs=1e-14)


def test_breakdown_inside_the_loop_is_not_an_overflow():
    # on the path graph from e_1 every coefficient is exact (alpha = 0,
    # beta = 1), so z = 1 gives delta_2 = 1 - 1 / 1 = 0 exactly: pi_2 and
    # L_2 are not finite, and the breakdown takes precedence
    a = SparseHermitianMatrix.from_dense([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                          [0.0, 1.0, 0.0]])
    v = np.array([1.0, 0.0, 0.0])
    res = run_quadratic_forms(a, v, [1.0, 0.5 + 0.5j], rtol=None,
                              keep_history=True)
    out = res.shifts[0]
    assert (out.status, out.iterations, out.value) == (
        SolveStatus.BREAKDOWN, 2, 1.0)
    assert [(row.k, row.status) for row in out.history] == [
        (1, SolveStatus.ACTIVE), (2, SolveStatus.BREAKDOWN)]
    assert res.shifts[1].status is SolveStatus.CONVERGED


def test_interior_rayleigh_shift_recovers_in_floating_point():
    # z = 1.5 equals alpha_1 only in exact arithmetic; the rounded pivot is
    # ~1e-16, the huge L_1 cancels at the next step, and the run lands on
    # the true value v^H (1.5 I - A)^{-1} v = 0
    a, v = diag12()
    res = run_quadratic_forms(a, v, [1.5])
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    assert abs(out.value) <= 1e-9


def test_max_iter_status(rng):
    a = random_hermitian(rng, 30)
    v = random_vector(rng, 30)
    res = run_quadratic_forms(a, v, [0.5 + 0.2j], rtol=None, max_iter=5)
    assert res.shifts[0].status is SolveStatus.MAX_ITER
    assert res.shifts[0].iterations == 5


def test_oracle_equivalence_moderate(rng):
    for real in (False, True):
        dense = random_hermitian_dense(rng, 90, real=real)
        a = SparseHermitianMatrix.from_dense(dense)
        v = random_vector(rng, 90)
        shifts = [1.2 + 0.4j, -0.3 - 0.8j, 0.05 + 0.1j]
        res = run_quadratic_forms(a, v, shifts, rtol=1e-11)
        for out, z in zip(res.shifts, shifts):
            assert out.status is SolveStatus.CONVERGED
            want = dense_resolvent_quadform(dense, v, z)
            assert abs(out.value - want) <= 1e-8 * abs(want)


def test_recursion_equals_tridiagonal_solve(rng):
    """L_k == vnorm2 * (zI - T_k)^{-1}_{11} at every k, both from the same
    pivots; deltas equal determinant ratios."""
    for trial in range(5):
        alpha, beta = random_jacobi(rng, 50)
        z = complex(rng.standard_normal(), 0.5 + rng.random())
        vnorm2 = 1.0 + rng.random()
        st_ = shift_state_init(z, vnorm2, alpha[0])
        deltas = [st_.delta]
        dets = shifted_determinant_sequence(alpha, beta, z)
        for k in range(1, 50):
            entry = tridiag_resolvent_entry(alpha[:k], beta[:k - 1], z, 1, 1)
            assert st_.L == pytest.approx(vnorm2 * entry, rel=1e-12)
            shift_state_update(st_, alpha[k], beta[k - 1])
            assert st_.status is SolveStatus.ACTIVE
            deltas.append(st_.delta)
        for k in range(1, 50):
            assert deltas[k] == pytest.approx(dets[k] / dets[k - 1], rel=1e-12)


@pytest.mark.parametrize("real", [True, False])
def test_values_equal_gauss_quadrature_rule(rng, real):
    """L_k is the k-node Gauss rule for the spectral measure of v: with
    T_k = U diag(theta) U^T from eigh, L_k = ||v||^2 sum_j |U_1j|^2 /
    (z - theta_j), at every k up to n.  Independent of the Thomas solve."""
    n = 24
    for trial in range(3):
        a = SparseHermitianMatrix.from_dense(
            random_hermitian_dense(rng, n, real=real))
        v = random_vector(rng, n, real=real)
        shifts = [complex(rng.standard_normal(), sign * (0.1 + rng.random()))
                  for sign in (1, -1, 1, -1)]
        res = run_quadratic_forms(a, v, shifts, rtol=None, max_iter=n,
                                  keep_history=True)
        assert res.invariant_subspace_at is None
        for out, z in zip(res.shifts, shifts):
            assert [row.k for row in out.history] == list(range(1, n + 1))
            for row in out.history:
                k = row.k
                t = (np.diag(res.alpha[:k]) + np.diag(res.beta[:k - 1], 1)
                     + np.diag(res.beta[:k - 1], -1))
                theta, u = np.linalg.eigh(t)
                gauss = res.vnorm2 * np.sum(np.abs(u[0]) ** 2 / (z - theta))
                assert row.value == pytest.approx(gauss, rel=1e-12)


def test_breakdown_free_for_offaxis_shifts(rng):
    """No breakdown can occur when Im z is bounded away from zero."""
    for trial in range(40):
        n = int(rng.integers(4, 24))
        a = random_hermitian(rng, n, real=bool(rng.integers(2)))
        v = random_vector(rng, n)
        norm_a = a.frobenius_norm
        z = complex(3 * rng.standard_normal(),
                    (1e-6 + rng.random()) * norm_a)
        res = run_quadratic_forms(a, v, [z], rtol=None, max_iter=n)
        assert res.shifts[0].status is not SolveStatus.BREAKDOWN


def test_history_lag_contract():
    a = SparseHermitianMatrix.diagonal(np.arange(1.0, 13.0))
    v = np.full(12, 1.0, dtype=complex) / np.sqrt(12.0)
    lag = 3
    res = run_quadratic_forms(a, v, [0.5 + 2.0j], rtol=None, max_iter=8,
                              lag=lag, keep_history=True)
    hist = res.shifts[0].history
    assert [row.k for row in hist] == list(range(1, 9))
    for row in hist:
        if row.k <= len(hist) - lag:
            assert row.nu is not None
            assert row.mu is not None
        else:
            assert row.nu is None and row.mu is None


def test_reference_stopping_records_true_error(rng):
    dense = random_hermitian_dense(rng, 40)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 40)
    z = 0.7 + 0.6j
    ref = dense_resolvent_quadform(dense, v, z)
    res = run_quadratic_forms(a, v, [z], rtol=1e-10, reference=[ref],
                              keep_history=True)
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    final = out.history[-1]
    assert final.rel_err is not None and final.rel_err <= 1e-10
    assert abs(out.value - ref) <= 1e-10 * abs(ref)


def test_driver_runs_the_audited_update_kernel(monkeypatch, rng):
    """Criterion 8 counts the operations of ``shift_update`` through
    ``shift_state_update``; the driver runs that same kernel, over every
    active shift, on every iteration after the first."""
    calls = []
    kernel = shifted_lanczos.shift_update

    def counting(z, *args):
        calls.append(np.size(z))
        return kernel(z, *args)

    monkeypatch.setattr(shifted_lanczos, "shift_update", counting)
    a = random_hermitian(rng, 30)
    v = random_vector(rng, 30)
    shifts = [0.5 + 0.2j, -1.0 + 1.0j, 2.0 - 0.5j]
    res = run_quadratic_forms(a, v, shifts, rtol=None, max_iter=12)
    assert res.iterations == 12
    assert calls == [len(shifts)] * (res.iterations - 1)

    calls.clear()
    shift_state_update(shift_state_init(2.0 + 1.0j, 1.0, 0.3), 0.1, 0.5)
    assert calls == [1]


def reference_lanczos_run(a, v, shifts, *, rtol=1e-10, lag=DEFAULT_LAG,
                          max_iter=None, reference=None, keep_history=False):
    """The Lanczos driver loop before its freezes were fused: a breakdown or
    an overflow (all three finiteness masks) freezes the shift through
    :meth:`ShiftBatch.freeze`, and a step with no failed groups, the old
    ``accept``, then takes the survivors.  :func:`run_quadratic_forms` must
    reproduce it bit for bit."""
    try:
        stream = lanczos_init(a, v)
    except NonFiniteError:
        stream = None
    batch = ShiftBatch(shifts, rtol=rtol, lag=lag, reference=reference,
                       keep_history=keep_history)
    if stream is None:
        batch.freeze_all(0, SolveStatus.OVERFLOW)
        return stream_result("lanczos", batch, 0, None)
    if max_iter is None:
        max_iter = 2 * a.n
    s = batch.state
    s.c = np.full(s.z.shape, stream.vnorm2, dtype=np.complex128)
    with np.errstate(all="ignore"):
        k = 1
        s.delta, s.pi, s.L = shift_start(s.z, s.c, stream.coeffs.alpha[0])
        batch.freeze(k, (SolveStatus.BREAKDOWN, np.abs(s.delta) <= TOL_DELTA),
                     (SolveStatus.OVERFLOW, ~np.isfinite(s.L)))
        batch.step(k, s.L, delta=s.delta)
        while k < max_iter and batch.running:
            try:
                outcome = lanczos_step(stream)
            except NonFiniteError:
                batch.freeze_all(k, SolveStatus.OVERFLOW)
                break
            if outcome.invariant_subspace:
                batch.mark_exact()
                batch.freeze_all(k, SolveStatus.CONVERGED)
                break
            k += 1
            beta = stream.coeffs.beta[-1]
            s.delta, s.pi, s.c, s.L = shift_update(
                s.z, stream.coeffs.alpha[-1], beta * beta, s.c, s.pi, s.L)
            overflow = ~(np.isfinite(s.L) & np.isfinite(s.c)
                         & np.isfinite(s.pi))
            batch.freeze(k, (SolveStatus.BREAKDOWN,
                             np.abs(s.delta) <= TOL_DELTA),
                         (SolveStatus.OVERFLOW, overflow))
            batch.step(k, s.L, delta=s.delta)
    result = stream_result("lanczos", batch, k, stream)
    if result.history is not None:
        result.history.stream = (result.alpha, result.beta, result.vnorm2)
    return result


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
       real=st.booleans(),
       kind=st.sampled_from(["dense", "three", "eigvec", "bipartite"]),
       scale=st.sampled_from([1.0, 1e150]),
       max_iter=st.sampled_from([None, 1, 2, 3, 7, 25]),
       rtol=st.sampled_from([None, 1e-10, 1e-4]),
       lag=st.sampled_from([1, DEFAULT_LAG]),
       referenced=st.booleans(), keep_history=st.booleans())
def test_lanczos_equals_reference_iteration(seed, n, real, kind, scale,
                                            max_iter, rtol, lag, referenced,
                                            keep_history):
    """Statuses, iterations, value bits and, when kept, every history
    column equal the unfused loop's.  The problems break down at
    ``alpha_1``, overflow at scale 1e150 and reach an invariant subspace
    (``"three"``, ``"eigvec"``); the reference values for true-error
    stopping are the values of a capped run."""
    a, v, shifts = stream_problem(seed, n, real, kind, scale)
    reference = None
    if referenced:
        capped = run_quadratic_forms(a, v, shifts, rtol=None, max_iter=4)
        reference = [1.0 if x is None else x for x in capped.values]
    kw = dict(rtol=rtol, lag=lag, max_iter=max_iter, reference=reference,
              keep_history=keep_history)
    got = run_quadratic_forms(a, v, shifts, **kw)
    assert result_bits(got) == result_bits(reference_lanczos_run(a, v, shifts,
                                                                 **kw))


def test_reference_problems_break_down_overflow_and_exhaust():
    """The cases the bitwise test relies on occur in its problems."""
    a, v, shifts = stream_problem(4, 12, False, "dense", 1.0)
    res = run_quadratic_forms(a, v, shifts, rtol=None, max_iter=30)
    assert res.shifts[3].status is SolveStatus.BREAKDOWN  # z = alpha_1
    assert res.shifts[3].iterations == 1 and res.shifts[3].value is None
    a, v, shifts = stream_problem(4, 12, False, "dense", 1e150)
    res = run_quadratic_forms(a, v, shifts, rtol=None, max_iter=30)
    # the shift 1e-12 off an eigenvalue overflows inside the loop
    assert res.shifts[5].status is SolveStatus.OVERFLOW
    assert res.shifts[5].iterations == 12
    a, v, shifts = stream_problem(4, 12, True, "three", 1.0)
    res = run_quadratic_forms(a, v, shifts, rtol=None)
    assert res.invariant_subspace_at == 3


def test_empty_shift_list_rejected():
    a, v = diag12()
    with pytest.raises(ValueError):
        run_quadratic_forms(a, v, [])


# ---------------------------------------------------------------------------
# bilinear forms
# ---------------------------------------------------------------------------

def test_bilinear_equal_vectors_reduces_to_quadratic(rng):
    a = random_hermitian(rng, 20, real=True)
    p = random_vector(rng, 20, real=True).real
    z = 1.0 + 1.0j
    res = bilinear_form(a, p, p, [z], rtol=1e-12)
    quad = run_quadratic_forms(a, p.astype(complex), [z], rtol=1e-12)
    assert res.values[0] == pytest.approx(quad.values[0], rel=1e-10)
    assert res.diff_run is None  # t = 0 contributes a defined zero


def test_bilinear_diagonal_off_entry_is_zero():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    res = bilinear_form(a, np.array([1.0, 0.0]), np.array([0.0, 1.0]), [3.0])
    assert res.values[0] == pytest.approx(0.0, abs=1e-14)
    # z = 2 is alpha_1 = 2 of s = t = (1): a breakdown, so no value
    res = bilinear_form(SparseHermitianMatrix.diagonal([2.0]),
                        np.array([1.0]), np.array([0.0]), [2.0])
    assert res.values == [None]


def test_bilinear_matches_dense_solve(rng):
    dense = random_hermitian_dense(rng, 30, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    p = random_vector(rng, 30, real=True).real
    q = random_vector(rng, 30, real=True).real
    z = 2.0j
    res = bilinear_form(a, p, q, [z], rtol=1e-12)
    x = np.linalg.solve(z * np.eye(30) - dense, q.astype(complex))
    want = complex(p @ x)
    assert abs(res.values[0] - want) <= 1e-9 * abs(want)


def test_bilinear_rejects_complex_inputs(rng):
    a = random_hermitian(rng, 8)  # complex Hermitian
    p = random_vector(rng, 8, real=True).real
    with pytest.raises(ValueError):
        bilinear_form(a, p, p, [2.0j])
    a_real = random_hermitian(rng, 8, real=True)
    with pytest.raises(ValueError):
        bilinear_form(a_real, random_vector(rng, 8), p, [2.0j])
    with pytest.raises(ValueError, match="q must be real"):
        bilinear_form(a_real, p, random_vector(rng, 8), [2.0j])
