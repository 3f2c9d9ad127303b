import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad.core import NonFiniteError, SolveStatus, SparseHermitianMatrix
from resolvquad.error_estimate import DEFAULT_LAG, cabs
from resolvquad.lanczos import lanczos_init, lanczos_step, stream_vector
from resolvquad.oracle import dense_resolvent_quadform
from resolvquad.shift_batch import ShiftBatch
from resolvquad.shifted_lanczos import run_quadratic_forms, stream_result
from resolvquad.shifted_minres import (
    _rotation,
    givens,
    minres_run,
)

from conftest import (
    random_hermitian,
    random_hermitian_dense,
    random_vector,
    result_bits,
    stream_problem,
)


def test_givens_real_pair():
    c, s, r = givens(3.0, 4.0)
    assert (c, s, r) == (pytest.approx(0.6), pytest.approx(0.8),
                         pytest.approx(5.0))


def test_givens_zero_offdiagonal():
    a = 2.0 - 1.0j
    c, s, r = givens(a, 0.0)
    assert c == 1.0 and s == 0.0 and r == a


def test_givens_zero_diagonal():
    c, s, r = givens(0.0, 7.0)
    assert c == 0.0 and s == 1.0 and r == 7.0


def test_givens_both_zero_rejected():
    with pytest.raises(ValueError):
        givens(0.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        givens(1.0, -1.0)


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                          allow_nan=False, allow_infinity=False),
       st.floats(0.0, 1e3))
def test_givens_unitary_and_annihilating(a, b):
    c, s, r = givens(a, b)
    assert c * c + abs(s) ** 2 == pytest.approx(1.0, abs=1e-14)
    lo_then_zero = apply_rotation(c, s, a, complex(b))
    assert lo_then_zero[0] == pytest.approx(r, rel=1e-12)
    assert abs(lo_then_zero[1]) <= 1e-12 * max(abs(a), b)
    assert abs(r) == pytest.approx(np.hypot(abs(a), b), rel=1e-12)


def test_two_by_two_exact_at_grade():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    res = minres_run(a, v, [3.0])
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    assert out.iterations == 2
    assert out.value == pytest.approx(0.75, abs=1e-13)


def test_identity_grade_one(rng):
    a = SparseHermitianMatrix.diagonal([1.0] * 5)
    v = random_vector(rng, 5)
    vnorm2 = float(np.vdot(v, v).real)
    z = 2.5 + 0.5j
    res = minres_run(a, v, [z])
    out = res.shifts[0]
    assert out.iterations == 1
    assert out.value == pytest.approx(vnorm2 / (z - 1.0), rel=1e-13)
    assert out.residual_norm == pytest.approx(0.0, abs=1e-12)


def test_matches_least_squares_oracle(rng):
    """M_k equals v^H V_k y_k with y_k the dense LS minimizer at every k."""
    n = 24
    dense = random_hermitian_dense(rng, n)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, n)
    z = 0.4 + 0.9j
    kmax = 12

    res = minres_run(a, v, [z], rtol=None, max_iter=kmax, keep_history=True)
    hist = res.shifts[0].history

    state = lanczos_init(a, v)
    basis = [state.v_curr.copy()]
    betas = []
    for _ in range(kmax):
        out = lanczos_step(state)
        if out.invariant_subspace:
            break
        basis.append(state.v_curr.copy())
        betas.append(state.coeffs.beta[-1])
    alphas = state.coeffs.alpha
    rnorm = np.linalg.norm(v)
    for k in range(1, kmax + 1):
        b_ext = np.zeros((k + 1, k), dtype=complex)
        for j in range(k):
            b_ext[j, j] = z - alphas[j]
            if j + 1 <= k:
                b_ext[j + 1, j] = -betas[j] if j < len(betas) else 0.0
            if j > 0:
                b_ext[j - 1, j] = -betas[j - 1]
        rhs = np.zeros(k + 1, dtype=complex)
        rhs[0] = rnorm
        y, *_ = np.linalg.lstsq(b_ext, rhs, rcond=None)
        vmat = np.column_stack(basis[:k])
        want = complex(np.vdot(v, vmat @ y))
        assert hist[k - 1].value == pytest.approx(want, rel=1e-10)


def test_residual_phase_monotone(rng):
    a = random_hermitian(rng, 40)
    v = random_vector(rng, 40)
    res = minres_run(a, v, [0.3 + 0.4j], rtol=None, max_iter=30,
                     keep_history=True)
    residuals = [row.residual for row in res.shifts[0].history]
    assert all(r2 <= r1 * (1 + 1e-12) for r1, r2 in zip(residuals, residuals[1:]))


def test_agreement_with_shifted_lanczos_complex_hermitian(rng):
    dense = random_hermitian_dense(rng, 50)  # complex Hermitian
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 50)
    shifts = [1.0 + 0.6j, -0.7 + 0.2j]
    lan = run_quadratic_forms(a, v, shifts, rtol=1e-11, max_iter=300)
    mnr = minres_run(a, v, shifts, rtol=1e-11, max_iter=300)
    for lo, mo, z in zip(lan.shifts, mnr.shifts, shifts):
        assert mo.status is SolveStatus.CONVERGED
        assert abs(mo.value - lo.value) <= 1e-8 * abs(lo.value)
        want = dense_resolvent_quadform(dense, v, z)
        assert abs(mo.value - want) <= 1e-8 * abs(want)


def test_reference_stopping(rng):
    dense = random_hermitian_dense(rng, 30)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 30)
    z = 1.2 + 0.8j
    ref = dense_resolvent_quadform(dense, v, z)
    res = minres_run(a, v, [z], rtol=1e-10, reference=[ref])
    assert res.shifts[0].status is SolveStatus.CONVERGED
    assert abs(res.shifts[0].value - ref) <= 1e-10 * abs(ref)


def test_empty_shifts_rejected(rng):
    a = random_hermitian(rng, 5)
    with pytest.raises(ValueError):
        minres_run(a, random_vector(rng, 5), [])


def apply_rotation(c, s, x, y):
    """Apply ``[[c, s], [-conj(s), conj(c)]]`` to the pair ``(x, y)``.

    ``c`` is real by the phase convention of :func:`givens`, so
    ``conj(c) = c``; elementwise on arrays.
    """
    return c * x + s * y, -s.conjugate() * x + c * y


def reference_minres_run(a, v, shifts, *, rtol=1e-10, lag=DEFAULT_LAG,
                         max_iter=None, reference=None, keep_history=False):
    """The MINRES iteration before it was trimmed: both column rotations
    through :func:`apply_rotation`, the breakdown mask and all three
    finiteness masks every iteration, and ``rnorm |f|`` for every shift.
    :func:`minres_run` must reproduce it bit for bit.  The residual norms go
    to the batch as factors of scale 1.0, whose modulus is themselves."""
    batch = ShiftBatch(shifts, rtol=rtol, lag=lag, reference=reference,
                       keep_history=keep_history)
    v = stream_vector(a, v)
    try:
        stream = lanczos_init(a, v)
    except NonFiniteError:
        batch.freeze_all(0, SolveStatus.OVERFLOW)
        return stream_result("minres", batch, 0, None)
    if max_iter is None:
        max_iter = 2 * a.n
    rnorm = math.sqrt(stream.vnorm2)
    s = batch.state
    zeros = np.zeros(s.z.shape, dtype=np.complex128)
    s.f = zeros + 1.0
    s.value = zeros
    s.p1 = s.p2 = zeros
    s.c1 = s.c2 = np.ones(s.z.shape)
    s.s1 = s.s2 = zeros
    k = 0
    alpha_k = stream.coeffs.alpha[0]
    beta_prev = 0.0
    qsign = 1.0
    q_scalar = qsign * complex(np.vdot(v, stream.v_curr))
    with np.errstate(all="ignore"):
        while k < max_iter and batch.running:
            try:
                outcome = lanczos_step(stream)
            except NonFiniteError:
                batch.freeze_all(k, SolveStatus.OVERFLOW)
                break
            exhausting = outcome.invariant_subspace
            beta_k = 0.0 if exhausting else stream.coeffs.beta[-1]
            k += 1
            r2, r1 = apply_rotation(s.c2, s.s2, 0j, beta_prev)
            r1, r0 = apply_rotation(s.c1, s.s1, r1, s.z - alpha_k)
            r0_abs = cabs(r0)
            swap = r0_abs == 0
            c, sn, rkk = _rotation(r0, r0_abs, beta_k, np.hypot(r0_abs, beta_k))
            if swap.any():
                c[swap], sn[swap], rkk[swap] = 0.0, 1.0, beta_k
            p_new = (q_scalar - r2 * s.p2 - r1 * s.p1) / rkk
            value_new = s.value + rnorm * c * s.f * p_new
            f_new = -sn.conjugate() * s.f
            s.c2, s.s2, s.c1, s.s1 = s.c1, s.s1, c, sn
            s.p2, s.p1 = s.p1, p_new
            s.f, s.value = f_new, value_new
            overflow = ~(np.isfinite(value_new) & np.isfinite(p_new)
                         & np.isfinite(f_new))
            batch.freeze(k, (SolveStatus.BREAKDOWN, swap & (beta_k == 0.0)),
                         (SolveStatus.OVERFLOW, overflow))
            batch.step(k, s.value, residual=(1.0, rnorm * cabs(s.f)))
            if exhausting:
                batch.freeze_all(k, SolveStatus.CONVERGED)
                break
            alpha_k = stream.coeffs.alpha[-1]
            beta_prev = beta_k
            qsign = -qsign
            q_scalar = qsign * complex(np.vdot(v, stream.v_curr))
    return stream_result("minres", batch, k, stream)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
       real=st.booleans(),
       kind=st.sampled_from(["dense", "three", "eigvec", "bipartite"]),
       scale=st.sampled_from([1.0, 1e150]),
       max_iter=st.sampled_from([None, 1, 2, 3, 7, 25]),
       rtol=st.sampled_from([None, 1e-10, 1e-4]),
       keep_history=st.booleans())
def test_minres_equals_reference_iteration(seed, n, real, kind, scale,
                                           max_iter, rtol, keep_history):
    """Values, statuses, iterations and ``residual_norm`` (and the history
    columns when kept) equal the untrimmed iteration's bit for bit.  Both
    runs share :class:`ShiftBatch`, so with history each shift's
    ``residual_norm`` is also checked against its last row's residual,
    which the batch forms over the active shifts before any freeze."""
    a, v, shifts = stream_problem(seed, n, real, kind, scale)
    kw = dict(rtol=rtol, max_iter=max_iter, keep_history=keep_history)
    got = minres_run(a, v, shifts, **kw)
    assert result_bits(got) == result_bits(reference_minres_run(a, v, shifts,
                                                                **kw))
    if keep_history:
        for out in got.shifts:
            last = out.history[-1].residual if out.history else None
            assert (out.residual_norm is None) == (last is None)
            if last is not None:
                assert (np.float64(out.residual_norm).tobytes()
                        == np.float64(last).tobytes())


def test_residual_norms_of_shifts_frozen_after_a_convergence():
    """A shift that converges compacts the batch; the shifts frozen right
    after it, before another iteration is accepted, keep their own
    residual norms: each equals the residual of the shift's last row."""
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 30, real=True)
    v = random_vector(rng, 30)
    shifts = [10.0 + 0j, 0.1j, 0.2j, 0.3j]  # the far shift converges first
    ref = [dense_resolvent_quadform(a.to_dense(), v, z) for z in shifts]
    kw = dict(rtol=1e-8, reference=ref, keep_history=True)
    k = minres_run(a, v, shifts, **kw).shifts[0].iterations
    res = minres_run(a, v, shifts, max_iter=k, **kw)
    assert res.shifts[0].status is SolveStatus.CONVERGED
    assert all(o.status is SolveStatus.MAX_ITER and o.iterations == k
               for o in res.shifts[1:])
    for out in res.shifts:
        assert out.residual_norm == out.history[-1].residual


def test_breakdown_and_overflow_occur_in_the_reference_problems():
    """The breakdown and overflow cases the bitwise test relies on occur."""
    a, v, shifts = stream_problem(4, 6, True, "eigvec", 1.0)
    res = minres_run(a, v, shifts, rtol=None)
    assert res.shifts[-1].status is SolveStatus.BREAKDOWN
    assert res.shifts[0].status is SolveStatus.CONVERGED
    a, v, shifts = stream_problem(4, 12, False, "dense", 1e150)
    res = minres_run(a, v, shifts, rtol=None)
    assert res.shifts[5].status is SolveStatus.OVERFLOW
    assert res.shifts[4].status is SolveStatus.MAX_ITER
