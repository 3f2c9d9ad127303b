import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad.core import (
    HAPPY_BREAKDOWN_RTOL,
    NonFiniteError,
    SparseHermitianMatrix,
)
from resolvquad.lanczos import (
    BLOCK,
    _norm,
    _subtract_scaled,
    lanczos_init,
    lanczos_step,
)
from resolvquad.oracle import tridiagonal_matrix

from conftest import random_hermitian, random_hermitian_dense, random_vector


def diag12_state():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return lanczos_init(a, v)


def test_init_diag12():
    state = diag12_state()
    assert state.coeffs.alpha[0] == pytest.approx(1.5, abs=1e-15)
    assert state.vnorm2 == pytest.approx(1.0, abs=1e-15)
    assert state.k == 1


def test_init_identity_unit_vector(rng):
    a = SparseHermitianMatrix.diagonal([1.0] * 5)
    v = random_vector(rng, 5)
    state = lanczos_init(a, v / np.linalg.norm(v))
    assert state.coeffs.alpha[0] == pytest.approx(1.0, abs=1e-14)


def test_init_zero_diagonal_complex():
    a = SparseHermitianMatrix.from_dense([[0.0, 1.0j], [-1.0j, 0.0]])
    state = lanczos_init(a, np.array([1.0, 0.0], dtype=complex))
    assert state.coeffs.alpha[0] == pytest.approx(0.0, abs=1e-15)


def test_two_step_sequence_diag12():
    state = diag12_state()
    out1 = lanczos_step(state)
    assert not out1.invariant_subspace
    assert out1.beta == pytest.approx(0.5, abs=1e-15)
    assert out1.alpha_next == pytest.approx(1.5, abs=1e-14)
    out2 = lanczos_step(state)
    assert out2.invariant_subspace
    assert state.k == 2


def test_identity_breaks_down_immediately(rng):
    a = SparseHermitianMatrix.diagonal([1.0] * 6)
    state = lanczos_init(a, random_vector(rng, 6))
    assert lanczos_step(state).invariant_subspace


def test_eigenvector_start_breaks_down():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0])
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    state = lanczos_init(a, e1)
    out = lanczos_step(state)
    assert out.invariant_subspace and state.k == 1


def test_zero_vector_rejected():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    with pytest.raises(ValueError, match="nonzero"):
        lanczos_init(a, np.zeros(2, dtype=complex))


def test_underflowing_norm_is_named():
    """A nonzero ``v`` whose squares all underflow is not called zero."""
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    with pytest.raises(ValueError, match="underflows") as info:
        lanczos_init(a, 1e-170 * np.ones(2))
    assert "nonzero" not in str(info.value)


def test_non_hermitian_rejected():
    a = SparseHermitianMatrix.from_dense([[0.0, 1.0j], [1.0j, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        lanczos_init(a, np.array([1.0, 0.0], dtype=complex))


def test_local_orthogonality_and_unit_norm(rng):
    a = random_hermitian(rng, 40)
    state = lanczos_init(a, random_vector(rng, 40))
    for _ in range(20):
        if lanczos_step(state).invariant_subspace:
            break
        assert np.linalg.norm(state.v_curr) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(state.v_prev, state.v_curr)) <= 1e-8


def test_decomposition_residual(rng):
    """||A V_k - V_{k+1} T_{k+1,k}|| stays at round-off level."""
    n, kmax = 80, 25
    dense = random_hermitian_dense(rng, n, scale=False)
    a = SparseHermitianMatrix.from_dense(dense)
    state = lanczos_init(a, random_vector(rng, n))
    basis = [state.v_curr.copy()]
    betas = []
    for _ in range(kmax):
        out = lanczos_step(state)
        if out.invariant_subspace:
            break
        basis.append(state.v_curr.copy())
        betas.append(out.beta)
    k = len(basis) - 1
    vmat = np.column_stack(basis)
    t_ext = np.zeros((k + 1, k))
    t_ext[:k, :k] = tridiagonal_matrix(state.coeffs.alpha, state.coeffs.beta, k)
    t_ext[k, k - 1] = betas[-1]
    resid = np.linalg.norm(dense @ vmat[:, :k] - vmat @ t_ext, 2)
    assert resid <= 1e-10 * np.linalg.norm(dense, 2)


def test_moment_matching(rng):
    """v^H A^i v = (v^H v) e_1^T T^i e_1 for i = 0..2k-1 on small problems."""
    n, kmax = 50, 6
    dense = random_hermitian_dense(rng, n, scale=False)
    dense = dense / np.linalg.norm(dense, 2)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, n)
    v /= np.linalg.norm(v)
    state = lanczos_init(a, v)
    for _ in range(kmax - 1):
        if lanczos_step(state).invariant_subspace:
            break
    k = state.k
    t = tridiagonal_matrix(state.coeffs.alpha, state.coeffs.beta, k)
    power = v.copy()
    for i in range(2 * k):
        lhs = complex(np.vdot(v, power))
        rhs = state.vnorm2 * np.linalg.matrix_power(t, i)[0, 0]
        assert abs(lhs - rhs) <= 1e-8
        power = dense @ power


def test_alpha_is_real_float():
    state = diag12_state()
    lanczos_step(state)
    assert all(isinstance(x, float) for x in state.coeffs.alpha)
    assert all(isinstance(x, float) for x in state.coeffs.beta)


def test_non_finite_recurrence_raises():
    from resolvquad.core import NonFiniteError
    a = SparseHermitianMatrix.diagonal([1e308, -1e308])
    v = np.array([1.0, 1.0], dtype=complex)
    with pytest.raises(NonFiniteError):
        state = lanczos_init(a, v)
        lanczos_step(state)


def test_non_finite_alpha_1_raises():
    """``alpha_1`` overflows where ``||A||_2`` does."""
    a = SparseHermitianMatrix.from_dense([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(NonFiniteError, match="alpha_1 "):
        lanczos_init(a, np.ones(2))


def test_non_finite_alpha_in_a_step_raises(monkeypatch):
    """No finite matrix overflows ``alpha_{k+1}``: a finite ``beta_k``
    above the breakdown floor bounds ``||A||_F`` by about 1e168, so the
    step's guard is reached through a product that is not finite."""
    state = diag12_state()
    monkeypatch.setattr(SparseHermitianMatrix, "matvec",
                        lambda self, x: np.full_like(x, np.inf))
    with pytest.raises(NonFiniteError, match="alpha_2 "):
        lanczos_step(state)


def test_step_past_the_invariant_subspace_raises():
    state = diag12_state()
    lanczos_step(state)
    assert lanczos_step(state).invariant_subspace
    with pytest.raises(RuntimeError, match="invariant subspace"):
        lanczos_step(state)


@pytest.mark.parametrize("real_matrix", [True, False])
@pytest.mark.parametrize("vector", ["real", "complex_zero_imag", "complex"])
def test_stream_dtype_follows_the_data(rng, real_matrix, vector):
    """float64 exactly when both A and v are real (a complex128 v with zero
    imaginary parts counts as real), complex128 otherwise."""
    a = random_hermitian(rng, 12, real=real_matrix)
    v = {"real": rng.standard_normal(12),
         "complex_zero_imag": random_vector(rng, 12, real=True),
         "complex": random_vector(rng, 12)}[vector]
    state = lanczos_init(a, v)
    lanczos_step(state)
    want = np.float64 if real_matrix and vector != "complex" else np.complex128
    for array in (state.v_prev, state.v_curr, state.u):
        assert array.dtype == want
    assert a.values.dtype == (np.float64 if real_matrix else np.complex128)


def test_step_reuses_the_basis_buffers(rng):
    """v_{k+1} is written into v_{k-1}'s buffer; v_k's buffer becomes v_prev."""
    a = random_hermitian(rng, 30, real=True)
    state = lanczos_init(a, rng.standard_normal(30))
    for _ in range(4):
        prev, curr, scratch = state.v_prev, state.v_curr, state.scratch
        assert not lanczos_step(state).invariant_subspace
        assert state.v_curr is prev
        assert state.v_prev is curr
        assert state.scratch is scratch


def test_start_vector_is_not_modified(rng):
    a = random_hermitian(rng, 10, real=True)
    v = rng.standard_normal(10)
    kept = v.copy()
    state = lanczos_init(a, v)
    for _ in range(3):
        lanczos_step(state)
    assert np.array_equal(v, kept)


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
def test_non_finite_start_norm_raises(entry):
    from resolvquad.core import NonFiniteError
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteError, match="v"):
        lanczos_init(a, np.array([entry, 1e200, 1.0]))


def two_pass_step(state):
    """The step before the vector updates were blocked: every update is a
    whole-vector product into an n-vector scratch, then a subtraction, and
    ``v_{k+1}`` is ``numpy.divide(u, beta_k)``.  The reference for
    :func:`lanczos_step`, which must match it bit for bit."""
    k = state.k
    alpha_k = state.coeffs.alpha[-1]
    u, v_curr, scratch = state.u, state.v_curr, state.scratch
    with np.errstate(all="ignore"):
        np.subtract(u, np.multiply(alpha_k, v_curr, out=scratch), out=u)
        beta_k = float(np.linalg.norm(u))
        if beta_k <= HAPPY_BREAKDOWN_RTOL * state.a.frobenius_norm:
            state.exhausted = True
            return True
        v_next = np.divide(u, beta_k, out=state.v_prev)
        u_next = state.a.matvec(v_next)
        np.subtract(u_next, np.multiply(beta_k, v_curr, out=scratch),
                    out=u_next)
        alpha_next = float(np.vdot(u_next, v_next).real)
    state.coeffs.beta.append(beta_k)
    state.coeffs.alpha.append(alpha_next)
    state.v_prev, state.v_curr, state.u = v_curr, v_next, u_next
    state.k = k + 1
    return False


def sparse_problem(seed, n, real, real_vector, zeros):
    """A sparse Hermitian tridiagonal with a few far entries, and a start
    vector; with ``zeros``, some matrix entries and some entries of ``v``
    are exact zeros, half of the latter ``-0.0``."""
    rng = np.random.default_rng(seed)
    diag = rng.standard_normal(n)
    off = rng.standard_normal(n - 1)
    far = rng.integers(0, n, size=(2, min(n, 8)))
    far_values = rng.standard_normal(far.shape[1])
    if not real:
        off = off + 1j * rng.standard_normal(n - 1)
        far_values = far_values + 1j * rng.standard_normal(far.shape[1])
    v = rng.standard_normal(n)
    if not real_vector:
        v = v + 1j * rng.standard_normal(n)
    if zeros:
        diag[rng.random(n) < 0.2] = 0.0
        off[rng.random(n - 1) < 0.2] = 0.0
        hit = rng.random(n) < 0.2
        v[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
        if not v.any():
            v[0] = 1.0
    lower = sp.coo_matrix((np.concatenate([off, far_values]),
                           (np.concatenate([np.arange(1, n), far[0]]),
                            np.concatenate([np.arange(n - 1), far[1]]))),
                          shape=(n, n)).tocsr()
    lower = sp.tril(lower, -1)
    csr = (sp.diags(diag) + lower + lower.conj().T).tocsr()
    return SparseHermitianMatrix.from_csr(csr), v


def bits(array):
    return np.ascontiguousarray(array).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.sampled_from([1, 2, BLOCK // 2 - 1, BLOCK // 2 + 1, BLOCK - 1,
                          BLOCK, BLOCK + 1, 3 * BLOCK + 5]),
       real=st.booleans(), real_vector=st.booleans(), zeros=st.booleans())
def test_blocked_step_equals_two_pass_step(seed, n, real, real_vector, zeros):
    """``alpha``, ``beta``, ``v_k``, ``v_{k-1}`` and ``u`` equal the two-pass
    step's bit for bit over 6 steps, for real and complex streams whose
    length is one block, a block and a bit, or several blocks and a tail."""
    a, v = sparse_problem(seed, n, real, real_vector, zeros)
    state = lanczos_init(a, v)
    ref = lanczos_init(a, v)
    ref.scratch = np.empty_like(ref.v_curr)
    assert state.scratch.size <= BLOCK
    for _ in range(6):
        exhausted = two_pass_step(ref)
        assert lanczos_step(state).invariant_subspace is exhausted
        assert bits(state.coeffs.alpha) == bits(ref.coeffs.alpha)
        assert bits(state.coeffs.beta) == bits(ref.coeffs.beta)
        for name in ("v_prev", "v_curr", "u"):
            assert bits(getattr(state, name)) == bits(getattr(ref, name))
        if exhausted:
            break


@pytest.mark.parametrize("real", [True, False])
def test_step_allocates_only_the_matvec_result(real):
    """One step at n = 4 BLOCK: its peak allocation is the matrix-vector
    product plus at most a block, and the scratch is one block."""
    n = 4 * BLOCK
    a, v = sparse_problem(3, n, real, real, zeros=False)
    state = lanczos_init(a, v)
    lanczos_step(state)  # the first step builds nothing lazily either
    assert state.scratch.nbytes == 8 * BLOCK
    tracemalloc.start()
    try:
        assert not lanczos_step(state).invariant_subspace
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= state.u.nbytes + 8 * BLOCK


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_norm_is_numpys_bit_for_bit(rng, real, scale):
    """The stream's norm is ``numpy.linalg.norm``'s, also where it
    overflows to ``inf`` (``lanczos_init`` then raises
    :class:`NonFiniteError`) and where every square underflows to 0."""
    for n in (1, 2, 7, 1000, 3 * BLOCK + 5):
        u = scale * (rng.standard_normal(n) if real
                     else random_vector(rng, n))
        with np.errstate(all="ignore"):  # as in the stream: dot overflows
            got, want = _norm(u), float(np.linalg.norm(u))
        assert isinstance(got, float)
        assert bits(got) == bits(want)
    if scale == 1e200:
        assert got == np.inf
        with pytest.raises(NonFiniteError, match="v"):
            lanczos_init(SparseHermitianMatrix.diagonal(np.ones(n)), u)
    if scale == 1e-170:
        assert got == 0.0


@pytest.mark.parametrize("n", [1, BLOCK // 2, BLOCK // 2 + 1, BLOCK,
                               BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_subtract_scaled_is_the_two_pass_update(rng, n, real):
    """``u - c x`` on the ``float64`` views, bit for bit, on one block (one
    call) and on several (the block loop); a complex vector of ``BLOCK/2``
    entries is one block, of ``BLOCK/2 + 1`` two."""
    x = rng.standard_normal(n) if real else random_vector(rng, n)
    u = rng.standard_normal(n) if real else random_vector(rng, n)
    c = float(rng.standard_normal())
    m = u.view(np.float64).size
    want = u.view(np.float64) - c * x.view(np.float64)
    _subtract_scaled(u, c, x, np.empty(min(BLOCK, m)))
    assert bits(u.view(np.float64)) == bits(want)
