import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad.oracle import (
    SingularShiftError,
    ZeroPivotError,
    condition_number,
    dense_resolvent_quadform,
    shifted_determinant_sequence,
    spectral_decomposition,
    spectral_quadform,
    thomas_solve,
    tridiag_resolvent_entry,
    tridiagonal_matrix,
)

from conftest import (
    kronecker_sum,
    random_hermitian_dense,
    random_jacobi,
    random_vector,
)


def test_dense_quadform_diag12():
    a = np.diag([1.0, 2.0]).astype(complex)
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    # partial fractions: 0.5/(3-1) + 0.5/(3-2)
    assert dense_resolvent_quadform(a, v, 3.0) == pytest.approx(0.75, abs=1e-14)


def test_dense_quadform_singular_shift():
    a = np.diag([1.0, 2.0]).astype(complex)
    v = np.array([1.0, 1.0], dtype=complex)
    with pytest.raises(SingularShiftError):
        dense_resolvent_quadform(a, v, 2.0)


def test_cross_oracle_agreement(rng):
    for n in (10, 60, 120):
        dense = random_hermitian_dense(rng, n)
        v = random_vector(rng, n)
        spec = spectral_decomposition(dense, v)
        vnorm2 = float(np.vdot(v, v).real)
        for z in (2.5 + 0.3j, -1.0 + 1.0j, 0.1 + 0.05j):
            lu = dense_resolvent_quadform(dense, v, z)
            pf = spectral_quadform(spec, z, vnorm2)
            assert abs(lu - pf) <= 1e-10 * abs(lu)


def test_spectral_weights_distribution(rng):
    dense = random_hermitian_dense(rng, 40)
    v = random_vector(rng, 40)
    spec = spectral_decomposition(dense, v)
    assert spec.weights.sum() == pytest.approx(1.0, abs=1e-10)
    for j in (0, 17, 39):
        resid = np.linalg.norm(
            dense @ spec.eigenvectors[:, j]
            - spec.eigenvalues[j] * spec.eigenvectors[:, j])
        assert resid <= 1e-10 * np.linalg.norm(dense, 2)


def _cluster_sums(lam, w, gap):
    """``w`` summed over runs of eigenvalues closer than ``gap``: the weight
    of each eigenspace, which does not depend on the basis LAPACK picks."""
    starts = np.flatnonzero(np.diff(lam, prepend=-np.inf) > gap)
    return np.add.reduceat(w, starts), starts


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       repeated=st.booleans(), real_v=st.booleans())
def test_real_and_complex_decompositions_agree(seed, n, repeated, real_v):
    """A real symmetric matrix decomposed in float64 and as its complex128
    copy: the same spectrum, the same eigenspace weights and the same
    partial-fraction values, both equal to the LU solve."""
    rng = np.random.default_rng(seed)
    if repeated:  # few distinct eigenvalues, each of high multiplicity
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.choice([-1.5, 0.0, 0.5, 2.0], size=n)
        a = (q * lam) @ q.T
        a = (a + a.T) / 2
    else:
        a = random_hermitian_dense(rng, n, real=True)
    v = random_vector(rng, n, real=real_v)
    if real_v:
        v = v.real
    real = spectral_decomposition(a, v)
    cplx = spectral_decomposition(a.astype(np.complex128), v)
    assert real.eigenvectors.dtype == np.float64
    assert cplx.eigenvectors.dtype == np.complex128
    scale = float(np.abs(real.eigenvalues).max())
    assert np.all(np.abs(real.eigenvalues - cplx.eigenvalues)
                  <= 1e-12 * scale)
    gap = 1e-3 * max(scale, 1.0)
    w_real, starts = _cluster_sums(real.eigenvalues, real.weights, gap)
    w_cplx = np.add.reduceat(cplx.weights, starts)
    assert np.all(np.abs(w_real - w_cplx) <= 1e-12)
    vnorm2 = float(np.vdot(v, v).real)
    s = max(scale, 1.0)
    for z in ((0.3 + 1.0j) * s, (-0.7 + 0.25j) * s, (2.0 - 0.5j) * s):
        got = spectral_quadform(real, z, vnorm2)
        want = spectral_quadform(cplx, z, vnorm2)
        assert abs(got - want) <= 1e-11 * abs(want)
        lu = dense_resolvent_quadform(a, v, z)
        assert abs(got - lu) <= 1e-11 * abs(lu)
        assert abs(want - lu) <= 1e-11 * abs(lu)


def test_spectral_quadform_n1():
    spec = spectral_decomposition(np.array([[2.0]], dtype=complex),
                                  np.array([3.0], dtype=complex))
    assert spectral_quadform(spec, 5.0, 9.0) == pytest.approx(3.0, abs=1e-14)


def test_condition_number():
    lam = np.array([1.0, 2.0, 4.0])
    z = 4.0 + 1.0j
    d = np.abs(z - lam)
    assert condition_number(lam, z) == pytest.approx(d.max() / d.min())
    with pytest.raises(SingularShiftError):
        condition_number(lam, 2.0)


def test_tridiag_entry_k1():
    assert tridiag_resolvent_entry([1.5], [], 3.0, 1, 1) == \
        pytest.approx(1.0 / 1.5, abs=1e-15)


def test_tridiag_entry_2x2_closed_form():
    alpha, beta = [1.5, 1.5], [0.5]
    z = 3.0 + 0.25j
    want = (z - alpha[1]) / ((z - alpha[0]) * (z - alpha[1]) - beta[0] ** 2)
    got = tridiag_resolvent_entry(alpha, beta, z, 1, 1)
    assert got == pytest.approx(want, rel=1e-14)


def test_thomas_matches_numpy_solve(rng):
    for k in (3, 17, 50):
        alpha, beta = random_jacobi(rng, k)
        z = 0.8 + 1.3j
        shifted = z * np.eye(k) - tridiagonal_matrix(alpha, beta)
        for j in (1, k):
            rhs = np.zeros(k, dtype=complex)
            rhs[j - 1] = 1.0
            want = np.linalg.solve(shifted, rhs)
            got, _ = thomas_solve(alpha, beta, z, rhs)
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_thomas_zero_pivot():
    with pytest.raises(ZeroPivotError):
        thomas_solve([1.5], [], 1.5, np.array([1.0], dtype=complex))
    # z = 2 makes delta_2 = z - 1.5 - 0.25/(z - 1.5) = 0 for this data
    with pytest.raises(ZeroPivotError, match="delta_2"):
        thomas_solve([1.5, 1.5], [0.5], 2.0, np.ones(2, dtype=complex))


@pytest.mark.parametrize("call", [
    lambda: spectral_decomposition(np.ones(3), np.ones(3)),
    lambda: spectral_decomposition(np.eye(2), np.zeros(2)),
    lambda: tridiagonal_matrix([1.0], [], k=2),
    lambda: thomas_solve([1.0], [], 2.0, np.ones(2)),
    lambda: tridiag_resolvent_entry([1.0, 2.0], [0.5], 2.0j, 3, 1),
    lambda: shifted_determinant_sequence([1.0, 2.0], [], 2.0j),
], ids=["not-square", "zero-vector", "tridiagonal-order",
        "thomas-order", "entry-outside", "determinant-order"])
def test_oracles_reject_bad_input(call):
    with pytest.raises(ValueError):
        call()


def test_determinant_sequence_basics():
    dets = shifted_determinant_sequence([1.5], [], 3.0)
    assert dets[0] == pytest.approx(1.5)
    dets = shifted_determinant_sequence([1.5, 1.5], [0.5], 3.0)
    assert dets[1] == pytest.approx(2.0, abs=1e-14)
    assert dets[1] / dets[0] == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_determinant_zero_when_pivot_vanishes():
    # z = 2 makes delta_2 = z - 1.5 - 0.25/(z - 1.5) = 0 for this data
    alpha, beta = [1.5, 1.5], [0.5]
    dets = shifted_determinant_sequence(alpha, beta, 2.0)
    assert dets[0] == pytest.approx(0.5)
    assert dets[1] == pytest.approx(0.0, abs=1e-15)


def test_determinants_match_numpy(rng):
    k = 12
    alpha, beta = random_jacobi(rng, k)
    z = 1.1 + 0.7j
    dets = shifted_determinant_sequence(alpha, beta, z)
    for j in range(1, k + 1):
        block = z * np.eye(j) - tridiagonal_matrix(alpha[:j], beta[:j - 1])
        want = np.linalg.det(block)
        assert dets[j - 1] == pytest.approx(want, rel=1e-10)


def test_pivots_equal_determinant_ratios(rng):
    k = 30
    alpha, beta = random_jacobi(rng, k)
    z = 0.4 + 0.9j
    _, deltas = thomas_solve(alpha, beta, z, np.zeros(k, dtype=complex))
    dets = shifted_determinant_sequence(alpha, beta, z)
    assert deltas[0] == pytest.approx(dets[0], rel=1e-14)
    for j in range(1, k):
        assert deltas[j] == pytest.approx(dets[j] / dets[j - 1], rel=1e-12)


def test_dense_cap():
    with pytest.raises(ValueError, match="capped"):
        dense_resolvent_quadform(np.eye(2001, dtype=complex),
                                 np.ones(2001, dtype=complex), 2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 14),
       n2=st.integers(1, 14), real=st.booleans(), x=st.floats(-4.0, 4.0),
       y=st.floats(0.05, 3.0), sign=st.sampled_from([-1.0, 1.0]))
def test_kronecker_sum_oracle_is_the_dense_quadform(seed, n1, n2, real, x, y,
                                                    sign):
    """The Kronecker-sum builder's ``Q(z)``, from the two factors' spectra,
    against an LU solve with the assembled ``A`` (n <= 196), on and off
    the spectrum's span."""
    a, v, quadform = kronecker_sum(np.random.default_rng(seed), n1, n2, real)
    assert a.n == n1 * n2 and a.hermitian_verified and (a.is_real or not real)
    z = complex(x, sign * y)
    want = dense_resolvent_quadform(a.to_dense(), v, z)
    assert abs(quadform(z) - want) <= 1e-12 * abs(want)
