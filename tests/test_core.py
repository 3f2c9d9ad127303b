import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad.core import (
    SparseHermitianMatrix,
    dot,
    dot_unconjugated,
    hermitian_check,
    norm,
)

from conftest import random_hermitian_dense, random_vector


def test_matvec_identity():
    a = SparseHermitianMatrix.diagonal([1.0, 1.0, 1.0])
    x = np.array([1.0, 2.0j, -1.0])
    assert np.array_equal(a.matvec(x), x)


def test_matvec_diagonal():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    assert np.array_equal(a.matvec(np.array([1.0, 1.0])), [1.0, 2.0])


def test_matvec_matches_dense(rng):
    for n in (7, 40, 100, 200):
        dense = random_hermitian_dense(rng, n, scale=False)
        a = SparseHermitianMatrix.from_dense(dense)
        x = random_vector(rng, n)
        got = a.matvec(x)
        want = dense @ x
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_matvec_deterministic(rng):
    a = SparseHermitianMatrix.from_dense(random_hermitian_dense(rng, 50))
    x = random_vector(rng, 50)
    y1 = a.matvec(x)
    y2 = a.matvec(x)
    assert y1.tobytes() == y2.tobytes()


def test_matvec_dimension_mismatch():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    with pytest.raises(ValueError):
        a.matvec(np.zeros(3))


def test_dot_conjugates_first_argument():
    x = np.array([1.0j, 0.0])
    assert dot(x, x) == 1.0
    assert dot_unconjugated(x, x) == -1.0


def test_norm_direct():
    assert norm(np.array([3.0, 4.0])) == 5.0


def test_kernel_length_mismatch():
    with pytest.raises(ValueError):
        dot(np.zeros(2), np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=8),
       st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=8))
def test_dot_conjugate_symmetry(xs, ys):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    assert dot(x, y) == pytest.approx(np.conj(dot(y, x)), abs=1e-9, rel=1e-9)


def test_rayleigh_quotient_real(rng):
    a = SparseHermitianMatrix.from_dense(random_hermitian_dense(rng, 60))
    assert a.hermitian_verified
    for _ in range(5):
        x = random_vector(rng, 60)
        q = dot(x, a.matvec(x))
        assert abs(q.imag) <= 1e-12 * abs(q)


def test_hermitian_check_flags():
    assert SparseHermitianMatrix.diagonal([1.0, 2.0]).hermitian_verified
    sym = SparseHermitianMatrix.from_dense([[0.0, 1.0j], [1.0j, 0.0]])
    assert not sym.hermitian_verified
    assert sym.max_asymmetry == pytest.approx(2.0)
    herm = SparseHermitianMatrix.from_dense([[0.0, 1.0j], [-1.0j, 0.0]])
    assert herm.hermitian_verified
    verified, asym = hermitian_check(herm)
    assert verified and asym == 0.0


def test_is_real_flag():
    assert SparseHermitianMatrix.diagonal([1.0, 2.0]).is_real
    assert not SparseHermitianMatrix.from_dense(
        [[0.0, 1.0j], [-1.0j, 0.0]]).is_real


def test_from_coo_sums_duplicates():
    a = SparseHermitianMatrix.from_coo(
        2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 3.0])
    assert np.allclose(a.to_dense(), [[0.0, 3.0], [3.0, 0.0]])


def test_csr_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        SparseHermitianMatrix.from_csr_arrays(
            2, [0, 1, 2], [0, 5], [1.0, 1.0])  # column out of range
    with pytest.raises(ValueError):
        SparseHermitianMatrix.from_csr_arrays(
            2, [0, 2, 2], [1, 0], [1.0, 1.0])  # columns not increasing
    with pytest.raises(ValueError):
        SparseHermitianMatrix.from_csr_arrays(
            2, [0, 2], [0, 1], [1.0, 1.0])  # row_ptr wrong length


def test_empty_rows_accepted():
    a = SparseHermitianMatrix.from_csr_arrays(3, [0, 0, 1, 1], [1], [2.0])
    x = np.array([1.0, 10.0, 100.0])
    assert np.array_equal(a.matvec(x), [0.0, 20.0, 0.0])


def test_frobenius_norm(rng):
    dense = random_hermitian_dense(rng, 12)
    a = SparseHermitianMatrix.from_dense(dense)
    assert a.frobenius_norm == pytest.approx(np.linalg.norm(dense), rel=1e-14)


def test_real_matrix_products(rng):
    """A real matrix keeps a float64 CSR: a real vector gives a float64
    product; a complex vector gives the product of the complex128 matrix
    with the same entries, bitwise, from a complex CSR that shares the
    index arrays."""
    dense = random_hermitian_dense(rng, 30, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    assert a.is_real and a.values.dtype == np.float64
    x = rng.standard_normal(30)
    y = a.matvec(x)
    assert y.dtype == np.float64
    assert np.linalg.norm(y - dense @ x) <= 1e-13 * np.linalg.norm(y)
    z = random_vector(rng, 30)
    as_complex = sp.csr_matrix(dense.astype(np.complex128))
    as_complex.sort_indices()
    assert a.matvec(z).tobytes() == as_complex.dot(z).tobytes()
    assert np.shares_memory(a._complex_csr.indices, a._csr.indices)
    assert np.shares_memory(a._complex_csr.indptr, a._csr.indptr)


def test_frobenius_norm_near_overflow():
    a = SparseHermitianMatrix.diagonal([1e308, -1e308])
    assert a.frobenius_norm == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
