import numpy as np
import pytest
import scipy.sparse as sp

from resolvquad.core import (
    HAPPY_BREAKDOWN_RTOL,
    SparseHermitianMatrix,
    stable_norm,
)
from resolvquad.mmio import read_matrix_market, write_matrix_market

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


def _with_int64_indices(a):
    csr = a._csr.copy()
    csr.indptr = csr.indptr.astype(np.int64)
    csr.indices = csr.indices.astype(np.int64)
    out = SparseHermitianMatrix.from_csr(csr)
    assert out._csr.indices.dtype == np.int64
    return out


@pytest.mark.parametrize("index64", [False, True], ids=["int32", "int64"])
@pytest.mark.parametrize("x_kind", ["float64", "complex128", "int", "strided"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_matvec_is_scipys_product_bit_for_bit(rng, real, x_kind, index64):
    """``matvec`` calls scipy's ``csr_matvec`` kernel itself; its product
    is the bits of ``csr.dot`` on the CSR it picks, whatever the vector's
    dtype and strides and the CSR's index dtype.  A scipy release that
    moves the private kernel fails the import, one that changes what
    ``csr.dot`` runs fails here."""
    n = 57
    dense = random_hermitian_dense(rng, n, real=real)
    dense[np.abs(dense) < 0.1] = 0.0
    a = SparseHermitianMatrix.from_dense(dense)
    if index64:
        a = _with_int64_indices(a)
    x = {"float64": lambda: rng.standard_normal(n),
         "complex128": lambda: random_vector(rng, n),
         "int": lambda: rng.integers(-5, 6, size=n),
         "strided": lambda: random_vector(rng, 2 * n)[::2].real}[x_kind]()
    csr = a._csr if real and x_kind != "complex128" else a._complex_csr
    want = csr.dot(x)
    got = a.matvec(x)
    assert got.dtype == want.dtype == csr.dtype
    assert got.tobytes() == want.tobytes()


def test_rayleigh_quotient_real(rng):
    a = SparseHermitianMatrix.from_dense(random_hermitian_dense(rng, 60))
    assert a.hermitian_verified
    for _ in range(5):
        x = random_vector(rng, 60)
        q = complex(np.vdot(x, a.matvec(x)))
        assert abs(q.imag) <= 1e-12 * abs(q)


def test_hermitian_check_flags():
    assert SparseHermitianMatrix.diagonal([1.0, 2.0]).hermitian_verified
    sym = SparseHermitianMatrix.from_dense([[0.0, 1.0j], [1.0j, 0.0]])
    assert not sym.hermitian_verified
    assert sym.max_asymmetry == pytest.approx(2.0)
    herm = SparseHermitianMatrix.from_dense([[0.0, 1.0j], [-1.0j, 0.0]])
    assert herm.hermitian_verified
    assert herm.max_asymmetry == 0.0


def test_is_real_flag():
    assert SparseHermitianMatrix.diagonal([1.0, 2.0]).is_real
    assert not SparseHermitianMatrix.from_dense(
        [[0.0, 1.0j], [-1.0j, 0.0]]).is_real


def test_to_dense_keeps_the_csr_dtype(rng):
    """A real matrix gives a float64 dense copy without building the complex
    CSR; a complex Hermitian matrix gives a complex128 one."""
    real = SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, 8, real=True))
    dense = real.to_dense()
    assert dense.dtype == np.float64
    assert "_complex_csr" not in vars(real)
    assert np.array_equal(dense, real._csr.toarray())
    cplx = SparseHermitianMatrix.from_dense(random_hermitian_dense(rng, 8))
    assert cplx.to_dense().dtype == np.complex128


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


@pytest.mark.parametrize("row_ptr,col_idx,values", [
    ([0, 2, 2], [1, 1], [1.0, 1.0]),
    ([0, 2, 2], [1, 0], [1.0, 1.0]),
    ([0, 1, 2], [0, 1], [np.nan, 1.0]),
    ([0, 1, 2], [0, 1], [1.0, np.inf]),
    ([0, 1, 2], [0, 1], [1.0, complex(0.0, np.inf)]),
    ([0, 1, 2], [-1, 1], [1.0, 1.0]),
    ([0, 1, 1], [0, 1], [1.0, 1.0]),
], ids=["repeated-column", "unsorted-row", "nan", "inf", "complex-inf",
        "negative-column", "entries-past-row-ptr-end"])
def test_from_csr_arrays_rejects(row_ptr, col_idx, values):
    with pytest.raises(ValueError):
        SparseHermitianMatrix.from_csr_arrays(2, row_ptr, col_idx, values)


def _assert_one_copy(a):
    assert np.shares_memory(a.row_ptr, a._csr.indptr)
    assert np.shares_memory(a.col_idx, a._csr.indices)
    assert np.shares_memory(a.values, a._csr.data)
    assert a.nnz == a._csr.nnz == a.values.size


@pytest.mark.parametrize("real", [True, False])
def test_arrays_are_the_csr_arrays(rng, tmp_path, real):
    a = SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, 20, real=real))
    _assert_one_copy(a)
    path = tmp_path / "m.mtx"
    write_matrix_market(a, path)
    _assert_one_copy(read_matrix_market(path))


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


@pytest.mark.parametrize("scale, rel", [(1e-170, 1e-15), (1e308, 1e-15),
                                        (1e-320, 1e-3)])
@pytest.mark.parametrize("unit", [1.0, 1j])
def test_stable_norm_at_both_ends_of_the_range(scale, rel, unit):
    """Finite and nonzero where the norm is: every square of ``1e-170`` and
    of a subnormal underflows, every square of ``1e308`` overflows.  A
    subnormal holds about 11 bits."""
    norm = stable_norm(scale * unit * np.ones(2))
    assert norm == pytest.approx(np.sqrt(2.0) * scale, rel=rel, abs=0)
    assert stable_norm(np.empty(0)) == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_breakdown_floor_is_the_norm_product_while_it_is_finite(rng, scale):
    a = SparseHermitianMatrix.from_dense(
        scale * random_hermitian_dense(rng, 12))
    assert a.breakdown_floor == HAPPY_BREAKDOWN_RTOL * a.frobenius_norm


@pytest.mark.parametrize("dense, norm", [
    (1e308 * (np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)), np.sqrt(7.0)),
    ([[0, 1e308 + 1e308j], [1e308 - 1e308j, 0]], 2.0),
], ids=["real", "complex"])
def test_breakdown_floor_is_finite_where_the_norm_overflows(dense, norm):
    # ||A||_F is norm * 1e308, past the overflow threshold
    a = SparseHermitianMatrix.from_dense(dense)
    assert a.hermitian_verified and a.frobenius_norm == np.inf
    assert a.breakdown_floor == pytest.approx(
        HAPPY_BREAKDOWN_RTOL * 1e308 * norm, rel=1e-14)
