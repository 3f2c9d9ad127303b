"""``hermitian_check_csr`` against the formula it replaces, the reader's
closed form for mirrored files against the same formula, which loads skip
the transpose, and the memory a Matrix Market load holds at its peak."""

import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad import core
from resolvquad.core import (
    HERMITIAN_TOL,
    SparseHermitianMatrix,
    hermitian_check_csr,
)
from resolvquad.mmio import parse_matrix_market, read_matrix_market


def reference_hermitian_check(csr):
    """``(verified, max_asymmetry)`` as scipy's ``A - A^H`` gives them."""
    if csr.nnz == 0:
        return True, 0.0
    diff = (csr - csr.getH()).tocsr()
    asym = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    scale_ = float(np.abs(csr.data).max())
    return bool(asym <= HERMITIAN_TOL * scale_), asym


def assert_same_check(got, want):
    assert type(got[0]) is bool and type(got[1]) is float
    assert got[0] == want[0]
    assert struct.pack("<d", got[1]) == struct.pack("<d", want[1])


# stored zeros of both signs, subnormals and magnitudes whose differences
# and moduli overflow, besides ordinary values
parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e305, -1e305, 1.5e308,
                     -1.7e308]),
    st.floats(-8.0, 8.0))


@st.composite
def canonical_csrs(draw):
    """A canonical CSR, real or complex, whose pattern is symmetric or not
    and whose values are Hermitian, Hermitian but for one entry, or
    arbitrary."""
    n = draw(st.integers(1, 7))
    real = draw(st.booleans())
    re = np.array(draw(st.lists(parts, min_size=n * n, max_size=n * n)))
    a = re.reshape(n, n)
    if not real:
        im = np.array(draw(st.lists(parts, min_size=n * n, max_size=n * n)))
        a = a + 1j * im.reshape(n, n)
    values = draw(st.sampled_from(["hermitian", "perturbed", "arbitrary"]))
    if values != "arbitrary":
        # the diagonal keeps its drawn imaginary part
        a = np.tril(a) + np.tril(a, -1).conj().T
        if values == "perturbed":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            a[i, j] = a[i, j] * (1 + 1e-9) + 1e-300
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                  max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        mask = mask | mask.T
    rows, cols = np.nonzero(mask)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    csr = sp.csr_matrix((a[rows, cols], cols, indptr), shape=(n, n))
    assert csr.has_canonical_format and csr.nnz == rows.size
    return csr


@settings(max_examples=300, deadline=None)
@given(csr=canonical_csrs())
def test_check_equals_reference_bit_for_bit(csr):
    data = csr.data.copy()
    assert_same_check(hermitian_check_csr(csr),
                      reference_hermitian_check(csr))
    assert np.array_equal(csr.data, data, equal_nan=True)  # left as it was


@pytest.mark.parametrize("n", [0, 1, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_empty_matrix(n, dtype):
    csr = sp.csr_matrix((n, n), dtype=dtype)
    assert_same_check(hermitian_check_csr(csr), (True, 0.0))
    assert_same_check(hermitian_check_csr(csr),
                      reference_hermitian_check(csr))


@pytest.mark.parametrize("csr", [
    # an overflowing difference between partners
    sp.csr_matrix(np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])),
    # an imaginary part on the diagonal, and an overflowing modulus
    sp.csr_matrix(np.array([[1e308 + 1e308j, 2.0], [2.0, 1j]])),
    # stored zeros whose partners are missing
    sp.csr_matrix((np.array([0.0, -0.0, 3.0]), np.array([1, 0, 1]),
                   np.array([0, 1, 3])), shape=(2, 2)),
], ids=["overflowing-difference", "complex-diagonal", "stored-zeros"])
def test_edge_cases(csr):
    assert_same_check(hermitian_check_csr(csr),
                      reference_hermitian_check(csr))


@st.composite
def mirrored_files(draw):
    """The text of a ``symmetric`` or ``hermitian`` Matrix Market file:
    entries on and below the diagonal, stored zeros included."""
    n = draw(st.integers(1, 6))
    symmetry = draw(st.sampled_from(["symmetric", "hermitian"]))
    field = draw(st.sampled_from(["real", "complex"]))
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    cells = draw(st.lists(st.sampled_from(lower), unique=True, max_size=12))
    lines = []
    for i, j in cells:
        value = [draw(parts) for _ in range(1 if field == "real" else 2)]
        lines.append(" ".join([str(i + 1), str(j + 1)]
                              + [repr(x) for x in value]))
    return (f"%%MatrixMarket matrix coordinate {field} {symmetry}\n"
            f"{n} {n} {len(lines)}\n" + "".join(x + "\n" for x in lines))


@settings(max_examples=150, deadline=None)
@given(text=mirrored_files())
def test_mirrored_file_equals_reference(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("mirrored") / "a.mtx"
    path.write_text(text)
    for a in (read_matrix_market(path), parse_matrix_market(io.StringIO(text))):
        assert_same_check((a.hermitian_verified, a.max_asymmetry),
                          reference_hermitian_check(a._csr))


@st.composite
def summed_files(draw):
    """The text of a ``symmetric`` or ``hermitian`` Matrix Market file whose
    cells may repeat, sit above the diagonal, or both, so that reading it
    may sum cells, and past the overflow threshold."""
    n = draw(st.integers(1, 6))
    symmetry = draw(st.sampled_from(["symmetric", "hermitian"]))
    field = draw(st.sampled_from(["real", "complex"]))
    every = [(i, j) for i in range(n) for j in range(n)]
    cells = draw(st.lists(st.sampled_from(every), max_size=12))
    lines = []
    for i, j in cells:
        value = [draw(parts) for _ in range(1 if field == "real" else 2)]
        lines.append(" ".join([str(i + 1), str(j + 1)]
                              + [repr(x) for x in value]))
    return (f"%%MatrixMarket matrix coordinate {field} {symmetry}\n"
            f"{n} {n} {len(lines)}\n" + "".join(x + "\n" for x in lines))


@settings(max_examples=300, deadline=None)
@given(text=summed_files())
def test_summed_file_equals_reference(text, tmp_path_factory):
    """Both loaders give the transpose formula's values bit for bit, and a
    file whose summed cells overflow is refused as non-finite."""
    path = tmp_path_factory.mktemp("summed") / "a.mtx"
    path.write_text(text)
    summed = scipy.io.mmread(io.StringIO(text)).tocsr()
    for load in (lambda: read_matrix_market(path),
                 lambda: parse_matrix_market(io.StringIO(text))):
        if not np.all(np.isfinite(summed.data)):
            with pytest.raises(ValueError) as excinfo:
                load()
            assert type(excinfo.value) is ValueError
            assert str(excinfo.value) == "matrix entries must be finite"
            continue
        a = load()
        assert_same_check((a.hermitian_verified, a.max_asymmetry),
                          reference_hermitian_check(a._csr))


class TransposeCheckCalled(Exception):
    pass


@pytest.fixture
def no_transpose_check(monkeypatch):
    """``core.hermitian_check_csr`` raising ``TransposeCheckCalled``."""
    def check(csr):
        raise TransposeCheckCalled
    monkeypatch.setattr(core, "hermitian_check_csr", check)


@pytest.mark.parametrize("header,body", [
    ("real symmetric", "1 1 2.0\n2 1 -1.0\n2 2 2.0\n"),
    ("complex symmetric", "1 1 2.0 1.0\n2 1 -1.0 0.5\n2 2 2.0 0.0\n"),
    ("complex hermitian", "1 1 2.0 0.0\n2 1 -1.0 0.5\n2 2 2.0 0.0\n"),
    ("complex hermitian", "1 1 2.0 0.0\n1 2 -1.0 0.5\n2 2 2.0 0.0\n"),
], ids=["real-symmetric", "complex-symmetric", "hermitian",
        "hermitian-upper"])
def test_mirrored_file_skips_transpose(no_transpose_check, tmp_path,
                                       header, body):
    text = f"%%MatrixMarket matrix coordinate {header}\n2 2 3\n{body}"
    path = tmp_path / "a.mtx"
    path.write_text(text)
    for a in (read_matrix_market(path), parse_matrix_market(io.StringIO(text))):
        assert a.nnz == 4


@pytest.mark.parametrize("header,body", [
    ("real symmetric", "1 1 2.0\n2 1 -1.0\n2 1 0.5\n"),
    ("real symmetric", "1 1 2.0\n2 1 -1.0\n1 2 -1.0\n"),
    ("complex hermitian", "1 1 2.0 0.0\n1 1 1.0 0.0\n2 1 0.5 1.0\n"),
    ("real general", "1 1 2.0\n2 1 -1.0\n1 2 -1.0\n"),
], ids=["repeated-cell", "both-triangles", "hermitian-repeated-diagonal",
        "general"])
def test_summed_or_general_file_runs_transpose(no_transpose_check, tmp_path,
                                               header, body):
    text = f"%%MatrixMarket matrix coordinate {header}\n2 2 3\n{body}"
    path = tmp_path / "a.mtx"
    path.write_text(text)
    with pytest.raises(TransposeCheckCalled):
        read_matrix_market(path)
    with pytest.raises(TransposeCheckCalled):
        parse_matrix_market(io.StringIO(text))


def test_from_csr_runs_transpose(no_transpose_check):
    with pytest.raises(TransposeCheckCalled):
        SparseHermitianMatrix.from_csr(sp.csr_matrix(np.eye(2)))


def laplacian_2d(grid):
    t = sp.diags([-np.ones(grid - 1), 2.0 * np.ones(grid),
                  -np.ones(grid - 1)], [-1, 0, 1])
    eye = sp.identity(grid)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()


@pytest.mark.parametrize("symmetry", ["symmetric", "hermitian"])
def test_load_peaks_under_three_matrices(tmp_path, symmetry):
    """Reading the 5-point Laplacian of n = 4e4 from its lower triangle,
    real or under a complex unitary gauge ``D L D^H``, holds at most three
    times the bytes of the CSR it returns."""
    grid = 200
    a = laplacian_2d(grid)
    if symmetry == "hermitian":
        phases = np.random.default_rng(1).random(grid * grid)
        d = sp.diags(np.exp(2j * math.pi * phases))
        a = (d @ a @ d.conj()).tocsr()
    path = tmp_path / "lap.mtx"
    scipy.io.mmwrite(path, sp.tril(a).tocoo(), symmetry=symmetry,
                     precision=17)
    tracemalloc.start()
    try:
        got = read_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = got._csr
    assert got.hermitian_verified and got.is_real == (symmetry == "symmetric")
    assert csr.nnz == a.nnz
    assert peak <= 3 * (csr.data.nbytes + csr.indices.nbytes
                        + csr.indptr.nbytes)
