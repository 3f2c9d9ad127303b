import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import resolvquad
from resolvquad import cocg_run, cocr_run, minres_run, run_quadratic_forms
from resolvquad import core
from resolvquad.core import (
    HAPPY_BREAKDOWN_RTOL,
    SparseHermitianMatrix,
    stable_norm,
)
from resolvquad.harness import generate_unit_circle_shifts
from resolvquad.mmio import read_matrix_market, write_matrix_market

from conftest import (
    laplacian,
    random_hermitian_dense,
    random_vector,
    result_bits,
)


ENTRY_POINTS = {
    "__version__", "SolveStatus", "SparseHermitianMatrix", "QuadFormResult",
    "bilinear_form", "run_quadratic_forms", "cocg_run", "cocr_run",
    "minres_run", "parse_matrix_market", "read_matrix_market",
    "write_matrix_market", "ExperimentConfig", "generate_unit_circle_shifts",
    "run_experiment", "write_report",
}


def test_top_level_names_are_the_entry_points():
    """The package exports the documented entry points, each the object of
    its own module, and nothing else: the Lanczos stream and the scalar
    recursions are imported from their modules."""
    assert set(resolvquad.__all__) == ENTRY_POINTS
    namespace = {}
    exec("from resolvquad import *", namespace)
    assert set(namespace) - {"__builtins__"} == ENTRY_POINTS
    for name in ENTRY_POINTS - {"__version__"}:
        obj = namespace[name]
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    for name in ("LanczosState", "lanczos_init", "lanczos_step",
                 "shift_state_init", "shift_state_update", "EstimatorState",
                 "bridge_entry", "corner_update", "givens"):
        assert not hasattr(resolvquad, name)


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
    is the bits of ``csr.dot`` on the matrix's CSR (for a real matrix and a
    complex vector, on the ``complex128`` CSR with the same entries),
    whatever the vector's dtype and strides and the CSR's index dtype.  A
    scipy release that moves the private kernel fails the import, one that
    changes what ``csr.dot`` runs fails here."""
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
    csr = a._csr
    if real and x_kind == "complex128":
        csr = sp.csr_matrix((csr.data.astype(np.complex128), csr.indices,
                             csr.indptr), shape=csr.shape)
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
    """A real matrix gives a float64 dense copy without copying its values
    to complex128; a complex Hermitian matrix gives a complex128 one."""
    real = SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, 8, real=True))
    dense = real.to_dense()
    assert dense.dtype == np.float64
    assert "_complex_data" not in vars(real)
    assert np.array_equal(dense, real._csr.toarray())
    cplx = SparseHermitianMatrix.from_dense(random_hermitian_dense(rng, 8))
    assert cplx.to_dense().dtype == np.complex128


def test_from_coo_sums_duplicates():
    coo = sp.coo_matrix(([1.0, 2.0, 3.0], ([0, 0, 1], [1, 1, 0])),
                        shape=(2, 2))
    a = SparseHermitianMatrix.from_csr(coo.tocsr())
    assert np.allclose(a.to_dense(), [[0.0, 3.0], [3.0, 0.0]])


def test_csr_validation_rejects_bad_input():
    for data, indices, indptr in (
            ([1.0, 1.0], [0, 5], [0, 1, 2]),  # column out of range
            ([1.0, 1.0], [1, 0], [0, 2, 2]),  # columns not increasing
            ([1.0, 1.0], [0, 1], [0, 2])):  # row_ptr wrong length
        with pytest.raises(ValueError):
            SparseHermitianMatrix.from_csr(
                sp.csr_matrix((data, indices, indptr), shape=(2, 2)))
    with pytest.raises(ValueError, match="square"):
        SparseHermitianMatrix.from_dense([1.0, 2.0])  # 1-D


@pytest.mark.parametrize("row_ptr,col_idx,values,shape", [
    ([0, 2, 2], [1, 1], [1.0, 1.0], (2, 2)),
    ([0, 2, 2], [1, 0], [1.0, 1.0], (2, 2)),
    ([0, 1, 2], [0, 1], [np.nan, 1.0], (2, 2)),
    ([0, 1, 2], [0, 1], [1.0, np.inf], (2, 2)),
    ([0, 1, 2], [0, 1], [1.0, complex(0.0, np.inf)], (2, 2)),
    ([0, 1, 2], [-1, 1], [1.0, 1.0], (2, 2)),
    ([0, 1, 2], [0, 1], [1.0, 1.0], (2, 3)),
], ids=["repeated-column", "unsorted-row", "nan", "inf", "complex-inf",
        "negative-column", "non-square"])
def test_from_csr_arrays_rejects(row_ptr, col_idx, values, shape):
    """``from_csr`` on a CSR built from these arrays raises."""
    with pytest.raises(ValueError):
        SparseHermitianMatrix.from_csr(
            sp.csr_matrix((values, col_idx, row_ptr), shape=shape))


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
    a = SparseHermitianMatrix.from_csr(
        sp.csr_matrix(([2.0], [1], [0, 0, 1, 1]), shape=(3, 3)))
    x = np.array([1.0, 10.0, 100.0])
    assert np.array_equal(a.matvec(x), [0.0, 20.0, 0.0])


def test_frobenius_norm(rng):
    dense = random_hermitian_dense(rng, 12)
    a = SparseHermitianMatrix.from_dense(dense)
    assert a.frobenius_norm == pytest.approx(np.linalg.norm(dense), rel=1e-14)


def test_real_matrix_products(rng):
    """A real matrix keeps a float64 CSR: a real vector gives a float64
    product; a complex vector gives the product of the complex128 matrix
    with the same entries, bitwise."""
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


@pytest.mark.parametrize("index64", [False, True], ids=["int32", "int64"])
def test_complex_product_of_a_real_matrix_copies_no_index_array(
        rng, monkeypatch, index64):
    """The first complex product of a real matrix copies its values to
    ``complex128`` and hands the kernel the matrix's own index arrays,
    whatever their dtype."""
    a = SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, 50, real=True))
    if index64:
        a = _with_int64_indices(a)
    kernel = core.csr_matvec
    seen = []

    def spy(n_row, n_col, indptr, indices, data, x, y):
        seen.append((indptr, indices, data))
        kernel(n_row, n_col, indptr, indices, data, x, y)

    monkeypatch.setattr(core, "csr_matvec", spy)
    a.matvec(random_vector(rng, 50))
    [(indptr, indices, data)] = seen
    assert indptr is a._csr.indptr and indices is a._csr.indices
    assert data.dtype == np.complex128
    assert np.array_equal(data, a._csr.data)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def banded_products(draw):
    """A Hermitian matrix whose entries lie on 1-9 diagonals, some of them
    far from the main one, with cells of the band left unstored (and
    stored zeros), and a vector with signed zeros among its entries."""
    n = draw(st.integers(1, 40))
    real = draw(st.booleans())
    upper = sorted(draw(st.sets(st.integers(1, max(1, n - 1)), max_size=4)))
    upper = [k for k in upper if k < n]
    diagonal = draw(st.booleans()) or not upper
    part = _finite if real else st.complex_numbers(allow_nan=False,
                                                   allow_infinity=False)
    cell = st.one_of(st.none(), part)
    rows, cols, vals = [], [], []
    for i in range(n):
        d = draw(st.one_of(st.none(), _finite)) if diagonal else None
        if d is not None:
            rows.append(i), cols.append(i), vals.append(d)
        for k in upper:
            if i + k < n and (a := draw(cell)) is not None:
                rows += [i, i + k]
                cols += [i + k, i]
                vals += [a, np.conj(a)]
    dtype = np.float64 if real else np.complex128
    csr = sp.csr_matrix((np.array(vals, dtype), (rows, cols)), shape=(n, n))
    if draw(st.booleans()):
        csr.indptr = csr.indptr.astype(np.int64)
        csr.indices = csr.indices.astype(np.int64)
    entry = st.one_of(st.sampled_from([0.0, -0.0]), _finite)
    x = np.array(draw(st.lists(entry, min_size=n, max_size=n)), np.float64)
    if draw(st.booleans()):
        imag = draw(st.lists(entry, min_size=n, max_size=n))
        x = x + 1j * np.array(imag, np.float64)
    return csr, x


@settings(max_examples=300, deadline=None)
@given(banded_products())
def test_dia_product_is_the_csr_product_bit_for_bit(problem):
    """A real matrix with a real vector takes the DIA kernel, and
    ``matvec`` gives the bits of ``csr_matvec`` on the same CSR: each row
    adds its products in ascending column order, and an unstored cell of
    the band adds a zero that moves no partial sum.  A complex matrix or a
    complex vector takes the CSR kernel (``complex128``).  The padding
    rule is lifted so that far diagonals qualify too."""
    csr, x = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_DIA_MAX_PADDING", math.inf)
        a = SparseHermitianMatrix.from_csr(csr)
        calls = _spy_on_kernels(mp)
        got = a.matvec(x)
    real = a.is_real and not np.iscomplexobj(x)
    assert calls == (DIA if real else CSR)
    ref = a._csr
    if got.dtype != ref.dtype:
        ref = sp.csr_matrix((ref.data.astype(got.dtype), ref.indices,
                             ref.indptr), shape=ref.shape)
    want = np.zeros(a.n, got.dtype)
    core.csr_matvec(a.n, a.n, ref.indptr, ref.indices, ref.data,
                    x.astype(got.dtype), want)
    assert got.tobytes() == want.tobytes()


def _spy_on_kernels(monkeypatch) -> dict:
    """Count the calls of each product kernel from ``matvec``."""
    calls = {"csr": 0, "dia": 0}
    for name, kernel in (("csr", core.csr_matvec), ("dia", core.dia_matvec)):
        def spy(*args, name=name, kernel=kernel):
            calls[name] += 1
            kernel(*args)
        monkeypatch.setattr(core, f"{name}_matvec", spy)
    return calls


def _kernels_of(monkeypatch, a, real_x: bool = True) -> dict:
    calls = _spy_on_kernels(monkeypatch)
    rng = np.random.default_rng(0)
    a.matvec(rng.standard_normal(a.n) if real_x else random_vector(rng, a.n))
    return calls


CSR, DIA = {"csr": 1, "dia": 0}, {"csr": 0, "dia": 1}


def _band(n: int, offsets) -> SparseHermitianMatrix:
    diags = [np.full(n - abs(k), -1.0 if k else 4.0) for k in offsets]
    return SparseHermitianMatrix.from_csr(
        sp.diags(diags, offsets, shape=(n, n), format="csr"))


@pytest.mark.parametrize("real_x", [True, False], ids=["real-x", "complex-x"])
def test_dense_matrix_keeps_the_csr_kernel(monkeypatch, rng, real_x):
    a = SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, 50, real=True))
    assert _kernels_of(monkeypatch, a, real_x) == CSR
    assert a._dia is None


@pytest.mark.parametrize("real_x", [True, False], ids=["real-x", "complex-x"])
def test_laplacian_in_budget_takes_the_dia_kernel(monkeypatch, real_x):
    """The 5-point Laplacian on a 30 x 30 grid: five diagonals, 2.7% of
    padding, a vector of 7.2 kB.  A complex vector of 14.4 kB takes the
    CSR kernel: only real products take the DIA kernel."""
    a = SparseHermitianMatrix.from_csr(laplacian(30))
    assert _kernels_of(monkeypatch, a, real_x) == (DIA if real_x else CSR)
    assert a._dia[0].tolist() == [-30, -1, 0, 1, 30]


def test_band_past_the_byte_budget_keeps_the_csr_kernel(monkeypatch):
    """The budget counts the real product vector's bytes: a real
    tridiagonal matrix with one row more than a real vector's budget allows
    keeps the CSR kernel, and one within it takes the DIA kernel for real
    vectors.  Complex vectors take the CSR kernel at every size, within
    half as many rows too."""
    budget = core._DIA_MAX_VECTOR_BYTES
    offsets = (-1, 0, 1)
    assert _kernels_of(monkeypatch, _band(budget // 8 + 1, offsets)) == CSR
    for n in (budget // 8, budget // 16, budget // 16 + 1):
        a = _band(n, offsets)
        assert _kernels_of(monkeypatch, a) == DIA
        assert _kernels_of(monkeypatch, a, real_x=False) == CSR


def test_band_with_too_much_padding_keeps_the_csr_kernel(monkeypatch):
    """A tridiagonal matrix of 10 rows pads its 28 entries by 2 cells
    (7%); one of 40 rows pads its 118 entries by 2 (1.7%)."""
    assert _kernels_of(monkeypatch, _band(10, (-1, 0, 1))) == CSR
    assert _kernels_of(monkeypatch, _band(40, (-1, 0, 1))) == DIA
    # two far diagonals: 3 n cells for n + 2 entries
    assert _kernels_of(monkeypatch, _band(40, (-39, 0, 39))) == CSR


@pytest.mark.parametrize("scale", [1e305, 1e307])
def test_both_kernels_give_the_drivers_the_same_overflow(monkeypatch, scale):
    """A padding cell of the DIA kernel turns a non-finite ``x_j`` into a
    NaN in a row that the CSR kernel leaves finite.  On the 30 x 30-grid
    5-point Laplacian scaled to ``scale``, where the Lanczos stream
    overflows at once and COCG or COCR converge or overflow, all four
    drivers give the same statuses, iterations, values and histories with
    either kernel.  The forced kernel runs the real Lanczos and MINRES
    products; the complex COCG and COCR products take the CSR kernel on
    both sides."""
    csr = laplacian(30) * scale
    v = np.random.default_rng(3).standard_normal(csr.shape[0])
    shifts = generate_unit_circle_shifts(8)
    runs = {}
    for kernel, budget in (("dia", core._DIA_MAX_VECTOR_BYTES), ("csr", 0)):
        with monkeypatch.context() as mp:
            mp.setattr(core, "_DIA_MAX_VECTOR_BYTES", budget)
            a = SparseHermitianMatrix.from_csr(csr.copy())
            calls = _spy_on_kernels(mp)
            runs[kernel] = []
            for run, used in ((run_quadratic_forms, kernel),
                              (minres_run, kernel), (cocg_run, "csr"),
                              (cocr_run, "csr")):
                calls.update(csr=0, dia=0)
                runs[kernel].append(
                    result_bits(run(a, v, shifts, keep_history=True)))
                assert calls[used] > 0 and sum(calls.values()) == calls[used]
    assert runs["dia"] == runs["csr"]
    statuses = {o[0] for _, outs in runs["csr"] for o in outs[:-1]}
    assert core.SolveStatus.OVERFLOW in statuses


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


def _nrm2(x) -> float:
    """BLAS ``nrm2``, the reference ``stable_norm`` agrees with."""
    return float(scipy.linalg.norm(x, check_finite=False))


# nrm2 sums in extended precision; stable_norm sums in ddot's few lanes, a
# chunk of 8192 parts at a time, and its error read at most 1 ulp at up to
# 2 10**5 parts of random data at any scale.
NORM_ULPS = 2


# 2**-1074 is the least subnormal, 2**1023 the greatest power of two
NORM_SCALES = (-1074, -1060, -1030, -1022, -1000, -700, -537, -520, -480,
               -300, 0, 300, 480, 511, 512, 700, 1000, 1022, 1023)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000, 10**5])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_stable_norm_agrees_with_blas_nrm2(n, real):
    """Within ``NORM_ULPS`` of ``nrm2`` at every scale from the least
    subnormal to the greatest power of two, and on vectors whose parts lie
    at two scales: ``2**-600`` beside ``2**-500``, whose squares all
    underflow, and ``2**600`` beside 1, whose sum of squares overflows.
    10**5 entries take the sum in chunks."""
    rng = np.random.default_rng(n)

    def vector(scale):
        x = np.ldexp(rng.uniform(-1.0, 1.0, n), scale)
        if not real:
            x = x + 1j * np.ldexp(rng.uniform(-1.0, 1.0, n), scale)
        return x

    half = np.arange(n) % 2 == 0
    mixed = [np.where(half, vector(-600), vector(-500)),
             np.where(half, vector(600), vector(0))]
    for x in [vector(scale) for scale in NORM_SCALES] + mixed:
        norm, reference = stable_norm(x), _nrm2(x)
        if math.isfinite(reference):
            assert abs(norm - reference) <= NORM_ULPS * math.ulp(reference)
        else:
            assert norm == reference


@pytest.mark.parametrize("scale", [0, -1000, 1000],
                         ids=["common", "underflow", "overflow"])
def test_stable_norm_keeps_every_ddot_on_the_calling_thread(monkeypatch,
                                                           scale):
    """No ``ddot`` is longer than the 10,000 entries that OpenBLAS's x86-64
    kernel runs on the calling thread, on the common and the scaled paths,
    so a norm of 10**5 entries leaves no BLAS worker thread spinning."""
    sizes = []
    vdot = np.vdot

    def spy(a, b):
        sizes.append(np.size(a))
        return vdot(a, b)

    x = np.ldexp(np.random.default_rng(5).uniform(-1.0, 1.0, 10**5), scale)
    monkeypatch.setattr(np, "vdot", spy)
    norm = stable_norm(x)
    monkeypatch.undo()
    assert abs(norm - _nrm2(x)) <= NORM_ULPS * math.ulp(norm)
    assert sizes and max(sizes) <= 10_000


SPECIAL_NORM_VECTORS = [
    [], [0.0], [0.0, -0.0, 0.0], [math.inf], [-math.inf], [math.nan],
    [math.inf, 1.0], [1.0, -math.inf], [math.nan, 1.0], [math.inf, math.nan],
    [math.nan, -math.inf], [math.inf, -math.inf], [1e308, 1e308, 1e308],
    [1e308, 1e308, 1e308, 1e308], [2.0 ** -1074, 0.0],
    [complex(math.inf, 0.0)], [complex(0.0, -math.inf)],
    [complex(math.nan, 1.0)], [complex(1.0, math.nan)],
    [complex(math.inf, math.nan)], [complex(-0.0, 0.0), 0j],
]


@pytest.mark.parametrize("values", SPECIAL_NORM_VECTORS, ids=repr)
def test_stable_norm_is_nrm2_on_zeros_infinities_and_nans(values):
    real = not any(isinstance(v, complex) for v in values)
    for dtype in (np.float64, np.complex128)[not real:]:
        x = np.array(values, dtype=dtype)
        assert repr(stable_norm(x)) == repr(_nrm2(x))


def test_import_leaves_scipy_linalg_unloaded():
    """The package imports no ``scipy.linalg``, which maps a second BLAS
    and starts one more thread in every process."""
    src = str(Path(resolvquad.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, resolvquad, resolvquad.harness; "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
