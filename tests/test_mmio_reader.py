"""The reader on top of ``scipy.io.mmread``: dtypes, gzip and hermitian
files value-exact against scipy, and scipy's errors as this package's."""

import gzip
import io

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from resolvquad.mmio import (
    MatrixMarketError,
    parse_matrix_market,
    read_matrix_market,
)


def laplacian_1d(n):
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1]).tocoo()


def complex_hermitian(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = (b + b.conj().T) / 2
    dense[np.abs(dense) < 0.5] = 0.0  # keep it sparse
    return dense


def write(path, matrix, symmetry, gz=False):
    opener = gzip.open if gz else open
    with opener(path, "wb") as fh:
        scipy.io.mmwrite(fh, matrix, symmetry=symmetry, precision=17)


@pytest.mark.parametrize("field,text", [
    ("real", "1 1 2.5\n2 1 -1.0\n"),
    ("integer", "1 1 2\n2 1 -1\n"),
    ("complex", "1 1 2.5 0.0\n2 1 -1.0 0.0\n"),
])
def test_real_entries_give_float64_storage(field, text):
    a = parse_matrix_market(io.StringIO(
        f"%%MatrixMarket matrix coordinate {field} symmetric\n2 2 2\n" + text))
    assert a.is_real and a.hermitian_verified
    assert a.values.dtype == np.float64
    assert a.matvec(np.ones(2)).dtype == np.float64


def test_complex_entries_keep_complex_storage():
    a = parse_matrix_market(io.StringIO(
        "%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n"
        "1 1 1.0 0.0\n2 1 0.5 0.25\n"))
    assert not a.is_real and a.values.dtype == np.complex128


@pytest.mark.parametrize("gz", [False, True])
def test_symmetric_file_matches_scipy(tmp_path, gz):
    path = tmp_path / ("lap.mtx.gz" if gz else "lap.mtx")
    write(path, sp.tril(laplacian_1d(9)).tocoo(), "symmetric", gz=gz)
    a = read_matrix_market(path)
    theirs = scipy.io.mmread(str(path)).toarray()
    assert a.is_real and a.values.dtype == theirs.dtype
    assert np.array_equal(a.to_dense(), theirs)


@pytest.mark.parametrize("gz", [False, True])
def test_hermitian_file_matches_scipy(tmp_path, rng, gz):
    dense = complex_hermitian(rng, 12)
    path = tmp_path / ("herm.mtx.gz" if gz else "herm.mtx")
    write(path, sp.coo_matrix(np.tril(dense)), "hermitian", gz=gz)
    a = read_matrix_market(path)
    theirs = scipy.io.mmread(str(path)).toarray()
    assert a.hermitian_verified and not a.is_real
    assert np.array_equal(a.to_dense(), theirs)
    assert np.array_equal(a.to_dense(), dense)


@pytest.mark.parametrize("body", ["1 1 abc\n", "1 1\n"])
def test_bad_entry_is_a_matrix_market_error(body):
    with pytest.raises(MatrixMarketError):
        parse_matrix_market(io.StringIO(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n" + body))


def test_gz_header_is_checked(tmp_path):
    path = tmp_path / "pattern.mtx.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
    with pytest.raises(MatrixMarketError, match="pattern"):
        read_matrix_market(path)


def test_extra_entry_token_is_ignored():
    """scipy reads an entry line from its leading tokens, so a token past
    the field is not an error (documented in ``mmio``); this pins that
    behaviour against a change in scipy."""
    a = parse_matrix_market(io.StringIO(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n"
        "1 1 2.0 3.0\n2 2 4.0\n"))
    assert np.array_equal(a.to_dense(), [[2.0, 0.0], [0.0, 4.0]])
