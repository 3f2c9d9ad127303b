"""Matrix Market coordinate-format reader/writer.

Reads the exchange files the benchmark matrices ship in and mirrors
``symmetric``/``hermitian`` storage to the full both-triangle CSR layout used
by the solvers.  A short header check keeps this package's rules (coordinate
format, a value field, no skew symmetry, a square matrix); the entries are
read by :func:`scipy.io.mmread`, which also takes gzipped files (by a
``.gz`` filename) and open text streams.

Mirroring rules:

* ``symmetric``  -> the strict lower triangle is copied to the upper triangle
  without conjugation.  A complex symmetric matrix is therefore flagged
  not-Hermitian unless its entries happen to be real.
* ``hermitian``  -> mirrored with conjugation.
* ``general``    -> taken as stored.
* ``skew-symmetric`` is rejected (cannot be Hermitian).

``real`` and ``integer`` fields give a real (``float64``) matrix; a
``complex`` field gives a real matrix too when every imaginary part is
zero.  Duplicate ``(i, j)`` entries are summed; ``%`` comment lines are
skipped.  An entry line with more tokens than its field needs is read
from its leading tokens: ``1 1 2.0 3.0`` in a ``real`` file is the entry
2.0.  Rejecting it would take a Python pass over every entry line.

The writer is :func:`scipy.io.mmwrite` on the matrix's CSR, in ``general``
storage.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import TextIO, Union

import scipy.io

from .core import SparseHermitianMatrix

__all__ = [
    "MatrixMarketError",
    "parse_matrix_market",
    "read_matrix_market",
    "write_matrix_market",
]

_FIELDS = {"real", "complex", "integer", "pattern"}
_SYMMETRIES = {"general", "symmetric", "hermitian", "skew-symmetric"}


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""


def _parse_header(line: str) -> None:
    """Reject a banner line this package cannot use."""
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"malformed header line: {line!r}")
    _, obj, fmt, fld, sym = (p.lower() for p in parts)
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise MatrixMarketError(f"unsupported format {fmt!r} (coordinate only)")
    if fld not in _FIELDS:
        raise MatrixMarketError(f"unknown field {fld!r}")
    if fld == "pattern":
        raise MatrixMarketError("pattern matrices carry no values")
    if sym not in _SYMMETRIES:
        raise MatrixMarketError(f"unknown symmetry {sym!r}")
    if sym == "skew-symmetric":
        raise MatrixMarketError("skew-symmetric matrices cannot be Hermitian")


# scipy's wording of a bad entry line -> this package's
_SCIPY_ERRORS = (
    ("index out of bounds", "entry index out of range"),
    ("Truncated file", "fewer entries than the size line declares"),
    ("Too many lines", "more entries than the size line declares"),
)


def _mmread(source) -> SparseHermitianMatrix:
    """Read entries with ``scipy.io.mmread`` once the header has passed.

    The triplets are released as soon as the CSR is built, before
    :meth:`SparseHermitianMatrix.from_csr` checks it, so that a load holds
    at most about two copies of the matrix at once: the triplets and the
    CSR inside ``tocsr``, then the CSR and its conjugate transpose in the
    Hermitian check.
    """
    try:
        coo = scipy.io.mmread(source)
    except ValueError as exc:
        message = str(exc)
        for theirs, ours in _SCIPY_ERRORS:
            if theirs in message:
                message = f"{ours} ({message})"
                break
        raise MatrixMarketError(message) from exc
    nrows, ncols = coo.shape
    if nrows != ncols:
        raise MatrixMarketError(f"matrix must be square, got {nrows}x{ncols}")
    csr = coo.tocsr()
    del coo
    return SparseHermitianMatrix.from_csr(csr)


def parse_matrix_market(stream: TextIO) -> SparseHermitianMatrix:
    """Parse an open text stream into a :class:`SparseHermitianMatrix`."""
    first = stream.readline()
    _parse_header(first)
    return _mmread(io.StringIO(first + stream.read()))


def read_matrix_market(path: Union[str, Path]) -> SparseHermitianMatrix:
    """Read a ``.mtx`` or ``.mtx.gz`` file."""
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rt") as fh:
        _parse_header(fh.readline())
    return _mmread(str(path))


def write_matrix_market(a: SparseHermitianMatrix, path: Union[str, Path]) -> None:
    """Write full (``general``) coordinate storage to a ``.mtx`` or
    ``.mtx.gz`` file; reading it back reproduces the CSR arrays exactly."""
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "wb") as fh:
        scipy.io.mmwrite(fh, a._csr, symmetry="general")
