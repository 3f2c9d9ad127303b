"""Matrix Market coordinate-format reader/writer.

Reads the exchange files the benchmark matrices ship in and mirrors
``symmetric``/``hermitian`` storage to the full both-triangle CSR layout used
by the solvers.  A short header check keeps this package's rules (coordinate
format, a value field, no skew symmetry, a square matrix); the entries are
read by :func:`scipy.io.mmread`, which also takes gzipped files (by a
``.gz`` filename) and open text streams.

Mirroring rules:

* ``symmetric``  -> each off-diagonal entry is copied to its mirror cell
  without conjugation.  A complex symmetric matrix is therefore flagged
  not-Hermitian unless its entries happen to be real.
* ``hermitian``  -> mirrored with conjugation.  A diagonal entry keeps its
  imaginary part, and twice that part is its ``max_asymmetry``.
* ``general``    -> taken as stored.
* ``skew-symmetric`` is rejected (cannot be Hermitian).

A mirrored file whose every cell appears once, in either triangle, holds
each off-diagonal entry beside its exact mirror, so the mirroring settles
the Hermitian check: its two values come in closed form
(:func:`~resolvquad.core.mirrored_check_csr`), without transposing the
matrix.  A ``general`` file, and a mirrored file in which a cell was summed
(a duplicate, or a cell stored in both triangles), go through the
transpose check (:func:`~resolvquad.core.hermitian_check_csr`).  Both give
the same ``hermitian_verified`` and ``max_asymmetry``, bit for bit.

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

import functools
import gzip
import io
from pathlib import Path
from typing import TextIO, Union

import scipy.io

from .core import SparseHermitianMatrix, mirrored_check_csr

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


def _parse_header(line: str) -> str:
    """Reject a banner line this package cannot use; return its symmetry."""
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
    return sym


# scipy's wording of a bad entry line -> this package's
_SCIPY_ERRORS = (
    ("index out of bounds", "entry index out of range"),
    ("Truncated file", "fewer entries than the size line declares"),
    ("Too many lines", "more entries than the size line declares"),
)


def _mmread(source, symmetry: str) -> SparseHermitianMatrix:
    """Read entries with ``scipy.io.mmread`` once the header has passed.

    ``mmread`` mirrors ``symmetric`` and ``hermitian`` storage into its
    triplets, and ``tocsr`` sums the cells they repeat.  When the CSR holds
    as many entries as the triplets, no cell was summed and
    :func:`~resolvquad.core.mirrored_check_csr` gives the Hermitian check's
    values; otherwise the CSR goes through
    :meth:`SparseHermitianMatrix.from_csr` and its transpose check.  The
    triplets are released as soon as the CSR is built, so that a load
    holds at most about two copies of the matrix at once: the triplets and
    the CSR inside ``tocsr``, then, in the transpose check, the CSR and its
    conjugate transpose.
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
    if nrows != ncols or not nrows:
        raise MatrixMarketError(
            f"matrix must be square with n >= 1, got {nrows}x{ncols}")
    csr = coo.tocsr()
    mirrored = symmetry != "general" and csr.nnz == coo.nnz
    del coo
    if mirrored:
        check = functools.partial(mirrored_check_csr,
                                  conjugated=symmetry == "hermitian")
        return SparseHermitianMatrix._from_csr(csr, check)
    return SparseHermitianMatrix.from_csr(csr)


def parse_matrix_market(stream: TextIO) -> SparseHermitianMatrix:
    """Parse an open text stream into a :class:`SparseHermitianMatrix`."""
    first = stream.readline()
    symmetry = _parse_header(first)
    return _mmread(io.StringIO(first + stream.read()), symmetry)


def read_matrix_market(path: Union[str, Path]) -> SparseHermitianMatrix:
    """Read a ``.mtx`` or ``.mtx.gz`` file."""
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rt") as fh:
        symmetry = _parse_header(fh.readline())
    return _mmread(str(path), symmetry)


def write_matrix_market(a: SparseHermitianMatrix, path: Union[str, Path]) -> None:
    """Write full (``general``) coordinate storage to a ``.mtx`` or
    ``.mtx.gz`` file; reading it back reproduces the CSR arrays exactly."""
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "wb") as fh:
        scipy.io.mmwrite(fh, a._csr, symmetry="general")
