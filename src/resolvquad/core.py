"""The sparse Hermitian matrix container and the shared result records.

Conventions used throughout the package:

* scalars are Python ``complex`` (double precision); vectors are 1-D
  ``numpy.ndarray`` of dtype ``complex128``, or ``float64`` where the data
  is real,
* the inner product is ``x^H y``, conjugating its first argument
  (``numpy.vdot``); the complex-symmetric solvers also use the transpose
  bilinear form ``x^T y`` (``numpy.dot``); both are cast to Python
  ``complex`` before scalar arithmetic,
* matrices are stored fully expanded (both triangles) in one scipy CSR so
  that the matrix-vector product has a fixed, run-to-run deterministic
  accumulation order (row-major, column-index ascending).

The dtype follows the data: a matrix whose entries are all real keeps
``float64`` values and a ``float64`` CSR, and its product with a real vector
is real.  Its product with a complex vector runs on a cached complex copy of
the values that shares the index arrays, so it costs what a complex matrix
costs.  Its dense copy (``to_dense``) keeps the CSR's dtype.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

__all__ = [
    "HERMITIAN_TOL",
    "SolveStatus",
    "NonFiniteError",
    "SparseHermitianMatrix",
    "HistoryEntry",
    "ShiftOutcome",
    "MethodResult",
]

# Relative asymmetry tolerance: unit round-off headroom.
HERMITIAN_TOL = 1e-12


class NonFiniteError(ArithmeticError):
    """A vector recurrence produced NaN/Inf; the iteration cannot continue."""


class SolveStatus(enum.Enum):
    """Terminal (and transient) states of a per-shift scalar recursion."""

    ACTIVE = "active"
    CONVERGED = "converged"
    BREAKDOWN = "breakdown"
    OVERFLOW = "overflow"
    MAX_ITER = "max_iter"
    # statuses specific to the seeded collinear methods
    PI_ZERO = "pi_zero"
    SEED_BREAKDOWN = "seed_breakdown"

    @property
    def failed(self) -> bool:
        return self in (SolveStatus.BREAKDOWN, SolveStatus.OVERFLOW,
                        SolveStatus.SEED_BREAKDOWN, SolveStatus.PI_ZERO)


# ---------------------------------------------------------------------------
# sparse Hermitian container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SparseHermitianMatrix:
    """Square matrix held as one scipy CSR with full (both-triangle) storage.

    The container is immutable after construction and safe to share across
    threads.  ``hermitian_verified`` records whether the entries passed the
    conjugate-symmetry check at ``HERMITIAN_TOL`` relative to the largest entry
    magnitude; ``is_real`` records whether every stored imaginary part is
    zero, in which case the CSR is ``float64`` (otherwise ``complex128``).
    Solvers that require a Hermitian (or real symmetric) matrix check these
    flags instead of re-scanning the entries.  ``row_ptr``, ``col_idx`` and
    ``values`` are the CSR's own arrays, not copies.
    """

    hermitian_verified: bool
    max_asymmetry: float
    _csr: sp.csr_matrix = field(repr=False)
    _fro_norm: float = field(repr=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_csr(cls, csr: sp.csr_matrix) -> "SparseHermitianMatrix":
        """Check ``csr`` and keep it as the matrix's only copy of its entries.

        ``csr`` must be square, pass scipy's full format check, hold columns
        strictly increasing within each row and only finite entries;
        otherwise ``ValueError``.  Its values become ``float64`` when no
        entry has an imaginary part, ``complex128`` otherwise.
        """
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {csr.shape}")
        csr.check_format(full_check=True)
        if not csr.has_canonical_format:
            raise ValueError(
                "column indices must be strictly increasing within a row")
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix entries must be finite")
        values = _real_or_complex(csr.data)
        if values is not csr.data:
            csr = sp.csr_matrix((values, csr.indices, csr.indptr),
                                shape=csr.shape)
        verified, asym = hermitian_check_csr(csr)
        return cls(hermitian_verified=verified, max_asymmetry=asym, _csr=csr,
                   _fro_norm=_frobenius_norm(values))

    @classmethod
    def from_csr_arrays(cls, n, row_ptr, col_idx, values) -> "SparseHermitianMatrix":
        values = np.asarray(values)
        csr = sp.csr_matrix((values, col_idx, row_ptr), shape=(n, n))
        if csr.nnz != values.size:  # scipy drops entries past row_ptr[-1]
            raise ValueError("row_ptr endpoints inconsistent with nnz")
        return cls.from_csr(csr)

    @classmethod
    def from_coo(cls, n, rows, cols, values) -> "SparseHermitianMatrix":
        """Build from 0-based triplets; duplicate ``(i, j)`` entries are summed."""
        return cls.from_csr(
            sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr())

    @classmethod
    def from_dense(cls, a) -> "SparseHermitianMatrix":
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        return cls.from_csr(sp.csr_matrix(a))

    @classmethod
    def diagonal(cls, d) -> "SparseHermitianMatrix":
        d = np.asarray(d, dtype=np.complex128)
        n = d.size
        return cls.from_csr_arrays(n, np.arange(n + 1), np.arange(n), d)

    # -- queries -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def is_real(self) -> bool:
        return bool(self._csr.dtype == np.float64)

    @property
    def row_ptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def col_idx(self) -> np.ndarray:
        return self._csr.indices

    @property
    def values(self) -> np.ndarray:
        return self._csr.data

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def frobenius_norm(self) -> float:
        return self._fro_norm

    @functools.cached_property
    def _complex_csr(self) -> sp.csr_matrix:
        """The CSR with ``complex128`` values; a real matrix builds it on the
        first complex product and shares its index arrays with ``_csr``."""
        if not self.is_real:
            return self._csr
        csr = self._csr
        return sp.csr_matrix(
            (csr.data.astype(np.complex128), csr.indices, csr.indptr),
            shape=csr.shape, copy=False)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = A x`` with row-major, index-ascending accumulation.

        The product is ``float64`` when the matrix and ``x`` are both real,
        ``complex128`` otherwise.
        """
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"dimension mismatch: matrix is {self.n}x{self.n}, "
                             f"vector has shape {x.shape}")
        if self.is_real and not np.iscomplexobj(x):
            return self._csr.dot(x.astype(np.float64, copy=False))
        return self._complex_csr.dot(x.astype(np.complex128, copy=False))

    def to_dense(self) -> np.ndarray:
        """Dense copy in the CSR's dtype: ``float64`` for a real matrix,
        ``complex128`` otherwise, the form the dense oracles work in."""
        return self._csr.toarray()


def _real_or_complex(values: np.ndarray) -> np.ndarray:
    """``values`` as a contiguous ``float64`` array when no entry has an
    imaginary part, as ``complex128`` otherwise."""
    if np.iscomplexobj(values) and np.any(values.imag):
        return np.ascontiguousarray(values, dtype=np.complex128)
    return np.ascontiguousarray(values.real, dtype=np.float64)


def _frobenius_norm(values: np.ndarray) -> float:
    """``||values||_2`` that stays finite for entries near the overflow
    threshold: the plain sum of squares, rescaled by the largest magnitude
    only when it overflows."""
    if not values.size:
        return 0.0
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(values))
    if math.isinf(fro):
        big = float(np.abs(values).max())
        fro = big * float(np.linalg.norm(values / big))
    return fro


def hermitian_check_csr(csr: sp.csr_matrix):
    """Return ``(verified, max_asymmetry)`` for a scipy CSR matrix."""
    if csr.nnz == 0:
        return True, 0.0
    diff = (csr - csr.getH()).tocsr()
    asym = float(np.abs(diff.data).max()) if diff.nnz else 0.0
    scale_ = float(np.abs(csr.data).max())
    return bool(asym <= HERMITIAN_TOL * scale_), asym


# ---------------------------------------------------------------------------
# shared per-shift result records
# ---------------------------------------------------------------------------

@dataclass
class HistoryEntry:
    """One (shift, iteration) row of a convergence history.

    ``mu``/``nu`` are the lag-``d`` error estimates for this iteration; they
    are filled in retroactively once iteration ``k + d`` has completed, so
    recent rows of a live run carry ``None``.
    """

    k: int
    value: complex
    status: SolveStatus
    mu: Optional[float] = None
    nu: Optional[float] = None
    rel_err: Optional[float] = None
    g_abs: Optional[float] = None
    h_abs: Optional[float] = None
    residual: Optional[float] = None  # MINRES least-squares residual norm


@dataclass
class ShiftOutcome:
    """Final state of one shift after a solver run."""

    z: complex
    value: Optional[complex]
    iterations: int
    status: SolveStatus
    history: Optional[list] = None
    residual_norm: Optional[float] = None  # MINRES diagnostic ||r0|| |f_{k+1}|


@dataclass
class MethodResult:
    """Per-shift outcomes of one method over one shift set."""

    method: str
    shifts: list
    iterations: int  # Lanczos-stream iterations actually performed

    @property
    def converged(self) -> bool:
        return all(s.status is SolveStatus.CONVERGED for s in self.shifts)

    @property
    def iterations_to_convergence(self) -> Optional[int]:
        """Iteration count at which the last shift converged, if all did."""
        if not self.converged:
            return None
        return max(s.iterations for s in self.shifts)


def isfinite_scalar(x) -> bool:
    """Finite check that also works for duck-typed instrumented scalars."""
    try:
        c = complex(x)
    except (TypeError, ValueError):
        return False
    return math.isfinite(c.real) and math.isfinite(c.imag)
