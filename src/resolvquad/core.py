"""Vector kernels and the sparse Hermitian matrix container.

Conventions used throughout the package:

* scalars are Python ``complex`` (double precision); vectors are 1-D
  ``numpy.ndarray`` of dtype ``complex128``, or ``float64`` where the data
  is real,
* ``dot`` conjugates its first argument (``x^H y``); the transpose bilinear
  form ``x^T y`` needed by the complex-symmetric solvers is the separate
  kernel :func:`dot_unconjugated`,
* matrices are stored fully expanded (both triangles) in CSR so that the
  matrix-vector product has a fixed, run-to-run deterministic accumulation
  order (row-major, column-index ascending).

The dtype follows the data: a matrix whose entries are all real keeps
``float64`` values and a ``float64`` CSR, and its product with a real vector
is real.  Its product with a complex vector runs on a cached complex copy of
the values that shares the index arrays, so it costs what a complex matrix
costs.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "HERMITIAN_TOL",
    "SolveStatus",
    "NonFiniteError",
    "SparseHermitianMatrix",
    "dot",
    "dot_unconjugated",
    "norm",
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
# scalar/vector kernels
# ---------------------------------------------------------------------------

def _check_same_length(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"vector length mismatch: {x.shape} vs {y.shape}")


def dot(x: np.ndarray, y: np.ndarray) -> complex:
    """Hermitian inner product ``x^H y`` (conjugate-linear in ``x``)."""
    _check_same_length(x, y)
    return complex(np.vdot(x, y))


def dot_unconjugated(x: np.ndarray, y: np.ndarray) -> complex:
    """Transpose bilinear form ``x^T y`` (no conjugation)."""
    _check_same_length(x, y)
    return complex(np.dot(x, y))


def norm(x: np.ndarray) -> float:
    """Euclidean norm ``sqrt(real(x^H x))``, always a nonnegative real."""
    return float(np.linalg.norm(x))


def as_complex_vector(v: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Coerce to a contiguous complex128 1-D array (copying if needed)."""
    arr = np.ascontiguousarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# sparse Hermitian container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparseHermitianMatrix:
    """Square matrix in CSR with full (both-triangle) storage.

    The container is immutable after construction and safe to share across
    threads.  ``hermitian_verified`` records whether the entries passed the
    conjugate-symmetry check at ``HERMITIAN_TOL`` relative to the largest entry
    magnitude; ``is_real`` records whether every stored imaginary part is
    zero, in which case ``values`` and the CSR are ``float64`` (otherwise
    ``complex128``).  Solvers that require a Hermitian (or real symmetric)
    matrix check these flags instead of re-scanning the entries.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    is_real: bool
    hermitian_verified: bool
    max_asymmetry: float
    _csr: sp.csr_matrix = field(repr=False, compare=False)
    _fro_norm: float = field(repr=False, compare=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_csr_arrays(cls, n, row_ptr, col_idx, values) -> "SparseHermitianMatrix":
        row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
        col_idx = np.ascontiguousarray(col_idx, dtype=np.int64)
        values = _real_or_complex(values)
        _validate_csr(n, row_ptr, col_idx, values)
        csr = sp.csr_matrix((values, col_idx, row_ptr), shape=(n, n))
        verified, asym = hermitian_check_csr(csr)
        return cls(n=n, row_ptr=row_ptr, col_idx=col_idx, values=values,
                   is_real=bool(values.dtype == np.float64),
                   hermitian_verified=verified,
                   max_asymmetry=asym, _csr=csr,
                   _fro_norm=_frobenius_norm(values))

    @classmethod
    def from_coo(cls, n, rows, cols, values) -> "SparseHermitianMatrix":
        """Build from 0-based triplets; duplicate ``(i, j)`` entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = _real_or_complex(values)
        if rows.size and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError("triplet index out of range")
        coo = sp.coo_matrix((values, (rows, cols)), shape=(n, n))
        csr = coo.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls.from_csr_arrays(n, csr.indptr, csr.indices, csr.data)

    @classmethod
    def from_dense(cls, a) -> "SparseHermitianMatrix":
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        csr = sp.csr_matrix(a)
        csr.sort_indices()
        return cls.from_csr_arrays(a.shape[0], csr.indptr, csr.indices,
                                   csr.data)

    @classmethod
    def diagonal(cls, d) -> "SparseHermitianMatrix":
        d = np.asarray(d, dtype=np.complex128)
        n = d.size
        return cls.from_csr_arrays(n, np.arange(n + 1), np.arange(n), d)

    # -- queries -------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.values.size)

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
        """Dense ``complex128`` copy, the form the dense oracles work in."""
        return self._complex_csr.toarray()


def _real_or_complex(values) -> np.ndarray:
    """``values`` as a contiguous ``float64`` array when no entry has an
    imaginary part, as ``complex128`` otherwise."""
    values = np.asarray(values)
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


def _validate_csr(n, row_ptr, col_idx, values) -> None:
    if n < 0:
        raise ValueError("negative dimension")
    if row_ptr.shape != (n + 1,):
        raise ValueError("row_ptr must have length n+1")
    if row_ptr[0] != 0 or row_ptr[-1] != values.size or col_idx.size != values.size:
        raise ValueError("row_ptr endpoints inconsistent with nnz")
    if np.any(np.diff(row_ptr) < 0):
        raise ValueError("row_ptr must be nondecreasing")
    if values.size and (col_idx.min() < 0 or col_idx.max() >= n):
        raise ValueError("column index out of range")
    # strictly increasing column indices within each row
    if values.size:
        bad = np.zeros(values.size, dtype=bool)
        bad[1:] = np.diff(col_idx) <= 0
        starts = row_ptr[1:-1]
        bad[starts[starts < values.size]] = False  # a new row may restart anywhere
        if np.any(bad):
            raise ValueError("column indices must be strictly increasing within a row")
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValueError("matrix entries must be finite")


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
