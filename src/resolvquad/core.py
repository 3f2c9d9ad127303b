"""The sparse Hermitian matrix container and the shared result records.

Conventions used throughout the package:

* scalars are Python ``complex`` (double precision); vectors are 1-D
  ``numpy.ndarray`` of dtype ``complex128``, or ``float64`` where the data
  is real,
* the inner product is ``x^H y``, conjugating its first argument
  (``numpy.vdot``); the complex-symmetric solvers also use the transpose
  bilinear form ``x^T y`` (``numpy.dot``); both are cast to Python
  ``complex`` before scalar arithmetic; they, and every sum of squares, go
  through :func:`blockwise_dot`, whose bits no BLAS thread count moves,
* matrices are stored fully expanded (both triangles) in one scipy CSR so
  that the matrix-vector product has a fixed, run-to-run deterministic
  accumulation order (row-major, column-index ascending),
* every product goes through :meth:`SparseHermitianMatrix.matvec`, which
  calls scipy's kernels without the dispatch of ``csr_matrix.dot``, one of
  three ways: ``dia_matvec`` on cached diagonals for a real product (a real
  matrix and a real vector) where the entries fill a few diagonals (at most
  5% of padding over ``nnz``) and the vector fits a cache-sized budget
  (``_DIA_MAX_VECTOR_BYTES``); otherwise ``csr_matvec``, on the whole CSR,
  or, where the vector passes ``_SPLIT_MIN_VECTOR_BYTES`` and the process
  may run on two cores, on two row ranges at once, one of them on the
  process's one worker thread (the split product); every way adds each
  row's products in ascending column order, so all give the same bits,
* a norm that must stay finite and nonzero at both ends of the double
  range (``||A||_F``, the COCG/COCR residuals) is :func:`stable_norm`:
  numpy alone, one :func:`blockwise_dot` sum of squares, and a power-of-two
  scaling only where that sum overflows or nears the underflow threshold.

The dtype follows the data: a matrix whose entries are all real keeps
``float64`` values and a ``float64`` CSR, and its product with a real vector
is real.  Its product with a complex vector runs on the CSR kernel, with a
cached complex copy of the values that shares the index arrays, so it costs
what a complex matrix costs.  Its dense copy (``to_dense``) keeps the CSR's
dtype.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import queue
import threading
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

from .error_estimate import history_estimates

__all__ = [
    "HAPPY_BREAKDOWN_RTOL",
    "HERMITIAN_TOL",
    "SolveStatus",
    "NonFiniteError",
    "SparseHermitianMatrix",
    "HistoryEntry",
    "HistoryColumns",
    "ShiftOutcome",
    "MethodResult",
]

# Relative asymmetry tolerance: unit round-off headroom.
HERMITIAN_TOL = 1e-12
# beta_k below this times ||A||_F terminates with an invariant subspace;
# an exact beta_k = 0 test never fires in floating point.
HAPPY_BREAKDOWN_RTOL = 1e-14


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
    threads: concurrent products share only the process's one worker
    thread, which runs the halves of split products (:meth:`matvec`) one at
    a time, in the order their callers hand them in, while each caller runs
    its own half.  ``hermitian_verified`` records whether the entries
    passed the conjugate-symmetry check at ``HERMITIAN_TOL`` relative to the
    largest entry magnitude; ``is_real`` records whether every stored
    imaginary part is zero, in which case the CSR is ``float64`` (otherwise
    ``complex128``).
    Solvers that require a Hermitian (or real symmetric) matrix check these
    flags instead of re-scanning the entries.  ``row_ptr``, ``col_idx`` and
    ``values`` are the CSR's own arrays, not copies.  The first products
    cache what :meth:`matvec` multiplies besides the CSR: a real matrix's
    values as ``complex128``, and its diagonals for the DIA kernel.

    :meth:`from_csr` puts every CSR it is given through the transpose
    check, :func:`hermitian_check_csr`.  Only the Matrix Market reader
    skips the transpose: a ``symmetric`` or ``hermitian`` file in which no
    cell was summed gets the same two values from
    :func:`mirrored_check_csr`.
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
        return cls._from_csr(csr, hermitian_check_csr)

    @classmethod
    def _from_csr(cls, csr: sp.csr_matrix, check) -> "SparseHermitianMatrix":
        """:meth:`from_csr`, with ``check(csr)`` giving ``(verified,
        max_asymmetry)`` once the values have their final dtype."""
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
        verified, asym = check(csr)
        return cls(hermitian_verified=verified, max_asymmetry=asym, _csr=csr,
                   _fro_norm=stable_norm(values))

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
        return cls.from_csr(
            sp.csr_matrix((d, np.arange(n), np.arange(n + 1)), shape=(n, n)))

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
    def breakdown_floor(self) -> float:
        """``HAPPY_BREAKDOWN_RTOL ||A||_F``: a Lanczos ``beta_k`` this small
        has vanished.  Finite for every finite matrix: where ``||A||_F``
        overflows it is the :func:`stable_norm` of ``RTOL A``."""
        if math.isfinite(self._fro_norm):
            return HAPPY_BREAKDOWN_RTOL * self._fro_norm
        return stable_norm(HAPPY_BREAKDOWN_RTOL * self.values)

    @functools.cached_property
    def _complex_data(self) -> np.ndarray:
        """The CSR's values as ``complex128``; a real matrix copies them on
        the first complex product, and its index arrays serve both."""
        return self._csr.data.astype(np.complex128, copy=False)

    @functools.cached_property
    def _dia(self):
        """``(offsets, diags)`` of a real matrix whose real products take
        the DIA kernel (:func:`_diagonals`), else ``None``; a complex
        matrix's products all take the CSR kernel."""
        return _diagonals(self._csr) if self.is_real else None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = A x`` with row-major, index-ascending accumulation.

        The product is ``float64`` when the matrix and ``x`` are both real,
        ``complex128`` otherwise.  It calls scipy's private kernels on a
        zeroed ``y``, without the dispatch of ``csr_matrix.dot``, which
        costs as much as a kernel at n ~ 10^3, one of three ways:

        * ``dia_matvec`` on the diagonals of a real matrix, cached by the
          first real product, where ``x`` is real too, the diagonals pad
          ``nnz`` by at most ``_DIA_MAX_PADDING`` and ``y`` has at most
          ``_DIA_MAX_VECTOR_BYTES`` (:func:`_diagonals`).  It loads no
          column index, which pays while the vectors stay in cache;
        * ``csr_matvec`` on the CSR otherwise, the call ``csr_matrix.dot``
          makes: for every complex product, and for a real one past the
          padding rule or the budget;
        * ``csr_matvec`` split in two, where ``y`` has more than
          ``_SPLIT_MIN_VECTOR_BYTES`` and ``os.sched_getaffinity`` (where
          the platform has it) gives at least two cores.  The rows split
          where ``row_ptr`` reaches ``nnz / 2``, and the kernel runs on
          each range, with slices of ``row_ptr`` and ``y`` and no copy:
          rows above on the process's one worker thread, started by the
          first split product (and again in a child after ``os.fork``),
          rows below on the calling thread.  scipy's kernel releases the
          GIL, so the two run at once; each zeroes its own slice of ``y``
          first.

        All three add row ``i``'s products in ascending column order to
        ``+0``.  A padding cell of the DIA kernel adds ``0 x_j = +-0``,
        which moves no partial sum since none is ever ``-0``, so all give
        scipy's CSR bits (``tests/test_core.py`` pins them).  A non-finite
        ``x`` is where they part: on the CSR kernel it reaches row ``i``
        only through a stored ``a_ij``, on the DIA kernel also through a
        padding cell, where ``0 inf`` makes the row NaN.  On the
        overflowing problems of the tests the four drivers end alike on
        both kernels.  ``matvec`` stays the one path to the product, which
        the benchmark's tracer wraps to count products.
        """
        x = np.asarray(x)
        n = self.n
        if x.shape != (n,):
            raise ValueError(f"dimension mismatch: matrix is {n}x{n}, "
                             f"vector has shape {x.shape}")
        csr = self._csr
        if x.dtype.kind == "c":
            dia, data = None, self._complex_data
        else:
            dia = self._dia
            data = csr.data if dia is None else dia[1]
        x = np.ascontiguousarray(x, dtype=data.dtype)
        if (dia is None and x.nbytes > _SPLIT_MIN_VECTOR_BYTES
                and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) > 1):
            return _split_product(csr.indptr, csr.indices, data, x)
        y = np.zeros(n, data.dtype)
        if dia is None:
            csr_matvec(n, n, csr.indptr, csr.indices, data, x, y)
        else:
            dia_matvec(n, n, dia[0].size, n, dia[0], data, x, y)
        return y

    def to_dense(self) -> np.ndarray:
        """Dense copy in the CSR's dtype: ``float64`` for a real matrix,
        ``complex128`` otherwise, the form the dense oracles work in."""
        return self._csr.toarray()


# The DIA kernel runs where its (n_diags, n) array is at most this share
# over nnz (cells inside the band that the CSR does not store, and the
# cells of each diagonal past the matrix's edge), which bounds its extra
# work and memory and keeps dense matrices on the CSR kernel ...
_DIA_MAX_PADDING = 0.05
# ... and where the real product vector has at most this many bytes.  On
# a 2-core Xeon with 2 MB of L2 per core, scripts/dia_crossover.py found
# DIA 12-56% (mostly 28-45%) faster on real 5-point Laplacians up to
# 0.72 MB and the crossover near 1 MB; a quarter of it leaves room for
# smaller caches.  Complex products stay on CSR: DIA took 0.94-1.01 of its
# time at grid 32 and 0.88-0.90 at grid 100, which no workload shows.
_DIA_MAX_VECTOR_BYTES = 1 << 18
# A CSR product splits over two threads where its vector has more than
# this many bytes.  The split product alone already gains from about
# 0.3 MB (scripts/dia_crossover.py), but in a solver's step the worker's
# wake-up and the half of y that the other core's cache holds cost about
# as much as the split saves up to about 1 MB: on a 2-core Xeon with 2 MB
# of L2 per core, Lanczos and MINRES runs on 5-point Laplacians took 1.05
# to 1.24 times as long a step at 0.5 MB, 0.92 to 1.05 times at 0.8 to
# 0.9 MB, and 0.78 to 0.95 times from 1.05 MB.
_SPLIT_MIN_VECTOR_BYTES = 1 << 20


def _split_product(indptr, indices, data, x) -> np.ndarray:
    """The CSR product in two row ranges split where ``indptr`` reaches
    ``nnz / 2``: rows above on the worker thread, rows below here."""
    n = x.size
    y = np.empty(n, data.dtype)
    rows = (indptr, indices, data, x, y)
    # the first row end at floor(nnz / 2) or past it; a value of indptr's
    # own dtype, so that searchsorted makes no converted copy of indptr
    mid = int(np.searchsorted(indptr, indptr[-1] // 2))
    done, failed = threading.Lock(), []
    done.acquire()
    _worker_tasks().put((done, failed, (0, mid, *rows)))
    _row_product(mid, n, *rows)
    done.acquire()  # released by the worker once its rows are in y
    if failed:
        raise failed[0]
    return y


def _row_product(lo: int, hi: int, indptr, indices, data, x, y) -> None:
    """Rows ``lo:hi`` of the CSR product into ``y[lo:hi]``, zeroed first."""
    y[lo:hi] = 0
    csr_matvec(hi - lo, x.size, indptr[lo:hi + 1], indices, data, x,
               y[lo:hi])


# The process's one split-product worker, (pid, task queue), started by the
# first split product; a child made by os.fork() starts its own.
_worker = None
_worker_lock = threading.Lock()


def _worker_tasks() -> queue.SimpleQueue:
    """The task queue of this process's worker, started if it has none."""
    global _worker
    pid = os.getpid()
    with _worker_lock:
        if _worker is None or _worker[0] != pid:
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), daemon=True,
                             name="resolvquad-matvec").start()
            _worker = (pid, tasks)
        return _worker[1]


def _serve(tasks: queue.SimpleQueue) -> None:
    """Run each ``(done, failed, rows)`` task's rows, keep what they raise
    in ``failed`` for the caller, and release ``done``."""
    while True:
        done, failed, rows = tasks.get()
        try:
            _row_product(*rows)
        except BaseException as exc:
            failed.append(exc)
        # keep no array alive while waiting: the last task's matrix would
        # otherwise outlive its run
        del rows
        done.release()


def _diagonals(csr: sp.csr_matrix):
    """``(offsets, diags)`` of ``csr`` in scipy's DIA layout, where
    ``diags[d, j]`` is the entry ``(j - offsets[d], j)`` and ``offsets``
    ascend; ``None`` where the vector of ``n`` entries of the CSR's dtype
    passes ``_DIA_MAX_VECTOR_BYTES`` or the ``(n_diags, n)`` array passes
    ``nnz`` by more than ``_DIA_MAX_PADDING``."""
    n = csr.shape[0]
    if n * csr.dtype.itemsize > _DIA_MAX_VECTOR_BYTES:
        return None
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    shifted = csr.indices - rows + n  # offset + n, in [1, 2n - 1]
    present = np.bincount(shifted, minlength=2 * n) > 0
    offsets = np.flatnonzero(present) - n
    if offsets.size * n > (1.0 + _DIA_MAX_PADDING) * csr.nnz:
        return None
    diags = np.zeros((offsets.size, n), csr.dtype)
    diags[np.cumsum(present)[shifted] - 1, csr.indices] = csr.data
    return offsets.astype(csr.indices.dtype), diags


def _real_or_complex(values: np.ndarray) -> np.ndarray:
    """``values`` as a contiguous ``float64`` array when no entry has an
    imaginary part, as ``complex128`` otherwise."""
    if np.iscomplexobj(values) and np.any(values.imag):
        return np.ascontiguousarray(values, dtype=np.complex128)
    return np.ascontiguousarray(values.real, dtype=np.float64)


# In a finite sum of squares at least this large no underflowed square
# matters: each is off by at most 2**-1075, so n of them move the sum by at
# most n 2**-115 of itself, below the unit round-off for any n < 2**62.
_SUM_SQUARES_MIN = 2.0 ** -960

# OpenBLAS's x86-64 dot kernels run on the calling thread up to this many
# entries.  A longer call splits its sum over the BLAS worker threads, so
# its bits depend on their count, and the workers then spin on a core for
# about 0.1 s waiting for more work, which slows whatever runs next.
_ONE_CALL_MAX = 10_000
_DOT_CHUNK = 8192  # entries per call of a longer reduction


def blockwise_dot(op, x: np.ndarray, y: np.ndarray):
    """``op(x, y)`` of two 1-D arrays of one length, contiguous or strided,
    for ``op`` ``numpy.dot`` or ``numpy.vdot``, with bits that no BLAS
    thread count moves: the one call up to ``_ONE_CALL_MAX`` entries, else
    the sum in index order, as Python scalars (which raise no
    floating-point warning), of ``op`` on consecutive chunks of
    ``_DOT_CHUNK`` entries."""
    n = x.size
    if n <= _ONE_CALL_MAX:
        return op(x, y)
    total = op(x[:_DOT_CHUNK], y[:_DOT_CHUNK]).item()
    for start in range(_DOT_CHUNK, n, _DOT_CHUNK):
        stop = start + _DOT_CHUNK
        total += op(x[start:stop], y[start:stop]).item()
    return total


def stable_norm(values: np.ndarray) -> float:
    """``||values||_2`` of a ``float64`` or ``complex128`` array, finite and
    nonzero wherever the norm is, at both ends of the range.  The matrix's
    Frobenius norm, and the COCG/COCR residual norms.

    The common path is ``sqrt(x . x)`` over the real parts ``x`` of the
    entries (the ``float64`` view of a complex array), summed by
    :func:`blockwise_dot` with ``numpy.vdot``, so no BLAS thread other than
    the caller's runs.  It is taken while the sum is finite and at least
    ``_SUM_SQUARES_MIN``.  Otherwise, at the ends of the range, the parts
    are first multiplied by ``2**-e``, ``e`` the exponent of ``max |x_i|``,
    which is exact, and the norm is scaled back (Blue, ACM TOMS 4, 1978).
    A ``nan`` entry gives ``nan``, else an infinite one ``inf``, as BLAS
    ``nrm2`` does.  Neither the sum nor ``np.vdot`` raises a floating-point
    warning, so it needs no ``np.errstate``.
    """
    if values.dtype.kind == "c":
        values = np.ascontiguousarray(values, np.complex128).view(np.float64)
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    total = blockwise_dot(np.vdot, x, x)
    if _SUM_SQUARES_MIN <= total < math.inf:
        return math.sqrt(total)
    peak = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < peak < math.inf:
        return peak  # zero or no entries, inf, or nan
    e = math.frexp(peak)[1]
    with np.errstate(under="ignore"):
        scaled = np.ldexp(x, -e)
    try:
        return math.ldexp(math.sqrt(blockwise_dot(np.vdot, scaled, scaled)), e)
    except OverflowError:
        return math.inf


def hermitian_check_csr(csr: sp.csr_matrix):
    """Return ``(verified, max_asymmetry)`` for a canonical scipy CSR matrix.

    ``max_asymmetry`` is ``max |a_ij - conj(a_ji)|`` over the stored
    entries, a missing partner counting as zero, and ``verified`` is
    ``max_asymmetry <= HERMITIAN_TOL * max |a_ij|``: bit for bit
    ``max |(A - A^H).data|``, without scipy's temporaries.  ``A^H`` is
    formed once, as the arrays of ``csr.tocsc()`` read as a CSR and
    conjugated in place.  When its pattern is ``csr``'s, entry ``k`` of one
    is the partner of entry ``k`` of the other and both maxima are reduced
    in chunks, so the check holds one copy of the matrix and chunk-sized
    temporaries.  Otherwise scipy subtracts the two CSRs.

    It checks every CSR given to :meth:`SparseHermitianMatrix.from_csr`.
    The Matrix Market reader runs it on ``general`` files and on mirrored
    files in which a cell was summed, and :func:`mirrored_check_csr` on the
    other mirrored files.
    """
    if csr.nnz == 0:
        return True, 0.0
    t = csr.tocsc()  # its arrays are the CSR arrays of A^T
    if np.iscomplexobj(t.data):
        np.conjugate(t.data, out=t.data)
    if (np.array_equal(csr.indptr, t.indptr)
            and np.array_equal(csr.indices, t.indices)):
        asym = _max_abs(csr.data, t.data)
    else:
        herm = sp.csr_matrix((t.data, t.indices, t.indptr), shape=csr.shape)
        asym = _max_abs((csr - herm).data)
    scale_ = _max_abs(csr.data)
    return bool(asym <= HERMITIAN_TOL * scale_), asym


def mirrored_check_csr(csr: sp.csr_matrix, conjugated: bool):
    """:func:`hermitian_check_csr` of a CSR mirrored from one triangle with
    no cell summed, without the transpose.

    Each stored off-diagonal entry of ``csr`` sits beside its mirror: its
    exact conjugate when ``conjugated`` (``hermitian`` storage), its exact
    copy otherwise (``symmetric``).  So ``a_ij - conj(a_ji)`` is zero for a
    real matrix; it is ``a_ij - conj(a_ij)`` at every entry of complex
    ``symmetric`` storage, and zero off the diagonal of ``hermitian``
    storage.  The maxima are :func:`_max_abs`'s, as in the transpose check,
    so both values are bit for bit the ones it gives.
    """
    values = csr.data
    if not np.iscomplexobj(values):
        return True, 0.0
    stored = csr.diagonal() if conjugated else values
    asym = _max_abs(stored, stored.conjugate())
    return bool(asym <= HERMITIAN_TOL * _max_abs(values)), asym


_CHUNK = 1 << 16  # entries per temporary in _max_abs


def _max_abs(values: np.ndarray, minus: Optional[np.ndarray] = None) -> float:
    """``max |values - minus|`` (``max |values|`` without ``minus``), 0.0
    for no entries, with temporaries of at most ``_CHUNK`` entries.  A
    difference or modulus past the overflow threshold is ``inf``."""
    peaks = [0.0]
    with np.errstate(over="ignore"):
        for start in range(0, values.size, _CHUNK):
            part = values[start:start + _CHUNK]
            if minus is not None:
                part = part - minus[start:start + _CHUNK]
            peaks.append(np.abs(part).max())
    return float(np.max(peaks))


# ---------------------------------------------------------------------------
# shared per-shift result records
# ---------------------------------------------------------------------------

@dataclass
class HistoryEntry:
    """One (shift, iteration) row of a convergence history.

    ``mu``/``nu`` are the lag-``d`` error estimates for this iteration,
    derived from the recorded history; ``None`` where iteration ``k + d``
    was never recorded, unless the run ended on an invariant subspace.
    ``pi`` is the COCG/COCR collinearity factor, ``None`` for other methods.
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
    pi: Optional[complex] = None


_STATUSES = tuple(SolveStatus)
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}
_ESTIMATES = ("nu", "mu", "g_abs", "h_abs")


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts, dtype=dtype) if parts else np.empty(0, dtype)


class HistoryColumns:
    """The convergence history of one driver run, recorded as columns.

    Each accepted iteration adds whole arrays over the shifts it advanced:
    ``value`` and, when the run has them, ``rel_err``, ``residual``, the
    COCG/COCR ``pi`` and the Lanczos pivot ``delta``.  How each shift ended
    is only in its :class:`ShiftOutcome`: :meth:`columns` derives the status
    cells from the finished :attr:`outcomes`.  It derives the lag-``d``
    estimates ``nu``, ``mu``, ``g_abs`` and ``h_abs`` from the recorded
    values too (:func:`~resolvquad.error_estimate.history_estimates`), with
    the Lanczos :attr:`stream` for ``mu`` and the :attr:`exact` shifts.  A
    NaN estimate reads as ``None``, as it always has.

    :meth:`columns` assembles every row in ``(shift, k)`` order;
    :meth:`rows` builds each shift's :class:`HistoryEntry` list, ``pi``
    included, from them on first use, for :attr:`ShiftOutcome.history`.
    """

    def __init__(self, z: np.ndarray, lag: int):
        self.z = z
        self.lag = lag
        # the Lanczos stream's (alpha, beta, vnorm2); None for other methods
        self.stream: Optional[tuple] = None
        # the shifts whose last value is exact: an invariant subspace
        self.exact = np.empty(0, np.intp)
        self.outcomes: list = []  # every shift's ShiftOutcome, when finished
        # per accepted iteration: (k, shifts, value, rel_err, residual, pi,
        # delta)
        self._accepted: list = []
        self._rows: Optional[list] = None

    def accept(self, k: int, shifts: np.ndarray, value: np.ndarray,
               rel_err=None, residual=None, pi=None, delta=None) -> None:
        """Record iteration ``k`` of ``shifts``; the arrays are kept, not
        copied, so a driver hands in arrays it no longer writes to."""
        self._accepted.append((k, shifts, value, rel_err, residual, pi,
                               delta))

    def columns(self) -> dict:
        """Every row as arrays in ``(shift, k)`` order.

        ``shift`` is 0-based; ``status`` holds codes into
        ``tuple(SolveStatus)``; ``value`` and each float column carry a
        ``has_*`` mask of the cells that hold a number (``None`` in a
        :class:`HistoryEntry`).  Each shift's final status goes on its last
        row.  A Lanczos shift whose outcome iteration is past its last
        accepted row (a breakdown or an overflow) first gets a row of its
        own: that iteration, the last accepted value and no estimate.
        """
        blocks = self._accepted
        sizes = [b[1].size for b in blocks]
        cols = {"k": np.repeat(np.array([b[0] for b in blocks], np.int64),
                               sizes),
                "shift": _concat([b[1] for b in blocks], np.intp)}
        for j, name, dtype in ((2, "value", np.complex128),
                               (3, "rel_err", np.float64),
                               (4, "residual", np.float64),
                               (5, "pi", np.complex128)):
            parts = [b[j] for b in blocks]
            cols[name] = _concat([np.zeros(n) if p is None else p
                                  for p, n in zip(parts, sizes)], dtype)
            cols["has_" + name] = np.repeat([p is not None for p in parts],
                                            sizes).astype(bool)
        # blocks come in k order, a shift once each: stable keeps k order
        order = np.argsort(cols["shift"], kind="stable")
        cols = {name: col[order] for name, col in cols.items()}
        lanczos = None
        if self.stream is not None:
            delta = _concat([b[6] for b in blocks], np.complex128)
            lanczos = (self.z, delta[order], *self.stream)
        estimates = history_estimates(
            self.lag, cols["shift"], cols["k"], cols["value"], self.exact,
            lanczos)
        for name, est in zip(_ESTIMATES, estimates):
            cols[name] = est
            cols["has_" + name] = ~np.isnan(est)
        out = self.outcomes
        # rows run k = 1, 2, ...: a shift's row count is its last k
        count = np.bincount(cols["shift"], minlength=len(out))
        own = ([i for i, o in enumerate(out) if o.iterations > count[i]]
               if self.stream is not None else [])
        if own:
            new = {"k": [out[i].iterations for i in own], "shift": own,
                   "value": [out[i].value or 0j for i in own],
                   "has_value": [out[i].value is not None for i in own]}
            at = np.cumsum(count)[own]
            cols = {name: np.insert(col, at, new.get(name, 0))
                    for name, col in cols.items()}
        last = np.flatnonzero(np.diff(cols["shift"], append=-1))
        cols["status"] = status = np.full(
            cols["k"].size, _STATUS_CODE[SolveStatus.ACTIVE], np.int8)
        status[last] = np.array([_STATUS_CODE[o.status] for o in out],
                                np.int8)[cols["shift"][last]]
        return cols

    def rows(self, i: int) -> list:
        """Shift ``i``'s :class:`HistoryEntry` rows, in iteration order."""
        if self._rows is None:
            cols = self.columns()
            cells = [cols["k"].tolist(), _or_none(cols, "value"),
                     np.array(_STATUSES, dtype=object)[cols["status"]]
                     .tolist()]
            # the optional cells, mu to pi, in the order of HistoryEntry
            cells += [_or_none(cols, f.name) for f in fields(HistoryEntry)[3:]]
            self._rows = [list(map(HistoryEntry, *(c[a:b] for c in cells)))
                          for a, b in _bounds(cols["shift"], self.z.size)]
        return self._rows[i]


def _or_none(cols: dict, name: str) -> list:
    """Column ``name`` as Python scalars, ``None`` where it holds none."""
    out = cols[name].astype(object)
    out[~cols["has_" + name]] = None
    return out.tolist()


def _bounds(shift: np.ndarray, m: int):
    """``(start, stop)`` of each shift's rows in a shift-sorted column."""
    edges = np.searchsorted(shift, np.arange(m + 1)).tolist()
    return zip(edges[:-1], edges[1:])


@dataclass
class ShiftOutcome:
    """Final state of one shift after a solver run.

    ``history`` is the shift's rows of the run's :class:`HistoryColumns`,
    built when first read; ``None`` when the run kept no history.
    """

    z: complex
    value: Optional[complex]
    iterations: int
    status: SolveStatus
    residual_norm: Optional[float] = None  # MINRES diagnostic ||r0|| |f_{k+1}|
    index: int = 0  # position in the run's shift list
    recorded: Optional[HistoryColumns] = field(default=None, repr=False,
                                               compare=False)

    @property
    def history(self) -> Optional[list]:
        if self.recorded is None:
            return None
        return self.recorded.rows(self.index)


@dataclass
class MethodResult:
    """Per-shift outcomes of one method over one shift set."""

    method: str
    shifts: list
    iterations: int  # Lanczos-stream iterations actually performed
    history: Optional[HistoryColumns] = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return all(s.status is SolveStatus.CONVERGED for s in self.shifts)

    @property
    def iterations_to_convergence(self) -> Optional[int]:
        """Iteration count at which the last shift converged, if all did."""
        if not self.converged:
            return None
        return max(s.iterations for s in self.shifts)

