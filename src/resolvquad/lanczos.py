"""Hermitian Lanczos iteration producing the Jacobi-matrix coefficients.

One :class:`LanczosState` owns the three-term recurrence for a fixed matrix
and starting vector and emits the real coefficient stream ``alpha_k``,
``beta_k`` that every solver in this package consumes.  Only the two active
basis vectors are retained, so memory stays O(n); no reorthogonalization is
performed (orthogonality loss shows up as delayed convergence, never as a
wrong limit for the quadratic-form recursions built on top).

The stream's dtype follows the data: ``float64`` when the matrix and the
starting vector are both real, ``complex128`` otherwise; the same code runs
for both.  A step writes into two basis buffers that trade places and one
block-sized scratch, so the matrix-vector product is the only array a step
allocates.

Each update ``u <- fl(u - fl(c x))`` runs over blocks of :data:`BLOCK`
``float64`` values through one block-sized scratch buffer, which stays in
cache between the product and the subtraction; elementwise ufuncs round on
a slice exactly as on the whole array, so the blocks change no bit.  A
vector of one block is updated in one call.  A complex vector is updated
and scaled through its ``float64`` view, where the real coefficient
multiplies both parts at once.  The reductions are
:func:`~resolvquad.core.blockwise_dot`'s: ``||v||`` and ``beta_k`` are
``sqrt(u . u)``, or ``sqrt(re . re + im . im)`` on the strided parts of a
complex ``u``, which is ``numpy.linalg.norm`` up to 10^4 entries.

``alpha`` is stored as ``real(u^H v)``: for complex Hermitian matrices the
numerically computed Rayleigh quotient picks up a spurious imaginary part
that would otherwise leak into every shifted recursion.

A stream that stops being finite raises :class:`NonFiniteError`; norms and
inner products run with numpy's floating-point warnings silenced, so that
exception is the only report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NonFiniteError, SparseHermitianMatrix, blockwise_dot

__all__ = [
    "BLOCK",
    "LanczosCoefficients",
    "LanczosState",
    "StepOutcome",
    "lanczos_init",
    "lanczos_step",
    "stream_vector",
]

# float64 values per block of the vector updates: the block's scratch stays
# in cache between the product and the subtraction.
BLOCK = 16384


@dataclass
class LanczosCoefficients:
    """Growing diagonal/off-diagonal sequences of the Jacobi matrix.

    ``alpha[j]`` is alpha_{j+1}; ``beta[j]`` is beta_{j+1} (> 0 whenever
    stored -- a vanishing beta terminates the iteration instead).
    """

    alpha: list = field(default_factory=list)
    beta: list = field(default_factory=list)


@dataclass
class StepOutcome:
    """How a step ended; what it emitted is the end of ``state.coeffs``."""

    invariant_subspace: bool


@dataclass
class LanczosState:
    """Single-owner iteration state; share the matrix, not the state.

    ``v_prev`` and ``v_curr`` are ``v_{k-1}`` and ``v_k``; their buffers are
    overwritten by later steps, so copy a basis vector to keep it.
    ``scratch`` holds one block of a vector update: ``min(BLOCK, m)``
    ``float64`` values, ``m`` the length of the stream's ``float64`` view;
    where it holds all ``m``, an update is one call.
    """

    a: SparseHermitianMatrix
    k: int
    v_prev: np.ndarray
    v_curr: np.ndarray
    u: np.ndarray
    scratch: np.ndarray = field(repr=False)
    coeffs: LanczosCoefficients
    vnorm2: float
    exhausted: bool = False


def stream_vector(a: SparseHermitianMatrix, v: np.ndarray) -> np.ndarray:
    """``v`` in the dtype of its stream on ``a``: ``float64`` when ``a`` and
    ``v`` are both real, ``complex128`` otherwise (no copy if it already is)."""
    v = np.asarray(v)
    if a.is_real and not (np.iscomplexobj(v) and np.any(v.imag)):
        return np.ascontiguousarray(v.real, dtype=np.float64)
    return np.ascontiguousarray(v, dtype=np.complex128)


def lanczos_init(a: SparseHermitianMatrix, v: np.ndarray) -> LanczosState:
    """Normalize ``v``, apply the matrix once, and record ``alpha_1``."""
    if not a.hermitian_verified:
        raise ValueError("matrix failed the Hermitian check; "
                         "inspect max_asymmetry")
    v = stream_vector(a, v)
    with np.errstate(all="ignore"):
        parts = (v,) if v.dtype == np.float64 else (v.real, v.imag)
        vn = math.sqrt(sum(blockwise_dot(np.dot, p, p) for p in parts))
        if vn == 0.0:
            raise ValueError("||v|| underflows" if np.any(v)
                             else "starting vector must be nonzero")
        if not math.isfinite(vn):
            raise NonFiniteError("||v|| is not finite")
        v1 = v / vn
        u = a.matvec(v1)
        alpha1 = float(blockwise_dot(np.vdot, u, v1).real)
    if not math.isfinite(alpha1):
        raise NonFiniteError("alpha_1 is not finite")
    coeffs = LanczosCoefficients(alpha=[alpha1], beta=[])
    return LanczosState(a=a, k=1, v_prev=np.zeros_like(v1), v_curr=v1, u=u,
                        scratch=np.empty(min(BLOCK, v1.view(np.float64).size)),
                        coeffs=coeffs, vnorm2=vn * vn)


def lanczos_step(state: LanczosState) -> StepOutcome:
    """Advance one step: append ``beta_k`` and ``alpha_{k+1}`` to ``coeffs``.

    Returns an invariant-subspace outcome when ``beta_k`` falls to the
    matrix's ``breakdown_floor`` (finite for every finite matrix); every
    quadratic-form value computed from the coefficients is exact from then on.

    ``v_{k+1}`` is written into the buffer of ``v_{k-1}``; afterwards
    ``v_prev`` is ``v_k``'s buffer and ``v_curr`` the one just written.
    """
    if state.exhausted:
        raise RuntimeError("iteration already hit an invariant subspace")
    k = state.k
    alpha_k = state.coeffs.alpha[-1]
    u, v_curr, scratch = state.u, state.v_curr, state.scratch
    with np.errstate(all="ignore"):
        # u <- u - alpha_k v_k, rounded as fl(u - fl(alpha_k v_k))
        _subtract_scaled(u, alpha_k, v_curr, scratch)
        parts = (u,) if u.dtype == np.float64 else (u.real, u.imag)
        beta_k = math.sqrt(sum(blockwise_dot(np.dot, p, p) for p in parts))
        if not math.isfinite(beta_k):
            raise NonFiniteError(f"beta_{k} is not finite")
        if beta_k <= state.a.breakdown_floor:
            state.exhausted = True
            return StepOutcome(invariant_subspace=True)
        v_next = state.v_prev
        if u.dtype == np.float64:
            np.divide(u, beta_k, out=v_next)
        else:
            # numpy divides a complex by a real as the product with
            # 1 / beta_k (Smith's algorithm with a zero ratio)
            np.multiply(u.view(np.float64), 1.0 / beta_k,
                        out=v_next.view(np.float64))
        u_next = state.a.matvec(v_next)
        _subtract_scaled(u_next, beta_k, v_curr, scratch)
        alpha_next = float(blockwise_dot(np.vdot, u_next, v_next).real)
    if not math.isfinite(alpha_next):
        raise NonFiniteError(f"alpha_{k + 1} is not finite")
    state.coeffs.beta.append(beta_k)
    state.coeffs.alpha.append(alpha_next)
    state.v_prev = v_curr
    state.v_curr = v_next
    state.u = u_next
    state.k = k + 1
    return StepOutcome(invariant_subspace=False)


def _subtract_scaled(u: np.ndarray, c: float, x: np.ndarray,
                     scratch: np.ndarray) -> None:
    """``u <- fl(u - fl(c x))`` in place, one block of ``scratch`` at a time;
    a vector of one block (``scratch`` as long as it) in one call.

    Runs on the ``float64`` views: for a complex ``x`` the real ``c`` scales
    both parts, which rounds as numpy's complex product does wherever ``u``
    holds no ``-0.0`` (a matrix-vector product never does).
    """
    u, x = u.view(np.float64), x.view(np.float64)
    n = u.size
    if n == scratch.size:
        np.subtract(u, np.multiply(c, x, out=scratch), out=u)
        return
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        part = np.multiply(c, x[start:stop], out=scratch[:stop - start])
        np.subtract(u[start:stop], part, out=u[start:stop])
