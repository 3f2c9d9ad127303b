"""Shifted MINRES for quadratic forms via per-shift complex Givens rotations.

One Lanczos stream (complex Hermitian matrices allowed) feeds, per shift, a
QR factorization of the growing shifted tridiagonal maintained by two
retained rotations.  The accumulator update is

    M_k = M_{k-1} + ||r_0|| c_k f_k p_k,     f_{k+1} = -conj(s_k) f_k,

where ``p_k`` is the forward-substitution recurrence of the projected
search directions.  ``|f_k|`` is nonincreasing and ``||r_0|| |f_{k+1}|`` is
the residual norm of the implicit least-squares problem, exposed per shift
as a diagnostic.  The iterate itself is never formed.

Every shift advances in lockstep, so the two retained rotations ``(c, s)``,
``f``, ``p_{k-1}``, ``p_{k-2}`` and ``M_k`` are numpy arrays over the active
shifts (:class:`~resolvquad.shift_batch.ShiftBatch`) and one iteration is a
handful of array operations: the rotation that meets the known zero above
row ``k - 1`` is two products, ``-conj(s)`` of the last rotation is formed
once for both ``f`` and the next column, the breakdown mask is formed only
at an invariant subspace, and ``||r_0|| |f_{k+1}|`` only for the shifts
that freeze, or for all of them when history is kept.  :func:`givens` runs
the same elementwise arithmetic on Python scalars.

The rotations operate on the tridiagonal with *positive* off-diagonals
(rotation input pair ``(r_kk, beta_k)`` with real ``beta_k >= 0``), which is
the projection of ``z I - A`` onto the sign-flipped Lanczos basis
``(-1)^{k-1} v_k``.  The basis projections fed to the ``p_k`` recurrence
carry that alternating sign; with unsigned projections the accumulated
value drifts from the reference for every ``k >= 2`` (checked against the
dense least-squares oracle).

``x_0 = 0`` always, so the initial residual is ``v`` and no seed shift
exists.  The driver is called like the Lanczos driver and returns the same
:class:`~resolvquad.shifted_lanczos.QuadFormResult`, since both record one
Lanczos stream.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .core import SolveStatus, SparseHermitianMatrix, blockwise_dot
from .error_estimate import DEFAULT_LAG, cabs
from .lanczos import lanczos_init, lanczos_step, stream_vector
from .shift_batch import ShiftBatch
from .shifted_lanczos import QuadFormResult, stream_result

__all__ = [
    "givens",
    "minres_run",
]


def _rotation(a, a_abs, b, rho):
    """``(c, s, r)`` of :func:`givens` for ``a != 0``, elementwise, given
    ``|a|`` and ``rho = hypot(|a|, b)``."""
    phase = a / a_abs
    return a_abs / rho, phase * (b / rho), phase * rho


def givens(a: complex, b: float) -> tuple[float, complex, complex]:
    """Rotation zeroing ``b`` against ``a``: ``c a + s b = r``, ``-conj(s) a + conj(c) b = 0``.

    Phase convention: ``r`` carries the phase of ``a`` when ``a != 0``
    (``c = |a| / hypot(|a|, b)`` is then real positive); for ``a = 0`` the
    rotation is the swap ``(c, s, r) = (0, 1, b)``.  ``b`` is real and
    nonnegative here (it is the Lanczos off-diagonal).
    """
    if b < 0:
        raise ValueError("rotation input b must be nonnegative")
    if a == 0:
        if b == 0:
            raise ValueError("both rotation inputs are zero")
        return 0.0, 1.0 + 0j, complex(b)
    aa = abs(a)
    return _rotation(a, aa, b, math.hypot(aa, b))


def minres_run(a: SparseHermitianMatrix, v: np.ndarray,
               shifts: Sequence[complex], *,
               rtol: Optional[float] = 1e-10,
               lag: int = DEFAULT_LAG,
               max_iter: Optional[int] = None,
               reference: Optional[Sequence[complex]] = None,
               keep_history: bool = False) -> QuadFormResult:
    """Run shifted MINRES for ``v^H (z_i I - A)^{-1} v`` over all shifts.

    Stopping mirrors the quadratic-form driver: true relative error against
    ``reference`` when supplied, otherwise the delayed-difference rule on
    ``M_k`` at lag ``lag``.  At an invariant subspace the final values are
    exact (the residual phase ``f`` vanishes) and surviving shifts freeze
    as converged at the iteration that took the last column.  A stream
    that stops being finite freezes every active shift as an overflow with
    its last value; ``M_k`` needs ``beta_k``, so a failed ``beta_1`` ends
    the run at 0.
    """
    batch = ShiftBatch(shifts, rtol=rtol, lag=lag, reference=reference,
                       keep_history=keep_history)
    v = stream_vector(a, v)  # so the projections v^H v_k do not upcast
    s = batch.state
    zeros = np.zeros(s.z.shape, dtype=np.complex128)
    s.f = zeros + 1.0
    s.p1 = s.p2 = zeros  # p_{k-1}, p_{k-2}
    # G_{k-1}, G_{k-2}; the identity until two columns exist.  ns1 is
    # -conj(s1), which both f and the next column's rotation take
    s.c1 = s.c2 = np.ones(s.z.shape)
    s.s1 = s.s2 = zeros
    s.ns1 = -zeros.conjugate()
    stream = None

    def steps():
        nonlocal stream
        stream = lanczos_init(a, v)
        rnorm = math.sqrt(stream.vnorm2)  # ||r_0|| = ||v||
        for k in itertools.count(1):
            yield
            coeffs = stream.coeffs  # alpha_1..alpha_k, beta_1..beta_{k-1}
            alpha_k = coeffs.alpha[-1]
            beta_prev = coeffs.beta[-1] if coeffs.beta else 0.0
            # v^H v_k, projected on the sign-flipped basis (-1)^{k-1} v_k
            sign = 1.0 if k % 2 else -1.0
            q_scalar = sign * complex(blockwise_dot(np.vdot, v, stream.v_curr))
            outcome = lanczos_step(stream)
            exhausting = outcome.invariant_subspace
            beta_k = 0.0 if exhausting else coeffs.beta[-1]

            # column k of the tridiagonal: rows k-2, k-1 and the diagonal.
            # G_{k-2} meets a zero in row k-2: G_{k-2} (0, beta_prev) is
            # (s2 beta_prev, c2 beta_prev) up to the sign of a zero part of
            # r2, which only scales p_{k-2} in a sum
            r2 = s.s2 * beta_prev
            # G_{k-1} (c2 beta_prev, z - alpha_k)
            x, y = s.c2 * beta_prev, s.z - alpha_k
            r1 = s.c1 * x + s.s1 * y
            r0 = s.ns1 * x + s.c1 * y
            r0_abs = cabs(r0)
            c, sn, rkk = _rotation(r0, r0_abs, beta_k,
                                   np.hypot(r0_abs, beta_k))
            failed = ()
            if np.count_nonzero(r0_abs) < r0_abs.size:
                swap = r0_abs == 0
                c[swap], sn[swap], rkk[swap] = 0.0, 1.0, beta_k
                if beta_k == 0.0:
                    # zI - A singular on the Krylov space: cannot divide
                    failed = ((SolveStatus.BREAKDOWN, swap),)
            p_new = (q_scalar - r2 * s.p2 - r1 * s.p1) / rkk
            value_new = batch.value + rnorm * c * s.f * p_new
            ns = -sn.conjugate()
            s.c2, s.s2, s.c1, s.s1, s.ns1 = s.c1, s.s1, c, sn, ns
            s.p2, s.p1 = s.p1, p_new
            s.f = ns * s.f
            # a non-finite p_new or f_new leaves value_new non-finite too
            batch.step(k, value_new, *failed, residual=(rnorm, s.f))

            if exhausting:
                # Krylov space exhausted: surviving values are exact
                return SolveStatus.CONVERGED, k

    k = batch.run(steps(), max_iter, a.n)
    return stream_result("minres", batch, k, stream)
