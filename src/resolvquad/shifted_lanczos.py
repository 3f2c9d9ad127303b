"""Shifted Lanczos recursion for resolvent quadratic forms.

One Lanczos coefficient stream drives, for every shift ``z_i``, an O(1)
per-iteration scalar recursion whose value ``L_k`` equals
``(v^H v) * e_1^T (z_i I - T_{k,k})^{-1} e_1`` -- the k-th quadratic-form
approximation of ``v^H (z_i I - A)^{-1} v``.  No shifted system is ever
solved and no solution vector is ever formed.

Per shift and iteration the update costs eight complex scalar operations
(three additions, four multiplications, one division); the square of the
off-diagonal coefficient is shift-independent and is computed once per
iteration by the driver, not per shift.

The recursion's pivot ``delta_{k+1}`` is the ratio of consecutive shifted
Jacobi determinants; it cannot vanish when the shift lies off the real
interval spanned by the extremal eigenvalues, so for such shifts the method
is breakdown-free.  :data:`TOL_DELTA` guards only genuine division hazards
(1e-290 absolute): tiny pivots legitimately occur near convergence and must
not be misreported as breakdowns.

No rigorous a-priori error bound is computed.  The sharp bound is a
min-max polynomial approximation problem over the spectral interval, which
is not observable from the recursion itself; that bound is deliberately
unimplemented and the lag-d estimates in :mod:`resolvquad.error_estimate`
are the practical substitute.

Per-iteration shift updates carry no cross-shift data flow, so the driver
batches them: ``z, c, pi`` are numpy arrays over the active shifts, ``L``
is the last accepted value that their
:class:`~resolvquad.shift_batch.ShiftBatch` holds, and one call of the
elementwise :func:`shift_update` advances all of them.  The same function
runs on Python scalars in :func:`shift_state_update`; the guards are masks
over the batch and branches on a scalar.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    MethodResult,
    NonFiniteError,
    SolveStatus,
    SparseHermitianMatrix,
)
from .error_estimate import DEFAULT_LAG
from .lanczos import LanczosState, lanczos_init, lanczos_step
from .shift_batch import ShiftBatch

__all__ = [
    "TOL_DELTA",
    "ShiftState",
    "QuadFormResult",
    "stream_result",
    "BilinearFormResult",
    "shift_start",
    "shift_update",
    "shift_state_init",
    "shift_state_update",
    "run_quadratic_forms",
    "bilinear_form",
]

TOL_DELTA = 1e-290


def shift_start(z, c1, alpha1):
    """First iteration, elementwise: ``delta_1 = z - alpha_1``,
    ``pi_1 = 1 / delta_1``, ``L_1 = c_1 pi_1``."""
    delta1 = z - alpha1
    pi1 = 1.0 / delta1
    return delta1, pi1, c1 * pi1


def shift_update(z, alpha_next, beta_sq, c, pi, L):
    """One iteration of the recursion, elementwise; eight operations.

    Returns ``(delta_{k+1}, pi_{k+1}, c_{k+1}, L_{k+1})`` from
    ``(c_k, pi_k, L_k)`` with ``beta_sq = beta_k**2``.  A vanished pivot
    raises ``ZeroDivisionError`` on Python scalars and leaves non-finite
    entries in arrays; callers guard the pivot.
    """
    t = beta_sq * pi
    delta_next = z - alpha_next - t
    pi_next = 1.0 / delta_next
    c_next = c * t * pi
    return delta_next, pi_next, c_next, L + c_next * pi_next


@dataclass
class ShiftState:
    """Scalar recursion cell for one shift: ``(c_k, delta_k, pi_k, L_k)``."""

    z: complex
    c: complex
    delta: complex
    pi: complex
    L: Optional[complex]
    status: SolveStatus
    k: int


def shift_state_init(z: complex, vnorm2: float, alpha1: float) -> ShiftState:
    """Start the recursion: ``c_1 = v^H v``, ``delta_1 = z - alpha_1``.

    A vanishing ``delta_1`` (the shift equals the first Rayleigh quotient)
    is a breakdown reported through the status, not an exception; ``L_1`` is
    undefined in that case.
    """
    c1 = vnorm2
    try:
        delta1, pi1, L1 = shift_start(z, c1, alpha1)
    except ZeroDivisionError:  # delta_1 == 0
        delta1, pi1, L1 = 0j, 0j, None
    if L1 is None or abs(delta1) <= TOL_DELTA:
        return ShiftState(z=z, c=c1, delta=delta1, pi=0j, L=None,
                          status=SolveStatus.BREAKDOWN, k=1)
    if not cmath.isfinite(L1):
        return ShiftState(z=z, c=c1, delta=delta1, pi=pi1, L=None,
                          status=SolveStatus.OVERFLOW, k=1)
    return ShiftState(z=z, c=c1, delta=delta1, pi=pi1, L=L1,
                      status=SolveStatus.ACTIVE, k=1)


def shift_state_update(state: ShiftState, alpha_next: float, beta: float,
                       beta_sq: Optional[float] = None) -> ShiftState:
    """Advance one shift by one iteration (eight scalar operations).

    ``beta_sq`` is ``beta**2``; the driver passes it in because it is shared
    by every shift of the iteration.  On a pivot smaller than
    :data:`TOL_DELTA` the state freezes as a breakdown and keeps ``L_k``;
    non-finite results freeze it as an overflow.
    """
    if state.status is not SolveStatus.ACTIVE:
        return state
    if beta_sq is None:
        beta_sq = beta * beta
    try:
        delta_next, pi_next, c_next, L_next = shift_update(
            state.z, alpha_next, beta_sq, state.c, state.pi, state.L)
    except ZeroDivisionError:  # delta_{k+1} == 0
        state.status = SolveStatus.BREAKDOWN
        return state
    if abs(delta_next) <= TOL_DELTA:
        state.status = SolveStatus.BREAKDOWN
        return state
    if not (cmath.isfinite(L_next) and cmath.isfinite(c_next)
            and cmath.isfinite(pi_next)):
        state.status = SolveStatus.OVERFLOW
        return state
    state.c = c_next
    state.delta = delta_next
    state.pi = pi_next
    state.L = L_next
    state.k += 1
    return state


@dataclass
class QuadFormResult(MethodResult):
    """Per-shift quadratic-form outcomes plus the coefficient stream; the
    result of both drivers on one Lanczos stream (Lanczos and MINRES)."""

    alpha: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    vnorm2: float = 0.0
    invariant_subspace_at: Optional[int] = None

    @property
    def values(self) -> list:
        return [s.value for s in self.shifts]


def stream_result(method: str, batch: ShiftBatch, k: int,
                  stream: Optional[LanczosState]) -> QuadFormResult:
    """Finish ``batch`` at iteration ``k`` and record ``stream``'s
    coefficients; ``stream`` is ``None`` when it never started."""
    result = QuadFormResult(method=method, shifts=batch.finish(k),
                            iterations=k, history=batch.history)
    if stream is not None:
        result.alpha = list(stream.coeffs.alpha)
        result.beta = list(stream.coeffs.beta)
        result.vnorm2 = stream.vnorm2
        result.invariant_subspace_at = stream.k if stream.exhausted else None
    return result


def run_quadratic_forms(a: SparseHermitianMatrix, v: np.ndarray,
                        shifts: Sequence[complex], *,
                        rtol: Optional[float] = 1e-10,
                        lag: int = DEFAULT_LAG,
                        max_iter: Optional[int] = None,
                        reference: Optional[Sequence[complex]] = None,
                        keep_history: bool = False) -> QuadFormResult:
    """Drive one Lanczos stream and every per-shift recursion to a stop.

    Stopping: with ``reference`` values supplied, a shift freezes when its
    true relative error drops to ``rtol`` (the benchmark protocol); without
    a reference the delayed-difference estimate ``nu_{k,lag}`` against
    ``rtol * |L_k|`` is used.  ``rtol=None`` disables stopping so the run
    only ends on breakdown, invariant subspace, or ``max_iter``.

    Per-shift failures (breakdown, overflow) never abort the other shifts.
    A stream that stops being finite freezes every active shift as an
    overflow with its last value.
    """
    try:
        stream = lanczos_init(a, v)
    except NonFiniteError:
        stream = None
    batch = ShiftBatch(shifts, rtol=rtol, lag=lag, reference=reference,
                       keep_history=keep_history)
    if stream is None:
        batch.freeze_all(0, SolveStatus.OVERFLOW)
        return stream_result("lanczos", batch, 0, None)
    if max_iter is None:
        max_iter = 2 * a.n
    alpha1 = stream.coeffs.alpha[0]
    s = batch.state
    s.c = np.full(s.z.shape, stream.vnorm2, dtype=np.complex128)

    # the array kernels leave inf/nan in exactly the shifts they then freeze
    with np.errstate(all="ignore"):
        k = 1
        delta, s.pi, L = shift_start(s.z, s.c, alpha1)
        batch.step(k, L, (SolveStatus.BREAKDOWN, np.abs(delta) <= TOL_DELTA),
                   delta=delta)

        while k < max_iter and batch.running:
            try:
                outcome = lanczos_step(stream)
            except NonFiniteError:
                batch.freeze_all(k, SolveStatus.OVERFLOW)
                break
            if outcome.invariant_subspace:
                # exhausted Krylov space: every surviving value is exact
                batch.mark_exact()
                batch.freeze_all(k, SolveStatus.CONVERGED)
                break
            beta, alpha_next = outcome.beta, outcome.alpha_next
            k += 1
            delta, s.pi, s.c, L = shift_update(
                s.z, alpha_next, beta * beta, s.c, s.pi, batch.value)
            # L_k is finite for every active shift, so a non-finite c_{k+1}
            # or pi_{k+1} leaves L_{k+1} non-finite too: the batch freezes it
            batch.step(k, L,
                       (SolveStatus.BREAKDOWN, np.abs(delta) <= TOL_DELTA),
                       delta=delta)

    result = stream_result("lanczos", batch, k, stream)
    if result.history is not None:
        # mu is derived from the recorded history, with the pivots above
        result.history.stream = (result.alpha, result.beta, result.vnorm2)
    return result


@dataclass
class BilinearFormResult:
    """Polarization result ``p^T (zI - A)^{-1} q`` per shift (real data)."""

    values: list
    sum_run: Optional[QuadFormResult]
    diff_run: Optional[QuadFormResult]


def bilinear_form(a: SparseHermitianMatrix, p: np.ndarray, q: np.ndarray,
                  shifts: Sequence[complex], **kwargs) -> BilinearFormResult:
    """Reduce a real bilinear form to two quadratic forms.

    With ``s = p + q`` and ``t = p - q`` the value per shift is
    ``(L^{(s)} - L^{(t)}) / 4``.  The polarization identity in this form
    assumes the transpose bilinear form, so complex matrices or vectors are
    rejected.  A zero ``s`` or ``t`` contributes a zero quadratic form.
    """
    if not (a.is_real and a.hermitian_verified):
        raise ValueError("bilinear_form requires a real symmetric matrix")
    p = np.asarray(p)
    q = np.asarray(q)
    if np.iscomplexobj(p) and np.any(p.imag):
        raise ValueError("p must be real")
    if np.iscomplexobj(q) and np.any(q.imag):
        raise ValueError("q must be real")
    p = p.real.astype(float)
    q = q.real.astype(float)
    shifts = [complex(z) for z in shifts]
    s = p + q
    t = p - q

    def forms(w):
        if np.linalg.norm(w) == 0.0:
            return [0j] * len(shifts), None
        run = run_quadratic_forms(a, w, shifts, **kwargs)
        return run.values, run

    s_vals, s_run = forms(s)
    t_vals, t_run = forms(t)
    values = []
    for sv, tv in zip(s_vals, t_vals):
        if sv is None or tv is None:
            values.append(None)
        else:
            values.append((sv - tv) / 4.0)
    return BilinearFormResult(values=values, sum_run=s_run, diff_run=t_run)
