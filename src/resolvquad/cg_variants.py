"""Seeded collinear methods for the quadratic-form benchmark: COCG and COCR.

Both methods run a conjugate-orthogonal iteration on one seed system
``(z_s I - A) x = v`` using the transpose bilinear form ``x^T y`` (the seed
matrix is complex symmetric for real symmetric ``A``), and propagate every
other shift through scalar collinearity factors ``pi_k``.  Only the
projections ``v^H r_k`` and per-shift scalars are kept, so the output is
the quadratic-form sequence, never a solution vector.  The seed products
``x^T y`` are ``numpy.dot`` and the projections ``x^H y`` are
``numpy.vdot``, each cast to Python ``complex`` before the scalar
recursions use it.  A seed product whose factors' norms multiply past the
overflow threshold, or below ``SEED_SCALE_MIN``, is formed from factors
scaled by powers of two, and the seed scalars from its mantissa and
exponent; a product in range is formed as it is.

The drivers are called like the Lanczos and MINRES drivers,
``(a, v, shifts, *, rtol, lag, max_iter, reference, keep_history)``, with
one more keyword, ``seed_shift`` (default: the first shift farthest from
the real axis).  A shift may repeat; each copy gets the same result.

Restrictions: ``A`` must be real symmetric (the complex-symmetric structure
of the seed matrix is what the transpose products rely on); the starting
vector may be complex.  A seed denominator ``x^T y`` that vanishes at the
scale of its own factors, or a seed ``alpha`` that underflows to zero (the
next iteration divides by it), ends the run as ``seed_breakdown`` with
partial results for all still-active shifts, at the iteration that formed
it: seed switching is deliberately not implemented.  An
exhausted Krylov space ends it with every surviving shift converged; it is
detected on the Lanczos ``beta_k`` the seed residuals imply, as the Lanczos
stream detects it, so at any scale of ``v``.

Shift-independent combinations of seed scalars (``(beta_{k-2}/alpha_{k-2})
alpha_{k-1}`` and ``z - z_s``) are computed once per iteration, so the
measured per-shift scalar cost is below the 18/17-operation budgets usually
quoted for these recurrences; a dedicated audit test pins the actual
counts.

Every shift advances in lockstep with the seed, so ``sigma = z - z_s``, the
``pi`` pair, the projected direction ``p`` and the value are numpy arrays
over the active shifts (:class:`~resolvquad.shift_batch.ShiftBatch`), and
one call of the elementwise :func:`collinear_pi_update` and
:func:`cocg_scalar_update`/:func:`cocr_scalar_update` advances all of them;
the same functions run on Python scalars.  ``pi`` depends only on the seed
scalars and is bitwise-replayable from them with Python arithmetic.  numpy's
complex ``*`` differs from Python's in the last bit for a large share of
products, so the products of the ``pi`` recursion go through :func:`_mul`,
which forms them from the real and imaginary parts as Python does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    MethodResult,
    SolveStatus,
    SparseHermitianMatrix,
    stable_norm,
)
from .error_estimate import DEFAULT_LAG, cabs
from .shift_batch import ShiftBatch

__all__ = [
    "TOL_PI",
    "CollinearResult",
    "cocg_run",
    "cocr_run",
    "collinear_pi_update",
    "cocg_scalar_update",
    "cocr_scalar_update",
]

# pi is only a division guard, mirroring the shifted-Lanczos TOL_DELTA.
TOL_PI = 1e-290
# A seed product x^T y at most this times ||x|| ||y|| has vanished: the
# unit round-off, below which no digit of the computed product is correct.
TOL_SEED = 2.0 ** -53
# _seed_dot scales the factors of a product whose ||x|| ||y|| overflows or
# is below this, where TOL_SEED ||x|| ||y|| nears the subnormal range.
SEED_SCALE_MIN = 2.0 ** -900


@dataclass
class CollinearResult(MethodResult):
    """Adds the seed scalar stream needed to replay the pi recurrences."""

    seed_shift: complex = 0j
    seed_alpha: list = field(default_factory=list)
    seed_beta: list = field(default_factory=list)
    r_scalars: list = field(default_factory=list)


def _require_real_symmetric(a: SparseHermitianMatrix) -> None:
    if not a.is_real:
        raise ValueError("COCG/COCR require a real matrix "
                         "(the seed system must be complex symmetric)")
    if not a.hermitian_verified:
        raise ValueError("COCG/COCR require a symmetric matrix")


# ---------------------------------------------------------------------------
# per-shift scalar kernels (kept standalone so op-count audits can wrap them)
# ---------------------------------------------------------------------------

def _mul(x, y):
    """``x * y``, on arrays rounded exactly as Python's complex product.

    The parts are assigned rather than summed as ``re + 1j * im``, which
    would turn an infinite imaginary part into a NaN real part.
    """
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray)):
        return x * y
    out = np.empty(np.broadcast(x, y).shape, dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def collinear_pi_update(pi_m1, pi_m2, alpha_seed, shared, sigma):
    """Collinearity factor recursion shared by COCG and COCR.

    ``shared = (beta_{k-2}/alpha_{k-2}) alpha_{k-1}`` and ``sigma = z - z_s``
    are computed once per iteration/shift respectively; per shift this is
    3 additions and 3 multiplications.
    """
    return (_mul(1.0 + _mul(alpha_seed, sigma) + shared, pi_m1)
            - _mul(shared, pi_m2))


def cocg_scalar_update(pi_m1, pi_new, p_scalar, value, alpha_seed, beta_seed,
                       r_scalar):
    """COCG accumulator/direction step: 2 add, 5 mul, 2 div per shift."""
    ratio = pi_m1 / pi_new
    alpha_i = ratio * alpha_seed
    value_new = value + alpha_i * p_scalar
    beta_i = ratio * ratio * beta_seed
    p_new = r_scalar / pi_new + beta_i * p_scalar
    return value_new, p_new


def cocr_scalar_update(pi_m2, pi_m1, pi_new, p_scalar, value, alpha_seed,
                       beta_prev, r_scalar_prev):
    """COCR accumulator/direction step: 2 add, 5 mul, 3 div per shift.

    Note the direction uses the previous iteration's residual projection and
    the two older collinearity factors.
    """
    r2 = pi_m2 / pi_m1
    beta_i = r2 * r2 * beta_prev
    alpha_i = (pi_m1 / pi_new) * alpha_seed
    p_new = r_scalar_prev / pi_m1 + beta_i * p_scalar
    value_new = value + alpha_i * p_new
    return value_new, p_new


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _seeded_batch(a: SparseHermitianMatrix, shifts: Sequence[complex],
                  seed_shift: Optional[complex], **batch_args):
    """Check the run; its seed shift and shift batch.

    The default seed is the first shift farthest from the real axis.  The
    batch state holds ``sigma = z - z_s``, the ``pi`` pair (``pi_{-1} =
    pi_0 = 1``) and the projected direction ``p`` (zero); the value is the
    batch's own.
    """
    _require_real_symmetric(a)
    batch = ShiftBatch(shifts, **batch_args)
    s = batch.state
    if seed_shift is None:
        seed_shift = s.z[np.argmax(np.abs(s.z.imag))]
    z_s = complex(seed_shift)
    s.sigma = s.z - z_s
    s.pi_m1 = s.pi_m2 = np.ones(s.z.shape, dtype=np.complex128)
    s.p = np.zeros(s.z.shape, dtype=np.complex128)
    return z_s, batch


def _exhausted(a: SparseHermitianMatrix, rnorm: float, rnorm_prev: float,
               alpha_prev: complex) -> bool:
    """Whether the seed residual ``r_k`` fell to rounding size: the Krylov
    space is exhausted.

    The test is the one :func:`~resolvquad.lanczos.lanczos_step` applies to
    its ``beta_k``, on the Lanczos ``beta_k`` that two seed residuals imply,
    ``||r_k|| / (|alpha_{k-1}| ||r_{k-1}||)``, against ``a.breakdown_floor``,
    finite for every finite matrix; it does not depend on the scale of ``v``.
    ``rnorm_prev = 0`` (at ``k = 0``) tests ``r_k = 0``.
    """
    return rnorm <= a.breakdown_floor * abs(alpha_prev) * rnorm_prev


def _vanished(product: tuple, x_norm: float, y_norm: float) -> bool:
    """Whether the seed product ``x^T y``, given as :func:`_seed_dot`
    returns it, vanished at the scale of its own factors,
    ``|x^T y| <= TOL_SEED ||x|| ||y||``, which holds at any scale of ``v``.
    A scale that overflowed is left to the overflow checks."""
    m, e = product
    if e:  # compare at the scale _seed_dot took the factors to
        x_norm, y_norm = math.frexp(x_norm)[0], math.frexp(y_norm)[0]
    scale = TOL_SEED * x_norm * y_norm
    return abs(m) <= scale < math.inf


def _seed_dot(x: np.ndarray, y: np.ndarray, x_norm: float,
              y_norm: float) -> tuple:
    """The seed product ``x^T y`` as ``(m, e)``, ``x^T y = m 2**e``.

    While ``SEED_SCALE_MIN <= ||x|| ||y|| < inf``, or a factor is not
    finite, this is ``(x^T y, 0)``.  Otherwise each factor (a contiguous
    ``complex128`` vector) is first divided by the power of two of its norm,
    which is exact, so the product neither overflows nor underflows.
    """
    if (SEED_SCALE_MIN <= x_norm * y_norm < math.inf
            or not math.isfinite(x_norm + y_norm)):
        return complex(np.dot(x, y)), 0
    ex, ey = math.frexp(x_norm)[1], math.frexp(y_norm)[1]
    # ldexp on the parts: 2**-ex need not be a double
    xs = np.ldexp(x.view(np.float64), -ex).view(x.dtype)
    ys = xs if y is x else np.ldexp(y.view(np.float64), -ey).view(y.dtype)
    return complex(np.dot(xs, ys)), ex + ey


def _ldexp(z: complex, e: int) -> complex:
    """``z 2**e``; each part is infinite where it overflows."""
    return complex(*np.ldexp((z.real, z.imag), e))


def _quotient(num: tuple, den: tuple) -> complex:
    """``num / den`` of two :func:`_seed_dot` products: Python's complex
    division when neither was scaled, else the division of the two
    mantissas brought near 1, scaled back."""
    (a, ea), (b, eb) = num, den
    if not (ea or eb):
        return a / b
    fa = math.frexp(max(abs(a.real), abs(a.imag)))[1]
    fb = math.frexp(max(abs(b.real), abs(b.imag)))[1]
    return _ldexp(_ldexp(a, -fa) / _ldexp(b, -fb), ea + fa - eb - fb)


def _commit(batch: ShiftBatch, k: int, pi_new, value_new, p_new) -> None:
    """Take iteration ``k`` of every active shift.

    A vanished ``pi``, a non-finite direction or (in the batch) value
    freezes the shift with the value of iteration ``k - 1``; the others are
    accepted with their ``pi``.
    """
    s = batch.state
    s.pi_m2, s.pi_m1, s.p = s.pi_m1, pi_new, p_new
    batch.step(k, value_new, (SolveStatus.PI_ZERO, cabs(pi_new) <= TOL_PI),
               (SolveStatus.OVERFLOW, ~np.isfinite(p_new)), pi=pi_new)


def cocg_run(a: SparseHermitianMatrix, v: np.ndarray,
             shifts: Sequence[complex], *,
             rtol: Optional[float] = 1e-10,
             lag: int = DEFAULT_LAG,
             max_iter: Optional[int] = None,
             reference: Optional[Sequence[complex]] = None,
             keep_history: bool = False,
             seed_shift: Optional[complex] = None) -> CollinearResult:
    """Shifted COCG adapted to quadratic forms.

    Stopping mirrors :func:`~resolvquad.shifted_lanczos.run_quadratic_forms`.
    A vanished seed product or a zero seed ``alpha`` (``seed_breakdown``),
    or a non-finite seed scalar (``overflow``), ends the run at the
    iteration being taken; an exhausted Krylov space, converged, at the
    last accepted one.
    Seed recurrences use the unconjugated products ``r^T r`` and
    ``p^T (z_s I - A) p``; the per-shift projection scalars are the
    conjugating ``v^H``-products throughout (verified against the dense
    reference for complex ``v``).
    """
    z_s, batch = _seeded_batch(a, shifts, seed_shift, rtol=rtol, lag=lag,
                               reference=reference, keep_history=keep_history)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    s = batch.state
    seed_alpha, seed_beta, r_scalars = [], [], []
    r, p = v.copy(), v.copy()  # r_0 = p_0 = v
    # as advance(k) finds them: ||r_{k-1}||, ||r_{k-2}||, r_{k-1}^T r_{k-1}
    # (as _seed_dot gives it), alpha_{k-2} and beta_{k-2}
    rnorm = rnorm_prev = 0.0
    rr_prev = (0j, 0)
    alpha_prev, beta_prev = 1.0 + 0j, 0j

    def start():
        nonlocal rnorm, rr_prev
        rnorm = stable_norm(r)
        rr_prev = _seed_dot(r, r, rnorm, rnorm)  # r_0^T r_0
        p0 = complex(np.vdot(v, r))  # p_0^{(i)} = v^H r_0
        s.p = np.full(s.z.shape, p0, dtype=np.complex128)
        r_scalars.append(p0)

    def advance(k: int):
        nonlocal r, p, rnorm, rnorm_prev, rr_prev, alpha_prev, beta_prev
        if _exhausted(a, rnorm, rnorm_prev, alpha_prev):
            # the collinear residual of every surviving shift vanished too
            return SolveStatus.CONVERGED, k - 1
        rnorm_prev = rnorm
        w = z_s * p - a.matvec(p)  # (z_s I - A) p_{k-1}
        pnorm, wnorm = stable_norm(p), stable_norm(w)
        pap = _seed_dot(p, w, pnorm, wnorm)
        if (_vanished(pap, pnorm, wnorm)
                or _vanished(rr_prev, rnorm_prev, rnorm_prev)):
            return SolveStatus.SEED_BREAKDOWN, k
        alpha_seed = _quotient(rr_prev, pap)  # alpha_{k-1}
        r = r - alpha_seed * w
        rnorm = stable_norm(r)
        rr = _seed_dot(r, r, rnorm, rnorm)
        beta_seed = _quotient(rr, rr_prev)  # beta_{k-1}
        r_scalar = complex(np.vdot(v, r))  # v^H r_k
        if not (cmath.isfinite(alpha_seed) and cmath.isfinite(beta_seed)
                and cmath.isfinite(r_scalar)):
            return SolveStatus.OVERFLOW, k
        if alpha_seed == 0:  # underflowed: the next shared would divide by it
            return SolveStatus.SEED_BREAKDOWN, k
        seed_alpha.append(alpha_seed)
        seed_beta.append(beta_seed)
        r_scalars.append(r_scalar)
        shared = (beta_prev / alpha_prev) * alpha_seed  # shift-independent

        pi_new = collinear_pi_update(s.pi_m1, s.pi_m2, alpha_seed, shared,
                                     s.sigma)
        value_new, p_new = cocg_scalar_update(
            s.pi_m1, pi_new, s.p, batch.value, alpha_seed, beta_seed, r_scalar)
        _commit(batch, k, pi_new, value_new, p_new)

        p = r + beta_seed * p
        alpha_prev, beta_prev, rr_prev = alpha_seed, beta_seed, rr

    k = batch.run(start, advance, max_iter, a.n)
    return _result("cocg", batch, k, z_s, seed_alpha, seed_beta, r_scalars)


def cocr_run(a: SparseHermitianMatrix, v: np.ndarray,
             shifts: Sequence[complex], *,
             rtol: Optional[float] = 1e-10,
             lag: int = DEFAULT_LAG,
             max_iter: Optional[int] = None,
             reference: Optional[Sequence[complex]] = None,
             keep_history: bool = False,
             seed_shift: Optional[complex] = None) -> CollinearResult:
    """Shifted COCR adapted to quadratic forms.

    Stopping and every end mirror :func:`cocg_run`.  Residual-based seed
    recurrences: denominators are ``q^T q`` and the bilinear forms
    ``r^T (z_s I - A) r``; the shifted matrix is applied to the residual
    once per iteration and reused for the next search direction.
    """
    z_s, batch = _seeded_batch(a, shifts, seed_shift, rtol=rtol, lag=lag,
                               reference=reference, keep_history=keep_history)
    v = np.ascontiguousarray(v, dtype=np.complex128)
    s = batch.state  # p_{-1}^{(i)} = 0; p_{k-1}^{(i)} is rebuilt each step
    seed_alpha, seed_beta, r_scalars = [], [], []
    r = v.copy()
    # as advance(k) finds them: q_{k-2}, w = (z_s I - A) r_{k-1}, ||r_{k-1}||,
    # ||r_{k-2}||, ||w||, e_prev = r_{k-1}^T w (as _seed_dot gives it),
    # alpha_{k-2}, beta_{k-2} and v^H r_{k-1}
    q = w = np.zeros_like(r)
    rnorm = rnorm_prev = wnorm_prev = 0.0
    e_prev = (0j, 0)
    alpha_prev, beta_prev = 1.0 + 0j, 0j
    r_scalar_prev = 0j

    def start():
        nonlocal w, rnorm, wnorm_prev, e_prev, r_scalar_prev
        w = z_s * r - a.matvec(r)  # (z_s I - A) r_0
        rnorm, wnorm_prev = stable_norm(r), stable_norm(w)
        e_prev = _seed_dot(r, w, rnorm, wnorm_prev)  # r_0^T (z_s I - A) r_0
        r_scalar_prev = complex(np.vdot(v, r))  # v^H r_0
        r_scalars.append(r_scalar_prev)

    def advance(k: int):
        nonlocal r, q, w, rnorm, rnorm_prev, wnorm_prev, e_prev, \
            alpha_prev, beta_prev, r_scalar_prev
        if _exhausted(a, rnorm, rnorm_prev, alpha_prev):
            # the collinear residual of every surviving shift vanished too
            return SolveStatus.CONVERGED, k - 1
        rnorm_prev = rnorm
        q = w + beta_prev * q  # q_{k-1}
        qnorm = stable_norm(q)
        qq = _seed_dot(q, q, qnorm, qnorm)
        if _vanished(qq, qnorm, qnorm):
            return SolveStatus.SEED_BREAKDOWN, k
        alpha_seed = _quotient(e_prev, qq)  # alpha_{k-1}
        if not (cmath.isfinite(alpha_seed) and cmath.isfinite(qq[0])):
            return SolveStatus.OVERFLOW, k
        seed_alpha.append(alpha_seed)
        shared = (beta_prev / alpha_prev) * alpha_seed

        pi_new = collinear_pi_update(s.pi_m1, s.pi_m2, alpha_seed, shared,
                                     s.sigma)
        value_new, p_new = cocr_scalar_update(
            s.pi_m2, s.pi_m1, pi_new, s.p, batch.value, alpha_seed, beta_prev,
            r_scalar_prev)
        _commit(batch, k, pi_new, value_new, p_new)

        r = r - alpha_seed * q
        r_scalar = complex(np.vdot(v, r))
        w = z_s * r - a.matvec(r)  # (z_s I - A) r_k, reused next iteration
        rnorm, wnorm = stable_norm(r), stable_norm(w)
        e = _seed_dot(r, w, rnorm, wnorm)
        # a vanished e_{k-1} makes alpha_{k-1} zero, and so does underflow;
        # the next shared would divide by it
        if _vanished(e_prev, rnorm_prev, wnorm_prev) or alpha_seed == 0:
            return SolveStatus.SEED_BREAKDOWN, k
        beta_seed = _quotient(e, e_prev)  # beta_{k-1}
        if not (cmath.isfinite(beta_seed) and cmath.isfinite(r_scalar)):
            return SolveStatus.OVERFLOW, k
        seed_beta.append(beta_seed)
        r_scalars.append(r_scalar)
        alpha_prev, beta_prev = alpha_seed, beta_seed
        e_prev, wnorm_prev = e, wnorm
        r_scalar_prev = r_scalar

    k = batch.run(start, advance, max_iter, a.n)
    return _result("cocr", batch, k, z_s, seed_alpha, seed_beta, r_scalars)


def _result(method, batch, k, z_s, seed_alpha, seed_beta,
            r_scalars) -> CollinearResult:
    return CollinearResult(
        method=method, shifts=batch.finish(k), iterations=k,
        history=batch.history, seed_shift=z_s, seed_alpha=seed_alpha,
        seed_beta=seed_beta, r_scalars=r_scalars)
