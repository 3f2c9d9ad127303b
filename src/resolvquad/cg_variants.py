"""Seeded collinear methods for the quadratic-form benchmark: COCG and COCR.

Both methods run a conjugate-orthogonal iteration on one seed system
``(z_s I - A) x = v`` using the transpose bilinear form ``x^T y`` (the seed
matrix is complex symmetric for real symmetric ``A``), and propagate every
other shift through scalar collinearity factors ``pi_k``.  Only the
projections ``v^H r_k`` and per-shift scalars are kept, so the output is
the quadratic-form sequence, never a solution vector.

Restrictions: ``A`` must be real symmetric (the complex-symmetric structure
of the seed matrix is what the transpose products rely on); the starting
vector may be complex.  A vanishing seed denominator ends the run with
partial results for all still-active shifts: seed switching is deliberately
not implemented.

Shift-independent combinations of seed scalars (``(beta_{k-2}/alpha_{k-2})
alpha_{k-1}`` and ``z - z_s``) are computed once per iteration, so the
measured per-shift scalar cost is below the 18/17-operation budgets usually
quoted for these recurrences; a dedicated audit test pins the actual
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    HistoryEntry,
    MethodResult,
    ShiftOutcome,
    SolveStatus,
    SparseHermitianMatrix,
    as_complex_vector,
    dot,
    dot_unconjugated,
    isfinite_scalar,
)
from .error_estimate import DEFAULT_LAG, DelayedDifferenceWindow

__all__ = [
    "TOL_PI",
    "SeededShiftedRunConfig",
    "CollinearResult",
    "cocg_run",
    "cocr_run",
    "pick_seed_shift",
    "collinear_pi_update",
    "cocg_scalar_update",
    "cocr_scalar_update",
]

# pi is only a division guard, mirroring the shifted-Lanczos tol_delta.
TOL_PI = 1e-290


def pick_seed_shift(shifts: Sequence[complex]) -> complex:
    """Default seed: the shift farthest from the real axis."""
    return max(shifts, key=lambda z: abs(complex(z).imag))


@dataclass
class SeededShiftedRunConfig:
    """Run parameters shared by COCG and COCR."""

    shifts: Sequence[complex]
    seed_shift: Optional[complex] = None  # None -> largest |Im z|
    rtol: Optional[float] = 1e-10
    max_iter: Optional[int] = None
    lag: int = DEFAULT_LAG
    reference: Optional[Sequence[complex]] = None
    keep_history: bool = False

    def validate(self) -> None:
        shifts = [complex(z) for z in self.shifts]
        if not shifts:
            raise ValueError("at least one shift is required")
        if len(set(shifts)) != len(shifts):
            raise ValueError("shifts must be distinct")
        if self.reference is not None and len(self.reference) != len(shifts):
            raise ValueError("reference values must match the shift list")
        if self.lag < 1:
            raise ValueError("lag must be a positive integer")

    def resolved_seed(self) -> complex:
        if self.seed_shift is not None:
            return complex(self.seed_shift)
        return complex(pick_seed_shift(self.shifts))


@dataclass
class _CollinearState:
    """Per-shift collinearity scalars (``pi`` pair, projection, accumulator)."""

    z: complex
    sigma: complex  # z - z_s, fixed for the run
    p_scalar: complex
    pi_m2: complex = 1.0 + 0j
    pi_m1: complex = 1.0 + 0j
    value: complex = 0j
    status: SolveStatus = SolveStatus.ACTIVE
    k: int = 0
    pi_log: Optional[list] = None


@dataclass
class CollinearResult(MethodResult):
    """Adds the seed scalar stream needed to replay the pi recurrences."""

    seed_shift: complex = 0j
    seed_alpha: list = field(default_factory=list)
    seed_beta: list = field(default_factory=list)
    r_scalars: list = field(default_factory=list)
    pi_history: list = field(default_factory=list)


def _require_real_symmetric(a: SparseHermitianMatrix) -> None:
    if not a.is_real:
        raise ValueError("COCG/COCR require a real matrix "
                         "(the seed system must be complex symmetric)")
    if not a.hermitian_verified:
        raise ValueError("COCG/COCR require a symmetric matrix")


# ---------------------------------------------------------------------------
# per-shift scalar kernels (kept standalone so op-count audits can wrap them)
# ---------------------------------------------------------------------------

def collinear_pi_update(pi_m1, pi_m2, alpha_seed, shared, sigma):
    """Collinearity factor recursion shared by COCG and COCR.

    ``shared = (beta_{k-2}/alpha_{k-2}) alpha_{k-1}`` and ``sigma = z - z_s``
    are computed once per iteration/shift respectively; per shift this is
    3 additions and 3 multiplications.
    """
    return (1.0 + alpha_seed * sigma + shared) * pi_m1 - shared * pi_m2


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


class _Run:
    """Bookkeeping shared by both methods: freezing, histories, stopping."""

    def __init__(self, method, shifts, config, n):
        self.method = method
        self.config = config
        self.shifts = shifts
        self.max_iter = config.max_iter if config.max_iter is not None else 2 * n
        self.outcomes: list[Optional[ShiftOutcome]] = [None] * len(shifts)
        self.histories = [[] if config.keep_history else None for _ in shifts]
        self.windows = [DelayedDifferenceWindow(config.lag) for _ in shifts]
        self.reference = None
        if config.reference is not None:
            self.reference = [complex(r) for r in config.reference]

    def freeze(self, i, state, status, iterations):
        state.status = status
        if self.histories[i]:
            self.histories[i][-1].status = status
        value = state.value if state.k > 0 else None
        self.outcomes[i] = ShiftOutcome(
            z=state.z, value=value, iterations=iterations, status=status,
            history=self.histories[i])

    def after_commit(self, i, state, k) -> None:
        """Record history, attach nu, and apply the stopping rule."""
        err = None
        if self.reference is not None:
            ref = self.reference[i]
            denom = abs(ref) or 1.0
            err = abs(state.value - ref) / denom
        hist = self.histories[i]
        if hist is not None:
            hist.append(HistoryEntry(k=k, value=state.value,
                                     status=state.status, rel_err=err))
        lagged = self.windows[i].push(state.value)
        if lagged is not None:
            k0, nu, scale = lagged
            if hist is not None and 1 <= k0 <= len(hist):
                hist[k0 - 1].nu = nu
            if (self.reference is None and self.config.rtol is not None
                    and nu <= self.config.rtol * scale):
                self.freeze(i, state, SolveStatus.CONVERGED, k)
        if (self.reference is not None and self.config.rtol is not None
                and err is not None and err <= self.config.rtol):
            self.freeze(i, state, SolveStatus.CONVERGED, k)

    def finish(self, states, k, seed_shift, seed_alpha, seed_beta, r_scalars):
        for i, st in enumerate(states):
            if st.status is SolveStatus.ACTIVE:
                self.freeze(i, st, SolveStatus.MAX_ITER, k)
        return CollinearResult(
            method=self.method, shifts=self.outcomes, iterations=k,
            seed_shift=seed_shift, seed_alpha=seed_alpha,
            seed_beta=seed_beta, r_scalars=r_scalars)


def _init_states(shifts, z_s, p0, keep_pi):
    return [_CollinearState(z=z, sigma=z - z_s, p_scalar=p0,
                            pi_log=[] if keep_pi else None)
            for z in shifts]


def cocg_run(a: SparseHermitianMatrix, v: np.ndarray,
             config: SeededShiftedRunConfig) -> CollinearResult:
    """Shifted COCG adapted to quadratic forms.

    Seed recurrences use the unconjugated products ``r^T r`` and
    ``p^T (z_s I - A) p``; the per-shift projection scalars are the
    conjugating ``v^H``-products throughout (verified against the dense
    reference for complex ``v``).
    """
    _require_real_symmetric(a)
    config.validate()
    v = as_complex_vector(v)
    shifts = [complex(z) for z in config.shifts]
    z_s = config.resolved_seed()
    run = _Run("cocg", shifts, config, a.n)

    r = v.copy()
    p = r.copy()
    rr_prev = dot_unconjugated(r, r)  # r_0^T r_0
    alpha_prev = 1.0 + 0j  # alpha_{-1}
    beta_prev = 0j  # beta_{-1}
    p0 = dot(v, r)  # p_0^{(i)} = v^H r_0
    states = _init_states(shifts, z_s, p0, config.keep_history)
    seed_alpha: list[complex] = []
    seed_beta: list[complex] = []
    r_scalars: list[complex] = [p0]

    k = 0
    while k < run.max_iter and any(s.status is SolveStatus.ACTIVE for s in states):
        if dot(r, r).real == 0.0:
            # residual is exactly zero: the Krylov space is exhausted and the
            # collinear residual of every surviving shift vanished with it
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.CONVERGED, st.k)
            break
        k += 1
        w = z_s * p - a.matvec(p)  # (z_s I - A) p_{k-1}
        pap = dot_unconjugated(p, w)
        if abs(pap) <= TOL_PI or abs(rr_prev) <= TOL_PI:
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.SEED_BREAKDOWN, k)
            break
        alpha_seed = rr_prev / pap  # alpha_{k-1}
        r = r - alpha_seed * w
        rr = dot_unconjugated(r, r)
        beta_seed = rr / rr_prev  # beta_{k-1}
        r_scalar = dot(v, r)  # v^H r_k
        if not (isfinite_scalar(alpha_seed) and isfinite_scalar(beta_seed)
                and isfinite_scalar(r_scalar)):
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.OVERFLOW, k)
            break
        seed_alpha.append(alpha_seed)
        seed_beta.append(beta_seed)
        r_scalars.append(r_scalar)
        shared = (beta_prev / alpha_prev) * alpha_seed  # shift-independent

        for i, st in enumerate(states):
            if st.status is not SolveStatus.ACTIVE:
                continue
            pi_new = collinear_pi_update(st.pi_m1, st.pi_m2, alpha_seed,
                                         shared, st.sigma)
            if abs(pi_new) <= TOL_PI:
                run.freeze(i, st, SolveStatus.PI_ZERO, k)
                continue
            value_new, p_new = cocg_scalar_update(
                st.pi_m1, pi_new, st.p_scalar, st.value, alpha_seed,
                beta_seed, r_scalar)
            if not (isfinite_scalar(value_new) and isfinite_scalar(p_new)):
                run.freeze(i, st, SolveStatus.OVERFLOW, k)
                continue
            st.pi_m2, st.pi_m1 = st.pi_m1, pi_new
            st.p_scalar = p_new
            st.value = value_new
            st.k = k
            if st.pi_log is not None:
                st.pi_log.append(pi_new)
            run.after_commit(i, st, k)

        p = r + beta_seed * p
        alpha_prev, beta_prev, rr_prev = alpha_seed, beta_seed, rr

    result = run.finish(states, k, z_s, seed_alpha, seed_beta, r_scalars)
    result.pi_history = [st.pi_log for st in states]
    return result


def cocr_run(a: SparseHermitianMatrix, v: np.ndarray,
             config: SeededShiftedRunConfig) -> CollinearResult:
    """Shifted COCR adapted to quadratic forms.

    Residual-based seed recurrences: denominators are ``q^T q`` and the
    bilinear forms ``r^T (z_s I - A) r``; the shifted matrix is applied to
    the residual once per iteration and reused for the next search
    direction.
    """
    _require_real_symmetric(a)
    config.validate()
    v = as_complex_vector(v)
    shifts = [complex(z) for z in config.shifts]
    z_s = config.resolved_seed()
    run = _Run("cocr", shifts, config, a.n)

    r = v.copy()
    q = np.zeros_like(r)
    w = z_s * r - a.matvec(r)  # (z_s I - A) r_0
    e_prev = dot_unconjugated(r, w)  # r_0^T (z_s I - A) r_0
    alpha_prev = 1.0 + 0j
    beta_prev = 0j
    r_scalar_prev = dot(v, r)  # v^H r_0
    # p_{-1}^{(i)} = 0; p_{k-1}^{(i)} is rebuilt inside the loop
    states = _init_states(shifts, z_s, 0j, config.keep_history)
    seed_alpha: list[complex] = []
    seed_beta: list[complex] = []
    r_scalars: list[complex] = [r_scalar_prev]

    k = 0
    while k < run.max_iter and any(s.status is SolveStatus.ACTIVE for s in states):
        if dot(r, r).real == 0.0:
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.CONVERGED, st.k)
            break
        k += 1
        q = w + beta_prev * q  # q_{k-1}
        with np.errstate(over="ignore"):  # overflow freezes every shift below
            qq = dot_unconjugated(q, q)
        if abs(qq) <= TOL_PI:
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.SEED_BREAKDOWN, k)
            break
        alpha_seed = e_prev / qq  # alpha_{k-1}
        if not (isfinite_scalar(alpha_seed) and isfinite_scalar(qq)):
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.OVERFLOW, k)
            break
        seed_alpha.append(alpha_seed)
        shared = (beta_prev / alpha_prev) * alpha_seed

        for i, st in enumerate(states):
            if st.status is not SolveStatus.ACTIVE:
                continue
            pi_new = collinear_pi_update(st.pi_m1, st.pi_m2, alpha_seed,
                                         shared, st.sigma)
            if abs(pi_new) <= TOL_PI:
                run.freeze(i, st, SolveStatus.PI_ZERO, k)
                continue
            value_new, p_new = cocr_scalar_update(
                st.pi_m2, st.pi_m1, pi_new, st.p_scalar, st.value,
                alpha_seed, beta_prev, r_scalar_prev)
            if not (isfinite_scalar(value_new) and isfinite_scalar(p_new)):
                run.freeze(i, st, SolveStatus.OVERFLOW, k)
                continue
            st.pi_m2, st.pi_m1 = st.pi_m1, pi_new
            st.p_scalar = p_new
            st.value = value_new
            st.k = k
            if st.pi_log is not None:
                st.pi_log.append(pi_new)
            run.after_commit(i, st, k)

        r = r - alpha_seed * q
        r_scalar = dot(v, r)
        w = z_s * r - a.matvec(r)  # (z_s I - A) r_k, reused next iteration
        e = dot_unconjugated(r, w)
        if abs(e_prev) <= TOL_PI:
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.SEED_BREAKDOWN, k)
            break
        beta_seed = e / e_prev  # beta_{k-1}
        if not (isfinite_scalar(beta_seed) and isfinite_scalar(r_scalar)):
            for i, st in enumerate(states):
                if st.status is SolveStatus.ACTIVE:
                    run.freeze(i, st, SolveStatus.OVERFLOW, k)
            break
        seed_beta.append(beta_seed)
        r_scalars.append(r_scalar)
        alpha_prev, beta_prev = alpha_seed, beta_seed
        e_prev = e
        r_scalar_prev = r_scalar

    result = run.finish(states, k, z_s, seed_alpha, seed_beta, r_scalars)
    result.pi_history = [st.pi_log for st in states]
    return result
