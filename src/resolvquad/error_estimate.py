"""Lag-d a-posteriori error estimates for the shifted quadratic-form run.

Two estimates are produced for iteration ``k`` once iteration ``k + d`` has
completed:

* ``mu_{k,d} = beta_k * ||v||^2 * |g_k| * |h_k|`` where ``g_k`` is the
  (1, k) corner entry of ``(zI - T_{k,k})^{-1}`` and ``h_k`` the (1, k+1)
  "bridge" entry of ``(zI - T_{k+d,k+d})^{-1}``,
* ``nu_{k,d} = |L_k - L_{k+d}|``, the delayed difference of the
  quadratic-form iterates.

Both entries have closed forms over the pivot sequence ``delta`` already
produced by the shift recursion:

    g_{k+1} = (beta_k / delta_{k+1}) g_k,            g_1 = 1 / delta_1
    h_k     = g_k * beta_k / (delta_{k+1} .. delta_{k+d})
                  * phi_2 * .. * phi_d

with the backward pivots ``phi_d = z - alpha_{k+d}`` and
``phi_j = z - alpha_{k+j} - beta_{k+j}^2 / phi_{j+1}`` (the coefficient
``beta_{k+j}`` couples rows ``k+j`` and ``k+j+1``; validated against the
Thomas-solve reference).  For ``zI - T`` these products are the exact
entries; printed closed forms that carry ``(-1)^k`` factors correspond to
the opposite off-diagonal sign convention and agree in modulus, which is
all the estimates use.

The two estimates have different readers.  The stopping rule reads ``nu``
while a run goes, from the last ``d + 1`` value arrays that the
:class:`~resolvquad.shift_batch.ShiftBatch` of its shifts keeps, against the
scale ``|L_k|``.  Only recorded history reads ``mu`` and the corner and
bridge magnitudes: :func:`history_estimates` derives all four from the
recorded columns after the run, so the solve loop computes no corner or
bridge entry.  The scalar :class:`EstimatorState` computes them for one
shift as the run goes, the reference the history is tested against;
:class:`DelayedDifferenceWindow` is its ``nu`` half (no driver uses it);
:func:`corner_update` and :func:`bridge_entry` run the elementwise
arithmetic :func:`history_estimates` runs on arrays.

Estimator failures (vanished pivots, non-finite products) degrade to
"estimate not available" and never touch the solver itself.
"""

from __future__ import annotations

import cmath
import math
from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_LAG",
    "EstimatorUnavailable",
    "EstimateReport",
    "EstimatorState",
    "DelayedDifferenceWindow",
    "cabs",
    "corner_update",
    "bridge_entry",
    "history_estimates",
]

DEFAULT_LAG = 5


class EstimatorUnavailable(ArithmeticError):
    """The recursion for this (k, d) hit a zero pivot; no estimate emitted."""


def cabs(x):
    """``|x|`` elementwise, rounded exactly as Python's ``abs(complex)``.

    ``numpy.abs`` on complex arrays differs from it in the last bit for about
    a third of all values; ``hypot`` of the parts agrees bitwise, which keeps
    ``nu`` bitwise-recomputable from the recorded values.
    """
    return np.hypot(x.real, x.imag)


def corner_update(g, beta, delta_next):
    """Advance the corner entry: ``g_{k+1} = (beta_k / delta_{k+1}) g_k``.

    Elementwise on arrays, where a vanished ``delta`` leaves a non-finite
    entry instead of raising.
    """
    if np.ndim(delta_next) == 0 and delta_next == 0:
        raise EstimatorUnavailable("delta vanished in corner recursion")
    return g * (beta / delta_next)


def _bridge(z, g_k, beta_k, alpha_tail, beta_sq_tail, delta_tail):
    """The bridge entry's arithmetic, elementwise over ``z``, ``g_k`` and
    the tail entries, with the squares ``beta_sq_tail[j-1] = beta_{k+j}**2``.
    On Python scalars a vanished pivot raises ``ZeroDivisionError``; on
    arrays it leaves a non-finite entry."""
    d = len(delta_tail)
    phi_prod = 1.0 + 0.0j
    if d >= 2:
        phi = z - alpha_tail[d - 1]
        phi_prod = phi
        for j in range(d - 1, 1, -1):
            phi = z - alpha_tail[j - 1] - beta_sq_tail[j - 1] / phi
            phi_prod = phi_prod * phi
    denom = 1.0 + 0.0j
    for delta in delta_tail:
        denom = denom * delta
    return g_k * beta_k * phi_prod / denom


def bridge_entry(z: complex, g_k: complex, beta_k: float,
                 alpha_tail: Sequence[float], beta_tail: Sequence[float],
                 delta_tail: Sequence[complex]) -> complex:
    """Bridge entry ``h`` with ``|h| = |e_1^T (zI - T_{k+d})^{-1} e_{k+1}|``.

    ``alpha_tail[j-1] = alpha_{k+j}`` for ``j = 1..d``;
    ``beta_tail[j-1] = beta_{k+j}`` for ``j = 1..d-1``;
    ``delta_tail[j-1] = delta_{k+j}`` for ``j = 1..d``.
    ``d = 1`` has an empty backward-pivot product and degenerates to the
    corner entry ``g_{k+1}``.
    """
    d = len(delta_tail)
    if len(alpha_tail) != d or len(beta_tail) < d - 1:
        raise ValueError("tail lengths inconsistent with the lag")
    try:
        h = _bridge(z, g_k, beta_k, alpha_tail, [b ** 2 for b in beta_tail],
                    delta_tail)
    except ZeroDivisionError as exc:
        raise EstimatorUnavailable(
            "a backward pivot or the delta product vanished") from exc
    if not cmath.isfinite(h):
        raise EstimatorUnavailable("bridge entry overflowed")
    return h


@dataclass
class EstimateReport:
    """Estimates for iteration ``k``, emitted at iteration ``k + d``.

    ``mu`` is ``None`` when its recursion was unavailable; ``nu`` is always
    defined once the lag window is full.  ``g_abs``/``h_abs`` expose the
    corner and bridge magnitudes for oracle cross-checks.
    """

    k: int
    nu: float
    mu: Optional[float] = None
    g_abs: Optional[float] = None
    h_abs: Optional[float] = None


class DelayedDifferenceWindow:
    """The ``nu`` half alone over one iterate sequence, on Python scalars.

    Keeps the last ``d + 1`` iterates and reports ``nu_{k,d} = |x_k -
    x_{k+d}|`` with the scale ``|x_k|`` once the window fills.  No driver
    uses it: a :class:`~resolvquad.shift_batch.ShiftBatch` reads ``nu``
    from its own last ``d + 1`` value arrays.
    """

    def __init__(self, lag: int):
        if lag < 1:
            raise ValueError("estimator lag must be a positive integer")
        self.k = 0
        self._values: deque = deque(maxlen=lag + 1)

    def push(self, value: complex) -> Optional[tuple[int, float, float]]:
        """Return ``(k, nu_{k,d}, |x_k|)`` once iteration ``k + d`` arrives."""
        self.k += 1
        values = self._values
        values.append(complex(value))
        if len(values) < values.maxlen:
            return None
        base = values[0]
        return self.k - values.maxlen + 1, abs(base - values[-1]), abs(base)


# one retained iteration of EstimatorState; g is NaN once the corner failed
_Entry = namedtuple("_Entry", "k alpha beta_prev delta value g")


class EstimatorState:
    """Both estimates of one shift, on Python scalars, as the run goes.

    Feed it once per iteration via :meth:`push`; a report for the lagged
    iteration comes back as soon as the window of the last ``d + 1``
    iterations (:attr:`window`, oldest first) is full.  Once a corner entry
    fails (a vanished pivot or a non-finite product) the ``mu`` side of the
    shift is abandoned while ``nu`` keeps flowing.
    """

    def __init__(self, z: complex, lag: int, vnorm2: float):
        if lag < 1:
            raise ValueError("estimator lag must be a positive integer")
        self.z = z
        self.lag = lag
        self.vnorm2 = vnorm2
        self.k = 0
        self.window: list = []

    def push(self, alpha: float, beta_prev: Optional[float], delta: complex,
             value: complex) -> Optional[EstimateReport]:
        """Record iteration ``k`` data; return the report for ``k - d`` if due.

        ``alpha``/``delta``/``value`` belong to iteration ``k``;
        ``beta_prev`` is the off-diagonal ``beta_{k-1}`` that produced it.
        """
        self.k += 1
        try:
            g = (1.0 / delta if self.k == 1
                 else corner_update(self.window[-1].g, beta_prev, delta))
        except (ZeroDivisionError, EstimatorUnavailable):
            g = math.nan
        self.window = self.window[-self.lag:] + [
            _Entry(self.k, alpha, beta_prev, delta, value, g)]
        if self.k <= self.lag:
            return None
        base, *tail = self.window
        report = EstimateReport(k=base.k, nu=abs(base.value - value))
        if not cmath.isfinite(base.g):
            return report
        report.g_abs = abs(base.g)
        beta_k = tail[0].beta_prev
        try:
            h = bridge_entry(self.z, base.g, beta_k, [e.alpha for e in tail],
                             [e.beta_prev for e in tail[1:]],
                             [e.delta for e in tail])
        except EstimatorUnavailable:
            return report
        mu = beta_k * self.vnorm2 * report.g_abs * abs(h)
        if math.isfinite(mu):
            report.mu, report.h_abs = mu, abs(h)
        return report


def history_estimates(lag: int, shift: np.ndarray, k: np.ndarray,
                      value: np.ndarray, exact: np.ndarray = (),
                      lanczos: Optional[tuple] = None) -> tuple:
    """``(nu, mu, g_abs, h_abs)`` of a run's recorded iterations.

    ``shift``, ``k`` and ``value`` are the accepted cells of one run in
    ``(shift, k)`` order; every shift's cells run ``k = 1, 2, ...`` without
    a gap.  A cell ``(i, k)`` has estimates where shift ``i`` was accepted
    at ``k + lag`` too, the iteration whose push reported them.  The shifts
    in ``exact`` ended on an invariant subspace with an exact last value
    ``L_K``: their last ``lag`` cells take ``nu_{k,d} = |L_k - L_K|``, the
    corner magnitude and ``mu = 0`` at ``K``, where the vanished
    off-diagonal makes it exact.

    ``lanczos`` is ``(z, delta, alpha, beta, vnorm2)``: the run's shifts, the
    pivot ``delta`` of each cell and the stream's coefficients.  Without it
    only ``nu`` is computed.  The arrays are NaN where no estimate exists.
    """
    nu, mu, g_abs, h_abs = (np.full(k.size, np.nan) for _ in range(4))
    n = max(k.size - lag, 0)  # the cells with a cell lag places later
    base = np.flatnonzero((shift[lag:] == shift[:n])
                          & (k[lag:] == k[:n] + lag))
    nu[base] = cabs(value[base] - value[base + lag])
    last = np.searchsorted(shift, exact, side="right") - 1
    for j in range(lag):
        to = last[k[last] > j]  # the shifts with an iteration K - j
        nu[to - j] = cabs(value[to - j] - value[to])
    if lanczos is None:
        return nu, mu, g_abs, h_abs
    z, delta, alpha, beta, vnorm2 = lanczos
    kb = k[base]
    alpha = np.asarray(alpha)
    beta_sq = np.array([b ** 2 for b in beta])  # as bridge_entry squares
    beta_k = np.asarray(beta)[kb - 1]
    with np.errstate(all="ignore"):
        g = _corners(k, delta, beta)
        h = _bridge(z[shift[base]], g[base], beta_k,
                    [alpha[kb + j - 1] for j in range(1, lag + 1)],
                    [beta_sq[kb + j - 1] for j in range(1, lag)],
                    [delta[base + j] for j in range(1, lag + 1)])
        h_abs[base] = cabs(h)
        reported = ~np.isnan(nu)  # the values, hence nu, are finite
        g_abs[reported] = cabs(g[reported])
        mu[base] = beta_k * vnorm2 * g_abs[base] * h_abs[base]
    unavailable = base[~np.isfinite(mu[base])]
    mu[unavailable] = h_abs[unavailable] = np.nan
    mu[last] = 0.0
    return nu, mu, g_abs, h_abs


def _corners(k: np.ndarray, delta: np.ndarray, beta) -> np.ndarray:
    """The corner entry of every cell, NaN from where it turns non-finite;
    ``(shift, k)``-ordered cells, one recursion per shift, all shifts at
    once.  A non-finite entry keeps every later product non-finite, so one
    replacement at the end equals one per step."""
    g = np.empty_like(delta)
    first = np.flatnonzero(k == 1)
    g[first] = 1.0 / delta[first]
    # shifts by descending length: those still going at k are a prefix
    length = np.diff(np.append(first, k.size))
    order = np.argsort(-length, kind="stable")
    first, length = first[order], length[order]
    going = np.searchsorted(-length, -np.arange(2, length.max(initial=1) + 1),
                            side="right")
    for step, count in enumerate(going.tolist(), start=1):
        cells = first[:count] + step  # iteration step + 1
        g[cells] = corner_update(g[cells - 1], beta[step - 1], delta[cells])
    return np.where(np.isfinite(g), g, np.nan)
