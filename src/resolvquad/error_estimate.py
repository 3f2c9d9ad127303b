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

:class:`LagWindow` keeps the last ``d + 1`` iterations of a whole batch of
shifts that advance in lockstep, as rings of shape ``(m, d + 1)`` indexed by
the global iteration.  ``nu`` is always reported, because the stopping rule
reads it; ``mu`` and the corner/bridge entries are computed, vectorised over
the ring, only when the window is given the ``mu`` scale ``||v||^2``.  After
an invariant subspace :meth:`LagWindow.flush_exact` reports the iterations
still pending against the exact final value.  The scalar
:class:`EstimatorState` is that window over a batch of one shift,
:class:`DelayedDifferenceWindow` its ``nu`` half over one shift (no driver
uses it), and :func:`corner_update` and :func:`bridge_entry` run the same
elementwise arithmetic the window runs on arrays.

Estimator failures (vanished pivots, non-finite products) degrade to
"estimate not available" and never touch the solver itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import isfinite_scalar

__all__ = [
    "DEFAULT_LAG",
    "EstimatorUnavailable",
    "EstimateReport",
    "EstimatorState",
    "LagReport",
    "LagWindow",
    "DelayedDifferenceWindow",
    "cabs",
    "corner_update",
    "bridge_entry",
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


def _bridge(z, g_k, beta_k, alpha_tail, beta_tail, delta_tail):
    """The bridge entry's arithmetic, elementwise over ``z``, ``g_k`` and
    the ``delta_tail`` entries.  On Python scalars a vanished pivot raises
    ``ZeroDivisionError``; on arrays it leaves a non-finite entry."""
    d = len(delta_tail)
    phi_prod = 1.0 + 0.0j
    if d >= 2:
        phi = z - alpha_tail[d - 1]
        phi_prod = phi
        for j in range(d - 1, 1, -1):
            phi = z - alpha_tail[j - 1] - beta_tail[j - 1] ** 2 / phi
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
        h = _bridge(z, g_k, beta_k, alpha_tail, beta_tail, delta_tail)
    except ZeroDivisionError as exc:
        raise EstimatorUnavailable(
            "a backward pivot or the delta product vanished") from exc
    if not isfinite_scalar(h):
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
    value_abs: float = 0.0  # |L_k|, the scale the nu stopping rule uses
    mu: Optional[float] = None
    g_abs: Optional[float] = None
    h_abs: Optional[float] = None


@dataclass
class LagReport:
    """Estimates for iteration ``k`` of every shift in a window.

    Arrays over the window's shifts; ``mu``, ``g_abs`` and ``h_abs`` are
    ``None`` when the window computes no ``mu``, and NaN where an entry is
    unavailable.
    """

    k: int
    nu: np.ndarray
    scale: np.ndarray  # |L_k|, the scale the nu stopping rule uses
    mu: Optional[np.ndarray] = None
    g_abs: Optional[np.ndarray] = None
    h_abs: Optional[np.ndarray] = None

    def columns(self) -> list:
        """Per-shift ``(mu, nu, g_abs, h_abs)`` lists, ``None`` for NaN."""
        none = [None] * len(self.nu)
        return [none if col is None
                else [None if x != x else x for x in col.tolist()]
                for col in (self.mu, self.nu, self.g_abs, self.h_abs)]

    def shift(self, i: int) -> EstimateReport:
        mu, nu, g_abs, h_abs = (col[i] for col in self.columns())
        return EstimateReport(k=self.k, nu=nu,
                              value_abs=float(self.scale[i]), mu=mu,
                              g_abs=g_abs, h_abs=h_abs)


class LagWindow:
    """Ring of the last ``d + 1`` iterations of shifts advancing in lockstep.

    Feed it once per iteration via :meth:`push` with the iterates of every
    shift; the report for the lagged iteration comes back as soon as the
    ring is full.  With ``mu_scale`` set (``||v||^2``), the corner entries
    ``g`` ride along in a second ring; once one turns non-finite that
    shift's ``mu`` side is abandoned while ``nu`` keeps flowing.  The ring's
    rows follow the batch: :meth:`compact` drops the shifts that froze.
    """

    def __init__(self, z, lag: int, mu_scale: Optional[float] = None):
        if lag < 1:
            raise ValueError("estimator lag must be a positive integer")
        self.lag = lag
        self.k = 0
        z = np.asarray(z, dtype=np.complex128)
        self.values = np.zeros((z.size, lag + 1), dtype=np.complex128)
        self.mu_scale = mu_scale
        if mu_scale is not None:
            self.z = z
            self.g = np.zeros_like(self.values)
            self.delta = np.zeros_like(self.values)
            self.alpha: list = [None] * (lag + 1)
            self.beta_prev: list = [None] * (lag + 1)

    def slot(self, k: int) -> int:
        return k % (self.lag + 1)

    def compact(self, keep: np.ndarray) -> None:
        self.values = self.values[keep]
        if self.mu_scale is not None:
            self.z = self.z[keep]
            self.g = self.g[keep]
            self.delta = self.delta[keep]

    def push(self, value: np.ndarray, alpha: Optional[float] = None,
             beta_prev: Optional[float] = None,
             delta: Optional[np.ndarray] = None) -> Optional[LagReport]:
        """Record iteration ``k``; return the report for ``k - d`` if due.

        ``alpha``/``delta``/``value`` belong to iteration ``k``;
        ``beta_prev`` is the off-diagonal ``beta_{k-1}`` that produced it.
        Only the ``mu`` side reads ``alpha``, ``beta_prev`` and ``delta``.
        """
        self.k += 1
        s = self.slot(self.k)
        self.values[:, s] = value
        if self.mu_scale is not None:
            with np.errstate(all="ignore"):
                if self.k == 1:
                    g = 1.0 / delta
                elif beta_prev is None:
                    g = np.full_like(delta, np.nan)
                else:
                    g = corner_update(self.g[:, self.slot(self.k - 1)],
                                      beta_prev, delta)
            self.g[:, s] = np.where(np.isfinite(g), g, np.nan)
            self.delta[:, s] = delta
            self.alpha[s] = alpha
            self.beta_prev[s] = beta_prev
        if self.k <= self.lag:
            return None
        base = self.values[:, self.slot(self.k + 1)]
        report = LagReport(k=self.k - self.lag, nu=cabs(base - value),
                           scale=cabs(base))
        if self.mu_scale is not None:
            self._mu(report)
        return report

    def _mu(self, report: LagReport) -> None:
        k0 = report.k
        base = self.slot(k0)
        tail = [self.slot(k0 + j) for j in range(1, self.lag + 1)]
        g_abs = cabs(self.g[:, base])
        beta_k = self.beta_prev[tail[0]]
        if beta_k is None:
            h_abs = mu = np.full_like(g_abs, np.nan)
        else:
            with np.errstate(all="ignore"):
                h = _bridge(self.z, self.g[:, base], beta_k,
                            [self.alpha[s] for s in tail],
                            [self.beta_prev[s] for s in tail[1:]],
                            [self.delta[:, s] for s in tail])
                h_abs = cabs(h)
                mu = beta_k * self.mu_scale * g_abs * h_abs
        ok = np.isfinite(mu)
        report.mu = np.where(ok, mu, np.nan)
        report.g_abs = g_abs
        report.h_abs = np.where(ok, h_abs, np.nan)

    def flush_exact(self, value_final: np.ndarray) -> list[LagReport]:
        """Close out pending iterations after an invariant subspace.

        The iteration stopped at ``k_last`` with an exact value, so
        ``L_j = value_final`` for every virtual ``j > k_last`` and
        ``nu_{k,d} = |L_k - value_final|`` for the pending ``k``.  ``mu`` is
        only defined for the terminal iteration itself, where the vanished
        off-diagonal makes it exactly zero.
        """
        reports = []
        for k in range(max(1, self.k - self.lag + 1), self.k + 1):
            values = self.values[:, self.slot(k)]
            report = LagReport(k=k, nu=cabs(values - value_final),
                               scale=cabs(values))
            if self.mu_scale is not None:
                report.mu = np.full(values.shape,
                                    0.0 if k == self.k else np.nan)
                report.g_abs = cabs(self.g[:, self.slot(k)])
                report.h_abs = np.full(values.shape, np.nan)
            reports.append(report)
        return reports


class DelayedDifferenceWindow:
    """The ``nu`` half alone over one iterate sequence: a :class:`LagWindow`
    of one shift without ``mu``.

    Reports ``nu_{k,d} = |x_k - x_{k+d}|`` with the scale ``|x_k|`` once the
    lag window fills.
    """

    def __init__(self, lag: int):
        self._ring = LagWindow(np.zeros(1), lag)

    def push(self, value: complex) -> Optional[tuple[int, float, float]]:
        """Return ``(k, nu_{k,d}, |x_k|)`` once iteration ``k + d`` arrives."""
        report = self._ring.push(np.array([value], dtype=np.complex128))
        if report is None:
            return None
        return report.k, float(report.nu[0]), float(report.scale[0])


@dataclass
class _Entry:
    k: int
    alpha: float
    beta_prev: Optional[float]  # beta_{k-1}, None at k = 1
    delta: complex
    value: complex
    g: Optional[complex]


class EstimatorState:
    """The lag window of one shift: a :class:`LagWindow` over a batch of one.

    Feed it once per iteration via :meth:`push`; a report for the lagged
    iteration comes back as soon as the window is full.
    """

    def __init__(self, z: complex, lag: int, vnorm2: float):
        self.z = z
        self.lag = lag
        self.vnorm2 = vnorm2
        self._ring = LagWindow([z], lag, mu_scale=vnorm2)

    @property
    def window(self) -> list[_Entry]:
        """The retained iterations, oldest first."""
        ring = self._ring
        entries = []
        for k in range(max(1, ring.k - self.lag), ring.k + 1):
            s = ring.slot(k)
            g = complex(ring.g[0, s])
            entries.append(_Entry(
                k, ring.alpha[s], ring.beta_prev[s], complex(ring.delta[0, s]),
                complex(ring.values[0, s]), None if g != g else g))
        return entries

    def push(self, alpha: float, beta_prev: Optional[float], delta: complex,
             value: complex) -> Optional[EstimateReport]:
        """Record iteration ``k`` data; return the report for ``k - d`` if due.

        ``alpha``/``delta``/``value`` belong to iteration ``k``;
        ``beta_prev`` is the off-diagonal ``beta_{k-1}`` that produced it.
        """
        report = self._ring.push(np.array([value], dtype=np.complex128),
                                 alpha, beta_prev,
                                 np.array([delta], dtype=np.complex128))
        return None if report is None else report.shift(0)
