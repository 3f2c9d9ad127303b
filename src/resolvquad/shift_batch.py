"""Per-shift bookkeeping shared by the shifted Lanczos, MINRES, COCG and
COCR drivers.

Each driver advances every unfrozen shift by the same iteration at the same
time, so their per-shift state is a set of numpy arrays over the *active*
shifts and each iteration is a handful of array operations.  A
:class:`ShiftBatch` holds what the drivers share around their kernels:

* freezing shifts with a status (breakdown, overflow, a vanished ``pi``,
  convergence, ``MAX_ITER``, invariant subspace) and their last accepted
  value,
* the two stopping rules: true relative error against a reference, or the
  delayed difference ``nu`` of a :class:`~resolvquad.error_estimate.LagWindow`,
* the per-iteration history rows.

The active shifts are an index array into the shift list.  Whenever shifts
freeze, it is compacted together with every array in :attr:`ShiftBatch.state`,
the accepted values and the lag window, so all of them always hold exactly
the shifts that still iterate.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .core import HistoryEntry, ShiftOutcome, SolveStatus
from .error_estimate import LagWindow, cabs

__all__ = ["ShiftBatch"]


class ShiftBatch:
    """Lockstep per-shift state, stopping and history of one driver run.

    ``mu_scale`` (``||v||^2``) makes the lag window compute ``mu`` and the
    corner/bridge entries; only recorded history reads them.
    """

    def __init__(self, shifts: Sequence[complex], *, rtol: Optional[float],
                 lag: int, reference: Optional[Sequence[complex]],
                 keep_history: bool, mu_scale: Optional[float] = None):
        self.z = np.array([complex(z) for z in shifts], dtype=np.complex128)
        if self.z.size == 0:
            raise ValueError("at least one shift is required")
        self.rtol = rtol
        self.reference = None
        if reference is not None:
            ref = np.array([complex(r) for r in reference],
                           dtype=np.complex128)
            if ref.shape != self.z.shape:
                raise ValueError("reference values must match the shift list")
            self.reference = ref
            self._ref_scale = np.where(ref == 0, 1.0, cabs(ref))
        self.active = np.arange(self.z.size)
        # the driver's per-shift arrays, compacted along with ``active``
        self.state = SimpleNamespace(z=self.z)
        self.value: Optional[np.ndarray] = None  # last accepted, per active
        self.residual: Optional[np.ndarray] = None
        self.window = LagWindow(self.z, lag, mu_scale)
        self.history = ([[] for _ in range(self.z.size)] if keep_history
                        else None)
        self._outcomes: list = [None] * self.z.size

    @property
    def running(self) -> bool:
        return self.active.size > 0

    def _rows(self) -> list:
        return [self.history[i] for i in self.active]

    # -- freezing ---------------------------------------------------------------

    def freeze(self, k: int, *groups, row: bool = False) -> None:
        """Freeze the shifts of each ``(status, mask)`` group at iteration ``k``.

        Masks run over the active shifts; a shift in two groups takes the
        first status.  A frozen shift keeps its last accepted value.  With
        ``row`` a history row for iteration ``k`` records the freeze;
        otherwise the status goes on the shift's last row.
        """
        gone = None
        for status, mask in groups:
            if gone is not None:
                mask = mask & ~gone
            if not mask.any():
                continue
            for pos in np.flatnonzero(mask).tolist():
                self._close(pos, status, k, row)
            gone = mask if gone is None else gone | mask
        if gone is not None:
            self._compact(~gone)

    def freeze_all(self, k: int, status: SolveStatus) -> None:
        self.freeze(k, (status, np.ones(self.active.size, dtype=bool)))

    def _close(self, pos: int, status: SolveStatus, k: int, row: bool) -> None:
        i = int(self.active[pos])
        value = None if self.value is None else complex(self.value[pos])
        residual = None if self.residual is None else float(self.residual[pos])
        hist = None
        if self.history is not None:
            hist = self.history[i]
            if row:
                hist.append(HistoryEntry(k=k, value=value, status=status))
            elif hist:
                hist[-1].status = status
        self._outcomes[i] = ShiftOutcome(
            z=complex(self.z[i]), value=value, iterations=k, status=status,
            history=hist, residual_norm=residual)

    def _compact(self, keep: np.ndarray) -> None:
        self.active = self.active[keep]
        for name, arr in vars(self.state).items():
            setattr(self.state, name, arr[keep])
        if self.value is not None:
            self.value = self.value[keep]
        if self.residual is not None:
            self.residual = self.residual[keep]
        self.window.compact(keep)

    # -- one iteration ----------------------------------------------------------

    def accept(self, k: int, value: np.ndarray,
               residual: Optional[np.ndarray] = None, **coefficients) -> None:
        """Take iteration ``k``'s values of every active shift.

        Records history, feeds the lag window (``coefficients`` are its
        ``alpha``, ``beta_prev`` and ``delta``) and freezes the shifts that
        meet the stopping rule.
        """
        self.value = value
        self.residual = residual
        err = None
        if self.reference is not None:
            ref = self.reference[self.active]
            err = cabs(value - ref) / self._ref_scale[self.active]
        if self.history is not None:
            self._record(k, value, residual, err)
        report = self.window.push(value, **coefficients)
        if report is not None and self.history is not None:
            self._attach([report])
        if self.rtol is None:
            return
        if err is not None:
            self.freeze(k, (SolveStatus.CONVERGED, err <= self.rtol))
        elif report is not None:
            self.freeze(k, (SolveStatus.CONVERGED,
                            report.nu <= self.rtol * report.scale))

    def _record(self, k, value, residual, err) -> None:
        n = value.size
        values = value.tolist()
        errs = err.tolist() if err is not None else [None] * n
        residuals = residual.tolist() if residual is not None else [None] * n
        active = SolveStatus.ACTIVE
        for hist, x, e, r in zip(self._rows(), values, errs, residuals):
            hist.append(HistoryEntry(k=k, value=x, status=active, rel_err=e,
                                     residual=r))

    def _attach(self, reports) -> None:
        rows = self._rows()
        for report in reports:
            mus, nus, gs, hs = report.columns()
            for hist, mu, nu, g_abs, h_abs in zip(rows, mus, nus, gs, hs):
                entry = hist[report.k - 1]
                entry.mu, entry.nu = mu, nu
                entry.g_abs, entry.h_abs = g_abs, h_abs

    def flush_exact(self) -> None:
        """Fill the pending estimates after an invariant subspace: every
        active value is exact from here on (history only)."""
        if self.history is not None:
            self._attach(self.window.flush_exact(self.value))

    def finish(self, k: int) -> list:
        """Freeze the shifts still active as ``MAX_ITER``; every outcome."""
        if self.running:
            self.freeze_all(k, SolveStatus.MAX_ITER)
        return self._outcomes
