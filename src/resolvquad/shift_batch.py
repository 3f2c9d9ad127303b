"""Per-shift bookkeeping shared by the shifted Lanczos, MINRES, COCG and
COCR drivers.

Each driver advances every unfrozen shift by the same iteration at the same
time, so their per-shift state is a set of numpy arrays over the *active*
shifts and each iteration is a handful of array operations.  A
:class:`ShiftBatch` holds what the drivers share around their kernels:

* freezing shifts into their :class:`~resolvquad.core.ShiftOutcome`, the
  one record of how each ended: its status (breakdown, overflow, a vanished
  ``pi``, convergence, ``MAX_ITER``, invariant subspace) and last value,
* the two stopping rules: true relative error against a reference, or the
  delayed difference ``nu_{k-d,d} = |L_{k-d} - L_k|`` over the batch's own
  last ``d + 1`` accepted value arrays,
* the convergence history, recorded as columns
  (:class:`~resolvquad.core.HistoryColumns`): each iteration appends its
  arrays over the active shifts, and nothing is created per shift per
  iteration.  Its status cells and its lag-``d`` estimates, ``mu`` among
  them, are derived after the run from the outcomes and those columns; the
  solve loop computes only the ``nu`` that stopping reads.

An iteration is one :meth:`ShiftBatch.step`: the shifts that failed (a
breakdown, an overflow, a vanished ``pi``) freeze first, the others take the
iteration's values, and those that meet the stopping rule freeze as
converged, in one pass.  The active shifts are an index array into the
shift list.  Whenever shifts freeze, it is compacted, once per iteration,
together with every array in :attr:`ShiftBatch.state` (the reference values
among them) and the accepted value arrays, so all of them always hold
exactly the shifts that still iterate.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .core import HistoryColumns, ShiftOutcome, SolveStatus
from .error_estimate import cabs

__all__ = ["ShiftBatch"]


class ShiftBatch:
    """Lockstep per-shift state, stopping and history of one driver run;
    :meth:`finish` hands the outcomes to the history."""

    def __init__(self, shifts: Sequence[complex], *, rtol: Optional[float],
                 lag: int, reference: Optional[Sequence[complex]],
                 keep_history: bool):
        self.z = np.array([complex(z) for z in shifts], dtype=np.complex128)
        if self.z.size == 0:
            raise ValueError("at least one shift is required")
        self.rtol = rtol
        self.active = np.arange(self.z.size)
        # the driver's per-shift arrays, compacted along with ``active``
        self.state = SimpleNamespace(z=self.z)
        self.referenced = reference is not None
        if self.referenced:
            ref = np.array([complex(r) for r in reference],
                           dtype=np.complex128)
            if ref.shape != self.z.shape:
                raise ValueError("reference values must match the shift list")
            self.state.reference = ref
            self.state.reference_scale = np.where(ref == 0, 1.0, cabs(ref))
        if lag < 1:
            raise ValueError("estimator lag must be a positive integer")
        # the last accepted value arrays, oldest first, as the drivers hand
        # them in (they never write to them again): the d + 1 that nu reads
        # when it stops the run, the last one otherwise
        self.window: deque = deque(
            maxlen=lag + 1 if rtol is not None and not self.referenced else 1)
        # MINRES: ``(scale, f)`` of the last accepted iteration, f per
        # active shift; the residual norms are scale * |f|
        self.residual: Optional[tuple] = None
        self.history = HistoryColumns(self.z, lag) if keep_history else None
        self._outcomes: list = [None] * self.z.size

    @property
    def value(self) -> np.ndarray:
        """The last accepted value of every active shift; zeros before the
        first accepted iteration, where every accumulator starts."""
        if self.window:
            return self.window[-1]
        return np.zeros(self.active.size, dtype=np.complex128)

    @property
    def running(self) -> bool:
        return self.active.size > 0

    # -- freezing ---------------------------------------------------------------

    def freeze(self, k: int, *groups) -> None:
        """Freeze the shifts of each ``(status, mask)`` group at iteration ``k``.

        Masks run over the active shifts; a shift in two groups takes the
        first status.  A frozen shift keeps its last accepted value.
        """
        gone = self._close_groups(k, groups)
        if gone is not None:
            self._compact(~gone)

    def freeze_all(self, k: int, status: SolveStatus) -> None:
        self.freeze(k, (status, np.ones(self.active.size, dtype=bool)))

    def _close_groups(self, k: int, groups, gone=None):
        """Close each group's shifts not in ``gone`` (``None``: none) and
        return ``gone`` with them added; nothing is compacted."""
        for status, mask in groups:
            if gone is not None:
                mask = mask & ~gone
            if not np.count_nonzero(mask):
                continue
            self._close(np.flatnonzero(mask), status, k)
            gone = mask if gone is None else gone | mask
        return gone

    def _close(self, pos: np.ndarray, status: SolveStatus, k: int) -> None:
        shifts = self.active[pos]
        n = pos.size
        values = self.window[-1][pos].tolist() if self.window else [None] * n
        residuals = ([None] * n if self.residual is None
                     else _residual_norm(self.residual, pos).tolist())
        for i, z, x, r in zip(shifts.tolist(), self.z[shifts].tolist(),
                              values, residuals):
            self._outcomes[i] = ShiftOutcome(
                z=z, value=x, iterations=k, status=status,
                residual_norm=r, index=i, recorded=self.history)

    def _compact(self, keep: np.ndarray) -> None:
        self.active = self.active[keep]
        for name, arr in vars(self.state).items():
            setattr(self.state, name, arr[keep])
        window = self.window
        for j in range(len(window)):
            window[j] = window[j][keep]
        if self.residual is not None:
            scale, f = self.residual
            self.residual = (scale, f[keep])

    # -- one iteration ----------------------------------------------------------

    def step(self, k: int, value: np.ndarray, *failed,
             residual: Optional[tuple] = None,
             pi: Optional[np.ndarray] = None,
             delta: Optional[np.ndarray] = None) -> None:
        """Take iteration ``k`` of every active shift, with one compaction.

        The shifts of the ``(status, mask)`` groups in ``failed`` freeze
        first, as :meth:`freeze` freezes them, with their last accepted
        value, and then, as ``OVERFLOW``, those whose ``value`` is not
        finite.  The others take ``value``: history records them (with the
        COCG/COCR ``pi`` or the Lanczos pivot ``delta`` when given), and
        those that meet the stopping rule freeze as converged.
        ``residual`` is MINRES's ``(scale, f)``, ``f`` the residual factor
        of each active shift; the residual norms ``scale * |f|`` are formed
        only for the shifts that freeze, or for all of them when history is
        kept.
        """
        gone = self._close_groups(
            k, (*failed, (SolveStatus.OVERFLOW, ~np.isfinite(value))))
        self.window.append(value)
        self.residual = residual
        err = None
        if self.referenced:
            s = self.state
            err = cabs(value - s.reference) / s.reference_scale
        if self.history is not None:
            cols = [self.active, value, err,
                    None if residual is None else _residual_norm(residual),
                    pi, delta]
            if gone is not None:
                keep = ~gone
                cols = [None if c is None else c[keep] for c in cols]
            self.history.accept(k, *cols)
        if self.rtol is not None:
            window = self.window
            if err is not None:
                converged = err <= self.rtol
            elif len(window) == window.maxlen:  # nu_{k-d,d} is due
                base = window[0]
                converged = cabs(base - value) <= self.rtol * cabs(base)
            else:
                converged = None
            if converged is not None and np.count_nonzero(converged):
                gone = self._close_groups(
                    k, ((SolveStatus.CONVERGED, converged),), gone)
        if gone is not None:
            self._compact(~gone)

    def mark_exact(self) -> None:
        """Record an invariant subspace: every active value is exact, which
        fills the history's pending estimates."""
        if self.history is not None:
            self.history.exact = self.active

    def finish(self, k: int) -> list:
        """Freeze the shifts still active as ``MAX_ITER``; every outcome,
        which the history's status cells are derived from."""
        if self.running:
            self.freeze_all(k, SolveStatus.MAX_ITER)
        if self.history is not None:
            self.history.outcomes = self._outcomes
        return self._outcomes


def _residual_norm(residual: tuple, pos=slice(None)) -> np.ndarray:
    """MINRES's residual norms ``scale * |f|`` from ``(scale, f)``, at the
    active positions ``pos``."""
    scale, f = residual
    return scale * cabs(f[pos])
