"""The shift-batch drivers against per-shift scalar runs, the batch's
``nu`` stopping against a scan of each shift, the float64 stream against
the complex one, and the drivers' behaviour when the Lanczos stream itself
stops being finite."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad.cg_variants import cocg_run, cocr_run
from resolvquad.core import SolveStatus, SparseHermitianMatrix
from resolvquad.lanczos import lanczos_init
from resolvquad.shift_batch import ShiftBatch
from resolvquad.shifted_lanczos import (
    run_quadratic_forms,
    shift_state_init,
    shift_state_update,
)
from resolvquad.shifted_minres import minres_run

from conftest import random_hermitian_dense, random_vector, stream_problem

AGREE_RTOL = 1e-12


def close(got, want):
    if want is None:
        return got is None
    return abs(got - want) <= AGREE_RTOL * abs(want)


def mixed_problem(seed, n, real, offaxis):
    """A random Hermitian problem with off-axis shifts, the exact Rayleigh
    quotient ``alpha_1`` (a pivot breakdown at k = 1) and a shift 1e-3
    above an eigenvalue."""
    rng = np.random.default_rng(seed)
    dense = random_hermitian_dense(rng, n, real=real)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, n)
    shifts = [complex(3 * rng.standard_normal(),
                      (0.05 + 2 * rng.random()) * rng.choice([-1, 1]))
              for _ in range(offaxis)]
    shifts.append(complex(lanczos_init(a, v).coeffs.alpha[0]))
    lam = np.linalg.eigvalsh(dense)
    shifts.append(complex(lam[rng.integers(n)], 1e-3))
    return a, v, shifts


def scalar_lanczos(res, z):
    """``shift_state_init``/``shift_state_update`` over the run's own
    coefficients; returns the state and the iteration it stopped at."""
    state = shift_state_init(z, res.vnorm2, res.alpha[0])
    k = 1
    for j in range(1, len(res.alpha)):
        if state.status is not SolveStatus.ACTIVE:
            break
        k += 1
        shift_state_update(state, res.alpha[j], res.beta[j - 1])
    return state, k


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
       real=st.booleans(), offaxis=st.integers(1, 6),
       max_iter=st.integers(1, 40))
def test_lanczos_batch_agrees_with_scalar_recursion(seed, n, real, offaxis,
                                                    max_iter):
    a, v, shifts = mixed_problem(seed, n, real, offaxis)
    res = run_quadratic_forms(a, v, shifts, rtol=None, max_iter=max_iter)
    assert res.shifts[-2].status is SolveStatus.BREAKDOWN
    for out, z in zip(res.shifts, shifts):
        state, k = scalar_lanczos(res, z)
        if state.status is SolveStatus.ACTIVE:
            want = (SolveStatus.CONVERGED if res.invariant_subspace_at
                    else SolveStatus.MAX_ITER)
        else:
            want = state.status
        assert out.status is want
        assert out.iterations == k
        assert close(out.value, state.L)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
       real=st.booleans(), offaxis=st.integers(1, 6),
       max_iter=st.integers(1, 40))
def test_minres_batch_agrees_with_single_shift_runs(seed, n, real, offaxis,
                                                    max_iter):
    a, v, shifts = mixed_problem(seed, n, real, offaxis)
    res = minres_run(a, v, shifts, rtol=None, max_iter=max_iter)
    for out, z in zip(res.shifts, shifts):
        alone = minres_run(a, v, [z], rtol=None, max_iter=max_iter).shifts[0]
        assert out.status is alone.status
        assert out.iterations == alone.iterations
        assert close(out.value, alone.value)
        assert close(out.residual_norm, alone.residual_norm)


# Measured over 600 problems: coefficients 7.8e-15 * ||A||_2, values 4.1e-13.
ROTATION_COEFF_TOL = 1e-13
ROTATION_VALUE_RTOL = 1e-11


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
       theta=st.floats(0.0, 2 * math.pi), offaxis=st.integers(1, 6),
       data=st.data())
def test_real_stream_agrees_with_phase_rotated_complex_stream(
        seed, n, theta, offaxis, data):
    """``v`` real runs the float64 stream, ``e^{i theta} v`` the complex one;
    the coefficients and ``v^H (zI - A)^{-1} v`` are invariant under the
    rotation.  ``k <= n / 2`` keeps both streams short of the loss of
    orthogonality that amplifies rounding differences."""
    rng = np.random.default_rng(seed)
    dense = random_hermitian_dense(rng, n, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    v = rng.standard_normal(n)
    shifts = [complex(3 * rng.standard_normal(),
                      (0.05 + 2 * rng.random()) * rng.choice([-1, 1]))
              for _ in range(offaxis)]
    shifts.append(complex(np.linalg.eigvalsh(dense)[rng.integers(n)], 1e-3))
    max_iter = data.draw(st.integers(1, n // 2))
    scale = np.linalg.norm(dense, 2)
    for driver in (run_quadratic_forms, minres_run):
        real = driver(a, v, shifts, rtol=None, max_iter=max_iter)
        rotated = driver(a, np.exp(1j * theta) * v, shifts, rtol=None,
                         max_iter=max_iter)
        assert len(real.alpha) == len(rotated.alpha)
        assert len(real.beta) == len(rotated.beta)
        for x, y in zip(real.alpha + real.beta, rotated.alpha + rotated.beta):
            assert abs(x - y) <= ROTATION_COEFF_TOL * scale
        assert real.iterations == rotated.iterations
        for got, want in zip(real.shifts, rotated.shifts):
            assert got.status is want.status
            assert got.iterations == want.iterations
            assert abs(got.value - want.value) \
                <= ROTATION_VALUE_RTOL * abs(want.value)


def scan_nu_stopping(xs, failed, rtol, lag):
    """``(status, iterations, value)`` of one shift stopped on ``nu``, by
    brute force over its own accepted values."""
    accepted = []
    for k, (x, fail) in enumerate(zip(xs, failed), start=1):
        if fail or not cmath.isfinite(x):
            status = SolveStatus.BREAKDOWN if fail else SolveStatus.OVERFLOW
            return status, k, accepted[-1] if accepted else None
        accepted.append(x)
        if len(accepted) > lag:
            base = accepted[-1 - lag]
            if abs(base - x) <= rtol * abs(base):
                return SolveStatus.CONVERGED, k, x
    return SolveStatus.MAX_ITER, len(xs), accepted[-1]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
       iters=st.integers(1, 30), lag=st.integers(1, 5),
       rtol=st.sampled_from([1e-1, 1e-3]),
       fail_rate=st.sampled_from([0.0, 0.05, 0.2]))
def test_nu_stopping_under_compaction_equals_a_scan_of_each_shift(
        seed, m, iters, lag, rtol, fail_rate):
    """Random value sequences (some converging, some with a non-finite
    entry) and failure masks that freeze shifts in the middle of a lag
    window: every outcome's status, iteration and value bits are those of
    a scan of the shift's own accepted values."""
    rng = np.random.default_rng(seed)
    shape = (m, iters)
    decay = rng.uniform(0.05, 1.1, size=(m, 1)) ** np.arange(1, iters + 1)
    xs = (rng.standard_normal(m) + 1j * rng.standard_normal(m))[:, None] \
        + decay * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    xs[rng.random(shape) < 0.02] = complex(math.inf, 0.0)
    failed = rng.random(shape) < fail_rate
    batch = ShiftBatch(np.arange(m) + 1j, rtol=rtol, lag=lag, reference=None,
                       keep_history=False)
    with np.errstate(all="ignore"):
        for k in range(1, iters + 1):
            if not batch.running:
                break
            at = (batch.active, k - 1)
            batch.step(k, xs[at], (SolveStatus.BREAKDOWN, failed[at]))
    outcomes = batch.finish(iters)
    for out, x, fail in zip(outcomes, xs.tolist(), failed.tolist()):
        assert (out.status, out.iterations, out.value) \
            == scan_nu_stopping(x, fail, rtol, lag)


def overflowing_matrix():
    """Finite entries near 1e305 whose Lanczos stream overflows at beta_1."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((6, 6))
    return SparseHermitianMatrix.from_dense((b + b.T) * 1e305)


@pytest.mark.parametrize("keep_history", [False, True])
def test_lanczos_overflowing_stream_freezes_every_shift(keep_history):
    a = overflowing_matrix()
    v = np.full(6, 1.0 / math.sqrt(6.0), dtype=complex)
    shifts = [1.0 + 1.0j, -0.5 + 0.2j]
    res = run_quadratic_forms(a, v, shifts, keep_history=keep_history)
    alpha1 = res.alpha[0]
    for out, z in zip(res.shifts, shifts):
        assert out.status is SolveStatus.OVERFLOW
        assert out.iterations == 1
        assert out.value == pytest.approx(1.0 / (z - alpha1), rel=1e-14)
        if keep_history:
            assert [row.status for row in out.history] == [
                SolveStatus.OVERFLOW]


def test_minres_overflowing_stream_freezes_every_shift():
    a = overflowing_matrix()
    v = np.full(6, 1.0 / math.sqrt(6.0), dtype=complex)
    res = minres_run(a, v, [1.0 + 1.0j, -0.5 + 0.2j], keep_history=True)
    for out in res.shifts:
        assert out.status is SolveStatus.OVERFLOW
        assert out.iterations == 0
        assert out.value is None and out.history == []


@pytest.mark.parametrize("driver", [run_quadratic_forms, minres_run])
def test_non_finite_first_coefficient_freezes_every_shift(driver):
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0])
    v = np.array([np.nan, 1.0, 1.0], dtype=complex)
    res = driver(a, v, [1.0 + 1.0j, 2.0j])
    assert res.iterations == 0
    for out in res.shifts:
        assert out.status is SolveStatus.OVERFLOW
        assert out.value is None and out.iterations == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
       real=st.booleans(),
       kind=st.sampled_from(["dense", "three", "eigvec", "bipartite"]),
       scale=st.sampled_from([1.0, 1e150]))
def test_no_recorded_value_is_non_finite(seed, n, real, kind, scale):
    """``ShiftBatch.step`` freezes a shift whose new value is not finite as
    ``overflow`` before it records the value, so no value cell of any
    driver's history is NaN or infinite: on problems whose values overflow
    (``v`` scaled by 1e150, shifts 1e-12 off an eigenvalue) and break down
    (the Rayleigh-quotient shift, an eigenvector ``v``)."""
    a, v, shifts = stream_problem(seed, n, real, kind, scale)
    drivers = [run_quadratic_forms, minres_run]
    if real:
        drivers += [cocg_run, cocr_run]
    for driver in drivers:
        res = driver(a, v, shifts, max_iter=30, keep_history=True)
        cols = res.history.columns()
        assert np.all(np.isfinite(cols["value"][cols["has_value"]]))
