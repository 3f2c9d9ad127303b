"""The shift-batch drivers against per-shift scalar runs, and their
behaviour when the Lanczos stream itself stops being finite."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad.core import SolveStatus, SparseHermitianMatrix
from resolvquad.lanczos import lanczos_init
from resolvquad.shifted_lanczos import (
    run_quadratic_forms,
    shift_state_init,
    shift_state_update,
)
from resolvquad.shifted_minres import minres_run

from conftest import random_hermitian_dense, random_vector

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
