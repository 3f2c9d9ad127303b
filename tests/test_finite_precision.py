"""Finite-precision behaviour past ``k = n``.

Without reorthogonalization the Lanczos basis loses orthogonality once a
Ritz value converges, and copies ("ghosts") of the converged eigenvalue
appear in ``T_k`` (Paige 1976).  The quadratic-form recursions then converge
later, but to the right limit: the values stay at the dense solve however
far the iteration runs past ``n``.  The test matrix has two eigenvalues,
``-10`` and ``10``, well separated from the other 58 in ``[-1, 1]``, so they
converge first and ghost early.  The seeded COCG and COCR runs, on their
own residual recurrences, stay at the dense solve past ``n`` as well.
"""

import numpy as np
import pytest

from resolvquad.cg_variants import cocg_run, cocr_run
from resolvquad.core import SolveStatus, SparseHermitianMatrix
from resolvquad.harness import generate_unit_circle_shifts
from resolvquad.oracle import dense_resolvent_quadform, tridiagonal_matrix
from resolvquad.shifted_lanczos import run_quadratic_forms
from resolvquad.shifted_minres import minres_run

N = 60
SHIFTS = generate_unit_circle_shifts(16)


@pytest.fixture(scope="module")
def separated():
    """A real symmetric ``n = 60`` matrix with eigenvalues ``+-10`` and 58
    spread over ``[-1, 1]``, and a real starting vector."""
    rng = np.random.default_rng(1976)
    lam = np.concatenate([[-10.0, 10.0], np.linspace(-1.0, 1.0, N - 2)])
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    dense = (q * lam) @ q.T
    return (dense + dense.T) / 2, rng.standard_normal(N)


@pytest.mark.parametrize("max_iter", [2 * N, 8 * N])
@pytest.mark.parametrize("runner", [run_quadratic_forms, minres_run])
def test_runs_past_n_keep_the_limit(separated, runner, max_iter):
    dense, v = separated
    a = SparseHermitianMatrix.from_dense(dense)
    res = runner(a, v, SHIFTS, rtol=None, max_iter=max_iter)
    assert res.iterations == max_iter
    assert res.invariant_subspace_at is None
    for out, z in zip(res.shifts, SHIFTS):
        assert out.status is SolveStatus.MAX_ITER
        want = dense_resolvent_quadform(dense, v, z)
        assert abs(out.value - want) <= 1e-12 * abs(want)
    # the basis did lose orthogonality: T_k holds ghost copies of +-10
    ritz = np.linalg.eigvalsh(tridiagonal_matrix(res.alpha, res.beta,
                                                 max_iter))
    assert np.sum(np.abs(ritz - 10.0) < 1e-8) > 1
    assert np.sum(np.abs(ritz + 10.0) < 1e-8) > 1


@pytest.mark.parametrize("max_iter", [2 * N, 8 * N])
@pytest.mark.parametrize("runner", [cocg_run, cocr_run])
def test_seeded_runs_past_n_keep_the_limit(separated, runner, max_iter):
    """No seed breakdown and no exhausted Krylov space is detected; the
    worst error measured was 9.9e-16 (COCG) and 3.1e-15 (COCR)."""
    dense, v = separated
    res = runner(SparseHermitianMatrix.from_dense(dense), v, SHIFTS,
                 rtol=None, max_iter=max_iter)
    assert res.iterations == max_iter
    for out, z in zip(res.shifts, SHIFTS):
        assert out.status is SolveStatus.MAX_ITER
        assert out.iterations == max_iter
        want = dense_resolvent_quadform(dense, v, z)
        assert abs(out.value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("runner", [run_quadratic_forms, minres_run])
def test_power_of_two_scaling_is_exact(separated, runner):
    """``A -> 4A``, ``z -> 4z`` scales every value by exactly 1/4."""
    dense, v = separated
    base = runner(SparseHermitianMatrix.from_dense(dense), v, SHIFTS,
                  rtol=None, max_iter=4 * N)
    scaled = runner(SparseHermitianMatrix.from_dense(4.0 * dense), v,
                    [4.0 * z for z in SHIFTS], rtol=None, max_iter=4 * N)
    assert [out.value / 4.0 for out in base.shifts] \
        == [out.value for out in scaled.shifts]


def test_scaling_invariance_once_converged(separated):
    """``A -> sA``, ``z -> sz`` gives ``L -> L/s``; ``s = 3.7`` rounds
    differently, so the values agree once both runs have converged."""
    dense, v = separated
    s = 3.7
    base = run_quadratic_forms(SparseHermitianMatrix.from_dense(dense), v,
                               SHIFTS, rtol=None, max_iter=200)
    scaled = run_quadratic_forms(SparseHermitianMatrix.from_dense(s * dense),
                                 v, [s * z for z in SHIFTS], rtol=None,
                                 max_iter=200)
    for b, c in zip(base.shifts, scaled.shifts):
        assert abs(s * c.value - b.value) <= 1e-13 * abs(b.value)
