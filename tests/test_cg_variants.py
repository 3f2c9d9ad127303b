import numpy as np
import pytest

from resolvquad.cg_variants import (
    SeededShiftedRunConfig,
    cocg_run,
    cocr_run,
    pick_seed_shift,
)
from resolvquad.core import SolveStatus, SparseHermitianMatrix
from resolvquad.harness import generate_unit_circle_shifts
from resolvquad.oracle import dense_resolvent_quadform
from resolvquad.shifted_lanczos import run_quadratic_forms

from conftest import random_hermitian, random_hermitian_dense, random_vector

RUNNERS = [cocg_run, cocr_run]


def diag12():
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return a, v


@pytest.mark.parametrize("runner", RUNNERS)
def test_two_by_two_converges_in_two_iterations(runner):
    a, v = diag12()
    config = SeededShiftedRunConfig(shifts=[3.0 + 0j], seed_shift=0.0 + 0j)
    res = runner(a, v, config)
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    assert out.iterations <= 2
    assert out.value == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("runner", RUNNERS)
def test_seed_shift_collinearity_degenerates(runner):
    a, v = diag12()
    z_s = 1.0j
    config = SeededShiftedRunConfig(shifts=[z_s], seed_shift=z_s,
                                    keep_history=True)
    res = runner(a, v, config)
    assert all(pi == pytest.approx(1.0, abs=1e-14)
               for pi in res.pi_history[0])
    want = dense_resolvent_quadform(a.to_dense(), v, z_s)
    assert res.shifts[0].value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("runner", RUNNERS)
def test_complex_v_matches_oracle(runner, rng):
    """Resolves the projection-conjugation question: the v^H products as
    implemented must converge to the dense reference for complex v."""
    dense = random_hermitian_dense(rng, 30, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 30)  # genuinely complex
    shifts = [1.5 + 0.8j, -0.4 + 0.3j]
    config = SeededShiftedRunConfig(shifts=shifts, rtol=1e-11, max_iter=300)
    res = runner(a, v, config)
    for out, z in zip(res.shifts, shifts):
        assert out.status is SolveStatus.CONVERGED
        want = dense_resolvent_quadform(dense, v, z)
        assert abs(out.value - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("runner", RUNNERS)
def test_rejects_complex_matrix(runner, rng):
    a = random_hermitian(rng, 10)  # complex Hermitian
    v = random_vector(rng, 10)
    config = SeededShiftedRunConfig(shifts=[2.0j])
    with pytest.raises(ValueError, match="real"):
        runner(a, v, config)


def test_cocg_seed_breakdown_on_isotropic_residual():
    # v^T v = 0 although v != 0: the transpose bilinear form vanishes
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0j])
    config = SeededShiftedRunConfig(shifts=[3.0 + 0j], seed_shift=0.0 + 0j)
    res = cocg_run(a, v, config)
    assert res.shifts[0].status is SolveStatus.SEED_BREAKDOWN


def test_cocr_seed_breakdown_on_isotropic_direction():
    # q_0 = -A v is isotropic: q^T q = 0 although q != 0
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 0.5j])
    config = SeededShiftedRunConfig(shifts=[3.0 + 0j], seed_shift=0.0 + 0j)
    res = cocr_run(a, v, config)
    assert res.shifts[0].status is SolveStatus.SEED_BREAKDOWN


def test_cocg_pi_zero_freezes_shift():
    # diag(1,2), v=(1,1)/sqrt 2, z_s=0: alpha_0 = -2/3, so the shift
    # z = z_s - 1/alpha_0 = 1.5 makes pi_1 = 0 exactly
    a, v = diag12()
    config = SeededShiftedRunConfig(shifts=[1.5 + 0j, 3.0 + 0j],
                                    seed_shift=0.0 + 0j)
    res = cocg_run(a, v, config)
    assert res.shifts[0].status is SolveStatus.PI_ZERO
    assert res.shifts[1].value == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("runner", RUNNERS)
def test_agreement_with_shifted_lanczos(runner, rng):
    dense = random_hermitian_dense(rng, 60, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 60, real=True)
    shifts = [0.9 + 0.5j, -1.1 + 0.25j]
    lan = run_quadratic_forms(a, v, shifts, rtol=1e-11, max_iter=400)
    config = SeededShiftedRunConfig(shifts=shifts, rtol=1e-11, max_iter=400)
    res = runner(a, v, config)
    for lo, co in zip(lan.shifts, res.shifts):
        assert lo.status is SolveStatus.CONVERGED
        assert co.status is SolveStatus.CONVERGED
        assert abs(co.value - lo.value) <= 1e-8 * abs(lo.value)


@pytest.mark.parametrize("runner", RUNNERS)
def test_pi_replay_is_bitwise(runner, rng):
    """Collinearity scalars depend only on the seed stream: replaying the
    recurrence from the recorded seed scalars reproduces them bitwise."""
    dense = random_hermitian_dense(rng, 25, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 25, real=True)
    shifts = [0.3 + 0.7j]
    config = SeededShiftedRunConfig(shifts=shifts, rtol=1e-10, max_iter=200,
                                    keep_history=True)
    res = runner(a, v, config)
    z = complex(shifts[0])
    sigma = z - res.seed_shift
    pi_m2, pi_m1 = 1.0 + 0j, 1.0 + 0j
    alpha_prev, beta_prev = 1.0 + 0j, 0j
    replay = []
    for j, alpha_seed in enumerate(res.seed_alpha):
        shared = (beta_prev / alpha_prev) * alpha_seed
        pi_new = (1.0 + alpha_seed * sigma + shared) * pi_m1 - shared * pi_m2
        replay.append(pi_new)
        pi_m2, pi_m1 = pi_m1, pi_new
        alpha_prev = alpha_seed
        if j < len(res.seed_beta):
            beta_prev = res.seed_beta[j]
    stored = res.pi_history[0]
    assert replay[:len(stored)] == stored


def test_default_seed_picks_largest_imaginary():
    shifts = [1.0 + 0.1j, -2.0 - 0.9j, 0.5 + 0.4j]
    assert pick_seed_shift(shifts) == -2.0 - 0.9j


def test_config_validation():
    with pytest.raises(ValueError, match="shift"):
        SeededShiftedRunConfig(shifts=[]).validate()
    with pytest.raises(ValueError, match="distinct"):
        SeededShiftedRunConfig(shifts=[2.0 + 0j, 2.0 + 0j]).validate()
    with pytest.raises(ValueError, match="lag"):
        SeededShiftedRunConfig(shifts=[2.0 + 0j], lag=0).validate()


@pytest.mark.parametrize("runner", RUNNERS)
def test_reference_stopping(runner, rng):
    dense = random_hermitian_dense(rng, 40, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 40, real=True)
    z = 0.8 + 0.9j
    ref = dense_resolvent_quadform(dense, v, z)
    config = SeededShiftedRunConfig(shifts=[z], rtol=1e-10, max_iter=400,
                                    reference=[ref])
    res = runner(a, v, config)
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    assert abs(out.value - ref) <= 1e-10 * abs(ref)


def test_near_overflow_matrix_against_dense_oracle():
    """The 1e305 matrix of ``test_cli_overflowing_stream_is_exit_2``: COCG's
    ``converged`` values match the dense oracle; COCR's ``q^T q`` overflows
    on the first iteration, so every shift is an overflow with no value."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((6, 6))
    a = SparseHermitianMatrix.from_dense((b + b.T) * 1e305)
    v = np.full(6, 1.0 / np.sqrt(6.0))
    shifts = generate_unit_circle_shifts(16)
    config = SeededShiftedRunConfig(shifts=shifts)
    cocg = cocg_run(a, v, config)
    for out, z in zip(cocg.shifts, shifts):
        want = dense_resolvent_quadform(a.to_dense(), v, z)
        assert out.status is SolveStatus.CONVERGED
        assert abs(out.value - want) <= 1e-13 * abs(want)
    cocr = cocr_run(a, v, config)
    assert cocr.iterations == 1
    for out in cocr.shifts:
        assert out.status is SolveStatus.OVERFLOW
        assert out.value is None and out.iterations == 1
