import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad import cg_variants
from resolvquad.cg_variants import (
    TOL_PI,
    cocg_run,
    cocg_scalar_update,
    cocr_run,
    cocr_scalar_update,
    collinear_pi_update,
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
    res = runner(a, v, [3.0 + 0j], seed_shift=0.0 + 0j)
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    assert out.iterations <= 2
    assert out.value == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("runner", RUNNERS)
def test_seed_shift_collinearity_degenerates(runner):
    a, v = diag12()
    z_s = 1.0j
    res = runner(a, v, [z_s], seed_shift=z_s, keep_history=True)
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
    res = runner(a, v, shifts, rtol=1e-11, max_iter=300)
    for out, z in zip(res.shifts, shifts):
        assert out.status is SolveStatus.CONVERGED
        want = dense_resolvent_quadform(dense, v, z)
        assert abs(out.value - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("runner", RUNNERS)
def test_rejects_complex_matrix(runner, rng):
    a = random_hermitian(rng, 10)  # complex Hermitian
    v = random_vector(rng, 10)
    with pytest.raises(ValueError, match="real"):
        runner(a, v, [2.0j])


def test_cocg_seed_breakdown_on_isotropic_residual():
    # v^T v = 0 although v != 0: the transpose bilinear form vanishes
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 1.0j])
    res = cocg_run(a, v, [3.0 + 0j], seed_shift=0.0 + 0j)
    assert res.shifts[0].status is SolveStatus.SEED_BREAKDOWN


def test_cocr_seed_breakdown_on_isotropic_direction():
    # q_0 = -A v is isotropic: q^T q = 0 although q != 0
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    v = np.array([1.0, 0.5j])
    res = cocr_run(a, v, [3.0 + 0j], seed_shift=0.0 + 0j)
    assert res.shifts[0].status is SolveStatus.SEED_BREAKDOWN


def test_cocg_pi_zero_freezes_shift():
    # diag(1,2), v=(1,1)/sqrt 2, z_s=0: alpha_0 = -2/3, so the shift
    # z = z_s - 1/alpha_0 = 1.5 makes pi_1 = 0 exactly
    a, v = diag12()
    res = cocg_run(a, v, [1.5 + 0j, 3.0 + 0j], seed_shift=0.0 + 0j)
    assert res.shifts[0].status is SolveStatus.PI_ZERO
    assert res.shifts[1].value == pytest.approx(0.75, abs=1e-12)


def test_cocg_update_overflow_freezes_only_that_shift():
    # the pi_zero problem scaled by 1e150, with the shift 1e-20 off z = 1.5:
    # pi_1 = -(2/3) 1e-20 i passes TOL_PI, but pi_0/pi_1 * alpha_0 * p_0
    # overflows at the first iteration
    a, v = diag12()
    res = cocg_run(a, 1e150 * v, [1.5 + 1e-20j, 3.0 + 0j],
                   seed_shift=0.0 + 0j, keep_history=True)
    blown, fine = res.shifts
    assert blown.status is SolveStatus.OVERFLOW
    assert blown.iterations == 1 and blown.value is None
    assert blown.history == [] and res.pi_history[0] == []
    assert fine.value == pytest.approx(0.75e300, rel=1e-12)


@pytest.mark.parametrize("runner", RUNNERS)
def test_agreement_with_shifted_lanczos(runner, rng):
    dense = random_hermitian_dense(rng, 60, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 60, real=True)
    shifts = [0.9 + 0.5j, -1.1 + 0.25j]
    lan = run_quadratic_forms(a, v, shifts, rtol=1e-11, max_iter=400)
    res = runner(a, v, shifts, rtol=1e-11, max_iter=400)
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
    # the seed shift (sigma = 0, every pi is 1) and three off-seed shifts
    shifts = [0.3 + 0.7j, -0.5 + 0.2j, 1.1 + 0.05j]
    res = runner(a, v, shifts, rtol=1e-10, max_iter=200, keep_history=True)
    assert res.seed_shift == shifts[0]
    for z, stored in zip(shifts, res.pi_history):
        sigma = complex(z) - res.seed_shift
        pi_m2, pi_m1 = 1.0 + 0j, 1.0 + 0j
        alpha_prev, beta_prev = 1.0 + 0j, 0j
        replay = []
        for j, alpha_seed in enumerate(res.seed_alpha):
            shared = (beta_prev / alpha_prev) * alpha_seed
            pi_new = ((1.0 + alpha_seed * sigma + shared) * pi_m1
                      - shared * pi_m2)
            replay.append(pi_new)
            pi_m2, pi_m1 = pi_m1, pi_new
            alpha_prev = alpha_seed
            if j < len(res.seed_beta):
                beta_prev = res.seed_beta[j]
        assert len(stored) > 1
        assert replay[:len(stored)] == stored


def test_pi_update_on_arrays_rounds_as_python(rng):
    """On arrays the pi recursion is Python's complex arithmetic bitwise,
    also where a part of a product overflows."""
    def draw():
        exp = rng.uniform(-5.0, 160.0, (2, 2000))
        return rng.standard_normal(2000) * 10.0 ** exp[0] \
            + 1j * rng.standard_normal(2000) * 10.0 ** exp[1]

    pi_m1, pi_m2, sigma = draw(), draw(), draw()
    alpha_seed, shared = complex(draw()[0]), complex(draw()[0])
    with np.errstate(all="ignore"):
        got = collinear_pi_update(pi_m1, pi_m2, alpha_seed, shared, sigma)
    want = np.array([
        collinear_pi_update(complex(p1), complex(p2), alpha_seed, shared,
                            complex(sg))
        for p1, p2, sg in zip(pi_m1, pi_m2, sigma)])
    assert not np.isfinite(want).all()
    assert np.array_equal(got.real, want.real, equal_nan=True)
    assert np.array_equal(got.imag, want.imag, equal_nan=True)


def test_default_seed_picks_largest_imaginary():
    a, v = diag12()
    shifts = [1.0 + 0.1j, -2.0 - 0.9j, 0.5 + 0.4j, 3.0 + 0.9j]
    for runner in RUNNERS:
        assert runner(a, v, shifts).seed_shift == -2.0 - 0.9j


def test_config_validation():
    a, v = diag12()
    for runner in RUNNERS:
        with pytest.raises(ValueError, match="shift"):
            runner(a, v, [])
        with pytest.raises(ValueError, match="lag"):
            runner(a, v, [2.0 + 0j], lag=0)


@pytest.mark.parametrize("runner", RUNNERS)
def test_reference_stopping(runner, rng):
    dense = random_hermitian_dense(rng, 40, real=True)
    a = SparseHermitianMatrix.from_dense(dense)
    v = random_vector(rng, 40, real=True)
    z = 0.8 + 0.9j
    ref = dense_resolvent_quadform(dense, v, z)
    res = runner(a, v, [z], rtol=1e-10, max_iter=400, reference=[ref])
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
    cocg = cocg_run(a, v, shifts)
    for out, z in zip(cocg.shifts, shifts):
        want = dense_resolvent_quadform(a.to_dense(), v, z)
        assert out.status is SolveStatus.CONVERGED
        assert abs(out.value - want) <= 1e-13 * abs(want)
    cocr = cocr_run(a, v, shifts)
    assert cocr.iterations == 1
    for out in cocr.shifts:
        assert out.status is SolveStatus.OVERFLOW
        assert out.value is None and out.iterations == 1


def scalar_replay(res, z):
    """One shift of a COCG/COCR run on Python scalars, from the run's own
    seed scalars: ``(status, iterations, value)``, with status ``None`` for
    a shift still active when the seed stream ends."""
    cocg = res.method == "cocg"
    sigma = z - res.seed_shift
    pi_m2 = pi_m1 = 1.0 + 0j
    p = res.r_scalars[0] if cocg else 0j
    value, accepted = 0j, None
    alpha_prev, beta_prev = 1.0 + 0j, 0j
    for k, alpha_seed in enumerate(res.seed_alpha, start=1):
        shared = (beta_prev / alpha_prev) * alpha_seed
        pi_new = collinear_pi_update(pi_m1, pi_m2, alpha_seed, shared, sigma)
        if abs(pi_new) <= TOL_PI:
            return SolveStatus.PI_ZERO, k, accepted
        if cocg:
            value, p = cocg_scalar_update(
                pi_m1, pi_new, p, value, alpha_seed, res.seed_beta[k - 1],
                res.r_scalars[k])
        else:
            value, p = cocr_scalar_update(
                pi_m2, pi_m1, pi_new, p, value, alpha_seed, beta_prev,
                res.r_scalars[k - 1])
        if not (np.isfinite(value) and np.isfinite(p)):
            return SolveStatus.OVERFLOW, k, accepted
        pi_m2, pi_m1, accepted = pi_m1, pi_new, value
        alpha_prev = alpha_seed
        if k <= len(res.seed_beta):
            beta_prev = res.seed_beta[k - 1]
    return None, len(res.seed_alpha), accepted


def assert_matches_scalar_replay(res, shifts, max_iter):
    assert res.iterations == max_iter
    for out, z in zip(res.shifts, shifts):
        status, k, value = scalar_replay(res, complex(z))
        assert out.status is (status or SolveStatus.MAX_ITER)
        assert out.iterations == k
        if value is None:
            assert out.value is None
        else:
            assert abs(out.value - value) <= 1e-12 * abs(value)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40),
       real_v=st.booleans(), m=st.integers(1, 8), data=st.data())
def test_batch_agrees_with_scalar_replay(seed, n, real_v, m, data):
    """The shift batch against the scalar kernels run shift by shift."""
    rng = np.random.default_rng(seed)
    a = SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, n, real=True))
    v = random_vector(rng, n, real=real_v)
    shifts = [complex(3 * rng.standard_normal(),
                      (0.05 + 2 * rng.random()) * rng.choice([-1, 1]))
              for _ in range(m)]
    max_iter = data.draw(st.integers(1, n - 1))
    for runner in RUNNERS:
        res = runner(a, v, shifts, rtol=None, max_iter=max_iter)
        assert_matches_scalar_replay(res, shifts, max_iter)


def test_batch_pi_zero_agrees_with_scalar_replay():
    a, v = diag12()
    shifts = [1.5 + 0j, 3.0 + 0j]
    res = cocg_run(a, v, shifts, seed_shift=0.0 + 0j, rtol=None, max_iter=2)
    assert res.shifts[0].status is SolveStatus.PI_ZERO
    assert_matches_scalar_replay(res, shifts, 2)


KERNELS = ("collinear_pi_update", "cocg_scalar_update", "cocr_scalar_update")


@pytest.mark.parametrize("runner, update", [
    (cocg_run, "cocg_scalar_update"), (cocr_run, "cocr_scalar_update")])
def test_driver_runs_the_audited_kernels(monkeypatch, rng, runner, update):
    """Criterion 8 counts the operations of the three kernels on scalars;
    each driver calls its two once per iteration over the active shifts."""
    calls = {name: [] for name in KERNELS}
    for name in KERNELS:
        def counting(*args, _name=name, _kernel=getattr(cg_variants, name)):
            calls[_name].append(np.size(args[0]))
            return _kernel(*args)

        monkeypatch.setattr(cg_variants, name, counting)
    a = SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, 40, real=True))
    v = random_vector(rng, 40)
    # far from the spectrum converges in a few iterations, near it in many
    shifts = [0.2 + 3.0j, -1.0 + 1.0j, 0.5 + 0.2j, 1.0 + 0.05j]
    res = runner(a, v, shifts, rtol=1e-10)
    active = [sum(out.iterations >= k for out in res.shifts)
              for k in range(1, res.iterations + 1)]
    assert active[0] == len(shifts) and active[-1] < len(shifts)
    assert calls["collinear_pi_update"] == active
    assert calls[update] == active
    other, = set(KERNELS) - {"collinear_pi_update", update}
    assert calls[other] == []
