import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad import cg_variants, shifted_lanczos, shifted_minres
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
from resolvquad.shifted_minres import minres_run

from conftest import (
    pi_history,
    random_hermitian,
    random_hermitian_dense,
    random_vector,
)

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
               for pi in pi_history(res)[0])
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
    asymmetric = SparseHermitianMatrix.from_dense([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        runner(asymmetric, np.ones(2), [2.0j])


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("runner, v, seed_shift, status", [
    # (z_s I - A) v overflows in the first matvec
    (cocg_run, [1e308, 1e308], None, SolveStatus.OVERFLOW),
    (cocr_run, [1e308, 1e308], None, SolveStatus.OVERFLOW),
    # w_0 = (1e-310 i, -1e-200): p^T w_0 = 1e-310 i has vanished at the
    # scale ||p|| ||w_0|| = 1e-200, whose squares all underflow
    (cocg_run, [1.0, 1e-200], 1 + 1e-310j, SolveStatus.SEED_BREAKDOWN),
], ids=["cocg-huge-v", "cocr-huge-v", "cocg-subnormal-seed"])
def test_overflow_ends_the_run_without_a_warning(runner, v, seed_shift,
                                                 status):
    """A first step that overflows, or whose seed product vanishes at the
    scale of a factor with underflowing squares, ends the run at k = 1
    with no numpy warning."""
    a = SparseHermitianMatrix.diagonal([1.0, 2.0])
    res = runner(a, np.array(v), [3 + 1j, 1.5 + 1j], seed_shift=seed_shift)
    assert res.iterations == 1
    assert [(s.status, s.iterations) for s in res.shifts] == [(status, 1)] * 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("diag, v, seed_shift, status, alphas", [
    # w_0 = 1e-160 i: q^T q = -1e-320 has not vanished, alpha_0 = 1e310 i
    ([1.0, 2.0], [1e150, 0.0], 1 + 1e-310j, SolveStatus.OVERFLOW, 0),
    # z_s is the Rayleigh quotient of v, so r_0^T (z_s I - A) r_0 = 0
    ([1.0, 2.0], [1.0, 1.0], 1.5 + 0j, SolveStatus.SEED_BREAKDOWN, 1),
    # (z_s - 0)^2 and (z_s - 2)^2 nearly cancel in q^T q, so alpha_0 is
    # about 5e9 and the projection v^H r_1 overflows
    ([0.0, 2.0], [1e152, 1e152 * (1 + 1e-10)], 1 + 1j, SolveStatus.OVERFLOW,
     1),
], ids=["alpha-overflow", "e-vanished", "projection-overflow"])
def test_cocr_seed_guards(diag, v, seed_shift, status, alphas):
    """Each COCR guard after the q^T q test ends the run at k = 1; the
    number of accepted ``alpha`` tells which guard did."""
    a = SparseHermitianMatrix.diagonal(diag)
    res = cocr_run(a, np.array(v, dtype=complex), [3 + 1j],
                   seed_shift=seed_shift)
    assert res.iterations == 1
    assert (res.shifts[0].status, res.shifts[0].iterations) == (status, 1)
    assert (len(res.seed_alpha), res.seed_beta) == (alphas, [])


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("scale", [1.0, 3.7, 1e150])
def test_exhausted_krylov_space_at_any_scale(runner, scale):
    """diag(1, 2) exhausts its Krylov space at k = 2 whatever the scale of
    ``v``; the residual left there is rounding noise, not an exact zero."""
    a, v = diag12()
    res = runner(a, scale * v, [3.0 + 0j])
    out = res.shifts[0]
    assert out.status is SolveStatus.CONVERGED
    assert out.iterations == 2 and res.iterations == 2
    want = 0.75 * scale**2  # |v|^2 (1/2 + 1/4), |v|^2 = scale^2
    assert abs(out.value - want) <= 1e-14 * want


@pytest.mark.parametrize("runner", RUNNERS)
def test_seed_guards_hold_at_any_scale_of_v(runner):
    """The seed products are compared with the norms of their own factors.
    With ``v`` scaled by ``2**-490`` they are near 1e-295, below an absolute
    1e-290 guard, yet the run is the unscaled run with every value scaled
    by exactly ``2**-980``."""
    rng = np.random.default_rng(31)
    a = random_hermitian(rng, 8, real=True)
    v = random_vector(rng, 8)
    shifts = generate_unit_circle_shifts(4)
    base = runner(a, v, shifts, rtol=None, max_iter=5)
    tiny = runner(a, 2.0 ** -490 * v, shifts, rtol=None, max_iter=5)
    assert tiny.iterations == base.iterations == 5
    for b, t in zip(base.shifts, tiny.shifts):
        assert (t.status, t.iterations) == (b.status, b.iterations)
        assert t.value == b.value * 2.0 ** -980


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("problem", ["diag12", "real8"])
def test_seed_products_keep_their_digits_where_the_squares_underflow(
        runner, problem):
    """At ``2**-565 v`` every square of ``v`` underflows.  The seed
    products are formed from factors scaled by powers of two, so the run
    ends with the statuses and iteration counts of the run on ``v``, and
    its seed scalars and ``pi`` are the same bits.  The values themselves
    underflow.  A subnormal ``v`` still runs to a final status."""
    if problem == "diag12":
        a, v = diag12()
    else:
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 8, real=True)
        v = random_vector(rng, 8)
    shifts = [3 + 1j, 1.5 + 1j, -0.5 + 0.1j]
    base = runner(a, v, shifts, rtol=None, keep_history=True)
    tiny = runner(a, 2.0 ** -565 * v, shifts, rtol=None, keep_history=True)
    assert tiny.iterations == base.iterations > 0
    assert ([(s.status, s.iterations) for s in tiny.shifts]
            == [(s.status, s.iterations) for s in base.shifts])
    assert (tiny.seed_alpha, tiny.seed_beta) == (base.seed_alpha,
                                                 base.seed_beta)
    assert pi_history(tiny) == pi_history(base)
    subnormal = runner(a, 2.0 ** -1065 * v, shifts, rtol=None)
    assert all(s.status is not SolveStatus.ACTIVE for s in subnormal.shifts)


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
    assert blown.history == [] and pi_history(res)[0] == []
    assert fine.value == pytest.approx(0.75e300, rel=1e-12)


def test_cocg_direction_overflow_freezes_before_its_value_does():
    # the pi_zero problem with the shift 1.5e-160 i off z = 1.5: pi_1 is
    # about 1e-160, so the value of iteration 1 is near 1e160, while the
    # direction, divided by pi_1 twice, overflows
    a, v = diag12()
    res = cocg_run(a, v, [1.5 + 1.5e-160j, 3.0 + 0j], seed_shift=0.0 + 0j,
                   keep_history=True)
    blown, fine = res.shifts
    assert (blown.status, blown.iterations, blown.value) == (
        SolveStatus.OVERFLOW, 1, None)
    assert blown.history == []
    assert fine.value == pytest.approx(0.75, rel=1e-12)


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
    for z, stored in zip(shifts, pi_history(res)):
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
        with pytest.raises(ValueError, match="reference"):
            runner(a, v, [2.0 + 0j], reference=[1.0, 2.0])


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
    """The 1e305 matrix of ``test_cli_overflowing_stream_is_exit_2``: the
    ``converged`` values of COCG and of COCR match the dense oracle, and
    each shift's history has one finite row per iteration, the last holding
    the converged value.  COCR's ``q^T q`` would overflow unscaled, so it
    is formed from factors scaled by powers of two."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((6, 6))
    a = SparseHermitianMatrix.from_dense((b + b.T) * 1e305)
    v = np.full(6, 1.0 / np.sqrt(6.0))
    shifts = generate_unit_circle_shifts(16)
    for run in (cocg_run, cocr_run):
        res = run(a, v, shifts, keep_history=True)
        for out, z in zip(res.shifts, shifts):
            want = dense_resolvent_quadform(a.to_dense(), v, z)
            assert out.status is SolveStatus.CONVERGED
            assert out.iterations == 6
            assert abs(out.value - want) <= 1e-13 * abs(want)
            rows = out.history
            assert [r.k for r in rows] == list(range(1, 7))
            assert all(np.isfinite(r.value) for r in rows)
            assert rows[-1].status is SolveStatus.CONVERGED
            assert rows[-1].value == out.value


@pytest.mark.parametrize("runner", [run_quadratic_forms, minres_run, cocg_run,
                                    cocr_run])
def test_overflowing_norm_is_no_exhausted_krylov_space(runner):
    """On the 3 x 3 tridiagonal with 1e308 on the diagonal and -1e308
    beside it, ``||A||_F = sqrt(7) 1e308`` overflows.  Under an infinite
    floor an exhausted Krylov space was found at k = 1, and COCG and COCR
    reported ``converged`` values 29% and 57% off the oracle.  Every
    ``converged`` value must be the oracle's to ``rtol``."""
    a = SparseHermitianMatrix.from_dense(
        1e308 * (np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)))
    v = np.full(3, 1 / np.sqrt(3.0))
    shifts = generate_unit_circle_shifts(4)
    res = runner(a, v, shifts, rtol=1e-10)
    for out, z in zip(res.shifts, shifts):
        if out.status is SolveStatus.CONVERGED:
            want = dense_resolvent_quadform(a.to_dense(), v, z)
            assert abs(out.value - want) <= 1e-10 * abs(want)


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


@pytest.mark.parametrize("runner, module", [
    (run_quadratic_forms, shifted_lanczos), (minres_run, shifted_minres)])
def test_driver_steps_its_stream_through_its_own_module(monkeypatch, runner,
                                                        module):
    """The benchmark's tracer times the stream where each driver looks up
    ``lanczos_step``, at call time, in its own module: one call per
    recorded ``beta_k``, plus the step that finds the invariant
    subspace."""
    modules = (shifted_lanczos, shifted_minres)
    calls = dict.fromkeys(modules, 0)
    for mod in modules:
        def counting(stream, _mod=mod, _step=mod.lanczos_step):
            calls[_mod] += 1
            return _step(stream)

        monkeypatch.setattr(mod, "lanczos_step", counting)
    # three distinct eigenvalues: the Krylov space is exhausted at k = 3
    a = SparseHermitianMatrix.diagonal([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    v = np.arange(1.0, 7.0)
    for max_iter, exhausted in ((2, False), (None, True)):
        calls.update(dict.fromkeys(modules, 0))
        res = runner(a, v, [1.0 + 1.0j, -2.0 + 0.5j], rtol=None,
                     max_iter=max_iter)
        assert (res.invariant_subspace_at is not None) is exhausted
        assert calls == {mod: (len(res.beta) + exhausted if mod is module
                               else 0) for mod in modules}
