"""Criterion 6's ordering offline: Lanczos takes fewer iterations than
MINRES, and MINRES fewer than COCG and COCR (``tests/test_acceptance.py``
asserts it on mhd1280b, which skips without the downloaded matrix).

The problem is the 5-point Laplacian of the 70 x 70 grid (n = 4900) with
``v = ones / 70`` and the 64 shifts of ``generate_unit_circle_shifts(64)``.
Its spectrum is known in closed form: with ``mu_j = 4 sin^2(j pi / 142)``
the eigenvalues are ``mu_j + mu_l`` and the weights of ``v`` on the
eigenvectors are the squared DST-I coefficients of ``v`` on the grid, so
``v^H (zI - A)^{-1} v = sum_{j,l} w_jl / (z - mu_j - mu_l)`` exactly.
Every method stops on that reference at 1e-10.

The counts were 278 (Lanczos), 355 (MINRES), 398 (COCG) and 407 (COCR),
the same at one and at two BLAS threads.  With 16 shifts the four counts
were 85, 85, 85 and 86 on the 60 x 60 grid, so the shift set matters.
MINRES trails Lanczos through its basis projection ``q_k = v^H v_k``,
which orthogonality loss moves off its exact values (``||v||`` at k = 1,
zero after); the counts are what the drivers take, so no driver changes to
close the gap.

A vector MINRES that keeps the Lanczos basis and solves each least-squares
problem densely shows where the gap comes from, on the 60 x 60 grid with
32 shifts: on shift 0 it first met 1e-10 at k = 212, as ``minres_run``
did, and its variant with the exact ``q_k`` at k = 155, as
``run_quadratic_forms`` did.
"""

import math

import numpy as np
import scipy.fft
import scipy.linalg

from resolvquad.cg_variants import cocg_run, cocr_run
from resolvquad.core import SolveStatus, SparseHermitianMatrix
from resolvquad.harness import generate_unit_circle_shifts
from resolvquad.lanczos import lanczos_init, lanczos_step
from resolvquad.shifted_lanczos import run_quadratic_forms
from resolvquad.shifted_minres import minres_run

from conftest import laplacian

GRID = 70
SHIFTS = 64
RTOL = 1e-10
# required gaps in iterations_to_convergence, about half of the measured
# ones: 278 < 355 < min(398, 407)
LANCZOS_MARGIN = 40  # MINRES - Lanczos, measured 77
MINRES_MARGIN = 20  # min(COCG, COCR) - MINRES, measured 43


def exact_values(v, shifts, grid=GRID):
    """``v^H (zI - A)^{-1} v`` per shift from the closed-form spectrum."""
    j = np.arange(1, grid + 1)
    mu = 4.0 * np.sin(j * math.pi / (2 * (grid + 1))) ** 2
    poles = (mu[:, None] + mu[None, :]).ravel()
    coeff = scipy.fft.dstn(v.reshape(grid, grid), type=1, norm="ortho")
    weights = (np.abs(coeff) ** 2).ravel()
    return [complex(np.sum(weights / (z - poles))) for z in shifts]


def test_lanczos_beats_minres_beats_cocg_and_cocr_on_a_laplacian():
    a = SparseHermitianMatrix.from_csr(laplacian(GRID))
    v = np.full(GRID * GRID, 1.0 / GRID)
    shifts = generate_unit_circle_shifts(SHIFTS)
    reference = exact_values(v, shifts)
    counts = {}
    for name, driver in (("lanczos", run_quadratic_forms),
                         ("minres", minres_run), ("cocg", cocg_run),
                         ("cocr", cocr_run)):
        run = driver(a, v, shifts, rtol=RTOL, reference=reference)
        assert run.converged, (name, {o.status for o in run.shifts})
        counts[name] = run.iterations_to_convergence
    assert counts["lanczos"] + LANCZOS_MARGIN <= counts["minres"], counts
    assert counts["minres"] + MINRES_MARGIN \
        <= min(counts["cocg"], counts["cocr"]), counts


VECTOR_GRID = 60
VECTOR_SHIFTS = 32
# iterations by which the vector MINRES may first meet RTOL away from the
# driver: the dense solve and the driver's rotations round differently
SLACK = 5


def vector_minres_first_hits(a, v, z, exact, max_iter=400):
    """The first ``k`` at which a vector MINRES for ``(zI - A) x = v`` is
    within ``RTOL`` of ``exact``, and the first at which its exact-``q``
    variant is.

    It keeps the basis ``V_k`` of the package's Lanczos stream, takes the
    ``y_k`` that minimizes ``|| ||v|| e_1 - (z I - T)_{k+1,k} y ||`` by a
    dense QR, and forms ``M_k = v^H (V_k y_k)``.  The variant takes
    ``v^H V_k`` at its exact-arithmetic value ``||v|| e_1^T``, so that its
    ``M_k = ||v|| y_k[0]``.
    """
    stream = lanczos_init(a, v)
    vnorm = math.sqrt(stream.vnorm2)
    basis = np.empty((max_iter, v.size))  # row j - 1 holds v_j
    first = {}
    for k in range(1, max_iter + 1):
        basis[k - 1] = stream.v_curr
        lanczos_step(stream)  # beta_k, the last row of (z I - T)_{k+1,k}
        alpha = np.asarray(stream.coeffs.alpha[:k])
        beta = np.asarray(stream.coeffs.beta)
        h = np.zeros((k + 1, k), np.complex128)
        i = np.arange(k)
        h[i, i] = z - alpha
        h[i + 1, i] = -beta
        h[i[:-1], i[:-1] + 1] = -beta[:-1]
        q, r = np.linalg.qr(h)
        y = scipy.linalg.solve_triangular(r, vnorm * q[0].conj())
        x = y.real @ basis[:k] + 1j * (y.imag @ basis[:k])
        for name, value in (("vector", np.vdot(v, x)),
                            ("exact_q", vnorm * y[0])):
            if name not in first and abs(value - exact) <= RTOL * abs(exact):
                first[name] = k
        if len(first) == 2:
            return first["vector"], first["exact_q"]
    raise AssertionError(f"not within {RTOL} by {max_iter}: {first}")


def test_minres_trails_lanczos_through_its_basis_projection():
    """On shift 0 the driver's MINRES count is a vector MINRES's on the
    same basis, and the gap to Lanczos closes once ``q_k = v^H v_k`` takes
    its exact values."""
    a = SparseHermitianMatrix.from_csr(laplacian(VECTOR_GRID))
    v = np.full(VECTOR_GRID ** 2, 1.0 / VECTOR_GRID)
    shifts = generate_unit_circle_shifts(VECTOR_SHIFTS)
    reference = exact_values(v, shifts, VECTOR_GRID)
    counts = {}
    for name, driver in (("lanczos", run_quadratic_forms),
                         ("minres", minres_run)):
        outcome = driver(a, v, shifts, rtol=RTOL,
                         reference=reference).shifts[0]
        assert outcome.status is SolveStatus.CONVERGED, (name, outcome)
        counts[name] = outcome.iterations
    vector, exact_q = vector_minres_first_hits(a, v, shifts[0], reference[0])
    assert abs(vector - counts["minres"]) <= SLACK, (vector, counts)
    assert abs(exact_q - counts["lanczos"]) <= SLACK, (exact_q, counts)
