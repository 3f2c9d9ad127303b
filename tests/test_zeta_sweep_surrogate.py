"""An offline surrogate for the mhd1280b criteria (6 and 7 in
``tests/test_acceptance.py``), which skip without the downloaded matrix.

The surrogate is diagonal, ``n = 1280``, with eigenvalues geometrically
spaced over ``[1e-11, 70]``, the extremal eigenvalues published for
mhd1280b, and a seeded complex ``v``.  As ``z = lambda_min + i zeta``
approaches the spectrum, ``kappa(z)`` grows like ``1 / zeta`` and so must
the iterations that reference stopping takes.  That trend is what it
checks, for Lanczos and MINRES, with every run converged.

Its rotated twin ``Q diag(lam) Q^T``, ``Q`` block diagonal with 640 seeded
2 x 2 rotations, started from ``Q v``, has the same spectrum and the same
weights, so the same partial-fraction values and, in exact arithmetic, the
same Krylov coefficients.  The twin takes the stored off-diagonal path of
the matrix-vector product and the Hermitian check, which the diagonal does
not; its counts must rise too, each within 5% of the diagonal's.

What it cannot test: mhd1280b's own counts (the published 219 / 281 and
76 / 226 / 680 / 1894, which depend on its eigenvalue distribution and on
the weights of ``v`` on its eigenvectors), so no count is asserted, nor
anything of its eigenvectors or of COCG and COCR on it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from resolvquad.core import SparseHermitianMatrix
from resolvquad.shifted_lanczos import run_quadratic_forms
from resolvquad.shifted_minres import minres_run

N = 1280
ZETAS = (1e-1, 1e-2, 1e-3, 1e-4)


def rotated_twin(lam, v):
    """``(Q diag(lam) Q^T, Q v)``, ``Q`` the 2 x 2 rotations of 640 seeded
    angles down the diagonal; each block's off-diagonal entry is formed
    once, so the stored matrix is exactly symmetric."""
    theta = np.random.default_rng(640).uniform(0.0, 2.0 * np.pi, N // 2)
    c, s = np.cos(theta), np.sin(theta)
    l0, l1 = lam[0::2], lam[1::2]
    off = c * s * (l0 - l1)
    first, second = np.arange(0, N, 2), np.arange(1, N, 2)
    rows = np.concatenate([first, first, second, second])
    cols = np.concatenate([first, second, first, second])
    vals = np.concatenate([c * c * l0 + s * s * l1, off, off,
                           s * s * l0 + c * c * l1])
    a = SparseHermitianMatrix.from_csr(
        sp.coo_matrix((vals, (rows, cols)), shape=(N, N)).tocsr())
    qv = np.empty_like(v)
    qv[0::2] = c * v[0::2] - s * v[1::2]
    qv[1::2] = s * v[0::2] + c * v[1::2]
    return a, qv


def sweep(driver, a, v, lam, weights):
    """Iterations to reference convergence at each ``zeta``."""
    counts = []
    for zeta in ZETAS:
        z = complex(lam[0], zeta)
        exact = complex(np.sum(weights / (z - lam)))  # partial fractions
        run = driver(a, v, [z], rtol=1e-10, max_iter=4 * N,
                     reference=[exact])
        assert run.converged, f"zeta={zeta}: {run.shifts[0].status}"
        counts.append(run.iterations_to_convergence)
    assert all(x < y for x, y in zip(counts, counts[1:])), counts
    return counts


@pytest.mark.parametrize("driver", [run_quadratic_forms, minres_run])
def test_iterations_rise_as_the_shift_nears_the_spectrum(driver):
    lam = np.geomspace(1e-11, 70.0, N)
    rng = np.random.default_rng(1280)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    weights = np.abs(v) ** 2
    counts = sweep(driver, SparseHermitianMatrix.diagonal(lam), v, lam,
                   weights)

    a, qv = rotated_twin(lam, v)
    assert a.nnz == 2 * N and a.hermitian_verified
    twin = sweep(driver, a, qv, lam, weights)
    assert all(abs(t - d) <= 0.05 * d for t, d in zip(twin, counts)), (
        twin, counts)
