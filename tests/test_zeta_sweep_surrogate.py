"""An offline surrogate for the mhd1280b criteria (6 and 7 in
``tests/test_acceptance.py``), which skip without the downloaded matrix.

The surrogate is diagonal, ``n = 1280``, with eigenvalues geometrically
spaced over ``[1e-11, 70]``, the extremal eigenvalues published for
mhd1280b, and a seeded complex ``v``.  As ``z = lambda_min + i zeta``
approaches the spectrum, ``kappa(z)`` grows like ``1 / zeta`` and so must
the iterations that reference stopping takes.  That trend is what it
checks, for Lanczos and MINRES, with every run converged.

What it cannot test: mhd1280b's own counts (the published 219 / 281 and
76 / 226 / 680 / 1894, which depend on its eigenvalue distribution and on
the weights of ``v`` on its eigenvectors), so no count is asserted, nor
anything of its eigenvectors or of COCG and COCR on it.
"""

import numpy as np
import pytest

from resolvquad.core import SparseHermitianMatrix
from resolvquad.shifted_lanczos import run_quadratic_forms
from resolvquad.shifted_minres import minres_run

N = 1280
ZETAS = (1e-1, 1e-2, 1e-3, 1e-4)


@pytest.mark.parametrize("driver", [run_quadratic_forms, minres_run])
def test_iterations_rise_as_the_shift_nears_the_spectrum(driver):
    lam = np.geomspace(1e-11, 70.0, N)
    a = SparseHermitianMatrix.diagonal(lam)
    rng = np.random.default_rng(1280)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    weights = np.abs(v) ** 2
    counts = []
    for zeta in ZETAS:
        z = complex(lam[0], zeta)
        exact = complex(np.sum(weights / (z - lam)))  # partial fractions
        run = driver(a, v, [z], rtol=1e-10, max_iter=4 * N,
                     reference=[exact])
        assert run.converged, f"zeta={zeta}: {run.shifts[0].status}"
        counts.append(run.iterations_to_convergence)
    assert all(x < y for x, y in zip(counts, counts[1:])), counts
