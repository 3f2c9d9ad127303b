import functools
import operator

import numpy as np
import pytest
import scipy.sparse as sp

from resolvquad.core import SparseHermitianMatrix
from resolvquad.lanczos import lanczos_init


def random_hermitian_dense(rng, n, real=False, scale=True):
    """Random (real or complex) Hermitian matrix; scaled so ||A||_2 ~ 2."""
    b = rng.standard_normal((n, n))
    if not real:
        b = b + 1j * rng.standard_normal((n, n))
    a = (b + b.conj().T) / 2
    if scale:
        a = a / np.sqrt(n)
    return a


def random_hermitian(rng, n, real=False, scale=True):
    return SparseHermitianMatrix.from_dense(
        random_hermitian_dense(rng, n, real=real, scale=scale))


def random_vector(rng, n, real=False):
    v = rng.standard_normal(n)
    if not real:
        v = v + 1j * rng.standard_normal(n)
    return v.astype(np.complex128)


def pi_history(result) -> list:
    """Per shift of a COCG or COCR result, ``pi`` after each accepted
    iteration, read from its history rows (``None`` per shift without
    history)."""
    return [None if s.history is None else [row.pi for row in s.history]
            for s in result.shifts]


def random_jacobi(rng, k):
    """Random Lanczos-style coefficients: real alphas, positive betas."""
    alpha = list(rng.standard_normal(k))
    beta = list(np.abs(rng.standard_normal(k - 1)) + 0.1)
    return alpha, beta


def stream_problem(seed, n, real, kind, scale):
    """A Hermitian problem and its shifts: off-axis ones, the exact Rayleigh
    quotient ``alpha_1`` and shifts 1e-3 and 1e-12 off eigenvalues.

    ``kind="three"`` has three distinct eigenvalues (an invariant subspace
    at k = 3); for ``"eigvec"`` ``v`` is an eigenvector of a diagonal matrix
    and one more shift its exact eigenvalue (a breakdown at k = 1);
    ``"bipartite"`` has a zero diagonal, integer entries and shifts on the
    imaginary axis, so values with zero parts occur.  ``v`` is multiplied
    by ``scale``: at 1e150 the shifts 1e-12 off an eigenvalue overflow.
    """
    rng = np.random.default_rng(seed)
    cplx = float if real else complex
    if kind == "eigvec":
        dense = np.diag(rng.integers(-4, 5, size=n) / 4.0).astype(cplx)
        v = np.zeros(n, dtype=cplx)
        j = rng.integers(n)
        v[j] = 1.0 if real else 0.6 - 0.8j
    elif kind == "bipartite":
        m = max(n // 2, 1)
        b = rng.integers(-2, 3, size=(m, n - m)).astype(cplx)
        if not real:
            b += 1j * rng.integers(-2, 3, size=b.shape)
        dense = np.zeros((n, n), dtype=cplx)
        dense[:m, m:], dense[m:, :m] = b, b.conj().T
        v = np.zeros(n, dtype=cplx)
        v[rng.integers(n)] = 1.0
    else:
        dense = random_hermitian_dense(rng, n, real=real)
        if kind == "three":
            q = np.linalg.eigh(dense)[1]
            dense = (q * rng.choice([-1.5, 0.25, 2.0], size=n)) @ q.conj().T
            dense = (dense + dense.conj().T) / 2
        v = random_vector(rng, n, real=real)
    a = SparseHermitianMatrix.from_dense(dense)
    lam = np.linalg.eigvalsh(dense)
    shifts = [complex(3 * rng.standard_normal(),
                      (0.05 + 2 * rng.random()) * rng.choice([-1, 1]))
              for _ in range(3)]
    shifts.append(complex(lanczos_init(a, v).coeffs.alpha[0]))
    shifts.append(complex(lam[rng.integers(n)], 1e-3))
    shifts.append(complex(lam[rng.integers(n)], -1e-12))
    if kind == "eigvec":
        shifts.append(complex(dense[j, j].real))
    if kind == "bipartite":
        shifts += [1j, -0.5j, 2j]
    return a, v * scale, shifts


def result_bits(res):
    """Every output of a Lanczos or MINRES run as bytes, statuses and
    counts."""
    def b(x, dtype):
        return None if x is None else np.array(x, dtype=dtype).tobytes()

    out = [(o.status, o.iterations, b(o.value, complex),
            b(o.residual_norm, float)) for o in res.shifts]
    if res.history is not None:
        out.append({name: (col.dtype, col.tobytes())
                    for name, col in res.history.columns().items()})
    return res.iterations, out


def chunk_sum(op, x, y, chunk=8192):
    """The sum, in index order, of ``op`` on consecutive ``chunk``-entry
    slices of ``x`` and ``y``, added as Python scalars."""
    parts = [op(x[i:i + chunk], y[i:i + chunk]).item()
             for i in range(0, x.size, chunk)]
    return functools.reduce(operator.add, parts)


def long_tridiagonal(n: int, real_v: bool, seed: int = 7):
    """A random real symmetric tridiagonal of order ``n``, with a real or a
    complex start vector."""
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    csr = sp.diags([off, rng.standard_normal(n), off], [-1, 0, 1],
                   format="csr")
    v = rng.standard_normal(n) if real_v else random_vector(rng, n)
    return SparseHermitianMatrix.from_csr(csr), v


def laplacian(grid: int) -> sp.csr_matrix:
    """The 5-point Laplacian on a ``grid x grid`` grid: five diagonals,
    ``4 grid`` cells of padding."""
    t = sp.diags([-np.ones(grid - 1), 2.0 * np.ones(grid),
                  -np.ones(grid - 1)], [-1, 0, 1])
    eye = sp.identity(grid)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()


def kronecker_sum(rng, n1, n2, real=False):
    """``A = T1 (x) I + I (x) T2`` and ``v = v1 (x) v2`` for random Jacobi
    matrices ``T1`` of order ``n1`` and ``T2`` of order ``n2``, with
    complex off-diagonals unless ``real``, and the exact quadratic form
    ``Q(z) = v^H (zI - A)^{-1} v`` as a function of ``z``.

    ``T1 = U diag(lambda) U^H`` and ``T2 = X diag(mu) X^H`` give
    ``Q(z) = sum_{j,l} w1_j w2_l / (z - lambda_j - mu_l)`` with
    ``w1 = |U^H v1|^2`` and ``w2 = |X^H v2|^2``: two small ``eigh`` and
    O(n1 n2) per shift, at any ``n = n1 n2``.  The diagonals are
    ``N(0, 1/4)`` and the off-diagonal moduli uniform on ``[1/4, 3/4]``,
    so the spectrum of ``A`` lies within about ``[-4, 4]``.
    """
    factors = []
    for m in (n1, n2):
        off = rng.uniform(0.25, 0.75, m - 1)
        if not real:
            off = off * np.exp(2j * np.pi * rng.random(m - 1))
        t = sp.diags([off.conj(), 0.5 * rng.standard_normal(m), off],
                     [-1, 0, 1], format="csr")
        u = random_vector(rng, m, real=real)
        lam, q = np.linalg.eigh(t.toarray())
        factors.append((t, u, lam, np.abs(q.conj().T @ u) ** 2))
    (t1, v1, lam, w1), (t2, v2, mu, w2) = factors
    a = sp.kron(t1, sp.identity(n2)) + sp.kron(sp.identity(n1), t2)
    poles = lam[:, None] + mu[None, :]
    weights = np.outer(w1, w2)

    def quadform(z):
        return complex(np.sum(weights / (z - poles)))

    return (SparseHermitianMatrix.from_csr(a.tocsr()), np.kron(v1, v2),
            quadform)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
