"""Independent brute-force references for verification.

Everything here recomputes, by a route disjoint from the production
recursions, the quantities those recursions produce: dense shifted solves,
spectral partial fractions, tridiagonal resolvent entries by the Thomas
algorithm, and the shifted determinant recursion whose pivot ratios must
reproduce the production ``delta`` sequence.

The solvers never call them, so the production cost model stays honest.
Besides the tests and the benchmark, the harness uses them for its
reference step (``--reference``) and for ``spectrum-offset:`` shifts.  A
real symmetric matrix stays ``float64`` there, so LAPACK's real symmetric
eigensolver runs; any other matrix is taken as ``complex128``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SingularShiftError",
    "ZeroPivotError",
    "SpectralDecomposition",
    "eigenpairs",
    "spectral_decomposition",
    "spectral_weights",
    "dense_resolvent_quadform",
    "spectral_quadform",
    "condition_number",
    "tridiagonal_matrix",
    "tridiag_resolvent_entry",
    "thomas_solve",
    "shifted_determinant_sequence",
]

MAX_DENSE_N = 2000  # eigendecomposition guard; desk-scale oracle only


class SingularShiftError(ValueError):
    """The shifted matrix ``zI - A`` is singular (z hits an eigenvalue)."""


class ZeroPivotError(ZeroDivisionError):
    """A pivot of the shifted tridiagonal elimination vanished."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a dense Hermitian matrix plus the weights of ``v``.

    ``weights[j] = |v^H u_j|^2 / ||v||^2`` so they sum to one and define the
    distribution whose moments the Lanczos reduction matches.
    """

    eigenvalues: np.ndarray  # ascending, real
    eigenvectors: np.ndarray  # columns u_j, orthonormal, in the matrix's dtype
    weights: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def _as_dense_hermitian(a) -> np.ndarray:
    """``a`` as a square array: ``float64`` stays real, anything else
    becomes ``complex128``."""
    a = np.asarray(a)
    if a.dtype != np.float64:
        a = a.astype(np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DENSE_N:
        raise ValueError(f"dense oracle capped at n={MAX_DENSE_N}")
    return a


def eigenpairs(a_dense) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, U)`` of a dense Hermitian matrix by ``np.linalg.eigh``; real
    for a ``float64`` matrix, complex otherwise."""
    return np.linalg.eigh(_as_dense_hermitian(a_dense))


def spectral_weights(u: np.ndarray, v) -> np.ndarray:
    """``|u_j^H v|^2 / ||v||^2`` for the columns ``u_j`` of ``u``."""
    v = np.asarray(v, dtype=np.complex128)
    vn2 = float(np.vdot(v, v).real)
    if vn2 == 0.0:
        raise ValueError("weights undefined for a zero vector")
    return np.abs(u.conj().T @ v) ** 2 / vn2


def spectral_decomposition(a_dense, v) -> SpectralDecomposition:
    lam, u = eigenpairs(a_dense)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=u,
                                 weights=spectral_weights(u, v))


def dense_resolvent_quadform(a_dense, v, z: complex) -> complex:
    """``v^H (zI - A)^{-1} v`` by an LU (partial pivoting) solve."""
    a = _as_dense_hermitian(a_dense)
    v = np.asarray(v, dtype=np.complex128)
    shifted = z * np.eye(a.shape[0], dtype=np.complex128) - a
    try:
        x = np.linalg.solve(shifted, v)
    except np.linalg.LinAlgError as exc:
        raise SingularShiftError(f"zI - A singular at z={z}") from exc
    return complex(np.vdot(v, x))


def spectral_quadform(spec: SpectralDecomposition, z: complex,
                      vnorm2: float) -> complex:
    """Partial-fraction value ``vnorm2 * sum_j w_j / (z - lambda_j)``."""
    gaps = z - spec.eigenvalues
    if np.any(gaps == 0):
        raise SingularShiftError(f"shift z={z} collides with an eigenvalue")
    return complex(vnorm2 * np.sum(spec.weights / gaps))


def condition_number(eigenvalues: np.ndarray, z: complex) -> float:
    """``kappa(z) = max_j |z - lambda_j| / min_j |z - lambda_j|``."""
    d = np.abs(z - np.asarray(eigenvalues))
    dmin = float(d.min())
    if dmin == 0.0:
        raise SingularShiftError(f"shift z={z} collides with an eigenvalue")
    return float(d.max()) / dmin


# ---------------------------------------------------------------------------
# shifted tridiagonal references
# ---------------------------------------------------------------------------

def tridiagonal_matrix(alpha: Sequence[float], beta: Sequence[float],
                       k: Optional[int] = None) -> np.ndarray:
    """Dense Jacobi matrix ``T_{k,k}`` from coefficient sequences."""
    if k is None:
        k = len(alpha)
    if len(alpha) < k or len(beta) < k - 1:
        raise ValueError("not enough coefficients for the requested order")
    t = np.diag(np.asarray(alpha[:k], dtype=float))
    if k > 1:
        off = np.asarray(beta[:k - 1], dtype=float)
        t += np.diag(off, 1) + np.diag(off, -1)
    return t


def thomas_solve(alpha: Sequence[float], beta: Sequence[float], z: complex,
                 rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``(zI - T_{k,k}) y = rhs`` by elimination without pivoting.

    Returns ``(y, deltas)`` where ``deltas`` are the elimination pivots --
    by construction the same sequence the production shift recursion
    generates, which is exactly what the pivot-equivalence tests need.
    """
    k = len(rhs)
    if len(alpha) < k or len(beta) < k - 1:
        raise ValueError("not enough coefficients for the requested order")
    deltas = np.empty(k, dtype=np.complex128)
    b = np.asarray(rhs, dtype=np.complex128).copy()
    deltas[0] = z - alpha[0]
    if deltas[0] == 0:
        raise ZeroPivotError("pivot delta_1 vanished")
    for i in range(1, k):
        # off-diagonal of zI - T is -beta; the row multiplier is -beta/delta
        m = -beta[i - 1] / deltas[i - 1]
        deltas[i] = (z - alpha[i]) + m * beta[i - 1]
        b[i] = b[i] - m * b[i - 1]
        if deltas[i] == 0:
            raise ZeroPivotError(f"pivot delta_{i + 1} vanished")
    y = np.empty(k, dtype=np.complex128)
    y[k - 1] = b[k - 1] / deltas[k - 1]
    for i in range(k - 2, -1, -1):
        y[i] = (b[i] + beta[i] * y[i + 1]) / deltas[i]
    return y, deltas


def tridiag_resolvent_entry(alpha: Sequence[float], beta: Sequence[float],
                            z: complex, i: int, j: int) -> complex:
    """Entry ``(i, j)`` of ``(zI - T_{k,k})^{-1}``, indices 1-based.

    The order ``k`` is ``len(alpha)``; the entry is read off a Thomas solve
    against ``e_j`` so the pivot sequence matches the production recursion.
    """
    k = len(alpha)
    if not (1 <= i <= k and 1 <= j <= k):
        raise ValueError(f"entry ({i}, {j}) outside a {k}x{k} matrix")
    rhs = np.zeros(k, dtype=np.complex128)
    rhs[j - 1] = 1.0
    y, _ = thomas_solve(alpha, beta, z, rhs)
    return complex(y[i - 1])


def shifted_determinant_sequence(alpha: Sequence[float],
                                 beta: Sequence[float], z: complex,
                                 k: Optional[int] = None) -> np.ndarray:
    """Determinants ``|T_1^<| .. |T_k^<|`` of the leading shifted blocks.

    Three-term recursion
    ``|T_{j+1}^<| = (z - alpha_{j+1}) |T_j^<| - beta_j^2 |T_{j-1}^<|``
    with ``|T_0^<| = 1``.  Zeros are allowed and simply reported; the ratio
    ``|T_{j+1}^<| / |T_j^<|`` reproduces the pivot ``delta_{j+1}``.
    """
    if k is None:
        k = len(alpha)
    if len(alpha) < k or len(beta) < k - 1:
        raise ValueError("not enough coefficients for the requested order")
    dets = np.empty(k, dtype=np.complex128)
    prev2 = 1.0 + 0.0j  # |T_0^<|
    prev = z - alpha[0]
    dets[0] = prev
    for j in range(1, k):
        cur = (z - alpha[j]) * prev - beta[j - 1] ** 2 * prev2
        dets[j] = cur
        prev2, prev = prev, cur
    return dets
