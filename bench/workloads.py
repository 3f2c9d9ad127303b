"""Benchmark workloads, their Matrix Market inputs and the exact oracle.

Every matrix is the 2-D Dirichlet 5-point Laplacian ``L`` on an ``N x N``
grid, optionally rescaled to ``(L - 4I) / 2`` (spectrum in ``(-2, 2)``) and
optionally put under a diagonal unitary gauge ``D L D^H``.  Its eigenpairs
are known in closed form: with ``mu_j = 4 sin^2(j pi / (2 (N + 1)))`` the
eigenvalues are ``mu_j + mu_k`` and the eigenvectors are tensor products of
the orthonormal DST-I basis.  The weights of ``v`` are therefore
``|dstn(D^H v, type=1, norm="ortho")|^2`` and
``v^H (zI - A)^{-1} v = sum_jk w_jk / (z - lambda_jk)`` is exact up to
rounding at any ``n``, with no dense solve and no call into the program.

Inputs depend only on the workload, the seed and the size; they are written
once with ``scipy.io.mmwrite`` and cached, outside any timed region.
"""

from __future__ import annotations

import gzip
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.io
import scipy.sparse as sp

RTOL = 1e-10
# Oracle evaluation is chunked so that the (shift, eigenvalue) table stays
# below this many complex entries (32 MB).
ORACLE_CHUNK = 2_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: int  # N; the matrix has n = N * N rows
    m: int  # number of unit-circle shifts
    tiny_grid: int  # sizes for the benchmark's own smoke tests
    tiny_m: int
    methods: tuple
    scaled: bool = True  # (L - 4I) / 2, else L itself
    gauge: bool = False  # D L D^H with seeded unit-modulus phases D
    storage: str = "general"  # Matrix Market symmetry written to the file
    gz: bool = False
    vector: str = "uniform"  # "uniform" or "random" (random:SEED)
    reference: str = "none"
    history: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="many-shifts",
        why=("m=2048 shifts on n=1e4: the per-shift scalar recursion, the "
             "estimator and driver bookkeeping dominate, the Lanczos stream "
             "is small"),
        grid=100, m=2048, tiny_grid=10, tiny_m=32,
        methods=("lanczos", "minres")),
    Workload(
        name="large-n",
        why=("n=4.9e5 with 16 shifts, symmetric storage: the matvec, the "
             "Lanczos vector update and the Matrix Market reader dominate, "
             "per-shift work is negligible"),
        grid=700, m=16, tiny_grid=12, tiny_m=4,
        methods=("lanczos", "minres"), storage="symmetric"),
    Workload(
        name="complex-gauge",
        why=("complex Hermitian D L D^H in hermitian storage with a complex "
             "vector: the only complex CSR and complex stream path, which a "
             "real fast path must leave unchanged"),
        grid=300, m=64, tiny_grid=8, tiny_m=8,
        methods=("lanczos", "minres"), gauge=True, storage="hermitian",
        vector="random"),
    Workload(
        name="protocol",
        why=("the paper's protocol: .mtx.gz, all four methods, spectral "
             "reference stopping and history; the only run of COCG/COCR, "
             "the oracle and CSV writing"),
        grid=32, m=512, tiny_grid=6, tiny_m=8,
        methods=("lanczos", "minres", "cocg", "cocr"), scaled=False,
        storage="symmetric", gz=True, vector="random", reference="spectral",
        history=True),
)}


def sizes(w: Workload, tiny: bool) -> tuple[int, int]:
    """``(N, m)`` for a full or a smoke-test run."""
    return (w.tiny_grid, w.tiny_m) if tiny else (w.grid, w.m)


def laplacian(grid: int, scaled: bool) -> sp.csr_matrix:
    """5-point Laplacian, row index ``i * grid + j``; exact binary values."""
    t = sp.diags([-np.ones(grid - 1), 2.0 * np.ones(grid), -np.ones(grid - 1)],
                 [-1, 0, 1])
    eye = sp.identity(grid)
    lap = (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()
    if scaled:
        lap = ((lap - 4.0 * sp.identity(grid * grid)) / 2.0).tocsr()
        lap.eliminate_zeros()
    return lap


def gauge_phases(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1])
    return np.exp(2j * math.pi * rng.random(n))


def matrix(w: Workload, seed: int, grid: int) -> sp.csr_matrix:
    a = laplacian(grid, w.scaled)
    if w.gauge:
        d = sp.diags(gauge_phases(grid * grid, seed))
        a = (d @ a @ d.conj()).tocsr()
    return a


def input_file(w: Workload, seed: int, tiny: bool, cache: Path) -> tuple[Path, int]:
    """Write (or reuse) the workload's Matrix Market file.

    Returns the path and the number of entries stored in it.  Symmetric and
    Hermitian storage keep the lower triangle only, so the reader's
    mirroring path runs as it does on SuiteSparse files.
    """
    grid, _ = sizes(w, tiny)
    key = f"{w.name}-N{grid}" + (f"-seed{seed}" if w.gauge else "")
    path = cache / (key + (".mtx.gz" if w.gz else ".mtx"))
    if not path.is_file():
        a = matrix(w, seed, grid)
        stored = a if w.storage == "general" else sp.tril(a)
        cache.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        opener = gzip.open if w.gz else open
        with opener(tmp, "wb") as fh:
            scipy.io.mmwrite(fh, stored.tocoo(), symmetry=w.storage,
                             precision=17)
        os.replace(tmp, path)
    return path, int(scipy.io.mminfo(path)[2])


def program_config(w: Workload, seed: int, tiny: bool, matrix_path: Path) -> dict:
    """Keyword arguments of ``resolvquad.harness.ExperimentConfig``."""
    _, m = sizes(w, tiny)
    return {
        "matrix": str(matrix_path),
        "vector": "uniform" if w.vector == "uniform" else f"random:{seed}",
        "shifts": f"unit-circle:m={m}",
        "methods": list(w.methods),
        "rtol": RTOL,
        "reference": w.reference,
        "history": w.history,
    }


def unit_circle_shifts(m: int) -> np.ndarray:
    """The documented ``unit-circle:m=M`` set, ``exp(-(2i+1) pi i / (2m))``."""
    i = np.arange(1, m + 1)
    return np.exp(-1j * math.pi * (2 * i + 1) / (2 * m))


def start_vector(w: Workload, seed: int, n: int) -> np.ndarray:
    """The documented ``uniform`` and ``random:SEED`` vectors."""
    if w.vector == "uniform":
        return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return (re + 1j * im) / math.sqrt(2.0)


def exact_values(w: Workload, seed: int, tiny: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(shifts, v^H (z I - A)^{-1} v)`` from the closed-form spectrum."""
    grid, m = sizes(w, tiny)
    n = grid * grid
    j = np.arange(1, grid + 1)
    mu = 4.0 * np.sin(j * math.pi / (2 * (grid + 1))) ** 2
    lam = (mu[:, None] + mu[None, :]).ravel()
    if w.scaled:
        lam = (lam - 4.0) / 2.0
    v = start_vector(w, seed, n)
    if w.gauge:
        v = gauge_phases(n, seed).conj() * v
    coeff = scipy.fft.dstn(v.reshape(grid, grid), type=1, norm="ortho")
    weights = (np.abs(coeff) ** 2).ravel()
    shifts = unit_circle_shifts(m)
    values = np.empty(m, dtype=np.complex128)
    step = max(1, ORACLE_CHUNK // n)
    for lo in range(0, m, step):
        z = shifts[lo:lo + step, None]
        values[lo:lo + step] = (weights / (z - lam)).sum(axis=1)
    return shifts, values


def oracle_rtol(w: Workload) -> float:
    """Largest relative error against the oracle that a summary value may have.

    Stopping on the true error (a reference) stops at ``RTOL``; the dense
    reference itself is accurate to about 1e-13, hence 10 x ``RTOL``.
    Stopping on ``nu_{k,d} = |L_k - L_{k+d}|`` only estimates the error, and
    it underestimates it for slowly converging shifts close to the spectrum:
    MINRES on many-shifts stops with relative errors up to 1.4e-8 at
    ``RTOL`` = 1e-10, hence 1000 x ``RTOL``.  A wrong recursion misses by
    far more than either.
    """
    return 10 * RTOL if w.reference != "none" else 1000 * RTOL
