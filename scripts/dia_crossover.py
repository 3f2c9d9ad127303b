#!/usr/bin/env python3
"""Time scipy's CSR and DIA matvec kernels, and the split CSR product, on
5-point Laplacians of growing size.  The sweep places the two vector byte
thresholds of ``SparseHermitianMatrix.matvec``: the budget below which a
real product takes the DIA kernel (``core._DIA_MAX_VECTOR_BYTES``), and
the size past which a CSR product splits into two row ranges, one of
them on a worker thread (``core._SPLIT_MIN_VECTOR_BYTES``,
``core._split_product``).  The ``complex128`` rows show why complex
products stay on the CSR kernel, and where their split starts to pay.

Each row is one grid: the vector's bytes; the best of ``--repeat``
timings of about 20 ms of products per way, in microseconds per product,
with the DIA/CSR and split/CSR ratios; and the best time of a Lanczos
step (``lanczos_step``) on whole CSR products, in microseconds, with the
ratio of the step on split products to it (``step_split``).  The product
alone gains from the split well below the size at which the step does:
there the worker's wake-up, and the half of the product that the other
core's cache holds, cost the rest of the step what the split saved.  A
split gains only with a second core free: on one core its ratios read
the cost of the handoff.  The matrices are ``(L - 4I) / 2``, the form of
the ``many-shifts`` and ``large-n`` benchmark inputs, four diagonals with
no stored diagonal; ``complex`` runs the ``complex128`` kernels on the
same entries, and the step on a ``complex128`` vector.  The script lifts
both thresholds, so it times every way at every size.  Run from the
repository root::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/dia_crossover.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402
from resolvquad import core, lanczos  # noqa: E402


TIMING_US = 20_000  # length of one timing, which sets the product count


def best_us(kernel, calls: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        for _ in range(calls):
            kernel()
        best = min(best, perf_counter() - start)
    return 1e6 * best / calls


def step_us(csr, v, steps: int, repeat: int, split_min: float) -> float:
    """Best time per Lanczos step on ``csr`` from ``v``, every product on
    the CSR kernel, split where the vector passes ``split_min`` bytes."""
    saved = core._DIA_MAX_PADDING, core._SPLIT_MIN_VECTOR_BYTES
    core._DIA_MAX_PADDING = -1.0  # no diagonals qualify
    core._SPLIT_MIN_VECTOR_BYTES = split_min
    try:
        a = core.SparseHermitianMatrix.from_csr(csr)
        state = lanczos.lanczos_init(a, v)

        def step():
            nonlocal state
            if lanczos.lanczos_step(state).invariant_subspace:
                state = lanczos.lanczos_init(a, v)

        return best_us(step, steps, repeat)
    finally:
        core._DIA_MAX_PADDING, core._SPLIT_MIN_VECTOR_BYTES = saved


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grids", type=int, nargs="+",
                        default=[32, 64, 100, 128, 181, 226, 256, 300, 362,
                                 400, 512, 700])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    core._DIA_MAX_VECTOR_BYTES = float("inf")  # build at every size
    print(f"{'dtype':8} {'grid':>5} {'vector_kB':>10} {'csr_us':>9} "
          f"{'dia_us':>9} {'dia/csr':>8} {'split_us':>9} {'split/csr':>9} "
          f"{'step_us':>9} {'step_split':>10}")
    for dtype in (np.float64, np.complex128):
        for grid in args.grids:
            csr = workloads.laplacian(grid, scaled=True).astype(dtype)
            n = csr.shape[0]
            offsets, diags = core._diagonals(csr)
            rng = np.random.default_rng(grid)
            x = rng.standard_normal(n).astype(dtype)
            if dtype == np.complex128:
                x += 1j * rng.standard_normal(n)
            y = np.zeros(n, dtype)

            def csr_product():
                y[:] = 0.0
                core.csr_matvec(n, n, csr.indptr, csr.indices, csr.data, x, y)

            def dia_product():
                y[:] = 0.0
                core.dia_matvec(n, n, offsets.size, n, offsets, diags, x, y)

            def split_product():
                core._split_product(csr.indptr, csr.indices, csr.data, x)

            calls = max(1, int(TIMING_US / best_us(csr_product, 3, 1)))
            csr_us = best_us(csr_product, calls, args.repeat)
            dia_us = best_us(dia_product, calls, args.repeat)
            split_us = best_us(split_product, calls, args.repeat)
            steps = max(10, calls // 3)
            whole = step_us(csr, x, steps, args.repeat, float("inf"))
            split = step_us(csr, x, steps, args.repeat, 0)
            print(f"{np.dtype(dtype).name:8} {grid:>5} "
                  f"{n * np.dtype(dtype).itemsize / 1e3:>10.0f} {csr_us:>9.1f} "
                  f"{dia_us:>9.1f} {dia_us / csr_us:>8.3f} {split_us:>9.1f} "
                  f"{split_us / csr_us:>9.3f} {whole:>9.1f} "
                  f"{split / whole:>10.3f}", flush=True)


if __name__ == "__main__":
    main()
