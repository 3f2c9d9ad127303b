#!/usr/bin/env python3
"""Time scipy's CSR and DIA matvec kernels on 5-point Laplacians of growing
size, to place the vector byte budget below which ``SparseHermitianMatrix``
takes the DIA kernel for a real product (``core._DIA_MAX_VECTOR_BYTES``).
The ``complex128`` rows show why complex products stay on the CSR kernel.

Each row is one grid: the vector's bytes, the best of ``--repeat`` timings
of about 20 ms of products per kernel (in microseconds per product), and
the DIA/CSR ratio.  The matrices are ``(L - 4I) / 2``, the form of the
``many-shifts`` and ``large-n`` benchmark inputs, four diagonals with no
stored diagonal; ``complex`` runs the ``complex128`` kernels on the same
entries.  Run from the repository root::

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
from resolvquad import core  # noqa: E402


TIMING_US = 20_000  # length of one timing, which sets the product count


def best_us(kernel, calls: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = perf_counter()
        for _ in range(calls):
            kernel()
        best = min(best, perf_counter() - start)
    return 1e6 * best / calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grids", type=int, nargs="+",
                        default=[32, 64, 100, 128, 181, 226, 256, 300, 362,
                                 400, 512, 700])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    core._DIA_MAX_VECTOR_BYTES = float("inf")  # build at every size
    print(f"{'dtype':8} {'grid':>5} {'vector_kB':>10} {'csr_us':>9} "
          f"{'dia_us':>9} {'dia/csr':>8}")
    for dtype in (np.float64, np.complex128):
        for grid in args.grids:
            csr = workloads.laplacian(grid, scaled=True).astype(dtype)
            n = csr.shape[0]
            offsets, diags = core._diagonals(csr)
            x = np.random.default_rng(grid).standard_normal(n).astype(dtype)
            y = np.zeros(n, dtype)

            def csr_product():
                y[:] = 0.0
                core.csr_matvec(n, n, csr.indptr, csr.indices, csr.data, x, y)

            def dia_product():
                y[:] = 0.0
                core.dia_matvec(n, n, offsets.size, n, offsets, diags, x, y)

            calls = max(1, int(TIMING_US / best_us(csr_product, 3, 1)))
            csr_us = best_us(csr_product, calls, args.repeat)
            dia_us = best_us(dia_product, calls, args.repeat)
            print(f"{np.dtype(dtype).name:8} {grid:>5} "
                  f"{n * np.dtype(dtype).itemsize / 1e3:>10.0f} {csr_us:>9.1f} "
                  f"{dia_us:>9.1f} {dia_us / csr_us:>8.3f}", flush=True)


if __name__ == "__main__":
    main()
