#!/usr/bin/env python3
"""Benchmark the four shifted methods on one real symmetric problem.

All methods share the same protocol: v = n^{-1/2} e, sixteen unit-circle
shifts, and stopping at true relative error 1e-10 against a dense direct
solve.  The reported iteration count is the one at which the slowest shift
converged, since that shift determines the total cost.
"""

import time

import numpy as np

from resolvquad import SparseHermitianMatrix, cocg_run, cocr_run, \
    generate_unit_circle_shifts, minres_run, run_quadratic_forms
from resolvquad.oracle import dense_resolvent_quadform

rng = np.random.default_rng(7)
n = 200
b = rng.standard_normal((n, n))
dense = (b + b.T) / (2 * np.sqrt(n))
matrix = SparseHermitianMatrix.from_dense(dense)
v = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)

shifts = generate_unit_circle_shifts(16)
refs = [dense_resolvent_quadform(dense, v, z) for z in shifts]

# every driver takes the same arguments
runs = {"lanczos": run_quadratic_forms, "cocg": cocg_run, "cocr": cocr_run,
        "minres": minres_run}

print(f"n={n} real symmetric, m={len(shifts)} shifts, rtol=1e-10 (true error)")
print(f"{'method':<10} {'iterations':>10} {'time [ms]':>10} {'max rel err':>12}")
for name, runner in runs.items():
    t0 = time.perf_counter()
    result = runner(matrix, v, shifts, rtol=1e-10, max_iter=3 * n,
                    reference=refs)
    ms = 1e3 * (time.perf_counter() - t0)
    worst = max(abs(o.value - r) / abs(r)
                for o, r in zip(result.shifts, refs))
    print(f"{name:<10} {result.iterations_to_convergence:>10} "
          f"{ms:>10.1f} {worst:>12.2e}")

print("\nSame Krylov space, different per-shift recursions: the scalar")
print("costs per shift/iteration are 8 (lanczos), 15 (cocg), 16 (cocr),")
print("35 (minres) complex operations in this implementation.")
