"""Quadratic forms of Hermitian matrix resolvents via shifted Krylov methods.

The package computes ``v^H (z_i I - A)^{-1} v`` for a sparse Hermitian
matrix ``A`` and many complex shifts ``z_i`` at once from a single Lanczos
coefficient stream, alongside three competitor methods (shifted COCG, COCR,
and MINRES) for benchmarking, with breakdown guards, lag-d error estimates,
and brute-force oracles for verification.
"""

__version__ = "0.1.0"

from .core import SolveStatus, SparseHermitianMatrix
from .lanczos import LanczosState, lanczos_init, lanczos_step
from .shifted_lanczos import (
    QuadFormResult,
    bilinear_form,
    run_quadratic_forms,
    shift_state_init,
    shift_state_update,
)
from .error_estimate import EstimatorState, bridge_entry, corner_update
from .cg_variants import cocg_run, cocr_run
from .shifted_minres import givens, minres_run
from .mmio import parse_matrix_market, read_matrix_market, write_matrix_market
from .harness import (
    ExperimentConfig,
    generate_unit_circle_shifts,
    run_experiment,
    write_report,
)

__all__ = [
    "__version__",
    "SolveStatus",
    "SparseHermitianMatrix",
    "LanczosState",
    "lanczos_init",
    "lanczos_step",
    "QuadFormResult",
    "bilinear_form",
    "run_quadratic_forms",
    "shift_state_init",
    "shift_state_update",
    "EstimatorState",
    "bridge_entry",
    "corner_update",
    "cocg_run",
    "cocr_run",
    "givens",
    "minres_run",
    "parse_matrix_market",
    "read_matrix_market",
    "write_matrix_market",
    "ExperimentConfig",
    "generate_unit_circle_shifts",
    "run_experiment",
    "write_report",
]
