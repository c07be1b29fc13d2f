"""Randomized block proximal descent with variable quadratic kernels.

The solver minimizes F = f + sum_i g_i for a smooth (possibly nonconvex) f
and separable semi-convex penalties g_i (soft-threshold, SCAD, MCP, ...),
picking one block uniformly at random per step and applying that block's
kernel-weighted proximal map.  The diagnostics and harness layers certify
the algebraic identities and local contraction behavior numerically.

The names below load with their module on first use (PEP 562), so importing
the package does not load numpy: :mod:`vbscd.cli` can pin BLAS to one thread
before numpy starts.  ``from vbscd import run`` works as with eager imports.
"""

import importlib

_EXPORTS = {
    "bregman": ("BregmanSchedule", "bregman_distance", "validate_schedule"),
    "diagnostics": ("GridProxOracle", "auto_neighborhood", "compute_constants",
                    "contraction_audit", "fit_linear_rate"),
    "harness": ("ConfigError",),
    "model": ("BlockPartition", "CustomSmooth", "L1Penalty", "LogisticLoss", "McpPenalty",
              "ProblemInstance", "QuadraticLeastSquares", "Regularizer", "ScadPenalty",
              "SquaredL2Penalty", "ZeroPenalty", "certified_bound", "make_quadratic_problem",
              "make_regularizer"),
    "probes": ("EmptyNeighborhoodError", "in_neighborhood", "probe_bp_eb", "probe_kl",
               "probe_lt_eb", "probe_ls_eb", "sample_level_ball", "write_probe_csv"),
    "prox": ("coordinate_prox", "coordinate_prox_all", "envelope_value", "full_prox",
             "prox_residual", "scalar_prox"),
    "solver": ("OracleMismatch", "SolverAbort", "SolverConfig", "Trajectory", "derive_seed",
               "near_start_point", "run", "run_lockstep", "sample_in_ball",
               "write_trajectory_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, "instances"]

__version__ = "0.1.0"


def __getattr__(name):
    if name == "instances":
        return importlib.import_module(".instances", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
