"""Randomized block proximal descent with variable quadratic kernels.

The solver minimizes F = f + sum_i g_i for a smooth (possibly nonconvex) f
and separable semi-convex penalties g_i (soft-threshold, SCAD, MCP, ...),
picking one block uniformly at random per step and applying that block's
kernel-weighted proximal map.  The diagnostics and harness layers certify
the algebraic identities and local contraction behavior numerically.
"""

from .bregman import (
    BregmanSchedule,
    bregman_distance,
    validate_schedule,
)
from .diagnostics import (
    GridProxOracle,
    auto_neighborhood,
    compute_constants,
    contraction_audit,
    fit_linear_rate,
    in_neighborhood,
)
from .harness import ConfigError, DivergenceError, ReplicationError
from .model import (
    BlockPartition,
    CustomSmooth,
    L1Penalty,
    LogisticLoss,
    McpPenalty,
    ProblemInstance,
    QuadraticLeastSquares,
    Regularizer,
    ScadPenalty,
    SquaredL2Penalty,
    ZeroPenalty,
    certified_bound,
    make_quadratic_problem,
    make_regularizer,
)
from .probes import (
    EmptyNeighborhoodError,
    probe_bp_eb,
    probe_kl,
    probe_lt_eb,
    probe_ls_eb,
    sample_level_ball,
    write_probe_csv,
)
from .prox import (
    coordinate_prox,
    coordinate_prox_all,
    envelope_value,
    full_prox,
    prox_residual,
    scalar_prox,
)
from .solver import (
    OracleMismatch,
    SolverAbort,
    SolverConfig,
    Trajectory,
    derive_seed,
    near_start_point,
    run,
    run_lockstep,
    sample_in_ball,
    write_trajectory_csv,
)
from . import instances

__version__ = "0.1.0"
