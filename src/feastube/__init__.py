"""Feasibility margins, trajectory repair, tracking, and discounted value
regularity for control systems under moving state constraints."""

from . import analysis, cli, geometry, ipc, problem, simplex, trajectory, value
from .geometry import (
    ActiveSetReport,
    DistanceResult,
    active_set,
    distance_to_omega,
    eval_constraints,
)
from .ipc import (
    IpcCertificate,
    IpcVerification,
    MarginResult,
    inward_margin,
    synthesize_ipc_constants,
    verify_ipc,
)
from .problem import (
    ConstraintFunction,
    ControlSamples,
    Modulus,
    ProblemData,
    ProblemDefinition,
    SamplingSpec,
    get_problem,
    registered_problems,
    verify_data_assumptions,
)
from .trajectory import (
    NftConstants,
    NftResult,
    TrackingConstants,
    TrackingRun,
    Trajectory,
    derive_nft_constants,
    derive_tracking_constants,
    filippov_project,
    integrate,
    integrate_controls,
    nft_correct,
    track_feasible,
    viable_trajectory,
)
from .value import (
    GridSpec,
    RelaxedVelocity,
    ValueField,
    bellman_residual,
    evaluate_value,
    grid_for,
    relaxed_velocity_set,
    solve_value,
    truncation_horizon,
)
from .analysis import (
    DecayResult,
    GapResult,
    LipschitzProfile,
    TimeLipschitzResult,
    decay_check,
    emit_report,
    lipschitz_profile,
    relaxation_gap,
    time_lipschitz_check,
)

__version__ = "0.1.0"
