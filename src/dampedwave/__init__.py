"""Strongly damped wave equation with a hard internal constraint.

Numerical solver (implicit theta-scheme over Yosida/Moreau-regularized
reactions) plus a verification harness for everything the weak theory
promises: energy balance and inequality, uniform bounds along the
regularization continuation, the constraint-reaction measure and its
wall-supported singular part, velocity jumps, and the weak-form
residuals.
"""

__version__ = "0.1.0"

from .config import Reaction, SimConfig, from_dict, load_config, make_reaction
from .energy import (
    EnergyBreakdown,
    energy_equality_residual,
    energy_inequality_verdict,
    energy_series,
)
from .errors import (
    ConfigError,
    DampedWaveError,
    DimensionMismatch,
    InadmissibleCandidate,
    InadmissibleTestFunction,
    InvalidEll,
    MissingArtifact,
    MissingReactionRecords,
    NewtonDiverged,
    NonConvergence,
    OutOfValidityWindow,
    RunError,
    SingularSystem,
    StepRejected,
    TimeNotOnGrid,
)
from .graphs import (
    GraphKind,
    MonotoneGraph,
    RegularizedPotential,
    eval_j,
    family_beta,
    family_graph,
    family_j,
    indicator_graph,
    logarithmic_graph,
    moreau,
    resolvent,
    yosida,
)
from .grid import DIRICHLET, NEUMANN, Field, Grid, apply_A, norms, regularize_initial
from .integrator import SimState, Trajectory, simulate, step
from .sweep import (
    SweepReport,
    da_regularity_check,
    default_dt_policy,
    epsilon_sweep,
    limsup_identity_audit,
    mu_vanishing_sequence,
    nonuniqueness_exhibit,
    snap_dt,
)
from .toy import (
    LevelSet,
    ToySolution,
    exact_family_toy,
    exact_limit_toy,
    limit_toy_solution,
    phase_level_set,
    toy_weak_identity_residual,
    toy_xi_atom,
    yosida_layer_toy,
)
from .weaklimit import (
    TestFunction,
    XiMeasure,
    accumulate_xi,
    default_dictionary,
    detect_jumps,
    l1_mass,
    random_candidates,
    restriction_compat,
    singular_support_check,
    solution_identity_residual,
    static_boundary_example,
    subdifferential_check,
    weak_residual,
)
