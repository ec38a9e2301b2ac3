"""Strongly damped wave equation with a hard internal constraint.

Numerical solver (implicit theta-scheme over Yosida/Moreau-regularized
reactions) plus a verification harness for everything the weak theory
promises: energy balance and inequality, uniform bounds along the
regularization continuation, the constraint-reaction measure and its
wall-supported singular part, velocity jumps, and the weak-form
residuals.  Each check has one path: ``weak_residual`` takes a whole
dictionary of test functions and returns one residual per function, and
the energy inequality and the subdifferential inclusion are exact, over
every pair of recorded times and as the Fenchel-Young gap, so no check
draws a random number.

The reference oracles that only the tests use (the closed-form limit toy,
the D(A) audit, restriction compatibility of the measure, grid norms, the
energy-equality residual, a one-step entry point, the family's resolvent
transforms, the level sets of a limit potential, a modal solution of the
scheme) live in ``tests/oracles.py``, not here.
"""

__version__ = "0.1.0"

from .config import SimConfig, from_dict, load_config
from .energy import (
    EnergyBreakdown,
    energy_inequality_verdict,
    energy_series,
)
from .errors import (
    ConfigError,
    DampedWaveError,
    DimensionMismatch,
    InadmissibleTestFunction,
    MissingArtifact,
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
    Reaction,
    RegularizedPotential,
    eval_j,
    family_beta,
    family_graph,
    family_j,
    indicator_graph,
    logarithmic_graph,
    make_reaction,
    moreau,
    resolvent,
    yosida,
)
from .grid import DIRICHLET, NEUMANN, Field, Grid, apply_A, regularize_initial
from .integrator import Trajectory, simulate
from .sweep import (
    SweepReport,
    default_dt_policy,
    epsilon_sweep,
    limsup_identity_audit,
    mu_vanishing_sequence,
    nonuniqueness_exhibit,
    snap_dt,
)
from .toy import LevelSet, exact_family_toy, phase_level_set, yosida_layer_toy
from .weaklimit import (
    TestFunction,
    accumulate_xi,
    default_dictionary,
    detect_jumps,
    singular_support_check,
    solution_identity_residual,
    subdifferential_check,
    weak_residual,
)
