"""Mean-field Schrodinger bridge laboratory.

Computes bridges between two densities on the line whose reference dynamics
carries a pair-interaction drift, and verifies the structural identities and
quantitative inequalities that the optimizers satisfy (conserved pairing,
entropy envelopes, Talagrand/HWI, time reversal, turnpike decay, closeness to
the self-interacting flow, and the noise-to-trajectory map identity).
"""

from .errors import (
    CFLViolation,
    ChecksumMismatch,
    ContinuityViolation,
    FormatVersionMismatch,
    GridMismatch,
    HypothesisViolation,
    InfeasibleEndpoints,
    MFSBError,
    NoConvergence,
    NonZeroMass,
    ParseError,
    ScenarioError,
    TooLarge,
)
from .grids import (
    Density,
    GridField,
    MarginalFlow,
    SpatialGrid,
    TimeGrid,
    density_from_spec,
    divergence,
    divergence_inverse,
    grad,
    wasserstein1,
)
from .potentials import (
    InteractionPotential,
    conv_force,
    interaction_energy,
)
from .functionals import (
    BridgeSolution,
    EquilibriumMeasure,
    backward_corrector,
    conserved_quantity_profile,
    corrector,
    entropic_cost,
    equilibrium,
    fisher_information,
    free_energy,
    velocity_from_flow,
)
from .dynamics import (
    PathEnsemble,
    mkv_flow,
    noise_ensemble,
    simulate_particles,
    tanaka_theta,
)
from .solver import (
    SolverConfig,
    bb_gradient,
    bb_objective,
    optimality_residual,
    solve_mfsb,
)
from .verify import CheckEntry, FreeEnergyGauge, VerificationReport
from .scenario import Scenario, load_scenario, scenario_from_dict
from .flowio import load_flow, load_matrix, save_flow, save_matrix

__version__ = "0.1.0"
