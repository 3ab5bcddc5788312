"""Small-amplitude time- and space-periodic solutions of nonlinear
Klein-Gordon equations, computed by a spectral Galerkin continuation
pipeline: planar limit orbit, partial normal form, small-divisor exclusion,
nested-truncation Newton solve, and Galerkin closure of the slow equation."""

from .fourier import (
    AliasingError,
    EvenField,
    SpaceTimeField,
    invert_J_eps,
    j_eps_symbol,
    multiply_to_even,
    project_P,
    project_Q,
)
from .nonlinearity import Nonlinearity, TrustRadiusError, collocate
from .planar import (
    MonodromyReport,
    NoPeriodicOrbitError,
    PlanarOrbit,
    PlanarState,
    VTrajectory,
    find_orbit,
    h_star,
    monodromy,
)
from .normalform import (
    AveragedStart,
    nf_sequence,
)
from .divisors import (
    CoverageError,
    DivisorTable,
    HillSpectrum,
    ResonanceError,
    ResonanceParams,
    ResonanceReport,
    averaged_potential,
    divisor_min,
    epsilon_kj,
    hill_eigs,
    is_resonant,
    measure_exponent_fit,
    window_measure,
)
from .solver import (
    LinearizedOperator,
    NonConvergenceError,
    SolverConfig,
    SolverRun,
    assemble_F,
    nash_moser_solve,
    resonance_gate,
)
from .closure import (
    ClosureConsistencyError,
    ClosureResult,
    DegenerateOrbitError,
    IntegrationError,
    OuterLoopError,
    hamiltonian_H,
    galerkin_v,
    integrate_v,
    solve_delta1,
)
from .assembly import (
    AssembledSolution,
    AssemblyError,
    SolvedPoint,
    SweepReport,
    SweepRow,
    assemble_u,
    epsilon_sweep,
    pde_residual,
    solve_point,
    tail_norm,
)
from .properties import PropertyResult, run_all

__version__ = "0.1.0"
