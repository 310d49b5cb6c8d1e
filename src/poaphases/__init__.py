"""Equilibria, optima, and efficiency-ratio sensitivity for routing games."""

from .costs import (
    AffineCost,
    BPRCost,
    CostError,
    PiecewiseC1Cost,
    PolynomialCost,
    fenchel_conjugate_affine,
    marginal,
)
from .equilibrium import (
    EquilibriumResult,
    NonConvexCostError,
    SolverError,
    SolverOptions,
    active_regime,
    dual_certificate_affine,
    grad_social_optimum,
    poa_ratio,
    price_of_anarchy,
    social_cost,
    solve_equilibrium,
    solve_social_optimum,
    wardrop_gap,
)
from .fixed_regime import (
    FixedRegimeError,
    RelaxedSolution,
    WardropConsistency,
    check_value_gradient,
    is_wardrop_consistent,
    perturbed_value,
    solve_fixed_regime,
    zero_derivative_acyclicity,
)
from .model import (
    AffineDemand,
    Commodity,
    Edge,
    FlowLoad,
    Incidence,
    LinearDemand,
    ModelError,
    Network,
    Path,
    PiecewiseAffineDemand,
    build_incidence,
    check_feasible,
    disjointify,
    enumerate_paths,
    eval_demand,
    loads_from_flow,
)
from .sensitivity import (
    BreakpointReport,
    SensitivityError,
    SensitivityResult,
    affine_parametric_equilibrium,
    classify_breakpoint,
    flow_selection_pseudoinverse,
    locate_breakpoints,
    one_sided_derivatives,
    theta_qp,
)

__version__ = "0.1.0"
