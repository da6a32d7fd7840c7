"""Box-constrained task allocation on agent graphs.

Library surface: build an :class:`AllocationProblem` from a graph and
per-agent cost models, then

* :func:`solve_lambda` for the clamped optimum (water-filling),
* :func:`simulate` for the distributed replicator dynamics,
* :func:`kkt_check` / :func:`monte_carlo_min` / :func:`grid_min` to
  verify optimality independently.
"""

from .costs import (
    EXPONENTIAL,
    QUADRATIC,
    CostModel,
    exponential,
    quadratic,
)
from .drd import (
    DrdConfig,
    Trajectory,
    default_start,
    simulate,
    write_trace_csv,
)
from .graph import Graph, edge_list, from_edge_list
from .instances import BundledInstance, get_instance, instance_ids
from .lambda_solver import (
    BreakpointTable,
    SolverResult,
    breakpoints,
    select_final,
    solve_lambda,
)
from .problem import (
    AllocationProblem,
    in_feasible_set,
    in_simplex,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
    total_cost,
)
from .verify import KktCertificate, OracleResult, grid_min, kkt_check, monte_carlo_min

__all__ = [
    "EXPONENTIAL",
    "QUADRATIC",
    "AllocationProblem",
    "BreakpointTable",
    "BundledInstance",
    "CostModel",
    "DrdConfig",
    "Graph",
    "KktCertificate",
    "OracleResult",
    "SolverResult",
    "Trajectory",
    "breakpoints",
    "default_start",
    "edge_list",
    "exponential",
    "from_edge_list",
    "get_instance",
    "grid_min",
    "in_feasible_set",
    "in_simplex",
    "instance_ids",
    "kkt_check",
    "load_problem",
    "monte_carlo_min",
    "parse_problem",
    "quadratic",
    "save_problem",
    "select_final",
    "serialize_problem",
    "simulate",
    "solve_lambda",
    "total_cost",
    "write_trace_csv",
]
