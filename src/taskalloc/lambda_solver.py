"""Non-iterative water-filling solver via breakpoint interpolation.

Every agent's box-clamped response to a marginal-cost level lam is

    lower        if lam <= marginal(lower)
    upper        if lam >= marginal(upper)
    inverse_marginal(lam)   otherwise

and the aggregate response is nondecreasing and piecewise linear in the
family's key coordinate (log lam for exponential costs, lam for quadratic
ones). Sorting the 2n per-agent breakpoints therefore lets the level that
balances the total be read off by a single linear interpolation between
bracketing table entries — no iteration.

Mixed-family instances have no single linearizing coordinate; they fall
back to a monotone bisection on lam over the true aggregate response.

One vectorized clamp, `_clamp`, applies the rule above (lower wins a tie
with upper) for the table masses, the final allocation, the active sets
and every bisection step; the interior responses come from the problem's
cost table (:mod:`taskalloc.costs`). Each table mass is the plain sum
of the clamped loads at its key, computed over blocks of keys so memory
stays O(n). Prefix sums would be O(n log n) but round differently and
move the last printed digits of the bundled reproduction reports.

`breakpoints(p, key_decimals)` quantizes the breakpoint keys (and the
clamp thresholds, consistently) before the table is built. The bundled
reference tables use 3-decimal keys, so the reproduction path passes
key_decimals=3; `solve_lambda` always solves with full-precision keys.

The final selection between a replicator limit and the water-filling
optimum (`select_final`) compares their exact total costs, summed up a
breadth-first spanning tree to node 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBracketError,
    InfeasibleError,
    MixedFamiliesError,
)
from .graph import bfs_tree
from .problem import (
    AllocationProblem,
    as_allocation,
    cost_values,
    in_feasible_set,
    marginals,
)

LOWER = "lower"
UPPER = "upper"

_EXACT_HIT_REL = 1e-12  # |w - m_j| below this (relative) skips interpolation
_BLOCK_ELEMENTS = 1 << 17  # agents x keys clamped at once while building a table


@dataclass(frozen=True)
class Breakpoint:
    """One agent's clamp threshold in the table coordinate."""

    agent: int
    kind: str  # "lower" | "upper"
    key: float


@dataclass
class BreakpointTable:
    """Sorted breakpoints with the aggregate response at each key.

    slopes[j] is d(key)/d(mass) between entries j and j+1 (the
    interpolation slope); infinite where the mass does not move.
    """

    coordinate: str  # "log-marginal" | "marginal"
    breakpoints: list[Breakpoint]
    keys: np.ndarray  # (2n,) ascending
    masses: np.ndarray  # (2n,) aggregate response at each key
    slopes: np.ndarray  # (2n-1,)
    key_decimals: int | None


@dataclass
class SolverResult:
    """Box-clamped, sum-exact optimum with its level and active sets."""

    allocation: np.ndarray
    key: float  # level in the table coordinate
    lam: float  # marginal-cost level itself
    bracket: int | None  # table interval used (None for bisection)
    interior: list[int]
    active_lower: list[int]
    active_upper: list[int]
    method: str  # "interpolation" | "table-hit" | "bisection"
    table: BreakpointTable | None


def _agent_keys(p: AllocationProblem, key_decimals: int | None):
    """Each agent's clamp thresholds (key at lower, key at upper)."""
    fam = p._costs.family
    if fam is None:
        raise MixedFamiliesError(
            "breakpoint keys need a single cost family; "
            "use solve_lambda, which falls back to bisection"
        )
    kmin = fam.key_from_lambda(marginals(p, p.lower_bounds))
    kmax = fam.key_from_lambda(marginals(p, p.upper_bounds))
    if key_decimals is not None:
        kmin = np.round(kmin, key_decimals)
        kmax = np.round(kmax, key_decimals)
    return kmin, kmax


def _clamp(p: AllocationProblem, key, kmin, kmax, respond):
    """The box clamp at a level: key <= kmin gives the lower bound, then
    key >= kmax the upper bound, otherwise the interior response
    respond(key). key is a scalar, or a column of keys giving one row of
    loads each. Returns (loads, at-lower mask, at-upper mask)."""
    at_lower = key <= kmin
    at_upper = (key >= kmax) & ~at_lower
    loads = np.where(
        at_lower, p.lower_bounds, np.where(at_upper, p.upper_bounds, respond(key))
    )
    return loads, at_lower, at_upper


def breakpoints(p: AllocationProblem, key_decimals: int | None = None) -> BreakpointTable:
    """Sorted 2n-entry table of clamp thresholds and aggregate responses."""
    kmin, kmax = _agent_keys(p, key_decimals)
    n = p.n
    agents = np.tile(np.arange(n), 2)
    is_upper = np.arange(2 * n) >= n
    keys = np.concatenate([kmin, kmax])
    order = np.lexsort((is_upper, agents, keys))
    keys = keys[order]
    bps = [
        Breakpoint(i, UPPER if up else LOWER, k)
        for i, up, k in zip(agents[order].tolist(), is_upper[order].tolist(), keys.tolist())
    ]
    masses = np.empty(2 * n)
    rows = max(1, _BLOCK_ELEMENTS // n)
    respond = p._costs.response_from_key
    for s in range(0, 2 * n, rows):
        loads, _, _ = _clamp(p, keys[s : s + rows, None], kmin, kmax, respond)
        masses[s : s + rows] = loads.sum(axis=1)
    dm = np.diff(masses)
    slopes = np.where(dm > 0, np.diff(keys) / np.where(dm > 0, dm, 1.0), np.inf)
    return BreakpointTable(
        coordinate=p._costs.family.key_coordinate,
        breakpoints=bps,
        keys=keys,
        masses=masses,
        slopes=slopes,
        key_decimals=key_decimals,
    )


def aggregate_allocation(
    p: AllocationProblem, key: float, key_decimals: int | None = None
) -> float:
    """Total clamped response at a key; saturates outside the table range."""
    return float(allocate_from_lambda(p, key, key_decimals).sum())


def allocate_from_lambda(
    p: AllocationProblem, key: float, key_decimals: int | None = None
) -> np.ndarray:
    """Clamped per-agent allocation at a key (uniform family)."""
    kmin, kmax = _agent_keys(p, key_decimals)
    return _clamp(p, key, kmin, kmax, p._costs.response_from_key)[0]


def solve_lambda(p: AllocationProblem) -> SolverResult:
    """Find the level whose clamped responses sum exactly to the total.

    Uniform-family instances use the breakpoint table and one linear
    interpolation; mixed instances bisect on lam. Zero-width table
    intervals are skipped, and a total that lands exactly on a table
    entry is returned without interpolating.
    """
    w = p.total
    lo_sum = float(p.lower_bounds.sum())
    up_sum = float(p.upper_bounds.sum())
    if w < lo_sum or w > up_sum:
        raise InfeasibleError(
            f"total {w} outside [{lo_sum}, {up_sum}] spanned by the bounds"
        )
    if p._costs.family is None:
        return _solve_mixed(p)

    tbl = breakpoints(p)
    masses, keys = tbl.masses, tbl.keys
    hit_tol = _EXACT_HIT_REL * max(1.0, abs(w))

    hits = np.flatnonzero(np.abs(masses - w) <= hit_tol)
    if hits.size:
        j = int(hits[0])
        key = float(keys[j])
        method = "table-hit"
        bracket = j
    else:
        idx = int(np.searchsorted(masses, w))
        if idx <= 0 or idx >= masses.size:
            raise DegenerateBracketError(f"no bracket contains total {w}")
        j = idx - 1
        dm = masses[j + 1] - masses[j]
        if dm <= 0:
            raise DegenerateBracketError(
                f"bracket {j} has zero width at total {w}"
            )
        slope = (keys[j + 1] - keys[j]) / dm
        key = float(slope * (w - masses[j]) + keys[j])
        method = "interpolation"
        bracket = j

    kmin, kmax = _agent_keys(p, None)
    return _result(
        key,
        float(p._costs.family.lambda_from_key(key)),
        _clamp(p, key, kmin, kmax, p._costs.response_from_key),
        bracket=bracket,
        method=method,
        table=tbl,
    )


def _solve_mixed(p: AllocationProblem) -> SolverResult:
    """Monotone bisection on lam; needed when families are mixed."""
    w = p.total
    kmin = marginals(p, p.lower_bounds)
    kmax = marginals(p, p.upper_bounds)
    lam_lo = float(kmin.min())
    lam_hi = float(kmax.max())
    respond = p._costs.inverse_marginal

    tol = 1e-10 * max(1.0, w)
    lam = 0.5 * (lam_lo + lam_hi)
    for _ in range(200):
        lam = 0.5 * (lam_lo + lam_hi)
        g = float(_clamp(p, lam, kmin, kmax, respond)[0].sum()) - w
        if abs(g) <= tol:
            break
        if g > 0:
            lam_hi = lam
        else:
            lam_lo = lam
    return _result(
        lam,
        lam,
        _clamp(p, lam, kmin, kmax, respond),
        bracket=None,
        method="bisection",
        table=None,
    )


def _result(key, lam, clamped, **fields) -> SolverResult:
    """SolverResult whose allocation and active sets come from one clamp."""
    alloc, at_lower, at_upper = clamped
    return SolverResult(
        allocation=alloc,
        key=key,
        lam=lam,
        interior=np.flatnonzero(~(at_lower | at_upper)).tolist(),
        active_lower=np.flatnonzero(at_lower).tolist(),
        active_upper=np.flatnonzero(at_upper).tolist(),
        **fields,
    )


def compare_and_select(p: AllocationProblem, wstar, wo) -> np.ndarray:
    """Distributed cost comparison by an exact sum up a spanning tree.

    Each agent holds c_i(wstar_i) - c_i(wo_i). Over the breadth-first tree
    rooted at node 0, each round the nodes at the deepest remaining level
    add their partial sums to their parents' (a convergecast), so after
    depth rounds node 0 holds C(wstar) - C(wo). It keeps wstar when that
    total is <= 0, so ties go to the first candidate.
    """
    a_star = as_allocation(p, wstar)
    a_o = as_allocation(p, wo)
    partial = cost_values(p, a_star) - cost_values(p, a_o)
    depth, parent = bfs_tree(p.graph)
    for level in range(int(depth.max()), 0, -1):
        nodes = np.flatnonzero(depth == level)
        np.add.at(partial, parent[nodes], partial[nodes])
    return (a_star if partial[0] <= 0 else a_o).copy()


def select_final(p: AllocationProblem, wstar, wo) -> np.ndarray:
    """Feasibility-guarded final selection used by the pipeline.

    A replicator limit outside the feasible set costs less than any
    feasible point (it ignores the boxes), so comparing costs alone would
    always pick it; an infeasible candidate is discarded instead. Two
    feasible candidates go to the tree-sum comparison, which keeps the one
    with the smaller total cost (wstar on a tie).
    """
    a_star = as_allocation(p, wstar)
    a_o = as_allocation(p, wo)
    star_ok = in_feasible_set(p, a_star)
    o_ok = in_feasible_set(p, a_o)
    if star_ok and o_ok:
        return compare_and_select(p, a_star, a_o)
    if star_ok:
        return a_star.copy()
    if o_ok:
        return a_o.copy()
    raise InfeasibleError("neither candidate lies in the feasible set")
