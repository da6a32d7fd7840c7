"""Water-filling solver: one bracket search over the sorted clamp thresholds.

Every agent's box-clamped response to a marginal-cost level lam is

    lower        if lam <= marginal(lower)
    upper        if lam >= marginal(upper)
    inverse_marginal(lam)   otherwise

so the aggregate response is nondecreasing, and between two consecutive
clamp thresholds no agent changes its active set. The cost table picks
the key coordinate the thresholds are sorted in (log lam for exponential
costs, lam for quadratic or mixed ones). `solve_lambda` binary-searches
the 2n sorted thresholds for the bracket holding the total, one O(n)
clamp per probe, and solves inside it by Illinois false position. Its
first step is the linear interpolation between the bracket ends, which is
exact when every interior response is linear in the key, as for a single
family.

One vectorized clamp, `_clamp`, applies the rule above (lower wins a tie
with upper) for every probe, the final allocation and active sets, and the
masses of the printed table `breakpoints(p, key_decimals)`. Each table
mass is the plain sum of the clamped loads at its key, over blocks of keys
so memory stays O(n); prefix sums would round differently and move the
last digits of the bundled reports. The reference tables use keys
quantized to 3 decimals; `solve_lambda` always uses full precision.

The final selection between a replicator limit and the water-filling
optimum (`select_final`) compares their total costs, each summed exactly.

Below about 10^3 agents a call costs numpy's per-call overhead more than
arithmetic, so hot paths use ndarray methods, not np.any, np.all,
np.flatnonzero or np.broadcast_shapes.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CostOverflowError, InfeasibleError
from .problem import (
    AllocationProblem,
    _exact_total,
    as_allocation,
    cost_values,
    in_feasible_set,
    marginals,
)

_SUM_TOL = 1e-12  # load sum miss (relative to w) of a table hit, and of false position's stop
_BLOCK_ELEMENTS = 1 << 17  # agents x keys clamped at once while building a table


@dataclass
class BreakpointTable:
    """The 2n clamp thresholds, sorted by key, then agent, then lower before
    upper, with the aggregate response at each key.

    Entry j is agent agents[j]'s threshold of kind kinds[j] ("lower" or
    "upper"). slopes[j] is d(key)/d(mass) between entries j and j+1 (the
    interpolation slope); infinite where the mass does not move.
    """

    coordinate: str  # "log-marginal" | "marginal"
    agents: np.ndarray  # (2n,) 0-based agent of each threshold
    kinds: np.ndarray  # (2n,) "lower" | "upper"
    keys: np.ndarray  # (2n,) ascending
    masses: np.ndarray  # (2n,) aggregate response at each key
    slopes: np.ndarray  # (2n-1,)


@dataclass
class SolverResult:
    """Box-clamped optimum (loads sum to w within 1e-12·w), its level and active sets."""

    allocation: np.ndarray
    key: float  # level in the cost table's key coordinate
    lam: float  # marginal-cost level itself
    bracket: int  # 0-based threshold hit, or the interval it starts
    interior: list[int]
    active_lower: list[int]
    active_upper: list[int]
    method: str  # "table-hit" | "interpolation" | "false-position"
    probes: int  # distinct clamps made, one O(n) pass each
    fp_iterations: int  # false-position passes after the first interpolation


def _agent_keys(p: AllocationProblem, key_decimals: int | None):
    """Each agent's clamp thresholds (key at lower, key at upper); raises
    CostOverflowError when a marginal at a bound is 0 or inf in floats."""
    lam_lo, lam_up = marginals(p, p.lower_bounds), marginals(p, p.upper_bounds)
    if not ((lam_lo > 0).all() and np.isfinite(lam_up).all()):
        raise CostOverflowError("a marginal cost at a box bound is 0 or inf in floats")
    coord = p._costs.coordinate
    kmin, kmax = coord.key_from_lambda(lam_lo), coord.key_from_lambda(lam_up)
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
    loads = respond(key)
    np.copyto(loads, p.upper_bounds, where=at_upper)
    np.copyto(loads, p.lower_bounds, where=at_lower)
    return loads, at_lower, at_upper


def breakpoints(p: AllocationProblem, key_decimals: int | None = None) -> BreakpointTable:
    """Sorted 2n-entry table of clamp thresholds and aggregate responses.
    key_decimals rounds the keys; a mixed table is in lam, where rounding
    could turn a positive threshold into 0, so it refuses key_decimals."""
    if key_decimals is not None and p._costs.family is None:
        raise ValueError("key_decimals needs a single cost family; mixed tables are in lam")
    kmin, kmax = _agent_keys(p, key_decimals)
    n = p.n
    # entry 2i is agent i's lower threshold and 2i+1 its upper one, so a
    # stable sort breaks key ties by agent, then lower before upper
    keys = np.stack([kmin, kmax], axis=1).ravel()
    order = keys.argsort(kind="stable")
    keys = keys[order]
    masses = np.empty(2 * n)
    rows = max(1, _BLOCK_ELEMENTS // n)
    respond = p._costs.response_from_key
    for s in range(0, 2 * n, rows):
        loads, _, _ = _clamp(p, keys[s : s + rows, None], kmin, kmax, respond)
        masses[s : s + rows] = loads.sum(axis=1)
    dm = np.diff(masses)
    slopes = np.where(dm > 0, np.diff(keys) / np.where(dm > 0, dm, 1.0), np.inf)
    return BreakpointTable(
        coordinate=p._costs.coordinate.key_coordinate,
        agents=order >> 1,
        kinds=np.where(order & 1, "upper", "lower"),
        keys=keys,
        masses=masses,
        slopes=slopes,
    )


def solve_lambda(p: AllocationProblem) -> SolverResult:
    """Find the level whose clamped responses sum exactly to the total.

    A binary search finds the first threshold whose mass reaches the
    total; within 1e-12 * w it is a table hit. Otherwise the level lies in
    the bracket that threshold closes, solved by false position
    ("interpolation" when its first step lands). Bracket ends that share a
    key hold agents whose marginal is flat to rounding (kmin == kmax, where
    lower wins the clamp's tie); the upper end counts them at upper.
    """
    w = p.total
    kmin, kmax = _agent_keys(p, None)
    keys = np.sort(np.concatenate([kmin, kmax]))
    respond = p._costs.response_from_key

    @functools.cache  # a float64 key and its float share an entry, as do -0.0 and 0.0
    def clamp(key):
        return _clamp(p, float(key), kmin, kmax, respond)

    def mass(key) -> float:
        return float(clamp(key)[0].sum())

    # First threshold whose mass reaches w - hit_tol: w lies between the
    # bound sums, so the last qualifies unless a flat agent is still at
    # lower there, and the first (all at lower) only as a hit.
    hit_tol = _SUM_TOL * w
    lo, j = 0, keys.size - 1
    while lo < j:
        mid = (lo + j) // 2
        if mass(keys[mid]) - w >= -hit_tol:
            j = mid
        else:
            lo = mid + 1
    m1 = mass(keys[j])
    if abs(m1 - w) <= hit_tol:
        key, method, fp = float(keys[j]), "table-hit", 0
        clamped = clamp(key)
    else:
        j -= 1
        k0, k1 = float(keys[j]), float(keys[j + 1])
        hi = clamp(k1)
        if k0 == k1:
            flat = (kmin == k1) & (kmax == k1)
            hi = (np.where(flat, p.upper_bounds, hi[0]), hi[1] & ~flat, hi[2] | flat)
        key, clamped, method, fp = _false_position(clamp, w, k0, k1, clamp(k0), hi)
    lam = float(p._costs.coordinate.lambda_from_key(key))
    probes = clamp.cache_info().currsize
    return _result(key, lam, clamped, bracket=j, method=method, probes=probes, fp_iterations=fp)


def _false_position(clamp, w, k0, k1, c0, c1):
    """Illinois false position inside a bracket whose end clamps c0 and c1
    have masses m0 < w < m1, to a load sum within _SUM_TOL * w; returns
    (level, clamp there, method, passes after the first). The first step
    is the linear interpolation between the ends, reported as
    "interpolation" when it lands. After that, an end kept twice in a row
    has its miss halved. A step whose key gap over mass gap underflows, so
    that it lands on an end, takes the share of the mass gap first. If no
    float is left inside the bracket (one ulp of lam can move a load by
    more, as near a large quadratic b), the loads of its two ends are
    blended to sum to w, each clipped between its ends (rounded end masses
    can push the share past 1); every marginal stays between the ends."""
    tol = _SUM_TOL * w
    m0, m1 = float(c0[0].sum()), float(c1[0].sum())
    g0, g1 = m0 - w, m1 - w  # true misses at the ends; m0, m1 get halved
    side, method = 0, "interpolation"  # side: which end the last step replaced
    for fp in itertools.count():  # fp: passes after the first interpolation
        key = (k1 - k0) / (m1 - m0) * (w - m0) + k0
        if not k0 < key < k1 and math.nextafter(k0, k1) < k1:
            key = (w - m0) / (m1 - m0) * (k1 - k0) + k0
        if not k0 < key < k1:
            near, c = (k0, c0) if -g0 < g1 else (k1, c1)
            # shares of the mass gap times the miss: nothing overflows or is subnormal
            blend = c0[0] + (c1[0] - c0[0]) / (g1 - g0) * -g0
            blend = np.clip(blend, np.minimum(c0[0], c1[0]), np.maximum(c0[0], c1[0]))
            return near, (blend, *c[1:]), "false-position", fp
        clamped = clamp(key)
        m = float(clamped[0].sum())
        if abs(m - w) <= tol:
            return key, clamped, method, fp
        method = "false-position"
        if m < w:
            k0, g0, m0, c0 = key, m - w, m, clamped
            if side < 0:
                m1 = w + 0.5 * (m1 - w)
            side = -1
        else:
            k1, g1, m1, c1 = key, m - w, m, clamped
            if side > 0:
                m0 = w + 0.5 * (m0 - w)
            side = 1


def _result(key, lam, clamped, **fields) -> SolverResult:
    """SolverResult whose allocation and active sets come from one clamp."""
    alloc, at_lower, at_upper = clamped
    return SolverResult(
        allocation=alloc,
        key=key,
        lam=lam,
        interior=(~(at_lower | at_upper)).nonzero()[0].tolist(),
        active_lower=at_lower.nonzero()[0].tolist(),
        active_upper=at_upper.nonzero()[0].tolist(),
        **fields,
    )


def select_final(p: AllocationProblem, wstar, wo) -> np.ndarray:
    """Feasibility-guarded choice of a replicator limit or the water-filling
    optimum, for library callers (no CLI command runs it).

    A replicator limit outside the feasible set costs less than any
    feasible point (it ignores the boxes), so comparing costs alone would
    always pick it; an infeasible candidate is discarded instead. Of two
    feasible candidates it keeps wstar unless the exact sum of wo's costs
    is smaller; two infinite totals tie, so wstar is kept. Exact addition
    is associative, so a convergecast of exact partial sums up any spanning
    tree would leave node 0 holding this same total.
    """
    a_star = as_allocation(p, wstar)
    a_o = as_allocation(p, wo)
    star_ok = in_feasible_set(p, a_star)
    o_ok = in_feasible_set(p, a_o)
    if star_ok and o_ok:
        star_ok = _exact_total(cost_values(p, a_star)) <= _exact_total(cost_values(p, a_o))
    if star_ok:
        return a_star.copy()
    if o_ok:
        return a_o.copy()
    raise InfeasibleError("neither candidate lies in the feasible set")
