"""Water-filling solver: one safeguarded Newton loop finds the level.

Every agent's box-clamped response to a marginal-cost level lam is

    lower        if lam <= marginal(lower)
    upper        if lam >= marginal(upper)
    inverse_marginal(lam)   otherwise

so the aggregate response is nondecreasing, and between two consecutive
clamp thresholds no agent changes its active set. The cost table picks
the key coordinate the level is sought in (log lam for exponential costs,
lam for quadratic or mixed ones); for a single family every interior
response is linear in it. `solve_lambda` finds the level by semismooth
Newton steps on the key (as Cominetti, Mascarenhas & Silva, Math. Prog.
Comp. 6, 2014, do for the continuous quadratic knapsack), one O(n) clamp
each, inside a bracket that every step shrinks; it sorts nothing. One
vectorized clamp, `_clamp`, applies the rule above (lower wins a tie with
upper) for every solver step and the final status.

The printed table `breakpoints(p)`, a function of the problem alone, takes
O(n log n) sorts and one merge sweep of exact int running sums (Patriksson,
EJOR 185, 2008), for a single family only.

Below about 10^3 agents a call costs numpy's per-call overhead more than
arithmetic, so hot paths use ndarray methods, not np.any, np.all,
np.flatnonzero or np.broadcast_shapes.
"""

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CostOverflowError, InfeasibleError
from .problem import (
    AllocationProblem,
    _exact_total,
    _float_ints,
    as_allocation,
    cost_values,
    in_feasible_set,
    marginals,
)

_SUM_TOL = 1e-12  # load sum miss (relative to w) of a bound sum, and of a Newton landing


@dataclass
class BreakpointTable:
    """The 2n clamp thresholds of one cost family, sorted by key, then agent,
    then lower before upper, with the aggregate response at each key.

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
    """Box-clamped optimum (loads sum to w within 1e-12·w), its level and each agent's status."""

    allocation: np.ndarray
    key: float  # level in the cost table's key coordinate
    lam: float  # marginal-cost level itself
    bracket: int  # 0-based sorted threshold at the key, or the one starting its interval
    status: np.ndarray  # (n,) int8: -1 at lower, 0 interior, 1 at upper
    method: str  # "bound" | "newton" | "blend"
    probes: int  # distinct clamps made, one O(n) pass each


def _agent_keys(p: AllocationProblem):
    """Each agent's clamp thresholds (key at lower, key at upper); raises
    CostOverflowError when a marginal at a bound is 0 or inf in floats."""
    with np.errstate(over="ignore", invalid="ignore"):  # past the floats: raises below
        lam_lo, lam_up = marginals(p, p.lower_bounds), marginals(p, p.upper_bounds)
    if not ((lam_lo > 0).all() and np.isfinite(lam_up).all()):
        raise CostOverflowError("a marginal cost at a box bound is 0 or inf in floats")
    coord = p._costs.coordinate
    return coord.key_from_lambda(lam_lo), coord.key_from_lambda(lam_up)


def _rates(p: AllocationProblem, kmin):
    """d(level)/d(key) at kmin, and c'' at the lower bound: their ratio is d(load)/d(key)."""
    with np.errstate(all="ignore"):
        return p._costs.coordinate.lambda_per_key(kmin), p._costs.curvature(p.lower_bounds)


def _clamp(p: AllocationProblem, key, kmin, kmax):
    """The box clamp at a level: key <= kmin gives the lower bound, then
    key >= kmax the upper bound, otherwise the cost table's interior
    response at key. Returns (loads, at-lower mask, at-upper mask)."""
    at_lower = key <= kmin
    at_upper = (key >= kmax) & ~at_lower
    loads = p._costs.response_from_key(key)
    np.copyto(loads, p.upper_bounds, where=at_upper)
    np.copyto(loads, p.lower_bounds, where=at_lower)
    return loads, at_lower, at_upper


def breakpoints(p: AllocationProblem) -> BreakpointTable:
    """Sorted 2n-entry table of clamp thresholds and aggregate responses of one
    cost family (mixed raises ValueError). Each mass is sum(lower) +
    sum(upper - lower) over the agents at upper + sum(rate * (key - kmin))
    over the interior ones: exact int running sums, rounded once (inf past
    the floats)."""
    if p._costs.family is None:
        raise ValueError("a breakpoint table needs a single cost family")
    n, (kmin, kmax) = p.n, _agent_keys(p)
    # entry 2i is agent i's lower threshold and 2i+1 its upper one, so a
    # stable sort breaks key ties by agent, then lower before upper
    keys = np.stack([kmin, kmax], axis=1).ravel()
    order = keys.argsort(kind="stable")
    keys = keys[order]
    # each rate num / den as an int to 60 bits or more, in one unit; where
    # either leaves the floats, the secant over the box (0 if flat)
    num, den = _rates(p, kmin)
    bad = ~(np.isfinite(num) & np.isfinite(den) & (den > 0))
    num, den = np.where(bad, p.upper_bounds - p.lower_bounds, num), np.where(bad, kmax - kmin, den)
    (nums, un), (dens, ud) = _float_ints(num * (den > 0)), _float_ints(np.where(den > 0, den, 1.0))
    shift = 60 + max((d.bit_length() - m.bit_length() for m, d in zip(nums, dens) if m), default=0)
    bounds, ub = _float_ints(np.concatenate([p.lower_bounds, p.upper_bounds]))
    (ka, uk), ur = _float_ints(np.concatenate([keys, kmin])), un - ud - shift
    unit = min(ub, ur + uk, 0)
    sb, sf, scale = ub - unit, ur + uk - unit, 1 << -unit
    r = [((m << shift) // d) << sf for m, d in zip(nums, dens)]
    ra = list(map(operator.mul, r, ka[2 * n :]))
    del nums, dens
    limit, masses = ((1 << 1024) - (1 << 970)) * scale, []  # the least mass rounding to inf
    # one merge of the sorted keys with the agents by kmin and by kup (kmax, past it if flat)
    kup, end = np.where(kmin < kmax, kmax, np.nextafter(kmax, math.inf)), (math.inf, 0)
    lo, up = (zip(np.sort(t).tolist(), t.argsort().tolist()) for t in (kmin, kup))
    (t_lo, i), (t_up, j), rs, ras, base = next(lo, end), next(up, end), 0, 0, sum(bounds[:n]) << sb
    for key, k in zip(keys.tolist(), ka):
        while t_lo < key:  # interior: rs and ras gain the agent's r and r * kmin
            rs, ras, (t_lo, i) = rs + r[i], ras + ra[i], next(lo, end)
        while t_up <= key:  # at upper: they lose them, and base gains its span
            rs, ras, base = rs - r[j], ras - ra[j], base + ((bounds[n + j] - bounds[j]) << sb)
            t_up, j = next(up, end)
        m = base + k * rs - ras
        masses.append(m / scale if m < limit else math.inf)
    masses = np.array(masses)
    return BreakpointTable(
        coordinate=p._costs.coordinate.key_coordinate, agents=order >> 1,
        kinds=np.where(order & 1, "upper", "lower"), keys=keys, masses=masses,
        slopes=_slopes(keys, masses),
    )


def _paper_table(p, decimals: int):
    """The paper's table at thresholds rounded to `decimals`: (kmin, kmax, the
    clamped masses at the sorted thresholds, the slopes d(key)/d(mass))."""
    kmin, kmax = (np.round(k, decimals) for k in _agent_keys(p))
    keys = np.sort(np.concatenate([kmin, kmax]))
    masses = _clamp(p, keys[:, None], kmin, kmax)[0].sum(axis=1)
    return kmin, kmax, masses, _slopes(keys, masses)


def _slopes(keys, masses):
    """d(key)/d(mass) between consecutive table entries; inf where the mass does not move."""
    dm = np.diff(masses)
    return np.where(dm > 0, np.diff(keys) / np.where(dm > 0, dm, 1.0), np.inf)


def solve_lambda(p: AllocationProblem) -> SolverResult:
    """Find the level whose clamped responses sum to the total.

    The bracket starts at the least lower threshold and the float past the
    greatest upper one; a total within 1e-12 * w of a bound sum takes that
    end ("bound"). Each step clamps once inside the bracket, moves the end
    on its side of w and takes a Newton step, or, with every agent at a
    bound, one float past the nearest threshold on w's side (else onto it,
    a new lower end if short of w); a step out of the bracket takes the
    ends' secant, and one that fails to halve the miss makes the next a
    bisection in float order (at most 64 isolate a jump). Within 1e-12 * w,
    Newton steps go on while they shrink the miss ("newton"). With no float
    left in the bracket, its ends' loads are blended ("blend").
    """
    w = p.total
    tol = _SUM_TOL * w
    costs = p._costs
    kmin, kmax = _agent_keys(p)
    none, every = np.zeros(p.n, bool), np.ones(p.n, bool)
    k0, c0 = float(kmin.min()), (p.lower_bounds.copy(), every, none)
    k1, c1 = math.nextafter(float(kmax.max()), math.inf), (p.upper_bounds.copy(), none, every)
    m0, m1 = float(c0[0].sum()), float(c1[0].sum())
    key, c = (k0, c0) if w - m0 <= m1 - w else (k1, c1)
    method, probes = "bound", 0
    if min(w - m0, m1 - w) > tol:
        method, goal, best, bisect = "newton", math.inf, None, False
        # slopes d(load)/d(key) at the lower thresholds, at every key for one family
        with np.errstate(all="ignore"):
            rate = np.divide(*_rates(p, kmin))
            key = float(((rate * kmin).sum() + (w - m0)) / rate.sum())
        while True:
            if not (bisect or k0 < key < k1):
                # share of the mass gap first, so nothing underflows
                key = (w - m0) / (m1 - m0) * (k1 - k0) + k0
                if key == k0 or key == k1:
                    key = math.nextafter(key, k1 if key == k0 else k0)
            if bisect or not k0 < key < k1:
                key = _midpoint(k0, k1)
                if not k0 < key < k1:  # blend the ends' loads; a bound holds at both ends
                    blend = c0[0] + (c1[0] - c0[0]) / ((m1 - w) - (m0 - w)) * (w - m0)
                    key = k0 if w - m0 <= m1 - w else k1
                    method, c = "blend", (blend, c0[1] & c1[1], c0[2] & c1[2])
                    break
            c = _clamp(p, key, kmin, kmax)
            probes += 1
            m = float(c[0].sum())
            miss = abs(m - w)
            if best is not None and miss >= best[2]:
                break
            if miss <= tol:
                best = key, c, miss
            bisect = miss > max(goal, tol)  # goal: half the miss of the last step that halved it
            if not bisect:
                goal = 0.5 * miss
            if m < w:
                k0, m0, c0 = key, m, c
            else:
                k1, m1, c1 = key, m, c
            if costs.family is None:  # a mixed table's slopes move with the level
                with np.errstate(all="ignore"):
                    rate = costs.coordinate.lambda_per_key(key) / costs.curvature(c[0])
            inside = ~(c[1] | c[2])
            s = float(rate[inside].sum())
            key = key + (w - m) / s if s > 0 else math.nan
            if s == 0 and not inside.any():  # every agent at a bound: past the nearest jump
                edge, bisect = float(kmin[c[1]].min() if m < w else kmax[c[2]].max()), False
                key = math.nextafter(edge, math.inf if m < w else -math.inf)
                if not k0 < key < k1:  # onto edge; short of w the loads hold up to it: the new k0
                    key, k0 = edge, edge if m < w else k0
            if best is not None and not k0 < key < k1:
                break
        key, c = (key, c) if best is None else best[:2]  # a blend has no landing
    alloc, at_lower, at_upper = c
    below = np.count_nonzero(kmin < key) + np.count_nonzero(kmax < key)
    return SolverResult(
        allocation=alloc, key=key, lam=float(costs.coordinate.lambda_from_key(key)),
        bracket=int(below) - 1 + bool((kmin == key).any() or (kmax == key).any()),
        status=at_upper.view(np.int8) - at_lower.view(np.int8), method=method, probes=probes,
    )


def _midpoint(a: float, b: float) -> float:
    """The float halfway between a and b in float order."""
    i, j = map(_rank, struct.unpack("<2q", struct.pack("<2d", a, b)))
    return struct.unpack("<d", struct.pack("<q", _rank((i + j) // 2)))[0]


def _rank(bits: int) -> int:
    """A float's bits, read as an int, as its rank among the floats, and back."""
    return bits if bits >= 0 else -bits - (1 << 63)


@np.errstate(over="ignore", invalid="ignore")  # costs past the floats read inf or nan
def select_final(p: AllocationProblem, wstar, wo) -> np.ndarray:
    """Feasibility-guarded choice of a replicator limit or the water-filling
    optimum, for library callers (no CLI command runs it). An infeasible
    candidate is discarded: a limit that ignores the boxes costs less than
    any feasible point. Of two feasible candidates it keeps wstar unless
    the exact sum of wo's costs is smaller (two infinite totals tie). Exact
    addition is associative, so a convergecast of exact partial sums up
    any spanning tree would leave node 0 holding this same total.
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
