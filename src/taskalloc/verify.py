"""Optimality verification: KKT certificates and brute-force oracles.

The problem is convex with linear constraints, so the KKT conditions are
necessary and sufficient: a passing certificate proves global optimality.
The Monte Carlo and grid oracles provide independent brute-force
cross-checks that never rely on the solver's own machinery. Monte Carlo
samples by rejection, or by a walk of pair moves on too thin a set.

Monte Carlo hands every sampled point to one sink, which prices it with
total_cost_batch, keeps the cheapest and writes its dump row. The grid
keeps one cost table per free axis instead, as the cost is separable, and
adds each cell's costs left to right, the solved agent's last: numpy sums
a (cells, n) batch's rows the same way when n < 8 and that column is last.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .costs import _CostTable
from .errors import DimensionTooLargeError, EmptyGridError, NotFeasibleError
from .problem import (
    AllocationProblem,
    _format_rows,
    _positive,
    as_allocation,
    in_feasible_set,
    total_cost_batch,
)

# Rejection draws come in arrays of about this many numbers, so memory
# stays flat in n: the pilot (20 000 points at n = 3) estimates the
# acceptance rate, later blocks (4096 points at n = 3) refill the stream.
# Neither depends on `samples`, so streams are prefix-stable.
_PILOT_ELEMENTS = 60_000
_BLOCK_ELEMENTS = 12_288
_MIN_POINTS = 256  # floor; a 256-point pilot keeps rejection on one accepted point
_CHAINS = 512  # parallel hit-and-run chains
_SWEEPS = 5  # pair moves per free agent between recorded hit-and-run samples
_REJECTION_MIN_RATE = 1e-3  # below this, switch to hit-and-run
_GRID_EVAL_CAP = 200_000_000
_GRID_BLOCK_CELLS = 4096  # grid cells evaluated per array pass
_KKT_TOL = 1e-6  # each agent's allowance, relative to its own marginal


@dataclass
class KktCertificate:
    """Executable optimality certificate for a feasible allocation.

    lam is the shared marginal-cost level; alphas/betas are the
    multipliers of the agents of status -1/1. passed means: multipliers
    nonnegative and the interior marginals agree with lam, both within
    _KKT_TOL * |the agent's marginal| plus its resolution (how far its
    marginal moves over one ulp of its load) — which certifies the global
    optimum.
    """

    lam: float
    alphas: dict[int, float]
    betas: dict[int, float]
    status: np.ndarray  # (n,) int8: -1 lower-active, 0 interior, 1 upper-active
    stationarity_residual: float
    passed: bool


@dataclass
class OracleResult:
    """Cheapest of `samples` feasible points, and how they were found.

    mode is "degenerate" (a single feasible point), "rejection" or
    "hit-and-run" for monte_carlo_min, and "grid" for grid_min. drawn
    counts the candidates tried and accepted those inside the feasible
    set: simplex draws for the sampler (in hit-and-run mode, the pilot
    that chose the walker), grid cells for the grid. chain_steps counts the
    pair moves each hit-and-run chain made, 0 in the other modes. best is
    never None: when no cost is finite, it is the first point.
    """

    best: np.ndarray
    best_cost: float
    samples: int
    seed: int | None
    mode: str
    drawn: int
    accepted: int
    chain_steps: int = 0


def kkt_check(p: AllocationProblem, w) -> KktCertificate:
    """Partition agents by bound activity into the certificate's status, find
    a shared level, and evaluate the stationarity multipliers.

    Activity is detected within 1e-6 of each box width. Each agent admits
    the levels within _KKT_TOL (1e-6) * |its marginal| plus its resolution
    (how far its marginal moves over one ulp of its load) of its marginal:
    on both sides when interior, below it when lower-active, above it when
    upper-active.
    The certificate passes when some level lies in every agent's range, and
    lam is the estimate clamped into them all. The estimate is the mean
    interior marginal, or with no interior agent the midpoint of [max
    marginal over upper-active, min marginal over lower-active]. An agent
    whose box is a point admits any level; it counts as lower-active when
    its marginal is >= lam, else upper-active. Raises NotFeasibleError when
    w is not (tolerantly) inside the feasible set.
    """
    arr = as_allocation(p, w)
    if not in_feasible_set(p, arr):
        raise NotFeasibleError(
            "allocation is outside the feasible set; certificate undefined"
        )
    lo, up = p.lower_bounds, p.upper_bounds
    span = up - lo
    act = 1e-6 * span
    marg = p._costs.marginal(arr)

    # a box of width > 0 cannot hold a load within 1e-6 of its width of both bounds
    pinned = span == 0
    at_lo = (np.abs(arr - lo) <= act) & ~pinned
    at_up = (np.abs(arr - up) <= act) & ~pinned
    k_idx = (~(at_lo | at_up | pinned)).nonzero()[0]
    if k_idx.size:
        lam = float(marg[k_idx].sum() / k_idx.size)  # the mean, without its wrapper
    else:
        edges = []
        if at_up.any():
            edges.append(float(marg[at_up].max()))
        if at_lo.any():
            edges.append(float(marg[at_lo].min()))
        lam = 0.5 * sum(edges) if len(edges) == 2 else (edges[0] if edges else float(marg.mean()))

    # each agent's allowance scales with its own marginal, so a steep agent
    # cannot widen another's; its resolution, the change of its marginal over
    # one ulp of its load, widens it: a steep agent cannot meet lam more closely
    allow = _KKT_TOL * np.abs(marg) + np.abs(p._costs.marginal(np.nextafter(arr, np.inf)) - marg)
    floor = float((marg - allow)[~(at_lo | pinned)].max(initial=-np.inf))
    ceil = float((marg + allow)[~(at_up | pinned)].min(initial=np.inf))
    passed = floor <= ceil
    if passed:
        lam = min(max(lam, floor), ceil)

    at_lower = at_lo | (pinned & (marg >= lam))
    at_upper = (at_up | pinned) & ~at_lower

    # multipliers from the marginals at the loads themselves: a load within
    # the activity band but off its bound is still stationary at lam
    margs = marg.tolist()
    alphas = {i: margs[i] - lam for i in at_lower.nonzero()[0].tolist()}
    betas = {j: lam - margs[j] for j in at_upper.nonzero()[0].tolist()}
    residual = float(np.abs(marg[k_idx] - lam).max()) if k_idx.size else 0.0
    return KktCertificate(
        lam=lam,
        alphas=alphas,
        betas=betas,
        status=at_upper.view(np.int8) - at_lower.view(np.int8),
        stationarity_residual=residual,
        passed=passed,
    )


def monte_carlo_min(
    p: AllocationProblem, samples: int, seed: int, dump_path=None
) -> OracleResult:
    """Minimize total cost over `samples` random feasible points.

    Each draw is lower + x with x uniform on the shifted simplex
    {x >= 0, sum x = w - sum lower} (normalized exponential spacings), and
    is kept when it stays under the upper bounds: a uniform point of the
    feasible set. When a pilot accepts fewer than 1e-3 of its draws, the
    points come from a hit-and-run walk of pair moves instead, whose law
    is also uniform (see _hit_and_run_stream). Deterministic for a fixed
    seed, and sample streams are prefix-stable across sample counts.
    A total at a bound sum, or fewer than two agents with a box of nonzero
    width, leaves a single feasible point: the "degenerate" mode.
    `samples` must be an integer >= 1 (not a float such as 600.0, nor a bool), else
    ValueError, whatever the mode.
    """
    if isinstance(samples, bool) or not (isinstance(samples, numbers.Integral) and samples >= 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    n, w = p.n, p.total
    lo, up = p.lower_bounds, p.upper_bounds
    sink = _Sink(p, dump_path)
    mode, drawn, accepted, chain_steps = "degenerate", 0, 0, 0
    try:
        # Degenerate totals leave a single feasible point.
        single = next((b for b in (lo, up) if abs(float(b.sum()) - w) <= 1e-12 * w), None)
        free = np.flatnonzero(up > lo)
        if single is None and free.size < 2:
            # the free agent, if any, takes what the lower bounds leave
            single = lo.copy()
            single[free] = w - math.fsum(np.delete(lo, free).tolist())
        if single is not None:
            sink.add(single.astype(float)[None])
        else:
            rng = np.random.default_rng(seed)
            room = w - float(lo.sum())
            points = _shifted_simplex(rng, _draw_size(_PILOT_ELEMENTS, n), lo, room)
            inside = np.all(points <= up[:, None], axis=0)
            drawn, accepted = inside.size, int(inside.sum())
            if accepted >= _REJECTION_MIN_RATE * drawn:
                mode = "rejection"
                while True:
                    sink.add(points.T[np.flatnonzero(inside)[: samples - sink.count]])
                    if sink.count >= samples:
                        break
                    points = _shifted_simplex(rng, _draw_size(_BLOCK_ELEMENTS, n), lo, room)
                    inside = np.all(points <= up[:, None], axis=0)
                    drawn += inside.size
                    accepted += int(inside.sum())
            else:
                mode = "hit-and-run"
                del points, inside  # the walk does not need the pilot
                chain_steps = _hit_and_run_stream(p, rng, samples, lo, up, sink)
    finally:
        sink.close()
    return OracleResult(
        sink.best, sink.cost, samples, seed,
        mode=mode, drawn=drawn, accepted=accepted, chain_steps=chain_steps,
    )


def grid_min(p: AllocationProblem, resolution: float) -> OracleResult:
    """Exhaustive scan of the feasible slice, a deterministic small-instance
    oracle: the last agent whose box is at least `resolution` wide (else
    the last agent) is solved from the sum and box-checked, the others run
    over box grids at `resolution`. Their sums leave no gap wider than a
    step, so a feasible instance lands cells when some box is a step wide.

    The total cost is separable, so each free axis gets a cost table,
    evaluated once per axis value by that agent's own formula, and a cell
    evaluates only its solved coordinate. A cell's total adds its agents'
    costs left to right, the solved agent's last; numpy sums a row shorter
    than 8 left to right as well, so for n <= 4 the costs, the tie order and
    the chosen point are bit for bit those of total_cost_batch on the
    feasible cells with the solved agent's column last. Memory grows with
    the axes and their cost tables only.
    """
    if p.n > 4:
        raise DimensionTooLargeError(f"grid oracle supports n <= 4, got {p.n}")
    resolution = _positive("resolution", resolution)
    n, w, eps = p.n, p.total, 1e-9 * p.total
    wide = (p.upper_bounds - p.lower_bounds >= resolution).nonzero()[0]
    s = int(wide[-1]) if wide.size else n - 1
    order = [*range(s), *range(s + 1, n), s]  # the solved agent last
    lo, up = p.lower_bounds[order], p.upper_bounds[order]

    # Count the points from the spans before any axis is built, stopping
    # past the cap; Python floats saturate at inf without a warning. Rounding
    # in _axis can move an axis by one point, which the cap does not need.
    count_all = 1.0
    for i in range(n - 1):
        count_all *= float(np.ceil(float(up[i] - lo[i]) / resolution - 1e-9)) + 1
        if count_all > _GRID_EVAL_CAP:
            raise DimensionTooLargeError(
                f"grid would need at least {count_all:.3g} evaluations (cap {_GRID_EVAL_CAP})"
            )

    # The last two free axes form 2-D blocks of (inner rows) x (last axis)
    # of at most _GRID_BLOCK_CELLS cells, a longer row cut into column
    # chunks; only the head axes before them loop in Python. Cells are
    # taken in C order, so the tie order is that of a per-row scan.
    axes = [_axis(lo[i], up[i], resolution) for i in range(n - 1)]
    one_agent = [_CostTable(*(col[i : i + 1] for col in p._costs.columns)) for i in order]
    costs = [_axis_costs(one_agent[i], a) for i, a in enumerate(axes)]
    # n < 3 pads with one-point axes at 0 that cost 0, which move no bit
    # (w - 0.0 = w, 0.0 + c = c), so every n takes this block loop
    pad = [np.zeros(1)] * (3 - n)
    axes, costs = pad + axes, pad + costs
    (inner, last), (inner_cost, last_cost) = axes[-2:], costs[-2:]
    cols = min(last.size, _GRID_BLOCK_CELLS)
    rows_per_block = _GRID_BLOCK_CELLS // cols
    best, best_cost = None, np.inf
    drawn = feasible = 0
    for combo in np.ndindex(*(a.size for a in axes[:-2])):
        head_point = [axes[i][k] for i, k in enumerate(combo)]
        head, head_cost = sum(head_point), sum(costs[i][k] for i, k in enumerate(combo))
        for start in range(0, inner.size, rows_per_block):
            rows = slice(start, start + rows_per_block)
            row_sum, row_cost = head + inner[rows], head_cost + inner_cost[rows]
            for col in range(0, last.size, cols):
                w_last = w - row_sum[:, None] - last[col : col + cols]
                drawn += w_last.size
                mask = (w_last >= lo[-1] - eps) & (w_last <= up[-1] + eps)
                solved = np.clip(w_last[mask], lo[-1], up[-1])
                if solved.size == 0:
                    continue
                totals = (row_cost[:, None] + last_cost[col : col + cols])[mask]
                totals += one_agent[-1].cost(solved)
                feasible += solved.size
                k = int(np.argmin(totals))
                if best is None or totals[k] < best_cost:
                    best_cost = float(totals[k])
                    i, j = divmod(int(np.flatnonzero(mask)[k]), mask.shape[1])
                    best = np.array((*head_point, inner[start + i], last[col + j], solved[k])[-n:])
    if feasible == 0:
        raise EmptyGridError("no grid point satisfies the sum and box constraints")
    return OracleResult(best[np.argsort(order)], best_cost, feasible, None,  # in agent order
                        mode="grid", drawn=drawn, accepted=feasible)


# ---------------------------------------------------------------------------
# sampling machinery


class _Sink:
    """Takes every sampled point: prices it with total_cost_batch, keeps
    the strictly cheapest (the earliest wins ties, and the first stands
    when no cost is finite), writes its `sample_index,w_1,...,w_n,C` dump
    row through problem._format_rows when a dump path is given, and counts it."""

    def __init__(self, p: AllocationProblem, dump_path=None):
        self.p = p
        self.best, self.cost, self.count = None, np.inf, 0
        self.fh = open(dump_path, "w", encoding="utf-8") if dump_path is not None else None
        self.row_format = "%d," + "%.15g," * p.n + "%.15g\n"
        if self.fh:
            cols = ",".join(f"w_{i + 1}" for i in range(p.n))
            self.fh.write(f"sample_index,{cols},C\n")

    def add(self, points: np.ndarray):
        if len(points) == 0:
            return
        costs = total_cost_batch(self.p, points)
        k = int(np.argmin(costs))
        if self.best is None or costs[k] < self.cost:
            self.cost = float(costs[k])
            self.best = points[k].copy()
        if self.fh is not None:
            index = np.arange(self.count, self.count + len(points))
            self.fh.writelines(_format_rows(self.row_format, index, *points.T, costs))
        self.count += len(points)

    def close(self):
        if self.fh:
            self.fh.close()
            self.fh = None


def _draw_size(elements: int, n: int) -> int:
    """Points in a draw of about `elements` numbers."""
    return max(_MIN_POINTS, elements // n)


def _shifted_simplex(rng, count: int, lo: np.ndarray, room: float) -> np.ndarray:
    """`count` points lo + x, x uniform on {x >= 0, sum x = room}, by
    normalized exponential spacings, built in place as the columns of an
    (n, count) array: the per-point sums and box tests then run along
    rows, which is fast for small n. Every coordinate is at least its
    lower bound exactly."""
    e = rng.standard_exponential(size=(lo.size, count))
    e *= room / e.sum(axis=0)
    e += lo[:, None]
    return e


def _plane_center(p: AllocationProblem) -> np.ndarray:
    """Box midpoint moved onto the sum plane along the remaining headroom."""
    lo, up = p.lower_bounds, p.upper_bounds
    x = 0.5 * (lo + up)
    gap = p.total - float(x.sum())
    if gap:
        head = up - x if gap > 0 else x - lo
        x = x + gap * head / head.sum()
    return x


def _hit_and_run_stream(p, rng, samples, lo, up, sink) -> int:
    """Feed `samples` walk points to the sink; returns the moves per chain.

    A move picks, in each chain, two distinct free agents i and j (there
    are two: fewer leave a single point, the degenerate mode) and adds
    t (e_i - e_j), t uniform on the chord that keeps both boxes: the sum
    is kept and the uniform law is invariant. Chain c's load i is x[c*n + i].
    """
    n = p.n
    free = np.flatnonzero(up > lo)
    x = np.tile(_plane_center(p), _CHAINS)
    offset = np.arange(_CHAINS) * n
    moves, block = _SWEEPS * free.size, _BLOCK_ELEMENTS // _CHAINS
    for start in range(0, samples, _CHAINS):
        for done in range(0, moves, block):
            size = (min(block, moves - done), _CHAINS)
            a = rng.integers(free.size, size=size)
            b = rng.integers(free.size - 1, size=size)
            b += b >= a  # a uniform pair of distinct free agents
            for i, j, u in zip(free[a], free[b], rng.uniform(size=size)):
                ci, cj = i + offset, j + offset
                xi, xj = x[ci], x[cj]
                # the chord keeps 0, so float noise can never invert it
                t_lo = np.minimum(np.maximum(lo[i] - xi, xj - up[j]), 0.0)
                t_hi = np.maximum(np.minimum(up[i] - xi, xj - lo[j]), 0.0)
                t = t_lo + (t_hi - t_lo) * u
                x[ci], x[cj] = xi + t, xj - t
        sink.add(x.reshape(_CHAINS, n)[: samples - start])
    return moves * -(-samples // _CHAINS)


def _axis(lo: float, up: float, step: float) -> np.ndarray:
    pts = np.arange(lo, up + 0.5 * step, step)
    np.minimum(pts, up, out=pts)
    if pts.size == 0 or pts[-1] < up - 1e-9 * step:
        pts = np.append(pts, up)
    return pts


def _axis_costs(table: _CostTable, axis: np.ndarray) -> np.ndarray:
    out = np.empty_like(axis)
    for s in range(0, axis.size, _GRID_BLOCK_CELLS):  # chunks bound the temporaries
        out[s : s + _GRID_BLOCK_CELLS] = table.cost(axis[s : s + _GRID_BLOCK_CELLS])
    return out
