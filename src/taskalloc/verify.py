"""Optimality verification: KKT certificates and brute-force oracles.

The problem is convex with linear constraints, so the KKT conditions are
necessary and sufficient: a passing certificate proves global optimality.
The Monte Carlo and grid oracles provide independent brute-force
cross-checks that never rely on the solver's own machinery. Monte Carlo
samples by rejection, or by a walk of pair moves on too thin a set.

Monte Carlo prices its points with total_cost_batch. The grid instead
keeps one cost table per free axis, since the total cost is separable,
and adds each cell's per-agent costs left to right. That is the order in
which numpy sums the rows of a (cells, n) batch when n < 8, so for the
grid's n <= 4 its sums are exactly the batch's.
"""

from dataclasses import dataclass

import numpy as np

from .costs import _CostTable
from .errors import (
    DimensionTooLargeError,
    EmptyGridError,
    NotFeasibleError,
    SamplerStarvedError,
)
from .problem import (
    AllocationProblem,
    as_allocation,
    in_feasible_set,
    marginals,
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


@dataclass
class KktCertificate:
    """Executable optimality certificate for a feasible allocation.

    lam is the shared marginal-cost level; alphas/betas are the
    multipliers of active lower/upper bounds. passed means: multipliers
    nonnegative and the interior marginals agree with lam, both within
    tol * max(1, |lam|) plus the agent's resolution (how far its marginal
    moves over one ulp of its load) — which certifies the global optimum.
    """

    lam: float
    alphas: dict[int, float]
    betas: dict[int, float]
    interior: list[int]
    lower_active: list[int]
    upper_active: list[int]
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


def kkt_check(p: AllocationProblem, w, tol: float = 1e-6) -> KktCertificate:
    """Partition agents by bound activity, estimate the shared level, and
    evaluate the stationarity multipliers.

    Activity is detected within 1e-6 of each box width. The level lam is
    the mean marginal over interior agents; with no interior agent it is
    the midpoint of the bracket [max marginal(upper) over upper-active,
    min marginal(lower) over lower-active]. Raises NotFeasibleError when
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
    marg = marginals(p, arr)

    pinned = span == 0
    low_mask = (np.abs(arr - lo) <= act) | pinned
    up_mask = (np.abs(arr - up) <= act) | pinned
    both = low_mask & up_mask
    interior_mask = ~(low_mask | up_mask)

    k_idx = np.flatnonzero(interior_mask)
    if k_idx.size:
        lam = float(marg[k_idx].mean())
    else:
        strict_low = low_mask & ~both
        strict_up = up_mask & ~both
        edges = []
        if strict_up.any():
            edges.append(float(marg[strict_up].max()))
        if strict_low.any():
            edges.append(float(marg[strict_low].min()))
        lam = 0.5 * sum(edges) if len(edges) == 2 else (edges[0] if edges else float(marg.mean()))

    # an agent at both bounds counts as lower-active when marginal >= lam
    at_lower = (low_mask & ~both) | (both & (marg >= lam))
    at_upper = up_mask & ~at_lower
    lower_active = np.flatnonzero(at_lower).tolist()
    upper_active = np.flatnonzero(at_upper).tolist()

    # multipliers from the marginals at the loads themselves: a load within
    # the activity band but off its bound is still stationary at lam
    alphas = {i: float(marg[i]) - lam for i in lower_active}
    betas = {j: lam - float(marg[j]) for j in upper_active}
    residual = float(np.abs(marg[k_idx] - lam).max()) if k_idx.size else 0.0
    # each agent's violation: its stationarity residual, or its negated multiplier
    violation = np.where(at_lower, lam - marg, np.where(at_upper, marg - lam, np.abs(marg - lam)))
    # each agent's resolution, the change of its marginal over one ulp of
    # its load, widens its tolerance: a steep agent cannot meet lam more closely
    resolution = np.abs(marginals(p, np.nextafter(arr, np.inf)) - marg)
    passed = bool((violation <= tol * max(1.0, abs(lam)) + resolution).all())
    return KktCertificate(
        lam=lam,
        alphas=alphas,
        betas=betas,
        interior=[int(i) for i in k_idx],
        lower_active=lower_active,
        upper_active=upper_active,
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
    Raises SamplerStarvedError when fewer than two agents have a box of
    nonzero width, so no pair move exists.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, w = p.n, p.total
    lo, up = p.lower_bounds, p.upper_bounds
    scale = max(1.0, abs(w))
    dump = _OracleDump(dump_path, n)

    # Degenerate totals leave a single feasible point.
    for bound in (lo, up):
        if abs(float(bound.sum()) - w) <= 1e-12 * scale:
            best = bound.astype(float).copy()
            cost = float(total_cost_batch(p, best[None])[0])
            dump.write(best[None], np.array([cost]))
            dump.close()
            return OracleResult(best, cost, samples, seed, mode="degenerate", drawn=0, accepted=0)

    rng = np.random.default_rng(seed)
    room = w - float(lo.sum())
    tracker = _BestTracker()
    chain_steps = 0
    try:
        points = _shifted_simplex(rng, _draw_size(_PILOT_ELEMENTS, n), lo, room)
        inside = np.all(points <= up[:, None], axis=0)
        drawn, accepted = inside.size, int(inside.sum())
        if accepted >= _REJECTION_MIN_RATE * drawn:
            mode, taken = "rejection", 0
            while True:
                pts = points.T[np.flatnonzero(inside)[: samples - taken]]
                if pts.shape[0]:
                    costs = total_cost_batch(p, pts)
                    tracker.update(pts, costs)
                    dump.write(pts, costs)
                    taken += pts.shape[0]
                if taken >= samples:
                    break
                points = _shifted_simplex(rng, _draw_size(_BLOCK_ELEMENTS, n), lo, room)
                inside = np.all(points <= up[:, None], axis=0)
                drawn += inside.size
                accepted += int(inside.sum())
        else:
            mode = "hit-and-run"
            del points, inside  # the walk does not need the pilot
            chain_steps = _hit_and_run_stream(p, rng, samples, lo, up, tracker, dump)
    finally:
        dump.close()
    return OracleResult(
        tracker.best, tracker.cost, samples, seed,
        mode=mode, drawn=drawn, accepted=accepted, chain_steps=chain_steps,
    )


def grid_min(p: AllocationProblem, resolution: float) -> OracleResult:
    """Exhaustive scan of the feasible slice: the first n-1 coordinates run
    over box grids at `resolution`, the last is solved from the sum
    constraint and box-checked. Deterministic small-instance oracle.

    The total cost is separable, so each free axis gets a cost table,
    evaluated once per axis value by that agent's own formula, and a cell
    evaluates only its solved last coordinate. A cell's total adds its
    agents' costs left to right; numpy sums a row shorter than 8 left to
    right as well, so for n <= 4 the costs, the tie order and the chosen
    point are bit for bit those of total_cost_batch on the feasible cells.
    Memory grows with the axes and their cost tables only.
    """
    if p.n > 4:
        raise DimensionTooLargeError(f"grid oracle supports n <= 4, got {p.n}")
    if not 0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    n, w = p.n, p.total
    lo, up = p.lower_bounds, p.upper_bounds
    eps = 1e-9 * max(1.0, abs(w))

    if n == 1:
        if lo[0] - eps <= w <= up[0] + eps:
            best = np.array([w])
            cost = float(_CostTable(p.agents).cost(best)[0])
            return OracleResult(best, cost, 1, None, mode="grid", drawn=1, accepted=1)
        raise EmptyGridError("the single point w violates the box")

    # Count the points from the spans before any axis is built, stopping
    # past the cap; Python floats saturate at inf without a warning. Rounding
    # in _axis can move an axis by one point, which the cap does not need.
    count_all = 1.0
    for i in range(n - 1):
        count_all *= float(np.ceil(float(up[i] - lo[i]) / float(resolution) - 1e-9)) + 1
        if count_all > _GRID_EVAL_CAP:
            raise DimensionTooLargeError(
                f"grid would need at least {count_all:.3g} evaluations (cap {_GRID_EVAL_CAP})"
            )

    # The last two free axes form 2-D blocks of (inner rows) x (last axis)
    # of at most _GRID_BLOCK_CELLS cells, a longer row cut into column
    # chunks; only the head axes before them loop in Python. Cells are
    # taken in C order, so the tie order is that of a per-row scan.
    axes = [_axis(lo[i], up[i], resolution) for i in range(n - 1)]
    one_agent = [_CostTable((m,)) for m in p.agents]  # one table per agent, its own formula
    costs = [_axis_costs(one_agent[i], a) for i, a in enumerate(axes)]
    last, last_cost = axes[-1], costs[-1]
    inner, inner_cost = (axes[-2], costs[-2]) if n > 2 else (np.zeros(1),) * 2  # n = 2: one row
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
    return OracleResult(
        best, best_cost, feasible, None, mode="grid", drawn=drawn, accepted=feasible
    )


# ---------------------------------------------------------------------------
# sampling machinery


class _BestTracker:
    """Keeps the strictly-smallest cost seen; earliest sample wins ties,
    and the first sample stands when no cost is finite."""

    def __init__(self):
        self.best = None
        self.cost = np.inf

    def update(self, points: np.ndarray, costs: np.ndarray):
        k = int(np.argmin(costs))
        if self.best is None or costs[k] < self.cost:
            self.cost = float(costs[k])
            self.best = points[k].copy()


class _OracleDump:
    """Writes `sample_index,w_1,...,w_n,C` rows, every number %.15g."""

    def __init__(self, path, n: int):
        self.fh = open(path, "w", encoding="utf-8") if path is not None else None
        self.index = 0
        self.row_format = "%d," + "%.15g," * n + "%.15g\n"
        if self.fh:
            cols = ",".join(f"w_{i + 1}" for i in range(n))
            self.fh.write(f"sample_index,{cols},C\n")

    def write(self, points: np.ndarray, costs: np.ndarray):
        if self.fh is not None:
            fmt = self.row_format
            rows = np.column_stack((points, costs)).tolist()
            self.fh.write("".join(fmt % (i, *r) for i, r in enumerate(rows, self.index)))
        self.index += len(points)

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
    if gap > 0:
        head = up - x
        x = x + gap * head / head.sum()
    elif gap < 0:
        head = x - lo
        x = x + gap * head / head.sum()
    return x


def _hit_and_run_stream(p, rng, samples, lo, up, tracker, dump) -> int:
    """Feed `samples` walk points to tracker and dump; returns the moves per chain.

    A move picks, in each chain, two distinct free agents i and j and adds
    t (e_i - e_j), t uniform on the chord that keeps both boxes: the sum
    is kept and the uniform law is invariant. Chain c's load i is x[c*n + i].
    """
    n = p.n
    free = np.flatnonzero(up > lo)
    if free.size < 2:
        raise SamplerStarvedError(f"{free.size} agent(s) with a nonzero box; no pair move exists")
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
        pts = x.reshape(_CHAINS, n)[: samples - start]
        costs = total_cost_batch(p, pts)
        tracker.update(pts, costs)
        dump.write(pts, costs)
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
