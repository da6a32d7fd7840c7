"""Optimality verification: KKT certificates and brute-force oracles.

The problem is convex with linear constraints, so the KKT conditions are
necessary and sufficient: a passing certificate proves global optimality.
The Monte Carlo and grid oracles provide independent brute-force
cross-checks that never rely on the solver's own machinery.
"""

import itertools
from dataclasses import dataclass

import numpy as np

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

_PILOT = 20_000  # draws used to estimate the rejection acceptance rate
_BLOCK = 16_384  # draws per rejection block
_CHAINS = 512  # parallel hit-and-run chains
_BURN = 50  # walk steps between recorded hit-and-run samples
_REJECTION_MIN_RATE = 1e-3  # below this, switch to hit-and-run
_GRID_EVAL_CAP = 200_000_000


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
    best: np.ndarray
    best_cost: float
    samples: int
    seed: int | None


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

    Points come from rejection sampling of the sum-w simplex (exponential
    spacings) while the acceptance rate allows it, otherwise from a
    hit-and-run walk inside the feasible polytope. Deterministic for a
    fixed seed, and sample streams are prefix-stable across sample
    counts. Raises SamplerStarvedError when the feasible set is too thin
    to walk (effective acceptance below 1e-6).
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
            return OracleResult(best=best, best_cost=cost, samples=samples, seed=seed)

    rng = np.random.default_rng(seed)
    tracker = _BestTracker()
    try:
        pilot = _simplex_block(rng, _PILOT, n, w)
        accepted = _accept(pilot, lo, up)
        if accepted.mean() >= _REJECTION_MIN_RATE:
            _rejection_stream(p, rng, samples, pilot, accepted, lo, up, tracker, dump)
        else:
            _hit_and_run_stream(p, rng, samples, lo, up, tracker, dump)
    finally:
        dump.close()
    return OracleResult(
        best=tracker.best, best_cost=tracker.cost, samples=samples, seed=seed
    )


def grid_min(p: AllocationProblem, resolution: float) -> OracleResult:
    """Exhaustive scan of the feasible slice: the first n-1 coordinates run
    over box grids at `resolution`, the last is solved from the sum
    constraint and box-checked. Deterministic small-instance oracle."""
    if p.n > 4:
        raise DimensionTooLargeError(f"grid oracle supports n <= 4, got {p.n}")
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    n, w = p.n, p.total
    lo, up = p.lower_bounds, p.upper_bounds
    eps = 1e-9 * max(1.0, abs(w))

    if n == 1:
        if lo[0] - eps <= w <= up[0] + eps:
            best = np.array([w])
            return OracleResult(
                best=best,
                best_cost=float(total_cost_batch(p, best[None])[0]),
                samples=1,
                seed=None,
            )
        raise EmptyGridError("the single point w violates the box")

    # Count the points from the spans before any axis is built; rounding
    # in _axis can move an axis by one point, which the cap does not need.
    count_all = 1.0
    for i in range(n - 1):
        count_all *= np.ceil(float(up[i] - lo[i]) / float(resolution) - 1e-9) + 1
    if count_all > _GRID_EVAL_CAP:
        raise DimensionTooLargeError(
            f"grid would need {count_all:.0f} evaluations (cap {_GRID_EVAL_CAP})"
        )

    axes = [_axis(lo[i], up[i], resolution) for i in range(n - 1)]
    vec = axes[-1]
    tracker = _BestTracker()
    feasible = 0
    for combo in itertools.product(*axes[:-1]):
        w_last = w - sum(combo) - vec
        mask = (w_last >= lo[-1] - eps) & (w_last <= up[-1] + eps)
        m = int(mask.sum())
        if m == 0:
            continue
        batch = np.empty((m, n))
        for col, val in enumerate(combo):
            batch[:, col] = val
        batch[:, n - 2] = vec[mask]
        batch[:, n - 1] = np.clip(w_last[mask], lo[-1], up[-1])
        tracker.update(batch, total_cost_batch(p, batch))
        feasible += m
    if feasible == 0:
        raise EmptyGridError("no grid point satisfies the sum and box constraints")
    return OracleResult(
        best=tracker.best, best_cost=tracker.cost, samples=feasible, seed=None
    )


# ---------------------------------------------------------------------------
# sampling machinery


class _BestTracker:
    """Keeps the strictly-smallest cost seen; earliest sample wins ties."""

    def __init__(self):
        self.best = None
        self.cost = np.inf

    def update(self, points: np.ndarray, costs: np.ndarray):
        k = int(np.argmin(costs))
        if costs[k] < self.cost:
            self.cost = float(costs[k])
            self.best = points[k].copy()


class _OracleDump:
    def __init__(self, path, n: int):
        self.fh = open(path, "w", encoding="utf-8") if path is not None else None
        self.index = 0
        if self.fh:
            cols = ",".join(f"w_{i + 1}" for i in range(n))
            self.fh.write(f"sample_index,{cols},C\n")

    def write(self, points: np.ndarray, costs: np.ndarray):
        if self.fh is None:
            self.index += len(points)
            return
        for row, c in zip(points, costs):
            vals = ",".join(f"{x:.15g}" for x in row)
            self.fh.write(f"{self.index},{vals},{c:.15g}\n")
            self.index += 1

    def close(self):
        if self.fh:
            self.fh.close()
            self.fh = None


def _simplex_block(rng, count: int, n: int, w: float) -> np.ndarray:
    """Uniform points of the sum-w simplex via normalized exponential spacings."""
    e = rng.exponential(size=(count, n))
    return w * e / e.sum(axis=1, keepdims=True)


def _accept(points: np.ndarray, lo: np.ndarray, up: np.ndarray) -> np.ndarray:
    return np.all(points >= lo, axis=1) & np.all(points <= up, axis=1)


def _rejection_stream(p, rng, samples, pilot, pilot_mask, lo, up, tracker, dump):
    taken = 0
    block, mask = pilot, pilot_mask
    while True:
        pts = block[mask]
        if pts.shape[0] > samples - taken:
            pts = pts[: samples - taken]
        if pts.shape[0]:
            costs = total_cost_batch(p, pts)
            tracker.update(pts, costs)
            dump.write(pts, costs)
            taken += pts.shape[0]
        if taken >= samples:
            return
        block = _simplex_block(rng, _BLOCK, p.n, p.total)
        mask = _accept(block, lo, up)


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


def _project_directions(d: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Zero pinned coordinates and remove the mean over free ones, so every
    direction stays inside the sum plane and the pinned faces."""
    d = d.copy()
    d[:, ~free] = 0.0
    nfree = int(free.sum())
    if nfree < 2:
        d[:] = 0.0
        return d
    d[:, free] -= d[:, free].sum(axis=1, keepdims=True) / nfree
    return d


def _chord(x: np.ndarray, d: np.ndarray, lo, up) -> tuple[np.ndarray, np.ndarray]:
    """Feasible step range [t_lo, t_hi] along direction d from x (batch)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        to_up = np.where(d != 0, (up - x) / d, np.inf)
        to_lo = np.where(d != 0, (lo - x) / d, -np.inf)
    t_hi = np.minimum(np.where(d > 0, to_up, np.inf), np.where(d < 0, to_lo, np.inf)).min(axis=1)
    t_lo = np.maximum(np.where(d > 0, to_lo, -np.inf), np.where(d < 0, to_up, -np.inf)).max(axis=1)
    # guard against float-noise inversions: staying put is always allowed
    return np.minimum(t_lo, 0.0), np.maximum(t_hi, 0.0)


def _hit_and_run_stream(p, rng, samples, lo, up, tracker, dump):
    n, w = p.n, p.total
    free = (up - lo) > 0
    x0 = _plane_center(p)

    probe = _project_directions(rng.normal(size=(64, n)), free)
    t_lo, t_hi = _chord(x0[None].repeat(64, axis=0), probe, lo, up)
    norms = np.linalg.norm(probe, axis=1)
    with np.errstate(invalid="ignore"):
        lengths = np.where(norms > 0, (t_hi - t_lo) * norms, 0.0)
    if float(np.nanmax(lengths, initial=0.0)) < 1e-12 * max(1.0, abs(w)):
        raise SamplerStarvedError(
            "feasible set is effectively lower-dimensional; "
            "acceptance below 1e-6 and no direction to walk"
        )

    chains = np.repeat(x0[None], _CHAINS, axis=0)
    taken = 0
    while taken < samples:
        for _ in range(_BURN):
            d = _project_directions(rng.normal(size=(_CHAINS, n)), free)
            t_lo, t_hi = _chord(chains, d, lo, up)
            with np.errstate(invalid="ignore"):
                span = t_hi - t_lo
                t = np.where(np.isfinite(span), t_lo + span * rng.uniform(size=_CHAINS), 0.0)
            chains = chains + t[:, None] * d
        pts = chains[: min(_CHAINS, samples - taken)]
        costs = total_cost_batch(p, pts)
        tracker.update(pts, costs)
        dump.write(pts, costs)
        taken += pts.shape[0]


def _axis(lo: float, up: float, step: float) -> np.ndarray:
    pts = np.arange(lo, up + 0.5 * step, step)
    pts = np.minimum(pts, up)
    if pts.size == 0 or pts[-1] < up - 1e-9 * step:
        pts = np.append(pts, up)
    return pts
