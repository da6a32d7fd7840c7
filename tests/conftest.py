"""Shared fixtures and random-instance helpers."""

import copy
import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from taskalloc import AllocationProblem, DrdConfig, drd, get_instance
from taskalloc.costs import EXPONENTIAL, QUADRATIC, CostModel, exponential, quadratic
from taskalloc.drd import default_start, simulate
from taskalloc.errors import (
    CostOverflowError,
    DisconnectedError,
    NotFeasibleError,
    ParseError,
    StepOverflowError,
)
from taskalloc.graph import from_edge_list
from taskalloc.lambda_solver import _SUM_TOL, SolverResult
from taskalloc.problem import as_allocation, default_tol, marginals, serialize_problem
from taskalloc.verify import KktCertificate


# ---------------------------------------------------------------------------
# reference replicator step: the drift, the two family marginal formulas and
# the overflow rule as simulate computed them one call at a time, before its
# loop bound the formula and inlined the drift. They are kept as they were,
# so that a loop of one_step is the reference simulate must match bit for bit.


def step_marginals(p, w):
    """Each agent's marginal cost at loads w (n,), scattered per family."""
    out = np.empty(w.shape)
    for g in p._costs.groups:
        x = w[g.idx]
        if g.name == EXPONENTIAL:
            out[g.idx] = g.a_per_span * np.exp((x - g.lower) / g.span)
        else:
            out[g.idx] = g.a * (x - g.lower) + g.b
    return out


def step_drift(p, w):
    """Replicator drift dw/dt at loads w; each bincount over the adjacency
    pairs gives every agent's neighbour sum."""
    rows, cols = p.graph.adjacency.T
    g = step_marginals(p, w)
    n = w.shape[0]
    nbr_w = np.bincount(rows, weights=w[cols], minlength=n)
    nbr_gw = np.bincount(rows, weights=(g * w)[cols], minlength=n)
    return (w / p.total) * (nbr_gw - g * nbr_w)


def one_step(p, w, dt, step=0):
    """One synchronous replicator step from w; raises StepOverflowError at
    `step`, naming the agents, if a load turns negative or non-finite."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = w + dt * step_drift(p, w)
        if not (nxt.min() >= 0.0 and np.isfinite(nxt.sum())):
            bad = ~np.isfinite(nxt) | (nxt < 0)
            raise StepOverflowError(np.flatnonzero(bad).tolist(), step_index=step)
    return nxt


def spread(p, w):
    """The replicator's residual at w: the largest marginal of an agent
    carrying mass above 1e-9 * total minus the least marginal, or 0."""
    w = np.asarray(w, dtype=float)
    return float(drd._spread(marginals(p, w), w, drd.MASS_FLOOR_REL * p.total))


def adjacent(g, i):
    """The agents adjacent to i, read from the adjacency pairs (i, j)."""
    return set(g.adjacency[g.adjacency[:, 0] == i, 1].tolist())


def document(p):
    """p's problem file as a JSON document: each agent's coefficients are in
    its "agents" list, and an edited copy parses back with parse_problem."""
    return json.loads(serialize_problem(p))


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak, in bytes, of the memory that
    tracemalloc traced during the call."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def replaced(doc, path, value):
    """A deep copy of the JSON document doc with the value at path (a tuple
    of keys and indices; () is the whole document) replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def random_graph(rng, n):
    """Random connected graph: a random spanning tree plus a few extras."""
    if n == 1:
        return from_edge_list(1, [])
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False)
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return from_edge_list(n, sorted(edges))


def random_problem(rng, n=None, family=None, interior_total=True):
    """Feasible random instance; family is per-instance uniform unless 'mixed'."""
    if n is None:
        n = int(rng.integers(2, 5))
    if family is None:
        family = str(rng.choice(["exponential", "quadratic"]))
    agents = []
    for i in range(n):
        fam = family
        if family == "mixed":
            fam = "exponential" if rng.random() < 0.5 else "quadratic"
        lower = float(rng.uniform(0.0, 50.0))
        width = float(rng.uniform(1.0, 100.0))
        if fam == "exponential":
            agents.append(
                exponential(a=float(rng.uniform(1.0, 2000.0)), lower=lower, upper=lower + width)
            )
        else:
            agents.append(
                quadratic(
                    a=float(rng.uniform(1e-3, 0.1)),
                    b=float(rng.uniform(0.1, 10.0)),
                    lower=lower,
                    upper=lower + width,
                )
            )
    lo = sum(a.lower for a in agents)
    up = sum(a.upper for a in agents)
    if interior_total:
        total = lo + float(rng.uniform(0.05, 0.95)) * (up - lo)
    else:
        # the sums themselves: lo + 1.0 * (up - lo) can round above up
        total = up if rng.choice([0.0, 1.0]) == 1.0 else lo
    if total <= 0:
        total = 0.5 * (lo + up)
    return AllocationProblem(
        graph=random_graph(rng, n), agents=tuple(agents), total=total
    )


def evenly_chorded_ring(n, chords):
    """0-based edge list: the ring 0..n-1 plus `chords` chords to the
    opposite node, spread evenly round the ring."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(k * n // chords, (k * n // chords + n // 2) % n) for k in range(chords)]
    return edges


def stratified(rng, lo, hi, n, order):
    """n uniform draws on [lo, hi], one inside each of n equal slices, the
    slices in `order`: the law of each draw is uniform, but the spread of
    the set is the same for every seed."""
    return lo + (hi - lo) * (order + rng.uniform(size=n)) / n


def interior_problem(rng, n, family, chords):
    """Instance with a known interior optimum, built as the replicator
    benchmark builds its inputs: the equal-marginal level is picked first
    and the total derived from it, so the optimum lies strictly inside
    every box at lower_i + t_i * span_i. Returns the problem and that
    optimum.

    * exponential (fig2-style): a_i = span_i * exp(-t_i), so the marginal
      (a_i/span_i) exp((w - lower_i)/span_i) equals 1 at the optimum.
    * quadratic (fig3-style): the marginal a_i (w - lower_i) + b_i equals
      the level lam at the optimum, with b_i = lam - a_i t_i span_i > 0.
    """
    fixed = np.random.default_rng([n, 5])

    def draw(lo, hi):
        return stratified(rng, lo, hi, n, fixed.permutation(n))

    t = draw(0.15, 0.85)
    if family == EXPONENTIAL:
        lower = np.zeros(n)
        span = draw(700.0, 1800.0)
        a = span * np.exp(-t)
        agents = [exponential(a=float(a[i]), lower=0.0, upper=float(span[i])) for i in range(n)]
    else:
        lower = draw(40.0, 700.0)
        span = draw(110.0, 600.0)
        a = draw(0.0013, 0.0132)
        lam = float((a * t * span).max()) + rng.uniform(0.2, 0.9)
        b = lam - a * t * span
        agents = [
            quadratic(a=float(a[i]), b=float(b[i]), lower=float(lower[i]),
                      upper=float(lower[i] + span[i]))
            for i in range(n)
        ]
    optimum = lower + t * span
    graph = from_edge_list(n, evenly_chorded_ring(n, chords))
    return AllocationProblem(graph=graph, agents=tuple(agents), total=float(optimum.sum())), optimum


@pytest.fixture(scope="session")
def tab1():
    return get_instance("tab1")


@pytest.fixture(scope="session")
def tab3():
    return get_instance("tab3")


@pytest.fixture(scope="session")
def fig2():
    return get_instance("fig2")


@pytest.fixture(scope="session")
def fig3():
    return get_instance("fig3")


@pytest.fixture(scope="session")
def fig2_run(fig2):
    """Full default-start replicator run on fig2 (expensive; shared)."""
    p = fig2.problem
    t0 = time.perf_counter()
    traj = simulate(p, default_start(p), DrdConfig(step=fig2.drd_step))
    elapsed = time.perf_counter() - t0
    return p, traj, elapsed


@pytest.fixture(scope="session")
def fig3_run(fig3):
    p = fig3.problem
    t0 = time.perf_counter()
    traj = simulate(p, default_start(p), DrdConfig(step=fig3.drd_step))
    elapsed = time.perf_counter() - t0
    return p, traj, elapsed


# ---------------------------------------------------------------------------
# references: the level-synchronous BFS and the per-agent parser that
# graph._bfs and problem.parse_problem replaced, kept as they were so the
# tests can require the same trees, problems and messages


def bfs_reference(g, start):
    """Distances from start (-1 if unreached) and BFS parents (-1 at start
    and at unreached nodes), one frontier at a time, in O(n + m) work."""
    rows, cols = g.adjacency.T
    row_start = np.searchsorted(rows, np.arange(g.n + 1))
    degree = np.diff(row_start)
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = np.array([start])
    level = 0
    while frontier.size:
        level += 1
        # the adjacency pairs (u, v) of every u in the frontier
        count = degree[frontier]
        end = count.cumsum()
        pair = np.repeat(row_start[frontier] + count - end, count) + np.arange(end[-1])
        v = cols[pair]
        new = dist[v] < 0
        v, u = v[new], rows[pair[new]]
        # a node reached from several frontier nodes keeps the one written last
        parent[v] = u
        frontier = v[parent[v] == u]
        dist[frontier] = level
    return dist, parent


_ROOT_KEYS = {"total", "graph", "agents"}
_GRAPH_KEYS = {"n", "edges"}
_AGENT_KEYS = {
    EXPONENTIAL: {"family", "a", "lower", "upper"},
    QUADRATIC: {"family", "a", "b", "lower", "upper"},
}


def _reject_unknown(obj, allowed, where):
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(obj, key, where):
    if key not in obj:
        raise ParseError(f"missing key {key!r} in {where}")
    return obj[key]


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity, or an int past the floats
        raise ParseError(f"{where} must be finite, got {value!r}")
    return float(value)


def parse_reference(text):
    """Parse a problem file, one CostModel per agent; errors name the
    offending field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    _reject_unknown(data, _ROOT_KEYS, "problem")
    total = _number(_require(data, "total", "problem"), "'total'")
    if not total > 0:
        raise ParseError(f"'total' must be positive, got {total!r}")

    gobj = _require(data, "graph", "problem")
    if not isinstance(gobj, dict):
        raise ParseError("'graph' must be an object")
    _reject_unknown(gobj, _GRAPH_KEYS, "graph")
    n = _require(gobj, "n", "graph")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"graph 'n' must be an integer, got {n!r}")
    raw_edges = _require(gobj, "edges", "graph")
    if not isinstance(raw_edges, list):
        raise ParseError("graph 'edges' must be a list of [i, j] pairs")
    edges = []
    for k, pair in enumerate(raw_edges):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"edge #{k + 1} must be a pair [i, j]")
        i, j = pair
        for node in (i, j):
            if not isinstance(node, int) or isinstance(node, bool):
                raise ParseError(f"edge #{k + 1} has non-integer node {node!r}")
            if not 1 <= node <= n:
                raise ParseError(
                    f"edge #{k + 1} node {node} outside 1..{n} (file labels are 1-based)"
                )
        if i == j:
            raise ParseError(f"edge #{k + 1} is a self-loop at node {i}")
        edges.append((i - 1, j - 1))

    aobjs = _require(data, "agents", "problem")
    if not isinstance(aobjs, list):
        raise ParseError("'agents' must be a list")
    if len(aobjs) != n:
        raise ParseError(f"'agents' has {len(aobjs)} entries, graph 'n' is {n}")
    agents = []
    for k, aobj in enumerate(aobjs):
        where = f"agent #{k + 1}"
        if not isinstance(aobj, dict):
            raise ParseError(f"{where} must be an object")
        family = _require(aobj, "family", where)
        if not isinstance(family, str) or family not in _AGENT_KEYS:
            raise ParseError(f"{where} has unknown family {family!r}")
        _reject_unknown(aobj, _AGENT_KEYS[family], where)
        kwargs = dict(
            a=_number(_require(aobj, "a", where), f"{where} 'a'"),
            lower=_number(_require(aobj, "lower", where), f"{where} 'lower'"),
            upper=_number(_require(aobj, "upper", where), f"{where} 'upper'"),
        )
        if family == QUADRATIC:
            kwargs["b"] = _number(_require(aobj, "b", where), f"{where} 'b'")
        try:
            agents.append(CostModel(family=family, **kwargs))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    try:
        g = from_edge_list(n, edges)
    except DisconnectedError as exc:
        labels = [u + 1 for u in exc.unreachable]
        raise ParseError(f"graph is not connected; unreachable from node 1: {labels}") from exc
    except ValueError as exc:
        raise ParseError(f"graph: {exc}") from exc
    return AllocationProblem(graph=g, agents=tuple(agents), total=total)


# ---------------------------------------------------------------------------
# references: the solver and the certificate with numpy's per-call wrappers
# (np.any, np.all, np.flatnonzero, np.broadcast_shapes, (..., idx)
# indexing) that their hot paths dropped, so the tests can require the
# same bits. solve_reference is a copy of solve_lambda's Newton loop over
# these helpers; it also appends its probe keys to `probe_log`.


def _evaluate_reference(table, formula, x, per_agent):
    if table.family is not None:
        return getattr(table.family, formula)(table.groups[0], x)
    shape = np.shape(x) if per_agent else np.broadcast_shapes(np.shape(x), (table.n,))
    out = np.empty(shape)
    for g in table.groups:
        xg = x[..., g.idx] if per_agent else x
        out[..., g.idx] = getattr(g.fam, formula)(g, xg)
    return out


def _marginals_reference(p, w):
    return _evaluate_reference(p._costs, "marginal", np.asarray(w, dtype=float), True)


def _agent_keys_reference(p):
    lam_lo = _marginals_reference(p, p.lower_bounds)
    lam_up = _marginals_reference(p, p.upper_bounds)
    if not ((lam_lo > 0).all() and np.isfinite(lam_up).all()):
        raise CostOverflowError("a marginal cost at a box bound is 0 or inf in floats")
    coord = p._costs.coordinate
    return coord.key_from_lambda(lam_lo), coord.key_from_lambda(lam_up)


def _clamp_reference(p, key, kmin, kmax, respond):
    at_lower = key <= kmin
    at_upper = (key >= kmax) & ~at_lower
    loads = np.where(
        at_lower, p.lower_bounds, np.where(at_upper, p.upper_bounds, respond(key))
    )
    return loads, at_lower, at_upper


def _midpoint_reference(a, b):
    """The float halfway between a and b in float order: a float's int64
    bits count up from 0.0 for x >= 0 and down from -0.0 for x <= 0."""
    def rank(x):
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits + 2**63)

    mid = (rank(a) + rank(b)) // 2
    return float(np.int64(mid if mid >= 0 else -mid - 2**63).view(np.float64))


def solve_reference(p, probe_log):
    """solve_lambda's result, with probes the number of clamps; appends
    each clamp's key to probe_log."""
    w = p.total
    tol = _SUM_TOL * w
    table = p._costs
    kmin, kmax = _agent_keys_reference(p)
    formula = "inverse_marginal" if table.family is None else "response_from_key"

    def respond(key):
        return _evaluate_reference(table, formula, key, False)

    def curvature(loads):
        return _evaluate_reference(table, "curvature", loads, True)

    n = p.n
    k0, c0 = float(kmin.min()), (p.lower_bounds.copy(), np.ones(n, bool), np.zeros(n, bool))
    k1 = math.nextafter(float(kmax.max()), math.inf)
    c1 = (p.upper_bounds.copy(), np.zeros(n, bool), np.ones(n, bool))
    m0, m1 = float(c0[0].sum()), float(c1[0].sum())
    key, c = (k0, c0) if w - m0 <= m1 - w else (k1, c1)
    method, probes = "bound", 0
    if min(w - m0, m1 - w) > tol:
        method, goal, best, bisect = "newton", math.inf, None, False
        with np.errstate(all="ignore"):
            rate = table.coordinate.lambda_per_key(kmin) / curvature(c0[0])
            key = float(((rate * kmin).sum() + (w - m0)) / rate.sum())
        while True:
            if not (bisect or k0 < key < k1):
                key = (w - m0) / (m1 - m0) * (k1 - k0) + k0
                if key == k0 or key == k1:
                    key = math.nextafter(key, k1 if key == k0 else k0)
            if bisect or not k0 < key < k1:
                key = _midpoint_reference(k0, k1)
                if not k0 < key < k1:
                    blend = c0[0] + (c1[0] - c0[0]) / ((m1 - w) - (m0 - w)) * (w - m0)
                    key = k0 if w - m0 <= m1 - w else k1
                    method, c = "blend", (blend, c0[1] & c1[1], c0[2] & c1[2])
                    break
            probe_log.append(key)
            c = _clamp_reference(p, key, kmin, kmax, respond)
            probes += 1
            m = float(c[0].sum())
            miss = abs(m - w)
            if best is not None and miss >= best[2]:
                break
            if miss <= tol:
                best = key, c, miss
            bisect = miss > max(goal, tol)
            if not bisect:
                goal = 0.5 * miss
            if m < w:
                k0, m0, c0 = key, m, c
            else:
                k1, m1, c1 = key, m, c
            if table.family is None:
                with np.errstate(all="ignore"):
                    rate = table.coordinate.lambda_per_key(key) / curvature(c[0])
            inside = ~(c[1] | c[2])
            s = float(rate[inside].sum())
            key = key + (w - m) / s if s > 0 else math.nan
            if not np.any(inside):
                # every agent at a bound: one float past the nearest
                # threshold on w's side, or that threshold itself; short of
                # w, no agent moves up to it, so it becomes the lower end
                edge = float(np.min(kmin[c[1]]) if m < w else np.max(kmax[c[2]]))
                key = math.nextafter(edge, math.inf if m < w else -math.inf)
                if not k0 < key < k1:
                    if m < w:
                        k0 = edge
                    key = edge
                bisect = False
            if best is not None and not k0 < key < k1:
                break
        if best is not None:
            key, c = best[:2]
    alloc, at_lower, at_upper = c
    below = int(np.sum(kmin < key) + np.sum(kmax < key))
    return SolverResult(
        allocation=alloc,
        key=key,
        lam=float(table.coordinate.lambda_from_key(key)),
        bracket=below - 1 + bool(np.any(kmin == key) or np.any(kmax == key)),
        status=np.select([at_lower, at_upper], [-1, 1], 0).astype(np.int8),
        method=method,
        probes=probes,
    )


def in_feasible_set_reference(p, w):
    arr = as_allocation(p, w)
    tol = default_tol(p)
    if abs(arr.sum() - p.total) > tol:
        return False
    return bool(
        np.all(arr >= p.lower_bounds - tol) and np.all(arr <= p.upper_bounds + tol)
    )


def kkt_reference(p, w, tol=1e-6):
    arr = as_allocation(p, w)
    if not in_feasible_set_reference(p, arr):
        raise NotFeasibleError(
            "allocation is outside the feasible set; certificate undefined"
        )
    lo, up = p.lower_bounds, p.upper_bounds
    span = up - lo
    act = 1e-6 * span
    marg = _marginals_reference(p, arr)

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

    at_lower = (low_mask & ~both) | (both & (marg >= lam))
    at_upper = up_mask & ~at_lower
    lower_active = np.flatnonzero(at_lower).tolist()
    upper_active = np.flatnonzero(at_upper).tolist()

    alphas = {i: float(marg[i]) - lam for i in lower_active}
    betas = {j: lam - float(marg[j]) for j in upper_active}
    residual = float(np.abs(marg[k_idx] - lam).max()) if k_idx.size else 0.0
    violation = np.where(at_lower, lam - marg, np.where(at_upper, marg - lam, np.abs(marg - lam)))
    resolution = np.abs(_marginals_reference(p, np.nextafter(arr, np.inf)) - marg)
    passed = bool((violation <= tol * abs(lam) + resolution).all())
    return KktCertificate(
        lam=lam,
        alphas=alphas,
        betas=betas,
        status=np.select([at_lower, at_upper], [-1, 1], 0).astype(np.int8),
        stationarity_residual=residual,
        passed=passed,
    )
