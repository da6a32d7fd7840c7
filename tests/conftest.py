"""Shared fixtures and random-instance helpers."""

import copy
import time

import numpy as np
import pytest

from taskalloc import AllocationProblem, DrdConfig, drd, get_instance
from taskalloc.costs import exponential, quadratic
from taskalloc.drd import default_start, simulate
from taskalloc.graph import from_edge_list
from taskalloc.problem import marginals


def one_step(p, w, dt, step=0):
    """One synchronous replicator step from w, bit for bit the step simulate
    takes; raises StepOverflowError at `step` if a load turns negative or
    non-finite."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = w + dt * drd._drift(*p.graph.adjacency.T, w, marginals(p, w), p.total)
        if drd._first_overflow(nxt[None]) is not None:
            raise drd._overflow_error(nxt, step)
    return nxt


def spread(p, w):
    """The replicator's residual at w: the largest marginal of an agent
    carrying mass above 1e-9 * total minus the least marginal, or 0."""
    w = np.asarray(w, dtype=float)
    return float(drd._spread(marginals(p, w), w, drd.MASS_FLOOR_REL * p.total))


def adjacent(g, i):
    """The agents adjacent to i, read from the adjacency pairs (i, j)."""
    return set(g.adjacency[g.adjacency[:, 0] == i, 1].tolist())


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
    ref = np.asarray(fig2.reference["allocation"])
    t0 = time.perf_counter()
    traj = simulate(p, default_start(p), DrdConfig(step=fig2.drd_step), reference=ref)
    elapsed = time.perf_counter() - t0
    return p, traj, elapsed


@pytest.fixture(scope="session")
def fig3_run(fig3):
    p = fig3.problem
    ref = np.asarray(fig3.reference["allocation"])
    t0 = time.perf_counter()
    traj = simulate(p, default_start(p), DrdConfig(step=fig3.drd_step), reference=ref)
    elapsed = time.perf_counter() - t0
    return p, traj, elapsed
