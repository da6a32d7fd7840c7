"""The constrained allocation instance and its feasibility predicates.

An instance couples an interaction graph, one cost model per agent, and
the total task w. Allocations are plain float vectors of length n. Each
instance builds its cost table (see :mod:`taskalloc.costs`) once, on first
use; per-agent costs, marginals and the bounds are all read from it.

The on-disk format is JSON::

    {"total": w,
     "graph": {"n": n, "edges": [[i, j], ...]},       # 1-based node labels
     "agents": [{"family": "exponential", "a": ..., "lower": ..., "upper": ...},
                {"family": "quadratic", "a": ..., "b": ..., "lower": ..., "upper": ...},
                ...]}

Node labels in files are 1-based; indices are 0-based everywhere in the
API. Unknown keys are rejected so typos cannot silently change a run.
"""

import json
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import graph as graphmod
from .costs import EXPONENTIAL, QUADRATIC, CostModel, _CostTable
from .errors import DisconnectedError, InfeasibleError, LengthMismatchError, ParseError
from .graph import Graph


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    """Graph + per-agent costs + total task; everything downstream consumes this."""

    graph: Graph
    agents: tuple[CostModel, ...]
    total: float

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if len(self.agents) != self.graph.n:
            raise LengthMismatchError(self.graph.n, len(self.agents), "agents")
        if not self.total > 0:
            raise ValueError(f"total task must be positive, got {self.total}")
        lo = sum(a.lower for a in self.agents)
        up = sum(a.upper for a in self.agents)
        if self.total < lo:
            raise InfeasibleError(
                f"total {self.total} is below the sum of lower bounds {lo}"
            )
        if self.total > up:
            raise InfeasibleError(
                f"total {self.total} exceeds the sum of upper bounds {up}"
            )

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def _costs(self) -> _CostTable:
        """The one struct-of-arrays cost table every vectorized evaluation reads."""
        return _CostTable(self.agents)

    @property
    def lower_bounds(self) -> np.ndarray:
        return self._costs.lower

    @property
    def upper_bounds(self) -> np.ndarray:
        return self._costs.upper


def as_allocation(p: AllocationProblem, w) -> np.ndarray:
    """Validate length and return a float vector."""
    arr = np.asarray(w, dtype=float)
    if arr.shape != (p.n,):
        raise LengthMismatchError(p.n, arr.shape[0] if arr.ndim == 1 else -1)
    return arr


def default_tol(p: AllocationProblem) -> float:
    """Membership tolerance, relative to the total task."""
    return 1e-6 * p.total


def cost_values(p: AllocationProblem, w) -> np.ndarray:
    """Per-agent costs c_i(w_i); w may be (n,) or a batch (m, n)."""
    return p._costs.cost(np.asarray(w, dtype=float))


def marginals(p: AllocationProblem, w) -> np.ndarray:
    """Per-agent marginal costs; w may be (n,) or a batch (m, n)."""
    return p._costs.marginal(np.asarray(w, dtype=float))


def total_cost(p: AllocationProblem, w) -> float:
    """C(W) = sum of per-agent costs."""
    return float(cost_values(p, as_allocation(p, w)).sum())


def total_cost_batch(p: AllocationProblem, batch: np.ndarray) -> np.ndarray:
    """C(W) for each row of an (m, n) batch."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != p.n:
        raise LengthMismatchError(p.n, batch.shape[-1], "batch")
    return cost_values(p, batch).sum(axis=1)


def in_feasible_set(p: AllocationProblem, w) -> bool:
    """Sum matches the total and every load sits in its box (within default_tol)."""
    arr = as_allocation(p, w)
    tol = default_tol(p)
    if abs(arr.sum() - p.total) > tol:
        return False
    return bool(
        np.all(arr >= p.lower_bounds - tol) and np.all(arr <= p.upper_bounds + tol)
    )


def in_simplex(p: AllocationProblem, w) -> bool:
    """Nonnegative loads summing to the total (within default_tol); boxes ignored."""
    arr = as_allocation(p, w)
    tol = default_tol(p)
    return bool(abs(arr.sum() - p.total) <= tol and np.all(arr >= -tol))


# ---------------------------------------------------------------------------
# problem files

_ROOT_KEYS = {"total", "graph", "agents"}
_GRAPH_KEYS = {"n", "edges"}
_AGENT_KEYS = {
    EXPONENTIAL: {"family", "a", "lower", "upper"},
    QUADRATIC: {"family", "a", "b", "lower", "upper"},
}


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"missing key {key!r} in {where}")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity, or an int past the floats
        raise ParseError(f"{where} must be finite, got {value!r}")
    return float(value)


def parse_problem(text: str) -> AllocationProblem:
    """Parse a problem file; errors name the offending field."""
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
        g = graphmod.from_edge_list(n, edges)
    except DisconnectedError as exc:
        labels = [u + 1 for u in exc.unreachable]
        raise ParseError(f"graph is not connected; unreachable from node 1: {labels}") from exc
    except ValueError as exc:
        raise ParseError(f"graph: {exc}") from exc
    return AllocationProblem(graph=g, agents=tuple(agents), total=total)


def load_problem(path) -> AllocationProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def problem_to_dict(p: AllocationProblem) -> dict:
    agents = []
    for a in p.agents:
        entry = {"family": a.family, "a": a.a}
        if a.family == QUADRATIC:
            entry["b"] = a.b
        entry["lower"] = a.lower
        entry["upper"] = a.upper
        agents.append(entry)
    return {
        "total": p.total,
        "graph": {
            "n": p.n,
            "edges": [[i + 1, j + 1] for i, j in graphmod.edge_list(p.graph)],
        },
        "agents": agents,
    }


def serialize_problem(p: AllocationProblem) -> str:
    return json.dumps(problem_to_dict(p), indent=2) + "\n"


def save_problem(p: AllocationProblem, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_problem(p))
