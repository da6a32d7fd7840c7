"""The constrained allocation instance and its feasibility predicates.

An instance couples an interaction graph, the agents' costs and the total
task w. Allocations are plain float vectors of length n. The costs live in
one cost table (see :mod:`taskalloc.costs`) of five columns (family, a, b,
lower, upper), built with the instance; per-agent costs, marginals and the
bounds are all read from it, and it is the instance's only per-agent
record: a file's agents go into it without a CostModel.

The on-disk format is JSON::

    {"total": w,
     "graph": {"n": n, "edges": [[i, j], ...]},       # 1-based node labels
     "agents": [{"family": "exponential", "a": ..., "lower": ..., "upper": ...},
                {"family": "quadratic", "a": ..., "b": ..., "lower": ..., "upper": ...},
                ...]}

Node labels in files are 1-based; indices are 0-based everywhere in the
API. Unknown keys are rejected so typos cannot silently change a run.
parse_problem reads a file in one pass: each edge and agent passes a quick
test that formats no message, and the agents' columns go straight to the
cost table. The test checks JSON shapes and types; an agent's values pass
costs._agent_fault, the rule CostModel applies too. The first entry that
fails the test gets the full checks, which raise the ParseError naming its
first fault. The bundled instances are documents too and pass the same
checks (_from_document).
"""

import contextlib
import itertools
import json
import math
import numbers
import operator
import sys

import numpy as np

from . import graph as graphmod
from .costs import _FLOAT_MAX, EXPONENTIAL, QUADRATIC, _agent_fault, _CostTable
from .errors import DisconnectedError, InfeasibleError, LengthMismatchError, ParseError
from .graph import Graph

_ROW_ELEMENTS = 1 << 17  # numbers that _format_rows formats per slice


def _positive(name: str, value) -> float:
    """value as a Python float: any real number but a bool, positive and finite."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # float() of an int past the floats
            if 0 < float(value) < math.inf:
                return float(value)
    raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _count(name: str, value) -> int:
    """value as a Python int: any integer but a bool, at least 1."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1:
        return int(value)
    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class AllocationProblem:
    """Graph + per-agent costs + total task; everything downstream consumes this.
    Immutable: no attribute can be set, and every array it holds is read-only."""

    def __init__(self, graph: Graph, agents, total: float):
        agents = tuple(agents)
        if len(agents) != graph.n:
            raise LengthMismatchError(graph.n, len(agents), "agents")
        rows = [(m.family, m.a, 0.0 if m.b is None else m.b, m.lower, m.upper) for m in agents]
        self._set(graph, rows, total)

    def _set(self, graph: Graph, rows, total: float) -> "AllocationProblem":
        """Check the total, then keep the graph and the table of these agent rows."""
        costs = _CostTable(*zip(*rows))
        total = _positive("total", total)
        lo, up = sum(costs.lower.tolist()), sum(costs.upper.tolist())
        if _past(total, costs.lower, lo, -1):
            raise InfeasibleError(f"total {total} is below the sum of lower bounds {lo}")
        if _past(total, costs.upper, up, 1):
            raise InfeasibleError(f"total {total} exceeds the sum of upper bounds {up}")
        vars(self).update(graph=graph, total=total, _costs=costs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"AllocationProblem is immutable; cannot set {name!r}")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def lower_bounds(self) -> np.ndarray:
        return self._costs.lower

    @property
    def upper_bounds(self) -> np.ndarray:
        return self._costs.upper


def _exact_total(values):
    """The exact sum of the float values as an int in units of 2**-1127, or inf if
    any value is not finite."""
    return sum(_float_ints(values, -1127)[0]) if np.isfinite(values).all() else math.inf


def _float_ints(values, unit=None):
    """Each finite float of values exactly as an int in units of 2**unit (by default
    the least that keeps them all whole), and the unit."""
    mant, exp = np.frexp(values)
    exp -= 53
    unit = int(exp[mant != 0].min(initial=0)) if unit is None else unit
    mant = (mant * 2.0**53).astype(np.int64).tolist()
    return list(map(operator.lshift, mant, np.maximum(exp - unit, 0).tolist())), unit


def _past(total: float, bounds: np.ndarray, fsum: float, side: int) -> bool:
    """Whether total lies below (side -1) or above (side 1) the sum of the
    nonnegative bounds both by their float sum fsum and by their exact sum."""
    return side * (total - fsum) > 0 and side * (_exact_total([total]) - _exact_total(bounds)) > 0


def _format_rows(fmt: str, *cols):
    """Yield `fmt % row` for the rows of 1-D cols, joined a slice of about _ROW_ELEMENTS
    numbers at a time from .tolist(), which bounds the Python objects made at once."""
    rows = max(1, _ROW_ELEMENTS // len(cols))
    for s in range(0, len(cols[0]), rows):
        yield "".join(fmt % row for row in zip(*(c[s : s + rows].tolist() for c in cols)))


def as_allocation(p: AllocationProblem, w) -> np.ndarray:
    """Validate length and return a float vector."""
    arr = np.asarray(w, dtype=float)
    if arr.shape != (p.n,):
        raise LengthMismatchError(p.n, arr.shape[0] if arr.ndim == 1 else arr.shape)
    return arr


def default_tol(p: AllocationProblem) -> float:
    """Membership tolerance, relative to the total task, floored at n steps
    of the float grid so a subnormal total keeps a nonzero tolerance."""
    return max(1e-6 * p.total, p.n * math.ulp(0.0))


def cost_values(p: AllocationProblem, w) -> np.ndarray:
    """Per-agent costs c_i(w_i); w may be (n,) or a batch (m, n)."""
    return p._costs.cost(np.asarray(w, dtype=float))


def marginals(p: AllocationProblem, w) -> np.ndarray:
    """Per-agent marginal costs; w may be (n,) or a batch (m, n)."""
    return p._costs.marginal(np.asarray(w, dtype=float))


@np.errstate(all="ignore")  # costs past the floats read inf or nan
def total_cost(p: AllocationProblem, w) -> float:
    """C(W) = sum of per-agent costs."""
    return float(cost_values(p, as_allocation(p, w)).sum())


def total_cost_batch(p: AllocationProblem, batch: np.ndarray) -> np.ndarray:
    """C(W) for each row of an (m, n) batch."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != p.n:
        raise LengthMismatchError(p.n, batch.shape[1] if batch.ndim == 2 else batch.shape, "batch")
    return cost_values(p, batch).sum(axis=1)


@np.errstate(all="ignore")  # loads past the floats sum to inf
def in_feasible_set(p: AllocationProblem, w) -> bool:
    """Sum matches the total and every load sits in its box (within default_tol)."""
    arr = as_allocation(p, w)
    tol = default_tol(p)
    if abs(arr.sum() - p.total) > tol:
        return False
    return bool((arr >= p.lower_bounds - tol).all() and (arr <= p.upper_bounds + tol).all())


@np.errstate(all="ignore")  # loads past the floats sum to inf
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
    if not abs(value) <= _FLOAT_MAX:  # NaN, Infinity, or an int past the floats
        raise ParseError(f"{where} must be finite, got {value!r}")
    return float(value)


def _agent(k: int, aobj) -> tuple:
    """Agent #k+1's columns (family, a, b, lower, upper) from the quick test,
    or else the full checks, which raise the ParseError naming the fault."""
    try:
        family, a, lower, upper = aobj["family"], aobj["a"], aobj["lower"], aobj["upper"]
        b = aobj["b"] if family == QUADRATIC else None
        # json.loads gives exact types (a bool is neither)
        if (type(aobj) is dict and len(aobj) == len(_AGENT_KEYS[family])
                and {type(a), type(lower), type(upper)} <= {float, int}
                and (b is None or type(b) in (float, int))
                and _agent_fault(family, a, b, lower, upper) is None):
            return family, float(a), float(b or 0.0), float(lower), float(upper)
    except (KeyError, TypeError):
        pass
    where = f"agent #{k + 1}"
    if not isinstance(aobj, dict):
        raise ParseError(f"{where} must be an object")
    family = _require(aobj, "family", where)
    if not isinstance(family, str) or family not in _AGENT_KEYS:
        raise ParseError(f"{where} has unknown family {family!r}")
    _reject_unknown(aobj, _AGENT_KEYS[family], where)
    a, lower, upper = (_number(_require(aobj, key, where), f"{where} {key!r}")
                       for key in ("a", "lower", "upper"))
    b = _number(_require(aobj, "b", where), f"{where} 'b'") if family == QUADRATIC else None
    if fault := _agent_fault(family, a, b, lower, upper):
        raise ParseError(f"{where}: {fault}")
    return family, a, b or 0.0, lower, upper


def parse_problem(text: str) -> AllocationProblem:
    """Parse a problem file in one pass; errors name the offending field."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # the only other: an int past Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: an integer has more than {limit} digits") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from exc
    return _from_document(data)


def _from_document(data) -> AllocationProblem:
    """The problem a file's parsed JSON document holds, by parse_problem's checks."""
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
    for k, pair in enumerate(raw_edges):
        if not (type(pair) is list and len(pair) == 2):
            raise ParseError(f"edge #{k + 1} must be a pair [i, j]")
        i, j = pair
        if type(i) is int and type(j) is int and 0 < i <= n and 0 < j <= n and i != j:
            continue  # the quick test; the full checks below name the fault
        for node in pair:
            if not isinstance(node, int) or isinstance(node, bool):
                raise ParseError(f"edge #{k + 1} has non-integer node {node!r}")
            if not 1 <= node <= n:
                raise ParseError(
                    f"edge #{k + 1} node {node} outside 1..{n} (file labels are 1-based)"
                )
        raise ParseError(f"edge #{k + 1} is a self-loop at node {i}")

    aobjs = _require(data, "agents", "problem")
    if not isinstance(aobjs, list):
        raise ParseError("'agents' must be a list")
    if len(aobjs) != n:
        raise ParseError(f"'agents' has {len(aobjs)} entries, graph 'n' is {n}")
    rows = [_agent(k, aobj) for k, aobj in enumerate(aobjs)]

    try:
        nodes = np.fromiter(itertools.chain.from_iterable(raw_edges), np.int64, 2 * len(raw_edges))
        g = graphmod.from_edge_list(n, nodes.reshape(-1, 2) - 1)
    except DisconnectedError as exc:
        labels = [u + 1 for u in exc.unreachable]
        raise ParseError(f"graph is not connected; unreachable from node 1: {labels}") from exc
    except ValueError as exc:
        raise ParseError(f"graph: {exc}") from exc
    return AllocationProblem.__new__(AllocationProblem)._set(g, rows, total)


def load_problem(path) -> AllocationProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_problem(text)


def serialize_problem(p: AllocationProblem) -> str:
    agents = [
        {"family": family, "a": a, **({"b": b} if family == QUADRATIC else {}),
         "lower": lower, "upper": upper}
        for family, a, b, lower, upper in zip(*(col.tolist() for col in p._costs.columns))
    ]
    edges = [[i + 1, j + 1] for i, j in graphmod.edge_list(p.graph)]
    doc = {"total": p.total, "graph": {"n": p.n, "edges": edges}, "agents": agents}
    return json.dumps(doc, indent=2) + "\n"


def save_problem(p: AllocationProblem, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_problem(p))
