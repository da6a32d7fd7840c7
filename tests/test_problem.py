import json

import numpy as np
import pytest
from conftest import random_problem, replaced

from taskalloc import verify
from taskalloc.costs import exponential, quadratic
from taskalloc.errors import InfeasibleError, LengthMismatchError, ParseError
from taskalloc.graph import edge_list, from_edge_list
from taskalloc.problem import (
    AllocationProblem,
    in_feasible_set,
    in_simplex,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
    total_cost,
    total_cost_batch,
)


def _single_agent_problem(w=120.0):
    agent = exponential(a=50.0, lower=0.0, upper=200.0)
    return AllocationProblem(graph=from_edge_list(1, []), agents=(agent,), total=w)


def test_total_cost_single_agent():
    p = _single_agent_problem()
    assert total_cost(p, [120.0]) == pytest.approx(p.agents[0].cost(120.0), rel=1e-15)


def test_total_cost_at_zero_loads_sums_coefficients(fig2):
    # every exponent is zero when all lower bounds are zero
    p = fig2.problem
    assert total_cost(p, np.zeros(6)) == pytest.approx(6550.0, abs=1e-9)


def test_total_cost_reference_allocation_is_minimal(tab3):
    p = tab3.problem
    ref_cost = total_cost(p, tab3.reference["allocation"])
    oracle = verify.grid_min(p, 0.1)
    assert ref_cost <= oracle.best_cost + 1e-3


def test_total_cost_length_mismatch(tab1):
    with pytest.raises(LengthMismatchError):
        total_cost(tab1.problem, [1.0, 2.0])
    with pytest.raises(LengthMismatchError):
        total_cost_batch(tab1.problem, np.ones(3))  # one allocation, not a batch
    with pytest.raises(LengthMismatchError):
        total_cost_batch(tab1.problem, np.ones((4, 2)))


def test_in_feasible_set_reference_points(tab1):
    p = tab1.problem
    assert in_feasible_set(p, [350.0, 382.4, 417.6])
    # sums to 960 instead of 1150
    assert not in_feasible_set(p, [200.0, 350.0, 410.0])
    assert not in_feasible_set(p, [360.0, 380.0, 410.0])  # box violated


def test_in_feasible_set_at_degenerate_total():
    agents = (
        quadratic(a=0.01, b=1.0, lower=10.0, upper=20.0),
        quadratic(a=0.01, b=1.0, lower=30.0, upper=40.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=40.0)
    assert in_feasible_set(p, [10.0, 30.0])


def test_in_simplex(tab1):
    p = tab1.problem
    assert in_simplex(p, [1150.0, 0.0, 0.0])
    assert not in_simplex(p, [1160.0, -10.0, 0.0])
    assert not in_simplex(p, [100.0, 100.0, 100.0])


def test_feasible_set_inside_simplex(tab1):
    # every point of the feasible set lies on the simplex (lower bounds >= 0)
    p = tab1.problem
    rng = np.random.default_rng(5)
    anchors = np.array(
        [
            [350.0, 382.4, 417.6],
            [200.0, 410.0, 540.0],
            [350.0, 480.0, 320.0],
        ]
    )
    anchors = anchors[[0, 1]]  # third anchor violates a box; keep feasible ones
    for _ in range(50):
        t = rng.uniform(0.0, 1.0)
        w = t * anchors[0] + (1 - t) * anchors[1]
        if in_feasible_set(p, w):
            assert in_simplex(p, w)


def test_strict_convexity_along_segments():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_problem(rng)
        lo, up = p.lower_bounds, p.upper_bounds
        t1, t2 = sorted(rng.uniform(0.05, 0.95, size=2))
        if t2 - t1 < 0.1:
            t2 = min(0.95, t1 + 0.3)

        # box-diagonal point moved onto the sum plane along its headroom
        def point(t):
            base = lo + t * (up - lo)
            gap = p.total - base.sum()
            head = (up - base) if gap > 0 else (base - lo)
            return base + gap * head / head.sum()

        w1, w2 = point(t1), point(t2)
        if np.allclose(w1, w2):
            continue
        assert in_feasible_set(p, w1) and in_feasible_set(p, w2)
        t = 0.5
        mid = t * w1 + (1 - t) * w2
        lhs = total_cost(p, mid)
        rhs = t * total_cost(p, w1) + (1 - t) * total_cost(p, w2)
        assert lhs < rhs - 1e-12 * abs(rhs)


def test_batch_cost_matches_scalar(tab3):
    p = tab3.problem
    rng = np.random.default_rng(2)
    batch = rng.uniform(p.lower_bounds, p.upper_bounds, size=(8, 3))
    out = total_cost_batch(p, batch)
    for k in range(8):
        assert out[k] == pytest.approx(total_cost(p, batch[k]), rel=1e-14)


def test_construction_rejects_infeasible_totals():
    agents = (
        quadratic(a=0.01, b=1.0, lower=10.0, upper=20.0),
        quadratic(a=0.01, b=1.0, lower=10.0, upper=20.0),
    )
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(InfeasibleError, match="below"):
        AllocationProblem(graph=g, agents=agents, total=19.0)
    with pytest.raises(InfeasibleError, match="exceeds"):
        AllocationProblem(graph=g, agents=agents, total=41.0)
    # equality at either end is accepted
    AllocationProblem(graph=g, agents=agents, total=20.0)
    AllocationProblem(graph=g, agents=agents, total=40.0)


def test_construction_rejects_nonpositive_total():
    agents = (quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0),)
    for total in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            AllocationProblem(graph=from_edge_list(1, []), agents=agents, total=total)


def test_construction_rejects_agent_count_mismatch():
    agents = (quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0),)
    with pytest.raises(LengthMismatchError):
        AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=50.0)


# ---------------------------------------------------------------------------
# problem files


def test_round_trip_through_file(tmp_path, tab1, tab3):
    for inst in (tab1, tab3):
        path = tmp_path / f"{inst.instance_id}.json"
        save_problem(inst.problem, path)
        p2 = load_problem(path)
        assert p2.total == inst.problem.total
        assert np.array_equal(p2.graph.adjacency, inst.problem.graph.adjacency)
        assert p2.agents == inst.problem.agents


def test_parse_uses_one_based_edge_labels():
    text = json.dumps(
        {
            "total": 30.0,
            "graph": {"n": 2, "edges": [[1, 2]]},
            "agents": [
                {"family": "quadratic", "a": 0.1, "b": 1.0, "lower": 0.0, "upper": 20.0},
                {"family": "quadratic", "a": 0.1, "b": 1.0, "lower": 0.0, "upper": 20.0},
            ],
        }
    )
    p = parse_problem(text)
    assert edge_list(p.graph) == [(0, 1)]
    with pytest.raises(ParseError, match="1-based"):
        parse_problem(text.replace("[[1, 2]]", "[[0, 1]]"))


def test_parse_rejects_unknown_keys(tab1):
    doc = json.loads(serialize_problem(tab1.problem))
    doc["comment"] = "nope"
    with pytest.raises(ParseError, match="comment"):
        parse_problem(json.dumps(doc))
    doc = json.loads(serialize_problem(tab1.problem))
    doc["graph"]["weighted"] = True
    with pytest.raises(ParseError, match="weighted"):
        parse_problem(json.dumps(doc))
    doc = json.loads(serialize_problem(tab1.problem))
    doc["agents"][0]["b"] = 2.0  # exponential agents carry no b
    with pytest.raises(ParseError, match="'b'"):
        parse_problem(json.dumps(doc))


def test_parse_names_missing_fields(tab1):
    doc = json.loads(serialize_problem(tab1.problem))
    del doc["total"]
    with pytest.raises(ParseError, match="total"):
        parse_problem(json.dumps(doc))
    doc = json.loads(serialize_problem(tab1.problem))
    del doc["agents"][1]["a"]
    with pytest.raises(ParseError, match="agent #2"):
        parse_problem(json.dumps(doc))


def test_parse_reports_json_line():
    with pytest.raises(ParseError, match="line"):
        parse_problem('{"total": 1,\n  broken')


def test_parse_rejects_non_numbers():
    with pytest.raises(ParseError, match="'total'"):
        parse_problem('{"total": "big", "graph": {"n": 1, "edges": []}, "agents": []}')


_DOC = {
    "total": 6.0,
    "graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
    "agents": [
        {"family": "exponential", "a": 1.0, "lower": 0.0, "upper": 4.0},
        {"family": "quadratic", "a": 1.0, "b": 1.0, "lower": 0.0, "upper": 4.0},
        {"family": "quadratic", "a": 2.0, "b": 0.5, "lower": 1.0, "upper": 3.0},
    ],
}
_VALUES = [None, True, False, 0, -1, 1, 2, 3, 1.5, -0.0, 1e308, 10**400, "x", "quadratic",
           [], {}, [1, 2], [1, 1], [[1, 2]], {"a": 1}]


def _json_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _json_paths(child, (*path, key))


def test_parse_survives_any_value_at_any_path():
    # a file either parses or fails as a ParseError or an InfeasibleError,
    # whatever JSON value stands at whichever path
    parse_problem(json.dumps(_DOC))
    failures = []
    for path in _json_paths(_DOC):
        for value in _VALUES:
            try:
                parse_problem(json.dumps(replaced(_DOC, path, value)))
            except (ParseError, InfeasibleError):
                pass
            except Exception as exc:  # noqa: BLE001 - collected, then reported
                failures.append((path, value, repr(exc)))
    assert failures == []
