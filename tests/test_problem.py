import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import document, parse_reference, random_problem, replaced
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import cli, problem, verify
from taskalloc.costs import exponential, quadratic
from taskalloc.drd import Trajectory, default_start, write_trace_csv
from taskalloc.errors import InfeasibleError, LengthMismatchError, ParseError
from taskalloc.graph import edge_list, from_edge_list
from taskalloc.instances import get_instance, instance_ids
from taskalloc.lambda_solver import BreakpointTable, SolverResult
from taskalloc.problem import (
    AllocationProblem,
    as_allocation,
    in_feasible_set,
    in_simplex,
    load_problem,
    parse_problem,
    save_problem,
    serialize_problem,
    total_cost,
    total_cost_batch,
)


def test_total_cost_single_agent():
    agent = exponential(a=50.0, lower=0.0, upper=200.0)
    p = AllocationProblem(graph=from_edge_list(1, []), agents=(agent,), total=120.0)
    assert total_cost(p, [120.0]) == pytest.approx(agent.cost(120.0), rel=1e-15)


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


@pytest.mark.parametrize(
    "check, value, message",
    [
        (total_cost_batch, np.ones(3), "batch has shape (3,), expected 3"),
        (total_cost_batch, np.ones((2, 3, 3)), "batch has shape (2, 3, 3), expected 3"),
        (total_cost_batch, np.float64(1.0), "batch has shape (), expected 3"),
        (as_allocation, np.ones((2, 3)), "allocation has shape (2, 3), expected 3"),
    ],
)
def test_wrong_shapes_name_the_shape(tab1, check, value, message):
    with pytest.raises(LengthMismatchError) as exc:
        check(tab1.problem, value)
    assert str(exc.value) == message


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


def test_bound_sums_are_exact_near_the_float_sums():
    # the float sum of these uppers in order, 27.853120757371805, lies two
    # ulps below their exact sum; the float one ulp above it is feasible
    uppers = (12.700160884818878, 13.011430170626193, 2.1415297019267374)
    agents = tuple(quadratic(a=1.0, b=1.0, lower=0.0, upper=u) for u in uppers)
    g = from_edge_list(3, [(0, 1), (1, 2)])
    fsum = sum(uppers)
    exact = sum(map(Fraction, uppers))
    total = math.nextafter(fsum, math.inf)
    assert fsum < total <= exact < Fraction(math.nextafter(total, math.inf))
    AllocationProblem(graph=g, agents=agents, total=total)
    with pytest.raises(InfeasibleError, match=f"exceeds the sum of upper bounds {fsum}$"):
        AllocationProblem(graph=g, agents=agents, total=math.nextafter(total, math.inf))
    # a total equal to the float sum in order stays feasible, though here the
    # float sum of the lowers rounds above their exact sum
    lowers = (5.452208631682969, 3.3937331252621785, 5.808962381868944)
    agents = tuple(quadratic(a=1.0, b=1.0, lower=lo, upper=lo + 10.0) for lo in lowers)
    assert sum(lowers) > sum(map(Fraction, lowers))
    AllocationProblem(graph=g, agents=agents, total=sum(lowers))
    AllocationProblem(graph=g, agents=agents, total=float(sum(map(Fraction, lowers))))
    with pytest.raises(InfeasibleError, match="below"):
        AllocationProblem(graph=g, agents=agents, total=math.nextafter(14.654904138814091, 0.0))


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
        assert document(p2)["agents"] == document(inst.problem)["agents"]


def test_bundled_instances_are_parsed_documents():
    # a bundled instance comes in as a file's document does: its cost table
    # is built from the columns, and a round trip through its file keeps
    # every bit
    for iid in instance_ids():
        p = get_instance(iid).problem
        p2 = parse_problem(serialize_problem(p))
        assert p2.total.hex() == p.total.hex()
        assert np.array_equal(p2.graph.adjacency, p.graph.adjacency)
        for col, col2 in zip(p._costs.columns, p2._costs.columns):
            assert col.dtype == col2.dtype and col.tobytes() == col2.tobytes()


def test_get_instance_returns_one_shared_instance():
    for iid in instance_ids():
        assert get_instance(iid) is get_instance(iid)


def test_bundled_reference_is_read_only():
    for iid in instance_ids():
        ref = get_instance(iid).reference
        for key in ("allocation", "allocation_tol", "new"):
            with pytest.raises(TypeError):
                ref[key] = 1.0
        with pytest.raises(ValueError):
            ref["allocation"][0] = 1.0
        for key in ("keys_lower", "keys_upper", "masses", "slopes"):
            assert type(ref.get(key, ())) is tuple


def test_cost_table_arrays_are_read_only():
    # each bundled problem at its reference allocation, and a mixed problem (two groups)
    cases = [(i.problem, i.reference["allocation"]) for i in map(get_instance, instance_ids())]
    mixed = random_problem(np.random.default_rng(4), n=6, family="mixed")
    assert len(mixed._costs.groups) == 2
    cases.append((mixed, default_start(mixed)))
    fields = ("idx", "a", "b", "lower", "span", "a_per_span")
    for p, w in cases:
        before = total_cost(p, w)
        for arr in [*p._costs.columns, *(getattr(g, f) for g in p._costs.groups for f in fields)]:
            with pytest.raises(ValueError):
                arr[0] = arr[-1]
        assert total_cost(p, w) == before


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


_GOOD_AGENTS = [
    {"family": "exponential", "a": 2.0, "lower": 1.0, "upper": 5.0},
    {"family": "quadratic", "a": 0.5, "b": 1.5, "lower": 0.0, "upper": 4.0},
    {"family": "quadratic", "a": 3, "b": 2, "lower": 2, "upper": 2},  # ints, a point box
    {"family": "exponential", "a": 1e-300, "lower": 0, "upper": 1e300},
]
_MAX_INT = int(sys.float_info.max)
# valid numbers of every sign and size, wrong types, bools, non-finite
# numbers and ints past the floats (the first rounds to the largest float,
# the second to inf)
_FAULT_VALUES = [0.25, 2, 0.0, -1.0, 1e6, 5e-324, 1e300, True, None, "1", [], {},
                 float("nan"), float("inf"), -float("inf"), _MAX_INT + 1, _MAX_INT + 2**970,
                 -(10**400), sys.float_info.max, -0.0, False, "exponential", "quadratic", "cubic"]
_PAIRS = [[1], [1, 2, 3], [], {}, "12", 7, None, [1.0, 2], [True, 2]]


@st.composite
def _faulty_docs(draw):
    """A problem of 2-6 agents on a ring, then one or two changes in
    different agents, edges or the total; many make the file invalid."""
    agents = [dict(a) for a in draw(st.lists(st.sampled_from(_GOOD_AGENTS), min_size=2, max_size=6))]
    n = len(agents)
    edges = [[i, i % n + 1] for i in range(1, n + 1)]
    lo, up = sum(a["lower"] for a in agents), sum(a["upper"] for a in agents)
    doc = {"total": lo + 0.5 * (up - lo), "graph": {"n": n, "edges": edges}, "agents": agents}
    targets = [("agent", k) for k in range(n)] + [("edge", k) for k in range(n)] + [("total", 0)]
    for where, k in draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True)):
        if where == "total":
            doc["total"] = draw(st.sampled_from([lo, up, 0.5 * lo, 2 * up + 1, 0, 10**400]))
        elif where == "edge":
            end = draw(st.integers(0, 1))
            fault = draw(st.sampled_from(["value", "loop", "reverse", "copy", "pair"]))
            if fault == "value":
                edges[k][end] = draw(st.sampled_from([0, n + 1, -1, n, True, 1.5, "1", None, 10**30]))
            elif fault == "loop":
                edges[k][end] = edges[k][1 - end]
            elif fault == "reverse":
                edges[k].reverse()
            elif fault == "copy":  # two copies can cut the ring in two
                edges[k] = list(edges[(k + 1) % n])
            else:
                edges[k] = draw(st.sampled_from(_PAIRS))
        else:
            fault = draw(st.sampled_from(["set", "delete", "replace", "box"]))
            if fault == "set":
                key = draw(st.sampled_from(["a", "b", "lower", "upper", "family", "c"]))
                agents[k][key] = draw(st.sampled_from(_FAULT_VALUES))
            elif fault == "delete":
                agents[k].pop(draw(st.sampled_from(sorted(agents[k]))))
            elif fault == "replace":
                agents[k] = draw(st.sampled_from(_FAULT_VALUES))
            else:
                agents[k]["lower"], agents[k]["upper"] = agents[k]["upper"], agents[k]["lower"]
    return doc


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - compared with the reference's
        return type(exc), str(exc)


def _assert_parses_as_reference(doc):
    # the same exception and message as the per-agent parser, or an equal problem
    text = json.dumps(doc)
    got, ref = _outcome(parse_problem, text), _outcome(parse_reference, text)
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert isinstance(got, AllocationProblem)
    assert got.total == ref.total
    assert np.array_equal(got.graph.adjacency, ref.graph.adjacency)
    for column, expected in zip(got._costs.columns, ref._costs.columns, strict=True):
        assert column.dtype == expected.dtype and np.array_equal(column, expected)


def test_problem_is_immutable(tab1):
    with pytest.raises(AttributeError, match="immutable; cannot set 'total'"):
        tab1.problem.total = 1.0
    assert tab1.problem.total != 1.0


def test_bounds_equal_only_as_floats_pass_the_full_checks():
    # the int 2**53 + 1 is above the float 2**53, so the quick test falls
    # through, but both bounds parse to 2**53: a valid point box
    agent = {"family": "quadratic", "a": 1.0, "b": 1.0,
             "lower": 2**53 + 1, "upper": float(2**53)}
    doc = {"total": float(2**53), "graph": {"n": 1, "edges": []}, "agents": [agent]}
    p = parse_problem(json.dumps(doc))
    assert p.lower_bounds.tolist() == p.upper_bounds.tolist() == [2.0**53]
    _assert_parses_as_reference(doc)


def test_exponential_bounds_apart_only_as_ints_fail():
    # 2**54 + 1 and 2**54 + 2 both round to the float 2**54, where an
    # exponential agent's span would be 0
    lower, upper = 2**54 + 1, 2**54 + 2
    agent = {"family": "exponential", "a": 1.0, "lower": lower, "upper": upper}
    doc = {"total": float(2**54), "graph": {"n": 1, "edges": []}, "agents": [agent]}
    with pytest.raises(ParseError, match="^agent #1: exponential family needs upper > lower"):
        parse_problem(json.dumps(doc))
    _assert_parses_as_reference(doc)
    with pytest.raises(ValueError, match="^exponential family needs upper > lower strictly$"):
        exponential(a=1.0, lower=lower, upper=upper)


def test_parse_matches_reference_with_any_value_at_any_path():
    extra = [("agents", 0, "b"), ("agents", 1, "c")]  # keys the entries lack
    for path in [*_json_paths(_DOC), *extra]:
        for value in _VALUES + _FAULT_VALUES:
            _assert_parses_as_reference(replaced(_DOC, path, value))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_faulty_docs())
def test_parse_matches_reference_on_faulty_docs(doc):
    _assert_parses_as_reference(doc)


# Each row writer's rows against the per-number formatting they replaced:
# inf, -0.0, 5e-324, 1e16 and, in an int column, 2**53 + 1; five rows,
# formatted two at a time, so they span three slices.
_STATES = np.array(
    [[1e16, 1e-5, 0.1], [3.0, 100.0, -0.0], [1.0 / 3.0, 2.0**-1074, 1.2345678901234567e17],
     [350.0, 382.4, 417.6], [np.inf, -1e-300, 7.0]]
)
_COSTS = np.array([0.1, 1e16, 7.0, 2.0 / 3.0, 5e-324])
_SPECIALS = np.array([1e16, -0.0, 5e-324, np.inf, 1.0 / 3.0])


def _trace_rows(tmp_path, p, with_reference):
    traj = Trajectory(
        times=np.array([0, 100, 200, 10**7, 2**53 + 1], dtype=np.int64),
        states=_STATES,
        costs=_COSTS,
        residuals=np.array([1.0, 0.5, 1e-7, 0.0, 3.0]),
        lyapunov=_COSTS - (0.5 if with_reference else _COSTS.min()),  # as simulate sets it
        converged=False,
        final=_STATES[-1],
        steps=2**53 + 1,
        dt=0.1,
        stop="max-steps",
        box_exit_step=None,
        residual_evals=1,
    )
    write_trace_csv(traj, p, tmp_path / "trace.csv")
    expected = ["step,t,w_1,w_2,w_3,C,V,residual\n"]
    for k, step in enumerate(traj.times):
        row = [str(int(step)), f"{step * traj.dt:.15g}"]
        row += [f"{x:.15g}" for x in _STATES[k]]
        row += [f"{x:.15g}" for x in (_COSTS[k], traj.lyapunov[k], traj.residuals[k])]
        expected.append(",".join(row) + "\n")
    return (tmp_path / "trace.csv").read_bytes(), "".join(expected).encode()


def _dump_rows(tmp_path, monkeypatch, p):
    monkeypatch.setattr(verify, "total_cost_batch", lambda p, points: _COSTS)
    sink = verify._Sink(p, tmp_path / "dump.csv")
    sink.count = 2**53 - 1
    sink.add(_STATES)
    sink.close()
    expected = ["sample_index,w_1,w_2,w_3,C\n"]
    for k, point in enumerate(_STATES):
        numbers = [f"{x:.15g}" for x in (*point, _COSTS[k])]
        expected.append(",".join([str(2**53 - 1 + k), *numbers]) + "\n")
    return (tmp_path / "dump.csv").read_bytes(), "".join(expected).encode()


def _solve_rows(monkeypatch, allocation):
    """cli._solve's table rows, or its allocation rows, of a made-up table
    and solution."""
    table = BreakpointTable(
        coordinate="marginal",
        agents=np.array([0, 2**53, 1, 4, 2]),
        kinds=np.array(["lower", "upper", "lower", "upper", "upper"]),
        keys=_SPECIALS,
        masses=_SPECIALS[::-1].copy(),
        slopes=np.array([np.inf, -0.0, 5e-324, 1e16]),
    )
    res = SolverResult(allocation=_SPECIALS, key=1.0, lam=1.0, bracket=0,
                       status=np.array([0, -1, 0, 1, 0], np.int8), method="newton", probes=1)
    monkeypatch.setattr(cli, "breakpoints", lambda p: table)
    monkeypatch.setattr(cli, "solve_lambda", lambda p: res)
    monkeypatch.setattr(cli, "total_cost", lambda p, w: 0.0)
    monkeypatch.setattr(verify, "kkt_check", lambda p, w: None)
    parts = cli._solve(random_problem(np.random.default_rng(0), n=5, family="quadratic"))[2]
    table_rows, load_rows = [part for part in parts if not isinstance(part, str)]
    if not allocation:  # four rows in two slices; the fifth, with its blank slope, is a line
        chunks = list(table_rows)
        assert len(chunks) == 2
        text = "".join(chunks) + parts[parts.index(table_rows) + 1] + "\n"
        slopes = [f"{x:.6e}" for x in table.slopes] + [""]
        cols = zip(table.agents.tolist(), table.kinds, table.keys, table.masses, slopes)
        expected = [f"{j:>3} {agent + 1:>6} {kind:>6} {key:>12.6f} {mass:>14.6f} {slope:>15}"
                    for j, (agent, kind, key, mass, slope) in enumerate(cols, 1)]
    else:
        chunks = list(load_rows)
        assert len(chunks) == 3
        text = "".join(chunks)
        status = ["interior", "lower", "interior", "upper", "interior"]
        expected = [f"{i + 1:>6} {load:>20.12f} {status[i]:>9}" for i, load in enumerate(_SPECIALS)]
    return text.encode(), "".join(line + "\n" for line in expected).encode()


@pytest.mark.parametrize("writer", ["trace", "trace-reference", "dump", "table", "allocation"])
def test_rows_match_per_number_format(tmp_path, monkeypatch, tab1, writer):
    fields = {"dump": 5, "table": 6, "allocation": 3}.get(writer, 8)  # numbers per row
    monkeypatch.setattr(problem, "_ROW_ELEMENTS", 2 * fields)
    if writer.startswith("trace"):
        written, expected = _trace_rows(tmp_path, tab1.problem, writer == "trace-reference")
    elif writer == "dump":
        written, expected = _dump_rows(tmp_path, monkeypatch, tab1.problem)
    else:
        written, expected = _solve_rows(monkeypatch, writer == "allocation")
    assert written == expected
