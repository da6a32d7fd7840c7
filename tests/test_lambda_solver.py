import json
import logging
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import document, random_problem, replaced, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import get_instance, lambda_solver
from taskalloc.cli import _paper_table
from taskalloc.costs import exponential, quadratic
from taskalloc.errors import CostOverflowError, InfeasibleError, ParseError
from taskalloc.graph import from_edge_list
from taskalloc.lambda_solver import (
    _agent_keys,
    _clamp,
    breakpoints,
    select_final,
    solve_lambda,
)
from taskalloc.problem import (
    AllocationProblem,
    cost_values,
    in_feasible_set,
    load_problem,
    marginals,
    parse_problem,
    total_cost,
)
from taskalloc.verify import kkt_check

# bundled reference tables for the three-agent instances
TAB1_KEYS = [1.897, 2.682, 2.873, 2.897, 3.682, 3.873]
TAB1_MASSES = [960.0, 1077.732, 1131.202, 1141.043, 1345.153, 1370.0]
TAB1_SLOPES = [6.6677e-3, 3.5721e-3, 2.4388e-3, 3.8460e-3, 7.6870e-3]
TAB3_KEYS = [5.0, 5.4, 5.6, 5.9, 6.44, 6.9]
TAB3_MASSES = [960.0, 1026.667, 1085.0, 1202.5, 1324.0, 1370.0]
TAB3_SLOPES = [6.0e-3, 3.4286e-3, 2.5532e-3, 4.4444e-3, 10.0e-3]


def test_breakpoint_table_exponential_quantized(tab1):
    # the paper's table, at keys rounded to 3 decimals, as reproduce builds it
    kmin, kmax, masses, slopes = _paper_table(tab1.problem, tab1.reference["decimals"])
    np.testing.assert_allclose(np.sort(np.concatenate([kmin, kmax])), TAB1_KEYS, atol=1e-12)
    np.testing.assert_allclose(masses, TAB1_MASSES, atol=0.01)
    np.testing.assert_allclose(slopes, TAB1_SLOPES, atol=1e-6)
    assert breakpoints(tab1.problem).coordinate == "log-marginal"


def test_breakpoint_table_exponential_exact_keys(tab1):
    tbl = breakpoints(tab1.problem)
    np.testing.assert_allclose(tbl.keys, TAB1_KEYS, atol=1e-3)
    assert np.all(np.diff(tbl.masses) >= 0)
    assert tbl.masses[0] == pytest.approx(960.0, abs=1e-9)
    assert tbl.masses[-1] == pytest.approx(1370.0, abs=1e-9)


def test_breakpoint_table_quadratic(tab3):
    # the paper's table, at keys rounded to 3 decimals, as reproduce builds it
    kmin, kmax, masses, slopes = _paper_table(tab3.problem, tab3.reference["decimals"])
    keys = np.sort(np.concatenate([kmin, kmax]))
    np.testing.assert_allclose(keys, TAB3_KEYS, atol=1e-12)
    np.testing.assert_allclose(masses, TAB3_MASSES, atol=0.01)
    np.testing.assert_allclose(slopes, TAB3_SLOPES, atol=1e-6)
    # rounding is a no-op here: the exact keys already have <= 3 decimals
    exact = breakpoints(tab3.problem)
    assert exact.coordinate == "marginal"
    np.testing.assert_allclose(exact.keys, keys, atol=1e-12)


def test_paper_table_slope_is_inf_on_tied_rounded_keys():
    # b = 1.0001 and 1.0002 round to one 3-decimal key at each bound, so the
    # mass does not move across either tie; a bare quotient there is 0/0,
    # which the RuntimeWarning filter turns into an error
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), total=1.0, agents=(
        quadratic(a=1.0, b=1.0001, lower=0.0, upper=1.0),
        quadratic(a=1.0, b=1.0002, lower=0.0, upper=1.0),
    ))
    kmin, kmax, masses, slopes = _paper_table(p, 3)
    assert kmin.tolist() == [1.0, 1.0] and kmax.tolist() == [2.0, 2.0]
    assert masses.tolist() == [0.0, 0.0, 2.0, 2.0]
    assert slopes.tolist() == [math.inf, 0.5, math.inf]
    # the exact table has no tie, and both tables take the one slope rule
    assert np.isfinite(breakpoints(p).slopes).all()


def _loads_at(p, key, key_decimals=None):
    """Reference clamp of every agent at one key of the cost table's
    coordinate, its thresholds rounded to key_decimals; saturates outside
    the table range."""
    kmin, kmax = _agent_keys(p)
    if key_decimals is not None:
        kmin, kmax = np.round(kmin, key_decimals), np.round(kmax, key_decimals)
    return _clamp(p, key, kmin, kmax)[0]


def _mass_at(p, key, key_decimals=None):
    return float(_loads_at(p, key, key_decimals).sum())


def test_single_agent_table():
    p = AllocationProblem(
        graph=from_edge_list(1, []),
        agents=(quadratic(a=0.5, b=1.0, lower=10.0, upper=30.0),),
        total=17.0,
    )
    tbl = breakpoints(p)
    assert tbl.keys.shape == (2,)
    np.testing.assert_allclose(tbl.masses, [10.0, 30.0])
    res = solve_lambda(p)
    np.testing.assert_allclose(res.allocation, [17.0], atol=1e-12)


def test_aggregate_allocation_saturates(tab1, tab3):
    assert _mass_at(tab1.problem, 1.897, key_decimals=3) == pytest.approx(960.0)
    assert _mass_at(tab1.problem, -5.0) == pytest.approx(960.0)
    assert _mass_at(tab3.problem, 6.9) == pytest.approx(1370.0)
    assert _mass_at(tab3.problem, 100.0) == pytest.approx(1370.0)


def test_aggregate_allocation_monotone():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_problem(rng)
        tbl = breakpoints(p)
        keys = rng.uniform(tbl.keys[0] - 0.5, tbl.keys[-1] + 0.5, size=20)
        keys.sort()
        vals = [_mass_at(p, float(k)) for k in keys]
        assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(vals, vals[1:]))


def test_solve_exponential_reference(tab1):
    res = solve_lambda(tab1.problem)
    np.testing.assert_allclose(res.allocation, [350.0, 382.4, 417.6], atol=0.1)
    assert res.allocation.sum() == pytest.approx(1150.0, abs=1e-6)
    assert res.status.tolist() == [1, 0, 0]
    assert res.bracket == 3
    assert res.key == pytest.approx(2.9314, abs=1e-3)
    assert res.method == "newton"


def test_solve_takes_a_float32_total(tab1):
    # a numpy total is kept as a Python float, so the level is not found in
    # float32, whose loads would miss w by 3e-5
    agents = [exponential(1000.0, 200.0, 350.0), exponential(1900.0, 350.0, 480.0),
              exponential(2300.0, 410.0, 540.0)]
    p = AllocationProblem(tab1.problem.graph, agents, np.float32(1150.3))
    res = solve_lambda(p)
    assert type(p.total) is float and type(res.key) is float
    assert abs(res.allocation.sum() - p.total) <= 1e-12 * p.total


def test_solve_quadratic_reference(tab3):
    res = solve_lambda(tab3.problem)
    np.testing.assert_allclose(res.allocation, [327.7, 395.7, 426.6], atol=0.1)
    assert res.allocation.sum() == pytest.approx(1150.0, abs=1e-6)
    assert res.status.tolist() == [0, 0, 0]
    assert res.lam == pytest.approx(5.766, abs=1e-3)


def test_solve_at_bound_totals():
    agents = (
        quadratic(a=0.01, b=1.0, lower=10.0, upper=20.0),
        quadratic(a=0.02, b=2.0, lower=5.0, upper=25.0),
    )
    g = from_edge_list(2, [(0, 1)])
    low = AllocationProblem(graph=g, agents=agents, total=15.0)
    res = solve_lambda(low)
    np.testing.assert_allclose(res.allocation, [10.0, 5.0], atol=1e-12)
    assert res.method == "bound"
    high = AllocationProblem(graph=g, agents=agents, total=45.0)
    np.testing.assert_allclose(solve_lambda(high).allocation, [20.0, 25.0], atol=1e-12)


def test_interior_marginals_equal_level(tab1, tab3):
    for inst in (tab1, tab3):
        res = solve_lambda(inst.problem)
        marg = marginals(inst.problem, res.allocation)
        for i in np.flatnonzero(res.status == 0):
            assert marg[i] == pytest.approx(res.lam, rel=1e-9)


def test_sum_exactness_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = random_problem(rng)
        res = solve_lambda(p)
        assert abs(res.allocation.sum() - p.total) <= 1e-9 * p.total
        assert in_feasible_set(p, res.allocation)
        # the interpolated level reproduces the total through the aggregate
        assert _mass_at(p, res.key) == pytest.approx(
            p.total, abs=1e-9 * max(1.0, p.total)
        )


def test_solve_clamps_each_key_once(monkeypatch, tab1, tab3):
    # every step clamps at a new key strictly inside the bracket, and a
    # bound sum takes its end without a clamp
    problems = []
    for p in (tab1.problem, tab3.problem):
        # each threshold's mass as the total, the bound sums among them
        problems += [
            parse_problem(json.dumps(replaced(document(p), ("total",), float(m))))
            for m in breakpoints(p).masses
        ]
    rng = np.random.default_rng(43)
    for k in range(30):
        problems.append(random_problem(rng, family=("exponential", "quadratic", "mixed")[k % 3]))
    keys = []

    def counting_clamp(p, key, *args):
        keys.append(float(key))
        return _clamp(p, key, *args)

    monkeypatch.setattr(lambda_solver, "_clamp", counting_clamp)
    methods = set()
    for p in problems:
        keys.clear()
        methods.add(solve_lambda(p).method)
        assert len(keys) == len(set(keys)), keys
    assert methods == {"bound", "newton"}


@pytest.mark.parametrize(
    ("source", "probes", "method"),
    [
        # a single family starts at its unconstrained Nash level: tab3 and
        # fig3 land there exactly, tab1 (agent 1 at its upper bound) takes
        # one Newton step more, and fig2 lands within 1e-12 * w and tries one
        # step more, which does not shrink the miss
        ("tab1", 2, "newton"),
        ("tab3", 1, "newton"),
        ("fig2", 2, "newton"),
        ("fig3", 1, "newton"),
        # bench/gen.py's waterfill_inputs(3, 100)[48]: mixed families, n = 11
        ("waterfill_mixed11.json", 8, "newton"),
        # totals below one ulp of a load: the secant rounds onto the lower
        # end and moves one float inside, which leaves no float in the bracket
        ("subnormal2.json", 1, "blend"),
        ("subnormal_mc2.json", 1, "blend"),
        # both agents sit at a bound below w at the first Newton key, and no
        # float splits agent 1's flat jump at 1e16, so that threshold ends
        # the bracket unclamped and the ends blend (a walk of float
        # midpoints took 53 clamps, a clamp at the threshold 2)
        ("flat2.json", 1, "blend"),
    ],
    ids=["tab1", "tab3", "fig2", "fig3", "waterfill_mixed11.json", "subnormal2.json",
         "subnormal_mc2.json", "flat2.json"],
)
def test_solver_counters(monkeypatch, source, probes, method):
    # probes counts the solve's _clamp calls
    if source.endswith(".json"):
        p = load_problem(Path(__file__).parent / "data" / source)
    else:
        p = get_instance(source).problem
    calls = []
    monkeypatch.setattr(lambda_solver, "_clamp", lambda *args: calls.append(args) or _clamp(*args))
    res = solve_lambda(p)
    assert (res.probes, res.method) == (probes, method)
    assert len(calls) == probes


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "data").glob("*.json")),
                         ids=lambda path: path.stem)
def test_every_data_file_solves_within_the_clamp_bound(path):
    # at most 64 bisections in float order isolate a jump in the mass
    try:
        p = load_problem(path)
        res = solve_lambda(p)
    except (ParseError, InfeasibleError, CostOverflowError):
        return
    assert res.probes <= 80
    assert (res.allocation >= p.lower_bounds).all() and (res.allocation <= p.upper_bounds).all()


def test_blended_loads_stay_in_their_boxes():
    # box_upper50: 50 quadratic agents at a total equal to the float sum of
    # the uppers, which overshoots their pairwise sum by less than 1e-12 * w,
    # so the solve takes the all-upper end. The other three leave no float
    # inside the bracket
    for name, method in [("box_upper50", "bound"), ("flat2", "blend"),
                         ("subnormal2", "blend"), ("subnormal_mc2", "blend")]:
        p = load_problem(Path(__file__).parent / "data" / f"{name}.json")
        res = solve_lambda(p)
        assert res.method == method
        assert (res.allocation >= p.lower_bounds).all()
        assert (res.allocation <= p.upper_bounds).all()
        assert kkt_check(p, res.allocation).passed


def test_duplicate_breakpoints_are_tolerated():
    twin = quadratic(a=0.01, b=1.0, lower=10.0, upper=20.0)
    p = AllocationProblem(
        graph=from_edge_list(2, [(0, 1)]), agents=(twin, twin), total=27.0
    )
    res = solve_lambda(p)
    np.testing.assert_allclose(res.allocation, [13.5, 13.5], atol=1e-9)


def test_allocate_from_lambda_branches(tab1):
    p = tab1.problem
    lo = _loads_at(p, 0.0)
    np.testing.assert_allclose(lo, p.lower_bounds, atol=1e-12)
    hi = _loads_at(p, 10.0)
    np.testing.assert_allclose(hi, p.upper_bounds, atol=1e-12)
    # at the reference level agent 1 is clamped up, agents 2-3 interior
    mid = _loads_at(p, 2.9314)
    assert mid[0] == pytest.approx(350.0, abs=1e-12)
    assert 350.0 < mid[1] < 480.0
    assert 410.0 < mid[2] < 540.0


def _mixed_instance(total):
    agents = (
        exponential(a=500.0, lower=10.0, upper=60.0),
        quadratic(a=0.05, b=2.0, lower=20.0, upper=90.0),
        quadratic(a=0.02, b=1.0, lower=0.0, upper=70.0),
    )
    return AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2)]), agents=agents, total=total
    )


def test_mixed_families_take_newton_steps():
    # the exponential agent is the interior one, so the loads are not
    # linear in lam and the first step misses
    p = _mixed_instance(180.0)
    res = solve_lambda(p)
    assert np.flatnonzero(res.status == 0).tolist() == [0]
    assert res.method == "newton" and res.probes > 1
    assert abs(res.allocation.sum() - p.total) <= 1e-12 * p.total
    assert in_feasible_set(p, res.allocation)
    assert kkt_check(p, res.allocation).passed


def test_mixed_families_with_quadratic_interior_interpolate_exactly():
    # the only interior agent is quadratic, whose load is linear in lam,
    # so a Newton step from a key with the same active sets is exact
    p = _mixed_instance(140.0)
    res = solve_lambda(p)
    assert res.status.tolist() == [-1, 0, 1]
    assert res.method == "newton"
    assert res.key == res.lam == pytest.approx(2.0 + 0.05 * 40.0, rel=1e-12)
    np.testing.assert_array_equal(res.allocation, [10.0, 60.0, 70.0])
    assert kkt_check(p, res.allocation).passed


def _two_quadratics(total, first, second, upper=1.0):
    """Two quadratic agents (a, b) on [0, upper], joined by one edge."""
    agents = tuple(quadratic(a=a, b=b, lower=0.0, upper=upper) for a, b in (first, second))
    return AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=total)


def test_flat_marginal_agent_takes_the_remaining_load():
    # a * span = 1 is below one ulp of b = 1e16, so the first agent's two
    # thresholds are one key; lower wins the clamp's tie there, so even the
    # last threshold's mass (1.0) misses the total and the bracket's ends
    # share that key
    p = _two_quadratics(1.5, (1.0, 1e16), (1.0, 1.0))
    kmin, kmax = _agent_keys(p)
    assert kmin[0] == kmax[0] == 1e16
    res = solve_lambda(p)
    np.testing.assert_array_equal(res.allocation, [0.5, 1.0])
    assert res.lam == 1e16
    assert kkt_check(p, res.allocation).passed


@pytest.mark.parametrize("b", [1.7e308, 1e300])
def test_flat_marginal_agent_at_the_float_limit(b):
    p = _two_quadratics(1.25, (1.0, b), (1.0, 1.0))
    res = solve_lambda(p)
    np.testing.assert_array_equal(res.allocation, [0.25, 1.0])
    assert kkt_check(p, res.allocation).passed


def test_non_finite_threshold_raises_cost_overflow():
    # a / span overflows, so the agent's marginal is inf at both bounds
    agents = (
        exponential(a=1e308, lower=0.0, upper=1e-10),
        exponential(a=1.0, lower=0.0, upper=1.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=0.5)
    with pytest.raises(CostOverflowError):
        solve_lambda(p)


def test_small_total_is_not_a_table_hit():
    # the loads are ~1e-13: a hit tolerance floored at 1e-12 took the
    # all-lower end (0, 0) as the answer
    p = _two_quadratics(3e-13, (1.0, 1.0), (2.0, 1.0), upper=1e-12)
    res = solve_lambda(p)
    assert res.method != "bound"
    np.testing.assert_allclose(res.allocation, [2e-13, 1e-13], rtol=1e-3)
    assert abs(res.allocation.sum() - p.total) <= 1e-12 * p.total
    assert in_feasible_set(p, res.allocation)
    assert kkt_check(p, res.allocation).passed


def test_mixed_table_rejects_quantized_keys():
    # a mixed table has no piecewise-linear mass to sweep (the exponential
    # agent's load is not linear in lam)
    agents = (
        exponential(a=1e-3, lower=0.0, upper=10.0),
        quadratic(a=1.0, b=1.0, lower=0.0, upper=5.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=6.0)
    with pytest.raises(ValueError, match="single cost family"):
        breakpoints(p)


def _table_bracket(p, masses=None):
    """The bracket read off the full breakpoint table (its masses, or
    breakpoints(p)'s): the first entry within 1e-12 of the total
    (relative, at least 1e-12), else the last entry below it."""
    masses = breakpoints(p).masses if masses is None else masses
    hits = np.flatnonzero(np.abs(masses - p.total) <= 1e-12 * max(1.0, p.total))
    return int(hits[0]) if hits.size else int(np.searchsorted(masses, p.total)) - 1


@pytest.mark.parametrize("family", ["exponential", "quadratic"])
def test_single_family_solve_matches_table_interpolation(family):
    # the bracket is the table's, and the loads are the clamp at the level
    rng = np.random.default_rng(["exponential", "quadratic"].index(family) + 61)
    for k in range(60):
        if k % 2:
            p = _wide_scale_problem(rng, "ring", family=family)
        else:
            p = random_problem(
                rng, n=int(rng.integers(1, 40)), family=family, interior_total=k % 6 != 0
            )
        res = solve_lambda(p)
        assert res.bracket == _table_bracket(p)
        np.testing.assert_array_equal(res.allocation, _loads_at(p, res.key))


def _wide_scale_1e5(family, seed):
    """bench/gen.py's wide-scale draw at n = 10^5 on a path: one coefficient
    scale and one box scale, log-uniform on 1e-3..1e6, agents within a decade."""
    rng = np.random.default_rng(seed)
    n = 10**5
    coeff, box = 10.0 ** rng.uniform(-3.0, 6.0, 2)
    fams = rng.choice(["exponential", "quadratic"], n) if family == "mixed" else np.full(n, family)
    expo = fams == "exponential"
    lower = box * rng.uniform(size=n)
    span = box * 10.0 ** rng.uniform(-1.0, 0.0, n)
    a = np.where(expo, coeff * box * span, coeff) * 10.0 ** rng.uniform(-0.5, 0.5, n)
    b = np.where(expo, 0.0, coeff * box * 10.0 ** rng.uniform(-1.0, 0.0, n))
    total = float(lower.sum() + rng.uniform(0.1, 0.9) * span.sum())
    rows = zip(fams.tolist(), a.tolist(), b.tolist(), lower.tolist(), (lower + span).tolist())
    graph = from_edge_list(n, [(k, k + 1) for k in range(n - 1)])
    return AllocationProblem.__new__(AllocationProblem)._set(graph, rows, total)


@pytest.mark.parametrize("family", ["exponential", "quadratic", "mixed"])
def test_wide_scale_solve_of_1e5_agents_takes_at_most_20_clamps(family):
    # the Newton loop's clamp count barely grows with n; no clock is read
    p = _wide_scale_1e5(family, ["exponential", "quadratic", "mixed"].index(family) + 7)
    res = solve_lambda(p)
    assert res.probes <= 20
    assert abs(res.allocation.sum() - p.total) <= 1e-12 * p.total
    assert kkt_check(p, res.allocation).passed


@pytest.mark.parametrize("family", ["exponential", "quadratic"])
def test_breakpoint_table_of_1e5_agents(family):
    # the sweep's end masses are the correctly rounded bound sums, its
    # masses never fall, and the solver's bracket is read off it; no clock.
    # The memory bound lies between the running-sum sweep's traced peak
    # (about 62 MiB) and the 101 MiB that prefix-sum and index lists take
    p = _wide_scale_1e5(family, ["exponential", "quadratic"].index(family) + 17)
    tbl, peak = traced_peak(breakpoints, p)
    assert tbl.masses[0] == math.fsum(p.lower_bounds.tolist())
    assert tbl.masses[-1] == math.fsum(p.upper_bounds.tolist())
    assert (np.diff(tbl.masses) >= 0).all()
    assert solve_lambda(p).bracket == _table_bracket(p, tbl.masses)
    assert peak < 86 * 2**20


def test_table_masses_where_a_float_slope_leaves_the_floats():
    # agent 1's d(load)/d(key) is beyond the floats: 1 / a for a = 5e-324,
    # or a c'' that underflows to 0 (a / span**2 below 5e-324); agent 2's
    # threshold lies inside agent 1's interior. The exponential thresholds
    # are logs of subnormal marginals, so they carry about 5 digits
    quad = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), total=1.0, agents=(
        quadratic(a=5e-324, b=1e-300, lower=0.0, upper=1e10),
        quadratic(a=1.0, b=1.00000000000002e-300, lower=0.0, upper=1.0),
    ))
    expo = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), total=1.0, agents=(
        exponential(a=1e-300, lower=0.0, upper=1e20),
        exponential(a=2e-323, lower=0.0, upper=1e-3),
    ))
    for p, rtol in ((quad, 1e-12), (expo, 1e-4)):
        tbl = breakpoints(p)
        with np.errstate(over="ignore"):  # the clamp overwrites agent 1's inf load
            want = [_mass_at(p, key) for key in tbl.keys.tolist()]
        assert 0 < want[1] < want[-1]
        np.testing.assert_allclose(tbl.masses, want, rtol=rtol)


_LOG_SCALE = st.floats(-3.0, 6.0).map(lambda x: 10.0**x)


@st.composite
def _quadratic_tables(draw):
    """Quadratic agents on a scale of 1e-3..1e6, a third of them with b / a
    up to 2**70 times their box (flat marginals among them); some boxes after
    the first are points."""
    agents = []
    for _ in range(draw(st.integers(1, 10))):
        a, span = draw(_LOG_SCALE), draw(_LOG_SCALE)
        lower = draw(st.one_of(st.just(0.0), _LOG_SCALE))
        b = draw(st.one_of(_LOG_SCALE, _LOG_SCALE,
                           st.integers(0, 70).map(lambda k, a=a, span=span: a * span * 2.0**k)))
        span = draw(st.sampled_from([span, span, 0.0])) if agents else span
        agents.append(quadratic(a=a, b=b, lower=lower, upper=lower + span))
    n = len(agents)
    graph = from_edge_list(n, [(k, k + 1) for k in range(n - 1)])
    return AllocationProblem(graph=graph, agents=tuple(agents), total=sum(m.upper for m in agents))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_quadratic_tables())
def test_quadratic_table_masses_within_half_an_ulp_of_exact(p):
    # the exact mass at each key: lower, upper, or lower + (key - b) / a
    # as a Fraction, by the clamp's rule at the thresholds. The sweep rounds
    # once, and its rates 1 / a carry 60 bits, hence the 2 % over half an ulp
    kmin, kmax = _agent_keys(p)
    a, b = (p._costs.columns[k].tolist() for k in (1, 2))
    lo, up = p.lower_bounds.tolist(), p.upper_bounds.tolist()
    tbl = breakpoints(p)
    for key, mass in zip(tbl.keys.tolist(), tbl.masses.tolist()):
        exact = sum(
            Fraction(lo[i]) if key <= kmin[i] else Fraction(up[i]) if key >= kmax[i]
            else Fraction(lo[i]) + (Fraction(key) - Fraction(b[i])) / Fraction(a[i])
            for i in range(p.n)
        )
        assert abs(Fraction(mass) - exact) <= Fraction(math.ulp(mass)) * Fraction(51, 100), key


@st.composite
def _path_problems(draw, family=None):
    """Path instances; coefficients, spans and the total's excess over the
    lower bounds log-uniform on 1e-3..1e6. Mixed families (family=None)
    also draw lower bounds (or 0) on that scale; one family has them at 0."""
    if family is None:
        families = draw(
            st.lists(st.sampled_from(["exponential", "quadratic"]), min_size=2, max_size=8)
            .filter(lambda f: len(set(f)) == 2)
        )
    else:
        families = [family] * draw(st.integers(2, 8))
    agents = []
    for fam in families:
        lower = draw(st.one_of(st.just(0.0), _LOG_SCALE)) if family is None else 0.0
        upper = lower + draw(_LOG_SCALE)
        if fam == "exponential":
            agents.append(exponential(a=draw(_LOG_SCALE), lower=lower, upper=upper))
        else:
            agents.append(
                quadratic(a=draw(_LOG_SCALE), b=draw(_LOG_SCALE), lower=lower, upper=upper)
            )
    lo = sum(a.lower for a in agents)
    excess = draw(_LOG_SCALE.filter(lambda x: lo + x <= sum(a.upper for a in agents)))
    n = len(agents)
    return AllocationProblem(
        graph=from_edge_list(n, [(k, k + 1) for k in range(n - 1)]),
        agents=tuple(agents),
        total=lo + excess,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_path_problems())
def test_mixed_solve_sum_exact_and_certified(p):
    res = solve_lambda(p)
    assert abs(res.allocation.sum() - p.total) <= 1e-9 * p.total
    assert kkt_check(p, res.allocation).passed


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["exponential", "quadratic"]).flatmap(_path_problems))
def test_single_family_solve_sum_exact(p):
    res = solve_lambda(p)
    assert abs(res.allocation.sum() - p.total) <= 1e-9 * p.total
    assert in_feasible_set(p, res.allocation)
    assert kkt_check(p, res.allocation).passed


def test_solver_result_passes_kkt_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p = random_problem(rng, family=str(rng.choice(["exponential", "quadratic", "mixed"])))
        res = solve_lambda(p)
        cert = kkt_check(p, res.allocation)
        assert cert.passed, (p.total, res.allocation, cert)


# ---------------------------------------------------------------------------
# final selection


def test_compare_and_select_identical(tab1):
    w = solve_lambda(tab1.problem).allocation
    pick = select_final(tab1.problem, w, w.copy())
    np.testing.assert_array_equal(pick, w)


def test_compare_and_select_triangle_hand_expansion():
    # complete graph on 3 nodes: the evenly spread loads win in either
    # argument order
    agents = tuple(
        quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0) for _ in range(3)
    )
    p = AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2), (0, 2)]), agents=agents, total=120.0
    )
    w_even = np.array([40.0, 40.0, 40.0])
    w_skew = np.array([40.0, 70.0, 10.0])
    c_even = [agents[i].cost(w_even[i]) for i in range(3)]
    c_skew = [agents[i].cost(w_skew[i]) for i in range(3)]
    assert c_even[1] + c_even[2] < c_skew[1] + c_skew[2]
    pick = select_final(p, w_even, w_skew)
    np.testing.assert_array_equal(pick, w_even)
    pick = select_final(p, w_skew, w_even)
    np.testing.assert_array_equal(pick, w_even)
    assert total_cost(p, w_even) < total_cost(p, w_skew)


def test_select_final_guards_feasibility(tab1):
    p = tab1.problem
    lo, up = p.lower_bounds, p.upper_bounds
    span = up - lo
    a = np.array([agent["a"] for agent in document(p)["agents"]])
    lam_ln = (p.total - lo.sum() + (span * np.log(a / span)).sum()) / span.sum()
    wstar = lo + span * (lam_ln - np.log(a / span))
    wo = solve_lambda(p).allocation
    pick = select_final(p, wstar, wo)
    np.testing.assert_array_equal(pick, wo)
    # with two feasible candidates it falls through to the comparison
    pick = select_final(p, wo, wo.copy())
    np.testing.assert_array_equal(pick, wo)
    # an infeasible second candidate leaves the first; two raise
    assert not in_feasible_set(p, wstar)
    pick = select_final(p, wo, wstar)
    assert pick is not wo
    np.testing.assert_array_equal(pick, wo)
    with pytest.raises(InfeasibleError):
        select_final(p, wstar, wstar.copy())


def test_compare_and_select_path_picks_cheaper_in_both_orders():
    # identical c(w) = w^2/2 + w on a 3-node path, total 12: the even split
    # costs 36, (6, 2, 4) costs 40
    agents = tuple(quadratic(a=1.0, b=1.0, lower=0.0, upper=10.0) for _ in range(3))
    p = AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2)]), agents=agents, total=12.0
    )
    even = np.array([4.0, 4.0, 4.0])
    skew = np.array([6.0, 2.0, 4.0])
    assert total_cost(p, even) == 36.0
    assert total_cost(p, skew) == 40.0
    for first, second in ((even, skew), (skew, even)):
        np.testing.assert_array_equal(select_final(p, first, second), even)


def _shaped_edges(rng, shape, n):
    """Edges of a path, star, random tree or ring with n//3 chords, with the
    node labels shuffled so node 0 sits anywhere in the shape."""
    if shape == "path":
        edges = [(k, k + 1) for k in range(n - 1)]
    elif shape == "star":
        edges = [(0, k) for k in range(1, n)]
    elif shape == "tree":
        edges = [(k, int(rng.integers(0, k))) for k in range(1, n)]
    else:
        edges = [(k, (k + 1) % n) for k in range(n)]
        for _ in range(n // 3):
            a, b = rng.choice(n, size=2, replace=False)
            edges.append((int(a), int(b)))
    label = rng.permutation(n)
    return [(int(label[a]), int(label[b])) for a, b in edges]


def _wide_scale_problem(rng, shape, family=None):
    """Instance with coefficients, bounds and spans log-uniform on
    1e-3..1e6; each agent's family is drawn at random unless given."""
    n = int(rng.integers(3, 25))

    def wide():
        return float(10.0 ** rng.uniform(-3.0, 6.0))

    agents = []
    for _ in range(n):
        lower = wide()
        upper = lower + wide()
        if (rng.random() < 0.5) if family is None else family == "exponential":
            agents.append(exponential(a=wide(), lower=lower, upper=upper))
        else:
            agents.append(quadratic(a=wide(), b=wide(), lower=lower, upper=upper))
    lo = sum(a.lower for a in agents)
    up = sum(a.upper for a in agents)
    total = lo + float(rng.uniform(0.05, 0.95)) * (up - lo)
    g = from_edge_list(n, _shaped_edges(rng, shape, n))
    return AllocationProblem(graph=g, agents=tuple(agents), total=total)


def _feasible_point(p, rng):
    """A random point of the feasible set: the even-fraction point moved
    along a random zero-sum direction that stays inside every box."""
    lo, up = p.lower_bounds, p.upper_bounds
    span = up - lo
    base = lo + (p.total - lo.sum()) / span.sum() * span
    d = rng.standard_normal(p.n) * span
    d -= span * (d.sum() / span.sum())
    room = np.where(d > 0, (up - base) / np.where(d > 0, d, 1.0), np.inf)
    room = np.minimum(room, np.where(d < 0, (lo - base) / np.where(d < 0, d, 1.0), np.inf))
    return np.clip(base + float(rng.uniform(0.0, 1.0)) * room.min() * d, lo, up)


@pytest.mark.parametrize("shape", ["path", "star", "tree", "ring"])
def test_selection_keeps_cheaper_candidate(shape, caplog):
    rng = np.random.default_rng(["path", "star", "tree", "ring"].index(shape) + 101)
    caplog.set_level(logging.DEBUG)
    compared = 0
    for _ in range(60):
        p = _wide_scale_problem(rng, shape)
        a = _feasible_point(p, rng)
        b = _feasible_point(p, rng) if rng.random() < 0.7 else 0.5 * (a + _feasible_point(p, rng))
        assert in_feasible_set(p, a) and in_feasible_set(p, b)
        np.testing.assert_array_equal(select_final(p, a, a.copy()), a)
        ca, cb = total_cost(p, a), total_cost(p, b)
        if abs(ca - cb) <= 1e-9 * max(abs(ca), abs(cb)):
            continue
        cheaper = a if ca < cb else b
        for first, second in ((a, b), (b, a)):
            np.testing.assert_array_equal(select_final(p, first, second), cheaper)
        compared += 1
    assert compared >= 50
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@st.composite
def _near_ties(draw):
    """Identical agents on a path, star, random tree or chorded ring, at a
    cost scale in 1e-3..1e6, and two feasible candidates that are
    permutations of each other (true cost difference 0). Half the time
    one load moves between two agents of the second, by a relative amount
    down to 1e-16, so the difference is near but not at 0."""
    shape = draw(st.sampled_from(["path", "star", "tree", "ring"]))
    n = draw(st.integers(2, 60))
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        agent = exponential(a=scale, lower=1.0, upper=3.0)
    else:
        agent = quadratic(a=scale, b=scale * float(rng.uniform(0.1, 10.0)), lower=1.0, upper=3.0)
    total = n * float(rng.uniform(1.1, 2.9))
    p = AllocationProblem(
        graph=from_edge_list(n, _shaped_edges(rng, shape, n)), agents=(agent,) * n, total=total
    )
    a = _feasible_point(p, rng)
    b = a[rng.permutation(n)]
    if draw(st.booleans()):
        i, j = rng.choice(n, size=2, replace=False)
        move = min(b[i] - 1.0, 3.0 - b[j]) * 10.0 ** draw(st.floats(-16.0, 0.0))
        b[i] -= move
        b[j] += move
    return p, a, b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_near_ties())
def test_selection_matches_per_level_sum_at_near_ties(case):
    # the pick follows the sign of the exact C(a) - C(b), with no slack:
    # fsum rounds the exact sum once, which keeps its sign
    p, a, b = case
    assert in_feasible_set(p, a) and in_feasible_set(p, b)
    diff = math.fsum(np.concatenate([cost_values(p, a), -cost_values(p, b)]))
    for first, second, sign in ((a, b, 1.0), (b, a, -1.0)):
        pick = select_final(p, first, second)
        np.testing.assert_array_equal(pick, first if sign * diff <= 0 else second)


def test_selection_at_the_edge_of_float_range():
    # a*exp(w/10) on [0, 10] with a = 1e308: every cost is at least 1e308,
    # so every float total overflows, and a cost is inf above w = 5.86
    agents = (exponential(a=1e308, lower=0.0, upper=10.0),) * 2
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=10.0)
    even, near = np.array([5.0, 5.0]), np.array([5.5, 4.5])
    edge, other = np.array([10.0, 0.0]), np.array([0.0, 10.0])
    with np.errstate(over="ignore"):
        assert np.isfinite(cost_values(p, near)).all()
        assert cost_values(p, even).sum() == cost_values(p, near).sum() == np.inf
        assert not np.isfinite(cost_values(p, edge)).all()
        # exact totals: even's is the smaller finite one, edge's is infinite
        for cheaper, dearer in ((even, near), (even, edge)):
            for first, second in ((cheaper, dearer), (dearer, cheaper)):
                np.testing.assert_array_equal(select_final(p, first, second), cheaper)
        # two infinite totals tie, so the first candidate is kept
        np.testing.assert_array_equal(select_final(p, edge, other), edge)
        np.testing.assert_array_equal(select_final(p, other, edge), other)
