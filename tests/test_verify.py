import inspect
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import document, random_problem, spread, traced_peak
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import taskalloc
from taskalloc.cli import _auto_resolution
from taskalloc.costs import exponential, quadratic
from taskalloc.drd import DrdConfig, simulate
from taskalloc.errors import (
    CostOverflowError,
    DimensionTooLargeError,
    EmptyGridError,
    NotFeasibleError,
    StepOverflowError,
)
from taskalloc.graph import from_edge_list
from taskalloc.instances import get_instance
from taskalloc.lambda_solver import breakpoints, select_final, solve_lambda
from taskalloc.problem import (
    AllocationProblem,
    in_feasible_set,
    in_simplex,
    load_problem,
    marginals,
    parse_problem,
    total_cost,
    total_cost_batch,
)
from taskalloc.verify import (
    _BLOCK_ELEMENTS,
    _CHAINS,
    _GRID_BLOCK_CELLS,
    _REJECTION_MIN_RATE,
    _SWEEPS,
    _axis,
    _draw_size,
    _hit_and_run_stream,
    _Sink,
    grid_min,
    kkt_check,
    monte_carlo_min,
)


def test_is_nash_at_equal_fitness(fig2):
    assert spread(fig2.problem, np.asarray(fig2.reference["allocation"])) <= 1e-6


def test_is_nash_rejects_perturbation(fig2):
    w = np.asarray(fig2.reference["allocation"]).copy()
    w[0] += 10.0
    w[1] -= 10.0
    assert spread(fig2.problem, w) > 1e-3


def test_is_nash_single_agent():
    agent = quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0)
    p = AllocationProblem(graph=from_edge_list(1, []), agents=(agent,), total=60.0)
    assert spread(p, [60.0]) == 0.0


def test_kkt_interior_certificate(tab3):
    p = tab3.problem
    res = solve_lambda(p)
    cert = kkt_check(p, res.allocation)
    assert cert.passed
    assert cert.status.tolist() == [0, 0, 0]
    assert cert.lam == pytest.approx(5.766, abs=1e-3)
    assert cert.stationarity_residual <= 1e-6


def test_kkt_clamped_certificate(tab1):
    p = tab1.problem
    res = solve_lambda(p)
    cert = kkt_check(p, res.allocation)
    assert cert.passed
    assert np.flatnonzero(cert.status == 1).tolist() == [0]
    assert cert.alphas == {}
    assert cert.betas[0] >= 0.0
    # beta_1 = level - marginal at the clamped upper bound
    expected_beta = cert.lam - float(marginals(p, p.upper_bounds)[0])
    assert cert.betas[0] == pytest.approx(expected_beta, rel=1e-9)


def test_kkt_all_bounds_active():
    agents = (
        quadratic(a=0.01, b=2.0, lower=10.0, upper=20.0),
        quadratic(a=0.01, b=1.0, lower=30.0, upper=40.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=40.0)
    cert = kkt_check(p, [10.0, 30.0])
    assert cert.passed
    assert not (cert.status == 0).any()


def test_kkt_pinned_agents_take_one_side():
    # a zero-width box sits at both bounds: it counts as lower-active when
    # its marginal (b here) is at least lam, otherwise as upper-active
    agents = (
        quadratic(a=1.0, b=1.0, lower=5.0, upper=5.0),
        quadratic(a=1.0, b=20.0, lower=5.0, upper=5.0),
        quadratic(a=1.0, b=2.0, lower=0.0, upper=10.0),
        quadratic(a=1.0, b=2.0, lower=0.0, upper=10.0),
    )
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    cert = kkt_check(AllocationProblem(graph=g, agents=agents, total=20.0), [5.0] * 4)
    assert cert.status.tolist() == [1, -1, 0, 0] and cert.lam == 7.0
    assert cert.alphas == {1: 13.0} and cert.betas == {0: 6.0}
    assert cert.passed


def test_kkt_rejects_suboptimal_point(tab3):
    p = tab3.problem
    w = np.array([340.0, 395.7, 414.3])  # feasible but marginals differ
    assert in_feasible_set(p, w)
    cert = kkt_check(p, w)
    assert not cert.passed


def test_kkt_resolution_floor_near_a_bound():
    # one ulp of agent 1's load (about 1.5e-11 at 1e5) moves its marginal
    # by a * ulp = 8.6e-6, more than 1e-6 * max(1, lam) at lam = 0.051
    agents = (
        quadratic(a=5.9e5, b=0.012, lower=1e5, upper=1e5 + 100.0),
        quadratic(a=1.0, b=1e-3, lower=0.0, upper=1.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=1e5 + 0.05)
    res = solve_lambda(p)
    cert = kkt_check(p, res.allocation)
    assert np.flatnonzero(cert.status == -1).tolist() == [0]
    assert cert.alphas[0] < -1e-6 * max(1.0, cert.lam)
    assert cert.passed
    # the floor is one ulp's worth: a point off the optimum still fails
    assert not kkt_check(p, [1e5 + 0.01, 0.04]).passed


@pytest.mark.parametrize("ulps, passed", [(-1, False), (0, True), (1, True), (2, False)])
def test_kkt_steep_agent_meets_lam_within_its_resolution(ulps, passed):
    # agent 0's marginal moves 5.2e-3 over one ulp of its load, so the mean
    # interior marginal lies far from agent 1's: the level is taken within
    # agent 1's tolerance whichever side the mean falls, and the point
    # passes until agent 0 is more than its resolution off agent 1
    p = parse_problem((Path(__file__).parent / "data" / "steep2.json").read_text())
    load = solve_lambda(p).allocation[0]
    load += ulps * np.spacing(load)
    w = np.array([load, p.total - load])
    cert = kkt_check(p, w)
    assert cert.passed == passed
    if passed:
        marg = p._costs.marginal(w)
        assert cert.lam == pytest.approx(marg[1], rel=1.01e-6)  # 1e-6 and a resolution
        assert abs(cert.lam - marg[0]) > 1e-3  # the mean was inadmissible


def test_kkt_steep_agent_does_not_widen_others():
    # agent 0's marginal, 1e6, moves by 1e6 over one ulp of its load and
    # pulls the mean interior marginal to 3.3e5; agents 1 and 2 must still
    # agree within 1e-6 of their own marginals, 2.0 and 2.5
    u = 2.0**-52
    agents = (
        quadratic(a=1e6 / u, b=1e-300, lower=1.0, upper=1.0 + 1e5 * u),
        quadratic(a=1.0, b=1.0, lower=0.0, upper=10.0),
        quadratic(a=1.0, b=1.0, lower=0.0, upper=10.0),
    )
    graph = from_edge_list(3, [(0, 1), (1, 2)])
    for loads, passed in (([1.0, 1.5], False), ([1.25, 1.25], True)):
        w = np.array([np.nextafter(1.0, 2.0), *loads])
        p = AllocationProblem(graph=graph, agents=agents, total=float(w.sum()))
        cert = kkt_check(p, w)
        assert cert.passed == passed
        assert cert.lam < 3 if passed else cert.lam > 3e5


def test_kkt_not_feasible(tab3):
    with pytest.raises(NotFeasibleError):
        kkt_check(tab3.problem, [500.0, 400.0, 250.0])


def test_kkt_nash_equivalence_for_interior_points(fig3):
    # strictly inside every box, the two optimality views must agree
    p = fig3.problem
    wstar = np.asarray(fig3.reference["allocation"])
    cert = kkt_check(p, wstar)
    assert cert.passed and not cert.status.any()
    assert spread(p, wstar) <= 1e-6

    off = wstar + np.array([2.0, -2.0, 0.0, 0.0, 0.0, 0.0])
    assert in_feasible_set(p, off)
    assert not kkt_check(p, off).passed
    assert spread(p, off) > 1e-3


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e9, 1e12])
@pytest.mark.parametrize("iid", ["tab1", "tab3", "fig2", "fig3"])
def test_kkt_tolerance_scales_with_level(iid, scale):
    # every a and b times scale: the optimum stays, the level scales
    doc = document(get_instance(iid).problem)
    for agent in doc["agents"]:
        agent["a"] *= scale
        if "b" in agent:
            agent["b"] *= scale
    p = parse_problem(json.dumps(doc))
    res = solve_lambda(p)
    assert kkt_check(p, res.allocation).passed
    i, j = np.flatnonzero(res.status == 0)[:2]
    moved = res.allocation.copy()
    moved[[i, j]] += np.array([-1.0, 1.0]) * 0.01 * moved[i]
    assert in_feasible_set(p, moved)
    assert not kkt_check(p, moved).passed


def test_kkt_multiplier_formulas_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        p = random_problem(rng)
        res = solve_lambda(p)
        cert = kkt_check(p, res.allocation)
        assert cert.passed
        at_lower, at_upper = marginals(p, p.lower_bounds), marginals(p, p.upper_bounds)
        for i, alpha in cert.alphas.items():
            assert alpha == pytest.approx(at_lower[i] - cert.lam, rel=1e-9, abs=1e-9)
        for j, beta in cert.betas.items():
            assert beta == pytest.approx(cert.lam - at_upper[j], rel=1e-9, abs=1e-9)
        # one status per agent
        assert cert.status.shape == (p.n,) and set(cert.status.tolist()) <= {-1, 0, 1}


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def test_monte_carlo_deterministic(tab1):
    a = monte_carlo_min(tab1.problem, 2000, seed=7)
    b = monte_carlo_min(tab1.problem, 2000, seed=7)
    assert a.best_cost == b.best_cost
    np.testing.assert_array_equal(a.best, b.best)
    assert a.mode == "rejection" and a.accepted / a.drawn > 0.5
    c = monte_carlo_min(tab1.problem, 2000, seed=8)
    assert not np.array_equal(a.best, c.best)


def test_monte_carlo_nested_prefix_monotone(tab1):
    costs = [
        monte_carlo_min(tab1.problem, k, seed=3).best_cost
        for k in (200, 500, 1000, 2000)
    ]
    assert all(c2 <= c1 for c1, c2 in zip(costs, costs[1:]))


def test_monte_carlo_never_beats_solver(tab1, tab3):
    for inst in (tab1, tab3):
        p = inst.problem
        solver_cost = total_cost(p, solve_lambda(p).allocation)
        mc = monte_carlo_min(p, 100_000, seed=0)
        assert in_feasible_set(p, mc.best)
        assert mc.best_cost >= solver_cost
        assert mc.best_cost <= solver_cost * 1.05


def test_monte_carlo_best_lands_near_reference(tab3):
    mc = monte_carlo_min(tab3.problem, 100_000, seed=4)
    ref = np.asarray(tab3.reference["allocation"])
    assert float(np.linalg.norm(mc.best - ref)) <= 5.0


def test_monte_carlo_degenerate_total_returns_bound_vector():
    agents = (
        quadratic(a=0.01, b=2.0, lower=10.0, upper=20.0),
        quadratic(a=0.01, b=1.0, lower=30.0, upper=40.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=40.0)
    for samples in (1, 10, 500):
        res = monte_carlo_min(p, samples, seed=1)
        np.testing.assert_array_equal(res.best, [10.0, 30.0])
        assert res.samples == samples
        assert res.mode == "degenerate" and res.drawn == 0


@pytest.mark.parametrize("samples", [2.5, 600.0, 0, -1, True])
@pytest.mark.parametrize("source", ["single2.json", "boundsum3.json", "thin5.json", "tab3"])
def test_monte_carlo_rejects_samples_before_drawing(tmp_path, source, samples):
    # degenerate, rejection and hit-and-run runs check the count alike,
    # before any draw or dump file
    if source.endswith(".json"):
        p = parse_problem((Path(__file__).parent / "data" / source).read_text())
    else:
        p = get_instance(source).problem
    dump = tmp_path / "dump.csv"
    with pytest.raises(ValueError, match="samples must be an integer >= 1"):
        monte_carlo_min(p, samples, seed=0, dump_path=dump)
    assert not dump.exists()


def test_monte_carlo_hit_and_run_path(tmp_path):
    # a total 0.05 below the upper sum leaves a corner that takes about
    # (0.05 / 2.95)^2 = 3e-4 of the shifted simplex: the walker takes over
    agents = tuple(
        quadratic(a=0.01, b=1.0, lower=100.0, upper=101.0) for _ in range(3)
    )
    p = AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2)]), agents=agents, total=302.95
    )
    res = monte_carlo_min(p, 3000, seed=5, dump_path=tmp_path / "long.csv")
    assert res.mode == "hit-and-run" and res.accepted < _REJECTION_MIN_RATE * res.drawn
    assert in_feasible_set(p, res.best)
    again = monte_carlo_min(p, 3000, seed=5)
    assert res.best_cost == again.best_cost
    solver_cost = total_cost(p, solve_lambda(p).allocation)
    assert res.best_cost >= solver_cost
    # prefix-stable: a shorter run records the same first rows
    monte_carlo_min(p, 300, seed=5, dump_path=tmp_path / "short.csv")
    short = (tmp_path / "short.csv").read_text().splitlines()
    assert len(short) == 301
    assert (tmp_path / "long.csv").read_text().splitlines()[:301] == short


def test_first_block_rate_chooses_the_sampler():
    # two boxes [0, u] on a total of 1 keep a share 2u - 1 of the simplex
    # draws: 3 % and 1 %, either side of the switch. 100 samples take one
    # 6144-point block, so the counts are the first block's
    size = _draw_size(_BLOCK_ELEMENTS, 2)
    for u, mode in ((0.515, "rejection"), (0.505, "hit-and-run")):
        res = monte_carlo_min(_boxes([(0.0, u), (0.0, u)], 1.0), 100, seed=0)
        assert (res.mode, res.drawn) == (mode, size)
        assert (res.accepted >= _REJECTION_MIN_RATE * size) == (mode == "rejection")
        assert 0.5 * (2 * u - 1) < res.accepted / size < 1.5 * (2 * u - 1)

def test_oracle_chain_steps_count_walk_steps_only(tab1):
    # boxes 0.02 wide and a total 0.01 below the upper sum: the feasible
    # set is the corner where the slacks up_i - w_i sum to 0.01, a share
    # (0.01 / room)^(n - 1) of the shifted simplex: 4e-2 at n = 3 (room
    # 0.05), 1.5e-4 at n = 5 (room 0.09), where the walker takes over
    def thin(n):
        agents = tuple(quadratic(a=1.0, b=1.0, lower=1.0, upper=1.02) for _ in range(n))
        g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
        return AllocationProblem(graph=g, agents=agents, total=1.02 * n - 0.01)

    for samples in (1, _CHAINS, _CHAINS + 1, 1500):
        res = monte_carlo_min(thin(5), samples, seed=2)
        assert res.mode == "hit-and-run"
        assert res.chain_steps == _SWEEPS * 5 * -(-samples // _CHAINS)
    # no walk: rejection, a degenerate total (the upper sum), the grid
    rejection = monte_carlo_min(thin(3), 100, seed=2)
    degenerate = monte_carlo_min(_boxes([(0.0, 1.0), (0.0, 1.0)], 2.0), 10, seed=0)
    assert (rejection.mode, degenerate.mode) == ("rejection", "degenerate")
    assert rejection.chain_steps == degenerate.chain_steps == 0
    assert grid_min(tab1.problem, 1.0).chain_steps == 0


def test_monte_carlo_starved_on_pointlike_set():
    # pinned boxes leave one free agent, which the sum constraint fixes:
    # zero-measure for rejection and no pair of agents for the walker, but
    # the feasible set is that single point
    one_pinned = _boxes([(50.0, 50.0), (0.0, 100.0)], 100.0)
    two_pinned = _boxes([(50.0, 50.0), (0.0, 100.0), (20.0, 20.0)], 120.0)
    for p, point in ((one_pinned, [50.0, 50.0]), (two_pinned, [50.0, 50.0, 20.0])):
        res = monte_carlo_min(p, 100, seed=0)
        assert res.mode == "degenerate"
        assert res.best.tolist() == point


def test_monte_carlo_dump(tmp_path, tab1):
    path = tmp_path / "oracle.csv"
    res = monte_carlo_min(tab1.problem, 100, seed=2, dump_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_index,w_1,w_2,w_3,C"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[0] == "0"
    costs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert min(costs) == pytest.approx(res.best_cost, rel=1e-12)


def test_monte_carlo_memory_flat_in_n():
    # every draw is accepted (the room, 1, fits every box); draws hold a
    # bounded number of elements, far below one 20 000 x n array (320 MB)
    n = 2000
    agents = tuple(quadratic(a=1.0, b=1.0, lower=0.0, upper=1.0) for _ in range(n))
    p = AllocationProblem(
        graph=from_edge_list(n, [(i, i + 1) for i in range(n - 1)]), agents=agents, total=1.0
    )
    res, peak = traced_peak(monte_carlo_min, p, 1000, seed=0)
    assert res.mode == "rejection" and res.accepted == res.drawn > 1000
    assert peak < 32 * 2**20


def _ks_distance(x, cdf) -> float:
    x = np.sort(x)
    f = cdf(x)
    k = np.arange(1, x.size + 1)
    return float(max((k / x.size - f).max(), (f - (k - 1) / x.size).max()))


def _sampled(tmp_path, p, samples, seed) -> np.ndarray:
    path = tmp_path / "samples.csv"
    monte_carlo_min(p, samples, seed=seed, dump_path=path)
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:-1]


def test_monte_carlo_uniform_on_feasible_set(tmp_path):
    samples = 20_000
    crit = 1.63 / np.sqrt(samples)  # Kolmogorov-Smirnov, 1 % level
    # n = 2: w_1 is uniform on the feasible segment [3, 10]
    agents = (
        quadratic(a=0.01, b=1.0, lower=0.0, upper=10.0),
        quadratic(a=0.01, b=1.0, lower=5.0, upper=12.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=15.0)
    w = _sampled(tmp_path, p, samples, seed=11)
    assert _ks_distance(w[:, 0], lambda t: (t - 3.0) / 7.0) < crit
    # n = 3 on the hexagon [0, 1]^3 with sum 1.5: each coordinate has mean
    # 0.5 and the density (0.5 + t) / 0.75 below 0.5, (1.5 - t) / 0.75 above
    agents = tuple(quadratic(a=0.01, b=1.0, lower=0.0, upper=1.0) for _ in range(3))
    p = AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2)]), agents=agents, total=1.5
    )
    w = _sampled(tmp_path, p, samples, seed=12)
    np.testing.assert_allclose(w.mean(axis=0), 0.5, atol=4 * 0.2 / np.sqrt(samples))

    def hexagon_cdf(t):
        below = (0.5 * t + 0.5 * t * t) / 0.75
        above = 1.0 - (1.0 - t) * (0.5 + 0.5 * (1.0 - t)) / 0.75
        return np.where(t <= 0.5, below, above)

    for i in range(3):
        assert _ks_distance(w[:, i], hexagon_cdf) < crit


class _Rows(list):
    """Stands in for _Sink and keeps the recorded rows."""

    def add(self, points):
        self.append(points.copy())


@pytest.mark.parametrize("n", [4, 30])
def test_hit_and_run_law_matches_rejection(tmp_path, n):
    # boxes [0, u_i] with a total 0.3 of the upper sum: rejection still
    # accepts about 11 % of its draws at n = 30, so it is the reference
    up = np.linspace(0.5, 1.5, n)
    p = _boxes([(0.0, u) for u in up], float(0.3 * up.sum()))
    reference = _sampled(tmp_path, p, 20_000, seed=0)
    rows = _Rows()
    _hit_and_run_stream(p, np.random.default_rng(1), 4096, p.lower_bounds, up, rows)
    walk = np.concatenate(rows)
    assert walk.shape == (4096, n)
    assert all(in_feasible_set(p, row) for row in walk)
    # the share of walker rows below each reference decile of each load is
    # that decile's level within 0.045, under 6 binomial standard errors of
    # 4096 independent draws (0.5 / sqrt(4096) = 0.008), the rest being room
    # for the chains' correlation across batches; a walk that has not mixed
    # stays near its start and misses the tails
    levels = np.linspace(0.1, 0.9, 9)
    deciles = np.quantile(reference, levels, axis=0)
    shares = (walk[:, None, :] <= deciles).mean(axis=0)
    assert np.abs(shares - levels[:, None]).max() <= 0.045


def test_oracles_keep_a_point_when_costs_overflow():
    # every cost on [0, 1e300]^2 with that total overflows to inf
    p = _boxes([(0.0, 1e300), (0.0, 1e300)], 1e300)
    for res in (grid_min(p, 1e298), monte_carlo_min(p, 10, seed=0)):
        assert res.best is not None and in_feasible_set(p, res.best)
        assert res.best_cost == np.inf


# every public call that computes with a problem: each runs under one
# np.errstate decorator, so a cost, marginal or sum past the floats reads
# inf or nan, or raises the package's own error, and prints no warning
_NO_WARNING_CALLS = ["kkt_check", "monte_carlo_min", "grid_min", "select_final", "total_cost",
                     "solve_lambda", "breakpoints", "simulate", "in_feasible_set", "in_simplex"]
# public calls that take a problem first and need no decorator:
# default_start scales the box widths so that no sum overflows, and the
# other two write the problem as JSON
_NO_WARNING_EXEMPT = ["default_start", "serialize_problem", "save_problem"]


@pytest.mark.parametrize("call", _NO_WARNING_CALLS)
@pytest.mark.parametrize("name", ["inf_marginal2", "nan_marginal2", "bigbox3", "costover2"])
def test_calls_on_costs_past_the_floats_raise_no_warning(name, call):
    # every warning fails a test: these calls read costs and marginals of
    # inf or nan as values, as the CLI does
    p = load_problem(Path(__file__).parent / "data" / f"{name}.json")
    share = (p.upper_bounds - p.lower_bounds) / (p.upper_bounds - p.lower_bounds).max()
    w = p.lower_bounds + (p.total - p.lower_bounds.sum()) * share / share.sum()
    # inf_marginal2 and costover2: every cost of a feasible point overflows;
    # bigbox3 and costover2: every marginal at a bound is finite, so the
    # solver solves, and w, an even split of identical agents, is the optimum
    inf = name in ("inf_marginal2", "costover2")
    solves = name in ("bigbox3", "costover2")
    if call == "kkt_check":
        assert kkt_check(p, w).passed == solves
    elif call in ("monte_carlo_min", "grid_min"):
        if call == "monte_carlo_min":
            res = monte_carlo_min(p, 100, seed=0)
        else:  # bigbox3's boxes are 1e308 wide: the CLI's 300 steps
            res = grid_min(p, 0.5 if name != "bigbox3" else _auto_resolution(p))
        assert in_feasible_set(p, res.best) and (res.best_cost == np.inf) == inf
    elif call == "select_final":
        # the other candidate fills the boxes from the last agent down
        other, rest = p.lower_bounds.copy(), p.total - sum(p.lower_bounds.tolist())
        for i in reversed(range(p.n)):
            other[i] += min(rest, p.upper_bounds[i] - p.lower_bounds[i])
            rest -= other[i] - p.lower_bounds[i]
        assert in_feasible_set(p, other)
        # two infinite totals tie, and the first candidate stays
        assert select_final(p, w, other).tobytes() == (w if inf or solves else other).tobytes()
    elif call == "total_cost":
        assert (total_cost(p, w) == np.inf) == inf
    elif call == "solve_lambda":
        if not solves:  # a marginal at a bound is inf
            with pytest.raises(CostOverflowError):
                solve_lambda(p)
        else:
            loads = solve_lambda(p).allocation
            assert in_feasible_set(p, loads) and (total_cost(p, loads) == np.inf) == inf
    elif call == "breakpoints":
        if not solves:  # nan_marginal2 mixes families, which no table takes
            with pytest.raises(CostOverflowError if p._costs.family else ValueError):
                breakpoints(p)
        else:  # bigbox3's upper bounds sum to inf, and so does the last mass
            assert breakpoints(p).masses[-1] == sum(p.upper_bounds.tolist())
    elif call == "simulate":
        cfg = DrdConfig(step=1e-3, max_steps=5)
        if not solves:  # an inf marginal makes the first step's drift nan
            with pytest.raises(StepOverflowError):
                simulate(p, w, cfg)
        else:
            assert (simulate(p, w, cfg).costs[-1] == np.inf) == inf
    else:  # loads of 1e308 each sum past the floats
        member = in_feasible_set if call == "in_feasible_set" else in_simplex
        assert member(p, w) and not member(p, np.full(p.n, 1e308))


def test_every_public_call_on_a_problem_is_checked_for_warnings():
    # a public function whose first parameter is a problem is in the call
    # table above or named exempt, so a new one cannot skip the rule
    taking_p = [name for name in taskalloc.__all__
                if inspect.isfunction(fn := getattr(taskalloc, name))
                and next(iter(inspect.signature(fn).parameters), None) == "p"]
    assert sorted(taking_p) == sorted(_NO_WARNING_CALLS + _NO_WARNING_EXEMPT)


def test_oracles_on_a_small_total():
    # boxes [0, 1e-12], total 3e-13: with tolerances floored at 1, the
    # sampler took the all-lower vector as the only feasible point and
    # the grid counted all 301 cells as feasible
    agents = tuple(quadratic(a=a, b=1.0, lower=0.0, upper=1e-12) for a in (1.0, 2.0))
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=3e-13)
    mc = monte_carlo_min(p, 2000, seed=0)
    assert mc.mode == "rejection" and in_feasible_set(p, mc.best)
    resolution = 1e-12 / 300.0
    grid = grid_min(p, resolution)
    assert grid.samples == 91 and in_feasible_set(p, grid.best)
    best, best_cost, feasible = _grid_per_row(p, resolution)
    assert (feasible, best_cost) == (grid.samples, grid.best_cost)
    np.testing.assert_array_equal(best, grid.best)
    solver_cost = total_cost(p, solve_lambda(p).allocation)
    assert solver_cost <= min(mc.best_cost, grid.best_cost) * (1.0 + 1e-9)


def test_rejection_skips_refill_blocks_that_accept_nothing(monkeypatch):
    # boxes of 0.505 on a total of 1 accept 1 % of the simplex draws, so
    # about one 256-point block in 13 accepts no point at all; the switch
    # is set below 1 % so that rejection keeps the run
    sizes = []
    add = _Sink.add

    def recording(sink, points):
        sizes.append(len(points))
        add(sink, points)

    monkeypatch.setattr("taskalloc.verify._BLOCK_ELEMENTS", 512)
    monkeypatch.setattr("taskalloc.verify._REJECTION_MIN_RATE", 1e-3)
    monkeypatch.setattr(_Sink, "add", recording)
    p = _boxes([(0.0, 0.505), (0.0, 0.505)], 1.0)
    res = monte_carlo_min(p, 1000, seed=0)
    assert res.mode == "rejection" and res.drawn == 256 * len(sizes)
    assert 0 in sizes and sum(sizes) == 1000
    assert in_feasible_set(p, res.best)


def test_oracle_dump_matches_per_number_format(tmp_path):
    points = np.array(
        [[1e16, 1e-5, 0.1], [3.0, 100.0, -0.0], [1.0 / 3.0, 2.0**-1074, 123456789012345678.0]]
    )
    p = _boxes([(0.0, 1.0)] * 3, 1.0)
    sink = _Sink(p, tmp_path / "d.csv")
    sink.add(points[:1])
    sink.add(points[1:])
    sink.close()
    costs = total_cost_batch(p, points)
    assert sink.count == 3
    assert sink.cost == costs.min()
    np.testing.assert_array_equal(sink.best, points[np.argmin(costs)])
    expected = ["sample_index,w_1,w_2,w_3,C\n"]
    for k, (row, c) in enumerate(zip(points, costs)):
        vals = ",".join(f"{x:.15g}" for x in row)
        expected.append(f"{k},{vals},{c:.15g}\n")
    assert (tmp_path / "d.csv").read_bytes() == "".join(expected).encode()


# ---------------------------------------------------------------------------
# grid oracle


@pytest.mark.parametrize("family", ["exponential", "quadratic", "mixed"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_total_cost_batch_is_left_to_right_column_sum(n, family):
    # grid_min adds per-agent cost columns, each from a one-agent cost
    # table, left to right and relies on numpy's row sum of a (m, n) batch
    # doing the same for n < 8; a numpy that reorders short-row sums fails
    # here first
    rng = np.random.default_rng(100 * n + len(family))
    agents = []
    for i in range(n):
        fam = family if family != "mixed" else ("exponential", "quadratic")[i % 2]
        lower, width = float(rng.uniform(0.0, 50.0)), float(rng.uniform(1.0, 100.0))
        scale = 10.0 ** rng.uniform(-3.0, 6.0)  # partial sums of mixed sizes round
        if fam == "exponential":
            agents.append(exponential(a=scale, lower=lower, upper=lower + width))
        else:
            agents.append(quadratic(a=1e-2 * scale, b=scale, lower=lower, upper=lower + width))
    lo = np.array([m.lower for m in agents])
    up = np.array([m.upper for m in agents])
    p = AllocationProblem(
        graph=from_edge_list(n, [(i, i + 1) for i in range(n - 1)]),
        agents=tuple(agents),
        total=float(0.5 * (lo + up).sum()),
    )
    batch = lo + (up - lo) * rng.random((20_000, n))
    columns = [m.cost(batch[:, i]) for i, m in enumerate(agents)]
    left_to_right = columns[0]
    for col in columns[1:]:
        left_to_right = left_to_right + col
    assert total_cost_batch(p, batch).tobytes() == left_to_right.tobytes()
    if n > 2:  # the data can tell the orders apart
        right_to_left = columns[-1]
        for col in columns[-2::-1]:
            right_to_left = right_to_left + col
        assert not np.array_equal(right_to_left, left_to_right)


def _grid_per_row(p, resolution):
    """grid_min as one Python iteration per grid row: the reference. The
    last agent whose box is a step wide (else the last agent) is solved
    from the sum, and cells are priced by total_cost_batch on the problem
    with that agent moved last."""
    n, w = p.n, p.total
    width = p.upper_bounds - p.lower_bounds
    solved = max((i for i in range(n) if width[i] >= resolution), default=n - 1)
    order = [i for i in range(n) if i != solved] + [solved]
    doc = document(p)
    doc["agents"] = [doc["agents"][i] for i in order]
    q = parse_problem(json.dumps(doc))
    lo, up = q.lower_bounds, q.upper_bounds
    eps = 1e-9 * w
    axes = [_axis(lo[i], up[i], resolution) for i in range(n - 1)]
    vec = axes[-1]
    best, best_cost, feasible = None, np.inf, 0
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
        costs = total_cost_batch(q, batch)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best, best_cost = batch[k].copy(), float(costs[k])
        feasible += m
    if feasible == 0:
        raise EmptyGridError("empty")
    in_place = np.empty(n)
    in_place[order] = best
    return in_place, best_cost, feasible


def _boxes(bounds, total, family="quadratic"):
    """A path of agents with the given boxes; "mixed" alternates exponential
    (even positions) and quadratic agents."""
    n = len(bounds)
    agents = []
    for i, (l, u) in enumerate(bounds):
        if family == "quadratic" or (family == "mixed" and i % 2):
            agents.append(quadratic(a=0.02 * (i + 1), b=1.0, lower=l, upper=u))
        else:
            agents.append(exponential(a=300.0 * (i + 1), lower=l, upper=u))
    edges = [(i, i + 1) for i in range(n - 1)]
    return AllocationProblem(graph=from_edge_list(n, edges), agents=tuple(agents), total=total)


def _grid_cases():
    cases = [
        # n = 2: one row, longer than a block
        (_boxes([(0.0, 100.0), (10.0, 90.0)], 120.0), 0.01),
        # n = 3: 101 rows of 101 cells cross the 8192-cell block once;
        # a 5001-cell last axis makes every block a single row
        (_boxes([(0.0, 100.0), (5.0, 105.0), (20.0, 90.0)], 150.0), 1.0),
        (_boxes([(0.0, 100.0), (0.0, 40.0), (0.0, 100.0)], 150.0, "exponential"), 0.33),
        (_boxes([(0.0, 1.0), (0.0, 100.0), (0.0, 100.0)], 120.0), 0.02),
        # identical agents: (3, 4, 3.5) and (4, 3, 3.5) tie, the earlier stays
        (AllocationProblem(
            graph=from_edge_list(3, [(0, 1), (1, 2)]),
            agents=tuple(quadratic(a=1.0, b=1.0, lower=0.0, upper=10.0) for _ in range(3)),
            total=10.5,
        ), 1.0),
        # n = 4
        (_boxes([(0.0, 10.0), (0.0, 50.0), (0.0, 100.0), (10.0, 80.0)], 100.0), 1.0),
        (_boxes([(100.0, 102.0), (50.0, 120.0), (0.0, 90.0), (30.0, 60.0)], 250.0,
                "exponential"), 0.7),
    ]
    # random boxes and totals, so the partial sums round
    rng = np.random.default_rng(31)
    for n, div in [(2, 9000.0), (3, 137.0), (3, 70.0), (4, 23.0), (4, 61.0)]:
        p = random_problem(rng, n=n)
        cases.append((p, float((p.upper_bounds - p.lower_bounds).max()) / div))
    # n = 4, after the random cases so the earlier cases keep their ids
    cases += [
        (_boxes([(0.0, 40.0), (5.0, 60.0), (0.0, 70.0), (10.0, 50.0)], 110.0, "mixed"), 0.9),
        # a zero-width box on a free axis: that axis has a single point
        (_boxes([(0.0, 50.0), (20.0, 20.0), (0.0, 60.0), (5.0, 40.0)], 80.0), 0.7),
        # identical agents at n = 4: (3, 3, 4, 3.5), (3, 4, 3, 3.5) and
        # (4, 3, 3, 3.5) tie exactly (every cost and sum is a dyadic
        # fraction), and the first in C order stays
        (AllocationProblem(
            graph=from_edge_list(4, [(0, 1), (1, 2), (2, 3)]),
            agents=tuple(quadratic(a=1.0, b=1.0, lower=0.0, upper=10.0) for _ in range(4)),
            total=13.5,
        ), 1.0),
        # the sum lands between the grid points of every axis but a box a
        # step wide, which is solved from the sum
        (_boxes([(0.0, 10.0), (9.9, 10.1)], 10.5), 1.0),
        (_boxes([(0.0, 2.0), (0.0, 2.0), (0.4, 0.6)], 2.2), 1.0),
        (_boxes([(0.0, 2.0), (0.0, 2.0), (0.0, 2.0), (0.4, 0.6)], 3.2), 1.0),
        (_boxes([(0.0, 10.0), (4.5, 4.6)], 10.0, "exponential"), 3.0),
    ]
    return cases


@pytest.mark.parametrize("p, resolution", _grid_cases())
def test_grid_matches_per_row_reference(p, resolution):
    best, best_cost, feasible = _grid_per_row(p, resolution)
    res = grid_min(p, resolution)
    assert res.best.tobytes() == best.tobytes()
    assert res.best_cost == best_cost and res.samples == feasible
    assert res.mode == "grid" and res.accepted == feasible <= res.drawn


@pytest.mark.parametrize("iid", ["tab1", "tab3", "mixed4"])
def test_grid_block_size_moves_no_bit(monkeypatch, iid):
    # the block size only cuts the same C-order scan into other pieces;
    # 64 cells cut tab1's and tab3's rows into column chunks
    if iid == "mixed4":
        p = _boxes([(0.0, 40.0), (5.0, 60.0), (0.0, 70.0), (10.0, 50.0)], 110.0, "mixed")
        resolution = 0.9
    else:
        p = get_instance(iid).problem
        resolution = _auto_resolution(p)
    seen = set()
    for cells in (64, 4096, _GRID_BLOCK_CELLS):
        monkeypatch.setattr("taskalloc.verify._GRID_BLOCK_CELLS", cells)
        res = grid_min(p, resolution)
        seen.add((res.best.tobytes(), res.best_cost, res.samples, res.drawn))
    assert len(seen) == 1

@st.composite
def _grid_problems(draw):
    """A path of 2-4 agents of either family, cost scales 1e-3...1e6, so the
    per-cell sums round differently in different orders; 3-60 grid steps
    across the widest box."""
    n = draw(st.integers(2, 4))
    agents = []
    for _ in range(n):
        lower, width = draw(st.floats(0.0, 50.0)), draw(st.floats(0.5, 100.0))
        scale = 10.0 ** draw(st.floats(-3.0, 6.0))
        if draw(st.booleans()):
            agents.append(exponential(a=scale, lower=lower, upper=lower + width))
        else:
            agents.append(quadratic(a=1e-2 * scale, b=scale, lower=lower, upper=lower + width))
    lo, up = sum(m.lower for m in agents), sum(m.upper for m in agents)
    p = AllocationProblem(
        graph=from_edge_list(n, [(i, i + 1) for i in range(n - 1)]),
        agents=tuple(agents),
        total=lo + draw(st.floats(0.05, 0.95)) * (up - lo),
    )
    divisions = draw(st.integers(3, 30 if n == 4 else 60))
    return p, float((p.upper_bounds - p.lower_bounds).max()) / divisions


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_grid_problems())
def test_grid_matches_per_row_reference_on_random_problems(case):
    p, resolution = case
    best, best_cost, feasible = _grid_per_row(p, resolution)
    res = grid_min(p, resolution)
    assert res.best.tobytes() == best.tobytes()
    assert res.best_cost == best_cost and res.samples == feasible


@st.composite
def _feasible_small_problems(draw):
    """A path of 1-4 agents of mixed families at box scales 1e-6...1e12:
    boxes a point (quadratic), 1e-9 wide, an ulp wide (exponential) or wide,
    totals at either bound sum or between. The numbers come from a
    generator seeded by the draw, so their mantissas are random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.integers(-6, 12))
    agents = []
    for _ in range(n):
        quad = draw(st.booleans())
        lower = draw(st.sampled_from([0.0, 1.0, 1000.0])) * scale * rng.uniform()
        widths = [1e-9, 1e-9 * scale, rng.uniform(0.01, 1.0) * scale,
                  rng.uniform(1.0, 100.0) * scale] + [0.0] * quad
        upper = lower + draw(st.sampled_from(widths))
        a = 10.0 ** rng.uniform(-3.0, 4.0)
        if quad:
            b = 10.0 ** rng.uniform(-3.0, 3.0)
            agents.append(quadratic(a=a, b=b, lower=lower, upper=upper))
        else:
            upper = max(upper, np.nextafter(lower, np.inf))
            agents.append(exponential(a=a, lower=lower, upper=upper))
    lo, up = sum(m.lower for m in agents), sum(m.upper for m in agents)
    total = draw(st.sampled_from([lo, up, min(lo + rng.uniform() * (up - lo), up)]))
    assume(total > 0)
    return AllocationProblem(
        graph=from_edge_list(n, [(i, i + 1) for i in range(n - 1)]), agents=agents, total=total
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_feasible_small_problems())
def test_automatic_grid_always_lands_cells(p):
    # the widest box is 300 automatic steps wide, so a box a step wide is
    # solved from the sum, and the other axes' sums leave it no gap
    res = grid_min(p, _auto_resolution(p))
    assert res.samples >= 1 and in_feasible_set(p, res.best)


def test_grid_memory_bounded_by_axes():
    # n = 2 at 1e-4 on a width of 100: one row of 10^6 + 1 cells, which
    # runs in column chunks; the axis and its cost table take 8 MB each
    p = _boxes([(0.0, 100.0), (0.0, 100.0)], 100.0)
    res, peak = traced_peak(grid_min, p, 1e-4)
    assert res.drawn == res.accepted == 1_000_001
    assert peak < 32 * 2**20


def test_grid_empty_matches_per_row_reference():
    # no box is a step wide, so each axis is its two bounds and the last
    # agent, solved from the sum, never lands inside [0.4, 0.6]
    cases = [
        (_boxes([(0.0, 0.9), (0.4, 0.6)], 1.0), 1.0),
        (_boxes([(0.0, 0.9), (0.0, 0.9), (0.4, 0.6)], 1.0), 1.0),
        (_boxes([(0.0, 0.9), (0.0, 0.9), (0.0, 0.9), (0.4, 0.6)], 2.0), 1.0),
    ]
    for p, resolution in cases:
        with pytest.raises(EmptyGridError):
            _grid_per_row(p, resolution)
        with pytest.raises(EmptyGridError):
            grid_min(p, resolution)


def test_grid_single_agent():
    agent = quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0)
    p = AllocationProblem(graph=from_edge_list(1, []), agents=(agent,), total=60.0)
    res = grid_min(p, 0.5)
    np.testing.assert_array_equal(res.best, [60.0])
    assert res.samples == res.drawn == res.accepted == 1
    assert res.best_cost.hex() == float(agent.cost(60.0)).hex()


def test_grid_matches_solver(tab3):
    p = tab3.problem
    res = solve_lambda(p)
    oracle = grid_min(p, 0.5)
    assert np.abs(oracle.best - res.allocation).max() <= 1.0
    assert oracle.best_cost >= total_cost(p, res.allocation)


def test_grid_requires_small_instances(fig2):
    with pytest.raises(DimensionTooLargeError):
        grid_min(fig2.problem, 1.0)


def test_grid_empty_when_resolution_skips_feasible_window():
    agents = (
        quadratic(a=0.01, b=1.0, lower=0.0, upper=0.9),
        quadratic(a=0.01, b=1.0, lower=9.9, upper=10.1),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=10.5)
    # feasible w_1 lies in [0.4, 0.6]; on the unit grid neither box is a
    # step wide, so w_1 takes only its bounds 0 and 0.9
    with pytest.raises(EmptyGridError):
        grid_min(p, 1.0)
    fine = grid_min(p, 0.1)
    assert in_feasible_set(p, fine.best)


def test_grid_includes_box_corners():
    # upper bounds are reachable even when the width is not a multiple of the step
    agents = (
        quadratic(a=0.01, b=10.0, lower=0.0, upper=7.3),
        quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=50.0)
    res = grid_min(p, 0.5)
    # agent 1 is expensive, so the optimum parks it at its lower bound
    assert res.best[0] == pytest.approx(0.0, abs=1e-12)
    solver = solve_lambda(p)
    assert res.best_cost >= total_cost(p, solver.allocation)


def test_grid_dominated_by_solver_random():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_problem(rng, n=int(rng.integers(2, 4)))
        solver_cost = total_cost(p, solve_lambda(p).allocation)
        oracle = grid_min(p, 0.5)
        assert solver_cost <= oracle.best_cost + 1e-9 * max(1.0, abs(oracle.best_cost))
