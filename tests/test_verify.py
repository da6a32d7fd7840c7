import dataclasses

import numpy as np
import pytest
from conftest import random_problem

from taskalloc.costs import quadratic
from taskalloc.errors import (
    DimensionTooLargeError,
    EmptyGridError,
    NotFeasibleError,
    SamplerStarvedError,
)
from taskalloc.graph import from_edge_list
from taskalloc.instances import get_instance
from taskalloc.lambda_solver import solve_lambda
from taskalloc.problem import AllocationProblem, in_feasible_set, total_cost
from taskalloc.drd import nash_residual
from taskalloc.verify import grid_min, kkt_check, monte_carlo_min


def test_is_nash_at_equal_fitness(fig2):
    assert nash_residual(fig2.problem, np.asarray(fig2.reference["allocation"])) <= 1e-6


def test_is_nash_rejects_perturbation(fig2):
    w = np.asarray(fig2.reference["allocation"]).copy()
    w[0] += 10.0
    w[1] -= 10.0
    assert nash_residual(fig2.problem, w) > 1e-3


def test_is_nash_single_agent():
    agent = quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0)
    p = AllocationProblem(graph=from_edge_list(1, []), agents=(agent,), total=60.0)
    assert nash_residual(p, [60.0]) == 0.0


def test_kkt_interior_certificate(tab3):
    p = tab3.problem
    res = solve_lambda(p)
    cert = kkt_check(p, res.allocation)
    assert cert.passed
    assert cert.interior == [0, 1, 2]
    assert cert.lower_active == [] and cert.upper_active == []
    assert cert.lam == pytest.approx(5.766, abs=1e-3)
    assert cert.stationarity_residual <= 1e-6


def test_kkt_clamped_certificate(tab1):
    p = tab1.problem
    res = solve_lambda(p)
    cert = kkt_check(p, res.allocation)
    assert cert.passed
    assert cert.upper_active == [0]
    assert cert.alphas == {}
    assert cert.betas[0] >= 0.0
    # beta_1 = level - marginal at the clamped upper bound
    expected_beta = cert.lam - float(p.agents[0].marginal(350.0))
    assert cert.betas[0] == pytest.approx(expected_beta, rel=1e-9)


def test_kkt_all_bounds_active():
    agents = (
        quadratic(a=0.01, b=2.0, lower=10.0, upper=20.0),
        quadratic(a=0.01, b=1.0, lower=30.0, upper=40.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=40.0)
    cert = kkt_check(p, [10.0, 30.0])
    assert cert.passed
    assert cert.interior == []


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
    assert cert.interior == [2, 3] and cert.lam == 7.0
    assert cert.lower_active == [1] and cert.upper_active == [0]
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
    assert cert.lower_active == [0] and cert.alphas[0] < -1e-6 * max(1.0, cert.lam)
    assert cert.passed
    # the floor is one ulp's worth: a point off the optimum still fails
    assert not kkt_check(p, [1e5 + 0.01, 0.04]).passed


def test_kkt_not_feasible(tab3):
    with pytest.raises(NotFeasibleError):
        kkt_check(tab3.problem, [500.0, 400.0, 250.0])


def test_kkt_nash_equivalence_for_interior_points(fig3):
    # strictly inside every box, the two optimality views must agree
    p = fig3.problem
    wstar = np.asarray(fig3.reference["allocation"])
    cert = kkt_check(p, wstar, tol=1e-6)
    assert cert.passed and not cert.lower_active and not cert.upper_active
    assert nash_residual(p, wstar) <= 1e-6

    off = wstar + np.array([2.0, -2.0, 0.0, 0.0, 0.0, 0.0])
    assert in_feasible_set(p, off)
    assert not kkt_check(p, off, tol=1e-3).passed
    assert nash_residual(p, off) > 1e-3


@pytest.mark.parametrize("scale", [1.0, 1e9, 1e12])
@pytest.mark.parametrize("iid", ["tab1", "tab3", "fig2", "fig3"])
def test_kkt_tolerance_scales_with_level(iid, scale):
    # every a and b times scale: the optimum stays, the level scales
    base = get_instance(iid).problem
    agents = tuple(
        dataclasses.replace(m, a=m.a * scale, b=None if m.b is None else m.b * scale)
        for m in base.agents
    )
    p = AllocationProblem(graph=base.graph, agents=agents, total=base.total)
    res = solve_lambda(p)
    assert kkt_check(p, res.allocation).passed
    i, j = res.interior[:2]
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
        for i, alpha in cert.alphas.items():
            assert alpha == pytest.approx(
                float(p.agents[i].marginal(p.agents[i].lower)) - cert.lam, rel=1e-9, abs=1e-9
            )
        for j, beta in cert.betas.items():
            assert beta == pytest.approx(
                cert.lam - float(p.agents[j].marginal(p.agents[j].upper)), rel=1e-9, abs=1e-9
            )
        partition = sorted(cert.interior + cert.lower_active + cert.upper_active)
        assert partition == list(range(p.n))


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def test_monte_carlo_deterministic(tab1):
    a = monte_carlo_min(tab1.problem, 2000, seed=7)
    b = monte_carlo_min(tab1.problem, 2000, seed=7)
    assert a.best_cost == b.best_cost
    np.testing.assert_array_equal(a.best, b.best)
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


def test_monte_carlo_hit_and_run_path():
    # boxes so tight that rejection starves; the walker must take over
    agents = tuple(
        quadratic(a=0.01, b=1.0, lower=100.0, upper=101.0) for _ in range(3)
    )
    p = AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2)]), agents=agents, total=301.5
    )
    res = monte_carlo_min(p, 3000, seed=5)
    assert in_feasible_set(p, res.best)
    again = monte_carlo_min(p, 3000, seed=5)
    assert res.best_cost == again.best_cost
    solver_cost = total_cost(p, solve_lambda(p).allocation)
    assert res.best_cost >= solver_cost


def test_monte_carlo_starved_on_pointlike_set():
    # one pinned box plus the sum constraint leaves a single point:
    # zero-measure for rejection, no direction for the walker
    agents = (
        quadratic(a=0.01, b=1.0, lower=50.0, upper=50.0),
        quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=100.0)
    with pytest.raises(SamplerStarvedError):
        monte_carlo_min(p, 100, seed=0)


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


# ---------------------------------------------------------------------------
# grid oracle


def test_grid_single_agent():
    agent = quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0)
    p = AllocationProblem(graph=from_edge_list(1, []), agents=(agent,), total=60.0)
    res = grid_min(p, 0.5)
    np.testing.assert_array_equal(res.best, [60.0])
    assert res.samples == 1


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
        quadratic(a=0.01, b=1.0, lower=0.0, upper=10.0),
        quadratic(a=0.01, b=1.0, lower=9.9, upper=10.1),
    )
    p = AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=10.5)
    # feasible w_1 lies in [0.4, 0.6]; the unit grid has no point there
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
