"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (run pytest with -s to see them); a failed
assertion marks the criterion FAIL via the usual pytest report.
"""

import time

import numpy as np
import pytest
from conftest import one_step, random_problem, spread

from taskalloc.costs import exponential, quadratic
from taskalloc.drd import DrdConfig, simulate
from taskalloc.graph import from_edge_list
from taskalloc.lambda_solver import breakpoints, solve_lambda
from taskalloc.problem import AllocationProblem, marginals, total_cost
from taskalloc.verify import grid_min, kkt_check, monte_carlo_min

TAB1_KEYS_BY_AGENT = [1.897, 2.897, 2.682, 3.682, 2.873, 3.873]  # lo/up per agent
TAB1_MASSES = [960.0, 1077.732, 1131.202, 1141.043, 1345.153, 1370.0]
TAB1_SLOPES = [6.6677e-3, 3.5721e-3, 2.4388e-3, 3.8460e-3, 7.6870e-3]
TAB3_KEYS_BY_AGENT = [5.0, 5.9, 5.4, 6.44, 5.6, 6.9]
TAB3_MASSES = [960.0, 1026.667, 1085.0, 1202.5, 1324.0, 1370.0]
TAB3_SLOPES = [6.0e-3, 3.4286e-3, 2.5532e-3, 4.4444e-3, 10.0e-3]


def _report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


def test_criterion_1_exponential_breakpoint_table(tab1):
    t0 = time.perf_counter()
    p = tab1.problem
    exact = breakpoints(p)
    flat_exact = []
    for i, agent in enumerate(p.agents):
        flat_exact += [agent.key_at_lower(), agent.key_at_upper()]
    np.testing.assert_allclose(flat_exact, TAB1_KEYS_BY_AGENT, atol=1e-3)
    assert np.all(np.diff(exact.masses) >= 0)

    tbl = breakpoints(p, key_decimals=tab1.table_decimals)
    np.testing.assert_allclose(tbl.masses, TAB1_MASSES, atol=0.01)
    np.testing.assert_allclose(tbl.slopes, TAB1_SLOPES, atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        "criterion-1 exponential breakpoint table",
        f"6 keys @1e-3, 6 masses @0.01, 5 slopes @1e-6 in {elapsed:.3f}s",
    )


def test_criterion_2_exponential_allocation(tab1):
    t0 = time.perf_counter()
    res = solve_lambda(tab1.problem)
    np.testing.assert_allclose(res.allocation, [350.0, 382.4, 417.6], atol=0.1)
    assert abs(res.allocation.sum() - 1150.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        "criterion-2 exponential allocation",
        f"(350, 382.4, 417.6) @0.1, sum @1e-6 in {elapsed:.3f}s",
    )


def test_criterion_3_quadratic_table_and_allocation(tab3):
    t0 = time.perf_counter()
    p = tab3.problem
    flat = []
    for agent in p.agents:
        flat += [agent.key_at_lower(), agent.key_at_upper()]
    np.testing.assert_allclose(flat, TAB3_KEYS_BY_AGENT, atol=0.01)

    tbl = breakpoints(p, key_decimals=tab3.table_decimals)
    np.testing.assert_allclose(tbl.masses, TAB3_MASSES, atol=0.01)
    np.testing.assert_allclose(tbl.slopes, TAB3_SLOPES, atol=1e-6)

    res = solve_lambda(p)
    np.testing.assert_allclose(res.allocation, [327.7, 395.7, 426.6], atol=0.1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(
        "criterion-3 quadratic table and allocation",
        f"keys @0.01, masses @0.01, slopes @1e-6, allocation @0.1 in {elapsed:.3f}s",
    )


def test_criterion_4_drd_convergence_exponential(fig2, fig2_run):
    p, traj, elapsed = fig2_run
    uppers = np.array([a.upper for a in p.agents])
    closed_form = uppers * p.total / uppers.sum()  # equal-fitness limit
    assert traj.converged
    assert spread(p, traj.final) < 1e-6
    np.testing.assert_allclose(traj.final, closed_form, atol=0.5)
    assert np.all(traj.costs[1:] <= traj.costs[:-1] + 1e-9 * np.abs(traj.costs[:-1]))
    drift = float(np.abs(traj.states.sum(axis=1) - p.total).max())
    assert drift < 1e-6 * p.total
    assert elapsed < 60.0
    _report(
        "criterion-4 replicator convergence (exponential six agents)",
        f"residual<1e-6, limit @0.5, cost monotone, drift {drift:.2e} "
        f"in {elapsed:.1f}s ({traj.steps} steps)",
    )


def test_criterion_5_drd_convergence_quadratic(fig3, fig3_run):
    p, traj, elapsed = fig3_run
    lo = np.array([a.lower for a in p.agents])
    a = np.array([m.a for m in p.agents])
    b = np.array([m.b for m in p.agents])
    lam = (p.total - lo.sum() + (b / a).sum()) / (1.0 / a).sum()
    closed_form = lo + (lam - b) / a
    # cross-check the derivation against the known level and coordinates
    assert lam == pytest.approx(1.678, abs=1e-3)
    assert closed_form[0] == pytest.approx(913.0, abs=0.1)
    assert closed_form[5] == pytest.approx(786.8, abs=0.1)

    assert traj.converged
    np.testing.assert_allclose(traj.final, closed_form, atol=0.5)
    assert np.all(traj.costs[1:] <= traj.costs[:-1] + 1e-9 * np.abs(traj.costs[:-1]))
    drift = float(np.abs(traj.states.sum(axis=1) - p.total).max())
    assert drift < 1e-6 * p.total
    assert elapsed < 60.0
    _report(
        "criterion-5 replicator convergence (quadratic six agents)",
        f"level {lam:.4f}, limit @0.5, cost monotone, drift {drift:.2e} "
        f"in {elapsed:.1f}s ({traj.steps} steps)",
    )


def test_criterion_6_oracle_agreement(tab1, tab3):
    t0 = time.perf_counter()
    details = []
    for inst in (tab1, tab3):
        p = inst.problem
        res = solve_lambda(p)
        solver_cost = total_cost(p, res.allocation)
        mc = monte_carlo_min(p, 1_000_000, seed=0)
        assert mc.best_cost >= solver_cost
        assert mc.best_cost <= solver_cost * 1.005
        gr = grid_min(p, 0.1)
        assert np.abs(gr.best - res.allocation).max() <= 0.2
        assert gr.best_cost >= solver_cost
        details.append(
            f"{inst.instance_id}: mc gap {(mc.best_cost / solver_cost - 1):.2e}, "
            f"grid offset {np.abs(gr.best - res.allocation).max():.3f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        "criterion-6 oracle agreement",
        "; ".join(details) + f" in {elapsed:.1f}s",
    )


def test_criterion_7_kkt_certificates(tab1, tab3):
    t0 = time.perf_counter()
    instances = [tab1.problem, tab3.problem]
    rng = np.random.default_rng(2024)
    families = ["exponential", "quadratic", "mixed"]
    while len(instances) < 102:
        n = int(rng.integers(2, 5))
        instances.append(random_problem(rng, n=n, family=families[len(instances) % 3]))
    for p in instances:
        res = solve_lambda(p)
        cert = kkt_check(p, res.allocation)
        assert cert.passed
        assert cert.stationarity_residual <= 1e-6
        assert all(v >= -1e-6 for v in cert.alphas.values())
        assert all(v >= -1e-6 for v in cert.betas.values())
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-7 kkt certificates",
        f"{len(instances)} instances (2 bundled + 100 random) in {elapsed:.1f}s",
    )


def test_criterion_8_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)

    # strict convexity along feasible segments
    for _ in range(20):
        p = random_problem(rng)
        lo, up = p.lower_bounds, p.upper_bounds

        def point(t):
            base = lo + t * (up - lo)
            gap = p.total - base.sum()
            head = (up - base) if gap > 0 else (base - lo)
            return base + gap * head / head.sum()

        w1, w2 = point(0.15), point(0.85)
        if np.allclose(w1, w2):
            continue
        mid = 0.5 * (w1 + w2)
        assert total_cost(p, mid) < 0.5 * (total_cost(p, w1) + total_cost(p, w2))

    # finite differences agree with the marginal formulas
    models = [
        exponential(a=1000.0, lower=200.0, upper=350.0),
        exponential(a=2300.0, lower=410.0, upper=540.0),
        quadratic(a=0.006, b=5.0, lower=200.0, upper=350.0),
        quadratic(a=0.0132, b=0.828, lower=40.0, upper=150.0),
    ]
    for m in models:
        h = 1e-4 * (m.upper - m.lower)
        for w in np.linspace(m.lower, m.upper, 11):
            fd = (m.cost(w + h) - m.cost(w - h)) / (2.0 * h)
            assert abs(fd - m.marginal(w)) <= 1e-6 * abs(m.marginal(w))

    # inverse marginal round trip
    for m in models:
        for lam in rng.uniform(m.marginal(m.lower), m.marginal(m.upper), size=50):
            assert m.marginal(m.inverse_marginal(lam)) == pytest.approx(lam, rel=1e-9)

    # replicator faces are invariant and equal fitness is a fixed point
    agent = quadratic(a=0.01, b=1.0, lower=0.0, upper=300.0)
    p2 = AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2)]),
        agents=(agent, agent, agent),
        total=200.0,
    )
    w = np.array([0.0, 150.0, 50.0])
    for _ in range(200):
        w = one_step(p2, w, 1e-3)
        assert w[0] == 0.0
    even = np.full(3, 200.0 / 3.0)
    assert np.abs(one_step(p2, even, 1e-3) - even).max() < 1e-12

    # solver dominates the grid oracle on random small instances
    for _ in range(50):
        p = random_problem(rng, n=int(rng.integers(2, 4)))
        solver_cost = total_cost(p, solve_lambda(p).allocation)
        oracle = grid_min(p, 0.5)
        assert solver_cost <= oracle.best_cost + 1e-9 * max(1.0, abs(oracle.best_cost))

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        "criterion-8 property suite",
        f"convexity, finite differences, inverses, replicator faces/fixed point, "
        f"50 grid dominances in {elapsed:.1f}s",
    )
