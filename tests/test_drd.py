import itertools
import json

import numpy as np
import pytest
from conftest import (
    adjacent,
    document,
    interior_problem,
    one_step,
    spread,
    step_drift,
    step_marginals,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.costs import EXPONENTIAL, QUADRATIC, exponential, quadratic
from taskalloc.drd import (
    MASS_FLOOR_REL,
    RECORD_EVERY,
    DrdConfig,
    default_start,
    simulate,
    write_trace_csv,
)
from taskalloc.errors import StepOverflowError
from taskalloc.graph import edge_list, from_edge_list
from taskalloc.lambda_solver import select_final, solve_lambda
from taskalloc.problem import (
    AllocationProblem,
    default_tol,
    in_simplex,
    marginals,
    parse_problem,
    total_cost,
)


def _two_identical_agents(total=100.0):
    agent = quadratic(a=0.01, b=1.0, lower=0.0, upper=100.0)
    return AllocationProblem(
        graph=from_edge_list(2, [(0, 1)]), agents=(agent, agent), total=total
    )


def _spread_instance(f0, f1, total=200.0):
    """Two agents whose fitness at load total/2 are exactly f0 and f1."""
    half = total / 2.0
    agents = tuple(
        quadratic(a=0.01, b=-f - 0.01 * half, lower=0.0, upper=2 * total)
        for f in (f0, f1)
    )
    return AllocationProblem(
        graph=from_edge_list(2, [(0, 1)]), agents=agents, total=total
    )


# The local mean fitness sum_{j in N_i} f_j w_j / w is the second term of
# agent i's drift, (w_i / w) (f_i sum_{j in N_i} w_j - sum_{j in N_i} f_j w_j).


def test_local_mean_fitness_symmetric_pair():
    p = _two_identical_agents()
    w = np.array([30.0, 70.0])
    f = -marginals(p, w)
    # the neighbor sums exclude the agent itself (no self-loop)
    expected = (w / p.total) * (f * w[::-1] - (f * w)[::-1])
    np.testing.assert_allclose(step_drift(p, w), expected, rtol=1e-12)
    np.testing.assert_array_equal(step_drift(p, np.array([50.0, 50.0])), [0.0, 0.0])


def test_local_mean_fitness_single_neighbor():
    agents = tuple(
        quadratic(a=0.01, b=1.0 + 0.1 * i, lower=0.0, upper=200.0) for i in range(3)
    )
    p = AllocationProblem(
        graph=from_edge_list(3, [(0, 1), (1, 2)]), agents=agents, total=150.0
    )
    w = np.array([30.0, 70.0, 50.0])
    f = -marginals(p, w)
    # agent 0's only neighbor is agent 1
    expected = w[0] + 0.5 * (w[0] / p.total) * (f[0] * 70.0 - f[1] * 70.0)
    assert one_step(p, w, 0.5)[0] == pytest.approx(expected, rel=1e-12)


def test_local_mean_fitness_at_equal_fitness(fig2):
    # with one shared fitness value -lam the local mean fitness is
    # -lam * (neighbor mass) / w and cancels the first drift term
    p = fig2.problem
    wstar = np.asarray(fig2.reference["allocation"])
    lam = marginals(p, wstar).mean()
    drift = step_drift(p, wstar)
    for i in range(p.n):
        nbr_mass = float(sum(wstar[j] for j in adjacent(p.graph, i)))
        assert abs(drift[i]) <= 1e-9 * lam * nbr_mass * wstar[i] / p.total


def test_step_fixed_point_at_equal_fitness(fig2):
    p = fig2.problem
    wstar = np.asarray(fig2.reference["allocation"])
    nxt = one_step(p, wstar, 1e-4)
    assert np.abs(nxt - wstar).max() < 1e-10


def test_step_matches_dense_formula():
    # the file's edges repeat some pairs reversed; A is built here
    from conftest import random_problem

    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        doc = document(random_problem(rng, n=n, family="mixed"))
        edges = doc["graph"]["edges"]
        edges += [[j, i] for i, j in edges[::2]]
        p = parse_problem(json.dumps(doc))
        adj = np.zeros((n, n))
        for i, j in edge_list(p.graph):
            adj[i, j] = adj[j, i] = 1.0
        w = p.total * rng.dirichlet(np.ones(n))
        f = -marginals(p, w)
        drift = (w / p.total) * (f * (adj @ w) - adj @ (f * w))
        # a step that moves some load by 1%, so the drift shows in the result
        dt = 0.01 / np.max(np.abs(drift) / w)
        np.testing.assert_allclose(one_step(p, w, dt), w + dt * drift, rtol=1e-13, atol=0)


def test_step_keeps_zero_mass_at_zero():
    p = _two_identical_agents()
    w = np.array([0.0, 100.0])
    for _ in range(50):
        w = one_step(p, w, 1e-3)
        assert w[0] == 0.0


def test_step_conserves_total():
    p = _spread_instance(-5.0, -6.0)
    w = np.array([120.0, 80.0])
    for _ in range(10_000):
        prev = w.sum()
        w = one_step(p, w, 1e-3)
        assert abs(w.sum() - prev) <= 1e-9 * p.total  # edge terms cancel pairwise
    assert abs(w.sum() - p.total) < 1e-8 * p.total


def test_step_overflow_raises(fig2):
    p = fig2.problem
    with pytest.raises(StepOverflowError) as exc:
        simulate(p, default_start(p), DrdConfig(step=10.0, max_steps=50))
    assert 0 <= exc.value.step_index < 50 and exc.value.agents


def test_simulate_overflow_reports_step(fig2):
    p = fig2.problem
    with pytest.raises(StepOverflowError) as exc:
        simulate(p, default_start(p), DrdConfig(step=10.0, max_steps=1000))
    assert exc.value.step_index is not None


def test_huge_step_raises_overflow_without_warning(fig3):
    # the suite turns RuntimeWarning into an error, so a numpy overflow
    # warning would fail this before StepOverflowError
    p = fig3.problem
    with pytest.raises(StepOverflowError) as exc:
        simulate(p, default_start(p), DrdConfig(step=1e308))
    assert exc.value.step_index == 0


def _plain_loop(p, w0, cfg):
    """simulate as a plain loop, one state at a time: the state's residual,
    then one replicator step. Returns the trajectory fields simulate
    reports, or (agents, step) of a StepOverflowError."""
    w = np.asarray(w0, dtype=float)
    out = {"times": [], "states": [], "residuals": [], "box_exit_step": None}
    for step in itertools.count():
        f = -step_marginals(p, w)
        mass = w > MASS_FLOOR_REL * p.total
        r = max(0.0, float(f.max()) - float(f[mass].min())) if mass.any() else 0.0
        done = r <= cfg.residual_tol or step == cfg.max_steps
        if done or step % RECORD_EVERY == 0:
            out["times"].append(step)
            out["states"].append(w)
            out["residuals"].append(r)
            tol = default_tol(p)
            outside = np.any(w < p.lower_bounds - tol) or np.any(w > p.upper_bounds + tol)
            if out["box_exit_step"] is None and outside:
                out["box_exit_step"] = step
        if done:
            converged = r <= cfg.residual_tol
            stop = "residual" if converged else "max-steps"
            return dict(out, final=w, steps=step, converged=converged, stop=stop)
        try:
            w = one_step(p, w, cfg.step, step)
        except StepOverflowError as exc:
            return exc.agents, exc.step_index


def _assert_matches_plain_loop(p, w0, cfg):
    expected = _plain_loop(p, w0, cfg)
    traj = simulate(p, w0, cfg)
    got = {name: getattr(traj, name) for name in expected}
    for name in ("times", "states", "residuals", "final"):
        want = np.asarray(expected[name])
        assert got[name].shape == want.shape, name
        assert got[name].tobytes() == want.tobytes(), name  # bit for bit
    for name in ("steps", "converged", "stop", "box_exit_step"):
        assert got[name] == expected[name], name
    return traj


def _leaves_box():
    """Two agents whose equilibrium (80, 20) puts agent 0 above its upper 60."""
    agents = (
        quadratic(a=0.05, b=1.0, lower=0.0, upper=60.0),
        quadratic(a=0.05, b=4.0, lower=0.0, upper=60.0),
    )
    return AllocationProblem(graph=from_edge_list(2, [(0, 1)]), agents=agents, total=100.0)


@pytest.mark.parametrize("max_steps", [1, 63, 64, 65, 99, 100, 101, 1000])
def test_simulate_matches_plain_loop_at_step_caps(fig2, max_steps):
    p = fig2.problem
    traj = _assert_matches_plain_loop(
        p, default_start(p), DrdConfig(step=fig2.drd_step, max_steps=max_steps)
    )
    assert traj.steps == max_steps and traj.stop == "max-steps"


def test_simulate_matches_plain_loop_to_tolerance(fig3):
    p = fig3.problem
    ref = np.asarray(fig3.reference["allocation"])
    traj = _assert_matches_plain_loop(p, ref, DrdConfig(step=1e-3))
    assert traj.steps == 0 and traj.stop == "residual"
    traj = _assert_matches_plain_loop(p, default_start(p), DrdConfig(step=32 * fig3.drd_step))
    assert traj.converged and traj.steps > 1000
    assert traj.box_exit_step == 0  # the default start lies outside the box


def test_simulate_reports_box_exit():
    p = _leaves_box()
    traj = _assert_matches_plain_loop(p, np.array([50.0, 50.0]), DrdConfig(step=0.01))
    assert traj.converged and traj.final[0] > 79.0
    assert traj.box_exit_step is not None and traj.box_exit_step > 0


def test_simulate_stops_at_converged_state_before_overflow(fig3):
    # at this step the residuals run 4.01, 3.58, 8.02, 5.35, 1.44, ... and
    # step 6 overflows; state 4 meets the tolerance first, so the run ends
    # there, inside the block that overflows
    p = fig3.problem
    cfg = DrdConfig(step=0.8895, residual_tol=1.5)
    assert _plain_loop(p, default_start(p), DrdConfig(step=0.8895, max_steps=100))[1] == 6
    traj = _assert_matches_plain_loop(p, default_start(p), cfg)
    assert traj.converged and traj.steps == 4


@pytest.mark.parametrize("dt, step", [(0.83149, 63), (0.83257, 64)])
def test_simulate_overflow_on_block_boundary(fig3, dt, step):
    # the last step of the first 64-state block, and the first of the next
    p = fig3.problem
    agents, at = _plain_loop(p, default_start(p), DrdConfig(step=dt, max_steps=1000))
    assert at == step
    with pytest.raises(StepOverflowError) as exc:
        simulate(p, default_start(p), DrdConfig(step=dt, max_steps=1000))
    assert exc.value.step_index == step and exc.value.agents == agents


def _shaped_graph(shape, n, rng):
    ring = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    if shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, n)]
    elif shape == "ring":
        edges = ring
    else:  # a ring plus up to n/3 random chords
        pairs = rng.integers(0, n, size=(n // 3, 2))
        edges = ring + [(int(i), int(j)) for i, j in pairs if i != j]
    return from_edge_list(n, sorted({(min(e), max(e)) for e in edges}))


def _agents(exp_agent, a, b, lower, upper):
    return tuple(
        exponential(a=ai, lower=lo, upper=up) if e else quadratic(a=ai, b=bi, lower=lo, upper=up)
        for e, ai, bi, lo, up in zip(exp_agent, a, b, lower, upper)
    )


@st.composite
def _replicator_runs(draw):
    """A problem, start and config; the step size is log-uniform over nine
    decades. Half the runs start from default_start. The others start a
    relative rel away from a point x of equal fitness, with the costs
    scaled so that the step is 2 to 10 times the largest stable step at x:
    the oscillation grows from rel and overflows after some steps, the later
    the smaller rel is. So runs converge, hit the cap or overflow at any
    step of a block."""
    n = draw(st.integers(2, 40))
    shape = draw(st.sampled_from(["path", "ring", "star", "chorded"]))
    family = draw(st.sampled_from(["exponential", "quadratic", "mixed"]))
    near = draw(st.booleans())
    rel = 10.0 ** draw(st.floats(-15.0, -4.0))
    over = 10.0 ** draw(st.floats(0.3, 1.0))
    dt = 10.0 ** draw(st.floats(-3.0, 6.0))
    max_steps = draw(st.integers(1, 300))
    tol = 10.0 ** draw(st.floats(-12.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = _shaped_graph(shape, n, rng)
    exp_agent = rng.random(n) < 0.5 if family == "mixed" else np.full(n, family == "exponential")
    lower = rng.uniform(0.0, 50.0, n)
    upper = lower + rng.uniform(1.0, 100.0, n)
    a = np.where(exp_agent, rng.uniform(1.0, 2000.0, n), rng.uniform(1e-3, 0.1, n))
    b = rng.uniform(0.1, 10.0, n)
    x = lower + rng.uniform(0.05, 0.95, n) * (upper - lower)
    agents = _agents(exp_agent, a, b, lower, upper)
    if near:
        # equal marginals at x: exponential a scaled up, quadratic b raised
        marg = np.array([m.marginal(xi) for m, xi in zip(agents, x)])
        a = np.where(exp_agent, a * marg.max() / marg, a)
        b = np.where(exp_agent, b, b + marg.max() - marg)
        # the step's Jacobian at x is I - dt * J, J = diag(x) M diag(c'') / w
        # with M = diag(A x) - A diag(x); it is unstable once dt * rho(J) > 2
        curv = np.where(exp_agent, marg.max() / (upper - lower), a)
        adj = np.zeros((n, n))
        adj[tuple(graph.adjacency.T)] = 1.0
        jac = x[:, None] * (np.diag(adj @ x) - adj * x) * curv / x.sum()
        scale = 2.0 * over / (dt * np.linalg.eigvals(jac).real.max())
        agents = _agents(exp_agent, a * scale, b * scale, lower, upper)
    p = AllocationProblem(graph=graph, agents=agents, total=float(x.sum()))
    if near:
        w0 = x * (1.0 + rel * rng.uniform(-1.0, 1.0, n))
        w0 *= p.total / w0.sum()
        # below the start's residual, so that the run goes on and oscillates
        tol = min(tol, 1e-3 * spread(p, w0)) or tol
    else:
        w0 = default_start(p)
    return p, w0, DrdConfig(step=dt, max_steps=max_steps, residual_tol=tol)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_replicator_runs())
def test_simulate_matches_plain_loop_on_random_runs(run):
    p, w0, cfg = run
    expected = _plain_loop(p, w0, cfg)
    if isinstance(expected, tuple):  # the plain loop overflowed at that step
        agents, at = expected
        with pytest.raises(StepOverflowError) as exc:
            simulate(p, w0, cfg)
        assert (exc.value.agents, exc.value.step_index) == (agents, at)
    else:
        _assert_matches_plain_loop(p, w0, cfg)


def test_simulate_counts_block_reductions(fig2):
    # 1001 states in blocks of 64: fifteen full blocks and one of 41
    p = fig2.problem
    traj = simulate(p, default_start(p), DrdConfig(step=fig2.drd_step, max_steps=1000))
    assert traj.residual_evals == 16


@pytest.mark.parametrize("box_exit", [False, True])
def test_trajectory_field_types(fig2, box_exit):
    # the loop holds dt and the total as 0-d arrays; none of them leaks out
    if box_exit:
        p, w0, cfg, ref = _leaves_box(), np.array([50.0, 50.0]), DrdConfig(step=0.01), None
    else:
        p = fig2.problem
        w0, cfg = default_start(p), DrdConfig(step=fig2.drd_step, max_steps=150)
        ref = np.asarray(fig2.reference["allocation"])
    traj = simulate(p, w0, cfg, reference=ref)
    arrays = {"times": np.int64, "states": np.float64, "costs": np.float64,
              "residuals": np.float64, "lyapunov": np.float64, "final": np.float64}
    for name, dtype in arrays.items():
        value = getattr(traj, name)
        assert type(value) is np.ndarray and value.dtype == dtype, name
    assert traj.states.ndim == 2 and traj.final.shape == (p.n,)
    # without a reference, V is C less the least recorded cost
    least = traj.costs.min() if ref is None else total_cost(p, ref)
    assert np.array_equal(traj.lyapunov, traj.costs - least)
    assert type(traj.converged) is bool and type(traj.stop) is str
    assert type(traj.dt) is float and traj.dt == cfg.step
    for name in ("steps", "residual_evals"):
        assert type(getattr(traj, name)) is int, name
    assert type(traj.box_exit_step) is (int if box_exit else type(None))
    # an int step is stored as a float
    traj = simulate(fig2.problem, default_start(fig2.problem), DrdConfig(step=1, max_steps=3))
    assert type(traj.dt) is float and traj.dt == 1.0


def test_nash_residual_values():
    p = _spread_instance(-5.0, -6.0)
    w = np.array([100.0, 100.0])
    f = -marginals(p, w)
    np.testing.assert_allclose(f, [-5.0, -6.0], atol=1e-12)
    assert spread(p, w) == pytest.approx(1.0, abs=1e-12)


def test_nash_residual_zero_at_equal_fitness(fig2):
    wstar = np.asarray(fig2.reference["allocation"])
    assert spread(fig2.problem, wstar) < 1e-12


def test_nash_residual_sees_idle_agent_advantage():
    # an empty agent whose fitness beats the loaded one keeps the residual positive
    p = _spread_instance(-2.0, -6.0)
    w = np.array([0.0, 200.0])
    f = -marginals(p, w)
    assert f[0] > f[1]
    assert spread(p, w) > 0


def test_lyapunov_zero_at_reference(fig3):
    ref = np.asarray(fig3.reference["allocation"])
    traj = simulate(fig3.problem, ref, DrdConfig(step=1e-6, max_steps=1), reference=ref)
    assert traj.lyapunov[0] == 0.0
    assert traj.lyapunov[-1] == total_cost(fig3.problem, traj.final) - total_cost(fig3.problem, ref)


def test_default_start_is_interior():
    rng = np.random.default_rng(3)
    from conftest import random_problem

    for _ in range(10):
        p = random_problem(rng)
        w0 = default_start(p)
        assert np.all(w0 > 0)
        assert w0.sum() == pytest.approx(p.total, rel=1e-12)
        assert in_simplex(p, w0)


def test_default_start_differs_from_fixed_point(fig2):
    w0 = default_start(fig2.problem)
    assert np.abs(w0 - np.asarray(fig2.reference["allocation"])).max() > 1.0


def test_simulate_from_equilibrium_stops_immediately(fig3):
    p = fig3.problem
    ref = np.asarray(fig3.reference["allocation"])
    traj = simulate(p, ref, DrdConfig(step=1e-3))
    assert traj.converged
    assert traj.steps == 0
    assert traj.residuals[-1] <= 1e-6
    np.testing.assert_array_equal(traj.times, [0])


def test_simulate_rejects_off_simplex_start(fig3):
    p = fig3.problem
    with pytest.raises(ValueError):
        simulate(p, np.full(6, 100.0), DrdConfig(step=1e-3))


def test_simulate_quadratic_converges_to_equal_marginals(fig3_run):
    p, traj, _ = fig3_run
    assert traj.converged
    marg = marginals(p, traj.final)
    assert marg.max() - marg.min() <= 1e-6 + 1e-12
    # level and loads match the closed-form equal-marginal solution
    from taskalloc import get_instance

    inst = get_instance("fig3")
    assert np.abs(traj.final - np.asarray(inst.reference["allocation"])).max() < 0.5
    assert marg.mean() == pytest.approx(inst.reference["level"], abs=1e-3)


def test_simulate_exponential_uniform_start_reaches_proportional_limit(fig2):
    # equal fitness forces loads proportional to the upper bounds
    p = fig2.problem
    w0 = np.full(6, p.total / 6.0)
    traj = simulate(p, w0, DrdConfig(step=1e-4, residual_tol=1e-4))
    assert traj.converged
    expected = np.asarray(fig2.reference["allocation"])
    assert np.abs(traj.final - expected).max() < 0.5


def test_simulate_records_aligned_monotone_trace(fig2_run):
    p, traj, _ = fig2_run
    assert traj.converged
    assert np.all(np.diff(traj.times) > 0)
    k = len(traj.times)
    assert traj.states.shape == (k, p.n)
    assert traj.costs.shape == (k,)
    assert traj.residuals.shape == (k,)
    assert traj.lyapunov is not None
    # Lyapunov descent along the recorded samples
    assert np.all(traj.costs[1:] <= traj.costs[:-1] + 1e-9 * np.abs(traj.costs[:-1]))
    assert traj.lyapunov[0] > traj.lyapunov[-1]
    assert traj.lyapunov[-1] >= -1e-6
    # the limit satisfies the equilibrium membership test
    assert spread(p, traj.final) <= 1e-6
    # long-run conservation over the 1e6-step trace
    assert np.abs(traj.states.sum(axis=1) - p.total).max() <= 1e-7 * p.total


def test_simulate_limit_matches_all_interior_solver(fig3_run):
    # when the clamped optimum keeps every agent interior, the replicator
    # limit agrees with it; a residual of eps in fitness units maps to
    # eps / (marginal slope) in load units
    from taskalloc.lambda_solver import solve_lambda

    p, traj, _ = fig3_run
    res = solve_lambda(p)
    assert not res.status.any()
    slopes = np.array([agent["a"] for agent in document(p)["agents"]])  # quadratic marginal slope
    coord_tol = 10.0 * 1e-6 / slopes.min()
    assert np.abs(traj.final - res.allocation).max() <= coord_tol


def test_trace_csv_layout(tmp_path, fig3_run):
    p, traj, _ = fig3_run
    path = tmp_path / "trace.csv"
    write_trace_csv(traj, p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,w_1,w_2,w_3,w_4,w_5,w_6,C,V,residual"
    assert len(lines) == len(traj.times) + 1
    first = lines[1].split(",")
    assert int(first[0]) == traj.times[0]
    # 12+ significant digits survive a round trip
    assert float(first[8]) == pytest.approx(traj.costs[0], rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        DrdConfig(step=0.0)
    with pytest.raises(ValueError):
        DrdConfig(step=1e-3, max_steps=0)
    with pytest.raises(ValueError):
        DrdConfig(step=1e-3, residual_tol=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            DrdConfig(step=bad)
        with pytest.raises(ValueError):
            DrdConfig(step=1e-3, residual_tol=bad)
        with pytest.raises(ValueError):
            DrdConfig(step=1e-3, max_steps=bad)
    with pytest.raises(ValueError):
        DrdConfig(step=1e-3, max_steps=10.5)
    assert DrdConfig(step=1e-3, max_steps=1e3).max_steps == 1000
    huge = int("9" * 400)  # beyond float range: a cap, not an OverflowError
    assert DrdConfig(step=1e-3, max_steps=huge).max_steps == huge
    with pytest.raises(ValueError):  # but not a step
        DrdConfig(step=10**400)


def test_simulate_float_step_cap(fig3):
    # a whole float cap ends the run on that step, as an int cap does
    p = fig3.problem
    traj = simulate(p, default_start(p), DrdConfig(step=fig3.drd_step, max_steps=130.0))
    assert traj.steps == 130 and traj.stop == "max-steps"


# ---------------------------------------------------------------------------
# the paper's two theorems on instances whose optimum has a closed form


def _interior(seed, n, family):
    rng = np.random.default_rng(seed)
    return interior_problem(rng, n, family, max(1, n // 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 30), st.sampled_from([EXPONENTIAL, QUADRATIC]))
def test_theorem1_replicator_converges_to_the_optimum(seed, n, family):
    # Theorem 1: a Nash equilibrium (equal marginals) inside every box is the
    # optimum; the replicator converges to it and the solver finds it
    p, optimum = _interior(seed, n, family)
    cfg = DrdConfig(step=2.0 if family == EXPONENTIAL else 0.4, max_steps=20_000)
    traj = simulate(p, default_start(p), cfg)
    assert traj.converged
    assert np.abs(traj.final - solve_lambda(p).allocation).max() <= 0.5
    assert np.abs(traj.final - optimum).max() <= 0.5


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(6, 30))
def test_theorem2_box_exit_keeps_the_solver_point(seed, n):
    # Theorem 2: with agent 0's upper bound cut below its Nash load the
    # replicator leaves the box, and the final selection keeps the solver's
    # point with agent 0 at its upper bound. Quadratic costs only: an
    # exponential cost depends on its span, so a cut would move the Nash point.
    p, nash = _interior(seed, n, QUADRATIC)
    lower = p.lower_bounds[0]
    doc = document(p)
    doc["agents"][0]["upper"] = float(lower + 0.5 * (nash[0] - lower))
    p = parse_problem(json.dumps(doc))
    res = solve_lambda(p)
    traj = simulate(p, default_start(p), DrdConfig(step=0.4, max_steps=20_000))
    assert traj.box_exit_step is not None
    np.testing.assert_array_equal(select_final(p, res.allocation, traj.final), res.allocation)
    assert res.status[0] == 1
