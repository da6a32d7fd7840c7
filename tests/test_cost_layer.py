"""The cost layer against the README's closed forms, written out here.

Coefficients, box widths and loads are spread log-uniformly over
1e-3 ... 1e6, and families are mixed per agent, so every vectorized path
(single family, scattered mixed groups, (n,) and (m, n) inputs, the key
coordinate the cost table picks) is
compared with a plain scalar formula that shares no code with src/.
"""

import math

import numpy as np
import pytest

from taskalloc.cli import _paper_table
from taskalloc.costs import exponential, quadratic
from taskalloc.graph import from_edge_list
from taskalloc.lambda_solver import breakpoints
from taskalloc.problem import AllocationProblem, cost_values, marginals

REL = 1e-12


def _wide(rng, size=None):
    return 10.0 ** rng.uniform(-3.0, 6.0, size=size)


def _random_agents(rng, n, family, pinned_frac=0.0):
    agents = []
    for _ in range(n):
        fam = family if family != "mixed" else rng.choice(["exponential", "quadratic"])
        lower = float(_wide(rng))
        if fam == "exponential":
            agents.append(exponential(a=float(_wide(rng)), lower=lower, upper=lower + float(_wide(rng))))
        else:
            span = 0.0 if rng.random() < pinned_frac else float(_wide(rng))
            agents.append(
                quadratic(a=float(_wide(rng)), b=float(_wide(rng)), lower=lower, upper=lower + span)
            )
    return agents


def _problem(agents):
    n = len(agents)
    lo = sum(m.lower for m in agents)
    up = sum(m.upper for m in agents)
    total = lo + 0.5 * (up - lo) if up > lo else lo
    return AllocationProblem(
        graph=from_edge_list(n, [(i, i + 1) for i in range(n - 1)]),
        agents=tuple(agents),
        total=total,
    )


# --- closed forms (README), one agent at a time -----------------------------


def ref_cost(m, w):
    if m.family == "exponential":
        return m.a * math.exp((w - m.lower) / (m.upper - m.lower))
    return m.a / 2.0 * (w - m.lower) ** 2 + m.b * w


def ref_marginal(m, w):
    if m.family == "exponential":
        u = m.upper - m.lower
        return m.a / u * math.exp((w - m.lower) / u)
    return m.a * (w - m.lower) + m.b


def ref_curvature(m, w):
    if m.family == "exponential":
        u = m.upper - m.lower
        return m.a / u / u * math.exp((w - m.lower) / u)
    return m.a


def ref_inverse(m, lam):
    if m.family == "exponential":
        u = m.upper - m.lower
        return m.lower + u * (math.log(lam) - math.log(m.a / u))
    return m.lower + (lam - m.b) / m.a


def ref_key(m, lam):
    return math.log(lam) if m.family == "exponential" else lam


def ref_response(m, key):
    lam = math.exp(key) if m.family == "exponential" else key
    return ref_inverse(m, lam)


def _close(got, want, scale):
    assert abs(float(got) - want) <= REL * scale, (got, want)


def _loads(rng, agents, rows=None):
    lo = np.array([m.lower for m in agents])
    up = np.array([m.upper for m in agents])
    shape = (len(agents),) if rows is None else (rows, len(agents))
    return lo + rng.uniform(size=shape) * (up - lo)


@pytest.mark.parametrize("family", ["exponential", "quadratic", "mixed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_problem_costs_and_marginals_match_closed_forms(family, seed):
    rng = np.random.default_rng(seed)
    agents = _random_agents(rng, 40, family)
    p = _problem(agents)
    for w in (_loads(rng, agents), _loads(rng, agents, rows=5)):
        costs = cost_values(p, w)
        margs = marginals(p, w)
        curvs = p._costs.curvature(w)
        assert costs.shape == w.shape and margs.shape == w.shape and curvs.shape == w.shape
        rows = zip(*map(np.atleast_2d, (w, costs, margs, curvs)))
        for row_w, row_c, row_m, row_k in rows:
            for m, x, c, g, k in zip(agents, row_w, row_c, row_m, row_k):
                want_c = ref_cost(m, float(x))
                want_g = ref_marginal(m, float(x))
                want_k = ref_curvature(m, float(x))
                _close(c, want_c, abs(want_c))
                _close(g, want_g, abs(want_g))
                _close(k, want_k, abs(want_k))


@pytest.mark.parametrize("family", ["exponential", "quadratic", "mixed"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fitness_is_negated_marginal_bit_for_bit(family, seed):
    # each agent's CostModel.fitness negates its marginal on the scalar
    # path, so no bit may differ from the negated table marginals, not even
    # the sign of a zero
    rng = np.random.default_rng(seed)
    agents = _random_agents(rng, 40, family, pinned_frac=0.2)
    p = _problem(agents)
    table = p._costs
    lo, span = table.lower, table.upper - table.lower
    w = np.vstack([
        _loads(rng, agents, rows=5),
        lo,  # quadratic (-a) * 0.0 is -0.0 before b is added
        lo + 2.0 * span,
        lo - 800.0 * span,  # exponential exp((w - lower) / span) underflows to 0
    ])
    want = -table.marginal(w)
    assert np.any((want == 0.0) & np.signbit(want)) == (family != "quadratic")
    got = np.array([[m.fitness(x) for m, x in zip(agents, row)] for row in w.tolist()])
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("seed", [3, 4])
def test_cost_model_methods_match_closed_forms(seed):
    rng = np.random.default_rng(seed)
    for m in _random_agents(rng, 60, "mixed"):
        u = m.upper - m.lower
        w = m.lower + float(rng.uniform()) * u
        scale_w = m.lower + u
        _close(m.cost(w), ref_cost(m, w), ref_cost(m, w))
        _close(m.marginal(w), ref_marginal(m, w), ref_marginal(m, w))
        _close(m.fitness(w), -ref_marginal(m, w), ref_marginal(m, w))
        lam = ref_marginal(m, w)
        _close(m.inverse_marginal(lam), ref_inverse(m, lam), scale_w)
        key = ref_key(m, lam)
        _close(m.key_from_lambda(lam), key, abs(key))
        _close(m.lambda_from_key(key), lam, lam)
        _close(m.response_from_key(key), ref_response(m, key), scale_w)
        k_lo = ref_key(m, ref_marginal(m, m.lower))
        k_up = ref_key(m, ref_marginal(m, m.upper))
        _close(m.key_at_lower(), k_lo, abs(k_lo))
        _close(m.key_at_upper(), k_up, abs(k_up))


# --- breakpoint masses against a scalar loop over the documented clamp ------


def ref_masses(agents, keys, kmin, kmax):
    """For each key: sum over agents of lower if key <= kmin, else upper if
    key >= kmax, else the interior response."""
    out = []
    for key in keys:
        total = 0.0
        for m, lo_k, up_k in zip(agents, kmin, kmax):
            if key <= lo_k:
                total += m.lower
            elif key >= up_k:
                total += m.upper
            else:
                total += ref_response(m, key)
        out.append(total)
    return np.array(out)


_TABLES = [("exponential", 7, 0.0), ("quadratic", 9, 0.3), ("exponential", 400, 0.0), ("quadratic", 400, 0.2)]


# a table is built for a single cost family only; with decimals, it is the
# paper's table that reproduce builds at the thresholds rounded to them
@pytest.mark.parametrize(
    "family, n, pinned_frac, decimals", [(*t, d) for d in (None, 3) for t in _TABLES]
)
def test_breakpoint_masses_match_scalar_clamp(family, n, pinned_frac, decimals):
    rng = np.random.default_rng(n + (decimals or 0))
    agents = _random_agents(rng, n, family, pinned_frac)
    p = _problem(agents)

    kmin = [ref_key(m, ref_marginal(m, m.lower)) for m in agents]
    kmax = [ref_key(m, ref_marginal(m, m.upper)) for m in agents]
    scale = sum(m.upper for m in agents)
    if decimals is not None:
        kmin = [float(np.round(k, decimals)) for k in kmin]
        kmax = [float(np.round(k, decimals)) for k in kmax]
        got_kmin, got_kmax, masses, _ = _paper_table(p, decimals)
        np.testing.assert_allclose(got_kmin, kmin, rtol=REL, atol=1e-15)
        np.testing.assert_allclose(got_kmax, kmax, rtol=REL, atol=1e-15)
        want = ref_masses(agents, sorted(kmin + kmax), kmin, kmax)
        assert np.abs(masses - want).max() <= 1e-12 * scale
        return

    tbl = breakpoints(p)
    assert tbl.coordinate == ("log-marginal" if family == "exponential" else "marginal")
    assert tbl.keys.shape == (2 * n,)
    np.testing.assert_allclose(tbl.keys, np.sort(kmin + kmax), rtol=REL, atol=1e-15)
    assert tbl.agents.shape == tbl.kinds.shape == (2 * n,)
    order = list(zip(tbl.keys.tolist(), tbl.agents.tolist(), (tbl.kinds != "lower").tolist()))
    assert order == sorted(order)
    assert sorted(zip(tbl.agents.tolist(), tbl.kinds.tolist())) == sorted(
        [(i, "lower") for i in range(n)] + [(i, "upper") for i in range(n)]
    )
    # each entry's key is its agent's threshold of its kind
    kmin_of, kmax_of = np.array(kmin)[tbl.agents], np.array(kmax)[tbl.agents]
    want_keys = np.where(tbl.kinds == "lower", kmin_of, kmax_of)
    np.testing.assert_allclose(tbl.keys, want_keys, rtol=REL, atol=1e-15)

    want = ref_masses(agents, tbl.keys.tolist(), kmin, kmax)
    assert np.abs(tbl.masses - want).max() <= 1e-12 * scale
