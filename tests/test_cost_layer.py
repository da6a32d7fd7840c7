"""The cost layer against the README's closed forms, written out here.

Coefficients, box widths and loads are spread log-uniformly over
1e-3 ... 1e6, and families are mixed per agent, so every vectorized path
(single family, scattered mixed groups, (n,) and (m, n) inputs) is
compared with a plain scalar formula that shares no code with src/.
"""

import math

import numpy as np
import pytest

from taskalloc import lambda_solver
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
        assert costs.shape == w.shape and margs.shape == w.shape
        for row_w, row_c, row_m in zip(np.atleast_2d(w), np.atleast_2d(costs), np.atleast_2d(margs)):
            for m, x, c, g in zip(agents, row_w, row_c, row_m):
                want_c = ref_cost(m, float(x))
                want_g = ref_marginal(m, float(x))
                _close(c, want_c, abs(want_c))
                _close(g, want_g, abs(want_g))


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


@pytest.mark.parametrize("decimals", [None, 3])
@pytest.mark.parametrize(
    "family, n, pinned_frac",
    [("exponential", 7, 0.0), ("quadratic", 9, 0.3), ("exponential", 400, 0.0), ("quadratic", 400, 0.2)],
)
def test_breakpoint_masses_match_scalar_clamp(family, n, pinned_frac, decimals):
    rng = np.random.default_rng(n + (decimals or 0))
    agents = _random_agents(rng, n, family, pinned_frac)
    p = _problem(agents)
    if n > 100:  # the table is built in several key blocks
        assert 2 * n > 2 * (lambda_solver._BLOCK_ELEMENTS // n)

    kmin = [ref_key(m, ref_marginal(m, m.lower)) for m in agents]
    kmax = [ref_key(m, ref_marginal(m, m.upper)) for m in agents]
    if decimals is not None:
        kmin = [float(np.round(k, decimals)) for k in kmin]
        kmax = [float(np.round(k, decimals)) for k in kmax]

    tbl = breakpoints(p, key_decimals=decimals)
    assert tbl.keys.shape == (2 * n,)
    np.testing.assert_allclose(tbl.keys, np.sort(kmin + kmax), rtol=REL, atol=1e-15)
    order = [(bp.key, bp.agent, bp.kind != "lower") for bp in tbl.breakpoints]
    assert order == sorted(order)
    assert sorted((bp.agent, bp.kind) for bp in tbl.breakpoints) == sorted(
        [(i, "lower") for i in range(n)] + [(i, "upper") for i in range(n)]
    )
    np.testing.assert_array_equal([bp.key for bp in tbl.breakpoints], tbl.keys)

    want = ref_masses(agents, tbl.keys.tolist(), kmin, kmax)
    scale = sum(m.upper for m in agents)
    assert np.abs(tbl.masses - want).max() <= 1e-12 * scale
