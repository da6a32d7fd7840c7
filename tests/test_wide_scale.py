"""solve_lambda and kkt_check far outside the scales of tests/conftest.py:
coefficients and boxes over 10^-300 .. 10^300, up to 3000 agents, boxes
down to 1e-15 of their lower bound, and totals at the bound sums. Every
valid draw is either refused with CostOverflowError, because a marginal
at a bound is 0 or beyond float range, or solved in at most 80 clamps to
a feasible point with every load in its box whose certificate passes,
while a point moved well off it fails."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc.costs import exponential, quadratic
from taskalloc.errors import CostOverflowError
from taskalloc.graph import from_edge_list
from taskalloc.lambda_solver import solve_lambda
from taskalloc.problem import AllocationProblem, in_feasible_set
from taskalloc.verify import kkt_check

_TINY, _HUGE = 5e-324, np.finfo(float).max


def _positive(log10):
    """10**log10, clamped to the positive floats (call under np.errstate)."""
    return np.clip(10.0**log10, _TINY, _HUGE)


def wide_problem(rng, family, n, coeff, box, spread, narrow, pinned, total_at):
    """A problem whose agents share the log10 scales `coeff` (marginal
    cost) and `box` (lower bound), each agent's coefficients varying
    within 10^±spread. Box widths run from the lower bound down to
    10^-narrow of it, a third of the quadratic boxes are points when
    `pinned`, and the total is the float sum of the lower or of the upper
    bounds in agent order, or lies between them."""
    fams = rng.choice(["exponential", "quadratic"], n) if family == "mixed" else np.full(n, family)
    lower = _positive(box + rng.uniform(-1.0, 0.0, n))
    upper = np.maximum(lower + lower * _positive(-rng.uniform(0.0, narrow, n)),
                       np.nextafter(lower, np.inf))
    if pinned:
        upper = np.where((fams == "quadratic") & (rng.uniform(size=n) < 1 / 3), lower, upper)
    log_width = np.log10(np.where(upper > lower, upper - lower, lower))
    # marginal(lower) is a / width for the exponential family and b for the
    # quadratic, whose marginal rises by a * width over the box
    level = coeff + rng.uniform(-spread, spread, (2, n))
    a = _positive(np.where(fams == "exponential", level[0] + log_width, level[1] - log_width))
    b = _positive(level[0])
    agents = [
        exponential(a=ai, lower=lo, upper=up) if f == "exponential"
        else quadratic(a=ai, b=bi, lower=lo, upper=up)
        for f, ai, bi, lo, up in zip(fams, a.tolist(), b.tolist(), lower.tolist(), upper.tolist())
    ]
    lo, up = sum(lower.tolist()), sum(upper.tolist())
    total = {"lower": lo, "upper": up}.get(total_at, min(lo + rng.uniform() * (up - lo), up))
    graph = from_edge_list(n, [(k, k + 1) for k in range(n - 1)])
    return AllocationProblem(graph=graph, agents=tuple(agents), total=total)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(["exponential", "quadratic", "mixed"]),
    n=st.sampled_from([1, 2, 5, 50, 500, 3000]),
    coeff=st.floats(-300.0, 300.0),
    box=st.floats(-300.0, 300.0),
    spread=st.floats(0.0, 20.0),
    narrow=st.floats(0.0, 15.0),
    pinned=st.booleans(),
    total_at=st.sampled_from(["lower", "upper", "between", "between"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_scale_solve_is_feasible_and_certified(
    family, n, coeff, box, spread, narrow, pinned, total_at, seed
):
    rng = np.random.default_rng(seed)
    # numpy warns of the overflow a CostOverflowError then reports
    with np.errstate(all="ignore"):
        p = wide_problem(rng, family, n, coeff, box, spread, narrow, pinned, total_at)
        try:
            res = solve_lambda(p)
        except CostOverflowError:
            return
        assert in_feasible_set(p, res.allocation)
        assert (res.allocation >= p.lower_bounds).all()
        assert (res.allocation <= p.upper_bounds).all()
        assert kkt_check(p, res.allocation).passed
        assert res.probes <= 80
        if len(res.interior) >= 2:
            assert_moved_point_fails(p, res.allocation, *res.interior[:2])


def assert_moved_point_fails(p, w, i, j):
    """Move half the room between agents i and j from i to j: the
    certificate must fail when their marginals then differ by twice the
    sum of their allowances, 1e-6 of each marginal plus its resolution."""
    moved = w.copy()
    d = 0.5 * min(w[i] - p.lower_bounds[i], p.upper_bounds[j] - w[j])
    moved[i] -= d
    moved[j] += d
    if not in_feasible_set(p, moved):
        return
    marg = p._costs.marginal(moved)
    allow = 1e-6 * np.abs(marg) + np.abs(p._costs.marginal(np.nextafter(moved, np.inf)) - marg)
    if marg[j] - marg[i] > 2 * (allow[i] + allow[j]):
        assert not kkt_check(p, moved).passed
