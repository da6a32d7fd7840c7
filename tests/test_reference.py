"""solve_lambda and kkt_check against the reference copies in conftest.py:
every field bit for bit, and the same probe keys in the same order."""

import numpy as np
import pytest
from conftest import in_feasible_set_reference, kkt_reference, solve_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import lambda_solver
from taskalloc.costs import exponential, quadratic
from taskalloc.errors import NotFeasibleError
from taskalloc.graph import from_edge_list
from taskalloc.lambda_solver import solve_lambda
from taskalloc.problem import AllocationProblem, in_feasible_set
from taskalloc.verify import kkt_check


@st.composite
def _cases(draw):
    """A problem, as bench/gen.py's wide_scale_problem draws one: one
    coefficient scale and one box scale per instance, log-uniform on
    1e-3..1e6, with agents varying within a decade. Optionally agent 0 is
    a quadratic whose marginal is flat to rounding (a * span below one ulp
    of b, as in tests/data/flat2.json), a third of the quadratic boxes are
    points, and the total is the sum of the lower or of the upper bounds."""
    family = draw(st.sampled_from(["exponential", "quadratic", "mixed"]))
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 200)))
    coeff, box = (10.0 ** draw(st.floats(-3.0, 6.0)) for _ in range(2))
    flat = family != "exponential" and draw(st.booleans())
    pinned = family != "exponential" and draw(st.booleans())
    total_at = draw(st.sampled_from(["interior", "interior", "lower", "upper"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents = []
    for k in range(n):
        fam = family if family != "mixed" else ("exponential", "quadratic")[rng.integers(2)]
        lower = box * rng.uniform()
        span = box * 10.0 ** rng.uniform(-1.0, 0.0)
        if fam == "exponential":
            a = coeff * box * span * 10.0 ** rng.uniform(-0.5, 0.5)
            agents.append(exponential(a=a, lower=lower, upper=lower + span))
            continue
        a = coeff * 10.0 ** rng.uniform(-0.5, 0.5)
        b = coeff * box * 10.0 ** rng.uniform(-1.0, 0.0)
        if flat and k == 0:
            b = a * span * 2.0**54
        if pinned and rng.uniform() < 1 / 3:
            span = 0.0
        agents.append(quadratic(a=a, b=b, lower=lower, upper=lower + span))
    lo = sum(m.lower for m in agents)
    up = sum(m.upper for m in agents)
    total = {"lower": lo, "upper": up}.get(total_at, lo + rng.uniform(0.05, 0.95) * (up - lo))
    if not total > 0 or total > up:
        total = up
    graph = from_edge_list(n, [(k, k + 1) for k in range(n - 1)])
    return AllocationProblem(graph=graph, agents=tuple(agents), total=total), rng


def _points(p, w, rng):
    """Feasible points other than the optimum w: convex combinations of w
    and a vertex that fills boxes from lower to upper in random order, so
    some loads sit on a bound. The last point is rescaled from a uniform
    box point and may leave the feasible set."""
    lo, up = p.lower_bounds, p.upper_bounds
    fill = np.zeros(p.n)
    room = p.total - float(lo.sum())
    for i in rng.permutation(p.n).tolist():
        fill[i] = min(float(up[i] - lo[i]), room)
        room -= fill[i]
    vertex = lo + fill
    out = [vertex] + [w + t * (vertex - w) for t in rng.uniform(size=2)]
    x = rng.uniform(size=p.n) * (up - lo)
    return out + [lo + x * ((p.total - float(lo.sum())) / max(float(x.sum()), 1e-300))]


def _same_solution(res, ref):
    assert res.allocation.tobytes() == ref.allocation.tobytes()
    fields = ("key", "lam", "bracket", "interior", "active_lower", "active_upper", "method",
              "probes")
    assert [repr(getattr(res, f)) for f in fields] == [repr(getattr(ref, f)) for f in fields]


def _same_certificate(p, w):
    try:
        ref = kkt_reference(p, w)
    except NotFeasibleError:
        with pytest.raises(NotFeasibleError):
            kkt_check(p, w)
        return False
    assert repr(kkt_check(p, w)) == repr(ref)
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_solve_and_certificate_match_the_reference_bit_for_bit(case):
    p, rng = case
    ref_keys, keys = [], []
    ref = solve_reference(p, ref_keys)
    clamp = lambda_solver._clamp

    def recording_clamp(p, key, *args):
        keys.append(float(key))
        return clamp(p, key, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lambda_solver, "_clamp", recording_clamp)
        res = solve_lambda(p)
    assert keys == ref_keys
    _same_solution(res, ref)

    assert _same_certificate(p, res.allocation)
    for x in _points(p, res.allocation, rng):
        assert in_feasible_set(p, x) == in_feasible_set_reference(p, x)
        _same_certificate(p, x)
