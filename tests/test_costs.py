import math

import numpy as np
import pytest

from taskalloc.costs import (
    CostModel,
    _Exponential,
    exponential,
    quadratic,
)
from taskalloc.errors import NonpositiveLambdaError
from taskalloc.graph import from_edge_list
from taskalloc.problem import AllocationProblem

def _table(models):
    """The cost table of a path of these agents."""
    n = len(models)
    lo, up = sum(m.lower for m in models), sum(m.upper for m in models)
    graph = from_edge_list(n, [(k, k + 1) for k in range(n - 1)])
    return AllocationProblem(graph=graph, agents=tuple(models), total=0.5 * (lo + up))._costs


EXP1 = exponential(a=1000.0, lower=200.0, upper=350.0)
EXP2 = exponential(a=1900.0, lower=350.0, upper=480.0)
QUAD1 = quadratic(a=0.006, b=5.0, lower=200.0, upper=350.0)
QUAD2 = quadratic(a=0.008, b=5.4, lower=350.0, upper=480.0)


def test_exponential_cost_at_lower_is_coefficient():
    assert EXP1.cost(200.0) == pytest.approx(1000.0, abs=1e-12)


def test_exponential_cost_at_upper_is_coefficient_times_e():
    # exponent is exactly 1 at the upper bound
    assert EXP1.cost(350.0) == pytest.approx(1000.0 * math.e, rel=1e-12)


def test_quadratic_cost_at_lower_is_linear_term():
    assert QUAD1.cost(200.0) == pytest.approx(5.0 * 200.0, abs=1e-12)


def test_exponential_marginal_at_lower():
    m = EXP1.marginal(200.0)
    assert m == pytest.approx(1000.0 / 150.0, rel=1e-12)
    assert math.log(m) == pytest.approx(1.897, abs=1e-3)


def test_quadratic_marginal_at_upper():
    assert QUAD1.marginal(350.0) == pytest.approx(5.9, abs=1e-12)


def test_quadratic_marginal_at_lower_is_b():
    for b in (0.2, 5.4, 9.0):
        m = quadratic(a=0.01, b=b, lower=10.0, upper=20.0)
        assert m.marginal(10.0) == b


def test_fitness_is_negative_marginal():
    for m in (EXP1, EXP2, QUAD1, QUAD2):
        for w in np.linspace(m.lower, m.upper, 7):
            assert m.fitness(w) == -m.marginal(w)


def test_fitness_normalized_exponential():
    m = exponential(a=750.0, lower=0.0, upper=750.0)
    assert m.fitness(0.0) == pytest.approx(-1.0, abs=1e-15)


def test_inverse_marginal_exponential_reference_point():
    w = EXP2.inverse_marginal(math.exp(2.9314))
    assert w == pytest.approx(382.4, abs=0.1)


def test_inverse_marginal_quadratic_reference_point():
    w = QUAD2.inverse_marginal(5.766)
    assert w == pytest.approx(395.7, abs=0.1)


def test_inverse_marginal_is_not_clamped():
    big = EXP1.marginal(EXP1.upper) * 10.0
    assert EXP1.inverse_marginal(big) > EXP1.upper
    assert QUAD1.inverse_marginal(QUAD1.marginal(QUAD1.upper) + 1.0) > QUAD1.upper


def test_inverse_marginal_round_trip():
    rng = np.random.default_rng(3)
    for m in (EXP1, EXP2, QUAD1, QUAD2):
        lam_lo = m.marginal(m.lower)
        lam_hi = m.marginal(m.upper)
        for lam in rng.uniform(lam_lo, lam_hi, size=100):
            assert m.marginal(m.inverse_marginal(lam)) == pytest.approx(lam, rel=1e-9)
        for w in rng.uniform(m.lower, m.upper, size=100):
            assert m.inverse_marginal(m.marginal(w)) == pytest.approx(w, rel=1e-9)


def test_marginal_strictly_increasing():
    rng = np.random.default_rng(11)
    for m in (EXP1, QUAD1):
        pairs = rng.uniform(m.lower, m.upper, size=(50, 2))
        for w1, w2 in pairs:
            w1, w2 = min(w1, w2), max(w1, w2)
            if w1 < w2:
                assert m.marginal(w1) < m.marginal(w2)


def test_marginal_matches_finite_difference():
    for m in (EXP1, EXP2, QUAD1, QUAD2):
        h = 1e-4 * (m.upper - m.lower)
        for w in np.linspace(m.lower, m.upper, 9):
            fd = (m.cost(w + h) - m.cost(w - h)) / (2.0 * h)
            assert abs(fd - m.marginal(w)) <= 1e-6 * abs(m.marginal(w))
    # the curvature against a central difference of the marginal, for both
    # families in one mixed table and in each single-family table
    models = (EXP1, EXP2, QUAD1, QUAD2)
    mixed = _table(models)
    lo, up = mixed.lower, mixed.upper
    h = 1e-4 * (up - lo)
    w = lo + np.linspace(0.0, 1.0, 9)[:, None] * (up - lo)
    fd = (mixed.marginal(w + h) - mixed.marginal(w - h)) / (2.0 * h)
    np.testing.assert_allclose(mixed.curvature(w), fd, rtol=1e-6)
    # the mixed table scatters each group's curvature to its agents
    for idx in ([0, 1], [2, 3]):
        single = _table([models[i] for i in idx])
        assert single.family is not None
        assert mixed.curvature(w)[:, idx].tobytes() == single.curvature(w[:, idx]).tobytes()


def test_nonpositive_lambda_rejected_for_exponential():
    with pytest.raises(NonpositiveLambdaError):
        EXP1.inverse_marginal(0.0)
    with pytest.raises(NonpositiveLambdaError):
        EXP1.inverse_marginal(-3.0)
    # the quadratic inverse is defined for any level
    assert QUAD1.inverse_marginal(-1.0) < QUAD1.lower


@pytest.mark.parametrize(
    ("lam", "least"),
    [(0.0, 0.0), (-0.0, -0.0), (-1.0, -1.0), (np.array([2.0, -1.0, 3.0]), -1.0),
     ([2.0, -1.0, 3.0], -1.0)],
    ids=["zero", "negative-zero", "negative", "array", "list"],
)
@pytest.mark.parametrize(
    "call", [EXP1.inverse_marginal, _Exponential.key_from_lambda], ids=["inverse", "key"]
)
def test_nonpositive_level_guard(call, lam, least):
    # a scalar, an array or a list holding one level <= 0 is refused and
    # named by its least entry
    with pytest.raises(NonpositiveLambdaError) as err:
        call(lam)
    assert math.copysign(1.0, err.value.lam) == math.copysign(1.0, least)
    assert err.value.lam == least


@pytest.mark.parametrize(
    "call", [EXP1.inverse_marginal, _Exponential.key_from_lambda], ids=["inverse", "key"]
)
def test_nan_level_passes_the_guard(call):
    # nan <= 0 is false: the guard lets nan through, and so does the log
    with np.errstate(invalid="ignore"):
        assert np.isnan(call(math.nan))
        out = call(np.array([1.0, math.nan]))
    assert np.isnan(out[1]) and not np.isnan(out[0])


def test_key_helpers_round_trip():
    for m in (EXP1, QUAD2):
        for lam in (m.marginal(m.lower), m.marginal(m.upper)):
            key = m.key_from_lambda(float(lam))
            assert m.lambda_from_key(key) == pytest.approx(lam, rel=1e-12)
            assert m.response_from_key(key) == pytest.approx(
                m.inverse_marginal(lam), rel=1e-9
            )


def test_construction_validation():
    with pytest.raises(ValueError):
        CostModel(family="cubic", a=1.0, lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        exponential(a=0.0, lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        exponential(a=1.0, lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        exponential(a=1.0, lower=1.0, upper=1.0)  # zero span divides the exponent
    with pytest.raises(ValueError):
        exponential(a=1.0, lower=-1.0, upper=1.0)
    with pytest.raises(ValueError):
        quadratic(a=1.0, b=0.0, lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        CostModel(family="quadratic", a=1.0, lower=0.0, upper=1.0)  # b missing
    with pytest.raises(ValueError):
        CostModel(family="exponential", a=1.0, b=1.0, lower=0.0, upper=1.0)
    # zero-width boxes are fine for the quadratic family
    pinned = quadratic(a=1.0, b=1.0, lower=5.0, upper=5.0)
    assert pinned.marginal(5.0) == 1.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int-past-floats"])
@pytest.mark.parametrize("name", ["a", "b", "lower", "upper"])
def test_construction_rejects_what_a_problem_file_rejects(name, value):
    # the parser's test, abs(x) <= the largest float: a NaN or infinite
    # field would otherwise surface later as a solver or replicator error
    # that names neither the agent nor the field
    fields = {"a": 1.0, "b": 1.0, "lower": 0.0, "upper": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
        quadratic(**fields)
    if name != "b":
        del fields["b"]
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            exponential(**fields)


def test_evaluation_outside_box_extends_smoothly():
    assert np.isfinite(EXP1.cost(500.0))
    assert np.isfinite(QUAD1.cost(-50.0))
    assert QUAD1.marginal(100.0) < QUAD1.marginal(QUAD1.lower)


def test_vectorized_evaluation():
    w = np.array([200.0, 275.0, 350.0])
    np.testing.assert_allclose(
        EXP1.cost(w), [EXP1.cost(x) for x in w], rtol=1e-15
    )
    np.testing.assert_allclose(
        QUAD1.marginal(w), [QUAD1.marginal(x) for x in w], rtol=1e-15
    )
