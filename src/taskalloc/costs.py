"""Per-agent convex cost families and the struct-of-arrays cost table.

Two closed families are supported:

* exponential: c(w) = a * exp((w - lower) / (upper - lower))
* quadratic:   c(w) = a/2 * (w - lower)^2 + b * w

:func:`_agent_fault` is the one rule for whether an agent's coefficients
define such a cost: CostModel and the problem-file parser both apply it.

Each family writes its formulas once: value, marginal cost, curvature
(the marginal's derivative c''), the inverse of the marginal, key <->
level with d(level)/d(key), and the interior response in the key
coordinate; an interior load moves with the key at d(level)/d(key) / c''.
The marginal is strictly increasing on the box, so the inverse is well
defined; it is intentionally NOT clamped to the box — clamping is the
water-filling solver's job.

The formulas take one :class:`_Group`: a family group of the
:class:`_CostTable` that every :class:`AllocationProblem` builds once
(arrays over that family's agents), or the one-agent group of a
:class:`CostModel` (scalars).
Everything that evaluates many agents at once (problem costs and
marginals, the replicator step, the breakpoint table, the KKT check)
goes through that table. The replicator reads the marginals themselves;
its fitness is their negation.

The water-filling solver works in a "key" coordinate, which the table
picks once as its `coordinate`: for a single family the aggregate clamped
response is piecewise linear in it (log marginal-cost for the exponential
family, the marginal cost itself for the quadratic one); mixed families
use the marginal cost itself, the quadratic family's key.

Below about 10^3 agents a call costs numpy's per-call overhead more than
arithmetic, so hot paths use ndarray methods, not np.any, np.all,
np.flatnonzero or np.broadcast_shapes.
"""

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveLambdaError

EXPONENTIAL = "exponential"
QUADRATIC = "quadratic"
_FLOAT_MAX = sys.float_info.max


def _require_positive(lam):
    if (np.asarray(lam) <= 0.0).any():
        raise NonpositiveLambdaError(float(np.min(lam)))


class _Exponential:
    """c(w) = a * exp((w - lo) / u), u = upper - lower > 0."""

    key_coordinate = "log-marginal"

    @staticmethod
    def cost(m, w):
        return m.a * np.exp((w - m.lower) / m.span)

    @staticmethod
    def marginal(m, w):
        return m.a_per_span * np.exp((w - m.lower) / m.span)

    @staticmethod
    def curvature(m, w):
        return _Exponential.marginal(m, w) / m.span

    @staticmethod
    def inverse_marginal(m, lam):
        _require_positive(lam)
        # marginal = (a/u) e^{(w-lo)/u}  =>  w = lo + u (ln lam - ln(a/u))
        return m.lower + m.span * (np.log(lam) - np.log(m.a_per_span))

    @staticmethod
    def key_from_lambda(lam):
        _require_positive(lam)
        return np.log(lam)

    lambda_from_key = lambda_per_key = staticmethod(np.exp)

    @staticmethod
    def response_from_key(m, key):
        # interior inverse marginal, expressed directly in the log coordinate
        return m.lower + m.span * (key - np.log(m.a) + np.log(m.span))


class _Quadratic:
    """c(w) = a/2 (w - lo)^2 + b w; marginal a (w - lo) + b."""

    key_coordinate = "marginal"

    @staticmethod
    def cost(m, w):
        d = w - m.lower
        return 0.5 * m.a * d * d + m.b * w

    @staticmethod
    def marginal(m, w):
        return m.a * (w - m.lower) + m.b

    @staticmethod
    def curvature(m, w):
        return m.a + 0.0 * w

    @staticmethod
    def inverse_marginal(m, lam):
        return m.lower + (lam - m.b) / m.a

    @staticmethod
    def key_from_lambda(lam):
        return lam

    lambda_from_key = key_from_lambda
    lambda_per_key = staticmethod(np.ones_like)  # d(level)/d(key) = 1

    # the key is the level itself
    response_from_key = inverse_marginal


_FAMILIES = {EXPONENTIAL: _Exponential, QUADRATIC: _Quadratic}


@dataclass(frozen=True, eq=False)
class _Group:
    """One family's agents: their positions and coefficients as arrays, or
    one CostModel's coefficients as scalars (idx None)."""

    name: str
    fam: type
    idx: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    span: np.ndarray
    a_per_span: np.ndarray


class _CostTable:
    """Struct-of-arrays costs of n agents, one group per family present.

    Built from five `columns` in agent order: family names, a, b (0.0 for
    an exponential agent), lower and upper. `family` is the single family's
    formula class, or None when families are mixed. `coordinate` maps
    levels to the solver's keys: the single family, or _Quadratic (whose key
    is lam itself) when families mix. Per-agent inputs have shape (..., n);
    a shared level (key or lam) is a scalar or an array that broadcasts
    against (n,), such as a column of keys. All four formulas are bound
    once: `cost(w)`, `marginal(w)`, `curvature(w)` and `response_from_key(key)`,
    the unclamped loads at a key (each group's inverse marginal when families
    mix). A single family binds its formula and group, so that a call in
    the replicator's step loop is one Python frame; mixed ones the scatter.
    Every array the table holds, columns and group fields alike, is read-only.
    """

    def __init__(self, families, a, b, lower, upper):
        self.n = len(families)
        self.columns = [np.array(col) for col in (families, a, b, lower, upper)]
        names, a, b, lower, upper = self.columns
        self.lower, self.upper = lower, upper
        span = upper - lower
        # only exponential agents read a / span, inf if it overflows; a quadratic box may be a point
        with np.errstate(all="ignore"):
            a_per_span = a / span
        self.groups = []
        for name, fam in _FAMILIES.items():
            idx = np.flatnonzero(names == name)
            if idx.size:
                self.groups.append(
                    _Group(name, fam, idx, a[idx], b[idx], lower[idx], span[idx], a_per_span[idx])
                )
        self.family = self.groups[0].fam if len(self.groups) == 1 else None
        self.coordinate = self.family or _Quadratic
        for formula, mixed, per_agent in (("cost", "cost", True), ("marginal", "marginal", True),
                                          ("curvature", "curvature", True),
                                          ("response_from_key", "inverse_marginal", False)):
            if self.family is None:
                bound = functools.partial(self._evaluate, mixed, per_agent=per_agent)
            else:
                bound = functools.partial(getattr(self.family, formula), self.groups[0])
            setattr(self, formula, bound)
        for arr in (*self.columns, *(v for g in self.groups for v in vars(g).values())):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def _evaluate(self, formula: str, x, per_agent: bool) -> np.ndarray:
        shape = getattr(x, "shape", ())
        out = np.empty(shape if per_agent else (*shape[:-1], self.n))
        for g in self.groups:
            # a bare index array takes numpy's fast path; (..., idx) does not
            at = g.idx if out.ndim == 1 else (..., g.idx)
            out[at] = getattr(g.fam, formula)(g, x[at] if per_agent else x)
        return out


def _agent_fault(family: str, a, b, lower, upper) -> str | None:
    """The first fault of one agent's coefficients (b None for an exponential agent),
    or None if they define its family's cost on [lower, upper]; ints compare exactly."""
    for name, value in (("a", a), ("b", b), ("lower", lower), ("upper", upper)):
        if value is not None and not abs(value) <= _FLOAT_MAX:  # NaN, inf, ints past the floats
            return f"{name} must be finite, got {value!r}"
    if not a > 0:
        return f"coefficient a must be positive, got {a}"
    if lower < 0:
        return f"lower bound must be >= 0, got {lower}"
    if lower > upper:
        return f"bounds must satisfy lower <= upper, got [{lower}, {upper}]"
    if family == EXPONENTIAL:
        if not float(upper) > float(lower):  # as floats: the table's span must not round to 0
            return "exponential family needs upper > lower strictly"
        if b is not None:
            return "exponential family takes no b coefficient"
    elif b is None or not b > 0:
        return f"quadratic family needs b > 0, got {b}"
    return None


@dataclass(frozen=True)
class CostModel:
    """One agent's cost curve plus its box [lower, upper].

    a is the positive coefficient of either family; b is the quadratic
    linear coefficient (None for the exponential family). Coefficients
    that break :func:`_agent_fault`'s rule raise its fault as a ValueError.
    """

    family: str
    a: float
    lower: float
    upper: float
    b: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown cost family {self.family!r}")
        if fault := _agent_fault(self.family, self.a, self.b, self.lower, self.upper):
            raise ValueError(fault)
        # the agent's one-agent group, which every method below evaluates; only
        # the exponential family reads a / span, and its box is never a point
        span = self.upper - self.lower
        group = _Group(self.family, _FAMILIES[self.family], None, self.a, self.b, self.lower,
                       span, self.a / span if span else np.inf)
        object.__setattr__(self, "_group", group)

    # All evaluations accept scalars or arrays and extend smoothly outside
    # the box; trajectories on the simplex may legitimately leave it.

    def cost(self, w):
        return self._group.fam.cost(self._group, w)

    def marginal(self, w):
        return self._group.fam.marginal(self._group, w)

    def fitness(self, w):
        return -self._group.fam.marginal(self._group, w)

    def inverse_marginal(self, lam):
        """The unique w with marginal(w) = lam, unclamped."""
        return self._group.fam.inverse_marginal(self._group, lam)

    # Breakpoint-coordinate helpers, in the family's key coordinate.

    def key_from_lambda(self, lam: float) -> float:
        return self._group.fam.key_from_lambda(lam)

    def lambda_from_key(self, key: float) -> float:
        return self._group.fam.lambda_from_key(key)

    def key_at_lower(self) -> float:
        return self.key_from_lambda(float(self.marginal(self.lower)))

    def key_at_upper(self) -> float:
        return self.key_from_lambda(float(self.marginal(self.upper)))

    def response_from_key(self, key: float) -> float:
        """Interior inverse marginal in the key coordinate, unclamped."""
        return self._group.fam.response_from_key(self._group, key)


def exponential(a: float, lower: float, upper: float) -> CostModel:
    return CostModel(family=EXPONENTIAL, a=a, lower=lower, upper=upper)


def quadratic(a: float, b: float, lower: float, upper: float) -> CostModel:
    return CostModel(family=QUADRATIC, a=a, lower=lower, upper=upper, b=b)
