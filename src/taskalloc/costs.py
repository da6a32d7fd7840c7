"""Per-agent convex cost families and the struct-of-arrays cost table.

Two closed families are supported:

* exponential: c(w) = a * exp((w - lower) / (upper - lower))
* quadratic:   c(w) = a/2 * (w - lower)^2 + b * w

Each family writes its formulas once: value, marginal cost, the inverse
of the marginal, key <-> level, and the interior response in the key
coordinate. The marginal is strictly increasing on the box, so the
inverse is well defined; it is intentionally NOT clamped to the box —
clamping is the water-filling solver's job.

The formulas take any object with ``a``, ``b``, ``lower`` and ``span``
attributes: a single :class:`CostModel` (scalars) or one family group of
the :class:`_CostTable` that every :class:`AllocationProblem` builds once
(arrays over that family's agents). Everything that evaluates many agents
at once (problem costs and marginals, the replicator step, the breakpoint
table, the KKT check) goes through that table.

The breakpoint solver works in a "key" coordinate in which the aggregate
clamped response is piecewise linear: log marginal-cost for the
exponential family, the marginal cost itself for the quadratic one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveLambdaError

EXPONENTIAL = "exponential"
QUADRATIC = "quadratic"


def _require_positive(lam):
    if np.any(np.asarray(lam) <= 0.0):
        raise NonpositiveLambdaError(float(np.min(lam)))


class _Exponential:
    """c(w) = a * exp((w - lo) / u), u = upper - lower > 0."""

    key_coordinate = "log-marginal"

    @staticmethod
    def cost(m, w):
        return m.a * np.exp((w - m.lower) / m.span)

    @staticmethod
    def marginal(m, w):
        return (m.a / m.span) * np.exp((w - m.lower) / m.span)

    @staticmethod
    def inverse_marginal(m, lam):
        _require_positive(lam)
        # marginal = (a/u) e^{(w-lo)/u}  =>  w = lo + u (ln lam - ln(a/u))
        return m.lower + m.span * (np.log(lam) - np.log(m.a / m.span))

    @staticmethod
    def key_from_lambda(lam):
        _require_positive(lam)
        return np.log(lam)

    lambda_from_key = staticmethod(np.exp)

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
    def inverse_marginal(m, lam):
        return m.lower + (lam - m.b) / m.a

    @staticmethod
    def key_from_lambda(lam):
        return lam

    lambda_from_key = key_from_lambda

    # the key is the level itself
    response_from_key = inverse_marginal


_FAMILIES = {EXPONENTIAL: _Exponential, QUADRATIC: _Quadratic}


@dataclass(frozen=True, eq=False)
class _Group:
    """One family's agents: their positions and coefficients as arrays."""

    fam: type
    idx: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    span: np.ndarray


class _CostTable:
    """Struct-of-arrays costs of n agents, one group per family present.

    `family` is the single family's formula class, or None when families
    are mixed. Per-agent inputs have shape (..., n); a shared level (key
    or lam) is a scalar or an array that broadcasts against (n,), such as
    a column of keys.
    """

    def __init__(self, models):
        self.n = len(models)
        self.lower = np.array([m.lower for m in models])
        self.upper = np.array([m.upper for m in models])
        a = np.array([m.a for m in models])
        b = np.array([0.0 if m.b is None else m.b for m in models])
        span = self.upper - self.lower
        names = np.array([m.family for m in models])
        self.groups = []
        for name, fam in _FAMILIES.items():
            idx = np.flatnonzero(names == name)
            if idx.size:
                self.groups.append(
                    _Group(fam, idx, a[idx], b[idx], self.lower[idx], span[idx])
                )
        self.family = self.groups[0].fam if len(self.groups) == 1 else None
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    def _evaluate(self, formula: str, x, per_agent: bool) -> np.ndarray:
        if self.family is not None:  # no scatter for a single family
            return getattr(self.family, formula)(self.groups[0], x)
        shape = np.shape(x) if per_agent else np.broadcast_shapes(np.shape(x), (self.n,))
        out = np.empty(shape)
        for g in self.groups:
            xg = x[..., g.idx] if per_agent else x
            out[..., g.idx] = getattr(g.fam, formula)(g, xg)
        return out

    def cost(self, w) -> np.ndarray:
        return self._evaluate("cost", w, per_agent=True)

    def marginal(self, w) -> np.ndarray:
        return self._evaluate("marginal", w, per_agent=True)

    def inverse_marginal(self, lam) -> np.ndarray:
        """Each agent's unclamped load at a shared marginal-cost level."""
        return self._evaluate("inverse_marginal", lam, per_agent=False)

    def response_from_key(self, key) -> np.ndarray:
        """Each agent's unclamped load at a shared key (single family)."""
        return self._evaluate("response_from_key", key, per_agent=False)


@dataclass(frozen=True)
class CostModel:
    """One agent's cost curve plus its box [lower, upper].

    a is the positive coefficient of either family; b is the quadratic
    linear coefficient (unused by the exponential family).
    """

    family: str
    a: float
    lower: float
    upper: float
    b: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown cost family {self.family!r}")
        if not self.a > 0:
            raise ValueError(f"coefficient a must be positive, got {self.a}")
        if self.lower < 0:
            raise ValueError(f"lower bound must be >= 0, got {self.lower}")
        if self.lower > self.upper:
            raise ValueError(
                f"bounds must satisfy lower <= upper, got [{self.lower}, {self.upper}]"
            )
        if self.family == EXPONENTIAL:
            if not self.upper > self.lower:
                raise ValueError("exponential family needs upper > lower strictly")
            if self.b is not None:
                raise ValueError("exponential family takes no b coefficient")
        else:
            if self.b is None or not self.b > 0:
                raise ValueError(f"quadratic family needs b > 0, got {self.b}")

    @property
    def span(self) -> float:
        return self.upper - self.lower

    @property
    def _fam(self):
        return _FAMILIES[self.family]

    # All evaluations accept scalars or arrays and extend smoothly outside
    # the box; trajectories on the simplex may legitimately leave it.

    def cost(self, w):
        return self._fam.cost(self, w)

    def marginal(self, w):
        return self._fam.marginal(self, w)

    def fitness(self, w):
        return -self._fam.marginal(self, w)

    def inverse_marginal(self, lam):
        """The unique w with marginal(w) = lam, unclamped."""
        return self._fam.inverse_marginal(self, lam)

    # Breakpoint-coordinate helpers used by the water-filling solver.

    @property
    def key_coordinate(self) -> str:
        return self._fam.key_coordinate

    def key_from_lambda(self, lam: float) -> float:
        return self._fam.key_from_lambda(lam)

    def lambda_from_key(self, key: float) -> float:
        return self._fam.lambda_from_key(key)

    def key_at_lower(self) -> float:
        return self.key_from_lambda(float(self.marginal(self.lower)))

    def key_at_upper(self) -> float:
        return self.key_from_lambda(float(self.marginal(self.upper)))

    def response_from_key(self, key: float) -> float:
        """Interior inverse marginal in the key coordinate, unclamped."""
        return self._fam.response_from_key(self, key)


def exponential(a: float, lower: float, upper: float) -> CostModel:
    return CostModel(family=EXPONENTIAL, a=a, lower=lower, upper=upper)


def quadratic(a: float, b: float, lower: float, upper: float) -> CostModel:
    return CostModel(family=QUADRATIC, a=a, lower=lower, upper=upper, b=b)


def quadratic_from_vertex_form(
    coeff: float, linear: float, lower: float, upper: float
) -> CostModel:
    """Quadratic given as coeff*(w - lower)^2 + linear*w, i.e. a = 2*coeff."""
    return quadratic(a=2.0 * coeff, b=linear, lower=lower, upper=upper)
