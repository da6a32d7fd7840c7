"""Bundled demonstration instances with known solutions.

Four instances ship with the package so the solver, the replicator
simulation, and the verifiers can be exercised without input files:

* ``fig2``: six agents on a ring with one cross-link, exponential costs,
  zero lower bounds. The equal-fitness point lies inside every box, and
  it has the closed form w_i = upper_i * w / sum(upper) because each
  marginal is exp(w_i / upper_i) here.
* ``fig3``: same graph, quadratic costs with tight boxes; the
  equal-marginal point is interior and solvable in closed form.
* ``tab1``: three agents on a path, exponential costs. The equal-fitness
  point violates agent 1's upper bound, so the optimum clamps it; the
  reference data includes the paper's breakpoint table, tabulated at keys
  rounded to 3 decimals.
* ``tab3``: same shape with quadratic costs; reference table included.

Each instance is the document a problem file holds (1-based edges, one
object per agent), built by the checks an ``--input`` file passes
(``problem._from_document``) once per process and then shared read-only.
Reference entries, a read-only mapping of numbers, tuples and a read-only
expected allocation, carry the expected values and the tolerances the
``reproduce`` command checks them at.
"""

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import UnknownExampleError
from .problem import AllocationProblem, _from_document


@dataclass(frozen=True)
class BundledInstance:
    instance_id: str
    description: str
    problem: AllocationProblem
    drd_step: float | None  # suggested simulation step, where meaningful
    reference: MappingProxyType


_RING6 = {"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 4]]}
_PATH3 = {"n": 3, "edges": [[1, 2], [2, 3]]}


def _problem(total: float, graph: dict, agents: list) -> AllocationProblem:
    return _from_document({"total": total, "graph": graph, "agents": agents})


def _exponential(a: float, lower: float, upper: float) -> dict:
    return {"family": "exponential", "a": a, "lower": lower, "upper": upper}


def _quadratic(a: float, b: float, lower: float, upper: float) -> dict:
    return {"family": "quadratic", "a": a, "b": b, "lower": lower, "upper": upper}


def _reference(allocation, **entries) -> MappingProxyType:
    """The read-only reference entries, the expected allocation a read-only array."""
    allocation = np.array(allocation, dtype=float)
    allocation.setflags(write=False)
    return MappingProxyType({"allocation": allocation, **entries})


def _fig2() -> BundledInstance:
    uppers = [750.0, 800.0, 1400.0, 1000.0, 900.0, 1700.0]
    total = 2800.0
    p = _problem(total, _RING6, [_exponential(u, 0.0, u) for u in uppers])
    # equal fitness <=> equal w_i/upper_i, so the optimum is proportional
    expected = np.array(uppers) * total / sum(uppers)
    return BundledInstance(
        instance_id="fig2",
        description="six agents, exponential costs, interior optimum",
        problem=p,
        drd_step=1e-4,
        reference=_reference(expected, allocation_tol=0.5),
    )


def _fig3() -> BundledInstance:
    lowers = [700.0, 350.0, 200.0, 50.0, 40.0, 200.0]
    uppers = [980.0, 580.0, 350.0, 170.0, 150.0, 790.0]
    a = [0.006, 0.008, 0.01, 0.012, 0.0132, 0.00136]
    b = [0.4, 0.2, 0.5, 0.56, 0.828, 0.88]
    total = 2800.0
    p = _problem(total, _RING6, [_quadratic(*agent) for agent in zip(a, b, lowers, uppers)])
    # equal marginal lam: sum(lo_i + (lam - b_i)/a_i) = w
    lowers, a, b = np.array(lowers), np.array(a), np.array(b)
    lam = (total - lowers.sum() + (b / a).sum()) / (1.0 / a).sum()
    expected = lowers + (lam - b) / a
    return BundledInstance(
        instance_id="fig3",
        description="six agents, quadratic costs, interior optimum",
        problem=p,
        drd_step=1e-3,
        reference=_reference(expected, allocation_tol=0.5, level=lam),
    )


def _tab1() -> BundledInstance:
    agents = [
        _exponential(1000.0, 200.0, 350.0),
        _exponential(1900.0, 350.0, 480.0),
        _exponential(2300.0, 410.0, 540.0),
    ]
    return BundledInstance(
        instance_id="tab1",
        description="three agents, exponential costs, clamped optimum",
        problem=_problem(1150.0, _PATH3, agents),
        drd_step=None,
        reference=_reference(
            [350.0, 382.4, 417.6],
            decimals=3,
            # per-agent clamp thresholds in the log coordinate
            keys_lower=(1.897, 2.682, 2.873),
            keys_upper=(2.897, 3.682, 3.873),
            masses=(960.0, 1077.732, 1131.202, 1141.043, 1345.153, 1370.0),
            slopes=(6.6677e-3, 3.5721e-3, 2.4388e-3, 3.8460e-3, 7.6870e-3),
            key_tol=1e-3,
            mass_tol=0.01,
            slope_tol=1e-6,
            allocation_tol=0.1,
        ),
    )


def _tab3() -> BundledInstance:
    # the paper's vertex form coeff*(w - lower)^2 + linear*w has a = 2*coeff
    agents = [
        _quadratic(2 * 0.003, 5.0, 200.0, 350.0),
        _quadratic(2 * 0.004, 5.4, 350.0, 480.0),
        _quadratic(2 * 0.005, 5.6, 410.0, 540.0),
    ]
    return BundledInstance(
        instance_id="tab3",
        description="three agents, quadratic costs, interior optimum at clamp edge",
        problem=_problem(1150.0, _PATH3, agents),
        drd_step=None,
        reference=_reference(
            [327.7, 395.7, 426.6],
            decimals=3,
            keys_lower=(5.0, 5.4, 5.6),
            keys_upper=(5.9, 6.44, 6.9),
            masses=(960.0, 1026.667, 1085.0, 1202.5, 1324.0, 1370.0),
            slopes=(6.0e-3, 3.4286e-3, 2.5532e-3, 4.4444e-3, 10.0e-3),
            key_tol=0.01,
            mass_tol=0.01,
            slope_tol=1e-6,
            allocation_tol=0.1,
        ),
    )


_BUILDERS = {"fig2": _fig2, "fig3": _fig3, "tab1": _tab1, "tab3": _tab3}


def instance_ids() -> list[str]:
    return sorted(_BUILDERS)


@functools.cache
def get_instance(instance_id: str) -> BundledInstance:
    """The instance of this id, built on the first call and shared read-only after it."""
    try:
        builder = _BUILDERS[instance_id]
    except KeyError:
        raise UnknownExampleError(instance_id, instance_ids()) from None
    return builder()
