"""Distributed replicator dynamics over the interaction graph.

Each agent adjusts its load in proportion to its own mass times the gap
between its fitness and the neighbor-weighted mean fitness::

    w_i(t+1) = w_i(t) + dt * (w_i/w) * (f_i * sum_{j in N_i} w_j
                                        - sum_{j in N_i} f_j * w_j)

All agents update synchronously from the same state. The sum of loads is
conserved (edge terms cancel pairwise) and coordinates that start at zero
stay at zero. The iteration stops when the fitness spread among agents
carrying mass falls below the residual tolerance.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NodeOutOfRangeError, StepOverflowError
from .problem import (
    AllocationProblem,
    as_allocation,
    default_tol,
    fitness_values,
    in_simplex,
    total_cost,
    total_cost_batch,
)

log = logging.getLogger(__name__)

MASS_FLOOR_REL = 1e-9  # loads below this fraction of w count as zero mass


@dataclass(frozen=True)
class DrdConfig:
    """Discretization step, iteration cap, stop tolerance, trace decimation."""

    step: float
    max_steps: int = 10_000_000
    residual_tol: float = 1e-6
    record_every: int = 100

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.residual_tol > 0:
            raise ValueError(f"residual_tol must be positive, got {self.residual_tol}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class Trajectory:
    """Decimated trace of a simulation run."""

    times: np.ndarray  # recorded step indices, strictly increasing
    states: np.ndarray  # (k, n) allocations at those steps
    costs: np.ndarray  # total cost at each recorded state
    residuals: np.ndarray  # fitness spread at each recorded state
    lyapunov: np.ndarray | None  # C(W) - C(reference), when a reference was given
    converged: bool
    final: np.ndarray
    steps: int  # index of the last simulated state
    dt: float


def local_mean_fitness(p: AllocationProblem, w, i: int) -> float:
    """Neighbor-weighted mean payoff seen by agent i: sum_{j in N_i} f_j w_j / w."""
    arr = as_allocation(p, w)
    if not 0 <= i < p.n:
        raise NodeOutOfRangeError(i, p.n)
    f = fitness_values(p, arr)
    row = p.graph.adjacency[i]
    return float((row * f * arr).sum() / p.total)


def nash_residual(p: AllocationProblem, w) -> float:
    """Largest fitness advantage any agent holds over a mass-carrying agent.

    Zero exactly when every agent with positive mass attains the maximal
    fitness; "positive" means above a floor of 1e-9 * w.
    """
    arr = as_allocation(p, w)
    f = fitness_values(p, arr)
    mass = arr > MASS_FLOOR_REL * p.total
    if not mass.any():
        return 0.0
    return float(max(0.0, f.max() - f[mass].min()))


def lyapunov_value(p: AllocationProblem, w, wstar) -> float:
    """C(W) - C(W*); nonnegative when W* is the true minimizer."""
    return total_cost(p, w) - total_cost(p, wstar)


def drd_step(p: AllocationProblem, w, dt: float) -> np.ndarray:
    """One synchronous replicator step; raises StepOverflowError if any
    load would turn negative or non-finite (step size too large)."""
    arr = as_allocation(p, w)
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    f = fitness_values(p, arr)
    nxt = arr + dt * _drift(p.graph.adjacency.astype(float), arr, f, p.total)
    bad = ~np.isfinite(nxt) | (nxt < 0)
    if bad.any():
        raise StepOverflowError(np.flatnonzero(bad).tolist())
    return nxt


def _drift(adj: np.ndarray, w: np.ndarray, f: np.ndarray, total: float) -> np.ndarray:
    """Replicator drift dw/dt for loads w with fitness f, on a float adjacency."""
    return (w / total) * (f * (adj @ w) - adj @ (f * w))


def default_start(p: AllocationProblem) -> np.ndarray:
    """Strictly interior start: box widths plus a uniform shift, scaled to sum w.

    The shift keeps every coordinate positive even for zero-width boxes and
    keeps the start away from structured fixed points.
    """
    span = p.upper_bounds - p.lower_bounds
    shift = 0.1 * span.mean() if span.sum() > 0 else 1.0
    base = span + shift
    return p.total * base / base.sum()


def simulate(
    p: AllocationProblem,
    w0,
    cfg: DrdConfig,
    reference=None,
) -> Trajectory:
    """Iterate replicator steps until the Nash residual drops below
    cfg.residual_tol or cfg.max_steps is hit.

    w0 must lie on the simplex (nonnegative, summing to w); a strictly
    positive start is needed to reach the interior equilibrium, since
    zero-mass coordinates never move. When `reference` is given, the
    recorded trace carries C(W) - C(reference) as a Lyapunov diagnostic.
    """
    state = as_allocation(p, w0).copy()
    if not in_simplex(p, state):
        raise ValueError("w0 must lie on the simplex (nonnegative, summing to w)")

    adj = p.graph.adjacency.astype(float)
    marginal = p._costs.marginal  # bound once: this loop runs millions of steps
    total = p.total
    tol = cfg.residual_tol
    dt = cfg.step
    floor = MASS_FLOOR_REL * total
    lo = p.lower_bounds
    up = p.upper_bounds
    box_tol = default_tol(p)

    rec_steps: list[int] = []
    rec_states: list[np.ndarray] = []
    rec_residuals: list[float] = []
    left_box_logged = False

    converged = False
    step_idx = 0
    while True:
        f = -marginal(state)
        mass = state > floor
        residual = max(0.0, float(f.max()) - float(f[mass].min())) if mass.any() else 0.0

        record = step_idx % cfg.record_every == 0
        done = residual <= tol or step_idx >= cfg.max_steps
        if record or done:
            rec_steps.append(step_idx)
            rec_states.append(state.copy())
            rec_residuals.append(residual)
            if not left_box_logged and (
                np.any(state < lo - box_tol) or np.any(state > up + box_tol)
            ):
                left_box_logged = True
                log.info(
                    "trajectory left the box constraints at step %d "
                    "(allowed: costs extend smoothly)",
                    step_idx,
                )
        if done:
            converged = residual <= tol
            break

        nxt = state + dt * _drift(adj, state, f, total)
        bad = ~np.isfinite(nxt) | (nxt < 0)
        if bad.any():
            raise StepOverflowError(np.flatnonzero(bad).tolist(), step_index=step_idx)
        state = nxt
        step_idx += 1

    states = np.array(rec_states)
    costs = total_cost_batch(p, states)
    lyap = None
    if reference is not None:
        lyap = costs - total_cost(p, reference)
    return Trajectory(
        times=np.array(rec_steps, dtype=np.int64),
        states=states,
        costs=costs,
        residuals=np.array(rec_residuals),
        lyapunov=lyap,
        converged=converged,
        final=state,
        steps=step_idx,
        dt=dt,
    )


def write_trace_csv(traj: Trajectory, p: AllocationProblem, path) -> None:
    """CSV trace: step,t,w_1,...,w_n,C,V,residual with full precision.

    When the run had no Lyapunov reference, V is reported relative to the
    smallest recorded cost (same shape, shifted zero).
    """
    lyap = traj.lyapunov
    if lyap is None:
        lyap = traj.costs - traj.costs.min()
    header = "step,t," + ",".join(f"w_{i + 1}" for i in range(p.n)) + ",C,V,residual"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for k, step in enumerate(traj.times):
            row = [str(int(step)), _fmt(step * traj.dt)]
            row += [_fmt(x) for x in traj.states[k]]
            row += [_fmt(traj.costs[k]), _fmt(lyap[k]), _fmt(traj.residuals[k])]
            fh.write(",".join(row) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.15g}"
