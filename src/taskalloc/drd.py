"""Distributed replicator dynamics over the interaction graph.

Each agent adjusts its load in proportion to its own mass times the gap
between its fitness and the neighbor-weighted mean fitness::

    w_i(t+1) = w_i(t) + dt * (w_i/w) * (f_i * sum_{j in N_i} w_j
                                        - sum_{j in N_i} f_j * w_j)

All agents update synchronously from the same state. The sum of loads is
conserved (edge terms cancel pairwise) and coordinates that start at zero
stay at zero. The iteration stops when the fitness spread among agents
carrying mass falls below the residual tolerance.

The fitness is f = -c'(w), and the code reads the marginals g = -f: the
drift is (w_i/w) (sum_j g_j w_j - g_i sum_j w_j), the spread max g over
mass-carrying agents minus min g. Rounding is symmetric in sign, so both
are the fitness forms bit for bit (a zero drift may change sign, which
adding it to a load undoes).

`simulate` steps in blocks of up to 64 states. Each step computes the
marginals its drift needs and writes the next state into a buffer. Once per
block, one row-wise pass finds the first stepped state with a negative or
non-finite load (an overflow), and one row-wise reduction gives the
residual of every state before it. The run stops at the first state that
meets the stop rule; failing that, an overflow raises StepOverflowError
with the first overflowing step and its agents, and the states stepped
after it are discarded. So the trace and the error are the ones a check
after every step would give.

On a few dozen agents a step costs numpy's per-call overhead more than
arithmetic, so the loop calls the cost table's bound marginal, writes the
drift inline, and holds dt and w as 0-d arrays, which ufuncs take faster
than Python floats (the values, and so the bits, are the same).
"""

from dataclasses import dataclass

import numpy as np

from .errors import StepOverflowError
from .problem import (
    AllocationProblem,
    _count,
    _format_rows,
    _positive,
    as_allocation,
    default_tol,
    in_simplex,
    total_cost_batch,
)

MASS_FLOOR_REL = 1e-9  # loads below this fraction of w count as zero mass
RECORD_EVERY = 100  # the trace keeps every RECORD_EVERY-th step (and the last)
_BLOCK_STEPS = 64  # most states whose stop rule one reduction checks
# Most states x agents in one block, so its two buffers hold about 2 MiB;
# from n = 2**16 + 1 agents on, a block is a single state.
_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class DrdConfig:
    """Step and stop tolerance (Python floats, positive and finite) and step cap (an int >= 1)."""

    step: float
    max_steps: int = 10_000_000
    residual_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "step", _positive("step", self.step))
        object.__setattr__(self, "max_steps", _count("max_steps", self.max_steps))
        object.__setattr__(self, "residual_tol", _positive("residual_tol", self.residual_tol))


@dataclass
class Trajectory:
    """Decimated trace of a simulation run."""

    times: np.ndarray  # recorded step indices, strictly increasing
    states: np.ndarray  # (k, n) allocations at those steps
    costs: np.ndarray  # total cost at each recorded state
    residuals: np.ndarray  # fitness spread at each recorded state
    lyapunov: np.ndarray  # V: C(W) less the least recorded cost
    converged: bool
    final: np.ndarray
    steps: int  # index of the last simulated state
    dt: float
    stop: str  # "residual" (met residual_tol) | "max-steps"
    box_exit_step: int | None  # first recorded step outside the box constraints
    residual_evals: int  # block stop-rule reductions the run took


def _spread(G: np.ndarray, W: np.ndarray, floor: float) -> np.ndarray:
    """Fitness spread of each state in W (n,) or (k, n) with marginals G: the
    largest G of an agent carrying more than `floor` minus the least G. A nan
    G, or an inf one where there is mass, gives nan or inf: never converged."""
    most = np.maximum.reduce(G, axis=-1, where=W > floor, initial=-np.inf)
    return most - G.min(axis=-1)


def _first_overflow(stepped: np.ndarray) -> int | None:
    """Row index of the first stepped state, in a (k, n) stack, with a
    negative or non-finite load; None when every row is a valid state."""
    ok = np.isfinite(stepped.sum(axis=1))
    # one minimum over the whole stack first; the row-wise one costs more
    # and is needed only once some load is negative or nan
    if not stepped.min(initial=0.0) >= 0.0:
        ok &= stepped.min(axis=1) >= 0.0
    bad = (~ok).nonzero()[0]
    return int(bad[0]) if bad.size else None


def _overflow_error(nxt: np.ndarray, step_index: int) -> StepOverflowError:
    bad = ~np.isfinite(nxt) | (nxt < 0)
    return StepOverflowError(np.flatnonzero(bad).tolist(), step_index=step_index)


def default_start(p: AllocationProblem) -> np.ndarray:
    """Strictly interior start: box widths plus a uniform shift, scaled to sum w.

    The shift keeps every coordinate positive even for zero-width boxes and
    keeps the start away from structured fixed points. The widths are first
    scaled by a power of two so no sum overflows, which changes no bit
    unless a scaled width falls below the normal floats.
    """
    span = p.upper_bounds - p.lower_bounds
    if span.max() > 0:
        span = np.ldexp(span, -1 - int(np.frexp(span.max())[1]))
    shift = 0.1 * span.mean() if span.sum() > 0 else 1.0
    base = span + shift
    return p.total * base / base.sum()


# Overflow shows as StepOverflowError alone, without numpy warnings; the
# states stepped after an overflow are discarded unchecked.
@np.errstate(all="ignore")
def simulate(p: AllocationProblem, w0, cfg: DrdConfig) -> Trajectory:
    """Iterate replicator steps until the Nash residual drops below
    cfg.residual_tol or cfg.max_steps is hit.

    w0 must lie on the simplex (nonnegative, summing to w); a strictly
    positive start is needed to reach the interior equilibrium, since
    zero-mass coordinates never move. The recorded trace carries V, the
    Lyapunov diagnostic: C(W) less the least recorded cost.
    """
    state = as_allocation(p, w0).copy()
    if not in_simplex(p, state):
        raise ValueError("w0 must lie on the simplex (nonnegative, summing to w)")

    n = p.n
    rows, cols = np.ascontiguousarray(p.graph.adjacency.T)
    marginal = p._costs.marginal
    bincount, add = np.bincount, np.add
    total = np.array(p.total, dtype=float)
    tol = cfg.residual_tol
    dt = np.array(cfg.step, dtype=float)
    max_steps = cfg.max_steps
    floor = MASS_FLOOR_REL * p.total
    box_tol = default_tol(p)
    lo = p.lower_bounds - box_tol
    up = p.upper_bounds + box_tol

    block = min(_BLOCK_STEPS, max(1, _BLOCK_ELEMENTS // n))
    S = np.empty((block + 1, n))  # S[j]: state at step start + j
    S[0] = state
    s_rows = list(S)  # row views, made once

    rec_steps: list[int] = []
    rec_states: list[np.ndarray] = []
    rec_residuals: list[np.ndarray] = []
    box_exit_step = None
    residual_evals = 0

    start = 0
    while True:
        k = min(max_steps - start + 1, block)
        cap = max_steps - start  # index of the state that takes no step
        gs = []
        for j in range(k):
            w = s_rows[j]
            g = marginal(w)
            gs.append(g)
            if j == cap:
                break
            # the drift; each bincount over the adjacency pairs gives
            # every agent's neighbour sum. Arguments are positional
            # (weights, minlength; out), which numpy parses faster.
            nbr_w = bincount(rows, w[cols], n)
            nbr_gw = bincount(rows, (g * w)[cols], n)
            add(w, dt * ((w / total) * (nbr_gw - g * nbr_w)), s_rows[j + 1])
        stepped = len(gs) - (j == cap)
        bad = _first_overflow(S[1 : stepped + 1])
        m = len(gs) if bad is None else bad + 1  # S[:m] are valid states
        G = np.concatenate(gs[:m]).reshape(m, n)  # G[j]: marginals at S[j]
        residuals = _spread(G, S[:m], floor)
        residual_evals += 1
        met = (residuals <= tol).nonzero()[0]
        last = int(met[0]) if met.size else m - 1
        done = met.size > 0 or start + last == max_steps

        keep = list(range(-start % RECORD_EVERY, last + 1, RECORD_EVERY))
        if done and last not in keep:
            keep.append(last)
        if keep:
            kept = S[keep]
            rec_steps.extend(start + i for i in keep)
            rec_states.append(kept)
            rec_residuals.append(residuals[keep])
            if box_exit_step is None:
                outside = ((kept < lo) | (kept > up)).any(axis=1).nonzero()[0]
                if outside.size:
                    box_exit_step = start + keep[outside[0]]
        if done:
            break
        if bad is not None:
            # a converged state before the overflow has ended the run above
            raise _overflow_error(S[m], step_index=start + m - 1)
        S[0] = S[k]
        start += k

    states = np.concatenate(rec_states)
    costs = total_cost_batch(p, states)
    return Trajectory(
        times=np.array(rec_steps, dtype=np.int64),
        states=states,
        costs=costs,
        residuals=np.concatenate(rec_residuals),
        lyapunov=costs - costs.min(),
        converged=met.size > 0,
        final=S[last].copy(),
        steps=start + last,
        dt=cfg.step,
        stop="residual" if met.size else "max-steps",
        box_exit_step=box_exit_step,
        residual_evals=residual_evals,
    )


@np.errstate(all="ignore")  # a step index times dt past the floats reads inf
def write_trace_csv(traj: Trajectory, p: AllocationProblem, path) -> None:
    """CSV trace: step,t,w_1,...,w_n,C,V,residual with full precision, V
    being traj.lyapunov; rows go out via problem._format_rows."""
    header = "step,t," + ",".join(f"w_{i + 1}" for i in range(p.n)) + ",C,V,residual"
    fmt = "%d," + "%.15g," * (p.n + 3) + "%.15g\n"
    cols = (traj.times, traj.times * traj.dt, *traj.states.T,
            traj.costs, traj.lyapunov, traj.residuals)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(_format_rows(fmt, *cols))
