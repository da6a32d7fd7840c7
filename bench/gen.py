"""Seeded input generator for the taskalloc benchmark.

Every generated instance is emitted as problem JSON text (the format
``taskalloc.parse_problem`` and ``--input`` read), so the program only
ever sees the generated inputs, never the generator's state. The same
seed gives byte-identical text.

Instances are never filtered or re-drawn because they fail today: a
failing instance is a measured defect, not noise.

Sizes are drawn by stratified sampling (one draw inside each of N equal
slices of the log-uniform range) rather than N independent draws. The
marginal law is the same, but the O(n^2) work of a run then varies by a
few percent between seeds instead of by a factor of two, which keeps the
end-to-end metrics comparable across seeds.
"""

import json
import math

import numpy as np

EXP = "exponential"
QUAD = "quadratic"
MIXED = "mixed"

# Share of each family among waterfill instances: 40 % exponential,
# 40 % quadratic, 20 % mixed. The pattern repeats along the size strata in
# a fixed order, so every size range has the same mix and every seed puts
# the same family at the largest n. (An exponential table costs ~1.4x a
# quadratic one of the same n, so a seeded order moved run_s by ~30 %.)
_FAMILY_CYCLE = (EXP, QUAD, MIXED, EXP, QUAD)

# ROADMAP item 4b found mixed-family bisection failures at coefficient
# and box scales spread over 10^-3 .. 10^6; draw both scales from there.
_SCALE_LOG10 = (-3.0, 6.0)


def ring_with_chords(rng, n: int, chords: int) -> list[list[int]]:
    """1-based edge list: the ring 1..n (n >= 3) plus `chords` random extra edges."""
    edges = [[i + 1, (i + 1) % n + 1] for i in range(n)]
    for _ in range(chords):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append([int(i) + 1, int(j) + 1])
    return edges


def evenly_chorded_ring(n: int, chords: int) -> list[list[int]]:
    """1-based edge list: the ring 1..n plus `chords` chords to the opposite
    node, spread evenly round the ring. The graph depends on n alone."""
    edges = [[i + 1, (i + 1) % n + 1] for i in range(n)]
    for k in range(chords):
        i = k * n // chords
        edges.append([i + 1, (i + n // 2) % n + 1])
    return edges


def stratified(rng, lo: float, hi: float, n: int, order=None) -> np.ndarray:
    """n uniform draws on [lo, hi], one inside each of n equal slices, the
    slices in random order (or in `order`): the law of each draw is
    uniform, but the spread of the set is the same for every seed."""
    order = rng.permutation(n) if order is None else order
    return lo + (hi - lo) * (order + rng.uniform(size=n)) / n


def problem_text(total: float, n: int, edges, agents) -> str:
    """Serialize one instance; floats keep every digit (repr round-trips)."""
    return json.dumps({"total": total, "graph": {"n": n, "edges": edges}, "agents": agents})


def stratified_log_sizes(rng, count: int, lo: int, hi: int) -> list[int]:
    """One log-uniform draw inside each of `count` equal log-slices of [lo, hi]."""
    span = math.log(hi) - math.log(lo)
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return [int(round(math.exp(math.log(lo) + span * x))) for x in u]


def wide_scale_problem(rng, n: int, family: str) -> str:
    """Waterfill instance: one coefficient scale A and one box scale B per
    instance, log-uniform on 10^-3..10^6; agents vary within a decade.

    Exponential coefficients are tied to A*B*span so that, in a mixed
    instance, exponential and quadratic marginal ranges overlap and the
    bisection has real work to do instead of clamping every agent.
    """
    coeff = 10.0 ** rng.uniform(*_SCALE_LOG10)
    box = 10.0 ** rng.uniform(*_SCALE_LOG10)
    agents = []
    for _ in range(n):
        fam = family if family != MIXED else (EXP if rng.uniform() < 0.5 else QUAD)
        lower = box * rng.uniform(0.0, 1.0)
        span = box * 10.0 ** rng.uniform(-1.0, 0.0)
        if fam == EXP:
            a = coeff * box * span * 10.0 ** rng.uniform(-0.5, 0.5)
            agents.append({"family": EXP, "a": a, "lower": lower, "upper": lower + span})
        else:
            a = coeff * 10.0 ** rng.uniform(-0.5, 0.5)
            b = coeff * box * 10.0 ** rng.uniform(-1.0, 0.0)
            agents.append(
                {"family": QUAD, "a": a, "b": b, "lower": lower, "upper": lower + span}
            )
    lo_sum = sum(x["lower"] for x in agents)
    span_sum = sum(x["upper"] - x["lower"] for x in agents)
    total = lo_sum + rng.uniform(0.1, 0.9) * span_sum
    edges = ring_with_chords(rng, n, max(1, n // 10))
    return problem_text(total, n, edges, agents)


def waterfill_inputs(seed: int, count: int, n_lo: int = 10, n_hi: int = 100) -> list[dict]:
    """`count` wide-scale instances with n log-uniform on [n_lo, n_hi]."""
    rng = np.random.default_rng([seed, 1])
    sizes = stratified_log_sizes(rng, count, n_lo, n_hi)
    families = [_FAMILY_CYCLE[k % len(_FAMILY_CYCLE)] for k in range(count)]
    order = rng.permutation(count)
    out = []
    for k in order:
        n, fam = sizes[k], families[k]
        out.append({"n": n, "family": fam, "text": wide_scale_problem(rng, n, fam)})
    return out


def interior_problem(rng, n: int, family: str, chords: int) -> tuple[str, list[float]]:
    """Replicator instance with a known interior optimum.

    As in the bundled fig2/fig3 instances, the equal-marginal level is
    picked first and the total derived from it, so the optimum lies
    strictly inside every box and has a closed form w_i = lower_i +
    t_i * span_i. Returns the JSON text and that optimum.

    * exponential (fig2-style): a_i = span_i * exp(-t_i), so the marginal
      (a_i/span_i) exp((w - lower_i)/span_i) equals 1 at the optimum.
    * quadratic (fig3-style): marginal a_i (w - lower_i) + b_i equals the
      level lam at the optimum, with b_i = lam - a_i t_i span_i > 0.

    The parameters are stratified, and which slice each agent draws from
    and where the chords go are fixed by n: the seed moves every value
    within its slice. Steps to tolerance follow the spread of curvatures,
    their arrangement on the graph and its connectivity; with independent
    draws and random chords they varied fourfold between seeds, and with
    seeded slice orders by 40 %.
    """
    fixed = np.random.default_rng([n, 5])

    def draw(lo, hi):
        return stratified(rng, lo, hi, n, fixed.permutation(n))

    t = draw(0.15, 0.85)
    if family == EXP:
        lower = np.zeros(n)
        span = draw(700.0, 1800.0)
        a = span * np.exp(-t)
        agents = [
            {"family": EXP, "a": float(a[i]), "lower": 0.0, "upper": float(span[i])}
            for i in range(n)
        ]
    else:
        lower = draw(40.0, 700.0)
        span = draw(110.0, 600.0)
        a = draw(0.0013, 0.0132)
        lam = float((a * t * span).max()) + rng.uniform(0.2, 0.9)
        b = lam - a * t * span
        agents = [
            {
                "family": QUAD,
                "a": float(a[i]),
                "b": float(b[i]),
                "lower": float(lower[i]),
                "upper": float(lower[i] + span[i]),
            }
            for i in range(n)
        ]
    optimum = lower + t * span
    total = float(optimum.sum())
    return problem_text(total, n, evenly_chorded_ring(n, chords), agents), optimum.tolist()


def replicator_inputs(seed: int, small: int, large_sizes: list[int]) -> list[dict]:
    """`small` instances with n log-spaced on 6..30 (alternating fig2/fig3
    style), then one instance per entry of `large_sizes`."""
    rng = np.random.default_rng([seed, 2])
    sizes = [int(round(x)) for x in np.geomspace(6, 30, small)] if small else []
    out = []
    for k, n in enumerate(sizes):
        fam = EXP if k % 2 == 0 else QUAD
        # n/3 chords rather than n/10: steps to tolerance fall by half at
        # n = 15..24, which keeps each run to tens of milliseconds
        text, opt = interior_problem(rng, n, fam, max(1, n // 3))
        out.append({"n": n, "family": fam, "text": text, "optimum": opt, "large": False})
    for k, n in enumerate(large_sizes):
        fam = QUAD if k % 2 == 0 else EXP
        text, opt = interior_problem(rng, n, fam, n // 10)
        out.append({"n": n, "family": fam, "text": text, "optimum": opt, "large": True})
    return out


def thin_box_problem(rng, n: int) -> str:
    """Boxes so narrow that the uniform-simplex sampler accepts almost
    nothing, which forces monte_carlo_min onto hit-and-run."""
    lower = rng.uniform(50.0, 150.0, size=n)
    span = rng.uniform(5.0, 15.0, size=n)
    agents = [
        {"family": QUAD, "a": float(rng.uniform(0.005, 0.02)), "b": float(rng.uniform(0.5, 2.0)),
         "lower": float(lower[i]), "upper": float(lower[i] + span[i])}
        for i in range(n)
    ]
    total = float(lower.sum() + rng.uniform(0.3, 0.7) * span.sum())
    return problem_text(total, n, ring_with_chords(rng, n, 1), agents)


def grid_problem(rng, n: int) -> str:
    """Small exponential instance for the grid oracle.

    The spans are fixed fractions of one drawn width, so at the grid's
    width/300 resolution every seed scans the same number of points (with
    free spans the point count, and the op's time, varied fourfold).
    """
    lower = rng.uniform(100.0, 400.0, size=n)
    span = rng.uniform(100.0, 200.0) * np.linspace(0.02, 1.0, n)
    a = rng.uniform(500.0, 3000.0, size=n)
    agents = [
        {"family": EXP, "a": float(a[i]), "lower": float(lower[i]), "upper": float(lower[i] + span[i])}
        for i in range(n)
    ]
    total = float(lower.sum() + rng.uniform(0.3, 0.7) * span.sum())
    return problem_text(total, n, ring_with_chords(rng, n, 0), agents)


def oracle_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    return {"thin8": thin_box_problem(rng, 8), "grid4": grid_problem(rng, 4)}


def cli_input(seed: int, n: int) -> str:
    """One exponential wide-scale instance for `solve --input` (the family
    is fixed: an exponential table costs ~1.4x a quadratic one)."""
    rng = np.random.default_rng([seed, 4])
    return wide_scale_problem(rng, n, EXP)
