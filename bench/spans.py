"""Span tracing of taskalloc's public functions, from outside the package.

Nothing under ``src/`` is edited. Instead, while a :class:`Tracer` is
installed, each traced public function is rebound to a wrapper in every
module that calls it. Modules that did ``from .x import f`` hold their
own reference, so the name is rebound there too:

* ``cli`` imports ``solve_lambda``, ``breakpoints``, ``total_cost`` and
  ``get_instance`` by name;
* ``lambda_solver`` imports ``diameter`` and ``total_cost`` by name;
* ``drd`` and ``verify`` import ``total_cost_batch`` by name;
* ``instances`` imports ``from_edge_list`` by name.

``CostModel`` methods get plain call counters instead of spans: they run
millions of times per solve, and a span each would swamp the run.

Spans (name, start, end, parent) are kept in memory and written out at
the end. Self time is a span's duration minus the time its direct
children cover; calls are strictly nested on one thread, so children
never overlap.
"""

import contextlib
import os
import time

import taskalloc
from taskalloc import cli, costs, drd, graph, instances, lambda_solver, problem, verify

# (span name, defining module, attribute, other modules that import it by name)
_TRACED = (
    ("problem.parse_problem", problem, "parse_problem", ()),
    ("problem.total_cost", problem, "total_cost", (cli, lambda_solver, drd)),
    ("problem.total_cost_batch", problem, "total_cost_batch", (drd, verify)),
    ("graph.from_edge_list", graph, "from_edge_list", (instances,)),
    ("graph.diameter", graph, "diameter", (lambda_solver,)),
    ("instances.get_instance", instances, "get_instance", (cli,)),
    ("lambda_solver.breakpoints", lambda_solver, "breakpoints", (cli,)),
    ("lambda_solver.solve_lambda", lambda_solver, "solve_lambda", (cli,)),
    ("lambda_solver.select_final", lambda_solver, "select_final", ()),
    ("drd.simulate", drd, "simulate", ()),
    ("drd.write_trace_csv", drd, "write_trace_csv", ()),
    ("verify.kkt_check", verify, "kkt_check", ()),
    ("verify.monte_carlo_min", verify, "monte_carlo_min", ()),
    ("verify.grid_min", verify, "grid_min", ()),
)

_COST_METHODS = (
    "cost",
    "marginal",
    "fitness",
    "inverse_marginal",
    "key_from_lambda",
    "lambda_from_key",
    "key_at_lower",
    "key_at_upper",
    "response_from_key",
)


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self.counts = {}
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its index."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, ""])
        self._stack.append(idx)
        try:
            yield idx
        except BaseException as exc:
            if not getattr(exc, "_bench_counted", False):
                # count each exception once, in the layer it left first
                self.count(f"{name.split('.')[0]}.errors.{type(exc).__name__}")
                exc._bench_counted = True
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    # -- installation ------------------------------------------------------

    def install(self):
        for name, home, attr, importers in _TRACED:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in (home, *importers, taskalloc):
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for meth in _COST_METHODS:
            original = getattr(costs.CostModel, meth)
            self._saved.append((costs.CostModel, meth, original))
            setattr(costs.CostModel, meth, self._counter(original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _counter(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["costs.scalar_calls"] = counts.get("costs.scalar_calls", 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        post = _POST.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as idx:
                out = fn(*args, **kwargs)
                if post is not None:
                    self.spans[idx][4] = post(self, args, kwargs, out) or ""
            return out

        traced.__wrapped__ = fn
        return traced

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - child[k] for k, s in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per span name (and name:tag): calls, inclusive and self seconds."""
        out = {}
        for (name, start, end, parent, tag), self_s in zip(self.spans, self.self_times()):
            for key in (name, f"{name}:{tag}") if tag else (name,):
                row = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["total_s"] += end - start
                row["self_s"] += self_s
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "tag": t}
            for n, s, e, p, t in self.spans
        ]


# Counters recorded from a traced call's arguments and result. Each returns
# the span's tag (or None).


def _post_solve(tr, args, kwargs, res):
    tr.count(f"lambda_solver.solves.{res.method}")
    return res.method


def _post_graph(tr, args, kwargs, g):
    tr.count("graph.adjacency_bytes", int(g.adjacency.nbytes))


def _post_simulate(tr, args, kwargs, traj):
    n = traj.final.shape[0]
    tr.count("drd.steps", int(traj.steps))
    # two dense float64 matvecs of the n x n adjacency per step (computed,
    # not measured bandwidth)
    tr.count("drd.computed_bytes", 16 * n * n * int(traj.steps))


def _post_trace(tr, args, kwargs, out):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tr.count("drd.trace_bytes", os.path.getsize(path))


def _post_mc(tr, args, kwargs, res):
    dump = kwargs.get("dump_path", args[3] if len(args) > 3 else None)
    tr.count("verify.mc_samples", int(res.samples))
    return "dump" if dump is not None else "nodump"


def _post_grid(tr, args, kwargs, res):
    tr.count("verify.grid_points", int(res.samples))


_POST = {
    "lambda_solver.solve_lambda": _post_solve,
    "graph.from_edge_list": _post_graph,
    "drd.simulate": _post_simulate,
    "drd.write_trace_csv": _post_trace,
    "verify.monte_carlo_min": _post_mc,
    "verify.grid_min": _post_grid,
}

LAYER_MODULES = ("costs", "problem", "graph", "lambda_solver", "drd", "verify", "cli")


def per_layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
    s = tracer.summary()
    c = tracer.counts

    def total(key):
        return s.get(key, {}).get("total_s", 0.0)

    def self_s(key):
        return s.get(key, {}).get("self_s", 0.0)

    steps = c.get("drd.steps", 0)
    m = {
        "costs.scalar_calls": (c.get("costs.scalar_calls", 0), "count"),
        "problem.parse_s": (self_s("problem.parse_problem"), "s"),
        "problem.cost_batch_s": (total("problem.total_cost_batch"), "s"),
        "graph.build_s": (total("graph.from_edge_list"), "s"),
        "graph.adjacency_bytes": (c.get("graph.adjacency_bytes", 0), "B"),
        "graph.diameter_s": (total("graph.diameter"), "s"),
        "lambda_solver.breakpoints_s": (total("lambda_solver.breakpoints"), "s"),
    }
    for method in ("interpolation", "table-hit", "bisection"):
        m[f"lambda_solver.solve_s.{method}"] = (
            total(f"lambda_solver.solve_lambda:{method}"),
            "s",
        )
        m[f"lambda_solver.solves.{method}"] = (
            c.get(f"lambda_solver.solves.{method}", 0),
            "count",
        )
    m.update(
        {
            "lambda_solver.select_final_s": (self_s("lambda_solver.select_final"), "s"),
            "drd.simulate_s": (total("drd.simulate"), "s"),
            "drd.steps": (steps, "count"),
            "drd.us_per_step": (1e6 * total("drd.simulate") / steps if steps else 0.0, "us"),
            "drd.computed_bytes_per_step": (
                c.get("drd.computed_bytes", 0) / steps if steps else 0.0,
                "B",
            ),
            "drd.write_trace_s": (total("drd.write_trace_csv"), "s"),
            "drd.trace_bytes": (c.get("drd.trace_bytes", 0), "B"),
            "verify.kkt_s": (total("verify.kkt_check"), "s"),
            "verify.mc_s.nodump": (total("verify.monte_carlo_min:nodump"), "s"),
            "verify.mc_s.dump": (total("verify.monte_carlo_min:dump"), "s"),
            "verify.mc_samples": (c.get("verify.mc_samples", 0), "count"),
            "verify.grid_s": (total("verify.grid_min"), "s"),
            "verify.grid_points": (c.get("verify.grid_points", 0), "count"),
        }
    )
    for sub in ("solve", "simulate", "verify", "reproduce"):
        m[f"cli.self_s.{sub}"] = (self_s(f"cli.{sub}"), "s")
    m["cli.report_bytes"] = (c.get("cli.report_bytes", 0), "B")
    for mod in LAYER_MODULES:
        if mod != "costs":  # CostModel calls are counted, not timed
            m[f"{mod}.self_s"] = (sum(r["self_s"] for k, r in s.items()
                                      if ":" not in k and k.split(".")[0] == mod), "s")
        errs = sum(v for k, v in c.items() if k.startswith(f"{mod}.errors."))
        m[f"{mod}.errors"] = (errs, "count")
    return m
