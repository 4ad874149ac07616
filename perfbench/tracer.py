"""Span tracing around the public functions of fleetcast's modules.

The tracer times calls into each layer from outside the program: it rebinds
every public module-level function of the layer modules, in every loaded
``fleetcast`` module that holds a reference to it (``fleetcast.cli.greedy_plan``,
``fleetcast.exact.greedy_plan``, the package's re-exports, ...), to a wrapper
that records one span per call. Nothing under ``src/`` is edited, and
``uninstall`` restores the original bindings. Untraced runs never call
``install``.

A span is ``[name, start, end, parent, counts]``: ``name`` is
``"<layer>.<function>"``, times come from ``time.perf_counter``, ``parent``
is the index of the enclosing span (``None`` for an operation's root span)
and ``counts`` holds the work counters read off the call's return value.
Calls made while no operation span is open (the benchmark's own correctness
checks) are passed straight through and leave no span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# The modules of src/fleetcast/ whose public functions are traced. `radio` is
# left out: it is called once per edge from inside graph build, which
# `graph.build_ms` already covers, and a wrapper there would dwarf the work.
LAYERS = ("gen", "scenario", "jsonio", "graph", "heuristic", "exact", "plan",
          "lp", "report", "cli")

ROOT_LAYER = "bench"


def _greedy_counts(report):
    served = 0 if report.plan is None else len(report.plan.activations)
    return {"restarts": report.restarts or 0, "served": served}


# Work counters read off return values, keyed by span name.
COUNTERS = {
    "graph.augment": lambda graph: {"edges": len(graph.edges)},
    "heuristic.greedy_plan": _greedy_counts,
    "exact.solve_exact": lambda report: {"nodes": report.nodes or 0},
    "lp.export_lp": lambda text: {"bytes": len(text.encode("utf-8"))},
}


class Tracer:
    """Records spans in memory; see the module docstring for their layout."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    @contextmanager
    def operation(self, label: str):
        """Root span around one benchmark operation."""
        record = [f"{ROOT_LAYER}.{label}", perf_counter(), 0.0, None, {}]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            record = [name, perf_counter(), 0.0, stack[-1], {}]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[4] = counter(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded fleetcast module."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fleetcast" or name.startswith("fleetcast.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"fleetcast.{layer}"]
            for fname, obj in vars(module).items():
                if (inspect.isfunction(obj) and not fname.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{fname}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(end - start) - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics, per round, from the spans of `rounds` traced rounds.

    Every `_ms` value is self time in milliseconds summed over the spans it
    names, divided by `rounds`; counts are divided the same way.
    """
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    ms: dict[str, float] = {}
    layer_ms = {layer: 0.0 for layer in LAYERS + (ROOT_LAYER,)}
    counts = {"edges": 0, "restarts": 0, "served": 0, "nodes": 0, "bytes": 0}
    tree_calls = 0
    order_ms = tree_ms = warm_ms = 0.0
    for i, (name, start, end, parent, span_counts) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_ms = selfs[i] * 1e3
        layer_ms[layer] += self_ms
        ms[name] = ms.get(name, 0.0) + self_ms
        for key, value in span_counts.items():
            counts[key] += value
        parent_name = None if parent is None else names[parent]
        if name == "heuristic.build_tree":
            tree_calls += 1
            if parent_name == "heuristic.order_information":
                order_ms += self_ms
            else:
                tree_ms += self_ms
        elif name == "heuristic.order_information":
            order_ms += self_ms
        elif (name == "heuristic.greedy_plan"
              and parent_name == "exact.solve_exact"):
            warm_ms += (end - start) * 1e3

    def f(name):
        return ms.get(name, 0.0)

    search_ms = f("exact.solve_exact")
    per_run = {
        "graph.build_ms": f("graph.build_time_expanded_graph"),
        "graph.augment_ms": f("graph.augment"),
        "graph.edges": counts["edges"],
        "heuristic.order_ms": order_ms,
        "heuristic.tree_ms": tree_ms,
        "heuristic.tree_calls": tree_calls,
        "heuristic.greedy_self_ms": f("heuristic.greedy_plan"),
        "heuristic.restarts": counts["restarts"],
        "exact.warm_ms": warm_ms,
        "exact.search_ms": search_ms,
        "exact.nodes": counts["nodes"],
        "plan.check_ms": f("plan.check_feasibility"),
        "plan.cost_ms": f("plan.plan_cost"),
        "lp.export_ms": f("lp.export_lp"),
        "lp.lint_ms": f("lp.lint_lp"),
        "lp.bytes": counts["bytes"],
        "gen.generate_ms": f("gen.generate_scenario"),
        "scenario.load_ms": f("scenario.load_scenario") + f("scenario.scenario_from_dict"),
        "scenario.save_ms": f("scenario.save_scenario") + f("scenario.scenario_to_dict"),
        "jsonio.read_ms": f("jsonio.read_json"),
        "jsonio.write_ms": f("jsonio.write_json") + f("jsonio.canonical_dumps"),
        "report.save_ms": f("report.save_report") + f("report.report_to_dict"),
        "cli.self_ms": layer_ms["cli"],
    }
    for layer, value in layer_ms.items():
        per_run[f"{layer}.self_ms"] = value
    out = {name: value / rounds for name, value in per_run.items()}
    # ratios are taken over all traced rounds, so they need no division
    out["heuristic.tree_useful_ratio"] = (
        counts["served"] / tree_calls if tree_calls else 0.0)
    out["exact.nodes_per_s"] = (
        counts["nodes"] / (search_ms / 1e3) if search_ms > 0 else 0.0)
    out["trace.spans"] = len(spans) / rounds
    return out
