"""Greedy dissemination planning.

The driver sorts the informations by a chosen key, then serves them one at a
time by growing a cheapest-path tree from the information's virtual source to
all of its virtual destinations. Committing a tree deletes its vertices so
later trees cannot conflict with it, and fully saturating a time unit's
channel budget deletes that whole layer for subsequent trees. When a tree
cannot be built, the offending information is moved to the front of the list
and the whole pass restarts from scratch.

Orderings:
  mpf  most power first     (standalone tree cost on the pristine graph, desc)
  lpf  least power first    (same key, ascending)
  muf  most UAVs first      (destination count, descending)
  r    random               (seeded uniform shuffle)
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .errors import InternalError, PlanStructureError
from .graph import CONNECTIVITY, VIRTUAL, AugmentedGraph, _shortest_paths
from .plan import Plan, check_feasibility, plan_cost
from .report import (HEURISTIC_KINDS, RANDOM_KIND, STATUS_FEASIBLE,
                     STATUS_INFEASIBLE_HEURISTIC, SolveReport)


@dataclass(frozen=True)
class HeuristicKind:
    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in HEURISTIC_KINDS:
            raise ValueError(f"unknown heuristic kind {self.kind!r}; "
                             f"expected one of {HEURISTIC_KINDS}")
        if (self.seed is None) == (self.kind == RANDOM_KIND):
            raise ValueError(f"a seed is required for kind {RANDOM_KIND!r} "
                             "and forbidden for the deterministic kinds")

    def label(self) -> str:
        return self.kind if self.seed is None else f"{self.kind}[{self.seed}]"


@dataclass(frozen=True)
class Tree:
    """One information's committed edge set and its max-rule cost."""
    edges: frozenset
    cost: float


class ResidualState:
    """What earlier trees left behind: deletions, channel usage, vertex power."""

    def __init__(self, graph: AugmentedGraph):
        self.graph = graph
        self.deleted: set[int] = set()
        self.channel_used = [0] * graph.horizon
        self.vertex_power: dict[int, float] = {}

    def commit(self, tree: Tree) -> None:
        """Absorb a tree: delete its vertices, count its channels.

        A time unit that reaches the channel budget is closed entirely: every
        vertex in it is deleted so later trees cannot route anything through
        that layer, not even cached data.
        """
        graph = self.graph
        saturated = set()
        for e in tree.edges:
            edge = graph.edges[e]
            self.deleted.add(edge.tail)
            self.deleted.add(edge.head)
            if edge.kind == CONNECTIVITY:
                self.channel_used[edge.time] += 1
                if self.channel_used[edge.time] >= graph.channels:
                    saturated.add(edge.time)
                prev = self.vertex_power.get(edge.tail, 0.0)
                if edge.weight > prev:
                    self.vertex_power[edge.tail] = edge.weight
        for t in saturated:
            for u in range(graph.uav_count):
                self.deleted.add(graph.vertex_id(u, t))


def build_tree(graph: AugmentedGraph, info, state: ResidualState):
    """Grow a cheapest-path tree serving every destination of `info`.

    Destinations are visited in ascending UAV id. Each search runs from the
    whole current tree (merged edges are free), relaxes connectivity edges at
    the tail's residual power discount, skips deleted vertices, and skips
    connectivity edges in channel-saturated time units. Returns None when some
    destination is unreachable, including the rare case of a single path
    needing more channel slots in one time unit than remain.
    """
    if info.id not in graph.source_vertex:
        raise PlanStructureError(f"info {info.id} is not part of the graph")
    if state.graph is not graph:
        raise PlanStructureError("residual state belongs to a different graph")

    source = graph.source_vertex[info.id]
    tree_edges: set[int] = set()
    tree_vertices: set[int] = set()
    tree_power: dict[int, float] = {}
    layer_delta: dict[int, int] = {}
    power = dict(state.vertex_power)

    for dest_uav in sorted(info.destinations):
        target = graph.dest_vertex[(info.id, dest_uav)]
        _, parent = _shortest_paths(
            graph, sorted(tree_vertices) + [source], graph.out_edges,
            graph.edge_head, state.deleted, power, state.channel_used,
            layer_delta, target)
        if parent[target] < 0:
            return None
        path = _walk_back(graph, parent, target)
        added = {}
        for e in path:
            edge = graph.edges[e]
            if edge.kind == CONNECTIVITY and e not in tree_edges:
                added[edge.time] = added.get(edge.time, 0) + 1
        for t, extra in added.items():
            used = state.channel_used[t] + layer_delta.get(t, 0) + extra
            if used > graph.channels:
                return None  # one path needs more slots than the unit has left
        for e in path:
            edge = graph.edges[e]
            if edge.kind == VIRTUAL or e in tree_edges:
                continue
            tree_edges.add(e)
            if edge.tail < graph.real_vertex_count:
                tree_vertices.add(edge.tail)
            if edge.head < graph.real_vertex_count:
                tree_vertices.add(edge.head)
            if edge.kind == CONNECTIVITY:
                layer_delta[edge.time] = layer_delta.get(edge.time, 0) + 1
                if edge.weight > power.get(edge.tail, 0.0):
                    power[edge.tail] = edge.weight
                if edge.weight > tree_power.get(edge.tail, 0.0):
                    tree_power[edge.tail] = edge.weight

    # same per-vertex maxima and fsum as plan_cost, kept bit-identical
    cost = math.fsum(tree_power[v] for v in sorted(tree_power))
    return Tree(edges=frozenset(tree_edges), cost=cost)


def _walk_back(graph, parent, target):
    path = []
    v = target
    while parent[v] >= 0:
        e = parent[v]
        path.append(e)
        v = graph.edge_tail[e]
    path.reverse()
    return path


def order_information(graph: AugmentedGraph, infos, kind: HeuristicKind):
    """Permutation of info ids in the order the greedy pass should serve them."""
    infos = sorted(infos, key=lambda i: i.id)
    ids = [info.id for info in infos]
    if kind.kind == "muf":
        return [info.id for info in
                sorted(infos, key=lambda i: (-len(i.destinations), i.id))]
    if kind.kind == RANDOM_KIND:
        rng = random.Random(kind.seed)
        rng.shuffle(ids)
        return ids
    standalone = {}
    for info in infos:
        tree = build_tree(graph, info, ResidualState(graph))
        standalone[info.id] = math.inf if tree is None else tree.cost
    if kind.kind == "mpf":
        return sorted(ids, key=lambda i: (-standalone[i], i))
    return sorted(ids, key=lambda i: (standalone[i], i))


def greedy_plan(graph: AugmentedGraph, infos, kind: HeuristicKind,
                max_restarts: int | None = None) -> SolveReport:
    """Run the greedy driver; every FEASIBLE result passes the checker."""
    started = time.perf_counter()
    infos = sorted(infos, key=lambda i: i.id)
    by_id = {info.id: info for info in infos}
    if max_restarts is None:
        max_restarts = len(infos)
    if max_restarts < 0:
        raise ValueError("max_restarts must be nonnegative")

    queue = order_information(graph, infos, kind)
    restarts = 0
    while True:
        state = ResidualState(graph)
        activations: dict[int, frozenset] = {}
        failed = None
        for info_id in queue:
            tree = build_tree(graph, by_id[info_id], state)
            if tree is None:
                failed = info_id
                break
            activations[info_id] = tree.edges
            state.commit(tree)
        if failed is None:
            plan = Plan({info_id: activations.get(info_id, frozenset())
                         for info_id in by_id})
            verdict = check_feasibility(graph, plan)
            if not verdict.feasible:
                raise InternalError(
                    "greedy committed an infeasible plan: "
                    + "; ".join(v.message for v in verdict.violations[:3]))
            return SolveReport(
                method=kind.label(), status=STATUS_FEASIBLE,
                objective=plan_cost(graph, plan), plan=plan,
                runtime_ms=(time.perf_counter() - started) * 1e3,
                restarts=restarts, seed=kind.seed)
        if restarts >= max_restarts:
            return SolveReport(
                method=kind.label(), status=STATUS_INFEASIBLE_HEURISTIC,
                objective=None, plan=None,
                runtime_ms=(time.perf_counter() - started) * 1e3,
                restarts=restarts, seed=kind.seed)
        restarts += 1
        queue = [failed] + [i for i in queue if i != failed]
