"""Greedy dissemination planning.

The driver sorts the informations by a chosen key, then serves them one at a
time by growing a cheapest-path tree from the information's source copies to
a copy of each destination UAV. Committing a tree deletes its vertices so
later trees cannot conflict with it, and fully saturating a time unit's
channel budget deletes that whole layer for subsequent trees. When a tree
cannot be built, the offending information is moved to the front of the list
and the whole pass restarts from scratch.

Orderings:
  mpf  most power first     (standalone tree cost on the pristine graph, desc)
  lpf  least power first    (same key, ascending)
  muf  most UAVs first      (destination count, descending)
  r    random               (seeded uniform shuffle)

Standalone trees are reused. `mpf` and `lpf` build every information's tree
on the pristine graph to order them, and keep each tree with the footprint
`build_tree` records in it: the vertices its walked paths touched (each
path's first vertex and reached copy included) and its connectivity-edge
count per layer. A greedy pass, restarts included, takes the kept tree
instead of building one when none of those vertices is deleted and every
layer t has
`channel_used[t]` plus the tree's count in t at most `channels`. That tree
is exactly what `build_tree` would return; see `_reusable`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .errors import InternalError, PlanStructureError
from .graph import KIND_CONNECTIVITY, TimeExpandedGraph, _shortest_paths
from .jsonio import check_int
from .plan import Plan, _energy, check_feasibility, plan_cost
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
        if self.seed is not None:
            check_int(self.seed, "seed", ValueError)

    def label(self) -> str:
        return self.kind if self.seed is None else f"{self.kind}[{self.seed}]"


@dataclass(frozen=True)
class Tree:
    """One information's committed edge set and its max-rule cost.

    `build_tree` adds the reuse footprint that `_reusable` reads: `touched`,
    the vertices of the walked paths (each path's first vertex and reached
    copy included, since a path can have no edge), and `layers`, the
    connectivity-edge count per time unit as `(t, n)` pairs. Neither takes
    part in equality.
    """
    edges: frozenset
    cost: float
    touched: frozenset = field(default=frozenset(), compare=False)
    layers: tuple = field(default=(), compare=False)


class ResidualState:
    """What earlier trees left behind: deleted vertices and channel usage."""

    def __init__(self, graph: TimeExpandedGraph):
        self.graph = graph
        self.deleted: set[int] = set()
        self.channel_used = [0] * graph.horizon

    def commit(self, tree: Tree) -> None:
        """Absorb a tree: delete its vertices, count its channels.

        A time unit that reaches the channel budget is closed entirely: every
        vertex in it is deleted so later trees cannot route anything through
        that layer, not even cached data. The tree's transmit powers need no
        record: every transmitting vertex is deleted here.
        """
        graph = self.graph
        for e in tree.edges:
            self.deleted.update((graph.edge_tail[e], graph.edge_head[e]))
            if graph.edge_kind[e] == KIND_CONNECTIVITY:
                t = graph.edge_tail[e] % graph.horizon
                self.channel_used[t] += 1
                if self.channel_used[t] >= graph.channels:
                    self.deleted.update(
                        range(t, graph.vertex_count, graph.horizon))


def build_tree(graph: TimeExpandedGraph, info, state: ResidualState):
    """Grow a cheapest-path tree serving every destination of `info`.

    Destinations are visited in ascending UAV id. Each search runs from the
    whole current tree (merged edges are free) as seeds and from the
    information's source copies as late seeds, so a tree vertex keeps a tie
    against a source copy, and ends at the first copy of the destination
    UAV it settles (see `_shortest_paths`). It discounts connectivity edges
    by the power their tail already spends in this tree, skips deleted
    vertices, and skips connectivity edges in channel-saturated time units,
    counted in one list: the state's counts plus the tree's own edges.
    Returns None when some destination is unreachable, or when a single path
    needs more channel slots in one time unit than remain: the search walks
    any unit with a free channel, so several hops in one unit can take its
    count over `channels`, which the slot check sees as each edge is added.
    The second case is common: on the comparison config of
    `tests/test_acceptance.py` it is 27 of `mpf`'s 55 failures over seeds
    1-120.

    The tree carries its reuse footprint (see `Tree`); its `layers` are read
    off the channel list against the state's.

    Every key of the discount map is the tail of a tree edge, so a tree
    vertex and a seed of every later search: the kernel takes discounts on
    its seeds only (see `_shortest_paths`).
    """
    graph.served([info])  # raises for an information the graph lacks
    if state.graph is not graph:
        raise PlanStructureError("residual state belongs to a different graph")

    tails, heads = graph.edge_tail, graph.edge_head
    kinds, weights = graph.edge_kind, graph.edge_weight
    sources = graph.source_vertices(info)
    reached_copies: set[int] = set()  # with the tree's vertices: `touched`
    tree_edges: set[int] = set()
    tree_vertices: set[int] = set()
    power: dict[int, float] = {}      # tail -> max weight it sends in the tree
    used = list(state.channel_used)   # this tree's transmissions included

    for dest_uav in sorted(info.destinations):
        _, parent, reached = _shortest_paths(
            graph, tree_vertices, graph.out_edges, heads, state.deleted,
            power, used, dest_uav, sources)
        if reached < 0:
            return None
        reached_copies.add(reached)  # the path's first vertex if it is empty
        for e in _walk_back(graph, parent, reached):  # every edge is new
            tree_edges.add(e)
            tail = tails[e]
            tree_vertices.update((tail, heads[e]))
            if kinds[e] == KIND_CONNECTIVITY:
                t = tail % graph.horizon
                used[t] += 1
                if used[t] > graph.channels:
                    return None  # the slot check, see the docstring
                if weights[e] > power.get(tail, 0.0):
                    power[tail] = weights[e]

    layers = tuple((t, n - before) for t, (n, before)
                   in enumerate(zip(used, state.channel_used)) if n != before)
    return Tree(frozenset(tree_edges), _energy(power),
                frozenset(tree_vertices | reached_copies), layers)


def _walk_back(graph, parent, target):
    path = []
    v = target
    while parent[v] >= 0:
        e = parent[v]
        path.append(e)
        v = graph.edge_tail[e]
    path.reverse()
    return path


def order_information(graph: TimeExpandedGraph, infos, kind: HeuristicKind, *,
                      standalone: dict | None = None):
    """Permutation of info ids in the order the greedy pass should serve them.

    `mpf` and `lpf` build each information's standalone tree. If
    `standalone` is a dict, it receives info id -> tree for every
    information that has one, for `_reusable`.
    """
    infos = graph.served(infos)
    ids = [info.id for info in infos]  # sorts are stable: ties keep id order
    if kind.kind == "muf":
        return [i.id for i in sorted(infos, key=lambda i: -len(i.destinations))]
    if kind.kind == RANDOM_KIND:
        random.Random(kind.seed).shuffle(ids)
        return ids
    costs = {}
    for info in infos:
        tree = build_tree(graph, info, ResidualState(graph))
        costs[info.id] = math.inf if tree is None else tree.cost
        if tree is not None and standalone is not None:
            standalone[info.id] = tree
    return sorted(ids, key=costs.__getitem__, reverse=kind.kind == "mpf")


def _reusable(tree: Tree, state: ResidualState) -> bool:
    """Whether `build_tree` would return the standalone `tree` on `state`.

    `tree` is one that `build_tree` returned on the pristine graph, so its
    `touched` field holds the vertices its walked paths touched and its
    `layers` field its connectivity-edge count per layer. The answer is yes
    when none of those vertices is deleted and every layer t has
    `channel_used[t]` plus the tree's count in t at most `channels`.

    This is exact. The residual graph only takes steps away from the
    pristine one: it deletes vertices and closes layers, and the tree's own
    power discounts are the same, so every distance is at least its pristine
    value. Destination by destination, each walked path is still there, so
    its vertices keep their float distances (float addition is monotone).
    Every tight in-neighbour in the residual was also tight on the pristine
    graph, with a settle key no smaller, and the pristine parent keeps its
    key. The kernel's parent is the first tight tail in settle order (by
    distance, then id, with the late seeds after the seeds' distance-0
    closure), so the paths, the power map and the fsum cost come out
    unchanged. The channel condition implies the slot check and every
    layer-open test along the paths: a path's new connectivity edge in
    layer t sees at most the tree's count in t, less one, of the tree's own
    edges there. A path with no edge (a source copy that is a
    destination copy) leaves no tree edge, which is why the rule reads the
    touched vertices and not the tree's edges.
    """
    used, channels = state.channel_used, state.graph.channels
    return (state.deleted.isdisjoint(tree.touched)
            and all(used[t] + n <= channels for t, n in tree.layers))


def greedy_plan(graph: TimeExpandedGraph, infos, kind: HeuristicKind,
                max_restarts: int | None = None) -> SolveReport:
    """Run the greedy driver; every FEASIBLE result passes the checker.

    Standalone trees from the ordering stand in for `build_tree` wherever
    `_reusable` says the state leaves them unchanged.
    """
    started = time.perf_counter()
    infos = graph.served(infos)
    by_id = {info.id: info for info in infos}
    if max_restarts is None:
        max_restarts = len(infos)
    check_int(max_restarts, "max_restarts", ValueError, low=0)

    standalone = {}
    queue = order_information(graph, infos, kind, standalone=standalone)
    restarts = 0
    while True:
        state = ResidualState(graph)
        activations: dict[int, frozenset] = {}
        failed = None
        for info_id in queue:
            tree = standalone.get(info_id)
            if tree is None or not _reusable(tree, state):
                tree = build_tree(graph, by_id[info_id], state)
            if tree is None:
                failed = info_id
                break
            activations[info_id] = tree.edges
            state.commit(tree)
        if failed is None:
            plan = Plan({info_id: activations[info_id] for info_id in by_id})
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
