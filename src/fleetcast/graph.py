"""Time-expanded connectivity graph and its virtual-terminal augmentation.

Vertices are (uav, time) pairs. Connectivity edges join two distinct UAVs
within one time unit and cost the per-packet energy of the smallest
transmitter subrange containing the receiver; caching edges join consecutive
time copies of one UAV at zero cost. The augmented graph adds one virtual
source per information (fanning out to all its gatherable copies) and one
virtual destination per (information, destination UAV) pair (fanning in from
all time copies of that UAV), all at zero weight, so multi-source
multi-destination questions reduce to single-source single-target ones.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import ScenarioError
from .radio import subrange_weight
from .scenario import InfoSpec, Scenario

CONNECTIVITY = "connectivity"
CACHING = "caching"
VIRTUAL = "virtual"

# integer kind codes for hot loops
KIND_CONNECTIVITY = 0
KIND_CACHING = 1
KIND_VIRTUAL = 2
_KIND_CODE = {CONNECTIVITY: KIND_CONNECTIVITY, CACHING: KIND_CACHING,
              VIRTUAL: KIND_VIRTUAL}


@dataclass(frozen=True, slots=True)
class Edge:
    index: int
    tail: int
    head: int
    kind: str
    weight: float
    time: int | None        # layer of the tail vertex; None for virtual edges
    subrange: int | None    # 1-based subrange index; connectivity edges only


class TimeExpandedGraph:
    """Immutable time-expanded graph over all (uav, time) vertices.

    Edge indices follow a fixed construction order (by time layer, then tail
    UAV, then head UAV) so that anything keyed on them is reproducible.
    """

    def __init__(self, scenario: Scenario, edges, out_edges, in_edges, conn_by_time):
        self.scenario = scenario
        self.uav_count = scenario.uav_count
        self.horizon = scenario.horizon
        self.channels = scenario.channels
        self.cache_capacity = scenario.cache_capacity
        self.edges = edges
        self.out_edges = out_edges
        self.in_edges = in_edges
        self.conn_by_time = conn_by_time
        self.real_vertex_count = self.uav_count * self.horizon
        self.vertex_count = self.real_vertex_count
        self.real_edge_count = len(edges)
        self.edge_index_by_pair = {(e.tail, e.head): e.index for e in edges}
        self._build_edge_arrays()

    def _build_edge_arrays(self):
        # parallel flat arrays over edge indices, for solver hot loops
        self.edge_tail = [e.tail for e in self.edges]
        self.edge_head = [e.head for e in self.edges]
        self.edge_kind = [_KIND_CODE[e.kind] for e in self.edges]
        self.edge_weight = [e.weight for e in self.edges]
        self.edge_time = [-1 if e.time is None else e.time for e in self.edges]

    def vertex_id(self, uav: int, time: int) -> int:
        return uav * self.horizon + time

    def vertex_uav_time(self, vertex: int) -> tuple[int, int]:
        return divmod(vertex, self.horizon)

    def vertex_label(self, vertex: int) -> str:
        u, t = self.vertex_uav_time(vertex)
        return f"({u},{t})"


class AugmentedGraph(TimeExpandedGraph):
    """A time-expanded graph extended with virtual sources and destinations."""

    def __init__(self, base: TimeExpandedGraph, infos, edges, out_edges, in_edges,
                 source_vertex, dest_vertex, vertex_count):
        self.base = base
        self.scenario = base.scenario
        self.uav_count = base.uav_count
        self.horizon = base.horizon
        self.channels = base.channels
        self.cache_capacity = base.cache_capacity
        self.edges = edges
        self.out_edges = out_edges
        self.in_edges = in_edges
        self.conn_by_time = base.conn_by_time
        self.real_vertex_count = base.real_vertex_count
        self.vertex_count = vertex_count
        self.real_edge_count = base.real_edge_count
        self.edge_index_by_pair = base.edge_index_by_pair
        self.infos = infos
        self.source_vertex = source_vertex   # info id -> virtual vertex
        self.dest_vertex = dest_vertex       # (info id, uav) -> virtual vertex
        self._build_edge_arrays()

    def info_by_id(self, info_id: int) -> InfoSpec:
        for info in self.infos:
            if info.id == info_id:
                return info
        raise KeyError(f"unknown info id {info_id}")

    def vertex_label(self, vertex: int) -> str:
        if vertex < self.real_vertex_count:
            return super().vertex_label(vertex)
        for info_id, v in self.source_vertex.items():
            if v == vertex:
                return f"s_{info_id}"
        for (info_id, u), v in self.dest_vertex.items():
            if v == vertex:
                return f"d_{info_id}_{u}"
        return f"v{vertex}"


def build_time_expanded_graph(scenario: Scenario) -> TimeExpandedGraph:
    """Construct the time-expanded graph for a scenario.

    A connectivity edge (u,t)->(u',t) exists when the receiver sits within the
    transmitter's outermost subrange at time t; its weight is the per-packet
    energy of the smallest enclosing subrange. Each UAV also gets a
    zero-weight caching edge into its next time copy.
    """
    horizon = scenario.horizon
    uav_count = scenario.uav_count
    vertex_count = uav_count * horizon
    edges: list[Edge] = []
    out_edges = [[] for _ in range(vertex_count)]
    in_edges = [[] for _ in range(vertex_count)]
    conn_by_time = [[] for _ in range(horizon)]

    radii = [scenario.radii_for(u) for u in range(uav_count)]
    weights = [
        tuple(subrange_weight(scenario.radio, r) for r in radii[u])
        for u in range(uav_count)
    ]

    for t in range(horizon):
        layer = [scenario.trajectories[u][t] for u in range(uav_count)]
        for u in range(uav_count):
            tail = u * horizon + t
            for u2 in range(uav_count):
                if u2 == u:
                    if t + 1 < horizon:
                        head = u * horizon + t + 1
                        edge = Edge(len(edges), tail, head, CACHING, 0.0, t, None)
                        edges.append(edge)
                        out_edges[tail].append(edge.index)
                        in_edges[head].append(edge.index)
                    continue
                dist = math.dist(layer[u], layer[u2])
                r = radii[u]
                if dist > r[-1]:
                    continue
                k = bisect_left(r, dist)
                head = u2 * horizon + t
                edge = Edge(len(edges), tail, head, CONNECTIVITY,
                            weights[u][k], t, k + 1)
                edges.append(edge)
                out_edges[tail].append(edge.index)
                in_edges[head].append(edge.index)
                conn_by_time[t].append(edge.index)

    return TimeExpandedGraph(scenario, edges, out_edges, in_edges, conn_by_time)


def augment(graph: TimeExpandedGraph, infos) -> AugmentedGraph:
    """Attach virtual source/destination terminals for the given infos."""
    infos = tuple(sorted(infos, key=lambda i: i.id))
    seen = set()
    for info in infos:
        if info.id in seen:
            raise ScenarioError(f"duplicate info id {info.id}")
        seen.add(info.id)
        if not info.sources or not info.destinations:
            raise ScenarioError(f"info {info.id}: sources and destinations "
                                "must be nonempty")
        for u, t in info.sources:
            if not (0 <= u < graph.uav_count and 0 <= t < graph.horizon):
                raise ScenarioError(
                    f"info {info.id}: source ({u},{t}) outside the graph")
        for u in info.destinations:
            if not 0 <= u < graph.uav_count:
                raise ScenarioError(f"info {info.id}: destination UAV {u} "
                                    "does not exist")

    edges = list(graph.edges)
    out_edges = [list(adj) for adj in graph.out_edges]
    in_edges = [list(adj) for adj in graph.in_edges]
    source_vertex: dict[int, int] = {}
    dest_vertex: dict[tuple[int, int], int] = {}
    next_vertex = graph.real_vertex_count

    def add_vertex():
        nonlocal next_vertex
        out_edges.append([])
        in_edges.append([])
        v = next_vertex
        next_vertex += 1
        return v

    def add_edge(tail, head):
        edge = Edge(len(edges), tail, head, VIRTUAL, 0.0, None, None)
        edges.append(edge)
        out_edges[tail].append(edge.index)
        in_edges[head].append(edge.index)

    for info in infos:
        s = add_vertex()
        source_vertex[info.id] = s
        for u, t in sorted(info.sources):
            add_edge(s, graph.vertex_id(u, t))
    for info in infos:
        for u in sorted(info.destinations):
            d = add_vertex()
            dest_vertex[(info.id, u)] = d
            for t in range(graph.horizon):
                add_edge(graph.vertex_id(u, t), d)

    return AugmentedGraph(graph, infos, edges, out_edges, in_edges,
                          source_vertex, dest_vertex, next_vertex)


def collision_set(graph: TimeExpandedGraph, t: int) -> frozenset[int]:
    """Connectivity edges sharing time unit t: at most `channels` may be active."""
    if not 0 <= t < graph.horizon:
        raise ValueError(f"time {t} outside horizon {graph.horizon}")
    return frozenset(graph.conn_by_time[t])


def _shortest_paths(graph, seeds, adjacency, ends, deleted, power, channel_used,
                    layer_delta, target=None):
    """Cheapest paths between the zero-cost `seeds` and every other vertex.

    Direction is data: `out_edges` with `edge_head` walks forward from the
    seeds, `in_edges` with `edge_tail` walks backward to them. Connectivity
    steps cost the weight minus the walked vertex's residual `power` (never
    below zero). Virtual vertices other than `target` are dead ends. The
    discount is keyed on the vertex being walked, which is the tail of a
    forward edge but the head of a backward one, so backward callers pass an
    empty residual state.

    Channel budget: connectivity edges stay inside one time unit, so every
    connectivity edge in `adjacency[v]` lies in v's own layer, `v % horizon`,
    in either direction. Whether that layer's `channel_used` plus
    `layer_delta` leaves a free channel is therefore decided once per
    settled vertex; if not, none of its connectivity edges is walked.

    Deletions: `deleted` vertices are marked settled before the search, so
    no edge ever enters one. This is exact only if no seed is deleted, which
    callers guarantee (greedy seeds are the virtual source and vertices its
    current tree reached through undeleted heads; backward callers pass no
    deletions).

    Stop rule: the search ends when `target` is settled, or earlier, at the
    first zero-cost virtual edge into it. That edge leaves a vertex settled
    at distance d and gives `target` distance d; every later pop is at d or
    more and a tie never replaces a parent, so that distance and parent are
    final. The parents of settled vertices are final too, so the path walked
    back from `target` is the one a full search would give; other entries of
    `dist` and `parent` are meaningful only when `target` is None.

    Returns (dist, parent): parent[v] is the edge that reached v, -1 for the
    seeds and for unreached vertices.
    """
    inf = math.inf
    dist = [inf] * graph.vertex_count
    parent = [-1] * graph.vertex_count
    done = bytearray(graph.vertex_count)
    for v in deleted:
        done[v] = 1
    heap = [(0.0, v) for v in seeds]
    heapify(heap)
    for _, v in heap:
        dist[v] = 0.0
    kinds = graph.edge_kind
    weights = graph.edge_weight
    horizon = graph.horizon
    channels = graph.channels
    real_vertex_count = graph.real_vertex_count
    while heap:
        d, v = heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        if v == target:
            break
        t = v % horizon
        layer_open = channel_used[t] + layer_delta.get(t, 0) < channels
        v_power = power.get(v, 0.0)
        for e in adjacency[v]:
            head = ends[e]
            if done[head]:
                continue
            kind = kinds[e]
            if kind == 0:  # connectivity
                if not layer_open:
                    continue
                w = weights[e]
                nd = d + (w - v_power) if w > v_power else d
            elif kind == 1 or head < real_vertex_count:  # caching, fan-out
                nd = d
            elif head == target and d < dist[head]:  # final, see stop rule
                dist[head] = d
                parent[head] = e
                return dist, parent
            else:  # other virtual terminals are dead ends
                continue
            if nd < dist[head]:
                dist[head] = nd
                parent[head] = e
                heappush(heap, (nd, head))
    return dist, parent
