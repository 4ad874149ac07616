"""Time-expanded connectivity graph, and the shortest-path kernel over it.

Vertices are (uav, time) pairs. Connectivity edges join two distinct UAVs
within one time unit and cost the per-packet energy of the smallest
transmitter subrange containing the receiver; caching edges join consecutive
time copies of one UAV at zero cost. A graph also holds the informations
it serves, its scenario's unless `augment` gives it others. A greedy search
for one information starts from all of its source copies and ends at the
first time copy of a destination UAV it settles, so no terminal vertex is
needed.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush

from .errors import PlanStructureError
from .radio import subrange_weight
from .scenario import InfoSpec, Scenario, check_infos

CONNECTIVITY = "connectivity"
CACHING = "caching"

# integer kind codes for hot loops, and their names by code
KIND_CONNECTIVITY = 0
KIND_CACHING = 1
KIND_NAMES = (CONNECTIVITY, CACHING)


@dataclass(frozen=True, eq=False, repr=False)
class TimeExpandedGraph:
    """Immutable time-expanded graph over all (uav, time) vertices, with the
    informations it serves (`infos`, in id order).

    Vertex (u, t) is `u * horizon + t`, in layer `vertex % horizon`. Edges
    are parallel flat lists over the indices `edges`, by which every plan and
    solver names them: `edge_tail`, `edge_head`, `edge_kind` (a KIND_* code)
    and `edge_weight`, ordered by layer, then tail UAV, then head UAV. An
    edge's layer is its tail's. That order keeps each tail's edges
    contiguous, so `out_edges[v]` is the `range` of v's out-edges, and
    `in_edges[v]` is an `array('q')` of v's in-edges in ascending order:
    neither table holds an int object per edge, which at fleet scale would
    be a quarter of the graph's memory. `caching_edge[v]` is v's caching edge
    into v + 1, -1 in the last layer; the last vertex is in the last layer,
    so `caching_edge[v - 1]` is the caching edge into v for every v, -1 in
    the first layer (index -1 included). `min_connectivity_weight`, the
    smallest entry of the builder's subrange-weight table, bounds every
    connectivity weight from below (inf without UAVs). Equality is
    identity; the repr omits the tables.
    """

    uav_count: int
    horizon: int
    channels: int
    cache_capacity: str
    edge_tail: list[int]
    edge_head: list[int]
    edge_kind: list[int]
    edge_weight: list[float]
    out_edges: list[range]
    in_edges: list[array]
    caching_edge: list[int]
    min_connectivity_weight: float
    infos: tuple[InfoSpec, ...]

    @property
    def vertex_count(self) -> int:
        return self.uav_count * self.horizon

    @property
    def edges(self) -> range:
        return range(len(self.edge_tail))

    def edge_index(self, tail: int, head: int) -> int | None:
        """The edge tail->head, or None: a scan of the tail's out-edges."""
        heads = self.edge_head
        return next((e for e in self.out_edges[tail] if heads[e] == head), None)

    def vertex_id(self, uav: int, time: int) -> int:
        return uav * self.horizon + time

    def vertex_uav_time(self, vertex: int) -> tuple[int, int]:
        return divmod(vertex, self.horizon)

    def vertex_label(self, vertex: int) -> str:
        return "({},{})".format(*self.vertex_uav_time(vertex))

    def served(self, infos=None) -> tuple:
        """The graph's own `InfoSpec`s equal to `infos` (any iterable, read
        once; None for all), in id order, each once. Any other information,
        even one with a known id, raises `PlanStructureError`."""
        if infos is None:
            return self.infos
        wanted = set(infos)
        stranger = min((i.id for i in wanted.difference(self.infos)), default=None)
        if stranger is not None:
            raise PlanStructureError(f"info {stranger} is not part of the graph")
        return tuple(info for info in self.infos if info in wanted)

    def info_by_id(self, info_id: int) -> InfoSpec:
        """The graph's information with this id; any other id raises
        `PlanStructureError`."""
        for info in self.infos:
            if info.id == info_id:
                return info
        raise PlanStructureError(f"plan references unknown info {info_id}")


def build_time_expanded_graph(scenario: Scenario) -> TimeExpandedGraph:
    """Construct the time-expanded graph for a scenario, serving the
    scenario's informations.

    A connectivity edge (u,t)->(u',t) exists when the receiver sits within the
    transmitter's outermost subrange at time t; its weight is the per-packet
    energy of the smallest enclosing subrange. Each UAV also gets a
    zero-weight caching edge into its next time copy.
    """
    horizon, uav_count = scenario.horizon, scenario.uav_count
    tails, heads, kinds, weights = [], [], [], []
    out_edges = [range(0)] * (uav_count * horizon)
    in_edges = [array("q") for _ in range(uav_count * horizon)]
    caching_edge = [-1] * (uav_count * horizon)
    first = 0  # the next tail's first edge

    radii = [scenario.radii_for(u) for u in range(uav_count)]
    weight_of = [[subrange_weight(scenario.radio, r) for r in rs] for rs in radii]

    for t in range(horizon):
        layer = [traj[t] for traj in scenario.trajectories]
        ids = [u * horizon + t for u in range(uav_count)]
        for u in range(uav_count):
            tail, position, r = ids[u], layer[u], radii[u]
            for u2 in range(uav_count):
                if u2 == u:
                    if t + 1 == horizon:
                        continue
                    head, kind, weight = tail + 1, KIND_CACHING, 0.0
                    e = caching_edge[tail] = len(tails)
                else:
                    dist = math.dist(position, layer[u2])
                    if dist > r[-1]:
                        continue
                    head, kind = ids[u2], KIND_CONNECTIVITY
                    weight = weight_of[u][bisect_left(r, dist)]
                    e = len(tails)
                tails.append(tail)
                heads.append(head)
                kinds.append(kind)
                weights.append(weight)
                in_edges[head].append(e)
            end = len(tails)  # adjacent ranges share their bound
            out_edges[tail] = range(first, end)
            first = end

    min_weight = min((w for ws in weight_of for w in ws), default=math.inf)
    return TimeExpandedGraph(
        uav_count, horizon, scenario.channels, scenario.cache_capacity,
        tails, heads, kinds, weights, out_edges, in_edges, caching_edge,
        min_weight, tuple(sorted(scenario.infos, key=lambda i: i.id)))


def augment(graph: TimeExpandedGraph, infos) -> TimeExpandedGraph:
    """The graph serving the given infos in place of its own; they must pass
    `check_infos` for its fleet. The constructor builds it from every other
    field of `graph`, so it adds no vertex or edge, shares every table (the
    edge lists, the `out_edges` ranges, the `in_edges` arrays and
    `caching_edge`), and leaves `graph` unchanged."""
    infos = tuple(sorted(infos, key=lambda i: i.id))
    check_infos(infos, graph.uav_count, graph.horizon)
    return replace(graph, infos=infos)


def _shortest_paths(graph, seeds, adjacency, ends, deleted, power, channel_used,
                    goal=None, late=()):
    """Cheapest paths between the zero-cost `seeds` and every other vertex.

    Direction is data: `out_edges` with `edge_head` walks forward from the
    seeds, `in_edges` with `edge_tail` walks backward to them. Connectivity
    steps cost the weight minus the walked vertex's residual `power` (never
    below zero); caching steps cost nothing. The discount is keyed on the
    vertex being walked, which is the tail of a forward edge but the head of
    a backward one, so backward callers pass an empty residual state. A
    vertex's caching step is read from `caching_edge`, not from `adjacency`:
    its own entry forward, its predecessor's backward (see
    `TimeExpandedGraph`), so `ends` also tells the direction.

    Late seeds: the `late` vertices enter at distance 0, in id order, once
    no distance-0 heap entry is left, which is before the level-0 pending
    relaxations. The distance-0 closure of the seeds is therefore settled
    first, and a seed's zero-cost step wins a tie against a late seed's even
    when the late seed has the lower id. A late seed that is already done is
    skipped. When they enter, every vertex with a finite `dist` has `dist` 0
    and is done, so a late seed that is not done still has parent -1.
    All late seeds are admitted at once, each given `dist` 0, and then wait
    in a sorted queue instead of the heap: the next vertex settled is the
    smaller of (0.0, next queued seed) and the heap's top, which is the pop
    order the heap would give with the seeds pushed. No entry ties, because
    nothing is pushed at key 0 onto a vertex whose `dist` is already 0, and
    a pending relaxation waits for the queue to empty, as it would wait for
    the heap entries at its level. `dist` 0 also stops a caching chain at a
    later late seed, which keeps parent -1 and starts its own chain.

    Channel budget: connectivity edges stay inside one time unit, so every
    connectivity edge in `adjacency[v]` lies in v's own layer, `v % horizon`,
    in either direction. `channel_used` is the one count of busy channels
    per layer; a greedy caller's count includes its tree's own
    transmissions. Whether v's layer has a free channel is therefore decided
    once per settled vertex; if not, none of its connectivity edges is
    walked.

    Deletions: `deleted` vertices are marked settled before the search, so
    no edge ever enters one and a deleted late seed is skipped. This is
    exact only if no seed is deleted, which callers guarantee (greedy seeds
    are vertices its current tree reached through undeleted heads; backward
    callers pass no deletions).

    Level-end relaxations: a step out of a vertex settled at distance d that
    gives nd > d cannot change any pop at key d, so it waits in `pending`
    and is relaxed just before the first pop above d (or when the heap runs
    empty). Steps that give exactly d are relaxed at once. Pending steps are
    relaxed in settle order, so among relaxations of equal value the order
    is the plain Dijkstra's, and every distance and first-tight parent is
    the same. The caching step, which costs nothing, is relaxed after the
    connectivity steps: a vertex has at most one edge per head, and entries
    pushed at key d pop in key order, so the order of one vertex's
    relaxations changes no pop. A vertex without a discount settled at d
    with d + `min_connectivity_weight` > d has only connectivity steps above
    d, so its connectivity edges are not even read until the level ends;
    any other vertex tests each step.

    Caching chains: when such a vertex v strictly improves its caching
    neighbour h, h is settled next without touching the heap, because it is
    what the heap would pop next. Every heap entry is above (d, v) and none
    is (d, h); forward, h = v + 1 and no vertex id lies between them;
    backward, h = v - 1 is below (d, v). v pushes nothing else at key d:
    its connectivity steps wait for the level end. The rest of the chain
    runs in a tight loop that only marks each vertex done, queues it as
    pending if its layer has a free channel (it is settled even in a closed
    layer, but none of its steps is read there), and gives its caching
    neighbour `dist` d and parent. That is all the per-vertex path would do:
    every chain vertex is a copy of v's UAV at distance d, so none is a
    feeder (settling one ends the search) and `ub` cannot change
    along the chain; and none has a discount while it is no `power` key,
    so it is as fast as v and passes the same `d + step > ub` test. Greedy
    `power` keys are seeds, at `dist` 0 from the start, which no chain
    enters; a chain vertex that is a key anyway leaves the tight loop and
    takes the full per-vertex path. The loop sets `level` to d before it
    queues anything: v, in a closed layer, may have queued nothing at d.

    Goal: a forward search may name a `goal` UAV. Its copies `goal * H + t`,
    one per layer, are the feeders, and the search ends when it settles the
    first one, which it returns as `reached`. Vertices settle in
    nondecreasing distance and a tie never replaces a parent, so the parents
    of settled vertices are final, and the path walked back from `reached`
    is the one a full search would give. Other entries of `dist` and `parent` are meaningful only
    without a goal.

    Target bound: a search with a goal drops the work that cannot change
    the walked path. `ub` is the smallest distance given to a feeder so
    far, 0 if a seed is one; the search ends at some D <= `ub`. `step` is
    `min_connectivity_weight` when every key of `power` is a seed, else 0.
    - A relaxation into a feeder at nd > `ub`, or into a non-feeder at
      nd + `step` > `ub`, is dropped. A late seed that is a feeder sets
      `ub` to 0, and any other is dropped when `step` > `ub`.
    - A non-feeder without a discount settled at d with d + `step` > `ub`
      is only marked done: no pending entry, no zero-cost step, no caching
      chain.
    - At a level end the feeders are relaxed first: for each pending tail
      in settle order, its edge into its layer's feeder, so the tail
      settled first wins a tie (not always the lowest id: a discounted
      vertex's zero-cost step can settle a lower id later in the level).
      That sets `ub` before the other steps are read, and a pending vertex
      without a discount is skipped whole when
      level + `min_connectivity_weight` + `step` > `ub`.
    Why it is exact: every vertex on the walked path is at distance D or
    less. From a non-feeder, the rest of any path to a feeder holds a
    connectivity step out of a vertex without a discount: caching stays on
    the UAV, and the seeds, the only discounted vertices when `step` > 0,
    have parent -1 and are never re-entered. That step costs at least
    `min_connectivity_weight` and float addition is monotone, so a path
    through a non-feeder at d costs at least fl(d + `step`). A dropped
    relaxation leaves a larger `dist`; a later one at a value no smaller is
    dropped too, since `ub` only falls, and the dropped heap keys are above
    `ub`, so they would never pop before the answer. Ties never replace a
    parent. Without a goal `ub` stays infinite; backward searches name none.

    Returns (dist, parent, reached): parent[v] is the edge that reached v,
    -1 for the seeds, the late seeds and unreached vertices; `reached` is
    the feeder settled first, -1 if there is none or no goal.
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
    wmin = graph.min_connectivity_weight
    caching = graph.caching_edge  # v's caching step is caching[v - back]
    back = 1 if ends is graph.edge_tail else 0
    # target bound: feeds marks the goal's copies, from `first` on, and
    # feed_in[t] maps layer t's connectivity in-edges by tail, on first use
    feeds = bytearray(graph.vertex_count)
    feed_in = [None] * horizon
    ub, step = inf, 0.0
    if goal is not None:
        first = goal * horizon
        for f in range(first, first + horizon):
            feeds[f] = 1
            if dist[f] == 0.0:
                ub = 0.0
        if set(seeds).issuperset(power):
            step = wmin
    late = sorted(late)
    queue, q = [], 0  # admitted late seeds in id order, queue[q] next
    pending = []  # vertices settled at `level` with steps above it
    level = 0.0
    while heap or pending or late or q < len(queue):
        if late and (not heap or heap[0][0] > 0.0):
            for v in late:  # see late seeds
                if done[v]:
                    continue
                if feeds[v]:
                    ub = 0.0
                elif step > ub:
                    continue
                dist[v] = 0.0
                queue.append(v)
            late = ()
            continue
        if q < len(queue):  # (0.0, queue[q]) merged with the heap
            v = queue[q]
            if heap and heap[0] < (0.0, v):
                d, v = heappop(heap)
            else:
                d = 0.0
                q += 1
        elif pending and (not heap or heap[0][0] > level):
            if goal is not None:  # feeders first, see the target bound
                for v in pending:
                    t = v % horizon
                    f = first + t
                    if done[f]:
                        continue
                    into = feed_in[t]
                    if into is None:
                        into = feed_in[t] = {graph.edge_tail[e]: e
                                             for e in graph.in_edges[f]
                                             if not kinds[e]}
                    e = into.get(v)
                    if e is None:
                        continue
                    w = weights[e]
                    v_power = power.get(v, 0.0)
                    nd = level + (w - v_power) if w > v_power else level
                    if nd < dist[f] and nd <= ub:
                        dist[f] = ub = nd
                        parent[f] = e
                        heappush(heap, (nd, f))
            plain = level + wmin + step <= ub  # undiscounted steps can help
            for v in pending:
                v_power = power.get(v, 0.0)
                if not (v_power or plain):
                    continue
                for e in adjacency[v]:
                    if kinds[e]:
                        continue
                    head = ends[e]
                    if done[head] or feeds[head]:
                        continue
                    w = weights[e]
                    nd = level + (w - v_power) if w > v_power else level
                    if nd < dist[head] and nd + step <= ub:
                        dist[head] = nd
                        parent[head] = e
                        heappush(heap, (nd, head))
            pending = []
            continue
        else:
            d, v = heappop(heap)
        if done[v]:
            continue
        while True:  # v, then the caching chain it starts
            done[v] = 1
            if feeds[v]:
                return dist, parent, v  # see goal
            v_power = power.get(v, 0.0)
            if d + step > ub and not v_power:
                break  # no path through v beats ub
            fast = not v_power and d + wmin > d
            if channel_used[v % horizon] < channels:
                if fast:  # connectivity: above d
                    pending.append(v)
                    level = d
                else:
                    later = False
                    for e in adjacency[v]:
                        if kinds[e]:
                            continue
                        head = ends[e]
                        if done[head]:
                            continue
                        w = weights[e]
                        if w > v_power and d + (w - v_power) > d:
                            later = True
                        elif d < dist[head]:
                            if feeds[head]:
                                if d > ub:
                                    continue
                                ub = d
                            elif d + step > ub:
                                continue
                            dist[head] = d
                            parent[head] = e
                            heappush(heap, (d, head))
                    if later:
                        pending.append(v)
                        level = d
            e = caching[v - back]  # caching: zero cost
            if e < 0:
                break
            head = ends[e]
            if done[head] or not d < dist[head] or d + step > ub:
                break  # v is no feeder, so neither is its caching neighbour
            dist[head] = d
            parent[head] = e
            if not fast:
                heappush(heap, (d, head))
                break
            level = d  # see caching chains
            v = head
            while v not in power:  # the rest of the chain, see caching chains
                done[v] = 1
                if channel_used[v % horizon] < channels:
                    pending.append(v)
                e = caching[v - back]
                if e < 0:
                    break
                head = ends[e]
                if done[head] or not d < dist[head]:
                    break
                dist[head] = d
                parent[head] = e
                v = head
            else:
                continue  # a `power` key: the full per-vertex path
            break
    return dist, parent, -1
