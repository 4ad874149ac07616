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
from itertools import chain

from .errors import InternalError, PlanStructureError
from .radio import subrange_weight
from .scenario import InfoSpec, Scenario, check_infos

CONNECTIVITY = "connectivity"
CACHING = "caching"

# integer kind codes for hot loops, and their names by code
KIND_CONNECTIVITY = 0
KIND_CACHING = 1
KIND_NAMES = (CONNECTIVITY, CACHING)


class _derived:
    """A graph table derived on first read and then kept on the graph, as
    `functools.cached_property` keeps it, but stored with
    `object.__setattr__`: `cached_property` writes through `__dict__`, which
    materialises the instance dict, and CPython 3.11 then reads every other
    attribute of the graph more slowly."""

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, graph, owner=None):
        if graph is None:
            return self
        table = self.derive(graph)
        object.__setattr__(graph, self.name, table)  # shadows this descriptor
        return table


@dataclass(frozen=True, eq=False, repr=False)
class TimeExpandedGraph:
    """Immutable time-expanded graph over all (uav, time) vertices, with the
    informations it serves (`infos`, in id order).

    Vertex (u, t) is `u * horizon + t`, in layer `vertex % horizon`. Edges
    are parallel flat lists over the indices `edges`, by which every plan and
    solver names them: `edge_tail`, `edge_head`, `edge_kind` (a KIND_* code)
    and `edge_weight`, ordered by layer, then tail UAV, then head UAV. An
    edge's layer is its tail's. That order keeps each tail's edges
    contiguous, so `out_edges[v]` is the `range` of v's out-edges, with
    heads strictly ascending: the caching head (u, t+1), id u*H+t+1, lies
    between (u-1, t) and (u+1, t). `caching_edge[v]` is v's caching edge
    into v + 1, -1 in the last layer; the last vertex is in the last layer,
    so `caching_edge[v - 1]` is the caching edge into v for every v, -1 in
    the first layer (index -1 included). `feeders[g]` is a `bytearray` over
    the vertices, 1 where a vertex has a connectivity edge into UAV g's copy
    in its own layer, one byte per vertex and UAV; the greedy search reads
    it for its goal UAV. `min_connectivity_weight`, the smallest entry of
    the builder's subrange-weight table, bounds every connectivity weight
    from below (inf without UAVs). These are built with the edges.

    Tables that only some solvers read are derived on first read and kept
    for the graph, so every search and export on it shares them; no greedy
    search reads any of them. `in_edges[v]` is an `array('q')` of v's
    in-edges in ascending order, derived from `edge_head`. Neither adjacency
    table holds an int object per edge, which at fleet scale would be a
    quarter of the graph's memory. `conn_out[v]` lists v's connectivity
    out-edges as `(edge, head, weight)` tuples in `out_edges` order, for
    `exact`'s path generation and `export_lp`. `distances_to(uav)` is the
    channel-free distance table to UAV `uav`'s copies, built per UAV on its
    first call. Equality is identity; the repr omits the tables.
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
    caching_edge: list[int]
    feeders: list[bytearray]
    min_connectivity_weight: float
    infos: tuple[InfoSpec, ...]

    @_derived
    def in_edges(self) -> list[array]:
        table = [array("q") for _ in range(self.vertex_count)]
        for e, head in enumerate(self.edge_head):
            table[head].append(e)
        return table

    @_derived
    def conn_out(self) -> list[list[tuple]]:
        kinds, heads, weights = self.edge_kind, self.edge_head, self.edge_weight
        return [[(e, heads[e], weights[e]) for e in out
                 if kinds[e] == KIND_CONNECTIVITY] for out in self.out_edges]

    @_derived
    def _distances(self) -> dict:
        return {}

    def distances_to(self, uav: int) -> list[float]:
        """The cheapest channel-free distance from every vertex to a copy of
        UAV `uav`: one backward kernel search with no discount, deletion or
        busy channel, run on the first call for `uav` and kept for the
        graph. Callers must not mutate it."""
        if uav not in self._distances:
            self._distances[uav] = _shortest_paths(
                self, range(uav * self.horizon, (uav + 1) * self.horizon),
                self.in_edges, self.edge_tail, (), {}, [0] * self.horizon)[0]
        return self._distances[uav]

    @_derived
    def _source_ids(self) -> dict:
        h = self.horizon
        return {info: sorted([u * h + t for u, t in info.sources])
                for info in self.infos}

    def source_vertices(self, info) -> list[int]:
        """The vertex ids of the source copies of `info`, one of the graph's
        informations, ascending; computed for all of them on the first
        call."""
        return self._source_ids[info]

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

    Each layer measures every unordered pair u < u' once: `math.dist` takes
    the absolute difference of each coordinate, so `dist(p, q)` and
    `dist(q, p)` are the same float. Each direction is tested against its
    own tail's outer radius, since per-UAV radii make reach asymmetric. Tail
    u emits, in this order: its edges into earlier UAVs, which those UAVs'
    pairs measured and left in `reached[u]` in ascending order; its caching
    edge; its edges into later UAVs, as its own pairs are measured. So every
    tail's heads ascend.
    """
    horizon, uav_count = scenario.horizon, scenario.uav_count
    tails, heads, kinds, weights = [], [], [], []
    out_edges = [range(0)] * (uav_count * horizon)
    caching_edge = [-1] * (uav_count * horizon)
    feeders = [bytearray(uav_count * horizon) for _ in range(uav_count)]
    first = 0  # the next tail's first edge

    radii = [scenario.radii_for(u) for u in range(uav_count)]
    outer = [r[-1] for r in radii]
    weight_of = [[subrange_weight(scenario.radio, r) for r in rs] for rs in radii]

    reached = [[] for _ in range(uav_count)]  # per tail: (earlier head, dist)
    for t in range(horizon):
        layer = [traj[t] for traj in scenario.trajectories]
        ids = [u * horizon + t for u in range(uav_count)]
        for u in range(uav_count):
            tail, position, r, w = ids[u], layer[u], radii[u], weight_of[u]
            row = reached[u]
            if row:
                for u2, dist in row:
                    tails.append(tail)
                    heads.append(ids[u2])
                    kinds.append(KIND_CONNECTIVITY)
                    weights.append(w[bisect_left(r, dist)])
                    feeders[u2][tail] = 1
                row.clear()  # no later tail of this layer adds to it
            if t + 1 < horizon:
                caching_edge[tail] = len(tails)
                tails.append(tail)
                heads.append(tail + 1)
                kinds.append(KIND_CACHING)
                weights.append(0.0)
            reach = outer[u]
            for u2 in range(u + 1, uav_count):
                dist = math.dist(position, layer[u2])
                if dist <= reach:
                    tails.append(tail)
                    heads.append(ids[u2])
                    kinds.append(KIND_CONNECTIVITY)
                    weights.append(w[bisect_left(r, dist)])
                    feeders[u2][tail] = 1
                if dist <= outer[u2]:
                    reached[u2].append((u, dist))
            end = len(tails)  # adjacent ranges share their bound
            out_edges[tail] = range(first, end)
            first = end

    min_weight = min((w for ws in weight_of for w in ws), default=math.inf)
    return TimeExpandedGraph(
        uav_count, horizon, scenario.channels, scenario.cache_capacity,
        tails, heads, kinds, weights, out_edges, caching_edge, feeders,
        min_weight, tuple(sorted(scenario.infos, key=lambda i: i.id)))


def augment(graph: TimeExpandedGraph, infos) -> TimeExpandedGraph:
    """The graph serving the given infos in place of its own; they must pass
    `check_infos` for its fleet, which the graph's own informations passed
    when it got them, so only others are checked. The constructor builds it
    from every other field of `graph`, so it adds no vertex or edge, shares
    every table built with the edges (the edge lists, the `out_edges`
    ranges, `caching_edge`, `feeders`), derives its own `in_edges`,
    `conn_out`, distance tables and source ids when first read, and leaves
    `graph` unchanged."""
    infos = tuple(sorted(infos, key=lambda i: i.id))
    if infos != graph.infos:
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

    Discounts: every key of `power` is a seed, by contract (`build_tree`
    discounts only the vertices of its own tree, which are its seeds), and
    any other key raises `InternalError`.

    Late seeds: the `late` vertices, ascending by contract (`build_tree`
    passes `graph.source_vertices`), enter at distance 0 in that order once
    no distance-0 heap entry is left, which is before the level-0 pending
    relaxations. The distance-0 closure of the seeds is therefore settled
    first, and a seed's zero-cost step wins a tie against a late seed's even
    when the late seed has the lower id. A late seed that is already done is
    skipped. When they enter, every vertex with a finite `dist` has `dist` 0
    and is done, so a late seed that is not done still has parent -1.
    All late seeds are admitted at once, each given `dist` 0, and then wait
    in `queue` instead of the heap, as runs [a, b) of consecutive copies of
    one UAV in id order: the next vertex settled is the smaller of (0.0, a)
    for the first queued run and the heap's top, which is the pop order the
    heap would give with the seeds pushed. No entry ties, because nothing is
    pushed at key 0 onto a vertex whose `dist` is already 0, and a pending
    relaxation waits for the queue to empty, as it would wait for the heap
    entries at its level. So while a late seed is queued, every vertex
    settled is at distance 0. `dist` 0 also stops a caching run at a later
    late seed, which keeps parent -1.

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
    relaxations changes no pop. In a forward search, a vertex without a
    discount settled at d with d + `min_connectivity_weight` > d, a fast
    vertex, has only connectivity steps above d, so its connectivity edges
    are not even read until the level ends; any other vertex takes the
    per-vertex path, which tests each step and pushes the caching step on
    the heap. `pending` holds ascending ranges of vertices in settle order:
    caching runs (below) and single vertices.

    Caching runs: only forward searches make them. A backward search counts
    no vertex fast, so each of its vertices takes the per-vertex path. A
    fast vertex v settles, in one step, the copies of its UAV that its
    caching steps would settle one by one. While h = v + 1, a copy of v's
    UAV, is not done and d < dist[h], h is what the heap would pop next:
    every heap entry is above (d, v), none is (d, h), and no vertex id lies
    between them. v pushes nothing at key d: its connectivity steps wait
    for the level end. h is a copy of v's UAV at distance d, so it is no
    feeder (settling one ends the search) and `ub` has not changed; d <
    dist[h] makes it no seed, so it has no discount, is as fast as v,
    passes the same `d + step > ub` test, and goes on in the same way. The
    run is [v, s), where s is the first copy of v's UAV past v that is
    - done (`done.find`), where the step would be refused;
    - at distance d, found by `dist.index`: an unsettled vertex never has a
      distance below the key being settled, so `not d < dist[s]` means
      dist[s] == d;
    - or past the UAV's last copy.
    Slice assignments give the run's vertices done, `dist` d, and as parent
    the caching edge into each, caching[j - 1]. The run is queued as
    pending, but a closed layer, found in the `shut` mask, splits it: the
    vertex there is settled, and none of its steps is read. The run sets
    `level` to d before it queues anything: v, in a closed layer, may queue
    nothing at d.

    Late runs: a fast vertex v at distance 0 whose next id v + 1, a copy of
    the same UAV, starts the first queued late run settles that run with
    its own. Each of those late seeds is what the pop order gives next:
    they lie next to each other, and no heap entry lies between their ids,
    because nothing is pushed at key 0 onto a vertex with `dist` 0. Each is
    no feeder, and fast at 0 as v is: a late seed that is also a seed is
    done before the late seeds enter, so no queued one has a discount. Its
    caching step is refused by the next one's `dist` 0, so it settles as a
    run of one; only the last one's caching step can go on, as above, from
    there.

    Goal: a forward search may name a `goal` UAV. Its copies `goal * H + t`,
    one per layer, are the feeders, and the search ends when it settles the
    first one, which it returns as `reached`. Vertices settle in
    nondecreasing distance and a tie never replaces a parent, so the parents
    of settled vertices are final, and the path walked back from `reached`
    is the one a full search would give. Other entries of `dist` and
    `parent` are meaningful only without a goal.

    Target bound: a search with a goal drops the work that cannot change
    the walked path. `ub` is the smallest distance given to a feeder so
    far, 0 if a seed is one; the search ends at some D <= `ub`. `step` is
    `min_connectivity_weight`.
    - A relaxation into a feeder at nd > `ub`, or into a non-feeder at
      nd + `step` > `ub`, is dropped. A late seed that is a feeder sets
      `ub` to 0, and any other is dropped when `step` > `ub`.
    - A non-feeder without a discount settled at d with d + `step` > `ub`
      is only marked done: no pending entry, no zero-cost step, no caching
      run.
    - At a level end the feeders are relaxed first: for each pending tail
      in settle order, its edge into its layer's feeder, so the tail
      settled first wins a tie (not always the lowest id: a discounted
      vertex's zero-cost step can settle a lower id later in the level).
      Only tails with such an edge are visited: `find` on
      `graph.feeders[goal]` over each pending range gives them in settle
      order, and `bisect_left` finds the edge in the tail's out-range,
      whose heads ascend (see `TimeExpandedGraph`). That sets `ub` before
      the other steps are read, and a pending vertex without a discount is
      skipped whole when level + `min_connectivity_weight` + `step` > `ub`:
      then only the `power` keys in the pending ranges, found in `keyed`,
      are read.
    Why it is exact: every vertex on the walked path is at distance D or
    less. From a non-feeder, the rest of any path to a feeder holds a
    connectivity step out of a vertex without a discount: caching stays on
    the UAV, and the seeds, the only discounted vertices, have parent -1
    and are never re-entered. That step costs at least
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
    count, horizon = graph.vertex_count, graph.horizon
    dist = [inf] * count
    parent = [-1] * count
    done = bytearray(count)
    for v in deleted:
        done[v] = 1
    heap = [(0.0, v) for v in seeds]
    heapify(heap)
    for _, v in heap:
        dist[v] = 0.0
    kinds = graph.edge_kind
    weights = graph.edge_weight
    channels = graph.channels
    wmin = graph.min_connectivity_weight
    caching = graph.caching_edge  # v's caching step is caching[v - back]
    back = 1 if ends is graph.edge_tail else 0
    fast = 0.0 if back else wmin  # backward, no vertex is fast
    ones = b"\x01" * horizon
    shut = bytes(map(channels.__le__, channel_used))  # the closed layers
    keyed = bytearray(count)  # the `power` keys, all seeds by contract
    for v in power:
        if dist[v]:
            raise InternalError("a discounted vertex is no seed")
        keyed[v] = 1
    # target bound: feeds marks the goal's copies, into[v] a vertex with a
    # connectivity edge into its layer's copy
    feeds = bytearray(count)
    ub, step = inf, wmin
    if goal is not None:
        first = goal * horizon
        feeds[first:first + horizon] = ones
        into = graph.feeders[goal]
        if 0.0 in dist[first:first + horizon]:
            ub = 0.0
    queue, q = [], 0  # runs [queue[i], queue[i + 1]) of admitted late seeds
    pending = []  # runs of vertices settled at `level` with steps above it
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
                if queue and queue[-1] == v and v % horizon:
                    queue[-1] = v + 1  # the last run grows
                else:
                    queue += (v, v + 1)
            late = ()
            continue
        if q < len(queue):  # (0.0, queue[q]) merged with the heap
            v = queue[q]
            if heap and heap[0] < (0.0, v):
                d, v = heappop(heap)
            else:
                d = 0.0
                if v + 1 < queue[q + 1]:
                    queue[q] = v + 1
                else:
                    q += 2
        elif pending and (not heap or heap[0][0] > level):
            if goal is not None:  # feeders first, see the target bound
                for v in _marked(pending, into):
                    f = first + v % horizon
                    if done[f]:
                        continue
                    out = adjacency[v]
                    e = bisect_left(ends, f, out.start, out.stop)
                    w = weights[e]
                    v_power = power.get(v, 0.0)
                    nd = level + (w - v_power) if w > v_power else level
                    if nd < dist[f] and nd <= ub:
                        dist[f] = ub = nd
                        parent[f] = e
                        heappush(heap, (nd, f))
            plain = level + wmin + step <= ub  # undiscounted steps can help
            for v in (chain.from_iterable(pending) if plain
                      else _marked(pending, keyed)):
                v_power = power.get(v, 0.0)
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
        done[v] = 1
        if feeds[v]:
            return dist, parent, v  # see goal
        v_power = power.get(v, 0.0)
        if d + step > ub and not v_power:
            continue  # no path through v beats ub
        if v_power or not d + fast > d:  # a step may cost nothing
            if not shut[v % horizon]:
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
                    pending.append(range(v, v + 1))
                    level = d
            e = caching[v - back]  # caching: zero cost
            if e >= 0:
                head = ends[e]
                if not (done[head] or not d < dist[head] or d + step > ub):
                    dist[head] = d
                    parent[head] = e
                    heappush(heap, (d, head))
            continue
        base = v - v % horizon  # v's UAV's first copy; see caching runs
        lead = v + 1  # [v, lead): v and the late seeds it leads
        if q < len(queue) and queue[q] == lead and lead % horizon:
            lead = queue[q + 1]  # see late runs
            q += 2
        hi = lead  # the run is [v, hi)
        if lead % horizon and not done[lead] and d < dist[lead]:
            hi = done.find(1, lead, base + horizon)
            if hi < 0:
                hi = base + horizon
            try:
                hi = dist.index(d, lead, hi)
            except ValueError:
                pass
            dist[lead:hi] = [d] * (hi - lead)
            parent[lead:hi] = caching[lead - 1:hi - 1]
        done[v:hi] = ones[:hi - v]
        t, end = v - base, hi - base
        while t < end:  # closed layers split the run
            c = shut.find(1, t, end)
            if c < 0:
                c = end
            if t < c:
                pending.append(range(base + t, base + c))
            t = c + 1
        level = d
    return dist, parent, -1


def _marked(runs, marks):
    """The vertices of the ascending `runs` that `marks` flags, in order."""
    for run in runs:
        end = run.stop
        v = marks.find(1, run.start, end)
        while v >= 0:
            yield v
            v = marks.find(1, v + 1, end)
