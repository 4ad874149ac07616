"""Independent oracles used to validate the planner.

Everything here is deliberately written with plain loops over the graph's
flat edge lists (`edge_tail`, `edge_head`, `edge_kind`, `edge_weight`),
sharing no code with the library's checker or solvers. An edge's time unit
is its tail's, `edge_tail[e] % horizon`, derived here on its own:

* reference_violation_ids: a from-scratch evaluation of the plan feasibility
  rules, returning the set of violated constraint tags.
* enumerate_optimum: an exhaustive layer-by-layer dynamic program over
  "who holds what / who has been served" states. It explores every feasible
  combination of transmissions and caching decisions, so its optimum is the
  ground truth for small instances.
* all_activation_assignments: raw enumeration of every per-edge info
  assignment, for checker-completeness sweeps on tiny graphs.
"""

from __future__ import annotations

import itertools
import math

from fleetcast.graph import KIND_CACHING, KIND_CONNECTIVITY
from fleetcast.scenario import CACHE_SINGLE


# ---------------------------------------------------------------------------
# reference feasibility evaluator


def reference_violation_ids(graph, activations):
    """Return the set of constraint tags violated by `activations`.

    `activations` maps info id -> iterable of edge indices.
    """
    infos = {info.id: info for info in graph.infos}
    tails, heads = graph.edge_tail, graph.edge_head
    kinds = graph.edge_kind
    times = [tail % graph.horizon for tail in tails]
    violated = set()

    # EDGE: one info per edge (caching edges exempt under unlimited capacity)
    users = {}
    for info_id, edge_ids in activations.items():
        for e in edge_ids:
            users.setdefault(e, set()).add(info_id)
    for e, owners in users.items():
        if len(owners) < 2:
            continue
        if kinds[e] == KIND_CACHING and graph.cache_capacity != CACHE_SINGLE:
            continue
        violated.add("EDGE")

    # C7: a vertex transmits at most one info over connectivity edges
    transmitters = {}
    for info_id, edge_ids in activations.items():
        for e in edge_ids:
            if kinds[e] == KIND_CONNECTIVITY:
                transmitters.setdefault(tails[e], set()).add(info_id)
    if any(len(owners) > 1 for owners in transmitters.values()):
        violated.add("C7")

    # C9: channel budget per time unit
    for t in range(graph.horizon):
        active = 0
        for edge_ids in activations.values():
            for e in edge_ids:
                if kinds[e] == KIND_CONNECTIVITY and times[e] == t:
                    active += 1
        if active > graph.channels:
            violated.add("C9")

    for info_id, edge_ids in activations.items():
        info = infos[info_id]
        edge_ids = set(edge_ids)
        source_vertices = {graph.vertex_id(u, t) for u, t in info.sources}
        in_cnt = {}
        out_cnt = {}
        for e in edge_ids:
            in_cnt[heads[e]] = in_cnt.get(heads[e], 0) + 1
            out_cnt[tails[e]] = out_cnt.get(tails[e], 0) + 1

        def is_dest_copy(v):
            return graph.vertex_uav_time(v)[0] in info.destinations

        # flow continuity and in-degree caps
        for v in set(in_cnt) | set(out_cnt):
            ins = in_cnt.get(v, 0)
            outs = out_cnt.get(v, 0)
            if ins > 1:
                violated.add("C4" if is_dest_copy(v) else "C3")
            if outs >= 1 and v not in source_vertices and ins != 1:
                violated.add("C3")
            if ins == 1 and outs == 0 and not is_dest_copy(v):
                violated.add("C2")

        # supply: every active edge must trace back to a source copy
        supplied = set(source_vertices)
        changed = True
        while changed:
            changed = False
            for e in edge_ids:
                if tails[e] in supplied and heads[e] not in supplied:
                    supplied.add(heads[e])
                    changed = True
        for e in edge_ids:
            if tails[e] not in supplied:
                violated.add("FLOW")

        # delivery per destination group
        for u in info.destinations:
            copies = [graph.vertex_id(u, t) for t in range(graph.horizon)]
            if not any(v in supplied for v in copies):
                violated.add("C5")
            dead_ends = [v for v in copies
                         if in_cnt.get(v, 0) == 1 and out_cnt.get(v, 0) == 0]
            if len(dead_ends) > 1:
                violated.add("C5")

        # some source must send unless every group is self-satisfied
        sends = any(out_cnt.get(v, 0) >= 1 for v in source_vertices)
        source_uavs_by_group = {
            u: any((u, t) in info.sources for t in range(graph.horizon))
            for u in info.destinations}
        if not sends and not all(source_uavs_by_group.values()):
            violated.add("C6")

    return violated


def reference_feasible(graph, activations):
    return not reference_violation_ids(graph, activations)


# ---------------------------------------------------------------------------
# exhaustive optimum via a layer DP


def enumerate_optimum(graph, infos=None):
    """Exhaustively minimize the dissemination cost of `graph`'s infos.

    Returns (feasible, objective, activations) where activations maps
    info id -> set of edge indices of one optimal plan. The state space
    is (holdings per UAV, delivered demands); transitions enumerate every
    channel- and conflict-respecting assignment of a layer's connectivity
    edges to infos, followed by every caching choice into the next layer.
    """
    infos = list(graph.infos) if infos is None else sorted(infos, key=lambda i: i.id)
    info_ids = [info.id for info in infos]
    demands = [(info.id, u) for info in infos for u in sorted(info.destinations)]
    demand_bit = {pair: 1 << k for k, pair in enumerate(demands)}
    full_mask = (1 << len(demands)) - 1
    single = graph.cache_capacity == CACHE_SINGLE

    gathers = [[set() for _ in range(graph.uav_count)] for _ in range(graph.horizon)]
    for info in infos:
        for u, t in info.sources:
            gathers[t][u].add(info.id)
    dest_lookup = {info.id: set(info.destinations) for info in infos}

    tails, heads, weights = graph.edge_tail, graph.edge_head, graph.edge_weight
    layer_edges = [[] for _ in range(graph.horizon)]  # connectivity, by index
    for e, tail in enumerate(tails):
        if graph.edge_kind[e] == KIND_CONNECTIVITY:
            layer_edges[tail % graph.horizon].append(e)

    def assignments(edges):
        """Yield every per-edge info assignment respecting C9 and C7."""
        chosen = [None] * len(edges)

        def rec(idx, active, vertex_info):
            if idx == len(edges):
                yield tuple(chosen)
                return
            tail = tails[edges[idx]]
            chosen[idx] = None
            yield from rec(idx + 1, active, vertex_info)
            if active < graph.channels:
                prior = vertex_info.get(tail)
                for info_id in info_ids:
                    if prior is not None and prior != info_id:
                        continue
                    chosen[idx] = info_id
                    vertex_info[tail] = info_id
                    yield from rec(idx + 1, active + 1, vertex_info)
                    if prior is None:
                        del vertex_info[tail]
                    else:
                        vertex_info[tail] = prior
                chosen[idx] = None

        yield from rec(0, 0, {})

    empty_holdings = tuple(None for _ in range(graph.uav_count)) if single else \
        tuple(frozenset() for _ in range(graph.uav_count))

    def held(holdings, u, info_id):
        if single:
            return holdings[u] == info_id
        return info_id in holdings[u]

    states = {(empty_holdings, 0): (0.0, None)}
    trail = []  # per layer: the states dict that fed it, for reconstruction

    for t in range(graph.horizon):
        trail.append(states)
        new_states = {}
        for (holdings, mask), (cost, _) in states.items():
            for assign in assignments(layer_edges[t]):
                # supply fixpoint over UAVs within this layer
                supplied = {
                    info_id: {u for u in range(graph.uav_count)
                              if held(holdings, u, info_id)
                              or info_id in gathers[t][u]}
                    for info_id in info_ids}
                pending = [(e, info_id) for e, info_id in
                           zip(layer_edges[t], assign) if info_id is not None]
                progress = True
                while pending and progress:
                    progress = False
                    remaining = []
                    for e, info_id in pending:
                        tail_u = graph.vertex_uav_time(tails[e])[0]
                        if tail_u in supplied[info_id]:
                            head_u = graph.vertex_uav_time(heads[e])[0]
                            supplied[info_id].add(head_u)
                            progress = True
                        else:
                            remaining.append((e, info_id))
                    pending = remaining
                if pending:
                    continue  # some transmission has no upstream supply

                received = [set() for _ in range(graph.uav_count)]
                vertex_max = {}
                for e, info_id in zip(layer_edges[t], assign):
                    if info_id is None:
                        continue
                    head_u = graph.vertex_uav_time(heads[e])[0]
                    received[head_u].add(info_id)
                    prev = vertex_max.get(tails[e], 0.0)
                    vertex_max[tails[e]] = max(prev, weights[e])
                layer_cost = sum(vertex_max.values())

                new_mask = mask
                for info_id in info_ids:
                    for u in dest_lookup[info_id]:
                        if info_id in gathers[t][u] or info_id in received[u]:
                            new_mask |= demand_bit[(info_id, u)]

                avail = [
                    sorted(({holdings[u]} if single and holdings[u] is not None
                            else set(holdings[u]) if not single else set())
                           | gathers[t][u] | received[u])
                    for u in range(graph.uav_count)]

                if t == graph.horizon - 1:
                    crossing_options = [[None] if single else [frozenset()]
                                        for _ in range(graph.uav_count)]
                elif single:
                    crossing_options = [[None] + avail[u]
                                        for u in range(graph.uav_count)]
                else:
                    crossing_options = [
                        [frozenset(c) for r in range(len(avail[u]) + 1)
                         for c in itertools.combinations(avail[u], r)]
                        for u in range(graph.uav_count)]

                for crossing in itertools.product(*crossing_options):
                    key = (tuple(crossing), new_mask)
                    total = cost + layer_cost
                    known = new_states.get(key)
                    if known is None or total < known[0]:
                        new_states[key] = (total, ((holdings, mask), assign, crossing))
        states = new_states

    best_key = None
    best = math.inf
    for (holdings, mask), (cost, _) in states.items():
        if mask == full_mask and cost < best:
            best = cost
            best_key = (holdings, mask)
    if best_key is None:
        return False, None, None

    # walk parents back to collect the optimal activations
    activations = {info_id: set() for info_id in info_ids}
    key = best_key
    for t in range(graph.horizon - 1, -1, -1):
        _, parent = states[key] if t == graph.horizon - 1 else trail[t + 1][key]
        prev_key, assign, crossing = parent
        for e, info_id in zip(layer_edges[t], assign):
            if info_id is not None:
                activations[info_id].add(e)
        if t < graph.horizon - 1:
            for u, held_info in enumerate(crossing):
                carried = [] if held_info is None else (
                    [held_info] if single else sorted(held_info))
                for info_id in carried:
                    e = graph.edge_index(graph.vertex_id(u, t),
                                         graph.vertex_id(u, t + 1))
                    activations[info_id].add(e)
        key = prev_key
        states = trail[t]

    objective = exact_plan_cost(graph, activations)
    return True, objective, activations


def exact_plan_cost(graph, activations):
    """Correctly rounded sum of per-vertex maxima, independent of plan_cost."""
    vertex_max = {}
    for edge_ids in activations.values():
        for e in edge_ids:
            if graph.edge_kind[e] == KIND_CONNECTIVITY:
                tail = graph.edge_tail[e]
                prev = vertex_max.get(tail, 0.0)
                vertex_max[tail] = max(prev, graph.edge_weight[e])
    return math.fsum(vertex_max[v] for v in sorted(vertex_max))


# ---------------------------------------------------------------------------
# hand-derived size formulas for the LP export


def lp_variable_count(graph, infos):
    n_vertices = graph.vertex_count
    n_edges = len(graph.edge_tail)
    n_dest_copies = sum(len(i.destinations) for i in infos) * graph.horizon
    return (len(infos) * n_edges            # a
            + 2 * len(infos) * n_vertices   # h and b
            + n_dest_copies)                # d


def lp_constraint_count(graph, infos):
    horizon = graph.horizon
    out_all = [0] * graph.vertex_count
    out_conn = [0] * graph.vertex_count
    in_all = [0] * graph.vertex_count
    caching_edges = connectivity_edges = 0
    conn_layers = set()
    for e in range(len(graph.edge_tail)):
        tail = graph.edge_tail[e]
        out_all[tail] += 1
        in_all[graph.edge_head[e]] += 1
        if graph.edge_kind[e] == KIND_CONNECTIVITY:
            out_conn[tail] += 1
            connectivity_edges += 1
            conn_layers.add(tail % horizon)
        else:
            caching_edges += 1
    total = 0
    for info in infos:
        sources = {graph.vertex_id(u, t) for u, t in info.sources}
        dest_copies = {graph.vertex_id(u, t)
                       for u in info.destinations for t in range(horizon)}
        for v in range(graph.vertex_count):
            if v not in sources:
                total += 1                             # c2
                if out_all[v]:
                    total += 1                         # c1
            if v in dest_copies:
                total += 3 + (1 if in_all[v] else 0)  # c4a..c4d
            else:
                total += 1                             # c3
        total += len(info.destinations)                # c5
        total += 1                                     # c6
        total += sum(1 for v in range(graph.vertex_count)
                     if out_conn[v])                   # c8
    if infos:
        total += graph.vertex_count                    # c7
        total += len(conn_layers)                      # c9
        total += connectivity_edges                    # c10
        if graph.cache_capacity == CACHE_SINGLE:
            total += caching_edges                     # per-edge caching rule
    return total


# ---------------------------------------------------------------------------
# raw plan enumeration for checker sweeps


def all_activation_assignments(graph, info_ids):
    """Yield every assignment of edges to {unused} | info_ids."""
    edges = range(len(graph.edge_tail))
    options = [None] + list(info_ids)
    for combo in itertools.product(options, repeat=len(edges)):
        activations = {info_id: set() for info_id in info_ids}
        for e, owner in zip(edges, combo):
            if owner is not None:
                activations[owner].add(e)
        yield activations
