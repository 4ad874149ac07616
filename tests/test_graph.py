"""Time-expanded graph construction and augmentation, each layer's
connectivity edges, and the shortest-path kernel against plain references."""

import copy
import dataclasses
import gc
import hashlib
import math
import random
import weakref
from array import array
from bisect import bisect_left
from collections import namedtuple
from heapq import heapify, heappop, heappush
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from fleetcast.errors import (GenerationError, InternalError,
                              PlanStructureError, ScenarioError)
from fleetcast.exact import SearchBudget, solve_exact
from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import (CACHING, CONNECTIVITY, KIND_CACHING,
                             KIND_CONNECTIVITY, KIND_NAMES, _shortest_paths,
                             augment, build_time_expanded_graph)
from fleetcast import graph as graph_module, heuristic
from fleetcast.heuristic import (HeuristicKind, ResidualState, _walk_back,
                                 build_tree, greedy_plan)
from fleetcast.jsonio import canonical_dumps
from fleetcast.lp import export_lp
from fleetcast.radio import subrange_weight
from fleetcast.report import report_to_dict
from fleetcast.scenario import InfoSpec


def test_single_uav_only_caches():
    scen = instances.static_scenario(positions=[(0, 0)], horizon=3, infos=[
        InfoSpec(id=0, sources={(0, 0)}, destinations={0})])
    graph = build_time_expanded_graph(scen)
    assert graph.vertex_count == 3
    assert graph.edge_kind.count(KIND_CACHING) == 2
    assert graph.edge_kind.count(KIND_CONNECTIVITY) == 0


def test_pair_in_range_gets_both_directions():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    conn = [e for e in graph.edges if graph.edge_kind[e] == KIND_CONNECTIVITY]
    assert len(conn) == 2
    expected = subrange_weight(scen.radio, 10.0)
    assert all(graph.edge_weight[e] == expected for e in conn)


def test_pair_out_of_range_gets_no_edges():
    scen = instances.static_scenario(
        positions=[(0, 0), (50, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    assert KIND_CONNECTIVITY not in graph.edge_kind


def test_vertex_and_edge_counts():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0), (8, 0)], horizon=4,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={2})])
    graph = build_time_expanded_graph(scen)
    assert graph.vertex_count == 3 * 4
    assert graph.edge_kind.count(KIND_CACHING) == 3 * 3


def test_weight_uses_smallest_enclosing_subrange():
    scen = instances.static_scenario(
        positions=[(0, 0), (7, 0)], radii=(5.0, 10.0, 20.0),
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    e = graph.edge_kind.index(KIND_CONNECTIVITY)
    assert graph.edge_weight[e] == subrange_weight(scen.radio, 10.0)


def test_boundary_distance_is_inside_subrange():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0)], radii=(10.0, 20.0),
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    e = graph.edge_kind.index(KIND_CONNECTIVITY)
    assert graph.edge_weight[e] == subrange_weight(scen.radio, 10.0)


def test_per_uav_radii_break_symmetry():
    graph = build_time_expanded_graph(instances.asymmetric_pair())
    conn = [e for e in graph.edges if graph.edge_kind[e] == KIND_CONNECTIVITY]
    assert len(conn) == 1
    tail_uav = graph.vertex_uav_time(graph.edge_tail[conn[0]])[0]
    assert tail_uav == 0


def _connectivity_weights(graph):
    """Each connectivity edge's weight, by its (tail, head) pair."""
    return {(graph.edge_tail[e], graph.edge_head[e]): graph.edge_weight[e]
            for e in graph.edges if graph.edge_kind[e] == KIND_CONNECTIVITY}


def test_symmetry_under_shared_radii():
    rng = random.Random(7)
    positions = [(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(5)]
    scen = instances.static_scenario(
        positions=positions, radii=(8.0, 16.0, 30.0), horizon=2,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    conn = _connectivity_weights(graph)
    for (tail, head), weight in conn.items():
        assert (head, tail) in conn
        assert conn[(head, tail)] == weight


def test_finer_partition_never_increases_weights():
    positions = [(0, 0), (6, 0), (11, 0)]
    coarse = instances.static_scenario(
        positions=positions, radii=(10.0, 20.0),
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={2})])
    fine = instances.static_scenario(
        positions=positions, radii=(5.0, 10.0, 15.0, 20.0),
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={2})])
    g_coarse = build_time_expanded_graph(coarse)
    g_fine = build_time_expanded_graph(fine)
    coarse_w = _connectivity_weights(g_coarse)
    fine_w = _connectivity_weights(g_fine)
    assert set(coarse_w) == set(fine_w)
    for key, weight in fine_w.items():
        assert weight <= coarse_w[key]


def test_paths_never_go_back_in_time():
    graph = build_time_expanded_graph(instances.chain3())
    rng = random.Random(3)
    for _ in range(200):
        v = rng.randrange(graph.vertex_count)
        time_seen = None
        for _ in range(10):
            outs = graph.out_edges[v]
            if not outs:
                break
            e = rng.choice(outs)
            t_tail = graph.vertex_uav_time(graph.edge_tail[e])[1]
            t_head = graph.vertex_uav_time(graph.edge_head[e])[1]
            assert t_head >= t_tail
            if time_seen is not None:
                assert t_tail >= time_seen
            time_seen = t_head
            v = graph.edge_head[e]


def test_augment_counts():
    # augment adds no vertex and no edge: the counts are the base's
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0)], horizon=4,
        infos=[InfoSpec(id=0, sources={(0, 0), (0, 2)}, destinations={1})])
    base = build_time_expanded_graph(scen)
    graph = augment(base, scen.infos)
    assert graph.vertex_count == base.vertex_count == 2 * 4
    assert len(graph.edges) == len(base.edges) == 2 * 4 + 2 * 3
    assert graph.infos == scen.infos


ADJACENCY_SCENARIOS = {
    "micro": lambda: generate_scenario(make_config("micro", 1)),
    "paper": lambda: generate_scenario(make_config("paper", 1)),
    # a caching pair, and a UAV out of range that only caches
    "caching-pair": lambda: instances.static_scenario(
        positions=[(0, 0), (5, 0), (500, 0)], horizon=4,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})]),
}


@pytest.mark.parametrize("name", ADJACENCY_SCENARIOS)
def test_adjacency_tables_hold_no_int_per_edge(name):
    scenario = ADJACENCY_SCENARIOS[name]()
    graph = build_time_expanded_graph(scenario)
    for v, outs in enumerate(graph.out_edges):
        assert type(outs) is range and outs.step == 1
        assert all(graph.edge_tail[e] == v for e in outs)
    # the ranges tile the edge indices in edge order: by layer, then tail UAV
    tiles = [graph.out_edges[graph.vertex_id(u, t)]
             for t in range(graph.horizon) for u in range(graph.uav_count)]
    assert [e for outs in tiles for e in outs] == list(graph.edges)
    for v, ins in enumerate(graph.in_edges):
        assert type(ins) is array and ins.typecode == "q"
        assert list(ins) == sorted(ins)
        assert all(graph.edge_head[e] == v for e in ins)
    assert sum(map(len, graph.in_edges)) == len(graph.edges)
    served = augment(graph, scenario.infos[:1])
    assert served.out_edges is graph.out_edges


def test_augment_two_infos_share_source_vertex():
    # both infos start from the one source copy (0,0) and send it to UAV 1
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(0, 0)}, destinations={1})])
    graph = augment(build_time_expanded_graph(scen), scen.infos)
    hop = graph.edge_index(graph.vertex_id(0, 0), graph.vertex_id(1, 0))
    assert [info.id for info in graph.served()] == [0, 1]
    for info in graph.served():
        tree = build_tree(graph, info, ResidualState(graph))
        assert tree.edges == {hop}


def test_augment_zero_cost_self_delivery_path_exists():
    # the source copy is a copy of the destination UAV: the search from the
    # source copies reaches it at distance 0 without an edge
    graph = build_time_expanded_graph(instances.self_delivery())
    dist, parent, reached = _shortest_paths(
        graph, (), graph.out_edges, graph.edge_head, (), {},
        [0] * graph.horizon, 0, [graph.vertex_id(0, 0)])
    assert reached == graph.vertex_id(0, 0)
    assert (dist[reached], parent[reached]) == (0.0, -1)


def test_augment_rejects_out_of_range_infos():
    scen = instances.chain3()
    graph = build_time_expanded_graph(scen)
    with pytest.raises(ScenarioError):
        augment(graph, [InfoSpec(id=0, sources={(9, 0)}, destinations={1})])
    with pytest.raises(ScenarioError):
        augment(graph, [InfoSpec(id=0, sources={(0, 0)}, destinations={9})])


def _equivalence_scenarios():
    # infos listed out of id order, then generated paper and micro seeds
    yield instances.static_scenario(
        positions=[(0, 0), (10, 0), (20, 0)], horizon=3, infos=[
            InfoSpec(id=2, sources={(2, 0)}, destinations={0}),
            InfoSpec(id=0, sources={(0, 0)}, destinations={2})])
    for seed in (1, 2, 5):
        yield generate_scenario(make_config("micro", seed))
    for seed in (1, 7):
        yield generate_scenario(make_config("paper", seed, horizon=40))


def _outputs(graph):
    """Canonical reports of mpf, muf, r[0] and a node-bounded exact solve,
    and the LP text."""
    reports = [greedy_plan(graph, None, HeuristicKind(name, seed))
               for name, seed in (("mpf", None), ("muf", None), ("r", 0))]
    reports.append(solve_exact(graph, budget=SearchBudget(max_nodes=300)))
    return ([canonical_dumps(report_to_dict(graph, r)) for r in reports],
            export_lp(graph))


def test_built_graph_serves_its_scenario_infos():
    # build_time_expanded_graph gives what augmenting it with the
    # scenario's own infos gives: the same infos and the same outputs
    for scenario in _equivalence_scenarios():
        built = build_time_expanded_graph(scenario)
        augmented = augment(build_time_expanded_graph(scenario), scenario.infos)
        assert built.infos == augmented.infos \
            == tuple(sorted(scenario.infos, key=lambda i: i.id))
        assert [i.id for i in built.infos] == sorted(i.id for i in scenario.infos)
        assert _outputs(built) == _outputs(augmented)


def test_augmenting_a_built_graph_with_a_subset():
    scenario = generate_scenario(make_config("paper", 3, info_count=4,
                                             horizon=30))
    built = build_time_expanded_graph(scenario)
    before = built.infos
    subset = scenario.infos[2:0:-1]
    graph = augment(built, subset)
    assert graph.infos == tuple(sorted(subset, key=lambda i: i.id))
    assert built.infos is before and len(before) == 4
    for name, value in vars(built).items():
        if name != "infos":
            assert getattr(graph, name) is value, name
    with pytest.raises(PlanStructureError):
        graph.served([scenario.infos[0]])


def test_infospec_rejects_empty_sets():
    with pytest.raises(ScenarioError):
        InfoSpec(id=0, sources=set(), destinations={1})
    with pytest.raises(ScenarioError):
        InfoSpec(id=0, sources={(0, 0)}, destinations=set())


# a layer's collision set: the connectivity edges that share its channels,
# those whose tail lies in the layer

def _collision_sets(graph):
    """Each layer's collision set, in edge-index order."""
    layers = [[] for _ in range(graph.horizon)]
    for e in graph.edges:
        if graph.edge_kind[e] == KIND_CONNECTIVITY:
            layers[graph.edge_tail[e] % graph.horizon].append(e)
    return layers


def test_collision_set_contents():
    graph = build_time_expanded_graph(instances.chain3())
    edges = _collision_sets(graph)[0]
    assert len(edges) == 4
    assert all(graph.edge_kind[e] == KIND_CONNECTIVITY for e in edges)


def test_collision_set_three_mutually_in_range():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0), (0, 5)], channels=6,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    assert len(_collision_sets(graph)[0]) == 6


def test_collision_set_empty_when_dispersed():
    scen = instances.static_scenario(
        positions=[(0, 0), (500, 0), (0, 500)], horizon=2,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={0})])
    graph = build_time_expanded_graph(scen)
    assert _collision_sets(graph)[1] == []


def test_build_is_deterministic():
    scen = instances.star4()
    g1 = build_time_expanded_graph(scen)
    g2 = build_time_expanded_graph(scen)
    for name in ("edge_tail", "edge_head", "edge_kind", "edge_weight"):
        assert getattr(g1, name) == getattr(g2, name), name


# The kernel as it was before its early stop, per-vertex layer gate and
# pre-settled deletions: a plain Dijkstra that checks every edge on its own.
def _reference_shortest_paths(graph, seeds, adjacency, ends, deleted, power,
                              channel_used, layer_delta, goal=None, late=()):
    """Cheapest paths between the zero-cost `seeds` and every other vertex.

    Direction is data: `out_edges` with `edge_head` walks forward from the
    seeds, `in_edges` with `edge_tail` walks backward to them. Connectivity
    steps cost the weight minus the walked vertex's residual `power` (never
    below zero) and are skipped in time units whose `channel_used` plus
    `layer_delta` fills the channel budget; connectivity and caching edges
    out of a `deleted` vertex, and every edge into one, are skipped. The
    `late` seeds enter at distance 0 with parent -1, in id order, once no
    distance-0 heap entry is left; one already settled or deleted is
    skipped. With a `goal` UAV the search stops at the first of its copies
    it settles. The discount and the deletions are keyed on the vertex being
    walked, which is the tail of a forward edge but the head of a backward
    one, so backward callers pass an empty residual state.

    Returns (dist, parent, reached): parent[v] is the edge that reached v,
    -1 for the seeds, the late seeds and unreached vertices; `reached` is
    the goal copy settled first, or -1.
    """
    inf = math.inf
    dist = [inf] * graph.vertex_count
    parent = [-1] * graph.vertex_count
    done = bytearray(graph.vertex_count)
    heap = [(0.0, v) for v in seeds]
    heapify(heap)
    for _, v in heap:
        dist[v] = 0.0
    kinds = graph.edge_kind
    weights = graph.edge_weight
    channels = graph.channels
    late = sorted(late)
    while heap or late:
        if late and (not heap or heap[0][0] > 0.0):
            for v in late:
                if not done[v] and v not in deleted:
                    dist[v] = 0.0
                    parent[v] = -1
                    heappush(heap, (0.0, v))
            late = []
            continue
        d, v = heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        if goal is not None and v // graph.horizon == goal:
            return dist, parent, v
        if v in deleted:
            continue
        v_power = power.get(v, 0.0)
        for e in adjacency[v]:
            head = ends[e]
            if done[head] or head in deleted:
                continue
            if kinds[e] == 0:  # connectivity
                t = graph.edge_tail[e] % graph.horizon
                if channel_used[t] + layer_delta.get(t, 0) >= channels:
                    continue
                w = weights[e]
                step = w - v_power if w > v_power else 0.0
            else:  # caching
                step = 0.0
            nd = d + step
            if nd < dist[head]:
                dist[head] = nd
                parent[head] = e
                heappush(heap, (nd, head))
    return dist, parent, -1


def _kernel_graphs():
    """Micro instances plus one mid-size generated scenario."""
    produced = 0
    seed = 0
    while produced < 24:
        seed += 1
        try:
            scenario = generate_scenario(make_config(
                "micro", seed, uav_count=3 + seed % 3, horizon=4 + seed % 4,
                info_count=1 + seed % 3, channels=1 + seed % 2,
                gather_radius=18.0, area_side=55.0,
                destinations_per_info=(1, 2)))
        except (GenerationError, ValueError):
            continue
        produced += 1
        yield build_time_expanded_graph(scenario)
    scenario = generate_scenario(make_config(
        "paper", 3, uav_count=10, info_count=4, horizon=60, channels=2,
        area_side=200.0, gather_radius=20.0, destinations_per_info=(2, 4)))
    yield build_time_expanded_graph(scenario)


def _random_residual(graph, rng):
    """A greedy-like residual state, its seeds, and the info being served.

    Some other infos' trees are committed first; the seeds are part of a
    tree built for the served info on that state, so no seed is deleted, and
    the late seeds are the info's source copies. Extra deletions, power
    discounts on seeds (as `build_tree` gives them) that sometimes zero a
    step exactly, and channel counts that fill some layers are added on top.
    """
    infos = list(graph.infos)
    rng.shuffle(infos)
    info = infos.pop()
    state = ResidualState(graph)
    for other in infos:
        if rng.random() < 0.6:
            tree = build_tree(graph, other, state)
            if tree is not None:
                state.commit(tree)
    seeds = set()
    tree = build_tree(graph, info, state)
    if tree is not None:
        for e in tree.edges:
            if rng.random() < 0.5:
                seeds.update((graph.edge_tail[e], graph.edge_head[e]))
    seeds = sorted(seeds)
    late = [graph.vertex_id(u, t) for u, t in sorted(info.sources)]
    deleted = set(state.deleted)
    for v in range(graph.vertex_count):
        if v not in seeds and rng.random() < 0.1:
            deleted.add(v)
    power = {}
    for v in seeds:
        conn = [graph.edge_weight[e] for e in graph.out_edges[v]
                if graph.edge_kind[e] == 0]
        if conn and rng.random() < 0.3:
            w = rng.choice(conn)
            power[v] = w if rng.random() < 0.5 else w * rng.uniform(0.2, 1.5)
    channel_used = list(state.channel_used)
    layer_delta = {t: rng.randint(0, graph.channels)
                   for t in range(graph.horizon) if rng.random() < 0.4}
    return info, seeds, late, deleted, power, channel_used, layer_delta


def test_shortest_paths_match_reference_kernel():
    rng = random.Random(2024)
    early_stops = 0
    for graph in _kernel_graphs():
        for _ in range(6):
            info, seeds, late, deleted, power, used, delta = _random_residual(
                graph, rng)
            forward = (graph, seeds, graph.out_edges, graph.edge_head,
                       deleted, power, used, delta)
            folded = [n + delta.get(t, 0) for t, n in enumerate(used)]
            goals = sorted(info.destinations)
            goals += rng.sample(range(graph.uav_count), 2)
            for goal in goals:
                dist, parent, reached = _shortest_paths(
                    *forward[:6], folded, goal, late)
                ref_dist, ref_parent, ref_reached = _reference_shortest_paths(
                    *forward, goal, late)
                assert reached == ref_reached
                if reached >= 0:
                    assert dist[reached] == ref_dist[reached]
                    assert _walk_back(graph, parent, reached) \
                        == _walk_back(graph, ref_parent, reached)
                early_stops += dist != ref_dist
            assert _shortest_paths(*forward[:6], folded, None, late) \
                == _reference_shortest_paths(*forward, None, late)

            uav = rng.randrange(graph.uav_count)
            copies = [graph.vertex_id(uav, t) for t in range(graph.horizon)
                      if graph.vertex_id(uav, t) not in deleted]
            backward = (graph, copies, graph.in_edges, graph.edge_tail,
                        deleted, {}, used, delta)  # no discounts backward
            assert _shortest_paths(*backward[:6], folded) \
                == _reference_shortest_paths(*backward)
    assert early_stops > 0  # the early stop really left work undone


# --- the kernel's level-end relaxations and caching chains ---------------

def _flat_graph(uav_count, horizon, conn, channels=1):
    """A hand-built graph in the builder's flat-list layout.

    Vertex (u, t) is u * horizon + t and caches into (u, t + 1); `conn` maps
    (tail uav, head uav, t) to a connectivity weight.
    """
    edges = []  # (tail, head, kind, weight)
    for t in range(horizon):
        for u in range(uav_count):
            v = u * horizon + t
            for u2 in range(uav_count):
                if u2 == u and t + 1 < horizon:
                    edges.append((v, v + 1, 1, 0.0))
                elif (u, u2, t) in conn:
                    edges.append((v, u2 * horizon + t, 0, conn[(u, u2, t)]))
    vertex_count = uav_count * horizon
    out_edges = [range(0)] * vertex_count  # a tail's edges are contiguous
    in_edges = [[] for _ in range(vertex_count)]
    caching_edge = [-1] * vertex_count
    for e, (tail, head, kind, _) in enumerate(edges):
        out_edges[tail] = range(out_edges[tail].start if out_edges[tail]
                                else e, e + 1)
        in_edges[head].append(e)
        if kind:
            caching_edge[tail] = e
    tails, heads, kinds, weights = ([edge[i] for edge in edges]
                                    for i in range(4))
    graph = SimpleNamespace(
        edge_tail=tails, edge_head=heads, edge_kind=kinds, edge_weight=weights,
        uav_count=uav_count, horizon=horizon,
        channels=channels, vertex_count=vertex_count,
        out_edges=out_edges, in_edges=in_edges, caching_edge=caching_edge,
        min_connectivity_weight=min(conn.values(), default=math.inf))
    graph.feeders = _feeder_table(graph)
    return graph


def _feeder_table(graph):
    """The builder's `feeders` derived from `in_edges`: per UAV g, a flag
    for every tail of a connectivity edge into one of g's copies."""
    table = [bytearray(graph.vertex_count) for _ in range(graph.uav_count)]
    for v, ins in enumerate(graph.in_edges):
        for e in ins:
            if graph.edge_kind[e] == KIND_CONNECTIVITY:
                table[v // graph.horizon][graph.edge_tail[e]] = 1
    return table


def _assert_kernel_matches_reference(graph, seeds, deleted=(), power=None,
                                     channel_used=None, layer_delta=None,
                                     late=(), goals=None):
    """Full arrays both ways, then the walk to each goal (all UAVs unless
    given) forward."""
    power = {} if power is None else power
    used = [0] * graph.horizon if channel_used is None else channel_used
    delta = {} if layer_delta is None else layer_delta
    if goals is None:
        goals = range(graph.uav_count)
    for adjacency, ends, back, residual, aims in (
            (graph.out_edges, graph.edge_head, graph.edge_tail, power, goals),
            (graph.in_edges, graph.edge_tail, graph.edge_head, {}, ())):
        args = (graph, seeds, adjacency, ends, set(deleted), residual, used,
                delta)
        kernel_args = args[:6] + ([n + delta.get(t, 0)
                                   for t, n in enumerate(used)],)
        assert _shortest_paths(*kernel_args, None, late) \
            == _reference_shortest_paths(*args, None, late)
        for goal in aims:
            dist, parent, reached = _shortest_paths(*kernel_args, goal, late)
            ref_dist, ref_parent, ref_reached = _reference_shortest_paths(
                *args, goal, late)
            assert reached == ref_reached
            if reached >= 0:
                assert dist[reached] == ref_dist[reached]
                assert _walk(parent, back, reached) \
                    == _walk(ref_parent, back, reached)


def _walk(parent, back, v):
    path = []
    while parent[v] >= 0:
        path.append(parent[v])
        v = back[parent[v]]
    return path


def test_kernel_step_that_rounds_to_its_level():
    # 1e16 + 1.0 == 1e16: UAV 2 is reached at level 1e16 and must be settled
    # there, before UAV 3, so its edge into UAV 4 wins the tie at 2e16
    conn = {(0, 1, 0): 1e16, (0, 3, 0): 1e16, (1, 2, 0): 1.0,
            (2, 4, 0): 1e16, (3, 4, 0): 1e16}
    graph = _flat_graph(5, 1, conn)
    assert 1e16 + graph.min_connectivity_weight == 1e16
    dist, parent, _ = _shortest_paths(graph, [0], graph.out_edges,
                                      graph.edge_head, (), {}, [0])
    assert dist[2] == 1e16 and graph.edge_tail[parent[4]] == 2
    _assert_kernel_matches_reference(graph, [0])


def test_kernel_all_weights_equal():
    conn = {(u, u2, t): 1.0 for u in range(4) for u2 in range(4)
            for t in range(3) if u != u2}
    graph = _flat_graph(4, 3, conn, channels=2)
    _assert_kernel_matches_reference(graph, [0])
    _assert_kernel_matches_reference(graph, [], late=[0, 7])
    _assert_kernel_matches_reference(graph, [1, 6, 11])
    _assert_kernel_matches_reference(graph, [6], late=[0, 7])
    # all weights 0: no vertex is fast, so late seed (0,0) takes the
    # per-vertex path and pushes (2,0), which must pop after the queued late
    # seed (1,1), a lower id: (1,1)'s edge into (2,1) wins over the caching
    # step from (2,0)
    graph = _flat_graph(3, 2, {(0, 2, 0): 0.0, (1, 2, 1): 0.0})
    dist, parent, _ = _shortest_paths(graph, (), graph.out_edges,
                                      graph.edge_head, (), {}, [0, 0],
                                      late=[0, 3])
    assert dist[5] == 0.0 and graph.edge_tail[parent[5]] == 3
    _assert_kernel_matches_reference(graph, [], late=[0, 3])


def test_kernel_discount_that_zeroes_a_step():
    # UAV 0's discount makes its step to UAV 1 free, so UAV 1 is settled at
    # 0 before UAV 2 and its edge into UAV 3 wins the tie at 1.0
    conn = {(0, 1, 0): 2.0, (1, 3, 0): 1.0, (2, 3, 0): 1.0}
    graph = _flat_graph(4, 1, conn)
    dist, parent, _ = _shortest_paths(graph, [0, 2], graph.out_edges,
                                      graph.edge_head, (), {0: 2.0}, [0])
    assert dist[1] == 0.0 and graph.edge_tail[parent[3]] == 1
    _assert_kernel_matches_reference(graph, [0, 2], power={0: 2.0})


def test_kernel_discounted_positive_step_keeps_settle_order():
    # UAV 0 (no discount) and UAV 1 (discount 1.0) both reach UAV 2 at 1.0;
    # UAV 0 was settled first, so its edge is the parent
    conn = {(0, 2, 0): 1.0, (1, 2, 0): 2.0}
    graph = _flat_graph(3, 1, conn)
    dist, parent, _ = _shortest_paths(graph, [0, 1], graph.out_edges,
                                      graph.edge_head, (), {1: 1.0}, [0])
    assert dist[2] == 1.0 and graph.edge_tail[parent[2]] == 0
    _assert_kernel_matches_reference(graph, [0, 1], power={1: 1.0})


def test_kernel_deleted_caching_successor():
    conn = {(0, 1, 0): 1.0, (1, 0, 2): 1.0, (0, 2, 1): 2.0, (2, 0, 3): 1.0,
            (1, 2, 3): 1.0}
    graph = _flat_graph(3, 4, conn)
    # (0, 1) is deleted: UAV 0's chain breaks after t = 0
    _assert_kernel_matches_reference(graph, [], deleted=[1], late=[0])
    _assert_kernel_matches_reference(graph, [0, 4], deleted=[2, 9])


def test_kernel_closed_layer():
    conn = {(0, 1, t): 1.0 for t in range(3)}
    conn.update({(1, 2, t): 2.0 for t in range(3)})
    graph = _flat_graph(3, 3, conn, channels=1)
    _assert_kernel_matches_reference(graph, [0], channel_used=[1, 0, 0])
    _assert_kernel_matches_reference(graph, [0], channel_used=[0, 0, 0],
                                     layer_delta={0: 1, 1: 1})
    _assert_kernel_matches_reference(graph, [0], power={0: 1.0},
                                     layer_delta={0: 1})
    # 1e16 + 1.0 == 1e16: UAV 1's copies take the per-vertex path at 1e16,
    # and (1,1), in the closed layer 1, sends nothing: (2,1) is reached by
    # caching from (2,0), not by the edge out of (1,1), which pops first
    conn = {(0, 1, t): 1e16 for t in range(3)}
    conn.update({(1, 2, t): 1.0 for t in range(3)})
    graph = _flat_graph(3, 3, conn, channels=1)
    dist, parent, _ = _shortest_paths(graph, [0], graph.out_edges,
                                      graph.edge_head, (), {}, [0, 1, 0])
    assert dist[3:9] == [1e16] * 6 and graph.edge_kind[parent[7]] == KIND_CACHING
    _assert_kernel_matches_reference(graph, [0], layer_delta={1: 1})


def test_kernel_backward_direction():
    conn = {(1, 0, 0): 1.0, (2, 1, 0): 1.0, (2, 0, 1): 2.0, (1, 2, 1): 1.0,
            (0, 2, 2): 1.0}
    graph = _flat_graph(3, 3, conn)
    copies = [0, 1, 2]  # UAV 0 at t = 0, 1, 2
    dist, _, _ = _shortest_paths(graph, copies, graph.in_edges,
                                 graph.edge_tail, (), {}, [0] * 3)
    # UAV 2 at t = 0 reaches UAV 0 through UAV 1 (2.0) or by caching to
    # t = 1 and sending directly (2.0)
    assert dist[6] == 2.0 and dist[3] == 1.0
    _assert_kernel_matches_reference(graph, copies)


def test_kernel_late_seeds_follow_the_seeds_zero_closure():
    # seed (2,1)'s discount makes its step to (1,1) free, and late seed
    # (1,0), a lower id, caches into (1,1) at 0 too: the seed's closure is
    # settled first, so its edge is the parent. Late seed (0,0) is a seed
    # already and is skipped; the goal's copy (3,1) is reached from (1,1)
    conn = {(2, 1, 1): 1.0, (1, 3, 1): 1.0, (2, 3, 0): 3.0}
    graph = _flat_graph(4, 2, conn)
    late = [0, 2]
    dist, parent, reached = _forward(graph, [0, 5], {5: 1.0}, 3, late)
    assert reached == 7 and dist[7] == 1.0
    assert [graph.edge_tail[e] for e in _walk(parent, graph.edge_tail, 7)] \
        == [3, 5]
    assert (dist[2], parent[2], parent[0]) == (0.0, -1, -1)
    _assert_kernel_matches_reference(graph, [0, 5], power={5: 1.0},
                                     late=late)


def test_kernel_late_seed_on_a_caching_chain_starts_its_own():
    # late seeds (0,0) and (0,2): the chain from (0,0) stops at (0,2), whose
    # `dist` is 0 already, so (0,2) keeps parent -1 and chains on to (0,3)
    graph = _flat_graph(2, 4, {(1, 0, 1): 1.0})
    dist, parent, _ = _shortest_paths(graph, (), graph.out_edges,
                                      graph.edge_head, (), {}, [0] * 4,
                                      late=[0, 2])
    assert dist[:4] == [0.0] * 4
    assert [parent[v] if parent[v] < 0 else graph.edge_tail[parent[v]]
            for v in range(4)] == [-1, 0, -1, 2]
    _assert_kernel_matches_reference(graph, [], late=[0, 2])
    _assert_kernel_matches_reference(graph, [5], late=[0, 2, 3])


def test_kernel_chain_through_a_closed_layer():
    # seed (0,0) chains through (0,1), in a closed layer, to (0,3): (0,1) is
    # settled at 0 but its edge into (1,1) is never relaxed, and UAV 1 is
    # first reached in layer 2
    conn = {(0, 1, 1): 1.0, (0, 1, 2): 2.0}
    graph = _flat_graph(2, 4, conn)
    used = [0, 1, 0, 0]
    dist, parent, _ = _shortest_paths(graph, [0], graph.out_edges,
                                      graph.edge_head, (), {}, used)
    assert dist == [0.0] * 4 + [math.inf, math.inf, 2.0, 2.0]
    assert graph.edge_tail[parent[1]] == 0 and graph.edge_tail[parent[6]] == 2
    _assert_kernel_matches_reference(graph, [0], channel_used=used)
    dist, _, reached = _forward(graph, [0], {}, 1)
    assert reached == 5 and dist[5] == 1.0  # the open layer takes (0,1)'s edge
    _assert_kernel_matches_reference(graph, [0], channel_used=used,
                                     late=[2])


def test_kernel_chain_from_a_closed_layer_keeps_its_level():
    # seed (1,0), discounted and with no edge out, takes the per-vertex path
    # and pushes (1,1), in a closed layer; (1,1) queues nothing and chains
    # on to (1,2), whose edge into (2,2) waits for the end of level 0. Only
    # a seed is discounted, so such a chain starts at 0: above 0 a closed
    # copy is reached only by its predecessor's caching step, in the
    # predecessor's own run
    conn = {(0, 1, 0): 1.0, (1, 2, 2): 1.0}
    graph = _flat_graph(3, 4, conn)
    used, power = [0, 1, 0, 0], {4: 0.5}
    dist, parent, _ = _shortest_paths(graph, [4], graph.out_edges,
                                      graph.edge_head, (), power, used)
    assert dist[4:8] == [0.0] * 4 and dist[10] == 1.0
    assert graph.edge_kind[parent[5]] == KIND_CACHING
    assert graph.edge_tail[parent[10]] == 6
    _assert_kernel_matches_reference(graph, [4], power=power,
                                     channel_used=used)


def test_kernel_run_stops_at_an_unsettled_tie():
    # (1,0) and (1,2) are both reached at 1.0 at the end of level 0: the run
    # from (1,0) settles (1,1) and stops at (1,2), which keeps its own edge
    # from (0,2) and starts the next run
    conn = {(0, 1, 0): 1.0, (0, 1, 2): 1.0}
    graph = _flat_graph(2, 4, conn)
    dist, parent, _ = _shortest_paths(graph, [0], graph.out_edges,
                                      graph.edge_head, (), {}, [0] * 4)
    assert dist[4:] == [1.0] * 4
    assert [graph.edge_tail[parent[v]] for v in range(4, 8)] == [0, 4, 2, 6]
    assert graph.edge_kind[parent[6]] == KIND_CONNECTIVITY
    _assert_kernel_matches_reference(graph, [0])


def test_kernel_closed_layers_split_a_run():
    # seed (0,0)'s run covers UAV 0, but layers 1, 3 and 4 are closed: only
    # (0,0), (0,2) and (0,5) send, so UAV 1 is first reached at (1,5), and
    # (1,3) and (1,4) at 2.0 through (0,2), not at 1.0 through their own
    # layers
    weights = (3.0, 1.0, 2.0, 1.0, 1.0, 1.5)
    conn = {(0, 1, t): w for t, w in enumerate(weights)}
    graph = _flat_graph(2, 6, conn)
    used = [0, 1, 0, 1, 1, 0]
    dist, _, _ = _shortest_paths(graph, [0], graph.out_edges,
                                 graph.edge_head, (), {}, used)
    assert dist[6:] == [3.0, 3.0, 2.0, 2.0, 2.0, 1.5]
    dist, parent, reached = _shortest_paths(graph, [0], graph.out_edges,
                                            graph.edge_head, (), {}, used, 1)
    assert reached == 11 and graph.edge_tail[parent[11]] == 5
    _assert_kernel_matches_reference(graph, [0], channel_used=used)
    _assert_kernel_matches_reference(graph, [], channel_used=used,
                                     late=[0, 1, 2])


def test_kernel_backward_runs_descend():
    # backward from UAV 0's copies, against the reference: (1,4) reaches
    # them at 1.0 and its caching steps carry that down to (1,2), above the
    # deleted (1,1); the closed layer 3 keeps (1,3) from walking its in-edge
    # from (2,3), so UAV 2 is reached only through (1,2), at 1.5, and
    # caching carries that down to (2,0)
    conn = {(1, 0, 4): 1.0, (2, 1, 3): 0.25, (2, 1, 2): 0.5, (2, 0, 1): 2.0}
    graph = _flat_graph(3, 5, conn)
    copies, deleted, used = [0, 1, 2, 3, 4], {6}, [0, 0, 0, 1, 0]
    dist, parent, _ = _shortest_paths(graph, copies, graph.in_edges,
                                      graph.edge_tail, deleted, {}, used)
    assert dist[5:10] == [math.inf, math.inf, 1.0, 1.0, 1.0]
    assert dist[10:15] == [1.5, 1.5, 1.5, math.inf, math.inf]
    assert [graph.edge_head[parent[v]] for v in (7, 8, 10, 11, 12)] \
        == [8, 9, 11, 12, 7]
    _assert_kernel_matches_reference(graph, copies, deleted=deleted,
                                     channel_used=used)
    _assert_kernel_matches_reference(graph, copies, channel_used=used)


# Inputs of retired tests: each discounts a vertex that is no seed, which
# no caller does (see `build_tree`), and the kernel refuses it.
@pytest.mark.parametrize("uav_count, horizon, conn, seeds, power, goal, late", [
    pytest.param(3, 4, {(0, 1, 0): 1.0, (1, 2, 2): 1.0, (0, 2, 3): 1.0},
                 [0], {6: 1.0}, None, (), id="run-key-above-zero"),
    pytest.param(3, 4, {(0, 1, 2): 1.0, (2, 1, 2): 1.0},
                 [0, 10], {2: 1.0, 10: 1.0}, None, (), id="chain-vertex"),
    pytest.param(4, 1, {(0, 3, 0): 1.8, (0, 1, 0): 1.0, (1, 3, 0): 2.0},
                 [0], {1: 1.5}, 3, (), id="bound-discount"),
    pytest.param(3, 6, {(2, 1, 2): 1.5},
                 [10, 16], {8: 2.0}, None, (), id="backward-key"),
    pytest.param(2, 4, {(0, 1, 0): 1.0, (1, 0, 3): 1.0},
                 [], {0: 1.0}, None, [0, 5, 6], id="late-seed-key"),
    pytest.param(2, 4, {(0, 1, 0): 1.0, (1, 0, 3): 1.0},
                 [], {0: 1.0, 5: 1.0}, None, [0, 5, 6], id="key-in-late-run"),
])
def test_kernel_refuses_a_discount_off_the_seeds(uav_count, horizon, conn,
                                                 seeds, power, goal, late):
    graph = _flat_graph(uav_count, horizon, conn)
    used = [0] * horizon
    for adjacency, ends, aim in ((graph.out_edges, graph.edge_head, goal),
                                 (graph.in_edges, graph.edge_tail, None)):
        with pytest.raises(InternalError, match="no seed"):
            _shortest_paths(graph, seeds, adjacency, ends, (), power, used,
                            aim, late)


def _paper_graphs():
    for seed in (1, 2, 5):
        yield build_time_expanded_graph(generate_scenario(make_config(
            "paper", seed, uav_count=8, info_count=4, horizon=120,
            channels=1, area_side=150.0)))


def test_kernel_matches_reference_on_greedy_searches(monkeypatch):
    # every search the greedy makes on paper-profile scenarios, with the
    # real source copies as late seeds and the committed state's deletions,
    # discounts and closed layers, both with its goal and without
    searches = []

    def recording(graph, seeds, adjacency, ends, deleted, power, used,
                  goal=None, late=()):
        searches.append((graph, sorted(seeds), adjacency, ends, set(deleted),
                         dict(power), list(used), goal, sorted(late)))
        return _shortest_paths(graph, seeds, adjacency, ends, deleted, power,
                               used, goal, late)

    monkeypatch.setattr(heuristic, "_shortest_paths", recording)
    for graph in _paper_graphs():
        for kind in ("mpf", "muf"):
            greedy_plan(graph, graph.infos, HeuristicKind(kind))
    monkeypatch.undo()
    chained = closed = 0
    for graph, seeds, adjacency, ends, deleted, power, used, goal, late \
            in searches:
        args = (graph, seeds, adjacency, ends, deleted, power, used, {})
        dist, parent, reached = _shortest_paths(*args[:7], goal, late)
        ref_dist, ref_parent, ref_reached = _reference_shortest_paths(
            *args, goal, late)
        assert reached == ref_reached
        if reached >= 0:
            assert dist[reached] == ref_dist[reached]
            assert _walk_back(graph, parent, reached) \
                == _walk_back(graph, ref_parent, reached)
        full = _shortest_paths(*args[:7], None, late)
        assert full == _reference_shortest_paths(*args, None, late)
        chained += sum(d == 0.0 and e >= 0 and graph.edge_kind[e]
                       for d, e in zip(full[0], full[1]))
        closed += any(n >= graph.channels for n in used)
    assert len(searches) >= 30 and closed > 0
    assert chained > 5_000  # long distance-0 caching chains were walked


def test_kernel_matches_reference_on_backward_searches():
    # the graph's distance tables, which `exact` reads: every UAV's copies,
    # walked back over `in_edges`, with no residual state, and the same
    # searches with closed layers
    for graph in _paper_graphs():
        closed = [graph.channels * (t % 5 == 0) for t in range(graph.horizon)]
        for uav in range(graph.uav_count):
            copies = [graph.vertex_id(uav, t) for t in range(graph.horizon)]
            for used in ([0] * graph.horizon, closed):
                args = (graph, copies, graph.in_edges, graph.edge_tail, (),
                        {}, used)
                assert _shortest_paths(*args) \
                    == _reference_shortest_paths(*args, {})


# --- the kernel's target bound --------------------------------------------

def _forward(graph, seeds, power, goal, late=()):
    return _shortest_paths(graph, seeds, graph.out_edges, graph.edge_head,
                           (), power, [0] * graph.horizon, goal, late)


def test_kernel_bound_tie_goes_to_the_tail_settled_first():
    # seed 3's discount makes its step to UAV 1 free, so UAV 1 is settled at
    # 0 after seed 2; both reach the goal, UAV 4, at 1.0 at that level's
    # end, and UAV 2, settled first, is the parent although its id is higher
    conn = {(3, 1, 0): 2.0, (2, 4, 0): 1.0, (1, 4, 0): 1.0}
    graph = _flat_graph(5, 1, conn)
    dist, parent, reached = _forward(graph, [2, 3], {3: 2.0}, 4)
    assert reached == 4 and dist[4] == 1.0 and graph.edge_tail[parent[4]] == 2
    _assert_kernel_matches_reference(graph, [2, 3], power={3: 2.0})


def test_kernel_bound_seed_feeder_skips_other_chains():
    # seed (2, 1) is a copy of the goal, so the bound is 0 from the start;
    # seed (1, 0)'s discounted free step reaches (2, 0), a lower id, which
    # wins
    conn = {(1, 2, 0): 1.0, (0, 1, 1): 1.0}
    graph = _flat_graph(3, 3, conn)
    seeds, power = [0, 3, 7], {3: 1.0}
    dist, parent, reached = _forward(graph, seeds, power, 2)
    assert reached == 6 and dist[6] == 0.0 and graph.edge_tail[parent[6]] == 3
    assert dist[1] == math.inf  # UAV 0's caching chain was never walked
    _assert_kernel_matches_reference(graph, seeds, power=power)


def test_kernel_bound_late_seed_feeder():
    # late seed (0, 2) is a copy of the goal, so the bound falls to 0 when
    # it enters, and the later late seed (2, 0), no copy, is dropped; the
    # answer is (0, 2) at 0 with no edge, after seed (1, 0)'s closure
    conn = {(1, 0, 0): 1.0, (2, 0, 0): 1.0}
    graph = _flat_graph(3, 3, conn)
    late = [2, 6]
    dist, parent, reached = _forward(graph, [3], {}, 0, late)
    assert reached == 2 and dist[2] == 0.0 and parent[2] == -1
    assert dist[5] == 0.0 and dist[6] == math.inf
    _assert_kernel_matches_reference(graph, [3], late=late)


def test_kernel_bound_two_hop_answer():
    # no seed step reaches the goal, UAV 2, so the bound is still infinite
    # at the first level end; UAVs 1 and 3 tie at 2.0 and UAV 1 wins
    conn = {(0, 1, 0): 1.0, (0, 3, 0): 1.0, (1, 2, 0): 1.0, (3, 2, 0): 1.0}
    graph = _flat_graph(4, 1, conn)
    dist, parent, reached = _forward(graph, [0], {}, 2)
    assert reached == 2 and dist[2] == 2.0 and graph.edge_tail[parent[2]] == 1
    _assert_kernel_matches_reference(graph, [0])


def test_kernel_bound_reads_discounted_tails_when_plain_steps_cannot_help():
    # at the end of level 0 seed UAV 2's edge sets the bound to 1.8, above
    # which 0 + 1.0 + the min weight 1.0 lies, so of the pending tails only
    # the discounted seed, UAV 0, is read: its step to UAV 1 costs 0.5, and
    # 0 -> 1 -> 3 wins at 1.5
    conn = {(0, 1, 0): 2.0, (2, 3, 0): 1.8, (1, 3, 0): 1.0}
    graph = _flat_graph(4, 1, conn)
    dist, parent, reached = _forward(graph, [0, 2], {0: 1.5}, 3)
    assert reached == 3 and dist[3] == 1.5 and graph.edge_tail[parent[3]] == 1
    _assert_kernel_matches_reference(graph, [0, 2], power={0: 1.5})


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_matches_reference_on_small_graphs(data):
    values = data.draw(st.sampled_from(
        [(1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 2.0), (1.0, 1e16)]))
    uav_count = data.draw(st.integers(2, 4))
    horizon = data.draw(st.integers(1, 4))
    real = uav_count * horizon
    pairs = [(u, u2, t) for t in range(horizon) for u in range(uav_count)
             for u2 in range(uav_count) if u != u2]
    conn = {key: data.draw(st.sampled_from(values)) for key in pairs
            if data.draw(st.booleans())}
    vertices = st.integers(0, real - 1)
    late = sorted(data.draw(st.lists(vertices, max_size=3, unique=True)))
    channels = data.draw(st.integers(1, 2))
    graph = _flat_graph(uav_count, horizon, conn, channels)
    seeds = sorted(data.draw(st.sets(vertices, min_size=0 if late else 1,
                                     max_size=3)))
    deleted = data.draw(st.sets(vertices, max_size=3)) - set(seeds)
    # discounts on seeds only, as `build_tree` gives them and the kernel
    # requires
    power = data.draw(st.dictionaries(
        st.sampled_from(seeds), st.sampled_from(values + (0.5 * values[0],)),
        max_size=4)) if seeds else {}
    used = data.draw(st.lists(st.integers(0, channels), min_size=horizon,
                              max_size=horizon))
    delta = data.draw(st.dictionaries(st.integers(0, horizon - 1),
                                      st.integers(0, channels), max_size=2))
    _assert_kernel_matches_reference(graph, seeds, deleted, power, used,
                                     delta, late)


@given(st.randoms(use_true_random=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_bound_matches_reference_near_a_destination(rng):
    # one or two dense layers and one goal UAV: the target bound prunes in
    # most examples, feeder ties are common, and 1.5 lies between the
    # smallest weight and twice it, where a wrong `step` shows. Drawn
    # uniformly: Hypothesis' own draws favour sparse, equal-weight graphs
    values = (1.0, 1.5, 2.0)
    uav_count = rng.randint(3, 6)
    horizon = rng.randint(1, 2)
    real = uav_count * horizon
    conn = {(u, u2, t): rng.choice(values) for t in range(horizon)
            for u in range(uav_count) for u2 in range(uav_count)
            if u != u2 and rng.random() < 0.75}
    graph = _flat_graph(uav_count, horizon, conn)
    goal = rng.randrange(uav_count)
    seeds = sorted(rng.sample(range(real), rng.randint(1, 3)))
    power = {v: rng.choice(values + (0.5,)) for v in seeds
             if rng.random() < 0.5}
    late = sorted(rng.sample(range(real), rng.randint(0, 2)))
    _assert_kernel_matches_reference(graph, seeds, power=power, late=late,
                                     goals=[goal])


# --- the flat-list builder against a record builder ----------------------

# A second builder that derives every edge from the scenario as a record:
# the records are its only output, a dict maps each (tail, head) pair to
# its index, and the library's flat lists are compared with them field by
# field.
_Edge = namedtuple("_Edge", "index tail head kind weight time")


def _reference_view(scenario, edges, out_edges, in_edges, collision_sets):
    return SimpleNamespace(
        uav_count=scenario.uav_count, horizon=scenario.horizon, edges=edges,
        out_edges=out_edges, in_edges=in_edges, collision_sets=collision_sets,
        vertex_count=scenario.uav_count * scenario.horizon,
        edge_index_by_pair={(e.tail, e.head): e.index for e in edges},
        infos=tuple(sorted(scenario.infos, key=lambda i: i.id)),
        vertex_id=lambda uav, time: uav * scenario.horizon + time)


def _reference_build(scenario):
    horizon = scenario.horizon
    uav_count = scenario.uav_count
    vertex_count = uav_count * horizon
    edges: list[_Edge] = []
    out_edges = [[] for _ in range(vertex_count)]
    in_edges = [[] for _ in range(vertex_count)]
    collision_sets = [[] for _ in range(horizon)]

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
                        edge = _Edge(len(edges), tail, head, CACHING, 0.0, t)
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
                edge = _Edge(len(edges), tail, head, CONNECTIVITY,
                             weights[u][k], t)
                edges.append(edge)
                out_edges[tail].append(edge.index)
                in_edges[head].append(edge.index)
                collision_sets[t].append(edge.index)

    return _reference_view(scenario, edges, out_edges, in_edges, collision_sets)


def _reference_augment(graph, infos):
    """The same graph with the infos in id order: augment adds nothing."""
    view = copy.copy(graph)
    view.infos = tuple(sorted(infos, key=lambda i: i.id))
    return view


def _reference_graph(scenario, info_sets=()):
    """The reference base graph and one augmentation per info set."""
    base = _reference_build(scenario)
    return base, [_reference_augment(base, infos) for infos in info_sets]


def _assert_same_graph(graph, ref, rng):
    for name in ("out_edges", "in_edges"):  # contents: ranges and arrays
        assert [list(x) for x in getattr(graph, name)] \
            == getattr(ref, name), name
    for v in range(ref.vertex_count):
        out = [e for e in ref.out_edges[v] if ref.edges[e].kind == CACHING]
        into = [e for e in ref.in_edges[v] if ref.edges[e].kind == CACHING]
        assert [graph.caching_edge[v]] == (out or [-1])
        assert [graph.caching_edge[v - 1]] == (into or [-1])
    assert graph.vertex_count == ref.vertex_count
    assert graph.edges == range(len(ref.edges))
    assert list(zip(graph.edges, graph.edge_tail, graph.edge_head,
                    [KIND_NAMES[k] for k in graph.edge_kind],
                    graph.edge_weight,
                    [tail % graph.horizon for tail in graph.edge_tail])) \
        == ref.edges
    assert _collision_sets(graph) == ref.collision_sets
    for (tail, head), e in ref.edge_index_by_pair.items():
        assert graph.edge_index(tail, head) == e
    for _ in range(50):
        tail = rng.randrange(ref.vertex_count)
        head = rng.randrange(ref.vertex_count)
        if (tail, head) not in ref.edge_index_by_pair:
            assert graph.edge_index(tail, head) is None
    assert [graph.vertex_label(v) for v in range(graph.vertex_count)] \
        == ["({},{})".format(*divmod(v, ref.horizon))
            for v in range(ref.vertex_count)]
    assert graph.infos == ref.infos


def _builder_scenarios():
    yield from (instances.chain3(), instances.star4(),
                instances.crossing_pair(1), instances.crossing_pair(2),
                instances.self_delivery(), instances.disjoint_pairs(),
                instances.cheap_and_expensive(), instances.asymmetric_pair())
    for seed in range(1, 40):
        try:
            yield generate_scenario(make_config("micro", seed))
        except (GenerationError, ValueError):
            continue
    for seed in range(1, 26):
        yield generate_scenario(make_config("paper", seed))
    # per-UAV radii with several subranges each, and one UAV on the default
    scenario = generate_scenario(make_config("paper", 4))
    yield dataclasses.replace(scenario, per_uav_radii={
        0: (20.0, 45.0, 90.0), 2: (5.0, 200.0), 3: (60.0,)})
    # the builder measures each pair once and tests both directions: two
    # co-located UAVs (distance 0, the inner subrange) and a third 5 m from
    # both, exactly on the inner subrange's bound
    info = InfoSpec(id=0, sources={(0, 0)}, destinations={1})
    yield instances.static_scenario(
        positions=[(0, 0), (0, 0), (3, 4)], radii=(5.0, 10.0), horizon=3,
        infos=[info])
    # UAV 1 reaches UAV 0 below it and UAV 2 above it at exactly its outer
    # radius, 5 m, beyond theirs; UAVs 0 and 2 are 10 m apart
    yield instances.static_scenario(
        positions=[(0, 0), (3, 4), (6, 8)], radii=(4.0,), horizon=2,
        per_uav_radii={1: (2.5, 5.0)}, infos=[info])
    # one UAV, and one time unit
    one = dict(uav_count=1, destinations_per_info=(1, 1))
    for overrides in (one, dict(horizon=1), dict(one, horizon=1)):
        yield generate_scenario(make_config("paper", 1, **overrides))
    # a dozen UAVs, several with radii of their own
    scenario = generate_scenario(make_config("paper", 2, uav_count=12))
    yield dataclasses.replace(scenario, per_uav_radii={
        0: (10.0, 75.0), 3: (30.0,), 4: (6.0, 12.0, 150.0), 7: (45.0, 90.0),
        11: (1.0,)})


def test_builder_matches_reference_builder():
    rng = random.Random(6)
    count = 0
    for scenario in _builder_scenarios():
        ref_base, (ref_graph,) = _reference_graph(scenario, [scenario.infos])
        base = build_time_expanded_graph(scenario)
        _assert_same_graph(base, ref_base, rng)
        _assert_same_graph(augment(base, scenario.infos), ref_graph, rng)
        count += 1
    assert count > 60


def test_feeder_table_matches_the_in_edges():
    # per UAV, the tails of the connectivity edges into its copies, also
    # with per-UAV radii, where reach is not symmetric
    count = 0
    for scenario in _builder_scenarios():
        graph = build_time_expanded_graph(scenario)
        assert len(graph.feeders) == graph.uav_count
        assert all(type(row) is bytearray for row in graph.feeders)
        assert graph.feeders == _feeder_table(graph)
        count += scenario.per_uav_radii is not None
    assert count == 4


def test_fleet_graph_matches_its_pin():
    # every table the builder makes for the fleet-size scenario (30 UAVs,
    # 20 informations, 500 time units), weights as `float.hex`: the CI pins
    # on fleet reports cover only the edges a plan uses
    scenario = generate_scenario(make_config(
        "paper", 1, uav_count=30, info_count=20, horizon=500, channels=2,
        area_side=250.0))
    graph = build_time_expanded_graph(scenario)
    assert len(graph.edges) == 108_040
    digest = hashlib.sha256()
    for table in (graph.edge_tail, graph.edge_head, graph.edge_kind,
                  [w.hex() for w in graph.edge_weight],
                  [(r.start, r.stop) for r in graph.out_edges],
                  graph.caching_edge, [row.hex() for row in graph.feeders]):
        digest.update(repr(list(table)).encode())
    assert digest.hexdigest() == \
        "9a61d1e294203c57e1f99d261317a27bc9ec11afacfadfb49ecd12a2e693950d"


def test_in_edges_are_built_on_first_read_per_graph():
    scenario = generate_scenario(make_config("paper", 3, info_count=4,
                                             horizon=30))
    base = build_time_expanded_graph(scenario)
    served = augment(base, scenario.infos[:2])
    assert "in_edges" not in vars(base) and "in_edges" not in vars(served)
    table = served.in_edges  # read through the augmented graph
    assert served.in_edges is table and "in_edges" not in vars(base)
    assert [list(ins) for ins in table] == _reference_build(scenario).in_edges
    assert all(type(ins) is array and ins.typecode == "q" for ins in table)


def test_in_edges_follow_the_edge_lists_of_a_replaced_graph():
    # a copy given another graph's edge lists derives that graph's in-edges,
    # also when the original's were read first
    graph, other = (build_time_expanded_graph(generate_scenario(make_config(
        "paper", seed, info_count=4, horizon=30))) for seed in (3, 4))
    assert graph.vertex_count == other.vertex_count
    assert graph.edge_head != other.edge_head
    assert graph.in_edges
    swapped = dataclasses.replace(graph, edge_tail=other.edge_tail,
                                  edge_head=other.edge_head)
    assert swapped.in_edges == other.in_edges != graph.in_edges


def test_augment_checks_only_infos_other_than_the_graphs(monkeypatch):
    # the graph's own informations passed `check_infos` for its fleet when
    # the scenario was built, so serving them again checks nothing
    scenario = generate_scenario(make_config("paper", 3, info_count=4,
                                             horizon=30))
    base = build_time_expanded_graph(scenario)
    checked = []
    monkeypatch.setattr(graph_module, "check_infos",
                        lambda infos, *fleet: checked.append(infos))
    assert augment(base, reversed(base.infos)).infos == base.infos
    assert checked == []
    assert augment(base, base.infos[1:]).infos == base.infos[1:]
    assert checked == [base.infos[1:]]


def test_greedy_leaves_in_edges_unbuilt():
    # no greedy search reads `in_edges`, `conn_out` or a distance table, so
    # a greedy solve never builds them
    for graph in _paper_graphs():
        for kind in ("mpf", "muf", "lpf"):
            greedy_plan(graph, graph.infos, HeuristicKind(kind))
        for table in ("in_edges", "conn_out", "_distances"):
            assert table not in vars(graph)


def test_conn_out_lists_the_connectivity_out_edges_once_per_graph():
    scenario = generate_scenario(make_config("paper", 3, info_count=4,
                                             horizon=30))
    base = build_time_expanded_graph(scenario)
    served = augment(base, scenario.infos[:2])
    assert "conn_out" not in vars(base) and "conn_out" not in vars(served)
    table = served.conn_out
    assert served.conn_out is table and "conn_out" not in vars(base)
    kinds, heads = served.edge_kind, served.edge_head
    assert table == [[(e, heads[e], served.edge_weight[e]) for e in out
                      if kinds[e] == KIND_CONNECTIVITY]
                     for out in served.out_edges]
    assert sum(map(len, table)) == kinds.count(KIND_CONNECTIVITY) > 0


def test_distances_to_builds_one_uav_on_its_first_call_and_keeps_it():
    graph = next(_paper_graphs())
    assert "_distances" not in vars(graph)
    horizon = graph.horizon
    for uav in (3, 0, 3):
        table = graph.distances_to(uav)
        copies = range(uav * horizon, (uav + 1) * horizon)
        # the backward kernel search to the UAV's copies, with no residual
        # state and no busy channel
        assert table == _reference_shortest_paths(
            graph, copies, graph.in_edges, graph.edge_tail, (), {},
            [0] * horizon, {})[0]
        assert graph.distances_to(uav) is table
    assert sorted(graph._distances) == [0, 3]


def test_source_vertices_are_sorted_ids_kept_per_graph():
    scenario = generate_scenario(make_config("paper", 3, info_count=4,
                                             horizon=30))
    base = build_time_expanded_graph(scenario)
    served = augment(base, scenario.infos[1:])
    for info in served.infos:
        ids = served.source_vertices(info)
        assert ids == sorted(base.vertex_id(u, t) for u, t in info.sources)
        assert served.source_vertices(info) is ids


def test_one_base_augmented_twice_is_left_unchanged():
    rng = random.Random(8)
    scenario = generate_scenario(make_config(
        "paper", 3, uav_count=10, info_count=4, horizon=60, channels=2,
        area_side=200.0, gather_radius=20.0, destinations_per_info=(2, 4)))
    first, second = scenario.infos[:2], scenario.infos[1:]
    ref_base, ref_graphs = _reference_graph(scenario, [first, second])
    base = build_time_expanded_graph(scenario)
    tables = ("edge_tail", "edge_head", "edge_kind", "edge_weight",
              "out_edges", "caching_edge")  # built with the edges

    def contents(graph):  # the adjacency tables hold ranges and arrays
        return {name: [list(x) if name.endswith("_edges") else x
                       for x in getattr(graph, name)]
                for name in tables + ("in_edges",)}

    before = contents(base)
    g1 = augment(base, first)
    g2 = augment(base, second)
    for graph, ref in zip((g1, g2), ref_graphs):
        _assert_same_graph(graph, ref, rng)
    _assert_same_graph(base, ref_base, rng)
    assert contents(base) == before
    for graph in (g1, g2):      # augment shares the tables of its base
        for name in tables:
            assert getattr(graph, name) is getattr(base, name), name


def test_augmented_graph_does_not_keep_its_base_alive():
    scenario = generate_scenario(make_config("micro", 3))
    base = build_time_expanded_graph(scenario)
    base_ref = weakref.ref(base)
    graph = augment(base, scenario.infos)
    del base
    gc.collect()
    assert base_ref() is None
    assert graph.vertex_count == scenario.uav_count * scenario.horizon
    assert len(graph.edges) == len(graph.edge_tail) > 0
