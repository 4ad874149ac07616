"""Time-expanded graph construction, augmentation, and collision sets."""

import copy
import dataclasses
import gc
import math
import random
import weakref
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcast.graph
import instances
from fleetcast import cli
from fleetcast.errors import GenerationError, ScenarioError
from fleetcast.exact import solve_exact
from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import (CACHING, CONNECTIVITY, VIRTUAL, Edge,
                             _shortest_paths, augment,
                             build_time_expanded_graph, collision_set)
from fleetcast.heuristic import (HEURISTIC_KINDS, RANDOM_KIND, HeuristicKind,
                                 ResidualState, _walk_back, build_tree,
                                 greedy_plan)
from fleetcast.lp import export_lp, lint_lp
from fleetcast.plan import Plan, check_feasibility, plan_cost
from fleetcast.radio import subrange_weight
from fleetcast.report import load_report, save_report
from fleetcast.scenario import InfoSpec, Scenario, save_scenario


def test_single_uav_only_caches():
    scen = instances.static_scenario(positions=[(0, 0)], horizon=3, infos=[
        InfoSpec(id=0, sources={(0, 0)}, destinations={0})])
    graph = build_time_expanded_graph(scen)
    assert graph.real_vertex_count == 3
    kinds = [e.kind for e in graph.edges]
    assert kinds.count(CACHING) == 2
    assert kinds.count(CONNECTIVITY) == 0


def test_pair_in_range_gets_both_directions():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    conn = [e for e in graph.edges if e.kind == CONNECTIVITY]
    assert len(conn) == 2
    assert {e.subrange for e in conn} == {1}
    expected = subrange_weight(scen.radio, 10.0)
    assert all(e.weight == expected for e in conn)


def test_pair_out_of_range_gets_no_edges():
    scen = instances.static_scenario(
        positions=[(0, 0), (50, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    assert not [e for e in graph.edges if e.kind == CONNECTIVITY]


def test_vertex_and_edge_counts():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0), (8, 0)], horizon=4,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={2})])
    graph = build_time_expanded_graph(scen)
    assert graph.real_vertex_count == 3 * 4
    caching = [e for e in graph.edges if e.kind == CACHING]
    assert len(caching) == 3 * 3


def test_weight_uses_smallest_enclosing_subrange():
    scen = instances.static_scenario(
        positions=[(0, 0), (7, 0)], radii=(5.0, 10.0, 20.0),
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    edge = next(e for e in graph.edges if e.kind == CONNECTIVITY)
    assert edge.subrange == 2
    assert edge.weight == subrange_weight(scen.radio, 10.0)


def test_boundary_distance_is_inside_subrange():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0)], radii=(10.0, 20.0),
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    edge = next(e for e in graph.edges if e.kind == CONNECTIVITY)
    assert edge.subrange == 1


def test_per_uav_radii_break_symmetry():
    graph = build_time_expanded_graph(instances.asymmetric_pair())
    conn = [e for e in graph.edges if e.kind == CONNECTIVITY]
    assert len(conn) == 1
    tail_uav = graph.vertex_uav_time(conn[0].tail)[0]
    assert tail_uav == 0


def test_symmetry_under_shared_radii():
    rng = random.Random(7)
    positions = [(rng.uniform(0, 60), rng.uniform(0, 60)) for _ in range(5)]
    scen = instances.static_scenario(
        positions=positions, radii=(8.0, 16.0, 30.0), horizon=2,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    conn = {(e.tail, e.head): e.weight
            for e in graph.edges if e.kind == CONNECTIVITY}
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
    coarse_w = {(e.tail, e.head): e.weight
                for e in g_coarse.edges if e.kind == CONNECTIVITY}
    fine_w = {(e.tail, e.head): e.weight
              for e in g_fine.edges if e.kind == CONNECTIVITY}
    assert set(coarse_w) == set(fine_w)
    for key, weight in fine_w.items():
        assert weight <= coarse_w[key]


def test_paths_never_go_back_in_time():
    graph = instances.augmented(instances.chain3())
    rng = random.Random(3)
    for _ in range(200):
        v = rng.randrange(graph.vertex_count)
        time_seen = None
        for _ in range(10):
            outs = graph.out_edges[v]
            if not outs:
                break
            edge = graph.edges[rng.choice(outs)]
            if edge.tail < graph.real_vertex_count \
                    and edge.head < graph.real_vertex_count:
                t_tail = graph.vertex_uav_time(edge.tail)[1]
                t_head = graph.vertex_uav_time(edge.head)[1]
                assert t_head >= t_tail
                if time_seen is not None:
                    assert t_tail >= time_seen
                time_seen = t_head
            v = edge.head


def test_augment_counts():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0)], horizon=4,
        infos=[InfoSpec(id=0, sources={(0, 0), (0, 2)}, destinations={1})])
    graph = augment(build_time_expanded_graph(scen), scen.infos)
    s = graph.source_vertex[0]
    d = graph.dest_vertex[(0, 1)]
    assert len(graph.out_edges[s]) == 2
    assert len(graph.in_edges[d]) == 4
    assert all(graph.edges[e].weight == 0.0 for e in graph.out_edges[s])
    assert all(graph.edges[e].kind == VIRTUAL for e in graph.in_edges[d])


def test_augment_two_infos_share_source_vertex():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(0, 0)}, destinations={1})])
    graph = augment(build_time_expanded_graph(scen), scen.infos)
    assert graph.source_vertex[0] != graph.source_vertex[1]
    v = graph.vertex_id(0, 0)
    virtual_in = [e for e in graph.in_edges[v]
                  if graph.edges[e].kind == VIRTUAL]
    assert len(virtual_in) == 2


def test_augment_zero_cost_self_delivery_path_exists():
    graph = instances.augmented(instances.self_delivery())
    s = graph.source_vertex[0]
    d = graph.dest_vertex[(0, 0)]
    # brute-force zero-weight reachability over virtual edges
    seen = {s}
    frontier = [s]
    while frontier:
        v = frontier.pop()
        for e in graph.out_edges[v]:
            edge = graph.edges[e]
            if edge.weight == 0.0 and edge.head not in seen:
                seen.add(edge.head)
                frontier.append(edge.head)
    assert d in seen


def test_augment_rejects_out_of_range_infos():
    scen = instances.chain3()
    graph = build_time_expanded_graph(scen)
    with pytest.raises(ScenarioError):
        augment(graph, [InfoSpec(id=0, sources={(9, 0)}, destinations={1})])
    with pytest.raises(ScenarioError):
        augment(graph, [InfoSpec(id=0, sources={(0, 0)}, destinations={9})])


def test_infospec_rejects_empty_sets():
    with pytest.raises(ScenarioError):
        InfoSpec(id=0, sources=set(), destinations={1})
    with pytest.raises(ScenarioError):
        InfoSpec(id=0, sources={(0, 0)}, destinations=set())


def test_collision_set_contents():
    graph = instances.augmented(instances.chain3())
    edges = collision_set(graph, 0)
    assert len(edges) == 4
    assert all(graph.edges[e].kind == CONNECTIVITY for e in edges)


def test_collision_set_three_mutually_in_range():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0), (0, 5)], channels=6,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    assert len(collision_set(graph, 0)) == 6


def test_collision_set_empty_when_dispersed():
    scen = instances.static_scenario(
        positions=[(0, 0), (500, 0), (0, 500)], horizon=2,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={0})])
    graph = build_time_expanded_graph(scen)
    assert collision_set(graph, 1) == frozenset()


def test_collision_set_rejects_bad_time():
    graph = build_time_expanded_graph(instances.chain3())
    with pytest.raises(ValueError):
        collision_set(graph, 1)
    with pytest.raises(ValueError):
        collision_set(graph, -1)


def test_build_is_deterministic():
    scen = instances.star4()
    g1 = build_time_expanded_graph(scen)
    g2 = build_time_expanded_graph(scen)
    assert [(e.tail, e.head, e.kind, e.weight) for e in g1.edges] \
        == [(e.tail, e.head, e.kind, e.weight) for e in g2.edges]


# The kernel as it was before its early stop, per-vertex layer gate and
# pre-settled deletions: a plain Dijkstra that checks every edge on its own.
def _reference_shortest_paths(graph, seeds, adjacency, ends, deleted, power,
                              channel_used, layer_delta, target=None):
    """Cheapest paths between the zero-cost `seeds` and every other vertex.

    Direction is data: `out_edges` with `edge_head` walks forward from the
    seeds, `in_edges` with `edge_tail` walks backward to them. Connectivity
    steps cost the weight minus the walked vertex's residual `power` (never
    below zero) and are skipped in time units whose `channel_used` plus
    `layer_delta` fills the channel budget; connectivity and caching edges
    out of a `deleted` vertex, and every edge into one, are skipped. Virtual
    vertices other than `target` are dead ends, and the search stops once
    `target` is settled. The discount and the deletions are keyed on the
    vertex being walked, which is the tail of a forward edge but the head of
    a backward one, so backward callers pass an empty residual state.

    Returns (dist, parent): parent[v] is the edge that reached v, -1 for the
    seeds and for unreached vertices.
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
    times = graph.edge_time
    channels = graph.channels
    real_vertex_count = graph.real_vertex_count
    while heap:
        d, v = heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        if v == target:
            break
        v_deleted = v in deleted
        v_power = power.get(v, 0.0)
        for e in adjacency[v]:
            head = ends[e]
            if done[head] or head in deleted:
                continue
            kind = kinds[e]
            if kind == 0:  # connectivity
                if v_deleted:
                    continue
                t = times[e]
                if channel_used[t] + layer_delta.get(t, 0) >= channels:
                    continue
                w = weights[e]
                step = w - v_power if w > v_power else 0.0
            elif kind == 1:  # caching
                if v_deleted:
                    continue
                step = 0.0
            else:
                # virtual terminals other than the target are dead ends
                if head >= real_vertex_count and head != target:
                    continue
                step = 0.0
            nd = d + step
            if nd < dist[head]:
                dist[head] = nd
                parent[head] = e
                heappush(heap, (nd, head))
    return dist, parent


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
        yield augment(build_time_expanded_graph(scenario), scenario.infos)
    scenario = generate_scenario(make_config(
        "paper", 3, uav_count=10, info_count=4, horizon=60, channels=2,
        area_side=200.0, gather_radius=20.0, destinations_per_info=(2, 4)))
    yield augment(build_time_expanded_graph(scenario), scenario.infos)


def _random_residual(graph, rng):
    """A greedy-like residual state, its seeds, and the info being served.

    Some other infos' trees are committed first; the seeds are the virtual
    source plus part of a tree built for the served info on that state, so
    no seed is deleted. Extra deletions, power discounts that sometimes zero
    a step exactly, and channel counts that fill some layers are added on top.
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
    seeds = {graph.source_vertex[info.id]}
    tree = build_tree(graph, info, state)
    if tree is not None:
        for e in tree.edges:
            if rng.random() < 0.5:
                seeds.update((graph.edge_tail[e], graph.edge_head[e]))
    seeds = sorted(seeds)
    deleted = set(state.deleted)
    for v in range(graph.real_vertex_count):
        if v not in seeds and rng.random() < 0.1:
            deleted.add(v)
    power = {}
    for v in range(graph.real_vertex_count):
        conn = [graph.edge_weight[e] for e in graph.out_edges[v]
                if graph.edge_kind[e] == 0]
        if conn and rng.random() < 0.3:
            w = rng.choice(conn)
            power[v] = w if rng.random() < 0.5 else w * rng.uniform(0.2, 1.5)
    channel_used = list(state.channel_used)
    layer_delta = {t: rng.randint(0, graph.channels)
                   for t in range(graph.horizon) if rng.random() < 0.4}
    return info, seeds, deleted, power, channel_used, layer_delta


def test_shortest_paths_match_reference_kernel():
    rng = random.Random(2024)
    early_stops = 0
    for graph in _kernel_graphs():
        for _ in range(6):
            info, seeds, deleted, power, used, delta = _random_residual(
                graph, rng)
            forward = (graph, seeds, graph.out_edges, graph.edge_head,
                       deleted, power, used, delta)
            folded = [n + delta.get(t, 0) for t, n in enumerate(used)]
            targets = [graph.dest_vertex[(info.id, u)]
                       for u in sorted(info.destinations)]
            targets += rng.sample(range(graph.real_vertex_count), 3)
            for target in targets:
                dist, parent = _shortest_paths(*forward[:6], folded, target)
                ref_dist, ref_parent = _reference_shortest_paths(
                    *forward, target)
                assert dist[target] == ref_dist[target]
                assert _walk_back(graph, parent, target) \
                    == _walk_back(graph, ref_parent, target)
                early_stops += dist != ref_dist
            assert _shortest_paths(*forward[:6], folded) \
                == _reference_shortest_paths(*forward)

            uav = rng.randrange(graph.uav_count)
            copies = [graph.vertex_id(uav, t) for t in range(graph.horizon)
                      if graph.vertex_id(uav, t) not in deleted]
            backward = (graph, copies, graph.in_edges, graph.edge_tail,
                        deleted, power, used, delta)
            assert _shortest_paths(*backward[:6], folded) \
                == _reference_shortest_paths(*backward)
    assert early_stops > 0  # the early stop really left work undone


# --- the kernel's level-end relaxations and caching chains ---------------

def _flat_graph(uav_count, horizon, conn, channels=1, sources=(),
                dest_uavs=()):
    """A hand-built graph in the builder's flat-list layout.

    Vertex (u, t) is u * horizon + t and caches into (u, t + 1); `conn` maps
    (tail uav, head uav, t) to a connectivity weight. One virtual source
    fans out to the `sources` copies, and each of `dest_uavs` gets a virtual
    destination fed by all its copies.
    """
    real = uav_count * horizon
    edges = []  # (tail, head, kind, weight, time)

    for t in range(horizon):
        for u in range(uav_count):
            v = u * horizon + t
            for u2 in range(uav_count):
                if u2 == u and t + 1 < horizon:
                    edges.append((v, v + 1, 1, 0.0, t))
                elif (u, u2, t) in conn:
                    edges.append((v, u2 * horizon + t, 0, conn[(u, u2, t)], t))
    for u, t in sources:
        edges.append((real, u * horizon + t, 2, 0.0, -1))
    dests = []
    for u in dest_uavs:
        dests.append(real + 1 + len(dests))
        for t in range(horizon):
            edges.append((u * horizon + t, dests[-1], 2, 0.0, -1))
    vertex_count = real + 1 + len(dests)
    out_edges = [[] for _ in range(vertex_count)]
    in_edges = [[] for _ in range(vertex_count)]
    for e, (tail, head, _, _, _) in enumerate(edges):
        out_edges[tail].append(e)
        in_edges[head].append(e)
    tails, heads, kinds, weights, times = (list(c) for c in zip(*edges))
    return SimpleNamespace(
        edge_tail=tails, edge_head=heads, edge_kind=kinds,
        edge_weight=weights, edge_time=times,
        uav_count=uav_count, horizon=horizon,
        channels=channels, real_vertex_count=real, vertex_count=vertex_count,
        out_edges=out_edges, in_edges=in_edges, source=real,
        min_connectivity_weight=min(conn.values(), default=math.inf))


def _assert_kernel_matches_reference(graph, seeds, deleted=(), power=None,
                                     channel_used=None, layer_delta=None,
                                     targets=None):
    """Forward and backward, full arrays and early-stopped walks."""
    power = {} if power is None else power
    used = [0] * graph.horizon if channel_used is None else channel_used
    delta = {} if layer_delta is None else layer_delta
    if targets is None:
        targets = range(graph.vertex_count)
    for adjacency, ends, back, residual in (
            (graph.out_edges, graph.edge_head, graph.edge_tail, power),
            (graph.in_edges, graph.edge_tail, graph.edge_head, {})):
        args = (graph, seeds, adjacency, ends, set(deleted), residual, used,
                delta)
        kernel_args = args[:6] + ([n + delta.get(t, 0)
                                   for t, n in enumerate(used)],)
        assert _shortest_paths(*kernel_args) \
            == _reference_shortest_paths(*args)
        for target in targets:
            dist, parent = _shortest_paths(*kernel_args, target)
            ref_dist, ref_parent = _reference_shortest_paths(*args, target)
            assert dist[target] == ref_dist[target]
            assert _walk(parent, back, target) == _walk(ref_parent, back,
                                                        target)


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
    dist, parent = _shortest_paths(graph, [0], graph.out_edges,
                                   graph.edge_head, (), {}, [0])
    assert dist[2] == 1e16 and graph.edge_tail[parent[4]] == 2
    _assert_kernel_matches_reference(graph, [0])


def test_kernel_all_weights_equal():
    conn = {(u, u2, t): 1.0 for u in range(4) for u2 in range(4)
            for t in range(3) if u != u2}
    graph = _flat_graph(4, 3, conn, channels=2, sources=[(0, 0), (2, 1)],
                        dest_uavs=[1, 3])
    _assert_kernel_matches_reference(graph, [0])
    _assert_kernel_matches_reference(graph, [graph.source])
    _assert_kernel_matches_reference(graph, [1, 6, 11])


def test_kernel_discount_that_zeroes_a_step():
    # UAV 0's discount makes its step to UAV 1 free, so UAV 1 is settled at
    # 0 before UAV 2 and its edge into UAV 3 wins the tie at 1.0
    conn = {(0, 1, 0): 2.0, (1, 3, 0): 1.0, (2, 3, 0): 1.0}
    graph = _flat_graph(4, 1, conn)
    dist, parent = _shortest_paths(graph, [0, 2], graph.out_edges,
                                   graph.edge_head, (), {0: 2.0}, [0])
    assert dist[1] == 0.0 and graph.edge_tail[parent[3]] == 1
    _assert_kernel_matches_reference(graph, [0, 2], power={0: 2.0})


def test_kernel_discounted_positive_step_keeps_settle_order():
    # UAV 0 (no discount) and UAV 1 (discount 1.0) both reach UAV 2 at 1.0;
    # UAV 0 was settled first, so its edge is the parent
    conn = {(0, 2, 0): 1.0, (1, 2, 0): 2.0}
    graph = _flat_graph(3, 1, conn)
    dist, parent = _shortest_paths(graph, [0, 1], graph.out_edges,
                                   graph.edge_head, (), {1: 1.0}, [0])
    assert dist[2] == 1.0 and graph.edge_tail[parent[2]] == 0
    _assert_kernel_matches_reference(graph, [0, 1], power={1: 1.0})


def test_kernel_deleted_caching_successor():
    conn = {(0, 1, 0): 1.0, (1, 0, 2): 1.0, (0, 2, 1): 2.0, (2, 0, 3): 1.0,
            (1, 2, 3): 1.0}
    graph = _flat_graph(3, 4, conn, sources=[(0, 0)], dest_uavs=[0, 2])
    # (0, 1) is deleted: UAV 0's chain breaks after t = 0
    _assert_kernel_matches_reference(graph, [graph.source], deleted=[1])
    _assert_kernel_matches_reference(graph, [0, 4], deleted=[2, 9])


def test_kernel_closed_layer():
    conn = {(0, 1, t): 1.0 for t in range(3)}
    conn.update({(1, 2, t): 2.0 for t in range(3)})
    graph = _flat_graph(3, 3, conn, channels=1, dest_uavs=[2])
    _assert_kernel_matches_reference(graph, [0], channel_used=[1, 0, 0])
    _assert_kernel_matches_reference(graph, [0], channel_used=[0, 0, 0],
                                     layer_delta={0: 1, 1: 1})
    _assert_kernel_matches_reference(graph, [0], power={0: 1.0, 3: 2.0},
                                     layer_delta={0: 1})


def test_kernel_backward_direction():
    conn = {(1, 0, 0): 1.0, (2, 1, 0): 1.0, (2, 0, 1): 2.0, (1, 2, 1): 1.0,
            (0, 2, 2): 1.0}
    graph = _flat_graph(3, 3, conn)
    copies = [0, 1, 2]  # UAV 0 at t = 0, 1, 2
    dist, _ = _shortest_paths(graph, copies, graph.in_edges, graph.edge_tail,
                              (), {}, [0] * 3)
    # UAV 2 at t = 0 reaches UAV 0 through UAV 1 (2.0) or by caching to
    # t = 1 and sending directly (2.0)
    assert dist[6] == 2.0 and dist[3] == 1.0
    _assert_kernel_matches_reference(graph, copies)


# --- the kernel's target bound --------------------------------------------

def _forward(graph, seeds, power, target):
    return _shortest_paths(graph, seeds, graph.out_edges, graph.edge_head,
                           (), power, [0] * graph.horizon, target)


def test_kernel_bound_tie_goes_to_the_tail_settled_first():
    # seed 3's discount makes its step to UAV 1 free, so UAV 1 is settled at
    # 0 after seed 2; both reach the feeder, UAV 4, at 1.0 at that level's
    # end, and UAV 2, settled first, is the parent although its id is higher
    conn = {(3, 1, 0): 2.0, (2, 4, 0): 1.0, (1, 4, 0): 1.0}
    graph = _flat_graph(5, 1, conn, dest_uavs=[4])
    target = graph.source + 1
    dist, parent = _forward(graph, [2, 3], {3: 2.0}, target)
    assert dist[target] == 1.0 and graph.edge_tail[parent[4]] == 2
    _assert_kernel_matches_reference(graph, [2, 3], power={3: 2.0})


def test_kernel_bound_discount_off_the_seeds_keeps_step_zero():
    # UAV 1 is no seed, and its discount makes 0 -> 1 -> 3 cost 1.5, below
    # the direct 1.8 although 1.0 + min weight 1.0 is above it
    conn = {(0, 3, 0): 1.8, (0, 1, 0): 1.0, (1, 3, 0): 2.0}
    graph = _flat_graph(4, 1, conn, dest_uavs=[3])
    target = graph.source + 1
    dist, parent = _forward(graph, [0], {1: 1.5}, target)
    assert dist[target] == 1.5 and graph.edge_tail[parent[3]] == 1
    _assert_kernel_matches_reference(graph, [0], power={1: 1.5})


def test_kernel_bound_seed_feeder_skips_other_chains():
    # seed (2, 1) feeds the target, so the bound is 0 from the start; seed
    # (1, 0)'s discounted free step reaches (2, 0), a lower id, which wins
    conn = {(1, 2, 0): 1.0, (0, 1, 1): 1.0}
    graph = _flat_graph(3, 3, conn, dest_uavs=[2])
    target = graph.source + 1
    seeds, power = [0, 3, 7], {3: 1.0}
    dist, parent = _forward(graph, seeds, power, target)
    assert dist[target] == 0.0 and graph.edge_tail[parent[target]] == 6
    assert dist[1] == math.inf  # UAV 0's caching chain was never walked
    _assert_kernel_matches_reference(graph, seeds, power=power)


def test_kernel_bound_two_hop_answer():
    # no seed step reaches the feeder, UAV 2, so the bound is still infinite
    # at the first level end; UAVs 1 and 3 tie at 2.0 and UAV 1 wins
    conn = {(0, 1, 0): 1.0, (0, 3, 0): 1.0, (1, 2, 0): 1.0, (3, 2, 0): 1.0}
    graph = _flat_graph(4, 1, conn, dest_uavs=[2])
    target = graph.source + 1
    dist, parent = _forward(graph, [0], {}, target)
    assert dist[target] == 2.0 and graph.edge_tail[parent[2]] == 1
    _assert_kernel_matches_reference(graph, [0])


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
    sources = data.draw(st.lists(st.tuples(
        st.integers(0, uav_count - 1), st.integers(0, horizon - 1)),
        min_size=1, max_size=3, unique=True))
    dest_uavs = data.draw(st.lists(st.integers(0, uav_count - 1),
                                   max_size=2, unique=True))
    channels = data.draw(st.integers(1, 2))
    graph = _flat_graph(uav_count, horizon, conn, channels, sources,
                        dest_uavs)
    seeds = sorted(data.draw(st.sets(vertices, min_size=1, max_size=3)))
    if data.draw(st.booleans()):
        seeds.append(graph.source)
    deleted = data.draw(st.sets(vertices, max_size=3)) - set(seeds)
    # discounts on seeds only, as `build_tree` gives them, let the target
    # bound use the smallest weight as its step
    real_seeds = [v for v in seeds if v < real]
    keys = (st.sampled_from(real_seeds) if data.draw(st.booleans())
            else vertices)
    power = data.draw(st.dictionaries(
        keys, st.sampled_from(values + (0.5 * values[0],)), max_size=4))
    used = data.draw(st.lists(st.integers(0, channels), min_size=horizon,
                              max_size=horizon))
    delta = data.draw(st.dictionaries(st.integers(0, horizon - 1),
                                      st.integers(0, channels), max_size=2))
    target = data.draw(st.integers(0, graph.vertex_count - 1))
    dests = range(graph.source + 1, graph.vertex_count)
    _assert_kernel_matches_reference(graph, seeds, deleted, power, used,
                                     delta, targets=[target, *dests])


@given(st.randoms(use_true_random=True))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_bound_matches_reference_near_a_destination(rng):
    # one or two dense layers and one destination UAV: the target bound
    # prunes in most examples, feeder ties are common, and 1.5 lies between
    # the smallest weight and twice it, where a wrong `step` shows. Drawn
    # uniformly: Hypothesis' own draws favour sparse, equal-weight graphs
    values = (1.0, 1.5, 2.0)
    uav_count = rng.randint(3, 6)
    horizon = rng.randint(1, 2)
    real = uav_count * horizon
    conn = {(u, u2, t): rng.choice(values) for t in range(horizon)
            for u in range(uav_count) for u2 in range(uav_count)
            if u != u2 and rng.random() < 0.75}
    graph = _flat_graph(uav_count, horizon, conn,
                        dest_uavs=[rng.randrange(uav_count)])
    seeds = sorted(rng.sample(range(real), rng.randint(1, 3)))
    seeds_only = rng.random() < 0.5
    power = {v: rng.choice(values + (0.5,)) for v in range(real)
             if (v in seeds or not seeds_only) and rng.random() < 0.5}
    _assert_kernel_matches_reference(graph, seeds, power=power,
                                     targets=[graph.source + 1])


# --- the flat-list builder against the Edge-record builder ---------------

# The builder and augmentation as they were when every edge was an Edge
# record: the flat lists were derived from the records afterwards, and a
# dict mapped each (tail, head) pair to its index.
_KIND_CODE = {CONNECTIVITY: 0, CACHING: 1, VIRTUAL: 2}


def _reference_view(scenario, edges, out_edges, in_edges, conn_by_time):
    return SimpleNamespace(
        scenario=scenario, uav_count=scenario.uav_count,
        horizon=scenario.horizon, edges=edges, out_edges=out_edges,
        in_edges=in_edges, conn_by_time=conn_by_time,
        real_vertex_count=scenario.uav_count * scenario.horizon,
        vertex_count=scenario.uav_count * scenario.horizon,
        real_edge_count=len(edges),
        edge_index_by_pair={(e.tail, e.head): e.index for e in edges},
        edge_tail=[e.tail for e in edges],
        edge_head=[e.head for e in edges],
        edge_kind=[_KIND_CODE[e.kind] for e in edges],
        edge_weight=[e.weight for e in edges],
        edge_time=[-1 if e.time is None else e.time for e in edges],
        vertex_id=lambda uav, time: uav * scenario.horizon + time)


def _reference_build(scenario):
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

    return _reference_view(scenario, edges, out_edges, in_edges, conn_by_time)


def _reference_augment(graph, infos):
    infos = tuple(sorted(infos, key=lambda i: i.id))
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

    view = _reference_view(graph.scenario, edges, out_edges, in_edges,
                           graph.conn_by_time)
    view.edge_index_by_pair = graph.edge_index_by_pair
    view.real_edge_count = graph.real_edge_count
    view.vertex_count = next_vertex
    view.infos = infos
    view.source_vertex = source_vertex
    view.dest_vertex = dest_vertex
    return view


def _reference_graph(scenario, info_sets=()):
    """The reference base graph and one augmentation per info set."""
    base = _reference_build(scenario)
    return base, [_reference_augment(base, infos) for infos in info_sets]


def _reference_label(ref, v):
    if v < ref.real_vertex_count:
        return "({},{})".format(*divmod(v, ref.horizon))
    for info_id, s in getattr(ref, "source_vertex", {}).items():
        if s == v:
            return f"s_{info_id}"
    for (info_id, u), d in getattr(ref, "dest_vertex", {}).items():
        if d == v:
            return f"d_{info_id}_{u}"
    return f"v{v}"


def _assert_same_graph(graph, ref, rng):
    for name in ("edge_tail", "edge_head", "edge_kind", "edge_weight",
                 "edge_time", "out_edges", "in_edges", "conn_by_time"):
        assert getattr(graph, name) == getattr(ref, name), name
    for name in ("real_vertex_count", "vertex_count", "real_edge_count"):
        assert getattr(graph, name) == getattr(ref, name), name
    assert len(graph.edges) == len(ref.edges)
    assert list(graph.edges) == ref.edges      # every field, subrange too
    assert all(e.time is None for e in graph.edges if e.kind == VIRTUAL)
    for (tail, head), e in ref.edge_index_by_pair.items():
        assert graph.edge_index(tail, head) == e
    for _ in range(50):
        tail = rng.randrange(ref.real_vertex_count)
        head = rng.randrange(ref.real_vertex_count)
        if (tail, head) not in ref.edge_index_by_pair:
            assert graph.edge_index(tail, head) is None
    assert [graph.vertex_label(v) for v in range(graph.vertex_count)] \
        == [_reference_label(ref, v) for v in range(ref.vertex_count)]
    if hasattr(ref, "infos"):
        assert graph.infos == ref.infos
        assert graph.source_vertex == ref.source_vertex
        assert graph.dest_vertex == ref.dest_vertex


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


def test_one_base_augmented_twice_is_left_unchanged():
    rng = random.Random(8)
    scenario = generate_scenario(make_config(
        "paper", 3, uav_count=10, info_count=4, horizon=60, channels=2,
        area_side=200.0, gather_radius=20.0, destinations_per_info=(2, 4)))
    first, second = scenario.infos[:2], scenario.infos[1:]
    ref_base, ref_graphs = _reference_graph(scenario, [first, second])
    base = build_time_expanded_graph(scenario)
    before = copy.deepcopy({name: getattr(base, name) for name in (
        "edge_tail", "edge_head", "edge_kind", "edge_weight", "edge_time",
        "out_edges", "in_edges", "conn_by_time")})
    g1 = augment(base, first)
    g2 = augment(base, second)
    for graph, ref in zip((g1, g2), ref_graphs):
        _assert_same_graph(graph, ref, rng)
    _assert_same_graph(base, ref_base, rng)
    for name, value in before.items():
        assert getattr(base, name) == value, name
    for graph in (g1, g2):      # an adjacency list is shared iff unchanged
        for adjacency, base_adjacency in ((graph.out_edges, base.out_edges),
                                          (graph.in_edges, base.in_edges)):
            for v in range(base.real_vertex_count):
                assert (adjacency[v] is base_adjacency[v]) \
                    == (adjacency[v] == base_adjacency[v])


def test_augmented_graph_does_not_keep_its_base_alive():
    scenario = generate_scenario(make_config("micro", 3))
    base = build_time_expanded_graph(scenario)
    base_ref = weakref.ref(base)
    graph = augment(base, scenario.infos)
    del base
    gc.collect()
    assert base_ref() is None
    assert graph.vertex_count > graph.real_vertex_count

# --- the solve path never builds the Edge view -----------------------------

def test_solve_path_builds_no_edge_records(monkeypatch, tmp_path):
    def no_records(*args, **kwargs):
        raise AssertionError("an Edge record was built")

    monkeypatch.setattr(fleetcast.graph, "Edge", no_records)
    config = dict(uav_count=4, info_count=2, horizon=6, channels=2,
                  gather_radius=18.0, area_side=55.0,
                  destinations_per_info=(1, 2))
    served = generate_scenario(make_config("micro", 15, **config))
    restarted = generate_scenario(make_config("micro", 20, **config))
    for scenario, status in ((served, "FEASIBLE"),
                             (restarted, "INFEASIBLE_HEURISTIC")):
        graph = augment(build_time_expanded_graph(scenario), scenario.infos)
        for kind in HEURISTIC_KINDS:
            seed = 1 if kind == RANDOM_KIND else None
            report = greedy_plan(graph, graph.infos, HeuristicKind(kind, seed))
            assert report.status == status
    graph = augment(build_time_expanded_graph(served), served.infos)
    report = solve_exact(graph)
    assert report.status == "OPTIMAL"
    assert check_feasibility(graph, report.plan).feasible
    assert plan_cost(graph, report.plan) == report.objective
    everything = frozenset(range(graph.real_edge_count))
    verdict = check_feasibility(graph, Plan({i.id: everything
                                             for i in graph.infos}))
    assert {"EDGE", "C3", "C7", "C9"} <= verdict.constraint_ids()
    assert all(v.message for v in verdict.violations)
    path = tmp_path / "report.json"
    save_report(graph, report, path)
    assert load_report(graph, path).plan == report.plan
    assert lint_lp(export_lp(graph)) == []
    scenario_path = tmp_path / "scenario.json"
    save_scenario(served, scenario_path)
    assert cli.main(["solve", str(scenario_path), "--method", "mpf",
                     "--out", str(tmp_path / "mpf.json")]) == 0
    assert cli.main(["lp", str(scenario_path),
                     "--out", str(tmp_path / "s.lp")]) == 0
    with pytest.raises(AssertionError):     # the stub is really in place
        graph.edges[0]
