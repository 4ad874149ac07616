"""Greedy orderings, channel-aware tree building, and the restart driver."""

import dataclasses
import hashlib
import random

import pytest

import instances
import oracles
from fleetcast import heuristic
from fleetcast.errors import GenerationError, PlanStructureError
from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import KIND_CONNECTIVITY, build_time_expanded_graph
from fleetcast.jsonio import canonical_dumps
from fleetcast.heuristic import (HeuristicKind, ResidualState, Tree,
                                 _reusable, build_tree, greedy_plan,
                                 order_information)
from fleetcast.plan import check_feasibility
from fleetcast.report import report_to_dict
from fleetcast.scenario import InfoSpec


def test_kind_validation():
    with pytest.raises(ValueError):
        HeuristicKind("nope")
    with pytest.raises(ValueError):
        HeuristicKind("mpf", seed=1)
    with pytest.raises(ValueError):
        HeuristicKind("r")
    assert HeuristicKind("r", seed=7).label() == "r[7]"


def test_random_seed_is_an_integer():
    # True would be labelled r[True] and 2.5 r[2.5], which no report file
    # may name
    for seed in (True, 2.5, "7", 7.0):
        with pytest.raises(ValueError, match="seed"):
            HeuristicKind("r", seed=seed)
    assert HeuristicKind("r", seed=-3).label() == "r[-3]"


def test_muf_orders_by_destination_count():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0), (9, 0)], channels=6,
        infos=[InfoSpec(id=1, sources={(0, 0)}, destinations={0, 1, 2}),
               InfoSpec(id=2, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=3, sources={(0, 0)}, destinations={1, 2})])
    graph = build_time_expanded_graph(scen)
    order = order_information(graph, graph.infos, HeuristicKind("muf"))
    assert order == [1, 3, 2]


def test_random_order_is_seed_deterministic():
    graph = build_time_expanded_graph(instances.disjoint_pairs())
    once = order_information(graph, graph.infos, HeuristicKind("r", seed=99))
    twice = order_information(graph, graph.infos, HeuristicKind("r", seed=99))
    assert once == twice
    assert sorted(once) == [0, 1]


def test_mpf_puts_expensive_standalone_tree_first():
    graph = build_time_expanded_graph(instances.cheap_and_expensive())
    # standalone costs confirmed by the exhaustive oracle
    cheap = oracles.enumerate_optimum(graph, [graph.info_by_id(1)])
    costly = oracles.enumerate_optimum(graph, [graph.info_by_id(2)])
    assert (cheap[1], costly[1]) == (10.0, 30.0)
    assert order_information(graph, graph.infos, HeuristicKind("mpf")) == [2, 1]
    assert order_information(graph, graph.infos, HeuristicKind("lpf")) == [1, 2]


def test_build_tree_self_delivery_is_free():
    graph = build_time_expanded_graph(instances.self_delivery())
    tree = build_tree(graph, graph.info_by_id(0), ResidualState(graph))
    assert tree is not None
    assert tree.cost == 0.0
    assert not {e for e in tree.edges
                if graph.edge_kind[e] == KIND_CONNECTIVITY}


def test_build_tree_shares_first_hop():
    graph = build_time_expanded_graph(instances.star4())
    tree = build_tree(graph, graph.info_by_id(0), ResidualState(graph))
    assert tree is not None
    assert tree.cost == 20.0  # hub power paid once, not per leaf
    # two independent paths would pay 20 each
    assert tree.cost < 40.0


def test_build_tree_not_found_when_saturated():
    graph = build_time_expanded_graph(instances.chain3())
    state = ResidualState(graph)
    state.channel_used[0] = graph.channels  # the only time unit is full
    assert build_tree(graph, graph.info_by_id(0), state) is None


def test_build_tree_counts_its_own_earlier_path_against_the_layer():
    # one channel: the path to UAV 1 fills t = 0, so the path to UAV 2 must
    # cache at UAV 1 and send at t = 1; a search that saw t = 0 as open
    # would take (1,0)->(2,0), which the slot check then refuses
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (20, 0)], horizon=2, channels=1,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1, 2})])
    graph = build_time_expanded_graph(scen)
    tree = build_tree(graph, graph.info_by_id(0), ResidualState(graph))
    route = [graph.vertex_id(u, t) for u, t in ((0, 0), (1, 0), (1, 1), (2, 1))]
    assert tree == Tree(edges=frozenset(graph.edge_index(a, b) for a, b
                                        in zip(route, route[1:])), cost=20.0)


def test_build_tree_rejects_foreign_state():
    g1 = build_time_expanded_graph(instances.chain3())
    g2 = build_time_expanded_graph(instances.star4())
    with pytest.raises(PlanStructureError):
        build_tree(g1, g1.info_by_id(0), ResidualState(g2))


def test_commit_deletes_tree_vertices_and_saturated_layers():
    graph = build_time_expanded_graph(instances.crossing_pair(1))
    state = ResidualState(graph)
    tree = build_tree(graph, graph.info_by_id(0), state)
    state.commit(tree)
    assert graph.vertex_id(0, 0) in state.deleted
    assert graph.vertex_id(1, 0) in state.deleted
    assert state.channel_used[0] == 1  # reached the budget of 1: layer closed
    assert all(graph.vertex_id(u, 0) in state.deleted
               for u in range(graph.uav_count))


def test_greedy_disjoint_infos_cost_is_sum_of_standalones():
    graph = build_time_expanded_graph(instances.disjoint_pairs())
    report = greedy_plan(graph, graph.infos, HeuristicKind("mpf"))
    assert report.status == "FEASIBLE"
    assert report.objective == 20.0
    assert report.restarts == 0


def test_greedy_no_infos_returns_empty_feasible_plan():
    scen = instances.static_scenario(
        positions=[(0, 0), (5, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    report = greedy_plan(graph, [], HeuristicKind("mpf"))
    assert report.status == "FEASIBLE"
    assert report.objective == 0.0
    assert report.plan.activations == {}


def test_greedy_gives_up_after_restarts():
    graph = build_time_expanded_graph(instances.crossing_pair(1))
    report = greedy_plan(graph, graph.infos, HeuristicKind("mpf"))
    assert report.status == "INFEASIBLE_HEURISTIC"
    assert report.restarts == 2  # one per info beyond the first pass
    assert report.plan is None


def test_greedy_restart_cap_is_an_integer_of_at_least_zero():
    graph = build_time_expanded_graph(instances.crossing_pair(1))
    for cap in (True, 2.5, "3", -1):
        with pytest.raises(ValueError, match="max_restarts"):
            greedy_plan(graph, graph.infos, HeuristicKind("mpf"), cap)


def test_greedy_stops_at_its_restart_cap():
    # comparison seed 9: mpf's first pass fails, and one restart finds a
    # plan, within the default cap of one per information; a cap of 0 stops
    # after the first pass
    graph = build_time_expanded_graph(generate_scenario(
        instances.comparison_config(9)))
    for cap in (None, 1, 2):
        report = greedy_plan(graph, graph.infos, HeuristicKind("mpf"), cap)
        assert (report.status, report.restarts) == ("FEASIBLE", 1)
    report = greedy_plan(graph, graph.infos, HeuristicKind("mpf"), 0)
    assert (report.status, report.restarts) == ("INFEASIBLE_HEURISTIC", 0)
    assert report.plan is None and report.objective is None


def test_greedy_failure_does_not_prove_infeasibility():
    # exact serves this instance; the greedy vertex deletion cannot
    from fleetcast.exact import solve_exact
    graph = build_time_expanded_graph(instances.crossing_pair(2))
    assert solve_exact(graph).status == "OPTIMAL"
    for kind in [HeuristicKind("mpf"), HeuristicKind("lpf"),
                 HeuristicKind("muf"), HeuristicKind("r", seed=1)]:
        assert greedy_plan(graph, graph.infos, kind).status \
            == "INFEASIBLE_HEURISTIC"


def test_greedy_outputs_pass_checker():
    graph = build_time_expanded_graph(instances.star4())
    for kind in [HeuristicKind("mpf"), HeuristicKind("lpf"),
                 HeuristicKind("muf"), HeuristicKind("r", seed=5)]:
        report = greedy_plan(graph, graph.infos, kind)
        assert report.status == "FEASIBLE"
        assert check_feasibility(graph, report.plan).feasible


def test_greedy_channel_counters_never_exceed_budget():
    scen = instances.static_scenario(
        positions=[(0, 0), (7, 0), (14, 0), (21, 0)], horizon=3, channels=2,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={3}),
               InfoSpec(id=1, sources={(3, 0)}, destinations={0})])
    graph = build_time_expanded_graph(scen)
    state = ResidualState(graph)
    for info_id in order_information(graph, graph.infos, HeuristicKind("muf")):
        tree = build_tree(graph, graph.info_by_id(info_id), state)
        if tree is None:
            break
        state.commit(tree)
        assert all(used <= graph.channels for used in state.channel_used)


def test_greedy_bit_reproducible():
    from fleetcast.report import report_to_dict
    graph = build_time_expanded_graph(instances.disjoint_pairs())
    for kind in [HeuristicKind("mpf"), HeuristicKind("lpf"),
                 HeuristicKind("muf"), HeuristicKind("r", seed=3)]:
        a = greedy_plan(graph, graph.infos, kind)
        b = greedy_plan(graph, graph.infos, kind)
        assert report_to_dict(graph, a) == report_to_dict(graph, b)


def test_greedy_restart_pushes_failed_info_to_front():
    # info 1's only source vertex lies on info 0's tree, so the first pass
    # fails on info 1; after the restart info 1 goes first and both fit
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (20, 0)], horizon=2, channels=2,
        infos=[InfoSpec(id=0, sources={(0, 0), (0, 1)}, destinations={1}),
               InfoSpec(id=1, sources={(1, 0)}, destinations={2})])
    graph = build_time_expanded_graph(scen)
    report = greedy_plan(graph, graph.infos, HeuristicKind("lpf"))
    assert report.status == "FEASIBLE"
    assert report.restarts == 1
    assert check_feasibility(graph, report.plan).feasible


def test_tree_vertex_keeps_a_zero_cost_tie_against_a_source_copy():
    # info 0's source copies are (1,0) and (2,1). Its path to UAV 0 is the
    # hop (2,1)->(0,1), so (2,1) sends at 10 J. Toward UAV 3, (2,1)'s 5 J
    # hop to (1,1) is then free, and the source copy (1,0), a lower id,
    # caches into (1,1) at no cost as well. The source copies enter the
    # search after the tree's distance-0 closure, so (1,1) keeps the tree
    # vertex's hop and sends on to (3,1). UAVs 0 and 3 are far away at t = 0
    scen = instances.static_scenario(
        positions=[(-10, 0), (5, 0), (0, 0), (12, 0)], radii=(5.0, 10.0),
        horizon=2, channels=3,
        infos=[InfoSpec(id=0, sources={(1, 0), (2, 1)}, destinations={0, 3})])
    scen = dataclasses.replace(scen, trajectories=(
        ((-100.0, 0.0), (-10.0, 0.0)), ((5.0, 0.0),) * 2, ((0.0, 0.0),) * 2,
        ((100.0, 0.0), (12.0, 0.0))))
    graph = build_time_expanded_graph(scen)

    def hop(tail, head):
        return graph.edge_index(graph.vertex_id(*tail), graph.vertex_id(*head))

    report = greedy_plan(graph, graph.infos, HeuristicKind("mpf"))
    assert report.plan.activations == {0: frozenset({
        hop((2, 1), (0, 1)), hop((2, 1), (1, 1)), hop((1, 1), (3, 1))})}
    assert report.objective == 20.0


def test_greedy_passes_late_seeds_ascending(monkeypatch):
    # the kernel takes its late seeds in ascending id order by contract and
    # does not sort them; `build_tree`, its one caller, must pass them so in
    # every search of every ordering
    kernel = heuristic._shortest_paths
    lates = []

    def recording(graph, seeds, adjacency, ends, deleted, power, used,
                  goal=None, late=()):
        lates.append(list(late))
        return kernel(graph, seeds, adjacency, ends, deleted, power, used,
                      goal, late)

    monkeypatch.setattr(heuristic, "_shortest_paths", recording)
    configs = [instances.comparison_config(seed) for seed in range(1, 21)]
    configs += [make_config("paper", seed) for seed in (1, 2, 3)]
    kinds = [HeuristicKind(name) for name in ("mpf", "lpf", "muf")]
    kinds += [HeuristicKind("r", seed=seed) for seed in (0, 1)]
    for config in configs:
        graph = build_time_expanded_graph(generate_scenario(config))
        for kind in kinds:
            greedy_plan(graph, graph.infos, kind)
    assert len(lates) > 400 and max(map(len, lates)) > 10
    for late in lates:
        assert all(a < b for a, b in zip(late, late[1:])), late


# Canonical report digests on a mid-size generated scenario, recorded with the
# plain Dijkstra kernel (no early stop, per-edge channel and deletion checks).
# Any change to the search's tie-breaks shows up here as a different plan.
PINNED_REPORT_SHA256 = {
    "mpf": "4bb05c2e3b03b47beefa099e3e5cbbcdbf4eefca58c40d5246d1c6070071bc51",
    "lpf": "770211a971f3029255ce8667dbbebc796210d2f328fbe24cdd2bc716aff2ac97",
    "muf": "983b50bc24e43accc0d66be100345a4d965b7eaf4987ee2915acf7f0aa37d774",
    "r[0]": "1a3a7b91d6e4e18a4e58db8a808bb63dd9dc95c372811f6d43da443a03090af0",
}


def test_greedy_reports_pinned_on_generated_scenario():
    # U=12, I=8, T=400: each ordering gives a different plan, with restarts
    scenario = generate_scenario(make_config(
        "paper", 0, uav_count=12, info_count=8, horizon=400, channels=2,
        area_side=300.0, gather_radius=20.0, destinations_per_info=(2, 5)))
    graph = build_time_expanded_graph(scenario)
    for kind in [HeuristicKind("mpf"), HeuristicKind("lpf"),
                 HeuristicKind("muf"), HeuristicKind("r", seed=0)]:
        report = greedy_plan(graph, graph.infos, kind)
        assert report.status == "FEASIBLE"
        document = canonical_dumps(report_to_dict(graph, report))
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        assert digest == PINNED_REPORT_SHA256[kind.label()], kind.label()


# The same digests on a small fleet-profile scenario, recorded with the kernel
# before its target bound. Large source sets put a copy of the destination
# UAV inside the current tree in many searches, which then end at distance 0.
PINNED_FLEET_REPORT_SHA256 = {
    "mpf": "be0b6a441bceea406a553622a227eec1c35b80d4835a2bd218a074bc5bf17aea",
    "lpf": "992f119a678b35048efbd57e2d8b452113e139aca05b52fe2b620f989611be42",
    "muf": "ed04326134d425602de788e8c00cd30b1478ac338e04fa4dc81868dc592f89ca",
    "r[0]": "1a6ef6b7632aa71b1677f57793603a05e0b1ed8fd803bd115d8d6ea6192be18c",
}


def test_greedy_reports_pinned_on_fleet_scenario():
    # U=20, I=12, T=200: the fleet benchmark's profile at tier-1 size
    scenario = generate_scenario(make_config(
        "paper", 1, uav_count=20, info_count=12, horizon=200, channels=2,
        area_side=250.0))
    graph = build_time_expanded_graph(scenario)
    for kind in [HeuristicKind("mpf"), HeuristicKind("lpf"),
                 HeuristicKind("muf"), HeuristicKind("r", seed=0)]:
        report = greedy_plan(graph, graph.infos, kind)
        assert report.status == "FEASIBLE"
        document = canonical_dumps(report_to_dict(graph, report))
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        assert digest == PINNED_FLEET_REPORT_SHA256[kind.label()], kind.label()


def _standalone(graph, kind="mpf"):
    kept = {}
    order_information(graph, graph.infos, HeuristicKind(kind), standalone=kept)
    return kept


def test_order_information_keeps_each_standalone_tree():
    graph = build_time_expanded_graph(instances.cheap_and_expensive())
    kept = _standalone(graph)
    assert sorted(kept) == [1, 2]
    for info in graph.infos:
        tree = kept[info.id]
        assert tree == build_tree(graph, info, ResidualState(graph))
        assert {graph.edge_tail[e] for e in tree.edges} <= tree.touched
        assert sum(n for _, n in tree.layers) == len(tree.edges)
    assert _standalone(graph, "muf") == {}


def test_reuse_rejects_a_deleted_edgeless_path():
    # info 0's source copy (1,0) is a copy of its destination, so its
    # standalone path is (1,0) alone and its tree has no edge; once (1,0)
    # is deleted the rebuilt tree must hop from (0,1) instead
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (20, 0)], horizon=2, channels=2,
        infos=[InfoSpec(id=0, sources={(1, 0), (0, 1)}, destinations={1}),
               InfoSpec(id=1, sources={(2, 0)}, destinations={1})])
    graph = build_time_expanded_graph(scen)
    kept = _standalone(graph)[0]
    assert kept == Tree(edges=frozenset(), cost=0.0)
    assert kept.touched == {graph.vertex_id(1, 0)}
    state = ResidualState(graph)
    hop = graph.edge_index(graph.vertex_id(2, 0), graph.vertex_id(1, 0))
    state.commit(Tree(edges=frozenset({hop}), cost=10.0))
    assert not _reusable(kept, state)
    rebuilt = build_tree(graph, graph.info_by_id(0), state)
    assert rebuilt == Tree(edges=frozenset({graph.edge_index(
        graph.vertex_id(0, 1), graph.vertex_id(1, 1))}), cost=10.0)


def test_reuse_rejects_a_layer_without_room_for_the_tree():
    # chain3's tree sends twice in the only time unit; with one of its two
    # channels taken by another tree, no vertex of it is deleted, yet the
    # path no longer fits
    graph = build_time_expanded_graph(instances.chain3(channels=2))
    kept = _standalone(graph)[0]
    state = ResidualState(graph)
    state.channel_used[0] = 1
    assert not _reusable(kept, state)
    assert build_tree(graph, graph.info_by_id(0), state) is None
    state.channel_used[0] = 0
    assert _reusable(kept, state)


def _reuse_graphs():
    """Micro instances (both cache modes, 1-3 channels), then one mid-size."""
    produced, seed = 0, 0
    while produced < 60:
        seed += 1
        try:
            scenario = generate_scenario(make_config(
                "micro", seed, uav_count=3 + seed % 3, horizon=4 + seed % 5,
                info_count=2 + seed % 2, channels=1 + seed % 3,
                gather_radius=20.0, area_side=45.0, max_range=30.0,
                destinations_per_info=(1, 3),
                cache_capacity="single" if seed % 2 else "unlimited"))
        except (GenerationError, ValueError):
            continue
        produced += 1
        yield f"micro {seed}", build_time_expanded_graph(scenario)
    scenario = generate_scenario(make_config(
        "paper", 0, uav_count=12, info_count=8, horizon=400, channels=2,
        area_side=300.0, gather_radius=20.0, destinations_per_info=(2, 5)))
    yield "paper 0", build_time_expanded_graph(scenario)


def test_reused_tree_equals_the_tree_build_tree_returns():
    """Property: wherever the rule accepts a standalone tree, a fresh build
    on that residual state returns the same edges and cost bits."""
    accepted = rejected = 0
    for label, graph in _reuse_graphs():
        kept = _standalone(graph)
        rng = random.Random(label)
        for _ in range(6):
            state = ResidualState(graph)
            infos = list(graph.infos)
            rng.shuffle(infos)
            for committed in infos:
                for info in graph.infos:
                    if info.id not in kept:
                        continue
                    if _reusable(kept[info.id], state):
                        alone = kept[info.id]
                        fresh = build_tree(graph, info, state)
                        assert fresh is not None, (label, info.id)
                        assert (fresh.edges, fresh.cost.hex()) \
                            == (alone.edges, alone.cost.hex()), (label, info.id)
                        accepted += 1
                    else:
                        rejected += 1
                tree = build_tree(graph, committed, state)
                if tree is not None:
                    state.commit(tree)
    assert accepted >= 1500 and rejected >= 500, (accepted, rejected)
