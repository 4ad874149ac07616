"""Feasibility checker, plan cost, and plan serialization."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
import oracles
from fleetcast.errors import FormatError, PlanStructureError
from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import build_time_expanded_graph
from fleetcast.jsonio import write_json
from fleetcast.plan import (Plan, check_feasibility, load_plan, plan_cost,
                            plan_from_dict, save_plan)
from fleetcast.exact import solve_exact
from fleetcast.heuristic import (HeuristicKind, ResidualState, build_tree,
                                 greedy_plan)
from fleetcast.lp import export_lp, lint_lp
from fleetcast.report import (HEURISTIC_KINDS, METHOD_EXACT, RANDOM_KIND,
                              SOLVED_STATUSES, STATUSES, SolveReport,
                              load_report, report_to_dict, save_report)
from fleetcast.scenario import InfoSpec


def edge_by_route(graph, tail_uav, tail_t, head_uav, head_t):
    return graph.edge_index(graph.vertex_id(tail_uav, tail_t),
                            graph.vertex_id(head_uav, head_t))


@pytest.fixture
def chain():
    return build_time_expanded_graph(instances.chain3())


def test_empty_plan_lists_c5_and_c6(chain):
    report = check_feasibility(chain, Plan({0: frozenset()}))
    assert not report.feasible
    assert report.constraint_ids() == {"C5", "C6"}


def test_manual_shortest_path_is_feasible(chain):
    hop1 = edge_by_route(chain, 0, 0, 1, 0)
    hop2 = edge_by_route(chain, 1, 0, 2, 0)
    report = check_feasibility(chain, Plan({0: {hop1, hop2}}))
    assert report.feasible
    assert report.violations == ()


def test_edge_shared_between_infos_is_flagged():
    graph = build_time_expanded_graph(instances.crossing_pair(2))
    e = edge_by_route(graph, 0, 0, 1, 0)
    report = check_feasibility(graph, Plan({0: {e}, 1: {e}}))
    assert not report.feasible
    assert "EDGE" in report.constraint_ids()


def test_vertex_transmitting_two_infos_is_flagged():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (0, 10)], channels=4,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(0, 0)}, destinations={2})])
    graph = build_time_expanded_graph(scen)
    report = check_feasibility(graph, Plan({
        0: {edge_by_route(graph, 0, 0, 1, 0)},
        1: {edge_by_route(graph, 0, 0, 2, 0)}}))
    assert "C7" in report.constraint_ids()


def test_channel_budget_violation():
    graph = build_time_expanded_graph(instances.crossing_pair(1))
    report = check_feasibility(graph, Plan({
        0: {edge_by_route(graph, 0, 0, 1, 0)},
        1: {edge_by_route(graph, 1, 0, 0, 0)}}))
    assert "C9" in report.constraint_ids()


def test_hub_without_supply_is_flagged(chain):
    hop2 = edge_by_route(chain, 1, 0, 2, 0)
    report = check_feasibility(chain, Plan({0: {hop2}}))
    assert not report.feasible
    assert "C3" in report.constraint_ids()
    assert "FLOW" in report.constraint_ids()


def test_dead_end_receiver_is_flagged(chain):
    hop1 = edge_by_route(chain, 0, 0, 1, 0)  # UAV 1 is not a destination
    report = check_feasibility(chain, Plan({0: {hop1}}))
    assert "C2" in report.constraint_ids()


def test_phantom_cycle_is_rejected():
    # locally consistent 2-cycle that never touches the source
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (200, 0), (210, 0)], channels=4,
        infos=[InfoSpec(id=0, sources={(2, 0)}, destinations={0})])
    graph = build_time_expanded_graph(scen)
    cycle = {edge_by_route(graph, 0, 0, 1, 0),
             edge_by_route(graph, 1, 0, 0, 0)}
    report = check_feasibility(graph, Plan({0: cycle}))
    assert not report.feasible
    assert "FLOW" in report.constraint_ids()


def test_self_delivery_is_feasible_with_no_edges():
    graph = build_time_expanded_graph(instances.self_delivery())
    report = check_feasibility(graph, Plan({0: frozenset()}))
    assert report.feasible


def test_every_violation_carries_a_message():
    # every edge for every info breaks the edge, continuity, vertex and
    # channel rules at once, on a generated graph
    graph = build_time_expanded_graph(generate_scenario(make_config(
        "micro", 15, uav_count=4, info_count=2, horizon=6, channels=2,
        gather_radius=18.0, area_side=55.0, destinations_per_info=(1, 2))))
    everything = frozenset(graph.edges)
    verdict = check_feasibility(graph, Plan({i.id: everything
                                             for i in graph.infos}))
    assert {"EDGE", "C3", "C7", "C9"} <= verdict.constraint_ids()
    assert all(v.message for v in verdict.violations)


def test_structural_error_for_unknown_edges(chain):
    with pytest.raises(PlanStructureError):
        check_feasibility(chain, Plan({0: {999}}))
    unknown = "^plan references unknown info 7$"
    with pytest.raises(PlanStructureError, match=unknown):
        check_feasibility(chain, Plan({7: frozenset()}))
    with pytest.raises(PlanStructureError, match=unknown):
        chain.info_by_id(7)
    with pytest.raises(PlanStructureError):   # the first index past the graph
        check_feasibility(chain, Plan({0: {len(chain.edges)}}))


def test_cost_empty_plan(chain):
    assert plan_cost(chain, Plan({0: frozenset()})) == 0.0


def test_cost_max_rule_two_outgoing():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (2.5, 0)], radii=(2.5, 10.0),
        channels=4, radio=instances.PAPER_RADIO,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1, 2})])
    graph = build_time_expanded_graph(scen)
    far = edge_by_route(graph, 0, 0, 1, 0)    # 0.6 J at 10 m
    near = edge_by_route(graph, 0, 0, 2, 0)   # 0.0375 J at 2.5 m
    assert graph.edge_weight[far] == pytest.approx(0.6, rel=1e-12)
    both = plan_cost(graph, Plan({0: {far, near}}))
    assert both == pytest.approx(0.6, rel=1e-12)  # max, not sum


def test_cost_sums_across_vertices(chain):
    # 10 J per hop in the unit radio, two transmitting vertices
    hop1 = edge_by_route(chain, 0, 0, 1, 0)
    hop2 = edge_by_route(chain, 1, 0, 2, 0)
    assert plan_cost(chain, Plan({0: {hop1, hop2}})) == 20.0


def test_three_transmitters_at_0_6_joules():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (20, 0), (30, 0)], channels=4,
        radio=instances.PAPER_RADIO,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={3})])
    graph = build_time_expanded_graph(scen)
    path = {edge_by_route(graph, 0, 0, 1, 0),
            edge_by_route(graph, 1, 0, 2, 0),
            edge_by_route(graph, 2, 0, 3, 0)}
    assert plan_cost(graph, Plan({0: path})) == pytest.approx(1.8, rel=1e-12)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_cost_monotone_under_removal(data):
    graph = build_time_expanded_graph(instances.star4())
    chosen = data.draw(st.sets(st.sampled_from(range(len(graph.edges)))))
    plan = Plan({0: frozenset(chosen)})
    base = plan_cost(graph, plan)
    if chosen:
        drop = data.draw(st.sampled_from(sorted(chosen)))
        smaller = Plan({0: frozenset(chosen - {drop})})
        assert plan_cost(graph, smaller) <= base


def test_max_rule_invariance():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (5, 0)], radii=(5.0, 10.0), channels=4,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1, 2})])
    graph = build_time_expanded_graph(scen)
    far = edge_by_route(graph, 0, 0, 1, 0)
    near = edge_by_route(graph, 0, 0, 2, 0)
    assert graph.edge_weight[near] <= graph.edge_weight[far]
    assert plan_cost(graph, Plan({0: {far, near}})) \
        == plan_cost(graph, Plan({0: {far}}))


def test_plan_round_trip(tmp_path, chain):
    hop1 = edge_by_route(chain, 0, 0, 1, 0)
    hop2 = edge_by_route(chain, 1, 0, 2, 0)
    plan = Plan({0: {hop1, hop2}})
    path = tmp_path / "plan.json"
    save_plan(chain, plan, path)
    assert load_plan(chain, path) == plan
    # and byte-identical when re-saved
    text = path.read_text()
    save_plan(chain, load_plan(chain, path), path)
    assert path.read_text() == text


@pytest.mark.parametrize("rows, drop, error", [
    pytest.param([[0, 0, 2, 0, "connectivity"]], None, PlanStructureError,
                 id="no-such-edge"),
    # (0,1) and (0,2) are outside T=1 but would alias (1,0)->(2,0)
    pytest.param([[0, 1, 0, 2, "connectivity"]], None, PlanStructureError,
                 id="aliasing-time"),
    pytest.param([[-1, 0, 0, 0, "connectivity"]], None, PlanStructureError,
                 id="negative-uav"),
    pytest.param([[0, 0, 1, 0]], None, FormatError, id="short-row"),
    pytest.param([7], None, FormatError, id="scalar-row"),
    # (0,0)->(1,0) exists: only the types of these rows are wrong
    pytest.param([[0, 0, 1.0, 0, "connectivity"]], None, FormatError,
                 id="float-uav"),
    pytest.param([[0, False, 1, 0, "connectivity"]], None, FormatError,
                 id="bool-time"),
    pytest.param([["0", 0, 1, 0, "connectivity"]], None, FormatError,
                 id="string-uav"),
    pytest.param([[0, 0, 1, 0, 0]], None, FormatError, id="numeric-kind"),
    pytest.param(7, None, FormatError, id="scalar-rows"),
    pytest.param([], "method", FormatError, id="no-method"),
    pytest.param([], "status", FormatError, id="no-status"),
    pytest.param([], "objective_joules", FormatError, id="no-objective"),
])
def test_plan_from_dict_rejects_unknown_route(chain, tmp_path, rows, drop,
                                              error):
    # the plan reaches plan_from_dict through load_report, which also needs
    # the report's own keys
    doc = report_to_dict(chain, SolveReport("mpf", "FEASIBLE", 0.0,
                                            Plan({0: frozenset()})))
    doc["plan"]["activations"]["0"] = rows
    doc.pop(drop, None)
    path = tmp_path / "report.json"
    write_json(path, doc)
    with pytest.raises(error):
        load_report(chain, path)


@pytest.mark.parametrize("activations", [
    {"x": []}, {"1.0": []}, {"01": []}, {" 0": []}, {"None": []}, [],
], ids=["word", "float", "leading-zero", "leading-space", "none", "list"])
def test_plan_from_dict_rejects_malformed_info_keys(chain, tmp_path,
                                                    activations):
    doc = report_to_dict(chain, SolveReport("mpf", "FEASIBLE", 0.0,
                                            Plan({0: frozenset()})))
    doc["plan"]["activations"] = activations
    path = tmp_path / "report.json"
    write_json(path, doc)
    with pytest.raises(FormatError):
        load_report(chain, path)


def chain_report_doc(chain):
    hop1 = edge_by_route(chain, 0, 0, 1, 0)
    hop2 = edge_by_route(chain, 1, 0, 2, 0)
    return report_to_dict(chain, SolveReport(
        "mpf", "FEASIBLE", 20.0, Plan({0: {hop1, hop2}}), restarts=0))


@pytest.mark.parametrize("key, value", [
    ("method", "quantum"), ("method", 3), ("method", "r"), ("method", "r[01]"),
    ("method", "mpf[1]"), ("status", 17), ("status", "optimal"),
    ("status", None), ("objective_joules", "cheap"), ("objective_joules", True),
    ("objective_joules", [20.0]), ("objective_joules", float("nan")),
    ("objective_joules", float("inf")), ("objective_joules", float("-inf")),
    ("nodes", [1]), ("nodes", 1.0), ("nodes", True), ("nodes", None),
    ("restarts", "0"), ("restarts", False), ("seed", 2.5), ("seed", "7"),
])
def test_load_report_rejects_mistyped_fields(chain, tmp_path, key, value):
    doc = chain_report_doc(chain)
    doc[key] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))    # json.dumps writes NaN and Infinity
    with pytest.raises(FormatError):
        load_report(chain, path)


@pytest.mark.parametrize("changes", [
    {"nodes": -5}, {"restarts": -1},
    {"seed": 3},                            # mpf has no seed
    {"method": "exact", "seed": 0},
    {"method": "r[3]"},                     # r[3] without its seed
    {"method": "r[3]", "seed": 0}, {"method": "r[3]", "seed": -3},
    {"method": "r[0]", "seed": None},
], ids=["negative-nodes", "negative-restarts", "mpf-seed", "exact-seed",
        "r-no-seed", "r-other-seed", "r-negated-seed", "r-null-seed"])
def test_load_report_rejects_inconsistent_counts_and_seeds(chain, tmp_path,
                                                           changes):
    doc = chain_report_doc(chain)       # mpf, restarts 0, no seed
    doc.update(changes)
    with pytest.raises(FormatError):
        load_report(chain, _write_report(doc, tmp_path))


def test_plan_and_report_reject_a_repeated_row(tmp_path):
    # a set would load the doubled row as one edge, a smaller plan that
    # saves back as a different document
    graph = build_time_expanded_graph(generate_scenario(make_config("micro", 2)))
    report = solve_exact(graph)
    doc = report_to_dict(graph, report)
    info_key, rows = next((k, r) for k, r in doc["plan"]["activations"].items()
                          if r)
    rows.insert(0, list(rows[0]))
    message = re.escape(f"plan row {rows[0]!r} of info {info_key} is listed "
                        "twice")
    with pytest.raises(FormatError, match=message):
        plan_from_dict(graph, doc["plan"])
    with pytest.raises(FormatError, match=message):
        load_report(graph, _write_report(doc, tmp_path))


def test_load_report_rejects_plan_for_unknown_info(chain, tmp_path):
    doc = chain_report_doc(chain)
    doc["plan"]["activations"]["7"] = []
    path = tmp_path / "report.json"
    write_json(path, doc)
    with pytest.raises(PlanStructureError,
                       match="^plan references unknown info 7$"):
        load_report(chain, path)


def test_load_report_round_trips_every_method_and_status(chain, tmp_path):
    kinds = [HeuristicKind(RANDOM_KIND, seed) for seed in (0, 7, -3)] + [
        HeuristicKind(kind) for kind in HEURISTIC_KINDS if kind != RANDOM_KIND]
    methods = [(METHOD_EXACT, None)] + [(k.label(), k.seed) for k in kinds]
    plan = load_report(chain, _write_report(chain_report_doc(chain),
                                            tmp_path)).plan
    path = tmp_path / "report.json"
    for label, seed in methods:
        for status in STATUSES:
            solved = status in SOLVED_STATUSES
            save_report(chain, SolveReport(
                label, status, 20.0 if solved else None,
                plan if solved else None, nodes=12, seed=seed), path)
            text = path.read_text()
            save_report(chain, load_report(chain, path), path)
            assert path.read_text() == text


def _write_report(doc, tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, doc)
    return path


@pytest.mark.parametrize("status, objective, has_plan", [
    ("INFEASIBLE", -5.0, True),
    ("INFEASIBLE", None, True),
    ("INFEASIBLE", 20.0, False),
    ("INFEASIBLE_HEURISTIC", 20.0, True),
    ("INFEASIBLE_HEURISTIC", 0.0, False),
    ("TIMEOUT_NO_SOLUTION", None, True),
    ("OPTIMAL", None, False),
    ("OPTIMAL", 20.0, False),
    ("OPTIMAL", None, True),
    ("FEASIBLE", None, True),
    ("FEASIBLE", -5.0, True),
    ("FEASIBLE", 19.999999999999996, True),
    ("FEASIBLE", 0.0, True),
])
def test_load_report_rejects_status_objective_plan_mismatch(
        chain, tmp_path, status, objective, has_plan):
    doc = chain_report_doc(chain)       # FEASIBLE, 20.0 J, a two-hop plan
    doc.update(status=status, objective_joules=objective)
    if not has_plan:
        doc["plan"] = None
    with pytest.raises(FormatError):
        load_report(chain, _write_report(doc, tmp_path))


@pytest.mark.parametrize("make", [
    instances.chain3, instances.star4, lambda: instances.crossing_pair(1),
    lambda: instances.crossing_pair(2), instances.self_delivery,
    instances.cheap_and_expensive, instances.asymmetric_pair,
])
def test_load_report_round_trips_real_solver_reports(make, tmp_path):
    graph = build_time_expanded_graph(make())
    kinds = [HeuristicKind(k) for k in HEURISTIC_KINDS if k != RANDOM_KIND]
    reports = [greedy_plan(graph, graph.infos, k)
               for k in kinds + [HeuristicKind(RANDOM_KIND, 3)]]
    reports.append(solve_exact(graph))
    path = tmp_path / "report.json"
    for report in reports:
        save_report(graph, report, path)
        text = path.read_text()
        loaded = load_report(graph, path)
        assert (loaded.status, loaded.objective, loaded.plan) \
            == (report.status, report.objective, report.plan)
        save_report(graph, loaded, path)
        assert path.read_text() == text


# -- checker completeness against the independent evaluator ----------------

def _sweep_agreement(graph, info_ids):
    for acts in oracles.all_activation_assignments(graph, info_ids):
        ref = oracles.reference_violation_ids(graph, acts)
        report = check_feasibility(
            graph, Plan({i: frozenset(s) for i, s in acts.items()}))
        assert report.feasible == (not ref)
        assert report.constraint_ids() == ref


def test_checker_matches_reference_on_chain():
    _sweep_agreement(build_time_expanded_graph(instances.chain3()), [0])


def test_checker_matches_reference_on_crossing():
    _sweep_agreement(build_time_expanded_graph(instances.crossing_pair(2)), [0, 1])


def test_checker_matches_reference_with_caching_edges():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0)], horizon=3, channels=1,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(1, 1)}, destinations={0})])
    _sweep_agreement(build_time_expanded_graph(scen), [0, 1])


def test_checker_matches_reference_unlimited_cache():
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0)], horizon=3, channels=1,
        cache_capacity="unlimited",
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(1, 1)}, destinations={0})])
    _sweep_agreement(build_time_expanded_graph(scen), [0, 1])


@pytest.mark.parametrize("solve", [
    lambda graph, info: solve_exact(graph, [info]),
    lambda graph, info: greedy_plan(graph, [info], HeuristicKind("mpf")),
    lambda graph, info: greedy_plan(graph, [info], HeuristicKind("muf")),
    lambda graph, info: build_tree(graph, info, ResidualState(graph)),
    lambda graph, info: export_lp(graph, [info]),
], ids=["solve_exact", "greedy_mpf", "greedy_muf", "build_tree", "export_lp"])
def test_information_missing_from_the_graph_is_a_structure_error(chain,
                                                                   solve):
    # an unknown id, then info 0's id with another source copy and with one
    # more destination: the graph serves none of them
    for stranger in (InfoSpec(id=9, sources={(0, 0)}, destinations={2}),
                     InfoSpec(id=0, sources={(1, 0)}, destinations={2}),
                     InfoSpec(id=0, sources={(0, 0)}, destinations={1, 2})):
        with pytest.raises(PlanStructureError, match=rf"^info {stranger.id} "
                           "is not part of the graph$"):
            solve(chain, stranger)


def test_a_duplicated_information_is_served_once():
    graph = build_time_expanded_graph(generate_scenario(
        make_config("micro", 3, info_count=2)))
    first, second = graph.infos[:2]
    text = export_lp(graph, [first, first])
    assert lint_lp(text) == []
    assert text == export_lp(graph, [first])
    for solve in (solve_exact,
                  lambda graph, infos: greedy_plan(graph, infos,
                                                   HeuristicKind("mpf")),
                  lambda graph, infos: greedy_plan(graph, infos,
                                                   HeuristicKind("muf"))):
        once = solve(graph, [first])
        assert once.plan is not None
        assert solve(graph, [first, first]).plan == once.plan
    assert graph.served(iter([second, first, second])) == (first, second)


@pytest.mark.parametrize("activations, shown", [
    ({0: {1.7}}, "1.7"), ({0: [True]}, "True"), ({0: ["1"]}, "'1'"),
    ({"0": [True]}, "'0'"), ({True: [1]}, "True"), ({0.0: [1]}, "0.0"),
])
def test_plan_rejects_ids_that_are_not_integers(activations, shown):
    with pytest.raises(PlanStructureError, match=f"got {re.escape(shown)}$"):
        Plan(activations)
