"""Branch-and-bound solver: worked optima, oracle agreement, budgets."""

import hashlib
import math
import random
import time

import pytest

import instances
import oracles
from fleetcast.errors import GenerationError
from fleetcast.exact import (SearchBudget, _BudgetExhausted, _Search,
                             solve_exact)
from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import KIND_CONNECTIVITY, build_time_expanded_graph
from fleetcast.heuristic import HeuristicKind, greedy_plan
from fleetcast.jsonio import canonical_dumps
from fleetcast.plan import check_feasibility, plan_cost
from fleetcast.report import report_to_dict


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit_seconds=0.0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit_seconds=math.nan)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=math.nan)
    assert SearchBudget(time_limit_seconds=math.inf).time_limit_seconds \
        == math.inf


def test_self_delivery_costs_nothing():
    graph = build_time_expanded_graph(instances.self_delivery())
    report = solve_exact(graph)
    assert report.status == "OPTIMAL"
    assert report.objective == 0.0
    assert report.plan.activations[0] == frozenset()


def test_chain_needs_both_hops():
    graph = build_time_expanded_graph(instances.chain3())
    report = solve_exact(graph)
    assert report.status == "OPTIMAL"
    assert report.objective == 20.0  # 10 J per hop, frozen by enumeration
    assert check_feasibility(graph, report.plan).feasible


def test_contended_single_channel_is_infeasible():
    graph = build_time_expanded_graph(instances.crossing_pair(1))
    report = solve_exact(graph)
    assert report.status == "INFEASIBLE"
    assert report.objective is None
    assert report.plan is None


def test_multicast_reuses_hub_power():
    graph = build_time_expanded_graph(instances.star4())
    report = solve_exact(graph)
    assert report.status == "OPTIMAL"
    assert report.objective == 20.0


def test_deterministic_reports():
    graph = build_time_expanded_graph(instances.star4())
    a = solve_exact(graph)
    b = solve_exact(graph)
    assert report_to_dict(graph, a) == report_to_dict(graph, b)
    assert a.nodes == b.nodes


def test_timeout_without_solution():
    graph = build_time_expanded_graph(instances.chain3())
    report = solve_exact(graph, budget=SearchBudget(max_nodes=1),
                         warm_start=False)
    assert report.status in ("TIMEOUT_NO_SOLUTION", "FEASIBLE", "OPTIMAL")
    # a 1-node budget cannot finish a 2-demand-free search with no incumbent
    graph2 = build_time_expanded_graph(instances.crossing_pair(2))
    report2 = solve_exact(graph2, budget=SearchBudget(max_nodes=1),
                          warm_start=False)
    assert report2.status == "TIMEOUT_NO_SOLUTION"
    assert report2.plan is None


def test_budget_exhausted_keeps_incumbent():
    graph = build_time_expanded_graph(instances.disjoint_pairs())
    report = solve_exact(graph, budget=SearchBudget(max_nodes=1))
    assert report.status == "FEASIBLE"  # warm start provides the incumbent
    assert report.objective == 20.0


def test_dominates_heuristics():
    for scen in [instances.chain3(), instances.star4(),
                 instances.disjoint_pairs()]:
        graph = build_time_expanded_graph(scen)
        exact = solve_exact(graph)
        assert exact.status == "OPTIMAL"
        for kind in [HeuristicKind("mpf"), HeuristicKind("lpf"),
                     HeuristicKind("muf"), HeuristicKind("r", seed=2)]:
            greedy = greedy_plan(graph, graph.infos, kind)
            if greedy.status == "FEASIBLE":
                assert greedy.objective >= exact.objective


def micro_graphs(count, start_seed=1):
    """Deterministic scan of seeds yielding small certifiable instances."""
    seed = start_seed - 1
    produced = 0
    while produced < count and seed < start_seed + 4000:
        seed += 1
        try:
            config = make_config(
                "micro", seed, uav_count=2 + seed % 3, horizon=4 + seed % 5,
                info_count=1 + seed % 2, channels=1 + seed % 2,
                gather_radius=18.0, area_side=55.0,
                destinations_per_info=(1, 2) if seed % 2 else (1, 1),
                cache_capacity="single" if seed % 3 else "unlimited")
            scenario = generate_scenario(config)
        except (GenerationError, ValueError):
            continue
        graph = build_time_expanded_graph(scenario)
        n_conn = graph.edge_kind.count(KIND_CONNECTIVITY)
        if not 1 <= n_conn <= 12:
            continue
        produced += 1
        yield seed, graph


def _assert_matches_exhaustive_enumeration(warm_start):
    for seed, graph in micro_graphs(25):
        report = solve_exact(graph, warm_start=warm_start)
        feasible, objective, _ = oracles.enumerate_optimum(graph)
        if feasible:
            assert report.status == "OPTIMAL", f"seed {seed}"
            assert report.objective == objective, f"seed {seed}"
            assert check_feasibility(graph, report.plan).feasible
        else:
            assert report.status == "INFEASIBLE", f"seed {seed}"


def test_matches_exhaustive_enumeration_on_micro_set():
    _assert_matches_exhaustive_enumeration(warm_start=True)


def test_matches_exhaustive_enumeration_on_micro_set_without_warm_start():
    # no incumbent: the reachability sweep decides which demands to skip
    _assert_matches_exhaustive_enumeration(warm_start=False)


def test_refuted_demands_have_no_candidate_path():
    """Where the sweep refutes a demand, the enumeration yields nothing."""
    refuted = 0
    for seed, graph in micro_graphs(25):
        search = _Search(graph, sorted(graph.infos, key=lambda i: i.id),
                         SearchBudget())
        reaches = search._reaches

        def checked(info, dest_uav):
            nonlocal refuted
            found = reaches(info, dest_uav)
            if not found:
                refuted += 1
                assert search.incumbent_cost == math.inf
                assert not list(search._candidate_iter(
                    info, dest_uav, search.accrued, 0.0)), f"seed {seed}"
            return found

        search._reaches = checked
        search.run()
    assert refuted >= 10


def test_a_next_demand_refuted_at_a_node_is_refuted_in_every_child(
        monkeypatch):
    """A node whose own sweep refutes its next demand skips its children;
    each child's own sweep, run here before the skip, refutes it too."""
    searches = []

    class Checked(_Search):
        def __init__(self, *args):
            super().__init__(*args)
            self.last_sweep = None
            self.refuting = self.children = 0
            searches.append(self)

        def _reaches(self, info, dest_uav):
            found = super()._reaches(info, dest_uav)
            self.last_sweep = (info, dest_uav, found)
            return found

        def _candidate_iter(self, info, dest_uav, *args):
            # with no incumbent, a node's last sweep before it enumerates
            # is that of its next demand, if it has one
            level = self.demands.index((info, dest_uav))
            dead = (self.incumbent_cost == math.inf
                    and level + 1 < len(self.demands)
                    and self.last_sweep == (*self.demands[level + 1], False))
            self.refuting += dead
            for cost, edges in super()._candidate_iter(info, dest_uav,
                                                       *args):
                if dead:
                    undo = self._commit(info.id, edges)
                    assert not super()._reaches(*self.demands[level + 1])
                    self._undo(info.id, edges, undo)
                    self.children += 1
                yield cost, edges

    monkeypatch.setattr("fleetcast.exact._Search", Checked)
    for seed, graph in [*micro_graphs(25), *multi_destination_graphs(12)]:
        for warm_start in (True, False):
            solve_exact(graph, warm_start=warm_start)
    # 80 refuting nodes over 296 children, then seed 71's 4,096 nodes
    assert sum(search.refuting for search in searches) >= 75
    assert sum(search.children for search in searches) >= 250
    report = solve_exact(comparison_graph(71))
    assert (report.status, report.nodes) == ("INFEASIBLE", 4_096)
    assert searches[-1].children >= 4_000


@pytest.mark.parametrize("channels, reaches", [(1, False), (2, True)])
def test_sweep_counts_transmissions_in_a_time_unit(channels, reaches):
    # chain3 has one time unit, and 0 -> 1 -> 2 transmits twice in it
    graph = build_time_expanded_graph(instances.chain3(channels))
    search = _Search(graph, list(graph.infos), SearchBudget())
    info, dest_uav = search.demands[0]
    assert search._reaches(info, dest_uav) == reaches
    paths = list(search._candidate_iter(info, dest_uav, 0.0, 0.0))
    assert bool(paths) == reaches


def test_sweep_steps_from_a_vertex_that_transmits_the_information():
    # the second leaf is reached only from the hub, which the first leaf's
    # path already makes transmit this information
    graph = build_time_expanded_graph(instances.star4())
    report = solve_exact(graph, warm_start=False)
    assert (report.status, report.objective) == ("OPTIMAL", 20.0)


def test_lower_bound_is_admissible_on_micro_set():
    for seed, graph in micro_graphs(15, start_seed=4200):
        feasible, objective, _ = oracles.enumerate_optimum(graph)
        if not feasible:
            continue
        search = _Search(graph, list(graph.infos), SearchBudget())
        assert not search.unreachable
        root_bound = sum(search.pristine_lb[info.id] for info in graph.infos)
        assert root_bound <= objective + 1e-12, f"seed {seed}"


def _bellman_ford(graph, seeds, backward):
    """Channel-free cheapest distances between `seeds` and every vertex."""
    dist = [math.inf] * graph.vertex_count
    for v in seeds:
        dist[v] = 0.0
    for _ in range(graph.vertex_count):
        changed = False
        for e in graph.edges:
            a, b = graph.edge_tail[e], graph.edge_head[e]
            if backward:
                a, b = b, a
            w = graph.edge_weight[e]
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            break
    return dist


def _copies(graph, uav):
    return [graph.vertex_id(uav, t) for t in range(graph.horizon)]


def test_backward_tables_and_pristine_bound_match_bellman_ford():
    graphs = [("chain3", build_time_expanded_graph(instances.chain3())),
              ("star4", build_time_expanded_graph(instances.star4()))]
    graphs += [(f"seed {seed}", graph) for seed, graph in micro_graphs(30)]
    for name, graph in graphs:
        search = _Search(graph, list(graph.infos), SearchBudget())
        # forward and backward sums may differ in the last bit
        for uav, table in search.h_to_dest.items():
            ref = _bellman_ford(graph, _copies(graph, uav), backward=True)
            assert all(math.isclose(table[v], ref[v], rel_tol=1e-12)
                       for v in range(len(ref))), name
        unreachable = None
        for info in graph.infos:
            starts = [graph.vertex_id(u, t) for u, t in info.sources]
            ref = _bellman_ford(graph, starts, backward=False)
            nearest = {u: min(ref[v] for v in _copies(graph, u))
                       for u in sorted(info.destinations)}
            lost = [u for u, d in nearest.items() if d == math.inf]
            if lost:
                unreachable = (info.id, lost[0])
                break
            assert math.isclose(search.pristine_lb[info.id],
                                 max(nearest.values()), rel_tol=1e-12), name
        assert search.unreachable == unreachable, name


def test_optimal_matches_oracle_when_start_already_transmits():
    scenario = generate_scenario(make_config(
        "micro", 10444, uav_count=4, horizon=2, info_count=1, channels=2,
        gather_radius=15.0, area_side=40.0, max_range=30.0, subrange_count=4,
        destinations_per_info=(2, 4)))
    graph = build_time_expanded_graph(scenario)
    feasible, objective, _ = oracles.enumerate_optimum(graph)
    if not (feasible and objective == pytest.approx(8.4375)):
        pytest.fail(f"oracle changed: {feasible}, {objective}")
    report = solve_exact(graph)
    assert report.status == "OPTIMAL"
    # without the start discount the estimate prunes the optimum: 8.775 J
    assert report.objective == objective


def multi_destination_graphs(count, start_seed=10000):
    """Micro instances whose information goes to two to four UAVs.

    With several destinations, later paths start at vertices that already
    transmit the information, which is where a start estimate must be
    discounted to stay a lower bound.
    """
    seed = start_seed - 1
    while count:
        seed += 1
        try:
            scenario = generate_scenario(make_config(
                "micro", seed, uav_count=3 + seed % 2, horizon=2 + seed % 2,
                info_count=1, channels=1 + seed % 2, gather_radius=15.0,
                area_side=40.0, max_range=30.0, subrange_count=4,
                destinations_per_info=(2, 3 + seed % 2),
                cache_capacity="single" if seed % 3 else "unlimited"))
        except GenerationError:
            continue
        count -= 1
        yield seed, build_time_expanded_graph(scenario)


@pytest.mark.parametrize("warm_start", [True, False])
def test_matches_oracle_with_several_destinations(warm_start):
    for seed, graph in multi_destination_graphs(80):
        report = solve_exact(graph, warm_start=warm_start)
        feasible, objective, _ = oracles.enumerate_optimum(graph)
        if feasible:
            assert report.status == "OPTIMAL", f"seed {seed}"
            assert report.objective == objective, f"seed {seed}"
            assert check_feasibility(graph, report.plan).feasible
        else:
            assert report.status == "INFEASIBLE", f"seed {seed}"


def _reference_paths(search, info, dest_uav):
    """Every admissible path serving one demand, by plain depth-first search.

    The rules are read off the committed plan edges, not off the search's
    own bookkeeping: a connectivity edge needs an unused edge, a tail that
    transmits nothing or this information, and room in its time unit's
    channel budget counting the path's own transmissions; its cost is its
    weight less the power its tail already transmits at. A caching edge
    must be unused by this information, and by every information under
    "single" capacity. Every vertex after the start must be fresh for this
    information and not yet on the path. Returns a set of (cost, edges).
    """
    graph = search.graph
    tails, heads = graph.edge_tail, graph.edge_head
    kinds, weights = graph.edge_kind, graph.edge_weight
    times = [tail % graph.horizon for tail in tails]
    edges_of = search._plan().activations
    used = set().union(*edges_of.values())
    owner, power, channel = {}, {}, [0] * graph.horizon
    for info_id, edges in edges_of.items():
        for e in edges:
            if kinds[e] == KIND_CONNECTIVITY:
                owner.setdefault(tails[e], set()).add(info_id)
                power[tails[e]] = max(power.get(tails[e], 0.0), weights[e])
                channel[times[e]] += 1
    supplied = ({graph.vertex_id(u, t) for u, t in info.sources}
                | {heads[e] for e in edges_of[info.id]})
    copies = {graph.vertex_id(dest_uav, t) for t in range(graph.horizon)}
    found = {(0.0, ())} if supplied & copies else set()

    def extend(v, path, on_path, cost):
        for e in graph.out_edges[v]:
            head = heads[e]
            if head in supplied | on_path:
                continue
            if kinds[e] == KIND_CONNECTIVITY:
                sent = sum(kinds[p] == KIND_CONNECTIVITY
                           and times[p] == times[e] for p in path)
                if (e in used or not owner.get(v, set()) <= {info.id}
                        or channel[times[e]] + sent + 1 > graph.channels):
                    continue
                step = max(0.0, weights[e] - power.get(v, 0.0))
            else:
                if e in edges_of[info.id] or (
                        graph.cache_capacity == "single" and e in used):
                    continue
                step = 0.0
            new_path = path + (e,)
            if head in copies:
                found.add((cost + step, new_path))
            extend(head, new_path, on_path | {head}, cost + step)

    for start in supplied:
        extend(start, (), {start}, 0.0)
    return found


def _assert_candidates_match_reference(search, label):
    # with no incumbent, charging the next demand ahead prunes nothing
    for (info, dest_uav), next_uav in zip(search.demands, search.next_uav):
        got = list(search._candidate_iter(info, dest_uav, 0.0, 0.0, next_uav))
        # ascending up to rounding: estimate sums associate differently
        costs = [cost for cost, _ in got]
        assert all(a <= b or math.isclose(a, b, rel_tol=1e-12)
                   for a, b in zip(costs, costs[1:])), label
        assert len(set(got)) == len(got), label
        assert set(got) == _reference_paths(search, info, dest_uav), label


def test_candidate_paths_match_reference_enumeration():
    checked = 0
    for seed in range(300, 420):
        try:
            scenario = generate_scenario(make_config(
                "micro", seed, uav_count=3 + seed % 2, horizon=3 + seed % 2,
                info_count=2, channels=2, gather_radius=15.0, area_side=40.0,
                max_range=30.0, subrange_count=3,
                destinations_per_info=(1, 3),
                cache_capacity="single" if seed % 2 else "unlimited"))
        except GenerationError:
            continue
        graph = build_time_expanded_graph(scenario)
        search = _Search(graph, list(graph.infos), SearchBudget())
        info, dest_uav = search.demands[0]
        # commit a first path that transmits, so that owner, power, channel
        # and cache state are all in play for every demand
        first = next((edges for _, edges in
                      search._candidate_iter(info, dest_uav, 0.0, 0.0)
                      if any(graph.edge_kind[e] == KIND_CONNECTIVITY
                             for e in edges)), None)
        if first is None:
            continue
        before = (search.accrued, dict(search.power), dict(search.transmit),
                  list(search.channel), set(search.cache_used),
                  {i: set(v) for i, v in search.supplied.items()})
        undo = search._commit(info.id, first)
        _assert_candidates_match_reference(search, f"seed {seed}, committed")
        search._undo(info.id, first, undo)
        assert before == (search.accrued, search.power, search.transmit,
                          search.channel, search.cache_used, search.supplied)
        assert not search.paths
        _assert_candidates_match_reference(search, f"seed {seed}, undone")
        checked += 1
    assert checked >= 30


def _yields_under(search, budget, level, lookahead=True):
    """The paths `_candidate_iter` yields for demand `level` when the
    incumbent leaves exactly `budget` for them."""
    info, dest_uav = search.demands[level]
    search.incumbent_cost, search.guard = budget, 0.0
    try:
        return [edges for _, edges in search._candidate_iter(
            info, dest_uav, 0.0, 0.0,
            search.next_uav[level] if lookahead else None)]
    finally:
        search.incumbent_cost = math.inf


def test_lookahead_keeps_every_path_that_can_beat_the_budget():
    """Charging the next demand ahead is admissible.

    Take a demand whose next demand serves the same information, in a
    random committed state, and any path Q for it. Commit Q, and let R be
    the cheapest reference path of the next demand. Under a budget just
    above cost(Q) + cost(R), every non-empty prefix of Q has its cost plus
    its lookahead bound below the budget exactly when Q is still yielded.
    The yields with the lookahead must also be a subsequence of those
    without it, in the same order, and strictly fewer somewhere.
    """
    checked = pruned = 0
    graphs = [*micro_graphs(40), *multi_destination_graphs(40)]
    for seed, graph in graphs:
        rng = random.Random(seed)
        for _ in range(4):
            search = _Search(graph, sorted(graph.infos, key=lambda i: i.id),
                             SearchBudget())
            committed = []
            level = rng.randrange(len(search.demands))
            for info, dest_uav in search.demands[:level]:
                paths = sorted(_reference_paths(search, info, dest_uav))
                if not paths:
                    break
                path = rng.choice(paths)[1]
                committed.append((info.id, path,
                                  search._commit(info.id, path)))
            next_uav = search.next_uav[level]
            if len(committed) < level or next_uav is None:
                continue
            info, dest_uav = search.demands[level]
            targets = {}
            for cost, path in _reference_paths(search, info, dest_uav):
                undo = search._commit(info.id, path)
                nearest = min((c for c, _ in
                               _reference_paths(search, info, next_uav)),
                              default=math.inf)
                search._undo(info.id, path, undo)
                if path and nearest < math.inf:
                    targets[path] = cost + nearest
            for target in sorted(set(targets.values())):
                # 1e-300 keeps a zero target's budget positive
                budget = target * (1 + 1e-12) + 1e-300
                got = _yields_under(search, budget, level)
                plain = _yields_under(search, budget, level, lookahead=False)
                kept = iter(plain)
                assert all(path in kept for path in got), f"seed {seed}"
                pruned += len(got) < len(plain)
                missing = {p for p, t in targets.items() if t <= target} \
                    - set(got)
                assert not missing, f"seed {seed}: {missing}"
                checked += 1
            for info_id, path, undo in reversed(committed):
                search._undo(info_id, path, undo)
    assert checked >= 100 and pruned >= 5, (checked, pruned)


def test_nested_commit_and_undo_keep_a_shared_sender():
    # UAV 1 sends in both commits; undoing the second must keep it a sender
    graph = build_time_expanded_graph(instances.star4())
    search = _Search(graph, list(graph.infos), SearchBudget())

    def edge(tail_uav, head_uav):
        return graph.edge_index(graph.vertex_id(tail_uav, 0),
                                graph.vertex_id(head_uav, 0))

    def state():
        return (search.accrued, dict(search.power), dict(search.transmit),
                list(search.channel), set(search.cache_used),
                {i: set(v) for i, v in search.supplied.items()},
                list(search.paths))

    initial = state()
    first, second = (edge(0, 1), edge(1, 2)), (edge(1, 3),)
    undo_first = search._commit(0, first)
    after_first = state()
    undo_second = search._commit(0, second)
    assert search.transmit == {graph.vertex_id(0, 0): 0,
                               graph.vertex_id(1, 0): 0}
    search._undo(0, second, undo_second)
    assert state() == after_first
    search._undo(0, first, undo_first)
    assert state() == initial


def _smallest_optimum(graph):
    """The (plan_cost, lex_key)-smallest plan over every path decomposition.

    Demands are served in the solver's order, each by every path
    `_reference_paths` admits, with no bound and no pruning. Returns the
    plan (None if no decomposition exists) and how many distinct plans
    share the optimal cost.
    """
    search = _Search(graph, sorted(graph.infos, key=lambda i: i.id),
                     SearchBudget())
    plans = {}

    def descend(level):
        if level == len(search.demands):
            plan = search._plan()
            plans[plan.lex_key()] = (plan_cost(graph, plan), plan)
            return
        info, dest_uav = search.demands[level]
        for _, path in _reference_paths(search, info, dest_uav):
            undo = search._commit(info.id, path)
            descend(level + 1)
            search._undo(info.id, path, undo)

    descend(0)
    if not plans:
        return None, 0
    key = min((cost, lex) for lex, (cost, _) in plans.items())
    ties = sum(cost == key[0] for cost, _ in plans.values())
    return plans[key[1]][1], ties


@pytest.mark.parametrize("warm_start", [True, False])
def test_exact_returns_the_smallest_lex_key_among_optima(warm_start):
    tied = 0
    for seed, graph in [*micro_graphs(25), *multi_destination_graphs(12)]:
        expected, ties = _smallest_optimum(graph)
        report = solve_exact(graph, warm_start=warm_start)
        if expected is None:
            assert report.status == "INFEASIBLE", f"seed {seed}"
            continue
        assert report.status == "OPTIMAL", f"seed {seed}"
        assert report.plan == expected, f"seed {seed}"
        tied += ties > 1
    assert tied >= 15


def comparison_graph(seed):
    scenario = generate_scenario(instances.comparison_config(seed))
    return build_time_expanded_graph(scenario)


# sha256 of the canonical report, node count included; seed 9 has a greedy
# warm start, seeds 11 and 30 have none and run out of nodes before any plan,
# and seeds 69 and 71 have none and are proved infeasible
PINNED_REPORT_SHA256 = {
    9: "2cea90ab16cf8aaccabe09608134a671375eb400841ec9d23c6458a9a1d2effe",
    11: "666938c2e25ad1a98e1179e9866c58c22b916465337adae92d2619a070411c8c",
    30: "a72483b99ff0f73a4356511fd20142caef201b6ff60f27a53b256fabc6f61083",
    69: "bbaf83a3de89d1fdcdd2926fc82fdd0f484e6c0cd69b9721df878b9ed4d3a3f5",
    71: "eeb36daeec6e57bbf624a5222a944a4366706cbaaeb5a7f1f103e0db68f42ffe",
}


def _report_digest(graph, report):
    document = canonical_dumps(report_to_dict(graph, report))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed, max_nodes, status", [
    (9, 20_000, "FEASIBLE"), (11, 2_000, "TIMEOUT_NO_SOLUTION"),
    (30, 5_000, "TIMEOUT_NO_SOLUTION")])
def test_exact_reports_pinned_on_comparison_seeds(seed, max_nodes, status):
    graph = comparison_graph(seed)
    report = solve_exact(graph, budget=SearchBudget(
        max_nodes=max_nodes, time_limit_seconds=600))
    assert (report.status, report.nodes) == (status, max_nodes + 1)
    assert _report_digest(graph, report) == PINNED_REPORT_SHA256[seed]
    if report.plan is not None:
        # seed 9 holds the final optimum by then; the proof takes the rest
        full = solve_exact(graph, budget=SearchBudget(time_limit_seconds=600))
        assert full.status == "OPTIMAL"
        assert (report.objective, report.plan) == (full.objective, full.plan)


@pytest.mark.parametrize("seed, nodes", [(69, 17_842), (71, 4_096)])
def test_exact_infeasibility_proofs_pinned_on_comparison_seeds(seed, nodes):
    graph = comparison_graph(seed)
    report = solve_exact(graph, budget=SearchBudget(
        max_nodes=20_000, time_limit_seconds=600))
    assert (report.status, report.nodes) == ("INFEASIBLE", nodes)
    assert _report_digest(graph, report) == PINNED_REPORT_SHA256[seed]



@pytest.mark.parametrize("seed", [9, 37])
def test_descend_returns_with_its_accrued_energy_bit_equal(seed, monkeypatch):
    """Undoing a path restores `accrued` rather than subtracting from it: in
    floating point a + x - x need not be a, and on these seeds it is not."""
    descend = _Search._descend
    returned = []

    def checked(search, level):
        entry = search.accrued.hex()
        descend(search, level)
        returned.append(search.accrued.hex() == entry)

    monkeypatch.setattr(_Search, "_descend", checked)
    solve_exact(comparison_graph(seed), budget=SearchBudget(
        max_nodes=20_000, time_limit_seconds=600))
    assert len(returned) > 10_000
    assert returned.count(False) == 0

def test_time_limit_binds_while_demands_are_refuted():
    # seed 11 has no warm start and holds no plan within 300k nodes, and
    # most of its nodes are children counted, not entered, below a node
    # whose sweep refutes their demand
    graph = comparison_graph(11)
    started = time.perf_counter()
    report = solve_exact(graph, budget=SearchBudget(
        max_nodes=5_000_000, time_limit_seconds=0.5))
    assert report.status == "TIMEOUT_NO_SOLUTION"
    assert time.perf_counter() - started < 5.0
    # the sweep makes no heap pops, so it tests the deadline itself
    graph = build_time_expanded_graph(instances.chain3(1))
    search = _Search(graph, list(graph.infos),
                     SearchBudget(time_limit_seconds=1e-9))
    with pytest.raises(_BudgetExhausted):
        search._reaches(*search.demands[0])
