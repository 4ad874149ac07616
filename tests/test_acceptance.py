"""Acceptance suite: one test per release criterion, with a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines as
they complete. The comparison-scale instance set (criteria 3 and 4) is built
once per session; everything is seeded, so reruns are reproducible except for
measured wall-clock times.
"""

import random
import time
from contextlib import contextmanager

import pytest

import instances
import oracles
from fleetcast.cli import main as cli_main
from fleetcast.errors import GenerationError
from fleetcast.exact import SearchBudget, solve_exact
from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import KIND_CONNECTIVITY, build_time_expanded_graph
from fleetcast.heuristic import HeuristicKind, greedy_plan
from fleetcast.lp import export_lp, lint_lp
from fleetcast.plan import check_feasibility
from fleetcast.radio import required_power, transmission_rate

ALL_KINDS = ("mpf", "lpf", "muf", "r")


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {title}")


def build(scenario):
    return build_time_expanded_graph(scenario)


def kind_for(name, seed):
    return HeuristicKind(name, seed if name == "r" else None)


def micro_instances(count):
    """Seeded scan for oracle-scale instances: |U|<=4, T<=8, |I|<=2, <=12 edges."""
    produced = 0
    seed = 0
    while produced < count:
        seed += 1
        assert seed < 5000, "seed scan exhausted"
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
        graph = build(scenario)
        n_conn = graph.edge_kind.count(KIND_CONNECTIVITY)
        if not 1 <= n_conn <= 12:
            continue
        produced += 1
        yield seed, graph


def fuzz_scenarios(count):
    """Seeded stream of small mixed scenarios for soundness fuzzing."""
    produced = 0
    seed = 0
    while produced < count:
        seed += 1
        assert seed < 5000, "seed scan exhausted"
        try:
            config = make_config(
                "micro", seed, uav_count=3 + seed % 4, horizon=5 + seed % 8,
                info_count=1 + seed % 3, channels=1 + seed % 3,
                area_side=50.0 + (seed % 5) * 15.0, gather_radius=20.0,
                max_range=28.0, destinations_per_info=(1, 2),
                cache_capacity="single" if seed % 4 else "unlimited")
            scenario = generate_scenario(config)
        except (GenerationError, ValueError):
            continue
        produced += 1
        yield seed, build(scenario)


@pytest.fixture(scope="module")
def comparison_set():
    """Instances at |U| in {4,5}, |I|=2, T in {20,40} with certified optima.

    Returns rows (seed, exact_report, {kind: heuristic_report}); only
    instances where the exact solver proved a nonzero optimum and all four
    heuristics found plans, so deviations are defined everywhere. One warmup
    solve runs first so the timed runs do not pay interpreter warmup costs.
    """
    rows = []
    seed = 0
    warm = None
    while len(rows) < 30:
        seed += 1
        assert seed < 400, "seed scan exhausted"
        try:
            scenario = generate_scenario(instances.comparison_config(seed))
        except (GenerationError, ValueError):
            continue
        graph = build(scenario)
        if warm is None:
            for name in ALL_KINDS:
                greedy_plan(graph, graph.infos, kind_for(name, seed))
            warm = solve_exact(graph, budget=SearchBudget(
                max_nodes=100_000, time_limit_seconds=5))
        # the orderings go first: a seed where one fails is never a row,
        # so it need not pay for the exact search
        heuristics = {}
        for name in ALL_KINDS:
            best = None
            for _ in range(3):  # keep the fastest of three timed runs
                report = greedy_plan(graph, graph.infos, kind_for(name, seed))
                if best is None or report.runtime_ms < best.runtime_ms:
                    best = report
            if best.status != "FEASIBLE":
                heuristics = None
                break
            heuristics[name] = best
        if heuristics is None:
            continue
        exact = solve_exact(graph, budget=SearchBudget(
            max_nodes=3_000_000, time_limit_seconds=30))
        if exact.status != "OPTIMAL" or not exact.objective:
            continue
        rows.append((seed, exact, heuristics))
    return rows


def test_criterion_1_oracle_equivalence():
    with criterion(1, "exact optimum equals exhaustive enumeration on 50 "
                      "micro instances in under 60 s"):
        started = time.perf_counter()
        for seed, graph in micro_instances(50):
            exact = solve_exact(graph)
            feasible, objective, _ = oracles.enumerate_optimum(graph)
            if feasible:
                assert exact.status == "OPTIMAL", f"seed {seed}"
                assert exact.objective == objective, f"seed {seed}"
            else:
                assert exact.status == "INFEASIBLE", f"seed {seed}"
        assert time.perf_counter() - started < 60.0


def test_criterion_2_heuristic_soundness():
    with criterion(2, "500+ fuzzed scenarios: feasible heuristic plans are "
                      "checker-clean and never beat a certified optimum"):
        budget = SearchBudget(max_nodes=300_000, time_limit_seconds=10)
        for seed, graph in fuzz_scenarios(500):
            exact = solve_exact(graph, budget=budget)
            for name in ALL_KINDS:
                report = greedy_plan(graph, graph.infos, kind_for(name, seed))
                if report.status != "FEASIBLE":
                    continue
                verdict = check_feasibility(graph, report.plan)
                assert verdict.feasible, (seed, name,
                                          verdict.violations[:3])
                if exact.status == "OPTIMAL":
                    assert report.objective >= exact.objective, (seed, name)


@pytest.mark.slow
def test_criterion_3_ordering_trend(comparison_set):
    with criterion(3, "mean deviation: most-power-first <= least-power-first "
                      "and <= random over 30 comparison instances"):
        assert len(comparison_set) >= 30

        def mean_dev(name):
            devs = [(h[name].objective - ex.objective) / ex.objective
                    for _, ex, h in comparison_set]
            return sum(devs) / len(devs)

        mpf, lpf, rnd = mean_dev("mpf"), mean_dev("lpf"), mean_dev("r")
        print(f"  mean deviations: mpf={mpf:.2%} lpf={lpf:.2%} r={rnd:.2%}")
        assert mpf <= lpf
        assert mpf <= rnd


@pytest.mark.slow
def test_criterion_4_speedup(comparison_set):
    with criterion(4, "every heuristic at least 100x faster than exact "
                      "wherever exact needs over 100 ms"):
        slow = [(ex, h) for _, ex, h in comparison_set
                if ex.runtime_ms > 100.0]
        assert slow, "no instance exercised the exact solver hard enough"
        for exact, heuristics in slow:
            for name in ALL_KINDS:
                assert heuristics[name].runtime_ms <= exact.runtime_ms / 100.0


def test_criterion_5_packet_size_trend():
    with criterion(5, "mean objective strictly increasing in packet size, "
                      "super-linear above 100 KB"):
        means = []
        for packet_kb in (50, 100, 200, 400):
            objectives = []
            for seed in range(20):
                scenario = generate_scenario(make_config(
                    "paper", seed, uav_count=5, info_count=2, horizon=60,
                    channels=2, area_side=150.0, speed=4.0,
                    gather_radius=45.0, max_range=55.0,
                    destinations_per_info=(1, 2),
                    packet_bits=packet_kb * 8000))
                report = greedy_plan(build(scenario), scenario.infos,
                                     HeuristicKind("mpf"))
                if report.status == "FEASIBLE":
                    objectives.append(report.objective)
            assert len(objectives) >= 10
            means.append(sum(objectives) / len(objectives))
        assert all(a < b for a, b in zip(means, means[1:]))
        assert means[3] / means[1] > 4.0


def test_criterion_6_bandwidth_trend():
    with criterion(6, "mean objective nonincreasing in channel bandwidth"):
        means = []
        for mhz in (20, 40, 80):
            objectives = []
            for seed in range(20):
                scenario = generate_scenario(make_config(
                    "paper", seed, uav_count=5, info_count=2, horizon=60,
                    channels=2, area_side=150.0, speed=4.0,
                    gather_radius=45.0, max_range=55.0,
                    destinations_per_info=(1, 2), bandwidth_hz=mhz * 1e6))
                report = greedy_plan(build(scenario), scenario.infos,
                                     HeuristicKind("mpf"))
                if report.status == "FEASIBLE":
                    objectives.append(report.objective)
            assert len(objectives) >= 10
            means.append(sum(objectives) / len(objectives))
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_criterion_7_fleet_size_trend():
    with criterion(7, "larger fleets serve the same demand at lower mean "
                      "energy (8 vs 4 UAVs)"):
        def mean_for(uavs):
            objectives = []
            for seed in range(20):
                try:
                    scenario = generate_scenario(make_config(
                        "paper", seed, uav_count=uavs, info_count=2,
                        horizon=60, channels=2, area_side=150.0, speed=4.0,
                        gather_radius=45.0, max_range=55.0,
                        destinations_per_info=(2, 2)))
                except GenerationError:
                    continue
                report = greedy_plan(build(scenario), scenario.infos,
                                     HeuristicKind("mpf"))
                if report.status == "FEASIBLE":
                    objectives.append(report.objective)
            assert len(objectives) >= 10
            return sum(objectives) / len(objectives)

        assert mean_for(8) <= mean_for(4)


def test_criterion_8_radio_round_trip():
    with criterion(8, "rate/power inversion within 1e-9 over 10^4 samples "
                      "plus the worked 60 W figure"):
        params = instances.PAPER_RADIO
        assert abs(required_power(params, 10.0, 1.6e8) - 60.0) / 60.0 <= 1e-9
        rng = random.Random(20260809)
        for _ in range(10_000):
            distance = rng.uniform(0.1, 1000.0)
            rate = rng.uniform(0.0, 40.0) * params.bandwidth_hz
            power = required_power(params, distance, rate)
            back = transmission_rate(params, power, distance)
            assert abs(back - rate) / max(rate, 1.0) <= 1e-9


def test_criterion_9_lp_export():
    with criterion(9, "micro-set LP exports lint clean with hand-derived "
                      "variable and constraint counts"):
        for seed, graph in micro_instances(20):
            text = export_lp(graph)
            problems = lint_lp(text)
            assert problems == [], (seed, problems[:3])
            lines = text.splitlines()
            names = []
            for line in lines[lines.index("Binaries") + 1:lines.index("Bounds")]:
                names.extend(line.split())
            assert len(names) == oracles.lp_variable_count(graph, graph.infos)
            rows = lines[lines.index("Subject To") + 1:lines.index("Binaries")]
            assert len(rows) == oracles.lp_constraint_count(graph, graph.infos)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "scenario, report, and plan files byte-identical "
                       "across reruns"):
        scenario_paths = []
        for k in range(2):
            path = tmp_path / f"scenario{k}.json"
            # seed 41 produces a scenario whose optimal plan moves real data
            assert cli_main(["gen", "--profile", "micro", "--seed", "41",
                             "--out", str(path)]) == 0
            scenario_paths.append(path)
        assert scenario_paths[0].read_bytes() == scenario_paths[1].read_bytes()

        for method, seed_args in [("exact", []), ("mpf", []), ("lpf", []),
                                  ("muf", []), ("r", ["--seed", "11"])]:
            outputs = []
            for k in range(2):
                out = tmp_path / f"report-{method}-{k}.json"
                code = cli_main(["solve", str(scenario_paths[0]),
                                 "--method", method, "--out", str(out)]
                                + seed_args)
                assert code in (0, 2)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], method
