"""The benchmark's workloads, their pinned instances and correctness gates.

A workload sets up its inputs, then hands the runner groups of operations.
Groups run in an order shuffled by the run seed; operations inside a group
run in order, because later ones read what earlier ones wrote. Every
operation has a timed `run` and an untimed `check`. The first time an
operation is checked in a run, `check` verifies everything it can (plan
feasibility, cost, pinned statuses and objectives, LP lint, canonical bytes);
afterwards it verifies the pins and exit codes and returns the digest of the
operation's outputs, which the runner compares with the first round's, so a
later round passes only with byte-identical outputs.

Each workload has a primary instance set and a held-out set (`--held-out`)
for confirming a claimed gain on inputs it was not tuned on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An operation's output broke a correctness or determinism gate."""


@dataclass(frozen=True)
class Outcome:
    solved: bool       # ended FEASIBLE or OPTIMAL
    energy: float      # objective in joules, 0.0 when not solved
    digest: str        # sha256 of the operation's outputs


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, bool], Outcome]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _expect(what: str, found, wanted) -> None:
    if found != wanted:
        raise CheckFailed(f"{what}: expected {wanted!r}, found {found!r}")


def _check_report(fc, graph, report, status, objective, full: bool) -> Outcome:
    """Pinned status and objective, and with `full` a checked, costed plan."""
    _expect("status", report.status, status)
    _expect("objective", report.objective, objective)
    if full and report.plan is not None:
        verdict = fc.check_feasibility(graph, report.plan)
        if not verdict.feasible:
            raise CheckFailed("plan fails the feasibility checker: "
                              + verdict.violations[0].message)
        _expect("plan_cost", fc.plan_cost(graph, report.plan), report.objective)
    canonical = fc.jsonio.canonical_dumps(fc.report.report_to_dict(graph, report))
    return Outcome(report.solved, report.objective or 0.0,
                   _sha(canonical.encode("utf-8")))


def _build(fc, scenario):
    return fc.augment(fc.build_time_expanded_graph(scenario), scenario.infos)


class FleetGreedy:
    """One large scenario solved along `fleetcast solve`'s path, mpf and muf.

    The solve loads the scenario file, builds and augments the graph, runs
    the greedy planner (whose result the planner itself checks and costs) and
    saves the report, exactly as `fleetcast solve` does.
    """

    name = "fleet-greedy"
    # gen seed -> {method: pinned objective}; every solve ends FEASIBLE
    PINS = {1: {"mpf": 3.0240000000000005, "muf": 3.0240000000000005}}
    HELD_OUT_PINS = {2: {"mpf": 2.3760000000000003, "muf": 2.3760000000000003}}

    def __init__(self, held_out: bool):
        [(self.gen_seed, self.pins)] = (self.HELD_OUT_PINS if held_out
                                        else self.PINS).items()

    def instances(self):
        return {"gen_seed": self.gen_seed, "methods": sorted(self.pins)}

    def setup(self, fc, work: Path) -> str:
        config = fc.make_config("paper", self.gen_seed, uav_count=30,
                                info_count=20, horizon=500, channels=2,
                                area_side=250.0)
        self.scenario_path = work / "fleet.json"
        fc.save_scenario(fc.generate_scenario(config), self.scenario_path)
        return _sha(self.scenario_path.read_bytes())

    def groups(self, fc, work: Path):
        return [[self._solve_op(fc, work, method)] for method in sorted(self.pins)]

    def _solve_op(self, fc, work, method):
        report_path = work / f"report-{method}.json"

        def run():
            scenario = fc.load_scenario(self.scenario_path)
            graph = _build(fc, scenario)
            report = fc.greedy_plan(graph, graph.infos, fc.HeuristicKind(method))
            fc.save_report(graph, report, report_path)
            return graph, report

        def check(result, full):
            graph, report = result
            outcome = _check_report(fc, graph, report, "FEASIBLE",
                                    self.pins[method], full)
            _expect("report file digest", _sha(report_path.read_bytes()),
                    outcome.digest)
            return outcome

        return Op(f"solve-{method}", run, check)


class ExactBnb:
    """`solve_exact` with its default warm start on comparison-set instances.

    Every instance runs under a node budget and a wall-clock limit far above
    its running time, so the search repeats exactly.
    """

    name = "exact-bnb"
    TIME_LIMIT_S = 600.0
    # (seed, node budget, pinned status, pinned objective)
    PINS = ((9, 5_000_000, "OPTIMAL", 18.513),
            (11, 10_000, "TIMEOUT_NO_SOLUTION", None))
    HELD_OUT_PINS = ((37, 5_000_000, "OPTIMAL", 23.232000000000003),
                     (30, 50_000, "TIMEOUT_NO_SOLUTION", None))

    def __init__(self, held_out: bool):
        self.pins = self.HELD_OUT_PINS if held_out else self.PINS

    def instances(self):
        return [{"seed": s, "max_nodes": n} for s, n, _, _ in self.pins]

    @staticmethod
    def config(fc, seed):
        """The comparison-set configuration of the acceptance tests."""
        return fc.make_config(
            "paper", seed, uav_count=4 + seed % 2,
            horizon=20 if seed % 2 else 40, info_count=2, channels=1,
            area_side=180.0, speed=4.0, gather_radius=45.0, max_range=55.0,
            destinations_per_info=(1, 2))

    def setup(self, fc, work: Path) -> str:
        self.scenarios = {seed: fc.generate_scenario(self.config(fc, seed))
                          for seed, _, _, _ in self.pins}
        return _sha("".join(
            fc.jsonio.canonical_dumps(fc.scenario.scenario_to_dict(s))
            for _, s in sorted(self.scenarios.items())).encode("utf-8"))

    def groups(self, fc, work: Path):
        return [[self._solve_op(fc, *pin)] for pin in self.pins]

    def _solve_op(self, fc, seed, max_nodes, status, objective):
        scenario = self.scenarios[seed]
        budget = fc.SearchBudget(max_nodes=max_nodes,
                                 time_limit_seconds=self.TIME_LIMIT_S)

        def run():
            graph = _build(fc, scenario)
            return graph, fc.solve_exact(graph, budget=budget)

        def check(result, full):
            graph, report = result
            return _check_report(fc, graph, report, status, objective, full)

        return Op(f"exact-s{seed}", run, check)


class CliPipeline:
    """`paper`-profile scenarios through the in-process CLI entry point.

    Per scenario: `gen`, `solve --method mpf`, `solve --method muf`, `lp`,
    with every file written to the run's own work directory.
    """

    name = "cli-pipeline"
    # scenario seed -> (mpf objective, muf objective); every solve ends FEASIBLE
    PINS = {
        1: (0.0, 0.0), 2: (2.1600000000000006, 2.1600000000000006),
        3: (0.0, 0.0), 4: (0.8640000000000001, 0.8640000000000001),
        5: (0.0, 0.0), 6: (0.21600000000000003, 0.21600000000000003),
        7: (0.8640000000000001, 0.8640000000000001),
        8: (3.6720000000000006, 3.6720000000000006), 9: (0.0, 0.0),
        10: (2.16, 2.16), 11: (0.0, 0.0), 12: (0.0, 0.0),
        13: (0.43200000000000005, 0.43200000000000005),
        14: (0.21600000000000003, 0.21600000000000003), 15: (0.0, 0.0),
        16: (0.0, 0.0), 17: (0.21600000000000003, 0.21600000000000003),
        18: (1.7280000000000002, 0.8640000000000001),
        19: (0.8640000000000001, 0.8640000000000001),
        20: (1.2960000000000003, 1.2960000000000003), 21: (0.0, 0.0),
        22: (0.43200000000000005, 0.43200000000000005),
        23: (2.3760000000000003, 1.2960000000000003),
        24: (3.4560000000000004, 3.4560000000000004), 25: (0.0, 0.0),
    }
    HELD_OUT_PINS = {
        101: (0.0, 0.0), 102: (1.08, 1.08), 103: (0.0, 0.0), 104: (0.0, 0.0),
        105: (0.0, 0.0), 106: (0.0, 0.0),
        107: (4.104000000000001, 4.104000000000001),
        108: (0.8640000000000001, 0.8640000000000001),
        109: (0.21600000000000003, 0.21600000000000003),
        110: (0.21600000000000003, 0.21600000000000003),
        111: (0.21600000000000003, 0.21600000000000003), 112: (0.0, 0.0),
        113: (0.0, 0.0), 114: (0.21600000000000003, 0.21600000000000003),
        115: (0.0, 0.0), 116: (0.0, 0.0), 117: (0.0, 0.0),
        118: (0.21600000000000003, 0.21600000000000003), 119: (0.0, 0.0),
        120: (0.0, 0.0), 121: (0.21600000000000003, 0.21600000000000003),
        122: (0.21600000000000003, 0.21600000000000003),
        123: (0.8640000000000001, 0.8640000000000001),
        124: (10.800000000000002, 10.800000000000002),
        125: (0.8640000000000001, 0.8640000000000001),
    }

    def __init__(self, held_out: bool):
        self.pins = self.HELD_OUT_PINS if held_out else self.PINS

    def instances(self):
        seeds = sorted(self.pins)
        return {"profile": "paper", "seeds": f"{seeds[0]}-{seeds[-1]}"}

    def setup(self, fc, work: Path) -> str:
        return _sha(b"")  # `gen` is itself a timed operation

    def groups(self, fc, work: Path):
        return [self._scenario_ops(fc, work, seed) for seed in sorted(self.pins)]

    def _scenario_ops(self, fc, work, seed):
        scenario_path = work / f"s{seed}.json"
        lp_path = work / f"s{seed}.lp"

        def command(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fc.cli.main(argv)
            return code, err.getvalue()

        def expect_code(result, wanted):
            code, err = result
            if code != wanted:
                raise CheckFailed(f"exit code {code}, expected {wanted}: {err.strip()}")

        def check_gen(result, full):
            expect_code(result, 0)
            data = scenario_path.read_bytes()
            if full:
                config = fc.make_config("paper", seed)
                scenario = fc.generate_scenario(
                    config, extra_provenance={"profile": "paper"})
                canonical = fc.jsonio.canonical_dumps(
                    fc.scenario.scenario_to_dict(scenario))
                _expect("scenario file", data.decode("utf-8"), canonical)
            return Outcome(False, 0.0, _sha(data))

        def solve_op(method, objective):
            report_path = work / f"s{seed}-{method}.json"

            def check(result, full):
                expect_code(result, 0)
                data = report_path.read_bytes()
                if full:
                    graph = _build(fc, fc.load_scenario(scenario_path))
                    report = fc.load_report(graph, report_path)
                    outcome = _check_report(fc, graph, report, "FEASIBLE",
                                            objective, full)
                    _expect("report file digest", _sha(data), outcome.digest)
                return Outcome(True, objective, _sha(data))

            return Op(f"s{seed}-solve-{method}",
                      lambda: command(["solve", str(scenario_path), "--method",
                                       method, "--out", str(report_path)]),
                      check)

        def check_lp(result, full):
            expect_code(result, 0)
            data = lp_path.read_bytes()
            if full:
                problems = fc.lint_lp(data.decode("utf-8"))
                if problems:
                    raise CheckFailed(f"LP lint: {problems[0]}")
            return Outcome(False, 0.0, _sha(data))

        mpf, muf = self.pins[seed]
        return [
            Op(f"s{seed}-gen",
               lambda: command(["gen", "--profile", "paper", "--seed", str(seed),
                                "--out", str(scenario_path)]),
               check_gen),
            solve_op("mpf", mpf),
            solve_op("muf", muf),
            Op(f"s{seed}-lp",
               lambda: command(["lp", str(scenario_path), "--out", str(lp_path)]),
               check_lp),
        ]


WORKLOADS = {w.name: w for w in (FleetGreedy, ExactBnb, CliPipeline)}
