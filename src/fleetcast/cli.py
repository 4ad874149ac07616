"""Command-line experiment harness: generate, solve, compare, sweep.

Exit codes: 0 success, 1 usage or input error, 2 infeasible or timed-out
solve, 3 internal error. Objectives are stored in joules everywhere; the
--unit flag only scales what gets printed. Report files are byte-identical
across reruns of the same (scenario, method, seed) triple; CSVs additionally
carry measured runtimes.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import click

from .errors import FleetcastError, InternalError
from .exact import SearchBudget, solve_exact
from .gen import PROFILES, generate_scenario, make_config
from .graph import augment, build_time_expanded_graph
from .heuristic import HeuristicKind, greedy_plan
from .lp import export_lp, lint_lp
from .report import HEURISTIC_KINDS, METHOD_EXACT, RANDOM_KIND, save_report
from .scenario import load_scenario, save_scenario

METHODS = (METHOD_EXACT, *HEURISTIC_KINDS)
UNIT_FACTORS = {"J": 1.0, "mJ": 1e3, "uJ": 1e6, "nJ": 1e9}

COMPARE_CSV_HEADER = "# format: fleetcast-compare-csv/1 (objectives in joules)"
SWEEP_CSV_HEADER = "# format: fleetcast-sweep-csv/1 (objectives in joules)"


@dataclass
class ExperimentRow:
    """One (instance, method) outcome in a comparison table."""
    instance: str
    uavs: int
    infos: int
    horizon: int
    method: str
    status: str
    objective: float | None
    deviation_pct: float | None
    runtime_ms: float


def _out_dir() -> Path:
    return Path(os.environ.get("FLEETCAST_OUT_DIR", "."))


def _resolve_out(out, default_name) -> Path:
    if out is not None:
        return Path(out)
    base = _out_dir()
    base.mkdir(parents=True, exist_ok=True)
    return base / default_name


def _parse_seeds(spec: str) -> list[int]:
    seeds = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo, hi = chunk.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(chunk))
    if not seeds:
        raise click.UsageError(f"no seeds in {spec!r}")
    return seeds


def _gen_options(fn):
    options = [
        click.option("--uavs", "uav_count", type=int, default=None,
                     help="Fleet size."),
        click.option("--infos", "info_count", type=int, default=None,
                     help="Number of informations to disseminate."),
        click.option("--horizon", "-T", "horizon", type=int, default=None,
                     help="Number of time units."),
        click.option("--channels", type=int, default=None,
                     help="Channel budget per time unit."),
        click.option("--area", "area_side", type=float, default=None,
                     help="Side of the square operating area (m)."),
        click.option("--speed", type=float, default=None,
                     help="Max UAV displacement per time unit (m)."),
        click.option("--gather-radius", type=float, default=None,
                     help="Pickup radius around an information's location (m)."),
        click.option("--subranges", "subrange_count", type=int, default=None,
                     help="Number of nested power subranges."),
        click.option("--max-range", type=float, default=None,
                     help="Outermost communication radius (m)."),
        click.option("--dest-min", type=int, default=None,
                     help="Min destination UAVs per information."),
        click.option("--dest-max", type=int, default=None,
                     help="Max destination UAVs per information."),
        click.option("--packet-kb", type=float, default=None,
                     help="Packet size in KB (1 KB = 1000 bytes)."),
        click.option("--bandwidth-mhz", type=float, default=None,
                     help="Channel bandwidth in MHz."),
        click.option("--alpha", type=float, default=None,
                     help="Path-loss exponent."),
        click.option("--noise-density", type=float, default=None,
                     help="Noise spectral density (W/Hz)."),
        click.option("--slot-seconds", type=float, default=None,
                     help="Length of one time unit (s)."),
        click.option("--cache", "cache_capacity",
                     type=click.Choice(["single", "unlimited"]), default=None,
                     help="How many informations a UAV may cache across a step."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _config_overrides(params: dict) -> dict:
    overrides = {}
    direct = ("uav_count", "info_count", "horizon", "channels", "area_side",
              "speed", "gather_radius", "subrange_count", "max_range",
              "cache_capacity")
    for key in direct:
        if params.get(key) is not None:
            overrides[key] = params[key]
    if params.get("dest_min") is not None or params.get("dest_max") is not None:
        lo = params.get("dest_min") or 1
        hi = params.get("dest_max") or max(lo, 1)
        overrides["destinations_per_info"] = (lo, hi)
    if params.get("packet_kb") is not None:
        overrides["packet_bits"] = int(round(params["packet_kb"] * 8000))
    if params.get("bandwidth_mhz") is not None:
        overrides["bandwidth_hz"] = params["bandwidth_mhz"] * 1e6
    if params.get("alpha") is not None:
        overrides["path_loss_exponent"] = params["alpha"]
    if params.get("noise_density") is not None:
        overrides["noise_density"] = params["noise_density"]
    if params.get("slot_seconds") is not None:
        overrides["slot_seconds"] = params["slot_seconds"]
    return overrides


def _build_graph(scenario):
    return augment(build_time_expanded_graph(scenario), scenario.infos)


def _run_method(graph, method, r_seed, budget_nodes, budget_seconds,
                max_restarts):
    if method == METHOD_EXACT:
        budget = SearchBudget(max_nodes=budget_nodes,
                              time_limit_seconds=budget_seconds)
        return solve_exact(graph, graph.infos, budget)
    kind = HeuristicKind(method, r_seed if method == RANDOM_KIND else None)
    return greedy_plan(graph, graph.infos, kind, max_restarts)


def _solve_scenario_file(task):
    path, method, r_seed, budget_nodes, budget_seconds, max_restarts = task
    scenario = load_scenario(path)
    graph = _build_graph(scenario)
    report = _run_method(graph, method, r_seed, budget_nodes, budget_seconds,
                         max_restarts)
    return {
        "instance": Path(path).stem,
        "uavs": scenario.uav_count,
        "infos": len(scenario.infos),
        "horizon": scenario.horizon,
        "method": method,
        "status": report.status,
        "objective": report.objective,
        "runtime_ms": report.runtime_ms,
    }


def _solve_generated(task):
    (profile, seed, overrides, method, r_seed, budget_nodes, budget_seconds,
     max_restarts) = task
    config = make_config(profile, seed, **overrides)
    scenario = generate_scenario(config)
    graph = _build_graph(scenario)
    report = _run_method(graph, method, r_seed, budget_nodes, budget_seconds,
                         max_restarts)
    return {"seed": seed, "status": report.status,
            "objective": report.objective, "runtime_ms": report.runtime_ms}


def _map_tasks(worker, tasks, jobs):
    if jobs <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


@click.group()
def cli():
    """Minimum-energy dissemination planning for mobile UAV fleets."""


@cli.command("gen")
@click.option("--profile", type=click.Choice(sorted(PROFILES)), default="paper",
              show_default=True, help="Base parameter profile.")
@click.option("--seed", type=int, required=True, help="Generator seed.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Scenario file to write.")
@_gen_options
def cmd_gen(profile, seed, out, **params):
    """Generate a seeded scenario file."""
    try:
        config = make_config(profile, seed, **_config_overrides(params))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    scenario = generate_scenario(config, extra_provenance={"profile": profile})
    path = _resolve_out(out, f"scenario-{profile}-s{seed}.json")
    save_scenario(scenario, path)
    click.echo(f"wrote {path} (|U|={scenario.uav_count} |I|={len(scenario.infos)} "
               f"T={scenario.horizon})")


@cli.command("solve")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(METHODS), required=True)
@click.option("--seed", "r_seed", type=int, default=0, show_default=True,
              help="Shuffle seed for the random ordering.")
@click.option("--budget-nodes", type=int, default=5_000_000, show_default=True)
@click.option("--budget-seconds", type=float, default=300.0, show_default=True)
@click.option("--max-restarts", type=int, default=None,
              help="Greedy restart cap (default: one per information).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Report file to write.")
@click.option("--unit", type=click.Choice(sorted(UNIT_FACTORS)), default="J",
              show_default=True, help="Display unit for the objective.")
@click.pass_context
def cmd_solve(ctx, scenario_file, method, r_seed, budget_nodes, budget_seconds,
              max_restarts, out, unit):
    """Solve a scenario with one method and write a report file."""
    scenario = load_scenario(scenario_file)
    graph = _build_graph(scenario)
    report = _run_method(graph, method, r_seed, budget_nodes, budget_seconds,
                         max_restarts)
    stem = Path(scenario_file).stem
    path = _resolve_out(out, f"report-{method}-{stem}.json")
    save_report(graph, report, path)
    if report.objective is None:
        shown = "-"
    else:
        shown = f"{report.objective * UNIT_FACTORS[unit]:.6g} {unit}"
    click.echo(f"method={report.method} status={report.status} "
               f"objective={shown} runtime={report.runtime_ms:.2f}ms "
               f"report={path}")
    if not report.solved:
        ctx.exit(2)


@cli.command("lp")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="LP file to write.")
@click.option("--max-variables", type=int, default=500_000, show_default=True)
def cmd_lp(scenario_file, out, max_variables):
    """Export the instance as a solver-neutral LP document."""
    scenario = load_scenario(scenario_file)
    graph = _build_graph(scenario)
    text = export_lp(graph, max_variables=max_variables)
    problems = lint_lp(text)
    if problems:
        raise InternalError("exported LP failed its own lint: " + problems[0])
    path = _resolve_out(out, f"{Path(scenario_file).stem}.lp")
    Path(path).write_text(text, encoding="utf-8")
    n_lines = text.count("\n")   # every line of the export ends in "\n"
    click.echo(f"wrote {path} ({n_lines} lines)")


@cli.command("compare")
@click.argument("scenario_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--methods", default="exact,mpf,lpf,muf,r", show_default=True,
              help="Comma-separated method list.")
@click.option("--seed", "r_seed", type=int, default=0, show_default=True)
@click.option("--budget-nodes", type=int, default=5_000_000, show_default=True)
@click.option("--budget-seconds", type=float, default=300.0, show_default=True)
@click.option("--max-restarts", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV file to write.")
@click.option("--markdown/--no-markdown", default=True, show_default=True,
              help="Also print a markdown table.")
def cmd_compare(scenario_files, methods, r_seed, budget_nodes, budget_seconds,
                max_restarts, jobs, out, markdown):
    """Run several methods over a scenario set and tabulate the results."""
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    for m in method_list:
        if m not in METHODS:
            raise click.UsageError(f"unknown method {m!r}; "
                                   f"expected one of {METHODS}")
    if not method_list:
        raise click.UsageError("no methods given")

    tasks = [(path, method, r_seed, budget_nodes, budget_seconds, max_restarts)
             for path in scenario_files for method in method_list]
    results = _map_tasks(_solve_scenario_file, tasks, jobs)

    exact_optimal = {
        r["instance"]: r["objective"] for r in results
        if r["method"] == METHOD_EXACT and r["status"] == "OPTIMAL"}
    rows = []
    for r in sorted(results, key=lambda r: (r["instance"],
                                            method_list.index(r["method"]))):
        deviation = None
        best = exact_optimal.get(r["instance"])
        if (r["method"] != METHOD_EXACT and best is not None
                and r["objective"] is not None and best > 0):
            deviation = (r["objective"] - best) / best * 100.0
        elif (r["method"] != METHOD_EXACT and best == 0.0
              and r["objective"] == 0.0):
            deviation = 0.0
        rows.append(ExperimentRow(
            instance=r["instance"], uavs=r["uavs"], infos=r["infos"],
            horizon=r["horizon"], method=r["method"], status=r["status"],
            objective=r["objective"], deviation_pct=deviation,
            runtime_ms=r["runtime_ms"]))
    rows.extend(_mean_rows(rows, method_list))

    path = _resolve_out(out, "compare.csv")
    _write_compare_csv(path, rows)
    click.echo(f"wrote {path}")
    if markdown:
        click.echo(_markdown_table(rows))


def _mean_rows(rows, method_list):
    means = []
    for method in method_list:
        subset = [r for r in rows if r.method == method]
        if not subset:
            continue
        objectives = [r.objective for r in subset if r.objective is not None]
        deviations = [r.deviation_pct for r in subset
                      if r.deviation_pct is not None]
        means.append(ExperimentRow(
            instance="mean", uavs=0, infos=0, horizon=0, method=method,
            status="",
            objective=sum(objectives) / len(objectives) if objectives else None,
            deviation_pct=(sum(deviations) / len(deviations)
                           if deviations else None),
            runtime_ms=sum(r.runtime_ms for r in subset) / len(subset)))
    return means


def _write_compare_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(COMPARE_CSV_HEADER + "\n")
        writer = csv.writer(handle)
        writer.writerow(["instance", "uavs", "infos", "horizon", "method",
                         "status", "objective_joules", "deviation_pct",
                         "runtime_ms"])
        for r in rows:
            writer.writerow([
                r.instance, r.uavs, r.infos, r.horizon, r.method, r.status,
                "" if r.objective is None else repr(r.objective),
                "" if r.deviation_pct is None else repr(r.deviation_pct),
                repr(r.runtime_ms)])


def _markdown_table(rows):
    header = ("| instance | method | status | objective (J) | deviation "
              "| time (ms) |\n|---|---|---|---|---|---|")
    lines = [header]
    for r in rows:
        objective = "-" if r.objective is None else f"{r.objective:.4f}"
        deviation = ("-" if r.deviation_pct is None
                     else f"{r.deviation_pct:.2f}%")
        lines.append(f"| {r.instance} | {r.method} | {r.status or '-'} "
                     f"| {objective} | {deviation} | {r.runtime_ms:.2f} |")
    return "\n".join(lines)


@cli.command("sweep")
@click.option("--variable", required=True,
              type=click.Choice(["packet_size", "bandwidth", "uav_count",
                                 "info_count"]))
@click.option("--values", required=True,
              help="Comma-separated sweep values (KB, MHz, or counts).")
@click.option("--seeds", required=True,
              help="Seeds, e.g. '0-19' or '1,2,5'.")
@click.option("--method", type=click.Choice(METHODS), default="mpf",
              show_default=True)
@click.option("--profile", type=click.Choice(sorted(PROFILES)),
              default="paper", show_default=True)
@click.option("--seed", "r_seed", type=int, default=0, show_default=True)
@click.option("--budget-nodes", type=int, default=5_000_000, show_default=True)
@click.option("--budget-seconds", type=float, default=300.0, show_default=True)
@click.option("--max-restarts", type=int, default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_gen_options
def cmd_sweep(variable, values, seeds, method, profile, r_seed, budget_nodes,
              budget_seconds, max_restarts, jobs, out, **params):
    """Sweep one variable over seeded instances; emit mean objectives."""
    try:
        value_list = [float(v) for v in values.split(",") if v.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --values: {exc}") from None
    if not value_list:
        raise click.UsageError("no sweep values given")
    seed_list = _parse_seeds(seeds)
    base_overrides = _config_overrides(params)

    tasks = []
    for value in value_list:
        overrides = dict(base_overrides)
        if variable == "packet_size":
            overrides["packet_bits"] = int(round(value * 8000))
        elif variable == "bandwidth":
            overrides["bandwidth_hz"] = value * 1e6
        elif variable == "uav_count":
            overrides["uav_count"] = int(value)
        else:
            overrides["info_count"] = int(value)
        for seed in seed_list:
            try:
                make_config(profile, seed, **overrides)
            except ValueError as exc:
                raise click.UsageError(str(exc)) from None
            tasks.append((profile, seed, overrides, method, r_seed,
                          budget_nodes, budget_seconds, max_restarts))
    results = _map_tasks(_solve_generated, tasks, jobs)

    path = _resolve_out(out, f"sweep-{variable}.csv")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(SWEEP_CSV_HEADER + "\n")
        writer = csv.writer(handle)
        writer.writerow(["variable", "value", "method",
                         "mean_objective_joules", "solved", "seeds"])
        for k, value in enumerate(value_list):
            chunk = results[k * len(seed_list):(k + 1) * len(seed_list)]
            solved = [r["objective"] for r in chunk
                      if r["objective"] is not None]
            mean = sum(solved) / len(solved) if solved else ""
            writer.writerow([variable, value, method,
                             repr(mean) if solved else "",
                             len(solved), len(seed_list)])
    click.echo(f"wrote {path}")


def main(argv=None) -> int:
    try:
        result = cli.main(args=argv, prog_name="fleetcast",
                          standalone_mode=False)
        return result if isinstance(result, int) else 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except InternalError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 3
    except FleetcastError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        click.echo(f"internal error: {exc!r}", err=True)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
