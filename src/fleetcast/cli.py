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
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import click

from .errors import FleetcastError, InternalError
from .exact import SearchBudget, solve_exact
from .gen import PROFILES, GenConfig, generate_scenario, make_config
from .graph import build_time_expanded_graph
from .heuristic import HeuristicKind, greedy_plan
from .lp import export_lp, lint_lp
from .report import HEURISTIC_KINDS, METHOD_EXACT, RANDOM_KIND, save_report
from .scenario import CACHE_CAPACITIES, load_scenario, save_scenario

METHODS = (METHOD_EXACT, *HEURISTIC_KINDS)
UNIT_FACTORS = {"J": 1.0, "mJ": 1e3, "uJ": 1e6, "nJ": 1e9}
MAX_SEEDS = 10 ** 5  # per --seeds, counted before a range is expanded
_INTEGER_RE = re.compile("-?[0-9]+")
_REAL_RE = re.compile("[-+]?(?:(?:[0-9]+[.]?[0-9]*|[.][0-9]+)(?:[eE][-+]?[0-9]+)?"
                      "|[iI][nN][fF])")

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


def _resolve_out(out, default_name) -> Path:
    """The file to write: `out`, whose directory must exist, or `default_name`
    in $FLEETCAST_OUT_DIR (made if missing). Commands call it before their
    work, so that a bad `--out` costs no solve."""
    if out is not None:
        path = Path(out)
        if not path.parent.is_dir():
            raise click.UsageError(
                f"--out {out}: directory {path.parent} does not exist")
        return path
    base = Path(os.environ.get("FLEETCAST_OUT_DIR", "."))
    base.mkdir(parents=True, exist_ok=True)
    return base / default_name


def _integer(text: str) -> int:
    """`text` read as an optional leading `-` and ASCII digits, the one rule
    for every integer on the command line; ValueError for anything else,
    such as `1_0`, ` 3` or `٣`, which `int()` alone would take."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _real(text: str) -> float:
    """`text` read as an optional sign, then ASCII digits with an optional
    fraction and exponent, or `inf` in any case: the one rule for every
    float on the command line; ValueError for anything else, such as `5_5`,
    ` 6`, `٥٥` or `nan`, which `float()` alone would take."""
    if not _REAL_RE.fullmatch(text):
        raise ValueError(f"{text!r} is not a number")
    return float(text)


class _Strict:
    """Mixin reading a click number type's string values with `read`, and
    naming its `rule` when one does not follow it."""

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            try:
                value = self.read(value)
            except ValueError as exc:
                self.fail(f"{exc} ({self.rule})", param, ctx)
        return super().convert(value, param, ctx)


class _Integer(_Strict):
    read = staticmethod(_integer)
    rule = "an optional '-' and the digits 0-9"


class _Real(_Strict):
    read = staticmethod(_real)
    rule = ("an optional sign, then the digits 0-9 with an optional fraction "
            "and exponent, or inf")


class _Int(_Integer, click.types.IntParamType):
    pass


class _IntRange(_Integer, click.IntRange):
    pass


class _Float(_Real, click.types.FloatParamType):
    pass


class _FloatRange(_Real, click.FloatRange):
    pass


_INT = _Int()
_FLOAT = _Float()


def _parse_seeds(spec: str) -> list[int]:
    seeds = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        dash = chunk.find("-", 1)   # a leading "-" is a sign: "-3--1"
        lo, hi = (chunk[:dash], chunk[dash + 1:]) if dash > 0 else (chunk, chunk)
        try:
            lo, hi = _integer(lo), _integer(hi)
        except ValueError:
            raise click.UsageError(f"bad seed {chunk!r} in --seeds") from None
        if hi < lo:
            raise click.UsageError(f"reversed range {chunk!r} in --seeds")
        if hi - lo >= MAX_SEEDS - len(seeds):
            raise click.UsageError(f"--seeds names more than {MAX_SEEDS} seeds")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise click.UsageError(f"no seeds in {spec!r}")
    return seeds


def _options(*options):
    """One decorator applying click options in the order listed."""
    def apply(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return apply


#: Each generator flag: its GenConfig or radio field, click type, conversion
#: from the flag's unit to the field's (or None), and help text. The two
#: destination bounds are the ends of `destinations_per_info`.
GEN_FLAGS = {
    "--uavs": ("uav_count", _INT, None, "Fleet size."),
    "--infos": ("info_count", _INT, None,
                "Number of informations to disseminate."),
    "--horizon": ("horizon", _INT, None, "Number of time units."),
    "--channels": ("channels", _INT, None,
                   "Channel budget per time unit."),
    "--area": ("area_side", _FLOAT, None,
               "Side of the square operating area (m)."),
    "--speed": ("speed", _FLOAT, None,
                "Max UAV displacement per time unit (m)."),
    "--gather-radius": ("gather_radius", _FLOAT, None,
                        "Pickup radius around an information's location (m)."),
    "--subranges": ("subrange_count", _INT, None,
                    "Number of nested power subranges."),
    "--max-range": ("max_range", _FLOAT, None,
                    "Outermost communication radius (m)."),
    "--dest-min": ("dest_min", _INT, None,
                   "Min destination UAVs per information."),
    "--dest-max": ("dest_max", _INT, None,
                   "Max destination UAVs per information."),
    "--packet-kb": ("packet_bits", _FLOAT, lambda kb: int(round(kb * 8000)),
                    "Packet size in KB (1 KB = 1000 bytes)."),
    "--bandwidth-mhz": ("bandwidth_hz", _FLOAT, lambda mhz: mhz * 1e6,
                        "Channel bandwidth in MHz."),
    "--alpha": ("path_loss_exponent", _FLOAT, None, "Path-loss exponent."),
    "--noise-density": ("noise_density", _FLOAT, None,
                        "Noise spectral density (W/Hz)."),
    "--slot-seconds": ("slot_seconds", _FLOAT, None,
                       "Length of one time unit (s)."),
    "--cache": ("cache_capacity", click.Choice(CACHE_CAPACITIES), None,
                "How many informations a UAV may cache across a step."),
}

#: `sweep --variable` name -> the generator flag whose field it sweeps
SWEEP_FLAGS = {"packet_size": "--packet-kb", "bandwidth": "--bandwidth-mhz",
               "uav_count": "--uavs", "info_count": "--infos"}

_gen_options = _options(*(
    click.option(flag, *(("-T",) if flag == "--horizon" else ()), field,
                 type=kind, default=None, help=help_text)
    for flag, (field, kind, _, help_text) in GEN_FLAGS.items()))


_solver_options = _options(
    click.option("--seed", "r_seed", type=_INT, default=0, show_default=True,
                 help="Shuffle seed for the random ordering."),
    click.option("--budget-nodes", type=_IntRange(min=1),
                 default=5_000_000, show_default=True),
    click.option("--budget-seconds", type=_FloatRange(min=0, min_open=True),
                 default=300.0, show_default=True,
                 help="Wall-clock limit for exact; inf means none."),
    click.option("--max-restarts", type=_IntRange(min=0), default=None,
                 help="Greedy restart cap (default: one per information)."))

_jobs_option = click.option("--jobs", type=_IntRange(min=1), default=1,
                            show_default=True)


def _make_config(profile, seed, params: dict) -> GenConfig:
    """The config asked for by the flag values in `params`, keyed by field.
    An omitted destination bound is the profile's; a bad value is a usage error.
    """
    lo, hi = PROFILES[profile]["destinations_per_info"]
    fields = {"dest_min": lo, "dest_max": hi}
    where = ""
    try:
        for flag, (field, _, convert, _) in GEN_FLAGS.items():
            value = params.get(field)
            if value is not None:
                where = f"{flag} {value!r}: "
                fields[field] = value if convert is None else convert(value)
        where = ""
        fields["destinations_per_info"] = (fields.pop("dest_min"),
                                           fields.pop("dest_max"))
        return make_config(profile, seed, **fields)
    except (ValueError, OverflowError) as exc:
        raise click.UsageError(f"{where}{exc}") from None


def _solve(task):
    """Run one method on a scenario file or a generator config.

    Returns (scenario, graph, report).
    """
    source, method, r_seed, budget_nodes, budget_seconds, max_restarts = task
    scenario = (generate_scenario(source) if isinstance(source, GenConfig)
                else load_scenario(source))
    graph = build_time_expanded_graph(scenario)
    if method == METHOD_EXACT:
        budget = SearchBudget(max_nodes=budget_nodes,
                              time_limit_seconds=budget_seconds)
        report = solve_exact(graph, graph.infos, budget)
    else:
        kind = HeuristicKind(method, r_seed if method == RANDOM_KIND else None)
        report = greedy_plan(graph, graph.infos, kind, max_restarts)
    return scenario, graph, report


def _solve_row(task):
    """`_solve`'s report and the scenario's (U, |I|, T): what a table row
    reads. Top level and graph-free, so that `--jobs` can send it between
    processes cheaply.
    """
    scenario, _, report = _solve(task)
    return (scenario.uav_count, len(scenario.infos), scenario.horizon), report


def _solve_all(tasks, jobs):
    """`_solve_row` of each task, in order."""
    if jobs == 1:
        yield from map(_solve_row, tasks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(_solve_row, tasks)


@click.group()
def cli():
    """Minimum-energy dissemination planning for mobile UAV fleets."""


@cli.command("gen")
@click.option("--profile", type=click.Choice(sorted(PROFILES)), default="paper",
              show_default=True, help="Base parameter profile.")
@click.option("--seed", type=_INT, required=True, help="Generator seed.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Scenario file to write.")
@_gen_options
def cmd_gen(profile, seed, out, **params):
    """Generate a seeded scenario file."""
    config = _make_config(profile, seed, params)
    path = _resolve_out(out, f"scenario-{profile}-s{seed}.json")
    scenario = generate_scenario(config, extra_provenance={"profile": profile})
    save_scenario(scenario, path)
    click.echo(f"wrote {path} (|U|={scenario.uav_count} |I|={len(scenario.infos)} "
               f"T={scenario.horizon})")


@cli.command("solve")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(METHODS), required=True)
@_solver_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Report file to write.")
@click.option("--unit", type=click.Choice(sorted(UNIT_FACTORS)), default="J",
              show_default=True, help="Display unit for the objective.")
@click.pass_context
def cmd_solve(ctx, scenario_file, method, r_seed, budget_nodes, budget_seconds,
              max_restarts, out, unit):
    """Solve a scenario with one method and write a report file."""
    path = _resolve_out(out, f"report-{method}-{Path(scenario_file).stem}.json")
    _, graph, report = _solve((scenario_file, method, r_seed, budget_nodes,
                               budget_seconds, max_restarts))
    save_report(graph, report, path)
    shown = ("-" if report.objective is None
             else f"{report.objective * UNIT_FACTORS[unit]:.6g} {unit}")
    click.echo(f"method={report.method} status={report.status} "
               f"objective={shown} runtime={report.runtime_ms:.2f}ms "
               f"report={path}")
    if not report.solved:
        ctx.exit(2)


@cli.command("lp")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="LP file to write.")
@click.option("--max-variables", type=_INT, default=500_000, show_default=True)
def cmd_lp(scenario_file, out, max_variables):
    """Export the instance as a solver-neutral LP document."""
    path = _resolve_out(out, f"{Path(scenario_file).stem}.lp")
    scenario = load_scenario(scenario_file)
    graph = build_time_expanded_graph(scenario)
    text = export_lp(graph, max_variables=max_variables)
    problems = lint_lp(text)
    if problems:
        raise InternalError("exported LP failed its own lint: " + problems[0])
    Path(path).write_text(text, encoding="utf-8")
    n_lines = text.count("\n")   # every line of the export ends in "\n"
    click.echo(f"wrote {path} ({n_lines} lines)")


@cli.command("compare")
@click.argument("scenario_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--methods", default="exact,mpf,lpf,muf,r", show_default=True,
              help="Comma-separated method list.")
@_solver_options
@_jobs_option
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
    # rows are keyed by (file stem, method), so neither may repeat
    for m in method_list:
        if method_list.count(m) > 1:
            raise click.UsageError(f"method {m!r} is listed twice in --methods")
    stems = {}
    for path in scenario_files:
        stem = Path(path).stem
        if stem in stems:
            raise click.UsageError(
                f"scenario files {stems[stem]} and {path} share the stem "
                f"{stem!r}, which names their rows")
        stems[stem] = path
    csv_path = _resolve_out(out, "compare.csv")

    tasks = [(path, method, r_seed, budget_nodes, budget_seconds, max_restarts)
             for path in scenario_files for method in method_list]
    rows = [ExperimentRow(Path(path).stem, *counts, method, report.status,
                          report.objective, None, report.runtime_ms)
            for (counts, report), (path, method, *_)
            in zip(_solve_all(tasks, jobs), tasks)]
    rows.sort(key=lambda r: (r.instance, method_list.index(r.method)))

    exact_optimal = {r.instance: r.objective for r in rows
                     if r.method == METHOD_EXACT and r.status == "OPTIMAL"}
    for r in rows:
        best = exact_optimal.get(r.instance)
        if r.method == METHOD_EXACT or best is None or r.objective is None:
            continue
        if best > 0:
            r.deviation_pct = (r.objective - best) / best * 100.0
        elif r.objective == 0.0:
            r.deviation_pct = 0.0
    rows.extend(_mean_rows(rows, method_list))

    _write_compare_csv(csv_path, rows)
    click.echo(f"wrote {csv_path}")
    if markdown:
        click.echo(_markdown_table(rows))


def _mean(values):
    """The mean of the values that are not None, or None if there are none."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _mean_rows(rows, method_list):
    means = []
    for method in method_list:
        subset = [r for r in rows if r.method == method]
        if subset:
            means.append(ExperimentRow(
                "mean", 0, 0, 0, method, "",
                _mean(r.objective for r in subset),
                _mean(r.deviation_pct for r in subset),
                _mean(r.runtime_ms for r in subset)))
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
              type=click.Choice(list(SWEEP_FLAGS)))
@click.option("--values", required=True,
              help="Comma-separated sweep values (KB, MHz, or counts).")
@click.option("--seeds", required=True,
              help="Seeds, e.g. '0-19' or '1,2,5'.")
@click.option("--method", type=click.Choice(METHODS), default="mpf",
              show_default=True)
@click.option("--profile", type=click.Choice(sorted(PROFILES)),
              default="paper", show_default=True)
@_solver_options
@_jobs_option
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_gen_options
def cmd_sweep(variable, values, seeds, method, profile, r_seed, budget_nodes,
              budget_seconds, max_restarts, jobs, out, **params):
    """Sweep one variable over seeded instances; emit mean objectives."""
    field, kind, _, _ = GEN_FLAGS[SWEEP_FLAGS[variable]]
    value_list = [kind(v.strip()) for v in values.split(",") if v.strip()]
    if not value_list:
        raise click.UsageError("no sweep values given")
    seed_list = _parse_seeds(seeds)
    path = _resolve_out(out, f"sweep-{variable}.csv")
    tasks = [(_make_config(profile, seed, {**params, field: value}), method,
              r_seed, budget_nodes, budget_seconds, max_restarts)
             for value in value_list for seed in seed_list]
    objectives = [report.objective for _, report in _solve_all(tasks, jobs)]

    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(SWEEP_CSV_HEADER + "\n")
        writer = csv.writer(handle)
        writer.writerow(["variable", "value", "method",
                         "mean_objective_joules", "solved", "seeds"])
        for k, value in enumerate(value_list):
            chunk = objectives[k * len(seed_list):(k + 1) * len(seed_list)]
            mean = _mean(chunk)
            writer.writerow([variable, float(value), method,
                             "" if mean is None else repr(mean),
                             len(chunk) - chunk.count(None), len(seed_list)])
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
