"""Solver reports and their versioned serialization.

Report files deliberately omit wall-clock timing so that repeated runs of the
same (scenario, method, seed) triple produce byte-identical documents; timing
lives on the in-memory report and in the comparison CSVs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormatError
from .graph import TimeExpandedGraph
from .jsonio import check_int, check_number, read_json, write_json
from .plan import Plan, plan_cost, plan_from_dict, plan_to_dict

REPORT_FORMAT = "fleetcast-report/1"

STATUS_OPTIMAL = "OPTIMAL"
STATUS_FEASIBLE = "FEASIBLE"
STATUS_INFEASIBLE = "INFEASIBLE"
STATUS_INFEASIBLE_HEURISTIC = "INFEASIBLE_HEURISTIC"
STATUS_TIMEOUT = "TIMEOUT_NO_SOLUTION"

SOLVED_STATUSES = (STATUS_OPTIMAL, STATUS_FEASIBLE)
STATUSES = (STATUS_OPTIMAL, STATUS_FEASIBLE, STATUS_INFEASIBLE,
            STATUS_INFEASIBLE_HEURISTIC, STATUS_TIMEOUT)

# A method label is `exact`, a deterministic greedy ordering, or
# `r[<seed>]` for the random one.
METHOD_EXACT = "exact"
HEURISTIC_KINDS = ("mpf", "lpf", "muf", "r")
RANDOM_KIND = "r"       # the one heuristic kind that takes a seed

_METHOD_RE = re.compile("|".join(
    [METHOD_EXACT] + [k for k in HEURISTIC_KINDS if k != RANDOM_KIND]
    + [rf"{RANDOM_KIND}\[-?(?:0|[1-9][0-9]*)\]"]))


@dataclass
class SolveReport:
    method: str
    status: str
    objective: float | None
    plan: Plan | None
    runtime_ms: float = 0.0
    nodes: int | None = None
    restarts: int | None = None
    seed: int | None = None

    @property
    def solved(self) -> bool:
        return self.status in SOLVED_STATUSES


def report_to_dict(graph: TimeExpandedGraph, report: SolveReport) -> dict:
    doc = {
        "format": REPORT_FORMAT,
        "method": report.method,
        "status": report.status,
        "objective_joules": report.objective,
        "plan": None if report.plan is None else plan_to_dict(graph, report.plan),
    }
    if report.nodes is not None:
        doc["nodes"] = report.nodes
    if report.restarts is not None:
        doc["restarts"] = report.restarts
    if report.seed is not None:
        doc["seed"] = report.seed
    return doc


def save_report(graph: TimeExpandedGraph, report: SolveReport, path) -> None:
    write_json(path, report_to_dict(graph, report))


def load_report(graph: TimeExpandedGraph, path) -> SolveReport:
    doc = read_json(path, REPORT_FORMAT)
    missing = [key for key in ("method", "status", "objective_joules")
               if key not in doc]
    if missing:
        raise FormatError(f"{path}: report lacks {', '.join(missing)}")
    method, status = doc["method"], doc["status"]
    if not (isinstance(method, str) and _METHOD_RE.fullmatch(method)):
        raise FormatError(f"{path}: unknown method {method!r}")
    if not (isinstance(status, str) and status in STATUSES):
        raise FormatError(f"{path}: unknown status {status!r}")
    objective = doc["objective_joules"]
    if objective is not None:
        check_number(objective, f"{path}: objective_joules", FormatError)
    for key in ("nodes", "restarts"):
        if key in doc:
            check_int(doc[key], f"{path}: {key}", FormatError, low=0)
    if "seed" in doc:
        check_int(doc["seed"], f"{path}: seed", FormatError)
    # an `r[k]` report carries seed k, and no other report has a seed
    expected_seed = (int(method[len(RANDOM_KIND) + 1:-1])
                     if method.startswith(RANDOM_KIND + "[") else None)
    if doc.get("seed") != expected_seed:
        raise FormatError(f"{path}: seed {doc.get('seed')!r} does not match "
                          f"method {method!r}")
    plan = doc.get("plan")
    plan = None if plan is None else plan_from_dict(graph, plan)
    if status in SOLVED_STATUSES:
        if plan is None or objective is None:
            raise FormatError(f"{path}: a {status} report needs a plan and "
                              "an objective")
        cost = plan_cost(graph, plan)
        if objective != cost:
            raise FormatError(f"{path}: objective_joules {objective!r} is not "
                              f"the plan's cost {cost!r}")
    elif plan is not None or objective is not None:
        raise FormatError(f"{path}: a {status} report has no plan and no "
                          "objective, both must be null")
    return SolveReport(
        method=method,
        status=status,
        objective=objective,
        plan=plan,
        nodes=doc.get("nodes"),
        restarts=doc.get("restarts"),
        seed=doc.get("seed"),
    )
