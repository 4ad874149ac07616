"""Solver reports and their versioned serialization.

Report files deliberately omit wall-clock timing so that repeated runs of the
same (scenario, method, seed) triple produce byte-identical documents; timing
lives on the in-memory report and in the comparison CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError
from .graph import AugmentedGraph
from .jsonio import read_json, write_json
from .plan import Plan, plan_from_dict, plan_to_dict

REPORT_FORMAT = "fleetcast-report/1"

STATUS_OPTIMAL = "OPTIMAL"
STATUS_FEASIBLE = "FEASIBLE"
STATUS_INFEASIBLE = "INFEASIBLE"
STATUS_INFEASIBLE_HEURISTIC = "INFEASIBLE_HEURISTIC"
STATUS_TIMEOUT = "TIMEOUT_NO_SOLUTION"

SOLVED_STATUSES = (STATUS_OPTIMAL, STATUS_FEASIBLE)


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


def report_to_dict(graph: AugmentedGraph, report: SolveReport) -> dict:
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


def save_report(graph: AugmentedGraph, report: SolveReport, path) -> None:
    write_json(path, report_to_dict(graph, report))


def load_report(graph: AugmentedGraph, path) -> SolveReport:
    doc = read_json(path, REPORT_FORMAT)
    missing = [key for key in ("method", "status", "objective_joules")
               if key not in doc]
    if missing:
        raise FormatError(f"{path}: report lacks {', '.join(missing)}")
    plan = doc.get("plan")
    return SolveReport(
        method=doc["method"],
        status=doc["status"],
        objective=doc["objective_joules"],
        plan=None if plan is None else plan_from_dict(graph, plan),
        nodes=doc.get("nodes"),
        restarts=doc.get("restarts"),
        seed=doc.get("seed"),
    )
