"""Dissemination plans: activation sets, feasibility checking, and cost.

A plan activates, per piece of information, a set of graph edges
(connectivity or caching). Everything else — hub/transmit/delivery flags and
per-vertex cost — is derived from the activations on demand, so recomputing
is idempotent.

Feasibility rules, each reported under a stable constraint tag:

C2    a vertex received an information it neither forwards nor may deliver
C3    a non-source vertex forwards without exactly one incoming activation,
      or a non-destination vertex has more than one incoming activation
C4    a destination-group vertex has more than one incoming activation
C5    a destination group is never served, or holds competing dead-end
      deliveries
C6    an information's sources never send although transfer is required
C7    a vertex transmits more than one distinct information
C9    a time unit exceeds the channel budget
EDGE  an edge carries more than one information (caching edges are exempt
      when the scenario allows unlimited caching)
FLOW  an activated edge cannot be supplied from the information's sources

Hub flags (one incoming activation per forwarding vertex) and transmit flags
are definitional here: they are derived rather than free variables, so the
remaining formulation constraints cannot be violated independently.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from .errors import FormatError, PlanStructureError
from .graph import KIND_CACHING, KIND_CONNECTIVITY, KIND_NAMES, TimeExpandedGraph
from .jsonio import _int_key, _is_int, check_int, read_json, write_json
from .scenario import CACHE_SINGLE

PLAN_FORMAT = "fleetcast-plan/1"


@dataclass(frozen=True)
class Plan:
    """Per-information activation sets over edge indices.

    Info ids and edge indices must be integers; a bool, float or string
    raises `PlanStructureError` rather than being converted.
    """

    activations: dict

    def __post_init__(self):
        object.__setattr__(self, "activations", {
            check_int(info_id, "plan info id", PlanStructureError):
                frozenset(check_int(e, "plan edge index", PlanStructureError)
                          for e in edges)
            for info_id, edges in self.activations.items()})

    def lex_key(self):
        """Total order on plans used for reproducible tie-breaking."""
        return tuple(sorted(
            (info_id, e) for info_id, edges in self.activations.items()
            for e in edges))


@dataclass(frozen=True)
class Violation:
    constraint: str
    info: int | None
    subject: str
    message: str


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple

    def constraint_ids(self):
        return {v.constraint for v in self.violations}


def _validate_structure(graph: TimeExpandedGraph, plan: Plan):
    edge_count = len(graph.edge_kind)
    for info_id, edges in plan.activations.items():
        graph.info_by_id(info_id)
        for e in edges:
            if not 0 <= e < edge_count:
                raise PlanStructureError(
                    f"plan references edge index {e} outside the graph")


def check_feasibility(graph: TimeExpandedGraph, plan: Plan) -> FeasibilityReport:
    """Evaluate every feasibility rule; structural problems raise instead."""
    _validate_structure(graph, plan)
    tails, heads, kinds = graph.edge_tail, graph.edge_head, graph.edge_kind
    horizon = graph.horizon
    label = graph.vertex_label
    violations: list[Violation] = []

    def violate(constraint, info, subject, message):
        violations.append(Violation(constraint, info, subject, message))

    # one info per edge
    edge_users: dict[int, list[int]] = {}
    for info_id in sorted(plan.activations):
        for e in sorted(plan.activations[info_id]):
            edge_users.setdefault(e, []).append(info_id)
    for e in sorted(edge_users):
        owners = edge_users[e]
        if len(owners) < 2 or (kinds[e] == KIND_CACHING
                               and graph.cache_capacity != CACHE_SINGLE):
            continue
        violate("EDGE", None, f"edge {e}", f"edge {label(tails[e])}->"
                f"{label(heads[e])} carries infos {owners}")

    # one transmitted info per vertex, and the channel budget per time unit
    vertex_infos: dict[int, set[int]] = {}
    layer_active = [0] * horizon
    for info_id, edges in plan.activations.items():
        for e in edges:
            if kinds[e] == KIND_CONNECTIVITY:
                vertex_infos.setdefault(tails[e], set()).add(info_id)
                layer_active[tails[e] % horizon] += 1
    for v in sorted(vertex_infos):
        owners = vertex_infos[v]
        if len(owners) > 1:
            violate("C7", None, label(v), f"vertex {label(v)} transmits "
                    f"{len(owners)} infos: {sorted(owners)}")
    for t, active in enumerate(layer_active):
        if active > graph.channels:
            violate("C9", None, f"t={t}",
                    f"{active} connectivity edges active at time {t}, "
                    f"budget is {graph.channels}")

    for info_id in sorted(plan.activations):
        info = graph.info_by_id(info_id)
        destinations, sources = info.destinations, info.sources
        edges = plan.activations[info_id]
        in_cnt = Counter(map(heads.__getitem__, edges))
        out_cnt = Counter(map(tails.__getitem__, edges))
        # the source copies among the plan's own vertices, the only ones
        # the rules below test apart from the destination UAVs' (`_holds`)
        source_vertices = {v for v in in_cnt.keys() | out_cnt.keys()
                           if divmod(v, horizon) in sources}
        # a vertex's violations are emitted in rule order, and the final
        # sort orders distinct vertices by label, so vertices go unsorted
        for v, ins in in_cnt.items():
            if ins > 1:
                name = label(v)
                violate("C4" if v // horizon in destinations else "C3",
                        info_id, name, f"vertex {name} has {ins} incoming "
                        f"activations for info {info_id}")
                if v in out_cnt and v not in source_vertices:
                    violate("C3", info_id, name,
                            f"vertex {name} forwards info {info_id} with "
                            f"{ins} incoming activations instead of 1")
        for v in out_cnt.keys() - in_cnt.keys() - source_vertices:
            name = label(v)
            violate("C3", info_id, name, f"vertex {name} forwards info "
                    f"{info_id} with 0 incoming activations instead of 1")
        # single deliveries that go no further: a C2 violation off the
        # destination UAVs, a final delivery on them
        final_deliveries = Counter()
        for v in in_cnt.keys() - out_cnt.keys():
            if in_cnt[v] == 1:
                u = v // horizon
                if u in destinations:
                    final_deliveries[u] += 1
                else:
                    name = label(v)
                    violate("C2", info_id, name,
                            f"vertex {name} receives info {info_id} but "
                            f"neither forwards nor delivers it")

        # supply propagation from the info's source copies, one activated
        # edge at a time out of each newly supplied vertex
        heads_of: dict[int, list[int]] = {}
        for e in edges:
            heads_of.setdefault(tails[e], []).append(heads[e])
        supplied = set(source_vertices)
        stack = list(heads_of.keys() & source_vertices)
        while stack:
            for v in heads_of.get(stack.pop(), ()):
                if v not in supplied:
                    supplied.add(v)
                    stack.append(v)
        for e in sorted(edges):
            if tails[e] not in supplied:
                violate("FLOW", info_id, f"edge {e}",
                        f"activated edge {label(tails[e])}->"
                        f"{label(heads[e])} is never supplied "
                        f"with info {info_id}")

        supplied_uavs = {v // horizon for v in supplied}
        for u in sorted(destinations):
            if u not in supplied_uavs and not _holds(sources, u, horizon):
                violate("C5", info_id, f"UAV {u}",
                        f"destination UAV {u} never receives info {info_id}")
            if final_deliveries[u] > 1:
                violate("C5", info_id, f"UAV {u}",
                        f"destination UAV {u} has {final_deliveries[u]} "
                        f"competing final deliveries of info {info_id}")

        if (source_vertices.isdisjoint(out_cnt)
                and not all(_holds(sources, u, horizon)
                            for u in destinations)):
            violate("C6", info_id, f"info {info_id}",
                    f"no source copy of info {info_id} sends it")

    violations.sort(key=lambda v: (v.constraint, -1 if v.info is None else v.info,
                                   v.subject))
    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


def _holds(sources, uav, horizon) -> bool:
    """Whether a (uav, time) pair of `sources` lies on `uav`."""
    return not sources.isdisjoint(zip(repeat(uav), range(horizon)))


def plan_cost(graph: TimeExpandedGraph, plan: Plan) -> float:
    """Total energy: each vertex pays its maximum active outgoing weight.

    Defined for partial and even infeasible plans; caching edges contribute
    nothing. Summation uses math.fsum so equal plans cost the same to the
    last bit regardless of edge enumeration order.
    """
    _validate_structure(graph, plan)
    kinds, tails, weights = graph.edge_kind, graph.edge_tail, graph.edge_weight
    vertex_max: dict[int, float] = {}
    for edges in plan.activations.values():
        for e in edges:
            if kinds[e] == KIND_CONNECTIVITY:
                vertex_max[tails[e]] = max(vertex_max.get(tails[e], 0.0),
                                           weights[e])
    return _energy(vertex_max)


def _energy(power: dict) -> float:
    """The max rule's total, fsum in vertex order: one rule for plan and
    greedy tree costs, so both give the same bits."""
    return math.fsum(power[v] for v in sorted(power))


def plan_to_dict(graph: TimeExpandedGraph, plan: Plan) -> dict:
    _validate_structure(graph, plan)
    activations = {}
    for info_id in sorted(plan.activations):
        rows = []
        for e in sorted(plan.activations[info_id]):
            tu, tt = graph.vertex_uav_time(graph.edge_tail[e])
            hu, ht = graph.vertex_uav_time(graph.edge_head[e])
            rows.append([tu, tt, hu, ht, KIND_NAMES[graph.edge_kind[e]]])
        activations[str(info_id)] = rows
    return {"format": PLAN_FORMAT, "activations": activations}


def plan_from_dict(graph: TimeExpandedGraph, doc: dict) -> Plan:
    rows_by_info = doc.get("activations") if isinstance(doc, dict) else None
    if not isinstance(rows_by_info, dict):
        raise FormatError("a plan must be an object with an activations object")
    activations = {}
    for info_key, rows in rows_by_info.items():
        info_id = _int_key(info_key)
        if info_id is None:
            raise FormatError(f"plan info key {info_key!r} is not an integer")
        graph.info_by_id(info_id)
        if not isinstance(rows, list):
            raise FormatError(f"plan rows of info {info_key} must be a list")
        edges = set()
        for row in rows:
            if not isinstance(row, list) or len(row) != 5:
                raise FormatError(f"plan row {row!r} is not a 5-element list")
            tu, tt, hu, ht, kind = row
            if not (all(_is_int(x) for x in row[:4]) and isinstance(kind, str)):
                raise FormatError(f"plan row {row!r} needs four integer "
                                  "coordinates and a kind string")
            for u, t in ((tu, tt), (hu, ht)):
                if not (0 <= u < graph.uav_count and 0 <= t < graph.horizon):
                    raise PlanStructureError(
                        f"plan vertex ({u},{t}) lies outside the graph")
            e = graph.edge_index(graph.vertex_id(tu, tt), graph.vertex_id(hu, ht))
            if e is None or KIND_NAMES[graph.edge_kind[e]] != kind:
                raise PlanStructureError(
                    f"plan edge ({tu},{tt})->({hu},{ht}) [{kind}] does not "
                    f"exist in the graph")
            if e in edges:
                raise FormatError(f"plan row {row!r} of info {info_key} is "
                                  "listed twice")
            edges.add(e)
        activations[info_id] = edges
    return Plan(activations)


def save_plan(graph: TimeExpandedGraph, plan: Plan, path) -> None:
    write_json(path, plan_to_dict(graph, plan))


def load_plan(graph: TimeExpandedGraph, path) -> Plan:
    return plan_from_dict(graph, read_json(path, PLAN_FORMAT))
