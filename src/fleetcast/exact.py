"""Provably optimal solver for desk-scale instances.

Depth-first branch-and-bound over per-information path extensions: demands
(information, destination UAV) are fixed in ascending order, and each search
level enumerates every admissible path from the information's current supply
set to a time copy of the destination UAV, respecting the joint constraints
(one information per edge, one transmitted information per vertex, channel
budgets, caching capacity). Because each vertex holds at most one incoming
activation per information, every feasible plan decomposes uniquely into such
a path sequence, so the enumeration is exhaustive.

One backward search per destination UAV on the pristine graph, ignoring
channels, gives the cheapest distance from every vertex to a copy of that
UAV. These tables steer path generation as an admissible estimate, and they
give the lower bound: every not-yet-started information is charged the
largest, over its destinations, of the distance from its nearest source copy,
which never exceeds the cost of any structure serving it; an infinite one
proves the instance infeasible. A greedy warm start provides the initial
incumbent. Among equal-cost optima the lexicographically smallest activation
set (by info id, then edge index) is returned, which keeps golden outputs
stable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .graph import KIND_CONNECTIVITY, AugmentedGraph, _shortest_paths
from .heuristic import HeuristicKind, greedy_plan
from .plan import Plan, plan_cost
from .report import (STATUS_FEASIBLE, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                     STATUS_TIMEOUT, SolveReport)
from .scenario import CACHE_SINGLE

METHOD_EXACT = "exact"
INF = float("inf")


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 5_000_000
    time_limit_seconds: float = 300.0

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.time_limit_seconds <= 0:
            raise ValueError("time_limit_seconds must be positive")


class _BudgetExhausted(Exception):
    pass


class _Search:
    def __init__(self, graph: AugmentedGraph, infos, budget: SearchBudget):
        self.graph = graph
        self.infos = infos
        self.budget = budget
        self.deadline = time.perf_counter() + budget.time_limit_seconds
        self.nodes = 0
        self.pulls = 0
        self.single_cache = graph.cache_capacity == CACHE_SINGLE

        self.demands = [(info, u) for info in infos
                        for u in sorted(info.destinations)]
        self.edge_users: dict[int, set[int]] = {}
        self.transmit: dict[int, tuple[int, int]] = {}
        self.channel = [0] * graph.horizon
        self.power: dict[int, float] = {}
        self.supplied = {
            info.id: {graph.vertex_id(u, t) for u, t in info.sources}
            for info in infos}
        self.plan_edges = {info.id: set() for info in infos}
        self.accrued = 0.0

        self.incumbent: Plan | None = None
        self.incumbent_cost = float("inf")
        self.incumbent_key = None
        self.guard = 0.0

        # admissible remaining-distance estimates steer path generation:
        # channel-free cheapest distances from every vertex to a copy of uav
        self.h_to_dest = {}
        for uav in sorted({u for _, u in self.demands}):
            copies = [graph.vertex_id(uav, t) for t in range(graph.horizon)]
            self.h_to_dest[uav], _ = _shortest_paths(
                graph, copies, graph.in_edges, graph.edge_tail, (), {},
                [0] * graph.horizon, {})

        # admissible bound for informations not yet started: the largest
        # channel-free cheapest-path distance to any of their destinations
        self.pristine_lb = {}
        self.unreachable = None
        for info in infos:
            starts = [graph.vertex_id(u, t) for u, t in info.sources]
            worst = 0.0
            for u in sorted(info.destinations):
                d = min(self.h_to_dest[u][v] for v in starts)
                if d == INF:
                    self.unreachable = (info.id, u)
                    break
                worst = max(worst, d)
            if self.unreachable:
                break
            self.pristine_lb[info.id] = worst
        self.lb_rest = []
        if not self.unreachable:
            later = {}
            acc = 0.0
            for info in reversed(infos):
                later[info.id] = acc
                acc += self.pristine_lb[info.id]
            self.lb_rest = [later[info.id] for info, _ in self.demands]

    def set_incumbent(self, plan: Plan):
        cost = plan_cost(self.graph, plan)
        key = plan.lex_key()
        if (cost < self.incumbent_cost
                or (cost == self.incumbent_cost and
                    (self.incumbent_key is None or key < self.incumbent_key))):
            self.incumbent = plan
            self.incumbent_cost = cost
            self.incumbent_key = key
            self.guard = 1e-9 * (1.0 + abs(cost))

    def run(self):
        if self.unreachable:
            return  # proved infeasible before any branching
        self._descend(0)

    # -- branch and bound -------------------------------------------------

    def _descend(self, level):
        if level == len(self.demands):
            plan = Plan({info_id: frozenset(edges)
                         for info_id, edges in self.plan_edges.items()})
            self.set_incumbent(plan)
            return
        lb = self.lb_rest[level]
        if self.accrued + lb >= self.incumbent_cost + self.guard:
            return
        info, dest_uav = self.demands[level]
        accrued_here = self.accrued

        def budget_left():
            return self.incumbent_cost + self.guard - accrued_here - lb

        for cost, edges in self._candidate_iter(info, dest_uav, budget_left):
            self.nodes += 1
            if self.nodes > self.budget.max_nodes:
                raise _BudgetExhausted
            undo = self._commit(info.id, edges)
            self._descend(level + 1)
            self._undo(info.id, undo)

    def _commit(self, info_id, edges):
        graph = self.graph
        undo = []
        supplied = self.supplied[info_id]
        for e in edges:
            self.edge_users.setdefault(e, set()).add(info_id)
            supplied.add(graph.edge_head[e])
            if graph.edge_kind[e] == KIND_CONNECTIVITY:
                tail = graph.edge_tail[e]
                weight = graph.edge_weight[e]
                self.channel[graph.edge_time[e]] += 1
                owner = self.transmit.get(tail)
                self.transmit[tail] = (info_id,
                                       1 if owner is None else owner[1] + 1)
                old_power = self.power.get(tail, 0.0)
                increment = weight - old_power
                if increment > 0.0:
                    self.power[tail] = weight
                    self.accrued += increment
                else:
                    increment = 0.0
                undo.append((e, old_power, increment))
            else:
                undo.append((e, None, 0.0))
            self.plan_edges[info_id].add(e)
        return undo

    def _undo(self, info_id, undo):
        graph = self.graph
        supplied = self.supplied[info_id]
        for e, old_power, increment in reversed(undo):
            users = self.edge_users[e]
            users.discard(info_id)
            if not users:
                del self.edge_users[e]
            supplied.discard(graph.edge_head[e])
            self.plan_edges[info_id].discard(e)
            if graph.edge_kind[e] == KIND_CONNECTIVITY:
                tail = graph.edge_tail[e]
                self.channel[graph.edge_time[e]] -= 1
                owner, count = self.transmit[tail]
                if count == 1:
                    del self.transmit[tail]
                else:
                    self.transmit[tail] = (owner, count - 1)
                if increment > 0.0:
                    if old_power > 0.0:
                        self.power[tail] = old_power
                    else:
                        del self.power[tail]
                self.accrued -= increment

    # -- candidate paths ---------------------------------------------------

    def _candidate_iter(self, info, dest_uav, budget_left):
        """Admissible paths serving (info, dest_uav) in ascending cost order.

        A path starts at a supplied vertex, visits only fresh vertices for
        this information, and ends at a time copy of the destination UAV; the
        empty path is admissible when some copy is already supplied. Partial
        paths are expanded best-first on cost plus a pristine-graph
        remaining-distance estimate, so generation never chases extensions
        that cannot possibly finish under the caller's remaining budget, which
        shrinks every time a better incumbent appears.
        """
        graph = self.graph
        horizon = graph.horizon
        supplied = self.supplied[info.id]
        if any(v // horizon == dest_uav for v in supplied):
            yield 0.0, ()

        remaining = self.h_to_dest[dest_uav]
        # heap entries: (cost + remaining estimate, edge tuple, head, cost)
        heap = [(remaining[start], (), start, 0.0)
                for start in sorted(supplied)
                if remaining[start] != INF]
        heapify(heap)
        while heap:
            if budget_left() <= heap[0][0]:
                return
            self.pulls += 1
            if self.pulls % 2048 == 0 and time.perf_counter() > self.deadline:
                raise _BudgetExhausted
            estimate, edges, head, cost = heappop(heap)
            kinds = graph.edge_kind
            heads = graph.edge_head
            tails = graph.edge_tail
            weights = graph.edge_weight
            times = graph.edge_time
            if edges:
                start = tails[edges[0]]
                if head // horizon == dest_uav:
                    yield cost, edges
            else:
                start = head
            path_set = {start}
            path_layers: dict[int, int] = {}
            for e in edges:
                path_set.add(heads[e])
                if kinds[e] == 0:
                    path_layers[times[e]] = path_layers.get(times[e], 0) + 1
            v = head
            budget = budget_left()
            v_owner = self.transmit.get(v)
            v_power = self.power.get(v, 0.0)
            for e in graph.out_edges[v]:
                kind = kinds[e]
                if kind == 0:  # connectivity
                    if v_owner is not None and v_owner[0] != info.id:
                        continue
                    if e in self.edge_users:
                        continue
                    t = times[e]
                    if self.channel[t] + path_layers.get(t, 0) >= graph.channels:
                        continue
                    w = weights[e]
                    step = w - v_power if w > v_power else 0.0
                elif kind == 1:  # caching
                    users = self.edge_users.get(e)
                    if users is not None and (self.single_cache
                                              or info.id in users):
                        continue
                    step = 0.0
                else:
                    continue  # exact paths live on real edges only
                h = heads[e]
                if h in supplied or h in path_set:
                    continue
                new_cost = cost + step
                new_estimate = new_cost + remaining[h]
                if new_estimate >= budget:
                    continue
                heappush(heap, (new_estimate, edges + (e,), h, new_cost))


def solve_exact(graph: AugmentedGraph, infos=None,
                budget: SearchBudget = SearchBudget(),
                warm_start: bool = True) -> SolveReport:
    """Solve to proven optimality within the budget.

    Statuses: OPTIMAL (search space exhausted), FEASIBLE (budget ran out,
    best incumbent returned), INFEASIBLE (proved), TIMEOUT_NO_SOLUTION
    (budget ran out before any solution was found). Reports are deterministic
    whenever the wall-clock limit does not bind.
    """
    started = time.perf_counter()
    infos = sorted(graph.infos if infos is None else infos, key=lambda i: i.id)
    for info in infos:
        if info.id not in graph.source_vertex:
            raise ValueError(f"info {info.id} is not part of the graph")

    search = _Search(graph, infos, budget)
    if warm_start and infos:
        for kind in (HeuristicKind("mpf"), HeuristicKind("lpf"),
                     HeuristicKind("muf"), HeuristicKind("r", seed=0)):
            warm = greedy_plan(graph, infos, kind)
            if warm.plan is not None:
                search.set_incumbent(warm.plan)

    completed = False
    try:
        search.run()
        completed = True
    except _BudgetExhausted:
        pass

    runtime_ms = (time.perf_counter() - started) * 1e3
    if search.incumbent is not None:
        status = STATUS_OPTIMAL if completed else STATUS_FEASIBLE
        return SolveReport(method=METHOD_EXACT, status=status,
                           objective=search.incumbent_cost,
                           plan=search.incumbent, runtime_ms=runtime_ms,
                           nodes=search.nodes)
    status = STATUS_INFEASIBLE if completed else STATUS_TIMEOUT
    return SolveReport(method=METHOD_EXACT, status=status, objective=None,
                       plan=None, runtime_ms=runtime_ms, nodes=search.nodes)
