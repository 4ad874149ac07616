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

A level whose next demand serves the same information also charges that
next demand while it enumerates: a partial path is dropped once its cost
plus a lower bound on the rest of its own path and on the next demand's
cheapest path reaches the budget (`_candidate_iter` states the bound and
its proof). This drops only children whose subtrees hold no leaf below the
incumbent plus its guard, so plans, objectives and the tie-break are
unchanged; only the node count falls.

Until there is an incumbent, nothing bounds a level's path enumeration, so a
demand that no admissible path can serve would cost a full enumeration that
finds nothing. A reachability sweep under the enumeration's step rules less
the in-layer revisit rule decides such dead demands. A node sweeps its own
demand before enumerating it, and returns at once when the sweep reaches no
copy of the destination. It then sweeps its next demand once, in its own
state: when that sweep fails, every child's own sweep would fail too
(`_descend` gives the proof), so the node counts its children without
entering them, instead of running one sweep per child. The sweep admits a
superset of the enumerated paths, so it skips only enumerations that would
yield nothing, and it leaves node counts, plans and reports unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import filterfalse

from .graph import KIND_CONNECTIVITY, TimeExpandedGraph, _shortest_paths
from .heuristic import HeuristicKind, greedy_plan
from .plan import Plan, _energy
from .report import (METHOD_EXACT, STATUS_FEASIBLE, STATUS_INFEASIBLE,
                     STATUS_OPTIMAL, STATUS_TIMEOUT, SolveReport)
from .scenario import CACHE_SINGLE

INF = float("inf")


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 5_000_000
    time_limit_seconds: float = 300.0

    def __post_init__(self):
        if not self.max_nodes > 0:  # NaN fails too
            raise ValueError("max_nodes must be positive")
        if not self.time_limit_seconds > 0:
            raise ValueError("time_limit_seconds must be positive")


class _BudgetExhausted(Exception):
    pass


class _Search:
    def __init__(self, graph: TimeExpandedGraph, infos, budget: SearchBudget):
        self.graph = graph
        self.budget = budget
        self.deadline = time.perf_counter() + budget.time_limit_seconds
        self.nodes = 0
        self.pulls = 0
        self.single_cache = graph.cache_capacity == CACHE_SINGLE

        self.demands = [(info, u) for info in infos
                        for u in sorted(info.destinations)]
        # per level, the destination of the next demand if it serves the
        # same information, which _candidate_iter charges ahead
        self.next_uav = [u if info is next_info else None
                         for (info, _), (next_info, u)
                         in zip(self.demands, self.demands[1:])] + [None]
        # caching edges in use, filled by _commit under "single" capacity
        # only, so readers test it alone (see _candidate_iter for why
        # nothing else tracks edge users)
        self.cache_used: set[int] = set()
        self.transmit: dict[int, int] = {}  # sending vertex -> its info
        self.channel = [0] * graph.horizon
        self.power: dict[int, float] = {}
        self.supplied = {
            info.id: {graph.vertex_id(u, t) for u, t in info.sources}
            for info in infos}
        self.paths: list[tuple[int, tuple]] = []  # (info id, edges) per level
        self.accrued = 0.0

        self.incumbent: Plan | None = None
        self.incumbent_cost = float("inf")
        self.incumbent_key = None
        self.guard = 0.0

        # connectivity out-edges per vertex for path generation, as
        # (e, head, weight); the caching step is the graph's `caching_edge`
        self.conn_out = [[] for _ in range(graph.vertex_count)]
        for v in range(graph.vertex_count):
            for e in graph.out_edges[v]:
                if graph.edge_kind[e] == KIND_CONNECTIVITY:
                    self.conn_out[v].append(
                        (e, graph.edge_head[e], graph.edge_weight[e]))

        # admissible remaining-distance estimates steer path generation:
        # channel-free cheapest distances from every vertex to a copy of uav
        self.h_to_dest = {}
        self.dest_copies = {}
        for uav in sorted({u for _, u in self.demands}):
            copies = [graph.vertex_id(uav, t) for t in range(graph.horizon)]
            self.dest_copies[uav] = frozenset(copies)
            self.h_to_dest[uav] = _shortest_paths(
                graph, copies, graph.in_edges, graph.edge_tail, (), {},
                [0] * graph.horizon)[0]

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

    def _offer(self, cost, key, make_plan):
        """Adopt the plan `make_plan()` if (cost, key) beats the incumbent's;
        the plan is built only then."""
        if (cost < self.incumbent_cost
                or (cost == self.incumbent_cost and key < self.incumbent_key)):
            self.incumbent = make_plan()
            self.incumbent_cost = cost
            self.incumbent_key = key
            self.guard = 1e-9 * (1.0 + abs(cost))

    def run(self):
        if self.unreachable:
            return  # proved infeasible before any branching
        self._descend(0)

    # -- branch and bound -------------------------------------------------

    def _descend(self, level):
        """Enumerate the paths serving demand `level` and descend into each.

        Before the first incumbent, a node whose own sweep succeeds sweeps
        its next demand once, in its own state. When that fails, the node
        counts each yielded child against the node budget but does not
        commit, enter or undo it: the child's own sweep would fail, and it
        would return with nothing else done (its bound test cannot fire
        against an infinite incumbent). Proof. A child's state is this
        node's plus a path P that `_candidate_iter` yielded here.
        Committing P can only:
        - raise channel counts, add caching edges in use, and add
          transmit owners, all P's information; each of these only forbids
          sweep steps (an owner that is the swept information forbids
          nothing);
        - when P serves the swept information, add P's heads to its supply
          set, which forbids them as heads but makes them new starts.
        So a child sweep walk from an old start is a walk of this node's
        sweep. A walk from a head h of P needs a finite remaining distance
        at h, so every vertex of P before h has one too, and P up to h is a
        walk of this node's sweep: P's steps keep the sweep's rules and
        stricter ones (fresh heads, no revisits in a layer). This sweep
        thus reaches h with at most the k hops P made in h's layer before
        h, while the child's count in that layer is higher by all of P's
        hops there, at least k. Every step the child's walk takes from h
        with j hops this sweep allows with k + j, and later layers only
        count more in the child. Every child walk therefore maps onto a
        walk here, which reaches no copy of the next destination (nor is a
        head of P one, or this sweep would reach it), so the child's sweep
        fails. No leaf lies below a skipped child, so the incumbent stays
        infinite for the whole loop, and node counts, plans and reports are
        unchanged.
        """
        if level == len(self.demands):
            # _energy(power) is plan_cost of the committed edges, and the
            # sorted pairs are their Plan's lex_key
            self._offer(_energy(self.power), tuple(sorted(
                (info_id, e) for info_id, edges in self.paths
                for e in edges)), self._plan)
            return
        lb = self.lb_rest[level]
        if self.accrued + lb >= self.incumbent_cost + self.guard:
            return
        info, dest_uav = self.demands[level]
        dead = False
        if self.incumbent_cost == INF:
            if not self._reaches(info, dest_uav):
                return  # the enumeration would yield nothing here
            dead = (level + 1 < len(self.demands)
                    and not self._reaches(*self.demands[level + 1]))
        for cost, edges in self._candidate_iter(info, dest_uav, self.accrued,
                                                lb, self.next_uav[level]):
            self.nodes += 1
            if self.nodes > self.budget.max_nodes:
                raise _BudgetExhausted
            if dead:
                continue  # the child would refute its demand and return
            undo = self._commit(info.id, edges)
            self._descend(level + 1)
            self._undo(info.id, edges, undo)

    def _plan(self):
        """The committed paths as a Plan, with every information a key."""
        activations = dict.fromkeys(self.supplied, ())
        for info_id, edges in self.paths:
            activations[info_id] += edges
        return Plan(activations)

    def _commit(self, info_id, edges):
        graph = self.graph
        kinds = graph.edge_kind
        self.supplied[info_id].update(map(graph.edge_head.__getitem__, edges))
        self.paths.append((info_id, edges))
        if self.single_cache:
            self.cache_used.update(filter(kinds.__getitem__, edges))
        channel = self.channel
        transmit = self.transmit
        power = self.power
        accrued, changes = self.accrued, []
        for e in filterfalse(kinds.__getitem__, edges):  # connectivity is 0
            tail = graph.edge_tail[e]
            weight = graph.edge_weight[e]
            t = tail % graph.horizon
            channel[t] += 1
            new_sender = tail not in transmit
            if new_sender:
                transmit[tail] = info_id
            old_power = power.get(tail, 0.0)
            if weight > old_power:
                power[tail] = weight
                self.accrued += weight - old_power
            changes.append((tail, t, old_power, new_sender))
        return accrued, changes

    def _undo(self, info_id, edges, undo):
        graph = self.graph
        self.supplied[info_id].difference_update(
            map(graph.edge_head.__getitem__, edges))
        self.paths.pop()
        self.cache_used.difference_update(edges)
        channel = self.channel
        transmit = self.transmit
        power = self.power
        self.accrued, changes = undo  # not recomputed: a + x - x need not be a
        for tail, t, old_power, new_sender in reversed(changes):
            channel[t] -= 1
            if new_sender:
                del transmit[tail]
            if old_power > 0.0:
                power[tail] = old_power
            else:
                del power[tail]

    # -- candidate paths ---------------------------------------------------

    def _candidate_iter(self, info, dest_uav, accrued, lb, next_uav=None):
        """Admissible paths serving (info, dest_uav) in ascending cost order.

        A path starts at a supplied vertex, visits only fresh vertices for
        this information, and ends at a time copy of the destination UAV; the
        empty path is admissible when some copy is already supplied. Partial
        paths are expanded best-first on cost plus a pristine-graph
        remaining-distance estimate, so generation never chases extensions
        that cannot possibly finish under the caller's remaining budget,
        `incumbent_cost + guard - accrued - lb`, which shrinks every time a
        better incumbent appears. A start that already transmits this
        information at power p gets its first connectivity step discounted
        by p, so its estimate is discounted too; anything less would prune
        cheaper paths and could certify a suboptimal plan.

        Time never decreases along a path: caching edges go from t to t+1
        and connectivity edges stay in t. So a step can only revisit, and
        only count against the channel budget of, the path's vertices in the
        head's layer: the head plus the tails of the path's trailing
        connectivity edges, at most U-1 of them. The per-pop state is built
        from those alone, which keeps it independent of path length.

        No edge-user bookkeeping is needed beyond `cache_used` ("single"
        capacity only), because the other checks already imply it:
        - a connectivity edge used by information A has A owning its tail,
          so the owner check blocks every other information, and its head
          is supplied for A, so the freshness check blocks A;
        - a caching edge A already uses likewise has a head supplied for A.

        The cost order holds up to rounding: an estimate sums a path's steps
        in another order than the distance tables do, so two yielded costs
        can be out of order by an ulp, which the incumbent guard absorbs.

        Lookahead. When `next_uav` is the destination of the next demand of
        this information, write h and h' for the tables to `dest_uav` and
        `next_uav`, and n(v) = max(0, h'(v) - power(v)), the next level's
        start estimate at v. Each entry carries a floor: the least n over
        the supply set, lowered by each step out of a vertex v of the path
        to v's n once the path is committed: max(0, h'(v) - max(power(v),
        w)) for a connectivity step at weight w, and h'(v) for a caching
        step out of a vertex other than the start (it has no power for this
        information; if another information owns it, the next path cannot
        transmit from it). A non-empty partial path with head v and cost c
        is dropped, when pushed and again when popped, once its charge
        c + min(h(v) + floor, max(h(v), h'(v))) >= budget. For any path Q
        through it and any next-demand path R after Q is committed:
        - if R starts in the old supply set or at a vertex of the path
          before v, cost(Q) >= c + h(v) and cost(R) >= floor;
        - if R starts at v or after it on Q, Q's part from v followed by R
          reaches a copy of each UAV, and every transmitter on it is fresh
          (a shared sender pays max(p_Q, p_R) >= p_R), so the two cost at
          least c + max(h(v), h'(v)).
        So a dropped subtree holds no leaf below `incumbent_cost + guard`;
        the guard also absorbs the rounding in which these sums differ from
        the leaf costs. Start entries are never dropped this way, because
        their first step may be discounted below h. An infinite incumbent
        drops nothing: the floor is finite, because `run` branches only when
        every destination is at a finite distance from the information's
        sources. The yields that remain are a subsequence of those without
        the lookahead, in the same order.
        """
        graph = self.graph
        supplied = self.supplied[info.id]
        dest_copies = self.dest_copies[dest_uav]
        if not dest_copies.isdisjoint(supplied):
            yield 0.0, ()

        remaining = self.h_to_dest[dest_uav]
        after = None if next_uav is None else self.h_to_dest[next_uav]
        power = self.power
        # the incumbent only improves while a path is out with the caller,
        # so the budget is recomputed after each yield and nowhere else
        budget = self.incumbent_cost + self.guard - accrued - lb
        # heap entries: (cost + remaining estimate, edge tuple, head, cost,
        # floor, charge), the last two for the lookahead below; the keys are
        # distinct, so building the heap unsorted keeps the pop order and
        # never compares the rest, and a start at or above the budget would
        # never be popped. The same pass takes the least next-level start
        # estimate over the supply set, the floor a start takes when popped;
        # a start's charge is 0, as it is never dropped by the lookahead
        heap = []
        start_floor = INF
        for start in supplied:
            p = power.get(start, 0.0)
            estimate = remaining[start]
            if p:
                estimate = estimate - p if estimate > p else 0.0
            if estimate < budget:
                heap.append((estimate, (), start, 0.0, INF, 0.0))
            if after is not None:
                n = after[start] - p
                if n < start_floor:
                    start_floor = n
        if start_floor < 0.0:
            start_floor = 0.0
        heapify(heap)

        horizon = graph.horizon
        channels = graph.channels
        channel = self.channel
        transmit = self.transmit
        cache_used = self.cache_used
        kinds = graph.edge_kind
        tails = graph.edge_tail
        caching = graph.caching_edge
        conn_out = self.conn_out
        info_id = info.id
        deadline = self.deadline
        while heap:
            if budget <= heap[0][0]:
                return
            self.pulls += 1
            if self.pulls % 2048 == 0 and time.perf_counter() > deadline:
                raise _BudgetExhausted
            _, edges, head, cost, floor, charge = heappop(heap)
            if charge >= budget:
                continue  # the budget shrank below the lookahead charge
            if not edges:
                floor = start_floor
            elif head in dest_copies:
                yield cost, edges
                budget = self.incumbent_cost + self.guard - accrued - lb
            e = caching[head]
            if e >= 0:
                h = head + 1
                rest = remaining[h]
                charge = new_estimate = cost + rest
                if (h not in supplied and new_estimate < budget
                        and e not in cache_used):
                    new_floor = floor
                    if after is not None:
                        if edges and after[head] < floor:
                            new_floor = after[head]
                        bound = rest + new_floor
                        reach = after[h] if after[h] > rest else rest
                        charge = cost + (reach if reach < bound else bound)
                    if charge < budget:
                        heappush(heap, (new_estimate, edges + (e,), h, cost,
                                        new_floor, charge))
            if transmit.get(head, info_id) != info_id:
                continue
            layer = {head}
            for e in reversed(edges):
                if kinds[e]:
                    break
                layer.add(tails[e])
            if channel[head % horizon] + len(layer) > channels:
                continue
            v_power = power.get(head, 0.0)
            for e, h, w in conn_out[head]:
                if h in supplied or h in layer:
                    continue
                new_cost = cost + (w - v_power if w > v_power else 0.0)
                rest = remaining[h]
                charge = new_estimate = new_cost + rest
                if new_estimate >= budget:
                    continue
                new_floor = floor
                if after is not None:
                    # the head's next-level start estimate once it sends at w
                    n = after[head] - (w if w > v_power else v_power)
                    if n < floor:
                        new_floor = n if n > 0.0 else 0.0
                    bound = rest + new_floor
                    reach = after[h] if after[h] > rest else rest
                    charge = new_cost + (reach if reach < bound else bound)
                    if charge >= budget:
                        continue
                heappush(heap, (new_estimate, edges + (e,), h, new_cost,
                                new_floor, charge))

    def _reaches(self, info, dest_uav):
        """Whether the sweep reaches a copy of `dest_uav` for `info`.

        One reachability sweep over states (vertex, connectivity hops the
        path already made in the vertex's layer) that applies
        `_candidate_iter`'s step rules with no incumbent, that is with an
        infinite budget: it starts at the supplied vertices with a finite
        remaining distance; every head is unsupplied with a finite remaining
        distance; a caching step needs its edge unused under "single"
        capacity and resets the hops to 0; a connectivity step needs its tail
        to transmit nothing or this information, and `channel[t] + hops + 1
        <= channels`. It drops only the rule that a path must not revisit a
        vertex of its head's layer.

        So it admits a superset of the enumerator's paths: the prefixes of
        any path `_candidate_iter` yields map one by one onto states the
        sweep reaches, the last of them a copy of `dest_uav`. A False answer
        therefore proves that `_candidate_iter` with `incumbent_cost == inf`
        yields nothing, and skipping it changes no yield, node count, plan or
        report. A state with fewer hops allows every step that one with more
        allows, so a vertex is pushed again only when reached with fewer.

        `_descend` runs it, while there is no incumbent, for a node's own
        demand and then once per node for the node's next demand, in the
        node's own state; a False answer for the next demand holds in every
        child's state as well, so no child sweeps again. The sweep costs up
        to |V|·(channels+1) steps and adds no `pulls`, so it tests the
        deadline once itself.
        """
        supplied = self.supplied[info.id]
        dest_copies = self.dest_copies[dest_uav]
        if not dest_copies.isdisjoint(supplied):
            return True
        if time.perf_counter() > self.deadline:
            raise _BudgetExhausted
        remaining = self.h_to_dest[dest_uav]
        caching = self.graph.caching_edge
        conn_out = self.conn_out
        horizon = self.graph.horizon
        channels = self.graph.channels
        channel = self.channel
        transmit = self.transmit
        cache_used = self.cache_used
        info_id = info.id
        # the least hops each vertex was reached with, channels + 1 if it
        # was not; a supplied vertex is never a head, which -1 encodes, and
        # it is a start if it can reach a copy
        least = [channels + 1] * self.graph.vertex_count
        for v in supplied:
            least[v] = -1
        stack = [(v, 0) for v in supplied if remaining[v] < INF]
        while stack:
            v, hops = stack.pop()
            e = caching[v]
            if e >= 0:
                h = v + 1
                if (least[h] > 0 and remaining[h] < INF
                        and e not in cache_used):
                    if h in dest_copies:
                        return True
                    least[h] = 0
                    stack.append((h, 0))
            if channel[v % horizon] + hops >= channels:
                continue
            if transmit.get(v, info_id) != info_id:
                continue
            hops += 1
            for _, h, _ in conn_out[v]:
                if least[h] > hops and remaining[h] < INF:
                    if h in dest_copies:
                        return True
                    least[h] = hops
                    stack.append((h, hops))
        return False


def solve_exact(graph: TimeExpandedGraph, infos=None,
                budget: SearchBudget = SearchBudget(),
                warm_start: bool = True) -> SolveReport:
    """Solve to proven optimality within the budget.

    Statuses: OPTIMAL (search space exhausted), FEASIBLE (budget ran out,
    best incumbent returned), INFEASIBLE (proved), TIMEOUT_NO_SOLUTION
    (budget ran out before any solution was found). Reports are deterministic
    whenever the wall-clock limit does not bind.
    """
    started = time.perf_counter()
    infos = graph.served(infos)
    search = _Search(graph, infos, budget)
    if warm_start and infos:
        for kind in (HeuristicKind("mpf"), HeuristicKind("lpf"),
                     HeuristicKind("muf"), HeuristicKind("r", seed=0)):
            warm = greedy_plan(graph, infos, kind)
            if warm.plan is not None:
                search._offer(warm.objective, warm.plan.lex_key(),
                              lambda: warm.plan)

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
