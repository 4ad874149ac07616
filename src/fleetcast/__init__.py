"""Minimum-energy multi-hop data dissemination planning for UAV fleets.

The toolkit models a fleet of mobile UAVs over a discretized timeline as a
time-expanded graph whose connectivity edges carry subrange-quantized
transmission energies, and plans how to move every piece of information from
its gatherable copies to all of its destination UAVs under per-time-unit
channel budgets. It ships an exact branch-and-bound solver for small
instances, four greedy orderings for large ones, an LP exporter, a seeded
scenario generator, and a CLI experiment harness.
"""

from .errors import (FleetcastError, FormatError, GenerationError,
                     InternalError, LpSizeError, PlanStructureError,
                     ScenarioError)
from .exact import SearchBudget, solve_exact
from .gen import GenConfig, PAPER_RADIO, PROFILES, generate_scenario, make_config
from .graph import (CACHING, CONNECTIVITY, TimeExpandedGraph, augment,
                    build_time_expanded_graph)
from .heuristic import (HEURISTIC_KINDS, HeuristicKind, ResidualState, Tree,
                        build_tree, greedy_plan, order_information)
from .lp import export_lp, lint_lp
from .plan import (FeasibilityReport, Plan, Violation, check_feasibility,
                   load_plan, plan_cost, save_plan)
from .radio import (RadioParams, packet_rate_demand, required_power,
                    subrange_weight, transmission_rate)
from .report import (STATUS_FEASIBLE, STATUS_INFEASIBLE,
                     STATUS_INFEASIBLE_HEURISTIC, STATUS_OPTIMAL,
                     STATUS_TIMEOUT, SolveReport, load_report, save_report)
from .scenario import (CACHE_SINGLE, CACHE_UNLIMITED, InfoSpec, Scenario,
                       load_scenario, save_scenario)

__version__ = "0.1.0"
