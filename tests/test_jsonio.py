"""The canonical JSON writer against its definition: the indented, sorted,
NaN-refusing `json.dumps` text plus a trailing newline, byte for byte."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import augment, build_time_expanded_graph
from fleetcast.heuristic import HEURISTIC_KINDS, RANDOM_KIND, HeuristicKind, greedy_plan
from fleetcast.jsonio import _numeric_depth, canonical_dumps
from fleetcast.plan import plan_to_dict
from fleetcast.report import report_to_dict
from fleetcast.scenario import scenario_to_dict


def _definition(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _numeric_arrays(depth):
    """Lists (some of them tuples) of numbers, all `depth` lists deep."""
    numbers = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    arrays = numbers
    for _ in range(depth):
        arrays = st.lists(arrays, max_size=4) | st.lists(arrays, max_size=3).map(tuple)
    return arrays


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | st.text())
_trees = st.recursive(
    _scalars | st.integers(1, 3).flatmap(_numeric_arrays),
    lambda children: (st.lists(children, max_size=5)
                      | st.tuples(children, children)
                      | st.dictionaries(st.text(), children, max_size=5)
                      | st.dictionaries(st.integers() | st.booleans()
                                        | st.floats(allow_nan=False,
                                                    allow_infinity=False),
                                        children, max_size=3)),
    max_leaves=20)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(_trees)
def test_canonical_dumps_is_its_definition_on_random_trees(obj):
    assert canonical_dumps(obj) == _definition(obj)


@pytest.mark.parametrize("obj", [
    [[1, 2], [3]], [[1], [[2]]], [[], [1]], [[1], []], [[[]]], [[], []],
    [1, True], [[1, 2], [False, 3]], [[1, None]], [[1, "2"]],
    (1, 2.5), [(1, 2), [3, 4]], ((1,), (2,)), [[[1, 2]], [[3, 4], [5, 6]]],
    [[[[1]]], [[[2], [3]]]], [[[1, 2], [3]], [[4]]],
    [-0.0, 0.0], [1e-05, 5e-324, 1e16, -1.5e300], [10 ** 20, -(10 ** 20)],
    {"x": [[0.1, 0.2], [0.3, 0.4]], "a": [], "m": {}, "z": [7]},
    ["tab\tquote\"back\\slash\nnew", "\x00\x1f ", "é ü 東京 🚁"],
    {"é": 1, "a\"b": [2, 3], "": None},
    {2: "two", 10: "ten", 0.5: "half", True: "t"}, {None: 0}, {False: 0},
    [], {}, (), 0, -0.0, 1.0, "", None, True, False])
def test_canonical_dumps_is_its_definition_on_edge_cases(obj):
    assert canonical_dumps(obj) == _definition(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", [
    lambda v: v, lambda v: [v], lambda v: [1.0, v], lambda v: [[1.0], [2.0, v]],
    lambda v: [[1.0, 2.0], ["x", v]], lambda v: {"a": {"b": v}},
    lambda v: {v: 1}, lambda v: [{"a": [1, 2]}, (v,)]])
def test_non_finite_numbers_are_refused(place, value):
    with pytest.raises(ValueError):
        canonical_dumps(place(value))


@pytest.mark.parametrize("obj, depth", [
    ([1, 2.5], 1), ([[1, 2], [3]], 2), ([(1, 2), [3, 4]], 2),
    ([[[1.0]], [[2, 3]]], 3), ([[1], [[2]]], 0), ([[], [1]], 0),
    ([1, True], 0), ([[1, "2"]], 0), ([{"a": 1}], 0)])
def test_numeric_depth_finds_arrays_with_leaves_at_one_depth(obj, depth):
    assert _numeric_depth(obj) == depth


def test_unsupported_values_and_keys_are_type_errors():
    with pytest.raises(TypeError):
        canonical_dumps({"a": {1, 2}})
    with pytest.raises(TypeError):
        canonical_dumps({(1, 2): "pair"})


@pytest.fixture(scope="module")
def fleet_scenario():
    """The fleet-size scenario: 30 UAVs, 20 informations, 500 time units."""
    return generate_scenario(make_config("paper", 1, uav_count=30, info_count=20,
                                         horizon=500, channels=2, area_side=250.0))


def test_fleet_scenario_is_written_as_defined(fleet_scenario):
    doc = scenario_to_dict(fleet_scenario)
    assert _numeric_depth(doc["trajectories"]) == 3
    assert canonical_dumps(doc) == _definition(doc)


@pytest.mark.parametrize("kind", HEURISTIC_KINDS)
def test_greedy_reports_and_plans_are_written_as_defined(kind):
    scenario = generate_scenario(make_config("paper", 3))
    graph = augment(build_time_expanded_graph(scenario), scenario.infos)
    report = greedy_plan(graph, graph.infos,
                         HeuristicKind(kind, 1 if kind == RANDOM_KIND else None))
    assert report.plan is not None and report.plan.activations
    doc = report_to_dict(graph, report)
    assert canonical_dumps(doc) == _definition(doc)
    plan_doc = plan_to_dict(graph, report.plan)
    assert canonical_dumps(plan_doc) == _definition(plan_doc)
