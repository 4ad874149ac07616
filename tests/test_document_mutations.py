"""Mutated scenario, report and plan files load as what they say or fail.

A mutant replaces one value of a valid document, a leaf or a whole subtree,
or deletes one object key. Loading it must either raise a declared library
error, or give an object that saves to a fixed point: a document that loads
and saves back to the same bytes. A document that names a key twice in one
object is refused, whichever object it is.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from fleetcast.errors import FormatError, PlanStructureError, ScenarioError
from fleetcast.exact import solve_exact
from fleetcast.graph import build_time_expanded_graph
from fleetcast.heuristic import HeuristicKind, greedy_plan
from fleetcast.plan import load_plan, plan_to_dict, save_plan
from fleetcast.report import load_report, report_to_dict, save_report
from fleetcast.scenario import load_scenario, save_scenario, scenario_to_dict

DECLARED = (FormatError, ScenarioError, PlanStructureError)
INSTANCES = ("chain3", "star4", "asymmetric_pair")
DELETE = "<delete this key>"
REPLACEMENTS = [None, True, 0, -1, 10 ** 400, -10 ** 400, 1.5, float("nan"),
                float("inf"), "1", "", [], {}, [1]]


def _solve(graph, method):
    if method == "exact":
        return solve_exact(graph, graph.infos)
    kind = HeuristicKind("r", 3) if method == "r[3]" else HeuristicKind(method)
    return greedy_plan(graph, graph.infos, kind)


def _documents():
    """kind -> [(graph, document)] for each instance and each solve of it."""
    docs = {"scenario": [], "report": [], "plan": []}
    for name in INSTANCES:
        scenario = getattr(instances, name)()
        graph = build_time_expanded_graph(scenario)
        docs["scenario"].append((graph, scenario_to_dict(scenario)))
        for method in ("mpf", "r[3]", "exact"):
            report = _solve(graph, method)
            docs["report"].append((graph, report_to_dict(graph, report)))
            if report.plan is not None:
                docs["plan"].append((graph, plan_to_dict(graph, report.plan)))
    return docs


DOCUMENTS = _documents()
LOADERS = {"scenario": (lambda graph, path: load_scenario(path),
                        lambda graph, obj, path: save_scenario(obj, path)),
           "report": (load_report, save_report),
           "plan": (load_plan, save_plan)}


def _paths(node, path=()):
    """The path to `node` and to every value below it."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, path, value):
    """A copy of `doc` with `value` at `path`, or without its key if DELETE."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = _at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutants(draw, kind):
    graph, doc = draw(st.sampled_from(DOCUMENTS[kind]))
    path = draw(st.sampled_from(list(_paths(doc))))
    values = REPLACEMENTS
    if path and isinstance(_at(doc, path[:-1]), dict):
        values = values + [DELETE]
    return graph, _mutated(doc, path, draw(st.sampled_from(values)))


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_mutant_loads_to_a_fixed_point_or_fails_declared(kind, tmp_path):
    load, save = LOADERS[kind]

    @given(mutants(kind))
    @settings(max_examples=600, deadline=None, derandomize=True)
    def check(mutant):
        graph, doc = mutant
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # NaN too
        try:
            loaded = load(graph, path)
        except DECLARED:
            return
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save(graph, loaded, first)
        save(graph, load(graph, first), second)
        assert second.read_bytes() == first.read_bytes()

    check()


def _text_repeating(node, target):
    """The JSON text of `node`, with the object `target` naming its first
    key twice, both times with its value."""
    if isinstance(node, list):
        return "[" + ", ".join(_text_repeating(x, target) for x in node) + "]"
    if not isinstance(node, dict):
        return json.dumps(node)
    items = [json.dumps(key) + ": " + _text_repeating(value, target)
             for key, value in node.items()]
    if node is target:
        items.insert(0, items[0])
    return "{" + ", ".join(items) + "}"


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_a_key_repeated_in_any_object_is_refused(kind, tmp_path):
    load = LOADERS[kind][0]
    path = tmp_path / "repeated.json"
    count = 0
    for graph, doc in DOCUMENTS[kind]:
        for where in _paths(doc):
            node = _at(doc, where)
            if not (isinstance(node, dict) and node):
                continue
            path.write_text(_text_repeating(doc, node), encoding="utf-8")
            key = next(iter(node))
            with pytest.raises(FormatError) as refused:
                load(graph, path)
            assert str(refused.value) == (
                f"{path}: key {key!r} is repeated in one object")
            count += 1
    assert count >= 2 * len(DOCUMENTS[kind])  # nested objects too
