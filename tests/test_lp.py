"""LP export: worked variable counts, pinned bytes, lint pass, size cap."""

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
import oracles
from fleetcast.errors import LpSizeError
from fleetcast.gen import generate_scenario, make_config
from fleetcast.graph import build_time_expanded_graph
from fleetcast.lp import export_lp, lint_lp
from fleetcast.scenario import InfoSpec


def variable_names(text):
    lines = text.splitlines()
    start = lines.index("Binaries") + 1
    end = lines.index("Bounds")
    names = []
    for line in lines[start:end]:
        names.extend(line.split())
    return names


def constraint_names(text):
    lines = text.splitlines()
    start = lines.index("Subject To") + 1
    end = lines.index("Binaries")
    return [line.split(":", 1)[0].strip() for line in lines[start:end]]


def caching_pair():
    """Two UAVs over three time units, each holding what the other wants."""
    return instances.static_scenario(
        positions=[(0, 0), (10, 0)], horizon=3, channels=1,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(1, 1)}, destinations={0})])


def scientific_pair():
    """Paper radio at 5 cm: a hop costs 1.5000000000000005e-05 J."""
    return instances.static_scenario(
        positions=[(0, 0), (0.03, 0)], radii=(0.05,), radio=instances.PAPER_RADIO,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])


def zero_weight_pair():
    """Two co-located UAVs whose hop energy underflows to 0.0 J."""
    return instances.static_scenario(
        positions=[(0, 0), (0, 0)], radii=(1e-200,), radio=instances.PAPER_RADIO,
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])


def generated(profile, seed, **overrides):
    return generate_scenario(make_config(profile, seed, **overrides))


def test_two_vertices_one_edge():
    graph = build_time_expanded_graph(instances.asymmetric_pair())
    text = export_lp(graph)
    assert lint_lp(text) == []
    names = variable_names(text)
    assert [n for n in names if n.startswith("a_")] == ["a_0_0"]
    assert " obj: P_0 + P_1" in text.splitlines()


def test_no_infos_yields_bounds_only():
    graph = build_time_expanded_graph(instances.asymmetric_pair())
    text = export_lp(graph, infos=[])
    assert lint_lp(text) == []
    assert constraint_names(text) == []
    assert variable_names(text) == []
    assert " obj: P_0 + P_1" in text.splitlines()


def test_size_cap():
    graph = build_time_expanded_graph(instances.chain3())
    with pytest.raises(LpSizeError):
        export_lp(graph, max_variables=3)


@pytest.mark.parametrize("make", [
    instances.chain3, instances.star4, lambda: instances.crossing_pair(2),
    instances.disjoint_pairs, instances.self_delivery,
])
def test_lint_and_counts_on_hand_instances(make):
    graph = build_time_expanded_graph(make())
    text = export_lp(graph)
    assert lint_lp(text) == []
    names = variable_names(text)
    assert len(names) == oracles.lp_variable_count(graph, graph.infos)
    assert len(set(names)) == len(names)
    rows = constraint_names(text)
    assert len(rows) == oracles.lp_constraint_count(graph, graph.infos)
    assert len(set(rows)) == len(rows)


def test_lint_and_counts_with_caching_edges():
    graph = build_time_expanded_graph(caching_pair())
    text = export_lp(graph)
    assert lint_lp(text) == []
    assert len(variable_names(text)) == oracles.lp_variable_count(graph, graph.infos)
    assert len(constraint_names(text)) == oracles.lp_constraint_count(graph, graph.infos)


def test_weights_survive_scientific_notation():
    text = export_lp(build_time_expanded_graph(scientific_pair()))
    assert " - 1.5000000000000005e-05 a_0_" in text
    assert lint_lp(text) == []


PINNED_INSTANCES = {
    "chain3": instances.chain3,
    "star4": instances.star4,
    "crossing_pair2": lambda: instances.crossing_pair(2),
    "disjoint_pairs": instances.disjoint_pairs,
    "self_delivery": instances.self_delivery,
    "asymmetric_pair": instances.asymmetric_pair,
    "caching_pair": caching_pair,
    "scientific_pair": scientific_pair,
    "zero_weight_pair": zero_weight_pair,     # writes `+ 0.0 a_0_0`
    "paper1": lambda: generated("paper", 1),
    "paper8": lambda: generated("paper", 8),
    "paper24": lambda: generated("paper", 24),
}

# Recorded with the row-by-row exporter that built a (coefficient, name)
# tuple per term; the bytes are part of the file format.
PINNED_LP_SHA256 = {
    "chain3":
        "ce56e5451c660d48fffcc17e336cda804886139a1f22da561cb62bafbddab3c1",
    "star4":
        "d2023bb7078cb040cc322167af35bb971a6c00ec50678f15ac0f2a4d946143c4",
    "crossing_pair2":
        "5336150dfdd3b631a587ad61b94e575847dd56719e5110c2fc19595a2abb86ad",
    "disjoint_pairs":
        "d637b5f073763f263deeb1950e1993ce72bf8491aec90b2a1f7ec4171a3dd535",
    "self_delivery":
        "03b9b750ebb0b755f37f14a550bb1721b2dc62a32f9ca7ea8f44529d32b8a547",
    "asymmetric_pair":
        "110bc1b2a29c407973511873d8f7c39a62242b69da93ca056ed1f0abc1563f66",
    "caching_pair":
        "406c4aff5412bc97a34feffe0b7255a87b81fb49fc147dd0467f91c05999b1c9",
    "scientific_pair":
        "ad4175ecab3df86ad23f099bb7bb47095805fa47a0473e24e3ef0bc63f024821",
    "zero_weight_pair":
        "08b546dce1db4862083908f113229f3173583d1f3693afb9b20d833a387b96c8",
    "paper1":
        "28aa922135bd5042f964e0a94ceab896ed1e38a960ffa283625a90e3c326cbcc",
    "paper8":
        "2b0f9f6dbfcdb21ab6958e67308fea106be61ea4ad44d6eb6f8742cd8c9c8c93",
    "paper24":
        "baf2bad8b7476a2394993589105c47c19dba21641e9c4bba753ad1401825cf17",
}


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_export_bytes_pinned(name):
    text = export_lp(build_time_expanded_graph(PINNED_INSTANCES[name]()))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_LP_SHA256[name]


def test_lint_rejects_malformed_documents():
    assert lint_lp("Minimize\n obj: x\nEnd\n") == [
        "missing section 'subject to'", "missing section 'binaries'",
        "missing section 'bounds'"]
    bad_order = ("Minimize\n obj: P_0\nBinaries\n x\nSubject To\n"
                 " c: x <= 1\nBounds\n 0 <= P_0\nEnd\n")
    assert lint_lp(bad_order) == ["sections out of order"]
    undeclared = ("Minimize\n obj: P_0\nSubject To\n c1: y >= 1\n"
                  "Binaries\nBounds\n 0 <= P_0\nEnd\n")
    assert lint_lp(undeclared) == ["variable y is never declared binary or bounded"]
    bad_rhs = ("Minimize\n obj: P_0\nSubject To\n c1: P_0 >= q\n"
               "Binaries\nBounds\n 0 <= P_0\nEnd\n")
    assert lint_lp(bad_rhs) == ["malformed constraint row: 'c1: P_0 >= q'"]
    dup = ("Minimize\n obj: P_0\nSubject To\n c1: P_0 >= 0\n c1: P_0 >= 0\n"
           "Binaries\nBounds\n 0 <= P_0\nEnd\n")
    assert lint_lp(dup) == ["duplicate constraint name 'c1'"]


def one_row(row):
    return (f"Minimize\n obj: P_0\nSubject To\n {row}\n"
            "Binaries\nBounds\n 0 <= P_0\nEnd\n")


@pytest.mark.parametrize("rhs", ["1_000", "nan", "-inf", "Infinity", "inf",
                                 "0x10", "1e", "- 1", "+-1", "1 2",
                                 "\u0663", "\uff11", "1\u0663"])
def test_lint_rejects_right_hand_sides_that_are_no_lp_numbers(rhs):
    row = f"c1: P_0 >= {rhs}"
    assert lint_lp(one_row(row)) == [f"malformed constraint row: {row!r}"]
    assert _reference_lint_lp(one_row(row)) != []


@pytest.mark.parametrize("rhs", ["1", "-1", "+1", "0.5", ".5", "5.", "1e5",
                                 "2.5E-3", "-1e+22"])
def test_lint_accepts_right_hand_sides_that_are_lp_numbers(rhs):
    assert lint_lp(one_row(f"c1: P_0 >= {rhs}")) == []


# The token-by-token reference below accepts each edit; the exporter writes
# a sign with a space on each side, names its objective, and parts names by
# one space.
OUTSIDE_THE_FORM = ("Minimize\n obj: P_0\nSubject To\n c1: x + y >= 1\n"
                    "Binaries\n x y\n a b\nBounds\n 0 <= P_0\nEnd\n")


@pytest.mark.parametrize("line, edited, kind", [
    ("c1: x + y >= 1", "c1: x+y >= 1", "constraint row"),
    ("c1: x + y >= 1", "c1: + x >= 1", "constraint row"),
    ("c1: x + y >= 1", "c1: x - - y >= 1", "constraint row"),
    ("obj: P_0", "1x: P_0", "objective"),
    ("a b", "a  b", "binaries line"),
], ids=["joined-sign", "leading-plus", "double-minus", "objective-label",
        "binaries-double-space"])
def test_lint_rejects_lines_outside_the_exporter_form(line, edited, kind):
    text = OUTSIDE_THE_FORM.replace(line, edited)
    assert lint_lp(OUTSIDE_THE_FORM) == _reference_lint_lp(text) == []
    assert lint_lp(text) == [f"malformed {kind}: {edited!r}"]


# --- soundness against the token-by-token lint ---------------------------

_REF_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_REF_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_REF_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"                     # variable name
    rf"|{_REF_NUMBER}"                            # number, exponents intact
    r"|[-+]"                                      # sign
    r"|\S")                                       # anything else: flagged
_REF_RHS_RE = re.compile(rf"[-+]?{_REF_NUMBER}")
_REF_BOUND_FORMS = (("num", "<=", "name"), ("num", "<=", "name", "<=", "num"),
                    ("name", ">=", "num"), ("name", "<=", "num"),
                    ("name", "free"))
_REF_SENSES = ("<=", ">=", "=")


def _reference_lint_lp(text):
    """The token-by-token lint that predates the one-grammar lint.

    Kept as it was, except that a right-hand side must be an optionally
    signed LP number rather than anything `float` accepts, and that a bound
    line must take one of the forms in _REF_BOUND_FORMS. It accepts more
    than the exporter's form (`x+y`, `+ x`, `x - - y`, any objective label),
    so lint_lp must flag every document it flags, not repeat its messages.
    """
    errors = []
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("\\")]

    section_order = ["minimize", "subject to", "binaries", "bounds", "end"]
    indices = {}
    for k, ln in enumerate(lines):
        key = ln.lower()
        if key in section_order:
            if key in indices:
                errors.append(f"duplicate section {ln!r}")
            indices[key] = k
    for name in section_order:
        if name not in indices:
            errors.append(f"missing section {name!r}")
    if errors:
        return errors
    if [indices[name] for name in section_order] != sorted(indices.values()):
        errors.append("sections out of order")
        return errors

    referenced = set()
    declared = set()

    def parse_expr(expr, where):
        coef = None
        seen_terms = 0
        for tok in _REF_TOKEN_RE.findall(expr):
            if tok in ("+", "-"):
                if coef is not None:
                    errors.append(f"{where}: dangling coefficient")
                    return 0
                continue
            if _REF_NAME_RE.match(tok):
                referenced.add(tok)
                seen_terms += 1
                coef = None
                continue
            try:
                float(tok)
            except ValueError:
                errors.append(f"{where}: unparseable token {tok!r}")
                return 0
            if coef is not None:
                errors.append(f"{where}: two coefficients in a row")
                return 0
            coef = tok
        if coef is not None:
            errors.append(f"{where}: dangling coefficient")
        return seen_terms

    obj_lines = lines[indices["minimize"] + 1:indices["subject to"]]
    if not obj_lines:
        errors.append("empty objective")
    else:
        expr = " ".join(obj_lines)
        if ":" in expr:
            expr = expr.split(":", 1)[1]
        parse_expr(expr, "objective")

    row_names = set()
    for ln in lines[indices["subject to"] + 1:indices["binaries"]]:
        if ":" not in ln:
            errors.append(f"constraint without a name: {ln!r}")
            continue
        name, rest = ln.split(":", 1)
        name = name.strip()
        if not _REF_NAME_RE.match(name):
            errors.append(f"bad constraint name {name!r}")
        if name in row_names:
            errors.append(f"duplicate constraint name {name!r}")
        row_names.add(name)
        sense = None
        for candidate in _REF_SENSES:
            if candidate in rest:
                sense = candidate
                break
        if sense is None:
            errors.append(f"{name}: no relational operator")
            continue
        lhs, rhs = rest.rsplit(sense, 1)
        if not _REF_RHS_RE.fullmatch(rhs.strip()):
            errors.append(f"{name}: right-hand side {rhs.strip()!r} not numeric")
        if parse_expr(lhs, name) == 0:
            errors.append(f"{name}: no variables on the left-hand side")

    for ln in lines[indices["binaries"] + 1:indices["bounds"]]:
        for tok in ln.split():
            if not _REF_NAME_RE.match(tok):
                errors.append(f"bad binary name {tok!r}")
            declared.add(tok)

    for ln in lines[indices["bounds"] + 1:indices["end"]]:
        tokens = ln.split()
        names = [tok for tok in tokens if _REF_NAME_RE.match(tok) and tok != "free"]
        if not names:
            errors.append(f"bound line without a variable: {ln!r}")
        elif not any(_ref_bound_form(tokens, form) for form in _REF_BOUND_FORMS):
            errors.append(f"malformed bound line: {ln!r}")
        for tok in names:
            declared.add(tok)

    for var in sorted(referenced - declared):
        errors.append(f"variable {var} is never declared binary or bounded")
    return errors


def _ref_bound_form(tokens, form):
    if len(tokens) != len(form):
        return False
    for tok, want in zip(tokens, form):
        if want == "num":
            ok = _REF_RHS_RE.fullmatch(tok)
        elif want == "name":
            ok = _REF_NAME_RE.match(tok)
        else:
            ok = tok == want
        if not ok:
            return False
    return True


def one_bound(line):
    return (f"Minimize\n obj: P_0\nSubject To\n c1: P_0 >= 0\n"
            f"Binaries\nBounds\n {line}\nEnd\n")


@pytest.mark.parametrize("line", [
    "nan <= P_0 <= 1_000 * ?", "0 <= P_0 <= inf", "-inf <= P_0", "P_0",
    "0 <= P_0 <=", "P_0 >= 1_0", "P_0 <= x", "0 >= P_0", "P_0 = 1",
    "0 < P_0", "P_0 free 1", "free P_0", "- 1 <= P_0", "0 <= 2 P_0",
    "\u0663 <= P_0", "0 <= P_0 P_1", "0 <= P_0 >= 1", "P_0 >= 0 <= 1",
])
def test_lint_rejects_malformed_bound_lines(line):
    assert lint_lp(one_bound(line)) == [f"malformed bound line: {line!r}"]
    assert _reference_lint_lp(one_bound(line)) == lint_lp(one_bound(line))


@pytest.mark.parametrize("line", [
    "0 <= P_0", "-1.5 <= P_0 <= 2e3", "P_0 >= +1", "P_0 <= .5", "P_0 free",
    "0  <=\tP_0",
])
def test_lint_accepts_bound_lines_of_the_exporter_grammar(line):
    assert lint_lp(one_bound(line)) == _reference_lint_lp(one_bound(line)) == []


def test_lint_keeps_the_message_for_bound_lines_without_a_variable():
    for line in ("0 <= 1", "free", "<= 3"):
        assert lint_lp(one_bound(line)) == [
            f"bound line without a variable: {line!r}",
            "variable P_0 is never declared binary or bounded"]


LAYOUT_MESSAGES = ("missing section", "duplicate section", "sections out of order")


def assert_flags_what_the_reference_flags(text):
    """lint_lp flags every document the reference flags, and reports a
    broken section layout with the reference's own messages. It also returns
    the row-by-row lint's list (below), order included, once the messages
    for lines after End are dropped."""
    found = lint_lp(text)
    assert found or not _reference_lint_lp(text), text
    if found and found[0].startswith(LAYOUT_MESSAGES):
        assert found == _reference_lint_lp(text)
    assert ([m for m in found if not m.startswith("line after End: ")]
            == _row_by_row_lint_lp(text)), text


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_lint_matches_reference_on_exported_documents(name):
    text = export_lp(build_time_expanded_graph(PINNED_INSTANCES[name]()))
    assert lint_lp(text) == _reference_lint_lp(text) == []
    assert _row_by_row_lint_lp(text) == []


def _mutation_bases():
    scenarios = [instances.chain3(), instances.star4(), caching_pair(),
                 scientific_pair(), generated("micro", 3),
                 generated("paper", 8, horizon=12)]
    return [export_lp(build_time_expanded_graph(s)).split("\n") for s in scenarios]


MUTATION_BASES = _mutation_bases()
SECTIONS = ("Minimize", "Subject To", "Binaries", "Bounds", "End")
STRAY = list("*x1:=<>.e_E+- \t\n\\") + ["é", "٣", "ⅷ", " ", "<=", ">="]
ODD_RHS = ["1_000", "nan", "-inf", "Infinity", "inf", "+1", "-0", "1e5", ".5",
           "5.", "1e", "0x10", "٣", "- 1", "+-1", "", "1 2", "x", "1e-05"]
ODD_SENSES = ["", " ", "=<", "=>", "==", "<", ">", "<= <=", "≤", "= =", ">="]
ODD_NAMES = ["1x", "x.y", "a-b", "é", "_", "free", "x:y", "P_0", "a_0_0",
             "3 h_0_1", "+"]
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
SENSE_RE = re.compile(r"<=|>=|=")
ROW_RHS_RE = re.compile(r"( \S+: .* (?:<=|>=|=) )\S+$")    # group 1: all but rhs


def _mutate(data, lines):
    kind = data.draw(st.sampled_from([
        "delete", "duplicate", "swap_tokens", "stray", "coefficients",
        "sense", "bad_name", "reorder_sections", "rhs"]))
    k = data.draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    elif kind == "swap_tokens":
        tokens = line.split(" ")
        i = data.draw(st.integers(0, len(tokens) - 1))
        j = data.draw(st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
        lines[k] = " ".join(tokens)
    elif kind == "stray":
        at = data.draw(st.integers(0, len(line)))
        lines[k] = line[:at] + data.draw(st.sampled_from(STRAY)) + line[at:]
    elif kind == "coefficients":
        # one or two numbers before a name: a coefficient, or two in a row
        names = list(NAME_RE.finditer(line))
        if names:
            at = data.draw(st.sampled_from(names)).start()
            numbers = data.draw(st.lists(st.sampled_from(
                ["2", "0.5", "1e-05", "3.", "21.600000000000005"]),
                min_size=1, max_size=2))
            lines[k] = line[:at] + " ".join(numbers) + " " + line[at:]
    elif kind == "sense":
        lines[k] = SENSE_RE.sub(data.draw(st.sampled_from(ODD_SENSES)), line,
                                count=1)
    elif kind == "bad_name":
        names = list(NAME_RE.finditer(line))
        if names:
            m = data.draw(st.sampled_from(names))
            lines[k] = (line[:m.start()] + data.draw(st.sampled_from(ODD_NAMES))
                        + line[m.end():])
    elif kind == "reorder_sections":
        present = [i for i, ln in enumerate(lines) if ln in SECTIONS]
        if len(present) >= 2:
            i, j = data.draw(st.lists(st.sampled_from(present), min_size=2,
                                      max_size=2, unique=True))
            lines[i], lines[j] = lines[j], lines[i]
    elif kind == "rhs":
        for i in range(k, len(lines)):
            m = ROW_RHS_RE.match(lines[i])
            if m:
                lines[i] = m.group(1) + data.draw(st.sampled_from(ODD_RHS))
                break


def _line_edits(line):
    """Each single edit of one line that the sweep below tries."""
    for sense in ODD_SENSES:
        yield SENSE_RE.sub(sense, line, count=1)
    row = ROW_RHS_RE.match(line)
    if row:
        for rhs in ODD_RHS:
            yield row.group(1) + rhs
    names = list(NAME_RE.finditer(line))
    for m in names[:1] + names[-1:]:
        for odd in ODD_NAMES + ["2 3 " + m.group(), "0.5 " + m.group()]:
            yield line[:m.start()] + odd + line[m.end():]


def test_lint_flags_what_the_reference_flags_on_single_line_edits():
    lines = export_lp(build_time_expanded_graph(scientific_pair())).split("\n")
    for k, line in enumerate(lines):
        for edited in _line_edits(line):
            assert_flags_what_the_reference_flags(
                "\n".join(lines[:k] + [edited] + lines[k + 1:]))


@given(st.data())
@settings(max_examples=3000, deadline=None, derandomize=True)
def test_lint_flags_what_the_reference_flags_on_mutants(data):
    lines = list(data.draw(st.sampled_from(MUTATION_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, lines)
    assert_flags_what_the_reference_flags("\n".join(lines))


# the parts of a random row, and (EXPORTER_*) of a row of the exporter's form
ROW_NAMES = ["c1", "c_2", "1c", "", "c 1", "é"]
ROW_COLONS = [": ", ":", " : ", " "]
TERM_SIGNS = ["", "+ ", "- ", "+", "-", "+ - ", "* "]
TERM_COEFS = ["", "2 ", "2 3 ", "0.5 ", "1e-05 ", "1e ", "٣ ", "1_0 ", "2",
              ".5 "]
TERM_VARS = ["x", "P_0", "a_0_1", "e", "E5", "", "1x", "é"]
TERM_SEPS = [" ", "", "  ", "\t"]
ROW_SENSES = ["<= ", ">= ", "= ", "", "<=", "=< ", "<= <= ", "> "]
ROW_RHS = ["0", "1", "-1", "+1", "2.5e+3", "1_000", "nan", "٣", "", "x",
           "1 2", "- 1"]
EXTRA_BINARIES = ["x", "P_0", "e", "1x", "c1"]
EXPORTER_COEFS = ["", "2 ", "0.5 ", "1e-05 ", "21.600000000000005 "]
EXPORTER_VARS = ["x", "P_0"]  # declared by every document below
EXPORTER_RHS = ["0", "1", "-1", "+1", "2.5e+3"]
EXPORTER_BINARIES = ["x", "P_0", "e", "c1"]


def _random_row(rng):
    """Any row from the parts above, once or twice (a duplicate name)."""
    terms = "".join(rng.choice(TERM_SIGNS) + rng.choice(TERM_COEFS)
                    + rng.choice(TERM_VARS) + rng.choice(TERM_SEPS)
                    for _ in range(rng.randint(1, 5)))
    row = (f" {rng.choice(ROW_NAMES)}{rng.choice(ROW_COLONS)}{terms}"
           f"{rng.choice(ROW_SENSES)}{rng.choice(ROW_RHS)}\n")
    return row * rng.randint(1, 2)


def _exporter_row(rng):
    """A row of the form `export_lp` writes, over declared names."""
    terms = [rng.choice(EXPORTER_COEFS) + rng.choice(EXPORTER_VARS)
             for _ in range(rng.randint(1, 5))]
    lhs = rng.choice(["", "- "]) + terms[0] + "".join(
        rng.choice([" + ", " - "]) + term for term in terms[1:])
    return (f" {rng.choice(ROW_NAMES[:2])}: {lhs} "
            f"{rng.choice(['<=', '>=', '='])} {rng.choice(EXPORTER_RHS)}\n")


def test_lint_flags_what_the_reference_flags_on_random_rows():
    # one document in three holds a row of the exporter's form, which both
    # lints must accept; the others draw every part at random, and the
    # reference rejects nearly all of them
    rng = random.Random(2026)
    accepted = 0
    for k in range(600):
        exporter_form = k % 3 == 0
        row = _exporter_row(rng) if exporter_form else _random_row(rng)
        names = EXPORTER_BINARIES if exporter_form else EXTRA_BINARIES
        binaries = " ".join(rng.choices(names, k=rng.randint(0, 3)))
        text = ("Minimize\n obj: P_0\nSubject To\n c0: x + 2 P_0 >= 1\n"
                f"{row}Binaries\n x {binaries}\n"
                "Bounds\n 0 <= P_0\nEnd\n")
        if exporter_form:
            assert lint_lp(text) == _reference_lint_lp(text) == [], text
        accepted += not _reference_lint_lp(text)
        assert_flags_what_the_reference_flags(text)
    assert accepted >= 600 // 3


# --- message for message against the row-by-row lint ----------------------

# lint_lp as it was before its one verdict per section, copied verbatim with
# the patterns it read. It words every message line by line, so lint_lp must
# return its list exactly, order included, apart from the messages for lines
# after End, which it did not read (assert_flags_what_the_reference_flags).
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"  # exponents intact
_RHS = rf"[-+]?{_NUMBER}"
_NAME_RE = re.compile(rf"^{_NAME}$")
# A linear expression as export_lp writes it: terms are `[coefficient ]name`,
# split by " + " or " - ", the first optionally led by "- ".
_EXPR = rf"(?:- )?(?:{_NUMBER} )?{_NAME}(?: [-+] (?:{_NUMBER} )?{_NAME})*"
# The objective is one line, `name: expression`; a constraint row adds its
# sense and right-hand side. Group 1 of either is the name, group 2 the
# expression.
_OBJECTIVE_RE = re.compile(rf"({_NAME}): ({_EXPR})")
_ROW_RE = re.compile(rf"({_NAME}): ({_EXPR}) (?:<=|>=|=) {_RHS}")
_BINARIES_RE = re.compile(rf"{_NAME}(?: {_NAME})*")
# A Bounds line, tokens one space apart: `lo <= name`, `lo <= name <= hi`,
# `name >= lo`, `name <= hi` or `name free`, each bound a right-hand side.
# Only lint_lp needs it, so it is compiled there, on first use.
_BOUND = (rf"{_RHS} <= {_NAME}(?: <= {_RHS})?"
          rf"|{_NAME} (?:[<>]= {_RHS}|free)")


def _row_by_row_lint_lp(text: str) -> list[str]:
    """Validate an LP document; returns a list of problems, empty when clean.

    Checks the section layout, that the objective, every constraint row and
    every Binaries line take the form export_lp writes (one regular
    expression each), that constraint names are unique, and that every
    referenced variable is declared binary or carries an explicit bound. A
    right-hand side, and each bound of a Bounds line, is an optionally
    signed number of the coefficient grammar. A line outside its section's
    form gets one message that quotes it.
    """
    errors: list[str] = []
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("\\")]

    section_order = ["minimize", "subject to", "binaries", "bounds", "end"]
    indices = {}
    for k, ln in enumerate(lines):
        key = ln.lower()
        if key in section_order:
            if key in indices:
                errors.append(f"duplicate section {ln!r}")
            indices[key] = k
    for name in section_order:
        if name not in indices:
            errors.append(f"missing section {name!r}")
    if errors:
        return errors
    if [indices[name] for name in section_order] != sorted(indices.values()):
        errors.append("sections out of order")
        return errors

    referenced: set[str] = set()    # also holds signs and coefficients
    declared: set[str] = set()

    objective = lines[indices["minimize"] + 1:indices["subject to"]]
    if not objective:
        errors.append("empty objective")
    for k, ln in enumerate(objective):
        match = _OBJECTIVE_RE.fullmatch(ln)
        if match is None or k:      # the objective is one line
            errors.append(f"malformed objective: {ln!r}")
        else:
            referenced.update(match[2].split())

    row_names = set()
    for ln in lines[indices["subject to"] + 1:indices["binaries"]]:
        match = _ROW_RE.fullmatch(ln)
        if match is None:
            errors.append(f"malformed constraint row: {ln!r}")
            continue
        name, lhs = match.groups()
        if name in row_names:
            errors.append(f"duplicate constraint name {name!r}")
        row_names.add(name)
        referenced.update(lhs.split())

    for ln in lines[indices["binaries"] + 1:indices["bounds"]]:
        if _BINARIES_RE.fullmatch(ln):
            declared.update(ln.split())
        else:
            errors.append(f"malformed binaries line: {ln!r}")

    bound_line = re.compile(_BOUND).fullmatch   # re caches the compiled form
    for ln in lines[indices["bounds"] + 1:indices["end"]]:
        tokens = ln.split()
        names = [tok for tok in tokens if _NAME_RE.match(tok) and tok != "free"]
        if not names:
            errors.append(f"bound line without a variable: {ln!r}")
        elif not bound_line(" ".join(tokens)):
            errors.append(f"malformed bound line: {ln!r}")
        declared.update(names)

    for var in sorted(referenced - declared):
        if _NAME_RE.match(var):     # skip the signs and coefficients
            errors.append(f"variable {var} is never declared binary or bounded")
    return errors


def test_lint_words_interleaved_row_messages_in_row_order():
    rows = ["c1: x >= 1", "c1: x >= 1", "bad row", "c1: x >= 1"]
    text = ("Minimize\n obj: P_0\nSubject To\n"
            + "".join(f" {row}\n" for row in rows)
            + "Binaries\nBounds\n 0 <= P_0\nEnd\n")
    assert lint_lp(text) == [
        "duplicate constraint name 'c1'",
        "malformed constraint row: 'bad row'",
        "duplicate constraint name 'c1'",
        "variable x is never declared binary or bounded"]


def test_lint_reports_each_line_after_end():
    clean = export_lp(build_time_expanded_graph(instances.asymmetric_pair()))
    assert lint_lp(clean) == []
    text = clean + " junk ::: >= q\n\\ a comment\n\n c1: y >= 1\n"
    assert lint_lp(text) == ["line after End: 'junk ::: >= q'",
                             "line after End: 'c1: y >= 1'"]
    # after the Bounds messages, before the undeclared variables
    text = one_bound("P_0 = 1").replace(" c1: P_0 >= 0", " c1: z >= 0") + "x\n"
    assert lint_lp(text) == ["malformed bound line: 'P_0 = 1'",
                             "line after End: 'x'",
                             "variable z is never declared binary or bounded"]

