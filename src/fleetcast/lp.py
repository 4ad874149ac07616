"""Mixed-integer program export in the textual LP format, plus a lint pass.

The export is one-way: it writes the minimum-energy dissemination program for
an external solver but never reads solutions back. Variables follow a fixed
naming scheme over info ids, edge indices and vertex ids:

    a_{i}_{e}  edge e carries information i            (binary)
    h_{i}_{v}  vertex v forwards information i         (binary)
    b_{i}_{v}  vertex v transmits information i        (binary)
    d_{i}_{v}  vertex v is i's delivery copy           (binary)
    P_{v}      transmission cost of vertex v           (continuous, >= 0)

Sections are emitted in the order Minimize / Subject To / Binaries / Bounds /
End, one constraint per line. The delivery disjunction (a destination copy
receives iff it forwards or delivers) is linearized as the four rows
sum >= h, sum >= d, sum <= h + d, sum <= 1 over its incoming activations.
Note one corner: a destination copy that could gather the information itself
still needs an incoming activation here, exactly as in the base formulation,
whereas the in-repo checker serves it for free.
"""

from __future__ import annotations

import re
from itertools import chain, repeat
from operator import itemgetter

from .errors import LpSizeError
from .graph import KIND_CACHING, TimeExpandedGraph
from .jsonio import check_int
from .scenario import CACHE_SINGLE

LP_HEADER = "\\ fleetcast-lp/1"

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"  # exponents intact
_RHS = rf"[-+]?{_NUMBER}"
_NAME_RE = re.compile(rf"^{_NAME}$")
# A linear expression as export_lp writes it: terms are `name` or
# `coefficient name`, split by " + " or " - ", the first optionally led by
# "- ". A name never starts with a digit or a dot; a number always does.
_TERM = rf"(?:{_NAME}|{_NUMBER} {_NAME})"
_EXPR = rf"(?:- )?{_TERM}(?: [-+] {_TERM})*"
# The objective is one line, `name: expression`, group 1 the name and
# group 2 the expression. A constraint row adds its sense and right-hand
# side; its name is what precedes its first ": ".
_OBJECTIVE_RE = re.compile(rf"({_NAME}): ({_EXPR})")
_ROW_RE = re.compile(rf"{_NAME}: {_EXPR} (?:<=|>=|=) {_RHS}")
_BINARIES_RE = re.compile(rf"{_NAME}(?: {_NAME})*")
# A Bounds line, tokens one space apart: `lo <= name`, `lo <= name <= hi`,
# `name >= lo`, `name <= hi` or `name free`, each bound a right-hand side.
# Only lint_lp needs it, so it is compiled there, on first use.
_BOUND = (rf"{_RHS} <= {_NAME}(?: <= {_RHS})?"
          rf"|{_NAME} (?:[<>]= {_RHS}|free)")


def export_lp(graph: TimeExpandedGraph, infos=None,
              max_variables: int = 500_000) -> str:
    """Serialize the instance as a minimize LP document."""
    infos = graph.served(infos)
    n_vertices = graph.vertex_count
    n_edges = len(graph.edge_tail)
    horizon = graph.horizon

    n_vars = (len(infos) * n_edges + 2 * len(infos) * n_vertices
              + sum(len(i.destinations) for i in infos) * horizon
              + n_vertices)
    if n_vars > check_int(max_variables, "max_variables", ValueError):
        raise LpSizeError(
            f"instance needs {n_vars} variables, cap is {max_variables}")

    kind = graph.edge_kind
    out_edges, in_edges = graph.out_edges, graph.in_edges   # in index order

    # Each variable name is built once; a row is its unit-coefficient names
    # joined by " + ", then its other terms, each a _lead and a name.
    P = [f"P_{v}" for v in range(n_vertices)]
    a_of, b_of, binaries = [], [], []
    lines = [LP_HEADER, "Minimize", f" obj: {' + '.join(P)}", "Subject To"]
    row = lines.append

    for info in infos:
        i = info.id
        a = [f"a_{i}_{e}" for e in range(n_edges)]
        h = [f"h_{i}_{v}" for v in range(n_vertices)]
        b = [f"b_{i}_{v}" for v in range(n_vertices)]
        dest_uavs = sorted(info.destinations)
        d = {v: f"d_{i}_{v}" for u in dest_uavs
             for v in range(u * horizon, (u + 1) * horizon)}
        a_of.append(a)
        b_of.append(b)
        binaries += a
        binaries += h
        binaries += b
        binaries += d.values()
        sources = graph.source_vertices(info)
        source_set = set(sources)
        for v in range(n_vertices):
            outs = out_edges[v]
            ins = " + ".join(map(a.__getitem__, in_edges[v]))
            ins_ = f"{ins} " if ins else ""     # ready for a next term
            if v not in source_set:
                sends = " + ".join(map(a.__getitem__, outs))
                sends_ = f"{sends} " if sends else ""
                if outs:
                    row(f" c1_{i}_{v}: {sends_}{_lead(-len(outs))}{h[v]} <= 0")
                row(f" c2_{i}_{v}: {sends_}- {h[v]} >= 0")
            if v not in d:
                row(f" c3_{i}_{v}: {ins_}- {h[v]} = 0")
            else:
                row(f" c4a_{i}_{v}: {ins_}- {h[v]} >= 0")
                row(f" c4b_{i}_{v}: {ins_}- {d[v]} >= 0")
                row(f" c4c_{i}_{v}: {ins_}- {h[v]} - {d[v]} <= 0")
                if ins:
                    row(f" c4d_{i}_{v}: {ins} <= 1")
        for u in dest_uavs:
            copies = " + ".join([d[v] for v in range(u * horizon, (u + 1) * horizon)])
            row(f" c5_{i}_{u}: {copies} = 1")
        sends = " + ".join([a[e] for v in sources for e in out_edges[v]])
        # no source can send: the row reads 0 P_0 >= 1, unsatisfiable
        row(f" c6_{i}: {sends or '0 P_0'} >= 1")

    if infos:
        for v in range(n_vertices):
            row(f" c7_{v}: {' + '.join([b[v] for b in b_of])} <= 1")
        conn_out = graph.conn_out   # (edge, head, weight), in index order
        for info, a, b in zip(infos, a_of, b_of):
            i = info.id
            for v, conn in enumerate(conn_out):
                if conn:
                    row(f" c8_{i}_{v}: {' + '.join([a[e] for e, _, _ in conn])} "
                        f"{_lead(-len(conn))}{b[v]} <= 0")
        for t in range(horizon):  # layer t's tails by UAV: edge-index order
            layer = [e for e, _, _ in chain.from_iterable(conn_out[t::horizon])]
            if layer:
                row(f" c9_{t}: {' + '.join([a[e] for a in a_of for e in layer])} "
                    f"<= {graph.channels!r}")
        for v in range(n_vertices):
            for e, _, w in conn_out[v]:
                lead = _lead(-w)    # the same for every information
                terms = f" {lead}".join([a[e] for a in a_of])
                row(f" c10_{v}_{e}: {P[v]} {lead}{terms} >= 0")
        if graph.cache_capacity == CACHE_SINGLE:
            for e in range(n_edges):
                if kind[e] == KIND_CACHING:
                    row(f" ce_{e}: {' + '.join([a[e] for a in a_of])} <= 1")

    row("Binaries")
    for k in range(0, len(binaries), 8):
        row(" " + " ".join(binaries[k:k + 8]))
    row("Bounds")
    lines += [f" 0 <= {p}" for p in P]
    lines += ("End", "")  # the empty last line ends the text with "\n"
    return "\n".join(lines)


def _lead(coef) -> str:
    """What precedes the name in a term after the first: `+ ` or `- ` by
    sign, then `repr(abs(coef))` and a space unless the magnitude is 1."""
    sign = "+ " if coef >= 0 else "- "
    mag = abs(coef)
    return sign if mag == 1 else f"{sign}{mag!r} "


def lint_lp(text: str) -> list[str]:
    """Validate an LP document; returns a list of problems, empty when clean.

    Checks the section layout, that the objective, every constraint row and
    every Binaries line take the form export_lp writes (one regular
    expression each), that constraint names are unique, and that every
    referenced variable is declared binary or carries an explicit bound. A
    right-hand side, and each bound of a Bounds line, is an optionally
    signed number of the coefficient grammar. A line outside its section's
    form, or after End, gets one message that quotes it.
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

    referenced: set[str] = set()    # also holds other tokens: signs, numbers
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

    # A section of well-formed lines (and, for rows, unique names) takes its
    # verdict and its names from passes that run no bytecode per line. The
    # loops that word the messages run only on a section that fails them.
    # A row's tokens after its name include its sense and right-hand side.
    rows = lines[indices["subject to"] + 1:indices["binaries"]]
    if (all(map(_ROW_RE.fullmatch, rows)) and len(rows) == len(set(
            map(itemgetter(0), map(str.partition, rows, repeat(": ")))))):
        referenced.update(chain.from_iterable(map(str.split, map(
            itemgetter(2), map(str.partition, rows, repeat(": "))))))
    else:
        row_names = set()
        for ln in rows:
            if _ROW_RE.fullmatch(ln) is None:
                errors.append(f"malformed constraint row: {ln!r}")
                continue
            name, _, rest = ln.partition(": ")
            if name in row_names:
                errors.append(f"duplicate constraint name {name!r}")
            row_names.add(name)
            referenced.update(rest.split())

    binaries = lines[indices["binaries"] + 1:indices["bounds"]]
    if all(map(_BINARIES_RE.fullmatch, binaries)):
        declared.update(chain.from_iterable(map(str.split, binaries)))
    else:
        for ln in binaries:
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

    for ln in lines[indices["end"] + 1:]:
        errors.append(f"line after End: {ln!r}")

    for var in sorted(referenced - declared):
        if _NAME_RE.match(var):     # skip the tokens that are no names
            errors.append(f"variable {var} is never declared binary or bounded")
    return errors
