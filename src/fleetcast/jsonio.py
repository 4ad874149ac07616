"""Canonical JSON helpers shared by the scenario/plan/report file formats.

All files are written in one canonical form, `json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False)` plus a trailing newline, so that identical
payloads serialize to byte-identical documents.
Every document carries a `format` field naming its schema and version.
`check_int` and `check_number` are the one copy of the integer and number
rules that file contents and constructor arguments are checked against.
"""

from __future__ import annotations

import json
from itertools import chain
from math import isfinite
from pathlib import Path

from .errors import FormatError


def _is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(value, what, error, low=None, high=None) -> int:
    """`value` if it is a JSON integer within `low`..`high`; else `error`."""
    if not _is_int(value):
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be at least {low}, got {value!r}")
    if high is not None and value > high:
        raise error(f"{what} must be at most {high}, got {value!r}")
    return value


def check_number(value, what, error, positive=False) -> float:
    """`value` as a float if it is a finite JSON number, above 0 if
    `positive`; else raise `error`. A bool is not a number.
    """
    if type(value) is not float:    # nearly every value is: skip the type test
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error(f"{what} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise error(f"{what} {value!r} is out of range") from None
    if not isfinite(value) or positive and value <= 0:
        raise error(f"{what} must be {'positive and ' if positive else ''}"
                    f"finite, got {value!r}")
    return value


def _int_key(key):
    """The int an object key spells in canonical decimal text, else None."""
    try:
        value = int(key)
    except (TypeError, ValueError):
        return None
    return value if str(value) == key else None


# CPython writes any indented JSON with its pure-Python encoder; the C one
# writes compact JSON only. `canonical_dumps` spells out the indented form
# itself and hands the C encoder the arrays that carry the bulk of a file.
_encode_compact = json.JSONEncoder(allow_nan=False).encode
_encode_str = json.encoder.encode_basestring_ascii
_NUMBERS = frozenset((int, float))
_ARRAYS = frozenset((list, tuple))


def canonical_dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)` plus a
    trailing newline, character for character."""
    return _text(obj, "\n") + "\n"


def _text(obj, newline) -> str:
    """The indented JSON text of `obj`; `newline` is a line break plus the
    indentation of the line `obj` starts on."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not isfinite(obj):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        depth = _numeric_depth(obj)
        if depth:
            return _reindent(_encode_compact(obj), depth, newline)
        items = [_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_key(key)}: {_text(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(key) -> str:
    """An object key, quoted as the JSON encoder quotes it."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_text(key, "")}"'    # a scalar's text needs no escape
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _numeric_depth(items) -> int:
    """How many lists deep the leaves of the non-empty list `items` sit if
    every leaf is an int or a float, all at one depth, and no list on the
    way is empty; else 0. Bools, int and float subclasses count as no
    number. One pass per level, not per item, keeps the test cheap.
    """
    depth = 1
    while True:
        kinds = set(map(type, items))
        if kinds <= _NUMBERS:
            return depth
        if not (kinds <= _ARRAYS and all(items)):
            return 0
        items = list(chain.from_iterable(items))
        depth += 1


def _reindent(text, depth, newline) -> str:
    """The compact `text` of a list whose number leaves all sit `depth`
    lists deep, indented as after `newline`. A number literal holds no
    bracket, comma or space, so each bracket run and ", " is a boundary.
    """
    indents = [newline + "  " * level for level in range(depth + 1)]
    body = text[depth:-depth]
    for closed in range(depth - 1, 0, -1):    # the longest runs first
        body = body.replace(
            "]" * closed + ", " + "[" * closed,
            "".join(indents[depth - i] + "]" for i in range(1, closed + 1))
            + "," + indents[depth - closed]
            + "".join("[" + indents[depth - closed + i]
                      for i in range(1, closed + 1)))
    body = body.replace(", ", "," + indents[depth])
    return ("".join("[" + indents[level] for level in range(1, depth + 1))
            + body
            + "".join(indents[level] + "]" for level in range(depth - 1, -1, -1)))


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path, expected_format: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"),
                         parse_constant=_no_constant)
    except ValueError as exc:   # also not UTF-8, or an integer too long
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    found = obj.get("format")
    if found != expected_format:
        raise FormatError(
            f"{path}: expected format {expected_format!r}, found {found!r}")
    return obj
