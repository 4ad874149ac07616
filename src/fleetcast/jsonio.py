"""Canonical JSON helpers shared by the scenario/plan/report file formats.

All files are written with sorted keys, two-space indentation and a trailing
newline so that identical payloads serialize to byte-identical documents.
Every document carries a `format` field naming its schema and version.
`check_int` and `check_number` are the one copy of the integer and number
rules that file contents and constructor arguments are checked against.
"""

from __future__ import annotations

import json
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


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path, expected_format: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text, parse_constant=_no_constant)
    except ValueError as exc:   # also an integer too long to convert
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    found = obj.get("format")
    if found != expected_format:
        raise FormatError(
            f"{path}: expected format {expected_format!r}, found {found!r}")
    return obj
