"""Canonical JSON helpers shared by the scenario/plan/report file formats.

All files are written with sorted keys, two-space indentation and a trailing
newline so that identical payloads serialize to byte-identical documents.
Every document carries a `format` field naming its schema and version.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FormatError


def _is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


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


def read_json(path, expected_format: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at top level")
    found = obj.get("format")
    if found != expected_format:
        raise FormatError(
            f"{path}: expected format {expected_format!r}, found {found!r}")
    return obj
