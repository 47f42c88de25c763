"""Strict reading of ordopt's JSON input: catalogs, queries, cost parameters
and plan documents.  Values of the wrong type are rejected, never coerced: a
boolean is not a number, a string is not a list, numbers must be finite and
integers at most 2**53 (beyond it, floats and so estimates lose integers).
Every message starts with the path of the offending node.

A path is a string, or a lazy pair of a parent path and a step, a field name
or a list index: `(("plan", "children"), 0)` is `plan.children[0]`.  Every
reader takes either form, and only `fail` spells a path out, so the paths of
a document that passes every check are never built as text.
"""

from __future__ import annotations

import json
import math

from .errors import ParseError, TooLarge, ValidationError

MAX_INT = 2**53
_STR = frozenset([str])


def spell(path) -> str:
    """The text of a path; a string is its own."""
    steps = []
    while type(path) is tuple:
        path, step = path
        steps.append(f"[{step}]" if type(step) is int else f".{step}")
    return path + "".join(reversed(steps))


def fail(path, msg: str) -> ValidationError:
    return ValidationError(f"{spell(path)}: {msg}")


def read_json(source, what: str):
    """Parse JSON text or bytes; any other value is taken as already parsed."""
    if not isinstance(source, (bytes, str)):
        return source
    try:
        return json.loads(source)
    except ValueError as exc:  # malformed JSON, bad encoding, too many digits
        raise ParseError(f"malformed {what} JSON: {exc}") from None
    except RecursionError:
        raise TooLarge(f"{what} JSON is nested too deeply to read") from None


def fields(doc, path, allowed) -> dict:
    """`doc` itself, if it is an object with no field outside `allowed`, a
    set or a dict's keys."""
    if not isinstance(doc, dict):
        raise fail(path, "expected an object")
    if not doc.keys() <= allowed:
        raise fail(path, f"unknown fields {sorted(doc.keys() - allowed)}")
    return doc


def array(value, path) -> list:
    if not isinstance(value, list):
        raise fail(path, f"expected a list, got {value!r}")
    return value


def integer(value, path, lo: int = 1, hi: int = MAX_INT) -> int:
    """An integer in [lo, hi]; by default a positive one."""
    if type(value) is not int or not lo <= value <= hi:  # a bool is not an int here
        raise fail(path, f"expected an integer in [{lo}, {hi}], got {value!r}")
    return value


def number(value, path, lo: float, hi: float = math.inf, *, lo_open: bool = False):
    """A finite number in [lo, hi], or in (lo, hi] when `lo_open`."""
    numeric = type(value) is float and math.isfinite(value) or type(value) is int and abs(value) <= MAX_INT
    if not numeric or not lo <= value <= hi or (lo_open and value == lo):
        raise fail(path, f"expected a finite number in {'(' if lo_open else '['}{lo:g}, {hi:g}], got {value!r}")
    return value


def boolean(value, path) -> bool:
    if not isinstance(value, bool):
        raise fail(path, f"expected a boolean, got {value!r}")
    return value


def name(value, path) -> str:
    if not isinstance(value, str) or not value:
        raise fail(path, f"expected a non-empty name, got {value!r}")
    return value


def within(attrs, available, path, where: str) -> None:
    if not attrs <= available:
        raise fail(path, f"attributes {sorted(attrs - available)} not in {where}")


def attr_list(value, path, *, nonempty: bool = False) -> tuple[str, ...]:
    """A list of distinct non-empty attribute names, in document order."""
    if type(value) is not list or not _STR.issuperset(map(type, value)) or "" in value:
        raise fail(path, "expected a list of non-empty attribute names")
    if len(set(value)) != len(value):
        raise fail(path, "duplicate attribute")
    if nonempty and not value:
        raise fail(path, "expected at least one attribute")
    return tuple(value)
