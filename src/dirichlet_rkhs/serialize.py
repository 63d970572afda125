"""Deterministic text emission and fixture file handling.

Every float crossing the process boundary goes through format_float, which
prints 17 significant digits (enough to round-trip a double exactly) with a
lowercase exponent, so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError
from .spaces import HalfPlanePoint, PointSequence


def format_float(x: float) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise DomainError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def _leaf(v) -> str:
    """A value that is not a dict, list or tuple, as JSON text."""
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (complex, np.complexfloating)):
        return f"[{format_float(v.real)}, {format_float(v.imag)}]"
    if isinstance(v, str):
        return json.dumps(v)
    raise DomainError(f"cannot serialize value of type {type(v).__name__}")


def _render(obj, indent: int) -> str:
    """obj as the text of emit_json at nesting depth indent: dicts and
    lists that hold a dict or list one item a line, other lists on one
    line."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * indent
        return "{\n" + ",\n".join([
            f"{pad}  {json.dumps(str(key))}: {_render(val, indent + 1)}"
            for key, val in obj.items()]) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            # a finite Python float, the bulk of every payload, is
            # format_float inline; NaN, inf and every other type go
            # through _leaf
            return "[" + ", ".join([
                format(v, ".17g") if type(v) is float and math.isfinite(v) else _leaf(v)
                for v in obj]) + "]"
        pad = "  " * indent
        return "[\n" + pad + "  " + (",\n" + pad + "  ").join([
            _render(val, indent + 1) for val in obj]) + "\n" + pad + "]"
    return _leaf(obj)


def emit_json(obj) -> str:
    """Render a report dict as stable, human-readable JSON (trailing newline)."""
    return _render(obj, 0) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if v is None:
        return ""
    return str(v)


def emit_csv(header: list, rows: list) -> str:
    """Render rows as CSV with a header line; plain commas, newline rows."""
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        if len(row) != len(header):
            raise DomainError(f"row width {len(row)} does not match header {len(header)}")
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_complex_pair(text: str) -> complex:
    """Parse the command-line complex format "re,im"."""
    pieces = text.split(",")
    if len(pieces) != 2:
        raise DomainError(f"expected re,im but got {text!r}")
    try:
        return complex(float(pieces[0]), float(pieces[1]))
    except ValueError as exc:
        raise DomainError(f"bad complex literal {text!r}: {exc}") from None


def load_point_sequence(path: str) -> PointSequence:
    """Read a JSON array of [sigma, t] pairs as a point sequence."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise DomainError(f"{path}: expected a JSON array of [sigma, t] pairs")
    points = []
    for i, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)):
            raise DomainError(f"{path}: entry {i} is not a [sigma, t] number pair")
        points.append(HalfPlanePoint(float(entry[0]), float(entry[1])))
    return PointSequence(tuple(points))


def dump_point_sequence(seq: PointSequence) -> str:
    return emit_json([[p.sigma, p.t] for p in seq.points])


def load_complex_list(path: str) -> list[complex]:
    """Read a JSON array of [re, im] pairs (targets, polynomial coefficients)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise DomainError(f"{path}: expected a JSON array of [re, im] pairs")
    out = []
    for i, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(v, (int, float)) and math.isfinite(v)
                           for v in entry)):
            raise DomainError(f"{path}: entry {i} is not a finite [re, im] number pair")
        out.append(complex(float(entry[0]), float(entry[1])))
    return out
