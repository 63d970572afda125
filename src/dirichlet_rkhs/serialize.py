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


def _emit(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            parts.append(f"{pad}  {json.dumps(str(key))}: ")
            _emit(val, parts, indent + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            parts.append("[")
            for i, val in enumerate(obj):
                _emit(val, parts, indent)
                if i + 1 < len(obj):
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for i, val in enumerate(obj):
                parts.append(pad + "  ")
                _emit(val, parts, indent + 1)
                parts.append(",\n" if i + 1 < len(obj) else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        parts.append(f"[{format_float(obj.real)}, {format_float(obj.imag)}]")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise DomainError(f"cannot serialize value of type {type(obj).__name__}")


def emit_json(obj) -> str:
    """Render a report dict as stable, human-readable JSON (trailing newline)."""
    parts: list = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


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
