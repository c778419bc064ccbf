"""Residual reports and deterministic JSON emission.

Stdout JSON must be byte-identical across runs for fixed inputs, so floats
are printed with 17 significant digits (exact double round-trip) and wall
times are kept out of the structured output (they go to stderr only).

``emit_json`` serves every command's documents.  It prints a list of
scalars on one line, and a short row of a list (a trajectory point, a row
of a coefficient table) in one step, without recursing into its entries;
the fully recursive emitter it replaced is the bitwise reference
``loop_emit_json`` in ``tests/reference.py``.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

from .calculus import EPoint

__all__ = ["ResidualTracker", "emit_json", "fmt_float"]


class ResidualTracker:
    """One named residual check: the largest |residual| over the samples,
    the sample it came from, and the tolerance it must stay within."""

    def __init__(self, name: str, tol: float):
        self.name = name
        self.tol = tol
        self.max_residual = 0.0
        self.worst_point = None

    def update(self, value: float, point: EPoint):
        # NaN compares false with everything; ``value != value`` keeps it
        # from being dropped, and once it is the max no number replaces it.
        value = abs(value)
        if value >= self.max_residual or value != value:
            self.max_residual = value
            self.worst_point = point

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def to_json_obj(self):
        obj = {
            "name": self.name,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "passed": self.passed,
        }
        if self.worst_point is not None:
            obj["worst_point"] = {
                "x": list(self.worst_point.x),
                "y0": self.worst_point.y,
            }
        return obj


def fmt_float(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x
    if x != x:
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


_SCALARS = (int, float, bool, type(None))


def _scalar(obj) -> str:
    """JSON text of a number, a bool or None."""
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    return str(obj)


def _short_row(row, pad):
    """The text of ``row`` at indent ``pad`` when it is a short row, a list
    whose entries are all scalars or flat lists of scalars (a trajectory
    point ``[t, [state]]``, a row of a table), else None: what
    :func:`emit_json` prints for it, built in one step."""
    if not isinstance(row, (list, tuple)):
        return None
    texts = []
    flat = True
    for v in row:
        if isinstance(v, _SCALARS):
            texts.append(_scalar(v))
        elif (isinstance(v, (list, tuple))
              and all(map(isinstance, v, repeat(_SCALARS)))):
            flat = False
            texts.append("[" + ", ".join(map(_scalar, v)) + "]")
        else:
            return None
    if flat:
        return "[" + ", ".join(texts) + "]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"


def emit_json(obj, indent: int = 0) -> str:
    """Recursive JSON emitter with pinned float formatting and key order
    as built (insertion order), so output is reproducible byte-for-byte.
    A list of scalars is printed on one line, and a short row of a list
    (:func:`_short_row`) without recursing into it."""
    if isinstance(obj, _SCALARS):
        return _scalar(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {emit_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(map(isinstance, obj, repeat(_SCALARS))):
            return "[" + ", ".join(map(_scalar, obj)) + "]"
        items = []
        for v in obj:
            text = _short_row(v, inner)
            items.append(emit_json(v, indent + 1) if text is None else text)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(str(obj))
