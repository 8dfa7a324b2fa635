"""Deterministic JSON emission with pinned float formatting.

Floats are printed with %.17g so identical inputs always produce
byte-identical artifacts; dict insertion order is preserved (all producers
build their dicts deterministically).
"""

from __future__ import annotations

import json
import math

__all__ = ["dumps"]


def _is_finite_float_list(obj) -> bool:
    """True when every item is a finite Python float: such a list is emitted
    with one join, text-identical to the item-by-item path below (which also
    raises for a non-finite item)."""
    return all(type(v) is float for v in obj) and all(map(math.isfinite, obj))


def _emit(obj, parts: list, indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} in JSON artifact")
        parts.append(f"{obj:.17g}")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        if _is_finite_float_list(obj):
            parts.append("[\n" + pad + f",\n{pad}".join([f"{v:.17g}" for v in obj]))
            parts.append("\n" + close_pad + "]")
            return
        parts.append("[\n")
        for i, item in enumerate(obj):
            parts.append(pad)
            _emit(item, parts, indent, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(close_pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            parts.append(pad + json.dumps(str(key)) + ": ")
            _emit(value, parts, indent, level + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(close_pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    parts: list = []
    _emit(obj, parts, indent, 0)
    return "".join(parts) + "\n"
