"""Deterministic JSON with 17-significant-digit floats.

Reports must round-trip byte-for-byte: floats are rendered with %.17g so a
parse/re-serialize cycle reproduces the exact bytes, and object keys are
emitted in sorted order.
"""

from __future__ import annotations

import json
import math

__all__ = ["dumps"]


def _render(obj, level: int) -> str:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("reports must not contain NaN or infinity")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            f"{pad}{json.dumps(str(key))}: {_render(value, level + 1)}"
            for key, value in sorted(obj.items())
        )
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{pad}{_render(value, level + 1)}" for value in obj)
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize to deterministic JSON (sorted keys, %.17g floats, 2-space indent)."""
    return _render(obj, 0)
