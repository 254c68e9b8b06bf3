"""Deterministic JSON: sorted keys, 2-space indent, shortest round-trip floats.

Reports must round-trip byte-for-byte: floats are written as Python's
``repr``, the shortest text that parses back to the same bits, so a
parse/re-serialize cycle reproduces the exact bytes and a float stays a
float (``12.0``, not ``12``).  NaN and infinity raise ``ValueError``.
"""

from __future__ import annotations

import json

__all__ = ["dumps"]


def dumps(obj) -> str:
    """Serialize to deterministic JSON (sorted keys, repr floats, 2-space indent)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
