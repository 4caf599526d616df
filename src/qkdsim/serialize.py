"""Byte-stable JSON rendering.

Field order is the insertion order of the dicts handed in; floats are
printed with 17 significant digits so values survive a round trip and two
runs of the same computation serialize identically.
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def _is_scalar(value) -> bool:
    return value is None or isinstance(
        value, (bool, int, float, str, np.integer, np.floating)
    )


def _write(value, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _write(item, out, indent, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(_is_scalar(v) for v in items):
            out.append("[" + ", ".join(_scalar(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(inner)
            _write(item, out, indent, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif _is_scalar(value):
        out.append(_scalar(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value, indent: int = 2) -> str:
    """Render to a deterministic JSON string ending in a newline."""
    out: list[str] = []
    _write(value, out, indent, 0)
    out.append("\n")
    return "".join(out)
