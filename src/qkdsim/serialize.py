"""Byte-stable JSON rendering.

Field order is the insertion order of the dicts handed in; floats are
printed with 17 significant digits so values survive a round trip and two
runs of the same computation serialize identically.
"""

from __future__ import annotations

import json
import math

import numpy as np

# the escaping json.dumps(str) applies, ASCII only
_string = json.encoder.encode_basestring_ascii


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


# scalar renderers by exact type; numpy scalars and subclasses go through _other_scalar
_SCALARS = {
    str: _string,
    float: format_float,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _other_scalar(value) -> str | None:
    """JSON text of a scalar whose type is not in _SCALARS, or None for a non-scalar."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return _string(value)
    return None


def _write(value, out: list[str], level: int) -> None:
    render = _SCALARS.get(type(value))
    if render is not None:
        out.append(render(value))
        return
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        last = len(value) - 1
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(inner + _string(key) + ": ")
            _write(item, out, level + 1)
            out.append(",\n" if i < last else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        # one pass: a list of scalars renders on one line, anything else nests
        texts = []
        for item in value:
            render = _SCALARS.get(type(item))
            text = render(item) if render is not None else _other_scalar(item)
            if text is None:
                break
            texts.append(text)
        else:
            out.append("[" + ", ".join(texts) + "]")
            return
        out.append("[\n")
        last = len(value) - 1
        for i, item in enumerate(value):
            out.append(inner)
            _write(item, out, level + 1)
            out.append(",\n" if i < last else "\n")
        out.append(pad + "]")
    else:
        text = _other_scalar(value)
        if text is None:
            raise TypeError(f"cannot serialize {type(value).__name__}")
        out.append(text)


def dumps(value) -> str:
    """Render to a deterministic JSON string ending in a newline, indented by two spaces."""
    out: list[str] = []
    _write(value, out, 0)
    out.append("\n")
    return "".join(out)
