"""Byte-stable JSON rendering.

Field order is the insertion order of the dicts handed in; floats are
printed with 17 significant digits so values survive a round trip and two
runs of the same computation serialize identically.

`dumps` walks any document.  A caller that writes many rows of one shape
fills `template`s instead, with values rendered by `scalar` (or its parts,
`_string` and `format_float`) and by `flat` and `nested` for lists, and hands the
text in as `Raw`: the same bytes, with no dict built per row.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

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


class Raw(str):
    """Text that dumps writes as it stands: a value already rendered at its place."""


# scalar renderers by exact type; numpy scalars and subclasses go through _other_scalar
_SCALARS = {
    Raw: str.__str__,
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


def scalar(value) -> str:
    """dumps' text of a scalar."""
    render = _SCALARS.get(type(value))
    text = render(value) if render is not None else _other_scalar(value)
    if text is None:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return text


@lru_cache(maxsize=1024)
def _key(key: str, level: int) -> str:
    """The indented `"key": ` text that opens a dict entry at this nesting level."""
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be str, got {key!r}")
    return "  " * level + _string(key) + ": "


@lru_cache(maxsize=64)
def template(keys: tuple[str, ...], level: int) -> str:
    """dumps' text of a dict with these keys at this nesting level, with one %s per
    value: `template(keys, level) % texts` for the values' rendered texts."""
    if not keys:
        return "{}"
    entries = ",\n".join(_key(key, level + 1).replace("%", "%%") + "%s" for key in keys)
    return "{\n" + entries + "\n" + "  " * level + "}"


def flat(texts) -> str:
    """dumps' text of a list of scalars, given their rendered texts: one line."""
    return "[" + ", ".join(texts) + "]"


def nested(texts: list[str], level: int) -> str:
    """dumps' text of a list at this nesting level whose items are not all scalars,
    given the items' texts rendered at level + 1: one item per line."""
    if not texts:
        return "[]"
    inner = "  " * (level + 1)
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + "  " * level + "]"


def _write(value, out: list[str], level: int) -> None:
    render = _SCALARS.get(type(value))
    if render is not None:
        out.append(render(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for key, item in value.items():
            out.append(_key(key, level + 1))
            render = _SCALARS.get(type(item))
            if render is not None:  # a scalar inline, with no recursive call
                out.append(render(item))
            else:
                _write(item, out, level + 1)
            out.append(",\n")
        out[-1] = "\n"  # no comma after the last entry
        out.append("  " * level + "}")
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
            out.append(flat(texts))
            return
        out.append("[\n")
        inner = "  " * (level + 1)
        for item in value:
            out.append(inner)
            _write(item, out, level + 1)
            out.append(",\n")
        out[-1] = "\n"  # no comma after the last item
        out.append("  " * level + "]")
    else:
        out.append(scalar(value))


def dumps(value) -> str:
    """Render to a deterministic JSON string ending in a newline, indented by two spaces."""
    out: list[str] = []
    _write(value, out, 0)
    out.append("\n")
    return "".join(out)
