"""Byte-stability contract of the report writer."""

import json

import numpy as np
import pytest

from qkdsim.adversary import compile_schedule
from qkdsim.protocol import STAGES, ProtocolConfig, run_session
from qkdsim.serialize import Raw, dumps, flat, format_float, nested, template


@pytest.mark.parametrize("value,expected", [
    (0.0, "0"),
    (-0.0, "0"),
    (0.5, "0.5"),
    (-2.0, "-2"),
    (1 / 3, "0.33333333333333331"),
    (0.1, "0.10000000000000001"),
    (1e-8, "1e-08"),
    (1 / np.sqrt(2), "0.70710678118654746"),
    (1e300, "1.0000000000000001e+300"),
])
def test_float_rendering(value, expected):
    assert format_float(value) == expected


def test_float_rendering_survives_roundtrip():
    rng = np.random.default_rng(3)
    for x in rng.normal(size=200):
        assert float(format_float(float(x))) == float(x)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_rejected(bad):
    with pytest.raises(ValueError):
        format_float(bad)


def test_dump_layout():
    doc = {
        "name": "x",
        "flags": [1, 2, 3],
        "nested": [{"a": 1}, {"a": 2}],
        "empty_list": [],
        "empty_obj": {},
        "value": 0.5,
        "none": None,
        "yes": True,
    }
    expected = (
        '{\n'
        '  "name": "x",\n'
        '  "flags": [1, 2, 3],\n'
        '  "nested": [\n'
        '    {\n'
        '      "a": 1\n'
        '    },\n'
        '    {\n'
        '      "a": 2\n'
        '    }\n'
        '  ],\n'
        '  "empty_list": [],\n'
        '  "empty_obj": {},\n'
        '  "value": 0.5,\n'
        '  "none": null,\n'
        '  "yes": true\n'
        '}\n'
    )
    assert dumps(doc) == expected


def test_dump_preserves_insertion_order():
    text = dumps({"b": 1, "a": 2})
    assert text.index('"b"') < text.index('"a"')


def test_dump_parses_back_losslessly():
    doc = {"spectrum": [1 / 3, 1 / 3, 1 / 3], "n": 7, "tag": "s"}
    assert json.loads(dumps(doc)) == doc


def test_dump_ends_with_newline():
    assert dumps({}).endswith("\n")


def test_dump_rejects_non_string_keys():
    with pytest.raises(TypeError):
        dumps({1: "x"})


def test_dump_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})


# The writer as it was before it dispatched on type: the reference renderer
# the table-driven one must match byte for byte.
def _reference_is_scalar(value) -> bool:
    return value is None or isinstance(
        value, (bool, int, float, str, np.integer, np.floating)
    )


def _reference_write(value, out, level):
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            out.append(f"{inner}{json.dumps(key)}: ")
            _reference_write(item, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        if all(_reference_is_scalar(v) for v in items):
            out.append("[" + ", ".join(_reference_scalar(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(inner)
            _reference_write(item, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif _reference_is_scalar(value):
        out.append(_reference_scalar(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_scalar(value) -> str:
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


def reference_dumps(value) -> str:
    out = []
    _reference_write(value, out, 0)
    out.append("\n")
    return "".join(out)


STRINGS = ["", "plain", "ünïcødé", "日本", "tab\there", "nl\nq\"b\\", "\x00\x1f\x7f", "😀",
           " "]
SCALARS = [0, -7, 2 ** 70, True, False, None, 0.0, -0.0, 1e300, -1e300, 5e-324, 2.2e-308,
           1 / 3, np.int64(-3), np.int32(9), np.float32(0.1), np.float64(-0.0),
           np.float64(1e-310), np.str_("np é"), *STRINGS]


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return SCALARS[rng.integers(len(SCALARS))]
    kind = rng.integers(4)
    size = int(rng.integers(0, 5))
    children = [random_tree(rng, depth - 1) for _ in range(size)]
    if kind == 0:
        return {STRINGS[rng.integers(len(STRINGS))] + str(i): c for i, c in enumerate(children)}
    if kind == 1:
        return tuple(children)
    if kind == 2:
        # a list of scalars only, the one-line form
        return [SCALARS[rng.integers(len(SCALARS))] for _ in range(size)]
    return children


def run_transcripts():
    """The shape of a `run` report's transcripts: a list of dicts with nested
    diagnostics, None and bool fields, float spectra and record lists."""
    config = ProtocolConfig(d=3, rounds=6, key_seed=2, seed=5, eve_registers=2,
                            control_rounds=frozenset({2, 5}))
    script = compile_schedule("intercept_resend", config)
    return [t.to_json_dict() for t in run_session(config, script, diagnostics=STAGES)]


def test_writer_keeps_the_reference_bytes():
    rng = np.random.default_rng(11)
    for _ in range(400):
        tree = random_tree(rng, 4)
        assert dumps(tree) == reference_dumps(tree)
    transcripts = run_transcripts()
    assert transcripts[0]["eve_records"] and "diagnostics" in transcripts[0]
    for value in ([], {}, (), [[]], {"": {}}, [{}, []], SCALARS, {s: s for s in STRINGS},
                  transcripts, {"rounds": 6, "transcripts": transcripts}):
        assert dumps(value) == reference_dumps(value)


def _templated(value, level):
    """value written through template, flat and nested alone, as a run report's rows are."""
    if isinstance(value, dict):
        return template(tuple(value), level) % tuple(
            _templated(item, level + 1) for item in value.values())
    if isinstance(value, (list, tuple)):
        if all(_reference_is_scalar(item) for item in value):
            return flat([_reference_scalar(item) for item in value])
        return nested([_templated(item, level + 1) for item in value], level)
    return _reference_scalar(value)


def test_templates_write_what_dumps_writes():
    rng = np.random.default_rng(12)
    for _ in range(400):
        tree = random_tree(rng, 4)
        assert _templated(tree, 0) + "\n" == reference_dumps(tree)
    for value in ([], {}, [[]], {"": {}}, {"%s": 1, "a%%d": {"%": [1, "%s"]}, "%(x)s": []}):
        assert _templated(value, 0) + "\n" == reference_dumps(value)
    transcripts = run_transcripts()
    rows = Raw(nested([_templated(t, 2) for t in transcripts], 1))
    assert dumps({"rounds": 6, "transcripts": rows}) == reference_dumps(
        {"rounds": 6, "transcripts": transcripts})


@pytest.mark.parametrize("bad", [
    {"x": float("nan")},
    [1, float("nan")],
    [{"a": 1}, np.float64("nan")],
    float("inf"),
])
def test_writer_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        dumps(bad)


@pytest.mark.parametrize("bad", [
    np.bool_(True),
    [1, np.bool_(False)],
    {"x": {1, 2}},
    [{1, 2}],
    {"a": {2: "x"}},
    [1, 2j],
])
def test_writer_rejects_unknown_types(bad):
    with pytest.raises(TypeError):
        dumps(bad)
