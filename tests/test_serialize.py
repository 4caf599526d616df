"""Byte-stability contract of the report writer."""

import json

import numpy as np
import pytest

from qkdsim.serialize import dumps, format_float


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
