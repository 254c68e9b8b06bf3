"""Deterministic-JSON serializer tests."""

import json
import math

import pytest

from pivotboot.jsonio import dumps


class TestDumps:
    def test_roundtrip_bytes(self):
        payload = {
            "b": [1, 2.5, 0.1, True, None, "x"],
            "a": {"nested": 1e-300, "big": 1.7976931348623157e308},
            "f": 1 / 3,
        }
        text = dumps(payload)
        assert dumps(json.loads(text)) == text

    def test_sorted_keys(self):
        assert dumps({"b": 1, "a": 2}).index('"a"') < dumps({"b": 1, "a": 2}).index('"b"')

    def test_float_precision_roundtrips_bits(self):
        for x in (0.1, 1 / 3, math.pi, 1e-17, 123456.789012345678):
            assert json.loads(dumps({"x": x}))["x"] == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            dumps({"x": float("inf")})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})

    def test_empty_containers(self):
        assert dumps({}) == "{}"
        assert dumps([]) == "[]"

    def test_exact_bytes(self):
        payload = {"b": 10.0, "a": 0.1, "c": -0.0, "d": 1e-300,
                   "e": {"y": {}, "x": []}, "f": [True, None]}
        assert dumps(payload) == (
            '{\n'
            '  "a": 0.1,\n'
            '  "b": 10.0,\n'
            '  "c": -0.0,\n'
            '  "d": 1e-300,\n'
            '  "e": {\n'
            '    "x": [],\n'
            '    "y": {}\n'
            '  },\n'
            '  "f": [\n'
            '    true,\n'
            '    null\n'
            '  ]\n'
            '}'
        )

    def test_integral_float_stays_float(self):
        m = json.loads(dumps({"m": 10.0}))["m"]
        assert isinstance(m, float) and m == 10.0
