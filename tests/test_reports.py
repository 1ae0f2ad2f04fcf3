"""Canonical JSON: ``dump_canonical_json`` writes, byte for byte, what the
formatter that quoted each string with ``json.dumps`` wrote, which stays
here as the reference."""

import json
import math

from jordantp import get_model
from jordantp.reports import dump_canonical_json, format_double
from jordantp.suites import run_suite


def _reference(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_double(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_reference(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_reference(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


CORPUS = [
    math.nan, math.inf, -math.inf, -0.0, 0.1, 5e-324, 1.7976931348623157e308, 1e16,
    True, False, 1, 0, -7, 2**70, None, "", "plain",
    "café ∞ \U0001d49c", "\x00\x01\x1f\x7f \t\n\r \"quoted\" back\\slash  ",
    [True, 1, 1.0, False, 0, 0.0], (1, (2.5, ("nested", (None,)))), [], (), {},
    {"kéy": [math.nan, {"inner": (True, -0.0)}], "note": "line\nbreak"},
]


def test_canonical_json_is_the_reference_byte_for_byte():
    for value in CORPUS:
        assert dump_canonical_json(value) == _reference(value)
    report = run_suite(get_model("lpq", 2, 3.0), "all", 1, 4)
    payload = json.loads(report.to_json())
    assert report.to_json() == _reference(payload)
