"""Golden reports: fixed inputs must keep their report values.

The expected documents in ``tests/data`` are the output of

    asymconv verify tests/data/golden_specs.json --report BASE   (BASE.json)
    asymconv demo monomial --n 2 --m 3

with one spec per constant case in the spec file.  Strings, ints, bools
and nulls compare exactly and floats to 1e-12 relative, so a refactor
that moves any reported value beyond roundoff fails here.
"""

import json
import math
from pathlib import Path

from asymconv.cli import main

DATA = Path(__file__).parent / "data"


def assert_matches(actual, expected, where="$"):
    numeric = (int, float)
    if (
        isinstance(actual, float) or isinstance(expected, float)
    ) and not isinstance(actual, bool) and not isinstance(expected, bool):
        assert isinstance(actual, numeric) and isinstance(expected, numeric), where
        assert math.isclose(actual, expected, rel_tol=1e-12), (
            "%s: %r != %r" % (where, actual, expected)
        )
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, "%s[%d]" % (where, index))
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches(actual[key], expected[key], "%s.%s" % (where, key))
    else:
        assert type(actual) is type(expected) and actual == expected, (
            "%s: %r != %r" % (where, actual, expected)
        )


def test_verify_report_matches_golden(tmp_path, capsys):
    base = tmp_path / "report"
    code = main(
        ["verify", str(DATA / "golden_specs.json"), "--report", str(base)]
    )
    capsys.readouterr()
    assert code == 0
    actual = json.loads(base.with_suffix(".json").read_text())
    expected = json.loads((DATA / "golden_verify_report.json").read_text())
    cases = [report["case"] for report in expected["reports"]]
    assert cases == [
        "Generic", "Generic", "Resonant", "OneIntegerFactor", "BothInteger",
        "Smooth",
    ]
    assert_matches(actual, expected)


def test_square_cube_demo_matches_golden(capsys):
    code = main(["demo", "monomial", "--n", "2", "--m", "3"])
    out = capsys.readouterr().out
    assert code == 0
    expected = json.loads((DATA / "golden_demo_2_3.json").read_text())
    assert_matches(json.loads(out), expected)
