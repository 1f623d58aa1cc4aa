"""Golden reports: fixed inputs must keep their report values.

The expected documents in ``tests/data`` are the output of

    asymconv verify tests/data/golden_specs.json --report BASE   (BASE.json)
    asymconv demo monomial --n 2 --m 3

with one spec per constant case in the spec file.  Strings, ints, bools
and nulls compare exactly and floats to 1e-12 relative, so a refactor
that moves any reported value beyond roundoff fails here.  The CSV
written next to a report must read the same values as its JSON
(``assert_csv_matches``).

The exact layer is compared byte for byte instead:

    asymconv convolve golden_convolve_left.json golden_convolve_right.json
    asymconv types golden_types_left.json golden_types_right.json
    asymconv bernstein golden_bernstein_left.json golden_bernstein_right.json
    asymconv bernstein ... --kappa 1

print ``golden_convolve.json``, ``golden_types.json``, ``golden_bernstein.json``
and ``golden_bernstein_kappa1.json``, and ``asymconv constant`` on one
kernel per case (``GOLDEN_CONSTANTS``) prints ``golden_constant_<name>.json``.
The ``golden_convolve_mixed_*`` and ``golden_types_mixed_*`` inputs pair
documents of different denominators (fifths and sevenths against thirds
and halves) and print ``golden_convolve_mixed.json`` and
``golden_types_mixed.json``.  The ``golden_convolve_large_*`` inputs are
24 terms each (quarters and fifths against thirds and sevenths, log
degree up to 2, with two planted pairs of products in sixths and halves)
and print ``golden_convolve_large.json``: one pair of products cancels
exactly, so its key is dropped, and one cancels to about 1e-12, so its
key is kept and compensated.

``golden_demo_domain.json`` pins the whole demo domain byte for byte: it
is ``canonical_json(demo_domain_document())``, the report of every pair
N, M <= 9 with that pair's ``measure_singular_exponent`` or the text
of its refusal.  Each entry's ``report`` is the exact output of
``asymconv demo monomial --n N --m M`` once it is written through
``canonical_json``.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from asymconv.cli import build_parser, main
from asymconv.convolution_engine import convolve_expansions, convolve_terms
from asymconv.expansion_algebra import CaseTag, Chirality, Expansion, canonical_json, kernel_term
from asymconv.fiber_demo import MonomialGerm, measure_singular_exponent, thom_sebastiani_demo
from asymconv.quadrature_oracle import _CSV_COLUMNS

DATA = Path(__file__).parent / "data"

#: name -> (case, ``asymconv constant`` options) of each golden constant
GOLDEN_CONSTANTS = {
    "generic": ("Generic", ["-a", "-1/3", "-b", "-1/4", "-p", "1", "-q", "2"]),
    "resonant_anti": (
        "Resonant",
        ["-a", "-1/3", "-b", "1/3", "-p", "1", "-q", "2", "-k", "1",
         "--chirality", "anti"],
    ),
    "one_integer_factor": (
        "OneIntegerFactor", ["-a", "1", "-b", "-1/3", "-q", "1", "-j", "2"],
    ),
    "both_integer_2_1": ("BothInteger", ["-a", "0", "-b", "0", "-j", "2", "-k", "1"]),
    "smooth": ("Smooth", ["-a", "0", "-b", "-1/2", "-j", "0"]),
}


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


def assert_csv_matches(csv_text, reports):
    """``csv_text`` holds one row per JSON report of ``reports``, in order:
    each field is the report's field of that column name, the spec's
    fields included, with fitted_leading the real part of the last
    fitted_log_coeffs pair (0 when there is none).  Strings and ints
    print as text, floats as "%.17g" and null as an empty field."""
    header, *rows = csv_text.splitlines()
    assert header.split(",") == list(_CSV_COLUMNS)
    assert len(rows) == len(reports)
    for index, (row, report) in enumerate(zip(rows, reports)):
        pairs = report["fitted_log_coeffs"]
        fields = dict(report["spec"], **report, fitted_leading=pairs[-1][0] if pairs else 0.0)
        expected = [
            "" if value is None else "%.17g" % value if isinstance(value, float) else str(value)
            for value in (fields[name] for name in _CSV_COLUMNS)
        ]
        assert row.split(",") == expected, "row %d: %r != %r" % (index, row, expected)


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
    assert_csv_matches(base.with_suffix(".csv").read_text(), actual["reports"])


def test_square_cube_demo_matches_golden(capsys):
    code = main(["demo", "monomial", "--n", "2", "--m", "3"])
    out = capsys.readouterr().out
    assert code == 0
    expected = json.loads((DATA / "golden_demo_2_3.json").read_text())
    assert_matches(json.loads(out), expected)


#: The demo domain: every pair N, M <= 9, the first germ outermost (the
#: benchmark draws from its first 45 pairs, N <= 5).  N = 10 or M = 10
#: takes plateau^N or plateau^M = 0.9^10 below the safety radius 0.35.
DEMO_DOMAIN = [(n, m) for n in range(1, 10) for m in range(1, 10)]


def demo_domain_document() -> dict:
    """Every domain pair's demo report, with its measured exponent or the
    refusal that measure_singular_exponent raises instead."""
    entries = []
    for n, m in DEMO_DOMAIN:
        g1, g2 = MonomialGerm(n), MonomialGerm(m)
        entry = {"n": n, "m": m, "report": thom_sebastiani_demo(g1, g2).to_json_dict()}
        try:
            entry["exponent"] = measure_singular_exponent(g1, g2)
        except ValueError as exc:
            entry["refusal"] = "%s: %s" % (type(exc).__name__, exc)
        entries.append(entry)
    return {"pairs": entries}


def test_demo_domain_matches_golden_bytes():
    expected = (DATA / "golden_demo_domain.json").read_text()
    assert canonical_json(demo_domain_document()) == expected


def test_demo_cli_prints_the_domain_golden_entry(capsys):
    # the installed-demo CI step cmp's this command against the same entry
    code = main(["demo", "monomial", "--n", "2", "--m", "2"])
    out = capsys.readouterr().out
    assert code == 0
    golden = json.loads((DATA / "golden_demo_domain.json").read_text())
    entry = next(e for e in golden["pairs"] if (e["n"], e["m"]) == (2, 2))
    assert out == canonical_json(entry["report"])


def test_demo_cli_prints_the_widest_domain_entry(capsys):
    # the installed-demo CI step cmp's this command against the same entry
    code = main(["demo", "monomial", "--n", "9", "--m", "9"])
    out = capsys.readouterr().out
    assert code == 0
    golden = json.loads((DATA / "golden_demo_domain.json").read_text())
    assert (golden["pairs"][-1]["n"], golden["pairs"][-1]["m"]) == (9, 9)
    assert out == canonical_json(golden["pairs"][-1]["report"])


@pytest.mark.parametrize("n, m", [(10, 1), (10, 9), (1, 10), (9, 10)])
def test_demo_beyond_the_domain_is_domain_error(capsys, n, m):
    # 0.9^10 = 0.349 is below the safety radius 0.35
    code = main(["demo", "monomial", "--n", str(n), "--m", str(m)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.count("\n") == 1 and "plateau" in captured.err


@pytest.mark.parametrize("command", ["convolve", "types", "bernstein"])
def test_exact_layer_matches_golden_bytes(capsys, command):
    inputs = [str(DATA / ("golden_%s_%s.json" % (command, side))) for side in ("left", "right")]
    code = main([command] + inputs)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / ("golden_%s.json" % command)).read_text()


@pytest.mark.parametrize("command", ["convolve", "types"])
def test_mixed_denominator_exact_layer_matches_golden_bytes(capsys, command):
    # fifths and sevenths against thirds and halves: the common
    # denominator of the pair exceeds either document's own
    inputs = [
        str(DATA / ("golden_%s_mixed_%s.json" % (command, side))) for side in ("left", "right")
    ]
    denominators = []
    for path in inputs:
        doc = json.loads(Path(path).read_text())
        exponents = [t["r"] for t in doc["terms"]] if command == "convolve" else doc["entries"]
        denominators.append(math.lcm(*(Fraction(x).denominator for x in exponents)))
    assert math.lcm(*denominators) > max(denominators)
    code = main([command] + inputs)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / ("golden_%s_mixed.json" % command)).read_text()


def test_large_convolve_matches_golden_bytes(capsys):
    inputs = [str(DATA / ("golden_convolve_large_%s.json" % side)) for side in ("left", "right")]
    code = main(["convolve"] + inputs)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (DATA / "golden_convolve_large.json").read_bytes()


def test_large_convolve_golden_covers_both_cancellations():
    left, right = (
        Expansion.from_json_dict(json.loads(path.read_text()))
        for path in (DATA / "golden_convolve_large_left.json",
                     DATA / "golden_convolve_large_right.json")
    )
    assert len(left.terms) == len(right.terms) == 24
    assert max(t.poly.degree for t in left.terms + right.terms) == 2
    assert {t.r.denominator for t in left.terms} == {1, 2, 4, 5, 6}
    assert {t.r.denominator for t in right.terms} == {1, 2, 3, 6, 7}
    products = {}
    for t1 in left.terms:
        for t2 in right.terms:
            result = convolve_terms(t1, t2)
            if result.term is not None:
                products.setdefault(result.term.key, []).append(result.leading_coeff)
    merged = convolve_expansions(left, right)
    kept = {term.key: term for term in merged.terms}
    exact, near = (Fraction(-2, 3), 1, 1), (Fraction(-1, 3), 2, 2)
    assert merged.compensated == {exact, near}
    assert exact not in kept and sum(products[exact]) == 0
    peak = max(abs(c) for c in products[near])
    assert len(products[near]) == 2
    assert 1e-13 * peak < abs(kept[near].poly.leading) < 1e-11 * peak


def test_mixed_denominator_golden_covers_every_case():
    left, right = (
        Expansion.from_json_dict(json.loads(path.read_text()))
        for path in (DATA / "golden_convolve_mixed_left.json",
                     DATA / "golden_convolve_mixed_right.json")
    )
    cases = {convolve_terms(t1, t2).case for t1 in left.terms for t2 in right.terms}
    assert cases == set(CaseTag)


def test_bernstein_kappa_matches_golden_bytes(capsys):
    # the cusp sets [-1/2] and [-1/3, -2/3], widened by one integer shift
    inputs = [str(DATA / ("golden_bernstein_%s.json" % side)) for side in ("left", "right")]
    code = main(["bernstein"] + inputs + ["--kappa", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / "golden_bernstein_kappa1.json").read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONSTANTS))
def test_constant_matches_golden_bytes(capsys, name):
    case, options = GOLDEN_CONSTANTS[name]
    code = main(["constant"] + options)
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["case"] == case
    assert out == (DATA / ("golden_constant_%s.json" % name)).read_text()


def test_constant_golden_covers_every_case():
    assert {case for case, _ in GOLDEN_CONSTANTS.values()} == {tag.value for tag in CaseTag}


def test_exact_layer_golden_covers_its_cases():
    left, right = (
        Expansion.from_json_dict(json.loads(path.read_text()))
        for path in (DATA / "golden_convolve_left.json", DATA / "golden_convolve_right.json")
    )
    products = {}
    cases = set()
    for t1 in left.terms:
        for t2 in right.terms:
            result = convolve_terms(t1, t2)
            cases.add(result.case)
            if result.term is not None:
                products.setdefault(result.term.key, []).append(result.term)
    assert cases == set(CaseTag)
    # a key whose two contributions cancel exactly is flagged and dropped
    merged = convolve_expansions(left, right)
    assert merged.compensated - {term.key for term in merged.terms}
    # a key with one product, placeholder slots among them, holds that
    # product's convolve_terms term byte for byte
    kept = {term.key: term for term in merged.terms}
    lone = [terms[0] for terms in products.values() if len(terms) == 1]
    assert any(term.poly.degree > 0 for term in lone)
    for term in lone:
        assert canonical_json(kept[term.key].to_json_dict()) == canonical_json(term.to_json_dict())


@pytest.mark.parametrize("name", sorted(GOLDEN_CONSTANTS))
def test_lone_pair_term_is_its_convolution_term(name):
    # convolve_terms builds its term by the slot rule of convolve_expansions
    args = build_parser().parse_args(["constant"] + GOLDEN_CONSTANTS[name][1])
    t1 = kernel_term(args.a, args.p, Chirality.HOLO, args.j)
    t2 = kernel_term(args.b, args.q, Chirality(args.chirality), args.k)
    term = convolve_terms(t1, t2).term
    merged = convolve_expansions(Expansion([t1], 0), Expansion([t2], 0)).terms
    assert [canonical_json(t.to_json_dict()) for t in merged] == (
        [] if term is None else [canonical_json(term.to_json_dict())]
    )
