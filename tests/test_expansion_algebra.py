import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymconv import expansion_algebra
from asymconv.expansion_algebra import (
    CaseTag,
    Chirality,
    Expansion,
    ExponentSetType,
    LogPolynomial,
    SingularTerm,
    as_fraction,
    canonical_json,
    case_degree,
    combine_types,
    degree_rule,
    is_natural,
    kernel_term,
    normalize_term,
)

F = Fraction

exponents = st.fractions(
    min_value=F(-9, 10), max_value=F(3), max_denominator=12
)
log_degrees = st.integers(min_value=0, max_value=3)
type_entries = st.dictionaries(exponents, log_degrees, min_size=1, max_size=4)
#: n/d with d drawn from 1..12, so the primes 5, 7 and 11 appear and the
#: common denominator of two documents exceeds either one's own
exponents_over_one_to_twelve = st.integers(1, 12).flatmap(
    lambda d: st.integers(-d + 1, 3 * d).map(lambda n: F(n, d))
)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    assert as_fraction("-1/2") == F(-1, 2)
    assert as_fraction(3) == F(3)


def test_is_natural_includes_zero():
    assert is_natural(F(0))
    assert is_natural(F(4))
    assert not is_natural(F(-1))
    assert not is_natural(F(1, 2))


class TestLogPolynomial:
    def test_trims_leading_zeros(self):
        poly = LogPolynomial.of_coeffs([1.0, 2.0, 0.0, 0.0])
        assert poly.degree == 1
        assert poly.coefficients == (1.0 + 0j, 2.0 + 0j)

    def test_zero_polynomial(self):
        assert LogPolynomial.of_coeffs([0.0, 0.0]).is_zero
        assert LogPolynomial.zero().degree == -1

    def test_monomial_and_leading(self):
        poly = LogPolynomial.monomial(3, 2.0)
        assert poly.degree == 3
        assert poly.leading == 2.0
        assert poly.coefficient(0) == 0.0
        assert poly.coefficient(7) == 0.0

    def test_monomial_slots_are_capped_before_any_is_built(self, monkeypatch):
        # degree + 1 slots, at most 2^20; the cap is checked on the count
        expansion_algebra._check_output_size("x", 2**20)
        with pytest.raises(ValueError, match="output cap of 1048576$"):
            expansion_algebra._check_output_size("x", 2**20 + 1)
        calls = []
        monkeypatch.setattr(expansion_algebra, "_MAX_OUTPUT_ELEMENTS", 4)
        monkeypatch.setattr(LogPolynomial, "of_coeffs", staticmethod(calls.append))
        LogPolynomial.monomial(3)
        assert len(calls[0]) == 4
        with pytest.raises(ValueError, match="^a log degree of 4 would hold 5 elements, "
                                             "beyond the output cap of 4$"):
            LogPolynomial.monomial(4)
        assert len(calls) == 1

    def test_addition_cancels(self):
        left = LogPolynomial.of_coeffs([1.0, 1.0])
        right = LogPolynomial.of_coeffs([2.0, -1.0])
        assert (left + right).coefficients == (3.0 + 0j,)

    def test_direct_constructor_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            LogPolynomial((1.0, 0.0))


class TestCombineTypes:
    def test_resonant_pair_gains_a_log(self):
        left = ExponentSetType({F(-1, 2): 1})
        right = ExponentSetType({F(-1, 2): 1})
        assert combine_types(left, right).entries == {F(0): 3}

    def test_natural_exponent_loses_a_log(self):
        left = ExponentSetType({F(0): 1})
        right = ExponentSetType({F(-1, 2): 2})
        assert combine_types(left, right).entries == {F(1, 2): 2}

    def test_generic_pair_adds_degrees(self):
        left = ExponentSetType({F(-1, 3): 0})
        right = ExponentSetType({F(-1, 4): 0})
        assert combine_types(left, right).entries == {F(5, 12): 0}

    def test_vanishing_pair_is_omitted(self):
        # a natural exponent with no log against a log-free factor: no term
        left = ExponentSetType({F(0): 0})
        right = ExponentSetType({F(-1, 2): 0})
        assert combine_types(left, right).entries == {}

    def test_smooth_factor_gives_no_term(self):
        # a natural exponent with no log is a smooth factor, so the pair is
        # Smooth whatever the other side's log degree; degree_rule says -1
        left = ExponentSetType({F(0): 0})
        right = ExponentSetType({F(-1, 2): 2})
        assert degree_rule(F(0), F(-1, 2), 0, 2) == -1
        assert combine_types(left, right).entries == {}

    def test_collision_keeps_max_degree(self):
        left = ExponentSetType({F(-1, 2): 0, F(-1, 4): 2})
        right = ExponentSetType({F(-1, 4): 0, F(-1, 2): 2})
        combined = combine_types(left, right)
        # the sum -1/2 + -1/4 + 1 = 1/4 arises twice with degrees 0 and 4
        assert combined.entries[F(1, 4)] == 4

    @given(type_entries, type_entries)
    def test_commutative(self, left, right):
        a = ExponentSetType(dict(left))
        b = ExponentSetType(dict(right))
        assert combine_types(a, b).entries == combine_types(b, a).entries

    @given(type_entries, type_entries)
    def test_output_keys_exceed_minus_one(self, left, right):
        combined = combine_types(ExponentSetType(dict(left)), ExponentSetType(dict(right)))
        assert all(key > -1 for key in combined.entries)
        assert all(deg >= 0 for deg in combined.entries.values())

    @given(
        st.dictionaries(exponents_over_one_to_twelve, log_degrees, min_size=1, max_size=6),
        st.dictionaries(exponents_over_one_to_twelve, log_degrees, min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_a_fraction_loop_over_degree_rule(self, left, right):
        # the reference adds exponents as Fractions and asks degree_rule
        # for each pair; combine_types works on integer numerators over
        # the lcm of both documents' denominators
        reference = {}
        for alpha, mu in left.items():
            for beta, nu in right.items():
                degree = degree_rule(alpha, beta, mu, nu)
                gamma = alpha + beta + 1
                if degree >= 0 and reference.get(gamma, -1) < degree:
                    reference[gamma] = degree
        combined = combine_types(ExponentSetType(dict(left)), ExponentSetType(dict(right)))
        assert combined.entries == reference
        assert canonical_json(combined.to_json_dict()) == canonical_json(
            ExponentSetType(reference).to_json_dict()
        )


def _unit_term(r, m, n):
    return SingularTerm(r, m, n, LogPolynomial.monomial(0))


class TestNormalizeTerm:
    def test_holo_example(self):
        term = normalize_term(_unit_term(F(-1, 2), 2, 0))
        assert (term.a, term.p, term.chirality) == (F(-1, 2), 2, Chirality.HOLO)

    def test_balanced_powers_are_holo(self):
        term = normalize_term(_unit_term(F(0), 1, 1))
        assert (term.a, term.p, term.chirality) == (F(1), 0, Chirality.HOLO)

    def test_anti_example(self):
        term = normalize_term(_unit_term(F(-1, 4), 0, 3))
        assert (term.a, term.p, term.chirality) == (F(-1, 4), 3, Chirality.ANTI)

    def test_rejects_r_outside_window(self):
        # the window is enforced by the term that normalize_term folds
        with pytest.raises(ValueError):
            normalize_term(_unit_term(F(1, 2), 0, 0))
        with pytest.raises(ValueError):
            normalize_term(_unit_term(F(-1), 0, 0))

    @given(
        st.fractions(min_value=F(-15, 16), max_value=F(0), max_denominator=16),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    def test_round_trip(self, r, m, n):
        term = normalize_term(_unit_term(r, m, n))
        assert term.a - min(m, n) == r
        assert term.p == abs(m - n)
        assert -1 < term.a - min(m, n) <= 0
        assert (term.chirality is Chirality.ANTI) == (m < n)


class TestKernelTerm:
    @given(
        st.fractions(min_value=F(-1), max_value=F(2), max_denominator=16).filter(
            lambda x: x > -1
        ),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(list(Chirality)),
        st.integers(min_value=0, max_value=3),
    )
    def test_inverts_normalize_term(self, x, p, chirality, degree):
        term = kernel_term(x, p, chirality, degree)
        expected = chirality if p > 0 else Chirality.HOLO
        assert normalize_term(term) == (x, p, expected)
        assert term.poly == LogPolynomial.monomial(degree)

    def test_whole_part_moves_into_the_monomials(self):
        term = kernel_term(F(3, 2), 2, Chirality.ANTI, 1)
        assert (term.r, term.m, term.n) == (F(-1, 2), 2, 4)
        term = kernel_term(F(1), 0, Chirality.HOLO, 0)
        assert (term.r, term.m, term.n) == (F(0), 1, 1)

    def test_rejects_nonintegrable_exponent(self):
        with pytest.raises(ValueError, match="> -1"):
            kernel_term(F(-1), 1, Chirality.HOLO, 0)


class TestDegreeRule:
    def test_generic(self):
        assert degree_rule(F(-1, 2), F(-1, 4), 1, 1) == 2

    def test_resonant(self):
        assert degree_rule(F(-1, 2), F(-1, 2), 1, 1) == 3

    def test_plain_natural_power_vanishes(self):
        assert degree_rule(F(0), F(-1, 2), 0, 5) == -1

    def test_one_natural_with_log(self):
        assert degree_rule(F(1), F(-1, 2), 2, 0) == 1

    def test_both_natural(self):
        assert degree_rule(F(0), F(1), 1, 1) == 1

    def test_rejects_non_integer_log_degree(self):
        # the rule checks its input as classify_case does
        with pytest.raises(ValueError, match="log degrees must be integers"):
            degree_rule(F(-1, 2), F(-1, 4), 1.5, 0)

    def test_case_degree(self):
        # a resonance adds a log, a natural exponent drops one
        degrees = [case_degree(case, 2, 1) for case in CaseTag]
        assert degrees == [3, 4, 2, 2, -1]

    @given(
        st.fractions(min_value=F(-7, 8), max_value=F(3), max_denominator=8),
        st.fractions(min_value=F(-7, 8), max_value=F(3), max_denominator=8),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_symmetry_and_bounds(self, a, b, j, k):
        value = degree_rule(a, b, j, k)
        assert value == degree_rule(b, a, k, j)
        assert -1 <= value <= j + k + 1


class TestExpansion:
    def test_keeps_a_lone_term(self):
        # a key seen once is kept as it is; the same term twice still merges
        term = _unit_term(F(-1, 2), 1, 0)
        assert Expansion([term], 0).terms[0] is term
        assert Expansion([term, term], 0).terms[0].poly.coefficients == (2 + 0j,)

    def test_merges_duplicate_keys(self):
        term = lambda c: SingularTerm(F(-1, 2), 1, 0, LogPolynomial.of_coeffs([c]))
        exp = Expansion(terms=[term(1.0), term(2.5)], smooth_order=3)
        assert len(exp.terms) == 1
        assert exp.terms[0].poly.coefficients == (3.5 + 0j,)

    def test_drops_zero_polynomials(self):
        exp = Expansion(
            terms=[
                SingularTerm(F(-1, 2), 0, 0, LogPolynomial.of_coeffs([1.0])),
                SingularTerm(F(-1, 3), 0, 0, LogPolynomial.zero()),
            ],
            smooth_order=2,
        )
        assert [t.r for t in exp.terms] == [F(-1, 2)]

    def test_exact_cancellation_drops_term(self):
        exp = Expansion(
            terms=[
                SingularTerm(F(-1, 2), 0, 0, LogPolynomial.of_coeffs([1.0])),
                SingularTerm(F(-1, 2), 0, 0, LogPolynomial.of_coeffs([-1.0])),
            ],
            smooth_order=2,
        )
        assert exp.terms == []

    def test_json_round_trip(self):
        exp = Expansion(
            terms=[
                SingularTerm(F(-1, 2), 0, 1, LogPolynomial.of_coeffs([1.0, 0.5j])),
                SingularTerm(F(0), 2, 0, LogPolynomial.of_coeffs([-2.0])),
            ],
            smooth_order=4,
        )
        data = exp.to_json_dict()
        again = Expansion.from_json_dict(data)
        assert again == exp
        assert data["smooth_order"] == 4
        assert data["terms"][0]["r"] == "-1/2"

    def test_term_json_round_trip(self):
        term = SingularTerm(F(-1, 3), 2, 1, LogPolynomial.of_coeffs([0.0, 1.5 - 2j]))
        data = term.to_json_dict()
        assert data == {
            "r": "-1/3", "m": 2, "n": 1, "log_coeffs": [[0.0, 0.0], [1.5, -2.0]]
        }
        assert SingularTerm.from_json_dict(data) == term
        exp = Expansion(terms=[term], smooth_order=1)
        assert exp.to_json_dict()["terms"] == [data]

    @pytest.mark.parametrize("r", [-0.5, -0.1, True, None])
    def test_rejects_non_rational_r(self, r):
        # r goes through as_fraction: a JSON float is never rounded in binary
        data = {"r": r, "m": 0, "n": 0, "log_coeffs": [[1.0, 0.0]]}
        with pytest.raises(TypeError):
            SingularTerm.from_json_dict(data)
        with pytest.raises(TypeError):
            Expansion.from_json_dict({"terms": [data], "smooth_order": 1})

    def test_term_lookup(self):
        exp = Expansion(
            terms=[SingularTerm(F(-1, 2), 0, 0, LogPolynomial.of_coeffs([2.0]))],
            smooth_order=1,
        )
        assert [term.key for term in exp.terms] == [(F(-1, 2), 0, 0)]
        assert exp.terms[0].poly.leading == 2.0


class TestExponentSetType:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            ExponentSetType({F(-3, 2): 0})
        with pytest.raises(ValueError):
            ExponentSetType({F(1, 2): -1})

    def test_window_edge_and_duplicates(self):
        assert ExponentSetType({F(-99, 100): 0}).entries == {F(-99, 100): 0}
        for edge in (F(-1), "-2/2", -1):
            with pytest.raises(ValueError, match="is not > -1"):
                ExponentSetType({edge: 0})
        # equal exponents written differently are one key twice
        with pytest.raises(ValueError, match="duplicate exponent 1/2"):
            ExponentSetType({F(-1, 3): 0, "1/2": 0, F(1, 2): 0})

    def test_loaded_keys_that_name_one_exponent_are_duplicates(self):
        # each document key is converted once, by the constructor, which
        # sees both keys instead of one collapsed entry
        with pytest.raises(ValueError, match="duplicate exponent 1/2"):
            ExponentSetType.from_json_dict({"entries": {"2/4": 1, "1/2": 0}})

    @pytest.mark.parametrize("degree", [1.0, 1.8, True, "1"])
    def test_rejects_non_integer_degree(self, degree):
        with pytest.raises(ValueError, match="log degree must be an integer"):
            ExponentSetType({F(-1, 2): degree})
        with pytest.raises(ValueError, match="log degree must be an integer"):
            ExponentSetType.from_json_dict({"entries": {"-1/2": degree}})

    def test_json_round_trip(self):
        t = ExponentSetType({F(-1, 2): 1, F(5, 12): 0})
        data = t.to_json_dict()
        assert data == {"entries": {"-1/2": 1, "5/12": 0}}
        assert ExponentSetType.from_json_dict(data) == t


#: r in the window (-1, 0] over denominators 1..12, r = 0 included
window_exponents = st.integers(1, 12).flatmap(
    lambda d: st.integers(-d + 1, 0).map(lambda n: F(n, d))
)
term_keys = st.tuples(window_exponents, st.integers(0, 2), st.integers(0, 2))


class TestExactKeyOrder:
    """Terms and type entries are ordered on integer keys over a common
    denominator; the order must be the one of the Fraction keys."""

    @given(
        keys=st.lists(term_keys, min_size=1, max_size=8, unique=True),
        picks=st.lists(st.tuples(st.integers(0, 7), st.integers(-2, 2)), max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_expansion_terms_follow_fraction_order(self, keys, picks):
        # terms drawn from a few keys, so keys repeat and merge; a 0
        # coefficient is a zero polynomial and opposite ones cancel
        terms, totals = [], {}
        for index, c in picks:
            key = keys[index % len(keys)]
            terms.append(SingularTerm(*key, LogPolynomial.of_coeffs([float(c)])))
            totals[key] = totals.get(key, 0) + c
        expansion = Expansion(terms, smooth_order=1)
        expected = sorted(key for key, total in totals.items() if total != 0)
        assert [term.key for term in expansion.terms] == expected

    def test_expansion_order_on_a_mixed_example(self):
        # -1/2 < -2/5 against the numerators, -1/3 < -1/4 where they
        # tie, and r = 0 last
        terms = [_unit_term(r, m, 0) for r, m in (
            (F(-1, 4), 0), (F(0), 0), (F(-1, 3), 1), (F(-2, 5), 0), (F(-1, 2), 2), (F(-1, 3), 0)
        )]
        keys = [term.key for term in Expansion(terms, smooth_order=1).terms]
        assert keys == sorted(term.key for term in terms)

    @given(st.dictionaries(exponents_over_one_to_twelve, log_degrees, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_type_entries_follow_fraction_order(self, entries):
        data = ExponentSetType(dict(entries)).to_json_dict()
        assert list(data["entries"]) == [str(key) for key in sorted(entries)]


def _reference_canonical(value, indent: int, step: int) -> str:
    """The isinstance-chain serializer canonical_json replaced, kept as
    the reference its bytes are checked against."""
    pad = " " * indent
    inner = " " * (indent + step)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("non-finite float cannot enter a canonical document")
        return "%.17g" % value
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [inner + _reference_canonical(v, indent + step, step) for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("canonical documents use string keys only")
            parts.append(
                inner + json.dumps(key) + ": "
                + _reference_canonical(value[key], indent + step, step)
            )
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError("cannot serialize %r" % type(value).__name__)


#: strings json.dumps escapes, and some it leaves alone
tricky_strings = st.sampled_from([
    "", "plain", 'say "hi"', "back\\slash", "tab\there", "nul\x00", "line\nbreak",
    "\x1f", "del\x7f", "caf\u00e9", "\u96ea", "\U0001f600", " ~", "-1/3",
])
json_strings = st.one_of(
    tricky_strings, st.text(max_size=6), st.text(st.characters(max_codepoint=0x80), max_size=6)
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 53).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]),
    st.sampled_from(list(CaseTag) + list(Chirality)),
    json_strings,
)
json_documents = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(json_strings, st.sampled_from(list(CaseTag))), children, max_size=4
        ),
    ),
    max_leaves=24,
)
#: documents holding a non-finite float or a non-string key somewhere
refused_leaves = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.builds(lambda key, v: {key: v}, st.sampled_from([1, 1.5, None, True, (1, 2)]), json_scalars),
)
refused_documents = st.recursive(
    refused_leaves,
    lambda children: st.one_of(
        st.tuples(st.lists(json_documents, max_size=3), children).map(lambda t: t[0] + [t[1]]),
        st.tuples(json_documents, children),
        st.dictionaries(json_strings, children, min_size=1, max_size=3),
    ),
    max_leaves=6,
)


class TestCanonicalJson:
    def test_sorted_keys_and_fixed_floats(self):
        doc = {"b": 0.1, "a": [1, 2.5, "x"], "c": {"y": True, "x": None}}
        text = canonical_json(doc)
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.10000000000000001" in text
        assert text.endswith("\n")

    def test_byte_identical_across_runs(self):
        doc = {"values": [math.pi, 1.0 / 3.0], "n": 7}
        assert canonical_json(doc) == canonical_json(doc)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError):
            canonical_json({1: 2})

    @given(json_documents)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_isinstance_reference(self, doc):
        assert canonical_json(doc) == _reference_canonical(doc, 0, 2) + "\n"
        assert json.loads(canonical_json(doc)) == json.loads(json.dumps(doc))

    @given(refused_documents)
    @settings(max_examples=120, deadline=None)
    def test_refuses_as_the_reference_does(self, doc):
        with pytest.raises((ValueError, TypeError)) as new:
            canonical_json(doc)
        with pytest.raises((ValueError, TypeError)) as old:
            _reference_canonical(doc, 0, 2)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))

    def test_covers_every_kind_of_value(self):
        doc = {
            "big": [2 ** 53 + 1, -(2 ** 64)], "bool": [True, False], "none": None,
            "floats": (-0.0, 5e-324, 1e308), "enums": [CaseTag.RESONANT, Chirality.ANTI],
            "strings": ['q"', "b\\", "c\x01", "d\x7f", "\u00e9", "\u96ea"],
            "empty": [[], (), {}, ""], CaseTag.SMOOTH: {"x": 1},
        }
        text = canonical_json(doc)
        assert text == _reference_canonical(doc, 0, 2) + "\n"
        assert '"-0"' not in text and "-0," in text and "4.9406564584124654e-324" in text
        # json.dumps escapes DEL too, so it is not quoted directly
        assert '"d\\u007f"' in text and '"\\u00e9"' in text and '"Smooth": {' in text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_every_non_finite_float(self, bad):
        for doc in (bad, [1.0, bad], {"x": {"y": (bad,)}}):
            with pytest.raises(ValueError):
                canonical_json(doc)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
    def test_rejects_every_non_string_key(self, key):
        for doc in ({key: 1}, [{"a": {key: 1}}]):
            with pytest.raises(TypeError):
                canonical_json(doc)
