import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asymconv.expansion_algebra import (
    Chirality,
    Expansion,
    ExponentSetType,
    LogPolynomial,
    SingularTerm,
    as_fraction,
    canonical_json,
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


def _unit_term(r, m, n):
    return SingularTerm(r, m, n, LogPolynomial.constant(1.0))


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
