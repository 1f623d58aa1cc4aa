"""Tests for case classification, term convolution, and root combination."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from asymconv import expansion_algebra
from asymconv.convolution_engine import (
    INTEGER_CASE_SCALE,
    RHO_NORM,
    BernsteinCombination,
    CaseTag,
    _pair_rule,
    _term_facts,
    bernstein_combine,
    classify_case,
    convolve_expansions,
    convolve_terms,
    kernel_leading_constant,
)
from asymconv.expansion_algebra import (
    Expansion,
    LogPolynomial,
    SingularTerm,
    _CaseTable,
    canonical_json,
    degree_rule,
    normalize_term,
)
from asymconv.gamma_kernel import Chirality, F_const, GammaPoleError, tilde_F_const


def term(r, m=0, n=0, coeffs=(1.0,)):
    return SingularTerm(r=F(r), m=m, n=n, poly=LogPolynomial.of_coeffs(coeffs))


class TestClassifyCase:
    def test_resonant_half_half(self):
        assert classify_case(F(-1, 2), F(-1, 2), 0, 0) is CaseTag.RESONANT

    def test_smooth_integer_without_log(self):
        assert classify_case(0, F(-1, 2), 0, 1) is CaseTag.SMOOTH

    def test_one_integer_factor(self):
        assert classify_case(0, F(-1, 2), 1, 1) is CaseTag.ONE_INTEGER_FACTOR

    def test_both_integer(self):
        assert classify_case(0, 0, 1, 1) is CaseTag.BOTH_INTEGER

    def test_smooth_beats_both_integer(self):
        assert classify_case(0, 0, 0, 1) is CaseTag.SMOOTH
        assert classify_case(0, 0, 1, 0) is CaseTag.SMOOTH

    def test_generic(self):
        assert classify_case(F(-1, 3), F(-1, 4), 0, 0) is CaseTag.GENERIC

    def test_resonant_needs_nonintegers(self):
        # a+b+1 = 2 but a natural, b natural: BothInteger, not Resonant.
        assert classify_case(1, 0, 1, 1) is CaseTag.BOTH_INTEGER

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            classify_case(F(-3, 2), 0, 0, 0)
        with pytest.raises(ValueError):
            classify_case(0, 0, -1, 0)


class TestKernelLeadingConstant:
    def test_generic_matches_F(self):
        case, base, norm = kernel_leading_constant(
            0, 0, F(-1, 3), F(-1, 4), 0, 0, Chirality.HOLO
        )
        assert case is CaseTag.GENERIC
        assert norm == RHO_NORM
        expected = F_const(0, 0, F(-1, 3), F(-1, 4), Chirality.HOLO)
        assert base == pytest.approx(expected, rel=1e-15)

    def test_resonant_divides_by_log_count(self):
        _, base0, _ = kernel_leading_constant(
            0, 0, F(-1, 2), F(-1, 2), 0, 0, Chirality.HOLO
        )
        _, base2, _ = kernel_leading_constant(
            0, 0, F(-1, 2), F(-1, 2), 1, 1, Chirality.HOLO
        )
        assert base0 == pytest.approx(-1.0, rel=1e-14)
        assert base2 == pytest.approx(-1.0 / 3.0, rel=1e-14)

    def test_one_integer_multiplier_is_log_degree_of_integer_side(self):
        _, base1, _ = kernel_leading_constant(
            0, 0, 0, F(-3, 10), 1, 0, Chirality.HOLO
        )
        _, base2, _ = kernel_leading_constant(
            0, 0, 0, F(-3, 10), 2, 0, Chirality.HOLO
        )
        assert base2 == pytest.approx(2.0 * base1, rel=1e-13)

    def test_both_integer_pinned_only_at_one_one(self):
        # the exact rational pins j = k = 1: C = -4 * (-1/4) = 1, and
        # INTEGER_CASE_SCALE = -4 * RHO_NORM carries it to the same
        # leading coefficient; other degrees scale C by jk/(j+k-1)
        case, base, norm = kernel_leading_constant(0, 0, 0, 0, 1, 1, Chirality.HOLO)
        assert case is CaseTag.BOTH_INTEGER
        assert base == 1.0
        assert norm == RHO_NORM
        assert base * norm == -0.25 * INTEGER_CASE_SCALE
        for j, k in ((2, 1), (1, 2), (2, 2), (3, 1)):
            case, base_jk, norm = kernel_leading_constant(0, 0, 0, 0, j, k, Chirality.HOLO)
            assert case is CaseTag.BOTH_INTEGER
            assert base_jk == j * k / (j + k - 1)
            assert norm == RHO_NORM

    def test_smooth_is_zero(self):
        case, base, norm = kernel_leading_constant(
            0, 0, 2, F(-1, 2), 0, 3, Chirality.HOLO
        )
        assert case is CaseTag.SMOOTH
        assert base == 0.0 and norm == 0.0


class TestConvolveTerms:
    def test_resonant_example(self):
        res = convolve_terms(term(F(-1, 2)), term(F(-1, 2)))
        assert res.case is CaseTag.RESONANT
        assert res.degree == 1
        assert res.leading_coeff == pytest.approx(-RHO_NORM, rel=1e-14)
        assert res.term is not None
        assert res.term.key == (F(0), 0, 0)
        assert res.term.poly.degree == 1
        assert res.term.poly.coefficient(1) == pytest.approx(-RHO_NORM)

    def test_generic_example(self):
        res = convolve_terms(term(F(-1, 3)), term(F(-1, 4)))
        assert res.case is CaseTag.GENERIC
        assert res.degree == 0
        expected = F_const(0, 0, F(-1, 3), F(-1, 4), Chirality.HOLO) * RHO_NORM
        assert res.leading_coeff == pytest.approx(expected, rel=1e-13)
        assert res.leading_coeff != 0
        # r1+r2+1 = 5/12 > 0 folds back into (-1, 0] via a monomial shift.
        assert res.term.key == (F(5, 12) - 1, 1, 1)

    def test_smooth_example(self):
        res = convolve_terms(term(0), term(F(-2, 7), coeffs=(0.0, 3.0)))
        assert res.case is CaseTag.SMOOTH
        assert res.term is None
        assert res.degree == -1

    def test_monic_rescaling(self):
        base = convolve_terms(term(F(-1, 3)), term(F(-1, 4)))
        scaled = convolve_terms(
            term(F(-1, 3), coeffs=(2.0,)), term(F(-1, 4), coeffs=(-3.0,))
        )
        assert scaled.leading_coeff == pytest.approx(-6.0 * base.leading_coeff)

    def test_anti_pair_uses_conjugate_family(self):
        # excesses +1 and -1: the second factor enters conjugated.
        res = convolve_terms(term(F(-1, 3), m=1, n=0), term(F(-1, 4), m=0, n=1))
        expected = F_const(1, 1, F(-1, 3), F(-1, 4), Chirality.ANTI) * RHO_NORM
        assert res.leading_coeff == pytest.approx(expected, rel=1e-13)
        assert res.term.key == (F(-7, 12), 2, 2)

    def test_rejects_zero_polynomial(self):
        bad = SingularTerm(r=F(-1, 2), m=0, n=0, poly=LogPolynomial.zero())
        with pytest.raises(ValueError):
            convolve_terms(bad, term(F(-1, 3)))

    def test_float_collapse_onto_a_pole_raises_never_nan(self):
        # a+b+1 = 1e-20 is Generic by the exact rules, but its float is 0.0,
        # a pole of Gamma(-a-b-1): a typed error, not a NaN leading coefficient
        near = term(F(-1, 2) + F(1, 10**20))
        assert classify_case(near.r, F(-1, 2), 0, 0) is CaseTag.GENERIC
        with pytest.raises(GammaPoleError):
            convolve_terms(near, term(F(-1, 2)))

    @given(
        r1=st.fractions(min_value=F(-15, 16), max_value=0, max_denominator=16),
        r2=st.fractions(min_value=F(-15, 16), max_value=0, max_denominator=16),
        m1=st.integers(0, 2),
        n1=st.integers(0, 2),
        m2=st.integers(0, 2),
        n2=st.integers(0, 2),
        j=st.integers(0, 2),
        k=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_commutative_and_exponent_sum(self, r1, r2, m1, n1, m2, n2, j, k):
        t1 = SingularTerm(r=r1, m=m1, n=n1, poly=LogPolynomial.monomial(j))
        t2 = SingularTerm(r=r2, m=m2, n=n2, poly=LogPolynomial.monomial(k))
        a_eff = r1 + min(m1, n1)
        b_eff = r2 + min(m2, n2)
        try:
            left = convolve_terms(t1, t2)
        except ValueError:
            # resonance with vanishing residue or similar boundary; must be
            # symmetric too
            with pytest.raises(ValueError):
                convolve_terms(t2, t1)
            return
        right = convolve_terms(t2, t1)
        assert left.case is right.case
        assert left.degree == right.degree
        assert left.degree == degree_rule(a_eff, b_eff, j, k)
        if left.leading_coeff != 0:
            assert abs(left.leading_coeff - right.leading_coeff) <= 1e-12 * abs(
                left.leading_coeff
            )
        if left.term is not None:
            # total |s| power is conserved by the fold-back.
            total = 2 * (r1 + r2 + 1) + m1 + m2 + n1 + n2
            out = left.term
            assert 2 * out.r + out.m + out.n == total
            assert left.leading_coeff != 0


class TestConvolveExpansions:
    def test_singleton_reduces_to_convolve_terms(self):
        e1 = Expansion(terms=(term(F(-1, 3)),), smooth_order=5)
        e2 = Expansion(terms=(term(F(-1, 4)),), smooth_order=5)
        out = convolve_expansions(e1, e2)
        single = convolve_terms(term(F(-1, 3)), term(F(-1, 4)))
        assert len(out.terms) == 1
        assert out.terms[0].key == single.term.key
        assert out.terms[0].poly.leading == pytest.approx(single.leading_coeff)

    def test_two_exponent_classes(self):
        e1 = Expansion(terms=(term(F(-1, 2)), term(F(-1, 3))), smooth_order=4)
        e2 = Expansion(terms=(term(F(-1, 2)),), smooth_order=4)
        out = convolve_expansions(e1, e2)
        keys = {t.key for t in out.terms}
        assert keys == {(F(0), 0, 0), (F(-5, 6), 1, 1)}

    def test_constructed_cancellation_is_flagged(self):
        e1 = Expansion(
            terms=(term(F(-1, 3)), term(F(-1, 4))),
            smooth_order=3,
        )
        e2 = Expansion(
            terms=(term(F(-1, 3), coeffs=(-1.0,)), term(F(-1, 4))),
            smooth_order=3,
        )
        out = convolve_expansions(e1, e2)
        # the two cross pairs (-1/3)*(-1/4) and (-1/4)*(-1/3) collide with
        # opposite signs and cancel exactly.
        cancelled_key = (F(5, 12) - 1, 1, 1)
        assert cancelled_key in out.compensated
        assert all(t.key != cancelled_key for t in out.terms)
        surviving = {t.key for t in out.terms}
        assert (F(-2, 3), 1, 1) in surviving
        assert (F(-1, 2), 1, 1) in surviving

    def test_term_count_bound(self):
        e1 = Expansion(
            terms=(term(F(-1, 2)), term(F(-1, 3), m=1)), smooth_order=2
        )
        e2 = Expansion(
            terms=(term(F(-1, 5)), term(F(-2, 7), n=1)), smooth_order=2
        )
        out = convolve_expansions(e1, e2)
        assert len(out.terms) <= len(e1.terms) * len(e2.terms)


#: r = -n/d in (-1, 0] with d drawn from 1..12: the primes 5, 7 and 11
#: appear, and the common denominator of two documents exceeds either
#: one's own
window_exponents = st.integers(1, 12).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda n: F(-n, d))
)
dyadic = st.integers(-8, 8).map(lambda x: x / 4.0)
leading_coeffs = st.tuples(dyadic, dyadic).filter(any).map(lambda c: complex(*c))


@st.composite
def singular_terms(draw):
    degree = draw(st.integers(0, 2))
    coeffs = [complex(draw(dyadic), 0.0) for _ in range(degree)]
    return SingularTerm(
        r=draw(window_exponents),
        m=draw(st.integers(0, 2)),
        n=draw(st.integers(0, 2)),
        poly=LogPolynomial.of_coeffs(coeffs + [draw(leading_coeffs)]),
    )


def fraction_key(t1, t2):
    """r1+r2+1 folded into (-1, 0], in Fractions."""
    r = t1.r + t2.r + 1
    if r > 0:
        return r - 1, t1.m + t2.m + 1, t1.n + t2.n + 1
    return r, t1.m + t2.m, t1.n + t2.n


def reference_convolution(e1, e2):
    """convolve_terms over all pairs in order, each pair checked against
    Fraction arithmetic and kernel_leading_constant, then bucketed on the
    Fraction key, summed from zero and flagged at 1e-9 of the peak."""
    buckets = {}
    for t1 in e1.terms:
        for t2 in e2.terms:
            result = convolve_terms(t1, t2)
            a, p, chir1 = normalize_term(t1)
            b, q, chir2 = normalize_term(t2)
            chir = Chirality.ANTI if p and q and chir1 is not chir2 else Chirality.HOLO
            j, k = t1.poly.degree, t2.poly.degree
            case, base, norm = kernel_leading_constant(p, q, a, b, j, k, chir)
            assert result.case is case is classify_case(a, b, j, k)
            if result.term is None:
                continue
            assert result.term.key == fraction_key(t1, t2)
            assert result.leading_coeff == t1.poly.leading * t2.poly.leading * base * norm
            buckets.setdefault(result.term.key, []).append(result.term.poly)
    terms, flagged = [], []
    for key, polys in buckets.items():
        total = sum(polys, LogPolynomial.zero())
        for l in range(max(poly.degree for poly in polys) + 1):
            peak = max(abs(poly.coefficient(l)) for poly in polys)
            if peak > 0 and abs(total.coefficient(l)) < 1e-9 * peak:
                flagged.append(key)
                break
        terms.append(SingularTerm(r=key[0], m=key[1], n=key[2], poly=total))
    smooth_order = min(e1.smooth_order, e2.smooth_order)
    return Expansion(terms, smooth_order, compensated=frozenset(flagged))


class TestPairRuleReference:
    @given(
        left=st.lists(singular_terms(), max_size=5),
        right=st.lists(singular_terms(), max_size=5),
        planted=st.tuples(window_exponents, window_exponents).filter(
            lambda xy: xy[0] != xy[1] and 0 not in xy
        ),
        c=leading_coeffs,
        d=leading_coeffs,
    )
    @settings(max_examples=80, deadline=None)
    def test_expansions_match_a_fold_of_convolve_terms(self, left, right, planted, c, d):
        # r = 0 at log degree 1 on both sides (BothInteger and
        # OneIntegerFactor pairs), and a planted cancelling pair: the
        # products x*y and y*x land on one key with opposite signs, so
        # the key is compensated unless a drawn term lands there too
        x, y = planted
        left = left + [term(0, coeffs=(0.0, 1.0)), term(x, coeffs=(c,)), term(y, coeffs=(c,))]
        right = right + [term(0, n=1, coeffs=(0.5, 1.0)), term(y, coeffs=(d,)),
                         term(x, coeffs=(-d,))]
        e1 = Expansion(terms=left, smooth_order=3)
        e2 = Expansion(terms=right, smooth_order=2)
        out = convolve_expansions(e1, e2)
        expected = reference_convolution(e1, e2)
        assert canonical_json(out.to_json_dict()) == canonical_json(expected.to_json_dict())
        assert out.compensated == expected.compensated


#: unit terms |s|^(2r) s^m sbar^n (Log|s|^2)^j: r over the denominators
#: 2, 3, 4, 5 and 7 in (-1, 0], m, n <= 2 and j <= 1
unit_terms = st.builds(
    lambda r, m, n, degree: SingularTerm(r=r, m=m, n=n, poly=LogPolynomial.monomial(degree)),
    st.sampled_from([2, 3, 4, 5, 7]).flatmap(lambda d: st.integers(0, d - 1).map(
        lambda n: F(-n, d))),
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
)


class TestAssociativity:
    """f + g + h in both bracketings: the exact layer must not see the
    order in which three germs are summed."""

    @seed(1)
    @given(st.tuples(unit_terms, unit_terms, unit_terms))
    @settings(max_examples=150, deadline=None)
    def test_convolve_terms(self, triple):
        # both bracketings end Smooth, or both reach one key at one degree
        # with leading coefficients that agree to roundoff
        f, g, h = triple
        fg, gh = convolve_terms(f, g).term, convolve_terms(g, h).term
        left = None if fg is None else convolve_terms(fg, h)
        right = None if gh is None else convolve_terms(f, gh)
        left, right = (None if end is None or end.term is None else end for end in (left, right))
        assert (left is None) == (right is None)
        if left is not None:
            assert left.term.key == right.term.key and left.degree == right.degree
            assert abs(left.leading_coeff - right.leading_coeff) <= 1e-12 * abs(
                left.leading_coeff
            )

    @seed(1)
    @given(st.tuples(*[st.lists(singular_terms(), min_size=1, max_size=3)] * 3))
    @settings(max_examples=50, deadline=None)
    def test_convolve_expansions(self, triple):
        # each pair carries only its leading log slot, so a key's lower
        # slots (the pairs of lower degree) are dropped when it is convolved
        # again; each key's leading slot must not depend on the bracketing
        e1, e2, e3 = (Expansion(terms=terms, smooth_order=2) for terms in triple)
        inner = convolve_expansions(e1, e2), convolve_expansions(e2, e3)
        assume(not (inner[0].compensated or inner[1].compensated))
        left, right = convolve_expansions(inner[0], e3), convolve_expansions(e1, inner[1])
        compensated = left.compensated | right.compensated
        left, right = (
            {t.key: t.poly for t in side.terms if t.key not in compensated}
            for side in (left, right)
        )
        assert left.keys() == right.keys()
        for key, poly in left.items():
            assert poly.degree == right[key].degree
            assert abs(poly.leading - right[key].leading) <= 1e-9 * abs(poly.leading)


def _zero_signs(z):
    return math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


class TestEngineConstants:
    def test_pair_rule_is_the_kernel_constant_bit_for_bit(self):
        # every pair of the generated terms: the engine's leading coefficient,
        # built from the two terms' Gamma factors, is the product of the
        # per-kernel constant, zero signs included
        coeffs = (1.0, -0.5, 0.25j, 1.5 - 0.75j, -2.0 + 0.5j)
        terms = [
            SingularTerm(r=r, m=m, n=n, poly=LogPolynomial.of_coeffs(
                [0.0] * degree + [coeffs[i % len(coeffs)]]))
            for i, (r, m, n, degree) in enumerate(itertools.product(
                (F(0), F(-1, 2), F(-1, 3), F(-2, 3), F(-1, 4), F(-1, 6)),
                range(3), range(3), range(3)))
        ]
        denominator = math.lcm(*(t.r.denominator for t in terms))
        facts = [_term_facts(t, denominator) for t in terms]
        cases = _CaseTable()
        reached = set()
        for t1, f1 in zip(terms, facts):
            a, p, chir1 = normalize_term(t1)
            for t2, f2 in zip(terms, facts):
                b, q, chir2 = normalize_term(t2)
                chir = Chirality.ANTI if p and q and chir1 is not chir2 else Chirality.HOLO
                j, k = t1.poly.degree, t2.poly.degree
                case, _, leading, _ = _pair_rule(f1, f2, denominator, cases)
                expected_case, base, norm = kernel_leading_constant(p, q, a, b, j, k, chir)
                assert case is expected_case
                if case is CaseTag.SMOOTH:
                    continue
                expected = t1.poly.leading * t2.poly.leading * base * RHO_NORM
                assert leading == expected and _zero_signs(leading) == _zero_signs(expected)
                reached.add((case, chir))
        assert reached == {
            (case, chir) for case in CaseTag if case is not CaseTag.SMOOTH for chir in Chirality
        }


class TestBernsteinCombine:
    def test_half_plus_half(self):
        out = bernstein_combine([F(-1, 2)], [F(-1, 2)])
        assert out.raw == {F(-1)}
        assert out.canonical == {F(-1)}

    def test_cusp_pair(self):
        out = bernstein_combine([F(-1, 2)], [F(-1, 3), F(-2, 3)])
        assert out.raw == {F(-5, 6), F(-7, 6)}
        assert out.canonical == {F(-5, 6), F(-1, 6)}

    def test_empty(self):
        out = bernstein_combine([], [F(-1, 2)])
        assert out.raw == frozenset()
        assert out.canonical == frozenset()
        assert out.candidates == frozenset()

    def test_kappa_widen(self):
        out = bernstein_combine([F(-1, 2)], [F(-1, 3)], kappa=2)
        assert out.canonical == {F(-5, 6)}
        assert out.candidates == {F(-5, 6), F(-11, 6), F(-17, 6)}

    def test_candidates_are_capped_before_any_is_built(self, monkeypatch):
        # |canonical| (kappa + 1) candidates, at most the output cap, here
        # lowered to the cusp pair's two classes at kappa = 2
        monkeypatch.setattr(expansion_algebra, "_MAX_OUTPUT_ELEMENTS", 6)
        out = bernstein_combine([F(-1, 2)], [F(-1, 3), F(-2, 3)], kappa=2)
        assert len(out.candidates) == 6
        with pytest.raises(ValueError, match="^the candidates at kappa 3 would hold 8 elements"):
            bernstein_combine([F(-1, 2)], [F(-1, 3), F(-2, 3)], kappa=3)

    def test_rejects_nonnegative_roots(self):
        with pytest.raises(ValueError):
            bernstein_combine([F(1, 2)], [F(-1, 2)])
        with pytest.raises(ValueError):
            bernstein_combine([F(0)], [F(-1, 2)])

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            bernstein_combine([F(-1, 2)], [F(-1, 2)], kappa=-1)

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("m", range(2, 10))
    def test_brieskorn_pham_roots_are_candidates(self, n, m):
        # the b-function of x^N + y^M has the roots -1 and -(i/N + j/M),
        # 0 < i < N, 0 < j < M (Brieskorn-Pham); from the one-variable
        # roots -k/N and -l/M the shift budget kappa = 1 reaches all of them
        roots = {F(-1)} | {-(F(i, n) + F(j, m)) for i in range(1, n) for j in range(1, m)}
        first = [F(-k, n) for k in range(1, n + 1)]
        second = [F(-l, m) for l in range(1, m + 1)]
        assert roots <= bernstein_combine(first, second, kappa=1).candidates
        if (n, m) == (2, 3):
            # at kappa = 0 the canonical window [-1, 0) holds -1/6, not -7/6
            assert F(-7, 6) not in bernstein_combine(first, second).candidates

    @pytest.mark.parametrize("count, top, needed", [(3, 6, {1: 11, 2: 24}),
                                                    (4, 5, {1: 1, 2: 28, 3: 6})])
    def test_n_germ_brieskorn_pham_budget(self, count, top, needed):
        # x1^N1 + ... + xn^Nn: folding bernstein_combine left over the
        # one-variable roots -k/N_t, with one kappa at each step, reaches
        # -1 and every -(i_1/N_1 + ... + i_n/N_n), 0 < i_t < N_t, at
        # kappa = n - 1, and some exponent sets need all of it
        first_kappa = {}
        for exponents in itertools.combinations_with_replacement(range(2, top + 1), count):
            roots = {F(-1)} | {
                -sum(map(F, parts, exponents))
                for parts in itertools.product(*(range(1, n) for n in exponents))
            }
            for kappa in range(count):
                candidates = [F(-k, exponents[0]) for k in range(1, exponents[0] + 1)]
                for n in exponents[1:]:
                    candidates = bernstein_combine(
                        candidates, [F(-k, n) for k in range(1, n + 1)], kappa=kappa
                    ).candidates
                if roots <= candidates:
                    break
            assert roots <= candidates, exponents
            first_kappa[kappa] = first_kappa.get(kappa, 0) + 1
        assert first_kappa == needed

    @given(
        roots1=st.sets(
            st.fractions(min_value=F(-4), max_value=F(-1, 16), max_denominator=16),
            min_size=1,
            max_size=4,
        ),
        roots2=st.sets(
            st.fractions(min_value=F(-4), max_value=F(-1, 16), max_denominator=16),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_canonical_window_and_size(self, roots1, roots2):
        out = bernstein_combine(roots1, roots2)
        assert all(F(-1) <= c < 0 for c in out.canonical)
        assert len(out.raw) <= len(roots1) * len(roots2)
        assert isinstance(out, BernsteinCombination)
