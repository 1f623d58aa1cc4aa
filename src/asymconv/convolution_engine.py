"""Leading-constant assembly for term convolution.

Combining two singular terms produces a new singular term whose exponent,
monomial powers, and leading log degree follow exact arithmetic rules, and
whose leading coefficient is a Gamma-factor constant picked by the
arithmetic case of the pair.  The case and the degree come from
:mod:`asymconv.expansion_algebra`; this module maps each case to its
constant, accumulates the terms of a whole-expansion convolution, and
holds the root-sum combination rule for Bernstein root sets.

Every case constant is the leading Laurent coefficient of one Gamma
ratio from :mod:`asymconv.gamma_kernel` times its log-degree factors;
one normalization, RHO_NORM, relates all of them to the measure
``(1/2pi) dx dy`` used by the quadrature oracle.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .expansion_algebra import (
    CaseTag,
    Expansion,
    LogPolynomial,
    RationalInput,
    SingularTerm,
    _CaseTable,
    _check_output_size,
    _check_slice,
    _exact_int,
    as_fraction,
    case_degree,
    classify_case,
    in_slice,
    is_natural,
    normalize_term,
)
from .gamma_kernel import (
    RHO_NORM,
    Chirality,
    F_const,
    _gamma_factor,
    _GammaFactor,
    _integer_case_log2,
    _pair_coefficient,
    degenerate_case1_coeff,
    integer_case_log_coeff,
    tilde_F_const,
)

#: The convention factor of integer_case_log_coeff: its rational times
#: -4 is the Laurent coefficient C, so the BothInteger leading coefficient
#: at j = k = 1 is integer_case_log_coeff * (-4 * RHO_NORM) = -2 times it.
INTEGER_CASE_SCALE: float = -4 * RHO_NORM

class _ConvolutionResultFields(NamedTuple):
    term: Optional[SingularTerm]
    case: CaseTag
    leading_coeff: complex
    degree: int
    normalization: float


class ConvolutionResult(_ConvolutionResultFields):
    """Outcome of convolving two singular terms.

    ``term`` is None exactly in the Smooth case.  Only the leading log
    coefficient of the output is computed; the term's polynomial stores it
    as a pure monomial of the declared degree, with lower slots +0 as
    placeholders (sub-leading coefficients are not part of the contract).
    ``normalization`` records the measure factor already multiplied into
    ``leading_coeff``: RHO_NORM in every singular case, 0.0 for Smooth.
    """

    __slots__ = ()

    def __new__(
        cls, term: Optional[SingularTerm], case: CaseTag, leading_coeff: complex,
        degree: int, normalization: float,
    ) -> "ConvolutionResult":
        if (term is None) != (case is CaseTag.SMOOTH):
            raise ValueError("term must be absent exactly in the Smooth case")
        if degree < -1:
            raise ValueError("degree must be >= -1")
        if case is not CaseTag.SMOOTH and leading_coeff == 0:
            raise ValueError("leading coefficient of a singular case cannot vanish")
        return tuple.__new__(cls, (term, case, leading_coeff, degree, normalization))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs the checks

    def to_json_dict(self) -> dict:
        return {
            "case": self.case.value,
            "degree": self.degree,
            "leading_coeff": [self.leading_coeff.real, self.leading_coeff.imag],
            "normalization": self.normalization,
            "term": None if self.term is None else self.term.to_json_dict(),
        }


def kernel_leading_constant(
    p: int,
    q: int,
    a: RationalInput,
    b: RationalInput,
    j: int,
    k: int,
    chirality: Chirality,
) -> Tuple[CaseTag, float, float]:
    """Case constant for monic inputs: (case, base constant, normalization).

    base = C * j^alpha * k^beta / L^gamma: C is the case's Laurent
    coefficient (-4*integer_case_log_coeff for BothInteger), alpha, beta
    and gamma are 1 when a, b and a+b+1 are natural (else 0), and L is
    the output log degree.  The normalization is RHO_NORM in every
    singular case; Smooth returns (Smooth, 0.0, 0.0), once its input has
    passed the closed forms' checks too, _check_slice's and a, b > -1.
    Then come classify_case and the case-constant step that every term
    pair of the engine goes through.
    """
    af, bf, chirality = _check_slice(p, q, a, b, chirality)
    if not (in_slice(af, 0) and in_slice(bf, 0)):
        raise ValueError("a=%s, b=%s: the closed forms cover only a, b > -1" % (af, bf))
    case = classify_case(af, bf, j, k)
    if case is CaseTag.SMOOTH:
        return case, 0.0, 0.0
    return case, _case_constant(case, p, q, af, bf, j, k, chirality), RHO_NORM


def _case_constant(
    case: CaseTag,
    p: int,
    q: int,
    a: Fraction,
    b: Fraction,
    j: int,
    k: int,
    chirality: Chirality,
) -> float:
    """The base constant of kernel_leading_constant for a singular case
    already decided on validated input.

    The case says which exponents are natural: both for BothInteger, one
    for OneIntegerFactor (is_natural(a) says which), none otherwise.
    """
    if case is CaseTag.GENERIC:
        return F_const(p, q, a, b, chirality)
    if case is CaseTag.RESONANT:
        return tilde_F_const(p, q, a, b, chirality) / case_degree(case, j, k)
    if case is CaseTag.ONE_INTEGER_FACTOR:
        base = degenerate_case1_coeff(p, q, a, b, chirality)
        return base * (j if is_natural(a) else k)
    # lgamma's estimate refuses a constant far below float range before
    # any factorial is built; nearer the edge the exact rational decides
    log2, error = _integer_case_log2(p, q, a, b, chirality)
    if log2 + error > -1138:  # 64 bits below 2^-1074, the smallest float
        base = -4.0 * float(integer_case_log_coeff(p, q, int(a), int(b), chirality))
        if base != 0:  # the exact rational is never zero
            base *= j
            base *= k
            return base / case_degree(case, j, k)
    raise ValueError(
        "BothInteger constant at a=%s, b=%s is below float range: "
        "-4*integer_case_log_coeff is about 2^%.0f" % (a, b, log2)
    )


class _TermFacts(NamedTuple):
    """What a term brings to every pair it enters, decided once.

    ``a_num`` and ``r_num`` are a and r times the common denominator D
    of the pair's documents, so that the sum rules of a pair are integer
    sums and "a+b+1 is natural" is a divisibility test by D.  ``factor``
    is the Gamma factor of its kernel exponent a with its monomial degree.
    """

    degree: int
    leading: complex
    a: Fraction
    p: int
    chirality: Chirality
    a_natural: bool
    a_num: int
    r_num: int
    m: int
    n: int
    factor: _GammaFactor


def _term_facts(term: SingularTerm, denominator: int) -> _TermFacts:
    """The facts of one term over the common denominator (a multiple of
    the denominator of its r)."""
    if term.poly.is_zero:
        raise ValueError("cannot convolve a term with zero log polynomial")
    a, p, chirality = normalize_term(term)
    r_num = term.r.numerator * (denominator // term.r.denominator)
    return _TermFacts(
        term.poly.degree, term.poly.leading, a, p, chirality, is_natural(a),
        r_num + min(term.m, term.n) * denominator, r_num, term.m, term.n,
        _gamma_factor("the kernel exponent", a, p),
    )


def _pair_rule(
    t1: _TermFacts, t2: _TermFacts, denominator: int, cases: _CaseTable
) -> Tuple[CaseTag, int, complex, Optional[Tuple[int, int, int]]]:
    """(case, degree, leading coefficient, output key) of one term pair.

    The key is (R, m, n) with the output exponent R/D in (-1, 0]: the
    sum r1+r2+1 folded back into that window by shifting one unit of
    |s|^2 into the monomial powers when needed.  Smooth has no key.  The
    kernel is ANTI when both terms carry a monomial and the two point
    opposite ways.  The base constant is _case_constant's, from the two
    terms' Gamma factors: a, b > -1 here, so a+b+s+1 is natural only at
    a resonance and no pair needs the exact pole test off it.
    """
    j, c1, a, p, chir1, a_natural, a_num, r1, m1, n1, fa = t1
    k, c2, b, q, chir2, b_natural, b_num, r2, m2, n2, fb = t2
    total = a_num + b_num + denominator
    resonant = total >= 0 and total % denominator == 0
    case, degree = cases[a_natural, b_natural, resonant, j, k]
    if case is CaseTag.SMOOTH:
        return case, degree, 0j, None
    shift = p if p and q and chir1 is not chir2 else 0
    if case is CaseTag.GENERIC:
        base = _pair_coefficient(fa, fb, shift)
    elif case is CaseTag.RESONANT:
        base = _pair_coefficient(fa, fb, shift, total // denominator) / degree
    elif case is CaseTag.ONE_INTEGER_FACTOR:
        base = _pair_coefficient(fa, fb, shift) * (j if a_natural else k)
    else:
        chir = Chirality.ANTI if shift else Chirality.HOLO
        base = _case_constant(case, p, q, a, b, j, k, chir)
    leading = c1 * c2 * base * RHO_NORM
    if leading == 0:  # no factor is zero: the product left float range
        raise ValueError("leading coefficient of a term pair is below float range")
    r_out = r1 + r2 + denominator
    if r_out > 0:
        return case, degree, leading, (r_out - denominator, m1 + m2 + 1, n1 + n2 + 1)
    return case, degree, leading, (r_out, m1 + m2, n1 + n2)


def _check_finite(coefficients: List[complex], r: Fraction, m: int, n: int) -> None:
    """ValueError naming the output key where a log coefficient left float range."""
    if not all(map(cmath.isfinite, coefficients)):
        raise ValueError("output term r=%s, m=%d, n=%d is beyond float range" % (r, m, n))


def convolve_terms(t1: SingularTerm, t2: SingularTerm) -> ConvolutionResult:
    """Convolve two singular terms, producing the leading output term.

    The leading coefficient is c1 * c2 * base * RHO_NORM, with c1 and c2
    the terms' leading log coefficients and base the case constant of
    the monic pair.  This is the pair rule of convolve_expansions, taken
    over the common denominator of the two exponents.
    """
    denominator = math.lcm(t1.r.denominator, t2.r.denominator)
    case, degree, leading, key = _pair_rule(
        _term_facts(t1, denominator), _term_facts(t2, denominator), denominator, _CaseTable()
    )
    if key is None:
        return ConvolutionResult(
            term=None, case=case, leading_coeff=0j, degree=degree, normalization=0.0
        )
    r_num, m_out, n_out = key
    r = Fraction(r_num, denominator)
    _check_finite([leading], r, m_out, n_out)
    # the slot rule of convolve_expansions: every slot starts at 0j, and
    # the leading coefficient is added to the slot of its degree
    poly = LogPolynomial.of_coeffs([0j] * degree + [0j + leading])
    term = SingularTerm(r=r, m=m_out, n=n_out, poly=poly)
    return ConvolutionResult(
        term=term, case=case, leading_coeff=leading, degree=degree, normalization=RHO_NORM
    )


def convolve_expansions(e1: Expansion, e2: Expansion) -> Expansion:
    """Convolve two expansions term by term and merge colliding outputs.

    Each term's facts are decided once, over D, the lcm of the r
    denominators of both expansions; every pair then goes through
    convolve_terms's pair rule with integer exponent numerators.  Each
    output key keeps a list of log-slot totals, each starting at +0, and
    one of per-slot peaks: a pair adds its leading coefficient to the
    slot of its degree, in pair order, and raises that slot's peak to its
    magnitude.  A sum from +0 never becomes -0, so a key reached by one
    pair holds that pair's convolve_terms polynomial bit for bit.  A key
    whose total in some slot is below 1e-9 times the slot's peak is
    flagged as compensated, never silently dropped; a term cancelling to
    exactly zero is flagged, and Expansion drops it.
    """
    denominator = math.lcm(*(t.r.denominator for t in e1.terms + e2.terms))
    left = [_term_facts(t, denominator) for t in e1.terms]
    right = [_term_facts(t, denominator) for t in e2.terms]
    cases = _CaseTable()
    buckets: Dict[Tuple[int, int, int], Tuple[List[complex], List[float]]] = {}
    for t1 in left:
        for t2 in right:
            _, degree, leading, key = _pair_rule(t1, t2, denominator, cases)
            if key is None:
                continue
            totals, peaks = buckets.setdefault(key, ([], []))
            if len(totals) <= degree:
                totals += [0j] * (degree + 1 - len(totals))
                peaks += [0.0] * (degree + 1 - len(peaks))
            totals[degree] += leading
            peaks[degree] = max(peaks[degree], abs(leading))

    terms: List[SingularTerm] = []
    flagged: List[Tuple[Fraction, int, int]] = []
    for (r_num, m, n), (totals, peaks) in buckets.items():
        r = Fraction(r_num, denominator)
        _check_finite(totals, r, m, n)
        if any(peak > 0 and abs(total) < 1e-9 * peak for total, peak in zip(totals, peaks)):
            flagged.append((r, m, n))
        terms.append(SingularTerm(r=r, m=m, n=n, poly=LogPolynomial.of_coeffs(totals)))

    smooth_order = min(e1.smooth_order, e2.smooth_order)
    return Expansion(terms, smooth_order, compensated=frozenset(flagged))


class BernsteinCombination(NamedTuple):
    """Root sums of two Bernstein root sets.

    ``raw`` holds the plain sums alpha+beta; ``canonical`` their
    representatives in [-1, 0) modulo 1; ``candidates`` extends the
    canonical set by integer shifts 0..kappa downward, the budget within
    which actual roots of the combined germ live.
    """

    raw: FrozenSet[Fraction]
    canonical: FrozenSet[Fraction]
    candidates: FrozenSet[Fraction]


def _canonical_rep(x: Fraction) -> Fraction:
    """Representative of x mod 1 in [-1, 0)."""
    return x - math.floor(x) - 1


def bernstein_combine(
    roots1, roots2, kappa: int = 0
) -> BernsteinCombination:
    """Combine two sets of negative rational roots by pairwise summation.

    All roots must be negative rationals; kappa >= 0 is the caller's
    integer-shift budget and only widens the candidate set, whose
    |canonical| (kappa + 1) elements must stay within the output cap
    (_check_output_size).  An empty input yields an empty result.
    """
    _exact_int("kappa", kappa)
    r1 = [as_fraction(x) for x in roots1]
    r2 = [as_fraction(x) for x in roots2]
    for x in r1 + r2:
        if x >= 0:
            raise ValueError("Bernstein roots must be negative, got %s" % x)
    raw = frozenset(x + y for x in r1 for y in r2)
    canonical = frozenset(_canonical_rep(s) for s in raw)
    _check_output_size("the candidates at kappa %d" % kappa, len(canonical) * (kappa + 1))
    candidates = frozenset(c - t for c in canonical for t in range(kappa + 1))
    return BernsteinCombination(raw=raw, canonical=canonical, candidates=candidates)
