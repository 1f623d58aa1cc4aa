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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .expansion_algebra import (
    CaseTag,
    Expansion,
    LogPolynomial,
    RationalInput,
    SingularTerm,
    as_fraction,
    case_degree,
    classify_case,
    is_natural,
    normalize_term,
)
from .gamma_kernel import (
    Chirality,
    F_const,
    degenerate_case1_coeff,
    integer_case_log_coeff,
    tilde_F_const,
)

#: Measure normalization applied to every singular case constant.  The
#: closed-form constants are stated for the measure (i/pi) du ^ dubar
#: while the convolution itself is taken against (i/4pi) du ^ dubar =
#: (1/2pi) dx dy; the ratio is exactly 1/2.  Confirmed numerically by the
#: oracle calibration test to ~1e-3.
RHO_NORM: float = 0.5

#: The convention factor of integer_case_log_coeff: its rational times
#: -4 is the Laurent coefficient C, so the BothInteger leading coefficient
#: at j = k = 1 is integer_case_log_coeff * (-4 * RHO_NORM) = -2 times it.
INTEGER_CASE_SCALE: float = -4 * RHO_NORM


@dataclass(frozen=True)
class ConvolutionResult:
    """Outcome of convolving two singular terms.

    ``term`` is None exactly in the Smooth case.  Only the leading log
    coefficient of the output is computed; the term's polynomial stores it
    as a pure monomial of the declared degree, with lower slots zero as
    placeholders (sub-leading coefficients are not part of the contract).
    ``normalization`` records the measure factor already multiplied into
    ``leading_coeff``: RHO_NORM in every singular case, 0.0 for Smooth.
    """

    term: Optional[SingularTerm]
    case: CaseTag
    leading_coeff: complex
    degree: int
    normalization: float

    def __post_init__(self) -> None:
        if (self.term is None) != (self.case is CaseTag.SMOOTH):
            raise ValueError("term must be absent exactly in the Smooth case")
        if self.degree < -1:
            raise ValueError("degree must be >= -1")
        if self.case is not CaseTag.SMOOTH and self.leading_coeff == 0:
            raise ValueError("leading coefficient of a singular case cannot vanish")

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
    singular case; Smooth returns (Smooth, 0.0, 0.0).
    """
    af = as_fraction(a)
    bf = as_fraction(b)
    case = classify_case(af, bf, j, k)
    if case is CaseTag.SMOOTH:
        return case, 0.0, 0.0
    if case is CaseTag.GENERIC:
        return case, F_const(p, q, af, bf, chirality), RHO_NORM
    if case is CaseTag.RESONANT:
        base = tilde_F_const(p, q, af, bf, chirality)
    elif case is CaseTag.ONE_INTEGER_FACTOR:
        base = degenerate_case1_coeff(p, q, af, bf, chirality)
    else:
        base = -4.0 * float(integer_case_log_coeff(p, q, int(af), int(bf), chirality))
    if is_natural(af):
        base *= j
    if is_natural(bf):
        base *= k
    if case is CaseTag.RESONANT or case is CaseTag.BOTH_INTEGER:
        base /= case_degree(case, j, k)
    return case, base, RHO_NORM


def _output_key(
    r1: Fraction, m1: int, n1: int, r2: Fraction, m2: int, n2: int
) -> Tuple[Fraction, int, int]:
    """Exponent arithmetic: r1+r2+1 in (-1, 1], folded back into (-1, 0]."""
    r_raw = r1 + r2 + 1
    m_out = m1 + m2
    n_out = n1 + n2
    if r_raw > 0:
        return r_raw - 1, m_out + 1, n_out + 1
    return r_raw, m_out, n_out


def convolve_terms(t1: SingularTerm, t2: SingularTerm) -> ConvolutionResult:
    """Convolve two singular terms, producing the leading output term.

    Inputs are rescaled to monic leading log coefficient; the two scalar
    factors multiply the case constant back at the end.  The kernel is
    ANTI when both terms carry a monomial and the two point opposite ways.
    The output exponent is r1+r2+1 brought back into (-1, 0] by shifting
    one unit of |s|^2 into the monomial powers when needed.
    """
    if t1.poly.is_zero or t2.poly.is_zero:
        raise ValueError("cannot convolve a term with zero log polynomial")
    j = t1.poly.degree
    k = t2.poly.degree
    c1 = t1.poly.leading
    c2 = t2.poly.leading

    a, p, chir1 = normalize_term(t1)
    b, q, chir2 = normalize_term(t2)
    chir = Chirality.ANTI if p and q and chir1 is not chir2 else Chirality.HOLO

    case, base, norm = kernel_leading_constant(p, q, a, b, j, k, chir)
    degree = case_degree(case, j, k)
    if case is CaseTag.SMOOTH:
        return ConvolutionResult(
            term=None, case=case, leading_coeff=0j, degree=degree, normalization=0.0
        )

    leading = c1 * c2 * base * norm
    r_out, m_out, n_out = _output_key(t1.r, t1.m, t1.n, t2.r, t2.m, t2.n)
    poly = LogPolynomial.monomial(degree).scale(leading)
    term = SingularTerm(r=r_out, m=m_out, n=n_out, poly=poly)
    return ConvolutionResult(
        term=term, case=case, leading_coeff=leading, degree=degree, normalization=norm
    )


def convolve_expansions(e1: Expansion, e2: Expansion) -> Expansion:
    """Convolve two expansions term by term and merge colliding outputs.

    Every pairwise result lands in the bucket of its (r, m, n) key;
    coefficients accumulate from zero in pair order, so the floating-point
    sum is deterministic.  A merged term whose accumulated coefficient in
    some log slot has magnitude below 1e-9 times the largest contribution
    to that slot is flagged as compensated, never silently dropped; a
    term cancelling to exactly zero is flagged, and Expansion drops it.
    """
    buckets: Dict[Tuple[Fraction, int, int], List[LogPolynomial]] = {}
    for t1 in e1.terms:
        for t2 in e2.terms:
            term = convolve_terms(t1, t2).term
            if term is not None:
                buckets.setdefault(term.key, []).append(term.poly)

    terms: List[SingularTerm] = []
    flagged: List[Tuple[Fraction, int, int]] = []
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


@dataclass(frozen=True)
class BernsteinCombination:
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
    integer-shift budget and only widens the candidate set.  An empty
    input yields an empty result.
    """
    if not isinstance(kappa, int) or isinstance(kappa, bool) or kappa < 0:
        raise ValueError("kappa must be an integer >= 0, got %r" % (kappa,))
    r1 = [as_fraction(x) for x in roots1]
    r2 = [as_fraction(x) for x in roots2]
    for x in r1 + r2:
        if x >= 0:
            raise ValueError("Bernstein roots must be negative, got %s" % x)
    raw = frozenset(x + y for x in r1 for y in r2)
    canonical = frozenset(_canonical_rep(s) for s in raw)
    candidates = frozenset(c - t for c in canonical for t in range(kappa + 1))
    return BernsteinCombination(raw=raw, canonical=canonical, candidates=candidates)
