"""Case classification and leading-constant assembly for term convolution.

Combining two singular terms produces a new singular term whose exponent,
monomial powers, and leading log degree follow exact arithmetic rules, and
whose leading coefficient is a Gamma-factor constant picked by the
arithmetic case of the pair.  This module owns that decision tree, the
whole-expansion convolution built on top of it, and the root-sum
combination rule for Bernstein root sets.

Case constants come from :mod:`asymconv.gamma_kernel`; the two global
normalization constants below relate those constants to the measure
``(1/2pi) dx dy`` used by the quadrature oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .expansion_algebra import (
    Expansion,
    LogPolynomial,
    RationalInput,
    SingularTerm,
    as_fraction,
    degree_rule,
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

#: Measure normalization applied to every Generic / Resonant /
#: OneIntegerFactor leading constant.  The closed-form constants are stated
#: for the measure (i/pi) du ^ dubar while the convolution itself is taken
#: against (i/4pi) du ^ dubar = (1/2pi) dx dy; the ratio is exactly 1/2.
#: Confirmed numerically by the oracle calibration test to ~1e-3.
RHO_NORM: float = 0.5

#: Extra scale applied to the BothInteger constant, which is stated in the
#: (1/4 i pi) du ^ dubar measure and in the Log|s| (not Log|s|^2) basis.
#: Sign flip from the measure orientation, x4 from the two squared-log
#: arguments, x1/2 from the output log basis: (-1) * 4 * 1/2 = -2 exactly.
#: Confirmed numerically by the oracle calibration test.
INTEGER_CASE_SCALE: float = -2.0


class CaseTag(str, enum.Enum):
    """Arithmetic case of a term pair with kernel exponents a, b."""

    GENERIC = "Generic"
    RESONANT = "Resonant"
    ONE_INTEGER_FACTOR = "OneIntegerFactor"
    BOTH_INTEGER = "BothInteger"
    SMOOTH = "Smooth"


def classify_case(a: RationalInput, b: RationalInput, j: int, k: int) -> CaseTag:
    """Classify the pair (|s|^{2a} Log^j) * (|s|^{2b} Log^k).

    Precedence: Smooth beats BothInteger and OneIntegerFactor, since a
    natural exponent with no log factor contributes nothing singular no
    matter what it is paired with.

    Preconditions: ``a, b > -1``; ``j, k >= 0``.
    """
    af = as_fraction(a)
    bf = as_fraction(b)
    if af <= -1 or bf <= -1:
        raise ValueError("exponents must lie in (-1, oo), got a=%s b=%s" % (af, bf))
    if not (isinstance(j, int) and isinstance(k, int)) or j < 0 or k < 0:
        raise ValueError("log degrees must be integers >= 0, got j=%r k=%r" % (j, k))
    a_nat = is_natural(af)
    b_nat = is_natural(bf)
    if (a_nat and j == 0) or (b_nat and k == 0):
        return CaseTag.SMOOTH
    if a_nat and b_nat:
        return CaseTag.BOTH_INTEGER
    if a_nat or b_nat:
        return CaseTag.ONE_INTEGER_FACTOR
    if is_natural(af + bf + 1):
        return CaseTag.RESONANT
    return CaseTag.GENERIC


@dataclass(frozen=True)
class ConvolutionResult:
    """Outcome of convolving two singular terms.

    ``term`` is None exactly in the Smooth case.  Only the leading log
    coefficient of the output is computed; the term's polynomial stores it
    as a pure monomial of the declared degree, with lower slots zero as
    placeholders (sub-leading coefficients are not part of the contract).
    ``normalization`` records the measure factor already multiplied into
    ``leading_coeff``.
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
        term = None
        if self.term is not None:
            term = {
                "r": str(self.term.r),
                "m": self.term.m,
                "n": self.term.n,
                "log_coeffs": [
                    [c.real, c.imag] for c in self.term.poly.coefficients
                ],
            }
        return {
            "case": self.case.value,
            "degree": self.degree,
            "leading_coeff": [self.leading_coeff.real, self.leading_coeff.imag],
            "normalization": self.normalization,
            "term": term,
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

    The base constant is the closed-form Gamma-factor value for the case,
    including the log-degree multiplier (1/(j+k+1) in the Resonant case,
    j or k in the OneIntegerFactor case); the normalization is the measure
    factor that multiplies it.  The full monic leading coefficient is
    base * normalization.  Smooth returns (Smooth, 0.0, 0.0).

    BothInteger pairs are only supported at j = k = 1, where the constant
    is pinned by an exact rational; other (j, k) raise ValueError (their
    constant is measurable through the oracle but has no asserted closed
    form here).
    """
    af = as_fraction(a)
    bf = as_fraction(b)
    case = classify_case(af, bf, j, k)
    if case is CaseTag.SMOOTH:
        return case, 0.0, 0.0
    if case is CaseTag.GENERIC:
        return case, F_const(p, q, af, bf, chirality).value, RHO_NORM
    if case is CaseTag.RESONANT:
        base = tilde_F_const(p, q, af, bf, chirality) / (j + k + 1)
        return case, base, RHO_NORM
    if case is CaseTag.ONE_INTEGER_FACTOR:
        mult = j if is_natural(af) else k
        base = mult * degenerate_case1_coeff(p, q, af, bf, chirality)
        return case, base, RHO_NORM
    # BothInteger
    if (j, k) != (1, 1):
        raise ValueError(
            "BothInteger pairs are pinned only at log degrees j = k = 1; "
            "got (j, k) = (%d, %d)" % (j, k)
        )
    base = float(integer_case_log_coeff(p, q, int(af), int(bf), chirality))
    return case, base, INTEGER_CASE_SCALE


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
    degree = degree_rule(a, b, j, k)
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
    coefficients accumulate in a fixed order (sorted by key, then input
    order) so the floating-point sum is deterministic.  A merged term
    whose accumulated coefficient in some log slot has magnitude below
    1e-9 times the largest contribution to that slot is flagged as
    compensated, never silently dropped; a term cancelling to exactly
    zero is dropped and flagged.
    """
    contributions: List[Tuple[Tuple[Fraction, int, int], int, LogPolynomial]] = []
    order = 0
    for t1 in e1.terms:
        for t2 in e2.terms:
            res = convolve_terms(t1, t2)
            if res.term is None:
                continue
            contributions.append((res.term.key, order, res.term.poly))
            order += 1

    contributions.sort(key=lambda item: (item[0], item[1]))
    buckets: Dict[Tuple[Fraction, int, int], List[LogPolynomial]] = {}
    for key, _, poly in contributions:
        buckets.setdefault(key, []).append(poly)

    terms: List[SingularTerm] = []
    flagged: List[Tuple[Fraction, int, int]] = []
    for key, polys in buckets.items():
        total = LogPolynomial.zero()
        for poly in polys:
            total = total + poly
        max_degree = max(poly.degree for poly in polys)
        compensated = False
        for l in range(max_degree + 1):
            peak = max(abs(poly.coefficient(l)) for poly in polys)
            if peak > 0 and abs(total.coefficient(l)) < 1e-9 * peak:
                compensated = True
        if compensated:
            flagged.append(key)
        if total.is_zero:
            continue
        terms.append(SingularTerm(r=key[0], m=key[1], n=key[2], poly=total))

    smooth_order = min(e1.smooth_order, e2.smooth_order)
    return Expansion(
        terms=tuple(terms),
        smooth_order=smooth_order,
        compensated=frozenset(flagged),
    )


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
    shift = -(-x).__floor__() if x < 0 else x.__floor__() + 1
    rep = x - shift
    while rep < -1:
        rep += 1
    while rep >= 0:
        rep -= 1
    return rep


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
