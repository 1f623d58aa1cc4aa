"""Closed-form Gamma-factor constants for singular-kernel convolutions.

Each case constant is C, the leading Laurent coefficient of one Gamma
ratio in (a, b): its value off the loci, its residue where a+b+1 is
natural, its derivative across a natural a or b.  F_const, G_q,
tilde_F_const and degenerate_case1_coeff read C from one rule, in two
parts: each exponent's _GammaFactor, and the pair's own arguments
(_pair_coefficient), which the convolution engine calls directly with
factors built once per term.  integer_case_log_coeff is the exact -C/4
where a and b are both natural.

Every function here evaluates a ratio of Gamma values (or a limit of one)
in log-space with explicit sign tracking, so large parameters cannot
overflow and zeros produced by reciprocal Gamma factors at the poles are
exact.  Every function that decides a branch on integrality (is an
exponent a natural number, is a sum resonant) takes its exponents as
exact rationals and refuses a float with TypeError; only the three
identity evaluators beta_tail_integral, binomial_gamma_sum and gauss_sum
take floats, since they classify nothing.  Integer fields, the chirality,
the slice and "is a+b+1 natural" pass expansion_algebra's rules and
nothing else.  Every value here, a Fourier coefficient and an identity
evaluator's too, is a plain float, GammaPoleError (a ValueError) at a
pole of the continuation, or a ValueError where it, an exponent or a
Gamma value it reads is beyond float range; never an OverflowError.  A
leading coefficient is also a ValueError where it is below float range
(never a silent zero) or where a non-integer exponent's float is an
integer (never a false pole).

Natural numbers include 0 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple, Union

from .expansion_algebra import Chirality, RationalInput, _exact_int, _float, as_fraction
from .expansion_algebra import _check_slice, _natural_sum, in_slice, is_natural


#: Measure normalization applied to every singular case constant.  The
#: closed-form constants are stated for the measure (i/pi) du ^ dubar
#: while the convolution itself is taken against (i/4pi) du ^ dubar =
#: (1/2pi) dx dy; the ratio is exactly 1/2.  Confirmed numerically by the
#: oracle calibration test to ~1e-3.
RHO_NORM: float = 0.5


class GammaPoleError(ValueError):
    """A Gamma factor in a numerator sits at a pole that nothing cancels."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def _is_zero_ratio(poles: int, zeros: int) -> bool:
    """Whether a Gamma ratio with ``poles`` numerator and ``zeros``
    denominator arguments at poles is an exact zero (more zeros).  A
    numerator pole that no denominator pole cancels raises GammaPoleError;
    an exactly balanced pair is refused as indeterminate, since its value
    depends on the direction of approach."""
    if poles > zeros:
        raise GammaPoleError("uncancelled Gamma pole in numerator")
    if poles == zeros and poles > 0:
        raise GammaPoleError("indeterminate Gamma ratio (pole meets zero)")
    return zeros > poles


def _gamma_sign(x: float) -> int:
    """The sign of Gamma(x) off its poles: negative exactly where floor(x)
    is a negative odd integer."""
    return -1 if x < 0 and math.floor(x) % 2 else 1


def _lgamma(x: float) -> float:
    """math.lgamma(x), or ValueError naming x past lgamma's range (~2.5e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ValueError("Gamma(%r) is beyond float range" % x) from None


def _signed_exp(sign: int, logs: List[float]) -> float:
    """sign * exp(the sum of logs), the sum rounded once by math.fsum, so
    its value does not depend on the order of the logs.  The sort fixes
    the order of the partial sums, so the same logs overflow alike in
    any order; a magnitude or partial sum beyond float range is a ValueError."""
    try:
        log_value = math.fsum(sorted(logs))
    except OverflowError:
        raise ValueError("Gamma ratio beyond float range: a partial sum of its logs") from None
    try:
        return sign * math.exp(log_value)
    except OverflowError:
        raise ValueError("Gamma ratio beyond float range: log = %r" % log_value) from None


def _gamma_ratio(numerators: List[float], denominators: List[float]) -> float:
    """Product of Gamma(n_i) over product of Gamma(d_j), in log-space.

    A denominator at a pole contributes an exact zero factor, and poles
    are balanced by _is_zero_ratio.  Past those checks no argument is a
    pole.
    """
    zeros = sum(1 for x in denominators if _is_nonpositive_integer(x))
    poles = sum(1 for x in numerators if _is_nonpositive_integer(x))
    if _is_zero_ratio(poles, zeros):
        return 0.0
    logs: List[float] = []
    sign = 1
    for x in numerators:
        logs.append(_lgamma(x))
        sign *= _gamma_sign(x)
    for x in denominators:
        logs.append(-_lgamma(x))
        sign *= _gamma_sign(x)
    return _signed_exp(sign, logs)


def beta_tail_integral(u: float, v: float) -> float:
    """Value of the half-line integral of x^v (1+x^2)^(-u).

    Equals (1/2) Gamma((v+1)/2) Gamma(u-(v+1)/2) / Gamma(u); convergence
    needs v > -1 at the origin and u - (v+1)/2 > 0 at infinity.
    """
    u = _float("argument u", u)
    v = _float("argument v", v)
    if v <= -1:
        raise ValueError("need v > -1 for convergence at 0")
    if u - (v + 1) / 2 <= 0:
        raise ValueError("need u - (v+1)/2 > 0 for convergence at infinity")
    return 0.5 * _gamma_ratio([(v + 1) / 2, u - (v + 1) / 2], [u])


def fourier_coefficient(a: RationalInput, q: int, r: int) -> float:
    """Coefficient of x^r in the angular average of |1 - x e^(-i theta)|^(2a)
    against the mode e^(i q theta), for 0 <= x < 1.

    Vanishes whenever r and q have opposite parity.  For natural a the
    average is a polynomial and the coefficient is a signed product of two
    binomials with a finite support window; otherwise it is a Gamma ratio.
    """
    _exact_int("q", q)
    _exact_int("r", r)
    a = as_fraction(a)
    if not in_slice(a, 0):
        raise ValueError("need a > -1")
    if (r - q) % 2 != 0:
        return 0.0
    half_minus = (r - q) // 2
    half_plus = (r + q) // 2
    if half_minus < 0:
        return 0.0
    sign = -1 if r % 2 else 1
    if is_natural(a):
        n = int(a)
        if half_plus > n:
            return 0.0
        product = sign * math.comb(n, half_plus) * math.comb(n, half_minus)
        return _float("the natural-a coefficient comb(a, (r+q)/2) comb(a, (r-q)/2)", product)
    a_f = _float("a", a)
    value = _gamma_ratio(
        [a_f + 1, a_f + 1],
        [
            a_f + 1 - half_minus,
            a_f + 1 - half_plus,
            float(half_minus + 1),
            float(half_plus + 1),
        ],
    )
    return sign * value


def G_q(a: RationalInput, b: RationalInput, q: int) -> float:
    """Leading constant of the basic singular convolution kernel with one
    monomial factor of degree q, meromorphically continued in (a, b).

    Raises GammaPoleError when a+b+1 is a natural number and the residue
    coefficient is nonzero, and ValueError when that residue vanishes.
    """
    _exact_int("q", q)
    a = as_fraction(a)
    b = as_fraction(b)
    if not in_slice(a, 0):
        raise ValueError("need a > -1")
    total = _natural_sum(a, b)
    if total is not None:
        if fourier_coefficient(a, q, 2 * total + q) != 0.0:
            raise GammaPoleError("a+b+1 = %s is natural: a pole of G_q" % total)
        raise ValueError("indeterminate point: resonant sum with vanishing residue")
    if b + q + 1 <= 0 and b.denominator == 1:
        raise ValueError("b + q + 1 at a non-positive integer: outside the continuation")
    if is_natural(a) or is_natural(b):
        return 0.0
    return RHO_NORM * _leading_coefficient(0, q, a, b, Chirality.HOLO)


def binomial_gamma_sum(p: int, x: float, y: float) -> float:
    """Closed form of the alternating binomial sum of Gamma ratios:
    sum over j of (-1)^j C(p,j) Gamma(x+j)/Gamma(x+y+j)
    = Gamma(x) Gamma(y+p) / (Gamma(x+y+p) Gamma(y)).
    """
    _exact_int("p", p)
    x = _float("argument x", x)
    y = _float("argument y", y)
    if _is_nonpositive_integer(x) or _is_nonpositive_integer(y):
        raise ValueError("x and y must avoid non-positive integers")
    return _gamma_ratio([x, y + p], [x + y + p, y])


def gauss_sum(x: float, y: float, z: float) -> float:
    """Value of the hypergeometric series sum over j of
    Gamma(j+x) Gamma(j+y) / (Gamma(j+z) j!), namely
    Gamma(x) Gamma(y) Gamma(z-x-y) / (Gamma(z-x) Gamma(z-y)).

    Convergence requires z - x - y > 0.
    """
    x = _float("argument x", x)
    y = _float("argument y", y)
    z = _float("argument z", z)
    if z - x - y <= 0:
        raise ValueError("series diverges: need z - x - y > 0")
    for name, value in (("x", x), ("y", y), ("z", z)):
        if _is_nonpositive_integer(value):
            raise ValueError("%s must avoid non-positive integers" % name)
    return _gamma_ratio([x, y, z - x - y], [z - x, z - y])


class _GammaFactor(NamedTuple):
    """What one exponent x with a monomial of degree p brings to every
    leading coefficient it enters: the Gamma(x+p+1) / Gamma(-x) part of
    the ratio, or at a natural x = n, Gamma(x+p+1) times the derivative
    (-1)^(n+1) n! of 1/Gamma(-n-e).  Built once per exponent; a pair adds
    only its own arguments (_pair_coefficient).

    ``logs`` holds lgamma(x+p+1) and, off the naturals, -lgamma(-x),
    unsummed so that a pair's one fsum rounds once; where one of them is
    beyond float range it is _lgamma's message instead.  ``sign`` is the
    sign of those Gamma values.  ``refusal`` says why n! is beyond float
    range, or that x is not an integer but its float is; a pair raises
    either.  So neither x+p+1 nor -x is ever a pole: a natural x has no
    Gamma(-x), and every caller keeps an integer x above -p-1 (the
    slice, or G_q's own check on b).
    """

    x: float
    p: int
    logs: Union[Tuple[float, ...], str]
    sign: int
    factor: float
    refusal: Optional[str]


def _gamma_factor(name: str, x: Fraction, p: int) -> _GammaFactor:
    """The _GammaFactor of the exponent x (named ``name`` if its magnitude
    is beyond float range) with a monomial of degree p."""
    x_f = _float(name, x)
    if x.denominator != 1 and x_f.is_integer():  # this float would read as a pole
        refusal = "%s is %s, whose float %r has lost the fractional part" % (name, x, x_f)
        return _GammaFactor(x_f, p, (), 1, 1.0, refusal)
    up, down = x_f + p + 1, -x_f
    factor, refusal = 1.0, None
    if is_natural(x):  # (-1)^(n+1) n! at n = x replaces 1/Gamma(-x)
        n, down = x.numerator, None
        if n > 170:  # 171! is the first factorial beyond float range
            refusal = "%d! at the natural exponent %d is beyond float range" % (n, n)
        else:
            factor = float(math.factorial(n)) * (1.0 if n % 2 else -1.0)
    try:
        if down is None:
            logs: Union[Tuple[float, ...], str] = (_lgamma(up),)
        else:
            logs = (_lgamma(up), -_lgamma(down))
    except ValueError as exc:
        logs = str(exc)
    sign = _gamma_sign(up) * (1 if down is None else _gamma_sign(down))
    return _GammaFactor(x_f, p, logs, sign, factor, refusal)


def _pair_coefficient(
    fa: _GammaFactor, fb: _GammaFactor, shift: int, resonance: Optional[int] = None
) -> float:
    """C of _leading_coefficient from the factors of a and b: the pair
    adds its own arguments, -a-b-s-1 (at a natural a+b+1 = ``resonance``,
    the residue's a+b+s+2) and a+b+p+q+2-s, checks them for poles, and
    hands every log of the ratio to one fsum.  The natural a+b+s+1 off
    resonance is the caller's to refuse.  Refusals come in the order of
    the one-rule ratio: n! or a lost fraction at a, then at b, then
    poles, then magnitude, above float range or below it.
    """
    a_f, p, logs_a, sign_a, factor_a, refusal_a = fa
    b_f, q, logs_b, sign_b, factor_b, refusal_b = fb
    if refusal_a or refusal_b:
        raise ValueError(refusal_a or refusal_b)
    sign = -1 if shift % 2 else 1
    last = a_f + b_f + (p - shift) + q + 2
    if resonance is None:
        own = -a_f - b_f - shift - 1  # Gamma(-m), m = a+b+s+1
        poles = _is_nonpositive_integer(own)
        zeros = _is_nonpositive_integer(last)
    else:
        own = a_f + b_f + shift + 2  # 1/m! = 1/Gamma(m+1)
        sign *= (-1) ** (resonance + shift + 1)
        poles = 0
        zeros = _is_nonpositive_integer(last) + _is_nonpositive_integer(own)
    factor = factor_a * factor_b
    if _is_zero_ratio(poles, zeros):
        return sign * factor * 0.0
    if type(logs_a) is str or type(logs_b) is str:  # _lgamma's message
        raise ValueError(logs_a if type(logs_a) is str else logs_b)
    own_log = _lgamma(own)
    logs = [*logs_a, *logs_b, own_log if resonance is None else -own_log, -_lgamma(last)]
    ratio_sign = sign_a * sign_b * _gamma_sign(own) * _gamma_sign(last)
    ratio = _signed_exp(ratio_sign, logs)
    if ratio == 0:  # no pole zeroes it here: exp underflowed
        raise ValueError("Gamma ratio below float range: log = %r" % math.fsum(sorted(logs)))
    return sign * factor * ratio


def _leading_coefficient(
    p: int, q: int, a: Fraction, b: Fraction, chirality2: Chirality,
    resonance: Optional[int] = None,
) -> float:
    """C, the leading Laurent coefficient in (e_a, e_b) of the Gamma ratio
    (-1)^s Gamma(a+p+1) Gamma(b+q+1) Gamma(-m) / (Gamma(a+b+p+q+2-s) Gamma(-a) Gamma(-b))
    at (a+e_a, b+e_b), where s = 0 for HOLO and p for ANTI and m = a+b+s+1.

    A natural a or b = n turns 1/Gamma(-n-e) into its derivative
    (-1)^(n+1) n!; a natural m (``resonance`` is the caller's natural
    a+b+1) turns Gamma(-m-u) into its residue (-1)^(m+1)/m! in u = e_a+e_b.
    With a and b both natural, C = -4*integer_case_log_coeff up to rounding.
    Off resonance, a natural m (a pole of Gamma(-m)) is decided exactly
    by _natural_sum, since the float -a-b-s-1 may round off the pole;
    _pair_coefficient still refuses a rounded sum that lands on one.
    There an ANTI ratio takes s = q if a+b+q+1 is not natural: the same
    function, whose pole is only where a+b+1 is an integer >= -min(p, q).
    """
    fa, fb = _gamma_factor("a", a, p), _gamma_factor("b", b, q)
    shift = 0 if chirality2 is Chirality.HOLO else p
    if resonance is None:
        m = _natural_sum(a, b, shift)
        if m is not None and _natural_sum(a, b, q) is None:  # not a pole: shift q says so
            shift, m = q, None
        if m is not None:
            raise GammaPoleError("Gamma pole of Gamma(-m) at m = a+b+%d+1 = %d" % (shift, m))
    return _pair_coefficient(fa, fb, shift, resonance)


def F_const(
    p: int, q: int, a: RationalInput, b: RationalInput, chirality2: Chirality
) -> float:
    """Leading constant for the generic (non-resonant) convolution case.

    chirality2 = HOLO pairs two factors of the same monomial orientation,
    ANTI pairs opposite ones.  The value is symmetric under swapping
    (p, a) with (q, b), so no argument ordering is assumed.  Returns an
    exact zero when a or b is natural, and raises GammaPoleError when
    a+b+1 is natural (the resonant constant applies there instead).
    """
    a, b, chirality2 = _check_slice(p, q, a, b, chirality2)
    total = _natural_sum(a, b)
    if total is not None:
        raise GammaPoleError("a+b+1 = %s is natural: a pole of F_const" % total)
    if is_natural(a) or is_natural(b):
        return 0.0
    return _leading_coefficient(p, q, a, b, chirality2)


def tilde_F_const(
    p: int, q: int, a: RationalInput, b: RationalInput, chirality2: Chirality
) -> float:
    """Log-term leading constant for the resonant case a+b+1 natural.

    Requires a and b with a+b+1 natural and neither integer; never zero
    under those conditions.
    """
    a, b, chirality2 = _check_slice(p, q, a, b, chirality2)
    total = _natural_sum(a, b)
    if total is None:
        raise ValueError("resonant constant needs a+b+1 natural")
    if a.denominator == 1 or b.denominator == 1:
        raise ValueError("resonant constant needs a and b non-integer")
    return _leading_coefficient(p, q, a, b, chirality2, total)


def integer_case_log_coeff(
    p: int, q: int, a: int, b: int, chirality2: Chirality
) -> Fraction:
    """Exact log-term coefficient when both exponents are natural numbers.

    Pure rational arithmetic: every Gamma value is a factorial here.  The
    value is symmetric under swapping (p, a) with (q, b) and never zero.
    """
    for name, value in (("p", p), ("q", q), ("a", a), ("b", b)):
        _exact_int(name, value)
    fact = math.factorial
    first, second = (
        Fraction(fact(x) * fact(y), fact(x + y + 1))
        for x, y in _integer_case_pairs(p, q, a, b, chirality2)
    )
    return Fraction(-1, 4) * first * second


def _integer_case_pairs(p, q, a, b, chirality2: Chirality) -> tuple:
    """The two (x, y), ints or floats, whose x! y! / (x+y+1)! multiply to C."""
    if Chirality(chirality2) is Chirality.HOLO:
        return (a, b), (a + p, b + q)
    return (a, b + q), (a + p, b)


def _integer_case_log2(p: int, q: int, a, b, chirality2: Chirality) -> Tuple[float, float]:
    """(log2 |C|, a bound on its error in bits) from math.lgamma of the six factorial
    arguments, no factorial built.  The bound, 1e-12 of the lgamma magnitudes, is far
    above their few-ulp error, and below one bit wherever a factorial is feasible; an
    argument beyond lgamma's range is _lgamma's ValueError, and an argument sum beyond
    float range gives -inf or nan."""
    logs = []
    for x, y in _integer_case_pairs(p, q, _float("a", a), _float("b", b), chirality2):
        logs += [_lgamma(x + 1.0), _lgamma(y + 1.0), -_lgamma(x + y + 2.0)]
    return sum(logs) / math.log(2), 1e-12 * sum(map(abs, logs)) / math.log(2)


def degenerate_case1_coeff(
    p: int, q: int, a: RationalInput, b: RationalInput, chirality2: Chirality
) -> float:
    """Leading log coefficient when exactly one exponent is natural.

    The generic constant vanishes identically along that locus; its
    derivative across it replaces the vanishing reciprocal-Gamma factor by
    (-1)^(n+1) n! at the natural exponent n.  Nonzero under the
    preconditions.
    """
    a, b, chirality2 = _check_slice(p, q, a, b, chirality2)
    if _natural_sum(a, b) is not None:
        raise ValueError("resonant parameters: the resonant constants apply")
    if is_natural(a) == is_natural(b):
        raise ValueError("exactly one of a, b must be natural")
    return _leading_coefficient(p, q, a, b, chirality2)
