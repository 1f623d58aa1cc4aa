"""Closed-form Gamma-factor constants for singular-kernel convolutions.

Each case constant is C, the leading Laurent coefficient of one Gamma
ratio in (a, b): its value off the loci, its residue where a+b+1 is
natural, its derivative across a natural a or b.  F_const, G_q,
tilde_F_const and degenerate_case1_coeff read C from one rule;
integer_case_log_coeff is the exact -C/4 where a and b are both natural.

Every function here evaluates a ratio of Gamma values (or a limit of one)
in log-space with explicit sign tracking, so large parameters cannot
overflow and zeros produced by reciprocal Gamma factors at the poles are
exact.  Every function that decides a branch on integrality (is an
exponent a natural number, is a sum resonant) takes its exponents as
exact rationals and refuses a float with TypeError; only the three
identity evaluators beta_tail_integral, binomial_gamma_sum and gauss_sum
take floats, since they classify nothing.  Integer fields, the chirality
and the admissible slice pass expansion_algebra's rules (_exact_int,
Chirality, in_slice) and nothing else.  A constant is a plain float,
GammaPoleError (a ValueError) where the continuation has a pole, or a
ValueError where its magnitude, or an exponent's, is beyond float range
(expansion_algebra._float).

Natural numbers include 0 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from .expansion_algebra import Chirality, RationalInput, _exact_int, _float, as_fraction
from .expansion_algebra import in_slice, is_natural


class GammaPoleError(ValueError):
    """A Gamma factor in a numerator sits at a pole that nothing cancels."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def _gamma_ratio(numerators: List[float], denominators: List[float]) -> float:
    """Product of Gamma(n_i) over product of Gamma(d_j), in log-space.

    A denominator at a pole contributes an exact zero factor.  A numerator
    at a pole raises GammaPoleError unless a denominator pole cancels it;
    an exactly balanced pair is refused as indeterminate, since its value
    depends on the direction of approach.  Past those checks no argument
    is a pole, and Gamma(x) is negative exactly where floor(x) is a
    negative odd integer.
    """
    zeros = sum(1 for x in denominators if _is_nonpositive_integer(x))
    poles = sum(1 for x in numerators if _is_nonpositive_integer(x))
    if poles > zeros:
        raise GammaPoleError("uncancelled Gamma pole in numerator")
    if poles == zeros and poles > 0:
        raise GammaPoleError("indeterminate Gamma ratio (pole meets zero)")
    if zeros > poles:
        return 0.0
    logs: List[float] = []
    sign = 1
    for x in numerators:
        logs.append(math.lgamma(x))
        if x < 0 and math.floor(x) % 2:
            sign = -sign
    for x in denominators:
        logs.append(-math.lgamma(x))
        if x < 0 and math.floor(x) % 2:
            sign = -sign
    # summing in sorted order makes the value independent of argument
    # order, so symmetric ratios are exactly symmetric in floating point
    log_value = math.fsum(sorted(logs))
    try:
        return sign * math.exp(log_value)
    except OverflowError:
        raise ValueError("Gamma ratio beyond float range: log = %r" % log_value) from None


def beta_tail_integral(u: float, v: float) -> float:
    """Value of the half-line integral of x^v (1+x^2)^(-u).

    Equals (1/2) Gamma((v+1)/2) Gamma(u-(v+1)/2) / Gamma(u); convergence
    needs v > -1 at the origin and u - (v+1)/2 > 0 at infinity.
    """
    u = float(u)
    v = float(v)
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
        return float(sign * math.comb(n, half_plus) * math.comb(n, half_minus))
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
    return 0.5 * _leading_coefficient(0, q, a, b, Chirality.HOLO)


def binomial_gamma_sum(p: int, x: float, y: float) -> float:
    """Closed form of the alternating binomial sum of Gamma ratios:
    sum over j of (-1)^j C(p,j) Gamma(x+j)/Gamma(x+y+j)
    = Gamma(x) Gamma(y+p) / (Gamma(x+y+p) Gamma(y)).
    """
    _exact_int("p", p)
    x = float(x)
    y = float(y)
    if _is_nonpositive_integer(x) or _is_nonpositive_integer(y):
        raise ValueError("x and y must avoid non-positive integers")
    return _gamma_ratio([x, y + p], [x + y + p, y])


def gauss_sum(x: float, y: float, z: float) -> float:
    """Value of the hypergeometric series sum over j of
    Gamma(j+x) Gamma(j+y) / (Gamma(j+z) j!), namely
    Gamma(x) Gamma(y) Gamma(z-x-y) / (Gamma(z-x) Gamma(z-y)).

    Convergence requires z - x - y > 0.
    """
    x = float(x)
    y = float(y)
    z = float(z)
    if z - x - y <= 0:
        raise ValueError("series diverges: need z - x - y > 0")
    for name, value in (("x", x), ("y", y), ("z", z)):
        if _is_nonpositive_integer(value):
            raise ValueError("%s must avoid non-positive integers" % name)
    return _gamma_ratio([x, y, z - x - y], [z - x, z - y])


def _check_slice(
    p: int, q: int, a: RationalInput, b: RationalInput, chirality: Chirality
) -> Tuple[Fraction, Fraction, Chirality]:
    """(a, b, chirality) once the exact layer's rules accept them: p and q
    integers >= 0, (a, b) in the admissible slice a+p/2 > -1, b+q/2 > -1
    (KernelSpec's bounds), and Chirality(chirality).  A member skips the
    enum lookup: F_const runs once per Generic pair of a convolution."""
    _exact_int("p", p)
    _exact_int("q", q)
    a = as_fraction(a)
    b = as_fraction(b)
    if not (in_slice(a, p) and in_slice(b, q)):
        raise ValueError(
            "parameters outside the admissible slice: need a+p/2 > -1 and b+q/2 > -1"
        )
    if chirality.__class__ is not Chirality:
        chirality = Chirality(chirality)
    return a, b, chirality


def _natural_sum(a: Fraction, b: Fraction, shift: int = 0) -> Optional[int]:
    """a+b+1+shift when it is natural, else None.

    In lowest terms a+b is an integer only when a and b share their
    denominator; it is then decided on the integer numerators, several
    times cheaper than two Fraction sums.  Every singular pair of a
    convolution asks, and a Generic pair's constant asks twice.
    """
    denominator = a.denominator
    if b.denominator != denominator:
        return None
    total = a.numerator + b.numerator + (shift + 1) * denominator
    if total < 0 or total % denominator:
        return None
    return total // denominator


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
    _gamma_ratio still refuses a rounded sum that lands on one.
    """
    a_f, b_f = _float("a", a), _float("b", b)
    shift = 0 if chirality2 is Chirality.HOLO else p
    sign = -1 if shift % 2 else 1
    numerators = [a_f + p + 1, b_f + q + 1]
    denominators = [a_f + b_f + (p - shift) + q + 2]
    if resonance is None:
        m = _natural_sum(a, b, shift)
        if m is not None:
            raise GammaPoleError("Gamma pole of Gamma(-m) at m = a+b+%d+1 = %d" % (shift, m))
        numerators.append(-a_f - b_f - shift - 1)
    else:
        denominators.append(a_f + b_f + shift + 2)  # 1/m! = 1/Gamma(m+1)
        sign *= (-1) ** (resonance + shift + 1)
    factor = 1.0
    for x, x_f in ((a, a_f), (b, b_f)):
        if is_natural(x):  # (-1)^(n+1) n! at n = x
            n = x.numerator
            if n > 170:  # 171! is the first factorial beyond float range
                raise ValueError("%d! at the natural exponent %d is beyond float range" % (n, n))
            factor *= float(math.factorial(n)) * (1.0 if n % 2 else -1.0)
        else:
            denominators.append(-x_f)
    return sign * factor * _gamma_ratio(numerators, denominators)


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
    if Chirality(chirality2) is Chirality.HOLO:
        first = Fraction(fact(a) * fact(b), fact(a + b + 1))
        second = Fraction(fact(a + p) * fact(b + q), fact(a + b + p + q + 1))
    else:
        first = Fraction(fact(a) * fact(b + q), fact(a + b + q + 1))
        second = Fraction(fact(a + p) * fact(b), fact(a + b + p + 1))
    return Fraction(-1, 4) * first * second


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
