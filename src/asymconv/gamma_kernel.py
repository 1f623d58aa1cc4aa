"""Closed-form Gamma-factor constants for singular-kernel convolutions.

Every function here evaluates a ratio of Gamma values (or a limit of one)
in log-space with explicit sign tracking, so large parameters cannot
overflow and zeros produced by reciprocal Gamma factors at the poles are
exact.  Branch decisions that hinge on integrality (is an exponent a
natural number, is a sum resonant) are made on exact rationals only;
plain floats are accepted where no branch depends on them.

Natural numbers include 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .expansion_algebra import Chirality, as_fraction, is_natural

RealInput = Union[Fraction, int, str, float]


class GammaPoleError(ValueError):
    """A Gamma factor in a numerator sits at a pole that nothing cancels."""


@dataclass(frozen=True)
class SpecialValue:
    """A continued value that may be a pole instead of a number.

    When is_pole is set the numeric value is deliberately stored as NaN so
    accidental arithmetic on a pole is loud.  Every pole met here is simple.
    """

    value: float
    is_pole: bool = False

    def __post_init__(self) -> None:
        if self.is_pole and not math.isnan(self.value):
            raise ValueError("pole values carry NaN (use SpecialValue.pole)")

    @staticmethod
    def finite(value: float) -> "SpecialValue":
        return SpecialValue(value=float(value), is_pole=False)

    @staticmethod
    def pole() -> "SpecialValue":
        return SpecialValue(value=math.nan, is_pole=True)


def _split(x: RealInput) -> Tuple[Optional[Fraction], float]:
    """Dual view of a parameter: (exact rational or None, float value)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a real parameter")
    if isinstance(x, float):
        return None, x
    frac = as_fraction(x)
    return frac, float(frac)


def _require_exact(x: RealInput, name: str) -> Fraction:
    exact, _ = _split(x)
    if exact is None:
        raise TypeError(
            "%s must be an exact rational (Fraction, int, or 'p/q' string); "
            "this branch depends on an exact integrality test" % name
        )
    return exact


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def _signed_log_gamma(x: float) -> Tuple[float, int]:
    """(log|Gamma(x)|, sign of Gamma(x)) away from the poles."""
    if _is_nonpositive_integer(x):
        raise GammaPoleError("Gamma pole at %g" % x)
    if x > 0:
        return math.lgamma(x), 1
    sign = 1 if math.floor(x) % 2 == 0 else -1
    return math.lgamma(x), sign


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), entire in x, exactly 0 at non-positive integers."""
    x = float(x)
    if _is_nonpositive_integer(x):
        return 0.0
    log_mag, sign = _signed_log_gamma(x)
    return sign * math.exp(-log_mag)


def _gamma_ratio(numerators: List[float], denominators: List[float]) -> float:
    """Product of Gamma(n_i) over product of Gamma(d_j), in log-space.

    A denominator at a pole contributes an exact zero factor.  A numerator
    at a pole raises GammaPoleError unless a denominator pole cancels it;
    an exactly balanced pair is refused as indeterminate, since its value
    depends on the direction of approach.
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
        lg, s = _signed_log_gamma(x)
        logs.append(lg)
        sign *= s
    for x in denominators:
        lg, s = _signed_log_gamma(x)
        logs.append(-lg)
        sign *= s
    # summing in sorted order makes the value independent of argument
    # order, so symmetric ratios are exactly symmetric in floating point
    return sign * math.exp(math.fsum(sorted(logs)))


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


def fourier_coefficient(a: RealInput, q: int, r: int) -> float:
    """Coefficient of x^r in the angular average of |1 - x e^(-i theta)|^(2a)
    against the mode e^(i q theta), for 0 <= x < 1.

    Vanishes whenever r and q have opposite parity.  For natural a the
    average is a polynomial and the coefficient is a signed product of two
    binomials with a finite support window; otherwise it is a Gamma ratio.
    """
    if q < 0 or r < 0:
        raise ValueError("q and r must be >= 0")
    exact, a_f = _split(a)
    if a_f <= -1:
        raise ValueError("need a > -1")
    if (r - q) % 2 != 0:
        return 0.0
    half_minus = (r - q) // 2
    half_plus = (r + q) // 2
    if half_minus < 0:
        return 0.0
    if exact is not None and is_natural(exact):
        n = int(exact)
        if half_plus > n:
            return 0.0
        sign = -1 if r % 2 else 1
        return float(sign * math.comb(n, half_plus) * math.comb(n, half_minus))
    sign = -1 if r % 2 else 1
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


def G_q(a: RealInput, b: RealInput, q: int) -> SpecialValue:
    """Leading constant of the basic singular convolution kernel with one
    monomial factor of degree q, meromorphically continued in (a, b).

    Returns a pole marker when a+b+1 is a natural number and the residue
    coefficient is nonzero (detected on exact rationals only).
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    a_ex, a_f = _split(a)
    b_ex, b_f = _split(b)
    if a_f <= -1:
        raise ValueError("need a > -1")
    if a_ex is not None and b_ex is not None:
        total = a_ex + b_ex + 1
        if is_natural(total):
            r0 = 2 * int(total) + q
            if fourier_coefficient(a_ex, q, r0) != 0.0:
                return SpecialValue.pole()
            raise ValueError(
                "indeterminate point: resonant sum with vanishing residue"
            )
    if b_ex is not None and (b_ex + q + 1) <= 0 and (b_ex + q + 1).denominator == 1:
        raise ValueError("b + q + 1 at a non-positive integer: outside the continuation")
    try:
        value = 0.5 * _gamma_ratio(
            [a_f + 1, b_f + q + 1, -a_f - b_f - 1],
            [-a_f, -b_f, a_f + b_f + q + 2],
        )
    except GammaPoleError:
        # Float inputs landing exactly on a pole of the continuation.
        return SpecialValue.pole()
    return SpecialValue.finite(value)


def binomial_gamma_sum(p: int, x: float, y: float) -> float:
    """Closed form of the alternating binomial sum of Gamma ratios:
    sum over j of (-1)^j C(p,j) Gamma(x+j)/Gamma(x+y+j)
    = Gamma(x) Gamma(y+p) / (Gamma(x+y+p) Gamma(y)).
    """
    if p < 0:
        raise ValueError("p must be >= 0")
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


def _check_slice(a_f: float, p: int, b_f: float, q: int) -> None:
    if a_f + p / 2 <= -1 or b_f + q / 2 <= -1:
        raise ValueError(
            "parameters outside the admissible slice: need a+p/2 > -1 and b+q/2 > -1"
        )


def _generic_ratio(
    p: int, q: int, a_f: float, b_f: float, chirality2: Chirality,
    reciprocals: List[float],
) -> float:
    """The Gamma ratio shared by the generic constant and its one-natural
    limit: Gamma(a+p+1) Gamma(b+q+1) Gamma(-a-b-1) / Gamma(a+b+p+q+2) for
    HOLO, (-1)^p Gamma(a+p+1) Gamma(b+q+1) Gamma(-a-b-p-1) / Gamma(a+b+q+2)
    for ANTI, each times 1/Gamma(x) for every x in ``reciprocals``."""
    if chirality2 is Chirality.HOLO:
        return _gamma_ratio(
            [a_f + p + 1, b_f + q + 1, -a_f - b_f - 1],
            [a_f + b_f + p + q + 2] + reciprocals,
        )
    sign = -1.0 if p % 2 else 1.0
    return sign * _gamma_ratio(
        [a_f + p + 1, b_f + q + 1, -a_f - b_f - p - 1],
        [a_f + b_f + q + 2] + reciprocals,
    )


def F_const(
    p: int, q: int, a: RealInput, b: RealInput, chirality2: Chirality
) -> SpecialValue:
    """Leading constant for the generic (non-resonant) convolution case.

    chirality2 = HOLO pairs two factors of the same monomial orientation,
    ANTI pairs opposite ones.  The value is symmetric under swapping
    (p, a) with (q, b), so no argument ordering is assumed.  Returns an
    exact zero when a or b is natural, and a pole marker when a+b+1 is
    natural (the resonant constant applies there instead).
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be >= 0")
    a_ex, a_f = _split(a)
    b_ex, b_f = _split(b)
    _check_slice(a_f, p, b_f, q)
    if a_ex is not None and b_ex is not None and is_natural(a_ex + b_ex + 1):
        return SpecialValue.pole()
    if (a_ex is not None and is_natural(a_ex)) or (
        b_ex is not None and is_natural(b_ex)
    ):
        return SpecialValue.finite(0.0)
    try:
        value = _generic_ratio(p, q, a_f, b_f, chirality2, [-a_f, -b_f])
    except GammaPoleError:
        return SpecialValue.pole()
    return SpecialValue.finite(value)


def tilde_F_const(
    p: int, q: int, a: RealInput, b: RealInput, chirality2: Chirality
) -> float:
    """Log-term leading constant for the resonant case a+b+1 natural.

    Requires exact rational a and b with a+b+1 natural and neither integer;
    never zero under those conditions.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be >= 0")
    a_ex = _require_exact(a, "a")
    b_ex = _require_exact(b, "b")
    a_f, b_f = float(a_ex), float(b_ex)
    _check_slice(a_f, p, b_f, q)
    if not is_natural(a_ex + b_ex + 1):
        raise ValueError("resonant constant needs a+b+1 natural")
    if a_ex.denominator == 1 or b_ex.denominator == 1:
        raise ValueError("resonant constant needs a and b non-integer")
    total = int(a_ex + b_ex)  # an integer >= -1
    sign = -1.0 if total % 2 else 1.0
    if chirality2 is Chirality.HOLO:
        denominators = [a_f + b_f + 2, a_f + b_f + p + q + 2]
    else:
        denominators = [a_f + b_f + q + 2, a_f + b_f + p + 2]
    return sign * _gamma_ratio(
        [a_f + p + 1, b_f + q + 1],
        denominators + [-a_f, -b_f],
    )


def integer_case_log_coeff(
    p: int, q: int, a: int, b: int, chirality2: Chirality
) -> Fraction:
    """Exact log-term coefficient when both exponents are natural numbers.

    Pure rational arithmetic: every Gamma value is a factorial here.  The
    value is symmetric under swapping (p, a) with (q, b) and never zero.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be >= 0")
    for name, value in (("a", a), ("b", b)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError("%s must be a non-negative integer" % name)
    fact = math.factorial
    if chirality2 is Chirality.HOLO:
        first = Fraction(fact(a) * fact(b), fact(a + b + 1))
        second = Fraction(fact(a + p) * fact(b + q), fact(a + b + p + q + 1))
    else:
        first = Fraction(fact(a) * fact(b + q), fact(a + b + q + 1))
        second = Fraction(fact(a + p) * fact(b), fact(a + b + p + 1))
    return Fraction(-1, 4) * first * second


def degenerate_case1_coeff(
    p: int, q: int, a: RealInput, b: RealInput, chirality2: Chirality
) -> float:
    """Leading log coefficient when exactly one exponent is natural.

    The generic constant vanishes identically along that locus; its
    derivative across it replaces the vanishing reciprocal-Gamma factor by
    (-1)^(n+1) n! at the natural exponent n.  Nonzero under the
    preconditions.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be >= 0")
    a_ex = _require_exact(a, "a")
    b_ex = _require_exact(b, "b")
    a_f, b_f = float(a_ex), float(b_ex)
    _check_slice(a_f, p, b_f, q)
    if is_natural(a_ex + b_ex + 1):
        raise ValueError("resonant parameters: the resonant constants apply")
    a_nat = is_natural(a_ex)
    b_nat = is_natural(b_ex)
    if a_nat == b_nat:
        raise ValueError("exactly one of a, b must be natural")
    n, other = (int(a_ex), b_f) if a_nat else (int(b_ex), a_f)
    replacement = float(math.factorial(n)) * (1.0 if n % 2 else -1.0)
    return replacement * _generic_ratio(p, q, a_f, b_f, chirality2, [-other])

