"""Exact types and combination rules for two-variable asymptotic expansions.

An expansion near s = 0 is a finite sum of singular terms

    c * |s|^(2r) * s^m * sbar^n * P(log|s|^2)

plus a smooth remainder known modulo O(|s|^(2N)).  This module holds the
exact (rational-arithmetic) bookkeeping: exponent-set types, the degree
rules for convolving two terms, and the canonical kernel form used by the
numeric modules.  No floating-point decisions are made here; integrality
tests are exact by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple, Union

RationalInput = Union[Fraction, int, str]


def as_fraction(value: RationalInput) -> Fraction:
    """Convert to an exact rational, rejecting floats.

    Floats are refused on purpose: integrality tests (is this exponent a
    natural number?) drive branch selection and must not depend on binary
    rounding of decimal input.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        "expected Fraction, int, or 'p/q' string, got %r" % type(value).__name__
    )


def is_natural(x: Fraction) -> bool:
    """True when x is an integer >= 0.  Zero counts as natural throughout."""
    return x.denominator == 1 and x >= 0


class Chirality(str, Enum):
    """Which monomial factor a canonical kernel term carries.

    HOLO means a factor s^p (or (s-u)^p inside a kernel), ANTI means the
    conjugate sbar^p.  p = 0 is canonically HOLO.
    """

    HOLO = "holo"
    ANTI = "anti"


@dataclass(frozen=True)
class LogPolynomial:
    """Polynomial in log|s|^2, coefficient index l holding the (log|s|^2)^l slot.

    The zero polynomial is the empty tuple.  A nonzero polynomial always has
    a nonzero trailing (leading-degree) coefficient; constructors trim exact
    zeros from the top.
    """

    coefficients: Tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        if self.coefficients and self.coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (use of_coeffs)")

    @staticmethod
    def of_coeffs(values: Sequence[complex]) -> "LogPolynomial":
        coeffs = [complex(v) for v in values]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return LogPolynomial(tuple(coeffs))

    @staticmethod
    def zero() -> "LogPolynomial":
        return LogPolynomial(())

    @staticmethod
    def constant(c: complex) -> "LogPolynomial":
        return LogPolynomial.of_coeffs([c])

    @staticmethod
    def monomial(degree: int, c: complex = 1.0) -> "LogPolynomial":
        """c * X^degree."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return LogPolynomial.of_coeffs([0.0] * degree + [complex(c)])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading(self) -> complex:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def coefficient(self, l: int) -> complex:
        if l < 0:
            raise ValueError("negative index")
        if l >= len(self.coefficients):
            return 0.0 + 0.0j
        return self.coefficients[l]

    def __add__(self, other: "LogPolynomial") -> "LogPolynomial":
        size = max(len(self.coefficients), len(other.coefficients))
        out = [self.coefficient(l) + other.coefficient(l) for l in range(size)]
        return LogPolynomial.of_coeffs(out)

    def scale(self, c: complex) -> "LogPolynomial":
        if c == 0:
            return LogPolynomial.zero()
        return LogPolynomial.of_coeffs([c * v for v in self.coefficients])


@dataclass(frozen=True)
class SingularTerm:
    """One singular term |s|^(2r) * s^m * sbar^n * poly(log|s|^2).

    The rational exponent r is kept in the window (-1, 0]; whole powers of
    |s|^2 are carried by the monomial pair (m, n) instead.
    """

    r: Fraction
    m: int
    n: int
    poly: LogPolynomial

    def __post_init__(self) -> None:
        if not isinstance(self.r, Fraction):
            object.__setattr__(self, "r", as_fraction(self.r))
        if not (-1 < self.r <= 0):
            raise ValueError("r must lie in (-1, 0], got %s" % self.r)
        if self.m < 0 or self.n < 0:
            raise ValueError("monomial powers must be >= 0")

    @property
    def key(self) -> Tuple[Fraction, int, int]:
        return (self.r, self.m, self.n)


class KernelForm(NamedTuple):
    """Canonical kernel form |s|^(2a) * s^p (or sbar^p when ANTI).

    a = r + min(m, n) and p = |m - n|; this is the shape the closed-form
    constants and the quadrature kernels are written in.  p = 0 is HOLO.
    """

    a: Fraction
    p: int
    chirality: Chirality


def normalize_term(term: SingularTerm) -> KernelForm:
    """Fold the monomial pair (m, n) of a term into its kernel form.

    |s|^(2r) s^m sbar^n = |s|^(2(r + n)) * s^(m-n)   when m >= n,
    and the conjugate power otherwise.  The term has already validated
    r and (m, n), so nothing is checked again here.
    """
    m, n = term.m, term.n
    if m >= n:
        return KernelForm(term.r + n, m - n, Chirality.HOLO)
    return KernelForm(term.r + m, n - m, Chirality.ANTI)


def kernel_term(
    a: Fraction, p: int, chirality: Chirality, degree: int
) -> SingularTerm:
    """Inverse of normalize_term: the unit term (log|s|^2)^degree whose
    kernel form is |s|^(2a) * s^p (sbar^p when ANTI).

    The whole part of a moves into the monomial pair, leaving r = a -
    ceil(a) in (-1, 0]; with p = 0 both chiralities give the same term.
    """
    if a <= -1:
        raise ValueError("kernel exponent must be > -1, got %s" % a)
    shift = math.ceil(a)
    if chirality is Chirality.ANTI:
        m, n = shift, shift + p
    else:
        m, n = shift + p, shift
    return SingularTerm(r=a - shift, m=m, n=n, poly=LogPolynomial.monomial(degree))


def _exact_int(name: str, value) -> int:
    """An integer field; floats, bools and strings are refused instead
    of truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return value


@dataclass
class Expansion:
    """A finite list of singular terms plus a smooth remainder marker.

    Terms are merged by (r, m, n) on construction and zero polynomials are
    dropped, so the term list is always canonical and duplicate free.  The
    remainder is only known modulo O(|s|^(2*smooth_order)).

    compensated records (r, m, n) keys whose leading coefficients suffered
    near-total cancellation during a convolution merge; it is a diagnostic
    and is not serialized.
    """

    terms: List[SingularTerm]
    smooth_order: int
    compensated: frozenset = field(default_factory=frozenset, compare=False)

    def __post_init__(self) -> None:
        if self.smooth_order < 0:
            raise ValueError("smooth_order must be >= 0")
        merged: Dict[Tuple[Fraction, int, int], LogPolynomial] = {}
        order: List[Tuple[Fraction, int, int]] = []
        for term in self.terms:
            if term.key in merged:
                merged[term.key] = merged[term.key] + term.poly
            else:
                merged[term.key] = term.poly
                order.append(term.key)
        out = []
        for key in sorted(order):
            poly = merged[key]
            if poly.is_zero:
                continue
            out.append(SingularTerm(r=key[0], m=key[1], n=key[2], poly=poly))
        self.terms = out

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {
                    "r": str(term.r),
                    "m": term.m,
                    "n": term.n,
                    "log_coeffs": [
                        [c.real, c.imag] for c in term.poly.coefficients
                    ],
                }
                for term in self.terms
            ],
            "smooth_order": self.smooth_order,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Expansion":
        terms = []
        for item in data["terms"]:
            coeffs = [complex(re, im) for re, im in item["log_coeffs"]]
            terms.append(
                SingularTerm(
                    r=Fraction(item["r"]),
                    m=_exact_int("m", item["m"]),
                    n=_exact_int("n", item["n"]),
                    poly=LogPolynomial.of_coeffs(coeffs),
                )
            )
        return Expansion(
            terms=terms, smooth_order=_exact_int("smooth_order", data["smooth_order"])
        )


@dataclass
class ExponentSetType:
    """The (exponent set, max log degree) pair describing an expansion's shape.

    entries maps each admissible exponent (> -1, exact rational) to the
    maximal power of log|s|^2 that may accompany it.
    """

    entries: Dict[Fraction, int]

    def __post_init__(self) -> None:
        clean: Dict[Fraction, int] = {}
        for key, degree in self.entries.items():
            frac = as_fraction(key)
            if frac <= -1:
                raise ValueError("exponent %s is not > -1" % frac)
            if _exact_int("log degree", degree) < 0:
                raise ValueError("log degree must be >= 0, got %d" % degree)
            if frac in clean:
                raise ValueError("duplicate exponent %s" % frac)
            clean[frac] = degree
        self.entries = clean

    def to_json_dict(self) -> dict:
        return {
            "entries": {
                str(key): self.entries[key] for key in sorted(self.entries)
            }
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "ExponentSetType":
        return ExponentSetType(
            entries={Fraction(k): v for k, v in data["entries"].items()}
        )


def _pair_degree(alpha: Fraction, beta: Fraction, mu: int, nu: int) -> int:
    """Log-degree bound for the convolution of a degree-mu term at alpha
    with a degree-nu term at beta."""
    if is_natural(alpha) or is_natural(beta):
        return mu + nu - 1
    if is_natural(alpha + beta + 1):
        return mu + nu + 1
    return mu + nu


def combine_types(left: ExponentSetType, right: ExponentSetType) -> ExponentSetType:
    """Combine two expansion types: exponents add as alpha + beta + 1.

    When several (alpha, beta) pairs land on the same sum, the degree kept
    is the maximum over contributing pairs; the type is an upper bound, not
    an exact census.  A pair whose degree bound drops below zero produces
    no term; an exponent reached only by such pairs is omitted.
    """
    combined: Dict[Fraction, int] = {}
    for alpha, mu in left.entries.items():
        for beta, nu in right.entries.items():
            gamma = alpha + beta + 1
            degree = _pair_degree(alpha, beta, mu, nu)
            if degree < 0:
                continue
            if gamma not in combined or combined[gamma] < degree:
                combined[gamma] = degree
    return ExponentSetType(entries=combined)


def degree_rule(
    a: RationalInput, b: RationalInput, j: int, k: int
) -> int:
    """Exact log-degree of the convolution of single terms with log powers j, k.

    Returns -1 when the convolution contributes no singular term at all,
    which happens exactly when one factor is a plain natural power (natural
    exponent with no log).
    """
    a = as_fraction(a)
    b = as_fraction(b)
    if a <= -1 or b <= -1:
        raise ValueError("exponents must be > -1")
    if j < 0 or k < 0:
        raise ValueError("log powers must be >= 0")
    if (is_natural(a) and j == 0) or (is_natural(b) and k == 0):
        return -1
    if is_natural(a) or is_natural(b):
        return j + k - 1
    if is_natural(a + b + 1):
        return j + k + 1
    return j + k


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot enter a canonical document")
    return "%.17g" % x


def _canonical(value, indent: int, step: int) -> str:
    pad = " " * indent
    inner = " " * (indent + step)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [inner + _canonical(v, indent + step, step) for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("canonical documents use string keys only")
            parts.append(
                inner + json.dumps(key) + ": " + _canonical(value[key], indent + step, step)
            )
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError("cannot serialize %r" % type(value).__name__)


def canonical_json(data) -> str:
    """Serialize to JSON with sorted keys and fixed 17-significant-digit floats.

    Identical inputs produce byte-identical output, which the report files
    rely on.  Ends with a newline.
    """
    return _canonical(data, 0, 2) + "\n"
