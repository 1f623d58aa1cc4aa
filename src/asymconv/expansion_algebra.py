"""Exact types and combination rules for two-variable asymptotic expansions.

An expansion near s = 0 is a finite sum of singular terms

    c * |s|^(2r) * s^m * sbar^n * P(log|s|^2)

plus a smooth remainder known modulo O(|s|^(2N)).  This module holds the
exact (rational-arithmetic) bookkeeping: exponent-set types, the degree
rules for convolving two terms (one case classification, from which the
log degree follows), and the canonical kernel form used by the
numeric modules.  No floating-point decisions are made here; integrality
tests are exact by construction.
"""

from __future__ import annotations

import cmath
import json
import math
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

RationalInput = Union[Fraction, int, str]


def as_fraction(value: RationalInput) -> Fraction:
    """Convert to an exact rational, rejecting floats.

    Floats are refused on purpose: integrality tests (is this exponent a
    natural number?) drive branch selection and must not depend on binary
    rounding of decimal input.  A string that is not a rational ("1/0"
    too) raises ValueError naming it: one parser for documents and flags.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError("zero denominator in the rational %r" % value) from None
    raise TypeError(
        "expected Fraction, int, or 'p/q' string, got %r" % type(value).__name__
    )


def _float(name: str, x: Union[Fraction, int]) -> float:
    """x as a float, or ValueError naming it where its magnitude is beyond
    float range: the one way an exact input of the numeric layers becomes a float."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError("%s is beyond float range" % name) from None


def _complex(name: str, *parts) -> complex:
    """complex(*parts), or ValueError naming it as _float does where a part
    or the modulus is beyond float range: the one way a number of the
    numeric layers becomes a complex."""
    try:
        z = complex(*parts)
        abs(z)  # finite parts near the float maximum can still overflow here
        return z
    except OverflowError:
        raise ValueError("%s is beyond float range" % name) from None


def is_natural(x: Fraction) -> bool:
    """True when x is an integer >= 0.  Zero counts as natural throughout."""
    # a Fraction's denominator is positive, so its numerator carries the
    # sign; an int comparison is several times cheaper than a Fraction one
    return x.denominator == 1 and x.numerator >= 0


def _natural_sum(a: Fraction, b: Fraction, shift: int = 0) -> Optional[int]:
    """a+b+1+shift when it is natural, else None: the one "is a+b+1 natural"
    test on Fractions, for classify_case, the case constants, the oracle's
    fit, finite part and smooth-power gap, and the fiber demo.  In lowest
    terms a+b is an integer only when a and b share their denominator, so
    it is decided on the integer numerators, several times cheaper than
    two Fraction sums.  combine_types and a convolution's pairs decide it
    on numerators over their common denominator instead."""
    denominator = a.denominator
    if b.denominator != denominator:
        return None
    total = a.numerator + b.numerator + (shift + 1) * denominator
    if total < 0 or total % denominator:
        return None
    return total // denominator


def _exact_int(name: str, value, minimum: int = 0) -> int:
    """An integer field >= minimum and within float range (as _float says).  Floats,
    bools and strings are refused instead of truncated; the exact layer's one integer rule."""
    if type(value) is not int or value < minimum:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, minimum, value))
    _float(name, value)
    return value


#: The most elements one output may hold: a term's log slots, a Bernstein
#: candidate set.  A larger request is refused before anything is allocated.
_MAX_OUTPUT_ELEMENTS = 2**20


def _check_output_size(what: str, count: int) -> None:
    """ValueError naming ``what`` where count passes _MAX_OUTPUT_ELEMENTS."""
    if count > _MAX_OUTPUT_ELEMENTS:
        raise ValueError("%s would hold %d elements, beyond the output cap of %d"
                         % (what, count, _MAX_OUTPUT_ELEMENTS))


def in_slice(x: Fraction, degree: int) -> bool:
    """x + degree/2 > -1: the admissible slice of an exponent x whose term
    carries a monomial of the given degree (degree 0: x > -1).  Decided
    on integers, as 2*numerator > -(degree + 2)*denominator."""
    return 2 * x.numerator > -(degree + 2) * x.denominator


class Chirality(str, Enum):
    """Which monomial factor a canonical kernel term carries.

    HOLO means a factor s^p (or (s-u)^p inside a kernel), ANTI means the
    conjugate sbar^p.  p = 0 is canonically HOLO.  Chirality(value) is
    the one chirality rule: it takes a member or its string value and
    raises ValueError on anything else.
    """

    HOLO = "holo"
    ANTI = "anti"


def _check_slice(
    p: int, q: int, a: RationalInput, b: RationalInput, chirality: Chirality
) -> Tuple[Fraction, Fraction, Chirality]:
    """The canonical kernel (a, b, chirality) once p and q are integers >= 0,
    (a, b) lies in the admissible slice a+p/2 > -1, b+q/2 > -1 (refused one
    side at a time) and Chirality(chirality) holds; at q = 0, with no factor
    to orient, it is HOLO.  The one kernel rule of KernelSpec and the constants."""
    _exact_int("p", p)
    _exact_int("q", q)
    a, b = as_fraction(a), as_fraction(b)
    if not in_slice(a, p):
        raise ValueError("need a + p/2 > -1 for local integrability at s")
    if not in_slice(b, q):
        raise ValueError("need b + q/2 > -1 for local integrability at 0")
    anti = Chirality(chirality) is Chirality.ANTI
    return a, b, Chirality.ANTI if anti and q else Chirality.HOLO


class _LogPolynomialFields(NamedTuple):
    coefficients: Tuple[complex, ...] = ()


class LogPolynomial(_LogPolynomialFields):
    """Polynomial in log|s|^2, coefficient index l holding the (log|s|^2)^l slot.

    The zero polynomial is the empty tuple.  A nonzero polynomial always has
    a nonzero trailing (leading-degree) coefficient; constructors trim exact
    zeros from the top.
    """

    __slots__ = ()

    def __new__(cls, coefficients: Tuple[complex, ...] = ()) -> "LogPolynomial":
        if coefficients and coefficients[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (use of_coeffs)")
        return tuple.__new__(cls, (coefficients,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs the checks

    @staticmethod
    def of_coeffs(values: Sequence[complex]) -> "LogPolynomial":
        coeffs = [_complex("a log coefficient", v) for v in values]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return LogPolynomial(tuple(coeffs))

    @staticmethod
    def zero() -> "LogPolynomial":
        return LogPolynomial(())

    @staticmethod
    def monomial(degree: int, c: complex = 1.0) -> "LogPolynomial":
        """c * X^degree, degree + 1 slots within _MAX_OUTPUT_ELEMENTS."""
        _exact_int("degree", degree)
        _check_output_size("a log degree of %d" % degree, degree + 1)
        return LogPolynomial.of_coeffs([0.0] * degree + [_complex("c", c)])

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
        if _exact_int("index", l) >= len(self.coefficients):
            return 0.0 + 0.0j
        return self.coefficients[l]

    def __add__(self, other: "LogPolynomial") -> "LogPolynomial":
        size = max(len(self.coefficients), len(other.coefficients))
        out = [self.coefficient(l) + other.coefficient(l) for l in range(size)]
        return LogPolynomial.of_coeffs(out)


class _SingularTermFields(NamedTuple):
    r: Fraction
    m: int
    n: int
    poly: LogPolynomial


class SingularTerm(_SingularTermFields):
    """One singular term |s|^(2r) * s^m * sbar^n * poly(log|s|^2).

    The rational exponent r is kept in the window (-1, 0]; whole powers of
    |s|^2 are carried by the monomial pair (m, n) instead.
    """

    __slots__ = ()

    def __new__(cls, r: RationalInput, m: int, n: int, poly: LogPolynomial) -> "SingularTerm":
        if not isinstance(r, Fraction):
            r = as_fraction(r)
        if not (in_slice(r, 0) and r.numerator <= 0):
            raise ValueError("r must lie in (-1, 0], got %s" % r)
        _exact_int("m", m)
        _exact_int("n", n)
        return tuple.__new__(cls, (r, m, n, poly))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs the checks

    @property
    def key(self) -> Tuple[Fraction, int, int]:
        return (self.r, self.m, self.n)

    def to_json_dict(self) -> dict:
        return {
            "r": str(self.r),
            "m": self.m,
            "n": self.n,
            "log_coeffs": [[c.real, c.imag] for c in self.poly.coefficients],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "SingularTerm":
        pairs = data["log_coeffs"]
        if any(len(pair) != 2 for pair in pairs):
            raise TypeError("each log_coeffs entry must be a [re, im] pair")
        coeffs = [_complex("a log_coeffs entry", re, im) for re, im in pairs]
        if not all(cmath.isfinite(c) for c in coeffs):
            raise ValueError("each log_coeffs entry must be a finite complex number")
        return SingularTerm(
            r=data["r"], m=data["m"], n=data["n"], poly=LogPolynomial.of_coeffs(coeffs)
        )


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
    if not in_slice(a, 0):
        raise ValueError("kernel exponent must be > -1, got %s" % a)
    _exact_int("p", p)
    shift = math.ceil(a)
    if Chirality(chirality) is Chirality.ANTI:
        m, n = shift, shift + p
    else:
        m, n = shift + p, shift
    return SingularTerm(r=a - shift, m=m, n=n, poly=LogPolynomial.monomial(degree))


class _ExpansionFields(NamedTuple):
    terms: List[SingularTerm]
    smooth_order: int
    compensated: frozenset = frozenset()


class Expansion(_ExpansionFields):
    """A finite list of singular terms plus a smooth remainder marker.

    Terms are merged by (r, m, n) on construction and zero polynomials are
    dropped, so the term list is always canonical and duplicate free.
    Merging and order use the exact integer keys (r*L, m, n), L the lcm of
    the r denominators, which order as the Fraction keys do.  The
    remainder is only known modulo O(|s|^(2*smooth_order)).

    compensated records (r, m, n) keys whose leading coefficients suffered
    near-total cancellation during a convolution merge; it is a diagnostic,
    is not serialized, and equality ignores it.
    """

    __slots__ = ()

    def __new__(
        cls, terms: Sequence[SingularTerm], smooth_order: int, compensated: frozenset = frozenset()
    ) -> "Expansion":
        _exact_int("smooth_order", smooth_order)
        scale = math.lcm(*(term.r.denominator for term in terms))
        merged: Dict[Tuple[int, int, int], SingularTerm] = {}
        for term in terms:
            key = (term.r.numerator * (scale // term.r.denominator), term.m, term.n)
            first = merged.get(key)
            if first is not None:
                term = SingularTerm(first.r, first.m, first.n, first.poly + term.poly)
            merged[key] = term
        terms = [merged[key] for key in sorted(merged) if not merged[key].poly.is_zero]
        return tuple.__new__(cls, (terms, smooth_order, compensated))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs the checks

    def __eq__(self, other) -> bool:
        return isinstance(other, Expansion) and self[:2] == other[:2]

    def __ne__(self, other) -> bool:  # tuple defines its own
        return not self == other

    def to_json_dict(self) -> dict:
        return {
            "terms": [term.to_json_dict() for term in self.terms],
            "smooth_order": self.smooth_order,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Expansion":
        terms = [SingularTerm.from_json_dict(item) for item in data["terms"]]
        return Expansion(terms, data["smooth_order"])


class _ExponentSetTypeFields(NamedTuple):
    entries: Dict[Fraction, int]


class ExponentSetType(_ExponentSetTypeFields):
    """The (exponent set, max log degree) pair describing an expansion's shape.

    entries maps each admissible exponent (> -1, exact rational) to the
    maximal power of log|s|^2 that may accompany it.
    """

    __slots__ = ()

    def __new__(cls, entries: Mapping[RationalInput, int]) -> "ExponentSetType":
        # integer comparisons, and one Fraction hash per entry
        clean: Dict[Fraction, int] = {}
        for index, (key, degree) in enumerate(entries.items()):
            frac = as_fraction(key)
            if not in_slice(frac, 0):
                raise ValueError("exponent %s is not > -1" % frac)
            clean[frac] = _exact_int("log degree", degree)
            if len(clean) == index:
                raise ValueError("duplicate exponent %s" % frac)
        return tuple.__new__(cls, (clean,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs the checks

    def to_json_dict(self) -> dict:
        # exponent order, on the integer numerators over the common denominator
        scale = math.lcm(*(key.denominator for key in self.entries))
        order = sorted(
            self.entries.items(), key=lambda item: item[0].numerator * (scale // item[0].denominator)
        )
        return {"entries": {str(key): degree for key, degree in order}}

    @staticmethod
    def from_json_dict(data: Mapping) -> "ExponentSetType":
        # __new__ converts each key once and refuses two that name one exponent
        return ExponentSetType(entries=data["entries"])


class CaseTag(str, Enum):
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
    af, bf = as_fraction(a), as_fraction(b)
    if not (in_slice(af, 0) and in_slice(bf, 0)):
        raise ValueError("exponents must lie in (-1, oo), got a=%s b=%s" % (af, bf))
    try:
        _exact_int("j", j)
        _exact_int("k", k)
    except ValueError:
        raise ValueError("log degrees must be integers >= 0, got j=%r k=%r" % (j, k)) from None
    sum_natural = _natural_sum(af, bf) is not None
    return _case(is_natural(af), is_natural(bf), sum_natural, j, k)


def _case(
    a_natural: bool, b_natural: bool, sum_natural: bool, j: int, k: int
) -> CaseTag:
    """classify_case on validated input, given which of a, b and a + b + 1
    are natural.  combine_types and the convolution engine's pair rule
    reach it through a _CaseTable, with those flags precomputed: each
    exponent's own flag once per document, the sum's flag by an integer
    divisibility test."""
    if (a_natural and j == 0) or (b_natural and k == 0):
        return CaseTag.SMOOTH
    if a_natural and b_natural:
        return CaseTag.BOTH_INTEGER
    if a_natural or b_natural:
        return CaseTag.ONE_INTEGER_FACTOR
    if sum_natural:
        return CaseTag.RESONANT
    return CaseTag.GENERIC


def case_degree(case: CaseTag, j: int, k: int) -> int:
    """Log degree of the convolution of a pair of the given case with log
    powers j, k: a resonance adds a log, a natural exponent drops one, and
    -1 marks the Smooth case, which contributes no singular term."""
    if case is CaseTag.GENERIC:
        return j + k
    if case is CaseTag.RESONANT:
        return j + k + 1
    if case is CaseTag.SMOOTH:
        return -1
    return j + k - 1


class _CaseTable(dict):
    """(case, degree) of a term pair, keyed by (a natural, b natural, a+b+1
    natural, j, k) and filled by _case and case_degree on first use.
    combine_types and the convolution engine build one per call and drop
    it with the call, so a repeated document costs what its first did."""

    def __missing__(self, key: Tuple[bool, bool, bool, int, int]) -> Tuple[CaseTag, int]:
        case = _case(*key)
        value = self[key] = (case, case_degree(case, key[3], key[4]))
        return value


def degree_rule(
    a: RationalInput, b: RationalInput, j: int, k: int
) -> int:
    """Exact log-degree of the convolution of single terms with log powers j, k.

    Returns -1 when the convolution contributes no singular term at all,
    which happens exactly when one factor is a plain natural power (natural
    exponent with no log).  Input is checked as classify_case checks it.
    """
    return case_degree(classify_case(a, b, j, k), j, k)


def combine_types(left: ExponentSetType, right: ExponentSetType) -> ExponentSetType:
    """Combine two expansion types: exponents add as alpha + beta + 1.

    When several (alpha, beta) pairs land on the same sum, the degree kept
    is the maximum over contributing pairs; the type is an upper bound, not
    an exact census.  Each pair's degree is degree_rule's, so a pair with
    a smooth factor (a natural exponent carrying no log) produces no term;
    an exponent reached only by such pairs is omitted.  The exponents of
    both types are taken over one common denominator D, so each sum is an
    integer numerator over D and "the sum is natural" is a divisibility
    test by D.
    """
    denominator = math.lcm(*(x.denominator for x in (*left.entries, *right.entries)))
    cases = _CaseTable()
    combined: Dict[int, int] = {}
    right_entries = [
        (beta.numerator * (denominator // beta.denominator), nu, is_natural(beta))
        for beta, nu in right.entries.items()
    ]
    for alpha, mu in left.entries.items():
        alpha_natural = is_natural(alpha)
        alpha_shifted = alpha.numerator * (denominator // alpha.denominator) + denominator
        for beta_num, nu, beta_natural in right_entries:
            gamma = alpha_shifted + beta_num
            sum_natural = gamma >= 0 and gamma % denominator == 0
            degree = cases[alpha_natural, beta_natural, sum_natural, mu, nu][1]
            if degree >= 0 and combined.get(gamma, -1) < degree:
                combined[gamma] = degree
    return ExponentSetType(
        entries={Fraction(gamma, denominator): degree for gamma, degree in combined.items()}
    )


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float cannot enter a canonical document")
    return "%.17g" % x


def _quote(text: str) -> str:
    # json.dumps(text): it leaves printable ASCII but " and \ unescaped
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return json.dumps(text)


def _canonical(value, indent: int) -> str:
    kind = type(value)
    if kind is not list and kind is not tuple and kind is not dict:
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return _format_float(value)
        if isinstance(value, str):
            return _quote(value)
        if not isinstance(value, (list, dict)):  # a tuple subclass is a record
            raise TypeError("cannot serialize %r" % type(value).__name__)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad = " " * indent
    indent += 2
    inner = " " * indent
    is_dict = isinstance(value, dict)
    parts = []
    for element in sorted(value) if is_dict else value:
        if is_dict:  # the element is a key
            if not isinstance(element, str):
                raise TypeError("canonical documents use string keys only")
            item, head = value[element], inner + _quote(element) + ": "
        else:
            item, head = element, inner
        kind = type(item)
        if kind is float:
            parts.append(head + _format_float(item))
        elif kind is str:
            parts.append(head + _quote(item))
        elif kind is int:
            parts.append(head + str(item))
        else:
            parts.append(head + _canonical(item, indent))
    if is_dict:
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    return "[\n" + ",\n".join(parts) + "\n" + pad + "]"


def canonical_json(data) -> str:
    """Serialize to JSON with sorted keys and fixed 17-significant-digit floats.

    Identical inputs produce byte-identical output, which the report files
    rely on.  Ends with a newline.  Lists, tuples and dicts are dispatched
    on their exact type, and each formats its plain float, int and str
    leaves in its own loop, so only containers and rare leaves recurse:
    None, bool, subclasses (the str-Enum values) and a bare scalar
    document take the isinstance chain.  A tuple subclass, such as a
    record, is refused: a document holds its to_json_dict.  A string or
    key is quoted directly when json.dumps would leave it unescaped.
    """
    return _canonical(data, 0) + "\n"
