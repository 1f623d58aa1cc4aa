"""One input contract for the exact layer.

Every public entry point checks its integer fields with one rule (a
Python int at or above its minimum; floats, bools and strings refused,
never truncated), reads its chirality with one rule (the enum or its
string value, nothing else) and decides its poles on exact rationals.
A rational string with a zero denominator, an integer field whose
magnitude is beyond float range, and an exponent whose magnitude is
beyond float range where it would become a float, are refused with
ValueError.
"""

import math
from fractions import Fraction

import pytest

from asymconv.convolution_engine import (
    bernstein_combine,
    kernel_leading_constant,
)
from asymconv.expansion_algebra import (
    Chirality,
    Expansion,
    LogPolynomial,
    SingularTerm,
    as_fraction,
    classify_case,
    degree_rule,
    is_natural,
    kernel_term,
)
from asymconv.fiber_demo import MonomialGerm
from asymconv.gamma_kernel import (
    F_const,
    G_q,
    GammaPoleError,
    binomial_gamma_sum,
    degenerate_case1_coeff,
    fourier_coefficient,
    integer_case_log_coeff,
    tilde_F_const,
)
from asymconv.quadrature_oracle import KernelSpec, finite_part_direct

F = Fraction
HOLO = Chirality.HOLO
ANTI = Chirality.ANTI

# (entry point, valid keyword arguments, its integer fields)
ENTRY_POINTS = [
    (F_const, dict(p=1, q=1, a=F(-1, 3), b=F(-1, 4), chirality2=HOLO), ("p", "q")),
    (tilde_F_const, dict(p=0, q=1, a=F(-1, 3), b=F(-2, 3), chirality2=HOLO), ("p", "q")),
    (degenerate_case1_coeff, dict(p=1, q=1, a=1, b=F(-1, 3), chirality2=HOLO), ("p", "q")),
    (integer_case_log_coeff, dict(p=1, q=1, a=1, b=1, chirality2=HOLO), ("p", "q", "a", "b")),
    (G_q, dict(a=F(-1, 3), b=F(-1, 4), q=1), ("q",)),
    (fourier_coefficient, dict(a=F(-1, 3), q=1, r=1), ("q", "r")),
    (binomial_gamma_sum, dict(p=2, x=1.5, y=0.5), ("p",)),
    # a Smooth pair: the early return must not skip the checks
    (kernel_leading_constant,
     dict(p=1, q=1, a=0, b=F(-1, 4), j=0, k=1, chirality=HOLO), ("p", "q", "j", "k")),
    (classify_case, dict(a=F(-1, 3), b=F(-1, 4), j=1, k=1), ("j", "k")),
    (degree_rule, dict(a=F(-1, 3), b=F(-1, 4), j=1, k=1), ("j", "k")),
    (KernelSpec, dict(a=F(-1, 3), b=F(-1, 4), p=1, q=1, j=1, k=1), ("p", "q", "j", "k")),
    (finite_part_direct, dict(a=F(-1, 3), b=F(-1, 4), q=1), ("q",)),
    (bernstein_combine, dict(roots1=["-1/2"], roots2=["-1/3"], kappa=1), ("kappa",)),
    (MonomialGerm, dict(exponent=2), ("exponent",)),
    (SingularTerm, dict(r="-1/2", m=1, n=0, poly=LogPolynomial.monomial(0)), ("m", "n")),
    (Expansion, dict(terms=[], smooth_order=2), ("smooth_order",)),
    (kernel_term, dict(a=F(-1, 2), p=1, chirality=HOLO, degree=1), ("p", "degree")),
    (LogPolynomial.monomial, dict(degree=1), ("degree",)),
]

CASES = [
    pytest.param(entry, kwargs, field, id="%s-%s" % (entry.__name__, field))
    for entry, kwargs, fields in ENTRY_POINTS
    for field in fields
]


@pytest.mark.parametrize("entry, kwargs, fields", ENTRY_POINTS,
                         ids=[entry.__name__ for entry, _, _ in ENTRY_POINTS])
def test_valid_call_is_accepted(entry, kwargs, fields):
    # the refusals below are for the one bad field, not for the point
    entry(**kwargs)


@pytest.mark.parametrize("value", [1.5, True, "1", -1])
@pytest.mark.parametrize("entry, kwargs, field", CASES)
def test_integer_field_is_refused(entry, kwargs, field, value):
    bad = dict(kwargs, **{field: value})
    # classify_case words its two log degrees together
    if field in ("j", "k") and entry is not KernelSpec:
        message = "log degrees must be integers"
    else:
        message = "%s must be an integer" % field
    with pytest.raises(ValueError, match=message):
        entry(**bad)


# (entry point, keyword arguments, message): one number fault each.  The
# F_const point is off resonance, so the float conversion is what refuses.
NUMBER_FAULTS = [
    (as_fraction, dict(value="1/0"), "zero denominator in the rational '1/0'"),
    (F_const, dict(p=0, q=0, a=F(10**400, 3), b=F(-1, 4), chirality2=HOLO),
     "a is beyond float range"),
    (KernelSpec, dict(a=10**400, b=F(-1, 4), p=0, q=0, j=0, k=0), "a is beyond float range"),
    (MonomialGerm, dict(exponent=10**400), "exponent is beyond float range"),
    (KernelSpec, dict(a=F(-1, 3), b=F(-1, 4), p=10**400, q=0, j=0, k=0),
     "p is beyond float range"),
    (SingularTerm, dict(r="-1/2", m=10**400, n=0, poly=LogPolynomial.monomial(0)),
     "m is beyond float range"),
]


@pytest.mark.parametrize("entry, kwargs, message", NUMBER_FAULTS,
                         ids=[entry.__name__ for entry, _, _ in NUMBER_FAULTS])
def test_number_fault_is_a_value_error(entry, kwargs, message):
    with pytest.raises(ValueError, match=message) as info:
        entry(**kwargs)
    assert type(info.value) is ValueError


# (entry point, arguments before the chirality, arguments after it):
# points where HOLO and ANTI give different constants
CHIRAL = [
    (F_const, (1, 1, F(-1, 3), F(-1, 4)), ()),
    (tilde_F_const, (1, 1, F(-1, 3), F(-2, 3)), ()),
    (degenerate_case1_coeff, (1, 1, 1, F(-1, 3)), ()),
    (integer_case_log_coeff, (1, 1, 1, 1), ()),
]


@pytest.mark.parametrize("entry, before, after", CHIRAL,
                         ids=[entry.__name__ for entry, _, _ in CHIRAL])
def test_chirality_string_gives_the_member_constant(entry, before, after):
    holo, anti = entry(*before, HOLO, *after), entry(*before, ANTI, *after)
    assert holo != anti
    assert entry(*before, "holo", *after) == holo
    assert entry(*before, "anti", *after) == anti
    with pytest.raises(ValueError):
        entry(*before, 5, *after)


def test_chirality_rule_in_the_pair_constant_and_the_spec():
    args = (1, 1, F(-1, 3), F(-1, 4), 0, 0)
    for member in (HOLO, ANTI):
        assert kernel_leading_constant(*args, member.value) == kernel_leading_constant(
            *args, member
        )
        spec = KernelSpec(a="-1/3", b="-1/4", p=1, q=1, j=0, k=0, chirality=member.value)
        assert spec.chirality is member
        assert kernel_term(F(-1, 2), 1, member.value, 0) == kernel_term(F(-1, 2), 1, member, 0)
    # 5 is refused even where nothing reads the chirality: a Smooth pair,
    # a natural exponent's zero constant, and q = 0, where anti means holo
    with pytest.raises(ValueError):
        kernel_leading_constant(1, 1, 0, F(-1, 4), 0, 1, 5)
    with pytest.raises(ValueError):
        F_const(1, 1, 1, F(-1, 4), 5)
    for q in (0, 1):
        with pytest.raises(ValueError):
            KernelSpec(a="-1/3", b="-1/4", p=0, q=q, j=0, k=0, chirality=5)
    with pytest.raises(ValueError):
        kernel_term(F(-1, 2), 1, 5, 0)


def test_anti_pole_is_decided_on_exact_rationals():
    # m = a+b+p+1 = 0: Gamma(-m) has a pole, but the float -a-b-p-1 is not 0
    with pytest.raises(GammaPoleError, match="Gamma pole"):
        F_const(1, 4, F(4, 5), F(-14, 5), ANTI)


def test_anti_pole_scan():
    # Every admissible anti point with p, q <= 4, a with denominator <= 21,
    # a and b non-natural and a+b+1 a negative integer: F_const raises
    # GammaPoleError exactly where m = a+b+p+1 is natural, and is a finite
    # value elsewhere.  Before the exact decision 70 of the 12384 points
    # returned a value at a pole.
    points = poles = 0
    for p in range(5):
        for q in range(5):
            for d in range(1, 22):
                for num in range(math.floor((-1 - F(p, 2)) * d), 10 * d):
                    a = F(num, d)
                    if a.denominator != d or is_natural(a) or a + F(p, 2) <= -1:
                        continue
                    t = 1
                    while -t - 1 - a + F(q, 2) > -1:
                        b = -t - 1 - a
                        t += 1
                        if is_natural(b):
                            continue
                        points += 1
                        if is_natural(a + b + p + 1):
                            poles += 1
                            with pytest.raises(GammaPoleError):
                                F_const(p, q, a, b, ANTI)
                        else:
                            assert math.isfinite(F_const(p, q, a, b, ANTI))
    assert (points, poles) == (12384, 10719)
