"""One input contract for the exact layer.

Every public entry point checks its integer fields with one rule (a
Python int at or above its minimum; floats, bools and strings refused,
never truncated), reads its chirality with one rule (the enum or its
string value, nothing else) and decides its poles on exact rationals.
A rational string with a zero denominator, an integer field whose
magnitude is beyond float range, and any exponent, argument, sample
point, radius or coefficient whose magnitude is beyond float range where
it would become a float or a complex, are refused with a ValueError
that names it, never with an OverflowError.
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
from asymconv.expansion_algebra import _check_slice
from asymconv.fiber_demo import MonomialGerm, bump_profile, monomial_fiber_integral
from asymconv.gamma_kernel import (
    F_const,
    G_q,
    GammaPoleError,
    beta_tail_integral,
    binomial_gamma_sum,
    degenerate_case1_coeff,
    fourier_coefficient,
    gauss_sum,
    integer_case_log_coeff,
    tilde_F_const,
)
from asymconv.quadrature_oracle import (
    KernelSpec,
    eval_kernel_integral,
    finite_part_direct,
    fit_radial_samples,
)

F = Fraction
HOLO = Chirality.HOLO
ANTI = Chirality.ANTI
SPEC = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)

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


_GAMMA_1E306 = r"Gamma\(1e\+306\) is beyond float range"

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
    # a Gamma value whose log is beyond float range (an argument past
    # ~2.5e305) is refused by name, never with a bare OverflowError, and so
    # is a partial sum of the logs beyond it
    (fourier_coefficient, dict(a=10**306 + F(1, 2), q=0, r=2), _GAMMA_1E306),
    (beta_tail_integral, dict(u=1e306, v=0), _GAMMA_1E306),
    (binomial_gamma_sum, dict(p=0, x=2e305, y=2e305), r"Gamma\(4e\+305\) is beyond float range"),
    (gauss_sum, dict(x=2e305, y=2e305, z=4.0000000001e305), "a partial sum of its logs"),
    (G_q, dict(a=F(-1, 3), b=F(-1, 4), q=10**306), _GAMMA_1E306),
    (tilde_F_const, dict(p=10**306, q=0, a=F(-1, 3), b=F(-2, 3), chirality2=HOLO), _GAMMA_1E306),
    (degenerate_case1_coeff, dict(p=10**306, q=0, a=2, b=F(-1, 4), chirality2=HOLO),
     _GAMMA_1E306),
    (kernel_leading_constant,
     dict(p=10**306, q=0, a=F(-1, 3), b=F(-1, 4), j=0, k=0, chirality=HOLO), _GAMMA_1E306),
    # a non-integer exponent whose float is an integer is refused by name,
    # not counted as a pole of Gamma (a GammaPoleError)
    pytest.param(F_const, dict(p=0, q=0, a=2**60 + F(1, 2), b=F(-1, 3), chirality2=HOLO),
                 "a is 2305843009213693953/2, whose float 1.152921504606847e[+]18 has lost",
                 id="F_const-lost-fraction"),
    pytest.param(kernel_leading_constant,
                 dict(p=0, q=0, a=10**306 + F(1, 2), b=F(-1, 3), j=0, k=0, chirality=HOLO),
                 "whose float 1e[+]306 has lost the fractional part",
                 id="kernel_leading_constant-lost-fraction"),
    # a number read beyond float range is refused by name, never with a bare
    # OverflowError: the natural-a product of binomials, an identity
    # evaluator's argument, a sample point (a part or the modulus), a
    # sample, a + b + 1 and a radius (a scalar or a list)
    pytest.param(fourier_coefficient, dict(a=600, q=0, r=600),
                 r"the natural-a coefficient comb\(a, \(r\+q\)/2\) comb\(a, \(r-q\)/2\) "
                 "is beyond float range", id="fourier_coefficient-natural-a"),
    pytest.param(beta_tail_integral, dict(u=10**400, v=1), "argument u is beyond float range",
                 id="beta_tail_integral-argument"),
    pytest.param(binomial_gamma_sum, dict(p=1, x=10**400, y=0.5),
                 "argument x is beyond float range", id="binomial_gamma_sum-argument"),
    pytest.param(gauss_sum, dict(x=0.5, y=0.5, z=10**400), "argument z is beyond float range",
                 id="gauss_sum-argument"),
    (eval_kernel_integral, dict(spec=SPEC, s=10**400), "s is beyond float range"),
    pytest.param(eval_kernel_integral, dict(spec=SPEC, s=complex(1.5e308, 1.5e308)),
                 "s is beyond float range", id="eval_kernel_integral-modulus"),
    pytest.param(fit_radial_samples, dict(spec=SPEC, values=[10**400] * 16),
                 "a kernel sample is beyond float range", id="fit_radial_samples-sample"),
    (fit_radial_samples,
     dict(spec=KernelSpec(a=str(10**308), b=str(10**308), p=0, q=0, j=0, k=0), values=[0.0] * 16),
     r"a\+b\+1 is beyond float range"),
    (bump_profile, dict(germ=MonomialGerm(2), radius=10**400), "radius is beyond float range"),
    pytest.param(bump_profile, dict(germ=MonomialGerm(2), radius=[0.5, 10**400]),
                 "radius is beyond float range", id="bump_profile-list"),
    (monomial_fiber_integral, dict(germ=MonomialGerm(2), s=10**400), "s is beyond float range"),
    pytest.param(monomial_fiber_integral, dict(germ=MonomialGerm(2), s=complex(1.5e308, 1.5e308)),
                 "s is beyond float range", id="monomial_fiber_integral-modulus"),
    (LogPolynomial.of_coeffs, dict(values=[10**400]), "a log coefficient is beyond float range"),
    (LogPolynomial.monomial, dict(degree=0, c=10**400), "c is beyond float range"),
]

# a row is named after its entry point; a later row of an entry point
# already listed is a pytest.param with its own id, so the ids before it
# stay as they were (a param's id wins over the name read from its values)
@pytest.mark.parametrize("entry, kwargs, message", NUMBER_FAULTS,
                         ids=[getattr(row[0], "__name__", None) for row in NUMBER_FAULTS])
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


# (a, b, p, q) outside the slice on one side, and that side's message
SLICE_FAULTS = [
    (F(-3, 2), F(-1, 4), 1, 1, r"need a \+ p/2 > -1 for local integrability at s"),
    (F(-1, 3), F(-2), 0, 2, r"need b \+ q/2 > -1 for local integrability at 0"),
    (F(-3, 2), F(-3, 2), 0, 0, r"need a \+ p/2 > -1 for local integrability at s"),
]


@pytest.mark.parametrize("a, b, p, q, message", SLICE_FAULTS, ids=["a", "b", "both"])
def test_one_slice_rule_names_the_side(a, b, p, q, message):
    # the spec, the case constants and the engine's kernel constant read
    # the slice through _check_slice alone, so all refuse with its message
    refusals = [
        lambda: _check_slice(p, q, a, b, HOLO),
        lambda: KernelSpec(a=a, b=b, p=p, q=q, j=0, k=0),
        lambda: F_const(p, q, a, b, HOLO),
        lambda: tilde_F_const(p, q, a, b, HOLO),
        lambda: degenerate_case1_coeff(p, q, a, b, ANTI),
        lambda: kernel_leading_constant(p, q, a, b, 0, 0, ANTI),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match=message):
            refuse()
    # the bound itself is exact: a + p/2 = -1 + 1e-20 is inside
    inside = F(-1 - F(p, 2)) + F(1, 10**20)
    # and q = 0 leaves no monomial to orient: the canonical chirality is holo
    assert _check_slice(p, 0, inside, F(-1, 4), "anti") == (inside, F(-1, 4), HOLO)


def test_anti_pole_is_decided_on_exact_rationals():
    # m = a+b+p+1 = 0: Gamma(-m) has a pole, but the float -a-b-p-1 is not 0
    with pytest.raises(GammaPoleError, match="Gamma pole"):
        F_const(1, 4, F(4, 5), F(-14, 5), ANTI)


def test_anti_pole_scan():
    # Every admissible anti point with p, q <= 4, a with denominator <= 21,
    # a and b non-natural and a+b+1 a negative integer.  Both shifts of the
    # anti ratio are one function, Gamma(-n) Gamma(n+1) / (Gamma(n+p+1)
    # Gamma(n+q+1)) times the a and b factors (n = a+b+1), whose pole is
    # where n >= -min(p, q).  F_const raises GammaPoleError exactly there
    # and is a finite value elsewhere, the same in both argument orders.
    # Before the exact decision 70 of the 12384 points returned a value at
    # a pole.
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
                        if a + b + 1 >= -min(p, q):
                            poles += 1
                            for args in ((p, q, a, b), (q, p, b, a)):
                                with pytest.raises(GammaPoleError):
                                    F_const(*args, ANTI)
                        else:
                            value = F_const(p, q, a, b, ANTI)
                            assert math.isfinite(value)
                            assert math.isclose(F_const(q, p, b, a, ANTI), value, rel_tol=1e-12)
    assert (points, poles) == (12384, 9054)


def test_anti_constant_is_symmetric_in_the_slice_corner():
    # a+b+p+1 = 0 is natural, a+b+q+1 = -1 is not: no pole, and the value
    # is the limit from a + 1e-9 in both argument orders
    value = F_const(2, 1, F(-17, 10), F(-13, 10), ANTI)
    assert value == F_const(1, 2, F(-13, 10), F(-17, 10), ANTI)
    near = F_const(2, 1, F(-17, 10) + F(1, 10**9), F(-13, 10), ANTI)
    assert math.isclose(value, near, rel_tol=1e-8)
