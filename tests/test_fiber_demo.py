import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import asymconv.fiber_demo as fiber_demo
from asymconv.convolution_engine import CaseTag
from asymconv.expansion_algebra import canonical_json
from asymconv.fiber_demo import (
    _SAFE_RADIUS,
    MonomialGerm,
    _cutoff_remainder,
    bump_profile,
    measure_singular_exponent,
    monomial_fiber_integral,
    thom_sebastiani_demo,
)
from asymconv.quadrature_oracle import ToleranceNotMet
from test_golden_reports import DEMO_DOMAIN

F = Fraction


class TestMonomialGerm:
    def test_defaults(self):
        germ = MonomialGerm(2)
        assert germ.plateau == 0.9
        assert germ.support == 1.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            MonomialGerm(0)
        with pytest.raises(ValueError):
            MonomialGerm(True)
        with pytest.raises(ValueError):
            MonomialGerm(2.0)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            MonomialGerm(2, plateau=0.9, support=0.9)
        with pytest.raises(ValueError):
            MonomialGerm(2, plateau=0.0, support=0.5)
        with pytest.raises(ValueError):
            MonomialGerm(2, plateau=0.9, support=1.1)


class TestBumpProfile:
    def test_plateau_and_support(self):
        germ = MonomialGerm(1, plateau=0.6, support=0.9)
        assert bump_profile(germ, 0.0) == 1.0
        assert bump_profile(germ, 0.6) == 1.0
        assert bump_profile(germ, 0.9) == 0.0
        assert bump_profile(germ, 1.5) == 0.0

    def test_monotone_transition(self):
        germ = MonomialGerm(1, plateau=0.6, support=0.9)
        radii = np.linspace(0.6, 0.9, 40)
        vals = bump_profile(germ, radii)
        assert vals.shape == radii.shape
        assert all(v1 >= v2 for v1, v2 in zip(vals, vals[1:]))
        mid = bump_profile(germ, 0.75)
        assert mid == pytest.approx(0.5, abs=1e-12)


class TestMonomialFiberIntegral:
    def test_zero_is_domain_error(self):
        with pytest.raises(ValueError):
            monomial_fiber_integral(MonomialGerm(2), 0.0)

    def test_identity_germ(self):
        germ = MonomialGerm(1)
        assert monomial_fiber_integral(germ, 0.3) == 1.0
        assert monomial_fiber_integral(germ, 0.95) == pytest.approx(
            bump_profile(germ, 0.95)
        )
        assert monomial_fiber_integral(germ, 1.2) == 0.0

    def test_square_germ_on_plateau(self):
        germ = MonomialGerm(2)
        for s in (0.5, 0.1, 0.5j, -0.3 + 0.2j):
            assert monomial_fiber_integral(germ, s) == pytest.approx(
                1.0 / (2.0 * abs(s)), rel=1e-13
            )

    def test_root_set_symmetry(self):
        germ = MonomialGerm(3)
        omega = cmath.exp(2j * math.pi / 3)
        for s in (0.2, 0.05 + 0.1j, -0.3):
            a = monomial_fiber_integral(germ, s)
            b = monomial_fiber_integral(germ, s * omega)
            assert b == pytest.approx(a, rel=1e-12)

    def test_plateau_leading_constant(self):
        germ = MonomialGerm(3)
        plateau_cubed = 0.9 ** 3
        for sigma in (plateau_cubed * 0.99, 0.1, 1e-3, 1e-8):
            value = monomial_fiber_integral(germ, sigma) * sigma ** (2 * (1 - 1 / 3))
            assert value == pytest.approx(1.0 / 3.0, abs=1e-10)


def _reference_cutoff_remainder(g1, g2, af, bf, sigma, level):
    """Scalar form of the cutoff remainder: one ring at a time, one
    angular panel at a time, with the same breaks and Gauss rules."""
    g_rad = (24, 32)[level]
    g_ang = (16, 24)[level]
    n1, n2 = g1.exponent, g2.exponent
    t1 = g1.plateau ** n1
    t2 = g1.support ** n1
    joints = {
        _SAFE_RADIUS,
        0.5,
        g2.plateau ** n2,
        0.5 * (g2.plateau ** n2 + g2.support ** n2),
        g2.support ** n2,
        1.0,
    }
    for thresh in (t1, t2):
        joints.add(thresh - sigma)
        joints.add(thresh + sigma)
    edges = sorted(x for x in joints if _SAFE_RADIUS <= x <= 1.0)
    rad_nodes, rad_wts = np.polynomial.legendre.leggauss(g_rad)
    ang_nodes, ang_wts = np.polynomial.legendre.leggauss(g_ang)

    def ring_mean(rho):
        breaks = [0.0, math.pi]
        for thresh in (t1, t2):
            arg = (sigma * sigma + rho * rho - thresh * thresh) / (
                2.0 * sigma * rho
            )
            if -1.0 < arg < 1.0:
                breaks.append(math.acos(arg))
        breaks.sort()
        beta2 = bump_profile(g2, rho ** (1.0 / n2))
        acc = 0.0
        for alo, ahi in zip(breaks, breaks[1:]):
            if ahi - alo < 1e-14:
                continue
            theta = 0.5 * (ahi - alo) * ang_nodes + 0.5 * (ahi + alo)
            w = 0.5 * (ahi - alo) * ang_wts
            dist2 = sigma * sigma + rho * rho - 2.0 * sigma * rho * np.cos(theta)
            beta1 = bump_profile(g1, dist2 ** (0.5 / n1))
            acc += float(np.sum(w * (beta1 * beta2 - 1.0) * dist2 ** af))
        return acc / math.pi * rho ** (2.0 * bf)

    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo < 1e-14:
            continue
        rho_vals = 0.5 * (hi - lo) * rad_nodes + 0.5 * (hi + lo)
        w_vals = 0.5 * (hi - lo) * rad_wts
        total += sum(w * rho * ring_mean(rho) for rho, w in zip(rho_vals, w_vals))
    return total


def _dense_cutoff_remainder(g1, g2, af, bf, sigma, level):
    """Dense form of the cutoff remainder: every ring x 3 angular panels x
    angular nodes in one array, empty panels masked to 0 afterwards.

    Returns the value and the number of rings whose density product is
    exactly 1.0 at every node, the rings inside both plateaus."""
    g_rad = (24, 32)[level]
    g_ang = (16, 24)[level]
    n1, n2 = g1.exponent, g2.exponent
    t1 = g1.plateau ** n1
    t2 = g1.support ** n1
    joints = {
        _SAFE_RADIUS,
        0.5,
        g2.plateau ** n2,
        0.5 * (g2.plateau ** n2 + g2.support ** n2),
        g2.support ** n2,
        1.0,
    }
    for thresh in (t1, t2):
        joints.add(thresh - sigma)
        joints.add(thresh + sigma)
    edges = np.array(sorted(x for x in joints if _SAFE_RADIUS <= x <= 1.0))
    lo, hi = edges[:-1], edges[1:]
    keep = hi - lo >= 1e-14
    lo, hi = lo[keep], hi[keep]
    rad_nodes, rad_wts = np.polynomial.legendre.leggauss(g_rad)
    ang_nodes, ang_wts = np.polynomial.legendre.leggauss(g_ang)

    half = (0.5 * (hi - lo))[:, None]
    rho_grid = half * rad_nodes + (0.5 * (hi + lo))[:, None]
    rad_w = half * rad_wts
    rho = rho_grid.ravel()

    cols = [np.zeros_like(rho), np.full_like(rho, math.pi)]
    for thresh in (t1, t2):
        arg = (sigma * sigma + rho * rho - thresh * thresh) / (2.0 * sigma * rho)
        crossing = np.arccos(np.clip(arg, -1.0, 1.0))
        cols.append(np.where(np.abs(arg) < 1.0, crossing, math.pi))
    breaks = np.sort(np.column_stack(cols), axis=1)
    alo, ahi = breaks[:, :-1], breaks[:, 1:]

    ahalf = (0.5 * (ahi - alo))[:, :, None]
    theta = ahalf * ang_nodes + (0.5 * (ahi + alo))[:, :, None]
    w = ahalf * ang_wts
    dist2 = (sigma * sigma + rho * rho)[:, None, None] - (
        2.0 * sigma * rho
    )[:, None, None] * np.cos(theta)
    beta1 = bump_profile(g1, dist2 ** (0.5 / n1))
    beta2 = bump_profile(g2, rho ** (1.0 / n2))
    zero_rings = int(np.sum(np.all(beta1 * beta2[:, None, None] == 1.0, axis=(1, 2))))
    panel = np.sum(w * (beta1 * beta2[:, None, None] - 1.0) * dist2 ** af, axis=-1)
    panel = np.where(ahi - alo < 1e-14, 0.0, panel)
    ring = np.sum(panel, axis=-1) / math.pi * rho ** (2.0 * bf)
    return float(np.sum(rad_w * rho_grid * ring.reshape(rho_grid.shape))), zero_rings


#: Sixteen radii 0.2 * 2^-i, i = 0..15: the demo samples only the deepest
#: seven, and the shallower ones keep the remainder's wider geometry covered.
_REMAINDER_RADII = tuple(0.2 * 2.0**-i for i in range(16))

_REMAINDER_PAIRS = [
    (MonomialGerm(1), MonomialGerm(3)),
    (MonomialGerm(2), MonomialGerm(3)),
    (MonomialGerm(5), MonomialGerm(9)),
    # narrow transition: both joint circles of the first cutoff
    # cross the rings, and their tangency radii split the panels
    (
        MonomialGerm(1, plateau=0.95, support=0.96),
        MonomialGerm(2, plateau=0.95, support=0.96),
    ),
]


class TestCutoffRemainder:
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("sigma", [0.2, 0.1, 0.2 * 2.0 ** -15])
    @pytest.mark.parametrize("g1, g2", _REMAINDER_PAIRS)
    def test_matches_scalar_reference(self, g1, g2, sigma, level):
        af = 1.0 / g1.exponent - 1.0
        bf = 1.0 / g2.exponent - 1.0
        expected = _reference_cutoff_remainder(g1, g2, af, bf, sigma, level)
        got = _cutoff_remainder(g1, g2, af, bf, sigma, level)
        assert math.isclose(got, expected, rel_tol=1e-14)

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("g1, g2", _REMAINDER_PAIRS)
    def test_bit_identical_to_dense_form(self, g1, g2, level):
        # skipping empty panels and rings inside both plateaus drops only
        # exact +0.0 terms and keeps every summation order
        spec = fiber_demo._demo_setup(g1, g2)
        af, bf = float(spec.a), float(spec.b)
        for sigma in _REMAINDER_RADII:
            expected, zero_rings = _dense_cutoff_remainder(g1, g2, af, bf, sigma, level)
            got = _cutoff_remainder(g1, g2, af, bf, sigma, level)
            assert got == expected, sigma
            # every pair has whole rings inside both plateaus (one or two
            # radial panels of them), so the ring skip is exercised
            assert zero_rings >= (24, 32)[level], sigma


class TestThomSebastianiDemo:
    def test_square_square_is_resonant_with_log(self):
        report = thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(2))
        assert report.case is CaseTag.RESONANT
        assert report.fitted_coeffs.degree == 1
        coeff = report.fitted_coeffs.coefficient(1).real
        assert abs(coeff) > 0.1
        assert coeff == pytest.approx(-0.125, rel=1e-6)
        assert report.closed_form == pytest.approx(-0.125)
        assert report.relative_error < 1e-6

    def test_square_cube_matches_engine(self):
        report = thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(3))
        assert report.case is CaseTag.GENERIC
        assert report.spec.a == F(-1, 2)
        assert report.spec.b == F(-2, 3)
        fitted = report.fitted_coeffs.coefficient(0).real
        assert fitted == pytest.approx(0.81298187, abs=1e-6)
        assert report.relative_error < 1e-8
        assert report.normalization_used == pytest.approx(0.5, abs=1e-6)

    def test_order_of_germs_does_not_change_the_value(self):
        one = thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(3))
        two = thom_sebastiani_demo(MonomialGerm(3), MonomialGerm(2))
        a = one.fitted_coeffs.coefficient(0).real
        b = two.fitted_coeffs.coefficient(0).real
        assert a == pytest.approx(b, rel=1e-9)

    def test_identity_pair_is_smooth(self):
        report = thom_sebastiani_demo(MonomialGerm(1), MonomialGerm(1))
        assert report.case is CaseTag.SMOOTH
        assert report.closed_form == 0.0
        assert report.normalization_used is None
        # the cutoff is only C^2, so its Taylor tail leaks a little into
        # the probe column; the singular cases above sit at 0.125-0.81
        assert report.relative_error < 0.02

    def test_identity_square_is_smooth(self):
        report = thom_sebastiani_demo(MonomialGerm(1), MonomialGerm(2))
        assert report.case is CaseTag.SMOOTH
        assert report.relative_error < 1e-3

    def test_geometry_validation(self):
        # the first germ's plateau^N must clear the safety radius 0.35 by
        # the largest sampled radius, 0.2 * 2^-9: plateau^N = 0.5 and
        # 0.9^6 = 0.53 do, 0.35 and 0.9^10 = 0.349 do not
        for first in (MonomialGerm(1, plateau=0.5, support=0.8), MonomialGerm(6)):
            assert thom_sebastiani_demo(first, MonomialGerm(2)).relative_error <= 1e-10
        for first in (MonomialGerm(1, plateau=0.35, support=0.8), MonomialGerm(10)):
            with pytest.raises(ValueError, match="first germ's plateau\\^N leaves no room"):
                thom_sebastiani_demo(first, MonomialGerm(2))
        # the bound is the grid's largest radius, not the safety radius alone
        edge = _SAFE_RADIUS + max(fiber_demo._GRID)
        fiber_demo._demo_setup(MonomialGerm(1, plateau=edge * 1.001, support=0.8), MonomialGerm(2))
        with pytest.raises(ValueError, match="first germ's plateau\\^N leaves no room"):
            fiber_demo._demo_setup(MonomialGerm(1, plateau=edge * 0.999, support=0.8), MonomialGerm(2))
        with pytest.raises(ValueError, match="second germ's plateau\\^M is narrower"):
            thom_sebastiani_demo(
                MonomialGerm(2), MonomialGerm(1, plateau=0.3, support=0.9)
            )

    def test_remainder_refusal_is_typed(self, monkeypatch):
        # a zero pure-power part leaves the remainder as the scale.  At the
        # demo's radii, 0.2 * 2^-9 and below, the remainder's two levels
        # agree to roundoff (0 to 1.6e-16 relative at (2, 3)), so the coarse
        # level is moved by 1e-3 relative, far above the 1e-6 tolerance
        real = fiber_demo._cutoff_remainder

        def coarse_moved(g1, g2, af, bf, sigma, level):
            value = real(g1, g2, af, bf, sigma, level)
            return value * 1.001 if level == 0 else value

        monkeypatch.setattr(fiber_demo, "eval_kernel_integral", lambda spec, s: 0j)
        monkeypatch.setattr(fiber_demo, "_cutoff_remainder", coarse_moved)
        with pytest.raises(ToleranceNotMet) as exc:
            thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(3))
        assert exc.value.achieved == pytest.approx(1e-3, rel=1e-9)
        assert "cutoff remainder at sigma=3.906e-04" in str(exc.value)

    def test_samples_through_its_own_module_name_and_never_fits(self, monkeypatch):
        # the measurement stage: one kernel sample and two remainder levels
        # at each of the seven radii the filter reads, looked up in
        # fiber_demo, where perfbench's tracer wraps them, and no fit
        calls = {"fit_radial_samples": 0, "eval_kernel_integral": 0, "_cutoff_remainder": 0}

        def counted(name):
            original = getattr(fiber_demo, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fiber_demo, name, counted(name))
        thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(3))
        assert calls == {"fit_radial_samples": 0, "eval_kernel_integral": 7, "_cutoff_remainder": 14}

    def test_reports_are_deterministic(self):
        first = thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(3))
        second = thom_sebastiani_demo(MonomialGerm(2), MonomialGerm(3))
        assert canonical_json(first.to_json_dict()) == canonical_json(second.to_json_dict())


class TestMeasureSingularExponent:
    def test_square_cube_exponent(self):
        x = measure_singular_exponent(MonomialGerm(2), MonomialGerm(3))
        assert x == pytest.approx(-1.0 / 6.0, abs=1e-3)

    def test_resonant_pair_rejected(self):
        with pytest.raises(ValueError):
            measure_singular_exponent(MonomialGerm(2), MonomialGerm(2))

    @pytest.mark.parametrize(
        "g1, g2",
        [
            (MonomialGerm(1), MonomialGerm(3)),
            (MonomialGerm(4), MonomialGerm(1)),
            (MonomialGerm(1), MonomialGerm(11, plateau=0.95)),
        ],
    )
    def test_smooth_pair_rejected(self, g1, g2):
        # an exponent-1 germ gives a = 0 or b = 0 with no log: no singular
        # exponent exists, and the search used to return a window edge
        with pytest.raises(ValueError, match="Smooth"):
            measure_singular_exponent(g1, g2)

    def test_reads_the_samples_not_the_model(self, monkeypatch):
        # samples of a pure power at exponent 0.3 on the seven radii, far
        # from the (2, 3) model's -1/6, are read as 0.3: the exponent comes
        # from the samples alone
        monkeypatch.setattr(
            fiber_demo,
            "_demo_samples",
            lambda g1, g2, spec: [s ** 0.6 for s in fiber_demo._GRID],
        )
        x = measure_singular_exponent(MonomialGerm(2), MonomialGerm(3))
        assert x == pytest.approx(0.3, abs=1e-12)

    def test_windows_of_opposite_sign_are_refused(self, monkeypatch):
        # a spike at the next-to-last of the seven radii meets the filter's
        # top tap in the window before the deepest and its next tap,
        # -sum mu_t, in the deepest: no ratio to read
        monkeypatch.setattr(
            fiber_demo,
            "_demo_samples",
            lambda g1, g2, spec: [0.0] * 5 + [1.0, 0.0],
        )
        with pytest.raises(ValueError, match="differ in sign"):
            measure_singular_exponent(MonomialGerm(2), MonomialGerm(3))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=16, max_size=16))
    def test_seven_samples_make_the_two_deepest_of_sixteen_windows(self, values):
        # a valid window reads its own six samples alone, so the deepest
        # seven of sixteen samples give the last two windows bit for bit
        deepest = fiber_demo._windows(values[-7:])
        assert deepest.tobytes() == fiber_demo._windows(values)[-2:].tobytes()


_NARROW = {"plateau": 0.95, "support": 0.96}


class TestDemoDomain:
    """The filter readout on the whole demo domain and its hard corners."""

    @pytest.mark.parametrize("n, m", DEMO_DOMAIN)
    def test_constant(self, n, m):
        report = thom_sebastiani_demo(MonomialGerm(n), MonomialGerm(m))
        assert math.isfinite(report.condition_number)
        if report.case is CaseTag.SMOOTH:
            # no singular term: the probe reads the cutoff's leak alone
            assert report.relative_error <= 1e-6
        else:
            assert report.relative_error <= 1e-12

    @pytest.mark.parametrize(
        "g1, g2",
        [(MonomialGerm(n), MonomialGerm(m)) for n, m in DEMO_DOMAIN
         if n > 1 and m > 1 and (n, m) != (2, 2)]
        + [
            # x = -0.98667 and -0.98 sit near -1, which is no smooth power
            (MonomialGerm(150, plateau=0.999), MonomialGerm(150, plateau=0.999)),
            (MonomialGerm(100, plateau=0.998), MonomialGerm(100, plateau=0.998)),
        ],
    )
    def test_exponent(self, g1, g2):
        expected = Fraction(1, g1.exponent) + Fraction(1, g2.exponent) - 1
        assert measure_singular_exponent(g1, g2) == pytest.approx(float(expected), abs=1e-9)

    @pytest.mark.parametrize("n, m", DEMO_DOMAIN)
    def test_accuracy_is_pinned(self, n, m, monkeypatch):
        # at plateau 0.9 and support 1 every pair N, M <= 9 agrees to 1e-10
        # (worst 2.2e-11, a Smooth probe), measures its exponent to 1e-14
        # and refines every cutoff remainder, by _refined's own measure,
        # to 1e-15 (worst 4.2e-17)
        real, moved = fiber_demo._refined, []

        def recorded(v0, v1, floor, where):
            moved.append(abs(v1 - v0) / max(abs(v1), floor, 1e-300))
            return real(v0, v1, floor, where)

        monkeypatch.setattr(fiber_demo, "_refined", recorded)
        g1, g2 = MonomialGerm(n), MonomialGerm(m)
        assert thom_sebastiani_demo(g1, g2).relative_error <= 1e-10
        if n > 1 and m > 1 and (n, m) != (2, 2):
            expected = Fraction(1, n) + Fraction(1, m) - 1
            assert abs(measure_singular_exponent(g1, g2) - float(expected)) <= 1e-14
        else:
            # refused before any sample is taken
            with pytest.raises(ValueError, match="Smooth|resonance"):
                measure_singular_exponent(g1, g2)
        assert max(moved) <= 1e-15

    def test_narrow_resonant_pair(self):
        report = thom_sebastiani_demo(MonomialGerm(2, **_NARROW), MonomialGerm(2, **_NARROW))
        assert report.case is CaseTag.RESONANT
        assert report.fitted_coeffs.coefficient(0) == 0.0
        assert report.relative_error <= 1e-12

    def test_narrow_smooth_pair_has_a_finite_condition_number(self):
        # the condition number comes from the filter, lambda and the grid,
        # never from the samples, so a window that reads 0 cannot spoil it
        report = thom_sebastiani_demo(MonomialGerm(1, **_NARROW), MonomialGerm(2, **_NARROW))
        assert report.case is CaseTag.SMOOTH
        assert math.isfinite(report.condition_number)
        assert report.relative_error <= 1e-6
