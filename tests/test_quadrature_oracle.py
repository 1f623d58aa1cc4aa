import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymconv.convolution_engine import CaseTag
from asymconv.expansion_algebra import Chirality
from asymconv.gamma_kernel import F_const, G_q
from asymconv.quadrature_oracle import (
    IllConditioned,
    KernelSpec,
    SampleGrid,
    ToleranceNotMet,
    VerificationReport,
    default_grid,
    eval_kernel_integral,
    extract_leading_coeffs,
    finite_part_direct,
    power_log_integral,
    verify_constant,
)

F = Fraction
HOLO = Chirality.HOLO
ANTI = Chirality.ANTI


class TestKernelSpec:
    def test_coercion(self):
        spec = KernelSpec(a="-1/2", b="-1/3", p=0, q=1, j=0, k=0, chirality="anti")
        assert spec.a == F(-1, 2)
        assert spec.b == F(-1, 3)
        assert spec.chirality is ANTI

    def test_q_zero_normalizes_chirality(self):
        spec = KernelSpec(a=F(0), b=F(0), p=1, q=0, j=0, k=0, chirality="anti")
        assert spec.chirality is HOLO

    def test_rejects_bad_monomial_degrees(self):
        with pytest.raises(ValueError):
            KernelSpec(a=F(0), b=F(0), p=-1, q=0, j=0, k=0)
        with pytest.raises(ValueError):
            KernelSpec(a=F(0), b=F(0), p=True, q=0, j=0, k=0)
        with pytest.raises(ValueError):
            KernelSpec(a=F(0), b=F(0), p=0, q=0, j=0, k=1.5)

    def test_rejects_nonintegrable_exponents(self):
        with pytest.raises(ValueError):
            KernelSpec(a=F(-1), b=F(0), p=0, q=0, j=0, k=0)
        with pytest.raises(ValueError):
            KernelSpec(a=F(0), b=F(-3, 2), p=0, q=1, j=0, k=0)
        # the same exponents are fine once the monomial lifts them
        KernelSpec(a=F(-1), b=F(0), p=1, q=0, j=0, k=0)

    def test_json_round_trip(self):
        spec = KernelSpec(a=F(-2, 5), b=F(-7, 20), p=1, q=2, j=1, k=0, chirality="anti")
        data = json.loads(json.dumps(spec.to_json_dict()))
        assert KernelSpec.from_json_dict(data) == spec

    @given(
        an=st.integers(-9, 9),
        ad=st.integers(1, 10),
        bn=st.integers(-9, 9),
        bd=st.integers(1, 10),
        p=st.integers(0, 3),
        q=st.integers(0, 3),
        j=st.integers(0, 2),
        k=st.integers(0, 2),
        anti=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_property(self, an, ad, bn, bd, p, q, j, k, anti):
        a = F(an, ad)
        b = F(bn, bd)
        assume(a + F(p, 2) > -1 and b + F(q, 2) > -1)
        chir = ANTI if anti else HOLO
        spec = KernelSpec(a=a, b=b, p=p, q=q, j=j, k=k, chirality=chir)
        again = KernelSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec


class TestSampleGrid:
    def test_default_grid(self):
        grid = default_grid()
        assert len(grid.radii) == 16
        assert grid.radii[0] == pytest.approx(0.2)
        assert all(r1 > r2 for r1, r2 in zip(grid.radii, grid.radii[1:]))

    def test_default_grid_drops_depth_for_high_degree(self):
        spec = KernelSpec(a=F(0), b=F(0), p=2, q=2, j=0, k=0)
        assert len(default_grid(spec).radii) == 12

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            SampleGrid(radii=(0.1, 0.2))
        with pytest.raises(ValueError):
            SampleGrid(radii=(0.3, 0.1))
        with pytest.raises(ValueError):
            SampleGrid(radii=())
        with pytest.raises(ValueError):
            SampleGrid(radii=(0.2, 0.1), tolerance=0.0)


class TestEvalKernelIntegral:
    def test_measure_sanity(self):
        # constant integrand: the unit disk has measure 1/2 here
        spec = KernelSpec(a=F(0), b=F(0), p=0, q=0, j=0, k=0)
        rng = random.Random(20250818)
        for _ in range(10):
            r = rng.uniform(0.01, 0.25)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            s = r * complex(math.cos(phi), math.sin(phi))
            assert eval_kernel_integral(spec, s) == pytest.approx(0.5, abs=1e-10)

    def test_first_moment(self):
        spec = KernelSpec(a=F(0), b=F(0), p=1, q=0, j=0, k=0)
        s = 0.1 + 0.05j
        assert eval_kernel_integral(spec, s) == pytest.approx(s / 2, abs=1e-12)

    def test_domain_errors(self):
        spec = KernelSpec(a=F(0), b=F(0), p=0, q=0, j=0, k=0)
        with pytest.raises(ValueError):
            eval_kernel_integral(spec, 0.0)
        with pytest.raises(ValueError):
            eval_kernel_integral(spec, 0.3)

    def test_tolerance_not_met(self):
        spec = KernelSpec(a=F(-7, 10), b=F(-3, 5), p=1, q=1, j=2, k=1, chirality="anti")
        with pytest.raises(ToleranceNotMet) as exc:
            eval_kernel_integral(spec, 0.21, tolerance=1e-16)
        assert exc.value.achieved > 0.0

    def test_rotation_covariance_holo(self):
        spec = KernelSpec(a=F(-2, 5), b=F(-7, 20), p=1, q=1, j=0, k=0)
        base = eval_kernel_integral(spec, 0.1)
        rotated = eval_kernel_integral(spec, 0.1 * complex(math.cos(0.7), math.sin(0.7)))
        phase = complex(math.cos(2 * 0.7), math.sin(2 * 0.7))
        assert abs(rotated - phase * base) <= 1e-9 * abs(base)

    def test_rotation_covariance_anti(self):
        # p = q with the conjugate family: the phases cancel exactly
        spec = KernelSpec(a=F(-2, 5), b=F(-7, 20), p=1, q=1, j=0, k=0, chirality="anti")
        base = eval_kernel_integral(spec, 0.1)
        rotated = eval_kernel_integral(spec, 0.1 * complex(math.cos(0.7), math.sin(0.7)))
        assert abs(rotated - base) <= 1e-9 * abs(base)

    def test_angular_parity(self):
        spec = KernelSpec(a=F(-3, 10), b=F(-2, 5), p=0, q=1, j=0, k=0)
        m_angles = 8
        vals = np.array(
            [
                eval_kernel_integral(
                    spec, 0.1 * np.exp(2j * np.pi * m / m_angles)
                )
                for m in range(m_angles)
            ]
        )
        modes = np.fft.fft(vals) / m_angles
        top = np.abs(modes).max()
        for nu in range(m_angles):
            if nu % 2 != 1:
                assert abs(modes[nu]) <= 1e-8 * top

    def test_scaling_consistency(self):
        # after removing the fitted smooth part, halving |s| scales the
        # remainder by 2^{-2(a+b+1)}
        spec = KernelSpec(a=F(-3, 4), b=F(-4, 5), p=0, q=0, j=0, k=0)
        fit = extract_leading_coeffs(spec)
        smooth = dict(fit.smooth)

        def smooth_at(sigma):
            return sum(c * sigma ** (2 * t) for t, c in smooth.items())

        k1 = eval_kernel_integral(spec, 0.05).real - smooth_at(0.05)
        k2 = eval_kernel_integral(spec, 0.025).real - smooth_at(0.025)
        assert k2 / k1 == pytest.approx(2.0 ** 1.1, rel=1e-8)


class TestPowerLogIntegral:
    def test_against_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(80)
        lo, hi = 0.3, 2.1
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights
        for m in (-1.0, -0.5, 0.0, 2.3):
            for n in range(4):
                direct = float(np.sum(w * x ** m * np.log(x ** 2) ** n))
                assert power_log_integral(m, n, lo, hi) == pytest.approx(
                    direct, rel=1e-12, abs=1e-12
                )

    def test_log_branch(self):
        # m = -1 integrates to nested log powers
        val = power_log_integral(-1.0, 2, 0.5, 2.0)
        expect = (math.log(4.0) ** 3 - math.log(0.25) ** 3) / 6.0
        assert val == pytest.approx(expect, rel=1e-13)

    @given(
        m=st.floats(-0.9, 3.0),
        n=st.integers(0, 3),
        cuts=st.tuples(
            st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_additivity(self, m, n, cuts):
        lo, mid, hi = sorted(cuts)
        assume(hi - mid > 1e-6 and mid - lo > 1e-6)
        whole = power_log_integral(m, n, lo, hi)
        split = power_log_integral(m, n, lo, mid) + power_log_integral(m, n, mid, hi)
        assert split == pytest.approx(whole, rel=1e-10, abs=1e-12)


class TestFinitePartDirect:
    def test_matches_closed_form(self):
        for q, frozen in ((0, 3.9557027648), (2, 1.2964067885)):
            direct = finite_part_direct(-0.6, -0.7, q, N=8)
            closed = G_q(-0.6, -0.7, q).value
            assert direct == pytest.approx(closed, rel=1e-10)
            assert direct == pytest.approx(frozen, abs=1e-8)

    def test_independent_of_subtraction_depth(self):
        d8 = finite_part_direct(-0.3, -0.45, 1, N=8)
        d14 = finite_part_direct(-0.3, -0.45, 1, N=14)
        assert d8 == pytest.approx(-0.4238958116, abs=1e-9)
        assert abs(d8 - d14) < 1e-9

    def test_integer_a_vanishes(self):
        assert abs(finite_part_direct(1, F(-13, 5), 2)) < 1e-10

    def test_resonant_is_domain_error(self):
        with pytest.raises(ValueError):
            finite_part_direct(F(-1, 2), F(-1, 2), 0)
        with pytest.raises(ValueError):
            finite_part_direct(-0.5, -0.5, 0)
        with pytest.raises(ValueError):
            finite_part_direct(F(-1, 4), F(-3, 4), 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            finite_part_direct(-0.3, -0.4, -1)
        with pytest.raises(ValueError):
            finite_part_direct(-1.2, -0.4, 0)
        with pytest.raises(ValueError):
            finite_part_direct(-0.3, -1.4, 0)
        with pytest.raises(ValueError):
            finite_part_direct(-0.3, -0.4, 0, N=1)


class TestExtractLeadingCoeffs:
    def test_generic_fit(self):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        fit = extract_leading_coeffs(spec)
        closed = F_const(0, 0, F(-1, 3), F(-1, 4), HOLO).value * 0.5
        lead = fit.singular.coefficient(0).real
        assert lead == pytest.approx(closed, rel=1e-8)
        assert lead == pytest.approx(-0.3535351606, abs=1e-6)
        assert fit.case is CaseTag.GENERIC
        assert fit.condition_number < 1e8

    def test_resonant_fit_has_explicit_log_column(self):
        spec = KernelSpec(a=F(-1, 2), b=F(-1, 2), p=0, q=0, j=0, k=0)
        fit = extract_leading_coeffs(spec)
        assert fit.case is CaseTag.RESONANT
        assert fit.singular.degree == 1
        assert fit.singular.coefficient(1).real == pytest.approx(-0.5, abs=1e-3)
        # the log-free singular slot is not separable from the smooth part
        assert fit.singular.coefficient(0) == 0.0

    def test_near_resonance_is_ill_conditioned(self):
        spec = KernelSpec(a=F(-1, 5), b=F(-7999, 10000), p=0, q=0, j=0, k=0)
        with pytest.raises(IllConditioned):
            extract_leading_coeffs(spec)

    def test_grid_too_small(self):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        with pytest.raises(ValueError):
            extract_leading_coeffs(spec, SampleGrid(radii=(0.2, 0.1, 0.05)))


class TestVerifyConstant:
    def test_generic_report(self):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        report = verify_constant(spec)
        assert report.case is CaseTag.GENERIC
        assert report.relative_error <= 1e-2
        assert report.normalization_used == pytest.approx(0.5, abs=1e-3)

    def test_anti_report(self):
        spec = KernelSpec(a=F(-2, 5), b=F(-3, 10), p=1, q=1, j=0, k=0, chirality="anti")
        report = verify_constant(spec)
        assert report.relative_error <= 1e-3
        assert report.normalization_used == pytest.approx(0.5, abs=1e-3)

    def test_one_integer_report(self):
        spec = KernelSpec(a=F(0), b=F(-3, 10), p=0, q=0, j=1, k=0)
        report = verify_constant(spec)
        assert report.case is CaseTag.ONE_INTEGER_FACTOR
        assert report.relative_error <= 1e-3
        assert report.closed_form == pytest.approx(1.0204081633, abs=1e-6)

    def test_both_integer_report(self):
        spec = KernelSpec(a=F(0), b=F(0), p=0, q=0, j=1, k=1)
        report = verify_constant(spec)
        assert report.case is CaseTag.BOTH_INTEGER
        assert report.closed_form == pytest.approx(0.5)
        assert report.relative_error <= 1e-4
        assert report.normalization_used == pytest.approx(-2.0, abs=1e-3)

    def test_both_integer_without_pinned_value(self):
        spec = KernelSpec(a=F(0), b=F(0), p=0, q=0, j=2, k=1)
        with pytest.raises(ValueError):
            verify_constant(spec)

    def test_smooth_report(self):
        spec = KernelSpec(a=F(0), b=F(-1, 3), p=1, q=0, j=0, k=2)
        report = verify_constant(spec)
        assert report.case is CaseTag.SMOOTH
        assert report.closed_form == 0.0
        assert report.normalization_used is None
        # no singular content above the advertised floor
        assert report.relative_error < 1e-6

    def test_reports_are_deterministic(self):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        first = verify_constant(spec)
        second = verify_constant(spec)
        assert first.to_csv_row() == second.to_csv_row()
        dump1 = json.dumps(first.to_json_dict(), sort_keys=True)
        dump2 = json.dumps(second.to_json_dict(), sort_keys=True)
        assert dump1 == dump2

    def test_csv_row_shape(self):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        report = verify_constant(spec)
        header_fields = VerificationReport.csv_header().split(",")
        row_fields = report.to_csv_row().split(",")
        assert len(header_fields) == len(row_fields) == 13

