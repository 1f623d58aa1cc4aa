import ast
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asymconv.quadrature_oracle as oracle
from asymconv.convolution_engine import CaseTag
from asymconv.expansion_algebra import Chirality
from asymconv.gamma_kernel import F_const, G_q
from asymconv.quadrature_oracle import (
    IllConditioned,
    KernelSpec,
    SampleGrid,
    ToleranceNotMet,
    VerificationReport,
    _disk_moments,
    _far_integral,
    _floats,
    _gl,
    _inner_moments,
    _inner_table,
    default_grid,
    eval_kernel_integral,
    extract_leading_coeffs,
    finite_part_direct,
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
        # the conjugate family rotates with e^{i(p-q)phi}: the phases cancel
        # exactly for p = q, and (1, 2) rotates the negative mode -1
        for p, q in ((1, 1), (1, 2)):
            spec = KernelSpec(a=F(-2, 5), b=F(-7, 20), p=p, q=q, j=0, k=0, chirality="anti")
            base = eval_kernel_integral(spec, 0.1)
            rotated = eval_kernel_integral(spec, 0.1 * complex(math.cos(0.7), math.sin(0.7)))
            phase = complex(math.cos((p - q) * 0.7), math.sin((p - q) * 0.7))
            assert abs(rotated - phase * base) <= 1e-9 * abs(base)

    def test_far_field_has_no_roundoff_floor(self):
        # the value is ~1e-13 here; an integrand summed before its angular
        # mean cancels carries an eps floor that the two levels disagree on
        spec = KernelSpec(a=F(-1, 2), b=F(-1, 2), p=3, q=2, j=2, k=1)
        eval_kernel_integral(spec, 1e-3)

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


class TestFarIntegral:
    """The one-mode series against a brute-force angular mean.

    The reference averages the full far integrand over 256 equispaced
    angles (spectrally exact here, since |s/u| <= 2/3 keeps it analytic)
    on its own 24-node Gauss-Legendre rule over the same dyadic radial
    panels.  Its roundoff is eps times the integrand before the angular
    mean cancels it down to the one surviving mode.  Measured on these
    cases: at most 2.4e-13 relative at level 1, and 1.2e-12 at level 0,
    whose 12-node radial rule is the coarser one; rel 1e-11 leaves a
    margin of eight.
    """

    SPECS = [
        KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0),
        KernelSpec(a=F(-2, 5), b=F(-7, 20), p=1, q=1, j=2, k=1),
        KernelSpec(a=F(-2, 5), b=F(-7, 20), p=1, q=1, j=1, k=1, chirality="anti"),
        # negative mode n = p - q = -1
        KernelSpec(a=F(-1, 3), b=F(-1, 4), p=1, q=2, j=2, k=0, chirality="anti"),
        KernelSpec(a=F(0), b=F(-3, 10), p=0, q=1, j=1, k=1, chirality="anti"),
        # natural a: the log powers come only from the a-derivatives
        KernelSpec(a=F(1), b=F(-1, 3), p=1, q=1, j=2, k=1),
    ]

    @staticmethod
    def brute_force(spec, s):
        a, b = float(spec.a), float(spec.b)
        nodes, wts = np.polynomial.legendre.leggauss(24)
        theta = np.arange(256) * (2.0 * math.pi / 256)
        edges = [1.5 * abs(s)]
        while edges[-1] < 1.0:
            edges.append(min(1.0, 2.0 * edges[-1]))
        total = 0j
        for e0, e1 in zip(edges[:-1], edges[1:]):
            r = 0.5 * (e1 - e0) * nodes + 0.5 * (e1 + e0)
            u = r[:, None] * np.exp(1j * theta)[None, :]
            d = s - u
            second = np.conj(u) ** spec.q if spec.chirality is ANTI else u**spec.q
            f = (
                np.abs(d) ** (2 * a) * d**spec.p * np.log(np.abs(d) ** 2) ** spec.j
                * np.abs(u) ** (2 * b) * second * np.log(np.abs(u) ** 2) ** spec.k
            )
            total += np.sum(0.5 * (e1 - e0) * wts * r * f.mean(axis=1))
        return total

    @pytest.mark.parametrize("sigma", [0.2, 0.05, 0.01])
    def test_matches_angular_mean(self, sigma):
        s = sigma * complex(math.cos(0.4), math.sin(0.4))
        for spec in self.SPECS:
            reference = self.brute_force(spec, s)
            for level in (0, 1):
                value = _far_integral(spec, s, level)
                assert abs(value - reference) <= 1e-11 * abs(reference), (spec, level)


class TestDiskMoments:
    """The disk series against a brute-force polar quadrature.

    The reference sums 160 dyadic radial panels toward 0 (24 Gauss-Legendre
    nodes each, down to 2^-161) times 64 equispaced angles, which is
    spectrally exact here since |z| <= 1/2 keeps the smooth factor
    analytic.  Measured on these cases: at most 6.7e-16 of the table's
    largest entry; 1e-14 leaves a margin of fifteen.
    """

    # (c, extra, n, order, radial_exp, logmax), as _inner_table calls it
    CASES = [
        (-1 / 3, 0, 0, 0, -0.5, 0),
        # holo patch0 of a=-2/5, b=-7/20, (1,1): the negative mode -q
        (-0.4, 1, -1, 2, 0.3, 1),
        # anti patch0 of the same kernel: mode +q
        (-0.4, 1, 1, 1, 0.3, 1),
        # holo patch1: mode -p, the logs of |1-v| in the radial slot
        (-0.35, 1, -1, 1, 0.2, 2),
        # natural a = 0 and a = 1: log powers from the a-derivatives only
        (0.0, 1, -1, 2, 0.3, 1),
        (1.0, 1, -2, 2, -2 / 3, 1),
        # a < -1, integrable through a + p/2 > -1
        (-1.5, 3, 2, 1, -0.2, 1),
    ]

    @staticmethod
    def brute_force(c, extra, n, order, radial_exp, logmax):
        nodes, wts = np.polynomial.legendre.leggauss(24)
        theta = np.arange(64) * (2.0 * math.pi / 64)
        out = np.zeros((order + 1, logmax + 1), dtype=complex)
        hi = 0.5
        for _ in range(160):
            lo = hi / 2.0
            r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * wts * r ** (radial_exp + 1.0)
            z = r[:, None] * np.exp(1j * theta)[None, :]
            base = np.abs(1.0 - z) ** (2.0 * c) * (1.0 - z) ** extra
            base = base * np.exp(-1j * n * theta)
            lg = np.log(np.abs(1.0 - z) ** 2)
            for i in range(order + 1):
                ang = (base * lg**i).mean(axis=1)
                for l in range(logmax + 1):
                    out[i, l] += np.sum(w * np.log(r * r) ** l * ang)
            hi = lo
        return out

    @pytest.mark.parametrize("case", CASES)
    def test_matches_polar_quadrature(self, case):
        reference = self.brute_force(*case)
        value = _disk_moments(*case)
        assert value.shape == reference.shape
        assert np.abs(value - reference).max() <= 1e-14 * np.abs(reference).max()


class TestFinitePartDirect:
    def test_matches_closed_form(self):
        cases = (
            (-0.6, -0.7, 0, 3.9557027648),
            (-0.6, -0.7, 2, 1.2964067885),
            (-0.3, -0.45, 1, -0.4238958116),
            (F(1, 3), F(-1, 5), 3, None),
            # high degree: 1.2e-12, 4.5e-12 and 3.0e-11 relative measured,
            # a loss that grows with q (source not confirmed)
            (F(-1, 3), F(-1, 5), 12, None),
            (F(-1, 3), F(-1, 5), 16, None),
            (F(-1, 3), F(-1, 5), 24, None),
        )
        for a, b, q, frozen in cases:
            direct = finite_part_direct(a, b, q)
            closed = G_q(a, b, q).value
            assert direct == pytest.approx(closed, rel=1e-10)
            if frozen is not None:
                assert direct == pytest.approx(frozen, abs=1e-9)

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


class TestSpecCache:
    """_inner_moments computes every series of a spec once."""

    @pytest.mark.parametrize("depth", [16, 12])
    def test_series_built_once_per_spec(self, monkeypatch, depth):
        # two disk series and one far-field series, however many radii
        calls = []
        original = oracle._mode_coefficients

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_mode_coefficients", counted)
        _inner_moments.cache_clear()
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=1, q=1, j=1, k=0)
        grid = SampleGrid(radii=tuple(0.2 * 2.0**-i for i in range(depth)))
        verify_constant(spec, grid)
        _inner_moments.cache_clear()
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0),
            KernelSpec(a=F(-2, 5), b=F(-7, 20), p=1, q=1, j=1, k=1),
            KernelSpec(a=F(-2, 5), b=F(-7, 20), p=1, q=1, j=1, k=1, chirality="anti"),
            KernelSpec(a=F(0), b=F(-3, 10), p=0, q=1, j=1, k=1, chirality="anti"),
            KernelSpec(a=F(0), b=F(-1, 3), p=1, q=0, j=1, k=0),
        ],
    )
    def test_cached_tables_are_the_inner_table(self, spec):
        # the kernel and finite_part_direct share one body, bit for bit
        _inner_moments.cache_clear()
        tables = _inner_moments(spec).tables
        for level in (0, 1):
            assert np.array_equal(tables[level], _inner_table(*_floats(spec), level))

    def test_shared_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            _gl(12)[0][0] = 0.0
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=1, q=1, j=1, k=0)
        entry = _inner_moments(spec)
        for arr in (entry.powers, entry.coeffs) + entry.tables:
            with pytest.raises(ValueError):
                arr[0] = 0


def test_oracle_takes_no_closed_form_from_gamma_kernel():
    # the referee may share the chirality type and the exact-or-float
    # split with the closed forms it checks, and nothing else
    import asymconv.quadrature_oracle as oracle

    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gamma_kernel"):
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            assert not any(name.endswith("gamma_kernel") for name in names), names
    assert taken <= {"Chirality", "RealInput", "_split"}, taken


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

