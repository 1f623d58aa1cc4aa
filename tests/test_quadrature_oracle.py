import ast
import collections
import functools
import importlib.util
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asymconv.quadrature_oracle as oracle
from asymconv.cli import _write_csv
from asymconv.convolution_engine import CaseTag, classify_case, kernel_leading_constant
from asymconv.expansion_algebra import Chirality, LogPolynomial, degree_rule
from asymconv.gamma_kernel import F_const, G_q
from asymconv.quadrature_oracle import (
    IllConditioned,
    KernelSpec,
    ToleranceNotMet,
    _disk_moments,
    _far_integral,
    _floats,
    _gl,
    _inner_moments,
    _kernel_samples,
    _mode_coefficients,
    _mode_jets,
    _radii,
    _readout,
    eval_kernel_integral,
    finite_part_direct,
    fit_radial_samples,
    scaled_lstsq,
    verify_constant,
)
from test_golden_reports import DATA, assert_csv_matches

F = Fraction
HOLO = Chirality.HOLO
ANTI = Chirality.ANTI


def entry_of(spec):
    """The spec's _inner_moments entry, keyed as eval_kernel_integral keys it."""
    return _inner_moments(*_floats(spec))


def far_series(af, bf, p, q, j, k, anti):
    """(powers, coefficients) of the far field's angular mode, as
    _inner_moments builds them."""
    mode = p - q if anti else p + q
    return _mode_coefficients(mode, j, _mode_jets(af, p, j, (mode,)))


def disk_moments(c, extra, n, order, radial_exp, logmax):
    """_disk_moments of the mode n of |1-z|^{2c} (1-z)^extra, with its own
    jets and float factorials."""
    factorials = [float(math.factorial(i)) for i in range(order + 1)]
    jets = _mode_jets(c, extra, order, (n,))
    return _disk_moments(n, order, radial_exp, logmax, jets, factorials)


def disk_tables(af, bf, p, q, j, k, anti):
    """[jp, kp]: the two disk series summed, as _inner_moments adds them."""
    patch0 = disk_moments(af, p, q if anti else -q, j, 2.0 * bf + q, k)
    return patch0 + disk_moments(bf, q, p if anti else -p, k, 2.0 * af + p, j).T


def collar_tables(af, bf, p, q, j, k, anti):
    """[level, jp, kp]: each level's collar, as _inner_moments builds them."""
    levels = oracle._LEVELS
    return np.array([oracle._collar(level, af, bf, p, q, j, k, anti) for level in levels])


def _sweep_grid():
    """The ROADMAP's 128-spec oracle sweep, as perfbench/generators.py builds it."""
    path = Path(__file__).parent.parent / "perfbench" / "generators.py"
    module_spec = importlib.util.spec_from_file_location("generators", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return [KernelSpec.from_json_dict(doc) for doc in module.sweep_grid()]


SWEEP = _sweep_grid()


def resonant_row(spec):
    """The far series' row whose power r equals c, or None, decided once on
    the spec's Fractions: row beta - max(0, -mode) holds r = 2 beta + mode,
    so r = c at beta = (c - mode)/2, a+b+1 (holo) or a+b+1+q (anti)."""
    c = 2 * (spec.a + spec.b + 1) + spec.p + spec.q
    mode = spec.p - spec.q if spec.chirality is ANTI else spec.p + spec.q
    beta = (c - mode) / 2
    if beta.denominator != 1 or beta < max(0, -mode):
        return None
    return int(beta) - max(0, -mode)


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

    @pytest.mark.parametrize(
        "field, value, error",
        [("a", -0.5, TypeError), ("a", "abc", ValueError), ("b", "-3/2", ValueError),
         ("p", 1.0, ValueError), ("chirality", "left", ValueError)],
    )
    def test_json_errors_are_the_constructors(self, field, value, error):
        # from_json_dict converts nothing itself: the constructor checks
        data = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=1, j=0, k=0).to_json_dict()
        data[field] = value
        with pytest.raises(error) as direct:
            KernelSpec(**data)
        with pytest.raises(error) as loaded:
            KernelSpec.from_json_dict(data)
        assert str(loaded.value) == str(direct.value)

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
    """The fixed sample radii of every kernel fit."""

    def test_default_grid(self):
        radii = _radii(KernelSpec(a=F(0), b=F(0), p=1, q=2, j=0, k=0))
        assert len(radii) == 16
        assert radii[0] == pytest.approx(0.2)
        assert all(r1 > r2 for r1, r2 in zip(radii, radii[1:]))

    def test_default_grid_drops_depth_for_high_degree(self):
        spec = KernelSpec(a=F(0), b=F(0), p=2, q=2, j=0, k=0)
        assert len(_radii(spec)) == 12


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

    def test_tolerance_not_met(self, monkeypatch):
        # a collar rule of 4 x 4 nodes misses the finer level by 5.8e-3,
        # far beyond the production tolerance; the levels are read when
        # the spec's entry is built
        monkeypatch.setattr(oracle, "_LEVELS", ({"g": 2, "ma": 4}, oracle._LEVELS[1]))
        spec = KernelSpec(a=F(-7, 10), b=F(-3, 5), p=1, q=1, j=2, k=1, chirality="anti")
        _inner_moments.cache_clear()
        try:
            with pytest.raises(ToleranceNotMet) as exc:
                eval_kernel_integral(spec, 0.21)
        finally:
            _inner_moments.cache_clear()
        assert exc.value.achieved > 1e-3

    @pytest.mark.parametrize("v0, v1", [(math.nan, math.nan), (1.0, math.nan),
                                        (math.inf, math.inf), (1.0, math.inf)])
    def test_refined_refuses_a_non_finite_level(self, v0, v1):
        # every comparison with NaN is False: the test is "not within"
        with pytest.raises(ToleranceNotMet):
            oracle._refined(v0, v1, 1.0, "x")

    def test_refined_scales_by_the_larger_of_value_and_floor(self):
        assert oracle._refined(1.0, 1.0 + 5e-7, 1e-3, "x") == 1.0 + 5e-7
        assert oracle._refined(1e-3, 1e-3 + 5e-7, 1.0, "x") == 1e-3 + 5e-7
        with pytest.raises(ToleranceNotMet):
            oracle._refined(1e-3, 1e-3 + 5e-7, 1e-3, "x")

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
        sig = np.array(_radii(spec))
        # the fit's columns: |s|^{2(a+b+1)} = |s|^-1.1 and |s|^0 .. |s|^8
        cols = [sig**-1.1] + [sig ** (2.0 * t) for t in range(5)]
        coeffs, _, _ = scaled_lstsq(np.column_stack(cols), _kernel_samples(spec))
        smooth = coeffs[1:]

        def smooth_at(sigma):
            return sum(c * sigma ** (2 * t) for t, c in enumerate(smooth))

        k1 = eval_kernel_integral(spec, 0.05).real - smooth_at(0.05)
        k2 = eval_kernel_integral(spec, 0.025).real - smooth_at(0.025)
        assert k2 / k1 == pytest.approx(2.0 ** 1.1, rel=1e-8)


class TestFarIntegral:
    """The closed-form far field against three references.

    At sigma >= 0.01 the reference averages the full far integrand over
    256 equispaced angles (spectrally exact here, since |s/u| <= 2/3 keeps
    it analytic) on a 24-node Gauss-Legendre rule over dyadic radial
    panels.  Its roundoff is eps times the integrand before the angular
    mean cancels it down to the one surviving mode, which grows with
    depth (6.2e-7 at sigma = 6.1e-6), so the deep radii compare with a
    radial Gauss-Legendre quadrature of the same mode series instead.
    The third is the per-sample formula that evaluated both ends of every
    power's antiderivative at each sigma, before the cache entry held
    their s-independent parts.  Measured on these cases: at most 2.4e-13
    relative against the angular mean, 4.5e-15 against the series
    quadrature and 1.2e-14 against the per-sample formula, under bounds of
    1e-11, 1e-13 and 1e-13.  Choosing the series branch by |E| alone
    instead of |E T| is off by orders of magnitude at sigma = 1e-30 on the
    E = 1/2 spec.
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
        # resonant: one power has E = c - r = 0 and no antiderivative
        KernelSpec(a=F(-1, 2), b=F(-1, 2), p=1, q=1, j=2, k=1),
        KernelSpec(a=F(-1, 2), b=F(-1, 2), p=2, q=1, j=2, k=1, chirality="anti"),
        # near resonance: E = 1/50, where the two ends cancel
        KernelSpec(a=F(-49, 100), b=F(-1, 2), p=1, q=1, j=2, k=1),
        # E = 1/2: |E| is small, yet |E log(3 sigma/2)| is not at depth
        KernelSpec(a=F(-1, 4), b=F(-1, 2), p=0, q=0, j=2, k=1),
    ]

    #: Both window powers, E = +-1, are near at sigma = 1/4 (T = log 0.375),
    #: which no grid radius reaches.
    BOTH_NEAR = KernelSpec(a=F(-1, 4), b=F(-1, 4), p=0, q=0, j=1, k=1)

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

    @staticmethod
    def per_sample_reference(spec, s):
        # both ends of _power_log_antiderivative at every sample, and the
        # series in log R where |E T| <= 1
        af, bf, p, q, j, k, anti = _floats(spec)
        sigma = abs(s)
        powers, coeffs = far_series(af, bf, p, q, j, k, anti)
        c = 2.0 * (af + bf + 1.0) + p + q
        E = c - powers
        T = math.log(1.5 * sigma)
        near = np.abs(E * T) <= 1.0
        E_exact = np.where(near, 1.0, E)
        t = np.arange(25)
        jets = E[near, None] ** t / np.cumprod(np.maximum(t, 1))
        with np.errstate(under="ignore"):
            top, bottom = sigma**powers, sigma**c * 1.5**E
        radial = oracle._power_log_antiderivative(E_exact, j + k, 0.0, top)
        radial -= oracle._power_log_antiderivative(E_exact, j + k, 2.0 * T, bottom)
        m = np.arange(j + k + 1)[:, None]
        ends = T ** (t + m + 1) / (t + m + 1)
        radial[:, near] = -(2.0**m) * top[near] * (ends @ jets.T)
        far = sum(
            math.perm(j, i) * coeffs[:, i] @ radial[j - i + k] for i in range(j + 1)
        )
        return complex((-1.0) ** p * (s / sigma) ** (p - q if anti else p + q) * far)

    @staticmethod
    def series_quadrature(spec, s):
        # the mode series summed at 16 Gauss-Legendre nodes per dyadic
        # radial panel: the radial integral the closed form replaces
        af, bf, p, q, j, k, anti = _floats(spec)
        n = p - q if anti else p + q
        sigma = abs(s)
        edges = [1.5 * sigma]
        while edges[-1] < 1.0:
            edges.append(min(1.0, edges[-1] * 2.0))
        nodes, wts = np.polynomial.legendre.leggauss(16)
        e0 = np.array(edges[:-1])[:, None]
        e1 = np.array(edges[1:])[:, None]
        R = (0.5 * (e1 - e0) * nodes + 0.5 * (e1 + e0)).ravel()
        W = (0.5 * (e1 - e0) * wts).ravel()
        powers, coeffs = far_series(af, bf, p, q, j, k, anti)
        with np.errstate(under="ignore"):
            modes = (sigma / R)[:, None] ** powers @ coeffs
        L = np.log(R * R)
        radial = sum(math.perm(j, i) * L ** (j - i) * modes[:, i] for i in range(j + 1))
        radial *= W * R ** (p + q + 2.0 * (af + bf) + 1.0) * L**k
        return (-1.0) ** p * (s / sigma) ** n * np.sum(radial)

    @pytest.mark.parametrize("sigma", [0.2, 0.05, 0.01])
    def test_matches_angular_mean(self, sigma):
        s = sigma * complex(math.cos(0.4), math.sin(0.4))
        for spec in self.SPECS:
            reference = self.brute_force(spec, s)
            value = _far_integral(entry_of(spec), s)
            assert abs(value - reference) <= 1e-11 * abs(reference), spec

    @pytest.mark.parametrize("sigma", [6.1e-6, 1e-30])
    def test_matches_series_quadrature_deep(self, sigma):
        s = sigma * complex(math.cos(0.4), math.sin(0.4))
        for spec in self.SPECS:
            reference = self.series_quadrature(spec, s)
            value = _far_integral(entry_of(spec), s)
            assert abs(value - reference) <= 1e-13 * abs(reference), spec

    def test_matches_per_sample_reference(self):
        # the grid radii, two deep ones, and sigma on both sides of each
        # switch |E T| = 1 between the near series and the two ends
        for spec in self.SPECS:
            entry = entry_of(spec)
            sigmas = [0.2 * 2.0**-i for i in range(16)] + [6.1e-6, 1e-30]
            E = entry.c - entry.powers
            for absE in np.abs(E[E != 0.0]):
                for f in (0.999999, 1.000001):
                    sigma = math.exp(-f / absE) / 1.5
                    if 0.0 < sigma <= 0.25:
                        sigmas.append(sigma)
            for sigma in sigmas:
                s = sigma * complex(math.cos(0.4), math.sin(0.4))
                reference = self.per_sample_reference(spec, s)
                value = _far_integral(entry, s)
                assert abs(value - reference) <= 1e-13 * abs(reference), (spec, sigma)

    @staticmethod
    def rebuilt_far_integral(entry, s):
        # the sample path that rebuilt the near powers' s-independent
        # pieces at every sample, from the entry's series fields alone
        sigma = abs(s)
        T = math.log(1.5 * sigma)
        rows = range(len(entry.powers))
        near = [r for r in rows if abs((entry.c - entry.powers[r]) * T) <= 1.0]

        def horner(coeffs, x):
            return functools.reduce(lambda acc, coeff: acc * x + coeff, reversed(coeffs), 0.0)

        with np.errstate(under="ignore"):
            top = sigma**entry.powers
        if not near:
            far = entry.smooth @ top - sigma**entry.c * horner(entry.ends_total, 2.0 * T)
        else:
            rest = np.ones(len(top), dtype=bool)
            rest[near] = False
            far = entry.smooth[rest] @ top[rest]
            far -= sigma**entry.c * horner(entry.ends[rest].sum(0), 2.0 * T)
            t = np.arange(25)
            E = entry.c - entry.powers[near, None]
            jets = E**t / np.cumprod(np.maximum(t, 1))
            m = np.arange(len(entry.ends_total))[:, None]
            ends = T ** (t + m + 1) / (t + m + 1)
            radial = -(2.0**m) * top[near] * (ends @ jets.T)
            far += np.sum(entry.weights[near].T * radial)
        return complex((s / sigma) ** entry.mode * far)

    @staticmethod
    def switch_sigmas(entry):
        # sigma on both sides of each switch |E T| = 1 between the near
        # series and the two ends
        E = entry.c - entry.powers
        for absE in np.abs(E[E != 0.0]):
            for f in (0.999999, 1.000001):
                sigma = math.exp(-f / absE) / 1.5
                if 0.0 < sigma <= 0.25:
                    yield sigma

    def test_bit_for_bit_the_rebuilt_near_series(self):
        # the cached near tables change no bit of a sample: the grid
        # radii, both sides of each switch, two deep radii, and the two
        # near powers of BOTH_NEAR at sigma = 1/4
        cases = [(spec, sigma) for spec in self.SPECS for sigma in itertools.chain(
            _radii(spec), [6.1e-6, 1e-30], self.switch_sigmas(entry_of(spec)))]
        assert [E for _, E in entry_of(self.BOTH_NEAR).window] == [1.0, -1.0]
        cases.append((self.BOTH_NEAR, 0.25))
        for spec, sigma in cases:
            entry = entry_of(spec)
            s = sigma * complex(math.cos(0.4), math.sin(0.4))
            assert _far_integral(entry, s) == self.rebuilt_far_integral(entry, s), (spec, sigma)

    @pytest.mark.parametrize("source", ["far", "golden"])
    def test_every_near_set_has_its_table(self, source):
        # every set of near powers that some 0 < sigma <= 1/4 selects, by
        # the sample's rule over all rows, is a key of the entry
        if source == "far":
            specs = self.SPECS + [self.BOTH_NEAR]
        else:
            raw = json.loads((DATA / "golden_specs.json").read_text())
            specs = [KernelSpec.from_json_dict(doc) for doc in raw]
        for spec in specs:
            entry = entry_of(spec)
            sigmas = np.concatenate([
                np.geomspace(1e-300, 0.25, 20001), list(self.switch_sigmas(entry)), [0.25]])
            T = np.log(1.5 * sigmas)
            near = np.abs((entry.c - entry.powers)[:, None] * T) <= 1.0  # [r, sigma]
            ever = np.flatnonzero(near.any(axis=1))
            for column in np.unique(near[ever], axis=1).T:
                rows = tuple(ever[column].tolist())
                if rows:
                    assert entry.near[rows].index.tolist() == list(rows), (spec, rows)

    def test_exact_resonance_leaves_the_ends_finite(self):
        # E = c - r = 0 at r = 2: the cache never divides by it
        spec = KernelSpec(a=F(-1, 2), b=F(-1, 2), p=1, q=1, j=2, k=1)
        entry = entry_of(spec)
        resonant = entry.c - entry.powers == 0.0
        assert np.count_nonzero(resonant) == 1
        assert np.isfinite(entry.smooth).all() and np.isfinite(entry.ends).all()
        assert not entry.smooth[resonant].any() and not entry.ends[resonant].any()


class TestDiskMoments:
    """The disk series against a brute-force polar quadrature.

    The reference sums 160 dyadic radial panels toward 0 (24 Gauss-Legendre
    nodes each, down to 2^-161) times 64 equispaced angles, which is
    spectrally exact here since |z| <= 1/2 keeps the smooth factor
    analytic.  Measured on these cases: at most 6.7e-16 of the table's
    largest entry; 1e-14 leaves a margin of fifteen.
    """

    # (c, extra, n, order, radial_exp, logmax), as _inner_moments builds them
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
        value = disk_moments(*case)
        assert value.shape == reference.shape
        assert np.abs(value - reference).max() <= 1e-14 * np.abs(reference).max()


class TestCollar:
    """Each level's collar against the dense complex quadrature it replaced.

    The reference evaluates |1-v|^{2a} (1-v)^p (Log|1-v|^2)^jp |v|^{2b}
    (v^q or vbar^q) (Log|v|^2)^kp at every node of the same rule, with
    complex powers and logs, and sums it against the node weights in one
    contraction; the same contraction over the integrand's absolute value
    is the unsigned integral.  A collar that cancels to roundoff (holo
    kernels at natural a and b) has no signed scale, so the bound is
    relative to the unsigned integral: at most 4.6e-16 measured over 225
    specs of both chiralities with p+q <= 22, j, k <= 3 and natural or
    fractional a and b; 1e-13 leaves a margin of two hundred.
    """

    @staticmethod
    def dense_collar(af, bf, p, q, j, k, anti):
        """[level, jp, kp] of the signed and of the unsigned collar integral."""
        signed, unsigned = [], []
        for cfg in oracle._LEVELS:
            nodes, wts = np.polynomial.legendre.leggauss(2 * cfg["g"])
            anodes, awts = np.polynomial.legendre.leggauss(
                max(cfg["ma"], cfg["ma"] * (p + q) // 16)
            )
            level = np.zeros((2, j + 1, k + 1), dtype=complex)
            for lo, hi, from_low in ((0.5, 1.0, True), (1.0, 1.5, False)):
                span = math.sqrt(hi - lo)
                xi = 0.5 * span * (nodes + 1.0)
                rho = lo + xi**2 if from_low else hi - xi**2
                wrad = 2.0 * xi * (0.5 * span * wts) * rho
                cosphi = np.clip((rho**2 + 0.75) / (2.0 * rho), -1.0, 1.0)
                half = math.pi - np.arccos(cosphi)
                theta = math.pi + np.outer(half, anodes)
                weight = np.outer(half, awts) / (2.0 * math.pi) * wrad[:, None]
                v = rho[:, None] * np.exp(1j * theta)
                f1 = np.abs(1.0 - v) ** (2.0 * af) * (1.0 - v) ** p
                l1 = np.log(np.abs(1.0 - v) ** 2)
                vq = np.conj(v) ** q if anti else v**q
                base = f1 * (np.abs(v) ** (2.0 * bf) * vq)
                l2 = np.log(np.abs(v) ** 2)
                for jp, kp in itertools.product(range(j + 1), range(k + 1)):
                    vals = base * l1**jp * l2**kp
                    level[:, jp, kp] += np.sum(vals * weight), np.sum(np.abs(vals) * weight)
            signed.append(level[0])
            unsigned.append(level[1].real)
        return np.array(signed), np.array(unsigned)

    # (a, b, p, q, j, k, anti), as _inner_moments takes them
    CASES = [
        (-1 / 3, -1 / 4, 0, 0, 0, 0, False),
        (-0.4, -0.35, 1, 1, 3, 3, False),
        (-0.4, -0.35, 1, 1, 2, 1, True),
        (1 / 3, -0.2, 3, 2, 1, 1, True),
        # natural a and b: the holo collar is pure roundoff
        (0.0, 0.0, 2, 2, 0, 0, False),
        (1.0, 1.0, 2, 2, 1, 1, False),
        (1.0, 2.0, 2, 1, 1, 2, True),
        # past the angular growth at p + q >= 17
        (-1 / 3, -0.2, 9, 8, 1, 1, False),
        (-1 / 3, -0.2, 0, 20, 0, 0, False),
        (-0.25, 0.5, 12, 10, 3, 3, True),
        # finite-part kernels with b + q/2 <= -1
        (-1 / 3, -3.5, 0, 4, 0, 0, False),
        (1.0, -2.6, 0, 2, 0, 0, False),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_dense_quadrature(self, case):
        collars = collar_tables(*case)
        signed, unsigned = self.dense_collar(*case)
        assert collars.shape == signed.shape
        assert np.all(np.abs(collars - signed) <= 1e-13 * unsigned)

    def test_geometry_built_once_per_rule(self):
        # every spec with p + q <= 16 shares the two levels' rules
        oracle._collar_geometry.cache_clear()
        for case in self.CASES[:7]:
            collar_tables(*case)
            assert oracle._collar_geometry.cache_info().misses == len(oracle._LEVELS)
        for level in oracle._LEVELS:
            for arr in oracle._collar_geometry(2 * level["g"], level["ma"]):
                with pytest.raises(ValueError):
                    arr.flat[0] = 0
        assert oracle._collar_geometry.cache_info().misses == len(oracle._LEVELS)


def list_pochhammer_jets(c, count, order):
    """The row-by-row list recurrence that _pochhammer_jets replaced."""
    jet = [1.0] + [0.0] * order
    rows = [jet]
    for m in range(count - 1):
        shifted = [0.0] + jet[:-1]  # e times the jet
        jet = [((m - c) * x - y) / (m + 1) for x, y in zip(jet, shifted)]
        rows.append(jet)
    return np.array(rows)


class TestPochhammerJets:
    @pytest.mark.parametrize("c", [0.0, 1.0, 2.0, -1 / 3, -2 / 3, 1 / 4, 1.7])
    def test_bit_identical_to_the_list_recurrence(self, c):
        for order, count in itertools.product(range(4), range(80, 85)):
            jets = oracle._pochhammer_jets(c, count, order)
            reference = list_pochhammer_jets(c, count, order)
            assert jets.shape == (count, order + 1)
            assert np.array_equal(jets, reference)
            assert np.array_equal(np.signbit(jets), np.signbit(reference))
            if c == int(c):
                # the factor (c - c - e) leaves no e^0 part from row c + 1 on
                assert np.all(jets[int(c) + 1 :, 0] == 0.0)


class TestFinitePartDirect:
    def test_matches_closed_form(self):
        cases = (
            (F(-3, 5), F(-7, 10), 0, 3.9557027648),
            (F(-3, 5), F(-7, 10), 2, 1.2964067885),
            (F(-3, 10), F(-9, 20), 1, -0.4238958116),
            (F(1, 3), F(-1, 5), 3, None),
            # high degree: 1.2e-12, 4.5e-12 and 2.9e-11 relative measured,
            # the collar's roundoff on |v|^q, which grows like 1.5^q
            (F(-1, 3), F(-1, 5), 12, None),
            (F(-1, 3), F(-1, 5), 16, None),
            (F(-1, 3), F(-1, 5), 24, None),
        )
        for a, b, q, frozen in cases:
            direct = finite_part_direct(a, b, q)
            closed = G_q(a, b, q)
            assert direct == pytest.approx(closed, rel=1e-10)
            if frozen is not None:
                assert direct == pytest.approx(frozen, abs=1e-9)

    @pytest.mark.parametrize("q", [36, 40, 48])
    def test_high_degree_agrees(self, q):
        # the angular rule grows with q; 3.9e-9, 5.1e-9 and 3.8e-7 measured
        direct = finite_part_direct(F(-1, 3), F(-1, 5), q)
        assert direct == pytest.approx(G_q(F(-1, 3), F(-1, 5), q), rel=1e-6)

    def test_high_degree_refuses(self):
        # the two collar levels disagree by 3.2 relative: a typed refusal,
        # never a confident wrong number
        with pytest.raises(ToleranceNotMet) as exc:
            finite_part_direct(F(-1, 3), F(-1, 5), 64)
        assert exc.value.achieved > 1e-6

    def test_integer_a_vanishes(self):
        assert abs(finite_part_direct(1, F(-13, 5), 2)) < 1e-10

    @pytest.mark.parametrize(
        "a, b, q",
        [(F(-4999, 10000), F(-1, 2), 0), (F(-2499, 5000), F(-1, 2), 1)],
        ids=["-0.4999--0.5-0", "-0.4998--0.5-1"],
    )
    def test_near_resonance_keeps_every_row(self, a, b, q):
        # the leading far-field power sits at E = 2e-4 and 4e-4: below 1/745,
        # where a kernel sample never reads its ends, but the finite part
        # does; 2.5e-15 and 1.6e-15 relative measured
        direct = finite_part_direct(a, b, q)
        assert direct == pytest.approx(G_q(a, b, q), rel=1e-12)

    def test_is_the_formula_it_replaced_bit_for_bit(self):
        # the reference is the formula the readout's slot 0 replaced,
        # inner[level][0].real - ends_total[0], through the same _refined;
        # a refusal must be the same refusal
        values = sorted({F(n, d) for d in (2, 3, 4, 5, 7) for n in range(1 - d, d)})
        points = 0
        for a, b in itertools.product(values, repeat=2):
            for q in range(4):
                if (a + b + 1).denominator == 1:
                    continue
                entry = _inner_moments(float(a), float(b), 0, q, 0, 0, False)
                outer = entry.ends_total[0]
                v0, v1 = (inner[0].real - outer for inner in entry.inner)
                gross = max(g[0] for g in entry.gross) + abs(outer)
                try:
                    expected = oracle._refined(v0, v1, 1e-3 * gross, "the finite part at q=%d" % q)
                except ToleranceNotMet as exc:
                    expected = str(exc)
                try:
                    direct = finite_part_direct(a, b, q)
                except ToleranceNotMet as exc:
                    direct = str(exc)
                assert type(direct) is type(expected), (a, b, q)
                assert direct == expected, (a, b, q)
                if isinstance(direct, float):
                    assert math.copysign(1.0, direct) == math.copysign(1.0, expected)
                points += 1
        assert points > 3000

    def test_resonant_is_domain_error(self):
        with pytest.raises(ValueError):
            finite_part_direct(F(-1, 2), F(-1, 2), 0)
        with pytest.raises(TypeError):
            # no float path decides resonance: a float is refused first
            finite_part_direct(-0.5, -0.5, 0)
        with pytest.raises(ValueError):
            finite_part_direct(F(-1, 4), F(-3, 4), 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            finite_part_direct(F(-3, 10), F(-2, 5), -1)
        with pytest.raises(ValueError):
            finite_part_direct(F(-6, 5), F(-2, 5), 0)
        with pytest.raises(ValueError):
            finite_part_direct(F(-3, 10), F(-7, 5), 0)


class TestSpecCache:
    """_inner_moments computes every series of a spec once."""

    @pytest.mark.parametrize("depth", [16, 12])
    def test_series_built_once_per_spec(self, monkeypatch, depth):
        # p + q >= 4 samples twelve radii, p + q < 4 sixteen
        # two disk series and one far-field series, however many radii
        calls = []
        original = oracle._mode_coefficients

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_mode_coefficients", counted)
        _inner_moments.cache_clear()
        pq = {16: 1, 12: 2}[depth]
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=pq, q=pq, j=1, k=0)
        assert len(_radii(spec)) == depth
        verify_constant(spec)
        _inner_moments.cache_clear()
        assert len(calls) == 3

    def test_overflowing_collar_is_refused_before_any_table(self, monkeypatch):
        # at a = -1/3, q = 0 the collar's largest (5/2)^(2a+p) passes the
        # largest double between p = 775 and 776, and at b = -1/4, p = 0
        # its (3/2)^(2b+q) between q = 1751 and 1752: the refusal comes
        # before the mode jets or the collar geometry are asked for
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(oracle, "_collar_geometry", reached)
        for p, q in ((775, 0), (0, 1751)):
            with pytest.raises(Reached):
                _inner_moments(-1 / 3, -0.25, p, q, 0, 0, False)
        monkeypatch.setattr(oracle, "_mode_jets", reached)
        for p, q, anti in ((776, 0, False), (800, 0, False), (0, 1752, False), (800, 3, True)):
            with pytest.raises(ValueError, match="beyond float range"):
                _inner_moments(-1 / 3, -0.25, p, q, 0, 0, anti)

    @pytest.mark.parametrize("j, k", [(171, 0), (0, 171), (100, 71), (10**9, 0)])
    def test_log_degree_beyond_float_factorial_is_refused_first(self, monkeypatch, j, k):
        # (j+k)! is the largest integer the tables read and 171! is beyond
        # float range: the refusal comes before any recurrence or collar,
        # at once even at j = 10^9; j + k = 170 goes on to the jets
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(oracle, "_pochhammer_jets", reached)
        monkeypatch.setattr(oracle, "_collar_geometry", reached)
        with pytest.raises(ValueError, match=r"j\+k = %d needs \(j\+k\)!, beyond float range$"
                           % (j + k)):
            _inner_moments(-1 / 3, -0.25, 1, 1, j, k, False)
        with pytest.raises(Reached):
            _inner_moments(-1 / 3, -0.25, 1, 1, 170, 0, False)

    @pytest.mark.parametrize("j, k, anti", [(21, 0, False), (0, 21, True), (12, 13, False),
                                            (25, 25, True), (50, 49, False), (99, 0, False),
                                            (120, 0, False)])
    def test_tables_stay_float_past_int64_factorials(self, j, k, anti):
        # 21! passes int64: an integer list handed to numpy as it is became
        # an object array, and the build an untyped UFuncTypeError; below
        # the overflow that test_overflowing_build_is_refused pins, every
        # entry is finite
        entry = _inner_moments(-1 / 3, -0.25, 1, 1, j, k, anti)
        assert entry.window, "the near series must be built too"
        series = list(entry.near.values())
        arrays = [x for x in [*entry, *itertools.chain(*series)] if isinstance(x, np.ndarray)]
        assert arrays and all(arr.dtype != object for arr in arrays)
        values = [entry.powers, entry.weights, entry.smooth, entry.ends, entry.near_scale]
        values += [arr for s in series for arr in (s.smooth, s.ends_total, s.jets, s.weights)]
        assert all(arr.dtype in (np.float64, np.complex128) for arr in values)
        assert all(np.isfinite(arr).all() for arr in values)
        assert np.isfinite([entry.inner, entry.gross]).all() and np.isfinite(entry.ends_total).all()
        assert all(type(x) is complex for row in entry.inner for x in row)
        assert all(type(x) is float for row in entry.gross for x in row)
        _inner_moments.cache_clear()

    @pytest.mark.parametrize("j, k", [(100, 70), (85, 85), (170, 0), (0, 170)])
    def test_overflowing_build_is_refused(self, j, k):
        # (j+k)! / E^(j+k) and its neighbours leave float range: one
        # ValueError naming j+k, never a NaN entry or a numpy warning
        # (filterwarnings makes one an error)
        with pytest.raises(ValueError, match=r"^the build at log degree j\+k = 170 left float "
                                             r"range: (overflow|invalid value) encountered in "):
            _inner_moments(-1 / 3, -0.25, 1, 1, j, k, False)

    def test_near_jets_divide_by_the_true_factorials(self):
        # E^t / t! to t = 24: an int64 product of 1..t wraps from 21! on,
        # to -4.2e18 at t = 21
        for spec in (KernelSpec(a=F(-1, 3), b=F(-1, 4), p=1, q=1, j=0, k=0), *SWEEP[:16]):
            entry = entry_of(spec)
            for series in entry.near.values():
                for E, jets in zip(entry.c - entry.powers[series.index], series.jets):
                    expected = [E**t / math.factorial(t) for t in range(oracle._NEAR_TERMS)]
                    assert np.allclose(jets, expected, rtol=1e-15, atol=0.0), spec

    def test_pochhammer_jets_built_once_per_factor(self, monkeypatch):
        # the far series and the disk |v| <= 1/2 share the jets of a + p
        # and a; the disk |v - 1| <= 1/2 reads those of b + q and b
        calls = []
        original = oracle._pochhammer_jets

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_pochhammer_jets", counted)
        _inner_moments.cache_clear()
        verify_constant(KernelSpec(a=F(-1, 3), b=F(-1, 4), p=1, q=1, j=1, k=0))
        _inner_moments.cache_clear()
        assert len(calls) == 4

    @pytest.mark.parametrize("depth", [16, 12])
    def test_one_sample_per_radius(self, monkeypatch, depth):
        # perfbench divides the oracle sweep's time by these calls, and its
        # tracer wraps eval_kernel_integral by its module-global name
        calls = []
        original = oracle.eval_kernel_integral

        def counted(spec, s, *args, **kwargs):
            calls.append(s)
            return original(spec, s, *args, **kwargs)

        monkeypatch.setattr(oracle, "eval_kernel_integral", counted)
        _inner_moments.cache_clear()
        pq = {16: 1, 12: 2}[depth]
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=pq, q=pq, j=1, k=0)
        verify_constant(spec)
        _inner_moments.cache_clear()
        assert calls == [0.2 * 2.0**-i for i in range(depth)]

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
        # each level's inner polynomial is the binomial shift of the disks
        # plus that level's collar, bit for bit
        _inner_moments.cache_clear()
        inner = entry_of(spec).inner
        disks, collars = disk_tables(*_floats(spec)), collar_tables(*_floats(spec))
        j, k = spec.j, spec.k
        assert len(inner) == len(collars) == 2
        for cached, collar in zip(inner, collars):
            table = disks + collar
            expected = [0j] * (j + k + 1)
            for jp, kp in itertools.product(range(j + 1), range(k + 1)):
                comb = math.comb(j, jp) * math.comb(k, kp)
                expected[j - jp + k - kp] += comb * table[jp, kp]
            assert list(cached) == expected

    def test_finite_part_reads_its_kernel_entry(self, monkeypatch):
        # one build of the tables serves the finite part and the kernel
        # (a, b, 0, q, 0, 0) it is the log-free slot of: one collar per level
        calls = []
        original = oracle._collar

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_collar", counted)
        _inner_moments.cache_clear()
        value = finite_part_direct(F(-1, 3), F(-1, 5), 2)
        eval_kernel_integral(KernelSpec(a=F(-1, 3), b=F(-1, 5), p=0, q=2, j=0, k=0), 0.1)
        _inner_moments.cache_clear()
        assert type(value) is float
        assert len(calls) == len(oracle._LEVELS)

    def test_shared_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            _gl(12)[0][0] = 0.0
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=1, q=1, j=1, k=0)
        entry = entry_of(spec)
        arrays = [v for v in entry if isinstance(v, np.ndarray)]
        arrays += [v for series in entry.near.values() for v in series]
        # seven series arrays, and the six of the one near set (r = 0, E = 5/6)
        assert list(entry.near) == [(0,)]
        assert len(arrays) == 13
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(TypeError):
            entry.near[(1,)] = entry.near[(0,)]


def test_oracle_takes_no_closed_form_from_gamma_kernel():
    # the referee takes nothing from the closed forms it checks
    import asymconv.quadrature_oracle as oracle

    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gamma_kernel"):
            taken.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            assert not any(name.endswith("gamma_kernel") for name in names), names
    assert not taken, taken


class TestReadout:
    """The kernel's constants read from its own cache entry by exact
    algebra (level 1), with no sample and no fit."""

    @staticmethod
    def leading_error(spec):
        P = _readout(entry_of(spec), 1, resonant_row(spec))
        _, base, norm = kernel_leading_constant(
            spec.p, spec.q, spec.a, spec.b, spec.j, spec.k, spec.chirality
        )
        L = degree_rule(spec.a, spec.b, spec.j, spec.k)
        return abs(P[L].real - base * norm) / abs(base * norm)

    def test_resonant_row_is_the_entry_zero_row(self):
        # the row decided on Fractions is the one whose float power is c
        rows = 0
        for spec in SWEEP:
            entry, row = entry_of(spec), resonant_row(spec)
            assert np.flatnonzero(entry.powers == entry.c).tolist() == ([] if row is None else [row])
            rows += row is not None
        assert rows > 0

    def test_sweep_leading_slot_is_the_closed_form(self):
        # 128 of 128 agree, worst 2.6e-12; the fit passes 100 of them
        assert len(SWEEP) == 128
        worst = max(self.leading_error(spec) for spec in SWEEP)
        assert worst <= 1e-10

    @pytest.mark.parametrize(
        "a, b, j, k",
        [(F(1, 7), F(8, 9), 0, 0), (F(1), F(1, 3), 1, 0), (F(1), F(1), 1, 1)],
    )
    def test_anti_p_q_1_kernels_agree(self, a, b, j, k):
        # Generic, OneIntegerFactor and BothInteger; the fit reads relative
        # errors of 1035, 192 and 995 on them (7.9e-13, 2.5e-12, 1.9e-11 here)
        assert self.leading_error(KernelSpec(a=a, b=b, p=1, q=1, j=j, k=k, chirality=ANTI)) <= 1e-10

    def test_reproduces_the_kernel_samples(self):
        # sigma^c P(l) + sum_r smooth[r] sigma^r against eval_kernel_integral,
        # worst 2.5e-15 relative over the sweep
        for spec in SWEEP:
            entry = entry_of(spec)
            P = _readout(entry, 1, resonant_row(spec))
            for sigma in (0.2, 0.2 * 2.0**-7, 0.2 * 2.0**-15):
                value = eval_kernel_integral(spec, sigma)
                ell = math.log(sigma * sigma)
                model = sigma**entry.c * np.polynomial.polynomial.polyval(ell, P)
                model += entry.smooth @ sigma**entry.powers
                assert abs(model - value) <= 1e-13 * abs(value), (spec, sigma)

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(a=F(1), b=F(-1, 3), p=0, q=1, j=0, k=1),
            KernelSpec(a=F(2), b=F(-1, 2), p=2, q=1, j=0, k=2, chirality=ANTI),
        ],
    )
    def test_smooth_kernels_read_no_singular_slot(self, spec):
        # natural a and no log of s - u: no singular content (worst 1.5e-13)
        assert classify_case(spec.a, spec.b, spec.j, spec.k) is CaseTag.SMOOTH
        P = _readout(entry_of(spec), 1, resonant_row(spec))
        assert np.abs(P).max() <= 1e-12


class TestFitRadialSamples:
    """fit_radial_samples on the kernel's own samples."""

    def test_generic_fit(self):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        singular, cond = fit_radial_samples(spec, _kernel_samples(spec))
        closed = F_const(0, 0, F(-1, 3), F(-1, 4), HOLO) * 0.5
        lead = singular.coefficient(0).real
        assert lead == pytest.approx(closed, rel=1e-8)
        assert lead == pytest.approx(-0.3535351606, abs=1e-6)
        assert classify_case(spec.a, spec.b, spec.j, spec.k) is CaseTag.GENERIC
        assert cond < 1e8

    def test_resonant_fit_has_explicit_log_column(self):
        spec = KernelSpec(a=F(-1, 2), b=F(-1, 2), p=0, q=0, j=0, k=0)
        singular, _ = fit_radial_samples(spec, _kernel_samples(spec))
        assert classify_case(spec.a, spec.b, spec.j, spec.k) is CaseTag.RESONANT
        assert singular.degree == 1
        assert singular.coefficient(1).real == pytest.approx(-0.5, abs=1e-3)
        # the log-free singular slot is not separable from the smooth part
        assert singular.coefficient(0) == 0.0

    def test_near_resonance_is_ill_conditioned(self):
        spec = KernelSpec(a=F(-1, 5), b=F(-7999, 10000), p=0, q=0, j=0, k=0)
        with pytest.raises(IllConditioned):
            fit_radial_samples(spec, _kernel_samples(spec))

    def test_grid_too_small(self):
        # anti (3, 2) samples twelve radii; j = k = 1 needs three singular
        # columns next to eight smooth ones, and two radii to spare
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=3, q=2, j=1, k=1, chirality="anti")
        with pytest.raises(ValueError, match="grid has 12 radii"):
            verify_constant(spec)


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
        assert report.normalization_used == pytest.approx(0.5, abs=1e-3)

    def test_both_integer_without_pinned_value(self):
        # log degrees other than j = k = 1 have no exact rational of their
        # own; C * jk/(j+k-1) agrees with the fit (1.5e-11 at worst measured)
        for a, b, p, q, j, k, chirality in (
            (0, 0, 0, 0, 2, 1, "holo"),
            (0, 0, 0, 0, 1, 2, "holo"),
            (0, 0, 0, 0, 2, 2, "holo"),
            (0, 0, 0, 0, 3, 1, "holo"),
            (0, 0, 0, 1, 2, 1, "anti"),
        ):
            spec = KernelSpec(
                a=F(a), b=F(b), p=p, q=q, j=j, k=k, chirality=chirality
            )
            report = verify_constant(spec)
            assert report.case is CaseTag.BOTH_INTEGER
            assert report.relative_error <= 1e-8

    def test_smooth_report(self):
        spec = KernelSpec(a=F(0), b=F(-1, 3), p=1, q=0, j=0, k=2)
        report = verify_constant(spec)
        assert report.case is CaseTag.SMOOTH
        assert report.closed_form == 0.0
        assert report.normalization_used is None
        # no singular content above the advertised floor
        assert report.relative_error < 1e-6

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec(a=F(0), b=F(-2, 3), p=0, q=1, j=0, k=0),
            KernelSpec(a=F(1), b=F(-1, 2), p=1, q=2, j=0, k=1),
        ],
    )
    def test_natural_a_smooth_agrees(self, spec):
        # at natural a the disks and the collar cancel to roundoff, so the
        # refinement is judged against their unsigned sum, not the table;
        # 3.7e-15 and 8.0e-16 measured
        report = verify_constant(spec)
        assert report.case is CaseTag.SMOOTH
        assert report.relative_error < 1e-12

    def test_kernel_slice_corner_is_never_confidently_wrong(self):
        # The corner of the kernel slice, a <= -1 or b <= -1 with a + p/2 and
        # b + q/2 still > -1.  A scan that let the fit read it got 141 of
        # 2484 specs wrong, all anti with p + q >= 4, by up to 3e8; two of
        # them lead this grid, then the Baseline spec.  Each spec must be
        # refused or agree within 1e-2.
        named = [(F(-5, 4), F(-1, 3), 3, 3), (F(-5, 4), F(1, 3), 2, 2), (F(-3, 2), F(-1, 2), 2, 1)]
        grid = [(a, b, p, q) for a, b in itertools.product((F(-5, 4), F(-1, 3)), repeat=2)
                for p, q in ((2, 1), (2, 2), (3, 3)) if min(a, b) <= -1]
        for (a, b, p, q), chirality in itertools.product(named + grid, (ANTI, HOLO)):
            spec = KernelSpec(a=a, b=b, p=p, q=q, j=0, k=0, chirality=chirality)
            try:
                report = verify_constant(spec)
            except (ValueError, ToleranceNotMet, IllConditioned):
                continue
            assert report.relative_error <= 1e-2, spec

    def test_every_outcome_is_typed(self):
        # a seeded draw over the admissible domain, log degrees past 20!
        # (the largest factorial in int64) included: each spec agrees or is
        # refused with one of the three reasons verify lists as a failure
        rng = random.Random(35)
        values = sorted({F(n, d) for d in range(1, 8) for n in range(-d + 1, 3 * d + 1)})
        degrees = (0, 1, 2, 5, 20, 21, 25)
        outcomes = collections.Counter()
        while sum(outcomes.values()) < 250:
            try:
                spec = KernelSpec(a=rng.choice(values), b=rng.choice(values),
                                  p=rng.randint(0, 6), q=rng.randint(0, 6),
                                  j=rng.choice(degrees), k=rng.choice(degrees),
                                  chirality=rng.choice((HOLO, ANTI)))
            except ValueError:  # outside the kernel slice
                continue
            try:
                verify_constant(spec)
                outcomes["report"] += 1
            except (ToleranceNotMet, IllConditioned, ValueError) as exc:
                outcomes[type(exc).__name__] += 1
        assert outcomes["report"] > 0 and outcomes["ValueError"] > 0

    def test_fits_once_through_its_own_module_name(self, monkeypatch):
        # the measurement stage: one fit per spec, looked up in
        # quadrature_oracle, where perfbench's tracer wraps it
        calls = []
        original = oracle.fit_radial_samples

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "fit_radial_samples", counted)
        verify_constant(KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0))
        assert len(calls) == 1

    def test_report_stage_runs_no_fit(self, monkeypatch):
        # compare_with_closed_form only judges what it is handed
        def no_fit(*args):
            raise AssertionError("the report stage fitted")

        monkeypatch.setattr(oracle, "fit_radial_samples", no_fit)
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        measured = (LogPolynomial.of_coeffs([-0.3]), 7.0)
        report = oracle.compare_with_closed_form(spec, measured, CaseTag.GENERIC, -0.25, 0.5)
        assert report.fitted_coeffs == measured[0]
        assert report.condition_number == 7.0
        assert report.relative_error == pytest.approx(0.2)
        assert report.normalization_used == pytest.approx(0.6)
        smooth = oracle.compare_with_closed_form(spec, measured, CaseTag.SMOOTH, -0.25, 0.5)
        assert (smooth.closed_form, smooth.normalization_used) == (0.0, None)
        assert smooth.relative_error == pytest.approx(0.3)

    def test_reports_are_deterministic(self):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        first = verify_constant(spec)
        second = verify_constant(spec)
        dump1 = json.dumps(first.to_json_dict(), sort_keys=True)
        dump2 = json.dumps(second.to_json_dict(), sort_keys=True)
        assert dump1 == dump2

    def test_csv_row_shape(self, tmp_path):
        spec = KernelSpec(a=F(-1, 3), b=F(-1, 4), p=0, q=0, j=0, k=0)
        report = verify_constant(spec)
        # nothing fitted reads fitted_leading 0; a null normalization, empty
        empty = report._replace(fitted_coeffs=LogPolynomial.zero(), normalization_used=None)
        path = tmp_path / "reports.csv"
        _write_csv(str(path), [report, empty])
        header, *rows = path.read_text().splitlines()
        assert header == (
            "a,b,p,q,j,k,chirality,case,fitted_leading,closed_form,"
            "relative_error,condition_number,normalization_used"
        )
        assert [len(row.split(",")) for row in rows] == [13, 13]
        assert_csv_matches(path.read_text(), [report.to_json_dict(), empty.to_json_dict()])
        fields = rows[1].split(",")
        assert (fields[8], fields[12]) == ("0", "")
        # a run where every spec fails writes the header alone
        _write_csv(str(path), [])
        assert path.read_text() == header + "\n"

