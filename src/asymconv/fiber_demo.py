"""End-to-end demonstration on monomial germs.

A one-variable germ x -> x^N with a radial cutoff density has a fiber
integral that can be written in closed form as a finite sum over the
N-th roots of the base point.  Convolving two such fiber integrals over
the plane and filtering the smooth powers out of its small-radius samples
gives a fully independent, geometry-first check of the convolution
engine's predicted exponent, log degree and leading constant.

The plane convolution splits into the pure-power part, exactly the
singular kernel the quadrature oracle integrates, and a cutoff remainder
that is smooth in the sample point and only shifts the smooth powers the
filter removes.  Both are sampled only at the seven radii the filter reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

from .convolution_engine import convolve_terms
from .expansion_algebra import CaseTag, LogPolynomial, SingularTerm, _exact_int
from .expansion_algebra import _natural_sum, classify_case
from .quadrature_oracle import (
    _SMOOTH_CUTOFF,
    KernelSpec,
    VerificationReport,
    _gl,
    _refined,
    _refuse_near_smooth_power,
    compare_with_closed_form,
    eval_kernel_integral,
)

# The demo makes no fit; the name stays bound here only because
# perfbench/tracing.py wraps fiber_demo.fit_radial_samples.
from .quadrature_oracle import fit_radial_samples  # noqa: F401

__all__ = [
    "MonomialGerm",
    "bump_profile",
    "monomial_fiber_integral",
    "thom_sebastiani_demo",
    "measure_singular_exponent",
]

#: Inner radius below which the cutoff remainder vanishes identically;
#: germs must keep their plateaus wide enough to clear it (validated).
_SAFE_RADIUS = 0.35

#: The sample radii sigma_i = 0.2 * 2^-i, i = 9..15.  On this geometric grid
#: a smooth power sigma^{2t} is a geometric sequence in i, and so is the
#: singular term A sigma^{2x}, with ratio lambda = 4^-x.  The filter below
#: has six taps, so seven radii make exactly the two deepest windows: the
#: readout takes the deepest (sigma_10..sigma_15), the exponent both.
_GRID = tuple(0.2 * 2.0**-i for i in range(9, 16))

#: The ratios mu_t = 4^-t of the smooth powers t = 0.._SMOOTH_CUTOFF, the
#: powers the gap rule _refuse_near_smooth_power guards.  The filter
#: P(E) = prod_t (E - mu_t), E the shift i -> i + 1, removes each of them
#: exactly (Richardson's deferred approach to the limit) and leaves
#: A sigma^{2x} as A sigma_i^{2x} P(lambda).
_RATIOS = tuple(4.0**-t for t in range(_SMOOTH_CUTOFF + 1))

#: P's coefficients from the top, the order np.convolve needs.
_TAPS = np.poly(_RATIOS)


class _MonomialGermFields(NamedTuple):
    exponent: int
    plateau: float = 0.9
    support: float = 1.0


class MonomialGerm(_MonomialGermFields):
    """Monomial germ x -> x^exponent with a radial cutoff density.

    The density is 1 on |x| <= plateau, 0 on |x| >= support, and a
    quintic smoothstep in between.
    """

    __slots__ = ()

    def __new__(cls, exponent: int, plateau: float = 0.9, support: float = 1.0) -> "MonomialGerm":
        _exact_int("exponent", exponent, 1)
        if not (0.0 < plateau < support <= 1.0):
            raise ValueError("need 0 < plateau < support <= 1")
        return tuple.__new__(cls, (exponent, plateau, support))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs the checks


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def bump_profile(germ: MonomialGerm, radius):
    """Cutoff density value at |x| = radius (scalar or array)."""
    r = np.asarray(radius, dtype=float)
    t = (r - germ.plateau) / (germ.support - germ.plateau)
    out = 1.0 - _smoothstep(t)
    if out.ndim == 0:
        return float(out)
    return out


def monomial_fiber_integral(germ: MonomialGerm, s: complex) -> float:
    """Fiber integral of the germ at s != 0.

    The fiber of x -> x^N over s is the set of N-th roots of s; the
    integral is the sum of the density over the roots weighted by
    1/(N^2 |x|^{2(N-1)}).  All roots share the modulus |s|^{1/N} and the
    density is radial, so the sum collapses to a single closed form
    with leading behavior |s|^{2(1/N - 1)} / N for small |s|.
    """
    s = complex(s)
    if s == 0:
        raise ValueError("the fiber integral is singular at s = 0")
    n = germ.exponent
    root_mod = abs(s) ** (1.0 / n)
    return bump_profile(germ, root_mod) * root_mod ** (2 - 2 * n) / n


def _leading_term(r: Fraction) -> SingularTerm:
    # a germ of exponent N has the leading fiber term |s|^{2r} / N, r = 1/N - 1
    return SingularTerm(r=r, m=0, n=0, poly=LogPolynomial.of_coeffs([float(r + 1)]))


def _demo_setup(g1: MonomialGerm, g2: MonomialGerm) -> KernelSpec:
    """The pure-power kernel of the two leading fiber terms, a = 1/N - 1
    and b = 1/M - 1, once the germs clear the safety radius: the first
    germ's plateau^N around every sample point of _GRID."""
    if g1.plateau ** g1.exponent - max(_GRID) < _SAFE_RADIUS:
        raise ValueError(
            "first germ's plateau^N leaves no room around the sample point; "
            "widen the plateau or lower the exponent"
        )
    if g2.plateau ** g2.exponent < _SAFE_RADIUS:
        raise ValueError(
            "second germ's plateau^M is narrower than the inner safety radius"
        )
    return KernelSpec(a=Fraction(1, g1.exponent) - 1, b=Fraction(1, g2.exponent) - 1,
                      p=0, q=0, j=0, k=0)


def _cutoff_remainder(
    g1: MonomialGerm,
    g2: MonomialGerm,
    af: float,
    bf: float,
    sigma: float,
    level: int,
) -> float:
    """Integral of (density product - unit-disk indicator) times the pure
    powers, over the annulus where the difference lives.

    The integrand vanishes identically for |u| below the safety radius
    (both cutoffs sit on their plateaus there), so the domain avoids
    both singular points.  The first cutoff's smoothstep joints trace
    circles around the sample point; the angular integral is split at
    the angles where each radius ring crosses them, so every panel sees
    a smooth integrand and Gauss-Legendre converges spectrally.

    The integrand is evaluated only on live (ring, panel) pairs: a panel
    narrower than 1e-14 (an absent crossing) and a ring inside both
    plateaus would add exactly +0.0, so they are skipped.  The live panel
    sums are added into their rings in panel order (np.bincount), and the
    radial sum runs over every ring in a fixed order, so the value is
    bit-identical to evaluating every node.
    """
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
    # tangency radii where a ring grazes the first cutoff's joint circles;
    # the ring average has a fractional-power kink there
    for thresh in (t1, t2):
        joints.add(thresh - sigma)
        joints.add(thresh + sigma)
    edges = np.array(sorted(x for x in joints if _SAFE_RADIUS <= x <= 1.0))
    lo, hi = edges[:-1], edges[1:]
    keep = hi - lo >= 1e-14
    lo, hi = lo[keep], hi[keep]
    rad_nodes, rad_wts = _gl(g_rad)
    ang_nodes, ang_wts = _gl(g_ang)

    # radial nodes, one row per panel, flattened to one entry per ring
    half = (0.5 * (hi - lo))[:, None]
    rho_grid = half * rad_nodes + (0.5 * (hi + lo))[:, None]
    rad_w = half * rad_wts
    rho = rho_grid.ravel()

    # angular breaks over [0, pi] (the integrand is even in the angle):
    # 0, pi and the angles where each ring crosses a joint circle; an
    # absent crossing repeats pi and so leaves an empty panel
    cols = [np.zeros_like(rho), np.full_like(rho, math.pi)]
    for thresh in (t1, t2):
        arg = (sigma * sigma + rho * rho - thresh * thresh) / (2.0 * sigma * rho)
        crossing = np.arccos(np.clip(arg, -1.0, 1.0))
        cols.append(np.where(np.abs(arg) < 1.0, crossing, math.pi))
    breaks = np.sort(np.column_stack(cols), axis=1)
    alo, ahi = breaks[:, :-1], breaks[:, 1:]

    # a ring whose every point lies strictly inside both plateaus reads
    # beta1 = beta2 = 1.0 exactly and adds +0.0; the 1e-9 margin keeps the
    # test clear of the roundoff in dist2 and in the fractional powers
    inside = (rho + sigma <= t1 * (1.0 - 1e-9)) & (
        rho <= g2.plateau ** n2 * (1.0 - 1e-9)
    )
    ring_of, panel_of = np.nonzero((ahi - alo >= 1e-14) & ~inside[:, None])

    # one row per live (ring, panel) pair, one column per angular node
    plo, phi, prho = alo[ring_of, panel_of], ahi[ring_of, panel_of], rho[ring_of]
    ahalf = (0.5 * (phi - plo))[:, None]
    theta = ahalf * ang_nodes + (0.5 * (phi + plo))[:, None]
    w = ahalf * ang_wts
    dist2 = (sigma * sigma + prho * prho)[:, None] - (
        2.0 * sigma * prho
    )[:, None] * np.cos(theta)
    beta1 = bump_profile(g1, dist2 ** (0.5 / n1))
    beta2 = bump_profile(g2, prho ** (1.0 / n2))
    live = np.sum(w * (beta1 * beta2[:, None] - 1.0) * dist2 ** af, axis=-1)
    ring = np.bincount(ring_of, live, minlength=len(rho)) / math.pi * rho ** (2.0 * bf)
    return float(np.sum(rad_w * rho_grid * ring.reshape(rho_grid.shape)))


def _demo_samples(g1: MonomialGerm, g2: MonomialGerm, spec: KernelSpec) -> list:
    """One kernel sample plus the finer of two remainder levels per radius of _GRID."""
    af, bf = float(spec.a), float(spec.b)
    scale = 1.0 / (g1.exponent * g2.exponent)
    out = []
    for sigma in _GRID:
        base = eval_kernel_integral(spec, sigma).real
        c0 = _cutoff_remainder(g1, g2, af, bf, sigma, 0)
        c1 = _cutoff_remainder(g1, g2, af, bf, sigma, 1)
        c1 = _refined(c0, c1, abs(base), "the cutoff remainder at sigma=%.3e" % sigma)
        out.append(scale * (base + c1))
    return out


def _windows(values) -> np.ndarray:
    """W_i = sum_k c_k y_(i+k), i = 0, 1 on the grid, for sum_k c_k z^k = P(z)."""
    return np.convolve(values, _TAPS, "valid")


def _filter_readout(spec: KernelSpec, values) -> Tuple[LogPolynomial, float]:
    """The singular coefficients read off the deepest window, and the
    condition number: how much the readout amplifies a relative error in
    the samples, from the taps, lambda and the grid alone."""
    resonant, xf = _natural_sum(spec.a, spec.b) is not None, float(spec.a + spec.b + 1)
    lam, sig = 4.0**-xf, np.array(_GRID)
    column = np.abs(sig ** (2.0 * xf) * (np.log(sig**2) if resonant else 1.0))
    # A sigma^{2x} leaves A sigma_i^{2x} P(lambda) in the window from sigma_i,
    # the deepest one's first radius, sigma_10.  At resonance (x natural, so
    # x <= 1 and lambda is a ratio) the filter removes it, and
    # A_1 sigma^{2x} Log sigma^2 leaves -log 4 lambda A_1 sigma_i^{2x} P'(lambda):
    # the readout is [0, A_1].
    first = sig[-1 - len(_RATIOS)]
    response = first ** (2.0 * xf) * math.prod(lam - mu for mu in _RATIOS if mu != lam)
    if resonant:
        response *= -math.log(4.0) * lam
    # the filter with its taps made positive, on the column's magnitudes
    spread = np.convolve(column, np.abs(_TAPS), "valid")[-1]
    coeff = float(_windows(values)[-1]) / response
    coeffs = [0.0, coeff] if resonant else [coeff]
    return LogPolynomial.of_coeffs(coeffs), float(spread / abs(response))


def thom_sebastiani_demo(g1: MonomialGerm, g2: MonomialGerm) -> VerificationReport:
    """Convolve the two fiber integrals numerically and compare the
    filtered leading coefficient against the engine's predicted term.

    The report's spec field records the effective kernel exponents
    a = 1/N - 1 and b = 1/M - 1 of the two leading fiber terms.  An
    exponent near a smooth power is refused before any sample is taken.
    """
    spec = _demo_setup(g1, g2)
    _refuse_near_smooth_power(spec)

    result = convolve_terms(_leading_term(spec.a), _leading_term(spec.b))
    measured = _filter_readout(spec, _demo_samples(g1, g2, spec))
    return compare_with_closed_form(
        spec, measured, result.case, result.leading_coeff.real, result.normalization
    )


def measure_singular_exponent(g1: MonomialGerm, g2: MonomialGerm) -> float:
    """Measure the singular exponent x from samples alone: the filtered
    windows go as (4^-x)^i, so x is -log_4 of the ratio of the two deepest.

    Raises ``ValueError`` for a Smooth pair (N = 1 or M = 1), which has no
    singular exponent, for a resonant one (x natural, where the power
    degenerates into a log), and when the two windows differ in sign.
    """
    spec = _demo_setup(g1, g2)
    if classify_case(spec.a, spec.b, 0, 0) is CaseTag.SMOOTH:
        raise ValueError(
            "a germ of exponent 1 makes the pair Smooth; "
            "there is no singular exponent to measure"
        )
    if _natural_sum(spec.a, spec.b) is not None:
        raise ValueError(
            "combined exponent a+b+1 is a natural number: a resonance, "
            "where the power degenerates into a log"
        )
    before, last = _windows(_demo_samples(g1, g2, spec))
    if not before * last > 0.0:
        raise ValueError(
            "the two deepest filtered windows, %.3e and %.3e, differ in sign"
            % (before, last)
        )
    return -math.log(last / before, 4.0)
