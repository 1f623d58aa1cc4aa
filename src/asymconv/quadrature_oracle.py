"""Quadrature oracle for the convolution kernel constants.

Evaluates the model kernel

    K(s) = (1/2pi) iint_{|u| <= 1}  |s-u|^{2a} (s-u)^p (Log|s-u|^2)^j
                                  * |u|^{2b} (u^q or ubar^q) (Log|u|^2)^k  dx dy

by singular-aware quadrature, fits its small-|s| expansion on one fixed
geometric radius grid (_radii), and compares the fitted leading singular
coefficient against the closed-form Gamma-factor constants.  The
measurement (the kernel samples, finite parts and fit) is independent of
those closed forms: nothing in it is taken from gamma_kernel.  Only the
report stage, compare_with_closed_form, reads the closed form, through
convolution_engine.kernel_leading_constant.

Region scheme for K(s): inside |u| <= 3|s|/2 the substitution u = s*v
removes all s-dependence except an exact prefactor and binomial log
shifts.  Outside the collar (the annulus 1/2 <= |v| <= 3/2 less the disk
|v - 1| < 1/2), every angular mean is one explicit power series: the one
Fourier mode of |1-w|^{2a} (1-w)^p that survives, with its own
Pochhammer recurrence (_mode_coefficients).  Each power of it integrates
exactly in the radius, over the two disks |v| <= 1/2 and |v - 1| <= 1/2
(_power_log_antiderivative) and over the far annulus 3|s|/2 <= |u| <= 1
(the ends that _inner_moments builds from the same antiderivative).
The collar, which touches |v| = 1 where no such series converges
geometrically, is the only quadrature, at two refinement levels; kernel
samples, finite parts and the fiber demo's cutoff remainders all pass
one two-level test (_refined) or raise ToleranceNotMet.  Each level's
rule and every spec-independent table on it (e^{i theta}, 1 - v and its
Log|1 - v|^2) are built once and shared (_collar_geometry); a kernel
adds only its a-power and its monomial phases.  Every series of a kernel
is computed once in its _inner_moments cache entry, which kernel samples
and finite parts only read: a sample computes only what depends on s, the
powers of |s| and, where a power is near (|E log(3|s|/2)| <= 1), the
powers of log(3|s|/2) its series in log R reads.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import types
from fractions import Fraction
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .convolution_engine import kernel_leading_constant
from .expansion_algebra import (
    CaseTag,
    Chirality,
    LogPolynomial,
    RationalInput,
    _check_slice,
    _exact_int,
    _float,
    _format_float,
    _natural_sum,
    as_fraction,
    degree_rule,
    in_slice,
)


class ToleranceNotMet(RuntimeError):
    """Two-level refinement disagreed by more than the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class IllConditioned(RuntimeError):
    """The singular power cannot be told from a smooth one at the sample
    radii, by the fit's columns or by the fiber demo's filter."""


class _KernelSpecFields(NamedTuple):
    a: Fraction
    b: Fraction
    p: int
    q: int
    j: int
    k: int
    chirality: Chirality = Chirality.HOLO


class KernelSpec(_KernelSpecFields):
    """Exact description of one convolution kernel.

    Exponents are stored as Fractions so that case classification is
    exact; pass "p/q" strings or Fractions, not floats.  ``chirality``
    says whether the second factor enters as u^q (holo) or ubar^q
    (anti); with q = 0 it is normalized to holo.
    """

    __slots__ = ()

    def __new__(
        cls, a: RationalInput, b: RationalInput, p: int, q: int, j: int, k: int,
        chirality: Chirality = Chirality.HOLO,
    ) -> "KernelSpec":
        a = as_fraction(a)
        _float("a", a)
        b = as_fraction(b)
        _float("b", b)
        chirality = _check_slice(p, q, a, b, chirality)[2]
        _exact_int("j", j)
        _exact_int("k", k)
        return tuple.__new__(cls, (a, b, p, q, j, k, chirality if q else Chirality.HOLO))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace runs the checks

    def to_json_dict(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "p": self.p,
            "q": self.q,
            "j": self.j,
            "k": self.k,
            "chirality": self.chirality.value,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "KernelSpec":
        # __new__ converts and checks every field
        fields = {name: data[name] for name in ("a", "b", "p", "q", "j", "k")}
        return KernelSpec(**fields, chirality=data.get("chirality", "holo"))


#: Refinement tolerance of every kernel sample, finite part and cutoff
#: remainder, read by _refined alone.
_SAMPLE_TOLERANCE = 1e-6


def _radii(spec: KernelSpec) -> Tuple[float, ...]:
    """The sample radii: sixteen geometric radii 0.2 * 2^0 .. 0.2 * 2^-15.

    For total monomial degree p + q >= 4 the deepest radii are dropped.
    On the oracle sweep of ROADMAP.md, all sixteen radii turn seven of the
    eight anti (3, 2) specs that the shorter grid refuses (too few radii
    for the model) into wrong constants: their deep samples carry almost
    no singular signal.
    """
    depth = 12 if spec.p + spec.q >= 4 else 16
    return tuple(0.2 * 2.0**-i for i in range(depth))


# ---------------------------------------------------------------------------
# low-level quadrature pieces


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The arrays, made read-only: cached tables are shared by every caller."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def _gl(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared package-wide."""
    return _frozen(*np.polynomial.legendre.leggauss(n))


# ---------------------------------------------------------------------------
# kernel evaluation


_LEVELS = (
    {"g": 12, "ma": 48},
    {"g": 16, "ma": 72},
)


def _floats(spec: KernelSpec) -> Tuple[float, float, int, int, int, int, bool]:
    """The spec's _inner_moments key (a, b, p, q, j, k, anti), a and b as floats."""
    a, b, anti = float(spec.a), float(spec.b), spec.chirality is Chirality.ANTI
    return a, b, spec.p, spec.q, spec.j, spec.k, anti


#: Terms of every angular series.  Each power is integrated exactly in the
#: radius, so outside the collar the truncation is the only error.  The
#: variable is at most 2/3 (far field) or 1/2 (inner disks), and the
#: coefficients grow at most polynomially, so the dropped tail is of order
#: (4/9)^80 < 1e-28 of the leading term; 40 terms already reach roundoff.
_SERIES_TERMS = 80


def _pochhammer_jets(c: float, count: int, order: int) -> np.ndarray:
    """Rows m < count: Taylor coefficients in e of (-c-e)_m / m!, to e^order.

    Each row follows from the last through the factor (m - c - e)/(m + 1):
    the e^l entry is ((m - c) x - prev) / (m + 1), x its last value and prev
    that of e^(l-1) (0 for e^0), so a vanishing factor at natural c keeps
    its e-part exactly.  Column l needs only columns l and l - 1, so each
    column is one scalar loop over m.
    """
    prev = [0.0] * count
    columns = []
    for l in range(order + 1):
        x = 1.0 if l == 0 else 0.0
        column = [x]
        for m in range(count - 1):
            x = ((m - c) * x - prev[m]) / (m + 1)
            column.append(x)
        columns.append(column)
        prev = column
    return np.array(columns).T


def _mode_jets(c: float, extra: int, order: int, modes: Sequence[int]) -> tuple:
    """_mode_coefficients' jets of c + extra and c, long enough for ``modes``."""
    first = _pochhammer_jets(c + extra, _SERIES_TERMS + max(*modes, 0), order)
    return first, _pochhammer_jets(c, _SERIES_TERMS - min(*modes, 0), order)


def _mode_coefficients(n: int, order: int, jets: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Angular mode n of |1-w|^{2c} (1-w)^extra as a power series in |w|.

    Returns (powers, coefficients): row beta - max(0, -n) holds the power
    2 beta + n (as a float) and the Taylor coefficients in e, to e^order, of
    [(-c-e-extra)_(beta+n)/(beta+n)!] [(-c-e)_beta/beta!], the coefficient
    of w^(beta+n) wbar^beta once (1-w)^(c+extra) (1-wbar)^c is multiplied
    out.  The mean of e^{-i n arg w} |1-w|^{2c} (1-w)^extra (Log|1-w|^2)^i
    is therefore i! times column i summed against |w|^powers.  ``jets`` are
    the _mode_jets of c + extra and c, which two modes of one kernel share.
    """
    b0 = max(0, -n)
    first = jets[0][b0 + n : b0 + n + _SERIES_TERMS]
    second = jets[1][b0 : b0 + _SERIES_TERMS]
    out = np.zeros((_SERIES_TERMS, order + 1))
    for i in range(order + 1):
        for l in range(i + 1):
            out[:, i] += first[:, l] * second[:, i - l]
    return 2.0 * np.arange(b0, b0 + _SERIES_TERMS) + n, out


def _power_log_antiderivative(E, mmax: int, L: float, x_pow) -> np.ndarray:
    """Rows m = 0..mmax: X^E sum_l m!/(m-l)! (-2)^l (Log X^2)^(m-l) / E^(l+1),
    the antiderivative of R^(E-1) (Log R^2)^m at R = X for E != 0, given
    L = Log X^2 and x_pow = X^E (times any factor the caller folds in).
    """
    P = [E ** (l + 1) for l in range(mmax + 1)]
    rows = [
        sum(math.perm(m, l) * (-2.0) ** l * L ** (m - l) / P[l] for l in range(m + 1))
        for m in range(mmax + 1)
    ]
    return np.array(rows) * x_pow


def _disk_moments(
    n: int, order: int, radial_exp: float, logmax: int, jets: tuple, factorials: Sequence[float]
) -> np.ndarray:
    """Moments over the disk |z| <= 1/2 from the mode series of ``jets``, i! in ``factorials``.

    T[i, r] = (1/2pi) iint rho^radial_exp (Log rho^2)^r e^{-i n theta}
    |1-z|^{2c} (1-z)^extra (Log|1-z|^2)^i dx dy for i <= order, r <= logmax.
    Every power of the series integrates exactly: rho^{E-1} (Log rho^2)^r
    from 0 to 1/2, with E = radial_exp + 2 + 2 beta + n > 0 for every
    integrable case, is _power_log_antiderivative at X = 1/2.
    """
    powers, coeffs = _mode_coefficients(n, order, jets)
    E = radial_exp + 2.0 + powers
    radial = _power_log_antiderivative(E, logmax, math.log(0.25), 0.5**E)
    return (coeffs * factorials[: order + 1]).T @ radial.T


class _CollarGeometry(NamedTuple):
    """One collar rule's spec-independent tables, rings of both halves stacked."""

    rho: np.ndarray  # [ring]: |v|
    wrad: np.ndarray  # [ring]: radial weight, the area jacobian rho included
    l2: np.ndarray  # [ring]: Log rho^2
    wang: np.ndarray  # [ring, node]: angular weight over 2pi
    e: np.ndarray  # [ring, node]: e^{i theta}
    z: np.ndarray  # [ring, node]: 1 - v
    l1: np.ndarray  # [ring, node]: Log|z|^2


@functools.lru_cache(maxsize=8)
def _collar_geometry(radial: int, angular: int) -> _CollarGeometry:
    """The collar 1/2 <= |v| <= 3/2 less the disk |v - 1| < 1/2, shared by
    every spec whose rule has ``radial`` and ``angular`` nodes.

    rho = end +/- xi^2 removes the sqrt corners where the excluded disk
    meets the annulus; each ring's angles cover theta = pi -/+ half.
    """
    nodes, wts = _gl(radial)
    anodes, awts = _gl(angular)
    rho, wrad = [], []
    for lo, hi, from_low in ((0.5, 1.0, True), (1.0, 1.5, False)):
        span = math.sqrt(hi - lo)
        xi = 0.5 * span * (nodes + 1.0)
        ring = lo + xi**2 if from_low else hi - xi**2
        rho.append(ring)
        wrad.append(2.0 * xi * (0.5 * span * wts) * ring)
    rho, wrad = np.concatenate(rho), np.concatenate(wrad)
    cosphi = np.clip((rho**2 + 0.75) / (2.0 * rho), -1.0, 1.0)
    half = math.pi - np.arccos(cosphi)
    e = np.exp(1j * (math.pi + np.outer(half, anodes)))
    z = 1.0 - rho[:, None] * e
    return _CollarGeometry(*_frozen(
        rho, wrad, np.log(rho**2), np.outer(half, awts) / (2.0 * math.pi),
        e, z, np.log(np.abs(z) ** 2),
    ))


def _times_power(acc: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """acc * x^n for an integer n >= 0, by squaring: numpy's complex ``**``
    takes its slow generic pow for every integer exponent but 2."""
    while n:
        if n & 1:
            acc = acc * x
        n >>= 1
        if n:
            x = x * x
    return acc


def _collar(
    level: dict, af: float, bf: float, p: int, q: int, j: int, k: int, anti: bool
) -> np.ndarray:
    """[jp, kp]: the collar integral of |z|^{2a} z^p (Log|z|^2)^jp
    * |v|^{2b} (v^q or vbar^q) (Log|v|^2)^kp against (1/2pi) dx dy, z = 1 - v,
    on one of _LEVELS, whose angular rule grows with the top mode p + q.

    Only the a-power and the monomial phases are per node; rho^(2b+q) and
    Log rho^2 meet the angular sums ring by ring.
    """
    g = _collar_geometry(2 * level["g"], max(level["ma"], level["ma"] * (p + q) // 16))
    node = _times_power(np.exp(af * g.l1) * g.wang, g.z, p)
    node = _times_power(node, g.e.conj() if anti else g.e, q)
    angular = [node.sum(axis=1)]
    for _ in range(j):
        node = node * g.l1
        angular.append(node.sum(axis=1))
    radial = [g.rho ** (2.0 * bf + q) * g.wrad]
    for _ in range(k):
        radial.append(radial[-1] * g.l2)
    return np.array(angular) @ np.array(radial).T


#: Terms of the series in log R that a near power takes: |E T| <= 1, so 25
#: terms reach roundoff.
_NEAR_TERMS = 25


class _NearSeries(NamedTuple):
    """The far field of one set of near powers: every piece of it that does
    not depend on s."""

    index: np.ndarray  # [near]: the near powers' rows r
    rest: np.ndarray  # [r]: the other rows, as a mask
    smooth: np.ndarray  # [rest]: the upper end R = 1 of the other rows
    ends_total: np.ndarray  # [n]: the lower ends of the other rows, summed
    jets: np.ndarray  # [near, t]: E^t / t!
    weights: np.ndarray  # [near, m]: the near rows of weights


class _SpecSeries(NamedTuple):
    """One entry of _inner_moments: every s-independent piece of a kernel."""

    powers: np.ndarray  # r, the far series' powers of sigma / R, as floats
    weights: np.ndarray  # [r, m]: (-1)^p perm(j, i) coeffs[r, i], m = j - i + k
    smooth: np.ndarray  # [r]: the far field's upper end R = 1
    ends: np.ndarray  # [r, n]: its lower end R = 3 sigma/2
    orders: np.ndarray  # [t + m]: t + m + 1, the powers of T a near series reads
    gather: np.ndarray  # [m, t]: t + m, each near term's place in orders
    near_scale: np.ndarray  # [m, 1]: -2^m
    ends_total: Tuple[float, ...]  # [n]: ends summed over r
    inner: Tuple[Tuple[complex, ...], ...]  # [level][o]: of (Log|s|^2)^o
    gross: Tuple[Tuple[float, ...], ...]  # [level][o]: disks + collar, unsigned
    window: Tuple[Tuple[int, float], ...]  # (r, E) of the powers that can be near: |E| <= 1.1
    near: Mapping[Tuple[int, ...], _NearSeries]  # each non-empty set of window rows
    c: float  # 2(a+b+1) + p + q
    mode: int  # n = p + q (holo) or p - q (anti)


@functools.lru_cache(maxsize=64)
def _inner_moments(
    af: float, bf: float, p: int, q: int, j: int, k: int, anti: bool
) -> _SpecSeries:
    """The one per-spec cache of the oracle, keyed by _floats(spec) (the
    finite part's kernel too): each series of a kernel once, and every
    piece of a kernel sample that does not depend on s.

    ``tables[level, jp, kp]`` integrates |1-v|^{2a} (1-v)^p (Log|1-v|^2)^jp
    * |v|^{2b} v^q (Log|v|^2)^kp (v^q conjugated for anti chirality) over
    |v| <= 3/2 against (1/2pi) dx dy: the disks |v| <= 1/2 and, through
    v = 1 - z, |v - 1| <= 1/2 are series in the one surviving angular mode
    (no (-1)^p: (1-v)^p = z^p), and each level adds its _collar.  b + q/2
    may be <= -1 as long as b + q > -1, which keeps the angular mean
    integrable at 0.  ``inner`` is the tables' binomial combination, a
    polynomial in Log|s|^2, and ``gross`` adds disks and collar unsigned
    (they cancel at natural a).  The far field's power r meets
    int R^(E-1) (Log R^2)^m dR, E = c - r, whose antiderivative is
    X^E times a polynomial in Log X^2 with coefficients perm(m, m-n)
    (-2)^(m-n) / E^(m-n+1): the smooth weights at X = 1, the end polynomial
    at X = 3 sigma/2.  Rows with E == 0 are zero, so 0 never divides; the
    finite part needs every other row, and a sample never reads one with
    |E| <= 1/745 (always near: |log(3 sigma/2)| <= 745 for double sigma).

    A sample's near powers are a set of ``window`` rows.  E steps by 2, so
    the window holds at most two rows, and ``near`` holds a _NearSeries for
    each of its non-empty sets, built here: the entry never changes.  Every integer
    the tables read passes _float, the largest being (j+k)!: j + k > 170 and a collar
    beyond float range are refused before any recurrence, and a float overflow or
    invalid operation in the build (100 <= j+k <= 170 can meet one) is a ValueError.
    """
    if j + k > 170:  # 171! is the first factorial beyond float range
        raise ValueError("the log degree j+k = %d needs (j+k)!, beyond float range" % (j + k))
    # the collar's largest |1-v|^(2a+p) |v|^(2b+q) is at v = -3/2
    top = max(0.0, 2.0 * af + p) * math.log(2.5) + max(0.0, 2.0 * bf + q) * math.log(1.5)
    if top > math.log(sys.float_info.max):
        raise ValueError("the collar's |1-v|^(2a+p) |v|^(2b+q) reaches e^%.0f at v = -3/2, "
                         "beyond float range" % top)
    try:
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            mode, near_mode, b_mode = (p - q, q, p) if anti else (p + q, -q, -p)
            jets = _mode_jets(af, p, j, (mode, near_mode))  # shared with the far series
            factorials = [_float("i!", math.factorial(i)) for i in range(max(j, k) + 1)]
            disks = _disk_moments(near_mode, j, 2.0 * bf + q, k, jets, factorials)
            b_jets = _mode_jets(bf, q, k, (b_mode,))
            disks = disks + _disk_moments(b_mode, k, 2.0 * af + p, j, b_jets, factorials).T
            collars = np.array([_collar(level, af, bf, p, q, j, k, anti) for level in _LEVELS])
            powers, coeffs = _mode_coefficients(mode, j, jets)
            tables = disks + collars
            c = 2.0 * (af + bf + 1.0) + p + q
            E = c - powers
            perms = [_float("perm(j, i)", (-1) ** p * math.perm(j, i)) for i in range(j + 1)]
            weights = np.zeros((len(powers), j + k + 1))
            weights[:, k:] = (coeffs * perms)[:, ::-1]
            divisor = np.where(E == 0.0, np.inf, E)  # 1/inf = 0
            poly = np.zeros_like(weights)  # [r, n]: coefficient of (Log X^2)^n
            for m in range(k, j + k + 1):
                for n in range(m + 1):
                    scale = math.perm(m, m - n) * (-2.0) ** (m - n)
                    poly[:, n] += weights[:, m] * scale / divisor ** (m - n + 1)
            ends = poly * 1.5 ** E[:, None]
            shifted = np.zeros((2, 2, j + k + 1), dtype=complex)  # [inner|gross, level, o]
            for jp, kp in itertools.product(range(j + 1), range(k + 1)):
                comb = _float("comb(j, jp) comb(k, kp)", math.comb(j, jp) * math.comb(k, kp))
                unsigned = comb * (abs(disks[jp, kp]) + abs(collars[:, jp, kp]))
                shifted[:, :, j - jp + k - kp] += comb * tables[:, jp, kp], unsigned
            # sigma <= 1/4 keeps |T| >= log(8/3) > 1/1.1: no other power is near
            window = tuple((r, E[r].item()) for r in np.flatnonzero(np.abs(E) <= 1.1).tolist())
            t = np.arange(_NEAR_TERMS)  # t! in floats: int64 wraps from 21! on
            near = {}
            for size in range(1, len(window) + 1):
                for rows in itertools.combinations([r for r, _ in window], size):
                    index = np.array(rows)
                    rest = np.ones(len(powers), dtype=bool)
                    rest[index] = False
                    near[rows] = _NearSeries(*_frozen(
                        index, rest, poly[rest, 0], ends[rest].sum(0),
                        (c - powers[index, None]) ** t / np.cumprod(np.maximum(t, 1.0)),
                        weights[index],
                    ))
            logs = np.arange(j + k + 1)[:, None]
            return _SpecSeries(
                *_frozen(
                    powers, weights, poly[:, 0].copy(), ends,
                    np.arange(1.0, j + k + _NEAR_TERMS + 1), logs + t, -(2.0**logs),
                ),
                ends_total=tuple(ends.sum(axis=0).tolist()),
                inner=tuple(map(tuple, shifted[0].tolist())),
                gross=tuple(map(tuple, shifted[1].real.tolist())),
                window=window,
                near=types.MappingProxyType(near),
                c=c, mode=mode,
            )
    except FloatingPointError as exc:  # never a NaN entry, nor a numpy warning
        raise ValueError("the build at log degree j+k = %d left float range: %s" % (j + k, exc))


def _horner(coeffs: Sequence, x):
    """sum_n coeffs[n] x^n: a kernel sample's polynomials are short."""
    acc = 0.0
    for coeff in reversed(coeffs):
        acc = acc * x + coeff
    return acc


def _far_integral(entry: _SpecSeries, s: complex) -> complex:
    """Annulus 3|s|/2 <= |u| <= 1 through the one angular mode that survives.

    The angular mean keeps only the mode n = p + q (holo) or p - q (anti)
    of |1-w|^{2a} (1-w)^p (Log|1-w|^2)^i, w = s/u.  Its power r integrates
    exactly to sigma^r smooth_r - sigma^c sum_n (2T)^n ends[r, n],
    T = log(3 sigma/2), except where |E T| <= 1 and the two ends cancel
    (at E = 0 no antiderivative exists): that power takes the series in
    log R, 2^m sum_t E^t/t! (-T^(t+m+1))/(t+m+1).  Only the powers of
    sigma and of T are computed here, each once; the rest is read from
    the entry, the near powers' pieces from their _NearSeries.
    """
    sigma = abs(s)
    T = math.log(1.5 * sigma)
    near = tuple(r for r, E in entry.window if abs(E * T) <= 1.0)
    with np.errstate(under="ignore"):
        top = sigma**entry.powers
    if not near:
        far = entry.smooth @ top - sigma**entry.c * _horner(entry.ends_total, 2.0 * T)
    else:
        series = entry.near[near]
        far = series.smooth @ top[series.rest]
        far -= sigma**entry.c * _horner(series.ends_total, 2.0 * T)
        ends = (T**entry.orders / entry.orders)[entry.gather]  # int_0^T u^(t+m) du
        radial = entry.near_scale * top[series.index] * (ends @ series.jets.T)  # [m, near]
        far += np.sum(series.weights.T * radial)
    return complex((s / sigma) ** entry.mode * far)


def _refined(v0, v1, floor: float, where: str):
    """v1, the finer of two refinement levels, or ToleranceNotMet unless |v1 - v0| is within
    _SAMPLE_TOLERANCE of max(|v1|, ``floor``, 1e-300) (a NaN never is); the one such test."""
    achieved = abs(v1 - v0) / max(abs(v1), floor, 1e-300)
    if not (achieved <= _SAMPLE_TOLERANCE):
        raise ToleranceNotMet(
            "refinement moved %s by %.3e relative (tolerance %.1e)"
            % (where, achieved, _SAMPLE_TOLERANCE),
            achieved=achieved,
        )
    return v1


def eval_kernel_integral(spec: KernelSpec, s: complex) -> complex:
    """Value of the kernel at the sample point s, 0 < |s| <= 1/4.

    The collar is evaluated at two resolutions, everything else exactly,
    and ToleranceNotMet is raised when the two values disagree by more
    than _SAMPLE_TOLERANCE relative to the value, or to a thousandth of
    the gross (unsigned) magnitude when cancellation dominates the value.
    """
    s = complex(s)
    sigma = abs(s)
    if not (0.0 < sigma <= 0.25):
        raise ValueError("sample point must satisfy 0 < |s| <= 1/4, got |s|=%g" % sigma)
    entry = _inner_moments(*_floats(spec))
    far = _far_integral(entry, s)
    ls = math.log(sigma**2)
    pref = sigma**entry.c * (s / sigma) ** entry.mode
    v0, v1 = (pref * _horner(poly, ls) + far for poly in entry.inner)
    gross = abs(pref) * max(_horner(poly, abs(ls)) for poly in entry.gross) + abs(far)
    return _refined(v0, v1, 1e-3 * gross, "the value at |s|=%.3e" % sigma)


# ---------------------------------------------------------------------------
# expansion fitting


#: Highest smooth power |s|^{2t} in the fit model.
_SMOOTH_CUTOFF = 4


def _refuse_near_smooth_power(spec: KernelSpec) -> None:
    """IllConditioned when a non-resonant a+b+1 lies within 1e-3 of a smooth
    power |s|^{2t} of the model, the one gap rule of the fit and the demo."""
    x = spec.a + spec.b + 1
    t_min = -spec.p if spec.chirality is Chirality.ANTI else 0
    near = min(abs(x - t) for t in range(t_min, _SMOOTH_CUTOFF + 1)) < 1e-3
    if near and _natural_sum(spec.a, spec.b) is None:
        raise IllConditioned(
            "exponent a+b+1 = %.6f lies within 1e-3 of a smooth power; "
            "use the resonant model only for exact resonance" % x
        )


def scaled_lstsq(
    A: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, float, np.ndarray]:
    """Least squares on A with each column scaled to unit max-norm.

    Returns (coefficients of the unscaled columns, residual norm, scaled
    design matrix); the scaling keeps columns of very different size
    from dominating the solve.
    """
    scales = np.abs(A).max(axis=0)
    scales[scales == 0.0] = 1.0
    As = A / scales
    sol, *_ = np.linalg.lstsq(As, y, rcond=None)
    return sol / scales, float(np.linalg.norm(As @ sol - y)), As


def fit_radial_samples(
    spec: KernelSpec, values: Sequence[float]
) -> Tuple[LogPolynomial, float]:
    """Fit the singular plus smooth model to kernel samples at _radii(spec).

    ``values`` holds the raw kernel values at those radii (real parts);
    the monomial phase sigma^{p+q} is divided out here.  The singular
    block uses log powers l = l_min..L with L from the degree rule
    (l_min = 1 when a+b+1 is a natural number, since the log-free
    singular column is then indistinguishable from a smooth power).  A
    Smooth kernel (degree rule -1) is fitted up to the probe degree
    L = max(j + k, 1) anyway, so that its vanishing singular content shows.

    Returns the singular coefficients in log-degree order (slot 0 is zero
    for resonant exponents) and the condition number of the scaled design
    matrix.  Raises IllConditioned when a non-resonant exponent sits
    within 1e-3 of a modelled smooth power, or when that condition number
    is >= 1e8.
    """
    radii = _radii(spec)
    if len(values) != len(radii):
        raise ValueError("got %d samples for %d radii" % (len(values), len(radii)))
    xf = float(spec.a + spec.b + 1)
    l_min = 0 if _natural_sum(spec.a, spec.b) is None else 1
    L = degree_rule(spec.a, spec.b, spec.j, spec.k)
    if L < 0:
        L = max(spec.j + spec.k, 1)
    T = _SMOOTH_CUTOFF
    t_min = -spec.p if spec.chirality is Chirality.ANTI else 0
    _refuse_near_smooth_power(spec)

    n_sing = L - l_min + 1
    n_cols = n_sing + (T - t_min + 1)
    if len(radii) < n_cols + 2:
        raise ValueError(
            "grid has %d radii but the model has %d columns; need at least %d"
            % (len(radii), n_cols, n_cols + 2)
        )

    sig = np.array(radii)
    y = np.asarray(values, dtype=float) / sig ** (spec.p + spec.q)
    lss = np.log(sig**2)
    cols = [sig ** (2.0 * xf) * lss**l for l in range(l_min, L + 1)]
    cols += [sig ** (2.0 * t) for t in range(t_min, T + 1)]
    coeffs, _, As = scaled_lstsq(np.column_stack(cols), y)
    cond = float(np.linalg.cond(As))
    if cond >= 1e8:
        raise IllConditioned(
            "design matrix condition number %.3e exceeds 1e8" % cond
        )
    return LogPolynomial.of_coeffs([0.0] * l_min + coeffs[:n_sing].tolist()), cond


def _kernel_samples(spec: KernelSpec) -> List[float]:
    """Real parts of eval_kernel_integral at _radii(spec), one call each."""
    return [eval_kernel_integral(spec, r).real for r in _radii(spec)]


# ---------------------------------------------------------------------------
# direct finite-part construction (independent route to G_q)


#: lambda = log(9/4): the far field's lower end reads (2 log(3 sigma/2))^n = (lambda + l)^n
_LAMBDA = math.log(9 / 4)


def _readout(entry, level, row):
    """P, the coefficients in l = Log sigma^2 of K(sigma) = sigma^c P(l)
    + sum_r smooth[r] sigma^r, from one collar level of the entry: inner
    minus sum_n ends_total[n] (lambda + l)^n, and at an exact resonance
    (``row``, the far series' row whose power equals c, which the entry
    zeroes) minus sum_m weights[row, m] (lambda + l)^(m+1) / (2(m+1)), the
    lower end of int R^-1 (Log R^2)^m dR, which adds slot j+k+1."""
    inner = entry.inner[level]
    P = np.zeros(len(inner) + (row is not None), dtype=complex)
    P[: len(inner)] = inner
    shifts = list(enumerate(entry.ends_total))
    if row is not None:
        shifts += [(m + 1, w / (2 * (m + 1))) for m, w in enumerate(entry.weights[row])]
    for n, coeff in shifts:
        for i in range(n + 1):
            P[i] -= coeff * math.comb(n, i) * _LAMBDA ** (n - i)
    return P


def finite_part_direct(a: RationalInput, b: RationalInput, q: int) -> float:
    """Finite part of the plane integral of |1-t|^{2a} t^q |t|^{2b}
    against (1/2pi) dx dy, with no Gamma-ratio input.

    It is slot 0 of the _readout of the _inner_moments entry of the kernel
    (a, b, 0, q, 0, 0): the table [0, 0] of |t| <= 3/2 (two disk series and
    the collar) minus ends_total[0], the far field's lower end at X = 3/2,
    which is the finite part of each power rho^{c-1-r} of the angular mean
    beyond 3/2.  Both collar levels must agree as a kernel sample's do
    (to _SAMPLE_TOLERANCE of the value, or of a thousandth of the gross
    when the parts cancel: integer a gives 0), else ToleranceNotMet.
    The resonant case a+b+1 in {0, 1, 2, ...} puts r = c on a pole and
    is a domain error: the finite part does not exist as a plain number
    on the resonance locus, where the kernel picks up a log term instead.
    Resonant constants are checked through the log-column fit of
    verify_constant, not through this route.  The domain b + q > -1 is
    wider than a KernelSpec's, and off resonance the readout takes no row.
    """
    a, b = as_fraction(a), as_fraction(b)
    _exact_int("q", q)
    if not in_slice(a, 0):
        raise ValueError("need a > -1")
    if not in_slice(b, 2 * q):
        raise ValueError("need b + q > -1")
    if _natural_sum(a, b) is not None:
        raise ValueError(
            "a+b+1 is a natural number: resonant exponent, no plain "
            "finite part on this route; fit the log column instead"
        )
    entry = _inner_moments(_float("a", a), _float("b", b), 0, q, 0, 0, False)
    v0, v1 = (float(_readout(entry, level, None)[0].real) for level in (0, 1))
    gross = max(g[0] for g in entry.gross) + abs(entry.ends_total[0])
    return _refined(v0, v1, 1e-3 * gross, "the finite part at q=%d" % q)


# ---------------------------------------------------------------------------
# verification reports


#: The CSV columns of a report, read from its JSON record: the spec's
#: fields, then the document's, with fitted_leading the real part of the
#: top fitted log coefficient (0 when nothing was fitted).
_CSV_COLUMNS = ("a", "b", "p", "q", "j", "k", "chirality", "case", "fitted_leading",
                "closed_form", "relative_error", "condition_number", "normalization_used")


class VerificationReport(NamedTuple):
    """Side-by-side record of one oracle-vs-closed-form comparison.

    ``normalization_used`` is the measured ratio fitted/base-constant
    (None for Smooth kernels, whose base constant is zero);
    ``relative_error`` compares the fitted leading coefficient against
    the library's own normalized prediction, except for Smooth kernels
    where it is the largest absolute fitted singular coefficient.
    ``to_json_dict`` is the one record; the CSV row reads it.
    """

    spec: KernelSpec
    case: CaseTag
    fitted_coeffs: LogPolynomial
    closed_form: float
    relative_error: float
    condition_number: float
    normalization_used: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "case": self.case.value,
            "fitted_log_coeffs": [[c.real, c.imag] for c in self.fitted_coeffs.coefficients],
            "closed_form": self.closed_form,
            "relative_error": self.relative_error,
            "condition_number": self.condition_number,
            "normalization_used": self.normalization_used,
        }

    @staticmethod
    def csv_header() -> str:
        return ",".join(_CSV_COLUMNS)

    def to_csv_row(self) -> str:
        doc = self.to_json_dict()
        pairs = doc["fitted_log_coeffs"]
        record = {**doc["spec"], **doc, "fitted_leading": pairs[-1][0] if pairs else 0.0}
        return ",".join(_csv_field(record[name]) for name in _CSV_COLUMNS)


def _csv_field(value) -> str:
    # floats as in canonical JSON, null as an empty field
    if value is None:
        return ""
    return _format_float(value) if isinstance(value, float) else str(value)


def compare_with_closed_form(
    spec: KernelSpec,
    measured: Tuple[LogPolynomial, float],
    case: CaseTag,
    closed: float,
    normalization: float,
) -> VerificationReport:
    """The report of measured singular coefficients against the closed form.

    ``measured`` is (singular coefficients in log-degree order, condition
    number), as fit_radial_samples returns them.  ``closed`` is the
    normalized prediction base * ``normalization``; the measured
    normalization is the leading coefficient over base.  Smooth kernels
    ignore both: their singular columns are probed anyway, and their error
    is the largest measured coefficient, which should vanish.
    """
    singular, cond = measured
    if case is CaseTag.SMOOTH:
        closed = 0.0
        error = max((abs(c) for c in singular.coefficients), default=0.0)
        normalization_used: Optional[float] = None
    else:
        leading = singular.coefficient(max(singular.degree, 0)).real
        error = abs(leading - closed) / abs(closed)
        normalization_used = leading / (closed / normalization)
    return VerificationReport(
        spec=spec,
        case=case,
        fitted_coeffs=singular,
        closed_form=closed,
        relative_error=error,
        condition_number=cond,
        normalization_used=normalization_used,
    )


def verify_constant(spec: KernelSpec) -> VerificationReport:
    """Measure the kernel's singular coefficients by a fit of its samples
    and report them against the closed-form constant.

    Routes through the same case classification and the same constant
    as the convolution engine, for every case and log degree.
    """
    case, base, norm = kernel_leading_constant(
        spec.p, spec.q, spec.a, spec.b, spec.j, spec.k, spec.chirality
    )
    measured = fit_radial_samples(spec, _kernel_samples(spec))
    return compare_with_closed_form(spec, measured, case, base * norm, norm)
