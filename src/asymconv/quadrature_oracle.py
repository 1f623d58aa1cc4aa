"""Quadrature oracle for the convolution kernel constants.

Evaluates the model kernel

    K(s) = (1/2pi) iint_{|u| <= 1}  |s-u|^{2a} (s-u)^p (Log|s-u|^2)^j
                                  * |u|^{2b} (u^q or ubar^q) (Log|u|^2)^k  dx dy

by singular-aware quadrature, fits its small-|s| expansion on one fixed
geometric radius grid (_radii), and compares the fitted leading singular
coefficient against the closed-form Gamma-factor constants.  Everything
here is independent of those closed forms: nothing is taken from
gamma_kernel but the chirality type and the exact-or-float split of a
parameter.

Region scheme for K(s): inside |u| <= 3|s|/2 the substitution u = s*v
removes all s-dependence except an exact prefactor and binomial log
shifts.  Outside the collar (the annulus 1/2 <= |v| <= 3/2 less the disk
|v - 1| < 1/2), every angular mean is one explicit power series: the one
Fourier mode of |1-w|^{2a} (1-w)^p that survives, with its own
Pochhammer recurrence (_mode_coefficients).  Each power of it integrates
exactly in the radius (_power_log_antiderivative) over the two disks
|v| <= 1/2 and |v - 1| <= 1/2, over the far annulus 3|s|/2 <= |u| <= 1,
and beyond |t| = 3/2 in finite_part_direct.  The collar, which touches
|v| = 1 where no such series converges geometrically, is the only
quadrature, at two refinement levels; kernel samples, finite parts and
the fiber demo's cutoff remainders all pass one two-level test
(_refined) or raise ToleranceNotMet.  Every series of a kernel, with the
far field's smooth weights and end polynomial, is computed once in its
_inner_moments cache entry, and a kernel sample only evaluates them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .convolution_engine import CaseTag, kernel_leading_constant
from .expansion_algebra import LogPolynomial, as_fraction, degree_rule, is_natural
from .gamma_kernel import Chirality, RealInput, _split


class ToleranceNotMet(RuntimeError):
    """Two-level refinement disagreed by more than the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class IllConditioned(RuntimeError):
    """The fit model cannot separate its columns at the sample radii."""


@dataclass(frozen=True)
class KernelSpec:
    """Exact description of one convolution kernel.

    Exponents are stored as Fractions so that case classification is
    exact; pass "p/q" strings or Fractions, not floats.  ``chirality``
    says whether the second factor enters as u^q (holo) or ubar^q
    (anti); with q = 0 it is normalized to holo.
    """

    a: Fraction
    b: Fraction
    p: int
    q: int
    j: int
    k: int
    chirality: Chirality = Chirality.HOLO

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        chir = self.chirality
        if isinstance(chir, str) and not isinstance(chir, Chirality):
            chir = Chirality(chir)
        for name in ("p", "q", "j", "k"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError("%s must be an integer >= 0, got %r" % (name, v))
        if self.a + Fraction(self.p, 2) <= -1:
            raise ValueError("need a + p/2 > -1 for local integrability at s")
        if self.b + Fraction(self.q, 2) <= -1:
            raise ValueError("need b + q/2 > -1 for local integrability at 0")
        if self.q == 0:
            chir = Chirality.HOLO
        object.__setattr__(self, "chirality", chir)

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
        return KernelSpec(
            a=as_fraction(data["a"]),
            b=as_fraction(data["b"]),
            p=data["p"],
            q=data["q"],
            j=data["j"],
            k=data["k"],
            chirality=Chirality(data.get("chirality", "holo")),
        )


#: Refinement tolerance of every kernel sample and cutoff remainder.
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
    return (
        float(spec.a),
        float(spec.b),
        spec.p,
        spec.q,
        spec.j,
        spec.k,
        spec.chirality is Chirality.ANTI,
    )


#: Terms of every angular series.  Each power is integrated exactly in the
#: radius, so outside the collar the truncation is the only error.  The
#: variable is at most 2/3 (far field, outer part of the finite part) or
#: 1/2 (inner disks), and the coefficients grow at most polynomially, so
#: the dropped tail is of order (4/9)^80 < 1e-28 of the leading term; 40
#: terms already reach roundoff.
_SERIES_TERMS = 80


def _pochhammer_jets(c: float, count: int, order: int) -> np.ndarray:
    """Rows m < count: Taylor coefficients in e of (-c-e)_m / m!, to e^order.

    Each row follows from the last through the factor (m - c - e)/(m + 1),
    so a vanishing factor at natural c keeps its e-part exactly.
    """
    jet = [1.0] + [0.0] * order
    rows = [jet]
    for m in range(count - 1):
        shifted = [0.0] + jet[:-1]  # e times the jet
        jet = [((m - c) * x - y) / (m + 1) for x, y in zip(jet, shifted)]
        rows.append(jet)
    return np.array(rows)


def _mode_jets(c: float, extra: int, order: int, modes: Sequence[int]) -> tuple:
    """_mode_coefficients' jets of c + extra and c, long enough for ``modes``."""
    first = _pochhammer_jets(c + extra, _SERIES_TERMS + max(*modes, 0), order)
    return first, _pochhammer_jets(c, _SERIES_TERMS - min(*modes, 0), order)


def _mode_coefficients(
    c: float, extra: int, n: int, order: int, jets=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Angular mode n of |1-w|^{2c} (1-w)^extra as a power series in |w|.

    Returns (powers, coefficients): row beta - max(0, -n) holds the power
    2 beta + n and the Taylor coefficients in e, to e^order, of
    [(-c-e-extra)_(beta+n)/(beta+n)!] [(-c-e)_beta/beta!], the coefficient
    of w^(beta+n) wbar^beta once (1-w)^(c+extra) (1-wbar)^c is multiplied
    out.  The mean of e^{-i n arg w} |1-w|^{2c} (1-w)^extra (Log|1-w|^2)^i
    is therefore i! times column i summed against |w|^powers.  Two modes
    of one kernel may share their ``jets`` (_mode_jets).
    """
    b0 = max(0, -n)
    jets = jets or _mode_jets(c, extra, order, (n,))
    first = jets[0][b0 + n : b0 + n + _SERIES_TERMS]
    second = jets[1][b0 : b0 + _SERIES_TERMS]
    out = np.zeros((_SERIES_TERMS, order + 1))
    for i in range(order + 1):
        for l in range(i + 1):
            out[:, i] += first[:, l] * second[:, i - l]
    return 2 * np.arange(b0, b0 + _SERIES_TERMS) + n, out


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
    c: float, extra: int, n: int, order: int, radial_exp: float, logmax: int, jets=None
) -> np.ndarray:
    """Moments over the disk |z| <= 1/2 from the angular mode series.

    T[i, r] = (1/2pi) iint rho^radial_exp (Log rho^2)^r e^{-i n theta}
    |1-z|^{2c} (1-z)^extra (Log|1-z|^2)^i dx dy for i <= order, r <= logmax.
    Every power of the series integrates exactly: rho^{E-1} (Log rho^2)^r
    from 0 to 1/2, with E = radial_exp + 2 + 2 beta + n > 0 for every
    integrable case, is _power_log_antiderivative at X = 1/2.
    """
    powers, coeffs = _mode_coefficients(c, extra, n, order, jets)
    E = radial_exp + 2.0 + powers
    radial = _power_log_antiderivative(E, logmax, math.log(0.25), 0.5**E)
    factorials = [math.factorial(i) for i in range(order + 1)]
    return (coeffs * factorials).T @ radial.T


def _inner_tables(
    af: float, bf: float, p: int, q: int, j: int, k: int, anti: bool
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Moments of |v| <= 3/2 and the far series: (disks, tables, series).

    The disks |v| <= 1/2 and, through v = 1 - z, |v - 1| <= 1/2 are series
    in the one surviving angular mode (no (-1)^p: (1-v)^p = z^p).  Each
    level's table adds the collar between them by quadrature, with
    rho = end +/- xi^2 removing the sqrt corners where the excluded disk
    meets the annulus and an angular rule that grows with the top mode
    p + q.  b + q/2 may be <= -1 as long as b + q > -1, which keeps the
    angular mean integrable at 0.  The far series shares jets with patch0.
    """
    far_mode, near_mode = (p - q, q) if anti else (p + q, -q)
    jets = _mode_jets(af, p, j, (far_mode, near_mode))
    patch0 = _disk_moments(af, p, near_mode, j, 2.0 * bf + q, k, jets)
    patch1 = _disk_moments(bf, q, p if anti else -p, k, 2.0 * af + p, j).T
    disks = patch0 + patch1
    tables = []
    for cfg in _LEVELS:
        nodes, wts = _gl(2 * cfg["g"])
        anodes, awts = _gl(max(cfg["ma"], cfg["ma"] * (p + q) // 16))
        collar: Optional[np.ndarray] = None
        for lo, hi, from_low in ((0.5, 1.0, True), (1.0, 1.5, False)):
            span = math.sqrt(hi - lo)
            xi = 0.5 * span * (nodes + 1.0)
            wxi = 0.5 * span * wts
            rho = lo + xi**2 if from_low else hi - xi**2
            wrad = 2.0 * xi * wxi * rho  # includes the area jacobian rho
            cosphi = np.clip((rho**2 + 0.75) / (2.0 * rho), -1.0, 1.0)
            half = math.pi - np.arccos(cosphi)  # theta over pi -/+ half
            theta = math.pi + np.outer(half, anodes)
            wang = np.outer(half, awts) / (2.0 * math.pi)
            v = rho[:, None] * np.exp(1j * theta)
            f1 = np.abs(1.0 - v) ** (2.0 * af) * (1.0 - v) ** p
            l1 = np.log(np.abs(1.0 - v) ** 2)
            vq = np.conj(v) ** q if anti else v**q
            base = f1 * (np.abs(v) ** (2.0 * bf) * vq)
            l2 = np.log(np.abs(v) ** 2)
            vals = np.empty((j + 1, k + 1) + v.shape, dtype=complex)
            for jp in range(j + 1):
                for kp in range(k + 1):
                    vals[jp, kp] = base * l1**jp * l2**kp
            acc = np.einsum("...nm,nm->...", vals, wang * wrad[:, None])
            collar = acc if collar is None else collar + acc
        tables.append(disks + collar)
    return disks, np.array(tables), _mode_coefficients(af, p, far_mode, j, jets)


class _SpecSeries(NamedTuple):
    """One entry of _inner_moments: every s-independent piece of a kernel."""

    powers: np.ndarray  # r, the far series' powers of sigma / R
    coeffs: np.ndarray  # [r, i]: its Taylor columns in the a-derivative
    tables: np.ndarray  # [level, jp, kp]: the inner moments
    weights: np.ndarray  # [r, m]: (-1)^p perm(j, i) coeffs[r, i], m = j - i + k
    smooth: np.ndarray  # [r]: the far field's upper end R = 1
    ends: np.ndarray  # [r, n]: its lower end R = 3 sigma/2
    ends_total: Tuple[float, ...]  # [n]: ends summed over r
    inner: Tuple[Tuple[complex, ...], ...]  # [level][o]: of (Log|s|^2)^o
    gross: Tuple[Tuple[float, ...], ...]  # [level][o]: inner, unsigned
    window: Tuple[int, ...]  # the powers that can be near: |E| <= 1.1
    c: float  # 2(a+b+1) + p + q
    mode: int  # n = p + q (holo) or p - q (anti)


@functools.lru_cache(maxsize=64)
def _inner_moments(spec: KernelSpec) -> _SpecSeries:
    """The one per-spec cache of the oracle: each series of a kernel once,
    and every piece of a kernel sample that does not depend on s.

    ``tables[level, jp, kp]`` integrates |1-v|^{2a} (1-v)^p (Log|1-v|^2)^jp
    * |v|^{2b} v^q (Log|v|^2)^kp (v^q conjugated for anti chirality) over
    |v| <= 3/2 against (1/2pi) dx dy; ``inner`` is their binomial
    combination, a polynomial in Log|s|^2.  The far field's power r meets
    int R^(E-1) (Log R^2)^m dR, E = c - r, whose antiderivative is X^E
    times a polynomial in Log X^2 with coefficients perm(m, m-n) (-2)^(m-n)
    / E^(m-n+1): the smooth weights at X = 1, the end polynomial at
    X = 3 sigma/2.  |E| <= 1/745 is always near (|log(3 sigma/2)| <= 745
    for every double sigma > 0): its rows are zero, so 0 never divides.
    """
    af, bf, p, q, j, k, anti = params = _floats(spec)
    _, tables, (powers, coeffs) = _inner_tables(*params)
    c = 2.0 * (af + bf + 1.0) + p + q
    E = c - powers
    perms = [(-1) ** p * math.perm(j, i) for i in range(j + 1)]
    weights = np.zeros((len(powers), j + k + 1))
    weights[:, k:] = (coeffs * perms)[:, ::-1]
    divisor = np.where(np.abs(E) <= 1.0 / 745.0, np.inf, E)  # 1/inf = 0
    poly = np.zeros_like(weights)  # [r, n]: coefficient of (Log X^2)^n
    for m in range(k, j + k + 1):
        for n in range(m + 1):
            scale = math.perm(m, m - n) * (-2.0) ** (m - n)
            poly[:, n] += weights[:, m] * scale / divisor ** (m - n + 1)
    ends = poly * 1.5 ** E[:, None]
    shifted = np.zeros((2, 2, j + k + 1), dtype=complex)  # [inner|gross, level, o]
    for jp, kp in itertools.product(range(j + 1), range(k + 1)):
        term = math.comb(j, jp) * math.comb(k, kp) * tables[:, jp, kp]
        shifted[:, :, j - jp + k - kp] += term, abs(term)
    return _SpecSeries(
        *_frozen(powers, coeffs, tables, weights, poly[:, 0].copy(), ends),
        ends_total=tuple(ends.sum(axis=0).tolist()),
        inner=tuple(map(tuple, shifted[0].tolist())),
        gross=tuple(map(tuple, shifted[1].real.tolist())),
        # sigma <= 1/4 keeps |T| >= log(8/3) > 1/1.1: no other power is near
        window=tuple(np.flatnonzero(np.abs(E) <= 1.1).tolist()),
        c=c, mode=p - q if anti else p + q,
    )


def _horner(coeffs: Sequence, x):
    """sum_n coeffs[n] x^n: a kernel sample's polynomials are short."""
    return functools.reduce(lambda acc, coeff: acc * x + coeff, reversed(coeffs), 0.0)


def _far_integral(entry: _SpecSeries, s: complex) -> complex:
    """Annulus 3|s|/2 <= |u| <= 1 through the one angular mode that survives.

    The angular mean keeps only the mode n = p + q (holo) or p - q (anti)
    of |1-w|^{2a} (1-w)^p (Log|1-w|^2)^i, w = s/u.  Its power r integrates
    exactly to sigma^r smooth_r - sigma^c sum_n (2T)^n ends[r, n],
    T = log(3 sigma/2), except where |E T| <= 1 and the two ends cancel
    (at E = 0 no antiderivative exists): that power takes the series in
    log R, 2^m sum_t E^t/t! (-T^(t+m+1))/(t+m+1).
    """
    sigma = abs(s)
    T = math.log(1.5 * sigma)
    # E steps by 2: one power, rarely two
    near = [r for r in entry.window if abs((entry.c - entry.powers[r]) * T) <= 1.0]
    with np.errstate(under="ignore"):
        top = sigma**entry.powers
    if not near:
        far = entry.smooth @ top - sigma**entry.c * _horner(entry.ends_total, 2.0 * T)
    else:
        far = np.delete(entry.smooth, near) @ np.delete(top, near)
        far -= sigma**entry.c * _horner(np.delete(entry.ends, near, 0).sum(0), 2.0 * T)
        t = np.arange(25)  # |E T| <= 1: 25 terms reach roundoff
        E = entry.c - entry.powers[near, None]
        jets = E**t / np.cumprod(np.maximum(t, 1))  # E^t / t!
        m = np.arange(len(entry.ends_total))[:, None]
        ends = T ** (t + m + 1) / (t + m + 1)  # int_0^T u^(t+m) du
        radial = -(2.0**m) * top[near] * (ends @ jets.T)  # [m, near power]
        far += np.sum(entry.weights[near].T * radial)
    return complex((s / sigma) ** entry.mode * far)


def _refined(v0, v1, scale: float, tolerance: float, where: str):
    """v1, the finer of two refinement levels, or ToleranceNotMet when
    |v1 - v0| exceeds ``tolerance`` * ``scale`` (floored at 1e-300)."""
    achieved = abs(v1 - v0) / max(scale, 1e-300)
    if achieved > tolerance:
        raise ToleranceNotMet(
            "refinement moved %s by %.3e relative (tolerance %.1e)"
            % (where, achieved, tolerance),
            achieved=achieved,
        )
    return v1


def eval_kernel_integral(
    spec: KernelSpec,
    s: complex,
    tolerance: float = _SAMPLE_TOLERANCE,
) -> complex:
    """Value of the kernel at the sample point s, 0 < |s| <= 1/4.

    The collar is evaluated at two resolutions, everything else exactly,
    and ToleranceNotMet is raised when the two values disagree by more
    than ``tolerance`` (> 0) relative to the value, or to a thousandth of
    the gross (unsigned) magnitude when cancellation dominates the value.
    """
    s = complex(s)
    sigma = abs(s)
    if not (0.0 < sigma <= 0.25):
        raise ValueError("sample point must satisfy 0 < |s| <= 1/4, got |s|=%g" % sigma)
    if not (tolerance > 0.0):
        raise ValueError("tolerance must be positive, got %r" % tolerance)
    entry = _inner_moments(spec)
    far = _far_integral(entry, s)
    ls = math.log(sigma**2)
    pref = sigma**entry.c * (s / sigma) ** entry.mode
    v0, v1 = (pref * _horner(poly, ls) + far for poly in entry.inner)
    gross = abs(pref) * max(_horner(poly, abs(ls)) for poly in entry.gross) + abs(far)
    scale = max(abs(v1), 1e-3 * gross)
    return _refined(v0, v1, scale, tolerance, "the value at |s|=%.3e" % sigma)


# ---------------------------------------------------------------------------
# expansion fitting


#: Highest smooth power |s|^{2t} in the fit model.
_SMOOTH_CUTOFF = 4


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
    x = spec.a + spec.b + 1
    xf = float(x)
    resonant_exponent = is_natural(x)
    l_min = 1 if resonant_exponent else 0
    L = degree_rule(spec.a, spec.b, spec.j, spec.k)
    if L < 0:
        L = max(spec.j + spec.k, 1)
    T = _SMOOTH_CUTOFF
    t_min = -spec.p if spec.chirality is Chirality.ANTI else 0

    if not resonant_exponent:
        gap = min(abs(xf - t) for t in range(t_min, T + 1))
        if gap < 1e-3:
            raise IllConditioned(
                "exponent a+b+1 = %.6f lies within 1e-3 of a smooth power; "
                "use the resonant model only for exact resonance" % xf
            )

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


def finite_part_direct(a: RealInput, b: RealInput, q: int) -> float:
    """Finite part of the plane integral of |1-t|^{2a} t^q |t|^{2b}
    against (1/2pi) dx dy, with no Gamma-ratio input.

    The near part |t| <= 3/2 is entry [0, 0] of the inner tables of the
    kernel (a, b, 0, q, 0, 0): two disk series and the collar.  Beyond
    3/2 the angular mean is sum_beta C_beta rho^-r, r = 2 beta + q, the
    mode q of |1 - 1/t|^{2a}; each power integrates against rho^{c-1},
    c = 2(a+b+1) + q, to minus _power_log_antiderivative at X = 3/2.
    Both collar levels must agree to eval_kernel_integral's default 1e-6
    of the value, or of a thousandth of |disk| + |collar| + |outer| when
    those cancel (integer a gives 0), else ToleranceNotMet.
    The resonant case a+b+1 in {0, 1, 2, ...} puts r = c on a pole and
    is a domain error: the finite part does not exist as a plain number
    on the resonance locus, where the kernel picks up a log term instead.
    Resonant constants are checked through the log-column fit of
    verify_constant, not through this route.
    """
    a_ex, af = _split(a)
    b_ex, bf = _split(b)
    if not isinstance(q, int) or isinstance(q, bool) or q < 0:
        raise ValueError("q must be an integer >= 0")
    if af <= -1.0:
        raise ValueError("need a > -1")
    if bf + q <= -1.0:
        raise ValueError("need b + q > -1")
    if a_ex is not None and b_ex is not None:
        if is_natural(a_ex + b_ex + 1):
            raise ValueError(
                "a+b+1 is a natural number: resonant exponent, no plain "
                "finite part on this route; fit the log column instead"
            )
    else:
        xr = af + bf + 1.0
        if abs(xr - round(xr)) < 1e-9 and round(xr) >= 0:
            raise ValueError("a+b+1 is numerically resonant")
    disks, tables, (r, coeffs) = _inner_tables(af, bf, 0, q, 0, 0, False)
    disk, near0, near1 = (float(t[0, 0].real) for t in (disks, *tables))
    E = 2.0 * (af + bf + 1.0) + q - r
    radial = _power_log_antiderivative(E, 0, math.log(2.25), 1.5**E)
    outer = -float(coeffs[:, 0] @ radial[0])
    value = near1 + outer
    gross = abs(disk) + abs(near1 - disk) + abs(outer)
    return _refined(
        near0 + outer, value, max(abs(value), 1e-3 * gross), 1e-6,
        "the finite part at q=%d" % q,
    )


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class VerificationReport:
    """Side-by-side record of one oracle-vs-closed-form comparison.

    ``normalization_used`` is the measured ratio fitted/base-constant
    (None for Smooth kernels, whose base constant is zero);
    ``relative_error`` compares the fitted leading coefficient against
    the library's own normalized prediction, except for Smooth kernels
    where it is the largest absolute fitted singular coefficient.
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
            "fitted_log_coeffs": [
                [self.fitted_coeffs.coefficient(l).real,
                 self.fitted_coeffs.coefficient(l).imag]
                for l in range(self.fitted_coeffs.degree + 1)
            ],
            "closed_form": self.closed_form,
            "relative_error": self.relative_error,
            "condition_number": self.condition_number,
            "normalization_used": self.normalization_used,
        }

    @staticmethod
    def csv_header() -> str:
        return (
            "a,b,p,q,j,k,chirality,case,fitted_leading,closed_form,"
            "relative_error,condition_number,normalization_used"
        )

    def to_csv_row(self) -> str:
        lead = self.fitted_coeffs.leading if not self.fitted_coeffs.is_zero else 0.0
        norm = (
            "" if self.normalization_used is None
            else "%.17g" % self.normalization_used
        )
        return ",".join(
            [
                str(self.spec.a),
                str(self.spec.b),
                str(self.spec.p),
                str(self.spec.q),
                str(self.spec.j),
                str(self.spec.k),
                self.spec.chirality.value,
                self.case.value,
                "%.17g" % complex(lead).real,
                "%.17g" % self.closed_form,
                "%.17g" % self.relative_error,
                "%.17g" % self.condition_number,
                norm,
            ]
        )


def fit_and_compare(
    spec: KernelSpec,
    values: Sequence[float],
    case: CaseTag,
    closed: float,
    normalization: float,
) -> VerificationReport:
    """Fit kernel samples at _radii(spec) and compare with the closed form.

    ``closed`` is the normalized prediction base * ``normalization``; the
    measured normalization is fitted / base.  Smooth kernels ignore both:
    the fit probes their singular columns anyway, and their error is the
    largest fitted coefficient, which should vanish.
    """
    singular, cond = fit_radial_samples(spec, values)
    if case is CaseTag.SMOOTH:
        closed = 0.0
        error = max((abs(c) for c in singular.coefficients), default=0.0)
        measured: Optional[float] = None
    else:
        fitted = singular.coefficient(max(singular.degree, 0)).real
        error = abs(fitted - closed) / abs(closed)
        measured = fitted / (closed / normalization)
    return VerificationReport(
        spec=spec,
        case=case,
        fitted_coeffs=singular,
        closed_form=closed,
        relative_error=error,
        condition_number=cond,
        normalization_used=measured,
    )


def verify_constant(spec: KernelSpec) -> VerificationReport:
    """Fit the kernel at its sample radii and compare with the closed-form
    constant.

    Routes through the same case classification as the convolution
    engine; BothInteger kernels outside j = k = 1 have no asserted
    closed form and raise ValueError.
    """
    case, base, norm = kernel_leading_constant(
        spec.p, spec.q, spec.a, spec.b, spec.j, spec.k, spec.chirality
    )
    values = _kernel_samples(spec)
    return fit_and_compare(spec, values, case, base * norm, norm)
