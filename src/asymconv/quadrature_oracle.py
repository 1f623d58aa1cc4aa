"""Brute-force quadrature oracle for the convolution kernel constants.

Evaluates the model kernel

    K(s) = (1/2pi) iint_{|u| <= 1}  |s-u|^{2a} (s-u)^p (Log|s-u|^2)^j
                                  * |u|^{2b} (u^q or ubar^q) (Log|u|^2)^k  dx dy

by singular-aware quadrature, fits its small-|s| expansion on a geometric
radius grid, and compares the fitted leading singular coefficient against
the closed-form Gamma-factor constants.  Everything here is deliberately
independent of those closed forms: the only shared ingredient is the
angular coefficient table gamma^r (itself cross-checked against direct
angular quadrature in the test suite).

Region scheme for K(s): inside |u| <= 3|s|/2 the substitution u = s*v
removes all s-dependence except an exact prefactor and binomial log
shifts, so the inner moments are computed once per kernel and reused for
every sample radius.  The far annulus 3|s|/2 <= |u| <= 1 is integrated
per sample with the s-free part of the integrand subtracted and added
back in closed form, which kills the catastrophic cancellation that
otherwise eats the signal for p + q >= 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .convolution_engine import CaseTag, classify_case, kernel_leading_constant
from .expansion_algebra import LogPolynomial, as_fraction, degree_rule, is_natural
from .gamma_kernel import Chirality, RealInput, _split, fourier_coefficient


class ToleranceNotMet(RuntimeError):
    """Two-level refinement disagreed by more than the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class IllConditioned(RuntimeError):
    """The fit model cannot separate its columns on the given grid."""


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


@dataclass(frozen=True)
class SampleGrid:
    """Geometric radius grid and the refinement tolerance of its samples."""

    radii: Tuple[float, ...]
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not self.radii:
            raise ValueError("grid needs at least one radius")
        last = 0.25 + 1e-15
        for r in self.radii:
            if not (0.0 < r <= 0.25):
                raise ValueError("radii must lie in (0, 1/4], got %r" % r)
            if r >= last:
                raise ValueError("radii must be strictly decreasing")
            last = r
        if not (self.tolerance > 0.0):
            raise ValueError("tolerance must be positive")


def default_grid(spec: Optional[KernelSpec] = None) -> SampleGrid:
    """Sixteen geometric radii 0.2 * 2^0 .. 0.2 * 2^-15.

    For total monomial degree p + q >= 4 the deepest radii are dropped:
    the far-field signal there sits below roundoff of the subtracted
    integrand, so the small radii would only feed noise into the fit.
    """
    depth = 16
    if spec is not None and spec.p + spec.q >= 4:
        depth = 12
    return SampleGrid(radii=tuple(0.2 * 2.0**-i for i in range(depth)))


# ---------------------------------------------------------------------------
# low-level quadrature pieces


@functools.lru_cache(maxsize=None)
def _gl(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def power_log_integral(m: float, n: int, lo: float, hi: float) -> float:
    """Exact antiderivative of rho^m (Log rho^2)^n over [lo, hi].

    The recursion integrates by parts; m = -1 switches to the pure log
    primitive.  Used to add back the closed-form part of the far-field
    subtraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0 < lo <= hi):
        raise ValueError("need 0 < lo <= hi")
    if abs(m + 1.0) < 1e-14:
        return (math.log(hi * hi) ** (n + 1) - math.log(lo * lo) ** (n + 1)) / (
            2.0 * (n + 1)
        )
    if n == 0:
        return (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    boundary = (
        hi ** (m + 1) * math.log(hi * hi) ** n - lo ** (m + 1) * math.log(lo * lo) ** n
    ) / (m + 1)
    return boundary - (2.0 * n / (m + 1)) * power_log_integral(m, n - 1, lo, hi)


def _dyadic_disk_quad(
    smooth_pows: Callable[[np.ndarray, int], np.ndarray],
    smax: int,
    radial_exp: float,
    radial_logmax: int,
    mode: int,
    g: int,
    M: int,
    tol: float,
) -> np.ndarray:
    """Quadrature over the disk |z| <= 1/2 of a singular-smooth product.

    Returns T[s, r] = (1/2pi) iint rho^{radial_exp} (Log rho^2)^r
    e^{i mode theta} F_s(z) dx dy, where F_s is row s of
    smooth_pows(z, smax).  Radial panels are dyadic toward 0 with
    Gauss-Legendre nodes, the angular rule is the periodic trapezoid.
    """
    nodes, wts = _gl(g)
    theta = np.arange(M) * (2.0 * math.pi / M)
    phase = np.exp(1j * mode * theta)
    ring = np.exp(1j * theta)
    out = np.zeros((smax + 1, radial_logmax + 1), dtype=complex)
    hi = 0.5
    quiet = 0
    for _ in range(600):
        lo = hi / 2.0
        r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * wts
        z = r[:, None] * ring[None, :]
        F = smooth_pows(z, smax)  # (smax+1, g, M)
        ang = (F * phase[None, None, :]).mean(axis=2)  # (smax+1, g)
        rad = w * r ** (radial_exp + 1.0)
        lr = np.log(r * r)
        LP = np.array([lr**rp for rp in range(radial_logmax + 1)])  # (rmax+1, g)
        contrib = np.einsum("sg,rg,g->sr", ang, LP, rad)
        out += contrib
        if np.abs(contrib).max() < tol * (np.abs(out).max() + 1e-300):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        hi = lo
    return out


def _cut_collar_quad(
    pair_table: Callable[[np.ndarray], np.ndarray],
    g: int,
    ma: int,
) -> np.ndarray:
    """Quadrature over {1/2 <= |v| <= 3/2} minus the open disk |v-1| < 1/2.

    pair_table(v) returns an array (..., v.shape) of integrand values;
    the result has the leading shape.  The two radii where the excluded
    disk touches the annulus boundary produce sqrt-type corners in the
    angular width, removed by the substitution rho = end +/- xi^2.
    """
    nodes, wts = _gl(g)
    anodes, awts = _gl(ma)
    total: Optional[np.ndarray] = None
    for lo, hi, from_low in ((0.5, 1.0, True), (1.0, 1.5, False)):
        span = math.sqrt(hi - lo)
        xi = 0.5 * span * (nodes + 1.0)
        wxi = 0.5 * span * wts
        if from_low:
            rho = lo + xi**2
        else:
            rho = hi - xi**2
        wrad = 2.0 * xi * wxi * rho  # includes the area jacobian rho
        cosphi = np.clip((rho**2 + 0.75) / (2.0 * rho), -1.0, 1.0)
        phic = np.arccos(cosphi)
        half = math.pi - phic  # integrate theta over [phic, 2pi - phic]
        theta = math.pi + np.outer(half, anodes)  # (g, ma)
        wang = np.outer(half, awts) / (2.0 * math.pi)
        v = rho[:, None] * np.exp(1j * theta)
        vals = pair_table(v)  # (..., g, ma)
        acc = np.einsum("...nm,nm->...", vals, wang * wrad[:, None])
        total = acc if total is None else total + acc
    return total


# ---------------------------------------------------------------------------
# kernel evaluation


_LEVELS = (
    {"g": 12, "m0": 64, "ma": 48, "far_g": 12, "far_m": 96, "tol": 1e-13},
    {"g": 16, "m0": 96, "ma": 72, "far_g": 16, "far_m": 144, "tol": 5e-15},
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


@functools.lru_cache(maxsize=64)
def _inner_moments(spec: KernelSpec, level: int) -> np.ndarray:
    """Moments of the rescaled inner region |v| <= 3/2 in the u = s*v frame.

    Entry [jp, kp] integrates |1-v|^{2a} (1-v)^p (Log|1-v|^2)^jp *
    |v|^{2b} v^q (Log|v|^2)^kp over the inner region against
    (1/2pi) dx dy, with v^q conjugated for anti chirality.  These carry
    no s-dependence; the kernel's inner part is an exact prefactor times
    a binomial combination of them with powers of Log|s|^2.
    """
    af, bf, p, q, j, k, anti = _floats(spec)
    cfg = _LEVELS[level]
    m0 = max(cfg["m0"], 8 * max(p, q) + 16)

    def smooth_left(z: np.ndarray, smax: int) -> np.ndarray:
        base = np.abs(1.0 - z) ** (2.0 * af) * (1.0 - z) ** p
        lg = np.log(np.abs(1.0 - z) ** 2)
        return np.array([base * lg**s for s in range(smax + 1)])

    def smooth_right(z: np.ndarray, smax: int) -> np.ndarray:
        base = np.abs(1.0 + z) ** (2.0 * bf) * (
            np.conj(1.0 + z) ** q if anti else (1.0 + z) ** q
        )
        lg = np.log(np.abs(1.0 + z) ** 2)
        return np.array([base * lg**s for s in range(smax + 1)])

    mode_q = -q if anti else q
    patch0 = _dyadic_disk_quad(
        smooth_left, j, 2.0 * bf + q, k, mode_q, cfg["g"], m0, cfg["tol"]
    )  # (j+1, k+1)
    patch1 = (-1.0) ** p * _dyadic_disk_quad(
        smooth_right, k, 2.0 * af + p, j, p, cfg["g"], m0, cfg["tol"]
    ).T  # transpose to (j+1, k+1)

    def pair(v: np.ndarray) -> np.ndarray:
        f1 = np.abs(1.0 - v) ** (2.0 * af) * (1.0 - v) ** p
        l1 = np.log(np.abs(1.0 - v) ** 2)
        vq = np.conj(v) ** q if anti else v**q
        f2 = np.abs(v) ** (2.0 * bf) * vq
        l2 = np.log(np.abs(v) ** 2)
        base = f1 * f2
        table = np.empty((j + 1, k + 1) + v.shape, dtype=complex)
        for jp in range(j + 1):
            for kp in range(k + 1):
                table[jp, kp] = base * l1**jp * l2**kp
        return table

    collar = _cut_collar_quad(pair, 2 * cfg["g"], cfg["ma"])
    return patch0 + patch1 + collar


def _far_integral(spec: KernelSpec, s: complex, level: int) -> complex:
    """Annulus 3|s|/2 <= |u| <= 1 with the s-free surrogate subtracted."""
    af, bf, p, q, j, k, anti = _floats(spec)
    cfg = _LEVELS[level]
    m = max(cfg["far_m"], 8 * (p + q) + 32)
    g = cfg["far_g"]
    sigma = abs(s)
    lo = 1.5 * sigma

    edges = [lo]
    while edges[-1] < 1.0:
        edges.append(min(1.0, edges[-1] * 2.0))
    nodes, wts = _gl(g)
    rr: List[np.ndarray] = []
    ww: List[np.ndarray] = []
    for e0, e1 in zip(edges[:-1], edges[1:]):
        rr.append(0.5 * (e1 - e0) * nodes + 0.5 * (e1 + e0))
        ww.append(0.5 * (e1 - e0) * wts)
    R = np.concatenate(rr)
    W = np.concatenate(ww)

    theta = np.arange(m) * (2.0 * math.pi / m)
    U = R[:, None] * np.exp(1j * theta)[None, :]
    w = s / U
    x, y = w.real, w.imag
    lam = np.log1p(x * x + y * y - 2.0 * x)  # Log|1-w|^2
    E = af * lam + p * np.log(1.0 - w)
    L = np.log(R * R)[:, None]
    eE = np.exp(E)
    B = np.zeros_like(E)
    for i in range(1, j + 1):
        B = B + math.comb(j, i) * L ** (j - i) * lam**i
    em1 = (
        np.expm1(E.real) * np.cos(E.imag)
        - 2.0 * np.sin(E.imag / 2.0) ** 2
        + 1j * (np.exp(E.real) * np.sin(E.imag))
    )
    D = eE * B + L**j * em1
    uq = np.conj(U) ** q if anti else U**q
    P = (-U) ** p * uq * np.abs(U) ** (2.0 * (af + bf))
    vals = P * L**k * D
    far = complex(np.sum(W * R * vals.mean(axis=1)))

    # the subtracted surrogate |u|^{2(a+b)} (-u)^p u_or_ubar^q L^{j+k}
    # integrates to zero unless its angular mode vanishes
    if not anti and p == 0 and q == 0:
        far += power_log_integral(2.0 * (af + bf) + 1.0, j + k, lo, 1.0)
    elif anti and p == q:
        far += (-1.0) ** p * power_log_integral(
            2.0 * (af + bf + p) + 1.0, j + k, lo, 1.0
        )
    return far


def _assemble(spec: KernelSpec, s: complex, level: int) -> Tuple[complex, float]:
    af, bf, p, q, j, k, anti = _floats(spec)
    mom = _inner_moments(spec, level)
    ls = math.log(abs(s) ** 2)
    inner = 0j
    gross = 0.0
    for jp in range(j + 1):
        for kp in range(k + 1):
            c = math.comb(j, jp) * math.comb(k, kp) * ls ** ((j - jp) + (k - kp))
            inner += c * mom[jp, kp]
            gross += abs(c * mom[jp, kp])
    pref = abs(s) ** (2.0 * (af + bf + 1.0)) * s**p
    pref *= np.conj(s) ** q if anti else s**q
    far = _far_integral(spec, s, level)
    value = pref * inner + far
    return complex(value), float(abs(pref) * gross + abs(far))


def eval_kernel_integral(
    spec: KernelSpec,
    s: complex,
    tolerance: float = 1e-6,
) -> complex:
    """Value of the kernel at the sample point s, 0 < |s| <= 1/4.

    The integral is evaluated at two resolutions and ToleranceNotMet is
    raised when they disagree by more than ``tolerance`` relative to the
    value, or to a thousandth of the gross (unsigned) magnitude when
    cancellation dominates the value itself.
    """
    s = complex(s)
    sigma = abs(s)
    if not (0.0 < sigma <= 0.25):
        raise ValueError("sample point must satisfy 0 < |s| <= 1/4, got |s|=%g" % sigma)
    v0, gross0 = _assemble(spec, s, 0)
    v1, gross1 = _assemble(spec, s, 1)
    delta = abs(v1 - v0)
    scale = max(abs(v1), 1e-3 * max(gross0, gross1), 1e-300)
    if delta > tolerance * scale:
        raise ToleranceNotMet(
            "refinement moved the value by %.3e relative (tolerance %.1e) at |s|=%.3e"
            % (delta / scale, tolerance, sigma),
            achieved=delta / scale,
        )
    return v1


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


@dataclass(frozen=True)
class FitResult:
    """Least-squares readout of the small-|s| expansion of one kernel.

    ``singular`` collects the coefficients of
    |s|^{2(a+b+1)} sigma^{p+q} (Log sigma^2)^l in log-degree order (slot
    0 may be structurally absent for resonant exponents, where it is not
    separable from the smooth part; it is reported as zero).  ``smooth``
    pairs each modelled smooth power 2t with its coefficient.
    """

    case: CaseTag
    singular: LogPolynomial
    smooth: Tuple[Tuple[int, float], ...]
    condition_number: float
    residual: float


def fit_radial_samples(
    spec: KernelSpec,
    grid: SampleGrid,
    values: Sequence[float],
    force_log_degree: Optional[int] = None,
) -> FitResult:
    """Fit the singular plus smooth model to externally supplied samples.

    ``values`` holds the raw kernel values at grid.radii (real parts);
    the monomial phase sigma^{p+q} is divided out here.  The singular
    block uses log powers l = l_min..L with L from the degree rule
    (l_min = 1 when a+b+1 is a natural number, since the log-free
    singular column is then indistinguishable from a smooth power).
    ``force_log_degree`` overrides L, which is how a Smooth kernel is
    checked to have no singular content: fit the columns anyway and see
    that their coefficients vanish.

    Raises IllConditioned when a non-resonant exponent sits within 1e-3
    of a modelled smooth power, or when the scaled design matrix has
    condition number >= 1e8.
    """
    if len(values) != len(grid.radii):
        raise ValueError(
            "got %d samples for %d radii" % (len(values), len(grid.radii))
        )
    case = classify_case(spec.a, spec.b, spec.j, spec.k)
    x = spec.a + spec.b + 1
    xf = float(x)
    resonant_exponent = is_natural(x)
    l_min = 1 if resonant_exponent else 0
    L = degree_rule(spec.a, spec.b, spec.j, spec.k)
    if force_log_degree is not None:
        L = force_log_degree
    T = _SMOOTH_CUTOFF
    t_min = -spec.p if spec.chirality is Chirality.ANTI else 0

    if not resonant_exponent and L >= l_min:
        gap = min(abs(xf - t) for t in range(t_min, T + 1))
        if gap < 1e-3:
            raise IllConditioned(
                "exponent a+b+1 = %.6f lies within 1e-3 of a smooth power; "
                "use the resonant model only for exact resonance" % xf
            )

    n_sing = max(0, L - l_min + 1)
    n_cols = n_sing + (T - t_min + 1)
    if len(grid.radii) < n_cols + 2:
        raise ValueError(
            "grid has %d radii but the model has %d columns; need at least %d"
            % (len(grid.radii), n_cols, n_cols + 2)
        )

    sig = np.array(grid.radii)
    y = np.asarray(values, dtype=float) / sig ** (spec.p + spec.q)
    cols: List[np.ndarray] = []
    labels: List[Tuple[str, int]] = []
    lss = np.log(sig**2)
    for l in range(l_min, L + 1):
        cols.append(sig ** (2.0 * xf) * lss**l)
        labels.append(("singular", l))
    for t in range(t_min, T + 1):
        cols.append(sig ** (2.0 * t))
        labels.append(("smooth", t))
    coeffs, resid, As = scaled_lstsq(np.column_stack(cols), y)
    cond = float(np.linalg.cond(As))
    if cond >= 1e8:
        raise IllConditioned(
            "design matrix condition number %.3e exceeds 1e8" % cond
        )

    sing = [0.0] * (max(L, -1) + 1)
    smooth: List[Tuple[int, float]] = []
    for (kind, idx), c in zip(labels, coeffs):
        if kind == "singular":
            sing[idx] = float(c)
        else:
            smooth.append((idx, float(c)))
    singular = LogPolynomial.of_coeffs(sing) if sing else LogPolynomial.zero()
    return FitResult(
        case=case,
        singular=singular,
        smooth=tuple(smooth),
        condition_number=cond,
        residual=resid,
    )


def _kernel_samples(spec: KernelSpec, grid: SampleGrid) -> List[float]:
    """Real parts of eval_kernel_integral along the real-sigma ray."""
    return [
        eval_kernel_integral(spec, r, tolerance=grid.tolerance).real
        for r in grid.radii
    ]


def extract_leading_coeffs(
    spec: KernelSpec,
    grid: Optional[SampleGrid] = None,
    force_log_degree: Optional[int] = None,
) -> FitResult:
    """Evaluate the kernel on the grid and fit the expansion model."""
    if grid is None:
        grid = default_grid(spec)
    return fit_radial_samples(
        spec, grid, _kernel_samples(spec, grid), force_log_degree=force_log_degree
    )


# ---------------------------------------------------------------------------
# direct finite-part construction (independent route to G_q)


def _disk3_pieces(af: float, bf: float, q: int, g: int, m: int) -> float:
    """Numeric part of the |t| <= 3 integral of |1-t|^{2a} t^q |t|^{2b}.

    Covers everything at distance >= 1/2 from the origin: the unit-point
    patch, the cut collar, and the full annulus out to 3.  The origin
    patch is returned by _disk3_origin_series instead.
    """

    def smooth_right(z: np.ndarray, smax: int) -> np.ndarray:
        return (np.abs(1.0 + z) ** (2.0 * bf) * (1.0 + z) ** q)[None, ...]

    patch1 = _dyadic_disk_quad(smooth_right, 0, 2.0 * af, 0, 0, g, m, 1e-14)[0, 0]

    def pair(v: np.ndarray) -> np.ndarray:
        return (
            np.abs(1.0 - v) ** (2.0 * af)
            * np.abs(v) ** (2.0 * bf)
            * v**q
        )[None, ...]

    collar = _cut_collar_quad(pair, 2 * g, 64)[0]

    # full annulus 3/2 <= |t| <= 3, smooth integrand, trapezoid x GL
    nodes, wts = _gl(2 * g)
    theta = np.arange(m) * (2.0 * math.pi / m)
    ring = np.exp(1j * theta)
    total = 0.0 + 0.0j
    for e0, e1 in ((1.5, 2.25), (2.25, 3.0)):
        r = 0.5 * (e1 - e0) * nodes + 0.5 * (e1 + e0)
        w = 0.5 * (e1 - e0) * wts
        t = r[:, None] * ring[None, :]
        vals = np.abs(1.0 - t) ** (2.0 * af) * np.abs(t) ** (2.0 * bf) * t**q
        total += np.sum(w * r * vals.mean(axis=1))
    return float((patch1 + collar + total).real)


def _disk3_origin_series(a: RealInput, bf: float, q: int) -> float:
    """Origin patch |t| <= 1/2 summed through the angular coefficients.

    The angular average of |1-t|^{2a} e^{iq theta} at radius rho equals
    sum_r gamma^r rho^r with geometric convergence for rho <= 1/2, so the
    patch reduces to an explicit series; this leaves all brute-force
    weight on the regions where no series is available.
    """
    acc = 0.0
    quiet = 0
    r = q
    while r <= 800:
        gam = fourier_coefficient(a, q, r)
        den = 2.0 * bf + q + 2.0 + r
        term = gam * 0.5**den / den
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-30):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        r += 2
    return acc


def _outer_tail(
    a: RealInput,
    af: float,
    q: int,
    c: float,
    N: int,
    g: int,
    m: int,
) -> float:
    """Numeric integral of rho^{c-1} (A(rho) - sum_{r<=N} gamma^r rho^-r)
    over [3, R_out], the radially truncated tail of the construction.

    A(rho) is computed by direct angular quadrature at x = 1/rho; the
    partial sum uses the closed-form angular coefficients.  R_out is
    chosen so the first omitted term integrates below 1e-12.
    """
    r_next = N + 1 if (N + 1 - q) % 2 == 0 else N + 2
    gam_next = fourier_coefficient(a, q, r_next)
    exact, _ = _split(a)
    if exact is not None and is_natural(exact):
        if N >= max(2 * int(exact) - q, 0):
            return 0.0  # the angular average is a polynomial fully subtracted
    if gam_next == 0.0:
        r_next += 2
        gam_next = fourier_coefficient(a, q, r_next)
    if gam_next == 0.0:
        return 0.0
    target = 1e-12
    r_out = (abs(gam_next) / (target * max(r_next - c, 1.0))) ** (1.0 / (r_next - c))
    r_out = min(max(r_out, 6.0), 1e5)

    nodes, wts = _gl(g)
    theta = np.arange(m) * (2.0 * math.pi / m)
    phase = np.exp(1j * q * theta)
    emt = np.exp(-1j * theta)
    rs = np.arange(0, N + 1)
    gammas = np.array([fourier_coefficient(a, q, int(r)) for r in rs])

    total = 0.0
    e0 = 3.0
    while e0 < r_out:
        e1 = min(r_out, e0 * 2.0)
        rho = 0.5 * (e1 - e0) * nodes + 0.5 * (e1 + e0)
        w = 0.5 * (e1 - e0) * wts
        x = 1.0 / rho
        vals = np.abs(1.0 - x[:, None] * emt[None, :]) ** (2.0 * af)
        A = (vals * phase[None, :]).mean(axis=1).real
        S = np.zeros_like(rho)
        for r_idx, gam in zip(rs, gammas):
            if gam != 0.0:
                S += gam * x ** float(r_idx)
        total += float(np.sum(w * rho ** (c - 1.0) * (A - S)))
        e0 = e1
    return total


def finite_part_direct(
    a: RealInput, b: RealInput, q: int, N: int = 12
) -> float:
    """Finite part of the plane integral of |1-t|^{2a} t^q |t|^{2b} by the
    truncate-and-correct construction, with no Gamma-ratio input.

    N is the Fourier subtraction depth; any N > 2(a+b+1) + q + 1 gives
    the same value up to quadrature error, which is itself a test.  The
    resonant case a+b+1 in {0, 1, 2, ...} has a pole here and is a
    domain error: the truncate-and-correct limit does not exist as a
    plain number on the resonance locus, where the kernel picks up a
    log term instead.  Resonant constants are checked through the
    log-column fit of extract_leading_coeffs, not through this route.
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
    c = 2.0 * (af + bf + 1.0) + q
    if N <= c + 1.0:
        raise ValueError("need N > 2(a+b+1)+q+1 for a convergent tail")

    value = _disk3_origin_series(a if a_ex is None else a_ex, bf, q)
    value += _disk3_pieces(af, bf, q, 14, 128)
    value += _outer_tail(a if a_ex is None else a_ex, af, q, c, N, 16, 128)
    for r in range(0, N + 1):
        gam = fourier_coefficient(a if a_ex is None else a_ex, q, r)
        if gam != 0.0:
            value += gam * 3.0 ** (c - r) / (r - c)
    return value


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
    grid: SampleGrid,
    values: Sequence[float],
    case: CaseTag,
    closed: float,
    normalization: float,
) -> VerificationReport:
    """Fit kernel samples and compare with the closed-form constant.

    ``closed`` is the normalized prediction base * ``normalization``; the
    measured normalization is fitted / base.  Smooth kernels ignore both
    and fit singular columns up to log degree max(j + k, 1) anyway: their
    error is the largest fitted coefficient, which should vanish.
    """
    if case is CaseTag.SMOOTH:
        probe = max(spec.j + spec.k, 1)
        fit = fit_radial_samples(spec, grid, values, force_log_degree=probe)
        closed = 0.0
        error = max(abs(fit.singular.coefficient(l)) for l in range(probe + 1))
        measured: Optional[float] = None
    else:
        fit = fit_radial_samples(spec, grid, values)
        fitted = fit.singular.coefficient(max(fit.singular.degree, 0)).real
        error = abs(fitted - closed) / abs(closed)
        measured = fitted / (closed / normalization)
    return VerificationReport(
        spec=spec,
        case=case,
        fitted_coeffs=fit.singular,
        closed_form=closed,
        relative_error=error,
        condition_number=fit.condition_number,
        normalization_used=measured,
    )


def verify_constant(
    spec: KernelSpec, grid: Optional[SampleGrid] = None
) -> VerificationReport:
    """Fit the kernel on the grid and compare with the closed-form constant.

    Routes through the same case classification as the convolution
    engine; BothInteger kernels outside j = k = 1 have no asserted
    closed form and raise ValueError.
    """
    if grid is None:
        grid = default_grid(spec)
    case, base, norm = kernel_leading_constant(
        spec.p, spec.q, spec.a, spec.b, spec.j, spec.k, spec.chirality
    )
    values = _kernel_samples(spec, grid)
    return fit_and_compare(spec, grid, values, case, base * norm, norm)
