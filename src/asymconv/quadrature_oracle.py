"""Quadrature oracle for the convolution kernel constants.

Evaluates the model kernel

    K(s) = (1/2pi) iint_{|u| <= 1}  |s-u|^{2a} (s-u)^p (Log|s-u|^2)^j
                                  * |u|^{2b} (u^q or ubar^q) (Log|u|^2)^k  dx dy

by singular-aware quadrature, fits its small-|s| expansion on a geometric
radius grid, and compares the fitted leading singular coefficient against
the closed-form Gamma-factor constants.  Everything here is independent
of those closed forms: nothing is taken from gamma_kernel but the
chirality type and the exact-or-float split of a parameter.

Region scheme for K(s): inside |u| <= 3|s|/2 the substitution u = s*v
removes all s-dependence except an exact prefactor and binomial log
shifts.  One cache entry per kernel (_inner_moments) holds everything
that depends on neither s nor the sample radius: the far field's mode
coefficients and the inner table of each refinement level, whose two
disk series are computed once for both; every sample radius reuses it.
Outside the collar (the annulus 1/2 <= |v| <= 3/2 less the disk
|v - 1| < 1/2), every angular mean is one explicit power series: the one
Fourier mode of |1-w|^{2a} (1-w)^p that survives, with its own
Pochhammer recurrence (_mode_coefficients).  The two disks |v| <= 1/2
and |v - 1| <= 1/2 integrate its powers exactly, the far annulus
3|s|/2 <= |u| <= 1 leaves only its radial integral to quadrature, and
finite_part_direct continues it exactly beyond |t| = 3/2.  Only the
collar, which touches |v| = 1 where no such series converges
geometrically, is plain two-dimensional quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .convolution_engine import CaseTag, classify_case, kernel_leading_constant
from .expansion_algebra import LogPolynomial, as_fraction, degree_rule, is_natural
from .gamma_kernel import Chirality, RealInput, _split


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

    For total monomial degree p + q >= 4 the deepest radii are dropped.
    On the oracle sweep of ROADMAP.md, all sixteen radii turn seven of the
    eight anti (3, 2) specs that the shorter grid refuses (too few radii
    for the model) into wrong constants: their deep samples carry almost
    no singular signal.
    """
    depth = 16
    if spec is not None and spec.p + spec.q >= 4:
        depth = 12
    return SampleGrid(radii=tuple(0.2 * 2.0**-i for i in range(depth)))


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


#: Terms of every angular series.  Their variable is at most 2/3 (far
#: field, outer part of the finite part) or 1/2 (inner disks), and the
#: coefficients grow at most polynomially, so the dropped tail is of order
#: (4/9)^80 < 1e-28 of the leading term; 40 terms already reach roundoff.
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


def _mode_coefficients(
    c: float, extra: int, n: int, order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Angular mode n of |1-w|^{2c} (1-w)^extra as a power series in |w|.

    Returns (powers, coefficients): row beta - max(0, -n) holds the power
    2 beta + n and the Taylor coefficients in e, to e^order, of
    [(-c-e-extra)_(beta+n)/(beta+n)!] [(-c-e)_beta/beta!], the coefficient
    of w^(beta+n) wbar^beta once (1-w)^(c+extra) (1-wbar)^c is multiplied
    out.  The mean of e^{-i n arg w} |1-w|^{2c} (1-w)^extra (Log|1-w|^2)^i
    is therefore i! times column i summed against |w|^powers.
    """
    b0 = max(0, -n)
    first = _pochhammer_jets(c + extra, b0 + n + _SERIES_TERMS, order)[b0 + n :]
    second = _pochhammer_jets(c, b0 + _SERIES_TERMS, order)[b0:]
    out = np.zeros((_SERIES_TERMS, order + 1))
    for i in range(order + 1):
        for l in range(i + 1):
            out[:, i] += first[:, l] * second[:, i - l]
    return 2 * np.arange(b0, b0 + _SERIES_TERMS) + n, out


def _disk_moments(
    c: float, extra: int, n: int, order: int, radial_exp: float, logmax: int
) -> np.ndarray:
    """Moments over the disk |z| <= 1/2 from the angular mode series.

    T[i, r] = (1/2pi) iint rho^radial_exp (Log rho^2)^r e^{-i n theta}
    |1-z|^{2c} (1-z)^extra (Log|1-z|^2)^i dx dy for i <= order, r <= logmax.
    Every power of the series integrates exactly:
    int_0^{1/2} rho^{E-1} (Log rho^2)^r drho
      = (1/2)^E sum_l r!/(r-l)! (-2)^l (Log 1/4)^{r-l} / E^{l+1},
    with E = radial_exp + 2 + 2 beta + n > 0 for every integrable case.
    """
    powers, coeffs = _mode_coefficients(c, extra, n, order)
    E = radial_exp + 2.0 + powers
    log_edge = math.log(0.25)
    radial = np.array(
        [
            sum(
                math.perm(r, l) * (-2.0) ** l * log_edge ** (r - l) / E ** (l + 1)
                for l in range(r + 1)
            )
            for r in range(logmax + 1)
        ]
    ) * 0.5**E
    factorials = [math.factorial(i) for i in range(order + 1)]
    return (coeffs * factorials).T @ radial.T


def _disks_table(
    af: float, bf: float, p: int, q: int, j: int, k: int, anti: bool
) -> np.ndarray:
    """The disk |v| <= 1/2 plus, through v = 1 - z, the disk |v - 1| <= 1/2:
    series in the one surviving angular mode (no (-1)^p: (1-v)^p = z^p).
    Neither depends on the refinement level."""
    patch0 = _disk_moments(af, p, q if anti else -q, j, 2.0 * bf + q, k)
    patch1 = _disk_moments(bf, q, p if anti else -p, k, 2.0 * af + p, j).T
    return patch0 + patch1


def _collar_table(
    af: float, bf: float, p: int, q: int, j: int, k: int, anti: bool, level: int
) -> np.ndarray:
    """The collar between the two disks, which touches |v| = 1 where
    neither series converges geometrically, by quadrature at ``level``."""

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

    cfg = _LEVELS[level]
    return _cut_collar_quad(pair, 2 * cfg["g"], cfg["ma"])


def _inner_table(
    af: float, bf: float, p: int, q: int, j: int, k: int, anti: bool, level: int
) -> np.ndarray:
    """Float-parameter inner table of one level, disks + collar; b + q/2
    may be <= -1 here as long as b + q > -1, which keeps the angular mean
    integrable at 0."""
    return _disks_table(af, bf, p, q, j, k, anti) + _collar_table(
        af, bf, p, q, j, k, anti, level
    )


class _SpecSeries(NamedTuple):
    """One entry of _inner_moments."""

    powers: np.ndarray
    coeffs: np.ndarray
    tables: Tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=64)
def _inner_moments(spec: KernelSpec) -> _SpecSeries:
    """The one per-spec cache of the oracle: each series of a kernel once.

    ``powers`` and ``coeffs`` are the far field's angular mode series,
    _mode_coefficients(a, p, n, j).  ``tables[level]`` holds the moments
    of the rescaled inner region |v| <= 3/2 in the u = s*v frame: entry
    [jp, kp] integrates |1-v|^{2a} (1-v)^p (Log|1-v|^2)^jp *
    |v|^{2b} v^q (Log|v|^2)^kp over it against (1/2pi) dx dy, with v^q
    conjugated for anti chirality.  Both levels share one disk table and
    add their own collar, bit for bit as _inner_table does.  Nothing here
    depends on s; the kernel's inner part is an exact prefactor times a
    binomial combination of the moments with powers of Log|s|^2.
    """
    params = _floats(spec)
    af, _, p, q, j, _, anti = params
    powers, coeffs = _mode_coefficients(af, p, p - q if anti else p + q, j)
    disks = _disks_table(*params)
    tables = _frozen(*(disks + _collar_table(*params, level) for level in (0, 1)))
    return _SpecSeries(*_frozen(powers, coeffs), tables)


def _far_integral(spec: KernelSpec, s: complex, level: int) -> complex:
    """Annulus 3|s|/2 <= |u| <= 1 through the one angular mode that survives.

    With u = R e^{i theta} and w = s/u, the angular mean of the integrand
    keeps only the e^{-i n theta} mode of |1-w|^{2a} (1-w)^p (Log|1-w|^2)^i,
    n = p + q (holo) or p - q (anti).  That mode is (s/|s|)^n times the
    a-derivative d_a^i M_n(x), x = |s|/R, of the power series M_n summed by
    _mode_coefficients; only the radial integral is left to quadrature.
    """
    af, bf, p, q, j, k, anti = _floats(spec)
    n = p - q if anti else p + q
    sigma = abs(s)
    edges = [1.5 * sigma]
    while edges[-1] < 1.0:
        edges.append(min(1.0, edges[-1] * 2.0))
    nodes, wts = _gl(_LEVELS[level]["g"])
    e0 = np.array(edges[:-1])[:, None]
    e1 = np.array(edges[1:])[:, None]
    R = (0.5 * (e1 - e0) * nodes + 0.5 * (e1 + e0)).ravel()
    W = (0.5 * (e1 - e0) * wts).ravel()

    x = (sigma / R)[:, None]
    powers, coeffs, _ = _inner_moments(spec)
    # powers that underflow are slow to compute and below 1e-304 anyway
    live = np.log(x) * powers > -700.0
    xp = np.power(x, powers, out=np.zeros(live.shape), where=live)
    modes = xp @ coeffs  # (nodes, j + 1)
    L = np.log(R * R)
    radial = np.zeros_like(R)
    for i in range(j + 1):
        radial += math.perm(j, i) * L ** (j - i) * modes[:, i]  # C(j,i) i!
    radial *= W * R ** (p + q + 2.0 * (af + bf) + 1.0) * L**k
    return (-1.0) ** p * (s / sigma) ** n * float(np.sum(radial))


def _assemble(spec: KernelSpec, s: complex, level: int) -> Tuple[complex, float]:
    af, bf, p, q, j, k, anti = _floats(spec)
    mom = _inner_moments(spec).tables[level]
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


def finite_part_direct(a: RealInput, b: RealInput, q: int) -> float:
    """Finite part of the plane integral of |1-t|^{2a} t^q |t|^{2b}
    against (1/2pi) dx dy, with no Gamma-ratio input.

    The near part |t| <= 3/2 is entry [0, 0] of the inner table of the
    kernel (a, b, 0, q, 0, 0): two disk series and the collar.  Beyond
    3/2 the angular mean is sum_beta C_beta rho^-r, r = 2 beta + q, the
    mode q of |1 - 1/t|^{2a}; each power integrates against rho^{c-1},
    c = 2(a+b+1) + q, to the exact continuation (3/2)^{c-r} / (r - c).
    The resonant case a+b+1 in {0, 1, 2, ...} puts r = c on a pole and
    is a domain error: the finite part does not exist as a plain number
    on the resonance locus, where the kernel picks up a log term instead.
    Resonant constants are checked through the log-column fit of
    extract_leading_coeffs, not through this route.
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
    near = _inner_table(af, bf, 0, q, 0, 0, False, 1)[0, 0].real
    r, coeffs = _mode_coefficients(af, 0, q, 0)
    return float(near + coeffs[:, 0] @ (1.5 ** (c - r) / (r - c)))


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
