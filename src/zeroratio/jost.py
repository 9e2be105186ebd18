"""Fourier-Laplace models: kernels, their transforms, and asymptotic fits.

A kernel K on [0, infinity) defines the function

    psi(z) = 1 + integral_0^infinity K(t) * exp(i z t) dt,

entire whenever K decays fast enough.  Each kernel kind has one evaluator:
piecewise-polynomial kernels the exact closed form (integration by parts per
piece, with a moment series taking over near z = 0), super-exponential
kernels adaptive Gauss-Kronrod quadrature that refines each point's panels.
The module also fits the two class parameters of such functions from samples: the ray
constants (C1, mu) of |psi - 1| along a ray and the growth triple
(C0, sigma, rho) from circle maxima.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .constants import ParameterError
from .factors import cexpm1
from .zeros import AnalyticFn, doubling_circle


class DivergenceError(RuntimeError):
    """The defining integral cannot be brought to tolerance for this argument."""


class NoDecayError(RuntimeError):
    """|f - 1| fails to decay along the sampled ray."""


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """A real kernel on [0, infinity).

    kind "piecewise": polynomial pieces between consecutive knots; piece i
    lives on [knots[i], knots[i+1]] with coefficients coeffs[i] in ascending
    powers of t.  kind "superexp": K(t) = C * exp(-(t/2)**gamma) with
    gamma > 1.
    """

    kind: str
    knots: tuple[float, ...] = ()
    coeffs: tuple[tuple[float, ...], ...] = ()
    gamma: float | None = None
    C: float | None = None

    def __post_init__(self):
        if self.kind == "piecewise":
            if len(self.knots) < 2:
                raise ParameterError("piecewise kernel needs at least two knots")
            if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
                raise ParameterError("knots must be strictly increasing")
            if self.knots[0] < 0:
                raise ParameterError("kernel support must lie in t >= 0")
            if len(self.coeffs) != len(self.knots) - 1:
                raise ParameterError("need one coefficient row per piece")
            if any(len(c) == 0 for c in self.coeffs):
                raise ParameterError("empty coefficient row")
        elif self.kind == "superexp":
            if self.gamma is None or self.gamma <= 1.0:
                raise ParameterError("superexp kernel needs gamma > 1")
            if self.C is None or self.C <= 0.0:
                raise ParameterError("superexp kernel needs C > 0")
        else:
            raise ParameterError(f"unknown kernel kind {self.kind!r}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def piecewise(cls, knots: Sequence[float], coeffs: Sequence[Sequence[float]]) -> "Kernel":
        return cls(
            kind="piecewise",
            knots=tuple(float(k) for k in knots),
            coeffs=tuple(tuple(float(c) for c in row) for row in coeffs),
        )

    @classmethod
    def constant(cls, value: float, support: float) -> "Kernel":
        """K = value on [0, support], zero beyond."""
        return cls.piecewise([0.0, support], [[value]])

    @classmethod
    def superexp(cls, C: float, gamma: float) -> "Kernel":
        return cls(kind="superexp", gamma=float(gamma), C=float(C))

    # -- evaluation ----------------------------------------------------------

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "superexp":
            out = np.where(t >= 0.0, self.C * np.exp(-np.abs(t / 2.0) ** self.gamma), 0.0)
        else:
            out = np.zeros_like(t)
            for i in range(len(self.coeffs)):
                a, b = self.knots[i], self.knots[i + 1]
                # include the right endpoint of the last piece
                mask = (t >= a) & ((t < b) if i < len(self.coeffs) - 1 else (t <= b))
                if np.any(mask):
                    out[mask] = np.polyval(self.coeffs[i][::-1], t[mask])
        if out.ndim == 0:
            return float(out)
        return out

    def value_at_zero(self) -> float:
        return float(self.value(0.0))

    def moment(self, n: int) -> float:
        """integral of t^n * K(t) dt over the support, exact; piecewise kernels only."""
        if n < 0:
            raise ParameterError("moment order must be nonnegative")
        if self.kind != "piecewise":
            raise ParameterError("moments are defined for piecewise kernels only")
        total = 0.0
        for i, row in enumerate(self.coeffs):
            a, b = self.knots[i], self.knots[i + 1]
            for m, c in enumerate(row):
                k = m + n + 1
                total += c * (b**k - a**k) / k
        return total

    def _superexp_cutoff(self, z: np.ndarray) -> np.ndarray:
        """Per point, the first T = 4 * 1.5^k, k >= 0, with T*C*exp(-(T/2)^gamma + max(-Im z, 0)*T)
        below 1e-18; for y = Im z > 0 the first T, k >= -64, with the decreasing kernel's tail
        bound C*exp(-(T/2)^gamma - yT)/y below 1e-18, if that T is smaller."""
        k = np.arange(-64, 64)
        t, y, floor = 4.0 * 1.5 ** k, z.imag[:, None], math.log(1e-18 / self.C)
        decay = -((t / 2.0) ** self.gamma)
        below = (k >= 0) & (decay + np.maximum(-y, 0.0) * t + np.log(t) <= floor)
        below |= (y > 0.0) & (decay - y * t - np.log(np.where(y > 0.0, y, 1.0)) <= floor)
        if not np.all(np.any(below, axis=1)):
            raise DivergenceError("kernel tail never drops below the quadrature floor")
        return t[np.argmax(below, axis=1)]

    def tail_exponent_peak(self, growth: float) -> float:
        """max over t >= 0 of -(t/2)^gamma + growth*t for growth >= 0 (superexp only)."""
        t_star = 2.0 * (2.0 * growth / self.gamma) ** (1.0 / (self.gamma - 1.0))
        return -((t_star / 2.0) ** self.gamma) + growth * t_star


def kernel_to_json(kernel: Kernel) -> dict:
    if kernel.kind == "piecewise":
        return {"kind": "piecewise-polynomial", "knots": list(kernel.knots),
                "coeffs": [list(row) for row in kernel.coeffs]}
    return {"kind": "super-exponential", "gamma": kernel.gamma, "C": kernel.C}


_KIND_ALIASES = {
    "piecewise": "piecewise",
    "piecewise-polynomial": "piecewise",
    "superexp": "superexp",
    "super-exponential": "superexp",
}


def kernel_from_json(data: dict) -> Kernel:
    kind = _KIND_ALIASES.get(str(data.get("kind", "")).lower())
    if kind is None:
        raise ParameterError(f"unknown kernel kind {data.get('kind')!r}")
    if kind == "piecewise":
        return Kernel.piecewise(data["knots"], data["coeffs"])
    return Kernel.superexp(float(data["C"]), float(data["gamma"]))


def load_kernel(path) -> Kernel:
    """Read a kernel file; one that is not a kernel's JSON raises ParameterError."""
    with open(path) as fh:
        try:
            return kernel_from_json(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed kernel file {path}: {exc!r}") from exc


def save_kernel(kernel: Kernel, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(kernel_to_json(kernel), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Gauss-Kronrod quadrature (7/15 pair), adapted point by point
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

# nodes on [-1, 1], the negative ones first; the pair weights count the
# center node, which pairs with itself, at half weight
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[:-1][::-1]])
_WGK_PAIRS, _WG_PAIRS = (np.append(w[:-1], w[-1] / 2.0) for w in (_WGK, _WG))

# new panels are evaluated this many at a time, so the node arrays stay small
_ROW_CHUNK = 1024
_PEAK_LIMIT = 690.0  # largest log of an integrand peak that the quadrature takes on


def _gk_rows(kernel: Kernel, z: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """K15 value, |K15 - G7| error and L1 mass of panel [lo, hi] against z, per row.

    With a = Re z, h the half width and m = K(t) e^{-t Im z}, the node pair
    mid -+ h x_j contributes e^{i a mid} [cos(a h x_j) (m_- + m_+) -
    i sin(a h x_j) (m_- - m_+)]: one sine and cosine per pair, one rotation per row.
    """
    half = (hi - lo) / 2.0
    mid = (lo + hi) / 2.0
    t = mid + half * _NODES[:, None]
    # m is formed in the exponent: past the integrand peak e^{-t Im z} alone
    # overflows while K underflows, and the direct product would be inf * 0
    if kernel.kind == "superexp":
        m = np.exp(math.log(kernel.C) - (t / 2.0) ** kernel.gamma - z.imag * t)
    else:
        kt = kernel.value(t)
        with np.errstate(divide="ignore"):
            m = np.sign(kt) * np.exp(np.log(np.abs(kt)) - z.imag * t)
    # per node pair, the center paired with itself: the cos-weighted sum, the
    # sin-weighted difference and the mass
    theta = z.real * half * _XGK[:, None]
    m_neg, m_pos = m[:8], m[:6:-1]
    q = np.stack([np.cos(theta) * (m_neg + m_pos), np.sin(theta) * (m_neg - m_pos), np.abs(m_neg) + np.abs(m_pos)], axis=1)
    # summed node by node, not by a matrix product, so that every row gets
    # the same arithmetic whatever rows share its batch
    a15, b15, mass = half * sum(w * qj for w, qj in zip(_WGK_PAIRS, q))
    a7, b7 = half * sum(w * qj for w, qj in zip(_WG_PAIRS, q[1::2, :2]))
    v15 = np.exp(1j * z.real * mid) * (a15 - 1j * b15)
    return v15, np.abs((a15 - a7) - 1j * (b15 - b7)), mass


def _integrate_batch(kernel: Kernel, z: np.ndarray, tol: float) -> np.ndarray:
    """integral_0^T K(t) e^{izt} dt for a batch of z, each point on its own panels.

    A point starts on [0, T(z)] (at the knots of a piecewise kernel; where the
    tail, with the decay of e^{izt} for Im z > 0, drops below 1e-18 for a
    super-exponential one), cut to a few oscillations of e^{izt} per panel.
    Each round every unfinished point splits the panels whose error exceeds a
    quarter of its mean panel error, and one vectorized pass evaluates all
    new panels.  A point is done when its summed error is below
    tol * max(1, |value|) or below the roundoff floor 32 eps M(z), with
    M(z) = integral |K(t) e^{izt}| dt its L1 mass: no more can be certified
    where the integral cancels.  A value thus depends on its own point alone.
    """
    z = np.asarray(z, dtype=complex).ravel()
    n = len(z)
    if kernel.kind == "superexp":
        peak = kernel.tail_exponent_peak(float(np.max(-z.imag, initial=0.0))) + math.log(kernel.C)
        if peak > _PEAK_LIMIT:
            raise OverflowError(f"integrand peak exp({peak:.1f}) exceeds double-precision range")
        T = kernel._superexp_cutoff(z)
        knots = np.column_stack([np.zeros(n), T])
    else:
        seeds = ((0.0,) if kernel.knots[0] > 0.0 else ()) + kernel.knots
        knots = np.broadcast_to(seeds, (n, len(seeds)))
        T = knots[:, -1]
    # seed panel width follows the oscillation scale of exp(izt)
    width_cap = np.maximum(T / 4096.0, np.minimum(T, 6.0 / (1.0 + np.abs(z) / 3.0)))
    a, b = knots[:, :-1].ravel(), knots[:, 1:].ravel()
    n_sub = np.ceil((b - a) / np.repeat(width_cap, knots.shape[1] - 1)).astype(int)
    piece = np.repeat(np.arange(len(a)), n_sub)
    k = np.arange(len(piece)) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    # the panel table, one column per panel: point, lo, hi, Re K15, Im K15,
    # |K15 - G7| and L1 mass; a point's columns are ordered by its own history
    tab = np.zeros((7, len(piece)))
    tab[0] = piece // (knots.shape[1] - 1)
    tab[1] = a[piece] + (b - a)[piece] * k / n_sub[piece]
    tab[2] = np.where(k + 1 == n_sub[piece], b[piece], a[piece] + (b - a)[piece] * (k + 1) / n_sub[piece])

    out = np.empty(n, dtype=complex)
    fresh = 0
    for _round in range(64):
        for s in range(fresh, tab.shape[1], _ROW_CHUNK):
            p, lo, hi, re, im, err, mass = tab[:, s:s + _ROW_CHUNK]
            v15, err[:], mass[:] = _gk_rows(kernel, z[p.astype(int)], lo, hi)
            re[:], im[:] = v15.real, v15.imag
        pt = tab[0].astype(int)
        re_sum, im_sum, err_sum, mass_sum = (np.bincount(pt, x, n) for x in tab[3:])
        count = np.bincount(pt, minlength=n)
        total = re_sum + 1j * im_sum
        goal = np.maximum(tol * np.maximum(1.0, np.abs(total)), 32.0 * np.finfo(float).eps * mass_sum)
        done = (count > 0) & (err_sum <= goal)
        out[done] = total[done]
        live = ~done[pt]
        if not np.any(live):
            return out
        if np.any(count[~done] > 16384):
            break
        # split every panel that carries more than a quarter of its point's
        # mean panel error; the halves go to the end of the table
        split = live & (tab[5] > 0.25 * err_sum[pt] / count[pt]) & (tab[2] - tab[1] > 1e-12 * T[pt])
        left, right = tab[:, split], tab[:, split]
        left[2] = right[1] = (left[1] + left[2]) / 2.0
        fresh = int(np.count_nonzero(live & ~split))
        tab = np.concatenate([tab[:, live & ~split], left, right], axis=1)
    raise DivergenceError("transform quadrature failed to reach tolerance")


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

# below this |z| the closed form switches to the moment series
_SERIES_RADIUS = 1e-4
_SERIES_TERMS = 6
# tolerance of the super-exponential quadrature, relative to max(1, |value|)
_QUAD_TOL = 1e-12


@dataclass
class JostFn:
    """psi(z) = 1 + integral of K(t) exp(izt), one evaluator per kernel kind.

    Piecewise kernels use the exact closed form, super-exponential ones the quadrature
    of _integrate_batch, cut off where the tail, damped by e^{-t Im z} for Im z > 0,
    drops below 1e-18.  Its error is at most _QUAD_TOL * max(1, |psi|), or its roundoff
    floor 32 eps M(z) where the integral cancels; near arg z = -3pi/4 that floor
    outgrows |psi| itself.  For K >= 0 (every superexp kernel, and a piecewise kernel
    whose coefficients are all >= 0) max_modulus gives exact circle maxima, a batch of
    radii in one evaluation.
    """

    kernel: Kernel

    @cached_property
    def moments(self) -> tuple[float, ...]:
        return tuple(self.kernel.moment(n) for n in range(_SERIES_TERMS))

    def evaluate(self, z):
        arr = np.asarray(z, dtype=complex)
        if self.kernel.kind == "piecewise":
            out = 1.0 + self._closed_form(arr.ravel())
        else:
            out = 1.0 + _integrate_batch(self.kernel, arr, _QUAD_TOL)
        return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    __call__ = evaluate

    def max_modulus(self, radii):
        """max |psi| on |z| = r, elementwise for an array of radii, when K >= 0, else None.

        For K >= 0, |psi(z)| <= 1 + integral K(t) e^{rt} dt = psi(-ir) on |z| = r.  A radius
        whose integrand peak leaves double range gets inf, and the rest one evaluation."""
        if self.kernel.kind == "piecewise" and min(map(min, self.kernel.coeffs)) < 0.0:
            return None
        r = np.asarray(radii, dtype=float)
        fits = np.full(r.shape, True)
        if self.kernel.kind == "superexp":
            fits = self.kernel.tail_exponent_peak(r) + math.log(self.kernel.C) <= _PEAK_LIMIT
        out = np.full(r.shape, np.inf)
        out[fits] = np.abs(self.evaluate(r[fits] * (0.0 - 1j)))
        return float(out) if out.ndim == 0 else out

    def as_analytic_fn(self) -> AnalyticFn:
        return AnalyticFn(evaluator=lambda w: np.asarray(self.evaluate(w)), max_modulus=self.max_modulus)

    # -- closed form ---------------------------------------------------------

    def _series(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros_like(z)
        for n, moment in enumerate(self.moments):
            out = out + moment * (1j * z) ** n / math.factorial(n)
        return out

    def _closed_form(self, z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        small = np.abs(z) < _SERIES_RADIUS
        if np.any(small):
            out[small] = self._series(z[small])
        big = ~small
        if np.any(big):
            out[big] = self._pieces(z[big])
        return out

    def _pieces(self, z: np.ndarray) -> np.ndarray:
        """Exact integral over every polynomial piece.

        Uses the antiderivative of t^m e^{izt} and regroups the difference of
        endpoint values around expm1(iz(b-a)), so nothing cancels even for
        |z| barely above the series radius.
        """
        iz = 1j * z
        total = np.zeros_like(z)
        for i, row in enumerate(self.kernel.coeffs):
            a, b = self.kernel.knots[i], self.kernel.knots[i + 1]
            eia = np.exp(iz * a)
            em1 = cexpm1(iz * (b - a))
            for m, c in enumerate(row):
                if c == 0.0:
                    continue
                term = np.zeros_like(z)
                for l in range(m + 1):
                    coef = (-1.0) ** l * math.perm(m, l) / iz ** (l + 1)
                    term = term + coef * ((b ** (m - l) - a ** (m - l)) + b ** (m - l) * em1)
                total = total + c * eia * term
        return total


def boost_ray_decay(jost: JostFn) -> AnalyticFn:
    """Add K(0)/(iz), cancelling the slowest term of psi - 1 along rays.

    Integrating the transform by parts once gives
    psi(z) - 1 = -K(0)/(iz) - (1/(iz)) * integral K'(t) e^{izt} dt, so adding
    K(0)/(iz) upgrades the ray decay from exponent 1 to exponent 2 whenever
    K' is itself integrable against the ray.  The result is meaningful away
    from the origin only.
    """
    k0 = jost.kernel.value_at_zero()

    def evaluator(w):
        w = np.asarray(w, dtype=complex)
        return np.asarray(jost.evaluate(w)) + k0 / (1j * w)

    return AnalyticFn(evaluator=evaluator)


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------


# log-spaced radii of a ray fit; their geometric midpoints are checked too
_RAY_SAMPLES = 48


@dataclass(frozen=True)
class RayFit:
    """Fitted ray constants: |f(r e^{i angle}) - 1| <= C1 * r^(-mu) on samples."""

    C1: float
    mu: float
    angle: float
    r_min: float
    r_max: float
    samples: int
    slope: float
    degenerate: bool = False


def ray_decay_fit(
    fn,
    angle: float = math.pi / 2.0,
    r_min: float = 2.0,
    r_max: float = 400.0,
) -> RayFit:
    """Fit (C1, mu) of the ray bound from _RAY_SAMPLES log-spaced samples.

    The exponent is the least-squares slope of log|f - 1| against log r,
    rounded down to two decimals; C1 is then the envelope constant making the
    bound hold at every sample, including a midpoint verification pass.
    Raises NoDecayError when the samples do not decrease.
    """
    if r_min <= 0 or r_max <= r_min:
        raise ParameterError("need 0 < r_min < r_max")
    direction = np.exp(1j * angle)
    radii = np.geomspace(r_min, r_max, _RAY_SAMPLES)
    mids = np.sqrt(radii[:-1] * radii[1:])
    all_r = np.concatenate([radii, mids])
    dist = np.abs(np.asarray(fn(all_r * direction), dtype=complex) - 1.0)
    if float(dist.max(initial=0.0)) < 1e-15:
        return RayFit(
            C1=0.0, mu=math.inf, angle=angle, r_min=r_min, r_max=r_max,
            samples=len(all_r), slope=-math.inf, degenerate=True,
        )
    d_fit = dist[: len(radii)]
    usable = d_fit > 0.0
    if usable.sum() < 3:
        raise NoDecayError("too few nonzero samples to fit a decay exponent")
    slope, _icept = np.polyfit(np.log(radii[usable]), np.log(d_fit[usable]), 1)
    mu_ls = -float(slope)
    if mu_ls <= 0.0:
        raise NoDecayError(f"|f - 1| grows along the ray (slope {slope:+.3f})")
    mu = math.floor(mu_ls * 100.0) / 100.0
    if mu <= 0.0:
        raise NoDecayError(f"fitted exponent {mu_ls:.4f} rounds down to zero")
    c1 = float(np.max(dist * all_r**mu))
    return RayFit(
        C1=c1, mu=mu, angle=angle, r_min=r_min, r_max=r_max,
        samples=len(all_r), slope=float(slope),
    )


def ray_envelope_constant(fn, angle: float, mu: float, radii: np.ndarray) -> float:
    """Smallest C1 making |f - 1| <= C1 r^(-mu) hold at the given ray radii."""
    if mu <= 0:
        raise ParameterError("mu must be positive")
    vals = np.asarray(fn(radii * np.exp(1j * angle)), dtype=complex)
    return float(np.max(np.abs(vals - 1.0) * radii**mu, initial=0.0))


@dataclass(frozen=True)
class GrowthFit:
    """Fitted growth envelope: |f| <= C0 * exp(sigma * r^rho) at sampled radii."""

    C0: float
    sigma: float
    rho: float
    radii: tuple[float, ...]
    maxima: tuple[float, ...]
    degenerate: bool = False
    # why the radii stopped: ("radii", None), or ("overflow" or "divergence", first radius not used)
    stopped: tuple[str, float | None] = ("radii", None)


def growth_fit(fn, radii: Sequence[float] | None = None) -> GrowthFit:
    """Fit (C0, sigma, rho) from circle maxima.

    Circle maxima are collected over increasing radii until the list runs out
    or the evaluation blows past the representable range; a fast-growing
    function therefore stops early and the fit proceeds with the radii
    already collected; one that stops at the first radius raises the error.
    A maximum is fn.max_modulus where fn offers one that is not None:
    exact, for all radii and the small circle in one call (inf where it cannot
    evaluate); if that call diverges, one circle at a time, so that the walk
    stops at the radius that fails.  Otherwise it samples 256 points and
    doubles them, keeping the old ones, until two successive
    maxima agree within 0.1% or 4096 points are reached.  rho is the slope of
    loglog max-modulus against log r over the upper half of the qualifying
    radii (those whose maximum exceeds e), snapped to the nearest half
    integer when the raw slope lands within 0.12 of one.  Restricting to
    large radii and snapping both suppress the lower-order corrections
    (algebraic prefactors such as 1/r) that bias a whole-range fit and,
    through the exponent, would poison sigma.  sigma is the least-squares
    slope of log max against r^rho over the same upper half, and C0 the
    envelope constant making the bound hold at every collected radius and on
    a small circle near the origin.  A function whose maximum never exceeds e
    is reported degenerate with sigma = rho = 0.
    """
    if radii is None:
        radii = np.geomspace(8.0, 200.0, 16)
    radii = np.asarray(sorted(float(r) for r in radii))
    if np.any(radii <= 0):
        raise ParameterError("radii must be positive")

    exact = getattr(fn, "max_modulus", None)

    def circle_max(r: float) -> float:
        if exact is not None and (m := exact(r)) is not None:
            return m
        prev = None
        for values in doubling_circle(fn, r, 256, 4096):
            m = float(np.max(np.abs(values)))
            if prev is not None and abs(m - prev) <= 1e-3 * max(prev, 1e-300):
                break
            prev = m
        return m

    circles = np.append(radii[:1] / 100.0, radii)
    try:
        known = None if exact is None else exact(circles)
    except DivergenceError:
        known = None
    used = []
    maxima = []
    stopped = ("radii", None)
    for i, r in enumerate(radii):
        try:
            m = circle_max(float(r)) if known is None else float(known[i + 1])
            if not math.isfinite(m) or (m > 0.0 and math.log(m) > 600.0):
                raise OverflowError(f"circle maximum {m:.6g} at r = {r:.6g} exceeds exp(600)")
        except (DivergenceError, OverflowError) as exc:
            if not used:
                raise
            stopped = ("divergence" if isinstance(exc, DivergenceError) else "overflow", float(r))
            break
        used.append(float(r))
        maxima.append(m)
    used_arr = np.asarray(used)
    maxima = np.asarray(maxima)
    grown = maxima > math.e
    if grown.sum() < 3:
        return GrowthFit(
            C0=float(max(1.0, maxima.max(initial=1.0))), sigma=0.0, rho=0.0,
            radii=tuple(used_arr), maxima=tuple(maxima), degenerate=True, stopped=stopped,
        )
    grown_r = used_arr[grown]
    grown_m = maxima[grown]
    top = max(3, len(grown_r) - len(grown_r) // 2)
    sel_r = grown_r[-top:]
    sel_m = grown_m[-top:]
    rho_slope, _ = np.polyfit(np.log(sel_r), np.log(np.log(sel_m)), 1)
    rho = float(rho_slope)
    snapped = round(2.0 * rho) / 2.0
    if snapped > 0.0 and abs(rho - snapped) <= 0.12:
        rho = snapped
    sigma_slope, _ = np.polyfit(sel_r**rho, np.log(sel_m), 1)
    sigma = float(max(sigma_slope, 0.0))
    c0 = float(np.max(maxima * np.exp(-sigma * used_arr**rho)))
    m_small = circle_max(circles[0]) if known is None else float(known[0])
    c0 = max(c0, m_small * math.exp(-sigma * circles[0]**rho))
    return GrowthFit(
        C0=c0, sigma=sigma, rho=rho, radii=tuple(used_arr), maxima=tuple(maxima), stopped=stopped,
    )
