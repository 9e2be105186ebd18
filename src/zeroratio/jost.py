"""Fourier-Laplace models: kernels, their transforms, and asymptotic fits.

A kernel K on [0, infinity) defines the function

    psi(z) = 1 + integral_0^infinity K(t) * exp(i z t) dt,

entire whenever K decays fast enough.  Each kernel kind has one evaluator:
piecewise-polynomial kernels the exact closed form (integration by parts per
piece, with a moment series taking over near z = 0), super-exponential
kernels an adaptive Gauss-Kronrod scheme batched over evaluation points.
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
    """The defining integral leaves double-precision range for this argument."""


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

    @property
    def support_end(self) -> float:
        return self.knots[-1] if self.kind == "piecewise" else math.inf

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

    def _superexp_cutoff(self, growth: float) -> float:
        """T with C*exp(-(T/2)^gamma + growth*T) below 1e-18, by doubling."""
        target = math.log(1e-18 / self.C)
        t = 4.0
        for _ in range(64):
            if -((t / 2.0) ** self.gamma) + growth * t + math.log(max(t, 1.0)) <= target:
                return t
            t *= 1.5
        raise DivergenceError("kernel tail never drops below the quadrature floor")

    def tail_exponent_peak(self, growth: float) -> float:
        """max over t >= 0 of -(t/2)^gamma + growth*t (superexp only)."""
        if self.kind != "superexp":
            return 0.0
        if growth <= 0.0:
            return 0.0
        g = self.gamma
        t_star = 2.0 * (2.0 * growth / g) ** (1.0 / (g - 1.0))
        return -((t_star / 2.0) ** g) + growth * t_star


def kernel_to_json(kernel: Kernel) -> dict:
    if kernel.kind == "piecewise":
        out: dict = {"kind": "piecewise-polynomial"}
        out["knots"] = list(kernel.knots)
        out["coeffs"] = [list(row) for row in kernel.coeffs]
    else:
        out = {"kind": "super-exponential"}
        out["gamma"] = kernel.gamma
        out["C"] = kernel.C
    return out


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
# Gauss-Kronrod quadrature (7/15 pair), batched over evaluation points
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

# full node/weight vectors on [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[:-1][::-1]])
_W15 = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[:-1][::-1]])
_W7 = np.zeros(15)
_W7[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])


def _gk_panel_batch(kernel: Kernel, a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """15-point Kronrod value and |K15 - G7| error of one panel, batched in z."""
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    t = mid + half * _NODES
    kt = np.asarray(kernel.value(t), dtype=float)
    # form K(t) * exp(izt) through the log of the magnitude: past the
    # integrand peak the phase factor alone overflows while the kernel
    # underflows, and the direct product would turn into inf * 0
    with np.errstate(divide="ignore"):
        log_mag = np.outer(-z.imag, t) + np.log(np.abs(kt))[None, :]
    contrib = np.exp(log_mag + 1j * np.outer(z.real, t)) * np.sign(kt)[None, :]
    v15 = half * (contrib @ _W15)
    v7 = half * (contrib @ _W7)
    return v15, np.abs(v15 - v7)


def _integrate_batch(kernel: Kernel, z: np.ndarray, tol: float) -> np.ndarray:
    """integral_0^T K(t) e^{izt} dt for a batch of z, shared adaptive panels."""
    z = np.asarray(z, dtype=complex).ravel()
    growth = float(np.max(-z.imag, initial=0.0))
    if kernel.kind == "superexp":
        peak = kernel.tail_exponent_peak(growth) + math.log(kernel.C)
        if peak > 690.0:
            raise DivergenceError(
                f"integrand peak exp({peak:.1f}) exceeds double-precision range"
            )
        T = kernel._superexp_cutoff(growth)
        seeds = [0.0, T]
    else:
        T = kernel.support_end
        seeds = sorted(set(k for k in kernel.knots if 0.0 <= k <= T))
        if seeds[0] > 0.0:
            seeds.insert(0, 0.0)
    # seed panel width follows the oscillation scale of exp(izt)
    osc = float(np.max(np.abs(z), initial=0.0))
    width_cap = max(T / 4096.0, min(T, 6.0 / (1.0 + osc / 3.0)))
    bounds: list[float] = []
    for lo, hi in zip(seeds, seeds[1:]):
        n_sub = max(1, int(math.ceil((hi - lo) / width_cap)))
        bounds.extend(lo + (hi - lo) * k / n_sub for k in range(n_sub))
    bounds.append(T)

    panels: list[tuple[float, float, np.ndarray, np.ndarray]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        v, e = _gk_panel_batch(kernel, lo, hi, z)
        panels.append((lo, hi, v, e))

    for _round in range(64):
        total = np.sum([p[2] for p in panels], axis=0)
        err = np.sum([p[3] for p in panels], axis=0)
        # a total that cancels far below the unsigned panel mass cannot be
        # certified more tightly than summation roundoff, so the goal never
        # drops below that floor
        mass = np.sum([np.abs(p[2]) for p in panels], axis=0)
        floor = 32.0 * np.finfo(float).eps * mass
        goal = np.maximum(tol * np.maximum(1.0, np.abs(total)), floor)
        if np.all(err <= goal):
            return total
        if len(panels) > 16384:
            break
        # split every panel whose own error visibly feeds a failing point
        failing = err > goal
        budget = np.max(err[failing]) / max(len(panels), 1)
        new_panels = []
        for lo, hi, v, e in panels:
            if float(np.max(e[failing], initial=0.0)) > budget * 0.25 and hi - lo > 1e-12 * T:
                mid = (lo + hi) / 2.0
                v1, e1 = _gk_panel_batch(kernel, lo, mid, z)
                v2, e2 = _gk_panel_batch(kernel, mid, hi, z)
                new_panels.append((lo, mid, v1, e1))
                new_panels.append((mid, hi, v2, e2))
            else:
                new_panels.append((lo, hi, v, e))
        panels = new_panels
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

    Piecewise kernels use the exact closed form; super-exponential kernels
    the batched adaptive quadrature at relative tolerance _QUAD_TOL.
    """

    kernel: Kernel

    @cached_property
    def moments(self) -> tuple[float, ...]:
        return tuple(self.kernel.moment(n) for n in range(_SERIES_TERMS))

    def evaluate(self, z):
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        flat = arr.ravel()
        if self.kernel.kind == "piecewise":
            out = self._closed_form(flat)
        else:
            out = _integrate_batch(self.kernel, flat, _QUAD_TOL)
        out = out + 1.0
        if scalar:
            return complex(out[0])
        return out.reshape(arr.shape)

    __call__ = evaluate

    def as_analytic_fn(self) -> AnalyticFn:
        return AnalyticFn(evaluator=lambda w: np.asarray(self.evaluate(w)))

    # -- closed form ---------------------------------------------------------

    def _series(self, z: np.ndarray) -> np.ndarray:
        moments = self.moments
        out = np.zeros_like(z)
        fact = 1.0
        for n in range(_SERIES_TERMS):
            if n > 0:
                fact *= n
            out = out + moments[n] * (1j * z) ** n / fact
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
                fall = 1.0  # falling factorial m!/(m-l)!
                for l in range(m + 1):
                    if l > 0:
                        fall *= m - l + 1
                    coef = (-1.0) ** l * fall / iz ** (l + 1)
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
    evaluate = fn.evaluate if hasattr(fn, "evaluate") else fn
    direction = np.exp(1j * angle)
    radii = np.geomspace(r_min, r_max, _RAY_SAMPLES)
    mids = np.sqrt(radii[:-1] * radii[1:])
    all_r = np.concatenate([radii, mids])
    dist = np.abs(np.asarray(evaluate(all_r * direction), dtype=complex) - 1.0)
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
    evaluate = fn.evaluate if hasattr(fn, "evaluate") else fn
    vals = np.asarray(evaluate(radii * np.exp(1j * angle)), dtype=complex)
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


def growth_fit(fn, radii: Sequence[float] | None = None) -> GrowthFit:
    """Fit (C0, sigma, rho) from circle maxima.

    Circle maxima are collected over increasing radii until the list runs out
    or the evaluation blows past the representable range; a fast-growing
    function therefore stops early and the fit proceeds with the radii
    already collected.  Each maximum samples 256 points and doubles them,
    keeping the old ones, until two successive maxima agree within 0.1% or
    4096 points are reached.  rho is the slope of loglog max-modulus against
    log r over the upper half of the qualifying radii (those whose maximum
    exceeds e), snapped to the nearest half integer when the raw slope lands
    within 0.12 of one.  Restricting to large radii and snapping both suppress the
    lower-order corrections (algebraic prefactors such as 1/r) that bias a
    whole-range fit and, through the exponent, would poison sigma.  sigma is
    the least-squares slope of log max against r^rho over the same upper
    half, and C0 the envelope constant making the bound hold at every
    collected radius and on a small circle near the origin.  A function
    whose maximum never exceeds e is reported degenerate with
    sigma = rho = 0.
    """
    evaluate = fn.evaluate if hasattr(fn, "evaluate") else fn
    if radii is None:
        radii = np.geomspace(8.0, 200.0, 16)
    radii = np.asarray(sorted(float(r) for r in radii))
    if np.any(radii <= 0):
        raise ParameterError("radii must be positive")

    def circle_max(r: float) -> float:
        prev = None
        for values in doubling_circle(evaluate, r, 256, 4096):
            m = float(np.max(np.abs(values)))
            if prev is not None and abs(m - prev) <= 1e-3 * max(prev, 1e-300):
                break
            prev = m
        return m

    used = []
    maxima = []
    for r in radii:
        try:
            m = circle_max(float(r))
        except (DivergenceError, OverflowError):
            if not used:
                raise
            break
        if not math.isfinite(m) or (m > 0.0 and math.log(m) > 600.0):
            break
        used.append(float(r))
        maxima.append(m)
    used_arr = np.asarray(used)
    maxima = np.asarray(maxima)
    grown = maxima > math.e
    if grown.sum() < 3:
        return GrowthFit(
            C0=float(max(1.0, maxima.max(initial=1.0))), sigma=0.0, rho=0.0,
            radii=tuple(used_arr), maxima=tuple(maxima), degenerate=True,
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
    r_small = used_arr[0] / 100.0
    m_small = circle_max(r_small)
    c0 = max(c0, m_small * math.exp(-sigma * r_small**rho))
    return GrowthFit(
        C0=c0, sigma=sigma, rho=rho, radii=tuple(used_arr), maxima=tuple(maxima),
    )
