"""Zero counting and location by adaptive phase tracking.

Counting uses the argument principle without derivatives: the phase of f is
tracked along the contour, samples are inserted wherever a step of the
tracked phase reaches pi/2, and the winding number is the accumulated change
divided by 2*pi.  Locating combines counted quad subdivision with a contour
centroid: for a circle enclosing exactly the sought zeros, the branch-tracked
integral of log f recovers their multiplicity-weighted mean exactly, which
for clusters converges to the cluster center and for simple and multiple
zeros alike gives spectral-accuracy estimates; a final secant step polishes
simple zeros off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import ClassParams, ParameterError, threshold_r1
from .factors import ZeroSet
from .report import VerificationReport, precondition


class ZeroOnContourError(RuntimeError):
    """A zero sits (numerically) on the integration contour."""


class NonConvergentError(RuntimeError):
    """Adaptive refinement exhausted its sample budget."""


class UnresolvedClusterError(RuntimeError):
    """A zero cluster could not be separated or pinned down."""


class EvaluationError(RuntimeError):
    """The function returned non-finite values on the contour."""


class _ContourDip(Exception):
    """Internal: |f| dipped below the contour floor; retry with a nudge."""


class _CountMismatch(Exception):
    """Internal: a polish circle did not enclose the expected multiplicity."""


_NUDGE = 1.0 + 2.0**-20
# adjacent-sample magnitude jump (in log) that forces contour refinement
_LOG_JUMP = math.log(4.0)


# ---------------------------------------------------------------------------
# function wrapper
# ---------------------------------------------------------------------------


@dataclass
class AnalyticFn:
    """A complex function given by a vectorized evaluator.

    The evaluator must accept a one-dimensional complex ndarray and return
    one of the same shape; any other shape raises EvaluationError.  Scalars
    and arrays of any shape are flattened before the call and restored after.
    """

    evaluator: Callable
    label: str = ""

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        flat = arr.reshape(1) if arr.ndim == 0 else arr.ravel()
        out = np.asarray(self.evaluator(flat), dtype=complex)
        if out.shape != flat.shape:
            raise EvaluationError(
                f"evaluator returned shape {out.shape} for input shape {flat.shape}"
            )
        if arr.ndim == 0:
            return complex(out[0])
        return out.reshape(arr.shape)


def as_analytic(f) -> AnalyticFn:
    if isinstance(f, AnalyticFn):
        return f
    evaluator = getattr(f, "evaluate", None)
    if callable(evaluator) and not callable(f):
        return AnalyticFn(evaluator=evaluator)
    return AnalyticFn(evaluator=f)


# ---------------------------------------------------------------------------
# phase tracking along closed contours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scan:
    ts: np.ndarray
    values: np.ndarray
    dphi: np.ndarray
    scale: float

    @property
    def winding(self) -> float:
        return float(self.dphi.sum() / (2.0 * math.pi))


def _phase_scan(fn: AnalyticFn, to_point: Callable, period: float, ts: np.ndarray, max_samples: int) -> _Scan:
    """Refine parameter samples of a closed contour until every phase step < pi/2.

    Zero-on-contour detection is local: an exactly vanishing sample, or a
    phase step that stays pinned at +-pi down to the sample-spacing floor
    (the signature of the argument flipping across a zero the contour runs
    through), raises _ContourDip.  A global magnitude ratio would misfire on
    high-degree products whose honest dynamic range spans many decades.
    """
    ts = np.sort(np.asarray(ts, dtype=float))
    values = fn(to_point(ts))
    confirmed: float | None = None

    def insert(t_new: np.ndarray) -> None:
        nonlocal ts, values
        if len(ts) + len(t_new) > max_samples:
            raise NonConvergentError(
                f"contour refinement exceeded the {max_samples}-sample budget"
            )
        v_new = fn(to_point(t_new))
        ts = np.concatenate([ts, t_new])
        values = np.concatenate([values, v_new])
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        values = values[order]

    while True:
        if not np.all(np.isfinite(values)):
            raise EvaluationError("non-finite function value on contour")
        mags = np.abs(values)
        scale = float(mags.max(initial=0.0))
        if scale == 0.0 or float(mags.min()) == 0.0:
            raise _ContourDip
        nxt = np.roll(values, -1)
        dphi = np.angle(nxt * np.conj(values))
        # two refinement triggers: a phase step of pi/2, and a magnitude jump
        # of a factor 4.  The latter has no wrap ambiguity (|f| is positive),
        # so it flushes out zeros hugging the contour whose phase cliff can
        # alias to a small wrapped step at every resolution.
        logmags = np.log(mags)
        dmag = np.abs(np.roll(logmags, -1) - logmags)
        bad = (np.abs(dphi) >= math.pi / 2.0) | (dmag >= _LOG_JUMP)
        gaps = (np.roll(ts, -1) - ts) % period
        gaps[gaps == 0.0] = period  # single-sample degenerate guard
        if np.any(bad):
            idx = np.nonzero(bad)[0]
            if np.all(gaps[idx] < 1e-14 * period):
                # refinement pinched: the phase flips across a point, so a
                # zero sits on (or within rounding of) the contour
                raise _ContourDip
            confirmed = None
            insert((ts[idx] + gaps[idx] / 2.0) % period)
            continue
        winding = float(dphi.sum() / (2.0 * math.pi))
        if confirmed is not None and abs(winding - confirmed) <= 1e-3:
            return _Scan(ts=ts, values=values, dphi=dphi, scale=scale)
        # a wrapped step can hide a full extra turn; accept the winding only
        # after a global doubling reproduces it
        confirmed = winding
        insert((ts + gaps / 2.0) % period)


@dataclass(frozen=True)
class CountResult:
    """Outcome of an argument-principle count.

    `count` is the rounded winding number (zeros with multiplicity),
    `residual` its distance from the nearest integer, `radius` the contour
    radius actually used after any nudges.  `reliable` is False when the
    residual reaches 0.25 or the winding came out negative.
    """

    count: int
    winding: float
    residual: float
    samples: int
    radius: float
    center: complex = 0j

    @property
    def reliable(self) -> bool:
        return self.residual < 0.25 and self.count >= 0


def count_zeros(
    f,
    center: complex = 0j,
    radius: float = 1.0,
    initial_samples: int = 64,
    max_samples: int = 1 << 17,
) -> CountResult:
    """Count zeros of f inside the circle |z - center| = radius.

    If a zero sits on the contour (detected as |f| dipping below 1e-13 of the
    contour maximum) the radius is nudged outward by a relative 2^-20, up to
    eight times, before giving up.
    """
    if radius <= 0:
        raise ParameterError("radius must be positive")
    fn = as_analytic(f)
    center = complex(center)
    for bump in range(9):
        r_eff = radius * _NUDGE**bump
        try:
            scan = _phase_scan(
                fn,
                lambda t: center + r_eff * np.exp(2j * math.pi * t),
                1.0,
                np.arange(initial_samples) / initial_samples,
                max_samples,
            )
        except _ContourDip:
            continue
        winding = scan.winding
        count = int(round(winding))
        return CountResult(
            count=count,
            winding=winding,
            residual=abs(winding - count),
            samples=len(scan.ts),
            radius=r_eff,
            center=center,
        )
    raise ZeroOnContourError(
        f"|f| vanishes on every nudged circle near radius {radius:.6g}"
    )


def _square_map(x0: float, x1: float, y0: float, y1: float) -> Callable:
    corners = np.array(
        [x0 + 1j * y0, x1 + 1j * y0, x1 + 1j * y1, x0 + 1j * y1, x0 + 1j * y0],
        dtype=complex,
    )

    def to_point(t):
        t = np.asarray(t, dtype=float) % 4.0
        side = np.minimum(t.astype(int), 3)
        frac = t - side
        return corners[side] * (1.0 - frac) + corners[side + 1] * frac

    return to_point


def _count_rect(fn: AnalyticFn, x0: float, x1: float, y0: float, y1: float, max_samples: int = 1 << 16) -> tuple[int, int]:
    """Winding count on a rectangle boundary; raises _ContourDip on |f| dips."""
    scan = _phase_scan(
        fn,
        _square_map(x0, x1, y0, y1),
        4.0,
        np.arange(64) / 16.0,
        max_samples,
    )
    winding = scan.winding
    count = int(round(winding))
    if abs(winding - count) >= 0.25 or count < 0:
        raise NonConvergentError(
            f"unreliable winding {winding:.3f} on rectangle [{x0:.6g},{x1:.6g}]x[{y0:.6g},{y1:.6g}]"
        )
    return count, len(scan.ts)


# ---------------------------------------------------------------------------
# cluster centroid via the branch-tracked log integral
# ---------------------------------------------------------------------------


def _circle_centroid(fn: AnalyticFn, center: complex, radius: float, expect: int) -> tuple[complex, bool]:
    """Multiplicity-weighted mean of the zeros inside the circle.

    Integrates the branch-tracked log of f along the circle; the linear-in-
    angle branch growth is split off and integrated exactly, the periodic
    remainder by the (spectrally accurate) trapezoid rule.  Requires the
    circle to enclose exactly `expect` zeros; raises _CountMismatch otherwise.
    Returns (centroid, converged).
    """
    n = 64
    prev_winding = None
    prev_w = None
    last_w = None
    while n <= 16384:
        theta = 2.0 * math.pi * np.arange(n) / n
        values = fn(center + radius * np.exp(1j * theta))
        if not np.all(np.isfinite(values)):
            raise EvaluationError("non-finite value on centroid circle")
        mags = np.abs(values)
        scale = float(mags.max(initial=0.0))
        if scale == 0.0 or float(mags.min()) == 0.0:
            raise _ContourDip
        dphi = np.angle(np.roll(values, -1) * np.conj(values))
        logmags = np.log(mags)
        dmag = np.abs(np.roll(logmags, -1) - logmags)
        if np.any(np.abs(dphi) >= math.pi / 2.0) or np.any(dmag >= _LOG_JUMP):
            prev_winding = None
            prev_w = None
            n *= 2
            continue
        winding = float(dphi.sum() / (2.0 * math.pi))
        m = int(round(winding))
        if abs(winding - m) >= 0.25:
            raise _CountMismatch
        phase = np.angle(values[0]) + np.concatenate([[0.0], np.cumsum(dphi[:-1])])
        log_track = np.log(mags) + 1j * phase
        periodic = log_track - 1j * m * theta
        dz = 1j * radius * np.exp(1j * theta)
        integral = (2.0 * math.pi / n) * np.sum(periodic * dz)
        integral += 2j * math.pi * m * radius  # exact integral of the branch ramp
        w = (center + radius) - integral / (2j * math.pi * max(m, 1))
        if prev_winding is not None and abs(winding - prev_winding) <= 1e-3:
            # winding confirmed by doubling, safe to compare with expectation
            if m != expect or m == 0:
                raise _CountMismatch
            if prev_w is not None and abs(w - prev_w) <= max(1e-13 * radius, 1e-15 * max(1.0, abs(w))):
                return w, True
            last_w = w
        prev_winding = winding
        prev_w = w
        n *= 2
    if last_w is None:
        # phase steps or windings never settled at any sample count
        raise _CountMismatch
    return last_w, False


def _centroid_retry(fn: AnalyticFn, center: complex, radius: float, expect: int) -> tuple[complex, bool]:
    """_circle_centroid with radius nudges past |f| dips; _CountMismatch passes through."""
    for bump in range(6):
        try:
            return _circle_centroid(fn, center, radius * _NUDGE**bump, expect)
        except _ContourDip:
            continue
    raise _ContourDip


def _polish(fn: AnalyticFn, circle_center: complex, circle_radius: float, guess: complex, mult: int) -> tuple[complex, float]:
    """Shrink a verified isolating circle onto its zeros.

    (circle_center, circle_radius) must already be known to enclose exactly
    `mult` zeros.  Each round moves the circle to the latest centroid and
    tries to shrink it, re-verifying the enclosed count; if the count check
    rejects every shrink the zeros fill the circle (a genuine cluster) and
    the loop stops.  Returns (location, final radius): a final radius at the
    resolution floor means the zeros are coincident to working precision.
    """
    c, r, w = complex(circle_center), float(circle_radius), complex(guess)
    floor = 1e-13 * max(1.0, abs(w))
    for _ in range(48):
        if r <= floor * 8:
            break
        rr = max(min(r / 5.0, 3.0 * abs(w - c) + r / 40.0), floor * 4)
        placed = False
        while rr < r * 0.98:
            try:
                w2, _conv = _centroid_retry(fn, w, rr, mult)
            except (_CountMismatch, _ContourDip):
                rr *= 2.6
                continue
            c, r, w = w, rr, w2
            placed = True
            break
        if not placed:
            break
    # machine-precision secant finish for simple zeros
    if mult == 1:
        z0, z1 = w + max(2.0 * r, 8.0 * floor), w
        f0 = fn(z0)
        for _ in range(60):
            f1 = fn(z1)
            if f1 == f0 or f1 == 0:
                break
            z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
            z0, f0, z1 = z1, f1, z2
            if abs(z1 - z0) <= 1e-15 * max(1.0, abs(z1)):
                break
        if abs(z1 - w) <= max(4.0 * circle_radius, 1e-6 * max(1.0, abs(w))):
            w = z1
    return w, r


# ---------------------------------------------------------------------------
# subdivision locator
# ---------------------------------------------------------------------------

# split fractions tried when a zero rides an internal subdivision edge
_SPLIT_FRACTIONS = (0.5, 0.5 + 2.0**-8, 0.5 - 2.0**-8, 0.5 + 2.0**-6, 0.5 - 2.0**-6,
                    0.5 + 2.0**-4, 0.5 - 2.0**-4, 0.5 + 0.11, 0.5 - 0.11)


def locate_zeros(
    f,
    center: complex = 0j,
    radius: float = 1.0,
    max_cells: int = 50_000,
) -> ZeroSet:
    """Locate all zeros of f in the open disk |z - center| < radius.

    Counted quad subdivision: cells whose boundary winding is zero are
    dropped, cells with several zeros are split (with jittered split lines
    when a zero rides an edge), and leaf cells are polished by the circle
    centroid plus a secant finish.  The returned multiplicities
    always sum to the disk's total winding count; anything else raises.
    """
    fn = as_analytic(f)
    center = complex(center)
    outer = count_zeros(fn, center, radius)
    if not outer.reliable:
        raise NonConvergentError(
            f"outer circle winding {outer.winding:.4f} is not trustworthy"
        )
    if outer.count == 0:
        return ZeroSet(())
    half = outer.radius * 1.0000019
    found: list[tuple[complex, int]] = []
    cells_used = 0

    def rect_count(x0, x1, y0, y1) -> int:
        nonlocal cells_used
        cells_used += 1
        if cells_used > max_cells:
            raise NonConvergentError(f"subdivision exceeded {max_cells} cells")
        count, _samples = _count_rect(fn, x0, x1, y0, y1)
        return count

    def split(x0, x1, y0, y1, m) -> None:
        size = max(x1 - x0, y1 - y0)
        floor = 1e-11 * max(1.0, abs(center) + radius)
        if size <= floor:
            # unreduced cluster at resolution floor: report its center with
            # the full multiplicity (coincident zeros to working precision)
            found.append((complex((x0 + x1) / 2.0, (y0 + y1) / 2.0), m))
            return
        for frac in _SPLIT_FRACTIONS:
            xm = x0 + (x1 - x0) * frac
            ym = y0 + (y1 - y0) * frac
            quads = ((x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1))
            try:
                counts = [rect_count(*q) for q in quads]
            except _ContourDip:
                continue
            if sum(counts) != m:
                continue  # a zero straddles the cut; jitter and retry
            for q, mq in zip(quads, counts):
                if mq == 0:
                    continue
                handle(q[0], q[1], q[2], q[3], mq)
            return
        raise UnresolvedClusterError(
            f"could not split cell [{x0:.8g},{x1:.8g}]x[{y0:.8g},{y1:.8g}] holding {m} zeros"
        )

    cluster_floor = 1e-11 * max(1.0, abs(center) + radius)

    def handle(x0, x1, y0, y1, m) -> None:
        cell_half = max(x1 - x0, y1 - y0) / 2.0
        cell_center = complex((x0 + x1) / 2.0, (y0 + y1) / 2.0)
        # circumcircle of the cell: if it holds exactly the cell's zeros it
        # is an isolating circle and the centroid polish takes over
        iso_r = cell_half * 1.46
        try:
            w, _conv = _centroid_retry(fn, cell_center, iso_r, m)
        except (_CountMismatch, _ContourDip):
            split(x0, x1, y0, y1, m)
            return
        loc, final_r = _polish(fn, cell_center, iso_r, w, m)
        if m >= 2 and final_r > cluster_floor * 30:
            # the enclosed zeros are separated, not coincident: keep splitting
            split(x0, x1, y0, y1, m)
            return
        found.append((loc, m))

    for bump in range(9):
        h = half * _NUDGE**bump
        try:
            root_m = rect_count(center.real - h, center.real + h, center.imag - h, center.imag + h)
        except _ContourDip:
            continue
        handle(center.real - h, center.real + h, center.imag - h, center.imag + h, root_m)
        break
    else:
        raise ZeroOnContourError("could not place a dip-free bounding square")

    inside = [(w, m) for w, m in found if abs(w - center) <= outer.radius]
    total = sum(m for _, m in inside)
    if total != outer.count:
        raise UnresolvedClusterError(
            f"located multiplicities sum to {total}, but the disk winding says {outer.count}"
        )
    # residual sanity: each reported zero must actually kill the function
    for w, m in inside:
        probe_r = 1e-6 * max(1.0, abs(w))
        ring = fn(w + probe_r * np.exp(2j * math.pi * np.arange(8) / 8.0))
        local_scale = float(np.abs(ring).max())
        if local_scale > 0 and abs(fn(w)) > 1e-8 * local_scale:
            raise UnresolvedClusterError(
                f"reported zero {w:.8g} has |f| = {abs(fn(w)):.3g} against local scale {local_scale:.3g}"
            )
    return ZeroSet(tuple(inside))


# ---------------------------------------------------------------------------
# Jensen consistency and the zero-count bound
# ---------------------------------------------------------------------------


class ZeroAtOriginError(RuntimeError):
    """Jensen comparison needs f(0) != 0."""


def jensen_check(f, radius: float, initial_samples: int = 256, zeros=None) -> tuple[float, float]:
    """Both sides of Jensen's identity on the circle of the given radius.

    Returns (mean of log|f| on the circle minus log|f(0)|,
    sum of multiplicity * log(radius/|zero|) over zeros inside).
    The circle average doubles its sample count until two successive values
    agree to 1e-10; a zero numerically on the circle raises.  When `zeros`
    is given (any iterable of (location, multiplicity) pairs) the right side
    is computed from that prescription; otherwise the zeros are located by
    contour subdivision first.
    """
    fn = as_analytic(f)
    f0 = abs(fn(0j))
    if f0 == 0.0:
        raise ZeroAtOriginError("f(0) = 0: Jensen comparison undefined")
    n = max(64, initial_samples)
    prev = None
    lhs = None
    min_ratio = 1.0
    while n <= 1 << 17:
        theta = 2.0 * math.pi * np.arange(n) / n
        values = fn(radius * np.exp(1j * theta))
        if not np.all(np.isfinite(values)):
            raise EvaluationError("non-finite value on Jensen circle")
        mags = np.abs(values)
        scale = float(mags.max(initial=0.0))
        if scale == 0.0 or float(mags.min()) == 0.0:
            raise ZeroOnContourError("zero on the Jensen circle")
        min_ratio = float(mags.min()) / scale
        lhs = float(np.mean(np.log(mags))) - math.log(f0)
        if prev is not None and abs(lhs - prev) <= 1e-10 * (1.0 + abs(lhs)):
            break
        prev = lhs
        n *= 2
    else:
        if min_ratio < 1e-12:
            # the average stalled while some sample kept collapsing: the
            # integrable log singularity of a zero on the circle
            raise ZeroOnContourError("zero on the Jensen circle")
        raise NonConvergentError("Jensen circle average did not settle at 1e-10")
    zs = list(zeros) if zeros is not None else locate_zeros(fn, 0j, radius)
    rhs = math.fsum(m * math.log(radius / abs(w)) for w, m in zs if abs(w) < radius)
    return lhs, rhs


def count_bound_check(f, params: ClassParams, radius: float) -> VerificationReport:
    """Compare the zero count in |z| <= radius against 2*sigma*(2e)^rho*r^rho.

    The bound is only claimed for radius >= r1; below that the report carries
    an unmet precondition instead of a verdict-bearing comparison.
    """
    r1 = threshold_r1(params)
    result = count_zeros(f, 0j, radius)
    bound = params.count_rate() * radius**params.rho
    return VerificationReport(
        check="zero-count-bound",
        bound=bound,
        observed=float(result.count),
        samples=result.samples,
        preconditions=[
            precondition("radius >= r1", radius >= r1, r1, radius),
            precondition("winding reliable", result.reliable, 0.25, result.residual),
        ],
        details={
            "radius": radius,
            "winding": result.winding,
            "count": result.count,
        },
    )
