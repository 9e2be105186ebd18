"""Zero counting and location by adaptive phase tracking and contour moments.

Counting uses the argument principle without derivatives: the phase of f is
tracked along the contour, samples are inserted wherever a step of the
tracked phase reaches pi/2, and the winding number is the accumulated change
divided by 2*pi.

Locating reads the zeros off their power moments (Delves & Lyness, Math.
Comp. 21, 1967).  On a circle |z - c| = r enclosing m zeros, the
branch-tracked log f minus its winding ramp i*m*theta is periodic, and its
Fourier coefficient at frequency -k is -s_k/k, where s_k = sum_j m_j w_j^k
over the enclosed zeros w_j = (z_j - c)/r.  One FFT of equispaced samples
thus gives every moment.  The numerical rank of the Hankel matrix of
s_0..s_{2m-1} is the number of distinct zeros, the eigenvalues of the Hankel
pencil are their locations, and a Vandermonde fit gives their multiplicities
(Kravanja, Sakurai & Van Barel, BIT 39, 1999).  The Hankel problem is
ill-conditioned for many zeros, so a disk with more than _PENCIL_CAP zeros,
or one whose pencil is rejected, is covered by counted square subdivision
whose cells' circumcircles are the pencil leaves.  A leaf's simple zeros
share one vectorized secant iteration, multiple ones get one pencil pass on
a small circle, and one evaluator call tests every reported zero's residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import ParameterError
from .factors import ZeroSet


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
    max_modulus(r), if given, is the exact max |f| on |z| = r, for a radius or
    elementwise for an array of radii, or None.
    """

    evaluator: Callable
    max_modulus: Callable | None = None

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
    return f if isinstance(f, AnalyticFn) else AnalyticFn(evaluator=f)


# ---------------------------------------------------------------------------
# phase tracking along closed contours
# ---------------------------------------------------------------------------


def _phase_scan(fn: AnalyticFn, to_point: Callable, period: float, ts: np.ndarray,
                max_samples: int) -> tuple[float, int]:
    """Winding number and sample count of a closed contour, refined until every phase step < pi/2.

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
        if float(mags.min()) == 0.0:
            raise _ContourDip
        dphi = np.angle(np.roll(values, -1) * np.conj(values))
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
            return winding, len(ts)
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

    @property
    def reliable(self) -> bool:
        return self.residual < 0.25 and self.count >= 0


def count_zeros(f, center: complex = 0j, radius: float = 1.0) -> CountResult:
    """Count zeros of f inside the circle |z - center| = radius.

    If a zero sits on the contour (an exactly vanishing sample, or a phase
    flip that refinement cannot resolve) the radius is nudged outward by a
    relative 2^-20, up to eight times, before giving up.
    """
    if radius <= 0:
        raise ParameterError("radius must be positive")
    fn = as_analytic(f)
    center = complex(center)
    for bump in range(9):
        r_eff = radius * _NUDGE**bump
        try:
            winding, samples = _phase_scan(fn, lambda t: center + r_eff * np.exp(2j * math.pi * t),
                                           1.0, np.arange(64) / 64.0, 1 << 17)
        except _ContourDip:
            continue
        count = int(round(winding))
        return CountResult(count=count, winding=winding, residual=abs(winding - count),
                           samples=samples, radius=r_eff)
    raise ZeroOnContourError(f"|f| vanishes on every nudged circle near radius {radius:.6g}")


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


def _count_rect(fn: AnalyticFn, x0: float, x1: float, y0: float, y1: float) -> int:
    """Winding count on a rectangle boundary; raises _ContourDip on |f| dips."""
    winding, _samples = _phase_scan(fn, _square_map(x0, x1, y0, y1), 4.0, np.arange(64) / 16.0, 1 << 16)
    count = int(round(winding))
    if abs(winding - count) >= 0.25 or count < 0:
        raise NonConvergentError(
            f"unreliable winding {winding:.3f} on rectangle [{x0:.6g},{x1:.6g}]x[{y0:.6g},{y1:.6g}]"
        )
    return count


# ---------------------------------------------------------------------------
# contour moments and the Hankel pencil
# ---------------------------------------------------------------------------

# most zeros one pencil solves: the Hankel problem is ill-conditioned beyond
_PENCIL_CAP = 8
# singular values of H0 below this fraction of the largest count as rank loss
_RANK_TOL = 1e-9
# successive moment sets agreeing to this, relative to the size of log f, have settled
_MOMENT_TOL = 1e-11
# circle samples after which a leaf is given up
_MOMENT_SAMPLES = 1 << 14
# polish circle around a multiple zero, relative to max(1, |zero|)
_POLISH_RADIUS = 1e-4
# a located zero must bring |f| below this fraction of its size 1e-6 |zero| away
_RESIDUAL_TOL = 1e-8


def doubling_circle(evaluate, radius: float, n: int, n_max: int):
    """Yield evaluate on n equispaced points of |z| = radius, then on 2n, 4n,
    ... up to n_max points, in angle order.

    Each doubling evaluates only the new odd points 2*pi*(2k+1)/(2n), which
    are bitwise the odd points of a fresh 2*pi*k/(2n) grid.
    """
    values = np.asarray(evaluate(radius * np.exp(1j * (2.0 * math.pi * np.arange(n) / n))))
    yield values
    while 2 * n <= n_max:
        odd = evaluate(radius * np.exp(1j * (2.0 * math.pi * np.arange(1, 2 * n, 2) / (2 * n))))
        values = np.stack([values, np.asarray(odd)], axis=1).ravel()
        n *= 2
        yield values


def _circle_moments(fn: AnalyticFn, center: complex, radius: float) -> np.ndarray | None:
    """Moments s_0..s_{2m-1} of the m zeros inside |z - center| = radius.

    s_k = sum_j m_j w_j^k with w_j = (z_j - center)/radius.  With the winding
    ramp i*m*theta taken off, the branch-tracked log f is periodic and its
    Fourier coefficient at frequency -k is -s_k/k, so one FFT gives every
    moment.  The sample count doubles by adding the odd points until every
    phase step is below pi/2 and two successive moment sets agree.  Returns
    None when the winding is 0 or exceeds _PENCIL_CAP, or when the moments do
    not settle within _MOMENT_SAMPLES; raises _ContourDip when |f| vanishes
    on the circle.
    """
    prev = None
    for values in doubling_circle(lambda w: fn(center + w), radius, 64, _MOMENT_SAMPLES):
        n = len(values)
        if not np.all(np.isfinite(values)):
            raise EvaluationError("non-finite function value on moment circle")
        mags = np.abs(values)
        if float(mags.min()) == 0.0:
            raise _ContourDip
        logmags = np.log(mags)
        dphi = np.angle(np.roll(values, -1) * np.conj(values))
        dmag = np.abs(np.roll(logmags, -1) - logmags)
        if np.all(np.abs(dphi) < math.pi / 2.0) and np.all(dmag < _LOG_JUMP):
            winding = float(dphi.sum() / (2.0 * math.pi))
            m = int(round(winding))
            if abs(winding - m) >= 0.25 or not 1 <= m <= _PENCIL_CAP:
                return None
            theta = 2.0 * math.pi * np.arange(n) / n
            phase = np.angle(values[0]) + np.concatenate([[0.0], np.cumsum(dphi[:-1])])
            periodic = logmags + 1j * (phase - m * theta)
            coeffs = np.fft.fft(periodic) / n
            k = np.arange(1, 2 * m)
            s = np.concatenate([[float(m)], -k * coeffs[-k]])
            tol = _MOMENT_TOL * (1.0 + float(np.abs(periodic).max()))
            if prev is not None and len(prev) == len(s) and np.all(np.abs(s - prev) <= tol):
                return s
            prev = s
        else:
            prev = None
    return None


def _pencil(s: np.ndarray) -> list[tuple[complex, int]] | None:
    """Distinct zeros and their multiplicities from the moments s_0..s_{2m-1}.

    The numerical rank of H0 = [s_{i+j}] is the number of distinct zeros, the
    eigenvalues of the pencil (H1, H0) with H1 = [s_{i+j+1}], compressed to
    that rank, are their locations, and a Vandermonde least-squares fit to
    the moments gives their multiplicities.  Returns None unless every
    multiplicity is within 1e-3 of a positive integer, they sum to m, and
    every node lies inside the unit circle.
    """
    m = len(s) // 2
    idx = np.add.outer(np.arange(m), np.arange(m))
    u, sig, vh = np.linalg.svd(s[idx])
    q = int(np.count_nonzero(sig > _RANK_TOL * sig[0]))
    nodes = np.linalg.eigvals(u[:, :q].conj().T @ s[idx + 1] @ vh[:q].conj().T / sig[:q])
    mults = np.linalg.lstsq(nodes ** np.arange(2 * m)[:, None], s, rcond=None)[0]
    counts = np.rint(mults.real)
    if (np.any(np.abs(mults - counts) > 1e-3) or np.any(counts < 1)
            or counts.sum() != m or np.any(np.abs(nodes) >= 1.0)):
        return None
    return [(complex(w), int(c)) for w, c in zip(nodes, counts)]


def _secants(fn: AnalyticFn, w: np.ndarray, iso: np.ndarray) -> np.ndarray:
    """Secant iteration from every node w_j at once, one call per step; kept only within iso_j/2 of w_j.

    Each node starts from w_j + iso_j/1024 and w_j, and stops on its own when
    f repeats or vanishes, when a step falls to 1e-15 max(1, |z|), or after
    60 steps.
    """
    z0, z1 = w + iso / 1024.0, w.copy()
    f0, f1 = np.split(fn(np.concatenate([z0, z1])), 2)
    live = np.arange(len(w))
    for step in range(60):
        if step:
            f1 = fn(z1[live])
        keep = (f1 != f0[live]) & (f1 != 0)
        live, f1 = live[keep], f1[keep]
        with np.errstate(invalid="ignore", over="ignore"):  # a NaN iterate falls back to its node
            z0[live], f0[live], z1[live] = z1[live], f1, z1[live] - f1 * (z1[live] - z0[live]) / (f1 - f0[live])
        live = live[~(np.abs(z1[live] - z0[live]) <= 1e-15 * np.maximum(1.0, np.abs(z1[live])))]
        if not live.size:
            break
    return np.where(np.abs(z1 - w) <= iso / 2.0, z1, w)


def _residuals(fn: AnalyticFn, w) -> np.ndarray:
    """|f(w)| over the largest |f| on a ring of radius 1e-6 max(1, |w|) around w, every w in one call.

    The ratio is 0 where f vanishes on the whole ring.  Raises EvaluationError
    when f is not finite at a ring point or at w.
    """
    w = np.asarray(w, dtype=complex)
    ring = (1e-6 * np.maximum(1.0, np.abs(w)))[:, None] * np.exp(2j * math.pi * np.arange(8) / 8.0)
    values = fn(np.column_stack([w[:, None] + ring, w]))
    if not np.all(np.isfinite(values)):
        raise EvaluationError("non-finite function value at a located zero or on its residual ring")
    scale = np.abs(values[:, :8]).max(axis=1)
    return np.abs(values[:, 8]) / np.where(scale > 0, scale, np.inf)


def _leaf(fn: AnalyticFn, center: complex, radius: float, polish_multiple: bool = True) -> list | None:
    """All zeros inside one circle as (location, multiplicity) pairs, or None.

    The pencil nodes are polished: the simple zeros by one shared secant
    iteration, each multiple one by one pencil pass on a small circle around
    it, which also splits a close cluster that the large circle saw as one
    multiple zero.  None means the circle was rejected and must be subdivided.
    """
    try:
        s = _circle_moments(fn, center, radius)
    except _ContourDip:
        return None
    if s is None or (found := _pencil(s)) is None:
        return None
    nodes, mults = (np.array(column) for column in zip(*found))
    z = center + radius * nodes
    # distance to the nearest other node or to the circle: no other zero is closer
    gaps = np.where(np.eye(len(nodes), dtype=bool), np.inf, np.abs(nodes[:, None] - nodes))
    iso = radius * np.minimum(1.0 - np.abs(nodes), gaps.min(axis=1))
    if np.any(simple := mults == 1):
        z[simple] = _secants(fn, z[simple], iso[simple])
    out = []
    for zj, isoj, mult in zip(z.tolist(), iso.tolist(), mults.tolist()):
        if mult == 1 or not polish_multiple:
            out.append((zj, mult))
            continue
        inner = _leaf(fn, zj, min(_POLISH_RADIUS * max(1.0, abs(zj)), isoj / 4.0), False)
        if inner is None or sum(k for _, k in inner) != mult:
            return None
        # a cluster too tight for the small circle fails the residual and goes to subdivision
        multiple = [v for v, k in inner if k > 1]
        if multiple and np.any(_residuals(fn, multiple) > _RESIDUAL_TOL):
            return None
        out.extend(inner)
    return out


# ---------------------------------------------------------------------------
# locator
# ---------------------------------------------------------------------------

# split fractions tried when a zero rides an internal subdivision edge
_SPLIT_FRACTIONS = (0.5, 0.5 + 2.0**-8, 0.5 - 2.0**-8, 0.5 + 2.0**-6, 0.5 - 2.0**-6,
                    0.5 + 2.0**-4, 0.5 - 2.0**-4, 0.5 + 0.11, 0.5 - 0.11)
_MAX_CELLS = 50_000


def locate_zeros(f, center: complex = 0j, radius: float = 1.0) -> ZeroSet:
    """Locate all zeros of f in the open disk |z - center| < radius.

    The pencil runs on the disk itself when it holds at most _PENCIL_CAP
    zeros.  Otherwise, or when that pencil is rejected, counted square
    subdivision takes over: cells whose boundary winding is zero are dropped,
    cells with more than _PENCIL_CAP zeros are split (with jittered split
    lines when a zero rides an edge), and every other cell's circumcircle is
    a pencil leaf that keeps the zeros inside its cell.  The returned
    multiplicities always sum to the disk's total winding count; anything
    else raises.
    """
    fn = as_analytic(f)
    center = complex(center)
    outer = count_zeros(fn, center, radius)
    if not outer.reliable:
        raise NonConvergentError(f"outer circle winding {outer.winding:.4f} is not trustworthy")
    if outer.count == 0:
        return ZeroSet(())
    found = _leaf(fn, center, outer.radius) if outer.count <= _PENCIL_CAP else None
    if found is None or sum(m for _, m in found) != outer.count:
        found = []
        cells_used = 0
        floor = 1e-11 * max(1.0, abs(center) + radius)

        def rect_count(x0, x1, y0, y1) -> int:
            nonlocal cells_used
            cells_used += 1
            if cells_used > _MAX_CELLS:
                raise NonConvergentError(f"subdivision exceeded {_MAX_CELLS} cells")
            return _count_rect(fn, x0, x1, y0, y1)

        def split(x0, x1, y0, y1, m) -> None:
            if max(x1 - x0, y1 - y0) <= floor:
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
                    if mq:
                        handle(*q, mq)
                return
            raise UnresolvedClusterError(
                f"could not split cell [{x0:.8g},{x1:.8g}]x[{y0:.8g},{y1:.8g}] holding {m} zeros"
            )

        def handle(x0, x1, y0, y1, m) -> None:
            leaf = None
            if m <= _PENCIL_CAP:
                cell_center = complex((x0 + x1) / 2.0, (y0 + y1) / 2.0)
                leaf = _leaf(fn, cell_center, 1.46 * max(x1 - x0, y1 - y0) / 2.0)
            kept = [(w, k) for w, k in leaf or () if x0 <= w.real <= x1 and y0 <= w.imag <= y1]
            if leaf is None or sum(k for _, k in kept) != m:
                split(x0, x1, y0, y1, m)
                return
            found.extend(kept)

        half = outer.radius * 1.0000019
        for bump in range(9):
            h = half * _NUDGE**bump
            x0, x1, y0, y1 = center.real - h, center.real + h, center.imag - h, center.imag + h
            try:
                root_m = rect_count(x0, x1, y0, y1)
            except _ContourDip:
                continue
            handle(x0, x1, y0, y1, root_m)
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
    for (w, _), ratio in zip(inside, _residuals(fn, [w for w, _ in inside])):
        if ratio > _RESIDUAL_TOL:
            raise UnresolvedClusterError(f"reported zero {w:.8g} has |f| at {ratio:.3g} of its local scale")
    return ZeroSet(tuple(inside))


# ---------------------------------------------------------------------------
# Jensen consistency
# ---------------------------------------------------------------------------


class ZeroAtOriginError(RuntimeError):
    """Jensen comparison needs f(0) != 0."""


def jensen_check(f, radius: float, zeros=None) -> tuple[float, float]:
    """Both sides of Jensen's identity on the circle of the given radius.

    Returns (mean of log|f| on the circle minus log|f(0)|,
    sum of multiplicity * log(radius/|zero|) over zeros inside).
    The circle average starts at 256 samples and doubles them, keeping the
    old ones, until two successive values agree to 1e-10; a zero numerically
    on the circle raises.  When `zeros` is given (any iterable of (location,
    multiplicity) pairs) the right side is computed from that prescription;
    otherwise `locate_zeros` finds them first.
    """
    fn = as_analytic(f)
    f0 = abs(fn(0j))
    if f0 == 0.0:
        raise ZeroAtOriginError("f(0) = 0: Jensen comparison undefined")
    prev = None
    lhs = None
    min_ratio = 1.0
    for values in doubling_circle(fn, radius, 256, 1 << 17):
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
    else:
        if min_ratio < 1e-12:
            # the average stalled while some sample kept collapsing: the
            # integrable log singularity of a zero on the circle
            raise ZeroOnContourError("zero on the Jensen circle")
        raise NonConvergentError("Jensen circle average did not settle at 1e-10")
    zs = list(zeros) if zeros is not None else locate_zeros(fn, 0j, radius)
    rhs = math.fsum(m * math.log(radius / abs(w)) for w, m in zs if abs(w) < radius)
    return lhs, rhs
