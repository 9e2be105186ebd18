"""Pair generators and closed-form oracles that only the tests use."""

import math

import mpmath
import numpy as np

from zeroratio.constants import ClassParams, threshold_r1
from zeroratio.factors import ZeroSet, _partial_sum
from zeroratio.models import CountCompliance, PairSpec, _spread_radii
from zeroratio.report import VerificationReport, precondition
from zeroratio.zeros import count_zeros

_RANDOM_PAIR_PARAMS = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=0.08, mu=1.0, r0=1.0)


def random_pair(
    seed: int,
    R: float = 60.0,
    delta: float = 2.0 / 3.0,
    params: ClassParams = _RANDOM_PAIR_PARAMS,
    ray_angle: float = 0.0,
) -> PairSpec:
    """Generic compliant pair for identity and property tests.

    Shared zeros live in moduli [0.25R, 0.95R] with occasional multiplicity
    two, outer zeros in [1.02R, 2R]; radii follow spread quantiles so the
    cumulative count stays well under the admissible rate.
    """
    rng = np.random.default_rng(seed)
    rate = params.count_rate()
    n_budget = int(0.5 * rate * (0.95 * R) ** params.rho)
    n_shared = int(rng.integers(3, max(4, min(18, n_budget))))
    shared_radii = _spread_radii(rng, n_shared, 0.25 * R, 0.95 * R)
    shared_mults = np.where(rng.random(n_shared) < 0.15, 2, 1)
    shared = ZeroSet.from_points(
        shared_radii * np.exp(1j * rng.uniform(0, 2 * math.pi, n_shared)),
        shared_mults,
    )

    def outer_set():
        n = int(rng.integers(2, 7))
        radii = _spread_radii(rng, n, 1.02 * R, 2.0 * R)
        return ZeroSet.from_points(radii * np.exp(1j * rng.uniform(0, 2 * math.pi, n)))

    return PairSpec(
        shared=shared,
        outer_a=outer_set(),
        outer_b=outer_set(),
        R=R,
        delta=delta,
        params=params,
        ray_angle=ray_angle,
    )


def outside_class_pair() -> PairSpec:
    """A pair past R0 that breaks its class: the engineered class with C1 =
    1e-3 at R = 1e9 and delta = 0.9; 4 shared zeros in [0.77R, 0.973R], then
    3 + 3 outer zeros in [1.04R, 1.383R] from default_rng(0), radii drawn
    before angles; and psi2 carries the exponent 0.1 z, whose ray envelope
    (3.9e4) is far above C1."""
    rng = np.random.default_rng(0)
    R = 1e9

    def zeros(n, lo, hi):
        radii = rng.uniform(lo * R, hi * R, n)
        return ZeroSet.from_points(radii * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))

    params = ClassParams(C0=0.5, C1=1e-3, rho=1.0, sigma=2.2e-3, mu=2.0, r0=1.0)
    shared = zeros(4, 0.77, 0.973)
    outer_a = zeros(3, 1.04, 1.383)
    return PairSpec(shared, outer_a, zeros(3, 1.04, 1.383), R=R, delta=0.9, params=params,
                    poly_b=(0, 0.1))


def primary_factor_grid(z: np.ndarray, location: complex, p: int) -> np.ndarray:
    """E_p(z / location) over an array, explicit form, valid for any ratio."""
    z = np.asarray(z, dtype=complex)
    xi = z / location
    if p == 0:
        return 1.0 - xi
    return (1.0 - xi) * np.exp(_partial_sum(xi, p))


def mpmath_product(model, w):
    """The canonical product at the mpc w, factor by factor, at mpmath's precision."""
    value = mpmath.exp(sum(mpmath.mpc(c) * w**k for k, c in enumerate(model.poly)))
    for loc, mult in model.zeros:
        xi = w / mpmath.mpc(loc.real, loc.imag)
        partial = sum(xi**k / k for k in range(1, model.genus + 1))
        value *= ((1 - xi) * mpmath.exp(partial)) ** mult
    return value


def secant_reference(fn, w: complex, iso: float) -> complex:
    """One node's secant iteration in Python scalars, one evaluation per step."""
    z0, z1 = w + iso / 1024.0, w
    f0 = fn(z0)
    for _ in range(60):
        f1 = fn(z1)
        if f1 == f0 or f1 == 0:
            break
        z0, f0, z1 = z1, f1, z1 - f1 * (z1 - z0) / (f1 - f0)
        if abs(z1 - z0) <= 1e-15 * max(1.0, abs(z1)):
            break
    return z1 if abs(z1 - w) <= iso / 2.0 else w


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


def count_compliance_loop(zeros: ZeroSet, params: ClassParams) -> CountCompliance:
    """The per-zero Python loop that `count_compliance` replaced, kept as its
    reference: the count at r1 and at every zero at or beyond r1."""
    r1 = threshold_r1(params)
    rate = params.count_rate()
    moduli = zeros.moduli()
    if len(moduli) == 0:
        return CountCompliance(True, math.inf, r1, 0, rate * r1**params.rho)
    cumulative = np.cumsum(zeros.multiplicities())
    radii = [r1]
    counts = [int(sum(m for loc, m in zeros.entries if abs(loc) <= r1))]
    for s, n in zip(moduli, cumulative):
        if s >= r1:
            radii.append(float(s))
            counts.append(int(n))
    bounds = [rate * r**params.rho for r in radii]
    ratios = [b / n if n > 0 else math.inf for b, n in zip(bounds, counts)]
    k = int(np.argmin(ratios))
    return CountCompliance(
        ok=all(n <= b for n, b in zip(counts, bounds)),
        margin=float(ratios[k]),
        worst_radius=radii[k],
        worst_count=counts[k],
        worst_bound=bounds[k],
    )
