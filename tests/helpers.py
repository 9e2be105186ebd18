"""Pair generators and closed-form oracles that only the tests use."""

import math

import mpmath
import numpy as np

from zeroratio.constants import ClassParams, threshold_r1
from zeroratio.factors import ZeroSet, _partial_sum
from zeroratio.models import PairSpec, _spread_radii
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
