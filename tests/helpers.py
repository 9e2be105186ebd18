"""Pair generators and closed-form oracles that only the tests use."""

import math

import mpmath
import numpy as np

from zeroratio.constants import ClassParams
from zeroratio.factors import ZeroSet, _partial_sum
from zeroratio.models import PairSpec, _spread_radii

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
