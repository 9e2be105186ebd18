"""Constructed entire functions with prescribed zeros, and matched pairs.

An EntireModel is a finite canonical product exp(g(z)) * prod E_p(z/z_k) with
explicit zero locations and multiplicities.  A matched pair is two such
models that share every zero inside the disk B(0, R) and differ only in
"outer" zeros of modulus >= R, which is exactly the configuration the ratio
bound speaks about.  The builder measures the pair's ray envelope constants
on the window the proof evaluates, rather than taking the declared class
parameters on faith, and refuses configurations whose zero counts exceed the
admissible counting rate.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constants import ClassParams, ParameterError, select_p, threshold_r1
from .factors import TailProductSpec, ZeroSet, _log_zero_sum
from .jost import ray_envelope_constant
from .report import format_float
from .zeros import AnalyticFn


class PairConstructionError(RuntimeError):
    """The requested pair violates a construction precondition."""


# ---------------------------------------------------------------------------
# a single model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntireModel:
    """Finite canonical product with an optional polynomial exponent.

    value(z) = exp(poly(z)) * prod_k E_genus(z/z_k)^(m_k), with every zero
    off the origin (a ZeroSet excludes it).
    poly lists coefficients a0..a_deg in ascending powers; its degree must
    not exceed the genus.  Evaluation accumulates logarithms, so products
    with widely spread zeros neither overflow nor lose their exact zeros.
    """

    genus: int
    zeros: ZeroSet
    poly: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ParameterError("genus must be nonnegative")
        if len(self.poly) > self.genus + 1:
            raise ParameterError(
                f"polynomial degree {len(self.poly) - 1} exceeds genus {self.genus}"
            )
        object.__setattr__(
            self, "poly", tuple(complex(c) for c in self.poly)
        )

    # -- evaluation ----------------------------------------------------------

    def poly_value(self, z: np.ndarray) -> np.ndarray:
        return np.polyval(self.poly[::-1], np.asarray(z, dtype=complex))

    def log_value(self, z) -> np.ndarray:
        """The exponent plus the sum of factor logarithms (`_log_zero_sum`); a
        non-finite value marks an exact zero."""
        w = np.asarray(z, dtype=complex).ravel()
        zeros = self.zeros
        total = _log_zero_sum(self.poly_value(w), w, zeros.locations(), zeros.multiplicities(),
                              zeros.moduli(), self.genus)
        return total.reshape(np.shape(z))

    def evaluate(self, z):
        logs = self.log_value(z)
        vals = np.where(np.isfinite(logs), np.exp(logs), 0.0)
        return complex(vals) if vals.ndim == 0 else vals

    __call__ = evaluate

    def as_analytic_fn(self) -> AnalyticFn:
        return AnalyticFn(evaluator=lambda w: np.asarray(self.evaluate(w)))


# ---------------------------------------------------------------------------
# zero-count compliance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountCompliance:
    """How a zero set compares against the class counting rate.

    The admissible bound n(r) <= 2*sigma*(2e)^rho * r^rho is claimed for
    r >= r1 only; compliance is checked at r1 and at every jump radius at or
    beyond it, which covers all radii because the bound is increasing and the
    count is a step function.  `margin` is min over checked radii of
    bound/count (inf when nothing needed checking).
    """

    ok: bool
    margin: float
    worst_radius: float
    worst_count: int
    worst_bound: float


def count_compliance(zeros: ZeroSet, params: ClassParams) -> CountCompliance:
    r1 = threshold_r1(params)
    moduli = zeros.moduli()
    beyond = moduli >= r1
    radii = [r1] + moduli[beyond].tolist()
    counts = np.concatenate(([zeros.count_within(r1)], np.cumsum(zeros.multiplicities())[beyond]))
    rate = params.count_rate()
    # Python's power per radius: numpy's can differ in the last bit for non-integer rho
    bounds = np.array([rate * r**params.rho for r in radii])
    ratios = np.divide(bounds, counts, out=np.full(len(radii), math.inf), where=counts > 0)
    k = int(np.argmin(ratios))
    return CountCompliance(
        ok=bool(np.all(counts <= bounds)),
        margin=float(ratios[k]),
        worst_radius=radii[k],
        worst_count=int(counts[k]),
        worst_bound=float(bounds[k]),
    )


# ---------------------------------------------------------------------------
# matched pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSpec:
    """Blueprint for two models sharing all zeros inside B(0, R).

    shared holds the common zeros (moduli strictly below R); outer_a and
    outer_b the respective private zeros (moduli at least R).  poly_a and
    poly_b optionally put polynomial exponents on the two models to exercise
    the coefficient-amplification path; both default to zero.
    """

    shared: ZeroSet
    outer_a: ZeroSet
    outer_b: ZeroSet
    R: float
    delta: float
    params: ClassParams
    ray_angle: float = 0.0
    genus: int | None = None
    poly_a: tuple[complex, ...] = ()
    poly_b: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.R <= 0:
            raise ParameterError("R must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError("delta must lie strictly between 0 and 1")

    def resolved_genus(self) -> int:
        if self.genus is not None:
            return self.genus
        return select_p(self.params.rho, self.params.mu, self.delta)


@dataclass(frozen=True)
class MeasuredConstants:
    """A-posteriori constants of a constructed pair.

    envelope_C1_* is the smallest constant making |psi - 1| <= C1 * r^(-mu)
    hold at 129 log-spaced radii of the measurement window along the declared
    ray, with mu taken from the declared class parameters; compliance_* is
    each zero set's count compliance.
    """

    envelope_C1_a: float
    envelope_C1_b: float
    compliance_a: CountCompliance
    compliance_b: CountCompliance

    @property
    def envelope_C1(self) -> float:
        return max(self.envelope_C1_a, self.envelope_C1_b)


@dataclass(frozen=True)
class PairBuild:
    spec: PairSpec
    p: int
    psi1: EntireModel
    psi2: EntireModel
    measured: MeasuredConstants

    def tail_spec_a(self) -> TailProductSpec:
        return TailProductSpec(zeros=self.spec.outer_a, genus=self.p, cutoff=self.spec.R)

    def tail_spec_b(self) -> TailProductSpec:
        return TailProductSpec(zeros=self.spec.outer_b, genus=self.p, cutoff=self.spec.R)

    @cached_property
    def signed_outer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only locations, multiplicities and moduli of the outer zeros as
        one set: +m for outer_b, -m for outer_a.  A zero of both enters once
        with its net multiplicity, or not at all when that is 0."""
        a, b = self.spec.outer_a, self.spec.outer_b
        locs, index = np.unique(np.concatenate([b.locations(), a.locations()]), return_inverse=True)
        net = np.zeros(len(locs), dtype=int)
        np.add.at(net, index, np.concatenate([b.multiplicities(), -a.multiplicities()]))
        locs = locs[net != 0]
        arrays = (locs, net[net != 0], np.hypot(locs.real, locs.imag))
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def log_tail_ratio(self, z) -> np.ndarray:
        """log(Pi2/Pi1), one sum over the signed outer zeros.  The shared zeros
        cancel, so psi2/psi1 = exp(g2 - g1 + log(Pi2/Pi1)) on B(0, R)."""
        w = np.asarray(z, dtype=complex).ravel()
        return _log_zero_sum(np.zeros_like(w), w, *self.signed_outer, self.p).reshape(np.shape(z))

    def log_ratio(self, z) -> np.ndarray:
        """log(psi2/psi1) = (g2 - g1) + log(Pi2/Pi1) on B(0, R): psi2 = psi1 * e^log_ratio."""
        return self.psi2.poly_value(z) - self.psi1.poly_value(z) + self.log_tail_ratio(z)


def measurement_window(R: float, delta: float, p: int, r0: float) -> tuple[float, float]:
    """Radial window along the ray over which pair constants are measured.

    The proof evaluates the ray hypothesis on [R^(1-delta), (p+1)R^(1-delta)];
    the window pads that segment by 10% each way and respects the activation
    radius r0.
    """
    base = R ** (1.0 - delta)
    lo = max(r0, 0.9 * base)
    hi = 1.1 * (p + 1) * base
    if hi <= lo:
        hi = 2.0 * lo
    return lo, hi


def build_pair(spec: PairSpec) -> PairBuild:
    """Construct both models and measure their actual constants.

    Raises PairConstructionError when the zero sets break the blueprint
    (shared zeros reaching R, outer zeros inside R) or when either combined
    zero set violates the class counting rate; the error names the offending
    radius.
    """
    R = spec.R
    if len(spec.shared) and spec.shared.max_modulus() >= R:
        raise PairConstructionError(
            f"shared zero at modulus {spec.shared.max_modulus():.6g} is not inside R={R:.6g}"
        )
    for name, outer in (("outer_a", spec.outer_a), ("outer_b", spec.outer_b)):
        if len(outer) and outer.min_modulus() < R:
            raise PairConstructionError(
                f"{name} zero at modulus {outer.min_modulus():.6g} lies inside R={R:.6g}"
            )
    p = spec.resolved_genus()
    zeros1 = spec.shared.merged_with(spec.outer_a)
    zeros2 = spec.shared.merged_with(spec.outer_b)
    comp1, comp2 = count_compliance(zeros1, spec.params), count_compliance(zeros2, spec.params)
    for comp, name in ((comp1, "psi1"), (comp2, "psi2")):
        if not comp.ok:
            raise PairConstructionError(
                f"count bound violated for {name} at radius {comp.worst_radius:.6g}: "
                f"n = {comp.worst_count} > {comp.worst_bound:.6g}"
            )
    psi1 = EntireModel(genus=p, zeros=zeros1, poly=spec.poly_a)
    psi2 = EntireModel(genus=p, zeros=zeros2, poly=spec.poly_b)
    lo, hi = measurement_window(R, spec.delta, p, spec.params.r0)
    radii = np.geomspace(lo, hi, 129)
    mu = spec.params.mu
    measured = MeasuredConstants(
        envelope_C1_a=ray_envelope_constant(psi1, spec.ray_angle, mu, radii),
        envelope_C1_b=ray_envelope_constant(psi2, spec.ray_angle, mu, radii),
        compliance_a=comp1,
        compliance_b=comp2,
    )
    return PairBuild(spec=spec, p=p, psi1=psi1, psi2=psi2, measured=measured)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def compliant_tail_zeros(
    seed: int,
    params: ClassParams,
    R: float,
    span: float = 2.0,
    fill: float | None = None,
) -> ZeroSet:
    """Random zero set in moduli [R, span*R] saturating a fraction of the rate.

    Radii are placed so the cumulative count at radius r never exceeds
    fill * rate * r^rho, which keeps the set compliant with margin 1/fill.
    """
    if span <= 1.0:
        raise ParameterError("span must exceed 1")
    rng = np.random.default_rng(seed)
    if fill is None:
        fill = float(rng.uniform(0.5, 0.95))
    if not (0.0 < fill <= 1.0):
        raise ParameterError("fill must lie in (0, 1]")
    rate = fill * params.count_rate()
    k_lo = int(math.ceil(rate * R**params.rho))
    k_hi = int(math.floor(rate * (span * R) ** params.rho))
    if k_hi < k_lo:
        raise PairConstructionError(
            f"rate {params.count_rate():.4g} admits no zeros in [{R:.4g}, {span * R:.4g}]"
        )
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    radii = (ks / rate) ** (1.0 / params.rho)
    radii = np.maximum(radii, R * (1.0 + 1e-9))
    angles = rng.uniform(0.0, 2.0 * math.pi, len(radii))
    return ZeroSet.from_points(radii * np.exp(1j * angles))


def _spread_radii(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """Ascending radii covering [lo, hi] through jittered quantiles."""
    qs = (np.arange(count) + rng.uniform(0.2, 0.8, count)) / count
    return lo + (hi - lo) * np.sort(qs)


# The desk-scale regime: every activation radius r1..r5 must land below R so
# the final inequality can be observed with all preconditions genuinely met.
# C0 = 0.5 makes ln(2*C0) vanish, pinning r1 = c; sigma is just large enough
# to admit the zero counts; mu = 2 with delta = 0.9 keeps r4 and r5 tame; the
# decay constant C1 is declared from the measured envelope (never below the
# floor that keeps r5 under R, never above the cap that keeps r4 small).  The
# probe is built at the floor: c = max(r0, sqrt(2*C1)) = r0 = 1 across the whole
# band, so r1 and the one compliance pass of that build are the declared class's.
_ENGINEERED_C1_FLOOR = 1.0e-3
_ENGINEERED_C1_CAP = 2.0e-3
_ENGINEERED_PARAMS = ClassParams(C0=0.5, C1=_ENGINEERED_C1_FLOOR, rho=1.0, sigma=2.2e-3, mu=2.0, r0=1.0)
_ENGINEERED_R = 300.0
_ENGINEERED_DELTA = 0.9


def engineered_pair(seed: int = 0, poly_scale: float = 0.0) -> PairBuild:
    """Pair in the desk-scale regime with honestly declared constants.

    Draws far-out shared zeros (moduli 230..292) and small outer sets
    (moduli 312..415), measures the ray envelope at the declared mu, then
    declares C1 as 1.25 times the measured envelope clamped to the regime's
    safe band.  One build at the band's floor makes the one compliance pass:
    C1 enters neither the models nor their envelopes, and r1 is the same
    across the band.  Raises PairConstructionError if the declared constant
    fails to dominate the measurement or a zero count exceeds the class rate.
    """
    rng = np.random.default_rng(seed)
    R = _ENGINEERED_R
    n_shared = int(rng.integers(3, 6))
    radii = _spread_radii(rng, n_shared, 0.77 * R, 0.973 * R)
    mults = np.ones(n_shared, dtype=int)
    mults[int(rng.integers(0, n_shared))] = 2
    shared = ZeroSet.from_points(
        radii * np.exp(1j * rng.uniform(0, 2 * math.pi, n_shared)), mults
    )

    def outer_set():
        n = int(rng.integers(2, 4))
        rr = _spread_radii(rng, n, 1.04 * R, 1.383 * R)
        return ZeroSet.from_points(rr * np.exp(1j * rng.uniform(0, 2 * math.pi, n)))

    poly_a: tuple[complex, ...] = ()
    poly_b: tuple[complex, ...] = ()
    if poly_scale > 0.0:
        poly_a, poly_b = _engineered_polys(rng, poly_scale, R)

    probe = PairSpec(
        shared=shared,
        outer_a=outer_set(),
        outer_b=outer_set(),
        R=R,
        delta=_ENGINEERED_DELTA,
        params=_ENGINEERED_PARAMS,
        ray_angle=0.0,
        poly_a=poly_a,
        poly_b=poly_b,
    )
    build = build_pair(probe)
    envelope = build.measured.envelope_C1
    declared = min(max(1.25 * envelope, _ENGINEERED_C1_FLOOR), _ENGINEERED_C1_CAP)
    if envelope > declared:
        raise PairConstructionError(
            f"measured ray envelope {envelope:.3e} exceeds the declared band cap {_ENGINEERED_C1_CAP:.3e}"
        )
    return replace(build, spec=replace(probe, params=replace(_ENGINEERED_PARAMS, C1=declared)))


def _engineered_polys(rng, scale: float, R: float) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Two tiny admissible polynomial exponents for the engineered pair.

    Coefficient j has modulus at most scale / ((p+1) * hi^(j+mu)), with hi the
    top of the measurement window, so |g(z)| * |z|^mu <= scale on the whole
    window.  That is the quantity the ray envelope |psi - 1| * r^mu measures,
    so a small scale keeps the envelope in the declared band while making the
    polynomial-difference path nontrivial.
    """
    mu = _ENGINEERED_PARAMS.mu
    p = select_p(_ENGINEERED_PARAMS.rho, mu, _ENGINEERED_DELTA)
    _lo, hi = measurement_window(R, _ENGINEERED_DELTA, p, _ENGINEERED_PARAMS.r0)

    def draw():
        coeffs = []
        for j in range(p + 1):
            bound = scale / ((p + 1) * hi ** (j + mu))
            coeffs.append(cmath.rect(bound * rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)))
        return tuple(coeffs)

    return draw(), draw()


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------


def save_pair_file(spec: PairSpec, path: str) -> None:
    """Write the pair blueprint as JSON next to three zero-list CSV files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    stem = os.path.splitext(os.path.basename(path))[0]
    names = {
        "shared_zeros": f"{stem}_shared.csv",
        "outer_a": f"{stem}_outer_a.csv",
        "outer_b": f"{stem}_outer_b.csv",
    }
    spec.shared.to_csv(os.path.join(directory, names["shared_zeros"]))
    spec.outer_a.to_csv(os.path.join(directory, names["outer_a"]))
    spec.outer_b.to_csv(os.path.join(directory, names["outer_b"]))
    params = spec.params
    payload = {
        "shared_zeros": names["shared_zeros"],
        "outer_a": names["outer_a"],
        "outer_b": names["outer_b"],
        "p": spec.genus,
        "ray_angle": format_float(spec.ray_angle),
        "params": {
            "C0": format_float(params.C0),
            "C1": format_float(params.C1),
            "rho": format_float(params.rho),
            "sigma": format_float(params.sigma),
            "mu": format_float(params.mu),
            "r0": format_float(params.r0),
        },
    }
    if spec.poly_a:
        payload["poly_a"] = [[format_float(c.real), format_float(c.imag)] for c in spec.poly_a]
    if spec.poly_b:
        payload["poly_b"] = [[format_float(c.real), format_float(c.imag)] for c in spec.poly_b]
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_pair_file(path: str, R: float, delta: float) -> PairSpec:
    """Read a pair blueprint; zero CSV paths resolve relative to the file.

    A file that is not JSON, or lacks a key or a number the blueprint needs,
    raises ParameterError naming the file.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as fh:
        try:
            data = json.load(fh)
            raw = data["params"]
            genus = data.get("p")
            fields = dict(
                shared=ZeroSet.from_csv(os.path.join(base, data["shared_zeros"])),
                outer_a=ZeroSet.from_csv(os.path.join(base, data["outer_a"])),
                outer_b=ZeroSet.from_csv(os.path.join(base, data["outer_b"])),
                params=ClassParams(r0=float(raw.get("r0", 1.0)), **{
                    k: float(raw[k]) for k in ("C0", "C1", "rho", "sigma", "mu")}),
                ray_angle=float(data.get("ray_angle", 0.0)),
                genus=None if genus is None else int(genus),
                poly_a=tuple(complex(float(re), float(im)) for re, im in data.get("poly_a") or ()),
                poly_b=tuple(complex(float(re), float(im)) for re, im in data.get("poly_b") or ()),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed pair file {path}: {exc!r}") from exc
    return PairSpec(R=R, delta=delta, **fields)
