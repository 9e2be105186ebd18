"""Numerical certification of every inequality in the ratio-bound chain.

Each check_* function samples one inequality of the proof on a grid or
segment, measures its preconditions instead of assuming them, and returns a
VerificationReport whose verdict can only be "fail" when every measured
precondition actually held.

Every sampled sup is a `_Sup`: a coarse and a fine maximum from one batch of
points, the fine samples being the coarse ones plus their midpoints.  Its
`report` method builds the check's report: `observed` is the fine maximum,
`details` ends with `sup_base` and `sup_refined`, and the last precondition,
"grid sup converged", asks the two maxima to agree within 1%.  A disk sup is
of a function holomorphic on the closed disk, so it lies on the boundary
circle (maximum modulus principle): its fine samples are the circle at 2N
points, N the grid's spokes, and its coarse ones the even points, which are
the polar lattice's outer ring.  Only the decomposition identity samples the
lattice's inner rings.

Every pair check but one reads psi2 through psi1: psi2/psi1 = e^L with
L = (g2 - g1) + log(Pi2/Pi1) (`PairBuild.log_ratio`), a sum over the signed
outer zeros alone, so nothing is divided or masked.  The theorem and step 5's
ray read |e^L - 1| and remark 5 reads |psi2 - psi1| = |psi1| |e^L - 1|; the
ray envelopes of the theorem and step 5 are the ones build_pair measured.
Only the decomposition identity evaluates psi2 on its own, divides it by
psi1 and sums its tails factor by factor, on the boundary circle, as an
independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .constants import (
    ClassParams,
    ParameterError,
    constant_Ap,
    constant_C2,
    derive_constants,
    threshold_r2,
    vandermonde_cofactors,
)
from .factors import TailProductSpec, ZeroSet, cexpm1, far_field_order, log_tail_product_grid
from .grids import DiskGrid, segment_points
from .models import CountCompliance, EntireModel, PairBuild, count_compliance
from .report import Precondition, VerificationReport, precondition
from .zeros import EvaluationError

# relative |psi1| below which the decomposition identity excludes a sample
_DENOM_FLOOR = 1e-10

# agreement demanded between base and doubled grids, relative
_REFINE_TOL = 1e-2


# ---------------------------------------------------------------------------
# evaluation plumbing
# ---------------------------------------------------------------------------


def default_disk_grid(rings: int = 8, spokes: int = 256) -> DiskGrid:
    return DiskGrid(rings, spokes)


@dataclass(frozen=True)
class _Sup:
    """A sampled sup: the coarse and fine maxima and the points evaluated."""

    base: float
    fine: float
    samples: int

    @classmethod
    def of(cls, values: np.ndarray, coarse: np.ndarray) -> "_Sup":
        """The sup of `values` at fine samples, `coarse` masking the coarse ones."""
        return cls(float(np.max(values[coarse], initial=0.0)),
                   float(np.max(values, initial=0.0)), len(values))

    def report(self, check: str, bound: float, preconditions: list[Precondition],
               details: dict) -> VerificationReport:
        """The check's report: `observed` is the fine sup, `details` end with
        both sups, and the last precondition asks the two sups to agree
        within 1%."""
        scale = max(abs(self.fine), abs(self.base))
        change = abs(self.fine - self.base) / scale if scale > 0.0 else 0.0
        converged = precondition("grid sup converged", change <= _REFINE_TOL, _REFINE_TOL, change)
        return VerificationReport(
            check=check,
            bound=bound,
            observed=self.fine,
            samples=self.samples,
            preconditions=[*preconditions, converged],
            details={**details, "sup_base": self.base, "sup_refined": self.fine},
        )


def _circle(radius: float, grid: DiskGrid | None) -> tuple[np.ndarray, np.ndarray]:
    """The 2N fine samples of the circle |z| = radius, N the grid's spokes,
    and a mask of the N coarse ones among them, the even points.  These are
    the outer ring of the grid's polar lattice, bitwise, and by the maximum
    modulus principle no point inside the circle can exceed its sup."""
    spokes = (grid or default_disk_grid()).spokes
    fine = DiskGrid(1, 2 * spokes).points(radius)
    coarse = np.zeros(len(fine), dtype=bool)
    coarse[::2] = True
    return fine, coarse


def _segment(start: complex, end: complex, n: int,
             include: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The 2n - 1 fine samples of [start, end] and a mask of the n coarse ones
    among them, both with the `include` points.  Halving the uniform step is
    exact, so every coarse sample is a fine one, bitwise, and both lists are
    sorted by their distance from start."""
    fine = segment_points(start, end, 2 * n - 1, include=include)
    coarse = np.zeros(len(fine), dtype=bool)
    coarse[np.searchsorted(np.abs(fine - start),
                           np.abs(segment_points(start, end, n, include=include) - start))] = True
    return fine, coarse


def _compliance_precondition(name: str, comp: CountCompliance) -> Precondition:
    return precondition(name, comp.ok, comp.worst_bound, float(comp.worst_count))


def _envelope_preconditions(build: PairBuild) -> list[Precondition]:
    """The ray envelopes of psi1 and psi2 against C1, as measured by build_pair."""
    C1 = build.spec.params.C1
    return [precondition(f"measured ray envelope {name} <= C1", env <= C1, C1, env)
            for name, env in (("psi1", build.measured.envelope_C1_a),
                              ("psi2", build.measured.envelope_C1_b))]


def _pair_compliance(build: PairBuild) -> list[Precondition]:
    """Zero-count compliance of psi1 and psi2, as measured by build_pair."""
    return [
        _compliance_precondition(f"{name} zero counts within class rate", comp)
        for name, comp in (("psi1", build.measured.compliance_a),
                           ("psi2", build.measured.compliance_b))
    ]


def _poly_delta(build: PairBuild, z: np.ndarray) -> np.ndarray:
    return build.psi2.poly_value(z) - build.psi1.poly_value(z)


# ---------------------------------------------------------------------------
# tail-product smallness
# ---------------------------------------------------------------------------


def check_lemma2(
    zeros: ZeroSet,
    R: float,
    a: float,
    p: int,
    delta: float,
    params: ClassParams,
    grid: DiskGrid | None = None,
) -> VerificationReport:
    """Tail-product deviation |Pi(R, z) - 1| against 2*C2*a^(p+1)*R^(-mu).

    The supremum is sampled over the disk B(0, a*R^(1-delta)).  Preconditions
    measured: the activation radius R >= r2, compliance of the zero counts
    with the class rate, and grid-refinement stability of the supremum.
    """
    if len(zeros) and zeros.min_modulus() < R:
        raise ParameterError(
            f"tail zero at modulus {zeros.min_modulus():.6g} lies inside R = {R:.6g}"
        )
    radius = a * R ** (1.0 - delta)
    pts, coarse = _circle(radius, grid)
    # the tail bound holds only on the guard disk
    TailProductSpec(zeros=zeros, genus=p, cutoff=R).require_guard(pts)
    sup = _Sup.of(np.abs(cexpm1(EntireModel(genus=p, zeros=zeros).log_value(pts))), coarse)
    C2 = constant_C2(p, params.sigma, params.rho)
    r2 = threshold_r2(a, p, delta, params)
    return sup.report(
        "tail-product-smallness",
        2.0 * C2 * a ** (p + 1) * R ** (-params.mu),
        [
            precondition("R >= r2", R >= r2, r2, R),
            _compliance_precondition("zero counts within class rate",
                                     count_compliance(zeros, params)),
        ],
        dict(R=R, a=a, p=p, delta=delta, disk_radius=radius,
             zero_count=int(zeros.total_multiplicity), C2=C2),
    )


# ---------------------------------------------------------------------------
# segment-to-disk amplification for polynomial exponents
# ---------------------------------------------------------------------------


def check_lemma3(
    coeffs: Sequence[complex],
    r: float,
    mu: float,
    grid: DiskGrid | None = None,
    segment_samples: int = 2048,
) -> VerificationReport:
    """Disk bound |e^g - 1| <= 2*eps*A_p from segment smallness of e^g - 1.

    eps is measured as the smallest constant with |e^g(z) - 1| <= eps*(z/r)^(-mu)
    on the segment [r, (p+1)r]; the preconditions eps <= 1/2 and
    eps*A_p <= 1/4 are measured, never assumed.  The report's details carry
    the Cramer reconstruction of the coefficients from the p+1 node samples
    and the per-coefficient amplification bounds.
    """
    coeffs = tuple(complex(c) for c in coeffs)
    p = len(coeffs) - 1
    if p < 1:
        raise ParameterError("the amplification bound needs a polynomial of degree >= 1")
    if r <= 0:
        raise ParameterError("segment base radius must be positive")
    Ap = constant_Ap(p, mu)

    def g(z):
        return np.polyval(coeffs[::-1], np.asarray(z, dtype=complex))

    def magnitude(pts):
        with np.errstate(over="ignore", invalid="ignore"):
            values = g(pts)
            out = np.abs(cexpm1(values))
        if not np.all(np.isfinite(out)):
            raise OverflowError(f"e^g overflows double precision: Re g reaches {np.max(values.real):.6g}")
        return out

    nodes = r * np.arange(1, p + 2, dtype=float)
    radii = np.real(segment_points(r, (p + 1) * r, segment_samples, include=nodes))
    seg_h = magnitude(radii)
    C1_meas = float(np.max(seg_h * radii**mu))
    eps = C1_meas * r**-mu

    pts, coarse = _circle(r, grid)
    sup = _Sup.of(magnitude(pts), coarse)

    # exact Cramer reconstruction from the node samples g(kr)
    table = vandermonde_cofactors(p)
    zeta = g(nodes.astype(complex))
    recon = []
    coeff_rows = []
    for j in range(1, p + 2):
        acc = 0.0 + 0.0j
        for k in range(1, p + 2):
            acc += zeta[k - 1] * table.cofactors[k - 1][j - 1]
        a_rec = acc / (table.det * r ** (j - 1))
        recon.append(a_rec)
        weight = table.row_weighted_column_sum(j, mu)
        coeff_bound = eps * (1.0 + eps) * r ** (-(j - 1)) * weight
        coeff_rows.append(
            {
                "j": j,
                "magnitude": abs(coeffs[j - 1]),
                "bound": coeff_bound,
                "ok": bool(abs(coeffs[j - 1]) <= coeff_bound * (1.0 + 1e-12)),
            }
        )
    scale = max(max(abs(c) for c in coeffs), 1e-300)
    recon_err = max(abs(a - b) for a, b in zip(recon, coeffs)) / scale

    # the segment's samples count too
    return replace(sup, samples=sup.samples + len(radii)).report(
        "segment-to-disk-amplification",
        2.0 * eps * Ap,
        [
            precondition("eps <= 1/2", eps <= 0.5, 0.5, eps),
            precondition("eps*Ap <= 1/4", eps * Ap <= 0.25, 0.25, eps * Ap),
        ],
        dict(p=p, r=r, mu=mu, Ap=Ap, eps=eps, measured_C1=C1_meas,
             reconstruction_max_error=recon_err, coefficient_bounds=coeff_rows,
             cramer_ok=bool(all(row["ok"] for row in coeff_rows))),
    )


# ---------------------------------------------------------------------------
# the exact decomposition identity
# ---------------------------------------------------------------------------


def _lattice_log_tail_ratio(tails: Sequence[TailProductSpec], grid: DiskGrid,
                            radius: float) -> np.ndarray:
    """log Pi1 - log Pi2 on the grid's polar lattice of B(0, radius), summed
    factor by factor on the boundary circle only.

    The sum is holomorphic on the closed disk, so the FFT of its values at
    n equispaced circle points gives its Taylor coefficients times radius^m,
    aliased by those of order m + n, m + 2n, ...  n is the smallest
    spokes*2^j above the order `log_far_field` keeps for q = radius/min|z_n|,
    which leaves the aliased remainder under the power sums' own 1e-17
    relative rule.  Ring k is the inverse FFT of the coefficients scaled by
    (r_k/radius)^m and folded onto the spokes (Cauchy's formula by the
    trapezoid rule); the outer ring is every 2^j-th circle point, bitwise.
    """
    radii = grid.ring_radii(radius)
    for tail in tails:
        tail.require_guard(radii[-1:])  # q < 1, so the order below is finite
    q = radii[-1] / min(tail.zeros.min_modulus() for tail in tails)
    n, order = grid.spokes, far_field_order(q, tails[0].genus)
    while n <= order:
        n *= 2
    circle = DiskGrid(1, n).points(radii[-1])
    on_circle = log_tail_product_grid(tails[0], circle) - log_tail_product_grid(tails[1], circle)
    scaled = np.fft.fft(on_circle) * (radii[:-1, None] / radii[-1]) ** np.arange(n)
    folded = scaled.reshape(len(scaled), -1, grid.spokes).sum(axis=1)
    inner = np.fft.ifft(folded, axis=1) * (grid.spokes / n)
    return np.concatenate([inner.ravel(), on_circle[:: n // grid.spokes]])


def check_decomposition(
    build: PairBuild,
    grid: DiskGrid | None = None,
) -> VerificationReport:
    """Pointwise identity test of the exponent-difference decomposition.

    e^(g2-g1) - 1 must equal (psi2/psi1 - 1)*Pi1/Pi2 + (Pi1/Pi2 - 1) exactly;
    the check evaluates both sides independently (the exponents on the left;
    honest division of the models and a reference tail sum that never uses
    power sums on the right) and reports the largest discrepancy against a
    1e-10 floor scaled by the magnitudes involved.  An identity holds inside
    the disk as much as on its boundary, so the samples are the whole polar
    lattice of the grid.  The models are evaluated at every lattice point;
    the tail sum factor by factor on the boundary circle only, reaching the
    inner rings by Cauchy's formula (`_lattice_log_tail_ratio`), with an
    absolute error of about eps times the tails' power-sum bound
    sum m_n (radius/|z_n|)^(p+1) on the circle.  It is the one check that
    divides psi2 by psi1, so near-zero denominators are excluded here, with
    the count reported.
    """
    spec = build.spec
    grid = grid or default_disk_grid()
    radius = (build.p + 1) * spec.R ** (1.0 - spec.delta)
    pts = grid.points(radius)

    v1, v2 = build.psi1.evaluate(pts), build.psi2.evaluate(pts)
    scale = float(np.max(np.abs(v1), initial=0.0))
    if scale == 0.0:
        raise EvaluationError("psi1 vanishes on the whole grid")
    keep = np.abs(v1) > _DENOM_FLOOR * scale  # near-zero denominators are excluded, not divided
    ratio_m1 = np.zeros_like(v1)
    ratio_m1[keep] = (v2[keep] - v1[keep]) / v1[keep]
    log_ratio = _lattice_log_tail_ratio((build.tail_spec_a(), build.tail_spec_b()), grid, radius)
    pi_ratio = np.exp(log_ratio)
    pi_m1 = cexpm1(log_ratio)
    lhs = cexpm1(_poly_delta(build, pts))

    rhs = ratio_m1 * pi_ratio + pi_m1
    disc = np.abs(lhs - rhs)[keep]
    mags = np.abs(ratio_m1 * pi_ratio) + np.abs(pi_m1)
    observed = float(np.max(disc, initial=0.0))
    bound = 1e-10 * (1.0 + float(np.max(mags[keep], initial=0.0)))
    excluded = int(np.sum(~keep))
    return VerificationReport(
        check="decomposition-identity",
        bound=bound,
        observed=observed,
        samples=int(np.sum(keep)),
        preconditions=[
            precondition("denominator nonvanishing at all samples", excluded == 0, 0.0, float(excluded)),
        ],
        details={
            "R": spec.R,
            "disk_radius": radius,
            "excluded_points": excluded,
            "max_magnitude": float(np.max(mags[keep], initial=0.0)),
        },
    )


# ---------------------------------------------------------------------------
# the five chained bounds on the way to the theorem
# ---------------------------------------------------------------------------


def check_step5_bounds(
    build: PairBuild,
    grid: DiskGrid | None = None,
    segment_samples: int = 1024,
) -> list[VerificationReport]:
    """The chain of intermediate bounds, one report each.

    ray-ratio-smallness   sup over the ray segment of |psi2/psi1 - 1| vs (2+3*eta)*eta
    tail-ratio-magnitude  sup over B(0,(p+1)R^(1-delta)) of |Pi1/Pi2| vs 1+3*eta2
    tail-ratio-deviation  same disk, |Pi1/Pi2 - 1| vs 3*eta2
    eta-smallness         eta = C1/R^(mu(1-delta)) vs 1/3
    exponent-difference   sup over B(0,R^(1-delta)) of |e^(g2-g1) - 1| vs 18*Ap*eta

    The exponent-difference disk is B(0, R^(1-delta)), the disk on which the
    segment-to-disk amplification with base radius R^(1-delta) concludes.
    The ray envelope preconditions are the ones build_pair measured, the
    same the theorem reads.
    """
    spec = build.spec
    params = spec.params
    R, delta, p = spec.R, spec.delta, build.p
    a = float(p + 1)
    derived = derive_constants(params, delta, p_override=p)
    stage = derived.main
    Ap, C3, exponent = stage.Ap, stage.C3, derived.exponent
    eta = params.C1 / R**exponent
    eta2 = C3 / R**params.mu
    base_r = R ** (1.0 - delta)

    # -- ray segment: the fine radii are the coarse ones plus their midpoints --
    fine, coarse = _segment(base_r, (p + 1) * base_r, segment_samples,
                            include=base_r * np.arange(1, p + 2, dtype=float))
    z_ray = np.real(fine) * np.exp(1j * spec.ray_angle)
    env_pre = _envelope_preconditions(build)
    report_b = _Sup.of(np.abs(cexpm1(build.log_ratio(z_ray))), coarse).report(
        "ray-ratio-smallness",
        (2.0 + 3.0 * eta) * eta,
        [
            precondition("eta <= 1/3", eta <= 1.0 / 3.0, 1.0 / 3.0, eta),
            precondition("segment start >= r0", base_r >= params.r0, params.r0, base_r),
        ] + env_pre,
        {"eta": eta, "segment": [base_r, (p + 1) * base_r], "ray_angle": spec.ray_angle},
    )

    # -- tail-product ratio on the wide disk ----------------------------------
    pts, coarse = _circle(a * base_r, grid)
    # the tail bounds hold only on the guard disk of either tail
    build.tail_spec_a().require_guard(pts)
    build.tail_spec_b().require_guard(pts)
    # one evaluation of log(Pi1/Pi2) gives both |Pi1/Pi2| and |Pi1/Pi2 - 1|
    log_ratio = -build.log_tail_ratio(pts)
    mag = _Sup.of(np.abs(np.exp(log_ratio)), coarse)
    dev = _Sup.of(np.abs(cexpm1(log_ratio)), coarse)
    shared_pre = [
        precondition("R >= r2", R >= stage.r2, stage.r2, R),
        precondition("eta2 <= 1/3", eta2 <= 1.0 / 3.0, 1.0 / 3.0, eta2),
    ] + _pair_compliance(build)
    report_pi = mag.report("tail-ratio-magnitude", 1.0 + 3.0 * eta2, shared_pre,
                           {"eta2": eta2, "disk_radius": a * base_r, "C3": C3})
    report_c = dev.report("tail-ratio-deviation", 3.0 * eta2, shared_pre,
                          {"eta2": eta2, "disk_radius": a * base_r})

    report_eta = VerificationReport(
        check="eta-smallness",
        bound=1.0 / 3.0,
        observed=eta,
        samples=0,
        preconditions=[],
        details={"C1": params.C1, "exponent": exponent, "R": R},
    )

    # -- exponent difference on the small disk --------------------------------
    pts, coarse = _circle(base_r, grid)
    report_d = _Sup.of(np.abs(cexpm1(_poly_delta(build, pts))), coarse).report(
        "exponent-difference",
        18.0 * Ap * eta,
        [
            precondition("eta2 <= 1/3", eta2 <= 1.0 / 3.0, 1.0 / 3.0, eta2),
            precondition("9*Ap*eta <= 1/4", 9.0 * Ap * eta <= 0.25, 0.25, 9.0 * Ap * eta),
            precondition("eta2 <= eta", eta2 <= eta, eta, eta2),
        ] + env_pre,
        dict(Ap=Ap, eta=eta, disk_radius=base_r,
             segment_observed=float(np.max(np.abs(cexpm1(_poly_delta(build, z_ray))), initial=0.0)),
             segment_bound=9.0 * eta, thresholds={"r3": stage.r3, "r4": stage.r4, "r5": stage.r5}),
    )
    return [report_b, report_pi, report_c, report_eta, report_d]


# ---------------------------------------------------------------------------
# the final ratio bound
# ---------------------------------------------------------------------------


def check_theorem(
    build: PairBuild,
    eps: float = 1.0,
    grid: DiskGrid | None = None,
) -> list[VerificationReport]:
    """Final bound sup over B(0, R^(1-delta)) of |psi2/psi1 - 1|, both forms.

    The deviation is read as |e^L - 1| with L = (g2 - g1) + log(Pi2/Pi1).
    The constant form compares against 20*Ap*C1/R^(mu(1-delta)) and carries
    the activation preconditions R >= r1..r5; the accuracy form compares
    against eps/R^(mu(1-delta)) and requires R >= R0(eps).  Both reuse the
    same sampled supremum with a refinement-stability precondition.
    """
    spec = build.spec
    params = spec.params
    R, delta = spec.R, spec.delta
    derived = derive_constants(params, delta, eps=eps, p_override=build.p)
    radius = R ** (1.0 - delta)

    pts, coarse = _circle(radius, grid)
    sup = _Sup.of(np.abs(cexpm1(build.log_ratio(pts))), coarse)
    details = dict(R=R, delta=delta, p=build.p, Ap=derived.main.Ap,
                   exponent=derived.exponent, disk_radius=radius)
    report_const = sup.report(
        "ratio-bound-constant-form",
        derived.ratio_bound(R),
        [precondition("R >= max(r1..r5)", R >= derived.main.max_radius,
                      derived.main.max_radius, R)]
        + _envelope_preconditions(build)
        + _pair_compliance(build),
        details,
    )
    report_eps = sup.report(
        "ratio-bound-accuracy-form",
        derived.eps_bound(R),
        [precondition("R >= R0(eps)", R >= derived.R0, derived.R0, R)],
        dict(details, eps=eps, R0=derived.R0),
    )
    return [report_const, report_eps]


# ---------------------------------------------------------------------------
# difference bound on the real segment
# ---------------------------------------------------------------------------


def check_remark5(
    build: PairBuild,
    eps: float = 1.0,
    samples: int = 4096,
) -> VerificationReport:
    """|psi2 - psi1| = |psi1| |e^L - 1| on [-R^(1-delta), R^(1-delta)] against
    the ratio bound times the measured sup of |psi1| there.

    The exponent in the bound is mu*(1-delta), following the ratio bound the
    chain actually establishes.
    """
    spec = build.spec
    R, delta = spec.R, spec.delta
    derived = derive_constants(spec.params, delta, eps=eps, p_override=build.p)
    half = R ** (1.0 - delta)

    xs, coarse = _segment(-half + 0j, half + 0j, samples)
    abs_psi1 = np.abs(build.psi1.evaluate(xs))
    sup_psi1 = float(np.max(abs_psi1))
    return _Sup.of(abs_psi1 * np.abs(cexpm1(build.log_ratio(xs))), coarse).report(
        "difference-on-real-segment",
        derived.eps_bound(R) * sup_psi1,
        [precondition("R >= R0(eps)", R >= derived.R0, derived.R0, R)],
        dict(segment_half_length=half, sup_psi1=sup_psi1, eps=eps,
             exponent=derived.exponent, ratio_bound=derived.eps_bound(R)),
    )
