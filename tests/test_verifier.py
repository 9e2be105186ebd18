"""Tests for the certification layer: each check's verdict, bound, and policy."""

import math
from collections import defaultdict
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from zeroratio.constants import ClassParams, ParameterError, constant_Ap
from zeroratio.factors import DomainError, TailProductSpec, ZeroSet, cexpm1, log_tail_product_grid
from zeroratio.models import (
    EntireModel,
    PairBuild,
    PairSpec,
    build_pair,
    compliant_tail_zeros,
    measurement_window,
    _spread_radii,
    engineered_pair,
)
from zeroratio.report import FAIL, PASS, PASS_UNMET
from zeroratio.verifier import (
    check_decomposition,
    check_lemma2,
    check_lemma3,
    check_remark5,
    check_step5_bounds,
    check_theorem,
    default_disk_grid,
    _circle,
    _lattice_log_tail_ratio,
    _segment,
)
from zeroratio.grids import DiskGrid, segment_points
from zeroratio.jost import ray_envelope_constant

from golden_sweep import WIDE_SIGMAS, _wide_spec
from helpers import mpmath_product, random_pair

# a deliberately small grid keeps the sampled suprema honest while holding the
# per-test runtime to a fraction of a second
_SMALL = DiskGrid(rings=24, spokes=64)

_PARAMS = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=0.08, mu=1.0, r0=1.0)


# ---------------------------------------------------------------------------
# infrastructure
# ---------------------------------------------------------------------------


def test_default_disk_grid_is_deterministic():
    a = default_disk_grid()
    b = default_disk_grid()
    assert np.array_equal(a.points(5.0), b.points(5.0))
    assert np.max(np.abs(a.points(5.0))) <= 5.0 + 1e-12


def test_outer_ring_is_the_disk_circle_bitwise():
    """For 200 radii drawn from [1, 100] at each ring count 1-48, the outer
    ring's radius is the disk's and its points are the even points of the
    circle that the disk sups sample, at twice the spokes: the coarse sup of
    a disk is the lattice's outer-ring maximum."""
    rng = np.random.default_rng(0)
    for rings in range(1, 49):
        grid = DiskGrid(rings, 16)
        for radius in rng.uniform(1.0, 100.0, 200):
            assert grid.ring_radii(radius)[-1] == radius
            fine, coarse = _circle(radius, grid)
            assert len(fine) == 32 and np.array_equal(np.flatnonzero(coarse), np.arange(0, 32, 2))
            assert np.array_equal(grid.points(radius)[-16:], fine[coarse])


def _boundary_circle(radius, count):
    return radius * np.exp(1j * (2.0 * np.pi * np.arange(count) / count))


def test_disk_sups_are_boundary_circle_maxima():
    """observed is the maximum over the 2N-point boundary circle, bitwise,
    sup_base the maximum over its even points, and the samples are that
    circle alone.  The theorem reads |psi2/psi1 - 1| as |e^L - 1|,
    L = (g2 - g1) + log(Pi2/Pi1)."""
    grid = DiskGrid(rings=6, spokes=40)
    expected_samples = 2 * grid.spokes
    build = engineered_pair(3, poly_scale=1.5e-05)
    spec, p = build.spec, build.p

    radius = (p + 1) * spec.R ** (1.0 - spec.delta)
    rep = check_lemma2(spec.outer_a, spec.R, float(p + 1), p, spec.delta, spec.params, grid=grid)
    circle = _boundary_circle(radius, 2 * grid.spokes)
    tail = EntireModel(genus=p, zeros=spec.outer_a)
    values = np.abs(cexpm1(tail.log_value(circle)))
    assert rep.observed == np.max(values)
    assert rep.details["sup_base"] == np.max(values[::2])
    assert rep.samples == expected_samples

    circle = _boundary_circle(spec.R ** (1.0 - spec.delta), 2 * grid.spokes)
    g = build.psi2.poly_value(circle) - build.psi1.poly_value(circle)
    assert np.max(np.abs(g)) > 0.0
    values = np.abs(cexpm1(g + build.log_tail_ratio(circle)))
    for rep in check_theorem(build, grid=grid):
        assert rep.observed == np.max(values)
        assert rep.details["sup_base"] == np.max(values[::2])
        assert rep.samples == expected_samples


@pytest.fixture
def evaluated(monkeypatch):
    """The points of each EntireModel.log_value call, by model, and of each
    PairBuild.log_tail_ratio call, by pair."""
    seen = defaultdict(list)
    for cls, name in ((EntireModel, "log_value"), (PairBuild, "log_tail_ratio")):
        def counting(self, z, original=getattr(cls, name)):
            seen[self].append(np.ravel(z))
            return original(self, z)

        monkeypatch.setattr(cls, name, counting)
    return seen


def test_each_sample_is_evaluated_once(evaluated):
    """A disk sup costs 2*NT points, the ray of step 5 and the segment of
    remark 5 one point per fine sample, and no call sees a point twice.  Only
    the decomposition identity evaluates psi2.  The theorem reaches only the
    pair's log-ratio evaluator; step 5 feeds the log ratio the ray and then
    the tail disk, and evaluates no model; remark 5 evaluates psi1 and the
    log ratio on its segment."""
    grid = DiskGrid(rings=6, spokes=40)
    disk = 2 * grid.spokes
    lattice = grid.rings * grid.spokes
    build = engineered_pair(3)
    spec, p = build.spec, build.p
    tail_a = EntireModel(genus=p, zeros=spec.outer_a)
    runs = [
        (lambda: check_theorem(build, grid=grid), lambda reps: {build: [disk]}),
        (lambda: [check_lemma2(spec.outer_a, spec.R, float(p + 1), p, spec.delta, spec.params,
                               grid=grid)],
         lambda reps: {tail_a: [disk]}),
        (lambda: check_step5_bounds(build, grid=grid, segment_samples=64),
         lambda reps: {build: [reps[0].samples, disk]}),
        (lambda: [check_remark5(build, samples=256)],
         lambda reps: {build.psi1: [511], build: [511]}),
        (lambda: [check_decomposition(build, grid=grid)],
         lambda reps: {build.psi1: [lattice], build.psi2: [lattice]}),
    ]
    for run, expected in runs:
        evaluated.clear()
        reports = run()
        assert {key: [len(z) for z in calls] for key, calls in evaluated.items()} == expected(reports)
        for calls in evaluated.values():
            for z in calls:
                assert len(np.unique(z)) == len(z)


_DISK_SUPS = ("tail-product-smallness", "segment-to-disk-amplification", "tail-ratio-magnitude",
              "tail-ratio-deviation", "exponent-difference", "ratio-bound-constant-form",
              "ratio-bound-accuracy-form")


@pytest.mark.parametrize("shape", [(1, 16), (8, 16), (24, 16), (8, 64), (3, 256)],
                         ids=lambda shape: "%dx%d" % shape)
def test_disk_sup_costs_two_points_per_spoke(shape, evaluated):
    """Each disk sup evaluates exactly 2*NT points, whatever the ring count
    NR: the boundary circle at twice the spokes.  Lemma 3 adds its segment."""
    grid = DiskGrid(*shape)
    build = engineered_pair(1, poly_scale=1.5e-05)
    spec, p = build.spec, build.p
    r = spec.R ** (1.0 - spec.delta)
    poly = np.subtract(spec.poly_b, spec.poly_a)
    degree = len(poly) - 1
    segment = len(segment_points(r, (degree + 1) * r, 2048,
                                 include=r * np.arange(1, degree + 2, dtype=float)))
    reports = (
        [check_lemma2(spec.outer_a, spec.R, float(p + 1), p, spec.delta, spec.params, grid=grid),
         check_lemma3(poly, r, spec.params.mu, grid=grid)]
        + check_step5_bounds(build, grid=grid, segment_samples=64)
        + check_theorem(build, grid=grid)
    )
    disks = [rep for rep in reports if rep.check in _DISK_SUPS]
    assert len(disks) == len(_DISK_SUPS)
    for rep in disks:
        extra = segment if rep.check == "segment-to-disk-amplification" else 0
        assert rep.samples == 2 * grid.spokes + extra, rep.check
    # the pair's log ratio sees the ray, the tail disk and the theorem's disk
    assert [len(z) for z in evaluated[build]] == [reports[2].samples, 2 * grid.spokes, 2 * grid.spokes]


def _window_envelope(build, model):
    """|model - 1| r^mu at build_pair's 129 measurement radii, at its largest."""
    spec = build.spec
    lo, hi = measurement_window(spec.R, spec.delta, build.p, spec.params.r0)
    return ray_envelope_constant(model, spec.ray_angle, spec.params.mu, np.geomspace(lo, hi, 129))


def test_step5_envelopes_are_the_ray_envelope_constants():
    """Step 5 reads the envelopes that build_pair measured on its window:
    the ray envelope constants of psi1 and psi2 at 129 log-spaced radii.
    Its ray samples the coarse radii plus their midpoints, plus the nodes
    k*R^(1-delta)."""
    n = 96
    for seed, scale in ((0, 0.0), (1, 1.5e-05)):
        build = engineered_pair(seed, poly_scale=scale)
        spec, p = build.spec, build.p
        base_r = spec.R ** (1.0 - spec.delta)
        radii = np.real(segment_points(base_r, (p + 1) * base_r, 2 * n - 1,
                                       include=base_r * np.arange(1, p + 2, dtype=float)))
        reports = check_step5_bounds(build, grid=_SMALL, segment_samples=n)
        assert reports[0].samples == len(radii)
        for rep in (reports[0], reports[-1]):
            actual = {c.name: c.actual for c in rep.preconditions}
            for name, model in (("psi1", build.psi1), ("psi2", build.psi2)):
                assert actual[f"measured ray envelope {name} <= C1"] == _window_envelope(build, model)


@pytest.mark.parametrize("seed", range(4))
def test_theorem_and_step5_read_the_same_envelopes(seed):
    """Within one pair, each ray envelope precondition has the same actual
    value in the theorem's constant form and in both step 5 reports that
    carry it."""
    build = engineered_pair(seed, poly_scale=1.5e-05 * (seed % 2))
    names = [f"measured ray envelope {name} <= C1" for name in ("psi1", "psi2")]

    def actuals(rep):
        return [c.actual for c in rep.preconditions if c.name in names]

    theorem = actuals(check_theorem(build, grid=_SMALL)[0])
    assert len(theorem) == 2
    step5 = check_step5_bounds(build, grid=_SMALL, segment_samples=64)
    assert actuals(step5[0]) == theorem
    assert actuals(step5[-1]) == theorem


def _wide_pair():
    """A pair with some 150 outer zeros per side, drawn like the wide pair files."""
    params = ClassParams(C0=0.5, C1=1.0, rho=1.0, sigma=0.03, mu=1.0, r0=1.0)
    R = 400.0
    shared = ZeroSet.from_points([120.0 + 40.0j, -200.0 + 150.0j, 90.0j, -330.0 - 20.0j])
    outer = [compliant_tail_zeros(seed, params, R, fill=0.9) for seed in (1, 2)]
    return build_pair(PairSpec(shared, *outer, R=R, delta=2.0 / 3.0, params=params))


_NO_SUP = ("decomposition-identity", "eta-smallness")


@pytest.mark.parametrize("make", [lambda: engineered_pair(3, poly_scale=1.5e-05), _wide_pair],
                         ids=["engineered", "wide"])
def test_every_sampled_sup_report_has_one_shape(make):
    """observed is the refined sup, the last precondition is the 1% agreement
    of the two sups, and the details end with the two sups."""
    grid = DiskGrid(rings=5, spokes=48)
    build = make()
    spec, p = build.spec, build.p
    poly = np.subtract(spec.poly_b, spec.poly_a) if spec.poly_a else (1e-6, 2e-7j)
    reports = (
        [check_lemma2(side, spec.R, float(p + 1), p, spec.delta, spec.params, grid=grid)
         for side in (spec.outer_a, spec.outer_b)]
        + [check_lemma3(poly, spec.R ** (1.0 - spec.delta), spec.params.mu, grid=grid),
           check_decomposition(build, grid=grid), check_remark5(build, samples=256)]
        + check_step5_bounds(build, grid=grid, segment_samples=128)
        + check_theorem(build, grid=grid)
    )
    sups = [rep for rep in reports if rep.check not in _NO_SUP]
    assert len(sups) == 10
    for rep in sups:
        base, fine = rep.details["sup_base"], rep.details["sup_refined"]
        assert rep.observed == fine, rep.check
        last = rep.preconditions[-1]
        assert last.name == "grid sup converged"
        assert last.actual == (abs(fine - base) / max(fine, base) if fine or base else 0.0)
        assert [c.name for c in rep.preconditions].count("grid sup converged") == 1
        assert list(rep.details)[-2:] == ["sup_base", "sup_refined"]
    for rep in reports:
        assert "profile" not in rep.details
    for rep in reports:
        if rep.check in _NO_SUP:
            assert "sup_refined" not in rep.details


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("nodes", [True, False], ids=["ray", "real-segment"])
def test_segment_coarse_samples_are_fine_samples_bitwise(p, n, nodes):
    """The n coarse samples are among the 2n - 1 fine ones, bitwise, with and
    without the nodes k*r, so the coarse sup reads the fine values."""
    for r in (300.0 ** 0.1, 400.0 ** (1.0 / 3.0), 2.0):
        if nodes:
            start, end, include = r, (p + 1) * r, r * np.arange(1, p + 2, dtype=float)
        else:
            start, end, include = -p * r + 0j, p * r + 0j, None
        fine, coarse = _segment(start, end, n, include=include)
        expected = segment_points(start, end, n, include=include)
        assert fine[coarse].tobytes() == expected.tobytes()
        assert fine.tobytes() == segment_points(start, end, 2 * n - 1, include=include).tobytes()
        if not nodes:
            assert np.array_equal(coarse, np.arange(2 * n - 1) % 2 == 0)


# ---------------------------------------------------------------------------
# the decomposition identity
# ---------------------------------------------------------------------------


def test_decomposition_identity_on_random_pairs():
    for seed in (11, 23):
        build = build_pair(random_pair(seed))
        rep = check_decomposition(build, grid=_SMALL)
        assert rep.verdict == PASS
        assert rep.observed <= rep.bound
        assert rep.details["excluded_points"] == 0


def test_decomposition_fails_when_psi1_drifts_from_its_tail_spec():
    """The identity's sides use independent arithmetic, so a 1e-6 drift shows.

    psi1 is rebuilt with its smallest shared zero moved by 1e-6 relative,
    while the tail products on the other side still use the original zeros.
    """
    build = build_pair(random_pair(11))
    entries = list(build.psi1.zeros.entries)
    loc, mult = entries[0]
    entries[0] = (loc * (1.0 + 1e-6), mult)
    moved = replace(build, psi1=replace(build.psi1, zeros=ZeroSet(tuple(entries))))
    assert check_decomposition(build, grid=_SMALL).verdict == PASS
    rep = check_decomposition(moved, grid=_SMALL)
    assert rep.verdict == FAIL
    assert rep.observed > rep.bound


def test_single_extra_zero_gives_primary_factor_ratio():
    """With one private zero the ratio collapses to a single factor."""
    shared = ZeroSet.from_points([10.0 + 0j, 14.0 + 3.0j])
    loc = 120.0 + 0j
    spec = PairSpec(
        shared=shared,
        outer_a=ZeroSet.from_points([]),
        outer_b=ZeroSet.from_points([loc]),
        R=60.0,
        delta=2.0 / 3.0,
        params=_PARAMS,
    )
    build = build_pair(spec)
    p = build.p

    def factor(xi):
        return (1.0 - xi) * np.exp(sum(xi**k / k for k in range(1, p + 1)))

    z = np.array([1.0 + 2.0j, -3.0 + 0.5j, 5.0j, 7.0 - 1.0j])
    ratio = build.psi2(z) / build.psi1(z)
    oracle = np.array([factor(w / loc) for w in z])
    assert np.max(np.abs(ratio - oracle)) <= 1e-12


@pytest.fixture(scope="module")
def reference_tails():
    """(name, tails, genus, disk radius) of engineered seeds 0-3, three wide
    pairs drawn like the benchmark's pair files, and a genus-2 pair of tails
    whose zeros start at 1/0.6 of the disk radius."""
    cases = []
    rng = np.random.default_rng(2023)
    builds = [(f"engineered-{seed}", engineered_pair(seed)) for seed in range(4)]
    builds += [(f"wide-{i}", build_pair(_wide_spec(rng, sigma)))
               for i, sigma in enumerate(WIDE_SIGMAS[:3])]
    for name, build in builds:
        radius = (build.p + 1) * build.spec.R ** (1.0 - build.spec.delta)
        cases.append((name, (build.tail_spec_a(), build.tail_spec_b()), build.p, radius))
    rng = np.random.default_rng(7)
    zeros = [ZeroSet.from_points(100.0 * rng.uniform(1.0, 3.0, 40)
                                 * np.exp(2j * np.pi * rng.uniform(size=40))) for _ in range(2)]
    radius = 0.6 * min(z.min_modulus() for z in zeros)
    cases.append(("q=0.6", tuple(TailProductSpec(z, 2, 100.0) for z in zeros), 2, radius))
    return cases


@pytest.mark.parametrize("grid", [DiskGrid(8, 256), DiskGrid(16, 64), DiskGrid(4, 16), DiskGrid(2, 8)],
                         ids=["8x256", "16x64", "4x16", "2x8"])
def test_circle_sum_reaches_the_inner_rings_by_cauchys_formula(grid, reference_tails):
    """log Pi1 - log Pi2 extended from the boundary circle equals the direct
    sum at every lattice point, within 16 eps of the two tails' power-sum
    bound sum m_n (radius/|z_n|)^(p+1) on the circle, the scale of the direct
    sum's own rounding.  The q = 0.6 tails need 128 circle points at 2x8:
    8 samples would alias their coefficients of order 8, 16, ... at 0.6^8."""
    eps = np.finfo(float).eps
    for name, tails, p, radius in reference_tails:
        pts = grid.points(radius)
        direct = log_tail_product_grid(tails[0], pts) - log_tail_product_grid(tails[1], pts)
        extended = _lattice_log_tail_ratio(tails, grid, radius)
        scale = sum(np.sum(t.zeros.multiplicities() * (radius / t.zeros.moduli()) ** (p + 1))
                    for t in tails)
        assert np.max(np.abs(extended - direct)) <= 16.0 * eps * scale, name
        assert np.max(np.abs(extended[-grid.spokes:])) <= scale, name


def test_decomposition_sums_its_tails_on_one_circle(monkeypatch, reference_tails):
    """The direct tail sum sees one circle per tail, never the inner rings:
    the grid's spokes unless the tails' far-field order needs 2^j times as
    many."""
    seen = []

    def counting(spec, z, original=log_tail_product_grid):
        seen.append(len(z))
        return original(spec, z)

    monkeypatch.setattr("zeroratio.verifier.log_tail_product_grid", counting)
    check_decomposition(engineered_pair(0))
    check_decomposition(build_pair(_wide_spec(np.random.default_rng(2023), WIDE_SIGMAS[0])),
                        grid=DiskGrid(16, 64))
    _, tails, _, radius = reference_tails[-1]
    _lattice_log_tail_ratio(tails, DiskGrid(2, 8), radius)
    assert seen == [256, 256, 64, 64, 128, 128]


# ---------------------------------------------------------------------------
# tail-product smallness
# ---------------------------------------------------------------------------


def test_lemma2_empty_tail_passes_with_zero_observation():
    rep = check_lemma2(
        ZeroSet.from_points([]), R=60.0, a=3.0, p=2, delta=2.0 / 3.0,
        params=_PARAMS, grid=_SMALL,
    )
    assert rep.verdict == PASS
    assert rep.observed == 0.0
    assert rep.margin == math.inf


def test_lemma2_rejects_zeros_inside_cutoff():
    with pytest.raises(ParameterError):
        check_lemma2(
            ZeroSet.from_points([30.0 + 0j]), R=60.0, a=3.0, p=2,
            delta=2.0 / 3.0, params=_PARAMS, grid=_SMALL,
        )


def test_lemma2_raises_when_its_disk_leaves_the_guard():
    """The tail bound needs |z/z_n| <= p/(p+1); a disk of radius 12*60^(1/3)
    reaches 0.73 of the nearest zero at 64, past the genus-2 guard 2/3."""
    with pytest.raises(DomainError, match="guard radius"):
        check_lemma2(
            ZeroSet.from_points([64.0 + 0j, 90.0j]), R=60.0, a=12.0, p=2,
            delta=2.0 / 3.0, params=_PARAMS, grid=_SMALL,
        )


# ---------------------------------------------------------------------------
# segment-to-disk amplification
# ---------------------------------------------------------------------------


def test_lemma3_small_linear_polynomial_passes():
    rep = check_lemma3((0.0, 1e-6 + 2e-6j), r=5.0, mu=1.0, grid=_SMALL,
                       segment_samples=512)
    assert rep.verdict == PASS
    assert rep.preconditions_met
    assert rep.details["reconstruction_max_error"] <= 1e-12
    assert rep.details["cramer_ok"]
    assert rep.bound == pytest.approx(2.0 * rep.details["eps"] * constant_Ap(1, 1.0))


def test_lemma3_needs_degree_at_least_one():
    with pytest.raises(ParameterError):
        check_lemma3((1.0,), r=5.0, mu=1.0, grid=_SMALL)


# ---------------------------------------------------------------------------
# the chained ray-to-disk bounds
# ---------------------------------------------------------------------------


def test_step5_engineered_chain_all_pass():
    build = engineered_pair(0)
    reports = check_step5_bounds(build, grid=_SMALL, segment_samples=512)
    names = [r.check for r in reports]
    assert names == [
        "ray-ratio-smallness",
        "tail-ratio-magnitude",
        "tail-ratio-deviation",
        "eta-smallness",
        "exponent-difference",
    ]
    for rep in reports:
        assert rep.verdict == PASS, rep.check
        assert rep.preconditions_met, rep.check
    final = reports[-1]
    assert final.details["segment_observed"] <= final.details["segment_bound"]


def test_step5_ray_ratio_is_finite_on_a_shared_zero():
    """A shared zero on the ray segment cancels from psi2/psi1: the ray ratio
    is e^L - 1 there too, finite, and no sample is masked."""
    R, delta, angle = 60.0, 2.0 / 3.0, 0.4
    base_r = R ** (1.0 - delta)
    # the segment always samples the node 2*R^(1-delta), so psi1 vanishes there
    on_ray = 2.0 * base_r * np.exp(1j * angle)
    spec = PairSpec(
        shared=ZeroSet.from_points([on_ray, 30.0 - 4.0j]),
        outer_a=ZeroSet.from_points([70.0 + 5.0j]),
        outer_b=ZeroSet.from_points([95.0 - 8.0j]),
        R=R,
        delta=delta,
        params=_PARAMS,
        ray_angle=angle,
    )
    build = build_pair(spec)
    ray = check_step5_bounds(build, grid=_SMALL, segment_samples=512)[0]
    assert ray.check == "ray-ratio-smallness"
    assert "excluded_points" not in ray.details
    p = build.p
    z_ray = np.real(segment_points(base_r, (p + 1) * base_r, 2 * 512 - 1,
                                   include=base_r * np.arange(1, p + 2, dtype=float))) * np.exp(1j * angle)
    node = np.argmin(np.abs(z_ray - on_ray))
    assert abs(z_ray[node] - on_ray) <= 1e-12 * abs(on_ray)
    assert build.psi1(z_ray[node : node + 1])[0] == 0.0
    deviation = np.abs(cexpm1(build.log_tail_ratio(z_ray)))
    assert np.all(np.isfinite(deviation))
    assert 0.0 < ray.observed == np.max(deviation)


def test_equal_outer_sets_cancel_exactly():
    """Equal outer sets leave the signed outer set empty, so the theorem and
    the ray read psi2/psi1 - 1 as exactly 0."""
    radii = np.linspace(62.0, 160.0, 18)
    outer = ZeroSet.from_points(radii * np.exp(1j * np.linspace(0.3, 6.0, 18)))
    spec = PairSpec(
        shared=ZeroSet.from_points([12.0 + 0j, 30.0 - 4.0j]),
        outer_a=outer,
        outer_b=outer,
        R=60.0,
        delta=2.0 / 3.0,
        params=_PARAMS,
    )
    build = build_pair(spec)
    assert len(build.signed_outer[0]) == 0
    for rep in check_theorem(build, grid=_SMALL):
        assert rep.observed == 0.0
    assert check_step5_bounds(build, grid=_SMALL, segment_samples=128)[0].observed == 0.0


def test_theorem_engineered_constant_form_passes():
    build = engineered_pair(1)
    constant, accuracy = check_theorem(build, grid=_SMALL)
    assert constant.check == "ratio-bound-constant-form"
    assert constant.verdict == PASS
    assert constant.preconditions_met
    assert constant.observed <= constant.bound
    # the accuracy form needs the huge eps-activation radius, which this
    # desk-scale regime deliberately does not reach; policy forbids "fail"
    assert accuracy.check == "ratio-bound-accuracy-form"
    assert accuracy.verdict != FAIL


def test_theorem_unmet_preconditions_never_fail():
    build = build_pair(random_pair(4))
    constant, _accuracy = check_theorem(build, grid=_SMALL)
    assert constant.verdict == PASS_UNMET
    assert any(not p.satisfied for p in constant.preconditions)


def test_remark5_identical_pair_has_zero_difference():
    outer = ZeroSet.from_points([70.0 + 5.0j, 95.0 - 8.0j])
    spec = PairSpec(
        shared=ZeroSet.from_points([12.0 + 0j, 30.0 - 4.0j]),
        outer_a=outer,
        outer_b=outer,
        R=60.0,
        delta=2.0 / 3.0,
        params=_PARAMS,
    )
    rep = check_remark5(build_pair(spec), samples=512)
    assert rep.observed == 0.0
    assert rep.verdict != FAIL


def _zeros_only_pair(R, seed=5):
    """The engineered class without polynomial exponents, at any R: 4 shared
    zeros in [0.77R, 0.973R] and 3 outer zeros per side in [1.04R, 1.383R]."""
    rng = np.random.default_rng(seed)
    params = ClassParams(C0=0.5, C1=2e-3, rho=1.0, sigma=2.2e-3, mu=2.0, r0=1.0)

    def zeros(count, lo, hi):
        radii = _spread_radii(rng, count, lo * R, hi * R)
        return ZeroSet.from_points(radii * np.exp(1j * rng.uniform(0, 2 * math.pi, count)))

    return build_pair(PairSpec(zeros(4, 0.77, 0.973), zeros(3, 1.04, 1.383), zeros(3, 1.04, 1.383),
                               R=R, delta=0.9, params=params))


@pytest.mark.parametrize("make", [*(lambda s=s: engineered_pair(s) for s in range(4)),
                                  lambda: _zeros_only_pair(9600.0)],
                         ids=[*(f"engineered-{s}" for s in range(4)), "zeros-only-R9600"])
def test_remark5_difference_matches_mpmath(make):
    """observed = max |psi1| |e^L - 1| over the fine segment samples, against
    |psi2 - psi1| from 40-digit canonical products.  Measured worst:
    5.6e-16 relative.  Subtracting the two double-precision models instead
    errs by up to 2.4e-7 on these seeds and by 9.7e-2 at R = 9,600, where
    |psi2 - psi1| is 9.5e-16 and |psi1| is about 1."""
    build = make()
    spec = build.spec
    rep = check_remark5(build, samples=256)
    half = spec.R ** (1.0 - spec.delta)
    xs, _coarse = _segment(-half + 0j, half + 0j, 256)
    # psi2 - psi1 = (shared product) * (e^g2 Pi2 - e^g1 Pi1)
    shared, side_a, side_b = (EntireModel(genus=build.p, zeros=zeros, poly=poly) for zeros, poly in (
        (spec.shared, ()), (spec.outer_a, spec.poly_a), (spec.outer_b, spec.poly_b)))
    with mpmath.workdps(40):
        exact = float(max(
            abs(mpmath_product(shared, w) * (mpmath_product(side_b, w) - mpmath_product(side_a, w)))
            for w in (mpmath.mpc(x.real, x.imag) for x in xs)))
    assert rep.samples == len(xs)
    assert abs(rep.observed - exact) <= 1e-12 * exact
