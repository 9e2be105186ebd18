"""Tests for matched-pair construction and the model evaluation layer."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from zeroratio import models
from zeroratio.constants import (
    ClassParams,
    ParameterError,
    derive_constants,
    select_p,
    threshold_r1,
)
from zeroratio.factors import _NEAR_BLOCK, ZeroSet, cexpm1, guard_radius
from zeroratio.models import (
    EntireModel,
    PairConstructionError,
    build_pair,
    compliant_tail_zeros,
    count_compliance,
    engineered_pair,
    load_pair_file,
    measurement_window,
    save_pair_file,
)
from zeroratio.verifier import check_theorem
from zeroratio.zeros import locate_zeros

from helpers import count_compliance_loop, mpmath_product, random_pair


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------


def weierstrass_factor(xi: complex, p: int) -> complex:
    """Direct (1 - xi) * exp(sum xi^k / k) oracle, no log accumulation."""
    tail = sum(xi**k / k for k in range(1, p + 1))
    return (1.0 - xi) * np.exp(tail)


def test_model_rejects_oversized_polynomial():
    with pytest.raises(ParameterError):
        EntireModel(genus=2, zeros=ZeroSet.from_points([]), poly=(1.0, 0.5, 0.25, 0.125))


def test_model_matches_factor_oracle():
    # one double zero at 3+1j and a linear exponent, genus 2
    loc = 3.0 + 1.0j
    zeros = ZeroSet.from_points([loc], [2])
    model = EntireModel(genus=2, zeros=zeros, poly=(0.2, -0.05j))
    pts = np.array([0.5 + 0.5j, -2.0 + 1.0j, 4.0 - 3.0j])
    expected = np.array(
        [np.exp(0.2 - 0.05j * z) * weierstrass_factor(z / loc, 2) ** 2 for z in pts]
    )
    got = model.evaluate(pts)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    # scalar call agrees with the vector path
    assert model(pts[1]) == pytest.approx(complex(got[1]))


def test_poly_value_equals_horner_loop_bitwise():
    """poly_value keeps the arithmetic of the plain Horner loop exactly."""
    rng = np.random.default_rng(5)
    z = 40.0 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    for degree in range(-1, 6):
        poly = tuple(complex(*rng.normal(size=2)) for _ in range(degree + 1))
        model = EntireModel(genus=5, zeros=ZeroSet.from_points([]), poly=poly)
        acc = np.zeros_like(z)
        for c in reversed(poly):
            acc = acc * z + c
        assert np.array_equal(model.poly_value(z), acc)


def test_model_vanishes_exactly_at_zeros():
    zeros = ZeroSet.from_points([2.0 + 0.0j])
    model = EntireModel(genus=1, zeros=zeros)
    assert model(0.0) == 1.0
    assert model(2.0 + 0.0j) == 0.0
    assert model.zeros.count_within(1.0) == 0
    assert model.zeros.count_within(3.0) == 1


def _mixed_model(rng, genus, with_poly):
    """Zeros at moduli 1-4 and 6-40, multiplicities 1-2, optional extras."""
    radii = np.concatenate([rng.uniform(1.0, 4.0, rng.integers(3, 10)),
                            rng.uniform(6.0, 40.0, rng.integers(10, 60))])
    locs = radii * np.exp(2j * math.pi * rng.random(len(radii)))
    poly = ()
    if with_poly:
        poly = tuple(0.1 * complex(*rng.normal(size=2)) / 3.0**j for j in range(genus + 1))
    return EntireModel(genus=genus, zeros=ZeroSet.from_points(locs, rng.integers(1, 3, len(locs))),
                       poly=poly)


def _mpmath_value(model, z):
    """The canonical product at z in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return complex(mpmath_product(model, mpmath.mpc(z.real, z.imag)))


def _term_magnitude(model, z):
    """Sum of the magnitudes of every term the log of psi(z) adds up.

    Those are m log(1 - xi), m xi^k/k for k <= genus, m |xi|/|1 - xi| for the
    rounding of xi = z/z_n, and the exponent's terms; a few ulps of each bound
    the log's absolute error, and so the value's relative error, of any
    factor-by-factor evaluation.
    """
    xi = z / model.zeros.locations()
    a = np.abs(xi)
    per_zero = np.abs(np.log(1.0 - xi)) + a / np.abs(1.0 - xi)
    per_zero += sum(a**k / k for k in range(1, model.genus + 1))
    poly = sum(abs(c) * abs(z) ** k for k, c in enumerate(model.poly))
    return 1.0 + poly + float(np.sum(model.zeros.multiplicities() * per_zero))


def _accuracy_draws(count=20):
    """(model, points, points in a long batch, points alone, 40-digit values)."""
    rng = np.random.default_rng(20)
    for draw in range(count):
        genus = 1 + draw % 5
        model = _mixed_model(rng, genus, with_poly=draw % 4 >= 2)
        # from well inside the guard radius of the nearest zero to beyond it
        scale = model.zeros.min_modulus() * guard_radius(genus)
        pts = scale * np.geomspace(0.02, 4.0, 24) * np.exp(2j * math.pi * rng.random(24))
        # a batch longer than one near block whatever the near zero count,
        # with the points in its last block
        filler = 4.0 * scale * np.sqrt(rng.random(_NEAR_BLOCK)) * np.exp(
            2j * math.pi * rng.random(_NEAR_BLOCK))
        in_long = model.evaluate(np.concatenate([filler, pts]))[-len(pts) :]
        alone = np.array([model.evaluate(pts[i : i + 1])[0] for i in range(len(pts))])
        oracle = np.array([_mpmath_value(model, z) for z in pts])
        yield model, pts, in_long, alone, oracle


def test_evaluate_matches_mpmath_product_in_any_batch():
    """Power-sum far field and near blocks against a 40-digit product.

    Errors are relative to the value and in units of `_term_magnitude`
    (up to ~730 here).  Measured worst, in those units: 2.7e-16 against the
    oracle (3.9e-16 for the per-zero loop this replaced) and 1.6e-16 between
    a batch of one point and a long batch.
    """
    for model, pts, in_long, alone, oracle in _accuracy_draws():
        tol = 1e-15 * np.abs(oracle) * np.array([_term_magnitude(model, z) for z in pts])
        assert np.all(np.abs(in_long - oracle) <= tol)
        assert np.all(np.abs(alone - oracle) <= tol)
        assert np.all(np.abs(in_long - alone) <= tol)


def test_evaluate_vanishes_at_exact_zeros_in_any_batch():
    # -9.1636 + 4.8539j is off both axes: numpy's z_n/z_n is not exactly 1 there
    zeros = ZeroSet.from_points([1.5 + 0j, -2.0j, 9.0 + 0j, 30.0j, -9.1636 + 4.8539j], [1, 2, 1, 2, 1])
    for genus in (1, 3):
        model = EntireModel(genus=genus, zeros=zeros, poly=(0.1, 0.02j))
        targets = zeros.locations()
        assert np.all(model.evaluate(targets) == 0.0)
        for z in targets:
            assert model(z) == 0.0
            assert model.evaluate(np.array([z, 0.3 + 0.1j]))[0] == 0.0
        assert np.all(np.abs(model.evaluate(np.array([0.3 + 0.1j, 5.0]))) > 0.0)


# ---------------------------------------------------------------------------
# count compliance
# ---------------------------------------------------------------------------

# rate 2*sigma*(2e)^rho equals exactly 1 with this sigma, and C0 = 0.5 kills
# the growth contribution so the activation radius r1 collapses to r0 = 1
_UNIT_RATE = ClassParams(C0=0.5, C1=0.5, rho=1.0, sigma=1.0 / (4.0 * math.e), mu=1.0, r0=1.0)


def test_compliance_empty_set_has_infinite_margin():
    comp = count_compliance(ZeroSet.from_points([]), _UNIT_RATE)
    assert comp.ok
    assert comp.margin == math.inf


def test_compliance_margin_hand_value():
    assert threshold_r1(_UNIT_RATE) == pytest.approx(1.0)
    comp = count_compliance(ZeroSet.from_points([2.0 + 0j, 4.0 + 0j]), _UNIT_RATE)
    assert comp.ok
    # n(2) = 1 against bound 2 and n(4) = 2 against bound 4, both ratio 2
    assert comp.margin == pytest.approx(2.0)
    assert comp.worst_radius == pytest.approx(2.0)


def test_compliance_detects_violation():
    crowded = ZeroSet.from_points([1.5 + 0j], [3])
    comp = count_compliance(crowded, _UNIT_RATE)
    assert not comp.ok
    assert comp.worst_count == 3
    assert comp.worst_bound == pytest.approx(1.5)


def test_count_compliance_matches_the_per_zero_loop():
    """The one numpy pass gives the loop's record repr for repr: the same
    floats, Python types and worst radius, on empty sets, zeros exactly at r1,
    compliant and violating sets, and rho in {0.5, 1.5, 2.5} among others."""
    rng = np.random.default_rng(30)
    outcomes = set()
    for trial in range(1200):
        rho = (0.5, 1.5, 2.5)[trial % 3] if trial % 2 else float(rng.uniform(0.3, 3.0))
        params = ClassParams(C0=float(rng.uniform(0.2, 4.0)), C1=float(rng.uniform(1e-3, 50.0)),
                             rho=rho, sigma=float(rng.uniform(1e-3, 0.5)),
                             mu=float(rng.uniform(0.5, 3.0)), r0=float(rng.uniform(1.0, 5.0)))
        r1 = threshold_r1(params)
        n = int(rng.integers(1, 12)) if trial % 10 else 0
        points = r1 * rng.uniform(0.3, 4.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        if n and trial % 7 == 0:
            points[0] = r1
        zeros = ZeroSet.from_points(points, rng.integers(1, 4, n))
        comp = count_compliance(zeros, params)
        assert repr(comp) == repr(count_compliance_loop(zeros, params)), trial
        outcomes.add((comp.ok, comp.margin == math.inf))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_compliant_tail_zeros_remain_compliant():
    params = ClassParams(C0=0.5, C1=0.5, rho=1.0, sigma=0.02, mu=1.0, r0=1.0)
    for seed in range(6):
        zs = compliant_tail_zeros(seed, params, R=400.0, span=2.0)
        assert len(zs) > 0
        assert zs.min_modulus() > 400.0
        assert count_compliance(zs, params).ok


# ---------------------------------------------------------------------------
# pair construction
# ---------------------------------------------------------------------------


def test_random_pair_builds_and_measures():
    spec = random_pair(5)
    build = build_pair(spec)
    assert build.p == select_p(spec.params.rho, spec.params.mu, spec.delta)
    assert build.measured.envelope_C1 > 0.0
    assert build.measured.compliance_a.ok and build.measured.compliance_b.ok
    # inside B(0, R) both models carry exactly the shared zeros
    shared_count = spec.shared.total_multiplicity
    assert build.psi1.zeros.count_within(spec.R) == shared_count
    assert build.psi2.zeros.count_within(spec.R) == shared_count
    assert build.tail_spec_a().cutoff == spec.R
    assert build.tail_spec_b().genus == build.p


def test_build_rejects_shared_zero_reaching_R():
    spec = random_pair(1)
    bad = spec.shared.merged_with(ZeroSet.from_points([1.1 * spec.R + 0j]))
    with pytest.raises(PairConstructionError, match="not inside"):
        build_pair(
            type(spec)(
                shared=bad,
                outer_a=spec.outer_a,
                outer_b=spec.outer_b,
                R=spec.R,
                delta=spec.delta,
                params=spec.params,
            )
        )


def test_build_rejects_outer_zero_inside_R():
    spec = random_pair(2)
    bad = spec.outer_b.merged_with(ZeroSet.from_points([0.5 * spec.R + 0j]))
    with pytest.raises(PairConstructionError, match="outer_b"):
        build_pair(
            type(spec)(
                shared=spec.shared,
                outer_a=spec.outer_a,
                outer_b=bad,
                R=spec.R,
                delta=spec.delta,
                params=spec.params,
            )
        )


def test_build_rejects_rate_violation_and_names_radius():
    spec = random_pair(3)
    tight = ClassParams(
        C0=spec.params.C0, C1=spec.params.C1, rho=spec.params.rho,
        sigma=1e-5, mu=spec.params.mu, r0=spec.params.r0,
    )
    with pytest.raises(PairConstructionError, match="count bound violated"):
        build_pair(
            type(spec)(
                shared=spec.shared,
                outer_a=spec.outer_a,
                outer_b=spec.outer_b,
                R=spec.R,
                delta=spec.delta,
                params=tight,
            )
        )


def test_pair_build_evaluates_only_the_two_ray_envelopes(monkeypatch):
    spec = engineered_pair(0).spec
    sizes = []
    log_value = EntireModel.log_value  # every evaluation, called or by name, goes through it

    def counting(self, z):
        sizes.append(int(np.size(z)))
        return log_value(self, z)

    monkeypatch.setattr(EntireModel, "log_value", counting)
    build_pair(spec)
    assert sizes == [129, 129]


def test_signed_outer_set_nets_a_zero_of_both_outer_sets():
    """A zero of both outer sets enters the signed set once with its net
    multiplicity, or not at all when that is 0; the log ratio still equals
    the difference of the two outer products' logs."""
    base = random_pair(0)  # R = 60, genus 2
    shared = ZeroSet.from_points([12.0 + 0j, 30.0 - 4.0j])
    both, only_a, only_b = 80.0 + 10.0j, 70.0 + 5.0j, 95.0 - 8.0j
    z = 12.0 * np.exp(2j * math.pi * np.arange(64) / 64)
    for mult_b, net in ((2, 1), (3, 2), (1, 0)):
        outer_a = ZeroSet.from_points([both, only_a])
        outer_b = ZeroSet.from_points([both, only_b], [mult_b, 1])
        build = build_pair(replace(base, shared=shared, outer_a=outer_a, outer_b=outer_b))
        locs, mults, moduli = build.signed_outer
        expected = {only_a: -1, only_b: 1, **({both: net} if net else {})}
        assert dict(zip(locs.tolist(), mults.tolist())) == expected
        assert moduli.tolist() == [abs(loc) for loc in locs.tolist()]  # the modulus ZeroSet sorts by
        log_b, log_a = (EntireModel(genus=build.p, zeros=zs).log_value(z) for zs in (outer_b, outer_a))
        tol = 1e-15 * (np.abs(log_b) + np.abs(log_a))
        assert np.all(np.abs(build.log_tail_ratio(z) - (log_b - log_a)) <= tol)


def test_pair_log_ratio_matches_mpmath_at_the_theorem_argmax():
    """|e^L - 1| with L = (g2 - g1) + log(Pi2/Pi1), at the point where the
    theorem finds its sup, against psi2/psi1 - 1 from 40-digit products of
    both full models.  Measured worst: 8.8e-16 relative (seed 6).  Dividing
    the double-precision models instead errs by 3.6e-10 to 8.8e-7 (seed 4)
    at the same points, since psi1 and psi2 are both about 1 there."""
    for seed in range(12):
        build = engineered_pair(seed, poly_scale=1.5e-05 if seed % 2 else 0.0)
        spec = build.spec
        circle = spec.R ** (1.0 - spec.delta) * np.exp(2j * np.pi * np.arange(512) / 512)
        g = build.psi2.poly_value(circle) - build.psi1.poly_value(circle)
        deviation = np.abs(cexpm1(g + build.log_tail_ratio(circle)))
        k = int(np.argmax(deviation))
        assert deviation[k] == check_theorem(build)[0].observed
        with mpmath.workdps(40):
            w = mpmath.mpc(circle[k].real, circle[k].imag)
            exact = float(abs(mpmath_product(build.psi2, w) / mpmath_product(build.psi1, w) - 1))
        assert abs(deviation[k] - exact) <= 1e-14 * exact, seed


def test_measurement_window_covers_proof_segment():
    R, delta, p = 300.0, 0.9, 3
    lo, hi = measurement_window(R, delta, p, r0=1.0)
    base = R ** (1.0 - delta)
    assert lo <= base
    assert hi >= (p + 1) * base
    assert lo >= 1.0
    # a large activation radius squeezes the window but never inverts it
    lo2, hi2 = measurement_window(R, delta, p, r0=100.0)
    assert lo2 == 100.0
    assert hi2 > lo2


# ---------------------------------------------------------------------------
# the engineered regime
# ---------------------------------------------------------------------------


def test_engineered_pair_invariants():
    for seed in range(4):
        build = engineered_pair(seed)
        spec = build.spec
        assert build.p == 3
        assert 1.0e-3 <= spec.params.C1 <= 2.0e-3
        assert build.measured.envelope_C1 <= spec.params.C1
        derived = derive_constants(spec.params, spec.delta, p_override=build.p)
        assert derived.main.max_radius <= spec.R
        assert build.measured.compliance_a.ok and build.measured.compliance_b.ok


def test_threshold_r1_is_the_same_across_the_engineered_band():
    """engineered_pair takes its one compliance pass at the band's floor; that
    is the declared class's pass because r1 does not move within the band."""
    floor, cap = models._ENGINEERED_C1_FLOOR, models._ENGINEERED_C1_CAP
    assert models._ENGINEERED_PARAMS.C1 == floor
    r1 = threshold_r1(models._ENGINEERED_PARAMS)
    for C1 in np.linspace(floor, cap, 101):
        assert threshold_r1(replace(models._ENGINEERED_PARAMS, C1=float(C1))) == r1


def _engineered_pair_built_twice(spec):
    """The former construction: a probe build under the preset's C1, then a
    second build under the C1 declared from the probe's envelope."""
    probe = replace(spec, params=models._ENGINEERED_PARAMS)
    envelope = build_pair(probe).measured.envelope_C1
    declared = min(max(1.25 * envelope, models._ENGINEERED_C1_FLOOR), models._ENGINEERED_C1_CAP)
    return build_pair(replace(probe, params=replace(probe.params, C1=declared)))


@pytest.mark.parametrize("poly_scale", [0.0, 1.5e-05, 3e-3])
def test_engineered_pair_builds_once_and_matches_two_builds(monkeypatch, poly_scale):
    calls = []
    taken = []  # each compliance record of the current build and the parameters it was taken under
    envelope, compliance = models.ray_envelope_constant, models.count_compliance

    def counting(*args):
        calls.append(1)
        return envelope(*args)

    def recording(zeros, params):
        record = compliance(zeros, params)
        taken.append((record, params))
        return record

    for seed in range(20):
        taken.clear()
        with monkeypatch.context() as m:
            m.setattr(models, "ray_envelope_constant", counting)
            m.setattr(models, "count_compliance", recording)
            build = engineered_pair(seed, poly_scale=poly_scale)
        assert len(calls) == 2 * (seed + 1)
        reference = _engineered_pair_built_twice(build.spec)
        assert build.spec == reference.spec
        assert build.measured == reference.measured
        assert build == reference
        # one compliance pass per member, taken at the floor C1, which may lie
        # below the declared one; it reads only r1, the count rate and rho from
        # the parameters, and those are the declared class's
        assert [record for record, _ in taken] == [build.measured.compliance_a, build.measured.compliance_b]
        params = build.spec.params
        for (record, used), model in zip(taken, (build.psi1, build.psi2)):
            assert (threshold_r1(used), used.count_rate(), used.rho) == (
                threshold_r1(params), params.count_rate(), params.rho)
            assert record == count_compliance(model.zeros, params)


def test_engineered_pair_is_deterministic():
    a = engineered_pair(7)
    b = engineered_pair(7)
    assert a.spec.shared.entries == b.spec.shared.entries
    assert a.spec.outer_a.entries == b.spec.outer_a.entries
    assert a.spec.params.C1 == b.spec.params.C1


def test_engineered_pair_accepts_small_polynomials():
    for seed in range(20):
        build = engineered_pair(seed, poly_scale=1e-4)
        assert build.spec.poly_a and build.spec.poly_b
        assert len(build.spec.poly_a) == build.p + 1
        assert 1.0e-3 <= build.spec.params.C1 <= 2.0e-3


def test_engineered_polynomials_stay_small_on_the_measurement_window():
    """|g(z)| * |z|^mu <= poly_scale for |z| up to the top of the window."""
    scale = 1.5e-05
    for seed in range(20):
        build = engineered_pair(seed, poly_scale=scale)
        spec, mu = build.spec, build.spec.params.mu
        _lo, hi = measurement_window(spec.R, spec.delta, build.p, spec.params.r0)
        for poly in (spec.poly_a, spec.poly_b):
            assert sum(abs(c) * hi ** (j + mu) for j, c in enumerate(poly)) <= scale * (1 + 1e-12)


# ---------------------------------------------------------------------------
# pair files
# ---------------------------------------------------------------------------


def test_pair_file_round_trip(tmp_path):
    spec = random_pair(9)
    spec = type(spec)(
        shared=spec.shared,
        outer_a=spec.outer_a,
        outer_b=spec.outer_b,
        R=spec.R,
        delta=spec.delta,
        params=spec.params,
        ray_angle=0.25,
        poly_a=(0.001 + 0.002j, -0.0005j),
        poly_b=(),
    )
    path = tmp_path / "pair.json"
    save_pair_file(spec, str(path))
    loaded = load_pair_file(str(path), R=spec.R, delta=spec.delta)
    assert loaded.shared.entries == spec.shared.entries
    assert loaded.outer_a.entries == spec.outer_a.entries
    assert loaded.outer_b.entries == spec.outer_b.entries
    assert loaded.params == spec.params
    assert loaded.ray_angle == spec.ray_angle
    assert loaded.poly_a == spec.poly_a
    assert loaded.poly_b == ()


def test_missing_pair_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_pair_file(str(tmp_path / "absent.json"), R=60.0, delta=2.0 / 3.0)


# ---------------------------------------------------------------------------
# zeros of the constructed models
# ---------------------------------------------------------------------------


def test_located_zeros_match_prescription():
    """Inside B(0, R) the built model has exactly the prescribed zeros."""
    spec = random_pair(3)
    build = build_pair(spec)
    radius = 0.97 * spec.R
    found = locate_zeros(build.psi1.as_analytic_fn(), radius=radius)
    expected = sorted(
        ((loc, m) for loc, m in spec.shared if abs(loc) < radius),
        key=lambda lm: (lm[0].real, lm[0].imag),
    )
    got = sorted(found.entries, key=lambda lm: (lm[0].real, lm[0].imag))
    assert len(got) == len(expected)
    for (gl, gm), (el, em) in zip(got, expected):
        assert gm == em
        assert abs(gl - el) <= 1e-8 * max(1.0, abs(el))
