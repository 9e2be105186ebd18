"""Primary factors, tail products, and the small inequalities they rest on.

Property loops are plain seeded numpy draws; every bound asserted here is an
exact inequality from the chain, so the expected violation count is zero.
"""

import math

import mpmath
import numpy as np
import pytest

from zeroratio.constants import ParameterError
from zeroratio.factors import (
    _NEAR_BLOCK,
    _ZERO_BLOCK,
    DomainError,
    TailProductSpec,
    ZeroSet,
    _log_direct_sum,
    cexpm1,
    guard_radius,
    log_far_field,
    log_primary_factor_grid,
    log_tail_product_grid,
)

from helpers import primary_factor_grid


def tail_product_at(spec, z):
    """The tail product at one point, through the vectorized log sum."""
    return complex(np.exp(log_tail_product_grid(spec, np.array([z], dtype=complex)))[0])


def primary_factor_at(xi, p):
    """E_p(xi) at one point, through the explicit grid form."""
    return complex(primary_factor_grid(np.array([xi], dtype=complex), 1.0, p)[0])


# ---------------------------------------------------------------------------
# primary factor spot values
# ---------------------------------------------------------------------------


def test_primary_factor_at_zero_is_one():
    for p in (1, 2, 3, 7):
        assert primary_factor_at(0.0, p) == 1.0 + 0.0j


def test_primary_factor_vanishes_at_one():
    assert primary_factor_at(1.0, 1) == pytest.approx(0.0, abs=1e-15)


def test_primary_factor_spot_value():
    # E_1(0.5) = (1 - 0.5) * exp(0.5)
    assert primary_factor_at(0.5, 1) == pytest.approx(0.5 * math.exp(0.5), rel=1e-15)


def test_log_primary_factor_spot_value():
    # ln E_2(0.5) = ln(0.5) + 0.5 + 0.125
    expected = math.log(0.5) + 0.5 + 0.125
    got = complex(log_primary_factor_grid(np.array([0.5 + 0j]), 2)[0])
    assert got.real == pytest.approx(expected, rel=1e-13)
    assert got.imag == pytest.approx(0.0, abs=1e-15)
    assert abs(got) <= 0.5**3


def test_log_bound_holds_just_past_guard():
    # at xi = 0.6 the genus-1 series domain has ended, but the closed-form
    # logarithm still satisfies |ln E_1(0.6)| <= 0.6^2
    value = log_primary_factor_grid(np.array([0.6 + 0j]), 1)[0]
    assert abs(value) <= 0.36


def test_log_far_field_rejects_zeros_closer_than_twice_the_points():
    locs = np.array([4.0 + 0j, 10.0j])
    mults = np.array([1, 2])
    z = np.array([1.0, 2.0j])
    direct = log_primary_factor_grid(z[:, None] / locs, 2) @ mults
    assert np.allclose(log_far_field(z, locs, mults, 2), direct, rtol=1e-14, atol=0.0)
    with pytest.raises(DomainError):
        log_far_field(np.array([2.1 + 0j]), locs, mults, 2)


def test_log_far_field_keeps_relative_accuracy_of_tiny_sums():
    """Against a 40-digit mpmath sum, per point, at genus 1-5 and
    q = max|z|/min|z_n| from 1e-3 to 0.49, where the sum falls to ~1e-19.

    The order K is chosen relative to the sum's a-priori bound; an absolute
    stopping rule left only a term or two at q = 1e-3 and erred by 1e-3
    relative there.
    """
    mpmath.mp.dps = 40
    rng = np.random.default_rng(5)
    locs = rng.uniform(1.0, 3.0, 40) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
    mults = rng.integers(1, 3, 40)
    for p in range(1, 6):
        for q in (1e-3, 1e-2, 0.1, 0.49):
            z = q * np.min(np.abs(locs)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
            got = log_far_field(z, locs, mults, p)
            for w, g in zip(z, got):
                oracle = mpmath.mpc(0)
                for loc, m in zip(locs, mults):
                    xi = mpmath.mpc(w.real, w.imag) / mpmath.mpc(loc.real, loc.imag)
                    oracle += int(m) * (mpmath.log(1 - xi) + sum(xi**k / k for k in range(1, p + 1)))
                assert abs(g - complex(oracle)) <= 1e-13 * abs(complex(oracle)), (p, q)


def test_guard_radius_values():
    assert guard_radius(1) == pytest.approx(0.5)
    assert guard_radius(3) == pytest.approx(0.75)


def test_log_primary_factor_grid_and_full_against_mpmath():
    """The evaluator against log(1 - xi) + partial sum at 40 digits.

    Draws uniform in modulus over (0.05, guard radius) cover the series
    branch below the split radius and the explicit branch above it, to 1e-13
    of the value.  Draws over (guard radius, 4) cover the rest of the plane,
    where log E_p can pass through zero, so the error there is measured in
    units of the magnitudes of the terms the explicit form adds up.
    """
    mpmath.mp.dps = 40
    rng = np.random.default_rng(4)
    for p in (1, 2, 3, 5, 8, 12):
        for lo, hi in ((0.05, guard_radius(p) * 0.999), (guard_radius(p), 4.0)):
            xi = rng.uniform(lo, hi, 100) * np.exp(1j * rng.uniform(0, 2 * math.pi, 100))
            oracle = []
            for x in xi:
                xm = mpmath.mpc(x.real, x.imag)
                oracle.append(complex(mpmath.log(1 - xm) + sum(xm**k / k for k in range(1, p + 1))))
            oracle = np.array(oracle)
            scale = np.abs(oracle)
            if lo > 0.05:
                scale = np.abs(np.log1p(-xi)) + sum(np.abs(xi) ** k / k for k in range(1, p + 1))
            assert np.all(np.abs(log_primary_factor_grid(xi, p) - oracle) <= 1e-13 * scale), (p, lo)


def test_log_primary_factor_series_branch_keeps_small_xi_accurate():
    """The series length follows the batch's reach, so a batch of one decade
    sums fewer terms than a batch of all decades; both against mpmath at 40
    digits, moduli log-uniform in [1e-6, split]."""
    mpmath.mp.dps = 40
    rng = np.random.default_rng(13)
    for p in (1, 2, 3, 5, 8, 12):
        split = min(0.9 * guard_radius(p), max(0.25, (3.3e-3 * (p + 1) * (p + 2)) ** (1.0 / p)))
        xi = np.exp(rng.uniform(math.log(1e-6), math.log(split), 300)) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, 300))
        oracle = []
        for x in xi:
            xm = mpmath.mpc(x.real, x.imag)
            terms = int(42 / -math.log10(abs(x))) + 2  # remainder below 1e-42 relative
            oracle.append(complex(-mpmath.fsum(xm**k / k for k in range(p + 1, p + 1 + terms))))
        oracle = np.array(oracle)
        decade = np.floor(np.log10(np.abs(xi)))
        batches = [decade == d for d in np.unique(decade)] + [np.ones(len(xi), dtype=bool)]
        for batch in batches:
            mine = log_primary_factor_grid(xi[batch], p)
            assert np.all(np.abs(mine - oracle[batch]) <= 1e-13 * np.abs(oracle[batch])), p


# ---------------------------------------------------------------------------
# the seeded log-bound property
# ---------------------------------------------------------------------------


def test_log_bound_and_series_consistency_property():
    """|ln E_p| <= |xi|^(p+1) inside the guard disk, and the two evaluation
    routes agree, over a few thousand seeded draws."""
    rng = np.random.default_rng(20240817)
    violations = 0
    worst_rel = 0.0
    for p in (1, 2, 3, 5):
        cap = guard_radius(p)
        radii = cap * np.sqrt(rng.uniform(0.0, 1.0, 500))
        angles = rng.uniform(0.0, 2.0 * math.pi, 500)
        xi = radii * np.exp(1j * angles)
        logs = log_primary_factor_grid(xi, p)
        if np.any(np.abs(logs) > np.abs(xi) ** (p + 1) * (1 + 1e-13)):
            violations += 1
        closed = primary_factor_grid(xi, 1.0, p)
        rel = np.abs(np.exp(logs) - closed) / np.maximum(np.abs(closed), 1e-300)
        worst_rel = max(worst_rel, float(rel.max()))
    assert violations == 0
    assert worst_rel <= 1e-12


def test_full_plane_log_matches_grid_inside_guard():
    """Points inside the guard disk get the same logs whether or not their
    batch also holds points far outside it."""
    rng = np.random.default_rng(7)
    for p in (1, 2, 4):
        xi = guard_radius(p) * 0.9 * rng.uniform(0.1, 1.0, 64) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, 64)
        )
        far = rng.uniform(1.2, 8.0, 64) * np.exp(1j * rng.uniform(0, 2 * math.pi, 64))
        inside = log_primary_factor_grid(xi, p)
        full = log_primary_factor_grid(np.concatenate([far, xi]), p)[64:]
        assert np.max(np.abs(inside - full)) <= 1e-14


def test_full_plane_log_outside_guard():
    # moduli kept small enough that exp of the partial sum stays in range
    rng = np.random.default_rng(8)
    for p in (0, 1, 3):
        xi = rng.uniform(1.2, 8.0, 64) * np.exp(1j * rng.uniform(0, 2 * math.pi, 64))
        logs = log_primary_factor_grid(xi, p)
        direct = primary_factor_grid(xi, 1.0, p)
        assert np.max(np.abs(np.exp(logs) - direct) / np.abs(direct)) <= 1e-11


def test_full_plane_log_is_minus_inf_at_zero_location():
    logs = log_primary_factor_grid(np.array([1.0 + 0j]), 2)
    assert logs[0].real == -math.inf


# ---------------------------------------------------------------------------
# exp(w) - 1
# ---------------------------------------------------------------------------


def exp_minus_one_bound_check(w):
    """(|e^w - 1|, |w| e^|w|); the first never exceeds the second."""
    return abs(cexpm1(w)), abs(w) * math.exp(abs(w))


def test_exp_minus_one_bound_spot_values():
    lhs, rhs = exp_minus_one_bound_check(0.0)
    assert (lhs, rhs) == (0.0, 0.0)
    lhs, rhs = exp_minus_one_bound_check(1.0)
    assert lhs == pytest.approx(math.e - 1.0)
    assert rhs == pytest.approx(math.e)
    lhs, rhs = exp_minus_one_bound_check(1j * math.pi)
    assert lhs == pytest.approx(2.0)
    assert rhs == pytest.approx(math.pi * math.exp(math.pi))


def test_exp_minus_one_bound_property():
    rng = np.random.default_rng(99)
    w = rng.uniform(-5, 5, 10_000) * np.exp(1j * rng.uniform(0, 2 * math.pi, 10_000))
    w = w[np.abs(w) <= 5.0]
    lhs = np.abs(cexpm1(w))
    rhs = np.abs(w) * np.exp(np.abs(w))
    assert np.all(lhs <= rhs * (1 + 1e-13))


def test_cexpm1_small_argument_accuracy():
    mpmath.mp.dps = 40
    for w in (1e-12 + 1e-13j, -3e-9j, 1e-15, 0.1 + 0.2j):
        oracle = complex(mpmath.expm1(mpmath.mpc(w.real if hasattr(w, "real") else w, getattr(w, "imag", 0.0))))
        mine = complex(cexpm1(np.array([w]))[0])
        assert abs(mine - oracle) <= 1e-15 * max(abs(oracle), 1e-300) + 1e-300


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------


def test_zeroset_csv_round_trip(tmp_path):
    zs = ZeroSet.from_points([1 + 2j, -3.5j, 4.0], [1, 2, 1])
    path = tmp_path / "zeros.csv"
    zs.to_csv(path)
    back = ZeroSet.from_csv(path)
    assert back.entries == zs.entries


def test_zeroset_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,m\n1,2,1\n")
    with pytest.raises(ParameterError):
        ZeroSet.from_csv(path)


def test_zeroset_merge_count():
    zs = ZeroSet.from_points([1.0, 2.0, 3.0, 4.0])
    inner = ZeroSet.from_points([2.0, 1.0])
    outer = ZeroSet.from_points([3.0, 4.0])
    assert len(inner) == 2 and len(outer) == 2
    assert inner.merged_with(outer).total_multiplicity == 4
    assert zs.count_within(3.5) == 3
    assert zs.min_modulus() == pytest.approx(1.0)
    assert zs.max_modulus() == pytest.approx(4.0)


def test_zeroset_moduli_are_the_moduli_it_sorts_by():
    """moduli() is Python's abs of each zero, bitwise, so it is sorted and
    its first entry is min_modulus(); numpy's complex abs can differ in the
    last bit, as it does for 2.4520960066385 - 2.0187j moved one ulp left."""
    rng = np.random.default_rng(5)
    points = list(rng.normal(size=400) * 10.0 ** rng.uniform(-3, 3, 400)
                  + 1j * rng.normal(size=400) * 10.0 ** rng.uniform(-3, 3, 400))
    points += [-2.4520960066385 - 2.0187j, complex(np.nextafter(2.4520960066385, 0.0), -2.0187)]
    zs = ZeroSet.from_points(points)
    moduli = zs.moduli()
    assert moduli.tolist() == [abs(z) for z, _ in zs.entries]
    assert np.all(np.diff(moduli) >= 0.0)
    assert moduli[0] == zs.min_modulus() and moduli[-1] == zs.max_modulus()


# ---------------------------------------------------------------------------
# tail products
# ---------------------------------------------------------------------------


def test_tail_product_empty_set_is_one():
    spec = TailProductSpec(zeros=ZeroSet.from_points([]), genus=1, cutoff=2.0)
    assert tail_product_at(spec, 0.5 + 0.5j) == 1.0 + 0.0j


def test_tail_product_single_zero_spot_value():
    spec = TailProductSpec(zeros=ZeroSet.from_points([10.0]), genus=1, cutoff=10.0)
    expected = 0.9 * math.exp(0.1)
    assert tail_product_at(spec, 1.0) == pytest.approx(expected, rel=1e-14)
    assert tail_product_at(spec, 0.0) == 1.0 + 0.0j


def test_tail_product_log_additivity():
    rng = np.random.default_rng(13)
    locs1 = 20.0 * rng.uniform(1.0, 3.0, 8) * np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
    locs2 = 20.0 * rng.uniform(1.0, 3.0, 5) * np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
    s1 = ZeroSet.from_points(locs1)
    s2 = ZeroSet.from_points(locs2)
    z = 3.0 - 2.0j
    p1 = tail_product_at(TailProductSpec(s1, 2, 20.0), z)
    p2 = tail_product_at(TailProductSpec(s2, 2, 20.0), z)
    both = tail_product_at(TailProductSpec(s1.merged_with(s2), 2, 20.0), z)
    assert both == pytest.approx(p1 * p2, rel=1e-12)


def test_tail_product_scale_covariance():
    """Scaling the zeros by lambda and the point by lambda leaves the product
    unchanged (each ratio z/z_n is invariant)."""
    rng = np.random.default_rng(17)
    locs = 30.0 * rng.uniform(1.0, 2.5, 10) * np.exp(1j * rng.uniform(0, 2 * math.pi, 10))
    lam = 2.0
    z = 4.0 + 1.0j
    base = tail_product_at(TailProductSpec(ZeroSet.from_points(locs), 2, 30.0), z)
    scaled = tail_product_at(
        TailProductSpec(ZeroSet.from_points(lam * locs), 2, lam * 30.0), lam * z
    )
    assert scaled == pytest.approx(base, rel=1e-13)


def test_tail_product_grid_matches_pointwise():
    """The grid tail product against a 40-digit mpmath product at each point."""
    mpmath.mp.dps = 40
    rng = np.random.default_rng(23)
    locs = 25.0 * rng.uniform(1.0, 2.0, 12) * np.exp(1j * rng.uniform(0, 2 * math.pi, 12))
    spec = TailProductSpec(ZeroSet.from_points(locs), 2, 25.0)
    pts = 3.0 * rng.uniform(0.1, 1.0, 40) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
    grid_vals = np.exp(log_tail_product_grid(spec, pts))
    for i, z in enumerate(pts):
        zm = mpmath.mpc(z.real, z.imag)
        oracle = mpmath.mpf(1)
        for loc, _ in spec.zeros:
            xi = zm / mpmath.mpc(loc.real, loc.imag)
            oracle *= (1 - xi) * mpmath.exp(xi + xi**2 / 2)
        assert grid_vals[i] == pytest.approx(complex(oracle), rel=1e-13)


def test_tail_product_respects_multiplicity():
    z = 2.0 + 1.0j
    single = TailProductSpec(ZeroSet.from_points([40.0], [2]), 1, 40.0)
    double = TailProductSpec(ZeroSet.from_points([40.0, 40.0]), 1, 40.0)
    assert tail_product_at(single, z) == pytest.approx(tail_product_at(double, z), rel=1e-15)


def test_tail_product_guard_violation_raises():
    spec = TailProductSpec(ZeroSet.from_points([10.0]), 1, 10.0)
    with pytest.raises(DomainError):
        log_tail_product_grid(spec, np.array([9.0 + 0j]))  # ratio 0.9 > 1/2 guard for genus 1


def test_direct_tail_sum_goes_through_cache_sized_point_chunks():
    """A long batch equals, bitwise, its chunk-aligned slices evaluated apart,
    and every point agrees with its lone evaluation to rounding, also a tiny
    point whose chunk reaches the split radius and so sums more terms."""
    rng = np.random.default_rng(8)
    locs = 50.0 * rng.uniform(1.0, 2.0, 300) * np.exp(1j * rng.uniform(0, 2 * math.pi, 300))
    spec = TailProductSpec(ZeroSet.from_points(locs), 2, 50.0)
    pts = 20.0 * rng.uniform(0.0, 1.0, 9000) * np.exp(1j * rng.uniform(0, 2 * math.pi, 9000))
    pts[1] = 1e-3j  # |xi| <= 2e-5 alone, beside points past the split in its chunk
    chunk = _NEAR_BLOCK // 256
    cut = 100 * chunk
    whole = log_tail_product_grid(spec, pts)
    assert np.array_equal(whole[:cut], log_tail_product_grid(spec, pts[:cut]))
    assert np.array_equal(whole[cut:], log_tail_product_grid(spec, pts[cut:]))
    assert np.array_equal(whole[chunk : 2 * chunk], log_tail_product_grid(spec, pts[chunk : 2 * chunk]))
    for i in (0, 1, cut - 1, cut, 8999):
        lone = log_tail_product_grid(spec, pts[i : i + 1])[0]
        assert abs(whole[i] - lone) <= 1e-14 * abs(lone)


def test_large_set_direct_sum_matches_power_sums():
    """The compensated direct sum over 20,000 zeros, in 79 blocks, against
    the independent power-sum expansion, at points out to |z| = 45 (ratios up
    to 0.45).  Measured worst: 3.3e-14 relative, where the explicit branch
    of each |xi| > 0.25 factor loses a few ulps; the power sums are within
    2e-15 of a 30-digit sum there."""
    rng = np.random.default_rng(31)
    n = 20_000
    locs = 100.0 * (1.0 + rng.pareto(3.0, n)) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    spec = TailProductSpec(ZeroSet.from_points(locs), 2, 100.0)
    pts = 45.0 * np.sqrt(rng.uniform(0.0, 1.0, 64)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 64))
    pts = np.concatenate([pts, [45.0, 45.0j, -45.0, 1.0 + 1.0j, -3.0 + 0.5j, 5.0j]])
    direct = log_tail_product_grid(spec, pts)
    far = log_far_field(pts, spec.zeros.locations(), spec.zeros.multiplicities(), 2)
    assert np.all(np.abs(direct - far) <= 1e-13 * np.abs(far))


def test_direct_sum_of_a_point_ignores_its_batch():
    """On a circle every chunk sums the same number of series terms, and
    each point's blocks are reduced row by row, so a point alone and the
    same point inside a 512-point batch get bitwise the same value."""
    rng = np.random.default_rng(41)
    locs = 40.0 * rng.uniform(1.0, 3.0, 117) * np.exp(1j * rng.uniform(0, 2 * math.pi, 117))
    spec = TailProductSpec(ZeroSet.from_points(locs, rng.integers(1, 3, 117)), 2, 40.0)
    pts = 20.0 * np.exp(2j * math.pi * np.arange(512) / 512)
    whole = log_tail_product_grid(spec, pts)
    alone = np.array([log_tail_product_grid(spec, pts[i : i + 1])[0] for i in range(512)])
    assert np.array_equal(whole, alone)


def _direct_sum_draws():
    """(points, locations, multiplicities, genus) covering every regime of
    the direct sum: genus 0 to 20, blocks that mix the series and explicit
    branches, points on a zero, one-point and one-zero calls, and a zero
    set longer than one block."""
    rng = np.random.default_rng(52)
    # zeros that points hit exactly; z_n * (1/z_n) != 1 at the last
    hit = np.array([1.5 + 0j, -2.0j, -9.1636 + 4.8539j])
    for genus in (0, 1, 2, 5, 12, 20):
        radii = np.concatenate([rng.uniform(1.0, 4.0, 6), rng.uniform(6.0, 40.0, 30)])
        locs = np.concatenate([hit, radii * np.exp(2j * math.pi * rng.random(36))])
        zs = ZeroSet.from_points(locs, rng.integers(1, 3, len(locs)))
        scale = zs.min_modulus()
        pts = scale * np.geomspace(0.02, 4.0, 16) * np.exp(2j * math.pi * rng.random(16))
        pts = np.concatenate([pts, hit])
        locs, mults = zs.locations(), zs.multiplicities()
        yield pts, locs, mults, genus
        yield pts[5:6], locs, mults, genus
        yield pts[-1:], locs, mults, genus
        yield pts, locs[-1:], mults[-1:], genus
        yield hit[-1:], hit[-1:], np.array([2]), genus  # the chunk's reach is the zero's modulus
    locs = 50.0 * rng.uniform(1.0, 4.0, _ZERO_BLOCK + 44) * np.exp(
        2j * math.pi * rng.random(_ZERO_BLOCK + 44))
    zs = ZeroSet.from_points(locs)
    pts = 45.0 * np.geomspace(0.01, 1.0, 6) * np.exp(2j * math.pi * rng.random(6))
    yield pts, zs.locations(), zs.multiplicities(), 2


def test_direct_sum_matches_mpmath_in_every_regime():
    """The direct sum against a 40-digit factor-by-factor sum, in units of
    the sum of the magnitudes of the terms it adds (as in the model
    evaluator's mpmath test), and non-finite exactly on a zero.  Measured
    worst: 1.9e-15 of those units at genus 20 and |xi| = 4, where an ulp of
    xi moves the term xi^20/20 by 20 ulps of itself; at most 4e-16 at genus
    12 and below, and 1.5e-16 at genus 0."""
    worst = 0.0
    for pts, locs, mults, p in _direct_sum_draws():
        with np.errstate(invalid="ignore"):  # the compensation meets -inf on a zero
            got = _log_direct_sum(pts, locs, mults, p)
        for z, value in zip(pts, got):
            if np.any(z == locs):
                assert not np.isfinite(value)
                continue
            xi = z / locs
            a = np.abs(xi)
            terms = np.abs(np.log(1.0 - xi)) + a / np.abs(1.0 - xi)
            terms += sum(a**k / k for k in range(1, p + 1))
            with mpmath.workdps(40):
                w = mpmath.mpc(z.real, z.imag)
                oracle = mpmath.fsum(
                    int(m) * (mpmath.log(1 - w / mpmath.mpc(loc.real, loc.imag))
                              + mpmath.fsum((w / mpmath.mpc(loc.real, loc.imag)) ** k / k
                                            for k in range(1, p + 1)))
                    for loc, m in zip(locs, mults))
            worst = max(worst, abs(value - complex(oracle)) / float(np.sum(mults * terms)))
    assert worst <= 4e-15, worst
