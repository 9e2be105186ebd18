"""Kernel transforms: closed forms, quadrature agreement, fits, and the
decay-boost transform."""

import math
import time

import mpmath
import numpy as np
import pytest

from zeroratio import jost as jost_module
from zeroratio.jost import (
    _integrate_batch,
    DivergenceError,
    JostFn,
    Kernel,
    NoDecayError,
    boost_ray_decay,
    growth_fit,
    kernel_from_json,
    kernel_to_json,
    ray_decay_fit,
)
from zeroratio.constants import ParameterError
from zeroratio.factors import ZeroSet
from zeroratio.models import EntireModel
from zeroratio.zeros import count_zeros, locate_zeros

UNIT = Kernel.constant(1.0, 1.0)  # K = 1 on [0, 1]


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------


def test_value_at_origin_is_one_plus_mass():
    assert JostFn(UNIT).evaluate(0.0) == pytest.approx(2.0, rel=1e-15)


def test_imaginary_axis_closed_form():
    jost = JostFn(UNIT)
    for y in (0.3, 1.0, 4.0, 25.0):
        expected = 1.0 + (1.0 - math.exp(-y)) / y
        assert complex(jost.evaluate(1j * y)) == pytest.approx(expected, rel=1e-14)


def test_series_and_pieces_agree_in_overlap():
    jost = JostFn(UNIT)
    # straddle the series radius from both sides
    for mag in (5e-5, 9e-5, 2e-4, 1e-3):
        for angle in (0.0, 1.1, 2.7):
            z = mag * complex(math.cos(angle), math.sin(angle))
            lo = complex(jost.evaluate(z))
            # force the piece evaluator by scaling in and back out is not
            # possible; instead compare against a 40-digit oracle
            mpmath.mp.dps = 40
            zm = mpmath.mpc(z.real, z.imag)
            oracle = 1 + (mpmath.exp(1j * zm) - 1) / (1j * zm)
            assert abs(lo - complex(oracle)) <= 1e-13


def test_piecewise_value_equals_horner_loop_bitwise():
    """Kernel.value keeps the arithmetic of the plain per-piece Horner loop."""
    kernel = Kernel.piecewise([0.0, 0.5, 1.0, 2.0],
                              [[1.0, -0.5, 0.25], [0.875, 0.3], [1.0, -0.2, 0.01, -0.05]])
    t = np.linspace(-0.5, 2.5, 301)
    expected = np.zeros_like(t)
    for i, row in enumerate(kernel.coeffs):
        a, b = kernel.knots[i], kernel.knots[i + 1]
        mask = (t >= a) & ((t < b) if i < len(kernel.coeffs) - 1 else (t <= b))
        acc = np.zeros(int(mask.sum()))
        for c in reversed(row):
            acc = acc * t[mask] + c
        expected[mask] = acc
    assert np.array_equal(kernel.value(t), expected)


def test_moments_of_polynomial_kernel():
    # K(t) = t on [0, 2]: first moment is 8/3
    kernel = Kernel.piecewise([0.0, 2.0], [[0.0, 1.0]])
    assert kernel.moment(0) == pytest.approx(2.0)
    assert kernel.moment(1) == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert kernel.value_at_zero() == pytest.approx(0.0)


def test_superexp_kernel_has_no_moments():
    with pytest.raises(ParameterError, match="piecewise kernels only"):
        Kernel.superexp(1.0, 2.0).moment(0)


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(3)
    kernel = Kernel.piecewise([0.0, 0.7, 1.5], [[1.0, -0.5], [0.25, 0.0, 0.125]])
    z = rng.uniform(-8, 8, 1000) + 1j * rng.uniform(-6, 6, 1000)
    a = JostFn(kernel).evaluate(z)
    b = 1.0 + _integrate_batch(kernel, z, 1e-12)
    rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-300)
    assert float(np.max(rel)) <= 1e-10


def test_superexp_imaginary_axis_against_erfc():
    # C exp(-(t/2)^gamma) with gamma = 2: psi(iy) = 1 + sqrt(pi) e^{y^2} erfc(y)
    mpmath.mp.dps = 30
    jost = JostFn(Kernel.superexp(1.0, 2.0))
    for y in (0.5, 2.0, 10.0):
        oracle = 1 + mpmath.sqrt(mpmath.pi) * mpmath.exp(y**2) * mpmath.erfc(y)
        assert complex(jost.evaluate(1j * y)) == pytest.approx(complex(oracle), rel=1e-11)


def test_superexp_agrees_with_faddeeva_form_in_every_direction():
    """gamma = 2: psi(z) = 1 + sqrt(pi) e^{-z^2} erfc(-iz).  Where the
    real-axis integral cancels, only the roundoff floor of its L1 mass
    M(z) = sqrt(pi) e^{y^2} erfc(y), y = Im z, can be certified."""
    mpmath.mp.dps = 30
    eps = np.finfo(float).eps
    jost = JostFn(Kernel.superexp(1.0, 2.0))
    for r in (0.5, 2.0, 4.0, 6.0, 8.0):
        z = r * np.exp(2j * math.pi * np.arange(32) / 32)
        for w, value in zip(z, jost.evaluate(z)):
            zm = mpmath.mpc(w.real, w.imag)
            ref = complex(1 + mpmath.sqrt(mpmath.pi) * mpmath.exp(-zm**2) * mpmath.erfc(-1j * zm))
            y = mpmath.mpf(w.imag)
            mass = float(mpmath.sqrt(mpmath.pi) * mpmath.exp(y**2) * mpmath.erfc(y))
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)) + 64 * eps * mass, w


def test_superexp_upper_half_plane_against_faddeeva_form():
    """For Im z > 0 the cutoff follows the decay of e^{izt}: at |z| = 2000 the
    integrand is below 1e-18 past t ~ 0.3, not only past t = 13.5."""
    jost = JostFn(Kernel.superexp(1.0, 2.0))
    for r in (2.0, 10.0, 50.0, 400.0, 2000.0):
        z = r * np.exp(1j * math.pi * np.linspace(0.02, 0.98, 25))
        with mpmath.workdps(30):
            for w, value in zip(z, jost.evaluate(z)):
                zm = mpmath.mpc(w.real, w.imag)
                ref = complex(1 + mpmath.sqrt(mpmath.pi) * mpmath.exp(-zm**2) * mpmath.erfc(-1j * zm))
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), w


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_superexp_values_do_not_depend_on_the_batch(gamma):
    jost = JostFn(Kernel.superexp(1.0, gamma))
    z = 6.0 * np.exp(2j * math.pi * (np.arange(64) + 0.5) / 64)
    together = jost.evaluate(z)
    alone = np.array([jost.evaluate(w) for w in z])
    split = np.concatenate([jost.evaluate(z[:20]), jost.evaluate(z[20:])])
    assert np.array_equal(together, alone)
    assert np.array_equal(together, split)


def test_superexp_points_refine_only_their_own_panels(monkeypatch):
    """A 256-point circle at r = 8 costs at most 20,000 point-panel pairs;
    panels shared by the whole batch cost 109,056."""
    rows = []
    gk_rows = jost_module._gk_rows

    def counting(kernel, z, lo, hi):
        rows.append(len(lo))
        return gk_rows(kernel, z, lo, hi)

    monkeypatch.setattr(jost_module, "_gk_rows", counting)
    JostFn(Kernel.superexp(1.0, 2.0)).evaluate(8.0 * np.exp(2j * math.pi * np.arange(256) / 256))
    assert 0 < sum(rows) <= 20000


def test_superexp_ray_fit_stops_each_integral_where_it_decays(monkeypatch):
    """A ray fit on arg z = 1.7, r in [2, 400] costs at most 1,500 rows;
    integrating every point to t = 13.5 costs 6,309."""
    rows = []
    gk_rows = jost_module._gk_rows

    def counting(kernel, z, lo, hi):
        rows.append(len(lo))
        return gk_rows(kernel, z, lo, hi)

    monkeypatch.setattr(jost_module, "_gk_rows", counting)
    fit = ray_decay_fit(JostFn(Kernel.superexp(1.0, 2.0)), angle=1.7)
    assert 0 < sum(rows) <= 1500
    assert fit.mu == 0.99


def test_integrand_peak_out_of_double_range_raises_overflow():
    """At z = -4000i the integrand of exp(-t^2/4) peaks near exp(1.6e7): an
    overflow, not a quadrature that fails to converge."""
    jost = JostFn(Kernel.superexp(1.0, 2.0))
    with pytest.raises(OverflowError, match="exceeds double-precision range"):
        jost.evaluate(-4000.0j)


# ---------------------------------------------------------------------------
# zeros of the transform
# ---------------------------------------------------------------------------


def newton_transcendental_roots():
    """Roots of exp(iz) = 1 - iz near the origin, by mpmath's solver.

    These are exactly the zeros of 1 + (e^{iz} - 1)/(iz).
    """
    mpmath.mp.dps = 30
    roots = []
    for guess in (4.5 - 1.5j, -4.5 - 1.5j, 10.9 - 2.4j, -10.9 - 2.4j):
        root = mpmath.findroot(
            lambda z: mpmath.exp(1j * z) - 1 + 1j * z, mpmath.mpc(guess)
        )
        roots.append(complex(root))
    return roots


def test_located_zeros_match_newton_solutions():
    jost = JostFn(UNIT)
    found = locate_zeros(jost.as_analytic_fn(), radius=12.0)
    expected = newton_transcendental_roots()
    assert found.total_multiplicity == len(expected)
    for root in expected:
        assert min(abs(root - loc) for loc, _ in found) < 1e-8


def test_zero_count_grows_linearly():
    jost = JostFn(UNIT).as_analytic_fn()
    counts = [count_zeros(jost, radius=r).count for r in (10.0, 20.0, 40.0)]
    assert counts[0] >= 2
    assert counts[1] > counts[0]
    assert counts[2] > counts[1]


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------


def test_ray_fit_unit_kernel():
    fit = ray_decay_fit(JostFn(UNIT).as_analytic_fn())
    assert abs(fit.mu - 1.0) <= 0.05
    assert fit.C1 <= 1.1
    # envelope property: the bound holds at every sample by construction
    assert not fit.degenerate


def test_ray_fit_degenerate_when_identically_one():
    kernel = Kernel.piecewise([0.0, 1.0], [[0.0]])
    fit = ray_decay_fit(JostFn(kernel).as_analytic_fn())
    assert fit.degenerate
    assert fit.C1 == 0.0
    assert math.isinf(fit.mu)


def test_ray_fit_refuses_growth():
    jost = JostFn(UNIT).as_analytic_fn()
    with pytest.raises(NoDecayError):
        ray_decay_fit(jost, angle=-math.pi / 2, r_min=2.0, r_max=60.0)


def test_growth_fit_unit_kernel():
    fit = growth_fit(JostFn(UNIT).as_analytic_fn())
    assert abs(fit.rho - 1.0) <= 0.05
    assert abs(fit.sigma - 1.0) <= 0.05
    assert not fit.degenerate


def test_growth_fit_support_two_kernel():
    kernel = Kernel.constant(0.5, 2.0)
    fit = growth_fit(JostFn(kernel).as_analytic_fn())
    assert abs(fit.rho - 1.0) <= 0.05
    assert abs(fit.sigma - 2.0) <= 0.1


def test_growth_fit_superexp_order():
    # gamma = 2 gives order gamma/(gamma - 1) = 2
    fit = growth_fit(JostFn(Kernel.superexp(1.0, 2.0)).as_analytic_fn())
    assert abs(fit.rho - 2.0) <= 0.1


def test_growth_fit_circles_keep_their_samples():
    """Each circle maximum adds only the odd points when it doubles, and for
    a batch-independent evaluator it is bitwise the maximum over a fresh
    circle of the final sample count."""
    # e^(z^3/1000) peaks sharply on the larger circles, so they need more than 512 points
    model = EntireModel(genus=3, zeros=ZeroSet.from_points([30.0 + 5.0j, -70.0j]), poly=(0, 0, 0, 1e-3))
    batches = {}

    def evaluate(z):
        batches.setdefault(round(float(abs(z[0])), 6), []).append(len(z))
        return model.evaluate(z)

    fit = growth_fit(evaluate, radii=[4.0, 8.0, 16.0, 31.0, 64.0])
    assert len(batches) == len(fit.radii) + 1  # the small circle for C0
    assert any(len(sizes) > 2 for sizes in batches.values())
    for r, m in zip(fit.radii, fit.maxima):
        sizes = batches[round(r, 6)]
        assert sizes == [256] + [256 * 2**k for k in range(len(sizes) - 1)]
        n = sum(sizes)
        assert m == np.max(np.abs(model.evaluate(r * np.exp(1j * (2.0 * math.pi * np.arange(n) / n)))))


def test_growth_fit_degenerate_for_flat_function():
    kernel = Kernel.piecewise([0.0, 1.0], [[0.0]])
    fit = growth_fit(JostFn(kernel).as_analytic_fn())
    assert fit.degenerate


def test_growth_fit_order_three_from_exact_maxima():
    """gamma = 1.5 gives order 3; the circle scan fails to converge near
    arg z = -0.57 pi at r = 6.2, the exact maxima psi(-ir) do not."""
    jost = JostFn(Kernel.superexp(1.0, 1.5))
    t0 = time.perf_counter()
    fit = growth_fit(jost.as_analytic_fn(), radii=np.geomspace(4, 12, 6))
    elapsed = time.perf_counter() - t0
    assert len(fit.radii) == 4
    assert fit.rho == 3.0
    assert not fit.degenerate
    # Laplace's method gives sigma = 32/27; the envelope has a 1/sqrt(r) prefactor
    assert fit.sigma == pytest.approx(32.0 / 27.0, rel=2e-3)
    # the integrand at the fifth radius peaks near exp(1190)
    assert fit.stopped == ("overflow", pytest.approx(12.0 * (4.0 / 12.0) ** 0.2))
    assert elapsed < 0.5


def test_growth_fit_overflow_at_the_first_radius_raises():
    """log max|psi| is about 609 > 600 at r = 8, the first default radius: the
    fit raises instead of reporting a flat function with no radii."""
    with pytest.raises(OverflowError, match="r = 8 exceeds exp"):
        growth_fit(JostFn(Kernel.superexp(1.0, 1.5)))


class _OneCircleAtATime:
    """psi whose max_modulus refuses a batch of radii, so growth_fit asks for
    each circle alone, and each circle is a single-point evaluation of psi(-ir)."""

    def __init__(self, jost):
        self.jost = jost

    def max_modulus(self, r):
        if np.ndim(r):
            raise DivergenceError("one circle at a time")
        return abs(self.jost.evaluate(complex(0.0, -r)))


@pytest.mark.parametrize("kernel, radii, stopped", [
    (Kernel.superexp(1.0, 3.0), np.geomspace(4.0, 8.0, 5), ("radii", None)),
    # log max|psi| is about 609 at r = 8
    (Kernel.superexp(1.0, 1.5), np.geomspace(4.0, 8.0, 5), ("overflow", 8.0)),
    # the integrand peak at the fifth radius leaves double range
    (Kernel.superexp(1.0, 1.5), np.geomspace(4.0, 12.0, 6), ("overflow", np.geomspace(4.0, 12.0, 6)[4])),
    (Kernel.superexp(1.0, 2.0), None, ("overflow", np.geomspace(8.0, 200.0, 16)[6])),
    (Kernel.superexp(2.0, 3.0), None, ("overflow", np.geomspace(8.0, 200.0, 16)[10])),
])
def test_growth_fit_takes_every_exact_maximum_in_one_quadrature_call(monkeypatch, kernel, radii, stopped):
    jost = JostFn(kernel)
    reference = growth_fit(_OneCircleAtATime(jost), radii=radii)
    calls = []
    integrate = jost_module._integrate_batch

    def counting(kernel, z, tol):
        calls.append(len(z))
        return integrate(kernel, z, tol)

    monkeypatch.setattr(jost_module, "_integrate_batch", counting)
    fit = growth_fit(jost, radii=radii)
    assert len(calls) == 1
    assert repr(fit) == repr(reference)
    assert fit.stopped == stopped


def test_growth_fit_walks_the_circles_alone_when_the_batch_diverges():
    """A batch that fails to converge stops the fit at the radius that fails."""
    jost = JostFn(Kernel.superexp(1.0, 2.0))

    class Diverging(_OneCircleAtATime):
        def max_modulus(self, r):
            if not np.ndim(r) and r > 5.0:
                raise DivergenceError("no convergence")
            return super().max_modulus(r)

    fit = growth_fit(Diverging(jost), radii=[2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert fit.radii == (2.0, 3.0, 4.0, 5.0)
    assert fit.stopped == ("divergence", 6.0)
    assert fit.maxima == tuple(abs(jost.evaluate(complex(0.0, -r))) for r in fit.radii)


@pytest.mark.parametrize("coeffs, nonnegative", [([[1.0], [0.5, 0.25]], True), ([[1.0], [-0.5, 0.1]], False)])
def test_growth_fit_reads_exact_maxima_only_for_nonnegative_kernels(monkeypatch, coeffs, nonnegative):
    """K >= 0 costs one point, psi(-ir), per circle, and all circles one
    call; a kernel that changes sign keeps the 256-point doubling scan."""
    jost = JostFn(Kernel.piecewise([0.0, 1.0, 2.0], coeffs))
    assert (jost.max_modulus(1.0) is not None) == nonnegative
    calls = []
    evaluate = JostFn.evaluate

    def recording(self, z):
        calls.append(np.asarray(z, dtype=complex).ravel())
        return evaluate(self, z)

    monkeypatch.setattr(JostFn, "evaluate", recording)
    radii = [1.0, 2.0, 4.0, 8.0]
    fit = growth_fit(jost.as_analytic_fn(), radii=radii)
    assert fit.radii == tuple(radii) and fit.stopped == ("radii", None)
    if nonnegative:
        # the small circle for C0 first, then every radius
        assert len(calls) == 1
        assert np.array_equal(calls[0], -1j * np.array([radii[0] / 100.0] + radii))
        for r, m in zip(fit.radii, fit.maxima):
            assert m == abs(evaluate(jost, complex(0.0, -r)))
    else:
        batches = {}
        for z in calls:
            batches.setdefault(round(float(np.abs(z[0])), 6), []).append(z.size)
        assert len(batches) == len(radii) + 1  # the small circle for C0
        for sizes in batches.values():
            assert len(sizes) >= 2
            assert sizes == [256] + [256 * 2**k for k in range(len(sizes) - 1)]


@pytest.mark.parametrize("kernel, radii", [
    (Kernel.superexp(1.0, 1.5), (1.0, 3.0, 5.0)),
    (Kernel.superexp(1.5, 2.0), (2.0, 6.0, 12.0)),
    (Kernel.superexp(1.0, 3.0), (2.0, 8.0, 20.0)),
    (Kernel.piecewise([0.0, 0.5, 2.0], [[1.0, 2.0], [0.3, 0.0, 0.5]]), (0.5, 4.0, 16.0)),
])
def test_max_modulus_matches_mpmath_and_bounds_the_circle(kernel, radii):
    jost = JostFn(kernel)
    for r in radii:
        exact = jost.max_modulus(r)
        with mpmath.workdps(30):
            if kernel.kind == "superexp":
                g = mpmath.mpf(kernel.gamma)
                peak = 2 * (2 * mpmath.mpf(r) / g) ** (1 / (g - 1))
                f = lambda t: kernel.C * mpmath.exp(-((t / 2) ** g) + r * t)  # noqa: E731
                ref = 1 + mpmath.quad(f, [0, peak / 2, peak, 2 * peak, 4 * peak + 20, mpmath.inf])
            else:
                ref = 1 + sum(
                    mpmath.quad(lambda t, row=row: mpmath.polyval(row[::-1], t) * mpmath.exp(r * t), [a, b])
                    for a, b, row in zip(kernel.knots, kernel.knots[1:], kernel.coeffs))
        assert exact == pytest.approx(float(ref), rel=1e-12)
        scan = np.max(np.abs(jost.evaluate(r * np.exp(2j * math.pi * np.arange(4096) / 4096))))
        assert exact * (1.0 + 1e-12) >= scan


# ---------------------------------------------------------------------------
# the decay-boost transform
# ---------------------------------------------------------------------------


def exp_kernel(T=30.0, pieces=3000):
    """Piecewise-linear interpolation of K(t) = e^{-t} on [0, T]."""
    ts = np.linspace(0.0, T, pieces + 1)
    coeffs = []
    for a, b in zip(ts[:-1], ts[1:]):
        fa, fb = math.exp(-a), math.exp(-b)
        slope = (fb - fa) / (b - a)
        coeffs.append((fa - slope * a, slope))
    return Kernel(kind="piecewise", knots=tuple(ts.tolist()), coeffs=tuple(coeffs))


def test_boost_exact_values_unit_kernel():
    # psi(iy) + K(0)/(i * iy) = 1 + (1 - e^{-y})/y - 1/y = 1 - e^{-y}/y
    boosted = boost_ray_decay(JostFn(UNIT))
    for y in (5.0, 20.0):
        expected = 1.0 - math.exp(-y) / y
        assert complex(boosted(1j * y)) == pytest.approx(expected, rel=1e-13)


def test_boost_raises_ray_exponent_of_exp_kernel():
    """K(0) = 1 with an exponentially decaying derivative: the transform
    cancels the 1/z term and the fitted exponent reaches about 2."""
    jost = JostFn(exp_kernel())
    plain = ray_decay_fit(jost.as_analytic_fn(), r_min=2.0, r_max=200.0)
    boosted = ray_decay_fit(boost_ray_decay(jost), r_min=2.0, r_max=200.0)
    assert abs(plain.mu - 1.0) <= 0.1
    assert boosted.mu >= 1.9


def test_boost_identity_when_kernel_vanishes_at_origin():
    kernel = Kernel.piecewise([0.0, 2.0], [[0.0, 1.0]])  # K(t) = t, K(0) = 0
    jost = JostFn(kernel)
    boosted = boost_ray_decay(jost)
    z = np.array([1.0 + 2.0j, -0.5 + 1.0j, 6.0j])
    assert np.max(np.abs(boosted(z) - jost.evaluate(z))) <= 1e-15


def test_boost_cancels_common_term_in_difference():
    # two kernels with equal K(0): the boosted difference equals the plain one
    k1 = Kernel.constant(1.0, 1.0)
    k2 = Kernel.piecewise([0.0, 1.0], [[1.0, -0.3]])  # K(0) = 1 as well
    j1, j2 = JostFn(k1), JostFn(k2)
    b1, b2 = boost_ray_decay(j1), boost_ray_decay(j2)
    z = np.array([3.0 + 4.0j, 10.0j, -2.0 + 7.0j])
    plain_diff = j1.evaluate(z) - j2.evaluate(z)
    boost_diff = b1(z) - b2(z)
    assert np.max(np.abs(plain_diff - boost_diff)) <= 1e-14


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_kernel_json_round_trip():
    for kernel in (
        UNIT,
        Kernel.piecewise([0.0, 0.5, 2.0], [[1.0, 2.0], [0.0, 0.0, -0.25]]),
        Kernel.superexp(0.7, 1.5),
    ):
        text = kernel_to_json(kernel)
        back = kernel_from_json(text)
        assert back == kernel


def test_kernel_json_uses_descriptive_names():
    assert kernel_to_json(UNIT)["kind"] == "piecewise-polynomial"
    assert kernel_to_json(Kernel.superexp(1.0, 2.0))["kind"] == "super-exponential"
