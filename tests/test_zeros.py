"""Argument-principle counting, zero location, and the Jensen identity."""

import math

import numpy as np
import pytest

from zeroratio.constants import ClassParams
from zeroratio.factors import ZeroSet
from zeroratio import zeros as zeros_module
from zeroratio.jost import JostFn, Kernel
from zeroratio.models import EntireModel, engineered_pair
from zeroratio.report import PASS, PASS_UNMET
from zeroratio.zeros import (
    AnalyticFn,
    EvaluationError,
    count_zeros,
    jensen_check,
    locate_zeros,
)

from helpers import count_bound_check, secant_reference


def poly_fn(*roots):
    """Monic polynomial with the given roots, vectorized."""
    roots = np.asarray(roots, dtype=complex)

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for r in roots:
            out = out * (z - r)
        return out

    return AnalyticFn(evaluator=evaluate)


def counting(fn):
    """fn behind an AnalyticFn that records the size of every evaluator call."""
    batches = []

    def evaluate(z):
        batches.append(len(z))
        return fn(z)

    return AnalyticFn(evaluator=evaluate), batches


def test_scalar_evaluator_raises_evaluation_error():
    fn = AnalyticFn(evaluator=lambda z: complex(np.sum(z)))
    with pytest.raises(EvaluationError, match=r"shape \(\) for input shape \(3,\)"):
        fn(np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_simple_roots():
    fn = poly_fn(0.5, -0.3 + 0.4j, 2.0)
    res = count_zeros(fn, radius=1.0)
    assert res.count == 2
    assert res.reliable


def test_count_includes_multiplicity():
    fn = poly_fn(0.25j, 0.25j, 0.25j, -0.6)
    res = count_zeros(fn, radius=1.0)
    assert res.count == 4


def test_count_respects_center():
    fn = poly_fn(3.0, 3.5, -10.0)
    assert count_zeros(fn, center=3.2, radius=0.7).count == 2
    assert count_zeros(fn, center=0j, radius=1.0).count == 0


def test_count_zero_on_contour_nudges():
    # a root exactly on the circle: the deterministic outward nudge makes the
    # count land on the inclusive side, reproducibly
    fn = poly_fn(1.0)
    res = count_zeros(fn, radius=1.0)
    assert res.count == 1
    assert count_zeros(fn, radius=1.0).count == 1


def test_count_random_products_property():
    rng = np.random.default_rng(2024)
    for trial in range(30):
        n = int(rng.integers(1, 9))
        roots = rng.uniform(0.1, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        radius = 1.0
        # keep roots off the contour so the ground truth is unambiguous
        roots = roots[np.abs(np.abs(roots) - radius) > 1e-3]
        if len(roots) == 0:
            continue
        fn = poly_fn(*roots)
        expected = int(np.sum(np.abs(roots) < radius))
        assert count_zeros(fn, radius=radius).count == expected, f"trial {trial}"


def test_count_on_entire_model():
    zs = ZeroSet.from_points([5.0, 7.0j, -6.0, 11.0], [1, 2, 1, 1])
    model = EntireModel(genus=2, zeros=zs)
    res = count_zeros(model.as_analytic_fn(), radius=8.0)
    assert res.count == 4  # 5, 7j (double), -6


# ---------------------------------------------------------------------------
# location
# ---------------------------------------------------------------------------


def test_locate_simple_roots():
    roots = [0.4 + 0.1j, -0.5 - 0.2j, 0.7j]
    fn = poly_fn(*roots)
    zs = locate_zeros(fn, radius=1.0)
    assert zs.total_multiplicity == 3
    found = sorted(zs.locations(), key=lambda z: (z.real, z.imag))
    expect = sorted(roots, key=lambda z: (z.real, z.imag))
    for a, b in zip(found, expect):
        assert abs(a - b) < 1e-9


def test_locate_reports_multiplicity():
    fn = poly_fn(0.3, 0.3)
    zs = locate_zeros(fn, radius=1.0)
    assert zs.total_multiplicity == 2
    assert any(m == 2 and abs(loc - 0.3) < 1e-6 for loc, m in zs)


def test_locate_then_reevaluate_is_small():
    rng = np.random.default_rng(5)
    roots = 0.8 * rng.uniform(0.2, 1.0, 6) * np.exp(1j * rng.uniform(0, 2 * math.pi, 6))
    fn = poly_fn(*roots)
    zs = locate_zeros(fn, radius=1.0)
    assert zs.total_multiplicity == len(roots)
    vals = np.abs(fn(zs.locations()))
    # local scale: product of distances to the other roots is O(1) here
    assert np.max(vals) < 1e-8


def test_locate_on_entire_model_matches_prescription():
    zs_in = ZeroSet.from_points([2.0 + 1.0j, -1.5 + 2.5j], [1, 1])
    model = EntireModel(genus=1, zeros=zs_in)
    zs_out = locate_zeros(model.as_analytic_fn(), radius=4.0)
    assert zs_out.total_multiplicity == 2
    for loc, _ in zs_in:
        assert min(abs(loc - f) for f, _ in zs_out) < 1e-8


def assert_located(zs, expected):
    """Exactly the expected (location, multiplicity) pairs, each within 1e-9."""
    assert len(zs) == len(expected)
    for loc, mult in expected:
        found, found_mult = min(zs, key=lambda g: abs(g[0] - loc))
        assert found_mult == mult
        assert abs(found - loc) < 1e-9


def test_locate_triple_zero():
    fn = poly_fn(0.2 + 0.1j, 0.2 + 0.1j, 0.2 + 0.1j, -0.5, 0.6j)
    zs = locate_zeros(fn, radius=1.0)
    assert_located(zs, [(0.2 + 0.1j, 3), (-0.5, 1), (0.6j, 1)])


def test_locate_separates_zeros_1e6_apart():
    # the disk's pencil sees one double zero; the small polish circle splits it
    pair = 0.3 + 0.2j
    fn = poly_fn(pair, pair + 1e-6, -0.4j)
    zs = locate_zeros(fn, radius=1.0)
    assert_located(zs, [(pair, 1), (pair + 1e-6, 1), (-0.4j, 1)])


def test_locate_twenty_roots_subdivides_past_the_cap():
    rng = np.random.default_rng(20)
    roots = rng.uniform(0.05, 0.95, 20) * np.exp(1j * rng.uniform(0, 2 * math.pi, 20))
    assert len(roots) > zeros_module._PENCIL_CAP
    zs = locate_zeros(poly_fn(*roots), radius=1.0)
    assert_located(zs, [(r, 1) for r in roots])


def test_locate_root_on_the_first_split_line(monkeypatch):
    # twelve roots exceed the cap, so the bounding square of the disk is
    # split, first through the center, which holds 0.37j and 0.55
    roots = [0.37j, 0.55] + [0.7 * np.exp(1j * (0.3 + 0.6 * k)) for k in range(10)]
    counted = []
    count_rect = zeros_module._count_rect
    monkeypatch.setattr(zeros_module, "_count_rect", lambda *a: counted.append(a[1:]) or count_rect(*a))
    zs = locate_zeros(poly_fn(*roots), radius=1.0)
    assert_located(zs, [(r, 1) for r in roots])
    # the split through the center was tried and given up for a jittered one
    x0, x1, _y0, _y1 = counted[0]
    jittered = x0 + (x1 - x0) * zeros_module._SPLIT_FRACTIONS[1]
    assert any(c[1] == 0.0 for c in counted) and any(c[1] == jittered for c in counted)


def test_locate_engineered_pair_costs_few_evaluations_per_zero():
    psi1 = engineered_pair(0).psi1
    evaluations = []

    def evaluate(z):
        evaluations.append(len(z))
        return psi1.evaluate(z)

    zs = locate_zeros(AnalyticFn(evaluator=evaluate), radius=300.0)
    assert_located(zs, [(w, m) for w, m in psi1.zeros if abs(w) < 300.0])
    assert sum(evaluations) <= 1000 * len(zs)


@pytest.mark.parametrize("label, fn, radius, n_zeros, max_calls, points", [
    ("engineered psi1", engineered_pair(0).psi1.as_analytic_fn(), 300.0, 6, 20, 1356),
    ("piecewise transform", JostFn(Kernel.piecewise((0, 0.5, 1), ((1.2, 0.4), (0.7, -0.5)))).as_analytic_fn(),
     40.0, 12, 45, 3676),
])
def test_locate_makes_few_evaluator_calls(label, fn, radius, n_zeros, max_calls, points):
    """A leaf's secant steps and a locate's residual test each take one call
    for all their zeros, not one call per zero."""
    counted, batches = counting(fn)
    zs = locate_zeros(counted, 0j, radius)
    assert sum(m for _, m in zs) == n_zeros, label
    assert len(batches) <= max_calls, label
    assert sum(batches) == points, label


def test_secants_match_the_scalar_iteration_node_by_node():
    """Every node of `_secants` lands bitwise where the scalar iteration puts
    it, although the nodes stop after different numbers of steps, and a node
    whose iterate leaves iso/2 keeps its pencil node."""
    roots = [0.5, -0.3 + 0.4j, 0.8j, -0.7 - 0.2j]
    fn = poly_fn(*roots)
    # an exact root, a near and a far start, and a start 1e-2 off a root with iso 1e-4
    w = np.array([0.5, -0.3 + 0.401j, 0.75j, -0.7 - 0.19j])
    iso = np.array([0.1, 0.05, 0.2, 1e-4])
    steps = []
    for wj, isoj in zip(w.tolist(), iso.tolist()):
        counted, batches = counting(fn)
        steps.append((secant_reference(counted, wj, isoj), len(batches) - 1))
    assert len({k for _, k in steps}) == 4  # every node takes its own number of steps
    assert steps[0][1] == 1 and steps[3][0] == w[3]

    counted, batches = counting(fn)
    got = zeros_module._secants(counted, w, iso)
    assert got.tolist() == [z for z, _ in steps]
    # one call per step of the slowest node, the first also evaluating every start
    assert len(batches) == max(k for _, k in steps)
    assert batches[0] == 2 * len(w)


def test_non_finite_value_at_a_located_zero_raises():
    """A zero whose own value is NaN cannot pass the residual test: NaN > tol
    is False, so the test must reject non-finite values first."""
    def evaluate(z):
        return np.where(np.abs(z - 0.5) < 1e-9, np.nan, (z - 0.5) * (z + 0.3j))

    with pytest.raises(EvaluationError, match="located zero"):
        locate_zeros(AnalyticFn(evaluator=evaluate), 0j, 1.0)


# ---------------------------------------------------------------------------
# Jensen identity
# ---------------------------------------------------------------------------


def test_jensen_zero_free_function():
    fn = poly_fn(2.0)  # z - 2, rescaled below to keep f(0) = 1

    def norm(z):
        return fn(z) / fn(np.zeros(1))[0]

    lhs, rhs = jensen_check(AnalyticFn(evaluator=norm), 1.0)
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_jensen_single_zero_hand_value():
    # f(z) = 1 - z/a with |a| = 2: at radius 5 the identity gives ln(5/2)
    a = 2.0 * np.exp(0.3j)

    def evaluate(z):
        return 1.0 - np.asarray(z, dtype=complex) / a

    lhs, rhs = jensen_check(AnalyticFn(evaluator=evaluate), 5.0)
    assert rhs == pytest.approx(math.log(5.0 / 2.0), rel=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


def test_jensen_identity_on_products():
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(1, 7))
        roots = rng.uniform(0.3, 6.0, n) * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        roots = roots[np.abs(np.abs(roots) - 2.0) > 1e-2]
        if len(roots) == 0:
            continue
        model = EntireModel(genus=1, zeros=ZeroSet.from_points(roots))
        lhs, rhs = jensen_check(model.as_analytic_fn(), 2.0)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs)), f"trial {trial}"


def test_jensen_keeps_its_samples_when_it_doubles():
    """Each doubling evaluates only the new odd points, and lhs is bitwise the
    mean over a fresh circle of the final sample count."""
    roots = [1.9 + 0.5j, -1.2 - 1.5j, 0.4j]  # two zeros near |z| = 2 slow the average
    fn = poly_fn(*roots)
    batches = []

    def evaluate(z):
        batches.append(len(z))
        return fn(z)

    lhs, rhs = jensen_check(AnalyticFn(evaluator=evaluate), 2.0, zeros=[(w, 1) for w in roots])
    circle = batches[1:]  # batches[0] is f(0)
    n = sum(circle)
    assert circle == [256] + [256 * 2**k for k in range(len(circle) - 1)]
    assert n > 512
    theta = 2.0 * math.pi * np.arange(n) / n
    assert lhs == float(np.mean(np.log(np.abs(fn(2.0 * np.exp(1j * theta)))))) - math.log(abs(fn(0j)))
    assert lhs == pytest.approx(rhs, abs=1e-9)


# ---------------------------------------------------------------------------
# the count bound
# ---------------------------------------------------------------------------


def test_count_bound_check_pass_path():
    params = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=0.5, mu=1.0, r0=1.0)
    zs = ZeroSet.from_points([3.0, -4.0j, 5.0])
    model = EntireModel(genus=1, zeros=zs)
    report = count_bound_check(model.as_analytic_fn(), params, 6.0)
    assert report.verdict == PASS
    assert report.observed == 3
    assert report.bound == pytest.approx(params.count_rate() * 6.0)


def test_count_bound_check_precondition_path():
    # r below the activation radius: verdict must not be a hard pass/fail
    params = ClassParams(C0=200.0, C1=1.0, rho=1.0, sigma=0.01, mu=1.0, r0=1.0)
    zs = ZeroSet.from_points([0.5])
    model = EntireModel(genus=1, zeros=zs)
    report = count_bound_check(model.as_analytic_fn(), params, 2.0)
    unmet = [p for p in report.preconditions if not p.satisfied]
    assert unmet, "expected the activation-radius precondition to be unmet"
    assert report.verdict == PASS_UNMET
