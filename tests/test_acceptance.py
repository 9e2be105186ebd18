"""Acceptance suite: eleven criteria, one pass/fail line each.

Every test records exactly one summary line of the form

    ACCEPTANCE nn: PASS (elapsed, detail)

and a session fixture echoes the collected lines through the terminal
reporter after the run, so the checklist survives output capture and shows
up in a plain pytest -v log.  The criteria cover exact linear algebra, the
amplification constant, primary factor inequalities, zero counting, the
count bound, both lemmas, the decomposition identity, the end-to-end theorem
in the engineered regime, the symbolic final exponent, and the decay-boost
transform.
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from zeroratio.constants import (
    ClassParams,
    constant_Ap,
    constant_Ap_interval,
    final_exponent,
    vandermonde_cofactors,
)
from zeroratio.factors import (
    ZeroSet,
    guard_radius,
    log_primary_factor_grid,
)
from zeroratio.grids import DiskGrid
from zeroratio.jost import (
    JostFn,
    Kernel,
    boost_ray_decay,
    growth_fit,
    ray_decay_fit,
)
from zeroratio.models import (
    EntireModel,
    build_pair,
    compliant_tail_zeros,
    engineered_pair,
)
from zeroratio.verifier import (
    check_decomposition,
    check_lemma2,
    check_lemma3,
    check_theorem,
)
from zeroratio.zeros import count_zeros, jensen_check

from helpers import count_bound_check, primary_factor_grid, random_pair


_LINES: list[str] = []


def announce(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    _LINES.append(line)


@pytest.fixture(scope="session", autouse=True)
def _checklist(request):
    """Echo the collected criterion lines past pytest's output capture."""
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None or request.config.getoption("capture", "fd") == "no":
        return
    reporter.write_line("")
    for line in _LINES:
        reporter.write_line(line)


# ---------------------------------------------------------------------------
# 1: exact Vandermonde arithmetic
# ---------------------------------------------------------------------------


def _exact_determinant(matrix):
    """Determinant by Gaussian elimination over the rationals, independent of
    the closed form 1!*2!*...*p! that the source uses."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next(r for r in range(col, len(m)) if m[r][col] != 0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def test_acceptance_01_vandermonde_exactness():
    start = time.perf_counter()
    ok = True
    for p in range(1, 11):
        table = vandermonde_cofactors(p)
        nodes = range(1, p + 2)
        ok &= table.det == _exact_determinant([[k**j for j in range(p + 1)] for k in nodes])
        for k in range(1, p + 2):
            ratio = Fraction(abs(table.cofactors[k - 1][0]), table.det)
            ok &= ratio == math.comb(p + 1, k)
    elapsed = time.perf_counter() - start
    announce(1, ok and elapsed < 1.0, f"{elapsed:.3f}s, p = 1..10 exact")
    assert ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2: the amplification constant dominates 2^(p+1) - 1
# ---------------------------------------------------------------------------


def test_acceptance_02_amplification_constant_lower_bound():
    ok = True
    for p in range(1, 11):
        for mu in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            lo, hi = constant_Ap_interval(p, mu)
            ok &= lo > 2 ** (p + 1) - 1
            ok &= lo <= hi
    spot = constant_Ap(1, 1.0)
    ok &= abs(spot - 4.0) <= 1e-12
    announce(2, ok, f"p = 1..10, four mu values, A_1(1) = {spot}")
    assert ok


# ---------------------------------------------------------------------------
# 3: primary-factor log bound and route agreement
# ---------------------------------------------------------------------------


def test_acceptance_03_primary_factor_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    violations = 0
    worst_rel = 0.0
    for p in (1, 2, 3, 5):
        cap = guard_radius(p)
        radii = cap * np.sqrt(rng.uniform(0.0, 1.0, 2500))
        angles = rng.uniform(0.0, 2.0 * math.pi, 2500)
        xi = radii * np.exp(1j * angles)
        logs = log_primary_factor_grid(xi, p)
        violations += int(np.sum(np.abs(logs) > np.abs(xi) ** (p + 1) * (1 + 1e-13)))
        closed = primary_factor_grid(xi, 1.0, p)
        rel = np.abs(np.exp(logs) - closed) / np.maximum(np.abs(closed), 1e-300)
        worst_rel = max(worst_rel, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst_rel <= 1e-12 and elapsed < 5.0
    announce(3, ok, f"{elapsed:.2f}s, 10^4 draws, worst route gap {worst_rel:.2e}")
    assert violations == 0
    assert worst_rel <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4: argument-principle counting and the circle-average identity
# ---------------------------------------------------------------------------


def test_acceptance_04_zero_counting_and_jensen():
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    count_failures = 0
    jensen_failures = 0
    for _trial in range(200):
        n = int(rng.integers(1, 46))
        radii = rng.uniform(0.1, 0.85, n)
        locs = radii * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        mults = np.ones(n, dtype=int)
        if n < 50:
            mults[int(rng.integers(0, n))] = 2
        zeros = ZeroSet.from_points(locs, mults)
        model = EntireModel(genus=1, zeros=zeros)
        fn = model.as_analytic_fn()
        truth = int(zeros.total_multiplicity)
        result = count_zeros(fn, radius=1.0)
        if result.count != truth:
            count_failures += 1
        lhs, rhs = jensen_check(fn, 1.0, zeros=zeros)
        if abs(lhs - rhs) > 1e-8 * (1.0 + abs(lhs)):
            jensen_failures += 1
    elapsed = time.perf_counter() - start
    ok = count_failures == 0 and jensen_failures == 0 and elapsed < 60.0
    announce(4, ok, f"{elapsed:.1f}s, 200 products, failures {count_failures}+{jensen_failures}")
    assert count_failures == 0
    assert jensen_failures == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5: the zero-count bound with measured growth parameters
# ---------------------------------------------------------------------------


def test_acceptance_05_count_bound_for_unit_kernel():
    jost = JostFn(Kernel.constant(1.0, 1.0))
    fn = jost.as_analytic_fn()
    growth = growth_fit(fn)
    decay = ray_decay_fit(fn)
    params = ClassParams(
        C0=growth.C0, C1=decay.C1, rho=growth.rho,
        sigma=growth.sigma, mu=decay.mu, r0=1.0,
    )
    ok = True
    counts = []
    for r in (10.0, 20.0, 50.0):
        report = count_bound_check(fn, params, r)
        ok &= report.verdict == "pass"
        ok &= report.preconditions_met
        counts.append(int(report.observed))
    announce(5, ok, f"counts {counts} at r = 10, 20, 50 under measured rate")
    assert ok


# ---------------------------------------------------------------------------
# 6: tail-product smallness over a compliant corpus
# ---------------------------------------------------------------------------


def test_acceptance_06_tail_product_corpus():
    start = time.perf_counter()
    rng = np.random.default_rng(161803)
    grid = DiskGrid(rings=12, spokes=32)
    margins = []
    violations = 0
    for i in range(200):
        sigma = float(rng.uniform(0.01, 0.05))
        params = ClassParams(C0=0.5, C1=0.5, rho=1.0, sigma=sigma, mu=1.0, r0=1.0)
        zeros = compliant_tail_zeros(i, params, R=400.0, span=2.0)
        report = check_lemma2(zeros, R=400.0, a=3.0, p=2, delta=2.0 / 3.0,
                              params=params, grid=grid)
        if report.verdict != "pass" or not report.preconditions_met:
            violations += 1
        margins.append(report.margin)
    elapsed = time.perf_counter() - start
    median_margin = statistics.median(margins)
    ok = violations == 0 and elapsed < 120.0
    announce(6, ok, f"{elapsed:.1f}s, 200 sets, median margin {median_margin:.3g}")
    assert violations == 0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 7: segment-to-disk amplification over a polynomial corpus
# ---------------------------------------------------------------------------


def test_acceptance_07_amplification_corpus():
    start = time.perf_counter()
    rng = np.random.default_rng(662607)
    grid = DiskGrid(rings=12, spokes=32)
    r = 2.0
    ap_cache = {}
    violations = 0
    for i in range(1000):
        p = (1, 2, 3)[i % 3]
        mu = (0.5, 1.0, 2.0)[(i // 3) % 3]
        if (p, mu) not in ap_cache:
            ap_cache[(p, mu)] = constant_Ap(p, mu)
        ap = ap_cache[(p, mu)]
        shape = np.array([
            (rng.normal() + 1j * rng.normal()) * r ** (-j) for j in range(p + 1)
        ])
        ts = np.linspace(r, (p + 1) * r, 257)
        proxy = float(np.max(np.abs(np.polyval(shape[::-1], ts)) * (ts / r) ** mu))
        target = 0.25 / ap * 10.0 ** rng.uniform(-3.0, -0.7)
        coeffs = tuple(shape * (target / proxy))
        report = check_lemma3(coeffs, r, mu, grid=grid, segment_samples=256)
        bad = (
            report.verdict != "pass"
            or not report.preconditions_met
            or not report.details["cramer_ok"]
        )
        violations += int(bad)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    announce(7, ok, f"{elapsed:.1f}s, 1000 polynomials, violations {violations}")
    assert violations == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8: the decomposition identity on random pairs
# ---------------------------------------------------------------------------


def test_acceptance_08_decomposition_discrepancy():
    start = time.perf_counter()
    grid = DiskGrid(rings=21, spokes=48)
    worst = 0.0
    ok = True
    for seed in range(100, 150):
        build = build_pair(random_pair(seed))
        report = check_decomposition(build, grid=grid)
        ok &= report.samples >= 1000
        ok &= report.observed < 1e-10
        worst = max(worst, report.observed)
    elapsed = time.perf_counter() - start
    announce(8, ok, f"{elapsed:.1f}s, 50 pairs, worst discrepancy {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 9: the end-to-end ratio bound in the engineered regime
# ---------------------------------------------------------------------------


def test_acceptance_09_theorem_engineered_regime():
    start = time.perf_counter()
    grid = DiskGrid(rings=48, spokes=160)
    violations = 0
    worst_shift = 0.0
    for seed in range(20):
        build = engineered_pair(seed)
        constant_form = check_theorem(build, grid=grid)[0]
        if constant_form.verdict != "pass" or not constant_form.preconditions_met:
            violations += 1
        base = constant_form.details["sup_base"]
        fine = constant_form.details["sup_refined"]
        shift = abs(base - fine) / max(fine, 1e-300)
        worst_shift = max(worst_shift, shift)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst_shift < 0.01 and elapsed < 600.0
    announce(9, ok, f"{elapsed:.1f}s, 20 pairs, refinement shift {worst_shift:.2e}")
    assert violations == 0
    assert worst_shift < 0.01
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 10: the symbolic final exponent
# ---------------------------------------------------------------------------


def test_acceptance_10_final_exponent_symbolic():
    value = final_exponent(Fraction(1), Fraction(2, 3))
    ok = value == Fraction(1, 3)
    announce(10, ok, f"mu(1 - delta) = {value} exactly")
    assert ok


# ---------------------------------------------------------------------------
# 11: decay restored by the boost transform
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


def test_acceptance_11_boost_decay_exponent():
    kernel = exp_kernel()
    assert kernel.value_at_zero() == pytest.approx(1.0)
    boosted = boost_ray_decay(JostFn(kernel))
    fit = ray_decay_fit(boosted, r_min=2.0, r_max=200.0)
    ok = (not fit.degenerate) and fit.mu >= 2.0 - 0.1
    announce(11, ok, f"fitted decay exponent {fit.mu:.3f} >= 1.9")
    assert ok
