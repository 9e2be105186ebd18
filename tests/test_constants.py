"""Exact-arithmetic and oracle tests for the constants layer.

The cofactor table and determinant must be exactly right (everything
downstream leans on them), so they are cross-checked against independent
implementations: exact rational elimination and permutation-expansion
determinants, adjugate identities in exact integers, and mpmath
recomputation of every derived radius.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import mpmath
import pytest

from zeroratio.constants import (
    MAX_GENUS,
    ClassParams,
    ParameterError,
    constant_Ap,
    constant_Ap_interval,
    constant_C2,
    constant_C3,
    derive_constants,
    final_exponent,
    select_p,
    threshold_c,
    threshold_r1,
    threshold_r2,
    vandermonde_cofactors,
)

TWO_E = 2.0 * math.e


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def permutation_determinant(matrix):
    """Exact determinant by signed permutation expansion (small n only)."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        # parity via cycle decomposition
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = 1
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += sign * term
    return total


def elimination_determinant(matrix):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for j in range(col, n):
                m[r][j] -= factor * m[col][j]
    assert det.denominator == 1
    return det.numerator


def minor_determinant(matrix, drop_row, drop_col):
    sub = [
        [matrix[i][j] for j in range(len(matrix)) if j != drop_col]
        for i in range(len(matrix))
        if i != drop_row
    ]
    return permutation_determinant(sub) if sub else 1


# ---------------------------------------------------------------------------
# determinant and cofactors
# ---------------------------------------------------------------------------


def test_determinant_matches_exact_elimination_up_to_max_genus():
    # the source writes det in closed form; this elimination is the check
    for p in range(1, MAX_GENUS + 1):
        n = p + 1
        matrix = [[k ** j for j in range(n)] for k in range(1, n + 1)]
        assert vandermonde_cofactors(p).det == elimination_determinant(matrix)


def test_cofactor_tables_are_built_once_per_genus():
    tables = [vandermonde_cofactors(p) for p in range(1, MAX_GENUS + 1)]
    assert all(vandermonde_cofactors(p) is t for p, t in enumerate(tables, start=1))


def test_cofactor_table_rejects_non_integer_genus_after_caching():
    # True and 1.0 compare equal to 1: a cached genus 1 must not answer for them
    vandermonde_cofactors(1)
    for genus in (True, 1.0, 0, MAX_GENUS + 1):
        with pytest.raises(ParameterError):
            vandermonde_cofactors(genus)


def test_determinant_matches_permutation_expansion():
    # permutation expansion is O(n!), keep it to 6x6
    for p in range(1, 6):
        n = p + 1
        matrix = [[k ** j for j in range(n)] for k in range(1, n + 1)]
        assert vandermonde_cofactors(p).det == permutation_determinant(matrix)


def test_cofactors_match_minor_expansion():
    for p in range(1, 5):
        n = p + 1
        matrix = [[k ** j for j in range(n)] for k in range(1, n + 1)]
        table = vandermonde_cofactors(p)
        for k in range(n):
            for j in range(n):
                expected = (-1) ** (k + j) * minor_determinant(matrix, k, j)
                assert table.cofactors[k][j] == expected


def test_adjugate_identity_exact():
    """V times the transposed cofactor matrix equals det * identity."""
    for p in range(1, 8):
        n = p + 1
        matrix = [[k ** j for j in range(n)] for k in range(1, n + 1)]
        table = vandermonde_cofactors(p)
        for i in range(n):
            for j in range(n):
                acc = sum(matrix[i][m] * table.cofactors[j][m] for m in range(n))
                assert acc == (table.det if i == j else 0)


def test_first_column_cofactors_are_binomials():
    for p in range(1, 11):
        table = vandermonde_cofactors(p)
        n = p + 1
        for k in range(1, n + 1):
            ratio = Fraction(abs(table.cofactors[k - 1][0]), table.det)
            assert ratio == math.comb(n, k)


def test_cofactor_laplace_expansion_along_each_column():
    # expanding det along any column through the cofactors reproduces det
    for p in range(1, 9):
        n = p + 1
        table = vandermonde_cofactors(p)
        for j in range(n):
            acc = sum((k + 1) ** j * table.cofactors[k][j] for k in range(n))
            assert acc == table.det


# ---------------------------------------------------------------------------
# the amplification constant
# ---------------------------------------------------------------------------


def test_Ap_spot_value_p1_mu1():
    # 2x2 system on nodes 1, 2: cofactor columns sum to 3 and 2,
    # so A_1(1) = 3/1 + 2/2 = 4
    assert constant_Ap(1, 1.0) == pytest.approx(4.0, abs=0.0)


def test_Ap_exceeds_binomial_floor_exact():
    start = time.time()
    for p in range(1, 11):
        floor = 2 ** (p + 1) - 1
        for mu in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            lo, hi = constant_Ap_interval(p, mu)
            assert lo > floor, f"p={p} mu={mu}: lower enclosure {lo} <= {floor}"
            assert hi >= lo
    assert time.time() - start < 10.0


def test_Ap_interval_brackets_float_value():
    for p in (1, 2, 3, 5, 8):
        for mu in (Fraction(1, 2), Fraction(3), Fraction(7, 4)):
            lo, hi = constant_Ap_interval(p, mu)
            mid = constant_Ap(p, float(mu))
            assert float(lo) <= mid * (1 + 1e-12)
            assert mid * (1 - 1e-12) <= float(hi)
            assert float(hi - lo) <= 1e-18 * float(hi)


def test_Ap_large_mu_approaches_binomial_floor():
    # the column weight j^(-mu) kills every column but the first
    for p in (1, 3, 6):
        floor = 2 ** (p + 1) - 1
        value = constant_Ap(p, 60.0)
        assert abs(value - floor) <= 1e-9 * floor


def test_Ap_decreasing_in_mu():
    for p in (1, 2, 4):
        values = [constant_Ap(p, mu) for mu in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        for a, b in zip(values, values[1:]):
            assert b < a


def test_Ap_against_mpmath_recomputation():
    mpmath.mp.dps = 40
    for p in (1, 2, 3, 5, 10):
        table = vandermonde_cofactors(p)
        n = p + 1
        acc = mpmath.mpf(0)
        for j in range(n):
            col = sum(abs(table.cofactors[k][j]) for k in range(n))
            acc += mpmath.mpf(col) / table.det * mpmath.power(j + 1, -2.5)
        mine = constant_Ap(p, 2.5)
        assert abs(mine - float(acc)) <= 1e-13 * float(acc)


def test_column_weighting_dominates_row_weighting():
    """The disk constant uses column-index weights; the per-coefficient
    Cramer weights attach to row indices.  The column form is the larger,
    which is the direction the disk bound needs."""
    for p in range(1, 21):
        table = vandermonde_cofactors(p)
        for mu in (0.5, 1.0, 2.0, 5.0):
            a_col = constant_Ap(p, mu)
            a_row = sum(
                table.row_weighted_column_sum(j, mu) for j in range(1, p + 2)
            )
            assert a_col >= a_row * (1 - 1e-12), (p, mu, a_col, a_row)


def test_row_weighted_column_sum_spot_values():
    # p=1 cofactors: [[2, -1], [-1, 1]], det 1
    table = vandermonde_cofactors(1)
    assert table.row_weighted_column_sum(1, 1.0) == pytest.approx(2.0 + 0.5)
    assert table.row_weighted_column_sum(2, 1.0) == pytest.approx(1.0 + 0.5)
    with pytest.raises(ParameterError):
        table.row_weighted_column_sum(3, 1.0)


# ---------------------------------------------------------------------------
# genus selection
# ---------------------------------------------------------------------------


def test_select_p_golden_example():
    assert select_p(1.0, 1.0, 2.0 / 3.0) == 2


def test_select_p_bracketing_invariant():
    for rho in (0.5, 1.0, 1.7, 2.0, 3.3):
        for mu in (0.5, 1.0, 2.0, 5.0):
            for delta in (0.3, 0.5, 2.0 / 3.0, 0.9):
                if (mu + rho) / delta > 20:
                    continue  # genus cap, rejected by design
                p = select_p(rho, mu, delta)
                assert delta * (p + 1) >= (mu + rho) * (1 - 1e-9)
                assert p >= max(math.floor(rho), 1)
                # minimality unless the floor constraints bind
                if p > max(math.floor(rho), 1):
                    assert delta * p < mu + rho + 1e-9


def test_select_p_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        select_p(1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        select_p(-1.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        select_p(1.0, 200.0, 0.01)


# ---------------------------------------------------------------------------
# threshold radii against an mpmath oracle
# ---------------------------------------------------------------------------

PARAM_SETS = [
    ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=1.0, mu=1.0, r0=1.0),
    ClassParams(C0=0.5, C1=1.0e-3, rho=1.0, sigma=2.2e-3, mu=2.0, r0=1.0),
    ClassParams(C0=3.0, C1=0.4, rho=1.5, sigma=0.2, mu=0.5, r0=2.0),
]


def mp_thresholds(params, delta, p):
    """Recompute every radius from scratch with 40-digit arithmetic."""
    mpmath.mp.dps = 40
    C0, C1 = mpmath.mpf(params.C0), mpmath.mpf(params.C1)
    sigma, rho, mu = mpmath.mpf(params.sigma), mpmath.mpf(params.rho), mpmath.mpf(params.mu)
    two_e = 2 * mpmath.e
    c = max(mpmath.mpf(params.r0), (2 * C1) ** (1 / mu))
    ln2c0 = mpmath.log(2 * C0)
    r1 = c
    if ln2c0 > 0:
        r1 = max(c, (ln2c0 / sigma) ** (1 / rho) / two_e)
    a = mpmath.mpf(p + 1)
    C2 = 2 * sigma * (p + 1) * two_e**rho / (p + 1 - rho)
    guard = (a * (p + 1) / p) ** (1 / mpmath.mpf(delta))
    small = (C2 * a ** (p + 1) / mpmath.log(2)) ** (1 / mu)
    r2 = max(r1, guard, small)
    table = vandermonde_cofactors(p)
    ap = mpmath.mpf(0)
    for j in range(p + 1):
        col = sum(abs(table.cofactors[k][j]) for k in range(p + 1))
        ap += mpmath.mpf(col) / table.det * mpmath.power(j + 1, -mu)
    r3 = max(r2, (6 * C2 * a ** (p + 1)) ** (1 / mu))
    r4 = (36 * C1 * ap) ** (1 / (mu * (1 - mpmath.mpf(delta))))
    r5 = (2 * a ** (p + 1) * C2 / C1) ** (1 / (mu * mpmath.mpf(delta)))
    return c, r1, C2, r2, r3, r4, r5


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("delta", [0.5, 2.0 / 3.0, 0.9])
def test_threshold_chain_matches_mpmath(params, delta):
    p = select_p(params.rho, params.mu, delta)
    c_mp, r1_mp, C2_mp, r2_mp, r3_mp, r4_mp, r5_mp = mp_thresholds(params, delta, p)
    assert threshold_c(params) == pytest.approx(float(c_mp), rel=1e-12)
    assert threshold_r1(params) == pytest.approx(float(r1_mp), rel=1e-12)
    assert constant_C2(p, params.sigma, params.rho) == pytest.approx(float(C2_mp), rel=1e-12)
    a = float(p + 1)
    assert threshold_r2(a, p, delta, params) == pytest.approx(float(r2_mp), rel=1e-12)
    main = derive_constants(params, delta, p_override=p).main
    r3, r4, r5 = main.r3, main.r4, main.r5
    assert r3 == pytest.approx(float(r3_mp), rel=1e-12)
    assert r4 == pytest.approx(float(r4_mp), rel=1e-12)
    assert r5 == pytest.approx(float(r5_mp), rel=1e-12)


def test_activation_radius_matches_mpmath():
    """R0 through the halved-budget stage, recomputed independently."""
    mpmath.mp.dps = 40
    params = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=1.0, mu=1.0, r0=1.0)
    delta, eps = 2.0 / 3.0, 0.1
    p_main = select_p(params.rho, params.mu, delta)
    delta1 = delta / 2.0
    p_inner = select_p(params.rho, params.mu, delta1)
    *_, r3m, r4m, r5m = mp_thresholds(params, delta, p_main)
    _, r1m, _, r2m, *_ = mp_thresholds(params, delta, p_main)
    main_max = max(r1m, r2m, r3m, r4m, r5m)
    _, r1i, _, r2i, r3i, r4i, r5i = mp_thresholds(params, delta1, p_inner)
    inner_max = max(r1i, r2i, r3i, r4i, r5i)
    table = vandermonde_cofactors(p_inner)
    ap_inner = mpmath.mpf(0)
    for j in range(p_inner + 1):
        col = sum(abs(table.cofactors[k][j]) for k in range(p_inner + 1))
        ap_inner += mpmath.mpf(col) / table.det * mpmath.power(j + 1, -params.mu)
    reduced = 20 * ap_inner * params.C1
    eps_radius = (reduced / eps) ** (1 / (params.mu * (delta - delta1)))
    rprime_mp = max(inner_max, eps_radius)
    r0_mp = max(main_max, rprime_mp)

    d = derive_constants(params, delta, eps=eps)
    assert d.Rprime == pytest.approx(float(rprime_mp), rel=1e-12)
    assert d.R0 == pytest.approx(float(r0_mp), rel=1e-12)
    assert d.eps_radius == pytest.approx(float(eps_radius), rel=1e-12)
    assert d.inner.p == p_inner
    assert d.main.p == p_main


# ---------------------------------------------------------------------------
# assembled constants
# ---------------------------------------------------------------------------


def test_derive_constants_golden_run():
    params = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=1.0, mu=1.0, r0=1.0)
    d = derive_constants(params, 0.6667, eps=0.1)
    assert d.main.p == 2
    assert d.main.c == pytest.approx(2.0)
    assert d.main.r1 == pytest.approx(2.0)
    assert d.main.W == 2
    payload = d.to_json_dict()
    assert payload["p"] == "2"
    assert payload["c"] == "2"
    assert payload["r1"] == "2"
    # every numeric field is a decimal string that parses back
    for key in ("a", "r2", "r3", "r4", "r5", "C2", "C3", "Ap", "Rprime", "R0", "exponent"):
        float(payload[key])
    json.dumps(payload)


def test_final_exponent_symbolic():
    exact = final_exponent(Fraction(1), Fraction(2, 3))
    assert isinstance(exact, Fraction)
    assert exact == Fraction(1, 3)
    assert final_exponent(2.0, 0.5) == pytest.approx(1.0)


def test_ratio_and_eps_bounds_shapes():
    params = ClassParams(C0=0.5, C1=1.0e-3, rho=1.0, sigma=2.2e-3, mu=2.0, r0=1.0)
    d = derive_constants(params, 0.9)
    R = 300.0
    expected = 20.0 * d.main.Ap * params.C1 / R ** (params.mu * (1 - 0.9))
    assert d.ratio_bound(R) == pytest.approx(expected, rel=1e-14)
    assert d.eps_bound(R) == pytest.approx(1.0 / R ** (params.mu * 0.1), rel=1e-14)


def test_overflow_produces_warning_not_crash():
    params = ClassParams(C0=2.0, C1=50.0, rho=1.0, sigma=1.0, mu=0.5, r0=1.0)
    d = derive_constants(params, 0.99)
    assert math.isinf(d.main.r4)
    assert any("r4" in w and "range" in w for w in d.warnings)


def test_every_threshold_power_overflows_to_inf():
    # each of these raised OverflowError before the powers were guarded
    ray = ClassParams(C0=2.0, C1=1e300, rho=1.0, sigma=1e-300, mu=1e-3)
    assert math.isinf(threshold_c(ray))
    jensen = ClassParams(C0=1e300, C1=1.0, rho=0.01, sigma=1e-300, mu=1.0)
    assert math.isinf(threshold_r1(jensen))
    params = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=1.0, mu=1.0)
    assert math.isinf(threshold_r2(1e100, 3, 0.5, params))  # smallness term
    assert math.isinf(threshold_r2(1e5, 3, 0.01, params))  # guard term
    slow = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=1.0, mu=1e-3)
    main = derive_constants(slow, 0.5, p_override=2).main
    assert all(math.isinf(r) for r in (main.r3, main.r4, main.r5))
    d = derive_constants(slow, 0.5)
    assert math.isinf(d.eps_radius) and math.isinf(d.R0)
    # main stage, then inner stage, then the eps-radius; c and r1 stay finite
    per_stage = [f"{name}: threshold exceeds representable range" for name in ("r2", "r3", "r4", "r5")]
    assert d.warnings == tuple(per_stage + per_stage + ["eps-radius: threshold exceeds representable range"])


def test_p_override_respected():
    params = ClassParams(C0=2.0, C1=1.0, rho=1.0, sigma=1.0, mu=1.0, r0=1.0)
    d = derive_constants(params, 2.0 / 3.0, p_override=5)
    assert d.main.p == 5
    with pytest.raises(ParameterError):
        derive_constants(params, 2.0 / 3.0, p_override=0)


def test_constant_C3_consistency():
    for p in (1, 2, 4):
        c2 = constant_C2(p, 0.3, 1.0)
        assert constant_C3(p, 0.3, 1.0) == pytest.approx(2.0 * c2 * (p + 1) ** (p + 1))
