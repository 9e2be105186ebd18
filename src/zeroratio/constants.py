"""Explicit constants for the zero-matching stability bound.

Everything in this module is a closed-form function of the class parameters

    C0, C1, rho, sigma, mu, r0

describing entire functions psi with |psi(z)| <= C0*exp(sigma*|z|^rho) outside
radius r0 and |psi(z) - 1| <= C1/|z|^mu along some ray, plus the proximity
budget delta in (0, 1).  No numerics beyond ordinary floating point enter
here except for the Vandermonde cofactor table on the nodes 1..p+1.  That
table is exact integer data, built once per genus: its determinant is the
closed form 1!*2!*...*p! (the tests check it against an exact elimination),
its cofactors come from Lagrange interpolation with exact divisions, and it
is weighted in floating point only at the very end.

The derived objects are:

  * the genus p of the canonical products,
  * the radii c, r1 .. r5 past which the individual estimates activate,
  * the tail-sum constant C2 and the ratio-tail constant C3,
  * the Cramer amplification constant A_p with its exact Vandermonde data,
  * the final activation radius R0(eps, delta) with its two-stage reduction.

A threshold power that overflows double precision is +inf rather than an
OverflowError, and DerivedConstants.warnings names every threshold that is
+inf, so that a caller can still see which constant went out of range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

TWO_E = 2.0 * math.e

# Cofactor tables grow factorially; beyond this genus the exact table is still
# correct but slow and every threshold overflows double precision anyway.
MAX_GENUS = 20

OVERFLOW_WARNING = "threshold exceeds representable range"


class ParameterError(ValueError):
    """Raised when class parameters or derived-constant inputs are invalid."""


class GenusError(ValueError):
    """Raised when a genus is incompatible with the growth order (p + 1 <= rho)."""


# ---------------------------------------------------------------------------
# class parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassParams:
    """Parameters of the admissible class of entire functions.

    C0, sigma, rho bound the global growth |psi(z)| <= C0*exp(sigma*|z|^rho)
    for |z| >= r0; C1, mu bound the approach to 1 along a reference ray,
    |psi(z) - 1| <= C1*|z|^(-mu) for |z| >= r0 on that ray.  r0 >= 1 is the
    common activation radius of both bounds.
    """

    C0: float
    C1: float
    rho: float
    sigma: float
    mu: float
    r0: float = 1.0

    def __post_init__(self):
        for name in ("C0", "C1", "rho", "sigma", "mu", "r0"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError(f"{name} must be a finite positive number, got {value!r}")
        if self.r0 < 1.0:
            raise ParameterError(f"r0 must be at least 1, got {self.r0!r}")

    def count_rate(self) -> float:
        """Coefficient of r^rho in the zero-count bound n(r) <= 2*sigma*(2e)^rho*r^rho."""
        return 2.0 * self.sigma * TWO_E**self.rho


def _check_delta(delta: float) -> None:
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must lie strictly between 0 and 1, got {delta!r}")


# ---------------------------------------------------------------------------
# genus selection and the small radii
# ---------------------------------------------------------------------------

# Relative slack used when the bracketing quotient lands a hair above an
# integer through float round-off.
_BRACKET_TOL = 1e-9


def select_p(rho: float, mu: float, delta: float) -> int:
    """Smallest genus p making the tail exponent beat the ray decay.

    p + 1 is the least integer with (mu + rho)/delta <= p + 1, which gives
    delta*(p + 1) - rho >= mu.  The result is then raised to floor(rho) if
    needed (so the canonical product converges) and to 1 (so the Cramer
    machinery has at least a 2x2 system).
    """
    if rho <= 0 or mu <= 0:
        raise ParameterError("rho and mu must be positive")
    _check_delta(delta)
    quotient = (mu + rho) / delta
    p_plus_1 = math.ceil(quotient - _BRACKET_TOL * max(1.0, quotient))
    # keep the guarantee delta*(p+1) >= mu + rho despite the slack above
    if delta * p_plus_1 < (mu + rho) * (1.0 - _BRACKET_TOL):
        p_plus_1 += 1
    p = p_plus_1 - 1
    p = max(p, math.floor(rho), 1)
    if p > MAX_GENUS:
        raise ParameterError(
            f"required genus {p} exceeds the supported maximum {MAX_GENUS}; "
            "lower mu + rho or raise delta"
        )
    return p


def _pow(base: float, exponent: float) -> float:
    """base**exponent, or +inf where that overflows double precision."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def threshold_c(params: ClassParams) -> float:
    """Radius past which the ray bound forces |psi| >= 1/2 on the ray."""
    return max(params.r0, _pow(2.0 * params.C1, 1.0 / params.mu))


def threshold_r1(params: ClassParams) -> float:
    """Radius past which the zero-count bound n(r) <= 2*sigma*(2e)^rho*r^rho holds.

    Three requirements: r0 itself, the ray radius of threshold_c, and the
    Jensen comparison radius (1/(2e)) * (ln(2*C0)/sigma)^(1/rho).  For
    C0 <= 1/2 the last requirement is vacuous.
    """
    ln2c0 = math.log(2.0 * params.C0)
    jensen_radius = 0.0
    if ln2c0 > 0.0:
        jensen_radius = _pow(ln2c0 / params.sigma, 1.0 / params.rho) / TWO_E
    return max(threshold_c(params), jensen_radius)


def constant_C2(p: int, sigma: float, rho: float) -> float:
    """Tail power-sum constant: sum over |z_n| >= R of |z_n|^-(p+1) <= C2*R^(rho-p-1).

    C2 = 2*sigma*(p+1)*(2e)^rho / (p+1-rho).  Requires p + 1 > rho, otherwise
    the defining integral diverges.
    """
    _check_genus(p)
    if p + 1 <= rho:
        raise GenusError(f"genus {p} too small for growth order rho={rho} (need p+1 > rho)")
    return 2.0 * sigma * (p + 1) * TWO_E**rho / (p + 1 - rho)


def constant_C3(p: int, sigma: float, rho: float) -> float:
    """Ratio-tail constant C3 = 2*C2*(p+1)^(p+1)."""
    return 2.0 * constant_C2(p, sigma, rho) * float(p + 1) ** (p + 1)


def threshold_r2(a: float, p: int, delta: float, params: ClassParams) -> float:
    """Activation radius of the tail-product bound on the disk of radius a*R^(1-delta).

    Three requirements: r1; the guard radius (a*(p+1)/p)^(1/delta) keeping
    every ratio z/z_n inside the primary-factor log domain; and
    (C2*a^(p+1)/ln 2)^(1/mu) keeping the summed log below ln 2.
    """
    if not 0 < a < math.inf:  # NaN included
        raise ParameterError(f"a must be positive and finite, got {a!r}")
    _check_delta(delta)
    c2 = constant_C2(p, params.sigma, params.rho)
    guard = _pow(a * (p + 1) / p, 1.0 / delta)
    smallness = _pow(c2 * _pow(a, p + 1) / math.log(2.0), 1.0 / params.mu)
    return max(threshold_r1(params), guard, smallness)


def _check_genus(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool):
        raise ParameterError(f"genus must be an integer, got {p!r}")
    if p < 1 or p > MAX_GENUS:
        raise ParameterError(f"genus must lie in 1..{MAX_GENUS}, got {p}")


# ---------------------------------------------------------------------------
# exact Vandermonde data and the amplification constant A_p
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CofactorTable:
    """Exact cofactor table of the Vandermonde matrix on nodes 1..p+1.

    Entry (k, j) of the matrix is k^(j-1) (row index k = 1..p+1, column index
    j = 1..p+1).  `det` is the determinant, the closed form 1!*2!*...*p!
    (the tests check it against an exact elimination).  `cofactors[k-1][j-1]`
    is the signed cofactor of entry (k, j); all values are exact Python
    integers.  vandermonde_cofactors builds one table per genus and shares it.
    """

    p: int
    det: int
    cofactors: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return self.p + 1

    def column_abs_sums(self) -> list[int]:
        """Exact sums over rows of |cofactor(k, j)|, one per column j."""
        n = self.size
        return [sum(abs(self.cofactors[k][j]) for k in range(n)) for j in range(n)]

    def row_weighted_column_sum(self, j: int, mu: float) -> float:
        """(1/det) * sum over rows k of |cofactor(k, j)| * k^(-mu).

        This is the per-coefficient Cramer weight: the coefficient recovered
        from column j of the Vandermonde system inherits this amplification
        when the data at node k carries a k^(-mu) envelope.  1-based j.
        """
        n = self.size
        if not 1 <= j <= n:
            raise ParameterError(f"column index must lie in 1..{n}")
        return math.fsum(abs(self.cofactors[k][j - 1]) / self.det * float(k + 1) ** (-mu)
                         for k in range(n))


def vandermonde_cofactors(p: int) -> CofactorTable:
    """Exact cofactor table for the nodes 1, 2, ..., p+1, built once per genus.

    The genus is checked on every call, before the cache is consulted.  The
    determinant is the closed form 1!*2!*...*p!; the tests check it against
    an exact elimination for every genus up to MAX_GENUS.
    Cofactors come from Lagrange interpolation: the inverse matrix columns
    are the coefficient vectors of the Lagrange basis polynomials, and
    scaling by the determinant gives the adjugate, whose transpose entries
    are the cofactors.  Every division is checked to be exact.
    """
    _check_genus(p)
    return _cofactor_table(p)


@functools.cache
def _cofactor_table(p: int) -> CofactorTable:
    nodes = range(1, p + 2)
    det = math.prod(math.factorial(k) for k in range(1, p + 1))
    rows = []
    for k in nodes:
        # numerator polynomial of the Lagrange basis at node k: prod over m != k of (x - m)
        coeffs = [1]
        for m in nodes:
            if m != k:
                coeffs = [shifted - m * c for shifted, c in zip([0] + coeffs, coeffs + [0])]
        denom = math.prod(k - m for m in nodes if m != k)
        quotients = [divmod(det * c, denom) for c in coeffs]
        if any(remainder for _, remainder in quotients):
            raise ArithmeticError("cofactor division was not exact")
        rows.append(tuple(quotient for quotient, _ in quotients))
    return CofactorTable(p=p, det=det, cofactors=tuple(rows))


def constant_Ap(p: int, mu: float) -> float:
    """Cramer amplification constant A_p for ray-decay exponent mu.

    A_p = (1/W) * sum over rows k and columns j of |cofactor(k, j)| * j^(-mu),
    with W = 1!*2!*...*p! the Vandermonde determinant, read from the one
    cofactor table of genus p.  The weight j^(-mu) attaches to the
    cofactor's column index; summing the first column alone already gives
    2^(p+1) - 1 exactly, so A_p always exceeds that floor.  The integer parts
    are exact; floating point enters only through the j^(-mu) weights and the
    compensated final sum.
    """
    if mu <= 0:
        raise ParameterError("mu must be positive")
    table = vandermonde_cofactors(p)
    return math.fsum(n / table.det * float(j + 1) ** (-mu)
                     for j, n in enumerate(table.column_abs_sums()))


def _int_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for nonnegative integer n, exact integer arithmetic."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def _rational_neg_power_interval(k: int, mu: Fraction, bits: int = 96) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of k^(-mu) for integer k >= 1 and rational mu > 0."""
    if k == 1:
        return Fraction(1), Fraction(1)
    u, v = mu.numerator, mu.denominator
    if v == 1:
        exact = Fraction(1, k**u)
        return exact, exact
    scaled = k**u << (v * bits)
    t = _int_nth_root(scaled, v)
    # t <= k^(u/v) * 2^bits < t + 1
    return Fraction(1 << bits, t + 1), Fraction(1 << bits, t)


def constant_Ap_interval(p: int, mu: Union[Fraction, int]) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of A_p for a rational exponent mu.

    For integer mu the enclosure is a point.  Used to certify strict
    inequalities such as A_p > 2^(p+1) - 1 without floating-point doubt.
    """
    mu = Fraction(mu)
    if mu <= 0:
        raise ParameterError("mu must be positive")
    table = vandermonde_cofactors(p)
    col_sums = table.column_abs_sums()
    lo = Fraction(0)
    hi = Fraction(0)
    for j in range(table.size):
        wlo, whi = _rational_neg_power_interval(j + 1, mu)
        lo += col_sums[j] * wlo
        hi += col_sums[j] * whi
    return lo / table.det, hi / table.det


# ---------------------------------------------------------------------------
# the large radii and the activation radius R0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageConstants:
    """Constants of one delta-stage of the activation-radius computation.

    r2 is taken at the disk scale a = p + 1; W is the Vandermonde determinant.
    The three large radii of the ratio comparison are
    r3 = max(r2, (6*C2*(p+1)^(p+1))^(1/mu)), which keeps the ratio-tail error
    eta2 below 1/3; r4 = (36*C1*A_p)^(1/(mu*(1-delta))), which keeps the
    amplified segment bound below 1/2; and r5 = (2*(p+1)^(p+1)*C2/C1)^(1/(mu*delta)),
    which makes the tail error dominated by the ray error.  A radius that
    overflows double precision is +inf.
    """

    delta: float
    p: int
    c: float
    r1: float
    r2: float
    r3: float
    r4: float
    r5: float
    C2: float
    C3: float
    W: int
    Ap: float

    @property
    def max_radius(self) -> float:
        return max(self.r1, self.r2, self.r3, self.r4, self.r5)


def _stage_constants(
    params: ClassParams, delta: float, p_override: int | None = None
) -> StageConstants:
    p = select_p(params.rho, params.mu, delta) if p_override is None else p_override
    c2 = constant_C2(p, params.sigma, params.rho)
    a = float(p + 1)
    r2 = threshold_r2(a, p, delta, params)
    ap = constant_Ap(p, params.mu)
    return StageConstants(
        delta=delta,
        p=p,
        c=threshold_c(params),
        r1=threshold_r1(params),
        r2=r2,
        r3=max(r2, _pow(6.0 * c2 * a ** (p + 1), 1.0 / params.mu)),
        r4=_pow(36.0 * params.C1 * ap, 1.0 / (params.mu * (1.0 - delta))),
        r5=_pow(2.0 * a ** (p + 1) * c2 / params.C1, 1.0 / (params.mu * delta)),
        C2=c2,
        C3=constant_C3(p, params.sigma, params.rho),
        W=vandermonde_cofactors(p).det,
        Ap=ap,
    )


def final_exponent(mu, delta):
    """Exponent mu*(1-delta) of the final bound eps / R^(mu*(1-delta)).

    Given Fractions it stays exact, for symbolic spot checks.
    """
    return mu * (1 - delta)


# ---------------------------------------------------------------------------
# assembled view
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivedConstants:
    """All constants of the bound for one (params, delta, eps) triple.

    `main` holds the constants at the requested delta, `inner` those at the
    halved budget delta1 = delta/2 used to absorb the target accuracy eps.
    The record adds only what stage two produces: the disk scale `a` with the
    main stage's r2 at that scale, the inner stage's stability constant
    reduced_C1 = 20*A_p(delta1)*C1, the radius `eps_radius` past which that
    bound dips below eps, Rprime, R0 and the final exponent mu*(1-delta).

    A threshold beyond double range is +inf, never an OverflowError, and
    `warnings` names each +inf threshold: the main stage's c, r1..r5, then
    the inner stage's, then the eps-radius.  Rprime and R0, maxima of stage
    thresholds, get no entry of their own.
    """

    params: ClassParams
    delta: float
    eps: float
    main: StageConstants
    inner: StageConstants
    a: float
    r2: float
    reduced_C1: float
    eps_radius: float
    Rprime: float
    R0: float
    exponent: float

    @property
    def warnings(self) -> tuple[str, ...]:
        # the main stage as printed, with r2 at the requested disk scale a
        stages = (replace(self.main, r2=self.r2), self.inner)
        names = ("c", "r1", "r2", "r3", "r4", "r5")
        named = [(name, getattr(stage, name)) for stage in stages for name in names]
        named.append(("eps-radius", self.eps_radius))
        return tuple(f"{name}: {OVERFLOW_WARNING}" for name, value in named if math.isinf(value))

    def ratio_bound(self, R: float) -> float:
        """Constant-form bound 20*A_p*C1 / R^(mu*(1-delta)) at outer radius R."""
        return 20.0 * self.main.Ap * self.params.C1 / R**self.exponent

    def eps_bound(self, R: float) -> float:
        """Accuracy-form bound eps / R^(mu*(1-delta)), valid once R >= R0."""
        return self.eps / R**self.exponent

    def to_json_dict(self) -> dict:
        from .report import format_float

        main, inner = self.main, self.inner
        return {
            "p": str(main.p),
            "a": format_float(self.a),
            "c": format_float(main.c),
            "r1": format_float(main.r1),
            "r2": format_float(self.r2),
            "r3": format_float(main.r3),
            "r4": format_float(main.r4),
            "r5": format_float(main.r5),
            "C2": format_float(main.C2),
            "C3": format_float(main.C3),
            "W": str(main.W),
            "Ap": format_float(main.Ap),
            "Rprime": format_float(self.Rprime),
            "R0": format_float(self.R0),
            "exponent": format_float(self.exponent),
            "inner_stage": {
                "delta": format_float(inner.delta),
                "p": str(inner.p),
                "Ap": format_float(inner.Ap),
                "reduced_C1": format_float(self.reduced_C1),
                "eps_radius": format_float(self.eps_radius),
                "max_radius": format_float(inner.max_radius),
            },
            "warnings": list(self.warnings),
        }


def derive_constants(
    params: ClassParams,
    delta: float,
    eps: float = 1.0,
    a: float | None = None,
    p_override: int | None = None,
) -> DerivedConstants:
    """Compute every constant of the bound in one pass.

    Stage one runs the whole estimate at delta1 = delta/2, producing the
    bound 20*A_p(delta1)*C1 / R^(mu*(1-delta1)).  Stage two turns that into
    eps / R^(mu*(1-delta)) as soon as R >= (20*A_p(delta1)*C1/eps)^(1/(mu*(delta-delta1))).
    Rprime is the maximum of that radius and the inner stage's own activation
    radii; R0 is the maximum of Rprime and the main-stage radii r1..r5.

    `a` scales the tail-product disk radius a*R^(1-delta) and defaults to
    p + 1, the value the proof of the segment step needs.  `p_override`
    forces the main-stage genus (the selection rule is deliberately strict;
    overriding lets one explore the relaxed variants).
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    _check_delta(delta)
    delta1 = delta / 2.0
    main = _stage_constants(params, delta, p_override)
    inner = _stage_constants(params, delta1)
    reduced_c1 = 20.0 * inner.Ap * params.C1
    eps_radius = _pow(reduced_c1 / eps, 1.0 / (params.mu * (delta - delta1)))
    rprime = max(inner.max_radius, eps_radius)
    a_val = float(main.p + 1) if a is None else float(a)
    return DerivedConstants(
        params=params,
        delta=delta,
        eps=eps,
        main=main,
        inner=inner,
        a=a_val,
        r2=threshold_r2(a_val, main.p, delta, params),
        reduced_C1=reduced_c1,
        eps_radius=eps_radius,
        Rprime=rprime,
        R0=max(main.max_radius, rprime),
        exponent=final_exponent(params.mu, delta),
    )
