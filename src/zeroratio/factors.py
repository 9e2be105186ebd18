"""Primary factors and truncated canonical products.

The building block is the genus-p primary factor

    E_p(xi) = (1 - xi) * exp(xi + xi^2/2 + ... + xi^p/p)

whose logarithm, for |xi| < 1, is the tail series -sum_{k>p} xi^k / k.  One
vectorized evaluator computes log E_p anywhere in the plane.  On the guard
disk |xi| <= p/(p+1) the log obeys |log E_p(xi)| <= |xi|^(p+1), which is
what every tail estimate in the package rests on, so a tail product checks
the guard once per call, where it uses the bound.  Products over zero sets
are accumulated in log form, by power sums for far zeros or by one direct
factor-by-factor sum with compensated summation, and exponentiated once, so
the tiny quantity (product - 1) never suffers cancellation.  The direct sum
takes one reciprocal per zero, Horner in place and per-row sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .constants import ParameterError


# points x zeros per block of the direct sum: its ratio and log buffers, sized
# to the batch and reused by every block, hold 256 KiB each at most and so
# stay in a core's L2
_NEAR_BLOCK = 16384


class DomainError(ValueError):
    """Raised when an argument leaves the validity region of a bound."""


# ---------------------------------------------------------------------------
# zero sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroSet:
    """A finite multiset of nonzero complex numbers with multiplicities.

    Entries are (location, multiplicity) pairs kept sorted by modulus
    ascending.  The origin is excluded by construction.
    """

    entries: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        normalized = []
        for loc, mult in self.entries:
            loc = complex(loc)
            if loc == 0:
                raise ParameterError("zero sets must not contain the origin")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ParameterError(f"multiplicity must be a positive integer, got {mult!r}")
            normalized.append((loc, mult))
        normalized.sort(key=lambda e: (abs(e[0]), e[0].real, e[0].imag))
        object.__setattr__(self, "entries", tuple(normalized))

    @classmethod
    def from_points(cls, points: Iterable[complex], multiplicities: Iterable[int] | None = None) -> "ZeroSet":
        pts = [complex(p) for p in points]
        if multiplicities is None:
            mults = [1] * len(pts)
        else:
            mults = [int(m) for m in multiplicities]
            if len(mults) != len(pts):
                raise ParameterError("points and multiplicities must have equal length")
        return cls(tuple(zip(pts, mults)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def locations(self) -> np.ndarray:
        return self._arrays[0]

    def multiplicities(self) -> np.ndarray:
        return self._arrays[1]

    def moduli(self) -> np.ndarray:
        return self._arrays[2]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only locations, multiplicities and moduli, built once."""
        locs = np.array([loc for loc, _ in self.entries], dtype=complex)
        # hypot is the modulus Python's abs gives, bitwise, as the sort and
        # min_modulus read it; np.abs can differ in the last bit
        arrays = (locs, np.array([m for _, m in self.entries], dtype=int),
                  np.hypot(locs.real, locs.imag))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def count_within(self, r: float) -> int:
        """Number of zeros with modulus <= r, counted with multiplicity."""
        return int(self.multiplicities()[self.moduli() <= r].sum())

    def min_modulus(self) -> float:
        return abs(self.entries[0][0]) if self.entries else math.inf

    def max_modulus(self) -> float:
        return abs(self.entries[-1][0]) if self.entries else 0.0

    def merged_with(self, other: "ZeroSet") -> "ZeroSet":
        return ZeroSet(self.entries + other.entries)

    # -- CSV interchange: header re,im,mult ---------------------------------

    def csv_text(self, key=None) -> str:
        """re,im,mult rows in modulus order, or sorted by `key` of the entries."""
        entries = self.entries if key is None else sorted(self.entries, key=key)
        rows = [f"{loc.real!r},{loc.imag!r},{mult}" for loc, mult in entries]
        return "\n".join(["re,im,mult"] + rows) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())

    @classmethod
    def from_csv(cls, path) -> "ZeroSet":
        """Read a re,im,mult file; a malformed one raises ParameterError naming it."""
        entries: list[tuple[complex, int]] = []
        with open(path) as fh:
            try:
                header = fh.readline().strip().lower()
                if header.replace(" ", "") != "re,im,mult":
                    raise ParameterError(f"expected header 're,im,mult', got {header!r}")
                for lineno, line in enumerate(fh, start=2):
                    parts = line.strip().split(",")
                    if parts == [""]:
                        continue
                    if len(parts) != 3:
                        raise ParameterError(f"line {lineno}: expected three fields")
                    entries.append((complex(float(parts[0]), float(parts[1])), int(parts[2])))
            except ValueError as exc:  # ParameterError and UnicodeDecodeError among them
                raise ParameterError(f"malformed zero file {path}: {exc}") from exc
        return cls(tuple(entries))


# ---------------------------------------------------------------------------
# primary factors
# ---------------------------------------------------------------------------


def guard_radius(p: int) -> float:
    """Radius p/(p+1) of the disk on which |log E_p(xi)| <= |xi|^(p+1) is used."""
    if p < 0:
        raise ParameterError("genus must be nonnegative")
    return p / (p + 1.0)


# Relative slack admitted at the guard circle itself.
_GUARD_SLACK = 1.0 + 1e-12


def _partial_sum(xi: np.ndarray, p: int) -> np.ndarray:
    """The degree-p partial sum xi + xi^2/2 + ... + xi^p/p of -log(1 - xi)."""
    partial = np.zeros_like(xi)
    power = np.ones_like(xi)
    for k in range(1, p + 1):
        power = power * xi
        partial = partial + power / k
    return partial


def log_primary_factor_grid(xi: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized log E_p over an array, for any xi: the tail series inside a
    split radius, the explicit form log1p(-xi) + partial sum everywhere else.

    The split radius shrinks the explicit branch to where the cancellation
    between log1p(-xi) and the partial sum stays below ~1e-13 relative; the
    series branch sums as many terms as the series points' own max|xi| needs
    for a 1e-19 remainder relative to the leading term, in one in-place
    Horner pass that includes xi^(p+1).  Far outside the guard disk
    |log E_p| is of order one, so the explicit form carries no cancellation
    risk there; its real part is -inf exactly at xi = 1.  The result goes to
    `out`, an array of xi's shape, when one is given.
    """
    xi = np.asarray(xi, dtype=complex)
    if p < 0:
        raise ParameterError("genus must be nonnegative")
    # The explicit branch subtracts the degree-p partial sum from log1p(-xi),
    # losing ~(p+1)(p+2)*eps*|xi| absolutely against a result of size
    # |xi|^(p+1)/(p+1).  Choosing the split so that split^p covers that loss
    # keeps the branch boundary agreement at the few-1e-13 level for genus
    # up to ~12 (drifting toward 1e-11 at genus 20, where the guard disk
    # leaves no room to push the split further out).  Genus 0 splits too:
    # numpy's complex log1p loses relative accuracy at small |xi|.
    split = 0.25
    if p > 0:
        split = min(0.90 * guard_radius(p), max(split, (3.3e-3 * (p + 1) * (p + 2)) ** (1.0 / p)))
    out = np.empty_like(xi) if out is None else out

    mag = np.abs(xi)
    small = mag <= split
    s = float(np.max(mag, initial=0.0))  # s bounds |xi| at every series point
    if s > split:  # a masked max, only for batches that mix the two branches
        s = float(np.max(np.where(small, mag, 0.0)))
    del mag  # blocks of points x zeros are large: hold as few of them at once as possible
    if np.any(small):
        whole = small.all()
        xs = xi if whole else xi[small]  # no copy in the common all-series case
        # term count from the geometric remainder of the tail series at s
        terms = 8
        while s**terms * (p + 1) / ((p + terms + 1) * (1.0 - s)) > 1e-19 and terms < 4000:
            terms += 4
        # Horner on the coefficients -1/k, in place; the first multiply and the
        # p after the loop form the leading xi^(p+1).  Whole blocks go to out.
        acc = np.multiply(xs, -1.0 / (p + terms), out=out if whole else None)
        for k in range(p + terms - 1, p, -1):
            acc -= 1.0 / k
            acc *= xs
        for _ in range(p):
            acc *= xs
        del xs
        if not whole:
            out[small] = acc.ravel()
    large = ~small
    if np.any(large):
        xl = xi[large]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[large] = np.log1p(-xl) + _partial_sum(xl, p)
    return out


# Remainder left after the last power sum of a far-field expansion, relative.
_FAR_FIELD_TOL = 1e-17


def far_field_order(q: float, p: int) -> int:
    """The smallest order K > p whose remainder q^(K+1)/(K+1) of the genus-p
    tail series is below _FAR_FIELD_TOL times its bound q^(p+1)/(p+1), q < 1."""
    K = p + 1
    while q ** (K - p) * (p + 1) / (K + 1) > _FAR_FIELD_TOL:
        K += 1
    return K


def log_far_field(z: np.ndarray, locations: np.ndarray, multiplicities: np.ndarray, p: int) -> np.ndarray:
    """sum_n m_n log E_p(z/z_n) for zeros with |z_n| >= 2 max|z|, by power sums.

    log E_p(xi) = -sum_{k>p} xi^k/k, so the sum is -sum_{k>p} (z^k/k) S_k with
    S_k = sum_n m_n z_n^-k.  With q = max|z| / min|z_n| <= 1/2 and M the total
    multiplicity, the sum is at most M q^(p+1)/((p+1)(1-q)), and K is the
    smallest order whose remainder M q^(K+1)/((K+1)(1-q)) is below
    _FAR_FIELD_TOL times that bound, so tiny sums keep their relative
    accuracy.  Powers are taken of z/s and s/z_n with s = min|z_n|/2, which
    keeps both at or below one; the cost is O(zeros*K + points*K).
    """
    z = np.asarray(z, dtype=complex)
    s = 0.5 * float(np.min(np.abs(locations)))
    q = float(np.max(np.abs(z), initial=0.0)) / (2.0 * s)
    if q > 0.5:
        raise DomainError(f"far-field zeros need |z_n| >= 2 max|z|, got max|z|/min|z_n| = {q:.6g}")
    K = far_field_order(q, p)
    ratios = s / locations
    powers = np.cumprod(np.broadcast_to(ratios, (K - p, len(ratios))), axis=0) * ratios**p
    coeffs = (powers @ multiplicities) / np.arange(p + 1, K + 1)
    w = z / s
    return -(w ** (p + 1)) * np.polyval(coeffs[::-1], w)


# ---------------------------------------------------------------------------
# complex expm1
# ---------------------------------------------------------------------------


def cexpm1(w):
    """e^w - 1 for complex w (scalar or array), accurate for tiny |w|.

    Splits into expm1(x)*cos(y) - 2*sin(y/2)^2 + i*exp(x)*sin(y) for
    w = x + iy, which avoids the cancellation of exp(w) - 1.
    """
    w = np.asarray(w, dtype=complex)
    x = w.real
    y = w.imag
    real = np.expm1(x) * np.cos(y) - 2.0 * np.sin(y / 2.0) ** 2
    imag = np.exp(x) * np.sin(y)
    out = real + 1j * imag
    if out.ndim == 0:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# truncated tail products
# ---------------------------------------------------------------------------


# zeros per block of the direct sum; blocks are summed with compensation
_ZERO_BLOCK = 256


def _log_direct_sum(z: np.ndarray, locations: np.ndarray, multiplicities: np.ndarray,
                    p: int) -> np.ndarray:
    """sum_n m_n log E_p(z/z_n) over a flat array, factor by factor.

    Zeros are consumed in fixed-order blocks of _ZERO_BLOCK with a compensated
    accumulator across blocks, so results are deterministic and the rounding
    stays at the few-ulp level even for thousands of factors.  Points go in
    chunks small enough that a block's points x zeros arrays hold at most
    _NEAR_BLOCK entries, which keeps them in cache.  A ratio is z times the
    zero's reciprocal, and the logs are summed per row, so a point's value
    does not depend on its batch.  A non-finite value marks a point on a zero.
    """
    total = np.zeros_like(z)
    mults = multiplicities.astype(float) if np.any(multiplicities != 1) else None
    inverses = 1.0 / locations
    width = max(1, min(_ZERO_BLOCK, len(locations)))
    chunk = _NEAR_BLOCK // width
    ratio_buf = np.empty(min(chunk, len(z)) * width, dtype=complex)
    log_buf = np.empty_like(ratio_buf)
    for i in range(0, len(z), chunk):
        pts = z[i : i + chunk, None]
        reach = float(np.max(np.abs(pts)))
        acc = comp = np.zeros(len(pts), dtype=complex)
        for start in range(0, len(locations), _ZERO_BLOCK):
            block = slice(start, start + _ZERO_BLOCK)
            n = len(pts) * len(inverses[block])
            ratios = np.multiply(pts, inverses[block], out=ratio_buf[:n].reshape(len(pts), -1))
            if reach >= np.abs(locations[block]).min():  # some point may sit on a zero here
                # z_n * (1/z_n) can be a rounding away from 1
                ratios[pts == locations[block]] = 1.0
            logs = log_primary_factor_grid(ratios, p, out=log_buf[:n].reshape(ratios.shape))
            if mults is not None:  # scaling by ones would change nothing
                logs *= mults[block]
            y = logs.sum(axis=1) - comp  # per-row sums: a point's value ignores its batch
            t = acc + y
            comp = (t - acc) - y
            acc = t
        total[i : i + chunk] = acc
    return total


def _log_zero_sum(total: np.ndarray, z: np.ndarray, locations: np.ndarray,
                  multiplicities: np.ndarray, moduli: np.ndarray, p: int) -> np.ndarray:
    """total + sum_n m_n log E_p(z/z_n) over a flat array, m_n of either sign:
    power sums for the zeros with |z_n| >= 2 max|z| (`moduli` holds the |z_n|),
    then the direct sum for the rest.  A non-finite value marks a point on a zero."""
    far = moduli >= 2.0 * np.max(np.abs(z), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(far):
            total = total + log_far_field(z, locations[far], multiplicities[far], p)
        if not far.all():
            total = total + _log_direct_sum(z, locations[~far], multiplicities[~far], p)
    return total


@dataclass(frozen=True)
class TailProductSpec:
    """A genus-p product over zeros at or beyond a cutoff radius."""

    zeros: ZeroSet
    genus: int
    cutoff: float

    def __post_init__(self):
        if self.genus < 1:
            raise ParameterError("tail products need genus >= 1")
        if self.cutoff <= 0:
            raise ParameterError("cutoff must be positive")
        if self.zeros.entries and self.zeros.min_modulus() < self.cutoff * (1 - 1e-12):
            raise ParameterError(
                f"zero of modulus {self.zeros.min_modulus():.6g} below cutoff {self.cutoff:.6g}"
            )

    def require_guard(self, z: np.ndarray) -> None:
        """Raise DomainError when some |z/z_n| leaves the genus guard disk.

        The tail bounds hold only there; the largest ratio is max|z|/min|z_n|.
        """
        if not self.zeros.entries:
            return
        reach = float(np.max(np.abs(z), initial=0.0)) / self.zeros.min_modulus()
        radius = guard_radius(self.genus)
        if reach > radius * _GUARD_SLACK:
            raise DomainError(
                f"|xi| = {reach:.6g} outside the genus-{self.genus} guard radius {radius:.6g}"
            )


def log_tail_product_grid(spec: TailProductSpec, z: np.ndarray) -> np.ndarray:
    """log tail product by the direct sum of primary-factor logs.

    This is the factor-by-factor reference that the decomposition identity
    checks the model evaluator against, independent of the power sums that
    evaluator uses for far zeros.  Points reaching past the guard disk raise
    DomainError.
    """
    z = np.asarray(z, dtype=complex)
    spec.require_guard(z)
    logs = _log_direct_sum(z.ravel(), spec.zeros.locations(), spec.zeros.multiplicities(), spec.genus)
    return logs.reshape(z.shape)
