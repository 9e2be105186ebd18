"""Reference values for the benchmark's output checks, computed apart from zeroratio.

Nothing here imports zeroratio.  Every reference is built from zero lists,
polynomial coefficients, kernel coefficients or a closed form, in mpmath:

* circle maxima of tail products and of psi2/psi1 - 1 through power sums
  S_k = sum_n m_n z_n^-k, since log E_p(xi) = -sum_{k>p} xi^k / k on the
  guard disk.  Both functions are holomorphic on the checked disk (the
  shared zeros cancel in psi2/psi1), so by the maximum modulus principle
  their supremum over the disk is the maximum over its boundary circle;
* the Gaussian-kernel transform 1 + C sqrt(pi) exp(-z^2) erfc(-iz);
* direct mpmath quadrature of kernel transforms;
* Laplace's method for the growth of a super-exponential kernel transform.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30


def _mpc(z: complex) -> mp.mpc:
    return mp.mpc(z.real, z.imag)


def _power_sums(zeros, p: int, kmax: int) -> list:
    """[S_{p+1}, ..., S_kmax] for a list of (location, multiplicity)."""
    sums = [mp.mpc(0)] * (kmax - p)
    for loc, mult in zeros:
        inv = 1 / _mpc(loc)
        power = inv ** (p + 1)
        for i in range(kmax - p):
            sums[i] += mult * power
            power *= inv
    return sums


def _terms_needed(radius: float, zeros, p: int) -> int:
    """Power-sum terms after which |z/z_n|^k / (1 - q) is below 10^-(DPS+4)."""
    nearest = min(abs(loc) for loc, _ in zeros)
    q = radius / nearest
    if q >= 1.0:
        raise ValueError(f"circle radius {radius} reaches a zero at modulus {nearest}")
    return p + 2 + math.ceil((DPS + 4) * math.log(10) / -math.log(q))


def _log_coeffs(sums, p: int, poly=()) -> list:
    """Ascending coefficients of poly(z) - sum_{k>p} z^k S_k / k."""
    coeffs = [mp.mpc(0)] * (p + 1 + len(sums))
    for j, c in enumerate(poly):
        coeffs[j] += _mpc(complex(c))
    for i, s in enumerate(sums):
        coeffs[p + 1 + i] -= s / (p + 1 + i)
    return coeffs


def _horner(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def expm1_circle_max(coeffs, radius: float, samples: int = 4096) -> float:
    """max over |z| = radius of |exp(L(z)) - 1| for the polynomial L.

    A double-precision scan over `samples` angles brackets the maximum; a
    golden-section search in mpmath then refines it within the bracket.
    """
    approx = np.array([complex(c) for c in coeffs])[::-1]
    theta = 2.0 * np.pi * np.arange(samples) / samples
    scan = np.abs(np.expm1(np.polyval(approx, radius * np.exp(1j * theta))))
    best = int(np.argmax(scan))
    step = 2 * mp.pi / samples

    def at(t):
        return abs(mp.expm1(_horner(coeffs, radius * mp.expjpi(t / mp.pi))))

    lo, hi = (best - 1) * step, (best + 1) * step
    ratio = (mp.sqrt(5) - 1) / 2
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = at(a), at(b)
    for _ in range(40):
        if fa > fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = at(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = at(b)
    return float(max(at(best * step), fa, fb))


def tail_deviation_max(zeros, p: int, radius: float) -> float:
    """max over |z| = radius of |prod E_p(z/z_n)^m_n - 1|."""
    with mp.workdps(DPS):
        sums = _power_sums(zeros, p, _terms_needed(radius, zeros, p))
        return expm1_circle_max(_log_coeffs(sums, p), radius)


def ratio_deviation_max(outer_a, outer_b, poly_a, poly_b, p: int, radius: float) -> float:
    """max over |z| = radius of |psi2/psi1 - 1| for a pair sharing its inner zeros.

    log(psi2/psi1) = (g2 - g1)(z) - sum_{k>p} z^k/k (S_k^b - S_k^a).
    """
    with mp.workdps(DPS):
        kmax = max(_terms_needed(radius, outer_a, p), _terms_needed(radius, outer_b, p))
        diff = [b - a for a, b in zip(_power_sums(outer_a, p, kmax), _power_sums(outer_b, p, kmax))]
        width = max(len(poly_a), len(poly_b))
        poly = [complex(poly_b[j] if j < len(poly_b) else 0) - complex(poly_a[j] if j < len(poly_a) else 0)
                for j in range(width)]
        return expm1_circle_max(_log_coeffs(diff, p, poly), radius)


def tail_log_bound(zeros, p: int, modulus: float) -> float:
    """|z|^(p+1) * sum m_n |z_n|^-(p+1), the a-priori bound on |log prod E_p|."""
    return modulus ** (p + 1) * math.fsum(m * abs(loc) ** -(p + 1) for loc, m in zeros)


def gaussian_transform(C: float, z: complex) -> complex:
    """1 + integral_0^inf C exp(-t^2/4) exp(izt) dt = 1 + C sqrt(pi) exp(-z^2) erfc(-iz)."""
    with mp.workdps(DPS):
        w = _mpc(z)
        return complex(1 + C * mp.sqrt(mp.pi) * mp.exp(-w * w) * mp.erfc(-1j * w))


def superexp_transform(C: float, gamma: float, z: complex) -> complex:
    """1 + integral_0^inf C exp(-(t/2)^gamma) exp(izt) dt by mpmath quadrature."""
    with mp.workdps(20):
        w = _mpc(z)
        f = lambda t: C * mp.exp(-((t / 2) ** gamma) + 1j * w * t)  # noqa: E731
        return complex(1 + mp.quad(f, [0, 1, 2, 4, 6, 8, 12, 20, 40]))


# Gauss-Legendre rule for the kernel pieces: exact for polynomials of degree
# 79, and the integrands t^m e^{iwt} of a piece of length 1/2 with |w| <= 40
# are resolved far below double precision by it
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def piecewise_transform(knots, coeffs, w: complex) -> tuple[complex, complex]:
    """(psi(w), psi'(w)) of a piecewise-polynomial kernel, by Gauss-Legendre
    quadrature of every piece evaluated in mpmath."""
    with mp.workdps(25):
        iw = 1j * _mpc(w)
        value = slope = mp.mpc(0)
        for (a, b), row in zip(zip(knots, knots[1:]), coeffs):
            row = [mp.mpf(c) for c in row]
            half, mid = mp.mpf(b - a) / 2, mp.mpf(a + b) / 2
            for x, weight in zip(_GL_NODES, _GL_WEIGHTS):
                t = mid + half * mp.mpf(x)
                f = weight * half * _horner(row, t) * mp.exp(iw * t)
                value += f
                slope += 1j * t * f
        return complex(1 + value), complex(slope)


def laplace_growth(gamma: float) -> tuple[float, float]:
    """(rho, sigma) of log max|psi| ~ sigma r^rho for the kernel exp(-(t/2)^gamma).

    The exponent -(t/2)^gamma + r t peaks at t* = 2 (2r/gamma)^(1/(gamma-1)),
    where it equals 2 (1 - 1/gamma) (2/gamma)^(1/(gamma-1)) r^(gamma/(gamma-1)).
    """
    rho = gamma / (gamma - 1.0)
    sigma = 2.0 * (1.0 - 1.0 / gamma) * (2.0 / gamma) ** (1.0 / (gamma - 1.0))
    return rho, sigma
