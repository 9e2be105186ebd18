"""Deterministic sampling grids for sup-norm estimation on disks and segments.

A disk grid combines polar rings (whose outermost ring lies exactly on the
boundary circle, where the checked bounds are tightest) with a seeded
low-discrepancy interior fill, so a doubling refinement both tightens the
rings and re-scatters the interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ParameterError


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of integer indices in the given base."""
    result = np.zeros(indices.shape, dtype=float)
    denom = 1.0
    work = indices.copy()
    while np.any(work > 0):
        denom *= base
        result += (work % base) / denom
        work //= base
    return result


def halton_pairs(count: int, seed: int = 0) -> np.ndarray:
    """`count` low-discrepancy points in the unit square, seeded by a shift.

    Bases 2 and 3 with a Cranley-Patterson rotation derived from the seed;
    identical (count, seed) always reproduces identical points.
    """
    if count < 0:
        raise ParameterError("count must be nonnegative")
    idx = np.arange(1, count + 1, dtype=np.int64)
    u = _radical_inverse(idx, 2)
    v = _radical_inverse(idx, 3)
    rng = np.random.default_rng(seed)
    shift = rng.random(2)
    return np.stack([(u + shift[0]) % 1.0, (v + shift[1]) % 1.0], axis=1)


@dataclass(frozen=True)
class DiskGrid:
    """Sample points of the closed disk |z - center| <= radius.

    rings x spokes polar points (outer ring on the boundary), plus `interior`
    seeded low-discrepancy points distributed uniformly by area.
    """

    center: complex
    radius: float
    rings: int
    spokes: int
    interior: int
    seed: int = 0

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError("radius must be positive")
        if self.rings < 1 or self.spokes < 4:
            raise ParameterError("need at least 1 ring and 4 spokes")
        if self.interior < 0:
            raise ParameterError("interior count must be nonnegative")

    def ring_radii(self) -> np.ndarray:
        return self.radius * np.arange(1, self.rings + 1) / self.rings

    def points(self) -> np.ndarray:
        """All sample points, rings first (ring-major), then interior fill."""
        radii = self.ring_radii()
        angles = 2.0 * math.pi * np.arange(self.spokes) / self.spokes
        ring_pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        if self.interior:
            uv = halton_pairs(self.interior, self.seed)
            r = self.radius * np.sqrt(uv[:, 0])
            theta = 2.0 * math.pi * uv[:, 1]
            fill = r * np.exp(1j * theta)
            pts = np.concatenate([ring_pts, fill])
        else:
            pts = ring_pts
        return pts + self.center

    @property
    def size(self) -> int:
        return self.rings * self.spokes + self.interior

    def refined(self) -> "DiskGrid":
        """Grid with doubled rings, spokes and interior fill (fresh scatter)."""
        return DiskGrid(
            center=self.center,
            radius=self.radius,
            rings=self.rings * 2,
            spokes=self.spokes * 2,
            interior=self.interior * 2,
            seed=self.seed + 1,
        )

    def scaled(self, radius: float) -> "DiskGrid":
        return DiskGrid(
            center=self.center,
            radius=radius,
            rings=self.rings,
            spokes=self.spokes,
            interior=self.interior,
            seed=self.seed,
        )

    def ring_profile(self, values: np.ndarray) -> list[tuple[float, float]]:
        """Per-ring maxima of `values` (aligned with points()), for plot data."""
        radii = self.ring_radii()
        out = []
        ring_vals = values[: self.rings * self.spokes].reshape(self.rings, self.spokes)
        for i, r in enumerate(radii):
            out.append((float(r), float(ring_vals[i].max())))
        return out


def segment_points(start: complex, end: complex, count: int, include: np.ndarray | None = None) -> np.ndarray:
    """Uniform samples of the segment [start, end], plus mandatory points.

    `include` points are inserted exactly (deduplicated), so bounds that must
    be measured at specific nodes sample those nodes with no interpolation.
    """
    if count < 2:
        raise ParameterError("need at least two segment samples")
    t = np.linspace(0.0, 1.0, count)
    pts = start + (end - start) * t
    if include is not None and len(include):
        pts = np.concatenate([pts, np.asarray(include, dtype=complex)])
        order = np.argsort(np.abs(pts - start), kind="stable")
        pts = pts[order]
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = np.abs(np.diff(pts)) > 0
        pts = pts[keep]
    return pts


def parse_grid_shape(text: str) -> tuple[int, int]:
    """Parse 'NRxNT' into (rings, spokes)."""
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ParameterError(f"grid shape must look like '32x96', got {text!r}")
    try:
        rings, spokes = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParameterError(f"grid shape must look like '32x96', got {text!r}") from exc
    return rings, spokes
