"""Deterministic sampling grids for sup-norm estimation on disks and segments.

Every disk supremum the verifier checks is of a function holomorphic on the
closed disk, so by the maximum modulus principle it is attained on the
boundary circle, and a disk sup reads only the grid's spokes.  A disk grid is
a polar lattice whose outer ring lies on that circle; its inner rings serve
only the identity check, which evaluates its models there and reaches them
from the circle by Cauchy's formula for its tail reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ParameterError


@dataclass(frozen=True)
class DiskGrid:
    """rings x spokes polar lattice of a closed disk about the origin.

    Ring k (k = 1..rings) has radius k/rings of the disk's, so the outer ring
    samples the boundary circle at `spokes` equally spaced angles.
    """

    rings: int
    spokes: int

    def __post_init__(self):
        if self.rings < 1 or self.spokes < 4:
            raise ParameterError("need at least 1 ring and 4 spokes")

    def ring_radii(self, radius: float) -> np.ndarray:
        if not radius > 0:
            raise ParameterError("radius must be positive")
        # the fraction first, so the outer ring's is exactly 1 and that ring is the circle, bitwise
        return np.arange(1, self.rings + 1) / self.rings * radius

    def points(self, radius: float) -> np.ndarray:
        """The lattice scaled to B(0, radius), ring-major, outer ring last."""
        angles = 2.0 * math.pi * np.arange(self.spokes) / self.spokes
        return (self.ring_radii(radius)[:, None] * np.exp(1j * angles)[None, :]).ravel()


def segment_points(start: complex, end: complex, count: int, include: np.ndarray | None = None) -> np.ndarray:
    """Uniform samples of the segment [start, end], plus mandatory points.

    `include` points are inserted exactly, and a uniform sample within a few
    ulps of one is merged into it, so bounds measured at specific nodes
    sample each node once, with no interpolation.
    """
    if count < 2:
        raise ParameterError("need at least two segment samples")
    t = np.linspace(0.0, 1.0, count)
    pts = start + (end - start) * t
    if include is not None and len(include):
        include = np.asarray(include, dtype=complex)
        tol = 4.0 * np.finfo(float).eps * max(abs(start), abs(end))
        near = np.min(np.abs(pts[:, None] - include[None, :]), axis=1) <= tol
        pts = np.concatenate([pts[~near], include])
        pts = pts[np.argsort(np.abs(pts - start), kind="stable")]
        pts = pts[np.concatenate([[True], np.diff(pts) != 0])]
    return pts


def parse_disk_grid(text: str) -> DiskGrid:
    """Parse 'NRxNT' into DiskGrid(rings=NR, spokes=NT)."""
    parts = text.lower().split("x")
    try:
        rings, spokes = (int(part) for part in parts)
    except ValueError as exc:
        raise ParameterError(f"grid shape must look like '32x96', got {text!r}") from exc
    return DiskGrid(rings, spokes)
