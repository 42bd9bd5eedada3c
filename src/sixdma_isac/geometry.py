"""Rigid-body geometry of the movable antenna surface.

Global frame is O-XYZ; the surface has a local frame with origin at its
center.  A pose is the center position plus three rotation angles
(radians) about the global X, Y and Z axes, composed as ``Rz @ Ry @ Rx``.
All functions are pure and all container types are immutable after
construction, so everything here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import real_array


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def rotation_x(angle: float) -> np.ndarray:
    # Sign layout [0, c, s; 0, -s, c] is the defining convention for this
    # axis: it is the inverse sense of the Y/Z blocks below, and every
    # consumer of antenna positions assumes exactly this form.
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix(angles) -> np.ndarray:
    """Compose the surface rotation for ``(theta_x, theta_y, theta_z)``.

    Composition order is ``Rz @ Ry @ Rx``; the order is observable (the
    axis rotations do not commute) and must not be changed.

    Returns an orthonormal 3x3 matrix with determinant +1.
    """
    a = real_array(angles, (3,), "angles", ValueError)
    return rotation_z(a[2]) @ rotation_y(a[1]) @ rotation_x(a[0])


@dataclass(frozen=True)
class AntennaLayout:
    """Antenna positions in the surface frame plus the outward face normal.

    ``local_positions`` is (N, 3) in meters; all antennas must lie in the
    plane through the local origin orthogonal to ``local_normal``.
    """

    local_positions: np.ndarray
    local_normal: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.local_positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError(f"local_positions must be (N, 3), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("local_positions contain non-finite entries")
        normal = real_array(self.local_normal, (3,), "local_normal", ValueError)
        if abs(np.linalg.norm(normal) - 1.0) > 1e-12:
            raise ValueError("local_normal must be a unit vector")
        offsets = pos @ normal
        if np.max(np.abs(offsets)) > 1e-9:
            raise ValueError("antennas must lie in the plane orthogonal to local_normal")
        object.__setattr__(self, "local_positions", _freeze(pos))
        object.__setattr__(self, "local_normal", _freeze(normal))

    @property
    def num_antennas(self) -> int:
        return self.local_positions.shape[0]

    def min_spacing(self) -> float:
        """Minimum pairwise antenna distance; inf for a single antenna."""
        return min_pairwise_distance(self.local_positions)


@dataclass(frozen=True)
class SurfacePose:
    """Surface-center position (m) and accumulated rotation angles (rad)."""

    center: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(real_array(self.center, (3,), "center", ValueError)))
        object.__setattr__(self, "angles", _freeze(real_array(self.angles, (3,), "angles", ValueError)))
        # a pose lives for a whole decision window: build its rotation once
        object.__setattr__(self, "_rotation", _freeze(rotation_matrix(self.angles)))

    def rotation(self) -> np.ndarray:
        """The read-only ``rotation_matrix(angles)`` of this pose."""
        return self._rotation


def square_grid_layout(n_side: int = 2, side_length: float = 1.0) -> AntennaLayout:
    """Uniform n_side x n_side grid in the local Y'Z' plane, normal +X'.

    Grid points sit at cell centers, so a 2x2 grid on a 1 m surface lands
    at local (0, +-L/4, +-L/4) with 0.5 m spacing.
    """
    if n_side < 1:
        raise ValueError("n_side must be >= 1")
    if side_length <= 0:
        raise ValueError("side_length must be positive")
    offsets = (np.arange(n_side) + 0.5) / n_side * side_length - side_length / 2.0
    positions = [(0.0, y, z) for y in offsets for z in offsets]
    return AntennaLayout(np.array(positions), np.array([1.0, 0.0, 0.0]))


def global_antenna_positions(pose: SurfacePose, layout: AntennaLayout) -> np.ndarray:
    """Antenna positions in the global frame: center + R @ local, shape (N, 3)."""
    rot = pose.rotation()
    return pose.center + layout.local_positions @ rot.T


def surface_normal(pose: SurfacePose, layout: AntennaLayout) -> np.ndarray:
    """Outward surface normal rotated into the global frame (unit vector)."""
    return pose.rotation() @ layout.local_normal


def half_space_ok(pose: SurfacePose, layout: AntennaLayout, points) -> tuple[bool, float]:
    """Check that every point lies on the front side of the surface plane.

    The plane passes through the surface center with the rotated outward
    normal; a point is acceptable when its signed distance is >= 0.

    Returns ``(ok, worst_margin)`` where ``worst_margin`` is the smallest
    signed distance in meters (negative when a point is behind the plane).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("half_space_ok requires at least one point")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {pts.shape}")
    margins = (pts - pose.center) @ surface_normal(pose, layout)
    worst = float(margins.min())
    return worst >= 0.0, worst


def row_norms(vectors) -> np.ndarray:
    """Euclidean norm of each row of a (P, 3) array.

    Each row's dot product runs as a stacked ``matmul``, so every norm is
    bit-identical to ``np.linalg.norm`` of that row alone (which
    ``np.linalg.norm(axis=1)`` is not).
    """
    v = np.asarray(vectors, dtype=float)
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def min_pairwise_distance(points) -> float:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        return float("inf")
    deltas = pts[:, None, :] - pts[None, :, :]
    dists = np.linalg.norm(deltas, axis=-1)
    # the matrix is exactly symmetric, so the off-diagonal minimum is the
    # minimum over pairs
    np.fill_diagonal(dists, np.inf)
    return float(dists.min())


def validate_spacing(layout: AntennaLayout, wavelength: float) -> bool:
    """True when every antenna pair is at least half a wavelength apart."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return layout.min_spacing() >= wavelength / 2.0
