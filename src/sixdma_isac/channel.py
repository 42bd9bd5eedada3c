"""Line-of-sight channel synthesis from geometry.

Directions are unit vectors in the global frame.  Channel amplitudes
follow the free-space lambda/(4*pi*d) law with a single propagation
phase on top of the per-antenna array phases.

:func:`channel_matrix` builds the channel rows of many points in one
broadcast; row p equals a one-point call on ``points[p]``.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError
from .geometry import row_norms


def channel_matrix(surface_center, points, antenna_positions, wavelength: float) -> np.ndarray:
    """LoS channels between the surface and P points, shape (P, N).

    Rows never mix: the per-row dot products run as stacked ``matmul``
    calls (one small BLAS dot or matrix-vector product per row) rather
    than one matrix product, so row p equals a one-point call on
    ``points[p]`` bit for bit.  Raises
    :class:`SingularityError` when any point coincides with the surface
    center.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    center = np.asarray(surface_center, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (P, 3), got {pts.shape}")
    pos = np.atleast_2d(np.asarray(antenna_positions, dtype=float))
    delta = pts - center
    dist = row_norms(delta)
    if np.any(dist <= 1e-12):
        raise SingularityError("target coincides with the surface center")
    direction = delta / dist[:, None]
    amplitude = wavelength / (4.0 * np.pi * dist)
    # real arithmetic for the exponent: a complex array divides by
    # multiplying with 1/wavelength, which rounds differently
    phase = np.exp(1j * (-2.0 * np.pi * dist / wavelength))
    phases = (2.0 * np.pi / wavelength) * np.matmul(pos, direction[:, :, None])[:, :, 0]
    return (amplitude * phase)[:, None] * np.exp(1j * phases)
