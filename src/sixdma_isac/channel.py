"""Line-of-sight channel synthesis from geometry.

Directions are unit vectors in the global frame.  Channel amplitudes
follow the free-space lambda/(4*pi*d) law with a single propagation
phase on top of the per-antenna array phases.

:func:`channel_matrix` builds the channel rows of many points in one
broadcast; :func:`channel_vector` is its one-point case.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularityError
from .geometry import row_norms


def array_response(direction, antenna_positions, wavelength: float) -> np.ndarray:
    """Per-antenna unit-modulus phase factors for a plane wave.

    Parameters
    ----------
    direction : (3,) unit vector toward the far-field point.
    antenna_positions : (N, 3) global antenna positions in meters.
    wavelength : carrier wavelength in meters.

    Returns
    -------
    (N,) complex vector with entries exp(j * 2*pi/wavelength * f.p_n).
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    f = np.asarray(direction, dtype=float)
    pos = np.atleast_2d(np.asarray(antenna_positions, dtype=float))
    phases = (2.0 * np.pi / wavelength) * (pos @ f)
    return np.exp(1j * phases)


def channel_matrix(surface_center, points, antenna_positions, wavelength: float) -> np.ndarray:
    """LoS channels between the surface and P points, shape (P, N).

    Row p is :func:`channel_vector` of ``points[p]``.  Rows never mix:
    the per-row dot products run as stacked ``matmul`` calls (one small
    BLAS dot or matrix-vector product per row) rather than one matrix
    product, so each row is bit-identical to a one-point call.  Raises
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


def channel_vector(surface_center, target, antenna_positions, wavelength: float) -> np.ndarray:
    """LoS channel between the surface and one point target or receiver.

    The amplitude of every entry is wavelength/(4*pi*d) with d the
    center-to-target distance; the common propagation phase is
    exp(-j*2*pi*d/wavelength) and per-antenna phases come from
    :func:`array_response` evaluated along the center-to-target direction.
    """
    tgt = np.asarray(target, dtype=float)
    if tgt.shape != (3,):
        raise ValueError(f"target must have shape (3,), got {tgt.shape}")
    return channel_matrix(surface_center, tgt[None, :], antenna_positions, wavelength)[0]
