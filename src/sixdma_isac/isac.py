"""Signal-level metrics: SINR, sum rate, sensing SNR and power handling.

Conventions used throughout:

* ``channels`` matrices carry one row per receiver/target, shape (M, N)
  or (J, N).
* A precoder is a complex (N, M) matrix whose column m is the beam for
  stream m, in sqrt-watts.
* The communication product is sesquilinear (``w^H h``); the sensing
  product is the plain bilinear ``h w`` of the row channel with the beam.
* All powers are linear watts; helpers convert from dBm/dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _check_dims(channels: np.ndarray, precoder: np.ndarray) -> None:
    if channels.ndim != 2 or precoder.ndim != 2:
        raise ValueError("channels and precoder must be 2-D")
    if channels.shape[1] != precoder.shape[0]:
        raise ValueError(
            f"antenna-count mismatch: channels are {channels.shape}, precoder is {precoder.shape}"
        )


def sinr(channels_uav, precoder, sigma_c_sq: float) -> np.ndarray:
    """Per-receiver SINR (linear) under multi-stream interference.

    Entry m is |w_m^H h_m|^2 divided by the sum of |w_i^H h_m|^2 over the
    interfering streams i != m plus the noise power ``sigma_c_sq``.
    """
    h = np.asarray(channels_uav, dtype=complex)
    w = np.asarray(precoder, dtype=complex)
    _check_dims(h, w)
    if sigma_c_sq <= 0:
        raise ValueError("sigma_c_sq must be positive")
    if h.shape[0] != w.shape[1]:
        raise ValueError("need one precoder column per communication receiver")
    # products[m, i] = w_i^H h_m
    products = h @ w.conj()
    powers = np.abs(products) ** 2
    signal = np.diag(powers)
    interference = powers.sum(axis=1) - signal
    return signal / (interference + sigma_c_sq)


def sum_rate(sinrs) -> float:
    """Total spectral efficiency sum(log2(1 + sinr)) in bits/s/Hz."""
    g = np.asarray(sinrs, dtype=float)
    if np.any(g < 0):
        raise ValueError("SINR values must be non-negative")
    return float(np.log2(1.0 + g).sum())


def sensing_snr(channels_target, precoder, sigma_s_sq: float) -> np.ndarray:
    """Per-target sensing SNR (linear): sum_m |h_j w_m|^2 / sigma_s_sq."""
    h = np.asarray(channels_target, dtype=complex)
    w = np.asarray(precoder, dtype=complex)
    _check_dims(h, w)
    if sigma_s_sq <= 0:
        raise ValueError("sigma_s_sq must be positive")
    return (np.abs(h @ w) ** 2).sum(axis=1) / sigma_s_sq


def tx_power(precoder) -> float:
    """Total transmit power sum_m ||w_m||^2 in watts."""
    w = np.asarray(precoder, dtype=complex)
    return float((np.abs(w) ** 2).sum())


def project_power(precoder, p_max: float) -> np.ndarray:
    """Scale the precoder down (never up) so its power is at most p_max."""
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    w = np.asarray(precoder, dtype=complex)
    power = tx_power(w)
    if power <= p_max:
        return w
    return w * np.sqrt(p_max / power)


@dataclass(frozen=True)
class LinkMetrics:
    """Per-slot link-level summary (all quantities linear)."""

    sinr_per_uav: np.ndarray
    sum_rate: float
    snr_per_target: np.ndarray
    tx_power: float

    def __post_init__(self):
        s = np.asarray(self.sinr_per_uav, dtype=float)
        t = np.asarray(self.snr_per_target, dtype=float)
        s.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "sinr_per_uav", s)
        object.__setattr__(self, "snr_per_target", t)

    @property
    def mean_target_snr(self) -> float:
        return float(np.mean(self.snr_per_target))


def link_metrics(channels_uav, channels_target, precoder, sigma_c_sq, sigma_s_sq) -> LinkMetrics:
    """Evaluate all link metrics for one slot with a shared precoder."""
    gammas = sinr(channels_uav, precoder, sigma_c_sq)
    return LinkMetrics(
        sinr_per_uav=gammas,
        sum_rate=sum_rate(gammas),
        snr_per_target=sensing_snr(channels_target, precoder, sigma_s_sq),
        tx_power=tx_power(precoder),
    )
