"""Reference implementations the tests compare the package against.

Each one computes a quantity by a second, independent path (explicit
loops, a covariance quadratic form, central differences) or is a
one-point form of a batched function.  The package itself never calls
them; they live here so that every test checks against the same copy.
"""

from __future__ import annotations

import numpy as np

from sixdma_isac.channel import channel_matrix
from sixdma_isac.isac import _check_dims
from sixdma_isac.nn import Mlp


# ------------------------------------------------------------------ channel
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


# ------------------------------------------------------------------ isac
def oracle_sinr(channels, precoder, noise):
    """Per-receiver SINR from explicit loops over streams and antennas."""
    m_count, n_count = channels.shape
    out = []
    for m in range(m_count):
        sig = abs(sum(precoder[n, m].conjugate() * channels[m, n] for n in range(n_count))) ** 2
        interf = 0.0
        for i in range(m_count):
            if i != m:
                interf += abs(sum(precoder[n, i].conjugate() * channels[m, n] for n in range(n_count))) ** 2
        out.append(sig / (interf + noise))
    return np.array(out)


def oracle_sensing(channels, precoder, noise):
    """Per-target sensing SNR from explicit loops over beams and antennas."""
    j_count, n_count = channels.shape
    out = []
    for j in range(j_count):
        total = 0.0
        for m in range(precoder.shape[1]):
            total += abs(sum(channels[j, n] * precoder[n, m] for n in range(n_count))) ** 2
        out.append(total / noise)
    return np.array(out)


def sensing_snr_quadratic(channels_target, precoder, sigma_s_sq: float) -> np.ndarray:
    """Sensing SNR via the transmit covariance quadratic form.

    Forms C = sum_m w_m w_m^H explicitly and evaluates h_j C h_j^H; equal
    to :func:`sixdma_isac.isac.sensing_snr` up to rounding.
    """
    h = np.asarray(channels_target, dtype=complex)
    w = np.asarray(precoder, dtype=complex)
    _check_dims(h, w)
    if sigma_s_sq <= 0:
        raise ValueError("sigma_s_sq must be positive")
    cov = w @ w.conj().T
    values = np.einsum("jn,nk,jk->j", h, cov, h.conj())
    return values.real / sigma_s_sq


# ------------------------------------------------------------------ nn
def flatten_grads(grads) -> list[np.ndarray]:
    out = []
    for dw, db in grads:
        out.extend([dw, db])
    return out


def layer_pass(net: Mlp, x) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``(pre, post)`` of ``net`` at the (batch, in) or vector input ``x`` by
    plain expressions: each layer's pre-activation, and the input (as one
    row when a vector) followed by each layer's output."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    pre, post = [], [h]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = h @ w.T + b
        h = np.maximum(z, 0.0) if act == "relu" else np.tanh(z) if act == "tanh" else z
        pre.append(z)
        post.append(h)
    return pre, post


def backward_from_pre_activations(net: Mlp, x, upstream) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """``(grads, input_grad)`` as :meth:`Mlp.backward` returns them, for a
    (batch, in) ``x``, by a loop that takes each ReLU slope from the
    pre-activation (``z > 0``) rather than from the layer output."""
    pre, post = layer_pass(net, x)
    g = np.asarray(upstream, dtype=float)
    grads = []
    for k in range(len(net.weights) - 1, -1, -1):
        if net.activations[k] == "relu":
            g = g * (pre[k] > 0.0)
        elif net.activations[k] == "tanh":
            g = g * (1.0 - np.square(post[k + 1]))
        grads.append((g.T @ post[k], g.sum(axis=0)))
        g = g @ net.weights[k]
    return grads[::-1], g


def finite_difference_gradients(net: Mlp, x, upstream, h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of sum(upstream * output) per parameter.

    Independent of :meth:`Mlp.backward`; used as the reference when
    checking the analytic gradients.
    """
    arr = np.asarray(x, dtype=float)
    up = np.asarray(upstream, dtype=float)

    def loss() -> float:
        return float(np.sum(net.forward(arr) * up))

    fd = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            plus = loss()
            p[idx] = orig - h
            minus = loss()
            p[idx] = orig
            g[idx] = (plus - minus) / (2.0 * h)
            it.iternext()
        fd.append(g)
    return fd


def max_relative_gradient_error(net: Mlp, x, upstream, h: float = 1e-5) -> float:
    """Worst-case elementwise mismatch between analytic and FD gradients.

    Each element is compared as |a - f| / max(|a|, |f|, 1e-6) so that
    near-zero gradients do not inflate the ratio.
    """
    out, cache = net.forward_cached(x)
    grads, _ = net.backward(cache, np.broadcast_to(np.asarray(upstream, dtype=float), np.shape(out)))
    analytic = flatten_grads(grads)
    reference = finite_difference_gradients(net, x, upstream, h=h)
    worst = 0.0
    for a, f in zip(analytic, reference):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / scale)))
    return worst
