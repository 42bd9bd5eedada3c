"""Minimal dense network core: forward, backward, Adam.

Sized for small actor/critic networks (two hidden layers, a few hundred
units).  Everything is float64 so finite-difference gradient checks stay
tight.  An ``Mlp`` is mutated only by its owning trainer; inference on a
frozen copy is safe from any thread.

Each ``Mlp`` keeps all of its parameters in one contiguous vector,
``Mlp.flat``, laid out as w0, b0, w1, b1, ...; ``weights[k]`` and
``biases[k]`` (and so ``parameters()``) are views into it.  ``Adam`` keeps
its moments flat in the same layout, so one optimizer step (and one soft
target update) is a fixed handful of in-place ufuncs over one array per
network, whatever its depth.

``Mlp.backward`` computes only the gradients its caller asks for: the
parameter gradients, written into one flat vector in the ``flat`` layout,
and/or the gradient with respect to the network input.  Dropping the input
gradient skips the first layer's ``g @ W0``; dropping the parameter
gradients skips every weight and bias product.

``Mlp.forward`` and ``Mlp.forward_cached`` run one layer loop that applies
each activation in place.  ``forward`` keeps no cache, and a vector in gives
a vector out; ``forward_cached`` keeps each layer's output for ``backward``,
which takes every activation's slope from the output alone.
"""

from __future__ import annotations

import math
import threading

import numpy as np

ACTIVATIONS = ("relu", "tanh", "linear")
# Adam's moment decay rates and denominator floor (Kingma and Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Elementwise passes over flat vectors go this many elements at a time, so
# the operands of a chain of in-place ufuncs stay in cache between them.
CHUNK = 16384
# Work arrays of at least this many elements (128 KiB, glibc's default
# mmap threshold) are pooled in :data:`scratch`; smaller ones are not.
POOL_MIN = 16384


class Scratch(threading.local):
    """Per-thread free lists of large float64 work arrays, keyed by shape.

    An update step allocates and drops the same large temporaries on every
    call (activations, gradients).  Freed, glibc hands blocks this large
    back to the OS (it unmaps them or trims the heap), and the next call
    faults their pages in again: a benchmark-size training run took about
    40 times as many minor page faults without the pool as with it.  Taken
    from here and given back, they stay mapped.  The pool holds at most the
    largest set of temporaries alive at once.  Arrays under ``POOL_MIN``
    elements are dropped when given back, so asking for one allocates: the
    allocator keeps those in its own bins, and pooling them would cost more
    than it saves.  Give back only arrays that nothing else references.
    """

    def __init__(self):
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        stack = self._free.get(shape)
        return stack.pop() if stack else np.empty(shape)

    def give(self, *arrays: np.ndarray) -> None:
        for arr in arrays:
            if arr.size >= POOL_MIN:
                self._free.setdefault(arr.shape, []).append(arr)


scratch = Scratch()


def _spans(shapes) -> list[tuple[int, int, tuple[int, ...]]]:
    """(start, stop, shape) of arrays laid back to back in one flat vector."""
    spans, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        spans.append((start, stop, tuple(shape)))
        start = stop
    return spans


def _views(flat: np.ndarray, spans) -> list[np.ndarray]:
    """Views of ``flat`` at the given :func:`_spans`."""
    return [flat[start:stop].reshape(shape) for start, stop, shape in spans]


def _param_shapes(dims) -> list[tuple[int, ...]]:
    shapes = []
    for din, dout in zip(dims[:-1], dims[1:]):
        shapes.extend([(dout, din), (dout,)])
    return shapes


class Mlp:
    """Fully-connected network: affine layers with per-layer activations.

    ``dims`` is the chain (input, hidden..., output); ``activations`` has
    one entry per affine layer.  Weights are (out, in) and inputs may be a
    single vector or a (batch, in) matrix.
    """

    def __init__(self, dims, activations, rng: np.random.Generator, final_scale: float = 1.0):
        dims = [int(d) for d in dims]
        if len(dims) < 2:
            raise ValueError("need at least an input and an output dimension")
        if len(activations) != len(dims) - 1:
            raise ValueError("one activation per affine layer required")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        self.dims = dims
        self.activations = list(activations)
        self._bind(np.empty(sum(math.prod(s) for s in _param_shapes(dims))))
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
            if k == len(dims) - 2 and final_scale != 1.0:
                w *= final_scale
                b *= final_scale

    def _bind(self, flat: np.ndarray) -> None:
        """Adopt ``flat`` as the parameter vector and rebuild the layer views."""
        self.flat = flat
        self._spans = _spans(_param_shapes(self.dims))
        self._params = _views(flat, self._spans)
        self.weights = self._params[0::2]
        self.biases = self._params[1::2]
        self._widest = max(self.dims[1:])

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    def param_count(self) -> int:
        """Total parameter count: sum of d_in*d_out + d_out over layers."""
        return self.flat.size

    def _check_input(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.input_dim:
            raise ValueError(f"expected input dim {self.input_dim}, got shape {arr.shape}")
        return arr

    def _layers(self, h: np.ndarray, outputs: list | None) -> np.ndarray:
        """The one layer loop: the output for ``h``, each activation applied
        in place.  Each layer's output is appended to ``outputs``; without
        that list, each spent intermediate goes back to :data:`scratch`.
        Work arrays come from the pool only when the widest layer reaches
        POOL_MIN elements; small calls allocate plainly."""
        pooled = h.ndim == 2 and h.shape[0] * self._widest >= POOL_MIN
        for k, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            z = np.matmul(h, w.T, out=scratch.take((h.shape[0], w.shape[0]))) if pooled else h @ w.T
            z += b
            if act == "relu":
                np.maximum(z, 0.0, out=z)
            elif act == "tanh":
                np.tanh(z, out=z)
            if outputs is not None:
                outputs.append(z)
            elif pooled and k > 0:
                scratch.give(h)
            h = z
        return h

    def forward(self, x) -> np.ndarray:
        """Output for ``x`` without a cache: a vector gives a vector, a
        (batch, in) matrix a (batch, out) one.  ``x`` is never written."""
        return self._layers(self._check_input(x), None)

    def forward_cached(self, x):
        """Forward pass returning (output, cache) for a later backward.

        The cache is ``(outputs, squeezed)``: the input followed by every
        layer's output, and whether ``x`` was a single vector.  Hand its
        arrays back with :meth:`release` once the backward pass is done.
        """
        arr = self._check_input(x)
        squeezed = arr.ndim == 1
        if squeezed:
            arr = arr[None, :]
        outputs = [arr]
        h = self._layers(arr, outputs)
        return (h[0] if squeezed else h), (outputs, squeezed)

    def backward(self, cache, upstream, param_grads: bool = True, input_grad: bool = True, out=None):
        """Backpropagate ``upstream`` (dLoss/dOutput) through the cache.

        Each activation's slope comes from its layer's output: ``1 - y**2``
        for tanh, and ``y > 0`` for ReLU, which holds exactly where the
        pre-activation is positive (for -0.0 and NaN too).

        Returns ``(grads, input_grad)``.  ``grads`` is a list of (dW, db)
        pairs aligned with the layers, views into ``out`` (a vector shaped
        like ``flat``, allocated when not given), so ``out`` can go to
        :meth:`Adam.step` as it is.  Pass ``param_grads=False`` or
        ``input_grad=False`` to skip that part; it is then returned as None.
        """
        if not (param_grads or input_grad):
            raise ValueError("backward needs parameter gradients, the input gradient or both")
        outputs, squeezed = cache
        g = np.asarray(upstream, dtype=float)
        if squeezed:
            g = g[None, :]
        if g.shape != (outputs[0].shape[0], self.output_dim):
            raise ValueError(f"upstream gradient shape {g.shape} does not match output")
        grads = None
        if param_grads:
            if out is None:
                out = np.empty_like(self.flat)
            elif out.shape != self.flat.shape:
                raise ValueError(f"gradient vector shape {out.shape} does not match {self.flat.shape}")
            views = _views(out, self._spans)
            grads = list(zip(views[0::2], views[1::2]))
        rows = g.shape[0]
        pooled = rows * self._widest >= POOL_MIN  # as in _layers
        owned = False  # g may still be the caller's array; never write into it
        for k in range(len(self.weights) - 1, -1, -1):
            act = self.activations[k]
            if act != "linear":
                if act == "relu":
                    slope = outputs[k + 1] > 0.0
                else:
                    slope = np.square(outputs[k + 1])
                    np.subtract(1.0, slope, out=slope)
                if owned:
                    g *= slope
                else:
                    g = np.multiply(g, slope, out=scratch.take(g.shape)) if pooled else g * slope
                    owned = True
            if param_grads:
                dw, db = grads[k]
                np.matmul(g.T, outputs[k], out=dw)
                np.add.reduce(g, axis=0, out=db)
            if k > 0 or input_grad:
                w = self.weights[k]
                below = np.matmul(g, w, out=scratch.take((rows, w.shape[1]))) if pooled else g @ w
                if owned and pooled:
                    scratch.give(g)
                g, owned = below, True
        if not input_grad:
            if owned and pooled:
                scratch.give(g)
            return grads, None
        return grads, g[0] if squeezed else g

    def release(self, cache) -> None:
        """Give a spent cache's layer outputs, the network's output among
        them, back to :data:`scratch`; the input stays the caller's.  The
        cache is emptied, so a second release does nothing."""
        outputs, _ = cache
        scratch.give(*outputs[1:])  # arrays under POOL_MIN, allocated plainly, are dropped
        outputs.clear()

    def parameters(self) -> list[np.ndarray]:
        """Per-layer [w0, b0, w1, b1, ...], views into ``flat``."""
        return list(self._params)

    @classmethod
    def from_flat(cls, dims, activations, flat: np.ndarray) -> "Mlp":
        """The network with these layers whose parameter vector is ``flat``,
        adopted without a copy or a random initialisation."""
        net = object.__new__(cls)
        net.dims = [int(d) for d in dims]
        net.activations = list(activations)
        net._bind(flat)
        return net

    def copy(self) -> "Mlp":
        return Mlp.from_flat(self.dims, self.activations, self.flat.copy())


class Adam:
    """Bias-corrected Adam (:data:`BETA1`, :data:`BETA2`, :data:`EPS`) with
    flat moment vectors.

    The moments ``m`` and ``v`` are flat vectors as long as the given
    arrays back to back, so an ``Mlp``'s ``parameters()`` give the layout of
    its ``flat`` vector.  ``moments`` adopts saved ``(m, v)`` vectors without
    a copy, ``step_count`` the number of steps that made them.
    """

    def __init__(self, params, lr: float, moments=None, step_count: int = 0):
        self.lr = float(lr)
        self.step_count = int(step_count)
        size = sum(np.size(p) for p in params)
        self.m, self.v = moments if moments is not None else (np.zeros(size), np.zeros(size))

    def step(self, params, grads) -> None:
        """One update of ``params`` in place.

        ``params`` and ``grads`` are flat vectors in the optimizer's layout,
        such as ``Mlp.flat`` and a ``Mlp.backward`` gradient vector.
        """
        for arr, what in ((params, "parameter"), (grads, "gradient")):
            if not isinstance(arr, np.ndarray) or arr.shape != self.m.shape:
                raise ValueError(f"{what} vector does not match the optimizer's flat layout")
        self.step_count += 1
        b1c = 1.0 - BETA1**self.step_count
        b2c = 1.0 - BETA2**self.step_count
        # Same per-element operations, in the same order, as
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
        # p -= lr * (m/b1c) / (sqrt(v/b2c) + eps)
        # taken a cache-sized chunk at a time.
        tmp = np.empty(min(CHUNK, params.size))
        delta = np.empty_like(tmp)
        for lo in range(0, params.size, CHUNK):
            hi = min(lo + CHUNK, params.size)
            p, gk, m, v = params[lo:hi], grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
            t, d = tmp[: hi - lo], delta[: hi - lo]
            np.multiply(gk, 1.0 - BETA1, out=t)
            m *= BETA1
            m += t
            np.multiply(gk, 1.0 - BETA2, out=t)
            t *= gk
            v *= BETA2
            v += t
            np.divide(v, b2c, out=t)
            np.sqrt(t, out=t)
            t += EPS
            np.divide(m, b1c, out=d)
            d *= self.lr
            d /= t
            p -= d
