"""Minimal dense network core: forward, backward, Adam, checkpoints.

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
"""

from __future__ import annotations

import math
import threading

import numpy as np

ACTIVATIONS = ("relu", "tanh", "linear")
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

    def _check_input(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=float)
        squeezed = arr.ndim == 1
        if squeezed:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.input_dim:
            raise ValueError(f"expected input dim {self.input_dim}, got shape {arr.shape}")
        return arr, squeezed

    def forward(self, x) -> np.ndarray:
        out, cache = self.forward_cached(x)
        self.release(cache, keep=cache[1][-1])
        return out

    def forward_cached(self, x):
        """Forward pass returning (output, cache) for a later backward.

        The cache is ``(pre, post, squeezed)``: per-layer pre-activations,
        the input followed by per-layer activations, and whether ``x`` was
        a single vector.  Hand its arrays back with :meth:`release` once
        the backward pass is done.
        """
        arr, squeezed = self._check_input(x)
        rows = arr.shape[0]
        # Work arrays come from the pool only when the widest layer reaches
        # POOL_MIN elements; small calls (batch-1 inference) allocate plainly.
        pooled = rows * self._widest >= POOL_MIN
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [arr]
        h = arr
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = np.matmul(h, w.T, out=scratch.take((rows, w.shape[0]))) if pooled else h @ w.T
            z += b
            if act == "relu":
                h = np.maximum(z, 0.0, out=scratch.take(z.shape)) if pooled else np.maximum(z, 0.0)
            elif act == "tanh":
                h = np.tanh(z, out=scratch.take(z.shape)) if pooled else np.tanh(z)
            else:
                h = z
            pre.append(z)
            post.append(h)
        out = h[0] if squeezed else h
        return out, (pre, post, squeezed)

    def backward(self, cache, upstream, param_grads: bool = True, input_grad: bool = True, out=None):
        """Backpropagate ``upstream`` (dLoss/dOutput) through the cache.

        Returns ``(grads, input_grad)``.  ``grads`` is a list of (dW, db)
        pairs aligned with the layers, views into ``out`` (a vector shaped
        like ``flat``, allocated when not given), so ``out`` can go to
        :meth:`Adam.step` as it is.  Pass ``param_grads=False`` or
        ``input_grad=False`` to skip that part; it is then returned as None.
        """
        if not (param_grads or input_grad):
            raise ValueError("backward needs parameter gradients, the input gradient or both")
        pre, post, squeezed = cache
        g = np.asarray(upstream, dtype=float)
        if squeezed:
            g = g[None, :]
        if g.shape != (post[0].shape[0], self.output_dim):
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
        pooled = rows * self._widest >= POOL_MIN  # as in forward_cached
        owned = False  # g may still be the caller's array; never write into it
        for k in range(len(self.weights) - 1, -1, -1):
            act = self.activations[k]
            if act != "linear":
                if act == "relu":
                    slope = pre[k] > 0.0
                else:
                    slope = np.square(post[k + 1])
                    np.subtract(1.0, slope, out=slope)
                if owned:
                    g *= slope
                else:
                    g = np.multiply(g, slope, out=scratch.take(g.shape)) if pooled else g * slope
                    owned = True
            if param_grads:
                dw, db = grads[k]
                np.matmul(g.T, post[k], out=dw)
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

    def release(self, cache, keep=None) -> None:
        """Give a spent cache's work arrays back to :data:`scratch`.

        ``keep`` (an activation the caller still uses, such as the output)
        stays out.  The cache is emptied, so a second release does nothing.
        """
        pre, post, _ = cache
        if pre and pre[0].shape[0] * self._widest >= POOL_MIN:  # else nothing came from the pool
            for z, h in zip(pre, post[1:]):
                if z is not keep:
                    scratch.give(z)
                if h is not z and h is not keep:
                    scratch.give(h)
        pre.clear()
        post.clear()

    def parameters(self) -> list[np.ndarray]:
        """Per-layer [w0, b0, w1, b1, ...], views into ``flat``."""
        return list(self._params)

    def copy(self) -> "Mlp":
        dup = object.__new__(Mlp)
        dup.dims = list(self.dims)
        dup.activations = list(self.activations)
        dup._bind(self.flat.copy())
        return dup

    def copy_from(self, other: "Mlp") -> None:
        if other.dims != self.dims:
            raise ValueError(f"cannot copy a {other.dims} network into a {self.dims} one")
        np.copyto(self.flat, other.flat)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat layer_dims/activation header plus row-major parameter arrays."""
        arrays = {
            "layer_dims": np.asarray(self.dims, dtype=np.int64),
            "activations": np.asarray([ACTIVATIONS.index(a) for a in self.activations], dtype=np.int64),
        }
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{k}"] = w
            arrays[f"b{k}"] = b
        return arrays

    def save(self, path) -> None:
        np.savez(path, **self.state_arrays())

    @classmethod
    def from_arrays(cls, arrays) -> "Mlp":
        dims = [int(d) for d in np.asarray(arrays["layer_dims"])]
        acts = [ACTIVATIONS[int(i)] for i in np.asarray(arrays["activations"])]
        shapes = _param_shapes(dims)
        params = []
        for k in range(len(dims) - 1):
            params.extend([np.asarray(arrays[f"w{k}"], dtype=float), np.asarray(arrays[f"b{k}"], dtype=float)])
        if [p.shape for p in params] != shapes:
            raise ValueError("checkpoint arrays do not match the layer-dims header")
        net = object.__new__(cls)
        net.dims = dims
        net.activations = acts
        net._bind(np.concatenate([p.ravel() for p in params]))
        return net

    @classmethod
    def load(cls, path) -> "Mlp":
        with np.load(path) as arrays:
            return cls.from_arrays(arrays)


class Adam:
    """Bias-corrected Adam with flat moment vectors.

    ``params`` fixes the layout: the moments ``m`` and ``v`` are flat
    vectors holding the given arrays back to back, so an ``Mlp``'s
    ``parameters()`` give the layout of its ``flat`` vector.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.shapes = [np.shape(p) for p in params]
        self._spans = _spans(self.shapes)
        size = sum(math.prod(s) for s in self.shapes)
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params, grads) -> None:
        """One update of ``params`` in place.

        ``params`` and ``grads`` are flat vectors in the optimizer's layout,
        such as ``Mlp.flat`` and a ``Mlp.backward`` gradient vector.
        """
        for arr, what in ((params, "parameter"), (grads, "gradient")):
            if not isinstance(arr, np.ndarray) or arr.shape != self.m.shape:
                raise ValueError(f"{what} vector does not match the optimizer's flat layout")
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
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
            np.multiply(gk, 1.0 - self.beta1, out=t)
            m *= self.beta1
            m += t
            np.multiply(gk, 1.0 - self.beta2, out=t)
            t *= gk
            v *= self.beta2
            v += t
            np.divide(v, b2c, out=t)
            np.sqrt(t, out=t)
            t += self.eps
            np.divide(m, b1c, out=d)
            d *= self.lr
            d /= t
            p -= d

    def state_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Meta row plus per-layer ``m{k}``/``v{k}`` arrays."""
        arrays = {
            f"{prefix}meta": np.array([self.lr, self.beta1, self.beta2, self.eps, float(self.step_count)])
        }
        for k, (m, v) in enumerate(zip(_views(self.m, self._spans), _views(self.v, self._spans))):
            arrays[f"{prefix}m{k}"] = m
            arrays[f"{prefix}v{k}"] = v
        return arrays

    def load_arrays(self, arrays, prefix: str = "") -> None:
        meta = np.asarray(arrays[f"{prefix}meta"])
        moments = {}
        for name in ("m", "v"):
            layers = [np.asarray(arrays[f"{prefix}{name}{k}"], dtype=float) for k in range(len(self.shapes))]
            if [a.shape for a in layers] != self.shapes:
                raise ValueError(f"optimizer state {prefix}{name}* does not match the parameter layout")
            moments[name] = layers
        self.lr, self.beta1, self.beta2, self.eps = (float(x) for x in meta[:4])
        self.step_count = int(meta[4])
        for name, flat in (("m", self.m), ("v", self.v)):
            for dst, src in zip(_views(flat, self._spans), moments[name]):
                dst[...] = src


def flatten_grads(grads) -> list[np.ndarray]:
    out = []
    for dw, db in grads:
        out.extend([dw, db])
    return out


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
