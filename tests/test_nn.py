import numpy as np
import pytest

from sixdma_isac.nn import (
    POOL_MIN,
    Adam,
    Mlp,
    finite_difference_gradients,
    flatten_grads,
    max_relative_gradient_error,
)


def make_net(dims, acts, seed=0, final_scale=1.0):
    return Mlp(dims, acts, np.random.default_rng(seed), final_scale=final_scale)


def net_with_safe_relu_margins(dims, acts, rng, margin=1e-3, batch=4):
    """Draw (net, input) pairs until no relu pre-activation sits within
    ``margin`` of its kink, so central differences stay valid."""
    while True:
        net = Mlp(dims, acts, rng)
        x = rng.normal(size=(batch, dims[0]))
        _, (pre, _, _) = net.forward_cached(x)
        ok = True
        for z, act in zip(pre, acts):
            if act == "relu" and np.min(np.abs(z)) < margin:
                ok = False
                break
        if ok:
            return net, x


class TestForward:
    def test_identity_network(self):
        net = make_net([3, 3], ["linear"])
        net.weights[0][...] = np.eye(3)
        net.biases[0][...] = 0.0
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(net.forward(x), x)

    def test_single_affine_layer(self):
        net = make_net([1, 1], ["linear"])
        net.weights[0][...] = [[2.0]]
        net.biases[0][...] = [1.0]
        assert net.forward([3.0])[0] == 7.0

    def test_tanh_head_is_bounded(self):
        net = make_net([4, 8, 2], ["relu", "tanh"], seed=3)
        rng = np.random.default_rng(4)
        out = net.forward(rng.normal(size=(100, 4)) * 10.0)
        assert np.all(np.abs(out) < 1.0)

    def test_dim_mismatch_rejected(self):
        net = make_net([4, 2], ["linear"])
        with pytest.raises(ValueError):
            net.forward(np.zeros(5))


class TestBackward:
    def test_single_linear_layer_outer_product(self):
        net = make_net([3, 2], ["linear"], seed=5)
        x = np.array([1.0, 2.0, -1.0])
        up = np.array([0.5, -1.5])
        _, cache = net.forward_cached(x)
        grads, input_grad = net.backward(cache, up)
        np.testing.assert_allclose(grads[0][0], np.outer(up, x))
        np.testing.assert_allclose(grads[0][1], up)
        np.testing.assert_allclose(input_grad, up @ net.weights[0])

    def test_zero_upstream_gives_zero_grads(self):
        net = make_net([3, 5, 2], ["relu", "linear"], seed=6)
        _, cache = net.forward_cached(np.ones(3))
        grads, input_grad = net.backward(cache, np.zeros(2))
        for dw, db in grads:
            assert not dw.any()
            assert not db.any()
        assert not input_grad.any()

    def test_three_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net, x = net_with_safe_relu_margins([4, 8, 8, 3], ["relu", "relu", "linear"], rng)
        up = rng.normal(size=(x.shape[0], 3))
        out, cache = net.forward_cached(x)
        analytic = flatten_grads(net.backward(cache, up)[0])
        reference = finite_difference_gradients(net, x, up, h=1e-5)
        for a, f in zip(analytic, reference):
            scale = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            assert np.max(np.abs(a - f) / scale) < 1e-4

    def test_actor_and_critic_architectures_pass_gradient_check(self):
        rng = np.random.default_rng(8)
        for k in range(20):
            if k % 2 == 0:
                dims, acts = [10, 16, 16, 4], ["relu", "relu", "tanh"]
            else:
                dims, acts = [14, 16, 16, 1], ["relu", "relu", "linear"]
            net, x = net_with_safe_relu_margins(dims, acts, rng)
            up = rng.normal(size=(x.shape[0], dims[-1]))
            assert max_relative_gradient_error(net, x, up) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net, x = net_with_safe_relu_margins([3, 6, 2], ["relu", "tanh"], rng, batch=1)
        up = rng.normal(size=(1, 2))
        _, cache = net.forward_cached(x)
        _, input_grad = net.backward(cache, up)
        h = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.shape[1]):
            xp = x.copy()
            xp[0, i] += h
            xm = x.copy()
            xm[0, i] -= h
            fd[0, i] = (np.sum(net.forward(xp) * up) - np.sum(net.forward(xm) * up)) / (2 * h)
        np.testing.assert_allclose(input_grad, fd, rtol=1e-5, atol=1e-8)


SKIP_CASES = [
    ([5, 8, 8, 3], ["relu", "relu", "tanh"]),
    ([6, 8, 8, 1], ["relu", "relu", "linear"]),
    ([4, 7, 2], ["tanh", "relu"]),
]


class TestBackwardSkips:
    @pytest.mark.parametrize("dims,acts", SKIP_CASES)
    @pytest.mark.parametrize("batch", [None, 1, 6])  # None: a single squeezed vector
    def test_partial_backward_matches_full_call(self, dims, acts, batch):
        rng = np.random.default_rng(len(dims) * 10 + (batch or 0))
        net = make_net(dims, acts, seed=18)
        shape = (dims[0],) if batch is None else (batch, dims[0])
        _, cache = net.forward_cached(rng.normal(size=shape))
        up = rng.normal(size=shape[:-1] + (dims[-1],))
        grads, input_grad = net.backward(cache, up)
        params_only, none_input = net.backward(cache, up, input_grad=False)
        none_params, input_only = net.backward(cache, up, param_grads=False)
        assert none_input is None and none_params is None
        assert input_grad.shape == shape
        np.testing.assert_array_equal(input_only, input_grad)
        for (dw, db), (dw2, db2) in zip(grads, params_only):
            assert np.array_equal(dw, dw2) and np.array_equal(db, db2)

    @pytest.mark.parametrize("dims,acts", SKIP_CASES)
    def test_gradients_land_in_the_given_flat_vector(self, dims, acts):
        rng = np.random.default_rng(19)
        net = make_net(dims, acts, seed=20)
        _, cache = net.forward_cached(rng.normal(size=(3, dims[0])))
        up = rng.normal(size=(3, dims[-1]))
        out = np.full_like(net.flat, np.nan)
        grads, _ = net.backward(cache, up, input_grad=False, out=out)
        np.testing.assert_array_equal(out, np.concatenate([g.ravel() for g in flatten_grads(grads)]))
        for dw, db in grads:
            assert np.shares_memory(dw, out) and np.shares_memory(db, out)

    def test_upstream_is_not_modified(self):
        net = make_net([3, 4, 2], ["relu", "relu"], seed=21)
        _, cache = net.forward_cached(np.random.default_rng(22).normal(size=(5, 3)))
        up = np.random.default_rng(23).normal(size=(5, 2))
        before = up.copy()
        net.backward(cache, up)
        np.testing.assert_array_equal(up, before)

    def test_bad_requests_rejected(self):
        net = make_net([3, 4, 2], ["relu", "tanh"], seed=24)
        _, cache = net.forward_cached(np.ones((2, 3)))
        with pytest.raises(ValueError):
            net.backward(cache, np.ones((2, 2)), param_grads=False, input_grad=False)
        with pytest.raises(ValueError):
            net.backward(cache, np.ones((2, 2)), out=np.zeros(net.flat.size + 1))


class TestScratchPool:
    # 128 rows x 160 units reaches POOL_MIN: these calls take their work
    # arrays from the pool and give them back.
    DIMS, ACTS, ROWS = [8, 160, 120, 4], ["relu", "relu", "tanh"], 128

    def test_pooled_forward_matches_plain_expressions(self):
        assert self.ROWS * max(self.DIMS[1:]) >= POOL_MIN
        net = make_net(self.DIMS, self.ACTS, seed=31)
        x = np.random.default_rng(32).normal(size=(self.ROWS, 8))
        for _ in range(2):  # the second pass reuses arrays the first gave back
            h = x
            for w, b, act in zip(net.weights, net.biases, net.activations):
                z = h @ w.T + b
                h = np.maximum(z, 0.0) if act == "relu" else np.tanh(z)
            np.testing.assert_array_equal(net.forward(x), h)

    def test_returned_arrays_survive_later_calls(self):
        # forward's output and backward's input gradient are the caller's:
        # later pooled calls must not write into them.
        net = make_net(self.DIMS, self.ACTS, seed=33)
        rng = np.random.default_rng(34)
        y = net.forward(rng.normal(size=(self.ROWS, 8)))
        out, cache = net.forward_cached(rng.normal(size=(self.ROWS, 8)))
        _, input_grad = net.backward(cache, np.ones_like(out))
        net.release(cache)
        held = [y.copy(), input_grad.copy()]
        for _ in range(2):
            out, cache = net.forward_cached(rng.normal(size=(self.ROWS, 8)))
            net.backward(cache, np.ones_like(out))
            net.release(cache)
            net.forward(rng.normal(size=(self.ROWS, 8)))
        np.testing.assert_array_equal(y, held[0])
        np.testing.assert_array_equal(input_grad, held[1])


def assert_params_alias_flat(net):
    assert net.flat.ndim == 1 and net.flat.size == net.param_count()
    for p in net.parameters():
        assert np.shares_memory(p, net.flat)
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in net.parameters()]), net.flat)


class TestFlatStorage:
    def test_new_copied_and_loaded_networks_alias_their_flat_vector(self, tmp_path):
        net = make_net([5, 7, 3], ["relu", "tanh"], seed=25)
        assert_params_alias_flat(net)
        dup = net.copy()
        assert_params_alias_flat(dup)
        assert not np.shares_memory(dup.flat, net.flat)
        other = make_net([5, 7, 3], ["relu", "tanh"], seed=26)
        other.copy_from(net)
        assert_params_alias_flat(other)
        np.testing.assert_array_equal(other.flat, net.flat)
        net.save(tmp_path / "net.npz")
        assert_params_alias_flat(Mlp.load(tmp_path / "net.npz"))

    def test_layer_views_write_through(self):
        net = make_net([2, 3, 1], ["relu", "linear"], seed=27)
        net.weights[1][...] = 7.0
        net.biases[0][...] = -1.0
        np.testing.assert_array_equal(net.flat[6:9], -1.0)
        np.testing.assert_array_equal(net.flat[9:12], 7.0)

    def test_copy_from_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            make_net([2, 3, 1], ["relu", "linear"]).copy_from(make_net([2, 4, 1], ["relu", "linear"]))


class TestAdam:
    def test_first_step_moves_by_learning_rate_sign(self):
        p = np.array([1.0, -1.0])
        g = np.array([0.3, -0.7])
        opt = Adam([p], lr=0.01)
        before = p.copy()
        opt.step(p, g)
        np.testing.assert_allclose(before - p, 0.01 * np.sign(g), atol=1e-6)

    def test_zero_gradient_keeps_parameters(self):
        p = np.array([1.0, 2.0])
        opt = Adam([p], lr=0.01)
        opt.step(p, np.zeros(2))
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_zero_learning_rate_keeps_parameters(self):
        p = np.array([1.0, 2.0])
        opt = Adam([p], lr=0.0)
        opt.step(p, np.array([5.0, -5.0]))
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_state_round_trips(self):
        rng = np.random.default_rng(10)
        p = [rng.normal(size=(3, 2)), rng.normal(size=3)]
        opt = Adam(p, lr=0.01)
        flat = np.concatenate([a.ravel() for a in p])
        for _ in range(5):
            opt.step(flat, np.concatenate([rng.normal(size=(3, 2)).ravel(), rng.normal(size=3)]))
        arrays = opt.state_arrays("opt_")
        clone = Adam([np.zeros((3, 2)), np.zeros(3)], lr=0.5)
        clone.load_arrays(arrays, "opt_")
        assert clone.step_count == opt.step_count
        np.testing.assert_array_equal(clone.m, opt.m)
        np.testing.assert_array_equal(clone.v, opt.v)

    def test_state_arrays_keep_the_per_layer_layout(self):
        opt = Adam([np.zeros((3, 2)), np.zeros(3)], lr=0.01)
        arrays = opt.state_arrays("opt_")
        assert sorted(arrays) == ["opt_m0", "opt_m1", "opt_meta", "opt_v0", "opt_v1"]
        assert arrays["opt_m0"].shape == (3, 2) and arrays["opt_v1"].shape == (3,)

    def test_flat_step_matches_per_layer_reference_bit_for_bit(self):
        rng = np.random.default_rng(14)
        net = make_net([5, 7, 3], ["relu", "tanh"], seed=15)
        ref_params = [p.copy() for p in net.parameters()]
        ref_m = [np.zeros_like(p) for p in ref_params]
        ref_v = [np.zeros_like(p) for p in ref_params]
        opt = Adam(net.parameters(), lr=1e-2)
        for step in range(1, 6):
            grads = [rng.normal(size=p.shape) for p in ref_params]
            opt.step(net.flat, np.concatenate([g.ravel() for g in grads]))
            b1c, b2c = 1.0 - 0.9**step, 1.0 - 0.999**step
            for p, g, m, v in zip(ref_params, grads, ref_m, ref_v):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= 1e-2 * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)
        for a, b in zip(net.parameters(), ref_params):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(opt.m, np.concatenate([m.ravel() for m in ref_m]))

    def test_mismatched_layout_rejected(self):
        opt = Adam([np.zeros((3, 2)), np.zeros(3)], lr=0.01)
        with pytest.raises(ValueError):
            opt.step(np.zeros(8), np.zeros(9))
        with pytest.raises(ValueError):
            opt.step([np.zeros((2, 3)), np.zeros(3)], [np.zeros((2, 3)), np.zeros(3)])
        with pytest.raises(ValueError):
            opt.load_arrays({"meta": np.zeros(5), "m0": np.zeros((2, 3)), "m1": np.zeros(3),
                             "v0": np.zeros((3, 2)), "v1": np.zeros(3)})


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = make_net([5, 7, 3], ["relu", "tanh"], seed=11)
        path = tmp_path / "net.npz"
        net.save(path)
        loaded = Mlp.load(path)
        assert loaded.dims == net.dims
        assert loaded.activations == net.activations
        for a, b in zip(loaded.parameters(), net.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_param_count_formula(self):
        net = make_net([10, 64, 64, 4], ["relu", "relu", "tanh"], seed=12)
        assert net.param_count() == 10 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4

    def test_final_scale_shrinks_head_layer(self):
        big = make_net([4, 8, 2], ["relu", "tanh"], seed=13)
        small = make_net([4, 8, 2], ["relu", "tanh"], seed=13, final_scale=1e-3)
        np.testing.assert_array_equal(big.weights[0], small.weights[0])
        np.testing.assert_allclose(small.weights[-1], big.weights[-1] * 1e-3)
