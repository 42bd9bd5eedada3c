import os

import numpy as np
import pytest

from sixdma_isac.errors import ProtocolError
from sixdma_isac.nn import Mlp
from sixdma_isac.rl import CHECKPOINT_VERSION, NoiseSchedule, ReplayBuffer, Td3Agent


def make_agent(obs_dim=4, action_dim=2, hidden=(16, 16), seed=0, **kwargs):
    critic_in = kwargs.pop("critic_input_dim", obs_dim + action_dim)
    return Td3Agent(
        obs_dim,
        action_dim,
        critic_in,
        hidden=hidden,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


class TestSelectAction:
    def test_deterministic_without_noise(self):
        agent = make_agent()
        obs = np.ones(4)
        a1 = agent.select_action(obs)
        a2 = agent.select_action(obs)
        np.testing.assert_array_equal(a1, a2)

    def test_zero_std_equals_deterministic(self):
        agent = make_agent()
        obs = np.ones(4)
        np.testing.assert_array_equal(agent.select_action(obs, 0.0), agent.select_action(obs))

    def test_noisy_actions_stay_in_bounds(self):
        agent = make_agent()
        rng = np.random.default_rng(1)
        obs = np.ones(4)
        for _ in range(1000):
            a = agent.select_action(obs, noise_std=2.0, rng=rng)
            assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_inner_components_not_rescaled(self):
        agent = make_agent()
        a = agent.select_action(np.zeros(4))
        assert np.all(np.abs(a) < 1.0)  # tanh head, no clipping applied


class TestTdTargets:
    def test_gamma_zero_returns_reward(self):
        agent = make_agent(gamma=0.0)
        y = agent.td_targets([1.5, -2.0], np.zeros((2, 6)), [0.0, 0.0])
        np.testing.assert_array_equal(y, [1.5, -2.0])

    def test_min_of_twin_targets(self):
        agent = make_agent(gamma=0.99)
        # force the target critics to constants 2 and 5
        for net, value in ((agent.target_critic1, 2.0), (agent.target_critic2, 5.0)):
            for w in net.weights:
                w[...] = 0.0
            for b in net.biases:
                b[...] = 0.0
            net.biases[-1][...] = value
        y = agent.td_targets([1.0], np.zeros((1, 6)), [0.0])
        assert y[0] == pytest.approx(1.0 + 0.99 * 2.0)

    def test_done_cuts_bootstrap(self):
        agent = make_agent(gamma=0.99)
        y = agent.td_targets([3.0], np.ones((1, 6)), [1.0])
        assert y[0] == 3.0

    def test_min_selection_matches_elementwise_comparison(self):
        agent = make_agent(gamma=0.5, seed=3)
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(32, 6))
        q1 = agent.target_critic1.forward(inputs).reshape(-1)
        q2 = agent.target_critic2.forward(inputs).reshape(-1)
        y = agent.td_targets(np.zeros(32), inputs, np.zeros(32))
        np.testing.assert_allclose(y, 0.5 * np.minimum(q1, q2))


class TestCriticUpdate:
    def test_perfect_fit_has_zero_loss_and_no_movement(self):
        agent = make_agent(seed=5)
        rng = np.random.default_rng(6)
        inputs = rng.normal(size=(8, 6))
        targets = agent.critic1.forward(inputs).reshape(-1)
        # give critic2 the same parameters so both fit exactly
        agent.critic2.copy_from(agent.critic1)
        before = [p.copy() for p in agent.critic1.parameters()]
        loss1, loss2 = agent.critic_update(inputs, targets)
        assert loss1 == 0.0 and loss2 == 0.0
        for b, p in zip(before, agent.critic1.parameters()):
            np.testing.assert_array_equal(b, p)

    def test_single_sample_loss_is_squared_error(self):
        agent = make_agent(seed=7)
        inputs = np.ones((1, 6))
        q = agent.critic1.forward(inputs)[0, 0]
        target = q + 3.0
        loss1, _ = agent.critic_update(inputs, [target])
        assert loss1 == pytest.approx(9.0)

    def test_loss_decreases_on_fixed_batch(self):
        agent = make_agent(seed=8)
        rng = np.random.default_rng(9)
        inputs = rng.normal(size=(32, 6))
        targets = rng.normal(size=32)
        first, _ = agent.critic_update(inputs, targets)
        for _ in range(199):
            last, _ = agent.critic_update(inputs, targets)
        assert last < first

    def test_gamma_zero_linear_critic_converges_to_least_squares(self):
        agent = make_agent(hidden=(), gamma=0.0, lr_critic=1e-2, seed=10)
        rng = np.random.default_rng(11)
        inputs = rng.normal(size=(64, 6))
        rewards = rng.normal(size=64)
        x = np.hstack([inputs, np.ones((64, 1))])
        beta, *_ = np.linalg.lstsq(x, rewards, rcond=None)
        for _ in range(3000):
            agent.critic_update(inputs, rewards)
        w = np.concatenate([agent.critic1.weights[0].ravel(), agent.critic1.biases[0]])
        np.testing.assert_allclose(w, beta, atol=1e-3)


class TestActorUpdate:
    def test_delay_contract(self):
        agent = make_agent(policy_delay=2, seed=12)
        rng = np.random.default_rng(13)
        actor_updates = 0
        for _ in range(100):
            agent.critic_update(rng.normal(size=(4, 6)), rng.normal(size=4))
            if agent.should_update_actor():
                agent.actor_update(rng.normal(size=(4, 4)), rng.normal(size=(4, 6)), slice(4, 6))
                actor_updates += 1
        assert actor_updates == 50
        assert agent.actor_update_count == 50

    def test_off_cadence_raises(self):
        agent = make_agent(policy_delay=2)
        agent.critic_update(np.zeros((2, 6)), np.zeros(2))  # count 1, 1 % 2 != 0
        with pytest.raises(ProtocolError):
            agent.actor_update(np.zeros((2, 4)), np.zeros((2, 6)), slice(4, 6))

    def test_constant_critic_gives_zero_actor_gradient(self):
        agent = make_agent(seed=14)
        for w in agent.critic1.weights:
            w[...] = 0.0
        for b in agent.critic1.biases:
            b[...] = 0.0
        agent.critic1.biases[-1][...] = 4.2
        before = [p.copy() for p in agent.actor.parameters()]
        agent.critic_update_count = 2  # satisfy the cadence
        loss = agent.actor_update(np.ones((4, 4)), np.zeros((4, 6)), slice(4, 6))
        assert loss == pytest.approx(-4.2)
        for b, p in zip(before, agent.actor.parameters()):
            np.testing.assert_array_equal(b, p)

    def test_critic_parameters_untouched_by_actor_update(self):
        agent = make_agent(seed=15)
        rng = np.random.default_rng(16)
        agent.critic_update(rng.normal(size=(4, 6)), rng.normal(size=4))
        agent.critic_update(rng.normal(size=(4, 6)), rng.normal(size=4))
        critic_before = [p.copy() for p in agent.critic1.parameters()]
        agent.actor_update(rng.normal(size=(4, 4)), rng.normal(size=(4, 6)), slice(4, 6))
        for b, p in zip(critic_before, agent.critic1.parameters()):
            np.testing.assert_array_equal(b, p)

    def test_toy_actor_converges_to_critic_optimum(self):
        # critic representing -(a - 0.5)^2 is learned first from data, then
        # the actor must climb it to 0.5 within tolerance
        agent = make_agent(obs_dim=1, action_dim=1, hidden=(32, 32), seed=17,
                           lr_actor=1e-3, lr_critic=1e-3, critic_input_dim=2)
        rng = np.random.default_rng(18)
        for _ in range(3000):
            a = rng.uniform(-1.0, 1.0, size=(64, 1))
            inputs = np.hstack([np.zeros((64, 1)), a])
            targets = -((a[:, 0] - 0.5) ** 2)
            agent.critic_update(inputs, targets)
        obs = np.zeros((64, 1))
        template = np.zeros((64, 2))
        for _ in range(2000):
            agent.critic_update_count = agent.policy_delay  # keep cadence open
            agent.actor_update(obs, template, slice(1, 2))
        out = agent.actor.forward(np.zeros(1))[0]
        assert out == pytest.approx(0.5, abs=0.05)


class TestSoftUpdate:
    def test_tau_one_copies_exactly(self):
        agent = make_agent(seed=19)
        agent.soft_update(1.0)
        for name in ("actor", "critic1", "critic2"):
            online = getattr(agent, name)
            target = getattr(agent, f"target_{name}")
            for a, b in zip(online.parameters(), target.parameters()):
                np.testing.assert_array_equal(a, b)

    def test_small_tau_is_convex_combination(self):
        agent = make_agent(seed=20)
        rng = np.random.default_rng(21)
        agent.critic_update(rng.normal(size=(4, 6)), rng.normal(size=4))  # move online nets
        online = [p.copy() for p in agent.critic1.parameters()]
        target = [p.copy() for p in agent.target_critic1.parameters()]
        agent.soft_update(0.01)
        for o, t, t_new in zip(online, target, agent.target_critic1.parameters()):
            np.testing.assert_allclose(t_new, 0.01 * o + 0.99 * t, rtol=1e-12, atol=1e-15)

    def test_tau_zero_rejected(self):
        agent = make_agent()
        with pytest.raises(ProtocolError):
            agent.soft_update(0.0)

    def test_targets_only_change_through_soft_update(self):
        agent = make_agent(seed=22)
        rng = np.random.default_rng(23)
        snapshot = [p.copy() for p in agent.target_critic1.parameters()]
        for _ in range(5):
            agent.critic_update(rng.normal(size=(4, 6)), rng.normal(size=4))
        for s, p in zip(snapshot, agent.target_critic1.parameters()):
            np.testing.assert_array_equal(s, p)
        agent.soft_update()
        changed = any(
            not np.array_equal(s, p) for s, p in zip(snapshot, agent.target_critic1.parameters())
        )
        assert changed


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for k in range(4):
            buf.push({"x": np.array([float(k)])})
        assert len(buf) == 3
        batch, _ = buf.sample(3, np.random.default_rng(0))
        assert set(batch["x"].ravel()) == {1.0, 2.0, 3.0}

    def test_full_sample_is_permutation(self):
        buf = ReplayBuffer(capacity=8)
        for k in range(5):
            buf.push({"x": np.array([float(k)])})
        batch, _ = buf.sample(5, np.random.default_rng(1))
        assert sorted(batch["x"].ravel()) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_sampling_is_deterministic_given_seed(self):
        buf = ReplayBuffer(capacity=100)
        for k in range(50):
            buf.push({"x": np.array([float(k)])})
        _, idx1 = buf.sample(10, np.random.default_rng(7))
        _, idx2 = buf.sample(10, np.random.default_rng(7))
        np.testing.assert_array_equal(idx1, idx2)

    def test_unpushed_rows_read_zero(self):
        buf = ReplayBuffer(capacity=5)
        buf.push({"x": np.array([1.0, 2.0]), "r": 3.0})
        fields = buf.state_arrays()
        np.testing.assert_array_equal(fields["field_x"], [[1.0, 2.0]] + [[0.0, 0.0]] * 4)
        np.testing.assert_array_equal(fields["field_r"], [3.0, 0.0, 0.0, 0.0, 0.0])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_storage_is_not_shared_with_a_forked_child(self):
        buf = ReplayBuffer(capacity=4)
        buf.push({"x": np.array([1.0])})
        pid = os.fork()
        if pid == 0:  # the child writes its own copy only
            buf.push({"x": np.array([7.0])})
            os._exit(0)
        os.waitpid(pid, 0)
        np.testing.assert_array_equal(buf.state_arrays()["field_x"].ravel(), [1.0, 0.0, 0.0, 0.0])

    def test_underfull_buffer_signals_not_ready(self):
        buf = ReplayBuffer(capacity=10)
        buf.push({"x": np.array([1.0])})
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_prioritized_sampling_prefers_high_priority(self):
        buf = ReplayBuffer(capacity=10, prioritized=True, alpha=1.0)
        for k in range(10):
            buf.push({"x": np.array([float(k)])})
        buf.update_priorities(np.arange(10), np.full(10, 1e-6))
        buf.update_priorities([3], [1e3])
        batch, idx = buf.sample(64, np.random.default_rng(2))
        assert np.mean(idx == 3) > 0.9

    def test_state_round_trip(self):
        buf = ReplayBuffer(capacity=6)
        for k in range(4):
            buf.push({"x": np.array([float(k)]), "r": float(k) * 2.0})
        clone = ReplayBuffer(capacity=6)
        clone.load_arrays(buf.state_arrays())
        assert len(clone) == len(buf)
        b1, i1 = buf.sample(4, np.random.default_rng(3))
        b2, i2 = clone.sample(4, np.random.default_rng(3))
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(b1["x"], b2["x"])
        np.testing.assert_array_equal(b1["r"], b2["r"])


class TestNoiseSchedule:
    def test_linear_decay_and_floor(self):
        sched = NoiseSchedule(initial_std=0.5, floor_std=0.05, decay_episodes=600)
        assert sched.std(0) == 0.5
        assert sched.std(300) == pytest.approx(0.275)
        assert sched.std(600) == pytest.approx(0.05)
        assert sched.std(10_000) == pytest.approx(0.05)

    def test_monotone_non_increasing(self):
        sched = NoiseSchedule()
        stds = [sched.std(e) for e in range(0, 700, 7)]
        assert all(a >= b for a, b in zip(stds, stds[1:]))


class TestCheckpoints:
    def test_save_load_round_trip(self, tmp_path):
        agent = make_agent(seed=24)
        rng = np.random.default_rng(25)
        for _ in range(4):
            agent.critic_update(rng.normal(size=(4, 6)), rng.normal(size=4))
        agent.soft_update()
        agent.save(tmp_path / "agent")
        loaded = Td3Agent.load(tmp_path / "agent")
        assert loaded.critic_update_count == agent.critic_update_count
        for name in ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2"):
            for a, b in zip(getattr(agent, name).parameters(), getattr(loaded, name).parameters()):
                np.testing.assert_array_equal(a, b)
        obs = rng.normal(size=4)
        np.testing.assert_array_equal(agent.select_action(obs), loaded.select_action(obs))
        assert loaded.opt_critic1.step_count == agent.opt_critic1.step_count

    def test_loaded_and_soft_updated_networks_alias_their_flat_vector(self, tmp_path):
        agent = make_agent(seed=26)
        agent.soft_update(0.5)
        agent.save(tmp_path / "agent")
        loaded = Td3Agent.load(tmp_path / "agent")
        for owner in (agent, loaded):
            for name in ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2"):
                net = getattr(owner, name)
                for p in net.parameters():
                    assert np.shares_memory(p, net.flat)

    def test_loaded_agent_continues_bit_identically(self, tmp_path):
        agent = make_agent(seed=27, policy_delay=1)
        rng = np.random.default_rng(28)
        for _ in range(3):
            agent.critic_update(rng.normal(size=(8, 6)), rng.normal(size=8))
            agent.actor_update(rng.normal(size=(8, 4)), rng.normal(size=(8, 6)), slice(4, 6))
            agent.soft_update()
        agent.save(tmp_path / "agent")
        loaded = Td3Agent.load(tmp_path / "agent")
        obs, inputs, targets = rng.normal(size=(8, 4)), rng.normal(size=(8, 6)), rng.normal(size=8)
        for a in (agent, loaded):
            a.critic_update(inputs, targets)
            a.actor_update(obs, inputs, slice(4, 6))
            a.soft_update()
        for name in ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2"):
            np.testing.assert_array_equal(getattr(agent, name).flat, getattr(loaded, name).flat)
        for opt in ("opt_actor", "opt_critic1", "opt_critic2"):
            np.testing.assert_array_equal(getattr(agent, opt).m, getattr(loaded, opt).m)
            np.testing.assert_array_equal(getattr(agent, opt).v, getattr(loaded, opt).v)

    def test_loads_a_per_layer_optimizer_file(self, tmp_path):
        agent = make_agent(seed=29)
        agent.save(tmp_path / "agent")
        assert CHECKPOINT_VERSION == 1
        # optimizers.npz as the per-layer writer lays it out: one m{k} and
        # v{k} array per parameter array, actor and critics prefixed.
        rng = np.random.default_rng(30)
        arrays, expected = {}, {}
        for prefix, net in (("actor_", agent.actor), ("critic1_", agent.critic1), ("critic2_", agent.critic2)):
            arrays[f"{prefix}meta"] = np.array([1e-3, 0.8, 0.99, 1e-7, 12.0])
            for name in ("m", "v"):
                layers = [np.abs(rng.normal(size=p.shape)) for p in net.parameters()]
                arrays.update({f"{prefix}{name}{k}": layer for k, layer in enumerate(layers)})
                expected[prefix + name] = np.concatenate([layer.ravel() for layer in layers])
        np.savez(tmp_path / "agent" / "optimizers.npz", **arrays)
        loaded = Td3Agent.load(tmp_path / "agent")
        for prefix in ("actor_", "critic1_", "critic2_"):
            opt = getattr(loaded, f"opt_{prefix[:-1]}")
            assert (opt.lr, opt.beta1, opt.beta2, opt.eps, opt.step_count) == (1e-3, 0.8, 0.99, 1e-7, 12)
            np.testing.assert_array_equal(opt.m, expected[prefix + "m"])
            np.testing.assert_array_equal(opt.v, expected[prefix + "v"])
        loaded.save(tmp_path / "again")
        with np.load(tmp_path / "again" / "optimizers.npz") as saved:
            assert sorted(saved.files) == sorted(arrays)
            for key in arrays:
                np.testing.assert_array_equal(saved[key], arrays[key])
