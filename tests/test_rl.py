import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sixdma_isac.errors import ConfigError, ProtocolError, check_ranges
from sixdma_isac.nn import Mlp
from sixdma_isac.rl import AGENT_RANGES, VECTORS, AgentSettings, NoiseSchedule, ReplayBuffer, Td3Agent


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


def test_an_agent_needs_a_generator():
    # its initial weights are drawn from the caller's seeded generator, never an unseeded one
    with pytest.raises(TypeError, match="rng"):
        Td3Agent(4, 2, 6)


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

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        std=st.floats(1e-3, 3.0),
        obs=hnp.arrays(np.float64, 4, elements=st.floats(-50.0, 50.0)),
    )
    def test_noisy_action_is_the_clipped_sum_of_output_and_draw(self, seed, std, obs):
        agent = make_agent()
        expected = np.clip(agent.actor.forward(obs) + np.random.default_rng(seed).normal(0.0, std, size=2), -1.0, 1.0)
        np.testing.assert_array_equal(agent.select_action(obs, std, np.random.default_rng(seed)), expected)

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
        np.copyto(agent.critic2.flat, agent.critic1.flat)
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


def load_clone(buf, tmp_path):
    """A buffer of ``buf``'s capacity loaded from its state arrays, saved as a snapshot saves them."""
    np.savez(tmp_path / "buffer.npz", **buf.state_arrays())
    clone = ReplayBuffer(capacity=buf.capacity)
    with np.load(tmp_path / "buffer.npz") as arrays:
        clone.load_arrays(arrays)
    return clone


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for k in range(4):
            buf.push({"x": np.array([float(k)])})
        assert len(buf) == 3
        batch = buf.sample(3, np.random.default_rng(0))
        assert set(batch["x"].ravel()) == {1.0, 2.0, 3.0}

    def test_full_sample_is_permutation(self):
        buf = ReplayBuffer(capacity=8)
        for k in range(5):
            buf.push({"x": np.array([float(k)])})
        batch = buf.sample(5, np.random.default_rng(1))
        assert sorted(batch["x"].ravel()) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_sampling_is_deterministic_given_seed(self):
        buf = ReplayBuffer(capacity=100)
        for k in range(50):
            buf.push({"x": np.array([float(k)])})
        b1 = buf.sample(10, np.random.default_rng(7))
        b2 = buf.sample(10, np.random.default_rng(7))
        np.testing.assert_array_equal(b1["x"], b2["x"])

    def test_sample_takes_the_rows_of_one_uniform_draw(self):
        # saved runs replay bit-identically only while sample makes exactly this draw
        buf = ReplayBuffer(capacity=30)
        for k in range(45):  # wrapped: rows hold 30..44 then 15..29
            buf.push({"x": np.array([float(k), -float(k)])})
        rng, hand_rng = np.random.default_rng(5), np.random.default_rng(5)
        batch = buf.sample(12, rng)
        idx = hand_rng.choice(30, size=12, replace=False)
        np.testing.assert_array_equal(batch["x"], buf.state_arrays()["field_x"][idx])
        assert rng.bit_generator.state == hand_rng.bit_generator.state

    def test_state_arrays_hold_the_filled_rows_alone(self, tmp_path):
        buf = ReplayBuffer(capacity=5)
        buf.push({"x": np.array([1.0, 2.0]), "r": 3.0})
        fields = buf.state_arrays()
        np.testing.assert_array_equal(fields["field_x"], [[1.0, 2.0]])
        np.testing.assert_array_equal(fields["field_r"], [3.0])
        clone = load_clone(buf, tmp_path)  # of the full capacity, filling on from the next write row
        clone.push({"x": np.array([4.0, 5.0]), "r": 6.0})
        np.testing.assert_array_equal(clone.state_arrays()["field_x"], [[1.0, 2.0], [4.0, 5.0]])
        assert clone.capacity == 5

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_storage_is_not_shared_with_a_forked_child(self):
        buf = ReplayBuffer(capacity=4)
        buf.push({"x": np.array([1.0])})
        pid = os.fork()
        if pid == 0:  # the child writes its own copy only
            buf.push({"x": np.array([7.0])})
            os._exit(0)
        os.waitpid(pid, 0)
        np.testing.assert_array_equal(buf.state_arrays()["field_x"].ravel(), [1.0])

    def test_underfull_buffer_signals_not_ready(self):
        buf = ReplayBuffer(capacity=10)
        buf.push({"x": np.array([1.0])})
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_state_round_trip(self, tmp_path):
        buf = ReplayBuffer(capacity=6)
        for k in range(4):
            buf.push({"x": np.array([float(k)]), "r": float(k) * 2.0})
        clone = load_clone(buf, tmp_path)
        assert len(clone) == len(buf)
        b1 = buf.sample(4, np.random.default_rng(3))
        b2 = clone.sample(4, np.random.default_rng(3))
        np.testing.assert_array_equal(b1["x"], b2["x"])
        np.testing.assert_array_equal(b1["r"], b2["r"])

    def test_wrapped_buffer_keeps_evicting_oldest_after_a_round_trip(self, tmp_path):
        buf = ReplayBuffer(capacity=4)
        for k in range(6):
            buf.push({"x": np.array([float(k)])})
        clone = load_clone(buf, tmp_path)
        for store in (buf, clone):
            store.push({"x": np.array([6.0])})
        np.testing.assert_array_equal(clone.state_arrays()["field_x"].ravel(), [4.0, 5.0, 6.0, 3.0])
        for key, value in buf.state_arrays().items():
            np.testing.assert_array_equal(clone.state_arrays()[key], value)

    @pytest.mark.parametrize("transition, field", [
        ({"row": 7.0, "reward": np.ones(2)}, "row"),  # a scalar where a vector is stored
        ({"row": np.ones(3), "reward": np.ones(2), "extra": 1.0}, "extra"),
        ({"row": np.ones(3)}, "reward"),
        ({"row": np.ones(3), "reward": np.ones(3)}, "reward"),  # found after the row was checked
    ], ids=["scalar_for_vector", "extra_key", "missing_key", "late_shape_error"])
    def test_a_refused_push_names_the_field_and_writes_nothing(self, transition, field):
        buf = ReplayBuffer(capacity=3)
        for k in range(4):  # full and wrapped: the next push overwrites the oldest row
            buf.push({"row": np.full(3, float(k)), "reward": np.full(2, -float(k))})
        before = {key: value.copy() for key, value in buf.state_arrays().items()}
        with pytest.raises(ValueError, match=f"replay field '{field}'"):
            buf.push(transition)
        assert len(buf) == 3
        after = buf.state_arrays()
        assert after.keys() == before.keys()
        for key, value in before.items():  # buffer_meta holds the size and the write index
            np.testing.assert_array_equal(after[key], value)

    def test_load_from_npz_holds_one_copy(self, tmp_path):
        buf = ReplayBuffer(capacity=20_000)
        rng = np.random.default_rng(0)
        for _ in range(100):
            buf.push({"x": rng.normal(size=50), "y": rng.normal(size=49), "r": 1.0})
        np.savez(tmp_path / "buffer.npz", **buf.state_arrays())
        nbytes = sum(array.nbytes for array in buf.state_arrays().values())
        clone = ReplayBuffer(capacity=20_000)
        tracemalloc.start()
        try:
            with np.load(tmp_path / "buffer.npz") as arrays:
                clone.load_arrays(arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * nbytes  # a copying load peaks near 2x
        np.testing.assert_array_equal(clone.state_arrays()["field_x"], buf.state_arrays()["field_x"])


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


class TestSettingRanges:
    @pytest.mark.parametrize("setting, value, message", [
        ("gamma", 1.0, r"gamma must lie in \[0, 1\), got 1.0"), ("tau", 0.0, r"tau must lie in \(0, 1\], got 0.0"),
        ("policy_delay", 0, "policy_delay must be >= 1, got 0"), ("lr_actor", 0.0, "lr_actor must be > 0, got 0.0"),
        ("lr_critic", -1e-4, "lr_critic must be > 0"), ("smoothing_std", -0.1, "smoothing_std must be >= 0"),
        ("hidden", (16, 0), "hidden must hold widths >= 1, got "),
    ])
    def test_an_agent_refuses_a_setting_out_of_range(self, setting, value, message):
        # a roster load refuses one its checkpoint records (test_hdrl.py, TestRosterCheckpoints)
        with pytest.raises(ConfigError, match=f"^{message}"):
            make_agent(**{setting: value})

    def test_check_ranges_reads_the_settings_it_is_given(self):
        # the agent's table names its constructor settings alone: a training-only setting such as
        # noise_floor is the training config's to check
        assert set(AGENT_RANGES) <= {f.name for f in fields(AgentSettings)}
        check_ranges({"smoothing_std": 0.0, "noise_floor": -0.01, "unrelated": -1.0}, AGENT_RANGES)
        with pytest.raises(ConfigError, match="^smoothing_std must be >= 0, got -0.01$"):
            check_ranges({"gamma": 0.5, "smoothing_std": -0.01}, AGENT_RANGES)


NETWORKS = ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2")


class TestVectors:
    def test_vectors_are_the_networks_then_the_adam_moments_as_held(self):
        agent = make_agent(seed=24)
        vectors = agent.vectors()
        assert tuple(vectors) == VECTORS == (*NETWORKS, "opt_actor_m", "opt_actor_v", "opt_critic1_m",
                                             "opt_critic1_v", "opt_critic2_m", "opt_critic2_v")
        assert vectors["critic2"] is agent.critic2.flat and vectors["opt_critic2_v"] is agent.opt_critic2.v

    def test_an_agent_from_vectors_adopts_each_without_a_copy_or_an_initialisation(self, monkeypatch):
        agent = make_agent(seed=26)
        agent.soft_update(0.5)
        vectors = {key: value.copy() for key, value in agent.vectors().items()}

        def refuse(*args, **kwargs):
            raise AssertionError("Mlp.__init__ called")

        monkeypatch.setattr(Mlp, "__init__", refuse)
        rebuilt = Td3Agent.from_vectors(4, 2, 6, vectors, critic_update_count=4, hidden=(16, 16))
        for owner in (agent, rebuilt):
            for name in NETWORKS:
                net = getattr(owner, name)
                for p in net.parameters():
                    assert np.shares_memory(p, net.flat)
        assert all(rebuilt.vectors()[key] is vectors[key] for key in VECTORS)
        assert (rebuilt.opt_actor.step_count, rebuilt.opt_critic1.step_count) == (0, 4)  # the update counts

    def test_an_agent_from_its_actor_alone_acts_and_adopts_the_rest_later(self):
        agent = make_agent(seed=34)
        vectors = agent.vectors()
        rebuilt = Td3Agent.from_vectors(4, 2, 6, {"actor": vectors["actor"]}, hidden=(16, 16))
        assert set(vars(rebuilt)) & {"critic1", "target_actor", "opt_actor", "opt_critic2"} == set()
        obs = np.random.default_rng(35).normal(size=4)
        np.testing.assert_array_equal(rebuilt.select_action(obs), agent.select_action(obs))
        rebuilt.adopt({key: vectors[key] for key in VECTORS[1:]})
        assert all(rebuilt.vectors()[key] is vectors[key] for key in VECTORS)

    def test_an_agent_from_vectors_continues_bit_identically(self):
        agent = make_agent(seed=27, policy_delay=1)
        rng = np.random.default_rng(28)
        for _ in range(3):
            agent.critic_update(rng.normal(size=(8, 6)), rng.normal(size=8))
            agent.actor_update(rng.normal(size=(8, 4)), rng.normal(size=(8, 6)), slice(4, 6))
            agent.soft_update()
        rebuilt = Td3Agent.from_vectors(4, 2, 6, {key: value.copy() for key, value in agent.vectors().items()},
                                        critic_update_count=3, actor_update_count=3, hidden=(16, 16),
                                        policy_delay=1)
        obs, inputs, targets = rng.normal(size=(8, 4)), rng.normal(size=(8, 6)), rng.normal(size=8)
        for a in (agent, rebuilt):
            a.critic_update(inputs, targets)
            a.actor_update(obs, inputs, slice(4, 6))
            a.soft_update()
        for key in VECTORS:
            np.testing.assert_array_equal(agent.vectors()[key], rebuilt.vectors()[key])
