import copy
import io
import json
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sixdma_isac import hdrl
from sixdma_isac.env import IsacEnv, desk_scenario, benchmark_scenario
from sixdma_isac.errors import ConfigError, ProtocolError
from sixdma_isac.nn import Mlp
from sixdma_isac.rl import SMOOTHING_CLIP, VECTORS, AgentSettings, ReplayBuffer, Td3Agent
from sixdma_isac.hdrl import (
    AgentRoster,
    EpisodeMetrics,
    TrainConfig,
    desk_train_config,
    evaluate,
    percentile_leq,
    profile_latency,
    train,
    _learn,
    _transition,
)


def tiny_config(**overrides):
    base = dict(episodes=2, batch_size=8, hidden=(8, 8), explore_episodes=2,
                buffer_capacity=500, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def replay(steps):
    """A replay buffer holding ``steps`` pushed as ``train`` pushes them, and
    the arrays pushed.  Each step is (observations, actions, next
    observations, rewards, done), the first four with one entry per agent.
    The arrays are lists with one array per agent, a row per step, under
    ``obs``, ``act``, ``next_obs`` and ``reward``, and the flags under ``done``."""
    buffer = ReplayBuffer(len(steps))
    for obs, act, next_obs, rewards, done in steps:
        buffer.push(_transition(list(zip(obs, act)), next_obs, rewards, done))
    obs, act, next_obs, rewards, done = zip(*steps)
    per_agent = {key: [np.array(agent) for agent in zip(*column)]
                 for key, column in (("obs", obs), ("act", act), ("next_obs", next_obs), ("reward", rewards))}
    return buffer, {**per_agent, "done": np.array(done)}


def fast_buffer(roster, size, rng):
    """:func:`replay` of ``size`` random fast transitions: UAV agents 0..M-1, then the beam agent."""
    m, obs_beam, act_beam = roster.num_uavs, roster.beam_agent.obs_dim, roster.beam_agent.action_dim
    steps = []
    for _ in range(size):
        uav_obs, uav_act = rng.normal(size=(m, 10)), rng.uniform(-1.0, 1.0, size=(m, 4))
        beam_obs, beam_act = rng.normal(size=obs_beam), rng.uniform(-1.0, 1.0, size=act_beam)
        rewards_uav, reward_beam = rng.normal(size=m), rng.normal()
        next_uav_obs, next_beam_obs = rng.normal(size=(m, 10)), rng.normal(size=obs_beam)
        steps.append(([*uav_obs, beam_obs], [*uav_act, beam_act], [*next_uav_obs, next_beam_obs],
                      [*rewards_uav, reward_beam], float(rng.random() < 0.3)))
    return replay(steps)


def pose_buffer(roster, size, rng):
    """:func:`replay` of ``size`` random surface-agent transitions."""
    obs_pose = roster.pose_agent.obs_dim
    steps = []
    for _ in range(size):
        obs, action, reward = rng.normal(size=obs_pose), rng.uniform(-1.0, 1.0, size=6), rng.normal()
        steps.append(([obs], [action], [rng.normal(size=obs_pose)], [reward], float(rng.random() < 0.3)))
    return replay(steps)


def fast_agents(roster):
    return [agent for _, agent in roster.fast_agents()]


class TestLayout:
    def test_benchmark_dimension_arithmetic(self, tmp_path):
        scenario = benchmark_scenario()
        roster = AgentRoster(scenario, tiny_config())
        # 4*(10+4) + 56 + 32
        assert [agent.critic_input_dim for agent in fast_agents(roster)] == [144] * 5
        assert (roster.beam_agent.obs_dim, roster.beam_agent.action_dim, roster.pose_agent.obs_dim) == (56, 32, 15)
        batch = fast_buffer(roster, 3, np.random.default_rng(0))[0].sample(3, np.random.default_rng(1))
        assert {key: value.shape for key, value in batch.items()} == {
            "row": (3, 144), "next_row": (3, 144), "reward": (3, 5), "done": (3,)}
        roster.save(tmp_path / "roster")
        manifest = json.loads((tmp_path / "roster" / "roster.json").read_text())
        counts = {f"{name}.{count}": 0 for name in ("uav_0", "uav_1", "uav_2", "uav_3", "beam", "sixdma")
                  for count in ("critic_update_count", "actor_update_count")}
        assert manifest == {"version": 3, "scheme": 1, "num_uavs": 4, **tiny_config().agent_settings(),
                            "hidden": [8, 8], **counts}

    def test_order_is_each_agents_observation_then_action(self):
        pairs = [(np.arange(10.0), np.arange(4.0) + 100), (np.arange(10.0, 20.0), np.arange(4.0) + 104),
                 (np.array([200.0, 201.0, 202.0]), np.array([300.0, 301.0]))]
        next_obs = [np.arange(10.0) + 500, np.arange(10.0) + 600, np.array([700.0, 701.0, 702.0])]
        transition = _transition(pairs, next_obs, [1.0, 2.0, 3.0], True)
        assert list(transition) == ["row", "next_row", "reward", "done"]
        np.testing.assert_array_equal(transition["row"], [*range(10), 100, 101, 102, 103, *range(10, 20),
                                                          104, 105, 106, 107, 200, 201, 202, 300, 301])
        np.testing.assert_array_equal(transition["next_row"], [*range(500, 510), 0, 0, 0, 0, *range(600, 610),
                                                               0, 0, 0, 0, 700, 701, 702, 0, 0])
        assert transition["reward"] == [1.0, 2.0, 3.0] and transition["done"] == 1.0

    def test_train_pushes_each_slot_as_the_critics_row(self, monkeypatch):
        """The fast row holds UAV 0..M-1, then the beam agent; the pose row
        the surface agent's observation at the window's start and its action."""
        slots, pushed = [], {"fast": [], "pose": []}
        rollout, push = hdrl._rollout, ReplayBuffer.push

        def spy_rollout(*args, **kwargs):
            for slot in rollout(*args, **kwargs):
                slots.append(copy.deepcopy(slot))
                yield slot

        def spy_push(buffer, transition):
            pushed["fast" if buffer.capacity == 500 else "pose"].append(copy.deepcopy(transition))
            push(buffer, transition)

        monkeypatch.setattr(hdrl, "_rollout", spy_rollout)
        monkeypatch.setattr(ReplayBuffer, "push", spy_push)
        scenario = desk_scenario()
        train(scenario, tiny_config(episodes=1, pose_buffer_capacity=100))
        assert len(pushed["fast"]) == len(slots) == scenario.num_slots
        for (obs, _, uav_actions, beam_action, outcome, next_obs), fast in zip(slots, pushed["fast"]):
            np.testing.assert_array_equal(fast["row"], np.hstack(
                [obs.uav[0], uav_actions[0], obs.uav[1], uav_actions[1], obs.beam, beam_action]))
            np.testing.assert_array_equal(fast["next_row"], np.hstack(
                [next_obs.uav[0], np.zeros(4), next_obs.uav[1], np.zeros(4), next_obs.beam,
                 np.zeros_like(beam_action)]))
            np.testing.assert_array_equal(fast["reward"], [*outcome.rewards_uav, outcome.reward_beam])
            assert fast["done"] == float(outcome.done)
        starts = [k for k, slot in enumerate(slots) if slot[1] is not None]
        assert starts == scenario.pose_decision_slots() and len(pushed["pose"]) == len(starts)
        for start, end, pose in zip(starts, [*starts[1:], len(slots)], pushed["pose"]):
            obs, action = slots[start][0], slots[start][1]
            np.testing.assert_array_equal(pose["row"], np.hstack([obs.sixdma, action]))
            np.testing.assert_array_equal(pose["next_row"], np.hstack([slots[end - 1][5].sixdma, np.zeros(6)]))
            assert np.shape(pose["reward"]) == (1,) and pose["done"] == float(slots[end - 1][4].done)

    @pytest.mark.parametrize("scheme", [1, 2])
    def test_actor_sees_its_own_action_slice(self, monkeypatch, scheme):
        """Under the shared critic agent k's action sits after the pairs of
        agents 0..k-1 and its own observation; under scheme 2 right after
        its own observation."""
        roster = AgentRoster(desk_scenario(), tiny_config(scheme=scheme, policy_delay=1))
        buffer, drawn = fast_buffer(roster, 12, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        idx = copy.deepcopy(rng).choice(12, size=8, replace=False)  # the batch ReplayBuffer.sample draws
        seen = []
        original = Td3Agent.actor_update

        def record(agent, obs, critic_inputs, action_slice):
            seen.append((agent, np.array(obs), np.array(critic_inputs), action_slice))
            return original(agent, obs, critic_inputs, action_slice)

        monkeypatch.setattr(Td3Agent, "actor_update", record)
        _learn(fast_agents(roster), buffer, 8, rng)
        own_obs, own_act = [o[idx] for o in drawn["obs"]], [a[idx] for a in drawn["act"]]
        assert [agent for agent, *_ in seen] == fast_agents(roster)
        offset = 0
        for k, (agent, obs, inputs, action_slice) in enumerate(seen):
            start = (offset if scheme != 2 else 0) + agent.obs_dim
            assert action_slice == slice(start, start + agent.action_dim)
            assert inputs.shape == (8, agent.critic_input_dim)
            np.testing.assert_array_equal(obs, own_obs[k])
            np.testing.assert_array_equal(inputs[:, start - agent.obs_dim:start], own_obs[k])
            np.testing.assert_array_equal(inputs[:, action_slice], own_act[k])
            offset += agent.obs_dim + agent.action_dim
        if scheme != 2:
            assert offset == roster.beam_agent.critic_input_dim  # the pairs fill the shared input

    def test_scheme2_critics_see_only_their_own_pair(self, monkeypatch):
        """Each agent's observations are filled with 10k and its actions with
        10k + 1: a scheme 2 or surface-agent critic, its targets and its
        actor see agent k's values and no other agent's."""
        roster = AgentRoster(desk_scenario(), tiny_config(scheme=2, policy_delay=1))
        agents = fast_agents(roster) + [roster.pose_agent]
        for agent in agents:
            assert agent.critic_input_dim == agent.obs_dim + agent.action_dim
        marked = [(np.full(a.obs_dim, 10.0 * k), np.full(a.action_dim, 10.0 * k + 1)) for k, a in enumerate(agents)]
        fast, (pose_obs, pose_act) = marked[:-1], marked[-1]
        fast_steps = [([o for o, _ in fast], [a for _, a in fast], [o for o, _ in fast], [0.0] * len(fast), 0.0)] * 8
        pose_steps = [([pose_obs], [pose_act], [pose_obs], [0.0], 0.0)] * 8
        seen = []
        calls = {name: getattr(Td3Agent, name) for name in ("target_actions", "td_targets", "critic_update",
                                                            "actor_update")}

        def spy(name):
            def call(agent, *args):
                seen.append((agents.index(agent), name, *(a for a in args if isinstance(a, np.ndarray))))
                return calls[name](agent, *args)
            return call

        for name in calls:
            monkeypatch.setattr(Td3Agent, name, spy(name))
        _learn(agents[:-1], replay(fast_steps)[0], 8, np.random.default_rng(0))
        _learn(agents[-1:], replay(pose_steps)[0], 8, np.random.default_rng(0))
        assert sorted({(k, name) for k, name, *_ in seen}) == sorted((k, name) for k in range(len(agents))
                                                                     for name in calls)
        inputs_at = {"td_targets": 1, "critic_update": 0, "actor_update": 1}  # argument holding the critic input
        for k, name, *arrays in seen:
            obs_dim = agents[k].obs_dim
            if name in ("target_actions", "actor_update"):
                assert np.all(arrays[0] == 10.0 * k)
            if name in inputs_at:
                inputs = arrays[inputs_at[name]]
                assert inputs.shape == (8, agents[k].critic_input_dim)
                assert np.all(inputs[:, :obs_dim] == 10.0 * k)
                if name != "td_targets":  # td_targets reads the target actor's next actions there
                    assert np.all(inputs[:, obs_dim:] == 10.0 * k + 1)

    def test_scheme1_and_scheme2_share_actor_shapes(self):
        scenario = desk_scenario()
        r1 = AgentRoster(scenario, tiny_config(scheme=1))
        r2 = AgentRoster(scenario, tiny_config(scheme=2))
        assert r1.uav_agents[0].actor.dims == r2.uav_agents[0].actor.dims
        assert r1.beam_agent.actor.dims == r2.beam_agent.actor.dims
        assert r1.uav_agents[0].critic_input_dim != r2.uav_agents[0].critic_input_dim


def smoothed_target_actions(agent, next_obs, rng):
    """``Td3Agent.target_actions`` written out: target actor plus clipped
    Gaussian smoothing noise, drawn from ``rng``."""
    action = agent.target_actor.forward(next_obs)
    noise = np.clip(rng.normal(0.0, agent.smoothing_std, size=action.shape), -SMOOTHING_CLIP, SMOOTHING_CLIP)
    return np.clip(action + noise, -1.0, 1.0)


def td_target(agent, next_inputs, reward, done):
    """y = r + gamma (1 - done) min(q1', q2') from the target critics."""
    q_next = np.minimum(agent.target_critic1.forward(next_inputs), agent.target_critic2.forward(next_inputs))
    return reward + agent.gamma * (1.0 - done) * q_next[:, 0]


class TestLearnRound:
    """One round draws every agent's target actions first, in list order,
    then steps each agent's critics on its input toward the targets
    computed here by hand from the networks as they were before the round."""

    @staticmethod
    def record_round(monkeypatch):
        """Spy on target-action draws and critic steps, in call order."""
        events = []
        target_actions, critic_update = Td3Agent.target_actions, Td3Agent.critic_update

        def draw(agent, next_obs, rng=None):
            events.append(("target_actions", agent))
            return target_actions(agent, next_obs, rng)

        def step(agent, critic_inputs, targets):
            events.append(("critic_update", agent, np.array(critic_inputs), np.array(targets)))
            return critic_update(agent, critic_inputs, targets)

        monkeypatch.setattr(Td3Agent, "target_actions", draw)
        monkeypatch.setattr(Td3Agent, "critic_update", step)
        return events

    def check_round(self, events, agents, expected, rng, hand_rng):
        assert rng.bit_generator.state == hand_rng.bit_generator.state  # the same draws, no others
        assert [event[:2] for event in events] == (
            [("target_actions", agent) for agent in agents] + [("critic_update", agent) for agent in agents])
        for (_, _, inputs, targets), (want_inputs, want_targets) in zip(events[len(agents):], expected):
            np.testing.assert_array_equal(inputs, want_inputs)
            np.testing.assert_allclose(targets, want_targets, rtol=1e-12, atol=0.0)
        assert all(agent.critic_update_count == 1 for agent in agents)

    @pytest.mark.parametrize("scheme", [1, 2])
    def test_fast_batch(self, monkeypatch, scheme):
        roster = AgentRoster(desk_scenario(), tiny_config(scheme=scheme, smoothing_std=0.2))
        agents = fast_agents(roster)
        buffer, drawn = fast_buffer(roster, 40, np.random.default_rng(4))
        rng = np.random.default_rng(6)
        hand_rng = copy.deepcopy(rng)
        idx = hand_rng.choice(40, size=16, replace=False)  # the batch ReplayBuffer.sample draws
        obs, act, next_obs, rewards = ([column[idx] for column in drawn[key]]
                                       for key in ("obs", "act", "next_obs", "reward"))
        done = drawn["done"][idx]
        # smoothing noise for UAV 0..M-1, then beam, all before any critic step
        next_act = [smoothed_target_actions(agent, o, hand_rng) for agent, o in zip(agents, next_obs)]
        expected = []
        for k, agent in enumerate(agents):
            views = range(len(agents)) if scheme != 2 else [k]
            inputs = np.hstack([np.hstack([obs[i], act[i]]) for i in views])
            next_inputs = np.hstack([np.hstack([next_obs[i], next_act[i]]) for i in views])
            expected.append((inputs, td_target(agent, next_inputs, rewards[k], done)))

        events = self.record_round(monkeypatch)
        _learn(agents, buffer, 16, rng)
        self.check_round(events, agents, expected, rng, hand_rng)

    def test_pose_batch(self, monkeypatch):
        roster = AgentRoster(desk_scenario(), tiny_config(smoothing_std=0.2))
        agent = roster.pose_agent
        buffer, drawn = pose_buffer(roster, 20, np.random.default_rng(7))
        rng = np.random.default_rng(9)
        hand_rng = copy.deepcopy(rng)
        idx = hand_rng.choice(20, size=8, replace=False)  # the batch ReplayBuffer.sample draws
        (obs,), (act,), (next_obs,), (reward,) = ([column[idx] for column in drawn[key]]
                                                  for key in ("obs", "act", "next_obs", "reward"))
        next_act = smoothed_target_actions(agent, next_obs, hand_rng)
        expected = [(np.hstack([obs, act]),
                     td_target(agent, np.hstack([next_obs, next_act]), reward, drawn["done"][idx]))]

        events = self.record_round(monkeypatch)
        _learn([agent], buffer, 8, rng)
        self.check_round(events, [agent], expected, rng, hand_rng)

    def test_a_buffer_short_of_a_batch_learns_nothing(self):
        roster = AgentRoster(desk_scenario(), tiny_config())
        buffer, _ = pose_buffer(roster, 7, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        state = copy.deepcopy(rng.bit_generator.state)
        _learn([roster.pose_agent], buffer, 8, rng)
        assert roster.pose_agent.critic_update_count == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("scheme", [1, 2])
    def test_a_round_leaves_the_stored_rows_as_pushed(self, scheme):
        """Target actions go into the batch's copy of ``next_row``: the stored
        action slots stay zero and the rest of the buffer is unchanged."""
        roster = AgentRoster(desk_scenario(), tiny_config(scheme=scheme, policy_delay=1))
        buffer, _ = fast_buffer(roster, 12, np.random.default_rng(5))
        before = {key: np.array(value) for key, value in buffer.state_arrays().items()}
        _learn(fast_agents(roster), buffer, 8, np.random.default_rng(8))
        assert all(agent.critic_update_count == 1 for agent in fast_agents(roster))
        after = buffer.state_arrays()
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value)
        action_slots = np.hstack([[False] * agent.obs_dim + [True] * agent.action_dim
                                  for agent in fast_agents(roster)])
        assert not after["field_next_row"][:, action_slots].any()


class TestTrainLoop:
    def test_smoke_run_counts_windows_and_slots(self):
        scenario = desk_scenario()
        result = train(scenario, tiny_config(episodes=1))
        assert len(result.metrics) == 1
        assert result.fast_transitions == scenario.num_slots
        assert result.pose_transitions == len(scenario.pose_decision_slots())
        row = result.metrics[0]
        assert row.episode == 0
        assert np.isfinite(row.reward_beam)

    def test_transition_counts_scale_with_episodes(self):
        scenario = desk_scenario(num_slots=18, pose_update_period=4)
        result = train(scenario, tiny_config(episodes=3))
        # 18 slots -> decision slots {0,4,8,12,16}: 5 windows per episode
        assert result.pose_transitions == 3 * 5
        assert result.fast_transitions == 3 * 18

    def test_benchmark_scenario_smoke_has_six_decisions(self):
        scenario = benchmark_scenario()
        config = tiny_config(episodes=1, batch_size=4)
        result = train(scenario, config)
        assert result.scenario.pose_decision_slots() == [0, 10, 20, 30, 40, 50]
        assert len(result.metrics) == 1

    def test_determinism_same_seed(self):
        scenario = desk_scenario()
        r1 = train(scenario, tiny_config(episodes=2, seed=5))
        r2 = train(scenario, tiny_config(episodes=2, seed=5))
        assert [m.as_row() for m in r1.metrics] == [m.as_row() for m in r2.metrics]
        for (n1, a1), (n2, a2) in zip(r1.roster.all_agents(), r2.roster.all_agents()):
            assert n1 == n2
            for p, q in zip(a1.actor.parameters(), a2.actor.parameters()):
                np.testing.assert_array_equal(p, q)

    def test_different_seeds_differ(self):
        scenario = desk_scenario()
        r1 = train(scenario, tiny_config(episodes=1, seed=0))
        r2 = train(scenario, tiny_config(episodes=1, seed=1))
        assert [m.as_row() for m in r1.metrics] != [m.as_row() for m in r2.metrics]

    def test_scheme5_never_moves_pose(self):
        scenario = desk_scenario()
        records = []

        class Capture:
            def write(self, line):
                records.append(line)

        train(scenario, tiny_config(episodes=1, scheme=5), episode_log=Capture())
        import json

        for line in records:
            rec = json.loads(line)
            assert rec["surface_center"] == [0.0, 0.0, 20.0]
            assert rec["surface_angles"] == [0.0, 0.0, 0.0]

    def test_scheme1_scheme5_diff_only_in_pose(self):
        import json

        scenario = desk_scenario()

        def capture(scheme):
            records = []

            class Capture:
                def write(self, line):
                    records.append(json.loads(line))

            train(scenario, tiny_config(episodes=1, scheme=scheme), episode_log=Capture())
            return records

        rec1 = capture(1)
        rec5 = capture(5)
        pose_deltas_1 = any(
            r["surface_center"] != [0.0, 0.0, 20.0] or r["surface_angles"] != [0.0, 0.0, 0.0]
            for r in rec1
        )
        pose_deltas_5 = any(
            r["surface_center"] != [0.0, 0.0, 20.0] or r["surface_angles"] != [0.0, 0.0, 0.0]
            for r in rec5
        )
        assert pose_deltas_1 and not pose_deltas_5

    def test_actor_update_cadence(self):
        scenario = desk_scenario()
        config = tiny_config(episodes=3, batch_size=8)
        result = train(scenario, config)
        for _, agent in result.roster.fast_agents():
            expected = agent.critic_update_count // config.policy_delay
            assert agent.actor_update_count == expected

    def test_snapshot_resume_matches_straight_run(self, tmp_path):
        scenario = desk_scenario()
        config = tiny_config(episodes=4, seed=9)
        straight = train(scenario, config)
        snap_dir = tmp_path / "snap"
        train(scenario, tiny_config(episodes=2, seed=9), snapshot_dir=snap_dir, snapshot_interval=2)
        resumed = train(scenario, config, resume_from=snap_dir)
        assert [m.as_row() for m in straight.metrics] == [m.as_row() for m in resumed.metrics]
        # the counts cover the episodes before the resume too: 4 x 20 slots, 4 x 4 windows
        assert (resumed.fast_transitions, resumed.pose_transitions) == (80, 16)
        assert (straight.fast_transitions, straight.pose_transitions) == (80, 16)
        for (_, a1), (_, a2) in zip(straight.roster.all_agents(), resumed.roster.all_agents()):
            for p, q in zip(a1.actor.parameters(), a2.actor.parameters()):
                np.testing.assert_array_equal(p, q)

    def test_resume_snapshotting_into_its_own_directory_matches_a_straight_run(self, tmp_path):
        # batch 16 outruns the 12 pose windows of 3 episodes: the pose agent
        # never learns, so only the resume's read gives its saves the learner
        # state of the snapshot they replace
        scenario, config = desk_scenario(), tiny_config(episodes=3, seed=11, batch_size=16)
        straight = train(scenario, config)
        assert straight.roster.pose_agent.critic_update_count == 0
        snap_dir = tmp_path / "snap"
        train(scenario, tiny_config(episodes=1, seed=11, batch_size=16), snapshot_dir=snap_dir, snapshot_interval=1)
        resumed = train(scenario, config, snapshot_dir=snap_dir, snapshot_interval=1, resume_from=snap_dir)
        assert [m.as_row() for m in resumed.metrics] == [m.as_row() for m in straight.metrics]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["snap"]  # no staged or retired copy left
        reloaded = AgentRoster.load(snap_dir / "roster", scenario, config)  # the last snapshot, after episode 3
        reloaded.read_learner_state()
        for roster in (resumed.roster, reloaded):
            for (name, a), (_, b) in zip(straight.roster.all_agents(), roster.all_agents()):
                assert (b.critic_update_count, b.actor_update_count) == (a.critic_update_count, a.actor_update_count)
                for net in NETWORKS:
                    assert getattr(a, net).flat.tobytes() == getattr(b, net).flat.tobytes(), (name, net)
                for opt in OPTIMIZERS:
                    x, y = getattr(a, opt), getattr(b, opt)
                    assert y.step_count == x.step_count, (name, opt)
                    assert (y.m.tobytes(), y.v.tobytes()) == (x.m.tobytes(), x.v.tobytes()), (name, opt)

    def test_a_crash_inside_a_snapshot_leaves_the_previous_one_whole(self, tmp_path, monkeypatch):
        scenario, config, snap_dir = desk_scenario(), tiny_config(episodes=3, seed=3, batch_size=16), tmp_path / "snap"
        straight = train(scenario, config)
        savez, pose_writes = np.savez, []

        def crash_in_the_second_pose_buffer_write(file, **arrays):
            if Path(getattr(file, "name", file)).name == "pose_buffer.npz":  # a path, or an open file
                pose_writes.append(file)
                if len(pose_writes) == 2:
                    raise OSError("simulated crash")
            savez(file, **arrays)

        monkeypatch.setattr(np, "savez", crash_in_the_second_pose_buffer_write)
        with pytest.raises(OSError, match="simulated crash"):  # the roster and fast buffer of episode 2 are written
            train(scenario, config, snapshot_dir=snap_dir, snapshot_interval=1)
        monkeypatch.undo()
        assert (snap_dir.parent / "snap.new" / "roster").is_dir()  # the torn one
        resumed = train(scenario, config, resume_from=snap_dir)
        assert [m.as_row() for m in resumed.metrics] == [m.as_row() for m in straight.metrics]
        assert hdrl.snapshot_episode(snap_dir) == 1  # the snapshot after episode 1, whole
        assert not (snap_dir.parent / "snap.new").exists()  # the resume removed the torn one, never read

    def test_target_smoothing_run_completes_and_repeats_bit_for_bit(self):
        scenario = desk_scenario()
        runs = [train(scenario, tiny_config(episodes=3, smoothing_std=0.2)) for _ in range(2)]
        plain = train(scenario, tiny_config(episodes=3))
        assert [m.as_row() for m in runs[0].metrics] == [m.as_row() for m in runs[1].metrics]
        assert [m.as_row() for m in runs[0].metrics] != [m.as_row() for m in plain.metrics]
        for (_, a1), (_, a2) in zip(runs[0].roster.all_agents(), runs[1].roster.all_agents()):
            for p, q in zip(a1.critic1.parameters(), a2.critic1.parameters()):
                np.testing.assert_array_equal(p, q)

    def test_snapshot_resume_refuses_other_settings(self, tmp_path):
        snap_dir = tmp_path / "snap"
        train(desk_scenario(p_max=0.04), tiny_config(seed=1, lr_critic=5e-4),
              snapshot_dir=snap_dir, snapshot_interval=2)
        with pytest.raises(ConfigError) as err:
            train(desk_scenario(p_max=0.01), tiny_config(episodes=3, seed=7, lr_critic=0.1), resume_from=snap_dir)
        message = str(err.value)
        for change in ("scenario.p_max 0.04 -> 0.01", "train.seed 1 -> 7", "train.lr_critic 0.0005 -> 0.1"):
            assert change in message
        assert message.count(" -> ") == 3

    def test_snapshot_without_recorded_settings_is_refused(self, tmp_path):
        snap_dir = tmp_path / "snap"
        train(desk_scenario(), tiny_config(), snapshot_dir=snap_dir, snapshot_interval=2)
        state_path = snap_dir / "train_state.json"
        state = json.loads(state_path.read_text())
        del state["config"]
        state_path.write_text(json.dumps(state))
        with pytest.raises(ConfigError, match="records no run settings"):
            train(desk_scenario(), tiny_config(episodes=3), resume_from=snap_dir)

    def test_rows_equal_the_sums_of_their_slot_records(self):
        scenario = desk_scenario()
        log = io.StringIO()
        result = train(scenario, tiny_config(episodes=3, seed=2), episode_log=log)
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        env = IsacEnv(scenario)
        k, period = scenario.num_slots, scenario.pose_update_period
        assert len(records) == 3 * k
        for row in result.metrics:
            slots = [r for r in records if r["episode"] == row.episode]
            assert [r["slot"] for r in slots] == list(range(k))
            windows = [slots[start:start + period] for start in range(0, k, period)]
            reward_uav = reward_beam = reward_pose = rate = snr = 0.0
            for window in windows:
                reward, _ = env.pose_window_reward([r["sum_rate"] for r in window],
                                                   [r["pointing_angle"] for r in window],
                                                   window[0]["epsilon2"])
                reward_pose += reward
            for r in slots:
                reward_uav += float(np.mean(r["rewards_uav"]))
                reward_beam += r["reward_beam"]
                rate += r["sum_rate"]
                snr += r["mean_target_snr"]
            assert row == EpisodeMetrics(
                episode=row.episode,
                reward_uav=reward_uav,
                reward_beam=reward_beam,
                reward_pose=reward_pose,
                sum_rate=rate / k,
                mean_snr=snr / k,
                collisions=sum(r["epsilon1"] for r in slots),
                blockages=sum(window[0]["epsilon2"] for window in windows),
            )


def hand_driven_rollout(roster, scenario, seed):
    """The noise-free evaluation row of ``roster`` without its episode and
    seed labels, driven slot by slot through the env's public calls."""
    env = IsacEnv(scenario, scheme=roster.scheme)
    env.reset(seed=seed)
    obs = env.observations()
    trajectory = [env.state.uav_positions.tolist()]
    rate = snr = reward_beam = 0.0
    feasible = collisions = blockages = 0
    for _ in range(scenario.num_slots):
        if env.is_pose_slot():
            action = roster.pose_agent.select_action(obs.sixdma)
            blockages += env.apply_6dma_action(action[:3] * scenario.theta_max, action[3:]).epsilon2
        uav_actions = np.stack([agent.select_action(obs.uav[m]) for m, agent in enumerate(roster.uav_agents)])
        outcome = env.step_slot(uav_actions, roster.beam_agent.select_action(obs.beam))
        obs = env.observations()
        trajectory.append(env.state.uav_positions.tolist())
        rate += outcome.metrics.sum_rate
        snr += outcome.mean_target_snr
        feasible += int(outcome.mean_target_snr >= scenario.gamma_min)
        collisions += outcome.epsilon1
        reward_beam += outcome.reward_beam
    k = scenario.num_slots
    return {
        "sum_rate": rate / k,
        "mean_snr": snr / k,
        "snr_feasible_fraction": feasible / k,
        "collisions": collisions,
        "blockages": blockages,
        "reward_beam": reward_beam,
        "trajectory": trajectory,
    }


@pytest.fixture(scope="module")
def trained():
    scenario = desk_scenario()
    return train(scenario, tiny_config(episodes=2))


class TestEvaluate:
    def test_row_and_aggregate_structure(self, trained):
        report = evaluate(trained.roster, trained.scenario, episodes=3)
        assert list(report) == ["scheme", "episodes", "seeds", "rows", "aggregate"]
        assert len(report["rows"]) == 3 and all("trajectory" in row for row in report["rows"])
        assert set(report["aggregate"]) >= {"sum_rate", "mean_snr", "snr_feasible_fraction"}

    def test_deterministic_given_seeds(self, trained):
        r1 = evaluate(trained.roster, trained.scenario, episodes=2)
        r2 = evaluate(trained.roster, trained.scenario, episodes=2)
        assert r1 == r2

    def test_evaluation_reads_no_clock(self, trained, monkeypatch):
        # decision latency is profile_latency's; evaluation used to time every decision as well
        reads = []
        monkeypatch.setattr(hdrl.time, "perf_counter", lambda: reads.append(1) or 0.0)
        evaluate(trained.roster, trained.scenario, episodes=1)
        assert reads == []

    def test_row_equals_a_hand_driven_rollout(self, trained):
        row = evaluate(trained.roster, trained.scenario, episodes=1, seeds=[7])["rows"][0]
        assert row == {"episode": 0, "seed": 7, **hand_driven_rollout(trained.roster, trained.scenario, seed=7)}

    def test_every_seed_repeats_the_hand_driven_rollout(self, trained):
        expected = hand_driven_rollout(trained.roster, trained.scenario, seed=0)
        rows = evaluate(trained.roster, trained.scenario, episodes=3, seeds=[7, 0, 13])["rows"]
        assert rows == [{"episode": k, "seed": seed, **expected} for k, seed in enumerate([7, 0, 13])]

    def test_the_rollout_runs_once_for_any_number_of_episodes(self, trained, monkeypatch):
        calls = []
        step_slot = IsacEnv.step_slot
        monkeypatch.setattr(IsacEnv, "step_slot", lambda env, *args: calls.append(1) or step_slot(env, *args))
        report = evaluate(trained.roster, trained.scenario, episodes=5)
        assert len(calls) == trained.scenario.num_slots and len(report["rows"]) == 5

    def test_each_row_owns_its_trajectory(self, trained):
        rows = evaluate(trained.roster, trained.scenario, episodes=3)["rows"]
        untouched = copy.deepcopy(rows[1:])
        rows[0]["trajectory"][1][0][2] += 1.0
        rows[0]["trajectory"].append([])
        assert rows[1:] == untouched

    def test_trajectories_have_full_length(self, trained):
        report = evaluate(trained.roster, trained.scenario, episodes=1)
        traj = report["rows"][0]["trajectory"]
        assert len(traj) == trained.scenario.num_slots + 1
        assert len(traj[0]) == trained.scenario.num_uavs


NETWORKS = ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2")
OPTIMIZERS = ("opt_actor", "opt_critic1", "opt_critic2")


def state_bytes(roster) -> int:
    """Bytes of every parameter vector and Adam moment of a roster."""
    total = 0
    for _, agent in roster.all_agents():
        total += sum(getattr(agent, name).flat.nbytes for name in NETWORKS)
        total += sum(getattr(agent, opt).m.nbytes + getattr(agent, opt).v.nbytes for opt in OPTIMIZERS)
    return total


class TestRosterCheckpoints:
    @pytest.mark.parametrize("scheme", [1, 2, 5])
    def test_round_trip_is_bitwise(self, tmp_path, scheme):
        scenario = desk_scenario()
        config = tiny_config(scheme=scheme, episodes=3)  # enough pose windows for surface-agent updates
        roster = train(scenario, config).roster
        roster.save(tmp_path / "roster")
        assert sorted(path.name for path in (tmp_path / "roster").iterdir()) == ["roster.json", "roster.npz"]
        with np.load(tmp_path / "roster" / "roster.npz") as arrays:
            assert arrays.files == [f"{name}.{key}" for name, _ in roster.all_agents() for key in VECTORS]
            np.testing.assert_array_equal(arrays["beam.opt_critic2_v"], roster.beam_agent.opt_critic2.v)
        loaded = AgentRoster.load(tmp_path / "roster", scenario, config)
        assert [name for name, _ in loaded.all_agents()] == [name for name, _ in roster.all_agents()]
        loaded.read_learner_state()
        for (name, a), (_, b) in zip(roster.all_agents(), loaded.all_agents()):
            assert a.critic_update_count > 0
            assert (b.critic_update_count, b.actor_update_count) == (a.critic_update_count, a.actor_update_count)
            for net in NETWORKS:
                assert getattr(a, net).flat.tobytes() == getattr(b, net).flat.tobytes(), (name, net)
            for opt in OPTIMIZERS:
                x, y = getattr(a, opt), getattr(b, opt)
                assert (y.lr, y.step_count) == (x.lr, x.step_count)
                assert (y.m.tobytes(), y.v.tobytes()) == (x.m.tobytes(), x.v.tobytes()), (name, opt)

    @pytest.mark.parametrize("saved_scheme, scenario_overrides, config_overrides, pattern", [
        (1, {}, {"hidden": (16, 16)}, r"has hidden \(8, 8\), the config implies \(16, 16\)$"),
        (1, {}, {"lr_critic": 5e-4}, "^checkpoint .* has lr_critic 0.0003, the config implies 0.0005$"),
        (1, {"num_targets": 1, "target_positions": [(8.0, 2.0, 22.0)]}, {}, r"holds beam\.actor of shape"),
        (2, {"num_targets": 1, "target_positions": [(8.0, 2.0, 22.0)]}, {"scheme": 2}, r"holds beam\.actor of shape"),
        (1, {}, {"scheme": 3}, "has scheme 1"),
        (1, {"num_uavs": 1, "uav_starts": [(10.0, -25.0, 22.0)], "uav_ends": [(10.0, 25.0, 22.0)]}, {},
         "has num_uavs 2"),
    ])
    def test_mismatch_is_a_config_error_naming_the_field(self, tmp_path, saved_scheme, scenario_overrides,
                                                          config_overrides, pattern):
        AgentRoster(desk_scenario(), tiny_config(scheme=saved_scheme)).save(tmp_path / "roster")
        with pytest.raises(ConfigError, match=pattern):
            AgentRoster.load(tmp_path / "roster", desk_scenario(**scenario_overrides), tiny_config(**config_overrides))

    def test_load_builds_no_network_by_initialisation(self, tmp_path, monkeypatch):
        scenario, config = desk_scenario(), tiny_config()
        roster = AgentRoster(scenario, config)
        roster.save(tmp_path / "roster")

        def refuse(*args, **kwargs):
            raise AssertionError("Mlp.__init__ called during a load")

        monkeypatch.setattr(Mlp, "__init__", refuse)
        loaded = AgentRoster.load(tmp_path / "roster", scenario, config)
        obs = np.linspace(-1.0, 1.0, roster.beam_agent.obs_dim)
        np.testing.assert_array_equal(loaded.beam_agent.select_action(obs), roster.beam_agent.select_action(obs))

    def test_load_holds_about_one_copy_of_the_checkpoint(self, tmp_path):
        scenario, config = desk_scenario(), desk_train_config()
        AgentRoster(scenario, config).save(tmp_path / "roster")
        tracemalloc.start()
        try:
            loaded = AgentRoster.load(tmp_path / "roster", scenario, config)
            loaded.read_learner_state()
            held = state_bytes(loaded)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * held

    def test_load_evaluate_and_profile_read_no_learner_state(self, tmp_path, monkeypatch):
        scenario, snapshot = desk_scenario(), tmp_path / "snap"
        train(scenario, tiny_config(episodes=1), snapshot_dir=snapshot, snapshot_interval=1)
        reads = []
        original = np.lib.npyio.NpzFile.__getitem__

        def spy(npz, key):
            if Path(npz.zip.filename).name == "roster.npz":  # not a replay buffer's
                reads.append(key)
            return original(npz, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spy)
        loaded = AgentRoster.load(snapshot / "roster", scenario, tiny_config(episodes=1))
        evaluate(loaded, scenario, episodes=1)
        profile_latency(loaded, calls=5)
        assert sorted(reads) == sorted(f"{name}.actor" for name, _ in loaded.all_agents())

        # a resume reads every vector of every agent before it learns
        reads.clear()
        reads_at_each_round = []
        learn = hdrl._learn

        def spied_learn(*args):
            reads_at_each_round.append(sorted(reads))
            return learn(*args)

        monkeypatch.setattr(hdrl, "_learn", spied_learn)
        train(scenario, tiny_config(episodes=2), resume_from=snapshot)
        assert reads_at_each_round[0] == sorted(f"{name}.{key}" for name, _ in loaded.all_agents() for key in VECTORS)

    def test_load_keeps_the_constructor_checks(self, tmp_path):
        scenario, config = desk_scenario(), tiny_config()
        AgentRoster(scenario, config).save(tmp_path / "roster")
        manifest_path = tmp_path / "roster" / "roster.json"
        manifest = json.loads(manifest_path.read_text())
        manifest_path.write_text(json.dumps({**manifest, "gamma": 1.5}))
        with pytest.raises(ConfigError, match="gamma"):
            AgentRoster.load(tmp_path / "roster", scenario, config)
        assert manifest["version"] == hdrl.CHECKPOINT_VERSION == 3
        manifest_path.write_text(json.dumps({**manifest, "version": 2, "gamma": "0.9"}))  # the version first
        with pytest.raises(ConfigError, match="is version 2; .* train the run afresh"):
            AgentRoster.load(tmp_path / "roster", scenario, config)

    @pytest.mark.parametrize("setting, value, message", [
        ("gamma", 1.0, r"gamma must lie in \[0, 1\), got 1.0"), ("tau", 0.0, r"tau must lie in \(0, 1\], got 0.0"),
        ("policy_delay", 0, "policy_delay must be >= 1, got 0"), ("lr_actor", 0.0, "lr_actor must be > 0, got 0.0"),
        ("lr_critic", -1e-4, "lr_critic must be > 0"), ("smoothing_std", -0.1, "smoothing_std must be >= 0"),
        ("hidden", (16, 0), "hidden must hold widths >= 1, got "),
    ])
    def test_a_load_refuses_a_setting_out_of_range(self, tmp_path, setting, value, message):
        scenario, config = desk_scenario(), tiny_config()
        AgentRoster(scenario, config).save(tmp_path / "roster")
        manifest_path = tmp_path / "roster" / "roster.json"
        manifest_path.write_text(json.dumps({**json.loads(manifest_path.read_text()), setting: value}))
        with pytest.raises(ConfigError, match=f"^{message}"):
            AgentRoster.load(tmp_path / "roster", scenario, config)

    @pytest.mark.parametrize("key", ["actor", "critic2", "opt_actor_v"])
    def test_vector_unlike_its_layer_plan_is_a_config_error_naming_agent_and_vector(self, tmp_path, key):
        # the actor is checked at load, the learner state when it is read
        scenario, config = desk_scenario(), tiny_config()
        AgentRoster(scenario, config).save(tmp_path / "roster")
        path = tmp_path / "roster" / "roster.npz"
        with np.load(path) as arrays:
            vectors = {name: arrays[name] for name in arrays.files}
        other = AgentRoster(scenario, tiny_config(hidden=(4, 4))).beam_agent  # a vector of another layout
        vectors[f"beam.{key}"] = other.vectors()[key]
        np.savez(path, **vectors)
        pattern = rf"roster.npz holds beam\.{key} of shape \({vectors[f'beam.{key}'].size},\), the config implies"
        with pytest.raises(ConfigError, match=pattern):
            AgentRoster.load(tmp_path / "roster", scenario, config).read_learner_state()

    def test_load_reads_the_actors_and_leaves_the_learner_state_on_disk(self, tmp_path):
        scenario, config = desk_scenario(), tiny_config()
        roster = AgentRoster(scenario, config)
        roster.save(tmp_path / "roster")
        loaded = AgentRoster.load(tmp_path / "roster", scenario, config)
        for _, agent in loaded.all_agents():
            assert set(vars(agent)) & {"critic1", "target_actor", "opt_actor", "opt_critic2"} == set()
        loaded.read_learner_state()  # reads it all
        for (_, a), (_, b) in zip(roster.all_agents(), loaded.all_agents()):
            assert {"critic1", "target_actor", "opt_actor", "opt_critic2"} <= set(vars(b))
            np.testing.assert_array_equal(b.target_critic2.flat, a.target_critic2.flat)
            np.testing.assert_array_equal(b.opt_critic1.m, a.opt_critic1.m)

    def test_saving_an_actor_only_roster_is_a_protocol_error(self, tmp_path):
        scenario, config = desk_scenario(), tiny_config()
        AgentRoster(scenario, config).save(tmp_path / "roster")
        loaded = AgentRoster.load(tmp_path / "roster", scenario, config)
        with pytest.raises(ProtocolError, match="roster.npz holds learner state not yet read"):
            loaded.save(tmp_path / "copy")
        assert not (tmp_path / "copy").exists()

    def test_learner_state_is_read_once(self, tmp_path):
        scenario, config = desk_scenario(), tiny_config()
        AgentRoster(scenario, config).save(tmp_path / "roster")
        loaded = AgentRoster.load(tmp_path / "roster", scenario, config)
        loaded.read_learner_state()
        with pytest.raises(ProtocolError, match="holds its learner state already"):
            loaded.read_learner_state()
        with pytest.raises(ProtocolError, match="holds its learner state already"):
            AgentRoster(scenario, config).read_learner_state()  # a built roster has nothing on disk

    def test_save_over_its_own_checkpoint_keeps_every_array(self, tmp_path):
        scenario, config = desk_scenario(), tiny_config(episodes=3)
        roster = train(scenario, config).roster
        roster.save(tmp_path / "roster")
        loaded = AgentRoster.load(tmp_path / "roster", scenario, config)
        loaded.read_learner_state()
        loaded.save(tmp_path / "roster")
        roster.save(tmp_path / "reference")
        assert (tmp_path / "roster" / "roster.json").read_text() == (tmp_path / "reference" / "roster.json").read_text()
        with np.load(tmp_path / "roster" / "roster.npz") as got, np.load(tmp_path / "reference" / "roster.npz") as want:
            assert got.files == want.files
            for key in want.files:
                np.testing.assert_array_equal(got[key], want[key])


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# Per roster.json entry: values of its kind that lie outside its range; an
# update count stands for each agent's.
_OUT_OF_RANGE = {
    "hidden": st.tuples(st.integers(1, 64), st.integers(max_value=0)).map(list),
    "lr_actor": _floats(max_value=0.0),
    "lr_critic": _floats(max_value=0.0),
    "gamma": _floats(max_value=0.0, exclude_max=True) | _floats(min_value=1.0),
    "tau": _floats(max_value=0.0) | _floats(min_value=1.0, exclude_min=True),
    "policy_delay": st.integers(max_value=0),
    "smoothing_std": _floats(max_value=0.0, exclude_max=True),
    "critic_update_count": st.integers(max_value=-1),
    "actor_update_count": st.integers(max_value=-1),
}
_WHOLE_NUMBERS = ("policy_delay", "critic_update_count", "actor_update_count")
_COUNTS = ("critic_update_count", "actor_update_count")


def _bad_entry(name):
    """A roster.json key for the entry ``name`` (an agent's, for an update count) and a value of a
    wrong kind, a non-finite number or a value out of range for it."""
    wrong_kind = st.sampled_from(["0.9", "7", True, False, None, [0.9], {"value": 1}])
    non_finite = st.sampled_from([float("nan"), float("inf"), -float("inf")])
    if name == "hidden":  # a list is its kind: a wrong kind or non-finite number goes in as a width
        wrong_kind = wrong_kind | wrong_kind.map(lambda v: [16, v])
        non_finite = non_finite.map(lambda v: [16, v])
    elif name in _WHOLE_NUMBERS:
        wrong_kind = wrong_kind | st.sampled_from([2.5, -0.5])
    key = st.sampled_from(["uav_0", "uav_1", "beam", "sixdma"]).map(f"{{}}.{name}".format) if name in _COUNTS \
        else st.just(name)
    return st.tuples(key, wrong_kind | non_finite | _OUT_OF_RANGE[name])


@pytest.fixture(scope="module")
def saved_roster(tmp_path_factory):
    directory = tmp_path_factory.mktemp("roster")
    AgentRoster(desk_scenario(), tiny_config()).save(directory)
    return directory, json.loads((directory / "roster.json").read_text())


@given(entry=st.sampled_from(list(_OUT_OF_RANGE)).flatmap(_bad_entry))
@example(entry=("gamma", "0.9"))
@example(entry=("beam.critic_update_count", "7"))
@example(entry=("uav_1.actor_update_count", 2.5))
@example(entry=("sixdma.critic_update_count", -3))
def test_a_bad_roster_entry_is_a_config_error_naming_it(saved_roster, entry):
    # every setting and update count is checked by kind before range, so none escapes as a TypeError
    assert set(_OUT_OF_RANGE) == {*(f.name for f in fields(AgentSettings)), *_COUNTS}
    directory, manifest = saved_roster
    name, value = entry
    (directory / "roster.json").write_text(json.dumps({**manifest, name: value}))
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
        AgentRoster.load(directory, desk_scenario(), tiny_config())


class TestLatency:
    def test_percentile_definition(self):
        values = list(range(1, 101))
        assert percentile_leq(values, 0.99) == 99
        assert percentile_leq(values, 1.0) == 100
        assert percentile_leq([5.0], 0.99) == 5.0

    def test_zero_counts_are_config_errors(self, trained):
        # numpy used to reduce an empty sample array: a RuntimeWarning, then a ValueError
        with pytest.raises(ConfigError, match="at least one episode, got 0"):
            evaluate(trained.roster, trained.scenario, episodes=0)
        with pytest.raises(ConfigError, match="at least one call per agent, got 0"):
            profile_latency(trained.roster, calls=0)

    def test_profile_rows(self):
        scenario = desk_scenario()
        roster = AgentRoster(scenario, tiny_config())
        rows = profile_latency(roster, calls=200)
        assert [r["agent"] for r in rows] == ["uav_0", "uav_1", "beam", "sixdma"]
        for row in rows:
            assert row["p99_ms"] <= row["max_ms"]
            assert row["avg_ms"] <= row["max_ms"]
            assert row["calls"] == 200


class TestTrainConfig:
    def test_desk_preset(self):
        cfg = desk_train_config()
        assert cfg.episodes == 150 and cfg.batch_size == 64 and cfg.hidden == (64, 64)

    def test_round_trip(self):
        from sixdma_isac.hdrl import train_config_from_dict

        cfg = desk_train_config(seed=3, scheme=4)
        clone = train_config_from_dict(cfg.to_dict())
        assert clone == cfg

    def test_rejects_unknown_scheme(self):
        with pytest.raises(Exception):
            TrainConfig(scheme=7)

    @pytest.mark.parametrize("overrides, capacity", [
        ({"batch_size": 16, "pose_buffer_capacity": 8}, 8),
        ({"batch_size": 501}, 500),
        ({"batch_size": 600, "pose_buffer_capacity": 1000}, 500),
    ])
    def test_rejects_a_batch_that_a_buffer_cannot_hold(self, overrides, capacity):
        batch = overrides["batch_size"]
        message = f"^batch_size must be at most the smaller replay capacity, {capacity}, got {batch}$"
        with pytest.raises(ConfigError, match=message):
            tiny_config(**overrides)

    def test_accepts_a_batch_as_large_as_both_buffers(self):
        assert tiny_config(batch_size=8, pose_buffer_capacity=8).pose_buffer_capacity == 8
        assert tiny_config(batch_size=500).batch_size == 500
