import numpy as np
import pytest

from sixdma_isac import geometry as geo
from sixdma_isac import isac
from sixdma_isac.env import (
    IsacEnv,
    desk_scenario,
    benchmark_scenario,
    scenario_from_dict,
)
from sixdma_isac.errors import ConfigError, InvariantError, ProtocolError


def zero_actions(env):
    cfg = env.config
    uav = np.zeros((cfg.num_uavs, 4))
    uav[:, 3] = -1.0  # speed_raw -1 -> speed 0
    beam = np.zeros(2 * cfg.num_antennas * cfg.num_uavs)
    return uav, beam


class TestConfig:
    def test_benchmark_defaults(self):
        cfg = benchmark_scenario()
        assert cfg.num_uavs == 4 and cfg.num_targets == 3 and cfg.num_antennas == 4
        assert cfg.num_slots == 60 and cfg.pose_update_period == 10
        assert cfg.slot_duration == 5.0 and cfg.v_max == 8.0 and cfg.d_min == 3.0
        assert cfg.wavelength == 0.125
        assert cfg.sigma_c_sq == pytest.approx(1e-8, rel=1e-12)
        assert cfg.p_max == 0.04
        assert cfg.gamma_min == pytest.approx(1.2589, abs=1e-4)
        assert cfg.theta_max == pytest.approx(np.radians(10.0))
        np.testing.assert_array_equal(cfg.initial_surface_center, [0.0, 0.0, 200.0])

    def test_decision_slots(self):
        cfg = benchmark_scenario()
        assert cfg.pose_decision_slots() == [0, 10, 20, 30, 40, 50]
        assert len(cfg.pose_decision_slots()) == int(np.ceil(cfg.num_slots / cfg.pose_update_period))

    def test_dict_round_trip(self):
        cfg = desk_scenario()
        clone = scenario_from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigError):
            desk_scenario(pose_update_period=21)

    def test_rejects_non_square_antenna_count(self):
        with pytest.raises(ConfigError):
            desk_scenario(num_antennas=3)


class TestReset:
    def test_initial_state(self):
        env = IsacEnv(benchmark_scenario())
        state, obs = env.reset(seed=0)
        assert state.slot == 0
        np.testing.assert_array_equal(state.pose.center, [0.0, 0.0, 200.0])
        np.testing.assert_array_equal(state.pose.angles, np.zeros(3))
        assert not state.precoder.any()
        np.testing.assert_array_equal(state.uav_positions, env.config.uav_starts)
        assert obs.uav.shape == (4, 10)

    def test_same_seed_is_bit_identical(self):
        env = IsacEnv(desk_scenario())
        s1, o1 = env.reset(seed=3)
        snapshot = (s1.uav_positions.copy(), o1.beam.copy())
        s2, o2 = env.reset(seed=3)
        np.testing.assert_array_equal(s2.uav_positions, snapshot[0])
        np.testing.assert_array_equal(o2.beam, snapshot[1])

    def test_too_close_starts_rejected(self):
        cfg = desk_scenario(
            uav_starts=[(10.0, -30.0, 25.0), (10.0, -29.0, 25.0)],
        )
        with pytest.raises(ConfigError):
            IsacEnv(cfg).reset()


class TestUavKinematics:
    def test_full_speed_displacement(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        start = env.state.uav_positions.copy()
        acts = np.zeros((4, 4))
        acts[:, 0] = 1.0  # +X direction
        acts[:, 3] = 1.0  # speed_raw 1 -> v_max
        move = env.apply_uav_actions(acts)
        # v_max * dt = 8 * 5 = 40 m, but stays inside the box
        expected = np.minimum(start[:, 0] + 40.0, env.config.area_half_extent)
        np.testing.assert_allclose(move.positions[:, 0], expected, atol=1e-9)

    def test_zero_direction_holds_position(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        start = env.state.uav_positions.copy()
        acts = np.zeros((4, 4))
        acts[:, 3] = 1.0
        move = env.apply_uav_actions(acts)
        np.testing.assert_array_equal(move.positions, start)
        assert move.epsilon1 == 0

    def test_collision_flag(self):
        cfg = desk_scenario(
            uav_starts=[(10.0, -30.0, 25.0), (10.0, -26.5, 25.0)],
            uav_ends=[(10.0, 30.0, 25.0), (10.0, 30.0, 25.0)],
        )
        env = IsacEnv(cfg)
        env.reset()
        acts = np.zeros((2, 4))
        acts[1, :3] = [0.0, -1.0, 0.0]  # close the 3.5 m gap到 2.9m
        acts[1, 3] = -1.0 + 2 * (0.6 / (cfg.v_max * cfg.slot_duration)) * 1.0  # careful mapping below
        # map wanted speed 0.6/dt: speed_raw = 2*speed/v_max - 1
        speed = 0.6 / cfg.slot_duration
        acts[1, 3] = 2 * speed / cfg.v_max - 1.0
        move = env.apply_uav_actions(acts)
        assert move.min_separation == pytest.approx(2.9, abs=1e-9)
        assert move.epsilon1 == 1
        assert move.delta1_applied == cfg.collision_penalty

    def test_speed_clamped_to_v_max(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        acts = np.ones((2, 4)) * 1.0  # saturated everything
        before = env.state.uav_positions.copy()
        move = env.apply_uav_actions(acts)
        step = np.linalg.norm(move.positions - before, axis=1)
        assert np.all(step <= env.config.v_max * env.config.slot_duration + 1e-9)

    def test_over_long_step_raises(self):
        # A UAV found outside the flight box is pulled back inside in one
        # slot, further than v_max * slot_duration: an explicit error, not
        # an assert that vanishes under python -O.
        env = IsacEnv(desk_scenario())
        env.reset()
        env.state.uav_positions[1, 0] = 10.0 * env.config.area_half_extent
        uav, _ = zero_actions(env)
        with pytest.raises(InvariantError, match="UAV 1 moved"):
            env.apply_uav_actions(uav)

    def test_non_finite_action_rejected(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        acts = np.zeros((2, 4))
        acts[0, 0] = np.nan
        with pytest.raises(ValueError):
            env.apply_uav_actions(acts)


class TestPoseUpdates:
    def test_delta_clamped_to_theta_max(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        update = env.apply_6dma_action([np.radians(20.0), 0.0, 0.0], np.zeros(3))
        assert update.pose.angles[0] == pytest.approx(np.radians(10.0))

    def test_zero_action_keeps_pose(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        update = env.apply_6dma_action(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(update.pose.center, env.config.initial_surface_center)
        np.testing.assert_array_equal(update.pose.angles, np.zeros(3))
        assert update.epsilon2 == 0  # all starts on the front side

    def test_blockage_flag_when_normal_points_away(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        # three successive decision-slot updates of -10 deg about Z spin the
        # normal away; emulate by stepping through slots
        eps = None
        for k in range(10):
            if env.is_pose_slot():
                upd = env.apply_6dma_action([0.0, 0.0, -env.config.theta_max], np.zeros(3))
                eps = upd.epsilon2
            env.step_slot(*zero_actions(env))
        # after one update of -10deg normal is still mostly +X: no flag yet
        assert eps == 0
        # rotate much further via direct state manipulation: 180 deg
        env.reset()
        env.state.pose = geo.SurfacePose(env.state.pose.center, np.array([0.0, 0.0, np.pi]))
        ok, margin = geo.half_space_ok(env.state.pose, env.layout,
                                       np.vstack([env.state.uav_positions, env.state.target_positions]))
        assert not ok and margin < 0

    def test_off_cadence_rejected(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        env.step_slot(*zero_actions(env))
        assert env.state.slot == 1
        with pytest.raises(ProtocolError):
            env.apply_6dma_action(np.zeros(3), np.zeros(3))

    def test_center_stays_in_mobility_box(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        for _ in range(20):  # push +X every decision slot
            if env.is_pose_slot():
                env.apply_6dma_action(np.zeros(3), np.array([1.0, 0.0, 0.0]))
            if env.state.slot < env.config.num_slots:
                env.step_slot(*zero_actions(env))
        offset = env.state.pose.center - env.config.initial_surface_center
        assert abs(offset[0]) <= env.config.surface_box_half_extent + 1e-12


class TestSchemeRestrictions:
    def make(self, scheme):
        env = IsacEnv(desk_scenario(), scheme=scheme)
        env.reset()
        return env

    def test_scheme1_is_identity(self):
        env = self.make(1)
        delta = np.array([0.1, -0.05, 0.02])
        center = np.array([1.0, 0.5, 20.5])
        out_delta, out_center = env.apply_scheme_restriction(delta, center)
        np.testing.assert_array_equal(out_delta, delta)
        np.testing.assert_array_equal(out_center, center)

    def test_scheme3_pins_center(self):
        env = self.make(3)
        delta = np.array([0.1, 0.0, 0.0])
        out_delta, out_center = env.apply_scheme_restriction(delta, np.array([3.0, 3.0, 22.0]))
        np.testing.assert_array_equal(out_delta, delta)
        np.testing.assert_array_equal(out_center, env.state.pose.center)

    def test_scheme4_pins_rotation_and_projects_center(self):
        env = self.make(4)
        out_delta, out_center = env.apply_scheme_restriction(
            np.array([0.1, 0.1, 0.1]), np.array([3.0, 4.0, 21.0])
        )
        np.testing.assert_array_equal(out_delta, np.zeros(3))
        anchor = env.config.initial_surface_center
        radius = np.linalg.norm(out_center[:2] - anchor[:2])
        assert radius == pytest.approx(env.config.scheme4_circle_radius)
        assert out_center[2] == anchor[2]
        # direction preserved from the proposal
        np.testing.assert_allclose(out_center[:2] - anchor[:2],
                                   env.config.scheme4_circle_radius * np.array([0.6, 0.8]), atol=1e-12)

    def test_scheme5_freezes_pose_all_episode(self):
        env = self.make(5)
        rng = np.random.default_rng(0)
        for _ in range(env.config.num_slots):
            if env.is_pose_slot():
                env.apply_6dma_action(rng.uniform(-0.2, 0.2, 3), rng.uniform(-1, 1, 3))
            env.step_slot(*zero_actions(env))
        np.testing.assert_array_equal(env.state.pose.center, env.config.initial_surface_center)
        np.testing.assert_array_equal(env.state.pose.angles, np.zeros(3))


class TestMetricsAndRewards:
    def test_zero_precoder_gives_zero_metrics(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        out = env.step_slot(*zero_actions(env))
        assert out.metrics.sum_rate == 0.0
        np.testing.assert_array_equal(out.metrics.snr_per_target, [0.0, 0.0])
        assert out.metrics.tx_power == 0.0

    def test_uav_at_surface_center_is_singular(self):
        from sixdma_isac.errors import SingularityError

        env = IsacEnv(desk_scenario())
        env.reset()
        env.state.uav_positions[0] = env.state.pose.center.copy()
        with pytest.raises(SingularityError):
            env.step_metrics()

    def test_single_antenna_closed_form_sinr(self):
        cfg = desk_scenario(
            num_uavs=1,
            num_antennas=1,
            uav_starts=[(12.0, -30.0, 25.0)],
            uav_ends=[(12.0, 30.0, 25.0)],
            target_positions=[(12.0, 4.0, 22.0), (20.0, -6.0, 24.0)],
        )
        env = IsacEnv(cfg)
        env.reset()
        w = np.array([[0.1 + 0.0j]])
        env.set_precoder(w)
        metrics = env.step_metrics()
        d = np.linalg.norm(cfg.uav_starts[0] - cfg.initial_surface_center)
        expected = isac.tx_power(w) * (cfg.wavelength / (4 * np.pi * d)) ** 2 / cfg.sigma_c_sq
        assert metrics.sinr_per_uav[0] == pytest.approx(expected, rel=1e-10)

    def test_doubling_distance_quarters_received_power(self):
        cfg = desk_scenario()
        env = IsacEnv(cfg)
        env.reset()
        h1, _ = env._channels()
        w = np.zeros((4, 2), complex)
        w[:, 0] = h1[0] / np.linalg.norm(h1[0]) * 0.1  # matched to UAV 0
        p1 = abs(np.vdot(w[:, 0], h1[0])) ** 2
        # move UAV 0 to twice the distance from the surface center
        center = env.state.pose.center
        env.state.uav_positions[0] = center + 2.0 * (env.state.uav_positions[0] - center)
        h2, _ = env._channels()
        p2 = abs(np.vdot(w[:, 0], h2[0])) ** 2
        assert p2 == pytest.approx(p1 / 4.0, rel=1e-9)

    def test_collision_floors_uav_reward(self):
        cfg = desk_scenario(
            uav_starts=[(10.0, -30.0, 25.0), (10.0, -26.5, 25.0)],
            uav_ends=[(10.0, 30.0, 25.0), (10.0, 30.0, 25.0)],
            progress_bonus_weight=0.0,
        )
        env = IsacEnv(cfg)
        env.reset()
        acts = np.zeros((2, 4))
        speed = 0.6 / cfg.slot_duration
        acts[1, :3] = [0.0, -1.0, 0.0]
        acts[1, 3] = 2 * speed / cfg.v_max - 1.0
        out = env.step_slot(acts, np.ones(16) * 0.5)
        assert out.epsilon1 == 1
        np.testing.assert_allclose(out.rewards_uav, -cfg.collision_penalty)

    def test_delta3_zero_at_threshold(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        metrics = isac.LinkMetrics(
            sinr_per_uav=np.array([1.0, 1.0]),
            sum_rate=2.0,
            snr_per_target=np.array([env.config.gamma_min, env.config.gamma_min]),
            tx_power=0.02,
        )
        out = env.compute_rewards(metrics, 0, np.zeros(2), 0.02, 10.0, 0.3, 0, False)
        assert out.delta3 == 0.0

    def test_delta4_tracks_raw_power_overrun(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        out = env.step_slot(zero_actions(env)[0], np.ones(16))
        # fully saturated action sits on the power budget up to rounding
        assert out.delta4 <= 1e-12
        assert out.tx_power_raw == pytest.approx(env.config.p_max, rel=1e-12)
        assert out.metrics.tx_power <= env.config.p_max + 1e-12
        assert (out.delta4 > 0) == (out.tx_power_raw > env.config.p_max)

    def test_reward_recomposition_is_bit_exact(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        rng = np.random.default_rng(1)
        for _ in range(env.config.num_slots):
            if env.is_pose_slot():
                env.apply_6dma_action(rng.uniform(-0.1, 0.1, 3), rng.uniform(-1, 1, 3))
            out = env.step_slot(rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, 16))
            base = (1.0 - out.epsilon1) * out.metrics.sum_rate - out.epsilon1 * out.delta1
            np.testing.assert_array_equal(out.rewards_uav, base + out.shaping)
            assert out.reward_beam == out.metrics.sum_rate - out.delta3 - out.delta4 + out.mean_target_snr

    def test_pointing_bonus_at_perfect_aim(self):
        cfg = desk_scenario(
            num_uavs=1,
            uav_starts=[(15.0, 0.0, 20.0)],
            uav_ends=[(15.0, 10.0, 20.0)],
        )
        env = IsacEnv(cfg)
        env.reset()
        # normal is +X and the single UAV sits straight along +X
        assert env.pointing_angle() == pytest.approx(0.0, abs=1e-12)
        reward, delta5 = env.pose_window_reward([2.0, 2.0], [0.0, 0.0], 0)
        assert delta5 == 1.0
        assert reward == pytest.approx(3.0)

    def test_pose_window_reward_modes_and_blockage(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        rates = [1.0, 2.0, 3.0]
        angles = [np.pi / 3] * 3
        reward, delta5 = env.pose_window_reward(rates, angles, 0)
        assert delta5 == pytest.approx(np.cos(np.pi / 3) / 2)
        assert reward == pytest.approx(2.0 + delta5)
        blocked, _ = env.pose_window_reward(rates, angles, 1)
        assert blocked == pytest.approx(-env.config.blockage_penalty + delta5)
        env_sum = IsacEnv(desk_scenario(pose_reward_mode="sum"))
        env_sum.reset()
        reward_sum, _ = env_sum.pose_window_reward(rates, angles, 0)
        assert reward_sum == pytest.approx(6.0 + delta5)

    def test_truncated_window_uses_partial_mean(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        reward, _ = env.pose_window_reward([4.0], [0.5], 0)
        assert reward == pytest.approx(4.0 + np.cos(0.5) / 2)


class TestObservations:
    def test_dimensions_benchmark_scenario(self):
        env = IsacEnv(benchmark_scenario())
        env.reset()
        obs = env.observations()
        assert obs.uav.shape == (4, 10)
        assert obs.beam.shape == (2 * 4 * (4 + 3),)  # 56
        assert obs.sixdma.shape == (3 * (4 + 1),)

    def test_time_feature_reaches_one(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        for _ in range(env.config.num_slots):
            if env.is_pose_slot():
                env.apply_6dma_action(np.zeros(3), np.zeros(3))
            out = env.step_slot(*zero_actions(env))
        assert out.done
        obs = env.observations()
        assert obs.uav[0, -1] == 1.0

    def test_channel_features_scaled_to_order_one(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        obs = env.observations()
        assert np.max(np.abs(obs.beam)) < 50.0
        assert np.max(np.abs(obs.beam)) > 1e-3


class TestDeterminismAndEpisode:
    def test_full_episode_determinism(self):
        def run():
            env = IsacEnv(desk_scenario())
            env.reset(seed=11)
            rng = np.random.default_rng(42)
            trace = []
            for _ in range(env.config.num_slots):
                if env.is_pose_slot():
                    env.apply_6dma_action(rng.uniform(-0.1, 0.1, 3), rng.uniform(-1, 1, 3))
                out = env.step_slot(rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, 16))
                trace.append((out.metrics.sum_rate, out.reward_beam, tuple(out.rewards_uav)))
            return trace

        assert run() == run()

    def test_episode_is_exactly_k_slots(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        count = 0
        decisions = 0
        while env.state.slot < env.config.num_slots:
            if env.is_pose_slot():
                env.apply_6dma_action(np.zeros(3), np.zeros(3))
                decisions += 1
            out = env.step_slot(*zero_actions(env))
            count += 1
        assert count == env.config.num_slots
        assert decisions == len(env.config.pose_decision_slots())
        assert out.done
        with pytest.raises(ProtocolError):
            env.step_slot(*zero_actions(env))

    def test_episode_record_schema(self):
        import json

        env = IsacEnv(desk_scenario())
        env.reset()
        if env.is_pose_slot():
            env.apply_6dma_action(np.zeros(3), np.zeros(3))
        out = env.step_slot(*zero_actions(env))
        record = env.episode_record(out)
        line = json.dumps(record)
        parsed = json.loads(line)
        for key in ("slot", "uav_positions", "surface_center", "surface_angles", "sum_rate",
                    "sinr", "target_snr", "tx_power", "tx_power_raw", "rewards_uav",
                    "reward_beam", "epsilon1", "epsilon2", "delta1", "delta2", "delta3",
                    "delta4", "delta5", "shaping", "mean_target_snr", "pointing_angle",
                    "min_uav_separation", "done"):
            assert key in parsed
