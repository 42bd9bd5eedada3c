from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sixdma_isac import channel as ch
from sixdma_isac import geometry as geo
from sixdma_isac import isac
from sixdma_isac.env import (
    SCHEMES,
    IsacEnv,
    StepOutcome,
    WorldState,
    desk_scenario,
    benchmark_scenario,
    scenario_from_dict,
)
from sixdma_isac.errors import ConfigError, InvariantError, ProtocolError, SingularityError


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

    @settings(max_examples=40, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "slot_duration": st.floats(0.1, 5.0),
                "v_max": st.floats(0.5, 20.0),
                "p_max": st.floats(1e-4, 1.0),
                "gamma_min": st.floats(1e-3, 100.0),
                "theta_max": st.floats(1e-3, 1.0),
                "pose_update_period": st.integers(1, 20),
                "center_step_limit": st.floats(0.1, 5.0),
                "collision_penalty": st.floats(0.0, 50.0),
                "progress_bonus_weight": st.floats(-2.0, 2.0),
                "scheme4_circle_radius": st.floats(0.0, 5.0),
                # starts closer than d_min are refused on construction
                "uav_starts": hnp.arrays(float, (2, 3), elements=st.floats(-40.0, 40.0)).filter(
                    lambda starts: geo.min_pairwise_distance(starts) >= 3.0),
                "target_positions": hnp.arrays(float, (2, 3), elements=st.floats(-40.0, 40.0)),
            },
        )
    )
    def test_dict_round_trip_through_json(self, overrides):
        import dataclasses
        import json

        cfg = desk_scenario(**overrides)
        clone = scenario_from_dict(json.loads(json.dumps(cfg.to_dict())))
        for f in dataclasses.fields(cfg):
            a, b = getattr(cfg, f.name), getattr(clone, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            else:
                assert type(a) is type(b) and a == b, f.name
        assert json.dumps(clone.to_dict()) == json.dumps(cfg.to_dict())

    def test_rejects_bad_period(self):
        message = "^pose_update_period must be at most the 20 slots of an episode, got 21$"
        with pytest.raises(ConfigError, match=message):
            desk_scenario(pose_update_period=21)

    def test_rejects_non_square_antenna_count(self):
        with pytest.raises(ConfigError):
            desk_scenario(num_antennas=3)

    # (key in another unit, field, value in that unit, the same value in the field's unit)
    @pytest.mark.parametrize("key, name, value, linear", [
        ("sigma_c_dbm", "sigma_c_sq", -40.0, 1e-7),
        ("sigma_s_dbm", "sigma_s_sq", -40.0, 1e-7),
        ("p_max_dbm", "p_max", 10.0, 0.01),
        ("gamma_min_db", "gamma_min", 3.0, 10 ** 0.3),
        ("theta_max_deg", "theta_max", 20.0, np.radians(20.0)),
    ])
    @pytest.mark.parametrize("preset", [desk_scenario, benchmark_scenario])
    def test_an_override_in_either_unit_replaces_the_preset_value(self, preset, key, name, value, linear):
        base = preset().to_dict()
        assert getattr(preset(**{name: linear}), name) == linear != base[name]
        for overrides in ({name: linear}, {key: value}):
            cfg = preset(**overrides).to_dict()
            assert cfg[name] == pytest.approx(linear, rel=1e-12)
            assert {k: v for k, v in cfg.items() if k != name} == {k: v for k, v in base.items() if k != name}
        with pytest.raises(ConfigError, match=key):
            preset(**{key: value, name: linear})
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict({**base, key: value})


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
        # refused when the scenario is built, before any environment or run exists
        with pytest.raises(ConfigError, match="^uav_starts must lie at least 3.0 m apart, got 1.000 m$"):
            desk_scenario(uav_starts=[(10.0, -30.0, 25.0), (10.0, -29.0, 25.0)])


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

    def test_only_uav_pairs_collide(self):
        starts = [(10.0, -25.0, 22.0), (18.0, -25.0, 26.0)]
        cfg = desk_scenario(target_positions=[starts[0], (starts[1][0] + 1.0, *starts[1][1:])])
        env = IsacEnv(cfg)
        env.reset()  # a target on a UAV is no separation violation
        move = env.apply_uav_actions(np.zeros((2, 4)))
        assert move.epsilon1 == 0 and move.min_separation == pytest.approx(np.linalg.norm(np.subtract(*starts)))

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


@st.composite
def pose_episodes(draw):
    """A preset scenario, a scheme, a seed for the UAV actions, and for each
    decision slot of one episode an angle delta (in units of theta_max) and
    a center action, each drawn up to three times beyond its box."""
    scenario = draw(st.sampled_from([desk_scenario(), benchmark_scenario()]))
    beyond_the_box = hnp.arrays(float, 3, elements=st.floats(-3.0, 3.0))
    decisions = len(scenario.pose_decision_slots())
    actions = draw(st.lists(st.tuples(beyond_the_box, beyond_the_box), min_size=decisions, max_size=decisions))
    return scenario, draw(st.sampled_from(SCHEMES)), draw(st.integers(0, 2**32 - 1)), actions


class TestPoseActionProperties:
    @settings(max_examples=200, deadline=None)
    @given(episode=pose_episodes())
    def test_every_scheme_moves_the_pose_within_its_limits(self, episode):
        cfg, scheme, seed, actions = episode
        env, rng, decisions = IsacEnv(cfg, scheme=scheme), np.random.default_rng(seed), iter(actions)
        anchor, half = cfg.initial_surface_center, cfg.surface_box_half_extent
        env.reset()
        for _ in range(cfg.num_slots):
            if env.is_pose_slot():
                angle_units, center_raw = next(decisions)
                old = env.state.pose
                update = env.apply_6dma_action(angle_units * cfg.theta_max, center_raw)
                angles, center = update.pose.angles, update.pose.center
                if scheme in (1, 2, 3):
                    expected = old.angles + np.clip(angle_units * cfg.theta_max, -cfg.theta_max, cfg.theta_max)
                    np.testing.assert_array_equal(angles, expected)
                else:
                    np.testing.assert_array_equal(angles, old.angles)
                assert np.all(anchor - half <= center) and np.all(center <= anchor + half)
                if scheme in (1, 2):  # (c + s) - c rounds: allow an ulp or so at the box's scale
                    assert np.all(np.abs(center - old.center) <= cfg.center_step_limit + 1e-12)
                elif scheme == 4:
                    assert np.linalg.norm(center[:2] - anchor[:2]) == pytest.approx(cfg.scheme4_circle_radius,
                                                                                    rel=1e-12)
                    assert center[2] == anchor[2]
                else:
                    np.testing.assert_array_equal(center, old.center)
                points = np.vstack([env.state.uav_positions, env.state.target_positions])
                assert update.epsilon2 == int(not geo.half_space_ok(update.pose, env.layout, points)[0])
            env.step_slot(rng.uniform(-1.0, 1.0, size=(cfg.num_uavs, 4)),
                          np.zeros(2 * cfg.num_antennas * cfg.num_uavs))


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
        env.state.precoder = isac.project_power(w, cfg.p_max)
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

    def test_pose_window_reward_mean_and_blockage(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        rates = [1.0, 2.0, 3.0]
        angles = [np.pi / 3] * 3
        reward, delta5 = env.pose_window_reward(rates, angles, 0)
        assert delta5 == pytest.approx(np.cos(np.pi / 3) / 2)
        assert reward == pytest.approx(2.0 + delta5)
        blocked, _ = env.pose_window_reward(rates, angles, 1)
        assert blocked == pytest.approx(-env.config.blockage_penalty + delta5)

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

    def test_beam_features_are_channels_over_the_reference_amplitude(self):
        # the reference is the free-space amplitude from the initial surface center to the mean UAV start
        cfg = desk_scenario()
        env = IsacEnv(cfg)
        env.reset()
        ref = np.linalg.norm(cfg.initial_surface_center - cfg.uav_starts.mean(axis=0))
        rows = np.concatenate(env._channels()) * (4 * np.pi * ref / cfg.wavelength)
        beam = env.observations().beam
        np.testing.assert_allclose(beam[0::2] + 1j * beam[1::2], rows.ravel(), rtol=1e-12)


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
        # the README's keys, in order: the state keys, the link-metric keys, then the other
        # StepOutcome fields in declaration order
        assert list(parsed) == ["slot", "uav_positions", "surface_center", "surface_angles", "sum_rate",
                                "sinr", "target_snr", "tx_power", "tx_power_raw", "rewards_uav",
                                "reward_beam", "epsilon1", "epsilon2", "delta1", "delta2", "delta3",
                                "delta4", "delta5", "shaping", "mean_target_snr", "pointing_angle",
                                "min_uav_separation", "done"]
        assert list(parsed)[8:] == [f.name for f in fields(StepOutcome)][2:]


class TestRefusedStep:
    @pytest.mark.parametrize("bad", ["beam_nan", "beam_shape", "uav_nan", "uav_shape"])
    def test_a_refused_action_changes_nothing_and_the_retry_moves_at_most_the_limit(self, bad):
        env = IsacEnv(desk_scenario())
        env.reset()
        cfg = env.config
        uav = np.zeros((cfg.num_uavs, 4))
        uav[:, 1] = uav[:, 3] = 1.0  # full speed along +y
        beam = np.full(2 * cfg.num_antennas * cfg.num_uavs, 0.5)
        env.step_slot(uav, beam)  # the refused step must keep this slot's precoder
        state = env.state
        slot, positions = state.slot, state.uav_positions.copy()
        precoder, precoder_raw = state.precoder.copy(), state.precoder_raw.copy()
        bad_uav, bad_beam = uav.copy(), -beam  # the good one of the two would change the state
        if bad == "beam_nan":
            bad_beam[3] = np.nan
        elif bad == "beam_shape":
            bad_beam = bad_beam[:-1]
        elif bad == "uav_nan":
            bad_uav[0, 0] = np.nan
        else:
            bad_uav = bad_uav[:-1]
        with pytest.raises(ValueError):
            env.step_slot(bad_uav, bad_beam)
        assert env.state.slot == slot
        np.testing.assert_array_equal(env.state.uav_positions, positions)
        np.testing.assert_array_equal(env.state.precoder, precoder)
        np.testing.assert_array_equal(env.state.precoder_raw, precoder_raw)
        env.step_slot(uav, beam)
        moved = np.linalg.norm(env.state.uav_positions - positions, axis=1)
        assert env.state.slot == slot + 1
        assert np.all(moved <= cfg.v_max * cfg.slot_duration + 1e-9), moved


def per_uav_positions(env, acts):
    """Reference UAV kinematics: one UAV at a time with scalar arithmetic."""
    cfg = env.config
    a = cfg.area_half_extent
    old = env.state.uav_positions
    new = old.copy()
    for m in range(cfg.num_uavs):
        raw_dir = acts[m, :3]
        norm = np.linalg.norm(raw_dir)
        speed = float(np.clip(cfg.v_max * (acts[m, 3] + 1.0) / 2.0, 0.0, cfg.v_max))
        if norm > 1e-12 and speed > 0.0:
            new[m] = old[m] + speed * cfg.slot_duration * raw_dir / norm
        new[m, 0] = np.clip(new[m, 0], -a, a)
        new[m, 1] = np.clip(new[m, 1], -a, a)
        new[m, 2] = np.clip(new[m, 2], 0.0, cfg.altitude_max)
    return new


def per_uav_pointing_angle(env):
    """Reference pointing angle: one UAV at a time."""
    st_ = env.state
    normal = geo.surface_normal(st_.pose, env.layout)
    angles = []
    for p in st_.uav_positions:
        delta = p - st_.pose.center
        dist = np.linalg.norm(delta)
        if dist < 1e-12:
            angles.append(0.0)
            continue
        angles.append(float(np.arccos(np.clip(normal @ delta / dist, -1.0, 1.0))))
    return float(np.mean(angles))


def fresh_channels(env):
    st_ = env.state
    positions = geo.global_antenna_positions(st_.pose, env.layout)
    points = np.vstack([st_.uav_positions, st_.target_positions])
    return ch.channel_matrix(st_.pose.center, points, positions, env.config.wavelength)


unit = st.floats(-1.0, 1.0)


def uav_actions(count):
    # raw actions up to 1.5 in size exercise the speed clamp; zero rows
    # (held position) come up often enough on their own
    return hnp.arrays(float, (count, 4), elements=st.floats(-1.5, 1.5))


def box_positions(cfg):
    a = cfg.area_half_extent
    return hnp.arrays(float, (cfg.num_uavs, 3), elements=st.floats(-1.0, 1.0)).map(
        lambda u: u * [a, a, cfg.altitude_max / 2.0] + [0.0, 0.0, cfg.altitude_max / 2.0]
    )


class TestSlotPhysicsMatchesPerUavLoops:
    cfg = benchmark_scenario()

    @settings(max_examples=150, deadline=None)
    @given(positions=box_positions(cfg), acts=uav_actions(cfg.num_uavs))
    def test_apply_uav_actions(self, positions, acts):
        env = IsacEnv(self.cfg)
        env.reset()
        env.state.uav_positions = positions
        want = per_uav_positions(env, acts)
        move = env.apply_uav_actions(acts)
        assert np.array_equal(move.positions, want)
        assert move.min_separation == geo.min_pairwise_distance(want)

    @settings(max_examples=150, deadline=None)
    @given(
        positions=box_positions(cfg),
        delta=hnp.arrays(float, 3, elements=unit),
        center=hnp.arrays(float, 3, elements=unit),
        at_center=st.booleans(),
    )
    def test_pointing_angle(self, positions, delta, center, at_center):
        env = IsacEnv(self.cfg)
        env.reset()
        env.apply_6dma_action(delta * self.cfg.theta_max, center)
        if at_center:  # the zero-distance branch
            positions[0] = env.state.pose.center
        env.state.uav_positions = positions
        assert env.pointing_angle() == per_uav_pointing_angle(env)


def away_from_the_surface(cfg):
    """UAV positions in the flight box, each at an x farther from every center
    the surface may take than a UAV flies in one slot."""
    reach = cfg.surface_box_half_extent + cfg.v_max * cfg.slot_duration + 1.0
    a = cfg.area_half_extent
    x = st.floats(reach, a).flatmap(lambda v: st.sampled_from([v, -v]))
    point = st.tuples(x, st.floats(-a, a), st.floats(0.0, cfg.altitude_max))
    return st.lists(point, min_size=cfg.num_uavs, max_size=cfg.num_uavs).map(np.array)


class TestRewardRecomposition:
    cfg = desk_scenario()

    @settings(max_examples=150, deadline=None)
    @given(
        positions=away_from_the_surface(cfg),
        angles=hnp.arrays(float, 3, elements=st.floats(-np.pi, np.pi)),
        center=hnp.arrays(float, 3, elements=unit),
        uav=uav_actions(cfg.num_uavs),
        beam=hnp.arrays(float, 2 * cfg.num_antennas * cfg.num_uavs, elements=st.floats(-1.5, 1.5)),
    )
    def test_the_log_record_recomposes_both_rewards(self, positions, angles, center, uav, beam):
        # the README's identities hold exactly on the record as logged, collisions and overruns included
        import json

        env = IsacEnv(self.cfg)
        env.reset()
        env.state.pose = geo.SurfacePose(self.cfg.initial_surface_center + center * self.cfg.surface_box_half_extent,
                                         angles)
        env.state.uav_positions = positions
        r = json.loads(json.dumps(env.episode_record(env.step_slot(uav, beam))))
        for m in range(self.cfg.num_uavs):
            assert r["rewards_uav"][m] == ((1 - r["epsilon1"]) * r["sum_rate"] - r["epsilon1"] * r["delta1"]
                                           + r["shaping"][m])
        assert r["reward_beam"] == r["sum_rate"] - r["delta3"] - r["delta4"] + r["mean_target_snr"]


class TestChannelCache:
    def test_in_place_position_changes_invalidate(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        before = env._channel_matrix().copy()
        env.state.uav_positions[0, 1] += 1.0
        after = env._channel_matrix()
        assert not np.array_equal(after[0], before[0])
        assert np.array_equal(after, fresh_channels(env))
        env.state.target_positions[1, 2] -= 1.0
        assert np.array_equal(env._channel_matrix(), fresh_channels(env))
        assert not np.array_equal(env._channel_matrix()[-1], after[-1])

    def test_pose_update_invalidates(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        before = env._channel_matrix().copy()
        env.apply_6dma_action([0.1, -0.1, 0.05], [0.5, 0.0, -0.5])
        after = env._channel_matrix()
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh_channels(env))

    def test_one_computation_per_slot(self, monkeypatch):
        env = IsacEnv(desk_scenario())
        env.reset()
        calls = []
        real = ch.channel_matrix
        monkeypatch.setattr(ch, "channel_matrix", lambda *args: calls.append(1) or real(*args))
        uav, beam = zero_actions(env)
        uav[:, 1] = uav[:, 3] = 1.0  # full speed along +Y
        env.step_slot(uav, beam)
        env.observations()
        assert len(calls) == 1

    def test_cached_rows_are_read_only(self):
        env = IsacEnv(desk_scenario())
        env.reset()
        h_uav, h_tgt = env._channels()
        with pytest.raises(ValueError):
            h_uav[0, 0] = 0.0
        with pytest.raises(ValueError):
            h_tgt[0, 0] = 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from([1, 2, 3, 4, 5]),
        seed=st.integers(0, 2**32 - 1),
        slots=st.integers(1, 20),
    )
    def test_observations_after_step_equal_a_fresh_env(self, scheme, seed, slots):
        cfg = desk_scenario()
        rng = np.random.default_rng(seed)
        env = IsacEnv(cfg, scheme=scheme)
        env.reset()
        for _ in range(slots):
            if env.is_pose_slot():
                env.apply_6dma_action(rng.uniform(-0.2, 0.2, 3), rng.uniform(-1, 1, 3))
            env.step_slot(rng.uniform(-1, 1, (cfg.num_uavs, 4)), rng.uniform(-1, 1, 16))
        obs = env.observations()
        other = IsacEnv(cfg, scheme=scheme)
        other.reset()
        st_ = env.state
        other.state = WorldState(st_.slot, st_.uav_positions.copy(), st_.target_positions.copy(),
                                 st_.pose, st_.precoder.copy(), st_.precoder_raw.copy())
        want = other.observations()
        assert np.array_equal(obs.uav, want.uav)
        assert np.array_equal(obs.beam, want.beam)
        assert np.array_equal(obs.sixdma, want.sixdma)

    def test_target_at_surface_center_is_singular(self):
        env = IsacEnv(desk_scenario())
        env.reset()  # the initial channels are now cached
        env.state.target_positions[1] = env.state.pose.center
        with pytest.raises(SingularityError):
            env.observations()
        with pytest.raises(SingularityError):
            env.step_metrics()
