"""Episodic simulation of the movable-antenna ISAC base station.

One environment instance owns one rollout: UAVs move every slot, the
antenna surface re-poses only on its slow cadence, and every slot yields
link metrics, constraint flags and shaped rewards.  A single writer
mutates the instance; independent instances (one per seed) can run in
parallel freely.

Units: meters, seconds, radians, linear watts.  Slots are indexed
``0 .. num_slots-1``; surface decisions happen at slots
``{0, T_r, 2*T_r, ...}``.

The channels of all M+J points (UAVs, then targets) are computed once per
slot in one broadcast and shared by the slot's metrics and the
observations that follow; kinematics and observation rows are array
operations over all UAVs, element for element the same arithmetic as a
per-UAV loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import channel as ch
from . import geometry as geo
from . import isac
from .errors import ConfigError, InvariantError, ProtocolError, check_fields, real_array, real_number

SCHEMES = (1, 2, 3, 4, 5)
# The scenario settings that have a range, each one "positive": (test, what the test asks).
_RANGES = dict.fromkeys((
    "num_uavs", "num_targets", "num_antennas", "num_slots", "slot_duration", "v_max", "d_min", "wavelength",
    "sigma_c_sq", "sigma_s_sq", "p_max", "gamma_min", "theta_max", "pose_update_period", "area_half_extent",
    "altitude_max", "surface_side_length", "surface_box_half_extent", "center_step_limit",
), (lambda v: v > 0, "be positive"))


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical scenario: geometry, counts, limits and penalty weights.

    Powers are linear watts and angles radians; use :func:`scenario_from_dict`
    or the factory helpers to enter dBm / dB / degree values.  Construction
    checks every field (by kind, finite, in range) and the rules across
    fields, among them the UAV start separation and the antenna spacing.
    """

    num_uavs: int
    num_targets: int
    num_antennas: int
    num_slots: int
    slot_duration: float
    v_max: float
    d_min: float
    wavelength: float
    sigma_c_sq: float
    sigma_s_sq: float
    p_max: float
    gamma_min: float
    theta_max: float
    pose_update_period: int
    area_half_extent: float
    altitude_max: float
    bs_position: np.ndarray
    initial_surface_center: np.ndarray
    uav_starts: np.ndarray
    uav_ends: np.ndarray
    target_positions: np.ndarray
    surface_side_length: float = 1.0
    surface_box_half_extent: float = 5.0
    center_step_limit: float = 1.0
    collision_penalty: float = 10.0
    blockage_penalty: float = 10.0
    progress_bonus_weight: float = 0.1
    scheme4_circle_radius: float = 2.5

    def __post_init__(self):
        check_fields(self, _RANGES)
        m, j = self.num_uavs, self.num_targets
        for name, shape in (("bs_position", (3,)), ("initial_surface_center", (3,)), ("uav_starts", (m, 3)),
                            ("uav_ends", (m, 3)), ("target_positions", (j, 3))):
            object.__setattr__(self, name, real_array(getattr(self, name), shape, name))
        if self.pose_update_period > self.num_slots:
            raise ConfigError(f"pose_update_period must be at most the {self.num_slots} slots of an episode, "
                              f"got {self.pose_update_period}")
        if self.d_min >= 2 * self.area_half_extent:
            raise ConfigError("d_min must be smaller than the flight area")
        if self.scheme4_circle_radius > self.surface_box_half_extent:
            raise ConfigError("scheme4_circle_radius must fit inside the surface mobility box")
        n_side = math.isqrt(self.num_antennas)
        if n_side * n_side != self.num_antennas:
            raise ConfigError("num_antennas must be a perfect square for the default grid layout")
        separation = geo.min_pairwise_distance(self.uav_starts)
        if separation < self.d_min:
            raise ConfigError(f"uav_starts must lie at least {self.d_min} m apart, got {separation:.3f} m")
        if not geo.validate_spacing(self.antenna_layout(), self.wavelength):
            raise ConfigError(f"surface_side_length must space the {n_side}x{n_side} antennas at least "
                              f"lambda/2 = {self.wavelength / 2:g} m apart, got {self.surface_side_length!r}")

    def antenna_layout(self) -> geo.AntennaLayout:
        return geo.square_grid_layout(math.isqrt(self.num_antennas), self.surface_side_length)

    def pose_decision_slots(self) -> list[int]:
        return list(range(0, self.num_slots, self.pose_update_period))

    def to_dict(self) -> dict:
        """Plain JSON-ready values in field order; arrays become nested lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out


# Keys that give a field in another unit: (key, field, conversion to the field's unit).
_UNIT_KEYS = (
    ("sigma_c_dbm", "sigma_c_sq", isac.dbm_to_watts),
    ("sigma_s_dbm", "sigma_s_sq", isac.dbm_to_watts),
    ("p_max_dbm", "p_max", isac.dbm_to_watts),
    ("gamma_min_db", "gamma_min", isac.db_to_linear),
    ("theta_max_deg", "theta_max", math.radians),
)
_FIELD_OF_KEY = {key: name for key, name, _ in _UNIT_KEYS}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a scenario from a plain dict, accepting dBm/dB/degree keys.

    One dict may give a field in one unit only."""
    kwargs = dict(data)
    for key, name, convert in _UNIT_KEYS:
        if key in kwargs:
            if name in kwargs:
                raise ConfigError(f"{key} gives a value that the spec gives in its base unit too; keep one")
            value = float(real_number(kwargs.pop(key), key))
            try:
                kwargs[name] = convert(value)
            except OverflowError:
                raise ConfigError(f"{key} must be small enough to convert to a float, got {value!r}") from None
    unknown = set(kwargs) - set(ScenarioConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    return ScenarioConfig(**kwargs)


def _preset(base: dict, overrides: dict) -> ScenarioConfig:
    """``base`` under ``overrides``; an override in either unit replaces the base's value."""
    given = {_FIELD_OF_KEY.get(key, key) for key in overrides}
    kept = {key: value for key, value in base.items() if _FIELD_OF_KEY.get(key, key) not in given}
    return scenario_from_dict({**kept, **overrides})


def benchmark_scenario(**overrides) -> ScenarioConfig:
    """Benchmark scenario: 4 UAVs, 3 targets, 500 m x 500 m, 60 slots."""
    base = dict(
        num_uavs=4,
        num_targets=3,
        num_antennas=4,
        num_slots=60,
        slot_duration=5.0,
        v_max=8.0,
        d_min=3.0,
        wavelength=0.125,
        sigma_c_dbm=-50.0,
        sigma_s_dbm=-50.0,
        p_max=0.04,
        gamma_min_db=1.0,
        theta_max_deg=10.0,
        pose_update_period=10,
        area_half_extent=250.0,
        altitude_max=300.0,
        bs_position=(0.0, 0.0, 0.0),
        initial_surface_center=(0.0, 0.0, 200.0),
        uav_starts=[(60.0, -200.0, 120.0), (120.0, -200.0, 130.0), (180.0, -200.0, 140.0), (240.0, -200.0, 150.0)],
        uav_ends=[(60.0, 200.0, 120.0), (120.0, 200.0, 130.0), (180.0, 200.0, 140.0), (240.0, 200.0, 150.0)],
        target_positions=[(80.0, 40.0, 160.0), (150.0, -60.0, 180.0), (220.0, 30.0, 140.0)],
    )
    return _preset(base, overrides)


def desk_scenario(**overrides) -> ScenarioConfig:
    """Small, fast scenario with short ranges so sensing targets are
    reachable at the benchmark power budget: the benchmark scenario with
    2 UAVs and 2 targets over 100 m x 100 m, 20 slots."""
    base = dict(
        num_uavs=2,
        num_targets=2,
        num_slots=20,
        slot_duration=2.5,
        pose_update_period=5,
        area_half_extent=50.0,
        altitude_max=45.0,
        initial_surface_center=(0.0, 0.0, 20.0),
        center_step_limit=2.5,
        progress_bonus_weight=1.0,
        uav_starts=[(10.0, -25.0, 22.0), (18.0, -25.0, 26.0)],
        uav_ends=[(10.0, 25.0, 22.0), (18.0, 25.0, 26.0)],
        target_positions=[(8.0, 2.0, 22.0), (12.0, -4.0, 24.0)],
    )
    return benchmark_scenario(**{**base, **overrides})


@dataclass
class WorldState:
    """Single source of truth for one slot of the simulation."""

    slot: int
    uav_positions: np.ndarray
    target_positions: np.ndarray
    pose: geo.SurfacePose
    precoder: np.ndarray
    precoder_raw: np.ndarray


@dataclass(frozen=True)
class Observations:
    """Per-agent observation vectors with fixed layouts.

    ``uav`` is (M, 10): own position, base-station position and end point
    (all divided by the area half-extent) plus normalized time.  ``beam``
    interleaves the real/imag parts of the M communication rows followed
    by the J sensing rows, divided by the free-space amplitude at the
    distance from the initial surface center to the mean UAV start.
    ``sixdma`` is the base-station position followed by all UAV positions.
    """

    uav: np.ndarray
    beam: np.ndarray
    sixdma: np.ndarray


class UavMove(NamedTuple):
    positions: np.ndarray
    epsilon1: int
    delta1_applied: float
    min_separation: float


class PoseUpdate(NamedTuple):
    pose: geo.SurfacePose
    epsilon2: int
    worst_margin: float


@dataclass(frozen=True)
class StepOutcome:
    """Everything produced by one slot, sufficient to recompose rewards.

    The field order is the key order of :meth:`IsacEnv.episode_record`."""

    slot: int
    metrics: isac.LinkMetrics
    tx_power_raw: float
    rewards_uav: np.ndarray
    reward_beam: float
    epsilon1: int
    epsilon2: int
    delta1: float
    delta2: float
    delta3: float
    delta4: float
    delta5: float
    shaping: np.ndarray
    mean_target_snr: float
    pointing_angle: float
    min_uav_separation: float
    done: bool


class IsacEnv:
    """Deterministic episodic environment driven by external agents."""

    def __init__(self, config: ScenarioConfig, scheme: int = 1):
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme id {scheme}")
        self.config = config
        self.scheme = scheme
        self.layout = config.antenna_layout()
        ref = float(np.linalg.norm(config.initial_surface_center - config.uav_starts.mean(axis=0)))
        self._beam_obs_scale = config.wavelength / (4.0 * np.pi * ref)
        self.state: WorldState | None = None
        self._window_epsilon2 = 0
        self._channel_key = None
        self._channel_rows = None

    # ------------------------------------------------------------ lifecycle
    def reset(self, seed: int = 0) -> tuple[WorldState, Observations]:
        """Start a new episode from the configured initial state.

        Rollouts are deterministic: the next state depends only on the
        scenario and the actions.  ``seed`` is accepted for interface
        compatibility and has no effect.
        """
        cfg = self.config
        n, m = cfg.num_antennas, cfg.num_uavs
        self.state = WorldState(
            slot=0,
            uav_positions=cfg.uav_starts.copy(),
            target_positions=cfg.target_positions.copy(),
            pose=geo.SurfacePose(cfg.initial_surface_center.copy(), np.zeros(3)),
            precoder=np.zeros((n, m), dtype=complex),
            precoder_raw=np.zeros((n, m), dtype=complex),
        )
        self._window_epsilon2 = 0
        return self.state, self.observations()

    def _require_state(self) -> WorldState:
        if self.state is None:
            raise ProtocolError("reset() must be called before stepping")
        return self.state

    def is_pose_slot(self) -> bool:
        return self._require_state().slot % self.config.pose_update_period == 0

    # ------------------------------------------------------------ kinematics
    def apply_uav_actions(self, actions) -> UavMove:
        """Move every UAV one slot from raw actions ``(dir_xyz, speed_raw)``.

        Directions are the normalized raw 3-vector (zero raw holds
        position); ``speed_raw`` in [-1, 1] maps linearly onto
        [0, v_max].  Positions are clamped to the flight box afterwards.
        """
        cfg = self.config
        st = self._require_state()
        if st.slot >= cfg.num_slots:
            raise ProtocolError("episode is over; reset() to continue")
        acts = np.asarray(actions, dtype=float)
        if acts.shape != (cfg.num_uavs, 4):
            raise ValueError(f"expected actions of shape ({cfg.num_uavs}, 4), got {acts.shape}")
        if not np.all(np.isfinite(acts)):
            raise ValueError("UAV actions contain non-finite entries")
        a = cfg.area_half_extent
        raw_dir = acts[:, :3]
        norm = geo.row_norms(raw_dir)
        speed = np.clip(cfg.v_max * (acts[:, 3] + 1.0) / 2.0, 0.0, cfg.v_max)
        moving = (norm > 1e-12) & (speed > 0.0)
        step = (speed * cfg.slot_duration)[:, None] * raw_dir / np.where(moving, norm, 1.0)[:, None]
        new_positions = np.where(moving[:, None], st.uav_positions + step, st.uav_positions)
        new_positions[:, :2] = np.clip(new_positions[:, :2], -a, a)
        new_positions[:, 2] = np.clip(new_positions[:, 2], 0.0, cfg.altitude_max)
        moved = np.linalg.norm(new_positions - st.uav_positions, axis=1)
        limit = cfg.v_max * cfg.slot_duration + 1e-9
        if not np.all(moved <= limit):
            worst = int(np.argmax(moved))
            raise InvariantError(
                f"UAV {worst} moved {moved[worst]:.6g} m in one slot, more than v_max * slot_duration"
                f" ({cfg.v_max * cfg.slot_duration:.6g} m)"
            )
        st.uav_positions = new_positions
        sep = geo.min_pairwise_distance(new_positions)
        eps1 = int(sep < cfg.d_min)
        return UavMove(new_positions, eps1, cfg.collision_penalty if eps1 else 0.0, sep)

    # ------------------------------------------------------------ surface pose
    def _clamp_center(self, center: np.ndarray) -> np.ndarray:
        anchor = self.config.initial_surface_center
        half = self.config.surface_box_half_extent
        return np.clip(center, anchor - half, anchor + half)

    def _circle_project(self, proposed: np.ndarray, current: np.ndarray) -> np.ndarray:
        anchor = self.config.initial_surface_center
        radius = self.config.scheme4_circle_radius
        horiz = proposed[:2] - anchor[:2]
        if np.linalg.norm(horiz) < 1e-9:
            horiz = current[:2] - anchor[:2]
        if np.linalg.norm(horiz) < 1e-9:
            horiz = np.array([1.0, 0.0])
        unit = horiz / np.linalg.norm(horiz)
        return np.array([anchor[0] + radius * unit[0], anchor[1] + radius * unit[1], anchor[2]])

    def apply_scheme_restriction(self, delta_angles, proposed_center):
        """Restrict a proposed pose action according to the active scheme.

        Scheme 1 and 2 pass the action through, 3 pins the center, 4 pins
        the rotation and projects the center onto the configured circle,
        and 5 freezes the pose entirely.
        """
        st = self._require_state()
        delta = np.asarray(delta_angles, dtype=float)
        center = np.asarray(proposed_center, dtype=float)
        if self.scheme in (1, 2):
            return delta, center
        if self.scheme == 3:
            return delta, st.pose.center.copy()
        if self.scheme == 4:
            return np.zeros(3), self._circle_project(center, st.pose.center)
        return np.zeros(3), st.pose.center.copy()

    def apply_6dma_action(self, delta_angles, center_raw) -> PoseUpdate:
        """Re-pose the surface at a decision slot.

        ``delta_angles`` are radians, clamped to +-theta_max per axis and
        accumulated onto the current rotation; ``center_raw`` in [-1, 1]^3
        maps to a displacement of at most ``center_step_limit`` per axis,
        clamped to the mobility box.  The blockage flag checks all UAVs
        and targets against the updated surface plane.
        """
        cfg = self.config
        st = self._require_state()
        if not self.is_pose_slot():
            raise ProtocolError(
                f"pose update requested at slot {st.slot}, cadence is every {cfg.pose_update_period} slots"
            )
        delta = np.asarray(delta_angles, dtype=float)
        raw = np.asarray(center_raw, dtype=float)
        if delta.shape != (3,) or raw.shape != (3,):
            raise ValueError("delta_angles and center_raw must be 3-vectors")
        if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(raw))):
            raise ValueError("pose action contains non-finite entries")
        delta = np.clip(delta, -cfg.theta_max, cfg.theta_max)
        proposed = self._clamp_center(st.pose.center + np.clip(raw, -1.0, 1.0) * cfg.center_step_limit)
        delta, center = self.apply_scheme_restriction(delta, proposed)
        pose = geo.SurfacePose(center, st.pose.angles + delta)
        st.pose = pose
        points = np.vstack([st.uav_positions, st.target_positions])
        ok, worst = geo.half_space_ok(pose, self.layout, points)
        eps2 = int(not ok)
        self._window_epsilon2 = eps2
        return PoseUpdate(pose, eps2, worst)

    # ------------------------------------------------------------ signals
    def _channel_matrix(self) -> np.ndarray:
        """Read-only (M+J, N) channel rows, UAVs first, for the current state.

        Computed once per distinct state and reused: the key holds the
        pose object (``SurfacePose`` arrays are read-only, and holding it
        keeps its identity from being reused) and the bytes of the UAV and
        target positions, which callers may change in place.
        """
        st = self._require_state()
        key = (st.uav_positions.tobytes(), st.target_positions.tobytes())
        cached = self._channel_key
        if cached is None or cached[0] is not st.pose or cached[1:] != key:
            antenna_positions = geo.global_antenna_positions(st.pose, self.layout)
            points = np.concatenate([st.uav_positions, st.target_positions])
            rows = ch.channel_matrix(st.pose.center, points, antenna_positions, self.config.wavelength)
            rows.setflags(write=False)
            self._channel_key = (st.pose, *key)
            self._channel_rows = rows
        return self._channel_rows

    def _channels(self) -> tuple[np.ndarray, np.ndarray]:
        rows = self._channel_matrix()
        m = self.config.num_uavs
        return rows[:m], rows[m:]

    def _raw_precoder(self, beam_action) -> np.ndarray:
        """The (N, M) precoder of raw [-1, 1] outputs, before projection.

        Entries interleave (re, im) per antenna, per stream; the scale is
        chosen so a fully saturated action meets the power budget exactly.
        """
        cfg = self.config
        n, m = cfg.num_antennas, cfg.num_uavs
        raw = np.asarray(beam_action, dtype=float)
        if raw.shape != (2 * n * m,):
            raise ValueError(f"beam action must have {2 * n * m} entries, got {raw.shape}")
        if not np.all(np.isfinite(raw)):
            raise ValueError("beam action contains non-finite entries")
        scale = np.sqrt(cfg.p_max / (2 * n * m))
        entries = scale * (raw[0::2] + 1j * raw[1::2])
        return entries.reshape(m, n).T  # stream-major raw layout -> (N, M)

    def step_metrics(self) -> isac.LinkMetrics:
        """All link metrics for the current state (projected precoder)."""
        st = self._require_state()
        cfg = self.config
        h_uav, h_tgt = self._channels()
        return isac.link_metrics(h_uav, h_tgt, st.precoder, cfg.sigma_c_sq, cfg.sigma_s_sq)

    def pointing_angle(self) -> float:
        """Mean angle (rad) between the surface normal and UAV directions."""
        st = self._require_state()
        normal = geo.surface_normal(st.pose, self.layout)
        delta = st.uav_positions - st.pose.center
        dist = geo.row_norms(delta)
        away = dist >= 1e-12
        cosines = np.matmul(delta[:, None, :], normal)[:, 0] / np.where(away, dist, 1.0)
        angles = np.where(away, np.arccos(np.clip(cosines, -1.0, 1.0)), 0.0)
        return float(np.mean(angles))

    # ------------------------------------------------------------ rewards
    def compute_rewards(self, metrics: isac.LinkMetrics, epsilon1: int, shaping, tx_power_raw: float,
                        min_separation: float, pointing_angle: float, slot: int, done: bool) -> StepOutcome:
        """Assemble the per-slot outcome from already-computed pieces.

        UAV reward: full sum rate when separation holds, otherwise the
        flat collision penalty; a per-UAV endpoint-progress bonus is added
        on top and stored separately.  Beam reward: sum rate minus the
        sensing-shortfall and power-overrun hinges plus the mean target
        SNR bonus.
        """
        cfg = self.config
        mean_snr = metrics.mean_target_snr
        delta3 = max(0.0, cfg.gamma_min - mean_snr)
        delta4 = max(0.0, tx_power_raw - cfg.p_max)
        delta5 = float(np.cos(pointing_angle)) / cfg.num_uavs
        shaping = np.asarray(shaping, dtype=float)
        base = (1.0 - epsilon1) * metrics.sum_rate - epsilon1 * cfg.collision_penalty
        rewards_uav = base + shaping
        reward_beam = metrics.sum_rate - delta3 - delta4 + mean_snr
        return StepOutcome(
            slot=slot,
            metrics=metrics,
            rewards_uav=rewards_uav,
            reward_beam=reward_beam,
            epsilon1=epsilon1,
            epsilon2=self._window_epsilon2,
            delta1=cfg.collision_penalty,
            delta2=cfg.blockage_penalty,
            delta3=delta3,
            delta4=delta4,
            delta5=delta5,
            shaping=shaping,
            tx_power_raw=tx_power_raw,
            mean_target_snr=mean_snr,
            pointing_angle=pointing_angle,
            min_uav_separation=min_separation,
            done=done,
        )

    def pose_window_reward(self, window_rates, window_angles, epsilon2: int) -> tuple[float, float]:
        """Delayed surface-agent reward over one decision window.

        Uses the window mean of the sum rate, the blockage flag captured
        at the decision slot, and a pointing bonus from the window-averaged
        normal-to-UAV angle.
        """
        cfg = self.config
        rates = np.asarray(window_rates, dtype=float)
        angles = np.asarray(window_angles, dtype=float)
        if rates.size == 0:
            raise ValueError("pose reward needs at least one slot of rates")
        delta5 = float(np.cos(angles.mean())) / cfg.num_uavs
        reward = (1.0 - epsilon2) * float(rates.mean()) - epsilon2 * cfg.blockage_penalty + delta5
        return reward, delta5

    # ------------------------------------------------------------ stepping
    def step_slot(self, uav_actions, beam_action) -> StepOutcome:
        """Advance one slot: move UAVs, install the precoder, score it.

        Both actions are checked before any state changes: a refused one
        leaves the positions, the precoder and the slot as they were.
        Physics uses the power-projected precoder, while the raw one's power
        is kept for the over-budget penalty.
        """
        cfg = self.config
        st = self._require_state()
        if st.slot >= cfg.num_slots:
            raise ProtocolError("episode is over; reset() to continue")
        slot = st.slot
        prev_positions = st.uav_positions.copy()
        w = self._raw_precoder(beam_action)
        move = self.apply_uav_actions(uav_actions)  # checks every UAV before it moves one
        st.precoder_raw, st.precoder = w, isac.project_power(w, cfg.p_max)
        metrics = self.step_metrics()
        raw_power = isac.tx_power(st.precoder_raw)
        prev_dist = np.linalg.norm(prev_positions - cfg.uav_ends, axis=1)
        new_dist = np.linalg.norm(st.uav_positions - cfg.uav_ends, axis=1)
        shaping = cfg.progress_bonus_weight * (prev_dist - new_dist) / (cfg.v_max * cfg.slot_duration)
        angle = self.pointing_angle()
        st.slot = slot + 1
        return self.compute_rewards(metrics, move.epsilon1, shaping, raw_power, move.min_separation, angle,
                                    slot, st.slot == cfg.num_slots)

    # ------------------------------------------------------------ observations
    def observations(self) -> Observations:
        cfg = self.config
        st = self._require_state()
        a = cfg.area_half_extent
        uav_scaled = st.uav_positions / a
        uav_obs = np.empty((cfg.num_uavs, 10))
        uav_obs[:, 0:3] = uav_scaled
        uav_obs[:, 3:6] = cfg.bs_position / a
        uav_obs[:, 6:9] = cfg.uav_ends / a
        uav_obs[:, 9] = st.slot / cfg.num_slots
        rows = self._channel_matrix() / self._beam_obs_scale
        # interleave per coefficient: [re, im, re, im, ...], UAV rows first
        beam_obs = np.empty(2 * rows.size)
        beam_obs[0::2] = rows.real.ravel()
        beam_obs[1::2] = rows.imag.ravel()
        sixdma_obs = np.concatenate([cfg.bs_position / a, uav_scaled.ravel()])
        return Observations(uav=uav_obs, beam=beam_obs, sixdma=sixdma_obs)

    # ------------------------------------------------------------ logging
    def episode_record(self, outcome: StepOutcome) -> dict:
        """One newline-delimited log record; see README for the schema.

        The state keys, then the link-metric keys, then every other
        :class:`StepOutcome` field in declaration order."""
        st = self._require_state()
        metrics = outcome.metrics
        record = {
            "slot": outcome.slot,
            "uav_positions": st.uav_positions.tolist(),
            "surface_center": st.pose.center.tolist(),
            "surface_angles": st.pose.angles.tolist(),
            "sum_rate": metrics.sum_rate,
            "sinr": metrics.sinr_per_uav.tolist(),
            "target_snr": metrics.snr_per_target.tolist(),
            "tx_power": metrics.tx_power,
        }
        for f in fields(outcome):
            if f.name not in ("slot", "metrics"):
                value = getattr(outcome, f.name)
                record[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return record
