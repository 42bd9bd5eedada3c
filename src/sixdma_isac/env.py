"""Episodic simulation of the movable-antenna ISAC base station.

One environment instance owns one rollout: UAVs move every slot, the
antenna surface re-poses only on its slow cadence, and every slot yields
link metrics, constraint flags and shaped rewards.  A single writer
mutates the instance; independent instances (one per seed) can run in
parallel freely.

Units: meters, seconds, radians, linear watts.  Slots are indexed
``0 .. num_slots-1``; surface decisions happen at slots
``{0, T_r, 2*T_r, ...}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel as ch
from . import geometry as geo
from . import isac
from .errors import ConfigError, InvariantError, ProtocolError

SCHEMES = (1, 2, 3, 4, 5)


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ConfigError(f"expected a 3-vector, got shape {a.shape}")
    return a


def _points(v, count, name) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (count, 3):
        raise ConfigError(f"{name} must have shape ({count}, 3), got {a.shape}")
    return a


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical scenario: geometry, counts, limits and penalty weights.

    Powers are linear watts and angles radians; use :func:`scenario_from_dict`
    or the factory helpers to enter dBm / dB / degree values.
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
    pose_reward_mode: str = "mean"
    scheme4_circle_radius: float = 2.5
    include_targets_in_collision: bool = False
    obs_ref_distance: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "bs_position", _vec3(self.bs_position))
        object.__setattr__(self, "initial_surface_center", _vec3(self.initial_surface_center))
        object.__setattr__(self, "uav_starts", _points(self.uav_starts, self.num_uavs, "uav_starts"))
        object.__setattr__(self, "uav_ends", _points(self.uav_ends, self.num_uavs, "uav_ends"))
        object.__setattr__(
            self, "target_positions", _points(self.target_positions, self.num_targets, "target_positions")
        )
        self.validate()
        if self.obs_ref_distance is None:
            ref = float(np.linalg.norm(self.initial_surface_center - self.uav_starts.mean(axis=0)))
            object.__setattr__(self, "obs_ref_distance", ref)

    def validate(self) -> None:
        positive = {
            "num_uavs": self.num_uavs,
            "num_targets": self.num_targets,
            "num_antennas": self.num_antennas,
            "num_slots": self.num_slots,
            "slot_duration": self.slot_duration,
            "v_max": self.v_max,
            "d_min": self.d_min,
            "wavelength": self.wavelength,
            "sigma_c_sq": self.sigma_c_sq,
            "sigma_s_sq": self.sigma_s_sq,
            "p_max": self.p_max,
            "gamma_min": self.gamma_min,
            "theta_max": self.theta_max,
            "pose_update_period": self.pose_update_period,
            "area_half_extent": self.area_half_extent,
            "altitude_max": self.altitude_max,
            "surface_side_length": self.surface_side_length,
            "surface_box_half_extent": self.surface_box_half_extent,
            "center_step_limit": self.center_step_limit,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.pose_update_period > self.num_slots:
            raise ConfigError("pose_update_period must be at most num_slots")
        if self.d_min >= 2 * self.area_half_extent:
            raise ConfigError("d_min must be smaller than the flight area")
        if self.pose_reward_mode not in ("mean", "sum"):
            raise ConfigError("pose_reward_mode must be 'mean' or 'sum'")
        if self.scheme4_circle_radius > self.surface_box_half_extent:
            raise ConfigError("scheme4_circle_radius must fit inside the surface mobility box")
        n_side = math.isqrt(self.num_antennas)
        if n_side * n_side != self.num_antennas:
            raise ConfigError("num_antennas must be a perfect square for the default grid layout")

    def antenna_layout(self) -> geo.AntennaLayout:
        layout = geo.square_grid_layout(math.isqrt(self.num_antennas), self.surface_side_length)
        if not geo.validate_spacing(layout, self.wavelength):
            raise ConfigError("antenna grid violates the half-wavelength spacing requirement")
        return layout

    def pose_decision_slots(self) -> list[int]:
        return list(range(0, self.num_slots, self.pose_update_period))

    def to_dict(self) -> dict:
        return {
            "num_uavs": self.num_uavs,
            "num_targets": self.num_targets,
            "num_antennas": self.num_antennas,
            "num_slots": self.num_slots,
            "slot_duration": self.slot_duration,
            "v_max": self.v_max,
            "d_min": self.d_min,
            "wavelength": self.wavelength,
            "sigma_c_sq": self.sigma_c_sq,
            "sigma_s_sq": self.sigma_s_sq,
            "p_max": self.p_max,
            "gamma_min": self.gamma_min,
            "theta_max": self.theta_max,
            "pose_update_period": self.pose_update_period,
            "area_half_extent": self.area_half_extent,
            "altitude_max": self.altitude_max,
            "bs_position": self.bs_position.tolist(),
            "initial_surface_center": self.initial_surface_center.tolist(),
            "uav_starts": self.uav_starts.tolist(),
            "uav_ends": self.uav_ends.tolist(),
            "target_positions": self.target_positions.tolist(),
            "surface_side_length": self.surface_side_length,
            "surface_box_half_extent": self.surface_box_half_extent,
            "center_step_limit": self.center_step_limit,
            "collision_penalty": self.collision_penalty,
            "blockage_penalty": self.blockage_penalty,
            "progress_bonus_weight": self.progress_bonus_weight,
            "pose_reward_mode": self.pose_reward_mode,
            "scheme4_circle_radius": self.scheme4_circle_radius,
            "include_targets_in_collision": self.include_targets_in_collision,
            "obs_ref_distance": self.obs_ref_distance,
        }


_CONVENIENCE_KEYS = ("sigma_c_dbm", "sigma_s_dbm", "p_max_dbm", "gamma_min_db", "theta_max_deg")


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a scenario from a plain dict, accepting dBm/dB/degree keys."""
    kwargs = dict(data)
    if "sigma_c_dbm" in kwargs:
        kwargs["sigma_c_sq"] = isac.dbm_to_watts(float(kwargs.pop("sigma_c_dbm")))
    if "sigma_s_dbm" in kwargs:
        kwargs["sigma_s_sq"] = isac.dbm_to_watts(float(kwargs.pop("sigma_s_dbm")))
    if "p_max_dbm" in kwargs:
        kwargs["p_max"] = isac.dbm_to_watts(float(kwargs.pop("p_max_dbm")))
    if "gamma_min_db" in kwargs:
        kwargs["gamma_min"] = isac.db_to_linear(float(kwargs.pop("gamma_min_db")))
    if "theta_max_deg" in kwargs:
        kwargs["theta_max"] = math.radians(float(kwargs.pop("theta_max_deg")))
    unknown = set(kwargs) - set(ScenarioConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    return ScenarioConfig(**kwargs)


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
    base.update(overrides)
    return scenario_from_dict(base)


def desk_scenario(**overrides) -> ScenarioConfig:
    """Small, fast scenario with short ranges so sensing targets are
    reachable at the benchmark power budget."""
    base = dict(
        num_uavs=2,
        num_targets=2,
        num_antennas=4,
        num_slots=20,
        slot_duration=2.5,
        v_max=8.0,
        d_min=3.0,
        wavelength=0.125,
        sigma_c_dbm=-50.0,
        sigma_s_dbm=-50.0,
        p_max=0.04,
        gamma_min_db=1.0,
        theta_max_deg=10.0,
        pose_update_period=5,
        area_half_extent=50.0,
        altitude_max=45.0,
        bs_position=(0.0, 0.0, 0.0),
        initial_surface_center=(0.0, 0.0, 20.0),
        center_step_limit=2.5,
        progress_bonus_weight=1.0,
        uav_starts=[(10.0, -25.0, 22.0), (18.0, -25.0, 26.0)],
        uav_ends=[(10.0, 25.0, 22.0), (18.0, 25.0, 26.0)],
        target_positions=[(8.0, 2.0, 22.0), (12.0, -4.0, 24.0)],
    )
    base.update(overrides)
    return scenario_from_dict(base)


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
    by the J sensing rows, scaled by the reference free-space amplitude.
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
    """Everything produced by one slot, sufficient to recompose rewards."""

    slot: int
    metrics: isac.LinkMetrics
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
    tx_power_raw: float
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
        self.state: WorldState | None = None
        self._window_epsilon2 = 0
        self._seed = None

    # ------------------------------------------------------------ lifecycle
    def reset(self, seed: int = 0) -> tuple[WorldState, Observations]:
        cfg = self.config
        self._seed = seed
        starts = cfg.uav_starts.copy()
        sep = self._min_separation(starts, cfg.target_positions)
        if sep < cfg.d_min:
            raise ConfigError(
                f"initial separation {sep:.3f} m violates d_min={cfg.d_min} m"
            )
        n, m = cfg.num_antennas, cfg.num_uavs
        self.state = WorldState(
            slot=0,
            uav_positions=starts,
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

    def is_pose_slot(self, slot: int | None = None) -> bool:
        st = self._require_state()
        s = st.slot if slot is None else slot
        return s % self.config.pose_update_period == 0

    # ------------------------------------------------------------ kinematics
    def _min_separation(self, uav_positions: np.ndarray, targets: np.ndarray) -> float:
        pts = uav_positions
        if self.config.include_targets_in_collision:
            pts = np.vstack([uav_positions, targets])
        return geo.min_pairwise_distance(pts)

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
        new_positions = st.uav_positions.copy()
        for m in range(cfg.num_uavs):
            raw_dir = acts[m, :3]
            norm = np.linalg.norm(raw_dir)
            speed = float(np.clip(cfg.v_max * (acts[m, 3] + 1.0) / 2.0, 0.0, cfg.v_max))
            if norm > 1e-12 and speed > 0.0:
                step = speed * cfg.slot_duration * raw_dir / norm
                new_positions[m] = st.uav_positions[m] + step
            new_positions[m, 0] = np.clip(new_positions[m, 0], -a, a)
            new_positions[m, 1] = np.clip(new_positions[m, 1], -a, a)
            new_positions[m, 2] = np.clip(new_positions[m, 2], 0.0, cfg.altitude_max)
        moved = np.linalg.norm(new_positions - st.uav_positions, axis=1)
        limit = cfg.v_max * cfg.slot_duration + 1e-9
        if not np.all(moved <= limit):
            worst = int(np.argmax(moved))
            raise InvariantError(
                f"UAV {worst} moved {moved[worst]:.6g} m in one slot, more than v_max * slot_duration"
                f" ({cfg.v_max * cfg.slot_duration:.6g} m)"
            )
        st.uav_positions = new_positions
        sep = self._min_separation(new_positions, st.target_positions)
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
        pose = geo.SurfacePose(self._clamp_center(center), st.pose.angles + delta)
        st.pose = pose
        points = np.vstack([st.uav_positions, st.target_positions])
        ok, worst = geo.half_space_ok(pose, self.layout, points)
        eps2 = int(not ok)
        self._window_epsilon2 = eps2
        return PoseUpdate(pose, eps2, worst)

    # ------------------------------------------------------------ signals
    def _channels(self) -> tuple[np.ndarray, np.ndarray]:
        st = self._require_state()
        cfg = self.config
        antenna_positions = geo.global_antenna_positions(st.pose, self.layout)
        h_uav = np.stack(
            [
                ch.channel_vector(st.pose.center, p, antenna_positions, cfg.wavelength)
                for p in st.uav_positions
            ]
        )
        h_tgt = np.stack(
            [
                ch.channel_vector(st.pose.center, p, antenna_positions, cfg.wavelength)
                for p in st.target_positions
            ]
        )
        return h_uav, h_tgt

    def set_precoder_action(self, beam_action) -> None:
        """Install the precoder from raw [-1, 1] outputs.

        Entries interleave (re, im) per antenna, per stream; the scale is
        chosen so a fully saturated action meets the power budget exactly.
        Physics uses the power-projected matrix while the raw power is
        kept for the over-budget penalty.
        """
        cfg = self.config
        st = self._require_state()
        n, m = cfg.num_antennas, cfg.num_uavs
        raw = np.asarray(beam_action, dtype=float)
        if raw.shape != (2 * n * m,):
            raise ValueError(f"beam action must have {2 * n * m} entries, got {raw.shape}")
        if not np.all(np.isfinite(raw)):
            raise ValueError("beam action contains non-finite entries")
        scale = np.sqrt(cfg.p_max / (2 * n * m))
        entries = scale * (raw[0::2] + 1j * raw[1::2])
        w = entries.reshape(m, n).T  # stream-major raw layout -> (N, M)
        st.precoder_raw = w
        st.precoder = isac.project_power(w, cfg.p_max)

    def set_precoder(self, precoder) -> None:
        """Install an explicit complex (N, M) precoder (tests, demos)."""
        cfg = self.config
        st = self._require_state()
        w = np.asarray(precoder, dtype=complex)
        if w.shape != (cfg.num_antennas, cfg.num_uavs):
            raise ValueError(f"precoder must be ({cfg.num_antennas}, {cfg.num_uavs})")
        st.precoder_raw = w
        st.precoder = isac.project_power(w, cfg.p_max)

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
        angles = []
        for p in st.uav_positions:
            delta = p - st.pose.center
            dist = np.linalg.norm(delta)
            if dist < 1e-12:
                angles.append(0.0)
                continue
            angles.append(float(np.arccos(np.clip(normal @ delta / dist, -1.0, 1.0))))
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

        Uses the window mean of the sum rate (or the sum, per config),
        the blockage flag captured at the decision slot, and a pointing
        bonus from the window-averaged normal-to-UAV angle.
        """
        cfg = self.config
        rates = np.asarray(window_rates, dtype=float)
        angles = np.asarray(window_angles, dtype=float)
        if rates.size == 0:
            raise ValueError("pose reward needs at least one slot of rates")
        value = float(rates.mean()) if cfg.pose_reward_mode == "mean" else float(rates.sum())
        delta5 = float(np.cos(angles.mean())) / cfg.num_uavs
        reward = (1.0 - epsilon2) * value - epsilon2 * cfg.blockage_penalty + delta5
        return reward, delta5

    # ------------------------------------------------------------ stepping
    def step_slot(self, uav_actions, beam_action) -> StepOutcome:
        """Advance one slot: move UAVs, install the precoder, score it."""
        cfg = self.config
        st = self._require_state()
        if st.slot >= cfg.num_slots:
            raise ProtocolError("episode is over; reset() to continue")
        slot = st.slot
        prev_positions = st.uav_positions.copy()
        move = self.apply_uav_actions(uav_actions)
        self.set_precoder_action(beam_action)
        metrics = self.step_metrics()
        raw_power = isac.tx_power(st.precoder_raw)
        prev_dist = np.linalg.norm(prev_positions - cfg.uav_ends, axis=1)
        new_dist = np.linalg.norm(st.uav_positions - cfg.uav_ends, axis=1)
        shaping = cfg.progress_bonus_weight * (prev_dist - new_dist) / (cfg.v_max * cfg.slot_duration)
        angle = self.pointing_angle()
        st.slot = slot + 1
        done = st.slot == cfg.num_slots
        return self.compute_rewards(
            metrics,
            move.epsilon1,
            shaping,
            raw_power,
            move.min_separation,
            angle,
            slot,
            done,
        )

    # ------------------------------------------------------------ observations
    def observations(self) -> Observations:
        cfg = self.config
        st = self._require_state()
        a = cfg.area_half_extent
        t_norm = st.slot / cfg.num_slots
        uav_obs = np.stack(
            [
                np.concatenate([st.uav_positions[m] / a, cfg.bs_position / a, cfg.uav_ends[m] / a, [t_norm]])
                for m in range(cfg.num_uavs)
            ]
        )
        h_uav, h_tgt = self._channels()
        ch_scale = cfg.wavelength / (4.0 * np.pi * cfg.obs_ref_distance)
        rows = np.vstack([h_uav, h_tgt]) / ch_scale
        # interleave per coefficient: [re, im, re, im, ...], UAV rows first
        beam_obs = np.empty(2 * rows.size)
        beam_obs[0::2] = rows.real.ravel()
        beam_obs[1::2] = rows.imag.ravel()
        sixdma_obs = np.concatenate([cfg.bs_position / a] + [p / a for p in st.uav_positions])
        return Observations(uav=uav_obs, beam=beam_obs, sixdma=sixdma_obs)

    # ------------------------------------------------------------ logging
    def episode_record(self, outcome: StepOutcome) -> dict:
        """One newline-delimited log record; see README for the schema."""
        st = self._require_state()
        return {
            "slot": outcome.slot,
            "uav_positions": st.uav_positions.tolist(),
            "surface_center": st.pose.center.tolist(),
            "surface_angles": st.pose.angles.tolist(),
            "sum_rate": outcome.metrics.sum_rate,
            "sinr": outcome.metrics.sinr_per_uav.tolist(),
            "target_snr": outcome.metrics.snr_per_target.tolist(),
            "tx_power": outcome.metrics.tx_power,
            "tx_power_raw": outcome.tx_power_raw,
            "rewards_uav": outcome.rewards_uav.tolist(),
            "reward_beam": outcome.reward_beam,
            "epsilon1": outcome.epsilon1,
            "epsilon2": outcome.epsilon2,
            "delta1": outcome.delta1,
            "delta2": outcome.delta2,
            "delta3": outcome.delta3,
            "delta4": outcome.delta4,
            "delta5": outcome.delta5,
            "shaping": outcome.shaping.tolist(),
            "mean_target_snr": outcome.mean_target_snr,
            "pointing_angle": outcome.pointing_angle,
            "min_uav_separation": outcome.min_uav_separation,
            "done": outcome.done,
        }
