"""Hierarchical training: slow surface agent over fast multi-agent TD3.

The fast layer holds one TD3 agent per UAV plus one beamforming agent;
their critics see the concatenation of every fast agent's observation and
action (scheme 2 narrows each critic to its own observation/action).  The
surface agent acts only at decision slots and receives its reward one
window later, aggregated over the slots its pose was live.

Training and evaluation share one episode loop, :func:`_rollout`, which
keeps the paper's slot order: on its cadence the surface agent re-poses
the 6DMA, then the UAV agents pick flight directions, the beam agent the
precoder, and the slot is scored.  ``train`` adds learning on top of it,
``evaluate`` decision latencies and trajectories.

Training is sequential and deterministic per seed; run several seeds as
independent processes if parallelism is needed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .env import IsacEnv, ScenarioConfig
from .errors import ConfigError
from .rl import NoiseSchedule, ReplayBuffer, Td3Agent

UAV_OBS_DIM = 10
UAV_ACT_DIM = 4
POSE_ACT_DIM = 6
# TrainConfig fields every Td3Agent of a roster is built with.
_AGENT_SETTINGS = ("hidden", "lr_actor", "lr_critic", "gamma", "tau", "policy_delay", "smoothing_std")


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 1000
    batch_size: int = 256
    gamma: float = 0.99
    tau: float = 0.01
    lr_critic: float = 3e-4
    lr_actor: float = 1e-4
    explore_episodes: int = 600
    noise_std: float = 0.5
    noise_floor: float = 0.05
    policy_delay: int = 2
    hidden: tuple[int, ...] = (256, 256)
    buffer_capacity: int = 100_000
    scheme: int = 1
    seed: int = 0
    smoothing_std: float = 0.0
    prioritized_replay: bool = False
    pose_buffer_capacity: int | None = None

    def __post_init__(self):
        if self.episodes < 1 or self.batch_size < 1 or self.buffer_capacity < 1:
            raise ConfigError("episodes, batch_size and buffer_capacity must be positive")
        if self.scheme not in (1, 2, 3, 4, 5):
            raise ConfigError(f"unknown scheme id {self.scheme}")
        if self.pose_buffer_capacity is not None and self.pose_buffer_capacity < 1:
            raise ConfigError("pose_buffer_capacity must be positive when given")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}


def train_config_from_dict(data: dict) -> TrainConfig:
    unknown = set(data) - set(TrainConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown train-config keys: {sorted(unknown)}")
    return TrainConfig(**data)


def desk_train_config(**overrides) -> TrainConfig:
    """Small training budget matched to the desk scenario."""
    base = dict(
        episodes=150,
        batch_size=64,
        hidden=(64, 64),
        explore_episodes=80,
        noise_std=0.5,
        noise_floor=0.02,
        lr_critic=5e-4,
        lr_actor=1e-4,
        pose_buffer_capacity=128,
    )
    base.update(overrides)
    return TrainConfig(**base)


@dataclass(frozen=True)
class FastLayout:
    """Offsets of every fast agent inside the centralized critic input.

    Fixed order: [o_1, a_1, ..., o_M, a_M, o_beam, a_beam]; permuting the
    agents changes the vector, so the order is part of the contract.
    """

    num_uavs: int
    obs_beam: int
    obs_uav: int = UAV_OBS_DIM
    act_uav: int = UAV_ACT_DIM

    def __post_init__(self):
        object.__setattr__(self, "_uav_stride", self.obs_uav + self.act_uav)

    def width(self, act_beam: int) -> int:
        return self.num_uavs * (self.obs_uav + self.act_uav) + self.obs_beam + act_beam

    def uav_act_slice(self, m: int) -> slice:
        start = m * self._uav_stride + self.obs_uav
        return slice(start, start + self.act_uav)

    def beam_act_slice(self, act_beam: int) -> slice:
        start = self.num_uavs * self._uav_stride + self.obs_beam
        return slice(start, start + act_beam)

    def build(self, uav_obs, uav_act, beam_obs, beam_act) -> np.ndarray:
        """Concatenate batched per-agent pieces into (B, width)."""
        uav_obs = np.asarray(uav_obs, dtype=float)
        uav_act = np.asarray(uav_act, dtype=float)
        beam_obs = np.atleast_2d(np.asarray(beam_obs, dtype=float))
        beam_act = np.atleast_2d(np.asarray(beam_act, dtype=float))
        if uav_obs.ndim == 2:  # single sample (M, obs) -> (1, M, obs)
            uav_obs = uav_obs[None]
            uav_act = uav_act[None]
        per_uav = np.concatenate([uav_obs, uav_act], axis=2)
        flat = per_uav.reshape(per_uav.shape[0], -1)
        return np.concatenate([flat, beam_obs, beam_act], axis=1)


def _agent_dims(scenario: ScenarioConfig, config: TrainConfig) -> dict[str, tuple[int, int, int]]:
    """``(obs_dim, action_dim, critic_input_dim)`` of every agent, by name, in
    roster order: UAV agents, beam agent, surface agent."""
    m, j, n = scenario.num_uavs, scenario.num_targets, scenario.num_antennas
    obs_beam, act_beam, obs_pose = 2 * n * (m + j), 2 * n * m, 3 * (m + 1)
    if config.scheme == 2:
        uav_critic_in, beam_critic_in = UAV_OBS_DIM + UAV_ACT_DIM, obs_beam + act_beam
    else:
        uav_critic_in = beam_critic_in = FastLayout(num_uavs=m, obs_beam=obs_beam).width(act_beam)
    dims = {f"uav_{k}": (UAV_OBS_DIM, UAV_ACT_DIM, uav_critic_in) for k in range(m)}
    dims["beam"] = (obs_beam, act_beam, beam_critic_in)
    dims["sixdma"] = (obs_pose, POSE_ACT_DIM, obs_pose + POSE_ACT_DIM)
    return dims


class AgentRoster:
    """All agents of one run: M UAV agents, one beam agent, one pose agent,
    seeded from ``config.seed`` unless :meth:`load` passes ``agents`` by name."""

    def __init__(self, scenario: ScenarioConfig, config: TrainConfig, agents: dict[str, Td3Agent] | None = None):
        dims = _agent_dims(scenario, config)
        self.scheme = config.scheme
        self.num_uavs = scenario.num_uavs
        self.obs_beam, self.act_beam, _ = dims["beam"]
        self.obs_pose = dims["sixdma"][0]
        self.layout = FastLayout(num_uavs=self.num_uavs, obs_beam=self.obs_beam)
        self.central_width = self.layout.width(self.act_beam)
        if agents is None:
            init_seeds = np.random.SeedSequence([config.seed, 101]).spawn(len(dims))
            common = {key: getattr(config, key) for key in _AGENT_SETTINGS}
            agents = {name: Td3Agent(*d, rng=np.random.default_rng(seed), **common)
                      for (name, d), seed in zip(dims.items(), init_seeds)}
        self.uav_agents = [agents[f"uav_{k}"] for k in range(self.num_uavs)]
        self.beam_agent = agents["beam"]
        self.pose_agent = agents["sixdma"]

    def fast_agents(self) -> list[tuple[str, Td3Agent]]:
        named = [(f"uav_{k}", agent) for k, agent in enumerate(self.uav_agents)]
        named.append(("beam", self.beam_agent))
        return named

    def all_agents(self) -> list[tuple[str, Td3Agent]]:
        return self.fast_agents() + [("sixdma", self.pose_agent)]

    def critic_view(self, agent_index: int, central, uav_obs, uav_act, beam_obs, beam_act):
        """Critic input and action slice for one fast agent.

        ``agent_index`` counts UAV agents first, then the beam agent.
        Under scheme 2 the view narrows to the agent's own observation and
        action; otherwise it is the shared centralized vector.
        """
        if self.scheme != 2:
            if agent_index < self.num_uavs:
                return central, self.layout.uav_act_slice(agent_index)
            return central, self.layout.beam_act_slice(self.act_beam)
        if agent_index < self.num_uavs:
            own = np.concatenate([uav_obs[:, agent_index], uav_act[:, agent_index]], axis=1)
            return own, slice(UAV_OBS_DIM, UAV_OBS_DIM + UAV_ACT_DIM)
        own = np.concatenate([beam_obs, beam_act], axis=1)
        return own, slice(self.obs_beam, self.obs_beam + self.act_beam)

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, agent in self.all_agents():
            agent.save(directory / name)
        manifest = {
            "version": 1,
            "scheme": self.scheme,
            "num_uavs": self.num_uavs,
            "obs_beam": self.obs_beam,
            "act_beam": self.act_beam,
            "obs_pose": self.obs_pose,
        }
        (directory / "roster.json").write_text(json.dumps(manifest, indent=2))

    @classmethod
    def load(cls, directory, scenario: ScenarioConfig, config: TrainConfig) -> "AgentRoster":
        """The roster :meth:`save` wrote, each agent built once from its files.

        ConfigError names the field (and the agent) where the checkpoint
        differs from what ``(scenario, config)`` imply."""
        directory = Path(directory)
        manifest = json.loads((directory / "roster.json").read_text())
        for key, want in (("scheme", config.scheme), ("num_uavs", scenario.num_uavs)):
            if manifest[key] != want:
                raise ConfigError(f"checkpoint {directory} has {key} {manifest[key]}, the config implies {want}")
        agents = {}
        for name, dims in _agent_dims(scenario, config).items():
            agent = Td3Agent.load(directory / name)
            for key, want in zip(("obs_dim", "action_dim", "critic_input_dim", "hidden"), (*dims, config.hidden)):
                if getattr(agent, key) != want:
                    raise ConfigError(f"checkpoint agent {name} has {key} {getattr(agent, key)}, "
                                      f"the config implies {want}")
            agents[name] = agent
        return cls(scenario, config, agents)


@dataclass
class PendingPoseWindow:
    """Surface-agent transition waiting for its delayed window reward."""

    obs: np.ndarray
    action: np.ndarray
    epsilon2: int
    rates: list[float] = field(default_factory=list)
    angles: list[float] = field(default_factory=list)

    def add(self, sum_rate: float, pointing_angle: float) -> None:
        self.rates.append(sum_rate)
        self.angles.append(pointing_angle)


@dataclass(frozen=True)
class EpisodeMetrics:
    episode: int
    reward_uav: float
    reward_beam: float
    reward_pose: float
    sum_rate: float
    mean_snr: float
    collisions: int
    blockages: int

    def as_row(self) -> tuple:
        return astuple(self)


METRIC_COLUMNS = tuple(f.name for f in fields(EpisodeMetrics))


@dataclass
class TrainResult:
    roster: AgentRoster
    metrics: list[EpisodeMetrics]
    scenario: ScenarioConfig
    config: TrainConfig
    fast_transitions: int
    pose_transitions: int


def _rng_from(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


@dataclass
class _EpisodeSums:
    """Per-episode totals that training and evaluation both report."""

    rate: float = 0.0
    snr: float = 0.0
    feasible: int = 0
    collisions: int = 0
    blockages: int = 0
    reward_beam: float = 0.0


def _rollout(env: IsacEnv, roster: AgentRoster, seed: int, sums: _EpisodeSums, noise_std: float = 0.0,
             noise_rng: np.random.Generator | None = None, latencies: dict[str, list[float]] | None = None):
    """Run one episode in the paper's slot order, yielding after each slot.

    Per slot: at decision slots the surface agent acts and the 6DMA is
    re-posed; then UAV agents 0..M-1 act, the beam agent acts (so
    exploration noise is drawn from ``noise_rng`` in that order), the
    environment scores the slot and ``sums`` takes its totals.  Yields
    ``(obs, pose, uav_actions, beam_action, outcome, next_obs)`` where
    ``pose`` is ``(action, PoseUpdate)`` at decision slots and None
    otherwise.  With ``latencies`` given, each agent's decision time in
    milliseconds is appended under its roster name.
    """

    def act(name: str, agent: Td3Agent, obs: np.ndarray) -> np.ndarray:
        if latencies is None:
            return agent.select_action(obs, noise_std, noise_rng)
        t0 = time.perf_counter()
        action = agent.select_action(obs, noise_std, noise_rng)
        latencies[name].append((time.perf_counter() - t0) * 1e3)
        return action

    cfg = env.config
    env.reset(seed=seed)
    obs = env.observations()
    for _ in range(cfg.num_slots):
        pose = None
        if env.is_pose_slot():
            action = act("sixdma", roster.pose_agent, obs.sixdma)
            update = env.apply_6dma_action(action[:3] * cfg.theta_max, action[3:])
            sums.blockages += update.epsilon2
            pose = action, update
        uav_actions = np.stack([act(f"uav_{m}", agent, obs.uav[m])
                                for m, agent in enumerate(roster.uav_agents)])
        beam_action = act("beam", roster.beam_agent, obs.beam)
        outcome = env.step_slot(uav_actions, beam_action)
        next_obs = env.observations()
        sums.rate += outcome.metrics.sum_rate
        sums.snr += outcome.mean_target_snr
        sums.feasible += int(outcome.mean_target_snr >= cfg.gamma_min)
        sums.collisions += outcome.epsilon1
        sums.reward_beam += outcome.reward_beam
        yield obs, pose, uav_actions, beam_action, outcome, next_obs
        obs = next_obs


def _pose_transition(env: IsacEnv, pending: PendingPoseWindow, next_obs, done: float) -> tuple[dict, float]:
    reward, _ = env.pose_window_reward(pending.rates, pending.angles, pending.epsilon2)
    transition = {
        "obs": pending.obs,
        "action": pending.action,
        "reward": reward,
        "next_obs": np.asarray(next_obs, dtype=float),
        "done": done,
    }
    return transition, reward


def _update_pose_agent(agent: Td3Agent, buffer: ReplayBuffer, batch_size: int,
                       sample_rng: np.random.Generator) -> None:
    if len(buffer) < batch_size:
        return
    batch, idx = buffer.sample(batch_size, sample_rng)
    inputs = np.concatenate([batch["obs"], batch["action"]], axis=1)
    next_actions = agent.target_actions(batch["next_obs"], sample_rng)
    next_inputs = np.concatenate([batch["next_obs"], next_actions], axis=1)
    targets = agent.td_targets(batch["reward"], next_inputs, batch["done"])
    if buffer.prioritized:
        buffer.update_priorities(idx, agent.td_errors(inputs, targets))
    agent.critic_update(inputs, targets)
    if agent.should_update_actor():
        agent.actor_update(batch["obs"], inputs, slice(agent.obs_dim, agent.obs_dim + POSE_ACT_DIM))
        agent.soft_update()


def _update_fast_agents(roster: AgentRoster, buffer: ReplayBuffer, batch_size: int,
                        sample_rng: np.random.Generator) -> None:
    if len(buffer) < batch_size:
        return
    batch, idx = buffer.sample(batch_size, sample_rng)
    uav_obs, uav_act = batch["uav_obs"], batch["uav_act"]
    beam_obs, beam_act = batch["beam_obs"], batch["beam_act"]
    central = roster.layout.build(uav_obs, uav_act, beam_obs, beam_act)
    next_uav_act = np.stack(
        [agent.target_actions(batch["next_uav_obs"][:, m], sample_rng) for m, agent in enumerate(roster.uav_agents)],
        axis=1,
    )
    next_beam_act = roster.beam_agent.target_actions(batch["next_beam_obs"], sample_rng)
    central_next = roster.layout.build(batch["next_uav_obs"], next_uav_act, batch["next_beam_obs"], next_beam_act)
    priority_errors = np.zeros(batch_size)
    for index, (name, agent) in enumerate(roster.fast_agents()):
        inputs, act_slice = roster.critic_view(index, central, uav_obs, uav_act, beam_obs, beam_act)
        next_inputs, _ = roster.critic_view(index, central_next, batch["next_uav_obs"], next_uav_act,
                                            batch["next_beam_obs"], next_beam_act)
        rewards = batch["rewards_uav"][:, index] if index < roster.num_uavs else batch["reward_beam"]
        targets = agent.td_targets(rewards, next_inputs, batch["done"])
        if buffer.prioritized:
            priority_errors += agent.td_errors(inputs, targets)
        agent.critic_update(inputs, targets)
        if agent.should_update_actor():
            obs = uav_obs[:, index] if index < roster.num_uavs else beam_obs
            agent.actor_update(obs, inputs, act_slice)
            agent.soft_update()
    if buffer.prioritized:
        buffer.update_priorities(idx, priority_errors / (roster.num_uavs + 1))


def train(
    scenario: ScenarioConfig,
    config: TrainConfig,
    *,
    episode_log=None,
    snapshot_dir=None,
    snapshot_interval: int | None = None,
    resume_from=None,
) -> TrainResult:
    """Run the two-timescale training loop for one (scheme, seed) pair.

    Each slot of :func:`_rollout` is followed by learning: at decision
    slots the previous window is finalized into the surface agent's
    buffer and that agent updates; then the joint fast transition is
    stored and the fast critics update (actors on the delayed cadence).
    Episode metrics are accumulated into one row per episode.

    ``episode_log`` is an optional text stream receiving one JSON record
    per slot.  Snapshots (networks, optimizers, buffers, RNG states)
    enable exact resumption via ``resume_from``.
    """
    env = IsacEnv(scenario, scheme=config.scheme)
    fast_buffer = ReplayBuffer(config.buffer_capacity, prioritized=config.prioritized_replay)
    # the slow agent sees few transitions; a short buffer keeps its batch
    # close to the current fast-layer behaviour
    pose_capacity = config.pose_buffer_capacity or config.buffer_capacity
    pose_buffer = ReplayBuffer(pose_capacity, prioritized=config.prioritized_replay)
    noise_rng = _rng_from(config.seed, 202)
    sample_rng = _rng_from(config.seed, 303)
    schedule = NoiseSchedule(config.noise_std, config.noise_floor, config.explore_episodes)
    metrics: list[EpisodeMetrics] = []
    start_episode = 0

    if resume_from is None:
        roster = AgentRoster(scenario, config)
    else:
        roster, start_episode, metrics = _load_snapshot(
            Path(resume_from), fast_buffer, pose_buffer, noise_rng, sample_rng, scenario, config
        )

    num_slots = scenario.num_slots
    for episode in range(start_episode, config.episodes):
        sums = _EpisodeSums()
        reward_uav_total = 0.0
        reward_pose_total = 0.0
        slots = _rollout(env, roster, config.seed, sums, schedule.std(episode), noise_rng)
        for obs, pose, uav_actions, beam_action, outcome, next_obs in slots:
            if pose is not None:
                action, update = pose
                pending = PendingPoseWindow(obs.sixdma.copy(), action, update.epsilon2)
                _update_pose_agent(roster.pose_agent, pose_buffer, config.batch_size, sample_rng)
            pending.add(outcome.metrics.sum_rate, outcome.pointing_angle)
            if outcome.done or env.is_pose_slot():  # the window ends before the next decision
                transition, reward = _pose_transition(env, pending, next_obs.sixdma, float(outcome.done))
                pose_buffer.push(transition)
                reward_pose_total += reward
            fast_buffer.push(
                {
                    "uav_obs": obs.uav,
                    "uav_act": uav_actions,
                    "beam_obs": obs.beam,
                    "beam_act": beam_action,
                    "rewards_uav": outcome.rewards_uav,
                    "reward_beam": outcome.reward_beam,
                    "next_uav_obs": next_obs.uav,
                    "next_beam_obs": next_obs.beam,
                    "done": float(outcome.done),
                }
            )
            _update_fast_agents(roster, fast_buffer, config.batch_size, sample_rng)
            reward_uav_total += float(np.mean(outcome.rewards_uav))
            if episode_log is not None:
                episode_log.write(json.dumps({"episode": episode, **env.episode_record(outcome)}) + "\n")
        metrics.append(
            EpisodeMetrics(
                episode=episode,
                reward_uav=reward_uav_total,
                reward_beam=sums.reward_beam,
                reward_pose=reward_pose_total,
                sum_rate=sums.rate / num_slots,
                mean_snr=sums.snr / num_slots,
                collisions=sums.collisions,
                blockages=sums.blockages,
            )
        )
        if snapshot_dir is not None and snapshot_interval and (episode + 1) % snapshot_interval == 0:
            _save_snapshot(Path(snapshot_dir), episode + 1, metrics, roster, fast_buffer, pose_buffer,
                           noise_rng, sample_rng, _snapshot_config(scenario, config))
    # one fast transition per slot and one pose transition per window, resumed episodes included
    return TrainResult(roster, metrics, scenario, config, len(metrics) * num_slots,
                       len(metrics) * len(scenario.pose_decision_slots()))


# ---------------------------------------------------------------- snapshots
def _snapshot_config(scenario: ScenarioConfig, config: TrainConfig) -> dict:
    """The run settings a snapshot records and a resume must match, as JSON
    values: all but ``episodes``, so that a resume may extend a run."""
    settings = {f"scenario.{key}": value for key, value in scenario.to_dict().items()}
    settings.update((f"train.{key}", value) for key, value in config.to_dict().items() if key != "episodes")
    return json.loads(json.dumps(settings))


def _save_snapshot(directory: Path, next_episode: int, metrics, roster, fast_buffer, pose_buffer,
                   noise_rng, sample_rng, run_config: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    roster.save(directory / "roster")
    np.savez(directory / "fast_buffer.npz", **fast_buffer.state_arrays())
    np.savez(directory / "pose_buffer.npz", **pose_buffer.state_arrays())
    state = {
        "next_episode": next_episode,
        "metrics": [m.as_row() for m in metrics],
        "noise_rng": noise_rng.bit_generator.state,
        "sample_rng": sample_rng.bit_generator.state,
        "config": run_config,
    }
    (directory / "train_state.json").write_text(json.dumps(state))


def _load_snapshot(directory: Path, fast_buffer, pose_buffer, noise_rng, sample_rng,
                   scenario, config) -> tuple[AgentRoster, int, list[EpisodeMetrics]]:
    """Restore buffers and generators; returns (roster, next episode, rows).
    A snapshot written under other settings, or with none recorded, raises ConfigError."""
    state = json.loads((directory / "train_state.json").read_text())
    if "config" not in state:
        raise ConfigError(f"snapshot {directory} records no run settings to check; start afresh")
    saved, current = state["config"], _snapshot_config(scenario, config)
    changed = [f"{key} {saved.get(key)!r} -> {current.get(key)!r}"
               for key in sorted(saved.keys() | current.keys()) if saved.get(key) != current.get(key)]
    if changed:
        raise ConfigError(f"snapshot {directory} was written under other settings ({'; '.join(changed)}); "
                          "resume needs the settings it was written with, or a fresh output directory")
    roster = AgentRoster.load(directory / "roster", scenario, config)
    with np.load(directory / "fast_buffer.npz") as arrays:
        fast_buffer.load_arrays(arrays)
    with np.load(directory / "pose_buffer.npz") as arrays:
        pose_buffer.load_arrays(arrays)
    noise_rng.bit_generator.state = state["noise_rng"]
    sample_rng.bit_generator.state = state["sample_rng"]
    metrics = [EpisodeMetrics(*row) for row in state["metrics"]]
    return roster, state["next_episode"], metrics


# ---------------------------------------------------------------- evaluation
def percentile_leq(values, quantile: float) -> float:
    """Smallest stored value v such that `quantile` of samples are <= v."""
    ordered = np.sort(np.asarray(values, dtype=float))
    if ordered.size == 0:
        raise ValueError("no samples")
    rank = int(np.ceil(quantile * ordered.size)) - 1
    return float(ordered[max(rank, 0)])


def _latency_stats(samples_ms) -> dict:
    arr = np.asarray(samples_ms, dtype=float)
    return {
        "avg_ms": float(arr.mean()),
        "max_ms": float(arr.max()),
        "p99_ms": percentile_leq(arr, 0.99),
        "calls": int(arr.size),
    }


def evaluate(
    roster: AgentRoster,
    scenario: ScenarioConfig,
    episodes: int = 20,
    seeds=None,
    measure_latency: bool = True,
    include_trajectories: bool = True,
) -> dict:
    """Noise-free rollouts of a trained roster.

    Returns one row per episode (mean sum rate, mean sensing SNR,
    violation counts, the fraction of slots whose mean sensing SNR meets
    the threshold, and optionally the UAV trajectory), an aggregate row,
    and per-agent forward-latency statistics gathered during the
    rollouts.  All reported physics is deterministic given the seeds;
    latency numbers are wall-clock and vary between runs.
    """
    if seeds is None:
        seeds = list(range(episodes))
    if len(seeds) != episodes:
        raise ConfigError("need exactly one seed per evaluation episode")
    env = IsacEnv(scenario, scheme=roster.scheme)
    latencies: dict[str, list[float]] = {name: [] for name, _ in roster.all_agents()}
    rows = []
    num_slots = scenario.num_slots
    for episode, seed in enumerate(seeds):
        sums = _EpisodeSums()
        trajectory = [scenario.uav_starts.tolist()]  # reset puts every UAV at its start
        for _ in _rollout(env, roster, seed, sums, latencies=latencies):
            trajectory.append(env.state.uav_positions.tolist())
        row = {
            "episode": episode,
            "seed": seed,
            "sum_rate": sums.rate / num_slots,
            "mean_snr": sums.snr / num_slots,
            "snr_feasible_fraction": sums.feasible / num_slots,
            "collisions": sums.collisions,
            "blockages": sums.blockages,
            "reward_beam": sums.reward_beam,
        }
        if include_trajectories:
            row["trajectory"] = trajectory
        rows.append(row)
    aggregate_keys = ("sum_rate", "mean_snr", "snr_feasible_fraction", "collisions", "blockages", "reward_beam")
    aggregate = {key: float(np.mean([row[key] for row in rows])) for key in aggregate_keys}
    report = {
        "scheme": roster.scheme,
        "episodes": episodes,
        "seeds": list(seeds),
        "rows": rows,
        "aggregate": aggregate,
    }
    if measure_latency:
        report["latency_ms"] = {name: _latency_stats(vals) for name, vals in latencies.items()}
    return report


def profile_latency(roster: AgentRoster, calls: int = 10_000, seed: int = 0) -> list[dict]:
    """Per-agent single-forward latency over ``calls`` invocations each.

    Returns one row per agent (UAV agents first, then beamforming, then
    the surface agent) with average/max/P99 latency in milliseconds.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for name, agent in roster.all_agents():
        obs = rng.normal(size=agent.obs_dim)
        samples = np.empty(calls)
        for k in range(calls):
            t0 = time.perf_counter()
            agent.select_action(obs)
            samples[k] = (time.perf_counter() - t0) * 1e3
        rows.append({"agent": name, **_latency_stats(samples)})
    return rows
