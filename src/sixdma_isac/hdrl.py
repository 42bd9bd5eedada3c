"""Hierarchical training: slow surface agent over fast multi-agent TD3.

The fast layer holds one TD3 agent per UAV plus one beamforming agent;
the surface agent acts only at decision slots and receives its reward one
window later, aggregated over the slots its pose was live.  Each replay
buffer stores a transition as the row its critics read,
``[o_1, a_1, ..., o_K, a_K]`` over the agents it serves (UAV agents
0..M-1 and the beam agent in the fast buffer, the surface agent alone in
the pose buffer), with the next observations laid out the same way and one
reward column per agent.  A critic reads the whole row (the shared critic
of the fast agents) or its agent's own pair (scheme 2, the surface agent).
One TD3 round, :func:`_learn`, updates either layer.

Training and evaluation share one episode loop, :func:`_rollout`, which
keeps the paper's slot order: on its cadence the surface agent re-poses
the 6DMA, then the UAV agents pick flight directions, the beam agent the
precoder, and the slot is scored.  ``train`` adds learning on top of it,
``evaluate`` trajectories.

A roster checkpoint is ``roster.json`` and ``roster.npz``; a load reads
the actors, all that acting needs.  A snapshot (roster, buffers, generator
states, rows) resumes ``train`` exactly, with every agent's learner state
read first; :func:`swap_dir` swaps it in whole, as it does a run, so a
crash never mixes two.  Only this module knows these files.

Training is sequential and deterministic per seed; run several seeds as
independent processes if parallelism is needed.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import asdict, astuple, dataclass, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .env import SCHEMES, IsacEnv, ScenarioConfig
from .errors import ConfigError, ProtocolError, check_ranges, whole_number
from .rl import (
    VECTORS,
    AgentSettings,
    NoiseSchedule,
    ReplayBuffer,
    Td3Agent,
    vector_sizes,
)

UAV_OBS_DIM = 10
UAV_ACT_DIM = 4
POSE_ACT_DIM = 6
# The fields of a replay transition, in push order (see _transition).
_TRANSITION_FIELDS = ("row", "next_row", "reward", "done")
CHECKPOINT_VERSION = 3
# An agent's update counts, kept in roster.json as <agent>.<count>.
_COUNTS = ("critic_update_count", "actor_update_count")
# The training settings beside the agents' own that have a range: (test, what the test asks).
_RANGES = {
    **dict.fromkeys(("episodes", "batch_size", "buffer_capacity", "pose_buffer_capacity"),
                    (lambda v: v >= 1, "be >= 1")),
    **dict.fromkeys(("noise_std", "noise_floor", "explore_episodes", "seed"), (lambda v: v >= 0, "be >= 0")),
}


@dataclass(frozen=True)
class TrainConfig(AgentSettings):
    """Training budget and exploration of one run beside the agent settings it
    inherits; built only when every field passes its range, the scheme id is
    known and a batch fits both replay buffers."""

    episodes: int = 1000
    batch_size: int = 256
    explore_episodes: int = 600
    noise_std: float = 0.5
    noise_floor: float = 0.05
    buffer_capacity: int = 100_000
    scheme: int = 1
    seed: int = 0
    pose_buffer_capacity: int | None = None

    def __post_init__(self):
        super().__post_init__()  # coerces every field, then checks the agents' ranges
        check_ranges(vars(self), _RANGES)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme id {self.scheme}")
        capacity = min(self.buffer_capacity, self.pose_buffer_capacity or self.buffer_capacity)
        if self.batch_size > capacity:  # that buffer's agents would never learn
            raise ConfigError(f"batch_size must be at most the smaller replay capacity, {capacity}, "
                              f"got {self.batch_size}")

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
        pose_buffer_capacity=128,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _agent_dims(scenario: ScenarioConfig, config: TrainConfig) -> dict[str, tuple[int, int, int]]:
    """``(obs_dim, action_dim, critic_input_dim)`` of every agent, by name, in
    roster order: UAV agents, beam agent, surface agent."""
    m, j, n = scenario.num_uavs, scenario.num_targets, scenario.num_antennas
    obs_beam, act_beam, obs_pose = 2 * n * (m + j), 2 * n * m, 3 * (m + 1)
    fast = {f"uav_{k}": (UAV_OBS_DIM, UAV_ACT_DIM) for k in range(m)} | {"beam": (obs_beam, act_beam)}
    shared = sum(obs + act for obs, act in fast.values())  # the width of every fast agent's pair
    dims = {name: (obs, act, obs + act if config.scheme == 2 else shared) for name, (obs, act) in fast.items()}
    dims["sixdma"] = (obs_pose, POSE_ACT_DIM, obs_pose + POSE_ACT_DIM)
    return dims


class AgentRoster:
    """All agents of one run: M UAV agents, one beam agent, one pose agent,
    seeded from ``config.seed`` unless :meth:`load` passes ``agents`` by name."""

    _unread: Path | None = None  # the roster.npz whose learner state is not yet read; set by load

    def __init__(self, scenario: ScenarioConfig, config: TrainConfig, agents: dict[str, Td3Agent] | None = None):
        dims = _agent_dims(scenario, config)
        self.scheme = config.scheme
        self.num_uavs = scenario.num_uavs
        if agents is None:
            init_seeds = np.random.SeedSequence([config.seed, 101]).spawn(len(dims))
            agents = {name: Td3Agent(*d, rng=np.random.default_rng(seed), **config.agent_settings())
                      for (name, d), seed in zip(dims.items(), init_seeds)}
        self.agents = {name: agents[name] for name in dims}  # roster order
        self.uav_agents = [agents[f"uav_{k}"] for k in range(self.num_uavs)]
        self.beam_agent = agents["beam"]
        self.pose_agent = agents["sixdma"]

    def fast_agents(self) -> list[tuple[str, Td3Agent]]:
        return self.all_agents()[:-1]

    def all_agents(self) -> list[tuple[str, Td3Agent]]:
        return list(self.agents.items())

    def save(self, directory) -> None:
        """``roster.json`` (version, scheme, num_uavs, :class:`AgentSettings`, each ``<agent>.<count>``) and
        ``roster.npz`` (each ``<agent>.<vector>``); a ProtocolError, writing nothing, while learner state is unread."""
        if self._unread is not None:
            raise ProtocolError(f"{self._unread} holds learner state not yet read; call read_learner_state()")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / "roster.npz", **{f"{name}.{key}": vector for name, agent in self.all_agents()
                                              for key, vector in agent.vectors().items()})
        manifest = {"version": CHECKPOINT_VERSION, "scheme": self.scheme, "num_uavs": self.num_uavs,
                    **{key: getattr(self.beam_agent, key) for key in AgentSettings.__dataclass_fields__},
                    **{f"{name}.{key}": getattr(agent, key) for name, agent in self.all_agents() for key in _COUNTS}}
        (directory / "roster.json").write_text(json.dumps(manifest, indent=2))

    @classmethod
    def load(cls, directory, scenario: ScenarioConfig, config: TrainConfig) -> "AgentRoster":
        """The roster :meth:`save` wrote, each agent built once from its actor alone
        (:meth:`read_learner_state` reads the rest).  A ConfigError names what fails, checked in
        order: the version, each entry's kind and range, ``scheme``, ``num_uavs`` and the settings
        against ``(scenario, config)``, then each vector's length against its layer plan."""
        directory = Path(directory)
        manifest = json.loads((directory / "roster.json").read_text())
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"checkpoint {directory} is version {manifest.get('version')}; this version reads "
                              f"only version {CHECKPOINT_VERSION} checkpoints, so train the run afresh")
        settings = AgentSettings(**{key: manifest[key] for key in AgentSettings.__dataclass_fields__})
        counts = {key: whole_number(value, key) for key, value in manifest.items() if key.endswith(_COUNTS)}
        check_ranges(counts, dict.fromkeys(counts, (lambda v: v >= 0, "be >= 0")))
        recorded = {"scheme": manifest["scheme"], "num_uavs": manifest["num_uavs"], **settings.agent_settings()}
        implied = {"scheme": config.scheme, "num_uavs": scenario.num_uavs, **config.agent_settings()}
        for key, want in implied.items():
            if recorded[key] != want:
                raise ConfigError(f"checkpoint {directory} has {key} {recorded[key]}, the config implies {want}")
        dims = _agent_dims(scenario, config)
        sizes = {f"{name}.actor": vector_sizes(*d, config.hidden)["actor"] for name, d in dims.items()}
        actors = _read_vectors(directory / "roster.npz", sizes)
        agents = {name: Td3Agent.from_vectors(*d, {"actor": actors[f"{name}.actor"]}, **settings.agent_settings(),
                                              **{key: counts[f"{name}.{key}"] for key in _COUNTS})
                  for name, d in dims.items()}
        roster = cls(scenario, config, agents)
        roster._unread = directory / "roster.npz"
        return roster

    def read_learner_state(self) -> None:
        """Read the critics, targets and Adam moments :meth:`load` left on disk, once; a
        ProtocolError for a roster with none there (built, or read already)."""
        if self._unread is None:
            raise ProtocolError("this roster holds its learner state already; only a loaded roster reads it, once")
        sizes = {f"{name}.{key}": size for name, agent in self.all_agents() for key, size in vector_sizes(
            agent.obs_dim, agent.action_dim, agent.critic_input_dim, agent.hidden).items() if key != "actor"}
        vectors = _read_vectors(self._unread, sizes)
        for name, agent in self.all_agents():
            agent.adopt({key: vectors[f"{name}.{key}"] for key in VECTORS[1:]})
        self._unread = None


def _read_vectors(path: Path, sizes: dict[str, int]) -> dict[str, np.ndarray]:
    """The vectors of ``sizes`` (``<agent>.<vector>``: length) in the roster archive ``path``,
    each adopted as read; a ConfigError names one of another length."""
    with np.load(path) as arrays:
        vectors = {key: np.asarray(arrays[key], dtype=float) for key in sizes}
    for key, vector in vectors.items():
        if vector.shape != (sizes[key],):
            raise ConfigError(f"checkpoint {path} holds {key} of shape {vector.shape}, "
                              f"the config implies ({sizes[key]},)")
    return vectors


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
    """Per-episode totals: :func:`_rollout` adds those both row formats
    report, ``train`` the two reward totals only its row reports."""

    rate: float = 0.0
    snr: float = 0.0
    feasible: int = 0
    collisions: int = 0
    blockages: int = 0
    reward_beam: float = 0.0
    reward_uav: float = 0.0
    reward_pose: float = 0.0

    def physics(self, num_slots: int) -> dict:
        """The physics of an evaluation row, in its key order."""
        return {"sum_rate": self.rate / num_slots, "mean_snr": self.snr / num_slots,
                "snr_feasible_fraction": self.feasible / num_slots, "collisions": self.collisions,
                "blockages": self.blockages, "reward_beam": self.reward_beam}

    def training_row(self, episode: int, num_slots: int) -> EpisodeMetrics:
        """The training row: the physics it shares with an evaluation row, and both reward totals."""
        physics = self.physics(num_slots)
        return EpisodeMetrics(episode=episode, reward_uav=self.reward_uav, reward_pose=self.reward_pose,
                              **{key: physics[key] for key in METRIC_COLUMNS if key in physics})


def _rollout(env: IsacEnv, roster: AgentRoster, sums: _EpisodeSums, noise_std: float = 0.0,
             noise_rng: np.random.Generator | None = None):
    """Run one episode in the paper's slot order, yielding after each slot.

    Per slot: at decision slots the surface agent acts and the 6DMA is
    re-posed; then UAV agents 0..M-1 act, the beam agent acts (so
    exploration noise is drawn from ``noise_rng`` in that order), the
    environment scores the slot and ``sums`` takes its totals.  Yields
    ``(obs, pose_action, uav_actions, beam_action, outcome, next_obs)``
    where ``pose_action`` is the surface agent's action at decision slots
    and None otherwise.
    """
    cfg = env.config
    _, obs = env.reset()
    for _ in range(cfg.num_slots):
        pose_action = None
        if env.is_pose_slot():
            pose_action = roster.pose_agent.select_action(obs.sixdma, noise_std, noise_rng)
            sums.blockages += env.apply_6dma_action(pose_action[:3] * cfg.theta_max, pose_action[3:]).epsilon2
        uav_actions = np.stack([agent.select_action(obs.uav[m], noise_std, noise_rng)
                                for m, agent in enumerate(roster.uav_agents)])
        beam_action = roster.beam_agent.select_action(obs.beam, noise_std, noise_rng)
        outcome = env.step_slot(uav_actions, beam_action)
        next_obs = env.observations()
        sums.rate += outcome.metrics.sum_rate
        sums.snr += outcome.mean_target_snr
        sums.feasible += int(outcome.mean_target_snr >= cfg.gamma_min)
        sums.collisions += outcome.epsilon1
        sums.reward_beam += outcome.reward_beam
        yield obs, pose_action, uav_actions, beam_action, outcome, next_obs
        obs = next_obs


def _transition(pairs, next_obs, rewards, done: bool) -> dict:
    """A replay transition in the layout the critics read: ``row`` is
    ``[o_1, a_1, ..., o_K, a_K]`` over the (observation, action) ``pairs``,
    ``next_row`` the ``next_obs`` in the same layout with zeros in the action
    slots (:func:`_learn` writes a batch's target actions there), ``reward``
    one column per agent."""
    row = np.concatenate([part for pair in pairs for part in pair])
    next_row = np.concatenate([part for o, (_, a) in zip(next_obs, pairs) for part in (o, np.zeros_like(a))])
    return dict(zip(_TRANSITION_FIELDS, (row, next_row, rewards, float(done))))


def _learn(agents: list[Td3Agent], buffer: ReplayBuffer, batch_size: int, rng: np.random.Generator) -> None:
    """One TD3 round for ``agents`` on a batch from ``buffer``, once it holds one.

    The buffer's rows hold the agents' pairs in list order.  Every agent's
    target actions are drawn first, in list order, into the action slots of
    the batch's ``next_row`` (a copy: the stored rows keep their zeros).
    Then each agent updates its critics on the whole row, when its critic
    reads that wide, or else on its own pair, and its actor and targets on
    the delayed cadence.
    """
    if len(buffer) < batch_size:
        return
    batch = buffer.sample(batch_size, rng)
    row, next_row = batch["row"], batch["next_row"]
    starts = list(accumulate((agent.obs_dim + agent.action_dim for agent in agents), initial=0))
    for agent, start in zip(agents, starts):
        obs_end = start + agent.obs_dim
        next_row[:, obs_end:obs_end + agent.action_dim] = agent.target_actions(next_row[:, start:obs_end], rng)
    for k, (agent, start) in enumerate(zip(agents, starts)):
        base = 0 if agent.critic_input_dim == row.shape[1] else start  # where the critic's input starts
        seen = slice(base, base + agent.critic_input_dim)
        agent.critic_update(row[:, seen], agent.td_targets(batch["reward"][:, k], next_row[:, seen], batch["done"]))
        if agent.should_update_actor():
            action = start - base + agent.obs_dim
            agent.actor_update(row[:, start:start + agent.obs_dim], row[:, seen],
                               slice(action, action + agent.action_dim))
            agent.soft_update()


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
    slots the surface agent runs a :func:`_learn` round; when a window
    ends, its transition enters the pose buffer with the reward of
    :meth:`IsacEnv.pose_window_reward`; then the joint fast transition is
    stored and the fast agents run a round.  Episode metrics are
    accumulated into one row per episode.

    ``episode_log`` is an optional text stream receiving one JSON record
    per slot; ``resume_from`` names a snapshot to resume.
    """
    env = IsacEnv(scenario, scheme=config.scheme)
    fast_buffer = ReplayBuffer(config.buffer_capacity)
    # the slow agent sees few transitions; a short buffer keeps its batch
    # close to the current fast-layer behaviour
    pose_capacity = config.pose_buffer_capacity or config.buffer_capacity
    pose_buffer = ReplayBuffer(pose_capacity)
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
    fast_agents = [agent for _, agent in roster.fast_agents()]
    for episode in range(start_episode, config.episodes):
        sums = _EpisodeSums()
        slots = _rollout(env, roster, sums, schedule.std(episode), noise_rng)
        for obs, pose, uav_actions, beam_action, outcome, next_obs in slots:
            if pose is not None:  # a window opens; its transition waits for the window's reward
                pose_action, pose_obs, rates, angles = pose, obs.sixdma, [], []
                _learn([roster.pose_agent], pose_buffer, config.batch_size, sample_rng)
            rates.append(outcome.metrics.sum_rate)
            angles.append(outcome.pointing_angle)
            if outcome.done or env.is_pose_slot():  # the window ends before the next decision
                reward, _ = env.pose_window_reward(rates, angles, outcome.epsilon2)
                pose_buffer.push(_transition([(pose_obs, pose_action)], [next_obs.sixdma], [reward], outcome.done))
                sums.reward_pose += reward
            fast_buffer.push(_transition([*zip(obs.uav, uav_actions), (obs.beam, beam_action)],
                                         [*next_obs.uav, next_obs.beam],
                                         [*outcome.rewards_uav, outcome.reward_beam], outcome.done))
            _learn(fast_agents, fast_buffer, config.batch_size, sample_rng)
            sums.reward_uav += float(np.mean(outcome.rewards_uav))
            if episode_log is not None:
                episode_log.write(json.dumps({"episode": episode, **env.episode_record(outcome)}) + "\n")
        metrics.append(sums.training_row(episode, num_slots))
        if snapshot_dir is not None and snapshot_interval and (episode + 1) % snapshot_interval == 0:
            if episode_log is not None:  # a resume keeps the logged records the snapshot covers: on disk first
                episode_log.flush()
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


def snapshot_episode(directory) -> int | None:
    """The episode a resume from ``directory`` starts at; None without a snapshot."""
    path = Path(directory) / "train_state.json"
    return json.loads(path.read_text())["next_episode"] if path.exists() else None


def swap_dir(staged: Path, directory: Path) -> None:
    """Rename ``directory`` to ``<directory>.old`` and ``staged`` to ``directory``, then
    remove the ``.old`` (and first one a cut swap left).  A crash between the renames
    leaves ``staged`` and the ``.old`` without ``directory``; never a mix of two."""
    retired = directory.with_name(directory.name + ".old")
    shutil.rmtree(retired, ignore_errors=True)
    if directory.exists():
        directory.rename(retired)
    staged.rename(directory)
    shutil.rmtree(retired, ignore_errors=True)


def _save_snapshot(directory: Path, next_episode: int, metrics, roster, fast_buffer, pose_buffer,
                   noise_rng, sample_rng, run_config: dict) -> None:
    """Write the snapshot's files plainly into ``<directory>.new`` and :func:`swap_dir` it
    in.  A crash before the swap leaves the previous snapshot, one inside it none."""
    staged = directory.with_name(directory.name + ".new")
    shutil.rmtree(staged, ignore_errors=True)  # left by a crash
    staged.mkdir(parents=True)
    roster.save(staged / "roster")
    for name, buffer in (("fast_buffer", fast_buffer), ("pose_buffer", pose_buffer)):
        np.savez(staged / f"{name}.npz", **buffer.state_arrays())
    state = {"next_episode": next_episode, "metrics": [m.as_row() for m in metrics],
             "noise_rng": noise_rng.bit_generator.state, "sample_rng": sample_rng.bit_generator.state,
             "config": run_config}
    (staged / "train_state.json").write_text(json.dumps(state))
    swap_dir(staged, directory)


def _load_snapshot(directory: Path, fast_buffer, pose_buffer, noise_rng, sample_rng,
                   scenario, config) -> tuple[AgentRoster, int, list[EpisodeMetrics]]:
    """Restore buffers and generators, and the roster with every agent's
    learner state; returns (roster, next episode, rows).  A snapshot written
    under other settings, or with none recorded, raises ConfigError."""
    for stale in (".new", ".old"):  # left by a cut swap; no later snapshot may come to remove them
        shutil.rmtree(directory.with_name(directory.name + stale), ignore_errors=True)
    state = json.loads((directory / "train_state.json").read_text())
    if "config" not in state:
        raise ConfigError(f"snapshot {directory} records no run settings to check; start afresh")
    saved, current = state["config"], _snapshot_config(scenario, config)
    changed = [f"{key} {saved.get(key)!r} -> {current.get(key)!r}"
               for key in sorted(saved.keys() | current.keys()) if saved.get(key) != current.get(key)]
    if changed:
        raise ConfigError(f"snapshot {directory} was written under other settings ({'; '.join(changed)}); "
                          "resume needs the settings it was written with, or a fresh output directory")
    roster = AgentRoster.load(directory / "roster", scenario, config)  # its version first
    roster.read_learner_state()
    for name, buffer in (("fast_buffer", fast_buffer), ("pose_buffer", pose_buffer)):
        with np.load(directory / f"{name}.npz") as arrays:
            held = [key.removeprefix("field_") for key in arrays.files if key.startswith("field_")]
            if held and held != list(_TRANSITION_FIELDS):
                raise ConfigError(f"snapshot {directory} holds {name} fields {held}; this version stores "
                                  f"{list(_TRANSITION_FIELDS)}, so train the run afresh")
            buffer.load_arrays(arrays)
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


def evaluate(roster: AgentRoster, scenario: ScenarioConfig, episodes: int = 20, seeds=None) -> dict:
    """The noise-free rollout of a trained roster, reported per episode.

    The rollout depends only on the roster, the scenario and the scheme
    (:meth:`IsacEnv.reset` ignores its seed), so it runs once.  Returns one
    row per episode, labelled with its seed, each repeating that rollout's
    mean sum rate, mean sensing SNR, violation counts, the fraction of slots
    whose mean sensing SNR meets the threshold and its own copy of the UAV
    trajectory, and an aggregate row.  :func:`profile_latency` measures
    decision latency.
    """
    if episodes < 1:
        raise ConfigError(f"evaluation needs at least one episode, got {episodes}")
    if seeds is None:
        seeds = list(range(episodes))
    if len(seeds) != episodes:
        raise ConfigError("need exactly one seed per evaluation episode")
    env, sums = IsacEnv(scenario, scheme=roster.scheme), _EpisodeSums()
    # reset puts every UAV at its start; tolist gives each row its own copy
    path = np.stack([scenario.uav_starts, *(env.state.uav_positions.copy() for _ in _rollout(env, roster, sums))])
    physics = sums.physics(scenario.num_slots)
    rows = [{"episode": episode, "seed": seed, **physics, "trajectory": path.tolist()}
            for episode, seed in enumerate(seeds)]
    aggregate = {key: float(np.mean([row[key] for row in rows])) for key in physics}  # every row has these keys
    return {"scheme": roster.scheme, "episodes": episodes, "seeds": list(seeds), "rows": rows, "aggregate": aggregate}


def profile_latency(roster: AgentRoster, calls: int = 10_000, seed: int = 0) -> list[dict]:
    """Per-agent single-forward latency over ``calls`` invocations each.

    Returns one row per agent (UAV agents first, then beamforming, then
    the surface agent) with average/max/P99 latency in milliseconds.
    """
    if calls < 1:
        raise ConfigError(f"profiling needs at least one call per agent, got {calls}")
    rng = np.random.default_rng(seed)
    rows = []
    for name, agent in roster.all_agents():
        obs = rng.normal(size=agent.obs_dim)
        samples = np.empty(calls)
        for k in range(calls):
            t0 = time.perf_counter()
            agent.select_action(obs)
            samples[k] = (time.perf_counter() - t0) * 1e3
        rows.append({"agent": name, "avg_ms": float(samples.mean()), "max_ms": float(samples.max()),
                     "p99_ms": percentile_leq(samples, 0.99), "calls": calls})
    return rows
