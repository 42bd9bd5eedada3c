"""Single-agent TD3 building block.

One :class:`Td3Agent` bundles an actor, twin critics and their three
target networks.  The critic input is an externally assembled vector, so
the same class serves per-UAV agents, the beamforming agent and the
surface agent; callers own the layout and pass the slice where this
agent's action lives.  A trainer is the only mutator of an agent; frozen
copies may serve inference concurrently.  Acting needs only the actor,
so :meth:`Td3Agent.load` reads the actor alone; a caller that learns
calls :meth:`Td3Agent.read_learner_state` for the critics, targets and
Adam moments.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ProtocolError, check_ranges
from .nn import CHUNK, Adam, Mlp, scratch

CHECKPOINT_VERSION = 2
# TD3's clip of its target-policy smoothing noise (Fujimoto et al. 2018).
SMOOTHING_CLIP = 0.5
_NETWORKS = ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2")
# The networks with an optimizer, with the attributes holding its learning
# rate and its step count (the count of the updates it made).
_OPTIMIZED = {"actor": ("lr_actor", "actor_update_count"), "critic1": ("lr_critic", "critic_update_count"),
              "critic2": ("lr_critic", "critic_update_count")}
# The keys of state.npz, the actor's first: networks, then optimizer moments.
_VECTORS = (*_NETWORKS, *(f"opt_{name}_{moment}" for name in _OPTIMIZED for moment in "mv"))
# Constructor arguments an agent stores and its manifest records, in the
# manifest's key order, with the type each is stored as.
_HYPERPARAMETERS = {
    "obs_dim": int, "action_dim": int, "critic_input_dim": int, "hidden": lambda h: tuple(int(x) for x in h),
    "lr_actor": float, "lr_critic": float, "gamma": float, "tau": float, "policy_delay": int,
    "smoothing_std": float,
}
# The constructor settings that have a range: (test, what the test asks).
AGENT_RANGES = {
    "hidden": (lambda widths: all(w >= 1 for w in widths), "hold widths >= 1"),
    "gamma": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "tau": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "policy_delay": (lambda v: v >= 1, "be >= 1"),
    **dict.fromkeys(("lr_actor", "lr_critic"), (lambda v: v > 0.0, "be > 0")),
    "smoothing_std": (lambda v: v >= 0, "be >= 0"),
}


def check_version(manifest: dict, directory) -> None:
    """ConfigError unless ``manifest`` is of :data:`CHECKPOINT_VERSION`."""
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint {directory} is version {manifest.get('version')}; this version reads "
                          f"only version {CHECKPOINT_VERSION} checkpoints, so train the run afresh")


@contextmanager
def staged_file(path):
    """Yield ``<path>.tmp`` to write and rename it over ``path`` once the
    block ends; a block that fails removes it.  A crash mid-write leaves
    the previous file (or none), never a torn one."""
    path = Path(path)
    staged = path.with_name(path.name + ".tmp")
    try:
        yield staged
        os.replace(staged, path)
    finally:
        staged.unlink(missing_ok=True)


def write_whole(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`staged_file`."""
    with staged_file(path) as staged:
        staged.write_text(text)


@dataclass(frozen=True)
class NoiseSchedule:
    """Linearly decaying exploration noise, flat after the decay horizon."""

    initial_std: float = 0.5
    floor_std: float = 0.05
    decay_episodes: int = 600

    def std(self, episode: int) -> float:
        if self.decay_episodes <= 0:
            return self.floor_std
        frac = min(max(episode, 0), self.decay_episodes) / self.decay_episodes
        return max(self.floor_std, self.initial_std - (self.initial_std - self.floor_std) * frac)


def _lazy_zeros(shape) -> np.ndarray:
    """A zeroed float64 array in its own private anonymous memory map.

    The kernel supplies each page zeroed on its first write, so rows never
    pushed cost no resident memory.  A ``np.zeros`` block gets that only
    while the C allocator maps it freshly: once glibc has freed a large
    block it raises its mmap threshold, later blocks up to that size come
    from the heap, and ``calloc`` clears reused heap memory in full.
    """
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(8 * count, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=float, count=count).reshape(shape)


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling without
    replacement.

    Fields are fixed on the first push; each later push must carry the
    same keys and shapes, or it is a ValueError naming the field and nothing
    is written.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._storage: dict[str, np.ndarray] | None = None
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: dict) -> None:
        if self._storage is None:
            self._storage = {}
            for key, value in transition.items():
                self._storage[key] = _lazy_zeros((self.capacity, *np.shape(value)))
        if transition.keys() != self._storage.keys():
            key = min(transition.keys() ^ self._storage.keys())
            raise ValueError(f"replay field {key!r} is " + ("missing from the transition" if key in self._storage
                                                            else "not one the buffer stores"))
        rows = {key: np.asarray(value, dtype=float) for key, value in transition.items()}
        for key, store in self._storage.items():
            if rows[key].shape != store.shape[1:]:
                raise ValueError(f"replay field {key!r} has shape {rows[key].shape}, "
                                 f"the buffer stores {store.shape[1:]}")
        for key, store in self._storage.items():
            store[self._next] = rows[key]
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        if self._size == 0 or batch_size > self._size:
            raise ValueError(f"buffer holds {self._size} transitions, cannot sample {batch_size}")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return {key: store[idx] for key, store in self._storage.items()}

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"buffer_meta": np.array([self._size, self._next], dtype=np.int64)}
        if self._storage is not None:
            for key, store in self._storage.items():
                arrays[f"field_{key}"] = store
        return arrays

    def load_arrays(self, arrays) -> None:
        """Restore :meth:`state_arrays` output, adopting the float arrays
        without a copy: pass arrays that nothing else holds (as ``np.load``
        returns them), or copies."""
        meta = np.asarray(arrays["buffer_meta"])
        self._size, self._next = int(meta[0]), int(meta[1])
        storage = {key[len("field_"):]: np.asarray(arrays[key], dtype=float)
                   for key in arrays if key.startswith("field_")}
        self._storage = storage or None


class Td3Agent:
    """Actor, twin critics and target networks with delayed policy updates."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        critic_input_dim: int,
        hidden=(256, 256),
        lr_actor: float = 1e-4,
        lr_critic: float = 3e-4,
        gamma: float = 0.99,
        tau: float = 0.01,
        policy_delay: int = 2,
        smoothing_std: float = 0.0,
        *,
        rng: np.random.Generator,
    ):
        self._set_hyperparameters(locals())
        plan = self._layer_plan()
        self.actor = Mlp(*plan["actor"], rng, final_scale=1e-3)
        self.critic1 = Mlp(*plan["critic1"], rng)
        self.critic2 = Mlp(*plan["critic2"], rng)
        self.target_actor = self.actor.copy()
        self.target_critic1 = self.critic1.copy()
        self.target_critic2 = self.critic2.copy()
        self.opt_actor = Adam(self.actor.parameters(), lr_actor)
        self.opt_critic1 = Adam(self.critic1.parameters(), lr_critic)
        self.opt_critic2 = Adam(self.critic2.parameters(), lr_critic)
        self.critic_update_count = 0
        self.actor_update_count = 0
        self._checkpoint: Path | None = None  # the state.npz whose learner state is not yet read

    def _set_hyperparameters(self, values) -> None:
        """Check and store the :data:`_HYPERPARAMETERS` entries of ``values``
        (the constructor's arguments or a checkpoint manifest)."""
        check_ranges(values, AGENT_RANGES)
        for key, kind in _HYPERPARAMETERS.items():
            setattr(self, key, kind(values[key]))

    def _layer_plan(self) -> dict[str, tuple[list[int], list[str]]]:
        """Layer dims and activations of every network, by checkpoint name."""
        relu = ["relu"] * len(self.hidden)
        actor = ([self.obs_dim, *self.hidden, self.action_dim], relu + ["tanh"])
        critic = ([self.critic_input_dim, *self.hidden, 1], relu + ["linear"])
        return {name: actor if name.endswith("actor") else critic for name in _NETWORKS}

    # ------------------------------------------------------------ acting
    def select_action(self, obs, noise_std: float = 0.0, rng: np.random.Generator | None = None) -> np.ndarray:
        """Deterministic policy output, optionally with clipped Gaussian
        exploration noise; always lands in [-1, 1]^action_dim."""
        action = self.actor.forward(np.asarray(obs, dtype=float))
        if noise_std > 0.0:
            if rng is None:
                raise ValueError("exploration noise requires an rng")
            action += rng.normal(0.0, noise_std, size=action.shape)
            np.minimum(np.maximum(action, -1.0, out=action), 1.0, out=action)
        return action

    def target_actions(self, next_obs, rng: np.random.Generator | None = None) -> np.ndarray:
        """Next actions from the target actor, with optional smoothing
        noise (off by default)."""
        action = self.target_actor.forward(np.asarray(next_obs, dtype=float))
        if self.smoothing_std > 0.0:
            if rng is None:
                raise ValueError("target-policy smoothing requires an rng")
            noise = np.clip(
                rng.normal(0.0, self.smoothing_std, size=action.shape),
                -SMOOTHING_CLIP,
                SMOOTHING_CLIP,
            )
            action = np.clip(action + noise, -1.0, 1.0)
        return action

    # ------------------------------------------------------------ learning
    def td_targets(self, rewards, next_critic_inputs, dones) -> np.ndarray:
        """Bootstrapped targets r + gamma * (1 - done) * min(q1-, q2-)."""
        r = np.asarray(rewards, dtype=float).reshape(-1)
        d = np.asarray(dones, dtype=float).reshape(-1)
        q1 = self.target_critic1.forward(next_critic_inputs).reshape(-1)
        q2 = self.target_critic2.forward(next_critic_inputs).reshape(-1)
        return r + self.gamma * (1.0 - d) * np.minimum(q1, q2)

    def critic_update(self, critic_inputs, targets) -> tuple[float, float]:
        """One Adam step on each critic's mean squared TD error."""
        y = np.asarray(targets, dtype=float).reshape(-1, 1)
        losses = []
        for critic, opt in ((self.critic1, self.opt_critic1), (self.critic2, self.opt_critic2)):
            q, cache = critic.forward_cached(critic_inputs)
            err = q - y
            losses.append(float(np.mean(err**2)))
            upstream = 2.0 * err / err.shape[0]
            grad = scratch.take(critic.flat.shape)
            critic.backward(cache, upstream, input_grad=False, out=grad)
            critic.release(cache)
            opt.step(critic.flat, grad)
            scratch.give(grad)
        self.critic_update_count += 1
        return losses[0], losses[1]

    def should_update_actor(self) -> bool:
        return self.critic_update_count > 0 and self.critic_update_count % self.policy_delay == 0

    def actor_update(self, obs, critic_inputs, action_slice: slice) -> float:
        """Deterministic policy-gradient ascent step on critic 1.

        The agent's action inside ``critic_inputs`` is replaced by the
        actor output at ``action_slice``; gradients flow through that
        slice only and the critic parameters stay untouched.
        """
        if not self.should_update_actor():
            raise ProtocolError(
                f"actor update at critic step {self.critic_update_count} violates delay {self.policy_delay}"
            )
        obs = np.asarray(obs, dtype=float)
        inputs = np.array(critic_inputs, dtype=float)
        actions, actor_cache = self.actor.forward_cached(obs)
        inputs[:, action_slice] = actions
        q, critic_cache = self.critic1.forward_cached(inputs)
        batch = q.shape[0]
        upstream = np.full((batch, 1), -1.0 / batch)
        value = float(-np.mean(q))  # before q, a critic activation, goes back to the pool
        _, dq_dinput = self.critic1.backward(critic_cache, upstream, param_grads=False)
        self.critic1.release(critic_cache)
        grad = scratch.take(self.actor.flat.shape)
        self.actor.backward(actor_cache, dq_dinput[:, action_slice], input_grad=False, out=grad)
        self.actor.release(actor_cache)
        self.opt_actor.step(self.actor.flat, grad)
        scratch.give(grad, dq_dinput)
        self.actor_update_count += 1
        return value

    def soft_update(self, tau: float | None = None) -> None:
        """Blend targets toward online parameters: tau*online + (1-tau)*target."""
        t = self.tau if tau is None else float(tau)
        if not 0.0 < t <= 1.0:
            raise ProtocolError(f"soft-update factor must lie in (0, 1], got {t}")
        pairs = (
            (self.target_actor, self.actor),
            (self.target_critic1, self.critic1),
            (self.target_critic2, self.critic2),
        )
        for target, online in pairs:
            scaled = np.empty(min(CHUNK, online.flat.size))
            for lo in range(0, online.flat.size, CHUNK):
                tp = target.flat[lo:lo + CHUNK]
                tp *= 1.0 - t
                tp += np.multiply(online.flat[lo:lo + CHUNK], t, out=scaled[: len(tp)])

    # ------------------------------------------------------------ checkpoints
    def manifest(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            **{key: getattr(self, key) for key in _HYPERPARAMETERS},
            "critic_update_count": self.critic_update_count,
            "actor_update_count": self.actor_update_count,
        }

    def save(self, directory) -> None:
        """``manifest.json`` plus ``state.npz``, which holds each network's
        ``flat`` vector under the network's name and each optimizer's
        moments as ``opt_<network>_m`` and ``opt_<network>_v``.

        An agent whose learner state is still on disk is a ProtocolError,
        and nothing is written."""
        if self._checkpoint is not None:
            raise ProtocolError(f"{self._checkpoint} holds learner state not yet read; call read_learner_state()")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        arrays = {name: getattr(self, name).flat for name in _NETWORKS}
        for name in _OPTIMIZED:
            opt = getattr(self, f"opt_{name}")
            arrays[f"opt_{name}_m"], arrays[f"opt_{name}_v"] = opt.m, opt.v
        with staged_file(directory / "state.npz") as staged, open(staged, "wb") as file:
            np.savez(file, **arrays)
        write_whole(directory / "manifest.json", json.dumps(self.manifest(), indent=2))

    @classmethod
    def load(cls, directory) -> "Td3Agent":
        """The agent :meth:`save` wrote, built from its files with no random
        initialisation to overwrite.  Only the manifest (its version and
        ranges checked) and the actor are read, enough to act; the rest
        waits for :meth:`read_learner_state`."""
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        check_version(manifest, directory)
        agent = object.__new__(cls)
        agent._set_hyperparameters(manifest)
        agent.critic_update_count = manifest["critic_update_count"]
        agent.actor_update_count = manifest["actor_update_count"]
        agent._checkpoint = directory / "state.npz"
        agent.actor = Mlp.from_flat(*agent._layer_plan()["actor"], agent._read_vectors(["actor"])["actor"])
        return agent

    def _read_vectors(self, names) -> dict[str, np.ndarray]:
        """The named vectors of the checkpoint's ``state.npz``, each adopted
        as read; a ValueError names one whose length is not the one the
        manifest's layer plan implies."""
        sizes = {name: sum(dout * (din + 1) for din, dout in zip(dims, dims[1:]))
                 for name, (dims, _) in self._layer_plan().items()}
        sizes |= {f"opt_{name}_{moment}": sizes[name] for name in _OPTIMIZED for moment in "mv"}
        vectors = {}
        with np.load(self._checkpoint) as arrays:
            for name in names:
                vectors[name] = np.asarray(arrays[name], dtype=float)
                if vectors[name].shape != (sizes[name],):
                    raise ValueError(f"{self._checkpoint} holds {name} of shape {vectors[name].shape}, "
                                     f"the manifest implies ({sizes[name]},)")
        return vectors

    def read_learner_state(self) -> None:
        """Read the critics, targets and Adam moments :meth:`load` left on
        disk, which learning and :meth:`save` need.  An agent with none on
        disk (built, or read already) is a ProtocolError."""
        if self._checkpoint is None:
            raise ProtocolError("this agent holds its learner state already; only a loaded agent reads it, once")
        vectors = self._read_vectors(_VECTORS[1:])
        plan = self._layer_plan()
        for name in _NETWORKS[1:]:
            setattr(self, name, Mlp.from_flat(*plan[name], vectors[name]))
        for name, (lr, count) in _OPTIMIZED.items():
            moments = vectors[f"opt_{name}_m"], vectors[f"opt_{name}_v"]
            setattr(self, f"opt_{name}", Adam(getattr(self, name).parameters(), getattr(self, lr), moments,
                                              getattr(self, count)))
        self._checkpoint = None
