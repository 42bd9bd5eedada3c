"""Single-agent TD3 building block.

One :class:`Td3Agent` bundles an actor, twin critics and their three
target networks.  The critic input is an externally assembled vector, so
the same class serves per-UAV agents, the beamforming agent and the
surface agent; callers own the layout and pass the slice where this
agent's action lives.  A trainer is the only mutator of an agent; frozen
copies may serve inference concurrently.  An agent keeps its state in
twelve flat vectors, :data:`VECTORS`: :meth:`Td3Agent.vectors` gives
them by name and :meth:`Td3Agent.from_vectors` builds an agent from them,
the actor alone enough to act.  This module opens no file: ``hdrl``
writes and reads every checkpoint.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolError, check_fields
from .nn import CHUNK, Adam, Mlp, scratch

# TD3's clip of its target-policy smoothing noise (Fujimoto et al. 2018).
SMOOTHING_CLIP = 0.5
_NETWORKS = ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2")
# The networks with an optimizer, with the attributes holding its learning
# rate and its step count (the count of the updates it made).
_OPTIMIZED = {"actor": ("lr_actor", "actor_update_count"), "critic1": ("lr_critic", "critic_update_count"),
              "critic2": ("lr_critic", "critic_update_count")}
# The names of an agent's vectors, the actor's first: networks, then optimizer moments.
VECTORS = (*_NETWORKS, *(f"opt_{name}_{moment}" for name in _OPTIMIZED for moment in "mv"))
# The AgentSettings that have a range: (test, what the test asks).
AGENT_RANGES = {
    "hidden": (lambda widths: all(w >= 1 for w in widths), "hold widths >= 1"),
    "gamma": (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "tau": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "policy_delay": (lambda v: v >= 1, "be >= 1"),
    **dict.fromkeys(("lr_actor", "lr_critic"), (lambda v: v > 0.0, "be > 0")),
    "smoothing_std": (lambda v: v >= 0, "be >= 0"),
}


@dataclass(frozen=True)
class AgentSettings:
    """The TD3 settings of an agent, in a roster checkpoint's key order; built only
    when every field passes :data:`AGENT_RANGES`.  ``hdrl.TrainConfig``
    inherits them, and a roster's agents take its config's."""

    hidden: tuple[int, ...] = (256, 256)
    lr_actor: float = 1e-4
    lr_critic: float = 3e-4
    gamma: float = 0.99
    tau: float = 0.01
    policy_delay: int = 2
    smoothing_std: float = 0.0

    def __post_init__(self):
        check_fields(self, AGENT_RANGES)

    def agent_settings(self) -> dict:
        """The :class:`AgentSettings` fields by name, in their order (a subclass holds more)."""
        return {key: getattr(self, key) for key in AgentSettings.__dataclass_fields__}


def _layer_plan(obs_dim: int, action_dim: int, critic_input_dim: int, hidden) -> dict[str, tuple[list[int], list[str]]]:
    """Layer dims and activations of every network, by vector name."""
    relu = ["relu"] * len(hidden)
    actor = ([obs_dim, *hidden, action_dim], relu + ["tanh"])
    critic = ([critic_input_dim, *hidden, 1], relu + ["linear"])
    return {name: actor if name.endswith("actor") else critic for name in _NETWORKS}


def vector_sizes(obs_dim: int, action_dim: int, critic_input_dim: int, hidden) -> dict[str, int]:
    """The length of each of :data:`VECTORS` of an agent with these sizes and hidden widths."""
    sizes = {name: sum(dout * (din + 1) for din, dout in zip(dims, dims[1:]))
             for name, (dims, _) in _layer_plan(obs_dim, action_dim, critic_input_dim, hidden).items()}
    return sizes | {f"opt_{name}_{moment}": sizes[name] for name in _OPTIMIZED for moment in "mv"}


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
        """``buffer_meta`` (fill, next write row) and each field's filled rows,
        the first ``len(self)`` (rows fill from 0 until the buffer wraps)."""
        arrays = {"buffer_meta": np.array([self._size, self._next], dtype=np.int64)}
        if self._storage is not None:
            for key, store in self._storage.items():
                arrays[f"field_{key}"] = store[:self._size]
        return arrays

    def load_arrays(self, arrays: np.lib.npyio.NpzFile) -> None:
        """Restore :meth:`state_arrays` output from its ``np.savez`` archive, each field's rows
        read straight into fresh full-capacity storage; a ValueError names a field unlike it."""
        meta = arrays["buffer_meta"]
        self._size, self._next = int(meta[0]), int(meta[1])
        self._storage = {}
        for key in [key for key in arrays.files if key.startswith("field_")]:
            with arrays.zip.open(f"{key}.npy") as member:
                version = np.lib.format.read_magic(member)
                shape, fortran_order, dtype = getattr(np.lib.format, "read_array_header_{}_{}".format(*version))(member)
                if dtype != np.float64 or fortran_order or shape[:1] != (self._size,) or self._size > self.capacity:
                    raise ValueError(f"replay field {key!r} holds {shape} {dtype}, the buffer stores "
                                     f"{self._size} float64 rows of at most {self.capacity}")
                store = self._storage[key[len("field_"):]] = _lazy_zeros((self.capacity, *shape[1:]))
                data = store[:self._size].reshape(-1).view(np.uint8)
                for lo in range(0, data.size, np.lib.format.BUFFER_SIZE):
                    member.readinto(data[lo:lo + np.lib.format.BUFFER_SIZE])
        self._storage = self._storage or None


class Td3Agent:
    """Actor, twin critics and target networks with delayed policy updates."""

    def __init__(self, obs_dim: int, action_dim: int, critic_input_dim: int, *, rng: np.random.Generator,
                 **settings):
        """``settings``: :class:`AgentSettings` fields, kept as attributes; the rest take their defaults."""
        self._configure(obs_dim, action_dim, critic_input_dim, settings, 0, 0)
        plan = _layer_plan(self.obs_dim, self.action_dim, self.critic_input_dim, self.hidden)
        self.actor = Mlp(*plan["actor"], rng, final_scale=1e-3)
        self.critic1 = Mlp(*plan["critic1"], rng)
        self.critic2 = Mlp(*plan["critic2"], rng)
        self.target_actor = self.actor.copy()
        self.target_critic1 = self.critic1.copy()
        self.target_critic2 = self.critic2.copy()
        self.opt_actor = Adam(self.actor.parameters(), self.lr_actor)
        self.opt_critic1 = Adam(self.critic1.parameters(), self.lr_critic)
        self.opt_critic2 = Adam(self.critic2.parameters(), self.lr_critic)

    def _configure(self, obs_dim, action_dim, critic_input_dim, settings: dict, critic_updates, actor_updates):
        self.obs_dim, self.action_dim, self.critic_input_dim = int(obs_dim), int(action_dim), int(critic_input_dim)
        for key, value in AgentSettings(**settings).agent_settings().items():
            setattr(self, key, value)
        self.critic_update_count, self.actor_update_count = critic_updates, actor_updates

    @classmethod
    def from_vectors(cls, obs_dim: int, action_dim: int, critic_input_dim: int, vectors: dict, *,
                     critic_update_count: int = 0, actor_update_count: int = 0, **settings) -> "Td3Agent":
        """The agent whose state is ``vectors`` (see :meth:`adopt`), with no random initialisation;
        the actor alone is enough to act, learning needs every vector."""
        agent = object.__new__(cls)
        agent._configure(obs_dim, action_dim, critic_input_dim, settings, critic_update_count, actor_update_count)
        agent.adopt(vectors)
        return agent

    def adopt(self, vectors: dict) -> None:
        """Take ``vectors``, any of :data:`VECTORS` by name and as long as :func:`vector_sizes` says,
        as the agent's own without a copy; an optimizer's step count is its network's update count."""
        plan = _layer_plan(self.obs_dim, self.action_dim, self.critic_input_dim, self.hidden)
        for name in _NETWORKS:
            if name in vectors:
                setattr(self, name, Mlp.from_flat(*plan[name], vectors[name]))
        for name, (lr, count) in _OPTIMIZED.items():
            if f"opt_{name}_m" in vectors:
                moments = vectors[f"opt_{name}_m"], vectors[f"opt_{name}_v"]
                setattr(self, f"opt_{name}", Adam(getattr(self, name).parameters(), getattr(self, lr), moments,
                                                  getattr(self, count)))

    def vectors(self) -> dict[str, np.ndarray]:
        """The agent's :data:`VECTORS` by name, as held: each network's ``flat``, each optimizer's moments."""
        vectors = {name: getattr(self, name).flat for name in _NETWORKS}
        for name in _OPTIMIZED:
            opt = getattr(self, f"opt_{name}")
            vectors[f"opt_{name}_m"], vectors[f"opt_{name}_v"] = opt.m, opt.v
        return vectors

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
