"""Single-agent TD3 building block.

One :class:`Td3Agent` bundles an actor, twin critics and their three
target networks.  The critic input is an externally assembled vector, so
the same class serves per-UAV agents, the beamforming agent and the
surface agent; callers own the layout and pass the slice where this
agent's action lives.  A trainer is the only mutator of an agent; frozen
copies may serve inference concurrently.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ProtocolError
from .nn import CHUNK, Adam, Mlp, scratch

CHECKPOINT_VERSION = 1
_NETWORK_FILES = ("actor", "critic1", "critic2", "target_actor", "target_critic1", "target_critic2")


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
    """Fixed-capacity FIFO transition store with uniform or proportional
    prioritized sampling.

    Fields are fixed on the first push; each later push must carry the
    same keys and shapes.  Uniform sampling draws without replacement;
    the prioritized mode draws proportionally to stored priorities (new
    transitions enter at the current maximum priority).
    """

    def __init__(self, capacity: int, prioritized: bool = False, alpha: float = 0.6):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.prioritized = bool(prioritized)
        self.alpha = float(alpha)
        self._storage: dict[str, np.ndarray] | None = None
        self._priorities = np.zeros(self.capacity)
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: dict) -> None:
        if self._storage is None:
            self._storage = {}
            for key, value in transition.items():
                self._storage[key] = _lazy_zeros((self.capacity, *np.shape(value)))
        for key, store in self._storage.items():
            store[self._next] = np.asarray(transition[key], dtype=float)
        self._priorities[self._next] = self._priorities[: self._size].max() if self._size else 1.0
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple[dict[str, np.ndarray], np.ndarray]:
        if self._size == 0 or (not self.prioritized and batch_size > self._size):
            raise ValueError(f"buffer holds {self._size} transitions, cannot sample {batch_size}")
        if self.prioritized:
            scaled = self._priorities[: self._size] ** self.alpha
            probs = scaled / scaled.sum()
            idx = rng.choice(self._size, size=batch_size, replace=True, p=probs)
        else:
            idx = rng.choice(self._size, size=batch_size, replace=False)
        batch = {key: store[idx] for key, store in self._storage.items()}
        return batch, idx

    def update_priorities(self, indices, priorities) -> None:
        self._priorities[np.asarray(indices, dtype=int)] = np.maximum(np.asarray(priorities, dtype=float), 1e-6)

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {
            "buffer_meta": np.array([self._size, self._next, int(self.prioritized)], dtype=np.int64),
            "buffer_priorities": self._priorities,
        }
        if self._storage is not None:
            for key, store in self._storage.items():
                arrays[f"field_{key}"] = store
        return arrays

    def load_arrays(self, arrays) -> None:
        meta = np.asarray(arrays["buffer_meta"])
        self._size, self._next = int(meta[0]), int(meta[1])
        self._priorities = np.array(arrays["buffer_priorities"], dtype=float)
        self._storage = {}
        for key in arrays:
            if key.startswith("field_"):
                self._storage[key[len("field_"):]] = np.array(arrays[key], dtype=float)
        if not self._storage:
            self._storage = None


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
        smoothing_clip: float = 0.5,
        rng: np.random.Generator | None = None,
    ):
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.obs_dim = int(obs_dim)
        self.action_dim = int(action_dim)
        self.critic_input_dim = int(critic_input_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.gamma = float(gamma)
        self.tau = float(tau)
        self.policy_delay = int(policy_delay)
        self.smoothing_std = float(smoothing_std)
        self.smoothing_clip = float(smoothing_clip)
        self.lr_actor = float(lr_actor)
        self.lr_critic = float(lr_critic)

        relu = ["relu"] * len(self.hidden)
        self.actor = Mlp([obs_dim, *self.hidden, action_dim], relu + ["tanh"], rng, final_scale=1e-3)
        self.critic1 = Mlp([critic_input_dim, *self.hidden, 1], relu + ["linear"], rng)
        self.critic2 = Mlp([critic_input_dim, *self.hidden, 1], relu + ["linear"], rng)
        self.target_actor = self.actor.copy()
        self.target_critic1 = self.critic1.copy()
        self.target_critic2 = self.critic2.copy()
        self.opt_actor = Adam(self.actor.parameters(), lr_actor)
        self.opt_critic1 = Adam(self.critic1.parameters(), lr_critic)
        self.opt_critic2 = Adam(self.critic2.parameters(), lr_critic)
        self.critic_update_count = 0
        self.actor_update_count = 0

    # ------------------------------------------------------------ acting
    def select_action(self, obs, noise_std: float = 0.0, rng: np.random.Generator | None = None) -> np.ndarray:
        """Deterministic policy output, optionally with clipped Gaussian
        exploration noise; always lands in [-1, 1]^action_dim."""
        action = self.actor.forward(np.asarray(obs, dtype=float))
        if noise_std > 0.0:
            if rng is None:
                raise ValueError("exploration noise requires an rng")
            action = np.clip(action + rng.normal(0.0, noise_std, size=action.shape), -1.0, 1.0)
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
                -self.smoothing_clip,
                self.smoothing_clip,
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

    def td_errors(self, critic_inputs, targets) -> np.ndarray:
        """Current |q1 - y| per sample (used for prioritized replay)."""
        y = np.asarray(targets, dtype=float).reshape(-1)
        q = self.critic1.forward(critic_inputs).reshape(-1)
        return np.abs(q - y)

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
    def _networks(self) -> dict[str, Mlp]:
        return {
            "actor": self.actor,
            "critic1": self.critic1,
            "critic2": self.critic2,
            "target_actor": self.target_actor,
            "target_critic1": self.target_critic1,
            "target_critic2": self.target_critic2,
        }

    def manifest(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "obs_dim": self.obs_dim,
            "action_dim": self.action_dim,
            "critic_input_dim": self.critic_input_dim,
            "hidden": list(self.hidden),
            "lr_actor": self.lr_actor,
            "lr_critic": self.lr_critic,
            "gamma": self.gamma,
            "tau": self.tau,
            "policy_delay": self.policy_delay,
            "smoothing_std": self.smoothing_std,
            "smoothing_clip": self.smoothing_clip,
            "critic_update_count": self.critic_update_count,
            "actor_update_count": self.actor_update_count,
        }

    def save(self, directory) -> None:
        """One .npz per network plus optimizer state and a manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, net in self._networks().items():
            net.save(directory / f"{name}.npz")
        opt_arrays = {}
        opt_arrays.update(self.opt_actor.state_arrays("actor_"))
        opt_arrays.update(self.opt_critic1.state_arrays("critic1_"))
        opt_arrays.update(self.opt_critic2.state_arrays("critic2_"))
        np.savez(directory / "optimizers.npz", **opt_arrays)
        (directory / "manifest.json").write_text(json.dumps(self.manifest(), indent=2))

    @classmethod
    def load(cls, directory) -> "Td3Agent":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        if manifest["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {manifest['version']}")
        agent = cls(
            manifest["obs_dim"],
            manifest["action_dim"],
            manifest["critic_input_dim"],
            hidden=tuple(manifest["hidden"]),
            lr_actor=manifest["lr_actor"],
            lr_critic=manifest["lr_critic"],
            gamma=manifest["gamma"],
            tau=manifest["tau"],
            policy_delay=manifest["policy_delay"],
            smoothing_std=manifest["smoothing_std"],
            smoothing_clip=manifest["smoothing_clip"],
            rng=np.random.default_rng(0),
        )
        for name in _NETWORK_FILES:
            loaded = Mlp.load(directory / f"{name}.npz")
            getattr(agent, name).copy_from(loaded)
        with np.load(directory / "optimizers.npz") as arrays:
            agent.opt_actor.load_arrays(arrays, "actor_")
            agent.opt_critic1.load_arrays(arrays, "critic1_")
            agent.opt_critic2.load_arrays(arrays, "critic2_")
        agent.critic_update_count = manifest["critic_update_count"]
        agent.actor_update_count = manifest["actor_update_count"]
        return agent
