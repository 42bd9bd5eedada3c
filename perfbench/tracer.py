"""Probes installed from outside the package by patching public names.

Every probe replaces a function where its caller looks it up: a module
attribute (``env`` calls ``geo.half_space_ok``, ``harness.main`` calls its
module-global ``cmd_train``) or a class attribute (methods).  Nothing
under ``src/`` changes, and :meth:`Patcher.restore` puts every original
back.

* :class:`Recorder` is always on: one clock read per ``IsacEnv.step_slot``
  entry (the slot count and the measured phases come from these) and the
  wall time of every fast-agent ``Td3Agent.select_action`` call.
* :class:`Tracer` is the traced run: a span per call of every layer
  function in :data:`TRACED`, kept in memory and summarised at the end.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (module, owner path inside the module, attribute, span name).  Each
# module-level function is listed once per module that calls it through
# its own namespace, so every caller sees the traced version.
TRACED = (
    ("geometry", "", "global_antenna_positions", "geometry.global_antenna_positions"),
    ("geometry", "", "half_space_ok", "geometry.half_space_ok"),
    ("geometry", "", "min_pairwise_distance", "geometry.min_pairwise_distance"),
    ("channel", "", "channel_vector", "channel.channel_vector"),
    ("isac", "", "link_metrics", "isac.link_metrics"),
    ("isac", "", "project_power", "isac.project_power"),
    ("env", "IsacEnv", "step_slot", "env.IsacEnv.step_slot"),
    ("env", "IsacEnv", "observations", "env.IsacEnv.observations"),
    ("env", "IsacEnv", "apply_6dma_action", "env.IsacEnv.apply_6dma_action"),
    ("env", "IsacEnv", "reset", "env.IsacEnv.reset"),
    ("nn", "Mlp", "forward_cached", "nn.Mlp.forward_cached"),
    ("nn", "Mlp", "backward", "nn.Mlp.backward"),
    ("nn", "Adam", "step", "nn.Adam.step"),
    ("rl", "Td3Agent", "select_action", "rl.Td3Agent.select_action"),
    ("rl", "Td3Agent", "target_actions", "rl.Td3Agent.target_actions"),
    ("rl", "Td3Agent", "td_targets", "rl.Td3Agent.td_targets"),
    ("rl", "Td3Agent", "critic_update", "rl.Td3Agent.critic_update"),
    ("rl", "Td3Agent", "actor_update", "rl.Td3Agent.actor_update"),
    ("rl", "Td3Agent", "soft_update", "rl.Td3Agent.soft_update"),
    ("rl", "ReplayBuffer", "push", "rl.ReplayBuffer.push"),
    ("rl", "ReplayBuffer", "sample", "rl.ReplayBuffer.sample"),
    ("hdrl", "", "train", "hdrl.train"),
    ("harness", "", "train", "hdrl.train"),
    ("hdrl", "", "evaluate", "hdrl.evaluate"),
    ("harness", "", "evaluate", "hdrl.evaluate"),
    ("hdrl", "FastLayout", "build", "hdrl.FastLayout.build"),
    ("hdrl", "AgentRoster", "save", "hdrl.AgentRoster.save"),
    ("hdrl", "AgentRoster", "load", "hdrl.AgentRoster.load"),
    ("harness", "", "cmd_train", "harness.cmd_train"),
    ("harness", "", "cmd_eval", "harness.cmd_eval"),
    ("harness", "", "cmd_compare", "harness.cmd_compare"),
    ("harness", "", "write_metrics_csv", "harness.write_metrics_csv"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for *_, name in TRACED))

# Which phase of a rollout a direct child of hdrl.train / hdrl.evaluate
# belongs to.  Td3Agent spans split by agent: the surface (pose) agent's
# work is the pose phase, the fast agents' acting is act and their
# learning is update.
_ENV_PHASE = {"env.IsacEnv.step_slot", "env.IsacEnv.observations", "env.IsacEnv.reset"}
_UPDATE_PHASE = {"rl.ReplayBuffer.push", "rl.ReplayBuffer.sample", "hdrl.FastLayout.build"}
_ROLLOUTS = ("hdrl.train", "hdrl.evaluate")


class Patcher:
    """Swap attributes for wrappers and restore the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Wrap ``owner.attr``; a name the package no longer has is noted
        in :attr:`missing` and skipped, so its metrics read zero."""
        raw = None if owner is None else vars(owner).get(attr)
        if raw is None:
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            if name not in self.missing:
                self.missing.append(name)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def _owner(package, module: str, path: str):
    obj = getattr(package, module, None)
    return getattr(obj, path, None) if path and obj is not None else obj


class Recorder:
    """Slot-entry clock reads and fast-agent decision latencies."""

    def __init__(self, package, pose_action_dim: int):
        self.slot_starts = array("d")
        self.sum_rates = array("d")
        self.decision_ms = array("d")
        self._pose_dim = pose_action_dim
        self._patcher = Patcher()
        self._package = package

    def install(self) -> None:
        starts, rates, decisions = self.slot_starts, self.sum_rates, self.decision_ms
        pose_dim = self._pose_dim
        clock = time.perf_counter

        def slot_probe(fn):
            @functools.wraps(fn)
            def step_slot(env, *args, **kwargs):
                starts.append(clock())
                outcome = fn(env, *args, **kwargs)
                rates.append(outcome.metrics.sum_rate)
                return outcome

            return step_slot

        def decision_probe(fn):
            @functools.wraps(fn)
            def select_action(agent, *args, **kwargs):
                t0 = clock()
                action = fn(agent, *args, **kwargs)
                elapsed = clock() - t0
                if agent.action_dim != pose_dim:
                    decisions.append(elapsed * 1e3)
                return action

            return select_action

        self._patcher.wrap(self._package.env.IsacEnv, "step_slot", slot_probe)
        self._patcher.wrap(self._package.rl.Td3Agent, "select_action", decision_probe)

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    def restore(self) -> None:
        self._patcher.restore()

    def mark(self) -> tuple[int, int]:
        """Current (slot, decision) counts, to slice one rep's records."""
        return len(self.slot_starts), len(self.decision_ms)


class Tracer:
    """In-memory spans: name, start, end, parent span and one aux integer.

    ``aux`` is the batch row count for ``Mlp.forward_cached``, 1 for a
    ``Td3Agent`` span on the surface agent (0 for a fast agent) and the
    buffer's fill level after the call for ``ReplayBuffer`` spans.
    """

    def __init__(self, package, pose_action_dim: int):
        self.names = list(SPAN_NAMES)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.spans: list = []
        self._stack = [-1]
        self._patcher = Patcher()
        self._package = package
        self._pose_dim = pose_action_dim

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    def _aux(self, name: str):
        if name == "nn.Mlp.forward_cached":
            return lambda args: 1 if np.ndim(args[1]) == 1 else len(args[1])
        if name.startswith("rl.Td3Agent."):
            pose_dim = self._pose_dim
            return lambda args: int(args[0].action_dim == pose_dim)
        if name.startswith("rl.ReplayBuffer."):
            return lambda args: len(args[0])
        return None

    def _span(self, name: str):
        nid = self._ids[name]
        aux = self._aux(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                parent = stack[-1]
                spans.append(None)
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (nid, t0, t1, parent, aux(args) if aux else 0)

            return traced

        return make

    def install(self) -> None:
        for module, path, attr, name in TRACED:
            self._patcher.wrap(_owner(self._package, module, path), attr, self._span(name))

    def restore(self) -> None:
        self._patcher.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "name": table[:, 0].astype(np.int32),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "aux": table[:, 4].astype(np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus phase times.

        Self time is a span's duration minus the time its child spans
        cover (children of one span never overlap: one thread).
        """
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child[: dur.size]
        out = {
            "calls": np.bincount(a["name"], minlength=n),
            "total_s": np.bincount(a["name"], weights=dur, minlength=n),
            "self_s": np.bincount(a["name"], weights=self_time, minlength=n),
        }
        fwd = a["name"] == self._ids["nn.Mlp.forward_cached"]
        batch1 = fwd & (a["aux"] == 1)
        out["forward_rows"] = int(a["aux"][fwd].sum())
        out["forward_batch1"] = (int(batch1.sum()), float(dur[batch1].sum()), float(self_time[batch1].sum()))
        push = a["name"] == self._ids["rl.ReplayBuffer.push"]
        out["replay_fill"] = int(a["aux"][push].max()) if push.any() else 0
        out["phases"] = self._phases(a, dur)
        return out

    def _phases(self, a, dur) -> dict[str, float]:
        rollout_ids = {self._ids[name] for name in _ROLLOUTS}
        is_rollout = np.isin(a["name"], list(rollout_ids))
        phases = {"act": 0.0, "env": 0.0, "update": 0.0, "pose": 0.0, "rollout": float(dur[is_rollout].sum())}
        top = np.flatnonzero(a["parent"] >= 0)
        top = top[is_rollout[a["parent"][top]]]
        for idx in top:
            name = self.names[a["name"][idx]]
            if name == "env.IsacEnv.apply_6dma_action" or (name.startswith("rl.Td3Agent.") and a["aux"][idx]):
                phases["pose"] += dur[idx]
            elif name == "rl.Td3Agent.select_action":
                phases["act"] += dur[idx]
            elif name in _ENV_PHASE:
                phases["env"] += dur[idx]
            elif name in _UPDATE_PHASE or name.startswith("rl.Td3Agent."):
                phases["update"] += dur[idx]
        return phases
