"""Independent references the benchmark checks the package against.

* Link physics: free-space line-of-sight channels, SINR, sum rate and
  sensing SNR, written from the README's definitions without calling the
  package's ``geometry`` / ``channel`` / ``isac`` code.
* The README "Training cost model" for one fast-layer update round,
  checked against ``Mlp.param_count()`` of a real roster.
"""

from __future__ import annotations

import numpy as np

# A reported physics value x matches its reference r when
# |x - r| <= RTOL * |r| + atol.  Sum rates get the absolute floor RATE_ATOL
# (bits/s/Hz): log2(1 + g) of an SINR g near 1e-11 depends on how 1 + g
# rounds in its last bit.  SINRs and SNRs are compared by RTOL alone.
RTOL = 1e-9
RATE_ATOL = 1e-14


class CostModelError(RuntimeError):
    """The analytic update-round cost disagrees with the real networks."""


def close(value, ref, atol: float = 0.0) -> bool:
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return bool(np.all(np.isfinite(value)) and np.all(np.abs(value - ref) <= RTOL * np.abs(ref) + atol))


def episode_matches(row: dict, ref: dict) -> bool:
    """An evaluation row's episode means against a reference episode."""
    return close(row["sum_rate"], ref["sum_rate"], RATE_ATOL) and close(row["mean_snr"], ref["mean_snr"])


def _rotation(angles) -> np.ndarray:
    """Rz @ Ry @ Rx with the package's documented sign layout per axis."""
    (cx, cy, cz), (sx, sy, sz) = np.cos(angles), np.sin(angles)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, sx], [0.0, -sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def channels(points, center, angles, local_positions, wavelength) -> np.ndarray:
    """(P, N) channel rows: lambda/(4 pi d) e^{-j2pi d/lambda} e^{j2pi/lambda f.p_n}."""
    antennas = center + local_positions @ _rotation(angles).T
    delta = np.asarray(points, dtype=float) - center
    dist = np.sqrt((delta**2).sum(axis=1))
    direction = delta / dist[:, None]
    k = 2.0 * np.pi / wavelength
    common = wavelength / (4.0 * np.pi * dist) * np.exp(-1j * k * dist)
    return common[:, None] * np.exp(1j * k * (direction @ antennas.T))


def link_reference(state, local_positions, config) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-UAV SINR, sum rate and per-target sensing SNR of one slot's state."""
    center, angles = state.pose.center, state.pose.angles
    h_uav = channels(state.uav_positions, center, angles, local_positions, config.wavelength)
    h_tgt = channels(state.target_positions, center, angles, local_positions, config.wavelength)
    w = state.precoder
    gains = np.abs(h_uav @ w.conj()) ** 2
    signal = np.diag(gains)
    sinr = signal / (gains.sum(axis=1) - signal + config.sigma_c_sq)
    snr = (np.abs(h_tgt @ w) ** 2).sum(axis=1) / config.sigma_s_sq
    return sinr, float(np.log2(1.0 + sinr).sum()), snr


def reference_episode(package, roster, scenario, seed: int) -> dict:
    """One noise-free rollout with every slot's physics re-derived.

    Follows the evaluation protocol of ``hdrl.evaluate`` through the
    public ``IsacEnv`` API and returns the episode means of the reference
    sum rate and mean sensing SNR, plus the slots whose reported link
    metrics miss the reference.
    """
    env = package.env.IsacEnv(scenario, scheme=roster.scheme)
    env.reset(seed=seed)
    obs = env.observations()
    local = env.layout.local_positions
    rates, snrs, bad = [], [], 0
    for _ in range(scenario.num_slots):
        if env.is_pose_slot():
            action = roster.pose_agent.select_action(obs.sixdma)
            env.apply_6dma_action(action[:3] * scenario.theta_max, action[3:])
        uav_actions = np.stack([agent.select_action(obs.uav[m]) for m, agent in enumerate(roster.uav_agents)])
        outcome = env.step_slot(uav_actions, roster.beam_agent.select_action(obs.beam))
        obs = env.observations()
        sinr, rate, snr = link_reference(env.state, local, scenario)
        reported = outcome.metrics
        if not (close(reported.sinr_per_uav, sinr) and close(reported.sum_rate, rate, RATE_ATOL)
                and close(reported.snr_per_target, snr)):
            bad += 1
        rates.append(rate)
        snrs.append(float(np.mean(snr)))
    return {"slots": scenario.num_slots, "bad_slots": bad,
            "sum_rate": float(np.mean(rates)), "mean_snr": float(np.mean(snrs))}


# ------------------------------------------------------------ cost model
def _readme_macs(i: int, hidden, o: int) -> int:
    """README: one pass costs i*g1 + g1*g2 + g2*o multiply-adds."""
    widths = [i, *hidden, o]
    return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _param_count_macs(net) -> int:
    """Weights only: param_count() minus one bias per output unit."""
    return net.param_count() - sum(net.dims[1:])


def update_round_flops(roster, batch_size: int, policy_delay: int) -> float:
    """FLOPs of one fast-layer update round, from ``Mlp.param_count()``.

    Per fast agent (README "Training cost model"): one target-policy
    forward plus eight value-network passes every round, and every
    ``policy_delay``-th round a policy forward + backward and a critic
    forward + backward.  A backward counts as two passes (weight and input
    gradients), as in the README's eight value passes.  Two FLOPs per
    multiply-add.
    """
    macs = 0.0
    for _, agent in roster.fast_agents():
        actor, critic = _param_count_macs(agent.actor), _param_count_macs(agent.critic1)
        macs += actor + 8 * critic + (3 * actor + 3 * critic) / policy_delay
    return 2.0 * batch_size * macs


def readme_update_round_flops(num_uavs: int, obs_uav: int, act_uav: int, obs_beam: int, act_beam: int,
                              hidden, batch_size: int, policy_delay: int) -> float:
    """The same round cost from the README formulas and widths alone."""
    critic_in = num_uavs * (obs_uav + act_uav) + obs_beam + act_beam
    critic = _readme_macs(critic_in, hidden, 1)
    actors = num_uavs * _readme_macs(obs_uav, hidden, act_uav) + _readme_macs(obs_beam, hidden, act_beam)
    agents = num_uavs + 1
    macs = actors + agents * 8 * critic + (3 * actors + 3 * agents * critic) / policy_delay
    return 2.0 * batch_size * macs


def check_cost_model(roster, scenario, config) -> float:
    """Round FLOPs at the benchmark dimensions; raise if the two counts differ.

    The benchmark dimensions are a 144-wide critic input, 256-wide hidden
    layers and five fast agents (four UAVs and the beamformer).
    """
    m, j, n = scenario.num_uavs, scenario.num_targets, scenario.num_antennas
    obs_beam, act_beam = 2 * n * (m + j), 2 * n * m
    from_params = update_round_flops(roster, config.batch_size, config.policy_delay)
    from_readme = readme_update_round_flops(m, 10, 4, obs_beam, act_beam, config.hidden,
                                            config.batch_size, config.policy_delay)
    dims = (m * 14 + obs_beam + act_beam, tuple(config.hidden), len(roster.fast_agents()))
    if dims != (144, (256, 256), 5):
        raise CostModelError(f"not the benchmark dimensions: critic input, hidden, fast agents = {dims}")
    if from_params != from_readme:
        raise CostModelError(
            f"update-round FLOPs from Mlp.param_count() ({from_params:.6g}) and from the README "
            f"cost model ({from_readme:.6g}) disagree"
        )
    return from_params
