"""Acceptance suite: ten end-to-end checks at fixed tolerances.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run pytest with
``-s`` to see them live).  The desk-scale learning checks train ten small
runs once per session and reuse them; expect a couple of minutes of
wall-clock for the full module.
"""

import time

import numpy as np
import pytest

from sixdma_isac import geometry as geo
from sixdma_isac import isac
from sixdma_isac.env import IsacEnv, desk_scenario, benchmark_scenario
from sixdma_isac.harness import ExperimentSpec, cmd_train
from sixdma_isac.hdrl import desk_train_config, evaluate, profile_latency, train
from sixdma_isac.rl import Td3Agent

from oracles import layer_pass, max_relative_gradient_error, oracle_sensing, oracle_sinr, sensing_snr_quadratic


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# --------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def desk_runs():
    """Five seeds each of scheme 1 and scheme 5 on the desk scenario."""
    scenario = desk_scenario()
    runs = {1: [], 5: []}
    seed_times = []
    for scheme in (1, 5):
        for seed in range(5):
            t0 = time.perf_counter()
            result = train(scenario, desk_train_config(seed=seed, scheme=scheme))
            seed_times.append(time.perf_counter() - t0)
            runs[scheme].append(result)
    return {"scenario": scenario, "runs": runs, "seed_times": seed_times}


# --------------------------------------------------------------- criterion 1
def test_criterion_1_geometry_suite():
    rng = np.random.default_rng(2024)
    layout = geo.square_grid_layout(2, 1.0)
    base = geo.global_antenna_positions(geo.SurfacePose(np.zeros(3), np.zeros(3)), layout)
    ref = np.linalg.norm(base[:, None, :] - base[None, :, :], axis=-1)
    t0 = time.perf_counter()
    worst_orth = 0.0
    worst_det = 0.0
    worst_iso = 0.0
    for _ in range(10_000):
        angles = rng.uniform(-np.pi, np.pi, size=3)
        rot = geo.rotation_matrix(angles)
        worst_orth = max(worst_orth, float(np.max(np.abs(rot @ rot.T - np.eye(3)))))
        worst_det = max(worst_det, abs(float(np.linalg.det(rot)) - 1.0))
        pose = geo.SurfacePose(rng.normal(size=3) * 100.0, angles)
        pts = geo.global_antenna_positions(pose, layout)
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        worst_iso = max(worst_iso, float(np.max(np.abs(dists - ref))))
    elapsed = time.perf_counter() - t0
    ok = worst_orth <= 1e-10 and worst_det <= 1e-10 and worst_iso <= 1e-12 and elapsed < 5.0
    report(
        1,
        ok,
        f"orthonormality {worst_orth:.2e} (<=1e-10), det {worst_det:.2e} (<=1e-10), "
        f"isometry {worst_iso:.2e} (<=1e-12), runtime {elapsed:.2f}s (<5s)",
    )


# --------------------------------------------------------------- criterion 2
def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_sinr = worst_rate = worst_snr = worst_paths = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        j = int(rng.integers(1, 4))
        h_c = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        h_s = rng.normal(size=(j, n)) + 1j * rng.normal(size=(j, n))
        w = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        noise = float(rng.uniform(1e-9, 1e-6))
        got_sinr = isac.sinr(h_c, w, noise)
        want_sinr = oracle_sinr(h_c, w, noise)
        worst_sinr = max(worst_sinr, float(np.max(np.abs(got_sinr - want_sinr) / np.abs(want_sinr))))
        got_rate = isac.sum_rate(got_sinr)
        want_rate = float(sum(np.log2(1.0 + g) for g in want_sinr))
        worst_rate = max(worst_rate, abs(got_rate - want_rate) / max(abs(want_rate), 1e-300))
        got_snr = isac.sensing_snr(h_s, w, noise)
        want_snr = oracle_sensing(h_s, w, noise)
        worst_snr = max(worst_snr, float(np.max(np.abs(got_snr - want_snr) / np.abs(want_snr))))
        quad = sensing_snr_quadratic(h_s, w, noise)
        worst_paths = max(worst_paths, float(np.max(np.abs(quad - got_snr) / np.abs(got_snr))))
    ok = worst_sinr < 1e-9 and worst_rate < 1e-9 and worst_snr < 1e-9 and worst_paths < 1e-10
    report(
        2,
        ok,
        f"1000 instances: sinr {worst_sinr:.2e}, rate {worst_rate:.2e}, snr {worst_snr:.2e} "
        f"(<1e-9 rel); sensing-path agreement {worst_paths:.2e} (<1e-10)",
    )


# --------------------------------------------------------------- criterion 3
def test_criterion_3_table_constants_and_reward_recomposition():
    checks = []
    # half-wavelength spacing at the benchmark wavelength
    layout = geo.square_grid_layout(2, 1.0)
    checks.append(geo.validate_spacing(layout, 0.125))
    tight = geo.AntennaLayout(np.array([[0.0, 0.0, 0.0], [0.0, 0.05, 0.0]]), np.array([1.0, 0.0, 0.0]))
    checks.append(not geo.validate_spacing(tight, 0.125))

    cfg = benchmark_scenario()
    checks.append(cfg.d_min == 3.0 and cfg.v_max == 8.0 and cfg.p_max == 0.04)
    checks.append(abs(cfg.gamma_min - 1.2589) < 1e-4)

    # collision flag exactly below 3 m
    env = IsacEnv(desk_scenario(
        uav_starts=[(10.0, -20.0, 22.0), (10.0, -16.5, 22.0)],
        uav_ends=[(10.0, 25.0, 22.0), (18.0, 25.0, 26.0)],
    ))
    env.reset()
    acts = np.zeros((2, 4))
    acts[1, :3] = [0.0, -1.0, 0.0]
    acts[1, 3] = 2 * (0.6 / env.config.slot_duration) / env.config.v_max - 1.0
    move = env.apply_uav_actions(acts)
    checks.append(move.epsilon1 == 1 and abs(move.min_separation - 2.9) < 1e-9)

    # v_max clamp: saturated action moves exactly v_max * dt
    env2 = IsacEnv(benchmark_scenario())
    env2.reset()
    before = env2.state.uav_positions[0].copy()
    acts2 = np.zeros((4, 4))
    acts2[:, 1] = 1.0
    acts2[:, 3] = 1.0
    move2 = env2.apply_uav_actions(acts2)
    step = np.linalg.norm(move2.positions[0] - before)
    checks.append(abs(step - 8.0 * 5.0) < 1e-9)

    # power boundary: the reference column hits 40 mW and projection holds it
    w_ref = np.full((4, 1), 0.1, dtype=complex)
    checks.append(abs(isac.tx_power(w_ref) - 0.04) < 1e-12)
    projected = isac.project_power(2.0 * w_ref, 0.04)
    checks.append(abs(isac.tx_power(projected) - 0.04) < 1e-12)

    # sensing-shortfall hinge threshold at the linear Gamma_min
    env3 = IsacEnv(desk_scenario())
    env3.reset()
    at = isac.LinkMetrics(np.array([1.0, 1.0]), 2.0, np.array([cfg.gamma_min, cfg.gamma_min]), 0.02)
    below = isac.LinkMetrics(np.array([1.0, 1.0]), 2.0, np.array([cfg.gamma_min - 1e-6] * 2), 0.02)
    out_at = env3.compute_rewards(at, 0, np.zeros(2), 0.02, 10.0, 0.1, 0, False)
    out_below = env3.compute_rewards(below, 0, np.zeros(2), 0.02, 10.0, 0.1, 0, False)
    checks.append(out_at.delta3 == 0.0 and out_below.delta3 > 0.0)

    # bit-exact reward recomposition over one random-action episode
    env4 = IsacEnv(desk_scenario())
    env4.reset()
    rng = np.random.default_rng(11)
    exact = True
    for _ in range(env4.config.num_slots):
        if env4.is_pose_slot():
            env4.apply_6dma_action(rng.uniform(-0.2, 0.2, 3), rng.uniform(-1, 1, 3))
        out = env4.step_slot(rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, 16))
        base = (1.0 - out.epsilon1) * out.metrics.sum_rate - out.epsilon1 * out.delta1
        exact &= bool(np.array_equal(out.rewards_uav, base + out.shaping))
        exact &= out.reward_beam == out.metrics.sum_rate - out.delta3 - out.delta4 + out.mean_target_snr
    checks.append(exact)

    report(3, all(checks), f"{sum(checks)}/{len(checks)} constant and recomposition checks hold")


# --------------------------------------------------------------- criterion 4
def test_criterion_4_gradient_check():
    rng = np.random.default_rng(31)
    worst = 0.0
    for k in range(20):
        if k % 2 == 0:
            dims, acts = [10, 16, 16, 4], ["relu", "relu", "tanh"]
        else:
            dims, acts = [14, 16, 16, 1], ["relu", "relu", "linear"]
        while True:
            from sixdma_isac.nn import Mlp

            net = Mlp(dims, acts, rng)
            x = rng.normal(size=(4, dims[0]))
            pre, _ = layer_pass(net, x)
            margins_ok = all(
                act != "relu" or np.min(np.abs(z)) > 1e-3 for z, act in zip(pre, acts)
            )
            if margins_ok:
                break
        up = rng.normal(size=(4, dims[-1]))
        worst = max(worst, max_relative_gradient_error(net, x, up, h=1e-5))
    ok = worst < 1e-4
    report(4, ok, f"20 nets, max relative gradient error {worst:.2e} (<1e-4)")


# --------------------------------------------------------------- criterion 5
def test_criterion_5_td3_mechanics():
    checks = []
    agent = Td3Agent(4, 2, 6, hidden=(16, 16), gamma=0.0, rng=np.random.default_rng(1))
    y = agent.td_targets([2.5, -1.0], np.zeros((2, 6)), [0.0, 0.0])
    checks.append(np.array_equal(y, [2.5, -1.0]))

    agent2 = Td3Agent(4, 2, 6, hidden=(16, 16), rng=np.random.default_rng(2))
    agent2.critic_update(np.random.default_rng(3).normal(size=(4, 6)), np.zeros(4))
    agent2.soft_update(1.0)
    copies = all(
        np.array_equal(a, b)
        for a, b in zip(agent2.critic1.parameters(), agent2.target_critic1.parameters())
    )
    checks.append(copies)

    agent3 = Td3Agent(4, 2, 6, hidden=(16, 16), policy_delay=2, rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    actor_updates = 0
    for _ in range(1000):
        agent3.critic_update(rng.normal(size=(4, 6)), rng.normal(size=4))
        if agent3.should_update_actor():
            agent3.actor_update(rng.normal(size=(4, 4)), rng.normal(size=(4, 6)), slice(4, 6))
            actor_updates += 1
    checks.append(actor_updates == 500 and agent3.critic_update_count == 1000)

    toy = Td3Agent(1, 1, 2, hidden=(32, 32), lr_actor=1e-3, lr_critic=1e-3,
                   rng=np.random.default_rng(6))
    rng2 = np.random.default_rng(7)
    for _ in range(3000):
        a = rng2.uniform(-1.0, 1.0, size=(64, 1))
        toy.critic_update(np.hstack([np.zeros((64, 1)), a]), -((a[:, 0] - 0.5) ** 2))
    for _ in range(2000):
        toy.critic_update_count = toy.policy_delay
        toy.actor_update(np.zeros((64, 1)), np.zeros((64, 2)), slice(1, 2))
    out = float(toy.actor.forward(np.zeros(1))[0])
    checks.append(abs(out - 0.5) <= 0.05)

    report(
        5,
        all(checks),
        f"gamma-0 target, tau-1 copy, 500/1000 delayed actor updates, toy optimum {out:.3f} (0.5 +- 0.05)",
    )


# --------------------------------------------------------------- criteria 6-8
def test_criterion_6_desk_scale_learning(desk_runs):
    firsts, finals = [], []
    for result in desk_runs["runs"][1]:
        rates = np.array([m.sum_rate for m in result.metrics])
        firsts.append(float(rates[:20].mean()))
        finals.append(float(rates[-20:].mean()))
    median_first = float(np.median(firsts))
    median_final = float(np.median(finals))
    gain = median_final / median_first
    slowest = max(desk_runs["seed_times"])
    ok = gain >= 1.2 and slowest <= 600.0
    report(
        6,
        ok,
        f"median final-20 rate {median_final:.4f} vs first-20 {median_first:.4f} "
        f"({(gain - 1) * 100:.0f}% gain, need >=20%); slowest seed {slowest:.1f}s (<=600s)",
    )


def test_criterion_7_scheme_ordering(desk_runs):
    medians = {}
    for scheme in (1, 5):
        finals = [
            float(np.mean([m.sum_rate for m in result.metrics[-20:]]))
            for result in desk_runs["runs"][scheme]
        ]
        medians[scheme] = float(np.median(finals))
    ok = medians[1] >= 0.95 * medians[5]
    report(
        7,
        ok,
        f"scheme 1 median {medians[1]:.4f} vs scheme 5 (fixed antenna) {medians[5]:.4f} "
        f"(pass unless scheme 1 trails by >5%)",
    )


def test_criterion_8_sensing_feasibility(desk_runs):
    scenario = desk_runs["scenario"]
    feasible = 0
    total = 0
    for result in desk_runs["runs"][1]:
        rep = evaluate(result.roster, scenario, episodes=2)
        for row in rep["rows"]:
            feasible += row["snr_feasible_fraction"] * scenario.num_slots
            total += scenario.num_slots
    fraction = feasible / total
    ok = fraction >= 0.9
    report(8, ok, f"mean sensing SNR meets the threshold in {fraction:.1%} of slots (need >=90%)")


# --------------------------------------------------------------- criterion 9
def test_criterion_9_determinism(tmp_path):
    def spec(out):
        return ExperimentSpec(
            scenario=desk_scenario(),
            train=desk_train_config(episodes=3, batch_size=16, hidden=(16, 16), buffer_capacity=500),
            schemes=(1,),
            seeds=(0,),
            out_dir=out,
            eval_episodes=1,
            converged_window=2,
        )

    cmd_train(spec(tmp_path / "a"))
    cmd_train(spec(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "scheme1_seed0" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "scheme1_seed0" / "metrics.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    report(9, ok, f"metrics.csv byte-identical across two single-worker runs ({len(bytes_a)} bytes)")


# --------------------------------------------------------------- criterion 10
def test_criterion_10_latency_harness(desk_runs):
    roster = desk_runs["runs"][1][0].roster
    rows = profile_latency(roster, calls=10_000, seed=0)
    names = [row["agent"] for row in rows]
    expected = [f"uav_{k}" for k in range(desk_runs["scenario"].num_uavs)] + ["beam", "sixdma"]
    structure_ok = names == expected
    stats_ok = all(
        row["p99_ms"] <= row["max_ms"] and row["avg_ms"] <= row["max_ms"] and row["calls"] >= 10_000
        for row in rows
    )
    ok = structure_ok and stats_ok
    report(
        10,
        ok,
        f"{len(rows)} agent rows (M+2), P99<=max for all, >=10^4 calls each; no absolute thresholds",
    )
