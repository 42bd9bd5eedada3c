"""Hierarchical training on the desk scenario, then a noise-free rollout.

Uses a reduced episode budget so the demo finishes in a few seconds; the
full desk preset (150 episodes) is what the acceptance suite runs.  The
printout shows the episode metrics improving, the evaluation report
summary and the per-agent inference latency from ``profile_latency``.
"""

import numpy as np

from sixdma_isac import desk_scenario, desk_train_config, evaluate, profile_latency, train

scenario = desk_scenario()
config = desk_train_config(episodes=60, explore_episodes=40, seed=0)
print(f"training scheme {config.scheme} for {config.episodes} episodes ...")
result = train(scenario, config)

rates = np.array([m.sum_rate for m in result.metrics])
print("\nepisode sum-rate curve (every 10th episode):")
for episode in range(0, config.episodes, 10):
    bar = "#" * int(rates[episode] * 60)
    print(f"  ep {episode:>3}: {rates[episode]:6.3f} {bar}")
print(f"first-10 mean {rates[:10].mean():.3f} -> last-10 mean {rates[-10:].mean():.3f}")
print(f"stored transitions: fast {result.fast_transitions}, pose {result.pose_transitions}")

report = evaluate(result.roster, scenario, episodes=3)
agg = report["aggregate"]
print("\nnoise-free evaluation aggregate:")
print(f"  sum rate            {agg['sum_rate']:.3f} bits/s/Hz")
print(f"  mean sensing SNR    {agg['mean_snr']:.3f} (threshold {scenario.gamma_min:.4f})")
print(f"  feasible slots      {agg['snr_feasible_fraction']:.0%}")
print(f"  collisions          {agg['collisions']:.1f}")

print("\nper-agent forward latency (ms, 1000 calls each):")
for row in profile_latency(result.roster, calls=1000):
    print(f"  {row['agent']:<8} avg {row['avg_ms']:.4f}  max {row['max_ms']:.4f}  p99 {row['p99_ms']:.4f}")
