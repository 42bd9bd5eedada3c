"""Channel synthesis and beamforming metrics on a toy constellation.

Builds line-of-sight channels for two receivers and two sensing targets,
then compares an idle precoder, a naive equal-power precoder and matched
beams.  Shows the power projection that keeps the transmitter inside its
budget.
"""

import numpy as np

from sixdma_isac import (
    SurfacePose,
    channel_matrix,
    db_to_linear,
    dbm_to_watts,
    global_antenna_positions,
    link_metrics,
    project_power,
    square_grid_layout,
    tx_power,
)

wavelength = 0.125
noise = dbm_to_watts(-50.0)          # 1e-8 W
p_max = 0.04                          # 40 mW
gamma_min = db_to_linear(1.0)         # ~1.2589

layout = square_grid_layout(2, 1.0)
pose = SurfacePose(np.array([0.0, 0.0, 20.0]), np.zeros(3))
antennas = global_antenna_positions(pose, layout)

receivers = np.array([[12.0, -8.0, 24.0], [18.0, 10.0, 26.0]])
targets = np.array([[8.0, 2.0, 22.0], [12.0, -4.0, 24.0]])

h_rx = channel_matrix(pose.center, receivers, antennas, wavelength)
h_tg = channel_matrix(pose.center, targets, antennas, wavelength)
print("per-entry channel amplitude for receiver 0:", abs(h_rx[0, 0]))
print("free-space prediction:", wavelength / (4 * np.pi * np.linalg.norm(receivers[0] - pose.center)))

def show(name, precoder):
    m = link_metrics(h_rx, h_tg, precoder, noise, noise)
    feasible = "yes" if m.mean_target_snr >= gamma_min else "no"
    print(
        f"{name:<22} power {m.tx_power * 1e3:6.2f} mW | sum rate {m.sum_rate:6.3f} b/s/Hz | "
        f"mean sensing SNR {m.mean_target_snr:7.3f} (meets threshold: {feasible})"
    )

show("idle", np.zeros((4, 2), complex))

rng = np.random.default_rng(0)
random_w = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
print("\nrandom precoder power before projection:", f"{tx_power(random_w) * 1e3:.1f} mW")
show("random (projected)", project_power(random_w, p_max))

# Matched beams: point each stream at its receiver, split the budget.
matched = np.stack(
    [np.sqrt(p_max / 2) * h / np.linalg.norm(h) for h in h_rx], axis=1
)
show("matched to receivers", matched)

# Steal some power for the sensing targets: a convex blend keeps budget.
sensing = np.stack([np.sqrt(p_max / 2) * h / np.linalg.norm(h) for h in h_tg], axis=1)
blend = project_power(0.7 * matched + 0.3 * sensing, p_max)
show("70/30 comm/sensing", blend)
