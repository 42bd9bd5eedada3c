"""Movable-antenna ISAC simulator with a hierarchical TD3 solver.

The package splits into a deterministic physics core (``geometry``,
``channel``, ``isac``, ``env``), a small learning stack (``nn``, ``rl``,
``hdrl``) and an experiment manager (``harness``).  The most common entry
points are re-exported here; the imports below are the export list.
"""

from .channel import channel_matrix
from .env import (
    IsacEnv,
    Observations,
    ScenarioConfig,
    StepOutcome,
    WorldState,
    desk_scenario,
    benchmark_scenario,
    scenario_from_dict,
)
from .errors import ConfigError, InvariantError, ProtocolError, SingularityError
from .geometry import (
    AntennaLayout,
    SurfacePose,
    global_antenna_positions,
    half_space_ok,
    rotation_matrix,
    square_grid_layout,
    surface_normal,
    validate_spacing,
)
from .harness import ExperimentSpec, cmd_compare, cmd_eval, cmd_profile, cmd_train, main
from .hdrl import (
    AgentRoster,
    EpisodeMetrics,
    TrainConfig,
    TrainResult,
    desk_train_config,
    evaluate,
    profile_latency,
    train,
    train_config_from_dict,
)
from .isac import (
    LinkMetrics,
    db_to_linear,
    dbm_to_watts,
    link_metrics,
    project_power,
    sensing_snr,
    sinr,
    sum_rate,
    tx_power,
)
from .nn import Adam, Mlp
from .rl import NoiseSchedule, ReplayBuffer, Td3Agent

__version__ = "0.1.0"
