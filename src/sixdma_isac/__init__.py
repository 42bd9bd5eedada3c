"""Movable-antenna ISAC simulator with a hierarchical TD3 solver.

The package splits into a deterministic physics core (``geometry``,
``channel``, ``isac``, ``env``), a small learning stack (``nn``, ``rl``,
``hdrl``) and an experiment manager (``harness``).  The most common entry
points are re-exported here.
"""

from .channel import AnglePair, angles_from_positions, array_response, channel_vector, pointing_vector
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
from .harness import ExperimentSpec, cmd_compare, cmd_eval, cmd_profile, cmd_train, load_spec, main
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
    sensing_snr_quadratic,
    sinr,
    sum_rate,
    tx_power,
)
from .nn import Adam, Mlp
from .rl import NoiseSchedule, ReplayBuffer, Td3Agent

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AgentRoster",
    "AnglePair",
    "AntennaLayout",
    "ConfigError",
    "EpisodeMetrics",
    "ExperimentSpec",
    "InvariantError",
    "IsacEnv",
    "LinkMetrics",
    "Mlp",
    "NoiseSchedule",
    "Observations",
    "ProtocolError",
    "ReplayBuffer",
    "ScenarioConfig",
    "SingularityError",
    "StepOutcome",
    "SurfacePose",
    "Td3Agent",
    "TrainConfig",
    "TrainResult",
    "WorldState",
    "angles_from_positions",
    "array_response",
    "channel_vector",
    "cmd_compare",
    "cmd_eval",
    "cmd_profile",
    "cmd_train",
    "db_to_linear",
    "dbm_to_watts",
    "desk_scenario",
    "desk_train_config",
    "evaluate",
    "global_antenna_positions",
    "half_space_ok",
    "link_metrics",
    "load_spec",
    "main",
    "benchmark_scenario",
    "pointing_vector",
    "profile_latency",
    "project_power",
    "rotation_matrix",
    "scenario_from_dict",
    "sensing_snr",
    "sensing_snr_quadratic",
    "sinr",
    "square_grid_layout",
    "sum_rate",
    "surface_normal",
    "train",
    "train_config_from_dict",
    "tx_power",
    "validate_spacing",
]
