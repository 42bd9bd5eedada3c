import argparse
import json
import os
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixdma_isac import harness, hdrl
from sixdma_isac.env import _UNIT_KEYS, ScenarioConfig, desk_scenario
from sixdma_isac.errors import ConfigError
from sixdma_isac.harness import (
    ExperimentSpec,
    build_parser,
    cmd_compare,
    cmd_eval,
    cmd_profile,
    cmd_train,
    content_hash,
    load_run,
    main,
    plan_runs,
    read_metrics_csv,
    spec_from_dict,
    worker_count,
    write_metrics_csv,
)
from sixdma_isac.hdrl import AgentRoster, EpisodeMetrics, TrainConfig, desk_train_config, snapshot_episode
from sixdma_isac.rl import Td3Agent


def tiny_spec(tmp_path, **overrides):
    base = dict(
        scenario=desk_scenario(),
        train=desk_train_config(episodes=2, batch_size=8, hidden=(8, 8), buffer_capacity=500),
        schemes=(1,),
        seeds=(0,),
        out_dir=tmp_path / "runs",
        eval_episodes=2,
        converged_window=2,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_from_dict_defaults_mirror_benchmark_tables(self):
        spec = spec_from_dict({"out_dir": "/tmp/x"})
        assert spec.scenario.num_uavs == 4
        assert spec.scenario.p_max == 0.04
        assert spec.scenario.v_max == 8.0
        assert spec.train.episodes == 1000
        assert spec.train.batch_size == 256
        assert spec.train.lr_critic == 3e-4
        assert spec.train.lr_actor == 1e-4
        assert spec.train.gamma == 0.99
        assert spec.train.tau == 0.01
        assert spec.train.noise_std == 0.5
        assert spec.train.explore_episodes == 600

    def test_desk_preset(self):
        spec = spec_from_dict({"preset": "desk", "out_dir": "/tmp/x"})
        assert spec.scenario.num_uavs == 2
        assert spec.train.episodes == 150

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_dict({"nope": 1})

    @pytest.mark.parametrize("preset", ["desk", "benchmark"])
    def test_unknown_train_key_is_a_usage_error(self, tmp_path, preset, capsys):
        config_path = tmp_path / "spec.json"
        config_path.write_text(json.dumps({"preset": preset, "train": {"episodez": 3}}))
        assert main(["train", "--config", str(config_path)]) == 1
        assert "unknown train-config keys: ['episodez']" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"sweep_tr": (100,)}, "pose_update_period must be at most the 20 slots of an episode, got 100"),
        ({"sweep_tr": (0,)}, "pose_update_period must be positive, got 0"),
        ({"sweep_pmax": (-1.0,)}, "p_max must be positive, got -1.0"),
        ({"schemes": (9,)}, "unknown scheme id 9"),
    ])
    def test_sweep_tr_must_fit(self, tmp_path, overrides, message):
        # the run configs of the plan check every scheme and sweep point
        with pytest.raises(ConfigError, match=f"^{message}$"):
            tiny_spec(tmp_path, **overrides)

    @pytest.mark.parametrize("name, values, repeated", [
        ("schemes", (1, 5, 1), 1), ("seeds", (0, 3, 3), 3), ("sweep_tr", (5, 10, 5), 5),
        ("sweep_pmax", (0.02, 0.02), 0.02),
    ])
    def test_repeated_values_are_rejected(self, tmp_path, name, values, repeated):
        # a repeat would plan, train and count one run several times
        with pytest.raises(ConfigError, match=f"{name} repeats the value {repeated}$"):
            tiny_spec(tmp_path, **{name: values})

    @pytest.mark.parametrize("overrides, message", [
        ({"eval_episodes": 0}, "eval_episodes must be >= 1, got 0"),
        ({"converged_window": 0}, "converged_window must be >= 1, got 0"),
        ({"snapshot_interval": 0}, "snapshot_interval must be >= 1, got 0"),
        ({"snapshot_interval": -3}, "snapshot_interval must be >= 1, got -3"),
        ({"seeds": ()}, r"seeds must not be empty, got \(\)"),
    ])
    def test_counts_must_be_positive(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            tiny_spec(tmp_path, **overrides)

    @pytest.mark.parametrize("overrides, name", [
        ({"eval_episodes": 2.5}, "eval_episodes"), ({"converged_window": 1.9}, "converged_window"),
        ({"snapshot_interval": 2.5}, "snapshot_interval"), ({"seeds": [0.7, 1.2]}, "seeds"),
        ({"schemes": [1.5]}, "schemes"), ({"sweep_tr": [2.6]}, "sweep_tr"),
        ({"train": {"hidden": [64.7, 8.2]}}, "hidden"),
        ({"train": {"policy_delay": 1.5}}, "policy_delay"), ({"train": {"episodes": 2.5}}, "episodes"),
        ({"train": {"pose_buffer_capacity": 64.5}}, "pose_buffer_capacity"), ({"train": {"seed": "1"}}, "seed"),
        ({"scenario": {"pose_update_period": 2.5}}, "pose_update_period"),
        ({"scenario": {"num_antennas": 4.5}}, "num_antennas"), ({"scenario": {"num_slots": 20.5}}, "num_slots"),
        # a bool is no count: true used to train 1 episode
        ({"train": {"episodes": True}}, "episodes"), ({"eval_episodes": False}, "eval_episodes"),
        ({"scenario": {"num_uavs": True}}, "num_uavs"), ({"train": {"hidden": [True, 8]}}, "hidden"),
    ])
    def test_non_integral_counts_are_refused(self, overrides, name):
        # they used to be truncated (2.5 eval episodes ran 2, policy_delay 1.5 ran 1), kept as floats
        # (snapshot_interval) or failed after training (pose_update_period 2.5)
        with pytest.raises(ConfigError, match=f"^{name} takes whole numbers only, got "):
            spec_from_dict({"preset": "desk", **overrides})

    @pytest.mark.parametrize("overrides, name", [
        ({"train": {"gamma": "0.9"}}, "gamma"), ({"train": {"lr_actor": None}}, "lr_actor"),
        ({"train": {"noise_floor": False}}, "noise_floor"), ({"scenario": {"v_max": "8"}}, "v_max"),
        ({"scenario": {"collision_penalty": [10.0]}}, "collision_penalty"),
        ({"scenario": {"p_max_dbm": "16"}}, "p_max_dbm"), ({"sweep_pmax": ["0.01"]}, "sweep_pmax"),
    ])
    def test_non_numbers_are_refused(self, overrides, name):
        # they used to be kept in the config and fail with a TypeError once the run started
        with pytest.raises(ConfigError, match=f"^{name} takes numbers only, got "):
            spec_from_dict({"preset": "desk", **overrides})

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_episode_logs_takes_a_bool_only(self, value):
        # "no" used to be true and write the log
        with pytest.raises(ConfigError, match=f"^episode_logs takes true or false only, got {value!r}$"):
            spec_from_dict({"preset": "desk", "episode_logs": value})

    def test_numbers_are_kept_as_given(self):
        spec = spec_from_dict({"preset": "desk", "scenario": {"v_max": 8}, "train": {"gamma": 0.99},
                               "sweep_pmax": [0.01, 1]})
        assert type(spec.scenario.v_max) is int and spec.sweep_pmax == (0.01, 1)
        assert content_hash(spec.scenario, spec.train) == content_hash(desk_scenario(v_max=8), desk_train_config())

    @pytest.mark.parametrize("overrides, message", [
        ({"train": {"gamma": "0.9"}}, "gamma takes numbers only"), ({"scenario": {"v_max": "8"}}, "v_max"),
        ({"sweep_pmax": ["0.01"]}, "sweep_pmax takes numbers only"),
        ({"episode_logs": "no"}, "episode_logs takes true or false only"),
        ({"train": {"episodes": True}}, "episodes takes whole numbers only"),
        # agent settings out of range: gamma used to fail after the run directory was made,
        # a negative learning rate used to train
        ({"train": {"gamma": 1.5}}, "gamma must lie in [0, 1), got 1.5"),
        ({"train": {"lr_actor": -0.001}}, "lr_actor must be > 0, got -0.001"),
        ({"train": {"lr_critic": 0}}, "lr_critic must be > 0, got 0"),
        ({"train": {"smoothing_std": -0.1}}, "smoothing_std must be >= 0"),
        ({"train": {"noise_std": -0.5}}, "noise_std must be >= 0"), ({"train": {"noise_floor": -0.01}}, "noise_floor"),
        # a zero width used to fail once the agents were built (exit 2, after the run directory was made),
        # a negative exploration horizon used to train without noise decay
        ({"train": {"hidden": [0, 8]}}, "hidden must hold widths >= 1, got (0, 8)"),
        ({"train": {"explore_episodes": -5}}, "explore_episodes must be >= 0, got -5"),
        # a negative seed used to make its run directory, then fail in numpy (exit 2)
        ({"seeds": [-1]}, "seed must be >= 0, got -1"),
        # a NaN penalty used to train to a complete run with reward_uav = nan, a NaN start point
        # to fail at the first pose update (exit 2), after the run directory was made
        ({"scenario": {"collision_penalty": float("nan")}}, "collision_penalty must be finite, got nan"),
        ({"scenario": {"uav_starts": [[10.0, -25.0, float("nan")], [18.0, -25.0, 26.0]]}},
         "uav_starts must be finite, got [[10.0, -25.0, nan], [18.0, -25.0, 26.0]]"),
        ({"scenario": {"p_max_dbm": float("inf")}}, "p_max_dbm must be finite, got inf"),
        # a finite dBm too large for a float used to end in OverflowError (exit 2)
        ({"scenario": {"p_max_dbm": 1e4}}, "p_max_dbm must be small enough to convert to a float, got 10000.0"),
        ({"train": {"noise_std": float("-inf")}}, "noise_std must be finite, got -inf"),
        # starts closer than d_min and a grid under half a wavelength used to be refused by the
        # environment, after the run directory was made
        ({"scenario": {"uav_starts": [[10.0, -25.0, 22.0], [11.0, -25.0, 22.0]]}},
         "uav_starts must lie at least 3.0 m apart, got 1.000 m"),
        ({"scenario": {"surface_side_length": 0.1}},
         "surface_side_length must space the 2x2 antennas at least lambda/2 = 0.0625 m apart, got 0.1"),
    ])
    def test_bad_settings_are_usage_errors_before_any_run(self, tmp_path, capsys, overrides, message):
        config_path = tmp_path / "spec.json"
        config_path.write_text(json.dumps({"preset": "desk", "out_dir": "runs", **overrides}))
        assert main(["train", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")  # the one field it names first
        assert not (tmp_path / "runs").exists()

    def test_whole_float_counts_become_ints(self):
        spec = spec_from_dict({"preset": "desk", "scenario": {"num_antennas": 4.0, "pose_update_period": 5.0},
                               "train": {"policy_delay": 2.0, "pose_buffer_capacity": 128.0}})
        counts = (spec.scenario.num_antennas, spec.scenario.pose_update_period, spec.train.policy_delay,
                  spec.train.pose_buffer_capacity)
        assert counts == (4, 5, 2, 128) and all(type(c) is int for c in counts)
        assert content_hash(spec.scenario, spec.train) == content_hash(desk_scenario(), desk_train_config())

    def test_defaults_and_coercion_live_on_the_spec(self, tmp_path):
        spec = ExperimentSpec(desk_scenario(), desk_train_config(), seeds=[2, 3], sweep_tr=[5.0], out_dir="x")
        assert spec.schemes == (1,) and spec.seeds == (2, 3) and spec.sweep_tr == (5,)
        assert spec.out_dir == Path("x") and spec.eval_episodes == 20 and spec.snapshot_interval is None

    @pytest.mark.parametrize("name, value", [("sigma_c_sq", 2e-8), ("sigma_s_sq", 3e-8), ("p_max", 0.02),
                                             ("gamma_min", 2.0), ("theta_max", 0.25)])
    def test_json_scenario_override_in_linear_units_is_kept(self, name, value):
        spec = spec_from_dict({"preset": "desk", "scenario": {name: value}})
        assert getattr(spec.scenario, name) == value


# Bad values by the kind a setting takes: a string, a bool, null where null is not allowed, NaN,
# +-inf, or x.5 for a count.
_TEXT = st.sampled_from(["", "1", "0.5", "nan", "true"]) | st.text(max_size=4)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_BAD_NUMBER = _TEXT | st.booleans() | st.none() | _NON_FINITE
_BAD_COUNT = _BAD_NUMBER | st.integers(-1000, 1000).map(lambda n: n + 0.5)
_BAD_VALUES = {
    int: _BAD_COUNT,
    int | None: _BAD_COUNT.filter(lambda v: v is not None),
    float: _BAD_NUMBER,
    bool: _TEXT | st.none() | _NON_FINITE | st.integers(0, 1),
    tuple[int, ...]: _BAD_COUNT.map(lambda v: [v]) | _BAD_NUMBER,  # a bad entry, or no list at all
    tuple[float, ...]: _BAD_NUMBER.map(lambda v: [v]) | _BAD_NUMBER,
}
# (section of the JSON spec, setting, the strategy of its bad values) for every numeric or bool field
# of the three configs and every scenario unit key
_SETTINGS = [
    (section, name, _BAD_VALUES[kind])
    for section, config in (("scenario", ScenarioConfig), ("train", TrainConfig), (None, ExperimentSpec))
    for name, kind in get_type_hints(config).items() if kind in _BAD_VALUES
] + [("scenario", key, _BAD_NUMBER) for key, _, _ in _UNIT_KEYS]


@settings(max_examples=300, deadline=None)
@given(preset=st.sampled_from(["desk", "benchmark"]),
       setting=st.sampled_from(_SETTINGS).flatmap(lambda s: st.tuples(st.just(s[:2]), s[2])))
def test_every_setting_refuses_a_bad_value_by_its_name(preset, setting):
    (section, name), value = setting
    data = {"preset": preset, **({name: value} if section is None else {section: {name: value}})}
    with pytest.raises(ConfigError) as refused:
        spec_from_dict(data)
    assert str(refused.value).startswith(f"{name} "), (data, str(refused.value))


def _spec_values(spec):
    return {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "scenario"} | {
        "scenario": spec.scenario.to_dict()}


class TestCliSpecFlags:
    # dests of the train/eval/compare flags that are not keys of the JSON spec
    COMMAND_ONLY = {"help", "config", "episodes", "resume", "run"}

    def _spec_commands(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        return [sub.choices[name] for name in ("train", "eval", "compare")]

    def test_every_spec_flag_dest_is_a_spec_key(self):
        spec_fields = {f.name for f in fields(ExperimentSpec)}
        dests = {action.dest for parser in self._spec_commands() for action in parser._actions}
        assert dests - self.COMMAND_ONLY == set(harness._SPEC_FLAGS)
        assert set(harness._SPEC_FLAGS) - {"preset"} <= spec_fields

    @pytest.mark.parametrize("flags, data", [
        (["train", "--preset", "desk", "--scheme", "1,5", "--seeds", "0,1", "--episodes", "3",
          "--sweep-tr", "5,10", "--episode-logs", "--snapshot-interval", "2"],
         {"preset": "desk", "schemes": [1, 5], "seeds": [0, 1], "train": {"episodes": 3}, "sweep_tr": [5, 10],
          "episode_logs": True, "snapshot_interval": 2}),
        (["eval", "--scheme", "3", "--seeds", "4", "--sweep-pmax", "0.02,0.04", "--eval-episodes", "5"],
         {"schemes": [3], "seeds": [4], "sweep_pmax": [0.02, 0.04], "eval_episodes": 5}),
        (["compare", "--preset", "desk", "--scheme", "2"], {"preset": "desk", "schemes": [2]}),
    ])
    def test_json_spec_and_flags_give_equal_specs(self, tmp_path, flags, data):
        out = tmp_path / "runs"
        config_path = tmp_path / "spec.json"
        config_path.write_text(json.dumps({**data, "out_dir": str(out)}))
        parser = build_parser()
        from_flags = harness._spec_from_args(parser.parse_args([*flags, "--out", str(out)]))
        from_json = harness._spec_from_args(parser.parse_args([flags[0], "--config", str(config_path)]))
        assert _spec_values(from_flags) == _spec_values(from_json)

    @pytest.mark.parametrize("flags, message", [
        (["eval", "--eval-episodes", "0"], "eval_episodes must be >= 1, got 0"),
        (["train", "--episodes", "0"], "episodes must be >= 1, got 0"),
        (["train", "--snapshot-interval", "-3"], "snapshot_interval must be >= 1, got -3"),
        (["train", "--scheme", "1,1", "--seeds", "0,0"], "schemes repeats the value 1"),
        # plan_runs sweeps one axis, so the other would be dropped silently
        (["train", "--sweep-pmax", "0.01,0.04", "--sweep-tr", "5,10"],
         "sweep_tr cannot be given beside a power sweep"),
    ])
    def test_falsy_or_repeated_flag_values_are_usage_errors(self, tmp_path, capsys, flags, message):
        # zero used to fall back to the default silently: 20 eval episodes, the preset's 150 episodes
        out = tmp_path / "runs"
        assert main([*flags, "--preset", "desk", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, expected", [
        ("--scheme", "1.5", "whole numbers"), ("--seeds", "0,x", "whole numbers"),
        ("--sweep-tr", "5,7.5", "whole numbers"), ("--sweep-pmax", "x", "numbers"),
    ])
    def test_bad_list_flag_says_what_it_expects(self, tmp_path, capsys, flag, value, expected):
        assert main(["train", "--preset", "desk", flag, value, "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected comma-separated {expected}, got {value!r}" in err
        assert "_list" not in err

    def test_absent_flags_leave_the_config_values(self, tmp_path):
        config_path = tmp_path / "spec.json"
        config_path.write_text(json.dumps({"preset": "desk", "episode_logs": True, "snapshot_interval": 4,
                                           "eval_episodes": 3, "train": {"episodes": 7}}))
        parser = build_parser()
        train_spec = harness._spec_from_args(parser.parse_args(["train", "--config", str(config_path)]))
        eval_spec = harness._spec_from_args(parser.parse_args(["eval", "--config", str(config_path)]))
        assert (train_spec.episode_logs, train_spec.snapshot_interval, train_spec.train.episodes) == (True, 4, 7)
        assert eval_spec.eval_episodes == 3
        flagged = harness._spec_from_args(parser.parse_args(
            ["train", "--config", str(config_path), "--episode-logs", "--episodes", "2"]))
        assert (flagged.episode_logs, flagged.train.episodes) == (True, 2)


class TestContentHash:
    def test_pinned_values(self):
        # The run identity of existing manifests: serialisation changes
        # must keep these digests; adding or removing a config field changes them.
        from sixdma_isac.env import benchmark_scenario

        assert content_hash(desk_scenario(), desk_train_config(seed=3, scheme=4)) == (
            "e04fc9539e2fb6db0755f177c0183a1aca168e801b36cc2262e1233687e22e51"
        )
        assert content_hash(benchmark_scenario(), TrainConfig()) == (
            "45f871313dcaa10ec4f4dea7d6b61771fed3390b305bc68992b4a60947b64617"
        )


class TestPlanning:
    def test_plain_grid(self, tmp_path):
        spec = tiny_spec(tmp_path, schemes=(1, 5), seeds=(0, 1))
        runs = plan_runs(spec)
        assert [r.name for r in runs] == [
            "scheme1_seed0",
            "scheme1_seed1",
            "scheme5_seed0",
            "scheme5_seed1",
        ]
        assert all(r.train.scheme == r.scheme and r.train.seed == r.seed for r in runs)

    def test_tr_sweep_trains_scheme5_once(self, tmp_path):
        spec = tiny_spec(tmp_path, schemes=(1, 5), sweep_tr=(5, 10))
        names = [r.name for r in plan_runs(spec)]
        assert "scheme1_seed0_tr5" in names and "scheme1_seed0_tr10" in names
        assert "scheme5_seed0_tr5" in names
        assert "scheme5_seed0_tr10" not in names

    def test_pmax_sweep_changes_scenario(self, tmp_path):
        spec = tiny_spec(tmp_path, sweep_pmax=(0.02, 0.04))
        runs = plan_runs(spec)
        assert runs[0].scenario.p_max == 0.02
        assert runs[1].scenario.p_max == 0.04


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            EpisodeMetrics(0, 1.5, -2.25, 0.125, 3.0625, 0.4375, 2, 1),
            EpisodeMetrics(1, 1.0 / 3.0, 2.0 / 7.0, 0.1, 0.2, 0.3, 0, 0),
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        back = read_metrics_csv(path)
        assert back == rows

    def test_header_fixed(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [])
        assert path.read_text().splitlines()[0] == (
            "episode,reward_uav,reward_beam,reward_pose,sum_rate,mean_snr,collisions,blockages"
        )


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path):
        spec = tiny_spec(tmp_path)
        statuses = cmd_train(spec)
        assert statuses == [{"name": "scheme1_seed0", "status": "trained"}]
        run_dir = spec.out_dir / "scheme1_seed0"
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "checkpoints" / "roster.json").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["content_hash"] == content_hash(spec.scenario, plan_runs(spec)[0].train)

    def test_byte_identical_metrics_across_runs(self, tmp_path):
        spec_a = tiny_spec(tmp_path, out_dir=tmp_path / "a")
        spec_b = tiny_spec(tmp_path, out_dir=tmp_path / "b")
        cmd_train(spec_a)
        cmd_train(spec_b)
        bytes_a = (spec_a.out_dir / "scheme1_seed0" / "metrics.csv").read_bytes()
        bytes_b = (spec_b.out_dir / "scheme1_seed0" / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_resume_skips_complete_runs(self, tmp_path):
        spec = tiny_spec(tmp_path)
        cmd_train(spec)
        statuses = cmd_train(spec, resume=True)
        assert statuses == [{"name": "scheme1_seed0", "status": "skipped"}]

    def test_resume_refuses_a_complete_run_with_another_config(self, tmp_path, capsys):
        common = ["train", "--preset", "desk", "--scheme", "1", "--seeds", "0", "--out", str(tmp_path)]
        assert main([*common, "--episodes", "1"]) == 0
        metrics = (tmp_path / "scheme1_seed0" / "metrics.csv").read_bytes()
        assert main([*common, "--episodes", "2", "--resume"]) == 1
        assert "scheme1_seed0" in capsys.readouterr().err
        assert (tmp_path / "scheme1_seed0" / "metrics.csv").read_bytes() == metrics

    def test_episode_logs_written(self, tmp_path):
        spec = tiny_spec(tmp_path, episode_logs=True)
        cmd_train(spec)
        log = spec.out_dir / "scheme1_seed0" / "episodes.ndjson"
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2 * spec.scenario.num_slots  # 2 episodes
        record = json.loads(lines[0])
        assert record["episode"] == 0 and record["slot"] == 0

    def test_a_retrain_cut_in_training_leaves_the_complete_run_whole(self, tmp_path, monkeypatch):
        # a fresh log is staged: a retrain cut after its first episode used to empty episodes.ndjson
        # (down to that episode's records) beside the old manifest, which still said complete
        spec = tiny_spec(tmp_path, episode_logs=True)
        cmd_train(spec)
        run_dir = spec.out_dir / "scheme1_seed0"
        names = ("manifest.json", "metrics.csv", "episodes.ndjson")
        before = {name: (run_dir / name).read_bytes() for name in names}
        train = harness.train

        def cut(scenario, config, **kwargs):
            train(scenario, replace(config, episodes=1), **kwargs)
            raise RuntimeError("cut after the first episode")

        monkeypatch.setattr(harness, "train", cut)
        with pytest.raises(RuntimeError, match="cut after the first episode"):
            cmd_train(spec)
        assert {name: (run_dir / name).read_bytes() for name in names} == before
        assert list(spec.out_dir.rglob("*.tmp")) == []

    def test_worker_count_env(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("SIXDMA_ISAC_WORKERS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("SIXDMA_ISAC_WORKERS", "3")
        assert worker_count() == 3
        for raw in ("junk", "0", "-1"):
            monkeypatch.setenv("SIXDMA_ISAC_WORKERS", raw)
            with pytest.raises(ConfigError):
                worker_count()
            # a usage error before the output directory is made
            out = tmp_path / f"runs{raw}"
            assert main(["train", "--preset", "desk", "--episodes", "1", "--out", str(out)]) == 1
            assert "SIXDMA_ISAC_WORKERS" in capsys.readouterr().err
            assert not out.exists()

    def test_multi_worker_dispatch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIXDMA_ISAC_WORKERS", "2")
        spec = tiny_spec(
            tmp_path,
            seeds=(0, 1),
            train=desk_train_config(episodes=1, batch_size=8, hidden=(8, 8), buffer_capacity=200),
        )
        statuses = cmd_train(spec)
        assert sorted(s["name"] for s in statuses) == ["scheme1_seed0", "scheme1_seed1"]
        for seed in (0, 1):
            assert (spec.out_dir / f"scheme1_seed{seed}" / "metrics.csv").exists()


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("runs")
    spec = tiny_spec(tmp_path, schemes=(1, 5))
    cmd_train(spec)
    return spec


@pytest.fixture(scope="module")
def swept_dir(tmp_path_factory):
    """Trained, evaluated, compared and profiled runs of a T_r sweep: every
    whole-file output of the harness exists once."""
    spec = tiny_spec(tmp_path_factory.mktemp("swept"), schemes=(1, 5), sweep_tr=(5, 10))
    cmd_train(spec)
    cmd_eval(spec)
    cmd_compare(spec)
    cmd_profile(spec.out_dir / "scheme1_seed0_tr5", calls=10)
    return spec


class TestWholeFileWrites:
    COMMANDS = {
        "metrics.csv": cmd_train,
        "manifest.json": cmd_train,
        "eval_report.json": cmd_eval,
        "profile.json": lambda spec: cmd_profile(spec.out_dir / "scheme1_seed0_tr5", calls=10),
        "comparison.csv": cmd_compare,
        "sweep_tr.csv": cmd_compare,
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_a_write_that_fails_midway_leaves_the_previous_file(self, swept_dir, tmp_path, monkeypatch, name):
        spec = replace(swept_dir, out_dir=tmp_path / "runs")
        shutil.copytree(swept_dir.out_dir, spec.out_dir)

        def harness_file(path):  # an agent checkpoint's own manifest.json is not one
            return path.name in (name, name + ".tmp") and "checkpoints" not in path.parts

        def contents():
            return {path: path.read_bytes() for path in spec.out_dir.rglob(name) if harness_file(path)}

        before = contents()
        assert before
        write_text = Path.write_text

        def torn(path, text, *args, **kwargs):
            if harness_file(path):  # half the bytes land, then the write fails
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("injected write fault")
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn)
        with pytest.raises(OSError, match="injected write fault"):
            self.COMMANDS[name](spec)
        assert contents() == before
        assert list(spec.out_dir.rglob("*.tmp")) == []


    def test_a_fault_in_a_checkpoint_write_leaves_a_run_that_eval_refuses_and_resume_retrains(
            self, trained_dir, tmp_path, monkeypatch):
        spec = replace(trained_dir, out_dir=tmp_path / "runs", schemes=(1,))
        shutil.copytree(trained_dir.out_dir, spec.out_dir)
        run_dir = spec.out_dir / "scheme1_seed0"
        metrics = (run_dir / "metrics.csv").read_bytes()
        write_text = Path.write_text
        faults = []

        def torn(path, text, *args, **kwargs):
            if not faults and path.name.startswith("manifest.json") and "checkpoints" in path.parts:
                faults.append(path)  # the first agent manifest: half the bytes land, then the write fails
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("injected write fault")
            return write_text(path, text, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", torn)
            with pytest.raises(OSError, match="injected write fault"):
                cmd_train(spec)  # a retrain over the trained run
        assert faults and list(spec.out_dir.rglob("*.tmp")) == []
        with pytest.raises(FileNotFoundError, match="no manifest"):
            cmd_eval(spec)
        assert cmd_train(spec, resume=True) == [{"name": "scheme1_seed0", "status": "trained"}]
        assert (run_dir / "metrics.csv").read_bytes() == metrics
        assert len(cmd_eval(spec)) == 1


class TestEvalCompareProfile:
    def test_eval_writes_reports(self, trained_dir):
        spec = trained_dir
        reports = cmd_eval(spec)
        assert len(reports) == 2
        report_path = spec.out_dir / "scheme1_seed0" / "eval_report.json"
        report = json.loads(report_path.read_text())
        assert len(report["rows"]) == spec.eval_episodes
        assert list(report) == ["scheme", "episodes", "seeds", "rows", "aggregate"]  # no latency_ms

    def test_compare_tables(self, trained_dir):
        spec = trained_dir
        result = cmd_compare(spec)
        assert set(result["schemes"]) == {1, 5}
        table = (spec.out_dir / "comparison.csv").read_text().splitlines()
        assert table[0] == "scheme,converged_sum_rate,converged_mean_snr,n_seeds"
        assert len(table) == 3

    def test_compare_missing_runs_listed(self, tmp_path):
        spec = tiny_spec(tmp_path, schemes=(1, 2))
        with pytest.raises(FileNotFoundError) as err:
            cmd_compare(spec)
        assert "scheme1_seed0" in str(err.value) and "scheme2_seed0" in str(err.value)

    def test_profile_rows_and_file(self, trained_dir):
        spec = trained_dir
        run_dir = spec.out_dir / "scheme1_seed0"
        rows = cmd_profile(run_dir, calls=100)
        assert [r["agent"] for r in rows] == ["uav_0", "uav_1", "beam", "sixdma"]
        assert all(r["p99_ms"] <= r["max_ms"] for r in rows)
        assert (run_dir / "profile.json").exists()

    def test_load_run_round_trip(self, trained_dir, tmp_path):
        spec = trained_dir
        manifest, scenario, train_cfg, roster = load_run(spec.out_dir / "scheme1_seed0")
        assert manifest["scheme"] == 1
        assert scenario.num_uavs == 2
        assert roster.scheme == 1
        roster.save(tmp_path / "copy")  # the whole run is read: an actor-only roster refuses to save

    def test_eval_and_profile_read_the_actors_alone(self, trained_dir, tmp_path, monkeypatch):
        run_dir = tmp_path / "scheme1_seed0"
        shutil.copytree(trained_dir.out_dir / "scheme1_seed0", run_dir)

        def refuse(agent):
            raise AssertionError("learner state read")

        monkeypatch.setattr(Td3Agent, "read_learner_state", refuse)
        assert main(["eval", "--run", str(run_dir), "--eval-episodes", "1"]) == 0
        assert main(["profile", "--run", str(run_dir), "--calls", "10"]) == 0

    def test_a_version_1_checkpoint_is_refused(self, trained_dir, tmp_path, capsys):
        run_dir = tmp_path / "scheme1_seed0"
        shutil.copytree(trained_dir.out_dir / "scheme1_seed0", run_dir)
        roster_path = run_dir / "checkpoints" / "roster.json"
        roster_path.write_text(json.dumps({**json.loads(roster_path.read_text()), "version": 1}))
        _, scenario, train_cfg, _ = load_run(trained_dir.out_dir / "scheme1_seed0")
        with pytest.raises(ConfigError, match="is version 1; .* train the run afresh"):
            AgentRoster.load(run_dir / "checkpoints", scenario, train_cfg)
        assert main(["eval", "--run", str(run_dir)]) == 1
        assert "is version 1" in capsys.readouterr().err


class TestResume:
    def test_partial_run_resumes_from_snapshot(self, tmp_path):
        from sixdma_isac.harness import _execute_run

        full = tiny_spec(tmp_path, out_dir=tmp_path / "full")
        cmd_train(full)
        reference = (full.out_dir / "scheme1_seed0" / "metrics.csv").read_bytes()

        partial_dir = tmp_path / "partial" / "scheme1_seed0"
        spec = tiny_spec(tmp_path, out_dir=tmp_path / "partial", snapshot_interval=1)
        run = plan_runs(spec)[0]
        _execute_run(replace(run, train=replace(run.train, episodes=1)), spec, resume=False)
        # simulate a crash after the snapshot: no manifest, stale metrics
        (partial_dir / "manifest.json").unlink()
        (partial_dir / "metrics.csv").unlink()

        statuses = cmd_train(spec, resume=True)
        assert statuses[0]["status"] == "trained"
        resumed = (partial_dir / "metrics.csv").read_bytes()
        assert resumed == reference

    def test_resumed_episode_log_equals_an_uninterrupted_one(self, tmp_path):
        train_cfg = desk_train_config(episodes=3, batch_size=8, hidden=(8, 8), buffer_capacity=500)
        straight = tiny_spec(tmp_path, out_dir=tmp_path / "straight", train=train_cfg, episode_logs=True)
        cmd_train(straight)
        reference = (straight.out_dir / "scheme1_seed0" / "episodes.ndjson").read_bytes()

        spec = tiny_spec(tmp_path, out_dir=tmp_path / "cut", train=train_cfg, episode_logs=True,
                         snapshot_interval=2)
        cmd_train(spec)
        run_dir = spec.out_dir / "scheme1_seed0"
        # interrupted after its last snapshot (episode 2 of 3 logged, not snapshotted)
        (run_dir / "manifest.json").unlink()
        assert snapshot_episode(run_dir / "snapshots") == 2
        assert cmd_train(spec, resume=True)[0]["status"] == "trained"
        assert (run_dir / "episodes.ndjson").read_bytes() == reference

    @pytest.mark.parametrize("cut", ["a fresh run after its first snapshot", "a retrain after the old manifest",
                                     "a fresh run before its own first snapshot"])
    def test_a_run_cut_with_snapshots_resumes_to_the_uninterrupted_files(self, tmp_path, monkeypatch, cut):
        # a fresh log is staged: a cut that removed the staged log left its resume to append to no
        # log, or to the log of the training before
        train_cfg = desk_train_config(episodes=3, batch_size=8, hidden=(8, 8), buffer_capacity=500)
        straight = tiny_spec(tmp_path, out_dir=tmp_path / "straight", train=train_cfg, episode_logs=True)
        cmd_train(straight)
        names = ("episodes.ndjson", "metrics.csv")
        reference = {name: (straight.out_dir / "scheme1_seed0" / name).read_bytes() for name in names}

        spec = tiny_spec(tmp_path, out_dir=tmp_path / "cut", train=train_cfg, episode_logs=True,
                         snapshot_interval=1)
        if cut.startswith("a fresh run"):
            save = hdrl._save_snapshot

            def save_then_cut(*args):
                save(*args)
                raise RuntimeError("cut")

            monkeypatch.setattr(hdrl, "_save_snapshot", save_then_cut)
        elif cut.startswith("a fresh run before"):  # over the snapshot of a training cut earlier
            cmd_train(replace(spec, train=replace(train_cfg, episodes=2)))
            (spec.out_dir / "scheme1_seed0" / "manifest.json").unlink()
            train = harness.train

            def train_then_cut(scenario, config, **kwargs):
                train(scenario, replace(config, episodes=1), **kwargs)
                raise RuntimeError("cut")

            monkeypatch.setattr(harness, "train", train_then_cut)
            spec = replace(spec, snapshot_interval=2)
        else:  # a complete 2-episode run, retrained for 3 and cut once its manifest is retired
            cmd_train(replace(spec, train=replace(train_cfg, episodes=2)))

            def cut_metrics(*args):
                raise RuntimeError("cut")

            monkeypatch.setattr(harness, "write_metrics_csv", cut_metrics)
        with pytest.raises(RuntimeError, match="cut"):
            cmd_train(spec)
        monkeypatch.undo()
        run_dir = spec.out_dir / "scheme1_seed0"
        assert not (run_dir / "manifest.json").exists()
        assert cmd_train(spec, resume=True)[0]["status"] == "trained"
        assert {name: (run_dir / name).read_bytes() for name in names} == reference
        assert list(spec.out_dir.rglob("*.tmp")) == []

    def test_log_cut_keeps_whole_records_before_the_snapshot(self, tmp_path):
        from sixdma_isac.harness import _cut_episode_log

        kept = "".join(json.dumps({"episode": e, "slot": s}) + "\n" for e in (0, 1) for s in (0, 1))
        log = tmp_path / "episodes.ndjson"
        log.write_text(kept + '{"episode": 2, "slot": 0}\n{"episode": 2, "sl')
        _cut_episode_log(log, 2)
        assert log.read_text() == kept
        log.write_text(kept + '{"episode": 1, "sl')  # torn by a crash in the middle of a record
        _cut_episode_log(log, 5)
        assert log.read_text() == kept

    def test_a_snapshot_of_the_per_part_replay_layout_is_refused(self, tmp_path, capsys):
        # snapshots written before transitions were stored as critic rows hold one buffer field per part
        common = ["train", "--preset", "desk", "--scheme", "1", "--seeds", "0", "--snapshot-interval", "1",
                  "--out", str(tmp_path)]
        assert main([*common, "--episodes", "1"]) == 0
        run_dir, snapshot = tmp_path / "scheme1_seed0", tmp_path / "scheme1_seed0" / "snapshots"
        (run_dir / "manifest.json").unlink()
        with np.load(snapshot / "fast_buffer.npz") as arrays:
            meta = arrays["buffer_meta"]
        parts = ("uav_obs", "uav_act", "beam_obs", "beam_act", "rewards_uav", "reward_beam", "next_uav_obs",
                 "next_beam_obs", "done")
        np.savez(snapshot / "fast_buffer.npz", buffer_meta=meta, **{f"field_{key}": np.zeros((20, 1)) for key in parts})
        state, metrics = (snapshot / "train_state.json").read_bytes(), (run_dir / "metrics.csv").read_bytes()
        capsys.readouterr()
        assert main([*common, "--episodes", "2", "--resume"]) == 1
        assert f"usage error: snapshot {snapshot} holds fast_buffer fields {list(parts)}" in capsys.readouterr().err
        assert not (run_dir / "manifest.json").exists()  # nothing trained: no run completed, no snapshot written
        assert (snapshot / "train_state.json").read_bytes() == state
        assert (run_dir / "metrics.csv").read_bytes() == metrics


# (section, key, a value runs recorded): settings that were removed because
# nothing set them to a second value; runs and snapshots that record one are refused by name
REMOVED_SETTINGS = [
    ("train", "prioritized_replay", False),
    ("scenario", "pose_reward_mode", "mean"),
    ("scenario", "include_targets_in_collision", False),
    ("scenario", "obs_ref_distance", 28.93),
]


@pytest.mark.parametrize("section, key, value", REMOVED_SETTINGS)
class TestRunsWrittenWithRemovedSettings:
    def test_load_run_refuses_the_manifest(self, trained_dir, tmp_path, capsys, section, key, value):
        run_dir = tmp_path / "scheme1_seed0"
        shutil.copytree(trained_dir.out_dir / "scheme1_seed0", run_dir)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest[section][key] = value
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        message = f"unknown {'train-config' if section == 'train' else section} keys: ['{key}']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_run(run_dir)
        assert main(["eval", "--run", str(run_dir), "--eval-episodes", "1"]) == 1
        assert message in capsys.readouterr().err

    def test_resume_refuses_the_snapshot(self, tmp_path, section, key, value):
        spec = tiny_spec(tmp_path, snapshot_interval=1)
        run = plan_runs(spec)[0]
        harness._execute_run(replace(run, train=replace(run.train, episodes=1)), spec, resume=False)
        (spec.out_dir / run.name / "manifest.json").unlink()
        state_path = spec.out_dir / run.name / "snapshots" / "train_state.json"
        state = json.loads(state_path.read_text())
        state["config"][f"{section}.{key}"] = value
        state_path.write_text(json.dumps(state))
        with pytest.raises(ConfigError, match=re.escape(f"({section}.{key} {value!r} -> None)")):
            cmd_train(spec, resume=True)


class TestSweepCompare:
    def test_tr_sweep_emits_plot_data(self, tmp_path):
        spec = tiny_spec(tmp_path, schemes=(1, 5), sweep_tr=(5, 10))
        cmd_train(spec)
        result = cmd_compare(spec)
        sweep = result["sweep"]
        assert sweep["axis"] == "t_r" and sweep["values"] == [5, 10]
        csv_lines = (spec.out_dir / "sweep_tr.csv").read_text().splitlines()
        assert csv_lines[0] == "t_r,scheme_1,scheme_5"
        assert len(csv_lines) == 3
        # frozen-pose series is constant across the axis by construction
        assert sweep["series"][5][0] == sweep["series"][5][1]
        assert (spec.out_dir / "render_plots.py").exists()

    def test_pmax_sweep_axis(self, tmp_path):
        spec = tiny_spec(tmp_path, sweep_pmax=(0.02, 0.04))
        cmd_train(spec)
        result = cmd_compare(spec)
        assert result["sweep"]["axis"] == "p_max"
        lines = (spec.out_dir / "sweep_pmax.csv").read_text().splitlines()
        assert lines[0] == "p_max,scheme_1"
        assert len(lines) == 3


class TestCompareOfPlannedRuns:
    # (sum_rate, mean_snr) of the two rows in the converged window of every
    # run a T_r sweep of schemes 1 and 5 plans; each run also has an earlier
    # row (9.0, 9.0) outside the window
    TAILS = {
        "scheme1_seed0_tr5": ((1.0, 0.5), (2.0, 0.25)),
        "scheme1_seed1_tr5": ((2.0, 0.5), (3.0, 0.75)),
        "scheme5_seed0_tr5": ((0.5, 0.125), (0.5, 0.125)),
        "scheme5_seed1_tr5": ((1.0, 0.25), (2.0, 0.75)),
        "scheme1_seed0_tr10": ((4.0, 1.0), (5.0, 1.5)),
        "scheme1_seed1_tr10": ((6.0, 2.0), (6.0, 2.0)),
    }

    def test_tr_sweep_tables_match_a_hand_built_expectation(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path, schemes=(1, 5), seeds=(0, 1), sweep_tr=(5, 10), converged_window=2)
        assert [run.name for run in plan_runs(spec)] == list(self.TAILS)
        for name, tail in self.TAILS.items():
            rows = [EpisodeMetrics(k, 0.0, 0.0, 0.0, rate, snr, 0, 0) for k, (rate, snr) in enumerate(((9.0, 9.0), *tail))]
            (spec.out_dir / name).mkdir(parents=True)
            write_metrics_csv(spec.out_dir / name / "metrics.csv", rows)
        reads = []
        monkeypatch.setattr(harness, "read_metrics_csv",
                            lambda path: reads.append(Path(path).parent.name) or read_metrics_csv(path))
        result = cmd_compare(spec)
        assert sorted(reads) == sorted(self.TAILS)  # every metrics.csv read once
        # scheme 1: run means 1.5, 2.5 (t_r 5) and 4.5, 6.0 (t_r 10); scheme 5: 0.5, 1.5 at every t_r
        assert (spec.out_dir / "comparison.csv").read_text() == (
            "scheme,converged_sum_rate,converged_mean_snr,n_seeds\n1,3.5,0.9375,4\n5,1.0,0.3125,2\n"
        )
        assert (spec.out_dir / "sweep_tr.csv").read_text() == "t_r,scheme_1,scheme_5\n5.0,2.0,1.0\n10.0,5.25,1.0\n"
        assert result["sweep"]["series"] == {1: [2.0, 5.25], 5: [1.0, 1.0]}


class TestCli:
    def test_train_and_profile_cli(self, tmp_path, capsys):
        config = {
            "preset": "desk",
            "train": {"episodes": 1, "batch_size": 8, "hidden": [8, 8], "buffer_capacity": 200},
            "schemes": [1],
            "seeds": [0],
            "out_dir": str(tmp_path / "runs"),
            "eval_episodes": 1,
        }
        config_path = tmp_path / "spec.json"
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "scheme1_seed0: trained" in out
        assert main(["profile", "--run", str(tmp_path / "runs" / "scheme1_seed0"), "--calls", "50"]) == 0
        table = capsys.readouterr().out
        assert "uav_0" in table and "sixdma" in table

    def test_usage_error_exit_code(self, capsys):
        assert main(["train", "--config"]) == 1
        assert main(["nonsense"]) == 1

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        assert main(["profile", "--run", str(tmp_path / "missing")]) == 2

    def test_profile_with_zero_calls_is_a_usage_error(self, trained_dir, capsys):
        run_dir = trained_dir.out_dir / "scheme1_seed0"
        assert main(["profile", "--run", str(run_dir), "--calls", "0"]) == 1
        assert "at least one call per agent, got 0" in capsys.readouterr().err

    def test_eval_cli_on_run(self, tmp_path, capsys):
        config = {
            "preset": "desk",
            "train": {"episodes": 1, "batch_size": 8, "hidden": [8, 8], "buffer_capacity": 200},
            "out_dir": str(tmp_path / "runs"),
            "eval_episodes": 1,
        }
        config_path = tmp_path / "spec.json"
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 0
        assert main(["eval", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "sum_rate=" in out
