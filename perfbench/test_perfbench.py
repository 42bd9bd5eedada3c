"""Tests of the benchmark itself: failure accounting, references, smoke run.

Run with ``python -m pytest perfbench``.  Sizes are shrunk through the
workloads' ``sizes`` argument so the whole file takes seconds; no test
depends on a wall-clock threshold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for path in (str(SRC), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from sixdma_isac import hdrl, isac  # noqa: E402

TINY = {
    "desk_pipeline": {"episodes": 4, "eval_episodes": 1},
    "benchmark_train": {"episodes": 1, "train": {"batch_size": 16}},
    "benchmark_eval": {"episodes": 1},
}


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(tmp_path, name, trace=False, probes=1):
    return workloads.run_workload(name, seed=7, seconds=0.0, trace=trace, workdir=tmp_path / name,
                                  sizes=TINY[name], setup_probes=probes)


def test_nan_roster_is_counted_as_failed_slots(tmp_path, monkeypatch):
    build = workloads.BenchmarkEval.build

    def poisoned(self):
        build(self)
        self.roster.uav_agents[0].actor.weights[0][0, 0] = np.nan
        self.roster.save(self.roster_dir)

    monkeypatch.setattr(workloads.BenchmarkEval, "build", poisoned)
    result = _run(tmp_path, "benchmark_eval", probes=0)
    assert result.failed > 0
    assert result.details["error_rate"] == result.failed / result.attempted > 0
    assert any("non-finite" in e for e in result.errors)


@pytest.mark.parametrize("relative_error, fails", [(1e-6, True), (1e-11, False)])
def test_physics_off_the_reference_counts_as_failed(tmp_path, monkeypatch, relative_error, fails):
    """Sensing SNR scaled by (1 + e): failed beyond RTOL = 1e-9, fine within."""
    assert reference.RTOL == 1e-9
    original = isac.sensing_snr
    monkeypatch.setattr(isac, "sensing_snr", lambda *a: original(*a) * (1.0 + relative_error))
    result = _run(tmp_path, "benchmark_eval", probes=0)
    if fails:
        assert result.failed == result.attempted
    else:
        assert result.failed == 0 and not result.errors


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_reports_every_named_metric(tmp_path, name):
    spec = _spec()
    assert name in {w["name"] for w in spec["workloads"]}
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result = _run(tmp_path, name, trace=trace)
        assert result.failed == 0 and not result.errors, result.errors
        assert list(result.metrics) == [m["name"] for m in listed]
        for m in listed:
            value, unit = result.metrics[m["name"]]
            assert unit == m["unit"] and value is not None and np.isfinite(value), m["name"]
        if not trace:
            assert all(value > 0 for value, _ in result.metrics.values())


def test_cost_model_matches_and_fails_loudly(monkeypatch):
    scenario, config = workloads.pkg.benchmark_scenario(), hdrl.TrainConfig()
    roster = hdrl.AgentRoster(scenario, config)
    flops = reference.check_cost_model(roster, scenario, config)
    assert flops == pytest.approx(2.963e9, rel=1e-3)  # README: about 3.0 GFLOP per round
    count = workloads.pkg.Mlp.param_count
    monkeypatch.setattr(workloads.pkg.Mlp, "param_count", lambda self: count(self) + 1)
    with pytest.raises(reference.CostModelError, match="disagree"):
        reference.check_cost_model(roster, scenario, config)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile(1500) == 99.0
    assert workloads.tail_percentile(10_000) == 99.9
    assert workloads.tail_percentile(50) == 50.0


def test_compare_refuses_different_fingerprints(tmp_path, capsys):
    for k, nproc in enumerate((2, 4)):
        record = {"workload": "benchmark_eval", "trace": 0, "failed": 0, "details": {},
                  "fingerprint": {"nproc": nproc}, "metrics": {}}
        (tmp_path / f"r{k}.json").write_text(json.dumps(record))
    with pytest.raises(SystemExit) as stop:
        compare.main([str(tmp_path)])
    assert stop.value.code == 3
    assert "refusing" in capsys.readouterr().err
