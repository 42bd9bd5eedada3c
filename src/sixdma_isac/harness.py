"""Experiment manager and command-line interface.

Subcommands: ``train``, ``eval``, ``compare``, ``profile``.  Runs are laid
out one directory per (scheme, seed[, sweep point]) under the output
root, each holding ``manifest.json`` (fully resolved configuration plus a
content hash), ``metrics.csv`` (one row per episode, byte-stable for a
given spec and seed) and a ``checkpoints/`` roster.  ``compare`` reduces
finished runs to per-scheme tables and plot-ready columnar files;
``profile`` measures per-agent inference latency.

Exit codes: 0 success, 1 usage error, 2 runtime error.  The worker-pool
size comes from the ``SIXDMA_ISAC_WORKERS`` environment variable
(default 1; determinism guarantees apply to single-worker runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .env import ScenarioConfig, desk_scenario, benchmark_scenario, scenario_from_dict
from .errors import ConfigError
from .hdrl import (
    METRIC_COLUMNS,
    AgentRoster,
    EpisodeMetrics,
    TrainConfig,
    desk_train_config,
    evaluate,
    profile_latency,
    train,
    train_config_from_dict,
)

WORKERS_ENV_VAR = "SIXDMA_ISAC_WORKERS"

_PRESETS = {
    "benchmark": (benchmark_scenario, TrainConfig),
    "desk": (desk_scenario, desk_train_config),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs: configs, schemes, seeds, sweeps."""

    scenario: ScenarioConfig
    train: TrainConfig
    schemes: tuple[int, ...]
    seeds: tuple[int, ...]
    out_dir: Path
    sweep_pmax: tuple[float, ...] = ()
    sweep_tr: tuple[int, ...] = ()
    eval_episodes: int = 20
    converged_window: int = 20
    episode_logs: bool = False
    snapshot_interval: int | None = None

    def __post_init__(self):
        if not self.schemes or not self.seeds:
            raise ConfigError("at least one scheme and one seed are required")
        for scheme in self.schemes:
            if scheme not in (1, 2, 3, 4, 5):
                raise ConfigError(f"unknown scheme id {scheme}")
        for t_r in self.sweep_tr:
            if t_r < 1 or t_r > self.scenario.num_slots:
                raise ConfigError(f"sweep T_r value {t_r} incompatible with K={self.scenario.num_slots}")
        for p in self.sweep_pmax:
            if p <= 0:
                raise ConfigError("sweep p_max values must be positive")
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def spec_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentSpec:
    data = dict(data)
    preset = data.pop("preset", "benchmark")
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}")
    scenario_factory, train_factory = _PRESETS[preset]
    scenario = scenario_factory(**data.pop("scenario", {}))
    train_cfg = train_config_from_dict({**train_factory().to_dict(), **data.pop("train", {})})
    out_dir = Path(data.pop("out_dir", "runs"))
    if base_dir is not None and not out_dir.is_absolute():
        out_dir = base_dir / out_dir
    known = {
        "schemes": tuple(data.pop("schemes", (1,))),
        "seeds": tuple(data.pop("seeds", (0,))),
        "sweep_pmax": tuple(data.pop("sweep_pmax", ())),
        "sweep_tr": tuple(data.pop("sweep_tr", ())),
        "eval_episodes": int(data.pop("eval_episodes", 20)),
        "converged_window": int(data.pop("converged_window", 20)),
        "episode_logs": bool(data.pop("episode_logs", False)),
        "snapshot_interval": data.pop("snapshot_interval", None),
    }
    if data:
        raise ConfigError(f"unknown experiment keys: {sorted(data)}")
    return ExperimentSpec(scenario=scenario, train=train_cfg, out_dir=out_dir, **known)


def load_spec(path) -> ExperimentSpec:
    path = Path(path)
    return spec_from_dict(json.loads(path.read_text()), base_dir=path.parent)


# ------------------------------------------------------------------ planning
@dataclass(frozen=True)
class RunSpec:
    name: str
    scheme: int
    seed: int
    scenario: ScenarioConfig
    train: TrainConfig


def plan_runs(spec: ExperimentSpec) -> list[RunSpec]:
    """Expand schemes x seeds x sweep axes into concrete runs.

    In a T_r sweep, scheme 5 never re-poses the surface, so it is trained
    once per seed (at the first sweep value) and reused for every axis
    point when comparing.
    """
    runs: list[RunSpec] = []

    def add(scheme, seed, scenario, train_cfg, suffix=""):
        name = f"scheme{scheme}_seed{seed}{suffix}"
        runs.append(RunSpec(name, scheme, seed, scenario, replace(train_cfg, scheme=scheme, seed=seed)))

    if spec.sweep_pmax:
        for p_max in spec.sweep_pmax:
            scenario = scenario_from_dict({**spec.scenario.to_dict(), "p_max": p_max})
            for scheme in spec.schemes:
                for seed in spec.seeds:
                    add(scheme, seed, scenario, spec.train, f"_pmax{p_max:g}")
    elif spec.sweep_tr:
        for index, t_r in enumerate(spec.sweep_tr):
            scenario = scenario_from_dict({**spec.scenario.to_dict(), "pose_update_period": t_r})
            for scheme in spec.schemes:
                if scheme == 5 and index > 0:
                    continue  # pose is frozen: one run serves the whole axis
                for seed in spec.seeds:
                    add(scheme, seed, scenario, spec.train, f"_tr{t_r}")
    else:
        for scheme in spec.schemes:
            for seed in spec.seeds:
                add(scheme, seed, spec.scenario, spec.train)
    return runs


def content_hash(scenario: ScenarioConfig, train_cfg: TrainConfig) -> str:
    canonical = json.dumps({"scenario": scenario.to_dict(), "train": train_cfg.to_dict()}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ------------------------------------------------------------------ metrics io
_COLUMN_TYPES = tuple(get_type_hints(EpisodeMetrics).values())


def write_metrics_csv(path, metrics) -> None:
    """Fixed columns, repr-formatted floats: byte-stable per spec+seed."""
    lines = [",".join(METRIC_COLUMNS)]
    for m in metrics:
        cells = (repr(float(v)) if kind is float else str(int(v)) for kind, v in zip(_COLUMN_TYPES, m.as_row()))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics_csv(path) -> list[EpisodeMetrics]:
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != ",".join(METRIC_COLUMNS):
        raise ValueError(f"unexpected metrics header in {path}")
    rows = (zip(_COLUMN_TYPES, line.split(",")) for line in lines[1:])
    return [EpisodeMetrics(*(kind(cell) for kind, cell in row)) for row in rows]


# ------------------------------------------------------------------ run execution
def _execute_run(payload: dict) -> dict:
    """Train one run into its directory (module-level for process pools)."""
    run_dir = Path(payload["run_dir"])
    scenario = scenario_from_dict(payload["scenario"])
    train_cfg = train_config_from_dict(payload["train"])
    run_dir.mkdir(parents=True, exist_ok=True)
    digest = content_hash(scenario, train_cfg)
    manifest_path = run_dir / "manifest.json"
    if payload["resume"] and manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("status") == "complete":
            if manifest.get("content_hash") != digest:
                raise ConfigError(f"run {payload['name']} is complete under a different config; "
                                  "resume needs the spec it was trained with, or a fresh output directory")
            return {"name": payload["name"], "status": "skipped"}
    resume_from = None
    snapshot_dir = run_dir / "snapshots"
    if payload["resume"] and (snapshot_dir / "train_state.json").exists():
        resume_from = snapshot_dir
    log_stream = None
    if payload["episode_logs"]:
        log_stream = open(run_dir / "episodes.ndjson", "w" if resume_from is None else "a")
    try:
        result = train(
            scenario,
            train_cfg,
            episode_log=log_stream,
            snapshot_dir=snapshot_dir if payload["snapshot_interval"] else None,
            snapshot_interval=payload["snapshot_interval"],
            resume_from=resume_from,
        )
    finally:
        if log_stream is not None:
            log_stream.close()
    write_metrics_csv(run_dir / "metrics.csv", result.metrics)
    result.roster.save(run_dir / "checkpoints")
    manifest = {
        "name": payload["name"],
        "scheme": train_cfg.scheme,
        "seed": train_cfg.seed,
        "scenario": scenario.to_dict(),
        "train": train_cfg.to_dict(),
        "content_hash": digest,
        "episodes": len(result.metrics),
        "status": "complete",
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return {"name": payload["name"], "status": "trained"}


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        count = int(raw)
    except ValueError as err:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from err
    return max(count, 1)


def cmd_train(spec: ExperimentSpec, resume: bool = False) -> list[dict]:
    """Train every planned run; returns one status dict per run."""
    runs = plan_runs(spec)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    payloads = [
        {
            "name": run.name,
            "run_dir": str(spec.out_dir / run.name),
            "scenario": run.scenario.to_dict(),
            "train": run.train.to_dict(),
            "episode_logs": spec.episode_logs,
            "snapshot_interval": spec.snapshot_interval,
            "resume": resume,
        }
        for run in runs
    ]
    workers = worker_count()
    if workers == 1:
        return [_execute_run(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute_run, payloads))


# ------------------------------------------------------------------ evaluation
def load_run(run_dir) -> tuple[dict, ScenarioConfig, TrainConfig, AgentRoster]:
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    scenario = scenario_from_dict(manifest["scenario"])
    train_cfg = train_config_from_dict(manifest["train"])
    roster = AgentRoster.load(run_dir / "checkpoints", scenario, train_cfg)
    return manifest, scenario, train_cfg, roster


def cmd_eval(spec: ExperimentSpec, run_dirs=None) -> list[dict]:
    """Evaluate trained runs; writes ``eval_report.json`` per run."""
    if run_dirs is None:
        run_dirs = [spec.out_dir / run.name for run in plan_runs(spec)]
    reports = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        if not (run_dir / "manifest.json").exists():
            raise FileNotFoundError(f"run {run_dir} has no manifest; train it first")
        _, scenario, _, roster = load_run(run_dir)
        report = evaluate(roster, scenario, episodes=spec.eval_episodes)
        (run_dir / "eval_report.json").write_text(json.dumps(report, indent=2))
        reports.append({"run": run_dir.name, **report["aggregate"]})
    return reports


# ------------------------------------------------------------------ comparison
def converged_sum_rate(metrics: list[EpisodeMetrics], window: int) -> float:
    tail = metrics[-min(window, len(metrics)):]
    return float(np.mean([m.sum_rate for m in tail]))


def converged_mean_snr(metrics: list[EpisodeMetrics], window: int) -> float:
    tail = metrics[-min(window, len(metrics)):]
    return float(np.mean([m.mean_snr for m in tail]))


def _collect_run(out_dir: Path, name: str):
    path = out_dir / name / "metrics.csv"
    if not path.exists():
        return None
    return read_metrics_csv(path)


def cmd_compare(spec: ExperimentSpec) -> dict:
    """Summarize finished runs into tables and plot-ready columns.

    Writes ``comparison.csv`` (per-scheme medians over seeds) and, when a
    sweep axis is active, ``sweep_pmax.csv`` or ``sweep_tr.csv`` with one
    x column and one series column per scheme, plus a matplotlib render
    script.  Missing runs abort with an explicit list.
    """
    runs = plan_runs(spec)
    missing = [run.name for run in runs if _collect_run(spec.out_dir, run.name) is None]
    if missing:
        raise FileNotFoundError(f"missing trained runs: {', '.join(sorted(missing))}")

    window = spec.converged_window
    result: dict = {"schemes": {}}
    table_lines = ["scheme,converged_sum_rate,converged_mean_snr,n_seeds"]
    for scheme in spec.schemes:
        rates, snrs = [], []
        for run in runs:
            if run.scheme != scheme:
                continue
            metrics = _collect_run(spec.out_dir, run.name)
            rates.append(converged_sum_rate(metrics, window))
            snrs.append(converged_mean_snr(metrics, window))
        entry = {
            "converged_sum_rate": float(np.median(rates)),
            "converged_mean_snr": float(np.median(snrs)),
            "n_seeds": len(rates),
        }
        result["schemes"][scheme] = entry
        table_lines.append(
            f"{scheme},{entry['converged_sum_rate']!r},{entry['converged_mean_snr']!r},{entry['n_seeds']}"
        )
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    (spec.out_dir / "comparison.csv").write_text("\n".join(table_lines) + "\n")

    axis = None
    if spec.sweep_pmax:
        axis = ("p_max", list(spec.sweep_pmax), "sweep_pmax.csv")
    elif spec.sweep_tr:
        axis = ("t_r", list(spec.sweep_tr), "sweep_tr.csv")
    if axis is not None:
        axis_name, values, filename = axis
        header = [axis_name] + [f"scheme_{s}" for s in spec.schemes]
        lines = [",".join(header)]
        series: dict[int, list[float]] = {s: [] for s in spec.schemes}
        for index, value in enumerate(values):
            suffix = f"_pmax{value:g}" if axis_name == "p_max" else f"_tr{value}"
            cells = [repr(float(value))]
            for scheme in spec.schemes:
                if axis_name == "t_r" and scheme == 5:
                    # frozen-pose scheme: reuse the single trained run
                    suffix_used = f"_tr{values[0]}"
                else:
                    suffix_used = suffix
                rates = []
                for seed in spec.seeds:
                    metrics = _collect_run(spec.out_dir, f"scheme{scheme}_seed{seed}{suffix_used}")
                    if metrics is None:
                        raise FileNotFoundError(f"missing run scheme{scheme}_seed{seed}{suffix_used}")
                    rates.append(converged_sum_rate(metrics, window))
                median = float(np.median(rates))
                series[scheme].append(median)
                cells.append(repr(median))
            lines.append(",".join(cells))
        (spec.out_dir / filename).write_text("\n".join(lines) + "\n")
        (spec.out_dir / "render_plots.py").write_text(RENDER_SCRIPT)
        result["sweep"] = {"axis": axis_name, "values": values, "series": series}
    return result


RENDER_SCRIPT = '''"""Render plot-data CSVs produced by the compare command.

Run from the output directory; writes one PNG per sweep file found.
Requires matplotlib (not a dependency of the core package).
"""
import csv
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

for name in ("sweep_pmax.csv", "sweep_tr.csv"):
    path = Path(__file__).parent / name
    if not path.exists():
        continue
    with path.open() as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    x = [float(r[0]) for r in data]
    plt.figure(figsize=(6, 4))
    for col, label in enumerate(header[1:], start=1):
        plt.plot(x, [float(r[col]) for r in data], marker="o", label=label)
    plt.xlabel(header[0])
    plt.ylabel("converged sum rate (bits/s/Hz)")
    plt.legend()
    plt.grid(True, alpha=0.4)
    plt.tight_layout()
    out = path.with_suffix(".png")
    plt.savefig(out, dpi=150)
    print(f"wrote {out}")
'''


# ------------------------------------------------------------------ profiling
def cmd_profile(run_dir, calls: int = 10_000, seed: int = 0) -> list[dict]:
    """Measure per-agent forward latency for a trained run."""
    run_dir = Path(run_dir)
    _, _, _, roster = load_run(run_dir)
    rows = profile_latency(roster, calls=calls, seed=seed)
    (run_dir / "profile.json").write_text(json.dumps(rows, indent=2))
    return rows


def format_profile_table(rows) -> str:
    header = f"{'agent':<12}{'avg (ms)':>12}{'max (ms)':>12}{'P99 (ms)':>12}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['agent']:<12}{row['avg_ms']:>12.4f}{row['max_ms']:>12.4f}{row['p99_ms']:>12.4f}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------ CLI
class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def build_parser() -> _Parser:
    parser = _Parser(prog="sixdma-isac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--config", type=Path, help="JSON experiment spec")
        p.add_argument("--preset", choices=sorted(_PRESETS), help="base config preset (default benchmark)")
        p.add_argument("--scheme", type=_int_list, help="comma-separated scheme ids")
        p.add_argument("--seeds", type=_int_list, help="comma-separated seeds")
        p.add_argument("--episodes", type=int, help="training episodes override")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--sweep-pmax", type=_float_list, help="power-budget sweep values (watts)")
        p.add_argument("--sweep-tr", type=_int_list, help="pose-update-period sweep values (slots)")

    p_train = sub.add_parser("train", help="train runs for every scheme/seed/sweep point")
    add_spec_args(p_train)
    p_train.add_argument("--resume", action="store_true", help="skip complete runs, resume partial ones")
    p_train.add_argument("--episode-logs", action="store_true", help="stream per-slot NDJSON records")
    p_train.add_argument("--snapshot-interval", type=int, help="episodes between resumable snapshots")

    p_eval = sub.add_parser("eval", help="evaluate trained runs")
    add_spec_args(p_eval)
    p_eval.add_argument("--run", type=Path, action="append", help="specific run directory (repeatable)")
    p_eval.add_argument("--eval-episodes", type=int, help="rollout episodes per run")

    p_cmp = sub.add_parser("compare", help="summarize runs into tables and plot data")
    add_spec_args(p_cmp)

    p_prof = sub.add_parser("profile", help="per-agent inference latency of a trained run")
    p_prof.add_argument("--run", type=Path, required=True, help="run directory with checkpoints")
    p_prof.add_argument("--calls", type=int, default=10_000, help="forward passes per agent")
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    data: dict = {}
    if args.config is not None:
        data = json.loads(Path(args.config).read_text())
    if getattr(args, "preset", None):
        data["preset"] = args.preset
    if getattr(args, "scheme", None):
        data["schemes"] = list(args.scheme)
    if getattr(args, "seeds", None):
        data["seeds"] = list(args.seeds)
    if getattr(args, "episodes", None):
        data.setdefault("train", {})["episodes"] = args.episodes
    if getattr(args, "out", None):
        data["out_dir"] = str(args.out)
    if getattr(args, "sweep_pmax", None):
        data["sweep_pmax"] = list(args.sweep_pmax)
    if getattr(args, "sweep_tr", None):
        data["sweep_tr"] = list(args.sweep_tr)
    if getattr(args, "episode_logs", False):
        data["episode_logs"] = True
    if getattr(args, "snapshot_interval", None):
        data["snapshot_interval"] = args.snapshot_interval
    if getattr(args, "eval_episodes", None):
        data["eval_episodes"] = args.eval_episodes
    base_dir = Path(args.config).parent if args.config is not None else None
    return spec_from_dict(data, base_dir=base_dir)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        if args.command == "train":
            spec = _spec_from_args(args)
            statuses = cmd_train(spec, resume=args.resume)
            for status in statuses:
                print(f"{status['name']}: {status['status']}")
        elif args.command == "eval":
            spec = _spec_from_args(args)
            reports = cmd_eval(spec, run_dirs=args.run)
            for report in reports:
                print(
                    f"{report['run']}: sum_rate={report['sum_rate']:.4f} "
                    f"mean_snr={report['mean_snr']:.4f} "
                    f"feasible={report['snr_feasible_fraction']:.2%}"
                )
        elif args.command == "compare":
            spec = _spec_from_args(args)
            result = cmd_compare(spec)
            for scheme, entry in result["schemes"].items():
                print(
                    f"scheme {scheme}: sum_rate={entry['converged_sum_rate']:.4f} "
                    f"mean_snr={entry['converged_mean_snr']:.4f} (n={entry['n_seeds']})"
                )
        elif args.command == "profile":
            rows = cmd_profile(args.run, calls=args.calls)
            print(format_profile_table(rows))
        else:  # pragma: no cover - argparse enforces the choices
            raise _UsageError(f"unknown command {args.command}")
    except (ConfigError, _UsageError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure: bad paths, missing runs, ...
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
