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
(a whole number of at least 1, default 1; determinism guarantees apply to
single-worker runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .env import ScenarioConfig, desk_scenario, benchmark_scenario, scenario_from_dict
from .errors import ConfigError, check_fields
from .hdrl import (
    METRIC_COLUMNS,
    AgentRoster,
    EpisodeMetrics,
    TrainConfig,
    desk_train_config,
    evaluate,
    profile_latency,
    snapshot_episode,
    train,
    train_config_from_dict,
)
from .rl import staged_file, write_whole

WORKERS_ENV_VAR = "SIXDMA_ISAC_WORKERS"

_PRESETS = {
    "benchmark": (benchmark_scenario, TrainConfig),
    "desk": (desk_scenario, desk_train_config),
}
# The experiment settings that have a range: (test, what the test asks).
_RANGES = {
    **dict.fromkeys(("schemes", "seeds"), (bool, "not be empty")),
    **dict.fromkeys(("eval_episodes", "converged_window", "snapshot_interval"), (lambda v: v >= 1, "be >= 1")),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs: configs, schemes, seeds, sweeps.

    Its fields are the keys of a JSON spec and the ``dest``s of the CLI
    flags; sequences become tuples and counts ints on construction, which
    also refuses a repeated value and a second sweep axis.  A scheme or
    sweep point is checked by the run configs :func:`plan_runs` builds."""

    scenario: ScenarioConfig
    train: TrainConfig
    schemes: tuple[int, ...] = (1,)
    seeds: tuple[int, ...] = (0,)
    out_dir: Path = Path("runs")
    sweep_pmax: tuple[float, ...] = ()
    sweep_tr: tuple[int, ...] = ()
    eval_episodes: int = 20
    converged_window: int = 20
    episode_logs: bool = False
    snapshot_interval: int | None = None

    def __post_init__(self):
        check_fields(self, _RANGES)
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        for name in ("schemes", "seeds", "sweep_pmax", "sweep_tr"):  # a repeat would plan the same run twice
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name} repeats the value {repeated[0]}")
        if self.sweep_pmax and self.sweep_tr:  # plan_runs sweeps one axis
            raise ConfigError("sweep_tr cannot be given beside a power sweep; sweep one axis per experiment")
        plan_runs(self)


def spec_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentSpec:
    """A spec from JSON-style data: ``preset`` plus :class:`ExperimentSpec`
    fields, where ``scenario`` and ``train`` hold overrides of the preset."""
    data = dict(data)
    preset = data.pop("preset", "benchmark")
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}")
    unknown = set(data) - {f.name for f in fields(ExperimentSpec)}
    if unknown:
        raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")
    scenario_factory, train_factory = _PRESETS[preset]
    data["scenario"] = scenario_factory(**data.get("scenario", {}))
    data["train"] = train_config_from_dict({**train_factory().to_dict(), **data.get("train", {})})
    out_dir = Path(data.get("out_dir", "runs"))
    data["out_dir"] = base_dir / out_dir if base_dir is not None and not out_dir.is_absolute() else out_dir
    return ExperimentSpec(**data)


# ------------------------------------------------------------------ planning
@dataclass(frozen=True)
class RunSpec:
    name: str
    scheme: int
    seed: int
    scenario: ScenarioConfig
    train: TrainConfig
    point: float | int | None = None  # sweep-axis value; None without a sweep


def plan_runs(spec: ExperimentSpec) -> list[RunSpec]:
    """Expand schemes x seeds x sweep axis into concrete runs, point by point.

    The only place that names runs.  In a T_r sweep, scheme 5 never
    re-poses the surface, so it is trained once per seed (at the first
    sweep value) and that run serves every axis point when comparing.
    """
    if spec.sweep_pmax:
        key, points, suffix = "p_max", spec.sweep_pmax, "_pmax{:g}"
    elif spec.sweep_tr:
        key, points, suffix = "pose_update_period", spec.sweep_tr, "_tr{}"
    else:
        key, points, suffix = None, (None,), ""
    runs: list[RunSpec] = []
    for index, point in enumerate(points):
        scenario = spec.scenario if key is None else scenario_from_dict({**spec.scenario.to_dict(), key: point})
        for scheme in spec.schemes:
            if scheme == 5 and key == "pose_update_period" and index > 0:
                continue  # pose is frozen: one run serves the whole axis
            for seed in spec.seeds:
                name = f"scheme{scheme}_seed{seed}" + suffix.format(point)
                runs.append(RunSpec(name, scheme, seed, scenario, replace(spec.train, scheme=scheme, seed=seed), point))
    return runs


def content_hash(scenario: ScenarioConfig, train_cfg: TrainConfig) -> str:
    canonical = json.dumps({"scenario": scenario.to_dict(), "train": train_cfg.to_dict()}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ------------------------------------------------------------------ file io
_COLUMN_TYPES = tuple(get_type_hints(EpisodeMetrics).values())


def write_metrics_csv(path, metrics) -> None:
    """Fixed columns, repr-formatted floats: byte-stable per spec+seed."""
    lines = [",".join(METRIC_COLUMNS)]
    for m in metrics:
        cells = (repr(float(v)) if kind is float else str(int(v)) for kind, v in zip(_COLUMN_TYPES, m.as_row()))
        lines.append(",".join(cells))
    write_whole(path, "\n".join(lines) + "\n")


def read_metrics_csv(path) -> list[EpisodeMetrics]:
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != ",".join(METRIC_COLUMNS):
        raise ValueError(f"unexpected metrics header in {path}")
    rows = (zip(_COLUMN_TYPES, line.split(",")) for line in lines[1:])
    return [EpisodeMetrics(*(kind(cell) for kind, cell in row)) for row in rows]


# ------------------------------------------------------------------ run execution
def _execute_run(run: RunSpec, spec: ExperimentSpec, resume: bool) -> dict:
    """Train one run into its directory (module-level for process pools)."""
    run_dir = spec.out_dir / run.name
    run_dir.mkdir(parents=True, exist_ok=True)
    digest = content_hash(run.scenario, run.train)
    manifest_path = run_dir / "manifest.json"
    if resume and manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("status") == "complete":
            if manifest.get("content_hash") != digest:
                raise ConfigError(f"run {run.name} is complete under a different config; "
                                  "resume needs the spec it was trained with, or a fresh output directory")
            return {"name": run.name, "status": "skipped"}
    snapshot_dir = run_dir / "snapshots"
    next_episode = snapshot_episode(snapshot_dir) if resume else None
    resume_from = None if next_episode is None else snapshot_dir
    if resume_from is None:  # an earlier training's snapshot would resume over this training's log
        shutil.rmtree(snapshot_dir, ignore_errors=True)
    # The new manifest and log are staged and renamed into place last.  The
    # old manifest is retired before metrics.csv, the log or a checkpoint
    # file is replaced, so a run cut in between has no manifest: eval
    # refuses it, --resume resumes or retrains it.
    log_path = run_dir / "episodes.ndjson"
    with (staged_file(manifest_path) as staged_manifest,
          _staged_log(log_path, next_episode, snapshot_dir) if spec.episode_logs else nullcontext() as log_stream):
        result = train(
            run.scenario,
            run.train,
            episode_log=log_stream,
            snapshot_dir=snapshot_dir if spec.snapshot_interval else None,
            snapshot_interval=spec.snapshot_interval,
            resume_from=resume_from,
        )
        manifest = {
            "name": run.name,
            "scheme": run.train.scheme,
            "seed": run.train.seed,
            "scenario": run.scenario.to_dict(),
            "train": run.train.to_dict(),
            "content_hash": digest,
            "episodes": len(result.metrics),
            "status": "complete",
        }
        staged_manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        manifest_path.unlink(missing_ok=True)
        write_metrics_csv(run_dir / "metrics.csv", result.metrics)
        result.roster.save(run_dir / "checkpoints")
    return {"name": run.name, "status": "trained"}


@contextmanager
def _staged_log(path: Path, resume_at: int | None, snapshot_dir: Path):
    """Yield the stream of a run's episode log, written in ``<path>.tmp`` and
    renamed over ``path`` when the block ends.  A resume from the snapshot of
    episode ``resume_at`` cuts the staged log (or, without one, the log) at
    that episode and appends.  A block that fails keeps the staged log while
    a snapshot can resume it, and removes it otherwise."""
    staged = path.with_name(path.name + ".tmp")
    if resume_at is not None:
        if path.exists() and not staged.exists():  # in place: the run was cut before its manifest
            os.replace(path, staged)
        if staged.exists():
            _cut_episode_log(staged, resume_at)
    try:
        with open(staged, "w" if resume_at is None else "a") as stream:
            yield stream
        os.replace(staged, path)
    except BaseException:
        if snapshot_episode(snapshot_dir) is None:
            staged.unlink(missing_ok=True)
        raise


def _cut_episode_log(path: Path, next_episode: int) -> None:
    """Keep only the records of episodes before ``next_episode``: a resume
    trains the later ones again and logs them anew.  Records run in episode
    order, so the log is cut at the first later one (or a torn last line)."""
    with open(path, "r+b") as log:
        end = 0
        for line in log:
            if not line.endswith(b"\n") or json.loads(line)["episode"] >= next_episode:
                break
            end += len(line)
        log.truncate(end)


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        count = int(raw)
    except ValueError as err:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from err
    if count < 1:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be at least 1, got {count}")
    return count


def cmd_train(spec: ExperimentSpec, resume: bool = False) -> list[dict]:
    """Train every planned run; returns one status dict per run."""
    runs = plan_runs(spec)
    workers = worker_count()
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    if workers == 1:
        return [_execute_run(run, spec, resume) for run in runs]
    # imported here: the pool module adds about 15 ms to every ``import sixdma_isac``
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute_run, runs, repeat(spec), repeat(resume)))


# ------------------------------------------------------------------ evaluation
def _load_actors(run_dir: Path) -> tuple[dict, ScenarioConfig, TrainConfig, AgentRoster]:
    """A trained run's manifest, scenario, training config and roster, with
    the actors alone read: all that ``eval`` and ``profile`` need."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    scenario, train_cfg = scenario_from_dict(manifest["scenario"]), train_config_from_dict(manifest["train"])
    return manifest, scenario, train_cfg, AgentRoster.load(run_dir / "checkpoints", scenario, train_cfg)


def load_run(run_dir) -> tuple[dict, ScenarioConfig, TrainConfig, AgentRoster]:
    """:func:`_load_actors` with every agent's learner state read: the whole run."""
    manifest, scenario, train_cfg, roster = _load_actors(Path(run_dir))
    for _, agent in roster.all_agents():
        agent.read_learner_state()
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
        _, scenario, _, roster = _load_actors(run_dir)
        report = evaluate(roster, scenario, episodes=spec.eval_episodes)
        write_whole(run_dir / "eval_report.json", json.dumps(report, indent=2))
        reports.append({"run": run_dir.name, **report["aggregate"]})
    return reports


# ------------------------------------------------------------------ comparison
def converged_scores(metrics: list[EpisodeMetrics], window: int) -> tuple[float, float]:
    """Mean sum rate and mean sensing SNR over the last ``window`` episodes."""
    tail = metrics[-min(window, len(metrics)):]
    return float(np.mean([m.sum_rate for m in tail])), float(np.mean([m.mean_snr for m in tail]))


def cmd_compare(spec: ExperimentSpec) -> dict:
    """Summarize finished runs into tables and plot-ready columns.

    Writes ``comparison.csv`` (per-scheme medians over the scheme's runs)
    and, when a sweep axis is active, ``sweep_pmax.csv`` or ``sweep_tr.csv``
    with one x column and one series column per scheme (medians over seeds;
    a scheme planned at one point serves every point), plus a matplotlib
    render script.  Missing runs abort with an explicit list.
    """
    runs = plan_runs(spec)
    missing = [run.name for run in runs if not (spec.out_dir / run.name / "metrics.csv").exists()]
    if missing:
        raise FileNotFoundError(f"missing trained runs: {', '.join(sorted(missing))}")

    window = spec.converged_window
    # (rate, snr) of every run, by scheme and by sweep point
    scores: dict[int, dict] = {scheme: {} for scheme in spec.schemes}
    for run in runs:
        metrics = read_metrics_csv(spec.out_dir / run.name / "metrics.csv")
        scores[run.scheme].setdefault(run.point, []).append(converged_scores(metrics, window))

    result: dict = {"schemes": {}}
    table_lines = ["scheme,converged_sum_rate,converged_mean_snr,n_seeds"]
    for scheme, by_point in scores.items():
        rates, snrs = zip(*(score for point_scores in by_point.values() for score in point_scores))
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
    write_whole(spec.out_dir / "comparison.csv", "\n".join(table_lines) + "\n")

    if spec.sweep_pmax or spec.sweep_tr:
        axis_name, filename = ("p_max", "sweep_pmax.csv") if spec.sweep_pmax else ("t_r", "sweep_tr.csv")
        values = list(spec.sweep_pmax or spec.sweep_tr)
        lines = [",".join([axis_name] + [f"scheme_{s}" for s in spec.schemes])]
        series: dict[int, list[float]] = {s: [] for s in spec.schemes}
        for value in values:
            for scheme, by_point in scores.items():
                point_scores = by_point[value] if len(by_point) > 1 else next(iter(by_point.values()))
                series[scheme].append(float(np.median([rate for rate, _ in point_scores])))
            lines.append(",".join([repr(float(value))] + [repr(series[s][-1]) for s in spec.schemes]))
        write_whole(spec.out_dir / filename, "\n".join(lines) + "\n")
        write_whole(spec.out_dir / "render_plots.py", RENDER_SCRIPT)
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
def cmd_profile(run_dir, calls: int = 10_000) -> list[dict]:
    """Measure per-agent forward latency for a trained run."""
    run_dir = Path(run_dir)
    _, _, _, roster = _load_actors(run_dir)
    rows = profile_latency(roster, calls=calls)
    write_whole(run_dir / "profile.json", json.dumps(rows, indent=2))
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


def _list_of(kind, what: str):
    """An argparse type reading comma-separated ``kind`` values into a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(x) for x in text.split(",") if x.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None

    return parse


_int_list = _list_of(int, "whole numbers")
_float_list = _list_of(float, "numbers")


def build_parser() -> _Parser:
    parser = _Parser(prog="sixdma-isac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--config", type=Path, help="JSON experiment spec")
        p.add_argument("--preset", choices=sorted(_PRESETS), help="base config preset (default benchmark)")
        p.add_argument("--scheme", dest="schemes", type=_int_list, help="comma-separated scheme ids")
        p.add_argument("--seeds", type=_int_list, help="comma-separated seeds")
        p.add_argument("--episodes", type=int, help="training episodes override")
        p.add_argument("--out", dest="out_dir", type=Path, help="output directory")
        p.add_argument("--sweep-pmax", type=_float_list, help="power-budget sweep values (watts)")
        p.add_argument("--sweep-tr", type=_int_list, help="pose-update-period sweep values (slots)")

    p_train = sub.add_parser("train", help="train runs for every scheme/seed/sweep point")
    add_spec_args(p_train)
    p_train.add_argument("--resume", action="store_true", help="skip complete runs, resume partial ones")
    p_train.add_argument("--episode-logs", action="store_true", default=None, help="stream per-slot NDJSON records")
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


# Flags whose dest is a key of the JSON spec; a given flag (default None when
# absent) overrides --config, whatever its value.
_SPEC_FLAGS = ("preset", "schemes", "seeds", "out_dir", "sweep_pmax", "sweep_tr", "episode_logs",
               "snapshot_interval", "eval_episodes")


def _spec_from_args(args) -> ExperimentSpec:
    data = json.loads(args.config.read_text()) if args.config is not None else {}
    for key in _SPEC_FLAGS:
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)
    if args.episodes is not None:
        data.setdefault("train", {})["episodes"] = args.episodes
    return spec_from_dict(data, base_dir=args.config.parent if args.config is not None else None)


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
