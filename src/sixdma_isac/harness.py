"""Experiment manager and command-line interface.

Subcommands: ``train``, ``eval``, ``compare``, ``profile``.  Runs are laid
out one directory per (scheme, seed[, sweep point]) under the output
root, each holding ``manifest.json`` (fully resolved configuration plus a
content hash), ``metrics.csv`` (one row per episode, byte-stable for a
given spec and seed) and a ``checkpoints/`` roster.  ``compare`` reduces
finished runs to per-scheme tables and plot-ready columnar files;
``profile`` measures per-agent inference latency.

A run trains in ``<run>.part/`` and is swapped over ``<run>/`` whole, so
``eval``, ``compare`` and a ``--resume`` skip read only complete runs and
a kill at any point leaves the previous run whole.

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
import traceback
from contextlib import nullcontext
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
    swap_dir,
    train,
    train_config_from_dict,
)

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


def write_whole(path, text: str) -> None:
    """Write ``text`` to ``<path>.tmp`` and rename it over ``path`` (a failed
    write removes it): a crash mid-write leaves the previous file, never a torn one."""
    path = Path(path)
    staged = path.with_name(path.name + ".tmp")
    try:
        staged.write_text(text)
        os.replace(staged, path)
    finally:
        staged.unlink(missing_ok=True)


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
def _execute_run(run: RunSpec, spec: ExperimentSpec, resume: bool) -> dict:
    """Train one run (module-level for process pools).  A runtime error fails this run
    alone: its traceback goes to stderr and its ``.part`` stays for a resume.  A usage
    error stops the command."""
    try:
        return {"name": run.name, "status": _train_run(run, spec, resume)}
    except ConfigError:
        raise
    except Exception as err:
        traceback.print_exc()
        return {"name": run.name, "status": f"failed: {err}"}


def _train_run(run: RunSpec, spec: ExperimentSpec, resume: bool) -> str:
    """Train ``run`` in ``<run>.part/``, written plainly, manifest last, and swap
    it over ``<run>/`` whole.  A resume settles what a cut left, then skips a
    run complete under this spec or continues ``.part`` from its snapshot."""
    run_dir = spec.out_dir / run.name
    part = run_dir.with_name(run.name + ".part")
    digest = content_hash(run.scenario, run.train)
    snapshot_dir = part / "snapshots"
    next_episode = None
    if resume:
        manifest, next_episode = _settle(run_dir, part), snapshot_episode(snapshot_dir)
        if manifest is not None and manifest.get("content_hash") == digest:
            shutil.rmtree(part, ignore_errors=True)
            return "skipped"
        if manifest is not None and next_episode is None:  # no cut retrain of it to continue
            raise ConfigError(f"run {run.name} is complete under a different config; "
                              "resume needs the spec it was trained with, or a fresh output directory")
    if next_episode is None:
        shutil.rmtree(part, ignore_errors=True)
    part.mkdir(parents=True, exist_ok=True)
    log_path = part / "episodes.ndjson"  # appended in place: a fresh .part holds none
    if spec.episode_logs and next_episode is not None:
        _cut_episode_log(log_path, next_episode)
    with (open(log_path, "a") if spec.episode_logs else nullcontext()) as log:
        result = train(run.scenario, run.train, episode_log=log, snapshot_interval=spec.snapshot_interval,
                       snapshot_dir=snapshot_dir if spec.snapshot_interval else None,
                       resume_from=None if next_episode is None else snapshot_dir)
    write_metrics_csv(part / "metrics.csv", result.metrics)
    result.roster.save(part / "checkpoints")
    manifest = {"name": run.name, "scheme": run.train.scheme, "seed": run.train.seed,
                "scenario": run.scenario.to_dict(), "train": run.train.to_dict(), "content_hash": digest,
                "episodes": len(result.metrics), "status": "complete"}
    (part / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    swap_dir(part, run_dir)
    return "trained"


def _settle(run_dir: Path, part: Path) -> dict | None:
    """Put in order what a cut left of a run; its manifest if complete, else None.
    A complete ``.part`` finishes its swap; else, in the gap between the swap's
    renames, ``<run>.old`` is restored.  A ``<run>`` without a complete manifest
    becomes the ``.part``, and a ``<run>.old`` beside a complete one is removed."""
    retired = run_dir.with_name(run_dir.name + ".old")
    if _complete_manifest(part) is not None:
        swap_dir(part, run_dir)
    elif retired.exists() and not run_dir.exists():
        retired.rename(run_dir)
    manifest = _complete_manifest(run_dir)
    if manifest is None and run_dir.exists():
        shutil.rmtree(part, ignore_errors=True)
        run_dir.rename(part)
        staged_log = part / "episodes.ndjson.tmp"  # where an earlier version kept the log of a cut run
        if staged_log.exists():
            os.replace(staged_log, part / "episodes.ndjson")
    shutil.rmtree(retired, ignore_errors=True)
    return manifest


def _complete_manifest(run_dir: Path) -> dict | None:
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (FileNotFoundError, ValueError):  # none, or torn by a kill mid-write
        return None
    return manifest if manifest.get("status") == "complete" else None


def _cut_episode_log(path: Path, next_episode: int) -> None:
    """Keep only the records of episodes before ``next_episode``: a resume
    trains the later ones again and logs them anew.  Records run in episode
    order, so the log is cut at the first later one (or a torn last line)."""
    with open(path, "a+b") as log:  # creates the log when the resumed training kept none
        log.seek(0)
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
    """Train every planned run, each to the end whether or not another fails;
    returns one status dict per run: trained, skipped or ``failed: <error>``."""
    runs = plan_runs(spec)
    workers = worker_count()
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
    roster.read_learner_state()
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
            statuses = cmd_train(_spec_from_args(args), resume=args.resume)
            for status in statuses:
                print(f"{status['name']}: {status['status']}")
            if any(status["status"].startswith("failed") for status in statuses):
                return 2
        elif args.command == "eval":
            for report in cmd_eval(_spec_from_args(args), run_dirs=args.run):
                print(f"{report['run']}: sum_rate={report['sum_rate']:.4f} mean_snr={report['mean_snr']:.4f} "
                      f"feasible={report['snr_feasible_fraction']:.2%}")
        elif args.command == "compare":
            for scheme, entry in cmd_compare(_spec_from_args(args))["schemes"].items():
                print(f"scheme {scheme}: sum_rate={entry['converged_sum_rate']:.4f} "
                      f"mean_snr={entry['converged_mean_snr']:.4f} (n={entry['n_seeds']})")
        else:  # profile: argparse allows no other command
            print(format_profile_table(cmd_profile(args.run, calls=args.calls)))
    except (ConfigError, _UsageError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failure: bad paths, missing runs, ...
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
