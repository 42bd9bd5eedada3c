"""The three workloads, their correctness checks and the measurement loop.

A workload run repeats one fixed unit of work (a *rep*) until the time
budget is spent.  Every rep does the same work, so per-rep figures and
per-rep span counts compare across runs and commits.  Each rep is checked
as soon as it ends, with every probe removed, and its outputs are then
dropped, so memory does not grow with the number of reps.  Seeds for the
program come from the workload seed through :func:`derive_seed`; the
program only ever sees the derived values.

The package must already be importable as ``sixdma_isac`` (``run.py``
puts the checkout's ``src/`` first on the path).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sixdma_isac as pkg
from sixdma_isac import harness, hdrl

import reference
import tracer

RUN_SCRIPT = Path(__file__).resolve().with_name("run.py")
SETUP_PROBES = 5
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
# calibration_ms() on the reference host.  The 2-vCPU Xeon VM the benchmark
# was written on read 0.9-1.7 ms as its speed drifted.
CALIBRATION_REF_MS = 1.0


def derive_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _finite_rows(metrics) -> bool:
    return all(math.isfinite(float(v)) for m in metrics for v in m.as_row())


def _roster_finite(roster) -> bool:
    return all(np.all(np.isfinite(p)) for _, agent in roster.all_agents()
               for net in (agent.actor, agent.critic1, agent.critic2) for p in net.parameters())


@dataclass
class Rep:
    """Timing marks and outputs of one unit of work."""

    k: int
    t_start: float
    t_end: float = 0.0
    output: object = None
    marks: dict = field(default_factory=dict)
    error: str | None = None
    slot_lo: int = 0
    slot_hi: int = 0
    decision_lo: int = 0
    decision_hi: int = 0
    failed: int = 0


class Workload:
    """One unit of work, repeated; subclasses set the work and the checks."""

    name = ""
    planned_slots = 0
    # Scale wall_s and ms_per_slot to a reference host speed read by
    # calibration_ms() after every rep (README "Run-to-run noise").
    host_normalized = False

    def __init__(self, seed: int, workdir: Path, sizes: dict | None = None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.sizes = dict(sizes or {})
        self.info: dict = {}
        self.extra_slots = 0  # reference-rollout slots simulated by checks
        self.extra_failed = 0

    def build(self) -> None:
        """Make the run's inputs from the seed, once, before set-up is timed
        (the seeded roster on disk that evaluation loads)."""

    def verify(self) -> None:
        """Run-level checks before the reps (reference rollouts, cost model)."""

    def run(self, rep: Rep) -> None:
        """Do one unit of work, filling ``rep.t_end``, outputs and marks."""
        raise NotImplementedError

    def phase(self, rep: Rep, starts) -> tuple[int, int, float]:
        """Measured phase of a rep as (first slot index, end index, end time)."""
        return rep.slot_lo, rep.slot_hi, rep.t_end

    def check(self, rep: Rep, first: Rep) -> int:
        """Failed slots of a finished rep; ``first`` is the run's first good rep."""
        raise NotImplementedError

    def layer_extras(self, reps: list[Rep]) -> dict:
        """Analytic update FLOPs and checkpoint bytes per rep."""
        return {"update_flops_per_rep": 0.0, "update_rounds_per_rep": 0,
                "save_bytes": statistics.mean(b for r in reps for b in r.marks.get("save_bytes", [0]))}

    def _reference(self, roster, scenario, seed: int) -> dict:
        ref = reference.reference_episode(pkg, roster, scenario, seed)
        self.extra_slots += ref["slots"]
        self.extra_failed += ref["bad_slots"]
        return ref


class DeskPipeline(Workload):
    """``harness.main`` train -> eval -> compare on the desk preset."""

    name = "desk_pipeline"

    def __init__(self, seed, workdir, sizes=None):
        super().__init__(seed, workdir, sizes)
        self.episodes = self.sizes.get("episodes", 20)
        self.eval_episodes = self.sizes.get("eval_episodes", 20)
        self.schemes = (1, 2)
        self.train_seed = derive_seed(seed, "train")
        self.scenario = pkg.desk_scenario()
        self.planned_slots = len(self.schemes) * (self.episodes + self.eval_episodes) * self.scenario.num_slots

    def _out(self, rep: Rep) -> Path:
        return self.workdir / f"rep{rep.k}"

    def run(self, rep):
        common = ["--preset", "desk", "--scheme", ",".join(map(str, self.schemes)),
                  "--seeds", str(self.train_seed), "--out", str(self._out(rep))]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = [harness.main(["train", *common, "--episodes", str(self.episodes)])]
            rep.marks["t_train"] = time.perf_counter()
            codes.append(harness.main(["eval", *common, "--eval-episodes", str(self.eval_episodes)]))
            codes.append(harness.main(["compare", *common]))
        rep.t_end = time.perf_counter()
        if codes != [0, 0, 0]:
            rep.error = f"exit codes {codes}: {log.getvalue().strip()}"

    def phase(self, rep, starts):
        # ms_per_slot is the training command's: first slot to its return.
        hi = bisect.bisect_left(starts, rep.marks["t_train"], rep.slot_lo, rep.slot_hi)
        return rep.slot_lo, hi, rep.marks["t_train"]

    def check(self, rep, first):
        slots = self.scenario.num_slots
        failed, digests, aggregates, saves = 0, {}, {}, []
        flops = rounds = 0.0
        for scheme in self.schemes:
            run_dir = self._out(rep) / f"scheme{scheme}_seed{self.train_seed}"
            metrics = harness.read_metrics_csv(run_dir / "metrics.csv")
            report = json.loads((run_dir / "eval_report.json").read_text())
            digests[scheme] = _sha256(run_dir / "metrics.csv")
            aggregates[scheme] = report["aggregate"]
            saves.append(_dir_bytes(run_dir / "checkpoints"))
            if len(metrics) != self.episodes or not _finite_rows(metrics):
                failed += self.episodes * slots
            _, scenario, config, roster = harness.load_run(run_dir)
            ref = self._reference(roster, scenario, report["seeds"][0])
            if len(report["rows"]) != self.eval_episodes or not reference.episode_matches(report["rows"][0], ref):
                failed += self.eval_episodes * slots
            per_run = self.episodes * slots - (config.batch_size - 1)
            flops += reference.update_round_flops(roster, config.batch_size, config.policy_delay) * per_run
            rounds += per_run
        if len((self._out(rep) / "comparison.csv").read_text().splitlines()) != 1 + len(self.schemes):
            failed = self.planned_slots
        rep.marks.update(digests=digests, aggregates=aggregates, save_bytes=saves, flops=flops, rounds=rounds)
        # metrics.csv is byte-stable for one spec and seed: every rep must
        # reproduce the first one exactly.
        if digests != first.marks["digests"] or aggregates != first.marks["aggregates"]:
            failed = self.planned_slots
        self.info = {"metrics_csv_sha256": digests, "eval_aggregate": aggregates, "train_seed": self.train_seed}
        shutil.rmtree(self._out(rep), ignore_errors=True)
        return min(failed, self.planned_slots)

    def layer_extras(self, reps):
        extras = super().layer_extras(reps)
        extras.update(update_flops_per_rep=reps[0].marks["flops"], update_rounds_per_rep=reps[0].marks["rounds"])
        return extras


class BenchmarkTrain(Workload):
    """``hdrl.train`` on the benchmark preset, scheme 1, paper hyper-parameters."""

    name = "benchmark_train"
    host_normalized = True

    def __init__(self, seed, workdir, sizes=None):
        super().__init__(seed, workdir, sizes)
        self.scenario = pkg.benchmark_scenario()
        self.config = hdrl.TrainConfig(episodes=self.sizes.get("episodes", 5), scheme=1,
                                       seed=derive_seed(seed, "train"), **self.sizes.get("train", {}))
        self.planned_slots = self.config.episodes * self.scenario.num_slots
        if self.planned_slots <= self.config.batch_size:
            raise ValueError("a rep must run past the replay warm-up (batch_size slots)")

    def verify(self):
        roster = hdrl.AgentRoster(self.scenario, self.config)
        self.flops = reference.check_cost_model(roster, self.scenario, self.config)

    def run(self, rep):
        rep.output = hdrl.train(self.scenario, self.config)
        rep.t_end = time.perf_counter()

    def phase(self, rep, starts):
        # Updates start in the slot whose push brings the replay buffer to
        # batch_size transitions.
        return rep.slot_lo + self.config.batch_size - 1, rep.slot_hi, rep.t_end

    def check(self, rep, first):
        result = rep.output
        rows = [m.as_row() for m in result.metrics]
        rep.marks["rows"] = rows
        if (len(rows) != self.config.episodes or result.fast_transitions != self.planned_slots
                or not _finite_rows(result.metrics) or not _roster_finite(result.roster)):
            return self.planned_slots
        # Training is deterministic per seed: every rep must reproduce the first.
        if rows != first.marks["rows"]:
            return self.planned_slots
        rates = np.asarray(rep.marks["sum_rates"]).reshape(self.config.episodes, -1)
        failed = sum(self.scenario.num_slots for m, row in zip(result.metrics, rates)
                     if not reference.close(m.sum_rate, row.mean(), reference.RATE_ATOL))
        ref = self._reference(result.roster, self.scenario, 0)
        csv = self.workdir / "metrics.csv"
        harness.write_metrics_csv(csv, result.metrics)
        self.info = {"metrics_csv_sha256": _sha256(csv), "train_seed": self.config.seed,
                     "reference_eval": {"sum_rate": ref["sum_rate"], "mean_snr": ref["mean_snr"]}}
        return failed

    def layer_extras(self, reps):
        extras = super().layer_extras(reps)
        rounds = self.planned_slots - (self.config.batch_size - 1)
        extras.update(update_flops_per_rep=self.flops * rounds, update_rounds_per_rep=rounds)
        return extras


class BenchmarkEval(Workload):
    """``hdrl.evaluate`` of a seeded benchmark roster, saved and loaded back."""

    name = "benchmark_eval"

    def __init__(self, seed, workdir, sizes=None):
        super().__init__(seed, workdir, sizes)
        self.scenario = pkg.benchmark_scenario()
        self.config = hdrl.TrainConfig(seed=derive_seed(seed, "roster"))
        episodes = self.sizes.get("episodes", 20)
        self.eval_seeds = [derive_seed(seed, f"eval{i}") for i in range(episodes)]
        self.planned_slots = episodes * self.scenario.num_slots
        self.references: dict[int, dict] = {}

    @property
    def roster_dir(self) -> Path:
        return self.workdir / "roster"

    def build(self):
        self.roster = hdrl.AgentRoster(self.scenario, self.config)
        self.roster.save(self.roster_dir)
        self.save_bytes = _dir_bytes(self.roster_dir)

    def verify(self):
        # One reference rollout per distinct seed, on the in-memory roster:
        # evaluate() runs on the saved-and-loaded copy, so a lossy
        # checkpoint shows up as a mismatch too.
        for seed in dict.fromkeys(self.eval_seeds):
            try:
                self.references[seed] = self._reference(self.roster, self.scenario, seed)
            except Exception as err:  # a broken roster fails every slot of the rollout
                self.extra_slots += self.scenario.num_slots
                self.extra_failed += self.scenario.num_slots
                self.info.setdefault("reference_errors", []).append(repr(err))

    def run(self, rep):
        loaded = hdrl.AgentRoster.load(self.roster_dir, self.scenario, self.config)
        rep.output = hdrl.evaluate(loaded, self.scenario, episodes=len(self.eval_seeds), seeds=self.eval_seeds)
        rep.t_end = time.perf_counter()

    def check(self, rep, first):
        report = rep.output
        if len(report["rows"]) != len(self.eval_seeds):
            return self.planned_slots
        failed = 0
        for row, seed in zip(report["rows"], self.eval_seeds):
            ref = self.references.get(seed)
            if ref is None or not reference.episode_matches(row, ref):
                failed += self.scenario.num_slots
        self.info = {"eval_aggregate": report["aggregate"], "roster_seed": self.config.seed,
                     "distinct_eval_seeds": len(set(self.eval_seeds))}
        return failed

    def layer_extras(self, reps):
        extras = super().layer_extras(reps)
        extras["save_bytes"] = self.save_bytes  # the one save, in build()
        return extras


WORKLOADS = {cls.name: cls for cls in (DeskPipeline, BenchmarkTrain, BenchmarkEval)}


# ------------------------------------------------------------------ set-up probe
class _FirstSlot(BaseException):
    """Raised at the first simulated slot to end a set-up probe.

    A BaseException so that ``harness.main``'s runtime-error handler does
    not swallow it.
    """


def probe_first_slot(name: str, seed: int, workdir: Path) -> float:
    """Run one rep up to its first slot on the inputs in ``workdir``; return that time.

    The rep's own outputs go to ``rep-1`` there (the timed reps count from 0).
    """
    workload = WORKLOADS[name](seed, workdir)
    patcher = tracer.Patcher()

    def stop(fn):
        def step_slot(env, *args, **kwargs):
            raise _FirstSlot(time.perf_counter())

        return step_slot

    patcher.wrap(pkg.env.IsacEnv, "step_slot", stop)
    try:
        workload.run(Rep(-1, time.perf_counter()))
    except _FirstSlot as first:
        return first.args[0]
    finally:
        patcher.restore()
    raise RuntimeError(f"{name} finished without simulating a slot")


def measure_setup(name: str, seed: int, workdir: Path, probes: int) -> list[float]:
    """Process start to first slot, once per fresh process.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    child's first-slot reading and the parent's spawn time compare.
    """
    times = []
    for k in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN_SCRIPT), "--probe", name, "--seed", str(seed),
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("first_slot "):
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        times.append(float(lines[-1].split()[1]) - t0)
        shutil.rmtree(workdir / "rep-1", ignore_errors=True)
    return times


# ------------------------------------------------------------------ measurement
def tail_percentile(samples_in_one_rep: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it in one rep.

    Fixed by one rep's (deterministic) call count, so the choice does not
    move with the number of reps a faster or slower commit fits in.
    """
    chosen = 50.0
    for q in TAIL_LADDER:
        if round(samples_in_one_rep * (100.0 - q) / 100.0, 6) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    errors: list[str]
    metrics: dict  # name -> (value, unit)
    details: dict
    tracer: tracer.Tracer | None = None


class _Runner:
    """Runs, checks and times reps with the installed probes."""

    def __init__(self, workload: Workload, probes: list):
        self.workload = workload
        self.rec = probes[0]
        self.probes = probes
        self.reps: list[Rep] = []
        self.errors: list[str] = []

    @contextlib.contextmanager
    def _suspended(self):
        for probe in reversed(self.probes):
            probe.restore()
        try:
            yield
        finally:
            for probe in self.probes:
                probe.install()

    @property
    def failed(self) -> bool:
        return any(r.error is not None for r in self.reps)

    def run(self, seconds: float, at_least: int) -> None:
        """Reps until ``seconds`` have passed and ``at_least`` reps exist.

        Stops at the first rep that raises: later reps would only repeat it.
        """
        t_begin = time.perf_counter()
        while not self.failed and (len(self.reps) < at_least or time.perf_counter() - t_begin < seconds):
            slot_lo, decision_lo = self.rec.mark()
            rep = Rep(len(self.reps), time.perf_counter(), slot_lo=slot_lo, decision_lo=decision_lo)
            try:
                self.workload.run(rep)
            except Exception as err:  # the rep is cut short: all its slots fail
                rep.error = repr(err)
                rep.t_end = time.perf_counter()
            rep.slot_hi, rep.decision_hi = self.rec.mark()
            rep.marks["sum_rates"] = self.rec.sum_rates[slot_lo:rep.slot_hi]
            self.reps.append(rep)
            with self._suspended():
                self._check(rep)

    def _check(self, rep: Rep) -> None:
        if rep.error is None:
            first = next(r for r in self.reps if r.error is None)
            try:
                rep.failed = self.workload.check(rep, first)
            except Exception as err:  # an unreadable output fails the whole rep
                rep.error = f"check: {err!r}"
        if rep.error is not None:
            rep.failed = self.workload.planned_slots
            self.errors.append(f"rep {rep.k}: {rep.error}")
        if self.workload.host_normalized:
            rep.marks["calibration_ms"] = calibration_ms()
        rep.output = None
        rep.marks.pop("sum_rates")


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 sizes: dict | None = None, setup_probes: int = SETUP_PROBES) -> RunResult:
    """One workload run: set-up probes (untraced runs), checks, reps, metrics.

    With ``trace`` the rep after the warm-up runs untraced as the overhead
    baseline and the remaining reps run traced; the metrics are then the
    per-layer ones.
    """
    workload = WORKLOADS[name](seed, workdir, sizes)
    workload.workdir.mkdir(parents=True, exist_ok=True)
    workload.build()
    setup = [] if trace else measure_setup(name, seed, workload.workdir, setup_probes)
    errors = []
    try:
        workload.verify()
    except reference.CostModelError:
        raise
    except Exception as err:
        errors.append(f"verify: {err!r}")
    rec = tracer.Recorder(pkg, hdrl.POSE_ACT_DIM)
    rec.install()
    if rec.missing:
        rec.restore()
        raise RuntimeError(f"cannot count slots: the package lacks {rec.missing}")
    runner = _Runner(workload, [rec])
    span_tracer = None
    try:
        # The first rep is checked but not timed: it pays first-touch page
        # faults and cold caches that later reps do not (set-up probes
        # measure the cold start on their own).
        runner.run(0.0, 1)
        if trace:
            runner.run(0.0, 2)  # untraced baseline for the tracing overhead
            if not runner.failed:
                span_tracer = tracer.Tracer(pkg, hdrl.POSE_ACT_DIM)
                span_tracer.install()
                runner.probes.append(span_tracer)
                runner.run(seconds, 3)
        else:
            runner.run(seconds, 2)
    finally:
        for probe in reversed(runner.probes):
            probe.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reps = runner.reps
    errors += runner.errors
    attempted = workload.planned_slots * len(reps) + workload.extra_slots
    failed = sum(r.failed for r in reps) + workload.extra_failed
    ok = [r for r in reps[1:] if r.error is None and r.failed == 0]
    details = {"reps": len(reps), "info": workload.info, "errors": errors,
               "error_rate": failed / attempted if attempted else 1.0}
    starts = rec.slot_starts
    if trace:
        metrics = _layer_metrics(workload, reps, starts, span_tracer, details)
    else:
        metrics = _end_to_end(workload, ok, starts, rec, setup, peak_rss_mb, details)
    return RunResult(name, seed, trace, attempted, failed, errors, metrics, details, span_tracer)


def _rep_times(workload: Workload, rep: Rep, starts, raw: bool = False) -> tuple[float, float]:
    """(wall seconds after set-up, ms per slot of the measured phase).

    For a host-normalized workload both are scaled by the speed the
    calibration GEMMs read right after the rep, to a host on which they
    take CALIBRATION_REF_MS; ``raw`` skips the scaling.
    """
    wall = rep.t_end - starts[rep.slot_lo]
    lo, hi, end = workload.phase(rep, starts)
    per_slot = (end - starts[lo]) / (hi - lo) * 1e3
    if raw or not workload.host_normalized:
        return wall, per_slot
    scale = CALIBRATION_REF_MS / rep.marks["calibration_ms"]
    return wall * scale, per_slot * scale


UNITS = {"setup_s": "s", "wall_s": "s", "ms_per_slot": "ms", "decision_ms_p50": "ms",
         "decision_ms_tail": "ms", "peak_rss_mb": "MB"}


def _end_to_end(workload, ok, starts, rec, setup, peak_rss_mb, details) -> dict:
    if not ok:
        return {k: (None, unit) for k, unit in UNITS.items()}
    times = [_rep_times(workload, r, starts) for r in ok]
    if workload.host_normalized:
        raw = [_rep_times(workload, r, starts, raw=True) for r in ok]
        details.update(calibration_ms=[r.marks["calibration_ms"] for r in ok],
                       raw_wall_s=statistics.median(t[0] for t in raw),
                       raw_ms_per_slot=statistics.median(t[1] for t in raw))
    decisions = np.concatenate([np.asarray(rec.decision_ms[r.decision_lo:r.decision_hi]) for r in ok])
    tail_q = tail_percentile(ok[0].decision_hi - ok[0].decision_lo)
    details.update(
        setup_probes_s=setup,
        rep_wall_s=[t[0] for t in times],
        rep_ms_per_slot=[t[1] for t in times],
        rep_setup_s=[starts[r.slot_lo] - r.t_start for r in ok],
        slots_per_rep=ok[0].slot_hi - ok[0].slot_lo,
        decision_samples=int(decisions.size),
        decision_tail_percentile=tail_q,
    )
    values = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": statistics.median(t[0] for t in times),
        "ms_per_slot": statistics.median(t[1] for t in times),
        "decision_ms_p50": hdrl.percentile_leq(decisions, 0.5),
        "decision_ms_tail": hdrl.percentile_leq(decisions, tail_q / 100.0),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: (v, UNITS[k]) for k, v in values.items()}


# ------------------------------------------------------------------ per-layer
def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in tracer.SPAN_NAMES:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.total_ms", "ms", "lower"),
                (f"{span}.self_ms", "ms", "lower")]
    out += [
        ("channel.channel_vector.calls_per_slot", "1/slot", "lower"),
        ("env.IsacEnv.observations.calls_per_slot", "1/slot", "lower"),
        ("nn.Mlp.forward_cached.rows", "count", "lower"),
        ("nn.Mlp.forward_cached.batch1.calls", "count", "lower"),
        ("nn.Mlp.forward_cached.batch1.total_ms", "ms", "lower"),
        ("nn.Mlp.forward_cached.batch1.self_ms", "ms", "lower"),
        ("nn.update_round_flops", "flop", "lower"),
        ("nn.peak_gflops", "GFLOP/s", "higher"),
        ("nn.achieved_gflops", "GFLOP/s", "higher"),
        ("nn.pct_of_peak", "%", "higher"),
        ("rl.ReplayBuffer.push.us_per_call", "us", "lower"),
        ("rl.ReplayBuffer.sample.us_per_call", "us", "lower"),
        ("rl.ReplayBuffer.fill", "count", "lower"),
        ("hdrl.phase.act_frac", "ratio", "lower"),
        ("hdrl.phase.env_frac", "ratio", "lower"),
        ("hdrl.phase.update_frac", "ratio", "lower"),
        ("hdrl.phase.pose_frac", "ratio", "lower"),
        ("hdrl.AgentRoster.save.bytes", "B", "lower"),
        ("tracing.overhead_s", "s", "lower"),
        ("tracing.overhead_frac", "ratio", "lower"),
        ("run.traced_reps", "count", "higher"),
        ("run.slots_per_rep", "count", "higher"),
    ]
    return out


def _critic_gemms():
    """Batch 256 through a 144 -> 256 and a 256 -> 256 float64 layer, the
    two matrix products that dominate a benchmark-preset update round."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 144))
    w1, w2 = rng.standard_normal((256, 144)), rng.standard_normal((256, 256))
    return lambda: (x @ w1.T) @ w2.T


def matmul_gflops(window_s: float = 0.1, windows: int = 5) -> float:
    """Best float64 matmul rate at the benchmark critic's hidden-layer shapes."""
    gemms = _critic_gemms()
    flops = 2.0 * 256 * (144 * 256 + 256 * 256)
    best = 0.0
    for _ in range(windows):
        n, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < window_s:
            gemms()
            n += 1
        best = max(best, flops * n / (time.perf_counter() - t0) / 1e9)
    return best


def calibration_ms(calls: int = 100) -> float:
    """Mean time of one :func:`_critic_gemms` call right now, in ms.

    Package-independent, so a change to the program cannot move it; it
    reads the host's current speed for GEMM-bound work.
    """
    gemms = _critic_gemms()
    t0 = time.perf_counter()
    for _ in range(calls):
        gemms()
    return (time.perf_counter() - t0) / calls * 1e3


def _layer_metrics(workload, reps, starts, span_tracer, details) -> dict:
    units = {name: unit for name, unit, _ in per_layer_names()}
    if span_tracer is None or any(r.error is not None or r.failed for r in reps) or len(reps) < 3:
        return {k: (None, unit) for k, unit in units.items()}
    baseline, traced = reps[1], reps[2:]
    n = len(traced)
    slots = traced[0].slot_hi - traced[0].slot_lo
    summary = span_tracer.summary()
    values = {}
    for k, span in enumerate(span_tracer.names):
        values[f"{span}.calls"] = summary["calls"][k] / n
        values[f"{span}.total_ms"] = summary["total_s"][k] / n * 1e3
        values[f"{span}.self_ms"] = summary["self_s"][k] / n * 1e3
    values["channel.channel_vector.calls_per_slot"] = values["channel.channel_vector.calls"] / slots
    values["env.IsacEnv.observations.calls_per_slot"] = values["env.IsacEnv.observations.calls"] / slots
    values["nn.Mlp.forward_cached.rows"] = summary["forward_rows"] / n
    b1_calls, b1_total, b1_self = summary["forward_batch1"]
    values["nn.Mlp.forward_cached.batch1.calls"] = b1_calls / n
    values["nn.Mlp.forward_cached.batch1.total_ms"] = b1_total / n * 1e3
    values["nn.Mlp.forward_cached.batch1.self_ms"] = b1_self / n * 1e3
    for op in ("push", "sample"):
        calls = values[f"rl.ReplayBuffer.{op}.calls"]
        values[f"rl.ReplayBuffer.{op}.us_per_call"] = (
            values[f"rl.ReplayBuffer.{op}.total_ms"] / calls * 1e3 if calls else 0.0)
    values["rl.ReplayBuffer.fill"] = summary["replay_fill"]
    phases = summary["phases"]
    for phase in ("act", "env", "update", "pose"):
        values[f"hdrl.phase.{phase}_frac"] = phases[phase] / phases["rollout"] if phases["rollout"] else 0.0
    extras = workload.layer_extras(reps)
    flops, rounds = extras["update_flops_per_rep"], extras["update_rounds_per_rep"]
    update_s = phases["update"] / n
    peak = matmul_gflops()
    values["nn.update_round_flops"] = flops / rounds if rounds else 0.0
    values["nn.peak_gflops"] = peak
    values["nn.achieved_gflops"] = flops / update_s / 1e9 if rounds and update_s else 0.0
    values["nn.pct_of_peak"] = 100.0 * values["nn.achieved_gflops"] / peak
    values["hdrl.AgentRoster.save.bytes"] = extras["save_bytes"]
    base_wall = _rep_times(workload, baseline, starts)[0]
    traced_wall = statistics.median(_rep_times(workload, r, starts)[0] for r in traced)
    values["tracing.overhead_s"] = traced_wall - base_wall
    values["tracing.overhead_frac"] = (traced_wall - base_wall) / base_wall
    values["run.traced_reps"] = n
    values["run.slots_per_rep"] = slots
    details.update(untraced_wall_s=base_wall, traced_wall_s=traced_wall, spans=len(span_tracer.spans),
                   missing_names=span_tracer.missing)
    return {k: (float(values[k]), unit) for k, unit in units.items()}
