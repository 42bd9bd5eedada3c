"""Benchmark entry point: one workload, one fresh process.

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 25 --trace 0

Runs from a checkout of the repository and imports ``sixdma_isac`` from
its ``src/``.  BLAS is pinned to one thread before numpy loads.  Prints
every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics from a traced run with
``--trace 1``.  The full record (machine fingerprint, per-rep figures,
informational outputs) goes to ``perfbench/out/records/``; a traced run
also writes its spans there.  Exits 2 without a result when the package
is missing or the benchmark itself breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Pin the run (and the set-up probes it spawns) to one CPU.  On a shared
# 2-vCPU VM the two CPUs ran at speeds 6% apart and the scheduler moved an
# unpinned run between them, which spread repeated runs by 10-25%; pinned
# runs repeated within about 1%.
CPUS = sorted(os.sched_getaffinity(0))
PINNED_CPU = CPUS[-1]
os.sched_setaffinity(0, {PINNED_CPU})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "records", help="directory for run records")
    parser.add_argument("--probe", help=argparse.SUPPRESS)  # set-up probe child
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    if not (SRC / "sixdma_isac" / "__init__.py").is_file():
        raise ImportError(f"no sixdma_isac package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import sixdma_isac

    if SRC.resolve() not in Path(sixdma_isac.__file__).resolve().parents:
        raise ImportError(f"sixdma_isac resolved to {sixdma_isac.__file__}, not the checkout's src/")
    import workloads

    return workloads


def _print_report(result, fingerprint: dict, record_path: Path) -> None:
    print(f"perfbench {result.workload} seed={result.seed} trace={int(result.trace)} "
          f"reps={result.details['reps']} attempted_slots={result.attempted} failed_slots={result.failed}")
    print("fingerprint: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    for name, (value, unit) in result.metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit}")
    print(f"  {'error_rate':<48} {result.details['error_rate']:>14.6g} ratio")
    if "decision_tail_percentile" in result.details:
        print(f"  decision tail = p{result.details['decision_tail_percentile']:g} of "
              f"{result.details['decision_samples']} select_action calls")
    for error in result.errors:
        print(f"  failure: {error}")
    print(f"record: {record_path}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        workloads = _import_package()
    except ImportError as err:
        return _fail(f"cannot import the package: {err}")

    if args.probe:
        first = workloads.probe_first_slot(args.probe, args.seed, args.workdir)
        print(f"first_slot {first!r}")
        return 0
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    from fingerprint import fingerprint  # imports numpy: only after the BLAS pinning above

    workdir = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:  # the benchmark itself broke (or the cost model disagrees): no result
        traceback.print_exc()
        shutil.rmtree(workdir, ignore_errors=True)
        return _fail(f"{args.workload} could not be measured")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
        record_path = args.out / f"{stem}.json"
        machine = fingerprint(nproc=len(CPUS), pinned_cpu=PINNED_CPU)
        record = {
            "workload": result.workload, "seed": result.seed, "trace": args.trace,
            "seconds": args.seconds, "blas_threads_pinned": BLAS_THREADS, "fingerprint": machine,
            "attempted": result.attempted, "failed": result.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            "details": result.details,
        }
        if args.trace and result.details.get("spans"):
            spans_path = args.out / f"{stem}-spans.npz"
            result.tracer.save(spans_path)
            record["spans_file"] = spans_path.name
        record_path.write_text(json.dumps(record, indent=1, default=float))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_report(result, machine, record_path)
    line = {
        "correct": result.failed == 0 and not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
