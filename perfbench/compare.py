"""Summarise or compare sets of benchmark records.

    python3 perfbench/compare.py RECORDS_DIR              # spread of one set
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR    # change vs parent

A record set is a directory of the ``*.json`` files ``run.py`` writes
(one per run, ``--out`` picks the directory).  For every workload and
end-to-end metric this prints the median and the quartile spread
(``(q3 - q1) / median``, from ``statistics.quantiles(n=4)``) against the
bound in ``BENCHMARK.json``; with two sets it also prints the change of
the median in the metric's "worse" direction and a verdict.  Per-layer
medians from traced runs are listed side by side, without verdicts.

Records whose machine fingerprints differ are refused (exit 3).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no records in {directory}")
    return records


def check_fingerprints(records: list[dict]) -> None:
    seen = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(seen) > 1:
        lines = "\n  ".join(sorted(seen))
        print(f"refusing to compare: the records come from different machines or builds:\n  {lines}",
              file=sys.stderr)
        raise SystemExit(3)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(records: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for r in records:
        if r["trace"] != trace:
            continue
        for name, metric in r["metrics"].items():
            if metric["value"] is not None:
                values[(r["workload"], name)].append(metric["value"])
    return values


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    sets = [load(Path(a)) for a in argv]
    check_fingerprints([r for s in sets for r in s])
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for records, label in zip(sets, argv):
        bad = [r for r in records if r["failed"] or r["details"].get("errors")]
        if bad:
            print(f"{label}: {len(bad)} record(s) with failed slots or errors")
    e2e = [collect(s, 0) for s in sets]
    status = 0
    print(f"{'workload':<16} {'metric':<18} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}"
          + (f" {'change med':>12} {'worse by':>9}  verdict" if len(sets) == 2 else "  verdict"))
    for workload, name in sorted(e2e[0]):
        if name not in metrics:
            continue
        bound = metrics[name]["bound"]
        base = e2e[0][(workload, name)]
        q1, med, q3 = _quartiles(base)
        spread = (q3 - q1) / med if med else float("inf")
        row = f"{workload:<16} {name:<18} {len(base):>3} {med:>12.6g} {spread:>8.3f} {bound:>6.2f}"
        if len(sets) == 1:
            verdict = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            status |= spread > bound
            print(f"{row}  {verdict}")
            continue
        other = e2e[1].get((workload, name))
        if not other:
            print(f"{row}  missing in {argv[1]}")
            status = 1
            continue
        med2 = statistics.median(other)
        sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
        worse = sign * (med2 - med) / med
        if worse > bound:
            verdict, status = "REGRESSION", 1
        elif spread > bound and not (max(other) < min(base) if sign > 0 else min(other) > max(base)):
            verdict = "unresolved (spread above bound)"
        else:
            verdict = "ok"
        print(f"{row} {med2:>12.6g} {worse:>+9.3f}  {verdict}")
    layers = [collect(s, 1) for s in sets]
    if layers[0]:
        print(f"\n{'workload':<16} {'per-layer metric':<48} {'median':>12}" + (f" {'median 2':>12}" if len(sets) == 2 else ""))
        for key in sorted(layers[0]):
            cells = [f"{statistics.median(layers[0][key]):>12.6g}"]
            if len(sets) == 2 and layers[1].get(key):
                cells.append(f"{statistics.median(layers[1][key]):>12.6g}")
            print(f"{key[0]:<16} {key[1]:<48} {' '.join(cells)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
