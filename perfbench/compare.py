"""Compare two sets of benchmark results metric by metric, against the bounds.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files that run.py wrote to .bench_out/ (copy
them aside between the two commits). For every workload in both, and every
end-to-end metric in BENCHMARK.json, it prints the two medians, the change
as a share of BEFORE's median, and a verdict: `worse` when the change is
beyond the metric's bound in its bad direction, `better` when beyond it in
the good one, else `ok`. Runs that differ in kernel backend, core count or
tail percentile are flagged, since their figures do not compare. Exits 1 if
any metric is worse or any comparison is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    before, after = load(argv[0]), load(argv[1])
    status = 0
    for workload in sorted(set(before) & set(after)):
        runs = before[workload] + after[workload]
        print(f"{workload}: {len(before[workload])} runs before, {len(after[workload])} after")
        for label, values in (
            ("kernel backend", {r["env"]["backend"] for r in runs}),
            ("core count", {r["env"]["nproc"] for r in runs}),
            ("tail percentile", {r["tail_percentile"] for r in runs}),
        ):
            if len(values) > 1:
                print(f"  FLAG runs differ in {label}: {sorted(values)}")
                status = 1
        for m in metrics:
            old = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in before[workload])
            new = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in after[workload])
            change = (new - old) / old
            harm = change if m["better"] == "lower" else -change
            verdict = "worse" if harm > m["bound"] else "better" if harm < -m["bound"] else "ok"
            status |= verdict == "worse"
            print(
                f"  {m['name']:14s} {old:12.6g} -> {new:12.6g} {m['unit']:4s} "
                f"{change:+8.2%} (bound {m['bound']:.0%}, {m['better']} is better): {verdict}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
