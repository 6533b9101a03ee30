"""Smoke test of the benchmark harness on a tiny corpus.

    python3 perfbench/smoke.py

Runs run.py on every workload with `--corpus tiny --seconds 1`, untraced and
traced. Each run must end with a correct result and no failed case, print
every metric BENCHMARK.json lists for its mode (end-to-end or per-layer) by
name, report each with the unit BENCHMARK.json gives, and print failed_frac
as 0. Run it from the repository root; exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import MOVES  # noqa: E402


def check(workload: str, trace: int, spec: list[dict]) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--corpus", "tiny",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    if set(result["metrics"]) != {m["name"] for m in spec}:
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(result['metrics'])}")
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    for m in spec:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, BENCHMARK.json says {m['unit']!r}")
        if m["name"] not in printed:
            problems.append(f"{m['name']} is not printed")
    if not trace and not any(line.split()[:2] == ["failed_frac", "0"] for line in lines):
        problems.append("failed_frac 0 is not printed")
    return problems


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failed = False
    if set(MOVES) != {m["name"] for m in bench["per_layer"]}:
        print("FAIL tracing.MOVES and BENCHMARK.json per_layer list different metrics")
        failed = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            problems = check(workload, trace, spec)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
