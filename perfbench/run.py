"""quadlie benchmark: one workload per command, every metric printed with its unit.

    python3 perfbench/run.py --workload graph-scan|parabolic-scan|certify \
        --seed N --seconds S --trace 0|1 [--corpus full|tiny]

Run it from the repository root; it imports the library from `src/`. Each
measurement runs in a fresh single-threaded interpreter (`worker.py`) that
decides the workload's cases one after another, a closed loop with one
client, for `--seconds` seconds.

`--trace 0` prints the end-to-end metrics: the median set-up time of several
fresh interpreters (`setup_s`), cases decided per second, the median and the
tail per-case time, and peak resident memory. `--trace 1` runs the loop with
every layer wrapped (see `tracing.py`), prints per-layer metrics averaged per
case, and then decides the same cases untraced to report the tracing
overhead.

Every outcome is checked, after the timed loop, against data/expected.json:
a case fails if it raises, disagrees with its classifier, or its
(verdict.kind, certificate kind) differs from the recorded one; on `certify`
also if `reverify_report` rejects its JSON round-tripped report.
`failed_frac` is printed, and the failures are the `failed` count of the
last stdout line, a JSON object with the keys correct, attempted, failed and
metrics. Each run also writes that result with the commit, Python version,
core count and kernel backend to .bench_out/ (see compare.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # the whole command, set-ups and loops included
# The tail percentile of each workload: the highest of 50, 75, 90, 95, 98,
# 99 that left at least ten cases beyond it in every run of the full corpus
# when the benchmark was defined. It is fixed so that runs stay comparable
# when a change alters how many cases fit in a run; each run records how
# many cases lie beyond it.
TAIL_PERCENTILE = {"graph-scan": 95, "parabolic-scan": 90, "certify": 95}


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted(Path("src/quadlie").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)},
        )
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Starts workers one at a time and enforces the whole command's time limit."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                p for p in (str(Path("src").resolve()), os.environ.get("PYTHONPATH")) if p
            ),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def worker(self, mode: str, *extra: str) -> dict:
        a = self.args
        launched = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--mode", mode,
            "--corpus", a.corpus, "--launched", repr(launched), *extra,
        ]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env)
        try:
            out, _ = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"error: {mode} worker exceeded the {TIME_LIMIT_S:.0f} s limit")
        if proc.returncode != 0:
            raise SystemExit(f"error: {mode} worker exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = p / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def check_outcomes(workload: str, run: dict) -> list[str]:
    """Failures of one worker's cases against the recorded expected outcomes."""
    expected = json.loads((HERE / "data" / "expected.json").read_text())[workload]
    failures = list(run["errors"])
    for out in run["outcomes"]:
        if out is None:
            continue
        case, kind, cert, agree, verified = out
        want = expected.get(case)
        if want is None:
            failures.append(f"{case}: no expected outcome recorded")
        elif [kind, cert, agree] != want:
            failures.append(f"{case}: got {[kind, cert, agree]}, expected {want}")
        elif agree is False:
            failures.append(f"{case}: verdict disagrees with the classifier")
        elif verified is False:
            failures.append(f"{case}: reverify_report rejected the report")
    return failures


def end_to_end(runner: Runner) -> tuple[dict, dict, list[str], str]:
    setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = runner.worker("run", "--seconds", str(runner.args.seconds))
    setups.append(run["setup_s"])
    times = sorted(t * 1000 for t in run["times"])
    n = len(times)
    p_tail = TAIL_PERCENTILE[runner.args.workload]
    failures = check_outcomes(runner.args.workload, run)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cases_per_s": (n / run["elapsed"], "1/s"),
        "case_ms.p50": (statistics.median(times), "ms"),
        "case_ms.tail": (percentile(times, p_tail), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "cases_per_s": f"{n} cases in {run['elapsed']:.3f} s",
        "case_ms.tail": f"p{p_tail} of {n} cases, {n * (100 - p_tail) / 100:g} beyond it",
        "failed_frac": f"{len(failures)} of {n} cases",
    }
    extra = {"cases": n, "tail_percentile": p_tail, "setup_samples_s": setups}
    metrics["failed_frac"] = (len(failures) / n, "1")
    return metrics, {"notes": notes, **extra}, failures, run["backend"]


def traced(runner: Runner) -> tuple[dict, dict, list[str], str]:
    a = runner.args
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{a.workload}.bin"
    run = runner.worker("trace", "--seconds", str(a.seconds), "--spans", str(spans))
    n = len(run["times"])
    plain = runner.worker("run", "--limit", str(n))
    failures = check_outcomes(a.workload, run) + check_outcomes(a.workload, plain)
    ratio = plain["elapsed"] / run["elapsed"]  # traced over untraced cases per second
    summary = tracing.analyse(spans)
    balance = abs(summary["self_sum_s"] - summary["case_s"])
    if summary["cases"] != n or summary["stray_spans"] or balance > 1e-6 * summary["case_s"]:
        failures.append(
            f"span check: {summary['cases']} case spans for {n} cases, "
            f"{summary['stray_spans']} spans outside a case, self times sum to "
            f"{summary['self_sum_s']:.6f} s against {summary['case_s']:.6f} s of case time"
        )
    values = tracing.layer_metrics(summary, ratio)
    metrics = {m: (v, tracing.unit(m)) for m, v in values.items()}
    notes = {
        "trace.traced_over_untraced": f"{n} cases: {run['elapsed']:.3f} s traced, "
        f"{plain['elapsed']:.3f} s untraced",
        "scans.case.self_s": f"self times of all spans sum to {summary['self_sum_s']:.6f} s; "
        f"case spans total {summary['case_s']:.6f} s",
    }
    for m, (moves, workload) in tracing.MOVES.items():
        notes.setdefault(m, f"moves {moves} on {workload}")
    extra = {"cases": n, "attempted": 2 * n, "spans": str(spans)}
    return metrics, {"notes": notes, **extra}, failures, run["backend"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("graph-scan", "parabolic-scan", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (Path("src/quadlie/__init__.py").is_file() and (HERE / "data" / "expected.json").is_file()):
        print("error: run from the repository root: src/quadlie or the expected outcomes are missing", file=sys.stderr)
        return 2

    runner = Runner(args)
    env = environment()
    metrics, info, failures, backend = (traced if args.trace else end_to_end)(runner)
    env["backend"] = backend
    attempted = info.pop("attempted", info["cases"])

    print(f"quadlie benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} corpus={args.corpus}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    notes = info.pop("notes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:10s} {notes.get(name, '')}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")

    # failed_frac is 0 whenever the run is correct, so it travels as `failed`
    reported = {k: v for k, v in metrics.items() if k != "failed_frac"}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "corpus": args.corpus, "env": env, **info,
        "failures": failures, "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
