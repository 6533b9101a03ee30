"""One benchmark process: build a workload's case list, then decide its cases.

run.py starts it in a fresh single-threaded interpreter:

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace
        --launched T [--seconds S] [--limit N] [--corpus full|tiny] [--spans PATH]

`--launched` is the parent's `time.monotonic()` just before the start, so the
set-up time counts interpreter launch, imports and building the case list.
`setup` stops there. `run` and `trace` then decide cases in a closed loop,
cycling through the corpus, until `--seconds` have passed (at a block
boundary, see `workloads.Workload`) or `--limit` cases are done. `trace`
wraps the library first and writes its spans to `--spans` at exit. The last
stdout line is one JSON object with the set-up time, the per-case times and
outcomes, and the peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import tracing
import workloads
from quadlie import kernels
from quadlie.config import RunConfig


def run_loop(workload, config, tracer, seconds: float, limit: int | None):
    cases, run_case, block = workload.cases, workload.run_case, workload.block
    times: list[float] = []
    outcomes: list = []
    errors: list[str] = []
    start = time.perf_counter()
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif i % block == 0 and time.perf_counter() - start >= seconds:
            break
        case = cases[i % len(cases)]
        t0 = time.perf_counter()
        try:
            out = tracer.case(i, run_case, case, config, tracer)
        except Exception as exc:  # a raising case is counted as failed, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
            errors.append(f"case {i} ({case!r:.80}): {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
        i += 1
    return time.perf_counter() - start, times, outcomes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--corpus", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    config = RunConfig(seed=args.seed)
    workload = workloads.build(args.workload, args.seed, args.corpus == "tiny")
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s, "backend": kernels.BACKEND}
    if args.mode != "setup":
        tracer = tracing.NullTracer()
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        elapsed, times, outcomes, errors = run_loop(
            workload, config, tracer, args.seconds, args.limit
        )
        if args.mode == "trace":
            tracer.dump(args.spans)
        result.update(
            elapsed=elapsed,
            times=times,
            outcomes=[list(o) if o is not None else None for o in outcomes],
            errors=errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
