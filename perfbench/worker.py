"""One fresh process of the benchmark; run.py starts it and reads its stdout.

  worker.py setup --workload W --seed S            set up, print READY, exit
  worker.py loop  --workload W --seed S --seconds T --trace 0|1
                                                   set up, print READY, run
                                                   the closed loop, print
                                                   one JSON result line
  worker.py rung  --workload W --seed S --rung R   warm up, print START, run
                                                   the rung under a CPU-time
                                                   cap, print DONE, check it,
                                                   print CHECK

lensring is imported from src/ of the checkout this file sits in, never
from anywhere else, so a checkout without the program fails here.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import lensring  # noqa: E402

if SRC not in Path(lensring.__file__).resolve().parents:
    raise ImportError(f"lensring came from {lensring.__file__}, not {SRC}")

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# spans: the benchmark's own call into each module, then every boundary
SPAN_METRICS = tuple(f"{m}.api" for m in tracing.MODULES) + tuple(
    dict.fromkeys(name for name, *_ in tracing.BOUNDARIES))


# Every duration is CPU time of this process: the code under test is
# single-threaded and never waits, and on a shared host the wall clock also
# counts time the host gave to others (steal), which varies from run to run.
CLOCK = time.process_time


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def run_job(job, tracer=None) -> tuple[bool, float, str | None]:
    """Time one job's call and check its result; never raises."""
    if job.cold:
        workloads.clear_caches()
        gc.collect()
    start = CLOCK()
    try:
        try:
            if tracer is None:
                result = job.call()
            else:
                result = tracer.call(f"{job.layer}.api", job.call)
        except job.raises as exc:
            result = exc
        elapsed = CLOCK() - start
    except Exception as exc:  # an unexpected exception is a failed check
        elapsed = CLOCK() - start
        return False, elapsed, f"{job.kind}: {exc!r}"
    try:
        ok = bool(job.check(result))
    except Exception as exc:
        return False, elapsed, f"{job.kind}: check raised {exc!r}"
    return ok, elapsed, None if ok else f"{job.kind}: wrong result"


def run_passes(jobs, seconds: float, tracer=None) -> dict:
    """Run the whole job list repeatedly until `seconds` have passed."""
    passes = []
    latencies = []
    kinds = []
    attempted = failed = 0
    errors = []
    begin = CLOCK()
    while True:
        gc.collect()
        pass_start = CLOCK()
        pass_wall = time.perf_counter()
        busy = 0.0
        for job in jobs:
            ok, elapsed, error = run_job(job, tracer)
            attempted += 1
            busy += elapsed
            latencies.append(elapsed)
            kinds.append(job.kind)
            if not ok:
                failed += 1
                if len(errors) < 10:
                    errors.append(error)
        passes.append((busy, CLOCK() - pass_start,
                       time.perf_counter() - pass_wall))
        if CLOCK() - begin >= seconds:
            break
    return {"passes": passes, "latencies": latencies, "kinds": kinds,
            "attempted": attempted, "failed": failed, "errors": errors}


def _per_pass(total, passes: int):
    return total // passes if isinstance(total, int) and total % passes == 0 \
        else total / passes


def layer_metrics(tracer, traced: dict, untraced: dict) -> dict:
    n = len(traced["passes"])
    calls, self_s, root_total = tracer.self_times()
    out = {}
    for name in SPAN_METRICS:
        if not name.endswith(".api"):
            out[f"{name}.calls"] = _per_pass(calls.get(name, 0), n)
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    stats = tracer.stats
    for key in tracing.SUMMED_STATS:
        out[key] = _per_pass(stats.get(key, 0), n)
    for key in tracing.MAX_STATS:
        out[key] = stats.get(key, 0)
    for metric, num, den in tracing.RATIOS:
        out[metric] = stats[num] / stats[den] if stats.get(den) else 0.0
    pass_s = sum(p[1] for p in traced["passes"]) / n
    out["bench.self_s"] = pass_s - root_total / n
    out["trace.pass_s"] = pass_s
    busy_traced = statistics.median(p[0] for p in traced["passes"])
    busy_plain = statistics.median(p[0] for p in untraced["passes"])
    out["trace.overhead_ratio"] = busy_traced / busy_plain - 1
    return out


def loop(workload, seed: int, seconds: float, trace: bool) -> dict:
    jobs = workload.jobs(seed)
    emit(f"READY {CLOCK()!r}")
    if not trace:
        run = run_passes(jobs, seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"run": run, "peak_rss_kib": peak_kib}
    untraced = run_passes(jobs, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(jobs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    return {"untraced": untraced, "traced": traced,
            "layers": layer_metrics(tracer, traced, untraced),
            "missing_boundaries": tracer.missing}


def rung(workload, seed: int, n: int) -> None:
    """Run one rung under a CPU-time cap: SIGPROF, whose default action
    ends the process, arrives once the rung has used cap_s of CPU time."""
    warm, job = workload.rung(n, seed)
    warm()
    gc.collect()
    emit("START")
    signal.setitimer(signal.ITIMER_PROF, workload.cap_s)
    ok, elapsed, error = run_job(job)
    signal.setitimer(signal.ITIMER_PROF, 0)
    emit(f"DONE {elapsed!r}")
    emit(f"CHECK {int(ok)} {error or ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "loop", "rung"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rung", type=int, default=None)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.role == "setup":
        workload.jobs(args.seed)
        emit(f"READY {CLOCK()!r}")
    elif args.role == "rung":
        rung(workload, args.seed, args.rung)
    else:
        result = loop(workload, args.seed, args.seconds, bool(args.trace))
        emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
