"""The lensring benchmark.

    python3 perfbench/run.py --workload tower|ladder|certify|cli|all \
        [--seed N] [--seconds S] [--trace 0|1]

One closed-loop generator runs one job at a time, with no threads: one
mathematician waiting for each exact result.  Every job checks its own
result exactly.  A run starts fresh worker processes, one at a time:

* the measuring worker runs the workload's fixed job list until `--seconds`
  of CPU time have passed and reports `pass_cpu_s` (median over passes of
  the time spent in lensring calls in one pass through the list),
  `job_p50_cpu_ms` and its own `peak_rss_mib`;
* `setup_s` is the median, over the measuring worker and two set-up-only
  workers, of the time a fresh interpreter spends before the first timed
  job (start-up, import, input generation, declared warm-up);
* with `--trace 0`, the size-ladder probe starts one worker per rung, in
  order; a worker is killed once its rung has used the workload's cap of
  CPU time; `size_limit` is the largest rung that finished inside the cap
  with a correct result.

All durations are CPU time of the worker process (see worker.CLOCK); the
wall time of each pass is reported in the details.

With `--trace 1` the measuring worker runs half its time untraced and half
traced (see tracer.py) and reports the per-layer metrics instead.

The last line of stdout is one JSON object with correct, attempted, failed
and metrics.  Details (p90 latency, failed ratio, rung times, input mix,
wall time per pass) go to stderr.  Any failure of the harness itself exits
1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

WORKER = Path(worker.__file__).resolve()
ROOT = WORKER.parent.parent
SETUP_ONLY_SAMPLES = 2
READY_TIMEOUT_S = 60.0
CHECK_TIMEOUT_S = 60.0
# a run ends within RUN_LIMIT_S; the last LADDER_RESERVE_S of it are kept
# for the size-ladder probe, whose unfinished rungs count as misses
RUN_LIMIT_S = 170.0
LADDER_RESERVE_S = 30.0
# a rung is capped by its own CPU time (see worker.rung); the wall clock
# only backs that up, with room for time the host gives to others
RUNG_WALL_FACTOR = 4
P90_MIN_JOBS = 100


class HarnessError(RuntimeError):
    pass


class Child:
    """A worker process whose stdout is read line by line with deadlines."""

    def __init__(self, args: list[str]):
        env = dict(os.environ)
        env.pop("LENSRING_BUDGET", None)
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER)] + args, cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0)
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)

    def readline(self, deadline: float) -> str | None:
        """The next line without its newline, "" at end of output, or None
        when the deadline passes first."""
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self._sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                line, self._buf = self._buf, b""
                return line.decode()
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def expect(self, word: str, timeout: float) -> list[str]:
        line = self.readline(time.perf_counter() + timeout)
        if line is None:
            raise HarnessError(f"worker timed out before {word}")
        fields = line.split(" ", 2)
        if fields[0] != word:
            raise HarnessError(f"worker said {line!r}, expected {word}")
        return fields

    def close(self, grace: float = 0.0) -> int:
        """Wait up to `grace` seconds for the worker to end, then kill it;
        returns its exit status once it has ended."""
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        code = self.proc.wait()
        self._sel.close()
        self.proc.stdout.close()
        return code


def _finish(child: Child) -> None:
    code = child.close(grace=READY_TIMEOUT_S)
    if code != 0:
        raise HarnessError(f"worker exited with status {code}")


def measure_setup(workload: str, seed: int) -> float:
    child = Child(["setup", "--workload", workload, "--seed", str(seed)])
    try:
        cpu = float(child.expect("READY", READY_TIMEOUT_S)[1])
        if child.readline(time.perf_counter() + READY_TIMEOUT_S) != "":
            raise HarnessError("set-up worker did not end after READY")
    except BaseException:
        child.close()
        raise
    _finish(child)
    return cpu


def run_loop(workload: str, seed: int, seconds: float, trace: int,
             deadline: float):
    child = Child(["loop", "--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(trace)])
    try:
        setup = float(child.expect("READY", READY_TIMEOUT_S)[1])
        line = child.readline(deadline)
        if not line:
            raise HarnessError("measuring worker gave no result in time")
        result = json.loads(line)
    except BaseException:
        child.close()
        raise
    _finish(child)
    return setup, result


def probe_ladder(workload: str, seed: int, deadline: float) -> dict:
    """Climb the rungs one worker at a time and stop at the first miss.

    One worker runs at a time, so the probe never exceeds nproc.
    """
    spec = worker.workloads.WORKLOADS[workload]
    times: dict[int, float | None] = {}
    limit = spec.rungs[0] - 1
    failed = None
    for n in spec.rungs:
        child = Child(["rung", "--workload", workload, "--seed", str(seed),
                       "--rung", str(n)])
        try:
            child.expect("START", min(READY_TIMEOUT_S,
                                      deadline - time.perf_counter()))
            line = child.readline(min(
                time.perf_counter() + RUNG_WALL_FACTOR * spec.cap_s, deadline))
            if not line:
                # end of output: the worker's CPU-time cap ended it, and it
                # is still exiting; None: the wall clock ran out first.
                # Either way the rung missed.
                code = child.close(grace=READY_TIMEOUT_S if line == "" else 0)
                if line == "" and code != -signal.SIGPROF:
                    raise HarnessError(f"rung worker exited with {code}")
                times[n] = None
                break
            if not line.startswith("DONE "):
                raise HarnessError(f"rung worker said {line!r}")
            times[n] = float(line.split()[1])
            check = child.expect("CHECK", CHECK_TIMEOUT_S)
        except BaseException:
            child.close()
            raise
        _finish(child)
        if check[1] != "1":
            failed = f"rung {n}: {' '.join(check[2:])}"
            break
        limit = n
    return {"size_limit": limit, "rung_cpu_s": times, "cap_s": spec.cap_s,
            "failed": failed}


def _median_by_kind(run: dict) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for kind, elapsed in zip(run["kinds"], run["latencies"]):
        by_kind.setdefault(kind, []).append(elapsed)
    return {k: 1000 * statistics.median(v) for k, v in sorted(by_kind.items())}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """One run: the result object printed last, and a details object."""
    stop = time.perf_counter() + RUN_LIMIT_S
    setup_samples = []
    if not trace:
        setup_samples += [measure_setup(workload, seed)
                          for _ in range(SETUP_ONLY_SAMPLES)]
    setup, result = run_loop(workload, seed, seconds, trace,
                             stop - LADDER_RESERVE_S)
    setup_samples.append(setup)
    if trace:
        runs = [result["untraced"], result["traced"]]
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in result["layers"].items()}
        details = {"missing_boundaries": result["missing_boundaries"],
                   "traced_passes": len(result["traced"]["passes"]),
                   "untraced_passes": len(result["untraced"]["passes"])}
        ladder = None
    else:
        runs = [result["run"]]
        run = result["run"]
        lat = sorted(run["latencies"])
        ladder = probe_ladder(workload, seed, stop)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_cpu_s": statistics.median(p[0] for p in run["passes"]),
            "job_p50_cpu_ms": 1000 * statistics.median(lat),
            "size_limit": ladder["size_limit"],
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        details = {
            "jobs": len(lat),
            "passes": len(run["passes"]),
            "pass_wall_s": [p[2] for p in run["passes"]],
            "job_p90_cpu_ms": (1000 * statistics.quantiles(lat, n=10)[-1]
                           if len(lat) >= P90_MIN_JOBS else None),
            "setup_samples_s": setup_samples,
            "median_ms_by_kind": _median_by_kind(run),
            "ladder": ladder,
            "input_mix": worker.workloads.WORKLOADS[workload].input_mix,
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    if ladder is not None:
        attempted += len(ladder["rung_cpu_s"])
        if ladder["failed"]:
            failed += 1
            errors.append(ladder["failed"])
    details["failed_ratio"] = failed / attempted
    details["errors"] = errors
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


UNITS = load_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(worker.workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = (list(worker.workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print(f"[{name}] " + json.dumps(details, sort_keys=True),
              file=sys.stderr)
        if args.workload == "all":
            for metric, entry in result["metrics"].items():
                print(f"{name:8} {metric:40} {entry['value']:>16.6g} "
                      f"{entry['unit']}")
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"benchmark harness failed: {exc}", file=sys.stderr)
        sys.exit(1)
