"""localquant benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

W is sim-spikes, ci-1e6 or oracle-grid (see workloads.py). Run it from the
root of a checkout: it reads the program from ./src and exits with code 2,
printing no result, where there is none. Each repetition runs in a fresh
worker process (worker.py), so the program's module-level caches (the
oracle memo, the binomial tables) start cold every time. Inputs come from
the seed; the ci-1e6 CSV is written before anything is timed.

--trace 0 repeats the workload while the next repetition still fits in S
seconds (at least once), takes set-up samples until there are
SETUP_SAMPLES, and reports the end-to-end metrics:

  setup_s       s   median set-up: import localquant (+ load_csv on ci-1e6)
  run_s         s   median wall time of one repetition after set-up
  query_ms_p50  ms  median latency of one query: WQ + QR on ci-1e6, one
                    `target` or `indist` call on oracle-grid, the whole
                    `simulate` call on sim-spikes
  query_ms_p75  ms  75th percentile of the same latencies
  peak_rss_mb   MB  median ru_maxrss of a repetition's process

--trace 1 runs one untraced and one traced repetition and reports the
per-layer metrics of tracing.py, plus trace.overhead_s (traced run_s minus
untraced run_s). On sim-spikes it also checks that the oracle ran for all
20 cells, i.e. that its memo was cold.

Every repetition's outputs are checked against reference.json. Lines
starting with '#' describe the run, the environment and fail_frac
(failed / attempted operations); the last line of standard output is

  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}

and the same result, with the environment, is saved in perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

# a run must end within this many seconds, whatever --seconds says
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
# (x0, h) cells of the sim-spikes study, each needing one cold oracle call
SIM_CELLS = 20

UNITS = {"setup_s": "s", "run_s": "s", "query_ms_p50": "ms", "query_ms_p75": "ms",
         "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, slot: int, mode: str, trace: bool = False,
               timeout: float | None = None) -> dict:
    """Run worker.py in a fresh process and return its result and wall time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--slot", str(slot), "--mode", mode] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker for {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def _p75(values: list[float]) -> float:
    # "inclusive" interpolates between samples and never goes past the largest
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def measure(workload: str, slot: int, seconds: int, deadline: float):
    """Untraced repetitions within the time budget; end-to-end metrics."""
    reps = []
    while True:
        reps.append(run_worker(workload, slot, "rep", timeout=_left(deadline)))
        spent = sum(r["wall_s"] for r in reps)
        if spent + reps[-1]["wall_s"] > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, slot, "setup", timeout=_left(deadline))["setup_s"])
    latencies = [ms for r in reps for ms in r["latencies_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "query_ms_p50": statistics.median(latencies),
        "query_ms_p75": _p75(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = [f"# repetitions {len(reps)}, set-up samples {len(setups)}, "
             f"query latencies {len(latencies)}"]
    return reps, {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, notes


def trace(workload: str, slot: int, deadline: float):
    """One untraced and one traced repetition; per-layer metrics."""
    plain = run_worker(workload, slot, "rep", timeout=_left(deadline))
    traced = run_worker(workload, slot, "rep", trace=True, timeout=_left(deadline))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
    metrics["trace.overhead_s"] = {"value": traced["run_s"] - plain["run_s"], "unit": "s"}
    notes = [f"# untraced run_s {plain['run_s']:.4f} s, traced run_s {traced['run_s']:.4f} s",
             "# span                                   calls   incl ms/call   self ms/call"]
    for name, (calls, total, own) in sorted(traced["spans"].items()):
        if calls:
            notes.append(f"# {name:38s} {calls:7d} {1e3 * total / calls:14.4f} "
                         f"{1e3 * own / calls:14.4f}")
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="localquant benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "localquant", "__init__.py")):
        print(f"error: no localquant sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    slot = wl.slot_of(args.workload, args.seed)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload][str(slot)]
    try:
        run_worker(args.workload, slot, "prepare", timeout=DEADLINE_S)
        if args.trace:
            reps, metrics, notes = trace(args.workload, slot, deadline)
        else:
            reps, metrics, notes = measure(args.workload, slot, args.seconds, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    messages = []
    for rep in reps:
        a, f, m = wl.check(args.workload, rep["outputs"], reference)
        attempted, failed, messages = attempted + a, failed + f, messages + m
    correct = failed == 0
    if args.trace and args.workload == "sim-spikes":
        theta_calls = metrics["synthetic.true_theta.calls"]["value"]
        if theta_calls != SIM_CELLS:
            correct = False
            messages.append(f"oracle ran for {theta_calls} cells, not {SIM_CELLS}: a warm cache?")

    env = reps[-1]["env"]
    print(f"# localquant benchmark: workload {args.workload}, seed {args.seed} "
          f"(input slot {slot}), trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        value = m["value"]
        print(f"# {name:40s} {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    print(f"# fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for message in messages:
        print(f"# mismatch: {message}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(WORK, exist_ok=True)
    saved = os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(saved, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "seed": args.seed, "slot": slot, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
