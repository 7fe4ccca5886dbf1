"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload W --slot K --mode MODE [--trace]

MODE is one of
  prepare  write the workload's generated inputs into perfbench/_work
           (the ci-1e6 CSV, the sim-spikes config); never timed
  setup    time set-up only: the import of localquant, plus load_csv on ci-1e6
  rep      set up, then run the workload once and record its outputs

The result is one JSON object on the last line of standard output. With
--trace the public functions of every layer are wrapped by tracing.py after
the import, the result gains per-layer metrics and the spans are written to
perfbench/_work/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")


def _path(name: str) -> str:
    return os.path.join(WORK, name)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _capture(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def prepare(workload: str, slot: int) -> dict:
    """Generate the inputs the program reads; the import also warms bytecode."""
    import localquant.rng
    import localquant.synthetic as synthetic

    os.makedirs(WORK, exist_ok=True)
    if workload == "sim-spikes":
        with open(_path("sim-spikes.cfg"), "w", encoding="utf-8") as fh:
            fh.write(wl.sim_config(slot))
    elif workload == "ci-1e6":
        model = synthetic.SyntheticModel(synthetic.Signal.SPIKES, synthetic.NoiseSetting.S1)
        data = synthetic.sample_dataset(model, wl.CI_ROWS, localquant.rng.RngStream(wl.slot_seed(slot)))
        tmp = _path("ci-1e6.csv.tmp")
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,y\n")
            fh.writelines(
                f"{x!r},{y!r}\n"
                for x, y in zip(data.covariates[:, 0].tolist(), data.responses.tolist())
            )
        os.replace(tmp, _path("ci-1e6.csv"))
    return {}


def run_sim(lq, tracer) -> tuple[list[float], dict]:
    argv = ["simulate", "--config", _path("sim-spikes.cfg")]
    if tracer is not None:
        tracer.op_id = 0
    t0 = time.perf_counter()
    try:
        rc, text = _capture(lq.cli.main, argv)
    except Exception as exc:  # the program's failure is a benchmark result
        return [time.perf_counter() - t0], {"errors": [_error(exc)]}
    elapsed = time.perf_counter() - t0
    outputs = {"rows": list(csv.reader(io.StringIO(text)))}
    if rc != 0:
        outputs["errors"] = [f"simulate exited with code {rc}"]
    return [elapsed], outputs


def run_ci(lq, data, slot: int, tracer) -> tuple[list[float], dict]:
    """Each query makes the public calls `localquant ci --method both` makes."""
    kernel = lq.kernels.Kernel.from_name("triangular")
    q = lq.base.QuantileSpec(0.5, 0.1, 0.05)
    seed = wl.slot_seed(slot)
    latencies, records, errors = [], [], []
    for i, (x0, h) in enumerate(wl.ci_queries(slot)):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            spec = lq.kernels.LocalizationSpec(kernel, [x0], [h])
            results = [lq.wq.wq_interval(data, spec, q),
                       lq.qr.qr_interval(data, spec, q, lq.rng.RngStream(seed))]
        except Exception as exc:
            latencies.append(time.perf_counter() - t0)
            records += [["error"]] * 2
            errors.append(f"query {i}: {_error(exc)}")
            continue
        latencies.append(time.perf_counter() - t0)
        records += [
            [r.method, repr(r.lower), repr(r.upper), repr(r.n_eff), r.accepted] for r in results
        ]
    return latencies, {"records": records, "errors": errors}


def run_oracle(lq, tracer) -> tuple[list[float], dict]:
    latencies, records, errors = [], [], []
    for i, (labels, argv) in enumerate(wl.oracle_ops()):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            rc, text = _capture(lq.cli.main, argv)
        except Exception as exc:
            rc, text = None, ""
            errors.append(f"{argv[0]}: {_error(exc)}")
        latencies.append(time.perf_counter() - t0)
        if rc != 0:
            records += [[label, []] for label in labels]
            if rc is not None:
                errors.append(f"{argv[0]}: exit code {rc}")
        elif argv[0] == "target":
            rows = list(csv.reader(io.StringIO(text)))[1:]
            records += [[label, [float(row[-1])]] for label, row in zip(labels, rows)]
        else:
            out = json.loads(text)
            keys = ("theta_p", "theta_prime", "tv_distance", "mixture_weight")
            records.append([labels[0], [float(out[k]) for k in keys]])
    return latencies, {"records": records, "errors": errors}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--mode", choices=("prepare", "setup", "rep"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.mode == "prepare":
        print(json.dumps(prepare(args.workload, args.slot)))
        return 0

    t0 = time.perf_counter()
    import localquant as lq
    import localquant.cli  # noqa: F401  (submodules used through `lq`)
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    data = None
    load_s = 0.0
    if args.workload == "ci-1e6":
        t0 = time.perf_counter()
        data = lq.cli.load_csv(_path("ci-1e6.csv"), ["x"], "y")
        load_s = time.perf_counter() - t0
    result = {"setup_s": import_s + load_s}

    if args.mode == "rep":
        t0 = time.perf_counter()
        if args.workload == "sim-spikes":
            latencies, outputs = run_sim(lq, tracer)
        elif args.workload == "ci-1e6":
            latencies, outputs = run_ci(lq, data, args.slot, tracer)
        else:
            latencies, outputs = run_oracle(lq, tracer)
        result["run_s"] = time.perf_counter() - t0
        result["latencies_ms"] = [1e3 * s for s in latencies]
        result["outputs"] = outputs
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment()
        if tracer is not None:
            result["layers"] = tracing.metrics(tracer)
            result["spans"] = {k: list(v) for k, v in tracer.span_table().items()}
            tracer.write_spans(_path(f"spans-{args.workload}.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
