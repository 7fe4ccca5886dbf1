"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs one untraced repetition per input slot of every workload through
worker.py and writes their outputs to perfbench/reference.json, replacing
it. Run it only on code whose outputs are known good: the stored references
come from localquant 0.1.0 as it was when this benchmark was added. Slot 0
of sim-spikes must reproduce `localquant simulate --preset paper-spikes-s1`
byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys

import workloads as wl
from run import HERE, ROOT, run_worker

REFERENCE = os.path.join(HERE, "reference.json")


def preset_rows() -> list[list[str]]:
    code = ("import sys; sys.path.insert(0, 'src'); from localquant.cli import main; "
            "sys.exit(main(['simulate', '--preset', 'paper-spikes-s1']))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    return list(csv.reader(io.StringIO(proc.stdout)))


def main() -> int:
    reference = {}
    for workload in wl.WORKLOADS:
        slots = sorted({wl.slot_of(workload, seed) for seed in range(wl.SLOTS)})
        reference[workload] = {}
        for slot in slots:
            run_worker(workload, slot, "prepare")
            outputs = run_worker(workload, slot, "rep")["outputs"]
            if outputs.pop("errors", None):
                raise SystemExit(f"{workload} slot {slot} failed: {outputs}")
            reference[workload][str(slot)] = outputs
            print(f"recorded {workload} slot {slot}", file=sys.stderr)
    if reference["sim-spikes"]["0"]["rows"] != preset_rows():
        raise SystemExit("sim-spikes slot 0 differs from the paper-spikes-s1 preset")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
