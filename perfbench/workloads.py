"""Workload inputs and reference checks for the localquant benchmark.

Pure Python with no import of localquant, so run.py can use it without
loading the program. Every input is a function of the input slot, which is
`seed % SLOTS`; reference.json holds the expected outputs of each slot.

Workloads (each one closed loop, one client, `workers=1`):

  sim-spikes   `localquant simulate` on the paper-spikes-s1 study (1000
               replicates x 20 (x0, h) cells x {WQ, QR} at n = 200) with the
               replicate seed taken from the slot; slot 0 is the preset.
  ci-1e6       one `load_csv` of a 1e6-row, d = 1 CSV drawn from spikes /
               setting 1, then 40 (x0, h) queries of WQ plus QR; h spans
               local fractions of about 1 % to 32 %.
  oracle-grid  one `localquant target` call per signal over its five study
               points (h = 0.04, triangular kernel), then one default
               `localquant indist`. Its inputs do not depend on the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("sim-spikes", "ci-1e6", "oracle-grid")
SLOTS = 8

# the paper-spikes-s1 preset; slot k replaces its seed by PRESET_SEED + k
PRESET_SEED = 20240817

CI_ROWS = 1_000_000
# 10 bandwidths, log-spaced from 0.005 to 0.16: local fractions of 1 % to 32 %
CI_BANDWIDTHS = tuple(round(0.005 * 32.0 ** (i / 9), 4) for i in range(10))
CI_CENTERS_PER_H = 4

# per-signal study points of the paper's Monte Carlo grid
ORACLE_X0 = {
    "step": (0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8),
    "blip": (0.2, 0.3, 0.5, 0.8, 0.9),
    "spikes": (0.23, 0.33, 0.47, 0.69, 0.83),
    "bumps": (0.15, 0.25, 0.4, 0.65, 0.78),
    "parabolas": (0.1, 0.37, 0.41, 0.5, 0.7),
    "angles": (0.15, 0.2, 0.6, 0.65, 0.85),
}
ORACLE_H = 0.04
# oracle values are compared within this absolute tolerance; everything
# else must match exactly
ORACLE_TOL = 1e-9


def slot_of(workload: str, seed: int) -> int:
    """Input slot of a seed; oracle-grid has a single one."""
    return 0 if workload == "oracle-grid" else seed % SLOTS


def slot_seed(slot: int) -> int:
    return PRESET_SEED + slot


def sim_config(slot: int) -> str:
    """Config file text for `localquant simulate --config`."""
    return "\n".join(
        [
            "signal = spikes",
            "setting = 1",
            "kernel = triangular",
            "p = 0.5",
            "alpha = 0.1",
            "alpha1 = 0.05",
            "n = 200",
            "n_sim = 1000",
            f"seed = {slot_seed(slot)}",
            "x0 = 0.23, 0.33, 0.47, 0.69, 0.83",
            "h = 0.1, 0.08, 0.06, 0.04",
            "methods = WQ, QR",
            "",
        ]
    )


def ci_queries(slot: int) -> list[tuple[float, float]]:
    """(x0, h) pairs; centers keep the widest window inside [0, 1]."""
    gen = random.Random(slot_seed(slot))
    return [
        (round(gen.uniform(0.17, 0.83), 4), h)
        for _ in range(CI_CENTERS_PER_H)
        for h in CI_BANDWIDTHS
    ]


def oracle_ops() -> list[tuple[list[str], list[str]]]:
    """(labels of the oracle cells, argv) for each `localquant` call of oracle-grid."""
    ops = []
    for signal, centers in ORACLE_X0.items():
        argv = ["target", "--signal", signal, "--setting", "1", "--kernel", "triangular",
                "--h", repr(ORACLE_H), "--p", "0.5",
                "--x0-grid", ",".join(repr(x0) for x0 in centers)]
        ops.append(([f"target/{signal}/{x0!r}" for x0 in centers], argv))
    ops.append((["indist"], ["indist"]))
    return ops


def _close(got, ref) -> bool:
    try:
        return abs(float(got) - float(ref)) <= ORACLE_TOL
    except (TypeError, ValueError):
        return False


def check(workload: str, outputs: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one repetition's outputs.

    An operation is one output cell (sim-spikes), one interval (ci-1e6) or
    one oracle cell (oracle-grid, where the indist call counts as one). It
    fails if it raised, is missing, or differs from the reference: exactly,
    except oracle values, which may differ by ORACLE_TOL.
    """
    messages = outputs.get("errors", [])[:5]
    if workload == "sim-spikes":
        ref_rows, got_rows = reference["rows"], outputs.get("rows", [])
        attempted = max(len(ref_rows), len(got_rows)) - 1
        failed = 0
        if got_rows[:1] != ref_rows[:1]:
            messages.append(f"CSV header {got_rows[:1]} != {ref_rows[:1]}")
            return attempted, attempted, messages
        for i in range(1, attempted + 1):
            ref = ref_rows[i] if i < len(ref_rows) else None
            got = got_rows[i] if i < len(got_rows) else None
            # theta_true is the last column; the rest must match exactly
            if got is None or ref is None or len(got) != len(ref) or got[:-1] != ref[:-1] \
                    or not _close(got[-1], ref[-1]):
                failed += 1
                if len(messages) < 5:
                    messages.append(f"cell {i}: got {got}, expected {ref}")
        return attempted, failed, messages

    ref_recs, got_recs = reference["records"], outputs.get("records", [])
    attempted = max(len(ref_recs), len(got_recs))
    failed = 0
    for i in range(attempted):
        ref = ref_recs[i] if i < len(ref_recs) else None
        got = got_recs[i] if i < len(got_recs) else None
        if workload == "oracle-grid":
            ok = (
                ref is not None and got is not None and got[0] == ref[0]
                and len(got[1]) == len(ref[1])
                and all(_close(g, r) for g, r in zip(got[1], ref[1]))
            )
        else:
            ok = got == ref
        if not ok:
            failed += 1
            if len(messages) < 5:
                messages.append(f"operation {i}: got {got}, expected {ref}")
    return attempted, failed, messages
