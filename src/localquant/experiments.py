"""Monte Carlo coverage and width studies.

Each replicate draws a fresh dataset from the synthetic model (stream id =
replicate number), computes every requested interval on the (x0, h) grid,
and tests whether it contains the oracle quantile. Replicates are computed in
chunks, with a leading replicate axis through the interval engine.
Per-replicate randomness is counter-based, so results are identical no matter
how the replicates are chunked or how many worker threads share the chunks.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .base import QuantileSpec
from .errors import AllWeightsZero
from .kernels import Kernel, LocalizationSpec, localize
from .qr import qr_cells
from .rng import stream_keys, substream_keys
from .synthetic import NoiseSetting, Signal, SyntheticModel, sample_replicates, true_theta
from .wq import wq_cells

# tag for the rejection-acceptance sub-stream of a replicate stream
_TAG_QR = 3

# weights (replicate x cell x row) per chunk of replicates: 16 replicates of
# 20 cells at n = 200. A chunk's engine passes write into arrays they own, so
# its traced peak is 3.4 to 3.7 float64 arrays of this size (512 KiB each),
# by kernel
_CHUNK_ELEMENTS = 65_536

CSV_COLUMNS = (
    "signal",
    "setting",
    "kernel",
    "p",
    "x0",
    "h",
    "method",
    "coverage",
    "mean_width",
    "frac_inf",
    "mean_neff",
    "theta_true",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One coverage/width study over an (x0, h) grid."""

    model: SyntheticModel
    kernel: Kernel
    bandwidths: tuple[float, ...]
    x0_points: tuple[float, ...]
    p: float
    alpha: float
    alpha1: float
    n: int
    n_sim: int
    master_seed: int
    methods: tuple[str, ...] = ("WQ", "QR")
    # one spec per (x0, h), in cell order, shared by the oracle and every replicate
    specs: tuple[LocalizationSpec, ...] = field(init=False, repr=False, compare=False)
    quantile_spec: QuantileSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "n_sim", "master_seed"):
            # numpy integers work, and a float raises TypeError here, before any work
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "bandwidths", tuple(float(h) for h in self.bandwidths))
        object.__setattr__(self, "x0_points", tuple(float(x) for x in self.x0_points))
        object.__setattr__(self, "methods", tuple(m.upper() for m in self.methods))
        if self.n_sim < 1:
            raise ValueError("n_sim must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.bandwidths or not self.x0_points:
            raise ValueError("the (x0, h) grid must be nonempty")
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in ("WQ", "QR"):
                raise ValueError(f"unknown method {m!r}; expected WQ or QR")
        object.__setattr__(self, "specs", tuple(
            LocalizationSpec(self.kernel, [x0], [h])
            for x0 in self.x0_points for h in self.bandwidths))
        object.__setattr__(self, "quantile_spec", QuantileSpec(self.p, self.alpha, self.alpha1))

    @property
    def cells(self) -> list[tuple[float, float, str]]:
        """(x0, h, method) triples in output order."""
        return [
            (x0, h, m)
            for x0 in self.x0_points
            for h in self.bandwidths
            for m in self.methods
        ]


@dataclass(frozen=True)
class CellSummary:
    """Aggregated results for one (x0, h, method) cell."""

    x0: float
    h: float
    method: str
    coverage: float
    mean_finite_width: float
    frac_infinite: float
    mean_n_eff: float
    theta_true: float


def _chunk_results(config: ExperimentConfig, reps: range, thetas: np.ndarray) -> np.ndarray:
    """(covered, finite, width, n_eff) of replicates `reps`: shape (4, cells, len(reps)).

    Every (x0, h) cell of both methods of every replicate comes from one
    localization of the chunk. A WQ cell without weight counts as not covered
    and not finite; any other failure is raised, the first in (replicate,
    cell) order.
    """
    keys = stream_keys(config.master_seed, reps)
    data = sample_replicates(config.model, config.n, config.master_seed, keys)
    loc = localize(data, config.specs)
    q = config.quantile_spec
    m = len(config.methods)
    out = np.empty((4, len(config.specs) * m, len(reps)))
    failures = []
    for j, method in enumerate(config.methods):
        if method == "WQ":
            batch = wq_cells(loc, q)
        else:
            # cell k draws from stream 2k + 1 of the replicate's QR substream, its
            # QR column in a (WQ, QR) study, whatever the method list: its draws
            # depend on (seed, replicate, x0, h) only
            qr_keys = substream_keys(config.master_seed, keys, [_TAG_QR])[:, 0]
            cell_tags = range(1, 2 * len(config.specs), 2)
            batch = qr_cells(loc, q, substream_keys(config.master_seed, qr_keys, cell_tags))
        failures += [(r, k * m + j, batch.errors[r, k])
                     for r, k in zip(*np.nonzero(np.not_equal(batch.errors, None)))
                     if not isinstance(batch.errors[r, k], AllWeightsZero)]
        out[:, j::m] = np.swapaxes((
            (batch.lower <= thetas) & (thetas <= batch.upper),
            np.isfinite(batch.lower) & np.isfinite(batch.upper),
            batch.upper - batch.lower,
            batch.n_eff,
        ), 1, 2)
    if failures:
        raise copy.copy(min(failures, key=lambda f: f[:2])[2])
    return out


def _chunks(config: ExperimentConfig) -> list[range]:
    """Replicates 1..n_sim in order, in chunks of at most _CHUNK_ELEMENTS
    (replicate x cell x row) weights and at least one replicate each."""
    size = max(1, _CHUNK_ELEMENTS // (len(config.specs) * config.n))
    return [range(first, min(first + size, config.n_sim + 1))
            for first in range(1, config.n_sim + 1, size)]


def _study_stats(config: ExperimentConfig, thetas: np.ndarray, workers: int = 1) -> np.ndarray:
    """(covered, finite, width, n_eff) of every replicate: shape (4, cells, n_sim).

    `workers` threads share the chunks; the first failure of the earliest
    chunk is raised. The array is a new C-contiguous one, so each cell's
    series is contiguous and its means add in the same order as over a 1-d
    array of the replicates.
    """
    chunks = _chunks(config)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda reps: _chunk_results(config, reps, thetas), chunks))
    else:
        parts = [_chunk_results(config, reps, thetas) for reps in chunks]
    return np.concatenate(parts, axis=2)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[CellSummary]:
    """Run the study and aggregate one summary per (x0, h, method) cell.

    Replicates run in chunks of a fixed number of weights, so memory per
    chunk is bounded whatever n_sim is, and `workers` threads share the
    chunks. Deterministic for a fixed config: replicates use independent
    counter-based streams, so neither the chunks nor the worker count change
    any result. Raises TypeError unless `workers` is an integer, and
    ValueError when it is below 1.
    """
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    thetas = np.array([true_theta(config.model, spec, config.p) for spec in config.specs])
    stats = _study_stats(config, thetas, workers)

    summaries = []
    for cell_idx, (x0, h, method) in enumerate(config.cells):
        covered, finite, widths, n_effs = stats[:, cell_idx]
        finite = finite.astype(bool)
        summaries.append(
            CellSummary(
                x0=x0,
                h=h,
                method=method,
                coverage=float(np.mean(covered.astype(bool))),
                mean_finite_width=float(np.mean(widths[finite])) if finite.any() else math.nan,
                frac_infinite=float(np.mean(~finite)),
                mean_n_eff=float(np.mean(n_effs)),
                theta_true=float(thetas[cell_idx // len(config.methods)]),
            )
        )
    return summaries


def write_summaries(stream, runs):
    """Write a CSV with one row per cell; `runs` is (config, summaries) pairs."""
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for config, summaries in runs:
        for s in summaries:
            writer.writerow(
                [
                    config.model.signal.value,
                    config.model.noise.value,
                    config.kernel.value,
                    repr(config.p),
                    repr(s.x0),
                    repr(s.h),
                    s.method,
                    repr(s.coverage),
                    repr(s.mean_finite_width),
                    repr(s.frac_infinite),
                    repr(s.mean_n_eff),
                    repr(s.theta_true),
                ]
            )


def summaries_csv(config: ExperimentConfig, summaries: list[CellSummary]) -> str:
    buf = io.StringIO()
    write_summaries(buf, [(config, summaries)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# config files and presets

_REQUIRED_KEYS = {"signal", "setting", "kernel", "p", "alpha", "alpha1", "n", "n_sim", "seed",
                  "x0", "h"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key-value config format.

    One `key = value` pair per line; `#` starts a comment; list values
    (x0, h, methods) are comma- or whitespace-separated.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = val

    missing = _REQUIRED_KEYS - values.keys()
    if missing:
        raise ValueError(f"config is missing keys: {', '.join(sorted(missing))}")
    known = _REQUIRED_KEYS | {"methods"}
    unknown = values.keys() - known
    if unknown:
        raise ValueError(f"config has unknown keys: {', '.join(sorted(unknown))}")

    def floats(key):
        return tuple(float(tok) for tok in values[key].replace(",", " ").split())

    methods = ("WQ", "QR")
    if "methods" in values:
        methods = tuple(tok.upper() for tok in values["methods"].replace(",", " ").split())

    return ExperimentConfig(
        model=SyntheticModel(
            Signal.from_name(values["signal"]), NoiseSetting.from_number(int(values["setting"]))
        ),
        kernel=Kernel.from_name(values["kernel"]),
        bandwidths=floats("h"),
        x0_points=floats("x0"),
        p=float(values["p"]),
        alpha=float(values["alpha"]),
        alpha1=float(values["alpha1"]),
        n=int(values["n"]),
        n_sim=int(values["n_sim"]),
        master_seed=int(values["seed"]),
        methods=methods,
    )


# x0 grids sit at extreme points or rapid-variation points of each signal
_SIGNAL_X0 = {
    Signal.STEP: (0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8),
    Signal.BLIP: (0.2, 0.3, 0.5, 0.8, 0.9),
    Signal.SPIKES: (0.23, 0.33, 0.47, 0.69, 0.83),
    Signal.BUMPS: (0.15, 0.25, 0.4, 0.65, 0.78),
    Signal.PARABOLAS: (0.1, 0.37, 0.41, 0.5, 0.7),
    Signal.ANGLES: (0.15, 0.2, 0.6, 0.65, 0.85),
}

_STUDY_H = (0.1, 0.08, 0.06, 0.04)
_PRESET_SEED = 20240817


def _study_config(signal: Signal, setting: int, kernel: Kernel, p: float,
                  n_sim: int = 1000) -> ExperimentConfig:
    return ExperimentConfig(
        model=SyntheticModel(signal, NoiseSetting.from_number(setting)),
        kernel=kernel,
        bandwidths=_STUDY_H,
        x0_points=_SIGNAL_X0[signal],
        p=p,
        alpha=0.1,
        alpha1=0.05,
        n=200,
        n_sim=n_sim,
        master_seed=_PRESET_SEED,
    )


PRESETS = {
    "paper-spikes-s1": _study_config(Signal.SPIKES, 1, Kernel.TRIANGULAR, 0.5),
    "quick-spikes-s1": _study_config(Signal.SPIKES, 1, Kernel.TRIANGULAR, 0.5, n_sim=50),
}


def full_grid_configs(n_sim: int = 1000) -> list[ExperimentConfig]:
    """The long-running 6 signals x 3 settings x 2 kernels x 3 quantiles grid."""
    return [
        _study_config(signal, setting, kernel, p, n_sim=n_sim)
        for signal in Signal
        for setting in (1, 2, 3)
        for kernel in (Kernel.TRIANGULAR, Kernel.BIWEIGHT)
        for p in (0.2, 0.5, 0.7)
    ]
