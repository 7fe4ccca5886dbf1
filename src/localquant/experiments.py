"""Monte Carlo coverage and width studies.

Each replicate draws a fresh dataset from the synthetic model (stream id =
replicate number), computes every requested interval on the (x0, h) grid,
and tests whether it contains the oracle quantile. Per-replicate randomness
is counter-based, so results are identical no matter how many worker threads
aggregate the replicates.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .base import QuantileSpec
from .errors import AllWeightsZero, LowEffectiveSampleSizeWarning
from .kernels import Kernel, LocalizationSpec
from .qr import qr_interval
from .rng import RngStream
from .synthetic import NoiseSetting, Signal, SyntheticModel, sample_dataset, true_theta
from .wq import wq_interval

# tag for the rejection-acceptance sub-stream of a replicate stream
_TAG_QR = 3

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

    def __post_init__(self):
        object.__setattr__(self, "bandwidths", tuple(float(h) for h in self.bandwidths))
        object.__setattr__(self, "x0_points", tuple(float(x) for x in self.x0_points))
        object.__setattr__(self, "methods", tuple(m.upper() for m in self.methods))
        if self.n_sim < 1:
            raise ValueError("n_sim must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.bandwidths or not self.x0_points:
            raise ValueError("the (x0, h) grid must be nonempty")
        for m in self.methods:
            if m not in ("WQ", "QR"):
                raise ValueError(f"unknown method {m!r}; expected WQ or QR")
        QuantileSpec(self.p, self.alpha, self.alpha1)  # validates the triple

    @property
    def quantile_spec(self) -> QuantileSpec:
        return QuantileSpec(self.p, self.alpha, self.alpha1)

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


def _replicate_results(
    config: ExperimentConfig, rep: int, specs: dict, thetas: dict
) -> list[tuple]:
    """(covered, finite, width, n_eff) per cell for one replicate."""
    rng = RngStream(config.master_seed, rep)
    data = sample_dataset(config.model, config.n, rng)
    q = config.quantile_spec
    out = []
    for cell_idx, (x0, h, method) in enumerate(config.cells):
        spec = specs[(x0, h)]
        theta = thetas[(x0, h)]
        if method == "WQ":
            try:
                res = wq_interval(data, spec, q)
            except AllWeightsZero:
                out.append((False, False, math.nan, 0.0))
                continue
        else:
            res = qr_interval(data, spec, q, rng.substream(_TAG_QR).substream(cell_idx))
        out.append((res.contains(theta), res.is_finite, res.width, res.n_eff))
    return out


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[CellSummary]:
    """Run the study and aggregate one summary per (x0, h, method) cell.

    Deterministic for a fixed config: replicates use independent
    counter-based streams, so the worker count changes only the wall time.
    """
    # one spec per (x0, h), shared by the oracle, both methods and every replicate
    specs = {
        (x0, h): LocalizationSpec(config.kernel, [x0], [h])
        for x0 in config.x0_points
        for h in config.bandwidths
    }
    thetas = {cell: true_theta(config.model, spec, config.p) for cell, spec in specs.items()}
    reps = range(1, config.n_sim + 1)
    with warnings.catch_warnings():
        # the harness reports mean_n_eff instead of warning per replicate
        warnings.simplefilter("ignore", LowEffectiveSampleSizeWarning)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(lambda r: _replicate_results(config, r, specs, thetas), reps))
        else:
            rows = [_replicate_results(config, r, specs, thetas) for r in reps]

    summaries = []
    for cell_idx, (x0, h, method) in enumerate(config.cells):
        covered = np.array([row[cell_idx][0] for row in rows], dtype=bool)
        finite = np.array([row[cell_idx][1] for row in rows], dtype=bool)
        widths = np.array([row[cell_idx][2] for row in rows], dtype=float)
        n_effs = np.array([row[cell_idx][3] for row in rows], dtype=float)
        summaries.append(
            CellSummary(
                x0=x0,
                h=h,
                method=method,
                coverage=float(np.mean(covered)),
                mean_finite_width=float(np.mean(widths[finite])) if finite.any() else math.nan,
                frac_infinite=float(np.mean(~finite)),
                mean_n_eff=float(np.mean(n_effs)),
                theta_true=thetas[(x0, h)],
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

_LIST_KEYS = {"x0", "h", "methods"}
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
