"""Localization kernels and per-sample weights.

Each kernel is a bounded symmetric density on the real line; multivariate
localization uses the product of 1-d kernels with per-dimension bandwidths,
so the maximum of the product kernel stays exactly computable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .base import Dataset, Localization, Replicates, _frozen_float_array, _read_only
from .errors import DimensionMismatch
from .weighted import WeightedSample, weight_stats

# weights below this are flushed to exactly zero to keep subnormal noise
# out of weight sums
_WEIGHT_FLOOR = 1e-300

# widening of the support window, relative to |center| + radius * bandwidth
_WINDOW_MARGIN = 1e-12
_TINY_NORMAL = float(np.finfo(float).tiny)

# truncation radius for the gaussian kernel; keeps the maximum finite so
# rejection sampling stays valid
_GAUSS_RADIUS = 5.0
_GAUSS_NORM = 2.0 * ndtr(_GAUSS_RADIUS) - 1.0


class Kernel(enum.Enum):
    """Supported 1-d kernel families; all integrate to 1."""

    TRIANGULAR = "triangular"
    BIWEIGHT = "biweight"
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"  # truncated at |u| <= 5 and renormalized

    @classmethod
    def from_name(cls, name: str) -> "Kernel":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kernel {name!r}; expected one of: {valid}") from None

    @property
    def max_value(self) -> float:
        """sup_u K(u), attained at u = 0."""
        return self.evaluate(0.0)

    @property
    def support_radius(self) -> float:
        """Half-width of the support of K."""
        return _GAUSS_RADIUS if self is Kernel.GAUSSIAN else 1.0

    def evaluate(self, u):
        """K(u), elementwise; zero outside the support.

        Except for the uniform kernel's, every step of a formula writes into
        the one output array, in the order of the expression it computes (the
        Gaussian's exponent is (-0.5 * u) * u), so the bits are those of the
        expression.
        """
        u = np.asarray(u, dtype=float)
        # the uniform kernel stays one expression: its temporaries do not raise
        # a study chunk's traced peak
        if self is Kernel.UNIFORM:
            out = np.where(np.abs(u) <= 1.0, 0.5, 0.0)
            return float(out) if out.ndim == 0 else out
        out = np.empty(u.shape)  # ufuncs keep a 0-d `out` an array
        if self is Kernel.TRIANGULAR:  # max(0, 1 - |u|)
            np.subtract(1.0, np.abs(u, out=out), out=out)
            np.maximum(0.0, out, out=out)
        elif self is Kernel.BIWEIGHT:  # (15/16) max(0, 1 - u u)**2, numpy's **2 being x*x
            np.subtract(1.0, np.multiply(u, u, out=out), out=out)
            np.maximum(0.0, out, out=out)
            np.multiply(out, out, out=out)
            np.multiply(15.0 / 16.0, out, out=out)
        else:  # exp(-u u / 2) / sqrt(2 pi) / _GAUSS_NORM where |u| <= _GAUSS_RADIUS
            outside = ~(np.abs(u, out=out) <= _GAUSS_RADIUS)
            np.multiply(-0.5, u, out=out)
            np.multiply(out, u, out=out)
            np.exp(out, out=out)
            np.divide(out, math.sqrt(2.0 * math.pi), out=out)
            np.divide(out, _GAUSS_NORM, out=out)
            out[outside] = 0.0
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class LocalizationSpec:
    """Kernel family, center point, and per-dimension bandwidths.

    Defines the covariate reweighting: sample i receives weight
    prod_j K((center_j - X_ij) / bandwidths_j).
    """

    kernel: Kernel
    center: np.ndarray
    bandwidths: np.ndarray

    def __post_init__(self):
        center = _frozen_float_array(np.atleast_1d(self.center), 1, "center")
        bw = _frozen_float_array(np.atleast_1d(self.bandwidths), 1, "bandwidths")
        if center.shape != bw.shape:
            raise ValueError("center and bandwidths must have equal length")
        if center.size < 1:
            raise ValueError("at least one dimension is required")
        if np.any(bw <= 0.0):
            raise ValueError("bandwidths must be strictly positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "bandwidths", bw)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def kernel_max(self) -> float:
        """Maximum of the product kernel: product of per-dimension maxima."""
        return self.kernel.max_value ** self.dim


def localize(data: Dataset | Replicates, specs) -> Localization:
    """Kernel weights of every row of `data` for each spec (cell) in `specs`.

    The specs share one kernel. On a Dataset the kernel is evaluated only on
    the rows whose first covariate lies in one span, from the lowest lower
    end to the highest upper end of the cells' dimension-0 support windows,
    found by one binary search of column 0 in `data.first_column_index`
    order and then put in ascending row order; every other row has a zero
    factor in each cell's product kernel. Replicates are evaluated on every
    row. Each cell is evaluated with the same elementwise operations as a
    single cell, and a row outside a cell's own window has |u| beyond the
    support radius in floating point (or u overflows to infinity), so it gets
    exactly 0 there.

    On a Dataset only the span's rows with positive weight in some cell are
    kept, in ascending order, with their weights and responses; the sums over
    all n rows are taken from them by `weighted.full_sums`.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("at least one localization spec is required")
    kernel = specs[0].kernel
    for spec in specs:
        if spec.kernel is not kernel:
            raise ValueError("the cells of one localization must share a kernel")
        if data.dim != spec.dim:
            raise DimensionMismatch(
                f"dataset has {data.dim} covariate(s) but the localization spec has {spec.dim}"
            )
    centers = np.array([spec.center for spec in specs])
    bandwidths = np.array([spec.bandwidths for spec in specs])
    if isinstance(data, Dataset):
        order = data.first_column_index
        center = centers[:, 0]
        half = kernel.support_radius * bandwidths[:, 0]
        # the relative margin dwarfs the rounding of (center - x) / h and of the
        # window ends, so a row left out (x <= lower end or x > upper end) has
        # |u| > support_radius in floating point too; the floor keeps the
        # margin a normal number when center and half-width are tiny
        margin = np.maximum(_WINDOW_MARGIN * (np.abs(center) + half), _TINY_NORMAL)
        ends = (np.min(center - half - margin), np.max(center + half + margin))
        lo, hi = np.searchsorted(data.covariates[:, 0], ends, "right", sorter=order)
        span = np.sort(order[lo:hi])
    else:
        span = slice(None)
    with np.errstate(over="ignore"):
        # (..., C, m, d): a cell axis before the rows of each dataset; u, K(u) and
        # their product share one name, so each is freed once the next is made
        local = centers[:, None, :] - data.covariates[..., None, span, :]
        local /= bandwidths[:, None, :]
        local = kernel.evaluate(local)
        local = np.prod(local, axis=-1)
    # K(u) >= 0, so multiplying by the test gives the weights below the floor
    # +0.0 as assigning through the mask would, and runs faster
    local *= local >= _WEIGHT_FLOOR
    if isinstance(data, Dataset):
        support = local.any(axis=0)
        # compress keeps the cells' rows contiguous, as numpy's sums need for their bits
        rows, weights = span[support], local.compress(support, axis=1)
        responses = data.responses[rows]
    else:
        rows, weights, responses = np.arange(data.n), local, data.responses
    return Localization(data.n, specs[0].kernel_max, *_read_only(responses, weights, rows),
                        *weight_stats(weights, rows, data.n))


def localization_weights(data: Dataset, spec: LocalizationSpec) -> WeightedSample:
    """Attach kernel weights to every row of `data`.

    Row order is preserved and responses are copied unchanged; rows outside
    the kernel support get weight exactly 0 and are retained so indices stay
    aligned with the input. The weights are those of `localize` with one cell.
    """
    loc = localize(data, [spec])
    weights = np.zeros(data.n)
    weights[loc.rows] = loc.weights[0]
    return WeightedSample(responses=data.responses, weights=weights)
