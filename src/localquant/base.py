"""Core data containers: datasets, quantile requests, interval results."""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np


def _frozen_float_array(values, ndim: int, name: str) -> np.ndarray:
    """A read-only float copy of `values` with one sign of zero: the one conversion of
    every input array a public object keeps. Raises ValueError unless the copy has
    `ndim` dimensions and finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    # adding 0.0 turns -0.0 into +0.0 and keeps every other value, so equal
    # values are equal bits and every sort gives the same order statistics
    return _read_only(arr + 0.0)[0]


def _stable_sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`order = np.argsort(values, axis=-1, kind="stable")` of a NaN-free array and
    the sorted values `np.take_along_axis(values, order, axis=-1)`, bit for bit,
    built from numpy's default (unstable) argsort, which is several times faster.

    Equal values lie in runs of the default order; each run is put back in
    position order by one in-place sort of the distinct integer keys
    run * m + position of the tied entries only, m the length of the last
    axis, whose remainders mod m are then the positions. Runs are numbered
    across the whole array, so the keys list them in the order they occupy.
    NaN equals nothing, so its runs would go undetected; every Dataset and
    Replicates array is finite.
    """
    order = np.argsort(values, axis=-1)
    srt = np.take_along_axis(values, order, axis=-1)
    tied = srt[..., 1:] == srt[..., :-1]
    if not tied.any():
        return order, srt
    edge = np.zeros(tied.shape[:-1] + (1,), dtype=bool)
    after = np.concatenate((edge, tied), axis=-1).ravel()  # equals the entry before
    before = np.concatenate((tied, edge), axis=-1).ravel()  # equals the entry after
    members = np.flatnonzero(after | before)
    runs = np.cumsum(~after[members]) - 1
    flat = order.reshape(-1)  # a view: argsort returns a new contiguous array
    m = values.shape[-1]
    keys = runs * m + flat[members]
    keys.sort()
    flat[members] = keys % m
    # equal values may differ in bits (-0.0 and 0.0), so gather them in the new order
    return order, np.take_along_axis(values, order, axis=-1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark `arrays` read-only and return them: every array a public object
    keeps or caches is frozen here, so no caller can change it."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@dataclass(frozen=True, eq=False)
class Dataset:
    """An i.i.d. sample of (covariate vector, response) rows.

    covariates has shape (n, d), responses shape (n,). `normalization`, when
    present, holds the per-column (mean, sd) used to standardize covariates so
    centers and bandwidths can be expressed in normalized units.
    """

    covariates: np.ndarray
    responses: np.ndarray
    x_names: tuple[str, ...] = ()
    y_name: str = "y"
    normalization: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov[:, None]
        object.__setattr__(self, "covariates", _frozen_float_array(cov, 2, "covariates"))
        object.__setattr__(self, "responses", _frozen_float_array(self.responses, 1, "responses"))
        if self.normalization is not None:
            norm = tuple(_frozen_float_array(a, 1, "normalization") for a in self.normalization)
            if len(norm) != 2 or any(a.shape != (self.dim,) for a in norm):
                raise ValueError(
                    f"normalization must be a (mean, sd) pair of {self.dim} entries each, "
                    f"one per covariate; got shapes {[a.shape for a in norm]}"
                )
            object.__setattr__(self, "normalization", norm)
        if self.covariates.shape[0] != self.responses.shape[0]:
            raise ValueError("covariates and responses must have the same number of rows")
        if self.responses.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        names = tuple(self.x_names or ()) or tuple(f"x{j}" for j in range(self.dim))
        if len(names) != self.dim:
            raise ValueError(f"x_names must give one name per covariate ({self.dim}), got {names}")
        object.__setattr__(self, "x_names", names)

    @property
    def n(self) -> int:
        return self.responses.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    @functools.cached_property
    def first_column_index(self) -> np.ndarray:
        """An argsort of covariate column 0 (read-only), built on first use and
        kept for the life of the dataset: `localize` binary-searches column 0
        with it as `sorter` instead of passing over every row. The order of
        tied entries reaches no result, since `localize` sorts the rows it finds."""
        return _read_only(np.argsort(self.covariates[:, 0]))[0]


@dataclass(frozen=True, eq=False)
class Replicates:
    """R datasets of n rows each, stacked on a leading replicate axis.

    covariates has shape (R, n, d), responses shape (R, n); both are
    converted as every Dataset array is (read-only, finite, one sign of zero).
    """

    covariates: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        cov = _frozen_float_array(self.covariates, 3, "covariates")
        resp = _frozen_float_array(self.responses, 2, "responses")
        if cov.shape[:2] != resp.shape or resp.shape[1] < 1:
            raise ValueError(f"covariates {cov.shape} and responses {resp.shape} must be "
                             "(R, n, d) and (R, n) with n >= 1")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "responses", resp)

    @property
    def n(self) -> int:
        return self.responses.shape[1]

    @property
    def dim(self) -> int:
        return self.covariates.shape[2]


@dataclass(frozen=True, eq=False)
class Localization:
    """Kernel weights of C cells on one dataset of n rows, or on each of R replicates.

    Only the rows `rows`, in ascending order, are kept: `weights` is (C, m) or
    (R, C, m), [..., k, j] the weight of row rows[j] in cell k, and `responses`
    is (m,) or (R, m), [..., j] the response of row rows[j]; every other row has
    weight zero in every cell. So a stable sort of the responses breaks ties
    by row index, as the reference order of both methods does. On a Dataset
    `rows` are the rows with positive weight in some cell, so no array has n
    entries unless all rows have weight; on Replicates they are all n rows and
    `responses` is the replicates' own array. `weight_sum`, `n_eff` and
    `errors` are `weighted.weight_stats(weights, rows, n)`, one per cell.
    All are read-only.
    """

    n: int
    kernel_max: float
    responses: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    weight_sum: np.ndarray
    n_eff: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True)
class QuantileSpec:
    """Quantile level and miscoverage split for an interval request.

    alpha is the total miscoverage, alpha1 the share spent on the lower tail;
    the upper tail gets alpha2 = alpha - alpha1.
    """

    p: float
    alpha: float
    alpha1: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 <= self.alpha1 <= self.alpha:
            raise ValueError("alpha1 must lie in [0, alpha]")

    @property
    def alpha2(self) -> float:
        return self.alpha - self.alpha1


@dataclass(frozen=True)
class IntervalResult:
    """A confidence interval with method diagnostics.

    Endpoints are extended reals; only the order-statistic based methods
    (QR, DFQ) may return infinite endpoints.
    """

    lower: float
    upper: float
    method: str
    n_eff: float
    accepted: int | None = None
    p_hat_lo: float | None = None
    p_hat_hi: float | None = None
    sigma_hat: float | None = None

    def __post_init__(self):
        if self.method not in ("WQ", "QR", "DFQ"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints cannot be NaN")
        if self.lower > self.upper:
            raise ValueError("interval endpoints out of order")
        if self.method == "WQ" and not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("WQ intervals must have finite endpoints")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True, eq=False)
class IntervalBatch:
    """One interval per cell, as arrays indexed by cell.

    The cells have the shape of the localization's weight sums: (C,) for one
    dataset, (R, C) for R replicates. `errors[k]` is the LocalQuantError cell
    k raises, or None; a failed cell has NaN endpoints. `details` maps further
    IntervalResult fields (`accepted`, or `p_hat_lo`, `p_hat_hi` and
    `sigma_hat`) to arrays of the same shape.
    """

    method: str
    lower: np.ndarray
    upper: np.ndarray
    n_eff: np.ndarray
    errors: np.ndarray
    details: dict

    def result(self, k) -> IntervalResult:
        """Cell k (an index into the cell shape) as an IntervalResult; a failed
        cell raises a copy of its stored error, which never gets a traceback."""
        if self.errors[k] is not None:
            raise copy.copy(self.errors[k])
        extra = {name: values[k].item() for name, values in self.details.items()}
        return IntervalResult(
            float(self.lower[k]), float(self.upper[k]), self.method, float(self.n_eff[k]), **extra
        )
