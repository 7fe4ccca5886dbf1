"""Reweighted empirical CDF, its quantile inverse, and effective sample size.

The reweighted CDF at y is sum_i (w_i / sum_j w_j) * 1{y_i <= y}: a right
continuous, monotone step function climbing from 0 to 1 over the observed
responses. Its inverse at level p is the smallest observed response whose
cumulative normalized weight reaches p, so quantiles are always sample
values.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .base import Localization, _frozen_float_array, _read_only, _stable_sort
from .errors import AllWeightsZero, DomainError, LocalQuantError


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Responses paired with nonnegative localization weights.

    Immutable after construction; zero-weight rows are retained so indices
    stay aligned with the originating dataset.
    """

    responses: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        resp = _frozen_float_array(self.responses, 1, "responses")
        w = _frozen_float_array(self.weights, 1, "weights")
        if resp.shape != w.shape:
            raise ValueError("responses and weights must have equal length")
        if resp.size < 1:
            raise ValueError("a weighted sample needs at least one row")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(np.sum(w))
        # (sum w)^2 finite keeps sum w^2 and every helper's squared sum finite
        if not math.isfinite(total * total):
            raise ValueError("the square of the weight sum must be finite (sum below 2**512)")
        object.__setattr__(self, "weight_sum", total)
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.responses.shape[0]

    @functools.cached_property
    def _localization(self) -> Localization:
        """This sample as a one-cell Localization of its positive-weight rows,
        built on first use; `kernel_max` is the largest weight. The rows left
        out add exactly 0.0 to every full-n sum and to the cumulative sum, and
        the stable order of the others is their own, so no value changes."""
        rows = np.flatnonzero(self.weights)
        weights = self.weights[None, rows]
        return Localization(len(self), float(weights.max(initial=0.0)),
                            *_read_only(self.responses[rows], weights, rows),
                            *weight_stats(weights, rows, len(self)))

    def _one_cell(self, raising=LocalQuantError) -> Localization:
        """`_localization`, after raising a fresh copy of its error if that is a `raising`."""
        loc = self._localization
        if isinstance(loc.errors[0], raising):
            raise copy.copy(loc.errors[0])
        return loc

    @functools.cached_property
    def sorted_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Responses in ascending order with cumulative normalized weights.

        The cumulative vector is self-normalized by its own final entry, so
        it is monotone and ends at exactly 1.0; both the CDF and the quantile
        inverse read from this one vector, which keeps them exactly
        consistent with each other. Built on first use from the rows with
        positive weight; raises AllWeightsZero when there is no weight.
        """
        loc = self._one_cell(AllWeightsZero)
        resp, cum = sorted_cumulative(loc.responses, loc.weights)
        return _read_only(resp, cum[0])


def sorted_cumulative(responses: np.ndarray, weights: np.ndarray):
    """The (..., m) `responses` in ascending order, equal responses in the
    order of their positions, and the cumulative normalized weights of each
    cell of the (..., C, m) `weights` in that order; each of R datasets is
    sorted on its own. A localization's rows ascend, so its ties come out in
    row order.

    A cell that is zero on some rows adds exactly 0.0 there, and this order
    restricted to its positive rows is their own order, so its cumulative
    weights there are the same bits as when only they are sorted. Cells with
    no weight stay all zero.
    """
    order, srt = _stable_sort(responses)
    # one np.take per dataset gathers faster than a take_along_axis of all of
    # them; `order` holds valid indices, so "clip" (unbuffered) never clips
    cum = np.empty(weights.shape)
    for i in np.ndindex(order.shape[:-1]):
        np.take(weights[i], order[i], axis=-1, out=cum[i], mode="clip")
    np.cumsum(cum, axis=-1, out=cum)
    last = cum[..., -1:]
    cum /= np.where(last > 0.0, last, 1.0)
    return srt, cum


def sorted_lookup(resp: np.ndarray, cum: np.ndarray, levels) -> np.ndarray:
    """Per cell k of the (..., C, m) `cum`, the first of the (..., m) `resp`
    whose cumulative weight (or count) reaches levels[..., k].

    Counting the entries below the level is exact because `cum` is monotone.
    """
    below = (cum < np.asarray(levels, dtype=float)[..., None]).sum(axis=-1)
    idx = np.minimum(below, resp.shape[-1] - 1)
    return np.take_along_axis(resp[..., None, :], idx[..., None], axis=-1)[..., 0]


def weighted_cdf(ws: WeightedSample, y: float) -> float:
    """Value of the reweighted empirical CDF at y; NaN raises DomainError."""
    if math.isnan(y):
        raise DomainError("y cannot be NaN")
    resp, cum = ws.sorted_cdf
    idx = int(np.searchsorted(resp, y, side="right"))
    return 0.0 if idx == 0 else float(cum[idx - 1])


def weighted_quantile(ws: WeightedSample, p: float) -> float:
    """Smallest observed response with cumulative normalized weight >= p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    resp, cum = ws.sorted_cdf
    return float(sorted_lookup(resp, cum[None, :], [p])[0])


def full_sums(values: np.ndarray, rows: np.ndarray, n: int, squares: bool = False):
    """Sums over the last axis of the (..., n) array that holds the (..., m)
    `values` at the ascending row indices `rows` and 0.0 at every other row;
    with `squares`, also the sums of its squares.

    Each is numpy's sum of one whole n-length row of that array, so it has the
    bits of a sum over all n rows, zero rows included. The rows are built one
    at a time in a single n-length buffer, which is squared in place for the
    second sum and freed on return; each row is written at every entry of
    `rows`, the only entries the previous row set, so the buffer needs no
    clearing in between. When `rows` is every row, `values` is that array
    already and is summed as it is.
    """
    if rows.size == n:
        sums = values.sum(axis=-1)
        # numpy's x**2 is x*x
        return (sums, (values * values).sum(axis=-1)) if squares else sums
    sums = np.empty(values.shape[:-1])
    sum_sq = np.empty(values.shape[:-1])
    full = np.zeros(n)
    for cell in np.ndindex(values.shape[:-1]):
        full[rows] = values[cell]
        sums[cell] = full.sum()
        if squares:
            np.multiply(full, full, out=full)
            sum_sq[cell] = full.sum()
    return (sums, sum_sq) if squares else sums


def weight_stats(weights: np.ndarray, rows: np.ndarray, n: int):
    """Per cell of the (..., C, m) `weights` of rows `rows` out of n: its sum,
    its effective sample size (0.0 if the cell fails), and the AllWeightsZero
    or DomainError it raises, or None, as an object array; all three are
    read-only. Both sums are over all n rows (see `full_sums`)."""
    sums, sum_sq = full_sums(weights, rows, n, squares=True)
    no_weight = sums <= 0.0
    underflow = ~no_weight & (sum_sq == 0.0)
    ok = ~(no_weight | underflow)
    n_eff = np.zeros(sums.shape)
    # total**2 on a Python float, not numpy's x*x (see wq._sigma_rows)
    n_eff[ok] = np.array([total**2 for total in sums[ok].tolist()]) / sum_sq[ok]
    errors = np.full(sums.shape, None, dtype=object)
    for cell in zip(*np.nonzero(no_weight)):
        errors[cell] = AllWeightsZero("all localization weights are zero")
    for cell in zip(*np.nonzero(underflow)):
        errors[cell] = DomainError("the squared localization weights underflow to zero")
    return _read_only(sums, n_eff, errors)


def effective_sample_size(ws: WeightedSample) -> float:
    """(sum w)^2 / (sum w^2): the equivalent number of equally weighted rows.

    Raises AllWeightsZero without weight, and DomainError when sum w^2
    underflows to zero (every weight below about 1e-162).
    """
    return float(ws._one_cell().n_eff[0])
