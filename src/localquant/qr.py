"""Quantile Rejection confidence interval.

Rejection sampling thins the data to i.i.d. draws from the localized
distribution: row i is kept when U_i <= w_i with w_i the kernel weight
scaled by the kernel maximum. The order-statistic CI applied to the kept
responses is then valid in finite samples for every n and every underlying
distribution. An empty acceptance yields the trivial interval, never an
error.
"""

from __future__ import annotations

import numpy as np

from .base import Dataset, IntervalBatch, IntervalResult, Localization, QuantileSpec
from .errors import DomainError
from .kernels import LocalizationSpec, localize
from .orderstat import sorted_quantile_cis
from .rng import RngStream, stream_uniforms


def _accepted(loc: Localization, streams) -> np.ndarray:
    """(..., C, m) mask over loc.rows: U_i <= w_i / kernel_max for draw i of
    the stream of each cell; `streams` has one stream (or integer key) per cell.

    A zero-weight row is never kept, since every draw is positive, so only
    the draws of loc.rows are computed.
    """
    draws = stream_uniforms(streams, loc.rows)
    return draws <= loc.weights / loc.kernel_max


def rejection_sample(data: Dataset, spec: LocalizationSpec, rng: RngStream) -> np.ndarray:
    """Indices of rows accepted as i.i.d. draws from the localized law, ascending
    as the rows of a localization are.

    Row i is judged by draw i of the stream, whatever the weights of the
    other rows, so the accepted set is invariant to any weight-pruning
    shortcut.
    """
    loc = localize(data, [spec])
    return loc.rows[_accepted(loc, [rng])[0]]


def qr_cells(loc: Localization, q: QuantileSpec, streams) -> IntervalBatch:
    """Quantile Rejection intervals of every cell of `loc`; cell k draws from streams[k].

    `streams` holds one RngStream per cell, in (nested) sequences with the
    shape of the cells, or is an integer array of stream keys of that shape.
    Each cell's accepted responses are sorted as a sample of their own, and
    the cell's interval is the distribution-free CI of that sample, as
    `df_quantile_ci` gives it. A cell without accepted rows gets the trivial
    interval; a cell fails only with the DomainError of an underflowing n_eff,
    and a failed cell has NaN endpoints. Raises ValueError unless `streams`
    has the shape of the cells.
    """
    if np.shape(streams) != loc.weight_sum.shape:
        raise ValueError(f"qr_cells needs one stream per cell, of shape {loc.weight_sum.shape}; "
                         f"got streams of shape {np.shape(streams)}")
    accept = _accepted(loc, streams)
    sizes = np.count_nonzero(accept, axis=-1)
    # only values are read, and every Dataset and Replicates array holds one sign
    # of zero, so the default sort gives the bits of a stable one
    ys = np.where(accept, loc.responses[..., None, :], np.inf)
    ys.sort(axis=-1)
    lower, upper = sorted_quantile_cis(ys[..., :sizes.max(initial=0)], sizes,
                                       q.p, q.alpha1, q.alpha2)
    errors = loc.errors.copy()
    for cell in zip(*np.nonzero(np.not_equal(errors, None))):
        if not isinstance(errors[cell], DomainError):
            errors[cell] = None
    failed = np.not_equal(errors, None)
    lower, upper = (np.where(failed, np.nan, ends) for ends in (lower, upper))
    return IntervalBatch("QR", lower, upper, loc.n_eff, errors, {"accepted": sizes})


def qr_interval(
    data: Dataset, spec: LocalizationSpec, q: QuantileSpec, rng: RngStream
) -> IntervalResult:
    """Quantile Rejection confidence interval for the local p-th quantile.

    Valid for every sample size; degenerate inputs (no weight, no accepted
    rows) produce the whole real line rather than an error.
    """
    return qr_cells(localize(data, [spec]), q, [rng]).result(0)
