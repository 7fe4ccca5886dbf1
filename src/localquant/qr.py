"""Quantile Rejection confidence interval.

Rejection sampling thins the data to i.i.d. draws from the localized
distribution: row i is kept when U_i <= w_i with w_i the kernel weight
scaled by the kernel maximum. The order-statistic CI applied to the kept
responses is then valid in finite samples for every n and every underlying
distribution. An empty acceptance yields the trivial interval, never an
error.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Dataset, IntervalResult, QuantileSpec
from .kernels import LocalizationSpec, localization_weights
from .orderstat import df_quantile_ci
from .rng import RngStream
from .weighted import WeightedSample, effective_sample_size


def _accepted_rows(ws: WeightedSample, spec: LocalizationSpec, rng: RngStream) -> np.ndarray:
    """Rows i, ascending, with U_i <= w_i / kernel_max for draw U_i of `rng`.

    A zero-weight row is never kept, since every draw is positive, so only
    the draws of rows with positive weight are computed.
    """
    rows = np.flatnonzero(ws.weights)
    return rows[rng.uniforms_at(rows) <= ws.weights[rows] / spec.kernel_max]


def rejection_sample(data: Dataset, spec: LocalizationSpec, rng: RngStream) -> np.ndarray:
    """Indices of rows accepted as i.i.d. draws from the localized law.

    Row i is judged by draw i of the stream, whatever the weights of the
    other rows, so the accepted set is invariant to any weight-pruning
    shortcut.
    """
    return _accepted_rows(localization_weights(data, spec), spec, rng)


def qr_interval(
    data: Dataset, spec: LocalizationSpec, q: QuantileSpec, rng: RngStream
) -> IntervalResult:
    """Quantile Rejection confidence interval for the local p-th quantile.

    Valid for every sample size; degenerate inputs (no weight, no accepted
    rows) produce the whole real line rather than an error.
    """
    ws = localization_weights(data, spec)
    accepted = _accepted_rows(ws, spec, rng)
    n_eff = effective_sample_size(ws) if ws.weight_sum > 0.0 else 0.0
    if accepted.size == 0:
        return IntervalResult(
            lower=-math.inf, upper=math.inf, method="QR", n_eff=n_eff, accepted=0
        )
    sub = df_quantile_ci(data.responses[accepted], q.p, q.alpha1, q.alpha2)
    return IntervalResult(
        lower=sub.lower,
        upper=sub.upper,
        method="QR",
        n_eff=n_eff,
        accepted=int(accepted.size),
    )
