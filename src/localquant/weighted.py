"""Reweighted empirical CDF, its quantile inverse, and effective sample size.

The reweighted CDF at y is sum_i (w_i / sum_j w_j) * 1{y_i <= y}: a right
continuous, monotone step function climbing from 0 to 1 over the observed
responses. Its inverse at level p is the smallest observed response whose
cumulative normalized weight reaches p, so quantiles are always sample
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllWeightsZero

_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Responses paired with nonnegative localization weights.

    Immutable after construction; zero-weight rows are retained so indices
    stay aligned with the originating dataset.
    """

    responses: np.ndarray
    weights: np.ndarray
    weight_sum: float | None = None  # recomputed when omitted

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        resp = np.asarray(self.responses, dtype=float).copy()
        w = np.asarray(self.weights, dtype=float).copy()
        if resp.ndim != 1 or w.ndim != 1:
            raise ValueError("responses and weights must be 1-d")
        if resp.shape != w.shape:
            raise ValueError("responses and weights must have equal length")
        if resp.size < 1:
            raise ValueError("a weighted sample needs at least one row")
        if not np.all(np.isfinite(resp)):
            raise ValueError("responses must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        resp.flags.writeable = False
        w.flags.writeable = False
        total = float(np.sum(w))
        if self.weight_sum is None:
            object.__setattr__(self, "weight_sum", total)
        elif abs(self.weight_sum - total) > _REL_TOL * max(total, 1.0):
            raise ValueError("stored weight_sum disagrees with the recomputed sum")
        object.__setattr__(self, "responses", resp)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.responses.shape[0]

    def _sorted(self):
        """Responses in ascending order with cumulative normalized weights.

        The cumulative vector is self-normalized by its own final entry, so
        it is monotone and ends at exactly 1.0; both the CDF and the quantile
        inverse read from this one vector, which keeps them exactly
        consistent with each other.

        Only rows with positive weight are sorted. Dropping the zero-weight
        rows changes no value either function returns: they add exactly 0.0
        to the sequential cumulative sum, and the stable order among the
        remaining rows is the same.
        """
        cached = self._cache.get("sorted")
        if cached is None:
            if self.weight_sum <= 0.0:
                raise AllWeightsZero("all localization weights are zero")
            rows = np.flatnonzero(self.weights)
            order = rows[np.argsort(self.responses[rows], kind="stable")]
            resp = self.responses[order]
            cum = np.cumsum(self.weights[order])
            cum /= cum[-1]
            cached = (resp, cum)
            self._cache["sorted"] = cached
        return cached


def weighted_cdf(ws: WeightedSample, y: float) -> float:
    """Value of the reweighted empirical CDF at y."""
    resp, cum = ws._sorted()
    idx = int(np.searchsorted(resp, y, side="right"))
    return 0.0 if idx == 0 else float(cum[idx - 1])


def weighted_quantile(ws: WeightedSample, p: float) -> float:
    """Smallest observed response with cumulative normalized weight >= p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    resp, cum = ws._sorted()
    idx = int(np.searchsorted(cum, p, side="left"))
    return float(resp[min(idx, resp.shape[0] - 1)])


def effective_sample_size(ws: WeightedSample) -> float:
    """(sum w)^2 / (sum w^2): the equivalent number of equally weighted rows."""
    if ws.weight_sum <= 0.0:
        raise AllWeightsZero("all localization weights are zero")
    return float(ws.weight_sum**2 / np.sum(ws.weights**2))
