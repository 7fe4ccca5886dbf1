"""Weighted Quantile confidence interval.

Endpoints are quantiles of the reweighted empirical CDF taken at levels
p_hat_1/2 = p + z * sigma_hat / sqrt(n), where sigma_hat is the plug-in
standard deviation of the reweighted CDF at the estimated quantile and z is
the standard normal quantile at alpha1 (lower) and 1 - alpha + alpha1
(upper). The resulting interval has asymptotic 1 - alpha coverage and both
endpoints are always observed responses.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import ndtri

from .base import Dataset, IntervalResult, QuantileSpec
from .errors import AllWeightsZero, DomainError, LowEffectiveSampleSizeWarning
from .kernels import LocalizationSpec, localization_weights
from .weighted import WeightedSample, effective_sample_size, weighted_quantile

# below this effective sample size the normal calibration is unreliable
NEFF_GUIDELINE = 10.0

# smallest level weighted_quantile accepts; used when p_hat falls at or
# below 0, which selects the smallest response carrying positive weight
_TINY_LEVEL = np.nextafter(0.0, 1.0)


def sigma_hat_p(ws: WeightedSample, p: float, theta_tilde: float) -> float:
    """Plug-in standard deviation of the reweighted CDF at theta_tilde.

    Returns sqrt of [n^-1 sum w_i^2 (1{y_i <= theta_tilde} - p)^2] divided by
    [n^-1 sum w_i]^2, with n the raw row count including zero-weight rows.
    Raises DomainError when the squared mean weight underflows to zero.
    """
    if ws.weight_sum <= 0.0:
        raise AllWeightsZero("all localization weights are zero")
    dev = (ws.responses <= theta_tilde).astype(float) - p
    num = float(np.mean(ws.weights**2 * dev**2))
    den = float(np.mean(ws.weights)) ** 2
    if den == 0.0:
        raise DomainError("the squared mean localization weight underflows to zero")
    return math.sqrt(num / den)


def _clamp_level(level: float) -> float:
    """Restrict a nominal CDF level to the domain (0, 1] of the inverse."""
    return min(max(level, _TINY_LEVEL), 1.0)


def wq_interval(data: Dataset, spec: LocalizationSpec, q: QuantileSpec) -> IntervalResult:
    """Weighted Quantile confidence interval for the local p-th quantile.

    Raises AllWeightsZero when no sample carries weight; emits
    LowEffectiveSampleSizeWarning when the effective sample size is below 10,
    where the asymptotic calibration is not trustworthy.
    """
    ws = localization_weights(data, spec)
    if ws.weight_sum <= 0.0:
        raise AllWeightsZero("all localization weights are zero")
    n_eff = effective_sample_size(ws)
    if n_eff < NEFF_GUIDELINE:
        warnings.warn(
            f"effective sample size {n_eff:.2f} < {NEFF_GUIDELINE:g}; "
            "coverage of the WQ interval is not reliable",
            LowEffectiveSampleSizeWarning,
            stacklevel=2,
        )
    theta_tilde = weighted_quantile(ws, q.p)
    sigma = sigma_hat_p(ws, q.p, theta_tilde)
    root_n = math.sqrt(data.n)
    p_hat_1 = q.p + ndtri(q.alpha1) * sigma / root_n
    p_hat_2 = q.p + ndtri(1.0 - q.alpha + q.alpha1) * sigma / root_n
    # z_{alpha1} < z_{1-alpha+alpha1} whenever alpha < 1, so the levels are
    # ordered unless one is NaN: with alpha1 = 0, z = -inf meets a sigma that
    # underflowed to 0 because the weights are tiny
    if not p_hat_1 <= p_hat_2:
        raise DomainError(
            f"WQ levels are not ordered (p_hat_lo={float(p_hat_1)!r}, "
            f"p_hat_hi={float(p_hat_2)!r}, sigma_hat={sigma!r}): the localization "
            "weights are too small for the plug-in variance"
        )
    lower = weighted_quantile(ws, _clamp_level(p_hat_1))
    upper = weighted_quantile(ws, _clamp_level(p_hat_2))
    return IntervalResult(
        lower=lower,
        upper=upper,
        method="WQ",
        n_eff=n_eff,
        p_hat_lo=p_hat_1,
        p_hat_hi=p_hat_2,
        sigma_hat=sigma,
    )
