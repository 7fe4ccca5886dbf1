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

from .base import Dataset, IntervalBatch, IntervalResult, Localization, QuantileSpec
from .errors import AllWeightsZero, DomainError, LowEffectiveSampleSizeWarning
from .kernels import LocalizationSpec, localize
from .weighted import WeightedSample, full_sums, sorted_cumulative, sorted_lookup

# below this effective sample size the normal calibration is unreliable
NEFF_GUIDELINE = 10.0

# smallest level of the quantile inverse; used when p_hat falls at or below
# 0, which selects the smallest response carrying positive weight
_TINY_LEVEL = float(np.nextafter(0.0, 1.0))


def _sigma_rows(loc: Localization, p: float, thetas):
    """sigma_hat_p of each cell of `loc` at thetas[..., k], from the weights and
    responses of its rows; NaN where the squared mean weight underflows to zero."""
    # w**2 * (1{y <= theta} - p)**2, with numpy's **2 being x*x and the second
    # factor exactly (1 - p)*(1 - p) or p*p, multiplied in one cell at a time so
    # that no second array of every cell's rows is made; a row outside loc.rows
    # has weight 0.0, so its term is the 0.0 that full_sums puts there
    terms = np.multiply(loc.weights, loc.weights)
    thetas = np.asarray(thetas)
    for k in range(terms.shape[-2]):
        terms[..., k, :] *= np.where(loc.responses <= thetas[..., k, None],
                                     (1.0 - p) * (1.0 - p), p * p)
    # sums / n is np.mean bit for bit; Python's ** (C pow) differs from numpy's
    # x*x in the last bit for some x, and tests/data and perfbench/reference.json use **
    nums = full_sums(terms, loc.rows, loc.n) / loc.n
    means = (loc.weight_sum / loc.n).ravel().tolist()
    dens = np.array([mean**2 for mean in means]).reshape(nums.shape)
    sigmas = np.full(nums.shape, math.nan)
    ok = dens != 0.0
    sigmas[ok] = np.sqrt(nums[ok] / dens[ok])
    return sigmas


def sigma_hat_p(ws: WeightedSample, p: float, theta_tilde: float) -> float:
    """Plug-in standard deviation of the reweighted CDF at theta_tilde.

    Returns sqrt of [n^-1 sum w_i^2 (1{y_i <= theta_tilde} - p)^2] divided by
    [n^-1 sum w_i]^2, with n the raw row count including zero-weight rows.
    Raises ValueError unless 0 < p < 1, and DomainError when theta_tilde is
    NaN or the squared mean weight underflows to zero.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if math.isnan(theta_tilde):
        raise DomainError("theta_tilde cannot be NaN")
    sigma = _sigma_rows(ws._one_cell(AllWeightsZero), p, [theta_tilde])[0]
    if math.isnan(sigma):
        raise DomainError("the squared mean localization weight underflows to zero")
    return float(sigma)


def wq_cells(loc: Localization, q: QuantileSpec) -> IntervalBatch:
    """Weighted Quantile intervals of every cell of `loc`, computed together.

    The rows `loc.rows` of a dataset are sorted once for all cells; each
    cell reads its quantiles from its own cumulative weights in that order. A
    cell fails with AllWeightsZero when it has no weight, and with
    DomainError when its weights are too small for n_eff, sigma_hat or
    ordered levels. Emits no warnings.
    """
    shape = loc.weight_sum.shape
    errors = loc.errors.copy()
    if not loc.rows.size:  # no cell has weight
        nan = np.full(shape, math.nan)
        details = dict.fromkeys(("p_hat_lo", "p_hat_hi", "sigma_hat"), nan)
        return IntervalBatch("WQ", nan, nan, loc.n_eff, errors, details)
    srt, cum = sorted_cumulative(loc.responses, loc.weights)
    thetas = sorted_lookup(srt, cum, np.full(shape, q.p))
    sigmas = _sigma_rows(loc, q.p, thetas)
    root_n = math.sqrt(loc.n)
    z_lo = float(ndtri(q.alpha1))
    z_hi = float(ndtri(1.0 - q.alpha + q.alpha1))
    # IEEE operations in the order of the scalar formula; -inf * 0.0 is NaN
    with np.errstate(invalid="ignore"):
        p_hat_lo = q.p + z_lo * sigmas / root_n
        p_hat_hi = q.p + z_hi * sigmas / root_n
    pending = np.equal(errors, None)
    underflow = pending & np.isnan(sigmas)
    # z_lo < z_hi whenever alpha < 1, so the levels are ordered unless one
    # is NaN: with alpha1 = 0, z = -inf meets a sigma that underflowed to
    # 0 because the weights are tiny
    unordered = pending & ~underflow & ~(p_hat_lo <= p_hat_hi)
    for cell in zip(*np.nonzero(underflow)):
        errors[cell] = DomainError("the squared mean localization weight underflows to zero")
    for cell in zip(*np.nonzero(unordered)):
        errors[cell] = DomainError(
            f"WQ levels are not ordered (p_hat_lo={p_hat_lo[cell].item()!r}, "
            f"p_hat_hi={p_hat_hi[cell].item()!r}, sigma_hat={sigmas[cell].item()!r}): the "
            "localization weights are too small for the plug-in variance"
        )
    failed = np.not_equal(errors, None)
    # the levels, clamped to the domain (0, 1] of the quantile inverse
    lower, upper = (
        np.where(failed, math.nan, sorted_lookup(srt, cum, np.clip(level, _TINY_LEVEL, 1.0)))
        for level in (p_hat_lo, p_hat_hi)
    )
    details = {name: np.where(failed, math.nan, values) for name, values in
               (("p_hat_lo", p_hat_lo), ("p_hat_hi", p_hat_hi), ("sigma_hat", sigmas))}
    return IntervalBatch("WQ", lower, upper, loc.n_eff, errors, details)


def wq_interval(data: Dataset, spec: LocalizationSpec, q: QuantileSpec) -> IntervalResult:
    """Weighted Quantile confidence interval for the local p-th quantile.

    Raises AllWeightsZero when no sample carries weight; emits
    LowEffectiveSampleSizeWarning when the effective sample size is below 10,
    where the asymptotic calibration is not trustworthy.
    """
    res = wq_cells(localize(data, [spec]), q).result(0)
    _warn_low_neff(res.n_eff, spec.center, spec.bandwidths)
    return res


def _warn_low_neff(n_eff: float, center, bandwidths) -> None:
    """Emit LowEffectiveSampleSizeWarning, attributed to the caller of our
    caller, when the WQ interval of the query at (`center`, `bandwidths`) has
    n_eff below NEFF_GUIDELINE; the message names the query."""
    if n_eff < NEFF_GUIDELINE:
        x0, h = [float(v) for v in center], [float(v) for v in bandwidths]
        warnings.warn(
            f"effective sample size {n_eff:.2f} < {NEFF_GUIDELINE:g} at x0 = {x0}, h = {h}; "
            "coverage of the WQ interval is not reliable",
            LowEffectiveSampleSizeWarning,
            stacklevel=3,
        )
