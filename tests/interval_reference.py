"""Per-cell WQ and QR intervals as the library computed them before the
batched engine: one localization, one sort and one binomial table lookup per
interval; and a study's replicates as the library computed them before the
replicate axis: one dataset and one localization per replicate. Kept as a
reference for the engine tests; not collected by pytest.
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np
from scipy.special import ndtri

from localquant import (
    AllWeightsZero,
    Dataset,
    DomainError,
    IntervalResult,
    RngStream,
    TieIndices,
    localize,
    qr_cells,
    signal_eval,
    wq_cells,
)

_WEIGHT_FLOOR = 1e-300
_WINDOW_MARGIN = 1e-12
_TINY_NORMAL = float(np.finfo(float).tiny)
_TINY_LEVEL = np.nextafter(0.0, 1.0)


def weights(data, spec):
    """Kernel weights of every row, evaluated inside the column-0 window."""
    center = float(spec.center[0])
    half = spec.kernel.support_radius * float(spec.bandwidths[0])
    margin = max(_WINDOW_MARGIN * (abs(center) + half), _TINY_NORMAL)
    x = data.covariates[:, 0]
    rows = np.flatnonzero((x > center - half - margin) & (x <= center + half + margin))
    u = (spec.center[None, :] - data.covariates[rows]) / spec.bandwidths[None, :]
    local = np.prod(spec.kernel.evaluate(u), axis=1)
    local[local < _WEIGHT_FLOOR] = 0.0
    w = np.zeros(data.n)
    w[rows] = local
    return w


def _sorted(resp, w):
    rows = np.flatnonzero(w)
    order = rows[np.argsort(resp[rows], kind="stable")]
    cum = np.cumsum(w[order])
    cum /= cum[-1]
    return resp[order], cum


def _quantile(resp, w, p):
    srt, cum = _sorted(resp, w)
    idx = int(np.searchsorted(cum, p, side="left"))
    return float(srt[min(idx, srt.shape[0] - 1)])


def _n_eff(w):
    total = float(np.sum(w))
    if total <= 0.0:
        raise AllWeightsZero("all localization weights are zero")
    sum_sq = float(np.sum(w**2))
    if sum_sq == 0.0:
        raise DomainError("the squared localization weights underflow to zero")
    return total**2 / sum_sq


def _sigma(resp, w, p, theta):
    dev = (resp <= theta).astype(float) - p
    num = float(np.mean(w**2 * dev**2))
    den = float(np.mean(w)) ** 2
    if den == 0.0:
        raise DomainError("the squared mean localization weight underflows to zero")
    return math.sqrt(num / den)


def wq(data, spec, q):
    """The WQ interval of one cell; raises what the cell raises."""
    w = weights(data, spec)
    n_eff = _n_eff(w)
    theta = _quantile(data.responses, w, q.p)
    sigma = _sigma(data.responses, w, q.p, theta)
    root_n = math.sqrt(data.n)
    p_hat_1 = q.p + float(ndtri(q.alpha1)) * sigma / root_n
    p_hat_2 = q.p + float(ndtri(1.0 - q.alpha + q.alpha1)) * sigma / root_n
    if not p_hat_1 <= p_hat_2:
        raise DomainError("WQ levels are not ordered")
    lower, upper = (
        _quantile(data.responses, w, min(max(level, _TINY_LEVEL), 1.0))
        for level in (p_hat_1, p_hat_2)
    )
    return IntervalResult(lower, upper, "WQ", n_eff, p_hat_lo=p_hat_1, p_hat_hi=p_hat_2,
                          sigma_hat=sigma)


def binom_tables(n, p):
    """(cdf, sf) for Binomial(n, p): cdf[k] = P(B <= k), sf[k] = P(B >= k), as
    object arrays of 100-digit Decimals.

    Each term comes from the one before, and each tail is summed from its own
    end. A Decimal does not underflow and compares with a float exactly, so a
    threshold read from these tables is the exact one unless a tail lies
    within about 1e-95 of a level without equalling it. At a short binary p
    such as 1/2 or 1/4 every term and sum is exact at the n of the tests, so
    a level equal to a tail is decided exactly too.
    """
    with decimal.localcontext(prec=100):
        q = decimal.Decimal(p)
        terms = [(1 - q) ** n]
        for j in range(n):
            terms.append(terms[-1] * (n - j) * q / ((j + 1) * (1 - q)))
        cdf = list(itertools.accumulate(terms))
        sf = list(itertools.accumulate(terms[::-1]))[::-1]
    return np.array(cdf, dtype=object), np.array(sf, dtype=object)


def ci_indices(n, ties, p, alpha1, alpha2):
    """(l_hat, u_hat) read from the full binomial tables at every tie index, in
    exact comparisons with the levels."""
    cdf, sf = binom_tables(n, p)
    below = np.concatenate(([0.0], cdf[ties.i_max - 1]))
    l_hat = int(np.flatnonzero(below <= alpha1).max())
    above = np.concatenate((sf[ties.i_min], [0.0]))
    u_hat = int(np.flatnonzero(above <= alpha2).min()) + 1
    return l_hat, u_hat


def qr(data, spec, q, rng):
    """The QR interval of one cell drawing from `rng`; raises what the cell raises."""
    w = weights(data, spec)
    rows = np.flatnonzero(w)
    accepted = rows[rng.uniforms_at(rows) <= w[rows] / spec.kernel_max]
    n_eff = _n_eff(w) if float(np.sum(w)) > 0.0 else 0.0
    if accepted.size == 0:
        return IntervalResult(-math.inf, math.inf, "QR", n_eff, accepted=0)
    srt = np.sort(data.responses[accepted])
    n = srt.shape[0]
    l_hat, u_hat = ci_indices(n, TieIndices.from_sorted(srt), q.p, q.alpha1, q.alpha2)
    lower = -math.inf if l_hat == 0 else float(srt[l_hat - 1])
    upper = math.inf if u_hat == n + 1 else float(srt[u_hat - 1])
    return IntervalResult(lower, upper, "QR", n_eff, accepted=int(n))


def normals(stream, n):
    """`n` i.i.d. standard normal draws of `stream`: the inverse normal CDF of
    its uniforms, as the library drew a replicate's noise."""
    return ndtri(stream.uniforms(n))


def replicate_results(config, rep, thetas):
    """(covered, finite, width, n_eff) rows of replicate `rep`, one column per cell.

    One RngStream per replicate, with substream 1 for the covariates, 2 for
    the noise and 3 for QR, whose substream 2k + 1 is cell k's. A WQ cell
    without weight counts as not covered and not finite; any other failure
    is raised, the first in cell order.
    """
    rng = RngStream(config.master_seed, rep)
    x = rng.substream(1).uniforms(config.n)
    z = normals(rng.substream(2), config.n)
    y = signal_eval(config.model.signal, x) + config.model.noise.sigma(x) * z
    loc = localize(Dataset(x[:, None], y), config.specs)
    q = config.quantile_spec
    qr_rng = rng.substream(3)
    m = len(config.methods)
    out = np.empty((4, len(config.specs) * m))
    failures = []
    for j, method in enumerate(config.methods):
        if method == "WQ":
            batch = wq_cells(loc, q)
        else:
            streams = [qr_rng.substream(2 * k + 1) for k in range(len(config.specs))]
            batch = qr_cells(loc, q, streams)
        failures += [(k * m + j, e) for k, e in enumerate(batch.errors)
                     if e is not None and not isinstance(e, AllWeightsZero)]
        out[:, j::m] = (
            (batch.lower <= thetas) & (thetas <= batch.upper),
            np.isfinite(batch.lower) & np.isfinite(batch.upper),
            batch.upper - batch.lower,
            batch.n_eff,
        )
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return out


def study_stats(config, thetas):
    """(4, cells, n_sim): replicate_results of replicates 1..n_sim, stacked."""
    return np.stack(
        [replicate_results(config, rep, thetas) for rep in range(1, config.n_sim + 1)], axis=2
    )
