import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

import localquant
from localquant import (
    AllWeightsZero,
    Dataset,
    DomainError,
    Kernel,
    LocalizationSpec,
    LowEffectiveSampleSizeWarning,
    QuantileSpec,
    WeightedSample,
    effective_sample_size,
    localization_weights,
    sigma_hat_p,
    weighted_quantile,
    wq_interval,
)


def sigma_oracle(ys, ws, p, theta):
    """Brute-force scalar evaluation of the plug-in variance."""
    n = len(ys)
    num = sum(w * w * ((1.0 if y <= theta else 0.0) - p) ** 2 for y, w in zip(ys, ws)) / n
    den = (sum(ws) / n) ** 2
    return math.sqrt(num / den)


def make_data(rng, n=60, lo=0.0, hi=1.0):
    x = rng.uniform(lo, hi, size=n)
    y = np.sin(6 * x) + rng.normal(scale=0.4, size=n)
    return Dataset(covariates=x[:, None], responses=y)


def test_sigma_half_split():
    # unit weights, half the responses below theta: numerator (±0.5)^2 = 0.25
    ys = np.array([1.0, 2.0, 3.0, 4.0])
    ws = WeightedSample(ys, np.ones(4))
    assert sigma_hat_p(ws, 0.5, 2.5) == 0.5
    assert sigma_oracle(ys, [1] * 4, 0.5, 2.5) == 0.5


def test_sigma_single_sample():
    ws = WeightedSample([3.0], [1.0])
    assert sigma_hat_p(ws, 0.5, 3.0) == 0.5


def test_sigma_identity_at_half():
    # (1{y <= t} - 1/2)^2 = 1/4 identically, so sigma^2 must equal
    # sum(w^2) / (4 n^-1 (sum w)^2 / n) for any data
    rng = np.random.default_rng(44)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        ys = rng.normal(size=n)
        w = rng.uniform(0, 2, size=n)
        w[rng.uniform(size=n) < 0.2] = 0.0
        if not w.any():
            w[0] = 1.0
        ws = WeightedSample(ys, w)
        theta = float(rng.normal())
        expect = math.sqrt(np.mean(w**2) / 4.0) / np.mean(w)
        assert sigma_hat_p(ws, 0.5, theta) == pytest.approx(expect, rel=1e-13)


def test_sigma_matches_oracle_randomized():
    rng = np.random.default_rng(45)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        ys = rng.normal(size=n)
        w = rng.uniform(0, 1, size=n)
        p = float(rng.uniform(0.05, 0.95))
        theta = float(rng.normal())
        got = sigma_hat_p(WeightedSample(ys, w), p, theta)
        assert got == pytest.approx(sigma_oracle(ys.tolist(), w.tolist(), p, theta), rel=1e-12)


def test_sigma_all_weights_zero():
    with pytest.raises(AllWeightsZero):
        sigma_hat_p(WeightedSample([1.0], [0.0]), 0.5, 1.0)


def test_interval_brackets_estimate():
    rng = np.random.default_rng(8)
    q = QuantileSpec(p=0.5, alpha=0.1, alpha1=0.05)
    for seed in range(30):
        data = make_data(np.random.default_rng(seed), n=120)
        spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.25])
        res = wq_interval(data, spec, q)
        assert res.method == "WQ"
        assert res.is_finite
        # endpoints live in the response multiset
        assert res.lower in data.responses
        assert res.upper in data.responses
        if res.p_hat_lo <= q.p <= res.p_hat_hi:
            from localquant import localization_weights

            theta = weighted_quantile(localization_weights(data, spec), q.p)
            assert res.lower <= theta <= res.upper


def test_symmetric_split_substitution():
    # alpha1 = alpha/2: endpoints are the weighted quantiles at
    # p +- z_{alpha/2} sigma / sqrt(n), by direct substitution
    rng = np.random.default_rng(13)
    data = make_data(rng, n=150)
    spec = LocalizationSpec(Kernel.BIWEIGHT, [0.4], [0.3])
    q = QuantileSpec(p=0.4, alpha=0.1, alpha1=0.05)
    res = wq_interval(data, spec, q)

    from localquant import localization_weights

    ws = localization_weights(data, spec)
    theta = weighted_quantile(ws, q.p)
    sig = sigma_hat_p(ws, q.p, theta)
    z = ndtri(0.05)
    assert z == pytest.approx(-ndtri(0.95), rel=1e-14)
    p1 = q.p + ndtri(q.alpha1) * sig / math.sqrt(data.n)
    p2 = q.p + ndtri(1.0 - q.alpha + q.alpha1) * sig / math.sqrt(data.n)
    assert res.p_hat_lo == p1
    assert res.p_hat_hi == p2
    assert res.lower == weighted_quantile(ws, max(p1, 5e-324))
    assert res.upper == weighted_quantile(ws, min(p2, 1.0))
    assert res.sigma_hat == sig


def test_alpha1_zero_gives_lower_tail_open():
    # z_0 = -inf pushes the lower level to its clamp: the smallest response
    # carrying positive weight
    rng = np.random.default_rng(3)
    data = make_data(rng, n=80)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.3])
    res = wq_interval(data, spec, QuantileSpec(p=0.5, alpha=0.1, alpha1=0.0))

    from localquant import localization_weights

    ws = localization_weights(data, spec)
    smallest = ws.responses[ws.weights > 0].min()
    assert res.lower == smallest
    assert res.p_hat_lo == -math.inf


def test_all_weights_zero_interval():
    data = Dataset(covariates=[[0.9], [0.95]], responses=[1.0, 2.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.2], [0.1])
    with pytest.raises(AllWeightsZero):
        wq_interval(data, spec, QuantileSpec(0.5, 0.1, 0.05))


def test_low_neff_warning():
    data = Dataset(covariates=[[0.5], [0.51]], responses=[1.0, 2.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1])
    with pytest.warns(LowEffectiveSampleSizeWarning):
        wq_interval(data, spec, QuantileSpec(0.5, 0.1, 0.05))


def test_underflowing_weights_raise_domain_error():
    # one row under a 13-d triangular kernel at u = 1 - 2**-53 in every
    # dimension: its weight (2**-53)**13 = 3.9e-208 squares to 0
    d = 13
    data = Dataset(np.full((1, d), -(1.0 - 2.0**-53)), [1.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, np.zeros(d), np.ones(d))
    ws = localization_weights(data, spec)
    assert ws.weights[0] == pytest.approx(3.9e-208, rel=1e-2)
    with pytest.raises(DomainError, match="underflow"):
        effective_sample_size(ws)
    with pytest.raises(DomainError, match="underflow"):
        sigma_hat_p(ws, 0.5, 1.0)
    with pytest.raises(DomainError, match="underflow"):
        wq_interval(data, spec, QuantileSpec(0.5, 0.1, 0.05))


def test_sigma_mean_weight_underflow():
    # sum w^2 = 1e-322 survives as a subnormal, but (sum w / n)^2 does not
    ws = WeightedSample(np.arange(100.0), np.r_[1e-161, np.zeros(99)])
    assert effective_sample_size(ws) > 0.0
    with pytest.raises(DomainError, match="underflow"):
        sigma_hat_p(ws, 0.5, 0.0)


def test_scale_invariant_endpoints():
    # scaling every weight by c > 0 must reproduce the same endpoint values
    # when the interval is rebuilt from its components
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        ys = rng.normal(size=n)
        w = rng.uniform(0, 1, size=n)
        c = float(rng.uniform(1e-4, 1e4))
        p, alpha, alpha1 = 0.5, 0.1, 0.05
        lowers = []
        uppers = []
        for weights in (w, c * w):
            ws = WeightedSample(ys, weights)
            theta = weighted_quantile(ws, p)
            sig = sigma_hat_p(ws, p, theta)
            p1 = p + ndtri(alpha1) * sig / math.sqrt(n)
            p2 = p + ndtri(1 - alpha + alpha1) * sig / math.sqrt(n)
            lowers.append(weighted_quantile(ws, min(max(p1, 5e-324), 1.0)))
            uppers.append(weighted_quantile(ws, min(max(p2, 5e-324), 1.0)))
        assert lowers[0] == lowers[1]
        assert uppers[0] == uppers[1]


_UNDER_O = """
import warnings
import numpy as np
from localquant import Dataset, DomainError, Kernel, LocalizationSpec, QuantileSpec, wq_interval
assert False, "asserts are live"
x = np.linspace(0.0, 1.0, 101)
res = wq_interval(Dataset(x[:, None], np.sin(7.0 * x)),
                  LocalizationSpec(Kernel.TRIANGULAR, [0.4], [0.2]), QuantileSpec(0.5, 0.1, 0.05))
print(repr(res.lower), repr(res.upper), repr(res.n_eff))
# one row of weight 2**-537: sigma_hat underflows to 0, and with alpha1 = 0 the
# lower level is -inf * 0 = nan
d = 537
tiny = Dataset(np.zeros((1, d)), [1.0])
spec = LocalizationSpec(Kernel.UNIFORM, np.zeros(d), np.ones(d))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        wq_interval(tiny, spec, QuantileSpec(0.5, 0.1, 0.0))
    except DomainError as exc:
        print("DomainError", exc)
"""


def test_runs_under_python_optimize():
    # python -O strips assert statements; the level check must still raise
    src = os.path.dirname(os.path.dirname(localquant.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    ).stdout.splitlines()
    x = np.linspace(0.0, 1.0, 101)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.4], [0.2])
    res = wq_interval(Dataset(x[:, None], np.sin(7.0 * x)), spec, QuantileSpec(0.5, 0.1, 0.05))
    assert out[0] == f"{res.lower!r} {res.upper!r} {res.n_eff!r}"
    assert out[1].startswith("DomainError WQ levels are not ordered (p_hat_lo=nan")
