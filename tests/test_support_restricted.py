"""Support-restricted weights, sorting and acceptance against full-n references.

The library evaluates the kernel only inside the support window of
dimension 0, sorts only the rows with positive weight and draws uniforms
only for those rows. The references below do the whole-sample work instead:
the kernel on every row, a stable argsort of all n responses, and
`uniforms(n)`. Every result must agree bit for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from localquant import (
    AllWeightsZero,
    Dataset,
    Kernel,
    LocalizationSpec,
    LowEffectiveSampleSizeWarning,
    QuantileSpec,
    RngStream,
    df_quantile_ci,
    localization_weights,
    localize,
    qr_interval,
    weighted_cdf,
    weighted_quantile,
    wq_interval,
)
from localquant.cli import load_csv
from localquant.kernels import _WEIGHT_FLOOR
from test_engine import check_cells, dense_weights

# -- full-n references ------------------------------------------------------


def ref_weights(data, spec):
    u = (spec.center[None, :] - data.covariates) / spec.bandwidths[None, :]
    w = np.prod(spec.kernel.evaluate(u), axis=1)
    w[w < _WEIGHT_FLOOR] = 0.0
    return w


def ref_sorted(resp, w):
    order = np.argsort(resp, kind="stable")
    cum = np.cumsum(w[order])
    cum /= cum[-1]
    return resp[order], cum


def ref_cdf(resp, w, y):
    srt, cum = ref_sorted(resp, w)
    idx = int(np.searchsorted(srt, y, side="right"))
    return 0.0 if idx == 0 else float(cum[idx - 1])


def ref_quantile(resp, w, p):
    srt, cum = ref_sorted(resp, w)
    idx = int(np.searchsorted(cum, p, side="left"))
    return float(srt[min(idx, srt.shape[0] - 1)])


def ref_wq(data, spec, q):
    """(lower, upper, n_eff) of WQ, or AllWeightsZero."""
    w = ref_weights(data, spec)
    total = float(np.sum(w))
    if total <= 0.0:
        raise AllWeightsZero("reference: no weight")
    resp = data.responses
    n_eff = float(total**2 / np.sum(w**2))
    theta = ref_quantile(resp, w, q.p)
    dev = (resp <= theta).astype(float) - q.p
    sigma = math.sqrt(float(np.mean(w**2 * dev**2)) / float(np.mean(w)) ** 2)
    levels = [
        q.p + ndtri(a) * sigma / math.sqrt(data.n) for a in (q.alpha1, 1.0 - q.alpha + q.alpha1)
    ]
    tiny = np.nextafter(0.0, 1.0)
    lower, upper = (ref_quantile(resp, w, min(max(lv, tiny), 1.0)) for lv in levels)
    return lower, upper, n_eff


def ref_qr(data, spec, q, rng):
    """(lower, upper, n_eff, accepted) of QR."""
    w = ref_weights(data, spec)
    total = float(np.sum(w))
    n_eff = float(total**2 / np.sum(w**2)) if total > 0.0 else 0.0
    accepted = np.flatnonzero(rng.uniforms(data.n) <= w / spec.kernel_max)
    if accepted.size == 0:
        return -math.inf, math.inf, n_eff, 0
    sub = df_quantile_ci(data.responses[accepted], q.p, q.alpha1, q.alpha2)
    return sub.lower, sub.upper, n_eff, int(accepted.size)


def same(a, b):
    """Bitwise equality of two tuples of floats (and ints), by repr."""
    return [repr(float(v)) for v in a] == [repr(float(v)) for v in b]


def check_against_reference(data, spec, q, seed):
    w = localization_weights(data, spec)
    assert w.weights.tobytes() == ref_weights(data, spec).tobytes()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowEffectiveSampleSizeWarning)
        try:
            expected = ref_wq(data, spec, q)
        except AllWeightsZero:
            with pytest.raises(AllWeightsZero):
                wq_interval(data, spec, q)
        else:
            got = wq_interval(data, spec, q)
            assert same((got.lower, got.upper, got.n_eff), expected)

    got = qr_interval(data, spec, q, RngStream(seed))
    expected = ref_qr(data, spec, q, RngStream(seed))
    assert same((got.lower, got.upper, got.n_eff, got.accepted), expected)
    assert type(got.accepted) is int

    if w.weight_sum > 0.0:
        resp, ref_w = data.responses, ref_weights(data, spec)
        _, cum = ref_sorted(resp, ref_w)
        for y in np.concatenate([resp, np.nextafter(resp, np.inf), np.nextafter(resp, -np.inf)]):
            assert repr(weighted_cdf(w, y)) == repr(ref_cdf(resp, ref_w, y))
        for p in np.concatenate([cum[cum > 0.0], np.nextafter(cum[cum > 0.0], 0.0), [1e-300]]):
            assert repr(weighted_quantile(w, p)) == repr(ref_quantile(resp, ref_w, p))


# -- hypothesis inputs ------------------------------------------------------

# a few response values shared by every row, so support rows tie with
# non-support rows
TIED_RESPONSES = (-1.0, 0.0, 0.0, 2.5, 2.5, 2.5)


@st.composite
def localized_data(draw):
    kernel = draw(st.sampled_from(list(Kernel)))
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 30))
    radius = kernel.support_radius
    center, bandwidths = [], []
    for _ in range(d):
        center.append(draw(st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e6, -3.75e8, 123456.789])
        )))
        bandwidths.append(draw(st.one_of(st.just(1e-9), st.floats(1e-3, 4.0))))
    columns = []
    for c, h in zip(center, bandwidths):
        half = radius * h
        col = []
        for _ in range(n):
            kind = draw(st.sampled_from(["inside", "edge", "edge", "far"]))
            sign = draw(st.sampled_from([-1.0, 1.0]))
            if kind == "inside":
                x = c + draw(st.floats(-1.0, 1.0)) * half
            elif kind == "edge":
                # exactly at c +- r h, or one ULP to either side of it
                x = c + sign * half
                x = draw(st.sampled_from([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]))
            else:
                x = c + sign * half * draw(st.floats(1.0, 50.0))
            col.append(float(x))
        columns.append(col)
    covariates = np.array(columns).T
    tied = draw(st.booleans())
    if tied:
        responses = [draw(st.sampled_from(TIED_RESPONSES)) for _ in range(n)]
    else:
        responses = [draw(st.floats(-10.0, 10.0)) for _ in range(n)]
    data = Dataset(covariates, responses)
    spec = LocalizationSpec(kernel, center, bandwidths)
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    alpha1 = draw(st.sampled_from([0.0, 0.05, 0.1]))
    return data, spec, QuantileSpec(p, 0.1, alpha1), draw(st.integers(0, 2**32))


@settings(max_examples=400, deadline=None)
@given(localized_data())
def test_matches_full_n_reference(case):
    data, spec, q, seed = case
    check_against_reference(data, spec, q, seed)


# -- fixed cases ------------------------------------------------------------


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("center", [0.0, 0.3, 1e6, -7.5e5])
@pytest.mark.parametrize("h", [1e-9, 0.05])
def test_window_edges(kernel, center, h):
    # rows at c +- r h and one ULP to either side; plus rows far away
    edges = [center - kernel.support_radius * h, center + kernel.support_radius * h]
    x = [center, center + 50 * h, center - 50 * h]
    for e in edges:
        x += [np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
    y = np.arange(len(x), dtype=float) % 3
    data = Dataset(np.array(x)[:, None], y)
    spec = LocalizationSpec(kernel, [center], [h])
    q = QuantileSpec(0.5, 0.1, 0.05)
    check_against_reference(data, spec, q, 11)
    # with a second cell 100 h away, one localization evaluates both cells
    # on every row between their windows; each must get exactly 0 outside
    # its own window
    specs = [spec, LocalizationSpec(kernel, [center + 100 * h], [h])]
    assert np.array_equal(
        dense_weights(localize(data, specs)), [ref_weights(data, s) for s in specs]
    )
    check_cells(data, specs, q, 11)


def test_single_support_row():
    x = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    data = Dataset(x[:, None], [3.0, 1.0, 2.0, 1.0, 3.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1])
    assert np.count_nonzero(localization_weights(data, spec).weights) == 1
    check_against_reference(data, spec, QuantileSpec(0.5, 0.1, 0.05), 3)
    # weight 1 = kernel_max at the center, so the row is always accepted
    res = qr_interval(data, spec, QuantileSpec(0.5, 0.1, 0.05), RngStream(3))
    assert res.accepted == 1


def test_empty_support():
    x = np.array([0.0, 0.1, 0.9, 1.0])
    data = Dataset(np.column_stack([x, x]), [1.0, 1.0, 2.0, 2.0])
    spec = LocalizationSpec(Kernel.BIWEIGHT, [0.5, 0.5], [0.2, 0.2])
    assert not np.any(localization_weights(data, spec).weights)
    with pytest.raises(AllWeightsZero):
        wq_interval(data, spec, QuantileSpec(0.5, 0.1, 0.05))
    res = qr_interval(data, spec, QuantileSpec(0.5, 0.1, 0.05), RngStream(1))
    assert (res.lower, res.upper, res.accepted, res.n_eff) == (-math.inf, math.inf, 0, 0.0)


def test_second_column_outside_support():
    # rows inside the window of column 0 but outside the support of column 1
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.uniform(0.45, 0.55, 200), rng.uniform(0.0, 1.0, 200)])
    data = Dataset(x, np.round(rng.normal(size=200), 1))
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5, 0.5], [0.1, 0.1])
    assert 0 < np.count_nonzero(localization_weights(data, spec).weights) < 200
    check_against_reference(data, spec, QuantileSpec(0.5, 0.1, 0.05), 5)


def test_index_is_built_on_first_query(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.3,1\n0.1,2\n0.2,3\n")
    data = load_csv(str(path), ["x"], "y")
    assert "first_column_index" not in vars(data)
    spec = LocalizationSpec(Kernel.UNIFORM, [0.2], [0.5])
    with pytest.warns(LowEffectiveSampleSizeWarning):
        wq_interval(data, spec, QuantileSpec(0.5, 0.1, 0.05))
    order = data.first_column_index
    assert order.tolist() == [1, 2, 0]
    assert data.covariates[order, 0].tolist() == [0.1, 0.2, 0.3]
