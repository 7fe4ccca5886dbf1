import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from localquant import (
    AllWeightsZero,
    DomainError,
    WeightedSample,
    effective_sample_size,
    weighted_cdf,
    weighted_quantile,
)
from localquant.base import _stable_sort
from localquant.weighted import full_sums


def cdf_oracle(ys, ws, y):
    """Direct evaluation of the reweighted CDF with exact arithmetic."""
    total = sum(Fraction(w) for w in ws)
    hit = sum(Fraction(w) for yi, w in zip(ys, ws) if yi <= y)
    return hit / total


def quantile_oracle(ys, ws, p):
    """Enumerate distinct response values; first one whose CDF reaches p."""
    for v in sorted(set(ys)):
        if cdf_oracle(ys, ws, v) >= Fraction(p):
            return v
    return max(ys)


def neff_oracle(ws):
    s1 = sum(Fraction(w) for w in ws)
    s2 = sum(Fraction(w) ** 2 for w in ws)
    return s1 * s1 / s2


def random_sample(rng, allow_zero=True):
    n = int(rng.integers(1, 40))
    # duplicate some responses to create ties
    base = np.round(rng.normal(size=n), 1)
    w = rng.uniform(0, 1, size=n)
    if allow_zero:
        w[rng.uniform(size=n) < 0.3] = 0.0
    if not w.any():
        w[int(rng.integers(0, n))] = 0.7
    return WeightedSample(responses=base, weights=w)


def test_cdf_equal_weights():
    ws = WeightedSample(responses=[1.0, 2.0, 3.0], weights=[1.0, 1.0, 1.0])
    assert weighted_cdf(ws, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert weighted_cdf(ws, 3.0) == 1.0
    assert weighted_cdf(ws, 5.0) == 1.0
    assert weighted_cdf(ws, 0.5) == 0.0


def test_cdf_weighted_example():
    # cumulative normalized weights (0.25, 0.75, 1.0), frozen from the
    # exact-arithmetic oracle
    ws = WeightedSample(responses=[0.0, 1.0, 2.0], weights=[1.0, 2.0, 1.0])
    assert cdf_oracle([0, 1, 2], [1, 2, 1], 1) == Fraction(3, 4)
    assert weighted_cdf(ws, 1.0) == 0.75


def test_quantile_examples():
    ws = WeightedSample(responses=[1.0, 2.0, 3.0], weights=[1.0, 1.0, 1.0])
    assert weighted_quantile(ws, 0.5) == 2.0

    ws2 = WeightedSample(responses=[0.0, 1.0, 2.0], weights=[1.0, 2.0, 1.0])
    assert quantile_oracle([0, 1, 2], [1, 2, 1], 0.25) == 0
    assert weighted_quantile(ws2, 0.25) == 0.0

    ws3 = WeightedSample(responses=[1.0, 1.0, 2.0], weights=[1.0, 1.0, 1.0])
    assert quantile_oracle([1, 1, 2], [1, 1, 1], 0.5) == 1
    assert weighted_quantile(ws3, 0.5) == 1.0


def test_quantile_matches_oracle_randomized():
    rng = np.random.default_rng(31)
    for _ in range(200):
        ws = random_sample(rng)
        # dyadic p avoids oracle/float boundary mismatches
        p = int(rng.integers(1, 64)) / 64.0
        got = weighted_quantile(ws, p)
        want = quantile_oracle(ws.responses.tolist(), ws.weights.tolist(), p)
        assert got == want


def test_effective_sample_size():
    assert effective_sample_size(WeightedSample([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])) == 3.0
    assert effective_sample_size(WeightedSample([1.0, 2.0], [0.0, 5.0])) == 1.0
    ws = WeightedSample([0.0, 0.0, 0.0], [1.0, 1.0, 2.0])
    assert neff_oracle([1, 1, 2]) == Fraction(16, 6)
    assert effective_sample_size(ws) == pytest.approx(16.0 / 6.0, rel=1e-15)


def test_all_weights_zero():
    ws = WeightedSample(responses=[1.0, 2.0], weights=[0.0, 0.0])
    with pytest.raises(AllWeightsZero):
        weighted_cdf(ws, 1.0)
    with pytest.raises(AllWeightsZero):
        weighted_quantile(ws, 0.5)
    with pytest.raises(AllWeightsZero):
        effective_sample_size(ws)


def test_cdf_monotone_right_continuous():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ws = random_sample(rng)
        grid = np.sort(np.concatenate([ws.responses, rng.normal(size=10)]))
        vals = [weighted_cdf(ws, y) for y in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0
        # right continuity: approaching a response point from above
        y0 = ws.responses[0]
        assert weighted_cdf(ws, y0 + 1e-12) >= weighted_cdf(ws, y0)
        assert weighted_cdf(ws, np.min(ws.responses) - 1.0) == 0.0
        assert weighted_cdf(ws, np.max(ws.responses)) == 1.0


def test_scale_invariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        ws = random_sample(rng)
        c = float(rng.uniform(1e-6, 1e6))
        scaled = WeightedSample(ws.responses, ws.weights * c)
        p = float(rng.uniform(0.01, 1.0))
        assert weighted_quantile(scaled, p) == weighted_quantile(ws, p)
        y = float(rng.normal())
        assert weighted_cdf(scaled, y) == pytest.approx(weighted_cdf(ws, y), rel=1e-12, abs=1e-12)
        assert effective_sample_size(scaled) == pytest.approx(
            effective_sample_size(ws), rel=1e-12
        )


def test_galois_connection():
    rng = np.random.default_rng(23)
    for _ in range(200):
        ws = random_sample(rng)
        p = float(rng.uniform(0.0, 1.0)) or 0.5
        assert weighted_cdf(ws, weighted_quantile(ws, p)) >= p
        for yi, wi in zip(ws.responses, ws.weights):
            if wi > 0:
                assert weighted_quantile(ws, weighted_cdf(ws, yi)) <= yi


def test_neff_bounds():
    rng = np.random.default_rng(29)
    for _ in range(100):
        ws = random_sample(rng)
        n_eff = effective_sample_size(ws)
        assert 1.0 - 1e-12 <= n_eff <= len(ws) + 1e-12
    # upper bound attained iff all weights equal and nonzero
    equal = WeightedSample([0.0] * 7, [3.5] * 7)
    assert effective_sample_size(equal) == pytest.approx(7.0, rel=1e-15)
    some_zero = WeightedSample([0.0] * 7, [3.5] * 4 + [0.0] * 3)
    assert effective_sample_size(some_zero) == pytest.approx(4.0, rel=1e-15)


def test_zero_weight_rows_retained():
    ws = WeightedSample(responses=[5.0, 1.0, 3.0], weights=[0.0, 1.0, 1.0])
    assert len(ws) == 3
    assert weighted_quantile(ws, 1.0) == 3.0  # zero-weight max is never picked
    assert weighted_cdf(ws, 5.0) == 1.0
    for stored in ws.sorted_cdf:
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0


def test_signed_zeros_do_not_depend_on_row_order():
    # -0.0 == 0.0 ties in a stable sort, so a stored -0.0 would make the
    # quantile's sign follow the row order
    ys = [-0.0, 0.0, 1.0, -0.0, -1.0]
    ws = [1.0, 2.0, 0.5, 0.25, 1.0]
    seen = set()
    for perm in itertools.permutations(range(len(ys))):
        sample = WeightedSample([ys[i] for i in perm], [ws[i] for i in perm])
        seen.add(tuple(repr(weighted_quantile(sample, p)) for p in (0.2, 0.3, 0.5, 0.8))
                 + tuple(repr(weighted_cdf(sample, y)) for y in (-0.0, 0.0, 0.5)))
    below = repr(4.25 / 4.75)  # every partial sum of these weights is exact
    assert seen == {("-1.0", "0.0", "0.0", "0.0", below, below, below)}


def test_weight_and_level_validation():
    with pytest.raises(ValueError):
        WeightedSample([1.0, 2.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        weighted_quantile(WeightedSample([1.0], [1.0]), 0.0)


def test_weight_sum_that_overflows_is_rejected():
    # equal weights put the 0.9 quantile at 3.0; an overflowing sum gave 2.0
    # and a NaN CDF
    with pytest.raises(ValueError, match="square of the weight sum"):
        WeightedSample([1.0, 2.0, 3.0], [1e308] * 3)
    ws = WeightedSample([1.0, 2.0, 3.0], [2.0**510] * 3)
    assert weighted_quantile(ws, 0.9) == 3.0
    assert weighted_cdf(ws, 2.5) == 2.0 / 3.0


def test_weight_sum_whose_square_overflows_is_rejected():
    # the sum 2e160 is finite, but n_eff and sigma_hat square it: OverflowError
    with pytest.raises(ValueError, match="square of the weight sum"):
        WeightedSample([1.0, 2.0], [1e160, 1e160])
    # the largest sums below the bound 2**512 give finite results, no warnings
    below = float(np.nextafter(2.0**511, 0.0))
    ws = WeightedSample([1.0, 2.0], [below, below])
    assert effective_sample_size(ws) == 2.0
    assert math.isfinite(weighted_cdf(ws, 1.5))


def test_cdf_at_nan_is_a_domain_error():
    # every comparison with NaN is false, so the search put NaN above every response
    with pytest.raises(DomainError, match="NaN"):
        weighted_cdf(WeightedSample([1.0, 2.0], [1.0, 1.0]), math.nan)


@st.composite
def sort_inputs(draw):
    """A 1-D or (R, m) float array without NaN: continuous values, 2-5 distinct
    values, mixed signed zeros, or all equal; m may be 0 or 1."""
    shape = draw(st.sampled_from([(), (1,), (2,), (5,)])) + (draw(st.integers(0, 60)),)
    size = math.prod(shape)
    kind = draw(st.sampled_from(["continuous", "few", "zeros", "equal"]))
    if kind == "continuous":
        values = draw(st.lists(st.floats(allow_nan=False), min_size=size, max_size=size))
    elif kind == "equal":
        values = [draw(st.floats(allow_nan=False))] * size
    else:
        pool = ([0.0, -0.0, 1.0] if kind == "zeros" else
                draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5, unique=True)))
        values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return np.array(values, dtype=float).reshape(shape)


@settings(max_examples=500, deadline=None)
@given(sort_inputs())
@example(np.empty((3, 0)))  # QR with no accepted rows sorts an empty last axis
@example(np.empty(0))
@example(np.array([[2.0], [-0.0]]))
@example(np.array([[-0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
def test_stable_argsort_equals_numpy_stable_sort(values):
    before = values.copy()
    got, srt = _stable_sort(values)
    want = np.argsort(values, axis=-1, kind="stable")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert srt.tobytes() == np.take_along_axis(values, want, axis=-1).tobytes()
    assert values.tobytes() == before.tobytes()


@pytest.mark.parametrize("responses, weights, message", [
    ([1.0, 2.0], [1.0], "equal length"),
    ([], [], "at least one row"),
])
def test_weighted_sample_rejects_bad_shapes(responses, weights, message):
    with pytest.raises(ValueError, match=message):
        WeightedSample(responses, weights)


@st.composite
def scattered_rows(draw):
    """(..., m) nonnegative values at m distinct rows of n, in ascending order."""
    n = draw(st.integers(1, 300))
    lead = draw(st.sampled_from([(1,), (3,), (2, 2)]))
    if draw(st.booleans()):
        rows = np.arange(n)  # every row
    else:
        rows = np.sort(np.array(draw(st.permutations(range(n))))[: draw(st.integers(0, n))])
    values = draw(arrays(float, lead + rows.shape, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1e3), st.floats(1e-200, 1e-150))))
    return values, rows, n


@settings(max_examples=300, deadline=None)
@given(scattered_rows())
def test_full_sums_equal_sums_of_the_dense_array(case):
    # the sums over all n rows, zero rows included, as numpy sums the dense array
    values, rows, n = case
    dense = np.zeros(values.shape[:-1] + (n,))
    dense[..., rows] = values
    before = values.copy()
    sums, squares = full_sums(values, rows, n, squares=True)
    assert sums.tobytes() == dense.sum(axis=-1).tobytes()
    assert squares.tobytes() == (dense**2).sum(axis=-1).tobytes()
    assert full_sums(values, rows, n).tobytes() == sums.tobytes()
    assert values.tobytes() == before.tobytes()
