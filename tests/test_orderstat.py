import ast
import inspect
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from localquant import (DomainError, QuantileSpec, TieIndices, binom_cdf, df_quantile_ci,
                        quantile_ci_indices)
from localquant import orderstat
from localquant.orderstat import sorted_quantile_cis

import interval_reference as ref


def binom_cdf_oracle(n, p, k):
    """Term-by-term summation with exact arithmetic."""
    if k < 0:
        return Fraction(0)
    q = Fraction(p)
    return sum(math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(min(k, n) + 1))


def indices_oracle(n, i_min, i_max, p, a1, a2):
    """Literal sup/inf scans using an independent binomial tail (scipy)."""
    ext_imax = [0] + list(i_max)
    l_hat = max(i for i in range(n + 1) if stats.binom.cdf(ext_imax[i] - 1, n, p) <= a1)
    ext_imin = list(i_min) + [n + 1]
    u_hat = min(
        j
        for j in range(1, n + 2)
        if stats.binom.sf(ext_imin[j - 1] - 1, n, p) <= a2 or j == n + 1
    )
    return l_hat, u_hat


def test_binom_cdf_trivial():
    assert binom_cdf(5, 0.5, 0) == 1.0 / 32.0
    assert binom_cdf(5, 0.5, 5) == 1.0
    assert binom_cdf(5, 0.5, -1) == 0.0
    assert binom_cdf(0, 0.5, 0) == 1.0


def test_binom_cdf_against_oracle():
    cases = [(10, 0.3, 3), (17, 0.5, 8), (200, 0.5, 80), (50, 0.9, 49), (120, 0.07, 2)]
    for n, p, k in cases:
        want = float(binom_cdf_oracle(n, p, k))
        got = binom_cdf(n, p, k)
        assert got == pytest.approx(want, rel=1e-12)


def test_binom_cdf_randomized_against_scipy():
    # scipy screens most cases; its betainc loses accuracy in extreme tails,
    # so disagreements are adjudicated by the exact-arithmetic oracle
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        p = float(rng.uniform(0.02, 0.98))
        k = int(rng.integers(-1, n + 2))
        mine = binom_cdf(n, p, k)
        screen = float(stats.binom.cdf(k, n, p))
        if mine != pytest.approx(screen, rel=1e-10, abs=1e-300):
            assert mine == pytest.approx(float(binom_cdf_oracle(n, p, k)), rel=1e-12)


def test_binom_cdf_validation():
    with pytest.raises(ValueError):
        binom_cdf(5, 0.0, 2)
    with pytest.raises(ValueError):
        binom_cdf(-1, 0.5, 0)


def test_binom_cdf_counts_must_be_integers():
    # 10.5 gave 0.13996 and k = 2.5 a bare IndexError
    for n, k in ((10.5, 3), (10, 2.5)):
        with pytest.raises(TypeError):
            binom_cdf(n, 0.5, k)
    assert binom_cdf(np.int64(10), 0.5, np.int32(3)) == binom_cdf(10, 0.5, 3)


def test_tie_indices():
    t = TieIndices.from_sorted(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]))
    assert t.i_min.tolist() == [1, 1, 3, 4, 4, 4]
    assert t.i_max.tolist() == [2, 2, 3, 6, 6, 6]
    for indices in (t.i_min, t.i_max):
        with pytest.raises(ValueError, match="read-only"):
            indices[0] = 0
    with pytest.raises(ValueError):
        TieIndices.from_sorted(np.array([2.0, 1.0]))


def test_tie_indices_reject_nan():
    # NaN defeated the ascending check: every comparison with it is False
    with pytest.raises(ValueError, match="sorted"):
        TieIndices.from_sorted(np.array([3.0, math.nan, 1.0]))


@pytest.mark.parametrize("values", [[math.nan], [1.0, math.nan]])
def test_tie_indices_reject_a_lone_or_last_nan(values):
    # a lone NaN had no pair to compare and was accepted
    with pytest.raises(ValueError, match="sorted ascending"):
        TieIndices.from_sorted(np.array(values))


def test_indices_five_distinct():
    # P(B(5,.5) < 1) = 1/32 <= .05 < P(B < 2) = 6/32,
    # P(B >= 5) = 1/32 <= .05 < P(B >= 4) = 6/32
    t = TieIndices.from_sorted(np.arange(5.0))
    assert quantile_ci_indices(5, t, 0.5, 0.05, 0.05) == (1, 5)


def test_indices_reject_ties_of_another_size():
    # ties of 10 values gave (0, 4) for n = 3 and (10, 41) for n = 40
    t = TieIndices.from_sorted(np.arange(10.0))
    for n in (3, 40):
        with pytest.raises(ValueError, match="10"):
            quantile_ci_indices(n, t, 0.5, 0.05, 0.05)
    assert quantile_ci_indices(10, t, 0.5, 0.05, 0.05) == (2, 9)


def test_indices_size_must_be_integer():
    # 10.0 passed every check and then failed as a slice index deep inside
    t = TieIndices.from_sorted(np.arange(10.0))
    with pytest.raises(TypeError, match="integer"):
        quantile_ci_indices(10.0, t, 0.5, 0.05, 0.05)
    assert quantile_ci_indices(np.int64(10), t, 0.5, 0.05, 0.05) == (2, 9)


@pytest.mark.parametrize("p, alpha1, alpha2", [
    (1.5, 0.05, 0.05),  # math domain error
    (math.nan, 0.05, 0.05),  # the interval (-inf, min]
    (0.5, 0.9, 0.9),  # the crossed indices (7, 4)
])
def test_indices_reject_bad_levels(p, alpha1, alpha2):
    t = TieIndices.from_sorted(np.arange(10.0))
    with pytest.raises(ValueError, match="p must|exceed 1"):
        quantile_ci_indices(10, t, p, alpha1, alpha2)


@pytest.mark.parametrize("alpha1, alpha2", [(0.6, 0.6), (0.9, 0.9)])
def test_df_ci_rejects_alphas_above_one(alpha1, alpha2):
    # (0.6, 0.6) gave [5, 6]; (0.9, 0.9) raised "interval endpoints out of order"
    with pytest.raises(ValueError, match="exceed 1"):
        df_quantile_ci(np.repeat(np.arange(1.0, 11.0), 5), 0.5, alpha1, alpha2)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.floats(1e-9, 1.0, exclude_max=True), st.just(1.0 - 2.0**-53)),
    st.floats(0.0, 1.0),
    st.lists(st.integers(0, 4), min_size=1, max_size=30),
    st.sampled_from([0.05, 0.5, 0.95]),
)
def test_every_quantile_spec_split_is_accepted(alpha, share, values, p):
    # a split of alpha < 1 can sum to exactly 1.0 in floating point
    q = QuantileSpec(p, alpha, alpha * share)
    assert q.alpha1 + q.alpha2 <= 1.0
    ys = np.array(values, dtype=float)
    ties = TieIndices.from_sorted(np.sort(ys))
    l_hat, u_hat = quantile_ci_indices(len(ys), ties, p, q.alpha1, q.alpha2)
    assert 0 <= l_hat and u_hat <= len(ys) + 1
    res = df_quantile_ci(ys, p, q.alpha1, q.alpha2)
    assert res.lower <= res.upper


def test_split_that_sums_to_one_is_accepted():
    alpha = 1.0 - 2.0**-53
    q = next(q for q in (QuantileSpec(0.5, alpha, alpha * k / 97) for k in range(98))
             if q.alpha1 + q.alpha2 == 1.0)
    df_quantile_ci(np.arange(10.0), 0.5, q.alpha1, q.alpha2)
    quantile_ci_indices(10, TieIndices.from_sorted(np.arange(10.0)), 0.5, q.alpha1, q.alpha2)


def test_indices_n4_whole_line():
    t = TieIndices.from_sorted(np.arange(4.0))
    assert quantile_ci_indices(4, t, 0.5, 0.05, 0.05) == (0, 5)


def test_indices_alpha1_zero():
    t = TieIndices.from_sorted(np.sort(np.random.default_rng(3).normal(size=9)))
    l_hat, _ = quantile_ci_indices(9, t, 0.5, 0.0, 0.05)
    assert l_hat == 0


def test_indices_match_exhaustive_scan():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        vals = np.sort(np.round(rng.normal(size=n), 1))
        t = TieIndices.from_sorted(vals)
        p = float(rng.choice([0.25, 0.5, 0.7]))
        a1 = float(rng.choice([0.0, 0.02, 0.05, 0.13]))
        a2 = float(rng.choice([0.0, 0.02, 0.05, 0.13]))
        assert quantile_ci_indices(n, t, p, a1, a2) == indices_oracle(
            n, t.i_min, t.i_max, p, a1, a2
        )


def test_distinct_data_match_classical():
    # with no ties I_{i,min} = I_{i,max} = i and the classical CI applies
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        t = TieIndices.from_sorted(np.sort(rng.normal(size=n)))
        assert np.array_equal(t.i_min, np.arange(1, n + 1))
        assert np.array_equal(t.i_max, np.arange(1, n + 1))
        p, a1, a2 = 0.5, 0.05, 0.05
        l_hat, u_hat = quantile_ci_indices(n, t, p, a1, a2)
        classical_l = max(
            i for i in range(n + 1) if float(stats.binom.cdf(i - 1, n, p)) <= a1
        )
        classical_u = min(
            [j for j in range(1, n + 1) if float(stats.binom.sf(j - 1, n, p)) <= a2] or [n + 1]
        )
        assert (l_hat, u_hat) == (classical_l, classical_u)


def test_alpha_monotonicity():
    rng = np.random.default_rng(91)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        t = TieIndices.from_sorted(np.sort(np.round(rng.normal(size=n), 1)))
        p = float(rng.uniform(0.1, 0.9))
        grid = [0.0, 0.01, 0.05, 0.1, 0.2]
        lhats = [quantile_ci_indices(n, t, p, a, 0.05)[0] for a in grid]
        uhats = [quantile_ci_indices(n, t, p, 0.05, a)[1] for a in grid]
        assert all(a <= b for a, b in zip(lhats, lhats[1:]))
        assert all(a >= b for a, b in zip(uhats, uhats[1:]))


def test_df_ci_five_distinct():
    ys = [3.0, 1.0, 4.0, 1.5, 9.0]
    res = df_quantile_ci(ys, 0.5, 0.05, 0.05)
    assert (res.lower, res.upper) == (1.0, 9.0)
    assert res.method == "DFQ"


def test_df_ci_point_mass():
    res = df_quantile_ci([1.0] * 5, 0.5, 0.05, 0.05)
    assert res.contains(1.0)


@pytest.mark.parametrize("ys", [[math.nan] + list(range(1, 10)), [1.0] * 40 + [math.nan]])
def test_df_ci_rejects_nan(ys):
    # a NaN would sort last and count as a sample
    with pytest.raises(DomainError, match="NaN"):
        df_quantile_ci(ys, 0.5, 0.05, 0.05)


@pytest.mark.parametrize("p", [0.01, 0.2, 0.5, 0.8, 0.99])
def test_empty_sample_thresholds_give_trivial_interval(p):
    # sorted_quantile_cis relies on (0, 1) for an empty sample: no lower, no upper rank
    alphas = [0.0, 1e-9, 0.01, 0.05, 0.1, 0.5, 0.99]
    for alpha1 in alphas:
        for alpha2 in alphas:
            assert orderstat._ci_thresholds(0, p, alpha1, alpha2) == (0, 1)


def test_df_ci_uniform_median_coverage():
    # 1000 seeded replicates, n = 1000 draws from U(0,1)
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(1000):
        ys = rng.uniform(0, 1, size=1000)
        if df_quantile_ci(ys, 0.5, 0.05, 0.05).contains(0.5):
            hits += 1
    assert hits >= 900


def enumerate_coverage(probs, n, p, a1, a2):
    """Exact coverage of the CI over all samples from a discrete law.

    probs: Fraction masses on support 1..len(probs).
    """
    support = list(range(1, len(probs) + 1))
    cdf = []
    acc = Fraction(0)
    for q in probs:
        acc += q
        cdf.append(acc)
    theta = next(v for v, c in zip(support, cdf) if c >= Fraction(p))
    covered = Fraction(0)
    for combo in combinations_with_replacement(support, n):
        counts = [combo.count(v) for v in support]
        prob = Fraction(math.factorial(n))
        for c, q in zip(counts, probs):
            if c and q == 0:
                prob = Fraction(0)
                break
            prob = prob * q**c / math.factorial(c)
        if prob == 0:
            continue
        res = df_quantile_ci([float(v) for v in combo], p, a1, a2)
        if res.contains(float(theta)):
            covered += prob
    return covered


def test_exhaustive_coverage_small():
    # every denominator-4 distribution on {1,2,3}, n <= 6: coverage is at
    # least 1 - a1 - a2 with exact arithmetic
    a1, a2 = 0.05, 0.05
    bound = 1 - Fraction(a1) - Fraction(a2)
    for i in range(5):
        for j in range(5 - i):
            probs = [Fraction(i, 4), Fraction(j, 4), Fraction(4 - i - j, 4)]
            for n in (1, 3, 6):
                cov = enumerate_coverage(probs, n, 0.5, a1, a2)
                assert cov >= bound, (probs, n, float(cov))


def test_exhaustive_coverage_five_support_points():
    a1, a2 = 0.05, 0.05
    bound = 1 - Fraction(a1) - Fraction(a2)
    dists = [
        [Fraction(1, 5)] * 5,
        [Fraction(2, 8), Fraction(1, 8), Fraction(2, 8), Fraction(1, 8), Fraction(2, 8)],
        [Fraction(0), Fraction(3, 8), Fraction(0), Fraction(4, 8), Fraction(1, 8)],
        [Fraction(6, 8), Fraction(0), Fraction(0), Fraction(1, 8), Fraction(1, 8)],
    ]
    for probs in dists:
        for n in (4, 8):
            for p in (0.3, 0.5):
                cov = enumerate_coverage(probs, n, p, a1, a2)
                assert cov >= bound, (probs, n, p, float(cov))


@pytest.mark.parametrize("call, message", [
    (lambda: TieIndices.from_sorted([]), "at least one value"),
    (lambda: quantile_ci_indices(0, TieIndices.from_sorted([1.0]), 0.5, 0.05, 0.05),
     "n must be at least 1"),
    (lambda: quantile_ci_indices(3, TieIndices.from_sorted([1.0, 2.0, 3.0]), 0.5, -0.1, 0.05),
     "alpha1 and alpha2 must lie"),
    (lambda: df_quantile_ci(np.ones((2, 2)), 0.5, 0.05, 0.05), "nonempty 1-d"),
    (lambda: df_quantile_ci([], 0.5, 0.05, 0.05), "nonempty 1-d"),
], ids=["no-ties", "n-zero", "alpha-negative", "df-2d", "df-empty"])
def test_orderstat_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def exact_thresholds(n, p, alpha1, alpha2, cdf=None):
    """(L, U) of `_ci_thresholds` from exact tails: L counts the i in 1..n with
    P(B < i) <= alpha1, and U is the least j in 1..n with P(B >= j) <= alpha2, or
    n + 1. `cdf` holds P(B <= k) for k < n, if already computed."""
    cdf = cdf or [binom_cdf_oracle(n, p, k) for k in range(n)]
    lower = sum(cdf[i - 1] <= Fraction(alpha1) for i in range(1, n + 1))
    upper = min([j for j in range(1, n + 1) if 1 - cdf[j - 1] <= Fraction(alpha2)] + [n + 1])
    return lower, upper


def test_thresholds_where_the_float_tails_cannot_decide():
    # a tail that underflows to 0.0 is still positive, so it is never <= 0
    assert orderstat._ci_thresholds(2000, 0.5, 0.0, 0.05)[0] == 0
    assert orderstat._ci_thresholds(400, 0.9, 0.0, 0.05)[0] == 0
    assert orderstat._ci_thresholds(2000, 0.5, 0.05, 0.0)[1] == 2001
    # P(B(3, 1/2) <= 0) = 1/8 exactly, which the table rounds one ulp high
    assert orderstat._ci_thresholds(3, 0.5, 0.125, 0.0) == (1, 4)
    assert orderstat._ci_thresholds(1, 0.1, 0.0, 0.1) == exact_thresholds(1, 0.1, 0.0, 0.1) == (0, 1)


@pytest.mark.parametrize("p", [0.25, 0.5])
def test_thresholds_at_every_exact_tail_and_its_neighbours(p):
    for n in range(1, 31):
        cdf = [binom_cdf_oracle(n, p, k) for k in range(n)]
        tails = {float(t) for t in cdf} | {float(1 - t) for t in cdf}
        levels = {a for t in tails for a in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0))}
        for alpha in sorted(a for a in levels if a < 1.0):
            for alpha1, alpha2 in ((alpha, alpha), (alpha, 0.0), (0.0, alpha)):
                got = orderstat._ci_thresholds(n, p, alpha1, alpha2)
                assert got == exact_thresholds(n, p, alpha1, alpha2, cdf), (n, alpha1, alpha2)


def exact_tails(n, p):
    """(lower, upper, scale): P(B <= k) = lower[k] / scale and P(B >= k) =
    upper[k] / scale for k = 0..n, all integers, with p = a / d exactly."""
    a, d = p.as_integer_ratio()
    terms = [math.comb(n, j) * a**j * (d - a) ** (n - j) for j in range(n + 1)]
    return list(accumulate(terms)), list(accumulate(terms[::-1]))[::-1], d**n


def table_errors(n, p):
    """The worst error of `_binom_tables(n, p)` against exact tails: relative, in
    units of `_table_error`, over entries whose exact tail is normal, and
    absolute, in units of the `_count_at_most` slack (n + 1) 2**-1073, over
    the others."""
    lower, upper, scale = exact_tails(n, p)
    relative = absolute = 0.0
    for table, exact in zip(orderstat._binom_tables(n, p), (lower, upper)):
        for entry, tail in zip(table.tolist(), exact):
            num, den = entry.as_integer_ratio()
            diff = abs(num * scale - tail * den)  # scale * den * |entry - tail / scale|
            if tail * 2**1022 >= scale:
                relative = max(relative, diff / (tail * den) / orderstat._table_error(n, p))
            else:
                absolute = max(absolute, diff * 2**1073 / (scale * den * (n + 1)))
    return relative, absolute


TABLE_PS = [2.0**-30, 0.01, 0.2, 0.37, 0.5, 0.93, 0.999, 1 - 2.0**-20]


@pytest.mark.parametrize("p", TABLE_PS)
def test_binom_tables_within_their_error_at_small_n(p):
    # p = 2**-30 puts the mode at 0 and underflows the upper tail; 1 - 2**-20
    # puts it at n and underflows the lower tail
    for n in range(61):
        relative, absolute = table_errors(n, p)
        assert relative <= 1.0 and absolute <= 1.0, n


@pytest.mark.parametrize("n", [100, 257, 1000, 4000])
def test_binom_tables_within_their_error_at_larger_n(n):
    relative, absolute = table_errors(n, 0.5)
    assert relative <= 1.0 and absolute <= 1.0


def test_table_error_at_most_8_eps_n_plus_2():
    eps = np.finfo(float).eps
    for n in (0, 1, 10, 10_000, 1_000_000):
        assert orderstat._table_error(n, 0.37) <= 8 * eps * (n + 2)


@pytest.mark.parametrize("n", [100, 257, 1000])
def test_thresholds_at_exact_tails_of_larger_samples(n):
    # at p = 1/2, P(B >= j) = P(B <= n - j), so both thresholds count the
    # exact tails P(B <= k), k < n, that are <= the level
    lower, _, scale = exact_tails(n, 0.5)
    cdf = lower[:n]
    tails = [t / scale for t in cdf]
    levels = {a for t in tails if 1e-4 <= t <= 0.5
              for a in (t, math.nextafter(t, 0.0), math.nextafter(t, 1.0))}

    def count(alpha):
        return bisect_right(cdf, Fraction(alpha) * scale)

    for alpha in sorted(levels):
        for alpha1, alpha2 in ((alpha, alpha), (alpha, 0.0), (0.0, alpha)):
            want = (count(alpha1), n + 1 - count(alpha2))
            assert orderstat._ci_thresholds(n, 0.5, alpha1, alpha2) == want, (alpha1, alpha2)


def test_level_just_above_a_tail_is_decided_in_floats(monkeypatch):
    # 2e-10 relative above the table's tail is outside the table's error band,
    # so no threshold of B(10000, 0.37) needs exact arithmetic
    n, p = 10_000, 0.37
    alpha = float(orderstat._binom_tables(n, p)[0][3556]) * (1 + 2e-10)

    def exact(*args):
        raise AssertionError("decided in exact arithmetic")

    monkeypatch.setattr(orderstat, "_exact_cdf_at_most", exact)
    assert orderstat._ci_thresholds.__wrapped__(n, p, alpha, 0.05) == (3557, 3780)


def test_df_ci_is_one_sided_at_a_zero_level():
    ys = np.arange(2000.0)
    lower_only = df_quantile_ci(ys, 0.5, 0.0, 0.05)
    assert lower_only.lower == -math.inf and math.isfinite(lower_only.upper)
    upper_only = df_quantile_ci(ys, 0.5, 0.05, 0.0)
    assert math.isfinite(upper_only.lower) and upper_only.upper == math.inf


def padded(samples, width):
    """Each sample sorted into a row of `width` entries, +inf after it, and the sizes."""
    values = np.full((len(samples), width), math.inf)
    for k, sample in enumerate(samples):
        values[k, :len(sample)] = np.sort(sample)
    return values, [len(sample) for sample in samples]


def one_sample_ci(sample, p, alpha1, alpha2):
    """(lower, upper) of one sample from `quantile_ci_indices` and its tie indices."""
    n = len(sample)
    if n == 0:
        return -math.inf, math.inf
    srt = np.sort(sample)
    l_hat, u_hat = quantile_ci_indices(n, TieIndices.from_sorted(srt), p, alpha1, alpha2)
    return (-math.inf if l_hat == 0 else srt[l_hat - 1],
            math.inf if u_hat == n + 1 else srt[u_hat - 1])


def straddling_runs(n, p, alpha1, alpha2):
    """n ascending values whose tie runs cover ranks L - 1..L + 1 and U - 1..U + 1."""
    lower, upper = orderstat._ci_thresholds(n, p, alpha1, alpha2)
    ranks = np.arange(1, n + 1)
    run = np.cumsum(~(((ranks >= lower) & (ranks <= lower + 1))
                      | ((ranks >= upper) & (ranks <= upper + 1))))
    return run.astype(float)


@pytest.mark.parametrize("p, alpha1, alpha2", [
    (0.5, 0.05, 0.05), (0.5, 0.0, 0.05), (0.5, 0.05, 0.0), (0.3, 0.1, 0.02), (0.8, 0.0, 0.0),
])
def test_sorted_quantile_cis_match_one_sample_indices(p, alpha1, alpha2):
    rng = np.random.default_rng(8)
    samples = [
        [],
        rng.normal(size=40),  # as wide as the array
        [2.5] * 17,
        straddling_runs(40, p, alpha1, alpha2),
        straddling_runs(25, p, alpha1, alpha2),
        np.round(rng.normal(size=31), 1),
        [-1.0],
    ]
    for width in (40, 41):
        values, sizes = padded(samples, width)
        lower, upper = sorted_quantile_cis(values, sizes, p, alpha1, alpha2)
        for k, sample in enumerate(samples):
            assert (lower[k], upper[k]) == one_sample_ci(sample, p, alpha1, alpha2), (width, k)
        # the same samples as a (2, 7) batch, the second row reversed
        batch = np.stack((values, values[::-1]))
        sizes2 = np.stack((sizes, sizes[::-1]))
        lower2, upper2 = sorted_quantile_cis(batch, sizes2, p, alpha1, alpha2)
        assert np.array_equal(lower2, np.stack((lower, lower[::-1])))
        assert np.array_equal(upper2, np.stack((upper, upper[::-1])))
    # the runs do straddle the thresholds inside the sample
    ties = TieIndices.from_sorted(straddling_runs(40, p, alpha1, alpha2))
    for rank in orderstat._ci_thresholds(40, p, alpha1, alpha2):
        if 1 < rank < 40:
            assert ties.i_min[rank - 1] < rank < ties.i_max[rank - 1]


def test_sorted_quantile_cis_read_a_sample_end_without_a_change_of_value():
    # L = n = 2 at these levels, so the last run's i_max counts, and it must be
    # read where the sample ends: at the end of the row, or at +inf values
    # followed by the +inf padding
    samples = [[1.0, 2.0], [1.0, math.inf], [math.inf, math.inf], [2.0]]
    for width in (2, 3):
        values, sizes = padded(samples, width)
        lower, upper = sorted_quantile_cis(values, sizes, 0.5, 0.75, 0.25)
        for k, sample in enumerate(samples):
            assert (lower[k], upper[k]) == one_sample_ci(sample, 0.5, 0.75, 0.25), (width, k)
    assert orderstat._ci_thresholds(2, 0.5, 0.75, 0.25) == (2, 2)


def test_sorted_quantile_cis_of_empty_samples_only():
    for width in (0, 3):
        lower, upper = sorted_quantile_cis(np.full((2, 3, width), math.inf), np.zeros((2, 3), int),
                                           0.5, 0.05, 0.05)
        assert lower.shape == upper.shape == (2, 3)
        assert np.all(lower == -math.inf) and np.all(upper == math.inf)


def defined_ties(sample):
    """i_min = 1 + #{x < x_j} and i_max = #{x <= x_j} of each value x_j of `sample`."""
    return SimpleNamespace(i_min=1 + np.sum(sample[None, :] < sample[:, None], axis=1),
                           i_max=np.sum(sample[None, :] <= sample[:, None], axis=1))


@pytest.mark.parametrize("seed", range(4))
def test_count_rule_matches_the_reference_indices(seed):
    # rounded values in long tie runs, -inf and +inf inside samples, empty
    # samples, rows as wide as the largest sample or one wider, (C,) and (R, C)
    # batches, and levels with alpha1 or alpha2 = 0; samples of 1-3 values at
    # alpha 0.2 or 0.5 give L = size and U = 1
    rng = np.random.default_rng(seed)
    for _ in range(200):
        p = float(rng.choice([0.1, 0.3, 0.5, 0.8]))
        alpha1, alpha2 = rng.choice([0.0, 0.01, 0.05, 0.2, 0.5], size=2).tolist()
        shape = tuple(rng.integers(1, 6 if rng.random() < 0.5 else 4, size=rng.integers(1, 3)))
        sizes = rng.integers(0, rng.choice([4, 25]), size=shape)
        values = np.full(shape + (int(sizes.max()) + int(rng.integers(0, 2)),), math.inf)
        for k in np.ndindex(shape):
            sample = np.round(rng.normal(size=sizes[k]) * rng.choice([0.3, 3.0]))
            sample[rng.random(sizes[k]) < 0.1] = math.inf
            sample[rng.random(sizes[k]) < 0.1] = -math.inf
            values[k][:sizes[k]] = np.sort(sample)
        lower, upper = sorted_quantile_cis(values, sizes, p, alpha1, alpha2)
        for k in np.ndindex(shape):
            n = int(sizes[k])
            if n == 0:
                assert (lower[k], upper[k]) == (-math.inf, math.inf)
                continue
            sample = values[k][:n]
            ties = defined_ties(sample)
            got = TieIndices.from_sorted(sample)
            assert np.array_equal(got.i_min, ties.i_min) and np.array_equal(got.i_max, ties.i_max)
            l_hat, u_hat = ref.ci_indices(n, ties, p, alpha1, alpha2)
            ends = np.concatenate(([-math.inf], sample, [math.inf]))
            assert (lower[k], upper[k]) == (ends[l_hat], ends[u_hat]), (sample, p, alpha1, alpha2)


def test_orderstat_imports_neither_fractions_decimal_nor_scipy():
    # importing fractions (which loads decimal) cost 0.28-0.4 MB of benchmark
    # peak RSS; `import localquant.orderstat` runs the package __init__, which
    # loads scipy through other modules, so the module's own source is read
    tree = ast.parse(inspect.getsource(orderstat))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert "numpy" in modules
    assert not [name for name in modules
                if name.split(".")[0] in ("decimal", "fractions", "scipy")]
