import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from localquant import (
    Dataset,
    Kernel,
    LocalizationSpec,
    QuantileSpec,
    Replicates,
    RngStream,
    WeightedSample,
    df_quantile_ci,
    localization_weights,
    localize,
    qr_cells,
    qr_interval,
    rejection_sample,
)
from localquant.orderstat import sorted_quantile_cis
from localquant.rng import stream_keys

import interval_reference as ref

Q = QuantileSpec(p=0.5, alpha=0.1, alpha1=0.05)


def test_certain_acceptance():
    # uniform kernel covering every point: w_i = 1, so everything is kept
    rng = np.random.default_rng(1)
    x = rng.uniform(0.4, 0.6, size=50)
    data = Dataset(x[:, None], rng.normal(size=50))
    spec = LocalizationSpec(Kernel.UNIFORM, [0.5], [0.5])
    idx = rejection_sample(data, spec, RngStream(7))
    assert np.array_equal(idx, np.arange(50))
    res = qr_interval(data, spec, Q, RngStream(7))
    direct = df_quantile_ci(data.responses, Q.p, Q.alpha1, Q.alpha2)
    assert (res.lower, res.upper) == (direct.lower, direct.upper)
    assert res.accepted == 50
    assert res.method == "QR"


def test_zero_acceptance():
    data = Dataset([[0.9], [0.95]], [1.0, 2.0])
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.2], [0.1])
    assert rejection_sample(data, spec, RngStream(7)).size == 0
    res = qr_interval(data, spec, Q, RngStream(7))
    assert (res.lower, res.upper) == (-math.inf, math.inf)
    assert res.accepted == 0


def test_acceptance_count_concentration():
    # constant weight 0.3: triangular kernel evaluated at |u| = 0.7
    n = 100_000
    x = np.full(n, 0.5 + 0.7 * 0.1)
    data = Dataset(x[:, None], np.zeros(n))
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1])
    w = localization_weights(data, spec).weights
    assert np.allclose(w, 0.3, rtol=1e-12)
    count = rejection_sample(data, spec, RngStream(123)).size
    assert abs(count - n * 0.3) <= 3.0 * math.sqrt(n * 0.3 * 0.7)


def test_accepted_count_binomial_moments():
    # window inside [0,1]: acceptance probability is exactly h for the
    # triangular kernel, N ~ Binomial(n, h)
    n, h, reps = 400, 0.25, 400
    counts = []
    for r in range(reps):
        rng = RngStream(5150, r)
        x = rng.substream(1).uniforms(n)
        data = Dataset(x[:, None], np.zeros(n))
        spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [h])
        counts.append(rejection_sample(data, spec, rng.substream(2)).size)
    counts = np.asarray(counts, dtype=float)
    mean, var = n * h, n * h * (1 - h)
    assert abs(counts.mean() - mean) <= 3.0 * math.sqrt(var / reps)
    assert abs(counts.var() - var) <= 4.0 * var * math.sqrt(2.0 / (reps - 1))


def test_four_accepted_gives_real_line():
    # exactly 4 rows carry weight 1 (accepted surely), the rest weight 0
    x = np.array([0.5] * 4 + [0.9] * 30)
    data = Dataset(x[:, None], np.linspace(0, 1, 34))
    spec = LocalizationSpec(Kernel.UNIFORM, [0.5], [0.2])
    res = qr_interval(data, spec, Q, RngStream(99))
    assert res.accepted == 4
    assert (res.lower, res.upper) == (-math.inf, math.inf)


def test_row_order_one_uniform_per_row():
    # acceptance of row i depends only on U_i, so prepending rows must not
    # disturb later acceptance decisions given the same stream
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, size=30)
    y = rng.normal(size=30)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.3])
    stream = RngStream(321)
    idx_full = rejection_sample(Dataset(x[:, None], y), spec, stream)
    u = stream.uniforms(30)
    w = localization_weights(Dataset(x[:, None], y), spec).weights
    assert np.array_equal(idx_full, np.flatnonzero(u <= w))


def test_kernel_scale_leaves_acceptance_unchanged():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        weights = rng.uniform(0, 1, size=n)
        kmax = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(1e-8, 1e8))
        u = RngStream(int(rng.integers(1 << 30))).uniforms(n)
        base = u <= weights / kmax
        scaled = u <= (c * weights) / (c * kmax)
        assert np.array_equal(base, scaled)


def test_fixed_seed_reproducible():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=200)
    data = Dataset(x[:, None], rng.normal(size=200))
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1])
    a = qr_interval(data, spec, Q, RngStream(888))
    b = qr_interval(data, spec, Q, RngStream(888))
    assert (a.lower, a.upper, a.accepted) == (b.lower, b.upper, b.accepted)
    c = qr_interval(data, spec, Q, RngStream(889))
    assert (a.lower, a.upper, a.accepted) != (c.lower, c.upper, c.accepted)


def test_accepted_distribution_matches_oracle():
    # pooled accepted responses against direct draws from the localized law
    x0, h = 0.5, 0.2
    sig = 0.3

    def f(x):
        return np.sin(8.0 * x)

    accepted = []
    for r in range(120):
        rng = RngStream(31415, r)
        x = rng.substream(1).uniforms(300)
        y = f(x) + sig * ref.normals(rng.substream(2), 300)
        data = Dataset(x[:, None], y)
        spec = LocalizationSpec(Kernel.TRIANGULAR, [x0], [h])
        idx = rejection_sample(data, spec, rng.substream(3))
        accepted.extend(y[idx])

    # direct sampling: symmetric triangular covariate law on [x0-h, x0+h]
    orng = RngStream(271828)
    m = 20_000
    u = orng.substream(1).uniforms(m)
    t = np.where(u < 0.5, -1.0 + np.sqrt(2.0 * u), 1.0 - np.sqrt(2.0 * (1.0 - u)))
    xs = x0 + h * t
    ys = f(xs) + sig * ref.normals(orng.substream(2), m)

    stat = stats.ks_2samp(np.asarray(accepted), ys)
    assert stat.pvalue > 0.01


# a covariate on three points, whose triangular weights around 0 with h = 1
# are the distinct 1, 3/4 and 1/2, and Y | X on {1, 2, 3}
POINTS = (0.0, 0.25, 0.5)
EXACT_SPEC = LocalizationSpec(Kernel.TRIANGULAR, [0.0], [1.0])
# (P(X = x), and 8 * P(Y = 1, 2, 3 | X = x)) for each point
EXACT_LAWS = [
    ((Fraction(1, 2), Fraction(0), Fraction(1, 2)), ((4, 2, 2), (0, 0, 8), (0, 2, 6))),
    ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), ((1, 6, 1), (4, 0, 4), (0, 1, 7))),
    ((Fraction(1, 8), Fraction(5, 8), Fraction(1, 4)), ((7, 1, 0), (6, 1, 1), (1, 1, 6))),
    # the localized law puts 1/2 on 1 and the unweighted law 1/3, so at p = 1/2 and
    # alpha1 = 0.07 intervals of rows kept whatever their weight miss theta = 1 too often
    ((Fraction(1, 3), Fraction(0), Fraction(2, 3)), ((8, 0, 0), (0, 0, 8), (0, 2, 6))),
]
# criterion 5's (p, alpha1, alpha2), and wider ones whose intervals are finite at n <= 4
EXACT_LEVELS = [(0.5, 0.05, 0.05), (0.25, 0.1, 0.0), (0.7, 0.0, 0.1), (0.5, 0.13, 0.02),
                (0.5, 0.2, 0.2), (0.3, 0.35, 0.1), (0.6, 0.1, 0.3), (0.5, 0.07, 0.0)]


def localized_quantile(law, p):
    """The p-quantile of sum_x P(x) K(x) P(Y <= y | x) / sum_x P(x) K(x), exactly."""
    p_x, cond = law
    mass = [px * (1 - Fraction(x)) for px, x in zip(p_x, POINTS)]
    cdf = Fraction(0)
    for y in (1, 2, 3):
        cdf += sum(m * Fraction(c[y - 1], 8) for m, c in zip(mass, cond)) / sum(mass)
        if cdf >= Fraction(p):
            return y


def test_qr_pipeline_exact_small_n_validity():
    """QR's coverage, summed exactly over every dataset of n <= 4 rows and every
    acceptance pattern, is at least 1 - alpha1 - alpha2 at each n.

    Each dataset goes through `localize`, and the accepted responses of its 2**n
    acceptance patterns go through `sorted_quantile_cis` at once, as 2**n sorted
    samples with +inf after them. A pattern has the probability
    prod_i (w_i / K_max if row i is accepted, else 1 - w_i / K_max), with w_i
    the weight `localize` gives row i. The patterns take the place of the
    uniform draws, so this checks the acceptance rule's probabilities, not the
    random streams. The rows of a localization ascend, so bit j of a
    pattern is row j.
    """
    thetas = np.array([1.0, 2.0, 3.0])
    for n in range(1, 5):
        accepted = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
        all_ys = np.array(list(itertools.product((1, 2, 3), repeat=n)))
        coverage = np.full((len(EXACT_LAWS), len(EXACT_LEVELS)), Fraction(0))
        for xs in itertools.product(range(len(POINTS)), repeat=n):
            covariates = np.array(POINTS)[list(xs), None]
            locs = [localize(Dataset(covariates, ys), [EXACT_SPEC]) for ys in all_ys]
            assert all(loc.rows.tolist() == list(range(n)) for loc in locs)
            accept = [Fraction(w) / Fraction(locs[0].kernel_max) for w in locs[0].weights[0]]
            assert all(loc.weights.tobytes() == locs[0].weights.tobytes() for loc in locs)
            den = math.lcm(*(a.denominator for a in accept))
            num = np.array([int(a * den) for a in accept])
            # den**n times the probability of each pattern
            pattern_weight = np.prod(np.where(accepted, num, den - num), axis=1)
            values = np.array([loc.responses for loc in locs])
            srt = np.sort(np.where(accepted, values[:, None, :], np.inf), axis=-1)
            sizes = np.broadcast_to(accepted.sum(axis=1), srt.shape[:-1])
            for c, (p, a1, a2) in enumerate(EXACT_LEVELS):
                lower, upper = sorted_quantile_cis(srt, sizes, p, a1, a2)
                holds = (lower[..., None] <= thetas) & (thetas <= upper[..., None])
                # (den**n times) the probability that each dataset's interval holds each theta
                hits = np.einsum("p,dpt->dt", pattern_weight, holds.astype(np.int64))
                for law_index, law in enumerate(EXACT_LAWS):
                    p_x, cond = law
                    # 8**n times the probability of each response vector given xs
                    ys_weight = np.prod(np.array(cond)[list(xs), all_ys - 1], axis=1)
                    total = int(ys_weight @ hits[:, localized_quantile(law, p) - 1])
                    coverage[law_index, c] += (math.prod(p_x[i] for i in xs)
                                               * Fraction(total, (8 * den) ** n))
        for law_index, c in itertools.product(range(len(EXACT_LAWS)), range(len(EXACT_LEVELS))):
            _, a1, a2 = EXACT_LEVELS[c]
            assert coverage[law_index, c] >= 1 - Fraction(a1) - Fraction(a2), (n, law_index, c)


def test_dataset_stores_unsigned_zero():
    data = Dataset([[-0.0, 1.0], [0.5, -0.0]], [-0.0, 2.0])
    assert not np.signbit(data.covariates).any()
    assert not np.signbit(data.responses).any()


@pytest.mark.parametrize("normalization", [
    ([1.0, 2.0, 3.0], [1.0]),
    ([1.0], [1.0, 2.0]),
    ([1.0],),
    ([1.0], [1.0], [1.0]),
])
def test_dataset_normalization_has_one_entry_per_covariate(normalization):
    with pytest.raises(ValueError, match="one per covariate"):
        Dataset([[1.0], [2.0]], [1.0, 2.0], normalization=normalization)
    means, sds = Dataset([[1.0, 5.0], [2.0, 6.0]], [1.0, 2.0],
                         normalization=([1.5, 5.5], [0.5, 0.5])).normalization
    assert means.tolist() == [1.5, 5.5] and sds.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("x_names", [("a", "b", "c"), "ab", ["a", "b"]])
def test_dataset_x_names_has_one_name_per_covariate(x_names):
    with pytest.raises(ValueError, match="one name per covariate"):
        Dataset([[1.0], [2.0]], [1.0, 2.0], x_names=x_names)
    two = Dataset([[1.0, 5.0], [2.0, 6.0]], [1.0, 2.0], x_names=x_names[:2])
    assert two.x_names == ("a", "b")
    assert Dataset([[1.0, 5.0], [2.0, 6.0]], [1.0, 2.0]).x_names == ("x0", "x1")


VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.5, math.nan, math.inf, -math.inf])


def stored_arrays(make, inputs):
    """Every array the object `make()` keeps; none when an input is not finite
    and `make()` raises the finiteness error."""
    if not all(np.isfinite(a).all() for a in inputs):
        with pytest.raises(ValueError, match="must be finite"):
            make()
        return []
    obj = make()
    if isinstance(obj, Dataset):
        return [obj.covariates, obj.responses, *obj.normalization, obj.first_column_index]
    if isinstance(obj, WeightedSample):
        return [obj.responses, obj.weights, *(obj.sorted_cdf if obj.weight_sum > 0.0 else ())]
    return [obj.center, obj.bandwidths]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_stored_arrays_are_read_only_with_one_sign_of_zero(n, data):
    x, y, mean, sd, v, c, b = (
        np.array(data.draw(st.lists(VALUES, min_size=n, max_size=n))) for _ in range(7)
    )
    w = np.where(v < 0.0, -v, v)  # nonnegative, -0.0 and NaN kept
    bw = np.where(b == 0.0, 1.0, np.abs(b))  # positive or not finite
    for make, inputs in (
        # n equal covariate columns, so (mean, sd) has one entry per covariate
        (lambda: Dataset(np.repeat(x[:, None], n, axis=1), y, normalization=(mean, sd)),
         (x, y, mean, sd)),
        (lambda: WeightedSample(y, w), (y, w)),
        (lambda: LocalizationSpec(Kernel.TRIANGULAR, c, bw), (c, bw)),
    ):
        for arr in stored_arrays(make, inputs):
            assert not arr.flags.writeable
            assert not np.signbit(arr[arr == 0]).any()
        for arr in inputs:  # the caller's arrays are copied, not frozen
            assert arr.flags.writeable


def endpoints(res):
    return repr(res.lower), repr(res.upper)


def test_signed_zeros_give_the_endpoints_of_unsigned_ones():
    # a tie of +0.0 with -0.0 sorts in a platform-dependent order; the zero
    # invariant makes every endpoint the bits of the sample whose zeros are +0.0
    rng = np.random.default_rng(0)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.3])
    for trial in range(200):
        n = int(rng.integers(1, 120))
        y = np.round(0.6 * rng.normal(size=n)) + 0.0
        signed = np.where(y == 0.0, np.copysign(0.0, rng.random(n) - 0.5), y)
        x = rng.random(n)[:, None]
        for p in (0.1, 0.5, 0.9):
            assert endpoints(df_quantile_ci(signed, p, 0.05, 0.05)) == endpoints(
                df_quantile_ci(y, p, 0.05, 0.05)
            )
            q = QuantileSpec(p, 0.1, 0.05)
            assert endpoints(qr_interval(Dataset(x, signed), spec, q, RngStream(trial))) == (
                endpoints(qr_interval(Dataset(x, y), spec, q, RngStream(trial)))
            )


def test_qr_cells_reads_nested_streams_and_integer_keys_only():
    rng = np.random.default_rng(8)
    data = Replicates(rng.uniform(size=(2, 50, 1)), rng.normal(size=(2, 50)))
    specs = [LocalizationSpec(Kernel.TRIANGULAR, [x0], [0.3]) for x0 in (0.3, 0.6)]
    loc, q = localize(data, specs), QuantileSpec(0.5, 0.1, 0.05)
    streams = [[RngStream(5, 2 * r + k) for k in range(2)] for r in range(2)]
    keys = np.array([[s.key for s in row] for row in streams], dtype=np.uint64)
    want = qr_cells(loc, q, keys)
    assert want.details["accepted"].min() > 0
    # nested sequences of streams, and signed keys, which wrap modulo 2**64
    for same in (streams, keys.view(np.int64)):
        got = qr_cells(loc, q, same)
        for name in ("lower", "upper"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.details["accepted"].tolist() == want.details["accepted"].tolist()
    # a float key, even an integral one, is not a key
    for floats in (np.array([[1.5, 2.0], [3.0, 4.0]]), np.ones((2, 2))):
        with pytest.raises(TypeError, match="integers"):
            qr_cells(loc, q, floats)


def test_qr_is_one_sided_at_a_zero_level():
    # every row is accepted, so QR is DFQ of all 2000 responses
    rng = np.random.default_rng(3)
    data = Dataset(rng.uniform(0.4, 0.6, size=(2000, 1)), rng.normal(size=2000))
    spec = LocalizationSpec(Kernel.UNIFORM, [0.5], [0.5])
    lower_only = qr_interval(data, spec, QuantileSpec(0.5, 0.1, 0.0), RngStream(7))
    upper_only = qr_interval(data, spec, QuantileSpec(0.5, 0.1, 0.1), RngStream(7))
    assert lower_only.accepted == upper_only.accepted == 2000
    assert lower_only.lower == -math.inf and math.isfinite(lower_only.upper)
    assert math.isfinite(upper_only.lower) and upper_only.upper == math.inf
    assert endpoints(lower_only) == endpoints(df_quantile_ci(data.responses, 0.5, 0.0, 0.1))
    assert endpoints(upper_only) == endpoints(df_quantile_ci(data.responses, 0.5, 0.1, 0.0))


def test_qr_cells_of_replicates_with_an_empty_and_a_full_cell():
    # a uniform kernel weighs each row of its support K_max, so QR keeps those
    # rows: none in cell 0, which has no support, and all in cell 2, whose
    # interval is then DFQ of the replicate
    rng = np.random.default_rng(12)
    x, y = rng.uniform(size=(2, 60, 1)), np.round(rng.normal(size=(2, 60)), 1)
    specs = [LocalizationSpec(Kernel.UNIFORM, [c], [h]) for c, h in ((5.0, 0.1), (0.3, 0.2),
                                                                     (0.5, 1.0))]
    batch = qr_cells(localize(Replicates(x, y), specs), Q, stream_keys(3, range(6)).reshape(2, 3))
    accepted = batch.details["accepted"]
    assert accepted[:, 0].tolist() == [0, 0] and accepted[:, 2].tolist() == [60, 60]
    assert np.all((0 < accepted[:, 1]) & (accepted[:, 1] < 60))
    for r in range(2):
        data = Dataset(x[r], y[r])
        for k, spec in enumerate(specs):
            got, want = batch.result((r, k)), ref.qr(data, spec, Q, RngStream(3, 3 * r + k))
            assert endpoints(got) == endpoints(want) and got.accepted == want.accepted
        assert endpoints(batch.result((r, 0))) == (repr(-math.inf), repr(math.inf))
        assert endpoints(batch.result((r, 2))) == endpoints(
            df_quantile_ci(y[r], Q.p, Q.alpha1, Q.alpha2))
