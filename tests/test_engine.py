"""The batched interval engine against the per-cell reference.

`wq_cells`/`qr_cells` compute every (x0, h) cell of one dataset from one
localization; `wq_interval`/`qr_interval` are their one-cell calls. Each cell
must reproduce the per-cell code of `interval_reference.py` bit for bit, and
a cell must come out the same whether it is computed alone or with others.
"""

import functools
import importlib
import io
import math
import pathlib
import pkgutil
import sys
import traceback
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interval_reference as ref
import localquant
from localquant import (
    AllWeightsZero,
    Dataset,
    DomainError,
    Kernel,
    LocalizationSpec,
    PRESETS,
    QuantileSpec,
    Replicates,
    RngStream,
    TieIndices,
    WeightedSample,
    df_quantile_ci,
    effective_sample_size,
    localization_weights,
    localize,
    qr_cells,
    qr_interval,
    quantile_ci_indices,
    rejection_sample,
    run_experiment,
    sigma_hat_p,
    write_summaries,
    weighted_cdf,
    weighted_quantile,
    wq_cells,
    wq_interval,
)
from localquant import orderstat, weighted
from localquant.rng import stream_keys
from localquant.weighted import sorted_cumulative
from localquant.experiments import ExperimentConfig

GOLDEN = pathlib.Path(__file__).parent / "data" / "quick-spikes-s1.csv"

RESULT_FIELDS = ("lower", "upper", "n_eff", "accepted", "p_hat_lo", "p_hat_hi", "sigma_hat")


def fields(res):
    return [repr(getattr(res, name)) for name in RESULT_FIELDS]


def outcome(fn, *args):
    """An IntervalResult's fields, or the type of the error raised."""
    try:
        return fields(fn(*args))
    except (AllWeightsZero, DomainError) as exc:
        return type(exc)


def dense_weights(loc):
    """loc.weights as (..., C, n): each row's weights at its place in row
    order, zero at every row not in loc.rows."""
    dense = np.zeros(loc.weights.shape[:-1] + (loc.n,))
    dense[..., loc.rows] = loc.weights
    return dense


def cell_outcomes(batch):
    out = []
    for k in range(len(batch.errors)):
        try:
            out.append(fields(batch.result(k)))
        except (AllWeightsZero, DomainError) as exc:
            out.append(type(exc))
    return out


@st.composite
def cases(draw):
    """A dataset and a few cells, some of them with no rows in their support."""
    kernel = draw(st.sampled_from(list(Kernel)))
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40))
    x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * d, max_size=n * d)))
    y = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        # heavy ties, signed zeros among them
        y = np.round(y, 0)
    specs = []
    for _ in range(draw(st.integers(1, 5))):
        center = [draw(st.one_of(st.floats(0.0, 1.0), st.just(5.0))) for _ in range(d)]
        bandwidths = [draw(st.floats(0.02, 0.6)) for _ in range(d)]
        specs.append(LocalizationSpec(kernel, center, bandwidths))
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    alpha1 = draw(st.sampled_from([0.0, 0.05, 0.1]))
    seed = draw(st.integers(0, 2**32))
    return Dataset(x.reshape(n, d), y), specs, QuantileSpec(p, 0.1, alpha1), seed


def check_cells(data, specs, q, seed):
    streams = [RngStream(seed).substream(k) for k in range(len(specs))]
    loc = localize(data, specs)
    wq_batch = cell_outcomes(wq_cells(loc, q))
    qr_batch = cell_outcomes(qr_cells(loc, q, streams))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k, (spec, stream) in enumerate(zip(specs, streams)):
            # one cell alone: bit for bit the per-cell reference
            expected_wq = outcome(ref.wq, data, spec, q)
            expected_qr = outcome(ref.qr, data, spec, q, stream)
            assert outcome(wq_interval, data, spec, q) == expected_wq
            assert outcome(qr_interval, data, spec, q, stream) == expected_qr
            alone_wq = cell_outcomes(wq_cells(localize(data, [spec]), q))[0]
            alone_qr = cell_outcomes(qr_cells(localize(data, [spec]), q, [stream]))[0]
            assert alone_wq == expected_wq
            assert alone_qr == expected_qr
            # among other cells: bit for bit as well
            assert wq_batch[k] == alone_wq
            assert qr_batch[k] == alone_qr


@settings(max_examples=300, deadline=None)
@given(cases())
@example((  # two cells on every row, in row order: the weights are summed in place
    Dataset(np.zeros((8, 1)), np.zeros(8)),
    [LocalizationSpec(Kernel.GAUSSIAN, [0.0], [0.5])] * 2,
    QuantileSpec(0.1, 0.1, 0.0),
    0,
))
def test_engine_matches_per_cell_reference(case):
    check_cells(*case)


def test_heavy_ties_at_large_n_match_reference():
    # about 1e3 distinct responses among 2e4 rows, so every response sort of
    # wq_cells and qr_cells puts tie runs back in position order
    rng = np.random.default_rng(2024)
    x = rng.uniform(size=20_000)
    y = np.round(np.sin(6.0 * x) + rng.normal(scale=1.5, size=x.size), 2)
    assert 500 <= np.unique(y).size <= 2000
    specs = [LocalizationSpec(Kernel.BIWEIGHT, [c], [h])
             for c, h in ((0.1, 0.02), (0.4, 0.1), (0.5, 0.6), (0.9, 0.05))]
    for q in (QuantileSpec(0.5, 0.1, 0.05), QuantileSpec(0.9, 0.1, 0.0)):
        check_cells(Dataset(x[:, None], y), specs, q, 77)


def test_reversed_column_order_with_heavy_ties_matches_reference():
    # column 0 descends as the row index ascends, so in every tie run of the
    # responses (7 distinct values) column-0 order is the reverse of row order,
    # and the widest cell holds all of column 0; ties must still break by row
    rng = np.random.default_rng(31)
    n = 4000
    x = np.sort(rng.uniform(size=n))[::-1]
    y = rng.integers(0, 7, size=n).astype(float)
    data = Dataset(x[:, None], y)
    assert np.array_equal(data.first_column_index, np.arange(n)[::-1])
    specs = [LocalizationSpec(Kernel.BIWEIGHT, [c], [h])
             for c, h in ((0.2, 0.05), (0.6, 0.2), (0.5, 2.0))]
    for q in (QuantileSpec(0.5, 0.1, 0.05), QuantileSpec(0.9, 0.1, 0.0)):
        check_cells(data, specs, q, 5)
    for k, spec in enumerate(specs):
        w = ref.weights(data, spec)
        loc = localize(data, [spec])
        assert repr(float(loc.n_eff[0])) == repr(ref._n_eff(w))
        # tie runs in row order: the reference's cumulative weights, every entry
        srt, cum = sorted_cumulative(loc.responses, loc.weights)
        want_srt, want_cum = ref._sorted(data.responses, w)
        assert (srt.tobytes(), cum[0].tobytes()) == (want_srt.tobytes(), want_cum.tobytes())
        stream = RngStream(5).substream(k)
        support = np.flatnonzero(w)
        accepted = support[stream.uniforms_at(support) <= w[support] / spec.kernel_max]
        assert rejection_sample(data, spec, stream).tobytes() == accepted.tobytes()
    assert localize(data, specs[2:]).rows.size == n


def check_layout(data, specs):
    """A Dataset's localization keeps the rows with positive weight in some
    cell, each once and in ascending order, with their weights; nothing else
    has n entries."""
    loc = localize(data, specs)
    m = loc.rows.size
    assert loc.weights.shape == (len(specs), m)
    assert loc.n == data.n
    assert loc.responses.tobytes() == data.responses[loc.rows].tobytes()
    assert loc.responses.shape == (m,)
    assert np.all(loc.rows[1:] > loc.rows[:-1])
    assert np.all(loc.weights.max(axis=0, initial=0.0) > 0.0)
    assert np.array_equal(dense_weights(loc), [ref.weights(data, spec) for spec in specs])
    return loc


def test_localization_layout_edge_cases():
    q = QuantileSpec(0.5, 0.1, 0.05)
    rng = np.random.default_rng(8)
    data = Dataset(rng.uniform(size=(50, 1)), rng.normal(size=50))
    # an empty support
    empty = [LocalizationSpec(Kernel.TRIANGULAR, [c], [0.1]) for c in (5.0, -3.0)]
    loc = check_layout(data, empty)
    assert loc.weights.shape == (2, 0)
    assert [type(e) for e in wq_cells(loc, q).errors] == [AllWeightsZero] * 2
    res = qr_cells(loc, q, [RngStream(1), RngStream(2)]).result(1)
    assert (res.lower, res.upper, res.n_eff, res.accepted) == (-math.inf, math.inf, 0.0, 0)
    with pytest.raises(AllWeightsZero):
        wq_interval(data, empty[0], q)
    check_cells(data, empty, q, 3)
    # a window that holds all of column 0: every row, in row order
    wide = [LocalizationSpec(Kernel.BIWEIGHT, [0.5], [3.0])]
    loc = check_layout(data, wide)
    assert np.array_equal(loc.rows, np.arange(data.n))
    check_cells(data, wide, q, 3)
    # one row, in and out of the window
    one = Dataset([[0.5]], [2.0])
    for spec in (LocalizationSpec(Kernel.UNIFORM, [0.5], [0.1]),
                 LocalizationSpec(Kernel.UNIFORM, [0.9], [0.1])):
        check_layout(one, [spec])
        check_cells(one, [spec], q, 3)


def test_narrow_query_makes_one_n_length_array_at_a_time():
    # the localization and both methods keep arrays of the support rows only;
    # the one n-length array, the buffer of weighted.full_sums, is freed
    # before the next one is made
    rng = np.random.default_rng(9)
    n = 200_000
    data = Dataset(rng.uniform(size=(n, 1)), rng.normal(size=n))
    data.first_column_index  # built once per dataset, not per query
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [1e-3])
    q = QuantileSpec(0.5, 0.1, 0.05)
    tracemalloc.start()
    try:
        loc = localize(data, [spec])
        wq_cells(loc, q)
        qr_cells(loc, q, [RngStream(4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < loc.rows.size < n // 100
    assert 8 * n <= peak < 12 * n


@st.composite
def replicate_cases(draw):
    """R datasets of n rows and a few cells; ties, signed zeros and empty supports."""
    kernel = draw(st.sampled_from(list(Kernel)))
    r, d, n = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2])), draw(st.integers(1, 30))
    x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=r * n * d, max_size=r * n * d)))
    y = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=r * n, max_size=r * n)))
    if draw(st.booleans()):
        y = np.round(y, 0)
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        center = [draw(st.one_of(st.floats(0.0, 1.0), st.just(5.0))) for _ in range(d)]
        bandwidths = [draw(st.floats(0.02, 0.6)) for _ in range(d)]
        specs.append(LocalizationSpec(kernel, center, bandwidths))
    q = QuantileSpec(draw(st.sampled_from([0.1, 0.5, 0.9])), 0.1,
                     draw(st.sampled_from([0.0, 0.05, 0.1])))
    return x.reshape(r, n, d), y.reshape(r, n), specs, q, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(replicate_cases())
def test_replicate_axis_matches_one_dataset_at_a_time(case):
    covariates, responses, specs, q, seed = case
    keys = stream_keys(seed, range(len(responses) * len(specs))).reshape(len(responses), -1)
    loc = localize(Replicates(covariates, responses), specs)
    assert np.array_equal(loc.rows, np.arange(responses.shape[1]))
    batches = wq_cells(loc, q), qr_cells(loc, q, keys)
    for r in range(len(responses)):
        one = localize(Dataset(covariates[r], responses[r]), specs)
        assert dense_weights(loc)[r].tobytes() == dense_weights(one).tobytes()
        assert set(one.rows.tolist()) <= set(loc.rows.tolist())
        for batch, alone in zip(batches, (wq_cells(one, q), qr_cells(one, q, keys[r]))):
            assert cell_outcomes(alone) == [
                outcome(batch.result, (r, k)) for k in range(len(specs))
            ]


@st.composite
def underflow_cases(draw):
    """13-d cells on rows that may include the point whose weight squares to 0."""
    d = 13
    edge = np.full(d, -(1.0 - 2.0**-53))
    rows = [
        edge if draw(st.booleans())
        else np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    y = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(rows), max_size=len(rows)))
    # center 0 puts the edge rows at u = 1 - 2**-53, -0.9 near the middle, 5 outside
    centers = draw(st.lists(st.sampled_from([0.0, -0.9, 5.0]), min_size=1, max_size=4))
    specs = [LocalizationSpec(Kernel.TRIANGULAR, np.full(d, c), np.ones(d)) for c in centers]
    return Dataset(np.array(rows), y), specs, QuantileSpec(0.5, 0.1, 0.05), draw(st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(st.one_of(cases(), underflow_cases()))
def test_localization_weight_stats_match_reference(case):
    data, specs, q, seed = case
    loc = check_layout(data, specs)
    for k, spec in enumerate(specs):
        w = ref.weights(data, spec)
        assert repr(float(loc.weight_sum[k])) == repr(float(np.sum(w)))
        try:
            expected = ref._n_eff(w)
        except (AllWeightsZero, DomainError) as exc:
            assert type(loc.errors[k]) is type(exc)
            assert loc.n_eff[k] == 0.0
        else:
            assert loc.errors[k] is None
            assert repr(float(loc.n_eff[k])) == repr(expected)
    # both methods report the cell's n_eff, which no caller can change
    streams = [RngStream(seed).substream(k) for k in range(len(specs))]
    for batch in (wq_cells(loc, q), qr_cells(loc, q, streams)):
        assert np.array_equal(batch.n_eff, loc.n_eff)
    for stored in (loc.responses, loc.weights, loc.rows, loc.weight_sum, loc.n_eff):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1


def helper_outcome(call):
    """repr of the float call() returns, or the type of the error it raises."""
    try:
        return repr(float(call()))
    except (AllWeightsZero, DomainError) as exc:
        return type(exc)


def engine_outcome(values, error):
    """repr of values[0], or the type of `error` when there is one."""
    return type(error) if error is not None else repr(values[0].item())


@settings(max_examples=200, deadline=None)
@given(st.one_of(cases(), underflow_cases()))
def test_one_cell_helpers_match_the_engine(case):
    # the WeightedSample helpers and wq_cells read the same one-cell localization
    data, specs, q, _ = case
    for spec in specs:
        ws = localization_weights(data, spec)
        loc = localize(data, [spec])
        batch = wq_cells(loc, q)
        assert helper_outcome(lambda: effective_sample_size(ws)) == engine_outcome(
            loc.n_eff, loc.errors[0])
        assert helper_outcome(
            lambda: sigma_hat_p(ws, q.p, weighted_quantile(ws, q.p))
        ) == engine_outcome(batch.details["sigma_hat"], batch.errors[0])
        if batch.errors[0] is None:
            # the levels clipped to (0, 1] as wq_cells clips them
            for ends, level in ((batch.lower, "p_hat_lo"), (batch.upper, "p_hat_hi")):
                p_hat = min(max(batch.details[level][0].item(), 5e-324), 1.0)
                assert helper_outcome(lambda: weighted_quantile(ws, p_hat)) == engine_outcome(
                    ends, None)


def count_weight_stats(monkeypatch):
    """Route every module's weight_stats through a counter; returns the call list."""
    calls = []
    original = weighted.weight_stats

    def counted(weights, rows, n):
        calls.append((weights.shape[:-1], n))
        return original(weights, rows, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("localquant") and getattr(module, "weight_stats", None) is original:
            monkeypatch.setattr(module, "weight_stats", counted)
    return calls


def test_weight_stats_once_per_localization(monkeypatch):
    calls = count_weight_stats(monkeypatch)
    x = np.linspace(0.0, 1.0, 41)
    data = Dataset(x[:, None], np.sin(9.0 * x))
    specs = [LocalizationSpec(Kernel.TRIANGULAR, [c], [0.1]) for c in (0.5, 3.0, 0.2)]
    q = QuantileSpec(0.5, 0.1, 0.05)
    loc = localize(data, specs)
    wq_cells(loc, q)
    qr_cells(loc, q, [RngStream(8).substream(k) for k in range(3)])
    assert calls == [((3,), 41)]
    # a study computes them once per chunk of replicates, for both methods
    # together; seven replicates of 4 cells at n = 60 fit in one chunk
    calls.clear()
    config = ExperimentConfig(
        model=PRESETS["quick-spikes-s1"].model, kernel=Kernel.TRIANGULAR, bandwidths=(0.1, 0.05),
        x0_points=(0.3, 0.5), p=0.5, alpha=0.1, alpha1=0.05, n=60, n_sim=7, master_seed=3,
    )
    run_experiment(config)
    assert calls == [((7, 4), 60)]


def test_empty_support_cells_among_others():
    x = np.linspace(0.0, 1.0, 41)
    data = Dataset(x[:, None], np.round(np.sin(9.0 * x), 1))
    specs = [LocalizationSpec(Kernel.TRIANGULAR, [c], [0.1]) for c in (0.5, 3.0, 0.2, -4.0)]
    q = QuantileSpec(0.5, 0.1, 0.05)
    check_cells(data, specs, q, 8)
    loc = localize(data, specs)
    wq = wq_cells(loc, q)
    assert [type(e) for e in wq.errors] == [type(None), AllWeightsZero, type(None), AllWeightsZero]
    qr = qr_cells(loc, q, [RngStream(8).substream(k) for k in range(4)])
    for k in (1, 3):
        res = qr.result(k)
        assert (res.lower, res.upper, res.n_eff, res.accepted) == (-math.inf, math.inf, 0.0, 0)


def test_underflow_reproducer_raises_in_both_methods():
    # one row under a 13-d triangular kernel at u = 1 - 2**-53 in every
    # dimension: its weight 3.9e-208 squares to 0
    d = 13
    data = Dataset(np.full((1, d), -(1.0 - 2.0**-53)), [1.0])
    specs = [LocalizationSpec(Kernel.TRIANGULAR, np.zeros(d), np.ones(d)),
             LocalizationSpec(Kernel.TRIANGULAR, np.full(d, -0.9), np.ones(d))]
    q = QuantileSpec(0.5, 0.1, 0.05)
    check_cells(data, specs, q, 2)
    loc = localize(data, specs)
    assert isinstance(wq_cells(loc, q).errors[0], DomainError)
    assert isinstance(qr_cells(loc, q, [RngStream(2), RngStream(3)]).errors[0], DomainError)
    with pytest.raises(DomainError, match="underflow"):
        qr_interval(data, specs[0], q, RngStream(2))


def test_failed_cells_have_nan_endpoints_in_both_methods():
    # the underflow row above: QR gave (-inf, inf) beside its DomainError
    d = 13
    data = Dataset(np.full((1, d), -(1.0 - 2.0**-53)), [1.0])
    specs = [LocalizationSpec(Kernel.TRIANGULAR, np.zeros(d), np.ones(d)),
             LocalizationSpec(Kernel.TRIANGULAR, np.full(d, -0.9), np.ones(d))]
    q = QuantileSpec(0.5, 0.1, 0.05)
    loc = localize(data, specs)
    for batch in (wq_cells(loc, q), qr_cells(loc, q, [RngStream(2), RngStream(3)])):
        assert isinstance(batch.errors[0], DomainError) and batch.errors[1] is None
        assert math.isnan(batch.lower[0]) and math.isnan(batch.upper[0])
        assert batch.lower[1] <= batch.upper[1]


def test_cells_must_share_a_kernel():
    data = Dataset([[0.5]], [1.0])
    specs = [LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1]),
             LocalizationSpec(Kernel.UNIFORM, [0.5], [0.1])]
    with pytest.raises(ValueError, match="share a kernel"):
        localize(data, specs)
    with pytest.raises(ValueError):
        localize(data, [])


def test_qr_cells_needs_one_stream_per_cell():
    # one stream for three cells was broadcast to all of them, two raised
    # numpy's broadcast error
    x = np.linspace(0.0, 1.0, 41)
    data = Dataset(x[:, None], np.round(np.sin(9.0 * x), 1))
    specs = [LocalizationSpec(Kernel.TRIANGULAR, [c], [0.2]) for c in (0.2, 0.5, 0.8)]
    q = QuantileSpec(0.5, 0.1, 0.05)
    loc = localize(data, specs)
    for count in (1, 2):
        with pytest.raises(ValueError, match=rf"shape \(3,\); got streams of shape \({count},\)"):
            qr_cells(loc, q, [RngStream(k) for k in range(count)])
    replicates = Replicates(np.stack([data.covariates] * 2), np.stack([data.responses] * 2))
    loc = localize(replicates, specs)
    keys = stream_keys(1, range(6)).reshape(2, 3)
    batch = qr_cells(loc, q, keys)
    alone = qr_cells(localize(data, specs), q, keys[1])
    assert cell_outcomes(alone) == [outcome(batch.result, (1, k)) for k in range(3)]
    with pytest.raises(ValueError, match=r"shape \(2, 3\); got streams of shape \(3,\)"):
        qr_cells(loc, q, keys[0])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=60),
    st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95]),
    st.sampled_from([0.0, 1e-6, 0.025, 0.05, 0.5]),
    st.sampled_from([0.0, 1e-6, 0.025, 0.05, 0.5]),
)
def test_ci_thresholds_match_binomial_tables(values, p, alpha1, alpha2):
    # heavily tied samples: (L, U) thresholds against lookups at every tie index
    srt = np.sort(np.array(values, dtype=float))
    ties = TieIndices.from_sorted(srt)
    expected = ref.ci_indices(len(values), ties, p, alpha1, alpha2)
    assert quantile_ci_indices(len(values), ties, p, alpha1, alpha2) == expected


def test_threshold_cache_holds_integers_only():
    bounds = orderstat._ci_thresholds(100_000, 0.5, 0.05, 0.05)
    assert all(type(b) is int for b in bounds)
    assert not hasattr(orderstat._binom_tables, "cache_info")


def test_no_module_level_cache_but_the_threshold_cache():
    # every other cache is per object, such as WeightedSample's one-cell localization
    found = set()
    for info in pkgutil.iter_modules(localquant.__path__, "localquant."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else ()
            for label, value in [(name, obj), *((f"{name}.{m}", v) for m, v in members)]:
                if hasattr(value, "cache_info"):
                    found.add(f"{value.__module__}.{label}")
    assert found == {"localquant.orderstat._ci_thresholds"}
    assert isinstance(vars(WeightedSample)["_localization"], functools.cached_property)


def test_preset_csv_matches_golden_file():
    # recorded with the per-cell code before the engine existed
    buf = io.StringIO(newline="")
    write_summaries(buf, [(PRESETS["quick-spikes-s1"], run_experiment(PRESETS["quick-spikes-s1"]))])
    with open(GOLDEN, newline="", encoding="utf-8") as fh:
        assert buf.getvalue() == fh.read()


def caught(call):
    """The LocalQuantError that call() raises."""
    try:
        call()
    except (AllWeightsZero, DomainError) as exc:
        return exc
    raise AssertionError("no error raised")


def test_failed_cell_raises_a_fresh_error():
    # a caller that retries a failed cell must not grow the stored error's
    # traceback: each raise is a new exception of the same type and message
    d = 13
    tiny = Dataset(np.full((1, d), -(1.0 - 2.0**-53)), [1.0])  # weights square to 0
    q = QuantileSpec(0.5, 0.1, 0.05)
    empty = localize(tiny, [LocalizationSpec(Kernel.TRIANGULAR, np.full(d, 5.0), np.ones(d))])
    underflow = localize(tiny, [LocalizationSpec(Kernel.TRIANGULAR, np.zeros(d), np.ones(d))])
    for loc, cells in ((empty, lambda: wq_cells(empty, q)),
                       (underflow, lambda: wq_cells(underflow, q)),
                       (underflow, lambda: qr_cells(underflow, q, [RngStream(2)]))):
        first = caught(lambda: cells().result(0))
        for _ in range(999):
            last = caught(lambda: cells().result(0))
        assert len(traceback.extract_tb(last.__traceback__)) == len(
            traceback.extract_tb(first.__traceback__))
        assert type(last) is type(loc.errors[0]) and str(last) == str(loc.errors[0])
        assert last is not loc.errors[0] and loc.errors[0].__traceback__ is None


def test_one_cell_helpers_raise_a_fresh_error():
    # the cached one-cell localization of a sample keeps its error; each call
    # raises a new exception of the same type and message
    d = 13
    tiny = Dataset(np.full((1, d), -(1.0 - 2.0**-53)), [1.0])  # the weight squares to 0
    underflow = localization_weights(
        tiny, LocalizationSpec(Kernel.TRIANGULAR, np.zeros(d), np.ones(d)))
    empty = WeightedSample([1.0, 2.0], [0.0, 0.0])
    assert weighted_quantile(underflow, 0.5) == 1.0
    calls = [lambda ws: weighted_quantile(ws, 0.5), effective_sample_size,
             lambda ws: sigma_hat_p(ws, 0.5, 1.0)]
    for ws, helpers in ((empty, calls), (underflow, calls[1:])):
        for helper in helpers:
            first, second = caught(lambda: helper(ws)), caught(lambda: helper(ws))
            assert first is not second
            assert (type(first), str(first)) == (type(second), str(second))
            assert len(traceback.extract_tb(second.__traceback__)) == len(
                traceback.extract_tb(first.__traceback__))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def batch_bits(batch):
    """Every field of a batch, as bytes, and the types of its errors."""
    return ([bits(getattr(batch, name)) for name in ("lower", "upper", "n_eff")]
            + [bits(batch.details[name]) for name in sorted(batch.details)]
            + [type(e) for e in batch.errors])


def normal_range(values):
    # a power-of-two factor is exact on normal numbers; values far below 1 lose
    # bits as subnormals once scaled down, so they are set to 0.0
    return np.where(np.abs(values) < 2.0**-900, 0.0, values)


def engine_batches(data, specs, q, seed):
    loc = localize(data, specs)
    streams = [RngStream(seed).substream(k) for k in range(len(specs))]
    return wq_cells(loc, q), qr_cells(loc, q, streams)


@settings(max_examples=200, deadline=None)
@given(cases(), st.integers(-20, 20))
def test_scaling_responses_by_a_power_of_two_scales_every_endpoint(case, k):
    data, specs, q, seed = case
    y = normal_range(data.responses)
    base = Dataset(data.covariates, y)
    scaled = Dataset(data.covariates, y * 2.0**k)
    for one, other in zip(engine_batches(base, specs, q, seed),
                          engine_batches(scaled, specs, q, seed)):
        assert bits(other.lower) == bits(one.lower * 2.0**k)
        assert bits(other.upper) == bits(one.upper * 2.0**k)
        # n_eff, the levels p_hat, sigma_hat and the accepted count
        assert batch_bits(other)[2:] == batch_bits(one)[2:]
    dfq, dfq_scaled = (df_quantile_ci(ys, q.p, q.alpha1, q.alpha2) for ys in (y, y * 2.0**k))
    assert bits([dfq_scaled.lower, dfq_scaled.upper]) == bits([dfq.lower * 2.0**k,
                                                               dfq.upper * 2.0**k])
    assert dfq_scaled.n_eff == dfq.n_eff


@settings(max_examples=200, deadline=None)
@given(cases(), st.integers(-20, 20))
def test_scaling_covariates_and_bandwidths_keeps_every_interval(case, k):
    # u = (c - x) / h is the same bits when c, x and h carry one power-of-two factor
    data, specs, q, seed = case

    def scaled(factor):
        cells = [LocalizationSpec(s.kernel, normal_range(s.center) * factor,
                                  s.bandwidths * factor) for s in specs]
        return Dataset(normal_range(data.covariates) * factor, data.responses), cells

    for one, other in zip(engine_batches(*scaled(1.0), q, seed),
                          engine_batches(*scaled(2.0**k), q, seed)):
        assert batch_bits(other) == batch_bits(one)


@settings(max_examples=200, deadline=None)
@given(cases(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=300))
def test_rows_appended_outside_every_window_keep_qr(case, extra):
    # row i keeps draw i and every appended row has weight 0, so QR keeps its
    # accepted rows; n_eff's sums over more zeros may round differently
    data, specs, q, seed = case
    far = np.full((len(extra), data.dim), 100.0)
    longer = Dataset(np.vstack([data.covariates, far]), np.concatenate([data.responses, extra]))
    _, one = engine_batches(data, specs, q, seed)
    _, other = engine_batches(longer, specs, q, seed)
    assert batch_bits(other)[:2] + batch_bits(other)[3:] == (
        batch_bits(one)[:2] + batch_bits(one)[3:])
    np.testing.assert_allclose(other.n_eff, one.n_eff, rtol=1e-12, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(cases(), st.integers(-20, 20))
def test_scaling_weights_by_a_power_of_two_keeps_quantiles_and_cdf(case, j):
    # kernel weights are 0 or at least 1e-300, so w * 2**j stays a normal number
    data, specs, q, _ = case
    ws = localization_weights(data, specs[0])
    scaled = WeightedSample(ws.responses, ws.weights * 2.0**j)
    if ws.weight_sum <= 0.0:
        with pytest.raises(AllWeightsZero):
            weighted_quantile(scaled, q.p)
        return
    ys = np.concatenate([ws.responses, ws.responses + 0.25, [-math.inf, math.inf]])

    def quantiles_and_cdf(sample):
        return bits([weighted_quantile(sample, p) for p in (q.p, 0.25, 1.0, 1e-300)]
                    + [weighted_cdf(sample, y) for y in ys])

    assert quantiles_and_cdf(scaled) == quantiles_and_cdf(ws)
