"""The batched interval engine against the per-cell reference.

`wq_cells`/`qr_cells` compute every (x0, h) cell of one dataset from one
localization; `wq_interval`/`qr_interval` are their one-cell calls. Each cell
must reproduce the per-cell code of `interval_reference.py` bit for bit, and
a cell must come out the same whether it is computed alone or with others.
"""

import io
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interval_reference as ref
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
    localize,
    qr_cells,
    qr_interval,
    quantile_ci_indices,
    run_experiment,
    write_summaries,
    wq_cells,
    wq_interval,
)
from localquant import orderstat, weighted
from localquant.rng import stream_keys
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
def test_engine_matches_per_cell_reference(case):
    check_cells(*case)


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
    batches = wq_cells(loc, q), qr_cells(loc, q, keys)
    for r in range(len(responses)):
        one = localize(Dataset(covariates[r], responses[r]), specs)
        assert loc.weights[r].tobytes() == one.weights.tobytes()
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
    loc = localize(data, specs)
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
    for stored in (loc.weights, loc.rows, loc.weight_sum, loc.n_eff):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1


def count_weight_stats(monkeypatch):
    """Route every module's weight_stats through a counter; returns the call list."""
    calls = []
    original = weighted.weight_stats

    def counted(weights):
        calls.append(weights.shape)
        return original(weights)

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
    assert calls == [(3, 41)]
    # a study computes them once per chunk of replicates, for both methods
    # together; seven replicates of 4 cells at n = 60 fit in one chunk
    calls.clear()
    config = ExperimentConfig(
        model=PRESETS["quick-spikes-s1"].model, kernel=Kernel.TRIANGULAR, bandwidths=(0.1, 0.05),
        x0_points=(0.3, 0.5), p=0.5, alpha=0.1, alpha1=0.05, n=60, n_sim=7, master_seed=3,
    )
    run_experiment(config)
    assert calls == [(7, 4, 60)]


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


def test_cells_must_share_a_kernel():
    data = Dataset([[0.5]], [1.0])
    specs = [LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.1]),
             LocalizationSpec(Kernel.UNIFORM, [0.5], [0.1])]
    with pytest.raises(ValueError, match="share a kernel"):
        localize(data, specs)
    with pytest.raises(ValueError):
        localize(data, [])


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


def test_preset_csv_matches_golden_file():
    # recorded with the per-cell code before the engine existed
    buf = io.StringIO(newline="")
    write_summaries(buf, [(PRESETS["quick-spikes-s1"], run_experiment(PRESETS["quick-spikes-s1"]))])
    with open(GOLDEN, newline="", encoding="utf-8") as fh:
        assert buf.getvalue() == fh.read()
