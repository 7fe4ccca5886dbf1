import dataclasses
import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interval_reference as ref

from localquant import (
    DomainError,
    ExperimentConfig,
    Kernel,
    RngStream,
    NoiseSetting,
    PRESETS,
    QuantileSpec,
    Signal,
    SyntheticModel,
    full_grid_configs,
    parse_config,
    run_experiment,
    sample_dataset,
    summaries_csv,
    true_theta,
    write_summaries,
)
from localquant import experiments, synthetic

TINY = ExperimentConfig(
    model=SyntheticModel(Signal.STEP, NoiseSetting.S1),
    kernel=Kernel.TRIANGULAR,
    bandwidths=(0.1,),
    x0_points=(0.5,),
    p=0.5,
    alpha=0.1,
    alpha1=0.05,
    n=60,
    n_sim=25,
    master_seed=9,
)

CONFIG_TEXT = """\
# spikes study
signal = spikes
setting = 1
kernel = triangular
p = 0.5
alpha = 0.1
alpha1 = 0.05
n = 200
n_sim = 1000
seed = 20240817
x0 = 0.23, 0.33, 0.47, 0.69, 0.83
h = 0.1 0.08 0.06 0.04
methods = wq qr
"""


def test_single_replicate_coverage_is_binary():
    cfg = ExperimentConfig(
        model=TINY.model, kernel=TINY.kernel, bandwidths=(0.1,), x0_points=(0.5,),
        p=0.5, alpha=0.1, alpha1=0.05, n=40, n_sim=1, master_seed=3,
    )
    for cell in run_experiment(cfg):
        assert cell.coverage in (0.0, 1.0)


def test_deterministic_across_workers():
    one = run_experiment(TINY, workers=1)
    two = run_experiment(TINY, workers=2)
    four = run_experiment(TINY, workers=4)
    assert one == two == four


@pytest.mark.parametrize("workers, error", [
    (0, ValueError), (-1, ValueError), (2.5, TypeError), (np.int64(2), None),
])
def test_workers_must_be_a_positive_integer(workers, error):
    cfg = dataclasses.replace(PRESETS["quick-spikes-s1"], n_sim=3)
    if error is None:
        assert run_experiment(cfg, workers=workers) == run_experiment(cfg)
    else:
        with pytest.raises(error):
            run_experiment(cfg, workers=workers)


def test_deterministic_rerun():
    assert run_experiment(TINY) == run_experiment(TINY)


def test_wq_never_infinite():
    cfg = ExperimentConfig(
        model=SyntheticModel(Signal.SPIKES, NoiseSetting.S1),
        kernel=Kernel.TRIANGULAR, bandwidths=(0.04,), x0_points=(0.47,),
        p=0.5, alpha=0.1, alpha1=0.05, n=200, n_sim=50, master_seed=12,
    )
    for cell in run_experiment(cfg):
        if cell.method == "WQ":
            assert cell.frac_infinite == 0.0


def test_cell_order_and_fields():
    cells = run_experiment(TINY)
    assert [c.method for c in cells] == ["WQ", "QR"]
    for c in cells:
        assert c.x0 == 0.5 and c.h == 0.1
        assert 0.0 <= c.coverage <= 1.0
        assert c.mean_n_eff > 0
        assert c.theta_true == pytest.approx(0.8, abs=1e-6)


def test_csv_columns_exact():
    cells = run_experiment(TINY)
    text = summaries_csv(TINY, cells)
    lines = text.strip().splitlines()
    assert lines[0] == "signal,setting,kernel,p,x0,h,method,coverage,mean_width,frac_inf,mean_neff,theta_true"
    assert len(lines) == 1 + len(cells)
    first = lines[1].split(",")
    assert first[0] == "step" and first[1] == "1" and first[2] == "triangular"
    assert first[6] == "WQ"
    # values round-trip through repr
    assert float(first[7]) == cells[0].coverage


def test_write_summaries_multiple_runs():
    cells = run_experiment(TINY)
    buf = io.StringIO()
    write_summaries(buf, [(TINY, cells), (TINY, cells)])
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 1 + 2 * len(cells)


def test_parse_config_round_trip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg == PRESETS["paper-spikes-s1"]
    assert cfg.methods == ("WQ", "QR")
    assert cfg.bandwidths == (0.1, 0.08, 0.06, 0.04)
    assert cfg.x0_points == (0.23, 0.33, 0.47, 0.69, 0.83)


def test_parse_config_errors():
    with pytest.raises(ValueError, match="missing keys"):
        parse_config("signal = step\n")
    with pytest.raises(ValueError, match="unknown keys"):
        parse_config(CONFIG_TEXT + "bogus = 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(CONFIG_TEXT + "signal = step\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("just some words\n")
    with pytest.raises(ValueError):
        parse_config(CONFIG_TEXT.replace("kernel = triangular", "kernel = boxcar"))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(
            model=TINY.model, kernel=TINY.kernel, bandwidths=(), x0_points=(0.5,),
            p=0.5, alpha=0.1, alpha1=0.05, n=10, n_sim=1, master_seed=0,
        )
    with pytest.raises(ValueError):
        ExperimentConfig(
            model=TINY.model, kernel=TINY.kernel, bandwidths=(0.1,), x0_points=(0.5,),
            p=0.5, alpha=0.1, alpha1=0.05, n=10, n_sim=1, master_seed=0,
            methods=("WQ", "DFQ"),
        )


@pytest.mark.parametrize("change", [
    {"methods": ()}, {"bandwidths": (-0.1,)}, {"bandwidths": (math.nan,)},
    {"x0_points": (math.nan,)},
])
def test_config_rejects_bad_values_at_construction(change):
    with pytest.raises(ValueError):
        dataclasses.replace(TINY, **change)


@pytest.mark.parametrize("name", ["n", "n_sim"])
def test_config_counts_must_be_positive(name):
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        dataclasses.replace(TINY, **{name: 0})


@pytest.mark.parametrize("name", ["n", "n_sim", "master_seed"])
def test_config_counts_are_integers(name):
    # a float was accepted here and failed only inside run_experiment
    with pytest.raises(TypeError):
        dataclasses.replace(TINY, **{name: getattr(TINY, name) + 0.5})
    with pytest.raises(TypeError):
        dataclasses.replace(TINY, **{name: float(getattr(TINY, name))})
    cfg = dataclasses.replace(TINY, **{name: np.int64(getattr(TINY, name))})
    assert cfg == TINY and type(getattr(cfg, name)) is int


def test_config_builds_its_specs_once():
    cfg = parse_config(CONFIG_TEXT)
    preset = PRESETS["paper-spikes-s1"]
    # the stored specs take no part in equality or hashing
    assert cfg == preset and hash(cfg) == hash(preset)
    assert cfg.specs is not preset.specs
    assert [(s.center[0], s.bandwidths[0]) for s in cfg.specs] == [
        (x0, h) for x0 in cfg.x0_points for h in cfg.bandwidths]
    assert cfg.quantile_spec == QuantileSpec(0.5, 0.1, 0.05)


def test_run_reads_the_config_specs(monkeypatch):
    expected = run_experiment(TINY)

    def forbidden(*args):
        raise AssertionError("a run builds no specs")

    monkeypatch.setattr(experiments, "LocalizationSpec", forbidden)
    monkeypatch.setattr(experiments, "QuantileSpec", forbidden)
    assert run_experiment(TINY) == expected


def test_qr_draws_do_not_depend_on_the_method_list():
    base = PRESETS["quick-spikes-s1"]
    qr_rows = [
        [repr(cell) for cell in run_experiment(dataclasses.replace(base, methods=methods))
         if cell.method == "QR"]
        for methods in (("WQ", "QR"), ("QR",), ("QR", "WQ"))
    ]
    assert len(qr_rows[0]) == 20
    assert qr_rows[1] == qr_rows[0]
    assert qr_rows[2] == qr_rows[0]


def test_a_study_evaluates_the_signal_range_grid_once(monkeypatch):
    # the oracle still runs for each of the 20 cells, each bracketed by the
    # model's one signal range
    model = SyntheticModel(Signal.SPIKES, NoiseSetting.S1)
    config = dataclasses.replace(PRESETS["quick-spikes-s1"], model=model, n_sim=2)
    grid_shape = np.union1d(np.linspace(0.0, 1.0, 4097), Signal.SPIKES.breakpoints).shape
    shapes, oracle_cells = [], []
    real_eval, real_theta = synthetic.signal_eval, experiments.true_theta
    monkeypatch.setattr(synthetic, "signal_eval",
                        lambda signal, x: shapes.append(np.shape(x)) or real_eval(signal, x))
    monkeypatch.setattr(experiments, "true_theta",
                        lambda *args: oracle_cells.append(args) or real_theta(*args))
    assert len(run_experiment(config)) == 40
    assert len(oracle_cells) == 20
    assert shapes.count(grid_shape) == 1


@pytest.mark.parametrize("kernel", list(Kernel))
def test_a_preset_chunk_traces_at_most_3_75_arrays_per_weight(kernel):
    # every engine pass writes into an array it owns, so one chunk of
    # paper-spikes-s1 peaks at 3.4 to 3.7 float64 arrays of its (replicate x
    # cell x row) weights, by kernel, where passes that each made new arrays
    # held 5.2 with the triangular kernel
    config = dataclasses.replace(PRESETS["paper-spikes-s1"], kernel=kernel)
    reps = experiments._chunks(config)[0]
    assert len(reps) == 16
    arrays = 8 * len(reps) * len(config.specs) * config.n
    thetas = np.zeros(len(config.specs))
    experiments._chunk_results(config, reps, thetas)  # fills the threshold cache
    tracemalloc.start()
    try:
        experiments._chunk_results(config, reps, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2.0 * arrays < peak <= 3.75 * arrays


def test_presets_and_full_grid():
    assert "paper-spikes-s1" in PRESETS
    preset = PRESETS["paper-spikes-s1"]
    assert preset.n == 200 and preset.n_sim == 1000
    assert preset.bandwidths == (0.1, 0.08, 0.06, 0.04)
    grid = full_grid_configs(n_sim=10)
    assert len(grid) == 6 * 3 * 2 * 3
    assert all(cfg.n_sim == 10 for cfg in grid)


def test_threaded_run_emits_no_warnings():
    # the h = 0.01 cell has n_eff < 10; only wq_interval warns about that,
    # and the replicate loop no longer touches the process-wide filters
    low_neff = ExperimentConfig(
        model=TINY.model, kernel=TINY.kernel, bandwidths=(0.1, 0.01), x0_points=(0.5,),
        p=0.5, alpha=0.1, alpha1=0.05, n=60, n_sim=20, master_seed=5,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before = list(warnings.filters)
        cells = run_experiment(low_neff, workers=2)
        assert warnings.filters == before
    assert 0.0 < cells[2].mean_n_eff < 10.0
    assert cells == run_experiment(low_neff, workers=1)


def outcome(fn, *args):
    """The bytes and shape of an array, or the type and message of the error raised."""
    try:
        stats = fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return stats.shape, stats.tobytes()


@st.composite
def studies(draw):
    """A small study, with chunks of 1 to 4 replicates and cells without weight at low n."""
    methods = draw(st.sampled_from([("WQ",), ("QR",), ("QR", "WQ")]))
    x0_points = draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))
    bandwidths = draw(st.lists(st.floats(0.005, 0.3), min_size=1, max_size=2))
    config = ExperimentConfig(
        model=SyntheticModel(draw(st.sampled_from(list(Signal))),
                             NoiseSetting.from_number(draw(st.integers(1, 3)))),
        kernel=draw(st.sampled_from(list(Kernel))),
        bandwidths=tuple(bandwidths),
        x0_points=tuple(x0_points),
        p=draw(st.sampled_from([0.2, 0.5, 0.7])),
        alpha=0.1,
        alpha1=draw(st.sampled_from([0.0, 0.05, 0.1])),
        n=draw(st.integers(1, 60)),
        n_sim=draw(st.integers(1, 9)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        methods=methods,
    )
    weights_per_replicate = len(config.specs) * config.n
    budget = draw(st.integers(1, 4 * weights_per_replicate + weights_per_replicate - 1))
    return config, budget


@settings(max_examples=150, deadline=None)
@given(studies())
def test_batched_study_matches_per_replicate_reference(study):
    config, budget = study
    thetas = np.array([true_theta(config.model, spec, config.p) for spec in config.specs])
    with mock.patch.object(experiments, "_CHUNK_ELEMENTS", budget):
        chunks = experiments._chunks(config)
        assert [r for chunk in chunks for r in chunk] == list(range(1, config.n_sim + 1))
        size = max(1, budget // (len(config.specs) * config.n))
        assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
        got = outcome(experiments._study_stats, config, thetas)
    assert got == outcome(ref.study_stats, config, thetas)


CHUNKED = ExperimentConfig(
    model=SyntheticModel(Signal.SPIKES, NoiseSetting.S1), kernel=Kernel.TRIANGULAR,
    bandwidths=(0.1, 0.04), x0_points=(0.23, 0.47), p=0.5, alpha=0.1, alpha1=0.05,
    n=2000, n_sim=11, master_seed=21,
)
# a budget at which four replicates of CHUNKED's 4 cells at n = 2000 fill a chunk
CHUNKED_BUDGET = 32_768


def test_chunks_are_shared_by_workers():
    with mock.patch.object(experiments, "_CHUNK_ELEMENTS", CHUNKED_BUDGET):
        assert [len(c) for c in experiments._chunks(CHUNKED)] == [4, 4, 3]
        expected = run_experiment(CHUNKED, workers=1)
        assert run_experiment(CHUNKED, workers=2) == expected
        assert run_experiment(CHUNKED, workers=3) == expected


@pytest.mark.parametrize("workers", [1, 3])
def test_earliest_failure_of_all_chunks_is_raised(monkeypatch, workers):
    # failures in replicate 2 (first chunk), cell 3, replicate 10 (last
    # chunk), cell 0, and replicates 6 and 7 (second chunk): the first in
    # (replicate, cell) order is raised, however the chunks finish
    responses = {
        rep: sample_dataset(CHUNKED.model, CHUNKED.n, RngStream(CHUNKED.master_seed, rep))
        .responses.tobytes()
        for rep in (2, 6, 7, 10)
    }
    failing = {(2, 3): "replicate 2, cell 3", (10, 0): "replicate 10, cell 0"}
    original = experiments.wq_cells

    def wq_cells(loc, q):
        batch = original(loc, q)
        for r, resp in enumerate(loc.responses):
            for (rep, k), message in failing.items():
                if resp.tobytes() == responses[rep]:
                    batch.errors[r, k] = DomainError(message)
        return batch

    monkeypatch.setattr(experiments, "wq_cells", wq_cells)
    monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS", CHUNKED_BUDGET)
    with pytest.raises(DomainError, match="replicate 2, cell 3"):
        run_experiment(CHUNKED, workers=workers)
    del failing[(2, 3)]
    with pytest.raises(DomainError, match="replicate 10, cell 0"):
        run_experiment(CHUNKED, workers=workers)
    failing.update({(6, 3): "replicate 6, cell 3", (7, 0): "replicate 7, cell 0"})
    with pytest.raises(DomainError, match="replicate 6, cell 3"):
        run_experiment(CHUNKED, workers=workers)


def test_study_failure_is_raised_as_a_fresh_error(monkeypatch):
    # the stored error of a failed cell is never raised itself, so it never
    # collects a traceback
    stored = []
    original = experiments.wq_cells

    def wq_cells(loc, q):
        batch = original(loc, q)
        batch.errors[0, 0] = DomainError("stored")
        stored.append(batch.errors[0, 0])
        return batch

    monkeypatch.setattr(experiments, "wq_cells", wq_cells)
    with pytest.raises(DomainError, match="stored") as exc:
        run_experiment(TINY)
    assert stored and exc.value is not stored[0]
    assert all(e.__traceback__ is None for e in stored)
