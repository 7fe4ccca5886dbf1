"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2-4 share a single 1000-replicate study of the spikes preset, whose
CSV must also equal the one recorded in perfbench/reference.json.
Criterion 8 runs only when the compliance dataset is supplied (see README).
"""

import csv
import io
import json
import math
import os
import pathlib
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from localquant import (
    Kernel,
    LocalizationSpec,
    NoiseSetting,
    PRESETS,
    QuantileSpec,
    RngStream,
    Signal,
    SyntheticModel,
    WeightedSample,
    df_quantile_ci,
    effective_sample_size,
    indistinguishable_pair,
    qr_interval,
    run_experiment,
    sigma_hat_p,
    summaries_csv,
    true_theta,
    weighted_cdf,
    weighted_quantile,
    wq_interval,
)
from localquant.cli import load_csv
from localquant.experiments import ExperimentConfig

SPIKES = SyntheticModel(Signal.SPIKES, NoiseSetting.S1)
SPIKES_SPEC = LocalizationSpec(Kernel.TRIANGULAR, [0.47], [0.04])

COMPLIANCE_CSV = os.environ.get(
    "LOCALQUANT_COMPLIANCE_CSV",
    os.path.join(os.path.dirname(__file__), "..", "data", "compliance.csv"),
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def spikes_study():
    return run_experiment(PRESETS["paper-spikes-s1"])


def test_criterion_1_oracle_value():
    t0 = time.time()
    theta = true_theta(SPIKES, SPIKES_SPEC, 0.5)
    elapsed = time.time() - t0
    ok = abs(theta - 1.35) <= 0.01 and elapsed < 1.0
    report(1, ok, f"theta=1.35+-0.01: got {theta:.4f} in {elapsed:.2f}s")


def test_criterion_2_width_reproduction(spikes_study):
    cell = next(
        c for c in spikes_study if c.method == "WQ" and c.x0 == 0.47 and c.h == 0.04
    )
    ok = abs(cell.mean_finite_width - 2.49) <= 0.25
    report(2, ok, f"WQ mean width=2.49+-0.25: got {cell.mean_finite_width:.3f}")


def test_criterion_3_wq_coverage(spikes_study):
    cells = [c for c in spikes_study if c.method == "WQ" and c.mean_n_eff >= 10.0]
    worst = min(c.coverage for c in cells)
    ok = len(cells) > 0 and worst >= 0.87
    report(3, ok, f"WQ coverage>=0.87 on {len(cells)} cells: worst {worst:.3f}")


def test_criterion_4_qr_coverage(spikes_study):
    cells = [c for c in spikes_study if c.method == "QR"]
    worst = min(c.coverage for c in cells)
    # QR tends to overcover relative to WQ; checked directionally per cell
    wq = {(c.x0, c.h): c.coverage for c in spikes_study if c.method == "WQ"}
    directional = all(c.coverage >= wq[(c.x0, c.h)] - 0.02 for c in cells)

    # the preset grid keeps n_eff >= 10 by design, so the n_eff < 10 part of
    # the finite-sample guarantee gets its own cell (h = 0.01 -> n_eff ~ 3)
    tiny_cfg = ExperimentConfig(
        model=SPIKES, kernel=Kernel.TRIANGULAR, bandwidths=(0.01,), x0_points=(0.47,),
        p=0.5, alpha=0.1, alpha1=0.05, n=200, n_sim=1000, master_seed=20240817,
        methods=("QR",),
    )
    tiny = run_experiment(tiny_cfg)[0]
    tiny_ok = tiny.mean_n_eff < 10.0 and tiny.coverage >= 0.87

    ok = len(cells) > 0 and worst >= 0.87 and directional and tiny_ok
    report(
        4, ok,
        f"QR coverage>=0.87 on all {len(cells)} cells: worst {worst:.3f}; "
        f"QR>=WQ-0.02 per cell: {directional}; "
        f"tiny-n_eff cell (mean n_eff {tiny.mean_n_eff:.1f}): {tiny.coverage:.3f}",
    )


def test_preset_csv_matches_benchmark_reference(spikes_study):
    # the full paper-spikes-s1 CSV, as perfbench/reference.json records it
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"
    expected = json.loads(path.read_text())["sim-spikes"]["0"]["rows"]
    text = summaries_csv(PRESETS["paper-spikes-s1"], spikes_study)
    assert list(csv.reader(io.StringIO(text))) == expected


def test_qr_no_narrower_than_wq(spikes_study):
    # stochastic width ordering, checked on mean finite widths per cell
    wq = {(c.x0, c.h): c.mean_finite_width for c in spikes_study if c.method == "WQ"}
    for c in spikes_study:
        if c.method == "QR":
            assert c.mean_finite_width >= wq[(c.x0, c.h)]


def exact_coverage(probs, n, p, a1, a2):
    """Exact CI coverage for a discrete law on {1..3}, by full enumeration."""
    support = (1, 2, 3)
    acc = Fraction(0)
    cdf = []
    for q in probs:
        acc += q
        cdf.append(acc)
    theta = next(v for v, c in zip(support, cdf) if c >= Fraction(p))
    covered = Fraction(0)
    for combo in combinations_with_replacement(support, n):
        counts = [combo.count(v) for v in support]
        prob = Fraction(math.factorial(n))
        for c, q in zip(counts, probs):
            prob = prob * q**c / math.factorial(c)
        if prob == 0:
            continue
        if df_quantile_ci([float(v) for v in combo], p, a1, a2).contains(float(theta)):
            covered += prob
    return covered


def test_criterion_5_exact_small_n_validity():
    combos = [(0.5, 0.05, 0.05), (0.25, 0.1, 0.0), (0.7, 0.0, 0.1), (0.5, 0.13, 0.02)]
    checked = 0
    worst_slack = None
    for p, a1, a2 in combos:
        bound = 1 - Fraction(a1) - Fraction(a2)
        for i in range(9):
            for j in range(9 - i):
                probs = (Fraction(i, 8), Fraction(j, 8), Fraction(8 - i - j, 8))
                for n in range(1, 9):
                    cov = exact_coverage(probs, n, p, a1, a2)
                    slack = cov - bound
                    if worst_slack is None or slack < worst_slack:
                        worst_slack = slack
                    checked += 1
                    if cov < bound:
                        report(
                            5, False,
                            f"coverage {float(cov):.4f} < {float(bound):.4f} at "
                            f"probs={probs}, n={n}, p={p}, a=({a1},{a2})",
                        )
    report(5, True, f"{checked} enumerations, min slack {float(worst_slack):.4f}, zero tolerance")


def test_criterion_6_indistinguishability():
    theta_prime, tv = indistinguishable_pair(SPIKES, SPIKES_SPEC, 0.012, 2.7)
    ok = abs(tv - 0.010) <= 0.001 and abs(theta_prime - 2.7) <= 0.01
    report(6, ok, f"d_TV=0.010+-0.001: got {tv:.4f}; theta'=2.7+-0.01: got {theta_prime:.4f}")


def _random_weighted_sample(rng):
    n = int(rng.integers(1, 40))
    ys = np.round(rng.normal(size=n), 1)
    w = rng.uniform(0, 1, size=n)
    w[rng.uniform(size=n) < 0.25] = 0.0
    if not w.any():
        w[int(rng.integers(0, n))] = 0.5
    return WeightedSample(ys, w)


def test_criterion_7a_weighted_properties():
    rng = np.random.default_rng(70_001)
    for _ in range(1000):
        ws = _random_weighted_sample(rng)
        p = float(rng.uniform(1e-6, 1.0))
        c = float(rng.uniform(1e-6, 1e6))
        scaled = WeightedSample(ws.responses, ws.weights * c)
        # Galois
        assert weighted_cdf(ws, weighted_quantile(ws, p)) >= p
        i = int(rng.integers(0, len(ws)))
        if ws.weights[i] > 0:
            assert weighted_quantile(ws, weighted_cdf(ws, ws.responses[i])) <= ws.responses[i]
        # monotonicity of the CDF
        y1, y2 = sorted(rng.normal(size=2))
        assert weighted_cdf(ws, y1) <= weighted_cdf(ws, y2)
        # scale invariance
        assert weighted_quantile(scaled, p) == weighted_quantile(ws, p)
        assert weighted_cdf(scaled, y1) == pytest.approx(
            weighted_cdf(ws, y1), rel=1e-12, abs=1e-12
        )
        assert effective_sample_size(scaled) == pytest.approx(
            effective_sample_size(ws), rel=1e-12
        )
    report(7, True, "(a) weighted-empirical Galois/monotonicity/scale: 1000 instances")


def test_criterion_7b_sigma_identity():
    rng = np.random.default_rng(70_002)
    for _ in range(1000):
        ws = _random_weighted_sample(rng)
        theta = float(rng.normal())
        expect = math.sqrt(np.mean(ws.weights**2) / 4.0) / np.mean(ws.weights)
        assert sigma_hat_p(ws, 0.5, theta) == pytest.approx(expect, rel=1e-12)
    report(7, True, "(b) sigma-hat identity at p=0.5: 1000 instances")


def test_criterion_7c_qr_scale_bit_identity():
    rng = np.random.default_rng(70_003)
    q = QuantileSpec(0.5, 0.1, 0.05)
    for k in range(1000):
        n = int(rng.integers(1, 60))
        weights = rng.uniform(0, 1, size=n)
        ys = rng.normal(size=n)
        kmax = float(rng.uniform(0.4, 1.0))
        c = float(rng.uniform(1e-8, 1e8))
        u = RngStream(70_003, k).uniforms(n)
        keep = u <= weights / kmax
        keep_scaled = u <= (c * weights) / (c * kmax)
        assert np.array_equal(keep, keep_scaled)
        if keep.any():
            a = df_quantile_ci(ys[keep], q.p, q.alpha1, q.alpha2)
            b = df_quantile_ci(ys[keep_scaled], q.p, q.alpha1, q.alpha2)
            assert (a.lower, a.upper) == (b.lower, b.upper)
    report(7, True, "(c) QR kernel-scale bit-identity under fixed seed: 1000 instances")


def test_criterion_7d_experiment_thread_determinism():
    rng = np.random.default_rng(70_004)
    pool = [
        (SyntheticModel(Signal.STEP, NoiseSetting.S1), 0.5, 0.1),
        (SyntheticModel(Signal.STEP, NoiseSetting.S2), 0.5, 0.15),
        (SyntheticModel(Signal.BLIP, NoiseSetting.S1), 0.3, 0.2),
        (SyntheticModel(Signal.ANGLES, NoiseSetting.S1), 0.4, 0.1),
    ]
    for k in range(1000):
        model, x0, h = pool[int(rng.integers(0, len(pool)))]
        cfg = ExperimentConfig(
            model=model,
            kernel=Kernel.TRIANGULAR,
            bandwidths=(h,),
            x0_points=(x0,),
            p=float(rng.choice([0.3, 0.5, 0.7])),
            alpha=0.1,
            alpha1=0.05,
            n=int(rng.integers(5, 26)),
            n_sim=int(rng.integers(1, 4)),
            master_seed=int(rng.integers(1 << 40)),
        )
        workers = int(rng.integers(2, 5))
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=workers)
    report(7, True, "(d) run_experiment determinism across thread counts: 1000 instances")


@pytest.mark.skipif(
    not os.path.exists(COMPLIANCE_CSV),
    reason="compliance dataset not supplied (see README)",
)
def test_criterion_8_compliance_dataset():
    data = load_csv(COMPLIANCE_CSV, ["compliance"], "decrease", normalize=True)
    means, sds = data.normalization
    raw_half = 50.0 if float(np.max(data.covariates[:, 0] * sds[0] + means[0])) > 1.5 else 0.5
    x0 = (raw_half - means[0]) / sds[0]
    spec = LocalizationSpec(Kernel.TRIANGULAR, [x0], [0.211])
    q = QuantileSpec(0.5, 0.1, 0.05)

    wq = wq_interval(data, spec, q)
    ok_wq = (wq.lower, wq.upper) == (18.0, 44.5)

    responses = set(data.responses.tolist())
    target_hit = False
    endpoints_ok = True
    for seed in range(1, 201):
        res = qr_interval(data, spec, q, RngStream(seed))
        if res.is_finite and not {res.lower, res.upper} <= responses:
            endpoints_ok = False
        if (res.lower, res.upper) == (18.0, 47.25):
            target_hit = True
    ok = ok_wq and endpoints_ok and target_hit
    report(
        8, ok,
        f"WQ=[18.0,44.5]: got [{wq.lower},{wq.upper}]; "
        f"QR endpoints are data values: {endpoints_ok}; "
        f"[18.0,47.25] seen across 200 seeds: {target_hit}",
    )
