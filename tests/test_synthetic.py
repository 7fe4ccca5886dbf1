import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr, roots_legendre

from localquant import (
    BracketFailure,
    DomainError,
    Kernel,
    LocalizationSpec,
    NoiseSetting,
    RngStream,
    Signal,
    SyntheticModel,
    indistinguishable_pair,
    localization_weights,
    mixture_weight,
    sample_dataset,
    sample_replicates,
    signal_eval,
    true_q_cdf,
    true_theta,
    weighted_cdf,
)
from localquant import synthetic
from localquant.rng import stream_keys

SPIKES = SyntheticModel(Signal.SPIKES, NoiseSetting.S1)
SPIKES_SPEC = LocalizationSpec(Kernel.TRIANGULAR, [0.47], [0.04])


# --- independent scalar evaluators, written directly from the formulas ----

def eval_step(x):
    return 0.2 + (0.6 if 1 / 3 < x < 2 / 3 else 0.0)


def eval_blip(x):
    if x <= 0.8:
        return 0.32 + 0.6 * x + 0.3 * math.exp(-100 * (x - 0.3) ** 2)
    return -0.28 + 0.6 * x + 0.3 * math.exp(-100 * (x - 1.3) ** 2)


def eval_spikes(x):
    return (
        math.exp(-500 * (x - 0.23) ** 2)
        + 2 * math.exp(-2000 * (x - 0.33) ** 2)
        + 4 * math.exp(-8000 * (x - 0.47) ** 2)
        + 3 * math.exp(-16000 * (x - 0.69) ** 2)
        + math.exp(-32000 * (x - 0.83) ** 2)
    )


def eval_bumps(x):
    t = [0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81]
    w = [0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005]
    h = [4, 5, 3, 4, 5, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2]
    return sum(hj / (1 + abs((x - tj) / wj) ** 4) for tj, wj, hj in zip(t, w, h))


def eval_parabolas(x):
    def r(c):
        return (x - c) ** 2 if x > c else 0.0

    return (
        0.8
        - 30 * r(0.1)
        + 60 * r(0.2)
        - 30 * r(0.3)
        + 500 * r(0.35)
        - 1000 * r(0.37)
        + 1000 * r(0.41)
        - 500 * r(0.43)
        + 7.5 * r(0.5)
        - 15 * r(0.7)
        + 7.5 * r(0.9)
    )


def eval_angles(x):
    if x <= 0.15:
        return 2 * x + 0.5
    if x <= 0.2:
        return -12 * (x - 0.15) + 0.8
    if x <= 0.5:
        return 0.2
    if x <= 0.6:
        return 6 * (x - 0.5) + 0.2
    if x <= 0.65:
        return -10 * (x - 0.6) + 0.8
    if x <= 0.85:
        return -0.5 * (x - 0.65) + 0.3
    return 2 * (x - 0.85) + 0.2


EVALUATORS = {
    Signal.STEP: eval_step,
    Signal.BLIP: eval_blip,
    Signal.SPIKES: eval_spikes,
    Signal.BUMPS: eval_bumps,
    Signal.PARABOLAS: eval_parabolas,
    Signal.ANGLES: eval_angles,
}


@pytest.mark.parametrize("signal", list(Signal), ids=[s.value for s in Signal])
def test_signals_match_independent_evaluator(signal):
    rng = np.random.default_rng(hash(signal.value) % 2**32)
    xs = rng.uniform(0, 1, size=20)
    for x in xs:
        assert signal_eval(signal, float(x)) == pytest.approx(
            EVALUATORS[signal](float(x)), rel=1e-12, abs=1e-12
        )


def test_spikes_equals_the_plain_formula_bit_for_bit():
    # _spikes skips np.exp on lanes that underflow; the bits must not move
    def plain(x):
        u = x[..., None] - synthetic._SPIKES_C
        return np.sum(synthetic._SPIKES_H * np.exp(-synthetic._SPIKES_S * u * u), axis=-1)

    rng = np.random.default_rng(22)
    for x in [np.linspace(0.0, 1.0, 100_001), *rng.uniform(0, 1, size=(50, 16, 200))]:
        assert signal_eval(Signal.SPIKES, x).tobytes() == plain(x).tobytes()
    cut = synthetic._EXP_ZERO
    below = np.array([cut, np.nextafter(cut, -np.inf), 2 * cut, -1e300, -np.inf])
    assert np.exp(below).tobytes() == np.zeros_like(below).tobytes()


def test_signal_spot_values():
    assert signal_eval(Signal.STEP, 0.5) == 0.8
    assert signal_eval(Signal.STEP, 0.1) == 0.2
    assert signal_eval(Signal.SPIKES, 0.47) == pytest.approx(4.0, abs=5e-4)
    assert signal_eval(Signal.ANGLES, 0.85) == pytest.approx(0.2, abs=1e-12)


def test_signal_domain_error():
    with pytest.raises(DomainError):
        signal_eval(Signal.STEP, -0.1)
    with pytest.raises(DomainError):
        signal_eval(Signal.BUMPS, 1.5)


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]])
def test_signal_rejects_nan(x):
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        signal_eval(Signal.SPIKES, x)


def test_true_q_cdf_rejects_nan():
    with pytest.raises(DomainError, match="y cannot be NaN"):
        true_q_cdf(SPIKES, SPIKES_SPEC, math.nan)


def test_signal_vectorized():
    xs = np.linspace(0, 1, 101)
    vals = signal_eval(Signal.BUMPS, xs)
    assert vals.shape == xs.shape
    assert np.all(vals >= 0)


def test_noise_settings():
    assert NoiseSetting.S1.sigma(0.3) == 0.3
    assert NoiseSetting.S2.sigma(0.5) == pytest.approx(0.3 * 1.25)
    assert NoiseSetting.S3.sigma(0.5) == pytest.approx(0.3 * 1.0)
    assert NoiseSetting.S2.sigma_max == 0.6
    for s in NoiseSetting:
        assert np.all(s.sigma(np.linspace(0, 1, 50)) > 0)


def test_sample_dataset_basics():
    model = SyntheticModel(Signal.STEP, NoiseSetting.S1)
    with pytest.raises(ValueError):
        sample_dataset(model, 0, RngStream(1))
    one = sample_dataset(model, 1, RngStream(1))
    assert one.n == 1 and one.dim == 1
    # determinism per stream
    a = sample_dataset(model, 50, RngStream(4, 2))
    b = sample_dataset(model, 50, RngStream(4, 2))
    assert np.array_equal(a.responses, b.responses)


@pytest.mark.parametrize("signal", list(Signal))
def test_sample_dataset_is_one_row_of_sample_replicates(signal):
    model = SyntheticModel(signal, NoiseSetting.S2)
    ids = [1, 8, 2**63 + 5]
    reps = sample_replicates(model, 37, 12, stream_keys(12, ids))
    assert reps.covariates.shape == (3, 37, 1) and reps.responses.shape == (3, 37)
    for r, i in enumerate(ids):
        data = sample_dataset(model, 37, RngStream(12, i))
        assert data.covariates.tobytes() == reps.covariates[r].tobytes()
        assert data.responses.tobytes() == reps.responses[r].tobytes()
    with pytest.raises(ValueError):
        sample_replicates(model, 0, 12, stream_keys(12, ids))


def test_sample_dataset_moments():
    n = 1_000_000
    model = SyntheticModel(Signal.STEP, NoiseSetting.S1)
    data = sample_dataset(model, n, RngStream(77))
    x = data.covariates[:, 0]
    assert abs(x.mean() - 0.5) <= 3.0 / math.sqrt(12.0 * n)
    resid = data.responses - signal_eval(Signal.STEP, x)
    assert abs(resid.var() - 0.09) <= 0.01 * 0.09


def test_gauss_legendre_constants_are_roots_legendre_bits():
    nodes, weights = roots_legendre(20)
    assert [v.hex() for v in synthetic._GL_NODES.tolist()] == [v.hex() for v in nodes.tolist()]
    assert [v.hex() for v in synthetic._GL_WEIGHTS.tolist()] == [v.hex() for v in weights.tolist()]


def test_gauss_legendre_rule_is_exact_through_degree_39():
    # in exact arithmetic on the literals' values, without scipy: the 20-point
    # rule integrates x^k over [-1, 1] for every k <= 39 and not x^40. Its
    # outer weights lie up to 164 ulp from the true ones, so x^38 comes out
    # 92 eps off, not a few ulp
    nodes, weights = synthetic._GL_NODES.tolist(), synthetic._GL_WEIGHTS.tolist()
    assert nodes == [-x for x in reversed(nodes)] and weights == weights[::-1]
    x, w = [Fraction(v) for v in nodes], [Fraction(v) for v in weights]

    def moment(k):
        return sum(wi * xi**k for xi, wi in zip(x, w))

    assert all(moment(k) == 0 for k in range(1, 40, 2))
    errors = [abs(moment(k) / Fraction(2, k + 1) - 1) for k in range(0, 42, 2)]
    assert max(errors[:-1]) < 128 * 2.0**-52 and errors[-1] > 1e-12


def test_true_q_cdf_limits_and_flat_case():
    model = SyntheticModel(Signal.STEP, NoiseSetting.S1)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.04])
    assert true_q_cdf(model, spec, -50.0) == pytest.approx(0.0, abs=1e-12)
    assert true_q_cdf(model, spec, 50.0) == pytest.approx(1.0, abs=1e-12)
    # window inside the flat region: the kernel integrates out and
    # Q(y) = Phi((y - 0.8) / 0.3)
    for y in (0.2, 0.65, 0.8, 1.1):
        assert true_q_cdf(model, spec, y) == pytest.approx(
            float(ndtr((y - 0.8) / 0.3)), abs=1e-9
        )


def test_true_q_cdf_spikes_median():
    assert true_q_cdf(SPIKES, SPIKES_SPEC, 1.35) == pytest.approx(0.5, abs=1e-3)


def test_true_q_cdf_monotone():
    grid = np.linspace(-1.0, 5.0, 61)
    vals = [true_q_cdf(SPIKES, SPIKES_SPEC, y) for y in grid]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_true_q_cdf_requires_univariate():
    with pytest.raises(DomainError):
        true_q_cdf(SPIKES, LocalizationSpec(Kernel.TRIANGULAR, [0.5, 0.5], [0.1, 0.1]), 0.0)


def test_glivenko_cantelli_match():
    # oracle CDF against the reweighted empirical CDF of a large sample
    model = SyntheticModel(Signal.SPIKES, NoiseSetting.S1)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.47], [0.1])
    data = sample_dataset(model, 1_000_000, RngStream(271))
    ws = localization_weights(data, spec)
    grid = np.linspace(-0.8, 4.5, 100)
    worst = max(
        abs(true_q_cdf(model, spec, y) - weighted_cdf(ws, y)) for y in grid
    )
    assert worst < 0.005


def test_true_theta_values():
    assert true_theta(SPIKES, SPIKES_SPEC, 0.5) == pytest.approx(1.35, abs=0.01)
    model = SyntheticModel(Signal.STEP, NoiseSetting.S1)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.5], [0.04])
    assert true_theta(model, spec, 0.5) == pytest.approx(0.8, abs=1e-6)
    # quantile consistency: Q(theta_p) = p
    for p in (0.2, 0.5, 0.7):
        theta = true_theta(SPIKES, SPIKES_SPEC, p)
        assert true_q_cdf(SPIKES, SPIKES_SPEC, theta) == pytest.approx(p, abs=1e-8)


def test_true_theta_heteroscedastic_consistency():
    spec = LocalizationSpec(Kernel.BIWEIGHT, [0.3], [0.08])
    for noise in (NoiseSetting.S2, NoiseSetting.S3):
        model = SyntheticModel(Signal.BLIP, noise)
        for p in (0.2, 0.5, 0.7):
            theta = true_theta(model, spec, p)
            assert true_q_cdf(model, spec, theta) == pytest.approx(p, abs=1e-8)


@pytest.mark.parametrize("p", [1e-12, 1e-300, 1.0 - 1e-12])
def test_true_theta_at_extreme_p(p):
    # beyond the default bracket of the signal range +- 6 sigma_max; the
    # bisection's last bracket puts the CDF on each side of p
    theta = true_theta(SPIKES, SPIKES_SPEC, p)
    tol = synthetic._ROOT_TOL + synthetic._ROOT_RTOL * abs(theta)
    assert true_q_cdf(SPIKES, SPIKES_SPEC, theta - tol) <= p <= true_q_cdf(
        SPIKES, SPIKES_SPEC, theta + tol
    )
    assert not synthetic._bracket(SPIKES)[0] < theta < synthetic._bracket(SPIKES)[1]


def test_true_theta_bracket_failure():
    # the normalized kernel weights sum to 1 - 2**-52 in floating point, so
    # the oracle CDF never reaches 1 - 2**-53
    with pytest.raises(BracketFailure):
        true_theta(SPIKES, SPIKES_SPEC, 1.0 - 2.0**-53)


def test_mixture_weight():
    assert mixture_weight(0.04, 0.04) == 1.0
    assert mixture_weight(0.04, 1e-9) == pytest.approx(0.0, abs=1e-7)
    assert mixture_weight(0.04, 0.012) == pytest.approx(0.51, rel=1e-12)
    with pytest.raises(DomainError):
        mixture_weight(0.04, 0.05)
    with pytest.raises(DomainError):
        mixture_weight(0.04, 0.0)


def test_indistinguishable_pair_reference_values():
    theta_prime, tv = indistinguishable_pair(SPIKES, SPIKES_SPEC, 0.012, 2.7)
    assert theta_prime == pytest.approx(2.7, abs=0.01)
    assert tv == pytest.approx(0.010, abs=0.001)


def test_indistinguishable_pair_no_mass_moved():
    # theta_star below the support of the inner component: nothing moves
    theta_prime, tv = indistinguishable_pair(SPIKES, SPIKES_SPEC, 0.012, -3.0)
    assert tv == pytest.approx(0.0, abs=1e-6)
    assert theta_prime == pytest.approx(1.35, abs=0.01)


def test_indistinguishable_pair_validation():
    with pytest.raises(DomainError):
        indistinguishable_pair(SPIKES, SPIKES_SPEC, 0.04, 2.7)  # h0 == h
    with pytest.raises(DomainError):
        indistinguishable_pair(
            SPIKES, LocalizationSpec(Kernel.BIWEIGHT, [0.47], [0.04]), 0.012, 2.7
        )
    with pytest.raises(DomainError):
        indistinguishable_pair(
            SPIKES, LocalizationSpec(Kernel.TRIANGULAR, [0.01], [0.04]), 0.012, 2.7
        )


def test_kernel_window_clipped_to_unit_interval():
    # center near the boundary: oracle integrates only over [0, 1]
    model = SyntheticModel(Signal.BLIP, NoiseSetting.S1)
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.98], [0.1])
    val = true_q_cdf(model, spec, 0.6)
    assert 0.0 < val < 1.0
    theta = true_theta(model, spec, 0.5)
    assert 0.0 < theta < 1.5


@pytest.mark.parametrize("call, error, message", [
    (lambda: Signal.from_name("nope"), ValueError, "unknown signal"),
    (lambda: NoiseSetting.from_number(4), ValueError, "unknown noise setting"),
    (lambda: true_theta(SyntheticModel(Signal.SPIKES, NoiseSetting.from_number(1)),
                        LocalizationSpec(Kernel.TRIANGULAR, [2.0], [0.1]), 0.5),
     DomainError, "does not intersect"),
], ids=["signal", "setting", "window-outside"])
def test_synthetic_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
