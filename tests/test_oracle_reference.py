"""The panel-rule oracle against the adaptive-quadrature reference.

Each signal is checked at its hardest study point at the smallest study
bandwidth (h = 0.04), under every noise setting and kernel, with p rotated
over the study levels.
"""

import itertools

import numpy as np
import pytest

import quad_reference as ref
from localquant import (
    Kernel,
    LocalizationSpec,
    NoiseSetting,
    Signal,
    SyntheticModel,
    indistinguishable_pair,
    true_q_cdf,
    true_theta,
)

# the study point of each signal whose window holds its sharpest feature: a
# jump (step, blip), the tallest spike, the narrowest bump pair, the largest
# parabola coefficients and the steepest angle
HARDEST_X0 = {
    Signal.STEP: 1.0 / 3.0,
    Signal.BLIP: 0.8,
    Signal.SPIKES: 0.47,
    Signal.BUMPS: 0.78,
    Signal.PARABOLAS: 0.37,
    Signal.ANGLES: 0.2,
}

CELLS = [
    (signal, noise, kernel, (0.2, 0.5, 0.7)[i % 3])
    for i, (signal, noise, kernel) in enumerate(
        itertools.product(Signal, NoiseSetting, Kernel)
    )
]


@pytest.mark.parametrize(
    "signal, noise, kernel, p", CELLS,
    ids=[f"{s.value}-s{n.value}-{k.value}-p{p}" for s, n, k, p in CELLS],
)
def test_panel_oracle_matches_quad_reference(signal, noise, kernel, p):
    model = SyntheticModel(signal, noise)
    spec = LocalizationSpec(kernel, [HARDEST_X0[signal]], [0.04])
    reference = ref.q_cdf_factory(model, spec)

    fmin, fmax = model.signal_range()
    pad = 2.0 * noise.sigma_max
    for y in np.linspace(fmin - pad, fmax + pad, 7):
        assert abs(true_q_cdf(model, spec, y) - reference(y)) <= 1e-11, y

    # the reference CDF crosses p within 1e-9 of the panel quantile
    theta = true_theta(model, spec, p)
    assert reference(theta - 1e-9) < p < reference(theta + 1e-9)


@pytest.mark.parametrize("theta_star", [2.7, -3.0])
def test_indistinguishable_pair_matches_quad_reference(theta_star):
    # the `localquant indist` defaults; at theta_star = -3 nothing moves and
    # the modified median is found by bisection
    spec = LocalizationSpec(Kernel.TRIANGULAR, [0.47], [0.04])
    model = SyntheticModel(Signal.SPIKES, NoiseSetting.S1)
    theta_prime, tv = indistinguishable_pair(model, spec, 0.012, theta_star)
    ref_theta_prime, ref_tv = ref.indistinguishable_pair(model, spec, 0.012, theta_star)
    assert theta_prime == pytest.approx(ref_theta_prime, abs=1e-9)
    assert tv == pytest.approx(ref_tv, abs=1e-9)
