"""Synthetic data generators and the ground-truth quantile oracle.

Data follow Y = f(X) + eps with X ~ U[0,1], f one of six standard test
signals on [0,1], and eps | X centered Gaussian with constant or
x-dependent scale. The oracle computes the localized response CDF with a
composite Gauss-Legendre rule (split at kernel and signal breakpoints, then
into narrow panels whose nodes and kernel weights are shared by every y) and
inverts it by bisection, giving reference quantile values for coverage
studies.

The indistinguishability analysis builds, for a localized median target, a
second data distribution that is nearly impossible to tell apart from the
original at moderate sample sizes yet has a far-away median: the localized
CDF is split into an inner-core and outer-ring mixture, and the inner
component's mass below a chosen point is pushed up to that point.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .base import Dataset, Replicates
from .errors import BracketFailure, DomainError, QuadratureFailure
from .kernels import Kernel, LocalizationSpec
from .rng import RngStream, stream_uniforms, substream_keys

_ROOT_TOL = 1e-10
_ROOT_MAXITER = 200
# relative tolerance of the bisection stopping rule, scipy's bisect default
_ROOT_RTOL = 4.0 * float(np.finfo(float).eps)

# composite Gauss-Legendre rule of the oracle: 20 nodes per panel, panels no
# wider than 0.0025, about half the narrowest feature of the six signals (the
# s = 32000 spike has sd 1/sqrt(64000) = 0.004, the narrowest bumps w = 0.005)
_PANEL_WIDTH = 0.0025
# the bits of scipy.special.roots_legendre(20) as repr literals, which
# round-trip exactly: calling it would load all of scipy.linalg at import.
# Regenerate with [repr(float(v)) for v in roots_legendre(20)[i]].
_GL_NODES = np.array([
    -0.9931285991850949, -0.9639719272779137, -0.912234428251326, -0.8391169718222189,
    -0.7463319064601508, -0.6360536807265149, -0.510867001950827, -0.37370608871541955,
    -0.22778585114164504, -0.0765265211334973, 0.0765265211334973, 0.22778585114164504,
    0.37370608871541955, 0.510867001950827, 0.6360536807265149, 0.7463319064601508,
    0.8391169718222189, 0.912234428251326, 0.9639719272779137, 0.9931285991850949,
])
_GL_WEIGHTS = np.array([
    0.017614007139152687, 0.04060142980038748, 0.06267204833410933, 0.08327674157670427,
    0.10193011981724026, 0.11819453196151841, 0.13168863844917644, 0.14209610931838176,
    0.1491729864726036, 0.1527533871307256, 0.1527533871307256, 0.1491729864726036,
    0.14209610931838176, 0.13168863844917644, 0.11819453196151841, 0.10193011981724026,
    0.08327674157670427, 0.06267204833410933, 0.04060142980038748, 0.017614007139152687,
])

# sub-stream tags for sample_dataset
_TAG_X = 1
_TAG_NOISE = 2

_BUMPS_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])
_BUMPS_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])

_SPIKES_C = np.array([0.23, 0.33, 0.47, 0.69, 0.83])
_SPIKES_S = np.array([500.0, 2000.0, 8000.0, 16000.0, 32000.0])
_SPIKES_H = np.array([1.0, 2.0, 4.0, 3.0, 1.0])
# exp(-746) is below half the least subnormal, so it and every lower argument round to +0.0
_EXP_ZERO = -746.0

_PARABOLAS_C = np.array([0.1, 0.2, 0.3, 0.35, 0.37, 0.41, 0.43, 0.5, 0.7, 0.9])
_PARABOLAS_H = np.array([-30.0, 60.0, -30.0, 500.0, -1000.0, 1000.0, -500.0, 7.5, -15.0, 7.5])


def _step(x):
    return 0.2 + 0.6 * ((x > 1.0 / 3.0) & (x < 2.0 / 3.0))


def _blip(x):
    left = x <= 0.8
    f_left = 0.32 + 0.6 * x + 0.3 * np.exp(-100.0 * (x - 0.3) ** 2)
    f_right = -0.28 + 0.6 * x + 0.3 * np.exp(-100.0 * (x - 1.3) ** 2)
    return np.where(left, f_left, f_right)


def _spikes(x):
    u = x[..., None] - _SPIKES_C
    e = -_SPIKES_S * u * u
    # np.exp takes a slow path on lanes whose result underflows, most of them
    # here; exp rounds every argument at or below _EXP_ZERO to +0.0, so those
    # lanes take exp(-0.0) and are zeroed after
    live = e > _EXP_ZERO
    e *= live
    np.exp(e, out=e)
    e *= live
    return np.sum(_SPIKES_H * e, axis=-1)


def _bumps(x):
    u = (x[..., None] - _BUMPS_T) / _BUMPS_W
    return np.sum(_BUMPS_H / (1.0 + np.abs(u) ** 4), axis=-1)


def _parabolas(x):
    u = x[..., None] - _PARABOLAS_C
    return 0.8 + np.sum(_PARABOLAS_H * u * u * (u > 0.0), axis=-1)


def _angles(x):
    conds = [
        x <= 0.15,
        x <= 0.2,
        x <= 0.5,
        x <= 0.6,
        x <= 0.65,
        x <= 0.85,
    ]
    vals = [
        2.0 * x + 0.5,
        -12.0 * (x - 0.15) + 0.8,
        0.2 * np.ones_like(x),
        6.0 * (x - 0.5) + 0.2,
        -10.0 * (x - 0.6) + 0.8,
        -0.5 * (x - 0.65) + 0.3,
    ]
    return np.select(conds, vals, default=2.0 * (x - 0.85) + 0.2)


class Signal(enum.Enum):
    """Test regression functions on [0, 1]."""

    STEP = "step"
    BLIP = "blip"
    SPIKES = "spikes"
    BUMPS = "bumps"
    PARABOLAS = "parabolas"
    ANGLES = "angles"

    @classmethod
    def from_name(cls, name: str) -> "Signal":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown signal {name!r}; expected one of: {valid}") from None

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Points where the signal kinks or jumps; quadrature splits here."""
        return {
            Signal.STEP: (1.0 / 3.0, 2.0 / 3.0),
            Signal.BLIP: (0.8,),
            Signal.SPIKES: tuple(_SPIKES_C),
            Signal.BUMPS: tuple(_BUMPS_T),
            Signal.PARABOLAS: tuple(_PARABOLAS_C),
            Signal.ANGLES: (0.15, 0.2, 0.5, 0.6, 0.65, 0.85),
        }[self]


_SIGNAL_FUNCS = {
    Signal.STEP: _step,
    Signal.BLIP: _blip,
    Signal.SPIKES: _spikes,
    Signal.BUMPS: _bumps,
    Signal.PARABOLAS: _parabolas,
    Signal.ANGLES: _angles,
}


def signal_eval(signal: Signal, x):
    """Evaluate the signal at x in [0, 1] (elementwise)."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
        raise DomainError("signals are defined on [0, 1]")
    out = _SIGNAL_FUNCS[signal](arr)
    return float(out) if np.ndim(out) == 0 else out


class NoiseSetting(enum.Enum):
    """Conditional noise scale sigma(x) for the Gaussian noise."""

    S1 = 1  # constant 0.3
    S2 = 2  # 0.3 (x^2 + 1)
    S3 = 3  # 0.3 (x^2 - x + 5/4)

    @classmethod
    def from_number(cls, number: int) -> "NoiseSetting":
        try:
            return cls(int(number))
        except ValueError:
            raise ValueError(f"unknown noise setting {number!r}; expected 1, 2 or 3") from None

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        if self is NoiseSetting.S1:
            out = np.full_like(x, 0.3)
        elif self is NoiseSetting.S2:
            out = 0.3 * (x * x + 1.0)
        else:
            out = 0.3 * (x * x - x + 1.25)
        return float(out) if out.ndim == 0 else out

    @property
    def sigma_max(self) -> float:
        """Maximum of sigma on [0, 1]."""
        return {NoiseSetting.S1: 0.3, NoiseSetting.S2: 0.6, NoiseSetting.S3: 0.375}[self]


@dataclass(frozen=True)
class SyntheticModel:
    """Y = f(X) + sigma(X) Z with X ~ U[0, 1] and Z standard normal."""

    signal: Signal
    noise: NoiseSetting

    def signal_range(self) -> tuple[float, float]:
        """Approximate min/max of the signal over [0, 1] (dense grid)."""
        return self._signal_range

    @functools.cached_property
    def _signal_range(self) -> tuple[float, float]:
        # found on first use and kept for the life of the model, so the oracle
        # of a study brackets every cell from one grid
        grid = np.linspace(0.0, 1.0, 4097)
        grid = np.union1d(grid, np.asarray(self.signal.breakpoints))
        f = signal_eval(self.signal, grid)
        return float(np.min(f)), float(np.max(f))


def sample_replicates(model: SyntheticModel, n: int, master_seed: int, keys) -> Replicates:
    """Draw n i.i.d. rows from the model for each stream key of `master_seed`.

    Replicate r is a pure function of its stream: covariates from its
    substream _TAG_X, noise from its substream _TAG_NOISE, row i from draw i.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x_keys, noise_keys = substream_keys(master_seed, keys, (_TAG_X, _TAG_NOISE)).T
    rows = np.arange(n)
    x = stream_uniforms(x_keys, rows)
    z = ndtri(stream_uniforms(noise_keys, rows))
    y = signal_eval(model.signal, x) + model.noise.sigma(x) * z
    return Replicates(x[:, :, None], y)


def sample_dataset(model: SyntheticModel, n: int, rng: RngStream) -> Dataset:
    """Draw n i.i.d. rows from the model, deterministically per stream: the
    replicate of `sample_replicates` with the stream's key."""
    reps = sample_replicates(model, n, rng.master_seed, [rng.key])
    return Dataset(covariates=reps.covariates[0], responses=reps.responses[0],
                   x_names=("x",), y_name="y")


def _window(spec: LocalizationSpec) -> tuple[float, float]:
    """Kernel support intersected with [0, 1]."""
    x0 = float(spec.center[0])
    radius = spec.kernel.support_radius * float(spec.bandwidths[0])
    if x0 - radius == x0 + radius:
        raise DomainError(
            f"the kernel window at x0 = {x0!r} collapses to a point: x0 ± {radius!r} rounds to x0"
        )
    lo, hi = max(x0 - radius, 0.0), min(x0 + radius, 1.0)
    if lo >= hi:
        raise DomainError("kernel support does not intersect [0, 1]")
    return lo, hi


def _panel_rule(lo: float, hi: float, breakpoints) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [lo, hi].

    The interval is split at the breakpoints inside it, and each piece into
    equal panels no wider than _PANEL_WIDTH.
    """
    edges = np.unique([lo, hi, *(p for p in breakpoints if lo < p < hi)])
    counts = np.ceil(np.diff(edges) / _PANEL_WIDTH).astype(int)
    cuts = [np.linspace(a, b, k + 1) for a, b, k in zip(edges[:-1], edges[1:], counts)]
    left = np.concatenate([c[:-1] for c in cuts])
    half = 0.5 * (np.concatenate([c[1:] for c in cuts]) - left)
    nodes = (left + half)[:, None] + half[:, None] * _GL_NODES
    return nodes.ravel(), (half[:, None] * _GL_WEIGHTS).ravel()


def _panel_sum(values: np.ndarray, weights: np.ndarray) -> float:
    total = float(values @ weights)
    if not math.isfinite(total):
        raise QuadratureFailure("a quadrature panel sum is not finite")
    return total


def _conditional_cdf(model: SyntheticModel, x: np.ndarray):
    """y -> P(Y <= y | X = x) at the fixed nodes x; f and sigma are evaluated once."""
    f = signal_eval(model.signal, x)
    s = model.noise.sigma(x)
    return lambda y: ndtr((y - f) / s)


def _localized_cdf(model: SyntheticModel, spec: LocalizationSpec, x: np.ndarray, w: np.ndarray):
    """y -> localized response CDF by the quadrature rule (x, w): P(Y <= y | X = x)
    summed with the weights w times the kernel at x, normalized to sum to 1."""
    k = spec.kernel.evaluate((float(spec.center[0]) - x) / float(spec.bandwidths[0]))
    mass = _panel_sum(k, w)
    if mass <= 0.0:
        raise DomainError("kernel mass on [0, 1] is zero")
    kw = w * k / mass
    cdf = _conditional_cdf(model, x)
    return lambda y: _panel_sum(cdf(y), kw)


def _breakpoints(model: SyntheticModel, spec: LocalizationSpec) -> tuple[float, ...]:
    x0 = float(spec.center[0])
    h = float(spec.bandwidths[0])
    return model.signal.breakpoints + (x0, x0 - h, x0 + h)


def _require_univariate(spec: LocalizationSpec):
    if spec.dim != 1:
        raise DomainError("the synthetic oracle requires a 1-d covariate")


def _q_cdf_factory(model: SyntheticModel, spec: LocalizationSpec):
    """Localized response CDF y -> Q_Y(y) with the normalized kernel weights precomputed."""
    _require_univariate(spec)
    return _localized_cdf(model, spec, *_panel_rule(*_window(spec), _breakpoints(model, spec)))


def true_q_cdf(model: SyntheticModel, spec: LocalizationSpec, y: float) -> float:
    """Oracle localized response CDF Q_Y(y), by the composite Gauss-Legendre rule;
    NaN raises DomainError."""
    if math.isnan(y):
        raise DomainError("y cannot be NaN")
    return _q_cdf_factory(model, spec)(float(y))


def _bracket(model: SyntheticModel, sds: float = 6.0) -> tuple[float, float]:
    """The signal's range widened by `sds` times sigma_max on each side."""
    fmin, fmax = model.signal_range()
    pad = sds * model.noise.sigma_max
    return fmin - pad, fmax + pad


def _bisect(g, lo: float, hi: float, g_lo: float) -> float:
    """Root of g on [lo, hi] by bisection, given g_lo = g(lo) of sign opposite to g(hi).

    The loop of scipy's `bisect`, step for step, so roots agree bit for
    bit: halve the step, keep the midpoint as the left end while its sign
    matches g_lo, stop at an exact zero or when the step is below
    _ROOT_TOL + _ROOT_RTOL * |midpoint|, and return that midpoint. The
    signs are compared, where scipy tests g_mid * g_lo >= 0: that product
    underflows to zero, and so reads as a match, once |g_mid * g_lo| is
    below about 2.5e-324, as it is near the root at p = 1e-300.
    """
    step = hi - lo
    for _ in range(_ROOT_MAXITER):
        step *= 0.5
        mid = lo + step
        g_mid = g(mid)
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo = mid
        if g_mid == 0.0 or abs(step) < _ROOT_TOL + _ROOT_RTOL * abs(mid):
            return mid
    raise BracketFailure(f"bisection did not converge in {_ROOT_MAXITER} steps")


def true_theta(model: SyntheticModel, spec: LocalizationSpec, p: float) -> float:
    """Oracle localized p-th quantile, by bisection on the oracle CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    q_cdf = _q_cdf_factory(model, spec)
    lo, hi = _bracket(model)
    g = lambda y: q_cdf(y) - p
    g_lo, g_hi = g(lo), g(hi)
    if g_lo >= 0.0 or g_hi <= 0.0:
        # p lies beyond about ndtr(±6). Below the signal's minimum every
        # conditional law has Q(y) <= ndtr((y - fmin) / sigma_max), and above
        # its maximum likewise for 1 - Q, so z = -ndtri(min(p, 1 - p)) sds
        # bracket theta; one sd more leaves room for rounding
        lo, hi = _bracket(model, 1.0 - float(ndtri(min(p, 1.0 - p))))
        g_lo, g_hi = g(lo), g(hi)
    if g_lo >= 0.0 or g_hi <= 0.0:
        raise BracketFailure(
            f"no sign change on [{lo:.3g}, {hi:.3g}]: g(lo)={g_lo:.3g}, g(hi)={g_hi:.3g}"
        )
    return _bisect(g, lo, hi, g_lo)


def mixture_weight(h: float, h0: float) -> float:
    """Share of the localized mass carried by the inner core [x0-h0, x0+h0].

    Closed form for the triangular kernel with the window inside [0, 1]:
    1 - ((h - h0)/h)^2.
    """
    if not 0.0 < h0 <= h:
        raise DomainError("need 0 < h0 <= h")
    return 1.0 - ((h - h0) / h) ** 2


def indistinguishable_pair(
    model: SyntheticModel, spec: LocalizationSpec, h0: float, theta_star: float
) -> tuple[float, float]:
    """Construct the nearby distribution whose localized median sits at theta_star.

    The localized CDF is decomposed into the inner-core component F1 (within
    h0 of the center) and the outer-ring component F2; the modified law moves
    all F1 mass below theta_star up to an atom at theta_star. Returns the
    modified median together with the total-variation distance between the
    original and modified joint distributions.

    Requires the triangular kernel with the full window inside [0, 1],
    0 < h0 < h and a finite theta_star.
    """
    _require_univariate(spec)
    if spec.kernel is not Kernel.TRIANGULAR:
        raise DomainError("the indistinguishability analysis uses the triangular kernel")
    x0 = float(spec.center[0])
    h = float(spec.bandwidths[0])
    if not 0.0 < h0 < h:
        raise DomainError("need 0 < h0 < h")
    if not math.isfinite(theta_star):
        raise DomainError("theta_star must be finite")
    if x0 - h < 0.0 or x0 + h > 1.0:
        raise DomainError("kernel window must lie inside [0, 1]")

    w = mixture_weight(h, h0)
    pts = _breakpoints(model, spec) + (x0 - h0, x0 + h0)
    x_core, w_core = _panel_rule(x0 - h0, x0 + h0, pts)
    left, right = _panel_rule(x0 - h, x0 - h0, pts), _panel_rule(x0 + h0, x0 + h, pts)
    f1 = _localized_cdf(model, spec, x_core, w_core)
    f2 = _localized_cdf(model, spec, *(np.concatenate(pair) for pair in zip(left, right)))

    # modified CDF: w * F1(y) 1{y >= theta_star} + (1 - w) * F2(y)
    at_star = w * f1(theta_star) + (1.0 - w) * f2(theta_star)
    below_star = (1.0 - w) * f2(theta_star)
    if below_star < 0.5 <= at_star:
        theta_prime = float(theta_star)
    else:
        lo, hi = _bracket(model)
        if at_star < 0.5:
            # above theta_star the modified CDF equals the original one
            g = lambda y: w * f1(y) + (1.0 - w) * f2(y) - 0.5
            lo = theta_star
        else:
            g = lambda y: (1.0 - w) * f2(y) - 0.5
            hi = theta_star
        g_lo = g(lo)
        if g_lo >= 0.0 or g(hi) <= 0.0:
            raise BracketFailure("modified CDF does not cross 1/2 on the search interval")
        theta_prime = _bisect(g, lo, hi, g_lo)

    # TV distance: mass moved, integrated without kernel reweighting
    return theta_prime, _panel_sum(_conditional_cdf(model, x_core)(theta_star), w_core)
