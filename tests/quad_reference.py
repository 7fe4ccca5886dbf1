"""Adaptive-quadrature reference for the synthetic oracle (tests only).

This is the oracle the package shipped before its composite Gauss-Legendre
rule: scipy `quad` with Python callbacks, split at the signal and kernel
breakpoints, inverted by bisection. It is far slower (hundreds of
milliseconds per cell) and is kept only to check the panel rule against an
independent integrator.
"""

from __future__ import annotations

from scipy.integrate import quad
from scipy.optimize import bisect
from scipy.special import ndtr

from localquant import BracketFailure, DomainError, QuadratureFailure, mixture_weight, signal_eval
from localquant.synthetic import _bracket, _breakpoints, _window

QUAD_TOL = 1e-9
ROOT_TOL = 1e-10


def integrate(func, lo: float, hi: float, breakpoints) -> float:
    pts = sorted({p for p in breakpoints if lo < p < hi})
    # full_output suppresses the IntegrationWarning; the error estimate is
    # checked against the oracle tolerance instead
    out = quad(
        func, lo, hi, points=pts or None, limit=200, epsabs=1e-12, epsrel=1e-10,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if abserr > QUAD_TOL:
        raise QuadratureFailure(
            f"quadrature error estimate {abserr:.2e} exceeds tolerance {QUAD_TOL:.0e}"
        )
    return value


def _kern(spec):
    x0 = float(spec.center[0])
    h = float(spec.bandwidths[0])
    return lambda x: spec.kernel.evaluate((x0 - x) / h)


def _phi_kern(model, kern, y):
    def integrand(x):
        f = signal_eval(model.signal, x)
        return ndtr((y - f) / model.noise.sigma(x)) * kern(x)

    return integrand


def q_cdf_factory(model, spec):
    """Localized response CDF y -> Q_Y(y) with the kernel mass precomputed."""
    lo, hi = _window(spec)
    pts = _breakpoints(model, spec)
    kern = _kern(spec)
    denom = integrate(kern, lo, hi, pts)
    if denom <= 0.0:
        raise DomainError("kernel mass on [0, 1] is zero")
    return lambda y: integrate(_phi_kern(model, kern, float(y)), lo, hi, pts) / denom


def true_theta(model, spec, p: float) -> float:
    """Localized p-th quantile, by bisection on the quadrature CDF."""
    q_cdf = q_cdf_factory(model, spec)
    lo, hi = _bracket(model)
    g = lambda y: q_cdf(y) - p
    if g(lo) >= 0.0 or g(hi) <= 0.0:
        raise BracketFailure(f"no sign change on [{lo:.3g}, {hi:.3g}]")
    return float(bisect(g, lo, hi, xtol=ROOT_TOL, maxiter=200))


def indistinguishable_pair(model, spec, h0: float, theta_star: float) -> tuple[float, float]:
    """The modified median and the TV distance, as `localquant` defines them."""
    x0 = float(spec.center[0])
    h = float(spec.bandwidths[0])
    w = mixture_weight(h, h0)
    pts = _breakpoints(model, spec) + (x0 - h0, x0 + h0)
    kern = _kern(spec)

    def phi_kern_integral(y, lo, hi):
        return integrate(_phi_kern(model, kern, y), lo, hi, pts)

    core_mass = integrate(kern, x0 - h0, x0 + h0, pts)
    ring_mass = integrate(kern, x0 - h, x0 - h0, pts) + integrate(kern, x0 + h0, x0 + h, pts)

    def f1(y):
        return phi_kern_integral(y, x0 - h0, x0 + h0) / core_mass

    def f2(y):
        return (
            phi_kern_integral(y, x0 - h, x0 - h0) + phi_kern_integral(y, x0 + h0, x0 + h)
        ) / ring_mass

    at_star = w * f1(theta_star) + (1.0 - w) * f2(theta_star)
    below_star = (1.0 - w) * f2(theta_star)
    if below_star < 0.5 <= at_star:
        theta_prime = float(theta_star)
    else:
        lo, hi = _bracket(model)
        if at_star < 0.5:
            g = lambda y: w * f1(y) + (1.0 - w) * f2(y) - 0.5
            lo = theta_star
        else:
            g = lambda y: (1.0 - w) * f2(y) - 0.5
            hi = theta_star
        theta_prime = float(bisect(g, lo, hi, xtol=ROOT_TOL, maxiter=200))

    def tv_integrand(x):
        f = signal_eval(model.signal, x)
        return ndtr((theta_star - f) / model.noise.sigma(x))

    tv = integrate(tv_integrand, x0 - h0, x0 + h0, pts)
    return theta_prime, float(tv)
