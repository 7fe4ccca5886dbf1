"""Distribution-free quantile confidence intervals from order statistics.

The interval [X_(l), X_(u)] covers the p-th quantile with probability at
least 1 - alpha1 - alpha2 for i.i.d. samples from any distribution, by
bounding the counts of samples below/above the quantile with Binomial(n, p)
tails, which give the thresholds (L, U) of `_ci_thresholds`. With ties, l is
the last index of a tie run at or below L and u the first index of a run at
or above U. Each is one count over the sorted sample x_(1) <= ... <= x_(n):
l = #{x < x_(L+1)}, or n when L = n, and u = #{x <= x_(U-1)} + 1, or 1 when
U = 1. The sentinels X_(0) = -inf and X_(n+1) = +inf give one-sided or
trivial intervals when a tail budget is too small.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .base import IntervalResult, _read_only
from .errors import DomainError

_EPS = float(np.finfo(float).eps)
_UNDERFLOW = 2.0**-1073  # twice the smallest subnormal


@dataclass(frozen=True, eq=False)
class TieIndices:
    """Per order statistic, the 1-based first/last index sharing its value."""

    i_min: np.ndarray
    i_max: np.ndarray

    @classmethod
    def from_sorted(cls, values: np.ndarray) -> "TieIndices":
        values = np.asarray(values)
        n = values.shape[0]
        if n < 1:
            raise ValueError("need at least one value")
        # NaN equals nothing, so it fails the first test even as the only value
        if not (np.all(values == values) and np.all(values[1:] >= values[:-1])):
            raise ValueError("values must be sorted ascending")
        # i_min = 1 + #{x < x_j} and i_max = #{x <= x_j}
        return cls(*_read_only(np.searchsorted(values, values, side="left") + 1,
                               np.searchsorted(values, values, side="right")))


def _binom_tables(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, sf) for Binomial(n, p): cdf[k] = P(B <= k), sf[k] = P(B >= k).

    The terms are stepped outward from 1 at the mode by the term ratio, as
    `_exact_cdf_at_most` steps it, and divided by their sum. Each tail is
    accumulated from its own small end, so a small tail keeps the relative
    accuracy of its terms (`_table_error`), and is monotone.
    """
    mode = min(int((n + 1) * p), n)
    k = np.arange(n + 1, dtype=float)
    up = np.cumprod((n - k[mode:n]) / (k[mode:n] + 1.0) * (p / (1.0 - p)))
    down = np.cumprod(k[mode:0:-1] / (n - k[mode:0:-1] + 1.0) * ((1.0 - p) / p))
    pmf = np.concatenate((down[::-1], [1.0], up))
    pmf /= pmf.sum()
    return np.cumsum(pmf), np.cumsum(pmf[::-1])[::-1]


def _table_error(n: int, p: float) -> float:
    """A bound on the relative error of the entries of `_binom_tables(n, p)` that
    do not underflow, at any p: 8 eps (n + 2). Each rounding errs by at most
    eps / 2. A term is at most n ratio steps from the mode, and a step rounds
    five times (1 - p, the odds, the integer quotient, their product and the
    running product), so each term, and so their sum, errs by at most 2.5 n
    eps. Summing adds n eps / 2, dividing eps / 2 and a tail's running sum
    n eps / 2: 6 n eps + eps / 2 to first order, with room for the rest."""
    return 8.0 * _EPS * (n + 2.0)


def _exact_cdf_at_most(n: int, a: int, d: int, k: int, alpha: float) -> bool:
    """Whether P(Binomial(n, a / d) <= k) <= alpha, in integer arithmetic: the
    tail is the sum of the terms comb(n, j) a**j (d - a)**(n - j) over d**n."""
    term = total = (d - a) ** n
    for j in range(1, k + 1):
        term = term * (n - j + 1) * a // (j * (d - a))  # exact: the next term
        total += term
    num, den = float(alpha).as_integer_ratio()
    return total * den <= num * d**n


def _count_at_most(tails: np.ndarray, alpha: float, error: float, at_most) -> int:
    """How many of the ascending float `tails` stand for exact tails <= alpha.

    Entry i stands for an exact tail, strictly increasing in i, to within the
    relative `error`, and to within len(tails) * 2**-1073 more where its
    terms underflow; at_most(i) tells whether that exact tail is <= alpha.
    An entry farther from alpha than its error decides its own comparison;
    the few between are bisected with at_most, whose cost grows with n times
    the bits of p. At alpha = 0 the count is 0: every exact tail is
    positive, even one whose table entry is 0.0.
    """
    if alpha == 0.0:
        return 0
    slack = tails.shape[0] * _UNDERFLOW
    lo = int(np.searchsorted(tails, (alpha - slack) / (1.0 + error), side="right"))
    hi = int(np.searchsorted(tails, (alpha + slack) / (1.0 - error), side="right"))
    while lo < hi:
        mid = (lo + hi) // 2
        if at_most(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


@lru_cache(maxsize=4096)
def _ci_thresholds(n: int, p: float, alpha1: float, alpha2: float) -> tuple[int, int]:
    """(L, U) with P(B(n,p) < i) <= alpha1 iff i <= L and P(B(n,p) >= j) <= alpha2
    iff j >= U, for 1 <= i, j <= n; an empty sample (n = 0) gets (0, 1).

    Exact for p and the alphas as the binary fractions they are: both tables
    are monotone, as the exact tails are, and `_count_at_most` decides in
    exact arithmetic the entries the floats cannot. Only the two integers
    are kept, so the cache stays small at any n.
    """
    cdf, sf = _binom_tables(n, p)
    error, (a, d) = _table_error(n, p), float(p).as_integer_ratio()
    lower = _count_at_most(cdf[:n], alpha1, error,
                           lambda i: _exact_cdf_at_most(n, a, d, i, alpha1))
    # sf[n - i] = P(B >= n - i) = P(B' <= i) for B' ~ Binomial(n, 1 - p)
    upper = _count_at_most(sf[n:0:-1], alpha2, error,
                           lambda i: _exact_cdf_at_most(n, d - a, d, i, alpha2))
    return lower, n + 1 - upper


def binom_cdf(n: int, p: float, k: int) -> float:
    """P(Binomial(n, p) <= k), to within the relative `_table_error(n, p)`.

    Out-of-range k is clamped: k < 0 gives 0, k >= n gives 1. n and k must
    be integers (Python or numpy); a float raises TypeError.
    """
    n, k = operator.index(n), operator.index(k)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    cdf, _ = _binom_tables(n, p)
    return min(float(cdf[k]), 1.0)


def _check_levels(p: float, alpha1: float, alpha2: float) -> None:
    """ValueError unless 0 < p < 1 (NaN fails), alpha1 and alpha2 lie in [0, 1)
    and alpha1 + alpha2 <= 1. A sum of exactly 1.0 passes: the split of a
    valid QuantileSpec (alpha < 1) can round to it."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not (0.0 <= alpha1 < 1.0 and 0.0 <= alpha2 < 1.0):
        raise ValueError("alpha1 and alpha2 must lie in [0, 1)")
    if alpha1 + alpha2 > 1.0:
        raise ValueError(f"alpha1 + alpha2 must not exceed 1, got {alpha1} + {alpha2}")


def quantile_ci_indices(
    n: int, ties: TieIndices, p: float, alpha1: float, alpha2: float
) -> tuple[int, int]:
    """Order-statistic indices (l_hat, u_hat) for the p-th quantile CI.

    l_hat is the largest i in [0, n] with P(B(n,p) < I_{i,max}) <= alpha1,
    u_hat the smallest j in [1, n+1] with P(B(n,p) >= I_{j,min}) <= alpha2,
    where the sentinel indices I_{0,max} = 0 and I_{n+1,min} = n+1 always
    qualify. l_hat = 0 / u_hat = n+1 signal infinite endpoints. With the
    thresholds (L, U) of `_ci_thresholds`, l_hat is the largest i_max <= L,
    or 0, and u_hat the smallest i_min >= U, or n+1: for the ties of a sorted
    sample, the counts #{x < x_(L+1)} (n when L = n) and #{x <= x_(U-1)} + 1
    (1 when U = 1). `ties` must have n entries; the levels are checked as in
    `_check_levels`. n must be an integer (Python or numpy); a float raises
    TypeError.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_levels(p, alpha1, alpha2)
    if ties.i_min.shape != (n,):
        raise ValueError(f"ties must have n = {n} entries, got {ties.i_min.shape[0]}")
    lower, upper = _ci_thresholds(n, p, alpha1, alpha2)
    l_hat = np.where(ties.i_max <= lower, ties.i_max, 0).max()
    u_hat = np.where(ties.i_min >= upper, ties.i_min, n + 1).min()
    return int(l_hat), int(u_hat)


def sorted_quantile_cis(values, sizes, p: float, alpha1: float, alpha2: float):
    """Distribution-free CIs for the p-th quantile of many sorted i.i.d. samples.

    Sample k is values[k, :sizes[k]] of the (..., m) `values`, ascending, with
    +inf after it; `sizes` has the shape (...). Returns the arrays (lower,
    upper); an empty sample gets the trivial interval (-inf, inf). The levels
    are checked as in `_check_levels`.

    With x_(0) = -inf, the sample x_(1..size), x_(size+1) = +inf and the
    thresholds (L, U) of `_ci_thresholds`, each sample's indices are two
    counts: l_hat = #{x < x_(L+1)}, or size when L = size, and
    u_hat = #{x <= x_(U-1)} + 1, or 1 when U = 1. The counts run over the
    whole row: the +inf after a sample is never < x_(L+1), and is <= x_(U-1)
    only when that is +inf, where u_hat may pass size + 1 but still reads
    +inf. The endpoints x_(l_hat) and x_(u_hat) are read from the rows padded
    with -inf before and +inf after.
    """
    _check_levels(p, alpha1, alpha2)
    sizes = np.asarray(sizes)
    bounds = np.array([_ci_thresholds(n, p, alpha1, alpha2) for n in sizes.ravel().tolist()],
                      dtype=np.intp).reshape(sizes.shape + (2,))
    lower, upper = bounds[..., 0], bounds[..., 1]
    pad = np.full(values.shape[:-1] + (1,), math.inf)
    padded = np.concatenate((-pad, values, pad), axis=-1)
    marks = np.take_along_axis(padded, np.stack((lower + 1, upper - 1), axis=-1), axis=-1)
    below = np.count_nonzero(values < marks[..., :1], axis=-1)
    at_most = np.count_nonzero(values <= marks[..., 1:], axis=-1)
    l_hat = np.where(lower == sizes, sizes, below)
    u_hat = np.where(upper == 1, 1, at_most + 1)
    ends = np.take_along_axis(padded, np.stack((l_hat, u_hat), axis=-1), axis=-1)
    return ends[..., 0], ends[..., 1]


def df_quantile_ci(ys, p: float, alpha1: float, alpha2: float) -> IntervalResult:
    """Distribution-free CI for the p-th quantile of an i.i.d. sample; NaN raises
    DomainError, and levels are checked as in `_check_levels`."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or ys.shape[0] < 1:
        raise ValueError("ys must be a nonempty 1-d array")
    if np.isnan(ys).any():
        raise DomainError("responses cannot be NaN")
    n = ys.shape[0]
    values = ys + 0.0  # one sign of zero, as in every Dataset array
    values.sort()
    lower, upper = sorted_quantile_cis(values[None], [n], p, alpha1, alpha2)
    return IntervalResult(
        lower=float(lower[0]), upper=float(upper[0]), method="DFQ", n_eff=float(n)
    )
