"""Persistency-exponent estimation from samples.

The exponent theta in  P(T > t) ~ e^{-theta t}  is estimated by ordinary
least squares on the log empirical survival over the k largest order
statistics: the empirical survival at the i-th smallest of n samples is
taken as (n - i + 1/2)/n (the 1/2 avoids log 0 at the sample maximum
without discarding it), and theta = -slope.  The sign convention is fixed
here once: survival decreases, so the reported theta is positive for
exponential tails.

Confidence bounds come from replication, not from OLS standard errors
(residuals across order statistics are strongly dependent): ``reps``
independent replications on distinct RNG streams give a Student-t
half-width.  The tail count k is always an explicit, logged parameter;
the default is max(1000, n/100), at most n - 1.

Estimates are in the model's native time units.  No rescaling happens
inside the estimator: for reparameterized covariances (e.g. a Matern with
length scale rho in lag sqrt(2 nu) d / rho) the caller rescales theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .samplers import RngStream
from .slepian import NumericalFailure

__all__ = [
    "ExponentEstimate",
    "DegenerateTailError",
    "check_tail_count",
    "default_tail_count",
    "student_t_quantile",
    "tail_exponent",
    "tail_exponent_ci",
]


class DegenerateTailError(NumericalFailure, ValueError):
    """The regression tail has no spread: fewer than two distinct values,
    or differences so small that their squares underflow to zero."""


@dataclass
class ExponentEstimate:
    """A persistency-exponent value with its estimation provenance.

    ``method`` is "pole" for Laplace-pole search and "tail_regression"
    for the Monte Carlo estimator.  ``half_width`` is a 95% bound across
    replications (absent for single runs and pole results).  The pole
    fields record the sign-change bracket, the residual of the pole
    equation at the returned root, the ``boundary`` together with the
    safety margin kept from it, the quadrature error estimate
    of the transform, the residue prefactor C of P(T > t) ~ C e^{-theta t}
    and the number of evaluations of the pole equation.  ``boundary`` is
    the slope of the tail completion, log E0 over the last truncation step
    [t_max/1.25, t_max]: the transform as computed converges for s above
    it.  It equals minus the decay rate of E0 only where E0 is exponential
    by t_max (-1/2 for diffusion d = 2); diffusion d = 43 reports -10.42
    and d = 64 -14.91, against -d/4 = -10.75 and -16.
    """

    theta: float
    method: str
    intercept: Optional[float] = None
    half_width: Optional[float] = None
    n: Optional[int] = None
    k: Optional[int] = None
    reps: Optional[int] = None
    seed: Optional[int] = None
    bracket: Optional[tuple] = None
    residual: Optional[float] = None
    boundary: Optional[float] = None
    boundary_margin: Optional[float] = None
    quad_abserr: Optional[float] = None
    prefactor: Optional[float] = None
    h_evals: Optional[int] = None
    per_rep: Optional[tuple] = None

    def as_dict(self) -> dict:
        """The fields that are set, tuples as lists."""
        out = {}
        for field in fields(self):
            val = getattr(self, field.name)
            if val is not None:
                out[field.name] = list(val) if isinstance(val, tuple) else val
        return out


def default_tail_count(n: int) -> int:
    """max(1000, n/100), capped at n - 1, the largest tail count of n."""
    return min(max(1000, n // 100), n - 1)


def _student_t_central(t: float, nu: int) -> float:
    """P(|T| <= t) for Student's t with integer nu >= 1 degrees of freedom:
    the finite trigonometric sums of Abramowitz & Stegun 26.7.3 (odd nu)
    and 26.7.4 (even nu) in theta = atan(t / sqrt(nu)).  The series
    1 + sum_j cos^{2j}(theta) prod_{i<=j} (2i - 1 + odd)/(2i + odd) has
    nu // 2 terms.  cos^{2j} is exp(-j log1p(t^2/nu)): a product of j
    rounded cos^2 would carry j times its rounding error, about 1e-12
    for the terms that matter at nu = 1e5."""
    cos2 = nu / (nu + t * t)
    sin = t / math.sqrt(nu + t * t)
    odd = nu % 2
    j = np.arange(1.0, nu // 2)
    terms = np.cumprod((2.0 * j - 1.0 + odd) / (2.0 * j + odd)) * np.exp(-math.log1p(t * t / nu) * j)
    series = 1.0 + float(terms.sum())
    if not odd:
        return sin * series
    theta = math.atan(t / math.sqrt(nu))
    return 2.0 / math.pi * (theta + (sin * math.sqrt(cos2) * series if nu > 1 else 0.0))


@lru_cache(maxsize=None)
def student_t_quantile(nu: int) -> float:
    """The 0.975-quantile of Student's t with integer nu >= 1 degrees of
    freedom, the level of the package's 95% bound: the smallest double q
    with P(|T| <= q) >= 0.95, by bisection on ``_student_t_central`` in
    [0, 13] until the bracket's ends are adjacent doubles.  The bracket
    holds every nu: the quantile is largest at nu = 1, where it is 12.706.
    Memoised per nu.  Against a 40-digit quantile the relative error is at
    most 5e-14 for nu up to 1e5 (``test_persistency.py``).
    """
    if not nu >= 1:
        raise ValueError(f"need nu >= 1, got nu={nu}")
    lo, hi = 0.0, 13.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if _student_t_central(mid, nu) >= 0.95:
            hi = mid
        else:
            lo = mid
    return hi


def check_tail_count(k: int, n: int) -> None:
    """A ValueError unless the regression takes k as a tail count of n."""
    if not 2 <= k <= n - 1:
        raise ValueError(f"tail count k must satisfy 2 <= k <= n-1, got k={k}, n={n}")


def tail_exponent(samples, k: int, n: Optional[int] = None) -> tuple[float, float]:
    """OLS tail-slope estimate on the k largest of n order statistics.

    Returns ``(theta, intercept)`` from the regression of
    ln((n - i + 1/2)/n) on x_(i), with theta = -slope.  ``samples`` holds
    the n draws, or any part of them that includes their k largest (for
    instance ``DivisorSampler.largest`` or ``samplers.excursion_largest``);
    n defaults to its size.  The
    estimate depends only on the k largest and on n, so both forms give
    the same bits.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size if n is None else int(n)
    check_tail_count(k, n)
    if not k <= x.size <= n:
        raise ValueError(f"need between k and n samples, got {x.size} for k={k}, n={n}")
    tail = np.sort(np.partition(x, x.size - k)[x.size - k :])  # the k largest, ascending
    xm = tail - tail.mean()
    spread = np.dot(xm, xm)
    if spread == 0.0:  # identical values, or differences whose squares underflow
        raise DegenerateTailError("tail order statistics have no spread")
    i = np.arange(n - k + 1, n + 1, dtype=float)
    y = np.log((n - i + 0.5) / n)
    slope = float(np.dot(xm, y) / spread)
    intercept = float(y.mean() - slope * tail.mean())
    return -slope, intercept


def tail_exponent_ci(
    sampler: Callable[[RngStream, int], np.ndarray],
    n: int,
    k: int,
    reps: int,
    rng: RngStream,
    threads: int = 1,
) -> ExponentEstimate:
    """Replicated tail-regression estimate with a Student-t 95% bound.

    Replication r draws ``n`` samples from ``sampler`` on the stream
    ``(rng.seed, rng.stream_index + r)``, so results are independent of
    thread count and scheduling.  The sampler may return the n samples or
    only part of them that holds their k largest (see ``tail_exponent``).
    A failed replication aborts with its own exception, noted with the
    replication's index; a tail count outside 2..n-1 is refused before any
    draw.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2 for a confidence bound")
    check_tail_count(k, n)

    def one(r: int) -> tuple[float, float]:
        stream = rng.replicate(r)
        try:
            values = np.asarray(sampler(stream, n), dtype=float)
            return tail_exponent(values, k, n)
        except Exception as exc:
            exc.add_note(f"in replication {r}")
            raise

    if threads > 1:
        # imported here: concurrent.futures costs about a quarter of the
        # package's import, and no command of the CLI runs a pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(r) for r in range(reps)]
    thetas = np.array([t for t, _ in results])
    intercepts = np.array([a for _, a in results])
    sd = float(thetas.std(ddof=1))
    half = float(student_t_quantile(reps - 1) * sd / math.sqrt(reps))
    return ExponentEstimate(
        theta=float(thetas.mean()),
        method="tail_regression",
        intercept=float(intercepts.mean()),
        half_width=half,
        n=int(n),
        k=int(k),
        reps=int(reps),
        seed=rng.seed,
        per_rep=tuple(float(t) for t in thetas),
    )
