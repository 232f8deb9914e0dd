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
the default is max(1000, n/100).

Estimates are in the model's native time units.  No rescaling happens
inside the estimator: for reparameterized covariances (e.g. a Matern with
length scale rho in lag sqrt(2 nu) d / rho) the caller rescales theta.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .samplers import RngStream

__all__ = [
    "ExponentEstimate",
    "DegenerateTailError",
    "default_tail_count",
    "empirical_survival",
    "tail_exponent",
    "tail_exponent_ci",
]


class DegenerateTailError(ValueError):
    """Fewer than two distinct values in the regression tail."""


@dataclass
class ExponentEstimate:
    """A persistency-exponent value with its estimation provenance.

    ``method`` is "pole" for Laplace-pole search and "tail_regression"
    for the Monte Carlo estimator.  ``half_width`` is a 95% bound across
    replications (absent for single runs and pole results).  The pole
    fields record the sign-change bracket, the residual of the pole
    equation at the returned root, the convergence boundary together
    with the safety margin kept from it, the quadrature error estimate
    of the transform, the residue prefactor C of P(T > t) ~ C e^{-theta t}
    and the number of evaluations of the pole equation.
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
    return max(1000, n // 100)


def empirical_survival(samples, taus) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival p = P(X > tau) of the samples at each tau and its
    binomial standard error sqrt(max(p(1 - p), 1/n)/n); the floor keeps
    the SE positive where no sample (or every sample) exceeds tau."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    p = np.array([np.mean(samples > tau) for tau in taus], dtype=float)
    return p, np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)


def tail_exponent(samples, k: int) -> tuple[float, float]:
    """OLS tail-slope estimate on the k largest order statistics.

    Returns ``(theta, intercept)`` from the regression of
    ln((n - i + 1/2)/n) on x_(i), with theta = -slope.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if not 2 <= k <= n - 1:
        raise ValueError(f"tail count k must satisfy 2 <= k <= n-1, got k={k}, n={n}")
    tail = x[n - k :]
    if tail[0] == tail[-1]:
        raise DegenerateTailError("tail order statistics are all identical")
    i = np.arange(n - k + 1, n + 1, dtype=float)
    y = np.log((n - i + 0.5) / n)
    xm = tail - tail.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
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
    thread count and scheduling.  A failed replication aborts with its
    index.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2 for a confidence bound")

    def one(r: int) -> tuple[float, float]:
        stream = rng.replicate(r)
        try:
            values = np.asarray(sampler(stream, n), dtype=float)
            return tail_exponent(values, k)
        except Exception as exc:
            raise RuntimeError(f"replication {r} failed: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(r) for r in range(reps)]
    from scipy import special  # imported on use: only Monte Carlo estimates need it

    thetas = np.array([t for t, _ in results])
    intercepts = np.array([a for _, a in results])
    sd = float(thetas.std(ddof=1))
    half = float(special.stdtrit(reps - 1, 0.975) * sd / math.sqrt(reps))
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
