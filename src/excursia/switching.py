"""Alternating renewal ("switch") process and its stationary version.

A switch path takes values +/-1, starting from +1 at the origin and
flipping at the cumulative sums of iid positive switching times.  Its
time-varying mean E(t) relates to the switching-time transform Psi by

    L E(s) = (1/s) (1 - Psi(s)) / (1 + Psi(s)),

and the stationary (delayed) version - started inside an interval that
covers the origin, with forward delay A, backward delay B and a symmetric
initial sign - has covariance R with R'(t) = -(2/mu) E(t).  The delayed
interval is size-biased (density x f(x) / mu, the inspection paradox), and
A given A+B is uniform on the interval.

Every switching-time law draws the size-biased interval exactly: closed
forms for the exponential, gamma and point-mass laws, an inverse table for
the divisor, and the random-sum size-bias identity for the compound
exceedance time (see ``excursion_switching``).

These relations cross-check the exceedance construction from an entirely
independent direction: simulated paths against analytic transforms.

Only the forward half (t >= 0) of the stationary representation is
simulated; the backward branch adds nothing testable for stationarity on
the positive axis, and times before 0 are refused.  Both estimators read
path states from one ensemble (``_ensemble``): the origin-attached path is
the stationary one with A = 0 and delta = +1.  Paths use the left-closed
convention: the state at an exact switch instant is the value before the
flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .laplace import CHECK_ORDER, ORDER, QuadratureError, _unit_rule
from .samplers import DivisorSampler, RngStream, sample_excursions
from .covariance import CovarianceModel
from .slepian import mean_excursion

__all__ = [
    "SwitchingTimeDistribution",
    "exponential_switching",
    "gamma_switching",
    "point_mass_switching",
    "divisor_switching",
    "excursion_switching",
    "covariance_from_expectation",
    "estimate_expectation",
    "estimate_stationary_covariance",
]


@dataclass(frozen=True)
class SwitchingTimeDistribution:
    """Positive switching-time law: its mean and exact draws.

    ``draw(rng, n)`` returns n iid intervals.  ``size_biased_draw(rng, n)``
    returns n draws of the interval covering the origin (law x F(dx)/mean).
    """

    label: str
    mean: float
    draw: Callable  # (rng, n) -> array
    size_biased_draw: Callable  # (rng, n) -> array of A+B


def exponential_switching(rate: float = 1.0) -> SwitchingTimeDistribution:
    lam = float(rate)
    if not 0 < lam < math.inf:
        raise ValueError(f"rate must be positive and finite, got {lam:g}")

    def draw(rng: RngStream, n: int):
        return -np.log(rng.uniform01(n)) / lam

    def size_biased(rng: RngStream, n: int):
        # size-biased exponential is Gamma(2, rate): sum of two draws
        return -(np.log(rng.uniform01(n)) + np.log(rng.uniform01(n))) / lam

    return SwitchingTimeDistribution(label=f"exp:{lam:g}", mean=1.0 / lam, draw=draw, size_biased_draw=size_biased)


def gamma_switching(shape: float, rate: float = 1.0) -> SwitchingTimeDistribution:
    k, lam = float(shape), float(rate)
    if not (0 < k < math.inf and 0 < lam < math.inf):
        raise ValueError(f"shape and rate must be positive and finite, got {k:g}, {lam:g}")
    return SwitchingTimeDistribution(
        label=f"gamma:{k:g},{lam:g}",
        mean=k / lam,
        draw=lambda rng, n: rng.gen.gamma(k, 1.0 / lam, n),
        # size-biased Gamma(k) is Gamma(k+1)
        size_biased_draw=lambda rng, n: rng.gen.gamma(k + 1.0, 1.0 / lam, n),
    )


def point_mass_switching(c: float) -> SwitchingTimeDistribution:
    """Deterministic switching times c.  The covering interval is c itself,
    and a uniform phase on it makes the path exactly stationary, with the
    triangle-wave covariance 1 - 2t/c on [0, c] of period 2c."""
    c = float(c)
    if not 0 < c < math.inf:
        raise ValueError(f"point mass must be positive and finite, got {c:g}")

    def full(rng: RngStream, n: int):
        return np.full(n, c)

    return SwitchingTimeDistribution(label=f"point:{c:g}", mean=c, draw=full, size_biased_draw=full)


def divisor_switching(model: CovarianceModel) -> SwitchingTimeDistribution:
    """Switching times drawn from a model's geometric divisor.

    The size-biased draw takes one uniform through the inverse table of the
    closed-form size-biased survival S*(t) = 2 t E0(t)/mu + (2/pi) arcsin r(t)
    (``DivisorSampler.size_biased_draw``).
    """
    sampler = DivisorSampler(model)
    return SwitchingTimeDistribution(
        label=f"divisor:{model.spec_string()}",
        mean=sampler.mean,
        draw=sampler.draw,
        size_biased_draw=sampler.size_biased_draw,
    )


def excursion_switching(model: CovarianceModel) -> SwitchingTimeDistribution:
    """Switching times drawn from a model's compound exceedance law.

    By construction the origin-attached switch expectation then equals the
    clipped expectation E0, so the stationary covariance of this process
    reproduces the clipped autocovariance (2/pi) arcsin r(t) - the
    strongest end-to-end cross-check the simulator offers.

    The size-biased draw is exact, by the size-bias identity for random
    sums (Goldstein & Rinott 1996; Arratia, Goldstein & Kochman 2019): for
    S = X_1 + ... + X_N, size-biased S is X* + X_2 + ... + X_{N*}, with X*
    the size-biased divisor and N* the size-biased count.  For N ~
    Geometric(1/2), P(N* = k) = k 2^-(k+1), the law of N_1 + N_2 - 1 with
    N_1, N_2 iid Geometric(1/2), and N - 1 has the law of B N' with
    B ~ Bernoulli(1/2) and N' ~ Geometric(1/2): the N* - 1 further terms
    are two compounds, each kept with probability 1/2.  A draw costs one
    size-biased divisor draw, two uniforms and on average two divisor
    draws, the compounds drawn by ``sample_excursions``.
    """
    sampler = DivisorSampler(model)

    def draw(rng: RngStream, n: int):
        return sample_excursions(sampler, rng, n)[0]

    def size_biased(rng: RngStream, n: int):
        values = sampler.size_biased_draw(rng, n)
        for _ in range(2):  # N* - 1 = (N_1 - 1) + (N_2 - 1)
            kept = rng.uniform01(n) < 0.5
            values[kept] += sample_excursions(sampler, rng, int(np.count_nonzero(kept)))[0]
        return values

    return SwitchingTimeDistribution(
        label=f"excursion:{model.spec_string()}",
        mean=mean_excursion(model),
        draw=draw,
        size_biased_draw=size_biased,
    )


def covariance_from_expectation(expectation: Callable, mu: float, grid) -> np.ndarray:
    """R(t) = 1 - (2/mu) * int_0^t E(u) du, cumulated over the grid.

    Each grid interval gets the transform's composite rule
    (``laplace._unit_rule``), and the vectorised ``expectation`` is called
    once on the nodes of every interval.  The lower-order rule on the same
    panels gives each interval's error estimate; above 1e-10 |part| + 1e-12
    it raises QuadratureError.  Returns an array of (t, R(t)) rows.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("grid must be increasing and start at or after 0")
    (u, w), (u_low, w_low) = _unit_rule(ORDER), _unit_rule(CHECK_ORDER)
    lo = np.concatenate([[0.0], grid[:-1]])
    width = grid - lo
    values = np.asarray(expectation(lo[:, None] + width[:, None] * np.concatenate([u, u_low])), dtype=float)
    part = width * (values[:, : u.size] @ w)
    err = np.abs(part - width * (values[:, u.size :] @ w_low))
    i = int(np.argmax(err - 1e-10 * np.abs(part)))
    if not err[i] <= 1e-10 * abs(part[i]) + 1e-12:
        raise QuadratureError(f"quadrature error estimate {err[i]:.3g} on [{lo[i]:g}, {grid[i]:g}] exceeds 1e-10 |part| + 1e-12")
    return np.column_stack([grid, 1.0 - 2.0 / mu * np.cumsum(part)])


# ---------------------------------------------------------------------------
# ensemble estimators (ensemble over paths at fixed time points, which keeps
# the standard-error formulas elementary)


MAX_INSTANTS = 10**7  # 80 MB of float64; the tests need up to 2.9e6, the CLI default 2.7e6


def _columns(n: int, m: float, beyond: float) -> int:
    """int(m), if n paths of m instants (counted as a float) fit in MAX_INSTANTS."""
    count = n * m if n <= MAX_INSTANTS else math.inf  # n may be past the float range
    if not count <= MAX_INSTANTS:
        raise ValueError(f"{n} paths to t = {beyond:g} need {count:.3g} switch instants, above the {MAX_INSTANTS:.0e} an ensemble holds")
    return int(m)


def _first_columns(dist: SwitchingTimeDistribution, n: int, beyond: float) -> int:
    """The columns of the instant matrix's first draw: the mean count plus a margin."""
    return _columns(n, beyond / dist.mean + 6.0 * math.sqrt(beyond / dist.mean + 1.0) + 8, beyond)


def _instant_matrix(dist: SwitchingTimeDistribution, n: int, beyond: float, rng: RngStream) -> np.ndarray:
    """(n, m) cumulative switch instants per path, covering [0, beyond], drawn
    flat and reshaped row-major; each draw is counted first (``_columns``)."""
    m0 = _first_columns(dist, n, beyond)
    cums = np.cumsum(dist.draw(rng, n * m0).reshape(n, m0), axis=1)
    while float(cums[:, -1].min()) <= beyond:
        _columns(n, cums.shape[1] + 8, beyond)
        extra = np.cumsum(dist.draw(rng, n * 8).reshape(n, 8), axis=1)
        cums = np.concatenate([cums, cums[:, -1:] + extra], axis=1)
    return cums


def _stationary_start(dist: SwitchingTimeDistribution, n: int, rng: RngStream):
    """Per-path start of the stationary path, drawn in this order: the
    size-biased interval covering the origin, the forward delay A uniform on
    it (the joint delay density is constant on a + b = s), the sign delta."""
    return dist.size_biased_draw(rng, n) * rng.uniform01(n), np.where(rng.uniform01(n) < 0.5, 1.0, -1.0)


def _ensemble(dist: SwitchingTimeDistribution, times, n: int, rng: RngStream, stationary: bool):
    """The states of n paths at each of ``times``, one (n,) array per time.

    A path is -delta on [0, A), then delta, flipped at each instant
    A + cums strictly before t: A = 0 and delta = +1 for the
    origin-attached path, ``_stationary_start`` for the stationary one.
    Needs n >= 2 (for a standard error) and no time before 0."""
    times = np.asarray(times, dtype=float)
    if n < 2:
        raise ValueError(f"need at least 2 paths for a standard error, got n={n}")
    if not np.all(times >= 0.0):
        raise ValueError(f"paths are simulated for t >= 0 only, got t={np.min(times):g}")
    _first_columns(dist, n, float(times.max()))  # refuses before any draw
    a, delta = _stationary_start(dist, n, rng) if stationary else (np.zeros(n), np.ones(n))
    cums = _instant_matrix(dist, n, float(times.max()), rng)
    for t in times:
        flips = (cums < (t - a)[:, None]).sum(axis=1)
        yield np.where(t < a, -delta, delta * np.where(flips % 2 == 0, 1.0, -1.0))


def _mean_se(x: np.ndarray):
    return x.mean(), x.std(ddof=1) / math.sqrt(x.size)


def estimate_expectation(dist: SwitchingTimeDistribution, grid, n: int, rng: RngStream):
    """Ensemble estimate of E(t) for the origin-attached path (A = 0,
    delta = +1).

    Returns (E_hat, SE) arrays over the grid; n must be at least 2.
    """
    return tuple(np.array([_mean_se(st) for st in _ensemble(dist, grid, n, rng, False)]).reshape(-1, 2).T)


def estimate_stationary_covariance(dist: SwitchingTimeDistribution, grid, n: int, rng: RngStream):
    """Ensemble estimates for the stationary path.

    Returns (E_hat, E_se, R_hat, R_se) where E_hat is the mean state at
    each grid time t and R_hat the covariance between the states at 0 and
    at t; n must be at least 2.
    """
    paths = _ensemble(dist, np.append(0.0, grid), n, rng, True)
    s0 = next(paths)
    rows = []
    for st in paths:
        (e, e_se), (prod_mean, r_se) = _mean_se(st), _mean_se(s0 * st)
        rows.append((e, e_se, prod_mean - s0.mean() * e, r_se))
    return tuple(np.array(rows).reshape(-1, 4).T)
