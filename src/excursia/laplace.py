"""Numerical Laplace transform of the divisor survival and pole search, and
the exceedance survival from its renewal equation (``iia_survival``).

The transform  L(s) = int_0^inf E0(t) e^{-st} dt  is a fixed composite
Gauss-Legendre rule on [0, t_max] (geometric panels graded toward t = 0,
where e^{-st} peaks at large s; E0 evaluated once per evaluator, so each
L(s) is one dot product) plus the tail past t_max, in the form of the
tail class the validity gate measured (``slepian.cached_validity``).  A
lower-order rule on the same panels gives the error estimate; above
REL_TOL it raises QuadratureError.

Every tail but a power law gets an exponential completion, because bare
truncation biases the transform exactly at the negative s values where
persistency poles live: log E0 continued along its last truncation step,
t_max/1.25 to t_max (TailFitError if E0 does not decay over it), with a
closed-form integral.  A power tail is E0 itself, summed on the panels
after t = t_max/u up to t_first = t_max/PANEL_START; past t_first the
matching identity d/dt R = -(2/mu) E0 (R = ``clipped_autocovariance``)
gives its mass (mu/2) R(t_first), added at s = 0 and a bound,
mass e^{-s t_first}, in the error estimate at s > 0.  The renewal solver
takes its cell means of E0 from the same identity.

From the transform:

* divisor transform        Psi_div(s) = 1 - s L(s)  (integration by parts),
* exceedance transform     Psi_exc(s) = (1 - s L(s)) / (1 + s L(s)),

and the persistency pole is the root of h(s) = 1 + s L(s) = 0,
equivalently Psi_div(s) = 2.  When E0 is a survival, Psi_div(s) = E[e^{-sX}]
is strictly decreasing in real s, so h = 2 - Psi_div is strictly increasing:
h has at most one real root, and since |Psi_div(sigma + i w)| <= Psi_div(sigma)
no complex root lies to its right (the adjustment-coefficient argument,
Feller 1971, Vol. II, XI.6).  The root is bracketed by h at the two ends of
the admissible interval and refined by safeguarded Newton steps, which use
h'(s) = L(s) + s L'(s), where L'(s) = -int_0^inf t E0(t) e^{-st} dt is one
more sum over the same nodes plus the derivative of the tail completion.
At the root, h'(-theta) gives the residue of the survival transform
2 L(s)/h(s) of the exceedance time, so P(T > t) ~ C e^{-theta t} with
C = 2/(theta h'(-theta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import slepian
from .covariance import CovarianceModel, clipped_autocovariance
from .persistency import ExponentEstimate
from .slepian import NumericalFailure, ValidityError

__all__ = [
    "DivergenceError",
    "PoleNotFoundError",
    "QuadratureError",
    "TailFitError",
    "TailCompletion",
    "LaplaceEvaluator",
    "laplace_e0",
    "find_pole",
    "iia_survival",
]

# Truncate where the survival drops below this (or at the grid cap for
# power tails, which are summed on past it).
TRUNCATION_THRESHOLD = 1e-15
T_CAP = 1000.0
# Largest relative quadrature error estimate of a transform value: of the
# rule when an evaluator is built, of a power tail per value.
REL_TOL = 1e-12
# Fraction of the convergence boundary the pole bracket keeps away from
# it; the transform diverges at the boundary itself.
BOUNDARY_MARGIN = 0.95
# Composite Gauss-Legendre rule: panel edges t_max * (0, geomspace(
# PANEL_START, 1, PANELS)); CHECK_ORDER nodes per panel give the estimate.
PANELS = 48
PANEL_START = 1e-9
ORDER = 24
CHECK_ORDER = 16
# The pole search stops once a Newton step is below (XTOL + RTOL |s|)/2,
# the bound scipy's brentq puts on its bracket for these xtol and rtol,
# and gives up after MAX_POLE_STEPS steps.
XTOL = 1e-14
RTOL = 8.9e-16
MAX_POLE_STEPS = 100
# The exceedance survival is solved on cells of mu/SURVIVAL_STEPS_PER_MEAN and twice
# that, to SURVIVAL_MAX_STEPS fine cells (64 mu).
SURVIVAL_STEPS_PER_MEAN = 512
SURVIVAL_MAX_STEPS = 2**15


class DivergenceError(NumericalFailure, ValueError):
    """Transform requested at or below its convergence boundary."""

    def __init__(self, s: float, boundary: float):
        self.s = s
        self.boundary = boundary
        super().__init__(
            f"Laplace transform diverges at s={s:g}: it converges only for s > {boundary:g}"
        )


class PoleNotFoundError(NumericalFailure):
    """No sign change of 1 + s L(s) inside the admissible bracket."""

    def __init__(self, lo, hi, h_lo, h_hi):
        self.bracket = (lo, hi)
        self.h_values = (h_lo, h_hi)
        super().__init__(
            f"no real pole: h({lo:g})={h_lo:g}, h({hi:g})={h_hi:g} do not change sign "
            "(h increases for a survival E0, so any pole lies at or beyond the boundary margin)"
        )


class QuadratureError(NumericalFailure):
    """Quadrature error estimate of the transform exceeds REL_TOL."""


class TailFitError(NumericalFailure):
    """The survival does not decay over the last truncation step."""


@dataclass(frozen=True)
class TailCompletion:
    """Exponential extension of the survival beyond t_max:
    log E0 ~ intercept + slope * t  (slope < 0)."""

    intercept: float
    slope: float

    def remainder(self, s: float, t_max: float) -> float:
        """int_{t_max}^inf (completed tail)(t) e^{-st} dt, in closed form."""
        return math.exp(self.intercept + (self.slope - s) * t_max) / (s - self.slope)


@lru_cache(maxsize=None)
def _unit_rule(order: int):
    """Nodes and weights of the composite rule on [0, 1], built on first use."""
    edges = np.concatenate([[0.0], np.geomspace(PANEL_START, 1.0, PANELS)])
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


@lru_cache(maxsize=None)
def _tail_rule(order: int):
    """The panels of the composite rule from PANEL_START on, mapped by
    u -> 1/u onto [1, 1/PANEL_START]: nodes 1/u, weights w/u^2."""
    u, w = (a[order:] for a in _unit_rule(order))
    return 1.0 / u, w / u**2


@lru_cache(maxsize=None)
def _ladder(t_cap: float) -> np.ndarray:
    """The truncation candidates 1.25^k, k = -40, -39, ..., below ``t_cap``:
    from about 1.3e-4, so a survival already below TRUNCATION_THRESHOLD at
    t = 1 truncates inside its decay.  Read-only: the survival is called on
    the cached array itself."""
    ts = 1.25 ** np.arange(-40.0, math.ceil(math.log(t_cap) / math.log(1.25)) + 1)
    ts = ts[ts < t_cap]
    ts.flags.writeable = False
    return ts


def _rule_terms(weighted: np.ndarray, order: int, s: float, t_max: float) -> np.ndarray:
    return weighted * np.exp((-s * t_max) * _unit_rule(order)[0])


class LaplaceEvaluator:
    """Transform of one survival function with truncation + tail.

    Keeps the weighted survival values on the shared unit nodes scaled by
    t_max, and ``abserr``, the quadrature error estimate on [0, t_max].
    The survival is called once, on the nodes of both rules.  Past t_max
    it is continued by ``completion``; without one, it is summed on both
    tail rules to t_first = t_max/PANEL_START, and ``tail_integral(t_first)``,
    its integral from t_first on, gives the rest.
    """

    def __init__(self, survival: Callable, t_max: float, completion: TailCompletion | None = None, tail_integral: Callable | None = None):
        self.t_max = float(t_max)
        self.completion = completion
        (u, w), (u_low, w_low) = _unit_rule(ORDER), _unit_rule(CHECK_ORDER)
        values = np.asarray(survival(self.t_max * np.concatenate([u, u_low])), dtype=float)
        self._weighted = self.t_max * w * values[: u.size]
        self.abserr = self._certify(self.t_max * w_low * values[u.size :])
        if completion is None:
            self.t_first = self.t_max / PANEL_START
            self._tail_mass = float(tail_integral(self.t_first))
            self._tail = [self.t_max * wv * np.asarray(survival(self.t_max * v), dtype=float) for v, wv in map(_tail_rule, (ORDER, CHECK_ORDER))]

    def _certify(self, check: np.ndarray) -> float:
        """Largest |main - lower-order| + round-off floor at s = 0 and at the
        pole bracket's far end; raises QuadratureError above REL_TOL * |main|."""
        points = [0.0]
        if self.completion is not None:
            points.append(BOUNDARY_MARGIN * self.completion.slope)
        abserr = 0.0
        for s in points:
            terms = _rule_terms(self._weighted, ORDER, s, self.t_max)
            main = float(terms.sum())
            low = float(_rule_terms(check, CHECK_ORDER, s, self.t_max).sum())
            err = abs(main - low) + np.finfo(float).eps * float(np.abs(terms).sum())
            if not err <= REL_TOL * abs(main):
                raise QuadratureError(
                    f"quadrature error estimate {err:.3g} at s={s:g} exceeds REL_TOL * |L| = {REL_TOL * abs(main):.3g}"
                )
            abserr = max(abserr, err)
        return abserr

    # -- construction -----------------------------------------------------

    @classmethod
    def for_survival(cls, survival: Callable) -> "LaplaceEvaluator":
        """Evaluator for a vectorised survival: ``survival(ts)`` must map an
        array of times to an array of the same shape.  It is truncated at
        ``_find_t_max`` and continued past it by ``_fit_tail``."""
        t_max = cls._find_t_max(survival)
        return cls(survival, t_max, cls._fit_tail(survival, t_max))

    @classmethod
    def for_model(cls, model: CovarianceModel) -> "LaplaceEvaluator":
        """Evaluator for E0 of a model the validity gate finds usable
        (``slepian.require_usable``; ValidityError otherwise): E0 itself
        and the matching identity for a tail the gate classes as a power
        law, the exponential completion for every other class (and for an
        unclassified tail)."""
        tail_class = slepian.require_usable(model).tail_class
        survival = partial(slepian.e0, model)
        if tail_class is None or tail_class.kind != "power_law":
            return cls.for_survival(survival)
        half_mean = 0.5 * slepian.mean_excursion(model)
        return cls(survival, cls._find_t_max(survival), tail_integral=lambda t: half_mean * clipped_autocovariance(model, t))

    @staticmethod
    def _find_t_max(survival):
        """First node of the ladder 1.25^-40, 1.25^-39, ... below T_CAP where
        the survival is non-finite or below TRUNCATION_THRESHOLD, else T_CAP."""
        ts = _ladder(T_CAP)
        vals = np.asarray(survival(ts), dtype=float)
        stop = np.flatnonzero(~np.isfinite(vals) | (vals < TRUNCATION_THRESHOLD))
        return float(ts[stop[0]]) if stop.size else T_CAP

    @staticmethod
    def _fit_tail(survival, t_max):
        """The line through log E0 at t_max/1.25 and t_max, the last ladder
        step: it equals E0 at t_max.  TailFitError unless
        E0(t_max/1.25) > E0(t_max) > 0."""
        ts = np.array([t_max / 1.25, t_max])
        vals = np.asarray(survival(ts), dtype=float)
        if not vals[0] > vals[1] > 0.0:
            raise TailFitError(f"survival does not decay over [{ts[0]:g}, {ts[1]:g}] to a positive value; cannot build a transform")
        (x0, x1), (y0, y1) = ts, np.log(vals)
        slope = float((y1 - y0) / (x1 - x0))
        return TailCompletion(float(y1 - slope * x1), slope)

    # -- evaluation --------------------------------------------------------

    def transform(self, s: float) -> float:
        """L(s) = fixed-node quadrature on [0, t_max] + tail.

        A tail without a completion is summed on to t_first, plus its mass
        past t_first at s = 0; at s > 0 the gap to the lower-order rule
        plus mass e^{-s t_first} above REL_TOL * |L| raises QuadratureError.
        """
        s = float(s)
        if self.completion is None:
            if not s >= 0.0:
                raise DivergenceError(s, 0.0)
        elif not s > self.completion.slope:
            raise DivergenceError(s, self.completion.slope)
        quadrature = float(_rule_terms(self._weighted, ORDER, s, self.t_max).sum())
        if self.completion is not None:
            return quadrature + self.completion.remainder(s, self.t_max)
        main, low = (float(w @ np.exp((-s * self.t_max) * _tail_rule(order)[0])) for w, order in zip(self._tail, (ORDER, CHECK_ORDER)))
        value = quadrature + main + (self._tail_mass if s == 0.0 else 0.0)
        err = abs(main - low) + (0.0 if s == 0.0 else self._tail_mass * math.exp(-s * self.t_first))
        if not err <= REL_TOL * abs(value):
            raise QuadratureError(
                f"tail error estimate {err:.3g} at s={s:g} exceeds REL_TOL * |L| = {REL_TOL * abs(value):.3g}"
            )
        return value

    def _slope(self, s: float) -> float:
        """L'(s) for the exponential completion: the fixed-node sum of
        -t E0(t) e^{-st} plus R'(s) = -R(s) (t_max + 1/(s - slope)), the
        derivative of the remainder R(s) = e^{intercept + (slope - s) t_max}/(s - slope)."""
        terms = _rule_terms(self._weighted, ORDER, s, self.t_max)
        rem = self.completion.remainder(s, self.t_max)
        return -self.t_max * float(terms @ _unit_rule(ORDER)[0]) - rem * (self.t_max + 1.0 / (s - self.completion.slope))

    # -- pole search --------------------------------------------------------

    def find_pole(self) -> ExponentEstimate:
        """The real root of h(s) = 1 + s L(s) in the admissible interval.

        h is strictly increasing when E0 is a survival, so the root is
        unique and dominant: it is bracketed by the interval's ends,
        -BOUNDARY_MARGIN times the decay rate and -1e-7 times it.  Newton
        steps refine it from the upper end.  They are taken on
        g(s) = (s - b) h(s), with g' = h + (s - b) h' and
        h'(s) = L(s) + s L'(s): g has the root and the sign of h on the
        bracket, but not the simple pole that the tail remainder puts at
        the boundary b.  It is close to linear there: for diffusion
        d = 1..64 and the Matern models the search takes 6-8 evaluations of
        h in all, against 8-12 for Newton steps on h itself.  Every
        evaluated point replaces the end of the bracket with the same sign
        of h, and a step that leaves the bracket is replaced by bisection.
        The search stops when a Newton step is below (XTOL + RTOL |s|)/2.  One more evaluation at the root gives the
        residual |h| and the residue prefactor 2/(theta h'(-theta));
        ``h_evals`` counts every evaluation of h, the two bracket ends
        included.
        """
        if self.completion is None:
            raise PoleNotFoundError(0.0, 0.0, math.nan, math.nan)
        rate = -self.completion.slope
        lo = -BOUNDARY_MARGIN * rate
        hi = -1e-7 * rate
        h_lo = 1.0 + lo * self.transform(lo)
        L = self.transform(hi)
        h_hi = 1.0 + hi * L
        if not h_hi > 0.0 >= h_lo:
            raise PoleNotFoundError(lo, hi, h_lo, h_hi)
        a, b = lo, hi
        s, h, evals = hi, h_hi, 2
        for _ in range(MAX_POLE_STEPS):
            gap = s - self.completion.slope
            step = gap * h / (h + gap * (L + s * self._slope(s)))
            if abs(step) <= 0.5 * (XTOL + RTOL * abs(s)):
                s -= step
                break
            s = s - step if a < s - step < b else 0.5 * (a + b)
            L = self.transform(s)
            h = 1.0 + s * L
            evals += 1
            if h == 0.0:
                break
            if h > 0.0:
                b = s
            else:
                a = s
        else:
            raise NumericalFailure(f"pole search did not converge in {MAX_POLE_STEPS} steps; last bracket ({a!r}, {b!r})")
        L = self.transform(s)
        theta = -s
        dL = self._slope(s)
        return ExponentEstimate(
            theta=theta,
            method="pole",
            bracket=(lo, hi),
            residual=abs(1.0 + s * L),
            boundary=float(self.completion.slope),
            boundary_margin=BOUNDARY_MARGIN,
            quad_abserr=self.abserr,
            prefactor=2.0 / (theta * (L + s * dL)),
            h_evals=evals + 1,
        )


# ---------------------------------------------------------------------------
# model-level convenience surface (evaluators cached per model)


@lru_cache(maxsize=64)
def _evaluator(model: CovarianceModel) -> LaplaceEvaluator:
    return LaplaceEvaluator.for_model(model)


def laplace_e0(model: CovarianceModel, s: float) -> float:
    """L E0(s) for a catalog model the validity gate finds usable."""
    return _evaluator(model).transform(s)


def find_pole(model: CovarianceModel) -> ExponentEstimate:
    """Pole-based persistency exponent for a validated model.

    Refuses models whose validity verdict is not plain "valid" (the pole
    bracket needs an exponentially decaying divisor).
    """
    report = slepian.cached_validity(model)
    if report.verdict != "valid":
        raise ValidityError(report, f"pole search requires a valid model, got verdict={report.verdict}")
    return _evaluator(model).find_pole()


def _renewal_nodes(model: CovarianceModel, h: float, n: int) -> np.ndarray:
    """S(k h), k = 0..n, for S linear on each cell [t_j, t_j+1] of the
    renewal equation S(t) = E0(t) + 1/2 int_0^t f(u) S(t - u) du.  The
    moments of f = -E0' on cell j are E0(t_j) - E0(t_j+1) and, about t_j
    and in units of h, the cell mean of E0 less E0(t_j+1).  The matching
    identity int_t^inf E0 = (mu/2) R(t) gives that mean as
    (mu/2h) (R(t_j) - R(t_j+1)), R the clipped covariance."""
    edges = h * np.arange(n + 2.0)
    e = slepian.e0(model, edges)
    m1 = (0.5 * slepian.mean_excursion(model) / h) * -np.diff(clipped_autocovariance(model, edges)) - e[1:]
    a = e[:-1] - e[1:] - m1  # cell j weighs S(t_k - t_j) by a_j, S(t_k - t_j+1) by m1_j
    # S_k (1 - a_0/2) = E0_k + (sum_{j=1}^{k} (a_j + m1_{j-1}) S_{k-j} - a_k)/2
    c = (a[1 : n + 1] + m1[:n])[::-1].copy()
    s = np.ones(n + 1)
    for k in range(1, n + 1):
        s[k] = (e[k] + 0.5 * (c[n - k :] @ s[:k] - a[k])) / (1.0 - 0.5 * a[0])
    return s


def iia_survival(model: CovarianceModel, t) -> tuple[np.ndarray, np.ndarray]:
    """P(T > t) of the exceedance time T = T_1 + B T' (B ~ Bernoulli(1/2),
    T' a copy of T) at the times ``t``, and an error estimate: S solved at
    steps h = mu/SURVIVAL_STEPS_PER_MEAN and 2h and extrapolated,
    (4 S_h - S_2h)/3, on the 2h grid, between nodes the quintic through the
    six nearest; ``err`` is the largest |S_h - S_2h|/3 on those six.  Times
    outside [0, SURVIVAL_MAX_STEPS h] are a ValueError before any work."""
    t = np.asarray(t, dtype=float)
    h = slepian.mean_excursion(model) / SURVIVAL_STEPS_PER_MEAN
    ceiling = SURVIVAL_MAX_STEPS * h
    if not (t.min(initial=0.0) >= 0.0 and t.max(initial=0.0) <= ceiling):
        raise ValueError(f"the exceedance survival is solved for 0 <= t <= {ceiling:g}, {SURVIVAL_MAX_STEPS // SURVIVAL_STEPS_PER_MEAN} mean excursions")
    slepian.require_usable(model)
    x = t.ravel() / (2.0 * h)
    start = np.maximum(np.floor(x).astype(np.int64) - 2, 0)
    n = int(start.max(initial=0)) + 5
    fine, coarse = _renewal_nodes(model, h, 2 * n)[::2], _renewal_nodes(model, 2.0 * h, n)
    ext, gap = (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse) / 3.0
    x -= start
    S, err = np.zeros(x.size), np.zeros(x.size)
    for k in range(6):  # node start + k, with its Lagrange weight at x
        S += math.prod((x - j) / (k - j) for j in range(6) if j != k) * ext[start + k]
        err = np.maximum(err, gap[start + k])
    return S.reshape(t.shape), err.reshape(t.shape)
