"""Numerical Laplace transform of the divisor survival and pole search.

The transform  L(s) = int_0^inf E0(t) e^{-st} dt  is a fixed composite
Gauss-Legendre rule on [0, t_max] (geometric panels graded toward t = 0,
where e^{-st} peaks at large s; E0 evaluated once per evaluator, so each
L(s) is one dot product) plus an analytic completion of the truncated
tail, because bare truncation biases the transform exactly at the negative
s values where persistency poles live.  A lower-order rule on the same
panels gives the error estimate; above REL_TOL it raises QuadratureError.
The completion continues log E0 along its last truncation step, from
t_max/1.25 to t_max, so it meets E0 at t_max; a survival that does not
decay over that step raises TailFitError.
The completion's form follows the tail class the validity gate measured
(``slepian.cached_validity``): log-log for a power law, exponential for
every other class.  Its integral is in closed form, except for a power
tail at s > 0, which goes on the same composite rule after t = t_max/u.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from . import slepian
from .covariance import CovarianceModel
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
]

# Truncate where the survival drops below this (or at the grid cap for
# power tails, where the analytic completion carries the remainder).
TRUNCATION_THRESHOLD = 1e-15
T_CAP = 1000.0
# Largest relative quadrature error estimate of a transform value: of the
# rule when an evaluator is built, of a power-tail remainder per value.
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
    """Analytic extension of the survival beyond t_max.

    exponential: log E0 ~ intercept + slope * t   (slope < 0)
    power:       log E0 ~ intercept + slope * ln t
    """

    kind: str
    intercept: float
    slope: float

    def remainder(self, s: float, t_max: float) -> tuple[float, float]:
        """int_{t_max}^inf (completed tail)(t) e^{-st} dt and its absolute error
        estimate: 0 for the closed forms.  A power tail at s > 0 is summed
        on the composite rule after t = t_max/u (dt = t du/u); its estimate
        is the gap to the lower-order rule plus a bound on the tail beyond
        t_first = t_max/PANEL_START, the start of the first panel:
        e^a t_first^b e^{-s t_first}/s for the decaying tail (b < 0).  The
        gap does not check that panel: where e^{-st} cuts off inside it,
        both rules can miss it alike."""
        if self.kind == "exponential":
            return math.exp(self.intercept + (self.slope - s) * t_max) / (s - self.slope), 0.0
        if s == 0.0:
            return math.exp(self.intercept) * t_max ** (self.slope + 1.0) / (-self.slope - 1.0), 0.0
        main, low = (
            float((w / u) @ np.exp(self.intercept + (self.slope + 1.0) * np.log(t_max / u) - s * t_max / u))
            for u, w in (_unit_rule(ORDER), _unit_rule(CHECK_ORDER))
        )
        t_first = t_max / PANEL_START
        return main, abs(main - low) + math.exp(self.intercept + self.slope * math.log(t_first) - s * t_first) / s


@lru_cache(maxsize=None)
def _unit_rule(order: int):
    """Nodes and weights of the composite rule on [0, 1], built on first use."""
    edges = np.concatenate([[0.0], np.geomspace(PANEL_START, 1.0, PANELS)])
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


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
    """Transform of one survival function with truncation + tail completion.

    Keeps the weighted survival values on the shared unit nodes scaled by
    t_max, and ``abserr``, the quadrature error estimate.  The survival is
    called once, on the nodes of both rules.
    """

    def __init__(self, survival: Callable, t_max: float, completion: TailCompletion):
        self.t_max = float(t_max)
        self.completion = completion
        (u, w), (u_low, w_low) = _unit_rule(ORDER), _unit_rule(CHECK_ORDER)
        values = np.asarray(survival(self.t_max * np.concatenate([u, u_low])), dtype=float)
        self._weighted = self.t_max * w * values[: u.size]
        self.abserr = self._certify(self.t_max * w_low * values[u.size :])

    def _certify(self, check: np.ndarray) -> float:
        """Largest |main - lower-order| + round-off floor at s = 0 and at the
        pole bracket's far end; raises QuadratureError above REL_TOL * |main|."""
        points = [0.0]
        if self.completion.kind == "exponential":
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
    def for_survival(cls, survival: Callable, tail_kind: str = "exponential") -> "LaplaceEvaluator":
        """Evaluator for a vectorised survival: ``survival(ts)`` must map an
        array of times to an array of the same shape.  It is truncated at
        ``_find_t_max`` and continued past it by ``_fit_tail`` in the form
        ``tail_kind`` ("exponential" or "power")."""
        t_max = cls._find_t_max(survival)
        completion = cls._fit_tail(survival, t_max, tail_kind)
        return cls(survival, t_max, completion)

    @classmethod
    def for_model(cls, model: CovarianceModel) -> "LaplaceEvaluator":
        """Evaluator for E0 of a model the validity gate finds usable
        (``slepian.require_usable``; ValidityError otherwise), completed in
        the form of the gate's tail class: log-log for a power law,
        exponential for every other class (and for an unclassified tail)."""
        tail_class = slepian.require_usable(model).tail_class
        tail_kind = "power" if tail_class is not None and tail_class.kind == "power_law" else "exponential"
        return cls.for_survival(lambda t: slepian.e0(model, t), tail_kind=tail_kind)

    @staticmethod
    def _find_t_max(survival):
        """First node of the ladder 1.25^-40, 1.25^-39, ... below T_CAP where
        the survival is non-finite or below TRUNCATION_THRESHOLD, else T_CAP."""
        ts = _ladder(T_CAP)
        vals = np.asarray(survival(ts), dtype=float)
        stop = np.flatnonzero(~np.isfinite(vals) | (vals < TRUNCATION_THRESHOLD))
        return float(ts[stop[0]]) if stop.size else T_CAP

    @staticmethod
    def _fit_tail(survival, t_max, tail_kind):
        """The line through log E0 at t_max/1.25 and t_max, the last ladder
        step (against ln t for a power tail, t otherwise): it equals E0 at
        t_max.  TailFitError unless E0(t_max/1.25) > E0(t_max) > 0."""
        if tail_kind not in ("exponential", "power"):
            raise ValueError(f"tail_kind must be 'exponential' or 'power', got {tail_kind!r}")
        ts = np.array([t_max / 1.25, t_max])
        vals = np.asarray(survival(ts), dtype=float)
        if not vals[0] > vals[1] > 0.0:
            raise TailFitError(f"survival does not decay over [{ts[0]:g}, {ts[1]:g}] to a positive value; cannot build a transform")
        (x0, x1), (y0, y1) = np.log(ts) if tail_kind == "power" else ts, np.log(vals)
        slope = float((y1 - y0) / (x1 - x0))
        return TailCompletion(tail_kind, float(y1 - slope * x1), slope)

    # -- evaluation --------------------------------------------------------

    def _check_domain(self, s: float):
        if self.completion.kind == "exponential":
            if s <= self.completion.slope:
                raise DivergenceError(s, self.completion.slope)
        else:
            if s < 0.0 or (s == 0.0 and self.completion.slope >= -1.0):
                raise DivergenceError(s, 0.0)

    def transform(self, s: float) -> float:
        """L(s) = fixed-node quadrature on [0, t_max] + tail remainder.

        The remainder of a power tail at s > 0 is summed on the same
        composite rule; its error estimate above REL_TOL * |L| raises
        QuadratureError.
        """
        s = float(s)
        self._check_domain(s)
        quadrature = float(_rule_terms(self._weighted, ORDER, s, self.t_max).sum())
        rem, err = self.completion.remainder(s, self.t_max)
        value = quadrature + rem
        if not err <= REL_TOL * abs(value):
            raise QuadratureError(
                f"tail remainder error estimate {err:.3g} at s={s:g} exceeds REL_TOL * |L| = {REL_TOL * abs(value):.3g}"
            )
        return value

    def _slope(self, s: float) -> float:
        """L'(s) for the exponential completion: the fixed-node sum of
        -t E0(t) e^{-st} plus R'(s) = -R(s) (t_max + 1/(s - slope)), the
        derivative of the remainder R(s) = e^{intercept + (slope - s) t_max}/(s - slope)."""
        terms = _rule_terms(self._weighted, ORDER, s, self.t_max)
        rem, _ = self.completion.remainder(s, self.t_max)
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
        if self.completion.kind != "exponential":
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
