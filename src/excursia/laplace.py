"""Numerical Laplace transform of the divisor survival and pole search.

The transform  L(s) = int_0^inf E0(t) e^{-st} dt  is a fixed composite
Gauss-Legendre rule on [0, t_max] (geometric panels graded toward t = 0,
where e^{-st} peaks at large s; E0 evaluated once per evaluator, so each
L(s) is one dot product) plus an analytic completion of the truncated
tail, because bare truncation biases the transform exactly at the negative
s values where persistency poles live.  A lower-order rule on the same
panels gives the error estimate; above rel_tol it raises QuadratureError.
The completion parameters are fitted to log E0 over the final decade
before t_max.  Its form follows the tail class the validity gate measured
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
from .slepian import ValidityError

__all__ = [
    "DivergenceError",
    "AtPoleError",
    "PoleNotFoundError",
    "QuadratureError",
    "TailCompletion",
    "LaplaceEvaluator",
    "laplace_e0",
    "find_pole",
]

# Truncate where the survival drops below this (or at the grid cap for
# power tails, where the analytic completion carries the remainder).
TRUNCATION_THRESHOLD = 1e-15
T_CAP = 1000.0
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


class DivergenceError(ValueError):
    """Transform requested at or below its convergence boundary."""

    def __init__(self, s: float, boundary: float):
        self.s = s
        self.boundary = boundary
        super().__init__(
            f"Laplace transform diverges at s={s:g}: it converges only for s > {boundary:g}"
        )


class AtPoleError(ZeroDivisionError):
    """Exceedance transform evaluated at (numerically) a pole."""


class PoleNotFoundError(RuntimeError):
    """No sign change of 1 + s L(s) inside the admissible bracket."""

    def __init__(self, lo, hi, h_lo, h_hi):
        self.bracket = (lo, hi)
        self.h_values = (h_lo, h_hi)
        super().__init__(
            f"no real pole: h({lo:g})={h_lo:g}, h({hi:g})={h_hi:g} do not change sign "
            "(h increases for a survival E0, so any pole lies at or beyond the boundary margin)"
        )


class QuadratureError(RuntimeError):
    """Quadrature error estimate of the transform exceeds rel_tol."""


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
        """int_{t_max}^inf (fitted tail)(t) e^{-st} dt and its absolute error
        estimate: 0 for the closed forms.  A power tail at s > 0 is summed
        on the composite rule after t = t_max/u (dt = t du/u); its estimate
        is the gap to the lower-order rule plus a bound on the tail beyond
        that rule's last node t_last, which the gap does not check:
        e^a t_last^b e^{-s t_last}/s for the decaying fit (b < 0)."""
        if self.kind == "exponential":
            return math.exp(self.intercept + (self.slope - s) * t_max) / (s - self.slope), 0.0
        if s == 0.0:
            return math.exp(self.intercept) * t_max ** (self.slope + 1.0) / (-self.slope - 1.0), 0.0
        main, low = (
            float((w / u) @ np.exp(self.intercept + (self.slope + 1.0) * np.log(t_max / u) - s * t_max / u))
            for u, w in (_unit_rule(ORDER), _unit_rule(CHECK_ORDER))
        )
        t_last = t_max / _unit_rule(CHECK_ORDER)[0][0]
        return main, abs(main - low) + math.exp(self.intercept + self.slope * math.log(t_last) - s * t_last) / s


@lru_cache(maxsize=None)
def _unit_rule(order: int):
    """Nodes and weights of the composite rule on [0, 1], built on first use."""
    edges = np.concatenate([[0.0], np.geomspace(PANEL_START, 1.0, PANELS)])
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def _weighted_values(survival, t_max: float, order: int) -> np.ndarray:
    nodes, weights = _unit_rule(order)
    return t_max * weights * np.asarray(survival(t_max * nodes), dtype=float)


def _rule_terms(weighted: np.ndarray, order: int, s: float, t_max: float) -> np.ndarray:
    return weighted * np.exp((-s * t_max) * _unit_rule(order)[0])


class LaplaceEvaluator:
    """Transform of one survival function with truncation + tail completion.

    Keeps the weighted survival values on the shared unit nodes scaled by
    t_max, and ``abserr``, the quadrature error estimate.
    """

    def __init__(
        self,
        survival: Callable,
        t_max: float,
        completion: TailCompletion,
        rel_tol: float = 1e-9,
    ):
        self.t_max = float(t_max)
        self.completion = completion
        self.rel_tol = float(rel_tol)
        self._weighted = _weighted_values(survival, self.t_max, ORDER)
        self.abserr = self._certify(_weighted_values(survival, self.t_max, CHECK_ORDER))

    def _certify(self, check: np.ndarray) -> float:
        """Largest |main - lower-order| + round-off floor at s = 0 and at the
        pole bracket's far end; raises QuadratureError above rel_tol * |main|."""
        points = [0.0]
        if self.completion.kind == "exponential":
            points.append(BOUNDARY_MARGIN * self.completion.slope)
        abserr = 0.0
        for s in points:
            terms = _rule_terms(self._weighted, ORDER, s, self.t_max)
            main = float(terms.sum())
            low = float(_rule_terms(check, CHECK_ORDER, s, self.t_max).sum())
            err = abs(main - low) + np.finfo(float).eps * float(np.abs(terms).sum())
            if not err <= self.rel_tol * abs(main):
                raise QuadratureError(
                    f"quadrature error estimate {err:.3g} at s={s:g} exceeds rel_tol * |L| = {self.rel_tol * abs(main):.3g}"
                )
            abserr = max(abserr, err)
        return abserr

    # -- construction -----------------------------------------------------

    @classmethod
    def for_survival(
        cls,
        survival: Callable,
        rel_tol: float = 1e-9,
        tail_kind: str = "exponential",
        t_cap: float = T_CAP,
    ) -> "LaplaceEvaluator":
        """Evaluator for a vectorised survival: ``survival(ts)`` must map an
        array of times to an array of the same shape.  ``tail_kind``
        ("exponential" or "power") is the form of the tail completion."""
        t_max = cls._find_t_max(survival, t_cap)
        completion = cls._fit_tail(survival, t_max, tail_kind)
        return cls(survival, t_max, completion, rel_tol=rel_tol)

    @classmethod
    def for_model(cls, model: CovarianceModel, rel_tol: float = 1e-9, t_cap: float = T_CAP) -> "LaplaceEvaluator":
        """Evaluator for E0 of ``model``, completed in the form of the
        validity gate's tail class: log-log for a power law, exponential
        for every other class (and for an unclassified tail)."""
        tail_class = slepian.cached_validity(model).tail_class
        tail_kind = "power" if tail_class is not None and tail_class.kind == "power_law" else "exponential"
        return cls.for_survival(
            lambda t: slepian.e0(model, t),
            rel_tol=rel_tol,
            tail_kind=tail_kind,
            t_cap=t_cap,
        )

    @staticmethod
    def _find_t_max(survival, t_cap):
        """First node of the ladder 1, 1.25, 1.25^2, ... below t_cap where the
        survival is non-finite or below TRUNCATION_THRESHOLD, else t_cap."""
        steps = max(0, math.ceil(math.log(t_cap) / math.log(1.25))) + 1
        ts = np.cumprod(np.concatenate([[1.0], np.full(steps, 1.25)]))
        ts = ts[ts < t_cap]
        vals = np.asarray(survival(ts), dtype=float)
        stop = np.flatnonzero(~np.isfinite(vals) | (vals < TRUNCATION_THRESHOLD))
        return float(ts[stop[0]]) if stop.size else t_cap

    @staticmethod
    def _fit_tail(survival, t_max, tail_kind):
        if tail_kind not in ("exponential", "power"):
            raise ValueError(f"tail_kind must be 'exponential' or 'power', got {tail_kind!r}")
        ts = np.linspace(t_max / 10.0, t_max, 200)
        vals = np.asarray(survival(ts), dtype=float)
        good = vals > 0
        ts, vals = ts[good], vals[good]
        if ts.size < 20:
            raise ValueError("too few positive survival values to fit a tail completion")
        slope, intercept = np.polyfit(np.log(ts) if tail_kind == "power" else ts, np.log(vals), 1)
        if slope >= 0:
            raise ValueError("survival does not decay; cannot build a transform")
        return TailCompletion(tail_kind, float(intercept), float(slope))

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
        composite rule; its error estimate above rel_tol * |L| raises
        QuadratureError.
        """
        s = float(s)
        self._check_domain(s)
        quadrature = float(_rule_terms(self._weighted, ORDER, s, self.t_max).sum())
        rem, err = self.completion.remainder(s, self.t_max)
        value = quadrature + rem
        if not err <= self.rel_tol * abs(value):
            raise QuadratureError(
                f"tail remainder error estimate {err:.3g} at s={s:g} exceeds rel_tol * |L| = {self.rel_tol * abs(value):.3g}"
            )
        return value

    def _slope(self, s: float) -> float:
        """L'(s) for the exponential completion: the fixed-node sum of
        -t E0(t) e^{-st} plus R'(s) = -R(s) (t_max + 1/(s - slope)), the
        derivative of the remainder R(s) = e^{intercept + (slope - s) t_max}/(s - slope)."""
        terms = _rule_terms(self._weighted, ORDER, s, self.t_max)
        rem, _ = self.completion.remainder(s, self.t_max)
        return -self.t_max * float(terms @ _unit_rule(ORDER)[0]) - rem * (self.t_max + 1.0 / (s - self.completion.slope))

    def psi_divisor(self, s: float) -> float:
        """Laplace transform of the divisor density, 1 - s L(s)."""
        return 1.0 - s * self.transform(s)

    def psi_excursion(self, s: float) -> float:
        """Laplace transform of the compound exceedance distribution."""
        sl = s * self.transform(s)
        den = 1.0 + sl
        if abs(den) < 1e-12:
            raise AtPoleError(f"exceedance transform evaluated at a pole: 1 + s L(s) = {den:g}")
        return (1.0 - sl) / den

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
            raise RuntimeError(f"pole search did not converge in {MAX_POLE_STEPS} steps; last bracket ({a!r}, {b!r})")
        L = self.transform(s)
        theta = -s
        return ExponentEstimate(
            theta=theta,
            method="pole",
            bracket=(lo, hi),
            residual=abs(1.0 + s * L),
            boundary=float(self.completion.slope),
            boundary_margin=BOUNDARY_MARGIN,
            quad_abserr=self.abserr,
            prefactor=2.0 / (theta * (L + s * self._slope(s))),
            h_evals=evals + 1,
        )


# ---------------------------------------------------------------------------
# model-level convenience surface (evaluators cached per model)


@lru_cache(maxsize=64)
def _evaluator(model: CovarianceModel, rel_tol: float, t_cap: float) -> LaplaceEvaluator:
    return LaplaceEvaluator.for_model(model, rel_tol=rel_tol, t_cap=t_cap)


def laplace_e0(model: CovarianceModel, s: float, rel_tol: float = 1e-9) -> float:
    """L E0(s) for a catalog model."""
    return _evaluator(model, rel_tol, T_CAP).transform(s)


def find_pole(model: CovarianceModel, rel_tol: float = 1e-12, t_cap: float = T_CAP) -> ExponentEstimate:
    """Pole-based persistency exponent for a validated model.

    Refuses models whose validity verdict is not plain "valid" (the pole
    bracket needs an exponentially decaying divisor).  ``t_cap`` caps
    the truncation point of the transform.
    """
    report = slepian.cached_validity(model)
    if report.verdict != "valid":
        raise ValidityError(report, f"pole search requires a valid model, got verdict={report.verdict}")
    return _evaluator(model, rel_tol, t_cap).find_pole()
