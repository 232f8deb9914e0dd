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
every other class.

From the transform:

* divisor transform        Psi_div(s) = 1 - s L(s)  (integration by parts),
* exceedance transform     Psi_exc(s) = (1 - s L(s)) / (1 + s L(s)),

and the persistency pole is the largest negative real root of
h(s) = 1 + s L(s) = 0, equivalently Psi_div(s) = 2.  The root is located
by sign-change scanning from zero toward the convergence boundary, then
bisection refined with secant-type steps.  Real roots only: the search is
a heuristic for transforms that are not rational, and a complex dominant
pole is reported as pole-not-found rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import optimize

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
    "psi_divisor",
    "psi_excursion",
    "find_pole",
]

# Truncate where the survival drops below this (or at the grid cap for
# power tails, where the analytic completion carries the remainder).
TRUNCATION_THRESHOLD = 1e-15
T_CAP = 1000.0
# Points of the main sweep of the pole scan.
SCAN_POINTS = 48
# Fraction of the convergence boundary the pole bracket keeps away from
# it; the transform diverges at the boundary itself.
BOUNDARY_MARGIN = 0.95
# Composite Gauss-Legendre rule: panel edges t_max * (0, geomspace(
# PANEL_START, 1, PANELS)); CHECK_ORDER nodes per panel give the estimate.
PANELS = 48
PANEL_START = 1e-9
ORDER = 24
CHECK_ORDER = 16


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
            f"no real pole: h({lo:g})={h_lo:g}, h({hi:g})={h_hi:g} have equal sign "
            "(the dominant pole may sit at or beyond the convergence boundary, or be complex)"
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

    def remainder(self, s: float, t_max: float) -> float:
        """int_{t_max}^inf (fitted tail)(t) e^{-st} dt."""
        if self.kind == "exponential":
            return math.exp(self.intercept + (self.slope - s) * t_max) / (s - self.slope)
        if s == 0.0:
            return math.exp(self.intercept) * t_max ** (self.slope + 1.0) / (-self.slope - 1.0)
        from scipy import integrate  # imported on use: only power tails need it

        val, _ = integrate.quad(
            lambda t: math.exp(self.intercept + self.slope * math.log(t) - s * t),
            t_max,
            np.inf,
        )
        return val


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
        scan's far end; raises QuadratureError above rel_tol * |main|."""
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
        t = 1.0
        while t < t_cap:
            v = float(np.asarray(survival(t)))
            if not np.isfinite(v) or v < TRUNCATION_THRESHOLD:
                return t
            t *= 1.25
        return t_cap

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
        logs = np.log(vals)
        if tail_kind == "power":
            slope, intercept = np.polyfit(np.log(ts), logs, 1)
            return TailCompletion("power", float(intercept), float(slope))
        slope, intercept = np.polyfit(ts, logs, 1)
        if slope >= 0:
            raise ValueError("survival does not decay; cannot build a transform")
        return TailCompletion("exponential", float(intercept), float(slope))

    # -- evaluation --------------------------------------------------------

    def _check_domain(self, s: float):
        if self.completion.kind == "exponential":
            if s <= self.completion.slope:
                raise DivergenceError(s, self.completion.slope)
        else:
            if s < 0.0 or (s == 0.0 and self.completion.slope >= -1.0):
                raise DivergenceError(s, 0.0)

    def transform(self, s: float) -> float:
        """L(s) = fixed-node quadrature on [0, t_max] + analytic tail remainder."""
        s = float(s)
        self._check_domain(s)
        quadrature = float(_rule_terms(self._weighted, ORDER, s, self.t_max).sum())
        return quadrature + self.completion.remainder(s, self.t_max)

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
        """Largest negative real root of h(s) = 1 + s L(s).

        Scans from 0- toward BOUNDARY_MARGIN times the convergence
        boundary for the first sign change, then refines by bracketed
        bisection/secant iteration to |h| <= 1e-10.
        """
        if self.completion.kind != "exponential":
            raise PoleNotFoundError(0.0, 0.0, math.nan, math.nan)
        rate = -self.completion.slope
        lo = -BOUNDARY_MARGIN * rate
        hi = -1e-4 * rate

        def h(s):
            return 1.0 + s * self.transform(s)

        # descending scan: a short stretch hugging zero (where h -> 1),
        # then the main sweep toward the boundary margin
        grid = np.concatenate([np.linspace(1e-3 * hi, hi, 8), np.linspace(hi, lo, SCAN_POINTS)[1:]])
        s_prev = float(grid[0])
        h_prev = h(s_prev)
        bracket = None
        for s_val in grid[1:]:
            h_cur = h(float(s_val))
            if h_prev > 0.0 >= h_cur:
                bracket = (float(s_val), s_prev)
                break
            s_prev, h_prev = float(s_val), h_cur
        if bracket is None:
            raise PoleNotFoundError(lo, hi, h(lo), h(hi))
        root = optimize.brentq(h, bracket[0], bracket[1], xtol=1e-14, rtol=8.9e-16)
        residual = abs(h(root))
        return ExponentEstimate(
            theta=-float(root),
            method="pole",
            bracket=bracket,
            residual=float(residual),
            boundary=float(self.completion.slope),
            boundary_margin=BOUNDARY_MARGIN,
            quad_abserr=self.abserr,
        )


# ---------------------------------------------------------------------------
# model-level convenience surface (evaluators cached per model)


@lru_cache(maxsize=64)
def _evaluator(model: CovarianceModel, rel_tol: float, t_cap: float) -> LaplaceEvaluator:
    return LaplaceEvaluator.for_model(model, rel_tol=rel_tol, t_cap=t_cap)


def laplace_e0(model: CovarianceModel, s: float, rel_tol: float = 1e-9) -> float:
    """L E0(s) for a catalog model."""
    return _evaluator(model, rel_tol, T_CAP).transform(s)


def psi_divisor(model: CovarianceModel, s: float, rel_tol: float = 1e-9) -> float:
    """Divisor Laplace transform 1 - s L E0(s)."""
    return _evaluator(model, rel_tol, T_CAP).psi_divisor(s)


def psi_excursion(model: CovarianceModel, s: float, rel_tol: float = 1e-9) -> float:
    """Exceedance-time Laplace transform (1 - s L E0)/(1 + s L E0)."""
    return _evaluator(model, rel_tol, T_CAP).psi_excursion(s)


def find_pole(model: CovarianceModel, rel_tol: float = 1e-12, t_cap: float = T_CAP) -> ExponentEstimate:
    """Pole-based persistency exponent for a validated model.

    Refuses models whose validity verdict is not plain "valid" (the pole
    heuristic needs an exponentially decaying divisor).  ``t_cap`` caps
    the truncation point of the transform.
    """
    report = slepian.cached_validity(model)
    if report.verdict != "valid":
        raise ValidityError(report, f"pole search requires a valid model, got verdict={report.verdict}")
    return _evaluator(model, rel_tol, t_cap).find_pole()
