"""Clipped-expectation survival function and validity checks.

For a unit-variance model with covariance r, the expected sign of the
process observed from a zero upcrossing is

    E0(t) = -r'(t) / (sqrt(-r''(0)) * sqrt(1 - r(t)^2)),

with E0(0) = 1 by taking the limit.  When E0 is nonnegative and
nonincreasing it is a survival function, and the exceedance-time
approximation built on it is a proper distribution: the exceedance time is
a Geometric(1/2) random sum of iid "divisor" draws whose survival function
is exactly E0.  ``validate_iia`` checks those hypotheses on a grid and
classifies the tail; models with oscillating E0 are rejected, power
tails are flagged because the resulting tail behavior cannot match the
underlying process, and a tail the grid cannot classify gets its own
verdict.  The tail class also sets the Laplace transform's tail past
its truncation (E0 itself for a power law, an exponential completion
otherwise).

The module also exposes the divisor's density f = -E0', a closed form
in r, r', r'' and 1 - r^2, formed with E0 from one ``r_terms`` and one
``d2r`` evaluation (``divisor_terms``; the inverse tables read their
survivals and knot slopes from it), and the crossing statistic that
anchors the scale: the mean excursion length mu = pi / sqrt(-r''(0)),
whose reciprocal is Rice's zero-crossing intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .covariance import CovarianceModel

__all__ = [
    "TailClass",
    "ValidityReport",
    "ValidityError",
    "NumericalFailure",
    "e0",
    "divisor_terms",
    "mean_excursion",
    "validate_iia",
    "cached_validity",
]

# Grid defaults: all exponential-class built-ins decay below 1e-8 well
# before t = 50; the power-tail example is exactly what the classifier
# must still see at that range.
DEFAULT_T_MAX = 50.0
DEFAULT_STEP = 0.01
MAX_GRID_POINTS = 10**7  # 80 MB of float64 times; larger grids are refused
# The gate decides on signs: E0 >= 0 exactly, and a grid step may rise by
# at most MONOTONE_RTOL * E0 (a relative allowance for the rounding of
# E0 near 1).  The worst rise measured on geomspace(5e-324, 1e-3, 4e5) is
# 8 eps, for generalized_laplace(alpha=10), where E0 rounds to 1 + 5 eps;
# it is 2-4 eps for every other family.
MONOTONE_RTOL = 16 * np.finfo(float).eps
# Tail classification uses the last fifth of the usable grid and needs a
# minimum number of points to be meaningful.
TAIL_FRACTION = 0.2
MIN_TAIL_POINTS = 50
# Below this, values are treated as underflow and excluded from log fits.
POSITIVE_FLOOR = 1e-280
# Half-window slope ratio band separating straight / steepening /
# flattening log-survival tails.
SLOPE_RATIO_BAND = 0.05
# The window's log E0 must drop by at least this much before its shape is
# read: where E0 is 1 to within rounding (t_max = 1e-150 .. 1e-100, step
# t_max/1e5) it drops by at most 3.3e-16, and by 1.3e-9 for
# random_acceleration at t_max = 1e-8; on the default grid by at least
# 0.255 (generalized_laplace alpha = 1e-3).
MIN_LOG_DROP = 1e-6
# E0 is its limit 1 where the computed 1 - r^2 is below this.
_TINY = np.finfo(float).tiny


class ValidityError(RuntimeError):
    """An operation requiring a valid exceedance approximation was refused."""

    def __init__(self, report: "ValidityReport", message: str | None = None):
        self.report = report
        super().__init__(message or f"model {report.model_spec!r} is not usable: verdict={report.verdict}")


class NumericalFailure(RuntimeError):
    """A computation that cannot meet its contract (exit 3 in the CLI); every
    numerical refusal of the package derives from it."""


@dataclass(frozen=True)
class TailClass:
    kind: str  # "exponential" | "superexponential" | "power_law"
    rate: Optional[float] = None  # decay rate for exponential tails
    exponent: Optional[float] = None  # log-log slope for power tails


@dataclass(frozen=True)
class ValidityReport:
    """Grid certificate for the hypotheses behind the exceedance construction.

    The checks are necessarily finite: the report records the grid it used
    rather than claiming a proof.  It stores what the grid measured (the
    first violation times, the smallest E0 and its first t, and the tail
    class); every judgement is derived.
    """

    model_spec: str
    monotone_violation_t: Optional[float]
    nonnegative_violation_t: Optional[float]
    min_e0: float  # NaN if E0 is NaN anywhere on the grid
    min_e0_t: float
    tail_class: Optional[TailClass]
    t_max: float
    step: float

    @property
    def monotone_nonincreasing(self) -> bool:
        return self.monotone_violation_t is None

    @property
    def nonnegative(self) -> bool:
        return self.nonnegative_violation_t is None

    @property
    def verdict(self) -> str:
        """Integrability is decided from the tail class (direct quadrature
        cannot prove divergence); an unclassified tail is usable for
        sampling but not for the pole search, which needs a certified
        exponential tail."""
        if not (self.monotone_nonincreasing and self.nonnegative):
            return "invalid_oscillating"
        if self.tail_class is None:
            return "valid_tail_inconclusive"
        if self.tail_class.kind in ("exponential", "superexponential"):
            return "valid"
        if self.tail_class.exponent is not None and self.tail_class.exponent < -1.0:
            return "valid_but_power_tail_warning"
        return "invalid_nonintegrable"

    @property
    def first_violation_t(self) -> Optional[float]:
        cands = [t for t in (self.monotone_violation_t, self.nonnegative_violation_t) if t is not None]
        return min(cands) if cands else None

    @property
    def usable(self) -> bool:
        """True when sampling from the divisor is allowed."""
        return self.verdict in ("valid", "valid_tail_inconclusive", "valid_but_power_tail_warning")

    def as_dict(self) -> dict:
        """The JSON form; ``integrable`` is None when the shape checks failed
        or the tail is unclassified."""
        verdict = self.verdict
        return {
            "verdict": verdict,
            "monotone": self.monotone_nonincreasing,
            "nonnegative": self.nonnegative,
            "integrable": {"valid": True, "valid_but_power_tail_warning": True, "invalid_nonintegrable": False}.get(verdict),
            "tail_class": self.tail_class.kind if self.tail_class else None,
            "tail_rate": self.tail_class.rate if self.tail_class else None,
            "tail_exponent": self.tail_class.exponent if self.tail_class else None,
            "first_violation_t": self.first_violation_t,
            "min_e0": self.min_e0,
            "min_e0_t": self.min_e0_t,
            "t_max": self.t_max,
            "step": self.step,
            "classification_inconclusive": verdict == "valid_tail_inconclusive",
        }


def e0(model: CovarianceModel, t):
    """Survival function of the geometric divisor (clipped expectation).

    Evaluated from r' and the compensated form of 1 - r^2, both from one
    ``r_terms`` call.  Two limits are set by assignment where
    they apply: E0 is 1 wherever the computed 1 - r^2 is below the
    smallest normal double (at t = 0, where the expression is 0/0, and
    where 1 - r^2 ~ t^2 underflows, below t ~ 1e-154, where the true value
    rounds to 1), and 0 at infinite t.
    """
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    with np.errstate(invalid="ignore", divide="ignore"):
        _, dr, one_minus_r2 = model.r_terms(ts)
        val = _e0_of(model, ts, dr, one_minus_r2)
    return val if t.ndim else float(val[0])


def _e0_of(model: CovarianceModel, ts: np.ndarray, dr, one_minus_r2) -> np.ndarray:
    """E0 at the 1-d array ``ts`` from r' and 1 - r^2 there (see ``e0``)."""
    scale = 1.0 / math.sqrt(-model.d2r0)
    val = -scale * dr / np.sqrt(one_minus_r2)
    val[one_minus_r2 < _TINY] = 1.0
    val[np.isinf(ts)] = 0.0
    return val


def divisor_terms(model: CovarianceModel, t: np.ndarray):
    """(r, 1 - r^2, E0, f) at the 1-d array ``t``, from one ``r_terms`` and
    one ``d2r`` call.  f = -E0' is the divisor's density,

        f(t) = [r''(t) (1 - r^2) + r r'^2] / (sqrt(-r''(0)) (1 - r^2)^(3/2)).

    Near t = 0 its two terms cancel to order t^4, so its relative error
    grows like eps/t^2 there (3e-11 to 4e-9 at t = 1e-3, by family); it
    is 0 at infinite t, and NaN wherever E0 takes its limit 1 (the
    computed 1 - r^2 below the smallest normal double, t = 0 included),
    where the expression is 0/0.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        r, dr, one_minus_r2 = model.r_terms(t)
        d2r = model.d2r(t)
        e = _e0_of(model, t, dr, one_minus_r2)
        f = (d2r * one_minus_r2 + r * dr * dr) / (math.sqrt(-model.d2r0) * one_minus_r2 * np.sqrt(one_minus_r2))
    f[one_minus_r2 < _TINY] = np.nan
    f[np.isinf(t)] = 0.0
    return r, one_minus_r2, e, f


def mean_excursion(model: CovarianceModel) -> float:
    """Mean length of a zero-excursion interval, pi / sqrt(-r''(0))."""
    return math.pi / math.sqrt(-model.d2r0)


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xm = x - x.mean()
    return float(np.dot(xm, y) / np.dot(xm, xm))


def _classify_tail(ts: np.ndarray, vals: np.ndarray):
    """Classify the decay of ``vals`` over the window by log-slope shape.

    Compares the log-survival slope on the two halves of the window: a
    stable slope means an exponential tail, a steepening slope a
    superexponential one, and a flattening slope is re-tested on log-log
    axes for a power law.  A window whose log drops by less than
    MIN_LOG_DROP is left unclassified: rounding noise is not a tail.
    """
    logs = np.log(vals)
    if not logs[0] - logs[-1] >= MIN_LOG_DROP:
        return None
    half = len(ts) // 2
    s_full = _ols_slope(ts, logs)
    s1 = _ols_slope(ts[:half], logs[:half])
    s2 = _ols_slope(ts[half:], logs[half:])
    if not (s1 < 0 and s2 < 0):
        return None
    ratio = s2 / s1
    if abs(ratio - 1.0) <= SLOPE_RATIO_BAND:
        return TailClass("exponential", rate=-s_full)
    if ratio > 1.0 + SLOPE_RATIO_BAND:
        return TailClass("superexponential")
    # flattening in linear time: power-law candidate
    lts = np.log(ts)
    ll_full = _ols_slope(lts, logs)
    ll1 = _ols_slope(lts[:half], logs[:half])
    ll2 = _ols_slope(lts[half:], logs[half:])
    if ll1 < 0 and ll2 < 0 and abs(ll2 / ll1 - 1.0) <= SLOPE_RATIO_BAND:
        return TailClass("power_law", exponent=ll_full)
    return None


def time_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop: a ValueError unless 0 <= start <= stop and
    0 < step, all finite (E0 is a survival only for t >= 0), at most MAX_GRID_POINTS points,
    and half a step is not lost to rounding at stop (the grid would be empty)."""
    if not (0 < step < np.inf and 0 <= start <= stop < np.inf):
        raise ValueError(f"time grid needs finite 0 <= start <= stop and step > 0, got start={start:g}, stop={stop:g}, step={step:g}")
    end = stop + 0.5 * step
    if end == stop:
        raise ValueError(f"time grid step {step:g} is below the spacing of doubles at stop={stop:g}")
    # np.arange makes ceil((end - start)/step) points; count them before allocating
    if not (end - start) / step <= MAX_GRID_POINTS:
        raise ValueError(f"time grid has more than {MAX_GRID_POINTS} points: start={start:g}, stop={stop:g}, step={step:g}")
    return np.arange(start, end, step)


def validate_iia(model: CovarianceModel, t_max: float = DEFAULT_T_MAX, step: float = DEFAULT_STEP) -> ValidityReport:
    """Check monotonicity, nonnegativity and tail class of E0 on a grid.

    The report derives integrability and the verdict from these; an
    integrable power tail gets a warning verdict because the implied
    exceedance tail cannot be of the right order.
    """
    if not (t_max > 0 and 0 < step < t_max):
        raise ValueError(f"validate needs 0 < step < t_max, got t_max={t_max:g}, step={step:g}")
    ts = time_grid(0.0, t_max, step)
    vals = np.asarray(e0(model, ts))

    # negated comparisons: a non-finite value (NaN, or inf minus inf) fails
    # them, so it is a violation at its t
    with np.errstate(invalid="ignore"):
        mono_viol = np.flatnonzero(~(vals[1:] - vals[:-1] <= MONOTONE_RTOL * vals[:-1]))
    mono_t = float(ts[mono_viol[0] + 1]) if mono_viol.size else None
    neg_viol = np.flatnonzero(~(vals >= 0.0))
    neg_t = float(ts[neg_viol[0]]) if neg_viol.size else None
    low = int(np.argmin(vals))

    tail_class = None
    if mono_t is None and neg_t is None:
        usable = np.flatnonzero(vals > POSITIVE_FLOOR)
        n_tail = int(TAIL_FRACTION * usable.size)
        idx = usable[-n_tail:] if n_tail > 0 else usable[:0]
        idx = idx[ts[idx] > 0]
        if idx.size >= MIN_TAIL_POINTS:
            tail_class = _classify_tail(ts[idx], vals[idx])

    return ValidityReport(
        model_spec=model.spec_string(),
        monotone_violation_t=mono_t,
        nonnegative_violation_t=neg_t,
        min_e0=float(vals[low]),
        min_e0_t=float(ts[low]),
        tail_class=tail_class,
        t_max=float(t_max),
        step=float(step),
    )


@lru_cache(maxsize=128)
def _validity(model: CovarianceModel, t_max: float, step: float) -> ValidityReport:
    return validate_iia(model, t_max, step)


def cached_validity(model: CovarianceModel, t_max: float = DEFAULT_T_MAX, step: float = DEFAULT_STEP) -> ValidityReport:
    """``validate_iia``'s report, built once per (model, grid) in a process
    (a grid ValueError is raised again on every call).  The CLI's
    ``validate``, ``require_usable`` and the pole search all read it."""
    return _validity(model, float(t_max), float(step))


def require_usable(model: CovarianceModel) -> ValidityReport:
    report = cached_validity(model)
    if not report.usable:
        raise ValidityError(report)
    return report
