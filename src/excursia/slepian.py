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
verdict.  The tail class is also what the Laplace transform completes
the truncated survival with (log-log form for a power law, exponential
form otherwise).

The module also exposes the two crossing statistics that anchor the scale:
mean excursion length mu = pi / sqrt(-r''(0)) and its reciprocal, the
zero-crossing intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .covariance import CovarianceModel, clipped_autocovariance

__all__ = [
    "TailClass",
    "ValidityReport",
    "ValidityError",
    "e0",
    "mean_excursion",
    "crossing_intensity",
    "validate_iia",
    "cached_validity",
    "check_equivalence",
]

# Grid defaults: all exponential-class built-ins decay below 1e-8 well
# before t = 50; the power-tail example is exactly what the classifier
# must still see at that range.
DEFAULT_T_MAX = 50.0
DEFAULT_STEP = 0.01
MAX_GRID_POINTS = 10**7  # 80 MB of float64 times; larger grids are refused
# A monotonicity violation must exceed this to fire (guards against
# roundoff wiggle in flat tails).
MONOTONE_TOL = 1e-12
NONNEG_TOL = -1e-12
# Tail classification uses the last fifth of the usable grid and needs a
# minimum number of points to be meaningful.
TAIL_FRACTION = 0.2
MIN_TAIL_POINTS = 50
# Below this, values are treated as underflow and excluded from log fits.
POSITIVE_FLOOR = 1e-280
# Half-window slope ratio band separating straight / steepening /
# flattening log-survival tails.
SLOPE_RATIO_BAND = 0.05
MIN_DECAY_SLOPE = 1e-3


class ValidityError(RuntimeError):
    """An operation requiring a valid exceedance approximation was refused."""

    def __init__(self, report: "ValidityReport", message: str | None = None):
        self.report = report
        super().__init__(message or f"model {report.model_spec!r} is not usable: verdict={report.verdict}")


@dataclass(frozen=True)
class TailClass:
    kind: str  # "exponential" | "superexponential" | "power_law"
    rate: Optional[float] = None  # decay rate for exponential tails
    exponent: Optional[float] = None  # log-log slope for power tails

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.rate is not None:
            out["rate"] = self.rate
        if self.exponent is not None:
            out["exponent"] = self.exponent
        return out


@dataclass(frozen=True)
class ValidityReport:
    """Grid certificate for the hypotheses behind the exceedance construction.

    The checks are necessarily finite: the report records the grid it used
    rather than claiming a proof.  It stores what the grid measured (the
    first violation times and the tail class); every judgement is derived.
    """

    model_spec: str
    monotone_violation_t: Optional[float]
    nonnegative_violation_t: Optional[float]
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
    def integrable(self) -> Optional[bool]:
        """None when the shape checks failed or the tail is unclassified."""
        return {"valid": True, "valid_but_power_tail_warning": True, "invalid_nonintegrable": False}.get(self.verdict)

    @property
    def classification_inconclusive(self) -> bool:
        """Shape checks passed but the grid could not classify the tail."""
        return self.verdict == "valid_tail_inconclusive"

    @property
    def first_violation_t(self) -> Optional[float]:
        cands = [t for t in (self.monotone_violation_t, self.nonnegative_violation_t) if t is not None]
        return min(cands) if cands else None

    @property
    def usable(self) -> bool:
        """True when sampling from the divisor is allowed."""
        return self.verdict in ("valid", "valid_tail_inconclusive", "valid_but_power_tail_warning")

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "monotone": self.monotone_nonincreasing,
            "nonnegative": self.nonnegative,
            "integrable": self.integrable,
            "tail_class": self.tail_class.kind if self.tail_class else None,
            "tail_rate": self.tail_class.rate if self.tail_class else None,
            "tail_exponent": self.tail_class.exponent if self.tail_class else None,
            "first_violation_t": self.first_violation_t,
            "t_max": self.t_max,
            "step": self.step,
            "classification_inconclusive": self.classification_inconclusive,
        }


def e0(model: CovarianceModel, t):
    """Survival function of the geometric divisor (clipped expectation).

    Evaluated from r' and the compensated form of 1 - r^2 so it is stable
    arbitrarily close to t = 0, where the naive expression is 0/0.
    """
    t = np.asarray(t, dtype=float)
    scale = 1.0 / math.sqrt(-model.d2r0())
    with np.errstate(invalid="ignore", divide="ignore"):
        val = -scale * model.dr(t) / np.sqrt(model.one_minus_r2(t))
    val = np.where(t == 0.0, 1.0, val)
    return val if val.ndim else float(val)


def mean_excursion(model: CovarianceModel) -> float:
    """Mean length of a zero-excursion interval, pi / sqrt(-r''(0))."""
    return math.pi / math.sqrt(-model.d2r0())


def crossing_intensity(model: CovarianceModel) -> float:
    """Rice zero-crossing intensity, sqrt(-r''(0)) / pi."""
    return math.sqrt(-model.d2r0()) / math.pi


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xm = x - x.mean()
    return float(np.dot(xm, y) / np.dot(xm, xm))


def _classify_tail(ts: np.ndarray, vals: np.ndarray):
    """Classify the decay of ``vals`` over the window by log-slope shape.

    Compares the log-survival slope on the two halves of the window: a
    stable slope means an exponential tail, a steepening slope a
    superexponential one, and a flattening slope is re-tested on log-log
    axes for a power law.
    """
    logs = np.log(vals)
    half = len(ts) // 2
    s_full = _ols_slope(ts, logs)
    s1 = _ols_slope(ts[:half], logs[:half])
    s2 = _ols_slope(ts[half:], logs[half:])
    if not (s1 < 0 and s2 < 0):
        return None
    ratio = s2 / s1
    if abs(ratio - 1.0) <= SLOPE_RATIO_BAND and s_full < -MIN_DECAY_SLOPE:
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
    0 < step, all finite (E0 is a survival only for t >= 0), and at most MAX_GRID_POINTS points."""
    if not (0 < step < np.inf and 0 <= start <= stop < np.inf):
        raise ValueError(f"time grid needs finite 0 <= start <= stop and step > 0, got start={start:g}, stop={stop:g}, step={step:g}")
    end = stop + 0.5 * step
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

    mono_viol = np.flatnonzero(vals[1:] - vals[:-1] > MONOTONE_TOL)
    mono_t = float(ts[mono_viol[0] + 1]) if mono_viol.size else None
    neg_viol = np.flatnonzero(vals < NONNEG_TOL)
    neg_t = float(ts[neg_viol[0]]) if neg_viol.size else None

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
        tail_class=tail_class,
        t_max=float(t_max),
        step=float(step),
    )


@lru_cache(maxsize=128)
def cached_validity(model: CovarianceModel) -> ValidityReport:
    """Default-grid validity report, cached per model instance."""
    return validate_iia(model)


def require_usable(model: CovarianceModel) -> ValidityReport:
    report = cached_validity(model)
    if not report.usable:
        raise ValidityError(report)
    return report


def check_equivalence(model: CovarianceModel, grid, h: float = 1e-4) -> float:
    """Max deviation of d/dt[(2/pi) arcsin r] + (2/mu) E0 over the grid.

    The identity is exact; the returned number is finite-difference
    truncation error and documents that the crossing-attached and
    stationary formulations agree for the model.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("grid must be strictly increasing and positive")
    hh = np.minimum(h, 0.5 * grid)
    dR = (clipped_autocovariance(model, grid + hh) - clipped_autocovariance(model, grid - hh)) / (2.0 * hh)
    mu = mean_excursion(model)
    dev = dR + (2.0 / mu) * np.asarray(e0(model, grid))
    return float(np.max(np.abs(dev)))
