"""Catalog of analytic stationary autocovariance models.

Every built-in model is normalized to unit variance, r(0) = 1, has a
vanishing first derivative at the origin and a finite, strictly negative
second derivative r''(0), so the zero-crossing intensity is finite.

The catalog:

``diffusion(d)``
    r(t) = sech(t/2)^(d/2), the stationary rescaling of a heat-equation
    field in d spatial dimensions observed in logarithmic time.
``random_acceleration``
    r(t) = (3 e^(-|t|/2) - e^(-3|t|/2)) / 2, the stationary rescaling of a
    doubly-integrated white noise.
``shifted_gaussian(alpha)``
    r(t) = cos(alpha t) exp(-t^2/2); oscillates for alpha > 0.
``matern(nu)`` with half-integer nu in {5/2, 7/2, 9/2}
    r(t) = 2^(1-nu)/Gamma(nu) * t^nu K_nu(t), evaluated through the
    closed polynomial form available at half-integer orders.
``generalized_laplace(alpha)``
    r(t) = (1 + t^2/2)^(-alpha), a power-tail covariance (it is the
    characteristic function of a symmetric generalized Laplace law).

Each model class is the one definition of its family: its parameters and
their validation, r, r', r''(0) (``d2r0``) and a numerically stable
``one_minus_r2`` (for 1 - r(t)^2, which suffers catastrophic cancellation
near t = 0 when formed naively).  Everything downstream (the divisor
survival E0, its tail class, its transform) is derived from these four.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CovarianceModel",
    "Diffusion",
    "RandomAcceleration",
    "ShiftedGaussian",
    "MaternHalfInteger",
    "GeneralizedLaplace",
    "ModelSpecError",
    "MATERN_NU_VALUES",
    "MAX_DIFFUSION_DIM",
    "parse_model_spec",
    "clipped_autocovariance",
]

MATERN_NU_VALUES = (2.5, 3.5, 4.5)
MAX_DIFFUSION_DIM = 64


class ModelSpecError(ValueError):
    """A model specification string could not be parsed or validated."""


def _log_cosh(x):
    """log(cosh(x)), accurate for tiny x and overflow-safe for large x."""
    x = np.abs(x)
    small = x < 350.0
    with np.errstate(over="ignore"):
        sh = np.sinh(np.where(small, 0.5 * x, 0.0))
    out_small = np.log1p(2.0 * sh * sh)
    out_large = x - math.log(2.0)
    return np.where(small, out_small, out_large)


@dataclass(frozen=True)
class CovarianceModel:
    """Base class for unit-variance stationary autocovariance models."""

    name = "base"

    @property
    def params(self) -> dict:
        return {}

    def spec_string(self) -> str:
        """Canonical ``name(param=value,...)`` form accepted by the parser."""
        inner = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({inner})" if inner else self.name

    def r(self, t):
        raise NotImplementedError

    def dr(self, t):
        raise NotImplementedError

    def d2r0(self) -> float:
        raise NotImplementedError

    def one_minus_r2(self, t):
        """1 - r(t)^2 without cancellation near t = 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class Diffusion(CovarianceModel):
    d: int = 2

    name = "diffusion"

    def __post_init__(self):
        d = self.d
        if isinstance(d, (float, np.floating)) and float(d).is_integer():
            d = int(d)  # spec strings carry every value as a float
        if not (isinstance(d, (int, np.integer)) and 1 <= d <= MAX_DIFFUSION_DIM):
            raise ModelSpecError(
                f"diffusion dimension must be an integer in [1, {MAX_DIFFUSION_DIM}], got {self.d!r}"
            )
        object.__setattr__(self, "d", int(d))

    @property
    def params(self):
        return {"d": self.d}

    def r(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-0.5 * self.d * _log_cosh(0.5 * t))

    def dr(self, t):
        t = np.asarray(t, dtype=float)
        return -0.25 * self.d * np.tanh(0.5 * t) * self.r(t)

    def d2r0(self):
        return -self.d / 8.0

    def one_minus_r2(self, t):
        t = np.asarray(t, dtype=float)
        return -np.expm1(-self.d * _log_cosh(0.5 * t))


@dataclass(frozen=True)
class RandomAcceleration(CovarianceModel):
    name = "random_acceleration"

    def r(self, t):
        t = np.asarray(t, dtype=float)
        x = np.exp(-t)
        return 0.5 * (3.0 - x) * np.exp(-0.5 * t)

    def dr(self, t):
        t = np.asarray(t, dtype=float)
        # e^{-3t/2} - e^{-t/2} = e^{-t/2} expm1(-t), without cancellation near 0
        return 0.75 * np.exp(-0.5 * t) * np.expm1(-t)

    def d2r0(self):
        return -0.75

    def one_minus_r2(self, t):
        # 1 - r^2 factors exactly as (1-x)^2 (4-x) / 4 with x = e^{-t}.
        t = np.asarray(t, dtype=float)
        x = np.exp(-t)
        m = -np.expm1(-t)
        return 0.25 * m * m * (4.0 - x)


@dataclass(frozen=True)
class ShiftedGaussian(CovarianceModel):
    alpha: float = 0.0

    name = "shifted_gaussian"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ModelSpecError(f"shifted_gaussian shift must satisfy alpha >= 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def params(self):
        return {"alpha": self.alpha}

    def r(self, t):
        t = np.asarray(t, dtype=float)
        return np.cos(self.alpha * t) * np.exp(-0.5 * t * t)

    def dr(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha
        return -(a * np.sin(a * t) + t * np.cos(a * t)) * np.exp(-0.5 * t * t)

    def d2r0(self):
        return -(1.0 + self.alpha**2)

    def one_minus_r2(self, t):
        # 1 - cos^2(at) e^{-t^2} = -expm1(-t^2) + e^{-t^2} sin^2(at)
        t = np.asarray(t, dtype=float)
        tt = t * t
        s = np.sin(self.alpha * t)
        return -np.expm1(-tt) + np.exp(-tt) * s * s


# Half-integer Matern polynomials: for nu = m + 1/2 the Bessel factor
# reduces to  r(t) = e^{-t} p_m(t) / p_m(0)  with
# p_m(t) = sum_k (m+k)!/((m-k)! k!) 2^{-k} t^{m-k}  and  p_m(0) = (2m-1)!!.
def _bessel_poly(m: int) -> np.ndarray:
    """Coefficients of p_m, highest power first (np.polyval order); every
    coefficient is an integer, so the floats are exact."""
    f = math.factorial
    return np.array([f(m + k) // (f(m - k) * f(k) * 2**k) for k in range(m + 1)], dtype=float)


_MATERN_POLY = {nu: _bessel_poly(int(nu - 0.5)) for nu in MATERN_NU_VALUES}
# p_{m-1}, which appears in r'(t) = -t e^{-t} p_{m-1}(t) / p_m(0).
_MATERN_POLY_LOWER = {nu: _bessel_poly(int(nu - 1.5)) for nu in MATERN_NU_VALUES}
# Taylor coefficients of c e^t - p_m(t), c = p_m(0), for powers 20 ... 0
# (np.polyval order): c/k! - [t^k] p_m, exact for k <= m and correctly
# rounded above.  The terms of order 0 and 1 vanish and every other one is
# positive, so the sum does not cancel; on |t| < 1 the dropped terms are
# below 1e-18 of the t^2 term.
_MATERN_SERIES = {
    nu: np.array([p[-1] / math.factorial(k) - (p[-1 - k] if k < p.size else 0.0) for k in range(20, -1, -1)])
    for nu, p in _MATERN_POLY.items()
}


@dataclass(frozen=True)
class MaternHalfInteger(CovarianceModel):
    nu: float = 2.5

    name = "matern_half_integer"

    def __post_init__(self):
        if float(self.nu) not in MATERN_NU_VALUES:
            raise ModelSpecError(
                f"matern smoothness must be one of {MATERN_NU_VALUES}, got {self.nu!r}"
            )
        object.__setattr__(self, "nu", float(self.nu))

    @property
    def params(self):
        return {"nu": self.nu}

    @property
    def _poly(self):
        return _MATERN_POLY[self.nu]

    @property
    def _poly_lower(self):
        return _MATERN_POLY_LOWER[self.nu]

    @property
    def _c(self) -> float:
        return float(self._poly[-1])

    def r(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-t) * np.polyval(self._poly, t) / self._c

    def dr(self, t):
        t = np.asarray(t, dtype=float)
        return -t * np.exp(-t) * np.polyval(self._poly_lower, t) / self._c

    def d2r0(self):
        return -1.0 / (2.0 * (self.nu - 1.0))

    def _c_exp_minus_poly(self, t):
        # c e^t - p(t), formed without cancellation: the constant and
        # linear coefficients of p match those of c e^t exactly, so
        # c e^t - p(t) = c (expm1(t) - t) - q(t) with q = p - c - c t.
        # On |t| < 1 expm1(t) - t itself cancels, so the positive Taylor
        # series of the whole difference is summed there instead.
        t = np.asarray(t, dtype=float)
        q = self._poly.copy()
        q[-1] = 0.0
        q[-2] = 0.0
        series = np.polyval(_MATERN_SERIES[self.nu], np.clip(t, -1.0, 1.0))
        return np.where(np.abs(t) < 1.0, series, self._c * (np.expm1(t) - t) - np.polyval(q, t))

    def one_minus_r2(self, t):
        # Past t = 700, r < 1e-290 and c e^t overflows near t = 709.8, so
        # 1 - r is formed directly there.
        t = np.asarray(t, dtype=float)
        r = self.r(t)
        far = t > 700.0
        near = np.exp(-t) * self._c_exp_minus_poly(np.where(far, 0.0, t)) / self._c
        return np.where(far, 1.0 - r, near) * (1.0 + r)


@dataclass(frozen=True)
class GeneralizedLaplace(CovarianceModel):
    alpha: float = 1.0

    name = "generalized_laplace"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ModelSpecError(f"generalized_laplace exponent must be > 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def params(self):
        return {"alpha": self.alpha}

    def r(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-self.alpha * np.log1p(0.5 * t * t))

    def dr(self, t):
        t = np.asarray(t, dtype=float)
        return -self.alpha * t * np.exp(-(self.alpha + 1.0) * np.log1p(0.5 * t * t))

    def d2r0(self):
        return -self.alpha

    def one_minus_r2(self, t):
        t = np.asarray(t, dtype=float)
        return -np.expm1(-2.0 * self.alpha * np.log1p(0.5 * t * t))


# ---------------------------------------------------------------------------
# spec-string parsing


_MODEL_CLASSES = {
    "diffusion": Diffusion,
    "random_acceleration": RandomAcceleration,
    "shifted_gaussian": ShiftedGaussian,
    "matern": MaternHalfInteger,
    "matern_half_integer": MaternHalfInteger,
    "generalized_laplace": GeneralizedLaplace,
}

_USAGE = (
    "valid model specifications: diffusion(d=1..{dmax}), random_acceleration, "
    "shifted_gaussian(alpha>=0), matern(nu in {nus}), generalized_laplace(alpha>0)"
).format(dmax=MAX_DIFFUSION_DIM, nus="{2.5, 3.5, 4.5}")

_SPEC_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def parse_model_spec(spec: str) -> CovarianceModel:
    """Parse a ``name(param=value,...)`` string into a model instance.

    Examples: ``diffusion(d=2)``, ``matern(nu=2.5)``,
    ``shifted_gaussian(alpha=0)``, ``random_acceleration``.
    """
    m = _SPEC_RE.match(spec or "")
    if not m:
        raise ModelSpecError(f"cannot parse model spec {spec!r}; {_USAGE}")
    name, arglist = m.group(1), m.group(2)
    cls = _MODEL_CLASSES.get(name)
    if cls is None:
        raise ModelSpecError(f"unknown model {name!r}; {_USAGE}")
    kwargs = {}
    if arglist:
        for item in arglist.split(","):
            if "=" not in item:
                raise ModelSpecError(f"parameters must be key=value, got {item.strip()!r}; {_USAGE}")
            key, val = item.split("=", 1)
            try:
                kwargs[key.strip()] = float(val)
            except ValueError:
                raise ModelSpecError(f"non-numeric value for {key.strip()!r}: {val.strip()!r}") from None
    try:
        return cls(**kwargs)
    except TypeError as exc:  # an unknown parameter name
        raise ModelSpecError(f"invalid parameters for model {name!r} ({exc}); {_USAGE}") from None


def clipped_autocovariance(model: CovarianceModel, t):
    """Autocovariance of the sign of the process: (2/pi) arcsin(r(t))."""
    return (2.0 / math.pi) * np.arcsin(model.r(t))
