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
their validation, then r, r' and 1 - r(t)^2 evaluated together
(``r_terms``), then r''(t) (``d2r``).  Within a family the three share
their costly factor (log cosh(t/2), expm1(-t), sin and cos of alpha t,
e^(-t) or log1p(t^2/2)), so ``r_terms`` forms it once; 1 - r^2 is formed
without the catastrophic cancellation the naive expression suffers near
t = 0.  The base class reads r alone from ``r_terms`` and r''(0) from
``d2r`` once per model (``d2r0``, which E0 reads on every call).
Everything downstream (the divisor survival E0 and density, the clipped
covariance, the tail class, the transform) is derived from these.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import cached_property

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


# Below this, log cosh x < x^2/2 < 2^-1021: it is returned as 0, so the
# square 2 sinh(x/2)^2 never underflows.
_LOG_COSH_TINY = 2.0**-510


def _log_cosh(x):
    """log(cosh(x)), accurate for tiny x and overflow-safe for large x:
    log1p(2 sinh(x/2)^2) at x clamped to 350 (sinh's argument stays at
    or below 175), replaced by x - log 2 only where x >= 350."""
    x = np.abs(np.asarray(x, dtype=float))
    shape = x.shape
    x = x.reshape(-1)  # a scalar too, so the large branch can be assigned
    arg = np.minimum(x, 350.0)
    arg *= arg >= _LOG_COSH_TINY
    sh = np.sinh(0.5 * arg)
    out = np.log1p(2.0 * sh * sh)
    large = x >= 350.0
    out[large] = x[large] - math.log(2.0)
    return out.reshape(shape)


@dataclass(frozen=True)
class CovarianceModel:
    """Base class for unit-variance stationary autocovariance models.

    A family defines ``r_terms`` and ``d2r``; ``r`` and ``d2r0`` are read
    from them."""

    name = "base"

    def spec_string(self) -> str:
        """Canonical ``name(param=value,...)`` form accepted by the parser."""
        inner = ",".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))
        return f"{self.name}({inner})" if inner else self.name

    def r(self, t):
        """r(t), the first of ``r_terms``."""
        return self.r_terms(t)[0]

    def r_terms(self, t):
        """(r(t), r'(t), 1 - r(t)^2), the last without cancellation near
        t = 0, from the factor the three share."""
        raise NotImplementedError

    def d2r(self, t):
        """r''(t)."""
        raise NotImplementedError

    @cached_property
    def d2r0(self) -> float:
        """r''(0) as a float, from ``d2r`` once per model: E0 reads it on
        every call.  The cache sits in the instance ``__dict__``, outside
        the dataclass fields, so equality and hashing are unchanged."""
        return float(self.d2r(0.0))


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

    def r_terms(self, t):
        half = 0.5 * np.asarray(t, dtype=float)
        lc = _log_cosh(half)
        r = np.exp(-0.5 * self.d * lc)
        return r, -0.25 * self.d * np.tanh(half) * r, -np.expm1(-self.d * lc)

    def d2r(self, t):
        # r'' = -(d/8) r (1 - (1 + d/2) tanh^2(t/2)), the derivative of
        # r' = -(d/4) tanh(t/2) r with sech^2 = 1 - tanh^2
        half = 0.5 * np.asarray(t, dtype=float)
        th = np.tanh(half)
        return -0.125 * self.d * np.exp(-0.5 * self.d * _log_cosh(half)) * (1.0 - (1.0 + 0.5 * self.d) * th * th)


@dataclass(frozen=True)
class RandomAcceleration(CovarianceModel):
    name = "random_acceleration"

    def r_terms(self, t):
        # r' = 3/4 (e^{-3t/2} - e^{-t/2}) = 3/4 e^{-t/2} expm1(-t), without
        # cancellation near 0; 1 - r^2 factors exactly as (1-x)^2 (4-x) / 4
        # with x = e^{-t} and 1 - x = -expm1(-t).
        t = np.asarray(t, dtype=float)
        x = np.exp(-t)
        h = np.exp(-0.5 * t)
        em = np.expm1(-t)
        m = -em
        return 0.5 * (3.0 - x) * h, 0.75 * h * em, 0.25 * m * m * (4.0 - x)

    def d2r(self, t):
        # r'' = 3/8 (e^{-t/2} - 3 e^{-3t/2}) = 3/8 e^{-t/2} (1 - 3 e^{-t})
        t = np.asarray(t, dtype=float)
        return 0.375 * np.exp(-0.5 * t) * (1.0 - 3.0 * np.exp(-t))


@dataclass(frozen=True)
class ShiftedGaussian(CovarianceModel):
    alpha: float = 0.0

    name = "shifted_gaussian"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ModelSpecError(f"shifted_gaussian shift must satisfy alpha >= 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    # t * t overflows to inf above t ~ 1.3e154, where e^{-t^2/2} is 0 anyway
    @np.errstate(over="ignore")
    def r_terms(self, t):
        # 1 - cos^2(at) e^{-t^2} = -expm1(-t^2) + e^{-t^2} sin^2(at)
        t = np.asarray(t, dtype=float)
        a = self.alpha
        s, c = np.sin(a * t), np.cos(a * t)
        g = np.exp(-0.5 * t * t)
        tt = t * t
        return c * g, -(a * s + t * c) * g, -np.expm1(-tt) + np.exp(-tt) * s * s

    @np.errstate(over="ignore")
    def d2r(self, t):
        # r'' = ((t^2 - 1 - a^2) cos(at) + 2 a t sin(at)) e^{-t^2/2}; the
        # factor takes t at min(t, 1e3), where e^{-t^2/2} is long 0, so it
        # stays finite and inf * 0 never forms
        t = np.asarray(t, dtype=float)
        a = self.alpha
        tc = np.minimum(t, 1e3)
        return ((tc * tc - 1.0 - a * a) * np.cos(a * t) + 2.0 * a * tc * np.sin(a * t)) * np.exp(-0.5 * t * t)


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
# p_{m-1} - t^2 p_{m-2}, which appears in r''(t) = -e^{-t} (p_{m-1} - t^2 p_{m-2})(t) / p_m(0):
# d/dt e^{-t} p_k(t) = -t e^{-t} p_{k-1}(t) for every k >= 1
_MATERN_POLY_D2 = {
    nu: np.polysub(_MATERN_POLY_LOWER[nu], np.append(_bessel_poly(int(nu - 2.5)), [0.0, 0.0])) for nu in MATERN_NU_VALUES
}
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
    def _poly(self):
        return _MATERN_POLY[self.nu]

    @property
    def _c(self) -> float:
        return float(self._poly[-1])

    def d2r(self, t):
        # the polynomial at min(t, 1e3), as in r_terms
        t = np.asarray(t, dtype=float)
        return -np.exp(-t) * np.polyval(_MATERN_POLY_D2[self.nu], np.minimum(t, 1e3)) / self._c

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

    def r_terms(self, t):
        # e^{-t} is 0 above t ~ 745.2, and p(t) overflows above t ~ 1e77
        # (nu = 4.5): the polynomials are evaluated at min(t, 1e3), which
        # avoids 0 * inf.  r' = -t e^{-t} p_{m-1}(t) / c.  Past t = 700,
        # r < 1e-290 and c e^t overflows near t = 709.8, so 1 - r is formed
        # directly there.
        t = np.asarray(t, dtype=float)
        e = np.exp(-t)
        tc = np.minimum(t, 1e3)
        r = e * np.polyval(self._poly, tc) / self._c
        far = t > 700.0
        near = e * self._c_exp_minus_poly(np.where(far, 0.0, t)) / self._c
        dr = -t * e * np.polyval(_MATERN_POLY_LOWER[self.nu], tc) / self._c
        return r, dr, np.where(far, 1.0 - r, near) * (1.0 + r)


@dataclass(frozen=True)
class GeneralizedLaplace(CovarianceModel):
    alpha: float = 1.0

    name = "generalized_laplace"

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ModelSpecError(f"generalized_laplace exponent must be > 0, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))

    # t * t overflows to inf above t ~ 1.3e154: from _FAR_T on,
    # lp = log1p(t^2/2) is 2 log t - log 2 (they differ by log1p(2/t^2)).
    # e^{-(alpha+1) lp} is subnormal or 0 once (alpha+1) lp exceeds
    # _LOG_TINY, long before t scales it back up (t ~ 1e77 at alpha = 1):
    # there, and from _FAR_T on, r' = -alpha e^{log t - (alpha+1) lp}.
    _FAR_T = 1e150
    _LOG_TINY = -math.log(np.finfo(float).tiny)

    @classmethod
    @np.errstate(over="ignore")
    def _log_terms(cls, t):
        """(far, log1p(t^2/2)) of the array ``t``."""
        far = t >= cls._FAR_T
        return far, np.where(far, 2.0 * np.log(np.where(far, t, 1.0)) - math.log(2.0), np.log1p(0.5 * t * t))

    def r_terms(self, t):
        t = np.asarray(t, dtype=float)
        far, lp = self._log_terms(t)
        a1 = self.alpha + 1.0
        deep = far | (a1 * lp > self._LOG_TINY)
        log_t = np.log(np.where(deep, np.abs(t), 1.0))
        dr = np.where(deep, -self.alpha * np.copysign(np.exp(log_t - a1 * lp), t), -self.alpha * t * np.exp(-a1 * lp))
        return np.exp(-self.alpha * lp), dr, -np.expm1(-2.0 * self.alpha * lp)

    def d2r(self, t):
        # r'' = -alpha e^{-(alpha+2) lp} (1 - (alpha + 1/2) t^2).  Where
        # e^{-(alpha+2) lp} leaves the normal doubles, and from _FAR_T on
        # (t^2 overflows), the t^2 term is formed from log t, as r' is:
        # alpha (alpha + 1/2) e^{2 log t - (alpha+2) lp}
        t = np.asarray(t, dtype=float)
        far, lp = self._log_terms(t)
        a = self.alpha
        a2 = a + 2.0
        deep = far | (a2 * lp > self._LOG_TINY)
        near = np.where(deep, 0.0, t)
        log_t = np.log(np.where(deep, np.abs(t), 1.0))
        e = np.exp(-a2 * lp)
        return np.where(deep, a * (a + 0.5) * np.exp(2.0 * log_t - a2 * lp) - a * e, -a * e * (1.0 - (a + 0.5) * near * near))


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
    """Autocovariance of the sign of the process: (2/pi) arcsin(r(t)), and
    its limit 0 at infinite t (where r may be NaN, as cos(inf) is).  Where
    r > 1/2 it is 1 - (2/pi) arcsin sqrt(1 - r^2) from the compensated
    1 - r^2, so 1 minus it keeps its digits near t = 0."""
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    with np.errstate(invalid="ignore"):
        r, _, one_minus_r2 = model.r_terms(ts)
        near = (2.0 / math.pi) * np.arcsin(np.sqrt(np.minimum(one_minus_r2, 1.0)))
        out = np.where(r > 0.5, 1.0 - near, (2.0 / math.pi) * np.arcsin(r))
    out[np.isinf(ts)] = 0.0
    return out if t.ndim else float(out[0])
