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

Besides r and r', each model exposes a numerically stable ``one_minus_r2``
(for 1 - r(t)^2, which suffers catastrophic cancellation near t = 0 when
formed naively) and a closed-form evaluation of the clipped-expectation
survival function used as an independent cross-check downstream.
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
    "MODEL_FACTORIES",
    "MATERN_NU_VALUES",
    "MAX_DIFFUSION_DIM",
    "parse_model_spec",
    "builtin_models",
    "eval_r",
    "eval_dr",
    "second_derivative_at_zero",
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
    def r0(self) -> float:
        return 1.0

    @property
    def params(self) -> dict:
        return {}

    def spec_string(self) -> str:
        """Canonical ``name(param=value,...)`` form accepted by the parser."""
        inner = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({inner})" if inner else self.name

    # tail metadata: ("exponential", rate) | ("superexponential", None)
    # | ("power", exponent). The rate is the asymptotic decay rate of the
    # survival function E0, used for Laplace truncation and pole bracketing.
    def tail_hint(self) -> tuple[str, float | None]:
        raise NotImplementedError

    def r(self, t):
        raise NotImplementedError

    def dr(self, t):
        raise NotImplementedError

    def d2r0(self) -> float:
        raise NotImplementedError

    def one_minus_r2(self, t):
        """1 - r(t)^2 without cancellation near t = 0."""
        raise NotImplementedError

    def e0_closed(self, t):
        """Closed-form clipped-expectation survival (cross-check path)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Diffusion(CovarianceModel):
    d: int = 2

    name = "diffusion"

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and 1 <= self.d <= MAX_DIFFUSION_DIM):
            raise ModelSpecError(
                f"diffusion dimension must be an integer in [1, {MAX_DIFFUSION_DIM}], got {self.d!r}"
            )
        object.__setattr__(self, "d", int(self.d))

    @property
    def params(self):
        return {"d": self.d}

    def tail_hint(self):
        return ("exponential", self.d / 4.0)

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

    def e0_closed(self, t):
        # sech(t/2) * sqrt((d/2) * sinh(t/2)^2 / (cosh(t/2)^d - 1)),
        # with cosh^d - 1 = expm1(d log cosh) and a log-space fallback
        # when that exponent would overflow.
        t = np.asarray(t, dtype=float)
        lc = _log_cosh(0.5 * t)
        sh = np.sinh(0.5 * t)
        dlc = self.d * lc
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = np.where(
                dlc < 700.0,
                sh * sh / np.expm1(np.where(dlc < 700.0, dlc, 0.0)),
                np.exp(2.0 * np.log(np.where(sh > 0, sh, 1.0)) - dlc),
            )
            val = np.exp(-lc) * np.sqrt(0.5 * self.d * ratio)
        return np.where(t == 0.0, 1.0, val)


@dataclass(frozen=True)
class RandomAcceleration(CovarianceModel):
    name = "random_acceleration"

    def tail_hint(self):
        return ("exponential", 0.5)

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

    def e0_closed(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            val = np.sqrt(3.0 / (4.0 * np.exp(t) - 1.0))
        return val


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

    def tail_hint(self):
        return ("superexponential", None)

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

    def e0_closed(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha
        tt = t * t
        num = (a * np.sin(a * t) + t * np.cos(a * t)) * np.exp(-0.5 * tt)
        s = np.sin(a * t)
        den = np.sqrt(-np.expm1(-tt) + np.exp(-tt) * s * s)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = num / (math.sqrt(1.0 + a * a) * den)
        return np.where(t == 0.0, 1.0, val)


# Half-integer Matern polynomials: for nu = m + 1/2 the Bessel factor
# reduces to  r(t) = e^{-t} p_m(t) / p_m(0)  with
# p_m(t) = sum_k (m+k)!/((m-k)! k!) 2^{-k} t^{m-k}  and  p_m(0) = (2m-1)!!.
_MATERN_POLY = {
    2.5: np.array([1.0, 3.0, 3.0]),
    3.5: np.array([1.0, 6.0, 15.0, 15.0]),
    4.5: np.array([1.0, 10.0, 45.0, 105.0, 105.0]),
}
# p_{m-1}, which appears in r'(t) = -t e^{-t} p_{m-1}(t) / p_m(0).
_MATERN_POLY_LOWER = {
    2.5: np.array([1.0, 1.0]),
    3.5: np.array([1.0, 3.0, 3.0]),
    4.5: np.array([1.0, 6.0, 15.0, 15.0]),
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

    def tail_hint(self):
        # e^{-t} decay with a polynomial factor of degree nu - 1/2
        return ("exponential", 1.0)

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
        t = np.asarray(t, dtype=float)
        p = np.polyval(self._poly, t)
        one_minus_r = np.exp(-t) * self._c_exp_minus_poly(t) / self._c
        return one_minus_r * (1.0 + np.exp(-t) * p / self._c)

    def e0_closed(self, t):
        # sqrt(2(nu-1)) t p_{m-1}(t) / sqrt(c^2 e^{2t} - p_m(t)^2), the
        # half-integer reduction of the Bessel-form survival; the
        # difference of squares is split so the leading terms cancel
        # analytically rather than in floating point.
        t = np.asarray(t, dtype=float)
        p = np.polyval(self._poly, t)
        delta = self._c_exp_minus_poly(t) * (self._c * np.exp(t) + p)
        num = math.sqrt(2.0 * (self.nu - 1.0)) * t * np.polyval(self._poly_lower, t)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = num / np.sqrt(delta)
        return np.where(t == 0.0, 1.0, val)


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

    def tail_hint(self):
        # survival decays like t^{-(1+2 alpha)}
        return ("power", -(1.0 + 2.0 * self.alpha))

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

    def e0_closed(self, t):
        t = np.asarray(t, dtype=float)
        a = self.alpha
        lg = np.log1p(0.5 * t * t)
        num = math.sqrt(a) * t * np.exp(-(1.0 + a) * lg)
        den = np.sqrt(-np.expm1(-2.0 * a * lg))
        with np.errstate(invalid="ignore", divide="ignore"):
            val = num / den
        return np.where(t == 0.0, 1.0, val)


# ---------------------------------------------------------------------------
# spec-string parsing


def _make_diffusion(d=2, **kw):
    _reject_extra("diffusion", kw)
    if float(d) != int(float(d)):
        raise ModelSpecError(f"diffusion dimension must be an integer, got {d!r}")
    return Diffusion(d=int(float(d)))


def _make_random_acceleration(**kw):
    _reject_extra("random_acceleration", kw)
    return RandomAcceleration()


def _make_shifted_gaussian(alpha=0.0, **kw):
    _reject_extra("shifted_gaussian", kw)
    return ShiftedGaussian(alpha=float(alpha))


def _make_matern(nu=2.5, **kw):
    _reject_extra("matern", kw)
    return MaternHalfInteger(nu=float(nu))


def _make_generalized_laplace(alpha=1.0, **kw):
    _reject_extra("generalized_laplace", kw)
    return GeneralizedLaplace(alpha=float(alpha))


def _reject_extra(name, kw):
    if kw:
        raise ModelSpecError(f"unknown parameter(s) {sorted(kw)} for model '{name}'")


MODEL_FACTORIES = {
    "diffusion": _make_diffusion,
    "random_acceleration": _make_random_acceleration,
    "shifted_gaussian": _make_shifted_gaussian,
    "matern": _make_matern,
    "matern_half_integer": _make_matern,
    "generalized_laplace": _make_generalized_laplace,
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
    factory = MODEL_FACTORIES.get(name)
    if factory is None:
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
        return factory(**kwargs)
    except TypeError:
        raise ModelSpecError(f"invalid parameters for model {name!r}; {_USAGE}") from None


def builtin_models() -> list[CovarianceModel]:
    """A representative instance of every built-in family."""
    return [
        Diffusion(d=2),
        RandomAcceleration(),
        ShiftedGaussian(alpha=0.0),
        MaternHalfInteger(nu=2.5),
        GeneralizedLaplace(alpha=1.0),
    ]


# ---------------------------------------------------------------------------
# functional surface


def eval_r(model: CovarianceModel, t):
    """Autocovariance r(t) at lag t >= 0."""
    return model.r(t)


def eval_dr(model: CovarianceModel, t):
    """First derivative r'(t)."""
    return model.dr(t)


def second_derivative_at_zero(model: CovarianceModel) -> float:
    """r''(0), strictly negative for every model in the catalog."""
    return model.d2r0()


def clipped_autocovariance(model: CovarianceModel, t):
    """Autocovariance of the sign of the process: (2/pi) arcsin(r(t))."""
    return (2.0 / math.pi) * np.arcsin(model.r(t))
