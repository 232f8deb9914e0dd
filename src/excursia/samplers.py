"""Exact samplers for the geometric divisor and the compound exceedance time.

Every sampler takes an integer n and returns an array of n draws.  A
divisor draw is T = E0^{-1}(U) from a single uniform.  The
inverse is a closed form for diffusion d = 1, d = 2 and random
acceleration; for every other model, shifted_gaussian(alpha=0) included,
it is read from one cached inverse table per model (numerical inversion
from a fixed table, after Hoermann & Leydold 2003, ACM TOMACS 13(4)).
Every inverse must satisfy the round-trip oracle
|E0(T(U)) - U| <= 1e-9, and the table also |E0(T(U))/U - 1| <= 1e-9 on
[eps, 1 - eps].  The size-biased divisor (density t f(t)/m, m = mu/2) is
drawn the same way, from a table of its closed-form survival (see
``_size_biased_survival``).  The exceedance time itself is the compound draw

    T_a = sum of nu_geo iid divisor draws,   nu_geo ~ Geometric(1/2),

where nu_geo counts trials up to the first success, so P(nu_geo = k) = 2^-k
and E[nu_geo] = 2.

Numerical notes on the closed forms:

* random acceleration: T = ln(3/U^2 + 1) - 2 ln 2.  The constant under the
  logarithm is 3, not 2: it is forced by E0(t)^2 = 3/(4 e^t - 1) (U = 1
  must map to T = 0) and checked by the round-trip oracle.  A 2/U^2
  variant of this inverse that circulates in print fails that oracle.
* one-dimensional diffusion: the survival satisfies
  2 U^2 = y + y^2 with y = sech(T/2), so T = 2 arccosh(1/y) with
  y = (sqrt(1 + 8 U^2) - 1)/2.  A nested-radical closed form that
  circulates in print fails the round-trip oracle (U = 0.5 gives 2.485
  where the survival inverse requires 3.32578) and is not used.

The inverse table of a survival S (E0 or the size-biased S*): S is
evaluated once, vectorised, at t = 0 and on geometric nodes from 1e-3
(where 1 - S is resolved in floating point) up to the first power of two
where S < eps/4.  A survival that is not positive there (it crosses zero
within the validity gate's tolerance, as shifted_gaussian does for alpha
near the gate's limit) ends instead at a point bisected back to
0 < S < eps/4.  With z = sqrt(-log S) and
x = log1p(t), x(z) is close to linear near t = 0 (1 - S ~ c t^2 or c t^3) and
smooth in exponential, superexponential and power tails, so a cubic
spline of x in z meets the relative round trip to about 1e-11.  Near a
zero crossing x(z) flattens; the build checks the round trip at the
midpoint in z of every interval reaching U >= eps and halves in t the
intervals that miss 1e-10, until none does (smooth tails pass the first
check).  A draw is t = max(expm1(x(sqrt(-log U))), 0); the spline piece
holding z = sqrt(-log U) is found through a guide table on log z (one cell
index and one compare for a smooth table, see ``_InverseTable``), not by a
binary search, and the result equals the spline's own evaluation bit for
bit.

``g_forward``/``g_inverse``/``poly_inverse_b`` are the recursive-minimum
construction of the diffusion divisor for d >= 3 (T_d = min(T_{d-1},
G_d^{-1}(U^2)), d - 1 uniforms per draw).  No draw uses them; tests keep
them as an independent oracle for the table.

All samplers are pure functions of an RngStream, so replications on
distinct stream indices are independent and reproducible regardless of
scheduling.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .covariance import CovarianceModel, Diffusion, RandomAcceleration, _log_cosh
from . import slepian

__all__ = [
    "RngStream",
    "InverseTableError",
    "DivisorSampler",
    "poly_inverse_b",
    "g_forward",
    "g_inverse",
    "sample_divisor",
    "sample_geometric_half",
    "sample_excursions",
    "gaussian_divisor_density",
]

_EPS = np.finfo(float).eps  # uniforms clamped to the open interval (0, 1)
_LN2 = math.log(2.0)

# Inverse table: node count, first node after t = 0, the survival level
# the last node must fall below, the relative round trip the refinement
# aims for at every interval midpoint, and the most checks (each halves
# the intervals that miss it).
_TABLE_NODES = 4096
_TABLE_T_FIRST = 1e-3
_TABLE_TAIL = _EPS / 4.0
_TABLE_RTOL = 1e-10
_TABLE_ROUNDS = 24


class InverseTableError(RuntimeError):
    """An inverse table cannot be built within its round-trip contract."""


class RngStream:
    """Deterministic random stream keyed by (seed, stream_index).

    Equal keys reproduce the same sequence bit for bit; distinct stream
    indices give statistically independent streams, so replications and
    workers can each own one.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        self.gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        )

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"

    def replicate(self, offset: int) -> "RngStream":
        """A fresh stream for replication ``offset`` of this stream's seed."""
        return RngStream(self.seed, self.stream_index + offset)

    def uniform01(self, size) -> np.ndarray:
        """An array of uniforms of ``size`` (a count or a shape), clamped to
        the open interval; 0 maps to +inf draws and 1 to zero-length draws,
        so exact endpoints are never emitted."""
        u = self.gen.random(size)
        return np.clip(u, _EPS, 1.0 - _EPS)


# ---------------------------------------------------------------------------
# survival inversion: closed forms and the cached inverse table


def _diffusion_d2_from_u(u):
    # sech(T/2) = U exactly: T = 2 ln((1 + sqrt(1 - U^2))/U)
    m = (1.0 - u) * (1.0 + u)
    return 2.0 * (np.log1p(np.sqrt(m)) - np.log(u))


def _diffusion_d1_from_u(u):
    # 2 U^2 = y + y^2 with y = sech(T/2); the positive root, formed
    # without subtraction so tiny U keeps full precision.
    y = 4.0 * u * u / (1.0 + np.sqrt(1.0 + 8.0 * u * u))
    return 2.0 * np.arccosh(1.0 / y)


def _random_acceleration_from_u(u):
    # T = ln(3/U^2 + 1) - 2 ln 2, the exact inverse of sqrt(3/(4e^t - 1))
    return np.maximum(np.log1p(3.0 / (u * u)) - 2.0 * _LN2, 0.0)


def _size_biased_survival(model: CovarianceModel, t):
    """Survival of the size-biased divisor, S*(t) = (t E0(t) + int_t^inf E0)/m
    with m = mu/2.  The matching identity d/dt (2/pi) arcsin r = -(2/mu) E0
    integrates to int_t^inf E0 = (mu/pi) arcsin r(t), so

        S*(t) = 2 t E0(t)/mu + (2/pi) arcsin r(t).

    Where r > 1/2, (2/pi) arcsin r is formed as 1 - (2/pi) arcsin sqrt(1 - r^2)
    from the compensated 1 - r^2, so 1 - S* keeps its digits near t = 0."""
    t = np.asarray(t, dtype=float)
    bias = 2.0 * t * slepian.e0(model, t) / slepian.mean_excursion(model)
    r = model.r(t)
    near = (2.0 / math.pi) * np.arcsin(np.sqrt(np.minimum(model.one_minus_r2(t), 1.0)))
    out = np.where(r > 0.5, 1.0 - (near - bias), bias + (2.0 / math.pi) * np.arcsin(r))
    return out if out.ndim else float(out)


def _table_end(survival, model: CovarianceModel) -> float:
    """Last table node: the first power of two where the survival is below
    eps/4, or, when it is not positive there (a survival that crosses zero
    within the validity gate's tolerance), a point bisected between it and
    the power of two before where 0 < survival < eps/4."""
    powers = 2.0 ** np.arange(64)
    with np.errstate(all="ignore"):
        below = np.flatnonzero(np.asarray(survival(model, powers)) < _TABLE_TAIL)
    if below.size == 0:
        raise InverseTableError(f"survival of {model.spec_string()} stays above {_TABLE_TAIL:.3g} up to t = 2^63")
    lo, hi = (powers[below[0] - 1] if below[0] else 0.0), powers[below[0]]
    while survival(model, hi) <= 0.0:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            raise InverseTableError(f"survival of {model.spec_string()} crosses zero before it falls below {_TABLE_TAIL:.3g}")
        if survival(model, mid) < _TABLE_TAIL:
            hi = mid
        else:
            lo = mid
    return hi


class _InverseTable:
    """The table's cubic spline of log1p(t) in z, evaluated through a guide
    table (indexed search: Chen & Asau 1974; Hoermann, Leydold & Derflinger
    2004, sec. 3.1.2) in place of a binary search per draw.

    log z is cut into twice as many equal cells as there are knots, and
    ``guide[c]`` counts the interior knots in the cells before c.  The knots
    are geometric in t, so close to uniform in log z, and a cell of a smooth
    table holds at most one knot: the interval of z is ``guide[c]`` plus one
    compare.  z in a cell holding more knots (power tails, refined zero
    crossings) is located by binary search.  The cubic is evaluated in the
    power form and order of scipy's ``PPoly``, so a call equals
    ``spline(z)`` bit for bit.
    """

    def __init__(self, spline: CubicSpline):
        self.spline = spline
        self.x, self.c = spline.x, spline.c
        inner = self.x[1:-1]
        self.cells = 2 * self.x.size
        self.log_lo = math.log(inner[0])
        self.scale = self.cells / (math.log(inner[-1]) - self.log_lo)
        knot_cell = self._cell(inner)
        self.guide = np.searchsorted(knot_cell, np.arange(self.cells))
        crowded = np.bincount(knot_cell, minlength=self.cells) > 1
        self.crowded = crowded if crowded.any() else None

    def _cell(self, z):
        with np.errstate(divide="ignore"):
            v = (np.log(z) - self.log_lo) * self.scale
        # fmax/fmin send NaN to cell 0, where it stays NaN through the cubic
        return np.fmin(np.fmax(v, 0.0), self.cells - 1).astype(np.intp)

    def interval(self, z):
        """Index i of the spline piece for each z in the array ``z`` (at
        least 1-d): clip(searchsorted(x, z, "right") - 1, 0, n - 2)."""
        c = self._cell(z)
        g = self.guide[c]
        i = g + (z >= self.x[1:][g])
        if self.crowded is not None:
            crowded = self.crowded[c]
            i[crowded] = np.searchsorted(self.x[1:-1], z[crowded], "right")
        return i

    def __call__(self, z):
        i = self.interval(z)
        d = z - self.x[i]
        d2 = d * d
        c = self.c
        return c[3][i] + c[2][i] * d + c[1][i] * d2 + c[0][i] * (d2 * d)


@lru_cache(maxsize=128)
def _inverse_table(survival, model: CovarianceModel) -> _InverseTable:
    """Cubic spline of log1p(t) in z = sqrt(-log survival(model, t)) on the
    table nodes, refined until it meets the round trip (see the module
    notes), with its guide table.  ``survival`` is ``slepian.e0`` or
    ``_size_biased_survival``.

    Raises ``InverseTableError`` when the last node cannot be placed, when z is
    not strictly increasing on the nodes (the survival not strictly
    decreasing there), or when the refined table still misses the relative
    round trip 1e-9 on [eps, 1]; there is no fallback inverter.
    """
    t = np.concatenate(([0.0], np.geomspace(_TABLE_T_FIRST, _table_end(survival, model), _TABLE_NODES - 1)))
    e = survival(model, t)
    z_eps = math.sqrt(-math.log(_EPS))
    for check in range(_TABLE_ROUNDS):
        with np.errstate(invalid="ignore"):
            z = np.sqrt(-np.log(e))
        if not np.all(np.diff(z) > 0.0):
            raise InverseTableError(f"survival of {model.spec_string()} is not strictly decreasing on the inverse-table nodes")
        spline = CubicSpline(z, np.log1p(t))
        # the intervals that reach u >= eps (the first k) are checked at
        # their midpoint in z, or at u = eps if the midpoint lies below it
        k = np.searchsorted(z, z_eps)
        zc = np.minimum(0.5 * (z[:k] + z[1 : k + 1]), z_eps)
        uc = np.exp(-zc * zc)
        err = np.abs(survival(model, np.maximum(np.expm1(spline(zc)), 0.0)) / uc - 1.0)
        miss = np.flatnonzero(err > _TABLE_RTOL)
        if miss.size == 0 or check == _TABLE_ROUNDS - 1:
            break
        # halve the intervals that miss in t
        tm = 0.5 * (t[miss] + t[miss + 1])
        t = np.insert(t, miss + 1, tm)
        e = np.insert(e, miss + 1, survival(model, tm))
    if not np.all(err <= 1e-9):
        raise InverseTableError(f"inverse table of {model.spec_string()} misses the relative round trip 1e-9 by {err.max():.3g}")
    return _InverseTable(spline)


def _table_inverse(survival, model: CovarianceModel, u):
    """survival^{-1}(u) for an array ``u`` (at least 1-d) from the cached
    inverse table of (survival, model)."""
    x = _inverse_table(survival, model)(np.sqrt(-np.log(u)))
    return np.maximum(np.expm1(x), 0.0)


_CLOSED_FORM_INVERSES = {
    Diffusion(d=1): _diffusion_d1_from_u,
    Diffusion(d=2): _diffusion_d2_from_u,
    RandomAcceleration(): _random_acceleration_from_u,
}


def _inverse_survival(model: CovarianceModel, u):
    """E0^{-1}(u): closed form for diffusion d = 1, 2 and random
    acceleration, the cached inverse table for every other model."""
    closed = _CLOSED_FORM_INVERSES.get(model)
    return closed(u) if closed else _table_inverse(slepian.e0, model, u)


# ---------------------------------------------------------------------------
# recursive-minimum oracle for diffusion d >= 3 (tests only)


def poly_inverse_b(d: int, a, tol: float = 1e-12):
    """Invert a(b) = 1 + b + ... + b^(d-1) on b >= 0 for a >= 1.

    Newton iteration from b0 = (a - 1)/(d - 1); the polynomial is convex
    and increasing, so a bracket [0, max(1, a^(1/(d-1)))] safeguards every
    step.  Terminates with |a(b) - a| <= tol * a.
    """
    if d < 3:
        raise ValueError("poly_inverse_b is defined for d >= 3")
    scalar = np.ndim(a) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if np.any(a < 1.0):
        raise ValueError("polynomial inverse requires a >= 1")
    coef = np.ones(d)
    dcoef = np.arange(d - 1, 0, -1, dtype=float)
    lo = np.zeros_like(a)
    hi = np.maximum(1.0, a ** (1.0 / (d - 1)))
    # clamp the start into the bracket: the plain starting point overshoots
    # badly for a >> d, where the root is just above a^(1/(d-1))
    b = np.minimum((a - 1.0) / (d - 1.0), hi)
    remaining = np.arange(a.size)
    for _ in range(200):
        if remaining.size == 0:
            break
        bb = b[remaining]
        f = np.polyval(coef, bb) - a[remaining]
        done = np.abs(f) <= tol * a[remaining]
        idx = remaining[~done]
        remaining = idx
        if idx.size == 0:
            break
        bb = b[idx]
        f = f[~done]
        pos = f > 0
        hi[idx[pos]] = bb[pos]
        lo[idx[~pos]] = bb[~pos]
        step = bb - f / np.polyval(dcoef, bb)
        bad = ~np.isfinite(step) | (step <= lo[idx]) | (step >= hi[idx])
        step[bad] = 0.5 * (lo[idx[bad]] + hi[idx[bad]])
        b[idx] = step
    return float(b[0]) if scalar else b


def g_forward(d: int, t):
    """The survival factor linking consecutive diffusion dimensions:
    G_d(t) = d (cosh^(d-1)(t/2) - 1) / ((d-1)(cosh^d(t/2) - 1))."""
    if d < 3:
        raise ValueError("g_forward is defined for d >= 3")
    t = np.asarray(t, dtype=float)
    lc = _log_cosh(0.5 * t)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = d * np.expm1((d - 1) * lc) / ((d - 1) * np.expm1(d * lc))
    return np.where(t == 0.0, 1.0, val)


def g_inverse(d: int, g):
    """Inverse of ``g_forward`` on (0, 1): with a = d/(d - g(d-1)) and
    b the polynomial inverse, t = 2 arccosh(1/b)."""
    if d < 3:
        raise ValueError("g_inverse is defined for d >= 3")
    scalar = np.ndim(g) == 0
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any((g <= 0.0) | (g >= 1.0)):
        raise ValueError("g must lie strictly inside (0, 1)")
    a = d / (d - g * (d - 1))
    b = poly_inverse_b(d, a)
    # g small enough that a rounds to 1 gives b = 0: the survival inverse
    # there is +inf, which the recursive minimum absorbs harmlessly
    with np.errstate(divide="ignore"):
        t = 2.0 * np.arccosh(1.0 / b)
    return float(t[0]) if scalar else t


# ---------------------------------------------------------------------------
# squared-exponential (shift 0) divisor density (tests only)


def gaussian_divisor_density(t):
    """Density of the squared-exponential divisor, -dE0/dt of
    shifted_gaussian(alpha=0) (an oracle for its inverse-table draws),
    f(t) = (e^{t^2}(t^2 - 1) + 1) / (e^{t^2} - 1)^{3/2},
    evaluated in cancellation-free branches for small and large t."""
    t = np.asarray(t, dtype=float)
    tt = t * t
    small = tt < 35.0
    tts = np.where(small, tt, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f_small = (tts * np.exp(tts) - np.expm1(tts)) / np.expm1(tts) ** 1.5
        f_large = ((tt - 1.0) * np.exp(-0.5 * tt) + np.exp(-1.5 * tt)) / (-np.expm1(-tt)) ** 1.5
    out = np.where(small, f_small, f_large)
    return np.where(tt == 0.0, 0.0, out)


class DivisorSampler:
    """Divisor distribution of a model bundled with its sampling strategy:
    survival E0, mean mu/2 and the model's validity report.

    Construction runs the validity gate: models whose clipped expectation
    oscillates (or is non-integrable) are refused with their report.
    """

    def __init__(self, model: CovarianceModel):
        self.model = model
        self.report = slepian.require_usable(model)
        self.mean = slepian.mean_excursion(model) / 2.0

    def survival(self, t):
        return slepian.e0(self.model, t)

    def draw(self, rng: RngStream, n: int) -> np.ndarray:
        return _inverse_survival(self.model, rng.uniform01(n))

    def size_biased_draw(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw from the size-biased divisor (density t f(t)/mean), one
        uniform per draw through the inverse table of its survival."""
        return _table_inverse(_size_biased_survival, self.model, rng.uniform01(n))


def sample_divisor(model: CovarianceModel, rng: RngStream, n: int) -> np.ndarray:
    """Validity-gated divisor draws dispatched to the model's sampler."""
    return DivisorSampler(model).draw(rng, n)


# ---------------------------------------------------------------------------
# compound exceedance sampling


def sample_geometric_half(rng: RngStream, n: int) -> np.ndarray:
    """Geometric(1/2) counts on {1, 2, ...} by inversion
    (ceil(log U / log 1/2)), chosen over Bernoulli looping for
    determinism: exactly one uniform per draw."""
    u = rng.uniform01(n)
    return np.maximum(np.ceil(np.log(u) / math.log(0.5)), 1.0).astype(np.int64)


def sample_excursions(source, rng: RngStream, n: int):
    """Vectorized compound draws.

    Returns ``(values, counts)``, two arrays of length ``n``: each value is
    the sum of ``counts[i]`` divisor draws, with counts Geometric(1/2).
    ``source`` is a model or any object with a ``draw(rng, n)`` method.
    """
    src = DivisorSampler(source) if isinstance(source, CovarianceModel) else source
    counts = sample_geometric_half(rng, n)
    draws = src.draw(rng, int(counts.sum()))
    values = np.add.reduceat(draws, np.cumsum(counts) - counts)
    return values, counts
