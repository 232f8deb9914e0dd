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
``_size_biased_law``).  The exceedance time itself is the compound draw

    T_a = sum of nu_geo iid divisor draws,   nu_geo ~ Geometric(1/2),

where nu_geo counts trials up to the first success, so P(nu_geo = k) = 2^-k
and E[nu_geo] = 2.  n compounds are drawn as a multiset, with no
per-compound counts (``excursion_multiset``): binomial level sizes, the
exact histogram of the n counts, and one divisor draw call per level.
The ordered draw (``sample_excursions``) shuffles such multisets a block
at a time.  The tail regressions read only the k largest values:
``DivisorSampler.largest`` inverts only the k smallest uniforms of a
divisor draw, and ``excursion_largest`` only the compounds of a multiset
that can reach the k largest.  Both consume every uniform of the full
draw and return its k largest bit for bit.

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

An inverse table inverts a law: a function that returns a survival S and
its density g = -S' at an array of t, from one ``r_terms`` and one ``d2r``
evaluation (``_divisor_law``: E0 and f = -E0';
``_size_biased_law``: S* and t f / m).  The build reads S and g only
from the law, at t = 0 and on geometric nodes from 1e-3 (where 1 - S is
resolved in floating point) up to the first power of two from 2^-9 on
where S < eps/4.  A survival that is negative there has z = NaN at that
node, and the build refuses it as not strictly decreasing; no catalog
model the validity gate accepts gets there, for E0 or S*.  With
z = sqrt(-log S) and x = log1p(t), x(z) is smooth in exponential,
superexponential and power tails, and the table is the cubic Hermite
interpolant of x in z (Hoermann & Leydold 2003) with the exact slope
dx/dz = 2 z S / ((1 + t) g) at every knot but t = 0.  There the slope is
0/0; it takes its limit, estimated as the slope at z = 0 of the quadratic
through the first two knots with the exact slope at the second, which is
exact where x is quadratic in z (1 - S linear in t, as for random
acceleration's E0) and right to order z^2 where x is smooth in z
(1 - S ~ c t^2).  Each piece depends on its two knots only, so the build
is one vectorised step (``_hermite``), and smooth tables meet the relative
round trip to a few 1e-12.  The build checks the round trip at the
midpoint in z of every interval reaching U >= eps and halves in t the
intervals that miss 1e-10, until none does (smooth tails pass the first
check).  A draw is
t = max(expm1(x(sqrt(-log U))), 0); the piece holding z = sqrt(-log U) is
found through a guide table on the leading bits of z (one cell index and
one compare for a smooth table, see ``_InverseTable``), not by a binary
search, and the result equals the evaluation after a binary search bit for
bit.  The coefficients equal those of scipy's ``CubicHermiteSpline`` bit
for bit.

All samplers are pure functions of an RngStream, so replications on
distinct stream indices are independent and reproducible regardless of
scheduling.  Every divisor sampler is also split-invariant: it turns the
next uniforms of its stream into draws one for one, so draw(rng, a)
followed by draw(rng, b) equals draw(rng', a + b) on an equal stream
(``test_draws_are_split_invariant``).  A draw takes its n uniforms in one
``uniform01`` call and inverts them in place (``_draws``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .covariance import CovarianceModel, Diffusion, RandomAcceleration
from . import slepian

__all__ = [
    "RngStream",
    "InverseTableError",
    "DivisorSampler",
    "sample_excursions",
    "excursion_multiset",
    "excursion_largest",
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
# Guide-table cells per octave of z, 2**_GUIDE_BITS (see _InverseTable).
_GUIDE_BITS = 10
# Compounds per block of the ordered draw: a block's multiset (512 KiB)
# and its level draws stay in cache through the shuffle.  Of 2^12 .. 2^18,
# 2^16 and 2^17 were fastest at 10^6 compounds (diffusion d = 2, matern 2.5).
_COMPOUNDS_PER_BLOCK = 1 << 16
# Relative margin on the bound E0(tau/nu) of ``excursion_largest``.  A
# compound of nu terms whose uniforms all exceed E0(tau/nu) (1 + margin) is
# below tau: by the round trip (1e-9 relative) E0 at each term t exceeds
# E0(tau/nu) by about 1e-6 relative, so t < (tau/nu)(1 - 1e-6/(h t)) with
# h = f/E0 the hazard there, and the rounded sum of nu such terms (relative
# error (nu - 1) eps) stays below tau while h t < 1e-6/(nu eps), about
# 4.5e9/nu.  Where E0 ~ exp(-c t^p), h t = p |log E0|, below 745 p until E0
# underflows.  The margin admits a relative 1e-6 more candidates.
_LARGEST_MARGIN = 1e-6
# Uniforms inverted at a time by ``_draws``: n draws hold n doubles and one
# chunk's temporaries (test_draws_allocate_little_beyond_their_result).
_DRAWS_PER_CHUNK = 1 << 13


class InverseTableError(slepian.NumericalFailure):
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
        return np.clip(u, _EPS, 1.0 - _EPS, out=u)


# ---------------------------------------------------------------------------
# survival inversion: closed forms and the cached inverse table


# Every inverse is a plain function of one chunk of uniforms that returns
# its draws; each is the expression of its oracle in ``tests/oracles.py``,
# with the same operations in the same order, so it equals it bit for bit.


def _diffusion_d2_from_u(u):
    # sech(T/2) = U exactly: T = 2 ln((1 + sqrt(1 - U^2))/U)
    return 2.0 * (np.log1p(np.sqrt((1.0 - u) * (1.0 + u))) - np.log(u))


def _diffusion_d1_from_u(u):
    # 2 U^2 = y + y^2 with y = sech(T/2); the positive root, formed
    # without subtraction so tiny U keeps full precision.
    uu = u * u
    return 2.0 * np.arccosh(1.0 / (4.0 * uu / (np.sqrt(8.0 * uu + 1.0) + 1.0)))


def _random_acceleration_from_u(u):
    # T = ln(3/U^2 + 1) - 2 ln 2, the exact inverse of sqrt(3/(4e^t - 1))
    return np.maximum(np.log1p(3.0 / (u * u)) - 2.0 * _LN2, 0.0)


def _divisor_law(model: CovarianceModel, t: np.ndarray):
    """(E0, f) at the 1-d array ``t``: the divisor's survival and its density
    f = -E0', from one ``slepian.divisor_terms`` evaluation."""
    return slepian.divisor_terms(model, t)[2:]


def _size_biased_law(model: CovarianceModel, t: np.ndarray):
    """(S*, g) at the 1-d array ``t``: the survival of the size-biased
    divisor, S*(t) = (t E0(t) + int_t^inf E0)/m with m = mu/2, and its
    density g = t f/m, from one ``slepian.divisor_terms`` evaluation.  The
    matching identity d/dt (2/pi) arcsin r = -(2/mu) E0 integrates to
    int_t^inf E0 = (mu/pi) arcsin r(t), so

        S*(t) = 2 t E0(t)/mu + (2/pi) arcsin r(t).

    Where r > 1/2, (2/pi) arcsin r is formed as 1 - (2/pi) arcsin sqrt(1 - r^2)
    from the compensated 1 - r^2, so 1 - S* keeps its digits near t = 0."""
    r, one_minus_r2, e, f = slepian.divisor_terms(model, t)
    mu = slepian.mean_excursion(model)
    bias = 2.0 * t * e / mu
    near = (2.0 / math.pi) * np.arcsin(np.sqrt(np.minimum(one_minus_r2, 1.0)))
    s = np.where(r > 0.5, 1.0 - (near - bias), bias + (2.0 / math.pi) * np.arcsin(r))
    return s, 2.0 * t * f / mu


def _table_end(law, model: CovarianceModel) -> float:
    """Last table node: the first power of two from 2^-9, the first above
    the first node, up to 2^1023, the largest in float64, where the
    survival of ``law`` is below eps/4."""
    powers = 2.0 ** np.arange(-9, 1024)
    with np.errstate(all="ignore"):
        below = np.flatnonzero(law(model, powers)[0] < _TABLE_TAIL)
    if below.size == 0:
        raise InverseTableError(f"survival of {model.spec_string()} stays above {_TABLE_TAIL:.3g} up to t = 2^1023")
    return float(powers[below[0]])


def _hermite(x: np.ndarray, y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Coefficients c[4, n - 1] of the cubic Hermite interpolant of (x, y)
    with slopes s at the knots, piece i being c[0, i] d^3 + c[1, i] d^2 +
    c[2, i] d + c[3, i] with d = z - x[i] (the layout and the arithmetic of
    scipy's ``CubicHermiteSpline.c``).  Each piece depends on its two knots
    only, so the build is one vectorised step."""
    dx = np.diff(x)
    m = np.diff(y) / dx
    t = (s[:-1] + s[1:] - 2 * m) / dx
    return np.stack((t / dx, (m - s[:-1]) / dx - t, s[:-1], y[:-1]))


class _InverseTable:
    """The table's piecewise cubic of log1p(t) in z, evaluated through a guide
    table (indexed search: Chen & Asau 1974; Hoermann, Leydold & Derflinger
    2004, sec. 3.1.2) in place of a binary search per draw.

    The cell of z is the top bits of its IEEE pattern (sign, exponent and
    _GUIDE_BITS mantissa bits), which are monotone in z >= 0: 2**_GUIDE_BITS
    cells per octave from the first interior knot to the last, and no
    logarithm per draw.  ``guide[c]`` counts the interior knots in the
    cells before c.  The knots are geometric in t, so close to uniform in
    log z, and a cell of a smooth table holds at most one knot: the
    interval of z is ``guide[c]`` plus one compare.  z in a cell holding
    more knots (power tails) is located by binary search.  ``c`` holds the
    power-form coefficients of each piece, highest degree first
    (``_hermite``), and a call equals the plain evaluation with a binary
    search bit for bit.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c
        key = self._key(self.x[1:-1])
        self.key_lo = int(key[0])
        self.cells = int(key[-1]) - self.key_lo + 1
        knot_cell = key - self.key_lo
        self.guide = np.searchsorted(knot_cell, np.arange(self.cells))
        crowded = np.bincount(knot_cell, minlength=self.cells) > 1
        self.crowded = crowded if crowded.any() else None

    @staticmethod
    def _key(z):
        # the exponent and leading mantissa bits of a double: monotone in z >= 0
        return np.right_shift(z.view(np.int64), 52 - _GUIDE_BITS)

    def locate(self, z):
        """The piece of each z of the array ``z``:
        clip(searchsorted(x, z, "right") - 1, 0, n - 2)."""
        # -0.0 (and NaN with the sign bit set) has a negative key, cell 0;
        # other NaN land in the last cell; either stays NaN through the cubic
        cell = np.clip(self._key(z) - self.key_lo, 0, self.cells - 1)
        piece = self.guide[cell]
        piece += z >= self.x[1:][piece]
        if self.crowded is not None:
            crowded = self.crowded[cell]
            piece[crowded] = np.searchsorted(self.x[1:-1], z[crowded], "right")
        return piece

    def __call__(self, z):
        """The piecewise cubic at every z of the array ``z`` (at least 1-d)."""
        z = np.asarray(z, dtype=float)
        i = self.locate(z)
        c0, c1, c2, c3 = self.c
        d = z - self.x[i]
        d2 = d * d
        return c3[i] + c2[i] * d + c1[i] * d2 + c0[i] * (d2 * d)

    def inverse(self, u):
        """survival^{-1}(u) = max(expm1(x(sqrt(-log u))), 0)."""
        return np.maximum(np.expm1(self(np.sqrt(-np.log(u)))), 0.0)


@lru_cache(maxsize=128)
def _inverse_table(law, model: CovarianceModel) -> _InverseTable:
    """Cubic Hermite interpolant of log1p(t) in z = sqrt(-log S) on the
    table nodes, with the exact slope at every knot, refined until it meets
    the round trip (see the module notes), with its guide table.  ``law``
    gives the survival and its density, ``(S, g) = law(model, t)`` at a
    1-d array t: ``_divisor_law`` or ``_size_biased_law``.

    Raises ``InverseTableError`` when the last node cannot be placed, when z is
    not strictly increasing on the nodes (the survival not strictly
    decreasing there), when a knot slope is not finite (the density
    underflows to 0), or when the refined table still misses the relative
    round trip 1e-9 on [eps, 1]; there is no fallback inverter.
    """
    t = np.concatenate(([0.0], np.geomspace(_TABLE_T_FIRST, _table_end(law, model), _TABLE_NODES - 1)))
    s, g = law(model, t)
    z_eps = math.sqrt(-math.log(_EPS))
    for check in range(_TABLE_ROUNDS):
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.sqrt(-np.log(s))
            # dx/dz = 2 z S / ((1 + t) g) for x = log1p(t), since dz/dt = g/(2 z S)
            slope = 2.0 * z * s / ((1.0 + t) * g)
            increasing = np.all(np.diff(z) > 0.0)
        if not increasing:
            raise InverseTableError(f"survival of {model.spec_string()} is not strictly decreasing on the inverse-table nodes")
        if not np.all(np.isfinite(slope[1:])):
            raise InverseTableError(f"density of {model.spec_string()} underflows to 0 on the inverse-table nodes")
        x = np.log1p(t)
        # at t = 0 the slope is 0/0; it takes its limit, estimated as the
        # slope at z = 0 of the quadratic through the first two knots with
        # the exact slope at the second (see the module notes), at least 0
        slope[0] = max(2.0 * (x[1] - x[0]) / (z[1] - z[0]) - slope[1], 0.0)
        table = _InverseTable(z, _hermite(z, x, slope))
        # the intervals that reach u >= eps (the first k) are checked at
        # their midpoint in z, or at u = eps if the midpoint lies below it
        k = np.searchsorted(z, z_eps)
        zc = np.minimum(0.5 * (z[:k] + z[1 : k + 1]), z_eps)
        uc = np.exp(-zc * zc)
        err = np.abs(law(model, np.maximum(np.expm1(table(zc)), 0.0))[0] / uc - 1.0)
        miss = np.flatnonzero(err > _TABLE_RTOL)
        if miss.size == 0 or check == _TABLE_ROUNDS - 1:
            break
        # halve the intervals that miss in t
        tm = 0.5 * (t[miss] + t[miss + 1])
        sm, gm = law(model, tm)
        t = np.insert(t, miss + 1, tm)
        s = np.insert(s, miss + 1, sm)
        g = np.insert(g, miss + 1, gm)
    if not np.all(err <= 1e-9):
        raise InverseTableError(f"inverse table of {model.spec_string()} misses the relative round trip 1e-9 by {err.max():.3g}")
    return table


_CLOSED_FORM_INVERSES = {
    Diffusion(d=1): _diffusion_d1_from_u,
    Diffusion(d=2): _diffusion_d2_from_u,
    RandomAcceleration(): _random_acceleration_from_u,
}


def _draws(u: np.ndarray, inverse) -> np.ndarray:
    """Replace the uniforms ``u`` by their draws inverse(U), in place,
    _DRAWS_PER_CHUNK at a time, and return ``u``."""
    for lo in range(0, u.size, _DRAWS_PER_CHUNK):
        u[lo : lo + _DRAWS_PER_CHUNK] = inverse(u[lo : lo + _DRAWS_PER_CHUNK])
    return u


class DivisorSampler:
    """Divisor distribution of a model bundled with its sampling strategy:
    mean mu/2; its survival is E0.

    Construction runs the validity gate: models whose clipped expectation
    oscillates (or is non-integrable) are refused with their report.
    """

    def __init__(self, model: CovarianceModel):
        self.model = model
        slepian.require_usable(model)
        self.mean = slepian.mean_excursion(model) / 2.0

    def _inverse(self):
        """E0^{-1}: the closed form for diffusion d = 1, 2 and random
        acceleration, the cached inverse table for every other model."""
        return _CLOSED_FORM_INVERSES.get(self.model) or _inverse_table(_divisor_law, self.model).inverse

    def draw(self, rng: RngStream, n: int) -> np.ndarray:
        """n draws E0^{-1}(U), one uniform each."""
        return _draws(rng.uniform01(n), self._inverse())

    def largest(self, rng: RngStream, n: int, k: int) -> np.ndarray:
        """The k largest of the n draws ``draw(rng, n)`` would return,
        ascending, bit for bit, with the stream left where ``draw`` leaves it.

        E0^{-1} decreases in U, so the k largest draws are the inverses of
        the k smallest of the n uniforms (order statistics under a monotone
        map): those k are selected with a partition and only they are
        inverted.
        """
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        u = rng.uniform01(n)
        u.partition(k - 1)
        # a sorted copy: the result does not keep the n uniforms alive
        return np.sort(_draws(u[:k], self._inverse()))

    def size_biased_draw(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw from the size-biased divisor (density t f(t)/mean), one
        uniform per draw through the inverse table of its survival."""
        return _draws(rng.uniform01(n), _inverse_table(_size_biased_law, self.model).inverse)


# ---------------------------------------------------------------------------
# compound exceedance sampling


def _level_sizes(rng: RngStream, n: int) -> list:
    """G_1 = n, G_{j+1} ~ Binomial(G_j, 1/2), down to the first 0."""
    levels = [n]
    while levels[-1]:
        levels.append(int(rng.gen.binomial(levels[-1], 0.5)))
    return levels


def excursion_multiset(source, rng: RngStream, n: int):
    """n compound draws as a multiset.

    Returns ``(values, levels)``.  ``levels`` are the level sizes G_1 = n,
    G_{j+1} ~ Binomial(G_j, 1/2), down to the first 0: G_j counts the
    compounds with at least j terms, so they are the exact histogram of n
    iid Geometric(1/2) counts, and ``levels.sum()`` is the number of
    divisor draws.  Each level adds one fresh divisor draw to the first G_j
    values, so ``values[i]`` sums one draw per level with G_j > i, left to
    right.  The multiset of values has the law of n iid compounds, but the
    values come in count-descending order: consumers that read only order
    statistics (the tail regressions, through ``excursion_largest``) take
    them as they come, and ``sample_excursions`` shuffles them.  All level sizes are
    drawn first, then ``sum(levels)`` divisor draws, one ``draw`` call per
    level.  ``source`` is a model or any object with a ``draw(rng, n)``
    method.
    """
    src = DivisorSampler(source) if isinstance(source, CovarianceModel) else source
    levels = _level_sizes(rng, n)
    values = src.draw(rng, n)
    for g in levels[1:-1]:
        values[:g] += src.draw(rng, g)
    return values, np.array(levels, dtype=np.int64)


def excursion_largest(source, rng: RngStream, n: int, k: int) -> np.ndarray:
    """The k largest of the n values ``excursion_multiset(source, rng, n)``
    would return, ascending, bit for bit, with the stream left where
    ``excursion_multiset`` leaves it.  ``source`` is a model or a
    ``DivisorSampler``.

    It draws the same level sizes G_j and the same uniforms u_j (level j's
    G_j of them), and inverts only the compounds that can reach the k
    largest.  Let m be the last index with G_{m+1} >= k.  The compounds
    [0, G_{m+1}) have more than m terms; they are summed level by level,
    as ``excursion_multiset`` sums them, and their k-th largest tau bounds
    the k-th largest of all n from below.  A compound in
    [G_{nu+1}, G_nu), nu = m .. 1, has exactly nu terms, each at most
    E0^{-1}(min u), so V <= nu E0^{-1}(min u): only those with
    min u <= E0(tau/nu) (1 + _LARGEST_MARGIN) can reach tau, and only
    their terms are inverted, in level order, so their values keep their
    bits.  The rest are below tau (see ``_LARGEST_MARGIN``).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    src = DivisorSampler(source) if isinstance(source, CovarianceModel) else source
    inverse = src._inverse()
    levels = _level_sizes(rng, n)
    # every level's uniforms from one call, viewed level by level: the
    # uniforms excursion_multiset's draw calls take (split invariance,
    # tests/test_samplers.py::test_draws_are_split_invariant)
    u = np.split(rng.uniform01(sum(levels)), np.cumsum(levels[:-2]))
    m = sum(g >= k for g in levels) - 1
    exact = levels[m]
    # the exact part inverts its uniforms in place; the pruned part reads
    # only indices from G_{m+1} = exact on
    values = _draws(u[0][:exact], inverse)
    for uj in u[1:]:
        g = min(uj.size, exact)
        values[:g] += _draws(uj[:g], inverse)
    pieces = [values]
    if m:
        values.partition(exact - k)
        bounds = slepian.e0(src.model, values[exact - k] / np.arange(1.0, m + 1)) * (1.0 + _LARGEST_MARGIN)
        for nu in range(m, 0, -1):
            lo, hi = levels[nu], levels[nu - 1]
            # the smallest of each compound's nu uniforms; at nu = 1 the
            # level's own slice, not a copy
            umin = u[0][lo:hi]
            if nu > 1:
                umin = np.minimum(umin, u[1][lo:hi])
                for uj in u[2:nu]:
                    np.minimum(umin, uj[lo:hi], out=umin)
            picked = lo + np.flatnonzero(umin <= bounds[nu - 1])
            candidates = _draws(u[0][picked], inverse)
            for uj in u[1:nu]:
                candidates += _draws(uj[picked], inverse)
            pieces.append(candidates)
    top = np.concatenate(pieces)
    return np.sort(np.partition(top, top.size - k)[top.size - k :])


def sample_excursions(source, rng: RngStream, n: int):
    """n iid compound draws, in order.

    Returns ``(values, levels)``.  The values are drawn
    _COMPOUNDS_PER_BLOCK at a time as a multiset (``excursion_multiset``),
    each block shuffled in place by ``rng.gen.shuffle``: a uniformly random
    arrangement of the multiset of an iid sample is an iid sequence, and
    the blocks are independent.  ``levels`` are the blocks' level sizes
    summed, so ``levels.sum()`` counts the divisor draws.
    """
    src = DivisorSampler(source) if isinstance(source, CovarianceModel) else source
    values, levels = np.empty(n), np.zeros(1, np.int64)
    for lo in range(0, n, _COMPOUNDS_PER_BLOCK):
        block, sizes = excursion_multiset(src, rng, min(_COMPOUNDS_PER_BLOCK, n - lo))
        rng.gen.shuffle(block)
        values[lo : lo + block.size] = block
        # the shorter of the two level lists is added into the longer
        if sizes.size > levels.size:
            levels, sizes = sizes, levels
        levels[: sizes.size] += sizes
    return values, levels
