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
and E[nu_geo] = 2.  It is read from the float exponent of one uniform:
U in [2^-k, 2^-(k-1)) gives k exactly, where ceil(log U / log 1/2)
misrounds next to the powers of two.

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
its density g = -S' at an array of t, from one evaluation each of r, r'
with 1 - r^2, and r'' (``_divisor_law``: E0 and f = -E0';
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
followed by draw(rng, b) equals draw(rng', a + b) on an equal stream.  A
sampler uses this itself: it allocates its n results once and fills them
_DRAWS_PER_CHUNK at a time, each chunk's draws being its inverse, a plain
array expression, of that chunk's uniforms (``_draws``), so n draws hold n
doubles and the temporaries of one chunk.  The compound draw takes every
compound's first divisor draw as its value, then the further draws of a
block of compounds at a time, each block summed per compound by one
``np.bincount`` and added; both return the draws of one call bit for bit.
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
    "sample_geometric_half",
    "sample_excursions",
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
# Compound draws per block: the further divisor draws of one block (about
# as many) stay in cache through every pass over them.
_COMPOUNDS_PER_BLOCK = 1 << 14
# Draws per chunk of a sampler: a chunk's uniforms, its result slice and the
# temporaries of its inverse (64 KiB each) stay in cache, and are small
# enough for the allocator to reuse their memory (see ``_draws``).
_DRAWS_PER_CHUNK = 1 << 13


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
        np.maximum(u, _EPS, out=u)
        return np.minimum(u, 1.0 - _EPS, out=u)


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
    the first node, on where the survival of ``law`` is below eps/4."""
    powers = 2.0 ** np.arange(-9, 64)
    with np.errstate(all="ignore"):
        below = np.flatnonzero(law(model, powers)[0] < _TABLE_TAIL)
    if below.size == 0:
        raise InverseTableError(f"survival of {model.spec_string()} stays above {_TABLE_TAIL:.3g} up to t = 2^63")
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
    decreasing there), or when the refined table still misses the relative
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


def _draws(uniforms, out: np.ndarray, inverse) -> np.ndarray:
    """Fill ``out`` with draws inverse(U), one uniform each,
    _DRAWS_PER_CHUNK at a time.  ``uniforms`` is an RngStream, whose next
    uniforms are drawn a chunk at a time, or an array of the uniforms."""
    n = out.size
    for lo in range(0, n, _DRAWS_PER_CHUNK):
        m = min(_DRAWS_PER_CHUNK, n - lo)
        u = uniforms[lo : lo + m] if isinstance(uniforms, np.ndarray) else uniforms.uniform01(m)
        out[lo : lo + m] = inverse(u)
    return out


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
        return _draws(rng, np.empty(n), self._inverse())

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
        out = _draws(u[:k], np.empty(k), self._inverse())
        out.sort()
        return out

    def size_biased_draw(self, rng: RngStream, n: int) -> np.ndarray:
        """Draw from the size-biased divisor (density t f(t)/mean), one
        uniform per draw through the inverse table of its survival."""
        return _draws(rng, np.empty(n), _inverse_table(_size_biased_law, self.model).inverse)


# ---------------------------------------------------------------------------
# compound exceedance sampling


def _geometric_half_from_u(u):
    # U in [2^-k, 2^-(k-1)) exactly when frexp's exponent of U is 1 - k, so
    # the count is read from the float exponent, with no logarithm to
    # misround near the powers of two; at least 1 (U = 1 has exponent 1)
    return np.maximum(1 - np.frexp(u)[1], 1)


def sample_geometric_half(rng: RngStream, n: int) -> np.ndarray:
    """Geometric(1/2) counts on {1, 2, ...} by inversion, k for U in
    [2^-k, 2^-(k-1)), chosen over Bernoulli looping for determinism:
    exactly one uniform per draw."""
    return _draws(rng, np.empty(n, np.int64), _geometric_half_from_u)


def _add_segment_sums(values: np.ndarray, counts: np.ndarray, src, rng: RngStream) -> np.ndarray:
    """Add to each ``values[i]`` the sum of ``counts[i] - 1`` further draws
    of ``src``, drawn _COMPOUNDS_PER_BLOCK compounds at a time.  Each block's
    draws are summed per compound by one ``np.bincount``, which accumulates
    in element order: the sum added is ((0 + x1) + x2) + ..., whatever the
    block size."""
    for lo in range(0, values.size, _COMPOUNDS_PER_BLOCK):
        extra = counts[lo : lo + _COMPOUNDS_PER_BLOCK] - 1
        m = extra.size
        rest = src.draw(rng, int(extra.sum()))
        values[lo : lo + m] += np.bincount(np.repeat(np.arange(m), extra), weights=rest, minlength=m)
    return values


def sample_excursions(source, rng: RngStream, n: int):
    """Vectorized compound draws.

    Returns ``(values, counts)``, two arrays of length ``n``: each value is
    the sum of ``counts[i]`` divisor draws, with counts Geometric(1/2).
    ``source`` is a model or any object with a ``draw(rng, n)`` method.

    All n counts are drawn first, then one divisor draw per compound, which
    is its value (the half with count 1 is then done), then the
    ``counts[i] - 1`` further draws of _COMPOUNDS_PER_BLOCK compounds at a
    time, added to their values (``_add_segment_sums``).  Each value is
    x0 + (((0 + x1) + x2) + ...), so for a split-invariant source (every
    divisor sampler and switching-law ``draw`` of the package) the result
    equals the first draws in one call, every further draw in a second and
    the sums formed one compound at a time, bit for bit.
    """
    src = DivisorSampler(source) if isinstance(source, CovarianceModel) else source
    counts = sample_geometric_half(rng, n)
    return _add_segment_sums(src.draw(rng, n), counts, src, rng), counts
