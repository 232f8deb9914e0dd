import functools
import math
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.interpolate import CubicHermiteSpline

import excursia as ex
from excursia import samplers, slepian
from excursia.samplers import (
    _CLOSED_FORM_INVERSES,
    _diffusion_d1_from_u,
    _diffusion_d2_from_u,
    _divisor_law,
    _hermite,
    _inverse_table,
    _size_biased_law,
    _table_end,
)

from conftest import VALID_MODELS, apply_inverse
from oracles import (
    diffusion_d1_inverse_oracle,
    diffusion_d2_inverse_oracle,
    e0_oracle,
    excursion_multiset_loop_oracle,
    g_forward,
    g_inverse,
    gaussian_divisor_density,
    plain_spline,
    poly_inverse_b,
    random_acceleration_inverse_oracle,
    sample_excursions_block_oracle,
    size_biased_survival_oracle,
    survival_inverse_oracle,
    table_inverse_oracle,
)

T_STAR = 2.0 * np.arccosh(2.0)
U_GRID = np.linspace(1e-6, 1.0 - 1e-6, 10001)
EPS = np.finfo(float).eps


def test_diffusion_d2_closed_form():
    assert apply_inverse(_diffusion_d2_from_u, 0.5)[0] == pytest.approx(T_STAR, rel=1e-12)
    # U -> 1 gives vanishing draws
    assert apply_inverse(_diffusion_d2_from_u, 1.0 - 1e-12)[0] < 1e-5
    err = np.abs(np.asarray(ex.e0(ex.Diffusion(d=2), apply_inverse(_diffusion_d2_from_u, U_GRID))) - U_GRID)
    assert err.max() <= 1e-9


def test_diffusion_d1_closed_form():
    # independent oracle: bracketing root of the survival itself
    t_oracle = survival_inverse_oracle(ex.Diffusion(d=1), 0.5)
    t_closed = apply_inverse(_diffusion_d1_from_u, 0.5)[0]
    assert t_closed == pytest.approx(t_oracle, abs=1e-10)
    assert t_closed == pytest.approx(3.3257717821, abs=1e-8)
    err = np.abs(np.asarray(ex.e0(ex.Diffusion(d=1), apply_inverse(_diffusion_d1_from_u, U_GRID))) - U_GRID)
    assert err.max() <= 1e-9


def test_random_acceleration_inverse():
    ts = np.maximum(np.log1p(3.0 / (U_GRID * U_GRID)) - 2 * math.log(2), 0.0)
    err = np.abs(np.asarray(ex.e0(ex.RandomAcceleration(), ts)) - U_GRID)
    assert err.max() <= 1e-9
    # endpoint and midpoint identities
    assert math.log1p(3.0) - 2 * math.log(2) == pytest.approx(0.0, abs=1e-14)
    assert math.log1p(3.0 / 0.25) - 2 * math.log(2) == pytest.approx(math.log(13.0 / 4.0), rel=1e-14)
    u_spec = math.sqrt(3.0 / 7.0)
    assert math.log1p(3.0 / u_spec**2) - 2 * math.log(2) == pytest.approx(math.log(2.0), rel=1e-12)


def test_poly_inverse_examples_and_tolerance():
    assert poly_inverse_b(3, 3.0) == pytest.approx(1.0, abs=1e-12)
    assert poly_inverse_b(3, 7.0) == pytest.approx(2.0, abs=1e-12)
    assert poly_inverse_b(4, 1.0) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for d in (3, 7, 33, 64):
        a = np.exp(rng.uniform(0.0, math.log(1e6), 200))
        a = np.maximum(a, 1.0)
        b = poly_inverse_b(d, a)
        resid = np.abs(np.polyval(np.ones(d), b) - a)
        assert np.all(resid <= 1e-12 * a + 1e-12)
    with pytest.raises(ValueError):
        poly_inverse_b(3, 0.5)


def test_g_inverse_round_trips():
    assert g_inverse(3, float(g_forward(3, 2.0))) == pytest.approx(2.0, abs=1e-8)
    assert g_inverse(5, float(g_forward(5, 1.0))) == pytest.approx(1.0, abs=1e-8)
    for d in (3, 4, 10):
        g = np.linspace(1e-6, 1 - 1e-6, 2001)
        t = g_inverse(d, g)
        back = np.asarray(g_forward(d, t))
        assert np.abs(back - g).max() <= 1e-9, d
    # g -> 1 maps to vanishing times
    assert g_inverse(3, 1.0 - 1e-12) < 1e-4
    with pytest.raises(ValueError):
        g_inverse(3, 1.5)


def test_matern_round_trip():
    for nu in (2.5, 3.5, 4.5):
        model = ex.MaternHalfInteger(nu=nu)
        rng = ex.RngStream(3, 17)
        t = ex.DivisorSampler(model).draw(rng, 10000)
        u = ex.RngStream(3, 17).uniform01(10000)
        err = np.abs(np.asarray(ex.e0(model, t)) - u)
        assert err.max() <= 1e-8, nu
    t_mid = ex.DivisorSampler(ex.MaternHalfInteger(nu=2.5)).draw(ex.RngStream(8, 0), 2000)
    assert np.all(t_mid > 0)
    # oracle spot check at u = 0.3
    t_oracle = survival_inverse_oracle(ex.MaternHalfInteger(nu=2.5), 0.3)
    assert float(np.asarray(ex.e0(ex.MaternHalfInteger(nu=2.5), t_oracle))) == pytest.approx(0.3, abs=1e-10)


def test_generic_round_trip_and_dispatch_match():
    gl = ex.GeneralizedLaplace(alpha=1.0)
    rng = ex.RngStream(4, 2)
    t = ex.DivisorSampler(gl).draw(rng, 10000)
    u = ex.RngStream(4, 2).uniform01(10000)
    assert np.abs(np.asarray(ex.e0(gl, t)) - u).max() <= 1e-8
    # the inverse table agrees with the closed form for diffusion d=2 at the
    # median, where the survival slope is order one
    t_gen = apply_inverse(_inverse_table(_divisor_law, ex.Diffusion(d=2)).inverse, 0.5)[0]
    assert t_gen == pytest.approx(T_STAR, abs=1e-7)


def _relative_round_trip(model, u, law=_divisor_law):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    closed = _CLOSED_FORM_INVERSES.get(model) if law is _divisor_law else None
    t = apply_inverse(closed or _inverse_table(law, model).inverse, u)
    return np.abs(law(model, t)[0] / u - 1.0)


# every usable family, shifted_gaussian at alpha = 0 and just inside the
# gate's limit, and generalized_laplace decays so fast that the survival
# is below eps/4 before t = 1 (the tables end at 2^-2 .. 2^-6)
ROUND_TRIP_MODELS = st.one_of(
    st.integers(1, 64).map(lambda d: ex.Diffusion(d=d)),
    st.sampled_from([ex.MaternHalfInteger(nu=nu) for nu in (2.5, 3.5, 4.5)] + [ex.RandomAcceleration()]),
    st.floats(0.5, 3.0).map(lambda a: ex.GeneralizedLaplace(alpha=a)),
    st.sampled_from([ex.GeneralizedLaplace(alpha=a) for a in (3e3, 1e5, 1e6)]),
    st.sampled_from([ex.ShiftedGaussian(alpha=a) for a in (0.0, 0.04)]),
)


# S* of generalized_laplace decays like t^(-2 alpha): below alpha = 0.43
# its tables end past 2^63 (2^91 at 0.3, 2^447 at 0.06)
SLOW_SIZE_BIASED = st.sampled_from([ex.GeneralizedLaplace(alpha=a) for a in (0.06, 0.1, 0.3)])


@settings(max_examples=300, deadline=None)
@given(
    case=st.tuples(st.sampled_from([_divisor_law, _size_biased_law]), ROUND_TRIP_MODELS)
    | st.tuples(st.just(_size_biased_law), SLOW_SIZE_BIASED),
    u=st.floats(EPS, 1.0 - EPS),
)
def test_inverse_survival_relative_round_trip(case, u):
    law, model = case
    assert _relative_round_trip(model, u, law)[0] <= 1e-9


@pytest.mark.parametrize(
    "model, upper",
    [(ex.Diffusion(d=3), 200.0), (ex.RandomAcceleration(), 200.0), (ex.ShiftedGaussian(alpha=0.0), 200.0),
     (ex.MaternHalfInteger(nu=2.5), 200.0), (ex.GeneralizedLaplace(alpha=1.0), np.inf)],
    ids=lambda v: v.spec_string() if isinstance(v, ex.CovarianceModel) else "",
)
def test_size_biased_survival_matches_quadrature(model, upper):
    # S*(t) = (t E0(t) + int_t^inf E0) / m with m = mu/2; E0 is negligible
    # past t = 200 for the exponential-class models
    m = ex.mean_excursion(model) / 2.0
    for t in (0.05, 0.5, 2.0, 6.0):
        tail, _ = integrate.quad(lambda x: float(ex.e0(model, x)), t, upper, epsabs=0.0, epsrel=1e-12, limit=400)
        expected = (t * float(ex.e0(model, t)) + tail) / m
        assert _size_biased_law(model, np.array([t]))[0][0] == pytest.approx(expected, rel=1e-9), t
    assert _size_biased_law(model, np.array([0.0]))[0][0] == 1.0


def test_inverse_table_deep_tail_regressions():
    # the old residual-tolerance inverters accepted their first iterate for
    # u below 1e-9: Matern 2.5 mapped both u to t = 32, generalized Laplace
    # returned a t where E0 was about 7 u
    matern = ex.MaternHalfInteger(nu=2.5)
    t = apply_inverse(_inverse_table(_divisor_law, matern).inverse, [2.2e-16, 1e-12])
    assert t[0] > t[1]
    assert _relative_round_trip(matern, [2.2e-16, 1e-12]).max() <= 1e-9
    assert _relative_round_trip(ex.GeneralizedLaplace(alpha=1.0), EPS)[0] <= 1e-9
    # no fallback inverter: a survival that is negative at the last node
    # (here one that drops through zero with slope of order one) has
    # z = NaN there, and its table refuses to build
    oscillating = ex.ShiftedGaussian(alpha=2.0)
    assert slepian.e0(oscillating, _table_end(_divisor_law, oscillating)) < 0.0
    with pytest.raises(RuntimeError, match="not strictly decreasing"):
        _inverse_table(_divisor_law, oscillating)


def test_inverse_table_refuses_a_survival_that_is_not_strictly_decreasing():
    # a law flat on (1, 2): z repeats on the nodes there
    flat = lambda model, t: (np.exp(-np.where((t > 1.0) & (t < 2.0), 1.0, t)), np.ones_like(t))
    with pytest.raises(RuntimeError, match="not strictly decreasing"):
        _inverse_table(flat, ex.Diffusion(d=3))


@pytest.mark.parametrize("alpha, reason", [(0.01, "stays above .* up to t = 2\\^1023"), (0.05, "density .* underflows to 0")])
def test_size_biased_table_refuses_tails_past_the_float_range(alpha, reason):
    # alpha = 0.01: S* is above eps/4 at 2^1023; alpha = 0.05: S* falls
    # below it at 2^536, but its density is 0 on 192 nodes past t = 1e153
    start = time.perf_counter()
    with pytest.raises(samplers.InverseTableError, match=reason) as refusal:
        _inverse_table(_size_biased_law, ex.GeneralizedLaplace(alpha=alpha))
    assert "nan" not in str(refusal.value)
    assert time.perf_counter() - start < 5.0  # refused before any refinement


def _recursive_minimum_draws(d, rng, n):
    """Independent oracle: T_d = min(T_2, G_3^{-1}(U_3^2), ..., G_d^{-1}(U_d^2))."""
    u = rng.uniform01((d - 1, n))
    t = diffusion_d2_inverse_oracle(u[0])
    for k in range(3, d + 1):
        t = np.minimum(t, g_inverse(k, u[k - 2] ** 2))
    return t


@pytest.mark.parametrize("d", [3, 5, 10])
def test_inverse_table_matches_recursive_minimum(d):
    model = ex.Diffusion(d=d)
    rng = ex.RngStream(31, d)
    draws = ex.DivisorSampler(model).draw(rng, 10**5)
    # exactly one uniform per draw, mapped through the table
    u = ex.RngStream(31, d).uniform01(10**5 + 1)
    assert np.array_equal(draws, table_inverse_oracle(_divisor_law, model, u[:-1]))
    assert rng.uniform01(1)[0] == u[-1]
    oracle = _recursive_minimum_draws(d, ex.RngStream(32, d), 10**5)
    assert stats.ks_2samp(draws, oracle).pvalue > 0.01


def test_gaussian_divisor_table_draws_match_survival():
    model = ex.ShiftedGaussian(alpha=0.0)
    samples = ex.DivisorSampler(model).draw(ex.RngStream(11, 0), 10**6)
    # one uniform per draw, mapped through the inverse table
    assert np.array_equal(samples, table_inverse_oracle(_divisor_law, model, ex.RngStream(11, 0).uniform01(10**6)))
    assert stats.kstest(samples, lambda x: 1.0 - np.asarray(ex.e0(model, x))).pvalue > 0.01
    assert samples.mean() == pytest.approx(math.pi / 2.0, rel=0.005)
    e0_at_1 = float(np.asarray(ex.e0(model, 1.0)))
    assert e0_at_1 == pytest.approx(0.7628, abs=2e-4)
    emp = float((samples > 1.0).mean())
    se = math.sqrt(emp * (1 - emp) / samples.size)
    assert abs(emp - e0_at_1) <= 3 * se
    # the closed-form density is -dE0/dt (central difference, h = 1e-4)
    t, h = np.linspace(0.05, 8.0, 801), 1e-4
    slope = (np.asarray(ex.e0(model, t - h)) - np.asarray(ex.e0(model, t + h))) / (2.0 * h)
    assert np.abs(gaussian_divisor_density(t) - slope).max() <= 1e-7


# every table shape: smooth (one knot per guide cell at most) and power
# tails (cells holding several knots)
TABLE_MODELS = [ex.Diffusion(d=3), ex.Diffusion(d=10), ex.Diffusion(d=64)]
TABLE_MODELS += [ex.MaternHalfInteger(nu=nu) for nu in (2.5, 3.5, 4.5)] + [ex.GeneralizedLaplace(alpha=1.0)]
TABLE_MODELS += [ex.ShiftedGaussian(alpha=0.0)]
TABLE_IDS = [m.spec_string() for m in TABLE_MODELS]


TABLE_CASES = [(law, m) for law in (_divisor_law, _size_biased_law) for m in TABLE_MODELS]


@st.composite
def _table_and_points(draw):
    table = _inverse_table(*draw(st.sampled_from(TABLE_CASES)))
    x = table.x
    knot = st.integers(0, x.size - 1).map(lambda k: x[k])
    point = st.one_of(
        knot,  # exactly on a knot
        st.integers(1, x.size - 1).map(lambda k: np.nextafter(x[k], -np.inf)),  # z >= 0
        knot.map(lambda v: np.nextafter(v, np.inf)),
        st.integers(0, x.size - 2).flatmap(lambda k: st.floats(x[k], x[k + 1])),  # between knots
        st.floats(0.0, x[1]),  # below the first interior knot
        st.floats(x[-1], 4.0 * x[-1]),  # past the last knot
    )
    return table, np.array(draw(st.lists(point, min_size=1, max_size=64)))


@settings(max_examples=300, deadline=None)
@given(_table_and_points())
def test_guided_interval_matches_binary_search(case):
    table, z = case
    n = table.x.size
    expected = np.clip(np.searchsorted(table.x, z, "right") - 1, 0, n - 2)
    assert np.array_equal(table.locate(z), expected)


def test_guide_cells_hold_crowded_knots_where_expected():
    # the binary-search branch of the guided lookup is exercised: power
    # tails put several knots in one cell, in E0's table and in S*'s
    assert _inverse_table(_divisor_law, ex.GeneralizedLaplace(alpha=1.0)).crowded.sum() > 100
    assert _inverse_table(_size_biased_law, ex.GeneralizedLaplace(alpha=1.0)).crowded.sum() > 100
    assert _inverse_table(_divisor_law, ex.Diffusion(d=3)).crowded is None


@pytest.mark.parametrize("model", TABLE_MODELS, ids=TABLE_IDS)
def test_guided_table_equals_spline_bit_for_bit(model):
    table = _inverse_table(_divisor_law, model)
    x, c = table.x, table.c
    u = np.concatenate((ex.RngStream(61, 0).uniform01(10**6), np.geomspace(EPS, 1e-12, 10001), [1.0 - EPS]))
    z = np.sqrt(-np.log(u))
    assert np.array_equal(table(z), plain_spline(x, c, z))
    assert np.array_equal(apply_inverse(table.inverse, u), np.maximum(np.expm1(plain_spline(x, c, z)), 0.0))
    # knots and their neighbours, where the interval changes
    for zk in (x, np.nextafter(x, -np.inf)[1:], np.nextafter(x, np.inf)):
        assert np.array_equal(table(zk), plain_spline(x, c, zk))
    t = apply_inverse(table.inverse, [np.nan, 1.0])
    assert np.isnan(t[0]) and t[1] == 0.0


@pytest.mark.parametrize("model", TABLE_MODELS + [ex.Diffusion(d=1), ex.Diffusion(d=2), ex.RandomAcceleration()], ids=lambda m: m.spec_string())
def test_table_survivals_keep_their_bits(model):
    # each law evaluates r, r' with 1 - r^2, and r'' once per node set for
    # the survival and its density; E0 and S* keep the bits of E0, r and
    # 1 - r^2 evaluated one by one, on the validity gate's grid and on both
    # tables' nodes, and the E0 law keeps the bits of the gate's E0
    grid = slepian.time_grid(0.0, slepian.DEFAULT_T_MAX, slepian.DEFAULT_STEP)
    for law, oracle in ((_divisor_law, e0_oracle), (_size_biased_law, size_biased_survival_oracle)):
        nodes = np.concatenate(([0.0], np.geomspace(samplers._TABLE_T_FIRST, _table_end(law, model), samplers._TABLE_NODES - 1)))
        for t in (grid, nodes):
            with np.errstate(invalid="ignore", divide="ignore"):
                want = oracle(model, t)
            got, density = law(model, t)
            assert got.tobytes() == want.tobytes()
            assert np.all(np.isfinite(density[1:]))
    assert _divisor_law(model, grid)[0].tobytes() == slepian.e0(model, grid).tobytes()


def _knot_slopes(law, model, table):
    """The slope dx/dz at every knot of a built table: c[2] at every knot
    but the last, and at the last one, the table end, the build's
    2 z S / ((1 + t) g) from the law's survival and density there."""
    t_end = np.array([_table_end(law, model)])
    e, g = law(model, t_end)
    last = 2.0 * table.x[-1] * e / ((1.0 + t_end) * g)
    return np.append(table.c[2], last)


@pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: f"{'S*' if c[0] is _size_biased_law else 'E0'}-{c[1].spec_string()}")
def test_hermite_build_matches_scipy_cubic_hermite_spline(case):
    # the knots, values and slopes of a built table (refined ones included:
    # diffusion(d=64)'s S* table has 4097 knots);
    # the last knot is always the table end, log1p(t) at the others is c[3]
    law, model = case
    table = _inverse_table(law, model)
    x = table.x
    y = np.append(table.c[3], np.log1p(_table_end(law, model)))
    s = _knot_slopes(law, model, table)
    assert np.array_equal(_hermite(x, y, s), table.c)
    oracle = CubicHermiteSpline(x, y, s)
    assert np.array_equal(table.c, oracle.c)
    z = np.sqrt(-np.log(ex.RngStream(62, 0).uniform01(10**5)))
    want = oracle(z)
    assert np.all(np.abs(plain_spline(x, table.c, z) - want) <= np.spacing(np.abs(want)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(1e-2, 1.0), min_size=1, max_size=40).flatmap(
        lambda dx: st.tuples(
            st.just(np.concatenate(([0.0], np.cumsum(dx)))),
            st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=len(dx) + 1, max_size=len(dx) + 1).map(np.array),
        )
    ),
    st.floats(0.0, 1.0),
)
def test_hermite_property_matches_scipy_cubic_hermite_spline(knots_values_slopes, frac):
    # strictly increasing knots with spacings within a factor 100 of each
    # other, n >= 2 random values and slopes: the coefficients equal
    # scipy's bit for bit, and the values agree to 1e-12 of the largest
    # |spline| on the knots and 102 points between them (they were equal
    # on 2e4 random cases; scipy evaluates the pieces in its own code)
    x, (y, s) = knots_values_slopes[0], knots_values_slopes[1].T
    c = _hermite(x, y, s)
    oracle = CubicHermiteSpline(x, y, s)
    assert np.array_equal(c, oracle.c)
    z = np.concatenate((x, np.linspace(x[0], x[-1], 101), [x[0] + frac * (x[-1] - x[0])]))
    want = oracle(z)
    assert np.all(np.abs(plain_spline(x, c, z) - want) <= 1e-12 * np.abs(want).max())


@settings(max_examples=100, deadline=None)
@given(
    case=st.tuples(
        st.sampled_from([_divisor_law, _size_biased_law]),
        st.one_of(ROUND_TRIP_MODELS, st.just(ex.RandomAcceleration())),
    )
)
def test_inverse_table_slopes_are_finite_and_positive(case):
    # the exact slope 2 z S / ((1 + t) g) at every knot but t = 0, where it
    # is 0/0 and takes its limit, finite and at least 0 (0 for random
    # acceleration's E0, where 1 - E0 is linear in t)
    law, model = case
    table = _inverse_table(law, model)
    s = _knot_slopes(law, model, table)
    assert np.isfinite(s[0]) and s[0] >= 0.0
    assert np.all(np.isfinite(s[1:]) & (s[1:] > 0.0))


def test_divisor_distribution_ks_match():
    cases = [ex.Diffusion(d=1), ex.Diffusion(d=2), ex.Diffusion(d=5), ex.RandomAcceleration(),
             ex.ShiftedGaussian(alpha=0.0), ex.MaternHalfInteger(nu=2.5), ex.GeneralizedLaplace(alpha=1.0)]
    for i, model in enumerate(cases):
        draws = ex.DivisorSampler(model).draw(ex.RngStream(100 + i, 0), 10**5)
        res = stats.kstest(draws, lambda x: 1.0 - np.asarray(ex.e0(model, x)))
        assert res.pvalue > 0.01, (model.spec_string(), res.pvalue)


@pytest.mark.parametrize(
    "model, seed",
    [(ex.Diffusion(d=2), 31), (ex.MaternHalfInteger(nu=2.5), 32), (ex.RandomAcceleration(), 33)],
    ids=lambda c: c.spec_string() if isinstance(c, ex.CovarianceModel) else str(c),
)
def test_compound_draws_ks_match_the_solved_survival(model, seed):
    # the deterministic IIA law S from the renewal equation is the oracle
    # of the compound draw: the KS distance over the range S is solved on,
    # less S's own error estimate, stays below the 1% critical value
    n = 10**5
    values, _ = ex.sample_excursions(model, ex.RngStream(seed, 0), n)
    x = np.sort(values)
    x = x[x <= 64 * ex.mean_excursion(model)]
    S, err = ex.iia_survival(model, x)
    i = np.arange(1, x.size + 1)
    distance = np.maximum(i / n - (1.0 - S), (1.0 - S) - (i - 1) / n) - err
    assert distance.max() <= stats.kstwo.ppf(0.99, n)


def test_geometric_counts():
    # levels[k - 1] compounds have k terms or more, so levels[k - 1] - levels[k]
    # have exactly k: the term counts of 10**6 compounds are Geometric(1/2)
    n = 10**6
    _, levels = ex.sample_excursions(ex.Diffusion(d=2), ex.RngStream(12, 0), n)
    assert levels[0] == n and levels[-1] == 0 and np.all(np.diff(levels) <= 0)
    assert levels.sum() / n == pytest.approx(2.0, rel=0.005)
    # P(nu = k) = 2^{-k}
    for k in (1, 2, 3):
        assert (levels[k - 1] - levels[k]) / n == pytest.approx(2.0**-k, abs=3e-3)


def test_excursion_mean_conservation():
    vals, levels = ex.sample_excursions(ex.Diffusion(d=2), ex.RngStream(5, 0), 10**5)
    mu = ex.mean_excursion(ex.Diffusion(d=2))
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - mu) <= 3 * se
    # every compound has one term or more, two on average
    assert levels[0] == vals.size and levels[-1] == 0
    assert levels.sum() / vals.size == pytest.approx(2.0, rel=0.01)


def test_exponential_closure():
    vals, _ = ex.sample_excursions(ex.exponential_switching(1.0), ex.RngStream(9, 0), 10**5)
    res = stats.kstest(vals, lambda x: -np.expm1(-0.5 * np.asarray(x)))
    assert res.pvalue > 0.01
    theta, _ = ex.tail_exponent(vals, 10**4)
    assert theta == pytest.approx(0.5, rel=0.02)


def test_excursion_sample_object():
    values, levels = ex.sample_excursions(ex.Diffusion(d=2), ex.RngStream(77, 0), 1)
    assert values.shape == (1,) and values[0] > 0
    assert levels.dtype == np.int64 and levels.size >= 2
    assert np.all(levels[:-1] == 1) and levels[-1] == 0


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.MaternHalfInteger(nu=2.5)], ids=lambda m: m.spec_string())
def test_excursion_sample_of_size_zero_is_empty(model):
    values, levels = ex.sample_excursions(model, ex.RngStream(77, 0), 0)
    assert values.shape == (0,) and levels.tolist() == [0]
    assert values.dtype == np.float64 and levels.dtype == np.int64


def test_sampling_refuses_invalid_model():
    with pytest.raises(ex.ValidityError):
        ex.DivisorSampler(ex.ShiftedGaussian(alpha=2.0)).draw(ex.RngStream(1, 0), 10)
    with pytest.raises(ex.ValidityError):
        ex.sample_excursions(ex.ShiftedGaussian(alpha=2.0), ex.RngStream(1, 0), 10)
    with pytest.raises(ex.ValidityError):
        ex.divisor_switching(ex.ShiftedGaussian(alpha=2.0))


def test_determinism_and_stream_independence():
    a = ex.DivisorSampler(ex.Diffusion(d=3)).draw(ex.RngStream(123, 4), 1000)
    b = ex.DivisorSampler(ex.Diffusion(d=3)).draw(ex.RngStream(123, 4), 1000)
    assert np.array_equal(a, b)
    c = ex.DivisorSampler(ex.Diffusion(d=3)).draw(ex.RngStream(123, 5), 1000)
    assert not np.array_equal(a, c)
    va, la = ex.sample_excursions(ex.MaternHalfInteger(nu=2.5), ex.RngStream(9, 9), 500)
    vb, lb = ex.sample_excursions(ex.MaternHalfInteger(nu=2.5), ex.RngStream(9, 9), 500)
    assert np.array_equal(va, vb) and np.array_equal(la, lb)


def test_uniforms_stay_inside_open_interval():
    u = ex.RngStream(0, 0).uniform01(10**6)
    assert u.min() > 0.0 and u.max() < 1.0


def _size_biased_draw(model):
    return ex.DivisorSampler(model).size_biased_draw


# every divisor source of the compound draw: closed forms, E0 tables, the
# size-biased tables and the switching laws
COMPOUND_SOURCES = {
    "closed-d1": lambda: ex.Diffusion(d=1),
    "closed-d2": lambda: ex.Diffusion(d=2),
    "closed-random-acceleration": lambda: ex.RandomAcceleration(),
    "table-d5": lambda: ex.Diffusion(d=5),
    "table-shifted-gaussian": lambda: ex.ShiftedGaussian(alpha=0.0),
    "table-matern": lambda: ex.MaternHalfInteger(nu=2.5),
    "table-generalized-laplace": lambda: ex.GeneralizedLaplace(alpha=1.0),
    "size-biased-d2": lambda: types.SimpleNamespace(draw=_size_biased_draw(ex.Diffusion(d=2))),
    "size-biased-matern": lambda: types.SimpleNamespace(draw=_size_biased_draw(ex.MaternHalfInteger(nu=2.5))),
    "switching-exp": lambda: ex.exponential_switching(1.5),
    "switching-gamma": lambda: ex.gamma_switching(2.5, 1.0),
    "switching-point": lambda: ex.point_mass_switching(0.7),
    "switching-divisor": lambda: ex.divisor_switching(ex.MaternHalfInteger(nu=3.5)),
}


@pytest.mark.parametrize("block", [1, 7, None], ids=["block-1", "block-7", "block-default"])
@pytest.mark.parametrize("name", sorted(COMPOUND_SOURCES))
def test_ordered_compound_equals_shuffled_multiset_oracle(name, block, monkeypatch):
    # each block is a loop-oracle multiset shuffled in place, and the level
    # sizes are summed over blocks of unequal depth
    source = COMPOUND_SOURCES[name]()
    if block is not None:
        monkeypatch.setattr(samplers, "_COMPOUNDS_PER_BLOCK", block)
    block = samplers._COMPOUNDS_PER_BLOCK
    n = 400 if block < 400 else 3 * block + 5
    rng, rng_oracle = ex.RngStream(5, 3), ex.RngStream(5, 3)
    values, levels = ex.sample_excursions(source, rng, n)
    want_values, want_levels = sample_excursions_block_oracle(source, rng_oracle, n, block)
    assert values.dtype == np.float64 and values.shape == (n,)
    assert np.array_equal(values, want_values)
    assert levels.tolist() == want_levels
    # both took the same binomials, uniforms and shuffles: the streams
    # continue alike
    assert np.array_equal(rng.uniform01(3), rng_oracle.uniform01(3))


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.MaternHalfInteger(nu=2.5)], ids=lambda m: m.spec_string())
def test_ordered_compound_is_in_random_order(model):
    # a block's multiset comes count-descending; shuffled, its two halves
    # have one law, and the values are uncorrelated with their index
    n, block = 2 * 10**5, samplers._COMPOUNDS_PER_BLOCK
    values, _ = ex.sample_excursions(model, ex.RngStream(41, 0), n)
    first = values[: min(block, n)]
    half = first.size // 2
    assert stats.ks_2samp(first[:half], first[half:]).pvalue > 0.01
    # Spearman's rho of n independent values has standard deviation 1/sqrt(n - 1)
    rho = stats.spearmanr(np.arange(n), values).statistic
    assert abs(rho) <= 4.0 / math.sqrt(n - 1)


@pytest.mark.parametrize("name", sorted(COMPOUND_SOURCES))
@settings(max_examples=15, deadline=None)
@given(n=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
def test_multiset_compound_equals_loop_oracle(name, n, seed):
    source = COMPOUND_SOURCES[name]()
    rng, rng_oracle = ex.RngStream(seed, 3), ex.RngStream(seed, 3)
    values, levels = ex.excursion_multiset(source, rng, n)
    want_values, want_levels = excursion_multiset_loop_oracle(source, rng_oracle, n)
    assert values.dtype == np.float64 and values.shape == (n,)
    assert np.array_equal(values, want_values)
    assert levels.tolist() == want_levels
    assert levels[0] == n and levels[-1] == 0 and np.all(np.diff(levels) <= 0)
    # both took the same binomials and uniforms: the streams continue alike
    assert np.array_equal(rng.uniform01(3), rng_oracle.uniform01(3))


def test_multiset_exponential_closure():
    # Exp(1) divisors: the compound is Exp(1/2)
    vals, _ = ex.excursion_multiset(ex.exponential_switching(1.0), ex.RngStream(9, 1), 10**5)
    res = stats.kstest(vals, lambda x: -np.expm1(-0.5 * np.asarray(x)))
    assert res.pvalue > 0.01
    theta, _ = ex.tail_exponent(vals, 10**4)
    assert theta == pytest.approx(0.5, rel=0.02)


class _EdgeStream(ex.RngStream):
    """An RngStream whose uniforms at the positions of ``edges`` (counted
    from the stream's first uniform) are replaced by the given values."""

    def __init__(self, seed, stream_index, edges):
        super().__init__(seed, stream_index)
        self.edges, self.taken = edges, 0

    def uniform01(self, size):
        u = super().uniform01(size)
        for pos, value in self.edges.items():
            if self.taken <= pos < self.taken + u.size:
                u[pos - self.taken] = value
        self.taken += u.size
        return u


def _table_draw(law, model):
    sampler = ex.DivisorSampler(model)
    return sampler.size_biased_draw if law is _size_biased_law else sampler.draw


# every chunked sampler with its whole-array oracle: the closed forms, the E0
# tables and the size-biased tables
CHUNK_SOURCES = {
    "closed-d1": (lambda: ex.DivisorSampler(ex.Diffusion(d=1)).draw, diffusion_d1_inverse_oracle),
    "closed-d2": (lambda: ex.DivisorSampler(ex.Diffusion(d=2)).draw, diffusion_d2_inverse_oracle),
    "closed-random-acceleration": (lambda: ex.DivisorSampler(ex.RandomAcceleration()).draw,
                                   random_acceleration_inverse_oracle),
    **{
        f"{'size-biased' if law is _size_biased_law else 'table'}-{m.spec_string()}": (
            functools.partial(_table_draw, law, m),
            functools.partial(table_inverse_oracle, law, m),
        )
        for law, m in TABLE_CASES
    },
}


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk-1", "chunk-7", "chunk-default"])
@pytest.mark.parametrize("name", sorted(CHUNK_SOURCES))
def test_chunked_draws_equal_whole_array_oracle(name, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(samplers, "_DRAWS_PER_CHUNK", chunk)
    c = samplers._DRAWS_PER_CHUNK
    n = 3 * c + 5
    # edge uniforms at chunk ends and starts; NaN maps to NaN and 1 to a
    # zero-length draw
    edges = {0: EPS, 2 * c - 1: 1.0 - EPS, 2 * c: np.nan, 3 * c + 1: 1.0, n - 1: EPS}
    make_draw, oracle = CHUNK_SOURCES[name]
    draw = make_draw()
    rng, rng_oracle = _EdgeStream(5, 4, edges), _EdgeStream(5, 4, edges)
    got = draw(rng, n)
    want = oracle(rng_oracle.uniform01(n))
    assert got.dtype == want.dtype and got.shape == (n,)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[2 * c]) and got[3 * c + 1] == 0.0
    # both took the same uniforms: the streams continue alike
    assert np.array_equal(rng.uniform01(3), rng_oracle.uniform01(3))


class _CountingStream(ex.RngStream):
    """An RngStream that records the size of each ``uniform01`` call."""

    def __init__(self, seed, stream_index):
        super().__init__(seed, stream_index)
        self.calls = []

    def uniform01(self, size):
        self.calls.append(size)
        return super().uniform01(size)


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.Diffusion(d=5)], ids=lambda m: m.spec_string())
def test_divisor_draws_take_their_uniforms_in_one_call(model):
    # past three chunks, each draw takes all its uniforms at once and
    # inverts them in place
    sampler, n = ex.DivisorSampler(model), 3 * samplers._DRAWS_PER_CHUNK + 5
    for draw in (sampler.draw, sampler.size_biased_draw, lambda rng, n: sampler.largest(rng, n, n // 2)):
        rng = _CountingStream(9, 0)
        draw(rng, n)
        assert rng.calls == [n]


def test_uniform01_clamps_to_the_open_interval_in_one_pass(monkeypatch):
    # one clip pass equals the two-pass max/min clamp bit for bit
    raw = np.array([0.0, 2.0**-60, EPS, 0.5, 1.0 - 2.0**-53])
    rng = ex.RngStream(1, 0)
    monkeypatch.setattr(rng, "gen", types.SimpleNamespace(random=lambda size: raw.copy()))
    want = np.minimum(np.maximum(raw, EPS), 1.0 - EPS)
    got = rng.uniform01(raw.size)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got[0] == got[1] == EPS and got[-1] == 1.0 - EPS


MIB = 1 << 20


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.Diffusion(d=5)], ids=lambda m: m.spec_string())
def test_draws_allocate_little_beyond_their_result(model):
    # numpy reports its allocations to tracemalloc; n = 10**6 draws take
    # 8 MiB, an ordered compound draw holds its values and one block's
    # multiset draw, and a multiset compound draw its values and the second
    # level's draws (about n/2, 4 MiB)
    sampler = ex.DivisorSampler(model)
    sampler.draw(ex.RngStream(1, 0), 10)  # any table is built before tracing
    n = 10**6
    tracemalloc.start()
    try:
        sampler.draw(ex.RngStream(2, 0), n)
        _, draw_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ex.sample_excursions(sampler, ex.RngStream(3, 0), n)
        _, compound_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ex.excursion_multiset(sampler, ex.RngStream(3, 0), n)
        _, multiset_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draw_peak <= 8 * MIB + 1 * MIB
    # one block's multiset draw (its values, its second level's draws and a
    # draw's chunk temporaries) stays below four blocks of doubles: 2 MiB
    assert compound_peak <= 8 * MIB + 4 * 8 * samplers._COMPOUNDS_PER_BLOCK
    assert multiset_peak <= 12 * MIB + 1 * MIB


def test_size_biased_compound_allocates_its_values_and_halves():
    # n = 10**6 size-biased compounds hold their values (7.6 MiB); each of
    # the two further compounds adds n uniforms and their mask, then about
    # n/2 compounds and the kept values they are added to
    dist = ex.excursion_switching(ex.Diffusion(d=5))
    dist.size_biased_draw(ex.RngStream(1, 0), 10)  # both tables are built before tracing
    tracemalloc.start()
    try:
        dist.size_biased_draw(ex.RngStream(2, 0), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * MIB


SPLIT_SAMPLERS = {
    "uniform01": lambda: lambda rng, n: rng.uniform01(n),
    **{f"divisor-{m.spec_string()}": functools.partial(lambda m: ex.DivisorSampler(m).draw, m) for m in VALID_MODELS},
    "size-biased-d1": lambda: _size_biased_draw(ex.Diffusion(d=1)),
    "size-biased-generalized-laplace": lambda: _size_biased_draw(ex.GeneralizedLaplace(alpha=1.0)),
    "switching-exp": lambda: ex.exponential_switching(1.0).draw,
    "switching-gamma": lambda: ex.gamma_switching(0.5, 2.0).draw,
    "switching-point": lambda: ex.point_mass_switching(1.0).draw,
    "switching-divisor": lambda: ex.divisor_switching(ex.Diffusion(d=2)).draw,
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SPLIT_SAMPLERS)), st.integers(0, 300), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_draws_are_split_invariant(name, a, b, seed):
    # every draw turns the next uniforms of its stream into draws one for
    # one: n draws in two calls equal the same n draws in one call on an
    # equal stream
    draw = SPLIT_SAMPLERS[name]()
    rng = ex.RngStream(seed, 1)
    split = np.concatenate([draw(rng, a), draw(rng, b)])
    assert np.array_equal(split, draw(ex.RngStream(seed, 1), a + b))


# the closed forms and table models, generalized_laplace's table with crowded
# guide cells among them
LARGEST_MODELS = [
    ex.Diffusion(d=1),
    ex.Diffusion(d=2),
    ex.RandomAcceleration(),
    ex.Diffusion(d=5),
    ex.ShiftedGaussian(alpha=0.0),
    ex.MaternHalfInteger(nu=2.5),
    ex.GeneralizedLaplace(alpha=1.0),
]


def _check_largest(model, n, k, seed):
    # the k largest of n draws, from the inverses of the k smallest uniforms,
    # equal the sorted top k of every draw bit for bit, and both calls leave
    # the stream at the same place
    sampler = ex.DivisorSampler(model)
    rng, rng_draw = ex.RngStream(seed, 2), ex.RngStream(seed, 2)
    got, draws = sampler.largest(rng, n, k), sampler.draw(rng_draw, n)
    want = np.sort(np.partition(draws, n - k)[n - k :])
    assert got.shape == (k,) and got.tobytes() == want.tobytes()
    assert np.array_equal(rng.uniform01(3), rng_draw.uniform01(3))
    if 2 <= k <= n - 1:  # the regression reads only the k largest and n
        assert ex.tail_exponent(got, k, n) == ex.tail_exponent(draws, k)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LARGEST_MODELS), st.integers(1, 3 * samplers._DRAWS_PER_CHUNK), st.integers(0, 2**32 - 1), st.data())
def test_largest_is_the_sorted_top_k_of_draw(model, n, seed, data):
    k = data.draw(st.sampled_from(sorted({1, min(2, n), max(n - 1, 1), n})) | st.integers(1, n), label="k")
    _check_largest(model, n, k, seed)


@pytest.mark.parametrize("chunk", [7, None], ids=["chunk-7", "chunk-default"])
@pytest.mark.parametrize("model", LARGEST_MODELS, ids=lambda m: m.spec_string())
def test_largest_edge_counts(model, chunk, monkeypatch):
    # k = 2, k = n - 1, and k above a chunk, so the k smallest uniforms are
    # inverted in more than one chunk
    if chunk is not None:
        monkeypatch.setattr(samplers, "_DRAWS_PER_CHUNK", chunk)
    c = samplers._DRAWS_PER_CHUNK
    n = 3 * c + 5
    for k in (1, 2, c, c + 1, 2 * c + 3, n - 1, n):
        _check_largest(model, n, k, seed=17)


def test_largest_and_tail_exponent_refuse_bad_counts():
    sampler = ex.DivisorSampler(ex.Diffusion(d=2))
    for n, k in [(10, 0), (10, 11), (10, -1), (0, 0), (0, 1)]:
        with pytest.raises(ValueError):
            sampler.largest(ex.RngStream(1, 0), n, k)
        with pytest.raises(ValueError):
            ex.excursion_largest(sampler, ex.RngStream(1, 0), n, k)
    samples = np.arange(1.0, 11.0)
    with pytest.raises(ValueError):  # fewer samples than k
        ex.tail_exponent(samples[:4], 5, 100)
    with pytest.raises(ValueError):  # more samples than n
        ex.tail_exponent(samples, 5, 9)
    assert ex.tail_exponent(samples[5:], 5, 10) == ex.tail_exponent(samples, 5)


# the divisor models, and the tables of the smallest and the largest
# dimension table2 draws
EXCURSION_LARGEST_MODELS = LARGEST_MODELS + [ex.Diffusion(d=3), ex.Diffusion(d=10)]


def _check_excursion_largest(source, n, k, seed):
    # the k largest compounds equal the sorted top k of the multiset bit for
    # bit, and both calls leave the stream at the same place
    rng, rng_multiset = ex.RngStream(seed, 2), ex.RngStream(seed, 2)
    got = ex.excursion_largest(source, rng, n, k)
    values, _ = ex.excursion_multiset(source, rng_multiset, n)
    want = np.sort(np.partition(values, n - k)[n - k :])
    assert got.shape == (k,) and got.tobytes() == want.tobytes()
    assert np.array_equal(rng.uniform01(3), rng_multiset.uniform01(3))
    if 2 <= k <= n - 1:
        assert ex.tail_exponent(got, k, n) == ex.tail_exponent(values, k)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(EXCURSION_LARGEST_MODELS),
    st.booleans(),
    st.integers(1, 3 * samplers._DRAWS_PER_CHUNK),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_excursion_largest_is_the_sorted_top_k_of_the_multiset(model, as_sampler, n, seed, data):
    # k = 2, n - 1, n, and just above G_2, where every compound is summed
    # exactly and none is pruned
    g2 = samplers._level_sizes(ex.RngStream(seed, 2), n)[1]
    k = data.draw(st.sampled_from(sorted({min(2, n), max(n - 1, 1), n, min(g2 + 1, n)})) | st.integers(1, n), label="k")
    _check_excursion_largest(ex.DivisorSampler(model) if as_sampler else model, n, k, seed)


@pytest.mark.parametrize("chunk", [7, None], ids=["chunk-7", "chunk-default"])
@pytest.mark.parametrize("model", EXCURSION_LARGEST_MODELS, ids=lambda m: m.spec_string())
def test_excursion_largest_edge_counts(model, chunk, monkeypatch):
    # k = 2, k = n - 1, k above a chunk, and a k above G_2 (no pruning), with
    # n past three chunks
    if chunk is not None:
        monkeypatch.setattr(samplers, "_DRAWS_PER_CHUNK", chunk)
    c = samplers._DRAWS_PER_CHUNK
    n = 3 * c + 5
    g2 = samplers._level_sizes(ex.RngStream(17, 2), n)[1]
    assert g2 + 1 < n - 1
    for k in (1, 2, c, c + 1, g2 + 1, n - 1, n):
        _check_excursion_largest(model, n, k, seed=17)


def test_excursion_largest_inverts_few_of_the_terms(monkeypatch):
    # at n = 10^5 and k = 10^4 the compounds with few terms are mostly
    # pruned: 52-54% of the multiset's divisor draws are inverted over six
    # seeds (25% at n = 10^6), where no pruning would invert them all
    inverted = []
    draws = samplers._draws
    monkeypatch.setattr(samplers, "_draws", lambda u, inverse: inverted.append(u.size) or draws(u, inverse))
    n, k = 10**5, 10**4
    for model in (ex.Diffusion(d=2), ex.MaternHalfInteger(nu=2.5)):
        inverted.clear()
        ex.excursion_largest(model, ex.RngStream(4, 0), n, k)
        assert sum(inverted) < 0.6 * sum(samplers._level_sizes(ex.RngStream(4, 0), n))
