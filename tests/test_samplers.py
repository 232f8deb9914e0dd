import functools
import math
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
    g_forward,
    g_inverse,
    gaussian_divisor_density,
    geometric_half_oracle,
    plain_spline,
    poly_inverse_b,
    random_acceleration_inverse_oracle,
    sample_excursions_one_shot,
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


@settings(max_examples=300, deadline=None)
@given(
    case=st.tuples(st.sampled_from([_divisor_law, _size_biased_law]), ROUND_TRIP_MODELS),
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


def test_geometric_counts():
    counts = ex.sample_geometric_half(ex.RngStream(12, 0), 10**6)
    assert counts.min() >= 1
    assert counts.mean() == pytest.approx(2.0, rel=0.005)
    # P(nu = k) = 2^{-k}
    for k in (1, 2, 3):
        assert (counts == k).mean() == pytest.approx(2.0**-k, abs=3e-3)


def test_geometric_counts_are_exact_at_powers_of_two():
    # U in [2^-k, 2^-(k-1)) gives k: 2^-k gives k and the double just below
    # it k + 1, where ceil(log U / log 1/2) misrounds; U = 1 gives 1
    k = np.arange(1, 53)
    powers = 2.0 ** -k.astype(float)
    below = np.nextafter(powers, 0.0)
    for u, want in ((powers, k), (below, k + 1), (np.array([1.0]), np.array([1]))):
        assert np.array_equal(samplers._geometric_half_from_u(u), want)
        assert np.array_equal(geometric_half_oracle(u), want)


def test_excursion_mean_conservation():
    vals, counts = ex.sample_excursions(ex.Diffusion(d=2), ex.RngStream(5, 0), 10**5)
    mu = ex.mean_excursion(ex.Diffusion(d=2))
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - mu) <= 3 * se
    assert np.all(counts >= 1)


def test_exponential_closure():
    vals, _ = ex.sample_excursions(ex.exponential_switching(1.0), ex.RngStream(9, 0), 10**5)
    res = stats.kstest(vals, lambda x: -np.expm1(-0.5 * np.asarray(x)))
    assert res.pvalue > 0.01
    theta, _ = ex.tail_exponent(vals, 10**4)
    assert theta == pytest.approx(0.5, rel=0.02)


def test_excursion_sample_object():
    values, counts = ex.sample_excursions(ex.Diffusion(d=2), ex.RngStream(77, 0), 1)
    assert values.shape == counts.shape == (1,)
    assert values[0] > 0 and counts[0] >= 1


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.MaternHalfInteger(nu=2.5)], ids=lambda m: m.spec_string())
def test_excursion_sample_of_size_zero_is_empty(model):
    values, counts = ex.sample_excursions(model, ex.RngStream(77, 0), 0)
    assert values.shape == counts.shape == (0,)
    assert values.dtype == np.float64 and counts.dtype == np.int64


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
    va, ca = ex.sample_excursions(ex.MaternHalfInteger(nu=2.5), ex.RngStream(9, 9), 500)
    vb, cb = ex.sample_excursions(ex.MaternHalfInteger(nu=2.5), ex.RngStream(9, 9), 500)
    assert np.array_equal(va, vb) and np.array_equal(ca, cb)


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
def test_blocked_compound_equals_one_shot(name, block, monkeypatch):
    source = COMPOUND_SOURCES[name]()
    if block is not None:
        monkeypatch.setattr(samplers, "_COMPOUNDS_PER_BLOCK", block)
    n = 400 if block is not None else 3 * samplers._COMPOUNDS_PER_BLOCK + 5
    rng, rng_oracle = ex.RngStream(5, 3), ex.RngStream(5, 3)
    values, counts = ex.sample_excursions(source, rng, n)
    want_values, want_counts = sample_excursions_one_shot(source, rng_oracle, n)
    assert np.array_equal(counts, want_counts)
    assert np.array_equal(values, want_values)
    # both took the same uniforms: the streams continue alike
    assert np.array_equal(rng.uniform01(3), rng_oracle.uniform01(3))


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
# tables, the size-biased tables and the Geometric(1/2) counts
CHUNK_SOURCES = {
    "closed-d1": (lambda: ex.DivisorSampler(ex.Diffusion(d=1)).draw, diffusion_d1_inverse_oracle),
    "closed-d2": (lambda: ex.DivisorSampler(ex.Diffusion(d=2)).draw, diffusion_d2_inverse_oracle),
    "closed-random-acceleration": (lambda: ex.DivisorSampler(ex.RandomAcceleration()).draw,
                                   random_acceleration_inverse_oracle),
    "geometric-half": (lambda: ex.sample_geometric_half, geometric_half_oracle),
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
    # zero-length draw (the counts take no NaN: it has no integer value)
    edges = {0: EPS, 2 * c - 1: 1.0 - EPS, 2 * c: np.nan, 3 * c + 1: 1.0, n - 1: EPS}
    if name == "geometric-half":
        del edges[2 * c]
    make_draw, oracle = CHUNK_SOURCES[name]
    draw = make_draw()
    rng, rng_oracle = _EdgeStream(5, 4, edges), _EdgeStream(5, 4, edges)
    got = draw(rng, n)
    want = oracle(rng_oracle.uniform01(n))
    assert got.dtype == want.dtype and got.shape == (n,)
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    if name != "geometric-half":
        assert np.isnan(got[2 * c]) and got[3 * c + 1] == 0.0
    # both took the same uniforms: the streams continue alike
    assert np.array_equal(rng.uniform01(3), rng_oracle.uniform01(3))


MIB = 1 << 20


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.Diffusion(d=5)], ids=lambda m: m.spec_string())
def test_draws_allocate_little_beyond_their_result(model):
    # numpy reports its allocations to tracemalloc; n = 10**6 draws take
    # 8 MiB, and a compound draw holds its values and counts (16 MiB)
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
    finally:
        tracemalloc.stop()
    assert draw_peak <= 8 * MIB + 1 * MIB
    assert compound_peak <= 16 * MIB + 1.5 * MIB


def test_size_biased_compound_allocates_its_blocks_only():
    # n = 10**6 size-biased compounds hold their values and the two count
    # arrays while the second is added to the first (24 MiB); the further
    # divisor draws are taken and summed a block at a time
    dist = ex.excursion_switching(ex.Diffusion(d=5))
    dist.size_biased_draw(ex.RngStream(1, 0), 10)  # both tables are built before tracing
    tracemalloc.start()
    try:
        dist.size_biased_draw(ex.RngStream(2, 0), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * MIB + 1 * MIB


SPLIT_SAMPLERS = {
    "uniform01": lambda: lambda rng, n: rng.uniform01(n),
    "geometric-half": lambda: ex.sample_geometric_half,
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
    # the blocked compound relies on it: n draws in two calls equal the
    # same n draws in one call on an equal stream
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
    samples = np.arange(1.0, 11.0)
    with pytest.raises(ValueError):  # fewer samples than k
        ex.tail_exponent(samples[:4], 5, 100)
    with pytest.raises(ValueError):  # more samples than n
        ex.tail_exponent(samples, 5, 9)
    assert ex.tail_exponent(samples[5:], 5, 10) == ex.tail_exponent(samples, 5)
