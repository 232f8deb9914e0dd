import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.interpolate import CubicSpline

import excursia as ex
from excursia import slepian
from excursia.samplers import (
    _diffusion_d1_from_u,
    _diffusion_d2_from_u,
    _inverse_survival,
    _inverse_table,
    _not_a_knot,
    _size_biased_survival,
    _table_end,
    _table_inverse,
    gaussian_divisor_density,
)

from conftest import survival_inverse_oracle

T_STAR = 2.0 * np.arccosh(2.0)
U_GRID = np.linspace(1e-6, 1.0 - 1e-6, 10001)
EPS = np.finfo(float).eps


def test_diffusion_d2_closed_form():
    assert _diffusion_d2_from_u(np.array([0.5]))[0] == pytest.approx(T_STAR, rel=1e-12)
    # U -> 1 gives vanishing draws
    assert _diffusion_d2_from_u(np.array([1.0 - 1e-12]))[0] < 1e-5
    err = np.abs(np.asarray(ex.e0(ex.Diffusion(d=2), _diffusion_d2_from_u(U_GRID))) - U_GRID)
    assert err.max() <= 1e-9


def test_diffusion_d1_closed_form():
    # independent oracle: bracketing root of the survival itself
    t_oracle = survival_inverse_oracle(ex.Diffusion(d=1), 0.5)
    t_closed = _diffusion_d1_from_u(np.array([0.5]))[0]
    assert t_closed == pytest.approx(t_oracle, abs=1e-10)
    assert t_closed == pytest.approx(3.3257717821, abs=1e-8)
    err = np.abs(np.asarray(ex.e0(ex.Diffusion(d=1), _diffusion_d1_from_u(U_GRID))) - U_GRID)
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
    assert ex.poly_inverse_b(3, 3.0) == pytest.approx(1.0, abs=1e-12)
    assert ex.poly_inverse_b(3, 7.0) == pytest.approx(2.0, abs=1e-12)
    assert ex.poly_inverse_b(4, 1.0) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for d in (3, 7, 33, 64):
        a = np.exp(rng.uniform(0.0, math.log(1e6), 200))
        a = np.maximum(a, 1.0)
        b = ex.poly_inverse_b(d, a)
        resid = np.abs(np.polyval(np.ones(d), b) - a)
        assert np.all(resid <= 1e-12 * a + 1e-12)
    with pytest.raises(ValueError):
        ex.poly_inverse_b(3, 0.5)


def test_g_inverse_round_trips():
    assert ex.g_inverse(3, float(ex.g_forward(3, 2.0))) == pytest.approx(2.0, abs=1e-8)
    assert ex.g_inverse(5, float(ex.g_forward(5, 1.0))) == pytest.approx(1.0, abs=1e-8)
    for d in (3, 4, 10):
        g = np.linspace(1e-6, 1 - 1e-6, 2001)
        t = ex.g_inverse(d, g)
        back = np.asarray(ex.g_forward(d, t))
        assert np.abs(back - g).max() <= 1e-9, d
    # g -> 1 maps to vanishing times
    assert ex.g_inverse(3, 1.0 - 1e-12) < 1e-4
    with pytest.raises(ValueError):
        ex.g_inverse(3, 1.5)


def test_matern_round_trip():
    for nu in (2.5, 3.5, 4.5):
        model = ex.MaternHalfInteger(nu=nu)
        rng = ex.RngStream(3, 17)
        t = ex.sample_divisor(model, rng, 10000)
        u = ex.RngStream(3, 17).uniform01(10000)
        err = np.abs(np.asarray(ex.e0(model, t)) - u)
        assert err.max() <= 1e-8, nu
    t_mid = ex.sample_divisor(ex.MaternHalfInteger(nu=2.5), ex.RngStream(8, 0), 2000)
    assert np.all(t_mid > 0)
    # oracle spot check at u = 0.3
    t_oracle = survival_inverse_oracle(ex.MaternHalfInteger(nu=2.5), 0.3)
    assert float(np.asarray(ex.e0(ex.MaternHalfInteger(nu=2.5), t_oracle))) == pytest.approx(0.3, abs=1e-10)


def test_generic_round_trip_and_dispatch_match():
    gl = ex.GeneralizedLaplace(alpha=1.0)
    rng = ex.RngStream(4, 2)
    t = ex.sample_divisor(gl, rng, 10000)
    u = ex.RngStream(4, 2).uniform01(10000)
    assert np.abs(np.asarray(ex.e0(gl, t)) - u).max() <= 1e-8
    # the inverse table agrees with the closed form for diffusion d=2 at the
    # median, where the survival slope is order one
    t_gen = _table_inverse(slepian.e0, ex.Diffusion(d=2), np.array([0.5]))[0]
    assert t_gen == pytest.approx(T_STAR, abs=1e-7)


def _relative_round_trip(model, u, survival=slepian.e0):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t = _inverse_survival(model, u) if survival is slepian.e0 else _table_inverse(survival, model, u)
    return np.abs(np.asarray(survival(model, t)) / u - 1.0)


# every usable family; the size-biased survival S* of shifted_gaussian with
# alpha above about 0.21 crosses zero too steeply for the contract, and its
# table refuses to build (test_cli::test_switch_size_biased_table_refusal_is_numerical_failure)
ROUND_TRIP_MODELS = st.one_of(
    st.integers(1, 64).map(lambda d: ex.Diffusion(d=d)),
    st.sampled_from([ex.MaternHalfInteger(nu=nu) for nu in (2.5, 3.5, 4.5)] + [ex.RandomAcceleration()]),
    st.floats(0.5, 3.0).map(lambda a: ex.GeneralizedLaplace(alpha=a)),
    st.sampled_from([ex.ShiftedGaussian(alpha=a) for a in (0.0, 0.15, 0.2)]),
)


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just(slepian.e0), st.one_of(ROUND_TRIP_MODELS, st.just(ex.ShiftedGaussian(alpha=0.22)))),
        st.tuples(st.just(_size_biased_survival), ROUND_TRIP_MODELS),
    ),
    u=st.floats(EPS, 1.0 - EPS),
)
def test_inverse_survival_relative_round_trip(case, u):
    survival, model = case
    assert _relative_round_trip(model, u, survival)[0] <= 1e-9


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
        assert _size_biased_survival(model, t) == pytest.approx(expected, rel=1e-9), t
    assert _size_biased_survival(model, 0.0) == 1.0


def test_inverse_table_deep_tail_regressions():
    # the old residual-tolerance inverters accepted their first iterate for
    # u below 1e-9: Matern 2.5 mapped both u to t = 32, generalized Laplace
    # returned a t where E0 was about 7 u
    matern = ex.MaternHalfInteger(nu=2.5)
    t = _inverse_survival(matern, np.array([2.2e-16, 1e-12]))
    assert t[0] > t[1]
    assert _relative_round_trip(matern, [2.2e-16, 1e-12]).max() <= 1e-9
    assert _relative_round_trip(ex.GeneralizedLaplace(alpha=1.0), EPS)[0] <= 1e-9
    # no fallback inverter: a table that cannot meet the round trip (here
    # for a survival that drops through zero with slope of order one)
    # refuses to build
    with pytest.raises(RuntimeError, match="misses the relative round trip"):
        _inverse_table(slepian.e0, ex.ShiftedGaussian(alpha=2.0))


def test_inverse_table_refuses_a_survival_that_is_not_strictly_decreasing(monkeypatch):
    # flat on (1, 2): z repeats on the nodes there
    monkeypatch.setattr(slepian, "e0", lambda model, t: np.exp(-np.where((t > 1.0) & (t < 2.0), 1.0, t)))
    with pytest.raises(RuntimeError, match="not strictly decreasing"):
        _inverse_table.__wrapped__(slepian.e0, ex.Diffusion(d=3))


@pytest.mark.parametrize("alpha", [0.15, 0.2, 0.22, 0.2259])
def test_inverse_table_survival_crossing_zero_inside_gate_tolerance(alpha):
    # E0 of shifted_gaussian(alpha) crosses zero near t = pi/(2 alpha) and
    # stays above -1e-12 after it, so the validity gate accepts the model;
    # for alpha = 0.15 E0 falls below eps/4 well before the crossing, for
    # the others within 0.03% of it (0.2259 is just inside the gate)
    model = ex.ShiftedGaussian(alpha=alpha)
    assert ex.validate_iia(model).usable
    assert np.asarray(ex.e0(model, np.linspace(0.0, 32.0, 3201))).min() < 0.0
    t = ex.DivisorSampler(model).draw(ex.RngStream(41, 0), 10**4)
    u = ex.RngStream(41, 0).uniform01(10**4)
    assert np.all(np.isfinite(t))
    assert np.abs(np.asarray(ex.e0(model, t)) / u - 1.0).max() <= 1e-9
    assert _relative_round_trip(model, np.geomspace(EPS, 1e-6, 4001)).max() <= 1e-9


def _recursive_minimum_draws(d, rng, n):
    """Independent oracle: T_d = min(T_2, G_3^{-1}(U_3^2), ..., G_d^{-1}(U_d^2))."""
    u = rng.uniform01((d - 1, n))
    t = _diffusion_d2_from_u(u[0])
    for k in range(3, d + 1):
        t = np.minimum(t, ex.g_inverse(k, u[k - 2] ** 2))
    return t


@pytest.mark.parametrize("d", [3, 5, 10])
def test_inverse_table_matches_recursive_minimum(d):
    model = ex.Diffusion(d=d)
    rng = ex.RngStream(31, d)
    draws = ex.DivisorSampler(model).draw(rng, 10**5)
    # exactly one uniform per draw, mapped through the table
    u = ex.RngStream(31, d).uniform01(10**5 + 1)
    assert np.array_equal(draws, _table_inverse(slepian.e0, model, u[:-1]))
    assert rng.uniform01(1)[0] == u[-1]
    oracle = _recursive_minimum_draws(d, ex.RngStream(32, d), 10**5)
    assert stats.ks_2samp(draws, oracle).pvalue > 0.01


def test_gaussian_divisor_table_draws_match_survival():
    model = ex.ShiftedGaussian(alpha=0.0)
    samples = ex.DivisorSampler(model).draw(ex.RngStream(11, 0), 10**6)
    # one uniform per draw, mapped through the inverse table
    assert np.array_equal(samples, _table_inverse(slepian.e0, model, ex.RngStream(11, 0).uniform01(10**6)))
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


# every table shape: smooth (one knot per guide cell at most), power tails
# and refined zero crossings (cells holding several knots)
TABLE_MODELS = [ex.Diffusion(d=3), ex.Diffusion(d=10), ex.Diffusion(d=64)]
TABLE_MODELS += [ex.MaternHalfInteger(nu=nu) for nu in (2.5, 3.5, 4.5)] + [ex.GeneralizedLaplace(alpha=1.0)]
TABLE_MODELS += [ex.ShiftedGaussian(alpha=a) for a in (0.0, 0.2, 0.2259)]
TABLE_IDS = [m.spec_string() for m in TABLE_MODELS]


@st.composite
def _table_and_points(draw):
    table = _inverse_table(slepian.e0, draw(st.sampled_from(TABLE_MODELS)))
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
    assert np.array_equal(table.interval(z), expected)


def _plain_spline(x, c, z):
    """The piecewise cubic with coefficients c at z, its piece found by a
    binary search: the reference for the guided evaluation."""
    i = np.clip(np.searchsorted(x, z, "right") - 1, 0, x.size - 2)
    d = z - x[i]
    d2 = d * d
    return c[3][i] + c[2][i] * d + c[1][i] * d2 + c[0][i] * (d2 * d)


@pytest.mark.parametrize("model", TABLE_MODELS, ids=TABLE_IDS)
def test_guided_table_equals_spline_bit_for_bit(model):
    table = _inverse_table(slepian.e0, model)
    x, c = table.x, table.c
    u = np.concatenate((ex.RngStream(61, 0).uniform01(10**6), np.geomspace(EPS, 1e-12, 10001), [1.0 - EPS]))
    z = np.sqrt(-np.log(u))
    assert np.array_equal(table(z), _plain_spline(x, c, z))
    assert np.array_equal(_table_inverse(slepian.e0, model, u), np.maximum(np.expm1(_plain_spline(x, c, z)), 0.0))
    # knots and their neighbours, where the interval changes
    for zk in (x, np.nextafter(x, -np.inf)[1:], np.nextafter(x, np.inf)):
        assert np.array_equal(table(zk), _plain_spline(x, c, zk))
    t = _table_inverse(slepian.e0, model, np.array([np.nan, 1.0]))
    assert np.isnan(t[0]) and t[1] == 0.0


@pytest.mark.parametrize("model", TABLE_MODELS, ids=TABLE_IDS)
def test_not_a_knot_build_matches_scipy_cubic_spline(model):
    # the knots and values of a built table (refined ones included: the
    # shifted_gaussian alpha >= 0.2 tables have more than 4096 knots); the
    # last knot is always the table end, log1p(t) at the others is c[3]
    table = _inverse_table(slepian.e0, model)
    x = table.x
    y = np.append(table.c[3], np.log1p(_table_end(slepian.e0, model)))
    z = np.sqrt(-np.log(ex.RngStream(62, 0).uniform01(10**5)))
    got = _plain_spline(x, _not_a_knot(x, y), z)
    want = CubicSpline(x, y)(z)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(1e-2, 1.0), min_size=3, max_size=40).flatmap(
        lambda dx: st.tuples(
            st.just(np.concatenate(([0.0], np.cumsum(dx)))),
            st.lists(st.floats(-1e3, 1e3), min_size=len(dx) + 1, max_size=len(dx) + 1).map(np.array),
        )
    ),
    st.floats(0.0, 1.0),
)
def test_not_a_knot_property_matches_scipy_cubic_spline(knots_values, frac):
    # strictly increasing knots with spacings within a factor 100 of each
    # other and n >= 4 random values: the two builds agree to 1e-11 of the
    # largest |spline| on the knots and 102 points between them (the
    # largest difference seen on 2e4 random cases was 3.2e-13 of it)
    x, y = knots_values
    z = np.concatenate((x, np.linspace(x[0], x[-1], 101), [x[0] + frac * (x[-1] - x[0])]))
    got = _plain_spline(x, _not_a_knot(x, y), z)
    want = CubicSpline(x, y)(z)
    assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want).max())


def test_divisor_distribution_ks_match():
    cases = [ex.Diffusion(d=1), ex.Diffusion(d=2), ex.Diffusion(d=5), ex.RandomAcceleration(),
             ex.ShiftedGaussian(alpha=0.0), ex.MaternHalfInteger(nu=2.5), ex.GeneralizedLaplace(alpha=1.0)]
    for i, model in enumerate(cases):
        draws = ex.sample_divisor(model, ex.RngStream(100 + i, 0), 10**5)
        res = stats.kstest(draws, lambda x: 1.0 - np.asarray(ex.e0(model, x)))
        assert res.pvalue > 0.01, (model.spec_string(), res.pvalue)


def test_geometric_counts():
    counts = ex.sample_geometric_half(ex.RngStream(12, 0), 10**6)
    assert counts.min() >= 1
    assert counts.mean() == pytest.approx(2.0, rel=0.005)
    # P(nu = k) = 2^{-k}
    for k in (1, 2, 3):
        assert (counts == k).mean() == pytest.approx(2.0**-k, abs=3e-3)


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
        ex.sample_divisor(ex.ShiftedGaussian(alpha=2.0), ex.RngStream(1, 0), 10)
    with pytest.raises(ex.ValidityError):
        ex.sample_excursions(ex.ShiftedGaussian(alpha=2.0), ex.RngStream(1, 0), 10)
    with pytest.raises(ex.ValidityError):
        ex.divisor_switching(ex.ShiftedGaussian(alpha=2.0))


def test_determinism_and_stream_independence():
    a = ex.sample_divisor(ex.Diffusion(d=3), ex.RngStream(123, 4), 1000)
    b = ex.sample_divisor(ex.Diffusion(d=3), ex.RngStream(123, 4), 1000)
    assert np.array_equal(a, b)
    c = ex.sample_divisor(ex.Diffusion(d=3), ex.RngStream(123, 5), 1000)
    assert not np.array_equal(a, c)
    va, ca = ex.sample_excursions(ex.MaternHalfInteger(nu=2.5), ex.RngStream(9, 9), 500)
    vb, cb = ex.sample_excursions(ex.MaternHalfInteger(nu=2.5), ex.RngStream(9, 9), 500)
    assert np.array_equal(va, vb) and np.array_equal(ca, cb)


def test_uniforms_stay_inside_open_interval():
    u = ex.RngStream(0, 0).uniform01(10**6)
    assert u.min() > 0.0 and u.max() < 1.0
