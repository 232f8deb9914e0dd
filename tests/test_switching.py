import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

import excursia as ex
from excursia import switching
from excursia.laplace import QuadratureError
from excursia.samplers import _size_biased_law

from oracles import (
    size_biased_compound_count_oracle,
    switch_covariance_loop_oracle,
    switch_expectation_loop_oracle,
    table_inverse_oracle,
)


def test_origin_path_starts_on():
    e_hat, se = switching.estimate_expectation(ex.exponential_switching(1.0), [0.0], 1000, ex.RngStream(1, 0))
    assert e_hat[0] == 1.0 and se[0] == 0.0


def test_point_mass_path():
    # instants 1, 2, 3, ...: every path is the same, so the estimates are exact
    grid = [0.0, 1.0, 1.0 + 1e-12, 2.0, 2.5, 3.5]
    e_hat, se = switching.estimate_expectation(ex.point_mass_switching(1.0), grid, 100, ex.RngStream(2, 0))
    # left-closed convention: the state at an instant is the pre-switch value
    assert list(e_hat) == [1.0, 1.0, -1.0, -1.0, 1.0, -1.0]
    assert list(se) == [0.0] * len(grid)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 16),
    j=st.integers(0, 5),
    halves=st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True),
)
def test_left_closed_convention_on_dyadic_point_mass(k, j, halves):
    # dyadic c keeps the cumulative instants c, 2c, ... and the grid times
    # (h/2) c exact, so grid times land exactly on and between instants
    c = k / 2.0**j
    grid = [0.5 * h * c for h in halves]
    e_hat, se = switching.estimate_expectation(ex.point_mass_switching(c), grid, 3, ex.RngStream(0, 0))
    # instants strictly before (h/2) c are the i >= 1 with 2i < h
    expected = [(-1.0) ** sum(1 for i in range(1, h + 1) if 2 * i < h) for h in halves]
    assert list(e_hat) == expected
    assert list(se) == [0.0] * len(grid)


def test_expectation_matches_exponential_formula():
    dist = ex.exponential_switching(1.0)
    grid = np.array([0.5, 1.0, 2.0])
    e_hat, se = switching.estimate_expectation(dist, grid, 10**5, ex.RngStream(21, 0))
    for t, e, s in zip(grid, e_hat, se):
        assert abs(e - math.exp(-2 * t)) <= 3 * s, t


def test_stationary_delay_laws():
    dist = ex.exponential_switching(1.0)
    # the start draws the covering interval first, so the same stream gives it again
    ab = dist.size_biased_draw(ex.RngStream(23, 1), 20000)
    a, sign = switching._stationary_start(dist, 20000, ex.RngStream(23, 1))
    # interval covering the origin is size-biased: Gamma(2, 1)
    assert stats.kstest(ab, stats.gamma(a=2).cdf).pvalue > 0.01
    # forward delay marginal is Exp(1)
    assert stats.kstest(a, stats.expon.cdf).pvalue > 0.01
    assert abs(sign.mean()) <= 3.0 / math.sqrt(sign.size)
    assert ab.mean() == pytest.approx(2.0, rel=0.01)


SWITCH_LAWS = {
    "exp": lambda: ex.exponential_switching(1.0),
    "gamma": lambda: ex.gamma_switching(2.0, 1.5),
    "divisor-matern": lambda: ex.divisor_switching(ex.MaternHalfInteger(nu=2.5)),
    "excursion-diffusion": lambda: ex.excursion_switching(ex.Diffusion(d=2)),
}


@pytest.mark.parametrize("law", SWITCH_LAWS)
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 300),
    grid=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8, unique=True).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=500, grid=[0.0, 0.25, 0.5, 1.0, 2.0, 3.5], seed=91)
def test_ensemble_matches_loop_oracles_bit_for_bit(law, n, grid, seed):
    # the running sums, their parity and the states per time against each
    # path's instants kept as a list and its flips counted in a Python loop
    dist, grid = SWITCH_LAWS[law](), np.array(grid)
    got = switching.estimate_expectation(dist, grid, n, ex.RngStream(seed, 0))
    want = switch_expectation_loop_oracle(dist, grid, n, ex.RngStream(seed, 0))
    assert len(got) == 2 and all(np.array_equal(g, w) for g, w in zip(got, want))
    got = switching.estimate_stationary_covariance(dist, grid, n, ex.RngStream(seed, 1))
    want = switch_covariance_loop_oracle(dist, grid, n, ex.RngStream(seed, 1))
    assert len(got) == 4 and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_ensemble_draws_one_switching_time_per_path_per_round():
    # point:0.25 sums reach 1 after 4 rounds and pass it after the 5th;
    # one instant before 0.5 and three before 1
    sizes = []
    point = ex.point_mass_switching(0.25)
    counted = dataclasses.replace(point, draw=lambda rng, n: sizes.append(n) or point.draw(rng, n))
    e_hat, _ = switching.estimate_expectation(counted, [0.5, 1.0], 7, ex.RngStream(1, 0))
    assert sizes == [7] * 5
    assert list(e_hat) == [-1.0, -1.0]


def test_ensemble_memory_is_a_parity_per_time_not_an_instant_per_draw():
    # the CLI defaults: 10^5 exp:1 paths at 20 times to t = 5 hold 20 x 10^5
    # parity bools and a few (n,) arrays, not every switch instant
    grid = np.arange(1, 21) * 0.25
    tracemalloc.start()
    try:
        switching.estimate_expectation(ex.exponential_switching(1.0), grid, 10**5, ex.RngStream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def test_size_biased_mean_identity():
    # E[A+B] = E[T^2]/E[T]
    for dist, expected in [(ex.exponential_switching(1.0), 2.0), (ex.gamma_switching(2.0, 1.0), 3.0)]:
        ab = dist.size_biased_draw(ex.RngStream(31, 0), 10**5)
        assert np.mean(ab) == pytest.approx(expected, rel=0.01), dist.label


def test_stationary_mean_zero_and_covariance():
    dist = ex.exponential_switching(1.0)
    grid = np.array([0.5, 1.0, 2.0])
    e_hat, e_se, r_hat, r_se = switching.estimate_stationary_covariance(dist, grid, 10**5, ex.RngStream(22, 0))
    for t, e, es, r, rs in zip(grid, e_hat, e_se, r_hat, r_se):
        assert abs(e) <= 3 * es
        assert abs(r - math.exp(-2 * t)) <= 3 * rs


def test_stationary_covariance_is_unbiased_for_small_ensembles():
    # the stationary mean is exactly 0, so R(t) = E[s_0 s_t]: the mean of
    # s_0 s_t is unbiased at any n, where subtracting mean(s_0) mean(s_t)
    # read R low by about R/n (-15 SE at t = 0.25 over 4000 ensembles)
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    dist, reps = ex.exponential_switching(1.0), 2000
    rows = [switching.estimate_stationary_covariance(dist, grid, 10, ex.RngStream(81, i)) for i in range(reps)]
    r_hat = np.array([row[2] for row in rows])
    assert np.all(r_hat[:, 0] == 1.0) and all(row[3][0] == 0.0 for row in rows)
    mean, se = r_hat.mean(axis=0), r_hat.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mean[1:] - np.exp(-2 * grid[1:])) <= 4 * se[1:]), (mean, se)


def test_stationary_initial_state_symmetric():
    dist = ex.exponential_switching(1.0)
    n = 2000
    e_hat, _, _, _ = switching.estimate_stationary_covariance(dist, [0.0], n, ex.RngStream(40, 0))
    frac = 0.5 * (1.0 + e_hat[0])  # share of paths in state +1 at the origin
    assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / n)


def _stationary_estimates_from(dist, t0, grid, n, rng):
    """(E_hat, E_se, R_hat, R_se) of the stationary ensemble's states at
    t0 + grid, R between the states at t0 and at t0 + t."""
    s0, *states = switching._ensemble(dist, t0 + np.append(0.0, grid), n, rng, True)
    e, es = np.array([switching._mean_se(st) for st in states]).T
    r, rs = np.array([switching._mean_se(s0 * st) for st in states]).T
    return e, es, r, rs


def test_stationarity_certificate_invariance_in_base_time():
    # one-dimensional law and covariance do not depend on the base time
    grid = np.array([0.5, 1.0])
    for dist in [ex.exponential_switching(1.0), ex.gamma_switching(2.0, 1.0)]:
        results = {}
        for j, t0 in enumerate([0.0, 1.0, 5.0]):
            results[t0] = _stationary_estimates_from(dist, t0, grid, 10**5, ex.RngStream(50, 10 + j))
        for t0 in [1.0, 5.0]:
            e0_, es0, r0_, rs0 = results[0.0]
            e1, es1, r1, rs1 = results[t0]
            assert np.all(np.abs(e1 - e0_) <= 3 * np.hypot(es0, es1))
            assert np.all(np.abs(r1 - r0_) <= 3 * np.hypot(rs0, rs1)), (dist.label, t0)


def test_cumulative_expectation_consistent_with_stationary_covariance():
    # (mu/2)(1 - R(t)) equals the integral of E over [0, t]
    dist = ex.exponential_switching(1.0)
    grid = np.linspace(0.1, 2.5, 13)
    e_hat, e_se = switching.estimate_expectation(dist, grid, 10**5, ex.RngStream(60, 0))
    _, _, r_hat, r_se = switching.estimate_stationary_covariance(dist, grid, 10**5, ex.RngStream(61, 0))
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (e_hat[1:] + e_hat[:-1]) * np.diff(grid))))
    cum += 0.5 * (1.0 + e_hat[0]) * grid[0]  # leading sliver from E(0) = 1
    lhs = 0.5 * dist.mean * (1.0 - r_hat)
    tol = 3 * (0.5 * dist.mean * r_se + np.cumsum(np.concatenate(([e_se[0] * grid[0]], e_se[1:] * np.diff(grid))))) + 0.01
    assert np.all(np.abs(lhs - cum) <= tol)


def test_covariance_from_expectation():
    rows = ex.covariance_from_expectation(lambda u: np.exp(-2 * u), 1.0, np.linspace(0.0, 3.0, 13))
    for t, r in rows:
        assert r == pytest.approx(math.exp(-2 * t), abs=1e-8)
    assert rows[0][1] == 1.0
    # divisor pair: R from E0 reproduces the clipped autocovariance
    m = ex.Diffusion(d=2)
    rows = ex.covariance_from_expectation(lambda u: ex.e0(m, u), 2 * math.pi, np.linspace(0.0, 10.0, 21))
    for t, r in rows:
        assert r == pytest.approx(float(ex.clipped_autocovariance(m, t)), abs=1e-6)


def test_stationary_covariance_transform_identity():
    # L R(s) = 1/s - (2/(s mu)) L E(s): for Exp(1) switching L E(s) =
    # (1/s)(1 - Psi)/(1 + Psi) with Psi(s) = 1/(1 + s), and for the divisor
    # pair of diffusion d=2, E = E0 and R is the clipped autocovariance
    for s in (0.3, 1.0, 2.5):
        psi = 1.0 / (1.0 + s)
        le = (1.0 - psi) / (s * (1.0 + psi))
        assert le == pytest.approx(1.0 / (s + 2.0), rel=1e-14)
        assert 1.0 / s - 2.0 * le / s == pytest.approx(1.0 / (s + 2.0), rel=1e-14)
    m = ex.Diffusion(d=2)
    mu = ex.mean_excursion(m)
    for s in (0.3, 1.0, 2.5):
        f = lambda t: float(ex.clipped_autocovariance(m, t)) * math.exp(-s * t)
        head, err_head = integrate.quad(f, 0.0, 10.0, epsabs=1e-13, limit=200)
        tail, err_tail = integrate.quad(f, 10.0, np.inf, epsabs=1e-13, limit=200)
        assert err_head + err_tail <= 1e-11
        assert head + tail == pytest.approx(1.0 / s - 2.0 / (s * mu) * ex.laplace_e0(m, s), abs=1e-10), s


def test_covariance_from_expectation_refuses_a_jump_inside_an_interval():
    # the rule cannot resolve a step at u = 0.3 inside [0, 0.5]: its error
    # estimate is raised instead of being discarded
    step = lambda u: np.where(u < 0.3, 1.0, 0.0)
    with pytest.raises(QuadratureError, match="quadrature error estimate"):
        ex.covariance_from_expectation(step, 1.0, [0.0, 0.5, 1.0])
    # a jump on a grid point is integrated exactly
    rows = ex.covariance_from_expectation(step, 1.0, [0.0, 0.3, 1.0])
    assert rows[:, 1] == pytest.approx([1.0, 0.4, 0.4], abs=1e-15)


@pytest.mark.parametrize("grid", [[2.0, 1.0], [0.0, 1.0, 1.0], [-0.5, 1.0], [], [[0.5, 1.0]]], ids=["decreasing", "repeated", "negative-start", "empty", "2-d"])
def test_covariance_from_expectation_refuses_bad_grid(grid):
    called = []
    with pytest.raises(ValueError, match="grid must be increasing"):
        ex.covariance_from_expectation(lambda u: called.append(u) or np.exp(-u), 1.0, grid)
    assert called == []


def test_excursion_switching_reproduces_clipped_autocovariance():
    # end-to-end: compound exceedance draws as switching times give a
    # stationary path whose covariance is (2/pi) arcsin r(t)
    model = ex.Diffusion(d=2)
    dist = switching.excursion_switching(model)
    grid = np.array([0.5, 1.0, 2.0, 4.0])
    _, _, r_hat, r_se = switching.estimate_stationary_covariance(dist, grid, 2 * 10**4, ex.RngStream(71, 0))
    target = np.asarray(ex.clipped_autocovariance(model, grid))
    assert np.all(np.abs(r_hat - target) <= 3.5 * r_se + 0.005), (r_hat, target)


@pytest.mark.parametrize(
    "factory, args",
    [
        (ex.exponential_switching, (math.inf,)),
        (ex.exponential_switching, (math.nan,)),
        (ex.exponential_switching, (0.0,)),
        (ex.gamma_switching, (math.nan, 1.0)),
        (ex.gamma_switching, (1.0, math.inf)),
        (ex.gamma_switching, (-1.0, 1.0)),
        (ex.point_mass_switching, (math.inf,)),
        (ex.point_mass_switching, (math.nan,)),
        (ex.point_mass_switching, (-1.0,)),
    ],
)
def test_switching_law_parameters_must_be_positive_and_finite(factory, args):
    with pytest.raises(ValueError, match="positive and finite"):
        factory(*args)


def test_stationary_point_mass_is_a_uniform_phase():
    # the covering interval is c itself and the phase uniform on it: the
    # covariance is the triangle wave of period 2c, 1 - 2t/c on [0, c]; on
    # t in cZ the product s(0)s(t) is deterministic and its SE is 0
    c = 1.0
    grid = c * np.array([0.25, 0.5, 0.75, 1.5])
    triangle = 1.0 - 2.0 * np.abs((grid / c + 1.0) % 2.0 - 1.0)
    dist = ex.point_mass_switching(c)
    e_hat, e_se, r_hat, r_se = switching.estimate_stationary_covariance(dist, grid, 2 * 10**4, ex.RngStream(25, 0))
    assert np.all(np.abs(e_hat) <= 3 * e_se), (e_hat, e_se)
    assert np.all(np.abs(r_hat - triangle) <= 3 * r_se), (r_hat, triangle, r_se)


@pytest.mark.parametrize("n", [0, 1])
def test_estimators_need_two_paths(n):
    dist = ex.exponential_switching(1.0)
    with pytest.raises(ValueError, match="at least 2 paths"):
        switching.estimate_expectation(dist, [0.5], n, ex.RngStream(1, 0))
    with pytest.raises(ValueError, match="at least 2 paths"):
        switching.estimate_stationary_covariance(dist, [0.5], n, ex.RngStream(1, 0))


def test_estimators_refuse_times_before_zero():
    dist = ex.exponential_switching(1.0)
    with pytest.raises(ValueError, match="t >= 0 only"):
        switching.estimate_expectation(dist, [-0.5, 0.5], 10, ex.RngStream(1, 0))
    with pytest.raises(ValueError, match="t >= 0 only"):
        switching.estimate_stationary_covariance(dist, [-1.5, 0.5], 10, ex.RngStream(1, 0))


def test_ensemble_refuses_more_instants_than_it_holds(monkeypatch):
    # a law whose draws fall far short of its mean needs many rounds; each
    # round of n draws is counted before it is drawn: 100 rounds reach
    # t = 0.1, and the 101st would make 101 instants per path
    monkeypatch.setattr(switching, "MAX_INSTANTS", 10**4)
    short = switching.SwitchingTimeDistribution("short", 1.0, lambda rng, n: np.full(n, 1e-3), lambda rng, n: np.full(n, 1e-3))
    with pytest.raises(ValueError, match="100 paths to t = 1 need 1.01e\\+04 switch instants"):
        switching.estimate_expectation(short, [1.0], 100, ex.RngStream(1, 0))
    # 100 exp:1 paths to t = 1 count 100 (1 + 1) instants first and need
    # fewer than 100 rounds
    switching.estimate_expectation(ex.exponential_switching(1.0), [1.0], 100, ex.RngStream(1, 0))
    # the first count, n (t/mu + 1), comes before the stationary start: the
    # stream is untouched
    rng = ex.RngStream(1, 0)
    with pytest.raises(ValueError, match="1000 paths to t = 100 need 1.01e\\+05 switch instants"):
        switching.estimate_stationary_covariance(ex.exponential_switching(1.0), [100.0], 1000, rng)
    assert np.array_equal(rng.uniform01(4), ex.RngStream(1, 0).uniform01(4))


def test_divisor_switching_distribution():
    dist = ex.divisor_switching(ex.Diffusion(d=2))
    assert dist.mean == pytest.approx(math.pi, rel=1e-12)
    draws = dist.draw(ex.RngStream(3, 0), 2000)
    assert draws.shape == (2000,) and np.all(draws > 0)
    ab = dist.size_biased_draw(ex.RngStream(4, 0), 5000)
    # E[A+B] = E[T^2]/E[T] for the divisor: compute the moment by quadrature
    m2, _ = integrate.quad(lambda t: 2 * t * float(np.asarray(ex.e0(ex.Diffusion(d=2), t))), 0.0, 200.0, limit=200)
    assert np.mean(ab) == pytest.approx(m2 / math.pi, rel=0.05)


# one model per usable family, with the closed-form divisor inverses and a
# power tail
SIZE_BIASED_MODELS = [ex.Diffusion(d=1), ex.Diffusion(d=2), ex.Diffusion(d=5), ex.RandomAcceleration(),
                      ex.ShiftedGaussian(alpha=0.0), ex.MaternHalfInteger(nu=2.5), ex.GeneralizedLaplace(alpha=1.0)]


@pytest.mark.parametrize("model", SIZE_BIASED_MODELS, ids=[m.spec_string() for m in SIZE_BIASED_MODELS])
def test_divisor_size_biased_draw_takes_one_uniform(model):
    # n stays small: a rejection sampler would need thousands of proposals
    # per draw for the power tail
    n = 20
    rng = ex.RngStream(81, 3)
    draws = ex.divisor_switching(model).size_biased_draw(rng, n)
    u = ex.RngStream(81, 3).uniform01(n + 1)
    assert np.array_equal(draws, table_inverse_oracle(_size_biased_law, model, u[:-1]))
    assert rng.uniform01(1)[0] == u[-1]
    assert np.abs(_size_biased_law(model, draws)[0] / u[:-1] - 1.0).max() <= 1e-9


def _size_biased_by_rejection(dist, rng, n, t_trunc):
    """Oracle: proposals x accepted with probability min(x / t_trunc, 1)."""
    out = []
    while sum(v.size for v in out) < n:
        x = np.asarray(dist.draw(rng, 8 * n), dtype=float)
        out.append(x[rng.uniform01(x.size) <= x / t_trunc])
    return np.concatenate(out)[:n]


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.MaternHalfInteger(nu=2.5)], ids=lambda m: m.spec_string())
def test_excursion_size_biased_draw_matches_moment_and_rejection_oracle(model):
    # E[S*] = E[S^2]/E[S] = (E X^2 + 2 m^2)/m for a Geometric(1/2) sum S
    # of divisor draws X with mean m
    dist = ex.excursion_switching(model)
    m = ex.mean_excursion(model) / 2.0
    ex2, _ = integrate.quad(lambda t: 2.0 * t * float(ex.e0(model, t)), 0.0, 200.0, limit=200)
    ab = dist.size_biased_draw(ex.RngStream(82, 0), 10**5)
    se = ab.std(ddof=1) / math.sqrt(ab.size)
    assert abs(ab.mean() - (ex2 + 2.0 * m * m) / m) <= 4.0 * se
    # the whole law against weighted rejection, truncated at 40 m, where
    # the exceedance survival is about e^{-40 theta m} < 1e-10
    oracle = _size_biased_by_rejection(dist, ex.RngStream(83, 0), 2 * 10**4, 40.0 * m)
    assert stats.ks_2samp(ab[: 2 * 10**4], oracle).pvalue > 0.01


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.MaternHalfInteger(nu=2.5)], ids=lambda m: m.spec_string())
def test_excursion_size_biased_draw_matches_count_oracle(model):
    # two compounds, each kept where a uniform is below 1/2, against the
    # N* - 1 further terms counted per compound, N* = N_1 + N_2 - 1
    got = ex.excursion_switching(model).size_biased_draw(ex.RngStream(84, 0), 10**5)
    want = size_biased_compound_count_oracle(model, ex.RngStream(85, 0), 10**5)
    assert stats.ks_2samp(got, want).pvalue > 0.01
