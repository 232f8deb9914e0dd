import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import excursia as ex
from excursia import switching
from excursia.laplace import QuadratureError
from excursia.samplers import _size_biased_survival, _table_inverse


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
    ab, a, sign = switching._stationary_start(dist, 20000, ex.RngStream(23, 1))
    # interval covering the origin is size-biased: Gamma(2, 1)
    assert stats.kstest(ab, stats.gamma(a=2).cdf).pvalue > 0.01
    # forward delay marginal is Exp(1)
    assert stats.kstest(a, stats.expon.cdf).pvalue > 0.01
    assert abs(sign.mean()) <= 3.0 / math.sqrt(sign.size)
    assert ab.mean() == pytest.approx(2.0, rel=0.01)


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


def test_stationary_initial_state_symmetric():
    dist = ex.exponential_switching(1.0)
    n = 2000
    e_hat, _, _, _ = switching.estimate_stationary_covariance(dist, [0.0], n, ex.RngStream(40, 0))
    frac = 0.5 * (1.0 + e_hat[0])  # share of paths in state +1 at the origin
    assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_stationarity_certificate_invariance_in_base_time():
    # one-dimensional law and covariance do not depend on the base time
    grid = np.array([0.5, 1.0])
    for dist in [ex.exponential_switching(1.0), ex.gamma_switching(2.0, 1.0)]:
        results = {}
        for j, t0 in enumerate([0.0, 1.0, 5.0]):
            e, es, r, rs = switching.estimate_stationary_covariance(
                dist, grid, 10**5, ex.RngStream(50, 10 + j), base_time=t0
            )
            results[t0] = (e, es, r, rs)
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


def test_laplace_expectation_formulas():
    psi = lambda s: 1.0 / (1.0 + s)  # Exp(1) switching
    assert ex.laplace_expectation(psi, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert ex.laplace_expectation(psi, 200.0) == pytest.approx(1.0 / 202.0, rel=1e-12)
    # s L E(s) -> 0 as s -> 0
    assert 0.01 * ex.laplace_expectation(psi, 0.01) == pytest.approx(0.0, abs=0.01)


def test_laplace_stationary_covariance_identities():
    psi = lambda s: 1.0 / (1.0 + s)
    mu = 1.0
    assert ex.laplace_stationary_covariance(psi, mu, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    for s in [0.3, 1.0, 2.5]:
        lr = ex.laplace_stationary_covariance(psi, mu, s)
        le = ex.laplace_expectation(psi, s)
        assert lr == pytest.approx(1.0 / s - 2.0 / mu * le / s, abs=1e-12)


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


def test_covariance_from_expectation_refuses_a_jump_inside_an_interval():
    # the rule cannot resolve a step at u = 0.3 inside [0, 0.5]: its error
    # estimate is raised instead of being discarded
    step = lambda u: np.where(u < 0.3, 1.0, 0.0)
    with pytest.raises(QuadratureError, match="quadrature error estimate"):
        ex.covariance_from_expectation(step, 1.0, [0.0, 0.5, 1.0])
    # a jump on a grid point is integrated exactly
    rows = ex.covariance_from_expectation(step, 1.0, [0.0, 0.3, 1.0])
    assert rows[:, 1] == pytest.approx([1.0, 0.4, 0.4], abs=1e-15)


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


def test_stationary_requires_size_biased_draw():
    dist = ex.point_mass_switching(1.0)
    with pytest.raises(ValueError):
        switching.estimate_stationary_covariance(dist, [0.5], 100, ex.RngStream(1, 0))


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
        switching.estimate_stationary_covariance(dist, [-1.5, 0.5], 10, ex.RngStream(1, 0), base_time=1.0)
    with pytest.raises(ValueError, match="t >= 0 only"):
        switching.estimate_stationary_covariance(dist, [0.5], 10, ex.RngStream(1, 0), base_time=-1.0)
    # a negative lag from a later base time stays on the simulated half
    e_hat, _, r_hat, _ = switching.estimate_stationary_covariance(dist, [-1.0, 0.0], 10, ex.RngStream(1, 0), base_time=1.0)
    assert r_hat.shape == (2,) and np.all(np.abs(e_hat) <= 1.0)


def test_divisor_switching_distribution():
    dist = ex.divisor_switching(ex.Diffusion(d=2))
    assert dist.mean == pytest.approx(math.pi, rel=1e-12)
    draws = dist.draw(ex.RngStream(3, 0), 2000)
    assert draws.shape == (2000,) and np.all(draws > 0)
    ab = dist.size_biased_draw(ex.RngStream(4, 0), 5000)
    # E[A+B] = E[T^2]/E[T] for the divisor: compute the moment by quadrature
    m2, _ = integrate.quad(lambda t: 2 * t * float(np.asarray(ex.e0(ex.Diffusion(d=2), t))), 0.0, 200.0, limit=200)
    assert np.mean(ab) == pytest.approx(m2 / math.pi, rel=0.05)


# one model per usable family, with the closed-form divisor inverses, a
# power tail and a survival that crosses zero inside the gate's tolerance
SIZE_BIASED_MODELS = [ex.Diffusion(d=1), ex.Diffusion(d=2), ex.Diffusion(d=5), ex.RandomAcceleration(),
                      ex.ShiftedGaussian(alpha=0.0), ex.ShiftedGaussian(alpha=0.2), ex.MaternHalfInteger(nu=2.5),
                      ex.GeneralizedLaplace(alpha=1.0)]


@pytest.mark.parametrize("model", SIZE_BIASED_MODELS, ids=[m.spec_string() for m in SIZE_BIASED_MODELS])
def test_divisor_size_biased_draw_takes_one_uniform(model):
    # n stays small: a rejection sampler would need thousands of proposals
    # per draw for the power tail
    n = 20
    rng = ex.RngStream(81, 3)
    draws = ex.divisor_switching(model).size_biased_draw(rng, n)
    u = ex.RngStream(81, 3).uniform01(n + 1)
    assert np.array_equal(draws, _table_inverse(_size_biased_survival, model, u[:-1]))
    assert rng.uniform01(1)[0] == u[-1]
    assert np.abs(np.asarray(_size_biased_survival(model, draws)) / u[:-1] - 1.0).max() <= 1e-9


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
