import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import empirical_survival_mean_oracle, student_t_quantile_oracle, tail_exponent_sort_oracle

import excursia as ex
from excursia import persistency
from excursia.persistency import DegenerateTailError, student_t_quantile
from excursia.reference import DIFFUSION_REFERENCE, reference_for


def _exp_sampler(theta):
    def draw(stream, n):
        return -np.log(stream.uniform01(n)) / theta

    return draw


def test_tail_exponent_on_synthetic_exponential():
    draw = _exp_sampler(0.5)
    samples = draw(ex.RngStream(1, 0), 10**6)
    theta, intercept = ex.tail_exponent(samples, 10**4)
    assert theta == pytest.approx(0.5, abs=0.02)
    assert np.isfinite(intercept)


def test_estimator_unbiased_within_its_ci():
    for i, true_theta in enumerate([0.1, 0.5, 2.0]):
        est = ex.tail_exponent_ci(_exp_sampler(true_theta), 10**5, 10**3, 6, ex.RngStream(7, 10 * i))
        assert abs(est.theta - true_theta) <= max(2.0 * est.half_width, 0.02 * true_theta), true_theta
        assert est.half_width > 0
        assert est.method == "tail_regression"
        assert est.n == 10**5 and est.k == 10**3 and est.reps == 6


def test_scale_equivariance_is_exact_algebra():
    samples = -np.log(ex.RngStream(2, 0).uniform01(20000))
    t1, _ = ex.tail_exponent(samples, 2000)
    c = 3.7
    t2, _ = ex.tail_exponent(c * samples, 2000)
    assert t2 == pytest.approx(t1 / c, rel=1e-12)


def test_tail_count_validation_and_degenerate_error():
    samples = np.arange(1.0, 101.0)
    with pytest.raises(ValueError):
        ex.tail_exponent(samples, 1)
    with pytest.raises(ValueError):
        ex.tail_exponent(samples, 100)
    with pytest.raises(DegenerateTailError):
        ex.tail_exponent(np.array([1.0, 2.0, 2.0, 2.0]), 2)
    # distinct values whose squared deviations underflow to zero
    with pytest.raises(DegenerateTailError):
        ex.tail_exponent(np.array([0.0, 0.0, 2e-301]), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4000), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 17]), st.data())
def test_tail_selection_matches_full_sort(n, seed, decimals, data):
    # rounding makes ties; above about 512 samples np.partition leaves the
    # tail unsorted, below it sorts everything; k spans 2 .. n - 1
    samples = np.round(np.random.default_rng(seed).exponential(size=n), decimals)
    k = data.draw(st.sampled_from([2, n - 1]) | st.integers(2, n - 1))
    tail = np.sort(samples)[n - k :]
    if tail[0] == tail[-1]:
        with pytest.raises(DegenerateTailError):
            ex.tail_exponent(samples, k)
    else:
        assert ex.tail_exponent(samples, k) == tail_exponent_sort_oracle(samples, k)


def test_student_t_quantile_matches_40_digit_oracle():
    for nu in range(1, 301):
        q = student_t_quantile(nu)
        assert q == pytest.approx(student_t_quantile_oracle(nu, 0.975, q), rel=5e-14, abs=0), nu


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**5))
def test_student_t_quantile_sweep(nu):
    q = student_t_quantile(nu)
    assert q == pytest.approx(student_t_quantile_oracle(nu, 0.975, q), rel=1e-12, abs=0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 40).map(float) | st.floats(0.0, 50.0), max_size=300),
    st.lists(st.integers(-1, 41).map(float) | st.floats(-1.0, 60.0) | st.just(math.inf), max_size=50),
)
def test_empirical_survival_matches_mean_oracle(samples, taus):
    # integer values make ties, and taus on the samples themselves
    samples = np.array(samples + [7.0])
    taus = np.array(taus + samples[:5].tolist())
    p, se = persistency.empirical_survival(samples, taus)
    assert np.array_equal(p, empirical_survival_mean_oracle(samples, taus))
    n = samples.size
    assert np.array_equal(se, np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n))


@pytest.mark.parametrize("nu", [1, 2, 9, 300, 10**5])
def test_student_t_quantile_is_the_first_double_at_the_level(nu):
    q = student_t_quantile(nu)
    assert q <= 13.0
    assert persistency._student_t_central(q, nu) >= 0.95
    assert persistency._student_t_central(math.nextafter(q, 0.0), nu) < 0.95


def test_student_t_quantile_searches_once_per_nu():
    # reproduce table2 takes twenty bounds at one replication count
    student_t_quantile.cache_clear()
    for seed in range(20):
        ex.tail_exponent_ci(_exp_sampler(1.0), 2000, 100, 5, ex.RngStream(seed, 0))
    assert student_t_quantile.cache_info()[:2] == (19, 1)  # hits, misses
    student_t_quantile(5)
    assert student_t_quantile.cache_info().misses == 2


def test_student_t_quantile_refuses_bad_arguments():
    for nu in [0, -3]:
        with pytest.raises(ValueError, match="nu >= 1"):
            student_t_quantile(nu)


def test_replication_failure_reports_index():
    def flaky(stream, n):
        if stream.stream_index == 2:
            return np.ones(n)
        return -np.log(stream.uniform01(n))

    # the replication's own exception, noted with its index
    with pytest.raises(DegenerateTailError, match="no spread") as info:
        ex.tail_exponent_ci(flaky, 1000, 100, 4, ex.RngStream(3, 0))
    assert info.value.__notes__ == ["in replication 2"]


@pytest.mark.parametrize("k", [0, 1, 100, 200])
def test_tail_count_is_refused_before_any_draw(k):
    calls = []

    def sampler(stream, n):
        calls.append(n)
        return -np.log(stream.uniform01(n))

    with pytest.raises(ValueError, match="2 <= k <= n-1"):
        ex.tail_exponent_ci(sampler, 100, k, 3, ex.RngStream(5, 0))
    assert calls == []


def test_diffusion_divisor_rates_match_reference_table():
    # replicated protocol at n = 1e5: a single replication at k = 1000 has
    # sampling noise ~ theta/sqrt(k) > 0.02 for d >= 3, and 10 replications
    # still leave a half-width of about 0.03 at d = 4, so 40 are pooled
    for d in range(1, 6):
        sampler = ex.DivisorSampler(ex.Diffusion(d=d))
        est = ex.tail_exponent_ci(
            sampler.draw, 10**5, 1000, 40, ex.RngStream(11, 100 * d)
        )
        assert est.theta == pytest.approx(DIFFUSION_REFERENCE[d].divisor, abs=0.02), d


def test_reference_for_reads_the_model():
    assert reference_for(ex.Diffusion(d=2)) == {
        "divisor": 0.496, "divisor_half_width": 0.004, "exceedance": 0.1858,
        "exceedance_half_width": 0.0017, "exact": 0.1875, "pole": 0.1862,
    }
    assert reference_for(ex.Diffusion(d=11)) == {}
    assert reference_for(ex.MaternHalfInteger(nu=2.5)) == {"exceedance": 0.2188, "exceedance_half_width": 0.0011}


def test_threads_do_not_change_results():
    est1 = ex.tail_exponent_ci(_exp_sampler(1.0), 20000, 500, 4, ex.RngStream(13, 0), threads=1)
    est4 = ex.tail_exponent_ci(_exp_sampler(1.0), 20000, 500, 4, ex.RngStream(13, 0), threads=4)
    assert est1.theta == est4.theta
    assert est1.per_rep == est4.per_rep


def _certified_directions(divisor_survival, rate, t_max):
    """Which of S(t) <= e^{-bt} (upper) and S(t) >= e^{-bt} (lower) the
    divisor survival satisfies on a dense grid of [0, t_max]."""
    ts = np.linspace(0.0, t_max, 2001)
    sv = np.asarray(divisor_survival(ts), dtype=float)
    ref = np.exp(-rate * ts)
    return bool(np.all(sv <= ref + 1e-12)), bool(np.all(sv >= ref - 1e-12))


def _tail_bound_violations(rate, samples, taus, upper, lower):
    """Taus where the compound survival crosses e^{-b tau/2} by more than
    3 SE in a certified direction."""
    emp, se = persistency.empirical_survival(samples, taus)
    bound = np.exp(-0.5 * rate * taus)
    return taus[(upper & (emp > bound + 3.0 * se)) | (lower & (emp < bound - 3.0 * se))]


def test_tail_bound_check_exponential_fixture():
    vals, _ = ex.sample_excursions(ex.exponential_switching(1.0), ex.RngStream(17, 0), 10**5)
    taus = np.linspace(0.0, 10.0, 21)
    upper, lower = _certified_directions(lambda t: np.exp(-t), 1.0, taus.max())
    assert upper and lower
    assert _tail_bound_violations(1.0, vals, taus, upper, lower).size == 0
    # tau = 0: both sides equal one
    emp, _ = persistency.empirical_survival(vals, taus[:1])
    assert taus[0] == 0.0 and emp[0] == 1.0


def test_tail_bound_check_diffusion_direction():
    model = ex.Diffusion(d=2)
    vals, _ = ex.sample_excursions(model, ex.RngStream(18, 0), 10**5)
    taus = np.linspace(5.0, 30.0, 11)
    upper, lower = _certified_directions(lambda t: np.asarray(ex.e0(model, t)), 0.5, taus.max())
    # sech(t/2) >= e^{-t/2}: only the lower bound is certified
    assert lower and not upper
    assert _tail_bound_violations(0.5, vals, taus, upper, lower).size == 0
