import math

import numpy as np
import pytest

import excursia as ex
from excursia.persistency import DegenerateTailError
from excursia.reference import DIFFUSION_REFERENCE


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


def test_replication_failure_reports_index():
    def flaky(stream, n):
        if stream.stream_index == 2:
            return np.ones(n)
        return -np.log(stream.uniform01(n))

    with pytest.raises(RuntimeError, match="replication 2"):
        ex.tail_exponent_ci(flaky, 1000, 100, 4, ex.RngStream(3, 0))


def test_diffusion_divisor_rates_match_reference_table():
    # replicated protocol at n = 1e5: a single replication at k = 1000 has
    # sampling noise ~ theta/sqrt(k) > 0.02 for d >= 3, and 10 replications
    # still leave a half-width of about 0.03 at d = 4, so 40 are pooled
    for d in range(1, 6):
        sampler = ex.DivisorSampler(ex.Diffusion(d=d))
        est = ex.tail_exponent_ci(
            sampler.draw, 10**5, 1000, 40, ex.RngStream(11, 10 * d)
        )
        assert est.theta == pytest.approx(DIFFUSION_REFERENCE[d].divisor, abs=0.02), d


def test_threads_do_not_change_results():
    est1 = ex.tail_exponent_ci(_exp_sampler(1.0), 20000, 500, 4, ex.RngStream(13, 0), threads=1)
    est4 = ex.tail_exponent_ci(_exp_sampler(1.0), 20000, 500, 4, ex.RngStream(13, 0), threads=4)
    assert est1.theta == est4.theta
    assert est1.per_rep == est4.per_rep


def test_tail_bound_check_exponential_fixture():
    vals, _ = ex.sample_excursions(ex.exponential_switching(1.0), ex.RngStream(17, 0), 10**5)
    report = ex.tail_bound_check(1.0, vals, np.linspace(0.0, 10.0, 21), divisor_survival=lambda t: np.exp(-t))
    assert report.upper_applies and report.lower_applies
    assert not report.directions_assumed
    assert report.ok
    # tau = 0: both sides equal one
    assert report.rows[0].bound == 1.0 and report.rows[0].empirical == 1.0


def test_tail_bound_check_diffusion_direction():
    model = ex.Diffusion(d=2)
    vals, _ = ex.sample_excursions(model, ex.RngStream(18, 0), 10**5)
    surv = lambda t: np.asarray(ex.e0(model, t))
    report = ex.tail_bound_check(0.5, vals, np.linspace(5.0, 30.0, 11), divisor_survival=surv)
    # sech(t/2) >= e^{-t/2}: only the lower bound is certified
    assert report.lower_applies and not report.upper_applies
    assert report.ok
