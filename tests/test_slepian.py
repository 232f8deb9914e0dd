import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

import excursia as ex
from excursia import samplers, slepian

from conftest import ALL_MODELS, VALID_MODELS

T_STAR = 2.0 * np.arccosh(2.0)


def test_e0_at_zero_is_one():
    for m in ALL_MODELS:
        assert ex.e0(m, 0.0) == 1.0


def test_e0_pointwise_values():
    assert ex.e0(ex.Diffusion(d=2), T_STAR) == pytest.approx(0.5, rel=1e-12)
    assert ex.e0(ex.RandomAcceleration(), math.log(2.0)) == pytest.approx(math.sqrt(3.0 / 7.0), rel=1e-12)


def test_e0_stable_near_zero():
    ts = np.array([1e-12, 1e-8, 1e-6, 1e-4])
    for m in ALL_MODELS:
        vals = np.asarray(ex.e0(m, ts))
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals - 1.0) < 1e-3)


# every family, and the extreme parameters of the catalog
TINY_T_MODELS = ALL_MODELS + [ex.Diffusion(d=64), ex.GeneralizedLaplace(alpha=1e-3)]


@pytest.mark.parametrize("m", TINY_T_MODELS, ids=lambda m: m.spec_string())
def test_e0_is_one_where_one_minus_r2_underflows(m):
    # 1 - E0 is of order t^2, far below an ulp of 1 here.  Where the computed
    # 1 - r^2 is below the smallest normal double (t = 0 included) E0 is its
    # limit 1, not inf, NaN or 1 + 1e-5 from a subnormal divisor; elsewhere
    # the closed form rounds to within a few ulps of 1
    ts = np.concatenate([[0.0], np.geomspace(5e-324, 1e-100, 4000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(ex.e0(m, ts))
        size_biased = samplers._size_biased_law(m, ts)[0]
    underflow = m.r_terms(ts)[2] < np.finfo(float).tiny
    assert underflow[0] and underflow[1] and not underflow[-1]
    assert np.all(got[underflow] == 1.0)
    assert np.all((got >= 0.0) & (np.abs(got - 1.0) <= 8 * np.finfo(float).eps))
    assert np.all(np.abs(size_biased - 1.0) <= 8 * np.finfo(float).eps)


@settings(max_examples=300, deadline=None)
@given(
    m=st.sampled_from(TINY_T_MODELS),
    t=st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]),
        st.floats(0.0, np.finfo(float).tiny),  # subnormals
        st.floats(),
    ),
)
def test_e0_of_a_scalar_equals_e0_of_a_one_point_array(m, t):
    with np.errstate(all="ignore"):
        scalar, array = ex.e0(m, t), ex.e0(m, np.array([t]))
    assert type(scalar) is float and array.shape == (1,)
    assert np.array(scalar).tobytes() == array.tobytes()


def _e0_mpmath(r, dr, d2r0, t):
    """E0 = -r'(t) / (sqrt(-r''(0)) sqrt(1 - r(t)^2)) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        return float(-dr(t) / (mpmath.sqrt(-d2r0) * mpmath.sqrt(1 - r(t) ** 2)))


def _matern_mpmath(nu):
    p = [int(c) for c in {2.5: [1, 3, 3], 3.5: [1, 6, 15, 15], 4.5: [1, 10, 45, 105, 105]}[nu]]
    p1 = [int(c) for c in {2.5: [1, 1], 3.5: [1, 3, 3], 4.5: [1, 6, 15, 15]}[nu]]
    c = p[-1]
    r = lambda t: mpmath.exp(-t) * mpmath.polyval(p, t) / c
    dr = lambda t: -t * mpmath.exp(-t) * mpmath.polyval(p1, t) / c
    return r, dr, -mpmath.mpf(1) / (2 * (mpmath.mpf(nu) - 1))


def _random_acceleration_mpmath():
    r = lambda t: (3 * mpmath.exp(-t / 2) - mpmath.exp(-3 * t / 2)) / 2
    dr = lambda t: mpmath.mpf(3) / 4 * (mpmath.exp(-3 * t / 2) - mpmath.exp(-t / 2))
    return r, dr, -mpmath.mpf(3) / 4


def _mpmath_parts(model):
    """(r, r', r''(0)) of ``model`` written out again from the catalog
    formulas in mpmath, at the model's own (double) parameter values; the
    independent oracle for every E0 test below."""
    if isinstance(model, ex.MaternHalfInteger):
        return _matern_mpmath(model.nu)
    if isinstance(model, ex.RandomAcceleration):
        return _random_acceleration_mpmath()
    if isinstance(model, ex.Diffusion):
        d = mpmath.mpf(model.d)
        r = lambda t: mpmath.sech(t / 2) ** (d / 2)
        dr = lambda t: -d / 4 * mpmath.tanh(t / 2) * r(t)
        return r, dr, -d / 8
    if isinstance(model, ex.ShiftedGaussian):
        a = mpmath.mpf(model.alpha)
        r = lambda t: mpmath.cos(a * t) * mpmath.exp(-t * t / 2)
        dr = lambda t: -(a * mpmath.sin(a * t) + t * mpmath.cos(a * t)) * mpmath.exp(-t * t / 2)
        return r, dr, -(1 + a * a)
    if isinstance(model, ex.GeneralizedLaplace):
        a = mpmath.mpf(model.alpha)
        r = lambda t: (1 + t * t / 2) ** -a
        dr = lambda t: -a * t * (1 + t * t / 2) ** (-a - 1)
        return r, dr, -a
    raise TypeError(model)


def _e0_reference(model, ts):
    with mpmath.workdps(50):
        parts = _mpmath_parts(model)
    return np.array([_e0_mpmath(*parts, t) for t in np.atleast_1d(ts)])


def _derivative_mpmath(f, t):
    """f'(t) of an mpmath function by mpmath's finite differences at a step
    1e-20 max(t, 1), in mpmath's extra working precision."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        return float(mpmath.diff(f, t, h=max(t, 1) * mpmath.mpf(10) ** -20))


# every family, its extreme parameters, and t = 0, tiny, moderate and huge
D2R_MODELS = ALL_MODELS + [ex.Diffusion(d=64), ex.ShiftedGaussian(alpha=0.2259)]
D2R_MODELS += [ex.GeneralizedLaplace(alpha=a) for a in (1e-3, 0.1, 10.0)]
D2R_TIMES = np.concatenate([[0.0, 1e-8, 1e-3], np.random.default_rng(271828).uniform(1e-3, 30.0, 60), [1e3, 1e80, 1e160, 1e300]])


@pytest.mark.parametrize("m", D2R_MODELS, ids=lambda m: m.spec_string())
def test_d2r_matches_mpmath(m):
    # r'' against the 50-digit derivative of the mpmath r'; within 2e-13
    # relatively (measured 8e-14, generalized_laplace at t = 1e80, where
    # r'' is formed from log t) plus 4 eps of |r''(0)| where r'' crosses
    # zero.  No overflow or invalid operation at huge t; underflow to 0 is
    # the value there, as for E0
    with mpmath.workdps(50):
        r, dr, _ = _mpmath_parts(m)
    want = np.array([_derivative_mpmath(dr, t) for t in D2R_TIMES])
    with np.errstate(all="raise", under="ignore"):
        got = m.d2r(D2R_TIMES)
        scalars = np.array([m.d2r(t) for t in D2R_TIMES])
    assert np.array_equal(got, scalars)
    err = np.abs(got - want)
    assert np.all(err <= 2e-13 * np.abs(want) + 4 * np.finfo(float).eps * abs(m.d2r0)), (D2R_TIMES[err.argmax()], err.max())


DENSITY_MODELS = VALID_MODELS + [ex.Diffusion(d=64), ex.GeneralizedLaplace(alpha=0.1), ex.GeneralizedLaplace(alpha=10.0)]


@pytest.mark.parametrize("m", DENSITY_MODELS, ids=lambda m: m.spec_string())
def test_divisor_density_matches_mpmath(m):
    # f = -E0' against the 50-digit derivative of the mpmath E0.  The two
    # terms of the numerator cancel to order t^4 near t = 0, so the
    # relative error grows like eps/t^2 there: measured at most 19 eps/t^2
    # below t = 1 (4e-9 at t = 1e-3, matern(nu=4.5); 3e-10 for diffusion
    # d = 2) and 3e-14 above (shifted_gaussian, t near 30)
    ts = np.concatenate([np.geomspace(1e-3, 1.0, 31), np.random.default_rng(161803).uniform(1.0, 30.0, 60)])
    with mpmath.workdps(50):
        r, dr, d2r0 = _mpmath_parts(m)
        e0 = lambda t: -dr(t) / (mpmath.sqrt(-d2r0) * mpmath.sqrt(1 - r(t) ** 2))
    want = np.array([-_derivative_mpmath(e0, t) for t in ts])
    got = slepian.divisor_terms(m, ts)[3]
    assert np.all(want > 0.0)
    rel = np.abs(got / want - 1.0)
    assert np.all(rel <= 1e-13 + 64 * np.finfo(float).eps / ts**2), (ts[rel.argmax()], rel.max())


@pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: m.spec_string())
def test_divisor_density_limits(m):
    # 0/0 where E0 takes its limit 1 (t = 0, 1 - r^2 underflowed): NaN; 0 at
    # infinite t
    with np.errstate(all="raise", under="ignore"):
        got = slepian.divisor_terms(m, np.array([0.0, 1e-200, np.inf, 1.0]))[3]
    assert np.isnan(got[0]) and np.isnan(got[1]) and got[2] == 0.0 and np.isfinite(got[3])


@pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: m.spec_string())
def test_divisor_terms_and_e0_evaluate_the_family_once(m, monkeypatch):
    # divisor_terms reads r, r' and 1 - r^2 from one r_terms call and r''
    # from one d2r call; e0 reads one r_terms call (r''(0) is cached first)
    m.d2r0
    calls = []
    for name in ("r_terms", "d2r"):
        method = getattr(type(m), name)
        monkeypatch.setattr(type(m), name, lambda self, t, name=name, method=method: calls.append(name) or method(self, t))
    ts = np.array([0.0, 1e-3, 1.0, 10.0, np.inf])
    slepian.divisor_terms(m, ts)
    assert sorted(calls) == ["d2r", "r_terms"]
    calls.clear()
    ex.e0(m, ts)
    assert calls == ["r_terms"]


def test_e0_matches_mpmath_every_family():
    # the generic E0 against 50 digits at 1000 random points, every family
    rng = np.random.default_rng(314159)
    ts = rng.uniform(1e-3, 30.0, 1000)
    for m in ALL_MODELS:
        got = np.asarray(ex.e0(m, ts))
        ref = _e0_reference(m, ts)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-300), m.spec_string()


def _shifted_gaussian_e0_scale(alpha, t):
    """(|alpha sin(alpha t)| + |t cos(alpha t)|) e^{-t^2/2} /
    (sqrt(1 + alpha^2) sqrt(1 - r^2)) in 50-digit arithmetic: shifted_gaussian's
    E0 with the terms of r' in absolute value."""
    with mpmath.workdps(50):
        a, t = mpmath.mpf(alpha), mpmath.mpf(t)
        terms = (abs(a * mpmath.sin(a * t)) + abs(t * mpmath.cos(a * t))) * mpmath.exp(-t * t / 2)
        r = mpmath.cos(a * t) * mpmath.exp(-t * t / 2)
        return float(terms / (mpmath.sqrt(1 + a * a) * mpmath.sqrt(1 - r * r)))


@settings(max_examples=300, deadline=None)
@given(
    model=st.one_of(
        st.integers(1, 64).map(lambda d: ex.Diffusion(d=d)),
        st.floats(0.0, 0.2259).map(lambda a: ex.ShiftedGaussian(alpha=a)),
        st.floats(0.25, 5.0).map(lambda a: ex.GeneralizedLaplace(alpha=a)),
        st.sampled_from([ex.MaternHalfInteger(nu=nu) for nu in (2.5, 3.5, 4.5)]),
    ),
    t=st.floats(1e-9, 40.0),
)
def test_e0_matches_mpmath_at_extreme_parameters(model, t):
    got = ex.e0(model, t)
    ref = _e0_reference(model, t)[0]
    # shifted_gaussian's r' is a difference of two terms: near t*, where E0
    # changes sign, its relative error has no bound, so its error is bounded
    # relative to E0 with both terms in absolute value
    scale = _shifted_gaussian_e0_scale(model.alpha, t) if isinstance(model, ex.ShiftedGaussian) else abs(ref)
    assert abs(got - ref) <= 1e-12 * scale + 1e-300


@pytest.mark.parametrize("nu", [2.5, 3.5, 4.5])
def test_matern_e0_finite_past_exp_overflow(nu):
    # c e^t overflows past t = 709.8; 1 - r^2 is then formed from r directly
    m = ex.MaternHalfInteger(nu=nu)
    ts = np.array([711.0, 720.0, 800.0, 1000.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(ex.e0(m, ts))
        one_minus_r2 = m.r_terms(ts)[2]
    assert np.all(np.isfinite(got) & (got >= 0.0))
    assert np.all(np.isfinite(one_minus_r2) & (one_minus_r2 >= 0.0))
    assert np.all(np.abs(got - _e0_reference(m, ts)) <= 1e-300)


@pytest.mark.parametrize(
    "model, parts",
    [pytest.param(ex.MaternHalfInteger(nu=nu), _matern_mpmath(nu), id=f"matern_nu{nu}") for nu in (2.5, 3.5, 4.5)]
    + [pytest.param(ex.RandomAcceleration(), _random_acceleration_mpmath(), id="random_acceleration")],
)
def test_e0_near_zero_matches_mpmath(model, parts):
    # 1 - E0 is of order t^2 here, so a cancelling 1 - r^2 or r' shows up
    # as an absolute error far above a few ulps of 1
    ts = np.geomspace(1e-9, 1e-3, 61)
    got = np.asarray(ex.e0(model, ts))
    ref = np.array([_e0_mpmath(*parts, t) for t in ts])
    assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps


def test_mean_excursion_values():
    assert ex.mean_excursion(ex.Diffusion(d=2)) == pytest.approx(2 * math.pi, rel=1e-14)
    assert ex.mean_excursion(ex.RandomAcceleration()) == pytest.approx(2 * math.pi / math.sqrt(3.0), rel=1e-14)
    assert ex.mean_excursion(ex.ShiftedGaussian(alpha=0.0)) == pytest.approx(math.pi, rel=1e-14)
    assert ex.mean_excursion(ex.MaternHalfInteger(nu=2.5)) == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-14)


def test_validate_verdicts():
    rep = ex.validate_iia(ex.Diffusion(d=2))
    assert rep.verdict == "valid"
    assert rep.tail_class.kind == "exponential"
    assert rep.tail_class.rate == pytest.approx(0.5, rel=0.03)

    rep = ex.validate_iia(ex.ShiftedGaussian(alpha=2.0))
    assert rep.verdict == "invalid_oscillating"
    assert not rep.usable
    assert rep.first_violation_t is not None

    rep = ex.validate_iia(ex.GeneralizedLaplace(alpha=1.0))
    assert rep.verdict == "valid_but_power_tail_warning"
    assert rep.usable
    assert rep.tail_class.kind == "power_law"
    assert rep.tail_class.exponent == pytest.approx(-3.0, abs=0.05)

    rep = ex.validate_iia(ex.ShiftedGaussian(alpha=0.0))
    assert rep.verdict == "valid"
    assert rep.tail_class.kind == "superexponential"


def test_gate_refuses_shifted_gaussian_past_its_sign_change():
    # r' of shifted_gaussian(alpha > 0) changes sign at t*, the root of
    # t cos(alpha t) + alpha sin(alpha t) in (pi/(2 alpha), pi/alpha), and
    # E0 turns negative past it.  The gate decides on signs: it refuses the
    # model at the first grid point past t*, however small the dip (E0 is
    # -1.1e-15 at most at alpha = 0.2).  At alpha = 0.04 the negative part
    # underflows to -0 on the grid, and the model is accepted
    assert ex.validate_iia(ex.ShiftedGaussian(alpha=0.04)).verdict == "valid"
    for alpha in (0.045, 0.05, 0.2, 0.2259, 2.0):
        t_star = optimize.brentq(lambda t: t * math.cos(alpha * t) + alpha * math.sin(alpha * t), 0.5 * math.pi / alpha, math.pi / alpha, xtol=1e-12)
        rep = ex.validate_iia(ex.ShiftedGaussian(alpha=alpha))
        assert rep.verdict == "invalid_oscillating"
        assert 0.0 < rep.first_violation_t - t_star <= rep.step, alpha


def test_gate_reports_its_most_negative_e0():
    # the smallest grid value of E0 and its first t, measured beside the
    # verdict, which decides on signs alone
    for alpha, low, low_t in ((0.2, -1.10e-15, 8.1), (2.0, -0.2333, 1.7)):
        rep = ex.validate_iia(ex.ShiftedGaussian(alpha=alpha))
        assert rep.verdict == "invalid_oscillating"
        assert rep.min_e0 == pytest.approx(low, rel=1e-3) and rep.min_e0_t == low_t
        assert rep.as_dict()["min_e0"] == rep.min_e0 and rep.as_dict()["min_e0_t"] == low_t
    rep = ex.validate_iia(ex.Diffusion(d=2))
    assert rep.verdict == "valid" and rep.min_e0 >= 0.0 and rep.min_e0_t == rep.t_max


@pytest.mark.parametrize("t_max", [1e-150, 1e-120, 1e-100, 1e-8])
@pytest.mark.parametrize("m", TINY_T_MODELS + [ex.GeneralizedLaplace(alpha=10.0)], ids=lambda m: m.spec_string())
def test_gate_passes_every_family_on_a_tiny_grid(m, t_max):
    # E0 rounds to a few ulps above 1 for t in [1e-154, 1e-100], where a
    # grid step rises by up to 3 eps of E0 (8 eps for generalized_laplace
    # alpha = 10 on a geometric grid); the relative allowance
    # MONOTONE_RTOL must pass that rounding, which a zero one would not.
    # The tail window's log E0 drops by far less than MIN_LOG_DROP here
    # (at most 1.3e-9, random_acceleration at t_max = 1e-8): rounding
    # noise, or a start too short to be a tail, is left unclassified
    rep = ex.validate_iia(m, t_max=t_max, step=t_max / 1e5)
    assert rep.monotone_nonincreasing and rep.nonnegative
    assert rep.verdict == "valid_tail_inconclusive" and rep.tail_class is None


def test_validate_diffusion_rates_within_3_percent():
    for d in range(1, 11):
        rep = ex.validate_iia(ex.Diffusion(d=d))
        assert rep.tail_class.rate == pytest.approx(d / 4.0, rel=0.03), d


def test_validate_small_grid_flags_inconclusive():
    rep = ex.validate_iia(ex.Diffusion(d=2), t_max=0.4, step=0.01)
    assert rep.as_dict()["classification_inconclusive"]
    assert rep.verdict == "valid_tail_inconclusive"
    assert rep.usable
    assert rep.tail_class is None
    # the pole search reads the cached default-grid report; an inconclusive
    # one is refused like any verdict other than "valid"
    model = ex.Diffusion(d=3)
    slepian._validity.cache_clear()
    try:
        with mock.patch.object(slepian, "validate_iia", lambda m, t_max, step: ex.validate_iia(m, t_max=0.4, step=0.01)):
            with pytest.raises(ex.ValidityError, match="valid_tail_inconclusive"):
                ex.find_pole(model)
    finally:
        slepian._validity.cache_clear()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("single", [False, True], ids=["past-1", "one-point"])
def test_validate_refuses_a_non_finite_survival(bad, single, monkeypatch):
    # comparisons with NaN are false: a gate that tests for a violation
    # directly passes a NaN survival as monotone and nonnegative
    real_e0 = slepian.e0

    def broken_e0(model, t):
        vals = np.array(real_e0(model, t), dtype=float)
        past = np.asarray(t) > 1.0
        if single:
            past &= np.cumsum(past) == 1
        vals[past] = bad
        return vals

    monkeypatch.setattr(slepian, "e0", broken_e0)
    model = ex.Diffusion(d=2)
    rep = ex.validate_iia(model)
    grid = slepian.time_grid(0.0, rep.t_max, rep.step)
    t_bad = float(grid[grid > 1.0][0])  # the first (or only) non-finite value
    assert rep.first_violation_t == t_bad
    assert rep.verdict == "invalid_oscillating"
    assert not rep.usable
    slepian._validity.cache_clear()
    try:
        with pytest.raises(ex.ValidityError):
            ex.DivisorSampler(model)
    finally:
        slepian._validity.cache_clear()


def test_cached_validity_has_one_entry_per_model_and_grid():
    model = ex.Diffusion(d=3)
    report = slepian.cached_validity(model)
    assert slepian.cached_validity(ex.Diffusion(d=3), 50, 0.01) is report
    assert slepian.cached_validity(model, t_max=50.0, step=0.01) is report
    assert slepian.require_usable(model) is report
    other = slepian.cached_validity(model, t_max=20.0)
    assert other is not report and other == ex.validate_iia(model, t_max=20.0)
    with pytest.raises(ValueError):
        slepian.cached_validity(model, t_max=1.0, step=2.0)


def test_validate_grid_preconditions():
    with pytest.raises(ValueError):
        ex.validate_iia(ex.Diffusion(d=2), t_max=-1.0)
    with pytest.raises(ValueError):
        ex.validate_iia(ex.Diffusion(d=2), t_max=1.0, step=2.0)


def test_divisor_distribution_fields():
    for m in VALID_MODELS:
        div = ex.DivisorSampler(m)
        assert ex.e0(m, 0.0) == 1.0
        ts = np.arange(0.0, 30.0, 0.05)
        vals = np.asarray(ex.e0(m, ts))
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) <= 1e-12)
        assert div.mean == pytest.approx(ex.mean_excursion(m) / 2.0, rel=1e-12)


def test_divisor_mean_identity_by_quadrature():
    # integral of E0 over [0, inf) equals mu/2 to relative 1e-6
    for m in VALID_MODELS:
        total = ex.laplace_e0(m, 0.0)
        assert total == pytest.approx(ex.mean_excursion(m) / 2.0, rel=1e-6), m.spec_string()


def test_matching_identity_examples():
    # (2/pi) arcsin r = 1 - (2/mu) int_0^t E0, the integral form of
    # d/dt (2/pi) arcsin r = -(2/mu) E0; it holds for a model the gate
    # refuses too
    # from t = 1e-8, where both sides are 1 less a term of order t
    grid = np.concatenate([[1e-8, 1e-6, 1e-4], np.arange(0.1, 10.0 + 1e-9, 0.01)])
    for m in [ex.Diffusion(d=2), ex.RandomAcceleration(), ex.ShiftedGaussian(alpha=2.0)]:
        got = ex.covariance_from_expectation(lambda t: ex.e0(m, t), ex.mean_excursion(m), grid)[:, 1]
        assert np.abs(got - ex.clipped_autocovariance(m, grid)).max() <= 1e-12, m.spec_string()
