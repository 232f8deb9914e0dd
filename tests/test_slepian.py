import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import excursia as ex
from excursia import slepian

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


def test_e0_matches_mpmath_every_family():
    # the generic E0 against 50 digits at 1000 random points, every family
    rng = np.random.default_rng(314159)
    ts = rng.uniform(1e-3, 30.0, 1000)
    for m in ALL_MODELS:
        got = np.asarray(ex.e0(m, ts))
        ref = _e0_reference(m, ts)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-300), m.spec_string()


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
    assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-300


@pytest.mark.parametrize("nu", [2.5, 3.5, 4.5])
def test_matern_e0_finite_past_exp_overflow(nu):
    # c e^t overflows past t = 709.8; 1 - r^2 is then formed from r directly
    m = ex.MaternHalfInteger(nu=nu)
    ts = np.array([711.0, 720.0, 800.0, 1000.0, 1e4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(ex.e0(m, ts))
        one_minus_r2 = np.asarray(m.one_minus_r2(ts))
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


def test_crossing_intensity_reciprocal_identity():
    for m in ALL_MODELS:
        assert ex.crossing_intensity(m) * ex.mean_excursion(m) == pytest.approx(1.0, abs=1e-14)
    assert ex.crossing_intensity(ex.Diffusion(d=2)) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
    assert ex.crossing_intensity(ex.ShiftedGaussian(alpha=0.0)) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert ex.crossing_intensity(ex.MaternHalfInteger(nu=2.5)) == pytest.approx(1.0 / (math.pi * math.sqrt(3.0)), rel=1e-14)


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


def test_validate_diffusion_rates_within_3_percent():
    for d in range(1, 11):
        rep = ex.validate_iia(ex.Diffusion(d=d))
        assert rep.tail_class.rate == pytest.approx(d / 4.0, rel=0.03), d


def test_validate_small_grid_flags_inconclusive():
    rep = ex.validate_iia(ex.Diffusion(d=2), t_max=0.4, step=0.01)
    assert rep.classification_inconclusive
    assert rep.verdict == "valid_tail_inconclusive"
    assert rep.usable
    assert rep.tail_class is None
    # the pole search reads the cached default-grid report; an inconclusive
    # one is refused like any verdict other than "valid"
    model = ex.Diffusion(d=3)
    slepian.cached_validity.cache_clear()
    try:
        with mock.patch.object(slepian, "validate_iia", lambda m: ex.validate_iia(m, t_max=0.4, step=0.01)):
            with pytest.raises(ex.ValidityError, match="valid_tail_inconclusive"):
                ex.find_pole(model)
    finally:
        slepian.cached_validity.cache_clear()


def test_validate_grid_preconditions():
    with pytest.raises(ValueError):
        ex.validate_iia(ex.Diffusion(d=2), t_max=-1.0)
    with pytest.raises(ValueError):
        ex.validate_iia(ex.Diffusion(d=2), t_max=1.0, step=2.0)


def test_divisor_distribution_fields():
    for m in VALID_MODELS:
        div = ex.DivisorSampler(m)
        assert float(np.asarray(div.survival(0.0))) == 1.0
        ts = np.arange(0.0, 30.0, 0.05)
        vals = np.asarray(div.survival(ts))
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) <= 1e-12)
        assert div.mean == pytest.approx(ex.mean_excursion(m) / 2.0, rel=1e-12)


def test_divisor_mean_identity_by_quadrature():
    # integral of E0 over [0, inf) equals mu/2 to relative 1e-6
    for m in VALID_MODELS:
        total = ex.laplace_e0(m, 0.0)
        assert total == pytest.approx(ex.mean_excursion(m) / 2.0, rel=1e-6), m.spec_string()


def test_check_equivalence_examples():
    grid = np.arange(0.1, 10.0 + 1e-9, 0.01)
    for m in [ex.Diffusion(d=2), ex.RandomAcceleration(), ex.ShiftedGaussian(alpha=2.0)]:
        assert ex.check_equivalence(m, grid) <= 1e-5, m.spec_string()


def test_check_equivalence_rejects_bad_grid():
    with pytest.raises(ValueError):
        ex.check_equivalence(ex.Diffusion(d=2), [0.0, 1.0])
    with pytest.raises(ValueError):
        ex.check_equivalence(ex.Diffusion(d=2), [2.0, 1.0])
