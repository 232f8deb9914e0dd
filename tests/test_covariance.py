import math

import numpy as np
import pytest

import excursia as ex
from excursia.covariance import MATERN_NU_VALUES, ModelSpecError, parse_model_spec

from conftest import ALL_MODELS

T_STAR = 2.0 * np.arccosh(2.0)  # sech(T*/2) = 1/2


def test_r_at_zero_is_one():
    for m in ALL_MODELS:
        assert m.r(0.0) == pytest.approx(1.0, abs=1e-15)


def test_r_bounded_by_variance_on_grid():
    ts = np.arange(0.0, 50.0, 0.01)
    for m in ALL_MODELS:
        assert np.all(np.abs(m.r(ts)) <= 1.0 + 1e-12)


def test_r_pointwise_values():
    d2 = ex.Diffusion(d=2)
    assert d2.r(T_STAR) == pytest.approx(0.5, rel=1e-12)
    # generalized Laplace at sqrt(2): (1 + 1)^(-1) = 1/2
    gl = ex.GeneralizedLaplace(alpha=1.0)
    assert gl.r(math.sqrt(2.0)) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("nu", MATERN_NU_VALUES)
def test_matern_polynomial_form_matches_bessel_definition(nu):
    # r(t) = 2^(1-nu)/Gamma(nu) t^nu K_nu(t), against the polynomial form
    from scipy.special import gamma, kv

    ts = np.linspace(0.01, 50.0, 5000)
    bessel = 2.0 ** (1.0 - nu) / gamma(nu) * ts**nu * kv(nu, ts)
    np.testing.assert_allclose(ex.MaternHalfInteger(nu=nu).r(ts), bessel, rtol=1e-12)


def test_dr_zero_at_origin():
    for m in ALL_MODELS:
        assert m.dr(0.0) == pytest.approx(0.0, abs=1e-15)


def test_dr_random_acceleration_value():
    expected = 0.75 * (2.0 ** (-1.5) - 2.0 ** (-0.5))  # = -0.26516...
    assert ex.RandomAcceleration().dr(math.log(2.0)) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-0.2652, abs=5e-5)


def test_dr_matches_central_differences_on_grid():
    # implementer's oracle: |dr - cdiff| <= 1e-6 (1 + |dr|) on [0, 50] step 0.01
    ts = np.arange(0.0, 50.0 + 1e-9, 0.01)
    h = 1e-5
    for m in ALL_MODELS:
        dr = np.asarray(m.dr(ts))
        cdiff = (np.asarray(m.r(ts + h)) - np.asarray(m.r(np.abs(ts - h)))) / (2 * h)
        assert np.all(np.abs(dr - cdiff) <= 1e-6 * (1.0 + np.abs(dr))), m.spec_string()


def test_second_derivative_values():
    assert ex.RandomAcceleration().d2r0() == -0.75
    for d in (1, 2, 8):
        assert ex.Diffusion(d=d).d2r0() == pytest.approx(-d / 8.0, rel=1e-14)
    for a in (0.0, 2.0):
        assert ex.ShiftedGaussian(alpha=a).d2r0() == pytest.approx(-(1 + a * a), rel=1e-14)
    assert ex.MaternHalfInteger(nu=2.5).d2r0() == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert ex.GeneralizedLaplace(alpha=1.5).d2r0() == pytest.approx(-1.5, rel=1e-14)


def test_second_derivative_matches_second_differences():
    # one-sided-in-h extrapolation over h in {1e-2, 1e-3}: the random
    # acceleration covariance has an odd third-order term at zero, so the
    # second difference carries an O(h) error there.
    for m in ALL_MODELS:
        vals = {}
        for h in (1e-2, 1e-3):
            vals[h] = (float(m.r(h)) - 2.0 + float(m.r(h))) / (h * h)
        extrap = (10.0 * vals[1e-3] - vals[1e-2]) / 9.0
        assert extrap == pytest.approx(m.d2r0(), abs=1e-4), m.spec_string()


def test_clipped_autocovariance_values():
    d2 = ex.Diffusion(d=2)
    assert ex.clipped_autocovariance(d2, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert ex.clipped_autocovariance(d2, T_STAR) == pytest.approx(1.0 / 3.0, rel=1e-12)
    gl = ex.GeneralizedLaplace(alpha=1.0)
    assert ex.clipped_autocovariance(gl, math.sqrt(2.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_clipped_monotone_where_r_is():
    ts = np.arange(0.0, 20.0, 0.01)
    for m in ALL_MODELS:
        dr_sign = np.sign(np.diff(np.asarray(m.r(ts))))
        drcl_sign = np.sign(np.diff(np.asarray(ex.clipped_autocovariance(m, ts))))
        big = np.abs(np.diff(np.asarray(m.r(ts)))) > 1e-12
        assert np.all(dr_sign[big] == drcl_sign[big]), m.spec_string()


def test_parse_model_spec_round_trip():
    for spec in ["diffusion(d=2)", "random_acceleration", "shifted_gaussian(alpha=0)", "matern(nu=2.5)", "generalized_laplace(alpha=1)"]:
        m = parse_model_spec(spec)
        assert parse_model_spec(m.spec_string()) == m


def test_parse_model_spec_errors():
    for bad in ["nope", "diffusion(d=0)", "diffusion(d=65)", "diffusion(q=2)", "matern(nu=2.0)", "shifted_gaussian(alpha=-1)", "generalized_laplace(alpha=0)", "diffusion(d=two)", "diffusion(d=2.5)", "random_acceleration(x=1)"]:
        with pytest.raises(ModelSpecError):
            parse_model_spec(bad)


def test_invalid_params_rejected_at_construction():
    with pytest.raises(ModelSpecError):
        ex.Diffusion(d=0)
    with pytest.raises(ModelSpecError):
        ex.Diffusion(d=2.5)
    with pytest.raises(ModelSpecError):
        ex.MaternHalfInteger(nu=2.0)


def test_diffusion_dimension_accepts_integral_floats():
    # spec strings carry every value as a float, so 2.0 is the dimension 2
    assert ex.Diffusion(d=2.0) == ex.Diffusion(d=2)
    assert isinstance(ex.Diffusion(d=2.0).d, int)
    assert parse_model_spec("diffusion(d=2.0)") == ex.Diffusion(d=2)
