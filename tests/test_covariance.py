import math

import mpmath
import numpy as np
import pytest

import excursia as ex
from excursia import laplace, slepian
from excursia.covariance import MATERN_NU_VALUES, ModelSpecError, _log_cosh, parse_model_spec
from oracles import dr_oracle, e0_oracle, log_cosh_oracle, one_minus_r2_oracle, r_oracle

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
        assert m.r_terms(0.0)[1] == pytest.approx(0.0, abs=1e-15)


def test_dr_random_acceleration_value():
    expected = 0.75 * (2.0 ** (-1.5) - 2.0 ** (-0.5))  # = -0.26516...
    assert ex.RandomAcceleration().r_terms(math.log(2.0))[1] == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-0.2652, abs=5e-5)


def test_dr_matches_central_differences_on_grid():
    # implementer's oracle: |dr - cdiff| <= 1e-6 (1 + |dr|) on [0, 50] step 0.01
    ts = np.arange(0.0, 50.0 + 1e-9, 0.01)
    h = 1e-5
    for m in ALL_MODELS:
        dr = m.r_terms(ts)[1]
        cdiff = (np.asarray(m.r(ts + h)) - np.asarray(m.r(np.abs(ts - h)))) / (2 * h)
        assert np.all(np.abs(dr - cdiff) <= 1e-6 * (1.0 + np.abs(dr))), m.spec_string()


# t = 0, tiny t, both sides of t = 700 (where the large-x branch of
# _log_cosh and Matern's far branch switch) and huge t
EDGE_TIMES = (0.0, 1e-300, 1e-8, 699.99, 700.0, 700.01, 1e3, 1e300)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize(
    "m", ALL_MODELS + [ex.Diffusion(d=64), ex.ShiftedGaussian(alpha=0.3), ex.GeneralizedLaplace(alpha=1e-3)], ids=lambda m: m.spec_string()
)
def test_r_terms_match_separate_expressions_bit_for_bit(m):
    # the shared factor formed once gives the bits of each expression on its
    # own, at the edges, on a grid that catches a reordered product, on the
    # validity gate's grid and on the nodes of both transform rules
    t_max = laplace.LaplaceEvaluator._find_t_max(lambda t: ex.e0(m, t))
    ts = np.concatenate([
        EDGE_TIMES,
        np.geomspace(1e-6, 60.0, 200),
        slepian.time_grid(0.0, slepian.DEFAULT_T_MAX, slepian.DEFAULT_STEP),
        t_max * laplace._unit_rule(laplace.ORDER)[0],
        t_max * laplace._unit_rule(laplace.CHECK_ORDER)[0],
    ])
    with np.errstate(all="ignore"):  # t^2 overflows at t = 1e300
        for t in (ts, *EDGE_TIMES):
            r, dr, one_minus_r2 = m.r_terms(t)
            want_r, want_dr, want_one_minus_r2 = r_oracle(m, t), dr_oracle(m, t), one_minus_r2_oracle(m, t)
            assert _bits(r) == _bits(want_r) == _bits(m.r(t)), (t, r, want_r)
            assert _bits(dr) == _bits(want_dr), (t, dr, want_dr)
            assert _bits(one_minus_r2) == _bits(want_one_minus_r2), (t, one_minus_r2, want_one_minus_r2)
            assert _bits(ex.e0(m, t)) == _bits(e0_oracle(m, t)), t


HUGE_TIMES = np.array([1e3, 1e80, 1e160, 1e300])


def _generalized_laplace_mp(alpha, t):
    """E0 and the clipped autocovariance of generalized_laplace in 40 digits."""
    with mpmath.workdps(40):
        t, alpha = mpmath.mpf(t), mpmath.mpf(alpha)
        r = (1 + t * t / 2) ** -alpha
        e0 = alpha * t * (1 + t * t / 2) ** (-alpha - 1) / (mpmath.sqrt(alpha) * mpmath.sqrt(1 - r * r))
        return float(e0), float(2 / mpmath.pi * mpmath.asin(r))


# alpha = 0.1 and 1e-3 keep E0 a normal double at t = 1e160 (about 7e-193)
# and, for 1e-3, at 1e300; at alpha = 1 (4 t^-3) it underflows to 0 past t ~ 1e108
HUGE_T_MODELS = ALL_MODELS + [ex.GeneralizedLaplace(alpha=0.1), ex.GeneralizedLaplace(alpha=1e-3)]


@pytest.mark.parametrize("m", HUGE_T_MODELS, ids=lambda m: m.spec_string())
def test_e0_and_clipped_autocovariance_at_huge_t(m):
    # Matern's polynomial overflows above t ~ 1e77 (nu = 4.5) and t * t above
    # t ~ 1.3e154: neither may leave a nan or raise a floating-point error
    with np.errstate(all="raise", under="ignore"):
        arrays = (ex.e0(m, HUGE_TIMES), ex.clipped_autocovariance(m, HUGE_TIMES))
        scalars = [(ex.e0(m, t), float(ex.clipped_autocovariance(m, t))) for t in HUGE_TIMES]
    for got in (np.column_stack(arrays), np.array(scalars)):
        if isinstance(m, ex.GeneralizedLaplace):  # a power tail
            want = np.array([_generalized_laplace_mp(m.alpha, t) for t in HUGE_TIMES])
            assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-300), (got, want)
        else:  # e^{-t} or e^{-t^2/2} underflows long before t = 1e80
            assert np.all(got[1:] == 0.0) and np.all(np.abs(got[0]) < 1e-100), got


# every family, and shifted_gaussian at an alpha the gate accepts
INF_T_MODELS = ALL_MODELS + [ex.ShiftedGaussian(alpha=0.1)]


@pytest.mark.parametrize("m", INF_T_MODELS, ids=lambda m: m.spec_string())
def test_e0_and_clipped_autocovariance_at_infinite_t_are_their_limit_zero(m):
    # cos(inf) is NaN and generalized_laplace forms r' from e^{inf - inf}:
    # neither may leave a NaN or raise a floating-point error
    with np.errstate(all="raise", under="ignore"):
        e0, clipped = ex.e0(m, np.array([np.inf, 1.0])), ex.clipped_autocovariance(m, np.array([np.inf, 1.0]))
        at_one = (ex.e0(m, 1.0), ex.clipped_autocovariance(m, 1.0))
        scalars = (ex.e0(m, np.inf), ex.clipped_autocovariance(m, np.inf))
    assert (e0[0], clipped[0]) == scalars == (0.0, 0.0)
    assert (e0[1], clipped[1]) == at_one  # finite t beside it is untouched


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 5.0])
def test_generalized_laplace_e0_keeps_its_digits_where_r_prime_is_tiny(alpha):
    # e^{-(alpha+1) log1p(t^2/2)} is subnormal or 0 long before t scales it
    # back up (from t ~ 1e77 at alpha = 1, where E0 is still about 1e-231):
    # r' is formed from log t there, so E0 stays within 1e-12 of 40 digits
    # until it leaves the normal doubles
    m = ex.GeneralizedLaplace(alpha=alpha)
    ts = np.geomspace(1e5, 1e300, 120)
    with np.errstate(all="raise", under="ignore"):
        got = np.asarray(ex.e0(m, ts))
    want = np.array([_generalized_laplace_mp(alpha, t)[0] for t in ts])
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-300), np.max(np.abs(got - want) / want)


# 2^-510 is the threshold below which log cosh x < 2^-1021 is returned as 0
@pytest.mark.parametrize(
    "x", [0.0, 1e-300, 2.0**-510, math.nextafter(2.0**-510, 1.0), 1.0, 349.99, 350.0, 700.0, 1e300, math.inf, -2.0, -400.0, math.nan]
)
def test_log_cosh_raises_no_floating_point_error(x):
    with np.errstate(all="raise"):
        got = (_log_cosh(x), _log_cosh(np.array([x, -x])))
    want = log_cosh_oracle(x)
    assert _bits(got[0]) == _bits(want)
    assert _bits(got[1]) == _bits([want, want])


def test_log_cosh_is_zero_just_below_its_threshold():
    x = math.nextafter(2.0**-510, 0.0)
    with np.errstate(all="raise"):
        assert _log_cosh(x) == 0.0
    assert 0.0 < log_cosh_oracle(x) <= 2.0**-1021


def _d2r0_closed_form(m) -> float:
    """r''(0) of each family in closed form."""
    if isinstance(m, ex.Diffusion):
        return -m.d / 8.0
    if isinstance(m, ex.RandomAcceleration):
        return -0.75
    if isinstance(m, ex.ShiftedGaussian):
        return -(1.0 + m.alpha * m.alpha)
    if isinstance(m, ex.MaternHalfInteger):
        return -1.0 / (2.0 * (m.nu - 1.0))
    return -m.alpha


@pytest.mark.parametrize(
    "m", ALL_MODELS + [ex.Diffusion(d=d) for d in (3, 8, 63, 64)] + [ex.ShiftedGaussian(alpha=a) for a in (0.1, 0.2259, 0.3, 2.0)]
    + [ex.GeneralizedLaplace(alpha=a) for a in (1e-3, 0.1, 1.5, 10.0)], ids=lambda m: m.spec_string()
)
def test_second_derivative_values(m):
    # r''(0), read by E0 on every call, is d2r at 0 computed once per model:
    # the closed form's bits, kept out of the dataclass fields, so equality
    # and hashing (the validity cache's key) do not change once it is read
    fresh = type(m)(**{f: getattr(m, f) for f in m.__dataclass_fields__})
    hashed = hash(fresh)
    assert _bits(fresh.d2r0) == _bits(_d2r0_closed_form(m)) == _bits(m.d2r(0.0))
    assert _bits(m.d2r(np.zeros(3))) == _bits([_d2r0_closed_form(m)] * 3)
    assert type(fresh.d2r0) is float and fresh.d2r0 is fresh.d2r0
    assert hash(fresh) == hashed and fresh == m and repr(fresh) == repr(m)


def test_second_derivative_matches_second_differences():
    # one-sided-in-h extrapolation over h in {1e-2, 1e-3}: the random
    # acceleration covariance has an odd third-order term at zero, so the
    # second difference carries an O(h) error there.
    for m in ALL_MODELS:
        vals = {}
        for h in (1e-2, 1e-3):
            vals[h] = (float(m.r(h)) - 2.0 + float(m.r(h))) / (h * h)
        extrap = (10.0 * vals[1e-3] - vals[1e-2]) / 9.0
        assert extrap == pytest.approx(m.d2r0, abs=1e-4), m.spec_string()


def test_clipped_autocovariance_values():
    d2 = ex.Diffusion(d=2)
    assert ex.clipped_autocovariance(d2, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert ex.clipped_autocovariance(d2, T_STAR) == pytest.approx(1.0 / 3.0, rel=1e-12)
    gl = ex.GeneralizedLaplace(alpha=1.0)
    assert ex.clipped_autocovariance(gl, math.sqrt(2.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # near t = 0 the arcsin is formed from the compensated 1 - r^2, not from
    # r rounded to 1: (2/pi) arcsin sech(t/2) = 1 - (4/pi) arctan(tanh(t/4))
    for t in (1e-8, 1e-6, 1e-4):
        want = 1.0 - (4.0 / math.pi) * math.atan(math.tanh(t / 4.0))
        assert abs(ex.clipped_autocovariance(d2, t) - want) <= 2.2e-16, t


def test_clipped_monotone_where_r_is():
    ts = np.arange(0.0, 20.0, 0.01)
    for m in ALL_MODELS:
        dr_sign = np.sign(np.diff(np.asarray(m.r(ts))))
        drcl_sign = np.sign(np.diff(np.asarray(ex.clipped_autocovariance(m, ts))))
        big = np.abs(np.diff(np.asarray(m.r(ts)))) > 1e-12
        assert np.all(dr_sign[big] == drcl_sign[big]), m.spec_string()


def test_parse_model_spec_round_trip():
    for spec in ["diffusion(d=2)", "diffusion(d=64)", "random_acceleration", "shifted_gaussian(alpha=0)", "matern(nu=2.5)", "generalized_laplace(alpha=1)"]:
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
