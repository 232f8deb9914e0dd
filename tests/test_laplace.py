import math

import mpmath
import numpy as np
import pytest
from scipy import optimize
from scipy.special import digamma

import excursia as ex
from excursia import laplace
from excursia.laplace import DivergenceError, LaplaceEvaluator, PoleNotFoundError, QuadratureError

FIXTURE = LaplaceEvaluator.for_survival(lambda t: np.exp(-np.asarray(t, dtype=float)), rel_tol=1e-12, tail_kind="exponential")


def test_transform_at_zero_equals_half_mean():
    assert ex.laplace_e0(ex.Diffusion(d=2), 0.0) == pytest.approx(math.pi, rel=1e-8)
    assert ex.laplace_e0(ex.RandomAcceleration(), 0.0) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-8)
    assert ex.laplace_e0(ex.ShiftedGaussian(alpha=0.0), 0.0) == pytest.approx(math.pi / 2.0, rel=1e-8)


def test_psi_divisor_fixture_and_limits():
    assert FIXTURE.psi_divisor(0.0) == pytest.approx(1.0, abs=1e-12)
    assert FIXTURE.psi_divisor(1.0) == pytest.approx(0.5, rel=1e-10)
    assert abs(LaplaceEvaluator.for_model(ex.Diffusion(d=2)).psi_divisor(1000.0)) <= 1e-3


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.RandomAcceleration(), ex.MaternHalfInteger(nu=2.5)], ids=lambda m: m.spec_string())
def test_large_s_transform_sees_the_peak_at_zero(model):
    # E0(0) = 1 and E0 is continuous, so s L(s) -> 1 as s -> inf; the whole
    # integrand sits within a few 1/s of t = 0
    for s in [1e3, 1e4, 1e5, 1e6]:
        sl = s * ex.laplace_e0(model, s)
        assert 1.0 - 1e-3 < sl <= 1.0 + 1e-9, (s, sl)


def _d1_transform_oracle(s):
    # E0(t) = cosh(t/4)/cosh(t/2) for d=1, so L E0(s) = beta(s+1/4) + beta(s+3/4)
    def beta(a):
        return 0.5 * (digamma((a + 1.0) / 2.0) - digamma(a / 2.0))

    return beta(s + 0.25) + beta(s + 0.75)


def test_transform_matches_d1_digamma_oracle():
    model = ex.Diffusion(d=1)
    # s = -0.2 carries the fitted tail completion's own error
    for s, tol in [(0.0, 1e-12), (0.5, 1e-12), (5.0, 1e-12), (1e3, 1e-12), (1e5, 1e-9), (-0.2, 1e-8)]:
        ref = _d1_transform_oracle(s)
        assert abs(ex.laplace_e0(model, s) - ref) <= tol * ref, s


def test_psi_excursion_fixture_and_identity():
    assert FIXTURE.psi_excursion(1.0) == pytest.approx(1.0 / 3.0, rel=1e-10)
    ev = LaplaceEvaluator.for_model(ex.Diffusion(d=2), rel_tol=1e-12)
    for s in [0.0, 0.05, 0.3, 1.0, 3.0, -0.1]:
        psi_t = ev.psi_excursion(s)
        psi_d = ev.psi_divisor(s)
        assert psi_t == pytest.approx(psi_d / (2.0 - psi_d), abs=1e-12)
    assert ev.psi_excursion(0.0) == pytest.approx(1.0, abs=1e-10)
    v1 = ev.psi_excursion(1.0)
    assert 0.0 < v1 < 1.0
    assert ev.psi_excursion(2.0) < v1


def test_transform_decreasing_and_convex_in_s():
    ev = LaplaceEvaluator.for_model(ex.Diffusion(d=2), rel_tol=1e-10)
    ss = np.linspace(-0.3, 3.0, 12)
    vals = np.array([ev.transform(float(s)) for s in ss])
    assert np.all(np.diff(vals) < 0)
    assert np.all(np.diff(vals, 2) > 0)


def test_divergence_below_boundary():
    ev = LaplaceEvaluator.for_model(ex.Diffusion(d=2))
    with pytest.raises(DivergenceError):
        ev.transform(-0.6)  # boundary is -1/2
    # power-tail transform has boundary 0 on the negative side
    evp = LaplaceEvaluator.for_model(ex.GeneralizedLaplace(alpha=1.0))
    with pytest.raises(DivergenceError):
        evp.transform(-0.01)
    assert evp.transform(0.5) > 0


def test_fixture_pole_is_half_rate():
    est = FIXTURE.find_pole()
    assert est.theta == pytest.approx(0.5, abs=1e-8)
    assert est.residual <= 1e-10
    assert est.method == "pole"


def test_reference_poles():
    cases = [
        (ex.Diffusion(d=2), 0.1862),
        (ex.RandomAcceleration(), 0.2647),
        (ex.ShiftedGaussian(alpha=0.0), 0.4115),
    ]
    for model, ref in cases:
        est = ex.find_pole(model)
        assert est.theta == pytest.approx(ref, abs=5e-4), model.spec_string()
        assert est.residual <= 1e-10


def test_pole_brackets_inside_margin():
    est = ex.find_pole(ex.Diffusion(d=2))
    lo, hi = est.bracket
    assert lo < -est.theta < hi < 0
    assert est.boundary == pytest.approx(-0.5, abs=1e-4)
    assert est.boundary_margin == 0.95


def test_pole_refuses_unusable_models():
    with pytest.raises(ex.ValidityError):
        ex.find_pole(ex.ShiftedGaussian(alpha=2.0))
    with pytest.raises(ex.ValidityError):
        ex.find_pole(ex.GeneralizedLaplace(alpha=1.0))


def test_pole_not_found_when_no_real_root():
    # survival e^{-t} (1+t)^{-3}: at the boundary s -> -1 the transform
    # stays below 1, so h = 1 + s L never changes sign
    ev = LaplaceEvaluator.for_survival(
        lambda t: np.exp(-t) / (1.0 + np.asarray(t, dtype=float)) ** 3,
        rel_tol=1e-10,
        tail_kind="exponential",
    )
    with pytest.raises(PoleNotFoundError) as exc_info:
        ev.find_pole()
    h_lo, h_hi = exc_info.value.h_values
    assert h_lo > 0 and h_hi > 0


def _scan_pole_oracle(ev):
    """Independent pole oracle: the descending sign-change scan (8 points
    hugging zero, then 48 toward the boundary margin) followed by brentq
    on the first bracket found."""
    rate = -ev.completion.slope
    lo, hi = -laplace.BOUNDARY_MARGIN * rate, -1e-4 * rate

    def h(s):
        return 1.0 + s * ev.transform(s)

    grid = np.concatenate([np.linspace(1e-3 * hi, hi, 8), np.linspace(hi, lo, 48)[1:]])
    s_prev, h_prev = float(grid[0]), h(float(grid[0]))
    for s_val in grid[1:]:
        h_cur = h(float(s_val))
        if h_prev > 0.0 >= h_cur:
            return -optimize.brentq(h, float(s_val), s_prev, xtol=1e-14, rtol=8.9e-16)
        s_prev, h_prev = float(s_val), h_cur
    raise AssertionError("scan oracle found no sign change")


POLE_MODELS = (
    [ex.Diffusion(d=d) for d in range(1, 65)]
    + [ex.RandomAcceleration(), ex.MaternHalfInteger(nu=2.5), ex.MaternHalfInteger(nu=3.5), ex.MaternHalfInteger(nu=4.5)]
    + [ex.ShiftedGaussian(alpha=a) for a in (0.0, 0.05, 0.1, 0.15, 0.2, 0.2259)]
)


def _brentq_pole_oracle(ev, bracket):
    """Independent pole oracle: brentq on the pole bracket."""
    return -optimize.brentq(lambda s: 1.0 + s * ev.transform(s), *bracket, xtol=1e-14, rtol=8.9e-16)


@pytest.mark.parametrize("model", POLE_MODELS, ids=lambda m: m.spec_string())
def test_bracketed_pole_matches_scan_oracle_and_h_increases(model):
    est = ex.find_pole(model)
    ev = laplace._evaluator(model, 1e-12, laplace.T_CAP)
    assert est.theta == pytest.approx(_scan_pole_oracle(ev), rel=1e-13, abs=0.0)
    assert est.theta == pytest.approx(_brentq_pole_oracle(ev, est.bracket), rel=1e-13, abs=0.0)
    assert est.residual <= 1e-10
    # h = 2 - Psi_div is strictly increasing on the admissible interval,
    # which makes the bracketed root the unique, dominant one
    lo, hi = est.bracket
    hs = np.array([1.0 + s * ev.transform(s) for s in np.linspace(lo, hi, 400)])
    assert np.all(np.diff(hs) > 0.0)


@pytest.mark.parametrize(
    "model, prefactor",
    [(ex.Diffusion(d=2), 1.1954257), (ex.Diffusion(d=1), 1.0613269), (ex.MaternHalfInteger(nu=2.5), 1.2374014)],
    ids=lambda v: v.spec_string() if isinstance(v, ex.CovarianceModel) else "",
)
def test_pole_prefactor_matches_central_difference(model, prefactor):
    # P(T > t) ~ C e^{-theta t} with C = 2/(theta h'(-theta)); h' from a
    # central difference of h = 1 + s L(s) at the root
    est = ex.find_pole(model)
    ev = laplace._evaluator(model, 1e-12, laplace.T_CAP)
    root, step = -est.theta, 1e-5
    dh = ((1.0 + (root + step) * ev.transform(root + step)) - (1.0 + (root - step) * ev.transform(root - step))) / (2.0 * step)
    assert est.prefactor == pytest.approx(2.0 / (est.theta * dh), rel=1e-8)
    assert est.prefactor == pytest.approx(prefactor, abs=1e-7)


def test_pole_h_evals_counts_transform_calls(monkeypatch):
    ev = LaplaceEvaluator.for_model(ex.Diffusion(d=5), rel_tol=1e-12)
    calls = []
    transform = ev.transform
    monkeypatch.setattr(ev, "transform", lambda s: calls.append(s) or transform(s))
    est = ev.find_pole()
    assert est.h_evals == len(calls) >= 3
    assert ev.find_pole().h_evals == est.h_evals


def _power_remainder_oracle(completion, s, t_max):
    # int_T^inf e^a t^b e^{-st} dt = e^a s^{-(b+1)} Gamma(b+1, sT), 50 digits
    with mpmath.workdps(50):
        a, b = mpmath.mpf(completion.intercept), mpmath.mpf(completion.slope)
        return float(mpmath.exp(a) * mpmath.mpf(s) ** (-(b + 1)) * mpmath.gammainc(b + 1, mpmath.mpf(s) * t_max))


@pytest.mark.parametrize("power, t_cap", [(-3.0, 1000.0), (-1.5, 1000.0), (-1.2, 10.0)])
@pytest.mark.parametrize("s", [1e-8, 1e-4, 1e-2, 1.0])
def test_power_tail_remainder_meets_rel_tol(power, t_cap, s):
    # the numerical remainder of a power tail enters L(s) within rel_tol * |L|
    ev = LaplaceEvaluator.for_survival(lambda t: (1.0 + np.asarray(t, dtype=float)) ** power, tail_kind="power", t_cap=t_cap)
    fixed = float(laplace._rule_terms(ev._weighted, laplace.ORDER, s, ev.t_max).sum())
    want = fixed + _power_remainder_oracle(ev.completion, s, ev.t_max)
    assert abs(ev.transform(s) - want) <= ev.rel_tol * want


@pytest.mark.filterwarnings("ignore:The integral is probably divergent")
def test_power_tail_remainder_error_above_rel_tol_raises():
    # a tail (1 + t)^{-1.05} cut at t = 5 and s = 1e-8: quad cannot resolve
    # the remainder (its estimate is about 1e-7 of |L|)
    ev = LaplaceEvaluator.for_survival(lambda t: (1.0 + np.asarray(t, dtype=float)) ** -1.05, tail_kind="power", t_cap=5.0)
    assert ev.transform(1e-2) > 0.0
    with pytest.raises(QuadratureError, match="tail remainder error estimate"):
        ev.transform(1e-8)


def _t_max_loop_oracle(survival, t_cap):
    t = 1.0
    while t < t_cap:
        v = float(np.asarray(survival(t)))
        if not np.isfinite(v) or v < laplace.TRUNCATION_THRESHOLD:
            return t
        t *= 1.25
    return t_cap


@pytest.mark.parametrize("t_cap", [40.0, 1000.0, 5000.0])
@pytest.mark.parametrize(
    "survival",
    [
        lambda t: ex.e0(ex.Diffusion(d=2), t),
        lambda t: ex.e0(ex.MaternHalfInteger(nu=4.5), t),
        lambda t: np.exp(-np.asarray(t, dtype=float)),
        # power tail: above the threshold at every cap, so the cap is returned
        lambda t: (1.0 + np.asarray(t, dtype=float)) ** -3.0,
    ],
    ids=["diffusion-d2", "matern-4.5", "exp", "power"],
)
def test_find_t_max_matches_scalar_loop_oracle(survival, t_cap):
    assert LaplaceEvaluator._find_t_max(survival, t_cap) == _t_max_loop_oracle(survival, t_cap)
