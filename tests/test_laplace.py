import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import digamma

import excursia as ex
from excursia import laplace
from excursia.laplace import DivergenceError, LaplaceEvaluator, PoleNotFoundError, QuadratureError, TailFitError

from conftest import VALID_MODELS

FIXTURE = LaplaceEvaluator.for_survival(lambda t: np.exp(-np.asarray(t, dtype=float)))


def test_transform_at_zero_equals_half_mean():
    assert ex.laplace_e0(ex.Diffusion(d=2), 0.0) == pytest.approx(math.pi, rel=1e-8)
    assert ex.laplace_e0(ex.RandomAcceleration(), 0.0) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-8)
    assert ex.laplace_e0(ex.ShiftedGaussian(alpha=0.0), 0.0) == pytest.approx(math.pi / 2.0, rel=1e-8)


def test_divisor_transform_fixture_and_limits():
    # the divisor transform E[e^{-sX}] = 1 - s L(s); for the Exp(1) fixture
    # L(s) = 1/(1 + s), so it is 1/(1 + s) as well
    for s in (0.0, 1.0, 3.0):
        assert 1.0 - s * FIXTURE.transform(s) == pytest.approx(1.0 / (1.0 + s), rel=1e-10), s
    s = 1000.0
    assert abs(1.0 - s * LaplaceEvaluator.for_model(ex.Diffusion(d=2)).transform(s)) <= 1e-3


def test_excursion_transform_matches_sampled_excursions():
    # an exceedance is a Geometric(1/2) sum of divisors, so its transform is
    # psi/(2 - psi) with psi = 1 - s L(s); compare with the sampled lengths
    model = ex.Diffusion(d=2)
    ev = LaplaceEvaluator.for_model(model)
    vals, _ = ex.sample_excursions(model, ex.RngStream(21, 0), 10**5)
    for s in (0.05, 0.3, 1.0):
        psi = 1.0 - s * ev.transform(s)
        weights = np.exp(-s * vals)
        se = weights.std(ddof=1) / math.sqrt(vals.size)
        assert abs(weights.mean() - psi / (2.0 - psi)) <= 4 * se, s


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
    # near the boundary -1/4 the tail completion carries most of L; it is
    # exact for this E0, whose tail is exponential to 1e-15 at truncation.
    # At s = 1e5 the oracle's digamma difference loses digits itself
    for s, tol in [(0.0, 1e-12), (0.5, 1e-12), (5.0, 1e-12), (1e3, 1e-12), (1e5, 1e-9), (-0.2, 1e-12), (-0.24, 1e-12), (-0.249, 1e-12)]:
        ref = _d1_transform_oracle(s)
        assert abs(ex.laplace_e0(model, s) - ref) <= tol * ref, s


def test_transform_decreasing_and_convex_in_s():
    ev = LaplaceEvaluator.for_model(ex.Diffusion(d=2))
    ss = np.linspace(-0.3, 3.0, 12)
    vals = np.array([ev.transform(float(s)) for s in ss])
    assert np.all(np.diff(vals) < 0)
    assert np.all(np.diff(vals, 2) > 0)
    # the divisor transform 1 - s L(s) = E[e^{-sX}] decreases in s and lies in (0, 1) for s > 0
    sl = ss * vals
    assert np.all(np.diff(sl) > 0)
    assert np.all((sl[ss > 0] > 0) & (sl[ss > 0] < 1))


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


@pytest.mark.parametrize("model", [ex.Diffusion(d=2), ex.RandomAcceleration()], ids=lambda m: m.spec_string())
def test_pole_boundary_is_the_exact_decay_rate(model):
    # E0 decays like e^{-t/2} for both; the completion's rate comes from
    # its last truncation step
    assert ex.find_pole(model).boundary == pytest.approx(-0.5, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", range(1, 65))
def test_pole_boundary_is_the_completion_slope_between_decay_rate_and_root(d):
    # E0 of diffusion(d) decays like e^{-d t/4}, and slower before: the
    # completion's slope over the last truncation step is not the
    # convergence boundary -d/4 but lies at or above it (-10.42 at d = 43,
    # -14.91 at d = 64; d = 3 reads -0.7500000000000007, so the bound has
    # 1e-14 relative slack for rounding) and below -theta
    est = ex.find_pole(ex.Diffusion(d=d))
    assert -d / 4.0 * (1.0 + 1e-14) <= est.boundary < -est.theta


@pytest.mark.parametrize("alpha", [1e-3, 0.05, 0.1, 0.3, 1.0, 10.0, 100.0, 1e3, 3e3, 1e5])
def test_transform_at_zero_is_half_mean_for_steep_covariances(alpha):
    # E0 of generalized_laplace(alpha) is below 1e-15 at t = 1 from
    # alpha of about 1600 on: the truncation ladder starts before it decays.
    # At small alpha most of mu/2 lies past t_first = 1e12 (r(1e12) = 0.947
    # at alpha = 1e-3): the matching identity gives it exactly
    mu = math.pi / math.sqrt(alpha)
    assert ex.laplace_e0(ex.GeneralizedLaplace(alpha=alpha), 0.0) == pytest.approx(mu / 2.0, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("alpha", [0.05, 0.2259, 1.0, 2.0])
def test_transform_refuses_models_the_gate_refuses(alpha):
    # E0 of shifted_gaussian(alpha > 0) turns negative past t*: a transform
    # truncated there and completed across the sign change would be wrong
    # (+24% at alpha = 2), so building one is refused as sampling is
    model = ex.ShiftedGaussian(alpha=alpha)
    with pytest.raises(ex.ValidityError):
        ex.laplace_e0(model, 0.0)
    with pytest.raises(ex.ValidityError):
        LaplaceEvaluator.for_model(model)


def test_transform_and_pole_share_one_evaluator_per_model(monkeypatch):
    built = []
    for_survival = LaplaceEvaluator.__dict__["for_survival"].__func__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return for_survival(cls, *args, **kwargs)

    monkeypatch.setattr(LaplaceEvaluator, "for_survival", classmethod(counted))
    laplace._evaluator.cache_clear()
    model = ex.Diffusion(d=7)
    ex.laplace_e0(model, 0.3)
    ex.find_pole(model)
    ex.laplace_e0(model, 0.0)
    assert len(built) == 1


@pytest.mark.parametrize("model", [m for m in VALID_MODELS if ex.validate_iia(m).verdict == "valid"], ids=lambda m: m.spec_string())
def test_cached_transform_equals_a_fresh_evaluator_bit_for_bit(model):
    fresh = LaplaceEvaluator.for_model(model)
    ex.find_pole(model)  # the pole search leaves the cached evaluator as it was
    for s in (0.5 * fresh.completion.slope, 0.0, 0.1, 1.0, 10.0):
        assert ex.laplace_e0(model, s) == fresh.transform(s), s


def test_pole_not_found_when_no_real_root():
    # survival e^{-t} (1+t)^{-3}: at the boundary s -> -1 the transform
    # stays below 1, so h = 1 + s L never changes sign
    ev = LaplaceEvaluator.for_survival(lambda t: np.exp(-t) / (1.0 + np.asarray(t, dtype=float)) ** 3)
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
    + [ex.ShiftedGaussian(alpha=a) for a in (0.0, 0.01, 0.04)]
)


def _brentq_pole_oracle(ev, bracket):
    """Independent pole oracle: brentq on the pole bracket."""
    return -optimize.brentq(lambda s: 1.0 + s * ev.transform(s), *bracket, xtol=1e-14, rtol=8.9e-16)


@pytest.mark.parametrize("model", POLE_MODELS, ids=lambda m: m.spec_string())
def test_bracketed_pole_matches_scan_oracle_and_h_increases(model):
    est = ex.find_pole(model)
    ev = laplace._evaluator(model)
    assert est.theta == pytest.approx(_scan_pole_oracle(ev), rel=1e-13, abs=0.0)
    assert est.theta == pytest.approx(_brentq_pole_oracle(ev, est.bracket), rel=1e-13, abs=0.0)
    assert est.residual <= 1e-10
    # h = 2 - Psi_div is strictly increasing on the admissible interval,
    # which makes the bracketed root the unique, dominant one
    lo, hi = est.bracket
    hs = np.array([1.0 + s * ev.transform(s) for s in np.linspace(lo, hi, 400)])
    assert np.all(np.diff(hs) > 0.0)


@pytest.mark.parametrize("model", POLE_MODELS, ids=lambda m: m.spec_string())
def test_tail_completion_meets_e0_at_truncation(model):
    ev = laplace._evaluator(model)
    c = ev.completion
    at_t_max = math.exp(c.intercept + c.slope * ev.t_max)
    assert at_t_max == pytest.approx(float(ex.e0(model, np.array([ev.t_max]))[0]), rel=1e-12, abs=0.0)


def test_pole_on_a_capped_truncation_matches_the_default():
    # diffusion(d=2) truncates near t = 69 by default; a cap at 40 leaves
    # more of the survival to the tail completion
    model = ex.Diffusion(d=2)
    def survival(t):
        return ex.e0(model, t)

    capped = LaplaceEvaluator(survival, 40.0, LaplaceEvaluator._fit_tail(survival, 40.0))
    assert capped.t_max == 40.0 < laplace._evaluator(model).t_max
    assert abs(capped.find_pole().theta - ex.find_pole(model).theta) <= 1e-8


@pytest.mark.parametrize("t_cap", [1e-300, 1e-100, 1e-12])
def test_tiny_truncation_cap_is_a_tail_fit_error(t_cap):
    # E0 rounds to 1 at both t_cap/1.25 and t_cap: there is no decay to
    # continue
    with pytest.raises(TailFitError, match="survival does not decay over"):
        LaplaceEvaluator._fit_tail(lambda t: ex.e0(ex.Diffusion(d=2), t), t_cap)


@pytest.mark.parametrize(
    "model, prefactor",
    [(ex.Diffusion(d=2), 1.1954257), (ex.Diffusion(d=1), 1.0613269), (ex.MaternHalfInteger(nu=2.5), 1.2374014)],
    ids=lambda v: v.spec_string() if isinstance(v, ex.CovarianceModel) else "",
)
def test_pole_prefactor_matches_central_difference(model, prefactor):
    # P(T > t) ~ C e^{-theta t} with C = 2/(theta h'(-theta)); h' from a
    # central difference of h = 1 + s L(s) at the root
    est = ex.find_pole(model)
    ev = laplace._evaluator(model)
    root, step = -est.theta, 1e-5
    dh = ((1.0 + (root + step) * ev.transform(root + step)) - (1.0 + (root - step) * ev.transform(root - step))) / (2.0 * step)
    assert est.prefactor == pytest.approx(2.0 / (est.theta * dh), rel=1e-8)
    assert est.prefactor == pytest.approx(prefactor, abs=1e-7)


def test_pole_h_evals_counts_transform_calls(monkeypatch):
    ev = LaplaceEvaluator.for_model(ex.Diffusion(d=5))
    calls = []
    transform = ev.transform
    monkeypatch.setattr(ev, "transform", lambda s: calls.append(s) or transform(s))
    est = ev.find_pole()
    assert est.h_evals == len(calls) >= 3
    assert ev.find_pole().h_evals == est.h_evals


def test_evaluator_calls_the_survival_once_on_the_nodes_of_both_rules():
    sizes = []

    def survival(t):
        sizes.append(np.size(t))
        return np.exp(-np.asarray(t))

    ev = LaplaceEvaluator(survival, 40.0, laplace.TailCompletion(-40.0, -1.0))
    assert sizes == [laplace.PANELS * (laplace.ORDER + laplace.CHECK_ORDER)]
    assert ev.transform(0.0) == pytest.approx(1.0, rel=1e-12)


def _fresh_slope(ev, s):
    # L'(s) with the rule terms formed anew
    u = laplace._unit_rule(laplace.ORDER)[0]
    terms = ev._weighted * np.exp((-s * ev.t_max) * u)
    rem = ev.completion.remainder(s, ev.t_max)
    return -ev.t_max * float(terms @ u) - rem * (ev.t_max + 1.0 / (s - ev.completion.slope))


def test_slope_equals_a_fresh_computation_before_and_after_transform():
    ev = LaplaceEvaluator.for_model(ex.Diffusion(d=3))
    s, other = -0.3, -0.1
    want = _fresh_slope(ev, s)
    assert ev._slope(s) == want  # before any transform
    ev.transform(s)
    assert ev._slope(s) == want
    ev.transform(other)
    assert ev._slope(s) == want


def _generalized_laplace_oracle(alpha, s):
    # int_0^inf E0(t) e^{-st} dt to 30 digits, E0 = -r'/(sqrt(alpha) sqrt(1 - r^2))
    # with r = e^{-alpha lp}, lp = log1p(t^2/2), by direct quadrature; its
    # nodes reach t = 1e24, past where e^{-st} cuts off for every s tested
    with mpmath.workdps(30):
        a, s = mpmath.mpf(alpha), mpmath.mpf(s)

        def e0_times_kernel(t):
            lp = mpmath.log1p(t * t / 2)
            if lp == 0:
                return mpmath.exp(-s * t)
            return a * t * mpmath.exp((-a - 1) * lp - s * t) / mpmath.sqrt(-a * mpmath.expm1(-2 * a * lp))

        return float(mpmath.quad(e0_times_kernel, [0] + [mpmath.mpf(10) ** k for k in range(-1, 25)] + [mpmath.inf]))


def _within_rel_tol_or_raises(alpha, s):
    """True if L(s) of generalized_laplace(alpha) is within REL_TOL of the
    oracle, False if it raises QuadratureError; a wrong value returned fails."""
    try:
        got = ex.laplace_e0(ex.GeneralizedLaplace(alpha=alpha), s)
    except QuadratureError:
        return False
    want = _generalized_laplace_oracle(alpha, s)
    assert abs(got - want) <= laplace.REL_TOL * want, (alpha, s, got, want)
    return True


@pytest.mark.parametrize(
    "alpha, s",
    [(1e-3, 1e-10), (1e-3, 1e-3), (1e-3, 10.0), (0.05, 1e-6), (0.05, 1.0), (0.1, 1e-10), (0.1, 0.1), (0.251, 1e-6),
     (0.3, 1e-3), (1.0, 1e-12), (1.0, 1.0), (1.58, 1e-6), (3.0, 0.1), (10.0, 1e-10), (10.0, 10.0)],
)
def test_power_tail_transform_matches_an_oracle_of_e0(alpha, s):
    # E0 is summed on past t_max up to t_first = 1e12, and the mass past
    # t_first, (mu/2) R(t_first), bounds the rest at s > 0: every value
    # returned is within REL_TOL of the transform of E0 itself
    assert _within_rel_tol_or_raises(alpha, s)


def test_power_tail_transform_near_zero_returns_a_value_or_raises():
    # generalized_laplace(alpha = 0.1): at s = 3e-11, e^{-st} has cut off
    # well before t_first, at 1e-11 the mass past t_first is not yet
    # negligible and the estimate raises
    assert _within_rel_tol_or_raises(0.1, 3e-11)
    assert not _within_rel_tol_or_raises(0.1, 1e-11)
    with pytest.raises(QuadratureError, match="tail error estimate"):
        ex.laplace_e0(ex.GeneralizedLaplace(alpha=1e-3), 1e-12)


def _t_max_loop_oracle(survival, t_cap):
    k = -40
    while (t := 1.25**k) < t_cap:
        v = float(np.asarray(survival(t)))
        if not np.isfinite(v) or v < laplace.TRUNCATION_THRESHOLD:
            return t
        k += 1
    return t_cap


@pytest.mark.parametrize("t_cap", [40.0, 1000.0, 5000.0])
@pytest.mark.parametrize(
    "survival",
    [
        lambda t: ex.e0(ex.Diffusion(d=2), t),
        lambda t: ex.e0(ex.MaternHalfInteger(nu=4.5), t),
        lambda t: np.exp(-np.asarray(t, dtype=float)),
        # below the threshold from t = 0.7 on, before the ladder reaches 1
        lambda t: np.exp(-50.0 * np.asarray(t, dtype=float)),
        # power tail: above the threshold at every cap, so the cap is returned
        lambda t: (1.0 + np.asarray(t, dtype=float)) ** -3.0,
    ],
    ids=["diffusion-d2", "matern-4.5", "exp", "exp-50", "power"],
)
def test_find_t_max_matches_scalar_loop_oracle(survival, t_cap, monkeypatch):
    monkeypatch.setattr(laplace, "T_CAP", t_cap)
    assert LaplaceEvaluator._find_t_max(survival) == _t_max_loop_oracle(survival, t_cap)


# ---------------------------------------------------------------------------
# the exceedance survival S of the renewal equation S = E0 + f * S / 2

POLE_MODELS = [
    ex.Diffusion(d=1),
    ex.Diffusion(d=2),
    ex.Diffusion(d=10),
    ex.RandomAcceleration(),
    ex.MaternHalfInteger(nu=2.5),
    ex.ShiftedGaussian(alpha=0.0),
]


@pytest.mark.parametrize("model", POLE_MODELS, ids=lambda m: m.spec_string())
def test_iia_survival_tail_is_the_pole_residue(model):
    # key renewal theorem: S(t) e^{theta t} -> C, the residue prefactor of
    # the pole of 2 L/(1 + s L)
    pole = ex.find_pole(model)
    S, _ = ex.iia_survival(model, 100.0)
    assert abs(S * math.exp(100.0 * pole.theta) - pole.prefactor) <= 1e-7


@pytest.mark.parametrize("model", POLE_MODELS, ids=lambda m: m.spec_string())
def test_iia_survival_integrates_to_the_mean_excursion(model):
    # E T = 2 E T_1 = mu: int_0^100 S plus the pole tail C e^{-100 theta}/theta
    pole = ex.find_pole(model)
    ts = np.linspace(0.0, 100.0, 20001)
    S, _ = ex.iia_survival(model, ts)
    total = integrate.simpson(S, x=ts) + pole.prefactor * math.exp(-100.0 * pole.theta) / pole.theta
    assert abs(total - ex.mean_excursion(model)) <= 1e-5


@pytest.mark.parametrize("model", VALID_MODELS, ids=lambda m: m.spec_string())
def test_iia_survival_between_nodes_matches_a_grid_that_holds_them(model, monkeypatch):
    # the odd multiples of mu/512 lie halfway between the nodes of the
    # default solve and on the nodes of one at half its step
    mu = ex.mean_excursion(model)
    ts = mu / 512 * np.concatenate([np.arange(1.0, 40.0, 2.0), np.arange(41.0, 10 * 512, 62.0)])
    S, _ = ex.iia_survival(model, ts)
    monkeypatch.setattr(laplace, "SURVIVAL_STEPS_PER_MEAN", 2 * laplace.SURVIVAL_STEPS_PER_MEAN)
    S_half, err_half = ex.iia_survival(model, ts)
    assert np.abs(S - S_half).max() <= 1e-8


@pytest.mark.parametrize("model", VALID_MODELS + [ex.Diffusion(d=64), ex.GeneralizedLaplace(alpha=3000.0)], ids=lambda m: m.spec_string())
def test_iia_survival_error_estimate_covers_a_quarter_step_solve(model, monkeypatch):
    # S_h - S_2h of matern(nu=2.5) changes sign at t = 1.2367 mu
    mu = ex.mean_excursion(model)
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 15.0, 200), np.linspace(1.23, 1.24, 101)]) * mu
    S, err = ex.iia_survival(model, ts)
    monkeypatch.setattr(laplace, "SURVIVAL_STEPS_PER_MEAN", 4 * laplace.SURVIVAL_STEPS_PER_MEAN)
    S_quarter, _ = ex.iia_survival(model, ts)
    assert np.all(np.abs(S - S_quarter) <= err)
    assert S[0] == 1.0


def test_iia_survival_diffusion_d2_values():
    S, err = ex.iia_survival(ex.Diffusion(d=2), [2.0, 4.0, 20.0])
    assert np.abs(S - [0.816220, 0.567675, 0.0288481]).max() <= 1e-6
    assert np.all(err <= 1e-6)


def test_iia_survival_refusals():
    model = ex.Diffusion(d=2)
    ceiling = 64 * ex.mean_excursion(model)
    S, _ = ex.iia_survival(model, ceiling)
    assert 0.0 < S < 1e-30
    for t in (math.nextafter(ceiling, math.inf), -1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="64 mean excursions"):
            ex.iia_survival(model, [0.0, t])
    with pytest.raises(ex.ValidityError):
        ex.iia_survival(ex.ShiftedGaussian(alpha=2.0), 1.0)
