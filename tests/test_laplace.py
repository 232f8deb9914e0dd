import math

import numpy as np
import pytest
from scipy.special import digamma

import excursia as ex
from excursia.laplace import DivergenceError, LaplaceEvaluator, PoleNotFoundError

FIXTURE = LaplaceEvaluator.for_survival(lambda t: np.exp(-np.asarray(t, dtype=float)), rel_tol=1e-12, tail_kind="exponential")


def test_transform_at_zero_equals_half_mean():
    assert ex.laplace_e0(ex.Diffusion(d=2), 0.0) == pytest.approx(math.pi, rel=1e-8)
    assert ex.laplace_e0(ex.RandomAcceleration(), 0.0) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-8)
    assert ex.laplace_e0(ex.ShiftedGaussian(alpha=0.0), 0.0) == pytest.approx(math.pi / 2.0, rel=1e-8)


def test_psi_divisor_fixture_and_limits():
    assert FIXTURE.psi_divisor(0.0) == pytest.approx(1.0, abs=1e-12)
    assert FIXTURE.psi_divisor(1.0) == pytest.approx(0.5, rel=1e-10)
    assert abs(ex.psi_divisor(ex.Diffusion(d=2), 1000.0)) <= 1e-3


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
