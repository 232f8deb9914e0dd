"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Scales are desk-sized: published confidence half-widths obtained at
10^7 samples, and trajectory-simulation baselines, are treated as reference
constants only, never recomputed here.
"""

import math

import numpy as np
import pytest
from scipy import optimize, special, stats

import excursia as ex
from excursia import switching
from excursia.cli import main as cli_main
from excursia.laplace import LaplaceEvaluator
from excursia.reference import DIFFUSION_REFERENCE
from excursia.samplers import _diffusion_d1_from_u, _diffusion_d2_from_u

from conftest import apply_inverse
from oracles import g_forward, g_inverse


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} — {desc}" + (f" | {detail}" if detail else ""))
    assert ok, f"criterion {num}: {desc} | {detail}"


def _excursion_sampler(model, k):
    # the shipped estimator: tail regression on the k largest compounds
    sampler = ex.DivisorSampler(model)

    def draw(stream, n):
        return ex.excursion_largest(sampler, stream, n, k)

    return draw


def test_c01_pole_exponents_match_reference():
    cases = [
        (ex.Diffusion(d=2), 0.1862),
        (ex.RandomAcceleration(), 0.2647),
        (ex.ShiftedGaussian(alpha=0.0), 0.4115),
    ]
    details = []
    ok = True
    for model, ref in cases:
        theta = ex.find_pole(model).theta
        details.append(f"{model.spec_string()}: {theta:.5f} vs {ref}")
        ok = ok and abs(theta - ref) <= 1e-3
    _criterion(1, "pole exponents within 1e-3 of reference", ok, "; ".join(details))


def test_c02_divisor_exponents_d1_to_d5():
    ok = True
    details = []
    for d in range(1, 6):
        sampler = ex.DivisorSampler(ex.Diffusion(d=d))
        est = ex.tail_exponent_ci(
            sampler.draw, 100000, 1000, 10, ex.RngStream(42, 100 * d)
        )
        target = d / 4.0
        ref = DIFFUSION_REFERENCE[d]
        within_target = abs(est.theta - target) <= 0.03 * target
        covers_ref = abs(est.theta - ref.divisor) <= 0.03 * target + ref.divisor_hw
        details.append(f"d={d}: {est.theta:.4f} (target {target}, ref {ref.divisor})")
        ok = ok and within_target and covers_ref
    _criterion(2, "divisor tail exponents match d/4 within 3% and cover published values", ok, "; ".join(details))


def test_c03a_iia_exponent_d2():
    est = ex.tail_exponent_ci(_excursion_sampler(ex.Diffusion(d=2), 10000), 100000, 10000, 10, ex.RngStream(42, 1200))
    ok = 0.175 <= est.theta <= 0.197
    _criterion("3a", "exceedance exponent for d=2 in [0.175, 0.197]", ok, f"theta={est.theta:.4f} +- {est.half_width:.4f} (published 0.1858 +- 0.0017)")


def _iia_pole_diffusion_d1():
    """The d=1 IIA exceedance exponent from the closed-form Laplace transform.

    E0(t) = cosh(t/4)/cosh(t/2) = sum_k (-1)^k (e^{-(k+1/4)t} + e^{-(k+3/4)t}),
    so L E0(s) = beta(s+1/4) + beta(s+3/4) with
    beta(a) = sum_k (-1)^k/(k+a) = (psi((a+1)/2) - psi(a/2))/2.  The pole
    theta is the root of 1 - theta L E0(-theta) = 0 on (0, 1/4), where the
    left side falls strictly from 1 to -inf.  Computed here from digamma
    alone, independently of the package's numerical transform.
    """

    def beta(a):
        return 0.5 * (special.digamma(0.5 * (a + 1.0)) - special.digamma(0.5 * a))

    return optimize.brentq(
        lambda theta: 1.0 - theta * (beta(0.25 - theta) + beta(0.75 - theta)),
        0.0,
        0.25 - 1e-12,
        xtol=1e-15,
        rtol=1e-15,
    )


def test_c03b_iia_exponent_d1_published_band():
    # The d=1 Monte Carlo exponent is checked against the IIA pole of the
    # compound T = T_1 + ... + T_nu, computed above from the closed-form
    # Laplace transform of E0 (0.120328, agreeing with the IIA value 0.1203
    # of Majumdar, Sire, Bray & Cornell, PRL 77, 2867, 1996).  The band
    # half-width is the published 0.0012 plus the same desk-scale widening
    # as the d=2 band (+-0.011).  The bundled reference 0.1360 +- 0.0012 is
    # reproduced only by the faulty circulated d=1 inverse (sampling with it
    # gives 0.1367 +- 0.0016); the band excludes it, so a return of that
    # inverse fails here.
    pole = _iia_pole_diffusion_d1()
    est = ex.tail_exponent_ci(_excursion_sampler(ex.Diffusion(d=1), 10000), 100000, 10000, 10, ex.RngStream(42, 1100))
    lo, hi = pole - 0.0012 - 0.011, pole + 0.0012 + 0.011
    ok = lo <= est.theta <= hi
    _criterion(
        "3b",
        f"exceedance exponent for d=1 in [{lo:.4f}, {hi:.4f}] (IIA pole {pole:.5f} from the closed-form Laplace transform)",
        ok,
        f"theta={est.theta:.4f} +- {est.half_width:.4f}; Majumdar et al. 1996 IIA value 0.1203; "
        "bundled 0.1360 +- 0.0012 is an artifact of the faulty circulated d=1 inverse (see README)",
    )


def test_c04_matern_exponent():
    est = ex.tail_exponent_ci(_excursion_sampler(ex.MaternHalfInteger(nu=2.5), 10000), 100000, 10000, 10, ex.RngStream(42, 1300))
    ok = 0.209 <= est.theta <= 0.229
    _criterion(4, "Matern nu=5/2 exceedance exponent in [0.209, 0.229]", ok, f"theta={est.theta:.4f} +- {est.half_width:.4f} (published 0.2188 +- 0.0011)")


def test_c05_mean_conservation_all_valid_models():
    models = [ex.Diffusion(d=d) for d in range(1, 6)] + [
        ex.RandomAcceleration(),
        ex.ShiftedGaussian(alpha=0.0),
        ex.MaternHalfInteger(nu=2.5),
        ex.MaternHalfInteger(nu=3.5),
        ex.MaternHalfInteger(nu=4.5),
        ex.GeneralizedLaplace(alpha=1.0),
    ]
    ok = True
    worst = ""
    for i, model in enumerate(models):
        mu = ex.mean_excursion(model)
        vals, _ = ex.sample_excursions(model, ex.RngStream(42, 2000 + i), 10**6)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        z = (vals.mean() - mu) / se
        mean_ok = abs(z) <= 3.0
        quad_ok = abs(ex.laplace_e0(model, 0.0) - mu / 2.0) <= 1e-6 * (mu / 2.0)
        if not (mean_ok and quad_ok):
            worst += f" {model.spec_string()}(z={z:.2f},quad={quad_ok})"
        ok = ok and mean_ok and quad_ok
    _criterion(5, "mean of 1e6 compound draws = mu within 3 SE; quadrature of E0 = mu/2 within 1e-6", ok, worst or "11 models checked")


def test_c06_exponential_closure_oracle():
    vals, _ = ex.sample_excursions(ex.exponential_switching(1.0), ex.RngStream(9, 0), 10**6)
    ks = stats.kstest(vals, lambda x: -np.expm1(-0.5 * np.asarray(x)))
    ev = LaplaceEvaluator.for_survival(lambda t: np.exp(-np.asarray(t, dtype=float)), tail_kind="exponential")
    theta = ev.find_pole().theta
    ok = ks.pvalue > 0.01 and abs(theta - 0.5) <= 1e-8
    _criterion(6, "Exp(1) divisor: compound KS vs Exp(1/2) at 1% and analytic pole 0.5 +- 1e-8", ok, f"KS p={ks.pvalue:.3f}, pole={theta:.10f}")


def test_c07_round_trip_samplers():
    u = np.linspace(1e-6, 1 - 1e-6, 10001)
    checks = []
    t = apply_inverse(_diffusion_d1_from_u, u)
    checks.append(("diffusion d=1 (corrected inverse)", np.abs(np.asarray(ex.e0(ex.Diffusion(d=1), t)) - u).max(), 1e-9))
    t = apply_inverse(_diffusion_d2_from_u, u)
    checks.append(("diffusion d=2", np.abs(np.asarray(ex.e0(ex.Diffusion(d=2), t)) - u).max(), 1e-9))
    t = np.maximum(np.log1p(3.0 / (u * u)) - 2 * math.log(2), 0.0)
    checks.append(("random acceleration (corrected inverse)", np.abs(np.asarray(ex.e0(ex.RandomAcceleration(), t)) - u).max(), 1e-9))
    for d in (3, 5, 10):
        g = u[u < 1 - 1e-9] ** 2
        back = np.asarray(g_forward(d, g_inverse(d, g)))
        checks.append((f"g_inverse d={d}", np.abs(back - g).max(), 1e-9))
    for nu in (2.5, 3.5, 4.5):
        uu = ex.RngStream(3, int(nu * 10)).uniform01(10000)
        t = ex.DivisorSampler(ex.MaternHalfInteger(nu=nu)).draw(ex.RngStream(3, int(nu * 10)), 10000)
        checks.append((f"matern nu={nu} (inverse table)", np.abs(np.asarray(ex.e0(ex.MaternHalfInteger(nu=nu), t)) - uu).max(), 1e-8))
    uu = ex.RngStream(4, 2).uniform01(10000)
    t = ex.DivisorSampler(ex.GeneralizedLaplace(alpha=1.0)).draw(ex.RngStream(4, 2), 10000)
    checks.append(("inverse table (generalized Laplace)", np.abs(np.asarray(ex.e0(ex.GeneralizedLaplace(alpha=1.0), t)) - uu).max(), 1e-8))
    ok = all(err <= tol for _, err, tol in checks)
    detail = "; ".join(f"{name}: {err:.2e}" for name, err, _ in checks)
    _criterion(7, "survival round trips within tolerance for every inverse sampler", ok, detail)


def test_c08_switch_process_cross_check():
    dist = ex.exponential_switching(1.0)
    grid = np.array([0.5, 1.0, 2.0])
    e_hat, e_se = switching.estimate_expectation(dist, grid, 10**5, ex.RngStream(21, 0))
    e_ok = all(abs(e - math.exp(-2 * t)) <= 3 * s for t, e, s in zip(grid, e_hat, e_se))
    _, _, r_hat, r_se = switching.estimate_stationary_covariance(dist, grid, 10**5, ex.RngStream(22, 0))
    r_ok = all(abs(r - math.exp(-2 * t)) <= 3 * s for t, r, s in zip(grid, r_hat, r_se))
    ab = dist.size_biased_draw(ex.RngStream(24, 0), 10**5)
    ks = stats.kstest(ab, stats.gamma(a=2).cdf)
    ok = e_ok and r_ok and ks.pvalue > 0.01
    _criterion(8, "Exp(1) switching: E(t) and stationary covariance match e^{-2t}; A+B is Gamma(2,1)", ok, f"KS p={ks.pvalue:.3f}")


def test_c09_equivalence_identity_all_models():
    grid = np.arange(0.1, 10.0 + 1e-9, 0.01)
    models = [
        ex.Diffusion(d=2),
        ex.RandomAcceleration(),
        ex.ShiftedGaussian(alpha=0.0),
        ex.ShiftedGaussian(alpha=2.0),
        ex.MaternHalfInteger(nu=2.5),
        ex.GeneralizedLaplace(alpha=1.0),
    ]
    # d/dt (2/pi) arcsin r = -(2/mu) E0 in integral form: the clipped
    # covariance against 1 - (2/mu) int_0^t E0 by the transform's quadrature
    devs = {}
    for m in models:
        cov = ex.covariance_from_expectation(lambda t: ex.e0(m, t), ex.mean_excursion(m), grid)[:, 1]
        devs[m.spec_string()] = float(np.abs(cov - ex.clipped_autocovariance(m, grid)).max())
    ok = all(v <= 1e-12 for v in devs.values())
    _criterion(9, "clipped covariance equals 1 - (2/mu) int_0^t E0 within 1e-12 on the grid", ok, "; ".join(f"{k}: {v:.2e}" for k, v in devs.items()))


def test_c10_validity_gate(capsys):
    rep_osc = ex.validate_iia(ex.ShiftedGaussian(alpha=2.0))
    rep_pow = ex.validate_iia(ex.GeneralizedLaplace(alpha=1.0))
    code = cli_main(["sample", "--model", "shifted_gaussian(alpha=2)", "--what", "excursion", "--n", "10"])
    capsys.readouterr()
    ok = rep_osc.verdict == "invalid_oscillating" and rep_pow.verdict == "valid_but_power_tail_warning" and code == 2
    with capsys.disabled():
        _criterion(10, "oscillating model rejected, power tail warned, sampling exits 2", ok, f"verdicts: {rep_osc.verdict}, {rep_pow.verdict}; exit={code}")
