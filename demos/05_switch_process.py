"""Switch-process cross-checks of the construction.

An alternating +/-1 renewal path started at a switch has mean
E(t) = e^{-2 lambda t} for Exp(lambda) switching; its stationary version,
started inside a size-biased interval covering the origin, has mean zero
and covariance e^{-2 lambda t}.  The interval covering the origin is the
inspection-paradox law: for Exp(1) switching it is Gamma(2, 1).

These are the same expectation/covariance relations the exceedance
construction matches against the clipped Gaussian process, so simulated
paths cross-check the analytic machinery end to end.
"""

import math

import numpy as np

import excursia as ex
from excursia import switching


def ks_scaled(samples, cdf):
    """sqrt(n) times the Kolmogorov-Smirnov distance of the samples from cdf;
    above 1.63 the fit is rejected at the 1% level."""
    x = np.sort(samples)
    f, n = cdf(x), x.size
    return math.sqrt(n) * max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


dist = ex.exponential_switching(1.0)
grid = np.array([0.25, 0.5, 1.0, 2.0])
n = 100_000

e_hat, e_se = switching.estimate_expectation(dist, grid, n, ex.RngStream(3, 0))
print("origin-attached path, Exp(1) switching (target e^{-2t}):")
for t, e, s in zip(grid, e_hat, e_se):
    print(f"  E({t:4.2f}) = {e:+.4f} +- {s:.4f}   target {math.exp(-2*t):+.4f}")

e_h, e_s, r_h, r_s = switching.estimate_stationary_covariance(dist, grid, n, ex.RngStream(3, 1))
print("stationary path (mean ~ 0, covariance e^{-2t}):")
for t, e, r, s in zip(grid, e_h, r_h, r_s):
    print(f"  mean({t:4.2f}) = {e:+.4f}   R({t:4.2f}) = {r:+.4f} +- {s:.4f}")

ab = dist.size_biased_draw(ex.RngStream(3, 2), n)
ks = ks_scaled(ab, lambda x: -np.expm1(-x) - x * np.exp(-x))
print(f"interval covering the origin: mean {np.mean(ab):.4f} (target 2), "
      f"KS vs Gamma(2,1): sqrt(n) D = {ks:.3f} (1% critical value 1.63)")

# one readable path: unit switching times flip every path at t = 1, 2, 3,
# so the ensemble mean is the path itself; at an instant the state is
# still the pre-switch value
ts = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
states, _ = switching.estimate_expectation(ex.point_mass_switching(1.0), ts, 2, ex.RngStream(3, 3))
print(f"deterministic path at t = {ts.tolist()}: states {states.astype(int).tolist()}")

# transform identities at s = 1 for Exp(1) switching (Psi(s) = 1/(1 + s),
# mean mu = 1): L E(s) = (1/s)(1 - Psi)/(1 + Psi), L R(s) = (2/(s mu))(mu/2 - L E(s))
s, mu = 1.0, 1.0
psi = 1.0 / (1.0 + s)
le = (1.0 - psi) / (s * (1.0 + psi))
print("transform identities for Exp(1) switching at s = 1:")
print(f"  L E(1)  = {le:.6f}  (1/3 since E(t) = e^-2t)")
print(f"  L R(1)  = {2.0 / (s * mu) * (0.5 * mu - le):.6f}  (same covariance)")

# transform side: covariance rebuilt from the divisor survival matches the
# clipped autocovariance of the model exactly
m = ex.Diffusion(d=2)
rows = ex.covariance_from_expectation(lambda u: ex.e0(m, u), ex.mean_excursion(m), np.linspace(0, 8, 9))
err = max(abs(r - float(ex.clipped_autocovariance(m, t))) for t, r in rows)
print(f"covariance rebuilt from E0 vs clipped autocovariance, max err: {err:.2e}")

# simulation side: a stationary switch driven by compound exceedance draws
# reproduces the same clipped autocovariance, closing the loop end to end
dist_x = ex.excursion_switching(m)
lags = np.array([1.0, 2.0, 4.0])
_, _, r_hat, r_se = switching.estimate_stationary_covariance(dist_x, lags, 20_000, ex.RngStream(3, 4))
print("exceedance-driven stationary switch vs (2/pi) arcsin r:")
for t, r, s in zip(lags, r_hat, r_se):
    print(f"  R({t:3.1f}) = {r:+.4f} +- {s:.4f}   target {float(ex.clipped_autocovariance(m, t)):+.4f}")
