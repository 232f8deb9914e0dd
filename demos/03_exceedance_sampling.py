"""Sampling the approximated exceedance time.

The exceedance time is a geometric compound: T = sum of nu divisor draws
with nu ~ Geometric(1/2).  Divisor draws invert the survival E0 exactly,
so the empirical law can be checked against analytic targets: the mean
must equal the mean excursion length mu, and with an Exp(1) divisor the
compound law is exactly Exp(1/2).
"""

import math

import numpy as np

import excursia as ex


def ks_scaled(samples, cdf):
    """sqrt(n) times the Kolmogorov-Smirnov distance of the samples from cdf;
    above 1.63 the fit is rejected at the 1% level."""
    x = np.sort(samples)
    f, n = cdf(x), x.size
    return math.sqrt(n) * max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


n = 200_000
rng = ex.RngStream(seed=7, stream_index=0)

model = ex.Diffusion(d=2)
values, counts = ex.sample_excursions(model, rng, n)
mu = ex.mean_excursion(model)
print(f"diffusion(d=2): mean T = {values.mean():.4f}  (mu = {mu:.4f}), mean count = {counts.mean():.3f}")

# round trip of the underlying inverse sampler
u = np.linspace(1e-6, 1 - 1e-6, 10001)
t = 2 * (np.log1p(np.sqrt((1 - u) * (1 + u))) - np.log(u))
print(f"closed-form round trip |E0(T(U)) - U|: {np.abs(np.asarray(ex.e0(model, t)) - u).max():.2e}")

# divisor draws against the analytic CDF 1 - E0
draws = ex.sample_divisor(model, ex.RngStream(7, 1), 100_000)
ks = ks_scaled(draws, lambda x: 1.0 - np.asarray(ex.e0(model, x)))
print(f"KS of 1e5 divisor draws vs 1 - E0: sqrt(n) D = {ks:.3f} (1% critical value 1.63)")

# an Exp(1) divisor (the Exp(1) switching law) closes the loop analytically
vals, _ = ex.sample_excursions(ex.exponential_switching(1.0), ex.RngStream(7, 2), n)
ks = ks_scaled(vals, lambda x: -np.expm1(-0.5 * x))
print(f"Exp(1) divisor -> compound vs Exp(1/2): sqrt(n) D = {ks:.3f} (1% critical value 1.63)")

# the squared-exponential divisor comes from its inverse table, like every
# model without a closed-form inverse: one uniform per draw
sg = ex.ShiftedGaussian(alpha=0.0)
samples = ex.sample_divisor(sg, ex.RngStream(7, 3), 100_000)
ks = ks_scaled(samples, lambda x: 1.0 - np.asarray(ex.e0(sg, x)))
print(
    f"squared-exponential divisor: sqrt(n) D = {ks:.3f} (1% critical value 1.63), "
    f"mean {samples.mean():.4f} vs pi/2 = {math.pi/2:.4f}"
)
