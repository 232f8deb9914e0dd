"""When is the exceedance-time construction a proper distribution?

The divisor survival E0(t) = -r'(t) / (sqrt(-r''(0)) sqrt(1 - r^2(t)))
must be nonnegative and nonincreasing.  This demo prints the validity
report for a few models: the oscillating shifted-Gaussian covariance is
rejected, even at alpha = 0.2, where E0 dips below 0 only by about 1e-15
(a non-monotone covariance fails, however small the dip); the power-tail
covariance is accepted with a warning (its implied exceedance tail decays
polynomially, which cannot match the true process), and everything else
is cleanly exponential or faster.
"""

import numpy as np

import excursia as ex

for m in [
    ex.Diffusion(d=2),
    ex.RandomAcceleration(),
    ex.ShiftedGaussian(alpha=0.0),
    ex.ShiftedGaussian(alpha=0.2),
    ex.ShiftedGaussian(alpha=2.0),
    ex.MaternHalfInteger(nu=2.5),
    ex.GeneralizedLaplace(alpha=1.0),
]:
    rep = ex.validate_iia(m)
    tail = {k: v for k, v in rep.as_dict().items() if k.startswith("tail_") and v is not None} or "unclassified"
    print(f"{m.spec_string():32s} verdict={rep.verdict:30s} tail={tail}")
    if rep.first_violation_t is not None:
        low = np.min(ex.e0(m, np.arange(0.0, rep.t_max, rep.step)))
        print(f"{'':32s} first violation at t = {rep.first_violation_t:.2f}, lowest E0 on the grid = {low:.2g}")

print("\ndivisor survival E0 for diffusion(d=2) (equals sech(t/2)):")
m = ex.Diffusion(d=2)
for t in [0.0, 1.0, 2 * np.arccosh(2.0), 5.0, 10.0]:
    print(f"  E0({t:7.4f}) = {float(ex.e0(m, t)):.8f}")

# the identity behind the whole construction: the derivative of the clipped
# autocovariance R_cl is -(2/mu) E0, checked here in integral form,
# R_cl(t) = 1 - (2/mu) int_0^t E0, by quadrature, from t = 1e-6, where
# both sides are 1 less a term of order t
grid = np.concatenate([[1e-6, 1e-4, 1e-2], np.arange(0.1, 10.0, 0.01)])
print("\nmax |R_cl(t) - 1 + (2/mu) int_0^t E0| on [1e-6, 10]:")
for m in [ex.Diffusion(d=2), ex.ShiftedGaussian(alpha=2.0)]:
    cov = ex.covariance_from_expectation(lambda t: ex.e0(m, t), ex.mean_excursion(m), grid)[:, 1]
    print(f"  {m.spec_string():28s} {np.abs(cov - ex.clipped_autocovariance(m, grid)).max():.3e}")
print("(the identity holds even for models the validity gate rejects)")
