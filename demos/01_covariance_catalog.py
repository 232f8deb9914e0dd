"""Tour of the covariance catalog.

Evaluates each built-in autocovariance, its derivative and the clipped
(sign-process) autocovariance on a small grid, and prints the crossing
statistics that set the time scale of everything else: the mean excursion
length mu = pi / sqrt(-r''(0)) and the zero-crossing intensity 1/mu.
"""

import numpy as np

import excursia as ex

models = [
    ex.Diffusion(d=2),
    ex.RandomAcceleration(),
    ex.ShiftedGaussian(alpha=0.0),
    ex.ShiftedGaussian(alpha=2.0),
    ex.MaternHalfInteger(nu=2.5),
    ex.GeneralizedLaplace(alpha=1.0),
]

print(f"{'model':32s} {'dr(0)':>8s} {'d2r(0)':>8s} {'mu':>8s} {'lambda':>8s}")
for m in models:
    print(
        f"{m.spec_string():32s} {float(m.dr(0.0)):8.4f} "
        f"{m.d2r0():8.4f} {ex.mean_excursion(m):8.4f} "
        f"{ex.crossing_intensity(m):8.4f}"
    )

print("\ncovariance and clipped covariance for diffusion(d=2):")
ts = np.array([0.0, 0.5, 1.0, 2.0, 2 * np.arccosh(2.0), 5.0])
m = ex.Diffusion(d=2)
for t in ts:
    print(f"  t={t:7.4f}  r={float(m.r(t)):+.6f}  (2/pi) arcsin r = {float(ex.clipped_autocovariance(m, t)):+.6f}")

print("\nat t = 2 arccosh(2) the covariance is exactly 1/2 and the clipped one 1/3.")
