"""Persistency exponents two ways, against published references.

Method 1 (pole): the largest negative real root of 1 + s L E0(s) = 0,
where L E0 is the numerical Laplace transform of the divisor survival.
Method 2 (tail regression): OLS slope of the log empirical survival over
the largest order statistics of compound samples.  It reads only the k
largest, so only the compounds that can reach them are summed.

The two routes are independent implementations and should agree up to
Monte Carlo error.  Published reference values are printed alongside;
they are compiled constants, never computed here.
"""

import numpy as np

import excursia as ex
from excursia.reference import reference_for

n, k, reps = 100_000, 10_000, 10

for spec in ["diffusion(d=2)", "random_acceleration", "shifted_gaussian(alpha=0)", "matern(nu=2.5)"]:
    model = ex.parse_model_spec(spec)
    pole = ex.find_pole(model)
    sampler = ex.DivisorSampler(model)
    mc = ex.tail_exponent_ci(
        lambda st, m: ex.excursion_largest(sampler, st, m, k), n, k, reps, ex.RngStream(42, 0)
    )
    ref = reference_for(model)
    print(f"{spec}:")
    print(f"  pole            theta = {pole.theta:.4f}   (residual {pole.residual:.1e})")
    print(f"  tail regression theta = {mc.theta:.4f} +- {mc.half_width:.4f}   (n={n}, k={k}, reps={reps})")
    if ref:
        print(f"  published       {ref}")

# the divisor itself has an exactly known rate for diffusions: d/4
print("\ndivisor tail rates (exact d/4):")
for d in (1, 2, 3):
    sampler = ex.DivisorSampler(ex.Diffusion(d=d))
    draws = sampler.draw(ex.RngStream(1, d), 100_000)
    theta, _ = ex.tail_exponent(draws, 10_000)
    print(f"  d={d}: estimated {theta:.4f}, exact {d/4:.4f}")
