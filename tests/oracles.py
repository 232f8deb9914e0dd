"""Independent reference implementations the tests compare the library with.

No library path calls these; each is a second construction of a quantity
the library computes another way, kept here so a test can check one
against the other.

* ``poly_inverse_b``, ``g_forward``, ``g_inverse``: the recursive-minimum
  construction of the diffusion divisor for d >= 3,
  T_d = min(T_{d-1}, G_d^{-1}(U^2)) with d - 1 uniforms per draw, an
  oracle for the inverse-table draws.
* ``diffusion_d1_inverse_oracle``, ``diffusion_d2_inverse_oracle``,
  ``random_acceleration_inverse_oracle`` and ``table_inverse_oracle``:
  the divisor inverses as plain whole-array expressions, the table's
  piece found by binary search (``plain_spline``), an oracle for the
  samplers' chunked inverses.
* ``gaussian_divisor_density``: the closed-form density of the
  squared-exponential divisor, -dE0/dt of shifted_gaussian(alpha=0).
* ``survival_inverse_oracle``: E0^{-1}(u) by root bracketing on E0
  itself, an oracle for the closed-form and table inverses.
* ``g17_rows_oracle``: the CLI's text rows formatted one value at a
  time with Python's ``format``, an oracle for the array-arithmetic
  formatter.
* ``student_t_quantile_oracle``: the Student-t quantile to 40 digits
  from the regularized incomplete beta function, an oracle for the
  finite trigonometric sum.
* ``tail_exponent_sort_oracle``: the tail regression on a full sort of
  the samples, an oracle for the partial selection of the k largest.
* ``excursion_multiset_loop_oracle``: the multiset compound draw with
  the same binomial and ``draw`` calls, each level added one compound at
  a time in a Python loop, an oracle for the level sums;
  ``sample_excursions_block_oracle`` shuffles one such multiset per block,
  an oracle for the ordered compound draw.
* ``size_biased_compound_count_oracle``: the size-biased compound with
  per-compound counts, N* = N_1 + N_2 - 1 from the float exponents of two
  uniforms and the N* - 1 further draws summed per compound, an oracle for
  the draw that keeps each of two compounds with probability 1/2.
* ``empirical_survival``: the empirical survival of samples and its
  binomial standard error, read from one sort, which the tail-bound
  tests read the compound draws with; ``empirical_survival_mean_oracle``
  is the survival as one mean over the samples per tau, an oracle for it.
* ``log_cosh_oracle``, ``r_oracle``, ``dr_oracle``,
  ``one_minus_r2_oracle`` and ``e0_oracle``: r(t), r'(t) and 1 - r(t)^2 of
  each covariance family as three separate expressions, each forming the
  factor they share on its own, and E0 from them, an oracle for the
  models' ``r_terms``;
  ``size_biased_survival_oracle`` is S* from E0, r and 1 - r^2 each
  evaluated on its own, an oracle for the size-biased survival and the
  table build, which evaluate them together.
* ``switch_expectation_loop_oracle`` and ``switch_covariance_loop_oracle``:
  the two switch estimators as separate per-time loops over a path-state
  function, the origin and stationary starts drawn on their own and each
  path's instants kept as a Python list from the same per-round draws, its
  flips counted one path at a time, an oracle for the one ensemble
  generator both estimators read.
"""

import math

import mpmath
import numpy as np
from scipy import optimize

import excursia as ex
from excursia.covariance import (
    CovarianceModel,
    Diffusion,
    GeneralizedLaplace,
    MaternHalfInteger,
    RandomAcceleration,
    ShiftedGaussian,
    _MATERN_POLY_LOWER,
    _log_cosh,
)
from excursia.samplers import DivisorSampler, _inverse_table


def poly_inverse_b(d: int, a, tol: float = 1e-12):
    """Invert a(b) = 1 + b + ... + b^(d-1) on b >= 0 for a >= 1.

    Newton iteration from b0 = (a - 1)/(d - 1); the polynomial is convex
    and increasing, so a bracket [0, max(1, a^(1/(d-1)))] safeguards every
    step.  Terminates with |a(b) - a| <= tol * a.
    """
    if d < 3:
        raise ValueError("poly_inverse_b is defined for d >= 3")
    scalar = np.ndim(a) == 0
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if np.any(a < 1.0):
        raise ValueError("polynomial inverse requires a >= 1")
    coef = np.ones(d)
    dcoef = np.arange(d - 1, 0, -1, dtype=float)
    lo = np.zeros_like(a)
    hi = np.maximum(1.0, a ** (1.0 / (d - 1)))
    # clamp the start into the bracket: the plain starting point overshoots
    # badly for a >> d, where the root is just above a^(1/(d-1))
    b = np.minimum((a - 1.0) / (d - 1.0), hi)
    remaining = np.arange(a.size)
    for _ in range(200):
        if remaining.size == 0:
            break
        bb = b[remaining]
        f = np.polyval(coef, bb) - a[remaining]
        done = np.abs(f) <= tol * a[remaining]
        idx = remaining[~done]
        remaining = idx
        if idx.size == 0:
            break
        bb = b[idx]
        f = f[~done]
        pos = f > 0
        hi[idx[pos]] = bb[pos]
        lo[idx[~pos]] = bb[~pos]
        step = bb - f / np.polyval(dcoef, bb)
        bad = ~np.isfinite(step) | (step <= lo[idx]) | (step >= hi[idx])
        step[bad] = 0.5 * (lo[idx[bad]] + hi[idx[bad]])
        b[idx] = step
    return float(b[0]) if scalar else b


def g_forward(d: int, t):
    """The survival factor linking consecutive diffusion dimensions:
    G_d(t) = d (cosh^(d-1)(t/2) - 1) / ((d-1)(cosh^d(t/2) - 1))."""
    if d < 3:
        raise ValueError("g_forward is defined for d >= 3")
    t = np.asarray(t, dtype=float)
    lc = _log_cosh(0.5 * t)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = d * np.expm1((d - 1) * lc) / ((d - 1) * np.expm1(d * lc))
    return np.where(t == 0.0, 1.0, val)


def g_inverse(d: int, g):
    """Inverse of ``g_forward`` on (0, 1): with a = d/(d - g(d-1)) and
    b the polynomial inverse, t = 2 arccosh(1/b)."""
    if d < 3:
        raise ValueError("g_inverse is defined for d >= 3")
    scalar = np.ndim(g) == 0
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if np.any((g <= 0.0) | (g >= 1.0)):
        raise ValueError("g must lie strictly inside (0, 1)")
    a = d / (d - g * (d - 1))
    b = poly_inverse_b(d, a)
    # g small enough that a rounds to 1 gives b = 0: the survival inverse
    # there is +inf, which the recursive minimum absorbs harmlessly
    with np.errstate(divide="ignore"):
        t = 2.0 * np.arccosh(1.0 / b)
    return float(t[0]) if scalar else t


def diffusion_d1_inverse_oracle(u):
    """E0^{-1}(u) of diffusion d = 1: 2 arccosh(1/y) with
    y = 4 u^2 / (sqrt(8 u^2 + 1) + 1)."""
    uu = u * u
    return 2.0 * np.arccosh(1.0 / (4.0 * uu / (np.sqrt(8.0 * uu + 1.0) + 1.0)))


def diffusion_d2_inverse_oracle(u):
    """E0^{-1}(u) of diffusion d = 2: 2 ln((1 + sqrt(1 - u^2))/u)."""
    return 2.0 * (np.log1p(np.sqrt((1.0 - u) * (1.0 + u))) - np.log(u))


def random_acceleration_inverse_oracle(u):
    """E0^{-1}(u) of random acceleration: ln(3/u^2 + 1) - 2 ln 2, at least 0."""
    return np.maximum(np.log1p(3.0 / (u * u)) - 2.0 * math.log(2.0), 0.0)


def plain_spline(x, c, z):
    """The piecewise cubic with coefficients c at z, its piece found by a
    binary search: the reference for the guided evaluation."""
    i = np.clip(np.searchsorted(x, z, "right") - 1, 0, x.size - 2)
    d = z - x[i]
    d2 = d * d
    return c[3][i] + c[2][i] * d + c[1][i] * d2 + c[0][i] * (d2 * d)


def table_inverse_oracle(law, model, u):
    """The inverse of the law's survival at u, from the cached inverse table
    of (law, model), evaluated by ``plain_spline`` on the whole array at
    once."""
    table = _inverse_table(law, model)
    return np.maximum(np.expm1(plain_spline(table.x, table.c, np.sqrt(-np.log(u)))), 0.0)


def gaussian_divisor_density(t):
    """Density of the squared-exponential divisor, -dE0/dt of
    shifted_gaussian(alpha=0),
    f(t) = (e^{t^2}(t^2 - 1) + 1) / (e^{t^2} - 1)^{3/2},
    evaluated in cancellation-free branches for small and large t."""
    t = np.asarray(t, dtype=float)
    tt = t * t
    small = tt < 35.0
    tts = np.where(small, tt, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        f_small = (tts * np.exp(tts) - np.expm1(tts)) / np.expm1(tts) ** 1.5
        f_large = ((tt - 1.0) * np.exp(-0.5 * tt) + np.exp(-1.5 * tt)) / (-np.expm1(-tt)) ** 1.5
    out = np.where(small, f_small, f_large)
    return np.where(tt == 0.0, 0.0, out)


def survival_inverse_oracle(model, u, hi0=1.0):
    """Independent root-bracketing inverse of the survival, via brentq."""
    hi = hi0
    while float(np.asarray(ex.e0(model, hi))) >= u:
        hi *= 2.0
    return optimize.brentq(lambda t: float(np.asarray(ex.e0(model, t))) - u, 0.0, hi, xtol=1e-14)


def g17_rows_oracle(rows) -> str:
    """Rows of values as comma-separated lines, one formatting call per
    value: ``format(float(x), ".17g")`` for floats, ``str(x)`` otherwise."""

    def g17(x) -> str:
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        return str(x)

    return "".join(",".join(g17(x) for x in row) + "\n" for row in rows)


def student_t_quantile_oracle(nu: int, p: float, start: float) -> float:
    """The p-quantile of Student's t with nu degrees of freedom at 40
    digits, for p > 1/2: the root of 1 - I_x(nu/2, 1/2)/2 = p with
    x = nu/(nu + t^2), from ``start``."""
    with mpmath.workdps(40):
        half_nu, p = mpmath.mpf(nu) / 2, mpmath.mpf(p)

        def gap(t):
            x = half_nu / (half_nu + t * t / 2)
            return 1 - mpmath.betainc(half_nu, 0.5, 0, x, regularized=True) / 2 - p

        return float(mpmath.findroot(gap, mpmath.mpf(start)))


def tail_exponent_sort_oracle(samples, k: int) -> tuple[float, float]:
    """``tail_exponent`` with a full sort of the samples in place of the
    partial selection of the k largest."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    tail = x[n - k :]
    i = np.arange(n - k + 1, n + 1, dtype=float)
    y = np.log((n - i + 0.5) / n)
    xm = tail - tail.mean()
    slope = float(np.dot(xm, y) / np.dot(xm, xm))
    intercept = float(y.mean() - slope * tail.mean())
    return -slope, intercept


def excursion_multiset_loop_oracle(source, rng, n: int):
    """``excursion_multiset`` one compound at a time: the same binomial
    level sizes and the same ``draw`` call per level, each level's draws
    added to its compounds in a Python loop."""
    src = DivisorSampler(source) if isinstance(source, CovarianceModel) else source
    levels = [n]
    while levels[-1] > 0:
        levels.append(int(rng.gen.binomial(levels[-1], 0.5)))
    values = [float(x) for x in src.draw(rng, n)]
    for g in levels[1:-1]:
        for i, x in enumerate(src.draw(rng, g)):
            values[i] = values[i] + float(x)
    return np.array(values, dtype=float), levels


def sample_excursions_block_oracle(source, rng, n: int, block: int):
    """``sample_excursions`` with ``excursion_multiset_loop_oracle`` per
    block of ``block`` compounds, each block shuffled by ``rng.gen.shuffle``,
    and the blocks' level sizes summed."""
    src = DivisorSampler(source) if isinstance(source, CovarianceModel) else source
    values, levels = [], [0]
    for lo in range(0, n, block):
        part, sizes = excursion_multiset_loop_oracle(src, rng, min(block, n - lo))
        rng.gen.shuffle(part)
        values.extend(part)
        levels += [0] * (len(sizes) - len(levels))
        for j, g in enumerate(sizes):
            levels[j] += g
    return np.array(values, dtype=float), levels


def size_biased_compound_count_oracle(model, rng, n: int):
    """n size-biased compounds X* + X_2 + ... + X_{N*}: the size-biased
    divisor X*, then N* = N_1 + N_2 - 1 with each Geometric(1/2) count k
    read from the float exponent of one uniform (u in [2^-k, 2^-(k-1))),
    then the N* - 1 further divisor draws in one call, summed per compound."""
    sampler = DivisorSampler(model)
    head = sampler.size_biased_draw(rng, n)
    extra = sum(np.maximum(1 - np.frexp(rng.uniform01(n))[1], 1) for _ in range(2)) - 2
    rest = sampler.draw(rng, int(extra.sum()))
    return head + np.bincount(np.repeat(np.arange(n), extra), weights=rest, minlength=n)


def empirical_survival(samples, taus) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival p = P(X > tau) of the samples (no NaN) at each
    tau and its binomial standard error sqrt(max(p(1 - p), 1/n)/n); the
    floor keeps the SE positive where no sample (or every sample) exceeds
    tau.  The counts above every tau come from one sort of the samples."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    p = (n - np.searchsorted(samples, taus, "right")) / n
    return p, np.sqrt(np.maximum(p * (1.0 - p), 1.0 / n) / n)


def empirical_survival_mean_oracle(samples, taus) -> np.ndarray:
    """P(X > tau) of the samples as one mean per tau."""
    samples = np.asarray(samples, dtype=float)
    return np.array([np.mean(samples > tau) for tau in taus], dtype=float)


def log_cosh_oracle(x):
    """log(cosh(x)) as log1p(2 sinh(x/2)^2) below x = 350 and x - log 2 above."""
    x = np.abs(x)
    small = x < 350.0
    with np.errstate(over="ignore"):
        sh = np.sinh(np.where(small, 0.5 * x, 0.0))
    return np.where(small, np.log1p(2.0 * sh * sh), x - math.log(2.0))


def r_oracle(model, t):
    """r(t) of a catalog model, on its own."""
    t = np.asarray(t, dtype=float)
    if isinstance(model, Diffusion):
        return np.exp(-0.5 * model.d * log_cosh_oracle(0.5 * t))
    if isinstance(model, RandomAcceleration):
        return 0.5 * (3.0 - np.exp(-t)) * np.exp(-0.5 * t)
    if isinstance(model, ShiftedGaussian):
        return np.cos(model.alpha * t) * np.exp(-0.5 * t * t)
    if isinstance(model, MaternHalfInteger):
        return np.exp(-t) * np.polyval(model._poly, np.minimum(t, 1e3)) / model._c
    if isinstance(model, GeneralizedLaplace):
        lp = np.where(t >= 1e150, 2.0 * np.log(np.maximum(t, 1.0)) - math.log(2.0), np.log1p(0.5 * t * t))
        return np.exp(-model.alpha * lp)
    raise TypeError(f"no r oracle for {model!r}")


def dr_oracle(model, t):
    """r'(t) of a catalog model, on its own."""
    t = np.asarray(t, dtype=float)
    if isinstance(model, Diffusion):
        r = np.exp(-0.5 * model.d * log_cosh_oracle(0.5 * t))
        return -0.25 * model.d * np.tanh(0.5 * t) * r
    if isinstance(model, RandomAcceleration):
        return 0.75 * np.exp(-0.5 * t) * np.expm1(-t)
    if isinstance(model, ShiftedGaussian):
        a = model.alpha
        return -(a * np.sin(a * t) + t * np.cos(a * t)) * np.exp(-0.5 * t * t)
    if isinstance(model, MaternHalfInteger):
        # e^{-t} is 0 above t ~ 745.2: the polynomial is taken at min(t, 1e3)
        return -t * np.exp(-t) * np.polyval(_MATERN_POLY_LOWER[model.nu], np.minimum(t, 1e3)) / model._c
    if isinstance(model, GeneralizedLaplace):
        # from t = 1e150 on, from log t: log1p(t^2/2) = 2 log t - log 2; there
        # and wherever e^{-(alpha+1) lp} is below the normal doubles, r' is
        # -alpha e^{log t - (alpha+1) lp}
        far = t >= 1e150
        lp = np.where(far, 2.0 * np.log(np.where(far, t, 1.0)) - math.log(2.0), np.log1p(0.5 * t * t))
        deep = far | (np.exp(-(model.alpha + 1.0) * lp) < np.finfo(float).tiny)
        log_t = np.log(np.where(deep, np.abs(t), 1.0))
        near = -model.alpha * t * np.exp(-(model.alpha + 1.0) * lp)
        return np.where(deep, -model.alpha * np.copysign(np.exp(log_t - (model.alpha + 1.0) * lp), t), near)
    raise TypeError(f"no r' oracle for {model!r}")


def one_minus_r2_oracle(model, t):
    """1 - r(t)^2 of a catalog model, on its own."""
    t = np.asarray(t, dtype=float)
    if isinstance(model, Diffusion):
        return -np.expm1(-model.d * log_cosh_oracle(0.5 * t))
    if isinstance(model, RandomAcceleration):
        x = np.exp(-t)
        m = -np.expm1(-t)
        return 0.25 * m * m * (4.0 - x)
    if isinstance(model, ShiftedGaussian):
        tt = t * t
        s = np.sin(model.alpha * t)
        return -np.expm1(-tt) + np.exp(-tt) * s * s
    if isinstance(model, MaternHalfInteger):
        r = np.exp(-t) * np.polyval(model._poly, np.minimum(t, 1e3)) / model._c
        far = t > 700.0
        near = np.exp(-t) * model._c_exp_minus_poly(np.where(far, 0.0, t)) / model._c
        return np.where(far, 1.0 - r, near) * (1.0 + r)
    if isinstance(model, GeneralizedLaplace):
        lp = np.where(t >= 1e150, 2.0 * np.log(np.maximum(t, 1.0)) - math.log(2.0), np.log1p(0.5 * t * t))
        return -np.expm1(-2.0 * model.alpha * lp)
    raise TypeError(f"no 1 - r^2 oracle for {model!r}")


def e0_oracle(model, t):
    """E0(t) = -r'(t) / (sqrt(-r''(0)) sqrt(1 - r(t)^2)); 1 where 1 - r(t)^2
    is below the smallest normal double (t = 0 and where it underflows), 0
    at infinite t."""
    t = np.asarray(t, dtype=float)
    scale = 1.0 / math.sqrt(-model.d2r0)
    one_minus_r2 = one_minus_r2_oracle(model, t)
    val = -scale * dr_oracle(model, t) / np.sqrt(one_minus_r2)
    return np.where(one_minus_r2 < np.finfo(float).tiny, 1.0, np.where(np.isinf(t), 0.0, val))


def size_biased_survival_oracle(model, t):
    """S*(t) = 2 t E0(t)/mu + (2/pi) arcsin r(t), the arcsin formed as
    1 - (2/pi) arcsin sqrt(1 - r^2) where r > 1/2; E0, r and 1 - r^2 each
    evaluated on its own."""
    t = np.asarray(t, dtype=float)
    bias = 2.0 * t * ex.e0(model, t) / ex.mean_excursion(model)
    r = model.r(t)
    near = (2.0 / math.pi) * np.arcsin(np.sqrt(np.minimum(one_minus_r2_oracle(model, t), 1.0)))
    return np.where(r > 0.5, 1.0 - (near - bias), bias + (2.0 / math.pi) * np.arcsin(r))


def _switch_instants(dist, n, beyond, rng):
    """Each path's switch instants as a Python list: one ``dist.draw(rng, n)``
    per round, its i-th value added to path i's running sum, until every
    sum is past ``beyond``."""
    instants, ends = [[] for _ in range(n)], [0.0] * n
    while min(ends) <= beyond:
        for i, x in enumerate(dist.draw(rng, n)):
            ends[i] = ends[i] + float(x)
            instants[i].append(ends[i])
    return instants


def _switch_states(instants, a, delta, t):
    """Path states at time t, one path at a time: -delta on [0, a), then
    delta, flipped at each instant s with s < t - a."""
    states = []
    for path, a_i, d_i in zip(instants, a, delta):
        flips = sum(1 for s in path if s < float(t) - float(a_i))
        states.append(-d_i if t < a_i else d_i * (-1.0) ** flips)
    return np.array(states, dtype=float)


def switch_expectation_loop_oracle(dist, grid, n, rng):
    """(E_hat, SE) of the origin-attached path (A = 0, delta = +1)."""
    grid = np.asarray(grid, dtype=float)
    instants = _switch_instants(dist, n, float(grid.max()), rng)
    a, delta = np.zeros(n), np.ones(n)
    e_hat = np.empty(grid.size)
    se = np.empty(grid.size)
    for i, t in enumerate(grid):
        states = _switch_states(instants, a, delta, t)
        e_hat[i] = states.mean()
        se[i] = states.std(ddof=1) / math.sqrt(n)
    return e_hat, se


def switch_covariance_loop_oracle(dist, grid, n, rng):
    """(E_hat, E_se, R_hat, R_se) of the stationary path: the size-biased
    interval, A uniform on it and a symmetric sign, drawn in that order."""
    grid = np.asarray(grid, dtype=float)
    s_tot = dist.size_biased_draw(rng, n)
    a = rng.uniform01(n) * s_tot
    delta = np.where(rng.uniform01(n) < 0.5, 1.0, -1.0)
    instants = _switch_instants(dist, n, float(grid.max()), rng)
    s0 = _switch_states(instants, a, delta, 0.0)
    e_hat, e_se, r_hat, r_se = (np.empty(grid.size) for _ in range(4))
    for i, t in enumerate(grid):
        st = _switch_states(instants, a, delta, t)
        e_hat[i] = st.mean()
        e_se[i] = st.std(ddof=1) / math.sqrt(n)
        prod = s0 * st
        r_hat[i] = prod.mean()
        r_se[i] = prod.std(ddof=1) / math.sqrt(n)
    return e_hat, e_se, r_hat, r_se
