"""The benchmark's workloads: CLI command sequences and their output checks.

Each workload is a list of ``Command``s driven in one fresh interpreter
through ``excursia.cli.main``.  Every command writes to ``--output`` and is
checked after it returns, outside the timed region.  A check returns a list
of problems; an empty list means the output is correct.

The checks hold for any seed and any exact sampler: they compare estimates
with published or closed-form values under statistical tolerances, never
byte-level output, because a new sampler may consume uniforms differently.

Why these workloads (each optimisable layer does most of the work in one of
them and little or none in another):

* ``table2``: the paper's headline table.  The recursive-minimum inverter
  for diffusion d >= 3 dominates; the pole column adds Laplace work.
* ``transform``: the transform route alone (pole search for 69 models, two
  gate refusals), no sampling.  Extreme parameter edge at d = 64.
* ``crosscheck``: every sampler but the recursive minimum, compound
  assembly, the switch ensemble and the CLI text write path; no Laplace work.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from excursia import reference


@dataclass(frozen=True)
class Command:
    argv: tuple
    expect_exit: int = 0
    check: Optional[Callable] = None  # (output_text, stdout_text, memo) -> [problem, ...]


# ---------------------------------------------------------------------------
# output parsing


def _csv_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _close(name, value, target, tol) -> list[str]:
    if math.isfinite(value) and abs(value - target) <= tol:
        return []
    return [f"{name}={value:.6g} differs from {target:.6g} by more than {tol:.3g}"]


# ---------------------------------------------------------------------------
# table2


# Relative standard error of a replicated OLS tail slope is about
# TAIL_SE / sqrt(k * reps); 1.5 was measured over 11 seeds at n = 3e4.
TAIL_SE = 1.5
TABLE2_SIGMAS = 6.0


def _check_table2(n: int, reps: int, dmax: int):
    k_div = max(1000, n // 100)  # the CLI defaults
    k_iia = max(2, n // 10)

    def check(out, _stdout, _memo):
        rows = _csv_rows(out)
        problems = [] if [int(r["d"]) for r in rows] == list(range(1, dmax + 1)) else ["table2 rows are not d = 1..dmax"]
        for r in rows:
            d = int(r["d"])
            pole = r["pole_theta"]
            # the Monte Carlo exceedance column must agree with the pole column
            tol = TABLE2_SIGMAS * TAIL_SE / math.sqrt(k_iia * reps) * pole
            problems += _close(f"d={d} iia_theta", r["iia_theta"], pole, tol)
            # finite-sample divisor estimates sit between the published value
            # (1e7 samples, biased low for large d) and the exact rate d/4
            se = TAIL_SE / math.sqrt(k_div * reps) * d / 4.0
            ref = reference.DIFFUSION_REFERENCE[d].divisor
            div = r["divisor_theta"]
            if not ref - TABLE2_SIGMAS * se <= div <= d / 4.0 + TABLE2_SIGMAS * se:
                problems.append(f"d={d} divisor_theta={div:.5g} outside [{ref} - {TABLE2_SIGMAS:g} SE, d/4 + {TABLE2_SIGMAS:g} SE]")
        return problems

    return check


def table2(seed: int) -> list[Command]:
    n, reps, dmax = 30000, 5, 10
    argv = ("reproduce", "table2", "--dmax", str(dmax), "--n", str(n), "--reps", str(reps), "--seed", str(seed))
    return [Command(argv, check=_check_table2(n, reps, dmax))]


# ---------------------------------------------------------------------------
# transform


POLE_TOL = 1e-3  # acceptance c01
POLE_RESIDUAL = 1e-10


def _check_pole(spec: str, diffusion: bool = False):
    def check(out, _stdout, memo):
        res = json.loads(out)
        theta, boundary = res["theta"], res["boundary"]
        problems = []
        if not res["residual"] <= POLE_RESIDUAL:
            problems.append(f"{spec}: pole residual {res['residual']:.3g} > {POLE_RESIDUAL:g}")
        if not 0.0 < theta < -boundary:
            problems.append(f"{spec}: theta={theta:.6g} not inside (0, {-boundary:.6g})")
        if diffusion:
            # the exponent grows with the dimension
            prev = memo.get("diffusion_theta")
            if prev is not None and not theta > prev:
                problems.append(f"{spec}: theta={theta:.6g} not above the d-1 value {prev:.6g}")
            memo["diffusion_theta"] = theta
        ref = reference.POLE_REFERENCE.get(spec)
        if ref is not None:
            problems += _close(f"{spec} theta", theta, ref, POLE_TOL)
        return problems

    return check


def _check_refused_validate(out, _stdout, _memo):
    verdict = json.loads(out)["report"]["verdict"]
    return [] if verdict != "valid" else ["refused model validated as plain 'valid'"]


def _check_gate_report(_out, stdout, _memo):
    return [] if json.loads(stdout).get("error") == "validity_gate" else ["exit 2 without a validity-gate report"]


def transform(_seed: int) -> list[Command]:  # pole and validate take no seed
    cmds = [Command(("pole", "--model", f"diffusion(d={d})"), check=_check_pole(f"diffusion(d={d})", True)) for d in range(1, 65)]
    for spec in ("random_acceleration", "shifted_gaussian(alpha=0)", "matern(nu=2.5)", "matern(nu=3.5)", "matern(nu=4.5)"):
        cmds.append(Command(("pole", "--model", spec), check=_check_pole(spec)))
    for spec in ("shifted_gaussian(alpha=2)", "generalized_laplace(alpha=1)"):
        cmds.append(Command(("validate", "--model", spec), check=_check_refused_validate))
        cmds.append(Command(("pole", "--model", spec), expect_exit=2, check=_check_gate_report))
    return cmds


# ---------------------------------------------------------------------------
# crosscheck


MC_HALF_WIDTHS = 4.0  # |theta - ref| <= 4 half-widths + the reference's own
MC_MAX_REL_HALF_WIDTH = 0.03
SWITCH_SIGMAS = 4.5
MEAN_SIGMAS = 5.0


def _check_persistency(ref: float, ref_hw: float):
    def check(out, _stdout, _memo):
        res = json.loads(out)
        theta, hw = res["estimates"][0]["theta"], res["estimates"][0]["half_width"]
        problems = _close(f"{res['model']} theta", theta, ref, MC_HALF_WIDTHS * hw + ref_hw)
        if not hw <= MC_MAX_REL_HALF_WIDTH * ref:
            problems.append(f"half-width {hw:.3g} wider than {MC_MAX_REL_HALF_WIDTH:g} of theta")
        return problems

    return check


def _check_switch(n: int, clipped: Optional[Callable]):
    def check(out, _stdout, _memo):
        problems = []
        for r in _csv_rows(out):
            t = r["t"]
            # the stationary state has mean zero and unit variance
            problems += _close(f"E_hat({t:g})", r["E_hat"], 0.0, SWITCH_SIGMAS / math.sqrt(n))
            if clipped is not None:
                problems += _close(f"R_hat({t:g})", r["R_hat"], clipped(t), SWITCH_SIGMAS * r["SE"])
        return problems

    return check


def _check_sample_mean(n: int, mu: float):
    def check(out, _stdout, _memo):
        values = np.array(out.split(), dtype=float)
        if values.size != n or not np.all(np.isfinite(values) & (values > 0)):
            return [f"expected {n} positive finite values, got {values.size}"]
        z = (values.mean() - mu) / (values.std(ddof=1) / math.sqrt(n))
        return [] if abs(z) <= MEAN_SIGMAS else [f"sample mean {values.mean():.6g} is {z:.2f} SE from mu={mu:.6g}"]

    return check


def crosscheck(seed: int) -> list[Command]:
    s = ("--seed", str(seed))
    cmds = []
    for spec, n, canonical in (
        ("random_acceleration", 100000, "random_acceleration"),
        ("shifted_gaussian(alpha=0)", 100000, "shifted_gaussian(alpha=0)"),
        ("matern(nu=2.5)", 100000, "matern_half_integer(nu=2.5)"),
    ):
        argv = ("persistency", "--method", "mc", "--model", spec, "--n", str(n), "--k", "10000", "--reps", "10") + s
        cmds.append(Command(argv, check=_check_persistency(*reference.SCALAR_MC_REFERENCE[canonical])))
    argv = ("persistency", "--method", "mc", "--model", "diffusion(d=2)", "--n", "1000000", "--k", "10000", "--reps", "10") + s
    cmds.append(Command(argv, check=_check_persistency(reference.POLE_REFERENCE["diffusion(d=2)"], 0.0)))
    n_switch = 20000
    for dist, clipped in (
        ("excursion:diffusion(d=2)", lambda t: 2.0 / math.pi * math.asin(1.0 / math.cosh(t / 2.0))),
        ("divisor:matern(nu=2.5)", None),
    ):
        argv = ("switch", "--dist", dist, "--mode", "stationary", "--horizon", "6", "--n", str(n_switch), "--grid", "0.5:4:0.5") + s
        cmds.append(Command(argv, check=_check_switch(n_switch, clipped)))
    # mean excursion mu = pi / sqrt(-r''(0)), with -r''(0) = alpha for
    # generalized_laplace and d/8 for diffusion
    for spec, n, streams, mu in (
        ("generalized_laplace(alpha=1)", 200000, 4, math.pi),
        ("diffusion(d=2)", 1000000, 8, 2.0 * math.pi),
    ):
        argv = ("sample", "--what", "excursion", "--model", spec, "--n", str(n), "--streams", str(streams)) + s
        cmds.append(Command(argv, check=_check_sample_mean(n, mu)))
    return cmds


WORKLOADS = {"table2": table2, "transform": transform, "crosscheck": crosscheck}
