"""Command-line front end for reproducible batch runs.

Subcommands: models, validate, e0, sample, pole, persistency, switch,
reproduce.  Every output embeds a metadata object (tool version, the fully
resolved configuration including defaulted values, and the seed) so a run
can be repeated exactly; wall time goes to stderr so that outputs are
byte-identical for identical (config, seed).

Exit codes: 0 success, 1 usage error, 2 model failed the validity gate
when sampling was requested (the report is printed), 3 numerical failure
(pole not found, transform divergence, quadrature error above rel_tol).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import laplace, persistency, reference, slepian, switching
from .covariance import (
    MATERN_NU_VALUES,
    MAX_DIFFUSION_DIM,
    Diffusion,
    ModelSpecError,
    clipped_autocovariance,
    parse_model_spec,
)
from .laplace import AtPoleError, DivergenceError, PoleNotFoundError, QuadratureError
from .samplers import DivisorSampler, InverseTableError, RngStream, sample_excursions
from .slepian import ValidityError

TOOL = "excursia"
MAX_GRID_POINTS = 10**7  # 80 MB of float64 times; larger grids are usage errors


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _format_rows(columns) -> str:
    """The columns as comma-separated text rows, every value ``%.17g``:
    round-trip exact for 64-bit floats (nan and inf included), the plain
    digits for integers up to 2**53.  One ``%`` call formats every row."""
    columns = [np.asarray(c).tolist() for c in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    flat = columns[0] if len(columns) == 1 else itertools.chain.from_iterable(zip(*columns))
    return (row * len(columns[0])) % tuple(flat)


def _at_least(minimum: int):
    """argparse type: an integer count of at least ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _positive_finite(text: str) -> float:
    """argparse type: a float that is positive and finite."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _tail_count(k: int, n: int) -> int:
    """A tail count the regression accepts: 2 <= k <= n - 1."""
    if not 2 <= k <= n - 1:
        raise UsageError(f"tail count must satisfy 2 <= k <= n-1, got k={k}, n={n}")
    return k


def _time_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop: a usage error unless
    0 <= start <= stop and 0 < step, all finite (E0 is a survival only
    for t >= 0), and the grid has at most MAX_GRID_POINTS points."""
    if not (0 < step < np.inf and 0 <= start <= stop < np.inf):
        raise UsageError(f"time grid needs finite 0 <= start <= stop and step > 0, got start={start:g}, stop={stop:g}, step={step:g}")
    end = stop + 0.5 * step
    # np.arange makes ceil((end - start)/step) points; count them before allocating
    if not (end - start) / step <= MAX_GRID_POINTS:
        raise UsageError(f"time grid has more than {MAX_GRID_POINTS} points: start={start:g}, stop={stop:g}, step={step:g}")
    return np.arange(start, end, step)


def _resolve_threads(value) -> int:
    """--threads, else EXCURSIA_THREADS, else the machine's core count; a
    count that is not an integer of at least 1 is a usage error."""
    source = "--threads"
    if value is None:
        env = os.environ.get("EXCURSIA_THREADS")
        if not env:
            return os.cpu_count() or 1
        source = "EXCURSIA_THREADS"
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"EXCURSIA_THREADS must be an integer, got {env!r}") from None
    if value < 1:
        raise UsageError(f"{source} must be at least 1, got {value}")
    return value


def _metadata(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {"tool": TOOL, "version": __version__, "config": config}


def _emit_text(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args) -> None:
    payload = {"metadata": _metadata(args), **payload}
    _emit_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n", args.output)


def _emit_csv(header: list[str], columns, args) -> None:
    lines = [f"# {TOOL} {__version__}", f"# config {json.dumps(_metadata(args)['config'], sort_keys=True, default=str)}"]
    lines.append(",".join(header))
    _emit_text("\n".join(lines) + "\n" + _format_rows(columns), args.output)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_models(args) -> int:
    """Model names and parameters; ``validate --model`` measures a model's
    tail class."""
    catalog = [
        {"name": "diffusion", "params": {"d": f"integer in [1, {MAX_DIFFUSION_DIM}]"}},
        {"name": "random_acceleration", "params": {}},
        {"name": "shifted_gaussian", "params": {"alpha": ">= 0 (only alpha=0 is a valid sampling target)"}},
        {"name": "matern (matern_half_integer)", "params": {"nu": f"one of {list(MATERN_NU_VALUES)}"}},
        {"name": "generalized_laplace", "params": {"alpha": "> 0"}},
    ]
    _emit_json({"models": catalog}, args)
    return 0


def _cmd_validate(args) -> int:
    if not args.step < args.tmax:
        raise UsageError(f"validate needs --step < --tmax, got tmax={args.tmax:g}, step={args.step:g}")
    model = parse_model_spec(args.model)
    report = slepian.validate_iia(model, t_max=args.tmax, step=args.step)
    _emit_json({"report": report.as_dict(), "model": model.spec_string()}, args)
    return 0


def _log(values: np.ndarray) -> np.ndarray:
    """log of a curve: -inf at exact zeros, nan at negative values."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(values)


def _cmd_e0(args) -> int:
    ts = _time_grid(args.tmin, args.tmax, args.step)
    model = parse_model_spec(args.model)
    if args.what in ("e0", "rcl"):
        fn = slepian.e0 if args.what == "e0" else clipped_autocovariance
        vals = np.asarray(fn(model, ts))
        _emit_csv(["t", "value", "log_value"], [ts, vals, _log(vals)], args)
        return 0
    # survival_mc: empirical exceedance survival with binomial SE
    values, _ = sample_excursions(model, RngStream(args.seed, 0), args.n)
    p, se = persistency.empirical_survival(values, ts)
    _emit_csv(["t", "value", "log_value", "se"], [ts, p, _log(p), se], args)
    return 0


def _cmd_sample(args) -> int:
    model = parse_model_spec(args.model)
    per = [args.n // args.streams + (1 if i < args.n % args.streams else 0) for i in range(args.streams)]
    chunks = []
    for i, ni in enumerate(per):
        if ni == 0:
            continue
        rng = RngStream(args.seed, i)
        if args.what == "divisor":
            chunks.append(DivisorSampler(model).draw(rng, ni))
        else:
            chunks.append(sample_excursions(model, rng, ni)[0])
    values = np.concatenate(chunks) if chunks else np.empty(0)
    if args.binary:
        payload = values.astype("<f8").tobytes()
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    else:
        _emit_text(_format_rows([values]), args.output)
    return 0


def _cmd_pole(args) -> int:
    t_cap = laplace.T_CAP if args.tmax is None else args.tmax
    model = parse_model_spec(args.model)
    est = laplace.find_pole(model, args.rel_tol, t_cap)
    _emit_json({**est.as_dict(), "reference": reference.reference_for(model)}, args)
    return 0


def _cmd_persistency(args) -> int:
    model = parse_model_spec(args.model)
    k = args.k if args.k is not None else (
        int(args.tail_frac * args.n) if args.tail_frac is not None else persistency.default_tail_count(args.n)
    )
    threads = _resolve_threads(args.threads)
    estimates = []
    if args.method in ("mc", "both"):
        _tail_count(k, args.n)
        sampler = DivisorSampler(model)  # validity gate before any sampling

        def draw(stream: RngStream, m: int):
            return sample_excursions(sampler, stream, m)[0]

        est = persistency.tail_exponent_ci(draw, args.n, k, args.reps, RngStream(args.seed, 0), threads=threads)
        estimates.append(est.as_dict())
    if args.method in ("pole", "both"):
        estimates.append(laplace.find_pole(model).as_dict())
    _emit_json(
        {"estimates": estimates, "model": model.spec_string(), "reference": reference.reference_for(model)},
        args,
    )
    return 0


def _parse_dist(spec: str) -> switching.SwitchingTimeDistribution:
    kind, _, rest = spec.partition(":")
    if kind == "exp":
        return switching.exponential_switching(float(rest or 1.0))
    if kind == "gamma":
        parts = rest.split(",")
        if len(parts) != 2:
            raise UsageError("gamma dist spec is gamma:<shape>,<rate>")
        return switching.gamma_switching(float(parts[0]), float(parts[1]))
    if kind == "point":
        return switching.point_mass_switching(float(rest or 1.0))
    if kind == "divisor":
        return switching.divisor_switching(parse_model_spec(rest))
    if kind == "excursion":
        return switching.excursion_switching(parse_model_spec(rest))
    raise UsageError(
        f"unknown switching distribution {spec!r}; "
        "use exp:<rate> | gamma:<k>,<rate> | point:<c> | divisor:<model> | excursion:<model>"
    )


def _cmd_switch(args) -> int:
    try:
        start, stop, step = (float(x) for x in args.grid.split(":"))
        grid = _time_grid(start, stop, step)
        dist = _parse_dist(args.dist)
    except ValueError as exc:
        raise UsageError(f"bad --dist or --grid value: {exc}") from exc
    rng = RngStream(args.seed, 0)
    try:
        if args.mode == "origin":
            e_hat, se = switching.estimate_expectation(dist, grid, args.n, rng)
            columns = [grid, e_hat, np.full(grid.size, np.nan), se]
        else:
            e_hat, _, r_hat, r_se = switching.estimate_stationary_covariance(dist, grid, args.n, rng)
            columns = [grid, e_hat, r_hat, r_se]
    except ValueError as exc:  # n < 2, or a stationary law without a size-biased sampler
        raise UsageError(str(exc)) from exc
    _emit_csv(["t", "E_hat", "R_hat", "SE"], columns, args)
    return 0


def _cmd_reproduce(args) -> int:
    if args.target != "table2":
        raise UsageError(f"unknown reproduce target {args.target!r}; available: table2")
    threads = _resolve_threads(args.threads)
    k_div = _tail_count(args.k_divisor if args.k_divisor is not None else persistency.default_tail_count(args.n), args.n)
    k_iia = _tail_count(args.k_iia if args.k_iia is not None else max(2, args.n // 10), args.n)
    rows = []
    for d in range(1, args.dmax + 1):
        model = Diffusion(d=d)
        sampler = DivisorSampler(model)
        div_est = persistency.tail_exponent_ci(
            sampler.draw,
            args.n,
            k_div,
            args.reps,
            RngStream(args.seed, 100 * d),
            threads=threads,
        )
        iia_est = persistency.tail_exponent_ci(
            lambda st, m: sample_excursions(sampler, st, m)[0],
            args.n,
            k_iia,
            args.reps,
            RngStream(args.seed, 100 * d + 50),
            threads=threads,
        )
        pole_theta = laplace.find_pole(model).theta
        ref = reference.DIFFUSION_REFERENCE.get(d)
        rows.append(
            (
                d,
                div_est.theta,
                ref.divisor if ref else np.nan,
                iia_est.theta,
                ref.iia if ref else np.nan,
                pole_theta,
            )
        )
    _emit_csv(["d", "divisor_theta", "divisor_ref", "iia_theta", "iia_ref", "pole_theta"], list(zip(*rows)), args)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    p = _Parser(prog=TOOL, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("models", help="list the model catalog")
    sp.add_argument("--output", default=None, help="output path (default stdout)")
    sp.set_defaults(func=_cmd_models)

    sp = sub.add_parser("validate", help="grid validity report for a model")
    sp.add_argument("--model", required=True, help='model spec, e.g. "diffusion(d=2)"')
    sp.add_argument("--tmax", type=_positive_finite, default=slepian.DEFAULT_T_MAX, help="grid end (default %(default)s)")
    sp.add_argument("--step", type=_positive_finite, default=slepian.DEFAULT_STEP, help="grid step (default %(default)s)")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("e0", help="emit survival / clipped-covariance / MC-survival curves as CSV")
    sp.add_argument("--what", choices=["e0", "rcl", "survival_mc"], default="e0")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tmin", type=float, default=0.0)
    sp.add_argument("--tmax", type=float, default=10.0)
    sp.add_argument("--step", type=float, default=0.1)
    sp.add_argument("--n", type=_at_least(1), default=100000, help="MC sample size for survival_mc")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_e0)

    sp = sub.add_parser("sample", help="draw divisor or exceedance-time samples")
    sp.add_argument("--model", required=True)
    sp.add_argument("--what", choices=["divisor", "excursion"], default="excursion")
    sp.add_argument("--n", type=_at_least(1), default=1000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--streams", type=_at_least(1), default=1, help="number of independent streams the draw is split over")
    sp.add_argument("--binary", action="store_true", help="little-endian float64 instead of text")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("pole", help="persistency exponent from the transform pole")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tmax", type=_positive_finite, default=None, help="truncation override for the transform")
    sp.add_argument("--rel-tol", type=_positive_finite, default=1e-12, dest="rel_tol")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_pole)

    sp = sub.add_parser("persistency", help="persistency exponent estimates")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=_at_least(1), default=100000)
    sp.add_argument("--k", type=int, default=None, help="tail count (default max(1000, n/100))")
    sp.add_argument("--tail-frac", type=_positive_finite, default=None, dest="tail_frac", help="tail fraction alternative to --k")
    sp.add_argument("--reps", type=_at_least(2), default=10)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--method", choices=["mc", "pole", "both"], default="mc")
    sp.add_argument("--threads", type=int, default=None, help="worker threads (default: EXCURSIA_THREADS or machine parallelism)")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_persistency)

    sp = sub.add_parser("switch", help="switch-process ensemble estimates as CSV")
    sp.add_argument("--dist", required=True, help="exp:<rate> | gamma:<shape>,<rate> | point:<c> | divisor:<model> | excursion:<model>")
    sp.add_argument("--mode", choices=["origin", "stationary"], default="origin")
    sp.add_argument("--horizon", type=float, default=5.0, help="ignored: paths always run to the last grid time")
    sp.add_argument("--n", type=int, default=100000)
    sp.add_argument("--grid", default="0.25:5.0:0.25", help="start:stop:step of evaluation times")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_switch)

    sp = sub.add_parser("reproduce", help="recompute a reference table side by side with the published values")
    sp.add_argument("target", choices=["table2"], help="which table to reproduce")
    sp.add_argument("--n", type=_at_least(1), default=100000)
    sp.add_argument("--reps", type=_at_least(2), default=10)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--dmax", type=_at_least(1), default=10)
    sp.add_argument("--k-divisor", type=int, default=None, dest="k_divisor")
    sp.add_argument("--k-iia", type=int, default=None, dest="k_iia")
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"{TOOL}: usage error: {exc}", file=sys.stderr)
        return 1
    try:
        code = args.func(args)
    except UsageError as exc:
        print(f"{TOOL}: usage error: {exc}", file=sys.stderr)
        return 1
    except ModelSpecError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 1
    except ValidityError as exc:
        payload = {"error": "validity_gate", "message": str(exc), "report": exc.report.as_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 2
    except (PoleNotFoundError, DivergenceError, AtPoleError, QuadratureError, InverseTableError) as exc:
        print(f"{TOOL}: numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        print(f"# wall_time_s={time.perf_counter()-t0:.3f}", file=sys.stderr)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
