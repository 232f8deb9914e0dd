"""Command-line front end for reproducible batch runs.

Subcommands: models, validate, e0, sample, pole, persistency, switch,
reproduce.  Every output embeds a metadata object (tool version, the fully
resolved configuration including defaulted values, and the seed) so a run
can be repeated exactly; wall time goes to stderr so that outputs are
byte-identical for identical (config, seed).

Exit codes follow the type of the exception, decided in ``main`` alone:
0 success; 1 usage error, any ValueError (bad caller input); 2 a
``slepian.ValidityError``, the validity gate refused the model (the report
is printed); 3 a ``slepian.NumericalFailure`` (pole not found, transform
divergence, quadrature error estimate above 1e-12 of the transform, an
inverse table that cannot be built, tail order statistics without spread,
an iteration that does not converge).  A new refusal takes ValueError for
caller input and NumericalFailure for a computation that cannot meet its
contract; it reaches its exit code with no change here.
"""

from __future__ import annotations

import argparse
import functools
import json
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
from .samplers import DivisorSampler, RngStream, excursion_largest, excursion_multiset, sample_excursions
from .slepian import NumericalFailure, ValidityError

TOOL = "excursia"
MAX_DRAWS = 10**8  # 0.8 GB of float64 draws; larger --n are refused


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Text export.  Every value is written as "%.17g" would write it, but the
# digits of a magnitude in [_G17_MIN, _G17_MAX] come from array arithmetic
# (see _format_rows); the rest take Python's "%" one value at a time.
_ROWS_PER_BLOCK = 1 << 14
_G17_MIN, _G17_MAX = 1e-280, 1e280
_G17_K = 282  # the power table covers decimal exponents -_G17_K .. _G17_K
_G17_TIE = 1e-6  # a rounding this close to a tie takes the per-value path
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# The bytes of one value: sign, "0." and up to three zeros, the leading
# digit; 16 more digits; the exponent and the separator.  Every digit is
# followed by a slot for the point.
_SLOT = np.dtype([("head", np.uint64), ("digits", np.void, 32), ("tail", np.uint64)])


def _split(x):
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _g17_tables() -> dict:
    """The export's lookup tables, built on its first call (a few ms):
    10**(16 - k) as a double-double hi + lo (hi also split in halves) for
    every k, and the byte patterns of the head of a slot, of four digits
    and of the exponent."""
    hi, lo = [], []
    for k in range(-_G17_K, _G17_K + 1):
        p = 16 - k
        power = 10 ** abs(p)
        if p >= 0:
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:  # 10**p - hi = (den - num power)/(den power) for hi = num/den
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    # head of a slot: sign, "0." and up to three zeros, the leading digit,
    # its point slot; index 50 [x < 0] + 10 [zeros after the point + 1] + digit
    head = b"".join(
        sign + (b"0." + b"0" * (pre - 1) if pre else b"").ljust(5, b"\0") + b"%d\0" % d0
        for sign in (b"\0", b"-")
        for pre in range(5)
        for d0 in range(10)
    )
    # four digits, each followed by its point slot
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quad = np.zeros((10000, 8), np.uint8)
    quad[:, ::2] = digits + ord("0")
    exponents = b"".join(
        (b"" if -4 <= x <= 16 else b"e%+03d" % x).ljust(8, b"\0") for x in range(-_G17_K - 1, _G17_K + 2)
    )
    # keep[j][n]: the mask of the digits of group j written when digit n is
    # the last one written
    written = np.clip(np.arange(17) - 4 * np.arange(4)[:, None], 0, 4)
    keep = np.zeros((4, 17, 8), np.uint8)
    keep[np.arange(8) < 2 * written[:, :, None]] = 0xFF
    hi_h, hi_l = _split(hi)
    return {
        "hi": hi,
        "lo": np.array(lo),
        "hi_h": hi_h,
        "hi_l": hi_l,
        "head": np.frombuffer(head, np.uint64),
        "quad": quad.view(np.uint64).ravel(),
        # the digits of a group of four up to its last nonzero one
        "quad_len": np.max((digits > 0) * np.arange(1, 5), axis=1).astype(np.int8),
        "keep": keep.view(np.uint64)[..., 0],
        "exponent": np.frombuffer(exponents, np.uint64),
    }


def _g17_scaled(a, k, tables):
    """a 10**(16 - k) as h + l, h = fl(h + l), with an error below 1e-14 for
    a 10**(16 - k) < 2e17: Dekker's exact product of a and the high part
    of the power, plus a times its low part."""
    i = k + _G17_K
    hi_h, hi_l = tables["hi_h"][i], tables["hi_l"][i]
    p = a * tables["hi"][i]
    a_h, a_l = _split(a)
    e = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    e += a * tables["lo"][i]
    h = p + e
    return h, e - (h - p)


def _g17_step(h, l):
    """-1 where h + l is below 1e16, +1 where it is 1e17 or more, else 0.
    h == 1e16 with l < 0 is below: a value that rounds to 1e16 at 17
    digits, but whose own 17 digits start one decade lower."""
    above = (h > 1e17) | ((h == 1e17) & (l >= 0.0))
    return above.astype(np.int64) - ((h < 1e16) | ((h == 1e16) & (l < 0.0)))


def _g17_one(x) -> bytes:
    """One value through Python's ``%``: the path of the values the array
    arithmetic does not take."""
    return b"%.17g" % x


def _g17_bytes(v: np.ndarray, sep: np.ndarray) -> bytes:
    """The values v as "%.17g" text, each followed by its separator byte."""
    tables = _g17_tables()
    a = np.abs(v)
    exact = (a >= _G17_MIN) & (a <= _G17_MAX)  # false for 0, inf and nan
    a[~exact] = 1.0
    # the 17 significant digits are the integer nearest a 10**(16 - k),
    # k = floor(log10 a); the logarithm can put k one off next to a power of ten
    k = np.floor(np.log10(a)).astype(np.int64)
    h, l = _g17_scaled(a, k, tables)
    step = _g17_step(h, l)
    off = np.flatnonzero(step)
    if off.size:
        k[off] += step[off]
        h[off], l[off] = _g17_scaled(a[off], k[off], tables)
        exact[off[_g17_step(h[off], l[off]) != 0]] = False  # never seen
    floor = np.floor(l)
    frac = l - floor
    exact &= np.abs(frac - 0.5) >= _G17_TIE
    q = h.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = q == 10**17  # rounded up to the next power of ten
    q[carry] = 10**16
    k += carry
    quads = np.empty((4, a.size), np.int64)
    for j in range(3, -1, -1):
        quads[j] = q
        q //= 10000
        quads[j] -= 10000 * q
    # q is now the leading digit
    fixed = (k >= -4) & (k <= 16)
    q[v < 0] += 50
    pre = np.flatnonzero(fixed & (k < 0))
    q[pre] -= 10 * k[pre]
    digits = np.take(tables["quad"], quads.T)
    # the digits after the last one written ("keep") are trailing zeros: deleted
    keep = np.full(a.size, 16)
    zero = np.flatnonzero(tables["quad_len"][quads[3]] < 4)
    if zero.size:
        quad_len = tables["quad_len"][quads[:, zero]]
        last = quad_len[0]
        for j in (1, 2, 3):
            last = np.where(quad_len[j] > 0, quad_len[j] + 4 * j, last)
        keep[zero] = np.where(fixed[zero], np.maximum(k[zero], last), last)
        for j, mask in enumerate(tables["keep"]):
            column = digits[:, j]
            column[zero] &= mask[keep[zero]]
    slot = np.empty(a.size, _SLOT)
    slot["head"] = tables["head"][q]
    slot["digits"] = digits.view(_SLOT["digits"]).ravel()
    slot["tail"] = tables["exponent"][k + _G17_K + 1]
    text = slot.view(np.uint8)
    point = np.where(fixed, k, 0)  # the digit the point follows; in the "0.000" slot if negative
    dot = np.flatnonzero((point >= 0) & (keep > point))
    text[dot * _SLOT.itemsize + 7 + 2 * point[dot]] = ord(".")
    text[_SLOT.itemsize - 1 :: _SLOT.itemsize] = sep
    for i in np.flatnonzero(~exact):
        value = _g17_one(v[i])
        at = i * _SLOT.itemsize
        text[at : at + _SLOT.itemsize - 1] = 0
        text[at : at + len(value)] = np.frombuffer(value, np.uint8)
    return text.tobytes().translate(None, b"\0")


def _format_rows(columns) -> bytes:
    """The columns as comma-separated text rows, every value as ``%.17g``
    writes it (round-trip exact for 64-bit floats, nan and inf included;
    integers go through float64, as ``%`` takes them, exact up to 2**53).

    The values are written _ROWS_PER_BLOCK rows at a time, each into a
    fixed slot of _SLOT bytes, and the unused bytes (NUL) are deleted.  The
    17 significant digits of a magnitude a in [_G17_MIN, _G17_MAX] are the
    integer nearest a 10**(16 - k): a double-double product with an error
    below 1e-14, so its rounding is exact unless the fraction is within
    _G17_TIE of 1/2.  Those near-ties, zeros, inf, nan and magnitudes
    outside the range (1-5 values per million of an exponential
    sample) are formatted with Python's ``%``, one value at a time.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    values = columns[0] if len(columns) == 1 else np.column_stack(columns).ravel()
    sep = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    step = _ROWS_PER_BLOCK * sep.size
    return b"".join(
        _g17_bytes(values[i : i + step], np.tile(sep, min(step, values.size - i) // sep.size))
        for i in range(0, values.size, step)
    )


def _count(minimum: int, maximum: int | None = None):
    """argparse type: an integer count of at least ``minimum`` and, if
    given, at most ``maximum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return count


def _metadata(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {"tool": TOOL, "version": __version__, "config": config}


def _emit_text(text: str | bytes | memoryview, output: str | None):
    """The text, or a bytes-like object as it is, to the output file or to
    stdout."""
    data = text.encode() if isinstance(text, str) else text
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


def _emit_json(payload: dict, args) -> None:
    payload = {"metadata": _metadata(args), **payload}
    _emit_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n", args.output)


def _emit_csv(header: list[str], columns, args) -> None:
    lines = [f"# {TOOL} {__version__}", f"# config {json.dumps(_metadata(args)['config'], sort_keys=True, default=str)}"]
    lines.append(",".join(header))
    _emit_text(("\n".join(lines) + "\n").encode() + _format_rows(columns), args.output)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_models(args) -> int:
    """Model names and parameters; ``validate --model`` measures a model's
    tail class."""
    catalog = [
        {"name": "diffusion", "params": {"d": f"integer in [1, {MAX_DIFFUSION_DIM}]"}},
        {"name": "random_acceleration", "params": {}},
        {"name": "shifted_gaussian", "params": {"alpha": ">= 0 (validate decides; E0 turns negative for every alpha > 0, and the gate refuses alpha from about 0.041 on)"}},
        {"name": "matern (matern_half_integer)", "params": {"nu": f"one of {list(MATERN_NU_VALUES)}"}},
        {"name": "generalized_laplace", "params": {"alpha": "> 0"}},
    ]
    _emit_json({"models": catalog}, args)
    return 0


def _cmd_validate(args) -> int:
    model = parse_model_spec(args.model)
    report = slepian.cached_validity(model, t_max=args.tmax, step=args.step)
    _emit_json({"report": report.as_dict(), "model": model.spec_string()}, args)
    return 0


def _log(values: np.ndarray) -> np.ndarray:
    """log of a curve: -inf at exact zeros, nan at negative values."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(values)


def _cmd_e0(args) -> int:
    ts = slepian.time_grid(args.tmin, args.tmax, args.step)
    model = parse_model_spec(args.model)
    if args.what in ("e0", "rcl"):
        fn = slepian.e0 if args.what == "e0" else clipped_autocovariance
        vals = np.asarray(fn(model, ts))
        _emit_csv(["t", "value", "log_value"], [ts, vals, _log(vals)], args)
        return 0
    # survival_mc: empirical exceedance survival with binomial SE, which
    # reads only the multiset of the draws
    values, _ = excursion_multiset(model, RngStream(args.seed, 0), args.n)
    p, se = persistency.empirical_survival(values, ts)
    _emit_csv(["t", "value", "log_value", "se"], [ts, p, _log(p), se], args)
    return 0


def _cmd_sample(args) -> int:
    sampler = DivisorSampler(parse_model_spec(args.model))
    # streams past the n-th would draw nothing
    streams = min(args.streams, args.n)
    per, extra = divmod(args.n, streams)
    values, lo = np.empty(args.n), 0
    for i in range(streams):
        m, rng = per + (i < extra), RngStream(args.seed, i)
        values[lo : lo + m] = sampler.draw(rng, m) if args.what == "divisor" else sample_excursions(sampler, rng, m)[0]
        lo += m
    # the binary bytes are written from the draws' own memory on
    # little-endian machines (astype copies only on big-endian ones)
    _emit_text(memoryview(values.astype("<f8", copy=False)) if args.binary else _format_rows([values]), args.output)
    return 0


def _cmd_pole(args) -> int:
    model = parse_model_spec(args.model)
    _emit_json({**laplace.find_pole(model).as_dict(), "reference": reference.reference_for(model)}, args)
    return 0


def _cmd_persistency(args) -> int:
    model = parse_model_spec(args.model)
    k = args.k if args.k is not None else persistency.default_tail_count(args.n)
    estimates = []
    if args.method in ("mc", "both"):
        # the regression reads only the k largest compounds of the multiset;
        # the tail count is checked before the first draw runs the gate
        est = persistency.tail_exponent_ci(
            lambda st, m: excursion_largest(model, st, m, k), args.n, k, args.reps, RngStream(args.seed, 0)
        )
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
        grid = slepian.time_grid(start, stop, step)
        dist = _parse_dist(args.dist)
    except UsageError:
        raise
    except ValueError as exc:  # float() does not name the option
        raise UsageError(f"bad --dist or --grid value: {exc}") from exc
    rng = RngStream(args.seed, 0)
    if args.mode == "origin":
        e_hat, se = switching.estimate_expectation(dist, grid, args.n, rng)
        columns = [grid, e_hat, np.full(grid.size, np.nan), se]
    else:
        e_hat, _, r_hat, r_se = switching.estimate_stationary_covariance(dist, grid, args.n, rng)
        columns = [grid, e_hat, r_hat, r_se]
    _emit_csv(["t", "E_hat", "R_hat", "SE"], columns, args)
    return 0


def _cmd_reproduce(args) -> int:
    k_div = args.k_divisor if args.k_divisor is not None else persistency.default_tail_count(args.n)
    k_iia = args.k_iia if args.k_iia is not None else max(2, args.n // 10)
    for k in (k_div, k_iia):  # both before the first replication
        persistency.check_tail_count(k, args.n)
    # dimension d draws its divisor replications on streams 2 S d + r and
    # its exceedance replications on 2 S d + S + r, r < reps <= S: no two
    # replications share a stream (S = 50 keeps the streams of reps <= 50)
    stride = max(50, args.reps)
    rows = []
    for d in range(1, args.dmax + 1):
        model = Diffusion(d=d)
        sampler = DivisorSampler(model)
        # the regression reads only the k largest draws: the inverses of the
        # k smallest uniforms (E0^{-1} decreases), so only those are inverted
        div_est = persistency.tail_exponent_ci(
            lambda st, m: sampler.largest(st, m, k_div), args.n, k_div, args.reps, RngStream(args.seed, 2 * stride * d)
        )
        # the exceedance regression reads only the k largest compounds
        iia_est = persistency.tail_exponent_ci(
            lambda st, m: excursion_largest(sampler, st, m, k_iia),
            args.n,
            k_iia,
            args.reps,
            RngStream(args.seed, 2 * stride * d + stride),
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
    sp.add_argument("--tmax", type=float, default=slepian.DEFAULT_T_MAX, help="grid end (default %(default)s)")
    sp.add_argument("--step", type=float, default=slepian.DEFAULT_STEP, help="grid step (default %(default)s)")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("e0", help="emit survival / clipped-covariance / MC-survival curves as CSV")
    sp.add_argument("--what", choices=["e0", "rcl", "survival_mc"], default="e0")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tmin", type=float, default=0.0)
    sp.add_argument("--tmax", type=float, default=10.0)
    sp.add_argument("--step", type=float, default=0.1)
    sp.add_argument("--n", type=_count(1, MAX_DRAWS), default=100000, help="MC sample size for survival_mc")
    sp.add_argument("--seed", type=_count(0), default=42)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_e0)

    sp = sub.add_parser("sample", help="draw divisor or exceedance-time samples")
    sp.add_argument("--model", required=True)
    sp.add_argument("--what", choices=["divisor", "excursion"], default="excursion")
    sp.add_argument("--n", type=_count(1, MAX_DRAWS), default=1000)
    sp.add_argument("--seed", type=_count(0), default=42)
    sp.add_argument("--streams", type=_count(1), default=1, help="number of independent streams the draw is split over")
    sp.add_argument("--binary", action="store_true", help="little-endian float64 instead of text")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("pole", help="persistency exponent from the transform pole")
    sp.add_argument("--model", required=True)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_pole)

    sp = sub.add_parser("persistency", help="persistency exponent estimates")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n", type=_count(1, MAX_DRAWS), default=100000)
    sp.add_argument("--k", type=int, default=None, help="tail count (default max(1000, n/100))")
    sp.add_argument("--reps", type=_count(2), default=10)
    sp.add_argument("--seed", type=_count(0), default=42)
    sp.add_argument("--method", choices=["mc", "pole", "both"], default="mc")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_persistency)

    sp = sub.add_parser("switch", help="switch-process ensemble estimates as CSV")
    sp.add_argument("--dist", required=True, help="exp:<rate> | gamma:<shape>,<rate> | point:<c> | divisor:<model> | excursion:<model>")
    sp.add_argument("--mode", choices=["origin", "stationary"], default="origin")
    sp.add_argument("--horizon", type=float, default=5.0, help="ignored: paths always run to the last grid time")
    sp.add_argument("--n", type=int, default=100000)
    sp.add_argument("--grid", default="0.25:5.0:0.25", help="start:stop:step of evaluation times")
    sp.add_argument("--seed", type=_count(0), default=42)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_switch)

    sp = sub.add_parser("reproduce", help="recompute a reference table side by side with the published values")
    sp.add_argument("target", choices=["table2"], help="which table to reproduce")
    sp.add_argument("--n", type=_count(1, MAX_DRAWS), default=100000)
    sp.add_argument("--reps", type=_count(2), default=10)
    sp.add_argument("--seed", type=_count(0), default=42)
    sp.add_argument("--dmax", type=_count(1, MAX_DIFFUSION_DIM), default=10, help=f"last diffusion dimension, at most {MAX_DIFFUSION_DIM}")
    sp.add_argument("--k-divisor", type=int, default=None, dest="k_divisor")
    sp.add_argument("--k-iia", type=int, default=None, dest="k_iia")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_reproduce)

    return p


def _describe(exc: Exception) -> str:
    """The message, with the notes added on the way (the replication)."""
    return str(exc) + "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))


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
    except ValidityError as exc:
        payload = {"error": "validity_gate", "message": str(exc), "report": exc.report.as_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 2
    except NumericalFailure as exc:  # before ValueError: some are both
        print(f"{TOOL}: numerical failure: {_describe(exc)}", file=sys.stderr)
        return 3
    except ModelSpecError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"{TOOL}: usage error: {_describe(exc)}", file=sys.stderr)
        return 1
    finally:
        print(f"# wall_time_s={time.perf_counter()-t0:.3f}", file=sys.stderr)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
