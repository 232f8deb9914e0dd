import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import g17_rows_oracle

from excursia import Diffusion, DivisorSampler, RngStream, e0, excursion_multiset, laplace_e0, sample_excursions, tail_exponent_ci
from excursia import cli, laplace, slepian
from excursia.cli import _format_rows, build_parser, main
from excursia.covariance import clipped_autocovariance, parse_model_spec
from excursia.persistency import DegenerateTailError, empirical_survival


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def read_csv(path):
    meta = []
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_validate_json_keys(capsys):
    code, payload = run_json(capsys, ["validate", "--model", "shifted_gaussian(alpha=2)"])
    assert code == 0
    rep = payload["report"]
    for key in ["verdict", "monotone", "nonnegative", "integrable", "tail_class", "tail_rate", "first_violation_t"]:
        assert key in rep
    assert rep["verdict"] == "invalid_oscillating"
    assert payload["metadata"]["config"]["tmax"] == 50.0  # defaults echoed


def test_sample_refusal_exit_code(capsys):
    code = main(["sample", "--model", "shifted_gaussian(alpha=2)", "--what", "excursion", "--n", "10"])
    out = capsys.readouterr().out
    assert code == 2
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "invalid_oscillating"


def test_sample_and_persistency_refuse_a_survival_dipping_below_zero(tmp_path, capsys):
    # E0 of shifted_gaussian(alpha=0.2) turns negative past t* = 7.979, by
    # at most 1.1e-15 on the gate's grid; the gate decides on signs, so
    # both commands are refused with its report and nothing is written
    spec = "shifted_gaussian(alpha=0.2)"
    out = tmp_path / "vals.txt"
    for argv in (["sample", "--model", spec, "--what", "excursion", "--n", "200", "--seed", "3", "--output", str(out)],
                 ["persistency", "--model", spec, "--n", "2000", "--k", "200", "--reps", "2", "--seed", "5"]):
        code, payload = run_json(capsys, argv)
        assert code == 2
        assert payload["error"] == "validity_gate"
        assert payload["report"]["verdict"] == "invalid_oscillating"
        assert payload["report"]["first_violation_t"] == pytest.approx(7.98)
    assert not out.exists()


def test_sample_text_and_binary(tmp_path, capsys):
    txt = tmp_path / "vals.txt"
    code = main(["sample", "--model", "diffusion(d=2)", "--what", "divisor", "--n", "64", "--seed", "3", "--output", str(txt)])
    assert code == 0
    vals = np.array([float(x) for x in txt.read_text().split()])
    assert vals.size == 64 and np.all(vals > 0)

    binf = tmp_path / "vals.bin"
    code = main(["sample", "--model", "diffusion(d=2)", "--what", "divisor", "--n", "64", "--seed", "3", "--binary", "--output", str(binf)])
    assert code == 0
    bvals = np.frombuffer(binf.read_bytes(), dtype="<f8")
    assert np.allclose(bvals, vals, rtol=0, atol=0)
    capsys.readouterr()


def test_sample_binary_to_stdout(capsysbinary):
    assert main(["sample", "--model", "diffusion(d=2)", "--what", "divisor", "--n", "64", "--seed", "3", "--binary"]) == 0
    out = capsysbinary.readouterr().out
    assert len(out) == 8 * 64
    want = DivisorSampler(parse_model_spec("diffusion(d=2)")).draw(RngStream(3, 0), 64)
    assert np.array_equal(np.frombuffer(out, dtype="<f8"), want)


@pytest.mark.parametrize("what", ["e0", "rcl"])
def test_e0_curves_at_huge_t_have_no_nan_and_no_warning(what, capsys):
    # Matern's polynomial overflows above t ~ 1e154 (nu = 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["e0", "--what", what, "--model", "matern(nu=2.5)", "--tmin", "0", "--tmax", "1e300", "--step", "1e299"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3 + 11 and "nan" not in out


def test_sample_byte_identical_across_runs(tmp_path, capsys):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["sample", "--model", "matern(nu=2.5)", "--what", "excursion", "--n", "200", "--seed", "9", "--streams", "4"]
    assert main(argv + ["--output", str(f1)]) == 0
    assert main(argv + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    capsys.readouterr()


def test_sample_draws_on_at_most_n_streams(capsysbinary):
    # streams past the n-th draw nothing, and none of them is built
    argv = ["sample", "--model", "diffusion(d=2)", "--n", "3", "--seed", "5", "--binary", "--streams"]
    assert main(argv + ["1000000000000"]) == 0
    many = capsysbinary.readouterr().out
    assert main(argv + ["3"]) == 0
    assert many == capsysbinary.readouterr().out


@pytest.mark.parametrize("what", ["divisor", "excursion"])
def test_sample_splits_n_over_streams_in_order(what, capsysbinary):
    assert main(["sample", "--model", "matern(nu=2.5)", "--what", what, "--n", "10", "--seed", "4", "--streams", "4", "--binary"]) == 0
    sampler = DivisorSampler(parse_model_spec("matern(nu=2.5)"))
    draw = sampler.draw if what == "divisor" else lambda rng, m: sample_excursions(sampler, rng, m)[0]
    want = np.concatenate([draw(RngStream(4, i), m) for i, m in enumerate([3, 3, 2, 2])])
    assert np.array_equal(np.frombuffer(capsysbinary.readouterr().out, dtype="<f8"), want)


@pytest.mark.parametrize("what", ["divisor", "excursion"])
def test_sample_binary_writes_the_draws_without_copying_them(what, tmp_path, capsys):
    # 10^6 draws (8e6 bytes) peak at their values and the one stream's draw
    # copied into them, 15.5 MiB (divisor) and 16.8 MiB (excursion, with a
    # block's multiset); the binary export copies neither (its astype and
    # tobytes copies made both 22.9 MiB)
    out = tmp_path / "draws.bin"
    argv = ["sample", "--model", "diffusion(d=2)", "--what", what, "--seed", "2", "--binary", "--output", str(out), "--n"]
    assert main(argv + ["10"]) == 0  # imports and first-call set-up before tracing
    tracemalloc.start()
    try:
        assert main(argv + ["1000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * 10**6 + 2**21
    sampler = DivisorSampler(parse_model_spec("diffusion(d=2)"))
    want = sampler.draw(RngStream(2, 0), 10**6) if what == "divisor" else sample_excursions(sampler, RngStream(2, 0), 10**6)[0]
    assert out.read_bytes() == want.astype("<f8").tobytes()
    capsys.readouterr()


def test_e0_curve_rows(tmp_path, capsys):
    out = tmp_path / "e0.csv"
    assert main(["e0", "--what", "e0", "--model", "diffusion(d=2)", "--tmin", "0", "--tmax", "1", "--step", "0.5", "--output", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["t", "value", "log_value"]
    assert rows[0] == ["0", "1", "0"]
    assert any("config" in m for m in meta)

    rcl = tmp_path / "rcl.csv"
    t_star = 2.0 * np.arccosh(2.0)
    assert main(["e0", "--what", "rcl", "--model", "diffusion(d=2)", "--tmin", str(t_star), "--tmax", str(t_star), "--step", "1", "--output", str(rcl)]) == 0
    _, _, rrows = read_csv(rcl)
    assert float(rrows[0][1]) == pytest.approx(1.0 / 3.0, rel=1e-10)
    capsys.readouterr()


SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789012345680.0,
]
FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _column(draw, n):
    """n values as a list of Python floats or ints, or as a float64 or
    int64 array; integers stay within 2**53, where %.17g is exact."""
    kind = draw(st.sampled_from(["float", "float64", "int", "int64"]))
    if kind.startswith("float"):
        values = draw(st.lists(FLOATS, min_size=n, max_size=n))
        return values if kind == "float" else np.array(values)
    values = draw(st.lists(st.integers(-(2**53), 2**53), min_size=n, max_size=n))
    return values if kind == "int" else np.array(values, dtype=np.int64)


def _assert_rows_match_oracle(columns):
    assert _format_rows(columns) == g17_rows_oracle(zip(*columns)).encode()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 4]), st.integers(0, 30), st.data())
def test_format_rows_is_byte_identical_to_per_value_oracle(k, n, data):
    _assert_rows_match_oracle([data.draw(_column(n)) for _ in range(k)])


def test_format_rows_special_values():
    floats = np.array(SPECIAL_FLOATS)
    ints = [0, -1, 7, 2**53, -(2**53)] * 3
    for columns in ([floats], [floats, floats[::-1], ints, np.array(ints, dtype=np.int64)]):
        _assert_rows_match_oracle(columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60), st.sampled_from([1, 3]))
def test_format_rows_on_raw_bit_patterns(bits, k):
    # every double: subnormals, nan payloads, both zeros, both infinities
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_rows_match_oracle([np.roll(values, j) for j in range(k)])


def test_format_rows_powers_of_ten_and_neighbours():
    # every decade: the estimate of the decimal exponent is one off next to
    # a power of ten, and 1e23 and others round below the true power
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    _assert_rows_match_oracle([np.concatenate([values, -values])])


def _count_fallback(monkeypatch) -> list:
    """The values the export sends through Python's ``%``, as it runs."""
    calls = []
    fallback = cli._g17_one
    monkeypatch.setattr(cli, "_g17_one", lambda x: calls.append(x) or fallback(x))
    return calls


def test_format_rows_exact_ties_take_python_format(monkeypatch):
    # m 2**-e with odd m and 10**17 <= m 5**e < 10**18 has 18 significant
    # digits ending in 5: an exact tie at 17 digits (round half to even)
    ties = []
    for e in range(2, 40):
        lo, hi = -(-(10**17) // 5**e), min((10**18 - 1) // 5**e, 2**53 - 1)
        for m in np.linspace(lo, hi, 7).astype(np.int64) | 1:
            if lo <= m <= hi:
                ties.append(math.ldexp(float(m), -e))
    assert len(ties) > 100 and format(ties[0], ".18g")[-1] == "5"
    calls = _count_fallback(monkeypatch)
    _assert_rows_match_oracle([np.array(ties + [-t for t in ties])])
    assert len(calls) == 2 * len(ties)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 7]), st.sampled_from([1, 4]), st.integers(0, 40), st.data())
def test_format_rows_across_row_blocks(block, k, n, data):
    columns = [data.draw(_column(n)) for _ in range(k)]
    with mock.patch.object(cli, "_ROWS_PER_BLOCK", block):
        _assert_rows_match_oracle(columns)


def test_format_rows_default_blocks_and_fallback_share(monkeypatch):
    calls = _count_fallback(monkeypatch)
    values = np.random.default_rng(15).exponential(size=10**6)
    _assert_rows_match_oracle([values])
    assert len(calls) < 1e-4 * values.size
    # two columns whose rows cross the block boundary
    n = cli._ROWS_PER_BLOCK + 3
    _assert_rows_match_oracle([values[:n], -values[n : 2 * n]])


def _old_log(v):
    """log_value one row at a time: -inf at 0, nan below 0."""
    return np.log(v) if v > 0 else (-np.inf if v == 0 else np.nan)


@pytest.mark.parametrize(
    "what, spec",
    [
        ("e0", "shifted_gaussian(alpha=0)"),  # E0 underflows to 0: log -inf
        ("e0", "shifted_gaussian(alpha=2)"),  # E0 negative: log nan
        ("rcl", "shifted_gaussian(alpha=0)"),
        ("rcl", "shifted_gaussian(alpha=2)"),
        ("survival_mc", "diffusion(d=2)"),  # no draw beyond the far end: log -inf
    ],
)
def test_e0_csv_is_byte_identical_to_per_value_oracle(what, spec, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["e0", "--what", what, "--model", spec, "--tmin", "0", "--tmax", "45", "--step", "0.25", "--n", "200", "--seed", "3"]
    assert main(argv + ["--output", str(out)]) == 0
    model = parse_model_spec(spec)
    ts = np.arange(0.0, 45.0 + 0.125, 0.25)
    if what == "survival_mc":
        p, se = empirical_survival(excursion_multiset(model, RngStream(3, 0), 200)[0], ts)
        rows = [(t, pt, _old_log(pt), st_) for t, pt, st_ in zip(ts, p, se)]
    else:
        vals = np.asarray(e0(model, ts) if what == "e0" else clipped_autocovariance(model, ts))
        rows = [(t, v, _old_log(v)) for t, v in zip(ts, vals)]
    assert ts[0] == 0.0 and any(r[2] == -np.inf for r in rows)
    head = "".join(out.read_text().splitlines(keepends=True)[:3])
    assert out.read_bytes() == (head + g17_rows_oracle(rows)).encode()
    capsys.readouterr()


def test_survival_mc_curve_monotone(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["e0", "--what", "survival_mc", "--model", "diffusion(d=2)", "--tmin", "0", "--tmax", "20", "--step", "1", "--n", "20000", "--seed", "4", "--output", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["t", "value", "log_value", "se"]
    logs = [float(r[2]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(logs, logs[1:]))
    capsys.readouterr()


def test_pole_json(capsys):
    code, payload = run_json(capsys, ["pole", "--model", "diffusion(d=2)"])
    assert code == 0
    assert payload["method"] == "pole"
    assert payload["theta"] == pytest.approx(0.1862, abs=1e-3)
    assert len(payload["bracket"]) == 2
    assert payload["residual"] <= 1e-9
    assert payload["reference"]["pole"] == 0.1862
    assert payload["prefactor"] == pytest.approx(1.1954257, abs=1e-7)
    assert isinstance(payload["h_evals"], int) and payload["h_evals"] >= 3


def test_pole_json_carries_quadrature_error(capsys):
    code, payload = run_json(capsys, ["pole", "--model", "diffusion(d=2)"])
    assert code == 0
    assert math.isfinite(payload["quad_abserr"])
    assert 0.0 <= payload["quad_abserr"] <= 1e-12 * laplace_e0(Diffusion(d=2), 0.0)


@pytest.mark.parametrize("error", [laplace.QuadratureError("quadrature error estimate 1 exceeds"), laplace.TailFitError("survival does not decay"),
                                   DegenerateTailError("tail order statistics have no spread")])
def test_pole_numerical_failure_exit_three(error, capsys):
    with mock.patch.object(laplace, "find_pole", side_effect=error):
        assert main(["pole", "--model", "diffusion(d=2)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if not line.startswith("# wall_time_s=")]
    assert lines == [f"excursia: numerical failure: {error}"], captured.err


def test_a_new_numerical_failure_exits_three_with_no_cli_edit(capsys):
    # the exit code follows the exception's base, not a list in the CLI
    class _NewRefusal(slepian.NumericalFailure):
        pass

    with mock.patch.object(laplace, "find_pole", side_effect=_NewRefusal("eigenvalue -1e-3 of the Palm covariance")):
        assert main(["pole", "--model", "diffusion(d=2)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = [line for line in captured.err.splitlines() if not line.startswith("# wall_time_s=")]
    assert lines == ["excursia: numerical failure: eigenvalue -1e-3 of the Palm covariance"], captured.err


def test_pole_search_that_does_not_converge_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(laplace, "MAX_POLE_STEPS", 0)
    assert main(["pole", "--model", "diffusion(d=2)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "excursia: numerical failure: pole search did not converge in 0 steps" in captured.err


def test_every_exception_class_has_one_exit_code():
    # exit 1 (ValueError), 2 (ValidityError) or 3 (NumericalFailure): exactly one
    import excursia

    classes = []
    for info in pkgutil.iter_modules(excursia.__path__, "excursia."):
        if info.name != "excursia.__main__":
            module = importlib.import_module(info.name)
            classes += [c for c in vars(module).values() if isinstance(c, type) and issubclass(c, BaseException) and c.__module__ == module.__name__]
    assert {c.__name__ for c in classes} >= {"UsageError", "ModelSpecError", "ValidityError", "NumericalFailure", "DivergenceError", "DegenerateTailError", "InverseTableError"}
    for c in classes:
        usage = issubclass(c, ValueError) and not issubclass(c, slepian.NumericalFailure)
        kinds = [usage, c is slepian.ValidityError, issubclass(c, slepian.NumericalFailure)]
        assert kinds.count(True) == 1, c


@pytest.mark.parametrize("argv", [["sample", "--what", "divisor", "--n", "1000"], ["persistency", "--method", "mc", "--n", "2000", "--k", "100", "--reps", "2"]], ids=["sample", "persistency"])
def test_table_failure_inside_a_replication_exits_three(argv, capsys):
    # generalized_laplace(alpha=1e9) passes the gate, but its E0 underflows
    # to 0 before the first table node past 2^-9 can hold it: the table
    # refuses to build, in a replication as in a plain draw
    assert main([*argv, "--model", "generalized_laplace(alpha=1e9)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "excursia: numerical failure: survival of generalized_laplace(alpha=1e+09) is not strictly decreasing" in captured.err
    assert ("(in replication 0)" in captured.err) == (argv[0] == "persistency")


def test_pole_refusal_and_numerical_failure(capsys):
    for spec, verdict in [("shifted_gaussian(alpha=2)", "invalid_oscillating"), ("generalized_laplace(alpha=1)", "valid_but_power_tail_warning")]:
        code, payload = run_json(capsys, ["pole", "--model", spec])
        assert code == 2
        assert payload["error"] == "validity_gate"
        assert payload["report"]["verdict"] == verdict


@pytest.mark.parametrize("spec", ["shifted_gaussian(alpha=2)", "diffusion(d=3)"])
def test_validate_and_pole_build_one_gate_report(spec, capsys, monkeypatch):
    grids = []
    validate_iia = slepian.validate_iia
    monkeypatch.setattr(slepian, "validate_iia", lambda model, t_max, step: grids.append((t_max, step)) or validate_iia(model, t_max, step))

    def run(*argv):
        code = main([*argv, "--model", spec])
        return code, capsys.readouterr().out

    outputs = []
    for order in (("validate", "pole"), ("pole", "validate")):
        slepian._validity.cache_clear()
        laplace._evaluator.cache_clear()
        grids.clear()
        outputs.append(dict((cmd, run(cmd)) for cmd in order))
        assert grids == [(50.0, 0.01)]
    assert outputs[0] == outputs[1]  # the same bytes from a fresh or a cached report
    validated = json.loads(outputs[0]["validate"][1])["report"]
    assert validated == json.loads(json.dumps(validate_iia(parse_model_spec(spec)).as_dict()))
    assert outputs[0]["pole"][0] == (0 if spec.startswith("diffusion") else 2)
    # another grid is another report, built once
    for _ in range(2):
        code, out = run("validate", "--tmax", "20", "--step", "0.05")
        assert code == 0 and json.loads(out)["report"]["t_max"] == 20.0
    assert grids == [(50.0, 0.01), (20.0, 0.05)]


def test_persistency_json(capsys):
    code, payload = run_json(
        capsys,
        ["persistency", "--model", "diffusion(d=2)", "--n", "4000", "--k", "400", "--reps", "3", "--seed", "5", "--method", "both"],
    )
    assert code == 0
    methods = {e["method"] for e in payload["estimates"]}
    assert methods == {"tail_regression", "pole"}
    mc = next(e for e in payload["estimates"] if e["method"] == "tail_regression")
    for key in ["theta", "half_width", "n", "k", "reps", "seed"]:
        assert key in mc
    assert payload["reference"]["exceedance"] == 0.1858


def test_switch_csv(tmp_path, capsys):
    out = tmp_path / "switch.csv"
    assert main(["switch", "--dist", "exp:1.0", "--mode", "origin", "--horizon", "3", "--n", "20000", "--grid", "0.5:2.0:0.5", "--seed", "6", "--output", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["t", "E_hat", "R_hat", "SE"]
    assert len(rows) == 4
    e_at_1 = float(rows[1][1])
    assert e_at_1 == pytest.approx(math.exp(-2.0), abs=0.02)

    out2 = tmp_path / "switch_stat.csv"
    assert main(["switch", "--dist", "exp:1.0", "--mode", "stationary", "--horizon", "3", "--n", "20000", "--grid", "0.5:2.0:0.5", "--seed", "6", "--output", str(out2)]) == 0
    _, _, rows2 = read_csv(out2)
    r_at_1 = float(rows2[1][2])
    assert r_at_1 == pytest.approx(math.exp(-2.0), abs=0.02)
    capsys.readouterr()


def test_switch_divisor_distribution(tmp_path, capsys):
    out = tmp_path / "switch_div.csv"
    code = main(["switch", "--dist", "divisor:diffusion(d=2)", "--mode", "stationary", "--horizon", "4", "--n", "4000", "--grid", "1:3:1", "--seed", "2", "--output", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["t", "E_hat", "R_hat", "SE"]
    assert len(rows) == 3
    assert all(abs(float(r[1])) < 0.06 for r in rows)  # stationary mean ~ 0
    capsys.readouterr()


def test_switch_stationary_point_mass(tmp_path):
    # a uniform phase on the point mass: R is the triangle wave 1 - 2t
    out = tmp_path / "switch_point.csv"
    argv = ["switch", "--dist", "point:1", "--mode", "stationary", "--n", "20000", "--grid", "0.25:0.75:0.25", "--seed", "7"]
    assert main(argv + ["--output", str(out)]) == 0
    t, _, r_hat, se = np.array(read_csv(out)[2], dtype=float).T
    assert np.array_equal(t, [0.25, 0.5, 0.75])
    assert np.all(np.abs(r_hat - (1.0 - 2.0 * t)) <= 3 * se), (r_hat, se)


@pytest.mark.parametrize(
    "dist, n, count",
    [("exp:1e12", "100", "1e+14"), ("point:5e-324", "100", "inf"), ("exp:1", "100000000", "2e+08"), ("exp:1", "1" + "0" * 400, "inf")],
    ids=["exp-1e12", "point-5e-324", "n-1e8", "n-1e400"],
)
def test_switch_refuses_an_ensemble_too_large_to_hold(dist, n, count, capsys):
    # n (t/mu + 1) instants are counted as a float before any draw: 1e14,
    # inf (t/mu overflows), 2e8, and inf for 10^400 paths, past the float range
    assert main(["switch", "--dist", dist, "--n", n, "--grid", "1:1:1"]) == 1
    err = capsys.readouterr().err
    assert f"usage error: {n} paths to t = 1 need {count} switch instants, above the 1e+07 an ensemble holds" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha, t_star", [("0.22", 7.277), ("0.2259", 7.094)])
def test_switch_stationary_divisor_of_an_oscillating_model_is_refused(alpha, t_star, capsys):
    # E0 of shifted_gaussian(alpha) turns negative past t*: the gate
    # refuses the switching law (exit 2) before any inverse table is built
    argv = ["switch", "--dist", f"divisor:shifted_gaussian(alpha={alpha})", "--mode", "stationary", "--n", "100", "--grid", "0.5:1:0.5"]
    code, payload = run_json(capsys, argv)
    assert code == 2
    assert payload["error"] == "validity_gate"
    assert payload["report"]["verdict"] == "invalid_oscillating"
    assert 0.0 < payload["report"]["first_violation_t"] - t_star <= 0.01


@pytest.mark.parametrize("mode", ["origin", "stationary"])
def test_switch_rejects_single_path(mode, capsys):
    assert main(["switch", "--dist", "exp:1", "--mode", mode, "--n", "1", "--grid", "0.5:1:0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: need at least 2 paths" in captured.err


def test_reproduce_table2_small(tmp_path, capsys):
    out = tmp_path / "table2.csv"
    code = main(["reproduce", "table2", "--n", "4000", "--reps", "2", "--seed", "7", "--dmax", "2", "--k-divisor", "400", "--k-iia", "400", "--output", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["d", "divisor_theta", "divisor_ref", "iia_theta", "iia_ref", "pole_theta"]
    assert len(rows) == 2
    d2 = rows[1]
    assert float(d2[2]) == 0.496  # published constant, not computed
    assert float(d2[4]) == 0.1858
    assert float(d2[5]) == pytest.approx(0.18621, abs=1e-4)
    capsys.readouterr()


def test_reproduce_replications_never_share_a_stream(tmp_path, monkeypatch):
    # 60 replications per column: on streams 100 d + r and 100 d + 50 + r,
    # divisor replications 50..59 would draw the exceedance streams 0..9
    seen = []
    replicate = RngStream.replicate

    def recording(self, offset):
        stream = replicate(self, offset)
        seen.append(stream.stream_index)
        return stream

    monkeypatch.setattr(RngStream, "replicate", recording)
    argv = ["reproduce", "table2", "--dmax", "2", "--n", "200", "--reps", "60", "--k-divisor", "20", "--k-iia", "20"]
    assert main(argv + ["--output", str(tmp_path / "table2.csv")]) == 0
    assert len(seen) == 2 * 2 * 60
    assert len(set(seen)) == len(seen)


def test_reproduce_up_to_50_reps_keeps_its_streams(tmp_path):
    # with reps <= 50 the stride is 50: dimension d draws on streams
    # 100 d + r (divisor) and 100 d + 50 + r (exceedance), so such runs
    # write the bytes they wrote before the stride depended on reps
    n, k, reps, seed = 500, 50, 50, 9
    out = tmp_path / "table2.csv"
    argv = ["reproduce", "table2", "--dmax", "2", "--n", str(n), "--reps", str(reps), "--seed", str(seed)]
    assert main(argv + ["--k-divisor", str(k), "--k-iia", str(k), "--output", str(out)]) == 0
    _, _, rows = read_csv(out)
    for d, row in zip((1, 2), rows):
        sampler = DivisorSampler(Diffusion(d=d))
        div = tail_exponent_ci(sampler.draw, n, k, reps, RngStream(seed, 100 * d))
        iia = tail_exponent_ci(
            lambda st, m: excursion_multiset(sampler, st, m)[0], n, k, reps, RngStream(seed, 100 * d + 50)
        )
        assert (row[1], row[3]) == ("%.17g" % div.theta, "%.17g" % iia.theta), d


def test_models_listing(capsys):
    code, payload = run_json(capsys, ["models"])
    assert code == 0
    names = " ".join(m["name"] for m in payload["models"])
    for frag in ["diffusion", "random_acceleration", "shifted_gaussian", "matern", "generalized_laplace"]:
        assert frag in names
    # a tail class is measured by `validate`, not declared in the listing
    assert all(set(m) == {"name", "params"} for m in payload["models"])


def test_shifted_gaussian_gate_limit_is_the_one_the_listing_names(capsys):
    # E0 of shifted_gaussian turns negative past t* for every alpha > 0;
    # the gate refuses it from the alpha on where that negative part no
    # longer underflows to -0 (between 0.0408 and 0.041), and the listing
    # names that limit and leaves the verdict to validate
    verdicts = {}
    for alpha in ("0.0408", "0.041"):
        code, payload = run_json(capsys, ["validate", "--model", f"shifted_gaussian(alpha={alpha})"])
        verdicts[alpha] = (code, payload["report"]["verdict"])
    assert verdicts == {"0.0408": (0, "valid"), "0.041": (0, "invalid_oscillating")}
    _, payload = run_json(capsys, ["models"])
    (entry,) = [m for m in payload["models"] if m["name"] == "shifted_gaussian"]
    assert "0.041" in entry["params"]["alpha"] and "validate" in entry["params"]["alpha"]


@pytest.mark.parametrize(
    "argv",
    [
        ["e0", "--what", "survival_mc", "--model", "diffusion(d=2)", "--n", "0"],
        ["sample", "--model", "diffusion(d=2)", "--n", "-3"],
        ["reproduce", "table2", "--dmax", "1", "--n", "2000", "--reps", "1"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "0"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "1000", "--k", "1"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "1000", "--reps", "1"],
        ["reproduce", "table2", "--dmax", "1", "--n", "500"],
        ["switch", "--dist", "exp:1", "--n", "100", "--grid", "-1:1:0.5"],
        ["e0", "--model", "diffusion(d=2)", "--step", "0"],
        ["e0", "--model", "diffusion(d=2)", "--step", "-0.1"],
        ["e0", "--model", "diffusion(d=2)", "--tmin", "2", "--tmax", "1"],
        ["switch", "--dist", "exp:1", "--n", "10", "--grid", "0:1:0"],
        ["validate", "--model", "diffusion(d=2)", "--step", "0"],
        ["validate", "--model", "diffusion(d=2)", "--tmax", "5", "--step", "5"],
        ["sample", "--model", "diffusion(d=2)", "--n", "10", "--streams", "0"],
        ["reproduce", "table2", "--dmax", "0", "--n", "2000"],
        ["pole", "--model", "diffusion(d=2)", "--tmax", "0"],
        ["pole", "--model", "diffusion(d=2)", "--rel-tol", "-1"],
        ["pole", "--model", "diffusion(d=2)", "--rel-tol", "nan"],
        ["pole", "--model", "diffusion(d=2)", "--tmax", "inf"],
        ["pole", "--model", "diffusion(d=2)", "--tmax", "1"],
        ["pole", "--model", "diffusion(d=2)", "--rel-tol", "1"],
        ["e0", "--model", "diffusion(d=2)", "--tmin", "1e300", "--tmax", "1e300", "--step", "1"],
        ["validate", "--model", "diffusion(d=2)", "--tmax", "inf"],
        ["validate", "--model", "diffusion(d=2)", "--tmax", "nan"],
        ["validate", "--model", "diffusion(d=2)", "--tmax", "-5"],
        ["validate", "--model", "diffusion(d=2)", "--step", "nan"],
        ["switch", "--dist", "exp:inf", "--grid", "0:1:0.5"],
        ["switch", "--dist", "exp:nan", "--n", "10", "--grid", "0:1:0.5"],
        ["switch", "--dist", "gamma:nan,1", "--n", "10", "--grid", "0:1:0.5"],
        ["switch", "--dist", "point:inf", "--n", "10", "--grid", "0:1:0.5"],
        ["e0", "--model", "diffusion(d=2)", "--tmin", "-1", "--tmax", "1", "--step", "0.5"],
        ["e0", "--model", "diffusion(d=2)", "--step", "inf"],
        ["e0", "--model", "diffusion(d=2)", "--tmax", "1e7", "--step", "1e-3"],
        ["switch", "--dist", "exp:1", "--n", "10", "--grid", "0:1e9:1e-3"],
        ["validate", "--model", "diffusion(d=2)", "--tmax", "1e15", "--step", "1e-3"],
        ["validate", "--model", "diffusion(d=2)", "--tmax", "1e8", "--step", "1"],
        ["reproduce", "table2", "--dmax", "65", "--n", "2000", "--reps", "2"],
        ["sample", "--model", "diffusion(d=2)", "--n", "3", "--seed", "-1"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "2000", "--k", "100", "--reps", "2", "--seed", "-1"],
        ["switch", "--dist", "exp:1", "--n", "10", "--grid", "0.5:1:0.5", "--seed", "-1"],
        ["e0", "--what", "survival_mc", "--model", "diffusion(d=2)", "--n", "10", "--seed", "-1"],
        ["reproduce", "table2", "--dmax", "1", "--n", "2000", "--reps", "2", "--seed", "-1"],
        ["sample", "--model", "diffusion(d=2)", "--n", "1000000000000000000"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "1000000000000000000", "--reps", "2"],
        ["reproduce", "table2", "--dmax", "1", "--n", "1000000000000000000", "--reps", "2"],
        ["e0", "--what", "survival_mc", "--model", "diffusion(d=2)", "--n", "100000000000000000000"],
    ],
    ids=["e0-n0", "sample-n-3", "reproduce-reps1", "persistency-n0", "persistency-k1", "persistency-reps1", "reproduce-default-k-above-n", "switch-negative-time",
         "e0-step0", "e0-step-negative", "e0-tmax-below-tmin", "switch-grid-step0", "validate-step0",
         "validate-step-at-tmax", "sample-streams0", "reproduce-dmax0", "pole-tmax0",
         "pole-rel-tol-negative", "pole-rel-tol-nan", "pole-tmax-inf", "pole-tmax1", "pole-rel-tol1", "e0-step-below-spacing-at-tmax", "validate-tmax-inf", "validate-tmax-nan", "validate-tmax-negative", "validate-step-nan", "switch-exp-inf", "switch-exp-nan", "switch-gamma-nan", "switch-point-inf", "e0-negative-tmin", "e0-step-inf",
         "e0-grid-1e10-points", "switch-grid-1e12-points", "validate-grid-1e18-points", "validate-grid-1e8-points",
         "reproduce-dmax65", "sample-seed-1", "persistency-seed-1", "switch-seed-1", "e0-seed-1", "reproduce-seed-1",
         "sample-n1e18", "persistency-n1e18", "reproduce-n1e18", "e0-n1e20"],
)
def test_count_and_time_inputs_are_usage_errors(argv, capsys):
    # refused before any large allocation: a grid is counted, not built
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "excursia: usage error:" in captured.err
    assert "Traceback" not in captured.err


def test_usage_errors_exit_one(capsys):
    assert main(["sample", "--model", "not_a_model", "--n", "5"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main(["switch", "--dist", "weird:1"]) == 1
    capsys.readouterr()


def test_parser_built_once_and_reused(capsys):
    # main reuses one parser per process: repeated and failed parses must
    # leave no state behind
    assert build_parser() is build_parser()
    argv = ["sample", "--model", "diffusion(d=3)", "--what", "divisor", "--n", "5", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(["sample", "--model", "diffusion(d=3)", "--n", "many"]) == 1
    assert "excursia: usage error:" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv",
    [
        ["persistency", "--model", "diffusion(d=2)", "--n", "2000", "--k", "100", "--reps", "2", "--threads", "2"],
        ["reproduce", "table2", "--dmax", "1", "--n", "2000", "--reps", "2", "--threads", "2"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "2000", "--tail-frac", "0.1"],
    ],
    ids=["persistency-threads", "reproduce-threads", "persistency-tail-frac"],
)
def test_removed_options_are_unknown(argv, capsys):
    # replications run one after another and --k is the one tail count:
    # the retired flags are refused, not accepted and ignored
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "excursia: usage error:" in captured.err
    assert "unrecognized arguments: " + argv[-2] in captured.err


@pytest.mark.parametrize("value", ["abc", "0", "2"])
def test_threads_env_is_ignored(value, capsys, monkeypatch):
    argv = ["persistency", "--model", "random_acceleration", "--n", "2000", "--k", "200", "--reps", "2", "--seed", "8"]
    monkeypatch.delenv("EXCURSIA_THREADS", raising=False)
    code, plain = run_json(capsys, argv)
    assert code == 0
    monkeypatch.setenv("EXCURSIA_THREADS", value)
    code, with_env = run_json(capsys, argv)
    assert code == 0
    assert with_env == plain


def test_config_echo_has_no_removed_settings(tmp_path, capsys):
    code, payload = run_json(capsys, ["persistency", "--model", "diffusion(d=2)", "--n", "2000", "--k", "100", "--reps", "2"])
    assert code == 0
    config = payload["metadata"]["config"]
    assert config["k"] == 100
    assert "threads" not in config and "tail_frac" not in config
    out = tmp_path / "table2.csv"
    assert main(["reproduce", "table2", "--dmax", "1", "--n", "2000", "--reps", "2", "--output", str(out)]) == 0
    meta, _, _ = read_csv(out)
    config = json.loads(meta[1].removeprefix("# config "))
    assert config["reps"] == 2
    assert "threads" not in config and "tail_frac" not in config
    capsys.readouterr()


# In a fresh interpreter with scipy blocked from import: the parser, the
# benchmark workload commands at small sizes, the Monte Carlo confidence
# bounds, a power-tail transform at s > 0 and the covariance rebuilt from
# an expectation all run on numpy alone.  No command runs a thread pool, so
# the import leaves concurrent.futures out.
NO_SCIPY_GUARD = """
import math
import sys

sys.modules["scipy"] = None
from excursia import cli

import excursia as ex

cli.build_parser()
assert "concurrent.futures" not in sys.modules
out = sys.argv[1]
runs = [
    (0, ["pole", "--model", "diffusion(d=3)"]),
    (0, ["pole", "--model", "matern(nu=2.5)"]),
    (2, ["pole", "--model", "shifted_gaussian(alpha=2)"]),
    (0, ["validate", "--model", "generalized_laplace(alpha=1)"]),
    (0, ["validate", "--model", "diffusion(d=2)"]),
    (0, ["e0", "--model", "matern(nu=3.5)"]),
    (0, ["e0", "--what", "rcl", "--model", "diffusion(d=4)"]),
    (0, ["sample", "--what", "divisor", "--model", "diffusion(d=2)", "--n", "1000"]),
    (0, ["sample", "--what", "excursion", "--model", "generalized_laplace(alpha=1)", "--n", "3000", "--streams", "2"]),
    (0, ["switch", "--dist", "excursion:diffusion(d=2)", "--mode", "stationary", "--n", "500", "--grid", "0.5:2:0.5"]),
    (0, ["switch", "--dist", "divisor:matern(nu=2.5)", "--mode", "stationary", "--n", "500", "--grid", "0.5:2:0.5"]),
    (0, ["switch", "--dist", "gamma:2,1", "--mode", "stationary", "--n", "500", "--grid", "0.5:2:0.5"]),
    (0, ["reproduce", "table2", "--dmax", "4", "--n", "3000", "--reps", "2", "--seed", "3"]),
    (0, ["persistency", "--method", "mc", "--model", "shifted_gaussian(alpha=0)", "--n", "3000", "--k", "300", "--reps", "3"]),
]
for code, argv in runs:
    got = cli.main(argv + ["--output", out])
    assert got == code, (argv, got)
assert ex.laplace_e0(ex.GeneralizedLaplace(alpha=0.3), 1e-3) > 0.0
m = ex.Diffusion(d=2)
rows = ex.covariance_from_expectation(lambda u: ex.e0(m, u), 2 * math.pi, [1.0, 2.0])
assert abs(rows[1, 1] - ex.clipped_autocovariance(m, 2.0)) < 1e-12
print("done")
"""


def test_commands_and_integrals_run_with_scipy_blocked(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_GUARD, str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "done"
