import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import g17_rows_oracle

from excursia import Diffusion, RngStream, e0, laplace_e0, sample_excursions
from excursia.cli import _format_rows, build_parser, main
from excursia.covariance import clipped_autocovariance, parse_model_spec
from excursia.persistency import empirical_survival


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


def test_sample_and_persistency_on_a_survival_crossing_zero_inside_gate_tolerance(tmp_path, capsys):
    # shifted_gaussian(alpha=0.2) passes the validity gate although E0 dips
    # below zero (by less than 1e-12) just above eps/4
    spec = "shifted_gaussian(alpha=0.2)"
    out = tmp_path / "vals.txt"
    assert main(["sample", "--model", spec, "--what", "excursion", "--n", "200", "--seed", "3", "--output", str(out)]) == 0
    vals = np.array([float(x) for x in out.read_text().split()])
    assert vals.size == 200 and np.all(np.isfinite(vals)) and np.all(vals > 0)
    code, payload = run_json(capsys, ["persistency", "--model", spec, "--n", "2000", "--k", "200", "--reps", "2", "--seed", "5"])
    assert code == 0
    assert all(math.isfinite(e["theta"]) for e in payload["estimates"])


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


def test_sample_byte_identical_across_runs(tmp_path, capsys):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["sample", "--model", "matern(nu=2.5)", "--what", "excursion", "--n", "200", "--seed", "9", "--streams", "4"]
    assert main(argv + ["--output", str(f1)]) == 0
    assert main(argv + ["--output", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
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


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 4]), st.integers(0, 30), st.data())
def test_format_rows_is_byte_identical_to_per_value_oracle(k, n, data):
    columns = [data.draw(_column(n)) for _ in range(k)]
    assert _format_rows(columns) == g17_rows_oracle(zip(*columns))


def test_format_rows_special_values():
    floats = np.array(SPECIAL_FLOATS)
    ints = [0, -1, 7, 2**53, -(2**53)] * 3
    for columns in ([floats], [floats, floats[::-1], ints, np.array(ints, dtype=np.int64)]):
        assert _format_rows(columns) == g17_rows_oracle(zip(*columns))


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
        p, se = empirical_survival(sample_excursions(model, RngStream(3, 0), 200)[0], ts)
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


def test_pole_quadrature_gate_exit_three(capsys):
    assert main(["pole", "--model", "diffusion(d=2)", "--rel-tol", "1e-18"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: quadrature error estimate" in captured.err


def test_pole_tmax_cap(capsys):
    _, default = run_json(capsys, ["pole", "--model", "diffusion(d=2)"])
    code, capped = run_json(capsys, ["pole", "--model", "diffusion(d=2)", "--tmax", "40"])
    assert code == 0
    assert capped["metadata"]["config"]["tmax"] == 40.0
    assert capped["theta"] == pytest.approx(default["theta"], abs=1e-8)


def test_pole_refusal_and_numerical_failure(capsys):
    for spec, verdict in [("shifted_gaussian(alpha=2)", "invalid_oscillating"), ("generalized_laplace(alpha=1)", "valid_but_power_tail_warning")]:
        code, payload = run_json(capsys, ["pole", "--model", spec])
        assert code == 2
        assert payload["error"] == "validity_gate"
        assert payload["report"]["verdict"] == verdict


def test_persistency_json(capsys):
    code, payload = run_json(
        capsys,
        ["persistency", "--model", "diffusion(d=2)", "--n", "4000", "--k", "400", "--reps", "3", "--seed", "5", "--method", "both", "--threads", "2"],
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


def test_switch_stationary_without_size_biased_sampler_is_usage_error(capsys):
    assert main(["switch", "--dist", "point:1", "--mode", "stationary", "--n", "100", "--grid", "0.5:1:0.5"]) == 1
    err = capsys.readouterr().err
    assert "usage error: distribution 'point:1' has no size-biased sampler" in err
    assert "Traceback" not in err


def test_switch_size_biased_table_refusal_is_numerical_failure(capsys):
    # the size-biased survival of shifted_gaussian(alpha=0.22) crosses zero
    # too steeply for the inverse table's round-trip contract
    argv = ["switch", "--dist", "divisor:shifted_gaussian(alpha=0.22)", "--mode", "stationary", "--n", "100", "--grid", "0.5:1:0.5"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: inverse table of shifted_gaussian(alpha=0.22) misses the relative round trip" in captured.err


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


def test_models_listing(capsys):
    code, payload = run_json(capsys, ["models"])
    assert code == 0
    names = " ".join(m["name"] for m in payload["models"])
    for frag in ["diffusion", "random_acceleration", "shifted_gaussian", "matern", "generalized_laplace"]:
        assert frag in names
    # a tail class is measured by `validate`, not declared in the listing
    assert all(set(m) == {"name", "params"} for m in payload["models"])


@pytest.mark.parametrize(
    "argv",
    [
        ["e0", "--what", "survival_mc", "--model", "diffusion(d=2)", "--n", "0"],
        ["sample", "--model", "diffusion(d=2)", "--n", "-3"],
        ["reproduce", "table2", "--dmax", "1", "--n", "2000", "--reps", "1"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "0"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "1000", "--tail-frac", "2"],
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
        ["persistency", "--model", "diffusion(d=2)", "--n", "2000", "--k", "100", "--reps", "2", "--threads", "0"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "2000", "--k", "100", "--reps", "2", "--threads", "-2"],
        ["reproduce", "table2", "--dmax", "1", "--n", "2000", "--reps", "2", "--threads", "0"],
        ["pole", "--model", "diffusion(d=2)", "--rel-tol", "-1"],
        ["pole", "--model", "diffusion(d=2)", "--rel-tol", "nan"],
        ["pole", "--model", "diffusion(d=2)", "--tmax", "inf"],
        ["validate", "--model", "diffusion(d=2)", "--tmax", "inf"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "1000", "--tail-frac", "nan"],
        ["persistency", "--model", "diffusion(d=2)", "--n", "1000", "--tail-frac", "inf"],
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
    ],
    ids=["e0-n0", "sample-n-3", "reproduce-reps1", "persistency-n0", "persistency-tail-frac2",
         "persistency-k1", "persistency-reps1", "reproduce-default-k-above-n", "switch-negative-time",
         "e0-step0", "e0-step-negative", "e0-tmax-below-tmin", "switch-grid-step0", "validate-step0",
         "validate-step-at-tmax", "sample-streams0", "reproduce-dmax0", "pole-tmax0", "persistency-threads0",
         "persistency-threads-negative", "reproduce-threads0", "pole-rel-tol-negative", "pole-rel-tol-nan",
         "pole-tmax-inf", "validate-tmax-inf", "persistency-tail-frac-nan", "persistency-tail-frac-inf",
         "switch-exp-inf", "switch-exp-nan", "switch-gamma-nan", "switch-point-inf", "e0-negative-tmin", "e0-step-inf",
         "e0-grid-1e10-points", "switch-grid-1e12-points", "validate-grid-1e18-points", "validate-grid-1e8-points"],
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


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_threads_env_is_usage_error(value, capsys, monkeypatch):
    monkeypatch.setenv("EXCURSIA_THREADS", value)
    assert main(["persistency", "--model", "diffusion(d=2)", "--n", "2000", "--k", "100", "--reps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "excursia: usage error: EXCURSIA_THREADS" in captured.err


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("EXCURSIA_THREADS", "2")
    code, payload = run_json(capsys, ["persistency", "--model", "random_acceleration", "--n", "2000", "--k", "200", "--reps", "2", "--seed", "8"])
    assert code == 0
    assert payload["estimates"][0]["theta"] > 0


# In a fresh interpreter with scipy blocked from import: the parser, the
# benchmark workload commands at small sizes, the Monte Carlo confidence
# bounds, a power-tail transform at s > 0 and the covariance rebuilt from
# an expectation all run on numpy alone.
NO_SCIPY_GUARD = """
import math
import sys

sys.modules["scipy"] = None
from excursia import cli

import excursia as ex

cli.build_parser()
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
    env["EXCURSIA_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_GUARD, str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "done"
