import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skfading import cli
from skfading.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
)
from skfading.selfcheck import run_selfcheck


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


SCHEME1_CONFIG = {
    "scheme": 1,
    "n": 12,
    "eps": 1e-2,
    "sigma2": 1.0,
    "P": 10.0,
    "P_tilde": 10.0,
    "sigma_z": 1e-3,
    "h_hat": 0.9,
    "distortion": 0.0,
    "h": 0.9,
}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_report(tmp_path):
    cfg = write_json(tmp_path / "c.json", SCHEME1_CONFIG)
    out = tmp_path / "report.json"
    code = main(["simulate", "--config", cfg, "--trials", "400",
                 "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    expected_keys = {
        "trials", "errors", "dep", "ci95_lo", "ci95_hi",
        "aliasing_rate_per_iter", "avg_fwd_power", "avg_fb_power", "config_echo",
    }
    assert set(report) == expected_keys
    assert report["trials"] == 400
    assert report["ci95_lo"] <= report["dep"] <= report["ci95_hi"]
    assert len(report["aliasing_rate_per_iter"]) == SCHEME1_CONFIG["n"] - 1
    assert report["config_echo"] == SCHEME1_CONFIG


def test_simulate_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "c.json", SCHEME1_CONFIG)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["simulate", "--config", cfg, "--trials", "300",
                 "--seed", "123", "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--trials", "300",
                 "--seed", "123", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "r3.json"
    assert main(["simulate", "--config", cfg, "--trials", "300",
                 "--seed", "124", "--out", str(out3)]) == EXIT_OK
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_noiseless_check_passes(tmp_path):
    noiseless = dict(SCHEME1_CONFIG)
    noiseless["sigma_z"] = 0.0
    noiseless["noise_scale"] = 0.0
    # trials large enough that a zero-error Wilson bound clears eps
    cfg = write_json(tmp_path / "c.json", noiseless)
    out = tmp_path / "r.json"
    code = main(["simulate", "--config", cfg, "--trials", "2000",
                 "--seed", "5", "--check", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["dep"] == 0.0


def test_simulate_check_failure(tmp_path):
    # a tiny target makes the check unattainable at this trial count
    strict = dict(SCHEME1_CONFIG)
    strict["eps"] = 1e-9
    cfg = write_json(tmp_path / "c.json", strict)
    code = main(["simulate", "--config", cfg, "--trials", "50",
                 "--seed", "5", "--check", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_CHECK_FAILED


def test_simulate_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["simulate", "--config", str(bad), "--trials", "10",
                 "--seed", "1"]) == EXIT_BAD_CONFIG
    missing = dict(SCHEME1_CONFIG)
    del missing["P_tilde"]
    cfg = write_json(tmp_path / "c.json", missing)
    assert main(["simulate", "--config", cfg, "--trials", "10",
                 "--seed", "1"]) == EXIT_BAD_CONFIG


def command_argv(tmp_path, command, out=None, inputs=None):
    """argv of a small valid simulate or rate-sweep run; inputs replaces its
    config or spec path, out adds --out."""
    if command == "simulate":
        argv = ["simulate", "--config", inputs or write_json(tmp_path / "c.json", SCHEME1_CONFIG),
                "--trials", "10", "--seed", "1"]
    else:
        argv = ["rate-sweep", "--spec", inputs or write_json(tmp_path / "s.json", FIG2_SPEC)]
    return argv + (["--out", str(out)] if out is not None else [])


def forbid_work(monkeypatch):
    """Make any trial or sweep cell fail the command with exit 1."""
    def work(*args, **kwargs):
        raise AssertionError("work ran")

    for name in ("monte_carlo", "_eval_curve", "_theorem3_plans"):
        monkeypatch.setattr(cli, name, work)


@pytest.mark.parametrize("command", ["simulate", "rate-sweep"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_or_spec_is_a_config_error(tmp_path, capsys, command, kind):
    inputs = tmp_path / "inputs"
    if kind == "directory":
        inputs.mkdir()
    else:
        inputs.write_bytes(b'{"scheme": "\xff"}')
    assert main(command_argv(tmp_path, command, inputs=str(inputs))) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "rate-sweep"])
@pytest.mark.parametrize("out", ["missing/out", "."], ids=["missing_directory", "directory"])
def test_bad_out_path_fails_before_any_work(tmp_path, monkeypatch, capsys, command, out):
    forbid_work(monkeypatch)
    assert main(command_argv(tmp_path, command, out=tmp_path / out)) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that fails writes")
@pytest.mark.parametrize("command", ["simulate", "rate-sweep"])
def test_out_write_failure_is_a_config_error(tmp_path, capsys, command):
    assert main(command_argv(tmp_path, command, out="/dev/full")) == EXIT_BAD_CONFIG
    assert "No space left" in capsys.readouterr().err


def test_simulate_infeasible_config(tmp_path):
    infeasible = dict(SCHEME1_CONFIG)
    infeasible["distortion"] = 2.0  # csi ball contains zero gain
    cfg = write_json(tmp_path / "c.json", infeasible)
    assert main(["simulate", "--config", cfg, "--trials", "10",
                 "--seed", "1"]) == EXIT_INFEASIBLE


def test_simulate_scheme2_and_scheme3(tmp_path):
    cfg2 = write_json(tmp_path / "c2.json", {
        "scheme": 2, "n": 14, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
        "P_tilde": 10.0, "sigma_z": 1e-3, "h1_hat": 0.9, "h2_hat": 0.5,
        "distortion": 0.02,
    })
    out2 = tmp_path / "r2.json"
    assert main(["simulate", "--config", cfg2, "--trials", "200",
                 "--seed", "3", "--out", str(out2)]) == EXIT_OK
    cfg3 = write_json(tmp_path / "c3.json", {
        "scheme": 3, "n": 24, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
        "h_re": [0.9, 0.5], "subchannels": 3,
    })
    out3 = tmp_path / "r3.json"
    assert main(["simulate", "--config", cfg3, "--trials", "200",
                 "--seed", "3", "--out", str(out3)]) == EXIT_OK
    report = json.loads(out3.read_text())
    assert report["aliasing_rate_per_iter"] == []
    assert report["avg_fb_power"] == 0.0


def test_simulate_scheme2_zero_path_gain(tmp_path):
    # derive_params2 rates h2 = 0 through its H2 = 0 branch; the initial
    # estimate once added the silent look as 0 * inf = NaN, so the run
    # exited 3 on a non-finite forward power
    cfg = write_json(tmp_path / "c.json", {
        "scheme": 2, "n": 30, "eps": 0.01, "sigma2": 1.0, "P": 10.0,
        "P_tilde": 10.0, "sigma_z": 0.001, "h1_hat": 0.9, "h2_hat": 0.0,
        "distortion": 0.0,
    })
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", cfg, "--trials", "20000",
                 "--seed", "1", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert math.isfinite(report["avg_fwd_power"])
    assert report["ci95_hi"] <= 1.5 * 0.01


SCHEME3_CONFIG = {
    "scheme": 3, "n": 24, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
    "h_re": [0.9, 0.5], "subchannels": 3,
}


@pytest.mark.parametrize("seed,code", [
    ("-1", EXIT_BAD_CONFIG),
    (str(2**64), EXIT_BAD_CONFIG),
    (str(2**64 + 1), EXIT_BAD_CONFIG),
    (str(2**64 - 1), EXIT_OK),
])
def test_simulate_seed_range(tmp_path, capsys, seed, code):
    # seeds are not reduced modulo 2**64: out-of-range seeds are rejected
    # before any trial runs instead of aliasing an in-range seed
    cfg = write_json(tmp_path / "c.json", SCHEME1_CONFIG)
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", cfg, "--trials", "20",
                 "--seed", seed, "--out", str(out)]) == code
    if code == EXIT_BAD_CONFIG:
        assert "seed" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["trials"] == 20


@pytest.mark.parametrize("subchannels", [1, 24, 0, -3])
def test_simulate_subchannels_out_of_range(tmp_path, capsys, subchannels):
    # admissible counts for 2 taps and n = 24 are 2, ..., 23
    cfg = write_json(tmp_path / "c.json", dict(SCHEME3_CONFIG, subchannels=subchannels))
    assert main(["simulate", "--config", cfg, "--trials", "10",
                 "--seed", "1"]) == EXIT_BAD_CONFIG
    assert "subchannels" in capsys.readouterr().err


@pytest.mark.parametrize("base,key,value", [
    (SCHEME1_CONFIG, "P", "ten"),
    (SCHEME1_CONFIG, "P", float("nan")),
    (SCHEME1_CONFIG, "sigma2", float("inf")),
    (SCHEME1_CONFIG, "h", None),
    (SCHEME1_CONFIG, "distortion", True),
    (SCHEME1_CONFIG, "n", 25.7),
    (SCHEME1_CONFIG, "n", "12"),
    (SCHEME1_CONFIG, "noise_scale", -1.0),
    (SCHEME3_CONFIG, "subchannels", 2.5),
    (SCHEME3_CONFIG, "h_re", [0.9, "x"]),
    (SCHEME3_CONFIG, "h_re", 0.9),
])
def test_simulate_bad_config_values(tmp_path, capsys, base, key, value):
    cfg = write_json(tmp_path / "c.json", dict(base, **{key: value}))
    assert main(["simulate", "--config", cfg, "--trials", "10",
                 "--seed", "1"]) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_simulate_integral_float_accepted(tmp_path):
    cfg = write_json(tmp_path / "c.json", dict(SCHEME3_CONFIG, n=24.0, subchannels=3.0))
    assert main(["simulate", "--config", cfg, "--trials", "10",
                 "--seed", "1"]) == EXIT_OK


SCHEME2_CONFIG = {
    "scheme": 2, "n": 14, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
    "P_tilde": 10.0, "sigma_z": 1e-3, "h1_hat": 0.9, "h2_hat": 0.5,
    "distortion": 0.02,
}


@pytest.mark.parametrize("base,key,value", [
    (SCHEME1_CONFIG, "P", 0.0),
    (SCHEME1_CONFIG, "P", -1.0),
    (SCHEME1_CONFIG, "sigma2", 0.0),
    (SCHEME1_CONFIG, "P_tilde", 0.0),
    (SCHEME1_CONFIG, "sigma_z", -1e-3),
    (SCHEME1_CONFIG, "distortion", -0.1),
    (SCHEME1_CONFIG, "eps", 0.0),
    (SCHEME1_CONFIG, "eps", 1.0),
    (SCHEME1_CONFIG, "eps", 1.5),
    (SCHEME1_CONFIG, "eps", 5e-324),  # eps / (4 (n - 1)) would underflow
    (SCHEME1_CONFIG, "n", 1),
    (SCHEME2_CONFIG, "n", 3),
    (SCHEME2_CONFIG, "P", 0.0),
    ({**SCHEME3_CONFIG, "subchannels": 2}, "n", 3),  # 2 taps need n >= 4
    (SCHEME3_CONFIG, "h_re", [0.9]),
    (SCHEME3_CONFIG, "h_re", [0.0, 0.0]),
    (SCHEME3_CONFIG, "sigma2", 0.0),
    (SCHEME3_CONFIG, "eps", -1e-2),
])
def test_simulate_out_of_domain_values(tmp_path, capsys, base, key, value):
    cfg = write_json(tmp_path / "c.json", dict(base, **{key: value}))
    assert main(["simulate", "--config", cfg, "--trials", "1",
                 "--seed", "1"]) == EXIT_BAD_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_simulate_scheme3_alphabet_beyond_double_resolution(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "scheme": 3, "n": 120, "P": 1000, "eps": 1e-2, "sigma2": 1.0,
        "h_re": [1.0, 0.6, 0.3], "subchannels": 4,
    })
    assert main(["simulate", "--config", cfg, "--trials", "1",
                 "--seed", "1"]) == EXIT_INFEASIBLE
    assert "infeasible parameters" in capsys.readouterr().err


@pytest.mark.parametrize("base,change", [
    # |H_k|^2 overflows: water_fill used to reject the infinite gain
    (SCHEME3_CONFIG, {"h_re": [1e238, 0.5, 0.3], "subchannels": 4}),
    (SCHEME3_CONFIG, {"P": 1.7e308}),  # the block power K * P overflows
    (SCHEME1_CONFIG, {"P": 1.7e308}),  # used to be a math domain error
    (SCHEME1_CONFIG, {"h_hat": 1e181, "h": 1e181, "sigma2": 1e-9}),
    (SCHEME1_CONFIG, {"P_tilde": 1e308}),  # sqrt(12 * P_tilde) overflows
    (SCHEME2_CONFIG, {"h1_hat": 1e100}),  # its time-3 ratio term underflowed
    (SCHEME2_CONFIG, {"h2_hat": 1e160}),
    (SCHEME2_CONFIG, {"P": 1e300, "sigma2": 1e-9}),
    (SCHEME2_CONFIG, {"P_tilde": 1.7e308}),
    # the alphabet check comes before any n-long array; the design
    # trajectories once came first and failed to allocate 7.11 PiB (exit 1)
    (SCHEME1_CONFIG, {"n": 1e15}),
    (SCHEME2_CONFIG, {"n": 1e15}),
    (SCHEME3_CONFIG, {"n": 1e15}),
])
def test_simulate_extreme_magnitudes_are_infeasible(tmp_path, capsys, base, change):
    cfg = write_json(tmp_path / "c.json", dict(base, **change))
    assert main(["simulate", "--config", cfg, "--trials", "1",
                 "--seed", "1"]) == EXIT_INFEASIBLE
    assert "infeasible parameters" in capsys.readouterr().err


def test_simulate_scheme3_scan_beyond_its_limit(tmp_path, capsys):
    # without subchannels, n = 1e15 admits about 1e15 counts: the scan over
    # them never returned, and is now refused before it starts
    cfg = {key: value for key, value in SCHEME3_CONFIG.items() if key != "subchannels"}
    path = write_json(tmp_path / "c.json", dict(cfg, n=1e15))
    assert main(["simulate", "--config", path, "--trials", "1",
                 "--seed", "1"]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "infeasible parameters: scheme 3: n = 1000000000000000 admits 999999999999998 "
        "subchannel counts, more than the 100000 one scan may walk; set subchannels\n"
    )


@pytest.mark.parametrize("change,trials,field", [
    # true gain far outside the CSI ball: the MMSE gains overflow
    ({"h_hat": 0.9, "h": 1e150}, 3, "avg_fwd_power"),
    # gain^2 * SNR subnormal: the designed variances overflow
    ({"h_hat": 1e-160, "h": 1e-160, "sigma2": 1e-9}, 3, "avg_fwd_power"),
    # the feedback power sum overflows
    ({"P_tilde": 1.4e307}, 100, "avg_fb_power"),
])
def test_simulate_non_finite_report_is_infeasible(tmp_path, capsys, change, trials, field):
    cfg = write_json(tmp_path / "c.json", dict(SCHEME1_CONFIG, **change))
    out = tmp_path / "r.json"
    # a floating point warning is raised as an error, so one that escapes the
    # run makes it exit 1 instead of 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--config", cfg, "--trials", str(trials),
                     "--seed", "1", "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith(f"infeasible parameters: report field '{field}' is not finite")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400"])
def test_simulate_rejects_non_finite_literals(tmp_path, capsys, literal):
    # an unused key would otherwise be echoed back as NaN or Infinity
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SCHEME1_CONFIG)[:-1] + f', "note": {literal}}}')
    assert main(["simulate", "--config", str(cfg), "--trials", "1",
                 "--seed", "1"]) == EXIT_BAD_CONFIG
    assert f"{literal} is not a finite JSON number" in capsys.readouterr().err


# Property test of the config contract: whatever the values, a one-trial
# simulate runs (0), rejects the config (2) or reports infeasible (3); it
# never fails with an internal error (1). Values mix the documented domain,
# its violations and wrong JSON types; n stays at most 64 and tap lists
# short, so no example allocates large arrays.
WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
NONFINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
POSITIVE = (st.floats(1e-3, 1e3), st.floats(-1e3, 0.0))
NONNEGATIVE = (st.floats(0.0, 10.0), st.floats(-10.0, 0.0, exclude_max=True))
GAIN = (st.floats(-3.0, 3.0), NONFINITE)
# key -> (values in the documented domain, numbers outside it)
CONFIG_VALUES = {
    "n": (st.integers(2, 64), st.one_of(st.integers(-3, 1), st.floats(-3.0, 64.0))),
    "eps": (st.floats(sys.float_info.min, 0.5), st.one_of(
        st.floats(-1.0, sys.float_info.min, exclude_max=True), st.floats(1.0, 10.0))),
    "sigma2": POSITIVE,
    "P": POSITIVE,
    "P_tilde": POSITIVE,
    "sigma_z": NONNEGATIVE,
    "distortion": NONNEGATIVE,
    "noise_scale": (st.floats(0.0, 2.0), st.floats(-2.0, 0.0, exclude_max=True)),
    "h_hat": GAIN, "h": GAIN,
    "h1_hat": GAIN, "h2_hat": GAIN, "h1": GAIN, "h2": GAIN,
    "h_re": (st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
             st.lists(st.floats(-3.0, 3.0), max_size=1)),
    "h_im": (st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
             st.lists(st.floats(-3.0, 3.0), max_size=4)),
    "subchannels": (st.integers(2, 64), st.one_of(st.integers(-2, 1), st.floats(-2.0, 64.0))),
}
SCHEME_KEYS = {
    1: ("n", "eps", "sigma2", "P", "P_tilde", "sigma_z", "distortion", "h_hat",
        "h", "noise_scale"),
    2: ("n", "eps", "sigma2", "P", "P_tilde", "sigma_z", "distortion", "h1_hat",
        "h2_hat", "h1", "h2", "noise_scale"),
    3: ("n", "eps", "sigma2", "P", "h_re", "h_im", "subchannels", "noise_scale"),
}


@st.composite
def simulate_configs(draw):
    scheme = draw(st.sampled_from([1, 2, 3]) if draw(st.integers(0, 7))
                  else st.one_of(st.integers(-1, 5), WRONG_TYPES))
    keys = SCHEME_KEYS[scheme if scheme in (1, 2, 3) else 1]
    cfg = {"scheme": scheme}
    for key in keys:
        valid, invalid = CONFIG_VALUES[key]
        # per key: left out, outside the domain, non-finite, wrong type, or
        # (most often, so that whole configs reach the engine) in the domain
        pick = draw(st.integers(0, 63))
        if pick > 0:
            cfg[key] = draw([invalid, NONFINITE, WRONG_TYPES][pick - 1] if pick <= 3 else valid)
    return cfg


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=simulate_configs())
def test_simulate_config_contract(tmp_path_factory, cfg):
    folder = tmp_path_factory.mktemp("contract")
    path = write_json(folder / "c.json", cfg)
    with np.errstate(all="ignore"):
        code = main(["simulate", "--config", path, "--trials", "1", "--seed", "1",
                     "--out", str(folder / "r.json")])
    assert code in (EXIT_OK, EXIT_BAD_CONFIG, EXIT_INFEASIBLE), cfg


# ---------------------------------------------------------------------------
# rate-sweep
# ---------------------------------------------------------------------------

FIG2_SPEC = {
    "variable": "N",
    "values": [25, 50, 100, 200, 400],
    "curves": ["theorem1", "fd_baseline", "capacity_fd"],
    "fixed": {
        "sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "sigma_z": 1e-3,
        "eps": 1e-6, "h": 0.9, "h_hat": 0.9, "distortion": 0.05,
    },
}


def test_rate_sweep_fig2_shape(tmp_path):
    spec = write_json(tmp_path / "spec.json", FIG2_SPEC)
    out = tmp_path / "curve.csv"
    assert main(["rate-sweep", "--spec", spec, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,theorem1,fd_baseline,capacity_fd"
    rows = [line.split(",") for line in lines[1:]]
    xs = [float(r[0]) for r in rows]
    assert xs == sorted(xs)
    th1 = [float(r[1]) for r in rows]
    base = [float(r[2]) for r in rows]
    cap = [float(r[3]) for r in rows]
    # increasing in N, below the perfect-csi baseline, below capacity
    assert all(b > a for a, b in zip(th1, th1[1:]))
    assert all(t < b for t, b in zip(th1, base))
    assert all(b < c for b, c in zip(base, cap))


def test_rate_sweep_distortion_hits_zero(tmp_path):
    spec = {
        "variable": "D",
        "values": [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1],
        "curves": ["theorem1"],
        "fixed": {
            "sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "sigma_z": 1e-3,
            "eps": 1e-6, "h_hat": 0.9, "n": 100,
        },
    }
    out = tmp_path / "d.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    rates = [float(r[1]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[-1] == 0.0
    assert rates[-2] == 0.0  # D = 1.0 >= |h_hat|


def test_rate_sweep_fig7_ordering(tmp_path):
    spec = {
        "variable": "N",
        "values": [200, 400, 600, 800, 1000],
        "curves": ["theorem2", "theorem3", "theorem3_real_dim"],
        "fixed": {
            "sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "sigma_z": 1e-3,
            "eps": 1e-4, "h1_hat": 0.9, "h2_hat": 0.5, "distortion": 1e-6,
            "h_re": [0.9, 0.5],
        },
    }
    out = tmp_path / "f7.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for r in rows:
        th2, th3_per_dim = float(r[1]), float(r[3])
        assert th3_per_dim < th2


def test_rate_sweep_bit_stable(tmp_path):
    spec = write_json(tmp_path / "spec.json", FIG2_SPEC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["rate-sweep", "--spec", spec, "--out", str(out1)]) == EXIT_OK
    assert main(["rate-sweep", "--spec", spec, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_rate_sweep_infeasible_cell(tmp_path, capsys):
    spec = {
        "variable": "sigmaZ",
        "values": [0.0, 1.0, 6.0],  # sqrt(3*P_tilde) ~ 5.48 < 6 infeasible
        "curves": ["theorem1"],
        "fixed": {
            "sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "eps": 1e-4,
            "h_hat": 0.9, "distortion": 0.0, "n": 50,
        },
    }
    out = tmp_path / "sz.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    last = lines[-1].split(",")
    assert last[1] == ""
    assert "infeasible" in capsys.readouterr().err


def test_rate_sweep_range_form_and_bad_specs(tmp_path):
    spec = {
        "variable": "Ptilde",
        "values": {"start": 5.0, "stop": 50.0, "count": 4},
        "curves": ["theorem1"],
        "fixed": {
            "sigma2": 1.0, "P": 10.0, "sigma_z": 1e-3, "eps": 1e-4,
            "h_hat": 0.9, "distortion": 0.0, "n": 50,
        },
    }
    out = tmp_path / "pt.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    rates = [float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    bad = dict(spec, variable="bogus")
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "b.json", bad),
                 "--out", str(out)]) == EXIT_BAD_CONFIG
    bad = dict(spec, curves=["nope"])
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "b2.json", bad),
                 "--out", str(out)]) == EXIT_BAD_CONFIG
    # missing a required fixed parameter is a config error, not a blank cell
    incomplete = dict(spec)
    incomplete["fixed"] = {"sigma2": 1.0, "P": 10.0}
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "b3.json", incomplete),
                 "--out", str(out)]) == EXIT_BAD_CONFIG


@pytest.mark.parametrize("change", [
    {"values": ["x"]},
    {"values": {"start": 25, "stop": 100, "count": "x"}},
    {"fixed": dict(FIG2_SPEC["fixed"], h="one")},
])
def test_rate_sweep_non_numeric_values(tmp_path, capsys, change):
    # a non-numeric number is a config error, never a blank "infeasible" cell
    spec = write_json(tmp_path / "s.json", dict(FIG2_SPEC, **change))
    assert main(["rate-sweep", "--spec", spec,
                 "--out", str(tmp_path / "r.csv")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "infeasible" not in err


FIXED_N100 = dict(FIG2_SPEC["fixed"], n=100)


@pytest.mark.parametrize("change", [
    {"fixed": dict(FIG2_SPEC["fixed"], sigma2=0.0)},  # used to divide by zero
    {"fixed": dict(FIG2_SPEC["fixed"], sigma2=-1.0)},
    {"fixed": dict(FIG2_SPEC["fixed"], eps=2.0)},
    {"fixed": dict(FIG2_SPEC["fixed"], eps=0.0)},
    {"fixed": dict(FIG2_SPEC["fixed"], eps=5e-324)},
    {"fixed": dict(FIG2_SPEC["fixed"], P=-10.0)},
    {"fixed": dict(FIG2_SPEC["fixed"], P_tilde=0.0)},
    {"fixed": dict(FIG2_SPEC["fixed"], sigma_z=-1e-3)},
    {"fixed": dict(FIG2_SPEC["fixed"], distortion=-0.1)},
    # the same domains when the number comes from the sweep variable
    {"variable": "D", "values": [0.1, -0.1], "fixed": FIXED_N100},
    {"variable": "sigmaZ", "values": [-1.0], "fixed": FIXED_N100},
    {"variable": "Ptilde", "values": {"start": 0.0, "stop": 10.0, "count": 3},
     "fixed": FIXED_N100},
    {"variable": "SNR", "values": [0.0, 10.0], "fixed": FIXED_N100},
])
def test_rate_sweep_out_of_domain_numbers(tmp_path, capsys, change):
    # a number outside its domain is a config error, not a blank cell
    spec = write_json(tmp_path / "s.json", dict(FIG2_SPEC, **change))
    assert main(["rate-sweep", "--spec", spec,
                 "--out", str(tmp_path / "r.csv")]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "missing required key" not in err
    assert "infeasible" not in err


@pytest.mark.parametrize("count", [1e12, 10**6 + 1, 2**70])
def test_rate_sweep_huge_range_count(tmp_path, capsys, count):
    # rejected before the range is allocated (1e12 points would be 7.3 TiB)
    spec = dict(FIG2_SPEC, values={"start": 1.0, "stop": 2.0, "count": count})
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(tmp_path / "r.csv")]) == EXIT_BAD_CONFIG
    assert "count must lie in [1, 1000000]" in capsys.readouterr().err


def test_rate_sweep_huge_blocklength(tmp_path, capsys):
    # theorems 1 and 2 are rated without their n-long design trajectories,
    # as the perfect-CSI baselines are; they once exited 1 at N = 1e15 on a
    # 7.11 PiB allocation
    spec = {
        "variable": "N", "values": [1e15],
        "curves": ["theorem1", "fd_baseline", "theorem2", "tp_benchmark"],
        "fixed": dict(FIG2_SPEC["fixed"], h1=0.9, h2=0.5, h1_hat=0.9, h2_hat=0.5),
    }
    out = tmp_path / "r.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    x, th1, fd, th2, tp = out.read_text().splitlines()[1].split(",")
    assert x == "1e+15"
    assert 0.0 < float(th1) < float(fd) and 0.0 < float(th2) < float(tp)


def test_rate_sweep_theorem3_scan_beyond_its_limit(tmp_path, capsys):
    # N = 1e15 admits about 1e15 subchannel counts: the scan over them never
    # returned, and is now refused at once with a blank cell and a note
    spec = {"variable": "N", "values": [60, 1e15],
            "curves": ["theorem3", "theorem3_real_dim"],
            "fixed": {"sigma2": 1.0, "P": 10.0, "eps": 1e-6, "h_re": [1.0, 0.5, 0.3]}}
    out = tmp_path / "r.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    header, planned, refused = out.read_text().splitlines()
    assert refused == "1e+15,,"
    assert all(float(cell) > 0.0 for cell in planned.split(",")[1:])
    reason = ("scheme 3: n = 1000000000000000 admits 999999999999996 subchannel counts, "
              "more than the 100000 one scan may walk; set subchannels")
    assert capsys.readouterr().err == "".join(
        f"note: {label} infeasible at N=1e+15: {reason}\n" for label in spec["curves"])


@pytest.mark.parametrize("key,value", [
    ("h", 1e-300), ("h", 1e160), ("h1", 1e160), ("h2", 1e238),
    ("h_hat", 1e181), ("h1_hat", 1e100), ("P", 1.7e308), ("P_tilde", 1.7e308),
    ("h_re", [1e238, 0.5, 0.3]),
    ("h_re", [1e150, 1e150]),  # finite |H_k|^2, overflowing SNR: "inf" before
])
def test_rate_sweep_extreme_magnitudes_leave_blank_cells(tmp_path, capsys, key, value):
    spec = {
        "variable": "N", "values": [25, 60],
        "curves": ["capacity_fd", "fd_baseline", "theorem1", "theorem2",
                   "tp_benchmark", "theorem3"],
        "fixed": {"sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "sigma_z": 1e-3,
                  "eps": 1e-6, "h": 0.9, "h_hat": 0.9, "distortion": 0.05,
                  "h1": 0.9, "h2": 0.5, "h1_hat": 0.9, "h2_hat": 0.5,
                  "h_re": [1.0, 0.5, 0.3], key: value},
    }
    out = tmp_path / "r.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    cells = [c for row in out.read_text().splitlines()[1:] for c in row.split(",")[1:]]
    assert "" in cells  # the cells the value reaches are infeasible
    assert all(c == "" or math.isfinite(float(c)) for c in cells)
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("values, fixed", [
    ([30, 40], {"P": 10.0, "h_re": [1e-160, 1e-160]}),
    ([400], {"P": 1e-5, "h_re": [1e-155, 1e-160, 1e-170]}),
], ids=["two_taps", "three_taps"])
def test_rate_sweep_subnormal_power_gains_are_infeasible(tmp_path, capsys, values, fixed):
    # every |H_k|^2 is subnormal, so sigma2 / |H_k|^2 overflows: the water
    # fill once turned these into NaN powers, printed as rate 0, with numpy
    # warnings on stderr
    spec = {"variable": "N", "values": values, "curves": ["theorem3"],
            "fixed": {"sigma2": 1.0, "eps": 1e-6, **fixed}}
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                     "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[1:] == [f"{n}," for n in values]
    err = capsys.readouterr().err
    assert "Warning" not in err
    for n in values:
        assert f"theorem3 infeasible at N={n}: water_fill: noise_var / gain overflows" in err


def test_rate_sweep_snr_and_k_variables(tmp_path):
    spec = {
        "variable": "SNR",
        "values": [1.0, 10.0, 100.0],
        "curves": ["capacity_fd", "fd_baseline"],
        "fixed": {"sigma2": 1.0, "eps": 1e-4, "h": 0.9, "n": 100},
    }
    out = tmp_path / "snr.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    caps = [float(r.split(",")[1]) for r in out.read_text().strip().splitlines()[1:]]
    assert caps == sorted(caps)
    spec_k = {
        "variable": "K",
        "values": [2, 4, 8, 16],
        "curves": ["theorem3"],
        "fixed": {"sigma2": 1.0, "P": 10.0, "eps": 1e-4, "n": 120,
                  "h_re": [0.9, 0.5]},
    }
    out_k = tmp_path / "k.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "sk.json", spec_k),
                 "--out", str(out_k)]) == EXIT_OK
    rates = [float(r.split(",")[1]) for r in out_k.read_text().strip().splitlines()[1:]]
    assert len(rates) == 4


@pytest.mark.parametrize("fixed", [[1, 2], "abc", 5, None])
def test_rate_sweep_fixed_must_be_an_object(tmp_path, capsys, fixed):
    spec = dict(FIG2_SPEC, fixed=fixed)
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(tmp_path / "r.csv")]) == EXIT_BAD_CONFIG
    assert "'fixed' must be a JSON object" in capsys.readouterr().err


K_FIXED = {"sigma2": 1.0, "P": 10.0, "eps": 1e-4, "n": 120, "h_re": [0.9, 0.5]}


@pytest.mark.parametrize("variable, values, fixed", [
    ("K", [3.5], K_FIXED),
    ("K", [2, 4.25], K_FIXED),
    ("K", {"start": 3, "stop": 10, "count": 4}, K_FIXED),  # 3, 5.33, ...
    ("N", [24.5], FIG2_SPEC["fixed"]),  # banker's rounding read it as 24
    ("N", [25, 100.7], FIG2_SPEC["fixed"]),
])
def test_rate_sweep_non_integral_n_or_k(tmp_path, capsys, variable, values, fixed):
    # read like simulate's n and subchannels: never rounded to a neighbour
    spec = dict(FIG2_SPEC, variable=variable, values=values, fixed=fixed,
                curves=["theorem3"] if variable == "K" else FIG2_SPEC["curves"])
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(tmp_path / "r.csv")]) == EXIT_BAD_CONFIG
    assert "must be an integer" in capsys.readouterr().err


def test_rate_sweep_integral_floats_accepted(tmp_path):
    spec = dict(FIG2_SPEC, values=[25.0, 50], curves=["theorem1"])
    out = tmp_path / "r.csv"
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec),
                 "--out", str(out)]) == EXIT_OK
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["25", "50"]


# the orderings that planning every theorem3 row at the first theorem3 cell
# must keep: a cell's error names that cell's label and stops the sweep at
# that row, after the notes of the rows before it and before any after it
THEOREM3_FIXED = {
    "sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "sigma_z": 1e-3, "eps": 1e-6,
    "h_hat": 0.9, "distortion": 0.05, "h_re": [1.0, 0.5, 0.3],
}
NO_TAPS = "the multi-path model needs at least two taps"


@pytest.mark.parametrize("variable, values, curves, fixed, code, out, err", [
    ("N", [25, 60], ["theorem3_real_dim", "theorem1", "theorem3"],
     {key: v for key, v in THEOREM3_FIXED.items() if key != "P"}, EXIT_BAD_CONFIG, "",
     "configuration error: theorem3_real_dim: missing required key 'P'\n"),
    ("N", [25, 60.5], ["theorem1", "theorem3"], THEOREM3_FIXED, EXIT_BAD_CONFIG, "",
     "configuration error: n must be an integer, got 60.5\n"),
    ("N", [25, 60], ["theorem3", "theorem1", "theorem3_real_dim"],
     dict(THEOREM3_FIXED, h_re=[1.0]), EXIT_OK,
     "x,theorem3,theorem1,theorem3_real_dim\n25,,1.45353277033,\n60,,1.49151245526,\n",
     "".join(f"note: {label} infeasible at N={n}: {NO_TAPS}\n"
             for n in (25, 60) for label in ("theorem3", "theorem3_real_dim"))),
    ("SNR", [0, 10], ["theorem3", "theorem1"], dict(THEOREM3_FIXED, h_re=[1.0], n=60),
     EXIT_BAD_CONFIG, "", "configuration error: P must be above 0, got 0.0\n"),
], ids=["missing_P_names_first_label", "non_integral_n_only", "one_tap_notes",
        "zero_snr_before_notes"])
def test_rate_sweep_theorem3_orderings(tmp_path, capsys, variable, values, curves, fixed,
                                        code, out, err):
    spec = {"variable": variable, "values": values, "curves": curves, "fixed": fixed}
    assert main(["rate-sweep", "--spec", write_json(tmp_path / "s.json", spec)]) == code
    assert capsys.readouterr() == (out, err)


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def test_selfcheck_passes(capsys):
    import time

    t0 = time.monotonic()
    assert main(["selfcheck"]) == EXIT_OK
    assert time.monotonic() - t0 < 10.0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "FAIL" not in out
    # every check reports a measured residual
    assert out.count("residual") >= 8


def test_selfcheck_detects_perturbed_fixed_point(monkeypatch):
    import skfading.two_path as tp

    solve = tp.solve_rho_star
    monkeypatch.setattr(tp, "solve_rho_star", lambda *args: solve(*args) + 1e-3)
    results = run_selfcheck()
    by_name = {r.name: r for r in results}
    assert not by_name["variance-ratio fixed point"].passed
    assert all(r.passed for name, r in by_name.items()
               if name != "variance-ratio fixed point")


def test_selfcheck_detects_a_ziggurat_table_off_by_one_ulp(monkeypatch):
    import skfading.simulation as sim

    # every layer width one ulp wider than the cached table, as a numpy
    # build with other tables would draw its normals
    wi, ki = sim._ziggurat_tables()
    monkeypatch.setattr(sim, "_ziggurat_tables", lambda: (np.nextafter(wi, 1.0), ki))
    by_name = {r.name: r for r in run_selfcheck()}
    assert not by_name["keyed-stream contract"].passed
    assert all(r.passed for name, r in by_name.items() if name != "keyed-stream contract")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_parser_is_not_built_at_import():
    code = ("import skfading.cli as cli; "
            "print(cli.build_parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "0"


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main() builds its parser once per process; each call of this sequence
    # must give what a freshly built parser gives
    cfg = write_json(tmp_path / "c.json", SCHEME1_CONFIG)
    spec = write_json(tmp_path / "s.json", FIG2_SPEC)
    out = tmp_path / "r.json"
    calls = [
        ["simulate", "--config", cfg, "--trials", "x", "--seed", "1"],
        ["simulate", "--config", cfg, "--trials", "50", "--seed", "1", "--out", str(out)],
        ["simulate", "--config", cfg, "--trials", "50", "--seed", "1"],
        ["rate-sweep", "--spec", spec],
    ]

    def run_calls():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((code, captured.out, captured.err, written))
        return results

    assert cli.build_parser() is cli.build_parser()
    reused = run_calls()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = run_calls()
    assert reused == fresh
    rejected, to_file, to_stdout, sweep = reused
    assert rejected[0] == ("SystemExit", 2) and rejected[1] == ""
    assert "usage:" in rejected[2] and "--trials" in rejected[2]
    assert to_file[:2] == (EXIT_OK, "") and json.loads(to_file[3])["trials"] == 50
    # no --out: the report goes to stdout, not to the previous call's path
    assert to_stdout == (EXIT_OK, to_file[3].decode(), "", None)
    assert sweep[0] == EXIT_OK and sweep[1].startswith("x,theorem1,")
