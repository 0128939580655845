"""Command-line front end: rate sweeps, Monte Carlo runs, self checks.

Exit codes: 0 ok, 1 internal error, 2 bad configuration, 3 infeasible
parameters, 4 check-mode failure (observed error rate too high).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import multi_path as mp
from . import quasi_static as qs
from . import two_path as tp
from .numerics import ConfigError, InfeasibleError
from .selfcheck import run_selfcheck
from .simulation import (
    MAX_TRIALS,
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    check_number,
    monte_carlo,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK_FAILED = 4

# sweep variable -> config key it sets; an SNR value sets P = SNR * sigma2
_SWEEP_KEYS = {
    "N": "n",
    "D": "distortion",
    "sigmaZ": "sigma_z",
    "Ptilde": "P_tilde",
    "SNR": "P",
    "K": "subchannels",
}
SWEEP_VARIABLES = tuple(_SWEEP_KEYS)
# a range sweep is allocated before any point is evaluated
MAX_SWEEP_POINTS = 1_000_000
CURVE_LABELS = (
    "capacity_fd",
    "fd_baseline",
    "theorem1",
    "theorem2",
    "tp_benchmark",
    "theorem3",
    "theorem3_real_dim",
)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return cfg[key]


def _real(value, what: str) -> float:
    """A finite JSON number; bools, strings, NaN and infinities are config errors."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _integer(value, what: str) -> int:
    """A JSON integer, or a float with an integral value (25.0, not 25.7)."""
    if not _real(value, what).is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _value(value, key: str):
    """A config value: an integer for n and subchannels, else a finite number."""
    return (_integer if key in ("n", "subchannels") else _real)(value, key)


def _finite_float(text: str) -> float:
    """Parse a JSON float; NaN, Infinity and overflowing literals such as
    1e400 are config errors, so no report can echo them back."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{text} is not a finite JSON number")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level JSON object expected")
    return data


def _check_out(path) -> None:
    """Reject an --out path that names a directory or lies in a missing
    one, before any work runs."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"cannot write {path}: not a file path in an existing directory")


def _emit(text: str, path) -> None:
    """Write a command's output to path, or to stdout when path is unset."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# rate sweeps
# ---------------------------------------------------------------------------

def _sweep_values(spec: dict):
    values = _require(spec, "values", "sweep spec")
    if isinstance(values, dict):
        start = _real(_require(values, "start", "sweep range"), "sweep range start")
        stop = _real(_require(values, "stop", "sweep range"), "sweep range stop")
        count = _integer(_require(values, "count", "sweep range"), "sweep range count")
        if not 1 <= count <= MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweep range: count must lie in [1, {MAX_SWEEP_POINTS}], got {count}"
            )
        points = np.linspace(start, stop, count).tolist()
    elif isinstance(values, list) and values:
        points = [_real(v, "sweep value") for v in values]
    else:
        raise ConfigError("sweep spec: 'values' must be a list or a range object")
    return sorted(points)


def _apply_variable(fixed: dict, variable: str, x: float) -> dict:
    cfg = dict(fixed)
    key = _SWEEP_KEYS[variable]
    if variable == "SNR":
        x = x * _real(_require(cfg, "sigma2", "SNR sweep"), "sigma2")
    cfg[key] = _value(x, key)
    if variable == "SNR":  # a sigma2 not above 0 is named through the P it makes
        check_number(key, cfg[key])
    return cfg


def _taps_from(cfg: dict):
    re = _require(cfg, "h_re", "channel taps")
    im = cfg.get("h_im", [0.0] * len(re) if isinstance(re, list) else None)
    if not (isinstance(re, list) and re and isinstance(im, list)):
        raise ConfigError("h_re (and h_im, if given) must be nonempty lists of numbers")
    if len(im) != len(re):
        raise ConfigError("h_re and h_im must have the same length")
    return tuple(complex(_real(a, "h_re entry"), _real(b, "h_im entry"))
                 for a, b in zip(re, im))


def _scenario(cls, cfg: dict, context: str):
    """The scenario of class cls that cfg spells, read field by field: a field
    without a default is required, one with a default is optional, and
    scheme 3's taps h are read from h_re and h_im. The class checks them."""
    values = {}
    for field in dataclasses.fields(cls):
        key = field.name
        if cls is MultiPathScenario and key == "h":
            values[key] = _taps_from(cfg)
        elif field.default is dataclasses.MISSING:
            values[key] = _value(_require(cfg, key, context), key)
        elif key in cfg:
            values[key] = _value(cfg[key], key)
    return cls(**values)


def _eval_curve(label: str, cfg: dict) -> float:
    """The rate of one curve other than theorem3's at one sweep row."""
    if label == "theorem1":
        return _scenario(QuasiStaticScenario, cfg, label).derive().rate
    if label == "theorem2":
        return _scenario(TwoPathScenario, cfg, label).derive().rate

    def num(key):  # checked as the scenarios check their numbers
        return check_number(key, _value(_require(cfg, key, label), key))

    snr = num("P") / num("sigma2")
    n, eps = num("n"), num("eps")
    if label == "capacity_fd":
        return qs.capacity_fd(num("h"), snr)
    if label == "fd_baseline":
        return qs.rate_fd_baseline(num("h"), snr, n, eps)
    return tp.rate_tp_benchmark(num("h1"), num("h2"), snr, n, eps)


def _theorem3_plans(label: str, fixed: dict, variable: str, points: list) -> list:
    """The theorem3 plan of each sweep row, or the exception its cells re-raise.

    Each row is read as a MultiPathScenario, as simulate reads a scheme-3
    config, so a bad row fails with the error that config would raise.
    Rows that scan for their best subchannel count with the same taps,
    sigma2, P and eps share one scan, that of the group's first scenario.
    """
    plans = [None] * len(points)
    groups = {}  # (h, sigma2, P, eps) -> (first scenario, [(row, n)])
    for row, x in enumerate(points):
        try:
            scenario = _scenario(MultiPathScenario, _apply_variable(fixed, variable, x), label)
            if scenario.subchannels is not None:
                plans[row] = scenario.derive()
            else:
                key = (scenario.h, scenario.sigma2, scenario.P, scenario.eps)
                groups.setdefault(key, (scenario, []))[1].append((row, scenario.n))
        except ValueError as exc:  # InfeasibleError among them
            plans[row] = exc
    for scenario, members in groups.values():
        rows, ns = zip(*members)
        for row, plan in zip(rows, mp.optimize_subchannel_counts(scenario, ns)):
            plans[row] = plan
    return plans


def cmd_rate_sweep(spec_path: str, out_path):
    _check_out(out_path)
    spec = _load_json(spec_path)
    variable = _require(spec, "variable", "sweep spec")
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep variable must be one of {SWEEP_VARIABLES}")
    curves = _require(spec, "curves", "sweep spec")
    if not isinstance(curves, list) or not curves:
        raise ConfigError("sweep spec: 'curves' must be a nonempty list")
    for label in curves:
        if label not in CURVE_LABELS:
            raise ConfigError(f"unknown curve label '{label}' (known: {CURVE_LABELS})")
    fixed = spec.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ConfigError(f"sweep spec: 'fixed' must be a JSON object, got {fixed!r}")
    points = _sweep_values(spec)
    plans = None  # planned at the first theorem3 cell, under its label

    lines = ["x," + ",".join(curves)]
    for row, x in enumerate(points):
        cells = [_fmt(x)]
        cfg = _apply_variable(fixed, variable, x)
        for label in curves:
            try:
                if label in ("theorem3", "theorem3_real_dim"):
                    if plans is None:
                        plans = _theorem3_plans(label, fixed, variable, points)
                    plan = plans[row]
                    if isinstance(plan, Exception):
                        raise plan
                    rate = plan.rate if label == "theorem3" else plan.rate_per_real_dim
                else:
                    rate = _eval_curve(label, cfg)
                cells.append(_fmt(rate))
            except (InfeasibleError, ValueError) as exc:
                if isinstance(exc, ConfigError):
                    raise
                print(f"note: {label} infeasible at {variable}={x:g}: {exc}",
                      file=sys.stderr)
                cells.append("")
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

# scheme id -> the scenario class whose fields are that scheme's config keys
_SCENARIOS = {cls.scheme_id: cls
              for cls in (QuasiStaticScenario, TwoPathScenario, MultiPathScenario)}


def _scenario_from_config(cfg: dict):
    scheme = _require(cfg, "scheme", "simulate config")
    # a tuple, since a list or object scheme is unhashable
    if isinstance(scheme, bool) or scheme not in tuple(_SCENARIOS):
        raise ConfigError(f"unknown scheme {scheme!r} (expected 1, 2 or 3)")
    cls = _SCENARIOS[scheme]
    context = f"scheme {scheme} config"
    # a config key per field, but h_re and h_im for scheme 3's taps
    allowed = {field.name for field in dataclasses.fields(cls)} | {"scheme"}
    if cls is MultiPathScenario:
        allowed = allowed - {"h"} | {"h_re", "h_im"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:  # a mistyped key would otherwise leave its value to a default
        raise ConfigError(f"{context}: unknown key {', '.join(map(repr, unknown))} "
                          f"(allowed: {', '.join(sorted(allowed))})")
    try:
        return _scenario(cls, cfg, context)
    except ValueError as exc:  # a broken scheme rule is a config error here
        raise exc if isinstance(exc, ConfigError) else ConfigError(str(exc)) from None


def cmd_simulate(config_path: str, trials: int, seed: int, check: bool, out_path):
    _check_out(out_path)
    cfg = _load_json(config_path)
    if trials < 1:
        raise ConfigError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ConfigError(f"trials must be at most 2**56, the size of the trial-index "
                          f"field of a stream key, got {trials}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    scenario = _scenario_from_config(cfg)
    # an out-of-range scenario overflows somewhere in the closed loop; the
    # finiteness check below turns that into exit 3, so numpy's floating
    # point warnings would only repeat it on stderr
    with np.errstate(all="ignore"):
        report = monte_carlo(scenario, trials, seed)
    payload = {
        "trials": report.trials,
        "errors": report.error_count,
        "dep": report.dep_estimate,
        "ci95_lo": report.wilson_lo,
        "ci95_hi": report.wilson_hi,
        "aliasing_rate_per_iter": report.aliasing_rate_per_iteration.tolist(),
        "avg_fwd_power": report.avg_forward_power,
        "avg_fb_power": report.avg_feedback_power,
        "config_echo": cfg,
    }
    for key, value in payload.items():
        # NaN and Infinity are not JSON: a non-finite result means the
        # scenario left the range the closed loop can represent (the echoed
        # config is finite since _load_json)
        if key != "config_echo" and not np.all(np.isfinite(value)):
            raise InfeasibleError(f"report field '{key}' is not finite ({value!r})")
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)
    if check and report.wilson_hi > scenario.eps:
        print(
            f"check failed: Wilson upper bound {report.wilson_hi:.3e} exceeds "
            f"target {scenario.eps:.3e}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def cmd_selfcheck() -> int:
    results = run_selfcheck()
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  residual {r.residual:.3e}  "
              f"tol {r.tolerance:.1e}  {status}")
        ok &= r.passed
    return EXIT_OK if ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on first use, then reused by every main() call."""
    parser = argparse.ArgumentParser(
        prog="skfading",
        description="Feedback coding schemes for fading channels: closed-form "
                    "rate curves, Monte Carlo error simulation and self checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("rate-sweep", help="evaluate closed-form rate curves")
    sweep.add_argument("--spec", required=True, help="sweep specification (JSON)")
    sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")

    sim = sub.add_parser("simulate", help="Monte Carlo decoding-error run")
    sim.add_argument("--config", required=True, help="scenario configuration (JSON)")
    sim.add_argument("--trials", required=True, type=int)
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--check", action="store_true",
                     help="exit 4 unless the Wilson upper bound meets the target")
    sim.add_argument("--out", default=None, help="output JSON path (default stdout)")

    sub.add_parser("selfcheck", help="run the fast invariant suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rate-sweep":
            return cmd_rate_sweep(args.spec, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.trials, args.seed, args.check, args.out)
        return cmd_selfcheck()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
