"""Command-line front end: rate sweeps, Monte Carlo runs, self checks.

Exit codes: 0 ok, 1 internal error, 2 bad configuration, 3 infeasible
parameters, 4 check-mode failure (observed error rate too high).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import multi_path as mp
from . import quasi_static as qs
from . import two_path as tp
from .numerics import InfeasibleError
from .selfcheck import run_selfcheck
from .simulation import (
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    monte_carlo,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CHECK_FAILED = 4

# sweep variable -> (config key it sets, whether the value must be an
# integer); an SNR value sets P = SNR * sigma2
_SWEEP_KEYS = {
    "N": ("n", True),
    "D": ("distortion", False),
    "sigmaZ": ("sigma_z", False),
    "Ptilde": ("P_tilde", False),
    "SNR": ("P", False),
    "K": ("subchannels", True),
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


class ConfigError(ValueError):
    """Malformed or incomplete configuration input."""


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


# Lowest value of each config number that has a domain, and whether that
# value itself is allowed; eps must also stay below 1. Below the smallest
# normal double, eps / (4 (n - 1)) underflows to 0.
_DOMAINS = {
    "sigma2": (0.0, False),
    "P": (0.0, False),
    "P_tilde": (0.0, False),
    "sigma_z": (0.0, True),
    "distortion": (0.0, True),
    "eps": (sys.float_info.min, True),
}


def _number(cfg: dict, key: str, context: str) -> float:
    """A required config number, checked against its domain in _DOMAINS."""
    value = _real(_require(cfg, key, context), key)
    low, closed = _DOMAINS.get(key, (-math.inf, True))
    if value < low or (value == low and not closed):
        bound = "at least" if closed else "above"
        raise ConfigError(f"{key} must be {bound} {low:g}, got {value!r}")
    if key == "eps" and value >= 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {value!r}")
    return value


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
    key, integral = _SWEEP_KEYS[variable]
    if variable == "SNR":
        x = x * _real(_require(cfg, "sigma2", "SNR sweep"), "sigma2")
    cfg[key] = _integer(x, key) if integral else x
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


def _eval_curve(label: str, cfg: dict) -> float:
    def num(key):
        return _number(cfg, key, label)

    snr = num("P") / num("sigma2")
    n = _integer(_require(cfg, "n", label), "n")
    eps = num("eps")
    if label == "capacity_fd":
        return qs.capacity_fd(num("h"), snr)
    if label == "fd_baseline":
        return qs.rate_fd_baseline(num("h"), snr, n, eps)
    if label == "theorem1":
        csi = qs.TransmitterCsi(num("h_hat"), num("distortion"))
        params = qs.derive_params1(
            num("sigma2"), num("P"), num("P_tilde"), num("sigma_z"), csi, n, eps,
        )
        return params.rate
    if label == "theorem2":
        csi = tp.TransmitterCsi2(num("h1_hat"), num("h2_hat"), num("distortion"))
        params = tp.derive_params2(
            num("sigma2"), num("P"), num("P_tilde"), num("sigma_z"), csi, n, eps,
        )
        return params.rate
    if label == "tp_benchmark":
        return tp.rate_tp_benchmark(num("h1"), num("h2"), snr, n, eps)
    raise ConfigError(f"unknown curve label '{label}'")


def _theorem3_plans(label: str, fixed: dict, variable: str, points: list) -> list:
    """The theorem3 plan of each sweep row, or the exception its cells re-raise.

    Inputs are read in _eval_curve's order, so a bad config names the same key
    first. Rows that scan for their best subchannel count with the same taps,
    sigma2, P and eps share one scan.
    """
    plans = [None] * len(points)
    groups = {}  # (channel, eps) -> [(row, n)]
    for row, x in enumerate(points):
        try:
            cfg = _apply_variable(fixed, variable, x)
            P, sigma2 = _number(cfg, "P", label), _number(cfg, "sigma2", label)
            n = _integer(_require(cfg, "n", label), "n")
            eps = _number(cfg, "eps", label)
            channel = mp.MultiPathChannel(_taps_from(cfg), sigma2, P)
            if "subchannels" in cfg:
                k = _integer(cfg["subchannels"], "subchannels")
                plans[row] = mp.plan_block(channel, n, eps, k)
            else:
                groups.setdefault((channel, eps), []).append((row, n))
        except (InfeasibleError, ValueError) as exc:
            plans[row] = exc
    for (channel, eps), members in groups.items():
        rows, ns = zip(*members)
        try:
            found = mp.optimize_subchannel_counts(channel, ns, eps)
        except (InfeasibleError, ValueError) as exc:
            found = [exc] * len(rows)
        for row, plan in zip(rows, found):
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

def _scenario_from_config(cfg: dict):
    scheme = _require(cfg, "scheme", "simulate config")
    if scheme not in (1, 2, 3):
        raise ConfigError(f"unknown scheme {scheme!r} (expected 1, 2 or 3)")
    context = f"scheme {scheme} config"

    def real(key):
        return _number(cfg, key, context)

    def optional(key):
        return _real(cfg[key], key) if key in cfg else None

    # validation knob: scales the realized forward noise (0 = noiseless
    # loop) while the design still assumes sigma2
    noise_scale = optional("noise_scale")
    if noise_scale is not None and noise_scale < 0:
        raise ConfigError(f"noise_scale must be nonnegative, got {noise_scale!r}")
    n = _integer(_require(cfg, "n", context), "n")
    common = dict(
        n=n, eps=real("eps"), sigma2=real("sigma2"), P=real("P"),
        noise_scale=1.0 if noise_scale is None else noise_scale,
    )

    def check_n(minimum):
        if n < minimum:
            raise ConfigError(f"scheme {scheme} needs n of at least {minimum}, got {n}")

    if scheme in (1, 2):
        check_n(2 if scheme == 1 else 4)
        # CSI distortion bound and feedback link, shared by schemes 1 and 2
        feedback = dict(
            distortion=real("distortion"), P_tilde=real("P_tilde"),
            sigma_z=real("sigma_z"),
        )
    if scheme == 1:
        return QuasiStaticScenario(
            h_hat=real("h_hat"), h=optional("h"), **feedback, **common,
        )
    if scheme == 2:
        return TwoPathScenario(
            h1_hat=real("h1_hat"), h2_hat=real("h2_hat"),
            h1=optional("h1"), h2=optional("h2"), **feedback, **common,
        )
    taps = _taps_from(cfg)
    paths = len(taps)
    if paths < 2 or not any(taps):
        raise ConfigError("scheme 3 needs at least two channel taps, not all zero")
    check_n(2 * paths)
    k = _integer(cfg["subchannels"], "subchannels") if "subchannels" in cfg else None
    if k is not None and not paths <= k <= n - paths + 1:
        raise ConfigError(
            f"subchannels must lie in {{{paths}, ..., {n - paths + 1}}} "
            f"for {paths} taps and n={n}, got {k}"
        )
    return MultiPathScenario(h=taps, subchannels=k, **common)


def cmd_simulate(config_path: str, trials: int, seed: int, check: bool, out_path):
    _check_out(out_path)
    cfg = _load_json(config_path)
    if trials < 1:
        raise ConfigError("trials must be positive")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rate-sweep":
            return cmd_rate_sweep(args.spec, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.trials, args.seed, args.check, args.out)
        if args.command == "selfcheck":
            return cmd_selfcheck()
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
