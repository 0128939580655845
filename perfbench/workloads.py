"""Workload definitions: the operations each workload sends and the checks
its outputs must pass.

An operation is one call of ``skfading.cli.main`` with the argv built here.
Operation ``i`` of a run gets its own seed, derived from (workload, run
seed, i), so no two operations of a run share inputs and none can be
served from a cache.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# the acceptance suite lets the pooled Wilson upper bound reach 1.5 * eps
WILSON_FACTOR = 1.5
_WILSON_Z = 1.959963984540054  # two-sided 95%

REPORT_KEYS = {
    "trials", "errors", "dep", "ci95_lo", "ci95_hi",
    "aliasing_rate_per_iter", "avg_fwd_power", "avg_fb_power", "config_echo",
}


def op_seed(workload: str, seed: int, index) -> int:
    """63-bit seed of one operation, stable across Python and numpy versions."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def wilson_hi(errors: int, trials: int) -> float:
    """Upper end of the 95% Wilson score interval (checked independently of
    the program's own implementation)."""
    z2 = _WILSON_Z * _WILSON_Z
    p = errors / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _WILSON_Z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(min(center + half, 1.0), p)


class CheckError(Exception):
    """An operation's output is wrong."""


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


class Simulate:
    """Closed loop of ``simulate`` calls on one fixed scenario."""

    unit = "trials/s"
    rate_name = "trials_per_s"

    def __init__(self, name: str, config: dict, trials: int):
        self.name = name
        self.config = config
        self.trials = trials
        self.config_path = None
        self.errors = 0
        self.pooled_trials = 0

    def prepare(self, workdir: Path) -> None:
        self.config_path = workdir / f"{self.name}-config.json"
        self.config_path.write_text(json.dumps(self.config))

    def setup_argv(self, seed: int, index: int) -> list:
        return self._argv(1, op_seed(self.name, seed, f"setup{index}"))

    def op_argv(self, seed: int, index: int) -> list:
        return self._argv(self.trials, op_seed(self.name, seed, index))

    def _argv(self, trials: int, seed: int) -> list:
        return ["simulate", "--config", str(self.config_path),
                "--trials", str(trials), "--seed", str(seed)]

    def check(self, out: str, err: str) -> int:
        """Check one report; return the work it did (trials)."""
        _need(err == "", f"unexpected stderr: {err.strip()[:200]}")
        report = json.loads(out)
        _need(set(report) == REPORT_KEYS, f"report keys {sorted(report)}")
        trials, errors = report["trials"], report["errors"]
        _need(trials == self.trials, f"trials {trials} != {self.trials}")
        _need(0 <= errors <= trials, f"errors {errors} outside 0..{trials}")
        _need(report["dep"] == errors / trials, "dep != errors / trials")
        _need(report["ci95_lo"] <= report["dep"] <= report["ci95_hi"], "dep outside its CI")
        _need(math.isclose(report["ci95_hi"], wilson_hi(errors, trials), rel_tol=1e-9),
              "ci95_hi is not the Wilson upper bound")
        n, scheme = self.config["n"], self.config["scheme"]
        alias = report["aliasing_rate_per_iter"]
        _need(len(alias) == {1: n - 1, 2: n - 2, 3: 0}[scheme], f"{len(alias)} aliasing rates")
        _need(all(0.0 <= a <= 1.0 for a in alias), "aliasing rate outside [0, 1]")
        _need(math.isfinite(report["avg_fwd_power"]) and report["avg_fwd_power"] > 0,
              "forward power not positive")
        _need(math.isfinite(report["avg_fb_power"]) and report["avg_fb_power"] >= 0,
              "feedback power negative")
        _need(report["config_echo"] == self.config, "config_echo differs from the config")
        self.errors += errors
        self.pooled_trials += trials
        return trials

    def pooled_check(self):
        """Wilson bound of all trials pooled; (ok, description)."""
        if not self.pooled_trials:
            return True, "no trials pooled"
        hi = wilson_hi(self.errors, self.pooled_trials)
        limit = WILSON_FACTOR * self.config["eps"]
        return hi <= limit, (f"pooled {self.errors}/{self.pooled_trials} errors, "
                             f"Wilson hi {hi:.3e}, limit {limit:.3e}")


class RateSweep:
    """Closed loop of ``rate-sweep`` calls over a fixed N grid.

    Each operation draws its transmit power P from its own seed, so every
    curve cell of a run is distinct while the work per operation stays fixed.
    """

    unit = "cells/s"
    rate_name = "points_per_s"

    def __init__(self, name: str, fixed: dict, curves: list, n_values: list):
        self.name = name
        self.fixed = fixed
        self.curves = curves
        self.n_values = n_values
        self.spec_path = None

    def prepare(self, workdir: Path) -> None:
        self.spec_path = workdir / f"{self.name}-spec.json"

    def _power(self, seed: int, index) -> float:
        return 9.0 + 2.0 * op_seed(self.name, seed, index) / 2.0 ** 63

    def setup_argv(self, seed: int, index: int) -> list:
        return self._argv(self._power(seed, f"setup{index}"), self.n_values[:1])

    def op_argv(self, seed: int, index: int) -> list:
        return self._argv(self._power(seed, index), self.n_values)

    def _argv(self, power: float, n_values: list) -> list:
        spec = {"variable": "N", "values": n_values, "curves": self.curves,
                "fixed": dict(self.fixed, P=power)}
        self.spec_path.write_text(json.dumps(spec))
        return ["rate-sweep", "--spec", str(self.spec_path)]

    def check(self, out: str, err: str) -> int:
        """Check one CSV; return the work it did (curve cells)."""
        _need(err == "", f"unexpected stderr: {err.strip()[:200]}")
        lines = out.splitlines()
        _need(lines[0] == "x," + ",".join(self.curves), f"header {lines[0]!r}")
        rows = lines[1:]
        _need(len(rows) == len(self.n_values), f"{len(rows)} rows")
        for n, row in zip(self.n_values, rows):
            x, *cells = row.split(",")
            _need(x == str(n), f"row x={x!r}, expected {n}")
            _need(len(cells) == len(self.curves), f"row N={n} has {len(cells)} cells")
            rate = dict(zip(self.curves, map(float, cells)))
            _need(all(math.isfinite(r) and r >= 0 for r in rate.values()),
                  f"row N={n} has a negative or non-finite rate")
            # imperfect CSI never beats perfect CSI at the estimated gain
            _need(rate["theorem1"] <= rate["fd_baseline"], f"theorem1 > fd_baseline at N={n}")
            _need(rate["theorem2"] <= rate["tp_benchmark"], f"theorem2 > tp_benchmark at N={n}")
        return len(rows) * len(self.curves)

    def pooled_check(self):
        return True, "no pooled check for closed-form rates"


def workloads() -> dict:
    """Fresh workload objects by name; each run pools its own trial counts.

    Why each workload exists: BENCHMARK.json ("why") and README.md.
    """
    return {w.name: w for w in (
        Simulate(
            "sim_qs_many_small",
            {"scheme": 1, "n": 25, "eps": 1e-2, "sigma2": 1.0, "P": 10.0, "P_tilde": 10.0,
             "sigma_z": 1e-3, "h_hat": 0.9, "distortion": 0.05},
            2000,
        ),
        Simulate(
            "sim_tp_large",
            {"scheme": 2, "n": 80, "eps": 1e-2, "sigma2": 1.0, "P": 1.0, "P_tilde": 10.0,
             "sigma_z": 1e-3, "h1_hat": 0.9, "h2_hat": 0.5, "distortion": 0.05},
            60_000,
        ),
        Simulate(
            "sim_mp_block",
            {"scheme": 3, "n": 64, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
             "h_re": [1.0, 0.5, 0.3]},
            10_000,
        ),
        RateSweep(
            "rate_sweep",
            {"sigma2": 1.0, "P_tilde": 10.0, "sigma_z": 1e-3, "eps": 1e-6,
             "h": 0.9, "h_hat": 0.9, "distortion": 0.05,
             "h1": 0.9, "h2": 0.5, "h1_hat": 0.9, "h2_hat": 0.5,
             "h_re": [1.0, 0.5, 0.3]},
            ["theorem1", "theorem2", "fd_baseline", "tp_benchmark", "theorem3"],
            [25, 220, 415, 610, 805, 1000],
        ),
    )}
