"""Fast invariant suite behind the `selfcheck` command.

Each check returns its measured residual against a fixed tolerance; the
whole suite runs in a few seconds and touches the load-bearing math:
modulo reduction, transform unitarity, the fixed point, water-filling
optimality, the combining weight, the coupled-system cancellation, and
the keyed-stream contract. Random inputs come from keyed Philox streams,
like every draw in skfading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import two_path as tp
from .numerics import (
    circulant_matrix,
    channel_spectrum,
    dft,
    idft,
    modulo_reduce,
    philox_key,
    water_fill,
)
from .simulation import (
    TAG_DITHER,
    TAG_ENV,
    TAG_NOISE,
    QuasiStaticScenario,
    TwoPathScenario,
    _env_stream,
    _generator_rows,
    run_trials,
)

__all__ = ["CheckResult", "run_selfcheck"]


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _check_modulo_oracle() -> CheckResult:
    rng = Generator(Philox(key=philox_key(2024)))
    xs = rng.uniform(-40, 40, 10_000)
    d = 1.7
    fast = modulo_reduce(xs, d)
    ks = np.floor(xs / d)
    worst = 0.0
    for x, r, k0 in zip(xs, fast, ks):
        best = min(
            ((abs(x - k * d), -k) for k in range(int(k0) - 2, int(k0) + 3)),
        )
        worst = max(worst, abs(r - (x - (-best[1]) * d)))
    return CheckResult("modulo nearest-point oracle", worst, 1e-12)


def _check_modulo_distributive() -> CheckResult:
    rng = Generator(Philox(key=philox_key(7)))
    x, d1, d2 = rng.uniform(-20, 20, (3, 10_000))
    d = 2.3
    lhs = modulo_reduce(modulo_reduce(x + d1, d) + d2 - x, d)
    rhs = modulo_reduce(d1 + d2, d)
    return CheckResult("modulo distributive law", float(np.max(np.abs(lhs - rhs))), 1e-12)


def _check_dft_roundtrip() -> CheckResult:
    rng = Generator(Philox(key=philox_key(5)))
    worst = 0.0
    for k in (1, 2, 8, 64):
        x = rng.normal(size=k) + 1j * rng.normal(size=k)
        worst = max(worst, float(np.max(np.abs(idft(dft(x)) - x))))
        worst = max(worst, abs(np.linalg.norm(dft(x)) - np.linalg.norm(x)))
    return CheckResult("dft/idft roundtrip and norm", worst, 1e-12)


def _check_spectrum_diagonalization() -> CheckResult:
    taps = np.array([0.9, 0.5 + 0.2j, -0.1])
    k = 12
    gains = channel_spectrum(taps, k)
    dense = circulant_matrix(np.concatenate([taps, np.zeros(k - 3)]))
    f = np.fft.fft(np.eye(k), axis=0) / math.sqrt(k)
    lam = f @ dense @ f.conj().T
    off = lam - np.diag(np.diag(lam))
    resid = max(
        float(np.max(np.abs(np.diag(lam) - gains))),
        float(np.linalg.norm(off)),
    )
    return CheckResult("circulant diagonalization", resid, 1e-9)


def _check_rho_star() -> CheckResult:
    g1, g2, c = 0.85, 0.45, 9.3
    rho = tp.solve_rho_star(g1, g2, c, 1.0)
    resid = abs(rho - 1.0 / (1.0 + (g1 + g2 * math.sqrt(rho)) ** 2 * c))
    return CheckResult("variance-ratio fixed point", resid, 1e-10)


def _check_water_fill() -> CheckResult:
    rng = Generator(Philox(key=philox_key(11)))
    worst = 0.0
    for _ in range(50):
        g = rng.uniform(0, 2, 6)
        g[0] = max(g[0], 0.1)
        total = float(rng.uniform(1, 20))
        powers, level = water_fill(g, 1.0, total)
        worst = max(worst, abs(powers.sum() - total))
        for gk, pk in zip(g, powers):
            if pk > 0:
                worst = max(worst, abs(pk - (level - 1.0 / gk)))
            elif gk > 0 and level > 1.0 / gk:
                worst = max(worst, level - 1.0 / gk)
    return CheckResult("water-filling budget and slackness", worst, 1e-9)


def _check_combining_weight() -> CheckResult:
    h1, h2, P = 0.9, 0.5, 10.0
    rng = Generator(Philox(key=philox_key(3)))
    n = 20_000
    u = rng.normal(0, 1 / (h1 * math.sqrt(12 * P)), n)
    v = rng.normal(0, 1 / (h2 * math.sqrt(12 * P)), n)
    kappa = tp.combining_weight(h1, h2)
    best = np.mean((kappa * u + (1 - kappa) * v) ** 2)
    # a coarse grid around the closed form must not beat it
    margin = 0.0
    for k in np.linspace(0.3, 0.99, 24):
        if abs(k - kappa) < 0.03:
            continue
        margin = min(margin, float(np.mean((k * u + (1 - k) * v) ** 2) - best))
    return CheckResult("combining-weight optimality", max(-margin, 0.0), 0.0)


def _check_coupled_cancellation() -> CheckResult:
    sc1 = QuasiStaticScenario(
        h_hat=0.9, distortion=0.0, sigma2=1.0, P=2.0, P_tilde=10.0,
        sigma_z=1e-3, n=10, eps=1e-2, h=0.9,
    )
    sc2 = TwoPathScenario(
        h1_hat=0.9, h2_hat=-0.5, distortion=0.0, sigma2=1.0, P=2.0,
        P_tilde=10.0, sigma_z=1e-3, n=10, eps=1e-2, h1=0.9, h2=-0.5,
    )
    worst = max(
        run_trials(sc1, 77, range(100), coupled=True)["residual"],
        run_trials(sc2, 78, range(100), coupled=True)["residual"],
    )
    return CheckResult("coupled-system noise cancellation", worst, 1e-12)


def _check_stream_contract() -> CheckResult:
    """Scheme 2's streams at n = 80 for 300 trials, against fresh
    Generator(Philox(key=...)) draws: the environment from the vector pass,
    its artificial normal by the ziggurat tables taken from numpy (the
    check that guards other numpy builds), and the dither and noise rows
    of the re-keyed generators. The residual counts differing draws."""
    seed, indices, size = 2024, np.arange(300), 2_840_761
    u, w, art = _env_stream(seed, 2, [size], normal=True)(indices)
    dithers, noise = np.empty((78, 300)).T, np.empty((80, 300)).T
    _generator_rows(seed, indices, [(TAG_DITHER, "random", dithers),
                                    (TAG_NOISE, "standard_normal", noise)])
    got = np.column_stack([u, w.view(float), art, dithers, noise])
    expected = np.empty_like(got)
    for r, ix in enumerate(indices.tolist()):
        env, dither, fwd = (Generator(Philox(key=philox_key(seed, ix, tag)))
                            for tag in (TAG_ENV, TAG_DITHER, TAG_NOISE))
        expected[r, :2] = env.random(2)
        expected[r, 2] = np.int64(env.integers(1, size + 1)).view(float)
        expected[r, 3] = env.standard_normal()
        expected[r, 4:82] = dither.random(78)
        expected[r, 82:] = fwd.standard_normal(80)
    differing = np.count_nonzero(got.view(np.uint64) != expected.view(np.uint64))
    return CheckResult("keyed-stream contract", float(differing), 0.0)


def run_selfcheck():
    """Run every check."""
    return [
        _check_modulo_oracle(),
        _check_modulo_distributive(),
        _check_dft_roundtrip(),
        _check_spectrum_diagonalization(),
        _check_rho_star(),
        _check_water_fill(),
        _check_combining_weight(),
        _check_coupled_cancellation(),
        _check_stream_contract(),
    ]
