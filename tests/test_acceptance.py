"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `[criterion N] PASS ...` line with its measured
quantities (visible under `pytest -s` or in the captured output); a failed
assertion is the corresponding FAIL line. Monte Carlo checks run at desk
scale with eps in {1e-2, 1e-3}; the formulas are eps-parametric, so
nothing is lost against the small-eps configurations of the figures.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from skfading.multi_path import plan_block, variance_lemma3
from skfading.numerics import (
    circulant_matrix,
    modulo_reduce,
    water_fill,
)
from skfading.quasi_static import rate_fd_baseline
from skfading.simulation import (
    TAG_DITHER,
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    _keyed_streams,
    monte_carlo,
)
from skfading.two_path import combining_weight

from classical_sk import classical_sk_error_var, simulate_classical_sk

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def report(num, detail):
    print(f"[criterion {num}] PASS {detail}")


def elapsed_guard(num, t0, budget):
    spent = time.monotonic() - t0
    assert spent < budget, f"criterion {num} exceeded its {budget}s budget ({spent:.1f}s)"
    return spent


# ---------------------------------------------------------------------------
# 1. modulo-lattice oracle equivalence and dither statistics
# ---------------------------------------------------------------------------

def test_criterion_1_modulo_oracle_and_dither():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    xs = rng.uniform(-60.0, 60.0, 100_000)
    ds = rng.uniform(0.05, 7.0, 100_000)
    got = _vector_modulo(xs, ds)
    brute = _vector_brute_force(xs, ds)
    worst = float(np.max(np.abs(got - brute)))
    assert worst <= 1e-12

    # (i) range
    assert np.all(got >= -ds / 2)
    assert np.all(got < ds / 2)
    # (ii) distributive law on 1e5 random triples
    x, d1, d2 = rng.uniform(-30, 30, (3, 100_000))
    lhs = modulo_reduce(modulo_reduce(x + d1, 1.9) + d2 - x, 1.9)
    rhs = modulo_reduce(d1 + d2, 1.9)
    law = float(np.max(np.abs(lhs - rhs)))
    assert law <= 1e-12
    # (iii) dithered reduction is uniform: KS at the 1% level, 1e6 samples
    # spanning distinct deterministic inputs added to the dither; the
    # dithers are the engine's own: 1000 trials' keyed streams of 1000
    # uniforms each, shifted and scaled as the scheme-1 engine does
    d = 2.0
    v = np.empty((1000, 1000))
    for row, gen in zip(v, _keyed_streams(424242, range(1000), TAG_DITHER)):
        gen.random(out=row)
    v -= 0.5
    v *= d
    v = v.ravel()
    offsets = 0.37 * d * np.repeat(np.arange(4), 250_000)
    shifted = modulo_reduce(v + offsets, d)
    ks = stats.kstest((shifted + d / 2) / d, "uniform")
    assert ks.pvalue > 0.01
    # (iv) second moment d^2/12 within 1%
    second = float(np.mean(shifted ** 2))
    assert second == pytest.approx(d * d / 12.0, rel=0.01)
    spent = elapsed_guard(1, t0, 5.0)
    report(1, f"oracle gap {worst:.2e}, law {law:.2e}, KS p={ks.pvalue:.3f}, "
              f"2nd moment {second:.5f} vs {d*d/12:.5f} ({spent:.1f}s)")


def _vector_modulo(xs, ds):
    return modulo_reduce(xs, ds)  # broadcasts over per-element spacings


def _vector_brute_force(xs, ds):
    k0 = np.floor(xs / ds)
    # candidates ordered by descending k so ties resolve to the upper point
    cands = k0[None, :] + np.arange(2, -3, -1)[:, None]
    dist = np.abs(xs[None, :] - cands * ds[None, :])
    pick = np.argmin(dist, axis=0)
    kstar = cands[pick, np.arange(xs.size)]
    return xs - kstar * ds


# ---------------------------------------------------------------------------
# 2. classical variance law, on the test-local oracle in classical_sk.py
# ---------------------------------------------------------------------------

def test_criterion_2_classical_variance_law():
    t0 = time.monotonic()
    h, sigma2, P, n, trials = 1.0, 1.0, 3.0, 8, 100_000
    eps = simulate_classical_sk(h, sigma2, P, n, trials, seed=2025)
    worst_rel = 0.0
    for i in range(1, n + 1):
        got = float(np.var(eps[:, i - 1]))
        want = 1.0 / (12.0 * 3.0 * 4.0 ** (i - 1))
        assert want == pytest.approx(classical_sk_error_var(h, P / sigma2, i), rel=1e-12)
        rel = abs(got - want) / want
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.05, f"iteration {i}: {got:.4e} vs {want:.4e}"
    spent = elapsed_guard(2, t0, 30.0)
    report(2, f"worst relative deviation {worst_rel:.3%} over {n} iterations ({spent:.1f}s)")


# ---------------------------------------------------------------------------
# 3. desk-scale operational check of the quantized-feedback scheme
# ---------------------------------------------------------------------------

def test_criterion_3_quasi_static_desk_dep():
    t0 = time.monotonic()
    sc = QuasiStaticScenario(
        h_hat=0.9, distortion=0.05, sigma2=1.0, P=10.0, P_tilde=10.0,
        sigma_z=1e-3, n=25, eps=1e-2,
    )  # true h drawn uniformly in [h_hat - D, h_hat + D] per trial
    trials = 10_000
    rep = monte_carlo(sc, trials, master_seed=314159)
    assert rep.wilson_hi <= 1.5 * sc.eps
    assert rep.avg_forward_power <= 1.01 * sc.P
    # the per-iteration aliasing budget bounds the coupled-system marginals
    # (in the original system one wrap derails a trial for good, so its
    # per-iteration rates accumulate toward the eps/2 total instead)
    partner = monte_carlo(sc, trials, master_seed=314159, coupled=True)
    budget = sc.eps / (2 * (sc.n - 1))
    se = math.sqrt(budget * (1 - budget) / trials)
    assert np.all(partner.aliasing_rate_per_iteration <= budget + 3 * se)
    total_budget = sc.eps / 2
    se_tot = math.sqrt(total_budget * (1 - total_budget) / trials)
    assert np.all(rep.aliasing_rate_per_iteration <= total_budget + 3 * se_tot)
    spent = elapsed_guard(3, t0, 60.0)
    report(3, f"dep {rep.dep_estimate:.4f} (Wilson hi {rep.wilson_hi:.4f} <= "
              f"{1.5 * sc.eps}), fwd power {rep.avg_forward_power:.2f} <= "
              f"{1.01 * sc.P}, coupled alias max "
              f"{partner.aliasing_rate_per_iteration.max():.5f} <= {budget + 3 * se:.5f} "
              f"({spent:.1f}s)")


# ---------------------------------------------------------------------------
# 4. coupled-system identity
# ---------------------------------------------------------------------------

def test_criterion_4_coupled_identity():
    t0 = time.monotonic()
    sc = QuasiStaticScenario(
        h_hat=0.9, distortion=0.0, sigma2=1.0, P=2.0, P_tilde=10.0,
        sigma_z=1e-3, n=12, eps=1e-2, h=0.9,
    )
    trials = 100_000
    from skfading.simulation import run_trials

    out = run_trials(sc, 271828, np.arange(trials), coupled=True)
    residual = out["residual"]
    assert residual <= 1e-12
    params = sc.derive()
    var_n = float(np.mean(out["eps"][:, -1] ** 2))
    want = params.err_var_conservative[-1]
    assert var_n == pytest.approx(want, rel=0.05)
    spent = time.monotonic() - t0
    report(4, f"cancellation residual {residual:.2e} <= 1e-12 over "
              f"{trials} trials x {sc.n} steps; Var(eps'_N) {var_n:.3e} vs "
              f"closed form {want:.3e} ({spent:.1f}s)")


# ---------------------------------------------------------------------------
# 5. closed-form rate properties on a grid
# ---------------------------------------------------------------------------

def test_criterion_5_rate_properties_grid():
    t0 = time.monotonic()
    base = dict(sigma2=1.0, P=10.0, P_tilde=10.0, sigma_z=1e-3, eps=1e-3)
    h_hat = 0.9

    def rate(n=100, p_tilde=None, d=0.0, sz=None):
        return QuasiStaticScenario(
            h_hat=h_hat, distortion=d, sigma2=base["sigma2"], P=base["P"],
            P_tilde=base["P_tilde"] if p_tilde is None else p_tilde,
            sigma_z=base["sigma_z"] if sz is None else sz, n=n, eps=base["eps"],
        ).derive().rate

    checked = 0
    rng = np.random.default_rng(5150)
    # nondecreasing in N
    n_grid = np.linspace(20, 800, 25).astype(int)
    rates_n = [rate(n=n) for n in n_grid]
    assert all(b >= a - 1e-12 for a, b in zip(rates_n, rates_n[1:]))
    checked += len(n_grid)
    # nondecreasing in the feedback budget
    pt_grid = np.linspace(2.0, 80.0, 25)
    rates_pt = [rate(p_tilde=pt) for pt in pt_grid]
    assert all(b >= a - 1e-12 for a, b in zip(rates_pt, rates_pt[1:]))
    checked += len(pt_grid)
    # nonincreasing in the distortion bound; zero exactly when it
    # swallows the estimate
    d_grid = np.concatenate([np.linspace(0.0, 0.8, 21), [0.9, 1.0, 1.1, 1.3]])
    rates_d = [rate(d=d) for d in d_grid]
    assert all(b <= a + 1e-12 for a, b in zip(rates_d, rates_d[1:]))
    for d, r in zip(d_grid, rates_d):
        assert (r == 0.0) == (abs(h_hat) <= d), f"D={d}: rate {r}"
    checked += len(d_grid)
    # nonincreasing in the quantizer fineness
    sz_grid = np.linspace(0.0, 1.2, 26)
    rates_sz = [rate(sz=sz) for sz in sz_grid]
    assert all(b <= a + 1e-12 for a, b in zip(rates_sz, rates_sz[1:]))
    checked += len(sz_grid)
    assert checked >= 100
    # upper bound: never above the perfect-csi baseline with any
    # ball-consistent true gain
    for n in n_grid:
        for d in (0.0, 0.05, 0.2):
            r = rate(n=int(n), d=d)
            h = h_hat + rng.uniform(-d, d)
            assert r <= rate_fd_baseline(h, 10.0, int(n), base["eps"]) + 1e-12
    spent = elapsed_guard(5, t0, 1.0)
    report(5, f"{checked} grid points: monotone in N and P_tilde, "
              f"antitone in D and sigma_z, rate 0 iff |h_hat| <= D, below "
              f"the baseline ({spent:.2f}s)")


# ---------------------------------------------------------------------------
# 6. two-path fixed point, calibration, steady ratio, combining weight
# ---------------------------------------------------------------------------

def test_criterion_6_two_path_fixed_point_and_calibration():
    t0 = time.monotonic()
    rng = np.random.default_rng(606)
    worst_resid = 0.0
    worst_round = 0.0
    for _ in range(100):
        h1_hat, h2_hat, d = (rng.uniform(0.2, 1.5), rng.uniform(0.1, 1.2),
                             rng.uniform(0.0, 0.08))
        params = TwoPathScenario(
            h1_hat=h1_hat, h2_hat=h2_hat, distortion=d, sigma2=1.0,
            P=float(rng.uniform(2, 30)), P_tilde=float(rng.uniform(4, 40)),
            sigma_z=float(rng.uniform(0, 0.01)),
            n=int(rng.integers(8, 200)), eps=float(10 ** rng.uniform(-6, -2)),
        ).derive()
        g1, g2 = abs(h1_hat) - d, abs(h2_hat) - d  # the worst gains in the CSI ball
        c = params.P / params.sigma2 * params.scaled_err_var / params.arg_var_bound
        rho = params.var_ratio_star
        worst_resid = max(worst_resid, abs(
            rho - 1.0 / (1.0 + (g1 + g2 * math.sqrt(rho)) ** 2 * c)
        ))
        assert params.var_ratio_4 - 1e-12 <= rho < 1.0
        eff = params.sigma2 + params.art_noise_var
        rho4u = 1.0 / (
            1.0 + (g1 + g2 * math.sqrt(params.var_ratio_3)) ** 2
            * (params.P / eff) * (params.scaled_err_var / params.arg_var_bound)
        )
        worst_round = max(worst_round, abs(rho4u - rho))
    assert worst_resid <= 1e-10
    assert worst_round <= 1e-10

    # simulated coupled variance ratio sits at the fixed point
    sc = TwoPathScenario(
        h1_hat=0.9, h2_hat=0.5, distortion=0.0, sigma2=1.0, P=10.0,
        P_tilde=10.0, sigma_z=1e-3, n=30, eps=1e-2, h1=0.9, h2=0.5,
    )
    trials = 100_000
    rep = monte_carlo(sc, trials, master_seed=161803, coupled=True)
    params = sc.derive()
    traj = rep.mean_var_trajectory
    worst_ratio = 0.0
    for i in range(5, 13):  # variance at time i+1 over time i
        ratio = traj[i] / traj[i - 1]
        worst_ratio = max(worst_ratio, abs(ratio - params.var_ratio_star)
                          / params.var_ratio_star)
        assert ratio == pytest.approx(params.var_ratio_star, rel=0.05)

    # closed-form combining weight dominates a 1001-point grid in empirical
    # mean square error, within three paired standard errors
    h1, h2, P = 0.9, 0.5, 10.0
    kappa = combining_weight(h1, h2)
    n_samp = 100_000
    grid_rng = np.random.default_rng(999)
    u = grid_rng.normal(0.0, 1.0 / (h1 * math.sqrt(12 * P)), n_samp)
    v = grid_rng.normal(0.0, 1.0 / (h2 * math.sqrt(12 * P)), n_samp)
    base_err = (kappa * u + (1 - kappa) * v) ** 2
    worst_z = math.inf
    for g in np.linspace(0.0, 1.0, 1001):
        diff = (g * u + (1 - g) * v) ** 2 - base_err
        mean = float(np.mean(diff))
        se = float(np.std(diff, ddof=1)) / math.sqrt(n_samp)
        if se == 0.0:
            continue
        worst_z = min(worst_z, mean / se if se else math.inf)
        assert mean + 3 * se >= 0.0, f"grid point {g} beats the closed form"
    spent = elapsed_guard(6, t0, 90.0)
    report(6, f"fixed-point residual {worst_resid:.2e}, calibration roundtrip "
              f"{worst_round:.2e}, steady-ratio deviation {worst_ratio:.2%}, "
              f"grid dominance worst z {worst_z:.2f} >= -3 ({spent:.1f}s)")


# ---------------------------------------------------------------------------
# 7. two-path desk-scale decoding error and pilot
# ---------------------------------------------------------------------------

def test_criterion_7_two_path_desk_dep():
    t0 = time.monotonic()
    sc = TwoPathScenario(
        h1_hat=0.9, h2_hat=0.5, distortion=0.05, sigma2=1.0, P=10.0,
        P_tilde=10.0, sigma_z=1e-3, n=30, eps=1e-2,
    )
    trials = 10_000
    from skfading.simulation import run_trials, wilson_interval

    out = run_trials(sc, 141421, np.arange(trials))
    errors = int(trials - np.count_nonzero(out["correct"]))
    _, hi = wilson_interval(errors, trials)
    assert hi <= 1.5 * sc.eps
    assert np.all(out["pilot_ok"]), "pilot sign must be recovered in every trial"
    avg_pow = float(np.mean(out["pow_fwd"]))
    assert avg_pow <= 1.01 * sc.P
    spent = elapsed_guard(7, t0, 60.0)
    report(7, f"dep {errors / trials:.4f} (Wilson hi {hi:.4f} <= {1.5 * sc.eps}), "
              f"pilot recovered {trials}/{trials}, fwd power {avg_pow:.2f} "
              f"({spent:.1f}s)")


# ---------------------------------------------------------------------------
# 8. multi-path structure
# ---------------------------------------------------------------------------

def test_criterion_8_multi_path_structure():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    worst_conv = 0.0
    worst_diag = 0.0
    for _ in range(100):
        num_paths = int(rng.integers(2, 6))
        k = int(rng.integers(num_paths, 24))
        taps = rng.normal(size=num_paths) + 1j * rng.normal(size=num_paths)
        d = rng.normal(size=k) + 1j * rng.normal(size=k)
        sent = np.concatenate([d[-(num_paths - 1):], d])
        received = np.convolve(sent, taps)[: sent.size]
        retained = received[num_paths - 1:]
        padded = np.concatenate([taps, np.zeros(k - num_paths)])
        dense = circulant_matrix(padded)
        worst_conv = max(worst_conv, float(np.max(np.abs(retained - dense @ d))))
        f = np.fft.fft(np.eye(k), axis=0) / math.sqrt(k)
        lam = f @ dense @ f.conj().T
        off = lam - np.diag(np.diag(lam))
        worst_diag = max(worst_diag, float(np.linalg.norm(off)))
    assert worst_conv <= 1e-10
    assert worst_diag <= 1e-9

    worst_sum = 0.0
    for _ in range(50):
        g = rng.uniform(0, 3, int(rng.integers(2, 12)))
        if not np.any(g > 0):
            g[0] = 1.0
        total = float(rng.uniform(1, 40))
        powers, level = water_fill(g, 1.0, total)
        worst_sum = max(worst_sum, abs(powers.sum() - total))
        for gk, pk in zip(g, powers):
            if pk > 0:
                assert pk == level - 1.0 / gk  # exact complementary slackness
            elif gk > 0:
                assert level <= 1.0 / gk + 1e-12
    assert worst_sum <= 1e-9

    sc = MultiPathScenario(h=(0.9, 0.5), sigma2=1.0, P=10.0, n=24, eps=1e-2,
                           subchannels=4)
    plan = sc.derive()
    trials = 100_000
    rep = monte_carlo(sc, trials, master_seed=606060)
    worst_var = 0.0
    for col in np.flatnonzero(plan.powers > 0):
        for b in range(1, plan.blocks + 1):
            want, per_comp = variance_lemma3(plan, int(col), b)
            got = rep.mean_var_trajectory[b - 1, col]
            worst_var = max(worst_var, abs(got - want) / want)
            assert got == pytest.approx(want, rel=0.05)
            assert per_comp == pytest.approx(want / 2)
    spent = time.monotonic() - t0
    report(8, f"prefix/circulant gap {worst_conv:.2e}, off-diagonal mass "
              f"{worst_diag:.2e}, water-fill sum gap {worst_sum:.2e}, "
              f"variance deviation {worst_var:.2%} over "
              f"{plan.blocks} blocks ({spent:.1f}s)")


# ---------------------------------------------------------------------------
# 9. figure ordering
# ---------------------------------------------------------------------------

def test_criterion_9_figure_ordering():
    t0 = time.monotonic()
    worst_margin = math.inf
    for n in range(200, 1001, 100):
        params2 = TwoPathScenario(
            h1_hat=0.9, h2_hat=0.5, distortion=1e-6, sigma2=1.0, P=10.0, P_tilde=10.0,
            sigma_z=1e-3, n=n, eps=1e-4,
        ).derive()
        best = None
        for k in range(2, n - 1):
            plan = plan_block(MultiPathScenario(h=(0.9, 0.5), sigma2=1.0, P=10.0, n=n,
                                                eps=1e-4, subchannels=k))
            if best is None or plan.rate > best.rate:
                best = plan
        # rates are compared per real signal dimension: the block scheme's
        # complex channel use carries two of them
        assert best.rate_per_real_dim < params2.rate
        worst_margin = min(worst_margin, params2.rate - best.rate_per_real_dim)

    worst_gap = 0.0
    for n in (200, 400, 700, 1000):
        for p_tilde in (10.0, 30.0, 100.0):
            params1 = QuasiStaticScenario(
                h_hat=0.9, distortion=0.0, sigma2=1.0, P=10.0, P_tilde=p_tilde,
                sigma_z=0.0, n=n, eps=1e-4,
            ).derive()
            base = rate_fd_baseline(0.9, 10.0, n, 1e-4)
            gap = (base - params1.rate) / base
            worst_gap = max(worst_gap, gap)
            assert 0.0 <= gap <= 0.02
    spent = elapsed_guard(9, t0, 5.0)
    report(9, f"block scheme below the two-path scheme by >= {worst_margin:.3f} "
              f"bit/dim at every N; near-perfect-csi gap to the baseline "
              f"<= {worst_gap:.3%} ({spent:.1f}s)")


# ---------------------------------------------------------------------------
# 10. determinism of the command-line surface
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    env = dict(os.environ, PYTHONPATH=SRC)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scheme": 1, "n": 12, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
        "P_tilde": 10.0, "sigma_z": 1e-3, "h_hat": 0.9, "distortion": 0.02,
    }))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "skfading", "simulate", "--config", str(cfg),
             "--trials", "500", "--seed", "42", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "variable": "N",
        "values": [50, 100, 200],
        "curves": ["theorem1", "fd_baseline"],
        "fixed": {"sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "sigma_z": 1e-3,
                  "eps": 1e-4, "h": 0.9, "h_hat": 0.9, "distortion": 0.05},
    }))
    csvs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "skfading", "rate-sweep", "--spec", str(spec),
             "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    spent = time.monotonic() - t0
    report(10, f"simulate and rate-sweep outputs byte-identical across runs "
               f"({spent:.1f}s)")
