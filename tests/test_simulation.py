import math

import numpy as np
import pytest

from skfading.numerics import InfeasibleError
from skfading.quasi_static import message_size
from skfading.simulation import (
    TAG_NOISE,
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    _keyed_streams,
    monte_carlo,
    run_trials,
    wilson_interval,
)
from skfading.two_path import mmse_coefficients2

SC1 = QuasiStaticScenario(
    h_hat=0.9, distortion=0.0, sigma2=1.0, P=10.0, P_tilde=10.0,
    sigma_z=1e-3, n=12, eps=1e-2, h=0.9,
)
SC1_SOFT = QuasiStaticScenario(
    h_hat=0.9, distortion=0.0, sigma2=1.0, P=2.0, P_tilde=10.0,
    sigma_z=1e-3, n=10, eps=1e-2, h=0.9,
)
SC2 = TwoPathScenario(
    h1_hat=0.9, h2_hat=0.5, distortion=0.0, sigma2=1.0, P=10.0,
    P_tilde=10.0, sigma_z=1e-3, n=14, eps=1e-2, h1=0.9, h2=0.5,
)
SC2_SOFT = TwoPathScenario(
    h1_hat=0.9, h2_hat=-0.5, distortion=0.0, sigma2=1.0, P=2.0,
    P_tilde=10.0, sigma_z=1e-3, n=10, eps=1e-2, h1=0.9, h2=-0.5,
)
SC3 = MultiPathScenario(h=(0.9, 0.5), sigma2=1.0, P=10.0, n=24, eps=1e-2, subchannels=3)


def normal_rows(master_seed, indices, count):
    """Raw forward-noise normals, as the engines draw them."""
    out = np.empty((len(indices), count))
    for row, gen in zip(out, _keyed_streams(master_seed, indices, TAG_NOISE)):
        gen.standard_normal(out=row)
    return out


# ---------------------------------------------------------------------------
# determinism and keying
# ---------------------------------------------------------------------------

def test_run_trial_deterministic():
    a = run_trials(SC1, 7, [3])
    b = run_trials(SC1, 7, [3])
    for key in ("correct", "eps", "alias", "pow_fwd"):
        assert np.array_equal(a[key], b[key])


def test_trials_differ_across_indices_and_seeds():
    a = run_trials(SC1, 7, [0])["eps"][0]
    b = run_trials(SC1, 7, [1])["eps"][0]
    c = run_trials(SC1, 8, [0])["eps"][0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_realize_noise_statistics():
    # the same keyed streams that drive the engines
    draws = normal_rows(123, range(10_000), 100)
    assert draws.var() == pytest.approx(1.0, rel=0.01)
    assert abs(draws.mean()) < 3.5 / math.sqrt(draws.size)


def test_scheme3_noise_components_independent():
    raw = normal_rows(99, range(2_000), 50)
    re, im = raw[:, 0::2].ravel(), raw[:, 1::2].ravel()
    n = re.size
    assert np.var(re) == pytest.approx(1.0, rel=0.02)
    assert np.var(im) == pytest.approx(1.0, rel=0.02)
    assert abs(np.corrcoef(re, im)[0, 1]) < 3.5 / math.sqrt(n)


# ---------------------------------------------------------------------------
# noiseless loops decode perfectly
# ---------------------------------------------------------------------------

def test_noiseless_loop_scheme1():
    sc = QuasiStaticScenario(
        h_hat=0.9, distortion=0.0, sigma2=1.0, P=10.0, P_tilde=10.0,
        sigma_z=0.0, n=12, eps=1e-2, h=0.9, noise_scale=0.0,
    )
    assert np.all(run_trials(sc, 5, range(20))["correct"])


def test_noiseless_loop_scheme2():
    sc = TwoPathScenario(
        h1_hat=0.8, h2_hat=-0.6, distortion=0.0, sigma2=1.0, P=10.0,
        P_tilde=10.0, sigma_z=0.0, n=14, eps=1e-2, h1=0.8, h2=-0.6,
        noise_scale=0.0,
    )
    assert np.all(run_trials(sc, 5, range(20))["correct"])


def test_noiseless_loop_scheme3():
    sc = MultiPathScenario(
        h=(0.9, 0.5), sigma2=1.0, P=10.0, n=24, eps=1e-2, subchannels=3,
        noise_scale=0.0,
    )
    out = run_trials(sc, 5, range(20))
    assert np.all(out["correct"])
    # exact recovery already after block 1
    assert np.max(np.abs(out["eps"][:, 0])) <= 1e-10


def test_sigma2_zero_rejected():
    with pytest.raises(ValueError):
        QuasiStaticScenario(
            h_hat=0.9, distortion=0.0, sigma2=0.0, P=10.0, P_tilde=10.0,
            sigma_z=0.0, n=12, eps=1e-2, h=0.9,
        ).derive()


# ---------------------------------------------------------------------------
# wilson interval
# ---------------------------------------------------------------------------

def test_wilson_zero_errors():
    lo, hi = wilson_interval(0, 10_000)
    assert lo == 0.0
    z = 1.959963984540054
    assert hi == pytest.approx(z * z / (10_000 + z * z), rel=1e-12)
    assert hi < 4e-4


def test_wilson_contains_estimate():
    for k, n in [(0, 50), (3, 100), (50, 100), (99, 100)]:
        lo, hi = wilson_interval(k, n)
        assert lo <= k / n <= hi


def test_wilson_width_scaling():
    lo1, hi1 = wilson_interval(10, 10_000)
    lo2, hi2 = wilson_interval(20, 20_000)
    ratio = (hi1 - lo1) / (hi2 - lo2)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.10)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_monte_carlo_matches_individual_trials():
    trials = 40
    report = monte_carlo(SC1, trials, master_seed=99)
    singles = [run_trials(SC1, 99, [ix]) for ix in np.random.default_rng(0).permutation(trials)]
    errors = sum(not s["correct"][0] for s in singles)
    assert report.error_count == errors
    assert report.trials == trials
    assert report.dep_estimate == errors / trials
    mean_pow = np.mean([s["pow_fwd"][0] for s in singles])
    assert report.avg_forward_power == pytest.approx(mean_pow, rel=1e-12)


def test_monte_carlo_deterministic():
    a = monte_carlo(SC2, 200, master_seed=5)
    b = monte_carlo(SC2, 200, master_seed=5)
    assert a.error_count == b.error_count
    assert np.array_equal(a.mean_var_trajectory, b.mean_var_trajectory)
    assert np.array_equal(a.aliasing_rate_per_iteration, b.aliasing_rate_per_iteration)
    assert a.avg_forward_power == b.avg_forward_power
    assert a.avg_feedback_power == b.avg_feedback_power


def test_monte_carlo_chunking_invariant():
    full = run_trials(SC1, 3, np.arange(50))
    parts = [run_trials(SC1, 3, np.arange(start, min(start + 7, 50)))
             for start in range(0, 50, 7)]
    for key in ("correct", "eps"):
        assert np.array_equal(full[key], np.concatenate([p[key] for p in parts]))


def test_monte_carlo_infeasible_scenario():
    bad = QuasiStaticScenario(
        h_hat=0.3, distortion=0.5, sigma2=1.0, P=10.0, P_tilde=10.0,
        sigma_z=1e-3, n=12, eps=1e-2,
    )
    with pytest.raises(InfeasibleError):
        monte_carlo(bad, 10, master_seed=1)


# ---------------------------------------------------------------------------
# scheme-1 behavior
# ---------------------------------------------------------------------------

def test_scheme1_power_and_aliasing_budgets():
    trials = 20_000
    report = monte_carlo(SC1, trials, master_seed=17)
    assert report.avg_forward_power <= 1.01 * SC1.P
    assert report.avg_feedback_power <= 1.01 * SC1.P_tilde
    # the per-iteration budget bounds the coupled-system marginals; in the
    # original system one wrap derails a trial for good, so its late
    # per-iteration rates accumulate toward the eps/2 total budget instead
    partner = monte_carlo(SC1, trials, master_seed=17, coupled=True)
    budget = SC1.eps / (2 * (SC1.n - 1))
    se = math.sqrt(budget * (1 - budget) / trials)
    assert np.all(partner.aliasing_rate_per_iteration <= budget + 3 * se)
    total = SC1.eps / 2
    se_tot = math.sqrt(total * (1 - total) / trials)
    assert np.all(report.aliasing_rate_per_iteration <= total + 3 * se_tot)


def test_scheme1_dep_within_design():
    report = monte_carlo(SC1, 20_000, master_seed=23)
    assert report.wilson_hi <= 1.5 * SC1.eps


def test_scheme1_variance_tracks_design():
    # early iterations of the original system track the design closely;
    # later ones carry the (budgeted) wreckage of wrapped trials, so the
    # exact match is a coupled-system statement tested separately
    params = SC1.derive()
    report = monte_carlo(SC1, 50_000, master_seed=31)
    traj = report.mean_var_trajectory
    assert traj[0] == pytest.approx(params.err_var_conservative[0], rel=0.05)
    assert traj[1] <= 1.5 * params.err_var_conservative[1]
    assert np.all(np.diff(traj[:3]) < 0)
    assert np.all(traj >= params.err_var_conservative * 0.9)


def test_scheme1_ball_mode_draws_h():
    sc = QuasiStaticScenario(
        h_hat=0.9, distortion=0.05, sigma2=1.0, P=10.0, P_tilde=10.0,
        sigma_z=1e-3, n=12, eps=1e-2,
    )
    a = run_trials(sc, 1, [0])["eps"][0]
    b = run_trials(sc, 1, [1])["eps"][0]
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# coupled system
# ---------------------------------------------------------------------------

def test_coupled_cancellation_scheme1():
    res = run_trials(SC1_SOFT, 41, [2], coupled=True)
    assert res["residual"] <= 1e-12


def test_coupled_cancellation_scheme2():
    res = run_trials(SC2_SOFT, 43, [2], coupled=True)
    assert res["residual"] <= 1e-12


def test_coupled_variance_matches_closed_form_scheme1():
    params = SC1.derive()
    report = monte_carlo(SC1, 50_000, master_seed=47, coupled=True)
    traj = report.mean_var_trajectory
    for i in range(SC1.n):
        assert traj[i] == pytest.approx(params.err_var_conservative[i], rel=0.05)


def test_coupled_variance_matches_closed_form_scheme2():
    params = SC2.derive()
    report = monte_carlo(SC2, 50_000, master_seed=53, coupled=True)
    traj = report.mean_var_trajectory
    for i in range(2, SC2.n + 1):
        assert traj[i - 1] == pytest.approx(params.err_var_conservative[i], rel=0.05)


def test_coupled_variance_ratio_hits_steady_state():
    report = monte_carlo(SC2, 50_000, master_seed=59, coupled=True)
    params = SC2.derive()
    traj = report.mean_var_trajectory
    for i in range(5, 12):
        ratio = traj[i] / traj[i - 1]  # times i+1 over i
        assert ratio == pytest.approx(params.var_ratio_star, rel=0.05)


def test_coupled_rejects_scheme3():
    with pytest.raises(ValueError):
        run_trials(SC3, 1, [0], coupled=True)


def test_coupled_bounds_original_errors():
    # union of coupled aliasing/decode events upper-bounds original errors
    orig = monte_carlo(SC1, 20_000, master_seed=61, coupled=False)
    partner = monte_carlo(SC1, 20_000, master_seed=61, coupled=True)
    coupled_union = partner.error_count / partner.trials \
        + partner.aliasing_rate_per_iteration.sum()
    se = 3.5 * math.sqrt(max(orig.dep_estimate, 1e-6) / orig.trials)
    assert orig.dep_estimate <= coupled_union + se


# ---------------------------------------------------------------------------
# scheme-2 behavior
# ---------------------------------------------------------------------------

def test_scheme2_pilot_always_recovered():
    sc = TwoPathScenario(
        h1_hat=0.9, h2_hat=0.5, distortion=0.05, sigma2=1.0, P=10.0,
        P_tilde=10.0, sigma_z=1e-3, n=14, eps=1e-2,
    )
    out = run_trials(sc, 67, np.arange(5000))
    assert np.all(out["pilot_ok"])


def test_scheme2_power_budget():
    report = monte_carlo(SC2, 20_000, master_seed=71)
    assert report.avg_forward_power <= 1.01 * SC2.P
    assert report.avg_feedback_power <= 1.01 * SC2.P_tilde


def test_scheme2_dep_within_design():
    report = monte_carlo(SC2, 20_000, master_seed=73)
    assert report.wilson_hi <= 1.5 * SC2.eps


def test_scheme2_negative_path_matches_positive_statistics():
    # sign alternation makes (h1, -h2) statistically equivalent to (h1, h2)
    neg = TwoPathScenario(
        h1_hat=0.9, h2_hat=0.5, distortion=0.0, sigma2=1.0, P=10.0,
        P_tilde=10.0, sigma_z=1e-3, n=14, eps=1e-2, h1=0.9, h2=-0.5,
    )
    r_pos = monte_carlo(SC2, 30_000, master_seed=79, coupled=True)
    r_neg = monte_carlo(neg, 30_000, master_seed=83, coupled=True)
    for i in range(2, SC2.n + 1):
        assert r_neg.mean_var_trajectory[i - 1] == pytest.approx(
            r_pos.mean_var_trajectory[i - 1], rel=0.1
        )


# ---------------------------------------------------------------------------
# scheme-3 behavior
# ---------------------------------------------------------------------------

def test_scheme3_variances_match_lemma():
    from skfading.multi_path import variance_lemma3

    plan = SC3.derive()
    report = monte_carlo(SC3, 30_000, master_seed=89)
    live = np.flatnonzero(plan.powers > 0)
    for col in live:
        for b in range(1, plan.blocks + 1):
            want, _ = variance_lemma3(plan, int(col), b)
            got = report.mean_var_trajectory[b - 1, col]
            assert got == pytest.approx(want, rel=0.06)


def test_scheme3_component_variances_split_evenly():
    # circular symmetry: each component carries half the error mass
    from skfading.multi_path import variance_lemma3

    plan = SC3.derive()
    out = run_trials(SC3, 91, np.arange(30_000))
    live = np.flatnonzero(plan.powers > 0)
    for col in live:
        for b in (1, plan.blocks):
            _, per_comp = variance_lemma3(plan, int(col), b)
            comp = out["eps"][:, b - 1, col]
            assert np.mean(comp.real ** 2) == pytest.approx(per_comp, rel=0.06)
            assert np.mean(comp.imag ** 2) == pytest.approx(per_comp, rel=0.06)


def test_scheme3_power_budget():
    report = monte_carlo(SC3, 20_000, master_seed=97)
    assert report.avg_forward_power <= 1.01 * SC3.P
    assert report.avg_feedback_power == 0.0


def test_scheme3_dft_noise_whiteness():
    # the unitary DFT keeps the complex noise white with variance sigma2
    k = 8
    raw = normal_rows(101, range(20_000), 2 * k)
    noise = (raw[:, 0::2] + 1j * raw[:, 1::2]) / math.sqrt(2.0)
    freq = np.fft.fft(noise, axis=1) / math.sqrt(k)
    cov = freq.conj().T @ freq / freq.shape[0]
    assert np.max(np.abs(np.diag(cov) - 1.0)) <= 0.02
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) <= 0.02


def test_scheme3_subchannel_cross_independence():
    plan = SC3.derive()
    out = run_trials(SC3, 103, np.arange(30_000))
    eps1 = out["eps"][:, 0, :]  # first-block errors across subchannels
    live = np.flatnonzero(plan.powers > 0)
    for a in live:
        for b in live:
            if a >= b:
                continue
            num = np.mean(eps1[:, a] * np.conj(eps1[:, b]))
            den = math.sqrt(np.mean(np.abs(eps1[:, a]) ** 2) * np.mean(np.abs(eps1[:, b]) ** 2))
            assert abs(num) / den <= 3.5 / math.sqrt(eps1.shape[0]) * 2


def test_scheme3_message_size_consistency():
    params = SC1.derive()
    assert message_size(SC1.n, params.rate) >= 2
