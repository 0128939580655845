import dataclasses
import importlib
import math
import os
import pickle
import platform
import resource
import runpy
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skfading import multi_path, numerics, quasi_static, simulation, two_path
from skfading.numerics import ConfigError, InfeasibleError
from skfading.quasi_static import message_size
from skfading.simulation import (
    _CHUNK,
    TAG_NOISE,
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    _chunk_plan,
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
    # exact recovery already after block 1, and every later block keeps it:
    # no block may see another's ISI
    assert out["eps"].shape[1] == sc.derive().blocks > 1
    assert np.max(np.abs(out["eps"])) <= 1e-10


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


# the sim_tp_large and sim_qs_many_small benchmark scenarios
SC2_LARGE = TwoPathScenario(
    h1_hat=0.9, h2_hat=0.5, distortion=0.05, sigma2=1.0, P=1.0,
    P_tilde=10.0, sigma_z=1e-3, n=80, eps=1e-2,
)
SC1_MANY_SMALL = QuasiStaticScenario(
    h_hat=0.9, distortion=0.05, sigma2=1.0, P=10.0, P_tilde=10.0,
    sigma_z=1e-3, n=25, eps=1e-2,
)
# and sim_mp_block's, whose subchannel count the derive scans
SC3_BLOCK = MultiPathScenario(h=(1.0, 0.5, 0.3), sigma2=1.0, P=10.0, n=64, eps=1e-2)


def test_monte_carlo_working_set_is_one_chunk():
    # a run of three chunks or more holds no more than a run of one, up to
    # 16 bytes per trial of transmit powers. One chunk peaks at 9.3 MB for
    # scheme 2 (n = 80), 14.9 MB coupled, 3.9 MB for scheme 1 (n = 25) and,
    # for scheme 3, 5.8 MB at n = 64 and 37.4 MB at n = 400 (K = 38), where
    # the (trials, blocks, K) errors and their squares take 37.3 MB. The
    # bounds catch a whole-array copy, such as re-laying out a chunk's
    # time-major rows (2.6 MB per (4096, 80) array), scheme 2's 11.7 MB
    # (20.0 MB coupled) when the engine stored the chunk's MMSE gains as
    # (n, trials) arrays before its closed loop ran, or scheme 3's 17.9 MB
    # (77.7 MB at n = 400) when its closed loop ran on whole-chunk arrays
    # rather than 256-trial tiles
    for scenario, coupled, bound in [
        (SC2_LARGE, False, 10.5e6), (SC2_LARGE, True, 16.5e6), (SC1_MANY_SMALL, False, 4.5e6),
        (SC3_BLOCK, False, 8e6), (replace(SC3_BLOCK, n=400), False, 45e6),
    ]:
        monte_carlo(scenario, 1, master_seed=1, coupled=coupled)  # lazy set-up stays out
        peaks = []
        for trials in (_CHUNK, 2 * _CHUNK + 1):
            tracemalloc.start()
            try:
                monte_carlo(scenario, trials, master_seed=1, coupled=coupled)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_chunk, three_chunks = peaks
        assert one_chunk < bound, (scenario.scheme_id, coupled, one_chunk)
        assert three_chunks <= one_chunk + 1e6, (scenario.scheme_id, coupled)


@pytest.mark.parametrize("scenario, module, name", [
    (SC1, quasi_static, "mmse_steps1"), (SC2, two_path, "mmse_steps2"),
], ids=["scheme1", "scheme2"])
@pytest.mark.parametrize("coupled", [False, True], ids=["original", "coupled"])
def test_closed_loops_step_their_own_mmse_recursion(monkeypatch, scenario, module, name,
                                                     coupled):
    # each closed loop (two in coupled mode) advances its own stepwise
    # recursion and never builds the whole gain arrays of mmse_coefficients1/2
    def whole(*args):
        raise AssertionError("the engine built a whole gain trajectory")

    monkeypatch.setattr(quasi_static, "mmse_coefficients1", whole)
    monkeypatch.setattr(two_path, "mmse_coefficients2", whole)
    calls, steps = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or steps(*args))
    out = run_trials(scenario, 7, np.arange(20), coupled=coupled)
    assert len(calls) == (2 if coupled else 1)
    assert out["correct"].shape == (20,)


# a plan with a dead subchannel (3 of 4 live), where the engine selects the
# live ones by an index array; every subchannel of SC3_BLOCK is live, and
# there it selects them by a slice
SC3_DEAD = MultiPathScenario(h=(1.0, 0.95), sigma2=1.0, P=0.5, n=60, eps=1e-2, subchannels=4)


@pytest.mark.parametrize("scenario, live", [(SC3_BLOCK, 14), (SC3_DEAD, 3)],
                         ids=["all_live", "one_dead"])
def test_scheme3_trials_do_not_depend_on_their_tile(scenario, live):
    # the engine runs 256 trials at a time: runs that end inside, at and
    # past a tile edge give each trial the bits it gets alone
    assert np.count_nonzero(scenario.derive().powers) == live
    alone = [run_trials(scenario, 5, [ix]) for ix in range(700)]
    for trials in (1, 255, 256, 257, 700):
        together = run_trials(scenario, 5, np.arange(trials))
        for key, value in together.items():
            assert value.tobytes() == b"".join(a[key].tobytes() for a in alone[:trials]), \
                (trials, key)


@pytest.mark.parametrize("module, name, scenario", [
    (quasi_static, "derive_params1", SC1),
    (two_path, "derive_params2", SC2),
    # subchannels unset: the derive is the subchannel-count scan
    (multi_path, "optimize_subchannel_counts",
     MultiPathScenario(h=(0.9, 0.5), sigma2=1.0, P=10.0, n=24, eps=1e-2)),
], ids=["scheme1", "scheme2", "scheme3"])
def test_monte_carlo_derives_once(monkeypatch, module, name, scenario):
    calls = []
    derive = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(module, name, counted)
    monte_carlo(scenario, 2 * _CHUNK + 1, master_seed=1)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# sharding: monte_carlo's chunks spread over the usable CPUs
# ---------------------------------------------------------------------------

def use_cpus(monkeypatch, count):
    """Make monte_carlo see `count` usable CPUs; return the list that
    records each fork it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def report_bytes(report):
    """Each field of a report as bytes (an array's with its dtype and shape)."""
    return {key: pickle.dumps(value) for key, value in vars(report).items()}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# every scheme at 1, _CHUNK, _CHUNK + 1 and 3 * _CHUNK + 5 trials, and scheme 3
# at sim_mp_block's 10 000, whose balanced chunks (4 of 2500 on 2 CPUs, 3 of
# 3333 or 3334 on 3) start where no 4096-trial chunk did. SC3 has every
# subchannel live; the engine's path for a dead one is pinned by the
# scheme3_small_alphabets digest (3 of 4 live) in test_stream_contract.py
CPU_COUNT_CASES = [
    pytest.param(scenario, coupled, trials, id=f"{name}-{trials}")
    for name, scenario, coupled in [
        ("scheme1", SC1, False), ("scheme2", SC2, False), ("scheme3", SC3, False),
        ("scheme1_coupled", SC1, True), ("scheme2_coupled", SC2, True),
    ]
    for trials in (1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)
] + [pytest.param(SC3, False, 10_000, id="scheme3-10000")]


@pytest.mark.parametrize("scenario, coupled, trials", CPU_COUNT_CASES)
def test_monte_carlo_is_byte_identical_on_any_cpu_count(monkeypatch, scenario, coupled, trials):
    chunks = -(-trials // _CHUNK)
    reports = {}
    for cpus in (1, 2, 3):
        forks = use_cpus(monkeypatch, cpus)
        reports[cpus] = report_bytes(monte_carlo(scenario, trials, 11, coupled=coupled))
        assert_no_child_left()
        assert len(forks) == min(cpus, chunks) - 1
    assert reports[2] == reports[1]
    assert reports[3] == reports[1]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 2000, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 10_000, 60_000])
def test_chunk_plan_balances_whole_processes(monkeypatch, trials, cpus):
    forks = use_cpus(monkeypatch, cpus)
    workers, chunks, span = _chunk_plan(trials)
    spans = [span(c) for c in range(chunks)]
    assert workers == min(cpus, -(-trials // _CHUNK))
    starts, stops = zip(*spans)
    assert starts[0] == 0 and stops[-1] == trials and starts[1:] == stops[:-1]
    sizes = [stop - start for start, stop in spans]
    assert max(sizes) - min(sizes) <= 1 and 0 < min(sizes) and max(sizes) <= _CHUNK
    assert len(spans) % workers == 0

    # monte_carlo runs that plan: a stand-in engine reports each trial's
    # index as its power and its error, so the report shows every trial
    # folded once, and a run of at most one _CHUNK forks nothing
    def engine(scenario, master_seed, coupled):
        def run(indices):
            t = len(indices)
            return {"correct": np.ones(t, dtype=bool), "eps": indices[:, None].astype(complex),
                    "alias": np.zeros((t, 0), dtype=bool), "pow_fwd": indices.astype(float),
                    "pow_fb": np.zeros(t)}
        return run

    monkeypatch.setattr(simulation, "_engine", engine)
    report = monte_carlo(SC1, trials, master_seed=1)
    assert_no_child_left()
    assert len(forks) == workers - 1
    assert report.avg_forward_power == (trials - 1) / 2
    assert report.mean_var_trajectory.tolist() == [sum(i * i for i in range(trials)) / trials]


@pytest.mark.parametrize("trials", [10**12, 2**56])
def test_chunk_plan_computes_spans_on_demand(monkeypatch, trials):
    # the plan held every span in one list: 2.4e8 tuples at 1e12 trials
    use_cpus(monkeypatch, 2)
    workers, chunks, span = _chunk_plan(trials)
    assert chunks == 2 * -(-trials // (2 * _CHUNK))
    assert span(0)[0] == 0 and span(chunks - 1)[1] == trials
    assert span(chunks // 2 - 1)[1] == span(chunks // 2)[0]
    sizes = {stop - start for start, stop in map(span, (0, 1, chunks // 3, chunks - 1))}
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= _CHUNK


def test_monte_carlo_refuses_more_trials_than_stream_keys_index(monkeypatch):
    def engine(*args):
        raise AssertionError("the scenario was derived")

    monkeypatch.setattr(simulation, "_engine", engine)
    with pytest.raises(ValueError, match="trial-index field of a stream key"):
        monte_carlo(SC1, 2**56 + 1, master_seed=1)


@pytest.mark.parametrize("trials", [True, 10.0, "10", np.float64(10)])
def test_monte_carlo_refuses_non_integer_trials(monkeypatch, trials):
    # True once returned a report with trials=True
    monkeypatch.setattr(simulation, "_engine", lambda *args: pytest.fail("the scenario was derived"))
    with pytest.raises(TypeError, match="trials must be an integer"):
        monte_carlo(SC1, trials, master_seed=1)


def test_seeds_are_integers_not_bools():
    # philox_key packed True as 1, so both calls silently ran seed 1
    with pytest.raises(TypeError, match="not bools"):
        monte_carlo(SC1, 10, True)
    with pytest.raises(TypeError, match="not bools"):
        run_trials(SC1, True, [0])
    # numpy integers are integers: they once failed in the keyed streams' arithmetic
    got, want = monte_carlo(SC1, np.int64(10), np.uint64(1)), monte_carlo(SC1, 10, 1)
    assert got.error_count == want.error_count
    assert np.array_equal(got.mean_var_trajectory, want.mean_var_trajectory)
    assert np.array_equal(run_trials(SC1, np.int64(1), [0])["eps"], run_trials(SC1, 1, [0])["eps"])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap settings are glibc's")
def test_a_worker_faults_its_heap_in_once(monkeypatch):
    # a worker keeps the heap each chunk frees for the next; trimmed at
    # glibc's defaults it was faulted in again by every chunk, and a worker
    # of four 4096-trial chunks took about 3.3 times the minor page faults
    # of a worker of one
    use_cpus(monkeypatch, 2)
    faults = []
    for trials in (2 * _CHUNK, 8 * _CHUNK):  # one chunk per process, then four
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        monte_carlo(SC3_BLOCK, trials, master_seed=1)
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    assert faults[1] < 1.5 * faults[0], faults


def fault_in(monkeypatch, where, fault):
    """Make scheme 1's decode call fault() in the worker processes only
    (where="worker") or in the caller only (where="caller")."""
    caller = os.getpid()
    decode = quasi_static.decode_midpoint

    def faulty(*args):
        if (os.getpid() == caller) == (where == "caller"):
            fault()
        return decode(*args)

    monkeypatch.setattr(quasi_static, "decode_midpoint", faulty)


def overflow():
    return np.float64(1e308) * np.float64(10.0)


def raise_custom():
    raise LookupError("chunk failed in a worker")


def warn():
    warnings.warn("a worker warning", RuntimeWarning)


@pytest.mark.parametrize("fault, errstate", [
    (raise_custom, {}), (overflow, {"over": "raise"}), (warn, {}),
], ids=["exception", "errstate", "warning_as_error"])
def test_monte_carlo_raises_a_workers_error(monkeypatch, fault, errstate):
    use_cpus(monkeypatch, 2)
    with warnings.catch_warnings(), np.errstate(**errstate):
        warnings.simplefilter("error")
        with pytest.raises(Exception) as expected:
            fault()
        fault_in(monkeypatch, "worker", fault)
        with pytest.raises(expected.type) as got:
            monte_carlo(SC1, 2 * _CHUNK, master_seed=1)
    assert got.type is expected.type
    assert str(got.value) == str(expected.value)
    assert_no_child_left()


def test_monte_carlo_reaps_workers_when_the_caller_raises(monkeypatch):
    use_cpus(monkeypatch, 3)
    fault_in(monkeypatch, "caller", raise_custom)
    with pytest.raises(LookupError):
        monte_carlo(SC1, 3 * _CHUNK, master_seed=1)
    assert_no_child_left()


def test_monte_carlo_reports_a_worker_that_died(monkeypatch):
    use_cpus(monkeypatch, 2)
    fault_in(monkeypatch, "worker", lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="chunk 1 ended without a result"):
        monte_carlo(SC1, 2 * _CHUNK, master_seed=1)
    assert_no_child_left()


def test_monte_carlo_forks_nothing_beside_another_thread(monkeypatch):
    use_cpus(monkeypatch, 2)
    sharded = report_bytes(monte_carlo(SC2, 2 * _CHUNK + 1, master_seed=4))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        forks = use_cpus(monkeypatch, 2)
        report = monte_carlo(SC2, 2 * _CHUNK + 1, master_seed=4)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert report_bytes(report) == sharded


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
        assert traj[i - 1] == pytest.approx(params.err_var_conservative[i - 2], rel=0.05)


def test_coupled_variance_ratio_hits_steady_state():
    report = monte_carlo(SC2, 50_000, master_seed=59, coupled=True)
    params = SC2.derive()
    traj = report.mean_var_trajectory
    for i in range(5, 12):
        ratio = traj[i] / traj[i - 1]  # times i+1 over i
        assert ratio == pytest.approx(params.var_ratio_star, rel=0.05)


@pytest.mark.parametrize("scenario, coupled", [
    (SC1, False), (SC1, True), (SC2, False), (SC2, True), (SC3, False),
], ids=["scheme1", "scheme1_coupled", "scheme2", "scheme2_coupled", "scheme3"])
def test_empty_batch(scenario, coupled):
    # every per-trial array has no rows and a one-trial batch's trailing shape
    empty = run_trials(scenario, 5, [], coupled=coupled)
    one = run_trials(scenario, 5, [0], coupled=coupled)
    assert empty.keys() == one.keys()
    for key, value in empty.items():
        if key == "residual":
            assert value == 0.0
        else:
            assert value.shape == (0,) + one[key].shape[1:], key
            assert value.dtype == one[key].dtype, key


def test_coupled_rejects_scheme3():
    with pytest.raises(ValueError):
        run_trials(SC3, 1, [0], coupled=True)


@pytest.mark.parametrize("module, names, scenario", [
    (quasi_static, ("rx_feedback1", "tx_step1"), SC1_SOFT),
    (quasi_static, ("rx_feedback1",), SC2_SOFT),
    (two_path, ("tx_step2",), SC2_SOFT),
], ids=["scheme1", "scheme2_feedback", "scheme2_transmit"])
def test_partner_runs_the_step_functions(monkeypatch, module, names, scenario):
    # the modulo-free partner is the same scheme on an infinitely coarse
    # lattice: it calls the original's step functions with spacing inf
    spacings = []

    def spied(step):
        def call(*args, **kwargs):
            params = next(a for a in args if hasattr(a, "lattice_spacing"))
            spacings.append(params.lattice_spacing)
            return step(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(module, name, spied(getattr(module, name)))
    run_trials(scenario, 3, [0, 1], coupled=True)
    steps = (scenario.n - 1 if scenario.scheme_id == 1 else scenario.n - 2) * len(names)
    finite = scenario.derive().lattice_spacing
    assert spacings == [finite] * steps + [math.inf] * steps


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


def test_scheme2_aliasing_within_budget_per_iteration():
    # sim_tp_large at n = 30 in the coupled system: each of the n - 2
    # iterations may alias with probability eps / (2 (n - 2)). The config
    # with h1_hat 0.5 and h2_hat 0.9 (art_noise_var 0.378 against 0.083
    # here) fails this at its time-4 step, which carries the artificial
    # noise, at every trial count from 105 573 to 200 000 at seed 1
    sc = replace(SC2_LARGE, n=30)
    trials = 110_000
    report = monte_carlo(sc, trials, master_seed=1, coupled=True)
    budget = sc.eps / (2 * (sc.n - 2))
    counts = np.rint(report.aliasing_rate_per_iteration * trials).astype(int)
    assert len(counts) == sc.n - 2
    assert all(wilson_interval(int(c), trials)[0] <= budget for c in counts)


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


@pytest.mark.parametrize("call, message", [
    (lambda: quasi_static.rate_fd_baseline(0.0, 10.0, 50, 1e-3), "nonzero fading coefficient"),
    (lambda: two_path.solve_rho_star(-0.1, 0.5, 10.0), "nonnegative"),
    (lambda: two_path.rate_tp_benchmark(0.0, 0.5, 10.0, 50, 1e-3), "two nonzero paths"),
    (lambda: two_path.rate_tp_benchmark(0.9, 0.5, 10.0, 3, 1e-3), "at least 4"),
    (lambda: multi_path.add_cyclic_prefix(np.ones(8), 1), "at least two paths"),
    (lambda: multi_path.variance_lemma3(SC3.derive(), 0, 0), "iteration index starts at 1"),
    (lambda: numerics.channel_spectrum([], 8), "at least one tap"),
    (lambda: wilson_interval(0, 0), "at least one trial"),
], ids=["fd_baseline_h",
        "rho_star_gain", "tp_benchmark_h1", "tp_benchmark_n", "cyclic_prefix_paths",
        "lemma3_iteration", "spectrum_taps", "wilson_no_trials"])
def test_library_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# a number outside its domain: (field, value, message)
OFF_DOMAIN = [
    ("sigma2", 0.0, "sigma2 must be above 0, got 0.0"),
    ("P", -1.0, "P must be above 0, got -1.0"),
    ("P_tilde", 0.0, "P_tilde must be above 0, got 0.0"),
    ("sigma_z", -1e-3, "sigma_z must be at least 0, got -0.001"),
    ("distortion", -0.1, "distortion must be at least 0, got -0.1"),
    ("noise_scale", -0.5, "noise_scale must be at least 0, got -0.5"),
    ("eps", 0.0, "eps must be at least 2.22507e-308, got 0.0"),
    ("eps", 1.0, "eps must lie in (0, 1), got 1.0"),
]
# a broken scheme rule: (scenario, change, message)
BROKEN_RULES = [
    (SC1, {"n": 1}, "scheme 1 needs n of at least 2, got 1"),
    (SC1, {"n": -3}, "scheme 1 needs n of at least 2, got -3"),
    (SC2, {"n": 3}, "scheme 2 needs n of at least 4, got 3"),
    (SC3, {"h": (1.0, 0.5, 0.3), "n": 5, "subchannels": None},
     "scheme 3 needs n of at least 6, got 5"),
    (SC3, {"h": (0.9,)}, "scheme 3 needs at least two channel taps, not all zero"),
    (SC3, {"h": (0.0, 0.0)}, "scheme 3 needs at least two channel taps, not all zero"),
    (SC3, {"subchannels": 1}, "subchannels must lie in {2, ..., 23} for 2 taps and n=24, got 1"),
    (SC3, {"subchannels": 24},
     "subchannels must lie in {2, ..., 23} for 2 taps and n=24, got 24"),
    # an integer of 10**17 or more prints to 6 digits (at n = -1e308 this
    # message was 367 characters long)
    (SC1, {"n": int(-1e308)}, "scheme 1 needs n of at least 2, got -1e+308"),
    (SC3, {"n": int(1e30), "subchannels": 1},
     "subchannels must lie in {2, ..., 1e+30} for 2 taps and n=1e+30, got 1"),
]
# a NaN in any float field, fixed true gains and scheme 3's taps among them
# (sigma_z = NaN once derived rate NaN): (scenario, change, message)
NAN_FIELDS = [(sc, {field.name: math.nan}, f"{field.name} must be a number, got nan")
              for sc in (SC1, SC2, SC3) for field in dataclasses.fields(sc)
              if isinstance(getattr(sc, field.name), float)] + [
    (SC3, {"h": (0.9, math.nan)}, "h must be a number, got nan"),
    (SC3, {"h": (0.9, complex(0.5, math.nan))}, "h must be a number, got (0.5+nanj)"),
]


@pytest.mark.parametrize("scenario, change, message, kind", [
    (sc, {key: value}, message, ConfigError) for sc in (SC1, SC2, SC3)
    for key, value, message in OFF_DOMAIN if hasattr(sc, key)
] + [(sc, change, message, ValueError) for sc, change, message in BROKEN_RULES]
  + [(sc, change, message, ConfigError) for sc, change, message in NAN_FIELDS])
def test_scenarios_check_their_fields(scenario, change, message, kind):
    # a library caller gets the check at construction, not only at derive:
    # ConfigError (a ValueError) for a number outside its domain or NaN, a
    # plain ValueError for a broken scheme rule
    with pytest.raises(ValueError) as exc:
        replace(scenario, **change)
    assert str(exc.value) == message and type(exc.value) is kind


def test_scenario_checks_run_in_field_order_and_domains_first():
    # the first bad number in field order, before any scheme rule
    with pytest.raises(ConfigError, match=r"^P must be above 0, got 0.0$"):
        replace(SC1, P=0.0, P_tilde=0.0, eps=2.0, n=1)
    with pytest.raises(ConfigError, match=r"^noise_scale must be at least 0, got -1.0$"):
        replace(SC3, h=(0.9,), subchannels=99, noise_scale=-1.0)


def test_scenarios_take_their_domains_boundaries():
    # each closed bound is a value the scenario accepts, as is the shortest n
    for sc in (SC1, SC2):
        assert replace(sc, sigma_z=0.0, distortion=0.0, noise_scale=0.0,
                       eps=sys.float_info.min, n=sc.min_n).n == sc.min_n
    assert replace(SC3, h=(0.0, 1.0, 0.0), n=6, subchannels=3).min_n == 6


@pytest.mark.parametrize("n", [25.5, 25.0, True, math.nan, "25"])
@pytest.mark.parametrize("scenario", [SC1, SC2, SC3], ids=["scheme1", "scheme2", "scheme3"])
def test_scenarios_reject_a_non_integer_n(scenario, n):
    # n = 25.5 once derived a rate for scheme 1; n is an int, like monte_carlo's trials
    with pytest.raises(TypeError, match=r"^n must be an integer, got "):
        replace(scenario, n=n)


def test_scenarios_take_a_numpy_integer_n():
    for sc in (SC1, SC2, SC3):
        assert replace(sc, n=np.int64(sc.n)).derive().rate == sc.derive().rate


# the derives' edges between a rate and a refusal: (scenario, the rate of a
# scenario that admits no positive rate, or the refusal's message)
DERIVE_EDGES = [
    # P / sigma2 underflows to 0 under positive design gains: no positive
    # rate (scheme 2 once divided by zero)
    (QuasiStaticScenario(h_hat=0.9, distortion=0.0, sigma2=1e230, P=1e-242, P_tilde=10.0,
                         sigma_z=0.0, n=48, eps=1e-3), 0.0),
    (TwoPathScenario(h1_hat=0.9, h2_hat=0.5, distortion=0.0, sigma2=1e230, P=1e-242,
                     P_tilde=10.0, sigma_z=0.0, n=48, eps=1e-3), 0.0),
    # gain^2 * SNR * a overflows at a huge P_tilde (scheme 1 once rated inf,
    # scheme 2 raised a math domain error)
    (QuasiStaticScenario(h_hat=1.5, distortion=0.0, sigma2=22.0, P=1e47, P_tilde=1.4e303,
                         sigma_z=0.0, n=390, eps=1e-7),
     "scheme 1: gain^2 * SNR * a overflows at a = 1.02e+302 (P_tilde = 1.4e+303)"),
    (TwoPathScenario(h1_hat=1.5, h2_hat=1.7, distortion=0.0, sigma2=22.0, P=1e47,
                     P_tilde=1.4e303, sigma_z=0.0, n=390, eps=1e-7),
     "scheme 2: SNR * a overflows at a = 1.02e+302 (P_tilde = 1.4e+303)"),
]


@pytest.mark.parametrize("scenario, outcome", DERIVE_EDGES, ids=[
    "snr_underflow_scheme1", "snr_underflow_scheme2",
    "p_tilde_overflow_scheme1", "p_tilde_overflow_scheme2"])
def test_derive_edges(scenario, outcome):
    if isinstance(outcome, str):
        with pytest.raises(InfeasibleError) as exc:
            scenario.derive()
        assert str(exc.value) == outcome
        return
    params = scenario.derive()
    assert params.no_positive_rate and params.rate == outcome
    with pytest.raises(InfeasibleError) as exc:
        monte_carlo(scenario, 1, master_seed=1)
    assert str(exc.value) == ("scenario admits no positive rate: its design gain^2 * SNR "
                              "is 0 (every CSI ball contains 0) or underflows")


def test_plan_block_refuses_a_subchannel_count_beyond_any_array():
    # K = 1e300 once reached numpy's "Maximum allowed dimension exceeded"
    # (a ValueError, exit 1 in simulate); K just past the largest array
    # size is refused the same way, before any K-long array exists
    for k, shown in ((2 ** 63, "9.22337e+18"), (int(1e300), "1e+300")):
        with pytest.raises(InfeasibleError) as exc:
            replace(SC3, n=2 * k, subchannels=k).derive()
        assert str(exc.value) == (f"scheme 3: {shown} subchannels exceed the largest array "
                                  f"size, {np.iinfo(np.intp).max}")


@pytest.mark.parametrize("call, message", [
    # the range that plan_block once checked as well
    (lambda: replace(SC3, n=int(1e30), subchannels=1),
     "subchannels must lie in {2, ..., 1e+30} for 2 taps and n=1e+30, got 1"),
    (lambda: replace(SC3, n=int(1e308), subchannels=None).derive(),
     "scheme 3: n = 1e+308 admits 1e+308 subchannel counts, more than the 100000 one scan "
     "may walk; set subchannels"),
    # below 10**17 an integer is printed in full
    (lambda: replace(SC3, n=10 ** 17 - 1, subchannels=None).derive(),
     "scheme 3: n = 99999999999999999 admits 99999999999999997 subchannel counts, more than "
     "the 100000 one scan may walk; set subchannels"),
], ids=["plan_block_subchannels", "scan", "scan_in_full"])
def test_messages_shorten_huge_integers(call, message):
    # as the scenarios' messages do (BROKEN_RULES); the scan refusal at
    # n = 1e308 once made a 738-character line in simulate
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_every_traced_name_resolves():
    # perfbench's tracer wraps each (module, name) of PATCHES by getattr, so
    # a deleted or renamed name would break every traced benchmark run;
    # run_path executes tracer.py from its source and writes nothing
    tracer = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))
    assert tracer["PATCHES"]
    for module, attr, _ in tracer["PATCHES"]:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
