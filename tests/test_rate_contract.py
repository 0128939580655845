"""The rate-layer contract: which bits every ``rate-sweep`` cell prints.

The CSV digests below were recorded with the original rate layer, whose
``water_fill`` found the water level by a Python active-set loop and whose
``q_tail_inv`` always ran 120 bisection steps. Any speed-up of the rate
layer must reproduce them byte for byte. The two original loops are kept
here as oracles, and the current functions must agree with them bit for
bit, not only to a tolerance. So is the subchannel-count scan that laid
out one K at a time, against which the batched scan is checked field by
field.
"""

import cmath
import dataclasses
import hashlib
import json
import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from skfading import multi_path
from skfading.cli import EXIT_OK, main
from skfading.multi_path import BlockPlan, optimize_subchannel_counts, plan_block
from skfading.numerics import (
    MAX_GAIN_SNR,
    InfeasibleError,
    channel_spectrum,
    q_tail,
    q_tail_inv,
    require_gain_snr,
    water_fill,
)
from skfading.quasi_static import rate_fd_baseline
from skfading.simulation import MultiPathScenario
from skfading.two_path import rate_tp_benchmark, solve_rho_star

_SQRT2PI = math.sqrt(2.0 * math.pi)

# the fixed numbers and curves of the benchmark's rate_sweep workload
BENCH_FIXED = {
    "sigma2": 1.0, "P_tilde": 10.0, "sigma_z": 1e-3, "eps": 1e-6,
    "h": 0.9, "h_hat": 0.9, "distortion": 0.05,
    "h1": 0.9, "h2": 0.5, "h1_hat": 0.9, "h2_hat": 0.5,
    "h_re": [1.0, 0.5, 0.3],
}
BENCH_CURVES = ["theorem1", "theorem2", "fd_baseline", "tp_benchmark", "theorem3"]
BENCH_N = [25, 220, 415, 610, 805, 1000]

SWEEP_CASES = {
    "bench_P9.3": {"variable": "N", "values": BENCH_N, "curves": BENCH_CURVES,
                   "fixed": dict(BENCH_FIXED, P=9.3)},
    "bench_P10.85": {"variable": "N", "values": BENCH_N, "curves": BENCH_CURVES,
                     "fixed": dict(BENCH_FIXED, P=10.85)},
    # every admissible K of a 3-tap channel at n = 200
    "k_sweep": {"variable": "K", "values": {"start": 3, "stop": 198, "count": 196},
                "curves": ["theorem3", "theorem3_real_dim"],
                "fixed": {"n": 200, "eps": 1e-6, "sigma2": 1.0, "P": 10.0,
                          "h_re": [1.0, 0.5, 0.3]}},
    # taps [1, 1]: the DFT gain at K/2 is exactly 0 for K = 2, 4, 10, ...
    "zero_spectrum": {"variable": "K", "values": {"start": 2, "stop": 60, "count": 30},
                      "curves": ["theorem3", "theorem3_real_dim"],
                      "fixed": {"n": 120, "eps": 1e-3, "sigma2": 1.0, "P": 10.0,
                                "h_re": [1.0, 1.0]}},
    # low SNR over a deep fade: water-filling leaves subchannels dark
    "deep_fade": {"variable": "N", "values": [40, 120, 300, 600],
                  "curves": ["theorem3", "theorem3_real_dim"],
                  "fixed": {"eps": 1e-3, "sigma2": 1.0, "P": 0.05,
                            "h_re": [1.0, 0.95]}},
}

SWEEP_DIGESTS = {
    "bench_P9.3":
        "2499f7f8ac5ab5a338e4486fbae49bfaf6cd23ad072bbf3cea61eb135db730b0",
    "bench_P10.85":
        "e00efe94dd7a77c484483bf826ed804f5c86527ca539bca4c8d704be2b0cb9c6",
    "k_sweep":
        "ce05819432d53f71ed5024fc227e0c69a6dcabcc46432fa6200c99f990f89a3c",
    "zero_spectrum":
        "a24486e1188e31e550f193ec959f2a28f4d6c638657e3e33a4a4e49cfd79366e",
    "deep_fade":
        "f2935e2a7123b3ac0f41b25bc1486aca2e8444b48f8d0ab3c445e7cb1ead6729",
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_rate_sweep_digest(tmp_path, capsys, case):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_CASES[case]))
    out = tmp_path / "rates.csv"
    assert main(["rate-sweep", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGESTS[case]


# ---------------------------------------------------------------------------
# the original loops, kept as oracles
# ---------------------------------------------------------------------------

def water_fill_loop(gains, noise_var, total_power):
    """Active-set sweep over the sorted noise thresholds, one m at a time."""
    g = np.asarray(gains, dtype=float)
    usable = np.flatnonzero(g > 0)
    thresholds = noise_var / g[usable]
    order = np.argsort(thresholds)
    tsorted = thresholds[order]
    csum = np.cumsum(tsorted)
    level = None
    active = usable.size
    for m in range(1, usable.size + 1):
        candidate = (total_power + csum[m - 1]) / m
        if candidate >= tsorted[m - 1] and (m == usable.size or candidate <= tsorted[m]):
            level = candidate
            active = m
            break
    if level is None:
        level = (total_power + csum[-1]) / usable.size
    powers = np.zeros_like(g)
    powers[usable[order[:active]]] = level - tsorted[:active]
    return powers, float(level)


def q_tail_inv_loop(p):
    """Bracketing bisection of a fixed 120 steps, then one Newton step."""
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -q_tail_inv_loop(1.0 - p)
    lo, hi = 0.0, 8.0
    while q_tail(hi) > p:
        lo, hi = hi, 2.0 * hi
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if q_tail(mid) > p:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    density = math.exp(-0.5 * x * x) / _SQRT2PI
    if density > 0.0:
        x += (q_tail(x) - p) / density
    return x


def same_bits(a, b):
    """Bit equality of float arrays (so -0.0 and 0.0 differ)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_gains(rng):
    """Gains with zeros, exact ties and spreads over many decades."""
    size = int(rng.integers(1, 60))
    kind = rng.integers(4)
    if kind == 0:
        g = rng.exponential(1.0, size)
    elif kind == 1:
        g = 10.0 ** rng.uniform(-8, 8, size)
    elif kind == 2:  # few distinct values: many ties
        g = rng.choice([0.25, 0.5, 1.0, 3.0], size)
    else:  # the power gains of a random 2..4-tap channel
        taps = rng.standard_normal(int(rng.integers(2, 5)))
        g = np.abs(np.fft.fft(taps, n=max(size, taps.size))) ** 2
    g[rng.random(g.size) < 0.2] = 0.0
    if not np.any(g > 0):
        g[0] = 1.0
    return g


def test_water_fill_bit_equal_to_loop():
    rng = np.random.default_rng(20240)
    for _ in range(3000):
        g = random_gains(rng)
        noise = float(10.0 ** rng.uniform(-3, 2))
        total = float(10.0 ** rng.uniform(-4, 4))
        powers, level = water_fill(g, noise, total)
        ref_powers, ref_level = water_fill_loop(g, noise, total)
        assert same_bits(powers, ref_powers)
        assert same_bits(level, ref_level)


def test_water_fill_bit_equal_on_exact_spectral_zeros():
    for k in range(2, 41):
        g = np.abs(np.fft.fft([1.0, 1.0], n=k)) ** 2
        for total in (1e-3, 0.5, 10.0 * k, 1e6):
            powers, level = water_fill(g, 1.0, total)
            ref_powers, ref_level = water_fill_loop(g, 1.0, total)
            assert same_bits(powers, ref_powers)
            assert same_bits(level, ref_level)


def q_grid():
    """p from 1e-300 to 1 - 1e-16, plus the union-bound grid eps / (4k)."""
    rng = np.random.default_rng(7)
    ps = list(10.0 ** rng.uniform(-300, 0, 3000))
    ps += list(10.0 ** -np.arange(1, 301))
    ps += [1.0 - 10.0 ** -e for e in range(1, 17)]
    ps += list(rng.uniform(0.0, 1.0, 1000))
    # next to 0.5 the root is ~1e-16, the longest bisection (~110 steps);
    # below the normal range the bracket doubles up to 64
    ps += [0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
           5e-324, sys.float_info.min]
    for eps in (1e-2, 1e-3, 1e-6):
        ps += [eps / (4.0 * k) for k in range(1, 1001)]
    return [p for p in ps if 0.0 < p < 1.0]


def test_q_tail_inv_bit_equal_to_loop():
    for p in q_grid():
        assert same_bits(q_tail_inv(p), q_tail_inv_loop(p)), p


def test_water_fill_rows_bit_equal_to_1d_calls():
    # zero-padded rows of unequal length, one total power per row
    rng = np.random.default_rng(20241)
    done = 0
    while done < 3000:
        rows = [random_gains(rng) for _ in range(int(rng.integers(1, 40)))]
        done += len(rows)
        noise = float(10.0 ** rng.uniform(-3, 2))
        totals = 10.0 ** rng.uniform(-4, 4, len(rows))
        packed = np.zeros((len(rows), max(g.size for g in rows)))
        for packed_row, g in zip(packed, rows):
            packed_row[:g.size] = g
        powers, levels = water_fill(packed, noise, totals)
        assert powers.shape == packed.shape and levels.shape == (len(rows),)
        for i, g in enumerate(rows):
            ref_powers, ref_level = water_fill(g, noise, float(totals[i]))
            assert isinstance(ref_level, float) and ref_powers.shape == g.shape
            assert same_bits(powers[i, :g.size], ref_powers)
            assert same_bits(powers[i, g.size:], np.zeros(packed.shape[1] - g.size))
            assert same_bits(levels[i], ref_level)
            old_powers, old_level = water_fill_1d(g, noise, float(totals[i]))
            assert same_bits(ref_powers, old_powers)
            assert same_bits(ref_level, old_level)


# ---------------------------------------------------------------------------
# the subchannel-count scan that laid out one K at a time, kept as an oracle
# ---------------------------------------------------------------------------

def water_fill_1d(gains, noise_var, total_power):
    """The one-problem water fill the per-K scan called (input checks aside)."""
    g = np.asarray(gains, dtype=float)
    usable = np.flatnonzero(g > 0)
    if usable.size == 0:
        raise InfeasibleError("water_fill: all channel gains are zero")
    thresholds = noise_var / g[usable]
    order = np.argsort(thresholds)
    tsorted = thresholds[order]
    candidates = np.cumsum(tsorted)
    candidates += total_power
    candidates /= np.arange(1, usable.size + 1)
    fits = candidates >= tsorted
    fits[:-1] &= candidates[:-1] <= tsorted[1:]
    active = int(np.argmax(fits)) + 1 if fits.any() else usable.size
    level = candidates[active - 1]
    powers = np.zeros_like(g)
    chosen = usable[order[:active]]
    powers[chosen] = level - tsorted[:active]
    return powers, float(level)


def plan_block_per_k(scenario):
    """A MultiPathScenario's K laid out on its own: spectrum, 1-D water fill,
    rate."""
    n, eps, k, sigma2, P = (scenario.n, scenario.eps, scenario.subchannels,
                            scenario.sigma2, scenario.P)
    num_paths = len(scenario.h)
    gains = channel_spectrum(np.asarray(scenario.h, dtype=complex), k)
    magnitudes = np.abs(gains)
    peak = float(magnitudes.max())
    require_gain_snr(peak * peak * (k * P / sigma2), "scheme 3")
    power_gains = np.square(magnitudes, out=magnitudes)
    powers, level = water_fill_1d(power_gains, sigma2, k * P)
    block_len = num_paths + k - 1
    blocks = n // block_len
    margin = 4.0 * q_tail_inv(eps / (4.0 * k)) ** 2
    half = np.zeros(k)
    active = powers > 0
    snrs = np.zeros(k)
    snrs[active] = power_gains[active] * powers[active] / sigma2
    raw = (blocks - 1) / (2.0 * n) * np.log2(1.0 + snrs[active]) \
        - 1.0 / (2.0 * n) * np.log2(margin / (12.0 * snrs[active]))
    half[active] = np.maximum(raw, 0.0)
    return BlockPlan(
        n=n, eps=eps, num_paths=num_paths, subchannels=k, block_len=block_len,
        blocks=blocks, gains=gains, powers=powers, water_level=level,
        union_margin=margin, sub_rate_half=half, rate=float(2.0 * half.sum()),
        sigma2=sigma2, P=P,
    )


def scan_per_k(scenario):
    """The best of a MultiPathScenario's K laid out one at a time."""
    best, paths = None, len(scenario.h)
    for k in range(paths, scenario.n - paths + 2):
        plan = plan_block_per_k(dataclasses.replace(scenario, subchannels=k))
        if best is None or plan.rate > best.rate:
            best = plan
    return best


def assert_same_plan(plan, ref):
    for field in dataclasses.fields(BlockPlan):
        got, want = getattr(plan, field.name), getattr(ref, field.name)
        assert type(got) is type(want), field.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert same_bits(got, want), field.name


# the benchmark's 3-tap channel at P = 10, whose n and subchannels the
# tests replace
SC3 = MultiPathScenario(h=(1.0, 0.5, 0.3), sigma2=1.0, P=10.0, n=1000, eps=1e-6)

# (taps, sigma2, P, n, eps): the channels of the theorem3 digests above
SCAN_CASES = {
    "zero_spectrum": ((1.0, 1.0), 1.0, 10.0, 120, 1e-3),
    "deep_fade_n40": ((1.0, 0.95), 1.0, 0.05, 40, 1e-3),
    "deep_fade_n120": ((1.0, 0.95), 1.0, 0.05, 120, 1e-3),
    "deep_fade_n300": ((1.0, 0.95), 1.0, 0.05, 300, 1e-3),
    "deep_fade_n600": ((1.0, 0.95), 1.0, 0.05, 600, 1e-3),
    "k_sweep": ((1.0, 0.5, 0.3), 1.0, 10.0, 200, 1e-6),
    "bench_n1000": ((1.0, 0.5, 0.3), 1.0, 9.3, 1000, 1e-6),
}


def row_plan(batch, n, row):
    """A batch row's plan at n, from the batch's fields and one-pass rates."""
    k, scenario, block_len = batch.ks[row], batch.scenario, int(batch.block_lens[row])
    half = batch.half_rates([n])[0, row]
    assert not half[k:].any()
    return BlockPlan(
        n=n, eps=scenario.eps, num_paths=len(scenario.h), subchannels=k,
        block_len=block_len, blocks=n // block_len, gains=batch.spectra[row],
        powers=batch.powers[row, :k], water_level=float(batch.levels[row]),
        union_margin=float(batch.margins[row]), sub_rate_half=half[:k],
        rate=float(2.0 * half[:k].sum()), sigma2=scenario.sigma2, P=scenario.P,
    )


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_bit_equal_to_per_k_plans(case):
    taps, sigma2, P, n, eps = SCAN_CASES[case]
    scenario = MultiPathScenario(h=taps, sigma2=sigma2, P=P, n=n, eps=eps)
    ks, widest = [], 0
    for batch, _ in multi_path._scan(scenario, n - len(taps) + 1):
        widest = max(widest, len(batch.ks))
        for row, k in enumerate(batch.ks):
            at_k = dataclasses.replace(scenario, subchannels=k)
            ref = plan_block_per_k(at_k)
            assert_same_plan(row_plan(batch, n, row), ref)
            assert_same_plan(plan_block(at_k), ref)
            ks.append(k)
    assert ks == list(range(len(taps), n - len(taps) + 2))
    assert widest > 1  # the batches do hold several K
    assert_same_plan(scenario.derive(), scan_per_k(scenario))


def test_row_choice_sums_each_row_over_its_own_k():
    # K = 9, ..., 16 zero-padded to 16: a padded row's sum takes a[8] into its
    # first pairwise accumulator, the sum over K = 9 adds it last
    ks = range(9, 17)
    rng = np.random.default_rng(9)

    def sums(row):  # padded, then over K = 9
        return np.append(row, np.zeros(7)).sum(), row.sum()

    # a row and a reordering of it: the padded sums rank them one way, the
    # sums over K = 9 the other
    first = second = None
    while second is None:
        first = rng.random(9)
        for _ in range(500):
            other = rng.permutation(first)
            if sums(other)[1] > sums(first)[1] and sums(other)[0] < sums(first)[0]:
                second = other
                break
    half = np.zeros((3, len(ks), 16))
    half[0, 0, :9] = first
    half[0, 1, :9] = second
    # an exact tie between K = 11 and K = 12, both above the other rows
    half[1, :2] = half[0, :2]
    half[1, 2, 0] = half[1, 3, 0] = 100.0
    # the best row, K = 13, lies past the last admitted one
    half[2] = half[1]
    half[2, 4, 0] = 200.0
    assert half[0].sum(axis=1).argmax() == 0  # the padded sums pick the first row
    got = multi_path._best_rows(half, ks, [8, 8, 4])
    assert got == [(1, 2.0 * second.sum()), (2, 200.0), (2, 200.0)]
    assert all(type(rate) is float for _, rate in got)


@pytest.mark.parametrize("taps, P, n", [
    # gain^2 * SNR = 1.8^2 * K * P first exceeds 1e150 at K = 51, inside
    # the scan's first batch
    ((1.0, 0.5, 0.3), 1e150 / (3.24 * 50.5), 200),
    # every power gain underflows at K = 2, while K * P overflows at K = 3:
    # the per-K scan stops at the water fill of K = 2
    ((1e-165, 1e-165), 6e307, 10),
], ids=["gain_snr", "underflow"])
def test_scan_raises_where_per_k_scan_does(taps, P, n):
    scenario = MultiPathScenario(h=taps, sigma2=1.0, P=P, n=n, eps=1e-6)
    with pytest.raises(InfeasibleError) as ref:
        scan_per_k(scenario)
    with pytest.raises(InfeasibleError) as got:
        scenario.derive()
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# whole sweeps against rows planned one at a time by the oracles above
# ---------------------------------------------------------------------------

# gain^2 * SNR first exceeds 1e150 at K = 51 for the taps (1.0, 0.5, 0.3)
P_FAILS_AT_51 = 1e150 / (3.24 * 50.5)
ORACLE_FIXED = {"eps": 1e-6, "sigma2": 1.0, "P": 10.0, "h_re": [1.0, 0.5, 0.3]}

ORACLE_SWEEPS = {
    # N = 5 is below 2L: "blocklength too short"
    "N": {"variable": "N", "values": [5, 6, 25, 220, 415, 610, 805, 1000],
          "fixed": ORACLE_FIXED},
    # only the rows whose range reaches K = 51 fail
    "N_fails_at_51": {"variable": "N", "values": [25, 40, 60, 200],
                      "fixed": dict(ORACLE_FIXED, P=P_FAILS_AT_51)},
    "D": {"variable": "D", "values": [0.0, 0.1, 0.5],
          "fixed": dict(ORACLE_FIXED, n=300)},
    "SNR": {"variable": "SNR", "values": [0.05, 1.0, 10.0, P_FAILS_AT_51],
            "fixed": dict(ORACLE_FIXED, n=200)},
    "SNR_short": {"variable": "SNR", "values": [1.0, 10.0],
                  "fixed": dict(ORACLE_FIXED, n=5)},
    "K": {"variable": "K", "values": [3, 4, 50, 51, 52, 198],
          "fixed": dict(ORACLE_FIXED, n=200, P=P_FAILS_AT_51)},
}


def plan_alone(**fields):
    """The MultiPathScenario of fields planned alone by the per-K oracles: a
    scan, or its subchannels laid out; or what the scenario or its plan
    raises."""
    try:
        scenario = MultiPathScenario(**fields)
        if scenario.subchannels is None:
            return scan_per_k(scenario)
        return plan_block_per_k(scenario)
    except ValueError as exc:  # InfeasibleError among them
        return exc


# (taps, sigma2, P, eps, blocklengths) of one shared walk; n = 5 is below the
# 6 that 3 taps need
WALK_CASES = {
    "bench": ((1.0, 0.5, 0.3), 1.0, 9.3, 1e-6, [1000, 5, 25, 220, 415, 610, 805, 25]),
    "fails_at_51": ((1.0, 0.5, 0.3), 1.0, P_FAILS_AT_51, 1e-6, [5, 25, 40, 52, 53, 200]),
    # rate 0 at every K of the short rows: ties go to the smallest K
    "deep_fade": ((1.0, 0.95), 1.0, 0.05, 1e-3, [4, 12, 40, 120, 300]),
    # rate 0 at every K, over several batches
    "dark": ((1.0, 0.95), 1.0, 1e-6, 1e-3, [40, 300]),
    # a margin below 12: a K with no whole block would rate above zero
    "coarse_eps": ((1.0, 0.5, 0.3), 1.0, 10.0, 0.9, [6, 7, 10, 40, 200]),
    # gain^2 * SNR first exceeds 1e150 at K = 900, past counts the rate
    # bound skips: the rows whose range reaches K = 900 still fail
    "fails_at_900": ((1.0, 0.5, 0.3), 1.0, 1e150 / (3.24 * 899.5), 1e-6, [600, 1000]),
    # many blocklengths: each batch is rated at every one that it can win
    "many_n": ((1.0, 0.5, 0.3), 1.0, 9.3, 1e-6, list(range(100, 1201, 100))),
}


def random_walks(count=8):
    """Seeded random channels of L = 2, ..., 5 taps, real and then complex,
    with P from 1e-2 to 1e3 and eps from 1e-8 to 1e-1 (log-spaced, shuffled)."""
    rng = np.random.default_rng(2006)
    powers = rng.permutation(np.geomspace(1e-2, 1e3, count))
    epss = rng.permutation(np.geomspace(1e-8, 1e-1, count))
    walks = {}
    for i in range(count):
        taps = rng.normal(size=2 + i % 4)
        if i >= count // 2:
            taps = taps + 1j * rng.normal(size=taps.size)
        n = int(rng.integers(300, 900))
        walks[f"random{i}"] = (tuple(taps.tolist()), float(rng.uniform(0.5, 2.0)),
                               float(powers[i]), float(epss[i]), [n, n // 3])
    return walks


WALK_CASES.update(random_walks())


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_shared_walk_bit_equal_to_scans_alone(case):
    taps, sigma2, P, eps, ns = WALK_CASES[case]
    scenario = MultiPathScenario(h=taps, sigma2=sigma2, P=P, n=max(ns), eps=eps)
    plans = optimize_subchannel_counts(scenario, ns)
    for n, got in zip(ns, plans, strict=True):
        want = plan_alone(h=taps, sigma2=sigma2, P=P, n=n, eps=eps)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), n
        else:
            assert_same_plan(got, want)
    if case == "bench":  # the short n gets the scenario's refusal, its neighbours plans
        assert str(plans[1]) == "scheme 3 needs n of at least 6, got 5"
        assert isinstance(plans[0], BlockPlan) and isinstance(plans[2], BlockPlan)


def oracle_sweep(spec):
    """The CSV and stderr of a theorem3 sweep, each row planned on its own."""
    fixed, variable = spec["fixed"], spec["variable"]
    lines, notes = ["x," + ",".join(spec["curves"])], []
    for x in spec["values"]:
        # sigma2 = 1: an SNR value is P
        key = {"N": "n", "D": "distortion", "SNR": "P", "K": "subchannels"}[variable]
        cfg = dict(fixed, **{key: x})
        plan = plan_alone(h=tuple(cfg["h_re"]), sigma2=cfg["sigma2"], P=cfg["P"],
                          n=cfg["n"], eps=cfg["eps"], subchannels=cfg.get("subchannels"))
        cells = [f"{x:.12g}"]
        for label in spec["curves"]:
            if isinstance(plan, Exception):
                notes.append(f"note: {label} infeasible at {variable}={x:g}: {plan}\n")
                cells.append("")
            else:
                rate = plan.rate if label == "theorem3" else plan.rate_per_real_dim
                cells.append(f"{rate:.12g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", "".join(notes)


@pytest.mark.parametrize("curves", [["theorem3", "theorem3_real_dim"],
                                    ["theorem3_real_dim", "theorem3"]])
@pytest.mark.parametrize("case", sorted(ORACLE_SWEEPS))
def test_rate_sweep_matches_rows_planned_alone(tmp_path, capsys, case, curves):
    spec = dict(ORACLE_SWEEPS[case], curves=curves)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["rate-sweep", "--spec", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    want_out, want_err = oracle_sweep(spec)
    assert out == want_out
    assert err == want_err
    if case in ("N", "N_fails_at_51", "SNR", "K"):  # some rows are infeasible, not all
        assert err
        assert any(cell for row in out.splitlines()[1:] for cell in row.split(",")[1:])


@pytest.mark.parametrize("spec, rows", [
    ({"variable": "K", "values": [3, 10, 40],
      "fixed": dict(ORACLE_FIXED, n=10**20)},
     ["3,1.93314668061", "10,2.91394010826", "40,3.330412394"]),
    ({"variable": "N", "values": [1e15, 1e18, 1e20],
      "fixed": dict(ORACLE_FIXED, subchannels=10)},
     ["1e+15,2.91394010826", "1e+18,2.91394010826", "1e+20,2.91394010826"]),
], ids=["K", "N"])
def test_plans_beyond_int64(tmp_path, capsys, spec, rows):
    # only plan_block takes an n beyond int64: n // block_len neither wraps
    # nor raises, and each plan is the per-K oracle's
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(spec, curves=["theorem3"])))
    assert main(["rate-sweep", "--spec", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.splitlines() == ["x,theorem3", *rows] and err == ""
    # n = 3002 m - 1 just past int64 rounds up past 3002 m as a double, so
    # float arithmetic would count one block too many
    for n, k in ((10**20, 3), (10**20, 40), (10**15, 10), (10**18, 10),
                 (9223372036854778981, 3000)):
        scenario = dataclasses.replace(SC3, n=n, subchannels=k)
        plan = plan_block(scenario)
        assert_same_plan(plan, plan_block_per_k(scenario))
        assert plan.blocks == n // (k + 2)


# 10**5 blocklengths up to 2**62 (and 1 to 10**5) for the factor forms below
FACTOR_NS = list(range(1, 10**5 + 1)) + np.random.Generator(
    np.random.Philox(key=31)).integers(1, 2**62, 10**5, dtype=np.int64).tolist()


def test_finite_n_factors_keep_their_bits():
    # the closed forms write their blocklength factors as float(n - c) /
    # float(n) / 2.0 and 0.5 / n, which never form 2n (inf past 2**1023,
    # where the rates once read 0); wherever 2n is finite they have the bits
    # of the textbook forms (n - c) / (2.0 * n) and 1.0 / (2.0 * n). The form
    # (n - c) / n / 2 would not: Python rounds int / int from the exact quotient
    for n in FACTOR_NS:
        for c in (1, 3):
            assert float(n - c) / float(n) / 2.0 == (n - c) / (2.0 * n), (n, c)
        assert 0.5 / n == 1.0 / (2.0 * n), n


def test_rates_keep_their_textbook_bits():
    # the baselines and scheme 3's per-component rates against their textbook
    # forms, at every 1000th n of FACTOR_NS
    h, h1, h2, snr, eps = 0.9, 0.9, 0.5, 10.0, 1e-6
    fd_margin = math.log2(4.0 * q_tail_inv(eps / 2.0) ** 2 / (12.0 * h * h * snr))
    rho3, rho_star = 1.0 / (1.0 + h1 * h1 * snr), solve_rho_star(h1, h2, snr, 1.0)
    steady = math.log2(1.0 + (h1 + h2 * math.sqrt(rho_star)) ** 2 * snr)
    tp_margin = math.log2(4.0 * q_tail_inv(eps / 2.0) ** 2 * rho3
                          / (12.0 * (h1 * h1 + h2 * h2) * snr))
    ns = FACTOR_NS[999::1000]  # from n = 1000
    for n in ns:
        fd = (n - 1) / (2.0 * n) * math.log2(1.0 + h * h * snr) - 1.0 / (2.0 * n) * fd_margin
        tp = (n - 3) / (2.0 * n) * steady - 1.0 / (2.0 * n) * tp_margin
        assert rate_fd_baseline(h, snr, n, eps) == fd and rate_tp_benchmark(h1, h2, snr, n, eps) == tp
    batch = multi_path._Batch(SC3, range(3, 12))
    column = np.array(ns)[:, None]
    twice = 2.0 * column.astype(float)
    raw = ((column // batch.block_lens - 1).astype(float) / twice)[:, batch.row_of]
    raw *= batch.gain_terms
    raw -= 1.0 / twice * batch.margin_terms
    want = np.zeros((len(ns),) + batch.active.shape)
    want[:, batch.active] = np.maximum(raw, 0.0)
    assert batch.half_rates(ns).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the rate bound by which the walk skips subchannel counts
# ---------------------------------------------------------------------------

# (taps, sigma2, P, eps, blocklengths): the channels above, and a complex one
# whose peak power gain stays below (sum |h_l|)^2
BOUND_CASES = {
    **{case: (taps, sigma2, P, eps, [n])
       for case, (taps, sigma2, P, n, eps) in SCAN_CASES.items()},
    **{f"walk_{case}": spec for case, spec in WALK_CASES.items()},
    "complex": ((0.2, -0.7, 0.1j, 0.3), 2.0, 100.0, 1e-4, [400]),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_rate_bound_holds_at_every_k(case):
    taps, sigma2, P, eps, ns = BOUND_CASES[case]
    scenario = MultiPathScenario(h=taps, sigma2=sigma2, P=P, n=max(ns), eps=eps)
    bound = multi_path._RateBound(scenario)
    rated = 0
    for n in ns:
        for k in range(len(taps), n - len(taps) + 2):
            plan = plan_alone(h=taps, sigma2=sigma2, P=P, n=n, eps=eps, subchannels=k)
            if isinstance(plan, Exception):  # infeasible, or an n too short
                continue
            assert plan.rate <= bound.bounds(k, plan.union_margin)(n), (n, k)
            rated += 1
    assert rated


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_capacity_bound_holds_at_every_k(case):
    # the water-filled sum of log2(1 + SNR) over K subchannels, which the
    # rate bound takes at most K per_k + spread
    taps, sigma2, P, eps, ns = BOUND_CASES[case]
    scenario = MultiPathScenario(h=taps, sigma2=sigma2, P=P, n=max(ns), eps=eps)
    per_k, spread = multi_path._RateBound(scenario).capacity
    assert per_k < math.inf and spread < math.inf
    for k in range(len(taps), 301):
        gains = np.square(np.abs(channel_spectrum(np.asarray(taps, dtype=complex), k)))
        powers, _ = water_fill(gains, sigma2, k * P)
        assert np.log2(1.0 + gains * powers / sigma2).sum() <= k * per_k + spread, k


def unchecked(taps, sigma2, P, eps, n=400, subchannels=None):
    """A MultiPathScenario's fields without its checks: the planners read
    them and check none, so an eps below the scenario's domain still
    reaches the rate bound's own underflow test."""
    return SimpleNamespace(h=taps, sigma2=sigma2, P=P, eps=eps, n=n, subchannels=subchannels)


# (taps, sigma2, P, eps, outcomes): channels with extreme taps, P, sigma2 or eps
SKIP_CASES = {
    "gain_snr": ((1.0, 0.5, 0.3), 1.0, P_FAILS_AT_51, 1e-6, {"skipped", "failed"}),
    # G K P / sigma2 crosses 1e150 at K = 5, the true gain^2 * SNR at K = 6
    "complex": ((1e75, 1e75 * cmath.exp(1j)), 1.0, 0.05, 1e-6, {"skipped", "walked", "failed"}),
    "tiny_eps": ((1.0, 0.5), 1.0, 10.0, 1e-321, {"skipped", "failed"}),  # eps / 4K underflows
    "underflow": ((1e-165, 1e-165), 1.0, 6e307, 1e-6, {"failed"}),  # every power gain underflows
    "threshold": ((1e-160, 1e-160), 1e-9, 1.0, 1e-6, {"failed"}),  # sigma2 / gain overflows
    "subnormal": ((1e-154, 1e-154), 1e-300, 1e-290, 1e-6, {"walked"}),  # subnormal sum |h_l|^2
    "huge_taps": ((1e150, 1e150), 1.0, 10.0, 1e-6, {"failed"}),  # (sum |h_l|)^2 overflows
    "snr_overflow": ((1.0, 0.5), 1e-300, 1e150, 1e-6, {"failed"}),  # K P / sigma2 overflows
}

# the channels whose capacity bound is not finite: their grid's power gains
# underflow, every noise threshold overflows, or M P / sigma2 overflows
CAPACITY_FALLS_BACK = {"underflow", "threshold", "snr_overflow"}


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_rate_bound_skips_only_what_passes_every_check(case):
    # against an incumbent that no K beats, the feasibility certificate alone
    # decides: a K that fails a check of the walk's batches is never skipped
    taps, sigma2, P, eps, outcomes = SKIP_CASES[case]
    n = 400
    bound = multi_path._RateBound(unchecked(taps, sigma2, P, eps),
                                  {n: SimpleNamespace(rate=math.inf)})
    bound.margin = 1.0
    ks = np.arange(len(taps), n - len(taps) + 2)
    ruled = bound.rules_out(ks)
    assert ruled.dtype == bool and ruled.shape == ks.shape
    seen = set()
    for k, skipped in zip(ks.tolist(), ruled.tolist()):
        try:
            plan_block(unchecked(taps, sigma2, P, eps, n, k))
        except (InfeasibleError, ValueError):
            assert not skipped, k
            seen.add("failed")
        else:
            seen.add("skipped" if skipped else "walked")
    assert seen == outcomes


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_capacity_bound_falls_back_without_a_warning(case):
    taps, sigma2, P, eps, _ = SKIP_CASES[case]
    bound = multi_path._RateBound(unchecked(taps, sigma2, P, eps))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        per_k, spread = bound.capacity
        bound.bounds(np.arange(len(taps), 400), 1.0)(400)
    assert ((per_k, spread) == (math.inf, math.inf)) == (case in CAPACITY_FALLS_BACK)


def test_walk_skips_most_counts(monkeypatch):
    # the bench walk admits K = 3, ..., 998 and n = 10 000 admits 9996;
    # each K is laid out at most once
    taps, sigma2, P, eps, ns = WALK_CASES["bench"]
    built = []

    def counted(h, size):
        built.append(size)
        return channel_spectrum(h, size)

    monkeypatch.setattr(multi_path, "channel_spectrum", counted)
    for blocklengths, most in ((ns, 150), ([10_000], 500)):
        built.clear()
        scenario = MultiPathScenario(h=taps, sigma2=sigma2, P=P, n=max(blocklengths), eps=eps)
        optimize_subchannel_counts(scenario, blocklengths)
        assert len(built) == len(set(built))
        assert len(built) < most, blocklengths


def test_walk_in_one_batch_never_builds_the_capacity_bound(monkeypatch):
    # sim_mp_block's n = 64 lays out K = 3, ..., 62 in its first batch
    def unbuilt(self):
        raise AssertionError("capacity bound built")

    monkeypatch.setattr(multi_path._RateBound, "capacity", property(unbuilt))
    plan = dataclasses.replace(SC3, n=64, eps=1e-2).derive()
    assert plan.rate > 0


def test_walk_rates_each_batch_once_and_bounds_each_window_once(monkeypatch):
    # 100 blocklengths: each batch is rated at all the blocklengths it can
    # win in one call, and each rule-out window evaluates the bound once
    calls = {"batches": 0, "ratings": 0, "windows": 0, "bounds": 0, "evaluations": 0}
    widest = []

    def counted(method, name):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    def best(self, ns, incumbents):
        calls["ratings"] += 1
        widest.append(len(ns))
        return rate(self, ns, incumbents)

    def bounds(self, k, margin):
        calls["bounds"] += 1
        bound = build(self, k, margin)

        def evaluated(n):
            calls["evaluations"] += 1
            return bound(n)
        return evaluated

    rate, build = multi_path._Batch.best, multi_path._RateBound.bounds
    monkeypatch.setattr(multi_path._Batch, "__init__",
                        counted(multi_path._Batch.__init__, "batches"))
    monkeypatch.setattr(multi_path._Batch, "best", best)
    monkeypatch.setattr(multi_path._RateBound, "rules_out",
                        counted(multi_path._RateBound.rules_out, "windows"))
    monkeypatch.setattr(multi_path._RateBound, "bounds", bounds)
    ns = list(range(100, 10_001, 100))
    plans = optimize_subchannel_counts(SC3, ns)
    assert all(isinstance(plan, BlockPlan) for plan in plans)
    assert 0 < calls["ratings"] <= calls["batches"] < calls["windows"]
    assert max(widest) > 1
    assert 0 < calls["bounds"] == calls["evaluations"] < calls["windows"]


def test_walk_refuses_more_counts_than_its_limit(monkeypatch):
    monkeypatch.setattr(multi_path, "_MAX_WALK", 10)
    # n = 14 admits K = 3, ..., 12, the limit; n = 15 admits one more
    walked, refused, short = optimize_subchannel_counts(SC3, [14, 15, 5])
    assert_same_plan(walked, scan_per_k(dataclasses.replace(SC3, n=14)))
    assert isinstance(refused, InfeasibleError)
    assert str(refused) == ("scheme 3: n = 15 admits 11 subchannel counts, more than "
                            "the 10 one scan may walk; set subchannels")
    assert type(short) is ValueError and str(short) == "scheme 3 needs n of at least 6, got 5"
