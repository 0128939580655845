import math
import tracemalloc

import numpy as np
import pytest

from skfading.multi_path import (
    BlockPlan,
    MultiPathChannel,
    add_cyclic_prefix,
    decode_complex,
    extract_payload,
    map_complex,
    mmse_gain_mp,
    optimize_subchannel_count,
    optimize_subchannel_counts,
    plan_block,
    sub_message_sizes,
    variance_lemma3,
)
from skfading.numerics import circulant_matrix, dft, idft, q_tail_inv


def rate_lpath_oracle(taps, sigma2, P, n, eps, k):
    """Independent arithmetic pass over the closed-form rate for one K."""
    taps = np.asarray(taps, complex)
    num_paths = taps.size
    padded = np.concatenate([taps, np.zeros(k - num_paths)])
    gains = np.array([
        sum(padded[m] * np.exp(-2j * np.pi * m * j / k) for m in range(k))
        for j in range(k)
    ])
    g2 = np.abs(gains) ** 2
    # bisection water level
    pos = g2[g2 > 0]
    target = k * P
    lo, hi = 0.0, sigma2 / pos.max() + target + 1
    alloc = lambda q: np.sum(np.maximum(q - sigma2 / pos, 0.0))
    while alloc(hi) < target:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alloc(mid) < target:
            lo = mid
        else:
            hi = mid
    level = 0.5 * (lo + hi)
    blocks = n // (num_paths + k - 1)
    margin = 4 * q_tail_inv(eps / (4 * k)) ** 2
    total = 0.0
    for j in range(k):
        if g2[j] <= 0:
            continue
        pj = max(level - sigma2 / g2[j], 0.0)
        if pj <= 0:
            continue
        s = g2[j] * pj / sigma2
        half = (blocks - 1) / (2 * n) * math.log2(1 + s) \
            - 1 / (2 * n) * math.log2(margin / (12 * s))
        total += 2 * max(half, 0.0)
    return total


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def test_plan_block_flat_channel():
    channel = MultiPathChannel((2.0, 0.0), 1.0, 10.0)
    plan = plan_block(channel, 60, 1e-3, 4)
    assert np.allclose(np.abs(plan.gains), 2.0)
    assert np.allclose(plan.powers, 10.0)
    assert plan.blocks == 60 // 5


def test_plan_block_two_tap_equal():
    # gains [2, 0]: the null subchannel gets no power and carries no rate
    channel = MultiPathChannel((1.0, 1.0), 1.0, 10.0)
    plan = plan_block(channel, 40, 1e-3, 2)
    assert np.allclose(plan.gains, [2.0, 0.0], atol=1e-12)
    assert np.allclose(plan.powers, [20.0, 0.0])
    assert plan.sub_rate_half[1] == 0.0
    assert plan.rate == pytest.approx(2 * plan.sub_rate_half[0])


def test_plan_block_rate_matches_independent_pass():
    channel = MultiPathChannel((0.9, 0.5), 1.0, 10.0)
    for k in (2, 5, 11):
        plan = plan_block(channel, 120, 1e-4, k)
        oracle = rate_lpath_oracle(channel.taps, 1.0, 10.0, 120, 1e-4, k)
        assert plan.rate == pytest.approx(oracle, rel=1e-12, abs=1e-12)


def test_plan_block_power_budget():
    channel = MultiPathChannel((1.0, 0.5, 0.25), 1.0, 7.0)
    plan = plan_block(channel, 200, 1e-3, 16)
    assert abs(plan.powers.sum() - 16 * 7.0) <= 1e-9 * 16 * 7.0
    assert plan.blocks >= 1


def test_plan_block_range_check():
    channel = MultiPathChannel((1.0, 0.5), 1.0, 10.0)
    with pytest.raises(ValueError):
        plan_block(channel, 20, 1e-3, 1)
    with pytest.raises(ValueError):
        plan_block(channel, 20, 1e-3, 20)


def test_optimize_subchannel_count_is_exhaustive_max():
    channel = MultiPathChannel((1.0, 0.5, 0.25), 1.0, 10.0)
    n, eps = 300, 1e-4
    best = optimize_subchannel_count(channel, n, eps)
    rates = {}
    for k in range(3, n - 3 + 2):
        rates[k] = plan_block(channel, n, eps, k).rate
    assert best.rate == max(rates.values())
    # ties break toward the smaller count
    top = max(rates.values())
    smallest_argmax = min(k for k, r in rates.items() if r == top)
    assert best.subchannels == smallest_argmax


def test_subchannel_scan_working_set():
    # the scan holds one batch of K at a time, 0.74 MB at n = 1000; one
    # array over the whole scan (996 rows of up to 998 power gains) is 8 MB.
    # The walk shared by six blocklengths adds only their layouts of a batch.
    channel = MultiPathChannel((1.0, 0.5, 0.3), 1.0, 10.0)
    optimize_subchannel_count(channel, 40, 1e-6)  # lazy set-up stays out of the peak
    for ns in ([1000], [25, 220, 415, 610, 805, 1000]):
        tracemalloc.start()
        try:
            optimize_subchannel_counts(channel, ns, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, ns


def test_optimize_subchannel_count_minimal_blocklength():
    channel = MultiPathChannel((1.0, 0.5), 1.0, 10.0)
    best = optimize_subchannel_count(channel, 4, 1e-3)
    assert best.subchannels in (2, 3)


# ---------------------------------------------------------------------------
# per-component messages / mapping
# ---------------------------------------------------------------------------

def test_split_rate_bookkeeping():
    channel = MultiPathChannel((0.9, 0.5), 1.0, 10.0)
    plan = plan_block(channel, 60, 1e-2, 4)
    m_re, m_im, achieved = sub_message_sizes(plan)
    assert achieved <= plan.rate + 1e-12
    # flooring loses at most K log2-levels per component pair
    assert plan.rate - achieved <= 2 * plan.subchannels / plan.n + 1e-12


def test_map_complex_examples():
    assert map_complex(1, 1, 2, 2) == pytest.approx(-0.25 - 0.25j)
    theta = map_complex(3, 2, 4, 8)
    assert theta.real == pytest.approx(-0.5 + 5 / 8)
    assert theta.imag == pytest.approx(-0.5 + 3 / 16)


def test_map_complex_second_moment():
    rng = np.random.default_rng(77)
    m = 2 ** 10
    w_re = rng.integers(1, m + 1, 1_000_000)
    w_im = rng.integers(1, m + 1, 1_000_000)
    theta_re = -0.5 + (2 * w_re - 1) / (2 * m)
    theta_im = -0.5 + (2 * w_im - 1) / (2 * m)
    second = np.mean(theta_re ** 2 + theta_im ** 2)
    assert second == pytest.approx(1.0 / 6.0, rel=0.01)


def test_map_complex_grid_spacing():
    m_re, m_im = 4, 8
    grid = np.array([[map_complex(a, b, m_re, m_im) for b in range(1, m_im + 1)]
                     for a in range(1, m_re + 1)])
    assert np.allclose(np.diff(grid.real, axis=0), 1 / m_re)
    assert np.allclose(np.diff(grid.imag, axis=1), 1 / m_im)


def test_decode_complex_matches_brute_force():
    m_re, m_im = 5, 3
    mids_re = np.array([-0.5 + (2 * a - 1) / (2 * m_re) for a in range(1, m_re + 1)])
    mids_im = np.array([-0.5 + (2 * b - 1) / (2 * m_im) for b in range(1, m_im + 1)])
    rng = np.random.default_rng(1)
    for _ in range(500):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        got = decode_complex(z, m_re, m_im)
        brute = (
            int(np.argmin(np.abs(z.real - mids_re))) + 1,
            int(np.argmin(np.abs(z.imag - mids_im))) + 1,
        )
        assert got == brute


def test_decode_complex_exact_and_boundary():
    theta = map_complex(2, 3, 4, 4)
    assert decode_complex(theta, 4, 4) == (2, 3)
    off = theta + (1 / 8 + 1e-6) * 1j
    assert decode_complex(off, 4, 4) == (2, 4)


# ---------------------------------------------------------------------------
# cyclic prefix structure
# ---------------------------------------------------------------------------

def test_add_cyclic_prefix_example():
    out = add_cyclic_prefix(np.array([1 + 0j, 2 + 0j]), 2)
    assert np.array_equal(out, np.array([2, 1, 2], dtype=complex))


def test_prefix_zero_block():
    out = add_cyclic_prefix(np.zeros(5, dtype=complex), 3)
    assert np.all(out == 0)
    assert out.size == 7


def test_cyclic_prefix_turns_convolution_circulant():
    rng = np.random.default_rng(100)
    for _ in range(100):
        num_paths = int(rng.integers(2, 5))
        k = int(rng.integers(num_paths, 12))
        taps = rng.normal(size=num_paths) + 1j * rng.normal(size=num_paths)
        d = rng.normal(size=k) + 1j * rng.normal(size=k)
        sent = add_cyclic_prefix(d, num_paths)
        # linear convolution with channel memory, then drop the prefix hits
        received = np.convolve(sent, taps)[: sent.size]
        retained = extract_payload(received, num_paths)
        padded = np.concatenate([taps, np.zeros(k - num_paths)])
        want = circulant_matrix(padded) @ d
        assert np.max(np.abs(retained - want)) <= 1e-10


def test_dft_of_payload_diagonalizes():
    taps = np.array([0.9, 0.5 + 0.1j])
    k = 8
    channel = MultiPathChannel(tuple(taps), 1.0, 10.0)
    plan = plan_block(channel, 80, 1e-3, k)
    rng = np.random.default_rng(2)
    freq = rng.normal(size=k) + 1j * rng.normal(size=k)
    time_block = idft(freq)
    sent = add_cyclic_prefix(time_block, 2)
    received = np.convolve(sent, taps)[: sent.size]
    observed = dft(extract_payload(received, 2))
    assert np.max(np.abs(observed - plan.gains * freq)) <= 1e-10


# ---------------------------------------------------------------------------
# variances
# ---------------------------------------------------------------------------

def test_variance_lemma3_first_iteration():
    channel = MultiPathChannel((0.9, 0.5), 1.0, 10.0)
    plan = plan_block(channel, 60, 1e-3, 4)
    for k in np.flatnonzero(plan.powers > 0):
        total, per_comp = variance_lemma3(plan, int(k), 1)
        g2 = abs(plan.gains[k]) ** 2
        assert total == pytest.approx(plan.sigma2 / (6 * plan.powers[k] * g2), rel=1e-12)
        assert per_comp == pytest.approx(total / 2)


def test_variance_lemma3_geometric_ratio():
    channel = MultiPathChannel((0.9, 0.5), 1.0, 10.0)
    plan = plan_block(channel, 60, 1e-3, 4)
    k = int(np.argmax(plan.powers))
    s = abs(plan.gains[k]) ** 2 * plan.powers[k] / plan.sigma2
    for it in range(1, 6):
        a, _ = variance_lemma3(plan, k, it)
        b, _ = variance_lemma3(plan, k, it + 1)
        assert b / a == pytest.approx(1.0 / (1.0 + s), rel=1e-12)


def test_variance_lemma3_rejects_dead_subchannel():
    channel = MultiPathChannel((1.0, 1.0), 1.0, 10.0)
    plan = plan_block(channel, 40, 1e-3, 2)
    with pytest.raises(ValueError):
        variance_lemma3(plan, 1, 1)


def test_mmse_gain_mp_formula():
    channel = MultiPathChannel((0.9, 0.5), 1.0, 10.0)
    plan = plan_block(channel, 60, 1e-3, 4)
    k = int(np.argmax(plan.powers))
    var, _ = variance_lemma3(plan, k, 2)
    beta = mmse_gain_mp(plan, k, var)
    pk = plan.powers[k]
    g2 = abs(plan.gains[k]) ** 2
    assert beta == pytest.approx(math.sqrt(pk * var) / (pk + plan.sigma2 / g2))


def test_channel_validation():
    with pytest.raises(ValueError):
        MultiPathChannel((1.0,), 1.0, 10.0)
    with pytest.raises(ValueError):
        MultiPathChannel((0.0, 0.0), 1.0, 10.0)
    with pytest.raises(ValueError):
        MultiPathChannel((1.0, 0.5), 0.0, 10.0)


def test_decode_joint_roundtrip():
    # the message decodes when every subchannel's component pair does
    m_re, m_im = np.array([4, 1, 8]), np.array([2, 1, 4])
    rng = np.random.default_rng(55)
    w_re = rng.integers(1, m_re + 1, size=(300, 3))
    w_im = rng.integers(1, m_im + 1, size=(300, 3))
    thetas = map_complex(w_re, w_im, m_re, m_im)
    for k in range(3):
        got_re, got_im = decode_complex(thetas[:, k], int(m_re[k]), int(m_im[k]))
        assert np.array_equal(got_re, w_re[:, k])
        assert np.array_equal(got_im, w_im[:, k])
    # one component past its half spacing flips that subchannel's decision
    shifted = map_complex(2, 1, 4, 2) + 1.0 / 4
    assert decode_complex(shifted, 4, 2) != (2, 1)


def test_map_complex_broadcasts_like_scalar_calls():
    m_re, m_im = np.array([4, 1, 8]), np.array([2, 1, 16])
    rng = np.random.default_rng(8)
    w_re = rng.integers(1, m_re + 1, size=(50, 3))
    w_im = rng.integers(1, m_im + 1, size=(50, 3))
    grid = map_complex(w_re, w_im, m_re, m_im)
    for (r, k), theta in np.ndenumerate(grid):
        assert theta == map_complex(int(w_re[r, k]), int(w_im[r, k]),
                                    int(m_re[k]), int(m_im[k]))
