import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from skfading.numerics import (
    MAX_GAIN_SNR,
    InfeasibleError,
    channel_spectrum,
    circulant_matrix,
    dft,
    idft,
    modulo_reduce,
    philox_key,
    q_tail,
    q_tail_inv,
    require_gain_snr,
    water_fill,
)
from skfading.simulation import TAG_DITHER, _keyed_streams


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def q_tail_quadrature(x):
    """Defining integral of the Gaussian tail, evaluated by quadrature."""
    val, err = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
        x,
        np.inf,
        epsabs=0.0,
        epsrel=1e-13,
        limit=500,
    )
    assert err < 1e-12 * abs(val)
    return val


def q_tail_inv_bisect(p):
    lo, hi = 0.0, 1.0
    while q_tail(hi) > p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_tail(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def modulo_brute_force(x, d):
    """Nearest-lattice scan over candidate points floor(x/d) +- 2."""
    k0 = math.floor(x / d)
    best_k = None
    best_dist = math.inf
    for k in range(k0 - 2, k0 + 3):
        dist = abs(x - k * d)
        # tie resolves to the upper lattice point so the offset is -d/2
        if dist < best_dist or (dist == best_dist and k > best_k):
            best_k, best_dist = k, dist
    return x - best_k * d


def keyed_dithers(seed, trials, width, spacing):
    """Dithers drawn and scaled as the scheme-1 engine draws them: one keyed
    stream per trial, uniforms on [-spacing/2, spacing/2)."""
    rows = np.empty((trials, width))
    for row, gen in zip(rows, _keyed_streams(seed, range(trials), TAG_DITHER)):
        gen.random(out=row)
    rows -= 0.5
    rows *= spacing
    return rows


def water_level_bisect(gains, noise_var, total):
    """Bisection on the monotone map level -> allocated power."""
    g = np.asarray(gains, float)
    pos = g[g > 0]
    alloc = lambda q: np.sum(np.maximum(q - noise_var / pos, 0.0))
    lo, hi = 0.0, noise_var / pos.max() + total + 1.0
    while alloc(hi) < total:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alloc(mid) < total:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# q_tail / q_tail_inv
# ---------------------------------------------------------------------------

def test_q_tail_at_zero():
    assert q_tail(0.0) == 0.5


def test_q_tail_matches_quadrature():
    for x in [-2.0, -0.3, 0.1, 0.7, 1.2815515655, 2.0, 3.5, 5.0]:
        assert q_tail(x) == pytest.approx(q_tail_quadrature(x), rel=1e-12)


def test_q_tail_decile():
    assert q_tail(1.2815515655) == pytest.approx(0.1, rel=1e-9)


def test_q_tail_chernoff_bound():
    # Q(x) <= exp(-x^2/2)/2, used by the error-exponent bounds
    for x in [0.5, 1.0, 3.0, 5.0]:
        assert q_tail(x) <= 0.5 * math.exp(-0.5 * x * x)


def test_q_tail_monotone():
    xs = np.linspace(-6, 8, 200)
    vals = [q_tail(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_q_tail_rejects_nonfinite():
    with pytest.raises(ValueError):
        q_tail(math.nan)
    with pytest.raises(ValueError):
        q_tail(math.inf)


def test_q_tail_inv_basics():
    assert q_tail_inv(0.5) == 0.0
    assert q_tail_inv(0.1) == pytest.approx(q_tail_inv_bisect(0.1), abs=1e-12)
    assert q_tail_inv(0.1) == pytest.approx(1.2815515655, abs=1e-9)


def test_q_tail_inv_symmetry():
    assert q_tail_inv(0.9) == pytest.approx(-q_tail_inv(0.1), abs=1e-13)


def test_q_tail_inv_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            q_tail_inv(bad)


def test_q_tail_roundtrip():
    for p in [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5]:
        assert q_tail(q_tail_inv(p)) == pytest.approx(p, abs=1e-10)
        # relative agreement is also tight, well beyond the contract
        assert q_tail(q_tail_inv(p)) == pytest.approx(p, rel=1e-9)


# ---------------------------------------------------------------------------
# modulo lattice
# ---------------------------------------------------------------------------

def test_modulo_lattice_points():
    assert modulo_reduce(0.0, 1.0) == 0.0
    assert modulo_reduce(3.0, 1.0) == 0.0


def test_modulo_tie_gives_lower_edge():
    # exactly halfway between lattice points -> -d/2 (half-open range)
    assert modulo_reduce(1.0, 2.0) == -1.0
    assert modulo_reduce(-1.0, 2.0) == -1.0
    assert modulo_reduce(0.5, 1.0) == -0.5


def test_modulo_agrees_with_brute_force_scan():
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(-50, 50, 100_000)
    ds = rng.uniform(0.1, 5.0, 100_000)
    got = modulo_reduce(xs, 1.0)
    vec = np.array([modulo_brute_force(x, d) for x, d in zip(xs[:2000], ds[:2000])])
    scalars = np.array([modulo_reduce(float(x), float(d)) for x, d in zip(xs[:2000], ds[:2000])])
    assert np.max(np.abs(vec - scalars)) <= 1e-12
    # vectorized path agrees with the scalar path on the full draw
    per_d = modulo_reduce(xs, 2.0)
    brute = np.array([modulo_brute_force(x, 2.0) for x in xs[:2000]])
    assert np.max(np.abs(per_d[:2000] - brute)) <= 1e-12
    assert got.shape == xs.shape


def test_modulo_range_and_periodicity():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-100, 100, 100_000)
    d = 1.7
    r = modulo_reduce(xs, d)
    assert np.all(r >= -d / 2)
    assert np.all(r < d / 2)
    shifted = modulo_reduce(xs + 3 * d, d)
    assert np.max(np.abs(shifted - r)) <= 1e-9


def test_modulo_infinite_spacing_is_identity():
    # 0 is the only lattice point in reach: x comes back bit for bit
    assert modulo_reduce(-2.5, math.inf) == -2.5
    assert isinstance(modulo_reduce(-2.5, math.inf), float)
    assert math.copysign(1.0, modulo_reduce(-0.0, math.inf)) == -1.0
    xs = np.array([-0.0, 0.0, 1e300, -1e300, 5e-324, -2.2e-308, 0.3, -7.0])
    got = modulo_reduce(xs, math.inf)
    assert got.tobytes() == xs.tobytes()
    grid = xs.reshape(2, 4)
    assert modulo_reduce(grid, math.inf).tobytes() == grid.tobytes()


def test_modulo_distributive_law_examples():
    # reduce(reduce(x + d1) + d2 - x) == reduce(d1 + d2)
    for x, d1, d2, d in [(0.3, 0.7, -0.2, 1.0), (5.9, -3.3, 8.8, 2.0)]:
        lhs = modulo_reduce(modulo_reduce(x + d1, d) + d2 - x, d)
        assert abs(lhs - modulo_reduce(d1 + d2, d)) <= 1e-12


def test_modulo_distributive_law_sweep():
    rng = np.random.default_rng(99)
    x = rng.uniform(-20, 20, 100_000)
    d1 = rng.uniform(-20, 20, 100_000)
    d2 = rng.uniform(-20, 20, 100_000)
    d = 1.3
    lhs = modulo_reduce(modulo_reduce(x + d1, d) + d2 - x, d)
    rhs = modulo_reduce(d1 + d2, d)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------------------
# dithers from the keyed streams
# ---------------------------------------------------------------------------

def test_dither_determinism():
    a = keyed_dithers(12345, 6, 18, 2.0)
    b = keyed_dithers(12345, 6, 18, 2.0)
    assert np.array_equal(a, b)
    # every trial has its own stream
    assert len({row.tobytes() for row in a}) == 6


def test_dither_take_matches_next():
    # a row filled at once holds the successive draws of the trial's stream
    block = keyed_dithers(42, 1, 10, 1.5)[0]
    gen = next(_keyed_streams(42, [0], TAG_DITHER))
    singles = np.array([(gen.random() - 0.5) * 1.5 for _ in range(10)])
    assert np.array_equal(block, singles)


def test_dither_moments():
    d = 3.0
    vals = keyed_dithers(2024, 1000, 1000, d).ravel()
    assert np.all(vals >= -d / 2)
    assert np.all(vals < d / 2)
    # mean within 3 sigma of the uniform-mean estimator
    se = d / math.sqrt(12.0) / math.sqrt(vals.size)
    assert abs(vals.mean()) <= 3 * se
    # second moment d^2/12 within 1%
    assert vals.var() == pytest.approx(d * d / 12.0, rel=0.01)


def test_dithered_modulo_uniform_and_moment():
    # dither makes the reduced signal uniform regardless of the input
    d = 2.0
    lat_spacing = d
    v = keyed_dithers(31337, 1000, 1000, d).ravel()
    offsets = np.array([0.0, 0.37 * d, 1000.25 * d, -3.1])
    reduced = modulo_reduce(v[None, :] + offsets[:, None], lat_spacing).ravel()
    assert reduced.var() == pytest.approx(d * d / 12.0, rel=0.01)
    # KS test at the 1% level against Unif[-d/2, d/2)
    unif = (reduced + d / 2) / d
    res = stats.kstest(unif[::4], "uniform")
    assert res.pvalue > 0.01


def test_philox_key_disjoint():
    assert philox_key(1, 2, 3) != philox_key(1, 3, 2)
    assert philox_key(1, 0, 0) != philox_key(0, 1, 0)


# ---------------------------------------------------------------------------
# DFT / spectra
# ---------------------------------------------------------------------------

def test_dft_two_point():
    out = dft([1.0, 1.0])
    assert np.allclose(out, [math.sqrt(2.0), 0.0], atol=1e-14)
    back = idft([math.sqrt(2.0), 0.0])
    assert np.allclose(back, [1.0, 1.0], atol=1e-14)


def test_idft_zero():
    assert np.allclose(idft(np.zeros(8)), np.zeros(8))


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 64])
def test_dft_roundtrip_and_parseval(k):
    rng = np.random.default_rng(k)
    x = rng.normal(size=k) + 1j * rng.normal(size=k)
    y = dft(x)
    assert np.linalg.norm(idft(y) - x) <= 1e-12 * max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(dft(idft(x)) - x) <= 1e-12 * max(1.0, np.linalg.norm(x))
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)


def test_dft_acts_on_the_last_axis():
    # a (trials, K) batch transforms row by row, bit for bit
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    assert np.array_equal(dft(x), np.array([dft(row) for row in x]))
    assert np.array_equal(idft(x), np.array([idft(row) for row in x]))


def test_dft_empty_rejected():
    with pytest.raises(ValueError):
        dft([])
    with pytest.raises(ValueError):
        idft([])


def test_channel_spectrum_examples():
    assert np.allclose(channel_spectrum([1.0, 1.0], 2), [2.0, 0.0], atol=1e-14)
    assert np.allclose(channel_spectrum([1.0], 4), [1.0, 1.0, 1.0, 1.0], atol=1e-14)


def test_channel_spectrum_matches_dense_eigendecomposition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        taps = rng.normal(size=3) + 1j * rng.normal(size=3)
        k = int(rng.integers(3, 12))
        gains = channel_spectrum(taps, k)
        padded = np.concatenate([taps, np.zeros(k - 3)])
        dense = circulant_matrix(padded)
        eigs = np.linalg.eigvals(dense)
        # compare as multisets (eigenvalue order is arbitrary)
        got = np.sort_complex(np.round(gains, 8))
        want = np.sort_complex(np.round(eigs, 8))
        assert np.max(np.abs(got - want)) <= 1e-6
        # and exactly via the unitary diagonalization F Hc F^H
        f = np.array([[np.exp(-2j * np.pi * i * j / k) for j in range(k)] for i in range(k)])
        f /= math.sqrt(k)
        lam = f @ dense @ f.conj().T
        assert np.max(np.abs(np.diag(lam) - gains)) <= 1e-10


def test_channel_spectrum_explicit_example():
    gains = channel_spectrum([1.0, 0.5], 4)
    dense = circulant_matrix([1.0, 0.5, 0.0, 0.0])
    f = np.fft.fft(np.eye(4), axis=0) / 2.0
    lam = np.diag(f @ dense @ f.conj().T)
    assert np.max(np.abs(lam - gains)) <= 1e-10


def test_channel_spectrum_rejects_short_size():
    with pytest.raises(ValueError):
        channel_spectrum([1.0, 2.0, 3.0], 2)


def test_channel_spectrum_bit_equal_to_zero_padded_fft():
    # the FFT pads the taps to the size itself, with the bits of padding first
    rng = np.random.default_rng(2002)
    for num_taps in range(2, 7):
        for kind in ("real", "complex"):
            taps = rng.normal(size=num_taps)
            if kind == "complex":
                taps = taps + 1j * rng.normal(size=num_taps)
            for size in range(num_taps, 301):
                padded = np.concatenate([taps, np.zeros(size - num_taps)]).astype(complex)
                got = channel_spectrum(taps, size)
                assert got.dtype == complex and got.shape == (size,)
                assert got.tobytes() == np.fft.fft(padded).tobytes(), (num_taps, kind, size)


def test_spectral_decomposition_roundtrip():
    gains = channel_spectrum([0.3, -0.7, 0.2], 6)
    assert isinstance(gains, np.ndarray) and gains.shape == (6,)
    dense = circulant_matrix(np.fft.ifft(gains))
    assert np.allclose(dense[:, 0], [0.3, -0.7, 0.2, 0, 0, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# water-filling
# ---------------------------------------------------------------------------

def test_water_fill_equal_gains():
    powers, level = water_fill([2.0, 2.0, 2.0], 1.0, 9.0)
    assert np.allclose(powers, [3.0, 3.0, 3.0])
    assert level == pytest.approx(3.5)


def test_water_fill_zero_gain_channel():
    powers, _ = water_fill([1.5, 0.0], 1.0, 4.0)
    assert np.allclose(powers, [4.0, 0.0])


def test_water_fill_all_zero_is_infeasible():
    with pytest.raises(InfeasibleError):
        water_fill([0.0, 0.0], 1.0, 1.0)


def test_water_fill_matches_bisection_oracle():
    cases = [([1.0, 0.25], 1.0, 2.0)]
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g = rng.uniform(0, 2.0, n)
        if not np.any(g > 0):
            g[0] = 1.0
        cases.append((g, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.5, 20.0))))
    for g, s2, total in cases:
        powers, level = water_fill(g, s2, total)
        assert abs(powers.sum() - total) <= 1e-9 * max(1.0, total)
        oracle = water_level_bisect(g, s2, total)
        assert level == pytest.approx(oracle, abs=1e-8)
        g = np.asarray(g, float)
        for gk, pk in zip(g, powers):
            if pk > 0:
                # complementary slackness, exact arithmetic identity
                assert pk == level - s2 / gk
            elif gk > 0:
                assert level <= s2 / gk + 1e-12


# (gains, noise_var, total_power, message)
WATER_FILL_BAD_INPUTS = [
    ([], 1.0, 1.0, "gains must be a nonempty 1-D sequence"),
    (2.0, 1.0, 1.0, "gains must be a nonempty 1-D sequence"),
    ([[[1.0]]], 1.0, 1.0, "gains must be a nonempty 1-D sequence"),
    ([-1.0], 1.0, 1.0, "gains must be finite and nonnegative"),
    ([1.0, math.nan], 1.0, 1.0, "gains must be finite and nonnegative"),
    ([math.inf], 1.0, 1.0, "gains must be finite and nonnegative"),
    ([1.0], 0.0, 1.0, "noise variance must be positive, got 0.0"),
    ([1.0], math.inf, 1.0, "noise variance must be positive, got inf"),
    ([1.0], 1.0, 0.0, "total power must be positive, got 0.0"),
    ([1.0], 1.0, math.nan, "total power must be positive, got nan"),
    (np.zeros((2, 0)), 1.0, 1.0, "2-D gains must have nonempty rows"),
    ([[1.0], [-1.0]], 1.0, 1.0, "gains must be finite and nonnegative"),
    ([[1.0], [2.0]], 1.0, [1.0, -1.0],
     "total power must be positive, got [1.0, -1.0]"),
]


def test_water_fill_input_validation():
    for gains, noise_var, total, message in WATER_FILL_BAD_INPUTS:
        with pytest.raises(ValueError) as exc:
            water_fill(gains, noise_var, total)
        assert str(exc.value) == message
        assert not isinstance(exc.value, InfeasibleError)


def test_water_fill_rows():
    powers, levels = water_fill([[2.0, 2.0, 2.0], [1.5, 0.0, 0.0]], 1.0, [9.0, 4.0])
    assert np.allclose(powers, [[3.0, 3.0, 3.0], [4.0, 0.0, 0.0]])
    assert np.allclose(levels, [3.5, 4.0 + 1.0 / 1.5])
    # a scalar total power serves every row
    powers, _ = water_fill([[1.0, 1.0], [1.0, 0.0]], 1.0, 2.0)
    assert np.allclose(powers, [[1.0, 1.0], [2.0, 0.0]])
    # one all-zero row makes the whole batch infeasible
    with pytest.raises(InfeasibleError, match="all channel gains are zero"):
        water_fill([[1.0, 0.5], [0.0, 0.0]], 1.0, 1.0)


def test_water_fill_overflowing_thresholds():
    # a gain whose threshold noise_var / gain overflows takes no power, as a
    # zero gain would, and without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers, level = water_fill([1.0, 1e-320, 0.5], 1.0, 3.0)
        assert powers.tolist() == water_fill([1.0, 0.0, 0.5], 1.0, 3.0)[0].tolist()
        assert level == 3.0
        # a row of such gains only is infeasible
        with pytest.raises(InfeasibleError, match="overflows for every gain"):
            water_fill([[1.0, 0.5], [1e-320, 4e-320]], 1.0, 1.0)


# ---------------------------------------------------------------------------
# gain^2 * SNR range
# ---------------------------------------------------------------------------

def test_require_gain_snr_bounds():
    for ok in (0.0, 1e-300, 1.0, MAX_GAIN_SNR):
        require_gain_snr(ok, "test")
    # its square and the constants around it stay finite doubles
    assert math.isfinite(1e3 * MAX_GAIN_SNR * MAX_GAIN_SNR)
    for bad in (math.nextafter(MAX_GAIN_SNR, math.inf), 1e300, math.inf, math.nan):
        with pytest.raises(InfeasibleError, match="test: gain"):
            require_gain_snr(bad, "test")
    # a closed form that takes the log of the reciprocal needs a floor
    require_gain_snr(1.0 / MAX_GAIN_SNR, "test", floor=1.0 / MAX_GAIN_SNR)
    for bad in (0.0, 1e-200, math.nan):
        with pytest.raises(InfeasibleError, match="outside"):
            require_gain_snr(bad, "test", floor=1.0 / MAX_GAIN_SNR)


def modulo_reduce_by_copies(x, spacing):
    """modulo_reduce as one expression and two np.where copies: the
    reference the in-place form must match bit for bit."""
    x = np.asarray(x, dtype=float)
    r = x - spacing * np.floor(x / spacing + 0.5)
    half = 0.5 * spacing
    r = np.where(r < -half, r + spacing, r)
    r = np.where(r >= half, r - spacing, r)
    return float(r) if r.ndim == 0 else r


def test_modulo_in_place_matches_the_copying_form():
    rng = np.random.default_rng(11)
    spacings = [1.0, 1.7, 2.0, 0.1, 3.0 / 7.0, 1e-3, 12.5, np.sqrt(120.0)]
    raw_misses = 0
    for d in spacings:
        # exact ties at +-d/2 and the few doubles around every k*d +- d/2,
        # where the first rounding can leave the half-open range
        edges = (np.arange(-60, 61) + 0.5) * d
        near = [edges, -edges]
        for direction in (np.inf, -np.inf):
            step = edges
            for _ in range(3):
                step = np.nextafter(step, direction)
                near.append(step)
        xs = np.concatenate(near + [np.array([0.0, -0.0, d / 2, -d / 2]),
                                    rng.uniform(-1e3, 1e3, 4096) * d])
        raw = xs - d * np.floor(xs / d + 0.5)
        raw_misses += np.count_nonzero((raw < -d / 2) | (raw >= d / 2))
        assert modulo_reduce(xs, d).tobytes() == modulo_reduce_by_copies(xs, d).tobytes()
        for x in xs[::97]:
            got = modulo_reduce(float(x), d)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(modulo_reduce_by_copies(x, d)).tobytes()
            assert isinstance(modulo_reduce(np.float64(x), d), float)
            assert isinstance(modulo_reduce(np.array(x), d), float)
    assert raw_misses > 0  # the range guards were exercised
    # per-element spacings broadcast against x, as in the acceptance tests
    xs = rng.uniform(-50, 50, (64, 5))
    ds = rng.uniform(0.1, 5.0, 5)
    assert modulo_reduce(xs, ds).tobytes() == modulo_reduce_by_copies(xs, ds).tobytes()
    assert modulo_reduce(0.75, ds).tobytes() == modulo_reduce_by_copies(0.75, ds).tobytes()
    # an integer spacing and an input array that must stay untouched
    before = xs.copy()
    assert modulo_reduce(xs, 3).tobytes() == modulo_reduce_by_copies(xs, 3).tobytes()
    assert xs.tobytes() == before.tobytes()
