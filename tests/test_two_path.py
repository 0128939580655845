import math
import warnings

import numpy as np
import pytest

from skfading.numerics import InfeasibleError, q_tail_inv
from skfading.quasi_static import quantize_feedback, rate_fd_baseline
from skfading.two_path import (
    TransmitterCsi2,
    calibrate_artificial_noise,
    combining_weight,
    derive_params2,
    init_estimate,
    mmse_coefficients2,
    phase_factor,
    pilot_sign,
    rate_tp_benchmark,
    rx_aux2,
    rx_feedback2,
    sign_product,
    solve_rho_star,
    tx_step2,
)


def rho_star_oracle(H1, H2, c):
    """High-resolution bisection of the fixed point, independent path."""
    rho3 = 1.0 / (1.0 + H1 * H1 * c)
    lo = 1.0 / (1.0 + (H1 + H2 * math.sqrt(rho3)) ** 2 * c)
    hi = 1.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid < 1.0 / (1.0 + (H1 + H2 * math.sqrt(mid)) ** 2 * c):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _params(h1_hat=0.9, h2_hat=0.5, d=0.05, sz=1e-3, n=30, eps=1e-2, snr=10.0, pt=10.0):
    return derive_params2(1.0, snr, pt, sz, TransmitterCsi2(h1_hat, h2_hat, d), n, eps)


# ---------------------------------------------------------------------------
# pilot and initialization
# ---------------------------------------------------------------------------

def test_sign_product_examples():
    assert sign_product(1.0, 2.0) == 1.0
    assert sign_product(1.0, -0.3) == -1.0


def test_pilot_passes_quantizer_noiselessly():
    for sz in (0.5, 1e-3):
        _, z = quantize_feedback(2 * sz, sz)
        assert z == 0.0
        _, z = quantize_feedback(-2 * sz, sz)
        assert z == 0.0
    assert pilot_sign(0.9, -0.5, 1e-3) == -1.0
    assert pilot_sign(-0.9, -0.5, 0.0) == 1.0
    # per trial over arrays of path gains
    h1 = np.array([0.9, -0.9, 0.4, -0.2])
    h2 = np.array([-0.5, -0.5, 0.3, 0.7])
    assert np.array_equal(pilot_sign(h1, h2, 1e-3), sign_product(h1, h2))


def test_combining_weight_symmetric():
    assert combining_weight(0.7, 0.7) == pytest.approx(0.5)


def test_init_estimate_variance_and_optimality():
    h1, h2, sigma2, P = 0.9, 0.5, 1.0, 10.0
    rng = np.random.default_rng(71)
    n = 100_000
    theta = 0.2
    x1 = math.sqrt(12 * P) * theta
    y1 = h1 * x1 + rng.normal(0, math.sqrt(sigma2), n)
    y2 = h2 * x1 + rng.normal(0, math.sqrt(sigma2), n)
    est = init_estimate(y1, y2, h1, h2, P)
    err = est - theta
    want = sigma2 / (12 * P * (h1 * h1 + h2 * h2))
    se = math.sqrt(2.0 / n) * want
    assert abs(np.mean(err ** 2) - want) <= 3 * se
    # the closed-form weight beats a coarse grid around it
    kappa = combining_weight(h1, h2)
    root = math.sqrt(12 * P)
    best = np.mean(err ** 2)
    for k in np.linspace(0.1, 0.95, 18):
        if abs(k - kappa) < 0.02:
            continue
        alt = k * y1 / (h1 * root) + (1 - k) * y2 / (h2 * root) - theta
        assert best < np.mean(alt ** 2)


def test_init_estimate_drops_a_look_of_zero_weight():
    y1, y2, P = np.array([0.3, -1.2]), np.array([0.7, 0.1]), 10.0
    root = math.sqrt(12 * P)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = init_estimate(y1, y2, np.array([0.9, 0.0]), np.array([0.0, -0.5]), P)
        assert np.array_equal(est, [y1[0] / (0.9 * root), y2[1] / (-0.5 * root)])
        scalar = init_estimate(0.3, 0.7, 0.9, 0.0, P)
    assert isinstance(scalar, float) and scalar == 0.3 / (0.9 * root)
    # nonzero gains keep the plain weighted sum, bit for bit
    h1, h2 = np.array([0.9, -0.2, 1e-3]), np.array([0.5, 0.7, -2.0])
    kappa = combining_weight(h1, h2)
    plain = kappa * y1[0] / (h1 * root) + (1.0 - kappa) * y2[0] / (h2 * root)
    assert np.array_equal(init_estimate(y1[0], y2[0], h1, h2, P), plain)


# ---------------------------------------------------------------------------
# fixed point and calibration
# ---------------------------------------------------------------------------

def test_rho_star_explicit_when_single_path():
    c = 9.3
    assert solve_rho_star(0.85, 0.0, c, 1.0) == 1.0 / (1.0 + 0.85 ** 2 * c)


def test_rho_star_limit_small_gain():
    assert solve_rho_star(0.9, 0.5, 1e-12, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_rho_star_residual_and_bracket():
    rng = np.random.default_rng(15)
    for _ in range(100):
        H1 = rng.uniform(0.0, 2.0)
        H2 = rng.uniform(0.01, 2.0)
        c = rng.uniform(0.05, 50.0)
        rho = solve_rho_star(H1, H2, c, 1.0)
        resid = abs(rho - 1.0 / (1.0 + (H1 + H2 * math.sqrt(rho)) ** 2 * c))
        assert resid <= 1e-10
        rho3 = 1.0 / (1.0 + H1 * H1 * c)
        rho4 = 1.0 / (1.0 + (H1 + H2 * math.sqrt(rho3)) ** 2 * c)
        assert rho4 - 1e-12 <= rho < 1.0
        assert rho == pytest.approx(rho_star_oracle(H1, H2, c), abs=1e-12)
        assert rho3 >= rho4


@pytest.mark.parametrize("h1_hat", [1e25, 1e35, 1e60, 1e74])
def test_rho_star_resolved_at_huge_gain_snr(h1_hat):
    # rho_star is about 1/(gain^2 * snr), far below the 2^-200 that a
    # fixed 200-step bisection from 1 can reach; nothing is left to
    # calibrate, so no artificial noise may be injected
    params = _params(h1_hat=h1_hat, d=0.0)
    g1, g2 = TransmitterCsi2(h1_hat, 0.5, 0.0).conservative_gains
    c = params.P / params.sigma2 * params.scaled_err_var / params.arg_var_bound
    rho = params.var_ratio_star
    fixed = 1.0 / (1.0 + (g1 + g2 * math.sqrt(rho)) ** 2 * c)
    assert rho == pytest.approx(fixed, rel=1e-12)
    assert params.art_noise_var <= 1e-12


def test_rho_star_degenerate():
    with pytest.raises(InfeasibleError):
        solve_rho_star(0.0, 0.0, 10.0, 1.0)


def test_rho_sequence_converges():
    # the ratio map is decreasing, so the iteration closes in on the fixed
    # point through alternating over/undershoots; each two-step subsequence
    # is monotone and the whole sequence converges
    rng = np.random.default_rng(23)
    for _ in range(100):
        H1 = rng.uniform(0.05, 1.5)
        H2 = rng.uniform(0.05, 1.5)
        c = rng.uniform(0.1, 30.0)
        star = solve_rho_star(H1, H2, c, 1.0)
        rho3 = 1.0 / (1.0 + H1 * H1 * c)
        rho = 1.0 / (1.0 + (H1 + H2 * math.sqrt(rho3)) ** 2 * c)
        seq = [rho]
        for _ in range(400):
            rho = 1.0 / (1.0 + (H1 + H2 * math.sqrt(rho)) ** 2 * c)
            seq.append(rho)
        assert abs(seq[-1] - star) <= 1e-10
        evens, odds = seq[20::2], seq[21::2]
        assert all(abs(b - star) <= abs(a - star) + 1e-14 for a, b in zip(evens, evens[1:]))
        assert all(abs(b - star) <= abs(a - star) + 1e-14 for a, b in zip(odds, odds[1:]))


def test_calibration_roundtrip():
    params = _params()
    sigma2, P = params.sigma2, params.P
    aob = params.scaled_err_var / params.arg_var_bound
    g1, g2 = TransmitterCsi2(0.9, 0.5, 0.05).conservative_gains
    eff = sigma2 + params.art_noise_var
    rho4u = 1.0 / (
        1.0 + (g1 + g2 * math.sqrt(params.var_ratio_3)) ** 2 * (P / eff) * aob
    )
    assert abs(rho4u - params.var_ratio_star) <= 1e-10


def test_calibration_zero_when_already_steady():
    # rho* == rho4 means no extra noise is needed
    var = calibrate_artificial_noise(0.8, 0.4, 0.2, 0.2 / (1 + 0.0), 10.0, 1.0, 1e9)
    assert var == 0.0


def test_tiny_conservative_gains():
    # squares that underflow: no positive rate, not a division by zero
    assert _params(h1_hat=1e-200, h2_hat=0.0, d=0.0).no_positive_rate
    # rho* rounds to 1: nothing to calibrate, and no rate, but no error
    assert calibrate_artificial_noise(0.0, 1e-30, 1.0, 1.0, 10.0, 1.0, 1.0) == 0.0
    params = _params(h1_hat=0.0, h2_hat=1e-30, d=0.0)
    assert params.var_ratio_star == 1.0
    assert params.art_noise_var == 0.0
    assert params.rate == 0.0 and not params.no_positive_rate


def test_calibration_diverges_with_noise():
    # the time-4 ratio tends to 1 as the injected variance grows
    g1, g2, rho3, P, aob, sigma2 = 0.85, 0.45, 0.13, 10.0, 0.93, 1.0
    for target in (0.9, 0.99, 0.9999):
        var = calibrate_artificial_noise(g1, g2, rho3, target, P, aob, sigma2)
        eff = sigma2 + var
        rho4u = 1.0 / (1.0 + (g1 + g2 * math.sqrt(rho3)) ** 2 * (P / eff) * aob)
        assert rho4u == pytest.approx(target, abs=1e-12)
    big = calibrate_artificial_noise(g1, g2, rho3, 1 - 1e-12, P, aob, sigma2)
    assert big > 1e9


# ---------------------------------------------------------------------------
# parameter derivation
# ---------------------------------------------------------------------------

def test_derive_params2_closed_form_matches_recursion():
    params = _params(n=50)
    g1, g2 = TransmitterCsi2(0.9, 0.5, 0.05).conservative_gains
    sigma2, P = params.sigma2, params.P
    alpha = params.power_gain
    var = sigma2 / (12 * P * (g1 * g1 + g2 * g2))
    assert params.err_var_conservative[2] == pytest.approx(var, rel=1e-12)
    g = params.feedback_gains
    var3 = var / (1 + g1 ** 2 * alpha ** 2 * g[2] ** 2 * var / sigma2)
    assert params.err_var_conservative[3] == pytest.approx(var3, rel=1e-12)
    var_i = var3
    for i in range(4, 51):
        xi = g1 * g[i - 1] + g2 * g[i - 2]
        noise = sigma2 + (params.art_noise_var if i == 4 else 0.0)
        var_i = var_i / (1 + alpha ** 2 * xi ** 2 * var_i / noise)
        assert params.err_var_conservative[i] == pytest.approx(var_i, rel=1e-10)


def test_derive_params2_gain_identity():
    params = _params()
    a = params.scaled_err_var
    for i in range(2, params.n):
        prod = params.feedback_gains[i] ** 2 * params.err_var_conservative[i]
        assert prod == pytest.approx(a, rel=1e-12)


def test_derive_params2_degenerate():
    params = derive_params2(1.0, 10.0, 10.0, 1e-3, TransmitterCsi2(0.3, 0.2, 0.5), 30, 1e-2)
    assert params.no_positive_rate
    assert params.rate == 0.0


def test_derive_params2_rejects_bad_blocklength():
    with pytest.raises(ValueError):
        derive_params2(1.0, 10.0, 10.0, 1e-3, TransmitterCsi2(0.9, 0.5, 0.0), 3, 1e-2)


def test_conservative_gain_bounds_two_path():
    rng = np.random.default_rng(5)
    for _ in range(200):
        h1_hat, h2_hat = rng.uniform(-2, 2, 2)
        d = rng.uniform(0, 0.5)
        g1, g2 = TransmitterCsi2(h1_hat, h2_hat, d).conservative_gains
        h1 = h1_hat + rng.uniform(-d, d)
        h2 = h2_hat + rng.uniform(-d, d)
        assert g1 * g1 <= h1 * h1 + 1e-15
        assert g2 * g2 <= h2 * h2 + 1e-15


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rate_approaches_benchmark_with_good_csi():
    # near-perfect CSI and a fine quantizer leave at most a 2% gap
    for n in (200, 400, 1000):
        params = _params(d=1e-6, sz=1e-3, n=n, eps=1e-6)
        bench = rate_tp_benchmark(0.9, 0.5, 10.0, n, 1e-6)
        assert params.rate <= bench + 1e-12
        assert (bench - params.rate) / bench <= 0.02


def test_benchmark_single_path_limit():
    h1, snr, n, eps = 0.9, 10.0, 200, 1e-4
    bench = rate_tp_benchmark(h1, 1e-12, snr, n, eps)
    # matches the single-path baseline up to one extra half-log prefactor term
    expected = rate_fd_baseline(h1, snr, n, eps) \
        - 1.0 / (2 * n) * math.log2(1 + h1 * h1 * snr)
    assert bench == pytest.approx(expected, rel=1e-9)


def test_benchmark_formula_direct():
    h1, h2, snr, n, eps = 0.9, 0.5, 10.0, 300, 1e-6
    rho3 = 1 / (1 + h1 * h1 * snr)
    rho = rho_star_oracle(abs(h1), abs(h2), snr)
    l_factor = 4 * q_tail_inv(eps / 2) ** 2
    want = (n - 3) / (2 * n) * math.log2(1 + (h1 + h2 * math.sqrt(rho)) ** 2 * snr) \
        - 1 / (2 * n) * math.log2(l_factor * rho3 / (12 * (h1 ** 2 + h2 ** 2) * snr))
    assert rate_tp_benchmark(h1, h2, snr, n, eps) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

def test_tx_step2_reduces_to_single_path_shape():
    params = _params()
    theta, v = 0.1, 0.7
    g = params.feedback_gains[5]
    fb = g * theta + v + 0.3
    plus = tx_step2(fb, g, theta, v, 1.0, 6, params)
    # with sign +1 the phase factor is 1 at every k
    assert plus == tx_step2(fb, g, theta, v, 1.0, 7, params)
    minus6 = tx_step2(fb, g, theta, v, -1.0, 6, params)
    minus7 = tx_step2(fb, g, theta, v, -1.0, 7, params)
    assert minus6 == plus
    assert minus7 == -plus


def test_tx_step2_bounded():
    params = _params()
    rng = np.random.default_rng(4)
    fb = rng.uniform(-50, 50, 5000)
    x = tx_step2(fb, params.feedback_gains[3], 0.2, 0.1, -1.0, 5, params)
    assert np.max(np.abs(x)) <= params.power_gain * params.lattice_spacing / 2


def test_rx_aux2_strips_known_terms():
    # zero channel noise and zero error: the auxiliary signal vanishes
    params = _params()
    h1, h2, s = 0.9, 0.5, 1.0
    alpha = params.power_gain
    z_prev, z_prev2, ydot_prev = 0.11, -0.07, 0.23
    g2_, b2_ = params.feedback_gains[2], 0.4
    y = s * h1 * alpha * z_prev + s * h2 * alpha * (z_prev2 + g2_ * b2_ * ydot_prev)
    out = rx_aux2(y, z_prev, z_prev2, ydot_prev, g2_, b2_, h1, h2, s, 4, params)
    assert out == pytest.approx(0.0, abs=1e-12)


def test_mmse_coefficients2_constructive_gain():
    # phase alternation makes the two paths add in magnitude for either sign
    params = _params(d=0.0)
    _, _, combined_pos = mmse_coefficients2(params, 0.9, 0.5, 1.0)
    _, _, combined_neg = mmse_coefficients2(params, 0.9, -0.5, -1.0)
    g = params.feedback_gains
    for i in range(3, params.n):
        want = 0.9 * g[i] + 0.5 * g[i - 1]
        assert abs(combined_pos[i]) == pytest.approx(want, rel=1e-12)
        assert abs(combined_neg[i]) == pytest.approx(want, rel=1e-12)
    # without the sign correction the paths would partially cancel
    _, _, combined_wrong = mmse_coefficients2(params, 0.9, -0.5, 1.0)
    assert np.all(np.abs(combined_wrong[3: params.n]) < np.abs(combined_neg[3: params.n]))


def test_mmse_coefficients2_true_equals_conservative_for_exact_csi():
    params = _params(d=0.0, sz=1e-3)
    _, err_true, _ = mmse_coefficients2(params, 0.9, 0.5, 1.0)
    for i in range(2, params.n + 1):
        assert err_true[i] == pytest.approx(params.err_var_conservative[i], rel=1e-10)


def test_mmse_coefficients2_steady_ratio_is_rho_star():
    params = _params(d=0.0)
    _, err_true, _ = mmse_coefficients2(params, 0.9, 0.5, 1.0)
    for i in range(4, params.n):
        ratio = err_true[i + 1] / err_true[i]
        assert ratio == pytest.approx(params.var_ratio_star, rel=1e-9)


def test_mmse_coefficients2_broadcast():
    # (h1, h2, sign) broadcast to shape (2, 3): every entry of every array
    # is bit-equal to the scalar call's, with time on the last axis
    params = _params()
    h1 = np.array([[0.85], [0.95]])
    h2 = np.array([0.45, -0.5, 0.55])
    sign = np.array([[1.0, -1.0, 1.0], [1.0, -1.0, -1.0]])
    arrays = mmse_coefficients2(params, h1, h2, sign)
    for got in arrays:
        assert got.shape == (2, 3, params.n + 1)
    for i, j in np.ndindex(2, 3):
        scalar = mmse_coefficients2(params, h1[i, 0], h2[j], sign[i, j])
        for got, ref in zip(arrays, scalar):
            assert ref.shape == (params.n + 1,)
            assert got[i, j].tolist() == ref.tolist()


def mmse_coefficients2_reference(params, h1, h2, sign):
    """The textbook recursion mmse_coefficients2 runs in one pass: a fresh
    array per operation, in the same operations and order."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    sign = np.asarray(sign, dtype=float)
    shape = np.broadcast_shapes(h1.shape, h2.shape, sign.shape)
    n = params.n
    alpha = params.power_gain
    sigma2 = params.sigma2
    beta, err_var, combined = (np.zeros((n + 1,) + shape) for _ in range(3))
    var = np.broadcast_to(
        sigma2 / (12.0 * params.P * (h1 * h1 + h2 * h2)), shape
    ).copy()
    err_var[2] = var
    for i in range(2, n):
        if i == 2:
            xi = phase_factor(sign, 1) * h1 * params.feedback_gains[2]
        else:
            xi = (
                phase_factor(sign, i - 1) * h1 * params.feedback_gains[i]
                + phase_factor(sign, i - 2) * h2 * params.feedback_gains[i - 1]
            )
        noise = sigma2 + (params.art_noise_var if i == 3 else 0.0)
        combined[i] = xi
        beta[i] = alpha * xi * var / (alpha * alpha * xi * xi * var + noise)
        var = var / (1.0 + alpha * alpha * xi * xi * var / noise)
        err_var[i + 1] = var
    return tuple(np.moveaxis(a, 0, -1) for a in (beta, err_var, combined))


@pytest.mark.parametrize("n", [4, 5, 80])
@pytest.mark.parametrize("h1,h2,sign", [
    (0.9, 0.5, 1.0),
    (0.9, -0.5, -1.0),
    (np.array(0.9), np.array(-0.5), np.array(-1.0)),
    (np.array([0.85, 0.9, -0.95]), np.array([0.45, -0.5, 0.55]), np.array([1.0, -1.0, -1.0])),
    # an h1 array, a scalar h2 and a sign array broadcast to (2, 3)
    (np.array([0.8, 0.9, 1.0]), 0.5, np.array([[1.0], [-1.0]])),
    (0.0, 0.5, 1.0),
    (np.array([0.9, 0.9]), 0.0, np.array([1.0, -1.0])),
], ids=["positive", "negative", "0-d", "1-d", "broadcast", "zero_h1", "zero_h2"])
def test_mmse_coefficients2_matches_textbook_recursion(n, h1, h2, sign):
    params = _params(n=n)
    assert params.art_noise_var > 0.0  # the time-3 step adds it
    got = mmse_coefficients2(params, h1, h2, sign)
    ref = mmse_coefficients2_reference(params, h1, h2, sign)
    assert len(got) == len(ref) == 3
    for a, b in zip(got, ref):
        # equal shapes and equal float64 bit patterns (-0.0 differs from 0.0)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_rx_feedback2_in_lattice_range():
    params = _params()
    rng = np.random.default_rng(9)
    out = rx_feedback2(rng.uniform(-5, 5, 1000), params.feedback_gains[4], 0.3, params)
    assert np.max(np.abs(out)) <= params.lattice_spacing / 2
