import math
import warnings

import numpy as np
import pytest
from scipy import special

from skfading.numerics import InfeasibleError, modulo_reduce
from skfading.quasi_static import (
    capacity_fd,
    decode_midpoint,
    derive_params1,
    map_message,
    message_size,
    mmse_coefficients1,
    mmse_steps1,
    quantize_feedback,
    rate_fd_baseline,
    rx_feedback1,
    rx_update1,
    tx_step1,
)
from skfading.simulation import QuasiStaticScenario

from classical_sk import classical_sk_error_var, classical_sk_gain, simulate_classical_sk


def q_inv_oracle(p):
    """Independent inverse Gaussian tail via the erfc relation in scipy."""
    return math.sqrt(2.0) * special.erfcinv(2.0 * p)


def params1(h_hat, d, n, eps, sigma2=1.0, P=10.0, P_tilde=10.0, sigma_z=1e-3):
    """Scheme 1's parameters, derived from the scenario with these numbers."""
    return derive_params1(QuasiStaticScenario(
        h_hat=h_hat, distortion=d, sigma2=sigma2, P=P, P_tilde=P_tilde, sigma_z=sigma_z,
        n=n, eps=eps))


def rate_theorem1_oracle(snr, eps, h_hat, distortion, p_tilde, n, sigma_z):
    """Second implementation of the closed-form rate, product form."""
    gain = max(abs(h_hat) - distortion, 0.0)
    if gain == 0.0:
        return 0.0
    a = ((math.sqrt(3 * p_tilde) - sigma_z) / q_inv_oracle(eps / (4 * (n - 1)))) ** 2
    b = (math.sqrt(a) + sigma_z) ** 2 + 1.5 * p_tilde * eps
    l_factor = 4.0 * q_inv_oracle(eps / 4.0) ** 2
    g2snr = gain * gain * snr
    return (1.0 / (2 * n)) * math.log2(
        12.0 * g2snr * (1.0 + g2snr * a / b) ** (n - 1) / l_factor
    )


# ---------------------------------------------------------------------------
# message mapping / decoding
# ---------------------------------------------------------------------------

def test_map_message_examples():
    assert map_message(1, 2) == -0.25
    m = 64
    assert map_message(m, m) == pytest.approx(0.5 - 1.0 / (2 * m))
    spacing = np.diff(map_message(np.arange(1, m + 1), m))
    assert np.allclose(spacing, 1.0 / m)


def test_map_message_second_moment():
    m = 2 ** 20
    rng = np.random.default_rng(8)
    w = rng.integers(1, m + 1, size=1_000_000)
    theta = map_message(w, m)
    assert np.mean(theta ** 2) == pytest.approx(1.0 / 12.0, rel=0.01)


def test_map_message_range_check():
    with pytest.raises(ValueError):
        map_message(0, 4)
    with pytest.raises(ValueError):
        map_message(5, 4)


def test_decode_midpoint_roundtrip_and_boundary():
    m = 37
    for w in range(1, m + 1):
        assert decode_midpoint(map_message(w, m), m) == w
    w = 12
    delta = 1e-9
    assert decode_midpoint(map_message(w, m) + 1.0 / (2 * m) - delta, m) == w


def test_decode_midpoint_matches_linear_scan():
    m = 19
    mids = map_message(np.arange(1, m + 1), m)
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-1.0, 1.0, 500):
        brute = int(np.argmin(np.abs(theta - mids))) + 1
        fast = decode_midpoint(theta, m)
        if not np.isclose(np.abs(theta - mids[brute - 1]), np.abs(theta - mids[fast - 1])):
            assert fast == brute


def test_decode_midpoint_non_finite_is_no_message():
    # a NaN or infinite estimate decodes to 0, no message, so the trial counts
    # as an error; huge finite estimates clip to the edge messages; neither
    # raises a floating point warning
    m = 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            assert decode_midpoint(bad, m) == 0
        got = decode_midpoint(
            np.array([np.nan, map_message(3, m), np.inf, -np.inf, 1e300, -1e300]), m
        )
    assert got.tolist() == [0, 3, 0, 0, m, 1]


def test_message_size_guard():
    assert message_size(10, -1.0) == 2
    assert message_size(10, 0.5) == 32
    with pytest.raises(InfeasibleError):
        message_size(1000, 1.5)


# ---------------------------------------------------------------------------
# parameter derivation
# ---------------------------------------------------------------------------

def test_derive_params1_zero_quantizer_simplifies():
    params = params1(0.9, 0.0, 50, 1e-3, sigma_z=0.0)
    expected = 3.0 * 10.0 / q_inv_oracle(1e-3 / (4 * 49)) ** 2
    assert params.scaled_err_var == pytest.approx(expected, rel=1e-12)


def test_derive_params1_degenerate_csi():
    params = params1(0.9, 1.0, 50, 1e-3)
    assert params.no_positive_rate
    assert params.rate == 0.0


def test_derive_params1_underflowing_gain_has_no_positive_rate():
    # gain^2 * snr underflows to 0: the same degenerate case, not a log(0)
    params = params1(1e-200, 0.0, 12, 1e-2)
    assert params.no_positive_rate
    assert params.rate == 0.0


def test_derive_params1_infeasible_lattice():
    with pytest.raises(InfeasibleError):
        params1(0.9, 0.0, 50, 1e-3, P_tilde=0.01, sigma_z=5.0)


def test_derive_params1_rate_matches_independent_oracle():
    params = params1(0.9, 0.0, 100, 1e-6, sigma_z=0.0)
    oracle = rate_theorem1_oracle(10.0, 1e-6, 0.9, 0.0, 10.0, 100, 0.0)
    assert params.rate == pytest.approx(oracle, rel=1e-12)
    # frozen value from the pre-build evaluation of the same closed form
    assert params.rate == pytest.approx(1.5767124972369393, rel=1e-12)


def test_derive_params1_internal_identities():
    params = params1(0.9, 0.05, 40, 1e-2)
    a = params.scaled_err_var
    # gain_i^2 * conservative_var_i == scaled_err_var for every i
    prods = params.feedback_gains ** 2 * params.err_var_conservative[:-1]
    assert np.max(np.abs(prods - a)) <= 1e-9 * a
    # closed form equals the raw defining recursion
    gain = abs(0.9) - 0.05  # the worst gain in the CSI ball
    var = params.sigma2 / (12 * params.P * gain * gain)
    for j in range(params.n):
        assert params.err_var_conservative[j] == pytest.approx(var, rel=1e-12)
        if j < params.n - 1:
            g = params.feedback_gains[j]
            var = 1.0 / (1.0 / var + gain ** 2 * params.power_gain ** 2 * g * g / params.sigma2)
    assert params.power_gain == pytest.approx(math.sqrt(params.P / params.arg_var_bound))
    # conservative trajectory is strictly decreasing and positive
    assert np.all(params.err_var_conservative > 0)
    assert np.all(np.diff(params.err_var_conservative) < 0)


def test_conservative_gain_lower_bounds_true_gain():
    rng = np.random.default_rng(17)
    for _ in range(500):
        h_hat = rng.uniform(-2, 2)
        d = rng.uniform(0, 1.5)
        h = h_hat + rng.uniform(-d, d)
        # P / sigma2 = 1, so gain_snr is the design gain squared
        gain_snr = params1(h_hat, d, 12, 1e-2, P=1.0).gain_snr
        assert gain_snr <= h * h + 1e-15


def test_conservative_trajectory_dominates_true_one():
    params = params1(0.9, 0.05, 30, 1e-2)
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = 0.9 + rng.uniform(-0.05, 0.05)
        _, err_true = mmse_coefficients1(params, h)
        assert np.all(params.err_var_conservative >= err_true - 1e-15)


def test_true_h_trajectory_equals_conservative_when_csi_exact():
    params = params1(0.9, 0.0, 30, 1e-2)
    _, err_true = mmse_coefficients1(params, 0.9)
    assert np.max(np.abs(err_true - params.err_var_conservative)) <= 1e-15


# ---------------------------------------------------------------------------
# baseline rate
# ---------------------------------------------------------------------------

def test_rate_fd_baseline_limit():
    assert rate_fd_baseline(1.0, 3.0, 10 ** 9, 1e-6) == pytest.approx(1.0, abs=1e-6)
    assert capacity_fd(1.0, 3.0) == 1.0


def test_rate_fd_baseline_monotone_in_n():
    rates = [rate_fd_baseline(0.9, 10.0, n, 1e-6) for n in range(20, 500, 20)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_fd_baseline_direct_arithmetic():
    l_factor = 4.0 * q_inv_oracle(0.5e-6) ** 2
    expected = 99 / 200 * math.log2(1 + 8.1) - 1 / 200 * math.log2(l_factor / (12 * 8.1))
    assert rate_fd_baseline(0.9, 10.0, 100, 1e-6) == pytest.approx(expected, rel=1e-12)


def test_theorem1_rate_below_baseline():
    rng = np.random.default_rng(44)
    for _ in range(100):
        h_hat = rng.uniform(0.5, 1.5)
        d = rng.uniform(0.0, 0.2)
        n = int(rng.integers(20, 400))
        eps = 10.0 ** rng.uniform(-8, -2)
        params = params1(h_hat, d, n, eps)
        h = h_hat + rng.uniform(-d, d)
        if abs(h) < 1e-6:
            continue
        assert params.rate <= rate_fd_baseline(h, 10.0, n, eps) + 1e-12


# ---------------------------------------------------------------------------
# quantizer
# ---------------------------------------------------------------------------

def test_quantize_feedback_examples():
    y, z = quantize_feedback(1.0, 0.5)  # input at a lattice point 2*sigma_z
    assert (y, z) == (1.0, 0.0)
    assert quantize_feedback(0.0, 0.5) == (0.0, 0.0)
    y, z = quantize_feedback(0.7, 0.5)
    assert y == pytest.approx(1.0)
    assert z == pytest.approx(0.3)


def test_quantize_feedback_zero_fineness_is_identity():
    x = np.array([-1.2, 0.0, 3.7])
    y, z = quantize_feedback(x, 0.0)
    assert np.array_equal(y, x)
    assert np.all(z == 0.0)


def test_quantize_feedback_noise_range_and_consistency():
    rng = np.random.default_rng(21)
    x = rng.uniform(-20, 20, 100_000)
    sigma_z = 0.37
    y, z = quantize_feedback(x, sigma_z)
    assert np.all(z >= -sigma_z)
    assert np.all(z < sigma_z)
    assert np.allclose(y, x + z)
    # outputs are integer multiples of the quantizer step
    assert np.allclose(np.round(y / (2 * sigma_z)) * 2 * sigma_z, y, atol=1e-9)


# ---------------------------------------------------------------------------
# transmitter / receiver steps
# ---------------------------------------------------------------------------

def _small_params():
    return params1(0.9, 0.0, 12, 1e-2)


def test_tx_step1_zero_on_perfect_feedback():
    params = _small_params()
    theta, v = 0.21, 0.4
    gamma = params.feedback_gains[3]
    assert tx_step1(gamma * theta + v, gamma, theta, v, params) == pytest.approx(0.0, abs=1e-12)


def test_tx_step1_bounded_by_lattice():
    params = _small_params()
    rng = np.random.default_rng(2)
    x = tx_step1(rng.uniform(-100, 100, 10_000), params.feedback_gains[0], 0.3, 0.0, params)
    bound = params.power_gain * params.lattice_spacing / 2
    assert np.max(np.abs(x)) <= bound


def test_tx_step1_distributive_identity():
    # feeding the composed feedback reproduces alpha*M[gain*err + noise]
    params = _small_params()
    spacing = params.lattice_spacing
    rng = np.random.default_rng(10)
    for _ in range(200):
        theta = rng.uniform(-0.5, 0.5)
        err = rng.normal(0, 0.3)
        v = rng.uniform(-spacing / 2, spacing / 2)
        gamma = params.feedback_gains[4]
        x_tilde = rx_feedback1(theta + err, gamma, v, params)
        y_tilde, z = quantize_feedback(x_tilde, params.sigma_z)
        got = tx_step1(y_tilde, gamma, theta, v, params)
        want = params.power_gain * modulo_reduce(gamma * err + z, spacing)
        assert got == pytest.approx(want, abs=1e-12)


def test_rx_update1_zero_innovation():
    params = _small_params()
    theta_hat, y_dot = rx_update1(0.37, 0.0, 0.0, 0.9, 0.5, params)
    assert theta_hat == 0.37
    assert y_dot == 0.0


def test_rx_update1_cancels_known_quantization_noise():
    params = _small_params()
    h, z = 0.9, 0.123
    y = h * params.power_gain * z  # received signal carrying only the noise image
    theta_hat, y_dot = rx_update1(0.2, y, z, h, 0.7, params)
    assert y_dot == pytest.approx(0.0, abs=1e-15)
    assert theta_hat == pytest.approx(0.2)


def test_mmse_gain_beats_grid():
    # beta minimizes the empirical quadratic over a coarse grid
    params = _small_params()
    h = 0.9
    beta, err_var = mmse_coefficients1(params, h)
    i = 2
    rng = np.random.default_rng(31)
    n = 100_000
    eps_prev = rng.normal(0.0, math.sqrt(err_var[i - 1]), n)
    y_dot = h * params.power_gain * params.feedback_gains[i - 1] * eps_prev \
        + rng.normal(0.0, math.sqrt(params.sigma2), n)
    best = np.mean((eps_prev - beta[i - 1] * y_dot) ** 2)
    for scale in np.linspace(0.2, 2.0, 19):
        if abs(scale - 1.0) < 1e-9:
            continue
        trial = np.mean((eps_prev - scale * beta[i - 1] * y_dot) ** 2)
        assert best < trial


def test_mmse_coefficients_broadcast():
    params = _small_params()
    hs = np.array([0.7, 0.9, 1.1])
    beta, err = mmse_coefficients1(params, hs)
    assert beta.shape == (3, params.n - 1)
    assert err.shape == (3, params.n)
    b1, e1 = mmse_coefficients1(params, 0.9)
    # bit-equal to the scalar call
    assert beta[1].tolist() == b1.tolist()
    assert err[1].tolist() == e1.tolist()


def mmse_coefficients1_reference(params, h):
    """The textbook recursion mmse_coefficients1 runs in one pass: a fresh
    array per operation, in the same operations and order."""
    h = np.asarray(h, dtype=float)
    alpha = params.power_gain
    sigma2 = params.sigma2
    n = params.n
    var = np.broadcast_to(sigma2 / (12.0 * params.P * h * h), h.shape).copy()
    beta = np.empty((n - 1,) + h.shape)
    err_var = np.empty((n,) + h.shape)
    err_var[0] = var
    for i in range(n - 1):
        scale = h * alpha * params.feedback_gains[i]
        beta[i] = scale * var / (scale * scale * var + sigma2)
        var = var / (1.0 + scale * scale * var / sigma2)
        err_var[i + 1] = var
    return np.moveaxis(beta, 0, -1), np.moveaxis(err_var, 0, -1)


def same_bits(got, ref):
    """Equal shapes and equal float64 bit patterns (so -0.0 differs from 0.0)."""
    return got.shape == ref.shape and np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 80])
@pytest.mark.parametrize("h", [
    0.9, -0.7, np.float64(1.2), np.array(0.9), np.array([0.7, -0.9, 1.1, 1e-3]),
    np.array([[0.5], [0.8]]),
], ids=["float", "negative", "float64", "0-d", "1-d", "2-d"])
def test_mmse_coefficients1_matches_textbook_recursion(n, h):
    params = params1(0.9, 0.05, n, 1e-2)
    got = mmse_coefficients1(params, h)
    ref = mmse_coefficients1_reference(params, h)
    assert len(got) == len(ref) == 2
    for a, b in zip(got, ref):
        assert same_bits(a, b)


def test_mmse_coefficients1_zero_gain_matches_textbook_recursion():
    # h = 0 makes the initial variance infinite; both forms reach the same
    # non-finite values through the same operations
    params = params1(0.9, 0.05, 12, 1e-2)
    with np.errstate(all="ignore"):
        got = mmse_coefficients1(params, np.array([0.0, 0.9]))
        ref = mmse_coefficients1_reference(params, np.array([0.0, 0.9]))
    for a, b in zip(got, ref):
        assert same_bits(a, b)


@pytest.mark.parametrize("n", [2, 3, 80])
@pytest.mark.parametrize("h", [
    0.9, np.array(0.9), np.array([0.7, -0.9, 1.1, 1e-3]), np.array([[0.5], [0.8]]),
    np.array([0.0, 0.9]),
], ids=["float", "0-d", "1-d", "2-d", "zero_gain"])
def test_mmse_steps1_rows_match_the_stored_and_textbook_recursions(n, h):
    # the engine advances this recursion inside its closed loop: each row it
    # yields keeps its bits through later steps and equals the matching row
    # of mmse_coefficients1 and of the textbook recursion
    params = params1(0.9, 0.05, n, 1e-2)
    with np.errstate(all="ignore"):  # h = 0 starts from an infinite variance
        steps = mmse_steps1(params, h)
        first = np.asarray(next(steps))
        rows = list(steps)
        stored = mmse_coefficients1(params, h)
        ref = mmse_coefficients1_reference(params, h)
    assert len(rows) == n - 1
    for beta, err_var in (stored, ref):
        assert same_bits(first, err_var[..., 0])
        for i, (b, var) in enumerate(rows):
            assert same_bits(b, beta[..., i]) and same_bits(var, err_var[..., i + 1]), i


def test_mmse_recursion1_needs_a_positive_rate():
    params = params1(0.05, 0.1, 12, 1e-2)
    assert params.no_positive_rate
    with pytest.raises(InfeasibleError):
        next(mmse_steps1(params, 0.9))
    with pytest.raises(InfeasibleError):
        mmse_coefficients1(params, 0.9)


# ---------------------------------------------------------------------------
# classical iteration (the test-local oracle in classical_sk.py)
# ---------------------------------------------------------------------------

def test_classical_first_step_variance():
    h, sigma2, P = 0.8, 2.0, 5.0
    # the closed form at i=1 is sigma^2/(12 h^2 P)
    assert classical_sk_error_var(h, P / sigma2, 1) == pytest.approx(
        sigma2 / (12 * h * h * P), rel=1e-12
    )


def test_classical_variance_substitution():
    # h^2 snr = 3, second iteration: 1/(12*3*4) = 1/144
    assert classical_sk_error_var(1.0, 3.0, 2) == pytest.approx(1.0 / 144.0)


def test_classical_variance_monte_carlo():
    h, sigma2, P = 1.0, 1.0, 3.0
    n, trials = 5, 1_000_000
    eps = simulate_classical_sk(h, sigma2, P, n, trials, seed=909)
    var5 = np.var(eps[:, 4])
    want = classical_sk_error_var(h, P / sigma2, 5)
    se = math.sqrt(2.0 / trials) * want
    assert abs(var5 - want) <= 3 * se


def test_classical_gain_shape():
    beta = classical_sk_gain(1.0, 3.0, 1.0, classical_sk_error_var(1.0, 3.0, 1))
    # beta = sqrt(P * var)/(P + sigma2/h^2) by definition
    assert beta == pytest.approx(math.sqrt(3.0 / 36.0) / 4.0)
