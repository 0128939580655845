"""Oracle for the tests: the classical perfect-CSI estimate-and-forward
iteration (Schalkwijk-Kailath with a known fading gain h).

It is the reference that the modulo-lattice scheme generalizes and that
acceptance criterion 2 checks its variance law against; the package itself
never runs it, so it lives with the tests.
"""

import math

import numpy as np


def classical_sk_error_var(h: float, snr: float, i: int) -> float:
    """Error variance after i iterations of the perfect-CSI scheme."""
    if i < 1:
        raise ValueError("iteration index starts at 1")
    h2snr = h * h * snr
    return 1.0 / (12.0 * h2snr * (1.0 + h2snr) ** (i - 1))


def classical_sk_gain(h: float, P: float, sigma2: float, err_var):
    """MMSE coefficient for estimating the previous error from Y/h."""
    return np.sqrt(P * np.asarray(err_var)) / (P + sigma2 / (h * h))


def simulate_classical_sk(
    h: float, sigma2: float, P: float, n: int, trials: int, seed: int
) -> np.ndarray:
    """Vectorized Monte Carlo of the classical scheme.

    Returns the (trials, n) matrix of estimation errors; the message drops
    out of the error recursion, so trials start directly from the first
    normalized observation.
    """
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(sigma2), size=(trials, n))
    snr = P / sigma2
    eps = np.empty((trials, n))
    eps[:, 0] = noise[:, 0] / (h * math.sqrt(12.0 * P))
    for i in range(2, n + 1):
        prev_var = classical_sk_error_var(h, snr, i - 1)
        beta = classical_sk_gain(h, P, sigma2, prev_var)
        x = math.sqrt(P / prev_var) * eps[:, i - 2]
        y = h * x + noise[:, i - 1]
        eps[:, i - 1] = eps[:, i - 2] - beta * y / h
    return eps
