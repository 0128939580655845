"""Feedback iteration for the quasi-static fading channel.

Covers the classical perfect-CSI estimate-and-forward iteration and its
modulo-lattice variant for imperfect transmitter CSI with quantized
feedback: message mapping, parameter derivation, transmitter/receiver step
functions and nearest-midpoint decoding. Step functions broadcast over
numpy arrays so many trials can run in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    MAX_GAIN_SNR,
    InfeasibleError,
    modulo_reduce,
    q_tail_inv,
    require_gain_snr,
)

__all__ = [
    "TransmitterCsi",
    "QuasiStaticParams",
    "map_message",
    "decode_midpoint",
    "message_size",
    "derive_params1",
    "rate_fd_baseline",
    "capacity_fd",
    "quantize_feedback",
    "tx_step1",
    "rx_update1",
    "rx_feedback1",
    "mmse_coefficients1",
    "classical_sk_error_var",
    "classical_sk_gain",
    "classical_sk_update",
    "simulate_classical_sk",
]

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class TransmitterCsi:
    """What the transmitter knows: an estimate and a distortion bound."""

    h_hat: float
    distortion: float

    def __post_init__(self) -> None:
        if self.distortion < 0:
            raise ValueError("distortion bound must be nonnegative")

    @property
    def conservative_gain(self) -> float:
        """Worst-case |h| consistent with the estimate, clamped at zero."""
        return max(abs(self.h_hat) - self.distortion, 0.0)


@dataclass(frozen=True)
class QuasiStaticParams:
    """Derived constants of the quantized-feedback scheme.

    feedback_gains[i] scales the receiver's estimate before the modulo
    feedback at time i+1 (1-based times 1..n-1); err_var_conservative[j]
    is the worst-case error variance at time j+1 (1-based 1..n).
    """

    n: int
    eps: float
    sigma2: float
    P: float
    P_tilde: float
    sigma_z: float
    scaled_err_var: float        # target second moment of gain * error
    arg_var_bound: float         # bound on the modulo argument second moment
    power_gain: float            # transmit scaling sqrt(P / arg_var_bound)
    lattice_spacing: float       # sqrt(12 * P_tilde)
    feedback_gains: np.ndarray
    err_var_conservative: np.ndarray
    rate: float
    no_positive_rate: bool

    @property
    def snr(self) -> float:
        return self.P / self.sigma2


def map_message(w, m):
    """Map message index w in 1..m to the midpoint of its subinterval.

    m may be an array of alphabet sizes that broadcasts against w.
    """
    w_arr = np.asarray(w)
    if np.any(w_arr < 1) or np.any(w_arr > m):
        raise ValueError(f"message index out of range 1..{m}")
    theta = -0.5 + (2.0 * w_arr - 1.0) / (2.0 * m)
    if theta.ndim == 0:
        return float(theta)
    return theta


def decode_midpoint(theta_hat, m: int):
    """Nearest midpoint decision; inverse of map_message on clean input."""
    u = (np.asarray(theta_hat) + 0.5) * m
    w = np.floor(u).astype(np.int64) + 1
    w = np.clip(w, 1, m)
    if w.ndim == 0:
        return int(w)
    return w


def message_size(n: int, rate: float) -> int:
    """Integer alphabet size floor(2^(n rate)), at least 2."""
    if rate <= 0:
        return 2
    bits = n * rate
    if bits > 50:
        raise InfeasibleError(
            f"message alphabet of 2^{bits:.1f} exceeds double-precision "
            "midpoint resolution; reduce n or the rate for simulation"
        )
    return max(int(math.floor(2.0 ** bits)), 2)


def derive_params1(
    sigma2: float,
    P: float,
    P_tilde: float,
    sigma_z: float,
    csi: TransmitterCsi,
    n: int,
    eps: float,
) -> QuasiStaticParams:
    """Derive the scheme constants from public quantities and the CSI view.

    Only ingredients available to the transmitter enter here; the true h
    never does. The no_positive_rate flag marks the degenerate case where
    the distortion ball contains zero gain.
    """
    if n < 2:
        raise ValueError("blocklength must be at least 2")
    if not (0.0 < eps < 1.0):
        raise ValueError("target error probability must lie in (0, 1)")
    if sigma2 <= 0 or P <= 0 or P_tilde <= 0 or sigma_z < 0:
        raise ValueError("invalid channel budget parameters")
    if not math.isfinite(12.0 * P_tilde):
        raise InfeasibleError(
            f"P_tilde={P_tilde:.4g} overflows the feedback lattice spacing sqrt(12*P_tilde)"
        )
    root3p = math.sqrt(3.0 * P_tilde)
    if root3p <= sigma_z:
        raise InfeasibleError(
            f"feedback lattice too small: sqrt(3*P_tilde)={root3p:.4g} "
            f"must exceed the quantizer fineness sigma_z={sigma_z:.4g}"
        )
    snr = P / sigma2
    a = ((root3p - sigma_z) / q_tail_inv(eps / (4.0 * (n - 1)))) ** 2
    b = (math.sqrt(a) + sigma_z) ** 2 + 1.5 * P_tilde * eps
    alpha = math.sqrt(P / b)
    spacing = math.sqrt(12.0 * P_tilde)

    gain = csi.conservative_gain
    g2snr = gain * gain * snr
    if g2snr == 0.0:  # zero gain, or one whose squared SNR underflows
        return QuasiStaticParams(
            n=n, eps=eps, sigma2=sigma2, P=P, P_tilde=P_tilde, sigma_z=sigma_z,
            scaled_err_var=a, arg_var_bound=b, power_gain=alpha,
            lattice_spacing=spacing,
            feedback_gains=np.zeros(0), err_var_conservative=np.zeros(0),
            rate=0.0, no_positive_rate=True,
        )
    require_gain_snr(g2snr, "scheme 1")

    # log-domain evaluation; the trajectory spans hundreds of orders of
    # magnitude at large blocklengths
    log_ratio = -math.log1p(g2snr * a / b)
    log_err_var = -math.log(12.0 * g2snr) + log_ratio * np.arange(n)
    err_var = np.exp(log_err_var)
    # late-time gains can exceed the double range at blocklengths far past
    # anything simulatable; rate evaluation never touches them
    with np.errstate(over="ignore"):
        gains = np.exp(0.5 * (math.log(a) - log_err_var[: n - 1]))
    l_factor = 4.0 * q_tail_inv(eps / 4.0) ** 2
    raw_rate = (n - 1) / (2.0 * n) * math.log2(1.0 + g2snr * a / b) \
        - 1.0 / (2.0 * n) * math.log2(l_factor / (12.0 * g2snr))
    return QuasiStaticParams(
        n=n, eps=eps, sigma2=sigma2, P=P, P_tilde=P_tilde, sigma_z=sigma_z,
        scaled_err_var=a, arg_var_bound=b, power_gain=alpha,
        lattice_spacing=spacing,
        feedback_gains=gains, err_var_conservative=err_var,
        rate=max(raw_rate, 0.0), no_positive_rate=False,
    )


def rate_fd_baseline(h: float, snr: float, n: int, eps: float) -> float:
    """Finite-blocklength rate of the perfect-CSI noiseless-feedback scheme."""
    if h == 0:
        raise ValueError("baseline rate needs a nonzero fading coefficient")
    l_factor = 4.0 * q_tail_inv(eps / 2.0) ** 2
    h2snr = h * h * snr
    require_gain_snr(h2snr, "fd baseline", floor=1.0 / MAX_GAIN_SNR)
    return (n - 1) / (2.0 * n) * math.log2(1.0 + h2snr) \
        - 1.0 / (2.0 * n) * math.log2(l_factor / (12.0 * h2snr))


def capacity_fd(h: float, snr: float) -> float:
    """Asymptotic limit of the perfect-CSI feedback rate."""
    h2snr = h * h * snr
    require_gain_snr(h2snr, "capacity")
    return 0.5 * math.log2(1.0 + h2snr)


def quantize_feedback(x, sigma_z: float):
    """Receiver-side quantizer: snap to the nearest multiple of 2*sigma_z.

    Returns (quantized value, quantization noise) with noise in
    [-sigma_z, sigma_z); the noise is known causally to the receiver.
    sigma_z = 0 passes the signal through unchanged.
    """
    x = np.asarray(x, dtype=float)
    if sigma_z == 0.0:
        z = np.zeros_like(x)
        out = x
    else:
        step = 2.0 * sigma_z
        k = np.ceil(x / step - 0.5)
        out = step * k
        z = out - x
    if x.ndim == 0:
        return float(out), float(z)
    return out, z


def tx_step1(feedback_prev, gain_prev, theta, dither_prev, params: QuasiStaticParams):
    """Transmitter iteration: scaled modulo residual of the fresh feedback."""
    arg = feedback_prev - gain_prev * theta - dither_prev
    return params.power_gain * modulo_reduce(arg, params.lattice_spacing)


def rx_update1(theta_hat_prev, y, z_prev, h, beta_prev, params: QuasiStaticParams):
    """Receiver iteration: cancel known quantization noise, then update.

    Returns (theta_hat, y_dot) where y_dot is the auxiliary signal with the
    quantization-noise image removed.
    """
    y_dot = y - h * params.power_gain * z_prev
    return theta_hat_prev - beta_prev * y_dot, y_dot


def rx_feedback1(theta_hat, gain_i, dither_i, params: QuasiStaticParams):
    """Receiver feedback symbol: dithered modulo of the scaled estimate."""
    return modulo_reduce(gain_i * theta_hat + dither_i, params.lattice_spacing)


def mmse_coefficients1(params: QuasiStaticParams, h):
    """Receiver MMSE gains and the matching error-variance trajectory.

    Uses the true h, which the receiver knows; the transmit-side gains in
    ``params`` stay conservative. Broadcasts over an array of h values so a
    batch of channels can be prepared at once. Returns (beta, err_var) with
    beta[..., i] applied at time i+2 and err_var[..., j] the variance at
    time j+1.
    """
    if params.no_positive_rate:
        raise InfeasibleError("parameters flag no positive rate; nothing to iterate")
    h = np.asarray(h, dtype=float)
    alpha = params.power_gain
    sigma2 = params.sigma2
    n = params.n
    var = np.broadcast_to(sigma2 / (12.0 * params.P * h * h), h.shape).copy()
    beta = np.empty(h.shape + (n - 1,))
    err_var = np.empty(h.shape + (n,))
    err_var[..., 0] = var
    for i in range(n - 1):
        scale = h * alpha * params.feedback_gains[i]
        beta[..., i] = scale * var / (scale * scale * var + sigma2)
        var = var / (1.0 + scale * scale * var / sigma2)
        err_var[..., i + 1] = var
    if h.ndim == 0:
        return beta.reshape(n - 1), err_var.reshape(n)
    return beta, err_var


# ---------------------------------------------------------------------------
# classical perfect-CSI iteration
# ---------------------------------------------------------------------------

def classical_sk_error_var(h: float, snr: float, i: int) -> float:
    """Error variance after i iterations of the perfect-CSI scheme."""
    if i < 1:
        raise ValueError("iteration index starts at 1")
    h2snr = h * h * snr
    return 1.0 / (12.0 * h2snr * (1.0 + h2snr) ** (i - 1))


def classical_sk_gain(h: float, P: float, sigma2: float, err_var):
    """MMSE coefficient for estimating the previous error from Y/h."""
    return np.sqrt(P * np.asarray(err_var)) / (P + sigma2 / (h * h))


def classical_sk_update(theta_hat, y, h, beta):
    """One estimate refinement of the perfect-CSI scheme."""
    return theta_hat - beta * y / h


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
        eps[:, i - 1] = classical_sk_update(eps[:, i - 2], y, h, beta)
    return eps
