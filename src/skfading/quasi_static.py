"""Feedback iteration for the quasi-static fading channel.

The modulo-lattice estimate-and-forward scheme for imperfect transmitter
CSI with quantized feedback: message mapping, the feedback-link budget
that the two-path scheme shares, parameter derivation,
transmitter/receiver step functions, the perfect-CSI baseline rates and
nearest-midpoint decoding. Step functions broadcast over numpy arrays so
many trials can run in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    "feedback_budget",
    "derive_params1",
    "rate_fd_baseline",
    "capacity_fd",
    "quantize_feedback",
    "tx_step1",
    "rx_update1",
    "rx_feedback1",
    "mmse_coefficients1",
]

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
    is the worst-case error variance at time j+1 (1-based 1..n). Both are
    computed on first read, so a rate needs no n-long array.
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
    gain_snr: float              # conservative gain^2 * SNR (0: no positive rate)
    rate: float
    no_positive_rate: bool

    @cached_property
    def _trajectories(self):
        if self.no_positive_rate:
            return np.zeros(0), np.zeros(0)
        # log-domain evaluation; the trajectory spans hundreds of orders of
        # magnitude at large blocklengths
        a = self.scaled_err_var
        log_ratio = -math.log1p(self.gain_snr * a / self.arg_var_bound)
        log_err_var = -math.log(12.0 * self.gain_snr) + log_ratio * np.arange(self.n)
        # late-time gains can exceed the double range at blocklengths far past
        # anything simulatable; rate evaluation never touches them
        with np.errstate(over="ignore"):
            gains = np.exp(0.5 * (math.log(a) - log_err_var[: self.n - 1]))
        return gains, np.exp(log_err_var)

    feedback_gains = property(lambda self: self._trajectories[0])
    err_var_conservative = property(lambda self: self._trajectories[1])


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


def decode_midpoint(theta_hat, m):
    """Nearest midpoint decision; inverse of map_message on clean input.
    A NaN or infinite estimate decodes to 0, which matches no message.
    m may be an array of alphabet sizes that broadcasts against theta_hat."""
    k = np.floor((np.asarray(theta_hat) + 0.5) * m)
    # clipped before the integer cast, which would be undefined off range
    w = np.where(np.isfinite(k), np.clip(k, 0, m - 1) + 1, 0).astype(np.int64)
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


def feedback_budget(sigma2: float, P: float, P_tilde: float, sigma_z: float,
                    iterations: int, eps: float):
    """Budget of the modulo-lattice feedback link of schemes 1 and 2, used
    `iterations` times with aliasing probability eps / (4 iterations) each.

    Returns (a, b, alpha, spacing), the QuasiStaticParams fields
    scaled_err_var, arg_var_bound, power_gain and lattice_spacing.
    """
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
    a = ((root3p - sigma_z) / q_tail_inv(eps / (4.0 * iterations))) ** 2
    b = (math.sqrt(a) + sigma_z) ** 2 + 1.5 * P_tilde * eps
    return a, b, math.sqrt(P / b), math.sqrt(12.0 * P_tilde)


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
    a, b, alpha, spacing = feedback_budget(sigma2, P, P_tilde, sigma_z, n - 1, eps)
    common = dict(n=n, eps=eps, sigma2=sigma2, P=P, P_tilde=P_tilde, sigma_z=sigma_z,
                  scaled_err_var=a, arg_var_bound=b, power_gain=alpha, lattice_spacing=spacing)
    snr = P / sigma2

    gain = csi.conservative_gain
    g2snr = gain * gain * snr
    if g2snr == 0.0:  # zero gain, or one whose squared SNR underflows
        return QuasiStaticParams(**common, gain_snr=0.0, rate=0.0, no_positive_rate=True)
    require_gain_snr(g2snr, "scheme 1")

    l_factor = 4.0 * q_tail_inv(eps / 4.0) ** 2
    raw_rate = (n - 1) / (2.0 * n) * math.log2(1.0 + g2snr * a / b) \
        - 1.0 / (2.0 * n) * math.log2(l_factor / (12.0 * g2snr))
    return QuasiStaticParams(
        **common, gain_snr=g2snr, rate=max(raw_rate, 0.0), no_positive_rate=False,
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
    time j+1, as views of time-major arrays: beta[..., i] is contiguous.
    One pass: each step writes into those rows and forms scale * scale * var
    once, in the textbook recursion's float operations and order (same bits).
    """
    if params.no_positive_rate:
        raise InfeasibleError("parameters flag no positive rate; nothing to iterate")
    h = np.asarray(h, dtype=float)
    n, sigma2 = params.n, params.sigma2
    beta, err_var = np.empty((n - 1,) + h.shape), np.empty((n,) + h.shape)
    err_var[0, ...] = sigma2 / (12.0 * params.P * h * h)
    h_alpha = h * params.power_gain
    prod = np.empty(h.shape)
    for i in range(n - 1):
        # [i, ...] keeps a 0-d row a view that out= can write through; beta's
        # row holds scale, and the next variance's row 1 + prod / sigma2
        var, b, nxt = err_var[i, ...], beta[i, ...], err_var[i + 1, ...]
        np.multiply(h_alpha, params.feedback_gains[i], out=b)
        np.multiply(b, b, out=prod)
        prod *= var  # scale * scale * var, shared by both updates
        b *= var
        np.divide(prod, sigma2, out=nxt)
        prod += sigma2
        b /= prod
        nxt += 1.0
        np.divide(var, nxt, out=nxt)
    return np.moveaxis(beta, 0, -1), np.moveaxis(err_var, 0, -1)
