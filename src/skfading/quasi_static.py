"""Feedback iteration for the quasi-static fading channel.

The modulo-lattice estimate-and-forward scheme for imperfect transmitter
CSI with quantized feedback: message mapping, the feedback-link budget
that the two-path scheme shares, parameter derivation from a
simulation.QuasiStaticScenario (which has checked its numbers), the
transmitter/receiver steps, the perfect-CSI baseline rates and
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
    short_int,
)

__all__ = [
    "FeedbackLink",
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
    "mmse_steps1",
    "mmse_coefficients1",
]

@dataclass(frozen=True)
class FeedbackLink:
    """The modulo-lattice feedback link that schemes 1 and 2 share.

    For iteration j = 0, 1, ..., one modulo feedback (column j of a trial's
    alias and entry j of a report's aliasing_rate_per_iter),
    feedback_gains[j] scales the receiver's estimate and
    err_var_conservative[j] is its worst-case error variance; one last
    variance follows the final iteration. A subclass gives the variances'
    logarithm in _log_err_var. Both arrays are computed on first read, so a
    rate needs no n-long array.
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
    rate: float
    no_positive_rate: bool

    @cached_property
    def _trajectories(self):
        if self.no_positive_rate:
            return np.zeros(0), np.zeros(0)
        # log-domain evaluation; the trajectory spans hundreds of orders of
        # magnitude at large blocklengths
        log_var = self._log_err_var()
        # late-time gains can exceed the double range at blocklengths far past
        # anything simulatable; rate evaluation never touches them
        with np.errstate(over="ignore"):
            gains = np.exp(0.5 * (math.log(self.scaled_err_var) - log_var[:-1]))
        return gains, np.exp(log_var)

    feedback_gains = property(lambda self: self._trajectories[0])
    err_var_conservative = property(lambda self: self._trajectories[1])


@dataclass(frozen=True)
class QuasiStaticParams(FeedbackLink):
    """Scheme 1's derived constants; iteration j is the feedback at time j+1."""

    gain_snr: float              # conservative gain^2 * SNR (0: no positive rate)

    def _log_err_var(self):
        log_ratio = -math.log1p(self.gain_snr * self.scaled_err_var / self.arg_var_bound)
        return -math.log(12.0 * self.gain_snr) + log_ratio * np.arange(self.n)


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


MAX_ALPHABET_BITS = 50  # largest alphabet whose midpoints double precision tells apart


def message_size(n: int, rate: float) -> int:
    """Integer alphabet size floor(2^(n rate)), at least 2."""
    if rate <= 0:
        return 2
    bits = n * rate
    if bits > MAX_ALPHABET_BITS:
        raise InfeasibleError(
            f"message alphabet of 2^{bits:.1f} exceeds double-precision "
            "midpoint resolution; reduce n or the rate for simulation"
        )
    return max(int(math.floor(2.0 ** bits)), 2)


def feedback_budget(scenario, iterations: int) -> dict:
    """The FeedbackLink fields other than rate and no_positive_rate: the budget
    of a scheme-1 or scheme-2 scenario's modulo-lattice feedback link, used
    `iterations` times with aliasing probability eps / (4 iterations) each."""
    eps, P, P_tilde, sigma_z = scenario.eps, scenario.P, scenario.P_tilde, scenario.sigma_z
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
    target = eps / (4.0 * iterations)
    if target == 0.0:
        raise InfeasibleError(f"the per-iteration aliasing target eps / (4 * {iterations:.4g}) "
                              "underflows to 0")
    a = ((root3p - sigma_z) / q_tail_inv(target)) ** 2
    b = (math.sqrt(a) + sigma_z) ** 2 + 1.5 * P_tilde * eps
    return dict(n=scenario.n, eps=eps, sigma2=scenario.sigma2, P=P, P_tilde=P_tilde,
                sigma_z=sigma_z, scaled_err_var=a, arg_var_bound=b,
                power_gain=math.sqrt(P / b), lattice_spacing=math.sqrt(12.0 * P_tilde))


def derive_params1(scenario) -> QuasiStaticParams:
    """Derive scheme 1's constants from a QuasiStaticScenario. The transmitter
    designs for the worst gain in its CSI ball, max(|h_hat| - D, 0); the true
    h never enters. no_positive_rate marks a design gain^2 * SNR of 0."""
    n, eps = scenario.n, scenario.eps
    link = feedback_budget(scenario, n - 1)
    a, b = link["scaled_err_var"], link["arg_var_bound"]
    snr = scenario.P / scenario.sigma2

    gain = max(abs(scenario.h_hat) - scenario.distortion, 0.0)
    g2snr = gain * gain * snr
    if g2snr == 0.0:  # zero gain, or one whose squared SNR underflows
        return QuasiStaticParams(**link, gain_snr=0.0, rate=0.0, no_positive_rate=True)
    require_gain_snr(g2snr, "scheme 1")
    if not math.isfinite(g2snr * a):  # the rate's g2snr * a / b
        raise InfeasibleError(f"scheme 1: gain^2 * SNR * a overflows at a = {a:.3g} "
                              f"(P_tilde = {scenario.P_tilde:.3g})")

    l_factor = 4.0 * q_tail_inv(eps / 4.0) ** 2
    raw_rate = float(n - 1) / float(n) / 2.0 * math.log2(1.0 + g2snr * a / b) \
        - 0.5 / n * math.log2(l_factor / (12.0 * g2snr))
    return QuasiStaticParams(
        **link, gain_snr=g2snr, rate=max(raw_rate, 0.0), no_positive_rate=False,
    )


def rate_fd_baseline(h: float, snr: float, n: int, eps: float) -> float:
    """Finite-blocklength rate of the perfect-CSI noiseless-feedback scheme."""
    if h == 0:
        raise ValueError("baseline rate needs a nonzero fading coefficient")
    if n < 2:  # scheme 1's shortest blocklength
        raise ValueError(f"fd baseline needs n of at least 2, got {short_int(n)}")
    l_factor = 4.0 * q_tail_inv(eps / 2.0) ** 2
    h2snr = h * h * snr
    require_gain_snr(h2snr, "fd baseline", floor=1.0 / MAX_GAIN_SNR)
    return float(n - 1) / float(n) / 2.0 * math.log2(1.0 + h2snr) \
        - 0.5 / n * math.log2(l_factor / (12.0 * h2snr))


def capacity_fd(h: float, snr: float) -> float:
    """Asymptotic limit of the perfect-CSI feedback rate."""
    h2snr = h * h * snr
    require_gain_snr(h2snr, "capacity")
    return 0.5 * math.log2(1.0 + h2snr)


def quantize_feedback(x, sigma_z: float, out=None):
    """Receiver-side quantizer: snap to the nearest multiple of 2*sigma_z.

    Returns (quantized value, quantization noise) with noise in
    [-sigma_z, sigma_z); the noise is known causally to the receiver.
    sigma_z = 0 passes the signal through unchanged, as a copy. out, a pair
    of arrays of x's shape that shares no memory with x, receives both and
    is returned.
    """
    x = np.asarray(x, dtype=float)
    y, z = (np.empty_like(x), np.empty_like(x)) if out is None else out
    if sigma_z == 0.0:
        y[...] = x
        z[...] = 0.0
    else:
        step = 2.0 * sigma_z
        np.divide(x, step, out=y)
        y -= 0.5
        np.ceil(y, out=y)
        y *= step
        np.subtract(y, x, out=z)
    if out is None and x.ndim == 0:
        return float(y), float(z)
    return y, z


# The step functions below (and two_path's) form the textbook expression in
# its float operations and their order, so out= changes no bit. out, an array
# (a pair for rx_update1) that shares no memory with an input, receives the
# result and is returned; only rx_update1's out[0] may be theta_hat_prev,
# which it then updates in place. Without out, no input is written.

def tx_step1(feedback_prev, gain_prev, theta, dither_prev, params: QuasiStaticParams,
             out=None):
    """Transmitter iteration: scaled modulo residual of the fresh feedback."""
    arg = np.subtract(feedback_prev, np.multiply(gain_prev, theta, out=out), out=out)
    arg = modulo_reduce(np.subtract(arg, dither_prev, out=out), params.lattice_spacing, out=out)
    return params.power_gain * arg if out is None else np.multiply(arg, params.power_gain, out=out)


def rx_update1(theta_hat_prev, y, z_prev, h, beta_prev, params: QuasiStaticParams,
               out=None, scale=None):
    """Receiver iteration: cancel known quantization noise, then update.

    Returns (theta_hat, y_dot) where y_dot is the auxiliary signal with the
    quantization-noise image removed. scale, if given, is h * power_gain.
    """
    theta_hat, y_dot = (None, None) if out is None else out
    scale = h * params.power_gain if scale is None else scale
    y_dot = np.subtract(y, np.multiply(scale, z_prev, out=y_dot), out=y_dot)
    return np.subtract(theta_hat_prev, beta_prev * y_dot, out=theta_hat), y_dot


def rx_feedback1(theta_hat, gain_i, dither_i, params: QuasiStaticParams, out=None):
    """Receiver feedback symbol: dithered modulo of the scaled estimate."""
    arg = np.add(np.multiply(gain_i, theta_hat, out=out), dither_i, out=out)
    return modulo_reduce(arg, params.lattice_spacing, out=out)


def mmse_steps1(params: QuasiStaticParams, h):
    """The receiver's MMSE recursion, one step at a time, driven by the true
    h (the transmit-side gains in ``params`` stay conservative); broadcasts
    over an array of h. Yields the error variance at time 1, then per step
    i = 0..n-2 (beta, var): the gain applied at time i+2 and the variance at
    time i+2, fresh arrays that later steps leave alone. Each step forms
    scale * scale * var once, in the textbook recursion's float operations
    and order (same bits)."""
    if params.no_positive_rate:
        raise InfeasibleError("parameters flag no positive rate; nothing to iterate")
    h = np.asarray(h, dtype=float)
    sigma2 = params.sigma2
    var = sigma2 / (12.0 * params.P * h * h)
    yield var
    h_alpha = h * params.power_gain
    prod = np.empty(h.shape)
    for gain in params.feedback_gains:
        # beta's array holds scale, and the next variance's 1 + prod / sigma2
        b, nxt = np.multiply(h_alpha, gain, out=np.empty(h.shape)), np.empty(h.shape)
        np.multiply(b, b, out=prod)
        prod *= var  # scale * scale * var, shared by both updates
        b *= var
        np.divide(prod, sigma2, out=nxt)
        prod += sigma2
        b /= prod
        nxt += 1.0
        var = np.divide(var, nxt, out=nxt)
        yield b, var


def mmse_coefficients1(params: QuasiStaticParams, h):
    """The rows of mmse_steps1 stored as (beta, err_var), with beta[..., i]
    applied at time i+2 and err_var[..., j] the variance at time j+1, as
    views of time-major arrays: beta[..., i] is contiguous."""
    steps, shape = mmse_steps1(params, h), np.shape(h)
    beta, err_var = np.empty((params.n - 1,) + shape), np.empty((params.n,) + shape)
    err_var[0, ...] = next(steps)
    for i, (b, var) in enumerate(steps):
        beta[i, ...], err_var[i + 1, ...] = b, var
    return np.moveaxis(beta, 0, -1), np.moveaxis(err_var, 0, -1)
