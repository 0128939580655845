"""Feedback iteration for the two-path (single-ISI-tap) fading channel.

The second path is treated as an amplify-and-forward relay: a sign pilot
reveals sgn(h1*h2), a two-slot initialization combines both looks at the
first symbol, and the iteration alternates the phase so both paths add
constructively. A fixed-point variance ratio and a one-shot artificial
noise injection pin the variance trajectory to its steady state, giving a
closed-form rate.
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
# the feedback link is scheme 1's, and so is its receiver symbol
from .quasi_static import feedback_budget, quantize_feedback, rx_feedback1 as rx_feedback2

__all__ = [
    "TransmitterCsi2",
    "TwoPathParams",
    "sign_product",
    "pilot_sign",
    "combining_weight",
    "init_estimate",
    "solve_rho_star",
    "calibrate_artificial_noise",
    "derive_params2",
    "rate_tp_benchmark",
    "tx_step2",
    "rx_aux2",
    "rx_feedback2",
    "mmse_coefficients2",
    "phase_factor",
]


@dataclass(frozen=True)
class TransmitterCsi2:
    """Estimates of the two path gains under one distortion bound."""

    h1_hat: float
    h2_hat: float
    distortion: float

    def __post_init__(self) -> None:
        if self.distortion < 0:
            raise ValueError("distortion bound must be nonnegative")

    @property
    def conservative_gains(self):
        d = self.distortion
        return max(abs(self.h1_hat) - d, 0.0), max(abs(self.h2_hat) - d, 0.0)


@dataclass(frozen=True)
class TwoPathParams:
    """Derived constants of the two-path scheme.

    Arrays are indexed by time: feedback_gains[i] is the scaling used in
    the feedback at time i (valid for 2 <= i <= n-1) and
    err_var_conservative[i] is the worst-case error variance at time i
    (valid for 2 <= i <= n). Index positions below 2 are zero padding.
    Both are computed on first read, so a rate needs no n-long array.
    """

    n: int
    eps: float
    sigma2: float
    P: float
    P_tilde: float
    sigma_z: float
    scaled_err_var: float
    arg_var_bound: float
    power_gain: float
    lattice_spacing: float
    var_ratio_3: float
    var_ratio_4: float
    var_ratio_star: float
    art_noise_var: float
    gain_energy: float  # g1^2 + g2^2 of the conservative gains (0: no positive rate)
    rate: float
    no_positive_rate: bool

    @cached_property
    def _trajectories(self):
        if self.no_positive_rate:
            return np.zeros(0), np.zeros(0)
        n = self.n
        # worst-case variance trajectory, time-indexed, entries 2..n; evaluated
        # in the log domain because it spans many orders of magnitude at large n
        log_var = np.zeros(n + 1)
        log_var[2] = math.log(self.sigma2 / (12.0 * self.P * self.gain_energy))
        log_var[3] = log_var[2] + math.log(self.var_ratio_3)
        log_var[4:] = log_var[3] + math.log(self.var_ratio_star) * np.arange(1, n - 2)
        err_var = np.exp(log_var)
        err_var[:2] = 0.0
        gains = np.zeros(n)
        # late-time gains can exceed the double range at blocklengths far past
        # anything simulatable; rate evaluation never touches them
        with np.errstate(over="ignore"):
            gains[2: n] = np.exp(0.5 * (math.log(self.scaled_err_var) - log_var[2: n]))
        return gains, err_var

    feedback_gains = property(lambda self: self._trajectories[0])
    err_var_conservative = property(lambda self: self._trajectories[1])


def sign_product(h1, h2):
    """sgn(h1*h2) with the sign convention sgn(0) = +1."""
    prod = np.asarray(h1) * np.asarray(h2)
    out = np.where(prod >= 0, 1.0, -1.0)
    if out.ndim == 0:
        return float(out)
    return out


def pilot_sign(h1, h2, sigma_z: float):
    """Sign of the path product as recovered from the feedback pilot.

    The receiver sends +-2*sigma_z; that amplitude is a quantizer lattice
    point, so it passes with zero quantization noise and the transmitter
    reads the sign exactly. With sigma_z = 0 the pilot amplitude
    degenerates and the sign is conveyed as side information. Broadcasts
    over arrays of path gains.
    """
    s = sign_product(h1, h2)
    if sigma_z == 0.0:
        return s
    received, _ = quantize_feedback(s * 2.0 * sigma_z, sigma_z)
    return np.where(received >= 0, 1.0, -1.0)


def combining_weight(h1, h2):
    """Weight on the first-path look that minimizes the combined error."""
    return h1 * h1 / (h1 * h1 + h2 * h2)


def init_estimate(y1, y2, h1, h2, P):
    """Two-slot initial estimate from both looks at the first symbol; a look of
    weight exactly 0 (a zero path gain) is divided by 1, so it adds 0, not NaN."""
    kappa = combining_weight(h1, h2)
    root = math.sqrt(12.0 * P)
    return (kappa * y1 / (np.where(kappa == 0, 1.0, h1) * root)
            + (1.0 - kappa) * y2 / (np.where(kappa == 1, 1.0, h2) * root))


def solve_rho_star(H1: float, H2: float, snr: float, a_over_b: float = 1.0) -> float:
    """Steady-state ratio of consecutive error variances.

    Solves rho = 1/(1 + (H1 + H2 sqrt(rho))^2 * snr * a_over_b) on
    [rho_4, 1) by bisection; the bracket is guaranteed because the map is
    below the identity at 1 and above it at rho_4.

    It keeps lo < f(lo) and f(hi) <= hi and stops once the midpoint rounds
    onto lo or hi, where every further step would be a no-op; the 1100-step
    cap reaches down to the smallest subnormal, so rho_star ~ 1/(gain^2 snr)
    is resolved at any admissible gain^2 snr.
    """
    if H1 < 0 or H2 < 0:
        raise ValueError("conservative gains are nonnegative by construction")
    if H1 == 0 and H2 == 0:
        raise InfeasibleError("no positive rate: both conservative gains vanish")
    c = snr * a_over_b
    if H2 == 0.0:
        return 1.0 / (1.0 + H1 * H1 * c)
    rho3 = 1.0 / (1.0 + H1 * H1 * c)
    lo = 1.0 / (1.0 + (H1 + H2 * math.sqrt(rho3)) ** 2 * c)  # rho_4
    hi = 1.0
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid < 1.0 / (1.0 + (H1 + H2 * math.sqrt(mid)) ** 2 * c):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate_artificial_noise(
    H1: float,
    H2: float,
    rho3: float,
    rho_star: float,
    P: float,
    a_over_b: float,
    sigma2: float,
) -> float:
    """Variance of the one-shot noise that starts the ratio at rho_star.

    Solving rho_4^u = rho_star for the time-4 effective noise variance and
    subtracting sigma2; zero when the trajectory already starts at or past
    the steady point (a roundoff-only case, which includes gains so small
    that rho_star rounds to 1).
    """
    if rho_star >= 1.0:
        return 0.0
    gain = (H1 + H2 * math.sqrt(rho3)) ** 2
    var = gain * P * a_over_b * rho_star / (1.0 - rho_star) - sigma2
    return max(var, 0.0)


def derive_params2(
    sigma2: float,
    P: float,
    P_tilde: float,
    sigma_z: float,
    csi: TransmitterCsi2,
    n: int,
    eps: float,
) -> TwoPathParams:
    """Derive the two-path scheme constants from public quantities."""
    if n < 4:
        raise ValueError("the two-path scheme needs blocklength at least 4")
    a, b, alpha, spacing = feedback_budget(sigma2, P, P_tilde, sigma_z, n - 2, eps)
    common = dict(n=n, eps=eps, sigma2=sigma2, P=P, P_tilde=P_tilde, sigma_z=sigma_z,
                  scaled_err_var=a, arg_var_bound=b, power_gain=alpha, lattice_spacing=spacing)
    snr = P / sigma2

    g1, g2 = csi.conservative_gains
    energy = g1 * g1 + g2 * g2
    if energy == 0.0:  # zero gains, or squares that underflow
        return TwoPathParams(
            **common, var_ratio_3=1.0, var_ratio_4=1.0, var_ratio_star=1.0,
            art_noise_var=0.0, gain_energy=0.0, rate=0.0, no_positive_rate=True,
        )
    # the steady-state gain (g1 + g2 sqrt(rho_star))^2 is at most (g1 + g2)^2
    require_gain_snr((g1 + g2) * (g1 + g2) * snr, "scheme 2")

    c = snr * a / b
    rho3 = 1.0 / (1.0 + g1 * g1 * c)
    rho4 = 1.0 / (1.0 + (g1 + g2 * math.sqrt(rho3)) ** 2 * c)
    rho_star = solve_rho_star(g1, g2, snr, a / b)
    art_var = calibrate_artificial_noise(g1, g2, rho3, rho_star, P, a / b, sigma2)

    l_factor = 4.0 * q_tail_inv(eps / 4.0) ** 2
    steady = (g1 + g2 * math.sqrt(rho_star)) ** 2 * c
    raw_rate = (n - 3) / (2.0 * n) * math.log2(1.0 + steady) \
        - 1.0 / (2.0 * n) * math.log2(l_factor * rho3 / (12.0 * energy * snr))
    return TwoPathParams(
        **common, var_ratio_3=rho3, var_ratio_4=rho4, var_ratio_star=rho_star,
        art_noise_var=art_var, gain_energy=energy, rate=max(raw_rate, 0.0),
        no_positive_rate=False,
    )


def rate_tp_benchmark(h1: float, h2: float, snr: float, n: int, eps: float) -> float:
    """Closed-form rate with perfect CSI and noiseless feedback.

    Same structure with the fixed point driven by the true gains and the
    decode margin relaxed to Q^{-1}(eps/2).
    """
    if h1 == 0 or h2 == 0:
        raise ValueError("benchmark rate needs two nonzero paths")
    if n < 4:
        raise ValueError("blocklength must be at least 4")
    require_gain_snr((abs(h1) + abs(h2)) * (abs(h1) + abs(h2)) * snr, "tp benchmark",
                     floor=1.0 / MAX_GAIN_SNR)
    rho3 = 1.0 / (1.0 + h1 * h1 * snr)
    rho_star = solve_rho_star(abs(h1), abs(h2), snr, 1.0)
    l_factor = 4.0 * q_tail_inv(eps / 2.0) ** 2
    steady = (abs(h1) + abs(h2) * math.sqrt(rho_star)) ** 2 * snr
    return (n - 3) / (2.0 * n) * math.log2(1.0 + steady) \
        - 1.0 / (2.0 * n) * math.log2(
            l_factor * rho3 / (12.0 * (h1 * h1 + h2 * h2) * snr)
        )


# ---------------------------------------------------------------------------
# transmitter / receiver steps
# ---------------------------------------------------------------------------

def phase_factor(sign, power: int):
    """sign**power for +-1 signs, vectorized without pow calls: 1.0 for an
    even power, which leaves any product it scales unchanged."""
    if power % 2 == 0:
        return 1.0
    return np.asarray(sign, dtype=float)


def tx_step2(
    feedback_prev,
    gain_prev,
    theta,
    dither_prev,
    sign,
    k: int,
    params: TwoPathParams,
    art_noise=0.0,
):
    """Transmitter iteration at time k >= 3.

    The artificial noise enters the modulo argument once, at k = 4; the
    receiver mirrors it in the auxiliary signal.
    """
    arg = feedback_prev - gain_prev * theta - dither_prev + art_noise
    return phase_factor(sign, k - 2) * params.power_gain * modulo_reduce(arg, params.lattice_spacing)


def rx_aux2(
    y,
    z_prev,
    z_prev2,
    ydot_prev,
    gain_prev2,
    beta_prev2,
    h1,
    h2,
    sign,
    k: int,
    params: TwoPathParams,
    art_noise=0.0,
    art_noise_prev=0.0,
):
    """Auxiliary signal at time k >= 3: strip everything the receiver knows.

    Removes the quantization-noise images on both paths and the relay echo
    of the previous update; what is left is the scaled previous error plus
    fresh channel noise. The injected artificial noise is subtracted from
    the first-path image and re-added cleanly, so at k = 4 the effective
    noise variance is sigma2 + art_noise_var exactly; at k = 5 its echo on
    the delayed path is removed.
    """
    alpha = params.power_gain
    direct = phase_factor(sign, k - 2) * h1 * alpha * (z_prev + art_noise)
    if k == 3:
        return y - direct
    relay_echo = z_prev2 + gain_prev2 * beta_prev2 * ydot_prev + art_noise_prev
    return y - direct - phase_factor(sign, k - 3) * h2 * alpha * relay_echo + art_noise


def mmse_coefficients2(params: TwoPathParams, h1, h2, sign):
    """Receiver MMSE gains driven by the true path gains.

    Broadcasts over arrays of (h1, h2, sign). Returns (beta, err_var,
    combined_gain), time-indexed on the last axis (length n+1) as views of
    time-major arrays: beta[..., i] (contiguous) applies at time i+1 (valid
    2..n-1), err_var[..., i] is the true coupled error variance at time i
    (2..n), combined_gain[..., i] the two-path gain on the error at time i+1.
    One pass: each step writes into those rows and forms alpha**2 * xi * xi *
    var once, in the textbook recursion's float operations and order (same bits).
    """
    if params.no_positive_rate:
        raise InfeasibleError("parameters flag no positive rate; nothing to iterate")
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    sign = np.asarray(sign, dtype=float)
    shape = np.broadcast_shapes(h1.shape, h2.shape, sign.shape)
    n = params.n
    alpha = params.power_gain
    sigma2 = params.sigma2
    beta, err_var, combined = (np.zeros((n + 1,) + shape) for _ in range(3))
    err_var[2, ...] = sigma2 / (12.0 * params.P * (h1 * h1 + h2 * h2))
    # phase_factor(sign, k) * h is sign * h for odd k and h itself for even k
    signed_h1, signed_h2 = sign * h1, sign * h2
    prod = np.empty(shape)
    for i in range(2, n):
        # [i, ...] keeps a 0-d row a view that out= can write through; the
        # next variance's row holds the terms that form it until it is written
        xi, b = combined[i, ...], beta[i, ...]
        var, nxt = err_var[i, ...], err_var[i + 1, ...]
        np.multiply(signed_h1 if i % 2 == 0 else h1, params.feedback_gains[i], out=xi)
        if i > 2:
            np.multiply(signed_h2 if i % 2 else h2, params.feedback_gains[i - 1], out=nxt)
            xi += nxt
        noise = sigma2 + (params.art_noise_var if i == 3 else 0.0)
        np.multiply(xi, alpha * alpha, out=prod)
        prod *= xi
        prod *= var  # alpha * alpha * xi * xi * var, shared by both updates
        np.multiply(xi, alpha, out=b)
        b *= var
        np.divide(prod, noise, out=nxt)
        prod += noise
        b /= prod
        nxt += 1.0
        np.divide(var, nxt, out=nxt)
    return tuple(np.moveaxis(a, 0, -1) for a in (beta, err_var, combined))
