"""Block feedback scheme for the L-path channel with noiseless feedback.

The channel is diagonalized by transmitting IDFT blocks with a cyclic
prefix: linear convolution restricted to the retained window acts as a
circulant product, so the DFT turns the ISI channel into K independent
complex subchannels. Each subchannel runs an estimate-and-forward
iteration at a water-filled power, the message being split into per
subchannel real/imaginary components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    InfeasibleError,
    channel_spectrum,
    q_tail_inv,
    require_gain_snr,
    water_fill,
)
from .quasi_static import decode_midpoint, map_message

__all__ = [
    "MultiPathChannel",
    "BlockPlan",
    "plan_block",
    "optimize_subchannel_count",
    "sub_message_sizes",
    "map_complex",
    "decode_complex",
    "add_cyclic_prefix",
    "extract_payload",
    "variance_lemma3",
    "mmse_gain_mp",
]


@dataclass(frozen=True)
class MultiPathChannel:
    """Complex L-tap channel (L >= 2) with circularly symmetric noise."""

    h: tuple
    sigma2: float
    P: float

    def __post_init__(self) -> None:
        taps = np.asarray(self.h, dtype=complex)
        if taps.size < 2:
            raise ValueError("the multi-path model needs at least two taps")
        if not np.any(taps != 0):
            raise ValueError("at least one tap must be nonzero")
        if self.sigma2 <= 0 or self.P <= 0:
            raise ValueError("sigma2 and P must be positive")
        object.__setattr__(self, "h", tuple(complex(t) for t in taps))

    @property
    def taps(self) -> np.ndarray:
        return np.asarray(self.h, dtype=complex)

    @property
    def num_paths(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class BlockPlan:
    """Subchannel layout for one choice of K.

    sub_rate_half[k] is the per-component rate (real or imaginary part) of
    subchannel k, clamped at zero; the total rate counts both components.
    """

    n: int
    eps: float
    num_paths: int
    subchannels: int
    block_len: int
    blocks: int
    gains: np.ndarray            # complex subchannel gains H_k
    powers: np.ndarray           # water-filled P_k, sum = K * P
    water_level: float
    union_margin: float          # 4 [Q^{-1}(eps/4K)]^2
    sub_rate_half: np.ndarray
    rate: float
    sigma2: float
    P: float

    @property
    def rate_per_real_dim(self) -> float:
        """Rate per real signal dimension (a complex use carries two)."""
        return 0.5 * self.rate


def plan_block(channel: MultiPathChannel, n: int, eps: float, subchannels: int) -> BlockPlan:
    """Lay out one block configuration with water-filled powers and rates."""
    num_paths = channel.num_paths
    if not (num_paths <= subchannels <= n - num_paths + 1):
        raise ValueError(
            f"subchannel count {subchannels} outside {{{num_paths}, ..., {n - num_paths + 1}}}"
        )
    if not (0.0 < eps < 1.0):
        raise ValueError("target error probability must lie in (0, 1)")
    k = subchannels
    gains = channel_spectrum(channel.taps, k)
    magnitudes = np.abs(gains)
    # no subchannel gets more than the whole block's power k * P; Python
    # floats overflow to inf without a warning
    peak = float(magnitudes.max())
    require_gain_snr(peak * peak * (k * channel.P / channel.sigma2), "scheme 3")
    power_gains = np.square(magnitudes, out=magnitudes)
    powers, level = water_fill(power_gains, channel.sigma2, k * channel.P)
    block_len = num_paths + k - 1
    blocks = n // block_len
    margin = 4.0 * q_tail_inv(eps / (4.0 * k)) ** 2
    half = np.zeros(k)
    active = powers > 0
    snrs = np.zeros(k)
    snrs[active] = power_gains[active] * powers[active] / channel.sigma2
    raw = (blocks - 1) / (2.0 * n) * np.log2(1.0 + snrs[active]) \
        - 1.0 / (2.0 * n) * np.log2(margin / (12.0 * snrs[active]))
    half[active] = np.maximum(raw, 0.0)
    return BlockPlan(
        n=n, eps=eps, num_paths=num_paths, subchannels=k, block_len=block_len,
        blocks=blocks, gains=gains, powers=powers, water_level=level,
        union_margin=margin, sub_rate_half=half, rate=float(2.0 * half.sum()),
        sigma2=channel.sigma2, P=channel.P,
    )


def optimize_subchannel_count(channel: MultiPathChannel, n: int, eps: float) -> BlockPlan:
    """Scan every admissible K and keep the best rate, ties to smaller K."""
    num_paths = channel.num_paths
    if n < 2 * num_paths:
        raise ValueError("blocklength too short for any admissible subchannel count")
    best = None
    for k in range(num_paths, n - num_paths + 2):
        plan = plan_block(channel, n, eps, k)
        if best is None or plan.rate > best.rate:
            best = plan
    return best


# ---------------------------------------------------------------------------
# per-component messages and complex mapping
# ---------------------------------------------------------------------------

def sub_message_sizes(plan: BlockPlan):
    """Integer alphabet sizes floor(2^(n * rate)) per component.

    Simulation needs integer alphabets, so the analytical per-component
    rates are floored; the achieved rate reported alongside is what the
    integer alphabets actually carry.
    """
    bits = plan.n * plan.sub_rate_half
    sizes = np.maximum(np.floor(np.power(2.0, bits)), 1.0)
    if np.any(bits > 50):
        raise InfeasibleError(
            "sub-message alphabet exceeds double-precision midpoint resolution; "
            "reduce n or the rate for simulation"
        )
    m_re = sizes.astype(np.int64)
    m_im = sizes.astype(np.int64)
    achieved = float(np.sum(np.log2(m_re) + np.log2(m_im)) / plan.n)
    return m_re, m_im, achieved


def map_complex(w_re, w_im, m_re, m_im):
    """Map component indices to complex midpoints on the unit square grid.

    Broadcasts over arrays of indices and alphabet sizes (one column per
    subchannel); scalar input gives a complex number.
    """
    theta = map_message(w_re, m_re) + 1j * map_message(w_im, m_im)
    return complex(theta) if np.ndim(theta) == 0 else theta


def decode_complex(theta_hat, m_re, m_im):
    """Nearest-midpoint decision per component of a complex estimate; the
    alphabet sizes may be arrays that broadcast against theta_hat."""
    theta_hat = np.asarray(theta_hat)
    return (
        decode_midpoint(theta_hat.real, m_re),
        decode_midpoint(theta_hat.imag, m_im),
    )


# ---------------------------------------------------------------------------
# block transmission
# ---------------------------------------------------------------------------

def add_cyclic_prefix(time_block, num_paths: int):
    """Prepend the last L-1 samples so convolution acts circularly."""
    time_block = np.asarray(time_block)
    if num_paths < 2:
        raise ValueError("cyclic prefix needs at least two paths")
    prefix = time_block[..., -(num_paths - 1):]
    return np.concatenate([prefix, time_block], axis=-1)


def extract_payload(received_block, num_paths: int):
    """Drop the first L-1 received samples (prefix soaked the ISI)."""
    received_block = np.asarray(received_block)
    return received_block[..., num_paths - 1:]


def variance_lemma3(plan: BlockPlan, subchannel: int, iteration: int):
    """Closed-form error variance of one subchannel after n iterations.

    Returns (total variance of the complex error, per-component variance);
    the two components carry half the mass each by circular symmetry.
    Subchannel index is 0-based, iteration is 1-based.
    """
    if iteration < 1:
        raise ValueError("iteration index starts at 1")
    pk = plan.powers[subchannel]
    if pk <= 0:
        raise ValueError(f"subchannel {subchannel} carries no power")
    g2 = abs(plan.gains[subchannel]) ** 2
    s = g2 * pk / plan.sigma2
    total = plan.sigma2 / (6.0 * pk * g2) / (1.0 + s) ** (iteration - 1)
    return total, 0.5 * total


def mmse_gain_mp(plan: BlockPlan, subchannel: int, err_var):
    """Complex-field MMSE coefficient for the subchannel update."""
    pk = plan.powers[subchannel]
    g2 = abs(plan.gains[subchannel]) ** 2
    return np.sqrt(pk * np.asarray(err_var)) / (pk + plan.sigma2 / g2)
