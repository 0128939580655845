"""Block feedback scheme for the L-path channel with noiseless feedback.

The channel is diagonalized by transmitting IDFT blocks with a cyclic
prefix: linear convolution restricted to the retained window acts as a
circulant product, so the DFT turns the ISI channel into K independent
complex subchannels. Each subchannel runs an estimate-and-forward
iteration at a water-filled power, the message being split into per
subchannel real/imaginary components.
"""

from __future__ import annotations

import math
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
    "optimize_subchannel_counts",
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


# The subchannel-count scan water-fills consecutive K together, one row of
# power gains per K zero-padded to the largest; a batch holds at most this
# many elements per array. Measured on the rate_sweep operation (n up to
# 1000, 3 taps; medians of 8 runs, interleaved with the per-K loop): 1k
# elements took 0.77 of the per-K loop's time, 4k 0.62, 8k 0.57 and 32k
# 0.56, while the tracemalloc peak of a scan at n = 1000 grows from 0.13 MB
# (per K) to 0.74 MB at 8k and 2.9 MB at 32k.
_BATCH = 8192


class _Batch:
    """Consecutive subchannel counts laid out together, one row per K.

    A K's spectrum, union margin and water fill do not depend on the
    blocklength, so one batch serves every n whose scan reaches it (see
    _Layouts). A K that fails the gain checks ends the batch before it:
    error holds what it raised, and the rows below it still serve the
    blocklengths whose scans stop short of that K.
    """

    def __init__(self, channel: MultiPathChannel, eps: float, ks: range):
        if not (0.0 < eps < 1.0):
            raise ValueError("target error probability must lie in (0, 1)")
        self.channel, self.eps, self.error = channel, eps, None
        self.spectra = []
        power_gains = np.zeros((len(ks), ks[-1]))
        margins = np.empty(len(ks))
        taps = channel.taps
        for row, k in enumerate(ks):
            gains = channel_spectrum(taps, k)
            magnitudes = np.abs(gains)
            # no subchannel gets more than the whole block's power k * P;
            # Python floats overflow to inf without a warning
            peak = float(magnitudes.max())
            try:
                require_gain_snr(peak * peak * (k * channel.P / channel.sigma2), "scheme 3")
                # every power gain underflows, or leaves sigma2 / gain infinite:
                # raised here, as the water fill would, before a later K fails
                if peak * peak == 0.0:
                    raise InfeasibleError("water_fill: all channel gains are zero")
                if channel.sigma2 / (peak * peak) == math.inf:
                    raise InfeasibleError("water_fill: noise_var / gain overflows for every gain")
            except InfeasibleError as exc:
                self.error, ks = exc, ks[:row]
                power_gains, margins = power_gains[:row], margins[:row]
                break
            np.square(magnitudes, out=power_gains[row, :k])
            margins[row] = 4.0 * q_tail_inv(eps / (4.0 * k)) ** 2
            self.spectra.append(gains)
        self.ks, self.margins = ks, margins
        self.powers, self.levels = water_fill(
            power_gains, channel.sigma2, [k * channel.P for k in ks]
        )
        # the rate formula's blocklength-free terms, on the active entries
        # in row-major order
        self.active = self.powers > 0
        snrs = power_gains[self.active] * self.powers[self.active] / channel.sigma2
        self.row_of = np.nonzero(self.active)[0]
        self.gain_terms = np.log2(1.0 + snrs)
        self.margin_terms = np.log2(margins[self.row_of] / (12.0 * snrs))


class _Layouts:
    """Block layouts of a batch's first rows at one blocklength n.

    Each row's arrays are zero-padded past its own K; the rate formula runs
    on the active entries of those rows, and each rate is summed over its
    row's own K entries, so every field is bit-equal to laying K out alone.
    """

    def __init__(self, batch: _Batch, n: int, rows: int):
        self.batch, self.n = batch, n
        ks = batch.ks[:rows]
        # Python integers: n may exceed what int64 holds
        self.blocks = [n // (batch.channel.num_paths + k - 1) for k in ks]
        growth = np.array([(blocks - 1) / (2.0 * n) for blocks in self.blocks])
        count = int(np.count_nonzero(batch.active[:rows]))
        raw = growth[batch.row_of[:count]] * batch.gain_terms[:count] \
            - 1.0 / (2.0 * n) * batch.margin_terms[:count]
        self.half = np.zeros((rows, batch.active.shape[1]))
        self.half[batch.active[:rows]] = np.maximum(raw, 0.0)
        self.rates = [float(2.0 * self.half[row, :k].sum()) for row, k in enumerate(ks)]

    def best(self, incumbent):
        """The plan of the best rate here if it beats the incumbent plan (or
        there is none), else the incumbent; ties go to the smaller K."""
        rate = max(self.rates)
        if incumbent is None or rate > incumbent.rate:
            return self.plan(self.rates.index(rate))
        return incumbent

    def plan(self, row: int) -> BlockPlan:
        batch = self.batch
        channel, k = batch.channel, batch.ks[row]
        return BlockPlan(
            n=self.n, eps=batch.eps, num_paths=channel.num_paths, subchannels=k,
            block_len=channel.num_paths + k - 1, blocks=self.blocks[row],
            gains=batch.spectra[row], powers=batch.powers[row, :k].copy(),
            water_level=float(batch.levels[row]), union_margin=float(batch.margins[row]),
            sub_rate_half=self.half[row, :k].copy(), rate=self.rates[row],
            sigma2=channel.sigma2, P=channel.P,
        )


def plan_block(channel: MultiPathChannel, n: int, eps: float, subchannels: int) -> BlockPlan:
    """Lay out one block configuration with water-filled powers and rates."""
    num_paths = channel.num_paths
    if not (num_paths <= subchannels <= n - num_paths + 1):
        raise ValueError(
            f"subchannel count {subchannels} outside {{{num_paths}, ..., {n - num_paths + 1}}}"
        )
    batch = _Batch(channel, eps, range(subchannels, subchannels + 1))
    if batch.error is not None:
        raise batch.error
    return _Layouts(batch, n, 1).plan(0)


def _scan(channel: MultiPathChannel, eps: float, last: int):
    """Batches of K = L, ..., last in ascending order, each of at most _BATCH
    elements: c rows from K = k are c * (k + c - 1) elements wide."""
    k = channel.num_paths
    while k <= last:
        rows = max((math.isqrt((k - 1) ** 2 + 4 * _BATCH) - (k - 1)) // 2, 1)
        stop = min(k + rows, last + 1)
        yield _Batch(channel, eps, range(k, stop))
        k = stop


def optimize_subchannel_counts(channel: MultiPathChannel, ns, eps: float) -> list:
    """The best plan of each blocklength in ns, from one scan of K.

    The batches of the longest blocklength's scan are built once and rated
    at every n that they reach. Each entry is the BlockPlan that scanning
    its n alone returns (best rate, ties to smaller K), or the exception
    that scan raises, so one infeasible n leaves the others planned. An eps
    outside (0, 1) raises ValueError for the whole call.
    """
    num_paths = channel.num_paths
    results = {
        n: ValueError("blocklength too short for any admissible subchannel count")
        for n in ns if n < 2 * num_paths
    }
    best = {n: None for n in ns if n not in results}
    for batch in _scan(channel, eps, max(best, default=0) - num_paths + 1):
        for n, plan in best.items():
            rows = min(len(batch.ks), n - num_paths + 2 - batch.ks.start)
            if rows > 0:
                best[n] = _Layouts(batch, n, rows).best(plan)
        if batch.error is not None:
            failed = batch.ks.start + len(batch.ks)
            results.update((n, batch.error) for n in best if n - num_paths + 1 >= failed)
            break
        del batch  # freed before the next batch is built
    return [results[n] if n in results else best[n] for n in ns]


def optimize_subchannel_count(channel: MultiPathChannel, n: int, eps: float) -> BlockPlan:
    """Scan every admissible K and keep the best rate, ties to smaller K."""
    (plan,) = optimize_subchannel_counts(channel, [n], eps)
    if isinstance(plan, Exception):
        raise plan
    return plan


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
