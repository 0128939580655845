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
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (
    MAX_GAIN_SNR,
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
    best). A K that fails the gain checks ends the batch before it: error
    holds what it raised, and the rows below it still serve the
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
        self.block_lens = np.arange(len(ks)) + (channel.num_paths + ks.start - 1)
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

    def half_rates(self, ns) -> np.ndarray:
        """The per-component rates of every row at each n of ns, zero past
        the row's K and at its dark entries, with the float operations of
        laying K out alone (Python integers past int64, as n // block_len)."""
        try:
            column = np.array(ns, dtype=np.int64)[:, None]
        except OverflowError:  # n beyond int64, which only plan_block takes
            column = np.array(ns, dtype=object)[:, None]
        twice = 2.0 * column.astype(float)
        growth = (column // self.block_lens - 1).astype(float) / twice
        raw = growth[:, self.row_of]
        raw *= self.gain_terms
        raw -= 1.0 / twice * self.margin_terms
        half = np.zeros((len(ns),) + self.active.shape)
        half[:, self.active] = np.maximum(raw, 0.0, out=raw)
        return half

    def best(self, ns, incumbents) -> list:
        """The best plan of each blocklength in ns over its incumbent and the
        rows it admits (at least one), ties to the smaller K."""
        channel, ks, half = self.channel, self.ks, self.half_rates(ns)
        admitted = [n - channel.num_paths + 2 - ks.start for n in ns]
        plans = list(incumbents)
        for i, (row, rate) in enumerate(_best_rows(half, ks, admitted)):
            if plans[i] is None or rate > plans[i].rate:
                k, n = ks[row], ns[i]
                plans[i] = BlockPlan(
                    n=n, eps=self.eps, num_paths=channel.num_paths, subchannels=k,
                    block_len=channel.num_paths + k - 1, blocks=n // (channel.num_paths + k - 1),
                    gains=self.spectra[row], powers=self.powers[row, :k].copy(),
                    water_level=float(self.levels[row]), union_margin=float(self.margins[row]),
                    sub_rate_half=half[i, row, :k].copy(), rate=rate,
                    sigma2=channel.sigma2, P=channel.P,
                )
        return plans


def _best_rows(half, ks, admitted) -> list:
    """(row, rate) of the best of each blocklength's first admitted rows of
    half, one per K of ks, ties to the smaller K. The rate is float(2.0 *
    half[i, row, :K].sum()), as laying K out alone sums it; a sum over the
    padded row is within about 1e-12 relative of it for at most _BATCH
    non-negative terms (Higham 2002, sec. 4.2), so only the rows within
    _SLACK of the best such sum are summed over their K.
    """
    if len(ks) < 2:  # nothing to choose between
        pairs = [(i, 0) for i in range(len(half))]
    else:
        sums = half.sum(axis=2)
        sums[np.arange(len(ks)) >= np.array(admitted)[:, None]] = -math.inf
        near = sums >= sums.max(axis=1, keepdims=True) * (1.0 - _SLACK)
        pairs = zip(*(index.tolist() for index in np.nonzero(near)))
    best = [None] * len(half)
    for i, row in pairs:
        rate = float(2.0 * half[i, row, :ks[row]].sum())
        if best[i] is None or rate > best[i][1]:
            best[i] = row, rate
    return best


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
    (plan,) = batch.best([n], [None])
    return plan


# The rate bound's relative slack, far above the rounding of the rates; the
# capacity bound also takes it as an absolute slack in nats per subchannel
_SLACK = 1e-9

# The capacity bound samples the channel's power gain at this many
# frequencies (see _RateBound.capacity). Taps 1, 0.5, 0.3, P = 10: the walk
# to n = 100 004 lays out 1430, 1255, 1174 and 1128 counts at 1024, 2048,
# 4096 and 8192 (about 120 at n = 1000 from 1024 up); the grid costs 0.2 ms.
_GRID = 4096

# A longer walk is refused (taps 1, 0.5, 0.3, P = 10, one Xeon core: 0.018 s
# at n = 3000, 0.054 s at 3e4, 0.15 s at 100 004, the longest accepted).
_MAX_WALK = 100_000


class _RateBound:
    """Which K an upper bound on the rate rules out of the walk over K.

    With g = (blocks - 1) / (2n), a subchannel of SNR s rates at most
    2 max(g log2(1 + s) + log2(12 s / margin) / (2n), 0), concave and
    increasing in s. The SNRs sum to at most c = G K P / sigma2, with
    G = (sum |h_l|)^2 above every power gain, so Jensen's inequality over
    all K and over the m of positive rate gives, with a = 12 c / margin,
        rate <= 2 [g S + max_{0 < m <= K} (m / 2n) log2(a / m)],
    the max at m = min(K, a / e), where S = sum_k log2(1 + s_k) is at most
    K log2(1 + c / K), and at most K per_k + spread by the dual of
    water-filling: for rho = P / sigma2, any nu > 0 and any powers summing
    to K P, sum_k ln(1 + s_k) <= nu K rho + sum_k psi(g_k), psi(g) =
    ln t - 1 + 1 / t at t = max(g / nu, 1). The power gains g_k sample
    F = |H(e^jw)|^2 at w = 2 pi k / K, a trigonometric polynomial of degree
    L - 1, so psi(F), monotone in F, has at most 2 (L - 1) monotone arcs and
    a total variation V <= 2 (L - 1) psi(G); sampled at K or at M points, its
    mean is within V / K or V / M of the integral mean. The walk keeps best,
    each blocklength's incumbent plan, and margin, the union margin of the
    last K built.
    """

    def __init__(self, channel: MultiPathChannel, eps: float, best=None):
        # Python floats overflow and underflow without a warning
        magnitudes = [abs(t) for t in channel.h]
        total, energy = sum(magnitudes), sum(m * m for m in magnitudes)
        self.channel, self.eps, self.best, self.margin = channel, eps, best, None
        self.open, self.first = np.zeros((len(best or ()), 0), dtype=bool), 0
        self.peak = total * total * (1.0 + _SLACK)
        # Parseval puts every K's peak power gain in [energy, peak]
        self.certain = energy >= sys.float_info.min \
            and channel.sigma2 / energy * (1.0 + _SLACK) < math.inf

    @cached_property
    def capacity(self):
        """(per_k, spread) with S <= K per_k + spread at every K, or
        (inf, inf) where they are not finite. nu is one over the water level
        of an M-point grid of F. psi is 1 / (4 nu)-Lipschitz, so an FFT's
        rounding, about eps_machine G log2 K in a power gain, moves a psi by
        well under the 256 eps_machine G / nu that per_k adds.
        """
        channel = self.channel
        rho = channel.P / channel.sigma2
        with np.errstate(all="ignore"):
            grid = np.square(np.abs(np.fft.fft(channel.taps, n=_GRID)))
            try:
                nu = 1.0 / water_fill(grid, 1.0, _GRID * rho)[1]
            except ValueError:  # InfeasibleError among them
                return math.inf, math.inf
            t = np.maximum(np.append(grid, self.peak) / nu, 1.0)
            psi = np.log(t) - 1.0 + 1.0 / t
            spread = 2 * (channel.num_paths - 1) * psi[-1]
            per_k = nu * rho + psi[:-1].mean() + spread / _GRID \
                + 256 * sys.float_info.epsilon * self.peak / nu
            per_k, spread = ((float(x) * (1.0 + _SLACK) + _SLACK) / math.log(2)
                             for x in (per_k, spread))
        # inf or nan where either is not finite
        return (per_k, spread) if math.isfinite(per_k + spread) else (math.inf, math.inf)

    def bounds(self, k, margin: float):
        """The bound at K = k, an int or an array, as a function of n, for
        any margin up to K's."""
        per_k, spread = self.capacity
        with np.errstate(all="ignore"):
            c = self.peak * (k * self.channel.P / self.channel.sigma2)
            a = 12.0 * c / (margin * (1.0 - _SLACK))
            m = np.minimum(k, a / math.e)
            gain = np.minimum(k * np.log2(1.0 + c / k), k * per_k + spread)
            fit = m * np.log2(a / m)
        block_len = self.channel.num_paths + k - 1

        def bound(n):
            with np.errstate(all="ignore"):
                return np.maximum(((n // block_len - 1) * gain + fit) / n, 0.0) * (1.0 + _SLACK)
        return bound

    def rules_out(self, ks: np.ndarray) -> np.ndarray:
        """Which K of ks surely pass every check of _Batch and can beat no
        incumbent of a blocklength that admits them. Sets open: per n of
        best, the K of ks it admits that no bound closes (a NaN one closes
        none). Best rates only rise, so a K stays closed: ks, which start at
        or past the last call's, keep its verdicts."""
        ns = np.array(list(self.best or ()), dtype=np.int64)[:, None]
        opened = ns >= self.channel.num_paths + ks - 1
        carried = self.open[:, int(ks[0]) - self.first:][:, :len(ks)]
        opened[:, :carried.shape[1]] &= carried
        self.open, self.first = opened, int(ks[0])
        if not self.best or self.margin is None or not self.certain:
            return np.zeros(ks.shape, dtype=bool)
        with np.errstate(all="ignore"):
            c = self.peak * (ks * self.channel.P / self.channel.sigma2)
            out = (0.0 < c) & (c <= MAX_GAIN_SNR) & (self.eps / (4.0 * ks) > 0.0)
        rates = [-math.inf if plan is None else plan.rate for plan in self.best.values()]
        # one bound, at every n, on the K still open to some n
        live = np.flatnonzero(opened.any(axis=0))
        opened[:, live] &= ~(self.bounds(ks[live], self.margin)(ns) <= np.array(rates)[:, None])
        return out & ~opened.any(axis=0)


def _scan(channel: MultiPathChannel, eps: float, last: int, best=None):
    """Batches of K = L, ..., last in ascending order, each of at most _BATCH
    elements: c rows from K = k are c * (k + c - 1) elements wide. Given the
    incumbents best (see _RateBound), no batch holds a K that it rules out:
    each batch starts at the first K of a window of _BATCH counts that is
    not ruled out and ends before the next one that is, paired with the n of
    best to which one of its K is open.
    """
    bound, k = _RateBound(channel, eps, best), channel.num_paths
    while k <= last:
        ruled = bound.rules_out(np.arange(k, min(k + _BATCH, last + 1)))
        start = int(ruled.argmin())
        if ruled[start]:  # the whole window is ruled out
            k += len(ruled)
            continue
        # up to the first ruled-out K past start, else the window's end
        width = int(ruled[start:].argmax()) or len(ruled) - start
        k += start
        rows = max((math.isqrt((k - 1) ** 2 + 4 * _BATCH) - (k - 1)) // 2, 1)
        stop = k + min(rows, width)
        batch = _Batch(channel, eps, range(k, stop))
        contends = bound.open[:, start:start + len(batch.ks)].any(axis=1)
        yield batch, [n for n, open_ in zip(best or (), contends) if open_]
        bound.margin = float(batch.margins[-1]) if len(batch.ks) else bound.margin
        del batch  # freed before the next batch is built
        k = stop


def optimize_subchannel_counts(channel: MultiPathChannel, ns, eps: float) -> list:
    """The best plan of each blocklength in ns, from one scan of K.

    The batches of the longest blocklength's scan are built once, each
    rated in one pass at the n it may win; a K that _RateBound rules out
    would lose to, or tie with, a smaller K, so it is skipped. Each entry is
    the BlockPlan that scanning its n alone returns (best rate, ties to
    smaller K), or the exception that scan raises, so one infeasible n
    leaves the others planned. An eps outside (0, 1) raises ValueError for
    the whole call, and an n that admits over _MAX_WALK counts is infeasible.
    """
    num_paths = channel.num_paths
    results = {}
    for n in ns:
        if n < 2 * num_paths:
            results[n] = ValueError("blocklength too short for any admissible subchannel count")
        elif n - 2 * num_paths + 2 > _MAX_WALK:
            results[n] = InfeasibleError(
                f"scheme 3: n = {n} admits {n - 2 * num_paths + 2} subchannel counts, "
                f"more than the {_MAX_WALK} one scan may walk; set subchannels"
            )
    best = {n: None for n in ns if n not in results}
    for batch, open_ns in _scan(channel, eps, max(best, default=0) - num_paths + 1, best):
        best.update(zip(open_ns, batch.best(open_ns, [best[n] for n in open_ns])))
        if batch.error is not None:
            failed = batch.ks.start + len(batch.ks)
            results.update((n, batch.error) for n in best if n - num_paths + 1 >= failed)
            break
        del batch  # freed before the next batch is built
    return [results[n] if n in results else best[n] for n in ns]


def optimize_subchannel_count(channel: MultiPathChannel, n: int, eps: float) -> BlockPlan:
    """The best plan over every admissible K, ties to the smaller K."""
    (plan,) = optimize_subchannel_counts(channel, [n], eps)
    if isinstance(plan, Exception):
        raise plan
    return plan


# ---------------------------------------------------------------------------
# per-component messages and complex mapping
# ---------------------------------------------------------------------------

def sub_message_sizes(plan: BlockPlan):
    """Integer alphabet sizes floor(2^(n * rate)) per subchannel, one for
    each of its two components.

    Simulation needs integer alphabets, so the analytical per-component
    rates are floored; the achieved rate returned alongside, (sizes,
    achieved), is what the integer alphabets actually carry.
    """
    bits = plan.n * plan.sub_rate_half
    sizes = np.maximum(np.floor(np.power(2.0, bits)), 1.0)
    if np.any(bits > 50):
        raise InfeasibleError(
            "sub-message alphabet exceeds double-precision midpoint resolution; "
            "reduce n or the rate for simulation"
        )
    sizes = sizes.astype(np.int64)
    return sizes, float(2 * np.sum(np.log2(sizes)) / plan.n)


def map_complex(w_re, w_im, m):
    """Map component indices to complex midpoints on the unit square grid,
    both components from the alphabet 1..m.

    Broadcasts over arrays of indices and alphabet sizes (one column per
    subchannel); scalar input gives a complex number.
    """
    theta = map_message(w_re, m) + 1j * map_message(w_im, m)
    return complex(theta) if np.ndim(theta) == 0 else theta


def decode_complex(theta_hat, m):
    """Nearest-midpoint decision per component of a complex estimate; the
    alphabet size may be an array that broadcasts against theta_hat."""
    theta_hat = np.asarray(theta_hat)
    return decode_midpoint(theta_hat.real, m), decode_midpoint(theta_hat.imag, m)


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
