"""Shared numerical primitives.

Gaussian tail functions, scalar modulo-lattice arithmetic, keys for the
counter-based random streams, unitary DFT pairs, circulant channel spectra
and water-filling power allocation. Everything here is pure.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "ConfigError",
    "InfeasibleError",
    "short_int",
    "MAX_GAIN_SNR",
    "require_gain_snr",
    "q_tail",
    "q_tail_inv",
    "modulo_reduce",
    "philox_key",
    "dft",
    "idft",
    "channel_spectrum",
    "circulant_matrix",
    "water_fill",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


class ConfigError(ValueError):
    """Malformed or incomplete configuration input, or a number off its domain."""


class InfeasibleError(ValueError):
    """Requested parameters admit no valid configuration."""


def short_int(x) -> str:
    """An integer for a message: in full below 10**17, else to 6 digits."""
    return str(x) if abs(x) < 10 ** 17 else f"{x:.6g}"


# The closed forms square gain^2 * SNR (scheme 2's rate divides its time-3
# variance ratio, about 1 / (gain^2 * SNR), by gain^2 * SNR once more), so
# it must stay below the square root of the largest double, with room for
# the constant factors around it.
MAX_GAIN_SNR = 1e150


def require_gain_snr(gain_snr: float, scheme: str, floor: float = 0.0) -> None:
    """Raise InfeasibleError unless floor <= gain^2 * SNR <= MAX_GAIN_SNR.

    An overflowed (inf) or undefined (nan, from 0 * inf) product fails too.
    A closed form that takes the log of the product's reciprocal passes
    floor = 1 / MAX_GAIN_SNR.
    """
    if not floor <= gain_snr <= MAX_GAIN_SNR:
        raise InfeasibleError(
            f"{scheme}: gain^2 * SNR = {gain_snr:.3g} lies outside "
            f"[{floor:g}, {MAX_GAIN_SNR:g}], beyond what the closed forms can "
            "evaluate in double precision"
        )


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

def q_tail(x: float) -> float:
    """Upper tail Q(x) of the standard normal distribution."""
    if not math.isfinite(x):
        raise ValueError(f"q_tail requires finite input, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_tail_inv(p: float) -> float:
    """Inverse of q_tail on (0, 1).

    Values above 0.5 are handled by symmetry and yield negative results.
    Bracketing bisection refined by one Newton step; the roundtrip
    q_tail(q_tail_inv(p)) is exact to well below 1e-12.

    The bisection keeps q_tail(lo) > p >= q_tail(hi) and stops as soon as
    the midpoint rounds onto lo or hi, that is once the bracket is two
    adjacent doubles (about 55 steps for eps-scale p). From that step on
    every further step would reassign lo or hi its own value, so the
    result is bit-equal to running all 120 steps, which stays the cap.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"q_tail_inv requires p in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -q_tail_inv(1.0 - p)
    lo, hi = 0.0, 8.0
    while q_tail(hi) > p:
        lo, hi = hi, 2.0 * hi
    erfc, sqrt2 = math.erfc, _SQRT2
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if 0.5 * erfc(mid / sqrt2) > p:  # q_tail(mid), as mid is finite
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    density = math.exp(-0.5 * x * x) / _SQRT2PI
    if density > 0.0:
        x += (q_tail(x) - p) / density
    return x


# ---------------------------------------------------------------------------
# Scalar modulo lattice
# ---------------------------------------------------------------------------

def modulo_reduce(x, spacing, out=None):
    """Reduce x into [-spacing/2, spacing/2) against the nearest lattice point.

    Offset of x from its nearest multiple of ``spacing``; a tie (x exactly
    halfway between two lattice points) resolves to -spacing/2, keeping the
    half-open range. Accepts scalars or arrays. An infinite float spacing
    leaves 0 the only lattice point in reach, so x comes back unchanged
    (x itself without out). out, x itself or another array of its shape,
    receives the result and is returned; without out, x is never written.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(spacing, float) and spacing == math.inf:
        r = x if out is None else out
        if r is not x:
            r[...] = x
    else:
        # x - spacing * floor(x / spacing + 0.5), the lattice point in one
        # scratch buffer (a 0-d array when x / spacing is a numpy scalar)
        r = np.asarray(x / spacing)
        r += 0.5
        np.floor(r, out=r)
        r *= spacing
        r = np.subtract(x, r, out=r if out is None else out)
        # guard the half-open range against roundoff at the boundary; with
        # one spacing, r's extremes (NaN-skipping) tell whether any entry needs it
        half = 0.5 * spacing
        if np.ndim(half) or np.fmin.reduce(r, axis=None, initial=math.inf) < -half:
            np.add(r, spacing, out=r, where=r < -half)
        if np.ndim(half) or np.fmax.reduce(r, axis=None, initial=-math.inf) >= half:
            np.subtract(r, spacing, out=r, where=r >= half)
    if out is None and r.ndim == 0:
        return float(r)
    return r


# ---------------------------------------------------------------------------
# Stream keys
# ---------------------------------------------------------------------------

def philox_key(seed: int, index: int = 0, tag: int = 0) -> int:
    """Pack (seed, index, tag) into one 128-bit Philox key.

    Layout: seed in bits 64..127, index in bits 8..63, tag in bits 0..7.
    Distinct keys give independent substreams, so transmitter, receiver and
    analysis code can derive identical sequences without message passing.
    A field outside its range raises ValueError rather than aliasing
    another key. Fields may be numpy integers: they are packed as Python
    integers, so a fixed-width shift cannot wrap. A bool field raises
    TypeError rather than standing for 0 or 1.
    """
    if any(isinstance(field, bool) for field in (seed, index, tag)):
        raise TypeError(f"philox_key: fields must be integers, not bools, got seed={seed!r}, "
                        f"index={index!r}, tag={tag!r}")
    seed, index, tag = operator.index(seed), operator.index(index), operator.index(tag)
    if not (0 <= seed < 1 << 64 and 0 <= index < 1 << 56 and 0 <= tag < 1 << 8):
        raise ValueError(
            f"philox_key: need seed in [0, 2**64), index in [0, 2**56) and tag "
            f"in [0, 2**8), got seed={seed}, index={index}, tag={tag}"
        )
    return (seed << 64) | (index << 8) | tag


# ---------------------------------------------------------------------------
# Unitary DFT and circulant spectra
# ---------------------------------------------------------------------------

def dft(x) -> np.ndarray:
    """Unitary DFT along the last axis: y_k = K^{-1/2} sum_n e^{-2pi j nk/K} x_n."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("dft requires a nonempty last axis")
    return np.fft.fft(x) / math.sqrt(x.shape[-1])


def idft(x) -> np.ndarray:
    """Inverse of dft (also unitary), along the last axis."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("idft requires a nonempty last axis")
    return np.fft.ifft(x) * math.sqrt(x.shape[-1])


def channel_spectrum(h, size: int) -> np.ndarray:
    """Eigenvalues of the K x K circulant built from taps h (zero padded).

    They are the unnormalized DFT of the zero-padded impulse response, the
    diagonal of the circulant under the unitary DFT pair above.
    """
    h = np.asarray(h, dtype=complex)
    if h.size < 1:
        raise ValueError("channel_spectrum requires at least one tap")
    if size < h.size:
        raise ValueError(f"size {size} is smaller than the tap count {h.size}")
    return np.fft.fft(h, n=size)


def circulant_matrix(first_col) -> np.ndarray:
    """Dense circulant matrix with the given first column."""
    c = np.asarray(first_col, dtype=complex)
    k = c.size
    idx = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
    return c[idx]


# ---------------------------------------------------------------------------
# Water-filling
# ---------------------------------------------------------------------------

def water_fill(gains, noise_var: float, total_power):
    """Water-filling power allocation over parallel channels.

    gains are the channel power gains ||H_k||^2; returns (powers, level)
    with powers_k = max(level - noise_var/gains_k, 0) and
    sum(powers) == total_power. With the noise thresholds t sorted
    ascending, the level is the first candidate (total_power + t_1 + ...
    + t_m) / m that lies in [t_m, t_{m+1}] (t_{m+1} = +inf past the end):
    one vectorised selection over all m, the same float operations as an
    active-set sweep, so powers and level are the sweep's to the bit
    (Palomar and Fonollosa, IEEE TSP 2005).

    2-D gains hold one problem per row, with total_power a scalar or one
    value per row; they return powers of the gains' shape and one level
    per row. A zero gain is an unusable channel, so rows of unequal length
    may be zero-padded: each row is bit-equal to its own 1-D call.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim == 2:
        if g.shape[1] == 0:
            raise ValueError("2-D gains must have nonempty rows")
    elif g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a nonempty 1-D sequence")
    if g.size and not (0.0 <= g.min() and g.max() < math.inf):
        raise ValueError("gains must be finite and nonnegative")
    if not (noise_var > 0 and math.isfinite(noise_var)):
        raise ValueError(f"noise variance must be positive, got {noise_var!r}")
    # a scalar, or one total per row
    total = np.asarray(total_power, dtype=float).reshape(-1, 1)
    if total.size and not (0.0 < total.min() and total.max() < math.inf):
        raise ValueError(f"total power must be positive, got {total_power!r}")
    rows = g.reshape(-1, g.shape[-1])
    # an unusable channel's threshold is +inf: it sorts past the usable ones;
    # a gain so small that noise_var / gain overflows is unusable too
    thresholds = np.full(rows.shape, np.inf)
    with np.errstate(over="ignore"):
        np.divide(noise_var, rows, out=thresholds, where=rows > 0)
    counts = (thresholds < math.inf).sum(axis=1)
    if not counts.all():
        if not rows.any(axis=1).all():
            raise InfeasibleError("water_fill: all channel gains are zero")
        raise InfeasibleError("water_fill: noise_var / gain overflows for every gain")
    tsorted = np.sort(thresholds, axis=1)
    # built in place: the out-of-place form raised a rate sweep's peak RSS by ~1 MB
    candidates = np.cumsum(tsorted, axis=1)
    candidates += total
    candidates /= np.arange(1, rows.shape[1] + 1)
    # a row's last usable channel is bounded by the first +inf threshold,
    # which every finite candidate meets; the extra True column stands for
    # "none fits", numerically impossible, where all usable channels are
    # active, and so is any first fit past a row's usable channels
    fits = np.ones((rows.shape[0], rows.shape[1] + 1), dtype=bool)
    np.greater_equal(candidates, tsorted, out=fits[:, :-1])
    fits[:, :-2] &= candidates[:, :-1] <= tsorted[:, 1:]
    last = (np.arange(rows.shape[0]), np.minimum(fits.argmax(axis=1), counts - 1))
    level = candidates[last]
    # the active channels are the usable ones up to the last active (finite)
    # threshold; a tie with it past the cut only occurs where the level
    # equals it, and then level - threshold is the inactive +0.0
    powers = np.zeros(rows.shape)
    live = thresholds <= tsorted[last][:, None]
    np.subtract(level[:, None], thresholds, out=powers, where=live)
    if g.ndim == 1:
        return powers[0], float(level[0])
    return powers, level
