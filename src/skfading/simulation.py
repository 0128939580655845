"""Trial execution and Monte Carlo aggregation for all three schemes.

Every random quantity is drawn from a counter-keyed Philox stream derived
from (master seed, trial index, purpose tag), so a trial is a pure
function of its configuration: identical configurations give identical
results, trials are order-independent, and the coupled-system runs reuse
the exact noise realizations of their original-system partners (common
random numbers).

Every stream is drawn exactly as Generator(Philox(key=philox_key(seed,
index, tag))) would draw it (the v1 stream contract), in one of two ways:
- short streams, in one vectorised Philox4x64-10 pass over a whole batch
  with numpy's own transforms: every trial's environment (TAG_ENV: gain
  uniforms, message integers, two per subchannel in scheme 3, and scheme
  2's artificial-noise normal, by numpy's ziggurat from the next whole
  word, with the layer tables read once per process from the installed
  numpy's own generator) and dither rows of at most _SHORT_ROW words
  (scheme 1 at small n);
- rows of normals (TAG_NOISE) and longer dither rows, where the vector
  pass is slower, from one Philox re-keyed through its state for every
  trial and row (_keyed_streams): schemes 1 and 2 pass all such rows of a
  run to one loop (_generator_rows) that fills their time-major arrays
  (scheme 2 at n = 80: its dithers and its noise); scheme 3 fills each
  tile's trial-major noise rows straight from one _keyed_streams iterator
  over the run.
A trial whose environment the pass cannot decide (a Lemire draw that numpy
might have rejected, leftover below the alphabet size, or a normal off the
ziggurat's fast path) draws its whole environment again from its re-keyed
generator (_keyed_streams), so the pass never has to model a rejection
loop.

run_trials, the one entry point to the closed loop, runs any set of trial
indices in lockstep through the scheme's engine; schemes 1 and 2 store each
per-iteration array time-major (generators fill it through _generator_rows'
trial-major buffer), so every loop step reads and writes contiguous rows.
Scheme 3 draws its environment for the whole run and then runs its closed
loop _BLOCK trials at a time, in tile buffers that it reuses, so that each
block step's arrays stay in cache; only the per-trial outputs span the run.
monte_carlo derives once and folds chunks of at most 4096 trials into
running totals, squaring errors into a trial-major buffer so that the sum
adds trials in index order: its memory is one chunk's arrays (11.8 MB at
n = 80) plus the two power vectors, 16 bytes per trial. W processes, the
CPUs in the affinity mask up to one per started 4096 trials, run as many
chunks each, equal to within one trial: workers forked after the derive run
every W-th chunk and pipe back what the fold reads, and the caller folds
all chunks in chunk order, so the report is the same bytes for any CPU
count. Each worker holds one chunk's working set of its own.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
from numpy.random import Generator, Philox

from . import multi_path as mp
from . import quasi_static as qs
from . import two_path as tp
from .numerics import InfeasibleError, dft, idft, philox_key

__all__ = [
    "TAG_NOISE",
    "TAG_DITHER",
    "TAG_ENV",
    "QuasiStaticScenario",
    "TwoPathScenario",
    "MultiPathScenario",
    "MonteCarloReport",
    "wilson_interval",
    "run_trials",
    "monte_carlo",
]

TAG_NOISE = 1
TAG_DITHER = 2
TAG_ENV = 3

_WILSON_Z = 1.959963984540054  # two-sided 95%
_MASK64 = (1 << 64) - 1
_M32 = (1 << 32) - 1
# Philox4x64 round multipliers and key increments, as in numpy's Philox
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# longest uniform row drawn by the vector pass: per 4096-trial chunk it takes
# 4.0 ms for 32-word rows against 6.8 ms re-keyed, ties near 48 words and
# takes twice as long at 78 (scheme 2's dithers at n = 80)
_SHORT_ROW = 32
_CHUNK = 4096  # the most trials that one engine run in monte_carlo takes
# trials per buffer of generator draws into time-major rows (schemes 1 and
# 2) and per tile of the scheme-3 closed loop, whose complex noise (256 KB
# at n = 64: 4 blocks of 16 samples) and (256, K) step arrays stay in a
# core's L2 cache
_BLOCK = 256


# ---------------------------------------------------------------------------
# scenarios and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiStaticScenario:
    """Single-path setup; h=None draws the true gain uniformly in the
    distortion ball around the estimate, fresh per trial."""

    h_hat: float
    distortion: float
    sigma2: float
    P: float
    P_tilde: float
    sigma_z: float
    n: int
    eps: float
    h: Optional[float] = None
    noise_scale: float = 1.0  # scales realized forward noise; 0 = noiseless loop

    scheme_id = 1

    def derive(self) -> qs.QuasiStaticParams:
        return qs.derive_params1(
            self.sigma2, self.P, self.P_tilde, self.sigma_z,
            qs.TransmitterCsi(self.h_hat, self.distortion), self.n, self.eps,
        )


@dataclass(frozen=True)
class TwoPathScenario:
    h1_hat: float
    h2_hat: float
    distortion: float
    sigma2: float
    P: float
    P_tilde: float
    sigma_z: float
    n: int
    eps: float
    h1: Optional[float] = None
    h2: Optional[float] = None
    noise_scale: float = 1.0

    scheme_id = 2

    def derive(self) -> tp.TwoPathParams:
        return tp.derive_params2(
            self.sigma2, self.P, self.P_tilde, self.sigma_z,
            tp.TransmitterCsi2(self.h1_hat, self.h2_hat, self.distortion),
            self.n, self.eps,
        )


@dataclass(frozen=True)
class MultiPathScenario:
    """Noiseless-feedback multi-path setup with perfect CSI; subchannels
    None lets the planner scan every admissible count."""

    h: tuple
    sigma2: float
    P: float
    n: int
    eps: float
    subchannels: Optional[int] = None
    noise_scale: float = 1.0

    scheme_id = 3

    def derive(self) -> mp.BlockPlan:
        channel = mp.MultiPathChannel(self.h, self.sigma2, self.P)
        if self.subchannels is None:
            return mp.optimize_subchannel_count(channel, self.n, self.eps)
        return mp.plan_block(channel, self.n, self.eps, self.subchannels)


Scenario = Union[QuasiStaticScenario, TwoPathScenario, MultiPathScenario]


@dataclass
class MonteCarloReport:
    trials: int
    error_count: int
    dep_estimate: float
    wilson_lo: float
    wilson_hi: float
    mean_var_trajectory: np.ndarray
    aliasing_rate_per_iteration: np.ndarray
    avg_forward_power: float
    avg_feedback_power: float


def wilson_interval(errors: int, trials: int):
    """95% Wilson score interval for a binomial proportion (valid at 0 errors)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    z = _WILSON_Z
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # roundoff guard: the interval always contains the point estimate
    return min(max(center - half, 0.0), p), max(min(center + half, 1.0), p)


def _alias_event(arg, half):
    """Modulo-aliasing indicator: argument outside [-half, half)."""
    return (arg < -half) | (arg >= half)


def _ball_gain(fixed, center, distortion, u):
    """Per-trial true gain: the fixed value if given, else uniform in the
    CSI ball, mapped from the uniforms u on [0, 1)."""
    if fixed is not None:
        return np.full(len(u), fixed, dtype=float)
    return center + distortion * (2.0 * u - 1.0)


# ---------------------------------------------------------------------------
# keyed randomness
# ---------------------------------------------------------------------------

def _stream_keys(master_seed: int, indices, tag: int):
    """Low key words, index << 8 | tag, of the indices' keyed streams as a
    uint64 array; the high word is master_seed for all of them.

    philox_key checks the fields once per batch, at the smallest and the
    largest index, so an index outside [0, 2**56) raises ValueError rather
    than wrapping onto another trial's key; one that is not an integer (a
    float, bool or complex) raises TypeError rather than being truncated.
    """
    ix = np.asarray(indices)
    if ix.size and ix.dtype.kind not in "iu" and (ix.dtype.kind != "O" or not all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in ix.flat)):
        raise TypeError(f"trial indices must be integers, got {ix.dtype} {ix.ravel()[:3]}")
    lo, hi = (int(ix.min()), int(ix.max())) if ix.size else (0, 0)
    philox_key(master_seed, lo, tag)
    philox_key(master_seed, hi, tag)
    return (ix.astype(np.uint64) << 8) | tag


def _rekeyable(master_seed: int):
    """A Philox, its Generator, and the Philox's state in Python lists, whose
    key list's low word a caller sets before assigning the state back: the
    state of a fresh Philox (zero counter, empty buffers) with the key
    (low, master_seed). Philox output depends only on (key, counter), so the
    generator then draws exactly what Generator(Philox(key=philox_key(
    master_seed, index, tag))) would for low = index << 8 | tag."""
    bitgen = Philox()
    state = bitgen.state
    state["buffer"] = state["buffer"].tolist()
    inner = state["state"]
    inner["counter"] = inner["counter"].tolist()
    key = inner["key"] = [0, master_seed]
    return bitgen, Generator(bitgen), state, key


def _keyed_streams(master_seed: int, indices, tag: int):
    """Yield one generator per index, at the start of its keyed stream: a
    single Philox re-keyed through its state (see _rekeyable). The same
    generator object is re-keyed on the next step; draw from it before
    advancing."""
    bitgen, gen, state, key = _rekeyable(master_seed)
    for low in _stream_keys(master_seed, indices, tag).tolist():
        key[0] = low
        bitgen.state = state
        yield gen


def _mulhilo(x, m: int, hi, lo, scratch):
    """Write into hi and lo the high and low 64-bit words of the 128-bit
    products x * m, for a uint64 array x and a 64-bit constant m, from
    products of 32-bit halves; scratch holds three more arrays of x's
    shape."""
    m_lo, m_hi = m & _M32, m >> 32
    x_lo, mid, cross = scratch
    np.multiply(x, m, out=lo)
    np.bitwise_and(x, _M32, out=x_lo)
    np.right_shift(x, 32, out=hi)
    np.multiply(hi, m_lo, out=mid)
    np.multiply(x_lo, m_lo, out=cross)
    cross >>= 32
    mid += cross
    np.bitwise_and(mid, _M32, out=cross)
    x_lo *= m_hi
    cross += x_lo
    mid >>= 32
    hi *= m_hi
    hi += mid
    cross >>= 32
    hi += cross


def _philox_raw(master_seed: int, indices, tag: int, words: int):
    """The first `words` raw outputs of each index's keyed stream, as a
    (len(indices), words) uint64 array whose row r is bit-equal to
    Philox(key=philox_key(master_seed, indices[r], tag)).random_raw(words).

    One Philox4x64-10 pass (Salmon et al., SC 2011) over every trial and
    counter block at once; uint64 arithmetic wraps, which is the modular
    arithmetic the cipher defines. Block b (from 0) encrypts the counter
    (b + 1, 0, 0, 0), as a fresh numpy Philox does. The result is allocated
    before the temporaries, all in one array, so that freeing them leaves
    no gap under it (sim_tp_large's peak RSS depends on that heap layout).
    """
    k0 = _stream_keys(master_seed, indices, tag)
    k1 = master_seed
    blocks = -(-words // 4)
    out = np.empty((len(k0), blocks, 4), dtype=np.uint64)
    x0, x1, x2, x3, lo0, lo1, hi0, hi1, *scratch = np.zeros((11, blocks, len(k0)),
                                                             dtype=np.uint64)
    x0 += np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    for rnd in range(10):
        if rnd:
            k0 += _PHILOX_W[0]
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
        _mulhilo(x0, _PHILOX_M[0], hi0, lo0, scratch)
        _mulhilo(x2, _PHILOX_M[1], hi1, lo1, scratch)
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0), with
        # the spent x0 and x2 taking the next round's low words
        x1 ^= hi1
        x1 ^= k0
        x3 ^= hi0
        x3 ^= k1
        x0, x1, x2, x3, lo0, lo1 = x1, lo1, x3, lo0, x0, x2
    for j, lane in enumerate((x0, x1, x2, x3)):
        out[:, :, j] = lane.T
    return out.reshape(len(k0), 4 * blocks)[:, :words]


def _uniforms(raw, out=None):
    """Generator.random() of each raw word: its top 53 bits times 2**-53."""
    return np.multiply(raw >> 11, 2.0 ** -53, out=out)


@functools.cache
def _ziggurat_tables():
    """numpy's ziggurat tables (Marsaglia and Tsang, J. Stat. Softw. 2000),
    read from this install's generator: (wi, ki), the 256 layer widths on
    the scale of the 52-bit magnitude and the acceptance thresholds.

    A Philox whose buffer holds the words ((1 << 9) | idx, 0, ...) makes
    standard_normal() return 1 * wi[idx]: magnitude 1 passes layer idx's
    threshold, and layer 1, whose ki is 0, passes its wedge test on the
    zero word. ki[i] = round(wi[i - 1] / wi[i] * 2**52), with wi[255]
    before layer 0, and ki[1] = 0, as numpy's ki_double is built."""
    bitgen, gen, state, _ = _rekeyable(0)
    state["buffer_pos"] = 0
    wi = np.empty(256)
    for idx in range(256):
        state["buffer"] = [(1 << 9) | idx, 0, 0, 0]
        bitgen.state = state
        wi[idx] = gen.standard_normal()
    ki = np.rint(np.roll(wi, 1) / wi * 2.0 ** 52).astype(np.uint64)
    ki[1] = 0
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def _ziggurat_normals(words):
    """Generator.standard_normal() of each raw word, where that one word
    decides it, by numpy's layout: the layer idx = word & 0xff, the sign bit
    8 and the 52-bit magnitude rabs = word >> 9 give x = +-rabs * wi[idx],
    accepted iff rabs < ki[idx]. Otherwise (about 1.5% of words: layer 0's
    tail, a wedge, every word of layer 1) numpy draws further words.

    Returns (x, accepted), two arrays of words' shape; x is numpy's draw
    wherever accepted holds and meaningless elsewhere."""
    wi, ki = _ziggurat_tables()
    idx = (words & 0xFF).astype(np.intp)
    rabs = (words >> 9) & ((1 << 52) - 1)
    x = rabs * wi[idx]
    np.negative(x, out=x, where=(words & 0x100).astype(bool))
    return x, rabs < ki[idx]


def _integer_plan(sizes, word: int):
    """Where Generator.integers(1, size + 1) reads each alphabet size in
    turn, drawn from a stream that has used its first `word` raw words and
    holds no spare 32-bit half.

    Returns ([(word, shift, size), ...], words used after the last draw).
    numpy draws a size of 1 from nothing, a size up to 2**32 from 32 bits
    (the low half of a fresh word, shift 0, or the spare high half a
    previous 32-bit draw left, shift 32; whole-word draws in between keep
    it spare) and a larger size from a whole word (shift None). Sizes stay
    below 2**63, the int64 bound of integers().
    """
    plan, spare = [], None
    for size in map(int, sizes):
        if size == 1:
            plan.append((None, None, 1))
        elif size <= 1 << 32 and spare is not None:
            plan.append((spare, 32, size))
            spare = None
        elif size <= 1 << 32:
            plan.append((word, 0, size))
            spare, word = word, word + 1
        else:
            plan.append((word, None, size))
            word += 1
    return plan, word


def _integers(raw, plan):
    """The plan's integers from each row of raw words, by numpy's
    transforms: Lemire's multiply-shift (ACM TOMACS 2019) in 32 or 64 bits,
    and the bare 32-bit word for a size of exactly 2**32.

    Returns (values, redo): values is (rows, len(plan)) int64, and redo
    marks the rows where some Lemire draw had leftover < size and so might
    have been rejected and redrawn; their values are to be drawn again
    through _keyed_streams.
    """
    values = np.zeros((len(raw), len(plan)), dtype=np.int64)
    redo = np.zeros(len(raw), dtype=bool)
    for col, (word, shift, size) in enumerate(plan):
        if size == 1:
            continue
        if shift is None:
            draw, leftover, *scratch = np.empty((5, len(raw)), dtype=np.uint64)
            _mulhilo(raw[:, word], size, draw, leftover, scratch)
        else:
            half = (raw[:, word] >> shift) & _M32
            if size == 1 << 32:
                values[:, col] = half
                continue
            scaled = half * size
            draw, leftover = scaled >> 32, scaled & _M32
        values[:, col] = draw
        redo |= leftover < size
    values += 1
    return values, redo


def _env_stream(master_seed: int, uniforms: int, sizes, normal: bool = False):
    """draw(indices) for an engine's environment, its TAG_ENV stream: per
    trial `uniforms` uniforms, then integers(1, size + 1) for each alphabet
    size in turn, then, if normal, one standard normal.

    draw returns (u, w, art): (trials, uniforms) floats, (trials, len(sizes))
    int64 and the (trials,) normals, or None. All of them come from the
    vector pass: the normal from the next whole word after the integers, by
    numpy's ziggurat. A trial in which a Lemire draw might have been
    rejected, or whose normal that one word does not decide, draws its whole
    environment again from its re-keyed generator, which is the stream's own
    definition.
    """
    plan, used = _integer_plan(sizes, uniforms)
    highs = np.asarray(sizes) + 1

    def draw(indices):
        indices = np.asarray(indices)
        raw = _philox_raw(master_seed, indices, TAG_ENV, used + 1 if normal else used)
        u = _uniforms(raw[:, :uniforms])
        w, redo = _integers(raw, plan)
        art = None
        if normal:
            art, accepted = _ziggurat_normals(raw[:, used])
            redo |= ~accepted
        rows = np.flatnonzero(redo)
        for r, gen in zip(rows.tolist(), _keyed_streams(master_seed, indices[rows], TAG_ENV)):
            gen.random(out=u[r])
            w[r] = gen.integers(1, highs)
            if normal:
                art[r] = gen.standard_normal()
        return u, w, art

    return draw


def _generator_rows(master_seed: int, indices, draws):
    """For each (tag, method, out) of draws, fill out[r] with getattr(gen,
    method)(out=...) of trial indices[r]'s generator keyed with tag.

    One Philox is re-keyed through its state (see _rekeyable) for every
    trial and draw, _BLOCK trials at a time: a generator draws only into
    contiguous rows, so each draw fills its rows of one reused block buffer,
    which is then copied into out (a time-major .T view, strided)."""
    bitgen, gen, state, key = _rekeyable(master_seed)
    t = len(indices)
    block = np.empty((min(_BLOCK, t), max((out.shape[1] for _, _, out in draws), default=0)))
    plans = [(_stream_keys(master_seed, indices, tag), getattr(gen, method),
              list(block[:, :out.shape[1]]), out) for tag, method, out in draws]
    for start in range(0, t, _BLOCK):
        stop = min(start + _BLOCK, t)
        for lows, fill, rows, out in plans:
            for low, row in zip(lows[start:stop].tolist(), rows):
                key[0] = low
                bitgen.state = state
                fill(out=row)
            out[start:stop] = block[:stop - start, :out.shape[1]]


def _link_rows(master_seed: int, indices, params, noise_scale: float, dither_rows: int):
    """Scaled, time-major dither and noise rows of a scheme-1 or scheme-2
    run: .T views of (dither_rows, trials) uniforms on [-spacing/2,
    spacing/2) and (n, trials) normals of variance noise_scale**2 * sigma2.
    Dither rows of at most _SHORT_ROW words come from the vector pass, whose
    temporaries are freed before the noise exists; longer ones are drawn
    with the noise."""
    t = len(indices)
    dithers = np.empty((dither_rows, t)).T
    draws = [(TAG_DITHER, "random", dithers)]
    if dither_rows <= _SHORT_ROW:
        _uniforms(_philox_raw(master_seed, indices, TAG_DITHER, dither_rows), out=dithers)
        draws = []
    noise = np.empty((params.n, t)).T
    _generator_rows(master_seed, indices, [*draws, (TAG_NOISE, "standard_normal", noise)])
    noise *= noise_scale * math.sqrt(params.sigma2)
    dithers -= 0.5
    dithers *= params.lattice_spacing
    return dithers, noise


# ---------------------------------------------------------------------------
# engines: one per scheme, each running the original system or, in coupled
# mode, its modulo-free partner on the same noise: the same step functions
# on an infinitely coarse lattice, where modulo_reduce is the identity
# ---------------------------------------------------------------------------

def _original_or_partner(closed_loop, params, coupled: bool, z_shape):
    """Build and run the systems of schemes 1 and 2: closed_loop(params,
    link, False) is the original; in coupled mode closed_loop(partner, link,
    True) is its modulo-free partner, which runs on the original's
    parameters with lattice_spacing = inf and reports the original's powers.

    link(x_t, col) returns the received symbol and the quantization noise of
    feedback column col. The original quantizes x_t and, in coupled mode,
    records the noise as row col of a z_shape array; the partner adds it.
    """
    z_hist = np.zeros(z_shape) if coupled else None

    def quantize(x_t, col):
        y_t, z = qs.quantize_feedback(x_t, params.sigma_z)
        if coupled:
            z_hist[col] = z
        return y_t, z

    original = closed_loop(params, quantize, False)
    if not coupled:
        del original["residual"]
        return original

    def add_recorded(x_t, col):
        z = z_hist[col]
        return x_t + z, z

    partner = closed_loop(replace(params, lattice_spacing=math.inf), add_recorded, True)
    partner["pow_fwd"] = original["pow_fwd"]
    partner["pow_fb"] = original["pow_fb"]
    return partner


def _engine_quasi_static(scenario, master_seed, coupled: bool):
    params = scenario.derive()
    if params.no_positive_rate:
        raise InfeasibleError("scenario admits no positive rate (csi ball contains 0)")
    n = params.n
    count = qs.message_size(n, params.rate)
    gam = params.feedback_gains
    alpha = params.power_gain
    half = params.lattice_spacing / 2.0  # both systems count the original's aliasing
    root12p = math.sqrt(12.0 * params.P)
    # the environment: the gain's uniform, then the message
    environment = _env_stream(master_seed, 1, [count])

    def run(indices):
        t = len(indices)
        u, w, _ = environment(indices)
        u, w = u[:, 0], w[:, 0]
        dithers, noise = _link_rows(master_seed, indices, params, scenario.noise_scale, n - 1)
        h = _ball_gain(scenario.h, scenario.h_hat, scenario.distortion, u)
        theta = qs.map_message(w, count)
        beta = qs.mmse_coefficients1(params, h)[0]  # the err_var trajectory goes unread
        x1 = root12p * theta

        def closed_loop(p, link, partner):
            eps = np.empty((n, t)).T
            alias = np.zeros((n - 1, t), dtype=bool).T
            residual = 0.0
            # the two systems start from differently rounded forms of the same
            # time-1 estimate; both forms are part of the recorded reports
            if partner:
                theta_hat = theta + noise[:, 0] / (h * root12p)
            else:
                theta_hat = (h * x1 + noise[:, 0]) / (h * root12p)
            eps[:, 0] = theta_hat - theta
            pow_fwd = x1 * x1
            pow_fb = np.zeros(t)
            for i in range(n - 1):  # feedback at time i+1, forward step at time i+2
                x_t = qs.rx_feedback1(theta_hat, gam[i], dithers[:, i], p)
                y_t, z = link(x_t, i)
                alias[:, i] = _alias_event(gam[i] * eps[:, i] + z, half)
                x = qs.tx_step1(y_t, gam[i], theta, dithers[:, i], p)
                y = h * x + noise[:, i + 1]
                theta_hat, y_dot = qs.rx_update1(theta_hat, y, z, h, beta[:, i], p)
                if partner:
                    expected = h * alpha * gam[i] * eps[:, i] + noise[:, i + 1]
                    residual = max(residual, float(np.max(np.abs(y_dot - expected), initial=0.0)))
                else:  # the partner reports the original's powers
                    pow_fb += x_t * x_t
                    pow_fwd += x * x
                eps[:, i + 1] = theta_hat - theta
            return {
                "correct": qs.decode_midpoint(theta_hat, count) == w,
                "eps": eps,
                "alias": alias,
                "pow_fwd": pow_fwd / n,
                "pow_fb": pow_fb / n,
                "residual": residual,
            }

        return _original_or_partner(closed_loop, params, coupled, (n - 1, t))

    return run


def _engine_two_path(scenario, master_seed, coupled: bool):
    params = scenario.derive()
    if params.no_positive_rate:
        raise InfeasibleError("scenario admits no positive rate (csi balls contain 0)")
    n = params.n
    count = qs.message_size(n, params.rate)
    gam = params.feedback_gains
    alpha = params.power_gain
    half = params.lattice_spacing / 2.0  # both systems count the original's aliasing
    root12p = math.sqrt(12.0 * params.P)
    # the environment: both gains' uniforms, the message, the artificial noise
    environment = _env_stream(master_seed, 2, [count], normal=True)

    def run(indices):
        t = len(indices)
        u, w, art = environment(indices)
        w = w[:, 0]
        h1 = _ball_gain(scenario.h1, scenario.h1_hat, scenario.distortion, u[:, 0])
        h2 = _ball_gain(scenario.h2, scenario.h2_hat, scenario.distortion, u[:, 1])
        sign = tp.pilot_sign(h1, h2, params.sigma_z)
        pilot_ok = sign == tp.sign_product(h1, h2)  # verified per trial
        # the err_var trajectory goes unread, and only the partner reads
        # combined; drawn before the dither and noise rows, so that both are
        # freed (combined outside coupled mode) before those rows exist
        beta, combined = tp.mmse_coefficients2(params, h1, h2, sign)[0::2]
        if not coupled:
            combined = None
        # col k-3 holds the dither of the feedback at time k-1
        dithers, noise = _link_rows(master_seed, indices, params, scenario.noise_scale, n - 2)
        art *= math.sqrt(params.art_noise_var)
        theta = qs.map_message(w, count)

        # two-slot initialization: X1 carries the message, X2 stays silent
        x1 = root12p * theta
        y1 = h1 * x1 + noise[:, 0]
        y2 = h2 * x1 + noise[:, 1]
        init = tp.init_estimate(y1, y2, h1, h2, params.P)

        def closed_loop(p, link, partner):
            eps = np.zeros((n, t)).T
            alias = np.zeros((n - 2, t), dtype=bool).T  # col i-2 holds the event at time i
            residual = 0.0
            theta_hat = init.copy()
            eps[:, 0] = theta_hat - theta
            eps[:, 1] = eps[:, 0]
            pow_fwd = x1 * x1
            pow_fb = np.full(t, (2.0 * params.sigma_z) ** 2)  # pilot symbol
            x_prev = ydot_prev = z_prev = 0.0  # nothing sent or received before time 3
            for k in range(3, n + 1):  # feedback at time k-1, forward step at time k
                u_now = art if k == 4 else 0.0
                u_prev = art if k == 5 else 0.0
                x_t = qs.rx_feedback1(theta_hat, gam[k - 1], dithers[:, k - 3], p)
                y_t, z = link(x_t, k - 1)
                # the artificial noise joins the modulo argument of the time-4 step
                alias[:, k - 3] = _alias_event(gam[k - 1] * eps[:, k - 2] + z + u_now, half)
                x = tp.tx_step2(y_t, gam[k - 1], theta, dithers[:, k - 3], sign, k, p,
                                art_noise=u_now)
                y = h1 * x + h2 * x_prev + noise[:, k - 1]
                y_dot = tp.rx_aux2(
                    y, z, z_prev, ydot_prev, gam[k - 2], beta[:, k - 2], h1, h2, sign,
                    k, p, art_noise=u_now, art_noise_prev=u_prev,
                )
                if partner:
                    expected = alpha * combined[:, k - 1] * eps[:, k - 2] \
                        + noise[:, k - 1] + u_now
                    residual = max(residual, float(np.max(np.abs(y_dot - expected), initial=0.0)))
                else:  # the partner reports the original's powers
                    pow_fb += x_t * x_t
                    pow_fwd += x * x
                theta_hat = theta_hat - beta[:, k - 1] * y_dot
                eps[:, k - 1] = theta_hat - theta
                x_prev = x
                ydot_prev = y_dot
                z_prev = z
            return {
                "correct": (qs.decode_midpoint(theta_hat, count) == w) & pilot_ok,
                "eps": eps,
                "alias": alias,
                "pow_fwd": pow_fwd / n,
                "pow_fb": pow_fb / n,
                "pilot_ok": pilot_ok,
                "residual": residual,
            }

        return _original_or_partner(closed_loop, params, coupled, (n, t))

    return run


def _engine_multi_path(scenario, master_seed, coupled: bool):
    if coupled:
        raise ValueError("the coupled system is defined for schemes 1 and 2 only")
    plan = scenario.derive()
    sizes, _ = mp.sub_message_sizes(plan)
    k = plan.subchannels
    num_paths = plan.num_paths
    blocks = plan.blocks
    block_len = plan.block_len
    taps = np.asarray(scenario.h, dtype=complex)
    # one message draw per component, interleaved (re_1, im_1, re_2, ...)
    environment = _env_stream(master_seed, 0, np.repeat(sizes, 2))
    live = np.flatnonzero(plan.powers > 0)
    gains = plan.gains
    powers = plan.powers

    # designed per-iteration variances and MMSE gains (exact closed forms)
    alphas = np.zeros((blocks, k))
    betas = np.zeros((blocks, k))
    for col in live:
        for it in range(1, blocks + 1):
            alphas[it - 1, col], _ = mp.variance_lemma3(plan, int(col), it)
        betas[1:, col] = mp.mmse_gain_mp(plan, int(col), alphas[:-1, col])
    live = slice(None) if len(live) == k else live  # views, not index-array copies

    def run(indices):
        t = len(indices)
        w = environment(indices)[1]
        eps = np.zeros((t, blocks, k), dtype=complex)
        energy = np.zeros(t)
        correct = np.empty(t, dtype=bool)
        # the closed loop runs a tile of _BLOCK trials at a time in these buffers
        tile = min(_BLOCK, t)
        noise_tile = np.empty((tile, blocks * block_len), dtype=complex)
        # theta_hat, freq, payload, tap; dead subchannels stay 0 in the first two
        step_tile = np.zeros((4, tile, k), dtype=complex)
        streams = _keyed_streams(master_seed, indices, TAG_NOISE)
        for start in range(0, t, _BLOCK):
            rows = slice(start, min(start + _BLOCK, t))
            noise = noise_tile[:rows.stop - start]
            theta_hat, freq, payload, tap = step_tile[:, :len(noise)]
            # each row's normals fill its complex noise as (re, im) pairs
            for row, gen in zip(noise.view(float), streams):
                gen.standard_normal(out=row)
            noise *= scenario.noise_scale * math.sqrt(plan.sigma2 / 2.0)
            w_re, w_im = w[rows, 0::2], w[rows, 1::2]
            theta = mp.map_complex(w_re, w_im, sizes)
            cur = theta
            for b in range(1, blocks + 1):
                freq[:, live] = np.sqrt(6.0 * powers[live] if b == 1
                                        else powers[live] / alphas[b - 2, live]) * cur[:, live]
                sent = mp.add_cyclic_prefix(idft(freq), num_paths)
                mag = np.abs(sent)
                energy[rows] += np.sum(np.square(mag, out=mag), axis=1)
                # the previous block's ISI lands only in the prefix, which the
                # receiver drops, so each block's payload is convolved alone
                payload[...] = 0.0
                for l in range(num_paths):
                    payload += np.multiply(taps[l], sent[:, num_paths - 1 - l:block_len - l],
                                           out=tap)
                payload += mp.extract_payload(noise[:, (b - 1) * block_len: b * block_len],
                                              num_paths)
                obs = dft(payload)[:, live]
                obs /= gains[live]
                if b == 1:
                    theta_hat[:, live] = obs / np.sqrt(6.0 * powers[live])
                else:
                    theta_hat[:, live] -= np.multiply(betas[b - 1, live], obs, out=obs)
                cur = np.subtract(theta_hat, theta, out=eps[rows, b - 1, :])

            got_re, got_im = mp.decode_complex(theta_hat[:, live], sizes[live])
            correct[rows] = np.all((got_re == w_re[:, live]) & (got_im == w_im[:, live]), axis=1)
        return {
            "correct": correct,
            "eps": eps,
            "alias": np.zeros((t, 0), dtype=bool),  # no modulo layer, nothing aliases
            "pow_fwd": energy / scenario.n,
            "pow_fb": np.zeros(t),
        }

    return run


_ENGINES = {1: _engine_quasi_static, 2: _engine_two_path, 3: _engine_multi_path}


def _engine(scenario, master_seed: int, coupled: bool):
    """The one reader of scheme_id: the scheme's engine derives the scenario
    once and returns run(indices), which runs those trials in lockstep."""
    return _ENGINES[scenario.scheme_id](scenario, master_seed, coupled)


# ---------------------------------------------------------------------------
# public trial API
# ---------------------------------------------------------------------------

def run_trials(scenario: Scenario, master_seed: int, indices, coupled: bool = False) -> dict:
    """Run the closed loop of the scenario's scheme on the given trials.

    Returns per-trial arrays, row r for indices[r]: "correct" (decoded
    message equals the sent one), "eps" (estimation error per iteration),
    "alias" (modulo-aliasing events per iteration), "pow_fwd" and
    "pow_fb" (average transmit powers); scheme 2 adds "pilot_ok". With
    coupled=True (schemes 1 and 2) the loop is the modulo-free partner on
    the original's noise: the same step functions on an infinitely coarse
    lattice. "residual" then holds its largest noise-cancellation error over
    the batch (0.0 for an empty one).
    """
    return _engine(scenario, master_seed, coupled)(indices)


def _fold_inputs(run, span):
    """What monte_carlo's fold reads of the trials in span: (correct count,
    |eps|^2, aliasing counts per iteration, forward powers, feedback powers).

    |eps|^2 goes into a fresh trial-major buffer, whatever the engine's
    layout, so that an axis-0 sum over it adds trials in index order."""
    out = run(np.arange(*span))
    sq = np.abs(out["eps"], out=np.empty(out["eps"].shape))
    np.square(sq, out=sq)
    return (np.count_nonzero(out["correct"]), sq, np.count_nonzero(out["alias"], axis=0),
            out["pow_fwd"], out["pow_fb"])


def _shard(run, spans, fd: int):
    """A forked worker's whole life: pickle the fold inputs of each of its
    chunks, in order, down the pipe fd, or the exception that stopped it
    (one that cannot be pickled ends the stream early); then end the
    process, never returning into the caller's code."""
    try:
        # keep the heap freed between chunks (glibc): trimmed, each chunk faulted it in again
        with contextlib.suppress(AttributeError, OSError):
            ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
            ctypes.CDLL(None).mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        with open(fd, "wb") as pipe:
            try:
                for span in spans:
                    pickle.dump(_fold_inputs(run, span), pipe)
                    pipe.flush()
            except BaseException as exc:  # noqa: B036 - the caller raises it again
                pickle.dump(exc, pipe)
    finally:
        os._exit(0)


def _receive(pipe, chunk: int):
    """The fold inputs of a chunk a worker ran, read from its pipe; the
    worker's exception is raised here, in chunk order."""
    try:
        got = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(
            f"the worker process for chunk {chunk} ended without a result") from None
    if isinstance(got, BaseException):
        raise got
    return got


def _workers(chunks: int) -> int:
    """Processes to run the chunks on: the CPUs this process may use, at
    most one per chunk; one (no fork) while another Python thread lives,
    since a forked child would hold a copy of that thread's locks."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def _chunk_plan(trials: int):
    """monte_carlo's process count W and its chunks' (start, stop) spans."""
    workers = _workers(-(-trials // _CHUNK))
    chunks = workers * -(-trials // (workers * _CHUNK))
    return workers, [(trials * c // chunks, trials * (c + 1) // chunks) for c in range(chunks)]


def monte_carlo(
    scenario: Scenario, trials: int, master_seed: int, coupled: bool = False
) -> MonteCarloReport:
    """Aggregate independent trials into a decoding-error report.

    Trials are keyed by index, so the report depends only on
    (scenario, trials, master_seed); execution order and chunking cannot
    change a single bit of it.

    The scenario is derived once; the trials are then cut into W *
    ceil(trials / (W * _CHUNK)) contiguous chunks, equal to within one
    trial, for W processes: the CPUs in the affinity mask, at most one per
    started _CHUNK (a fork and wait cost about 2 ms), 1 while another
    thread runs. Chunk c runs in process c mod W, process 0 the caller and
    the others forked from it. Workers send back what the fold reads, and
    the caller folds every chunk in chunk order, so the report is the same
    for any W. A worker's exception is raised again in the caller, and no
    worker outlives the call.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    run = _engine(scenario, master_seed, coupled)
    workers, spans = _chunk_plan(trials)
    pids, pipes = [], []
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _shard(run, spans[worker::workers], write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        correct, alias, sq_sum = 0, 0, 0.0
        pow_fwd, pow_fb = [], []
        for chunk, span in enumerate(spans):
            count, sq, alias_count, fwd, fb = (
                _receive(pipes[chunk % workers - 1], chunk) if chunk % workers
                else _fold_inputs(run, span))
            correct += count
            # the running sum (0.0 at first, which leaves squares unchanged)
            # joins the chunk's first row, so the axis-0 sum adds trials in
            # index order, as one sum over all would
            sq[0] += sq_sum
            sq_sum = np.sum(sq, axis=0)
            del sq
            alias += alias_count
            pow_fwd.append(fwd)
            pow_fb.append(fb)
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    errors = int(trials - correct)
    lo, hi = wilson_interval(errors, trials)
    return MonteCarloReport(
        trials=trials,
        error_count=errors,
        dep_estimate=errors / trials,
        wilson_lo=lo,
        wilson_hi=hi,
        mean_var_trajectory=sq_sum / trials,
        aliasing_rate_per_iteration=alias / trials,
        avg_forward_power=float(np.mean(np.concatenate(pow_fwd))),
        avg_feedback_power=float(np.mean(np.concatenate(pow_fb))),
    )
