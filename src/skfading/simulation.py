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
  pass is slower, from one Philox re-keyed for every trial and row by four
  writes into its C state (_keyed_streams: the key's low word, the
  counter, the buffer position and the spare 32-bit half; numpy's state
  setter took about 2.6 times as long): schemes 1 and 2 pass all such
  rows of a run to one loop (_generator_rows) that fills their time-major
  arrays (scheme 2 at n = 80: its dithers and its noise); scheme 3 fills
  each tile's trial-major noise rows straight from one _keyed_streams
  iterator over the run. The struct layout is checked against numpy's own
  state once per process (_philox_layout).
A trial whose environment the pass cannot decide (a Lemire draw that numpy
might have rejected, leftover below the alphabet size, or a normal off the
ziggurat's fast path) draws its whole environment again from its re-keyed
generator (_keyed_streams), so the pass never models a rejection loop.

The scenario classes are each scheme's one parameter list. A scenario
checks its fields at construction, so a library caller gets ValueError
(ConfigError for a number outside its domain), and its class names its
engine: the one place where a scheme is dispatched. run_trials, the one
entry point to the closed loop, runs any set of trial indices in lockstep
through that engine. Schemes 1 and 2 share one (_link_engine): it draws
the environment and the link's rows, feeds back, quantizes or adds the
recorded noise, counts aliasing and keeps the error and power rows, for
the original system and its coupled partner alike; each scheme adds its
physics (_quasi_static, _two_path): its gains, its start and one forward
step per iteration. Their per-iteration arrays are time-major, so every
step reads and writes contiguous rows, through out= into row buffers
allocated once per run, each expression in the textbook's float
operations and their order.
Scheme 3 draws its environment for the whole run and then runs its closed
loop _BLOCK trials at a time in reused tile buffers, so that each block
step's arrays stay in cache; only the per-trial outputs span the run.
monte_carlo derives once and folds chunks of at most 4096 trials into
running totals in chunk order, spread over forked worker processes (see
monte_carlo), so the report is the same bytes for any CPU count. Each
process holds one chunk's arrays (9.3 MB at n = 80) at a time, and the
caller 16 bytes per trial of power vectors.
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
import sys
import threading
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from . import multi_path as mp
from . import quasi_static as qs
from . import two_path as tp
from .numerics import ConfigError, InfeasibleError, dft, idft, philox_key, short_int

__all__ = [
    "TAG_NOISE",
    "TAG_DITHER",
    "TAG_ENV",
    "MAX_TRIALS",
    "QuasiStaticScenario",
    "TwoPathScenario",
    "MultiPathScenario",
    "check_number",
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
# longest uniform row drawn by the vector pass, which works in 4-word blocks:
# per 4096-trial chunk (2-core Xeon) it takes 2.7 / 3.4 / 4.4 ms for rows of
# 24 / 28 / 29 words against 3.7 / 3.7 / 4.1 ms re-keyed, and 2.7 times as
# long at 78 (scheme 2's dithers at n = 80)
_SHORT_ROW = 28
_CHUNK = 4096  # the most trials that one engine run in monte_carlo takes
MAX_TRIALS = 1 << 56  # trial indices fill the 56-bit index field of a stream key
# trials per buffer of generator draws into time-major rows (schemes 1 and
# 2) and per tile of the scheme-3 closed loop, whose complex noise (256 KB
# at n = 64: 4 blocks of 16 samples) and (256, K) step arrays stay in a
# core's L2 cache
_BLOCK = 256


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

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


def _alias_event(out, half, arg, gain, err, *noise):
    """Modulo-aliasing indicator, into out: gain * err plus the noise terms
    that are not None, formed in arg, outside [-half, half)."""
    np.multiply(gain, err, out=arg)
    for term in noise:
        if term is not None:
            arg += term
    np.less(arg, -half, out=out)
    out |= arg >= half


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


class _PhiloxState(ctypes.Structure):
    """numpy's philox_state (numpy/random/src/philox/philox.h), the struct at
    a Philox's ctypes.state_address: the counter and key pointers (into the
    Philox object), then the buffered block of four words and the spare
    32-bit half."""

    _fields_ = [
        ("ctr", ctypes.c_void_p),
        ("key", ctypes.c_void_p),
        ("buffer_pos", ctypes.c_int),
        ("buffer", ctypes.c_uint64 * 4),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


@functools.cache
def _philox_layout():
    """_PhiloxState, once checked against this install's numpy.

    The key and counter pointers of a keyed Philox must lie inside its
    object before anything is read through them; then, after draws that
    leave a spare 32-bit half, a partly used buffer and a counter past
    block 1, every field must read what bitgen.state reports. Any mismatch
    raises RuntimeError naming numpy's version."""
    bitgen = Philox(key=(0x243F6A8885A308D3 << 64) | 0x13198A2E03707344)
    c = _PhiloxState.from_address(bitgen.ctypes.state_address)
    base, end = id(bitgen), id(bitgen) + type(bitgen).__basicsize__
    agrees = all(addr and base <= addr and addr + 8 * words <= end
                 for addr, words in ((c.key, 2), (c.ctr, 4)))
    if agrees:
        gen = Generator(bitgen)
        gen.integers(1 << 32, dtype=np.uint32)
        gen.random(6)
        state = bitgen.state
        agrees = (
            list((ctypes.c_uint64 * 2).from_address(c.key)) == state["state"]["key"].tolist()
            and list((ctypes.c_uint64 * 4).from_address(c.ctr)) == state["state"]["counter"].tolist()
            and list(c.buffer) == state["buffer"].tolist()
            and (c.buffer_pos, c.has_uint32, c.uinteger)
            == (state["buffer_pos"], state["has_uint32"], state["uinteger"]))
    if not agrees:
        raise RuntimeError(
            f"numpy {np.__version__}'s Philox state does not have the layout that "
            f"skfading re-keys it through")
    return _PhiloxState


def _rekeyable(master_seed: int):
    """A Generator over a fresh Philox keyed (0, master_seed), and the
    Philox's C state (_PhiloxState), which keeps the Philox alive."""
    bitgen = Philox(key=master_seed << 64)
    c = _philox_layout().from_address(bitgen.ctypes.state_address)
    c.owner = bitgen  # the struct and the key and counter words live in it
    return Generator(bitgen), c


def _keyed_streams(master_seed: int, indices, tag: int):
    """Yield one generator per index, at the start of its keyed stream: a
    single Philox (see _rekeyable), re-keyed by four writes into its C
    state. The low key word becomes index << 8 | tag, and the counter, the
    buffer and the spare 32-bit half are emptied as in a fresh Philox.
    Philox output depends only on (key, counter), so the generator then
    draws exactly what Generator(Philox(key=philox_key(master_seed, index,
    tag))) would. The same generator object is re-keyed on the next step;
    draw from it before advancing."""
    gen, c = _rekeyable(master_seed)
    key = (ctypes.c_uint64 * 2).from_address(c.key)
    ctr = (ctypes.c_uint64 * 4).from_address(c.ctr)
    for low in _stream_keys(master_seed, indices, tag).tolist():
        key[0] = low
        ctr[0] = 0
        c.buffer_pos = 4
        c.has_uint32 = 0  # a 32-bit draw may have left a spare half
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
    gen, c = _rekeyable(0)
    wi = np.empty(256)
    for idx in range(256):
        c.buffer[:] = (1 << 9) | idx, 0, 0, 0
        c.buffer_pos = 0
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

    Each draw reads one _keyed_streams iterator over the run, _BLOCK trials
    at a time: a generator draws only into contiguous rows, so each draw
    fills its rows of one reused block buffer, which is then copied into out
    (a time-major .T view, strided)."""
    t = len(indices)
    block = np.empty((min(_BLOCK, t), max((out.shape[1] for _, _, out in draws), default=0)))
    plans = [(_keyed_streams(master_seed, indices, tag), method,
              list(block[:, :out.shape[1]]), out) for tag, method, out in draws]
    for start in range(0, t, _BLOCK):
        stop = min(start + _BLOCK, t)
        for streams, method, rows, out in plans:
            # rows first: zip stops at the block's end without re-keying
            for row, gen in zip(rows[:stop - start], streams):
                getattr(gen, method)(out=row)
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
# engines: schemes 1 and 2 share one feedback-link engine, scheme 3 has its
# own; the link engine runs the original system or, in coupled mode, its
# modulo-free partner on the same noise: the same step functions on an
# infinitely coarse lattice, where modulo_reduce is the identity
# ---------------------------------------------------------------------------

def _link_engine(scenario, master_seed, coupled: bool, side):
    """The closed loop of schemes 1 and 2 around their shared feedback link;
    iteration j feeds back the estimate at time j + lead, lead = n -
    len(feedback_gains). side(scenario, params) supplies the physics as
    (uniforms, normal, trials): the environment's gain uniforms, whether an
    artificial normal follows them, and trials(u, art, dithers, noise, theta,
    x1), which sets up a run and returns (system, art1, pilot_power, masks):
    iteration 1's extra modulo term or None, the pilot's feedback power and
    named per-trial conditions of a correct decode. system(p, partner) is a
    generator: it yields its estimate, which it updates in place, and then,
    for each sent (gain, y_t, z), (x, y_dot, a, b): the forward symbol, the
    auxiliary signal and two factors whose product scales the fed-back error
    in y_dot.
    """
    params = scenario.derive()
    if params.no_positive_rate:
        raise InfeasibleError("scenario admits no positive rate: its design gain^2 * SNR "
                              "is 0 (every CSI ball contains 0) or underflows")
    n = params.n
    count = qs.message_size(n, params.rate)  # refuses an n too large for any array
    gam = params.feedback_gains
    lead = n - len(gam)
    half = params.lattice_spacing / 2.0  # both systems count the original's aliasing
    root12p = math.sqrt(12.0 * params.P)
    uniforms, normal, trials = side(scenario, params)
    # the environment: the gains' uniforms, the message, any artificial noise
    environment = _env_stream(master_seed, uniforms, [count], normal)
    systems = [(params, False)]
    if coupled:  # the partner runs after the original, on its noise
        systems.append((replace(params, lattice_spacing=math.inf), True))

    def run(indices):
        t = len(indices)
        u, w, art = environment(indices)
        w = w[:, 0]
        dithers, noise = _link_rows(master_seed, indices, params, scenario.noise_scale, len(gam))
        theta = qs.map_message(w, count)
        x1 = root12p * theta
        system, art1, pilot_power, masks = trials(u, art, dithers, noise, theta, x1)
        # only the original adds to the powers, which the partner reports too;
        # coupled, it records its quantization noise in z_hist for the partner
        pow_fwd, pow_fb = x1 * x1, np.full(t, pilot_power)
        z_hist = np.zeros((len(gam), t)) if coupled else None
        # every iteration writes into these rows, z alternating between two
        x_t, y_t, tmp, *zs = (np.empty(t) for _ in range(5))
        for p, partner in systems:
            loop = system(p, partner)
            theta_hat = next(loop)
            eps = np.empty((n, t)).T
            alias = np.zeros((len(gam), t), dtype=bool).T
            eps[:, :lead] = (theta_hat - theta)[:, None]
            residual = 0.0
            for j, gain in enumerate(gam):
                art_now = art1 if j == 1 else None
                qs.rx_feedback1(theta_hat, gain, dithers[:, j], p, out=x_t)
                if partner:  # adds the recorded noise, which it never writes
                    z = z_hist[j]
                    np.add(x_t, z, out=y_t)
                else:
                    z = z_hist[j] if coupled else zs[j % 2]
                    qs.quantize_feedback(x_t, p.sigma_z, out=(y_t, z))
                err = eps[:, j + lead - 1]
                _alias_event(alias[:, j], half, tmp, gain, err, z, art_now)
                x, y_dot, a, b = loop.send((gain, y_t, z))
                if partner:
                    expected = a * b * err + noise[:, j + lead]
                    if art_now is not None:
                        expected += art_now
                    residual = max(residual, float(np.max(np.abs(y_dot - expected), initial=0.0)))
                else:
                    pow_fb += np.multiply(x_t, x_t, out=tmp)
                    pow_fwd += np.multiply(x, x, out=tmp)
                np.subtract(theta_hat, theta, out=eps[:, j + lead])
        correct = qs.decode_midpoint(theta_hat, count) == w
        for mask in masks.values():
            correct &= mask
        report = {"correct": correct, "eps": eps, "alias": alias, "pow_fwd": pow_fwd / n,
                  "pow_fb": pow_fb / n, **masks}
        if coupled:
            report["residual"] = residual
        return report

    return run


def _quasi_static(scenario, params):
    """Scheme 1's side of _link_engine: iteration i feeds back at time i+1
    and steps tx_step1, the channel h x + noise and rx_update1 at time i+2."""
    root12p = math.sqrt(12.0 * params.P)

    def trials(u, art, dithers, noise, theta, x1):
        h = _ball_gain(scenario.h, scenario.h_hat, scenario.distortion, u[:, 0])
        h_alpha = h * params.power_gain

        def system(p, partner):
            # the two systems start from differently rounded forms of the same
            # time-1 estimate; both forms are part of the recorded reports
            if partner:
                theta_hat = theta + noise[:, 0] / (h * root12p)
            else:
                theta_hat = (h * x1 + noise[:, 0]) / (h * root12p)
            x, y, y_dot = (np.empty(len(theta)) for _ in range(3))
            # each system steps its own MMSE recursion, one gain row at a time
            steps = qs.mmse_steps1(p, h)
            next(steps)  # the time-1 variance goes unread
            gain, y_t, z = yield theta_hat
            for i, (beta, _) in enumerate(steps):
                qs.tx_step1(y_t, gain, theta, dithers[:, i], p, out=x)
                np.multiply(h, x, out=y)
                y += noise[:, i + 1]
                qs.rx_update1(theta_hat, y, z, h, beta, p, out=(theta_hat, y_dot), scale=h_alpha)
                gain, y_t, z = yield x, y_dot, h_alpha, gain

        return system, None, 0.0, {}

    return 1, False, trials


def _two_path(scenario, params):
    """Scheme 2's side of _link_engine: the pilot, the two-slot start and, at
    step k = j+3, tx_step2, h1 x + h2 x_prev + noise, rx_aux2 and the update."""
    alpha = params.power_gain

    def trials(u, art, dithers, noise, theta, x1):
        h1 = _ball_gain(scenario.h1, scenario.h1_hat, scenario.distortion, u[:, 0])
        h2 = _ball_gain(scenario.h2, scenario.h2_hat, scenario.distortion, u[:, 1])
        sign = tp.pilot_sign(h1, h2, params.sigma_z)
        pilot_ok = sign == tp.sign_product(h1, h2)  # verified per trial
        art *= math.sqrt(params.art_noise_var)
        # two-slot initialization: X1 carries the message, X2 stays silent
        init = tp.init_estimate(h1 * x1 + noise[:, 0], h2 * x1 + noise[:, 1], h1, h2, params.P)
        # the phase-scaled gains, phase_factor(sign, j) * (1, h1, h2) * alpha at
        # j % 2: step k's tx_step2 and direct rx_aux2 scales at k % 2 and its
        # relay scale at 1 - k % 2
        phased = [(f * alpha, f * h1 * alpha, f * h2 * alpha) for f in (1.0, sign)]

        def system(p, partner):
            theta_hat = init.copy()
            # x and y_dot alternate between two rows by step parity
            y, tmp, *rows = (np.empty(len(theta)) for _ in range(6))
            xs, ydots = rows[:2], rows[2:]
            # each system steps its own MMSE recursion, keeping the previous
            # gains for rx_aux2; step k: feedback k-3 at time k-1
            steps = tp.mmse_steps2(p, h1, h2, sign)
            next(steps)  # the time-2 variance goes unread
            ydot_prev = z_prev = beta_prev = gain_prev = None  # none before time 3
            gain, y_t, z = yield theta_hat
            for k, (beta, _, combined) in enumerate(steps, start=3):
                odd = k % 2
                u_now = art if k == 4 else None  # no artificial noise term elsewhere
                u_prev = art if k == 5 else None
                x = tp.tx_step2(y_t, gain, theta, dithers[:, k - 3], sign, k, p,
                                art_noise=u_now, out=xs[odd], scale=phased[odd][0])
                np.multiply(h1, x, out=y)
                if k > 3:  # x_prev is 0 before time 3
                    y += np.multiply(h2, xs[1 - odd], out=tmp)
                y += noise[:, k - 1]
                y_dot = tp.rx_aux2(
                    y, z, z_prev, ydot_prev, gain_prev, beta_prev, h1, h2, sign,
                    k, p, art_noise=u_now, art_noise_prev=u_prev, out=ydots[odd],
                    scales=(phased[odd][1], phased[1 - odd][2]),
                )
                theta_hat -= np.multiply(beta, y_dot, out=tmp)
                ydot_prev, z_prev, beta_prev, gain_prev = y_dot, z, beta, gain
                gain, y_t, z = yield x, y_dot, alpha, combined

        # the artificial noise joins the modulo argument of the time-4 step
        return system, art, (2.0 * params.sigma_z) ** 2, {"pilot_ok": pilot_ok}

    return 2, True, trials


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


# ---------------------------------------------------------------------------
# scenarios: each checks its fields at construction and names its engine
# ---------------------------------------------------------------------------

# lowest value of each bounded number and whether it is allowed; eps also
# stays below 1, and a subnormal eps would make eps / (4 (n - 1)) underflow
_DOMAINS = {"sigma2": (0.0, False), "P": (0.0, False), "P_tilde": (0.0, False),
            "sigma_z": (0.0, True), "distortion": (0.0, True), "noise_scale": (0.0, True),
            "eps": (sys.float_info.min, True)}


def check_number(key: str, value):
    """value, if the scenario number named key may take it: never NaN, and
    within its _DOMAINS bounds if it has any; else ConfigError."""
    if value != value:  # a complex NaN (scheme 3's taps) too
        raise ConfigError(f"{key} must be a number, got {value!r}")
    low, closed = _DOMAINS.get(key, (None, True))
    if low is not None and (value < low or (value == low and not closed)):
        bound = "at least" if closed else "above"
        raise ConfigError(f"{key} must be {bound} {low:g}, got {value!r}")
    if key == "eps" and value >= 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {value!r}")
    return value


class Scenario:
    """The scenario classes' base: a scenario checks its fields at
    construction, in field order: n is an integer (TypeError), each number
    is no NaN and in its domain (ConfigError); then its scheme's rules
    (ValueError), n >= min_n first. Its engine is its scheme's (_engine)."""

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "n" and (type(value) is bool or not isinstance(value, numbers.Integral)):
                raise TypeError(f"n must be an integer, got {value!r}")
            for number in value if isinstance(value, tuple) else (value,):
                if number is not None:
                    check_number(field.name, number)
        if self.n < self.min_n:
            raise ValueError(f"scheme {self.scheme_id} needs n of at least {self.min_n}, "
                             f"got {short_int(self.n)}")


@dataclass(frozen=True)
class QuasiStaticScenario(Scenario):
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

    scheme_id, min_n = 1, 2
    engine = functools.partialmethod(_link_engine, side=_quasi_static)

    def derive(self) -> qs.QuasiStaticParams:
        return qs.derive_params1(self)


@dataclass(frozen=True)
class TwoPathScenario(Scenario):
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

    scheme_id, min_n = 2, 4
    engine = functools.partialmethod(_link_engine, side=_two_path)

    def derive(self) -> tp.TwoPathParams:
        return tp.derive_params2(self)


@dataclass(frozen=True)
class MultiPathScenario(Scenario):
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
    min_n = property(lambda self: 2 * len(self.h))
    engine = _engine_multi_path

    def __post_init__(self) -> None:
        super().__post_init__()
        paths, k = len(self.h), self.subchannels
        if paths < 2 or not any(self.h):
            raise ValueError("scheme 3 needs at least two channel taps, not all zero")
        if k is not None and not paths <= k <= self.n - paths + 1:
            raise ValueError(f"subchannels must lie in {{{paths}, ..., "
                             f"{short_int(self.n - paths + 1)}}} for {paths} taps and "
                             f"n={short_int(self.n)}, got {short_int(k)}")

    def derive(self) -> mp.BlockPlan:
        if self.subchannels is not None:
            return mp.plan_block(self)
        (plan,) = mp.optimize_subchannel_counts(self, [self.n])
        if isinstance(plan, Exception):
            raise plan
        return plan


def _engine(scenario, master_seed: int, coupled: bool):
    """scenario.engine, the engine its class names: it derives the scenario
    once and returns run(indices), which runs those trials in lockstep. The
    seed is checked first, and a numpy integer one runs as the int it is."""
    philox_key(master_seed)
    return scenario.engine(int(master_seed), coupled)


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
    the batch (0.0 for an empty one). A bare index raises TypeError, a
    nested set of indices ValueError.
    """
    try:
        shape = np.shape(indices)
    except ValueError:  # numpy's inhomogeneous-shape error names no trial indices
        raise ValueError("trial indices must be a 1-D sequence, got a ragged nested one") from None
    if len(shape) != 1:
        raise (TypeError if not shape else ValueError)(
            f"trial indices must be a 1-D sequence, got one of shape {shape}")
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
    """monte_carlo's process count W, its chunk count and span(c), chunk c's
    (start, stop), computed when asked for: no list of all spans is built."""
    workers = _workers(-(-trials // _CHUNK))
    chunks = workers * -(-trials // (workers * _CHUNK))
    return workers, chunks, lambda c: (trials * c // chunks, trials * (c + 1) // chunks)


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
    worker outlives the call. More than MAX_TRIALS (2**56) trials, more
    than the stream keys' trial-index field holds, raise ValueError; a
    trials or master_seed that is a bool or not an integer, TypeError.
    """
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"need at most 2**56 trials, the size of the trial-index field "
                         f"of a stream key, got {trials}")
    run = _engine(scenario, master_seed, coupled)
    workers, chunks, span = _chunk_plan(trials)
    pids, pipes = [], []
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _shard(run, map(span, range(worker, chunks, workers)), write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        correct, alias, sq_sum = 0, 0, 0.0
        pow_fwd, pow_fb = [], []
        for chunk in range(chunks):
            count, sq, alias_count, fwd, fb = (
                _receive(pipes[chunk % workers - 1], chunk) if chunk % workers
                else _fold_inputs(run, span(chunk)))
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
