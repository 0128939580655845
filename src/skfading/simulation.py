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
  uniforms, message integers, scheme 3's per-component alphabets and
  scheme 2's artificial-noise normal, by numpy's ziggurat from the next
  whole word) and dither rows of at most _SHORT_ROW words (scheme 1 at
  small n);
- rows of normals (TAG_NOISE) and longer dither rows, where the vector
  pass is slower, from one loop (_generator_rows) that re-keys one Philox
  through its state for every trial and row; an engine passes all such
  rows in one call (scheme 2 at n = 80: its dithers and its noise).
A trial whose environment the pass cannot decide (a Lemire draw that numpy
might have rejected, leftover below the alphabet size, or a normal off the
ziggurat's fast path) draws its whole environment again from its re-keyed
generator (_keyed_streams), so the pass never has to model a rejection
loop.

run_trials, the one entry point to the closed loop, runs any set of trial
indices in lockstep through the scheme's engine; schemes 1 and 2 store each
per-iteration array time-major (generators fill it through _generator_rows'
trial-major buffer), so every loop step reads and writes contiguous rows.
monte_carlo derives once and folds 4096-trial chunks into running totals,
squaring errors into a trial-major buffer so that the sum adds trials in
index order: its memory is one chunk's arrays (11.8 MB at n = 80) plus the
two power vectors, 16 bytes per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
from numpy.random import Generator, Philox

from . import multi_path as mp
from . import quasi_static as qs
from . import two_path as tp
from .numerics import InfeasibleError, dft, idft, philox_key
from .ziggurat import ziggurat_normals

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
_CHUNK = 4096  # trials per engine run in monte_carlo: the smallest at full speed
_BLOCK = 256  # trials per buffer of generator draws into time-major rows


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
    than wrapping onto another trial's key.
    """
    ix = np.asarray(indices)
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
            art, accepted = ziggurat_normals(raw[:, used])
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


def _uniform_rows(master_seed: int, indices, tag: int, out):
    """Fill out[r] with the first uniforms of trial indices[r]'s keyed
    stream, as Generator.random(out=out[r]) would, if its rows are short:
    rows of at most _SHORT_ROW words come from the vector pass. Longer rows
    are faster from re-keyed generators; for those, return the draws that
    _generator_rows takes to fill them (else none)."""
    if out.shape[1] > _SHORT_ROW:
        return [(tag, "random", out)]
    _uniforms(_philox_raw(master_seed, indices, tag, out.shape[1]), out=out)
    return []


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
        # time-major: column i of each .T view, all trials at time i, is contiguous
        dithers = np.empty((n - 1, t)).T
        # short rows come from the vector pass, whose temporaries are freed
        # before the noise exists
        draws = _uniform_rows(master_seed, indices, TAG_DITHER, dithers)
        noise = np.empty((n, t)).T
        _generator_rows(master_seed, indices, [*draws, (TAG_NOISE, "standard_normal", noise)])
        noise *= scenario.noise_scale * math.sqrt(params.sigma2)
        dithers -= 0.5
        dithers *= params.lattice_spacing
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
        dithers = np.zeros((n + 1, t)).T  # time-major, as in scheme 1
        draws = _uniform_rows(master_seed, indices, TAG_DITHER, dithers[:, 2:n])
        noise = np.empty((n, t)).T
        _generator_rows(master_seed, indices, [*draws, (TAG_NOISE, "standard_normal", noise)])
        noise *= scenario.noise_scale * math.sqrt(params.sigma2)
        dithers[:, 2:n] -= 0.5
        dithers[:, 2:n] *= params.lattice_spacing
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
                x_t = qs.rx_feedback1(theta_hat, gam[k - 1], dithers[:, k - 1], p)
                y_t, z = link(x_t, k - 1)
                # the artificial noise joins the modulo argument of the time-4 step
                alias[:, k - 3] = _alias_event(gam[k - 1] * eps[:, k - 2] + z + u_now, half)
                x = tp.tx_step2(y_t, gam[k - 1], theta, dithers[:, k - 1], sign, k, p,
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
    m_re, m_im, _ = mp.sub_message_sizes(plan)
    k = plan.subchannels
    num_paths = plan.num_paths
    blocks = plan.blocks
    block_len = plan.block_len
    taps = np.asarray(scenario.h, dtype=complex)
    # one message draw per component, interleaved (re_1, im_1, re_2, ...)
    environment = _env_stream(master_seed, 0, np.column_stack([m_re, m_im]).ravel())
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

    def run(indices):
        t = len(indices)
        w = environment(indices)[1]
        noise = np.empty((t, blocks * block_len), dtype=complex)
        # each row's normals fill its complex noise as (re, im) pairs
        _generator_rows(master_seed, indices, [(TAG_NOISE, "standard_normal", noise.view(float))])
        noise *= scenario.noise_scale * math.sqrt(plan.sigma2 / 2.0)
        w_re, w_im = w[:, 0::2], w[:, 1::2]
        theta = mp.map_complex(w_re, w_im, m_re, m_im)

        eps = np.zeros((t, blocks, k), dtype=complex)
        cur = np.zeros((t, k), dtype=complex)
        tail = np.zeros((t, num_paths - 1), dtype=complex)
        energy = np.zeros(t)
        theta_hat = np.zeros((t, k), dtype=complex)
        for b in range(1, blocks + 1):
            freq = np.zeros((t, k), dtype=complex)
            if b == 1:
                freq[:, live] = np.sqrt(6.0 * powers[live]) * theta[:, live]
            else:
                freq[:, live] = np.sqrt(powers[live] / alphas[b - 2, live]) * cur[:, live]
            time_block = idft(freq)
            sent = mp.add_cyclic_prefix(time_block, num_paths)
            energy += np.sum(np.abs(sent) ** 2, axis=1)
            ext = np.concatenate([tail, sent], axis=1)
            received = np.zeros((t, block_len), dtype=complex)
            for l in range(num_paths):
                received += taps[l] * ext[:, num_paths - 1 - l: num_paths - 1 - l + block_len]
            received += noise[:, (b - 1) * block_len: b * block_len]
            tail = sent[:, -(num_paths - 1):]
            obs_freq = dft(mp.extract_payload(received, num_paths))
            obs = np.zeros((t, k), dtype=complex)
            obs[:, live] = obs_freq[:, live] / gains[live]
            if b == 1:
                theta_hat[:, live] = obs[:, live] / np.sqrt(6.0 * powers[live])
            else:
                theta_hat[:, live] = theta_hat[:, live] - betas[b - 1, live] * obs[:, live]
            cur = theta_hat - theta
            eps[:, b - 1, :] = cur

        got_re, got_im = mp.decode_complex(theta_hat[:, live], m_re[live], m_im[live])
        return {
            "correct": np.all((got_re == w_re[:, live]) & (got_im == w_im[:, live]), axis=1),
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


def monte_carlo(
    scenario: Scenario, trials: int, master_seed: int, coupled: bool = False
) -> MonteCarloReport:
    """Aggregate independent trials into a decoding-error report.

    Trials are keyed by index, so the report depends only on
    (scenario, trials, master_seed); execution order and chunking cannot
    change a single bit of it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    run = _engine(scenario, master_seed, coupled)
    correct, alias, sq_sum = 0, 0, 0.0
    pow_fwd, pow_fb = [], []
    for start in range(0, trials, _CHUNK):
        out = run(np.arange(start, min(start + _CHUNK, trials)))
        correct += np.count_nonzero(out["correct"])
        # |eps|^2 into a fresh trial-major buffer, whatever the engine's
        # layout; the running sum (0.0 at first, which leaves squares
        # unchanged) joins the chunk's first row, so the axis-0 sum adds
        # trials in index order, as one sum over all would
        sq = np.abs(out["eps"], out=np.empty(out["eps"].shape))
        np.square(sq, out=sq)
        sq[0] += sq_sum
        sq_sum = np.sum(sq, axis=0)
        alias += np.count_nonzero(out["alias"], axis=0)
        pow_fwd.append(out["pow_fwd"])
        pow_fb.append(out["pow_fb"])
        del out, sq
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
