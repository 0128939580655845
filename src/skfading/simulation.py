"""Trial execution and Monte Carlo aggregation for all three schemes.

Every random quantity is drawn from a counter-keyed Philox stream derived
from (master seed, trial index, purpose tag), so a trial is a pure
function of its configuration: identical configurations give identical
results, trials are order-independent, and the coupled-system runs reuse
the exact noise realizations of their original-system partners (common
random numbers).

Streams are re-keyed, not rebuilt: each batch of trials builds one Philox
and sets every trial's key, with a zero counter and empty buffers, through
its state, which gives the exact stream a fresh Generator(Philox(key=...))
would. The scheme-3 messages of a trial come from one integers() call with
per-component bounds, which consumes the stream like the per-component
scalar draws it stands for.

run_trials, the one entry point to the closed loop, runs any set of trial
indices in lockstep through the scheme's engine. monte_carlo folds fixed
chunks of it into running totals, so its memory is one chunk's arrays plus
16 bytes per trial (the two power vectors, which are averaged whole).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_CHUNK = 20_000  # trials per run_trials call in monte_carlo


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


def wilson_interval(errors: int, trials: int, z: float = _WILSON_Z):
    """Wilson score interval for a binomial proportion (valid at 0 errors)."""
    if trials < 1:
        raise ValueError("need at least one trial")
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

def _keyed_streams(master_seed: int, indices, tag: int):
    """Yield one generator per index, at the start of its keyed stream.

    A single Philox is re-keyed through its state for each index: the state
    of a fresh Philox (zero counter, empty buffers) with the key replaced by
    philox_key(master_seed, index, tag). Philox output depends only on
    (key, counter), so each yielded generator draws exactly what
    Generator(Philox(key=philox_key(master_seed, index, tag))) would. The
    same generator object is re-keyed on the next step; draw from it before
    advancing.
    """
    bitgen = Philox()
    gen = Generator(bitgen)
    state = bitgen.state
    state["buffer"] = state["buffer"].tolist()
    inner = state["state"]
    inner["counter"] = inner["counter"].tolist()
    key = inner["key"] = [0, 0]
    for ix in indices:
        packed = philox_key(master_seed, int(ix), tag)
        key[0], key[1] = packed & _MASK64, packed >> 64
        bitgen.state = state
        yield gen


# ---------------------------------------------------------------------------
# engines: one per scheme, each running the original system or, in coupled
# mode, its modulo-free partner on the same noise
# ---------------------------------------------------------------------------

def _original_or_partner(closed_loop, coupled: bool):
    """Run closed_loop(None), the original system, and in coupled mode also
    closed_loop(z_orig), the modulo-free partner fed the original's
    quantization noise. closed_loop returns (outputs, quantization noise);
    the partner reports the original's transmit powers."""
    original, z_orig = closed_loop(None)
    if not coupled:
        del original["residual"]
        return original
    partner, _ = closed_loop(z_orig)
    partner["pow_fwd"] = original["pow_fwd"]
    partner["pow_fb"] = original["pow_fb"]
    return partner


def _engine_quasi_static(scenario, master_seed, indices, coupled: bool):
    params = scenario.derive()
    if params.no_positive_rate:
        raise InfeasibleError("scenario admits no positive rate (csi ball contains 0)")
    n = params.n
    count = qs.message_size(n, params.rate)
    t = len(indices)
    noise = np.empty((t, n))
    dithers = np.empty((t, n - 1))
    u = np.empty(t)
    w = np.empty(t, dtype=np.int64)
    for row, gen in zip(noise, _keyed_streams(master_seed, indices, TAG_NOISE)):
        gen.standard_normal(out=row)
    for row, gen in zip(dithers, _keyed_streams(master_seed, indices, TAG_DITHER)):
        gen.random(out=row)
    for r, gen in enumerate(_keyed_streams(master_seed, indices, TAG_ENV)):
        u[r] = gen.random()
        w[r] = gen.integers(1, count + 1)
    noise *= scenario.noise_scale * math.sqrt(params.sigma2)
    dithers -= 0.5
    dithers *= params.lattice_spacing
    h = _ball_gain(scenario.h, scenario.h_hat, scenario.distortion, u)
    theta = qs.map_message(w, count)
    beta, _ = qs.mmse_coefficients1(params, h)

    gam = params.feedback_gains
    alpha = params.power_gain
    half = params.lattice_spacing / 2.0
    root12p = math.sqrt(12.0 * params.P)
    x1 = root12p * theta

    def closed_loop(z_orig):
        remove_modulo = z_orig is not None
        eps = np.empty((t, n))
        alias = np.zeros((t, n - 1), dtype=bool)
        z_hist = np.zeros((t, n - 1))
        residual = 0.0
        # the two systems start from differently rounded forms of the same
        # time-1 estimate; both forms are part of the recorded reports
        if remove_modulo:
            theta_hat = theta + noise[:, 0] / (h * root12p)
        else:
            theta_hat = (h * x1 + noise[:, 0]) / (h * root12p)
        eps[:, 0] = theta_hat - theta
        pow_fwd = x1 * x1
        pow_fb = np.zeros(t)
        for i in range(n - 1):  # feedback at time i+1, forward step at time i+2
            if remove_modulo:
                x_t = gam[i] * theta_hat + dithers[:, i]
                z_hist[:, i] = z_orig[:, i]
                y_t = x_t + z_hist[:, i]
            else:
                x_t = qs.rx_feedback1(theta_hat, gam[i], dithers[:, i], params)
                y_t, z_hist[:, i] = qs.quantize_feedback(x_t, params.sigma_z)
            pow_fb += x_t * x_t
            z = z_hist[:, i]
            alias[:, i] = _alias_event(gam[i] * eps[:, i] + z, half)
            if remove_modulo:
                x = alpha * (y_t - gam[i] * theta - dithers[:, i])
            else:
                x = qs.tx_step1(y_t, gam[i], theta, dithers[:, i], params)
            y = h * x + noise[:, i + 1]
            theta_hat, y_dot = qs.rx_update1(theta_hat, y, z, h, beta[:, i], params)
            if remove_modulo:
                expected = h * alpha * gam[i] * eps[:, i] + noise[:, i + 1]
                residual = max(residual, float(np.max(np.abs(y_dot - expected))))
            eps[:, i + 1] = theta_hat - theta
            pow_fwd += x * x
        correct = qs.decode_midpoint(theta_hat, count) == w
        return {
            "correct": np.atleast_1d(correct),
            "eps": eps,
            "alias": alias,
            "pow_fwd": pow_fwd / n,
            "pow_fb": pow_fb / n,
            "residual": residual,
        }, z_hist

    return _original_or_partner(closed_loop, coupled)


def _engine_two_path(scenario, master_seed, indices, coupled: bool):
    params = scenario.derive()
    if params.no_positive_rate:
        raise InfeasibleError("scenario admits no positive rate (csi balls contain 0)")
    n = params.n
    count = qs.message_size(n, params.rate)
    t = len(indices)
    noise = np.empty((t, n))
    dithers = np.zeros((t, n + 1))
    u = np.empty((t, 2))
    w = np.empty(t, dtype=np.int64)
    art = np.empty(t)
    for row, gen in zip(noise, _keyed_streams(master_seed, indices, TAG_NOISE)):
        gen.standard_normal(out=row)
    for row, gen in zip(dithers, _keyed_streams(master_seed, indices, TAG_DITHER)):
        gen.random(out=row[2:n])
    for r, gen in enumerate(_keyed_streams(master_seed, indices, TAG_ENV)):
        gen.random(out=u[r])
        w[r] = gen.integers(1, count + 1)
        art[r] = gen.standard_normal()
    noise *= scenario.noise_scale * math.sqrt(params.sigma2)
    dithers[:, 2:n] -= 0.5
    dithers[:, 2:n] *= params.lattice_spacing
    art *= math.sqrt(params.art_noise_var)
    h1 = _ball_gain(scenario.h1, scenario.h1_hat, scenario.distortion, u[:, 0])
    h2 = _ball_gain(scenario.h2, scenario.h2_hat, scenario.distortion, u[:, 1])
    theta = qs.map_message(w, count)

    sign = tp.pilot_sign(h1, h2, params.sigma_z)
    pilot_ok = sign == tp.sign_product(h1, h2)  # verified per trial

    beta, _, combined = tp.mmse_coefficients2(params, h1, h2, sign)
    gam = params.feedback_gains
    alpha = params.power_gain
    half = params.lattice_spacing / 2.0
    root12p = math.sqrt(12.0 * params.P)

    # two-slot initialization: X1 carries the message, X2 stays silent
    x1 = root12p * theta
    y1 = h1 * x1 + noise[:, 0]
    y2 = h2 * x1 + noise[:, 1]
    init = tp.init_estimate(y1, y2, h1, h2, params.P)

    def closed_loop(z_orig):
        remove_modulo = z_orig is not None
        eps = np.zeros((t, n))
        alias = np.zeros((t, n - 1), dtype=bool)  # col i-1 holds the event at time i
        z_hist = np.zeros((t, n))
        residual = 0.0
        theta_hat = init.copy()
        eps[:, 0] = theta_hat - theta
        eps[:, 1] = eps[:, 0]
        pow_fwd = x1 * x1
        pow_fb = np.full(t, (2.0 * params.sigma_z) ** 2)  # pilot symbol
        if remove_modulo:
            x_t = gam[2] * theta_hat + dithers[:, 2]
            z_hist[:, 2] = z_orig[:, 2]
            y_t = x_t + z_hist[:, 2]
        else:
            x_t = tp.rx_feedback2(theta_hat, gam[2], dithers[:, 2], params)
            y_t, z_hist[:, 2] = qs.quantize_feedback(x_t, params.sigma_z)
        pow_fb += x_t * x_t
        alias[:, 1] = _alias_event(gam[2] * eps[:, 1] + z_hist[:, 2], half)
        x_prev = np.zeros(t)
        ydot_prev = np.zeros(t)
        for k in range(3, n + 1):
            u_now = art if k == 4 else 0.0
            u_prev = art if k == 5 else 0.0
            if remove_modulo:
                x = tp.phase_factor(sign, k - 2) * alpha * (
                    y_t - gam[k - 1] * theta - dithers[:, k - 1] + u_now
                )
            else:
                x = tp.tx_step2(y_t, gam[k - 1], theta, dithers[:, k - 1], sign, k,
                                params, art_noise=u_now)
            y = h1 * x + h2 * x_prev + noise[:, k - 1]
            y_dot = tp.rx_aux2(
                y, z_hist[:, k - 1], z_hist[:, k - 2], ydot_prev,
                gam[k - 2], beta[:, k - 2], h1, h2, sign, k, params,
                art_noise=u_now, art_noise_prev=u_prev,
            )
            if remove_modulo:
                expected = alpha * combined[:, k - 1] * eps[:, k - 2] \
                    + noise[:, k - 1] + u_now
                residual = max(residual, float(np.max(np.abs(y_dot - expected))))
            theta_hat = theta_hat - beta[:, k - 1] * y_dot
            eps[:, k - 1] = theta_hat - theta
            pow_fwd += x * x
            x_prev = x
            ydot_prev = y_dot
            if k <= n - 1:
                if remove_modulo:
                    x_t = gam[k] * theta_hat + dithers[:, k]
                    z_hist[:, k] = z_orig[:, k]
                    y_t = x_t + z_hist[:, k]
                else:
                    x_t = tp.rx_feedback2(theta_hat, gam[k], dithers[:, k], params)
                    y_t, z_hist[:, k] = qs.quantize_feedback(x_t, params.sigma_z)
                pow_fb += x_t * x_t
                alias[:, k - 1] = _alias_event(
                    gam[k] * eps[:, k - 1] + z_hist[:, k]
                    + (art if k == 3 else 0.0), half
                )
        correct = (qs.decode_midpoint(theta_hat, count) == w) & pilot_ok
        return {
            "correct": np.atleast_1d(correct),
            "eps": eps,
            "alias": alias[:, 1:],
            "pow_fwd": pow_fwd / n,
            "pow_fb": pow_fb / n,
            "pilot_ok": np.atleast_1d(pilot_ok),
            "residual": residual,
        }, z_hist

    return _original_or_partner(closed_loop, coupled)


def _engine_multi_path(scenario, master_seed, indices, coupled: bool):
    if coupled:
        raise ValueError("the coupled system is defined for schemes 1 and 2 only")
    plan = scenario.derive()
    m_re, m_im, _ = mp.sub_message_sizes(plan)
    t = len(indices)
    k = plan.subchannels
    num_paths = plan.num_paths
    blocks = plan.blocks
    block_len = plan.block_len
    taps = np.asarray(scenario.h, dtype=complex)

    raw = np.empty((t, 2 * blocks * block_len))
    # one message draw per component, interleaved (re_1, im_1, re_2, ...)
    w = np.empty((t, 2 * k), dtype=np.int64)
    hi = np.column_stack([m_re, m_im]).ravel() + 1
    for row, gen in zip(raw, _keyed_streams(master_seed, indices, TAG_NOISE)):
        gen.standard_normal(out=row)
    for row, gen in zip(w, _keyed_streams(master_seed, indices, TAG_ENV)):
        row[:] = gen.integers(1, hi)
    scale = scenario.noise_scale * math.sqrt(plan.sigma2 / 2.0)
    noise = scale * (raw[:, 0::2] + 1j * raw[:, 1::2])
    w_re, w_im = w[:, 0::2], w[:, 1::2]

    theta = mp.map_complex(w_re, w_im, m_re, m_im)
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

    correct = np.ones(t, dtype=bool)
    for col in live:
        got_re, got_im = mp.decode_complex(theta_hat[:, col], int(m_re[col]), int(m_im[col]))
        correct &= (got_re == w_re[:, col]) & (got_im == w_im[:, col])
    return {
        "correct": correct,
        "eps": eps,
        "alias": np.zeros((t, 0), dtype=bool),  # no modulo layer, nothing aliases
        "pow_fwd": energy / scenario.n,
        "pow_fb": np.zeros(t),
    }


_ENGINES = {1: _engine_quasi_static, 2: _engine_two_path, 3: _engine_multi_path}


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
    the original's noise, and "residual" holds its largest noise-cancellation
    error over the batch.
    """
    return _ENGINES[scenario.scheme_id](scenario, master_seed, indices, coupled)


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
    correct, alias, sq_sum = 0, 0, 0.0
    pow_fwd, pow_fb = [], []
    for start in range(0, trials, _CHUNK):
        idx = range(start, min(start + _CHUNK, trials))
        out = run_trials(scenario, master_seed, idx, coupled)
        correct += np.count_nonzero(out["correct"])
        # |eps|^2 squared in place (bit-equal to eps ** 2 on the real errors
        # of schemes 1 and 2); the running sum (0.0 at first, which leaves
        # squares unchanged) joins the chunk's first row, so trials are summed
        # in index order as one axis-0 sum over all would
        sq = np.abs(out["eps"])
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
