"""The closed-loop step layer of schemes 1 and 2.

The feedback-link engine of schemes 1 and 2 steps in place: each step
function writes its result into a row buffer through out=, and the per-run
products of the gains and the power gain are formed once. These tests pin
that this changes no result: the engine against the textbook loops of
textbook_loops.py, one per scheme, each step function
with and without out= and hoisted scales, and the number of step calls,
which perfbench's tracer times by wrapping each step function by name.
"""

import math
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from textbook_loops import textbook_quasi_static, textbook_two_path

from skfading import quasi_static, two_path
from skfading.numerics import modulo_reduce
from skfading.quasi_static import (
    derive_params1,
    quantize_feedback,
    rx_feedback1,
    rx_update1,
    tx_step1,
)
from skfading.simulation import QuasiStaticScenario, TwoPathScenario, run_trials
from skfading.two_path import derive_params2, phase_factor, rx_aux2, tx_step2

# the benchmark's scheme-1 and scheme-2 configs (perfbench/workloads.py)
QS_BENCH = QuasiStaticScenario(h_hat=0.9, distortion=0.05, sigma2=1.0, P=10.0, P_tilde=10.0,
                               sigma_z=1e-3, n=25, eps=1e-2)
TP_BENCH = TwoPathScenario(h1_hat=0.9, h2_hat=0.5, distortion=0.05, sigma2=1.0, P=1.0,
                           P_tilde=10.0, sigma_z=1e-3, n=80, eps=1e-2)

LOOP_CASES = {
    "qs_bench": QS_BENCH,
    "qs_sigma_z_0": replace(QS_BENCH, sigma_z=0.0),
    "qs_noiseless": replace(QS_BENCH, noise_scale=0.0),
    "qs_fixed_h": replace(QS_BENCH, distortion=0.0, h=0.9, n=12),
    "qs_fixed_negative_h": replace(QS_BENCH, h_hat=-0.9, distortion=0.0, h=-0.9, n=12),
    "qs_aliasing": replace(QS_BENCH, eps=0.3),
    # one and two iterations: the smallest cases of the lead and the iteration index
    "qs_n2": replace(QS_BENCH, n=2),
    "qs_n3": replace(QS_BENCH, n=3),
    "tp_bench": TP_BENCH,
    "tp_sigma_z_0": replace(TP_BENCH, sigma_z=0.0, n=20),
    "tp_noiseless": replace(TP_BENCH, noise_scale=0.0, n=20),
    "tp_negative_product": replace(TP_BENCH, h2_hat=-0.5, distortion=0.0, h1=0.9, h2=-0.5,
                                   n=20),
    "tp_h1_hat_0": replace(TP_BENCH, h1_hat=0.0, n=20),
    "tp_aliasing": replace(TP_BENCH, P=10.0, n=20, eps=0.3),
    "tp_n4": replace(TP_BENCH, n=4),
    "tp_n5": replace(TP_BENCH, n=5),
    "tp_n6": replace(TP_BENCH, n=6),
}


@pytest.mark.parametrize("coupled", [False, True], ids=["original", "coupled"])
@pytest.mark.parametrize("name", LOOP_CASES)
def test_engines_match_the_textbook_loops(name, coupled):
    scenario = LOOP_CASES[name]
    textbook = textbook_quasi_static if scenario.scheme_id == 1 else textbook_two_path
    # 300 trials: a whole 256-trial block of generator rows and part of the next
    indices = np.arange(1000, 1300)
    got = run_trials(scenario, 11, indices, coupled=coupled)
    want = textbook(scenario, 11, indices, coupled=coupled)
    if name.endswith("aliasing"):  # some trials alias; in scheme 2, some at time 4
        events = want["alias"][:, 1] if scenario.scheme_id == 2 else want["alias"]
        assert events.any()
    assert got.keys() == want.keys()
    for key in ("correct", "eps", "alias", "pow_fwd", "pow_fb", "pilot_ok"):
        if key in want:
            assert got[key].dtype == want[key].dtype, key
            assert np.array_equal(got[key], want[key]), key
    if coupled:
        assert got["residual"] == want["residual"]


# ---------------------------------------------------------------------------
# out= and hoisted scales
# ---------------------------------------------------------------------------

QS = derive_params1(QS_BENCH)
TP = derive_params2(TP_BENCH)
PARAMS = {"finite": (QS, TP),
          "infinite": (replace(QS, lattice_spacing=math.inf),
                       replace(TP, lattice_spacing=math.inf))}


def _bits(a):
    return np.shape(a), np.asarray(a, dtype=float).tobytes()


def _arrays(size=64, seed=5):
    """Named step inputs: random values with -0.0, 0.0 and +-spacing/2 mixed
    into the first entries, where the modulo argument is exactly a tie."""
    rng = np.random.default_rng(seed)
    half = QS.lattice_spacing / 2.0
    a = {name: rng.normal(scale=3.0, size=size)
         for name in ("fb", "theta", "dither", "y", "z", "z2", "ydot", "beta", "h", "h1", "h2")}
    a["sign"] = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    a["fb"][:4] = [half, -half, -0.0, 0.0]
    a["theta"][:4] = 0.0
    a["dither"][:4] = [0.0, 0.0, 0.0, -0.0]
    a["y"][:2] = [-0.0, 0.0]
    a["z"][:2] = [0.0, -0.0]
    return a


def _frozen(a):
    return {name: _bits(value) for name, value in a.items()}


@pytest.mark.parametrize("x", [0.7, 0.5, -0.5, -0.0, 0.0, 3.0, -1e300, math.nan])
@pytest.mark.parametrize("spacing", [1.0, math.inf])
def test_modulo_reduce_out_matches_a_fresh_result(x, spacing):
    # a 0-d input still returns a float, and out= (x itself or another
    # array) receives the same bits
    want = modulo_reduce(x, spacing)
    assert type(want) is float
    xs = np.full(5, x)
    xs[1::2] = -x
    fresh = modulo_reduce(xs, spacing)
    out = np.empty(5)
    assert modulo_reduce(xs, spacing, out=out) is out
    assert _bits(out) == _bits(fresh)
    assert modulo_reduce(xs, spacing, out=xs) is xs  # in place
    assert _bits(xs) == _bits(fresh)
    assert _bits(fresh[0]) == _bits(want)
    zero_d = np.empty(())
    assert modulo_reduce(np.float64(x), spacing, out=zero_d) is zero_d
    assert _bits(zero_d) == _bits(want)


def test_modulo_reduce_guards_its_range_as_the_textbook_does():
    # far from 0, x - spacing * floor(x / spacing + 0.5) rounds outside
    # [-spacing/2, spacing/2) on either side; NaN entries beside them must
    # not hide them from the guard
    spacing = QS.lattice_spacing
    half = spacing / 2.0
    xs = np.random.default_rng(8).normal(scale=1e15, size=2000)
    xs[::100] = math.nan
    raw = xs - spacing * np.floor(xs / spacing + 0.5)
    assert np.any(raw < -half) and np.any(raw >= half)
    want = raw.copy()
    np.add(want, spacing, out=want, where=want < -half)
    np.subtract(want, spacing, out=want, where=want >= half)
    assert _bits(modulo_reduce(xs, spacing)) == _bits(want)
    for x, w in zip(xs[:200], want[:200]):  # one entry at a time
        assert _bits(modulo_reduce(float(x), spacing)) == _bits(w)
    assert _bits(modulo_reduce(xs, spacing, out=xs)) == _bits(want)


def test_modulo_reduce_without_out_writes_no_input():
    xs = np.array([0.5, -0.5, -0.0, 7.3, -2.2])
    before = _bits(xs)
    for spacing in (1.0, math.inf):
        r = modulo_reduce(xs, spacing)
        assert _bits(xs) == before
    assert r is xs  # at infinite spacing x itself comes back, unwritten


@pytest.mark.parametrize("sigma_z", [1e-3, 0.25, 0.0])
def test_quantize_feedback_out_matches_a_fresh_result(sigma_z):
    # ties at odd multiples of sigma_z, where the quantizer's cells meet
    x = np.concatenate([[sigma_z, -sigma_z, 3 * sigma_z, -0.0, 0.0],
                        np.random.default_rng(2).normal(size=40)])
    before = _bits(x)
    want_y, want_z = quantize_feedback(x, sigma_z)
    assert _bits(x) == before
    out = tuple(np.empty((2, len(x))))
    got = quantize_feedback(x, sigma_z, out=out)
    assert got[0] is out[0] and got[1] is out[1]
    assert _bits(got[0]) == _bits(want_y) and _bits(got[1]) == _bits(want_z)
    assert _bits(x) == before
    for v, wy, wz in zip(x[:5], want_y, want_z):
        y, z = quantize_feedback(float(v), sigma_z)
        assert type(y) is float and type(z) is float
        assert _bits(y) == _bits(wy) and _bits(z) == _bits(wz)


@pytest.mark.parametrize("lattice", PARAMS)
def test_scheme1_steps_match_with_out_and_hoisted_scale(lattice):
    p, _ = PARAMS[lattice]
    a = _arrays()
    frozen = _frozen(a)
    gain = p.feedback_gains[3]
    buf = list(np.empty((3, len(a["fb"]))))

    want = rx_feedback1(a["theta"], gain, a["dither"], p)
    assert _bits(rx_feedback1(a["theta"], gain, a["dither"], p, out=buf[0])) == _bits(want)
    want = tx_step1(a["fb"], gain, a["theta"], a["dither"], p)
    assert _bits(tx_step1(a["fb"], gain, a["theta"], a["dither"], p, out=buf[1])) == _bits(want)

    want = rx_update1(a["theta"], a["y"], a["z"], a["h"], a["beta"], p)
    theta_hat = a["theta"].copy()  # updated in place
    got = rx_update1(theta_hat, a["y"], a["z"], a["h"], a["beta"], p, out=(theta_hat, buf[2]),
                     scale=a["h"] * p.power_gain)
    assert got[0] is theta_hat and got[1] is buf[2]
    assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
    assert _frozen(a) == frozen

    # 0-d inputs return floats with the same bits as the arrays' first entries
    scalars = {name: float(v[0]) for name, v in a.items()}
    x = rx_feedback1(scalars["theta"], gain, scalars["dither"], p)
    assert isinstance(x, float) and _bits(x) == _bits(buf[0][0])
    x = tx_step1(scalars["fb"], gain, scalars["theta"], scalars["dither"], p)
    assert isinstance(x, float) and _bits(x) == _bits(buf[1][0])
    got = rx_update1(*(scalars[name] for name in ("theta", "y", "z", "h", "beta")), p)
    assert all(isinstance(v, float) for v in got)
    assert _bits(got) == _bits((want[0][0], want[1][0]))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("lattice", PARAMS)
def test_scheme2_steps_match_with_out_and_hoisted_scales(lattice, k):
    _, p = PARAMS[lattice]
    a = _arrays(seed=k)
    art = np.random.default_rng(k).normal(size=len(a["fb"]))
    alpha = p.power_gain
    gain, gain2 = p.feedback_gains[k - 3], p.feedback_gains[max(k - 4, 0)]
    frozen = _frozen(a)
    buf = list(np.empty((2, len(a["fb"]))))
    for u_now, u_prev in ((0.0, 0.0), (art, 0.0), (0.0, art)):
        want = tx_step2(a["fb"], gain, a["theta"], a["dither"], a["sign"], k, p, art_noise=u_now)
        got = tx_step2(a["fb"], gain, a["theta"], a["dither"], a["sign"], k, p, art_noise=u_now,
                       out=buf[0], scale=phase_factor(a["sign"], k - 2) * alpha)
        assert got is buf[0] and _bits(got) == _bits(want)

        args = (a["y"], a["z"], a["z2"], a["ydot"], gain2, a["beta"], a["h1"], a["h2"],
                a["sign"], k, p)
        want = rx_aux2(*args, art_noise=u_now, art_noise_prev=u_prev)
        scales = (phase_factor(a["sign"], k - 2) * a["h1"] * alpha,
                  phase_factor(a["sign"], k - 3) * a["h2"] * alpha)
        got = rx_aux2(*args, art_noise=u_now, art_noise_prev=u_prev, out=buf[1], scales=scales)
        assert got is buf[1] and _bits(got) == _bits(want)
        assert _frozen(a) == frozen
    # None adds no artificial noise: equal values to adding 0.0
    plain = tx_step2(a["fb"], gain, a["theta"], a["dither"], a["sign"], k, p, art_noise=None)
    assert np.array_equal(plain, tx_step2(a["fb"], gain, a["theta"], a["dither"], a["sign"], k, p))
    plain = rx_aux2(*args, art_noise=None, art_noise_prev=None)
    assert np.array_equal(plain, rx_aux2(*args))

    scalars = {name: float(v[1]) for name, v in a.items()}
    x = tx_step2(scalars["fb"], gain, scalars["theta"], scalars["dither"], scalars["sign"], k, p)
    assert isinstance(x, float)
    assert _bits(x) == _bits(tx_step2(a["fb"], gain, a["theta"], a["dither"], a["sign"], k, p)[1])
    x = rx_aux2(*(scalars[name] for name in ("y", "z", "z2", "ydot")), gain2, scalars["beta"],
                scalars["h1"], scalars["h2"], scalars["sign"], k, p)
    assert isinstance(x, float) and _bits(x) == _bits(rx_aux2(*args)[1])


# ---------------------------------------------------------------------------
# step calls
# ---------------------------------------------------------------------------

def _traced_steps():
    # the names perfbench's tracer times as the closed-loop step and the modulo
    tracer = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))
    return [(module, attr) for module, attr, group in tracer["PATCHES"]
            if group in ("quasi_static.step", "two_path.step", "numerics.modulo_reduce")]


@pytest.mark.parametrize("coupled", [False, True], ids=["original", "coupled"])
@pytest.mark.parametrize("scenario", [replace(QS_BENCH, n=9), replace(TP_BENCH, n=9)],
                         ids=["scheme1", "scheme2"])
def test_each_step_is_one_traced_call(monkeypatch, scenario, coupled):
    # the engine calls each step function through its module once per step
    # and system, so inlining a step (or its modulo) fails here as well as
    # in the traced benchmark; the partner adds the original's recorded
    # quantization noise, so quantize_feedback runs for the original only
    modules = {"skfading.quasi_static": quasi_static, "skfading.two_path": two_path}
    calls = {}
    for module, attr in _traced_steps():
        def counted(*args, _fn=getattr(modules[module], attr), _name=f"{module}.{attr}",
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(modules[module], attr, counted)
    run_trials(scenario, 3, np.arange(40), coupled=coupled)
    systems = 2 if coupled else 1
    if scenario.scheme_id == 1:
        steps = scenario.n - 1
        want = {"quasi_static.tx_step1": steps * systems,
                "quasi_static.rx_update1": steps * systems,
                "quasi_static.rx_feedback1": steps * systems,
                "quasi_static.quantize_feedback": steps,
                "quasi_static.modulo_reduce": 2 * steps * systems}
    else:
        steps = scenario.n - 2
        want = {"quasi_static.rx_feedback1": steps * systems,
                "two_path.tx_step2": steps * systems,
                "two_path.rx_aux2": steps * systems,
                "quasi_static.quantize_feedback": steps,
                "quasi_static.modulo_reduce": steps * systems,
                "two_path.modulo_reduce": steps * systems,
                "two_path.quantize_feedback": 1}  # the sign pilot
    got = {name.removeprefix("skfading."): count for name, count in calls.items()
           if name.removeprefix("skfading.") in want}
    assert got == want
