"""The keyed-stream contract: which bits every (seed, trial, purpose) draws.

The digests below were recorded with the original implementation, which
built a fresh ``Generator(Philox(key=philox_key(seed, trial, tag)))`` per
trial and purpose. Any change to how streams are built must reproduce them
bit for bit; a deliberate change of the contract must re-record them and
say so.
"""

import ctypes
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from skfading import simulation
from skfading.cli import EXIT_OK, main
from skfading.numerics import philox_key
from skfading.simulation import (
    _BLOCK,
    TAG_DITHER,
    TAG_ENV,
    TAG_NOISE,
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    _env_stream,
    _generator_rows,
    _integer_plan,
    _integers,
    _keyed_streams,
    _link_rows,
    _philox_raw,
    _ziggurat_normals,
    _ziggurat_tables,
    monte_carlo,
    run_trials,
)

SIMULATE_CASES = {
    # h drawn from the ball: the environment stream draws gain and message
    "scheme1": {
        "scheme": 1, "n": 12, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
        "P_tilde": 10.0, "sigma_z": 1e-3, "h_hat": 0.9, "distortion": 0.05,
    },
    "scheme2": {
        "scheme": 2, "n": 14, "eps": 1e-2, "sigma2": 1.0, "P": 10.0,
        "P_tilde": 10.0, "sigma_z": 1e-3, "h1_hat": 0.9, "h2_hat": 0.5,
        "distortion": 0.02,
    },
    # alphabets (2574, 33, 1, 33): a size-1 column draws nothing
    "scheme3_small_alphabets": {
        "scheme": 3, "n": 60, "eps": 1e-2, "sigma2": 1.0, "P": 0.5,
        "h_re": [1.0, 0.95], "subchannels": 4,
    },
    # alphabets up to 1.6e14: bounds above 2**32 take the 64-bit path
    "scheme3_large_alphabets": {
        "scheme": 3, "n": 40, "eps": 1e-2, "sigma2": 1.0, "P": 1000.0,
        "h_re": [1.0, 0.95], "subchannels": 4,
    },
}

SIMULATE_DIGESTS = {
    "scheme1": "2c76e5179efe283c019d1d5bf6c4e99a8cb6f39174ca9b2c73a4ebceb0da9253",
    "scheme2": "1c827be980699d2a5681645f42e7d5062bc2f4148377f7589a73a01aabbf860e",
    "scheme3_small_alphabets":
        "4a4839a72a4d4fb156dce007651b8ab2a2e91d412e629b939baab851c8090182",
    "scheme3_large_alphabets":
        "c93a2960fe20d646ec97377a1188aad97e7acb85928b3ff490197cedd3d712f6",
}

COUPLED_CASES = {
    "scheme1": QuasiStaticScenario(
        h_hat=0.9, distortion=0.05, sigma2=1.0, P=10.0, P_tilde=10.0,
        sigma_z=1e-3, n=12, eps=1e-2,
    ),
    "scheme2": TwoPathScenario(
        h1_hat=0.9, h2_hat=0.5, distortion=0.02, sigma2=1.0, P=10.0,
        P_tilde=10.0, sigma_z=1e-3, n=14, eps=1e-2,
    ),
}

COUPLED_DIGESTS = {
    "scheme1": "1a107de1b61ae0b554563e6d7d1191b1bf4e02635f77000f17044401a0990c12",
    "scheme2": "6c804ebd345efaa9db16d4a26166e7bfc3039496f7ff512448d6b8b92c7afa40",
}


# these pin how monte_carlo folds its chunks into one report: 45 001 trials
# span twelve chunks of 3750 or 3751 trials on two CPUs (eleven of 4091 on
# one), and 8193 trials four chunks of 2048 or 2049 (three of 2731 on one);
# the 45 001-trial digests were recorded with an implementation that
# concatenated every chunk's full per-trial arrays and reduced them once,
# the 8193-trial ones (whose case names date from fixed 4096-trial chunks,
# the last holding a single trial) with 20 000-trial chunks folded one at a
# time
MULTI_CHUNK_SCHEME3 = MultiPathScenario(h=(0.9, 0.5), sigma2=1.0, P=10.0, n=24,
                                        eps=1e-2, subchannels=3)
MULTI_CHUNK_CASES = {
    "scheme1": (COUPLED_CASES["scheme1"], False, 45_001),
    "scheme1_coupled": (COUPLED_CASES["scheme1"], True, 45_001),
    "scheme2": (COUPLED_CASES["scheme2"], False, 45_001),
    "scheme2_coupled": (COUPLED_CASES["scheme2"], True, 45_001),
    "scheme3": (MULTI_CHUNK_SCHEME3, False, 45_001),
    "scheme2_single_trial_last_chunk": (COUPLED_CASES["scheme2"], False, 8193),
    "scheme3_single_trial_last_chunk": (MULTI_CHUNK_SCHEME3, False, 8193),
}

MULTI_CHUNK_DIGESTS = {
    "scheme1": "867e90df332b0d0b310963ab878b08f9e112b4c46e3cb5edc5a42c61d339faf2",
    "scheme1_coupled":
        "0e62966b112bc56aaa792d7aba334d045397dc96963a5eef97ab77e18588c096",
    "scheme2": "987d3b259ae102af73d3765e1c3cc004b1b050cf292d789270a69d972ec9afb5",
    "scheme2_coupled":
        "7b9750699021f173024588edad2a50e6238f593b025917c980306255a422f9b8",
    "scheme3": "e3d59354736fb5561a6091a58e8d9fdc809bfafdd99989235169feb25246973d",
    "scheme2_single_trial_last_chunk":
        "d7c3fbd05519cc1f70bfb935f0474a2eff5ec25f6fa1674471b50b8a22f72906",
    "scheme3_single_trial_last_chunk":
        "4057510f6cabd1e18184a8aa065b26e0ab88ebc60eb0c9392329fff007144723",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report) -> str:
    fields = {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in vars(report).items()
    }
    return sha256(json.dumps(fields, sort_keys=True).encode())


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_report_digest(tmp_path, case):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(SIMULATE_CASES[case]))
    out = tmp_path / "r.json"
    assert main(["simulate", "--config", str(cfg), "--trials", "300",
                 "--seed", "2024", "--out", str(out)]) == EXIT_OK
    assert sha256(out.read_bytes()) == SIMULATE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(COUPLED_CASES))
def test_coupled_monte_carlo_digest(case):
    report = monte_carlo(COUPLED_CASES[case], 300, master_seed=2024, coupled=True)
    assert report_digest(report) == COUPLED_DIGESTS[case]


# scheme 2's message alphabet (2.8e6 values) leaves some trials' Lemire
# draws rejectable, so these digests also pin the per-trial redraw of the
# environment; the other cases draw none
REDRAW_CASES = {"scheme2", "scheme2_coupled", "scheme2_single_trial_last_chunk"}


@pytest.mark.parametrize("case", sorted(MULTI_CHUNK_CASES))
def test_multi_chunk_monte_carlo_digest(monkeypatch, case):
    redrawn = []

    def counting_integers(raw, plan):
        values, redo = _integers(raw, plan)
        redrawn.append(int(np.count_nonzero(redo)))
        return values, redo

    monkeypatch.setattr(simulation, "_integers", counting_integers)
    scenario, coupled, trials = MULTI_CHUNK_CASES[case]
    report = monte_carlo(scenario, trials, master_seed=2024, coupled=coupled)
    assert report_digest(report) == MULTI_CHUNK_DIGESTS[case]
    assert (sum(redrawn) > 0) == (case in REDRAW_CASES)


def fresh(seed, index, tag):
    return Generator(Philox(key=philox_key(seed, index, tag)))


# seeds at both ends of the range, indices up to the 56-bit limit
KEYS = [(0, 0), (2024, 7), (2**64 - 1, 2**56 - 1), (12345, 2**40 + 3)]


@pytest.mark.parametrize("tag", [TAG_NOISE, TAG_DITHER, TAG_ENV])
def test_keyed_streams_match_fresh_generators(tag):
    for seed, first in KEYS:
        indices = [first, first - 1 if first else 1, first]
        streams = _keyed_streams(seed, indices, tag)
        for ix, gen in zip(indices, streams):
            ref = fresh(seed, ix, tag)
            # mixed draw kinds in one stream, including a buffered 32-bit
            # draw; the engines fill preallocated rows through out=
            row = np.empty(5)
            gen.standard_normal(out=row)
            assert np.array_equal(row, ref.standard_normal(5))
            assert gen.random() == ref.random()
            assert gen.integers(1, 7) == ref.integers(1, 7)
            assert np.array_equal(gen.random(3), ref.random(3))
            assert gen.standard_normal() == ref.standard_normal()


def rekey_from_used_state(monkeypatch):
    """Make every re-key of _keyed_streams start from a used state: after
    the caller's draws, the generator draws a 32-bit integer and then
    uniforms until its counter is past block 1 and its buffer half used,
    which leaves a spare 32-bit half pending."""
    real = simulation._keyed_streams

    def used_streams(master_seed, indices, tag):
        for gen in real(master_seed, indices, tag):
            yield gen
            gen.integers(1 << 32, dtype=np.uint32)
            while ((state := gen.bit_generator.state)["buffer_pos"] != 2
                   or state["state"]["counter"][0] < 2):
                gen.random()
            assert state["has_uint32"] == 1

    monkeypatch.setattr(simulation, "_keyed_streams", used_streams)


def test_keyed_streams_rekey_from_a_used_state(monkeypatch):
    rekey_from_used_state(monkeypatch)
    for seed, first in KEYS:
        indices = np.abs(first - np.arange(20))
        for ix, gen in zip(indices.tolist(), simulation._keyed_streams(seed, indices, TAG_ENV)):
            ref = fresh(seed, ix, TAG_ENV)
            # a 32-bit draw first: a spare half left pending would be read here
            assert gen.integers(1 << 32, dtype=np.uint32) == ref.integers(1 << 32, dtype=np.uint32)
            assert gen.integers(1, 7) == ref.integers(1, 7)
            assert np.array_equal(gen.random(5), ref.random(5))
            assert gen.standard_normal() == ref.standard_normal()


def test_generator_rows_rekey_from_a_used_state(monkeypatch):
    rekey_from_used_state(monkeypatch)
    check_rows([(TAG_NOISE, "standard_normal", 33), (TAG_DITHER, "random", 31)])


def philox_fields(gen):
    """Every field of gen's Philox as its _PhiloxState reads it, in the
    form of bitgen.state."""
    c = simulation._philox_layout().from_address(gen.bit_generator.ctypes.state_address)
    return {
        "key": list((ctypes.c_uint64 * 2).from_address(c.key)),
        "counter": list((ctypes.c_uint64 * 4).from_address(c.ctr)),
        "buffer": list(c.buffer), "buffer_pos": c.buffer_pos,
        "has_uint32": c.has_uint32, "uinteger": c.uinteger,
    }


def test_philox_layout_reads_what_the_state_reports():
    draws = [lambda gen: None, lambda gen: gen.integers(1 << 32, dtype=np.uint32),
             lambda gen: gen.random(3), lambda gen: gen.integers(1, 7, size=9),
             lambda gen: gen.standard_normal(11), lambda gen: gen.integers(2**40)]
    streams = _keyed_streams(2**64 - 1, range(len(draws)), TAG_NOISE)
    for low, (draw, gen) in enumerate(zip(draws, streams)):
        draw(gen)
        state = gen.bit_generator.state
        assert philox_fields(gen) == {
            "key": state["state"]["key"].tolist(),
            "counter": state["state"]["counter"].tolist(),
            "buffer": state["buffer"].tolist(), "buffer_pos": state["buffer_pos"],
            "has_uint32": state["has_uint32"], "uinteger": state["uinteger"],
        }
        assert state["state"]["key"].tolist() == [low << 8 | TAG_NOISE, 2**64 - 1]


# the struct with its two pointers swapped, and shifted by one word, so
# that the pointers read other fields
WRONG_LAYOUTS = {
    "swapped_pointers": [simulation._PhiloxState._fields_[i] for i in (1, 0, 2, 3, 4, 5)],
    "shifted": [("pad", ctypes.c_uint64), *simulation._PhiloxState._fields_],
}


@pytest.mark.parametrize("layout", sorted(WRONG_LAYOUTS))
def test_philox_layout_guard_refuses_a_wrong_layout(monkeypatch, layout):
    wrong = type("WrongState", (ctypes.Structure,), {"_fields_": WRONG_LAYOUTS[layout]})
    monkeypatch.setattr(simulation, "_PhiloxState", wrong)
    simulation._philox_layout.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}'s Philox state"):
            simulation._rekeyable(1)
    finally:
        simulation._philox_layout.cache_clear()


def test_engines_draw_the_same_through_plain_function_stand_ins(monkeypatch):
    # perfbench's tracer replaces simulation.Philox and simulation.Generator
    # with plain functions, so the module may only call them; 300 trials of
    # scheme 2 redraw some environments through _keyed_streams
    scenarios = [COUPLED_CASES["scheme1"], COUPLED_CASES["scheme2"], MULTI_CHUNK_SCHEME3]
    indices = np.arange(2**56 - 300, 2**56)
    expected = [run_trials(scenario, 2**64 - 1, indices) for scenario in scenarios]

    def philox(*args, **kwargs):
        return Philox(*args, **kwargs)

    def generator(*args, **kwargs):
        return Generator(*args, **kwargs)

    monkeypatch.setattr(simulation, "Philox", philox)
    monkeypatch.setattr(simulation, "Generator", generator)
    for cached in (simulation._philox_layout, simulation._ziggurat_tables):
        cached.cache_clear()
    try:
        for scenario, want in zip(scenarios, expected):
            got = run_trials(scenario, 2**64 - 1, indices)
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key
    finally:
        for cached in (simulation._philox_layout, simulation._ziggurat_tables):
            cached.cache_clear()


def test_array_bound_integers_match_scalar_draws():
    """One integers(1, hi) call per trial equals a loop of scalar draws,
    for alphabets of size 1 (no draw), below and above 2**32."""
    rng = np.random.default_rng(0)
    for trial in range(300):
        sizes = rng.integers(1, 2**49, size=rng.integers(1, 12))
        sizes[rng.random(sizes.size) < 0.3] = 1
        small = rng.random(sizes.size) < 0.4
        sizes[small] = rng.integers(1, 2**32 + 5, size=int(small.sum()))
        gen = next(_keyed_streams(77, [trial], TAG_ENV))
        vector = gen.integers(1, sizes + 1)
        ref = fresh(77, trial, TAG_ENV)
        scalar = [ref.integers(1, int(m) + 1) for m in sizes]
        assert vector.tolist() == scalar
        # both generators end at the same stream position
        assert gen.random() == ref.random()


@pytest.mark.parametrize("seed,index,tag", [
    (-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 2**56, 0), (0, 0, -1), (0, 0, 256),
])
def test_philox_key_rejects_out_of_range(seed, index, tag):
    with pytest.raises(ValueError):
        philox_key(seed, index, tag)


@pytest.mark.parametrize("scenario", [
    COUPLED_CASES["scheme1"], COUPLED_CASES["scheme2"], MULTI_CHUNK_SCHEME3,
], ids=["scheme1", "scheme2", "scheme3"])
@pytest.mark.parametrize("indices", [[2**56], [-1], [0, 2**56], [2**64]])
def test_run_trials_rejects_out_of_range_index(scenario, indices):
    # a trial index packs into 56 key bits; one past the end would wrap
    # onto trial 0's key instead of failing
    with pytest.raises(ValueError):
        run_trials(scenario, 2024, indices)


@pytest.mark.parametrize("scenario", [
    COUPLED_CASES["scheme1"], COUPLED_CASES["scheme2"], MULTI_CHUNK_SCHEME3,
], ids=["scheme1", "scheme2", "scheme3"])
@pytest.mark.parametrize("indices", [
    [1.5], np.array([1.9]), [True], [-0.5], [2.7], [0, 1.0], [1j],
    np.array([1, 2.5], dtype=object), np.array([True], dtype=object),
], ids=["1.5", "array_1.9", "True", "-0.5", "2.7", "int_and_float", "complex",
        "object_float", "object_bool"])
def test_run_trials_rejects_non_integer_index(scenario, indices):
    # a cast to uint64 would truncate 1.5 and True onto trial 1's key and
    # -0.5 onto trial 0's, running another trial's draws without an error
    with pytest.raises(TypeError):
        run_trials(scenario, 2024, indices)


@pytest.mark.parametrize("scenario", [
    COUPLED_CASES["scheme1"], COUPLED_CASES["scheme2"], MULTI_CHUNK_SCHEME3,
], ids=["scheme1", "scheme2", "scheme3"])
@pytest.mark.parametrize("indices, error", [
    (5, TypeError), (np.int64(5), TypeError), (np.array(5), TypeError),
    ([[0, 1]], ValueError), (np.zeros((2, 3), dtype=np.int64), ValueError),
    ([[0, 1], [2]], ValueError),
], ids=["int", "int64", "0-d", "nested", "2-d", "ragged"])
def test_run_trials_rejects_an_index_set_that_is_not_1d(scenario, indices, error):
    # a bare index failed on len() inside the engine, and scheme 1 broadcast
    # a nested set into numpy's "non-broadcastable output operand" error
    with pytest.raises(error, match="trial indices must be a 1-D sequence"):
        run_trials(scenario, 2024, indices)


@pytest.mark.parametrize("scenario", [
    COUPLED_CASES["scheme1"], COUPLED_CASES["scheme2"], MULTI_CHUNK_SCHEME3,
], ids=["scheme1", "scheme2", "scheme3"])
def test_run_trials_integer_dtypes_draw_the_same_trials(scenario):
    indices = [0, 7, 2**31 - 1, 5]
    ref = run_trials(scenario, 2024, np.array(indices, dtype=np.int64))
    for index_set in (np.array(indices, dtype=np.int32), np.array(indices, dtype=np.uint64),
                      np.array(indices, dtype=object), indices):
        got = run_trials(scenario, 2024, index_set)
        assert got.keys() == ref.keys()
        for key, value in ref.items():
            assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key
    empty = run_trials(scenario, 2024, [])
    assert len(empty["correct"]) == 0


def raw_rows(seed, indices, tag, words):
    return np.array([Philox(key=philox_key(seed, int(ix), tag)).random_raw(words)
                     for ix in indices], dtype=np.uint64).reshape(len(indices), words)


@pytest.mark.parametrize("tag", [TAG_NOISE, TAG_DITHER, TAG_ENV])
def test_philox_raw_matches_random_raw(tag):
    for seed, first in KEYS:
        for words in range(1, 30):  # up to eight counter blocks
            for indices in ([], [first]):
                got = _philox_raw(seed, indices, tag, words)
                assert got.dtype == np.uint64 and got.shape == (len(indices), words)
                assert np.array_equal(got, raw_rows(seed, indices, tag, words))
        # one engine chunk and one trial more, all within the index range
        indices = np.abs(first - np.arange(4097))
        assert np.array_equal(_philox_raw(seed, indices, tag, 29),
                              raw_rows(seed, indices, tag, 29))


# trial counts around the generator draws' buffer of _BLOCK trials, and one
# engine chunk
ROW_TRIALS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4096]


def layouts(trials, draws, flip):
    """A zeroed array per (tag, method, words) draw, three columns wider than
    its rows: a time-major array's .T view, as the engines' dithers and noise
    are, and a trial-major array in turn, the first one a .T view unless
    flip."""
    return [np.zeros((trials, words + 3)) if (k + flip) % 2 else np.zeros((words + 3, trials)).T
            for k, (_, _, words) in enumerate(draws)]


def fill_rows(seed, indices, draws, arrays):
    _generator_rows(seed, indices, [(tag, method, out[:, 2:-1])
                                    for (tag, method, _), out in zip(draws, arrays)])


def check_rows(draws, fill=fill_rows):
    """fill(seed, indices, draws, arrays) must write row r of each (tag,
    method, words) draw's column slice arrays[k][:, 2:-1] as getattr(gen,
    method)(words) of trial indices[r]'s fresh generator keyed with tag
    would, in either layout; the columns around the slice stay untouched."""
    for key, (seed, first) in enumerate(KEYS):
        # every count at the first key, those below one chunk at the others
        counts = ROW_TRIALS if key == 0 else ROW_TRIALS[:-1]
        # all within the index range; a repeated index draws the same row
        indices = np.abs(first - np.arange(max(counts)))
        expected = [np.array([getattr(fresh(seed, int(ix), tag), method)(words)
                              for ix in indices]).reshape(len(indices), words)
                    for tag, method, words in draws]
        for trials, flip in itertools.product(counts, (False, True)):
            arrays = layouts(trials, draws, flip)
            fill(seed, indices[:trials], draws, arrays)
            for rows, out in zip(expected, arrays):
                assert out[:, 2:-1].tolist() == rows[:trials].tolist()
                assert not out[:, :2].any() and not out[:, -1].any()


@pytest.mark.parametrize("words", [1, 24, 28, 29, 32, 33, 78])
def test_uniform_rows_match_generator_random(words):
    # the scaled dither and noise rows of schemes 1 and 2: dither rows up to
    # _SHORT_ROW (28) words come from the vector pass, longer ones from the
    # re-keyed generators that also draw the noise
    params = SimpleNamespace(n=words + 2, sigma2=2.5, lattice_spacing=3.7)
    std = 0.5 * math.sqrt(params.sigma2)
    for key, (seed, first) in enumerate(KEYS):
        counts = ROW_TRIALS if key == 0 else ROW_TRIALS[:-1]
        indices = np.abs(first - np.arange(max(counts)))
        expected = [
            (np.array([fresh(seed, int(ix), TAG_DITHER).random(words) for ix in indices])
             - 0.5) * params.lattice_spacing,
            np.array([fresh(seed, int(ix), TAG_NOISE).standard_normal(params.n)
                      for ix in indices]) * std,
        ]
        for trials in counts:
            rows = _link_rows(seed, indices[:trials], params, 0.5, words)
            for got, want in zip(rows, expected):
                # time-major: the .T view of a C-contiguous (rows, trials) array
                assert got.shape == (trials, want.shape[1]) and got.T.flags.c_contiguous
                assert got.tobytes(order="C") == want[:trials].tobytes()


@pytest.mark.parametrize("words", [1, 24, 32, 33, 78])
def test_generator_rows_match_generator_standard_normal(words):
    # one draw, as schemes 1 and 3 pass their noise
    check_rows([(TAG_DITHER, "standard_normal", words)])


@pytest.mark.parametrize("words", [1, 25, 33, 80])
def test_generator_rows_two_draws_match_fresh_generators(words):
    # two tags in one call, as scheme 2 passes its noise and its two words
    # shorter dithers through one buffer of the longer rows
    check_rows([(TAG_NOISE, "standard_normal", words),
                (TAG_DITHER, "random", max(words - 2, 1))])


# sha256 of the little-endian bytes of numpy 2.4.6's wi_double and
# ki_double, read from the .rodata of the distributions object in its
# libnpyrandom.a
WI_DIGEST = "33c6472209e1d09ea3548f0291e5e1ad67fb4f1d0305e9f1086689584b7bb7fa"
KI_DIGEST = "565295797825931547a1036f5b012a247be54abbe077c39fe06c8ed1e9d0a5a9"


def test_ziggurat_tables_are_numpys():
    # ki is derived from wi; layer 1 never accepts, so no draw would show a
    # wrong wi[1] except through ki[2], and only at its threshold
    wi, ki = _ziggurat_tables()
    assert sha256(wi.astype("<f8").tobytes()) == WI_DIGEST
    assert sha256(ki.astype("<u8").tobytes()) == KI_DIGEST


@pytest.mark.parametrize("used", range(10))
def test_ziggurat_normal_after_raw_words(used):
    # the normal a stream draws after `used` raw words, from word `used`
    # alone wherever that word decides it
    for seed, first in KEYS:
        indices = np.abs(first - np.arange(400))
        x, accepted = _ziggurat_normals(_philox_raw(seed, indices, TAG_ENV, used + 1)[:, used])
        assert 0 < np.count_nonzero(~accepted) < 20
        for ix, value, ok in zip(indices.tolist(), x.tolist(), accepted.tolist()):
            ref = fresh(seed, ix, TAG_ENV)
            ref.bit_generator.random_raw(used)
            assert not ok or value == ref.standard_normal()


def test_only_scheme_2_builds_the_ziggurat_tables(monkeypatch, tmp_path):
    # importing every module leaves the cache empty
    probe = ("import skfading.cli, skfading.selfcheck\n"
             "from skfading.simulation import _ziggurat_tables\n"
             "assert _ziggurat_tables.cache_info().currsize == 0")
    package_root = os.path.dirname(os.path.dirname(simulation.__file__))
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env=dict(os.environ, PYTHONPATH=package_root))

    def unbuilt():
        raise AssertionError("ziggurat tables built")

    monkeypatch.setattr(simulation, "_ziggurat_tables", unbuilt)
    # two chunks each, so a forked worker runs one of them
    cfg, spec = tmp_path / "c.json", tmp_path / "s.json"
    for case in ("scheme1", "scheme3_small_alphabets"):
        cfg.write_text(json.dumps(SIMULATE_CASES[case]))
        assert main(["simulate", "--config", str(cfg), "--trials", "5000", "--seed", "3",
                     "--out", str(tmp_path / "r.json")]) == EXIT_OK
    spec.write_text(json.dumps({
        "variable": "N", "values": [25, 100],
        "curves": ["theorem1", "theorem2", "fd_baseline", "tp_benchmark", "theorem3"],
        "fixed": {"sigma2": 1.0, "P": 10.0, "P_tilde": 10.0, "sigma_z": 1e-3, "eps": 1e-6,
                  "h": 0.9, "h_hat": 0.9, "distortion": 0.05, "h1": 0.9, "h2": 0.5,
                  "h1_hat": 0.9, "h2_hat": 0.5, "h_re": [1.0, 0.5, 0.3]},
    }))
    assert main(["rate-sweep", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == EXIT_OK
    scheme2 = {k: v for k, v in SIMULATE_CASES["scheme2"].items() if k != "scheme"}
    with pytest.raises(AssertionError, match="ziggurat tables built"):
        run_trials(TwoPathScenario(**scheme2), 1, range(10))


# (uniforms, alphabet sizes) before scheme 2's artificial normal: a 32-bit
# message leaves its spare half pending, a whole-word message does not, and
# a size-1 message draws nothing, so the normal reads word 3, 2 and 0; both
# messages leave some trials' Lemire draws rejectable
NORMAL_LAYOUTS = {
    "32_bit_message": (2, [2_840_761]),
    "whole_word_message": (1, [2**54 + 1]),
    "size_1_message": (0, [1]),
}


@pytest.mark.parametrize("layout", sorted(NORMAL_LAYOUTS))
def test_env_stream_normal_matches_fresh_generators(layout):
    # 70 000 streams per layout, 2.1e5 in all: every layer but 1 accepts,
    # and the slow branches (layer 0's tail, a wedge) and the Lemire redo
    # rows draw through the re-keyed generator
    uniforms, sizes = NORMAL_LAYOUTS[layout]
    seed, indices = 2024, np.arange(70_000)
    plan, used = _integer_plan(sizes, uniforms)
    raw = _philox_raw(seed, indices, TAG_ENV, used + 1)
    accepted = _ziggurat_normals(raw[:, used])[1]
    layer = raw[:, used] & 0xFF
    assert set(layer[accepted].tolist()) == set(range(256)) - {1}
    assert np.any(~accepted & (layer == 0)) and np.any(~accepted & (layer > 1))
    assert _integers(raw, plan)[1].any() == (sizes != [1])
    u, w, art = _env_stream(seed, uniforms, sizes, normal=True)(indices)
    ref_u, ref_w, ref_art = np.empty_like(u), np.empty_like(w), np.empty_like(art)
    for r, ix in enumerate(indices.tolist()):
        ref = fresh(seed, ix, TAG_ENV)
        ref.random(out=ref_u[r])
        ref_w[r] = [ref.integers(1, size + 1) for size in sizes]
        ref_art[r] = ref.standard_normal()
    assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)
    assert np.array_equal(art.view(np.uint64), ref_art.view(np.uint64))


# (uniforms, alphabet sizes, normal) of an environment stream
ENV_LAYOUTS = {
    "sizes_of_one_draw_nothing": (0, [1, 1], False),
    "scheme1_like": (1, [133_573], False),
    "scheme2_like": (2, [2_840_761], True),
    "scheme3_like": (0, [2574, 33, 1, 33], False),
    "32_bit_pairs_share_a_word": (1, [5, 7, 9, 11, 13], False),
    "64_bit_draw_while_half_pending": (2, [5, 2**40, 7, 2**49, 3], True),
    "size_2_to_32_takes_bare_32_bits": (0, [2**32, 3, 2**32], False),
    "rejectable_32_bit": (1, [2**31 + 1, 2**31 + 1], False),
    "rejectable_64_bit": (2, [2**63 - 2, 6], True),
}
# layouts whose Lemire draws are rejectable in about half the trials
REJECTABLE = {"rejectable_32_bit", "rejectable_64_bit"}


@pytest.mark.parametrize("layout", sorted(ENV_LAYOUTS))
def test_env_stream_matches_generator_draw_for_draw(layout):
    uniforms, sizes, normal = ENV_LAYOUTS[layout]
    plan, used = _integer_plan(sizes, uniforms)
    for seed, first in KEYS:
        draw = _env_stream(seed, uniforms, sizes, normal)
        indices = np.abs(first - np.arange(300))
        u, w, art = draw(indices)
        redo = _integers(_philox_raw(seed, indices, TAG_ENV, used), plan)[1]
        if layout in REJECTABLE:
            assert 0 < np.count_nonzero(redo) < len(indices)
        for r, ix in enumerate(indices.tolist()):
            ref = fresh(seed, ix, TAG_ENV)
            assert u[r].tolist() == ref.random(uniforms).tolist()
            assert w[r].tolist() == [ref.integers(1, size + 1) for size in sizes]
            assert art is None if not normal else art[r] == ref.standard_normal()


@pytest.mark.parametrize("scenario,coupled", [
    (COUPLED_CASES["scheme1"], False), (COUPLED_CASES["scheme1"], True),
    (COUPLED_CASES["scheme2"], False), (COUPLED_CASES["scheme2"], True),
    (MULTI_CHUNK_SCHEME3, False),
], ids=["scheme1", "scheme1_coupled", "scheme2", "scheme2_coupled", "scheme3"])
def test_run_trials_emits_no_warnings(scenario, coupled):
    # the vector pass relies on uint64 wrap-around, which numpy arrays do
    # silently; cmd_simulate's errstate must not be what keeps it quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_trials(scenario, 2**64 - 1, np.arange(2**56 - 300, 2**56), coupled=coupled)


def test_philox_key_packs_numpy_integers_exactly():
    # an int64 index shifted in fixed width wrapped to a negative key
    assert philox_key(2**64 - 1, np.int64(2**56 - 1), np.uint8(3)) \
        == philox_key(2**64 - 1, 2**56 - 1, 3)
    assert philox_key(0, np.int64(2**55)) == 2**63
    with pytest.raises(ValueError):
        philox_key(0, np.uint64(2**56))
