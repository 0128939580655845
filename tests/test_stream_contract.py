"""The keyed-stream contract: which bits every (seed, trial, purpose) draws.

The digests below were recorded with the original implementation, which
built a fresh ``Generator(Philox(key=philox_key(seed, trial, tag)))`` per
trial and purpose. Any change to how streams are built must reproduce them
bit for bit; a deliberate change of the contract must re-record them and
say so.
"""

import hashlib
import json

import numpy as np
import pytest
from numpy.random import Generator, Philox

from skfading.cli import EXIT_OK, main
from skfading.numerics import philox_key
from skfading.simulation import (
    TAG_DITHER,
    TAG_ENV,
    TAG_NOISE,
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    _keyed_streams,
    monte_carlo,
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
# span eleven 4096-trial chunks, and 8193 trials two chunks and a single
# trial; the 45 001-trial digests were recorded with an implementation that
# concatenated every chunk's full per-trial arrays and reduced them once,
# the 8193-trial ones with 20 000-trial chunks folded one at a time
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


@pytest.mark.parametrize("case", sorted(MULTI_CHUNK_CASES))
def test_multi_chunk_monte_carlo_digest(case):
    scenario, coupled, trials = MULTI_CHUNK_CASES[case]
    report = monte_carlo(scenario, trials, master_seed=2024, coupled=coupled)
    assert report_digest(report) == MULTI_CHUNK_DIGESTS[case]


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
