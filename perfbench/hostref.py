"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same code runs up to about 1.6x slower for seconds to
minutes at a time, and every part of skfading slows by about the same
factor: compiling Python, numpy array arithmetic and Philox stream set-up
alike. run.py times this kernel next to every operation and every set-up
and divides each duration by it, so the gated metrics measure the program's
cost in units of the host's current speed. The kernel never calls
skfading, so a change to the program cannot move it; a change to this file
changes every gated metric and needs a new baseline.

The kernel mixes the two kinds of work skfading does: compiling Python
source (what a set-up mostly is) and a closed loop of numpy column updates
with fresh Philox generators (what a simulation mostly is).
"""

from time import perf_counter

import numpy as np

_SOURCE = "\n".join(
    f"def f{i}(a, b=1, *c, **d):\n"
    f"    x = [a * j + b for j in range(10) if j % 3]\n"
    f"    y = {{k: v for k, v in d.items()}}\n"
    f"    return sum(x) + len(y) + {i}\n"
    f"class C{i}:\n"
    f"    z = {i}\n"
    f"    def m(self, q):\n"
    f"        return self.z + q if q else f{i}(q)\n"
    for i in range(30))

_TRIALS, _N, _STREAMS = 2000, 25, 8
REPEATS = 3


def host_ref() -> float:
    """Median wall time of REPEATS runs of the reference kernel, in seconds.

    The first run after an operation finds cold caches; the median keeps
    one slow run from setting the host's speed.
    """
    return sorted(_kernel() for _ in range(REPEATS))[REPEATS // 2]


def _kernel() -> float:
    t0 = perf_counter()
    compile(_SOURCE, "<host_ref>", "exec")
    gen = np.random.Generator(np.random.Philox(key=12345))
    x = gen.standard_normal((_TRIALS, _N))
    state = np.zeros(_TRIALS)
    for j in range(_N):
        col = 0.9 * x[:, j] + 0.1 * state
        state = col - 2.0 * np.round(col / 2.0)
        for k in range(_STREAMS):
            np.random.Generator(np.random.Philox(key=k))
    np.fft.fft(x[:, :16], axis=1)
    return perf_counter() - t0
