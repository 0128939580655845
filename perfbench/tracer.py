"""Spans around the calls into each skfading module, recorded from outside.

Each traced name is replaced where its caller looks it up (for example
``modulo_reduce`` in ``quasi_static`` and in ``two_path``, which import it
by name), so the program itself is unchanged. A call made while the
innermost open span belongs to a function of the same defining module is
not a call from outside that module and gets no span of its own; its time
stays with the caller (``mmse_coefficients2`` calling ``phase_factor``).

Spans live in flat typed arrays during the run and are written out once at
the end. Self time is a span's duration minus the durations of its direct
children; children never overlap because the program is single-threaded.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

ROOT = "op"

# (module where the caller looks the name up, attribute, metric group)
PATCHES = [
    ("skfading.cli", "cmd_simulate", "cli"),
    ("skfading.cli", "cmd_rate_sweep", "cli"),
    ("skfading.cli", "monte_carlo", "simulation.monte_carlo"),
    ("skfading.simulation", "Philox", "simulation.stream_setup"),
    ("skfading.simulation", "Generator", "simulation.stream_setup"),
    ("skfading.quasi_static", "tx_step1", "quasi_static.step"),
    ("skfading.quasi_static", "rx_update1", "quasi_static.step"),
    ("skfading.quasi_static", "rx_feedback1", "quasi_static.step"),
    ("skfading.quasi_static", "quantize_feedback", "quasi_static.step"),
    ("skfading.two_path", "quantize_feedback", "quasi_static.step"),
    ("skfading.quasi_static", "derive_params1", "quasi_static.derive"),
    ("skfading.quasi_static", "mmse_coefficients1", "quasi_static.derive"),
    ("skfading.quasi_static", "decode_midpoint", "quasi_static.decode_midpoint"),
    ("skfading.multi_path", "decode_midpoint", "quasi_static.decode_midpoint"),
    ("skfading.two_path", "tx_step2", "two_path.step"),
    ("skfading.two_path", "rx_aux2", "two_path.step"),
    ("skfading.two_path", "rx_feedback2", "two_path.step"),
    ("skfading.two_path", "phase_factor", "two_path.step"),
    ("skfading.two_path", "init_estimate", "two_path.step"),
    ("skfading.two_path", "derive_params2", "two_path.derive"),
    ("skfading.two_path", "mmse_coefficients2", "two_path.derive"),
    ("skfading.multi_path", "plan_block", "multi_path.plan_block"),
    ("skfading.multi_path", "variance_lemma3", "multi_path.variance"),
    ("skfading.multi_path", "mmse_gain_mp", "multi_path.variance"),
    ("skfading.quasi_static", "q_tail_inv", "numerics.q_tail_inv"),
    ("skfading.two_path", "q_tail_inv", "numerics.q_tail_inv"),
    ("skfading.multi_path", "q_tail_inv", "numerics.q_tail_inv"),
    ("skfading.multi_path", "water_fill", "numerics.water_fill"),
    ("skfading.quasi_static", "modulo_reduce", "numerics.modulo_reduce"),
    ("skfading.two_path", "modulo_reduce", "numerics.modulo_reduce"),
]

# A keyed stream is one Philox construction; the Generator wrapped around it
# adds to the group's time but not to its count.
UNCOUNTED = {"skfading.simulation.Generator"}

# group -> metric names (calls, self time) reported in the result
CALL_METRICS = {
    "numerics.q_tail_inv": "numerics.q_tail_inv.calls",
    "numerics.water_fill": "numerics.water_fill.calls",
    "numerics.modulo_reduce": "numerics.modulo_reduce.calls",
    "simulation.stream_setup": "simulation.stream_setup.count",
    "simulation.monte_carlo": "simulation.monte_carlo.calls",
    "quasi_static.step": "quasi_static.step.calls",
    "two_path.step": "two_path.step.calls",
    "multi_path.plan_block": "multi_path.plan_block.calls",
}
SELF_METRICS = {
    group: f"{group}.self_s" for group in (
        "numerics.q_tail_inv", "numerics.water_fill", "numerics.modulo_reduce",
        "simulation.stream_setup", "simulation.monte_carlo",
        "quasi_static.step", "quasi_static.derive", "quasi_static.decode_midpoint",
        "two_path.step", "two_path.derive",
        "multi_path.plan_block", "multi_path.variance", "cli",
    )
}
GROUPS = [ROOT] + sorted({group for _, _, group in PATCHES})


class Tracer:
    """Installs the wrappers around traced operations and keeps their spans."""

    def __init__(self):
        self.names = [ROOT]
        self.name_group = [0]
        self.counted = [False]
        self.op = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._op_id = -1
        self._saved = []
        for module, attr, group in PATCHES:
            qualified = f"{module}.{attr}"
            self.names.append(qualified)
            self.name_group.append(GROUPS.index(group))
            self.counted.append(qualified not in UNCOUNTED)

    def _open(self, name_id: int, home: str) -> int:
        idx = len(self.start)
        self.op.append(self._op_id)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append((idx, home))
        return idx

    def _wrap(self, fn, name_id: int):
        home = getattr(fn, "__module__", None)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            if stack[-1][1] == home:
                return fn(*args, **kwargs)
            idx = self._open(name_id, home)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced name in the currently imported skfading modules."""
        for name_id, (module, attr, _) in enumerate(PATCHES, start=1):
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name_id))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def operation(self, op_id: int, fn, *args):
        """Run fn(*args) as traced operation op_id under a root span."""
        self._op_id = op_id
        idx = self._open(0, ROOT)
        self.install()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self.uninstall()
            self._stack.pop()

    def arrays(self) -> dict:
        # copies, so the typed arrays are not locked against further appends
        return {
            "op": np.array(self.op, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def per_op(self, op_ids: list):
        """Per traced operation and group: (counted calls, self seconds, total seconds).

        Returns three arrays of shape (len(op_ids), len(GROUPS)).
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        row = np.searchsorted(np.asarray(op_ids), a["op"])
        group = np.asarray(self.name_group)[a["name"]]
        counted = np.asarray(self.counted)[a["name"]]
        shape = (len(op_ids), len(GROUPS))
        calls = np.zeros(shape)
        self_s = np.zeros(shape)
        np.add.at(calls, (row, group), counted)
        np.add.at(self_s, (row, group), self_time)
        total = np.zeros(len(op_ids))
        root = a["name"] == 0
        total[row[root]] = dur[root]
        return calls, self_s, total

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
