"""Benchmark of skfading's two jobs, ``simulate`` and ``rate-sweep``.

Run from the repository root:

    python3 perfbench/run.py --workload sim_qs_many_small --seed 1 --seconds 20 --trace 0

One single-threaded client calls ``skfading.cli.main`` in-process in a
closed loop: the next operation starts when the previous one returns, for
``--seconds`` seconds. Every operation's output is checked (see
workloads.py); at the default seed each output must also match the digest
recorded in reference.json.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, with
tracing off. Their times are taken at the recorded host speed: each set-up
and operation is divided by a reference kernel timed next to it (see
hostref.py). --trace 1 alternates an untraced and a traced operation,
prints the per-layer table, writes the spans to perfbench/out/ and reports
the per-layer metrics (medians over traced operations) and the tracing
overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

# one process, one thread: set before numpy loads its BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from hostref import host_ref  # noqa: E402
from tracer import CALL_METRICS, GROUPS, SELF_METRICS, Tracer  # noqa: E402
from workloads import CheckError, Simulate, digest, workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_cli():
    """Import skfading from scratch (numpy stays loaded) and return its cli.

    The import compiles skfading from source whether or not the tree holds
    bytecode: no .pyc is looked for in __pycache__ (run.py also writes none).
    """
    for name in [m for m in sys.modules if m == "skfading" or m.startswith("skfading.")]:
        del sys.modules[name]
    saved, sys.pycache_prefix = sys.pycache_prefix, str(OUT / "no_pycache")
    try:
        importlib.import_module("skfading")
        return importlib.import_module("skfading.cli")
    finally:
        sys.pycache_prefix = saved


def call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class Client:
    """Sends operations of one workload and checks each output."""

    def __init__(self, workload, seed: int, digests: list):
        self.workload = workload
        self.seed = seed
        self.digests = digests
        self.main = None
        self.attempted = 0
        self.failures = []
        self.work = 0
        self.digests_checked = 0

    def setup(self, index: int) -> float:
        """Import skfading, parse a config and derive the scenario once."""
        argv = self.workload.setup_argv(self.seed, index)
        t0 = perf_counter()
        cli = fresh_cli()
        code, _, err = call(cli.main, argv)
        elapsed = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up operation exited {code}: {err.strip()}")
        self.main = cli.main
        return elapsed

    def op(self, index: int, tracer=None):
        """Run operation ``index``; return (latency in s, work done, 0 if failed)."""
        argv = self.workload.op_argv(self.seed, index)
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                code, out, err = call(self.main, argv)
            else:
                code, out, err = tracer.operation(index, call, self.main, argv)
        except (Exception, SystemExit) as exc:  # an operation that raises fails
            self.failures.append((index, f"raised {exc!r}"))
            return perf_counter() - t0, 0
        latency = perf_counter() - t0
        try:
            if code != 0:
                raise CheckError(f"exit code {code}: {err.strip()[:200]}")
            work = self.workload.check(out, err)
            if index < len(self.digests):
                self.digests_checked += 1
                if digest(out) != self.digests[index]:
                    raise CheckError("output differs from the recorded digest")
        except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures.append((index, str(exc)))
            return latency, 0
        self.work += work
        return latency, work

    def verdict(self):
        """(correct, failed, lines describing the checks)."""
        pooled_ok, pooled = self.workload.pooled_check()
        # a pooled failure cannot be pinned on one operation: all of them fail
        failed = len(self.failures) if pooled_ok else self.attempted
        lines = [f"check: {pooled} ({'ok' if pooled_ok else 'FAILED'})",
                 f"check: {self.digests_checked} outputs matched recorded digests",
                 f"failed_ops_frac = {failed / self.attempted:.6g} "
                 f"({failed} of {self.attempted} operations)"]
        lines += [f"  op {i} failed: {why}" for i, why in self.failures[:10]]
        return failed == 0, failed, lines


def tail_latency(latencies):
    """Highest percentile with at least ten operations beyond it, or None."""
    ranked = sorted(latencies)
    if len(ranked) < 11:
        return None
    k = len(ranked) - 11
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def normalised(durations, refs):
    """Each duration over the mean of the reference-kernel times taken just
    before and just after it (``refs`` has one more entry than ``durations``)."""
    return [d / (0.5 * (refs[i] + refs[i + 1])) for i, d in enumerate(durations)]


def measure(client, seconds: float, spec: dict, host_ref_s: float, lines: list) -> dict:
    """End-to-end metrics, tracing off.

    Every set-up and operation is timed next to the host reference kernel
    (hostref.py); the gated times are medians of duration / reference time,
    scaled back to seconds by ``host_ref_s``, the kernel's median time on the
    machine that recorded the baseline.
    """
    setups, setup_refs = [], [host_ref()]
    for i in range(SETUP_REPEATS):
        setups.append(client.setup(i))
        setup_refs.append(host_ref())
    latencies, refs = [], [host_ref()]
    start = perf_counter()
    index = 0
    while True:
        latencies.append(client.op(index)[0])
        refs.append(host_ref())
        index += 1
        if perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    op_cost = statistics.median(normalised(latencies, refs))
    values = {
        "work_per_s": client.work / len(latencies) / (op_cost * host_ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(normalised(setups, setup_refs)) * host_ref_s,
    }
    w = client.workload
    lines.append(f"host reference kernel: median {statistics.median(refs):.6g} s over "
                 f"{len(refs)} samples, recorded {host_ref_s:.6g} s")
    lines.append(f"{w.rate_name} = {values['work_per_s']:.6g} {w.unit} at the recorded host speed; "
                 f"{client.work / sum(latencies):.6g} {w.unit} of raw operation time "
                 f"({client.work} in {sum(latencies):.3f} s of {wall:.3f} s, "
                 f"{len(latencies)} operations)")
    lines.append(f"op_p50_s = {statistics.median(latencies):.6g} s")
    tail = tail_latency(latencies)
    if tail is None:
        lines.append(f"op_tail_s: fewer than 11 operations ({len(latencies)}), no tail percentile")
    else:
        lines.append(f"op_tail_s = {tail[0]:.6g} s (p{tail[1]:.1f} of {len(latencies)} operations)")
    lines.append("setup_s raw runs: " + " ".join(f"{s:.4f}" for s in setups))
    return {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def measure_traced(client, seconds: float, spec: dict, lines: list) -> dict:
    """Per-layer metrics from traced operations, each paired with an untraced one."""
    client.setup(0)
    tracer = Tracer()
    traced, work, plain_s, traced_s = [], [], 0.0, 0.0
    start = perf_counter()
    index = 0
    while True:
        plain_s += client.op(index)[0]
        latency, done = client.op(index + 1, tracer)
        traced_s += latency
        traced.append(index + 1)
        work.append(done)
        index += 2
        if perf_counter() - start >= seconds:
            break
    calls, self_s, total = tracer.per_op(traced)
    spans_path = OUT / f"spans_{client.workload.name}.npz"
    tracer.save(spans_path)

    ok = np.asarray(work) > 0  # failed operations did not run to the end
    med = lambda col: float(np.median(col[ok])) if ok.any() else 0.0  # noqa: E731
    values = {"trace.overhead_frac": (traced_s - plain_s) / plain_s}
    for group, name in CALL_METRICS.items():
        values[name] = med(calls[:, GROUPS.index(group)])
    for group, name in SELF_METRICS.items():
        values[name] = med(self_s[:, GROUPS.index(group)])
    streams = calls[ok, GROUPS.index("simulation.stream_setup")].sum()
    trials = sum(np.asarray(work)[ok]) if isinstance(client.workload, Simulate) else 0
    values["simulation.stream_setup.per_trial"] = float(streams / trials) if trials else 0.0

    share = self_s[ok].sum(axis=0) / max(total[ok].sum(), 1e-300)
    lines.append(f"per-layer table, {client.workload.name}: medians over "
                 f"{int(ok.sum())} traced operations")
    lines.append(f"  {'layer':<32}{'calls/op':>12}{'self s/op':>14}{'share':>9}")
    for g, group in enumerate(GROUPS):
        label = group if group != "op" else "op (argparse, harness)"
        lines.append(f"  {label:<32}{med(calls[:, g]):>12.6g}{med(self_s[:, g]):>14.6g}"
                     f"{share[g]:>9.2%}")
    lines.append(f"trace.overhead_frac = {values['trace.overhead_frac']:.4f} "
                 f"(traced {traced_s:.3f} s vs untraced {plain_s:.3f} s over "
                 f"{len(traced)} operation pairs)")
    lines.append("note: the scheme-3 FFT path, the keyed draws, chunk merge and "
                 "aggregation run inline in skfading.simulation, so their time lands "
                 "in simulation.monte_carlo.self_s until spans exist inside the program")
    lines.append(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.start)} spans)")
    return {m["name"]: values[m["name"]] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    catalog = workloads()
    parser.add_argument("--workload", required=True, choices=sorted(catalog))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skfading" / "__init__.py").is_file():
        print(f"error: no skfading sources under {SRC}", file=sys.stderr)
        return 2
    # nor is any .pyc of skfading written (see fresh_cli)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    spec = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(HERE / "reference.json")
    digests = reference["digests"].get(args.workload, []) \
        if args.seed == reference["default_seed"] else []

    workload = catalog[args.workload]
    OUT.mkdir(exist_ok=True)
    workload.prepare(OUT)
    client = Client(workload, args.seed, digests)
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
             "threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)]
    if args.trace:
        values = measure_traced(client, args.seconds, spec, lines)
    else:
        values = measure(client, args.seconds, spec, reference["host_ref_s"], lines)
    if not Path(sys.modules["skfading"].__file__).resolve().is_relative_to(SRC):
        print("error: skfading was not imported from this checkout", file=sys.stderr)
        return 2
    correct, failed, check_lines = client.verdict()
    lines += check_lines
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": client.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
