"""Run the benchmark on several seeds and report each metric's median and
quartile spread, as a share of the median, against the bound in BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--write-baseline]

Every workload in BENCHMARK.json runs for its run_seconds, one process at a
time, on seeds 1..runs. With
--write-baseline the medians and quartiles are stored under "baseline" in
perfbench/reference.json together with a description of the machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return result


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline, started = {}, time.perf_counter()
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(1, args.runs + 1):
            for name, metric in run_once(workload, seed, spec["run_seconds"])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        baseline[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bounds[name] / 3 else "over a third of bound"
            print(f"{workload:<18} {name:<12} median {med:<12.6g} spread {spread:7.2%} "
                  f"bound {bounds[name]:.2f} ({verdict})")
            baseline[workload][name] = {"median": med, "q1": q1, "q3": q3}
        sys.stdout.flush()
    per_run = (time.perf_counter() - started) / (args.runs * len(spec["workloads"]))
    runs = 4 + 22 * len(spec["workloads"])
    print(f"{per_run:.1f} s per run: {runs} runs take about {runs * per_run:.0f} s")
    if args.write_baseline:
        path = HERE / "reference.json"
        reference = json.loads(path.read_text())
        reference["machine"] = machine()
        reference["baseline"] = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": baseline}
        path.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
