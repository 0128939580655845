"""Record the output digests of the first operations of each workload at the
default seed into perfbench/reference.json.

    python3 perfbench/record.py

Reports are byte-identical for a fixed (config, trials, seed), so a later
change that alters any output at the default seed fails the benchmark's
check. Re-record only when a change alters outputs on purpose, and say so.
"""

import json
import sys

import run
from workloads import digest, workloads

# operations recorded per workload: several times what one run completes
COUNTS = {"sim_qs_many_small": 800, "sim_tp_large": 20, "sim_mp_block": 80, "rate_sweep": 80}


def main() -> int:
    catalog = workloads()
    sys.path.insert(0, str(run.SRC))
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    run.OUT.mkdir(exist_ok=True)
    for name in sorted(catalog):
        workload = catalog[name]
        workload.prepare(run.OUT)
        main_fn = run.fresh_cli().main
        digests = []
        for index in range(COUNTS[name]):
            code, out, err = run.call(main_fn, workload.op_argv(reference["default_seed"], index))
            if code != 0:
                raise RuntimeError(f"{name} operation {index} exited {code}: {err}")
            workload.check(out, err)
            digests.append(digest(out))
        ok, pooled = workload.pooled_check()
        if not ok:
            raise RuntimeError(f"{name}: {pooled}")
        reference["digests"][name] = digests
        print(f"{name}: {len(digests)} digests, {pooled}")
    path.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
