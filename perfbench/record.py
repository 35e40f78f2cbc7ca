"""Record the reference numbers the benchmark checks outputs against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py

Runs every instance a seed can select, at the full sizes, and writes
perfbench/reference.json. The table in the repository was recorded at the
commit that introduced the benchmark; re-record only when a change to the
outputs is intended, and say so with the measured result_dev.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import tempfile

from workload import CORPUS, INSTANCES, REFERENCE_PATH, SIZES, WORKLOADS, make_ops


def _jsonable(values):
    return [None if math.isnan(v) else v for v in values]


def main() -> int:
    cli = importlib.import_module("dpdopt.cli").cli
    table = {"sizes": SIZES["full"]}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            entries = {}
            for k in range(CORPUS if workload == "audit" else INSTANCES):
                op = make_ops(workload, k, "full", workdir)[0]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = cli(op.argv)
                outcome = op.check(out.getvalue())
                if status != 0 or outcome.problems:
                    print(f"{workload} {op.key}: exit {status}, {outcome.problems}",
                          file=sys.stderr)
                    return 1
                entries[op.key] = {
                    "digest": outcome.digest,
                    "flags": outcome.flags,
                    "numbers": {name: _jsonable(v) for name, v in outcome.numbers.items()},
                }
                print(workload, op.key, flush=True)
            table[workload] = entries
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, separators=(",", ":"), allow_nan=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
