"""Record ``reference.json``: the outputs of the default seed's round of
every workload, keyed by input where the input does not depend on the seed.

    python3 bench/record_reference.py

Run it only when the expected outputs change on purpose; every recorded op
must first pass the oracles in ``workloads.py``.
"""

from __future__ import annotations

import json
import sys

import run as bench
import workloads as wl


def main() -> int:
    ref = wl.Reference()
    for workload in wl.WORKLOADS:
        td, ops, caches, _ = bench.setup(workload, wl.DEFAULT_SEED)
        runner = bench.Runner(td, caches, workload, wl.DEFAULT_SEED, wl.Reference())
        recorded = []
        for i, op in enumerate(ops):
            _, _, summary, err = runner.execute(op)
            problems = [err] if err else wl.oracle_problems(op, summary)
            if problems:
                print(f"{workload} op {i}: {problems}", file=sys.stderr)
                return 1
            if op.key is not None:
                ref.by_key[op.key] = summary
            recorded.append(None if op.key else summary)
        if any(recorded):
            ref.default_round[workload] = recorded
        print(f"{workload}: recorded", file=sys.stderr)
    text = json.dumps({"by_key": ref.by_key, "default_round": ref.default_round}, sort_keys=True, separators=(",", ":"))
    (bench.BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
