"""Rewrite golden.json: the output digest of every pooled op at the golden seed.

Usage: python3 perfbench/record_golden.py

Runs one pass over each workload's pool at workloads.GOLDEN_SEED, applies
every op's independent checks, and stores the digests.  Re-record only for
a change that is meant to alter arclift's printed output.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("ARCLIFT_NWORK", None)

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for name, wl in workloads.WORKLOADS.items():
        plan = wl.setup(workloads.GOLDEN_SEED)
        table = digests[name] = {}
        try:
            for ops in plan.entries:
                for op in ops:
                    table[f"{op.key}#{op.entry}"] = workloads.digest(op.check(op.run()))
        finally:
            plan.close()
        print(f"{name}: {len(table)} digests", flush=True)
    doc = {"seed": workloads.GOLDEN_SEED, "digests": digests}
    (HERE / "golden.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
