"""Record the reference output digests the benchmark checks against.

Usage (from the repository root)::

    python3 e2ebench/record_reference.py [--seeds 0-15]

For every workload and for its default seed plus ``--seeds``, runs one
untraced child and stores the SHA-256 of its canonical-JSON result and
its simulated instruction count in ``e2ebench/reference.json``.  A run
whose invariant checks fail is not recorded.  Re-record only when a
change is meant to alter the simulator's outputs, and say so in the
change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, OUT, Run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-15")
    args = parser.parse_args()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    reference = {}
    work = OUT / f"record-{os.getpid()}"
    try:
        for workload in WORKLOADS.values():
            seeds = sorted({workload.default_seed,
                            *parse_seeds(args.seeds)})
            entries = reference.setdefault(workload.name, {})
            for seed in seeds:
                run = Run(workload, seed, work, env)
                out = run.child(trace=False)
                if not out["ok"] or out["errors"] or out["quarantined"]:
                    print(f"{workload.name} seed {seed}: not recorded: "
                          f"{out.get('error') or out['errors']}",
                          file=sys.stderr)
                    return 1
                entries[str(seed)] = {"digest": out["digest"],
                                      "instructions": out["instructions"]}
                print(f"{workload.name} seed {seed}: {out['digest'][:16]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
