"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py

Runs one pass of every workload for seeds 0-31 at the full size and 0-3 at
the smoke-check size, and writes perfbench/references.json: the
sha256 of every file `forkrate_export` writes, the trace digest of
`relay_fanout`, and the 40 race estimates of `race_grid`.  Record at the
commit whose outputs are the reference; a later commit must reproduce them
byte for byte.  Seeds without a reference fall back to structural checks.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

FULL_SEEDS = 32
TINY_SEEDS = 4


def main() -> int:
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip() or None
    refs = {"recorded_at": sha, "sizes": workloads.SIZES, "workloads": {}}
    for size, count in (("tiny", TINY_SEEDS), ("full", FULL_SEEDS)):
        for name, cls in workloads.WORKLOADS.items():
            table = refs["workloads"].setdefault(name, {}).setdefault(size, {})
            for seed in range(count):
                work = cls(seed, size)
                try:
                    p = work.run_pass(first=False)
                finally:
                    work.close()
                if not all(p.ok):
                    print(f"warning: {name} {size} seed {seed} fails its structural check",
                          file=sys.stderr)
                table[str(seed)] = p.outputs
                print(f"{name} {size} seed {seed}: {p.seconds:.2f} s", flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
