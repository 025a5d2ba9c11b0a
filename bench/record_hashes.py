"""Record the SHA-256 of every artifact the grid workloads write.

    python3 bench/record_hashes.py

Runs each seedless grid workload's chain once, at full size and, where
it differs, at smoke-test size, through the CLI of this checkout and
writes expected_hashes.json.
The benchmark then requires byte-identical artifacts from every later
version of the program, so run this only on a commit whose artifacts
are the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    env = run.child_env()
    recorded = {}
    for name in workloads.GRID_PITCH_MM:
        for small in (False, True):
            if small and name not in workloads.SMALL_GRID_PITCH_MM:
                continue
            work = run.BENCH_DIR / "_work" / f"record-{name}-{int(small)}"
            try:
                info = workloads.prepare(name, work, 0, small, env)
                info["hashes"] = None
                rep = run.run_chain_cli(workloads.commands(info), work, env)
                if rep["problems"]:
                    print("\n".join(rep["problems"]), file=sys.stderr)
                    return 1
                recorded[workloads.hash_key(name, small)] = {
                    artifact: workloads.sha256(work / artifact)
                    for artifact in workloads.HASHED_ARTIFACTS
                }
            finally:
                shutil.rmtree(work, ignore_errors=True)
    workloads.HASHES_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.HASHES_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
