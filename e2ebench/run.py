#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs it pinned to one CPU.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload <pl0_recognize|pl0_edit|python_forest>
                            --seed <n> --seconds <n> --trace <0|1>

The benchmark is a closed loop: one client thread waits on a one-worker
ParseService, so pinning the process to one CPU costs it no parallelism and
keeps the client and the service's per-request worker thread on one core.
On the shared 2-vCPU reference host, pinned pl0_recognize runs were both
faster and steadier than unpinned ones (360k-393k against 257k-319k
tokens/s, alternating). The build uses every CPU; the target directory is
CARGO_TARGET_DIR when set.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "e2ebench")
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
