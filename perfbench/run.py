#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compute --seed 1 --seconds 20 --trace 0

Arguments are passed through to perfbench.exe (see perfbench/README.md).
The last line of stdout is the JSON result; the exit code is the
benchmark's (non-zero on a failed build or a failed output check).
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    # dune's shared cache lives outside the checkout; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=800,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
