#!/usr/bin/env python3
"""Build the MRCP-RM benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fb-paper --seed 1 --seconds 25 --trace 0

The benchmark is built with dune into .bench_build/ (release profile, no
shared dune cache), then perfbench/bench.exe runs with the same arguments.
Its standard output is passed through; the last line is the result object.
With --trace 1, span traces and the layer report go to .bench_build/perfbench/.
The exit code is non-zero when the build fails or a correctness check fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    root = os.getcwd()
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune is not on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", root, "--build-dir",
         os.path.join(root, BUILD_DIR), "--profile", "release",
         "perfbench/bench.exe"],
        stdout=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env, timeout=900).returncode


if __name__ == "__main__":
    sys.exit(main())
