#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the root of a source checkout.

    python3 bench/host/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/host/run.py --selftest

Builds bench/host/hostbench.exe with dune (no shared cache, so nothing is
written outside the checkout), then replaces itself with the benchmark,
passing the recorded digests in bench/host/digests.txt.  Exits non-zero
without a result when the checkout does not hold the simulator's sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXE = os.path.join(ROOT, "_build", "default", "bench", "host", "hostbench.exe")


def main():
    for need in ("dune-project", "lib", os.path.join("bench", "host", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write("hostbench: %s is missing under %s; run from a source checkout\n"
                             % (need, ROOT))
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./bench/host/hostbench.exe"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("hostbench: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    args = [EXE, "--digests", os.path.join(HERE, "digests.txt")] + sys.argv[1:]
    os.execv(EXE, args)


if __name__ == "__main__":
    sys.exit(main())
