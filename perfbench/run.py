#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-read --seed 1 --seconds 20 --trace 0

The wrapper compiles perfbench (a Go module of its own that imports the
repository's packages through a replace directive) into .bench_build/,
with the Go build cache, temporary files and write-ahead logs kept there
too, then runs it with the given arguments. Its standard output is the
benchmark's: human-readable lines, then one JSON result as the last line.
A failed build or run exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # The go command keeps its telemetry counters under the user
        # config directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, "-workdir", BUILD] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
