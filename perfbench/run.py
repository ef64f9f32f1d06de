#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload golden-exact --seed 0 --seconds 30 --trace 0

The Go build cache, the binary and the loopback worker's journals all live
under .bench_build/ in the checkout (or $CARGO_TARGET_DIR when set). The
last line on stdout is the benchmark's JSON result; the exit code is the
benchmark's (0 only when every pass reproduced its reference digest). A
failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    # Keep the toolchain offline, on the installed Go, and writing only
    # under the build directory.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        TMPDIR=work,
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-root", ROOT, "-workdir", work] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
