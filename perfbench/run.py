#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload preview --seed 1 --seconds 10 --trace 0

The harness is a Go module of its own (perfbench/go.mod) that builds
against the repository one directory up. Every build product and cache
goes under .bench_build/ in the current directory. The arguments are
passed to the harness unchanged; it validates them. Build output goes to
standard error, so the last line of standard output is the harness's JSON
result. The exit code is the harness's, or 1 when the build fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly -buildvcs=false",
        GOWORK="off",
        CGO_ENABLED="0",
        # Keep the toolchain's config, telemetry and temporary files
        # inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        XDG_CACHE_HOME=os.path.join(out, "cache"),
        TMPDIR=os.path.join(out, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    try:
        build = subprocess.run(
            ["go", "build", "-o", tmp, "."],
            cwd=src, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(tmp, binary)
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
