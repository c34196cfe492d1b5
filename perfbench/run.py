#!/usr/bin/env python3
"""Build the benchmark from the checkout it sits in and run one workload.

    python3 perfbench/run.py --workload table1 --seed 7 --seconds 10 --trace 0

Run it from the root of a checkout of the repository. It builds
perfbench/ (a Go module that uses the repository through a relative
replace directive) into .bench_build/, with the Go build cache, module
cache and configuration also kept under .bench_build/, so nothing is read
or written outside the checkout. Then it runs the binary with the given
arguments and exits with its exit code; the binary's last line of output
is the result. A checkout without the repository's sources fails to build,
and the script then exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    out = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=bench, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit(root)
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--out-dir", out] + sys.argv[1:], cwd=root, env=env).returncode


def commit(root):
    """The checkout's commit, or "unknown" when it is not a git work tree."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        res = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
