#!/usr/bin/env python3
"""Build the adeptd benchmark from source and run it once.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-hits --seed 1 --seconds 30 --trace 0

Every argument is passed to the benchmark binary (see main.go). The Go
build cache, the binary and the traced run's span files all stay under
.bench_build/ in the checkout. The last line printed is the result JSON.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(out):
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: %s is not an adept checkout (no go.mod)" % ROOT)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        # The module has no third-party requirement: never fetch anything,
        # never switch toolchains, ignore any user go.env or workspace.
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
        XDG_CONFIG_HOME=os.path.join(out, "config"),
    )
    exe = os.path.join(out, "adeptbench")
    proc = subprocess.run([go, "build", "-o", exe, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return exe


def main():
    out = os.path.join(ROOT, ".bench_build")
    os.makedirs(out, exist_ok=True)
    exe = build(out)
    sys.stdout.flush()
    os.execv(exe, [exe, "-out", out] + sys.argv[1:])


if __name__ == "__main__":
    main()
