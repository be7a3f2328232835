#!/usr/bin/env python3
"""Build platoonsec's benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tableIII-matrix --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark (see perfbench/README.md).
The Go build cache, module cache and binary live in .bench_build/ and
the run's outputs (Chrome traces, the platoond spill directory) in
.bench_out/, both under the checkout root, so nothing is read or written
outside it. The result is the last line of standard output; a failed
build or run exits non-zero without one.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run the go toolchain: %s" % e, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--out", os.path.join(root, ".bench_out")] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
