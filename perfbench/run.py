#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

The Go benchmark program (this directory's module) and the program's own
diode-worker are built into .bench_build/ with a build cache kept there too,
so nothing outside the checkout is read or written. All arguments are passed
through to the benchmark program, whose last output line is the result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOMODCACHE": os.path.join(OUT, "gomodcache"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "HOME": os.path.join(OUT, "home"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    bin_dir = os.path.join(OUT, "bin")
    for target, name in ((".", "perfbench"), ("diode/cmd/diode-worker", "diode-worker")):
        cmd = ["go", "build", "-o", os.path.join(bin_dir, name), target]
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bin_dir, "perfbench")


def main():
    binary = build()
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
