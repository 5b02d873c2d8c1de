#!/usr/bin/env python3
"""Build and run the CBES benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evaluate-hot --seed 1 --seconds 25 --trace 0

Builds cbesd and the perfbench program from source into .bench_build/
(the Go build cache lives there too, so nothing outside the checkout is
written), then runs it. The program's last stdout line is the
JSON result; its exit code is passed through.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOMAXPROCS="2",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bindir = os.path.join(BUILD, "bin")
    for target, out in (("cbes/cmd/cbesd", "cbesd"), (".", "perfbench")):
        cmd = ["go", "build", "-o", os.path.join(bindir, out), target]
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build of %s failed" % target)
    return bindir


def main():
    env = go_env()
    bindir = build(env)
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [os.path.join(bindir, "perfbench"), "--cbesd", os.path.join(bindir, "cbesd"),
           "--workdir", workdir, "--tracedir", os.path.join(BUILD, "traces")] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, env=env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
