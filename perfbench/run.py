#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload profile --seed 1 --seconds 20 --trace 0

The Go module in perfbench/ is built into .bench_build/ with every Go cache
and temporary directory inside .bench_build/, then run with the same
arguments. Its last line of standard output is the result JSON. Build
output goes to standard error; a failed build exits non-zero without
printing a result.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        # Go's telemetry and settings files live under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    # The run's set-up time is counted from this moment: the benchmark
    # process starts here, after the build.
    env["PERFBENCH_T0_NS"] = str(time.time_ns())
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
