#!/usr/bin/env python3
"""Build parlistd and the perfbench driver from this checkout, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve_uniform --seed 1 --seconds 15 --trace 0

Workloads: serve_uniform, serve_mixed, bulk_large. --trace 0 prints the
end-to-end metrics, --trace 1 makes the traced run that prints the
per-layer metrics. The last line of standard output is the result object.

Everything the build and the run write goes under the build directory:
$CARGO_TARGET_DIR when it is set, .bench_build otherwise (relative to the
repository root). The Go build cache lives there too, so the first run in
a fresh checkout compiles from source.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_uniform", "serve_mixed", "bulk_large")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "gotmp", "gopath", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    daemon = os.path.join(build, "parlistd")
    driver = os.path.join(build, "perfbench")
    for cwd, out, pkg in ((root, daemon, "./cmd/parlistd"), (bench_dir, driver, ".")):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            print(f"perfbench: building {pkg} failed", file=sys.stderr)
            return 1

    cmd = [driver, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-parlistd", daemon, "-out", build]
    # Own process group, so a timeout can stop the driver and anything it
    # started.
    p = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
