#!/usr/bin/env python3
"""Build the benchmark and `sp_served` from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Both binaries are built in release mode
into $CARGO_TARGET_DIR (default `.bench_build`): the benchmark from its own
manifest beside this file, `sp_served` from the repository's workspace.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The exit code is the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, manifest, *extra):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest, *extra],
        check=True,
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(target, os.path.join(HERE, "Cargo.toml"))
        build(target, os.path.join(ROOT, "Cargo.toml"), "-p", "sp_serve", "--bin", "sp_served")
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    served = os.path.join(release, "sp_served")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:], "--served", served]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
