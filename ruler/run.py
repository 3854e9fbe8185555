#!/usr/bin/env python3
"""Builds the ruler from source and runs one workload in its own process.

Usage, from the root of a checkout:

    python3 ruler/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built with cargo into ``$CARGO_TARGET_DIR``
(``.bench_build`` when unset). Every ambient ``TIGRIS_*`` variable is
cleared before the workload process starts, so tracing, the flight
recorder's knobs, tail sampling and SLO settings are the library
defaults. Host facts are printed first; the workload's report follows,
and its last line is the JSON result.
"""

import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def output_of(cmd, cwd=None):
    """First line of a command's output, or a note why there is none."""
    try:
        done = subprocess.run(
            cmd, cwd=cwd, capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unavailable ({err.__class__.__name__})"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return "unavailable"
    return lines[0]


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("TIGRIS_")}
    cleared = sorted(k for k in os.environ if k.startswith("TIGRIS_"))
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target_dir

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
        check=False,
    )
    if build.returncode != 0:
        print(f"ruler: build failed with code {build.returncode}", file=sys.stderr)
        return 2

    repo = os.path.dirname(HERE)
    print(f"host: os={platform.system()} {platform.release()} cpu_count={os.cpu_count()}")
    print(f"host: rustc={output_of(['rustc', '-V'])}")
    print(f"host: commit={output_of(['git', 'rev-parse', 'HEAD'], cwd=repo)}")
    print(f"env: cleared TIGRIS_* = {cleared if cleared else '(none set)'}")
    sys.stdout.flush()

    binary = os.path.join(target_dir, "release", "ruler")
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        print(f"ruler: workload exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
