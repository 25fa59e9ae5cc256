#!/usr/bin/env python3
"""Build and run the looplet benchmark from the root of a checkout.

    python3 loopbench/run.py --workload <paper-figures|serve-zipf|serve-cold> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `loopbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build` at the checkout root), then runs it with the given
arguments from the checkout root.  Build output goes to standard error; the
benchmark's standard output, whose last line is the JSON result, passes
through unchanged.  Exits non-zero, printing no result, when the
repository's sources are missing or the build or the run fails.
"""

import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "loopbench"


def run(cmd, env, stdout):
    """Run `cmd` to completion; stop it if this script is interrupted."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("loopbench: the repository's crates are not in this checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH / "Cargo.toml"),
    ]
    code = run(build, env, sys.stderr)
    if code != 0:
        print(f"loopbench: build failed ({code})", file=sys.stderr)
        return code or 1
    return run([str(target / "release" / "loopbench"), *sys.argv[1:]], env, None)


if __name__ == "__main__":
    sys.exit(main())
