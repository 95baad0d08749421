#!/usr/bin/env python3
"""Build the benchmark package from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 45 --trace 0

Every argument is passed to the `perfbench` binary. Build output goes to
`$CARGO_TARGET_DIR` (default `.bench_build` in the current directory), so
the only line on standard output that is JSON is the benchmark's last.

An untraced run (`--trace 0`, the one whose metrics are compared between
versions) is pinned to the first CPU the process may use: on a 2-vCPU KVM
guest, thread wakeups across vCPUs made p90 swing by 2x between identical
runs, and on one CPU the spread fell to a few percent (see NOTES.md). A
traced run is left on every CPU, so its engine probe and its daemons'
default worker count see the host's cores.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["CARGO_NET_OFFLINE"] = "true"
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    cpu = min(os.sched_getaffinity(0))
    pin = None if traced else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.run([binary] + args, env=env, preexec_fn=pin).returncode


if __name__ == "__main__":
    sys.exit(main())
