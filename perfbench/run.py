#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <stabilize|serve|churn-wan> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own cargo
workspace, depending on the repository's crates by path) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, then runs it
with the given arguments. The benchmark prints one JSON object as its last
line; with `--trace 0` this script adds `peak_rss_mb`, the child's peak
resident set size, which only the parent can observe. Any build or run
failure exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"run.py: build failed with code {build.returncode}")

    exe = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    # wait4 reaps the child with its own resource usage (not that of cargo
    # or rustc, which getrusage(RUSAGE_CHILDREN) would mix in).
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"run.py: benchmark exited with code {proc.returncode}")

    lines = out.strip().splitlines()
    if not lines:
        sys.exit("run.py: benchmark printed no result")
    result = json.loads(lines[-1])
    if "--trace" not in sys.argv or sys.argv[sys.argv.index("--trace") + 1] == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
