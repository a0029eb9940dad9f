#!/usr/bin/env python3
"""Build fabricpower's study-level benchmark from source and run it.

    python3 perfbench/run.py --workload fabric-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py collect -out DIR -workloads fabric-sweep -seeds 1,2,3
    python3 perfbench/run.py compare DIR_A [DIR_B]

Every argument is handed to the Go program in this directory (see
README.md). The build, its Go cache and the traces go under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench at the
repository root when that variable is unset.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    out = os.path.join(os.path.abspath(os.path.join(root, target)), "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed (run from a full checkout of the repository)", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
