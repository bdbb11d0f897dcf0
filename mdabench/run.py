#!/usr/bin/env python3
"""Build and run the MDABT benchmark (see README.md).

    python3 mdabench/run.py --workload paper_matrix --seed 1 --seconds 20 --trace 0
    python3 mdabench/run.py --selftest

Run from the root of a checkout of the repository.  The first run
configures and builds mdabench/ (which links the libraries under src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
rebuild only what changed.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("mdabench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    """$CARGO_TARGET_DIR as given (relative to the checkout root), else
    .bench_build."""
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.normpath(os.path.join(ROOT, d))


def source_id():
    """The git commit when the checkout is a git repository, else a digest
    of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0:
                return sha.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "mdabench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(out):
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "mdabench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "mdabench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        fail("--workload, --seed and --seconds are required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside mdabench/: run from a checkout of the repository")

    out = build_dir()
    exe = build(out)
    cmd = [exe, "--out", os.path.join(out, "out")]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--git-sha", source_id()]
    sys.stdout.flush()
    # A safety net only: a run ends on its own after --seconds plus the
    # pass in flight and set-up.
    limit = 600 if args.selftest else 3 * args.seconds + 120
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=limit).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % limit)


if __name__ == "__main__":
    sys.exit(main())
