#!/usr/bin/env python3
"""Builds and runs the qif pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test
    python3 perfbench/run.py --record-references NAME --seeds A-B

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later calls only re-check the build.  A run prints the
benchmark's lines and, as its last line, one JSON result; a copy of that
result with its provenance goes to <build>/results/.  --test builds and
runs the benchmark's own tests.  Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
REFERENCES = os.path.join(BENCH_DIR, "references.tsv")
WORKLOADS = ("io500-pipeline", "bigcluster-write", "ctrl-faults")
RUN_TIMEOUT_S = 170
JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src", "qif")):
        fail("no qif sources under src/qif in this checkout")
    out = build_dir()
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", JOBS, "--target", target],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only benchmark lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out


def commit_id():
    """The git commit when there is one, else a hash of the benchmarked sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run(cmd, timeout, cwd=None):
    """Runs cmd, echoing its stdout; kills it after `timeout` seconds.

    Returns (exit code, stdout lines); the child has ended on return."""
    lines = []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd) as proc:
        timer = threading.Timer(timeout, proc.kill) if timeout else None
        if timer:
            timer.start()
        try:
            for line in proc.stdout:
                sys.stdout.write(line)
                lines.append(line.rstrip("\n"))
            proc.wait()
        finally:
            if timer:
                timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    ap.add_argument("--record-references", metavar="NAME", choices=WORKLOADS)
    ap.add_argument("--seeds", default="1-1", help="seed range for --record-references")
    args = ap.parse_args()

    if args.test:
        out = build("perfbench_tests")
        work = os.path.join(out, "test-work")
        os.makedirs(work, exist_ok=True)
        code = subprocess.run([os.path.join(out, "perfbench_tests")], cwd=work).returncode
        sys.exit(code)

    out = build("perfbench")
    binary = os.path.join(out, "perfbench")
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    if args.record_references:
        code, _ = run([binary, "--record-references", args.record_references,
                       "--seeds", args.seeds], None, cwd=work)
        sys.exit(code)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    code, lines = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--work-dir", work, "--references", REFERENCES,
                       "--commit", commit_id()], RUN_TIMEOUT_S)
    if code != 0 or not lines:
        fail(f"benchmark exited with {code}")
    provenance = next((json.loads(l.split(":", 1)[1]) for l in lines
                       if l.startswith("provenance:")), {})
    result = json.loads(lines[-1])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
