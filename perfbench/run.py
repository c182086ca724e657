#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of storm, stream-storm, ingest-wire (see
perfbench/README.md). The first call in a checkout configures and
builds perfbench/ (and the repository sources it compiles) in
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. The benchmark's last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full result
record (host fingerprint, every metric, failed checks) and the stderr of
the run are written under .bench_out/.

Extra arguments (--break CHECK, --expect-fingerprint HEX) are passed to
the benchmark binary; the benchmark's own tests use them.

Exit status: 0 when every correctness check passed, 1 when one failed or
the run did not finish, 2 when the benchmark could not be built.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ["storm", "stream-storm", "ingest-wire"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/ is missing)", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail), 2)
    return os.path.join(out, "perfbench")


def commit_id():
    """The git commit when available, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
        out = r.stdout.split()
        if (r.returncode == 0 and len(out) == 2 and
                os.path.realpath(out[0]) == os.path.realpath(ROOT)):
            return out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def launcher():
    """Run with address-space randomization off when the host allows:
    code and data placement then repeat from run to run, which removes
    a large source of run-to-run spread (see README.md). The benchmark
    records in its host fingerprint whether randomization was off."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    cmd = [setarch, platform.machine(), "-R"]
    try:
        ok = subprocess.run(cmd + ["true"], capture_output=True,
                            timeout=10).returncode == 0
    except (OSError, subprocess.SubprocessError):
        ok = False
    return cmd if ok else []


def run_one(binary, workload, args, extra, commit):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = launcher() + [binary, "--workload", workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--out-dir", out_dir, "--commit", commit] + extra
    err_path = os.path.join(out_dir, "stderr-%s-s%d-t%d.log" %
                            (workload, args.seed, args.trace))
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: %s did not finish in %d s" %
                  (workload, RUN_TIMEOUT_S), file=sys.stderr)
            return 1, None, ""
    if proc.returncode < 0:
        with open(err_path) as f:
            sys.stderr.write(f.read()[-4000:])
        print("perfbench: %s died with signal %d" %
              (workload, -proc.returncode), file=sys.stderr)
        return 1, None, stdout
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, stdout


def main():
    p = argparse.ArgumentParser(
        description="Build and run the repository benchmark.")
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = p.parse_known_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    binary = build()
    commit = commit_id()
    if args.workload != "all":
        rc, _, stdout = run_one(binary, args.workload, args, extra, commit)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        sys.exit(rc)

    # All workloads: every figure, then one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        rc, result, stdout = run_one(binary, w, args, extra, commit)
        for line in stdout.strip().splitlines()[:-1]:
            print(line)
        worst = max(worst, rc)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + "." + name] = m
            print("%-16s %-28s %16.6g %s" % (w, name, m["value"], m["unit"]))
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
