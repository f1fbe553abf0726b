#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload offline_paper --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark driver from source (an optimised
build under .bench_build/perfbench), runs the harness self-tests, runs one
workload (scratch files under .perfbench_work), and prints a provenance line followed, as the last line of
standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 when every correctness check passed, 1 when one failed
or the run could not complete, 2 on a usage error. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("offline_paper", "sched_fig78", "serve_mixed")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".perfbench_work"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver, the self-tests and mphpc."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                      "perfbench_driver", "perfbench_selftest", "mphpc_cli"])
        for step in steps:
            result = subprocess.run(step, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True)
            if result.returncode != 0:
                sys.stderr.write(result.stdout[-8000:])
                log("build failed")
                return False
    return True


def source_digest():
    """sha256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD when the checkout is itself a git work tree, else None."""
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_driver(args):
    """Runs the workload in its own process group; returns (exit code,
    stdout lines), killing the whole group on timeout."""
    command = [str(BUILD / "perfbench_driver"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--mphpc", str(BUILD / "tools" / "mphpc")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            log(f"{needed} is missing: run from a full source checkout")
            return 1
    if not build():
        return 1
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              stdout=subprocess.DEVNULL)
    if selftest.returncode != 0:
        log("harness self-tests failed")
        return 1

    load_before = os.getloadavg()
    code, lines = run_driver(args)
    load_after = os.getloadavg()
    build_info = {}
    for line in lines:
        if line.startswith("build "):
            build_info = json.loads(line[len("build "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        log(f"{args.workload} printed no result (exit code {code})")
        return 1
    if not build_info.get("optimized", False):
        log("WARNING: the build is not optimised; timings are not comparable")

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg_before": list(load_before), "loadavg_after": list(load_after),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "git_commit": git_commit(), "source_digest": source_digest(),
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result), flush=True)
    try:
        WORK.rmdir()  # only when no run left files behind
    except OSError:
        pass
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
