#!/usr/bin/env python3
"""End-to-end benchmark of the FedGTA planes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload arxiv-sim --seed 1 --seconds 30 \
        --trace 0

Workloads (why each exists is printed with its results and listed in
BENCHMARK.json): arxiv-sim (in-process Simulation), products-flat
(RemoteCoordinator + 4 fedgta_worker processes over loopback TCP) and
products-hier (RootCoordinator + 2 fedgta_aggregator + 4 fedgta_worker
processes).

The script builds the library, the shipped worker/aggregator binaries and
the bench binary from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the current directory, then runs the bench binary for
one workload in a fresh process. Its last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The process exits non-zero
when the build fails, a correctness check fails, or the run overruns its
deadline (the whole process group is then killed).

    python3 perfbench/run.py --self-test   # tests of the bench helpers
    python3 perfbench/run.py --workload products-flat --record
        # prints the default-seed result block for perfbench/reference.txt
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_DEADLINE_S = 170  # the bench binary itself; the build is not counted


def build(build_dir, target):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs,
                            "--target", target]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def run_bench(cmd, deadline_s):
    """Runs the bench binary in its own process group, relaying stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    overran = []

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(*_):
        overran.append(True)
        kill_group()

    signal.signal(signal.SIGALRM, on_signal)
    signal.alarm(deadline_s)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, on_signal)
    try:
        for line in proc.stdout:
            if not overran:
                sys.stdout.write(line)
                sys.stdout.flush()
        proc.wait()
    finally:
        signal.alarm(0)
        kill_group()  # nothing the bench started may outlive it
        proc.wait()
    if overran:
        sys.stderr.write("perfbench: run overran its %d s deadline; "
                         "process group killed\n" % deadline_s)
        return 1
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    target_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(target_dir, "perfbench")

    if args.self_test:
        if not build(build_dir, "perfbench_helpers_test"):
            return 1
        return subprocess.call([os.path.join(build_dir,
                                             "perfbench_helpers_test")])
    if not args.workload:
        parser.error("--workload is required")
    if not build(build_dir, "e2e_bench"):
        return 1

    work_dir = os.path.join(target_dir, "run-%d" % os.getpid())
    results_dir = os.path.join(target_dir, "results")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace,
           "--bin_dir=" + build_dir,
           "--work_dir=" + work_dir,
           "--reference=" + os.path.join(BENCH_DIR, "reference.txt"),
           "--results_dir=" + results_dir,
           "--spans_out=" + os.path.join(
               target_dir, "spans-%s-seed%d.json" % (args.workload,
                                                     args.seed))]
    if args.record:
        cmd.append("--record")
    try:
        return run_bench(cmd, RUN_DEADLINE_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
