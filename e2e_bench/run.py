#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see README.md).

    python3 e2e_bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The bench_e2e binary is built from source into
$CARGO_TARGET_DIR (default .bench_build); results, traces and scratch
directories go to .bench_run.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["attack-warm", "spec-exec", "session-cold"]
# Set-up is timed in this many fresh processes per run (the measuring run is
# one of them) and reported as their median: corpus memoisation is paid
# once per process, so repeats inside one process would not repeat it.
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "bench_e2e")


def source_rev(root):
    """git revision when available, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def invoke(binary, args, env):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("run.py: no result from " + " ".join(args))
        sys.exit(3)
    return proc.returncode, json.loads(lines[-1])


def run_workload(binary, workload, args, run_dir, rev, env):
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--run-dir", run_dir,
              "--rev", rev]
    code, result = invoke(binary, common + ["--trace", str(args.trace)], env)
    if not args.trace:
        samples = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            setup_code, setup = invoke(binary, common + ["--setup-only"], env)
            code = code or setup_code
            result["correct"] = result["correct"] and setup["correct"]
            result["failed"] += setup["failed"]
            result["attempted"] += setup["attempted"]
            samples.append(setup["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        result["setup_samples_s"] = samples
    name = "result-%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)
    with open(os.path.join(run_dir, name), "w") as f:
        json.dump(result, f, indent=1)
    print("host: " + json.dumps(result["host"]))
    for metric, m in result["metrics"].items():
        print("%-14s %-36s %16.6f %s" % (workload, metric, m["value"], m["unit"]))
    return code, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    run_dir = os.path.abspath(".bench_run")
    os.makedirs(run_dir, exist_ok=True)
    binary = build(build_dir)
    rev = source_rev(root)
    # Engine, cache and store selection must come from the specs alone.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PTAINT_")}

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    exit_code = 0
    for workload in names:
        code, results[workload] = run_workload(binary, workload, args,
                                               run_dir, rev, env)
        exit_code = exit_code or code
    if len(names) == 1:
        r = results[names[0]]
        metrics = r["metrics"]
    else:
        metrics = {"%s/%s" % (w, k): v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
