#!/usr/bin/env python3
"""Full-fault-list grading benchmark (see README.md in this directory).

Run from the root of a checkout:

  python3 perfbench/run.py --workload ab_full_mt --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, one table
  python3 perfbench/run.py --smoke                          # reduced-size self-test
  python3 perfbench/run.py --bless                          # rewrite verdicts.ref

The first call configures and builds libsbst and the driver into
.bench_build/perfbench (Release, the flags of the top-level build); later
calls rebuild only what changed. A single-workload run prints a host and
build record, then as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
BINARY = os.path.join(BUILD, "grade_bench")
ORACLE = os.path.join(HERE, "verdicts.ref")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
INTERACTIONS = os.path.join(HERE, "interactions.json")

BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # measuring after a no-op build ends within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def call(cmd, timeout, capture=False):
    """Runs cmd in its own process group and waits for it; on timeout the
    whole group is killed and reaped. Returns (exit code, stdout)."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s timed out after %.0f s" % (cmd[0], timeout))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out or ""


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc, _ = call(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc, _ = call(["cmake", "--build", BUILD, "--target", "grade_bench",
                  "-j", jobs], BUILD_TIMEOUT_S)
    if rc != 0:
        raise BenchError("build failed")
    rc, out = call([BINARY, "--build-info"], 30, capture=True)
    if rc != 0:
        raise BenchError("grade_bench --build-info failed")
    info = json.loads(out.strip().splitlines()[-1])
    flags = info["cxx_flags"].split()
    if not info["optimized"] or not any(
            f in ("-O2", "-O3") for f in flags):
        raise BenchError("refusing to time an unoptimised build (flags: %r)"
                         % info["cxx_flags"])
    return info


def git_commit():
    # Only a checkout's own .git counts; never search parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_record(info, seed, load_start):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": info["hardware_concurrency"],
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "cxx_flags": info["cxx_flags"].strip(),
        "git_commit": git_commit(),
        "loadavg_start": list(load_start),
        "seed": seed,
    }


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Schema check of the driver's result line against BENCHMARK.json."""
    if set(result) != RESULT_KEYS:
        raise BenchError("result keys %s" % sorted(result))
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise BenchError("no operation attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(expected) - set(metrics)),
                                       sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            raise BenchError("metric %s: %r" % (name, m))
        if not isinstance(m["value"], (int, float)):
            raise BenchError("metric %s is not a number" % name)
    if result["correct"] and result["failed"]:
        raise BenchError("correct with failed operations")


def run_workload(spec, workload, seed, seconds, trace, smoke, deadline):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", SCRATCH, "--oracle", ORACLE]
    if smoke:
        cmd.append("--smoke")
    rc, out = call(cmd, max(1.0, deadline - time.monotonic()), capture=True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError("grade_bench exited with %d" % rc)
    result = json.loads(lines[-1])
    check_result(result, expected_metrics(spec, trace))
    return result


def cmd_single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("unknown workload %r (want one of %s)"
                         % (args.workload, ", ".join(names)))
    load_start = os.getloadavg()
    info = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    host = host_record(info, args.seed, load_start)
    host["workload"] = args.workload
    host["trace"] = args.trace
    print("host " + json.dumps(host, sort_keys=True))
    result = run_workload(spec, args.workload, args.seed, args.seconds,
                          args.trace, False, deadline)
    print(json.dumps(result))
    return 0


def cmd_all(args, spec):
    """Every workload once, in a seed-shuffled order; prints one table and
    writes .bench_build/perfbench-report.json with the host record."""
    load_start = os.getloadavg()
    info = build()
    host = host_record(info, args.seed, load_start)
    order = [w["name"] for w in spec["workloads"]]
    random.Random(args.seed).shuffle(order)
    results = {}
    for name in order:
        results[name] = run_workload(spec, name, args.seed, args.seconds, 0,
                                     False, time.monotonic() + RUN_DEADLINE_S)
    metrics = spec["end_to_end"]
    print("host " + json.dumps(host, sort_keys=True))
    print("%-12s %9s %6s  " % ("workload", "attempted", "failed")
          + "  ".join("%14s" % ("%s [%s]" % (m["name"], m["unit"]))
                      for m in metrics))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        r = results[w["name"]]
        print("%-12s %9d %6d  " % (w["name"], r["attempted"], r["failed"])
              + "  ".join("%14.6g" % r["metrics"][m["name"]]["value"]
                          for m in metrics))
        summary["correct"] = summary["correct"] and r["correct"]
        summary["attempted"] += r["attempted"]
        summary["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            summary["metrics"][w["name"] + "." + name] = m
    with open(INTERACTIONS) as f:
        interactions = json.load(f)
    report = {"host": host, "order": order, "results": results,
              "interactions": interactions}
    path = os.path.join(ROOT, ".bench_build", "perfbench-report.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    log("wrote " + path)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def cmd_smoke(args, spec):
    """Reduced-size run of every workload, untraced and traced, over the
    smoke shard (10 of 631 groups): checks the result schema, the oracle
    on that subset, and that interactions.json maps every metric."""
    with open(INTERACTIONS) as f:
        interactions = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(interactions["workloads"]) != sorted(names):
        raise BenchError("interactions.json workloads differ from "
                         "BENCHMARK.json")
    if sorted(interactions["per_layer"]) != sorted(expected_metrics(spec, 1)):
        raise BenchError("interactions.json per-layer metrics differ from "
                         "BENCHMARK.json")
    build()
    for name in names:
        for trace in (0, 1):
            r = run_workload(spec, name, args.seed, 1, trace, True,
                             time.monotonic() + RUN_DEADLINE_S)
            if not r["correct"] or r["failed"]:
                raise BenchError("%s trace %d: %d of %d operations failed"
                                 % (name, trace, r["failed"], r["attempted"]))
            log("%s trace %d: %d operations ok" % (name, trace,
                                                    r["attempted"]))
    print("SMOKE OK")
    return 0


def cmd_bless(args, spec):
    build()
    rc, _ = call([BINARY, "--bless", ORACLE, "--scratch", SCRATCH],
                 RUN_DEADLINE_S)
    return rc


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--bless", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds < 1:
            p.error("--seconds must be at least 1")
        if args.smoke:
            return cmd_smoke(args, spec)
        if args.bless:
            return cmd_bless(args, spec)
        if args.all:
            return cmd_all(args, spec)
        if not args.workload:
            p.error("--workload is required (or --all/--smoke/--bless)")
        return cmd_single(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
