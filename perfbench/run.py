#!/usr/bin/env python3
"""Benchmark of the MPICH/Madeleine simulator on both of its clocks.

Three closed-loop workloads, each driven by one caller:

  eager_pingpong    2 SCI nodes that also share Fast-Ethernet, 1 rank each,
                    threaded engine; sizes 1 B - 1 KiB (all eager).
  rndv_pingpong     the same cluster; sizes 64 KiB - 1 MiB (all rendezvous).
  metacluster_coll  the paper's meta-cluster, 4 nodes x 8 ranks, sharded
                    engine; allreduce(8 doubles), bcast(16 KiB, rotating
                    root), alltoall(256 B per peer) per iteration.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload eager_pingpong --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 3 --seconds 10 --trace 1

The command builds perfbench/harness.cpp against the library sources under
src/ (in $CARGO_TARGET_DIR, default .bench_build, under perfbench/), writes
the workload's inputs from --seed, runs the harness on one CPU (see
harness_cpus), and checks every payload and collective result. With
--trace 0 it reports the end-to-end metrics, host times scaled to a nominal
machine speed by a reference the harness times between batches (see
metrics.REF_BLOCK_US); with --trace 1 the per-layer metrics of a traced
run, and it also checks the calibration anchors. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it is the configuration stamp. Any failed check makes the
command exit non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen_inputs  # noqa: E402
import metrics  # noqa: E402

# Per workload: the engine, and the set-ups per harness process (each
# builds a session and finishes one op).
WORKLOADS = {
    "eager_pingpong": {"engine": "threaded", "setups": 10},
    "rndv_pingpong": {"engine": "threaded", "setups": 10},
    "metacluster_coll": {"engine": "sharded", "setups": 5},
}
# Set-up time differs from one process to the next (thread stacks, fresh
# slabs, page faults), so besides the measuring process this many short
# processes only time set-ups; setup_s is the median over all of them.
SETUP_PROCESSES = 5
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build
DEADLINE_S = 170.0  # one workload's whole command ends within 180 s
# Variables the workload definition sets itself; the rest of MADMPI_* pass
# through to the harness and are stamped on the result.
OWN_VARS = ("MADMPI_ENGINE", "MADMPI_SHARDS", "MADMPI_SCHED_SEED")


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1, help="workload seed (inputs)")
    p.add_argument("--seconds", type=float, default=20.0, help="measured host seconds per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shards", type=int, default=1, help="shard workers for metacluster_coll")
    p.add_argument("--sched-seed", type=int, default=7,
                   help="MADMPI_SCHED_SEED for metacluster_coll (schedule exploration seed)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.shards < 1:
        p.error("--seconds and --shards must be positive")
    return args


# ---- build -------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        raise BenchError("library sources not found under src/: run from the root of a checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench_harness")


# ---- configuration stamp ---------------------------------------------------------

def source_digest():
    """SHA-256 over every file under src/, so a result names its code even
    outside a git checkout."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (git failed)"


def harness_env(workload, args):
    env = {k: v for k, v in os.environ.items() if k not in OWN_VARS}
    env["MADMPI_ENGINE"] = WORKLOADS[workload]["engine"]
    if workload == "metacluster_coll":
        env["MADMPI_SHARDS"] = str(args.shards)
        env["MADMPI_SCHED_SEED"] = str(args.sched_seed)
    return env


def harness_cpus():
    """The CPU the harness runs on: the last allowed one (CPU 0 usually
    takes the most interrupts).

    Every thread of the harness shares that one CPU, so the host figures
    are those of a one-core run: cross-core hand-offs between rank, poller
    and helper threads become context switches. Left on all CPUs of a
    shared virtual machine, each hand-off waits on a cross-vCPU wake-up
    whose latency follows the other tenants' load, and over ten seeds the
    p99 op time spread (inter-quartile range over median) 0.30 on
    eager_pingpong and 0.47 on rndv_pingpong, above the 0.25 bound.
    """
    return sorted(os.sched_getaffinity(0))[-1:]


def stamp(workload, args, env):
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine": env["MADMPI_ENGINE"],
        "shards": int(env["MADMPI_SHARDS"]) if "MADMPI_SHARDS" in env else None,
        "madmpi_env": {k: v for k, v in sorted(env.items()) if k.startswith("MADMPI_")},
        "nproc": os.cpu_count(),
        "cpus": harness_cpus(),
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---- one workload ------------------------------------------------------------------

def run_harness(binary, workload, inputs, out, seconds, trace, setups, env, deadline):
    cmd = [binary, "--workload", workload, "--inputs", inputs, "--out", out,
           "--seconds", repr(seconds), "--trace", str(trace), "--setups", str(setups)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the harness could start")
    if os.path.exists(out):
        os.remove(out)
    cpus = harness_cpus()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"harness for {workload} overran its deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"harness for {workload} exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def run_workload(binary, bdir, workload, args, deadline):
    config = WORKLOADS[workload]
    env = harness_env(workload, args)
    inputs = os.path.join(bdir, f"inputs-{workload}-{args.seed}.bin")
    gen_inputs.write_inputs(inputs, workload, args.seed)

    def harness(index, seconds, trace):
        out = os.path.join(bdir, f"raw-{workload}-trace{trace}-{index}.json")
        return run_harness(binary, workload, inputs, out, seconds, trace,
                           config["setups"], env, deadline)

    problems = []
    if args.trace:
        doc = harness(0, args.seconds, 1)
        values, problems_layer = metrics.per_layer(doc)
        problems += problems_layer
        # The calibration anchors run on the threaded engine without a
        # schedule seed, as their committed benches do.
        anchor_env = harness_env("eager_pingpong", args)
        anchor_inputs = os.path.join(bdir, f"inputs-anchor-{args.seed}.bin")
        gen_inputs.write_inputs(anchor_inputs, "anchor", args.seed)
        anchor_doc = run_harness(binary, "anchor", anchor_inputs,
                                 os.path.join(bdir, "raw-anchor.json"), 1.0, 0, 1,
                                 anchor_env, deadline)
        anchors, problems_anchor = metrics.anchor_check(anchor_doc)
        problems += problems_anchor
        attempted = int(doc["attempted"]) + int(anchor_doc["attempted"])
        failed = int(doc["failed"]) + int(anchor_doc["failed"])
        samples = int(doc["trace"]["ops"])
        measured = None
    else:
        anchors = None
        doc = harness(0, args.seconds, 0)
        setup_docs = [harness(k + 1, 0.0, 0) for k in range(SETUP_PROCESSES)]
        values, samples, problems_e2e, measured = metrics.end_to_end(
            workload, doc, setup_docs)
        # What the harness itself held before any session existed; the
        # rest of peak_rss_mb is the library's.
        measured["harness_rss_mb"] = doc["harness_rss_kib"] / 1024.0
        problems += problems_e2e
        attempted = sum(int(d["attempted"]) for d in [doc, *setup_docs])
        failed = sum(int(d["failed"]) for d in [doc, *setup_docs])
    if failed:
        problems.append(f"{failed} of {attempted} ops failed a check")
    return {
        "stamp": stamp(workload, args, env),
        "metrics": values,
        "samples": samples,
        "measured": measured,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "anchors_us": anchors,
    }


def main(argv):
    args = parse_args(argv)
    start = time.monotonic()
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    try:
        binary = build(bdir)
    except BenchError as e:
        log(f"error: {e}")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        # The deadline counts from after the build: a first run may build
        # for much longer than a measured run lasts.
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(binary, bdir, name, args, deadline)
        except BenchError as e:
            log(f"error: {e}")
            return 1

    combined = {}
    problems = []
    for name, r in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for key, (value, unit) in r["metrics"].items():
            combined[prefix + key] = {"value": value, "unit": unit}
            print(f"{name:18s} {key:34s} {value:14.6g} {unit}")
        print(f"{name:18s} {'samples':34s} {r['samples']:14d} ops")
        # Host figures before scaling to the nominal speed, the reference
        # block they were scaled by, and the harness's own footprint.
        for key, value in (r["measured"] or {}).items():
            print(f"{name:18s} {'measured ' + key:34s} {value:14.6g}")
        problems += [f"{name}: {p}" for p in r["problems"]]
        with open(os.path.join(bdir, f"result-{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as f:
            json.dump(r, f, indent=1)
    for p in problems:
        log(f"check failed: {p}")
    stamps = [r["stamp"] for r in results.values()]
    print("# config " + json.dumps(stamps[0] if len(stamps) == 1 else stamps, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    log(f"done in {time.monotonic() - start:.1f} s")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
