"""Turns the harness's raw measurements into the benchmark's metrics.

Every helper here is pure: it takes the JSON document the harness wrote
and returns numbers, so the tests can check them on hand-made inputs.
"""

import statistics

MIB = float(1 << 20)

# Samples a percentile must leave beyond it before it is reported.
TAIL_SAMPLES = 10

PINGPONG = ("eager_pingpong", "rndv_pingpong")

# Host times are reported at a nominal machine speed: scaled by
# REF_BLOCK_US over the harness's reference block (5 round trips between
# two threads through a mutex and a condition variable on the harness's
# CPU) timed in the same chunk, or just before the same set-up. 16 us is
# that block on a quiet 4-vCPU VM; when the host slows its kernel paths,
# the block and the workloads slow together and the ratio stays put.
REF_BLOCK_US = 16.0

# Figures that do not follow the reference, reported as measured. The
# collective workload's slowest iterations stay near 5.5-6 ms whether the
# reference block runs fast or 1.4x slower, so scaling them would add the
# host's drift instead of removing it.
UNSCALED = {("metacluster_coll", "host_op_p99_us")}

# Calibration anchors on SCI at 4 B, each with the round trips its bench
# averages over: raw Madeleine from bench/table1_raw_protocols (4.5 us) and
# ch_mad with the TCP poller from bench/fig9_multiprotocol. The latter
# prints 27.097 us at 4 B on this tree; EXPERIMENTS.md still quotes 26.8 us
# from an earlier calibration (SCI alone moved by the same +0.285 us).
ANCHORS = {"mad": (4.5, 4), "mpi": (27.1, 3)}
ANCHOR_TOLERANCE_US = 0.05  # the committed figures carry one decimal


def percentile(values, q):
    """q-th percentile (0..100), linear between the two closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_supported(count, q):
    """True when `count` samples leave TAIL_SAMPLES beyond the q-th percentile."""
    return count * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted in the base."""
    return float(num) / float(den) if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def scales(refs):
    """Per-sample factors that bring host times to the nominal speed."""
    return [REF_BLOCK_US / r if r > 0 else 0.0 for r in refs]


def end_to_end(workload, doc, setup_docs=()):
    """End-to-end metrics of an untraced run: (metrics, samples, problems,
    measured).

    The harness reduces the measured segment chunk by chunk (chunk_ops
    consecutive ops) to each chunk's wall time, process CPU, median and
    99th-percentile op time, and median reference block. Each chunk's host
    figures are scaled by its reference to the nominal speed (except those in
    UNSCALED), and every host metric is the median of its per-chunk figure
    over all full chunks, so a neighbour's burst moves a few chunks, not the
    figure, while a change to the code moves every chunk. `samples` is the
    number of ops they rest on. `setup_docs` come from set-up-only harness
    processes: setup_s is the median of every scaled set-up sample of the
    run, and ok_ops_ratio counts every op the run attempted. `measured` holds
    the same host medians unscaled and the median reference block, for the
    record.
    """
    problems = []
    ops = doc["ops"]
    chunk_ops = int(ops["chunk_ops"])
    refs = ops["chunk_ref_us"]
    scale = scales(refs)
    raw_p50s, raw_p99s = ops["chunk_p50_us"], ops["chunk_p99_us"]
    walls, cpus = ops["chunk_wall_s"], ops["chunk_cpu_us"]
    p50s = [p * s for p, s in zip(raw_p50s, scale)]
    p99s = (list(raw_p99s) if (workload, "host_op_p99_us") in UNSCALED
            else [p * s for p, s in zip(raw_p99s, scale)])
    rates = [ratio(chunk_ops, w * s) for w, s in zip(walls, scale)]
    cpu_per_op = [c * s / chunk_ops for c, s in zip(cpus, scale)]
    if len(refs) != len(raw_p99s) or not all(r > 0 for r in refs):
        problems.append(f"{len(refs)} reference samples for {len(raw_p99s)} chunks")
    # The harness keeps virtual samples for a fixed count of ops from a
    # fixed op index, so they depend on the seed alone, not on host speed.
    virt = ops["virt_us"]
    nbytes = ops["bytes"]

    if not p99s or not tail_supported(chunk_ops, 99):
        problems.append(f"{len(p99s)} chunks of {chunk_ops} op times: p99 needs one "
                        f"with {TAIL_SAMPLES} samples beyond it")
    if len(virt) < doc["virt_ops"]:
        problems.append(f"only {len(virt)} ops: virtual metrics need {int(doc['virt_ops'])}")

    # Ping-pong op times are one-way (half the round trip); an op's virtual
    # elapsed time is the whole round trip.
    elapsed_us = sum(virt) * (2.0 if workload in PINGPONG else 1.0)
    docs = [doc, *setup_docs]
    attempted = sum(int(d["attempted"]) for d in docs)
    failed = sum(int(d["failed"]) for d in docs)
    setups = [s * f for d in docs
              for s, f in zip(d["setup_s"], scales(d["setup_ref_us"]))]
    metrics = {
        "host_ops_per_s": (median(rates), "ops/s"),
        "host_op_p50_us": (median(p50s), "us"),
        "host_op_p99_us": (median(p99s), "us"),
        "host_cpu_us_per_op": (median(cpu_per_op), "us"),
        "virt_op_p50_us": (percentile(virt, 50) if virt else 0.0, "us"),
        "virt_mb_s": (ratio(sum(nbytes) / MIB, elapsed_us * 1e-6), "MiB/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (doc["peak_rss_kib"] / 1024.0, "MiB"),
        "ok_ops_ratio": (1.0 - ratio(failed, attempted), "ratio"),
    }
    measured = {
        "host_ops_per_s": median([ratio(chunk_ops, w) for w in walls]),
        "host_op_p50_us": median(raw_p50s),
        "host_op_p99_us": median(raw_p99s),
        "host_cpu_us_per_op": median([c / chunk_ops for c in cpus]),
        "setup_s": median([x for d in docs for x in d["setup_s"]]),
        "ref_block_us": median(refs),
    }
    return metrics, len(p99s) * chunk_ops, problems, measured


def per_layer(doc):
    """Per-layer metrics of a traced run, plus a list of problems."""
    problems = []
    trace = doc["trace"]
    c = trace["counters"]
    ops = trace["ops"]
    msgs = c["mad_msgs"]
    ladder = {r: doc["ladder"][r] for r in ("net", "mad", "mpi")}
    host = {r: median(ladder[r]["host_ns"]) for r in ladder}
    virt = {r: median(ladder[r]["virt_us"]) for r in ladder}

    def rate(kind):
        segs = [s for s in doc["segments"].values() if s["kind"] == kind]
        return ratio(sum(s["ops"] for s in segs), sum(s["wall_s"] for s in segs))

    plain = rate("plain")
    traced = rate("traced")
    allocs = c["slab_allocs"] + c["slab_fallbacks"]

    m = {
        "net.host_ns_per_msg": (host["net"], "ns"),
        "net.virt_us_per_msg": (virt["net"], "us"),
        "mad.self_host_ns_per_msg": (host["mad"] - host["net"], "ns"),
        "mad.self_virt_us_per_msg": (virt["mad"] - virt["net"], "us"),
        "core.self_host_ns_per_msg": (host["mpi"] - host["mad"], "ns"),
        "core.self_virt_us_per_msg": (virt["mpi"] - virt["mad"], "us"),
        "mpi.send_host_ns": (median(trace["send_ns"]), "ns"),
        "mpi.recv_host_ns": (median(trace["recv_ns"]), "ns"),
        "mpi.recv_wait_share": (ratio(sum(trace["recv_wait_ns"]), sum(trace["recv_ns"])), "ratio"),
    }
    for call in ("allreduce", "bcast", "alltoall"):
        m[f"mpi.{call}_host_us"] = (median(trace[f"{call}_host_us"]), "us")
        m[f"mpi.{call}_virt_us"] = (median(trace[f"{call}_virt_us"]), "us")
    m.update({
        "mpi.match_probes_per_attempt": (ratio(c["match_probe_steps"], c["match_attempts"]), "count"),
        "mpi.match_rank_locks_per_attempt": (ratio(c["match_rank_locks"], c["match_attempts"]), "count"),
        "mpi.match_posted_depth_hw": (float(c["match_posted_depth_hw"]), "count"),
        "mpi.match_unexpected_depth_hw": (float(c["match_unexpected_depth_hw"]), "count"),
        "core.eager_per_op": (ratio(c["eager"], ops), "count"),
        "core.rndv_per_op": (ratio(c["rndv"], ops), "count"),
        "core.eager_demoted_per_op": (ratio(c["eager_demoted"], ops), "count"),
        "core.credit_stalls_per_op": (ratio(c["credit_stalls"], ops), "count"),
        "core.credit_pkts_per_op": (ratio(c["credit_packets"], ops), "count"),
        "marcel.poll_wakeups_per_msg": (ratio(c["poll_wakeups"], msgs), "count"),
        "marcel.ctx_switches_per_op": (ratio(c["ctx_switches"], ops), "count"),
        "common.bytes_copied_per_msg": (ratio(c["bytes_copied"], msgs), "B"),
        "common.copy_ops_per_msg": (ratio(c["copy_ops"], msgs), "count"),
        "common.staging_allocs_per_msg": (ratio(c["staging_allocs"], msgs), "count"),
        "common.slab_reuse_ratio": (ratio(c["slab_reuses"], c["slab_reuses"] + allocs), "ratio"),
        "mad.msgs_per_op": (ratio(msgs, ops), "count"),
        "mad.bytes_per_op": (ratio(c["mad_bytes"], ops), "B"),
        "net.frames_dropped": (float(c["frames_dropped"]), "count"),
        "net.retransmits": (float(c["retransmits"]), "count"),
        "trace.overhead_pct": ((1.0 - ratio(traced, plain)) * 100.0 if plain else 0.0, "%"),
    })
    if c["frames_dropped"] or c["retransmits"]:
        problems.append("frames dropped or retransmitted without injected faults")
    if not ops:
        problems.append("the traced segments completed no op")
    return m, problems


def anchor_check(doc):
    """Mean one-way virtual latency per anchor rung, and any mismatch."""
    problems = []
    values = {}
    for rung, (expected, reps) in ANCHORS.items():
        samples = doc[rung]["virt_us"]
        if len(samples) != reps:
            problems.append(f"anchor {rung}: {len(samples)} round trips, expected {reps}")
            continue
        values[rung] = sum(samples) / reps
        if abs(values[rung] - expected) > ANCHOR_TOLERANCE_US:
            problems.append(
                f"anchor {rung}: {values[rung]:.3f} us at 4 B, committed calibration {expected} us")
    if int(doc["failed"]):
        problems.append(f"anchor: {int(doc['failed'])} failed round trips")
    return values, problems
