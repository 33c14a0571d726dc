"""Workload inputs generated from the benchmark seed.

The harness receives only what this module writes: one op record per
ping-pong round trip or collective iteration, and a blob of random payload
bytes the records point into. The same (workload, seed) always gives the
same file; a different seed gives different sizes, offsets and bytes.
"""

import random
import struct
import sys
from array import array

MAGIC = 0x4E494250  # "PBIN", matches perfbench/harness.cpp
FIELDS = 12
# Kept small: the harness holds the whole file in memory, and that counts
# in the process's peak RSS next to the library's own.
BLOB_BYTES = 2 << 20

EAGER_SIZES = (1, 1024)  # all below SCI's 8 KB switch point
RNDV_SIZES = (64 << 10, 1 << 20)  # above every switch point

# metacluster_coll: ClusterSpec::cluster_of_clusters(2, 2, 8)
COLL_RANKS = 32
BCAST_BYTES = 16 << 10
ALLTOALL_BYTES = 256
ALLREDUCE_COUNT = 8
ALLREDUCE_BASE_LIMIT = 1 << 20  # keeps every sum exact in a double

# Op records per file; the harness cycles through them.
OP_COUNT = {
    "eager_pingpong": 1 << 13,
    "rndv_pingpong": 1 << 12,
    "metacluster_coll": 1 << 11,
    "anchor": 64,
}


def _rng(workload, seed):
    # String seeds hash with SHA-512, so the stream is stable across runs
    # and Python versions.
    return random.Random(f"perfbench:{workload}:{seed}")


def make_ops(workload, seed):
    """Returns (ops, blob): ops is a list of FIELDS-tuples of u32."""
    if workload not in OP_COUNT:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    blob = rng.randbytes(BLOB_BYTES)
    count = OP_COUNT[workload]
    # Ping-pong sizes are stratified: record k (k >= 1) draws from its own
    # 1/(count-1) slice of the size range, in a seeded order. Every seed then
    # has the same size mix, and a span of ops covering the records a whole
    # number of times (the harness's virtual prefix) has the same virtual
    # median on every seed.
    strata = list(range(count - 1))
    rng.shuffle(strata)
    ops = []
    pad = (0,) * FIELDS
    for index in range(count):
        if workload == "metacluster_coll":
            a2a_span = COLL_RANKS * COLL_RANKS * ALLTOALL_BYTES
            op = (
                rng.randrange(COLL_RANKS),
                rng.randrange(BLOB_BYTES - BCAST_BYTES + 1),
                rng.randrange(BLOB_BYTES - a2a_span + 1),
                *(rng.randrange(ALLREDUCE_BASE_LIMIT) for _ in range(ALLREDUCE_COUNT)),
            )
        else:
            low, high = RNDV_SIZES if workload == "rndv_pingpong" else EAGER_SIZES
            # Op 0 is the one every set-up finishes: its size is fixed, so
            # set-up time does not depend on the seed.
            if index == 0:
                size = low
            else:
                slot = strata[index - 1] + rng.random()
                size = low + int(slot * (high - low + 1) / (count - 1))
            op = (
                size,
                rng.randrange(BLOB_BYTES - size + 1),
                rng.randrange(BLOB_BYTES - size + 1),
            )
        ops.append(op + pad[len(op):])
    return ops, blob


def encode(ops, blob):
    flat = array("I", (field for op in ops for field in op))
    if flat.itemsize != 4:
        raise RuntimeError("array('I') is not 32-bit on this platform")
    if sys.byteorder == "big":
        flat.byteswap()
    header = struct.pack("<IIIIQ", MAGIC, FIELDS, len(ops), 0, len(blob))
    return header + flat.tobytes() + blob


def write_inputs(path, workload, seed):
    ops, blob = make_ops(workload, seed)
    with open(path, "wb") as f:
        f.write(encode(ops, blob))
