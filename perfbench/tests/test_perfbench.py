"""Tests of the benchmark itself: input generation, the statistics helpers,
the BENCHMARK.json schema, and a short smoke run of every workload.

Run from the root of a checkout:

  python3 -m unittest discover -s perfbench/tests -v

The smoke runs build the harness on first use and take about a minute;
set PERFBENCH_SKIP_SMOKE=1 to run only the fast tests.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen_inputs  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("eager_pingpong", "rndv_pingpong", "metacluster_coll")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in (*WORKLOADS, "anchor"):
            with self.subTest(workload=workload):
                a = gen_inputs.encode(*gen_inputs.make_ops(workload, 5))
                b = gen_inputs.encode(*gen_inputs.make_ops(workload, 5))
                self.assertEqual(a, b)

    def test_different_seed_gives_different_sizes_and_payloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                ops1, blob1 = gen_inputs.make_ops(workload, 5)
                ops2, blob2 = gen_inputs.make_ops(workload, 6)
                self.assertNotEqual(blob1, blob2)
                self.assertNotEqual([op[:3] for op in ops1], [op[:3] for op in ops2])

    def test_pingpong_sizes_stay_on_their_protocol(self):
        for workload, (low, high) in (("eager_pingpong", gen_inputs.EAGER_SIZES),
                                      ("rndv_pingpong", gen_inputs.RNDV_SIZES)):
            ops, blob = gen_inputs.make_ops(workload, 9)
            self.assertEqual(ops[0][0], low, "set-up op has the fixed size")
            for size, ping, pong, *_ in ops:
                self.assertTrue(low <= size <= high)
                self.assertLessEqual(ping + size, len(blob))
                self.assertLessEqual(pong + size, len(blob))

    def test_collective_offsets_fit_and_sums_are_exact(self):
        ops, blob = gen_inputs.make_ops("metacluster_coll", 9)
        a2a = gen_inputs.COLL_RANKS ** 2 * gen_inputs.ALLTOALL_BYTES
        for root, bcast, alltoall, *bases in ops:
            self.assertLess(root, gen_inputs.COLL_RANKS)
            self.assertLessEqual(bcast + gen_inputs.BCAST_BYTES, len(blob))
            self.assertLessEqual(alltoall + a2a, len(blob))
            for base in bases[:gen_inputs.ALLREDUCE_COUNT]:
                # Every partial sum of base + rank stays an exact double.
                self.assertLess(base * gen_inputs.COLL_RANKS + 1024, 2 ** 53)

    def test_encoding_header(self):
        ops, blob = gen_inputs.make_ops("anchor", 1)
        data = gen_inputs.encode(ops, blob)
        self.assertEqual(int.from_bytes(data[:4], "little"), gen_inputs.MAGIC)
        self.assertEqual(len(data), 24 + len(ops) * gen_inputs.FIELDS * 4 + len(blob))


class HelpersTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(metrics.percentile(values, 0), 1.0)
        self.assertEqual(metrics.percentile(values, 100), 100.0)
        self.assertAlmostEqual(metrics.percentile(values, 50), 50.5)
        self.assertAlmostEqual(metrics.percentile(values, 99), 99.01)
        self.assertEqual(metrics.percentile([3.0, 1.0, 2.0], 50), 2.0)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_tail_guard_needs_ten_samples_beyond_p99(self):
        self.assertTrue(metrics.tail_supported(1000, 99))
        self.assertFalse(metrics.tail_supported(999, 99))
        self.assertTrue(metrics.tail_supported(100, 90))
        self.assertFalse(metrics.tail_supported(99, 90))

    def test_ratio_with_empty_base(self):
        self.assertEqual(metrics.ratio(3, 4), 0.75)
        self.assertEqual(metrics.ratio(5, 0), 0.0)

    def test_anchor_check(self):
        doc = {"failed": 0, "mad": {"virt_us": [4.49] * 4}, "mpi": {"virt_us": [27.097] * 3}}
        values, problems = metrics.anchor_check(doc)
        self.assertEqual(problems, [])
        doc["mpi"]["virt_us"] = [26.0] * 3
        self.assertEqual(len(metrics.anchor_check(doc)[1]), 1)


def fake_run(ops=3000, virt_ops=1000, chunk_ops=1000):
    """A harness document of a steady untraced run: 1 ms per op."""
    virt = min(ops, virt_ops)
    chunks = ops // chunk_ops
    return {
        "attempted": ops + 5, "failed": 0, "peak_rss_kib": 2048, "virt_ops": virt_ops,
        "setup_s": [0.2, 0.1, 0.3], "setup_ref_us": [metrics.REF_BLOCK_US] * 3,
        "segments": {"0": {"kind": "warm", "ops": 5, "wall_s": 0.1, "cpu_us": 90.0},
                     "1": {"kind": "plain", "ops": ops, "wall_s": ops / 1000.0,
                           "cpu_us": ops * 900.0}},
        "ops": {"chunk_ops": chunk_ops, "chunk_wall_s": [chunk_ops / 1000.0] * chunks,
                "chunk_cpu_us": [chunk_ops * 900.0] * chunks,
                "chunk_p50_us": [1000.0] * chunks,
                "chunk_p99_us": [1000.0] * chunks,
                "chunk_ref_us": [metrics.REF_BLOCK_US] * chunks, "virt_us": [20.0] * virt,
                "bytes": [2048.0] * virt},
    }


class EndToEndTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        values, samples, problems, _ = metrics.end_to_end(
            "eager_pingpong", fake_run(),
            [{"setup_s": [0.4], "setup_ref_us": [metrics.REF_BLOCK_US], "attempted": 1,
              "failed": 0}])
        self.assertEqual(problems, [])
        names = [m["name"] for m in load_benchmark_json()["end_to_end"]]
        self.assertEqual(list(values), names)
        self.assertAlmostEqual(values["host_ops_per_s"][0], 1000.0)
        self.assertAlmostEqual(values["host_op_p99_us"][0], 1000.0)
        self.assertAlmostEqual(values["host_cpu_us_per_op"][0], 900.0)
        self.assertAlmostEqual(values["virt_op_p50_us"][0], 20.0)
        # 1024 B each way per 40 us round trip.
        self.assertAlmostEqual(values["virt_mb_s"][0], 1024 / 20e-6 / (1 << 20))
        self.assertAlmostEqual(values["setup_s"][0], 0.25)
        self.assertEqual(values["peak_rss_mb"][0], 2.0)
        self.assertEqual(values["ok_ops_ratio"][0], 1.0)
        self.assertEqual(samples, 3000)

    def test_host_metrics_are_chunk_medians(self):
        doc = fake_run()
        doc["ops"]["chunk_p99_us"] = [1000.0, 5000.0, 1200.0]
        doc["ops"]["chunk_wall_s"] = [1.0, 4.0, 2.0]  # 1000, 250, 500 ops/s
        values, _, _, _ = metrics.end_to_end("eager_pingpong", doc)
        self.assertEqual(values["host_op_p99_us"][0], 1200.0)
        self.assertEqual(values["host_ops_per_s"][0], 500.0)

    def test_host_times_scale_by_their_chunks_reference(self):
        doc = fake_run()
        # The middle chunk ran while the machine was half as fast: its op
        # times and its reference block both doubled.
        doc["ops"]["chunk_p50_us"] = [1000.0, 2000.0, 1000.0]
        doc["ops"]["chunk_wall_s"] = [1.0, 2.0, 1.0]
        doc["ops"]["chunk_cpu_us"] = [9e5, 1.8e6, 9e5]
        doc["ops"]["chunk_ref_us"] = [metrics.REF_BLOCK_US * k for k in (1.0, 2.0, 1.0)]
        doc["setup_s"] = [0.2, 0.4, 0.2]
        doc["setup_ref_us"] = [metrics.REF_BLOCK_US * k for k in (1.0, 2.0, 1.0)]
        values, _, problems, measured = metrics.end_to_end("eager_pingpong", doc)
        self.assertEqual(problems, [])
        for name, value in (("host_op_p50_us", 1000.0), ("host_ops_per_s", 1000.0),
                            ("host_cpu_us_per_op", 900.0), ("setup_s", 0.2)):
            self.assertEqual(values[name][0], value, name)
        self.assertEqual(measured["ref_block_us"], metrics.REF_BLOCK_US)

    def test_collective_p99_is_reported_as_measured(self):
        doc = fake_run()
        doc["ops"]["chunk_ref_us"] = [metrics.REF_BLOCK_US * 2] * 3
        values = metrics.end_to_end("metacluster_coll", doc)[0]
        self.assertEqual(values["host_op_p99_us"][0], 1000.0)
        self.assertEqual(values["host_op_p50_us"][0], 500.0)

    def test_missing_reference_is_a_problem(self):
        doc = fake_run()
        doc["ops"]["chunk_ref_us"] = doc["ops"]["chunk_ref_us"][1:]
        self.assertEqual(len(metrics.end_to_end("eager_pingpong", doc)[2]), 1)

    def test_too_few_ops_is_a_problem(self):
        problems = metrics.end_to_end("eager_pingpong", fake_run(ops=600, virt_ops=1000))[2]
        self.assertEqual(len(problems), 2)

    def test_chunks_too_small_for_p99_are_a_problem(self):
        problems = metrics.end_to_end("eager_pingpong", fake_run(chunk_ops=500))[2]
        self.assertEqual(len(problems), 1)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_schema(self):
        c = load_benchmark_json()
        self.assertEqual(set(c), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in c["workloads"]], list(WORKLOADS))
        self.assertTrue(1 <= c["run_seconds"] <= 60)
        self.assertLessEqual(len(c["command"]), 32)
        names = [w["name"] for w in c["workloads"]]
        for w in c["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in c["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in c["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in c["end_to_end"] + c["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in c["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in c["end_to_end"]))


@unittest.skipIf(os.environ.get("PERFBENCH_SKIP_SMOKE"), "PERFBENCH_SKIP_SMOKE is set")
class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        spec = load_benchmark_json()
        cmd = [*spec["command"], "--workload", workload, "--seed", "2",
               "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], float, name)
        return result["metrics"]

    def test_untraced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                m = self.run_bench(workload, 0)
                for name in ("host_ops_per_s", "virt_op_p50_us", "setup_s"):
                    self.assertGreater(m[name]["value"], 0.0)

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                m = self.run_bench(workload, 1)
                self.assertGreater(m["net.virt_us_per_msg"]["value"], 0.0)
                self.assertEqual(m["net.frames_dropped"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
