"""Self-test of the benchmark: its checkers reject corrupted results, and its
self-time arithmetic is right on synthetic nested spans.

    python3 bench/selftest.py        # from the checkout root
"""
import cmath
import dataclasses
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as w  # noqa: E402
from run import make_workload, tail  # noqa: E402
from schurrec import Partition as P  # noqa: E402
from schurrec.recurrence import VerifyResult  # noqa: E402
from spans import Tracer, layer_times, tracer_layer_times  # noqa: E402
from speed import REF_LOOP_S, Sampler, report_time  # noqa: E402

TESTDATA = BENCH / "testdata"


class FamilyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        fam = (P([1]), P(), P([2, 1]), P(), 3)
        cls.inp = w.family_input(fam, random.Random(0), random.Random(1))
        cls.out = w.family_op(cls.inp)

    def test_real_result_passes(self):
        self.assertIsNone(w.check_family(self.inp, self.out))

    def test_dropped_minimal_root_fails(self):
        seq, chi, cert, rep = self.out
        corrupted = dataclasses.replace(rep, weights=rep.weights[:-1])
        self.assertIsNotNone(w.check_family(self.inp, (seq, chi, cert, corrupted)))

    def test_foreign_minimal_root_fails(self):
        seq, chi, cert, rep = self.out
        foreign = (99,) + tuple(rep.weights[0][1:])
        corrupted = dataclasses.replace(rep, weights=[foreign] + list(rep.weights[1:]))
        self.assertIn("divide", w.check_family(self.inp, (seq, chi, cert, corrupted)))

    def test_refuted_certificate_fails(self):
        seq, chi, _, rep = self.out
        self.assertIsNotNone(w.check_family(self.inp, (seq, chi, VerifyResult(False, seq.r), rep)))

    def test_wrong_bm_degree_fails(self):
        seq, chi, cert, rep = self.out
        corrupted = dataclasses.replace(rep, bm_degrees=[len(rep.weights) + 1] * 3)
        self.assertIsNotNone(w.check_family(self.inp, (seq, chi, cert, corrupted)))


class RootsChecks(unittest.TestCase):
    def test_dropped_root_fails(self):
        inp = {"family": (P(), P(), P([2, 1]), P(), 3), "xi": (1.1 * cmath.exp(0.3j), 1.1 * cmath.exp(2.1j)), "kmax": 3}
        seq, result = w.roots_op(inp)
        self.assertIsNone(w.check_roots(inp, (seq, result)))
        cloud = result.clouds[-1]
        result.clouds[-1] = dataclasses.replace(cloud, roots=cloud.roots[1:])
        self.assertIsNotNone(w.check_roots(inp, (seq, result)))


class CliChecks(unittest.TestCase):
    golden = {"kind": "golden", "golden": "verify.json", "args": []}

    def test_golden_bytes_pass(self):
        stdout = (w.GOLDEN / "verify.json").read_bytes()
        self.assertIsNone(w.check_cli(self.golden, (0, stdout, b"")))

    def test_one_changed_byte_fails(self):
        stdout = (TESTDATA / "verify.one-byte-changed.json").read_bytes()
        self.assertEqual(len(stdout), len((w.GOLDEN / "verify.json").read_bytes()))
        self.assertIsNotNone(w.check_cli(self.golden, (0, stdout, b"")))

    def test_nonzero_exit_fails(self):
        stdout = (w.GOLDEN / "verify.json").read_bytes()
        self.assertIsNotNone(w.check_cli(self.golden, (2, stdout, b"")))

    def test_refuted_fields_fail(self):
        refuted = b'{"ok": false, "start": 0, "degree": 2, "verified_upto": null}'
        self.assertIsNotNone(w.check_cli({"kind": "verify"}, (0, refuted, b"")))
        minimality = b'{"conjecture": "REFUTED-MINIMALITY", "minimal_matches": false}'
        self.assertIsNotNone(w.check_cli({"kind": "conjecture"}, (0, minimality, b"")))

    def test_live_command_passes(self):
        inp = w.cli_input("golden", w.GOLDEN_CASES[2], random.Random(0))
        self.assertIsNone(w.check_cli(inp, w.run_child(w.cli_command(inp, traced=False))))


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        # A [0,10] has children B [1,4], E [3.5,6] (overlapping B) and D [5,9];
        # C [2,3] is inside B.  A's children cover [1,9].
        names = ["A", "B", "C", "D", "E"]
        spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0), (4, 3.5, 6.0, 0)]
        times = layer_times(names, *zip(*spans))
        self.assertAlmostEqual(times["A"]["self_s"], 2.0)
        self.assertAlmostEqual(times["B"]["self_s"], 2.0)
        self.assertAlmostEqual(times["C"]["self_s"], 1.0)
        self.assertAlmostEqual(times["D"]["self_s"], 4.0)
        self.assertAlmostEqual(times["E"]["self_s"], 2.5)
        self.assertAlmostEqual(times["A"]["busy_s"], 10.0)

    def test_recursion_counts_busy_once(self):
        names = ["X", "Y"]
        spans = [(0, 0.0, 5.0, -1), (0, 1.0, 2.0, 0), (1, 2.5, 3.0, 0), (0, 2.6, 2.8, 2)]
        times = layer_times(names, *zip(*spans))
        self.assertEqual(times["X"]["calls"], 3)
        self.assertAlmostEqual(times["X"]["busy_s"], 5.0)
        self.assertAlmostEqual(times["X"]["self_s"], 3.5 + 1.0 + 0.2)
        self.assertAlmostEqual(times["Y"]["self_s"], 0.3)

    def test_self_times_sum_to_root_duration(self):
        tracer = Tracer()

        def leaf():
            return sum(range(1000))

        def middle():
            return [traced_leaf() for _ in range(3)]

        traced_leaf = tracer.wrap(leaf, "leaf")
        traced_middle = tracer.wrap(middle, "middle")
        items = tracer.wrap_generator(lambda: iter(range(4)), "gen", "items")
        tracer.active = True
        root = tracer.open("root")
        traced_middle()
        self.assertEqual(list(items()), [0, 1, 2, 3])
        tracer.close(root)
        tracer.active = False
        times = tracer_layer_times(tracer)
        self.assertEqual(times["leaf"]["calls"], 3)
        self.assertEqual(tracer.counts["items"], 4)
        self_sum = sum(t["self_s"] for t in times.values())
        self.assertAlmostEqual(self_sum, times["root"]["busy_s"], places=12)


class Sampling(unittest.TestCase):
    def test_digest_takes_the_middle_of_each_cost_block(self):
        self.assertEqual(w.cost_digest(range(100), lambda x: -x, 10), [94, 84, 74, 64, 54, 44, 34, 24, 14, 4])
        self.assertEqual(w.cost_digest(range(7), lambda x: x, 7), list(range(7)))

    def test_passes_repeat_the_inputs_in_seeded_orders(self):
        passes = make_workload("library").passes(random.Random(3))
        first, second = next(passes), next(passes)
        self.assertEqual(sorted(first, key=repr), sorted(second, key=repr))
        self.assertNotEqual(first, second)
        self.assertEqual(next(make_workload("library").passes(random.Random(3))), first)

    def test_tail_percentile(self):
        value, pct, beyond = tail([float(i) for i in range(100)])
        self.assertEqual((value, pct, beyond), (89.0, 90.0, 10))


class Speed(unittest.TestCase):
    def test_work_time_leaves_out_the_samples_taken_inside(self):
        sampler = Sampler()
        with sampler.running():
            def op():
                for _ in range(3):
                    sampler._sample()

            _, work_s, loop_s = sampler.timed(op)
        # the sample taken on entering running() and the three inside
        self.assertGreaterEqual(len(sampler.durations), 4)
        inside = sampler.durations[-3:]
        self.assertLess(work_s, 0.5 * sum(inside))
        self.assertAlmostEqual(loop_s, sum(sampler.durations[-4:]) / 4)

    def test_reference_speed_time(self):
        # an op that ran while the loop took twice its reference time takes
        # half as long at the reference speed
        self.assertAlmostEqual(report_time(0.8, 2 * REF_LOOP_S), 0.4)
        self.assertAlmostEqual(report_time(0.8, REF_LOOP_S), 0.8)


if __name__ == "__main__":
    unittest.main()
