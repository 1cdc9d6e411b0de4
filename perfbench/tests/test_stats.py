"""Self-tests of the benchmark's statistics and seeded schedules.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import random
import sys
import types
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import run  # noqa: E402
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        xs = list(range(1, 1001))
        random.Random(1).shuffle(xs)
        self.assertEqual(stats.tail_percentile(xs), (99, 990))

    def test_small_samples_fall_back_to_a_lower_percentile(self):
        pct, value = stats.tail_percentile(list(range(1, 31)))
        self.assertEqual(pct, 66)
        self.assertEqual(value, 20)  # exactly ten samples above it

    def test_at_least_ten_beyond_and_highest_such_percentile(self):
        rng = random.Random(7)
        for n in list(range(20, 60)) + [137, 999, 1000, 1001, 2500]:
            xs = [rng.random() for _ in range(n)]
            pct, value = stats.tail_percentile(xs)
            self.assertGreaterEqual(sum(1 for x in xs if x > value), 10, n)
            self.assertLessEqual(pct, 99)
            if pct < 99:  # one percentile higher would leave fewer than ten
                self.assertLess(n - -(-(pct + 1) * n // 100), 10, n)

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(stats.tail_percentile([3, 1, 2]), (100, 3))
        # Twelve samples: only p16 has ten beyond it, which is no tail.
        self.assertEqual(stats.tail_percentile(list(range(12))), (100, 11))
        self.assertEqual(stats.tail_percentile(list(range(1, 21))), (50, 10))


class Averages(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(stats.geomean([2, 8, 4]), 4.0)
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])

    def test_median(self):
        self.assertEqual(stats.median([5, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)


class HistogramPercentile(unittest.TestCase):
    # The shape the service's `metrics` verb exposes.
    LE = [0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000]

    def test_interpolates_inside_the_bucket(self):
        buckets = [0] * 15
        buckets[2] = 10  # ten waits in (1, 2] ms
        self.assertAlmostEqual(
            stats.hist_percentile(self.LE, buckets, 0.5), 1.5)
        self.assertAlmostEqual(
            stats.hist_percentile(self.LE, buckets, 0.99), 1.99)

    def test_first_bucket_starts_at_zero(self):
        buckets = [4] + [0] * 14
        self.assertAlmostEqual(
            stats.hist_percentile(self.LE, buckets, 0.5), 0.25)

    def test_tail_in_a_later_bucket(self):
        buckets = [0] * 15
        buckets[0], buckets[7] = 99, 1  # one slow request in (50, 100]
        self.assertAlmostEqual(
            stats.hist_percentile(self.LE, buckets, 0.99), 0.5)
        self.assertAlmostEqual(
            stats.hist_percentile(self.LE, buckets, 0.995), 75.0)

    def test_overflow_answers_the_last_bound(self):
        buckets = [0] * 14 + [3]
        self.assertEqual(stats.hist_percentile(self.LE, buckets, 0.5), 10000)

    def test_empty_histogram_and_bad_shape(self):
        self.assertEqual(stats.hist_percentile(self.LE, [0] * 15, 0.99), 0.0)
        with self.assertRaises(ValueError):
            stats.hist_percentile(self.LE, [0] * 14, 0.5)


class Schedules(unittest.TestCase):
    POOLS = {"hot": ["h%d" % i for i in range(32)],
             # Line j is of class j mod 4, as gen-serve writes it.
             "fresh": ["f%d.%d" % (j % 4, j) for j in range(400)],
             "edit": ["e%d" % i for i in range(400)]}
    MIX = {"block": 100, "cold": 5, "edit": 4, "batch": 1}

    def schedule(self, seed, spec=None):
        return stats.serve_schedule(seed, self.POOLS, 4, [(100, 1000, True),
                                                          (400, 1000, True),
                                                          (None, 500, False)],
                                    self.MIX, 1.1, spec)

    def test_one_seed_one_schedule(self):
        self.assertEqual(self.schedule(3), self.schedule(3))
        self.assertNotEqual(self.schedule(3), self.schedule(4))

    def test_poisson_arrivals(self):
        offs = stats.poisson_offsets(random.Random(5), 200.0, 5000)
        self.assertEqual(offs, stats.poisson_offsets(random.Random(5), 200.0,
                                                     5000))
        self.assertTrue(all(b > a for a, b in zip(offs, offs[1:])))
        self.assertAlmostEqual(offs[-1] / len(offs), 5.0, delta=0.25)

    def test_zipf_prefers_low_ranks(self):
        rng = random.Random(11)
        zipf = stats.Zipf(32, 1.1)
        draws = [zipf.draw(rng) for _ in range(20000)]
        counts = [draws.count(k) for k in range(32)]
        self.assertEqual(max(range(32), key=counts.__getitem__), 0)
        self.assertGreater(counts[0], 5 * counts[31])
        self.assertTrue(all(0 <= d < 32 for d in draws))

    def test_mix_and_unique_cold_graphs(self):
        sched = self.schedule(9)
        self.assertEqual(len(sched), 2500)
        self.assertEqual([s[0] for s in sched],
                         [0] * 1000 + [1] * 1000 + [2] * 500)
        self.assertEqual({(s[1], s[2]) for s in sched if s[0] == 2},
                         {(-1.0, "hot")})
        for step in (0, 1):  # fixed counts in every step
            kinds = [s[2] for s in sched if s[0] == step]
            self.assertEqual([kinds.count(k) for k in ("cold", "edit",
                                                       "batch")],
                             [50, 40, 10])
        cold = [json.loads(s[3])["graph"] for s in sched if s[2] == "cold"]
        self.assertEqual(len(cold), len(set(cold)))
        edits = [json.loads(s[3])["graph"] for s in sched if s[2] == "edit"]
        self.assertEqual(len(edits), len(set(edits)))
        self.assertTrue(all('"circuit":true' in s[3] for s in sched
                            if s[2] in ("cold", "edit")))

    def test_every_step_meets_the_same_cold_classes(self):
        def classes(seed):
            out = []
            for step in (0, 1):
                used = []
                for s in self.schedule(seed):
                    req = json.loads(s[3])
                    if s[0] == step and s[2] in ("cold", "batch"):
                        graph = (req["jobs"][0] if s[2] == "batch"
                                 else req)["graph"]
                        used.append(int(graph[1:].split(".")[0]))
                out.append(sorted(used))
            return out
        # 60 fresh graphs per step: 15 of each of the 4 classes.
        self.assertEqual(classes(2), [sorted(list(range(4)) * 15)] * 2)
        self.assertEqual(classes(2), classes(5))

    def test_spec_reaches_every_compile(self):
        for _, _, kind, line in self.schedule(4, {"budget_ms": 7}):
            req = json.loads(line)
            for job in req["jobs"] if kind == "batch" else [req]:
                self.assertEqual(job["budget_ms"], 7)


class RateSteps(unittest.TestCase):
    def test_step_rows_time_each_request_from_its_due_time(self):
        rows = [[0, "hot", "memory", 1, 1.0, 0.5, -1, 10.0],
                [1, "hot", "memory", 1, 2.0, 0.5, -1, 5.0],
                [1, "cold", "queue_full", 0, 3.0, 0.25, -1, 20.0]]
        self.assertEqual(run.step_rows(rows, 1),
                         [(2.0, 0.5, 5.5, 7.0),
                          (float("inf"), 0.25, 20.25, 23.0)])

    def test_a_steady_step_meets_the_limit(self):
        reqs = [(1.0, 0.1, 10.0 * i, 10.0 * i + 1.0) for i in range(1000)]
        step = run.step_stats(reqs, 100)
        self.assertTrue(step["ok"])
        self.assertEqual((step["pct"], step["p99"], step["growth"]),
                         (99, 1.0, 0.0))

    def test_a_growing_backlog_fails_the_step(self):
        # Each response takes 20 ms longer than the last: the queue grows.
        reqs = [(20.0 * i, 0.1, 10.0 * i, 30.0 * i) for i in range(1000)]
        step = run.step_stats(reqs, 100)
        self.assertGreater(step["growth"], 50)
        self.assertFalse(step["ok"])

    def test_completion_rate_drops_the_first_and_last_tenth(self):
        # A response every ms, then one straggler 40 ms late.
        reqs = [(0.0, 0.0, 0.0, float(r)) for r in range(99)]
        reqs.append((0.0, 0.0, 0.0, 140.0))
        self.assertAlmostEqual(run.completion_rps(reqs), 1000.0)


class ClusterPids(unittest.TestCase):
    def test_asks_again_while_a_worker_is_busy(self):
        # The front's health verb leaves out the pid of a worker whose
        # liveness probe is in flight.
        answers = iter([
            {"workers": [{"worker": 0, "busy": True, "up": True},
                         {"worker": 1, "pid": 12}]},
            {"workers": [{"worker": 0, "pid": 11},
                         {"worker": 1, "pid": 12}]}])
        cluster = run.Cluster.__new__(run.Cluster)
        cluster.proc = types.SimpleNamespace(pid=10)
        cluster.call = lambda req: next(answers)
        self.assertEqual(cluster.pids(), [10, 11, 12])


if __name__ == "__main__":
    unittest.main()
