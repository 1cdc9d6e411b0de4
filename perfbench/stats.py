"""Statistics and seeded input schedules of the repository benchmark.

Every number run.py reports goes through these functions, and every
random draw of the serve-zipf workload (Zipf picks, mix choices, Poisson
arrivals) comes from one `random.Random(seed)`, so one seed gives one
schedule. tests/test_stats.py pins both properties.
"""

import bisect
import json
import math
import random


def median(xs):
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def geomean(xs):
    if not xs or min(xs) <= 0:
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def tail_percentile(xs, beyond=10, cap=99):
    """The highest whole percentile, at most `cap`, whose nearest-rank
    value has at least `beyond` samples ranked above it.

    Returns (percentile, value). When that percentile would fall below
    the median (fewer than 2 * beyond samples), no tail percentile is
    supported and the maximum is returned as percentile 100.
    """
    s = sorted(xs)
    n = len(s)
    pct = min(cap, (100 * (n - beyond)) // n)
    if pct < 50:
        return 100, s[-1]
    rank = max(1, math.ceil(pct * n / 100))
    return pct, s[rank - 1]


def hist_percentile(le, buckets, q):
    """Quantile q (0..1) of a fixed-bucket histogram as the service's
    `metrics` verb exposes it: `le` holds the finite upper bounds, and
    `buckets` the per-bucket (not cumulative) counts with the +Inf
    overflow bucket last. Interpolates linearly inside the bucket the
    quantile falls in (lower edge 0 for the first bucket), and answers
    the largest finite bound when it falls in the overflow bucket.
    """
    if len(buckets) != len(le) + 1:
        raise ValueError("buckets must have one more entry than le")
    total = sum(buckets)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for i, count in enumerate(buckets):
        if count and seen + count >= target:
            if i == len(le):
                return float(le[-1])
            lo = 0.0 if i == 0 else float(le[i - 1])
            return lo + (float(le[i]) - lo) * (target - seen) / count
        seen += count
    return float(le[-1])


# ---- serve-zipf schedule ------------------------------------------------

class Zipf:
    """Rank sampler with P(rank k) proportional to 1 / (k + 1)^s."""

    def __init__(self, n, s):
        acc, self.cdf = 0.0, []
        for k in range(n):
            acc += 1.0 / (k + 1) ** s
            self.cdf.append(acc)

    def draw(self, rng):
        return bisect.bisect_left(self.cdf, rng.random() * self.cdf[-1])


def poisson_offsets(rng, rate_per_s, count):
    """Due times in ms from the step start of `count` Poisson arrivals."""
    t, out = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate_per_s) * 1000.0
        out.append(t)
    return out


def serve_schedule(seed, pools, classes, steps, mix, zipf_s, spec=None):
    """The serve-zipf request schedule: a list of
    (step, due_ms, kind, request-json) in send order.

    steps: [(rate per second, request count, mixed), ...], one Poisson
    step each; a step of rate None is a closed loop, marked by due times
    of -1. A step that is not mixed carries Zipf picks only.

    pools: {"hot", "fresh", "edit"} graph6 lists; line j of "fresh" is of
    cold class j mod `classes`.
    mix: {"block": B, "cold": c, "edit": e, "batch": b}: a step of N
    requests carries N c / B cold requests (a fresh graph), N e / B edits
    (a one-edge edit of a hot graph) and N b / B batches (four jobs: a
    fresh graph twice, so the second copy is a dedup hit, and two Zipf
    picks), each count rounded, at seeded positions; the rest are Zipf
    picks from the hot set. The k-th fresh graph a step uses is of class
    k mod the number of classes, so every step meets the same classes in
    the same numbers whatever the seed; no fresh graph or edit is used
    twice. Cold and edit requests ask for the circuit so the benchmark can
    replay it.
    spec: extra compile-spec keys for every compile request and job.
    """
    rng = random.Random(seed)
    spec = spec or {}
    zipf = Zipf(len(pools["hot"]), zipf_s)
    fresh = [iter(pools["fresh"][c::classes]) for c in range(classes)]
    edits = iter(pools["edit"])
    out, rid = [], 0
    for step, (rate, count, mixed) in enumerate(steps):
        kinds = []
        for kind in ("cold", "edit", "batch") if mixed else ():
            kinds += [kind] * int(count * mix[kind] / mix["block"] + 0.5)
        kinds += ["hot"] * (count - len(kinds))
        rng.shuffle(kinds)
        used = 0
        dues = ([-1.0] * count if rate is None
                else poisson_offsets(rng, rate, count))
        for kind, due in zip(kinds, dues):
            req = {"op": "compile", "id": rid}
            if kind in ("cold", "batch"):
                graph = next(fresh[used % classes])
                used += 1
            if kind == "batch":
                jobs = (graph, graph, pools["hot"][zipf.draw(rng)],
                        pools["hot"][zipf.draw(rng)])
                req = {"op": "batch", "id": rid,
                       "jobs": [dict(graph=g, **spec) for g in jobs]}
            elif kind == "cold":
                req.update(graph=graph, circuit=True)
            elif kind == "edit":
                req.update(graph=next(edits), circuit=True)
            else:
                req.update(graph=pools["hot"][zipf.draw(rng)])
            if kind != "batch":
                req.update(spec)
            out.append((step, due, kind,
                        json.dumps(req, separators=(",", ":"))))
            rid += 1
    return out
