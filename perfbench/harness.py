"""Statistics and accounting rules of the membw repository benchmark.

run.py turns the driver's raw results into metrics with these
functions; test_harness.py checks the rules one by one.
"""

import json
import math
import statistics
from collections import defaultdict

# A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

# Span name -> the per-layer time metrics its self time adds to.
LAYER_TIMES = {
    "workloads.gen": ("workloads.gen_s",),
    "cpu.instr_stream": ("cpu.instr_stream_s",),
    "cpu.phase_perfect": ("cpu.phase_perfect_s",),
    "cpu.phase_infinite": ("cpu.phase_infinite_s",),
    "cpu.phase_full": ("cpu.phase_full_s",),
    "dram.phase_full": ("dram.phase_full_s",),
    "trace.block_stream": ("trace.block_stream_s",),
    "exec.sweep": ("exec.sweep_s",),
    "cache.stack_distance": ("cache.stack_distance_s",),
    "cache.direct": ("cache.direct_s",),
    "cache.direct_fa": ("cache.direct_s", "cache.direct_fa_s"),
    "mtc.next_use": ("mtc.next_use_s",),
    "mtc.run": ("mtc.run_s",),
}
# Layers timed during input generation, per set-up round.
SETUP_TIMES = {"workloads.gen_s", "cpu.instr_stream_s"}
# The pool fan-out: the parent of every fanned call, not work itself.
FANOUT = "exec.fanout"
# Seconds the driver's reference loop takes (about its time on the
# 4-core Xeon host the benchmark was tuned on).  Host times are
# reported in reference seconds: measured seconds x REFERENCE_LOOP_S /
# the loop time measured beside them, so a slower moment of a shared
# host does not read as a slower program.
REFERENCE_LOOP_S = 0.015


def percentile(values, q):
    """Nearest-rank q-quantile of values.

    Above the median the quantile needs TAIL_SAMPLES samples beyond
    it, so p99 needs 1000 samples; with fewer it raises ValueError
    rather than report a tail that rests on a handful of points.
    """
    return sorted(values)[_rank(len(values), q)]


def _rank(n, q):
    if n == 0:
        raise ValueError("no samples")
    if q > 0.5 and n * (1.0 - q) < TAIL_SAMPLES - 1e-9:
        need = math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)
        raise ValueError(f"p{q * 100:g} needs {need} samples, got {n}")
    return max(0, math.ceil(q * n) - 1)


def outcome_counts(records):
    """(attempted, failed) over served requests.

    Every request sent is attempted.  A busy, error or degraded
    envelope, a lost connection, or a body that differs from the
    in-process render fails.
    """
    failed = sum(1 for r in records if r["status"] != "ok" or not r["match"])
    return len(records), failed


def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is not None and start <= cur_end:
            cur_end = max(cur_end, end)
            continue
        if cur_end is not None:
            total += cur_end - cur_start
        cur_start, cur_end = start, end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(parent, children):
    """A span's duration minus the part of it its children cover."""
    start, end = parent
    return (end - start) - union_length(children, start, end)


def _plain(raw):
    return [p for p in raw["passes"] if not p["traced"]]


def reference_seconds(seconds, loop_s):
    """Measured seconds in reference seconds, given the loop time beside them."""
    return seconds * REFERENCE_LOOP_S / loop_s


def host_factors(raw):
    """Pass number -> the factor that turns its seconds into reference seconds.

    A pass is scaled by the reference loops run beside it; a batch
    set-up round -1 - i by the loop run right after it.
    """
    factors = {p["pass"]: reference_seconds(1.0, p["ref_s"]) for p in raw["passes"]}
    for i, ref in enumerate(raw.get("setup_ref_s", [])):
        factors[-1 - i] = reference_seconds(1.0, ref)
    return factors


def _wall(p):
    return reference_seconds(p["wall_s"], p["ref_s"])


def answers(raw, passes):
    """(kind, ms) of every answer in the given passes.

    A served request's kind is "warm" when it repeats a request the
    daemon has answered before, else "cold"; a batch answer's kind is
    the layer call that made it.
    """
    factor = host_factors(raw)
    ids = {p["pass"] for p in passes}
    if raw["workload"] == "served_mix":
        return [("warm" if r["warm"] else "cold", r["ms"] * factor[r["pass"]])
                for r in raw["requests"] if r["pass"] in ids]
    return [(s["name"], s["ms"] * factor[s["pass"]])
            for s in raw["samples"] if s["pass"] in ids]


def end_to_end(raw):
    """The end-to-end metrics of a plain run, times in reference seconds."""
    plain = _plain(raw)
    wall = [_wall(p) for p in plain]
    latency = [ms for _, ms in answers(raw, plain)]
    if raw["workload"] == "served_mix":
        setup = statistics.median(reference_seconds(p["setup_s"], p["ref_s"])
                                  for p in plain)
    else:
        setup = statistics.median(map(reference_seconds, raw["setup_s"],
                                      raw["setup_ref_s"]))
    return {
        "setup_s": setup,
        "wall_s": statistics.median(wall),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "p50_ms": percentile(latency, 0.50),
        "p99_ms": percentile(latency, 0.99),
        # Answers per pass over the median pass, steadier on a noisy
        # host than all answers over all pass time.
        "served_rps": len(latency) / len(plain) / statistics.median(wall),
    }


def breakdown(raw):
    """The answers of the plain passes, kind by kind.

    Returns (kinds, at): kinds maps each kind to its count, p50, p99
    (None with too few samples) and share of all answer time; at
    names the kind of the answer that is the p50 and the p99 of all
    answers.  This shows what each latency figure is made of, so a
    change can be judged apart from the mix of kinds.
    """
    pairs = answers(raw, _plain(raw))
    total = sum(ms for _, ms in pairs)
    groups = defaultdict(list)
    for kind, ms in pairs:
        groups[kind].append(ms)
    kinds = {}
    for kind, values in sorted(groups.items()):
        try:
            p99 = percentile(values, 0.99)
        except ValueError:
            p99 = None
        kinds[kind] = {"count": len(values), "p50_ms": percentile(values, 0.5),
                       "p99_ms": p99, "time_share": sum(values) / total}
    ordered = sorted(pairs, key=lambda pair: pair[1])
    at = {}
    for name, q in (("p50_ms", 0.5), ("p99_ms", 0.99)):
        try:
            at[name] = ordered[_rank(len(ordered), q)][0]
        except ValueError:
            pass
    return kinds, at


def _serve_metrics(raw, traced):
    pairs = answers(raw, traced)
    warm = [ms for kind, ms in pairs if kind == "warm"]
    cold = [ms for kind, ms in pairs if kind == "cold"]
    stats = [json.loads(p["stats"]) for p in traced]
    answered = sum(warm) + sum(cold)

    def total(key):
        return sum(s.get(key, 0) for s in stats)

    def ratio(hits, misses):
        attempts = total(hits) + total(misses)
        return total(hits) / attempts if attempts else 0.0

    def per_pass(key):
        return statistics.median(s.get(key, 0) for s in stats)

    return {
        "serve.warm_p50_ms": percentile(warm, 0.5) if warm else 0.0,
        "serve.cold_p50_ms": percentile(cold, 0.5) if cold else 0.0,
        "serve.cold_requests": len(cold) / len(traced),
        "serve.cold_time_share": sum(cold) / answered if answered else 0.0,
        "serve.result_hit_ratio": ratio("result_hits", "result_misses"),
        "serve.artifact_hit_ratio": ratio("artifact_hits", "artifact_misses"),
        "serve.coalesced": per_pass("coalesced"),
        "serve.busy_rejected": per_pass("busy_rejected"),
        "serve.executed": per_pass("executed"),
    }


def layer_metrics(raw, names):
    """The per-layer metrics of a traced run, by name.

    Layer times are self times in reference seconds summed per pass,
    median over the traced passes (set-up layers: over the set-up
    rounds).  Layers a workload never calls read 0.
    """
    out = dict.fromkeys(names, 0.0)
    traced = [p for p in raw["passes"] if p["traced"]]
    plain = _plain(raw)
    spans = raw["spans"]
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))

    factors = host_factors(raw)
    by_pass = defaultdict(lambda: defaultdict(float))
    for s in spans:
        own = (self_time((s["start_ns"], s["end_ns"]), children[s["id"]]) / 1e9
               * factors[s["pass"]])
        for metric in LAYER_TIMES.get(s["name"], ()):
            by_pass[metric][s["pass"]] += own
    setup_rounds = sorted({s["pass"] for s in spans if s["pass"] < 0})
    for metric, sums in by_pass.items():
        rounds = setup_rounds if metric in SETUP_TIMES else [p["pass"] for p in traced]
        if rounds:
            out[metric] = statistics.median(sums.get(r, 0.0) for r in rounds)

    waits, busy, coverage = [], [], []
    for p in traced:
        mine = [s for s in spans if s["pass"] == p["pass"]]
        fans = {s["id"]: s for s in mine if s["name"] == FANOUT}
        fanned = [s for s in mine if s["parent"] in fans]
        if fans:
            waits.append(sum(s["start_ns"] - s["submit_ns"] for s in fanned) / 1e9
                         * factors[p["pass"]])
            capacity = raw["jobs"] * sum(f["end_ns"] - f["start_ns"] for f in fans.values())
            busy.append(sum(s["end_ns"] - s["start_ns"] for s in fanned) / capacity)
        work = [(s["start_ns"], s["end_ns"]) for s in mine if s["name"] != FANOUT]
        coverage.append(union_length(work, p["start_ns"], p["end_ns"])
                        / (p["end_ns"] - p["start_ns"]))
    if waits:
        out["exec.pool_wait_s"] = statistics.median(waits)
        out["exec.pool_busy_frac"] = statistics.median(busy)
    if coverage:
        out["tracing.span_coverage"] = statistics.median(coverage)
    if traced and plain:
        out["tracing.overhead_s"] = (statistics.median(_wall(p) for p in traced)
                                     - statistics.median(_wall(p) for p in plain))
    if "host.reference_loop_s" in out:
        out["host.reference_loop_s"] = statistics.median(
            p["ref_s"] for p in raw["passes"])

    counts = dict(raw.get("setup_counts", {}))
    if traced:
        counts.update(traced[0].get("counts", {}))
        if raw["workload"] == "served_mix":
            counts.update(_serve_metrics(raw, traced))
    for name, value in counts.items():
        if name in out:
            out[name] = value
    return out


def batch_outcome(raw, expected_digest=None):
    """(attempted, failed, problems) of a batch run.

    Attempted operations are the answer calls of the timed passes and
    the direct-simulation checks.  A call that threw, every call of a
    pass whose statistics digest differs from the reference, and a
    failed check fail.  The reference digest is the committed one at
    the default seed, else the first pass's; simulated counts must be
    the same in every pass, plain or traced, and every call of a pass
    whose counts differ from pass 0's fails too.
    """
    passes = raw["passes"]
    timed = {p["pass"] for p in passes}
    samples = [s for s in raw["samples"] if s["pass"] in timed]
    failed = sum(1 for s in samples if not s["ok"])
    problems = [f"call failed: {f}" for f in raw["failures"]]
    reference = expected_digest or passes[0]["digest"]
    for p in passes:
        kind = "traced" if p["traced"] else "plain"
        wrong = []
        if p["digest"] != reference:
            wrong.append(f"statistics digest {p['digest']}, expected {reference}")
        if p["counts"] != passes[0]["counts"]:
            wrong.append("simulated counts differ from pass 0")
        if wrong:
            failed += sum(1 for s in samples if s["pass"] == p["pass"] and s["ok"])
            problems.extend(f"{kind} pass {p['pass']}: {w}" for w in wrong)
    for c in raw["checks"]:
        if not c["ok"]:
            failed += 1
            problems.append(f"check failed: {c['name']}")
    return len(samples) + len(raw["checks"]), failed, problems


def served_outcome(raw):
    """(attempted, failed, problems) of a served_mix run."""
    timed = {p["pass"] for p in raw["passes"]}
    attempted, failed = outcome_counts(
        [r for r in raw["requests"] if r["pass"] in timed])
    problems = [f"call failed: {f}" for f in raw["failures"]]
    if failed:
        problems.append(f"{failed} responses were busy, failed, or differed "
                        "from the in-process render")
    return attempted, failed, problems
