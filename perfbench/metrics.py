"""Metric arithmetic of the repository benchmark.

The benchmark binary writes a raw record (sample series, single values
and spans); this module turns it into the end-to-end and per-layer
metrics named in BENCHMARK.json, and the traced spans into a Chrome
Trace Event file plus a per-layer self-time table. Everything here is
pure arithmetic, covered by test_metrics.py.
"""

import json
import math
import statistics

# Percentiles a tail metric may report; the highest one with at least
# TAIL_MIN_BEYOND samples beyond it is chosen. The coarse standard set
# keeps the choice stable: a run of 250 served requests reports p90 (25
# beyond) rather than p95 (12 beyond), whose run-to-run spread was 9%.
TAIL_GRID = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
# A run of at least two windows of this many samples reports the median
# of its windows' p90: the percentile stays p90 however many samples a
# run holds (the pooled rule jumps to p99 at 1000), and a part of the
# run that a shared host slowed down moves it less.
TAIL_WINDOW = 100

# Serving limit for goodput: the tail stays within this, no request
# fails, and the backlog does not grow over the window.
GOODPUT_TAIL_LIMIT_MS = 250.0

SERVE_PROGRAMS = ("stats", "mean", "affine")

END_TO_END = (
    ("setup_s", "s"),
    ("mem_peak_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rotate_p50_ms", "ms"),
    ("precision_bits", "bits"),
)

# (name, unit, better); the order BENCHMARK.json lists them in.
PER_LAYER = (
    ("core.device.launches_per_op", "count", "lower"),
    ("core.device.kernels_per_op", "count", "lower"),
    ("core.device.joins_per_op", "count", "lower"),
    ("core.device.computed_mb_per_op", "MB", "lower"),
    ("core.device.model_us_per_op", "us", "lower"),
    ("core.device.pool_reserved_mb", "MB", "lower"),
    ("core.ntt.fwd_ms", "ms", "lower"),
    ("core.ntt.inv_ms", "ms", "lower"),
    ("ckks.kernels.to_eval_ms", "ms", "lower"),
    ("ckks.kernels.to_coeff_ms", "ms", "lower"),
    ("ckks.basechange.modup_ms", "ms", "lower"),
    ("ckks.basechange.moddown_ms", "ms", "lower"),
    ("ckks.basechange.rescale_ms", "ms", "lower"),
    ("ckks.keyswitch.decompose_ms", "ms", "lower"),
    ("ckks.keyswitch.inner_ms", "ms", "lower"),
    ("ckks.evaluator.enqueue_ms", "ms", "lower"),
    ("ckks.evaluator.drain_ms", "ms", "lower"),
    ("ckks.evaluator.host_cpu_us", "us", "lower"),
    ("ckks.graph.hits_per_op", "count", "higher"),
    ("ckks.graph.misses", "count", "lower"),
    ("ckks.graph.keys", "count", "lower"),
    ("ckks.graph.arena_mb", "MB", "lower"),
    ("ckks.graph.capture_ms", "ms", "lower"),
    ("ckks.bootstrap.c2s_ms", "ms", "lower"),
    ("ckks.bootstrap.evalmod_ms", "ms", "lower"),
    ("ckks.bootstrap.s2c_ms", "ms", "lower"),
    ("ckks.serial.upload_ms", "ms", "lower"),
    ("ckks.serial.download_ms", "ms", "lower"),
    ("serve.router.submit_us", "us", "lower"),
    ("serve.router.shard_skew", "ratio", "lower"),
    ("serve.server.queue_depth_max", "count", "lower"),
    ("serve.server.batched_share", "ratio", "higher"),
    ("serve.server.dispatch_us_per_op", "us", "lower"),
    ("serve.server.failed", "count", "lower"),
) + tuple(
    ("serve.server.service_ms." + p, "ms", "lower") for p in SERVE_PROGRAMS
) + tuple(
    ("serve.server.queue_wait_ms." + p, "ms", "lower") for p in SERVE_PROGRAMS
) + (
    ("serve.goodput_rps", "1/s", "higher"),
    ("bench.gen.late_ms_p50", "ms", "lower"),
    ("bench.gen.late_ms_max", "ms", "lower"),
    ("bench.trace.coverage", "ratio", "higher"),
    ("bench.trace.overhead", "ratio", "lower"),
)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile of @values (p in (0, 100])."""
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def tail_at(values, p):
    """(p, the p-th percentile of @values, samples beyond its rank)."""
    n = len(values)
    return (p, percentile(values, p), n - max(1, math.ceil(p / 100.0 * n)))


def pooled_tail(values):
    """(percentile, value, samples beyond it) over all of @values.

    The highest TAIL_GRID percentile with at least TAIL_MIN_BEYOND
    samples above its rank. A run too short for any of them (a few
    multi-second bootstraps) falls back to its median: the maximum of
    a handful of samples would not repeat from run to run.
    """
    best = tail_at(values, 50.0)
    for p in TAIL_GRID:
        t = tail_at(values, p)
        if t[2] >= TAIL_MIN_BEYOND:
            best = t
    return best


def windows(values, size=TAIL_WINDOW):
    """@values (in sample order) cut into len // size consecutive
    windows of near-equal length, none shorter than @size."""
    k = len(values) // size
    return [values[i * len(values) // k:(i + 1) * len(values) // k]
            for i in range(k)]


def tail(values):
    """(percentile, value, samples beyond it) of the tail metric.

    A run of at least two TAIL_WINDOW windows takes, in each window,
    the percentile the shortest window allows, and reports the median
    of those; the samples beyond are summed. A shorter run reports its
    pooled tail.
    """
    parts = windows(values)
    if len(parts) < 2:
        return pooled_tail(values)
    p = pooled_tail(min(parts, key=len))[0]
    tails = [tail_at(w, p) for w in parts]
    return (p, median([t[1] for t in tails]), sum(t[2] for t in tails))


def backlog_grows(latencies, limit_ms=GOODPUT_TAIL_LIMIT_MS):
    """True when latency climbs over a window (in send order).

    A queue that keeps up shows the same latencies early and late; a
    growing backlog shows late requests waiting far longer. Compares
    the medians of the first and last quarters: the last must exceed
    twice the first and by half the latency limit, so a burst in a
    short window is not read as a backlog.
    """
    q = len(latencies) // 4
    if q == 0:
        return False
    first = median(latencies[:q])
    last = median(latencies[-q:])
    return last > 2.0 * first and last - first > 0.5 * limit_ms


def rate_passes(latencies, failed, limit_ms=GOODPUT_TAIL_LIMIT_MS):
    if failed or not latencies:
        return False
    return (tail(latencies)[1] <= limit_ms
            and not backlog_grows(latencies, limit_ms))


def goodput(points, limit_ms=GOODPUT_TAIL_LIMIT_MS):
    """Highest grid rate that passes, ascending until the first miss.

    @points: (rate, latencies in send order, failed count) tuples.
    """
    best = 0.0
    for rate, lat, failed in sorted(points, key=lambda p: p[0]):
        if not rate_passes(lat, failed, limit_ms):
            break
        best = float(rate)
    return best


def layer_of(name):
    """Module of a span: its first two dotted components."""
    return ".".join(name.split(".")[:2])


def _covered(start, end, intervals):
    """Length of the union of @intervals clipped to [start, end]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: duration minus covered child time.

    @spans: [name, start_us, end_us, parent_index, request, thread].
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - _covered(s[1], s[2], children[i])
        for i, s in enumerate(spans)
    ]


def coverage(spans):
    """Median share of each root span's wall time its children cover."""
    children = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    shares = []
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        if s[3] < 0 and dur > 0:
            shares.append(_covered(s[1], s[2], children.get(i, [])) / dur)
    return median(shares)


def self_time_table(spans):
    """Per-layer rows: (layer, spans, total ms, self ms), by self time."""
    rows = {}
    for s, own in zip(spans, self_times(spans)):
        r = rows.setdefault(layer_of(s[0]), [0, 0.0, 0.0])
        r[0] += 1
        r[1] += (s[2] - s[1]) / 1e3
        r[2] += own / 1e3
    return sorted(
        ((k, v[0], v[1], v[2]) for k, v in rows.items()),
        key=lambda r: -r[3],
    )


def chrome_trace(spans):
    """Chrome Trace Event JSON (Perfetto loads it as-is).

    Spans a thread opens and closes are complete ("X") events on that
    thread. Request roots are asynchronous ("b"/"e") events: they
    start at the request's due time and overlap one another.
    """
    events = []
    for i, (name, start, end, parent, req, tid) in enumerate(spans):
        args = {"span": i, "parent": parent}
        if req:
            args["request"] = req
        cat = layer_of(name)
        if parent < 0 and req:
            common = {"name": name, "cat": cat, "id": i, "pid": 1,
                      "tid": tid}
            events.append(dict(common, ph="b", ts=start, args=args))
            events.append(dict(common, ph="e", ts=end))
        else:
            events.append({"name": name, "cat": cat, "ph": "X", "ts": start,
                           "dur": end - start, "pid": 1, "tid": tid,
                           "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def check_nesting(trace):
    """Raises ValueError unless the complete events of every thread
    nest properly (each starts after, or ends within, the enclosing
    one)."""
    by_thread = {}
    for e in trace["traceEvents"]:
        if e["ph"] == "X":
            by_thread.setdefault((e["pid"], e["tid"]), []).append(e)
    for events in by_thread.values():
        stack = []
        for e in sorted(events, key=lambda e: (e["ts"], -e["dur"])):
            end = e["ts"] + e["dur"]
            while stack and stack[-1] <= e["ts"]:
                stack.pop()
            if stack and end > stack[-1]:
                raise ValueError("span %s overlaps its enclosing span"
                                 % e["name"])
            stack.append(end)


def end_to_end(rec):
    """The end-to-end metrics of an untraced run, plus tail details."""
    series, values = rec["series"], rec["values"]
    lat = series.get("latency_ms", [])
    pct, tail_value, beyond = tail(lat) if lat else (0.0, 0.0, 0)
    metrics = {
        "setup_s": median(series.get("setup_s", [])),
        "mem_peak_mb": values.get("mem_peak_mb", 0.0),
        "p50_ms": percentile(lat, 50.0) if lat else 0.0,
        "tail_ms": tail_value,
        "rotate_p50_ms": median(series.get("rotate_ms", [])),
        # -log2 of the largest slot error over every checked output.
        "precision_bits": min(series.get("precision_bits", [0.0])),
    }
    detail = {"samples": len(lat), "tail_percentile": pct,
              "tail_samples_beyond": beyond}
    return metrics, detail


def per_layer(rec, spans):
    """Every per-layer metric of a traced run. Layers the workload
    never calls read 0 and are listed in the returned idle list."""
    series, values = rec["series"], rec["values"]
    out = {}
    for name, _, _ in PER_LAYER:
        if name in values:
            out[name] = values[name]
        elif name in series:
            out[name] = median(series[name])

    lat = series.get("latency_ms", [])
    if "ckks.graph.warmup_ms" in values:
        out["ckks.graph.capture_ms"] = (values["ckks.graph.warmup_ms"]
                                        - median(series.get("sample_ms", [])))
    service = {p: series.get("serve.server.service_ms." + p)
               for p in SERVE_PROGRAMS}
    if all(service.values()):
        out["ckks.graph.capture_ms"] = sum(
            values.get("ckks.graph.warmup_ms." + p, 0.0) - median(service[p])
            for p in SERVE_PROGRAMS)
        for p in SERVE_PROGRAMS:
            out["serve.server.queue_wait_ms." + p] = (
                median(series.get("lat_ms." + p, [])) - median(service[p]))
        rates = [int(k.split(".")[1]) for k in values
                 if k.startswith("grid.") and k.endswith(".failed")]
        points = [(r, series.get("grid.%d.latency_ms" % r, []),
                   values["grid.%d.failed" % r]) for r in rates]
        out["serve.goodput_rps"] = goodput(points)
    late = series.get("bench.gen.late_ms")
    if late:
        out["bench.gen.late_ms_p50"] = median(late)
        out["bench.gen.late_ms_max"] = max(late)
    out["bench.trace.coverage"] = coverage(spans)
    untraced = series.get("untraced.latency_ms", [])
    if lat and untraced:
        out["bench.trace.overhead"] = median(lat) / median(untraced) - 1.0

    idle = [n for n, _, _ in PER_LAYER if n not in out]
    for n in idle:
        out[n] = 0.0
    return out, idle


def write_trace(spans, trace_path, table_path):
    trace = chrome_trace(spans)
    check_nesting(trace)
    with open(trace_path, "w") as f:
        json.dump(trace, f)
    with open(table_path, "w") as f:
        f.write("%-20s %8s %12s %12s\n" % ("layer", "spans", "total_ms",
                                          "self_ms"))
        for layer, n, total, own in self_time_table(spans):
            f.write("%-20s %8d %12.3f %12.3f\n" % (layer, n, total, own))
