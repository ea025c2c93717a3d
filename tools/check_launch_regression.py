#!/usr/bin/env python3
"""Launch-economy regression gate for the limb-batch benchmark.

Compares a fresh BENCH_limb_batch.json against the committed baseline
and fails (exit 1) if any benchmark row regressed on the metrics the
fusion and plan-cache layers exist to shrink:

  - kernels_per_op   logical kernels per HMult (the headline metric)
  - kernel_launches  physical launches per op (batches x devices)
  - syncs_per_op     host joins per op: a replayed plan (or any other
                     change) silently re-introducing host barriers
                     fails CI, not just launch-count regressions

and if the plan cache stopped engaging:

  - plan_cache_hits  must stay >= 1 whenever the fresh row reports it
                     (the bench warms the cache, so a zero means
                     capture/replay broke or was disabled)

Rows are matched by benchmark name. A small tolerance absorbs
iteration-count rounding; genuinely new rows (no baseline counterpart)
are reported but never fail the gate.

Timing metrics are gated too, with a deliberately generous band
(TIME_TOLERANCE): ns_per_op and host_dispatch_us must stay within a
multiple of the committed baseline. The band is wide because CI
machines differ from the committing machine -- the gate exists to
catch order-of-magnitude regressions (an NTT schedule pick gone
pathological, a plan replay falling back to uncached dispatch), not
single-digit-percent drift.

With a third argument (BENCH_serve.json), the serving-throughput gate
also runs: the highest-submitter-count row must sustain at least
SERVE_SCALING x the ops/s of the single-submitter row, and every row
must report plan_cache_hits >= 1 (serving must run in the replay
steady state). The scaling gate compares rows WITHIN the fresh file
(absolute throughput is hardware-dependent) and is skipped below
MIN_SERVE_CORES cores: submitter scaling is wall-clock parallelism
over the kernel compute a single request cannot fill (one request's
plan pipelines ~2 concurrent launch lanes on the 2-device topology),
so a machine needs cores comfortably above that for extra submitters
to be physically able to add throughput. GitHub's standard runners
have 4; the bench records its core count in each row.

With a fourth and fifth argument (the committed and fresh
BENCH_bootstrap.json), the bootstrap gate also runs: the usual
per-row bands against the committed baseline, plan_keys within the
coarse TIME_TOLERANCE band (the key set is pipeline-shape-determined,
so a 2x growth means the plan key space widened), and a
plan_cache_hits >= 1 floor on the steady-state BM_Bootstrap rows (the
Baseline-sim row legitimately recaptures after its knob toggles).

With --cluster BENCH_cluster.json, the cluster gate also runs: every
row must report plan_cache_hits >= 1 (every shard serves from its
replay steady state), the file must contain the 1- and 2-shard rows,
and the 2-shard row must sustain at least CLUSTER_SCALING x the
aggregate ops/s of the 1-shard row at the same total submitter
budget -- the tentpole property of sharding the Server across
Contexts. Like the serve gate, the ratio compares rows WITHIN the
fresh file and is skipped (explicitly) below MIN_SERVE_CORES cores:
on a 1-core box the second shard's submitters time-slice the same
CPU the first shard already saturates.

Usage: check_launch_regression.py [--skip-time-gate]
       [--cluster CLUSTER.json] BASELINE.json FRESH.json
       [SERVE.json [BOOT_BASELINE.json BOOT_FRESH.json]]

--skip-time-gate drops the wall-clock band (Debug/sanitizer CI legs
run the launch-economy gate against the Release-committed baseline;
their timings are legitimately several times slower).
"""

import json
import sys

GATED_COUNTERS = ("kernels_per_op", "kernel_launches", "syncs_per_op")
MIN_ONE_COUNTERS = ("plan_cache_hits",)
TIMED_COUNTERS = ("ns_per_op", "host_dispatch_us")
TOLERANCE = 1.05  # 5% headroom for iteration rounding
TIME_TOLERANCE = 2.0  # coarse cross-machine wall-clock band
SERVE_SCALING = 1.3  # multi-submitter ops/s vs 1 submitter
MIN_SERVE_CORES = 4  # below this, extra submitters cannot add ops/s
CLUSTER_SCALING = 1.3  # 2-shard aggregate ops/s vs 1 shard


def load(path):
    with open(path) as f:
        rows = json.load(f)
    return {row["name"]: row for row in rows}


def closed_loop(rows):
    """The closed-loop rows (serve_sN, cluster_shN): open-loop rows
    share their submitter and shard counts, so the scaling gates must
    filter by shape, not sort position."""
    return [r for r in rows if r.get("target_rps", 0) <= 0]


def check_serve(path, failures):
    """Serving gate: replay steady state + submitter scaling."""
    all_rows = sorted(load(path).values(),
                      key=lambda r: r["submitters"])
    if not all_rows:
        sys.exit("FAIL: no benchmark rows in " + path)
    for row in all_rows:
        hits = row.get("plan_cache_hits", 0)
        verdict = "OK  " if hits >= 1 else "FAIL"
        print(f"{verdict} {row['name']} plan_cache_hits: {hits} "
              "(floor 1)")
        if verdict == "FAIL":
            failures.append((row["name"], "plan_cache_hits", hits, 1))
    rows = closed_loop(all_rows)
    if not rows:
        print("SKIP serve scaling: no closed-loop rows")
        return
    base, peak = rows[0], rows[-1]
    if peak["submitters"] <= base["submitters"]:
        print("SKIP serve scaling: need rows for >= 2 submitter "
              "counts")
        return
    # Require the field: silently defaulting to 1 would disable the
    # scaling gate forever if a bench refactor dropped it.
    cores = min(r["cores"] for r in rows)
    ratio = peak["ops_per_sec"] / base["ops_per_sec"]
    label = (f"serve scaling: {peak['submitters']} submitters at "
             f"{ratio:.2f}x of {base['submitters']} "
             f"(floor {SERVE_SCALING}x)")
    if cores < MIN_SERVE_CORES:
        print(f"SKIP {label} -- {cores} core(s) < {MIN_SERVE_CORES}, "
              "wall-clock submitter scaling not expressible")
        return
    verdict = "OK  " if ratio >= SERVE_SCALING else "FAIL"
    print(f"{verdict} {label}")
    if verdict == "FAIL":
        failures.append((peak["name"], "ops_per_sec scaling", ratio,
                         SERVE_SCALING))


def check_cluster(path, failures):
    """Cluster gate: per-shard replay steady state + shard scaling."""
    rows = sorted(load(path).values(), key=lambda r: r["shards"])
    if not rows:
        sys.exit("FAIL: no benchmark rows in " + path)
    for row in rows:
        hits = row.get("plan_cache_hits", 0)
        verdict = "OK  " if hits >= 1 else "FAIL"
        print(f"{verdict} {row['name']} plan_cache_hits: {hits} "
              "(floor 1)")
        if verdict == "FAIL":
            failures.append((row["name"], "plan_cache_hits", hits, 1))
    by_shards = {row["shards"]: row for row in closed_loop(rows)}
    if 1 not in by_shards or 2 not in by_shards:
        print("FAIL cluster scaling: need the 1- and 2-shard rows")
        failures.append(("cluster", "rows", sorted(by_shards), [1, 2]))
        return
    base, two = by_shards[1], by_shards[2]
    cores = min(r["cores"] for r in rows)
    ratio = two["ops_per_sec"] / base["ops_per_sec"]
    label = (f"cluster scaling: 2 shards at {ratio:.2f}x of 1 shard "
             f"(floor {CLUSTER_SCALING}x)")
    if cores < MIN_SERVE_CORES:
        print(f"SKIP {label} -- {cores} core(s) < {MIN_SERVE_CORES}, "
              "wall-clock shard scaling not expressible")
        return
    verdict = "OK  " if ratio >= CLUSTER_SCALING else "FAIL"
    print(f"{verdict} {label}")
    if verdict == "FAIL":
        failures.append((two["name"], "ops_per_sec scaling", ratio,
                         CLUSTER_SCALING))


def check_rows(baseline, fresh, failures, time_gate,
               min_one=MIN_ONE_COUNTERS):
    """The per-row bands: floors, structural counters, wall clock."""
    for name, row in sorted(fresh.items()):
        # Floors first: they apply even to rows with no baseline.
        for counter in min_one:
            if counter not in row:
                continue
            got = row[counter]
            verdict = "OK  " if got >= 1 else "FAIL"
            print(f"{verdict} {name} {counter}: {got:.2f} (floor 1)")
            if verdict == "FAIL":
                failures.append((name, counter, got, 1))
        base = baseline.get(name)
        if base is None:
            print(f"NEW  {name}: no baseline row, skipping")
            continue
        for counter in GATED_COUNTERS:
            if counter not in row or counter not in base:
                continue
            got, want = row[counter], base[counter]
            verdict = "OK  " if got <= want * TOLERANCE else "FAIL"
            print(f"{verdict} {name} {counter}: {got:.2f} "
                  f"(baseline {want:.2f})")
            if verdict == "FAIL":
                failures.append((name, counter, got, want))
        for counter in TIMED_COUNTERS:
            if not time_gate or counter not in row \
                    or counter not in base:
                continue
            got, want = row[counter], base[counter]
            limit = want * TIME_TOLERANCE
            verdict = "OK  " if got <= limit else "FAIL"
            print(f"{verdict} {name} {counter}: {got:.0f} "
                  f"(baseline {want:.0f}, band {TIME_TOLERANCE}x)")
            if verdict == "FAIL":
                failures.append((name, counter, got, limit))


def check_boot(base_path, fresh_path, failures, time_gate):
    """Bootstrap gate: per-row bands, replay floor, key-space band."""
    baseline = load(base_path)
    fresh = load(fresh_path)
    if not fresh:
        sys.exit("FAIL: no benchmark rows in " + fresh_path)
    # Steady-state rows (BM_Bootstrap, marked by plan_entries_per_boot)
    # keep the replay floor; the Baseline-sim row recaptures after its
    # knob toggles and legitimately reports 0 hits on one iteration.
    check_rows(baseline, fresh, failures, time_gate, min_one=())
    steady = {name: row for name, row in fresh.items()
              if "plan_entries_per_boot" in row}
    for name, row in sorted(steady.items()):
        got = row.get("plan_cache_hits", 0)
        verdict = "OK  " if got >= 1 else "FAIL"
        print(f"{verdict} {name} plan_cache_hits: {got:.2f} (floor 1)")
        if verdict == "FAIL":
            failures.append((name, "plan_cache_hits", got, 1))
    # plan_keys: the key set is determined by the pipeline shape, not
    # the machine, but gets the coarse band so an extra helper plan
    # does not break CI -- a per-op key space that doubles (plans
    # keyed on something that varies per call) still does.
    for name, row in sorted(fresh.items()):
        base = baseline.get(name)
        if base is None or "plan_keys" not in row \
                or "plan_keys" not in base:
            continue
        got, want = row["plan_keys"], base["plan_keys"]
        limit = want * TIME_TOLERANCE
        verdict = "OK  " if got <= limit else "FAIL"
        print(f"{verdict} {name} plan_keys: {got:.0f} "
              f"(baseline {want:.0f}, band {TIME_TOLERANCE}x)")
        if verdict == "FAIL":
            failures.append((name, "plan_keys", got, limit))


def main():
    raw = sys.argv[1:]
    time_gate = "--skip-time-gate" not in raw
    cluster_path = None
    args = []
    i = 0
    while i < len(raw):
        a = raw[i]
        if a == "--skip-time-gate":
            pass
        elif a == "--cluster":
            i += 1
            if i >= len(raw):
                sys.exit("--cluster requires a value")
            cluster_path = raw[i]
        elif a.startswith("--cluster="):
            cluster_path = a.split("=", 1)[1]
        else:
            args.append(a)
        i += 1
    if len(args) not in (2, 3, 5):
        sys.exit(__doc__)
    baseline = load(args[0])
    fresh = load(args[1])
    if not fresh:
        sys.exit("FAIL: no benchmark rows in " + args[1])

    failures = []
    check_rows(baseline, fresh, failures, time_gate)

    if len(args) >= 3:
        check_serve(args[2], failures)
    if len(args) == 5:
        check_boot(args[3], args[4], failures, time_gate)
    if cluster_path is not None:
        check_cluster(cluster_path, failures)

    if failures:
        sys.exit(f"FAIL: {len(failures)} launch-economy regression(s) "
                 "above the committed baseline")
    print("launch economy: no regressions")


if __name__ == "__main__":
    main()
