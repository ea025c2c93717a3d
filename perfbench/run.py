#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <primitives|bootstrap|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library and the benchmark
binary from the checkout's sources (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload in its own process, checks its
outputs, and prints as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones,
and the spans are written as a Chrome Trace Event file (Perfetto loads
it as-is) plus a per-layer self-time table under <build>/traces/.

Refuses to run when any FIDES_* environment variable is set: each one
changes the measured program.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("primitives", "bootstrap", "serve")
RUN_LIMIT_S = 170  # the whole run, build check included


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once and builds the binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "fides_perfbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("build failed; see " + str(log))
    return build_dir / "fides_perfbench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may
    not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE):
        files += [p for p in d.rglob("*") if p.is_file()
                  and p.suffix in (".cpp", ".hpp", ".py", ".txt")]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pinned = sorted(k for k in os.environ if k.startswith("FIDES_"))
    if pinned:
        fail("refusing to run with %s set" % ", ".join(pinned))
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").exists():
        fail("no library sources next to the benchmark in " + str(ROOT))

    start = time.monotonic()
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)
    built = time.monotonic() - start

    out_dir = build_dir / "records"
    out_dir.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record_path = out_dir / (tag + ".json")
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(record_path)]
    # A first run also compiles and may take longer; a warm run (the
    # build a no-op) must end within RUN_LIMIT_S as a whole.
    budget = RUN_LIMIT_S if built > 60 else RUN_LIMIT_S - built
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % budget)
    if r.returncode != 0:
        fail("workload exited with code %d" % r.returncode)
    with open(record_path) as f:
        rec = json.load(f)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "git_sha": git_sha(), "source_digest": source_digest(),
        "build_type": "Release", "result_digest": rec["result_digest"],
        "fail_ratio": rec["failed"] / max(1, rec["attempted"]),
    }
    info.update(rec["info"])
    if rec["failures"]:
        info["failures"] = rec["failures"]
    if args.trace:
        spans = rec["spans"]
        values, idle = metrics.per_layer(rec, spans)
        units = {n: u for n, u, _ in metrics.PER_LAYER}
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / (tag + ".trace.json")
        table_path = trace_dir / (tag + ".selftime.txt")
        metrics.write_trace(spans, trace_path, table_path)
        info.update(idle_layers=idle, trace_file=str(trace_path),
                    selftime_file=str(table_path))
        print(table_path.read_text(), end="")
    else:
        values, detail = metrics.end_to_end(rec)
        units = dict(metrics.END_TO_END)
        info.update(detail)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units},
    }))


if __name__ == "__main__":
    main()
