#!/usr/bin/env python3
"""G-COPSS repo benchmark: trace-replay workloads scored in host and sim time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fig6_steady, fig6_sharded, hotspot_rebalance (see NOTES.md).

Builds the simulator library and perfbench_pass from source into
.bench_build/perfbench, then runs passes of the workload, each in its own
process. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0  untraced passes over TRACES_PER_RUN traces derived from the
           seed, cycling until S seconds have passed and at least until the
           first trace has been replayed; host metrics are medians over the
           passes, sim metrics medians over the traces, and a replayed trace
           must give identical sim results.
           Prints the end-to-end metrics.
--trace 1  on the seed's own trace: one untraced counter pass, one traced
           pass and one audited pass; prints the per-layer metrics and
           writes the traced pass's spans to .bench_build/spans/NAME.jsonl.

Exits non-zero without a result when the sources cannot be built.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
PASS_BIN = os.path.join(BUILD_DIR, "perfbench_pass")

WORKLOADS = ("fig6_steady", "fig6_sharded", "hotspot_rebalance")
# Distinct traces replayed by one untraced run; sim metrics are medians over
# them, so one run's figures do not hinge on a single trace. The traces plus
# the replay of the first fit a 35 s run: ~3-4.5 s per fig6 pass, ~3.5-6 s
# per hotspot pass.
TRACES_PER_RUN = {"fig6_steady": 5, "fig6_sharded": 5, "hotspot_rebalance": 4}
BUILD_JOBS = "3"

# (name, unit, clock, meaning) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "host", "trace generation + world build"),
    ("deliveries_per_s", "1/s", "host", "deliveries per host second of the run phase"),
    ("wall_s", "s", "host", "trace generation through the returned RunSummary"),
    ("peak_rss_mb", "MB", "host", "peak resident set of one pass"),
    ("latency_p50_ms", "ms", "sim", "median publication->subscriber latency"),
    ("latency_p99_ms", "ms", "sim", "99th percentile latency"),
    ("latency_p9999_ms", "ms", "sim", "99.99th percentile latency"),
    ("network_gb", "GB", "sim", "aggregate link bytes"),
)
HOST_METRICS = ("setup_s", "deliveries_per_s", "wall_s", "peak_rss_mb")

# Sim-clock results: a pure function of the seed, equal on both engines.
SIM_KEYS = (
    "deliveries",
    "expected_deliveries",
    "latency_p50_ms",
    "latency_p99_ms",
    "latency_p9999_ms",
    "network_gb",
    "events",
    "link_packets",
    "rp_splits",
)

INVARIANTS = (
    "prefix-free-rp",
    "st-soundness",
    "migration-delivery",
    "packet-conservation",
    "loop-freedom",
    "epoch-monotonic",
)
DROP_REASONS = ("wire-fault", "node-failed", "buffer-full", "crashed-queued", "queue-drop")
LAT_LEGS = (
    ("to_rp", ("propagation", "serialization", "face_queue", "cpu_wait", "service")),
    ("rp", ("cpu_wait", "service")),
    ("fanout", ("propagation", "serialization", "face_queue", "cpu_wait", "service")),
)

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("trace.gen_s", "s"),
        ("gcopss.build_s", "s"),
        ("metrics.summarise_s", "s"),
        ("metrics.samples", "count"),
        ("des.run_s", "s"),
        ("des.events", "count"),
        ("des.events_per_delivery", "ratio"),
        ("des.dispatch_ns", "ns"),
        ("par.rounds", "count"),
        ("par.global_phases", "count"),
        ("par.events_per_round", "ratio"),
        ("par.shard_imbalance", "ratio"),
        ("par.cut_link_share.host_edge", "ratio"),
        ("par.cut_link_share.edge_core", "ratio"),
        ("par.cut_link_share.core", "ratio"),
        ("net.link_packets_per_delivery", "ratio"),
        ("net.allocs_per_event", "ratio"),
    ]
    + [("net.drops." + r, "count") for r in DROP_REASONS]
    + [
        ("queue.mean_sojourn_ms", "ms"),
        ("queue.max_sojourn_ms", "ms"),
        ("queue.peak_bytes", "bytes"),
        ("queue.drops", "count"),
        ("st.match_calls", "count"),
        ("st.cache_hit_ratio", "ratio"),
        ("st.bloom_fp", "count"),
        ("st.match_ns", "ns"),
        ("router.multicasts_forwarded", "count"),
        ("router.rp_decaps", "count"),
        ("router.dup_suppressed_ratio", "ratio"),
        ("seq.check_ns", "ns"),
        ("fib.lookups", "count"),
        ("fib.lpm_ns", "ns"),
        ("balancer.splits", "count"),
        ("migration.control_packets", "count"),
    ]
    + [("check.violations." + i, "count") for i in INVARIANTS]
    + [("check.delivery_failed_share", "ratio")]
    + [("lat.samples", "count")]
    + [("lat.%s.%s_ms" % (leg, c), "ms") for leg, comps in LAT_LEGS for c in comps]
    + [("tracing.overhead_ratio", "ratio")]
)


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found under %s/src" % ROOT)
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
    )
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))


def run_pass(workload, seed, mode, *extra):
    cmd = [PASS_BIN, "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("pass failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def check_deliveries(workload, p, problems):
    """Loss-free workloads deliver exactly the expected count; none may exceed it."""
    if p["deliveries"] > p["expected_deliveries"]:
        problems.append("more deliveries than expected: %d > %d"
                        % (p["deliveries"], p["expected_deliveries"]))
    if workload != "hotspot_rebalance" and p["deliveries"] != p["expected_deliveries"]:
        problems.append("delivered %d of %d expected"
                        % (p["deliveries"], p["expected_deliveries"]))


def check_same(label, a, b, problems, keys=SIM_KEYS):
    for k in keys:
        if a[k] != b[k]:
            problems.append("%s: %s differs (%r vs %r)" % (label, k, a[k], b[k]))


def trace_seed(seed, i):
    """Seed of the run's i-th trace; trace 0 is the run's own seed."""
    return (seed + i * 0x9E3779B97F4A7C15) % 2**64


def measure(workload, seed, seconds):
    """Untraced passes over the workload's TRACES_PER_RUN traces: end-to-end metrics.

    Passes cycle through the traces until `seconds` have passed, and at
    least until trace 0 has been replayed once. Host metrics are medians
    over every pass, sim metrics medians over the traces; a trace replayed
    must give the same sim results as its first pass.
    """
    seeds = [trace_seed(seed, i) for i in range(TRACES_PER_RUN[workload])]
    passes = []
    by_trace = {}
    problems = []
    start = time.monotonic()
    while len(passes) <= len(seeds) or time.monotonic() - start < seconds:
        k = len(passes) % len(seeds)
        p = run_pass(workload, seeds[k], "timed")
        if k in by_trace:
            check_same("trace %d replayed" % k, p, by_trace[k], problems)
        else:
            by_trace[k] = p
            check_deliveries(workload, p, problems)
        passes.append(p)
    if workload == "fig6_sharded":
        serial = run_pass(workload, seeds[0], "timed", "--serial")
        check_same("sharded vs serial engine", by_trace[0], serial, problems)

    metrics = {}
    for name, unit, _, _ in END_TO_END:
        source = passes if name in HOST_METRICS else by_trace.values()
        metrics[name] = {"value": statistics.median(p[name] for p in source), "unit": unit}

    expected = sum(p["expected_deliveries"] for p in by_trace.values())
    missing = sum(p["expected_deliveries"] - p["deliveries"] for p in by_trace.values())
    print("workload %s, seed %d: %d traces, %d untraced passes in %.1f s"
          % (workload, seed, len(seeds), len(passes), time.monotonic() - start))
    print("%-22s %16s %-6s %-5s %s" % ("metric", "value", "unit", "clock", "meaning"))
    for name, unit, clock, meaning in END_TO_END:
        agg = ("median of %d passes" % len(passes) if clock == "host"
               else "median of %d traces" % len(seeds))
        print("%-22s %16.6f %-6s %-5s %s (%s)"
              % (name, metrics[name]["value"], unit, clock, meaning, agg))
    print("%-22s %16.9f %-6s %-5s (expected - delivered) / expected: %d of %d missing"
          % ("delivery_failed_share", missing / expected, "ratio", "sim", missing, expected))
    print("latency samples per trace: %s"
          % ", ".join(str(by_trace[k]["deliveries"]) for k in sorted(by_trace)))
    # Counted once per trace, not per pass: a replay must repeat its trace's
    # results exactly, so how many passes fit the run does not change them.
    return metrics, expected, missing, problems


def measure_layers(workload, seed):
    """Counter, traced and audited passes: the per-layer metrics."""
    spans = os.path.join(SPANS_DIR, "%s.jsonl" % workload)
    os.makedirs(SPANS_DIR, exist_ok=True)
    seed = trace_seed(seed, 0)
    counters = run_pass(workload, seed, "counters")
    traced = run_pass(workload, seed, "traced", "--spans", spans)
    audit = run_pass(workload, seed, "audit")

    problems = []
    check_deliveries(workload, counters, problems)
    # The checker's periodic audits are events of their own.
    check_same("audited serial pass vs untraced pass", audit, counters, problems,
               [k for k in SIM_KEYS if k != "events"])
    problems += ["latency decomposition: " + f for f in traced["selfcheck_failures"]]
    # Every sampled delivery that arrived must be decomposed: the sampled
    # records' expected deliveries, less those the audit names as missing.
    sampled = traced["lat.expected_samples"] - audit["missed_sampled_deliveries_audited"]
    if traced["observed"] and traced["lat.samples"] != sampled:
        problems.append("latency decomposition: %d traced deliveries decomposed, %d arrived"
                        % (traced["lat.samples"], sampled))
    missing = counters["expected_deliveries"] - counters["deliveries"]
    for inv in INVARIANTS:
        n = audit["check.violations." + inv]
        if inv == "migration-delivery":
            if audit["missed_deliveries_audited"] != missing or n != missing:
                problems.append("audit names %d missed deliveries, %d are missing"
                                % (audit["missed_deliveries_audited"], missing))
        elif n:
            problems.append("audit: %d %s violation(s)" % (n, inv))

    deliveries = counters["deliveries"]
    values = dict(counters)
    values.update({k: v for k, v in traced.items() if "." in k and k != "des.run_s"})
    values.update({k: v for k, v in audit.items() if k.startswith("check.")})
    values["metrics.samples"] = deliveries
    values["des.events"] = counters["events"]
    values["des.events_per_delivery"] = counters["events"] / deliveries
    values["net.link_packets_per_delivery"] = counters["link_packets"] / deliveries
    values["check.delivery_failed_share"] = missing / counters["expected_deliveries"]
    values["tracing.overhead_ratio"] = traced["des.run_s"] / counters["des.run_s"]
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            raise BenchError("pass output lacks per-layer metric %s" % name)
        metrics[name] = {"value": values[name], "unit": unit}

    print("workload %s, seed %d: per-layer metrics (counter, traced%s and audited passes)"
          % (workload, seed, "" if traced["observed"] else " [phases only: sharded engine]"))
    for name, unit in PER_LAYER:
        print("%-34s %18.6f %s" % (name, metrics[name]["value"], unit))
    print("audited pass:")
    for line in audit["audit_report"]:
        print("  " + line)
    print("spans: %s" % os.path.relpath(spans, ROOT))
    attempted = counters["expected_deliveries"]
    return metrics, attempted, missing, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        build()
        if args.trace:
            metrics, attempted, failed, problems = measure_layers(args.workload, args.seed)
        else:
            metrics, attempted, failed, problems = measure(args.workload, args.seed,
                                                           args.seconds)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
