#!/usr/bin/env python3
"""The repo benchmark: host time and memory of HeLM-Sim on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  It builds perfbench/ (the helm library
from src/ plus the measuring process) in Release under $CARGO_TARGET_DIR
or .bench_build, runs the paper scorecard once, then the measuring
process for --seconds, and checks every simulated output.  Human-readable
lines come first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
spans recorded.  With --trace 1 plain and traced iterations alternate;
the metrics are the per-layer ones, taken from the traced iterations,
plus the tracing overhead (traced minus plain total_s, paired).

Simulated statistics are never metrics here.  They are hashed into a
per-workload digest that must be identical on every iteration and equal
to the one recorded for the seed (digests.json, then the build
directory's ledger for seeds seen first in this checkout).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("gateway-chat", "explore-cold", "serve-edf")

# End-to-end metrics: name -> unit.  error_rate is carried by the
# result's attempted/failed counts (it is 0 on a correct run, and a
# metric that reads 0 has no relative bound).
END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "sim_rate": "units/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).  Values a workload does not produce read 0.
PER_LAYER = {
    "sim.events": ("count", "lower", "sim_rate, gateway-chat"),
    "sim.events_per_s": ("1/s", "higher", "sim_rate, gateway-chat"),
    "gateway.run_s": ("s", "lower", "sim_rate, gateway-chat"),
    "gateway.us_per_turn": ("us", "lower", "sim_rate, gateway-chat"),
    "gateway.create_s": ("s", "lower", "setup_s, gateway-chat"),
    "gateway.turns_completed": ("count", "higher", "repeats exactly"),
    "gateway.turns_shed": ("count", "lower", "repeats exactly"),
    "gateway.retries": ("count", "lower", "repeats exactly"),
    "gateway.dispatch_windows": ("count", "lower", "repeats exactly"),
    "gateway.tokens_delivered": ("count", "higher", "repeats exactly"),
    "gateway.sessions_opened": ("count", "higher", "repeats exactly"),
    "step_cache.hits": ("count", "higher", "sim_rate, gateway-chat; 0 on explore-cold"),
    "step_cache.misses": ("count", "lower", "sim_rate, gateway-chat"),
    "step_cache.stream_hits": ("count", "higher", "sim_rate, gateway-chat"),
    "step_cache.lookups": ("count", "lower", "base of step_cache.hit_ratio"),
    "step_cache.hit_ratio": ("ratio", "higher", "sim_rate, gateway-chat"),
    "engine.cold_runs": ("count", "lower", "sim_rate, explore-cold"),
    "engine.cold_ms_per_run": ("ms", "lower", "sim_rate, explore-cold"),
    "schedule.compile_ms_per_run": ("ms", "lower", "sim_rate, explore-cold"),
    "engine.des_ms_per_run": ("ms", "lower", "sim_rate, explore-cold"),
    "exec.jobs": ("count", "higher", "sim_rate and cpu_s, explore-cold"),
    "exec.busy_s": ("s", "lower", "sim_rate and cpu_s, explore-cold"),
    "exec.efficiency": ("ratio", "higher", "sim_rate and cpu_s, explore-cold"),
    "cluster.pipeline_s": ("s", "lower", "total_s, explore-cold"),
    "cluster.tensor_s": ("s", "lower", "total_s, explore-cold"),
    "server.serve_s": ("s", "lower", "sim_rate, serve-edf"),
    "server.iterations": ("count", "lower", "sim_rate, serve-edf"),
    "server.us_per_iteration": ("us", "lower", "sim_rate, serve-edf"),
    "server.preemptions": ("count", "lower", "repeats exactly"),
    "server.resumes": ("count", "lower", "repeats exactly"),
    "server.completed": ("count", "higher", "repeats exactly"),
    "server.rejected": ("count", "lower", "repeats exactly"),
    "server.deadline_misses": ("count", "lower", "repeats exactly"),
    # Bytes computed by the simulator from tensor sizes, not moved.
    "kv.demoted_bytes": ("B", "lower", "repeats exactly; computed from tensor sizes"),
    "kv.promoted_bytes": ("B", "lower", "repeats exactly; computed from tensor sizes"),
    "report.s": ("s", "lower", "total_s, gateway-chat and serve-edf"),
    "report.percentile_s": ("s", "lower", "total_s, gateway-chat and serve-edf"),
    "telemetry.export_s": ("s", "lower", "total_s, gateway-chat"),
    "tracing.export_s": ("s", "lower", "total_s, gateway-chat"),
    "tracing.spans": ("count", "lower", "repeats exactly"),
    "tracing.dropped_spans": ("count", "lower", "repeats exactly"),
    "mem.rss_setup_mb": ("MB", "lower", "peak_rss_mb, gateway-chat and serve-edf"),
    "mem.bytes_per_unit": ("B", "lower", "peak_rss_mb, gateway-chat and serve-edf"),
}
# Self time of each layer's spans (the benchmark's own spans around the
# public calls; "perfbench" is the benchmark's glue between them).
SELF_LAYERS = ("perfbench", "runtime", "serving_gateway", "sweep",
               "cluster", "workload", "common", "telemetry", "tracing")
for _layer in SELF_LAYERS:
    PER_LAYER["self.%s_s" % _layer] = ("s", "lower", "total_s, every workload")
PER_LAYER["trace.overhead_s"] = ("s", "lower", "traced minus plain total_s")
PER_LAYER["trace.overhead_pct"] = ("%", "lower", "of plain total_s")
PER_LAYER["trace.bench_spans"] = ("count", "lower", "spans per traced iteration")

OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")
SPLIT_RESOLUTION_S = 1e-6


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def build(build_dir):
    """Configure once and build the measuring process; returns its dir."""
    for needed in ("src/CMakeLists.txt", "bench/repro_summary.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no helm sources (%s missing); run from a full checkout"
                 % needed)
    out = os.path.join(build_dir, "perfbench")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(out)  # configured from another checkout
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def scorecard(binary):
    """The paper scorecard must read 16/16; returns (ok, line)."""
    done = subprocess.run([binary], capture_output=True, text=True,
                          timeout=120)
    lines = [l for l in done.stdout.splitlines() if "headline checks" in l]
    line = lines[-1].strip() if lines else "no scorecard line"
    return done.returncode == 0 and line.startswith("16/16"), line


def high(values):
    """p90 when ten or more samples lie beyond it, else the maximum."""
    ordered = sorted(values)
    if len(ordered) >= 100:
        return "p90", ordered[int(0.9 * len(ordered))]
    return "max", ordered[-1]


def check_digest(workload, seed, digest, build_dir):
    """Compare against the committed record, else the checkout ledger."""
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f).get(workload, {})
    if str(seed) in recorded:
        return digest == recorded[str(seed)], "digests.json"
    ledger_path = os.path.join(build_dir, "perfbench-digests.json")
    ledger = {}
    if os.path.isfile(ledger_path):
        with open(ledger_path) as f:
            ledger = json.load(f)
    key = "%s/%d" % (workload, seed)
    if key in ledger:
        return digest == ledger[key], "ledger"
    ledger[key] = digest
    with open(ledger_path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    return True, "ledger (first record)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    bin_dir = build(build_dir)
    score_ok, score_line = scorecard(os.path.join(bin_dir,
                                                  "perfbench_scorecard"))

    command = [os.path.join(bin_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, "%s-seed%d.json"
                                  % (args.workload, args.seed))
        command += ["--spans-out", spans_path]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=170)
    if done.returncode != 0:
        log(done.stderr)
        fail("measuring process exited %d" % done.returncode)
    records = [json.loads(l) for l in done.stdout.splitlines()
               if l.startswith("{")]
    if len(records) < 2:
        fail("measuring process printed no iterations")
    header, iterations = records[0], records[1:]
    plain = [r for r in iterations if not r["warmup"] and not r["traced"]]
    traced = [r for r in iterations if r["traced"]]

    # ---- correctness -------------------------------------------------
    problems = []
    attempted = failed = 0
    for r in iterations:
        attempted += r["calls"] + r["checks"]
        failed += len(r["failures"])
        problems += ["iteration %d: %s" % (r["iteration"], f)
                     for f in r["failures"]]
        residual = abs(r["setup_s"] + r["simulate_s"] + r["report_s"] -
                       r["total_s"])
        attempted += 1
        if residual > SPLIT_RESOLUTION_S:
            failed += 1
            problems.append("iteration %d: phases sum off total_s by %g s"
                            % (r["iteration"], residual))
    digests = sorted({r["digest"] for r in iterations})
    attempted += 2
    if len(digests) != 1:
        failed += 1
        problems.append("digest differs between iterations: %s" % digests)
    digest_ok, digest_source = check_digest(args.workload, args.seed,
                                            digests[0], build_dir)
    if not digest_ok:
        failed += 1
        problems.append("digest %s differs from the one recorded in %s"
                        % (digests[0], digest_source))
    attempted += 1
    if not score_ok:
        failed += 1
        problems.append("scorecard: " + score_line)
    for r in iterations:
        attempted += 1
        if r["isolation"].get("step_cache.entries_at_start", 1) != 0:
            failed += 1
            problems.append("iteration %d did not start from an empty "
                            "step cache" % r["iteration"])

    metrics, lines = {}, []
    unit = iterations[-1]["unit"]
    if args.trace == 0:
        measured = [r for r in plain if not r["failures"]] or plain
        samples = {
            "total_s": [r["total_s"] for r in measured],
            "setup_s": [r["setup_s"] for r in measured],
            "sim_rate": [r["units"] / r["simulate_s"] if r["simulate_s"]
                         else 0.0 for r in measured],
            "cpu_s": [r["cpu_s"] for r in measured],
            "peak_rss_mb": [r["peak_rss_mb"] for r in measured],
        }
        lines.append("simulate_s median %.6f s, report.s median %.6f s"
                     % (statistics.median(r["simulate_s"] for r in measured),
                        statistics.median(r["report_s"] for r in measured)))
        for name, values in samples.items():
            label, top = high(values)
            shown_unit = ("%s/s" % unit) if name == "sim_rate" \
                else END_TO_END[name]
            lines.append("%-12s median %.6g %s (%s %.6g, n=%d)"
                         % (name, statistics.median(values), shown_unit,
                            label, top, len(values)))
            metrics[name] = {"value": statistics.median(values),
                             "unit": END_TO_END[name]}
    else:
        values = {name: [] for name in PER_LAYER}
        for r in traced:
            for name in PER_LAYER:
                if name in r["layers"]:
                    values[name].append(r["layers"][name])
            for layer in SELF_LAYERS:
                values["self.%s_s" % layer].append(
                    r["self"].get(layer, 0.0))
            values["trace.bench_spans"].append(r["spans"])
        by_index = {r["iteration"]: r for r in iterations}
        for r in traced:
            partner = by_index.get(r["iteration"] +
                                   (1 if r["iteration"] % 2 else -1))
            if partner and not partner["traced"] and not partner["warmup"]:
                values["trace.overhead_s"].append(
                    r["total_s"] - partner["total_s"])
                values["trace.overhead_pct"].append(
                    100.0 * (r["total_s"] - partner["total_s"]) /
                    partner["total_s"])
        for name, (unit_name, _, moves) in PER_LAYER.items():
            if moves.startswith("repeats exactly"):
                attempted += 1
                if len(set(values[name])) > 1:
                    failed += 1
                    problems.append("%s differs between traced iterations: "
                                    "%s" % (name, sorted(set(values[name]))))
            if values[name]:
                value = statistics.median(values[name])
                note = "n=%d" % len(values[name])
            else:
                value, note = 0.0, "not exercised by this workload"
            lines.append("%-28s %14.6g %-6s (%s) -> %s"
                         % (name, value, unit_name, note, moves))
            metrics[name] = {"value": value, "unit": unit_name}

    # ---- report ------------------------------------------------------
    build_type = header["build_type"]
    optimized = build_type in OPTIMIZED
    print("perfbench %s seed %d: build %s%s, jobs %d, %d plain + %d traced "
          "iterations (+1 warm-up)"
          % (args.workload, args.seed, build_type,
             "" if optimized else " (NOT OPTIMIZED: numbers not comparable)",
             header["jobs"], len(plain), len(traced)))
    print("scorecard: %s" % score_line)
    if not header["peak_rss_resettable"]:
        print("peak_rss_mb: the kernel refused a watermark reset, so it is "
              "the process peak, not each iteration's")
    print("digest: %s (%s)" % (", ".join(digests), digest_source))
    # The step cache is the only memo that outlives an iteration; no
    # workload constructs a runtime::SimCache, so its counters are 0.
    for r in iterations:
        iso = r["isolation"]
        print("iteration %d%s: step_cache entries_at_start=%d hits=%d "
              "misses=%d stream_hits=%d; sim_cache none"
              % (r["iteration"], " (traced)" if r["traced"] else
                 " (warm-up)" if r["warmup"] else "",
                 iso.get("step_cache.entries_at_start", -1),
                 iso.get("step_cache.hits", 0),
                 iso.get("step_cache.misses", 0),
                 iso.get("step_cache.stream_hits", 0)))
    print("phase split: setup_s + simulate_s + report.s - total_s <= %.3g s "
          "on every iteration" % max(abs(r["setup_s"] + r["simulate_s"] +
                                         r["report_s"] - r["total_s"])
                                     for r in iterations))
    for line in lines:
        print(line)
    print("error_rate   %.6g (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    for p in problems:
        print("FAILED: " + p)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
