#!/usr/bin/env python3
"""Validate a helm bench JSON artifact, dispatching on its ``schema``.

Standard library only — this is the CI gate for the bench artifacts,
so it must run anywhere python3 does.

Supported schemas:

helm-bench-scheduler-v1 (bench_scheduler)
  * ``fcfs_identity.identical`` is ``true`` — the single-GPU Server
    and the 1-GPU replica ClusterServer (which documents wholesale
    delegation) must produce byte-identical FCFS reports;
  * ``bursty`` carries fcfs/continuous/edf sections with finite
    goodput/p99-TTFT numbers, and edf goodput exceeds fcfs goodput on
    the bursty multi-tenant mix;
  * ``preemption`` shows at least one preemption with matching
    nonzero demoted/promoted KV byte counts and resumes ==
    preemptions — every swapped-out request came back.

helm-bench-pareto-v1 (bench_pareto)
  * ``jobs_identical`` is true — the frontier must be byte-identical
    between --jobs 1 and --jobs N;
  * the ``on_frontier`` marks are re-derived from ``points``: every
    marked point must be non-dominated on (cost_per_mtok, tbt_s) among
    the ok+feasible points, and ``frontier_size`` must match;
  * ``ndp_vs_dram`` is valid with ``ndp_dominates`` true — near-data
    decode strictly beats the All-CPU DRAM point on TBT;
  * ``hbf_exclusive`` ran with ``only_hbf`` true — the giant model is
    admitted by exactly one device, the flash tier.

helm-bench-trace-v1 (bench_trace)
  * ``identity.report_identical`` and ``identity.metrics_identical``
    are true — with the tracer and monitor attached (recording into a
    side registry) the serve report text and metrics artifact are
    byte-identical to the plain run;
  * ``overhead.tap_allocs_per_turn`` is at most the ceiling (default
    0.05, ``--max-tap-allocs X`` overrides) — attaching the tracer and
    monitor to a closed-loop gateway drive costs well under one extra
    operator-new call per turn (one temporary per turn would read
    >= 1).  ``overhead.overhead_ratio`` (the min-of-3 wall ratio) is
    recorded, NOT gated: on a ~0.1 s drive it is noise-bound;
  * ``recorder`` held the memory bound under a drive much larger than
    its capacity: ``retained <= capacity_traces``,
    ``retained_spans <= retained * capacity_spans_per_trace``, and
    every retained span tree passed validate_trace (``validated``).

Exit status 0 when the document passes, 1 otherwise (one message per
problem on stderr).

Usage:
  python3 tools/check_bench.py BENCH_scheduler.json
  python3 tools/check_bench.py BENCH_trace.json --max-tap-allocs 0.05
"""

import argparse
import json
import math
import sys

SCHEDULER_NUMBERS = {
    "bursty.fcfs": ("goodput_tps", "p99_ttft_s", "slo_attainment",
                    "deadline_misses", "preemptions"),
    "bursty.continuous": ("goodput_tps", "p99_ttft_s", "slo_attainment",
                          "deadline_misses", "preemptions"),
    "bursty.edf": ("goodput_tps", "p99_ttft_s", "slo_attainment",
                   "deadline_misses", "preemptions"),
    "preemption": ("preemptions", "resumes", "kv_demoted_bytes",
                   "kv_promoted_bytes", "kv_swap_exposed_seconds",
                   "deadline_misses"),
}


def is_finite_number(value):
    return (isinstance(value, (int, float)) and
            not isinstance(value, bool) and math.isfinite(value))


def lookup(doc, dotted):
    body = doc
    for part in dotted.split("."):
        if not isinstance(body, dict):
            return None
        body = body.get(part)
    return body


def check_numbers(doc, required, errors):
    for section, keys in required.items():
        body = lookup(doc, section)
        if not isinstance(body, dict):
            errors.append("missing section %r" % section)
            continue
        for key in keys:
            value = body.get(key)
            if not is_finite_number(value):
                errors.append("%s.%s: expected a finite number, got %r" %
                              (section, key, value))
            elif value < 0:
                errors.append("%s.%s: negative value %r" %
                              (section, key, value))


def check_scheduler(doc, _args, errors):
    identity = doc.get("fcfs_identity")
    if not isinstance(identity, dict) or identity.get("identical") \
            is not True:
        errors.append(
            "fcfs_identity.identical must be true: the 1-GPU replica "
            "ClusterServer diverged from the single-GPU Server on the "
            "same FCFS stream")
    check_numbers(doc, SCHEDULER_NUMBERS, errors)
    if errors:
        return
    fcfs = doc["bursty"]["fcfs"]
    edf = doc["bursty"]["edf"]
    if not edf["goodput_tps"] > fcfs["goodput_tps"]:
        errors.append(
            "bursty: edf goodput %.3f must exceed fcfs goodput %.3f" %
            (edf["goodput_tps"], fcfs["goodput_tps"]))
    preemption = doc["preemption"]
    if preemption["preemptions"] < 1:
        errors.append("preemption.preemptions must be >= 1")
    if preemption["resumes"] != preemption["preemptions"]:
        errors.append(
            "preemption: resumes %r != preemptions %r — a swapped-out "
            "request never came back" %
            (preemption["resumes"], preemption["preemptions"]))
    if preemption["kv_demoted_bytes"] <= 0 or \
            preemption["kv_demoted_bytes"] != \
            preemption["kv_promoted_bytes"]:
        errors.append(
            "preemption: demoted bytes %r must be positive and equal "
            "promoted bytes %r" % (preemption["kv_demoted_bytes"],
                                   preemption["kv_promoted_bytes"]))
    if not errors:
        print("ok: fcfs identical over %s requests, edf goodput %.2f > "
              "fcfs %.2f tok/s, %d preemptions (%d bytes swapped each "
              "way)" % (doc["fcfs_identity"].get("requests", "?"),
                        edf["goodput_tps"], fcfs["goodput_tps"],
                        preemption["preemptions"],
                        preemption["kv_demoted_bytes"]))


PARETO_POINT_KEYS = ("device", "placement", "site", "batch", "ok",
                     "feasible", "ttft_s", "tbt_s", "tokens_per_s",
                     "system_dollars", "cost_per_mtok", "ndp_steps",
                     "on_frontier")

PARETO_NUMBERS = {
    "ndp_vs_dram": ("batch", "dram_tbt_s", "ndp_tbt_s"),
    "hbf_exclusive": ("weight_bytes", "admitting", "devices", "tbt_s",
                      "tokens_per_s", "endurance_budget_bytes",
                      "installs_supported"),
}


def is_set(value):
    """bench_pareto writes booleans as 0/1 numbers."""
    return value is True or value == 1


def check_pareto(doc, _args, errors):
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        errors.append("points: expected a non-empty list")
        return
    for i, point in enumerate(points):
        for key in PARETO_POINT_KEYS:
            if key not in point:
                errors.append("points[%d]: missing key %r" % (i, key))
    check_numbers(doc, PARETO_NUMBERS, errors)
    if errors:
        return

    # Re-derive the frontier: a marked point must be non-dominated on
    # (cost_per_mtok, tbt_s) among the ok+feasible points.
    usable = [p for p in points
              if is_set(p["ok"]) and is_set(p["feasible"])]
    marked = 0
    for p in points:
        if not is_set(p["on_frontier"]):
            continue
        marked += 1
        if p not in usable:
            errors.append("frontier point %s/%s b=%s is not ok+feasible"
                          % (p["device"], p["placement"], p["batch"]))
            continue
        for q in usable:
            if q is p:
                continue
            if (q["cost_per_mtok"] <= p["cost_per_mtok"] and
                    q["tbt_s"] <= p["tbt_s"] and
                    (q["cost_per_mtok"] < p["cost_per_mtok"] or
                     q["tbt_s"] < p["tbt_s"])):
                errors.append(
                    "frontier point %s/%s b=%s is dominated by "
                    "%s/%s b=%s" %
                    (p["device"], p["placement"], p["batch"],
                     q["device"], q["placement"], q["batch"]))
    if marked < 1:
        errors.append("frontier is empty")
    if marked != doc.get("frontier_size"):
        errors.append("frontier_size %r != %d marked points" %
                      (doc.get("frontier_size"), marked))

    ndp = doc["ndp_vs_dram"]
    if not is_set(ndp.get("valid")) or not is_set(ndp.get("ndp_dominates")):
        errors.append(
            "ndp_vs_dram: near-data decode must strictly beat the "
            "All-CPU DRAM point on TBT (valid=%r dominates=%r)" %
            (ndp.get("valid"), ndp.get("ndp_dominates")))
    elif not ndp["ndp_tbt_s"] < ndp["dram_tbt_s"]:
        errors.append("ndp_vs_dram: ndp_tbt_s %r is not below "
                      "dram_tbt_s %r" %
                      (ndp["ndp_tbt_s"], ndp["dram_tbt_s"]))
    hbf = doc["hbf_exclusive"]
    if not is_set(hbf.get("ran")) or not is_set(hbf.get("only_hbf")):
        errors.append(
            "hbf_exclusive: the giant model must be admitted by the "
            "flash tier alone (ran=%r only_hbf=%r)" %
            (hbf.get("ran"), hbf.get("only_hbf")))
    elif hbf["admitting"] != 1:
        errors.append("hbf_exclusive: admitting %r != 1" %
                      hbf["admitting"])
    if not is_set(doc.get("jobs_identical")):
        errors.append(
            "jobs_identical is %r: the frontier must be byte-identical "
            "between --jobs 1 and --jobs N" % doc.get("jobs_identical"))
    if not errors:
        print("ok: %d points, frontier %d, NDP TBT "
              "%.3fs < DRAM %.3fs, HBF sole fit for %s (%d/%d devices)"
              % (len(points), marked, ndp["ndp_tbt_s"],
                 ndp["dram_tbt_s"], hbf.get("model", "?"),
                 hbf["admitting"], hbf["devices"]))


TRACE_NUMBERS = {
    "identity": ("requests",),
    "overhead": ("requests", "plain_seconds", "traced_seconds",
                 "overhead_ratio", "tap_allocations", "tap_allocs_per_turn",
                 "traces_seen"),
    "recorder": ("requests", "traces_seen", "spans_seen", "retained",
                 "retained_spans", "capacity_traces",
                 "capacity_spans_per_trace", "evicted"),
}


def check_trace(doc, args, errors):
    check_numbers(doc, TRACE_NUMBERS, errors)
    identity = doc.get("identity")
    if isinstance(identity, dict):
        for key in ("report_identical", "metrics_identical"):
            if not is_set(identity.get(key)):
                errors.append(
                    "identity.%s is %r: attaching the tracer/monitor "
                    "must leave the report and metrics byte-identical"
                    % (key, identity.get(key)))
    recorder = doc.get("recorder")
    if isinstance(recorder, dict) and not errors:
        if recorder["retained"] > recorder["capacity_traces"]:
            errors.append(
                "recorder: retained %r exceeds capacity_traces %r — "
                "the flight-recorder bound did not hold" %
                (recorder["retained"], recorder["capacity_traces"]))
        bound = recorder["retained"] * \
            recorder["capacity_spans_per_trace"]
        if recorder["retained_spans"] > bound:
            errors.append(
                "recorder: retained_spans %r exceeds retained x "
                "spans-per-trace bound %r" %
                (recorder["retained_spans"], bound))
        if recorder["traces_seen"] <= recorder["capacity_traces"]:
            errors.append(
                "recorder: traces_seen %r must exceed capacity_traces "
                "%r for the bound to be exercised" %
                (recorder["traces_seen"], recorder["capacity_traces"]))
        if not is_set(recorder.get("validated")):
            errors.append(
                "recorder.validated is %r: every retained span tree "
                "must pass validate_trace" % recorder.get("validated"))
    if not errors:
        per_turn = doc["overhead"]["tap_allocs_per_turn"]
        if per_turn > args.max_tap_allocs:
            errors.append(
                "overhead.tap_allocs_per_turn %.4f > allowed %.4f" %
                (per_turn, args.max_tap_allocs))
    if not errors:
        print("ok: identical with observers attached over %d requests, "
              "%.3f tap allocations/turn (wall overhead %.2f%%, not "
              "gated) over %d requests, recorder %d/%d traces "
              "(%d spans) from %d seen" %
              (doc["identity"]["requests"],
               doc["overhead"]["tap_allocs_per_turn"],
               100.0 * doc["overhead"]["overhead_ratio"],
               doc["overhead"]["requests"], recorder["retained"],
               recorder["capacity_traces"], recorder["retained_spans"],
               recorder["traces_seen"]))


CHECKERS = {
    "helm-bench-scheduler-v1": check_scheduler,
    "helm-bench-pareto-v1": check_pareto,
    "helm-bench-trace-v1": check_trace,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="bench JSON document to validate")
    parser.add_argument("--max-tap-allocs", type=float, default=0.05,
                        help="trace-v1 only: ceiling for "
                             "overhead.tap_allocs_per_turn (default: "
                             "0.05)")
    args = parser.parse_args()

    try:
        with open(args.path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as error:
        print("%s: %s" % (args.path, error), file=sys.stderr)
        return 1

    errors = []
    checker = CHECKERS.get(doc.get("schema"))
    if checker is None:
        errors.append("schema is %r, expected one of %s" %
                      (doc.get("schema"), sorted(CHECKERS)))
    else:
        checker(doc, args, errors)

    for message in errors:
        print("%s: %s" % (args.path, message), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
