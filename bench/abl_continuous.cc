/**
 * @file
 * Ablation: iteration-level continuous batching and EDF preemption
 * against the PR 1 FCFS batcher under multi-tenant bursty, diurnal,
 * and mixed-SLO arrival processes (no paper figure — the paper serves
 * one batch at a time; this extends its Sec. V serving model with the
 * schedulers out-of-core serving systems actually run).
 *
 * Three blocks:
 *   1. scheduler x scenario: goodput, p99 TTFT, deadline misses,
 *      preemption/swap traffic, Jain fairness across tenants;
 *   2. goodput-vs-deadline curve: how each scheduler degrades as the
 *      deadline tightens on the bursty mix;
 *   3. the preemption microcosm: slots so tight EDF must demote a
 *      running request's KV to host memory to meet an urgent deadline.
 */
#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "workload/arrival.h"

namespace {

using namespace helm;

runtime::ServingSpec
small_spec()
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(model::OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    return spec;
}

struct Scenario
{
    std::string name;
    std::vector<workload::TimedRequest> stream;
    std::uint64_t tenants = 1;
};

std::vector<workload::TimedRequest>
stream_or_die(const workload::ArrivalSpec &spec)
{
    auto stream = workload::generate_arrivals(spec);
    if (!stream.is_ok()) {
        std::fprintf(stderr, "bench: arrivals failed: %s\n",
                     stream.status().to_string().c_str());
        std::exit(1);
    }
    return std::move(stream).value();
}

/** Bursty 3-tenant mix: synchronized on/off bursts at 6x base rate. */
Scenario
bursty_scenario()
{
    workload::ArrivalSpec arrivals;
    arrivals.kind = workload::ArrivalKind::kBursty;
    arrivals.rate = 3.0;
    arrivals.duration = 10.0;
    arrivals.tenants = 3;
    arrivals.burst_factor = 6.0;
    arrivals.burst_period = 4.0;
    arrivals.burst_duty = 0.25;
    return {"bursty-3t", stream_or_die(arrivals), 3};
}

/** Diurnal 2-tenant mix: sinusoidal load swinging 4x over the run. */
Scenario
diurnal_scenario()
{
    workload::ArrivalSpec arrivals;
    arrivals.kind = workload::ArrivalKind::kDiurnal;
    arrivals.rate = 2.0;
    arrivals.duration = 12.0;
    arrivals.tenants = 2;
    arrivals.burst_factor = 4.0;
    arrivals.burst_period = 6.0;
    return {"diurnal-2t", stream_or_die(arrivals), 2};
}

/** Mixed-SLO merge: a lax batch tenant plus an urgent interactive
 *  tenant with tight per-request deadlines (the trace-driven shape:
 *  per-tenant streams merged like a replayed multi-tenant trace). */
Scenario
mixed_slo_scenario()
{
    workload::ArrivalSpec lax;
    lax.kind = workload::ArrivalKind::kPoisson;
    lax.rate = 1.5;
    lax.duration = 10.0;
    lax.output_tokens = 42;
    lax.seed = 3;
    workload::ArrivalSpec urgent;
    urgent.kind = workload::ArrivalKind::kPoisson;
    urgent.rate = 0.8;
    urgent.duration = 10.0;
    urgent.prompt_tokens = 64;
    urgent.output_tokens = 8;
    urgent.deadline = 12.0;
    urgent.seed = 11;
    auto lax_stream = stream_or_die(lax);
    auto urgent_stream = stream_or_die(urgent);
    for (auto &timed : urgent_stream)
        timed.request.tenant = 1;
    return {"mixed-slo",
            workload::merge_arrivals({lax_stream, urgent_stream}), 2};
}

runtime::ServingReport
serve_or_die(const runtime::ServingSpec &spec,
             const runtime::ServingConfig &config,
             const std::vector<workload::TimedRequest> &stream)
{
    auto server = runtime::Server::create(spec, config);
    if (!server.is_ok()) {
        std::fprintf(stderr, "bench: create failed: %s\n",
                     server.status().to_string().c_str());
        std::exit(1);
    }
    for (const auto &timed : stream) {
        const Status submitted = server->submit(timed);
        if (!submitted.is_ok()) {
            std::fprintf(stderr, "bench: submit failed: %s\n",
                         submitted.to_string().c_str());
            std::exit(1);
        }
    }
    auto report = server->serve();
    if (!report.is_ok()) {
        std::fprintf(stderr, "bench: serve failed: %s\n",
                     report.status().to_string().c_str());
        std::exit(1);
    }
    return std::move(report).value();
}

} // namespace

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Ablation: continuous batching + EDF preemption vs FCFS "
           "under multi-tenant load",
           "extends Sec. V serving to iteration-level scheduling");

    const runtime::ServingSpec spec = small_spec();
    const std::vector<Scenario> scenarios = {
        bursty_scenario(), diurnal_scenario(), mixed_slo_scenario()};
    const runtime::SchedulerKind kinds[] = {
        runtime::SchedulerKind::kFcfs,
        runtime::SchedulerKind::kContinuous,
        runtime::SchedulerKind::kEdf};

    // ---- Block 1: scheduler x scenario -------------------------------
    {
        AsciiTable t("OPT-1.3B/NVDRAM, max batch 4, deadline 20 s, "
                     "SLO TTFT 10 s");
        const std::vector<std::string> header{
            "scenario",     "scheduler",  "goodput_tps", "p99_ttft_s",
            "dl_miss",      "preempt",    "swap_mb",     "exposed_ms",
            "jain",         "starved"};
        t.set_header(header);
        t.align_right_from(2);
        csv_begin("abl_continuous");
        CsvWriter csv(std::cout);
        csv.header(header);
        for (const Scenario &scenario : scenarios) {
            for (const auto kind : kinds) {
                runtime::ServingConfig config;
                config.scheduler = kind;
                config.auto_max_batch = false;
                config.max_batch = 4;
                config.tenants = scenario.tenants;
                config.enforce_ttft = true;
                config.ttft_target = 10.0;
                config.has_default_deadline = true;
                config.default_deadline = 20.0;
                const auto report =
                    serve_or_die(spec, config, scenario.stream);
                const std::vector<std::string> row = {
                    scenario.name,
                    runtime::scheduler_kind_name(kind),
                    format_fixed(report.goodput, 2),
                    format_fixed(report.ttft_percentile(99.0), 2),
                    std::to_string(report.deadline_misses),
                    std::to_string(report.preemptions),
                    format_fixed(static_cast<double>(
                                     report.kv_demoted_bytes +
                                     report.kv_promoted_bytes) /
                                     1e6,
                                 1),
                    format_fixed(report.kv_swap_exposed_seconds * 1e3,
                                 2),
                    format_fixed(report.jain_fairness, 3),
                    std::to_string(report.starvation_events)};
                t.add_row(row);
                csv.row(row);
            }
        }
        csv_end();
        t.print(std::cout);
        std::cout << "\n";
    }

    // ---- Block 2: goodput vs deadline on the bursty mix --------------
    {
        AsciiTable t("Goodput (tok/s) / deadline misses as the deadline "
                     "tightens, bursty-3t");
        const std::vector<std::string> header{
            "deadline_s", "scheduler", "goodput_tps", "dl_miss",
            "preempt"};
        t.set_header(header);
        t.align_right_from(1);
        csv_begin("abl_continuous_deadline");
        CsvWriter csv(std::cout);
        csv.header(header);
        const Scenario bursty = bursty_scenario();
        for (const double deadline : {40.0, 20.0, 10.0, 5.0}) {
            for (const auto kind : {runtime::SchedulerKind::kContinuous,
                                    runtime::SchedulerKind::kEdf}) {
                runtime::ServingConfig config;
                config.scheduler = kind;
                config.auto_max_batch = false;
                config.max_batch = 4;
                config.tenants = bursty.tenants;
                config.enforce_ttft = true;
                config.ttft_target = deadline;
                config.has_default_deadline = true;
                config.default_deadline = deadline;
                const auto report =
                    serve_or_die(spec, config, bursty.stream);
                const std::vector<std::string> row = {
                    format_fixed(deadline, 0),
                    runtime::scheduler_kind_name(kind),
                    format_fixed(report.goodput, 2),
                    std::to_string(report.deadline_misses),
                    std::to_string(report.preemptions)};
                t.add_row(row);
                csv.row(row);
            }
        }
        csv_end();
        t.print(std::cout);
        std::cout << "\n";
    }

    // ---- Block 3: the preemption microcosm ---------------------------
    {
        std::vector<workload::TimedRequest> stream;
        const auto add = [&stream](double at, std::uint64_t prompt,
                                   std::uint64_t output,
                                   std::uint64_t tenant,
                                   double deadline) {
            workload::TimedRequest timed;
            timed.request = workload::Request{
                static_cast<std::uint64_t>(stream.size()), prompt,
                output, tenant};
            timed.arrival = at;
            timed.deadline = deadline;
            stream.push_back(timed);
        };
        add(0.0, 256, 64, 0, 1000.0);
        add(0.0, 256, 64, 0, 1000.0);
        add(0.1, 256, 64, 0, 1000.0);
        add(5.0, 64, 8, 1, 9.0);
        add(5.1, 64, 8, 1, 9.2);

        AsciiTable t("Two slots, three long lax jobs, two urgent "
                     "arrivals at t=5 s with ~9 s deadlines");
        const std::vector<std::string> header{
            "scheduler", "dl_miss", "preempt", "demoted_mb",
            "promoted_mb", "exposed_ms"};
        t.set_header(header);
        t.align_right_from(1);
        csv_begin("abl_continuous_preempt");
        CsvWriter csv(std::cout);
        csv.header(header);
        for (const auto kind : {runtime::SchedulerKind::kContinuous,
                                runtime::SchedulerKind::kEdf}) {
            runtime::ServingConfig config;
            config.scheduler = kind;
            config.auto_max_batch = false;
            config.max_batch = 2;
            config.tenants = 2;
            const auto report = serve_or_die(spec, config, stream);
            const std::vector<std::string> row = {
                runtime::scheduler_kind_name(kind),
                std::to_string(report.deadline_misses),
                std::to_string(report.preemptions),
                format_fixed(
                    static_cast<double>(report.kv_demoted_bytes) / 1e6,
                    1),
                format_fixed(
                    static_cast<double>(report.kv_promoted_bytes) / 1e6,
                    1),
                format_fixed(report.kv_swap_exposed_seconds * 1e3, 2)};
            t.add_row(row);
            csv.row(row);
        }
        csv_end();
        t.print(std::cout);
    }
    return 0;
}
