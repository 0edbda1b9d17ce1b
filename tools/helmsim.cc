/**
 * @file
 * helmsim — the command-line front end to the library.
 *
 * Subcommands:
 *   run       simulate one serving configuration, print metrics
 *   serve     request-level serving: an arrival stream through the
 *             fcfs/continuous/edf scheduler, per-request SLO metrics
 *   cluster   multi-GPU serving over shared host memory: replica,
 *             pipeline, or tensor parallelism behind shared ports
 *   gateway   closed-loop client gateway: sessions, per-token
 *             streaming, admission control, replica routing
 *   sweep     cartesian parameter sweep: CSV rows plus pivot tables
 *   tune      QoS auto-tuner: best plan for an objective (+ TBT ceiling)
 *   zoo       cost/latency Pareto frontier across the backend zoo
 *   membench  host<->GPU copy bandwidth sweep (Fig. 3 methodology)
 *   models    list the model registry
 *   configs   list the Table II memory configurations
 *   devices   list the backend-zoo device registry
 *
 * A command reads all of its flags before it simulates anything, and
 * spec_from_flags() is the one reader of the serving-spec flags.  A bad
 * flag is one diagnostic line on stderr.  Exit codes: 0 ok, 1 the run
 * failed, 2 bad flags.  run_helmsim() (helmsim.h) runs a command
 * in-process; main() only wraps it.  A command keeps no state between
 * calls: every run is simulated from its flags alone.
 *
 * Examples:
 *   helmsim run --model OPT-175B --memory NVDRAM --placement HeLM --int4
 *   helmsim run --model LLaMa-2-70B --batch 32 --kv-offload --int4 \
 *       --trace /tmp/trace.json --energy
 *   helmsim serve --rate 4 --duration 60 --placement helm \
 *       --memory nvdram --slo-ttft-ms 20000
 *   helmsim serve --rate 2 --duration 30 --report \
 *       --metrics-out run.json --prom-out run.prom --trace serve.json
 *   helmsim tune --model OPT-175B --memory NVDRAM \
 *       --objective throughput --tbt-ms 4500 --int4
 */
#include "helmsim.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <iostream>
#include <optional>


#include "cluster/instrument.h"
#include "common/args.h"
#include "core/helm.h"
#include "model/zoo.h"
#include "runtime/backend.h"
#include "runtime/instrument.h"
#include "telemetry/attribution.h"
#include "telemetry/export.h"
#include "telemetry/monitor.h"
#include "telemetry/report.h"
#include "tracing/export.h"
#include "tracing/tracer.h"

namespace helm {

namespace {

Result<int>
cmd_models(const ArgParser &, std::ostream &out, std::ostream &)
{
    AsciiTable table("Model registry");
    table.set_header({"name", "params", "fp16 size", "int4 size",
                      "layers", "kv_heads", "kv/seq@2048"});
    table.align_right_from(1);
    for (const auto &config : model::all_models()) {
        const auto fp16 =
            model::build_layers(config, model::DataType::kFp16);
        const auto int4 =
            model::build_layers(config, model::DataType::kInt4Grouped);
        char params[32];
        std::snprintf(params, sizeof(params), "%.1fB",
                      static_cast<double>(config.parameter_count()) /
                          1e9);
        table.add_row(
            {config.name, params,
             format_bytes(model::model_weight_bytes(fp16)),
             format_bytes(model::model_weight_bytes(int4)),
             std::to_string(config.num_layers()),
             std::to_string(config.effective_kv_heads()),
             format_bytes(model::kv_bytes_total(config, 2048))});
    }
    table.print(out);
    return 0;
}

Result<int>
cmd_configs(const ArgParser &, std::ostream &out, std::ostream &)
{
    AsciiTable table("Memory configurations (paper Table II + III)");
    table.set_header({"label", "host tier", "storage tier",
                      "host->gpu @1GiB", "gpu->host @1GiB"});
    table.align_right_from(3);
    for (auto kind : mem::all_config_kinds()) {
        const auto sys = mem::make_config(kind);
        table.add_row(
            {sys.label(),
             mem::memory_kind_name(sys.host()->kind()),
             sys.has_storage()
                 ? mem::memory_kind_name(sys.storage()->kind())
                 : "-",
             format_bandwidth(sys.host_to_gpu_bw(kGiB)),
             format_bandwidth(sys.gpu_to_host_bw(kGiB))});
    }
    table.print(out);
    return 0;
}

Result<int>
cmd_devices(const ArgParser &, std::ostream &out, std::ostream &)
{
    AsciiTable table("Backend zoo (mem/registry.h)");
    table.set_header({"name", "kind", "tier", "capacity", "read@1MiB",
                      "read@1GiB", "write@1MiB", "write@1GiB",
                      "latency"});
    table.align_right_from(3);
    for (const auto &entry : mem::device_table()) {
        const auto device = entry.make();
        table.add_row(
            {entry.name, mem::memory_kind_name(device->kind()),
             device->needs_bounce_buffer() ? "storage" : "host",
             format_bytes(device->capacity()),
             format_bandwidth(device->read_bandwidth(kMiB)),
             format_bandwidth(device->read_bandwidth(kGiB)),
             format_bandwidth(device->write_bandwidth(kMiB)),
             format_bandwidth(device->write_bandwidth(kGiB)),
             format_seconds(device->latency())});
    }
    table.print(out);
    out << "`--memory <name>` (run, serve, cluster, tune, gateway) "
           "serves from any of them;\n`helmsim zoo` sweeps all of "
           "them into a cost/latency frontier.\n";
    return 0;
}

/** The host-memory flag group: every command with the spec flags
 *  picks a host (run, serve, cluster, tune, gateway), and so does
 *  membench, whose default is no single host. */
void
add_host_options(ArgParser &parser,
                 const std::string &default_memory = "NVDRAM")
{
    parser.add_option("memory",
                      "host memory: any `helmsim devices` name",
                      default_memory);
    parser.add_number("cxl-gbps",
                      "host memory = a custom CXL expander of this read "
                      "bandwidth in GB/s (instead of --memory)",
                      "0");
}

/**
 * The HostSpec --memory / --cxl-gbps select.  A named device is
 * resolved here, so an unknown name fails with a one-line diagnostic
 * listing the registered devices, and the spec carries its canonical
 * label.
 */
Result<mem::HostSpec>
parse_host(const ArgParser &parser)
{
    if (parser.is_set("cxl-gbps")) {
        if (parser.is_set("memory")) {
            return Status::invalid_argument(
                "--cxl-gbps replaces the host memory --memory selects; "
                "pick one");
        }
        const double gbps = parser.get_double("cxl-gbps");
        if (!(gbps > 0.0))
            return Status::invalid_argument("--cxl-gbps must be > 0");
        return mem::HostSpec::custom_cxl(Bandwidth::gb_per_s(gbps));
    }
    const auto system = mem::make_system(parser.get("memory"));
    if (!system.is_ok()) {
        return Status::invalid_argument("--memory: " +
                                        system.status().message());
    }
    return mem::HostSpec(system->label());
}

/** Spec flag groups a command declares beside the common ones (model,
 *  host, --int4, prompt/output tokens). */
enum SpecFlags : unsigned
{
    kPlacementFlag = 1u << 0,   //!< --placement
    kComputeSiteFlag = 1u << 1, //!< --compute-site
    kMicroBatchFlag = 1u << 2,  //!< --micro-batches per weight load
    kKvFlags = 1u << 3,         //!< --kv-offload, --kv-tiering, knobs
};

/** Declare the common spec flags plus @p groups, the set
 *  spec_from_flags() reads back. */
void
add_spec_options(ArgParser &parser, unsigned groups)
{
    parser.add_option("model", "model name (see `helmsim models`)",
                      "OPT-175B");
    add_host_options(parser);
    parser.add_switch("int4", "4-bit group-wise weight quantization");
    parser.add_count("prompt-tokens", "input prompt length", "128");
    parser.add_count("output-tokens", "tokens to generate", "21");
    if (groups & kPlacementFlag) {
        parser.add_option("placement",
                          "Baseline | HeLM | Balanced | All-CPU",
                          "Baseline");
    }
    if (groups & kComputeSiteFlag) {
        parser.add_option("compute-site",
                          "per-layer execution site: gpu | auto | ndp "
                          "(auto/ndp need an NDP-capable --memory, e.g. "
                          "NDP-DIMM)",
                          "gpu");
    }
    if (groups & kMicroBatchFlag) {
        parser.add_count("micro-batches",
                         "micro-batches per weight load (block schedule)",
                         "1");
    }
    if (groups & kKvFlags) {
        parser.add_switch("kv-offload",
                          "keep the KV cache in host memory");
        parser.add_switch("kv-tiering",
                          "managed tiered KV cache: auto-sized GPU tier "
                          "backed by a host tier (supersedes "
                          "--kv-offload)");
        parser.add_number("kv-host-gb",
                          "host KV tier capacity in GiB (0 = unbounded)",
                          "0");
        parser.add_count("kv-block-tokens", "tokens per KV block", "16");
        parser.add_option("kv-eviction", "lru | longest-context", "lru");
        parser.add_switch("kv-no-prefetch",
                          "expose the context-fetch latency instead of "
                          "overlapping it with the previous step's "
                          "compute");
    }
}

/**
 * Reject flag combinations that would otherwise be silently ignored —
 * a mis-typed experiment should fail loudly, not measure the wrong
 * thing.  Returns kInvalidArgument with a one-line diagnostic.
 */
Status
check_kv_flag_conflicts(const ArgParser &parser)
{
    if (!parser.is_set("kv-tiering")) {
        for (const char *flag : {"kv-no-prefetch", "kv-host-gb",
                                 "kv-block-tokens", "kv-eviction"}) {
            if (parser.is_set(flag)) {
                return Status::invalid_argument(
                    std::string("--") + flag +
                    " configures the managed tiered KV cache and "
                    "requires --kv-tiering");
            }
        }
        return Status::ok();
    }
    if (parser.is_set("kv-offload")) {
        return Status::invalid_argument(
            "--kv-offload and --kv-tiering are mutually exclusive: "
            "tiering already keeps the cache in host memory");
    }
    return Status::ok();
}

Status
apply_kv_options(const ArgParser &parser, runtime::ServingSpec *spec)
{
    if (parser.is_set("kv-offload"))
        spec->kv_cache = kvcache::KvCacheConfig::legacy_offload();
    if (!parser.is_set("kv-tiering"))
        return Status::ok();
    const double host_bytes =
        parser.get_double("kv-host-gb") * static_cast<double>(kGiB);
    if (!(host_bytes < 0x1p64))
        return Status::invalid_argument("--kv-host-gb: too large");
    kvcache::KvCacheConfig config = kvcache::KvCacheConfig::tiered(
        static_cast<Bytes>(host_bytes));
    config.block_tokens = parser.get_u64("kv-block-tokens");
    HELM_ASSIGN_OR_RETURN(
        config.eviction,
        kvcache::parse_eviction_policy(parser.get("kv-eviction")));
    config.prefetch = !parser.is_set("kv-no-prefetch");
    spec->kv_cache = config;
    return Status::ok();
}

/**
 * The ServingSpec the common flags and @p groups (as declared by
 * add_spec_options) describe; flag conflicts and unknown names fail
 * here, before anything is simulated.
 */
Result<runtime::ServingSpec>
spec_from_flags(const ArgParser &parser, unsigned groups)
{
    if (groups & kKvFlags)
        HELM_RETURN_IF_ERROR(check_kv_flag_conflicts(parser));
    runtime::ServingSpec spec;
    HELM_ASSIGN_OR_RETURN(spec.model,
                          model::find_model(parser.get("model")));
    HELM_ASSIGN_OR_RETURN(spec.memory, parse_host(parser));
    if (groups & kPlacementFlag) {
        HELM_ASSIGN_OR_RETURN(
            spec.placement,
            placement::parse_placement_kind(parser.get("placement")));
    }
    if (groups & kComputeSiteFlag) {
        HELM_ASSIGN_OR_RETURN(spec.compute_site,
                              placement::parse_compute_site_mode(
                                  parser.get("compute-site")));
    }
    spec.compress_weights = parser.is_set("int4");
    if (groups & kMicroBatchFlag)
        spec.micro_batches = parser.get_u64("micro-batches");
    spec.shape.prompt_tokens = parser.get_u64("prompt-tokens");
    spec.shape.output_tokens = parser.get_u64("output-tokens");
    if (groups & kKvFlags)
        HELM_RETURN_IF_ERROR(apply_kv_options(parser, &spec));
    return spec;
}

/** Scheduler knobs shared by `serve` and `cluster` (the legacy batch
 *  flags --max-batch/--max-queue-delay-ms/... stay per-command). */
void
add_scheduler_options(ArgParser &parser)
{
    parser.add_option("scheduler",
                      "batch scheduler: fcfs | continuous | edf",
                      "fcfs");
    parser.add_count("tenants",
                     "tag arrivals round-robin across this many "
                     "tenants (continuous/edf keep separate queues)",
                     "1");
    parser.add_number("deadline-ms",
                      "completion deadline stamped on arrivals without "
                      "one (0 = none)",
                      "0");
    parser.add_count("max-preemptions",
                     "edf: preemptions per request before it pins "
                     "(livelock guard)",
                     "4");
    parser.add_switch("kv-swap-exposed",
                      "serialize preempted-KV promotion before the "
                      "iteration it rejoins instead of overlapping it "
                      "with decode");
}

/** The arrival-stream flags shared by `serve` and `cluster`. */
void
add_arrival_options(ArgParser &parser)
{
    parser.add_number("rate", "mean request arrivals per second", "4");
    parser.add_number("duration", "arrival horizon in seconds", "60");
    parser.add_option("arrival", "poisson | uniform | bursty | diurnal",
                      "poisson");
    parser.add_count("seed", "arrival stream seed", "42");
    parser.add_number("burst-factor",
                      "bursty/diurnal: peak-rate multiplier over the "
                      "base rate",
                      "8");
    parser.add_number("burst-period",
                      "bursty/diurnal: modulation period in seconds",
                      "20");
    parser.add_number("burst-duty",
                      "bursty: fraction of each period at the burst "
                      "rate",
                      "0.25");
}

/** The batch-ceiling, queue and SLO flags shared by `serve` and
 *  `cluster`. */
void
add_batching_options(ArgParser &parser)
{
    parser.add_count("max-batch",
                     "scheduler batch ceiling (0 = auto-size from the "
                     "GPU budget)",
                     "0");
    parser.add_number("max-queue-delay-ms",
                      "head-of-line wait for batch-mates", "500");
    parser.add_count("max-queue", "admission cap on waiting requests",
                     "1024");
    parser.add_number("slo-ttft-ms", "TTFT target for goodput (0 = off)",
                      "0");
    parser.add_number("slo-e2e-ms",
                      "end-to-end latency target for goodput (0 = off)",
                      "0");
}

Result<workload::ArrivalKind>
parse_arrival_kind(const std::string &text)
{
    for (auto [name, kind] :
         {std::pair{"poisson", workload::ArrivalKind::kPoisson},
          std::pair{"uniform", workload::ArrivalKind::kUniform},
          std::pair{"bursty", workload::ArrivalKind::kBursty},
          std::pair{"diurnal", workload::ArrivalKind::kDiurnal}}) {
        if (iequals(text, name))
            return kind;
    }
    return Status::invalid_argument(
        "unknown arrival kind '" + text +
        "' (--arrival takes poisson | uniform | bursty | diurnal)");
}

/**
 * Scheduler-knob conflicts shared by `serve` and `cluster`: the
 * preemption knobs need an iteration-level scheduler, the
 * FCFS batching-delay knob means nothing once batches re-form every
 * iteration, and the burst knobs need a modulated arrival kind.
 */
Status
check_scheduler_flag_conflicts(const ArgParser &parser)
{
    runtime::SchedulerKind kind = runtime::SchedulerKind::kFcfs;
    HELM_ASSIGN_OR_RETURN(
        kind, runtime::parse_scheduler_kind(parser.get("scheduler")));
    if (kind == runtime::SchedulerKind::kFcfs) {
        for (const char *flag :
             {"max-preemptions", "kv-swap-exposed"}) {
            if (parser.is_set(flag)) {
                return Status::invalid_argument(
                    std::string("--") + flag +
                    " configures the iteration-level schedulers and "
                    "requires --scheduler continuous or edf");
            }
        }
    } else if (parser.is_set("max-queue-delay-ms")) {
        return Status::invalid_argument(
            "--max-queue-delay-ms shapes FCFS batch formation; the "
            "continuous schedulers re-form the batch every iteration "
            "(use --scheduler fcfs)");
    }
    workload::ArrivalKind arrival = workload::ArrivalKind::kPoisson;
    HELM_ASSIGN_OR_RETURN(arrival,
                          parse_arrival_kind(parser.get("arrival")));
    if (arrival != workload::ArrivalKind::kBursty &&
        arrival != workload::ArrivalKind::kDiurnal) {
        for (const char *flag :
             {"burst-factor", "burst-period", "burst-duty"}) {
            if (parser.is_set(flag)) {
                return Status::invalid_argument(
                    std::string("--") + flag +
                    " modulates the bursty/diurnal arrival kinds and "
                    "requires --arrival bursty or diurnal");
            }
        }
    } else if (arrival == workload::ArrivalKind::kDiurnal &&
               parser.is_set("burst-duty")) {
        return Status::invalid_argument(
            "--burst-duty applies to --arrival bursty (diurnal follows "
            "a sinusoid with no duty cycle)");
    }
    return Status::ok();
}

/** The unified ServingConfig from the scheduler flags (field-range
 *  validation happens in Server/ClusterServer create()). */
Result<runtime::ServingConfig>
scheduler_config_from_flags(const ArgParser &parser)
{
    runtime::ServingConfig config;
    HELM_ASSIGN_OR_RETURN(
        config.scheduler,
        runtime::parse_scheduler_kind(parser.get("scheduler")));
    config.auto_max_batch = parser.get_u64("max-batch") == 0;
    config.max_batch = parser.get_u64("max-batch");
    config.max_queue_delay =
        parser.get_double("max-queue-delay-ms") * 1e-3;
    config.max_queue_length = parser.get_u64("max-queue");
    config.enforce_ttft = parser.get_double("slo-ttft-ms") > 0.0;
    config.ttft_target = parser.get_double("slo-ttft-ms") * 1e-3;
    config.enforce_e2e = parser.get_double("slo-e2e-ms") > 0.0;
    config.e2e_target = parser.get_double("slo-e2e-ms") * 1e-3;
    config.tenants = parser.get_u64("tenants");
    config.has_default_deadline = parser.get_double("deadline-ms") > 0.0;
    config.default_deadline = parser.get_double("deadline-ms") * 1e-3;
    config.max_preemptions = parser.get_u64("max-preemptions");
    config.overlap_kv_swap = !parser.is_set("kv-swap-exposed");
    return config;
}

/** The synthetic arrival stream the shared arrival flags describe. */
Result<workload::ArrivalSpec>
arrivals_from_flags(const ArgParser &parser, bool variable_lengths)
{
    workload::ArrivalSpec arrivals;
    HELM_ASSIGN_OR_RETURN(arrivals.kind,
                          parse_arrival_kind(parser.get("arrival")));
    arrivals.rate = parser.get_double("rate");
    arrivals.duration = parser.get_double("duration");
    arrivals.prompt_tokens = parser.get_u64("prompt-tokens");
    arrivals.output_tokens = parser.get_u64("output-tokens");
    arrivals.variable_lengths = variable_lengths;
    arrivals.seed = parser.get_u64("seed");
    arrivals.tenants =
        std::max<std::uint64_t>(1, parser.get_u64("tenants"));
    arrivals.burst_factor = parser.get_double("burst-factor");
    arrivals.burst_period = parser.get_double("burst-period");
    arrivals.burst_duty = parser.get_double("burst-duty");
    return arrivals;
}

void
add_telemetry_options(ArgParser &parser)
{
    parser.add_switch("report",
                      "print the time-attribution report (wall time as "
                      "compute / transfer / KV stall / writeback / idle "
                      "per layer type)");
    parser.add_option("metrics-out",
                      "write a JSON metrics snapshot (helm-metrics-v1) "
                      "to this path",
                      "");
    parser.add_option("prom-out",
                      "write a Prometheus text dump to this path", "");
}

/** True when any telemetry artifact (attribution table, JSON snapshot,
 *  Prometheus dump) was requested. */
bool
wants_telemetry(const ArgParser &parser)
{
    return parser.is_set("report") ||
           !parser.get("metrics-out").empty() ||
           !parser.get("prom-out").empty();
}

/** Observability flags shared by serve / cluster / gateway.  All
 *  default-off: an unobserved run's stdout and artifacts stay
 *  byte-identical. */
void
add_observability_options(ArgParser &parser)
{
    parser.add_option("trace-out",
                      "write a helm-trace-v1 span dump (per-request "
                      "span trees retained by the flight recorder) to "
                      "this path",
                      "");
    parser.add_count("flight-recorder",
                     "flight-recorder trace slots: half retain "
                     "flagged outliers (shed / deadline-missed / "
                     "preempted) FIFO, half the slowest-TBT requests",
                     "256");
    parser.add_switch("alerts",
                      "evaluate sliding-window SLO burn-rate alerts "
                      "(fast/slow window pairs) and add them to the "
                      "report and metrics");
}

/** Build the tracer selected by --trace-out / --flight-recorder, or
 *  nullopt when span tracing is off. */
std::optional<tracing::Tracer>
tracer_from_flags(const ArgParser &parser)
{
    if (parser.get("trace-out").empty())
        return std::nullopt;
    tracing::FlightRecorderConfig config;
    config.max_traces = static_cast<std::size_t>(
        std::max<std::uint64_t>(2, parser.get_u64("flight-recorder")));
    return tracing::Tracer(config);
}

/** Write the --trace-out span dump; returns non-zero on I/O failure. */
int
emit_trace_dump(const ArgParser &parser, const tracing::Tracer &tracer,
                std::ostream &out, std::ostream &err)
{
    const std::string path = parser.get("trace-out");
    const Status written = tracing::write_trace_json(tracer, path);
    if (!written.is_ok()) {
        err << written.to_string() << "\n";
        return 1;
    }
    out << "spans: " << path << "\n";
    return 0;
}

/** Render the --report table and write --metrics-out / --prom-out from
 *  the registry every stdout table was printed from. */
int
emit_artifacts(const ArgParser &parser,
               telemetry::MetricsRegistry &registry, std::ostream &out,
               std::ostream &err)
{
    if (parser.is_set("report")) {
        out << telemetry::TimeAttribution::from_registry(registry)
                   .to_table();
    }
    if (!parser.get("metrics-out").empty()) {
        const Status written = telemetry::write_text_file(
            parser.get("metrics-out"), telemetry::json_snapshot(registry));
        if (!written.is_ok()) {
            err << written.to_string() << "\n";
            return 1;
        }
        out << "metrics: " << parser.get("metrics-out") << "\n";
    }
    if (!parser.get("prom-out").empty()) {
        const Status written = telemetry::write_text_file(
            parser.get("prom-out"), telemetry::prometheus_text(registry));
        if (!written.is_ok()) {
            err << written.to_string() << "\n";
            return 1;
        }
        out << "prometheus: " << parser.get("prom-out") << "\n";
    }
    return 0;
}

/** Write a Chrome trace of @p records to @p path and say where. */
void
emit_chrome_trace(const std::vector<runtime::LayerStepRecord> &records,
                  const std::string &path,
                  const runtime::TraceCounterOptions &counters,
                  std::ostream &out, std::ostream &err)
{
    const Status written =
        runtime::write_chrome_trace(records, path, counters);
    if (written.is_ok())
        out << "trace: " << path << "\n";
    else
        err << written.to_string() << "\n";
}

constexpr unsigned kRunFlags =
    kPlacementFlag | kComputeSiteFlag | kMicroBatchFlag | kKvFlags;

void
declare_run(ArgParser &parser)
{
    add_spec_options(parser, kRunFlags);
    parser.add_count("batch", "GPU batch size", "1");
    parser.add_count("repeats", "workload repeats (first discarded)",
                     "3");
    parser.add_option("trace", "write a Chrome trace to this path", "");
    add_telemetry_options(parser);
    parser.add_switch("energy", "print the energy breakdown");
}

Result<int>
cmd_run(const ArgParser &parser, std::ostream &out, std::ostream &err)
{
    runtime::ServingSpec spec;
    HELM_ASSIGN_OR_RETURN(spec, spec_from_flags(parser, kRunFlags));
    spec.batch = parser.get_u64("batch");
    spec.repeats = parser.get_u64("repeats");

    const auto result = runtime::simulate_inference(spec);
    if (!result.is_ok()) {
        err << "simulation failed: " << result.status().to_string()
            << "\n";
        return 1;
    }

    telemetry::MetricsRegistry registry;
    runtime::record_run(registry, spec, *result, "run");
    registry
        .gauge("helm_host_port_rate_bytes_per_s", {},
               "Engine h2d fabric rate the trace utilization counters "
               "are scaled by")
        .set(result->h2d_rate.raw());
    telemetry::print_run_report(out, registry);
    if (result->ndp_steps > 0) {
        out << "near-data: " << result->ndp_steps
            << " steps executed on the NDP tier ("
            << format_bytes(result->ndp_bytes)
            << " of weights kept off the h2d fabric)\n";
    }

    if (parser.is_set("energy")) {
        const auto energy =
            energy::estimate_energy(*result, spec.memory, spec.gpu);
        if (energy.is_ok()) {
            out << "energy: " << format_fixed(energy->joules_per_token(), 1)
                << " J/token ("
                << format_fixed(energy->average_watts(), 0)
                << " W average)\n";
        } else {
            out << "energy: n/a (" << energy.status().message() << ")\n";
        }
    }
    if (!parser.get("trace").empty()) {
        runtime::TraceCounterOptions counters;
        counters.host_port_rate_bytes_per_s = result->h2d_rate.raw();
        emit_chrome_trace(result->records, parser.get("trace"), counters,
                          out, err);
    }
    return emit_artifacts(parser, registry, out, err);
}

/**
 * The serving tail every ServingBackend runs through — `serve` drives a
 * runtime::Server, `cluster` a cluster::ClusterServer, over this one
 * seam: telemetry on/off, submit the stream, serve, record the shared
 * serving metric families plus backend-specific @p extras, print,
 * write the optional Chrome trace, and emit --report/--metrics-out/
 * --prom-out artifacts.
 */
int
run_serving_backend(
    const ArgParser &parser, runtime::ServingBackend &backend,
    const std::vector<workload::TimedRequest> &stream,
    const char *command, const std::string &trace_path,
    const char *failure_prefix,
    const std::function<void(telemetry::MetricsRegistry &)> &extras,
    std::ostream &out, std::ostream &err)
{
    std::optional<tracing::Tracer> tracer = tracer_from_flags(parser);
    const bool want_alerts = parser.is_set("alerts");
    // Step records feed the chrome trace, the scheduler span trees,
    // and the monitor's port/KV windows.
    backend.enable_telemetry(!trace_path.empty() ||
                             tracer.has_value() || want_alerts);
    const Status submitted = backend.submit(stream);
    if (!submitted.is_ok()) {
        err << submitted.to_string() << "\n";
        return 2;
    }
    const auto report = backend.serve();
    if (!report.is_ok()) {
        err << failure_prefix << report.status().to_string() << "\n";
        return 1;
    }

    telemetry::MetricsRegistry registry;
    runtime::record_serving(registry, backend.serving_spec(),
                            backend.effective_max_batch(),
                            backend.kv_request_slots(), *report,
                            command);
    backend.attribution().record(registry);
    if (extras)
        extras(registry);

    if (tracer.has_value()) {
        runtime::synthesize_serving_traces(*tracer, *report,
                                           backend.serving_records());
        tracer->record(registry);
    }
    if (want_alerts) {
        telemetry::MonitorConfig monitor_config;
        monitor_config.ttft_target =
            parser.get_double("slo-ttft-ms") * 1e-3;
        telemetry::ServingMonitor monitor(monitor_config);
        runtime::feed_monitor_from_report(monitor, *report,
                                          backend.serving_records(),
                                          backend.trace_port_rate());
        monitor.record(registry);
    }
    telemetry::print_run_report(out, registry);

    if (!trace_path.empty()) {
        runtime::TraceCounterOptions counters;
        counters.host_port_rate_bytes_per_s = backend.trace_port_rate();
        counters.kv_swaps = report->kv_swap_events;
        if (tracer.has_value())
            counters.flight_recorder = &tracer->recorder();
        emit_chrome_trace(backend.serving_records(), trace_path, counters,
                          out, err);
    }
    if (tracer.has_value()) {
        const int dumped = emit_trace_dump(parser, *tracer, out, err);
        if (dumped != 0)
            return dumped;
    }
    return emit_artifacts(parser, registry, out, err);
}

constexpr unsigned kServeFlags =
    kPlacementFlag | kMicroBatchFlag | kKvFlags;

void
declare_serve(ArgParser &parser)
{
    add_spec_options(parser, kServeFlags);
    add_arrival_options(parser);
    parser.add_switch("variable-lengths",
                      "sample C4-like prompt lengths");
    add_scheduler_options(parser);
    parser.add_option("arrivals",
                      "replay an arrival trace file instead of "
                      "synthesizing one",
                      "");
    add_batching_options(parser);
    parser.add_option("trace",
                      "write a Chrome trace of the served batches "
                      "(with host-port utilization and KV-occupancy "
                      "counters) to this path",
                      "");
    add_telemetry_options(parser);
    add_observability_options(parser);
}

Result<int>
cmd_serve(const ArgParser &parser, std::ostream &out, std::ostream &err)
{
    runtime::ServingSpec base;
    HELM_ASSIGN_OR_RETURN(base, spec_from_flags(parser, kServeFlags));
    HELM_RETURN_IF_ERROR(check_scheduler_flag_conflicts(parser));
    const std::string trace_file = parser.get("arrivals");
    for (const char *flag : {"burst-factor", "burst-period", "burst-duty"}) {
        if (!trace_file.empty() && parser.is_set(flag)) {
            return Status::invalid_argument(
                std::string("--") + flag +
                " shapes the synthesized arrival stream and conflicts "
                "with --arrivals trace replay");
        }
    }
    workload::ArrivalSpec arrivals;
    HELM_ASSIGN_OR_RETURN(
        arrivals,
        arrivals_from_flags(parser, parser.is_set("variable-lengths")));
    runtime::ServingConfig config;
    HELM_ASSIGN_OR_RETURN(config, scheduler_config_from_flags(parser));

    const auto stream = trace_file.empty()
                            ? workload::generate_arrivals(arrivals)
                            : workload::load_arrival_trace(trace_file);
    if (!stream.is_ok()) {
        err << stream.status().to_string() << "\n";
        return 1;
    }
    auto server = runtime::Server::create(base, config);
    if (!server.is_ok()) {
        err << "invalid serving spec: " << server.status().to_string()
            << "\n";
        return 2;
    }
    return run_serving_backend(
        parser, *server, *stream, "serve", parser.get("trace"),
        "serving failed: ",
        [&server](telemetry::MetricsRegistry &registry) {
            registry
                .gauge("helm_host_port_rate_bytes_per_s", {},
                       "Engine h2d fabric rate the trace utilization "
                       "counters are scaled by")
                .set(server->trace_port_rate());
        },
        out, err);
}

/** The shared read port's pooled rate — what the cluster trace's
 *  host-port utilization counters are scaled by. */
double
cluster_port_rate(const std::vector<cluster::PortStats> &ports)
{
    return ports.empty() ? 0.0 : ports.front().rate.raw();
}

constexpr unsigned kClusterFlags = kPlacementFlag | kKvFlags;

void
declare_cluster(ArgParser &parser)
{
    add_spec_options(parser, kClusterFlags);
    parser.add_count("gpus", "GPUs sharing the host memory", "1");
    parser.add_option("parallelism", "replica | pipeline | tensor",
                      "replica");
    parser.add_option("router", "replica request routing: rr | jsq | po2",
                      "rr");
    parser.add_count("sockets",
                     "host memory sockets pooled behind the shared "
                     "read/write ports",
                     "2");
    parser.add_count("micro-batches",
                     "pipeline micro-batches in flight (0 = one per "
                     "stage)",
                     "0");
    add_arrival_options(parser);
    add_scheduler_options(parser);
    add_batching_options(parser);
    parser.add_switch("saturate",
                      "closed-loop saturation run (every GPU busy end to "
                      "end) instead of an arrival stream");
    parser.add_count("batch", "saturation: batch size per GPU", "1");
    parser.add_count("repeats",
                     "saturation: back-to-back batches per GPU", "3");
    parser.add_option("trace",
                      "write a Chrome trace with one row per GPU", "");
    add_telemetry_options(parser);
    add_observability_options(parser);
}

/** `cluster`'s own flag conflicts: per-mode knobs, and the arrival
 *  flags vs the closed-loop --saturate run. */
Status
check_cluster_flag_conflicts(const ArgParser &parser,
                             cluster::Parallelism parallelism)
{
    if (parser.is_set("router") &&
        parallelism != cluster::Parallelism::kReplica) {
        return Status::invalid_argument(
            "--router only applies to --parallelism replica (pipeline "
            "and tensor modes have no request router)");
    }
    if (parser.is_set("micro-batches") &&
        parallelism != cluster::Parallelism::kPipeline) {
        return Status::invalid_argument(
            "--micro-batches only applies to --parallelism pipeline");
    }
    if (!parser.is_set("saturate")) {
        for (const char *flag : {"batch", "repeats"}) {
            if (parser.is_set(flag)) {
                return Status::invalid_argument(
                    std::string("--") + flag +
                    " shapes the closed-loop run and requires "
                    "--saturate (arrival-stream batches are formed by "
                    "the scheduler)");
            }
        }
        return Status::ok();
    }
    for (const char *flag :
         {"rate", "duration", "arrival", "seed", "max-batch",
          "max-queue-delay-ms", "max-queue", "slo-ttft-ms", "slo-e2e-ms",
          "scheduler", "tenants", "deadline-ms", "max-preemptions",
          "kv-swap-exposed", "burst-factor", "burst-period", "burst-duty",
          "trace-out", "flight-recorder", "alerts"}) {
        if (parser.is_set(flag)) {
            return Status::invalid_argument(
                std::string("--") + flag +
                " configures the arrival stream and conflicts with "
                "--saturate");
        }
    }
    return Status::ok();
}

Result<int>
cmd_cluster(const ArgParser &parser, std::ostream &out, std::ostream &err)
{
    cluster::ClusterSpec spec;
    HELM_ASSIGN_OR_RETURN(
        spec.parallelism,
        cluster::parse_parallelism(parser.get("parallelism")));
    HELM_ASSIGN_OR_RETURN(spec.serving,
                          spec_from_flags(parser, kClusterFlags));
    HELM_RETURN_IF_ERROR(check_scheduler_flag_conflicts(parser));
    HELM_RETURN_IF_ERROR(
        check_cluster_flag_conflicts(parser, spec.parallelism));
    HELM_ASSIGN_OR_RETURN(
        spec.router, cluster::parse_router_policy(parser.get("router")));
    spec.gpus = parser.get_u64("gpus");
    spec.sockets = parser.get_u64("sockets");
    spec.micro_batches = parser.get_u64("micro-batches");
    HELM_ASSIGN_OR_RETURN(spec.config, scheduler_config_from_flags(parser));
    const bool saturate = parser.is_set("saturate");
    workload::ArrivalSpec arrivals;
    if (saturate) {
        spec.serving.batch = parser.get_u64("batch");
        spec.serving.repeats = parser.get_u64("repeats");
    } else {
        HELM_ASSIGN_OR_RETURN(arrivals,
                              arrivals_from_flags(parser, false));
    }
    const std::string trace_path = parser.get("trace");

    out << spec.serving.model.name << " x " << spec.gpus << " GPU(s), "
        << cluster::parallelism_name(spec.parallelism)
        << " parallelism on " << spec.serving.memory.name() << " ("
        << spec.sockets << " socket(s))";
    if (spec.parallelism == cluster::Parallelism::kReplica &&
        spec.gpus > 1)
        out << ", router " << cluster::router_policy_name(spec.router);
    out << "\n";

    // ---- Closed-loop saturation --------------------------------------
    if (saturate) {
        const bool want_records =
            !trace_path.empty() || wants_telemetry(parser);
        const auto result = cluster::run_saturated(spec, want_records);
        if (!result.is_ok()) {
            err << "cluster run failed: " << result.status().to_string()
                << "\n";
            return 1;
        }
        telemetry::MetricsRegistry registry;
        cluster::record_saturation(registry, *result);
        if (!result->records.empty()) {
            runtime::attribute_records(result->records,
                                       spec.serving.gpu.layer_overhead)
                .record(registry);
        }
        telemetry::print_run_report(out, registry);
        if (!trace_path.empty()) {
            runtime::TraceCounterOptions counters;
            counters.host_port_rate_bytes_per_s =
                cluster_port_rate(result->ports);
            emit_chrome_trace(result->records, trace_path, counters, out,
                              err);
        }
        return emit_artifacts(parser, registry, out, err);
    }

    // ---- Arrival-stream serving --------------------------------------
    const auto stream = workload::generate_arrivals(arrivals);
    if (!stream.is_ok()) {
        err << stream.status().to_string() << "\n";
        return 1;
    }

    spec.serving.keep_records = !trace_path.empty();
    auto server = cluster::ClusterServer::create(spec);
    if (!server.is_ok()) {
        err << "invalid cluster spec: " << server.status().to_string()
            << "\n";
        return 2;
    }
    return run_serving_backend(
        parser, *server, *stream, "cluster", trace_path,
        "cluster serving failed: ",
        [&server](telemetry::MetricsRegistry &registry) {
            cluster::record_cluster(registry, server->last_gpus(),
                                    server->last_ports());
        },
        out, err);
}

void
declare_tune(ArgParser &parser)
{
    add_spec_options(parser, 0);
    parser.add_option("objective", "latency | throughput", "throughput");
    parser.add_number("tbt-ms", "QoS: maximum time between tokens", "0");
    parser.add_count("batch-limit", "search ceiling", "256");
    parser.add_switch("no-kv-offload",
                      "exclude cache-offload candidates");
    parser.add_count("jobs",
                     "worker threads for candidate evaluation (0 = all "
                     "hardware threads, 1 = sequential)",
                     "0");
}

Result<int>
cmd_tune(const ArgParser &parser, std::ostream &out, std::ostream &err)
{
    runtime::ServingSpec spec;
    HELM_ASSIGN_OR_RETURN(spec, spec_from_flags(parser, 0));
    sweep::TuneRequest request;
    request.model = spec.model;
    request.memory = spec.memory;
    request.compress_weights = spec.compress_weights;
    request.shape = spec.shape;
    HELM_ASSIGN_OR_RETURN(
        request.objective,
        sweep::parse_tune_objective(parser.get("objective")));
    if (parser.get_double("tbt-ms") > 0.0)
        request.tbt_ceiling = parser.get_double("tbt-ms") * 1e-3;
    request.batch_limit = parser.get_u64("batch-limit");
    request.explore_kv_offload = !parser.is_set("no-kv-offload");

    request.jobs = exec::resolve_jobs(parser.get_u64("jobs"));
    const auto tuned = sweep::auto_tune(request);
    if (!tuned.is_ok()) {
        err << tuned.status().to_string() << "\n";
        return 1;
    }
    out << "best: " << tuned->best.describe() << "\n"
        << "  TTFT " << format_seconds(tuned->best.metrics.ttft)
        << ", TBT " << format_seconds(tuned->best.metrics.tbt) << ", "
        << format_fixed(tuned->best.metrics.throughput, 2)
        << " tokens/s  (" << tuned->explored.size()
        << " candidates explored)\n";
    return 0;
}

/** Split "a,b,c" at @p separator into {"a","b","c"}. */
std::vector<std::string>
split(const std::string &text, char separator)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t end = text.find(separator, start);
        parts.push_back(text.substr(start, end - start));
        if (end == std::string::npos)
            return parts;
        start = end + 1;
    }
}

void
declare_sweep(ArgParser &parser)
{
    parser.add_option("dims",
                      "semicolon-separated dimension specs, e.g. "
                      "\"memory=NVDRAM,DRAM;batch=1,8\"",
                      "");
    parser.add_option("pivot",
                      "render a pivot table: row,col,value (e.g. "
                      "\"memory,batch,tokens_per_s\")",
                      "");
    parser.add_switch("int4", "compress weights at every point");
    parser.add_count("jobs",
                     "worker threads for point evaluation (0 = all "
                     "hardware threads, 1 = sequential)",
                     "0");
    add_telemetry_options(parser);
}

Result<int>
cmd_sweep(const ArgParser &parser, std::ostream &out, std::ostream &err)
{
    runtime::ServingSpec base;
    base.model = model::opt_config(model::OptVariant::kOpt175B);
    base.compress_weights = parser.is_set("int4");
    base.repeats = 2;
    sweep::ServingSweep serving_sweep(base);

    if (parser.get("dims").empty())
        return Status::invalid_argument("no dimensions given (--dims)");
    for (const std::string &spec_text : split(parser.get("dims"), ';')) {
        const std::size_t eq = spec_text.find('=');
        if (eq == std::string::npos) {
            return Status::invalid_argument("bad dimension spec: " +
                                            spec_text);
        }
        HELM_RETURN_IF_ERROR(serving_sweep.add_dimension(
            spec_text.substr(0, eq), split(spec_text.substr(eq + 1), ',')));
    }
    const auto pivot = split(parser.get("pivot"), ',');
    if (!parser.get("pivot").empty() && pivot.size() != 3)
        return Status::invalid_argument("--pivot needs row,col,value");

    const std::size_t total = serving_sweep.point_count();
    const std::size_t jobs = exec::resolve_jobs(parser.get_u64("jobs"));
    err << "sweeping " << total << " points...\n";
    const auto start = std::chrono::steady_clock::now();
    const sweep::Dataset dataset = serving_sweep.run({jobs});
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double rate =
        static_cast<double>(total) / std::max(elapsed, 1e-9);
    err << "swept " << total << " points in " << format_fixed(elapsed, 3)
        << " s (" << format_fixed(rate, 1) << " points/s, jobs=" << jobs
        << ")\n";
    dataset.write_csv(out);

    if (!parser.get("pivot").empty()) {
        out << "\n";
        dataset.pivot(pivot[0], pivot[1], pivot[2]).print(out);
    }

    telemetry::MetricsRegistry registry;
    registry
        .gauge("helm_sweep_wall_seconds", {},
               "Wall-clock time of the last sweep")
        .set(elapsed);
    registry
        .gauge("helm_sweep_jobs", {}, "Worker threads used by the sweep")
        .set(static_cast<double>(jobs));
    return emit_artifacts(parser, registry, out, err);
}

void
declare_zoo(ArgParser &parser)
{
    parser.add_option("model", "model of the main grid", "OPT-30B");
    parser.add_switch("fp16", "uncompressed weights (default int4)");
    parser.add_option("batches", "comma-separated batch sizes", "1,8,32");
    parser.add_option("devices",
                      "comma-separated zoo devices (default: all, see "
                      "`helmsim devices`)",
                      "");
    parser.add_count("jobs",
                     "worker threads for point evaluation (0 = all "
                     "hardware threads; the frontier is identical at "
                     "any value)",
                     "0");
    parser.add_switch("no-hbf",
                      "skip the HBF capacity demonstration (a ~1.9 TB "
                      "fp16 model)");
}

Result<int>
cmd_zoo(const ArgParser &parser, std::ostream &out, std::ostream &err)
{
    sweep::ExploreOptions options;
    HELM_ASSIGN_OR_RETURN(options.model,
                          model::find_model(parser.get("model")));
    options.compress_weights = !parser.is_set("fp16");
    options.batches.clear();
    for (const std::string &text : split(parser.get("batches"), ',')) {
        const auto batch = parse_count(text);
        if (!batch.is_ok() || *batch == 0)
            return Status::invalid_argument("bad batch size '" + text + "'");
        options.batches.push_back(*batch);
    }
    if (!parser.get("devices").empty())
        options.devices = split(parser.get("devices"), ',');
    options.jobs = exec::resolve_jobs(parser.get_u64("jobs"));
    options.include_hbf_exclusive = !parser.is_set("no-hbf");

    const auto report = sweep::explore(options);
    if (!report.is_ok()) {
        err << report.status().to_string() << "\n";
        return 2;
    }
    out << sweep::report_text(*report);
    return 0;
}

void
declare_membench(ArgParser &parser)
{
    add_host_options(parser, "");
}

Result<int>
cmd_membench(const ArgParser &parser, std::ostream &out, std::ostream &)
{
    std::vector<mem::HostSpec> hosts{mem::ConfigKind::kDram,
                                     mem::ConfigKind::kNvdram,
                                     mem::ConfigKind::kMemoryMode};
    if (parser.is_set("memory") || parser.is_set("cxl-gbps")) {
        mem::HostSpec host = mem::ConfigKind::kDram;
        HELM_ASSIGN_OR_RETURN(host, parse_host(parser));
        const mem::RegisteredDevice *device = mem::find_device(host.name());
        if (device != nullptr && device->storage_tier()) {
            return Status::invalid_argument(
                "--memory: " + std::string(device->name) +
                " is a storage tier; membench copies from mapped memory");
        }
        hosts = {host};
    }
    AsciiTable table("Copy bandwidth (GB/s)");
    table.set_header({"config", "node", "buffer", "h2d", "d2h"});
    table.align_right_from(1);
    const auto measurements =
        membench::sweep(hosts, membench::default_buffer_sweep());
    for (const auto &m : measurements) {
        if (m.direction != membench::CopyDirection::kHostToGpu)
            continue;
        for (const auto &n : measurements) {
            if (n.direction == membench::CopyDirection::kGpuToHost &&
                n.config == m.config && n.numa_node == m.numa_node &&
                n.buffer == m.buffer) {
                table.add_row(
                    {m.config, std::to_string(m.numa_node),
                     format_bytes(m.buffer),
                     format_fixed(m.bandwidth.as_gb_per_s(), 2),
                     format_fixed(n.bandwidth.as_gb_per_s(), 2)});
            }
        }
    }
    table.print(out);
    return 0;
}

constexpr unsigned kGatewayFlags = kPlacementFlag | kMicroBatchFlag;

void
declare_gateway(ArgParser &parser)
{
    add_spec_options(parser, kGatewayFlags);
    parser.add_option("scheduler",
                      "per-replica backend scheduler: fcfs | continuous "
                      "| edf",
                      "fcfs");
    parser.add_count("replicas",
                     "ServingBackend replicas behind the gateway (1-64)",
                     "2");
    parser.add_count("clients", "concurrent closed-loop clients", "256");
    parser.add_count("requests",
                     "completed turns to drive before clients park",
                     "10000");
    parser.add_count("turns",
                     "turns per session (context grows every turn)", "4");
    parser.add_number("think-ms", "mean client think time between turns",
                      "250");
    parser.add_option("router", "session routing: rr | least | hash",
                      "rr");
    parser.add_count("accept-queue",
                     "accepted-but-undispatched turns allowed per "
                     "replica",
                     "256");
    parser.add_count("max-sessions", "concurrent session cap", "65536");
    parser.add_count("max-context",
                     "per-session context budget in tokens", "4096");
    parser.add_count("context-block",
                     "context rounding block in tokens (memo-friendly "
                     "batch shapes)",
                     "64");
    parser.add_count("dispatch-batch",
                     "turns per dispatch window (0 = the replica's "
                     "batch ceiling)",
                     "0");
    parser.add_count("max-batch",
                     "backend batch ceiling (0 = auto-size from the "
                     "GPU budget)",
                     "0");
    parser.add_switch("coalesce-tokens",
                      "deliver only first token + completion instead "
                      "of every token (fewer sink callbacks; the DES "
                      "events are the same)");
    parser.add_count("seed", "driver RNG seed", "42");
    add_telemetry_options(parser);
    add_observability_options(parser);
}

Result<int>
cmd_gateway(const ArgParser &parser, std::ostream &out, std::ostream &err)
{
    runtime::ServingSpec base;
    HELM_ASSIGN_OR_RETURN(base, spec_from_flags(parser, kGatewayFlags));
    // Size the planner for the worst admissible turn: admission caps
    // the context-grown, block-rounded prompt at --max-context, so the
    // auto batch ceiling must leave KV room for that, not just for the
    // first-turn prompt.
    base.shape.prompt_tokens = std::max(base.shape.prompt_tokens,
                                        parser.get_u64("max-context"));

    runtime::ServingConfig backend_config;
    HELM_ASSIGN_OR_RETURN(
        backend_config.scheduler,
        runtime::parse_scheduler_kind(parser.get("scheduler")));
    backend_config.auto_max_batch = parser.get_u64("max-batch") == 0;
    backend_config.max_batch = parser.get_u64("max-batch");
    // The gateway pre-forms dispatch windows and sheds load itself:
    // backends dispatch greedily and never reject on queue depth.
    backend_config.max_queue_delay = 0.0;
    backend_config.max_queue_length = 1u << 20;

    // The range ClusterSpec::validate puts on --gpus.
    const std::uint64_t replica_count = parser.get_u64("replicas");
    if (replica_count < 1 || replica_count > 64)
        return Status::invalid_argument("--replicas must be in [1, 64]");

    gateway::GatewayConfig gateway_config;
    gateway_config.admission.accept_queue =
        parser.get_u64("accept-queue");
    gateway_config.admission.max_sessions =
        parser.get_u64("max-sessions");
    gateway_config.admission.max_context = parser.get_u64("max-context");
    gateway_config.admission.context_block =
        parser.get_u64("context-block");
    HELM_ASSIGN_OR_RETURN(
        gateway_config.router,
        gateway::parse_router_policy(parser.get("router")));
    gateway_config.dispatch_batch = parser.get_u64("dispatch-batch");
    gateway_config.per_token_stream = !parser.is_set("coalesce-tokens");
    HELM_RETURN_IF_ERROR(gateway_config.validate());

    gateway::DriverConfig driver_config;
    driver_config.clients = parser.get_u64("clients");
    driver_config.target_requests = parser.get_u64("requests");
    driver_config.turns_per_session = parser.get_u64("turns");
    driver_config.mean_think = parser.get_double("think-ms") * 1e-3;
    driver_config.prompt_tokens = parser.get_u64("prompt-tokens");
    driver_config.output_tokens = parser.get_u64("output-tokens");
    driver_config.seed = parser.get_u64("seed");

    std::deque<runtime::Server> servers;
    std::vector<runtime::ServingBackend *> backends;
    for (std::uint64_t r = 0; r < replica_count; ++r) {
        auto created = runtime::Server::create(base, backend_config);
        if (!created.is_ok()) {
            err << "invalid serving spec: "
                << created.status().to_string() << "\n";
            return 2;
        }
        servers.push_back(std::move(*created));
        backends.push_back(&servers.back());
    }

    sim::Simulator sim;
    gateway::Gateway gate(sim, gateway_config, backends);
    std::optional<tracing::Tracer> tracer = tracer_from_flags(parser);
    std::optional<telemetry::ServingMonitor> monitor;
    if (parser.is_set("alerts"))
        monitor.emplace(telemetry::MonitorConfig{});
    if (tracer.has_value() || monitor.has_value()) {
        gateway::GatewayObservability obs;
        obs.tracer = tracer.has_value() ? &*tracer : nullptr;
        obs.monitor = monitor.has_value() ? &*monitor : nullptr;
        gate.set_observability(obs);
    }
    const auto report =
        gateway::run_closed_loop(sim, gate, driver_config);
    if (!report.is_ok()) {
        err << "gateway run failed: " << report.status().to_string()
            << "\n";
        return 1;
    }

    const gateway::GatewayStats &stats = gate.stats();
    AsciiTable table("Gateway results");
    table.set_header({"metric", "value"});
    table.align_right_from(1);
    table.add_row({"replicas", std::to_string(replica_count)});
    table.add_row({"clients", std::to_string(report->clients)});
    table.add_row({"sessions opened",
                   std::to_string(gate.sessions().opened_total())});
    // The drive stops issuing turns once the target completes; the
    // turns in flight then still finish and count.
    const std::uint64_t reached =
        std::min(report->completed, report->target_requests);
    table.add_row({"turns completed", std::to_string(report->completed)});
    table.add_row({"  reaching the target", std::to_string(reached)});
    table.add_row({"  in flight at the target",
                   std::to_string(report->completed - reached)});
    table.add_row({"turns shed", std::to_string(stats.turns_shed)});
    table.add_row({"retries", std::to_string(report->retries)});
    table.add_row(
        {"dispatch windows", std::to_string(stats.dispatch_windows)});
    table.add_row({"tokens delivered",
                   std::to_string(stats.tokens_delivered)});
    table.add_row({"TTFT p50 / p99",
                   format_seconds(percentile_nearest_rank(
                       report->ttft, 50.0)) +
                       " / " +
                       format_seconds(percentile_nearest_rank(
                           report->ttft, 99.0))});
    table.add_row({"TBT p50", format_seconds(percentile_nearest_rank(
                                  report->tbt, 50.0))});
    table.add_row({"E2E p50 / p99",
                   format_seconds(percentile_nearest_rank(
                       report->e2e, 50.0)) +
                       " / " +
                       format_seconds(percentile_nearest_rank(
                           report->e2e, 99.0))});
    table.add_row({"queue wait p95",
                   format_seconds(percentile_nearest_rank(
                       report->queue_wait, 95.0))});
    table.add_row({"sim makespan", format_seconds(report->sim_makespan)});
    table.add_row(
        {"DES events", std::to_string(report->events_executed)});
    table.add_row({"events/s (host)",
                   format_fixed(report->events_per_second / 1e6, 2) +
                       "M"});
    table.add_row({"requests/s (host)",
                   format_fixed(report->requests_per_second, 0)});
    table.print(out);

    for (std::size_t i = 0; i < gateway::kRejectReasonCount; ++i) {
        const std::uint64_t count = gate.admission().rejects()[i];
        if (count > 0)
            out << "shed["
                << gateway::reject_reason_name(
                       static_cast<gateway::RejectReason>(i))
                << "]: " << count << "\n";
    }

    telemetry::MetricsRegistry registry;
    gateway::record_gateway(registry, gate, *report);
    if (monitor.has_value()) {
        monitor->finish(report->sim_makespan);
        monitor->record(registry);
    }
    if (tracer.has_value())
        tracer->record(registry);
    if (monitor.has_value() || tracer.has_value()) {
        // Only the new observability sections match gateway families,
        // so unobserved stdout is untouched.
        telemetry::print_run_report(out, registry);
    }
    if (tracer.has_value()) {
        const int dumped = emit_trace_dump(parser, *tracer, out, err);
        if (dumped != 0)
            return dumped;
    }
    const int artifacts = emit_artifacts(parser, registry, out, err);
    if (artifacts != 0)
        return artifacts;
    if (report->completed < report->target_requests) {
        err << "gateway run fell short of the target: "
            << report->completed << " < " << report->target_requests
            << " (attempt budget exhausted)\n";
        return 1;
    }
    return 0;
}

void
usage(std::ostream &out)
{
    out << "helmsim — out-of-core LLM inference on heterogeneous "
           "host memory (IISWC'25 reproduction)\n\n"
           "subcommands:\n"
           "  run       simulate one serving configuration\n"
           "  serve     request-level serving: arrival stream through "
           "the fcfs | continuous | edf scheduler\n"
           "  cluster   multi-GPU serving over shared host memory "
           "(replica | pipeline | tensor)\n"
           "  gateway   closed-loop client gateway: sessions, "
           "streaming, admission, routing across replicas\n"
           "  sweep     cartesian parameter sweep with pivot tables\n"
           "  tune      QoS auto-tuner\n"
           "  zoo       cost/latency Pareto frontier across the "
           "backend zoo\n"
           "  membench  copy bandwidth sweep (Fig. 3)\n"
           "  models    list the model registry\n"
           "  configs   list memory configurations\n"
           "  devices   list the backend-zoo device registry\n\n"
           "`helmsim <subcommand> --help` for options.\n";
}

/** One subcommand: its flags, and what it does with them.  A flag
 *  error the command returns as a Status is one stderr line, exit 2. */
struct Command
{
    const char *name;
    const char *description;
    void (*declare)(ArgParser &parser);
    Result<int> (*run)(const ArgParser &parser, std::ostream &out,
                       std::ostream &err);
};

void
declare_nothing(ArgParser &)
{
}

constexpr Command kCommands[] = {
    {"run", "simulate one out-of-core serving configuration", declare_run,
     cmd_run},
    {"serve",
     "request-level serving: an arrival stream through the fcfs, "
     "continuous, or edf scheduler",
     declare_serve, cmd_serve},
    {"cluster",
     "multi-GPU serving over shared heterogeneous host memory (replica, "
     "pipeline, or tensor parallelism)",
     declare_cluster, cmd_cluster},
    {"gateway",
     "closed-loop serving gateway: client sessions, per-token "
     "streaming, admission control, and replica routing in front of "
     "ServingBackend replicas",
     declare_gateway, cmd_gateway},
    {"sweep",
     "cartesian parameter sweep over --dims \"name=v1,v2;name=v3\"",
     declare_sweep, cmd_sweep},
    {"tune", "find the best serving plan for an objective", declare_tune,
     cmd_tune},
    {"zoo",
     "sweep placements across the backend zoo into a cost/latency "
     "Pareto frontier ($/token vs TBT, plus the NDP and HBF checks)",
     declare_zoo, cmd_zoo},
    {"membench",
     "host<->GPU copy bandwidth sweep (Fig. 3) over DRAM, NVDRAM and "
     "MemoryMode, or the one host --memory / --cxl-gbps picks",
     declare_membench, cmd_membench},
    {"models", "list the model registry", declare_nothing, cmd_models},
    {"configs", "list the Table II + III memory configurations",
     declare_nothing, cmd_configs},
    {"devices", "list the backend-zoo device registry", declare_nothing,
     cmd_devices},
};

} // namespace

int
run_helmsim(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    if (args.empty()) {
        usage(out);
        return 2;
    }
    if (args[0] == "--help" || args[0] == "help") {
        usage(out);
        return 0;
    }
    const auto command =
        std::find_if(std::begin(kCommands), std::end(kCommands),
                     [&args](const Command &c) { return args[0] == c.name; });
    if (command == std::end(kCommands)) {
        err << "unknown subcommand: " << args[0] << "\n\n";
        usage(out);
        return 2;
    }
    ArgParser parser("helmsim " + args[0], command->description);
    command->declare(parser);
    parser.add_switch("help", "show this help");
    const Status parsed = parser.parse({args.begin() + 1, args.end()});
    if (parsed.is_ok() && parser.is_set("help")) {
        out << parser.help();
        return 0;
    }
    const Result<int> code = parsed.is_ok()
                                 ? command->run(parser, out, err)
                                 : Result<int>(parsed);
    if (!code.is_ok()) {
        err << code.status().to_string() << "\n";
        return 2;
    }
    return *code;
}

} // namespace helm
