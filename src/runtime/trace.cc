#include "runtime/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include "model/transformer.h"
#include "runtime/scheduler.h"
#include "telemetry/export.h"
#include "telemetry/monitor.h"
#include "tracing/flight_recorder.h"
#include "tracing/tracer.h"

namespace helm::runtime {

namespace {

/** Track (tid) layout inside each GPU's process row.  The preemption
 *  swap track owns a *reserved* tid so the KV tier tracks at
 *  kKvTrackBase never shift with scheduler choice.  Managed-KV runs
 *  add one "KV <tier>" track per host tier at kKvTrackBase + tier
 *  first-seen order.  Cluster runs repeat the layout once per GPU,
 *  with the record's gpu_index as the trace pid, so every GPU gets its
 *  own compute-stream and PCIe-link rows.  See trace.h for the full
 *  documented scheme. */
enum Track : int
{
    kGpuTrack = 0,
    kTransferTrack = 1,
    kSwapTrack = 2,
    kKvTrackBase = 3,
};

/** Process row that hosts retained per-request span trees. */
constexpr int kRequestPid = 1000;

/** Append %.3f microseconds straight into @p out — the record loop
 *  calls this several times per step, so no per-call std::string.
 *  The value is bounded, so a stack buffer is safe (unlike names,
 *  which are caller-controlled strings). */
void
put_us(std::ostringstream &out, Seconds seconds)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    out << buf;
}

/** Separate the next element of the traceEvents array. */
void
next_event(std::ostringstream &out, bool &first)
{
    if (!first)
        out << ",\n";
    first = false;
}

void
emit_event(std::ostringstream &out, bool &first, const std::string &name,
           const char *category, int pid, int tid, Seconds start,
           Seconds duration, const std::string &args_json)
{
    next_event(out, first);
    out << "{\"name\":\"";
    telemetry::json_escape_append_stream(out, name);
    out << "\",\"cat\":\"" << category << "\",\"ph\":\"X\",\"ts\":";
    put_us(out, start);
    out << ",\"dur\":";
    put_us(out, duration);
    out << ",\"pid\":" << pid << ",\"tid\":" << tid;
    if (!args_json.empty())
        out << ",\"args\":" << args_json;
    out << "}";
}

/** One "ph":"C" counter sample; @p args_json carries the series. */
void
emit_counter(std::ostringstream &out, bool &first, const char *name,
             Seconds at, const std::string &args_json)
{
    next_event(out, first);
    out << "{\"name\":\"" << name << "\",\"cat\":\"counter\","
        << "\"ph\":\"C\",\"ts\":";
    put_us(out, at);
    out << ",\"pid\":0,\"args\":" << args_json;
    out << "}";
}

/** One "ph":"M" event naming process @p pid (@p what "process_name")
 *  or its thread row @p tid (@p what "thread_name"). */
void
emit_name(std::ostringstream &out, bool &first, const char *what, int pid,
          int tid, const std::string &name)
{
    next_event(out, first);
    out << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"name\":\"";
    telemetry::json_escape_append_stream(out, name);
    out << "\"}}";
}

/** Each GPU's records in replay order, keyed by gpu index: the Chrome
 *  trace's process rows and the per-GPU scheduler trees. */
std::map<std::uint64_t, std::vector<const LayerStepRecord *>>
records_by_gpu(const std::vector<LayerStepRecord> &records)
{
    std::map<std::uint64_t, std::vector<const LayerStepRecord *>> by_gpu;
    for (const LayerStepRecord &record : records)
        by_gpu[record.gpu_index].push_back(&record);
    return by_gpu;
}

/** True when @p rec's load window moved weight or KV bytes: the
 *  windows the h2d track draws and the port-utilization rule samples. */
bool
has_load_window(const LayerStepRecord &rec)
{
    return rec.transfer_time > 0.0 &&
           (rec.transfer_bytes > 0 || rec.kv_read_bytes > 0);
}

/** Host-port utilization of @p rec's load window: its weight plus KV
 *  bytes over window x @p rate.  0 when the window moved nothing or
 *  the rate is unset — such windows contribute no sample. */
double
port_utilization(const LayerStepRecord &rec, double rate)
{
    if (rate <= 0.0 || !has_load_window(rec))
        return 0.0;
    return static_cast<double>(rec.transfer_bytes + rec.kv_read_bytes) /
           (rec.transfer_time * rate);
}

/** A tier's sampled KV occupancy in MiB, the unit of the Chrome
 *  counter row and the monitor's helm_window_kv_occupancy. */
double
occupancy_mib(const KvTierOccupancy &occupancy)
{
    return static_cast<double>(occupancy.bytes) / (1024.0 * 1024.0);
}

/** Clamp [start, end] into the parent interval so derived child spans
 *  (KV swaps queued before decode, prefetches issued before a batch's
 *  first step) still nest. */
void
clamp_into(Seconds parent_start, Seconds parent_end, Seconds &start,
           Seconds &end)
{
    start = std::min(std::max(start, parent_start), parent_end);
    end = std::min(std::max(end, start), parent_end);
}

} // namespace

std::string
chrome_trace_json(const std::vector<LayerStepRecord> &records,
                  const TraceCounterOptions &counters)
{
    std::ostringstream out;
    out << "{\"traceEvents\":[\n";
    bool first = true;

    // One KV-traffic track per cache tier that moved bytes, in
    // first-seen order (the engine records tiers in config order).
    std::map<std::string, int> kv_tids;
    for (const auto &rec : records) {
        for (const auto &tier : rec.kv_tiers) {
            if (kv_tids.count(tier.tier) == 0) {
                const int tid =
                    kKvTrackBase + static_cast<int>(kv_tids.size());
                kv_tids.emplace(tier.tier, tid);
            }
        }
    }

    // Process and track name metadata: one process row per GPU that
    // executed a step, so a cluster trace shows one compute-stream row
    // and one PCIe-link row per GPU.
    for (const auto &gpu_steps : records_by_gpu(records)) {
        const std::uint64_t gpu = gpu_steps.first;
        const int pid = static_cast<int>(gpu);
        emit_name(out, first, "process_name", pid, 0,
                  "GPU " + std::to_string(gpu));
        emit_name(out, first, "thread_name", pid, kGpuTrack,
                  "GPU compute");
        emit_name(out, first, "thread_name", pid, kTransferTrack,
                  "h2d transfers");
        for (const auto &[tier, tid] : kv_tids)
            emit_name(out, first, "thread_name", pid, tid, "KV " + tier);
    }

    // Preemption swap track: only iteration schedulers populate
    // kv_swaps (single-GPU runs, pid 0), and an empty vector emits
    // nothing, so fcfs traces are unchanged byte for byte.  The tid is
    // kSwapTrack — reserved, never derived from tier count.
    if (!counters.kv_swaps.empty()) {
        emit_name(out, first, "thread_name", 0, kSwapTrack,
                  "KV swap (preemption)");
    }

    // Step-record loop: the trace body is O(records), so the name and
    // args strings are hoisted and refilled in place — their capacity
    // survives across iterations and the loop settles into zero
    // steady-state allocations.
    {
        std::string name;
        std::string args;
        std::string step_suffix;
        char num[48];
        auto append_u64 = [&](std::string &dst, std::uint64_t v) {
            std::snprintf(num, sizeof(num), "%llu",
                          static_cast<unsigned long long>(v));
            dst += num;
        };
        for (const auto &rec : records) {
            const int pid = static_cast<int>(rec.gpu_index);
            const char *type_name = model::layer_type_name(rec.type);
            step_suffix.assign(" L");
            std::snprintf(num, sizeof(num), "%d", rec.layer);
            step_suffix += num;
            step_suffix += " t";
            append_u64(step_suffix, rec.token);

            name.assign(type_name);
            name += step_suffix;
            args.assign("{\"stage\":\"");
            args += gpu::stage_name(rec.stage);
            args += "\",\"batch\":";
            append_u64(args, rec.batch_index);
            args += "}";
            emit_event(out, first, name, "compute", pid, kGpuTrack,
                       rec.step_start, rec.compute_time, args);
            if (has_load_window(rec)) {
                name.assign("load ");
                name += type_name;
                name += " L";
                std::snprintf(num, sizeof(num), "%d", rec.layer);
                name += num;
                args.assign("{\"weight_bytes\":");
                append_u64(args, rec.transfer_bytes);
                args += ",\"kv_bytes\":";
                append_u64(args, rec.kv_read_bytes);
                args += "}";
                emit_event(out, first, name, "transfer", pid,
                           kTransferTrack, rec.transfer_start,
                           rec.transfer_time, args);
            }
            // Per-tier KV traffic.  Reads span the prefetch window (the
            // weight-load overlap) unless the step stalled on them;
            // writes span the writeback drain measured by the driver.
            for (const auto &tier : rec.kv_tiers) {
                const int tid = kv_tids.at(tier.tier);
                if (tier.read_bytes > 0) {
                    const bool stalled = rec.kv_stall_time > 0.0;
                    const Seconds start =
                        stalled ? rec.step_start : rec.transfer_start;
                    const Seconds duration =
                        stalled ? rec.kv_stall_time : rec.transfer_time;
                    name.assign("KV read");
                    name += step_suffix;
                    args.assign("{\"bytes\":");
                    append_u64(args, tier.read_bytes);
                    args += "}";
                    emit_event(out, first, name, "kv-read", pid, tid,
                               start, duration, args);
                }
                if (tier.write_bytes > 0 && rec.kv_write_time > 0.0) {
                    name.assign("KV write");
                    name += step_suffix;
                    args.assign("{\"bytes\":");
                    append_u64(args, tier.write_bytes);
                    args += "}";
                    emit_event(out, first, name, "kv-write", pid, tid,
                               rec.step_start, rec.kv_write_time, args);
                }
            }
        }
    }

    for (const auto &swap : counters.kv_swaps) {
        const char *direction = swap.demote ? "demote" : "promote";
        emit_event(out, first,
                   std::string("KV ") + direction + " r" +
                       std::to_string(swap.request_id),
                   "kv-swap", 0, kSwapTrack, swap.start,
                   swap.end - swap.start,
                   "{\"bytes\":" + std::to_string(swap.bytes) +
                       ",\"tenant\":" + std::to_string(swap.tenant) +
                       ",\"direction\":\"" + direction + "\"}");
    }

    // Retained flight-recorder span trees: one "requests" process row,
    // one thread per trace in the recorder's sorted (kind, trace id)
    // order, with flow arrows joining each root child to the next
    // phase.  All ids are derived span ids, so the merge is as
    // deterministic as the spans themselves.
    if (counters.flight_recorder != nullptr &&
        counters.flight_recorder->retained() > 0) {
        const auto traces = counters.flight_recorder->sorted_traces();
        emit_name(out, first, "process_name", kRequestPid, 0,
                  "requests (flight recorder)");
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const tracing::Trace &trace = *traces[t];
            const int tid = static_cast<int>(t);
            std::string row_name =
                trace.kind + " " + std::to_string(trace.trace_id);
            if (trace.flags.shed)
                row_name += " [shed]";
            if (trace.flags.deadline_missed)
                row_name += " [deadline-missed]";
            if (trace.flags.preempted)
                row_name += " [preempted]";
            emit_name(out, first, "thread_name", kRequestPid, tid,
                      row_name);
            std::string args;
            for (const tracing::Span &span : trace.spans) {
                args.assign("{\"phase\":\"");
                args += tracing::span_phase_name(span.phase);
                args += "\"";
                for (const auto &[key, value] : span.attrs) {
                    args += ",\"";
                    telemetry::json_escape_append(args, key);
                    args += "\":\"";
                    telemetry::json_escape_append(args, value);
                    args += "\"";
                }
                args += "}";
                emit_event(out, first, span.name, "span", kRequestPid,
                           tid, span.start, span.duration(), args);
            }
            // Flow arrows between consecutive direct children of the
            // root; the id is the target span's derived id.
            if (trace.spans.empty())
                continue;
            const tracing::Span &root = trace.spans.front();
            const tracing::Span *prev = nullptr;
            for (const tracing::Span &span : trace.spans) {
                if (span.parent_id != root.span_id)
                    continue;
                if (prev != nullptr) {
                    char id[24];
                    std::snprintf(id, sizeof(id), "0x%llx",
                                  static_cast<unsigned long long>(
                                      span.span_id));
                    out << ",\n{\"name\":\"handoff\",\"cat\":\"flow\","
                        << "\"ph\":\"s\",\"id\":\"" << id
                        << "\",\"pid\":" << kRequestPid
                        << ",\"tid\":" << tid << ",\"ts\":";
                    put_us(out, prev->start);
                    out << "}"
                        << ",\n{\"name\":\"handoff\",\"cat\":\"flow\","
                        << "\"ph\":\"f\",\"bp\":\"e\",\"id\":\"" << id
                        << "\",\"pid\":" << kRequestPid
                        << ",\"tid\":" << tid << ",\"ts\":";
                    put_us(out, span.start);
                    out << "}";
                }
                prev = &span;
            }
        }
    }

    // Host-port utilization: each load window contributes a rise at
    // its start and a fall at its end, valued at the fraction of
    // the shared port the window's bytes consumed.
    // Both counter loops are O(records); the args buffer is hoisted
    // for the same reason as the event loop above.
    std::string args;
    for (const auto &rec : records) {
        const double utilization =
            port_utilization(rec, counters.host_port_rate_bytes_per_s);
        if (utilization <= 0.0)
            continue;
        char value[48];
        std::snprintf(value, sizeof(value), "%.4f", utilization);
        args.assign("{\"utilization\":");
        args += value;
        args += "}";
        emit_counter(out, first, "host-port utilization",
                     rec.transfer_start, args);
        emit_counter(out, first, "host-port utilization",
                     rec.transfer_start + rec.transfer_time,
                     "{\"utilization\":0}");
    }
    // KV tier occupancy (MiB per tier) at each sampled step.
    for (const auto &rec : records) {
        if (rec.kv_occupancy.empty())
            continue;
        args.assign("{");
        for (std::size_t t = 0; t < rec.kv_occupancy.size(); ++t) {
            char mib[48];
            std::snprintf(mib, sizeof(mib), "%.3f",
                          occupancy_mib(rec.kv_occupancy[t]));
            if (t > 0)
                args += ",";
            args += "\"";
            telemetry::json_escape_append(args,
                                          rec.kv_occupancy[t].tier);
            args += "\":";
            args += mib;
        }
        args += "}";
        emit_counter(out, first, "KV tier occupancy (MiB)",
                     rec.step_end, args);
    }

    out << "\n]}\n";
    return out.str();
}

Status
write_chrome_trace(const std::vector<LayerStepRecord> &records,
                   const std::string &path,
                   const TraceCounterOptions &counters)
{
    if (records.empty()) {
        return Status::failed_precondition(
            "no records to trace (run with keep_records = true)");
    }
    std::ofstream file(path);
    if (!file.is_open())
        return Status::invalid_argument("cannot open " + path);
    file << chrome_trace_json(records, counters);
    return file.good() ? Status::ok()
                       : Status::internal("write to " + path + " failed");
}

void
synthesize_serving_traces(tracing::Tracer &tracer,
                          const ServingReport &report,
                          const std::vector<LayerStepRecord> &records)
{
    using tracing::OutlierFlags;
    using tracing::SpanPhase;
    using tracing::TraceBuilder;
    const std::size_t cap = tracer.config().max_spans_per_trace;

    std::unordered_map<std::uint64_t, std::vector<const KvSwapEvent *>>
        swaps_by_request;
    for (const KvSwapEvent &event : report.kv_swap_events)
        swaps_by_request[event.request_id].push_back(&event);

    for (const RequestMetrics &metrics : report.requests) {
        OutlierFlags flags;
        flags.deadline_missed = !metrics.deadline_met;
        flags.preempted = metrics.preemptions > 0;

        const auto swaps = swaps_by_request.find(metrics.id);
        const std::size_t swap_count =
            swaps == swaps_by_request.end() ? 0 : swaps->second.size();
        if (!tracer.should_build(flags, metrics.tbt)) {
            tracer.observe(4 + swap_count, flags);
            continue;
        }

        const Seconds arrival = metrics.arrival;
        const Seconds launch = arrival + metrics.queueing_delay;
        const Seconds first =
            std::max(launch, arrival + metrics.ttft);
        const Seconds done =
            std::max(first, arrival + metrics.e2e_latency);

        TraceBuilder builder(metrics.id, "request", cap);
        const std::uint64_t root = builder.add_span(
            SpanPhase::kRequest, "request " + std::to_string(metrics.id),
            arrival, done, 0,
            {{"tenant", std::to_string(metrics.tenant)},
             {"batch", std::to_string(metrics.batch_index)},
             {"prompt_tokens", std::to_string(metrics.prompt_tokens)},
             {"output_tokens", std::to_string(metrics.output_tokens)},
             {"preemptions", std::to_string(metrics.preemptions)},
             {"slo_met", metrics.slo_met ? "true" : "false"},
             {"deadline_met", metrics.deadline_met ? "true" : "false"}});
        builder.add_span(SpanPhase::kQueue, "queue", arrival, launch,
                         root);
        builder.add_span(SpanPhase::kPrefill, "prefill", launch, first,
                         root);
        const std::uint64_t decode = builder.add_span(
            SpanPhase::kDecode, "decode", first, done, root);
        if (swap_count > 0) {
            for (const KvSwapEvent *event : swaps->second) {
                Seconds start = event->start;
                Seconds end = event->end;
                clamp_into(first, done, start, end);
                builder.add_span(
                    SpanPhase::kKvSwap,
                    event->demote ? "KV demote" : "KV promote", start,
                    end, decode,
                    {{"bytes", std::to_string(event->bytes)},
                     {"direction", event->demote ? "gpu->host"
                                                 : "host->gpu"}});
            }
        }
        tracing::Trace trace = builder.take();
        trace.flags = flags;
        trace.tbt = metrics.tbt;
        tracer.finish(std::move(trace));
    }

    // Rejected requests never ran, so there is no timing to span; they
    // are counted as shed traces but not built.  (The gateway path,
    // which owns submission timestamps, builds real shed-turn traces.)
    for (std::size_t i = 0; i < report.rejected_ids.size(); ++i) {
        OutlierFlags flags;
        flags.shed = true;
        tracer.observe(1, flags);
    }

    // One pinned scheduler trace per GPU: batch windows under a serve
    // root, h2d resource spans under their batch.  Step records arrive
    // in deterministic replay order, so first-seen grouping is stable.
    for (const auto &[gpu, steps] : records_by_gpu(records)) {
        OutlierFlags flags;
        flags.pinned = true;

        Seconds serve_start = steps.front()->step_start;
        Seconds serve_end = steps.front()->step_end;
        std::vector<std::uint64_t> batch_order;
        std::map<std::uint64_t, std::pair<Seconds, Seconds>> batch_span;
        std::map<std::uint64_t, std::uint64_t> batch_steps;
        for (const LayerStepRecord *step : steps) {
            serve_start = std::min(serve_start, step->step_start);
            serve_end = std::max(serve_end, step->step_end);
            auto [it, inserted] = batch_span.emplace(
                step->batch_index,
                std::make_pair(step->step_start, step->step_end));
            if (inserted)
                batch_order.push_back(step->batch_index);
            it->second.first =
                std::min(it->second.first, step->step_start);
            it->second.second =
                std::max(it->second.second, step->step_end);
            ++batch_steps[step->batch_index];
        }

        TraceBuilder builder(gpu, "scheduler", cap);
        const std::uint64_t root = builder.add_span(
            SpanPhase::kServe, "serve gpu" + std::to_string(gpu),
            serve_start, serve_end, 0,
            {{"gpu", std::to_string(gpu)},
             {"batches", std::to_string(batch_order.size())},
             {"steps", std::to_string(steps.size())}});
        std::map<std::uint64_t, std::uint64_t> batch_ids;
        for (std::uint64_t batch : batch_order) {
            const auto &[start, end] = batch_span[batch];
            batch_ids[batch] = builder.add_span(
                SpanPhase::kBatch, "batch " + std::to_string(batch),
                start, end, root,
                {{"batch", std::to_string(batch)},
                 {"steps", std::to_string(batch_steps[batch])}});
        }
        for (const LayerStepRecord *step : steps) {
            if (step->transfer_time <= 0.0)
                continue;
            Seconds start = step->transfer_start;
            Seconds end = start + step->transfer_time;
            const auto &[batch_start, batch_end] =
                batch_span[step->batch_index];
            clamp_into(batch_start, batch_end, start, end);
            builder.add_span(
                SpanPhase::kResource,
                "h2d L" + std::to_string(step->layer), start, end,
                batch_ids[step->batch_index],
                {{"bytes", std::to_string(step->transfer_bytes)},
                 {"token", std::to_string(step->token)}});
        }
        tracing::Trace trace = builder.take();
        trace.flags = flags;
        tracer.finish(std::move(trace));
    }
}

void
feed_monitor_from_report(telemetry::ServingMonitor &monitor,
                         const ServingReport &report,
                         const std::vector<LayerStepRecord> &records,
                         double port_rate_bytes_per_s)
{
    std::vector<const RequestMetrics *> done;
    done.reserve(report.requests.size());
    for (const RequestMetrics &metrics : report.requests)
        done.push_back(&metrics);
    std::sort(done.begin(), done.end(),
              [](const RequestMetrics *a, const RequestMetrics *b) {
                  const Seconds ta = a->arrival + a->e2e_latency;
                  const Seconds tb = b->arrival + b->e2e_latency;
                  return ta != tb ? ta < tb : a->id < b->id;
              });
    for (const RequestMetrics *metrics : done)
        monitor.on_completed(metrics->arrival + metrics->e2e_latency,
                             metrics->output_tokens, metrics->ttft);
    // Records list the same tiers in the same order every step;
    // resolve each list position's monitor handle once and re-resolve
    // only if the name at that position ever changes.
    std::vector<std::pair<std::string,
                          telemetry::ServingMonitor::KvTierHandle>>
        tier_handles;
    for (const auto &rec : records) {
        const double utilization =
            port_utilization(rec, port_rate_bytes_per_s);
        if (utilization > 0.0)
            monitor.on_port_utilization(rec.transfer_start, utilization);
        for (std::size_t i = 0; i < rec.kv_occupancy.size(); ++i) {
            const auto &occupancy = rec.kv_occupancy[i];
            if (i >= tier_handles.size())
                tier_handles.emplace_back(
                    occupancy.tier,
                    monitor.kv_tier_handle(occupancy.tier));
            else if (tier_handles[i].first != occupancy.tier)
                tier_handles[i] = {
                    occupancy.tier,
                    monitor.kv_tier_handle(occupancy.tier)};
            monitor.on_kv_occupancy(rec.step_end, tier_handles[i].second,
                                    occupancy_mib(occupancy));
        }
    }
    monitor.finish(report.makespan);
}

} // namespace helm::runtime
