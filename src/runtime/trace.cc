#include "runtime/trace.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "model/transformer.h"
#include "telemetry/export.h"
#include "tracing/flight_recorder.h"

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

void
emit_event(std::ostringstream &out, bool &first, const std::string &name,
           const char *category, int pid, int tid, Seconds start,
           Seconds duration, const std::string &args_json)
{
    if (!first)
        out << ",\n";
    first = false;
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
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"name\":\"" << name << "\",\"cat\":\"counter\","
        << "\"ph\":\"C\",\"ts\":";
    put_us(out, at);
    out << ",\"pid\":0,\"args\":" << args_json;
    out << "}";
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
    // first-seen order (the engine records tiers in config order), and
    // one process row per GPU that executed a step.
    std::map<std::string, int> kv_tids;
    std::map<std::uint64_t, bool> gpus;
    for (const auto &rec : records) {
        gpus[rec.gpu_index] = true;
        for (const auto &tier : rec.kv_tiers) {
            if (kv_tids.count(tier.tier) == 0) {
                const int tid =
                    kKvTrackBase + static_cast<int>(kv_tids.size());
                kv_tids.emplace(tier.tier, tid);
            }
        }
    }

    // Process and track name metadata, repeated per GPU so a cluster
    // trace shows one compute-stream row and one PCIe-link row per GPU.
    for (const auto &[gpu, used] : gpus) {
        (void)used;
        const int pid = static_cast<int>(gpu);
        if (!first)
            out << ",\n";
        first = false;
        out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":0,\"args\":{\"name\":\"GPU " << gpu << "\"}},\n"
            << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":0,\"args\":{\"name\":\"GPU compute\"}},\n"
            << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":1,\"args\":{\"name\":\"h2d transfers\"}}";
        for (const auto &[tier, tid] : kv_tids) {
            out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                << pid << ",\"tid\":" << tid
                << ",\"args\":{\"name\":\"KV "
                << telemetry::json_escape(tier) << "\"}}";
        }
    }

    // Preemption swap track: only iteration schedulers populate
    // kv_swaps (single-GPU runs, pid 0), and an empty vector emits
    // nothing, so fcfs traces are unchanged byte for byte.  The tid is
    // kSwapTrack — reserved, never derived from tier count.
    const bool has_swaps = !counters.kv_swaps.empty();
    if (has_swaps) {
        if (!first)
            out << ",\n";
        first = false;
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0"
            << ",\"tid\":" << static_cast<int>(kSwapTrack)
            << ",\"args\":{\"name\":\"KV swap (preemption)\"}}";
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
            if (rec.transfer_time > 0.0 &&
                (rec.transfer_bytes > 0 || rec.kv_read_bytes > 0)) {
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

    if (has_swaps) {
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
    }

    // Retained flight-recorder span trees: one "requests" process row,
    // one thread per trace in the recorder's sorted (kind, trace id)
    // order, with flow arrows joining each root child to the next
    // phase.  All ids are derived span ids, so the merge is as
    // deterministic as the spans themselves.
    if (counters.flight_recorder != nullptr &&
        counters.flight_recorder->retained() > 0) {
        const auto traces = counters.flight_recorder->sorted_traces();
        if (!first)
            out << ",\n";
        first = false;
        out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
            << kRequestPid << ",\"tid\":0,\"args\":{\"name\":"
            << "\"requests (flight recorder)\"}}";
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
            out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                << kRequestPid << ",\"tid\":" << tid
                << ",\"args\":{\"name\":\""
                << telemetry::json_escape(row_name) << "\"}}";
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
    if (counters.host_port_rate_bytes_per_s > 0.0) {
        for (const auto &rec : records) {
            const Bytes moved = rec.transfer_bytes + rec.kv_read_bytes;
            if (rec.transfer_time <= 0.0 || moved == 0)
                continue;
            const double utilization =
                static_cast<double>(moved) /
                (rec.transfer_time *
                 counters.host_port_rate_bytes_per_s);
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
    }
    // KV tier occupancy (MiB per tier) at each sampled step.
    for (const auto &rec : records) {
        if (rec.kv_occupancy.empty())
            continue;
        args.assign("{");
        for (std::size_t t = 0; t < rec.kv_occupancy.size(); ++t) {
            char mib[48];
            std::snprintf(mib, sizeof(mib), "%.3f",
                          static_cast<double>(
                              rec.kv_occupancy[t].bytes) /
                              (1024.0 * 1024.0));
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

} // namespace helm::runtime
