#include "runtime/scheduler.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "common/summary.h"
#include "runtime/instrument.h"

namespace helm::runtime {

namespace {

std::vector<double>
collect(const std::vector<RequestMetrics> &requests,
        Seconds RequestMetrics::*field)
{
    std::vector<double> values;
    values.reserve(requests.size());
    for (const auto &r : requests)
        values.push_back(r.*field);
    return values;
}

} // namespace

Seconds
ServingReport::queueing_delay_percentile(double p) const
{
    return percentile_nearest_rank(
        collect(requests, &RequestMetrics::queueing_delay), p);
}

Seconds
ServingReport::ttft_percentile(double p) const
{
    return percentile_nearest_rank(collect(requests, &RequestMetrics::ttft),
                                   p);
}

Seconds
ServingReport::tbt_percentile(double p) const
{
    return percentile_nearest_rank(collect(requests, &RequestMetrics::tbt),
                                   p);
}

Seconds
ServingReport::e2e_percentile(double p) const
{
    return percentile_nearest_rank(
        collect(requests, &RequestMetrics::e2e_latency), p);
}

Result<AdmissionGeometry>
size_admission(const ServingSpec &spec, const ServingConfig &config,
               const model::TransformerConfig &kv_model,
               const StagingSizes &staging)
{
    AdmissionGeometry out;
    out.micro_batches = spec.micro_batches;
    std::uint64_t ceiling = config.auto_max_batch ? 0 : config.max_batch;
    if (ceiling == 0) {
        // Auto-size against the planner's KV-capacity math: the largest
        // effective batch that fits HBM with every weight spilled off.
        // The iteration schedulers run probes instead of the template:
        // size for the largest, a decode step at the longest context.
        model::SequenceShape shape = spec.shape;
        if (config.scheduler != SchedulerKind::kFcfs) {
            const std::uint64_t longest =
                spec.shape.prompt_tokens + spec.shape.output_tokens - 1;
            shape = {probe_bucket(spec, longest).tokens, 2};
        }
        const std::uint64_t slots = max_batch(
            spec.gpu, kv_model, staging, /*gpu_weight_bytes=*/0, shape,
            spec.compress_weights, /*limit=*/4096,
            spec.kv_resident_on_gpu());
        if (slots == 0) {
            return Status::capacity_exceeded(
                "not even one request fits the GPU at the template "
                "shape; cannot auto-size the scheduler batch");
        }
        ceiling = std::max<std::uint64_t>(slots / spec.micro_batches, 1);
    }

    // Managed KV tiers additionally bound admission by block capacity.
    // Resolve the GPU tier's auto capacity the way the engine will —
    // the HBM the planner leaves free at the ceiling's effective batch,
    // with every weight spilled off — then ask the manager how many
    // template-shape requests the tiers hold.
    if (spec.kv_cache.has_value()) {
        kvcache::KvCacheConfig kv_config = spec.kv_config();
        for (kvcache::TierSpec &tier : kv_config.tiers) {
            if (tier.is_gpu && tier.auto_capacity) {
                const GpuBudget budget = compute_gpu_budget(
                    spec.gpu, kv_model, staging, /*gpu_weight_bytes=*/0,
                    spec.shape, ceiling * spec.micro_batches,
                    spec.compress_weights, /*kv_on_gpu=*/false);
                tier.capacity = std::max<Bytes>(budget.free_bytes(), 1);
                tier.auto_capacity = false;
            }
        }
        auto manager_or = kvcache::KvCacheManager::create(kv_config, kv_model);
        if (!manager_or.is_ok())
            return manager_or.status();
        const kvcache::KvCacheManager &manager = *manager_or;
        const std::uint64_t max_context =
            spec.shape.prompt_tokens + spec.shape.output_tokens;
        const std::uint64_t slots =
            manager.request_slots(max_context, /*limit=*/4096);
        if (slots / spec.micro_batches == 0) {
            return Status::capacity_exceeded(
                "managed KV tiers cannot hold even one request of the "
                "template shape (" + std::to_string(max_context) +
                " tokens x " + std::to_string(spec.micro_batches) +
                " micro-batches)");
        }
        out.kv_block_tokens = kv_config.block_tokens;
        bool unbounded = false;
        std::uint64_t total_blocks = 0;
        for (const kvcache::TierSpec &tier : kv_config.tiers) {
            if (tier.capacity == 0)
                unbounded = true;
            else
                total_blocks += tier.capacity / manager.block_bytes();
        }
        if (!unbounded) {
            out.kv_capacity_blocks = total_blocks;
            out.kv_request_slots = slots;
            ceiling = std::min(ceiling, slots / spec.micro_batches);
        }
    }
    out.ceiling = ceiling;
    return out;
}

Status
check_submission(const workload::TimedRequest &timed)
{
    if (timed.arrival < 0.0)
        return Status::invalid_argument("arrival time must be >= 0");
    if (timed.request.prompt_tokens < 1 ||
        timed.request.output_tokens < 1) {
        return Status::invalid_argument(
            "prompt and output token counts must be >= 1");
    }
    if (timed.deadline != 0.0 && timed.deadline < timed.arrival) {
        return Status::invalid_argument(
            "a request deadline must not precede its arrival");
    }
    return Status::ok();
}

void
sort_by_arrival(std::vector<workload::TimedRequest> &pending)
{
    std::stable_sort(pending.begin(), pending.end(),
                     [](const workload::TimedRequest &a,
                        const workload::TimedRequest &b) {
                         return a.arrival < b.arrival;
                     });
}

ServingSpec
batch_spec(const ServingSpec &base, const BatchShape &batch,
           bool keep_records)
{
    ServingSpec spec = base;
    spec.batch = batch.count;
    spec.shape = batch.shape;
    spec.repeats = 1;
    spec.keep_records = keep_records;
    return spec;
}

ProbeBucket
probe_bucket(const ServingSpec &spec, std::uint64_t tokens)
{
    const std::uint64_t block = spec.kv_cache.has_value()
                                    ? spec.kv_cache->block_tokens
                                    : kvcache::KvCacheConfig{}.block_tokens;
    const std::uint64_t index = (tokens + block - 1) / block;
    return {index, index * block};
}

FormedBatch
form_batch(std::deque<std::size_t> &queue,
           const std::vector<workload::TimedRequest> &pending,
           const AdmissionGeometry &admission, ServingReport &report)
{
    FormedBatch out;
    const bool kv_bounded = admission.kv_bounded();
    while (!queue.empty() && out.shape.count < admission.ceiling) {
        const workload::Request &request = pending[queue.front()].request;
        const model::SequenceShape grown{
            std::max(out.shape.shape.prompt_tokens, request.prompt_tokens),
            std::max(out.shape.shape.output_tokens, request.output_tokens)};
        if (kv_bounded) {
            if (admission.padded_blocks(1, request.prompt_tokens +
                                               request.output_tokens) >
                admission.kv_capacity_blocks) {
                // Can never fit, alone or otherwise: shed it.
                report.rejected_ids.push_back(request.id);
                ++report.kv_rejected;
                queue.pop_front();
                continue;
            }
            // Every member holds KV for the shape the batch runs at:
            // the longest prompt plus the longest output.
            if (admission.padded_blocks(out.shape.count + 1,
                                        grown.max_context()) >
                admission.kv_capacity_blocks)
                break; // batch full by KV capacity
        }
        out.members.push_back(queue.front());
        ++out.shape.count;
        out.shape.shape = grown;
        queue.pop_front();
    }
    return out;
}

void
record_batch(ServingReport &report,
             const std::vector<workload::TimedRequest> &pending,
             const std::vector<std::size_t> &members,
             std::uint64_t batch_index, Seconds launch, Seconds done,
             const BatchCost &cost, const ServingConfig &config)
{
    for (std::size_t member : members) {
        const workload::TimedRequest &timed = pending[member];
        RequestMetrics r;
        r.id = timed.request.id;
        r.tenant = timed.request.tenant;
        r.prompt_tokens = timed.request.prompt_tokens;
        r.output_tokens = timed.request.output_tokens;
        r.batch_index = batch_index;
        r.arrival = timed.arrival;
        r.queueing_delay = launch - timed.arrival;
        r.ttft = r.queueing_delay + cost.ttft;
        r.tbt = cost.tbt;
        r.e2e_latency = done - timed.arrival;
        r.slo_met =
            (!config.enforce_ttft || r.ttft <= config.ttft_target) &&
            (!config.enforce_e2e || r.e2e_latency <= config.e2e_target);
        r.deadline = timed.deadline;
        r.deadline_met = timed.deadline == 0.0 || done <= timed.deadline;
        report.requests.push_back(r);
    }
}

void
finalize_serving_report(ServingReport &report, Seconds last_completion)
{
    report.completed = report.requests.size();
    report.rejected = report.rejected_ids.size();
    report.mean_batch_size =
        report.batches_formed > 0
            ? static_cast<double>(report.completed) /
                  static_cast<double>(report.batches_formed)
            : 0.0;
    // Makespan: first served arrival to last completion.  Tokens are
    // the requests' own generation budgets — padding is engine
    // overhead, not served traffic.
    Seconds first_arrival = 0.0;
    if (!report.requests.empty()) {
        first_arrival = report.requests.front().arrival;
        for (const RequestMetrics &r : report.requests)
            first_arrival = std::min(first_arrival, r.arrival);
    }
    report.makespan = last_completion - first_arrival;
    std::uint64_t slo_tokens = 0;
    std::uint64_t slo_met_count = 0;
    for (const RequestMetrics &r : report.requests) {
        report.total_tokens += r.output_tokens;
        if (r.slo_met) {
            slo_tokens += r.output_tokens;
            ++slo_met_count;
        }
        if (!r.deadline_met)
            ++report.deadline_misses;
    }
    if (report.makespan > 0.0) {
        report.throughput =
            static_cast<double>(report.total_tokens) / report.makespan;
        report.goodput = static_cast<double>(slo_tokens) / report.makespan;
    }
    report.slo_attainment =
        report.completed > 0
            ? static_cast<double>(slo_met_count) /
                  static_cast<double>(report.completed)
            : 0.0;
}

Result<ServingReport>
run_fcfs(std::vector<workload::TimedRequest> &pending,
         const AdmissionGeometry &admission, const ServingConfig &config,
         const LaunchBatch &launch)
{
    sort_by_arrival(pending);
    ServingReport report;
    report.submitted = pending.size();
    if (pending.empty())
        return report;
    report.requests.reserve(pending.size());

    const std::uint64_t cap = config.max_queue_length;
    // The batch can never outgrow the queue that feeds it.
    const std::uint64_t slots = std::min(admission.ceiling, cap);
    constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

    std::deque<std::size_t> queue; // indices into pending, FCFS
    std::size_t next_arrival = 0;  // first request not yet admitted
    Seconds free_t = 0.0;          // when the engine can next launch
    Seconds last_completion = pending.front().arrival;

    // Admit every arrival up to virtual time @p t, shedding requests
    // that find the queue at capacity.
    auto admit_until = [&](Seconds t) {
        while (next_arrival < pending.size() &&
               pending[next_arrival].arrival <= t) {
            if (queue.size() < cap) {
                queue.push_back(next_arrival);
                report.max_queue_depth = std::max<std::uint64_t>(
                    report.max_queue_depth, queue.size());
            } else {
                report.rejected_ids.push_back(
                    pending[next_arrival].request.id);
            }
            ++next_arrival;
        }
    };

    while (!queue.empty() || next_arrival < pending.size()) {
        if (queue.empty()) {
            admit_until(pending[next_arrival].arrival);
            continue;
        }
        const workload::TimedRequest &head = pending[queue.front()];
        const Seconds ready = std::max(head.arrival, free_t);
        admit_until(ready); // arrivals while the engine was busy

        // Launch when the batch fills, when the head has waited
        // max_queue_delay past the moment it could start, or once no
        // further arrival can join — whichever comes first.
        Seconds launch_at = ready;
        if (queue.size() < slots) {
            const Seconds deadline =
                std::max(ready, head.arrival + config.max_queue_delay);
            const std::size_t needed = slots - queue.size();
            const std::size_t filler = next_arrival + needed - 1;
            const Seconds full_at = filler < pending.size()
                                        ? pending[filler].arrival
                                        : kNever;
            launch_at = std::max(ready, std::min(deadline, full_at));
            admit_until(launch_at);
        }

        const FormedBatch formed =
            form_batch(queue, pending, admission, report);
        if (formed.members.empty())
            continue; // every candidate was shed

        const auto cost =
            launch(formed.shape, launch_at, report.batches_formed);
        if (!cost.is_ok())
            return cost.status();
        const Seconds done = launch_at + cost->total_time;
        record_batch(report, pending, formed.members, report.batches_formed,
                     launch_at, done, *cost, config);
        ++report.batches_formed;
        free_t = done;
        last_completion = done;
    }
    finalize_serving_report(report, last_completion);
    return report;
}

Result<Server>
Server::create(ServingSpec base, ServingConfig config)
{
    // The template's batch/shape/repeats are overridden per formed
    // batch; pin them to the canonical single-batch form so validation
    // checks what will actually run.
    base.batch = std::max<std::uint64_t>(base.batch, 1);
    base.repeats = 1;
    base.keep_records = false;
    HELM_RETURN_IF_ERROR(base.validate_fields());
    const StagingSizes staging = model::build_layers(
        base.model, base.compress_weights ? model::DataType::kInt4Grouped
                                          : model::DataType::kFp16);
    HELM_RETURN_IF_ERROR(base.check_gpu_floor(staging));
    HELM_RETURN_IF_ERROR(config.validate());

    auto admission = size_admission(base, config, base.model, staging);
    if (!admission.is_ok())
        return admission.status();
    return Server(std::move(base), config, *admission);
}

Status
Server::submit(const workload::TimedRequest &timed)
{
    HELM_RETURN_IF_ERROR(check_submission(timed));
    pending_.push_back(timed);
    return Status::ok();
}

Result<const Server::ShapeRun *>
Server::run_shape(const BatchShape &batch)
{
    if (batch.count == 0)
        return Status::invalid_argument("cannot run an empty batch");
    const auto [slot, inserted] = shapes_.try_emplace(batch);
    ShapeRun &entry = slot->second;
    if (!inserted && (!telemetry_ || entry.traced))
        return &entry;

    // Records are rebuilt from the event timeline after the run, so
    // keeping them for telemetry cannot perturb the simulated timing.
    auto run = simulate_inference(batch_spec(base_, batch, telemetry_));
    if (!run.is_ok()) {
        if (inserted)
            shapes_.erase(slot);
        return run.status();
    }
    h2d_rate_ = run->h2d_rate;
    entry.metrics = run->metrics;
    if (telemetry_) {
        entry.traced = true;
        entry.attribution =
            attribute_records(run->records, base_.gpu.layer_overhead,
                              run->metrics.total_time);
        entry.records = std::move(run->records);
    }
    return &entry;
}

Result<ServingReport>
Server::serve()
{
    if (config_.scheduler == SchedulerKind::kFcfs)
        return run_fcfs();
    return run_continuous();
}

Result<ServingReport>
Server::run_fcfs()
{
    auto report = runtime::run_fcfs(
        pending_, admission_, config_,
        [this](const BatchShape &batch, Seconds launch,
               std::uint64_t batch_index) -> Result<BatchCost> {
            const auto shape = run_shape(batch);
            if (!shape.is_ok())
                return shape.status();
            const ShapeRun &run = **shape;
            if (telemetry_) {
                // Each launch occupies the engine for the batch's whole
                // wall; accumulating the memoized attribution keeps the
                // sum exact — idle closes the gap to the makespan below.
                attribution_.merge(run.attribution);
                if (collect_records_) {
                    for (LayerStepRecord rec : run.records) {
                        rec.batch_index = batch_index;
                        rec.transfer_start += launch;
                        rec.step_start += launch;
                        rec.step_end += launch;
                        records_.push_back(std::move(rec));
                    }
                }
            }
            return BatchCost{run.metrics.ttft, run.metrics.tbt,
                             run.metrics.total_time};
        });
    pending_.clear();
    if (report.is_ok() && telemetry_) {
        // Batches serialize and the makespan clock opens at the first
        // arrival, so makespan >= summed batch walls; the difference is
        // engine idle time.  max() guards FP rounding.
        const Seconds busy = attribution_.wall();
        attribution_.add_idle(std::max(0.0, report->makespan - busy));
        attribution_.set_wall(std::max(report->makespan, busy));
    }
    return report;
}

} // namespace helm::runtime
