#include "serving_gateway/gateway.h"

#include "runtime/scheduler.h"
#include "telemetry/monitor.h"
#include "tracing/synthesize.h"
#include "tracing/tracer.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

namespace helm::gateway {

Status
GatewayConfig::validate() const
{
    return admission.validate();
}

Gateway::Gateway(sim::Simulator &sim, GatewayConfig config,
                 std::vector<runtime::ServingBackend *> replicas)
    : sim_(sim), config_(config), admission_(config.admission),
      router_(config.router, static_cast<std::uint32_t>(replicas.size()))
{
    HELM_ASSERT(!replicas.empty(), "gateway needs at least one replica");
    replicas_.resize(replicas.size());
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        HELM_ASSERT(replicas[r] != nullptr,
                    "gateway replica backend must not be null");
        replicas_[r].backend = replicas[r];
        replicas_[r].window =
            config_.dispatch_batch != 0
                ? config_.dispatch_batch
                : std::max<std::uint64_t>(
                      1, replicas[r]->effective_max_batch());
    }
    stats_.routed_per_replica.assign(replicas.size(), 0);
    stats_.busy_seconds_per_replica.assign(replicas.size(), 0.0);
}

// ---- Observability taps --------------------------------------------
// All three are no-ops when the corresponding obs_ member is null, so
// an unobserved gateway run stays byte-identical and pays only a
// pointer test per turn.

void
Gateway::observe_completed(std::uint32_t r, const TurnMetrics &metrics)
{
    if (obs_.monitor != nullptr)
        obs_.monitor->on_completed(sim_.now(), metrics.output_tokens,
                                   metrics.ttft);
    if (obs_.tracer == nullptr)
        return;
    const tracing::OutlierFlags flags; // retention competes on TBT
    if (!obs_.tracer->should_build(flags, metrics.tbt)) {
        obs_.tracer->observe(tracing::kTurnTraceSpans, flags);
        return;
    }
    tracing::TurnTraceInput input;
    input.turn_id = metrics.turn;
    input.session = metrics.session;
    input.replica = r;
    input.prompt_tokens = metrics.prompt_tokens;
    input.output_tokens = metrics.output_tokens;
    input.submitted = metrics.submitted;
    input.dispatched = metrics.dispatched;
    input.first_token = metrics.first_token;
    input.completed = metrics.completed;
    input.tbt = metrics.tbt;
    obs_.tracer->finish(tracing::build_turn_trace(
        input, obs_.tracer->config().max_spans_per_trace));
}

void
Gateway::observe_shed(const PendingTurn &turn, RejectReason reason)
{
    if (obs_.monitor != nullptr)
        obs_.monitor->on_shed(sim_.now());
    if (obs_.tracer == nullptr)
        return;
    obs_.tracer->finish(tracing::build_shed_turn_trace(
        turn.id, turn.session, turn.submitted, sim_.now(),
        reject_reason_name(reason),
        obs_.tracer->config().max_spans_per_trace));
}

void
Gateway::observe_admission_shed()
{
    // Rejected before a turn id existed: count it, build nothing.
    if (obs_.monitor != nullptr)
        obs_.monitor->on_shed(sim_.now());
    if (obs_.tracer != nullptr) {
        tracing::OutlierFlags flags;
        flags.shed = true;
        obs_.tracer->observe(1, flags);
    }
}

OpenOutcome
Gateway::open_session()
{
    OpenOutcome outcome;
    if (!admission_.admit_session(sessions_.active())) {
        admission_.count_reject(RejectReason::kSessionLimit);
        ++stats_.turns_shed;
        observe_admission_shed();
        outcome.reason = RejectReason::kSessionLimit;
        return outcome;
    }
    std::vector<ReplicaLoad> loads;
    loads.reserve(replicas_.size());
    for (const Replica &replica : replicas_)
        loads.push_back(load_of(replica));
    // Hash affinity needs the id before routing; open first, route on
    // the fresh handle.
    const SessionId id = sessions_.open(0, sim_.now());
    Session *session = sessions_.find(id);
    session->replica = router_.route(id, loads);
    outcome.session = id;
    outcome.admitted = true;
    return outcome;
}

SubmitOutcome
Gateway::submit_turn(SessionId session_id, std::uint64_t prompt_tokens,
                     std::uint64_t output_tokens, StreamSink sink)
{
    HELM_ASSERT(prompt_tokens >= 1 && output_tokens >= 1,
                "a turn needs at least one prompt and one output token");
    SubmitOutcome outcome;
    ++stats_.turns_submitted;
    Session *session = sessions_.find(session_id);
    if (session == nullptr) {
        // Closed or stale handle: the session cap is the nearest truth.
        admission_.count_reject(RejectReason::kSessionLimit);
        ++stats_.turns_shed;
        observe_admission_shed();
        outcome.reason = RejectReason::kSessionLimit;
        return outcome;
    }
    const auto padded_prompt =
        admission_.charge_context(session->context_tokens, prompt_tokens);
    if (!padded_prompt.has_value()) {
        admission_.count_reject(RejectReason::kContextOverflow);
        ++stats_.turns_shed;
        ++session->turns_shed;
        observe_admission_shed();
        outcome.reason = RejectReason::kContextOverflow;
        return outcome;
    }
    Replica &replica = replicas_[session->replica];
    if (!admission_.admit_turn(replica.queue.size())) {
        admission_.count_reject(RejectReason::kAcceptQueueFull);
        ++stats_.turns_shed;
        ++session->turns_shed;
        observe_admission_shed();
        outcome.reason = RejectReason::kAcceptQueueFull;
        return outcome;
    }

    PendingTurn turn;
    turn.id = next_turn_++;
    turn.session = session_id;
    turn.prompt_tokens = *padded_prompt;
    turn.output_tokens = output_tokens;
    turn.submitted = sim_.now();
    turn.sink = std::move(sink);

    session->context_tokens = *padded_prompt + output_tokens;
    ++session->turns_submitted;
    ++session->inflight;
    ++stats_.turns_accepted;
    ++stats_.routed_per_replica[session->replica];
    replica.queue.push_back(std::move(turn));
    stats_.peak_accept_depth =
        std::max<std::uint64_t>(stats_.peak_accept_depth,
                                replica.queue.size());
    if (obs_.monitor != nullptr)
        obs_.monitor->on_queue_depth(
            sim_.now(), static_cast<double>(replica.queue.size()));

    outcome.turn = replica.queue.back().id;
    outcome.admitted = true;
    if (replica.queue.back().sink) {
        StreamEvent event;
        event.kind = StreamEvent::Kind::kAccepted;
        event.turn = outcome.turn;
        event.session = session_id;
        event.time = sim_.now();
        replica.queue.back().sink(event);
    }
    maybe_schedule_dispatch(session->replica);
    return outcome;
}

void
Gateway::close_session(SessionId id)
{
    sessions_.close(id);
}

void
Gateway::maybe_schedule_dispatch(std::uint32_t r)
{
    Replica &replica = replicas_[r];
    if (replica.busy || replica.dispatch_scheduled ||
        replica.queue.empty() || !health_.is_ok())
        return;
    replica.dispatch_scheduled = true;
    // Delay 0: every turn accepted at this timestamp joins the window.
    sim_.schedule(0.0, [this, r] { dispatch(r); });
}

void
Gateway::dispatch(std::uint32_t r)
{
    Replica &replica = replicas_[r];
    replica.dispatch_scheduled = false;
    if (replica.busy || replica.queue.empty() || !health_.is_ok())
        return;

    const std::size_t count = std::min<std::size_t>(
        replica.queue.size(), replica.window);
    std::vector<PendingTurn> window;
    window.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        window.push_back(std::move(replica.queue.front()));
        replica.queue.pop_front();
    }

    for (const PendingTurn &turn : window) {
        workload::TimedRequest timed;
        timed.request.id = turn.id;
        timed.request.prompt_tokens = turn.prompt_tokens;
        timed.request.output_tokens = turn.output_tokens;
        timed.arrival = 0.0;
        const Status submitted = replica.backend->submit(timed);
        if (!submitted.is_ok()) {
            health_ = submitted;
            for (PendingTurn &shed : window)
                shed_turn(std::move(shed), RejectReason::kBackendShed);
            return;
        }
    }
    auto report = replica.backend->serve();
    if (!report.is_ok()) {
        health_ = report.status();
        for (PendingTurn &shed : window)
            shed_turn(std::move(shed), RejectReason::kBackendShed);
        return;
    }

    const Seconds now = sim_.now();
    ++stats_.dispatch_windows;
    stats_.backend_batches += report->batches_formed;
    stats_.busy_seconds_per_replica[r] += report->makespan;

    std::unordered_map<TurnId, PendingTurn> by_id;
    by_id.reserve(window.size());
    for (PendingTurn &turn : window)
        by_id.emplace(turn.id, std::move(turn));
    std::vector<FastDelivery> batch;
    batch.reserve(report->requests.size());
    for (const runtime::RequestMetrics &metrics : report->requests) {
        auto it = by_id.find(metrics.id);
        if (it == by_id.end())
            continue;
        ++replica.inflight;
        FastDelivery delivery;
        delivery.sink = std::move(it->second.sink);
        delivery.metrics = turn_metrics_for(it->second, metrics, now);
        batch.push_back(std::move(delivery));
        by_id.erase(it);
    }
    fast_forward_window(r, std::move(batch));
    // Whatever the backend did not complete, it shed.
    for (auto &left : by_id)
        shed_turn(std::move(left.second), RejectReason::kBackendShed);

    replica.busy = true;
    sim_.schedule(report->makespan, [this, r] {
        replicas_[r].busy = false;
        maybe_schedule_dispatch(r);
    });
}

TurnMetrics
Gateway::turn_metrics_for(const PendingTurn &turn,
                          const runtime::RequestMetrics &metrics,
                          Seconds dispatched) const
{
    TurnMetrics m;
    m.turn = turn.id;
    m.session = turn.session;
    m.prompt_tokens = turn.prompt_tokens;
    m.output_tokens = turn.output_tokens;
    m.submitted = turn.submitted;
    m.dispatched = dispatched;
    m.first_token = dispatched + metrics.ttft;
    m.completed = dispatched + metrics.e2e_latency;
    m.queue_wait = dispatched - turn.submitted;
    m.ttft = m.first_token - turn.submitted;
    m.tbt = metrics.tbt;
    m.e2e = m.completed - turn.submitted;
    return m;
}

void
Gateway::fast_forward_window(std::uint32_t r,
                             std::vector<FastDelivery> &&batch)
{
    // Turns arrive in report order and, at equal completion times,
    // retire in that order: a stable sort by completion time keeps it
    // while every turn that completes at one timestamp shares a single
    // DES event.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const FastDelivery &a, const FastDelivery &b) {
                         return a.metrics.completed < b.metrics.completed;
                     });
    auto shared =
        std::make_shared<std::vector<FastDelivery>>(std::move(batch));
    std::size_t begin = 0;
    while (begin < shared->size()) {
        const Seconds at = (*shared)[begin].metrics.completed;
        std::size_t end = begin + 1;
        while (end < shared->size() &&
               (*shared)[end].metrics.completed == at)
            ++end;
        sim_.schedule_at(at, [this, r, shared, begin, end] {
            for (std::size_t i = begin; i < end; ++i)
                replay_turn(r, (*shared)[i]);
        });
        begin = end;
    }
}

void
Gateway::replay_turn(std::uint32_t r, FastDelivery &delivery)
{
    const TurnMetrics &m = delivery.metrics;
    if (delivery.sink) {
        // Token 0 at the first-token time, middle tokens paced at tbt,
        // the last one pinned to the completion time, clamped monotone
        // against rounding (see FastDelivery).
        StreamEvent event;
        event.kind = StreamEvent::Kind::kFirstToken;
        event.turn = m.turn;
        event.session = m.session;
        event.token_index = 0;
        event.time = std::max(m.first_token, m.dispatched);
        delivery.sink(event);
        if (config_.per_token_stream) {
            event.kind = StreamEvent::Kind::kToken;
            Seconds prev = event.time;
            const std::uint64_t tokens = m.output_tokens;
            for (std::uint64_t token = 1; token < tokens; ++token) {
                Seconds at = token + 1 == tokens
                                 ? m.completed
                                 : m.first_token +
                                       static_cast<double>(token) * m.tbt;
                at = std::min(at, m.completed);
                at = std::max(at, prev);
                event.token_index = token;
                event.time = at;
                delivery.sink(event);
                prev = at;
            }
        }
    }

    Replica &replica = replicas_[r];
    HELM_ASSERT(replica.inflight > 0,
                "turn completion without a dispatched turn in flight");
    --replica.inflight;
    ++stats_.turns_completed;
    stats_.tokens_delivered += m.output_tokens;
    if (Session *session = sessions_.find(m.session)) {
        ++session->turns_completed;
        --session->inflight;
    }
    if (delivery.sink) {
        StreamEvent event;
        event.kind = StreamEvent::Kind::kCompleted;
        event.turn = m.turn;
        event.session = m.session;
        event.token_index =
            m.output_tokens > 0 ? m.output_tokens - 1 : 0;
        event.time = sim_.now();
        event.metrics = &delivery.metrics;
        delivery.sink(event);
    }
    observe_completed(r, m);
}

void
Gateway::shed_turn(PendingTurn &&turn, RejectReason reason)
{
    admission_.count_reject(reason);
    ++stats_.turns_shed;
    if (Session *session = sessions_.find(turn.session)) {
        ++session->turns_shed;
        --session->inflight;
    }
    if (turn.sink) {
        StreamEvent event;
        event.kind = StreamEvent::Kind::kShed;
        event.turn = turn.id;
        event.session = turn.session;
        event.time = sim_.now();
        event.reason = reason;
        turn.sink(event);
    }
    observe_shed(turn, reason);
}

ReplicaLoad
Gateway::load_of(const Replica &replica) const
{
    ReplicaLoad load;
    load.queued = replica.queue.size();
    load.inflight = replica.inflight;
    load.busy = replica.busy;
    return load;
}

} // namespace helm::gateway
