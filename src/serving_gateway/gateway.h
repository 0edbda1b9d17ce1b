/**
 * @file
 * The serving gateway: sessions, streaming, admission, and routing in
 * front of a set of `runtime::ServingBackend` replicas.
 *
 * The backends are *offline* engines — submit a stream, serve() it to
 * completion, read a report — while clients are *online*: they open
 * sessions, send a turn, watch tokens stream back, think, and send the
 * next turn.  The gateway bridges the two on the DES clock with a
 * dispatch-window model:
 *
 *  1. accepted turns queue per replica (sessions are routed once, at
 *     open, and stay sticky);
 *  2. when a replica is idle and turns are queued, the gateway forms a
 *     dispatch window (up to the replica's batch ceiling), submits it
 *     to the backend with arrival 0, and runs one serve();
 *  3. the report's per-request timings are mapped back onto the
 *     simulation clock — token k of a turn dispatched at time T is
 *     stamped T + ttft + k*tbt, the turn completes at T + e2e — and
 *     the replica stays busy until T + makespan;
 *  4. at each distinct completion time one DES event replays the
 *     finishing turns' token streams into their StreamSinks, where the
 *     closed-loop driver's clients live.
 *
 * Because each replica's backend memoizes batch simulation by shape
 * and the admission layer rounds context to coarse blocks, a
 * million-turn run pays the engine cost once per distinct window shape
 * per replica and replays it from that replica's memo everywhere else
 * — that is what makes closed-loop million-request driving feasible on
 * one core.
 */
#ifndef HELM_SERVING_GATEWAY_GATEWAY_H
#define HELM_SERVING_GATEWAY_GATEWAY_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "runtime/backend.h"
#include "serving_gateway/admission.h"
#include "serving_gateway/router.h"
#include "serving_gateway/session.h"
#include "serving_gateway/streaming.h"
#include "sim/simulator.h"

namespace helm::runtime {
struct RequestMetrics;
}

namespace helm::telemetry {
class ServingMonitor;
}

namespace helm::tracing {
class Tracer;
}

namespace helm::gateway {

/** Everything the gateway itself is configured by. */
struct GatewayConfig
{
    AdmissionConfig admission;
    RouterPolicy router = RouterPolicy::kRoundRobin;
    /** Turns per dispatch window; 0 = the replica's effective batch
     *  ceiling. */
    std::uint64_t dispatch_batch = 0;
    /** Deliver every token to the sink; false coalesces to first token
     *  + completion.  That saves sink callbacks, not DES events (a
     *  turn's stream is replayed in one event either way); client-edge
     *  TTFT/TBT/E2E metrics are identical. */
    bool per_token_stream = true;

    Status validate() const;
};

/** Aggregate gateway-side accounting (admission rejects live in
 *  AdmissionControl::rejects()). */
struct GatewayStats
{
    std::uint64_t turns_submitted = 0; //!< submit_turn calls
    std::uint64_t turns_accepted = 0;  //!< passed admission
    std::uint64_t turns_completed = 0;
    std::uint64_t turns_shed = 0; //!< all reasons, open + turn rejects
    std::uint64_t tokens_delivered = 0;
    std::uint64_t dispatch_windows = 0; //!< serve() calls
    std::uint64_t backend_batches = 0;  //!< batches formed inside them
    std::uint64_t peak_accept_depth = 0;
    std::vector<std::uint64_t> routed_per_replica;
    std::vector<Seconds> busy_seconds_per_replica;
};

/**
 * Optional observability sinks.  Both pointers may be null (the
 * default — zero overhead, byte-identical output); when set they must
 * outlive the gateway.  The tracer receives one "turn" trace per
 * completed or backend-shed turn; the monitor receives completion,
 * shed, and queue-depth signals on the sim clock.
 */
struct GatewayObservability
{
    tracing::Tracer *tracer = nullptr;
    telemetry::ServingMonitor *monitor = nullptr;
};

/** Outcome of open_session(). */
struct OpenOutcome
{
    SessionId session = kInvalidSession;
    bool admitted = false;
    RejectReason reason = RejectReason::kSessionLimit;
};

/** Outcome of submit_turn(). */
struct SubmitOutcome
{
    TurnId turn = 0;
    bool admitted = false;
    RejectReason reason = RejectReason::kAcceptQueueFull;
};

/**
 * The gateway.  Owns no backends and no simulator — both outlive it —
 * but owns all session/turn state between a client and a replica.
 * All entry points must be called on the simulation clock (i.e. from
 * inside DES callbacks, or before the first sim.run()).
 */
class Gateway
{
  public:
    Gateway(sim::Simulator &sim, GatewayConfig config,
            std::vector<runtime::ServingBackend *> replicas);

    /** Open a session; routes it to a replica when admitted. */
    OpenOutcome open_session();

    /**
     * Submit one turn on an open session.  On acceptance the turn's
     * context-grown prompt is charged against the session budget, the
     * turn joins its replica's queue, and @p sink receives kAccepted
     * now plus the token/completion (or shed) events later.  On
     * rejection only the outcome reports the reason; the sink is not
     * retained.
     */
    SubmitOutcome submit_turn(SessionId session,
                              std::uint64_t prompt_tokens,
                              std::uint64_t output_tokens,
                              StreamSink sink);

    /** Close a session (stale handles are ignored).  In-flight turns
     *  of the session still deliver to their sinks. */
    void close_session(SessionId id);

    const GatewayStats &stats() const { return stats_; }
    const AdmissionControl &admission() const { return admission_; }
    const SessionTable &sessions() const { return sessions_; }
    std::uint32_t replica_count() const
    {
        return static_cast<std::uint32_t>(replicas_.size());
    }

    /** First backend failure, if any; dispatch stops after one. */
    const Status &health() const { return health_; }

    /** Attach tracing / time-series sinks (see GatewayObservability). */
    void set_observability(GatewayObservability obs) { obs_ = obs; }

  private:
    /** One accepted-but-undispatched turn. */
    struct PendingTurn
    {
        TurnId id = 0;
        SessionId session = kInvalidSession;
        std::uint64_t prompt_tokens = 0; //!< context-grown, rounded
        std::uint64_t output_tokens = 0;
        Seconds submitted = 0.0;
        StreamSink sink;
    };

    struct Replica
    {
        runtime::ServingBackend *backend = nullptr;
        std::deque<PendingTurn> queue;
        std::uint64_t window = 1; //!< dispatch-window turn cap
        bool busy = false;
        bool dispatch_scheduled = false;
        std::uint64_t inflight = 0; //!< dispatched, not completed
    };

    /**
     * One turn of a fast-forwarded dispatch window.  The window
     * schedules one DES event per *distinct completion time*; that
     * event replays each turn's token stream back-to-back with its
     * per-token timestamps (StreamEvent::time carries the delivery
     * time).  Token callbacks
     * therefore fire while the simulator clock sits at the completion
     * time — sinks must treat kFirstToken/kToken as passive
     * notifications (every in-tree sink does; the closed-loop driver
     * acts only on turn boundaries).
     */
    struct FastDelivery
    {
        StreamSink sink;
        TurnMetrics metrics;
    };

    /** Arm a time-0 dispatch event for an idle replica with work. */
    void maybe_schedule_dispatch(std::uint32_t r);
    /** Form a window, serve it, and map the report onto the clock. */
    void dispatch(std::uint32_t r);
    /** Client-edge metrics of one dispatched turn (report mapping). */
    TurnMetrics turn_metrics_for(const PendingTurn &turn,
                                 const runtime::RequestMetrics &metrics,
                                 Seconds dispatched) const;
    /** Group a window's turns by completion time and schedule one
     *  replay event per distinct time. */
    void fast_forward_window(std::uint32_t r,
                             std::vector<FastDelivery> &&batch);
    /** Replay one turn's token stream, deliver kCompleted and retire
     *  the turn. */
    void replay_turn(std::uint32_t r, FastDelivery &delivery);
    /** Emit a shed event (and count it) for a turn or an open. */
    void shed_turn(PendingTurn &&turn, RejectReason reason);
    ReplicaLoad load_of(const Replica &replica) const;
    /** Observability taps (no-ops when obs_ members are null). */
    void observe_completed(std::uint32_t r, const TurnMetrics &metrics);
    void observe_shed(const PendingTurn &turn, RejectReason reason);
    void observe_admission_shed();

    sim::Simulator &sim_;
    GatewayConfig config_;
    AdmissionControl admission_;
    ReplicaRouter router_;
    SessionTable sessions_;
    std::vector<Replica> replicas_;
    GatewayStats stats_;
    GatewayObservability obs_;
    TurnId next_turn_ = 1;
    Status health_ = Status::ok();
};

} // namespace helm::gateway

#endif // HELM_SERVING_GATEWAY_GATEWAY_H
