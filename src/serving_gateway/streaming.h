/**
 * @file
 * Per-token streaming delivery: what a gateway client observes.
 *
 * LLM serving is judged at the client edge — time to *first* token and
 * the cadence of the tokens after it — not at the scheduler's batch
 * boundary.  The gateway therefore maps each completed turn's token
 * timeline onto the simulation clock and delivers it through a
 * StreamSink callback: accept, first token, every subsequent token,
 * and completion (or a typed shed).  Token events are replayed at the
 * turn's completion time, each stamped with its own delivery time, so
 * a sink reads token times from StreamEvent::time, not from the
 * simulator clock.  The TurnMetrics handed to the completion event
 * measure TTFT/TBT/E2E from the client's submit time, so gateway
 * queueing is included — the number a user would measure with a
 * stopwatch, not the number the batch scheduler brags about.
 */
#ifndef HELM_SERVING_GATEWAY_STREAMING_H
#define HELM_SERVING_GATEWAY_STREAMING_H

#include <cstdint>
#include <functional>

#include "common/units.h"
#include "serving_gateway/admission.h"
#include "serving_gateway/session.h"

namespace helm::gateway {

/** Opaque turn handle; 0 is never a valid turn. */
using TurnId = std::uint64_t;

/** Client-edge timings of one completed turn. */
struct TurnMetrics
{
    TurnId turn = 0;
    SessionId session = kInvalidSession;
    /** Backend-visible prompt (context + new tokens, block-rounded). */
    std::uint64_t prompt_tokens = 0;
    std::uint64_t output_tokens = 0;
    Seconds submitted = 0.0;   //!< client submit time
    Seconds dispatched = 0.0;  //!< dispatch-window launch time
    Seconds first_token = 0.0; //!< absolute first-token time
    Seconds completed = 0.0;   //!< absolute last-token time
    Seconds queue_wait = 0.0;  //!< submitted -> dispatched
    Seconds ttft = 0.0;        //!< submitted -> first token (client edge)
    Seconds tbt = 0.0;         //!< mean time between tokens
    Seconds e2e = 0.0;         //!< submitted -> completed (client edge)
};

/** One delivery on a turn's stream. */
struct StreamEvent
{
    enum class Kind
    {
        kAccepted,   //!< the turn passed admission and joined a queue
        kFirstToken, //!< token 0 arrived (TTFT edge)
        kToken,      //!< a subsequent token arrived
        kCompleted,  //!< all tokens delivered; metrics attached
        kShed,       //!< rejected; reason attached
    };

    Kind kind = Kind::kAccepted;
    TurnId turn = 0;
    SessionId session = kInvalidSession;
    /** kFirstToken/kToken: 0-based index of the delivered token. */
    std::uint64_t token_index = 0;
    /** Simulation time of the delivery (for kFirstToken/kToken this
     *  may precede the simulator clock, see the file comment). */
    Seconds time = 0.0;
    /** kShed only. */
    RejectReason reason = RejectReason::kBackendShed;
    /** kCompleted only; valid for the duration of the callback. */
    const TurnMetrics *metrics = nullptr;
};

/**
 * Per-turn delivery callback, invoked on the simulation clock.  May
 * submit new turns / open sessions from inside the callback (the
 * closed-loop driver does exactly that); must not block.
 */
using StreamSink = std::function<void(const StreamEvent &)>;

} // namespace helm::gateway

#endif // HELM_SERVING_GATEWAY_STREAMING_H
