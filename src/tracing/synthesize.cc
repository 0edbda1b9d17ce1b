#include "tracing/synthesize.h"

#include <string>

namespace helm::tracing {
namespace {

std::string
u64_str(std::uint64_t v)
{
    return std::to_string(v);
}

} // namespace

Trace
build_turn_trace(const TurnTraceInput &input, std::size_t max_spans)
{
    TraceBuilder builder(input.turn_id, "turn", max_spans);
    const std::uint64_t root = builder.add_span(
        SpanPhase::kTurn, "turn " + u64_str(input.turn_id),
        input.submitted, input.completed, 0,
        {{"session", u64_str(input.session)},
         {"replica", u64_str(input.replica)},
         {"prompt_tokens", u64_str(input.prompt_tokens)},
         {"output_tokens", u64_str(input.output_tokens)}});
    builder.add_span(SpanPhase::kQueue, "queue", input.submitted,
                     input.dispatched, root);
    builder.add_span(SpanPhase::kDispatch, "dispatch",
                     input.dispatched, input.first_token, root,
                     {{"replica", u64_str(input.replica)}});
    builder.add_span(SpanPhase::kStream, "stream", input.first_token,
                     input.completed, root);
    Trace trace = builder.take();
    trace.tbt = input.tbt;
    return trace;
}

Trace
build_shed_turn_trace(std::uint64_t turn_id, std::uint64_t session,
                      Seconds submitted, Seconds shed_at,
                      const char *reason, std::size_t max_spans)
{
    TraceBuilder builder(turn_id, "turn", max_spans);
    const std::uint64_t root = builder.add_span(
        SpanPhase::kTurn, "turn " + u64_str(turn_id), submitted,
        shed_at, 0,
        {{"session", u64_str(session)}, {"outcome", "shed"}});
    builder.add_span(SpanPhase::kQueue, "queue", submitted, shed_at,
                     root, {{"shed_reason", reason}});
    Trace trace = builder.take();
    trace.flags.shed = true;
    return trace;
}

} // namespace helm::tracing
