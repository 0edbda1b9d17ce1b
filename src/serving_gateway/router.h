/**
 * @file
 * Replica routing: which backend a new session lands on.
 *
 * The gateway is session-sticky (KV locality), so routing is decided
 * once per session, at open.  Three policies:
 *
 *  - round-robin:   rotate through replicas; uniform by construction;
 *  - least-loaded:  pick the replica with the fewest queued + in-flight
 *                   turns (ties to the lowest index) — adapts to slow
 *                   replicas and skewed session lengths;
 *  - hash-affinity: a deterministic hash of the SessionId — stateless
 *                   and stable (the same session id always maps to the
 *                   same replica), the policy a distributed front end
 *                   without shared routing state would use.
 *
 * Distinct from cluster/router.h, which routes *requests* across GPUs
 * inside one ClusterServer; this router places *sessions* across whole
 * ServingBackend replicas in front of that.
 */
#ifndef HELM_SERVING_GATEWAY_ROUTER_H
#define HELM_SERVING_GATEWAY_ROUTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving_gateway/session.h"

namespace helm::gateway {

/** Session-placement policy. */
enum class RouterPolicy
{
    kRoundRobin,
    kLeastLoaded,
    kHashAffinity,
};

/** Printable name ("rr", "least", "hash") — the CLI spelling. */
const char *router_policy_name(RouterPolicy policy);

/** Parse a policy name as `helmsim gateway --router` spells it, in
 *  any case. */
Result<RouterPolicy> parse_router_policy(const std::string &name);

/** What the router may inspect about one replica. */
struct ReplicaLoad
{
    /** Accepted-but-undispatched turns in the replica's queue. */
    std::uint64_t queued = 0;
    /** Dispatched-but-uncompleted turns. */
    std::uint64_t inflight = 0;
    /** Serving a dispatch window right now. */
    bool busy = false;
};

/** Stateful session router over a fixed replica set. */
class ReplicaRouter
{
  public:
    ReplicaRouter(RouterPolicy policy, std::uint32_t replicas);

    /** The replica for a newly opened session.  @p loads must have
     *  one entry per replica. */
    std::uint32_t route(SessionId session,
                        const std::vector<ReplicaLoad> &loads);

    RouterPolicy policy() const { return policy_; }

  private:
    RouterPolicy policy_;
    std::uint32_t replicas_;
    std::uint32_t next_ = 0; //!< round-robin cursor
};

} // namespace helm::gateway

#endif // HELM_SERVING_GATEWAY_ROUTER_H
