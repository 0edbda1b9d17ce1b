#include "serving_gateway/router.h"

#include "common/args.h"

namespace helm::gateway {

const char *
router_policy_name(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::kRoundRobin:
        return "rr";
    case RouterPolicy::kLeastLoaded:
        return "least";
    case RouterPolicy::kHashAffinity:
        return "hash";
    }
    return "unknown";
}

Result<RouterPolicy>
parse_router_policy(const std::string &name)
{
    if (iequals(name, "rr") || iequals(name, "round-robin"))
        return RouterPolicy::kRoundRobin;
    if (iequals(name, "least") || iequals(name, "least-loaded"))
        return RouterPolicy::kLeastLoaded;
    if (iequals(name, "hash") || iequals(name, "hash-affinity"))
        return RouterPolicy::kHashAffinity;
    return Status::invalid_argument("unknown router policy '" + name +
                                    "' (expected rr | least | hash)");
}

ReplicaRouter::ReplicaRouter(RouterPolicy policy, std::uint32_t replicas)
    : policy_(policy), replicas_(replicas)
{
    HELM_ASSERT(replicas_ > 0, "router needs at least one replica");
}

namespace {

/** SplitMix64 finalizer: scrambles sequential session ids so hash
 *  affinity spreads instead of striping. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

std::uint32_t
ReplicaRouter::route(SessionId session,
                     const std::vector<ReplicaLoad> &loads)
{
    HELM_ASSERT(loads.size() == replicas_,
                "router consulted with a mismatched replica set");
    switch (policy_) {
    case RouterPolicy::kRoundRobin: {
        const std::uint32_t pick = next_;
        next_ = (next_ + 1) % replicas_;
        return pick;
    }
    case RouterPolicy::kLeastLoaded: {
        std::uint32_t best = 0;
        std::uint64_t best_load = loads[0].queued + loads[0].inflight;
        for (std::uint32_t r = 1; r < replicas_; ++r) {
            const std::uint64_t load =
                loads[r].queued + loads[r].inflight;
            if (load < best_load) {
                best = r;
                best_load = load;
            }
        }
        return best;
    }
    case RouterPolicy::kHashAffinity:
        return static_cast<std::uint32_t>(mix(session) % replicas_);
    }
    return 0;
}

} // namespace helm::gateway
