#include "cluster/router.h"

namespace helm::cluster {

Router::Router(RouterPolicy policy, std::uint64_t gpus, std::uint64_t seed)
    : policy_(policy), gpus_(gpus), rng_(seed)
{
    HELM_ASSERT(gpus >= 1, "router needs at least one GPU");
}

std::uint64_t
Router::route(const std::vector<std::uint64_t> &depths)
{
    HELM_ASSERT(depths.size() == gpus_, "depth vector size mismatch");
    if (gpus_ == 1)
        return 0;
    switch (policy_) {
      case RouterPolicy::kRoundRobin: {
        const std::uint64_t pick = next_;
        next_ = (next_ + 1) % gpus_;
        return pick;
      }
      case RouterPolicy::kJoinShortestQueue: {
        std::uint64_t best = 0;
        for (std::uint64_t g = 1; g < gpus_; ++g) {
            if (depths[g] < depths[best])
                best = g;
        }
        return best;
      }
      case RouterPolicy::kPowerOfTwo: {
        const std::uint64_t a = rng_.next_below(gpus_);
        std::uint64_t b = rng_.next_below(gpus_ - 1);
        if (b >= a)
            ++b; // distinct second sample
        // Shorter queue wins; ties go to the lower index so equal
        // depths cannot oscillate on sample order.
        if (depths[a] < depths[b])
            return a;
        if (depths[b] < depths[a])
            return b;
        return a < b ? a : b;
      }
    }
    return 0;
}

} // namespace helm::cluster
