#include "placement/balanced.h"

#include <algorithm>
#include <numeric>

#include "common/status.h"

namespace helm::placement {

namespace {

/** Mutable solver view of one layer. */
struct LayerState
{
    std::vector<std::size_t> pin_order; //!< weight indices, size desc
    std::size_t next_pin = 0;           //!< cursor into pin_order
    double off_gpu_bytes = 0.0;
    Seconds window = 0.0;

    Seconds
    stall(double bw) const
    {
        const Seconds transfer = off_gpu_bytes / bw;
        return transfer > window ? transfer - window : 0.0;
    }

    /** Stall reduction per byte if the next tensor were pinned. */
    double
    benefit_per_byte(const model::LayerSpec &layer, double bw) const
    {
        if (next_pin >= pin_order.size())
            return 0.0;
        const double size = static_cast<double>(
            layer.weights[pin_order[next_pin]].bytes());
        LayerState after = *this;
        after.off_gpu_bytes -= size;
        const Seconds gain = stall(bw) - after.stall(bw);
        return gain > 0.0 ? gain / size : 0.0;
    }
};

} // namespace

PlacementMap
place_balanced(const std::vector<model::LayerSpec> &layers,
               const BalanceProfile &profile)
{
    HELM_ASSERT(profile.compute_times.size() == layers.size(),
                "profile must cover every layer");
    HELM_ASSERT(profile.transfer_bandwidth.raw() > 0.0,
                "profile needs a positive transfer bandwidth");
    const double bw = profile.transfer_bandwidth.raw();

    PlacementMap map;
    map.layers.reserve(layers.size());

    std::vector<LayerState> states(layers.size());
    for (std::size_t j = 0; j < layers.size(); ++j) {
        // Everything starts on the host.
        map.layers.push_back(make_layer_placement(layers[j]));

        LayerState &state = states[j];
        state.off_gpu_bytes =
            static_cast<double>(map.layers[j].bytes_on(Tier::kCpu));
        const std::size_t prev = j == 0 ? layers.size() - 1 : j - 1;
        state.window = profile.compute_times[prev];
        state.pin_order.resize(layers[j].weights.size());
        std::iota(state.pin_order.begin(), state.pin_order.end(), 0);
        std::stable_sort(state.pin_order.begin(), state.pin_order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return layers[j].weights[a].bytes() >
                                    layers[j].weights[b].bytes();
                         });
    }

    // Greedy knapsack: repeatedly pin the candidate tensor with the
    // highest stall reduction per GPU byte.  At most one candidate per
    // layer is live (its largest unpinned tensor), so each round scans
    // O(layers) states; each pin advances one cursor, bounding rounds
    // by the total weight count.
    Bytes budget_left = profile.gpu_weight_budget;
    while (true) {
        double best_benefit = 0.0;
        std::size_t best_layer = layers.size();
        for (std::size_t j = 0; j < layers.size(); ++j) {
            const LayerState &state = states[j];
            if (state.next_pin >= state.pin_order.size())
                continue;
            const Bytes size =
                layers[j]
                    .weights[state.pin_order[state.next_pin]]
                    .bytes();
            if (size > budget_left)
                continue;
            const double benefit = state.benefit_per_byte(layers[j], bw);
            if (benefit > best_benefit) {
                best_benefit = benefit;
                best_layer = j;
            }
        }
        if (best_layer >= layers.size())
            break; // nothing fits or nothing helps

        LayerState &state = states[best_layer];
        const std::size_t widx = state.pin_order[state.next_pin];
        const Bytes size = layers[best_layer].weights[widx].bytes();
        assign_weight(map.layers[best_layer], layers[best_layer], widx,
                      Tier::kGpu);
        state.off_gpu_bytes -= static_cast<double>(size);
        ++state.next_pin;
        budget_left -= size;
    }

    return map;
}

} // namespace helm::placement
