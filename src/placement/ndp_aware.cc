#include "placement/ndp_aware.h"

#include <algorithm>

#include "common/args.h"
#include "common/status.h"

namespace helm::placement {

const char *
compute_site_mode_name(ComputeSiteMode mode)
{
    switch (mode) {
      case ComputeSiteMode::kGpuOnly:
        return "gpu";
      case ComputeSiteMode::kNdpAuto:
        return "auto";
      case ComputeSiteMode::kNdpAll:
        return "ndp";
    }
    HELM_ASSERT(false, "unknown ComputeSiteMode");
    return "?";
}

Result<ComputeSiteMode>
parse_compute_site_mode(const std::string &name)
{
    for (auto mode : {ComputeSiteMode::kGpuOnly, ComputeSiteMode::kNdpAuto,
                      ComputeSiteMode::kNdpAll}) {
        if (iequals(name, compute_site_mode_name(mode)))
            return mode;
    }
    return Status::not_found("unknown compute site '" + name +
                             "' (gpu, auto, ndp)");
}

Seconds
ndp_execution_time(const NdpProfile &profile, Bytes bytes, double flops)
{
    HELM_ASSERT(profile.gemv_rate.raw() > 0.0 && profile.gemv_flops > 0.0,
                "NDP profile must have positive rates");
    const double stream_s =
        static_cast<double>(bytes) / profile.gemv_rate.raw();
    const double compute_s = flops / profile.gemv_flops;
    return std::max(stream_s, compute_s);
}

namespace {

/** Only fully host-resident FFN layers may offload (see file header). */
bool
is_eligible(const LayerSiteWork &layer)
{
    return layer.type == model::LayerType::kFfn && layer.host_bytes > 0 &&
           layer.host_bytes == layer.total_bytes;
}

} // namespace

std::vector<SiteDecision>
assign_compute_sites(const std::vector<LayerSiteWork> &layers,
                     const NdpProfile &profile, ComputeSiteMode mode)
{
    std::vector<SiteDecision> decisions(layers.size());
    if (mode == ComputeSiteMode::kGpuOnly)
        return decisions;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerSiteWork &layer = layers[i];
        SiteDecision &decision = decisions[i];
        if (!is_eligible(layer))
            continue;
        decision.arithmetic_intensity =
            layer.flops / static_cast<double>(layer.host_bytes);
        // GPU path: the h2d transfer overlaps compute in the zig-zag
        // schedule, so the step costs whichever is longer.
        const double transfer_s =
            profile.h2d_bandwidth.raw() > 0.0
                ? static_cast<double>(layer.host_bytes) /
                      profile.h2d_bandwidth.raw()
                : 0.0;
        decision.gpu_time = std::max(transfer_s, layer.gpu_compute);
        decision.ndp_time =
            profile.command_latency +
            ndp_execution_time(profile, layer.stream_bytes, layer.flops);
        if (mode == ComputeSiteMode::kNdpAll ||
            decision.ndp_time < decision.gpu_time)
            decision.site = ComputeSite::kNdp;
    }
    return decisions;
}

} // namespace helm::placement
