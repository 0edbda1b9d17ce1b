#include "membench/membench.h"

#include "common/status.h"
#include "sim/bandwidth_channel.h"
#include "sim/simulator.h"

namespace helm::membench {

const char *
copy_direction_name(CopyDirection direction)
{
    return direction == CopyDirection::kHostToGpu ? "h2d" : "d2h";
}

CopyMeasurement
measure_copy(const mem::HostMemorySystem &system, Bytes buffer,
             CopyDirection direction)
{
    HELM_ASSERT(buffer > 0, "copy buffer must be non-empty");
    CopyMeasurement m;
    m.config = system.label();
    m.numa_node = system.numa_node();
    m.buffer = buffer;
    m.direction = direction;

    const bool h2d = direction == CopyDirection::kHostToGpu;
    const Bandwidth link = h2d ? system.pcie().h2d_effective()
                               : system.pcie().d2h_effective();
    // nvbandwidth copies a fresh buffer once per measurement: use the
    // cold-copy path host->GPU (Fig. 3a's AIT-miss decay shows up there).
    const Bandwidth cap = h2d ? system.host_to_gpu_cold_bw(buffer)
                              : system.gpu_to_host_bw(buffer);

    sim::Simulator sim;
    sim::BandwidthChannel channel(sim, link);
    bool done = false;
    channel.start_flow(buffer, cap, [&done] { done = true; });
    sim.run();
    HELM_ASSERT(done, "copy flow did not complete");

    m.elapsed = sim.now();
    m.bandwidth = Bandwidth::bytes_per_s(static_cast<double>(buffer) /
                                         m.elapsed);
    return m;
}

std::vector<Bytes>
default_buffer_sweep()
{
    std::vector<Bytes> buffers;
    buffers.push_back(256 * kMiB);
    buffers.push_back(512 * kMiB);
    for (Bytes size = 1 * kGiB; size <= 32 * kGiB; size *= 2)
        buffers.push_back(size);
    return buffers;
}

std::vector<CopyMeasurement>
sweep(const std::vector<mem::HostSpec> &hosts,
      const std::vector<Bytes> &buffers)
{
    std::vector<CopyMeasurement> results;
    for (const mem::HostSpec &host : hosts) {
        for (int node = 0; node < mem::kNumNumaNodes; ++node) {
            auto system = mem::make_system(host);
            HELM_ASSERT(system.is_ok() && !system->has_storage(),
                        "membench hosts must be mapped host memory");
            system->set_numa_node(node);
            for (Bytes buffer : buffers) {
                results.push_back(measure_copy(
                    *system, buffer, CopyDirection::kHostToGpu));
                results.push_back(measure_copy(
                    *system, buffer, CopyDirection::kGpuToHost));
            }
        }
    }
    return results;
}

} // namespace helm::membench
