/**
 * @file
 * nvbandwidth-equivalent host<->GPU copy benchmark (paper Sec. IV-A).
 *
 * Sweeps buffer sizes from 256 MB to 32 GB across memory configurations
 * and NUMA nodes, timing a single streaming copy through the simulated
 * PCIe channel in each direction, exactly how Fig. 3 was measured.  The
 * timed copy runs on the DES kernel so the number reported is what the
 * inference runtime would actually experience, not a table lookup.
 */
#ifndef HELM_MEMBENCH_MEMBENCH_H
#define HELM_MEMBENCH_MEMBENCH_H

#include <string>
#include <vector>

#include "common/units.h"
#include "mem/host_system.h"
#include "mem/registry.h"

namespace helm::membench {

/** Direction of a copy. */
enum class CopyDirection
{
    kHostToGpu,
    kGpuToHost,
};

/** Printable name ("h2d"/"d2h"). */
const char *copy_direction_name(CopyDirection direction);

/** One measured point of the sweep. */
struct CopyMeasurement
{
    std::string config;  //!< memory configuration label
    int numa_node = 0;   //!< node the host buffer lives on
    Bytes buffer = 0;
    CopyDirection direction = CopyDirection::kHostToGpu;
    Seconds elapsed = 0.0;
    Bandwidth bandwidth; //!< buffer / elapsed
};

/**
 * Time one copy of @p buffer bytes on the DES kernel.
 * @param system Host configuration (its numa_node is respected).
 */
CopyMeasurement measure_copy(const mem::HostMemorySystem &system,
                             Bytes buffer, CopyDirection direction);

/** Fig. 3's buffer ladder: 256 MB, 512 MB, 1..32 GB (powers of two). */
std::vector<Bytes> default_buffer_sweep();

/**
 * Full Fig. 3 sweep: every (host, node, buffer, direction) tuple.
 * @param hosts Host memories to sweep: registered host-tier devices
 *              or custom CXL expanders.  Storage tiers are not
 *              accepted because nvbandwidth copies from mapped memory,
 *              not files.
 */
std::vector<CopyMeasurement>
sweep(const std::vector<mem::HostSpec> &hosts,
      const std::vector<Bytes> &buffers);

} // namespace helm::membench

#endif // HELM_MEMBENCH_MEMBENCH_H
