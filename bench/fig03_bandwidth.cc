/**
 * @file
 * Fig. 3 reproduction: host<->GPU copy bandwidth, 256 MB - 32 GB
 * buffers, for DRAM / NVDRAM / MemoryMode on both NUMA nodes, both
 * directions (nvbandwidth methodology, Sec. IV-A).
 *
 * Paper shape to reproduce:
 *  - h2d: DRAM-0/1 and MM-0/1 overlap at ~24.5 GB/s; NVDRAM loses ~20%
 *    up to 4 GB (19.91 GB/s) and decays to 15.52 GB/s at 32 GB (-37%).
 *  - d2h: DRAM-0/1 and MM-1 overlap at ~26 GB/s; NVDRAM collapses to
 *    ~3.26 GB/s (-88%) with NVDRAM-0 below NVDRAM-1; MM-0 below MM-1.
 */
#include "bench_util.h"

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Fig. 3: host/GPU memory copy bandwidth",
           "Fig. 3a (host to GPU) and Fig. 3b (GPU to host)");

    // Table I context for the reader.
    {
        AsciiTable t("Table I: platform (simulated)");
        t.set_header({"component", "value"});
        t.add_row({"CPU", "dual-socket Xeon Gold 6330 (Ice Lake)"});
        t.add_row({"DRAM", "256 GiB DDR4-2933 (8 ch)"});
        t.add_row({"Optane", "1 TiB DCPMM 200-series"});
        t.add_row({"GPU", gpu::GpuSpec::a100_40gb().name});
        t.add_row({"Link", mem::PcieLink::gen4_x16().to_string()});
        t.print(std::cout);
        std::cout << "\n";
    }

    const std::vector<mem::HostSpec> kinds{
        mem::ConfigKind::kDram, mem::ConfigKind::kNvdram,
        mem::ConfigKind::kMemoryMode};
    const auto buffers = membench::default_buffer_sweep();
    const auto results = membench::sweep(kinds, buffers);

    for (auto direction : {membench::CopyDirection::kHostToGpu,
                           membench::CopyDirection::kGpuToHost}) {
        const char *dir_name = membench::copy_direction_name(direction);
        AsciiTable t(std::string("Fig. 3") +
                     (direction == membench::CopyDirection::kHostToGpu
                          ? "a: host to GPU (GB/s)"
                          : "b: GPU to host (GB/s)"));
        std::vector<std::string> header{"buffer"};
        for (auto kind : kinds) {
            for (int node = 0; node < mem::kNumNumaNodes; ++node) {
                header.push_back(kind.name() + "-" + std::to_string(node));
            }
        }
        t.set_header(header);
        t.align_right_from(1);

        csv_begin(std::string("fig3_") + dir_name);
        CsvWriter csv(std::cout);
        csv.header(header);

        for (Bytes buffer : buffers) {
            std::vector<std::string> row{format_bytes(buffer)};
            for (auto kind : kinds) {
                for (int node = 0; node < mem::kNumNumaNodes; ++node) {
                    for (const auto &m : results) {
                        if (m.config == kind.name() &&
                            m.numa_node == node &&
                            m.buffer == buffer &&
                            m.direction == direction) {
                            row.push_back(format_fixed(
                                m.bandwidth.as_gb_per_s(), 2));
                        }
                    }
                }
            }
            csv.row(row);
            t.add_row(row);
        }
        csv_end();
        t.print(std::cout);
        std::cout << "\n";
    }

    // Headline deltas the paper calls out.
    {
        auto nv = mem::make_config(mem::ConfigKind::kNvdram);
        auto dram = mem::make_config(mem::ConfigKind::kDram);
        const double nv32 =
            membench::measure_copy(nv, 32 * kGiB,
                                   membench::CopyDirection::kHostToGpu)
                .bandwidth.as_gb_per_s();
        const double dr32 =
            membench::measure_copy(dram, 32 * kGiB,
                                   membench::CopyDirection::kHostToGpu)
                .bandwidth.as_gb_per_s();
        auto nv1 = mem::make_config(mem::ConfigKind::kNvdram);
        nv1.set_numa_node(1);
        auto dr1 = mem::make_config(mem::ConfigKind::kDram);
        dr1.set_numa_node(1);
        const double nv_d2h =
            membench::measure_copy(nv1, kGiB,
                                   membench::CopyDirection::kGpuToHost)
                .bandwidth.as_gb_per_s();
        const double dr_d2h =
            membench::measure_copy(dr1, kGiB,
                                   membench::CopyDirection::kGpuToHost)
                .bandwidth.as_gb_per_s();
        std::cout << "h2d deficit at 32 GiB: "
                  << format_fixed(100.0 * (1.0 - nv32 / dr32), 1)
                  << " % (paper: 37 %)\n";
        std::cout << "d2h deficit at 1 GiB:  "
                  << format_fixed(100.0 * (1.0 - nv_d2h / dr_d2h), 1)
                  << " % (paper: 88 %)\n";
    }
    return 0;
}
