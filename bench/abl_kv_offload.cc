/**
 * @file
 * Ablation (beyond the paper): KV-cache placement — GPU-resident,
 * statically offloaded to host, or managed tiers (src/kvcache).
 *
 * The paper's related work (Sec. VI) notes cache offloading "can be
 * combined with our work to further increase batch sizes"; this sweep
 * quantifies the tradeoff.  Static offload pays the full context over
 * PCIe every decode step and drains new K/V at the host *write*
 * bandwidth — Optane's 3.26 GB/s ceiling (Fig. 3b) makes that far more
 * dangerous on NVDRAM than on DRAM.  Managed tiers keep the hot blocks
 * in the GPU's free HBM and only pay the host path for the overflow,
 * recovering most of the GPU-resident latency while still admitting
 * offload-sized batches.
 */
#include "bench_util.h"

int
main()
{
    using namespace helm;
    using namespace helm::bench;

    banner("Ablation: KV-cache placement (GPU / static host / tiered)",
           "extension of Sec. V-C / Sec. VI discussion");

    AsciiTable t("All-CPU OPT-175B(c): KV placement modes");
    const std::vector<std::string> header{
        "config", "batch",   "kv",       "ttft_ms", "tbt_ms",
        "tok/s",  "kv_read", "kv_write", "demoted"};
    t.set_header(header);
    t.align_right_from(1);

    csv_begin("abl_kv_offload");
    CsvWriter csv(std::cout);
    csv.header(header);

    const std::vector<std::string> modes{"gpu", "host", "tiered"};
    for (auto memory : {mem::ConfigKind::kNvdram, mem::ConfigKind::kDram}) {
        for (std::uint64_t batch : {8ull, 44ull, 96ull, 192ull}) {
            for (const std::string &mode : modes) {
                auto spec = opt175b_spec(
                    memory, placement::PlacementKind::kAllCpu, batch,
                    true);
                if (mode == "host")
                    spec.kv_cache = kvcache::KvCacheConfig::legacy_offload();
                else if (mode == "tiered")
                    spec.kv_cache = kvcache::KvCacheConfig::tiered();
                auto result = runtime::simulate_inference(spec);
                std::vector<std::string> cells{
                    mem::config_kind_name(memory), std::to_string(batch),
                    mode};
                if (result.is_ok()) {
                    Bytes kv_read = 0, kv_write = 0;
                    for (const auto &rec : result->records) {
                        kv_read += rec.kv_read_bytes;
                        kv_write += rec.kv_write_bytes;
                    }
                    cells.insert(
                        cells.end(),
                        {ms(result->metrics.ttft),
                         ms(result->metrics.tbt),
                         format_fixed(result->metrics.throughput, 2),
                         format_bytes(kv_read), format_bytes(kv_write),
                         std::to_string(result->kv_stats.demotions)});
                } else {
                    cells.insert(cells.end(), {"-", "-", "does not fit",
                                               "-", "-", "-"});
                }
                csv.row(cells);
                t.add_row(cells);
            }
        }
    }
    csv_end();
    t.print(std::cout);
    std::cout
        << "\nShape: static offload admits batches far beyond 44 (the "
           "KV budget disappears) but re-streams the whole context "
           "every decode step; on NVDRAM the 3.26 GB/s write ceiling "
           "(Fig. 3b) erases much of the batch win.  Managed tiers "
           "admit the same batches yet stay on the GPU path until the "
           "free HBM overflows — only the demoted share pays the host "
           "price.\n";
    return 0;
}
