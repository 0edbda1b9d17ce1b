/**
 * @file
 * $/GB cost model over the device zoo.
 *
 * The Pareto explorer ranks configurations by cost-per-token, so every
 * MemoryKind needs a hardware price.  Prices are rough street prices
 * (deliberately order-of-magnitude, documented in README.md): the
 * frontier's *shape* — flash an order of magnitude cheaper than DRAM,
 * NDP-DIMMs at a premium over plain DDR4 — is what matters, not the
 * third significant digit.
 */
#ifndef HELM_SWEEP_COST_MODEL_H
#define HELM_SWEEP_COST_MODEL_H

#include "common/units.h"
#include "mem/device.h"
#include "mem/host_system.h"

namespace helm::sweep {

/** Capital cost of a serving box, amortized into $/token. */
struct CostModel
{
    // ---- $/GB by memory technology (decimal GB, street prices) ------
    double dram_per_gb = 4.0;        //!< DDR4 RDIMM
    double optane_per_gb = 2.6;      //!< Optane DCPMM (128 GB modules)
    double memory_mode_per_gb = 2.9; //!< Optane backing + DRAM cache blend
    double ssd_per_gb = 1.0;         //!< Optane SSD (block)
    double fsdax_per_gb = 1.6;       //!< Optane DCPMM provisioned as DAX
    double cxl_per_gb = 5.0;         //!< expander DDR + controller share
    double ndp_dimm_per_gb = 6.0;    //!< DDR4 + near-bank compute premium
    double hbf_per_gb = 0.35;        //!< high-bandwidth flash stack

    // ---- Fixed platform costs ---------------------------------------
    double gpu_dollars = 10000.0;          //!< A100-40GB street price
    double host_platform_dollars = 4000.0; //!< CPUs, board, PSU, chassis
    double amortization_years = 3.0;       //!< depreciation horizon

    /** $/GB for one memory technology (exhaustive over MemoryKind). */
    double dollars_per_gb(mem::MemoryKind kind) const;

    /** Price of one device: capacity x $/GB of its technology. */
    double device_dollars(const mem::MemoryDevice &device) const;

    /** Whole-box price: GPU + platform + every memory tier. */
    double system_dollars(const mem::HostMemorySystem &system) const;

    /** Amortized $/token at a sustained decode rate. */
    double cost_per_token(double system_dollars,
                          double tokens_per_s) const;
};

} // namespace helm::sweep

#endif // HELM_SWEEP_COST_MODEL_H
