//! HCA and fabric timing/limit parameters.
//!
//! Everything the paper's analysis identifies as a bottleneck is a
//! number here: link rate, the serialized TPT I/O-bus transactions
//! (whose cost scales with the number of pages translated), the
//! IRD/ORD limits, and the responder's serialized RDMA Read execution.
//! Host profiles in the `workloads` crate instantiate these for the
//! paper's SDR Opteron/OpenSolaris and DDR Xeon/Linux testbeds.

use sim_core::SimDuration;

/// Configuration for one simulated HCA (and its fabric port).
#[derive(Clone, Copy, Debug)]
pub struct HcaConfig {
    /// Link payload bandwidth, bytes/second (SDR x8 PCIe ≈ 900 MB/s
    /// effective unidirectional in the paper's testbed).
    pub link_bandwidth: u64,
    /// One-way propagation + switch latency per message.
    pub link_latency: SimDuration,
    /// Per-message wire overhead (LRH/BTH headers, CRCs), bytes.
    pub wire_header_bytes: u64,
    /// HCA processing time per *doorbell* (the doorbell write, fetching
    /// the WQEs it submits, DMA setup), serialized per QP: the send
    /// engine charges it once per ring, however many WQEs the ring
    /// carries: once per WQE, except that a WR chain pays it once for
    /// all of its WQEs (DESIGN.md §4, "Known model errors").
    pub wqe_process: SimDuration,
    /// Outbound RDMA Read queue depth: max reads this HCA may have in
    /// flight per QP. Mellanox firmware of the era allowed 8. ORD
    /// exhaustion stalls the send queue (head-of-line blocking) — the
    /// paper's §4.1 "Outstanding RDMA Reads" limitation.
    pub max_ord: usize,
    /// Inbound RDMA Read queue depth (responder side). Requests beyond
    /// this are flow-controlled; responses are generated strictly in
    /// order, so the responder executes reads serially per QP.
    pub max_ird: usize,
    /// Responder-side execution time per serviced RDMA Read before the
    /// data flows (request decode, protection check, DMA engine
    /// turnaround). Because RC responders execute in PSN order, this is
    /// serialized per QP — the paper's "serialization of RDMA Reads".
    pub read_turnaround: SimDuration,
    /// CPU cost per page for pinning host memory, on the pinner's clock.
    /// Unpinning costs half, charged to a free core of the same CPU
    /// without anyone waiting for it (`Hca::unpin_pages`).
    pub pin_per_page: SimDuration,
    /// Dynamic registration: fixed TPT transaction cost.
    pub tpt_register_base: SimDuration,
    /// Dynamic registration: additional TPT cost per page translated.
    pub tpt_register_per_page: SimDuration,
    /// Deregistration: fixed TPT invalidate cost.
    pub tpt_invalidate_base: SimDuration,
    /// Deregistration: additional invalidate cost per page.
    pub tpt_invalidate_per_page: SimDuration,
    /// FMR map: fixed cost (entries pre-allocated at pool creation).
    pub fmr_map_base: SimDuration,
    /// FMR map: per-page translation update cost.
    pub fmr_map_per_page: SimDuration,
    /// FMR unmap: fixed (batched/deferred flush, Mellanox extension).
    pub fmr_unmap: SimDuration,
    /// Number of pre-allocated FMR entries.
    pub fmr_pool_size: usize,
    /// Maximum bytes one FMR entry can map; larger regions must fall
    /// back to dynamic registration.
    pub fmr_max_len: u64,
    /// Maximum scatter/gather entries one WQE may carry. Posting more
    /// is an immediate `InvalidRequest`.
    pub max_send_sge: usize,
    /// CQ interrupt moderation: completions accumulated before a parked
    /// consumer is interrupted. `1` interrupts on every completion
    /// (no coalescing).
    pub cq_coalesce_count: usize,
    /// CQ interrupt moderation: longest a completion may wait for
    /// companions before the consumer is interrupted anyway. Only
    /// meaningful when `cq_coalesce_count > 1`.
    pub cq_coalesce_delay: SimDuration,
}

impl HcaConfig {
    /// Parameters approximating the paper's Mellanox SDR x8 PCIe HCA on
    /// the dual-Opteron OpenSolaris testbed.
    pub fn sdr() -> Self {
        HcaConfig {
            link_bandwidth: 900_000_000,
            link_latency: SimDuration::from_nanos(1_300),
            wire_header_bytes: 54,
            wqe_process: SimDuration::from_nanos(1_000),
            max_ord: 8,
            max_ird: 8,
            read_turnaround: SimDuration::from_micros(107),
            pin_per_page: SimDuration::from_nanos(700),
            tpt_register_base: SimDuration::from_micros(30),
            tpt_register_per_page: SimDuration::from_nanos(7_000),
            tpt_invalidate_base: SimDuration::from_micros(20),
            tpt_invalidate_per_page: SimDuration::from_nanos(2_400),
            fmr_map_base: SimDuration::from_micros(25),
            fmr_map_per_page: SimDuration::from_nanos(6_200),
            fmr_unmap: SimDuration::from_micros(80),
            fmr_pool_size: 512,
            fmr_max_len: 1 << 20,
            max_send_sge: 16,
            cq_coalesce_count: 1,
            cq_coalesce_delay: SimDuration::from_micros(4),
        }
    }

    /// Parameters approximating the DDR HCA on the Xeon/Linux
    /// multi-client testbed (faster link, leaner driver costs).
    pub fn ddr() -> Self {
        HcaConfig {
            link_bandwidth: 1_450_000_000,
            link_latency: SimDuration::from_nanos(1_000),
            tpt_register_base: SimDuration::from_micros(25),
            tpt_register_per_page: SimDuration::from_nanos(5_000),
            tpt_invalidate_base: SimDuration::from_micros(20),
            tpt_invalidate_per_page: SimDuration::from_nanos(1_500),
            fmr_map_base: SimDuration::from_micros(20),
            fmr_map_per_page: SimDuration::from_nanos(3_500),
            fmr_unmap: SimDuration::from_micros(35),
            ..Self::sdr()
        }
    }

    /// Dynamic registration TPT transaction time for `pages`.
    pub fn reg_cost(&self, pages: u64) -> SimDuration {
        self.tpt_register_base + self.tpt_register_per_page * pages
    }

    /// Deregistration TPT transaction time for `pages`.
    pub fn dereg_cost(&self, pages: u64) -> SimDuration {
        self.tpt_invalidate_base + self.tpt_invalidate_per_page * pages
    }

    /// FMR map TPT transaction time for `pages`.
    pub fn fmr_map_cost(&self, pages: u64) -> SimDuration {
        self.fmr_map_base + self.fmr_map_per_page * pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_sane() {
        let sdr = HcaConfig::sdr();
        assert_eq!(sdr.max_ord, 8);
        assert_eq!(sdr.max_ird, 8);
        // FMR must be cheaper than dynamic registration at every size.
        for pages in [1u64, 8, 32, 256] {
            assert!(sdr.fmr_map_cost(pages) < sdr.reg_cost(pages));
        }
        let ddr = HcaConfig::ddr();
        assert!(ddr.link_bandwidth > sdr.link_bandwidth);
        assert!(ddr.reg_cost(32) < sdr.reg_cost(32));
    }

    #[test]
    fn costs_scale_with_pages() {
        let c = HcaConfig::sdr();
        assert!(c.reg_cost(256) > c.reg_cost(32) * 4);
        assert!(c.dereg_cost(32) > c.dereg_cost(1));
    }

    #[test]
    fn batching_defaults_are_off() {
        // Defaults must preserve the unbatched per-WQE behavior so
        // every calibrated curve is unchanged until a profile opts in.
        let c = HcaConfig::sdr();
        assert_eq!(c.cq_coalesce_count, 1);
        assert!(c.max_send_sge >= 2);
    }
}
