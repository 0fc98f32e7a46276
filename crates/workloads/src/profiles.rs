//! Calibrated host/testbed profiles for the paper's two platforms.
//!
//! Constants are chosen so the *headline* numbers of the paper's
//! figures land close to the reported values (see DESIGN.md §4 and the
//! calibration tests); everything else — crossovers, orderings,
//! scaling shapes — then emerges from the simulation.

use ib_verbs::HcaConfig;
use rpcrdma::RpcRdmaConfig;
use sim_core::{CpuCosts, SimDuration};

/// A complete host/stack parameter set.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Label used in reports.
    pub name: &'static str,
    /// HCA/link parameters.
    pub hca: HcaConfig,
    /// RPC/RDMA transport parameters (protocol policy; the per-op stack
    /// costs of the host running it are in the CPU cost tables).
    pub rpc: RpcRdmaConfig,
    /// Client CPU cost table.
    pub client_cpu: CpuCosts,
    /// Server CPU cost table.
    pub server_cpu: CpuCosts,
}

/// The §5.1/§5.2 testbed: dual 2.2 GHz Opteron x2100s, SDR x8 HCAs,
/// OpenSolaris build 33, tmpfs back end.
pub fn solaris_sdr() -> Profile {
    Profile {
        name: "opensolaris-sdr",
        hca: HcaConfig::sdr(),
        rpc: RpcRdmaConfig::default(),
        client_cpu: opteron_cpu(),
        server_cpu: opteron_cpu(),
    }
}

/// The Linux comparison point of §5.2 (Figure 9): same SDR fabric,
/// leaner registration/driver costs.
pub fn linux_sdr() -> Profile {
    Profile {
        name: "linux-sdr",
        hca: linux_hca_costs(HcaConfig::sdr()),
        rpc: RpcRdmaConfig::default(),
        client_cpu: xeon_cpu(),
        server_cpu: xeon_cpu(),
    }
}

/// The §5.3 multi-client testbed: dual 3.6 GHz Xeons, DDR HCAs
/// (PCI-Express x8 chipsets of the era cap effective throughput near
/// 950 MB/s), 8-disk RAID-0 server.
pub fn linux_ddr_raid() -> Profile {
    let mut hca = linux_hca_costs(HcaConfig::ddr());
    // DDR link rate is PCIe-x8-limited on this platform.
    hca.link_bandwidth = 950_000_000;
    Profile {
        name: "linux-ddr-raid",
        hca,
        rpc: RpcRdmaConfig::default(),
        client_cpu: xeon_cpu(),
        server_cpu: xeon_cpu(),
    }
}

/// 2.2 GHz Opteron under OpenSolaris build 33: memcpy through
/// registered buffers, and the heavyweight kRPC task queue.
fn opteron_cpu() -> CpuCosts {
    CpuCosts {
        copy_ns_per_byte: 0.9,
        interrupt_ns: 6_000,
        server_op_serial: SimDuration::from_micros(180),
        per_op_client_cpu: SimDuration::from_micros(18),
        per_op_server_cpu: SimDuration::from_micros(12),
    }
}

/// 3.6 GHz Xeon under Linux: the lean RPC stack.
fn xeon_cpu() -> CpuCosts {
    CpuCosts {
        copy_ns_per_byte: 0.45,
        interrupt_ns: 4_000,
        server_op_serial: SimDuration::from_micros(22),
        per_op_client_cpu: SimDuration::from_micros(10),
        per_op_server_cpu: SimDuration::from_micros(7),
    }
}

fn linux_hca_costs(base: HcaConfig) -> HcaConfig {
    HcaConfig {
        tpt_register_base: SimDuration::from_micros(25),
        tpt_register_per_page: SimDuration::from_nanos(5_000),
        tpt_invalidate_base: SimDuration::from_micros(20),
        tpt_invalidate_per_page: SimDuration::from_nanos(1_500),
        fmr_map_base: SimDuration::from_micros(20),
        fmr_map_per_page: SimDuration::from_nanos(3_500),
        fmr_unmap: SimDuration::from_micros(35),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_build() {
        let s = solaris_sdr();
        let l = linux_sdr();
        let d = linux_ddr_raid();
        assert!(l.server_cpu.server_op_serial < s.server_cpu.server_op_serial);
        assert!(l.hca.reg_cost(32) < s.hca.reg_cost(32));
        assert!(d.hca.link_bandwidth > s.hca.link_bandwidth);
    }
}
