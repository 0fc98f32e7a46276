//! Host CPU model.
//!
//! A [`Cpu`] is a pool of cores (a multi-slot [`Resource`]) plus
//! convenience operations for the cost classes the paper's analysis
//! cares about: data copies (per-byte), interrupts, and fixed-cost
//! driver/stack sections. Client CPU-utilization curves in Figures 6, 7
//! and 9 come straight out of this accounting.

use crate::executor::Sim;
use crate::resource::{Resource, UseFor};
use crate::time::{SimDuration, SimTime};

/// Cost constants for a host's CPU-bound operations: properties of the
/// modelled machine and its OS stack, not of any protocol run on it.
#[derive(Clone, Copy, Debug)]
pub struct CpuCosts {
    /// Cost to copy one byte between buffers (memcpy through cache), in
    /// nanoseconds.
    pub copy_ns_per_byte: f64,
    /// Cost to take and service one interrupt, in nanoseconds.
    pub interrupt_ns: u64,
    /// Serialized per-operation time in an RPC server's task queue
    /// (the paper's Figure 1 "server task queue": interrupt handler
    /// hand-off, transport walkers, dispatch) — large on 2007
    /// OpenSolaris, small on Linux.
    pub server_op_serial: SimDuration,
    /// Per-call RPC client CPU (syscall, VFS, RPC marshalling).
    pub per_op_client_cpu: SimDuration,
    /// Per-call RPC server CPU (decode, dispatch bookkeeping).
    pub per_op_server_cpu: SimDuration,
}

impl Default for CpuCosts {
    fn default() -> Self {
        // Mid-2000s server-class defaults with the OpenSolaris RPC
        // stack's per-op costs; profiles override these.
        CpuCosts {
            copy_ns_per_byte: 0.5,
            interrupt_ns: 5_000,
            server_op_serial: SimDuration::from_micros(180),
            per_op_client_cpu: SimDuration::from_micros(18),
            per_op_server_cpu: SimDuration::from_micros(12),
        }
    }
}

/// A pool of CPU cores with cost accounting.
#[derive(Clone)]
pub struct Cpu {
    sim: Sim,
    cores: Resource,
    costs: CpuCosts,
}

impl Cpu {
    /// Create a CPU with `cores` cores and the given cost table.
    pub fn new(sim: &Sim, name: impl Into<String>, cores: usize, costs: CpuCosts) -> Self {
        Cpu {
            sim: sim.clone(),
            cores: Resource::new(sim, name, cores),
            costs,
        }
    }

    /// Execute `d` of CPU work on one core (queueing if all busy).
    pub fn execute(&self, d: SimDuration) -> UseFor<'_> {
        self.cores.use_for(d)
    }

    /// Record `d` of busy time without occupying a core slot — for
    /// work whose serialization is modelled by another resource (e.g.
    /// a single-queue NIC softirq) but which still burns CPU.
    pub fn charge(&self, d: SimDuration) {
        self.cores.charge(d);
    }

    /// Copy `bytes` through the CPU (one core).
    pub fn copy(&self, bytes: u64) -> UseFor<'_> {
        let ns = (bytes as f64 * self.costs.copy_ns_per_byte).round() as u64;
        self.execute(SimDuration::from_nanos(ns))
    }

    /// Service one interrupt.
    pub fn interrupt(&self) -> UseFor<'_> {
        self.execute(SimDuration::from_nanos(self.costs.interrupt_ns))
    }

    /// The cost table.
    pub fn costs(&self) -> CpuCosts {
        self.costs
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.cores.capacity()
    }

    /// Busy fraction since the accounting window opened (0..=1).
    pub fn utilization(&self) -> f64 {
        self.cores.utilization()
    }

    /// Total CPU-busy time since the accounting window opened.
    pub fn busy_time(&self) -> SimDuration {
        self.cores.busy_time()
    }

    /// Reset the accounting window (exclude warmup).
    pub fn reset_accounting(&self) {
        self.cores.reset_accounting();
    }

    /// Current virtual time (convenience for utilization snapshots).
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;

    #[test]
    fn copy_charges_per_byte() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let cpu = Cpu::new(
            &h,
            "host",
            1,
            CpuCosts {
                copy_ns_per_byte: 2.0,
                ..Default::default()
            },
        );
        let c2 = cpu.clone();
        sim.block_on(async move { c2.copy(1000).await });
        assert_eq!(cpu.busy_time(), SimDuration::from_nanos(2000));
    }

    #[test]
    fn cores_run_in_parallel() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let cpu = Cpu::new(&h, "host", 4, CpuCosts::default());
        for _ in 0..4 {
            let cpu = cpu.clone();
            sim.spawn(async move { cpu.execute(SimDuration::from_micros(100)).await });
        }
        sim.run();
        assert_eq!(sim.now().as_nanos(), 100_000);
        assert!((cpu.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interrupt_cost() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let cpu = Cpu::new(
            &h,
            "host",
            1,
            CpuCosts {
                interrupt_ns: 4_000,
                ..Default::default()
            },
        );
        let c2 = cpu.clone();
        sim.block_on(async move { c2.interrupt().await });
        assert_eq!(cpu.busy_time(), SimDuration::from_nanos(4_000));
    }
}
