//! Rotating-disk and RAID-0 models.
//!
//! The paper's multi-client testbed stores data on eight HighPoint
//! SCSI disks in RAID-0, "each disk capable of 30 MB/s". A [`Disk`] is
//! a single-slot resource whose occupancy is seek + rotational delay +
//! transfer; [`Raid0`] stripes requests across members so sequential
//! streams approach `disks × 30 MB/s`.

use sim_core::sync::Latch;
use sim_core::{transfer_time, Resource, Sim, SimDuration};

/// One rotating disk.
#[derive(Clone)]
pub struct Disk {
    arm: Resource,
    /// Sustained transfer rate, bytes/second.
    rate: u64,
    /// Average positioning cost charged on discontiguous access.
    seek: SimDuration,
    /// End of the last access (address-space position), for
    /// sequential-access detection.
    head_pos: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Disk {
    /// A disk with the given transfer rate and average seek time.
    pub fn new(sim: &Sim, name: impl Into<String>, rate: u64, seek: SimDuration) -> Disk {
        Disk {
            arm: Resource::new(sim, name, 1),
            rate,
            seek,
            head_pos: std::rc::Rc::new(std::cell::Cell::new(u64::MAX)),
        }
    }

    /// The paper's 30 MB/s SCSI disk.
    pub fn scsi_30mb(sim: &Sim, index: usize) -> Disk {
        Disk::new(
            sim,
            format!("disk{index}"),
            30_000_000,
            SimDuration::from_millis(4),
        )
    }

    /// Transfer `bytes` at an unspecified position (always seeks).
    pub async fn transfer(&self, bytes: u64) {
        let t = self.seek + transfer_time(bytes, self.rate);
        self.arm.use_for(t).await;
        self.head_pos.set(u64::MAX);
    }

    /// Transfer `bytes` at `addr`; a request continuing (or nearly
    /// continuing) the previous one pays no positioning cost, so
    /// sequential streams run at the platter rate.
    pub async fn transfer_at(&self, addr: u64, bytes: u64) {
        let last = self.head_pos.get();
        // Allow a small skip (stripe interleave) to still count as
        // sequential.
        let sequential = last != u64::MAX && addr >= last && addr - last <= (4 << 20);
        let mut t = transfer_time(bytes, self.rate);
        if !sequential {
            t += self.seek;
        }
        self.arm.use_for(t).await;
        self.head_pos.set(addr + bytes);
    }

    /// Utilization since the accounting window opened.
    pub fn utilization(&self) -> f64 {
        self.arm.utilization()
    }

    /// Reset accounting.
    pub fn reset_accounting(&self) {
        self.arm.reset_accounting();
    }
}

/// A RAID-0 stripe set.
#[derive(Clone)]
pub struct Raid0 {
    disks: Vec<Disk>,
    stripe: u64,
}

impl Raid0 {
    /// Stripe across `disks` (at most [`Raid0::MAX_MEMBERS`]) with the
    /// given stripe unit.
    pub fn new(disks: Vec<Disk>, stripe: u64) -> Raid0 {
        assert!(!disks.is_empty() && disks.len() <= Raid0::MAX_MEMBERS && stripe > 0);
        Raid0 { disks, stripe }
    }

    /// The widest array: a request's per-member table lives on the
    /// stack.
    pub const MAX_MEMBERS: usize = 16;

    /// The paper's array: 8 × 30 MB/s disks, 64 KiB stripe unit.
    pub fn paper_array(sim: &Sim) -> Raid0 {
        Raid0::new((0..8).map(|i| Disk::scsi_30mb(sim, i)).collect(), 64 * 1024)
    }

    /// Transfer `[addr, addr+len)` of the array's address space: one
    /// member task per disk the range touches starts now, and the
    /// returned latch opens when the slowest finishes. Its waiter is
    /// woken once (each member finishes in the drain after its own
    /// timer pop, so the wake lands where a per-member join's last one
    /// did; DESIGN.md §3 "Executor internals").
    pub fn transfer(&self, addr: u64, len: u64) -> Latch {
        // Start address and bytes for each member in this request.
        let mut per_disk = [None::<(u64, u64)>; Raid0::MAX_MEMBERS];
        let mut cursor = addr;
        let end = addr + len;
        while cursor < end {
            let stripe_index = cursor / self.stripe;
            let disk = (stripe_index as usize) % self.disks.len();
            let stripe_end = (stripe_index + 1) * self.stripe;
            let n = stripe_end.min(end) - cursor;
            match &mut per_disk[disk] {
                Some((_, bytes)) => *bytes += n,
                None => per_disk[disk] = Some((cursor, n)),
            }
            cursor += n;
        }
        let done = Latch::new(per_disk.iter().flatten().count());
        for (disk, req) in self.disks.iter().zip(per_disk) {
            let Some((start, bytes)) = req else { continue };
            let disk = disk.clone();
            let arrival = done.arrival();
            disk.arm.sim().spawn(async move {
                disk.transfer_at(start, bytes).await;
                arrival.arrive();
            });
        }
        done
    }

    /// Mean utilization across members.
    pub fn utilization(&self) -> f64 {
        self.disks.iter().map(|d| d.utilization()).sum::<f64>() / self.disks.len() as f64
    }

    /// Reset accounting on all members.
    pub fn reset_accounting(&self) {
        for d in &self.disks {
            d.reset_accounting();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Simulation;

    #[test]
    fn single_disk_rate() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let d = Disk::scsi_30mb(&h, 0);
        let d2 = d.clone();
        sim.block_on(async move { d2.transfer(30_000_000).await });
        // 1s transfer + 4ms seek.
        assert_eq!(sim.now().as_nanos(), 1_004_000_000);
    }

    #[test]
    fn raid0_parallelizes_large_requests() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let raid = Raid0::paper_array(&h);
        let r2 = raid.clone();
        // 8 MiB spanning all 8 disks: ~1 MiB each at 30 MB/s ≈ 35 ms,
        // vs 280 ms on one disk.
        sim.block_on(async move { r2.transfer(0, 8 << 20).await });
        let secs = sim.now().as_secs_f64();
        assert!(secs < 0.05, "parallel transfer took {secs}s");
    }

    #[test]
    fn raid0_small_request_hits_one_disk() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let raid = Raid0::paper_array(&h);
        let r2 = raid.clone();
        sim.block_on(async move { r2.transfer(0, 32 * 1024).await });
        // One disk: 4ms seek + ~1.09ms transfer.
        let ms = sim.now().as_secs_f64() * 1e3;
        assert!((4.9..5.4).contains(&ms), "{ms} ms");
    }

    #[test]
    fn raid0_aggregate_streaming_rate() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let raid = Raid0::paper_array(&h);
        // Stream 240 MB in 1 MiB chunks sequentially: expect ≈ 240 MB/s
        // aggregate minus seek overhead.
        let r2 = raid.clone();
        sim.block_on(async move {
            let chunk = 1 << 20;
            let total: u64 = 240_000_000;
            let mut addr = 0;
            while addr < total {
                r2.transfer(addr, chunk).await;
                addr += chunk;
            }
        });
        let rate = 240.0 / sim.now().as_secs_f64();
        assert!(
            (150.0..245.0).contains(&rate),
            "aggregate rate {rate:.0} MB/s"
        );
    }

    #[test]
    fn concurrent_streams_share_members() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let raid = Raid0::paper_array(&h);
        for s in 0..4u64 {
            let r = raid.clone();
            sim.spawn(async move {
                // Disjoint regions, same member set.
                let base = s * (64 << 20);
                let mut addr = base;
                while addr < base + (16 << 20) {
                    r.transfer(addr, 1 << 20).await;
                    addr += 1 << 20;
                }
            });
        }
        sim.run();
        // 64 MiB total at ≈ 200+ MB/s aggregate.
        let secs = sim.now().as_secs_f64();
        assert!(secs < 0.6, "{secs}s");
        assert!(raid.utilization() > 0.5);
    }
}
