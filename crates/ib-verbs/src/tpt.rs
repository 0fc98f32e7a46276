//! The HCA's Translation & Protection Table.
//!
//! Every RDMA operation targeting this HCA is checked against the TPT:
//! the steering tag must exist and be valid, the address range must lie
//! inside the registered region, and the op must match the region's
//! access rights — exactly the checks a real HCA performs, and exactly
//! what a malicious client probes when it guesses steering tags
//! (paper §4.1, "Server buffers exposed").
//!
//! The TPT also keeps the workspace's security ledger: how many bytes
//! were remotely exposed for how long. The Read-Read vs Read-Write
//! security comparison in the `security_audit` example reads straight
//! from it.

use std::rc::Rc;

use sim_core::stats::Counter;
use sim_core::{FxMap, FxSet, MetricsRegistry, SimRng, SimTime};

use crate::memory::Buffer;
use crate::types::{Access, NodeId, Rkey, VerbsError};

/// One registered region.
#[derive(Clone)]
pub struct TptEntry {
    /// Backing buffer.
    pub buffer: Buffer,
    /// First registered virtual address.
    pub base: u64,
    /// Registered length, bytes.
    pub len: u64,
    /// Access rights.
    pub access: Access,
    /// When the entry became valid (for exposure accounting).
    pub since: SimTime,
}

/// The kind of remote operation being validated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RemoteOp {
    /// Peer reads our memory (RDMA Read responder side).
    Read,
    /// Peer writes our memory (RDMA Write target side).
    Write,
}

/// Cumulative security ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExposureReport {
    /// Integral of remotely-exposed bytes over time (byte·µs): the
    /// closed windows of `tpt.node{N}.exposed_byte_us` plus the windows
    /// still open at the time of the report.
    pub byte_us: u64,
    /// Bytes exposed right now.
    pub current_bytes: u64,
    /// Number of registrations that ever granted remote access.
    pub exposures: u64,
}

/// Translation & Protection Table for one HCA.
pub struct Tpt {
    entries: FxMap<u32, TptEntry>,
    /// Steering tags pre-allocated to FMR pools; dynamic registration
    /// must never mint one of these.
    reserved: FxSet<u32>,
    rng: SimRng,
    global_rkey: Rkey,
    /// Whether the privileged all-physical steering tag is enabled.
    global_enabled: bool,
    /// Byte·µs of every closed exposure window:
    /// `tpt.node{N}.exposed_byte_us`, each HCA's own.
    exposed_byte_us: Rc<Counter>,
    /// Registrations that ever granted remote access:
    /// `tpt.node{N}.exposures`, each HCA's own.
    exposures: Rc<Counter>,
    /// Remote-access validation failures (attack probes, bugs):
    /// `tpt.violations`, one series for every HCA of a simulation.
    violations: Rc<Counter>,
    /// Registrations force-invalidated by policy (an overdue
    /// `RDMA_DONE`, quarantine teardown) rather than by their owner's
    /// deregister: `tpt.revocations`, likewise fleet-wide.
    revocations: Rc<Counter>,
}

impl Tpt {
    /// Create the TPT of node `node`'s HCA, with randomized steering
    /// tags drawn from `rng`, counting into `registry`.
    pub fn new(mut rng: SimRng, registry: &MetricsRegistry, node: NodeId) -> Self {
        let global_rkey = Rkey(rng.next_u32() | 1);
        Tpt {
            entries: FxMap::default(),
            reserved: FxSet::default(),
            rng,
            global_rkey,
            global_enabled: false,
            exposed_byte_us: registry.counter(&format!("tpt.node{}.exposed_byte_us", node.0)),
            exposures: registry.counter(&format!("tpt.node{}.exposures", node.0)),
            violations: registry.counter("tpt.violations"),
            revocations: registry.counter("tpt.revocations"),
        }
    }

    /// Record a forced invalidation that bypasses the TPT (all-physical
    /// registrations have no entry to remove; the pinning still had to
    /// be torn down by policy).
    pub fn note_revocation(&mut self) {
        self.revocations.inc();
    }

    /// Force-invalidate an entry by policy (overdue `RDMA_DONE`,
    /// quarantine): closes the exposure window like [`Tpt::invalidate`]
    /// and records the revocation in the ledger.
    pub fn revoke(&mut self, rkey: Rkey, now: SimTime) -> Option<TptEntry> {
        let e = self.invalidate(rkey, now)?;
        self.note_revocation();
        Some(e)
    }

    /// Install a new entry and return its steering tag.
    pub fn insert(
        &mut self,
        buffer: Buffer,
        base: u64,
        len: u64,
        access: Access,
        now: SimTime,
    ) -> Rkey {
        let rkey = loop {
            let k = self.rng.next_u32();
            // Never collide with the global key, a live entry, or a
            // steering tag pre-allocated to an FMR pool.
            if k != self.global_rkey.0
                && !self.entries.contains_key(&k)
                && !self.reserved.contains(&k)
            {
                break Rkey(k);
            }
        };
        self.insert_with_key(rkey, buffer, base, len, access, now);
        rkey
    }

    /// Install an entry under a pre-allocated steering tag (FMR remap).
    pub fn insert_with_key(
        &mut self,
        rkey: Rkey,
        buffer: Buffer,
        base: u64,
        len: u64,
        access: Access,
        now: SimTime,
    ) {
        if access.remotely_exposed() {
            self.exposures.inc();
        }
        let prev = self.entries.insert(
            rkey.0,
            TptEntry {
                buffer,
                base,
                len,
                access,
                since: now,
            },
        );
        assert!(prev.is_none(), "steering tag reuse while valid: {rkey:?}");
    }

    /// Invalidate an entry, closing its exposure window.
    pub fn invalidate(&mut self, rkey: Rkey, now: SimTime) -> Option<TptEntry> {
        let e = self.entries.remove(&rkey.0)?;
        if e.access.remotely_exposed() {
            self.exposed_byte_us.add(byte_us_of(&e, now));
        }
        Some(e)
    }

    /// Pre-allocate `n` unique steering tags for an FMR pool. The tags
    /// are excluded from dynamic allocation for the TPT's lifetime.
    pub fn reserve_keys(&mut self, n: usize) -> Vec<Rkey> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let k = self.rng.next_u32();
            if k != self.global_rkey.0 && !self.entries.contains_key(&k) && self.reserved.insert(k)
            {
                out.push(Rkey(k));
            }
        }
        out
    }

    /// Enable the privileged all-physical steering tag and return it.
    /// Only "kernel" consumers should call this (paper §4.3).
    pub fn enable_global_rkey(&mut self) -> Rkey {
        self.global_enabled = true;
        self.global_rkey
    }

    /// The privileged steering tag, if enabled.
    pub fn global_rkey(&self) -> Option<Rkey> {
        self.global_enabled.then_some(self.global_rkey)
    }

    /// Validate a remote operation. On success returns the target buffer
    /// and the byte offset within it. `lookup_any` resolves an address
    /// through the host's full memory map for the global steering tag.
    pub fn check_remote(
        &mut self,
        rkey: Rkey,
        addr: u64,
        len: u64,
        op: RemoteOp,
        now: SimTime,
        lookup_any: impl FnOnce(u64, u64) -> Option<Buffer>,
    ) -> Result<(Buffer, u64), VerbsError> {
        let _ = now;
        if self.global_enabled && rkey == self.global_rkey {
            // All-physical mode: any valid host memory is reachable.
            return match lookup_any(addr, len) {
                Some(buf) => {
                    let off = buf.offset_of(addr);
                    Ok((buf, off))
                }
                None => {
                    self.violations.inc();
                    Err(VerbsError::RemoteAccess {
                        rkey,
                        reason: "global rkey: address not mapped",
                    })
                }
            };
        }
        let Some(e) = self.entries.get(&rkey.0) else {
            self.violations.inc();
            return Err(VerbsError::RemoteAccess {
                rkey,
                reason: "no such steering tag",
            });
        };
        if addr < e.base || addr + len > e.base + e.len {
            self.violations.inc();
            return Err(VerbsError::RemoteAccess {
                rkey,
                reason: "out of registered bounds",
            });
        }
        let allowed = match op {
            RemoteOp::Read => e.access.allows_remote_read(),
            RemoteOp::Write => e.access.allows_remote_write(),
        };
        if !allowed {
            self.violations.inc();
            return Err(VerbsError::RemoteAccess {
                rkey,
                reason: "access rights do not permit operation",
            });
        }
        let off = e.buffer.offset_of(addr);
        Ok((e.buffer.clone(), off))
    }

    /// Snapshot the security ledger, folding still-open exposure windows
    /// up to `now`.
    pub fn exposure_report(&self, now: SimTime) -> ExposureReport {
        let mut byte_us = self.exposed_byte_us.get();
        let mut current = 0u64;
        #[allow(clippy::iter_over_hash_type)] // integer sums: order-free
        for e in self.entries.values() {
            if e.access.remotely_exposed() {
                current += e.len;
                byte_us += byte_us_of(e, now);
            }
        }
        ExposureReport {
            byte_us,
            current_bytes: current,
            exposures: self.exposures.get(),
        }
    }

    /// Probability that a uniformly guessed 32-bit steering tag hits a
    /// live remotely-readable entry (used by the security audit).
    pub fn guess_hit_probability(&self) -> f64 {
        let readable = self
            .entries
            .values()
            .filter(|e| e.access.allows_remote_read())
            .count() as f64;
        let global = if self.global_enabled { 1.0 } else { 0.0 };
        (readable + global) / 2f64.powi(32)
    }
}

/// `e`'s window up to `now` in byte·µs (computed in byte·ns, so only
/// the window's last partial µs is dropped).
fn byte_us_of(e: &TptEntry, now: SimTime) -> u64 {
    let byte_ns = e.len as u128 * now.saturating_since(e.since).as_nanos() as u128;
    (byte_ns / 1_000) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{HostMem, PhysLayout};
    use crate::types::NodeId;

    fn setup() -> (Tpt, Buffer) {
        let mem = HostMem::new(NodeId(0), PhysLayout::default(), SimRng::new(3));
        let buf = mem.alloc(8192);
        (
            Tpt::new(SimRng::new(5), &MetricsRegistry::new(), NodeId(0)),
            buf,
        )
    }

    fn counted(tpt: &Tpt) -> (u64, u64) {
        (tpt.violations.get(), tpt.revocations.get())
    }

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn valid_access_succeeds() {
        let (mut tpt, buf) = setup();
        let rkey = tpt.insert(buf.clone(), buf.addr(), 4096, Access::REMOTE_READ, t(0));
        let (b, off) = tpt
            .check_remote(rkey, buf.addr() + 100, 200, RemoteOp::Read, t(1), |_, _| {
                None
            })
            .unwrap();
        assert_eq!(off, 100);
        assert_eq!(b.addr(), buf.addr());
    }

    #[test]
    fn unknown_rkey_rejected_and_counted() {
        let (mut tpt, _) = setup();
        let err = tpt
            .check_remote(Rkey(0x1234), 0, 1, RemoteOp::Read, t(0), |_, _| None)
            .unwrap_err();
        assert!(matches!(err, VerbsError::RemoteAccess { .. }));
        assert_eq!(counted(&tpt).0, 1);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (mut tpt, buf) = setup();
        let rkey = tpt.insert(buf.clone(), buf.addr(), 4096, Access::REMOTE_READ, t(0));
        assert!(tpt
            .check_remote(
                rkey,
                buf.addr() + 4000,
                200,
                RemoteOp::Read,
                t(0),
                |_, _| None
            )
            .is_err());
        // Below base too.
        assert!(tpt
            .check_remote(
                rkey,
                buf.addr().wrapping_sub(4),
                4,
                RemoteOp::Read,
                t(0),
                |_, _| None
            )
            .is_err());
    }

    #[test]
    fn rights_are_enforced_per_op() {
        let (mut tpt, buf) = setup();
        let r = tpt.insert(buf.clone(), buf.addr(), 4096, Access::REMOTE_WRITE, t(0));
        assert!(tpt
            .check_remote(r, buf.addr(), 4, RemoteOp::Write, t(0), |_, _| None)
            .is_ok());
        assert!(tpt
            .check_remote(r, buf.addr(), 4, RemoteOp::Read, t(0), |_, _| None)
            .is_err());
    }

    #[test]
    fn local_only_regions_never_remotely_accessible() {
        let (mut tpt, buf) = setup();
        let r = tpt.insert(buf.clone(), buf.addr(), 4096, Access::LOCAL, t(0));
        assert!(tpt
            .check_remote(r, buf.addr(), 4, RemoteOp::Read, t(0), |_, _| None)
            .is_err());
        assert!(tpt
            .check_remote(r, buf.addr(), 4, RemoteOp::Write, t(0), |_, _| None)
            .is_err());
        // Local-only registration is not an exposure.
        assert_eq!(tpt.exposure_report(t(0)).current_bytes, 0);
        assert_eq!(tpt.exposure_report(t(0)).exposures, 0);
    }

    #[test]
    fn invalidated_key_stops_working() {
        let (mut tpt, buf) = setup();
        let r = tpt.insert(buf.clone(), buf.addr(), 4096, Access::REMOTE_READ, t(0));
        tpt.invalidate(r, t(10)).unwrap();
        assert!(tpt
            .check_remote(r, buf.addr(), 4, RemoteOp::Read, t(11), |_, _| None)
            .is_err());
    }

    #[test]
    fn exposure_accounting_integrates_bytes_over_time() {
        let (mut tpt, buf) = setup();
        let r = tpt.insert(buf.clone(), buf.addr(), 1000, Access::REMOTE_READ, t(100));
        // Open window at t=600: 1000 bytes * 500ns.
        let rep = tpt.exposure_report(t(600));
        assert_eq!(rep.byte_us, 500);
        assert_eq!(rep.current_bytes, 1000);
        tpt.invalidate(r, t(1100)).unwrap();
        let rep = tpt.exposure_report(t(9999));
        assert_eq!(rep.byte_us, 1_000); // closed at 1000ns duration
        assert_eq!(rep.current_bytes, 0);
        assert_eq!(rep.exposures, 1);
    }

    #[test]
    fn revocation_closes_window_and_counts() {
        let (mut tpt, buf) = setup();
        let r = tpt.insert(buf.clone(), buf.addr(), 1000, Access::REMOTE_READ, t(0));
        let e = tpt.revoke(r, t(500)).expect("live entry revokes");
        assert_eq!(e.len, 1000);
        // The steering tag is dead and the ledger shows one revocation
        // with the exposure window closed at 500ns.
        assert!(tpt
            .check_remote(r, buf.addr(), 4, RemoteOp::Read, t(501), |_, _| None)
            .is_err());
        let rep = tpt.exposure_report(t(9999));
        assert_eq!(counted(&tpt).1, 1);
        assert_eq!(rep.byte_us, 500);
        assert_eq!(rep.current_bytes, 0);
        // Revoking an already-dead tag is a no-op, not a double count.
        assert!(tpt.revoke(r, t(600)).is_none());
        assert_eq!(counted(&tpt).1, 1);
    }

    #[test]
    fn ledger_counts_are_shared_registry_series() {
        let registry = MetricsRegistry::new();
        let mem = HostMem::new(NodeId(0), PhysLayout::default(), SimRng::new(3));
        let buf = mem.alloc(64);
        let mut a = Tpt::new(SimRng::new(5), &registry, NodeId(0));
        let mut b = Tpt::new(SimRng::new(6), &registry, NodeId(1));
        let r = a.insert(buf.clone(), buf.addr(), 64, Access::REMOTE_READ, t(0));
        let _ = b.check_remote(Rkey(1), buf.addr(), 4, RemoteOp::Read, t(1), |_, _| None);
        a.revoke(r, t(2_000)).unwrap();
        b.note_revocation();
        assert_eq!(registry.get("tpt.violations"), Some(1));
        assert_eq!(registry.get("tpt.revocations"), Some(2));
        // Exposure is each node's own: 64 bytes for 2 µs on node 0.
        assert_eq!(registry.get("tpt.node0.exposed_byte_us"), Some(128));
        assert_eq!(registry.get("tpt.node1.exposed_byte_us"), Some(0));
    }

    #[test]
    fn global_rkey_reaches_any_mapped_buffer() {
        let mem = HostMem::new(NodeId(0), PhysLayout::default(), SimRng::new(3));
        let buf = mem.alloc(4096);
        let mut tpt = Tpt::new(SimRng::new(5), &MetricsRegistry::new(), NodeId(0));
        let g = tpt.enable_global_rkey();
        let buf2 = buf.clone();
        let (b, off) = tpt
            .check_remote(g, buf.addr() + 8, 16, RemoteOp::Read, t(0), move |a, l| {
                buf2.contains(a, l).then_some(buf2.clone())
            })
            .unwrap();
        assert_eq!(off, 8);
        assert_eq!(b.addr(), buf.addr());
        // Unmapped address fails even with the global key.
        assert!(tpt
            .check_remote(g, 0x42, 16, RemoteOp::Read, t(0), |_, _| None)
            .is_err());
    }

    #[test]
    fn global_rkey_disabled_by_default() {
        let (mut tpt, buf) = setup();
        // Guessing the (disabled) global key value must fail.
        let g = Rkey(tpt.global_rkey.0);
        assert!(tpt.global_rkey().is_none());
        let b2 = buf.clone();
        assert!(tpt
            .check_remote(g, buf.addr(), 4, RemoteOp::Read, t(0), move |a, l| b2
                .contains(a, l)
                .then_some(b2.clone()))
            .is_err());
    }

    #[test]
    fn guess_probability_scales_with_entries() {
        let (mut tpt, buf) = setup();
        assert_eq!(tpt.guess_hit_probability(), 0.0);
        let _r1 = tpt.insert(buf.clone(), buf.addr(), 128, Access::REMOTE_READ, t(0));
        let _r2 = tpt.insert(
            buf.clone(),
            buf.addr() + 128,
            128,
            Access::REMOTE_READ,
            t(0),
        );
        let _rw = tpt.insert(
            buf.clone(),
            buf.addr() + 256,
            128,
            Access::REMOTE_WRITE,
            t(0),
        );
        let p = tpt.guess_hit_probability();
        assert!((p - 2.0 / 2f64.powi(32)).abs() < 1e-18);
    }

    #[test]
    fn steering_tags_are_unpredictable_across_rng_streams() {
        let (mut t1, buf) = setup();
        let mut t2 = Tpt::new(SimRng::new(999), &MetricsRegistry::new(), NodeId(0));
        let a = t1.insert(buf.clone(), buf.addr(), 64, Access::REMOTE_READ, t(0));
        let b = t2.insert(buf.clone(), buf.addr(), 64, Access::REMOTE_READ, t(0));
        assert_ne!(a, b);
    }
}
