//! Always-on flight recorder: a fixed-capacity ring of recent
//! protocol-level events.
//!
//! Unlike span tracing (off by default, drained wholesale), the flight
//! recorder is **always armed**: instrumented code calls
//! [`crate::Sim::flight`] unconditionally, and the ring keeps the last
//! `capacity` records, overwriting the oldest. Harnesses dump the ring
//! to `results/` when a gate fails or state is found corrupted — the
//! deterministic sim-time equivalent of a black box, replacing ad-hoc
//! env-var trace dumps.
//!
//! The design constraints, in order:
//!
//! 1. **Zero steady-state allocation** — records are plain-old-data
//!    (`Copy`, `&'static str` labels, two `u64` operands) written into
//!    a buffer preallocated at construction. `tests/zero_alloc.rs`
//!    pins this.
//! 2. **No schedule perturbation** — recording touches no timer, RNG,
//!    or task state, so the golden-schedule hash and every seeded
//!    result are identical with and without call sites.
//! 3. **Deterministic contents** — records are stamped with virtual
//!    time and the recording task; same seed, same ring.

use std::cell::{Cell, RefCell};

use crate::time::SimTime;

/// Default ring capacity: enough to hold the full protocol history of
/// a failover window without ever reallocating.
pub const FLIGHT_CAPACITY: usize = 1024;

/// One flight-recorder entry. Plain old data: recording one is two
/// pointer copies and four integer stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Virtual time the event was recorded.
    pub at: SimTime,
    /// Executor task that recorded it (`u64::MAX` outside any task).
    pub task: u64,
    /// Component that recorded it ("cluster", "repl", "server", ...).
    pub component: &'static str,
    /// Event name ("kill", "promote", "marker_ack", ...).
    pub event: &'static str,
    /// First event-specific operand (seq, xid, node id, ...).
    pub a: u64,
    /// Second event-specific operand.
    pub b: u64,
}

/// The ring itself. Owned by the executor core; reached through
/// [`crate::Sim::flight`] and [`crate::Simulation::flight_records`].
pub(crate) struct FlightRing {
    /// Preallocated storage; grows by `push` (never reallocating)
    /// until `capacity`, then wraps.
    buf: RefCell<Vec<FlightRecord>>,
    capacity: usize,
    /// Records ever written; `total % capacity` is the next overwrite
    /// slot once the buffer is full.
    total: Cell<u64>,
}

impl FlightRing {
    pub(crate) fn new(capacity: usize) -> FlightRing {
        FlightRing {
            buf: RefCell::new(Vec::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            total: Cell::new(0),
        }
    }

    /// Append one record, overwriting the oldest once full. Never
    /// allocates: the buffer's capacity was reserved at construction.
    pub(crate) fn record(&self, rec: FlightRecord) {
        let mut buf = self.buf.borrow_mut();
        let total = self.total.get();
        if buf.len() < self.capacity {
            buf.push(rec);
        } else {
            buf[(total % self.capacity as u64) as usize] = rec;
        }
        self.total.set(total + 1);
    }

    /// The ring's contents in chronological order (oldest surviving
    /// record first). Allocates — dump-time only.
    pub(crate) fn snapshot(&self) -> Vec<FlightRecord> {
        let buf = self.buf.borrow();
        if buf.len() < self.capacity {
            return buf.clone();
        }
        let head = (self.total.get() % self.capacity as u64) as usize;
        let mut out = Vec::with_capacity(buf.len());
        out.extend_from_slice(&buf[head..]);
        out.extend_from_slice(&buf[..head]);
        out
    }
}

/// Render a flight-recorder snapshot in the dump format harnesses
/// write to `results/` (one record per line, same shape as the old
/// `FAILOVER_TRACE` stream):
///
/// ```text
///         1500000ns [cluster] kill_primary a=0 b=0
/// ```
pub fn format_flight(records: &[FlightRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{:>12}ns [{}] {} a={} b={}\n",
            r.at.as_nanos(),
            r.component,
            r.event,
            r.a,
            r.b
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, a: u64) -> FlightRecord {
        FlightRecord {
            at: SimTime::from_nanos(at),
            task: 1,
            component: "test",
            event: "ev",
            a,
            b: 0,
        }
    }

    #[test]
    fn ring_wraps_and_overwrites_oldest() {
        let ring = FlightRing::new(4);
        for i in 0..3 {
            ring.record(rec(i, i));
        }
        // Not yet full: everything survives, in order.
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.iter().map(|r| r.a).collect::<Vec<_>>(), [0, 1, 2]);
        // Fill and wrap: 7 records through a 4-slot ring keep the last 4.
        for i in 3..7 {
            ring.record(rec(i, i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.iter().map(|r| r.a).collect::<Vec<_>>(), [3, 4, 5, 6]);
        // Chronological: timestamps never decrease across the seam.
        assert!(snap.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn format_is_one_line_per_record() {
        let ring = FlightRing::new(2);
        ring.record(rec(1_500_000, 9));
        let s = format_flight(&ring.snapshot());
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("1500000ns [test] ev a=9 b=0"));
    }
}
