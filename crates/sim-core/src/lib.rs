//! # sim-core — deterministic discrete-event simulation runtime
//!
//! The foundation of the `nfs-rdma-rs` workspace: a single-threaded,
//! virtual-time async executor plus the synchronization and resource
//! primitives needed to model a storage/networking testbed —
//! FIFO-contended hardware units ([`Resource`]), links with bandwidth
//! and latency ([`Link`]), CPUs with copy/interrupt cost accounting
//! ([`Cpu`]), channels, semaphores and completions ([`sync`]).
//!
//! Design goals, in order:
//!
//! 1. **Determinism** — identical seeds yield identical event orders and
//!    identical virtual-time results on every platform. This is what
//!    makes each reproduced figure a regression test.
//! 2. **Blocking fidelity** — the modelled kernel code blocks (an NFS
//!    server thread waits on an RDMA Read completion); simulation
//!    processes are `async fn`s that genuinely suspend.
//! 3. **Emergent contention** — throughput limits arise from resource
//!    occupancy (wire time, TPT transactions, CPU copies), never from
//!    hard-coded caps.
//!
//! Parallelism is used *between* simulations: [`sweep::parallel_sweep`]
//! runs independent parameter points on OS threads.
//!
//! ## Example
//!
//! ```
//! use sim_core::{Simulation, SimDuration, Resource};
//!
//! let mut sim = Simulation::new(42);
//! let h = sim.handle();
//! let bus = Resource::new(&h, "io-bus", 1);
//! let b2 = bus.clone();
//! let t = sim.block_on(async move {
//!     b2.use_for(SimDuration::from_micros(10)).await;
//!     h.now()
//! });
//! assert_eq!(t.as_nanos(), 10_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hash order differs per map instance: walking it diverges same-seed runs (DESIGN.md §3).
#![deny(clippy::iter_over_hash_type)]

pub mod cpu;
pub mod executor;
pub mod extent;
pub mod flight;
pub mod hash;
pub mod metrics;
pub mod payload;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod sync;
pub mod time;
mod timers;
pub mod trace;
pub mod wake;

pub use cpu::{Cpu, CpuCosts};
pub use executor::{join, yield_now, Sim, Simulation, Span, Timeout};
pub use extent::ExtentMap;
pub use flight::{format_flight, FlightRecord, FLIGHT_CAPACITY};
pub use hash::{FxMap, FxSet};
pub use metrics::MetricsRegistry;
pub use payload::{Payload, SgList};
pub use resource::{Link, Resource, UseFor};
pub use rng::SimRng;
pub use stats::{Counter, Gauge, Histogram};
pub use time::{transfer_time, SimDuration, SimTime};
pub use trace::{
    aggregate_phases, chrome_trace_json, validate_json, PhaseStats, SpanRecord, TraceCtx,
};
pub use wake::{poll_not_last, WakeSlot};

/// The entries of a hash map, in key order. A `HashMap` yields them in
/// its hasher's order, which differs between two maps in one process:
/// wherever the order decides which task wakes or which TPT operation
/// runs first, walk `key_order(map.drain())` instead.
pub fn key_order<K: Ord, V>(entries: impl IntoIterator<Item = (K, V)>) -> Vec<(K, V)> {
    let mut entries: Vec<(K, V)> = entries.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    entries
}
