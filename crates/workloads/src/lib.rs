//! # workloads — the paper's benchmark drivers and testbeds
//!
//! Assembles complete testbeds (server, clients, fabric, file system)
//! from one [`Bed`] description — a calibrated [`profiles`] entry plus
//! strategies, storage, client count and topology: the single-server
//! RDMA bed, the replicated primary/backup pair, or TCP over IPoIB or
//! GigE ([`testbed`]) — and drives them with the paper's three
//! workloads:
//!
//! * [`iozone`] — multithreaded sequential read/write bandwidth with
//!   direct I/O (Figures 5, 6, 7, 9);
//! * [`oltp`] — the FileBench OLTP personality at 128 KiB mean I/O
//!   (Figure 8);
//! * [`multiclient`] — N clients against the RAID-backed server
//!   (Figure 10).
//!
//! Beside them, four harnesses put the same testbeds under faults and
//! load the paper never applied, all through the one run shape of
//! [`scenario`] (`run` → [`Run`]: the typed outcome plus metrics
//! registry, flight ring and spans). Each takes the [`Bed`] it runs on
//! and parameters that describe only its workload:
//!
//! * [`chaos`] — drops, jitter, forced QP errors and a storage
//!   power-fail under a verified write/read-back workload;
//! * [`adversary`] — hostile clients running the attack catalog beside
//!   honest ones;
//! * [`failover`] — the replicated two-node cluster ([`cluster`]) under
//!   a seeded primary kill and rejoin;
//! * [`openloop`] — open-loop arrival-rate load with per-tenant skew
//!   (overload, QoS and the composition floor).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod chaos;
pub mod cluster;
pub mod failover;
pub mod iozone;
pub mod multiclient;
pub mod oltp;
pub mod openloop;
pub mod profiles;
pub mod scenario;
pub mod testbed;

pub use adversary::{run_adversary, AdversaryParams, AdversaryResult};
pub use chaos::{run_chaos, ChaosParams, ChaosResult};
pub use cluster::{Cluster, ClusterConfig};
pub use failover::{failover_bed, run_failover, FailoverParams, FailoverResult};
pub use iozone::{run_iozone, IoMode, IozoneParams, IozoneResult};
pub use multiclient::{raid_bed, run_multiclient, MultiClientResult};
pub use oltp::{run_oltp, OltpParams, OltpResult};
pub use openloop::{run_openloop, Arrival, OpMix, OpenLoopParams, OpenLoopResult};
pub use profiles::{linux_ddr_raid, linux_sdr, solaris_sdr, Profile};
pub use scenario::{Capture, Run, Timeline, TIMELINE_BUCKET_US};
pub use testbed::{
    build_rdma, Backend, Bed, ClientHost, ServerNode, Testbed, Topology, OS_RESERVE,
};
