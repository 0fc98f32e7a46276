//! # net-stack — the TCP-style baseline transport
//!
//! The paper compares NFS/RDMA against regular NFS over TCP on two
//! physical networks: **IPoIB** (TCP over the InfiniBand link) and
//! **Gigabit Ethernet**. This crate models that stack: a reliable byte
//! stream whose *CPU* costs — per-byte copies and checksums, per-segment
//! protocol processing, interrupts — ride on the host CPU resource,
//! while segments ride the same cut-through fabric model as RDMA
//! traffic.
//!
//! The defining difference from the verbs path: every byte crosses each
//! host's CPU (copy + checksum), so TCP throughput is CPU-bound long
//! before the IB wire saturates (the ≈360 MB/s IPoIB ceiling of
//! Figure 10), while GigE is wire-bound at ≈118 MB/s.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hash order differs per map instance: walking it diverges same-seed runs (DESIGN.md §3).
#![deny(clippy::iter_over_hash_type)]

pub mod stream;
pub mod tcp;

pub use stream::TcpStream;
pub use tcp::{TcpConfig, TcpNet};
