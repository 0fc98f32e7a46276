//! # rpcrdma — the paper's contribution: RPC over RDMA for NFS
//!
//! A full implementation of the RPC/RDMA transport of *"Designing NFS
//! with RDMA for Security, Performance and Scalability"* (ICPP 2007):
//!
//! * the RPC/RDMA header and chunk lists (Figure 2) — [`header`];
//! * both bulk-transfer designs (Figure 3): the original **Read-Read**
//!   and the paper's **Read-Write** — [`client`], [`server`];
//! * all four registration strategies of §4.3: dynamic, FMR with
//!   fall-back, the buffer registration cache, and all-physical —
//!   [`reg`];
//! * credit-based flow control, long calls/replies, `RDMA_DONE`
//!   lifecycle, and the zero-copy direct-I/O client read path.
//!
//! Security properties are enforced by the `ib-verbs` substrate: the
//! Read-Write design never places server steering tags on the wire,
//! which the security tests and the `security_audit` example verify.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hash order differs per map instance: walking it diverges same-seed runs (DESIGN.md §3).
#![deny(clippy::iter_over_hash_type)]

pub mod client;
pub mod config;
mod endpoint;
pub mod header;
pub mod qos;
pub mod reg;
pub mod repl;
pub mod router;
pub mod sanitize;
pub mod server;

pub use client::{BulkParams, CallReply, ClientStats, RdmaRpcClient};
pub use config::{Design, RpcRdmaConfig};
pub use header::{
    MsgType, RdmaHeader, ReadChunk, Segment, MAX_WIRE_CHUNKS, MAX_WIRE_SEGMENTS, RPCRDMA_VERSION,
};
pub use qos::{ShedReason, TenantScheduler};
pub use reg::{IoBuf, RegCache, Registrar, StrategyKind};
pub use repl::{CtrlTarget, CtrlWriter, LogRing, ReplError, RingTarget, Shipper, RING_SENTINEL};
pub use sanitize::{sanitize_header, sanitize_wire, ProtocolViolation};
pub use server::{RdmaRpcServer, ServerStats};
