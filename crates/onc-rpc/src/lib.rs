//! # onc-rpc — ONC Remote Procedure Call (RFC 1831 subset)
//!
//! The RPC layer NFS rides on: call/reply message formats with XID
//! matching ([`msg`]), a transport-agnostic service interface
//! ([`service`]) and the record-marked stream transport
//! ([`stream_transport`]) used for the NFS/TCP baselines. The RDMA
//! transport — the paper's subject — lives in the `rpcrdma` crate and
//! plugs into the same [`BulkService`] interface.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hash order differs per map instance: walking it diverges same-seed runs (DESIGN.md §3).
#![deny(clippy::iter_over_hash_type)]

pub mod drc;
pub mod msg;
pub mod service;
pub mod stream_transport;

pub use drc::{DrcKey, DrcOutcome, DrcReservation, DuplicateRequestCache};
pub use msg::{
    AcceptStat, CallHeader, ReplyHeader, CALL_HEADER_LEN, REPLY_HEADER_LEN, RPC_VERSION,
};
pub use service::{
    BulkDispatch, BulkService, BulkServiceRef, CallContext, LocalBoxFuture, ServiceRegistry,
    PROG_WILDCARD,
};
pub use stream_transport::{
    serve_stream_bulk_connection, RpcError, StreamRpcClient, TransportError,
};
