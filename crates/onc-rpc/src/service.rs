//! The service interface an RPC program exposes to transports.
//!
//! One implementation (the NFS server) is reachable over both the
//! stream transport in this crate and the RPC/RDMA transport in the
//! `rpcrdma` crate — mirroring how a kernel RPC program is transport
//! agnostic.

use sim_core::FxMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;

use crate::msg::AcceptStat;

/// Single-threaded boxed future (the simulator is `!Send` by design).
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T> + 'static>>;

/// Context a transport provides with each call.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallContext {
    /// Fabric node the call arrived from (0 if unknown).
    pub peer: u32,
    /// RPC program number from the call header.
    pub prog: u32,
    /// RPC program version from the call header.
    pub vers: u32,
    /// Transaction id from the call header (0 if unknown). Services
    /// that replicate execution (primary/backup NFS) ship it with each
    /// record so the backup can mirror the duplicate-request window.
    pub xid: u32,
    /// Trace context of the caller's service span
    /// ([`sim_core::TraceCtx::NONE`] when span tracing is off):
    /// services stamp it on replication records so the whole causal
    /// tree — client call through backup apply — shares one trace id.
    pub trace: sim_core::TraceCtx,
}

/// Sentinel program number: a [`BulkService`] returning this from
/// `program()` accepts calls for any program (it dispatches internally
/// by `cx.prog`, like a portmapped RPC server).
pub const PROG_WILDCARD: u32 = u32::MAX;

/// Routes calls to multiple RPC programs sharing one transport
/// endpoint (e.g. NFS + MOUNT on the same connection).
pub struct ServiceRegistry {
    services: FxMap<(u32, u32), BulkServiceRef>,
}

impl ServiceRegistry {
    /// Empty registry.
    pub fn new() -> ServiceRegistry {
        ServiceRegistry {
            services: FxMap::default(),
        }
    }

    /// Register a program implementation.
    pub fn register(mut self, svc: BulkServiceRef) -> Self {
        let key = (svc.program(), svc.version());
        let prev = self.services.insert(key, svc);
        assert!(prev.is_none(), "program {key:?} registered twice");
        self
    }

    /// Finish into a dispatchable service.
    pub fn into_service(self) -> BulkServiceRef {
        Rc::new(self)
    }
}

impl Default for ServiceRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl BulkService for ServiceRegistry {
    fn program(&self) -> u32 {
        PROG_WILDCARD
    }
    fn version(&self) -> u32 {
        0
    }
    fn call(
        &self,
        cx: CallContext,
        proc_num: u32,
        args: Bytes,
        bulk_in: Option<sim_core::SgList>,
    ) -> LocalBoxFuture<BulkDispatch> {
        match self.services.get(&(cx.prog, cx.vers)) {
            Some(svc) => svc.call(cx, proc_num, args, bulk_in),
            None => Box::pin(async { BulkDispatch::error(AcceptStat::ProgUnavail) }),
        }
    }
}

/// Result of a bulk-aware dispatch: an XDR head plus optional bulk
/// payload that transports move by their own best means (chunks over
/// RDMA, a trailing segment over streams). The bulk output is a
/// scatter/gather list so a server can hand out pagecache slices
/// without flattening them — the RDMA transport gathers the pieces
/// on the wire, the stream transport concatenates lazily. `Clone` is
/// cheap (refcounted bytes) and lets the duplicate request cache
/// replay a retained reply.
#[derive(Clone)]
pub struct BulkDispatch {
    /// Accept status for the reply header.
    pub stat: AcceptStat,
    /// Encoded result head (without the bulk data).
    pub head: Bytes,
    /// Bulk result data (e.g. NFS READ data), as zero-copy pieces.
    pub bulk_out: Option<sim_core::SgList>,
    /// Trace context of the execution that produced this dispatch
    /// ([`sim_core::TraceCtx::NONE`] when span tracing is off). Riding
    /// here means the duplicate request cache retains it with the
    /// reply, so a replay — even one served across a failover epoch —
    /// links back to the original execution's causal tree.
    pub trace: sim_core::TraceCtx,
}

impl BulkDispatch {
    /// Successful dispatch.
    pub fn success(head: Bytes, bulk_out: Option<sim_core::SgList>) -> Self {
        BulkDispatch {
            stat: AcceptStat::Success,
            head,
            bulk_out,
            trace: sim_core::TraceCtx::NONE,
        }
    }

    /// Successful dispatch with a flat bulk payload (convenience for
    /// callers that do not scatter/gather).
    pub fn success_flat(head: Bytes, bulk_out: Option<sim_core::Payload>) -> Self {
        Self::success(head, bulk_out.map(sim_core::SgList::from))
    }

    /// Failed dispatch with no body.
    pub fn error(stat: AcceptStat) -> Self {
        BulkDispatch {
            stat,
            head: Bytes::new(),
            bulk_out: None,
            trace: sim_core::TraceCtx::NONE,
        }
    }
}

/// A bulk-aware RPC program: receives argument heads plus out-of-band
/// bulk input (NFS WRITE data) and returns result heads plus bulk
/// output (NFS READ data). Both the RPC/RDMA transport and the stream
/// transport dispatch to this. The bulk input is a scatter/gather list
/// for the same reason the bulk output is: the RDMA transport pulls
/// WRITE chunks as separate pieces, and handing them to the service
/// unflattened is what lets the file system place each piece in its
/// page cache without a pull-up copy (receive-side scatter).
pub trait BulkService {
    /// Program number served.
    fn program(&self) -> u32;
    /// Version served.
    fn version(&self) -> u32;
    /// Execute one call.
    fn call(
        &self,
        cx: CallContext,
        proc_num: u32,
        args: Bytes,
        bulk_in: Option<sim_core::SgList>,
    ) -> LocalBoxFuture<BulkDispatch>;
}

/// Shared handle to a bulk-aware service.
pub type BulkServiceRef = Rc<dyn BulkService>;
