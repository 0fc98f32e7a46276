//! RPC over a byte stream (TCP), with record marking.
//!
//! This is the baseline transport the paper compares against: every
//! call and reply crosses both host CPUs byte-by-byte inside
//! `net-stack`'s cost model. Multiple in-flight calls share one
//! connection; replies match by XID.
//!
//! ### Record format
//!
//! RFC 1831 frames each message with a 4-byte record mark. We add a
//! 4-byte head length so bulk data (NFS READ/WRITE payloads) can ride
//! behind the XDR head as a distinct byte range:
//!
//! ```text
//! [ mark: LAST|total ][ head_len ][ XDR head ][ bulk bytes ... ]
//! ```
//!
//! On the wire this is byte-for-byte the same size as inlining the
//! data in the XDR body (an opaque's bytes are contiguous anyway), and
//! all the per-byte CPU costs are charged identically — but it lets
//! the simulation keep synthetic payloads compact end to end instead
//! of materializing gigabytes of pattern bytes.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use net_stack::TcpStream;
use sim_core::sync::{oneshot, OneshotSender, Semaphore};
use sim_core::{Payload, Sim};

use crate::msg::{
    decode_call, decode_reply, encode_call, encode_reply, AcceptStat, CallHeader, ReplyHeader,
};
use crate::service::{BulkServiceRef, CallContext};

/// Transport-level failures, distinct from RPC-protocol rejections:
/// these describe what happened to the *wire*, and every one of them is
/// recoverable by retransmission or reconnection rather than a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The call exhausted its retransmission budget without a reply.
    TimedOut {
        /// XID of the abandoned call.
        xid: u32,
        /// Send attempts made (1 original + retransmissions).
        attempts: u32,
    },
    /// The server shed the call (SYSTEM_ERR busy replies) more times
    /// than the retry budget allows: it is overloaded and backing off
    /// further is the caller's problem. Distinct from [`TimedOut`]
    /// (no reply at all) — here the server answered every attempt,
    /// with "go away".
    ///
    /// [`TimedOut`]: TransportError::TimedOut
    Overloaded {
        /// XID of the abandoned call.
        xid: u32,
        /// Busy replies received before giving up.
        rejections: u32,
    },
    /// Two in-flight operations claimed the same work-request id — a
    /// transport-state corruption that used to abort the process.
    DuplicateWaiter(u64),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::TimedOut { xid, attempts } => {
                write!(f, "call xid={xid} timed out after {attempts} attempts")
            }
            TransportError::Overloaded { xid, rejections } => {
                write!(f, "call xid={xid} shed by server {rejections} times")
            }
            TransportError::DuplicateWaiter(wr) => {
                write!(f, "duplicate completion waiter for wr_id {wr}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Errors surfaced by the stream transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// Connection torn down before the reply arrived.
    Disconnected,
    /// The server rejected the call.
    Rejected(AcceptStat),
    /// Reply failed to decode.
    BadReply,
    /// Transport gave up (timeout, state corruption).
    Transport(TransportError),
}

impl From<TransportError> for RpcError {
    fn from(e: TransportError) -> Self {
        RpcError::Transport(e)
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Disconnected => write!(f, "transport disconnected"),
            RpcError::Rejected(s) => write!(f, "call rejected: {s:?}"),
            RpcError::BadReply => write!(f, "malformed reply"),
            RpcError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for RpcError {}

const LAST_FRAGMENT: u32 = 0x8000_0000;

/// Write one record: XDR head plus optional trailing bulk payload.
async fn write_record(stream: &TcpStream, head: Bytes, bulk: &Payload) {
    let total = 4 + head.len() as u64 + bulk.len();
    let mark = LAST_FRAGMENT | total as u32;
    let mut framed = Vec::with_capacity(8 + head.len());
    framed.extend_from_slice(&mark.to_be_bytes());
    framed.extend_from_slice(&(head.len() as u32).to_be_bytes());
    framed.extend_from_slice(&head);
    stream.send(Payload::real(framed)).await;
    if !bulk.is_empty() {
        stream.send(bulk.clone()).await;
    }
}

/// Read one record: returns the XDR head and the trailing bulk.
async fn read_record(stream: &TcpStream) -> (Bytes, Payload) {
    let mark_raw = stream.recv_exact(4).await.materialize();
    let mark = u32::from_be_bytes([mark_raw[0], mark_raw[1], mark_raw[2], mark_raw[3]]);
    debug_assert!(mark & LAST_FRAGMENT != 0, "multi-fragment records unused");
    let total = (mark & !LAST_FRAGMENT) as u64;
    let hl_raw = stream.recv_exact(4).await.materialize();
    let head_len = u32::from_be_bytes([hl_raw[0], hl_raw[1], hl_raw[2], hl_raw[3]]) as u64;
    let head = stream.recv_exact(head_len).await.materialize();
    let bulk_len = total - 4 - head_len;
    let bulk = stream.recv_exact(bulk_len).await;
    (head, bulk)
}

type PendingReply = Result<(ReplyHeader, Bytes, Payload), RpcError>;

/// Client endpoint of RPC-over-stream.
pub struct StreamRpcClient {
    stream: Rc<TcpStream>,
    prog: u32,
    vers: u32,
    next_xid: Cell<u32>,
    pending: Rc<RefCell<HashMap<u32, OneshotSender<PendingReply>>>>,
    send_lock: Semaphore,
}

impl StreamRpcClient {
    /// Wrap an established stream and start the reply reader.
    pub fn new(sim: &Sim, stream: TcpStream, prog: u32, vers: u32) -> Rc<StreamRpcClient> {
        let client = Rc::new(StreamRpcClient {
            stream: Rc::new(stream),
            prog,
            vers,
            next_xid: Cell::new(1),
            pending: Rc::new(RefCell::new(HashMap::new())),
            send_lock: Semaphore::new(1),
        });
        let stream = client.stream.clone();
        let pending = client.pending.clone();
        sim.spawn(async move {
            loop {
                let (head, bulk) = read_record(&stream).await;
                match decode_reply(head) {
                    Ok((hdr, body)) => {
                        if let Some(tx) = pending.borrow_mut().remove(&hdr.xid) {
                            tx.send(Ok((hdr, body, bulk)));
                        }
                    }
                    Err(_) => {
                        // Malformed reply: the connection is
                        // unsynchronized beyond repair; fail everyone.
                        for (_, tx) in sim_core::key_order(pending.borrow_mut().drain()) {
                            tx.send(Err(RpcError::BadReply));
                        }
                        return;
                    }
                }
            }
        });
        client
    }

    /// Issue a call with optional trailing bulk data; returns the
    /// reply body and any trailing bulk from the server.
    pub async fn call_bulk(
        &self,
        proc_num: u32,
        args: Bytes,
        bulk: Option<Payload>,
    ) -> Result<(Bytes, Payload), RpcError> {
        self.call_as(self.prog, self.vers, proc_num, args, bulk)
            .await
    }

    /// Issue a call for an explicit `(prog, vers)` — for connections
    /// shared by several programs behind a
    /// [`crate::service::ServiceRegistry`].
    pub async fn call_as(
        &self,
        prog: u32,
        vers: u32,
        proc_num: u32,
        args: Bytes,
        bulk: Option<Payload>,
    ) -> Result<(Bytes, Payload), RpcError> {
        let xid = self.next_xid.get();
        self.next_xid.set(xid.wrapping_add(1));
        let hdr = CallHeader {
            xid,
            prog,
            vers,
            proc_num,
        };
        let msg = encode_call(&hdr, &args);
        let (tx, rx) = oneshot();
        self.pending.borrow_mut().insert(xid, tx);
        {
            // Records must not interleave on the stream.
            let _guard = self.send_lock.acquire().await;
            write_record(&self.stream, msg, &bulk.unwrap_or_else(Payload::empty)).await;
        }
        let (rhdr, body, rbulk) = rx.await.map_err(|_| RpcError::Disconnected)??;
        match rhdr.stat {
            AcceptStat::Success => Ok((body, rbulk)),
            other => Err(RpcError::Rejected(other)),
        }
    }

    /// Issue one call and await its matched reply body (no bulk).
    pub async fn call(&self, proc_num: u32, args: Bytes) -> Result<Bytes, RpcError> {
        let (body, _bulk) = self.call_bulk(proc_num, args, None).await?;
        Ok(body)
    }

    /// Calls currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.pending.borrow().len()
    }
}

/// Serve one accepted connection with a bulk-aware service: trailing
/// request bulk becomes `bulk_in`; result bulk rides behind the reply.
pub async fn serve_stream_bulk_connection(sim: Sim, stream: TcpStream, service: BulkServiceRef) {
    let stream = Rc::new(stream);
    let send_lock = Semaphore::new(1);
    let peer = stream.remote().0;
    loop {
        let (head, bulk) = read_record(&stream).await;
        let (hdr, args) = match decode_call(head) {
            Ok(x) => x,
            Err(_) => return,
        };
        let service = service.clone();
        let stream2 = stream.clone();
        let send_lock = send_lock.clone();
        sim.spawn(async move {
            let bulk_in = (!bulk.is_empty()).then(|| sim_core::SgList::from(bulk));
            let cx = CallContext {
                peer,
                prog: hdr.prog,
                vers: hdr.vers,
                xid: hdr.xid,
                trace: sim_core::TraceCtx::NONE,
            };
            let wildcard = service.program() == crate::service::PROG_WILDCARD;
            let result =
                if !wildcard && (hdr.prog != service.program() || hdr.vers != service.version()) {
                    crate::service::BulkDispatch::error(AcceptStat::ProgUnavail)
                } else {
                    service.call(cx, hdr.proc_num, args, bulk_in).await
                };
            let reply = encode_reply(
                &ReplyHeader {
                    xid: hdr.xid,
                    stat: result.stat,
                },
                &result.head,
            );
            let _guard = send_lock.acquire().await;
            // Streams carry the bulk as one trailing segment; collapse
            // the scatter/gather list lazily (a single cached piece
            // passes through without copying).
            let bulk_out = result
                .bulk_out
                .map(|sg| sg.to_payload())
                .unwrap_or_else(Payload::empty);
            write_record(&stream2, reply, &bulk_out).await;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{BulkDispatch, BulkService, LocalBoxFuture};
    use ib_verbs::types::NodeId;
    use net_stack::{TcpConfig, TcpNet};
    use sim_core::{Cpu, CpuCosts, Simulation};

    /// A plain program: a bulk service that is never handed bulk.
    struct Adder;
    impl BulkService for Adder {
        fn program(&self) -> u32 {
            300
        }
        fn version(&self) -> u32 {
            1
        }
        fn call(
            &self,
            _cx: CallContext,
            proc_num: u32,
            args: Bytes,
            bulk_in: Option<sim_core::SgList>,
        ) -> LocalBoxFuture<BulkDispatch> {
            Box::pin(async move {
                assert!(bulk_in.is_none(), "a call without bulk is a plain call");
                if proc_num != 1 {
                    return BulkDispatch::error(AcceptStat::ProcUnavail);
                }
                let mut dec = xdr::Decoder::new(&args);
                let a = dec.get_u32().unwrap_or(0);
                let b = dec.get_u32().unwrap_or(0);
                let mut enc = xdr::Encoder::new();
                enc.put_u32(a + b);
                BulkDispatch::success(enc.finish(), None)
            })
        }
    }

    fn net(sim: &Simulation) -> TcpNet {
        let h = sim.handle();
        let net = TcpNet::new(&h, TcpConfig::gige());
        net.attach(NodeId(0), Cpu::new(&h, "c0", 2, CpuCosts::default()));
        net.attach(NodeId(1), Cpu::new(&h, "c1", 2, CpuCosts::default()));
        net
    }

    #[test]
    fn rpc_roundtrip_over_stream() {
        let mut sim = Simulation::new(1);
        let net = net(&sim);
        let h = sim.handle();
        let mut listener = net.listen(NodeId(1), 2049);
        let h2 = h.clone();
        sim.spawn(async move {
            let conn = listener.accept().await;
            let svc: BulkServiceRef = Rc::new(Adder);
            serve_stream_bulk_connection(h2.clone(), conn, svc).await;
        });
        let net2 = net.clone();
        let sum = sim.block_on(async move {
            let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
            let client = StreamRpcClient::new(&h, stream, 300, 1);
            let mut enc = xdr::Encoder::new();
            enc.put_u32(19).put_u32(23);
            let body = client.call(1, enc.finish()).await.unwrap();
            xdr::Decoder::new(&body).get_u32().unwrap()
        });
        assert_eq!(sum, 42);
    }

    #[test]
    fn concurrent_calls_match_by_xid() {
        let mut sim = Simulation::new(1);
        let net = net(&sim);
        let h = sim.handle();
        let mut listener = net.listen(NodeId(1), 2049);
        let h2 = h.clone();
        sim.spawn(async move {
            let conn = listener.accept().await;
            serve_stream_bulk_connection(h2.clone(), conn, Rc::new(Adder) as BulkServiceRef).await;
        });
        let net2 = net.clone();
        let results = sim.block_on(async move {
            let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
            let client = StreamRpcClient::new(&h, stream, 300, 1);
            let client = Rc::new(client);
            let out: Rc<RefCell<Vec<(u32, u32)>>> = Rc::new(RefCell::new(Vec::new()));
            let done = Semaphore::new(0);
            for i in 0..10u32 {
                let client = client.clone();
                let out = out.clone();
                let done = done.clone();
                h.spawn(async move {
                    let mut enc = xdr::Encoder::new();
                    enc.put_u32(i).put_u32(i * 100);
                    let body = client.call(1, enc.finish()).await.unwrap();
                    let v = xdr::Decoder::new(&body).get_u32().unwrap();
                    out.borrow_mut().push((i, v));
                    done.add_permits(1);
                });
            }
            for _ in 0..10 {
                done.acquire().await.forget();
            }
            let v = out.borrow().clone();
            v
        });
        assert_eq!(results.len(), 10);
        for (i, v) in results {
            assert_eq!(v, i + i * 100, "xid mismatch for call {i}");
        }
    }

    #[test]
    fn unknown_procedure_rejected() {
        let mut sim = Simulation::new(1);
        let net = net(&sim);
        let h = sim.handle();
        let mut listener = net.listen(NodeId(1), 2049);
        let h2 = h.clone();
        sim.spawn(async move {
            let conn = listener.accept().await;
            serve_stream_bulk_connection(h2.clone(), conn, Rc::new(Adder) as BulkServiceRef).await;
        });
        let net2 = net.clone();
        let err = sim.block_on(async move {
            let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
            let client = StreamRpcClient::new(&h, stream, 300, 1);
            client.call(99, Bytes::new()).await.unwrap_err()
        });
        assert_eq!(err, RpcError::Rejected(AcceptStat::ProcUnavail));
    }

    #[test]
    fn dispatch_routes_and_rejects() {
        let mut sim = Simulation::new(1);
        let net = net(&sim);
        let h = sim.handle();
        let mut listener = net.listen(NodeId(1), 2049);
        let h2 = h.clone();
        sim.spawn(async move {
            let conn = listener.accept().await;
            serve_stream_bulk_connection(h2.clone(), conn, Rc::new(Adder) as BulkServiceRef).await;
        });
        let net2 = net.clone();
        let (ok, bad_prog, bad_vers, bad_proc) = sim.block_on(async move {
            let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
            let client = StreamRpcClient::new(&h, stream, 300, 1);
            let mut enc = xdr::Encoder::new();
            enc.put_u32(2).put_u32(3);
            let args = enc.finish();
            let ok = client.call_as(300, 1, 1, args.clone(), None).await;
            let bad_prog = client.call_as(999, 1, 1, args.clone(), None).await;
            let bad_vers = client.call_as(300, 2, 1, args.clone(), None).await;
            let bad_proc = client.call_as(300, 1, 42, args, None).await;
            (ok, bad_prog, bad_vers, bad_proc)
        });
        let (body, bulk) = ok.unwrap();
        assert_eq!(xdr::Decoder::new(&body).get_u32().unwrap(), 5);
        assert!(bulk.is_empty());
        let rejected = |stat| Err(RpcError::Rejected(stat));
        assert_eq!(bad_prog, rejected(AcceptStat::ProgUnavail));
        assert_eq!(bad_vers, rejected(AcceptStat::ProgUnavail));
        assert_eq!(bad_proc, rejected(AcceptStat::ProcUnavail));
    }

    struct BulkEcho;
    impl BulkService for BulkEcho {
        fn program(&self) -> u32 {
            300
        }
        fn version(&self) -> u32 {
            1
        }
        fn call(
            &self,
            _cx: CallContext,
            _p: u32,
            args: Bytes,
            bulk_in: Option<sim_core::SgList>,
        ) -> LocalBoxFuture<BulkDispatch> {
            Box::pin(async move { BulkDispatch::success(args, bulk_in) })
        }
    }

    #[test]
    fn bulk_payload_rides_behind_the_head_and_stays_synthetic() {
        let mut sim = Simulation::new(1);
        let net = net(&sim);
        let h = sim.handle();
        let mut listener = net.listen(NodeId(1), 2049);
        let h2 = h.clone();
        sim.spawn(async move {
            let conn = listener.accept().await;
            serve_stream_bulk_connection(h2.clone(), conn, Rc::new(BulkEcho) as BulkServiceRef)
                .await;
        });
        let net2 = net.clone();
        let (body, bulk) = sim.block_on(async move {
            let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
            let client = StreamRpcClient::new(&h, stream, 300, 1);
            client
                .call_bulk(
                    0,
                    Bytes::from_static(b"head"),
                    Some(Payload::synthetic(5, 1 << 20)),
                )
                .await
                .unwrap()
        });
        assert_eq!(&body[..], b"head");
        assert_eq!(bulk.len(), 1 << 20);
        assert!(bulk.content_eq(&Payload::synthetic(5, 1 << 20)));
        // The round-tripped payload must still be compact (synthetic),
        // not a materialized megabyte.
        assert!(
            matches!(bulk, Payload::Synthetic { .. }),
            "bulk was materialized on the stream path"
        );
    }

    #[test]
    fn large_real_payload_roundtrip() {
        let mut sim = Simulation::new(1);
        let net = net(&sim);
        let h = sim.handle();
        let mut listener = net.listen(NodeId(1), 2049);
        let h2 = h.clone();
        sim.spawn(async move {
            let conn = listener.accept().await;
            serve_stream_bulk_connection(h2.clone(), conn, Rc::new(BulkEcho) as BulkServiceRef)
                .await;
        });
        let net2 = net.clone();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let (_, bulk) = sim.block_on(async move {
            let stream = net2.connect(NodeId(0), NodeId(1), 2049).await;
            let client = StreamRpcClient::new(&h, stream, 300, 1);
            client
                .call_bulk(0, Bytes::new(), Some(Payload::real(payload)))
                .await
                .unwrap()
        });
        assert_eq!(&bulk.materialize()[..], &expect[..]);
    }
}
