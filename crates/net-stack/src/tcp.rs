//! The TCP network object: host attachment, connection setup, and the
//! per-segment cost model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ib_verbs::fabric::Fabric;
use ib_verbs::types::NodeId;
use sim_core::sync::{channel, Receiver, Sender};
use sim_core::{Cpu, FxMap, Payload, Sim, SimDuration};

use crate::stream::{RxBuf, StreamId, TcpStream};

/// Cost/behaviour parameters of the TCP stack on one network type.
#[derive(Clone, Copy, Debug)]
pub struct TcpConfig {
    /// Link payload bandwidth, bytes/second.
    pub link_bandwidth: u64,
    /// One-way propagation latency.
    pub link_latency: SimDuration,
    /// Maximum segment payload, bytes.
    pub mtu: u64,
    /// Per-byte CPU cost on the transmit path (copy from user,
    /// checksum), nanoseconds.
    pub tx_ns_per_byte: f64,
    /// Per-byte CPU cost on the receive path (checksum, copy to user),
    /// nanoseconds.
    pub rx_ns_per_byte: f64,
    /// Fixed CPU cost per segment on each side (header processing,
    /// ACK generation, amortized interrupts), nanoseconds.
    pub per_segment_ns: u64,
    /// Protocol header bytes per segment on the wire (IP+TCP).
    pub wire_header_bytes: u64,
    /// Send window: bytes in flight before the sender stalls.
    pub window_bytes: u64,
}

impl TcpConfig {
    /// TCP over the InfiniBand SDR link (IPoIB). Wire is fast; the CPU
    /// per-byte path is the ceiling (~360 MB/s on the paper's Xeons).
    pub fn ipoib() -> Self {
        TcpConfig {
            link_bandwidth: 900_000_000,
            link_latency: SimDuration::from_micros(12),
            mtu: 65520 / 4, // IPoIB-UD effective segmentation
            tx_ns_per_byte: 2.6,
            rx_ns_per_byte: 2.9,
            per_segment_ns: 9_000,
            wire_header_bytes: 60,
            window_bytes: 1 << 20,
        }
    }

    /// TCP over Gigabit Ethernet: the 125 MB/s wire is the ceiling.
    pub fn gige() -> Self {
        TcpConfig {
            link_bandwidth: 118_000_000,
            link_latency: SimDuration::from_micros(30),
            mtu: 1448,
            tx_ns_per_byte: 2.6,
            rx_ns_per_byte: 2.9,
            per_segment_ns: 4_000,
            wire_header_bytes: 66,
            window_bytes: 512 * 1024,
        }
    }
}

/// A wire segment (or control message) between TCP hosts.
pub(crate) enum Segment {
    Data {
        stream: StreamId,
        data: Payload,
    },
    /// Connection request carrying the initiator-side stream state.
    Syn {
        stream: StreamId,
        from: NodeId,
        port: u16,
        /// Receive buffer at the *initiator* (the acceptor writes into
        /// it when sending back).
        initiator_rx: Rc<RxBuf>,
        /// Completion channel delivering the acceptor's rx buffer.
        accept_tx: sim_core::sync::OneshotSender<Rc<RxBuf>>,
    },
}

pub(crate) struct NodeState {
    pub(crate) cpu: Cpu,
    /// Transmit-path protocol processing: single NIC queue, as on
    /// 2007-era hardware (no multiqueue/RSS) — one core's worth of
    /// per-byte work caps TCP throughput regardless of core count.
    pub(crate) tx_softirq: sim_core::Resource,
    /// Receive-path protocol processing (softirq context), likewise
    /// serialized.
    pub(crate) rx_softirq: sim_core::Resource,
    pub(crate) listeners: RefCell<FxMap<u16, Sender<PendingConn>>>,
}

/// A connection waiting in a listener's accept queue.
pub(crate) struct PendingConn {
    pub(crate) stream: StreamId,
    pub(crate) peer: NodeId,
    pub(crate) initiator_rx: Rc<RxBuf>,
    pub(crate) accept_tx: sim_core::sync::OneshotSender<Rc<RxBuf>>,
}

pub(crate) struct TcpNetInner {
    pub(crate) sim: Sim,
    pub(crate) cfg: TcpConfig,
    pub(crate) fabric: Fabric<Segment>,
    pub(crate) nodes: RefCell<FxMap<NodeId, Rc<NodeState>>>,
    /// Stream-id -> receive buffer at that stream's *receiving* side.
    /// Keyed by (stream, direction-endpoint node).
    pub(crate) rx_bufs: RefCell<FxMap<(StreamId, NodeId), Rc<RxBuf>>>,
    next_stream: Cell<u64>,
}

/// A TCP/IP network over one physical medium.
#[derive(Clone)]
pub struct TcpNet {
    pub(crate) inner: Rc<TcpNetInner>,
}

impl TcpNet {
    /// Create a network with the given stack parameters.
    pub fn new(sim: &Sim, cfg: TcpConfig) -> TcpNet {
        TcpNet {
            inner: Rc::new(TcpNetInner {
                sim: sim.clone(),
                cfg,
                fabric: Fabric::new(sim),
                nodes: RefCell::new(FxMap::default()),
                rx_bufs: RefCell::new(FxMap::default()),
                next_stream: Cell::new(1),
            }),
        }
    }

    /// Attach a host; its TCP processing is charged to `cpu`. Arriving
    /// segments queue for the host's softirq task, which handles them
    /// one at a time: receive-path work waits, where the fabric's own
    /// delivery is a direct call at the arrival instant.
    pub fn attach(&self, node: NodeId, cpu: Cpu) {
        let (queue, inbox) = channel();
        let cfg = self.inner.cfg;
        self.inner
            .fabric
            .attach_with(node, cfg.link_bandwidth, cfg.link_latency, move |seg| {
                let _ = queue.send(seg);
            });
        let state = Rc::new(NodeState {
            cpu,
            tx_softirq: sim_core::Resource::new(
                &self.inner.sim,
                format!("node{}.tcp-tx", node.0),
                1,
            ),
            rx_softirq: sim_core::Resource::new(
                &self.inner.sim,
                format!("node{}.tcp-rx", node.0),
                1,
            ),
            listeners: RefCell::new(FxMap::default()),
        });
        self.inner.nodes.borrow_mut().insert(node, state.clone());
        let net = self.clone();
        self.inner
            .sim
            .spawn(async move { dispatch_loop(net, node, state, inbox).await });
    }

    /// Start listening on `(node, port)`; returns the accept queue.
    pub fn listen(&self, node: NodeId, port: u16) -> Listener {
        let (tx, rx) = channel();
        let nodes = self.inner.nodes.borrow();
        let state = nodes.get(&node).expect("listen on unattached node");
        let prev = state.listeners.borrow_mut().insert(port, tx);
        assert!(prev.is_none(), "port {port} already bound on {node:?}");
        Listener {
            net: self.clone(),
            node,
            accept_rx: rx,
        }
    }

    /// Open a connection from `from` to `(to, port)`. Completes after
    /// one handshake round trip.
    pub async fn connect(&self, from: NodeId, to: NodeId, port: u16) -> TcpStream {
        let id = StreamId(self.inner.next_stream.get());
        self.inner.next_stream.set(id.0 + 1);
        let my_rx = Rc::new(RxBuf::default());
        self.inner
            .rx_bufs
            .borrow_mut()
            .insert((id, from), my_rx.clone());
        let (accept_tx, accept_rx) = sim_core::sync::oneshot();
        self.inner
            .fabric
            // TCP retransmits below the socket API; faults on a TCP
            // fabric never surface to the stream layer.
            .send_reliable(
                from,
                to,
                self.inner.cfg.wire_header_bytes,
                Segment::Syn {
                    stream: id,
                    from,
                    port,
                    initiator_rx: my_rx.clone(),
                    accept_tx,
                },
            )
            .await;
        let peer_rx = accept_rx.await.expect("connection refused");
        self.inner.rx_bufs.borrow_mut().insert((id, to), peer_rx);
        // SYN-ACK propagation back.
        self.inner.sim.sleep(self.inner.cfg.link_latency).await;
        TcpStream::new(self.clone(), id, from, to)
    }

    pub(crate) fn node(&self, id: NodeId) -> Rc<NodeState> {
        self.inner
            .nodes
            .borrow()
            .get(&id)
            .expect("unattached node")
            .clone()
    }

    pub(crate) fn rx_buf(&self, stream: StreamId, endpoint: NodeId) -> Rc<RxBuf> {
        self.inner
            .rx_bufs
            .borrow()
            .get(&(stream, endpoint))
            .expect("unknown stream endpoint")
            .clone()
    }

    /// The stack configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.inner.cfg
    }

    /// Receive-side wire utilization of a node (diagnostics).
    pub fn rx_utilization(&self, node: NodeId) -> f64 {
        self.inner.fabric.rx_utilization(node)
    }

    /// Bytes received on the wire by a node.
    pub fn rx_bytes(&self, node: NodeId) -> u64 {
        self.inner.fabric.rx_bytes(node)
    }

    /// Reset wire accounting.
    pub fn reset_accounting(&self) {
        self.inner.fabric.reset_accounting();
    }
}

/// Accept side of [`TcpNet::listen`].
pub struct Listener {
    net: TcpNet,
    node: NodeId,
    accept_rx: Receiver<PendingConn>,
}

impl Listener {
    /// Accept the next incoming connection.
    pub async fn accept(&mut self) -> TcpStream {
        let pending = self.accept_rx.recv().await.expect("listener closed");
        let my_rx = Rc::new(RxBuf::default());
        self.net
            .inner
            .rx_bufs
            .borrow_mut()
            .insert((pending.stream, self.node), my_rx.clone());
        // Peer's buffer for the reverse direction was carried in the SYN.
        self.net
            .inner
            .rx_bufs
            .borrow_mut()
            .insert((pending.stream, pending.peer), pending.initiator_rx);
        pending.accept_tx.send(my_rx);
        TcpStream::new(self.net.clone(), pending.stream, self.node, pending.peer)
    }
}

async fn dispatch_loop(
    net: TcpNet,
    node: NodeId,
    state: Rc<NodeState>,
    mut inbox: Receiver<Segment>,
) {
    while let Ok(seg) = inbox.recv().await {
        match seg {
            Segment::Data { stream, data } => {
                // Receive-path CPU: checksum + copy to the socket
                // buffer, serialized in the (single-queue) softirq.
                let cfg = net.inner.cfg;
                let ns =
                    (data.len() as f64 * cfg.rx_ns_per_byte).round() as u64 + cfg.per_segment_ns;
                let d = SimDuration::from_nanos(ns);
                state.rx_softirq.use_for(d).await;
                state.cpu.charge(d);
                let rx = net.rx_buf(stream, node);
                rx.push(data);
            }
            Segment::Syn {
                stream,
                from,
                port,
                initiator_rx,
                accept_tx,
            } => {
                let listener = state.listeners.borrow().get(&port).cloned();
                match listener {
                    Some(q) => {
                        let _ = q.send(PendingConn {
                            stream,
                            peer: from,
                            initiator_rx,
                            accept_tx,
                        });
                    }
                    None => drop(accept_tx), // connection refused
                }
            }
        }
    }
}
