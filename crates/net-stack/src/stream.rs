//! Reliable byte streams over the TCP model.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ib_verbs::types::NodeId;
use sim_core::sync::Semaphore;
use sim_core::{Payload, SimDuration, WakeSlot};

use crate::tcp::{Segment, TcpNet};

/// Identifier of one TCP connection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamId(pub u64);

/// Socket receive buffer: ordered payload pieces plus reader wakeups.
#[derive(Default)]
pub struct RxBuf {
    pieces: RefCell<VecDeque<Payload>>,
    avail: Cell<u64>,
    waker: RefCell<WakeSlot>,
}

impl RxBuf {
    pub(crate) fn push(&self, data: Payload) {
        self.avail.set(self.avail.get() + data.len());
        self.pieces.borrow_mut().push_back(data);
        self.waker.borrow_mut().wake();
    }

    fn pop_exact(&self, n: u64) -> Payload {
        debug_assert!(self.avail.get() >= n);
        let mut out = Vec::new();
        let mut need = n;
        let mut pieces = self.pieces.borrow_mut();
        while need > 0 {
            let front = pieces.pop_front().expect("rxbuf accounting broken");
            if front.len() <= need {
                need -= front.len();
                out.push(front);
            } else {
                out.push(front.slice(0, need));
                let rest = front.slice(need, front.len() - need);
                pieces.push_front(rest);
                need = 0;
            }
        }
        self.avail.set(self.avail.get() - n);
        Payload::concat(&out)
    }

    /// Bytes currently buffered.
    pub fn available(&self) -> u64 {
        self.avail.get()
    }
}

/// One endpoint of an established TCP connection.
pub struct TcpStream {
    net: TcpNet,
    id: StreamId,
    local: NodeId,
    remote: NodeId,
    rx: Rc<RxBuf>,
    /// Send window in segments; permits return when a segment is
    /// delivered and its ACK has propagated back.
    window: Semaphore,
}

impl TcpStream {
    pub(crate) fn new(net: TcpNet, id: StreamId, local: NodeId, remote: NodeId) -> TcpStream {
        let rx = net.rx_buf(id, local);
        let cfg = *net.config();
        let window_segments = (cfg.window_bytes / cfg.mtu).max(1) as usize;
        TcpStream {
            net,
            id,
            local,
            remote,
            rx,
            window: Semaphore::new(window_segments),
        }
    }

    /// The connection id.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Local endpoint.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Remote endpoint.
    pub fn remote(&self) -> NodeId {
        self.remote
    }

    /// Send `data` down the stream. Segments the payload at the MTU,
    /// charges transmit-side CPU (copy + checksum + per-segment work),
    /// and respects the send window. Returns when the last byte has
    /// been handed to the NIC queue (socket-write semantics), not when
    /// it is delivered.
    pub async fn send(&self, data: Payload) {
        let cfg = *self.net.config();
        let node = self.net.node(self.local);
        let total = data.len();
        let mut off = 0u64;
        while off < total {
            let chunk = cfg.mtu.min(total - off);
            let piece = data.slice(off, chunk);
            off += chunk;
            // Transmit-path CPU: copy from user + checksum + headers,
            // serialized in the single-queue transmit path.
            let ns = (chunk as f64 * cfg.tx_ns_per_byte).round() as u64 + cfg.per_segment_ns;
            let d = SimDuration::from_nanos(ns);
            node.tx_softirq.use_for(d).await;
            node.cpu.charge(d);
            let permit = self.window.acquire().await;
            // Hand off to the NIC asynchronously; FIFO spawn order keeps
            // segments in order on the wire.
            let net = self.net.clone();
            let (from, to) = (self.local, self.remote);
            let stream = self.id;
            let latency = cfg.link_latency;
            self.net.inner.sim.spawn(async move {
                net.inner
                    .fabric
                    .send_reliable(
                        from,
                        to,
                        cfg.wire_header_bytes + chunk,
                        Segment::Data {
                            stream,
                            data: piece,
                        },
                    )
                    .await;
                // ACK propagates back before the window slot frees.
                net.inner.sim.sleep(latency).await;
                drop(permit);
            });
        }
    }

    /// Receive exactly `n` bytes, waiting as needed.
    pub async fn recv_exact(&self, n: u64) -> Payload {
        if n == 0 {
            return Payload::empty();
        }
        let rx = self.rx.clone();
        #[allow(
            clippy::disallowed_methods,
            reason = "one lane: parks on the reader's `WakeSlot`"
        )]
        std::future::poll_fn(move |cx| {
            if rx.avail.get() >= n {
                std::task::Poll::Ready(())
            } else {
                rx.waker.borrow_mut().park(cx);
                std::task::Poll::Pending
            }
        })
        .await;
        self.rx.pop_exact(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpConfig, TcpNet};
    use sim_core::{Cpu, CpuCosts, Sim, SimTime, Simulation};

    fn setup(sim: &Sim, cfg: TcpConfig) -> (TcpNet, Cpu, Cpu) {
        let net = TcpNet::new(sim, cfg);
        let c0 = Cpu::new(sim, "cpu0", 2, CpuCosts::default());
        let c1 = Cpu::new(sim, "cpu1", 2, CpuCosts::default());
        net.attach(NodeId(0), c0.clone());
        net.attach(NodeId(1), c1.clone());
        (net, c0, c1)
    }

    #[test]
    fn connect_send_recv_roundtrip() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (net, _c0, _c1) = setup(&h, TcpConfig::gige());
        let mut listener = net.listen(NodeId(1), 2049);
        let net2 = net.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            let server = listener.accept().await;
            let req = server.recv_exact(4).await;
            assert_eq!(&req.materialize()[..], b"ping");
            server.send(Payload::real(b"pong!".to_vec())).await;
            let _ = h2;
        });
        let got = sim.block_on(async move {
            let client = net2.connect(NodeId(0), NodeId(1), 2049).await;
            client.send(Payload::real(b"ping".to_vec())).await;
            client.recv_exact(5).await
        });
        assert_eq!(&got.materialize()[..], b"pong!");
    }

    #[test]
    fn large_transfer_is_wire_bound_on_gige() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (net, _c0, _c1) = setup(&h, TcpConfig::gige());
        let mut listener = net.listen(NodeId(1), 1);
        let total: u64 = 50_000_000; // 50 MB
        sim.spawn(async move {
            let server = listener.accept().await;
            let _ = server.recv_exact(total).await;
            server.send(Payload::real(vec![1])).await; // done marker
        });
        let net2 = net.clone();
        sim.block_on(async move {
            let client = net2.connect(NodeId(0), NodeId(1), 1).await;
            client.send(Payload::synthetic(1, total)).await;
            let _ = client.recv_exact(1).await;
        });
        let secs = sim.now().as_secs_f64();
        let mbps = total as f64 / 1e6 / secs;
        // GigE ceiling ≈ 110-118 MB/s.
        assert!(
            (95.0..=119.0).contains(&mbps),
            "GigE throughput {mbps:.1} MB/s out of range"
        );
    }

    #[test]
    fn ipoib_is_cpu_bound_below_wire_rate() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        // Single-core hosts: the per-byte CPU path is the ceiling.
        let net = TcpNet::new(&h, TcpConfig::ipoib());
        let c0 = Cpu::new(&h, "cpu0", 1, CpuCosts::default());
        let c1 = Cpu::new(&h, "cpu1", 1, CpuCosts::default());
        net.attach(NodeId(0), c0.clone());
        net.attach(NodeId(1), c1.clone());
        let mut listener = net.listen(NodeId(1), 1);
        let total: u64 = 100_000_000;
        sim.spawn(async move {
            let server = listener.accept().await;
            let _ = server.recv_exact(total).await;
            server.send(Payload::real(vec![1])).await;
        });
        let net2 = net.clone();
        sim.block_on(async move {
            let client = net2.connect(NodeId(0), NodeId(1), 1).await;
            client.send(Payload::synthetic(1, total)).await;
            let _ = client.recv_exact(1).await;
        });
        let secs = sim.now().as_secs_f64();
        let mbps = total as f64 / 1e6 / secs;
        assert!(
            (250.0..=450.0).contains(&mbps),
            "IPoIB throughput {mbps:.1} MB/s out of expected CPU-bound range"
        );
        // Receiver CPU should be essentially saturated.
        assert!(c1.utilization() > 0.8, "rx cpu util {}", c1.utilization());
    }

    #[test]
    fn extra_cores_do_not_lift_tcp_throughput() {
        // 2007-era NICs had one rx/tx queue: protocol processing is
        // serialized in softirq context, so doubling the cores must
        // not change TCP throughput (the IPoIB ceiling of Figure 10).
        let run = |cores: usize| {
            let mut sim = Simulation::new(1);
            let h = sim.handle();
            let net = TcpNet::new(&h, TcpConfig::ipoib());
            net.attach(NodeId(0), Cpu::new(&h, "c0", cores, CpuCosts::default()));
            net.attach(NodeId(1), Cpu::new(&h, "c1", cores, CpuCosts::default()));
            let mut listener = net.listen(NodeId(1), 1);
            let total: u64 = 50_000_000;
            sim.spawn(async move {
                let server = listener.accept().await;
                let _ = server.recv_exact(total).await;
                server.send(Payload::real(vec![1])).await;
            });
            let net2 = net.clone();
            sim.block_on(async move {
                let client = net2.connect(NodeId(0), NodeId(1), 1).await;
                client.send(Payload::synthetic(1, total)).await;
                let _ = client.recv_exact(1).await;
            });
            total as f64 / 1e6 / sim.now().as_secs_f64()
        };
        let two = run(2);
        let eight = run(8);
        assert!(
            (two - eight).abs() / two < 0.02,
            "TCP throughput changed with core count: {two:.0} vs {eight:.0} MB/s"
        );
    }

    #[test]
    fn interleaved_sends_preserve_order() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (net, _c0, _c1) = setup(&h, TcpConfig::gige());
        let mut listener = net.listen(NodeId(1), 1);
        sim.spawn(async move {
            let server = listener.accept().await;
            let data = server.recv_exact(10_000).await.materialize();
            for (i, b) in data.iter().enumerate() {
                assert_eq!(*b as usize, (i / 1000) % 256, "byte {i} out of order");
            }
            server.send(Payload::real(vec![1])).await;
        });
        let net2 = net.clone();
        sim.block_on(async move {
            let client = net2.connect(NodeId(0), NodeId(1), 1).await;
            for i in 0..10u8 {
                client.send(Payload::real(vec![i; 1000])).await;
            }
            let _ = client.recv_exact(1).await;
        });
    }

    /// The receive path to the nanosecond: when each segment of a
    /// two-node stream reaches the socket, and how long the receiver's
    /// `tcp-rx` softirq worked to put it there.
    #[test]
    fn segment_delivery_instants_and_rx_softirq_time_are_pinned() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (net, _c0, _c1) = setup(&h, TcpConfig::gige());
        let mut listener = net.listen(NodeId(1), 1);
        let mss = TcpConfig::gige().mtu;
        let landed = Rc::new(RefCell::new(Vec::new()));
        let (log, h2) = (landed.clone(), h.clone());
        sim.spawn(async move {
            let server = listener.accept().await;
            for len in [mss, mss, mss, 100] {
                server.recv_exact(len).await;
                log.borrow_mut().push(h2.now().as_nanos());
            }
        });
        let net2 = net.clone();
        sim.block_on(async move {
            let client = net2.connect(NodeId(0), NodeId(1), 1).await;
            client.send(Payload::synthetic(1, 3 * mss + 100)).await;
        });
        sim.run();
        assert_eq!(*landed.borrow(), [119_355, 132_186, 145_017, 149_307]);
        let rx = net.node(NodeId(1)).rx_softirq.busy_time();
        assert_eq!(rx.as_nanos(), 3 * (4_199 + 4_000) + (290 + 4_000));
    }

    #[test]
    fn two_streams_share_the_wire() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let (net, _c0, _c1) = setup(&h, TcpConfig::gige());
        let mut listener = net.listen(NodeId(1), 1);
        let total: u64 = 10_000_000;
        let h2 = h.clone();
        sim.spawn(async move {
            for _ in 0..2 {
                let server = listener.accept().await;
                // Keep each stream alive and draining in its own task.
                h2.spawn(async move {
                    let _ = server.recv_exact(total).await;
                });
            }
        });
        let net2 = net.clone();
        sim.block_on(async move {
            let a = net2.connect(NodeId(0), NodeId(1), 1).await;
            let b = net2.connect(NodeId(0), NodeId(1), 1).await;
            a.send(Payload::synthetic(1, total)).await;
            b.send(Payload::synthetic(2, total)).await;
        });
        sim.run();
        // Both streams' bytes crossed the single server wire, which
        // serialized them: at GigE rates that is at least 2*total/118MBs.
        assert!(net.rx_bytes(NodeId(1)) >= 2 * total);
        assert!(sim.now() >= SimTime::from_nanos(2 * total * 1_000_000_000 / 120_000_000));
    }
}
