//! The switched fabric: per-node uplink/downlink with cut-through
//! forwarding.
//!
//! Every node owns a transmit wire and a receive wire of equal rate
//! (full duplex). A transfer holds the source's transmit wire and the
//! destination's receive wire simultaneously for one serialization time
//! (cut-through, as IB switches do), then experiences propagation
//! latency. The receive wire of a busy server is therefore the shared
//! bottleneck across clients — the effect behind Figure 10.
//!
//! Deadlock freedom: a transfer holds exactly one tx resource while
//! waiting for one rx resource; no holder of an rx resource ever waits
//! on a tx resource, so no cycle can form.
//!
//! ## Fault injection
//!
//! The fabric doubles as the chaos layer: once [`Fabric::enable_faults`]
//! hands it a seeded [`SimRng`] stream, each link (keyed by the
//! *receiving* node) can be given a drop probability, delay jitter, and
//! flap windows ([`FaultConfig`], [`Fabric::flap_link`]). Faults are
//! decided at arrival time — a dropped message still paid its wire
//! occupancy, as a corrupted packet does in hardware. With faults
//! disabled (the default) the fabric draws **zero** random numbers and
//! behaves bit-for-bit as before, so existing schedules are unchanged.
//!
//! ## Delivery
//!
//! A port hands an arriving message to its node by a direct call at
//! the arrival instant ([`Fabric::attach_with`]): no queue, no task
//! hop. The HCA's responder runs there. A consumer whose handling
//! genuinely waits keeps its own queue behind that call: the TCP
//! stack's softirq (`net-stack`'s `TcpNet::attach`) drains one from a
//! task per host.
//!
//! Two delivery disciplines are offered on top of the verdict:
//!
//! * [`Fabric::send`] hands a dropped message back to the caller
//!   (`Some(msg)`) — used for two-sided Sends, where loss is surfaced
//!   to the ULP and recovered by RPC retransmission.
//! * [`Fabric::send_reliable`] retransmits at link level until
//!   delivery — used for RDMA Write/Read requests, whose data-placement
//!   guarantees the RC transport provides in hardware.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sim_core::stats::Counter;
use sim_core::{transfer_time, FxMap, Resource, Sim, SimDuration, SimRng, SimTime};

use crate::types::NodeId;

/// Per-link fault parameters (the link is keyed by its receiving node).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Probability that a message arriving on this link is dropped.
    pub drop_probability: f64,
    /// Extra uniformly-distributed delay `[0, delay_jitter]` added to
    /// every transfer into this node.
    pub delay_jitter: SimDuration,
}

/// Link-level retransmission timeout of [`Fabric::send_reliable`]
/// after a drop (order of an IB end-to-end timeout tick at SDR rates).
const RETRY_DELAY: SimDuration = SimDuration::from_micros(10);

struct FaultState {
    rng: SimRng,
    links: FxMap<NodeId, FaultConfig>,
    /// Outage windows per receiving node: everything arriving inside
    /// `[from, until)` is dropped.
    flaps: FxMap<NodeId, Vec<(SimTime, SimTime)>>,
    /// One-shot forced drops per receiving node (deterministic fault
    /// targeting for tests; consumes no randomness).
    forced: FxMap<NodeId, u64>,
}

struct Port<M> {
    tx: Resource,
    rx: Resource,
    bandwidth: u64,
    latency: SimDuration,
    /// The node's consumer, called with each message as it arrives.
    deliver: Box<dyn Fn(M)>,
    rx_bytes: Cell<u64>,
    tx_bytes: Cell<u64>,
    /// Messages dropped on arrival at this port (cumulative; not reset
    /// by accounting windows). Registered as `fabric.port{N}.dropped`.
    dropped: Rc<Counter>,
    /// Link-level retransmissions into this port (cumulative).
    /// Registered as `fabric.port{N}.retransmits`.
    retransmits: Rc<Counter>,
}

struct FabricInner<M> {
    sim: Sim,
    /// Indexed by node id: ids are small and dense (a testbed numbers
    /// its hosts from 0), and a transfer resolves two ports.
    ports: RefCell<Vec<Option<Rc<Port<M>>>>>,
    faults: RefCell<Option<FaultState>>,
    /// Mirrors `faults.is_some()` so the per-arrival checks stay off
    /// the hot path entirely until the fault layer is armed.
    faults_armed: Cell<bool>,
}

/// A fabric carrying messages of type `M` between nodes.
pub struct Fabric<M> {
    inner: Rc<FabricInner<M>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric {
            inner: self.inner.clone(),
        }
    }
}

impl<M: 'static> Fabric<M> {
    /// Create an empty fabric.
    pub fn new(sim: &Sim) -> Self {
        Fabric {
            inner: Rc::new(FabricInner {
                sim: sim.clone(),
                ports: RefCell::new(Vec::new()),
                faults: RefCell::new(None),
                faults_armed: Cell::new(false),
            }),
        }
    }

    /// Attach `node` with the given port rate (bytes/s) and one-way
    /// latency, handing each arriving message to `deliver` by a direct
    /// call at the arrival instant (from inside the sending task's
    /// poll). `deliver` must not keep the node's owner alive — hold a
    /// `Weak` — or the fabric and the owner form a cycle; a message it
    /// drops is simply lost.
    pub fn attach_with(
        &self,
        node: NodeId,
        bandwidth: u64,
        latency: SimDuration,
        deliver: impl Fn(M) + 'static,
    ) {
        let metrics = self.inner.sim.metrics();
        let port = Rc::new(Port {
            tx: Resource::new(&self.inner.sim, format!("node{}.tx", node.0), 1),
            rx: Resource::new(&self.inner.sim, format!("node{}.rx", node.0), 1),
            bandwidth,
            latency,
            deliver: Box::new(deliver),
            rx_bytes: Cell::new(0),
            tx_bytes: Cell::new(0),
            dropped: metrics.counter(&format!("fabric.port{}.dropped", node.0)),
            retransmits: metrics.counter(&format!("fabric.port{}.retransmits", node.0)),
        });
        let mut ports = self.inner.ports.borrow_mut();
        let at = node.0 as usize;
        if ports.len() <= at {
            ports.resize_with(at + 1, || None);
        }
        assert!(ports[at].is_none(), "node {node:?} attached twice");
        ports[at] = Some(port);
    }

    /// `f` on the port of `node`.
    fn with_port<T>(&self, node: NodeId, f: impl FnOnce(&Rc<Port<M>>) -> T) -> T {
        match self.inner.ports.borrow().get(node.0 as usize) {
            Some(Some(port)) => f(port),
            _ => panic!("node {node:?} not attached"),
        }
    }

    /// A handle on the port of `node`, to hold across an await.
    fn port(&self, node: NodeId) -> Rc<Port<M>> {
        self.with_port(node, Rc::clone)
    }

    /// Move `wire_bytes` from `from` to `to` and deliver `msg` to the
    /// destination's consumer when the last byte lands.
    ///
    /// Returns `None` on delivery. If the fault layer drops the message
    /// on arrival the message is handed **back** (`Some(msg)`) so the
    /// caller decides the recovery discipline — complete anyway (ULP
    /// loss, as for two-sided Sends) or retransmit
    /// ([`Fabric::send_reliable`]).
    pub async fn send(&self, from: NodeId, to: NodeId, wire_bytes: u64, msg: M) -> Option<M> {
        let (src, dst) = (self.port(from), self.port(to));
        self.transfer(&src, &dst, to, wire_bytes).await;
        if self.arrival_dropped(to) {
            dst.dropped.inc();
            return Some(msg);
        }
        (dst.deliver)(msg);
        None
    }

    /// [`Fabric::send`] with link-level retransmission: on a drop, wait
    /// `RETRY_DELAY` and transmit again (paying serialization
    /// each time) until the message is delivered. Models the RC
    /// transport's guarantee for one-sided operations.
    pub async fn send_reliable(&self, from: NodeId, to: NodeId, wire_bytes: u64, msg: M) {
        let mut msg = msg;
        loop {
            match self.send(from, to, wire_bytes, msg).await {
                None => return,
                Some(returned) => {
                    msg = returned;
                    self.with_port(to, |p| p.retransmits.inc());
                    self.inner.sim.sleep(RETRY_DELAY).await;
                }
            }
        }
    }

    /// Occupy the wire for a transfer without delivering a message
    /// (used for RDMA Read response data, which completes a waiting
    /// requester directly).
    pub async fn raw_transfer(&self, from: NodeId, to: NodeId, wire_bytes: u64) {
        let (src, dst) = (self.port(from), self.port(to));
        self.transfer(&src, &dst, to, wire_bytes).await;
    }

    /// The wire occupancy and delay of one transfer between two
    /// resolved ports (`to` keys the destination's fault state).
    async fn transfer(&self, src: &Port<M>, dst: &Port<M>, to: NodeId, wire_bytes: u64) {
        let bw = src.bandwidth.min(dst.bandwidth);
        let occupancy = transfer_time(wire_bytes, bw);
        if !occupancy.is_zero() {
            // Cut-through: hold tx, then rx, for one serialization time.
            let _tx_slot = src.tx.acquire().await;
            let _rx_slot = dst.rx.acquire().await;
            self.inner.sim.sleep(occupancy).await;
            src.tx.charge(occupancy);
            dst.rx.charge(occupancy);
            src.tx_bytes.set(src.tx_bytes.get() + wire_bytes);
            dst.rx_bytes.set(dst.rx_bytes.get() + wire_bytes);
        }
        if !dst.latency.is_zero() {
            self.inner.sim.sleep(dst.latency).await;
        }
        let jitter = self.extra_delay(to);
        if !jitter.is_zero() {
            self.inner.sim.sleep(jitter).await;
        }
    }

    // --- Fault injection. --------------------------------------------

    /// Arm the fault layer with a seeded random stream (idempotent;
    /// typically `sim.fork_rng()`). Until this is called the fabric
    /// draws no randomness and delivers every message.
    pub fn enable_faults(&self, rng: SimRng) {
        let mut f = self.inner.faults.borrow_mut();
        if f.is_none() {
            *f = Some(FaultState {
                rng,
                links: FxMap::default(),
                flaps: FxMap::default(),
                forced: FxMap::default(),
            });
            self.inner.faults_armed.set(true);
        }
    }

    /// True once [`Fabric::enable_faults`] has run.
    pub fn faults_enabled(&self) -> bool {
        self.inner.faults.borrow().is_some()
    }

    fn with_faults<T>(&self, f: impl FnOnce(&mut FaultState) -> T) -> T {
        let mut g = self.inner.faults.borrow_mut();
        let state = g.get_or_insert_with(|| FaultState {
            // Deterministic fallback stream for callers that only use
            // draw-free faults (forced drops, flaps).
            rng: SimRng::new(0xFA_B0_17),
            links: FxMap::default(),
            flaps: FxMap::default(),
            forced: FxMap::default(),
        });
        self.inner.faults_armed.set(true);
        f(state)
    }

    /// Set the fault parameters of the link into `node`.
    pub fn set_link_faults(&self, node: NodeId, cfg: FaultConfig) {
        self.with_faults(|f| {
            f.links.insert(node, cfg);
        });
    }

    /// Drop everything arriving at `node` within `[from, until)` — a
    /// link flap / cable-pull window.
    pub fn flap_link(&self, node: NodeId, from: SimTime, until: SimTime) {
        self.with_faults(|f| f.flaps.entry(node).or_default().push((from, until)));
    }

    /// Force the next `count` messages arriving at `node` to be
    /// dropped (deterministic, draw-free fault targeting for tests).
    pub fn drop_next_to(&self, node: NodeId, count: u64) {
        self.with_faults(|f| *f.forced.entry(node).or_insert(0) += count);
    }

    /// Decide whether a message arriving at `to` now is lost.
    fn arrival_dropped(&self, to: NodeId) -> bool {
        if !self.inner.faults_armed.get() {
            return false;
        }
        let mut g = self.inner.faults.borrow_mut();
        let Some(f) = g.as_mut() else { return false };
        if let Some(n) = f.forced.get_mut(&to) {
            if *n > 0 {
                *n -= 1;
                return true;
            }
        }
        let now = self.inner.sim.now();
        if let Some(windows) = f.flaps.get(&to) {
            if windows.iter().any(|(a, b)| now >= *a && now < *b) {
                return true;
            }
        }
        match f.links.get(&to) {
            Some(cfg) if cfg.drop_probability > 0.0 => f.rng.gen_bool(cfg.drop_probability),
            _ => false,
        }
    }

    fn extra_delay(&self, to: NodeId) -> SimDuration {
        if !self.inner.faults_armed.get() {
            return SimDuration::ZERO;
        }
        let mut g = self.inner.faults.borrow_mut();
        let Some(f) = g.as_mut() else {
            return SimDuration::ZERO;
        };
        let Some(cfg) = f.links.get(&to) else {
            return SimDuration::ZERO;
        };
        if cfg.delay_jitter.is_zero() {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(f.rng.gen_range(cfg.delay_jitter.as_nanos() + 1))
    }

    /// Messages dropped on arrival at `node` (cumulative): the
    /// `fabric.port{N}.dropped` series of the metrics registry. A
    /// harness run sums the ports with `Run::metric("fabric.*.dropped")`.
    pub fn dropped(&self, node: NodeId) -> u64 {
        self.port(node).dropped.get()
    }

    /// Link-level retransmissions into `node` (cumulative): the
    /// `fabric.port{N}.retransmits` series of the metrics registry
    /// (`Run::metric("fabric.*.retransmits")` sums the ports).
    pub fn retransmits(&self, node: NodeId) -> u64 {
        self.port(node).retransmits.get()
    }

    /// One-way latency into `node`.
    pub fn latency_to(&self, node: NodeId) -> SimDuration {
        self.with_port(node, |p| p.latency)
    }

    /// Transmit-side wire utilization of a node's port.
    pub fn tx_utilization(&self, node: NodeId) -> f64 {
        self.port(node).tx.utilization()
    }

    /// Receive-side wire utilization of a node's port.
    pub fn rx_utilization(&self, node: NodeId) -> f64 {
        self.port(node).rx.utilization()
    }

    /// Bytes received by a node since its accounting window opened.
    pub fn rx_bytes(&self, node: NodeId) -> u64 {
        self.port(node).rx_bytes.get()
    }

    /// Bytes transmitted by a node since its accounting window opened.
    pub fn tx_bytes(&self, node: NodeId) -> u64 {
        self.port(node).tx_bytes.get()
    }

    /// Reset port accounting for all nodes (exclude warmup).
    pub fn reset_accounting(&self) {
        for p in self.inner.ports.borrow().iter().flatten() {
            p.tx.reset_accounting();
            p.rx.reset_accounting();
            p.rx_bytes.set(0);
            p.tx_bytes.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{SimTime, Simulation};

    const GB: u64 = 1_000_000_000;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// Attach `node` as a port whose arrivals go nowhere.
    fn sink<M: 'static>(fab: &Fabric<M>, node: NodeId, bandwidth: u64, latency: SimDuration) {
        fab.attach_with(node, bandwidth, latency, drop);
    }

    /// Attach `node` and log each arrival with its instant (ns).
    fn inbox<M: 'static>(
        fab: &Fabric<M>,
        node: NodeId,
        bandwidth: u64,
        latency: SimDuration,
    ) -> Rc<RefCell<Vec<(u64, M)>>> {
        let (got, sim) = (Rc::new(RefCell::new(Vec::new())), fab.inner.sim.clone());
        let log = got.clone();
        fab.attach_with(node, bandwidth, latency, move |m| {
            log.borrow_mut().push((sim.now().as_nanos(), m));
        });
        got
    }

    /// The messages in `got`, without their instants.
    fn messages(got: &RefCell<Vec<(u64, u32)>>) -> Vec<u32> {
        got.borrow().iter().map(|&(_, m)| m).collect()
    }

    #[test]
    fn point_to_point_delivery_time() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<u32> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, us(2));
        let got = inbox(&fab, NodeId(1), GB, us(2));
        let f2 = fab.clone();
        sim.spawn(async move {
            f2.send(NodeId(0), NodeId(1), 1_000_000, 7).await;
        });
        sim.run();
        // 1 MB at 1 GB/s = 1 ms serialization + 2 us latency.
        assert_eq!(*got.borrow(), [(1_002_000, 7)]);
        assert_eq!(sim.now(), SimTime::from_nanos(1_002_000));
    }

    #[test]
    fn cut_through_does_not_double_serialization() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<()> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        sink(&fab, NodeId(1), GB, SimDuration::ZERO);
        let f2 = fab.clone();
        sim.block_on(async move { f2.raw_transfer(NodeId(0), NodeId(1), 1_000_000).await });
        // One serialization, not two.
        assert_eq!(sim.now(), SimTime::from_nanos(1_000_000));
    }

    #[test]
    fn server_rx_is_shared_bottleneck() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<()> = Fabric::new(&h);
        let server = NodeId(0);
        sink(&fab, server, GB, SimDuration::ZERO);
        for c in 1..=4 {
            sink(&fab, NodeId(c), GB, SimDuration::ZERO);
        }
        for c in 1..=4u32 {
            let f = fab.clone();
            sim.spawn(async move {
                f.raw_transfer(NodeId(c), server, 1_000_000).await;
            });
        }
        sim.run();
        // Four 1 MB transfers share the server's 1 GB/s rx wire: 4 ms.
        assert_eq!(sim.now(), SimTime::from_nanos(4_000_000));
    }

    #[test]
    fn duplex_directions_are_independent() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<()> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        sink(&fab, NodeId(1), GB, SimDuration::ZERO);
        let f1 = fab.clone();
        let f2 = fab.clone();
        sim.spawn(async move { f1.raw_transfer(NodeId(0), NodeId(1), 1_000_000).await });
        sim.spawn(async move { f2.raw_transfer(NodeId(1), NodeId(0), 1_000_000).await });
        sim.run();
        // Opposite directions overlap fully.
        assert_eq!(sim.now(), SimTime::from_nanos(1_000_000));
    }

    #[test]
    fn mismatched_rates_use_slower() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<()> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        sink(&fab, NodeId(1), 125_000_000, SimDuration::ZERO); // GigE-ish
        let f = fab.clone();
        sim.block_on(async move { f.raw_transfer(NodeId(0), NodeId(1), 1_000_000).await });
        assert_eq!(sim.now(), SimTime::from_nanos(8_000_000));
    }

    #[test]
    fn byte_accounting() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<()> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        sink(&fab, NodeId(1), GB, SimDuration::ZERO);
        let f = fab.clone();
        sim.block_on(async move {
            f.raw_transfer(NodeId(0), NodeId(1), 500).await;
            f.raw_transfer(NodeId(0), NodeId(1), 250).await;
        });
        assert_eq!(fab.rx_bytes(NodeId(1)), 750);
        assert_eq!(fab.tx_bytes(NodeId(0)), 750);
        assert_eq!(fab.rx_bytes(NodeId(0)), 0);
    }

    #[test]
    fn forced_drops_hit_exactly_n_messages() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<u32> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        let got = inbox(&fab, NodeId(1), GB, SimDuration::ZERO);
        fab.drop_next_to(NodeId(1), 2);
        let f = fab.clone();
        sim.spawn(async move {
            for i in 0..4u32 {
                f.send(NodeId(0), NodeId(1), 100, i).await;
            }
        });
        sim.run();
        assert_eq!(messages(&got), [2, 3]);
        assert_eq!(fab.dropped(NodeId(1)), 2);
        assert_eq!(h.metrics().get("fabric.port1.dropped"), Some(2));
    }

    #[test]
    fn send_reliable_retransmits_until_delivered() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<u32> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        let got = inbox(&fab, NodeId(1), GB, SimDuration::ZERO);
        fab.drop_next_to(NodeId(1), 3);
        let f = fab.clone();
        sim.spawn(async move {
            f.send_reliable(NodeId(0), NodeId(1), 1000, 9).await;
        });
        sim.run();
        assert_eq!(fab.retransmits(NodeId(1)), 3);
        // 4 serializations of 1000 B at 1 GB/s + 3 retry delays.
        assert_eq!(*got.borrow(), [(4_000 + 30_000, 9)]);
    }

    #[test]
    fn flap_window_drops_everything_inside_it() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<u32> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        let got = inbox(&fab, NodeId(1), GB, SimDuration::ZERO);
        // 1000 B serialize in 1 us; messages land at t=1,2,3,4 us.
        fab.flap_link(
            NodeId(1),
            SimTime::from_nanos(1_500),
            SimTime::from_nanos(3_500),
        );
        let f = fab.clone();
        sim.spawn(async move {
            for i in 0..4u32 {
                f.send(NodeId(0), NodeId(1), 1000, i).await;
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), [(1_000, 0), (4_000, 3)]);
    }

    #[test]
    fn random_drops_replay_identically_for_same_seed() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(seed);
            let h = sim.handle();
            let fab: Fabric<u32> = Fabric::new(&h);
            sink(&fab, NodeId(0), GB, SimDuration::ZERO);
            let got = inbox(&fab, NodeId(1), GB, SimDuration::ZERO);
            fab.enable_faults(h.fork_rng());
            fab.set_link_faults(
                NodeId(1),
                FaultConfig {
                    drop_probability: 0.3,
                    delay_jitter: SimDuration::from_nanos(200),
                },
            );
            let f = fab.clone();
            sim.spawn(async move {
                for i in 0..64u32 {
                    f.send(NodeId(0), NodeId(1), 100, i).await;
                }
            });
            sim.run();
            let got = got.borrow().clone();
            (got, fab.dropped(NodeId(1)), sim.now())
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        let c = run(8);
        assert_ne!(a.0, c.0);
        assert!(a.1 > 0, "0.3 drop rate over 64 messages lost none");
    }

    #[test]
    fn disabled_faults_change_nothing_and_draw_nothing() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let fab: Fabric<u32> = Fabric::new(&h);
        sink(&fab, NodeId(0), GB, us(2));
        let got = inbox(&fab, NodeId(1), GB, us(2));
        let f2 = fab.clone();
        sim.spawn(async move {
            f2.send(NodeId(0), NodeId(1), 1_000_000, 7).await;
        });
        sim.run();
        assert!(!fab.faults_enabled());
        assert_eq!(fab.dropped(NodeId(0)) + fab.dropped(NodeId(1)), 0);
        // Same arrival as `point_to_point_delivery_time`.
        assert_eq!(*got.borrow(), [(1_002_000, 7)]);
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_panics() {
        let sim = Simulation::new(1);
        let fab: Fabric<()> = Fabric::new(&sim.handle());
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
        sink(&fab, NodeId(0), GB, SimDuration::ZERO);
    }
}
