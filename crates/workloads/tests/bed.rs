//! Every topology a [`Bed`] describes builds and carries data: the
//! single server and the replicated pair over RDMA under both designs,
//! and TCP over IPoIB and GigE. On each, clients write, COMMIT, read
//! back and verify, and a same-seed rerun is the same run. Beside that,
//! the connection bookkeeping of the builders: a reconnect replaces its
//! server half, what it leaves of its tasks is pinned, and `stop` ends
//! the replicated bed's heartbeat pacer.

use std::cell::RefCell;
use std::rc::Rc;

use net_stack::TcpConfig;
use rpcrdma::client::RECONNECT_DELAY;
use rpcrdma::{Design, StrategyKind};
use sim_core::{SimDuration, SimTime, Simulation};
use workloads::scenario::{self, WriterSpec};
use workloads::{linux_sdr, Bed, Capture, ClusterConfig, Run, Topology};

/// Two clients, both sides on the registration cache.
fn bed(design: Design, topology: Topology) -> Bed {
    Bed {
        clients: 2,
        topology,
        ..Bed::new(&linux_sdr(), design, StrategyKind::Cache)
    }
}

fn replicated() -> Topology {
    Topology::Replicated(ClusterConfig::default())
}

/// Each client's records: 8 KiB UNSTABLE WRITEs with a COMMIT every 8.
const WRITERS: WriterSpec = WriterSpec {
    prefix: "bed",
    records: 24,
    record: 8192,
    seed_base: 0xBED,
    commit_every: 8,
};

/// Build `bed`, kill its primary at `kill_at` if given, run the
/// verified writers to the end: `(corrupt records, promoted)`.
fn round_trip(bed: Bed, kill_at: Option<SimDuration>) -> Run<(u64, bool)> {
    scenario::run(7, Capture::SPANS, move |sim| async move {
        let testbed = bed.build(&sim).await;
        if let Some(at) = kill_at {
            let cluster = testbed.cluster.clone().expect("a replicated bed");
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(at).await;
                cluster.kill_primary(&sim2);
            });
        }
        let root = testbed.server.root_handle();
        let log = Default::default();
        let corrupt = scenario::verified_writers(&sim, &testbed.clients, root, WRITERS, &log);
        let corrupt = corrupt.await;
        testbed.stop();
        let promoted = testbed.cluster.as_ref().is_some_and(|c| c.promoted.get());
        (corrupt, promoted)
    })
}

/// Zero corruption, and the same seed gives the same run.
fn round_trips(tag: &str, bed: Bed, kill_at: Option<SimDuration>) -> Run<(u64, bool)> {
    let run = round_trip(bed, kill_at);
    assert_eq!(run.0, 0, "{tag}: corrupt records");
    assert_eq!(
        run,
        round_trip(bed, kill_at),
        "{tag}: same seed, different run"
    );
    run
}

#[test]
fn a_single_rdma_server_round_trips_under_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        round_trips(&format!("{design:?}"), bed(design, Topology::Rdma), None);
    }
}

/// A replicated server runs the bed's design: a Read-Read client on a
/// Read-Write server would find its READ data dropped, the server
/// looking for a write chunk that was never sent.
#[test]
fn a_replicated_pair_round_trips_under_both_designs() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        let run = round_trips(&format!("{design:?}"), bed(design, replicated()), None);
        assert!(
            run.metric("repl.shipped_records") > 0,
            "{design:?}: nothing shipped"
        );
    }
}

#[test]
fn a_replicated_pair_round_trips_across_a_promotion() {
    let kill = Some(SimDuration::from_micros(1500));
    let run = round_trips("killed", bed(Design::ReadWrite, replicated()), kill);
    assert!(run.1, "the backup never promoted");
    assert!(
        run.metric("client.reconnects") > 0,
        "no client followed the promotion"
    );
}

#[test]
fn tcp_round_trips_over_ipoib_and_gige() {
    for (name, cfg) in [("IPoIB", TcpConfig::ipoib()), ("GigE", TcpConfig::gige())] {
        round_trips(name, bed(Design::ReadWrite, Topology::Tcp(cfg)), None);
    }
}

/// A reconnect drops the server half it replaced: after three forced QP
/// errors each node holds exactly its live server halves — one per
/// client plus the heartbeat on the primary — so a kill errors only
/// live connections.
#[test]
fn a_reconnect_replaces_its_server_half() {
    let run = scenario::run(11, Capture::default(), |sim| async move {
        let testbed = bed(Design::ReadWrite, replicated()).build(&sim).await;
        let victim = testbed.clients[0]
            .nfs
            .rdma()
            .expect("an RDMA mount")
            .clone();
        for _ in 0..3 {
            victim.inject_qp_error();
            sim.sleep(RECONNECT_DELAY * 2).await;
        }
        testbed.stop();
        let cluster = testbed.cluster.as_ref().expect("a replicated bed");
        let halves = |i: usize| {
            let qps = cluster.nodes[i].qps.borrow();
            (qps.len(), qps.iter().filter(|q| q.is_error()).count())
        };
        (victim.stats().reconnects.get(), halves(0), halves(1))
    });
    let clients = 2;
    assert_eq!(run.0, 3, "every forced error reconnected");
    assert_eq!(run.1, (clients + 1, 0), "primary: (server halves, errored)");
    assert_eq!(run.2, (0, 0), "backup: (server halves, errored)");
}

/// Bursts of verified writes on the single server with client 0's QP
/// forced into error `errors` times — first mid-burst, then once each
/// reconnect has settled — and every injected error recovered: `(live
/// tasks once mounted, live tasks at quiescence, reconnects)`.
fn tasks_across_reconnects(spec: Bed, errors: u64) -> (usize, usize, u64) {
    let mut sim = Simulation::new(85);
    let h = sim.handle();
    let testbed = Rc::new(spec.build_now(&h));
    sim.run();
    let mounted = sim.live_tasks();
    let tb = testbed.clone();
    sim.block_on(async move {
        let victim = tb.clients[0].nfs.rdma().expect("an RDMA mount").clone();
        let h2 = h.clone();
        h.spawn(async move {
            h2.sleep(SimDuration::from_micros(300)).await;
            victim.inject_qp_error();
            for _ in 1..errors {
                h2.sleep(RECONNECT_DELAY * 2).await;
                victim.inject_qp_error();
            }
        });
        let root = tb.server.root_handle();
        let log = Default::default();
        let corrupt = scenario::verified_writers(&h, &tb.clients, root, WRITERS, &log);
        assert_eq!(corrupt.await, 0);
    });
    sim.run();
    let rdma = testbed.clients[0].nfs.rdma().expect("an RDMA mount");
    (mounted, sim.live_tasks(), rdma.stats().reconnects.get())
}

/// Two clients on `design`/`strategy`.
fn single(design: Design, strategy: StrategyKind) -> Bed {
    Bed {
        clients: 2,
        ..Bed::new(&linux_sdr(), design, strategy)
    }
}

/// Live-task closure on the single server, under both designs and two
/// strategies: at quiescence the recovered connection's tasks stand in
/// for the dead one's and the dead one left nothing parked — its queue
/// pairs' sender loops end when the pair is dropped (the engine's
/// channel closes), its send-queue completion routers when their CQs
/// lose their last QP, and the reply dispatcher and the server's
/// connection loop on the flushed receives. A builder or layer that
/// leaks a task per reconnect fails here by bed.
#[test]
fn a_reconnect_leaves_only_the_known_residue() {
    for design in [Design::ReadWrite, Design::ReadRead] {
        for strategy in [StrategyKind::Dynamic, StrategyKind::Cache] {
            let spec = single(design, strategy);
            let (mounted, live, reconnects) = tasks_across_reconnects(spec, 1);
            let tag = format!("{design:?}/{strategy:?}");
            assert_eq!(reconnects, 1, "{tag}");
            assert_eq!(live, mounted, "{tag}: tasks alive at quiescence");
        }
    }
}

/// The closure proper: the recovered connection's tasks replace the dead
/// one's one for one, however many times it reconnects.
#[test]
fn a_reconnect_replaces_its_tasks_one_for_one() {
    let (design, strategy) = (Design::ReadWrite, StrategyKind::Dynamic);
    let spec = single(design, strategy);
    let (mounted, live, reconnects) = tasks_across_reconnects(spec, 3);
    assert_eq!(reconnects, 3, "every forced error reconnected");
    assert_eq!(live, mounted, "tasks alive at quiescence");
}

/// On the replicated bed the heartbeat pacer is the one task that paces
/// itself: `stop` ends it, so once its sleep runs out the bed holds one
/// task fewer than it was mounted with.
#[test]
fn stop_ends_the_heartbeat_pacer() {
    let spec = bed(Design::ReadWrite, replicated());
    // Build the bed in `sim`: the slot fills with the instant it is up.
    let build = |sim: &Simulation| {
        let (slot, h) = (Rc::new(RefCell::new(None)), sim.handle());
        let built = slot.clone();
        sim.spawn(async move {
            let testbed = spec.build(&h).await;
            *built.borrow_mut() = Some((h.now(), testbed));
        });
        slot
    };
    let later = SimDuration::from_millis(10);
    let mut probe = Simulation::new(5);
    let up = build(&probe);
    probe.run_until(SimTime::ZERO + later);
    let mounted_at = up.borrow().as_ref().expect("the bed is up").0;

    let mut sim = Simulation::new(5);
    let up = build(&sim);
    sim.run_until(mounted_at + SimDuration::from_nanos(1));
    let mounted = sim.live_tasks();
    up.borrow().as_ref().expect("the bed is up").1.stop();
    sim.run_until(mounted_at + later);
    assert_eq!(sim.live_tasks(), mounted - 1, "the pacer did not end");
}
