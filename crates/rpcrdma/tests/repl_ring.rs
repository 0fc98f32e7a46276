//! Properties of the one-sided replication channel: the backup's log
//! ring never overruns (every shipped record arrives intact and in
//! order, regardless of record sizes vs ring capacity), and a slow
//! backup backpressures the shipper instead of dropping records.

use std::cell::RefCell;
use std::rc::Rc;

use ib_verbs::{connect, Fabric, Hca, HcaConfig, HostMem, NodeId, PhysLayout};
use proptest::prelude::*;
use rpcrdma::{CtrlWriter, LogRing, Shipper, RING_SENTINEL};
use sim_core::sync::oneshot;
use sim_core::{Cpu, CpuCosts, Payload, SimDuration, Simulation};

struct RunOut {
    /// (index, matched-content) per record the consumer pulled out.
    received: Vec<(usize, bool)>,
    blocked: u64,
    shipped_records: u64,
    shipped_bytes: u64,
    skipped_bytes: u64,
}

/// Ship `sizes` as synthetic records through a `ring_size`-byte ring;
/// the consumer burns `consumer_delay` per record and returns credits
/// every `publish_every` records.
fn run_ring(
    seed: u64,
    ring_size: u64,
    sizes: Vec<u64>,
    consumer_delay: SimDuration,
    publish_every: u64,
) -> RunOut {
    let mut sim = Simulation::new(seed);
    let h = sim.handle();
    sim.block_on(async move {
        let fabric = Fabric::new(&h);
        let mk = |id: u32| {
            let node = NodeId(id);
            let cpu = Cpu::new(&h, format!("cpu{id}"), 2, CpuCosts::default());
            let mem = Rc::new(HostMem::new(node, PhysLayout::default(), h.fork_rng()));
            Hca::new(&h, node, HcaConfig::sdr(), cpu, mem, &fabric)
        };
        let prod_hca = mk(0);
        let cons_hca = mk(1);
        let (qp_p, qp_b) = connect(&prod_hca, &cons_hca);
        let shipper = Shipper::new(&h, &prod_hca, qp_p).await;
        let ring = LogRing::new(&cons_hca, ring_size).await;
        let ctrl = CtrlWriter::new(qp_b, shipper.ctrl_target());
        shipper.attach(ring.target());

        let expected: Vec<Payload> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| Payload::synthetic(0x5eed_0000 + i as u64, len))
            .collect();

        // Consumer: drain placements until the sentinel, modelling a
        // backup CPU that takes `consumer_delay` to apply each record.
        let received: Rc<RefCell<Vec<(usize, bool)>>> = Rc::new(RefCell::new(Vec::new()));
        let (done_tx, done_rx) = oneshot();
        {
            let mut events = ring.take_events();
            let ring = ring.clone();
            let ctrl = ctrl.clone();
            let received = received.clone();
            let want = expected.clone();
            let sim2 = h.clone();
            h.spawn(async move {
                let mut applied = 0u64;
                while let Ok((addr, len)) = events.recv().await {
                    if addr == RING_SENTINEL {
                        break;
                    }
                    let rec = ring.consume(addr, len);
                    if consumer_delay > SimDuration::ZERO {
                        sim2.sleep(consumer_delay).await;
                    }
                    let idx = received.borrow().len();
                    let ok = idx < want.len() && rec.content_eq(&want[idx]);
                    received.borrow_mut().push((idx, ok));
                    applied += 1;
                    // Idle flush mirrors the cluster consumer: never
                    // sit on drained credits when the stream is quiet.
                    if applied.is_multiple_of(publish_every) || events.is_empty() {
                        ctrl.publish(ring.drained(), applied).await;
                    }
                }
                ctrl.publish(ring.drained(), applied).await;
                done_tx.send(());
            });
        }

        for p in &expected {
            shipper
                .ship(p.slice(0, p.len()))
                .await
                .expect("ship failed");
        }
        // Deposits are fire-and-forget; the sentinel is a local
        // injection that would outrun them. Wait for the consumer's
        // cumulative ack before ending the stream.
        shipper
            .wait_acked(expected.len() as u64)
            .await
            .expect("ack wait failed");
        ring.push_sentinel();
        let _ = done_rx.await;

        let received = received.borrow().clone();
        let count = |name: &str| h.metrics().get(&format!("repl.{name}")).unwrap();
        RunOut {
            received,
            blocked: count("blocked"),
            shipped_records: count("shipped_records"),
            shipped_bytes: count("shipped_bytes"),
            skipped_bytes: count("skipped_bytes"),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bursty streams of arbitrary record sizes — up to the half-ring
    /// bound, forcing wraps and credit stalls — are delivered
    /// completely, in order, byte-for-byte, with credit accounting
    /// intact.
    #[test]
    fn ring_never_overruns_under_bursty_streams(
        seed in 0u64..1024,
        sizes in proptest::collection::vec(1u64..=2048, 1..48),
        publish_every in 1u64..4,
    ) {
        let out = run_ring(seed, 4096, sizes.clone(), SimDuration::ZERO, publish_every);
        prop_assert_eq!(out.received.len(), sizes.len(), "record lost or duplicated");
        for (idx, ok) in &out.received {
            prop_assert!(*ok, "record {idx} arrived out of order or corrupted");
        }
        prop_assert_eq!(out.shipped_records, sizes.len() as u64);
        let total: u64 = sizes.iter().sum();
        prop_assert_eq!(out.shipped_bytes, total);
        // Pad-skips never exceed one ring lap per wrap.
        prop_assert!(out.skipped_bytes <= total + 4096);
    }
}

/// A backup that is much slower than the producer forces the shipper
/// to wait on credits (backpressure) — and still nothing is dropped.
#[test]
fn slow_backup_backpressures_instead_of_dropping() {
    let sizes: Vec<u64> = (0..64).map(|i| 512 + (i % 7) * 256).collect();
    let n = sizes.len();
    let out = run_ring(7, 4096, sizes, SimDuration::from_micros(50), 1);
    assert_eq!(out.received.len(), n, "slow consumer must not lose records");
    assert!(
        out.received.iter().all(|(_, ok)| *ok),
        "records must arrive intact and in order"
    );
    assert!(
        out.blocked > 0,
        "a slow backup must stall the shipper on credits"
    );
}

/// A fast backup with a roomy ring never blocks the producer.
#[test]
fn roomy_ring_never_blocks() {
    let sizes: Vec<u64> = vec![512; 16];
    let out = run_ring(9, 1 << 20, sizes, SimDuration::ZERO, 4);
    assert_eq!(out.received.len(), 16);
    assert_eq!(out.blocked, 0);
}

/// A record past the half-ring bound is refused outright: its wrap
/// charge could exceed the ring's total credit supply and deadlock.
#[test]
#[should_panic(expected = "exceeds half the ring")]
fn oversized_record_is_refused() {
    let _ = run_ring(3, 4096, vec![2049], SimDuration::ZERO, 1);
}
