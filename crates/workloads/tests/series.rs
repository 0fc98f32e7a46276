//! Every count the stack keeps is a registry series. A replicated
//! WAL-backed bed lives through a primary kill, the backup's promotion
//! and the killed node's rejoin; afterwards every statistic the layers
//! count exists as a series of the run, and where a typed accessor
//! stays, it reads the same number. Beside that: an HCA's totals
//! survive the QPs they were counted on, and the frozen benchmark's
//! per-layer reads resolve on the bed shapes it reads them on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ib_verbs::Hca;
use rpcrdma::{Design, StrategyKind};
use sim_core::{SimDuration, Simulation};
use workloads::scenario::{self, WriterSpec};
use workloads::{
    build_rdma, failover_bed, linux_ddr_raid, linux_sdr, solaris_sdr, Backend, Bed, Capture,
    ClusterConfig, Testbed,
};

/// The failover bed's primary and backup: node 0, and node 4 behind
/// the three clients.
const SERVERS: [u32; 2] = [0, 4];

/// Each client's records: 48 × 8 KiB UNSTABLE WRITEs, COMMIT every 8 —
/// long enough that the rejoin lands while the promoted primary still
/// serves.
const WRITERS: WriterSpec = WriterSpec {
    prefix: "series",
    records: 48,
    record: 8192,
    seed_base: 0x5e71e5,
    commit_every: 8,
};

/// What the run leaves behind: `(series, value)` pairs read through
/// the typed accessors that stay, and the run's outcome.
#[derive(Debug, PartialEq)]
struct Accessed {
    corrupt: u64,
    promoted: bool,
    reads: Vec<(String, u64)>,
}

/// The accessor reads of every server node and every HCA, each paired
/// with the series it must equal.
fn accessor_reads(testbed: &Testbed) -> Vec<(String, u64)> {
    let cluster = testbed.cluster.as_ref().expect("a replicated bed");
    let mut reads = Vec::new();
    let mut read = |name: String, value: u64| reads.push((name, value));
    for (node, n) in SERVERS.iter().zip(&cluster.nodes) {
        let nfs = &n.server.stats;
        read(format!("nfs.node{node}.reads"), nfs.reads.get());
        read(format!("nfs.node{node}.writes"), nfs.writes.get());
        read(format!("nfs.node{node}.others"), nfs.others.get());
        let gauge = format!("server.node{node}.peak_inflight");
        read(gauge, n.rpc.stats.peak_inflight.get());
        read("server.copied_bytes".into(), n.rpc.stats.copied_bytes.get());
        let cache = n.disk.as_ref().expect("a WAL-backed RAID").store().cache();
        read(format!("pagecache.node{node}.hits"), cache.hits());
        read(format!("pagecache.node{node}.misses"), cache.misses());
    }
    let clients = testbed.clients.iter().filter_map(|c| c.hca.as_ref());
    let hcas: Vec<&Hca> = cluster
        .nodes
        .iter()
        .map(|n| &n.hca)
        .chain(clients)
        .collect();
    for hca in hcas {
        let (node, s) = (hca.node().0, hca.reg_stats());
        let fields = [
            ("dynamic_regs", s.dynamic_regs),
            ("deregs", s.deregs),
            ("fmr_maps", s.fmr_maps),
            ("fmr_unmaps", s.fmr_unmaps),
            ("leaked_mrs", s.leaked_mrs),
            ("pages_pinned", s.pages_pinned),
            ("pages_unpinned", s.pages_unpinned),
            ("doorbells", hca.doorbells()),
            ("cq_interrupts", hca.cq_interrupts()),
        ];
        for (field, value) in fields {
            read(format!("hca.node{node}.{field}"), value);
        }
    }
    reads
}

/// Every former `*Stats` field, mirror-only count and gauge that no
/// typed accessor reads any more: each must still be a series.
fn unread_series() -> Vec<String> {
    let mut names: Vec<String> = [
        "fs.wal.appends",
        "fs.wal.appended_bytes",
        "fs.wal.flushes",
        "fs.wal.flushed_bytes",
        "fs.wal.commits",
        "fs.wal.committed_records",
        "fs.wal.truncated_records",
        "fs.wal.replayed_records",
        "fs.wal.replayed_bytes",
        "fs.wal.rejoin_truncated_records",
        "fs.wal.resync_bytes",
        "pagecache.readahead.windows",
        "pagecache.readahead.pages",
        "pagecache.readahead.sequential",
        "tpt.violations",
        "tpt.revocations",
        "server.drc.hits",
        "server.drc.inprogress_drops",
        "server.drc.inserts",
        "server.drc.evictions",
        "repl.shipped_records",
        "repl.shipped_bytes",
        "repl.skipped_bytes",
        "repl.blocked",
        "repl.logged",
        "repl.acked_markers",
        "repl.interrupted_markers",
        "repl.resync_records",
        "nfs.client.redriven_writes",
        "nfs.client.verf_mismatches",
    ]
    .map(String::from)
    .into();
    for node in SERVERS {
        for field in [
            "nfs.node{}.bytes_read",
            "nfs.node{}.bytes_written",
            "nfs.node{}.unstable_writes",
            "nfs.node{}.commits",
            "nfs.node{}.clean_commits",
            "pagecache.node{}.writebacks",
            "server.node{}.inflight",
            "server.node{}.exposures_pending",
            "server.node{}.qos_peak_depth",
            "repl.node{}.credit_returns",
            "hca.node{}.cq_coalesced",
            "hca.node{}.fmr_fallbacks",
        ] {
            names.push(field.replace("{}", &node.to_string()));
        }
    }
    names
}

#[test]
fn every_former_statistic_is_a_series() {
    let run = scenario::run(0xFA11, Capture::default(), |sim| async move {
        let testbed = failover_bed(&linux_sdr(), ClusterConfig::default())
            .build(&sim)
            .await;
        let cluster = testbed.cluster.clone().expect("a replicated bed");
        // Kill the primary mid-burst; rejoin it 1 ms after the backup
        // has promoted itself.
        let (c, s) = (cluster.clone(), sim.clone());
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(1500)).await;
            c.kill_primary(&s);
            while !c.promoted.get() {
                s.sleep(SimDuration::from_micros(100)).await;
            }
            s.sleep(SimDuration::from_millis(1)).await;
            c.rejoin(&s, 0).await;
        });
        let root = testbed.server.root_handle();
        let log = Default::default();
        let corrupt = scenario::verified_writers(&sim, &testbed.clients, root, WRITERS, &log).await;
        testbed.stop();
        Accessed {
            corrupt,
            promoted: cluster.promoted.get(),
            reads: accessor_reads(&testbed),
        }
    });
    assert_eq!(run.corrupt, 0);
    assert!(run.promoted, "the backup never promoted");
    for (name, accessor) in &run.reads {
        assert_eq!(
            run.metric(name),
            *accessor,
            "{name}: series and accessor disagree"
        );
    }
    for name in unread_series() {
        assert!(
            run.metrics.iter().any(|(series, _)| *series == name),
            "no series {name}"
        );
    }
    // The counts the failover exercised, now read as series.
    assert!(run.metric("nfs.client.redriven_writes") > 0, "no re-drive");
    assert!(run.metric("fs.wal.resync_bytes") > 0, "no rejoin catch-up");
    assert!(
        run.metric("repl.resync_records") > 0,
        "no record re-shipped"
    );
    assert!(
        run.metric("repl.node4.credit_returns") > 0,
        "the promoted node never shipped"
    );
}

/// An HCA's doorbell and interrupt totals are monotonic series: a QP
/// torn down after a forced error leaves the HCA, and what it counted
/// stays counted. Sampled every 20 us across three forced errors.
#[test]
fn hca_totals_never_decrease_across_forced_qp_errors() {
    const ROUNDS: [&str; 3] = ["one", "two", "three"];
    let run = scenario::run(85, Capture::default(), |sim| async move {
        let bed = Bed {
            clients: 2,
            ..Bed::new(&linux_sdr(), Design::ReadWrite, StrategyKind::Dynamic)
        };
        let testbed = bed.build(&sim).await;
        let hcas: Vec<Hca> = (testbed.server_hca.iter())
            .chain(testbed.clients.iter().filter_map(|c| c.hca.as_ref()))
            .cloned()
            .collect();
        let samples = Rc::new(RefCell::new(Vec::new()));
        let done = Rc::new(Cell::new(false));
        let (s, seen, stop) = (sim.clone(), samples.clone(), done.clone());
        sim.spawn(async move {
            while !stop.get() {
                let totals: Vec<(u64, u64)> = hcas
                    .iter()
                    .map(|h| (h.doorbells(), h.cq_interrupts()))
                    .collect();
                seen.borrow_mut().push(totals);
                s.sleep(SimDuration::from_micros(20)).await;
            }
        });
        let victim = testbed.clients[0]
            .nfs
            .rdma()
            .expect("an RDMA mount")
            .clone();
        let root = testbed.server.root_handle();
        for prefix in ROUNDS {
            let (v, s) = (victim.clone(), sim.clone());
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(300)).await;
                v.inject_qp_error();
            });
            let spec = WriterSpec { prefix, ..WRITERS };
            let log = Default::default();
            let corrupt = scenario::verified_writers(&sim, &testbed.clients, root, spec, &log);
            assert_eq!(corrupt.await, 0);
        }
        done.set(true);
        let samples = samples.borrow().clone();
        (victim.stats().reconnects.get(), samples)
    });
    let (reconnects, samples) = &run.out;
    assert_eq!(
        *reconnects,
        ROUNDS.len() as u64,
        "every forced error reconnected"
    );
    for pair in samples.windows(2) {
        for (hca, (was, now)) in pair[0].iter().zip(&pair[1]).enumerate() {
            assert!(
                now.0 >= was.0,
                "HCA {hca}: doorbells fell {} -> {}",
                was.0,
                now.0
            );
            assert!(
                now.1 >= was.1,
                "HCA {hca}: interrupts fell {} -> {}",
                was.1,
                now.1
            );
        }
    }
    let (first, last) = (&samples[0], &samples[samples.len() - 1]);
    assert!(last.iter().zip(first).all(|(l, f)| l.0 > f.0 && l.1 > f.1));
}

/// The four bed shapes of `benchmark/` (its `closed.rs` and `meta.rs`):
/// name, `build_rdma` arguments, and whether the shape has a
/// registration cache and a page cache (the probe reads those two as
/// optional and prints `n/a` where a shape has none).
type Shape = (
    &'static str,
    fn() -> workloads::Profile,
    StrategyKind,
    Backend,
    usize,
    bool,
    bool,
);

const SHAPES: [Shape; 4] = [
    (
        "seq_read",
        solaris_sdr,
        StrategyKind::Dynamic,
        Backend::Tmpfs,
        1,
        false,
        false,
    ),
    (
        "seq_write",
        solaris_sdr,
        StrategyKind::Cache,
        Backend::Tmpfs,
        1,
        true,
        false,
    ),
    (
        "raid_read",
        linux_ddr_raid,
        StrategyKind::AllPhysical,
        Backend::Raid {
            ram_bytes: 704 << 20,
        },
        4,
        false,
        true,
    ),
    (
        "meta_mix",
        linux_sdr,
        StrategyKind::AllPhysical,
        Backend::Tmpfs,
        4,
        false,
        false,
    ),
];

/// Every series name and accessor `benchmark/src/probe.rs` reads
/// resolves on the shape it reads it on, and the optional ones exist
/// exactly where the shape has the layer. A rename would otherwise
/// print `n/a` in the benchmark without failing anything.
#[test]
fn the_benchmark_reads_resolve_on_its_bed_shapes() {
    for (name, profile, strategy, backend, clients, regcache, pagecache) in SHAPES {
        let sim = Simulation::new(1);
        let h = sim.handle();
        let bed = build_rdma(
            &h,
            &profile(),
            Design::ReadWrite,
            strategy,
            backend,
            clients,
        );
        let m = h.metrics();
        for series in [
            "executor.polls",
            "tpt.violations",
            "client.retransmits",
            "client.timeouts",
            "server.drc.replays",
            "server.read.zero_copy_bytes",
            "server.write.zero_copy_bytes",
        ] {
            assert!(m.get(series).is_some(), "{name}: no series {series}");
        }
        let snapshot = m.snapshot();
        let any = |head: &str, tail: &str| {
            (snapshot.iter()).any(|(k, _)| k.starts_with(head) && k.ends_with(tail))
        };
        assert!(
            any("fabric.", ".retransmits"),
            "{name}: no fabric retransmits"
        );
        let cached = any("rpcrdma.regcache.", ".hits") && any("rpcrdma.regcache.", ".misses");
        assert_eq!(cached, regcache, "{name}: registration cache series");
        let readahead = m.get("pagecache.readahead.pages").is_some();
        assert_eq!(readahead, pagecache, "{name}: readahead series");
        // The typed reads, as the probe makes them.
        let server_hca = bed.server_hca.as_ref().expect("an RDMA bed");
        let rpc = bed.rpc_server.as_ref().expect("an RDMA bed");
        let s = server_hca.reg_stats();
        let nfs = &bed.server.stats;
        let counts = [
            s.dynamic_regs + s.fmr_maps + s.pages_pinned,
            server_hca.doorbells() + server_hca.cq_interrupts(),
            rpc.stats.copied_bytes.get() + rpc.stats.peak_inflight.get(),
            nfs.reads.get() + nfs.writes.get() + nfs.others.get(),
        ];
        assert_eq!(counts, [0; 4], "{name}: counts before any traffic");
        assert_eq!(bed.clients.len(), clients, "{name}");
        assert!(bed.clients.iter().all(|c| c.hca.is_some()), "{name}");
        let cache = bed.disk_store.as_ref().map(|d| d.store().cache().clone());
        assert_eq!(cache.is_some(), pagecache, "{name}: page cache");
        if let Some(c) = cache {
            assert_eq!((c.hits(), c.misses(), c.page_size()), (0, 0, 256 * 1024));
        }
    }
}
