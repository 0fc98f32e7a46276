//! Ablation studies for the design choices DESIGN.md calls out — these
//! go beyond the paper's figures and probe *why* the Read-Write design
//! wins and where its knobs sit.
//!
//! 1. **Zero-copy decomposition**: how much of the RW design's client
//!    CPU win is the zero-copy direct-I/O path vs the protocol change
//!    itself (DONE elimination, server push)?
//! 2. **ORD sensitivity**: the paper blames the IRD/ORD ≤ 8 limit for
//!    WRITE-path throttling; sweep the window and find where it
//!    actually binds given in-order responder execution.
//! 3. **Inline threshold**: when do small RPCs stop fitting inline and
//!    start paying long-call RDMA Reads?
//! 4. **Credit window**: the paper's stated future work — how deep must
//!    the flow-control window be to keep the pipe full per thread
//!    count?

use nfs::proto::readdir_reply_max;
use nfs::NFS_DTSIZE;
use rpcrdma::{Design, RfpConfig, StrategyKind};
use sim_core::sweep::parallel_sweep;
use sim_core::{SimDuration, Simulation};
use workloads::{
    build_rdma, build_rdma_custom, linux_sdr, mb, pct, run_iozone, run_openloop, solaris_sdr,
    Arrival, Backend, IoMode, IozoneParams, OpMix, OpenLoopParams, OpenLoopResult, Profile,
    RdmaOpts, Table,
};

const FILE: u64 = 32 << 20;

fn iozone(
    profile: Profile,
    design: Design,
    strategy: StrategyKind,
    mode: IoMode,
    threads: u32,
    record: u64,
) -> workloads::IozoneResult {
    let mut sim = Simulation::new(0xAB1A);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = build_rdma(&h, &profile, design, strategy, Backend::Tmpfs, 1);
        run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: threads,
                file_size: FILE,
                record,
                mode,
                ..Default::default()
            },
        )
        .await
    })
}

fn zero_copy_decomposition() {
    let base = solaris_sdr();
    let mut no_zc = base;
    no_zc.rpc.zero_copy_read = false;

    let rows: Vec<(&str, Profile, Design)> = vec![
        ("Read-Read (baseline)", base, Design::ReadRead),
        ("Read-Write, copy-out", no_zc, Design::ReadWrite),
        ("Read-Write, zero-copy", base, Design::ReadWrite),
    ];
    let results = parallel_sweep(rows.clone(), |(_, p, d)| {
        (
            iozone(p, d, StrategyKind::Dynamic, IoMode::Read, 1, 128 * 1024),
            iozone(p, d, StrategyKind::Dynamic, IoMode::Read, 8, 128 * 1024),
        )
    });
    let mut t = Table::new(
        "Ablation 1 — where the Read-Write win comes from (READ, 128K)",
        &["variant", "1-thr MB/s", "8-thr MB/s", "8-thr client CPU"],
    );
    for ((label, _, _), (one, eight)) in rows.iter().zip(results) {
        t.row(&[
            label.to_string(),
            mb(one.bandwidth_mb),
            mb(eight.bandwidth_mb),
            pct(eight.client_cpu),
        ]);
    }
    bench::emit("ablation_zerocopy", &t);
    println!(
        "Takeaway: the protocol change (no RDMA_DONE, server push) buys the \
         bandwidth; the zero-copy path buys the flat client CPU curve.\n"
    );
}

fn ord_sensitivity() {
    let orders = [1usize, 2, 4, 8, 16, 32];
    let results = parallel_sweep(orders.to_vec(), |ord| {
        let mut p = solaris_sdr();
        p.hca.max_ord = ord;
        p.hca.max_ird = ord;
        iozone(
            p,
            Design::ReadWrite,
            StrategyKind::Cache,
            IoMode::Write,
            8,
            128 * 1024,
        )
    });
    let mut t = Table::new(
        "Ablation 2 — ORD/IRD window vs NFS WRITE bandwidth (8 threads, cache)",
        &["ord/ird", "write MB/s"],
    );
    for (ord, r) in orders.iter().zip(results) {
        t.row(&[ord.to_string(), mb(r.bandwidth_mb)]);
    }
    bench::emit("ablation_ord", &t);
    println!(
        "Takeaway: because an RC responder executes reads in order, the \
         window stops mattering once request latency is covered — the \
         serialized read engine, not the depth-8 limit, is the real WRITE \
         ceiling.\n"
    );
}

/// One point of the inline-threshold ablation.
#[derive(Clone, Copy, PartialEq, Debug)]
struct InlineOutcome {
    readdirs_per_s: f64,
    /// Pages the client registered per READDIR (its reply chunk).
    client_pages_per_op: f64,
    /// The reply outgrew the threshold and travelled by the reply
    /// chunk: the server registered a source buffer for the RDMA Write.
    long_reply: bool,
}

/// The inline threshold decides when an RPC reply still fits in the
/// Send and when it must become a long reply (a server-side
/// registration and an RDMA Write into the client's reply chunk).
/// READDIR of a populated directory is the canonical boundary case
/// (paper §3.1): one call, its ~2 KiB reply on either side of the
/// threshold. The client provisions for the READDIR's `count`
/// (`NFS_DTSIZE`) at every threshold below it — the reply's *bound*,
/// not its size, decides that.
fn inline_point(inline: u64, rounds: u32) -> InlineOutcome {
    let mut p = solaris_sdr();
    p.rpc.inline_threshold = inline;
    let mut sim = Simulation::new(0x1712);
    let h = sim.handle();
    sim.block_on(async move {
        let bed = build_rdma(
            &h,
            &p,
            Design::ReadWrite,
            StrategyKind::Dynamic,
            Backend::Tmpfs,
            1,
        );
        let root = bed.server.root_handle();
        let c = &bed.clients[0];
        let dir = c.nfs.mkdir(root, "crowd").await.unwrap();
        // 40 bytes of XDR per entry: 50 entries are a 2 KiB reply.
        for i in 0..50 {
            c.nfs
                .create(dir.handle(), &format!("entry-{i:04}"))
                .await
                .unwrap();
        }
        let (client_hca, server_hca) = (c.hca.as_ref().unwrap(), bed.server_hca.as_ref().unwrap());
        let pinned = client_hca.reg_stats().pages_pinned;
        let server_regs = server_hca.reg_stats().dynamic_regs;
        let t0 = h.now();
        for _ in 0..rounds {
            let entries = c.nfs.readdir(dir.handle()).await.unwrap();
            assert_eq!(entries.len(), 50);
        }
        let secs = h.now().saturating_since(t0).as_secs_f64();
        let pinned = client_hca.reg_stats().pages_pinned - pinned;
        InlineOutcome {
            readdirs_per_s: rounds as f64 / secs,
            client_pages_per_op: pinned as f64 / rounds as f64,
            long_reply: server_hca.reg_stats().dynamic_regs > server_regs,
        }
    })
}

const INLINE_THRESHOLDS: [u64; 4] = [256, 1024, 4096, 16384];

/// What every point of the ablation must show: no READDIR registers
/// more than its count's worth of pages, and every inline reply beats
/// every long reply.
fn check_inline(points: &[InlineOutcome]) {
    let bound = readdir_reply_max(NFS_DTSIZE).div_ceil(ib_verbs::PAGE_SIZE) as f64;
    for p in points {
        assert!(
            p.client_pages_per_op <= bound,
            "{} pages registered per READDIR, over the NFS_DTSIZE bound of {bound}",
            p.client_pages_per_op
        );
    }
    let rate = |long| {
        let of_path = points.iter().filter(move |p| p.long_reply == long);
        of_path.map(|p| p.readdirs_per_s)
    };
    let (slowest_inline, fastest_long) = (
        rate(false).fold(f64::INFINITY, f64::min),
        rate(true).fold(0.0, f64::max),
    );
    assert!(
        fastest_long > 0.0 && slowest_inline.is_finite(),
        "the sweep must straddle the reply size"
    );
    assert!(
        slowest_inline > fastest_long,
        "inline READDIR {slowest_inline:.0}/s not faster than long-reply {fastest_long:.0}/s"
    );
}

/// Ablation 3 gate for `check.sh`.
fn inline_smoke() {
    let mut points: Vec<u64> = INLINE_THRESHOLDS.to_vec();
    points.push(INLINE_THRESHOLDS[1]); // same-seed rerun
    let runs = parallel_sweep(points, |inline| inline_point(inline, 40));
    let (sweep, rerun) = runs.split_at(INLINE_THRESHOLDS.len());
    check_inline(sweep);
    assert_eq!(sweep[1], rerun[0], "same-seed inline runs diverged");
    println!(
        "inline smoke: long reply {:.0} -> inline {:.0} READDIR/s, {} pages registered per READDIR",
        sweep[0].readdirs_per_s, sweep[3].readdirs_per_s, sweep[0].client_pages_per_op
    );
    println!("inline smoke OK");
}

fn inline_threshold_sweep() {
    let results = parallel_sweep(INLINE_THRESHOLDS.to_vec(), |inline| {
        inline_point(inline, 200)
    });
    check_inline(&results);
    let mut t = Table::new(
        "Ablation 3 — inline threshold vs READDIR throughput (50 entries, ~2 KiB reply)",
        &[
            "inline bytes",
            "readdir ops/s",
            "client pages registered/op",
            "path taken",
        ],
    );
    for (inline, r) in INLINE_THRESHOLDS.iter().zip(results) {
        let path = if r.long_reply {
            "long reply (reply chunk)"
        } else {
            "inline reply"
        };
        t.row(&[
            inline.to_string(),
            format!("{:.0}", r.readdirs_per_s),
            format!("{:.0}", r.client_pages_per_op),
            path.to_string(),
        ]);
    }
    bench::emit("ablation_inline", &t);
    println!(
        "Takeaway: the client registers for the READDIR's count (9 pages, \
         not the 256 of a 1 MiB guess) at every threshold below it; crossing \
         the threshold adds the server's registration + RDMA Write on top, \
         so generous inline space is still cheap insurance for \
         metadata-heavy workloads.\n"
    );
}

fn credit_window_sweep() {
    let credits = [1u32, 2, 4, 8, 16, 32, 64];
    let results = parallel_sweep(credits.to_vec(), |cr| {
        let mut p = solaris_sdr();
        p.rpc.credits = cr;
        iozone(
            p,
            Design::ReadWrite,
            StrategyKind::Cache,
            IoMode::Read,
            8,
            128 * 1024,
        )
    });
    let mut t = Table::new(
        "Ablation 4 — credit window vs READ bandwidth (8 threads, cache)",
        &["credits", "read MB/s"],
    );
    for (cr, r) in credits.iter().zip(results) {
        t.row(&[cr.to_string(), mb(r.bandwidth_mb)]);
    }
    bench::emit("ablation_credits", &t);
    println!(
        "Takeaway (the paper's future work): the window must cover the \
         pipeline depth of the bottleneck stage (~4 ops here); beyond \
         that, extra credits only cost receive buffers.\n"
    );
}

fn msgp_small_write_fast_path() {
    // RDMA_MSGP (the paper's Figure-2 message type 2, implemented as an
    // extension): small writes ride inline instead of paying a
    // registration plus a server-side RDMA Read.
    let sizes = [512u64, 1024, 4096, 16384];
    let results = parallel_sweep(
        sizes
            .iter()
            .flat_map(|&s| [(s, false), (s, true)])
            .collect::<Vec<_>>(),
        |(record, msgp)| {
            // Linux profile: the lean task queue leaves registration as
            // the binding constraint, which is what MSGP removes.
            let mut p = workloads::linux_sdr();
            // The transport picks MSGP for a payload within the inline
            // threshold: lift it so every swept size qualifies, or drop
            // it below the smallest so every one is chunked.
            p.rpc.inline_threshold = if msgp { 16 * 1024 } else { 256 };
            iozone(
                p,
                Design::ReadWrite,
                StrategyKind::Dynamic,
                IoMode::Write,
                8,
                record,
            )
        },
    );
    let mut t = Table::new(
        "Ablation 5 — RDMA_MSGP padded-inline small writes (8 threads)",
        &["record", "chunked MB/s", "MSGP MB/s", "speedup"],
    );
    for (i, record) in sizes.iter().enumerate() {
        let base = &results[i * 2];
        let msgp = &results[i * 2 + 1];
        t.row(&[
            record.to_string(),
            mb(base.bandwidth_mb),
            mb(msgp.bandwidth_mb),
            format!("{:.2}x", msgp.bandwidth_mb / base.bandwidth_mb),
        ]);
    }
    bench::emit("ablation_msgp", &t);
    println!(
        "Takeaway: below the inline threshold, MSGP removes both per-op \
         registrations and the serialized RDMA Read — the small-write \
         path the chunked protocol penalizes most.\n"
    );
}

/// One measured point of the batching ablation.
#[derive(Clone, Copy)]
struct BatchPoint {
    /// Server doorbell batch depth (and CQ coalesce count when > 1).
    depth: usize,
    /// Client threads.
    threads: u32,
    /// Server-side zero-copy gather on/off (off = staged copy path).
    zero_copy: bool,
    /// Server registration strategy.
    server_strategy: StrategyKind,
    /// Client registration strategy (Dynamic for the bandwidth rows;
    /// the cache for the 4K IOPS rows, per the paper's small-I/O
    /// recommendation).
    client_strategy: StrategyKind,
    /// Record size (1M streams bandwidth; 4K stresses per-op rates).
    record: u64,
    /// File size per thread.
    file_size: u64,
    /// Linux profile (lean task queue) instead of Solaris.
    linux: bool,
}

/// Measured outcome: bandwidth plus per-RPC doorbell/interrupt rates
/// read off the server HCA after the run.
struct BatchOutcome {
    bandwidth_mb: f64,
    doorbells_per_op: f64,
    interrupts_per_op: f64,
    coalesced_per_op: f64,
    zero_copy_mb: f64,
}

fn batching_point(p: BatchPoint) -> BatchOutcome {
    let profile = if p.linux {
        workloads::linux_sdr()
    } else {
        solaris_sdr()
    };
    let mut sim = Simulation::new(0xAB1A);
    let h = sim.handle();
    sim.block_on(async move {
        let mut cfg = profile.rpc.with_design(Design::ReadWrite);
        cfg.server_zero_copy = p.zero_copy;
        cfg.server_doorbell_batch = p.depth;
        let mut server_hca = profile.hca;
        if p.depth > 1 {
            // Interrupt moderation scales with the doorbell batch: the
            // completion side coalesces as deeply as the posting side.
            server_hca.cq_coalesce_count = p.depth;
            server_hca.cq_coalesce_delay = SimDuration::from_micros(64);
        }
        let bed = build_rdma_custom(
            &h,
            &profile,
            RdmaOpts {
                cfg,
                client_strategy: p.client_strategy,
                server_strategy: p.server_strategy,
                server_hca: Some(server_hca),
            },
            Backend::Tmpfs,
            1,
        );
        let r = run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: p.threads,
                file_size: p.file_size,
                record: p.record,
                mode: IoMode::Read,
                ..Default::default()
            },
        )
        .await;
        let hca = bed.server_hca.as_ref().expect("rdma testbed");
        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        // Per-RPC rates over every op the server served (the READ pass
        // plus one CREATE per thread; the counters span the whole run).
        let ops = rpc.stats.ops.get().max(1) as f64;
        BatchOutcome {
            bandwidth_mb: r.bandwidth_mb,
            doorbells_per_op: hca.doorbells() as f64 / ops,
            interrupts_per_op: hca.cq_interrupts() as f64 / ops,
            coalesced_per_op: hca.cq_coalesced() as f64 / ops,
            zero_copy_mb: rpc.stats.zero_copy_bytes.get() as f64 / 1e6,
        }
    })
}

/// Fast subset of the batching sweep for `check.sh`: one baseline and
/// one batched point per section, with the PR's acceptance gates
/// asserted in-process (exit code carries the verdict).
fn batching_smoke() {
    let points = [
        BatchPoint {
            depth: 1,
            threads: 1,
            zero_copy: false,
            server_strategy: StrategyKind::Dynamic,
            client_strategy: StrategyKind::Dynamic,
            record: 1 << 20,
            file_size: 64 << 20,
            linux: false,
        },
        BatchPoint {
            depth: 1,
            threads: 1,
            zero_copy: true,
            server_strategy: StrategyKind::AllPhysical,
            client_strategy: StrategyKind::Dynamic,
            record: 1 << 20,
            file_size: 64 << 20,
            linux: false,
        },
        BatchPoint {
            depth: 4,
            threads: 8,
            zero_copy: true,
            server_strategy: StrategyKind::AllPhysical,
            client_strategy: StrategyKind::Cache,
            record: 4 << 10,
            file_size: 16 << 20,
            linux: true,
        },
    ];
    let r = parallel_sweep(points.to_vec(), batching_point);
    let speedup = r[1].bandwidth_mb / r[0].bandwidth_mb;
    println!(
        "batching smoke: zero-copy 1M speedup {:.2}x ({:.0} vs {:.0} MB/s); \
         depth-4 doorbells/op {:.3}, interrupts/op {:.3}",
        speedup,
        r[1].bandwidth_mb,
        r[0].bandwidth_mb,
        r[2].doorbells_per_op,
        r[2].interrupts_per_op
    );
    assert!(
        speedup >= 1.3,
        "zero-copy READ speedup {speedup:.2}x below the 1.3x acceptance floor"
    );
    assert!(
        r[2].doorbells_per_op < 1.0,
        "doorbells/op {:.3} not < 1 at batch depth 4",
        r[2].doorbells_per_op
    );
    assert!(
        r[2].interrupts_per_op < 1.0,
        "interrupts/op {:.3} not < 1 at batch depth 4",
        r[2].interrupts_per_op
    );
    bench::emit_bench_json(
        "read",
        &format!(
            concat!(
                "{{\n",
                "  \"bench\": \"read\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"baseline_mb_s\": {:.3},\n",
                "  \"zero_copy_mb_s\": {:.3},\n",
                "  \"speedup\": {:.3},\n",
                "  \"batched\": {{\n",
                "    \"doorbells_per_op\": {:.4},\n",
                "    \"interrupts_per_op\": {:.4},\n",
                "    \"coalesced_per_op\": {:.4}\n",
                "  }}\n",
                "}}\n"
            ),
            r[0].bandwidth_mb,
            r[1].bandwidth_mb,
            speedup,
            r[2].doorbells_per_op,
            r[2].interrupts_per_op,
            r[2].coalesced_per_op,
        ),
    );
    println!("batching smoke OK");
}

fn batching_sweep() {
    // Baseline: the pre-batching server (staged copy, per-WQE
    // doorbells, symmetric Dynamic registration) — the configuration
    // behind the shipped fig5 Read-Write 1M numbers. Tentpole: the
    // zero-copy pipeline on an all-physical server (no per-op TPT work
    // on the READ critical path) under increasing doorbell batch
    // depths, clients unchanged on Dynamic.
    // Section 1 (Solaris, 1M records): the bandwidth story — fig5's
    // Read-Write single-thread config, measured against the shipped
    // 171 MB/s. Section 2 (Linux, 4K records): the per-op rate story —
    // ops arrive every ~25us, so the depth-4+ batches actually fill
    // and the doorbell/interrupt rates drop below one per RPC.
    let sol = |depth, threads, zero_copy, server_strategy| BatchPoint {
        depth,
        threads,
        zero_copy,
        server_strategy,
        client_strategy: StrategyKind::Dynamic,
        record: 1 << 20,
        file_size: 64 << 20,
        linux: false,
    };
    let lin = |depth, threads, zero_copy, server_strategy| BatchPoint {
        depth,
        threads,
        zero_copy,
        server_strategy,
        client_strategy: StrategyKind::Cache,
        record: 4 << 10,
        file_size: 16 << 20,
        linux: true,
    };
    let mut points = vec![
        ("staged baseline", sol(1, 1, false, StrategyKind::Dynamic)),
        ("staged baseline", sol(1, 8, false, StrategyKind::Dynamic)),
    ];
    for depth in [1usize, 2, 4, 8, 16] {
        for threads in [1u32, 8] {
            points.push((
                "zero-copy all-phys",
                sol(depth, threads, true, StrategyKind::AllPhysical),
            ));
        }
    }
    let lin_start = points.len();
    points.push((
        "staged baseline 4K",
        lin(1, 8, false, StrategyKind::Dynamic),
    ));
    for depth in [1usize, 2, 4, 8, 16] {
        points.push((
            "zero-copy all-phys 4K",
            lin(depth, 8, true, StrategyKind::AllPhysical),
        ));
    }
    let results = parallel_sweep(points.clone(), |(_, p)| batching_point(p));
    let base_1t = results[0].bandwidth_mb;
    let base_8t = results[1].bandwidth_mb;
    let base_4k = results[lin_start].bandwidth_mb;
    let mut t = Table::new(
        "Ablation 6 — zero-copy READ pipeline + doorbell/completion batching \
         (RW design; clients Dynamic at 1M, Cache at 4K)",
        &[
            "variant",
            "record",
            "depth",
            "threads",
            "MB/s",
            "speedup",
            "doorbells/op",
            "interrupts/op",
            "coalesced/op",
            "zero-copy MB",
        ],
    );
    for (i, ((label, p), r)) in points.iter().zip(&results).enumerate() {
        let base = if i >= lin_start {
            base_4k
        } else if p.threads == 1 {
            base_1t
        } else {
            base_8t
        };
        t.row(&[
            label.to_string(),
            if p.record >= (1 << 20) { "1M" } else { "4K" }.to_string(),
            p.depth.to_string(),
            p.threads.to_string(),
            mb(r.bandwidth_mb),
            format!("{:.2}x", r.bandwidth_mb / base),
            format!("{:.3}", r.doorbells_per_op),
            format!("{:.3}", r.interrupts_per_op),
            format!("{:.3}", r.coalesced_per_op),
            format!("{:.1}", r.zero_copy_mb),
        ]);
    }
    bench::emit("ablation_batching", &t);
    println!(
        "Takeaway: removing server-side TPT work from the READ critical \
         path (zero-copy gather from an all-physical window) buys the \
         bandwidth; doorbell batching plus interrupt moderation then push \
         the per-RPC doorbell and interrupt rates below one at depth >= 4 \
         under concurrency.\n"
    );
}

/// One measured point of the WRITE-path ablation.
#[derive(Clone, Copy)]
struct WritePoint {
    /// Server-side zero-copy scatter on/off (off = staged copy of
    /// every pulled read chunk before the VFS write).
    zero_copy: bool,
    /// Server registration strategy.
    server_strategy: StrategyKind,
    /// Client threads.
    threads: u32,
    /// Record size.
    record: u64,
    /// Batch UNSTABLE writes and COMMIT once per file at close.
    commit_on_close: bool,
}

/// Measured outcome: bandwidth plus the server's data-movement and
/// UNSTABLE/COMMIT accounting after the run.
struct WriteOutcome {
    bandwidth_mb: f64,
    copied_mb: f64,
    write_zero_copy_mb: f64,
    unstable_writes: u64,
    commits: u64,
}

fn write_point(p: WritePoint) -> WriteOutcome {
    let profile = solaris_sdr();
    let mut sim = Simulation::new(0xAB1A);
    let h = sim.handle();
    sim.block_on(async move {
        let mut cfg = profile.rpc.with_design(Design::ReadWrite);
        cfg.server_zero_copy = p.zero_copy;
        let bed = build_rdma_custom(
            &h,
            &profile,
            RdmaOpts {
                cfg,
                client_strategy: StrategyKind::Dynamic,
                server_strategy: p.server_strategy,
                server_hca: None,
            },
            Backend::Tmpfs,
            1,
        );
        let r = run_iozone(
            &h,
            &bed,
            IozoneParams {
                threads_per_client: p.threads,
                file_size: 64 << 20,
                record: p.record,
                mode: IoMode::Write,
                commit_on_close: p.commit_on_close,
            },
        )
        .await;
        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        WriteOutcome {
            bandwidth_mb: r.bandwidth_mb,
            copied_mb: rpc.stats.copied_bytes.get() as f64 / 1e6,
            write_zero_copy_mb: rpc.stats.write_zero_copy_bytes.get() as f64 / 1e6,
            unstable_writes: bed.server.stats.unstable_writes.get(),
            commits: bed.server.stats.commits.get(),
        }
    })
}

/// The WRITE-path acceptance gates for `check.sh`: zero-copy scatter
/// on an all-physical server must beat the staged Dynamic baseline by
/// at least 1.3x at 1M records, with zero staged bytes at steady state
/// and every WRITE byte accounted by the zero-copy counter.
fn write_path_smoke() {
    let baseline = WritePoint {
        zero_copy: false,
        server_strategy: StrategyKind::Dynamic,
        threads: 1,
        record: 1 << 20,
        commit_on_close: false,
    };
    let zc = WritePoint {
        server_strategy: StrategyKind::AllPhysical,
        zero_copy: true,
        ..baseline
    };
    // The Cache strategy's pre-registered slabs are the one path that
    // must still bounce, even with the zero-copy knob on.
    let cache = WritePoint {
        server_strategy: StrategyKind::Cache,
        zero_copy: true,
        ..baseline
    };
    let r = parallel_sweep(vec![baseline, zc, cache], write_point);
    let speedup = r[1].bandwidth_mb / r[0].bandwidth_mb;
    println!(
        "write-path smoke: zero-copy 1M speedup {:.2}x ({:.0} vs {:.0} MB/s); \
         staged {:.1} MB copied, zero-copy counter {:.1} MB",
        speedup, r[1].bandwidth_mb, r[0].bandwidth_mb, r[1].copied_mb, r[1].write_zero_copy_mb
    );
    assert!(
        speedup >= 1.3,
        "zero-copy WRITE speedup {speedup:.2}x below the 1.3x acceptance floor"
    );
    assert!(
        r[1].copied_mb == 0.0,
        "zero-copy WRITE path staged {:.1} MB (must be 0)",
        r[1].copied_mb
    );
    let expect_mb = (64u64 << 20) as f64 / 1e6;
    assert!(
        (r[1].write_zero_copy_mb - expect_mb).abs() < 0.01,
        "write.zero_copy_bytes {:.1} MB != {expect_mb:.1} MB transferred",
        r[1].write_zero_copy_mb
    );
    assert!(
        r[0].write_zero_copy_mb == 0.0,
        "staged baseline must not touch the zero-copy counter, got {:.1} MB",
        r[0].write_zero_copy_mb
    );
    assert!(
        r[2].copied_mb >= expect_mb,
        "Cache slabs must remain the one bouncing strategy: copied {:.1} MB, \
         expected >= {expect_mb:.1} MB",
        r[2].copied_mb
    );
    bench::emit_bench_json(
        "write",
        &format!(
            concat!(
                "{{\n",
                "  \"bench\": \"write\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"baseline_mb_s\": {:.3},\n",
                "  \"zero_copy_mb_s\": {:.3},\n",
                "  \"speedup\": {:.3},\n",
                "  \"zero_copy\": {{\n",
                "    \"staged_mb\": {:.3},\n",
                "    \"zero_copy_mb\": {:.3},\n",
                "    \"unstable_writes\": {},\n",
                "    \"commits\": {}\n",
                "  }}\n",
                "}}\n"
            ),
            r[0].bandwidth_mb,
            r[1].bandwidth_mb,
            speedup,
            r[1].copied_mb,
            r[1].write_zero_copy_mb,
            r[1].unstable_writes,
            r[1].commits,
        ),
    );
    println!("write-path smoke OK");
}

fn write_path_sweep() {
    // Baseline: the pre-PR server (every pulled read chunk staged
    // through a bounce buffer, symmetric Dynamic registration).
    // Tentpole: receive-side scatter straight into page-cache pages on
    // an all-physical server, with and without close-to-commit
    // UNSTABLE batching.
    let point = |zero_copy, server_strategy, threads, commit_on_close| WritePoint {
        zero_copy,
        server_strategy,
        threads,
        record: 1 << 20,
        commit_on_close,
    };
    let points = vec![
        (
            "staged baseline",
            point(false, StrategyKind::Dynamic, 1, false),
        ),
        (
            "staged baseline",
            point(false, StrategyKind::Dynamic, 8, false),
        ),
        (
            "zero-copy all-phys",
            point(true, StrategyKind::AllPhysical, 1, false),
        ),
        (
            "zero-copy all-phys",
            point(true, StrategyKind::AllPhysical, 8, false),
        ),
        (
            "zero-copy + commit-on-close",
            point(true, StrategyKind::AllPhysical, 1, true),
        ),
        (
            "zero-copy + commit-on-close",
            point(true, StrategyKind::AllPhysical, 8, true),
        ),
    ];
    let results = parallel_sweep(points.clone(), |(_, p)| write_point(p));
    let base_1t = results[0].bandwidth_mb;
    let base_8t = results[1].bandwidth_mb;
    let mut t = Table::new(
        "Ablation 7 — zero-copy WRITE pipeline: receive-side scatter + \
         UNSTABLE/COMMIT batching (RW design, 1M records, clients Dynamic)",
        &[
            "variant",
            "threads",
            "MB/s",
            "speedup",
            "staged MB",
            "zero-copy MB",
            "unstable writes",
            "commits",
        ],
    );
    for ((label, p), r) in points.iter().zip(&results) {
        let base = if p.threads == 1 { base_1t } else { base_8t };
        t.row(&[
            label.to_string(),
            p.threads.to_string(),
            mb(r.bandwidth_mb),
            format!("{:.2}x", r.bandwidth_mb / base),
            format!("{:.1}", r.copied_mb),
            format!("{:.1}", r.write_zero_copy_mb),
            r.unstable_writes.to_string(),
            r.commits.to_string(),
        ]);
    }
    bench::emit("ablation_write", &t);
    println!(
        "Takeaway: scattering pulled read chunks straight into page-cache \
         pages removes the server bounce copy and, with an all-physical \
         window, the per-op TPT work — the WRITE mirror of the READ \
         pipeline win. COMMIT-on-close adds one cheap group commit per \
         file on top of the UNSTABLE burst.\n"
    );
}

/// One closed-loop metadata run for the RFP ablation: same seed, same
/// personality, only the reply path differs. At saturation the
/// serialized server stage pins closed-loop p50 (queue wait absorbs
/// any reply-leg difference), so the latency gate runs a single
/// stream — one connection, one worker — where the reply path shows
/// up directly in every op, the way the remote-fetching papers
/// measure small-RPC latency. The sweep adds saturated points for
/// throughput and per-op server-cost rates.
///
/// Both modes run on an RFP-era read engine: the paper's 2005 SDR HCA
/// charges 107 us of responder turnaround per RDMA Read, which buries
/// any fetch-based reply path; the remote-fetching literature targets
/// the later generation where a small read costs ~2 us. The override
/// applies to baseline and RFP alike, so the comparison stays fair.
fn rfp_point(
    mix: OpMix,
    rfp: bool,
    duration_ms: u64,
    connections: usize,
    workers: u32,
) -> OpenLoopResult {
    let mut profile = linux_sdr();
    profile.hca.read_turnaround = SimDuration::from_micros(2);
    run_openloop(
        0xAB1A,
        &profile,
        OpenLoopParams {
            design: Design::ReadWrite,
            strategy: StrategyKind::AllPhysical,
            connections,
            arrival: Arrival::ClosedLoop { workers },
            mix,
            duration: SimDuration::from_millis(duration_ms),
            grace: SimDuration::from_millis(5),
            qos: false,
            waiting_room: 0,
            rfp: rfp.then_some(RfpConfig {
                poll_initial: SimDuration::from_micros(2),
            }),
            ..OpenLoopParams::default()
        },
    )
}

/// Derived per-op rates for one RFP ablation point. Server counters
/// span prepopulation too, so rates use the server's own op count.
struct RfpRates {
    sends_per_op: f64,
    deposits_per_op: f64,
    doorbells_per_op: f64,
    interrupts_per_op: f64,
}

fn rfp_rates(r: &OpenLoopResult) -> RfpRates {
    let ops = r.server_ops.max(1) as f64;
    RfpRates {
        sends_per_op: (r.server_ops - r.rfp_deposits) as f64 / ops,
        deposits_per_op: r.rfp_deposits as f64 / ops,
        doorbells_per_op: r.server_doorbells as f64 / ops,
        interrupts_per_op: r.server_interrupts as f64 / ops,
    }
}

/// RFP acceptance gates for `check.sh`: on a pure metadata storm the
/// reply-slot path must all but eliminate server Sends (and with them
/// doorbells), beat the RPC baseline's small-op p50, and replay
/// byte-identically under the same seed.
fn rfp_smoke() {
    let runs = parallel_sweep(vec![false, true, true], |rfp| {
        rfp_point(OpMix::stat_storm(), rfp, 20, 1, 1)
    });
    let (rpc, rfp, rfp2) = (&runs[0], &runs[1], &runs[2]);
    let (rr, fr) = (rfp_rates(rpc), rfp_rates(rfp));
    println!(
        "rfp smoke: p50 {} -> {} us, p99 {} -> {} us; deposits/op {:.3}, \
         sends/op {:.3} -> {:.4}, doorbells/op {:.3} -> {:.3}",
        rpc.p50_us,
        rfp.p50_us,
        rpc.p99_us,
        rfp.p99_us,
        fr.deposits_per_op,
        rr.sends_per_op,
        fr.sends_per_op,
        rr.doorbells_per_op,
        fr.doorbells_per_op,
    );
    assert!(
        rpc.rfp_deposits == 0,
        "baseline deposited {} replies with rfp off",
        rpc.rfp_deposits
    );
    assert!(
        fr.deposits_per_op > 0.9,
        "deposits/op {:.3} not > 0.9 — the metadata storm should ride the slots",
        fr.deposits_per_op
    );
    assert!(
        fr.sends_per_op < 0.05,
        "server Sends/op {:.4} not < 0.05 in RFP mode",
        fr.sends_per_op
    );
    assert!(
        fr.doorbells_per_op < rr.doorbells_per_op,
        "RFP doorbells/op {:.3} not below RPC baseline {:.3}",
        fr.doorbells_per_op,
        rr.doorbells_per_op
    );
    assert!(
        rfp.p50_us <= rpc.p50_us,
        "RFP small-op p50 {} us above RPC baseline {} us",
        rfp.p50_us,
        rpc.p50_us
    );
    assert!(
        rfp.p50_us == rfp2.p50_us
            && rfp.p99_us == rfp2.p99_us
            && rfp.completed == rfp2.completed
            && rfp.metrics_snapshot == rfp2.metrics_snapshot,
        "same-seed RFP runs diverged"
    );
    bench::emit_bench_json(
        "rfp",
        &format!(
            concat!(
                "{{\n",
                "  \"bench\": \"rfp\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"rpc\": {{ \"p50_us\": {}, \"p99_us\": {}, \"goodput_ops\": {:.0}, ",
                "\"sends_per_op\": {:.4}, \"doorbells_per_op\": {:.4} }},\n",
                "  \"rfp\": {{ \"p50_us\": {}, \"p99_us\": {}, \"goodput_ops\": {:.0}, ",
                "\"sends_per_op\": {:.4}, \"doorbells_per_op\": {:.4}, ",
                "\"deposits_per_op\": {:.4} }}\n",
                "}}\n"
            ),
            rpc.p50_us,
            rpc.p99_us,
            rpc.goodput_ops,
            rr.sends_per_op,
            rr.doorbells_per_op,
            rfp.p50_us,
            rfp.p99_us,
            rfp.goodput_ops,
            fr.sends_per_op,
            fr.doorbells_per_op,
            fr.deposits_per_op,
        ),
    );
    println!("rfp smoke OK");
}

fn rfp_sweep() {
    let mixes: Vec<(&str, OpMix)> = vec![
        ("varmail", OpMix::varmail()),
        ("webserver", OpMix::webserver()),
        ("stat-storm", OpMix::stat_storm()),
        ("oltp", OpMix::oltp()),
    ];
    let points: Vec<(&str, OpMix, bool)> = mixes
        .iter()
        .flat_map(|&(name, mix)| [(name, mix, false), (name, mix, true)])
        .collect();
    let results = parallel_sweep(points.clone(), |(_, mix, rfp)| {
        rfp_point(mix, rfp, 60, 2, 4)
    });
    let mut t = Table::new(
        "Ablation 8 — RFP reply slots vs Send replies (RW design, closed loop, \
         2 conns x 4 workers)",
        &[
            "mix",
            "replies",
            "ops/s",
            "p50 us",
            "p99 us",
            "deposits/op",
            "sends/op",
            "doorbells/op",
            "interrupts/op",
        ],
    );
    for ((name, _, rfp), r) in points.iter().zip(&results) {
        let rates = rfp_rates(r);
        t.row(&[
            name.to_string(),
            if *rfp { "RFP slots" } else { "Send" }.to_string(),
            format!("{:.0}", r.goodput_ops),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            format!("{:.3}", rates.deposits_per_op),
            format!("{:.3}", rates.sends_per_op),
            format!("{:.3}", rates.doorbells_per_op),
            format!("{:.3}", rates.interrupts_per_op),
        ]);
    }
    bench::emit("ablation_rfp", &t);
    println!(
        "Takeaway: letting the client fetch small replies out of registered \
         slots removes the server's Send (doorbell + completion) from every \
         metadata op; bulk READ/WRITE replies keep their chunks and fall \
         back, so mixed personalities land between the extremes.\n"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--batching") {
        if args.iter().any(|a| a == "--smoke") {
            batching_smoke();
        } else {
            batching_sweep();
        }
        return;
    }
    if args.iter().any(|a| a == "--write-path") {
        if args.iter().any(|a| a == "--smoke") {
            write_path_smoke();
        } else {
            write_path_sweep();
        }
        return;
    }
    if args.iter().any(|a| a == "--inline") {
        if args.iter().any(|a| a == "--smoke") {
            inline_smoke();
        } else {
            inline_threshold_sweep();
        }
        return;
    }
    if args.iter().any(|a| a == "--rfp") {
        if args.iter().any(|a| a == "--smoke") {
            rfp_smoke();
        } else {
            rfp_sweep();
        }
        return;
    }
    zero_copy_decomposition();
    ord_sensitivity();
    inline_threshold_sweep();
    credit_window_sweep();
    msgp_small_write_fast_path();
    batching_sweep();
    write_path_sweep();
    rfp_sweep();
}
