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

use bench::{
    axis_table, bandwidth, iozone_on, run_iozone_point, BenchJson, IozonePoint, ServerCounts,
};
use nfs::proto::readdir_reply_max;
use nfs::NFS_DTSIZE;
use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use sim_core::SimDuration;
use workloads::scenario::{self, Capture};
use workloads::{
    linux_sdr, mb, pct, solaris_sdr, Bed, IoMode, IozoneParams, IozoneResult, Profile, Table,
};

const SEED: u64 = 0xAB1A;

/// One 32 MiB-per-thread IOzone run on the profile's own transport
/// config, the same registration strategy on both sides.
fn iozone(
    profile: Profile,
    design: Design,
    strategy: StrategyKind,
    mode: IoMode,
    threads: u32,
    record: u64,
) -> IozoneResult {
    let point = IozonePoint {
        bed: Bed::new(&profile, design, strategy),
        mode,
        record,
    };
    run_iozone_point(SEED, &point, threads, 32 << 20)
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
    let run = |(), ord| {
        let mut p = solaris_sdr();
        p.hca.max_ord = ord;
        p.hca.max_ird = ord;
        let (design, strategy) = (Design::ReadWrite, StrategyKind::Cache);
        iozone(p, design, strategy, IoMode::Write, 8, 128 * 1024)
    };
    axis_table(
        (
            "ablation_ord",
            "Ablation 2 — ORD/IRD window vs NFS WRITE bandwidth (8 threads, cache)",
        ),
        ("ord/ird", &[1usize, 2, 4, 8, 16, 32]),
        &[()],
        run,
        &[("write MB/s", 0, bandwidth)],
    );
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
    let run = scenario::run(0x1712, Capture::default(), |h| async move {
        let bed = Bed::new(&p, Design::ReadWrite, StrategyKind::Dynamic);
        let bed = bed.build(&h).await;
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
    });
    run.out
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
    type Cell = fn(&InlineOutcome) -> String;
    let rate: Cell = |r| format!("{:.0}", r.readdirs_per_s);
    let pages: Cell = |r| format!("{:.0}", r.client_pages_per_op);
    let path: Cell = |r| match r.long_reply {
        true => "long reply (reply chunk)".to_string(),
        false => "inline reply".to_string(),
    };
    let results = axis_table(
        (
            "ablation_inline",
            "Ablation 3 — inline threshold vs READDIR throughput (50 entries, ~2 KiB reply)",
        ),
        ("inline bytes", &INLINE_THRESHOLDS),
        &[()],
        |(), inline| inline_point(inline, 200),
        &[
            ("readdir ops/s", 0, rate),
            ("client pages registered/op", 0, pages),
            ("path taken", 0, path),
        ],
    );
    check_inline(&results);
    println!(
        "Takeaway: the client registers for the READDIR's count (9 pages, \
         not the 256 of a 1 MiB guess) at every threshold below it; crossing \
         the threshold adds the server's registration + RDMA Write on top, \
         so generous inline space is still cheap insurance for \
         metadata-heavy workloads.\n"
    );
}

fn credit_window_sweep() {
    let run = |(), credits| {
        let mut p = solaris_sdr();
        p.rpc.credits = credits;
        let (design, strategy) = (Design::ReadWrite, StrategyKind::Cache);
        iozone(p, design, strategy, IoMode::Read, 8, 128 * 1024)
    };
    axis_table(
        (
            "ablation_credits",
            "Ablation 4 — credit window vs READ bandwidth (8 threads, cache)",
        ),
        ("credits", &[1u32, 2, 4, 8, 16, 32, 64]),
        &[()],
        run,
        &[("read MB/s", 0, bandwidth)],
    );
    println!(
        "Takeaway (the paper's future work): the window must cover the \
         pipeline depth of the bottleneck stage (~4 ops here); beyond \
         that, extra credits only cost receive buffers.\n"
    );
}

/// One IOzone WRITE pass of the MSGP ablation: 8 threads, Dynamic
/// registration on the Linux profile at `inline_threshold`.
fn msgp_write(record: u64, inline_threshold: u64) -> (IozoneResult, ServerCounts) {
    // Linux profile: the lean task queue leaves registration as the
    // binding constraint, which is what MSGP removes.
    let mut p = linux_sdr();
    p.rpc.inline_threshold = inline_threshold;
    let bed = Bed::new(&p, Design::ReadWrite, StrategyKind::Dynamic);
    let params = IozoneParams {
        threads_per_client: 8,
        file_size: 32 << 20,
        record,
        mode: IoMode::Write,
        ..Default::default()
    };
    iozone_on(SEED, bed, params)
}

fn msgp_small_write_fast_path() {
    // RDMA_MSGP (the paper's Figure-2 message type 2, implemented as an
    // extension): a WRITE whose data fits the larger of a page and the
    // inline threshold rides the Send instead of paying a registration
    // plus a server-side RDMA Read. At the default 1 KiB threshold the
    // page boundary decides; a 16 KiB threshold lifts every record here
    // onto the Send.
    let run = |(), record| [msgp_write(record, 1024), msgp_write(record, 16 * 1024)];
    type Cell = fn(&[(IozoneResult, ServerCounts); 2]) -> String;
    fn path((_, counts): &(IozoneResult, ServerCounts)) -> String {
        let path = if counts.msgp_writes > 0 {
            "MSGP"
        } else {
            "read chunk"
        };
        path.to_string()
    }
    let (default_mb, default_path): (Cell, Cell) = (|r| mb(r[0].0.bandwidth_mb), |r| path(&r[0]));
    let (wide_mb, wide_path): (Cell, Cell) = (|r| mb(r[1].0.bandwidth_mb), |r| path(&r[1]));
    let ratio: Cell = |r| format!("{:.2}x", r[1].0.bandwidth_mb / r[0].0.bandwidth_mb);
    axis_table(
        (
            "ablation_msgp",
            "Ablation 5 — RDMA_MSGP around the page boundary (8 threads, Linux, Dynamic)",
        ),
        ("record", &[1024u64, 4096, 4097, 16384]),
        &[()],
        run,
        &[
            ("1 KiB inline MB/s", 0, default_mb),
            ("path", 0, default_path),
            ("16 KiB inline MB/s", 0, wide_mb),
            ("path", 0, wide_path),
            ("16 KiB / 1 KiB", 0, ratio),
        ],
    );
    println!(
        "Takeaway: a page rides the Send at the default threshold, so a \
         4 KiB write pays no registration and no serialized RDMA Read; one \
         byte more goes by read chunk and pays both. A larger threshold \
         moves that boundary, and the paths then run at the same rate.\n"
    );
}

/// One measured point of the batching ablation.
#[derive(Clone, Copy)]
struct BatchPoint {
    /// Server CQ coalesce count: completions per interrupt (1: one
    /// interrupt per completion).
    coalesce: usize,
    /// Client threads.
    threads: u32,
    /// Server registration strategy.
    server_strategy: StrategyKind,
    /// Client registration strategy.
    client_strategy: StrategyKind,
    /// Record size.
    record: u64,
    /// File size per thread.
    file_size: u64,
    /// Linux profile (lean task queue) instead of Solaris.
    linux: bool,
}

impl BatchPoint {
    /// Section 1, the bandwidth story: Solaris, 1M records, clients on
    /// Dynamic — fig5's Read-Write configuration.
    fn streaming(coalesce: usize, threads: u32, server_strategy: StrategyKind) -> BatchPoint {
        BatchPoint {
            coalesce,
            threads,
            server_strategy,
            client_strategy: StrategyKind::Dynamic,
            record: 1 << 20,
            file_size: 64 << 20,
            linux: false,
        }
    }

    /// Section 2, the per-op rate story: Linux, 4K records, 8 threads,
    /// clients on the cache (the paper's small-I/O recommendation) —
    /// ops arrive every ~25us, so coalesced interrupts actually fill.
    fn small_io(coalesce: usize, server_strategy: StrategyKind) -> BatchPoint {
        BatchPoint {
            coalesce,
            threads: 8,
            server_strategy,
            client_strategy: StrategyKind::Cache,
            record: 4 << 10,
            file_size: 16 << 20,
            linux: true,
        }
    }
}

/// Bandwidth, and the server's counters for the per-RPC doorbell and
/// interrupt rates (over every op it served: the READ pass plus one
/// CREATE per thread).
fn batching_point(p: BatchPoint) -> (IozoneResult, ServerCounts) {
    let profile = if p.linux { linux_sdr() } else { solaris_sdr() };
    // Interrupt moderation: an interrupt per `coalesce` completions, or
    // 64 us after the first, whichever is sooner (1: one per completion).
    let mut server_hca = profile.hca;
    server_hca.cq_coalesce_count = p.coalesce;
    server_hca.cq_coalesce_delay = SimDuration::from_micros(64);
    let bed = Bed {
        client_strategy: p.client_strategy,
        server_hca: Some(server_hca),
        ..Bed::new(&profile, Design::ReadWrite, p.server_strategy)
    };
    let params = IozoneParams {
        threads_per_client: p.threads,
        file_size: p.file_size,
        record: p.record,
        mode: IoMode::Read,
        ..Default::default()
    };
    iozone_on(SEED, bed, params)
}

/// Fast subset of the batching sweep for `check.sh`: one baseline and
/// one coalesced point per section, with the acceptance gates asserted
/// in-process (exit code carries the verdict).
fn batching_smoke() {
    let points = [
        BatchPoint::streaming(1, 1, StrategyKind::Dynamic),
        BatchPoint::streaming(1, 1, StrategyKind::AllPhysical),
        BatchPoint::small_io(4, StrategyKind::AllPhysical),
    ];
    let r = parallel_sweep(points.to_vec(), batching_point);
    let (base_mb, zc_mb) = (r[0].0.bandwidth_mb, r[1].0.bandwidth_mb);
    let speedup = zc_mb / base_mb;
    let batched = r[2].1;
    let (doorbells, interrupts) = (
        batched.per_op(batched.doorbells),
        batched.per_op(batched.interrupts),
    );
    println!(
        "batching smoke: zero-copy 1M speedup {speedup:.2}x ({zc_mb:.0} vs {base_mb:.0} MB/s); \
         coalesce-4 doorbells/op {doorbells:.4}, interrupts/op {interrupts:.3}"
    );
    assert!(
        speedup >= 1.3,
        "zero-copy READ speedup {speedup:.2}x below the 1.3x acceptance floor"
    );
    assert!(
        interrupts < 1.0,
        "interrupts/op {interrupts:.3} not < 1 at coalesce count 4"
    );
    // One doorbell per post: a 4 KiB READ posts its RDMA Write and its
    // reply Send, each thread's CREATE only its reply.
    let expected = 2 * batched.reads + u64::from(points[2].threads);
    assert_eq!(
        batched.doorbells, expected,
        "doorbells != 2 x READs + CREATEs"
    );
    let coalesced = batched.per_op(batched.coalesced);
    BenchJson::new("read", true)
        .num("baseline_mb_s", format_args!("{base_mb:.3}"))
        .num("zero_copy_mb_s", format_args!("{zc_mb:.3}"))
        .num("speedup", format_args!("{speedup:.3}"))
        .section(
            "coalesced",
            1,
            &[
                ("doorbells_per_op", &format_args!("{doorbells:.4}")),
                ("interrupts_per_op", &format_args!("{interrupts:.4}")),
                ("coalesced_per_op", &format_args!("{coalesced:.4}")),
            ],
        )
        .write();
    println!("batching smoke OK");
}

fn batching_sweep() {
    // Baseline: per-WQE doorbells and symmetric Dynamic registration —
    // the configuration behind the shipped fig5 Read-Write 1M numbers.
    // Both sides gather straight from file-system pages; what the
    // tentpole rows change is the server's registration: an
    // all-physical server (no per-op TPT work on the READ critical
    // path) under increasing CQ coalesce counts, clients unchanged on
    // Dynamic.
    // Section 1 is measured against the shipped 171 MB/s; in section
    // 2 the interrupt rate drops below one per RPC.
    let (dynamic, all_phys) = (StrategyKind::Dynamic, StrategyKind::AllPhysical);
    let baseline = "dynamic-registration baseline";
    let mut points = vec![
        (baseline, BatchPoint::streaming(1, 1, dynamic)),
        (baseline, BatchPoint::streaming(1, 8, dynamic)),
    ];
    for coalesce in [1usize, 2, 4, 8, 16] {
        for threads in [1u32, 8] {
            let point = BatchPoint::streaming(coalesce, threads, all_phys);
            points.push(("zero-copy all-phys", point));
        }
    }
    let lin_start = points.len();
    let baseline_4k = "dynamic-registration baseline 4K";
    points.push((baseline_4k, BatchPoint::small_io(1, dynamic)));
    for coalesce in [1usize, 2, 4, 8, 16] {
        let point = BatchPoint::small_io(coalesce, all_phys);
        points.push(("zero-copy all-phys 4K", point));
    }
    let results = parallel_sweep(points.clone(), |(_, p)| batching_point(p));
    let base_1t = results[0].0.bandwidth_mb;
    let base_8t = results[1].0.bandwidth_mb;
    let base_4k = results[lin_start].0.bandwidth_mb;
    let mut t = Table::new(
        "Ablation 6 — zero-copy READ pipeline + completion coalescing \
         (RW design; clients Dynamic at 1M, Cache at 4K)",
        &[
            "variant",
            "record",
            "coalesce",
            "threads",
            "MB/s",
            "speedup",
            "doorbells/op",
            "interrupts/op",
            "coalesced/op",
            "zero-copy MB",
        ],
    );
    for (i, ((label, p), (r, c))) in points.iter().zip(&results).enumerate() {
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
            p.coalesce.to_string(),
            p.threads.to_string(),
            mb(r.bandwidth_mb),
            format!("{:.2}x", r.bandwidth_mb / base),
            format!("{:.3}", c.per_op(c.doorbells)),
            format!("{:.3}", c.per_op(c.interrupts)),
            format!("{:.3}", c.per_op(c.coalesced)),
            format!("{:.1}", c.read_zero_copy_bytes as f64 / 1e6),
        ]);
    }
    bench::emit("ablation_batching", &t);
    println!(
        "Takeaway: removing server-side TPT work from the READ critical \
         path (gathering from an all-physical window instead of a \
         per-op registration) buys the bandwidth. Interrupt moderation \
         pushes the per-RPC interrupt rate below one at coalesce count \
         >= 4 under 4K concurrency; 1M completions are too far apart to \
         share an interrupt, and its timer costs a single stream ~2%. \
         Doorbells stay one per post.\n"
    );
}

/// One measured point of the WRITE-path ablation.
#[derive(Clone, Copy)]
struct WritePoint {
    /// Server registration strategy.
    server_strategy: StrategyKind,
    /// Client threads.
    threads: u32,
    /// Batch UNSTABLE writes and COMMIT once per file at close.
    commit_on_close: bool,
}

/// Bandwidth, and the server's data-movement and UNSTABLE/COMMIT
/// accounting after the run.
fn write_point(p: WritePoint) -> (IozoneResult, ServerCounts) {
    let bed = Bed {
        client_strategy: StrategyKind::Dynamic,
        ..Bed::new(&solaris_sdr(), Design::ReadWrite, p.server_strategy)
    };
    let params = IozoneParams {
        threads_per_client: p.threads,
        file_size: 64 << 20,
        record: 1 << 20,
        mode: IoMode::Write,
        commit_on_close: p.commit_on_close,
    };
    iozone_on(SEED, bed, params)
}

/// Decimal megabytes, as the tables print byte counters.
fn mbytes(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// The WRITE-path acceptance gates for `check.sh`: scattering into an
/// all-physical server must beat the Dynamic-registration baseline by
/// at least 1.3x at 1M records, with zero staged bytes at steady state
/// and every WRITE byte accounted by the zero-copy counter.
fn write_path_smoke() {
    let baseline = WritePoint {
        server_strategy: StrategyKind::Dynamic,
        threads: 1,
        commit_on_close: false,
    };
    let zc = WritePoint {
        server_strategy: StrategyKind::AllPhysical,
        ..baseline
    };
    // The Cache strategy's pre-registered slabs are the one path that
    // must still bounce.
    let cache = WritePoint {
        server_strategy: StrategyKind::Cache,
        ..baseline
    };
    let r = parallel_sweep(vec![baseline, zc, cache], write_point);
    let (base_mb, zc_mb) = (r[0].0.bandwidth_mb, r[1].0.bandwidth_mb);
    let speedup = zc_mb / base_mb;
    let zc = r[1].1;
    let (staged_mb, scattered_mb) = (mbytes(zc.copied_bytes), mbytes(zc.write_zero_copy_bytes));
    println!(
        "write-path smoke: zero-copy 1M speedup {speedup:.2}x ({zc_mb:.0} vs {base_mb:.0} MB/s); \
         staged {staged_mb:.1} MB copied, zero-copy counter {scattered_mb:.1} MB"
    );
    assert!(
        speedup >= 1.3,
        "zero-copy WRITE speedup {speedup:.2}x below the 1.3x acceptance floor"
    );
    assert!(
        zc.copied_bytes == 0,
        "zero-copy WRITE path staged {staged_mb:.1} MB (must be 0)"
    );
    let expect_mb = mbytes(64 << 20);
    assert!(
        zc.write_zero_copy_bytes == 64 << 20,
        "write.zero_copy_bytes {scattered_mb:.1} MB != {expect_mb:.1} MB transferred"
    );
    let bounced_mb = mbytes(r[2].1.copied_bytes);
    assert!(
        bounced_mb >= expect_mb,
        "Cache slabs must remain the one bouncing strategy: copied {bounced_mb:.1} MB, \
         expected >= {expect_mb:.1} MB"
    );
    BenchJson::new("write", true)
        .num("baseline_mb_s", format_args!("{base_mb:.3}"))
        .num("zero_copy_mb_s", format_args!("{zc_mb:.3}"))
        .num("speedup", format_args!("{speedup:.3}"))
        .section(
            "zero_copy",
            1,
            &[
                ("staged_mb", &format_args!("{staged_mb:.3}")),
                ("zero_copy_mb", &format_args!("{scattered_mb:.3}")),
                ("unstable_writes", &zc.unstable_writes),
                ("commits", &zc.commits),
            ],
        )
        .write();
    println!("write-path smoke OK");
}

fn write_path_sweep() {
    // Baseline: symmetric Dynamic registration. Both sides scatter the
    // pulled read chunks straight into page-cache pages; the tentpole
    // rows move the server to all-physical registration (no per-op TPT
    // work), with and without close-to-commit UNSTABLE batching.
    let point = |server_strategy, threads, commit_on_close| WritePoint {
        server_strategy,
        threads,
        commit_on_close,
    };
    let (dynamic, all_phys) = (StrategyKind::Dynamic, StrategyKind::AllPhysical);
    let points = vec![
        ("dynamic-registration baseline", point(dynamic, 1, false)),
        ("dynamic-registration baseline", point(dynamic, 8, false)),
        ("zero-copy all-phys", point(all_phys, 1, false)),
        ("zero-copy all-phys", point(all_phys, 8, false)),
        ("zero-copy + commit-on-close", point(all_phys, 1, true)),
        ("zero-copy + commit-on-close", point(all_phys, 8, true)),
    ];
    let results = parallel_sweep(points.clone(), |(_, p)| write_point(p));
    let base_1t = results[0].0.bandwidth_mb;
    let base_8t = results[1].0.bandwidth_mb;
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
    for ((label, p), (r, c)) in points.iter().zip(&results) {
        let base = if p.threads == 1 { base_1t } else { base_8t };
        t.row(&[
            label.to_string(),
            p.threads.to_string(),
            mb(r.bandwidth_mb),
            format!("{:.2}x", r.bandwidth_mb / base),
            format!("{:.1}", mbytes(c.copied_bytes)),
            format!("{:.1}", mbytes(c.write_zero_copy_bytes)),
            c.unstable_writes.to_string(),
            c.commits.to_string(),
        ]);
    }
    bench::emit("ablation_write", &t);
    println!(
        "Takeaway: pulled read chunks scatter straight into page-cache \
         pages on every non-Cache server; an all-physical window then \
         removes the per-op TPT work — the WRITE mirror of the READ \
         pipeline win. COMMIT-on-close adds one cheap group commit per \
         file on top of the UNSTABLE burst.\n"
    );
}

/// One ablation: the flag that runs it alone (the three with a
/// `check.sh` gate have one), that gate, and the full sweep.
struct Sweep {
    flag: Option<&'static str>,
    smoke: Option<fn()>,
    full: fn(),
}

const fn unflagged(full: fn()) -> Sweep {
    Sweep {
        flag: None,
        smoke: None,
        full,
    }
}

const fn gated(flag: &'static str, smoke: fn(), full: fn()) -> Sweep {
    Sweep {
        flag: Some(flag),
        smoke: Some(smoke),
        full,
    }
}

/// Ablations 1–7, in the order a flagless run prints them.
const SWEEPS: &[Sweep] = &[
    unflagged(zero_copy_decomposition),
    unflagged(ord_sensitivity),
    gated("--inline", inline_smoke, inline_threshold_sweep),
    unflagged(credit_window_sweep),
    unflagged(msgp_small_write_fast_path),
    gated("--batching", batching_smoke, batching_sweep),
    gated("--write-path", write_path_smoke, write_path_sweep),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let given = |flag: &str| args.iter().any(|a| a == flag);
    let named = |s: &Sweep| s.flag.is_some_and(given);
    let everything = !SWEEPS.iter().any(named);
    for sweep in SWEEPS.iter().filter(|s| everything || named(s)) {
        match sweep.smoke {
            Some(smoke) if !everything && given("--smoke") => smoke(),
            _ => (sweep.full)(),
        }
    }
}
