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
//! 5. **RDMA_MSGP**: a WRITE whose data fits a page rides the Send.
//! 6. **Batching**: the zero-copy READ pipeline and completion
//!    coalescing.
//! 7. **WRITE path**: receive-side scatter and UNSTABLE/COMMIT batching.
//!
//! 3, 6 and 7 have a fixed-seed gate (`--smoke`).

use nfs::proto::readdir_reply_max;
use nfs::NFS_DTSIZE;
use rpcrdma::{Design, StrategyKind};
use sim_core::sweep::parallel_sweep;
use sim_core::SimDuration;
use workloads::scenario::{self, Capture};
use workloads::{linux_sdr, solaris_sdr, Bed, IoMode, IozoneParams, IozoneResult, Profile, Run};

use crate::report::{axis_table, mb, pct, Table};
use crate::{bandwidth, iozone_on, iozone_params, per_op, BenchJson};

const SEED: u64 = 0xAB1A;

/// One IOzone run: the bed and its parameters.
type Point = (Bed, IozoneParams);

/// A row of Ablation 6 or 7: its label, its point, its run and the
/// bandwidth of the baseline its speed-up is measured against.
type Row = (&'static str, Point, Run<IozoneResult>, f64);

/// One 32 MiB-per-thread IOzone run of 128 KiB records on the
/// profile's own transport config, the same registration strategy on
/// both sides.
fn iozone(
    profile: &Profile,
    (design, strategy): (Design, StrategyKind),
    mode: IoMode,
    threads: u32,
) -> IozoneResult {
    let bed = Bed::new(profile, design, strategy);
    iozone_on(SEED, bed, iozone_params(mode, threads, 128 << 10, 32 << 20)).out
}

/// Decimal megabytes, as the tables print byte counters.
fn mbytes(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

pub(crate) fn zero_copy() {
    let base = solaris_sdr();
    let mut no_zc = base;
    no_zc.rpc.zero_copy_read = false;

    let variants = vec![
        ("Read-Read (baseline)", base, Design::ReadRead),
        ("Read-Write, copy-out", no_zc, Design::ReadWrite),
        ("Read-Write, zero-copy", base, Design::ReadWrite),
    ];
    let rows = parallel_sweep(variants, |(label, p, d)| {
        let (one, eight) = (
            iozone(&p, (d, StrategyKind::Dynamic), IoMode::Read, 1),
            iozone(&p, (d, StrategyKind::Dynamic), IoMode::Read, 8),
        );
        (label, one, eight)
    });
    Table::new(
        "Ablation 1 — where the Read-Write win comes from (READ, 128K)",
        &rows,
        &[
            ("variant", |(label, ..)| label.to_string()),
            ("1-thr MB/s", |(_, one, _)| mb(one.bandwidth_mb)),
            ("8-thr MB/s", |(.., eight)| mb(eight.bandwidth_mb)),
            ("8-thr client CPU", |(.., eight)| pct(eight.client_cpu)),
        ],
    )
    .emit("ablation_zerocopy");
    println!(
        "Takeaway: the protocol change (no RDMA_DONE, server push) buys the \
         bandwidth; the zero-copy path buys the flat client CPU curve.\n"
    );
}

/// Ablations 2 and 4: an 8-thread 128K IOzone pass on the Read-Write
/// design and the registration cache, at each value of one knob of the
/// Solaris profile.
fn knob_sweep<X>(
    (name, title): (&str, &str),
    axis: (&str, &[X]),
    mode: IoMode,
    set: fn(&mut Profile, X),
) where
    X: Copy + std::fmt::Display + Send + Sync,
{
    let run = |(), x| {
        let mut p = solaris_sdr();
        set(&mut p, x);
        iozone(&p, (Design::ReadWrite, StrategyKind::Cache), mode, 8)
    };
    let column = if mode == IoMode::Read {
        "read MB/s"
    } else {
        "write MB/s"
    };
    axis_table((name, title), axis, &[()], run, &[(column, 0, bandwidth)]);
}

pub(crate) fn ord() {
    knob_sweep(
        (
            "ablation_ord",
            "Ablation 2 — ORD/IRD window vs NFS WRITE bandwidth (8 threads, cache)",
        ),
        ("ord/ird", &[1usize, 2, 4, 8, 16, 32]),
        IoMode::Write,
        |p, ord| (p.hca.max_ord, p.hca.max_ird) = (ord, ord),
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
pub(crate) fn inline_smoke() {
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

pub(crate) fn inline() {
    let results = axis_table(
        (
            "ablation_inline",
            "Ablation 3 — inline threshold vs READDIR throughput (50 entries, ~2 KiB reply)",
        ),
        ("inline bytes", &INLINE_THRESHOLDS),
        &[()],
        |(), inline| inline_point(inline, 200),
        &[
            ("readdir ops/s", 0, |r: &InlineOutcome| {
                format!("{:.0}", r.readdirs_per_s)
            }),
            ("client pages registered/op", 0, |r| {
                format!("{:.0}", r.client_pages_per_op)
            }),
            ("path taken", 0, |r| match r.long_reply {
                true => "long reply (reply chunk)".to_string(),
                false => "inline reply".to_string(),
            }),
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

pub(crate) fn credits() {
    knob_sweep(
        (
            "ablation_credits",
            "Ablation 4 — credit window vs READ bandwidth (8 threads, cache)",
        ),
        ("credits", &[1u32, 2, 4, 8, 16, 32, 64]),
        IoMode::Read,
        |p, credits| p.rpc.credits = credits,
    );
    println!(
        "Takeaway (the paper's future work): the window must cover the \
         pipeline depth of the bottleneck stage (~4 ops here); beyond \
         that, extra credits only cost receive buffers.\n"
    );
}

/// One IOzone WRITE pass of the MSGP ablation: 8 threads, Dynamic
/// registration on the Linux profile at `inline_threshold`.
fn msgp_write(record: u64, inline_threshold: u64) -> Run<IozoneResult> {
    // Linux profile: the lean task queue leaves registration as the
    // binding constraint, which is what MSGP removes.
    let mut p = linux_sdr();
    p.rpc.inline_threshold = inline_threshold;
    let bed = Bed::new(&p, Design::ReadWrite, StrategyKind::Dynamic);
    iozone_on(SEED, bed, iozone_params(IoMode::Write, 8, record, 32 << 20))
}

/// The path a run's WRITEs took.
fn msgp_path(r: &Run<IozoneResult>) -> String {
    let msgp = r.metric("server.msgp_recvs") > 0;
    if msgp { "MSGP" } else { "read chunk" }.to_string()
}

pub(crate) fn msgp() {
    // RDMA_MSGP (the paper's Figure-2 message type 2, implemented as an
    // extension): a WRITE whose data fits the larger of a page and the
    // inline threshold rides the Send instead of paying a registration
    // plus a server-side RDMA Read. At the default 1 KiB threshold the
    // page boundary decides; a 16 KiB threshold lifts every record here
    // onto the Send.
    let run = |(), record| [msgp_write(record, 1024), msgp_write(record, 16 * 1024)];
    axis_table(
        (
            "ablation_msgp",
            "Ablation 5 — RDMA_MSGP around the page boundary (8 threads, Linux, Dynamic)",
        ),
        ("record", &[1024u64, 4096, 4097, 16384]),
        &[()],
        run,
        &[
            ("1 KiB inline MB/s", 0, |[r, _]: &[Run<_>; 2]| {
                mb(r.bandwidth_mb)
            }),
            ("path", 0, |[r, _]| msgp_path(r)),
            ("16 KiB inline MB/s", 0, |[_, r]| mb(r.bandwidth_mb)),
            ("path", 0, |[_, r]| msgp_path(r)),
            ("16 KiB / 1 KiB", 0, |[a, b]| {
                format!("{:.2}x", b.bandwidth_mb / a.bandwidth_mb)
            }),
        ],
    );
    println!(
        "Takeaway: a page rides the Send at the default threshold, so a \
         4 KiB write pays no registration and no serialized RDMA Read; one \
         byte more goes by read chunk and pays both. A larger threshold \
         moves that boundary, and the paths then run at the same rate.\n"
    );
}

/// A READ point of the batching ablation: the Read-Write design, the
/// server registering with `server`, the clients with `client`, and the
/// server's CQ raising an interrupt per `coalesce` completions or 64 us
/// after the first, whichever is sooner (1: one per completion).
fn batch_point(
    profile: &Profile,
    coalesce: usize,
    (server, client): (StrategyKind, StrategyKind),
    params: IozoneParams,
) -> Point {
    let mut server_hca = profile.hca;
    server_hca.cq_coalesce_count = coalesce;
    server_hca.cq_coalesce_delay = SimDuration::from_micros(64);
    let bed = Bed {
        client_strategy: client,
        server_hca: Some(server_hca),
        ..Bed::new(profile, Design::ReadWrite, server)
    };
    (bed, params)
}

/// Section 1, the bandwidth story: Solaris, 1M records, clients on
/// Dynamic — fig5's Read-Write configuration.
fn streaming(coalesce: usize, threads: u32, server: StrategyKind) -> Point {
    let params = iozone_params(IoMode::Read, threads, 1 << 20, 64 << 20);
    batch_point(
        &solaris_sdr(),
        coalesce,
        (server, StrategyKind::Dynamic),
        params,
    )
}

/// Section 2, the per-op rate story: Linux, 4K records, 8 threads,
/// clients on the cache (the paper's small-I/O recommendation) — ops
/// arrive every ~25us, so coalesced interrupts actually fill.
fn small_io(coalesce: usize, server: StrategyKind) -> Point {
    let params = iozone_params(IoMode::Read, 8, 4 << 10, 16 << 20);
    batch_point(
        &linux_sdr(),
        coalesce,
        (server, StrategyKind::Cache),
        params,
    )
}

/// Ablation 6's rows, in table order. Baseline: symmetric Dynamic
/// registration — the configuration behind the shipped fig5 Read-Write
/// 1M numbers. Both sides gather straight from file-system pages; what
/// the other rows change is the server's registration: an all-physical
/// server (no per-op TPT work on the READ critical path) under
/// increasing CQ coalesce counts, clients unchanged. Section 1 (1M) is
/// measured against the shipped 171 MB/s; in section 2 (4K, from row
/// [`SMALL_IO_ROW`]) the interrupt rate drops below one per RPC.
fn batching_rows() -> Vec<(&'static str, Point)> {
    let (dynamic, all_phys) = (StrategyKind::Dynamic, StrategyKind::AllPhysical);
    let baseline = "dynamic-registration baseline";
    let mut rows = vec![
        (baseline, streaming(1, 1, dynamic)),
        (baseline, streaming(1, 8, dynamic)),
    ];
    for coalesce in [1usize, 2, 4, 8, 16] {
        for threads in [1u32, 8] {
            rows.push(("zero-copy all-phys", streaming(coalesce, threads, all_phys)));
        }
    }
    rows.push(("dynamic-registration baseline 4K", small_io(1, dynamic)));
    for coalesce in [1usize, 2, 4, 8, 16] {
        rows.push(("zero-copy all-phys 4K", small_io(coalesce, all_phys)));
    }
    rows
}

/// The first 4K row of [`batching_rows`]: section 2's baseline.
const SMALL_IO_ROW: usize = 12;

/// The gate's rows of [`batching_rows`]: the 1M baseline and the 1M
/// all-physical row at coalesce 1 (both one thread), and the 4K
/// all-physical row at coalesce 4.
const BATCHING_GATE_ROWS: [usize; 3] = [0, 2, SMALL_IO_ROW + 3];

/// Run `rows` in parallel, each with the bandwidth of its baseline row:
/// `baseline(point)` names it.
fn run_rows(rows: Vec<(&'static str, Point)>, baseline: fn(&IozoneParams) -> usize) -> Vec<Row> {
    let runs = parallel_sweep(rows, |(label, (bed, p))| {
        (label, (bed, p), iozone_on(SEED, bed, p))
    });
    let base: Vec<f64> = runs
        .iter()
        .map(|(_, (_, p), _)| runs[baseline(p)].2.bandwidth_mb)
        .collect();
    runs.into_iter()
        .zip(base)
        .map(|((label, point, run), base)| (label, point, run, base))
        .collect()
}

/// The batching gate for `check.sh`: one baseline and one coalesced
/// point per section, with the acceptance gates asserted in-process
/// (exit code carries the verdict).
pub(crate) fn batching_smoke() {
    let rows = batching_rows();
    let points = BATCHING_GATE_ROWS.map(|i| rows[i].1);
    let r = parallel_sweep(points.to_vec(), |(bed, p)| iozone_on(SEED, bed, p));
    let (base_mb, zc_mb) = (r[0].bandwidth_mb, r[1].bandwidth_mb);
    let speedup = zc_mb / base_mb;
    let batched = &r[2];
    let doorbells = per_op(batched, "hca.node0.doorbells");
    let interrupts = per_op(batched, "hca.node0.cq_interrupts");
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
    let creates = u64::from(points[2].1.threads_per_client);
    let expected = 2 * batched.metric("nfs.node0.reads") + creates;
    assert_eq!(
        batched.metric("hca.node0.doorbells"),
        expected,
        "doorbells != 2 x READs + CREATEs"
    );
    let coalesced = per_op(batched, "hca.node0.cq_coalesced");
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

pub(crate) fn batching() {
    let baseline = |p: &IozoneParams| match (p.record, p.threads_per_client) {
        (4096, _) => SMALL_IO_ROW,
        (_, 1) => 0,
        _ => 1,
    };
    fn counted(r: &Row, series: &str) -> String {
        format!("{:.3}", per_op(&r.2, series))
    }
    Table::new(
        "Ablation 6 — zero-copy READ pipeline + completion coalescing \
         (RW design; clients Dynamic at 1M, Cache at 4K)",
        &run_rows(batching_rows(), baseline),
        &[
            ("variant", |(label, ..)| label.to_string()),
            ("record", |(_, (_, p), ..)| {
                if p.record >= 1 << 20 { "1M" } else { "4K" }.to_string()
            }),
            ("coalesce", |(_, (bed, _), ..)| {
                bed.server_hca
                    .map_or(1, |h| h.cq_coalesce_count)
                    .to_string()
            }),
            ("threads", |(_, (_, p), ..)| {
                p.threads_per_client.to_string()
            }),
            ("MB/s", |(.., r, _)| mb(r.bandwidth_mb)),
            ("speedup", |(.., r, base)| {
                format!("{:.2}x", r.bandwidth_mb / base)
            }),
            ("doorbells/op", |r| counted(r, "hca.node0.doorbells")),
            ("interrupts/op", |r| counted(r, "hca.node0.cq_interrupts")),
            ("coalesced/op", |r| counted(r, "hca.node0.cq_coalesced")),
            ("zero-copy MB", |(.., r, _)| {
                format!("{:.1}", mbytes(r.metric("server.read.zero_copy_bytes")))
            }),
        ],
    )
    .emit("ablation_batching");
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

/// A 1M-record WRITE point of Ablation 7: 64 MiB per thread, clients on
/// Dynamic registration, the server on `server`; `commit_on_close`
/// batches UNSTABLE writes and COMMITs once per file at close.
fn write_point(server: StrategyKind, threads: u32, commit_on_close: bool) -> Point {
    let bed = Bed {
        client_strategy: StrategyKind::Dynamic,
        ..Bed::new(&solaris_sdr(), Design::ReadWrite, server)
    };
    let params = IozoneParams {
        commit_on_close,
        ..iozone_params(IoMode::Write, threads, 1 << 20, 64 << 20)
    };
    (bed, params)
}

/// Ablation 7's rows, in table order. Baseline: symmetric Dynamic
/// registration. Both sides scatter the pulled read chunks straight
/// into page-cache pages; the other rows move the server to
/// all-physical registration (no per-op TPT work), with and without
/// close-to-commit UNSTABLE batching.
fn write_rows() -> Vec<(&'static str, Point)> {
    let (dynamic, all_phys) = (StrategyKind::Dynamic, StrategyKind::AllPhysical);
    vec![
        (
            "dynamic-registration baseline",
            write_point(dynamic, 1, false),
        ),
        (
            "dynamic-registration baseline",
            write_point(dynamic, 8, false),
        ),
        ("zero-copy all-phys", write_point(all_phys, 1, false)),
        ("zero-copy all-phys", write_point(all_phys, 8, false)),
        (
            "zero-copy + commit-on-close",
            write_point(all_phys, 1, true),
        ),
        (
            "zero-copy + commit-on-close",
            write_point(all_phys, 8, true),
        ),
    ]
}

/// The WRITE-path acceptance gates for `check.sh`: scattering into an
/// all-physical server (row 2 of [`write_rows`]) must beat the
/// Dynamic-registration baseline (row 0) by at least 1.3x at 1M
/// records, with zero staged bytes at steady state and every WRITE byte
/// accounted by the zero-copy counter.
pub(crate) fn write_smoke() {
    let rows = write_rows();
    let (baseline, zc) = (rows[0].1, rows[2].1);
    // The Cache strategy's pre-registered slabs are the one path that
    // must still bounce.
    let cache = write_point(StrategyKind::Cache, 1, false);
    let r = parallel_sweep(vec![baseline, zc, cache], |(bed, p)| {
        iozone_on(SEED, bed, p)
    });
    let (base_mb, zc_mb) = (r[0].bandwidth_mb, r[1].bandwidth_mb);
    let speedup = zc_mb / base_mb;
    let (copied, scattered) = (
        r[1].metric("server.copied_bytes"),
        r[1].metric("server.write.zero_copy_bytes"),
    );
    let (staged_mb, scattered_mb) = (mbytes(copied), mbytes(scattered));
    println!(
        "write-path smoke: zero-copy 1M speedup {speedup:.2}x ({zc_mb:.0} vs {base_mb:.0} MB/s); \
         staged {staged_mb:.1} MB copied, zero-copy counter {scattered_mb:.1} MB"
    );
    assert!(
        speedup >= 1.3,
        "zero-copy WRITE speedup {speedup:.2}x below the 1.3x acceptance floor"
    );
    assert!(
        copied == 0,
        "zero-copy WRITE path staged {staged_mb:.1} MB (must be 0)"
    );
    let expect_mb = mbytes(64 << 20);
    assert!(
        scattered == 64 << 20,
        "write.zero_copy_bytes {scattered_mb:.1} MB != {expect_mb:.1} MB transferred"
    );
    let bounced_mb = mbytes(r[2].metric("server.copied_bytes"));
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
                ("unstable_writes", &r[1].metric("nfs.node0.unstable_writes")),
                ("commits", &r[1].metric("nfs.node0.commits")),
            ],
        )
        .write();
    println!("write-path smoke OK");
}

pub(crate) fn write() {
    let baseline = |p: &IozoneParams| usize::from(p.threads_per_client != 1);
    Table::new(
        "Ablation 7 — zero-copy WRITE pipeline: receive-side scatter + \
         UNSTABLE/COMMIT batching (RW design, 1M records, clients Dynamic)",
        &run_rows(write_rows(), baseline),
        &[
            ("variant", |(label, ..)| label.to_string()),
            ("threads", |(_, (_, p), ..)| {
                p.threads_per_client.to_string()
            }),
            ("MB/s", |(.., r, _)| mb(r.bandwidth_mb)),
            ("speedup", |(.., r, base)| {
                format!("{:.2}x", r.bandwidth_mb / base)
            }),
            ("staged MB", |(.., r, _)| {
                format!("{:.1}", mbytes(r.metric("server.copied_bytes")))
            }),
            ("zero-copy MB", |(.., r, _)| {
                format!("{:.1}", mbytes(r.metric("server.write.zero_copy_bytes")))
            }),
            ("unstable writes", |(.., r, _)| {
                r.metric("nfs.node0.unstable_writes").to_string()
            }),
            ("commits", |(.., r, _)| {
                r.metric("nfs.node0.commits").to_string()
            }),
        ],
    )
    .emit("ablation_write");
    println!(
        "Takeaway: pulled read chunks scatter straight into page-cache \
         pages on every non-Cache server; an all-physical window then \
         removes the per-op TPT work — the WRITE mirror of the READ \
         pipeline win. COMMIT-on-close adds one cheap group commit per \
         file on top of the UNSTABLE burst.\n"
    );
}
