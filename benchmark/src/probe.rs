//! Per-layer counts, read from outside the layers: the `Testbed`'s
//! public fields and `sim.metrics()` series looked up by name. A
//! series the testbed does not have reads `None` — never 0 — so a
//! later rename shows up as a missing number, not a silent zero.

use ib_verbs::NodeId;
use sim_core::{MetricsRegistry, Sim};
use workloads::Testbed;

/// One per-layer metric: name, value (`None` = the series does not
/// exist on this workload), unit.
pub type Metric = (&'static str, Option<f64>, &'static str);

const SERVER: NodeId = NodeId(0);

/// Cumulative counters at one instant. Windowed accumulators
/// (utilizations, busy times, port bytes) need no snapshot: `open`
/// resets them.
struct Counts {
    polls: Option<u64>,
    allocs: (u64, u64),
    regs: u64,
    pages_pinned: u64,
    server_doorbells: u64,
    server_interrupts: u64,
    client_interrupts: u64,
    fabric_retransmits: Option<u64>,
    tpt_violations: Option<u64>,
    client_retransmits: Option<u64>,
    client_timeouts: Option<u64>,
    drc_replays: Option<u64>,
    copied_bytes: u64,
    read_zero_copy: Option<u64>,
    write_zero_copy: Option<u64>,
    regcache_hits: Option<u64>,
    regcache_misses: Option<u64>,
    nfs_calls: u64,
    cache_hits: Option<u64>,
    cache_misses: Option<u64>,
    readahead_pages: Option<u64>,
}

/// Sum of every series `prefix*suffix`, `None` when there is none.
fn sum_series(m: &MetricsRegistry, prefix: &str, suffix: &str) -> Option<u64> {
    let hits: Vec<u64> = m
        .snapshot()
        .into_iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .collect();
    (!hits.is_empty()).then(|| hits.iter().sum())
}

impl Counts {
    fn read(sim: &Sim, bed: &Testbed) -> Counts {
        let m = sim.metrics();
        let server_hca = bed.server_hca.as_ref().expect("rdma testbed");
        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        let client_hcas = || bed.clients.iter().filter_map(|c| c.hca.as_ref());
        let regs = |h: &ib_verbs::Hca| {
            let s = h.reg_stats();
            (s.dynamic_regs + s.fmr_maps, s.pages_pinned)
        };
        let (mut reg_count, mut pages_pinned) = regs(server_hca);
        for h in client_hcas() {
            let (r, p) = regs(h);
            reg_count += r;
            pages_pinned += p;
        }
        let cache = bed.disk_store.as_ref().map(|d| d.store().cache().clone());
        let nfs = &bed.server.stats;
        // The allocation snapshot is taken last so that the reads
        // above (which allocate) fall outside the counted window when
        // this is the opening snapshot.
        Counts {
            polls: m.get("executor.polls"),
            regs: reg_count,
            pages_pinned,
            server_doorbells: server_hca.doorbells(),
            server_interrupts: server_hca.cq_interrupts(),
            client_interrupts: client_hcas().map(|h| h.cq_interrupts()).sum(),
            fabric_retransmits: sum_series(&m, "fabric.", ".retransmits"),
            tpt_violations: m.get("tpt.violations"),
            client_retransmits: m.get("client.retransmits"),
            client_timeouts: m.get("client.timeouts"),
            drc_replays: m.get("server.drc.replays"),
            copied_bytes: rpc.stats.copied_bytes.get(),
            read_zero_copy: m.get("server.read.zero_copy_bytes"),
            write_zero_copy: m.get("server.write.zero_copy_bytes"),
            regcache_hits: sum_series(&m, "rpcrdma.regcache.", ".hits"),
            regcache_misses: sum_series(&m, "rpcrdma.regcache.", ".misses"),
            nfs_calls: nfs.reads.get() + nfs.writes.get() + nfs.others.get(),
            cache_hits: cache.as_ref().map(|c| c.hits()),
            cache_misses: cache.as_ref().map(|c| c.misses()),
            readahead_pages: cache
                .as_ref()
                .and_then(|_| m.get("pagecache.readahead.pages")),
            allocs: crate::alloc::snapshot(),
        }
    }
}

/// An open measurement window over a testbed.
pub struct Window {
    before: Counts,
}

/// What the window saw, beyond the per-layer metrics.
pub struct Observed {
    pub layers: Vec<Metric>,
    /// Page-cache hit ratio, for `raid_read`'s working-set assertion.
    pub cache_hit_ratio: Option<f64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Window {
    /// Reset every accounting window and snapshot the counters.
    pub fn open(sim: &Sim, bed: &Testbed) -> Window {
        bed.reset_accounting();
        Window {
            before: Counts::read(sim, bed),
        }
    }

    /// Close the window: per-layer metrics over `ops` operations that
    /// moved `payload` bytes.
    pub fn close(self, sim: &Sim, bed: &Testbed, ops: u64, payload: u64) -> Observed {
        let allocs_now = crate::alloc::snapshot();
        let b = &self.before;
        let a = Counts::read(sim, bed);
        let server_hca = bed.server_hca.as_ref().expect("rdma testbed");
        let rpc = bed.rpc_server.as_ref().expect("rdma testbed");
        let fabric = bed.fabric.as_ref().expect("rdma testbed");

        let per_op = |d: u64| d as f64 / ops as f64;
        let delta = |a: Option<u64>, b: Option<u64>| Some(a? - b?);
        let ratio = |num: Option<u64>, den: Option<u64>| {
            let (n, d) = (num?, den?);
            (d > 0).then(|| n as f64 / d as f64)
        };
        let client_tpt = bed
            .clients
            .iter()
            .filter_map(|c| c.hca.as_ref())
            .map(|h| h.tpt_engine_utilization())
            .sum::<f64>()
            / bed.clients.len() as f64;
        let wire = fabric.tx_bytes(SERVER) + fabric.rx_bytes(SERVER);
        let client_busy: u64 = bed
            .clients
            .iter()
            .map(|c| c.cpu.busy_time().as_nanos())
            .sum();
        let hits = delta(a.cache_hits, b.cache_hits);
        let misses = delta(a.cache_misses, b.cache_misses);
        let lookups = hits.zip(misses).map(|(h, m)| h + m);
        let cache_hit_ratio = ratio(hits, lookups);
        let page = bed
            .disk_store
            .as_ref()
            .map(|d| d.store().cache().page_size());
        let reg_hits = delta(a.regcache_hits, b.regcache_hits);
        let reg_lookups = reg_hits
            .zip(delta(a.regcache_misses, b.regcache_misses))
            .map(|(h, m)| h + m);
        let zero_copy = match (
            delta(a.read_zero_copy, b.read_zero_copy),
            delta(a.write_zero_copy, b.write_zero_copy),
        ) {
            (None, None) => None,
            (r, w) => Some(r.unwrap_or(0) + w.unwrap_or(0)),
        };

        let layers: Vec<Metric> = vec![
            (
                "sim-core.polls_per_op",
                delta(a.polls, b.polls).map(per_op),
                "count",
            ),
            (
                "ib-verbs.regs_per_op",
                Some(per_op(a.regs - b.regs)),
                "count",
            ),
            (
                "ib-verbs.pages_pinned_per_op",
                Some(per_op(a.pages_pinned - b.pages_pinned)),
                "count",
            ),
            (
                "ib-verbs.server_tpt_util",
                Some(server_hca.tpt_engine_utilization()),
                "ratio",
            ),
            ("ib-verbs.client_tpt_util", Some(client_tpt), "ratio"),
            (
                "ib-verbs.server_doorbells_per_op",
                Some(per_op(a.server_doorbells - b.server_doorbells)),
                "count",
            ),
            (
                "ib-verbs.server_cq_interrupts_per_op",
                Some(per_op(a.server_interrupts - b.server_interrupts)),
                "count",
            ),
            (
                "ib-verbs.client_cq_interrupts_per_op",
                Some(per_op(a.client_interrupts - b.client_interrupts)),
                "count",
            ),
            (
                "ib-verbs.server_tx_util",
                Some(fabric.tx_utilization(SERVER)),
                "ratio",
            ),
            (
                "ib-verbs.server_rx_util",
                Some(fabric.rx_utilization(SERVER)),
                "ratio",
            ),
            (
                "ib-verbs.wire_bytes_per_payload_byte",
                Some(wire as f64 / payload as f64),
                "ratio",
            ),
            (
                "ib-verbs.retransmits",
                delta(a.fabric_retransmits, b.fabric_retransmits).map(|d| d as f64),
                "count",
            ),
            (
                "ib-verbs.tpt_violations",
                delta(a.tpt_violations, b.tpt_violations).map(|d| d as f64),
                "count",
            ),
            (
                "rpcrdma.taskq_util",
                Some(rpc.taskq().utilization()),
                "ratio",
            ),
            (
                "rpcrdma.server_copied_bytes_per_op",
                Some(per_op(a.copied_bytes - b.copied_bytes)),
                "B",
            ),
            (
                "rpcrdma.server_zero_copy_bytes_per_op",
                zero_copy.map(per_op),
                "B",
            ),
            (
                "rpcrdma.regcache_hit_ratio",
                ratio(reg_hits, reg_lookups),
                "ratio",
            ),
            (
                "rpcrdma.peak_inflight",
                Some(rpc.stats.peak_inflight.get() as f64),
                "count",
            ),
            (
                "rpcrdma.client_retransmits",
                delta(a.client_retransmits, b.client_retransmits).map(|d| d as f64),
                "count",
            ),
            (
                "rpcrdma.client_timeouts",
                delta(a.client_timeouts, b.client_timeouts).map(|d| d as f64),
                "count",
            ),
            (
                "onc-rpc.drc_replays",
                delta(a.drc_replays, b.drc_replays).map(|d| d as f64),
                "count",
            ),
            (
                "nfs.server_calls_per_op",
                Some(per_op(a.nfs_calls - b.nfs_calls)),
                "count",
            ),
            ("fs-backend.pagecache_hit_ratio", cache_hit_ratio, "ratio"),
            (
                "fs-backend.readahead_pages_per_op",
                delta(a.readahead_pages, b.readahead_pages).map(per_op),
                "count",
            ),
            (
                "fs-backend.disk_bytes_per_payload_byte",
                misses
                    .zip(page)
                    .map(|(m, p)| (m * p) as f64 / payload as f64),
                "ratio",
            ),
            (
                "cpu.client_us_per_op",
                Some(client_busy as f64 / 1e3 / ops as f64),
                "us",
            ),
            (
                "cpu.server_us_per_op",
                Some(bed.server_cpu.busy_time().as_nanos() as f64 / 1e3 / ops as f64),
                "us",
            ),
        ];
        Observed {
            layers,
            cache_hit_ratio,
            allocs: allocs_now.0 - b.allocs.0,
            alloc_bytes: allocs_now.1 - b.allocs.1,
        }
    }
}
