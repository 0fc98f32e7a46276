//! Folds one traced repetition's spans into self time per phase.
//!
//! A span's self time is its duration minus the part its causal
//! children cover. A child is a span opened inside it on the same task
//! (`parent`), or one another node opened on its behalf (`flow_from`):
//! the latter is hung on the deepest span under `flow_from` that was
//! open when the remote span started, so that a server `op` comes out
//! of the client's `wait_reply` rather than being counted beside it.
//! Spans with neither link (the HCA's work-queue spans today) cover
//! nobody and so overlap whoever waited for them; that double count,
//! with the time no named span covers, is what `trace.unattributed`
//! reports.

use std::collections::HashMap;

use sim_core::{SimTime, SpanRecord};

use crate::probe::Metric;

/// The phases reported, by (component, name).
const PHASES: [(&str, &str, &str); 15] = [
    ("client", "marshal", "trace.client.marshal"),
    ("client", "reg", "trace.client.reg"),
    ("client", "wait_reply", "trace.client.wait_reply"),
    ("client", "finish", "trace.client.finish"),
    ("server", "dispatch", "trace.server.dispatch"),
    ("server", "pull_chunks", "trace.server.pull_chunks"),
    ("server", "service", "trace.server.service"),
    ("server", "rdma_write", "trace.server.rdma_write"),
    ("server", "reply_send", "trace.server.reply_send"),
    ("hca", "reg", "trace.hca.reg"),
    ("hca", "send", "trace.hca.send"),
    ("hca", "rdma_read", "trace.hca.rdma_read"),
    ("hca", "rdma_write", "trace.hca.rdma_write"),
    ("fs", "read", "trace.fs.read"),
    ("fs", "write", "trace.fs.write"),
];

/// Self microseconds per operation for every phase, over the spans
/// that started inside `window`, and what is left of `mean_latency_us`
/// once they are all taken out.
pub fn fold(
    spans: &[SpanRecord],
    window: (SimTime, SimTime),
    ops: u64,
    mean_latency_us: f64,
) -> Vec<Metric> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push(i);
        }
    }
    // Remote spans second: they descend through the local links above.
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() || s.flow_from == 0 {
            continue;
        }
        let Some(&(mut p)) = index.get(&s.flow_from) else {
            continue;
        };
        while let Some(&c) = children[p].iter().find(|&&c| {
            spans[c].parent.is_some() && spans[c].start <= s.start && s.start < spans[c].end
        }) {
            p = c;
        }
        children[p].push(i);
    }

    let mut self_ns: HashMap<(&str, &str), u64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.start < window.0 || s.start > window.1 {
            continue;
        }
        // Union of the children's intervals, clipped to this span.
        let mut cover: Vec<(SimTime, SimTime)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| a < b)
            .collect();
        cover.sort();
        let (mut covered, mut upto) = (0u64, s.start);
        for (a, b) in cover {
            if b > upto {
                covered += b.saturating_since(a.max(upto)).as_nanos();
                upto = b;
            }
        }
        let dur = s.end.saturating_since(s.start).as_nanos();
        *self_ns.entry((s.component, s.name)).or_default() += dur - covered;
    }

    let mut attributed = 0.0;
    let mut out: Vec<Metric> = PHASES
        .iter()
        .map(|&(component, name, metric)| {
            let us = *self_ns.get(&(component, name)).unwrap_or(&0) as f64 / 1e3 / ops as f64;
            attributed += us;
            (metric, Some(us), "us")
        })
        .collect();
    out.push((
        "trace.unattributed",
        Some(mean_latency_us - attributed),
        "us",
    ));
    out
}
