//! Hierarchical metrics registry: the one store for every count the
//! simulated stack keeps.
//!
//! Components take named series (`server.drc.replays`,
//! `fabric.port3.dropped`, `hca.node0.doorbells`, `executor.polls`,
//! ...) from the simulation's [`MetricsRegistry`] when they are built
//! and keep the returned handle for hot-path bumps — a `Cell` write, no
//! map lookup, no allocation. There are two kinds: a [`Counter`] only
//! grows; a [`Gauge`] is a level its owner sets (in flight, a peak).
//! Nothing zeroes either: a measurement window is a difference of two
//! reads.
//!
//! Names use dot-separated components, most general first, so prefix
//! filters select whole subsystems. A series is shared by name: every
//! component asking for `server.ops` bumps one counter, fleet-wide.
//! When something reads one instance — one HCA's doorbells, one
//! store's page cache — the name carries the node, `hca.node{N}.*`, and
//! the fleet total is a `*` read over the per-node series, never a
//! second counter.
//!
//! The registry is held by the executor core and reached from any
//! [`crate::Sim`] handle via `Sim::metrics()`, so components need no
//! extra constructor plumbing. Snapshots iterate a `BTreeMap`, which
//! makes the text/JSON dumps deterministic: two same-seed runs produce
//! byte-identical output (pinned by a chaos-harness test).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::stats::{Counter, Gauge};

/// One registered series.
#[derive(Clone)]
enum Series {
    Counter(Rc<Counter>),
    Gauge(Rc<Gauge>),
}

impl Series {
    fn value(&self) -> u64 {
        match self {
            Series::Counter(c) => c.get(),
            Series::Gauge(g) => g.get(),
        }
    }
}

/// A shared, named-series registry (cheap to clone).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<BTreeMap<String, Series>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`. Every caller asking for
    /// the same name shares one counter, so independent components can
    /// aggregate into a single series.
    ///
    /// # Panics
    /// If `name` is already a gauge.
    pub fn counter(&self, name: &str) -> Rc<Counter> {
        let series = self.series(name, || Series::Counter(Rc::default()));
        match series {
            Series::Counter(c) => c,
            Series::Gauge(_) => panic!("series {name:?} is a gauge, not a counter"),
        }
    }

    /// Get or create the gauge named `name` (shared by name, like
    /// [`MetricsRegistry::counter`]).
    ///
    /// # Panics
    /// If `name` is already a counter.
    pub fn gauge(&self, name: &str) -> Rc<Gauge> {
        let series = self.series(name, || Series::Gauge(Rc::default()));
        match series {
            Series::Gauge(g) => g,
            Series::Counter(_) => panic!("series {name:?} is a counter, not a gauge"),
        }
    }

    fn series(&self, name: &str, make: impl FnOnce() -> Series) -> Series {
        let mut map = self.inner.borrow_mut();
        if let Some(s) = map.get(name) {
            return s.clone();
        }
        let s = make();
        map.insert(name.to_string(), s.clone());
        s
    }

    /// Current value of `name`, or `None` if never registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.inner.borrow().get(name).map(Series::value)
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Sorted `(name, value)` snapshot.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// Deterministic `name value` text dump, one series per line,
    /// sorted by name.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.inner.borrow().iter() {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.value().to_string());
            out.push('\n');
        }
        out
    }

    /// Deterministic JSON object dump (`{"name": value, ...}`), sorted
    /// by name.
    pub fn to_json(&self) -> String {
        let map = self.inner.borrow();
        let mut out = String::from("{");
        for (i, (k, v)) in map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(k));
            out.push_str("\":");
            out.push_str(&v.value().to_string());
        }
        out.push('}');
        out
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("client.retransmits");
        let b = reg.counter("client.retransmits");
        a.inc();
        b.add(2);
        assert_eq!(reg.get("client.retransmits"), Some(3));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        assert_eq!(reg.to_text(), "a.first 2\nm.mid 3\nz.last 1\n");
        assert_eq!(reg.to_json(), r#"{"a.first":2,"m.mid":3,"z.last":1}"#);
    }

    #[test]
    fn gauge_is_a_level_shared_by_name() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("server.node0.inflight");
        g.set(4);
        g.set(g.get() - 1);
        assert_eq!(reg.gauge("server.node0.inflight").get(), 3);
        assert_eq!(reg.get("server.node0.inflight"), Some(3));
    }

    #[test]
    #[should_panic(expected = "is a gauge")]
    fn a_name_has_one_kind() {
        let reg = MetricsRegistry::new();
        reg.gauge("x");
        reg.counter("x");
    }

    #[test]
    fn clones_share_the_map() {
        let reg = MetricsRegistry::new();
        let reg2 = reg.clone();
        reg.counter("x").inc();
        assert_eq!(reg2.get("x"), Some(1));
    }
}
