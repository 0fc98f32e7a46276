//! Hierarchical metrics registry: one namespace for every counter in
//! the simulated stack.
//!
//! Components register named counters (`server.drc.replays`,
//! `fabric.port3.dropped`, `rpcrdma.regcache.hits`, `executor.polls`,
//! ...) into the simulation's [`MetricsRegistry`] and keep the returned
//! [`Counter`] handle for hot-path bumps — a `Cell` increment, no map
//! lookup, no allocation. Names use dot-separated components, most
//! general first, so prefix filters select whole subsystems.
//!
//! The registry is held by the executor core and reached from any
//! [`crate::Sim`] handle via `Sim::metrics()`, so components need no
//! extra constructor plumbing. Snapshots iterate a `BTreeMap`, which
//! makes the text/JSON dumps deterministic: two same-seed runs produce
//! byte-identical output (pinned by a chaos-harness test).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::stats::Counter;

/// A shared, named-counter registry (cheap to clone).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<BTreeMap<String, Rc<Counter>>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`. Every caller asking for
    /// the same name shares one counter, so independent components can
    /// aggregate into a single series.
    pub fn counter(&self, name: &str) -> Rc<Counter> {
        let mut map = self.inner.borrow_mut();
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Rc::new(Counter::new());
        map.insert(name.to_string(), c.clone());
        c
    }

    /// Current value of `name`, or `None` if never registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.inner.borrow().get(name).map(|c| c.get())
    }

    /// Number of registered counters.
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
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Zero every registered counter (exclude warmup from a report).
    pub fn reset(&self) {
        for c in self.inner.borrow().values() {
            c.reset();
        }
    }

    /// Deterministic `name value` text dump, one counter per line,
    /// sorted by name.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.inner.borrow().iter() {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.get().to_string());
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
            out.push_str(&v.get().to_string());
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
        reg.counter("m.mid").add(3);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
        assert_eq!(reg.to_text(), "a.first 2\nm.mid 3\nz.last 1\n");
        assert_eq!(reg.to_json(), r#"{"a.first":2,"m.mid":3,"z.last":1}"#);
    }

    #[test]
    fn reset_zeroes_everything() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("executor.polls");
        c.add(10);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(reg.get("executor.polls"), Some(0));
    }

    #[test]
    fn clones_share_the_map() {
        let reg = MetricsRegistry::new();
        let reg2 = reg.clone();
        reg.counter("x").inc();
        assert_eq!(reg2.get("x"), Some(1));
    }
}
