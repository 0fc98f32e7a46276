//! Span tracing invariants: per-task LIFO nesting, consistent parent
//! ids, enclosing intervals — under arbitrary interleavings of nested
//! spans, sleeps and concurrent tasks — plus Chrome trace_event schema
//! sanity on the JSON export.

use proptest::prelude::*;
use sim_core::{
    chrome_trace_json, validate_json, FxMap, FxSet, Sim, SimDuration, Simulation, Span, SpanRecord,
};

const COMPONENTS: [&str; 4] = ["client", "hca", "server", "fs"];
const NAMES: [&str; 4] = ["call", "reg", "io", "send"];

/// One step of a task's plan.
#[derive(Clone, Debug)]
enum Step {
    /// Open a span (component, name picked by index) and push its guard.
    Enter(usize),
    /// Drop the innermost open guard (no-op on an empty stack).
    Exit,
    /// Advance virtual time, possibly yielding to other tasks.
    Sleep(u64),
}

fn arb_plan() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0..16usize).prop_map(Step::Enter),
            Just(Step::Exit),
            (1..500u64).prop_map(Step::Sleep),
        ],
        1..24,
    )
}

async fn run_plan(sim: Sim, proc_num: u32, plan: Vec<Step>) {
    // Root span tags the whole task with a procedure number, mirroring
    // how an RPC call wraps its phases.
    let _root = sim.span_proc("task", "root", proc_num);
    let mut stack: Vec<Span> = Vec::new();
    for step in plan {
        match step {
            Step::Enter(i) => stack.push(sim.span(COMPONENTS[i % 4], NAMES[(i / 4) % 4])),
            Step::Exit => {
                stack.pop();
            }
            Step::Sleep(ns) => sim.sleep(SimDuration::from_nanos(ns)).await,
        }
    }
    // Remaining guards drop innermost-first as `stack` unwinds in
    // reverse; `_root` last.
    while stack.pop().is_some() {}
}

fn check_invariants(spans: &[SpanRecord]) {
    // Ids unique; parents recorded, same-task, opened earlier, and the
    // parent interval encloses the child's.
    let mut seen = FxSet::default();
    for s in spans {
        assert!(seen.insert(s.id), "duplicate span id {}", s.id);
        assert!(s.start <= s.end, "span {} ends before it starts", s.id);
    }
    let by_id: FxMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(pid) = s.parent {
            let p = by_id
                .get(&pid)
                .unwrap_or_else(|| panic!("span {} has unrecorded parent {pid}", s.id));
            assert_eq!(p.task, s.task, "parent on a different task");
            assert!(pid < s.id, "parent {pid} opened after child {}", s.id);
            assert!(
                p.start <= s.start && s.end <= p.end,
                "parent interval [{:?},{:?}] does not enclose child [{:?},{:?}]",
                p.start,
                p.end,
                s.start,
                s.end
            );
        }
    }
    // LIFO nesting per task: two spans on one task either nest (one
    // lies on the other's parent chain) or their lifetimes are
    // guard-ordered such that intervals never partially overlap.
    let ancestor = |mut id: u64, target: u64| -> bool {
        loop {
            match by_id.get(&id).and_then(|s| s.parent) {
                Some(p) if p == target => return true,
                Some(p) => id = p,
                None => return false,
            }
        }
    };
    for a in spans {
        for b in spans {
            if a.id >= b.id || a.task != b.task {
                continue;
            }
            let disjoint = a.end <= b.start || b.end <= a.start;
            let nested = ancestor(b.id, a.id) || ancestor(a.id, b.id);
            assert!(
                disjoint || nested,
                "spans {} and {} on task {} partially overlap without nesting",
                a.id,
                b.id,
                a.task
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spans_nest_lifo_with_consistent_parents(
        plans in proptest::collection::vec(arb_plan(), 1..6),
        seed in 0..u64::MAX,
    ) {
        let mut sim = Simulation::new(seed);
        sim.enable_span_tracing();
        for (i, plan) in plans.into_iter().enumerate() {
            let h = sim.handle();
            sim.spawn(run_plan(h, i as u32, plan));
        }
        sim.run();
        let spans = sim.take_spans();
        prop_assert!(!spans.is_empty(), "every task records at least its root span");
        check_invariants(&spans);
        // Every root span resolves its own proc; exported JSON stays valid.
        validate_json(&chrome_trace_json(&spans)).unwrap();
    }
}

#[test]
fn spans_record_lifecycle_across_awaits() {
    let mut sim = Simulation::new(7);
    sim.enable_span_tracing();
    let h = sim.handle();
    sim.block_on(async move {
        let _call = h.span_proc("client", "call", 6);
        {
            let _reg = h.span("hca", "reg");
            h.sleep(SimDuration::from_micros(3)).await;
        }
        let _io = h.span("fs", "read");
        h.sleep(SimDuration::from_micros(10)).await;
    });
    let spans = sim.take_spans();
    assert_eq!(spans.len(), 3);
    check_invariants(&spans);
    let call = spans.iter().find(|s| s.name == "call").unwrap();
    let reg = spans.iter().find(|s| s.name == "reg").unwrap();
    let io = spans.iter().find(|s| s.name == "read").unwrap();
    assert_eq!(call.proc_num, Some(6));
    assert_eq!(reg.parent, Some(call.id));
    assert_eq!(io.parent, Some(call.id));
    assert_eq!(reg.end.saturating_since(reg.start).as_micros(), 3);
    assert_eq!(call.end.saturating_since(call.start).as_micros(), 13);
}

#[test]
fn chrome_export_has_trace_event_schema() {
    let mut sim = Simulation::new(11);
    sim.enable_span_tracing();
    let h = sim.handle();
    sim.block_on(async move {
        let _call = h.span_proc("client", "call", 6);
        let _reg = h.span("hca", "reg");
        h.sleep(SimDuration::from_micros(1)).await;
    });
    let json = chrome_trace_json(&sim.take_spans());
    validate_json(&json).expect("export must be valid JSON");
    // Chrome trace_event essentials: complete events with ts/dur under
    // a traceEvents array, and our args carry span identity.
    for needle in [
        "\"traceEvents\":[",
        "\"ph\":\"X\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":0",
        "\"tid\":",
        "\"cat\":\"hca\"",
        "\"name\":\"reg\"",
        "\"proc\":6",
        "\"parent\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}

#[test]
fn disabled_span_tracing_records_nothing() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    sim.block_on(async move {
        assert!(!h.span_tracing());
        let _s = h.span("client", "call");
        h.sleep(SimDuration::from_micros(1)).await;
    });
    assert!(sim.take_spans().is_empty());
}
