//! Span tree of a single NFS READ: turn span tracing on and watch one
//! operation cross every layer — the RPC call, the client's exposed
//! write-chunk registration, the server's op with its file-system read,
//! the RDMA Write push, the ordered reply Send, the client's finish and
//! both TPT invalidations (the tails of the call and the op). This is the
//! paper's Figure 4, as the spans that time each step.
//!
//! ```text
//! cargo run --release -p bench --example trace_one_op
//! ```
//!
//! The example fails if the READ's tree is missing a Figure-4 step, so
//! running it is a check, not just a printout.

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, SimTime, Simulation, SpanRecord};
use workloads::{solaris_sdr, Bed};

/// NFSv3 READ's procedure number.
const READ: u32 = 6;

/// The Figure-4 steps the READ's tree must contain, in start order.
const FIGURE_4: [(&str, &str); 7] = [
    ("client", "call"),
    ("hca", "reg"),
    ("server", "op"),
    ("fs", "read"),
    ("server", "rdma_write"),
    ("server", "reply_send"),
    ("client", "finish"),
];

/// The span `s` hangs under: its enclosing span on the same task, or
/// else the remote span it was triggered by.
fn up(s: &SpanRecord) -> Option<u64> {
    s.parent.or((s.flow_from != 0).then_some(s.flow_from))
}

/// Print the subtree under `root` depth-first, children in start order.
fn print_tree(tree: &[&SpanRecord], root: Option<u64>, depth: usize, t0: SimTime) {
    for s in tree.iter().filter(|s| up(s) == root) {
        println!(
            "  +{:>9}ns {:>9}ns  {:indent$}{}/{}",
            (s.start - t0).as_nanos(),
            (s.end - s.start).as_nanos(),
            "",
            s.component,
            s.name,
            indent = 2 * depth
        );
        print_tree(tree, Some(s.id), depth + 1, t0);
    }
}

fn main() {
    let mut sim = Simulation::new(7);
    sim.enable_span_tracing();
    let h = sim.handle();
    let profile = solaris_sdr();

    sim.block_on(async move {
        let bed = Bed::new(&profile, Design::ReadWrite, StrategyKind::Dynamic);
        let bed = bed.build(&h).await;
        let root = bed.server.root_handle();
        let c = &bed.clients[0];
        let f = c.nfs.create(root, "traced").await.unwrap();
        bed.fs
            .write(
                fs_backend::FileId(f.handle().0),
                0,
                Payload::synthetic(1, 131072),
            )
            .await
            .unwrap();
        let buf = c.mem.alloc(131072);
        c.nfs
            .read(f.handle(), 0, 131072, Some((&buf, 0)))
            .await
            .unwrap();
    });

    let spans = sim.take_spans();
    // The CREATE precedes it: the READ is the last call of proc 6.
    let call = (spans.iter())
        .filter(|s| (s.component, s.name, s.proc_num) == ("client", "call", Some(READ)))
        .max_by_key(|s| s.start)
        .expect("a traced READ call");
    let mut tree: Vec<&SpanRecord> = (spans.iter())
        .filter(|s| s.trace_id == call.trace_id)
        .collect();
    tree.sort_by_key(|s| (s.start, s.id));

    println!("span tree of one 128 KiB NFS READ (Read-Write design, dynamic registration):");
    println!("  (start offset, duration, component/name)\n");
    print_tree(&tree, None, 0, call.start);

    let mut steps = FIGURE_4.iter();
    let mut next = steps.next();
    for s in &tree {
        if next == Some(&(s.component, s.name)) {
            next = steps.next();
        }
    }
    if let Some((component, name)) = next {
        panic!("the READ's span tree has no {component}/{name} in Figure-4 order");
    }
    println!(
        "\nThe Figure-4 structure: the client registers its sink (hca/reg under\n\
         client/reg: the exposed Write chunk), the server reads the file and\n\
         pushes it with RDMA Write from a locally registered source, then sends\n\
         the reply whose arrival guarantees placement. Past client/finish and\n\
         server/reply_send, the tails of client/call and server/op are the two\n\
         TPT invalidations and nothing else: the unpin behind each runs on a\n\
         free core, and nobody waits for it."
    );
}
