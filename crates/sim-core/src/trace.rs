//! Structured lifecycle tracing: nested spans over virtual time.
//!
//! A [`crate::executor::Span`] (entered via `Sim::span`) records one
//! phase of an RPC's life — client marshal, memory registration, fabric
//! transit, server dispatch, backend I/O, RDMA data movement, reply —
//! stamped with sim-time, the executing task and the enclosing span.
//! Spans nest per task: the innermost open span on the entering task
//! becomes the parent, and the guard's `Drop` closes the span, so
//! nesting is LIFO by construction (a proptest pins this).
//!
//! Tracing is **off by default and free when off**: entering a span
//! then costs one flag read and constructs an inert guard — no
//! allocation, no RNG draw, no timer — so the instrumented hot path
//! stays on the `tests/zero_alloc.rs` and golden-schedule gates.
//!
//! Completed spans export two ways:
//!
//! * [`chrome_trace_json`] — Chrome `trace_event` JSON ("X" complete
//!   events), loadable in Perfetto / `chrome://tracing`.
//! * [`aggregate_phases`] — per-(procedure, phase) [`Histogram`]s for
//!   latency-anatomy tables. A span inherits its procedure from the
//!   nearest proc-tagged ancestor, so only the outermost span of an
//!   RPC needs `Sim::span_proc`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::hash::FxMap;
use crate::metrics::escape_json;
use crate::stats::Histogram;
use crate::time::SimTime;

/// Compact cross-node trace context: the correlation id of one causal
/// tree plus the span the next hop should link from. Carried
/// *out-of-band* with RPC calls and replication records, so modeled
/// wire bytes — and with them every simulated time — are the same with
/// tracing on or off. `(0, 0)` means "no context" — tracing disabled,
/// or an untraced root.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Correlation id shared by every span of one causal tree.
    pub trace_id: u64,
    /// Span on the sending node the receiving span links from.
    pub parent_span: u64,
}

impl TraceCtx {
    /// The empty ("untraced") context.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
    };
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (creation order).
    pub id: u64,
    /// Innermost span open on the same task at entry, if any.
    pub parent: Option<u64>,
    /// Executor task the span was entered on.
    pub task: u64,
    /// Component ("client", "hca", "fabric", "server", "fs", ...).
    pub component: &'static str,
    /// Phase name within the component ("marshal", "reg", "pull", ...).
    pub name: &'static str,
    /// RPC procedure number, when tagged at entry (`Sim::span_proc`).
    pub proc_num: Option<u32>,
    /// Causal-tree correlation id: inherited from the enclosing span,
    /// adopted from a remote [`TraceCtx`], or minted fresh for roots.
    /// 0 only for spans recorded before cross-node tracing existed.
    pub trace_id: u64,
    /// Remote span this span was causally triggered by (rendered as a
    /// Chrome/Perfetto flow edge); 0 when the trigger was local.
    pub flow_from: u64,
    /// Entry instant (virtual time).
    pub start: SimTime,
    /// Exit instant (virtual time).
    pub end: SimTime,
}

/// Retained span storage: one fixed 32-byte plain-old-data record
/// per span, written **once at enter** into the `done` buffer and
/// patched in place (`end_ns` only) at exit. Much of a traced run's
/// extra cost is these bytes — a record padded by 16 bytes costs the
/// gated READ loop about a point of overhead — so a record stores
/// nothing it can be told some cheaper way: its id is its position
/// (`base` plus its index), its task an index into the task table, its
/// procedure part of its interned names, and the flow trigger of the
/// few spans that adopt a remote context sits in a side list. Sentinel
/// fields stand in for the `Option`s of the public [`SpanRecord`].
#[derive(Clone, Copy, Default)]
struct Packed {
    start_ns: u64,
    /// [`OPEN_NS`] until the span exits, [`TAKEN_NS`] once drained.
    end_ns: u64,
    /// Index into the task table.
    task: u32,
    /// [`NO_PARENT`] for roots.
    parent: u32,
    trace: u32,
    /// Index into the intern table of (component, name, procedure).
    names: u32,
}

const _: () = assert!(std::mem::size_of::<Packed>() == 32);

const OPEN_NS: u64 = u64::MAX;
const TAKEN_NS: u64 = u64::MAX - 1;
const NO_PARENT: u32 = u32::MAX;
const NO_PROC: u32 = u32::MAX;

/// (ptr, len) identity of one `&'static str` — the intern key half.
type StrKey = (usize, usize);

/// `SlotSpans::top` of a slot with no span open.
const NO_TOP: u32 = u32::MAX;

/// One task slot's innermost open span, and the task that last opened
/// a span there with its index in the task table. The slot's other
/// open spans are the innermost one's ancestors: each record's
/// `parent` names the span that was innermost when it opened, so the
/// records themselves are the stack.
struct SlotSpans {
    /// `done` index of the innermost open span, or [`NO_TOP`].
    top: u32,
    task: Option<(u64, u32)>,
}

impl Default for SlotSpans {
    fn default() -> SlotSpans {
        SlotSpans {
            top: NO_TOP,
            task: None,
        }
    }
}

/// Open spans by executor task *slot* (low id bits) — a dense vector,
/// not a map, because the span enter/exit pair is the tracing-enabled
/// hot path and a direct offset beats hashing and bucket probing.
/// Slots are reused from the executor's free list, so the vector stays
/// bounded by peak task concurrency. Generation reuse cannot mix
/// tasks' spans: span guards are RAII, so a task has closed every span
/// before its slot is freed.
#[derive(Default)]
struct OpenStacks {
    by_slot: Vec<SlotSpans>,
    /// Spans entered outside any task (`block_on` driver code).
    detached: SlotSpans,
}

/// `task_slot(NO_TASK)`: the executor's "no current task" sentinel.
const DETACHED_SLOT: usize = u32::MAX as usize;

impl OpenStacks {
    fn slot_mut(&mut self, task: u64) -> &mut SlotSpans {
        let slot = crate::executor::task_slot(task);
        if slot == DETACHED_SLOT {
            return &mut self.detached;
        }
        if slot >= self.by_slot.len() {
            self.by_slot.resize_with(slot + 1, SlotSpans::default);
        }
        &mut self.by_slot[slot]
    }

    /// `done` index of `task`'s innermost open span, or [`NO_TOP`].
    fn top(&self, task: u64) -> u32 {
        let slot = crate::executor::task_slot(task);
        if slot == DETACHED_SLOT {
            return self.detached.top;
        }
        self.by_slot.get(slot).map_or(NO_TOP, |s| s.top)
    }

    fn slots_mut(&mut self) -> impl Iterator<Item = &mut SlotSpans> {
        self.by_slot.iter_mut().chain([&mut self.detached])
    }
}

/// Records pre-faulted at [`Tracer::enable`]: growth reallocations
/// and first-touch page faults otherwise land mid-measurement on the
/// instrumented hot path (they showed up as the single largest cost
/// in the tracing-overhead gate before records were written through a
/// warmed buffer).
const PREFAULT_RECORDS: usize = 1 << 15;

/// All of the tracer's mutable state behind **one** `RefCell` — the
/// span enter/exit pair is the tracing-enabled hot path, and one
/// borrow-flag check beats the three or four that separate cells for
/// the buffer, stacks and intern maps would cost per span.
#[derive(Default)]
struct TracerState {
    /// Id of `done[0]`: a record's id is `base` plus its index.
    base: u32,
    open: OpenStacks,
    done: Vec<Packed>,
    /// Task table: the task ids `done`'s records index. Emptied with
    /// `done`.
    tasks: Vec<u64>,
    /// `(span id, remote span it links from)` of the spans in `done`
    /// that adopted a remote context, in id order.
    flows: Vec<(u32, u32)>,
    /// Intern table: `names` index in a [`Packed`] record → strings and
    /// procedure ([`NO_PROC`] when untagged).
    names: Vec<(&'static str, &'static str, u32)>,
    /// Reverse interning by the `&'static str`s' (ptr, len) identity and
    /// the procedure — distinct literals with equal text intern
    /// separately, which only costs a duplicate table entry.
    name_ids: FxMap<(StrKey, StrKey, u32), u32>,
    /// Trace contexts of in-flight messages, keyed by
    /// `(client_node << 32) | xid` for RPCs and `1 << 63 | seq` for
    /// replication records — the out-of-band channel that lets the
    /// receiver adopt the sender's context without a single byte of
    /// modeled wire growth.
    inflight: FxMap<u64, TraceCtx>,
}

impl TracerState {
    fn intern(&mut self, component: &'static str, name: &'static str, proc_num: u32) -> u32 {
        let key = (
            (component.as_ptr() as usize, component.len()),
            (name.as_ptr() as usize, name.len()),
            proc_num,
        );
        if let Some(&i) = self.name_ids.get(&key) {
            return i;
        }
        let i = u32::try_from(self.names.len()).expect("intern table overflow");
        self.names.push((component, name, proc_num));
        self.name_ids.insert(key, i);
        i
    }
}

/// Span recorder owned by the executor core. All methods are no-ops
/// until [`Tracer::enable`].
#[derive(Default)]
pub(crate) struct Tracer {
    enabled: Cell<bool>,
    state: RefCell<TracerState>,
}

impl Tracer {
    pub(crate) fn enable(&self) {
        self.enabled.set(true);
        let done = &mut self.state.borrow_mut().done;
        if done.capacity() < PREFAULT_RECORDS {
            // Touch every page once so neither the allocator's growth
            // schedule nor first-write faults tax the traced run.
            done.resize(PREFAULT_RECORDS, Packed::default());
            done.clear();
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Open a span on `task`; the top of the task's stack becomes the
    /// parent. Returns the new span's id. (The executor calls
    /// [`Tracer::enter_remote`] directly; this shorthand serves tests.)
    #[cfg(test)]
    pub(crate) fn enter(
        &self,
        now: SimTime,
        task: u64,
        component: &'static str,
        name: &'static str,
        proc_num: Option<u32>,
    ) -> u64 {
        self.enter_remote(now, task, component, name, proc_num, TraceCtx::NONE)
    }

    /// Open a span adopting a remote [`TraceCtx`]: the span joins the
    /// sender's causal tree (`trace_id`) and records the sending span
    /// as its flow trigger. With an empty context the trace id
    /// inherits from the enclosing span, or a fresh one is minted for
    /// roots (`id + 1`, so 0 stays the "untraced" sentinel).
    pub(crate) fn enter_remote(
        &self,
        now: SimTime,
        task: u64,
        component: &'static str,
        name: &'static str,
        proc_num: Option<u32>,
        ctx: TraceCtx,
    ) -> u64 {
        let state = &mut *self.state.borrow_mut();
        let idx = state.done.len() as u32;
        let id = state.base + idx;
        let names = state.intern(component, name, proc_num.unwrap_or(NO_PROC));
        let slot = state.open.slot_mut(task);
        let task_index = match slot.task {
            Some((t, i)) if t == task => i,
            _ => {
                let i = u32::try_from(state.tasks.len()).expect("task table overflow");
                state.tasks.push(task);
                slot.task = Some((task, i));
                i
            }
        };
        let top = std::mem::replace(&mut slot.top, idx);
        let enclosing = state.done.get(top as usize);
        let parent = enclosing.map_or(NO_PARENT, |_| state.base + top);
        let trace = if ctx.trace_id != 0 {
            let flow = ctx.parent_span as u32;
            if flow != 0 {
                state.flows.push((id, flow));
            }
            ctx.trace_id as u32
        } else {
            enclosing.map_or(id + 1, |e| e.trace)
        };
        state.done.push(Packed {
            start_ns: now.as_nanos(),
            end_ns: OPEN_NS,
            task: task_index,
            parent,
            trace,
            names,
        });
        u64::from(id)
    }

    /// The context a message sent from `task` right now should carry:
    /// the innermost open span's trace id, with that span as the link
    /// point. [`TraceCtx::NONE`] when no span is open.
    pub(crate) fn current_ctx(&self, task: u64) -> TraceCtx {
        let state = self.state.borrow();
        let top = state.open.top(task);
        match state.done.get(top as usize) {
            Some(rec) => TraceCtx {
                trace_id: u64::from(rec.trace),
                parent_span: u64::from(state.base + top),
            },
            None => TraceCtx::NONE,
        }
    }

    /// Stash `ctx` for the in-flight RPC `key`; retransmissions
    /// overwrite, so the adopted context always reflects the attempt
    /// that actually reached the server.
    pub(crate) fn inject(&self, key: u64, ctx: TraceCtx) {
        if ctx.trace_id != 0 {
            self.state.borrow_mut().inflight.insert(key, ctx);
        }
    }

    /// Remove and return the context stashed for `key`
    /// ([`TraceCtx::NONE`] when absent).
    pub(crate) fn adopt(&self, key: u64) -> TraceCtx {
        self.state
            .borrow_mut()
            .inflight
            .remove(&key)
            .unwrap_or_default()
    }

    /// Close span `id` on `task` at `now`: patch the record's end time
    /// in place (one store to a line the op just wrote) and, if it was
    /// the task's innermost open span, make its nearest open ancestor
    /// the innermost. Closes are LIFO in normal use; a guard dropped out
    /// of order (e.g. a future torn down mid `.await`) leaves the
    /// innermost span as it is, and is skipped once that one closes.
    pub(crate) fn exit(&self, now: SimTime, task: u64, id: u64) {
        let state = &mut *self.state.borrow_mut();
        let idx = (id as u32).wrapping_sub(state.base);
        let Some(rec) = state.done.get_mut(idx as usize) else {
            return;
        };
        rec.end_ns = now.as_nanos();
        let parent = rec.parent;
        let slot = state.open.slot_mut(task);
        if slot.top == idx {
            slot.top = open_ancestor(&state.done, state.base, parent);
        }
    }

    /// Drain completed spans (in **enter order**), leaving tracing
    /// enabled. Spans still open stay behind and complete into the next
    /// drain; the buffer gives up its records only up to the first of
    /// them, so every record keeps its index's id.
    pub(crate) fn take(&self) -> Vec<SpanRecord> {
        let state = &mut *self.state.borrow_mut();
        let mut out = Vec::with_capacity(state.done.len());
        let mut flows = state.flows.iter().peekable();
        for (id, rec) in (state.base..).zip(&mut state.done) {
            let flow = flows.next_if(|f| f.0 == id).map_or(0, |f| f.1);
            if matches!(rec.end_ns, OPEN_NS | TAKEN_NS) {
                continue;
            }
            let (component, name, proc_num) = state.names[rec.names as usize];
            out.push(SpanRecord {
                id: u64::from(id),
                parent: (rec.parent != NO_PARENT).then(|| u64::from(rec.parent)),
                task: state.tasks[rec.task as usize],
                component,
                name,
                proc_num: (proc_num != NO_PROC).then_some(proc_num),
                trace_id: u64::from(rec.trace),
                flow_from: u64::from(flow),
                start: SimTime::from_nanos(rec.start_ns),
                end: SimTime::from_nanos(rec.end_ns),
            });
            rec.end_ns = TAKEN_NS;
        }
        let drained = (state.done.iter()).position(|r| r.end_ns == OPEN_NS);
        let drained = drained.unwrap_or(state.done.len());
        state.done.drain(..drained);
        state.base += drained as u32;
        let base = state.base;
        state.flows.retain(|f| f.0 >= base);
        let empty = state.done.is_empty();
        if empty {
            state.tasks.clear();
        }
        for slot in state.open.slots_mut() {
            if slot.top != NO_TOP {
                slot.top -= drained as u32;
            }
            if empty {
                slot.task = None;
            }
        }
        out
    }
}

/// `done` index of the nearest span still open among span `id` and its
/// ancestors, or [`NO_TOP`]. A span already drained is closed, and so
/// is every ancestor of it: an open one would have kept it in `done`.
fn open_ancestor(done: &[Packed], base: u32, mut id: u32) -> u32 {
    while let Some(idx) = id.checked_sub(base).filter(|_| id != NO_PARENT) {
        let rec = &done[idx as usize];
        if rec.end_ns == OPEN_NS {
            return idx;
        }
        id = rec.parent;
    }
    NO_TOP
}

/// Format nanoseconds as fractional microseconds (Chrome's `ts` unit)
/// without going through floating point.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render spans as Chrome `trace_event` JSON — an object with a
/// `traceEvents` array of "X" (complete) events plus "s"/"f" flow
/// events for cross-node links — loadable in Perfetto or
/// `chrome://tracing`. `ts`/`dur` are microseconds of virtual time;
/// `tid` is the executor task; span id, parent, procedure and trace id
/// ride in `args`. Each span with a `flow_from` trigger whose source
/// span is present gets a flow edge from the source span's slice to
/// its own (the pair shares `cat:"flow"` and the destination span's
/// id, which is how Perfetto stitches them).
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur = s.end.as_nanos().saturating_sub(s.start.as_nanos());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{}",
            escape_json(s.name),
            escape_json(s.component),
            micros(s.start.as_nanos()),
            micros(dur),
            // Keep tids inside i64 for strict trace viewers.
            s.task & (i64::MAX as u64),
            s.id,
        ));
        if let Some(p) = s.parent {
            out.push_str(&format!(",\"parent\":{p}"));
        }
        if let Some(p) = s.proc_num {
            out.push_str(&format!(",\"proc\":{p}"));
        }
        if s.trace_id != 0 {
            out.push_str(&format!(",\"trace\":{}", s.trace_id));
        }
        out.push_str("}}");
    }
    let by_id: FxMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans.iter().filter(|s| s.flow_from != 0) {
        let Some(src) = by_id.get(&s.flow_from) else {
            continue; // source span still open (or dropped): no edge
        };
        // Both endpoints' timestamps sit at the binding slices' starts,
        // which is always inside the slice.
        out.push_str(&format!(
            ",{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":{},\"pid\":0,\"tid\":{},\"id\":{id}}}",
            micros(src.start.as_nanos()),
            src.task & (i64::MAX as u64),
            name = escape_json(s.name),
            id = s.id,
        ));
        out.push_str(&format!(
            ",{{\"name\":\"{name}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":{},\"pid\":0,\"tid\":{},\"id\":{id}}}",
            micros(s.start.as_nanos()),
            s.task & (i64::MAX as u64),
            name = escape_json(s.name),
            id = s.id,
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Latency histogram of one (procedure, phase) cell.
pub struct PhaseStats {
    /// Procedure: the span's own tag, else the nearest tagged
    /// ancestor's; `None` if no ancestor is tagged.
    pub proc_num: Option<u32>,
    /// Component the phase belongs to.
    pub component: &'static str,
    /// Phase name.
    pub name: &'static str,
    /// Latency distribution of every matching span.
    pub hist: Histogram,
}

/// Fold spans into per-(procedure, component, phase) histograms,
/// resolving each span's procedure by walking its parent chain to the
/// nearest proc-tagged ancestor. Deterministically ordered by
/// (procedure, component, phase).
pub fn aggregate_phases(spans: &[SpanRecord]) -> Vec<PhaseStats> {
    let by_id: FxMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let resolve = |s: &SpanRecord| -> Option<u32> {
        let mut cur = Some(s);
        while let Some(s) = cur {
            if s.proc_num.is_some() {
                return s.proc_num;
            }
            cur = s.parent.and_then(|p| by_id.get(&p).copied());
        }
        None
    };
    let mut cells: BTreeMap<(Option<u32>, &'static str, &'static str), Histogram> = BTreeMap::new();
    for s in spans {
        let key = (resolve(s), s.component, s.name);
        cells
            .entry(key)
            .or_default()
            .record(s.end.saturating_since(s.start));
    }
    cells
        .into_iter()
        .map(|((proc_num, component, name), hist)| PhaseStats {
            proc_num,
            component,
            name,
            hist,
        })
        .collect()
}

/// Validate that `s` is one well-formed JSON value (hand-rolled — the
/// workspace is hermetic, with no serde). Used by the trace-schema test
/// and the `check.sh` traced-workload smoke step.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, "true"),
        Some(b'f') => parse_lit(b, pos, "false"),
        Some(b'n') => parse_lit(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!(
            "unexpected byte {c:#x} at offset {pos}",
            pos = *pos
        )),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad number at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad number at offset {start}"));
        }
    }
    Ok(())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at offset {pos}", pos = *pos));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at offset {pos}", pos = *pos)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte at offset {pos}", pos = *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
                skip_ws(b, pos);
            }
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected key at offset {pos}", pos = *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[allow(clippy::too_many_arguments)]
    fn rec(
        id: u64,
        parent: Option<u64>,
        task: u64,
        component: &'static str,
        name: &'static str,
        proc_num: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            task,
            component,
            name,
            proc_num,
            trace_id: 0,
            flow_from: 0,
            start: SimTime::from_nanos(start_ns),
            end: SimTime::from_nanos(end_ns),
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_fields() {
        let spans = vec![
            rec(0, None, 1, "client", "call", Some(6), 0, 5_000),
            rec(1, Some(0), 1, "client", "marshal", None, 100, 1_100),
        ];
        let json = chrome_trace_json(&spans);
        validate_json(&json).expect("chrome export must be valid JSON");
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":1.000"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"proc\":6"));
    }

    #[test]
    fn empty_export_is_valid() {
        validate_json(&chrome_trace_json(&[])).unwrap();
    }

    #[test]
    fn aggregate_resolves_proc_through_parents() {
        let spans = vec![
            rec(0, None, 1, "client", "call", Some(7), 0, 10_000),
            rec(1, Some(0), 1, "hca", "reg", None, 0, 2_000),
            rec(2, Some(1), 1, "hca", "pin", None, 0, 1_000),
            rec(3, None, 2, "fabric", "transit", None, 0, 500),
        ];
        let phases = aggregate_phases(&spans);
        let find = |c: &str, n: &str| {
            phases
                .iter()
                .find(|p| p.component == c && p.name == n)
                .unwrap()
        };
        assert_eq!(find("hca", "reg").proc_num, Some(7));
        assert_eq!(find("hca", "pin").proc_num, Some(7));
        assert_eq!(find("client", "call").proc_num, Some(7));
        assert_eq!(find("fabric", "transit").proc_num, None);
        assert_eq!(
            find("hca", "reg").hist.quantile(0.5),
            SimDuration::from_micros(2)
        );
        // Untagged procs sort first.
        assert_eq!(phases[0].proc_num, None);
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            "  [ 1 , 2 ]  ",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "01x",
            "\"unterminated",
            "[1] trailing",
            "{'single':1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn tracer_records_nesting_and_parenting() {
        let t = Tracer::default();
        t.enable();
        let a = t.enter(SimTime::from_nanos(0), 1, "c", "outer", Some(6));
        let b = t.enter(SimTime::from_nanos(10), 1, "c", "inner", None);
        let x = t.enter(SimTime::from_nanos(5), 2, "c", "other", None);
        t.exit(SimTime::from_nanos(20), 1, b);
        t.exit(SimTime::from_nanos(30), 1, a);
        t.exit(SimTime::from_nanos(7), 2, x);
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(a));
        assert_eq!(inner.task, 1);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, None);
        let other = spans.iter().find(|s| s.name == "other").unwrap();
        assert_eq!(other.parent, None);
        assert!(t.take().is_empty());
    }

    #[test]
    fn trace_ids_inherit_and_remote_adoption_links_flows() {
        let t = Tracer::default();
        t.enable();
        // Client node: root span mints a trace id, child inherits it.
        let root = t.enter(SimTime::from_nanos(0), 1, "client", "call", Some(7));
        let child = t.enter(SimTime::from_nanos(1), 1, "client", "marshal", None);
        let ctx = t.current_ctx(1);
        assert_ne!(ctx.trace_id, 0);
        assert_eq!(ctx.parent_span, child);
        // "Wire": inject under the RPC key, adopt on the server task.
        t.inject(77, ctx);
        let got = t.adopt(77);
        assert_eq!(got, ctx);
        assert_eq!(t.adopt(77), TraceCtx::NONE); // consumed
        let srv = t.enter_remote(SimTime::from_nanos(5), 2, "server", "op", Some(7), got);
        t.exit(SimTime::from_nanos(9), 2, srv);
        t.exit(SimTime::from_nanos(3), 1, child);
        t.exit(SimTime::from_nanos(4), 1, root);
        let spans = t.take();
        let r = spans.iter().find(|s| s.id == root).unwrap();
        let c = spans.iter().find(|s| s.id == child).unwrap();
        let s = spans.iter().find(|s| s.id == srv).unwrap();
        assert_ne!(r.trace_id, 0);
        assert_eq!(c.trace_id, r.trace_id);
        assert_eq!(s.trace_id, r.trace_id);
        assert_eq!(s.flow_from, child);
        assert_eq!(r.flow_from, 0);
        // The export carries the flow pair bound to the server span.
        let json = chrome_trace_json(&spans);
        validate_json(&json).unwrap();
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""));
        assert!(json.contains(&format!("\"trace\":{}", r.trace_id)));
    }

    #[test]
    fn flow_edge_to_missing_source_is_skipped() {
        let spans = vec![SpanRecord {
            flow_from: 999, // no such span in the export
            trace_id: 5,
            ..rec(3, None, 2, "server", "op", None, 0, 10)
        }];
        let json = chrome_trace_json(&spans);
        validate_json(&json).unwrap();
        assert!(!json.contains("\"ph\":\"s\""));
    }

    #[test]
    fn out_of_order_exit_is_tolerated() {
        let t = Tracer::default();
        t.enable();
        let a = t.enter(SimTime::from_nanos(0), 1, "c", "a", None);
        let b = t.enter(SimTime::from_nanos(1), 1, "c", "b", None);
        // Torn-down future drops guards outer-first.
        t.exit(SimTime::from_nanos(2), 1, a);
        t.exit(SimTime::from_nanos(3), 1, b);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].name, "b");
        assert_eq!(spans[1].parent, Some(a));
    }

    /// A drain while spans are open hands out what closed and keeps
    /// the rest: ids, parents, tasks and flows come out the same either
    /// side of it, and a span closed out of order is no parent after
    /// its open child closes.
    #[test]
    fn a_drain_with_spans_open_keeps_ids_parents_and_flows() {
        let t = Tracer::default();
        t.enable();
        let at = SimTime::from_nanos;
        let p = t.enter(at(0), 1, "c", "p", Some(3));
        let a = t.enter(at(1), 1, "c", "a", None);
        let b = t.enter(at(2), 1, "c", "b", None);
        t.exit(at(3), 1, a);
        let ctx = t.current_ctx(1);
        assert_eq!(ctx.parent_span, b);
        let s = t.enter_remote(at(4), 2, "s", "op", None, ctx);
        t.exit(at(5), 2, s);
        let first = t.take();
        let ids: Vec<u64> = first.iter().map(|r| r.id).collect();
        assert_eq!(ids, [a, s]);
        assert_eq!((first[0].parent, first[0].task), (Some(p), 1));
        assert_eq!((first[1].flow_from, first[1].task), (b, 2));
        assert_eq!(first[1].trace_id, ctx.trace_id);
        t.exit(at(6), 1, b);
        assert_eq!(t.current_ctx(1).parent_span, p);
        let c = t.enter(at(7), 1, "c", "c", None);
        t.exit(at(8), 1, c);
        t.exit(at(9), 1, p);
        let second = t.take();
        let got: Vec<_> = (second.iter())
            .map(|r| (r.id, r.parent, r.task, r.flow_from, r.proc_num))
            .collect();
        let want = [
            (p, None, 1, 0, Some(3)),
            (b, Some(a), 1, 0, None),
            (c, Some(p), 1, 0, None),
        ];
        assert_eq!(got, want);
        assert!(second.iter().all(|r| r.trace_id == ctx.trace_id));
        assert!(t.take().is_empty());
    }
}
