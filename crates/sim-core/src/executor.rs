//! A deterministic, single-threaded, virtual-time async executor.
//!
//! Simulation processes (NFS clients, server worker threads, HCA DMA
//! engines, disks) are ordinary `async fn`s. Awaiting [`Sim::sleep`]
//! advances nothing in real time: the executor maintains a virtual clock
//! and leaps it forward to the next scheduled timer whenever every task
//! is blocked. This models blocking behaviour — e.g. an NFS server
//! thread waiting on an RDMA Read completion — precisely and
//! deterministically.
//!
//! Determinism contract: given the same seed and the same spawn order,
//! two runs produce identical event orderings and identical virtual-time
//! results. Ready tasks run FIFO; timers fire in `(deadline, sequence)`
//! order. `tests/golden_schedule.rs` pins a hash of a full schedule, so
//! a refactor that silently changes ordering fails loudly.
//!
//! ## Hot-path internals
//!
//! Simulated seconds cost millions of polls of host time, so the
//! per-poll constants here dominate every benchmark harness. The
//! executor is thread-confined (see [`crate::wake`]) and pays for no
//! thread safety: no lock and no atomic read-modify-write on the wake,
//! poll or sleep path.
//!
//! - **Slab task table.** Tasks live in a `Vec` of slots indexed by the
//!   low half of the task id, with a free list for reuse — no hashing on
//!   poll. The high half is a per-slot generation, so a stale wake
//!   (e.g. from a timer outliving its task) addresses a reused slot
//!   harmlessly: the generation no longer matches and the wake is
//!   dropped.
//! - **A wake is a push.** The ready queue is one `Vec<TaskId>` beside
//!   the slab, behind one `RefCell`. Waking task `id` checks the slot's
//!   generation and its "already scheduled" flag (a `bool`), sets the
//!   flag and pushes the id. Waking a task that is still queued is a
//!   no-op rather than a duplicate entry and a wasted poll. The flag
//!   clears *before* the poll runs so a task that wakes itself
//!   (`yield_now`) re-queues correctly. Every task, whoever spawned it,
//!   shares this one queue.
//! - **Park by id.** Timers and this crate's primitives record the id
//!   of the task being polled (`wake::Parked`) — two integers
//!   — not a cloned `Waker`. Each slot still caches one `Arc`-backed
//!   `Waker` for its [`Context`]; it is lent to the poll by reference
//!   and cloned only by a future that asks for it, the compatibility
//!   path. Both paths push onto the same FIFO in call order.
//! - **A spawn on a reused slot allocates the boxed future only.** A
//!   finished task leaves its waker in the slot, and the next tenant
//!   re-addresses it unless a stale clone still shares it — then that
//!   clone keeps the old id and a fresh waker is allocated, so a stale
//!   wake is dropped by generation as before.
//! - **Batched ready-queue drain.** The executor swaps the whole queue
//!   into a local buffer once per batch. FIFO order is preserved: wakes
//!   raised while a batch runs land in the (empty) queue and form the
//!   next batch.
//! - **One timer heap.** Pending timers live in one indexed binary heap
//!   keyed by `(deadline, sequence)`, beside a generation-tagged slab of
//!   who each one wakes and where its key sits: O(log n) register, pop
//!   and cancel, and the heap holds live timers only (see the private
//!   `timers` module).
//! - **Run to completion.** A [`Sleep`] that is the simulation's next
//!   event — polled by its own task as the last lane, nothing ready,
//!   strictly before every live timer and within the `run_until` limit
//!   — fires in place on its first poll: the clock moves to its
//!   deadline and the task keeps running, with no timer, no park and
//!   no second poll. Registering it would have popped that very timer
//!   next with nothing run in between, so the schedule is the same. A
//!   hand-written future polls every lane but its last through
//!   [`crate::poll_not_last`].
//!
//! The executor is intentionally `!Send`: tasks may freely hold
//! `Rc`/`RefCell` state across `.await`. Parameter sweeps parallelize by
//! running *independent* `Simulation`s on separate OS threads.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::flight::{FlightRecord, FlightRing, FLIGHT_CAPACITY};
use crate::metrics::MetricsRegistry;
use crate::rng::SimRng;
use crate::stats::Counter;
use crate::time::{SimDuration, SimTime};
use crate::timers::{TimerHandle, Timers};
use crate::trace::{SpanRecord, TraceCtx, Tracer};
use crate::wake::{self, poll_not_last, Parked, SlotWaker};

/// Packed task id: `generation << 32 | slot index`.
pub(crate) type TaskId = u64;
type BoxFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Sentinel for "no task is being polled" (code running outside the
/// executor, e.g. between `run()` calls).
pub(crate) const NO_TASK: TaskId = u64::MAX;

pub(crate) fn task_slot(id: TaskId) -> usize {
    (id & u32::MAX as u64) as usize
}

fn task_gen(id: TaskId) -> u32 {
    (id >> 32) as u32
}

/// One slab slot: a task's scheduling state, its future while parked,
/// and the waker every tenant of the slot shares.
#[derive(Default)]
struct TaskSlot {
    /// Bumped when the slot is freed, invalidating outstanding ids.
    gen: u32,
    /// True while the tenant sits in the ready queue; extra wakes are
    /// no-ops. Cleared by the executor just before polling.
    scheduled: bool,
    /// The tenant's future. `None` on a free slot, and while the task
    /// is being polled (taken out so the body can re-entrantly spawn).
    fut: Option<BoxFuture>,
    /// The slot's cached `Waker`, kept across tenants. Lent out with
    /// the future during a poll.
    waker: Option<SlotWaker>,
}

/// The task slab and the FIFO of tasks woken and awaiting a poll.
/// Thread-confined, so plain data: wakes reach it through
/// [`Core::wake_task`].
#[derive(Default)]
struct Sched {
    slots: Vec<TaskSlot>,
    free: Vec<u32>,
    ready: Vec<TaskId>,
}

impl Sched {
    /// Queue task `id` unless it is gone (stale generation) or already
    /// queued.
    fn wake(&mut self, id: TaskId) {
        let Some(slot) = self.slots.get_mut(task_slot(id)) else {
            return;
        };
        if slot.gen != task_gen(id) || slot.scheduled {
            return;
        }
        slot.scheduled = true;
        self.ready.push(id);
    }

    /// Move the queued batch into `buf` (cleared first). A swap: the
    /// two buffers trade places, so steady state allocates nothing.
    fn drain_into(&mut self, buf: &mut Vec<TaskId>) {
        buf.clear();
        if !self.ready.is_empty() {
            std::mem::swap(&mut self.ready, buf);
        }
    }
}

pub(crate) struct Core {
    /// This simulation's number in its thread's wake registry.
    id: u64,
    now: Cell<SimTime>,
    sched: RefCell<Sched>,
    timers: RefCell<Timers<Parked>>,
    rng: RefCell<SimRng>,
    /// Count of task polls, a cheap progress metric for tests/benches.
    /// Registered as `executor.polls` in the metrics registry.
    polls: Rc<Counter>,
    /// The limit of the running `run_until`, and the tasks of its
    /// current batch still to be polled: what a [`Sleep`] checks to
    /// know it is the simulation's next event.
    limit: Cell<SimTime>,
    batch_left: Cell<usize>,
    /// Task currently being polled ([`NO_TASK`] outside a poll); spans
    /// entered during the poll attach to it.
    current_task: Cell<TaskId>,
    /// Structured span recorder (off by default; see [`crate::trace`]).
    tracer: Tracer,
    /// Always-on flight recorder (see [`crate::flight`]): a fixed ring
    /// of recent protocol events, dumped by harnesses on failure.
    flight: FlightRing,
    /// Named-counter registry shared by every component in the world.
    metrics: MetricsRegistry,
}

impl Core {
    /// Queue task `id` for a poll; stale ids and tasks already queued
    /// are ignored.
    pub(crate) fn wake_task(&self, id: TaskId) {
        self.sched.borrow_mut().wake(id);
    }

    /// Wake whoever `parked` names — by a direct push when it is a task
    /// of this simulation (a fired timer's usual case).
    fn wake(&self, parked: Parked) {
        match parked {
            Parked::Task { sim, id } if sim == self.id => self.wake_task(id),
            other => other.wake(),
        }
    }

    /// True when a sleep until `deadline`, first polled with `cx`, is
    /// the simulation's next event: its own task polls it as the last
    /// lane, no task is ready, and the deadline is within the
    /// `run_until` limit and strictly before every live timer.
    /// Registering it would park the task, pop this very timer next and
    /// poll the task again at `deadline`, with nothing run in between.
    fn is_next_event(&self, deadline: SimTime, cx: &Context<'_>) -> bool {
        wake::polled_last_by(self.id, cx)
            && self.batch_left.get() == 0
            && self.sched.borrow().ready.is_empty()
            && deadline <= self.limit.get()
            && (self.timers.borrow().next_deadline()).is_none_or(|next| deadline < next)
    }
}

/// The simulation world: owns all tasks, the virtual clock and the
/// deterministic RNG. Create one per experiment run.
pub struct Simulation {
    core: Rc<Core>,
}

/// A cheap, clonable handle onto a [`Simulation`], usable from inside
/// tasks to read the clock, sleep, spawn further tasks and draw random
/// numbers.
#[derive(Clone)]
pub struct Sim {
    core: Rc<Core>,
}

impl Simulation {
    /// Create a fresh simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        let metrics = MetricsRegistry::new();
        let polls = metrics.counter("executor.polls");
        Simulation {
            core: Rc::new_cyclic(|core| Core {
                id: wake::register(core),
                now: Cell::new(SimTime::ZERO),
                sched: RefCell::new(Sched::default()),
                timers: RefCell::new(Timers::new()),
                rng: RefCell::new(SimRng::new(seed)),
                polls,
                limit: Cell::new(SimTime::ZERO),
                batch_left: Cell::new(0),
                current_task: Cell::new(NO_TASK),
                tracer: Tracer::default(),
                flight: FlightRing::new(FLIGHT_CAPACITY),
                metrics,
            }),
        }
    }

    /// Handle for use inside tasks.
    pub fn handle(&self) -> Sim {
        Sim {
            core: self.core.clone(),
        }
    }

    /// Spawn a root task.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        self.handle().spawn(fut);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Number of task polls performed so far.
    pub fn polls(&self) -> u64 {
        self.core.polls.get()
    }

    /// Task slots ever allocated: the slab's high-water mark, i.e. the
    /// most tasks that were alive at once. A budget test that expects
    /// "this spawns nothing" compares it before and after.
    pub fn task_slots(&self) -> usize {
        self.core.sched.borrow().slots.len()
    }

    /// Tasks alive now: the slab slots occupied, where
    /// [`Simulation::task_slots`] is the high-water mark. A closure test
    /// compares it at two quiescent points — what a component spawned
    /// and never ended shows up here.
    pub fn live_tasks(&self) -> usize {
        let sched = self.core.sched.borrow();
        sched.slots.len() - sched.free.len()
    }

    /// Turn on structured span tracing (off by default; entering a span
    /// while off costs one flag read and no allocation).
    pub fn enable_span_tracing(&self) {
        self.core.tracer.enable();
    }

    /// Drain the completed spans, leaving span tracing in its current
    /// state. Spans still open stay open and land in the next drain.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        self.core.tracer.take()
    }

    /// Snapshot the always-on flight recorder in chronological order
    /// (oldest surviving record first). Allocates — dump-time only.
    pub fn flight_records(&self) -> Vec<FlightRecord> {
        self.core.flight.snapshot()
    }

    /// The world's metrics registry (shared; cheap to clone).
    pub fn metrics(&self) -> MetricsRegistry {
        self.core.metrics.clone()
    }

    /// Run until no task is runnable and no timer is pending, i.e. the
    /// simulation has quiesced. Tasks still blocked on channels that will
    /// never receive are simply abandoned (like detached threads).
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Run until the virtual clock would pass `deadline` (exclusive) or
    /// the simulation quiesces, whichever is first. The clock never
    /// advances beyond the last fired timer.
    pub fn run_until(&mut self, deadline: SimTime) {
        let mut batch: Vec<TaskId> = Vec::new();
        self.core.limit.set(deadline);
        loop {
            // Drain every ready task at the current instant, a batch at
            // a time. Wakes raised while the batch runs form the next
            // batch, preserving FIFO order.
            loop {
                self.core.sched.borrow_mut().drain_into(&mut batch);
                if batch.is_empty() {
                    break;
                }
                for (i, &id) in batch.iter().enumerate() {
                    self.core.batch_left.set(batch.len() - 1 - i);
                    self.poll_task(id);
                }
            }
            // Advance to the earliest pending timer.
            let fired = self.core.timers.borrow_mut().pop_due(deadline);
            match fired {
                Some((at, parked)) => {
                    debug_assert!(at >= self.core.now.get());
                    self.core.now.set(at);
                    self.core.wake(parked);
                }
                None => return,
            }
        }
    }

    /// Drive the simulation until `fut` completes and return its output.
    /// Panics if the simulation quiesces with `fut` still pending (a
    /// deadlock in the modelled system).
    pub fn block_on<T: 'static>(&mut self, fut: impl Future<Output = T> + 'static) -> T {
        let slot: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let slot2 = slot.clone();
        self.spawn(async move {
            let v = fut.await;
            *slot2.borrow_mut() = Some(v);
        });
        self.run();
        let out = slot.borrow_mut().take();
        out.expect("simulation quiesced before block_on future completed (deadlock?)")
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future (and the waker it is polled with) out of the
        // slot so the task body can call spawn(), which borrows and may
        // grow the slab, without re-entrancy.
        let (mut fut, waker) = {
            let mut sched = self.core.sched.borrow_mut();
            let Some(slot) = sched.slots.get_mut(task_slot(id)) else {
                return;
            };
            if slot.gen != task_gen(id) {
                return; // stale id: slot was freed (and maybe reused)
            }
            // Clear before polling: a task that wakes itself mid-poll
            // (yield_now) must land back in the queue.
            slot.scheduled = false;
            let Some(fut) = slot.fut.take() else {
                return;
            };
            (fut, slot.waker.take().expect("a live task has a waker"))
        };
        self.core.polls.inc();
        let prev_task = self.core.current_task.replace(id);
        let pending = {
            let _polling = wake::enter_poll(self.core.id, id, waker.waker());
            let mut cx = Context::from_waker(waker.waker());
            fut.as_mut().poll(&mut cx).is_pending()
        };
        self.core.current_task.set(prev_task);
        let finished = {
            let mut sched = self.core.sched.borrow_mut();
            let slot = &mut sched.slots[task_slot(id)];
            // Finished or not, the waker stays with the slot: the next
            // tenant re-addresses it.
            slot.waker = Some(waker);
            if pending {
                slot.fut = Some(fut);
                None
            } else {
                slot.gen = slot.gen.wrapping_add(1);
                sched.free.push(task_slot(id) as u32);
                Some(fut)
            }
        };
        // Outside the borrow: a finished future's destructors (permits,
        // channel halves) wake other tasks.
        drop(finished);
    }
}

/// Every parked future holds a [`Sim`], and so the core that owns the
/// future: a reference cycle that would outlive the simulation. Break
/// it by dropping the tasks while the core is still alive, so span,
/// timer and semaphore destructors run against working state.
impl Drop for Simulation {
    fn drop(&mut self) {
        // From here on a wake addressed to this simulation is dropped.
        wake::unregister(self.core.id);
        // A destructor that panicked during an unwind would abort the
        // process and bury the failure being reported.
        if std::thread::panicking() {
            return;
        }
        loop {
            // Out of the `RefCell` first: a destructor may spawn.
            let slots = {
                let mut sched = self.core.sched.borrow_mut();
                sched.free.clear();
                std::mem::take(&mut sched.slots)
            };
            if slots.is_empty() {
                break;
            }
        }
    }
}

impl Sim {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Spawn a detached task. It joins the back of the ready queue.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        let fut: BoxFuture = Box::pin(fut);
        let mut sched = self.core.sched.borrow_mut();
        let idx = match sched.free.pop() {
            Some(i) => i,
            None => {
                sched.slots.push(TaskSlot::default());
                (sched.slots.len() - 1) as u32
            }
        };
        let slot = &mut sched.slots[idx as usize];
        let id = ((slot.gen as u64) << 32) | idx as u64;
        // Inherit the last tenant's waker unless a clone of it survives
        // somewhere (it must keep waking the old, stale id).
        if !matches!(&slot.waker, Some(last) if last.readdress(id)) {
            slot.waker = Some(SlotWaker::new(self.core.id, id));
        }
        slot.fut = Some(fut);
        // Born queued.
        slot.scheduled = false;
        sched.wake(id);
    }

    /// Sleep for a span of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Sleep until an absolute virtual instant.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            core: self.core.clone(),
            deadline,
            timer: None,
        }
    }

    /// Draw from the simulation's root RNG stream. Prefer [`Sim::fork_rng`]
    /// per logical actor so adding draws in one actor does not perturb
    /// another.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        f(&mut self.core.rng.borrow_mut())
    }

    /// Derive an independent RNG stream.
    pub fn fork_rng(&self) -> SimRng {
        self.core.rng.borrow_mut().fork()
    }

    /// Race `fut` against a span of virtual time: `Some(output)` if the
    /// future completes first, `None` if the deadline fires first. The
    /// future is borrowed (`&mut`), so on timeout the caller still owns
    /// it and may keep waiting, retry, or drop it — the pattern an RPC
    /// retransmission loop needs.
    pub fn timeout<'a, F>(&self, limit: SimDuration, fut: &'a mut F) -> Timeout<'a, F>
    where
        F: Future + Unpin,
    {
        Timeout {
            sleep: self.sleep(limit),
            fut,
        }
    }

    /// True when structured span tracing is enabled.
    pub fn span_tracing(&self) -> bool {
        self.core.tracer.enabled()
    }

    /// Open a lifecycle span; it closes (recording its end time) when
    /// the returned guard drops. With span tracing off this is one flag
    /// read and an inert guard — no allocation, no RNG draw, no timer —
    /// so instrumented hot paths stay on the zero-alloc and
    /// golden-schedule gates.
    pub fn span(&self, component: &'static str, name: &'static str) -> Span {
        self.span_inner(component, name, None, TraceCtx::NONE)
    }

    /// Like [`Sim::span`], tagging the span with an RPC procedure
    /// number. Child spans inherit the tag through their parent chain
    /// when aggregated (see [`crate::trace::aggregate_phases`]).
    pub fn span_proc(&self, component: &'static str, name: &'static str, proc_num: u32) -> Span {
        self.span_inner(component, name, Some(proc_num), TraceCtx::NONE)
    }

    /// Like [`Sim::span_proc`], adopting a remote [`TraceCtx`]: the
    /// span joins the sender's causal tree and renders with a flow
    /// edge from the sending span in the Chrome export. An empty
    /// context degrades to a plain span. Same disabled fast path as
    /// [`Sim::span`].
    pub fn span_remote(
        &self,
        component: &'static str,
        name: &'static str,
        proc_num: Option<u32>,
        ctx: TraceCtx,
    ) -> Span {
        self.span_inner(component, name, proc_num, ctx)
    }

    fn span_inner(
        &self,
        component: &'static str,
        name: &'static str,
        proc_num: Option<u32>,
        ctx: TraceCtx,
    ) -> Span {
        if !self.core.tracer.enabled() {
            return Span {
                core: None,
                task: NO_TASK,
                id: 0,
            };
        }
        let task = self.core.current_task.get();
        let id = self.core.tracer.enter_remote(
            self.core.now.get(),
            task,
            component,
            name,
            proc_num,
            ctx,
        );
        Span {
            core: Some(self.core.clone()),
            task,
            id,
        }
    }

    /// The [`TraceCtx`] a message sent from the current task right now
    /// should carry: the innermost open span's trace id with that span
    /// as the link point. [`TraceCtx::NONE`] when span tracing is off
    /// (one flag read) or no span is open.
    pub fn current_ctx(&self) -> TraceCtx {
        if !self.core.tracer.enabled() {
            return TraceCtx::NONE;
        }
        self.core.tracer.current_ctx(self.core.current_task.get())
    }

    /// Stash `ctx` for the in-flight message `key` — the out-of-band
    /// channel the receiver's [`Sim::trace_adopt`] reads, keeping
    /// modeled wire bytes untouched. RPC calls key by
    /// `(client_node << 32) | xid`; replication records set bit 63.
    /// A later stash under the same key overwrites (retransmissions).
    /// One flag read when span tracing is off.
    pub fn trace_inject(&self, key: u64, ctx: TraceCtx) {
        if self.core.tracer.enabled() {
            self.core.tracer.inject(key, ctx);
        }
    }

    /// Remove and return the [`TraceCtx`] stashed under `key` by the
    /// sender's [`Sim::trace_inject`] ([`TraceCtx::NONE`] when absent
    /// or span tracing is off).
    pub fn trace_adopt(&self, key: u64) -> TraceCtx {
        if !self.core.tracer.enabled() {
            return TraceCtx::NONE;
        }
        self.core.tracer.adopt(key)
    }

    /// Record one event in the always-on flight recorder: plain-old-
    /// data stores into a preallocated ring — no allocation, no RNG,
    /// no timer — safe on any hot path and never perturbing the
    /// schedule. See [`crate::flight`].
    pub fn flight(&self, component: &'static str, event: &'static str, a: u64, b: u64) {
        self.core.flight.record(FlightRecord {
            at: self.core.now.get(),
            task: self.core.current_task.get(),
            component,
            event,
            a,
            b,
        });
    }

    /// The world's metrics registry (shared; cheap to clone). Components
    /// register named counters once and keep the handle for hot-path
    /// bumps.
    pub fn metrics(&self) -> MetricsRegistry {
        self.core.metrics.clone()
    }
}

/// RAII guard for an open lifecycle span (see [`Sim::span`]). Dropping
/// it records the span's end at the current virtual time. When tracing
/// is disabled the guard is inert.
pub struct Span {
    /// `None` when tracing was off at entry: `Drop` does nothing.
    core: Option<Rc<Core>>,
    task: TaskId,
    id: u64,
}

impl Span {
    /// Open a span on `sim` — alias for [`Sim::span`] in guard-first
    /// call style.
    pub fn enter(sim: &Sim, component: &'static str, name: &'static str) -> Span {
        sim.span(component, name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            core.tracer.exit(core.now.get(), self.task, self.id);
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    core: Rc<Core>,
    deadline: SimTime,
    timer: Option<TimerHandle>,
}

impl Future for Sleep {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        if this.core.now.get() >= this.deadline {
            if let Some(h) = this.timer.take() {
                // Woken by something other than our own timer (which
                // would have consumed the registration); cancel it.
                this.core.timers.borrow_mut().cancel(h);
            }
            return Poll::Ready(());
        }
        if this.timer.is_none() && this.core.is_next_event(this.deadline, cx) {
            // Run to completion: nothing can happen before the deadline.
            this.core.now.set(this.deadline);
            return Poll::Ready(());
        }
        let parked = Parked::current(cx);
        let mut timers = this.core.timers.borrow_mut();
        match this.timer {
            // Polled again before firing (spuriously, or moved to
            // another task): keep the registration, wake the new poller.
            Some(h) => timers.retarget(h, parked),
            None => this.timer = Some(timers.register(this.deadline, parked)),
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(h) = self.timer.take() {
            self.core.timers.borrow_mut().cancel(h);
        }
    }
}

/// Future returned by [`Sim::timeout`].
pub struct Timeout<'a, F> {
    sleep: Sleep,
    fut: &'a mut F,
}

impl<F: Future + Unpin> Future for Timeout<'_, F> {
    type Output = Option<F::Output>;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if let Poll::Ready(v) = poll_not_last(Pin::new(&mut *this.fut), cx) {
            return Poll::Ready(Some(v));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(None),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Yield once, letting every other currently-ready task run before this
/// one resumes (still at the same virtual instant).
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            Parked::current(cx).wake();
            Poll::Pending
        }
    }
}

/// Run two futures side by side on the calling task and return both
/// outputs once both have finished. No task is spawned and nothing is
/// allocated: the two lanes share the caller's wakes. The poll order is
/// fixed — `first`, then `second`, on every poll, each until it
/// completes — so what either lane does at an instant (queue for a
/// resource, open a span) is a function of the seed, and a lane that
/// finishes early simply waits for the other: neither is ever dropped
/// half-run. The futures are borrowed pinned (`std::pin::pin!`), like
/// [`Sim::timeout`]'s, so they are stored once, in the caller's frame.
#[allow(
    clippy::disallowed_methods,
    reason = "two lanes: the first is polled under `poll_not_last` while the second is unfinished"
)]
pub async fn join<A: Future, B: Future>(
    mut first: Pin<&mut A>,
    mut second: Pin<&mut B>,
) -> (A::Output, B::Output) {
    let (mut a, mut b) = (None, None);
    std::future::poll_fn(move |cx| {
        drive(&mut first, &mut a, b.is_some(), cx);
        drive(&mut second, &mut b, true, cx);
        match (a.take(), b.take()) {
            (Some(a), Some(b)) => Poll::Ready((a, b)),
            unfinished => {
                (a, b) = unfinished;
                Poll::Pending
            }
        }
    })
    .await
}

/// Poll one lane of a [`join`] unless it has already produced `out`;
/// `last` when no unfinished lane is polled after it.
fn drive<F: Future>(
    lane: &mut Pin<&mut F>,
    out: &mut Option<F::Output>,
    last: bool,
    cx: &mut Context<'_>,
) {
    if out.is_none() {
        let poll = if last {
            lane.as_mut().poll(cx)
        } else {
            poll_not_last(lane.as_mut(), cx)
        };
        if let Poll::Ready(v) = poll {
            *out = Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::task::Waker;

    #[test]
    fn block_on_returns_value() {
        let mut sim = Simulation::new(1);
        let v = sim.block_on(async { 40 + 2 });
        assert_eq!(v, 42);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let wall = std::time::Instant::now();
        let t = sim.block_on(async move {
            h.sleep(SimDuration::from_secs(3600)).await;
            h.now()
        });
        assert_eq!(t, SimTime::from_nanos(3600 * 1_000_000_000));
        assert!(wall.elapsed().as_secs() < 5, "virtual sleep took real time");
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut sim = Simulation::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, d) in [(1u32, 30u64), (2, 10), (3, 20)] {
            let h = sim.handle();
            let log = log.clone();
            sim.spawn(async move {
                h.sleep(SimDuration::from_micros(d)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![2, 3, 1]);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let mut sim = Simulation::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10u32 {
            let h = sim.handle();
            let log = log.clone();
            sim.spawn(async move {
                h.sleep(SimDuration::from_micros(5)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_spawn_runs() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        let hit = Rc::new(Cell::new(false));
        let hit2 = hit.clone();
        sim.spawn(async move {
            let h2 = h.clone();
            let hit3 = hit2.clone();
            h.spawn(async move {
                h2.sleep(SimDuration::from_nanos(1)).await;
                hit3.set(true);
            });
        });
        sim.run();
        assert!(hit.get());
    }

    #[test]
    fn run_until_stops_clock() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(SimDuration::from_secs(100)).await;
        });
        sim.run_until(SimTime::from_nanos(1_000));
        assert!(sim.now() <= SimTime::from_nanos(1_000));
        sim.run();
        assert_eq!(sim.now(), SimTime::from_nanos(100 * 1_000_000_000));
    }

    #[test]
    fn yield_now_interleaves() {
        let mut sim = Simulation::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            yield_now().await;
            l1.borrow_mut().push("a2");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
            yield_now().await;
            l2.borrow_mut().push("b2");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_deadlock_panics() {
        let mut sim = Simulation::new(1);
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        fn run_once() -> Vec<u64> {
            let mut sim = Simulation::new(99);
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..20 {
                let h = sim.handle();
                let log = log.clone();
                let d = h.with_rng(|r| r.gen_range(1000));
                sim.spawn(async move {
                    h.sleep(SimDuration::from_nanos(d)).await;
                    log.borrow_mut().push(h.now().as_nanos());
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn trace_ctx_rides_out_of_band_between_tasks() {
        let mut sim = Simulation::new(1);
        // Off: everything is inert and ctx-free.
        let h = sim.handle();
        assert_eq!(h.current_ctx(), TraceCtx::NONE);
        h.trace_inject(7, h.current_ctx());
        assert_eq!(h.trace_adopt(7), TraceCtx::NONE);

        sim.enable_span_tracing();
        let h = sim.handle();
        let h2 = h.clone();
        sim.block_on(async move {
            let _call = h2.span_proc("client", "call", 7);
            h2.trace_inject(42, h2.current_ctx());
            let h3 = h2.clone();
            h2.spawn(async move {
                // "Server" task: adopt the caller's context.
                let ctx = h3.trace_adopt(42);
                assert_ne!(ctx, TraceCtx::NONE);
                let _op = h3.span_remote("server", "op", Some(7), ctx);
            });
            h2.sleep(SimDuration::from_nanos(1)).await;
        });
        let spans = sim.take_spans();
        let call = spans.iter().find(|s| s.name == "call").unwrap();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(op.trace_id, call.trace_id);
        assert_eq!(op.flow_from, call.id);
        assert_ne!(op.task, call.task);
    }

    #[test]
    fn flight_recorder_is_always_armed() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            h.flight("test", "start", 1, 2);
            h.sleep(SimDuration::from_micros(3)).await;
            h.flight("test", "stop", 3, 4);
        });
        let recs = sim.flight_records();
        let events: Vec<_> = recs.iter().map(|r| r.event).collect();
        assert_eq!(events, ["start", "stop"]);
        assert_eq!(recs[1].at, SimTime::from_nanos(3_000));
        assert_ne!(recs[0].task, NO_TASK);
    }

    #[test]
    fn dropped_sleep_cancels_timer() {
        let mut sim = Simulation::new(1);
        let h = sim.handle();
        sim.block_on(async move {
            let long = h.sleep(SimDuration::from_secs(1000));
            drop(long);
            h.sleep(SimDuration::from_nanos(5)).await;
        });
        // If the cancelled timer still fired we'd have advanced to 1000s.
        assert_eq!(sim.now(), SimTime::from_nanos(5));
    }

    #[test]
    fn task_slots_are_reused_and_stale_wakes_ignored() {
        let mut sim = Simulation::new(1);
        // Many short-lived generations of tasks must recycle a small
        // set of slots rather than grow the table.
        for round in 0..50u64 {
            for i in 0..4u64 {
                let h = sim.handle();
                sim.spawn(async move {
                    h.sleep(SimDuration::from_nanos(round * 10 + i + 1)).await;
                });
            }
            sim.run();
        }
        assert!(
            sim.task_slots() <= 8,
            "slab grew to {} slots for 4 concurrent tasks",
            sim.task_slots()
        );
        // Live tasks are the occupied slots, not the high-water mark.
        assert_eq!(sim.live_tasks(), 0, "every sleeper ended");
        let (tx, mut rx) = crate::sync::channel::<()>();
        sim.spawn(async move {
            let _ = rx.recv().await;
        });
        sim.run();
        assert_eq!(sim.live_tasks(), 1, "a parked task stays live");
        drop(tx);
        sim.run();
        assert_eq!(sim.live_tasks(), 0, "a woken task ends");
    }

    #[test]
    fn ten_k_concurrent_sleepers_bound_slab_and_keep_order() {
        // Open-loop arrival audit: 10k tasks pending at once, each
        // parked on its own staggered timer. The task slab must be
        // sized by peak concurrency, the timer heap must fire them in
        // deadline order, and a second same-seed run must produce the
        // identical completion sequence.
        const N: u64 = 10_000;
        let run = || {
            let mut sim = Simulation::new(7);
            let order: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..N {
                let h = sim.handle();
                let order = order.clone();
                sim.spawn(async move {
                    h.sleep(SimDuration::from_nanos((i + 1) * 997)).await;
                    order.borrow_mut().push(i);
                });
            }
            sim.run();
            let slots = sim.task_slots();
            (Rc::try_unwrap(order).unwrap().into_inner(), slots)
        };
        let (order, slots) = run();
        assert_eq!(order.len(), N as usize);
        assert!(
            order.windows(2).all(|p| p[0] < p[1]),
            "staggered sleepers completed out of deadline order"
        );
        assert!(
            slots <= N as usize + 64,
            "task slab grew to {slots} slots for {N} concurrent tasks"
        );
        let (order2, _) = run();
        assert_eq!(order, order2, "same-seed completion order diverged");
    }

    #[test]
    fn duplicate_wakes_are_deduped() {
        // Two external wakers for the same pending task must produce a
        // single poll, not two.
        struct Armed {
            wakers: Rc<RefCell<Vec<Waker>>>,
            done: Rc<Cell<bool>>,
        }
        impl Future for Armed {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.done.get() {
                    Poll::Ready(())
                } else {
                    self.wakers.borrow_mut().push(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let mut sim = Simulation::new(1);
        let wakers: Rc<RefCell<Vec<Waker>>> = Rc::new(RefCell::new(Vec::new()));
        let done = Rc::new(Cell::new(false));
        sim.spawn(Armed {
            wakers: wakers.clone(),
            done: done.clone(),
        });
        sim.run();
        assert_eq!(wakers.borrow().len(), 1);
        let polls_before = sim.polls();
        done.set(true);
        let w = wakers.borrow_mut().pop().unwrap();
        w.wake_by_ref(); // queues the task
        w.wake(); // duplicate: must be a no-op
        sim.run();
        assert_eq!(
            sim.polls() - polls_before,
            1,
            "duplicate wake caused a second poll"
        );
    }
}
