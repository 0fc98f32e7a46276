//! Who to wake, and how a wake finds its queue.
//!
//! The executor is thread-confined: a simulation's tasks, ready queue
//! and timers live on the OS thread that created it and are plain,
//! non-atomic data. A wake is therefore a push — but a push needs to
//! find the queue, and there are two ways to ask for one:
//!
//! * **By task id** (`Parked::Task`, the hot path). A primitive being
//!   polled directly by the executor records `(simulation number, task
//!   id)` of the task being polled — two integers read from a
//!   thread-local the executor sets around every poll — and wakes it
//!   later by looking the simulation up in this thread's registry. No
//!   reference count moves on park or on wake.
//! * **By [`Waker`]** (`Parked::Foreign`, the compatibility path). A
//!   future polled under somebody else's [`Context`] — a hand-rolled
//!   combinator, a test harness — gets that context's waker cloned, as
//!   any executor-agnostic future would. The executor's own wakers
//!   (`Arc<TaskWaker>`: thread, simulation number, task id) resolve
//!   through the same registry to the same FIFO, so the two paths
//!   interleave in call order.
//!
//! Simulation numbers are never reused on a thread, so a record that
//! outlives its simulation finds nothing and is dropped, exactly like a
//! record that outlives its task (dropped by slot generation).
//!
//! ## The thread-confinement contract
//!
//! `std::task::Waker` must be `Send + Sync`, so a task's waker *can* be
//! carried to another OS thread; it must not be *woken* there. Doing so
//! panics with a message naming this contract rather than silently
//! losing the wake (which would surface later as an unexplained
//! "simulation quiesced" deadlock). [`WakeSlot`] and the `sync`
//! primitives are `!Send`, so the by-id path cannot cross threads at
//! all.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Weak;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::ThreadId;

use crate::executor::{Core, TaskId, NO_TASK};

/// The task the executor is polling on this thread right now.
#[derive(Clone, Copy)]
struct Polling {
    sim: u64,
    task: TaskId,
    /// Data pointer of the task's own [`Waker`]: a context carrying a
    /// waker with this pointer is the executor's, anything else is
    /// foreign. Only ever compared, never dereferenced.
    waker: *const (),
    /// [`poll_not_last`] lanes the poll is inside.
    lanes: u32,
}

const IDLE: Polling = Polling {
    sim: 0,
    task: NO_TASK,
    waker: std::ptr::null(),
    lanes: 0,
};

thread_local! {
    static POLLING: Cell<Polling> = const { Cell::new(IDLE) };
    /// Live simulations created on this thread, by number.
    static LIVE: RefCell<Vec<(u64, Weak<Core>)>> = const { RefCell::new(Vec::new()) };
    /// Simulation numbers start at 1 and only count up.
    static NEXT_SIM: Cell<u64> = const { Cell::new(1) };
    static THIS_THREAD: ThreadId = std::thread::current().id();
}

/// Restores the previously polled task (simulations nest: a task may
/// build and run an inner `Simulation`).
pub(crate) struct PollScope(Polling);

/// Mark `task` of simulation `sim` as the one being polled until the
/// returned scope drops.
pub(crate) fn enter_poll(sim: u64, task: TaskId, waker: &Waker) -> PollScope {
    PollScope(POLLING.replace(Polling {
        sim,
        task,
        waker: waker.data(),
        lanes: 0,
    }))
}

/// True when `cx` is the context of the task simulation `sim` is
/// polling and no [`poll_not_last`] lane is open: whatever the future
/// being polled does next, the task does next.
pub(crate) fn polled_last_by(sim: u64, cx: &Context<'_>) -> bool {
    let polling = POLLING.get();
    polling.sim == sim
        && polling.task != NO_TASK
        && polling.lanes == 0
        && std::ptr::eq(cx.waker().data(), polling.waker)
}

/// Poll `lane`, one of the futures a hand-written combinator polls in
/// one poll of its task, when another is still to be polled after it.
/// A [`Sleep`](crate::executor::Sleep) first polled in here registers
/// its timer even when it is the simulation's next event, rather than
/// fire in place: the lanes after it must run at this instant. Every
/// non-final lane of a hand-written combinator is polled through this.
pub fn poll_not_last<F: Future + ?Sized>(
    lane: Pin<&mut F>,
    cx: &mut Context<'_>,
) -> Poll<F::Output> {
    /// Closes the lane, also when the poll unwinds.
    struct Lane;
    impl Drop for Lane {
        fn drop(&mut self) {
            let polling = POLLING.get();
            POLLING.set(Polling {
                lanes: polling.lanes - 1,
                ..polling
            });
        }
    }
    let polling = POLLING.get();
    POLLING.set(Polling {
        lanes: polling.lanes + 1,
        ..polling
    });
    let _lane = Lane;
    lane.poll(cx)
}

impl Drop for PollScope {
    fn drop(&mut self) {
        POLLING.set(self.0);
    }
}

/// Enter `core` in this thread's registry under a fresh number.
pub(crate) fn register(core: &Weak<Core>) -> u64 {
    let sim = NEXT_SIM.replace(NEXT_SIM.get() + 1);
    LIVE.with(|live| live.borrow_mut().push((sim, core.clone())));
    sim
}

/// Forget simulation `sim`: every later wake addressed to it is dropped.
pub(crate) fn unregister(sim: u64) {
    // `try_with`: a simulation dropped during thread teardown finds the
    // registry already gone, which forgets it just as well.
    let _ = LIVE.try_with(|live| live.borrow_mut().retain(|(n, _)| *n != sim));
}

/// Queue task `id` of simulation `sim`, if both still exist.
fn wake_task(sim: u64, id: TaskId) {
    // `try_with`: a wake during thread teardown has nothing left to wake.
    let _ = LIVE.try_with(|live| {
        let live = live.borrow();
        if let Some(core) = live
            .iter()
            .find(|(n, _)| *n == sim)
            .and_then(|(_, c)| c.upgrade())
        {
            core.wake_task(id);
        }
    });
}

/// Backing state of a task's [`Waker`]: an address, nothing shared.
struct TaskWaker {
    thread: ThreadId,
    sim: u64,
    /// Re-addressed in place when the slot's next tenant inherits a
    /// waker no outstanding clone still shares. Atomic only because a
    /// `Waker`'s state must be `Sync`: it is written while this thread
    /// holds every reference and publishes nothing else, so plain
    /// `Relaxed` loads and stores are enough.
    id: AtomicU64,
}

/// A task slot's cached [`Waker`], with the handle that lets the slot
/// re-address it for its next tenant.
pub(crate) struct SlotWaker {
    state: Arc<TaskWaker>,
    waker: Waker,
}

impl SlotWaker {
    /// A fresh waker for task `id` of simulation `sim`.
    pub(crate) fn new(sim: u64, id: TaskId) -> SlotWaker {
        let state = Arc::new(TaskWaker {
            thread: THIS_THREAD.with(|t| *t),
            sim,
            id: AtomicU64::new(id),
        });
        SlotWaker {
            waker: Waker::from(state.clone()),
            state,
        }
    }

    /// The waker a poll of the slot's tenant is given.
    pub(crate) fn waker(&self) -> &Waker {
        &self.waker
    }

    /// Point the waker at the slot's next tenant. Returns `false` (and
    /// changes nothing) while a clone of the last tenant's waker is
    /// still out there: it must keep the old id so its wake stays stale.
    pub(crate) fn readdress(&self, id: TaskId) -> bool {
        // Two owners: `state` and `waker`.
        let sole = Arc::strong_count(&self.state) == 2;
        if sole {
            self.state.id.store(id, Ordering::Relaxed);
        }
        sole
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        assert!(
            THIS_THREAD.with(|t| *t) == self.thread,
            "sim-core wakers are thread-confined: a task of a simulation created on {:?} \
             was woken from another thread (the executor, its ready queue and its timers \
             are not thread-safe by design; run independent simulations per thread instead)",
            self.thread
        );
        wake_task(self.sim, self.id.load(Ordering::Relaxed));
    }
}

/// One parked consumer: what a primitive stores in place of a raw
/// [`Waker`].
pub(crate) enum Parked {
    /// The executor's task, polled directly: woken by id.
    Task { sim: u64, id: TaskId },
    /// Polled under a context the executor did not build.
    Foreign(Waker),
}

impl Parked {
    /// Whoever is polling with `cx`.
    pub(crate) fn current(cx: &Context<'_>) -> Parked {
        let polling = POLLING.get();
        if polling.task != NO_TASK && std::ptr::eq(cx.waker().data(), polling.waker) {
            Parked::Task {
                sim: polling.sim,
                id: polling.task,
            }
        } else {
            Parked::Foreign(cx.waker().clone())
        }
    }

    pub(crate) fn wake(self) {
        match self {
            Parked::Task { sim, id } => wake_task(sim, id),
            Parked::Foreign(waker) => waker.wake(),
        }
    }
}

/// A place for one consumer to park and be woken from — the drop-in
/// for an `Option<Waker>` field in a hand-written future (a completion
/// queue's consumer, a stream reader). Parking the executor's own task
/// stores two integers; no waker is cloned or dropped.
#[derive(Default)]
pub struct WakeSlot {
    parked: Option<Parked>,
    /// A by-id record only means something on its own thread: `!Send`.
    confined: PhantomData<*const ()>,
}

impl WakeSlot {
    /// An empty slot.
    pub fn new() -> WakeSlot {
        WakeSlot::default()
    }

    /// Record whoever is polling with `cx`, replacing any earlier
    /// occupant.
    pub fn park(&mut self, cx: &Context<'_>) {
        self.parked = Some(Parked::current(cx));
    }

    /// Wake the occupant, if any, and empty the slot.
    pub fn wake(&mut self) {
        if let Some(parked) = self.parked.take() {
            parked.wake();
        }
    }

    /// True while somebody is parked here.
    pub fn is_parked(&self) -> bool {
        self.parked.is_some()
    }
}
