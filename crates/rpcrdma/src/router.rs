//! Completion routing: lets many concurrent operations await specific
//! work completions on one CQ, the way kernel ULPs demultiplex CQEs.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ib_verbs::{Completion, Cq, WrId};
use onc_rpc::TransportError;
use sim_core::sync::{oneshot, OneshotReceiver, OneshotSender};
use sim_core::{Cpu, Sim, SimDuration};

type ErrorHandler = Box<dyn Fn(&Completion)>;

struct RouterInner {
    waiters: RefCell<HashMap<u64, OneshotSender<Completion>>>,
    /// Callback invoked on any error completion (e.g. fail-all).
    on_error: RefCell<Option<ErrorHandler>>,
    /// Parked busy-poll consumer waiting for a waiter to register
    /// (polling routers only; a registration wake is a local task
    /// switch, not an interrupt).
    spin_wake: RefCell<sim_core::WakeSlot>,
}

/// Demultiplexes one CQ to per-WR waiters.
#[derive(Clone)]
pub struct CompletionRouter {
    inner: Rc<RouterInner>,
}

impl CompletionRouter {
    /// A router with nothing registered and no task draining for it yet.
    fn new() -> CompletionRouter {
        CompletionRouter {
            inner: Rc::new(RouterInner {
                waiters: RefCell::new(HashMap::new()),
                on_error: RefCell::new(None),
                spin_wake: RefCell::default(),
            }),
        }
    }

    /// Spawn the router task draining `cq`.
    pub fn spawn(sim: &Sim, cq: Cq) -> CompletionRouter {
        let router = CompletionRouter::new();
        let r2 = router.clone();
        sim.spawn(async move {
            loop {
                let c = cq.next().await;
                r2.dispatch(c);
            }
        });
        router
    }

    /// Spawn a *spin-then-block* router: while any work request has a
    /// registered waiter, a dedicated consumer drains the CQ every
    /// `quantum` in polling mode — completions are consumed
    /// interrupt-free at the price of burning the polling core (the
    /// RFP trade: client CPU for reply latency). With nothing
    /// outstanding it parks until the next [`expect`](Self::expect)
    /// wakes it (a local task switch, not an interrupt), and a spin
    /// that stays dry past `quantum * 256` falls back to parking on
    /// the CQ like the interrupt-driven router — so an idle or wedged
    /// client neither spins forever nor keeps the simulation's timer
    /// wheel populated.
    pub fn spawn_polling(sim: &Sim, cq: Cq, cpu: Cpu, quantum: SimDuration) -> CompletionRouter {
        let router = CompletionRouter::new();
        let r2 = router.clone();
        let sim2 = sim.clone();
        let quantum = quantum.max(SimDuration::from_nanos(100));
        let park_after = quantum * 256;
        sim.spawn(async move {
            loop {
                if r2.inner.waiters.borrow().is_empty() {
                    // Drain stragglers (unsignaled flushes), then park
                    // until a waiter registers.
                    while let Some(c) = cq.poll() {
                        r2.dispatch(c);
                    }
                    if r2.inner.waiters.borrow().is_empty() {
                        let inner = r2.inner.clone();
                        std::future::poll_fn(move |cx| {
                            if inner.waiters.borrow().is_empty() {
                                inner.spin_wake.borrow_mut().park(cx);
                                std::task::Poll::Pending
                            } else {
                                std::task::Poll::Ready(())
                            }
                        })
                        .await;
                    }
                    continue;
                }
                let mut dry = SimDuration::ZERO;
                while !r2.inner.waiters.borrow().is_empty() && dry < park_after {
                    let mut drained = false;
                    while let Some(c) = cq.poll() {
                        r2.dispatch(c);
                        drained = true;
                    }
                    dry = if drained {
                        SimDuration::ZERO
                    } else {
                        dry + quantum
                    };
                    // The spin occupies the polling core whether or
                    // not a completion showed up.
                    cpu.charge(quantum);
                    sim2.sleep(quantum).await;
                }
                if !r2.inner.waiters.borrow().is_empty() {
                    // Dry spin: something is taking far longer than a
                    // fetch should. Yield the core and take the
                    // interrupt when the completion finally lands.
                    let c = cq.next().await;
                    r2.dispatch(c);
                }
            }
        });
        router
    }

    /// Route one completion to its registered waiter, running the error
    /// observer first. One nobody waits for (an unsignaled work request
    /// flushed on an error path) has told the observer all it had to.
    fn dispatch(&self, c: Completion) {
        if c.is_err() {
            if let Some(cb) = self.inner.on_error.borrow().as_ref() {
                cb(&c);
            }
        }
        let waiter = self.inner.waiters.borrow_mut().remove(&c.wr_id.0);
        if let Some(tx) = waiter {
            tx.send(c);
        }
    }

    /// Register interest in `wr_id` *before* posting the work request.
    ///
    /// A colliding registration is transport-state corruption; it
    /// surfaces as a typed [`TransportError`] the caller can fail the
    /// RPC with (and the fault layer can exercise) instead of aborting
    /// the whole simulation.
    pub fn expect(&self, wr_id: WrId) -> Result<OneshotReceiver<Completion>, TransportError> {
        let (tx, rx) = oneshot();
        {
            let mut waiters = self.inner.waiters.borrow_mut();
            if waiters.contains_key(&wr_id.0) {
                return Err(TransportError::DuplicateWaiter(wr_id.0));
            }
            waiters.insert(wr_id.0, tx);
        }
        self.inner.spin_wake.borrow_mut().wake();
        Ok(rx)
    }

    /// Install an error observer (used to fail pending RPCs).
    pub fn set_error_handler(&self, f: impl Fn(&Completion) + 'static) {
        *self.inner.on_error.borrow_mut() = Some(Box::new(f));
    }
}
