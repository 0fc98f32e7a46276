//! Completion routing: lets many concurrent operations await specific
//! work completions on one CQ, the way kernel ULPs demultiplex CQEs.

use std::cell::RefCell;
use std::rc::Rc;

use ib_verbs::{Completion, Cq, WrId};
use onc_rpc::TransportError;
use sim_core::sync::{oneshot, OneshotReceiver, OneshotSender};
use sim_core::{FxMap, Sim};

type ErrorHandler = Box<dyn Fn(&Completion)>;

struct RouterInner {
    waiters: RefCell<FxMap<u64, OneshotSender<Completion>>>,
    /// Callback invoked on any error completion (e.g. fail-all).
    on_error: RefCell<Option<ErrorHandler>>,
}

/// Demultiplexes one CQ to per-WR waiters.
#[derive(Clone)]
pub struct CompletionRouter {
    inner: Rc<RouterInner>,
}

impl CompletionRouter {
    /// Spawn the router task draining `cq`, for as long as a QP
    /// completes into it.
    pub fn spawn(sim: &Sim, cq: Cq) -> CompletionRouter {
        let router = CompletionRouter {
            inner: Rc::new(RouterInner {
                waiters: RefCell::new(FxMap::default()),
                on_error: RefCell::new(None),
            }),
        };
        let r2 = router.clone();
        sim.spawn(async move {
            while let Some(c) = cq.next_open().await {
                r2.dispatch(c);
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
        Ok(rx)
    }

    /// Install an error observer (used to fail pending RPCs).
    pub fn set_error_handler(&self, f: impl Fn(&Completion) + 'static) {
        *self.inner.on_error.borrow_mut() = Some(Box::new(f));
    }
}
