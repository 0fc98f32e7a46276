//! Memory regions and the Fast Memory Registration pool.
//!
//! An [`Mr`] is a live TPT entry with an RAII safety net: dropping a
//! still-valid region invalidates it immediately (no dangling steering
//! tags) but counts as a *leak* in [`crate::hca::RegStats`] because the
//! owner skipped the deregistration cost — protocol engines must call
//! [`Mr::deregister`] explicitly, exactly like kernel code must.
//!
//! [`FmrPool`] models the Mellanox Fast Memory Registration extension:
//! TPT entries and steering tags are allocated once at pool creation,
//! so a map operation only pins pages and updates the translation —
//! much cheaper than a dynamic registration, at the cost of a fixed
//! maximum mapping size and pool capacity (paper §4.3).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::hca::Hca;
use crate::memory::Buffer;
use crate::types::{Access, Rkey, VerbsError};

#[derive(Clone, Copy, PartialEq, Eq)]
enum MrKind {
    Dynamic,
    Fmr,
}

/// A registered memory region.
pub struct Mr {
    hca: Hca,
    rkey: Rkey,
    buffer: Buffer,
    base: u64,
    len: u64,
    access: Access,
    pages: u64,
    kind: MrKind,
    pool: Option<FmrPool>,
    valid: Cell<bool>,
}

impl Mr {
    pub(crate) fn new_dynamic(
        hca: Hca,
        rkey: Rkey,
        buffer: Buffer,
        base: u64,
        len: u64,
        access: Access,
        pages: u64,
    ) -> Mr {
        Mr {
            hca,
            rkey,
            buffer,
            base,
            len,
            access,
            pages,
            kind: MrKind::Dynamic,
            pool: None,
            valid: Cell::new(true),
        }
    }

    /// The steering tag. Sending this to a peer is what exposes the
    /// region.
    pub fn rkey(&self) -> Rkey {
        self.rkey
    }

    /// First registered virtual address.
    pub fn addr(&self) -> u64 {
        self.base
    }

    /// Registered length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the region is zero-length (never in practice).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access rights granted at registration.
    pub fn access(&self) -> Access {
        self.access
    }

    /// The backing buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// Deregister: the caller waits for the TPT invalidate transaction
    /// (FMR regions: the cheaper, batched FMR unmap, and their steering
    /// tag goes back to the pool), not for the unpin that follows it.
    pub async fn deregister(self) {
        self.retire(false).await;
    }

    /// Force-invalidate by policy (exposure TTL expiry, quarantine):
    /// identical teardown costs to [`Mr::deregister`], but the TPT
    /// ledger records the invalidation as a *revocation* — the owner
    /// did not give the region up, the server took it away.
    pub async fn revoke(self) {
        self.retire(true).await;
    }

    /// The step that gates reuse, then the step that does not. The
    /// ledger entry goes first (the security-relevant step), then the
    /// revocation's engine time, both on the caller's clock; the unpin
    /// is handed to a free core ([`Hca::unpin_pages`]) and the caller
    /// resumes without it.
    async fn retire(self, forced: bool) {
        debug_assert!(self.valid.get(), "double deregistration");
        self.valid.set(false);
        let hca = self.hca.clone();
        {
            let mut tpt = hca.inner.tpt.borrow_mut();
            let now = hca.inner.sim.now();
            if forced {
                tpt.revoke(self.rkey, now);
            } else {
                tpt.invalidate(self.rkey, now);
            }
        }
        match self.kind {
            MrKind::Dynamic => {
                hca.inner
                    .tpt_engine
                    .use_for(hca.inner.cfg.dereg_cost(self.pages))
                    .await;
                hca.inner.series.deregs.inc();
            }
            MrKind::Fmr => {
                hca.inner.tpt_engine.use_for(hca.inner.cfg.fmr_unmap).await;
                hca.inner.series.fmr_unmaps.inc();
                if let Some(pool) = &self.pool {
                    pool.release(self.rkey);
                }
            }
        }
        hca.unpin_pages(self.pages);
    }
}

impl Drop for Mr {
    fn drop(&mut self) {
        if self.valid.get() {
            // Safety net: never leave a dangling steering tag, but
            // record that the owner skipped proper deregistration.
            self.hca
                .inner
                .tpt
                .borrow_mut()
                .invalidate(self.rkey, self.hca.inner.sim.now());
            self.hca.inner.series.leaked_mrs.inc();
            if self.kind == MrKind::Fmr {
                if let Some(pool) = &self.pool {
                    pool.release(self.rkey);
                }
            }
        }
    }
}

struct FmrPoolInner {
    free: RefCell<Vec<Rkey>>,
    max_len: u64,
}

/// A pool of pre-allocated FMR entries.
#[derive(Clone)]
pub struct FmrPool {
    hca: Hca,
    inner: Rc<FmrPoolInner>,
}

impl FmrPool {
    /// Allocate `size` FMR entries able to map up to `max_len` bytes
    /// each. The allocation happens once, off the critical path.
    pub fn new(hca: &Hca, size: usize, max_len: u64) -> FmrPool {
        let free = hca.inner.tpt.borrow_mut().reserve_keys(size);
        FmrPool {
            hca: hca.clone(),
            inner: Rc::new(FmrPoolInner {
                free: RefCell::new(free),
                max_len,
            }),
        }
    }

    /// Create a pool using the HCA config's size/limit.
    pub fn from_config(hca: &Hca) -> FmrPool {
        FmrPool::new(hca, hca.config().fmr_pool_size, hca.config().fmr_max_len)
    }

    /// Map a buffer range through a pooled FMR entry. Fails (so the
    /// caller can fall back to dynamic registration) if the range
    /// exceeds `max_len` or the pool is empty.
    pub async fn map(
        &self,
        buffer: &Buffer,
        offset: u64,
        len: u64,
        access: Access,
    ) -> Result<Mr, VerbsError> {
        assert!(offset + len <= buffer.len(), "fmr map out of bounds");
        if len > self.inner.max_len {
            self.hca.inner.series.fmr_fallbacks.inc();
            return Err(VerbsError::FmrUnavailable("region exceeds FMR max size"));
        }
        let rkey = {
            let mut free = self.inner.free.borrow_mut();
            match free.pop() {
                Some(k) => k,
                None => {
                    self.hca.inner.series.fmr_fallbacks.inc();
                    return Err(VerbsError::FmrUnavailable("pool exhausted"));
                }
            }
        };
        let hca = &self.hca;
        let pages = len.div_ceil(crate::memory::PAGE_SIZE).max(1);
        hca.pin_pages(pages).await;
        hca.inner
            .tpt_engine
            .use_for(hca.inner.cfg.fmr_map_cost(pages))
            .await;
        let base = buffer.addr() + offset;
        hca.inner.tpt.borrow_mut().insert_with_key(
            rkey,
            buffer.clone(),
            base,
            len,
            access,
            hca.inner.sim.now(),
        );
        hca.inner.series.fmr_maps.inc();
        Ok(Mr {
            hca: hca.clone(),
            rkey,
            buffer: buffer.clone(),
            base,
            len,
            access,
            pages,
            kind: MrKind::Fmr,
            pool: Some(self.clone()),
            valid: Cell::new(true),
        })
    }

    /// Entries currently available.
    pub fn available(&self) -> usize {
        self.inner.free.borrow().len()
    }

    /// Largest mappable region.
    pub fn max_len(&self) -> u64 {
        self.inner.max_len
    }

    fn release(&self, rkey: Rkey) {
        self.inner.free.borrow_mut().push(rkey);
    }
}
