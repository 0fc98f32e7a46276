//! RFP reply-slot ring: the wire format for client-fetched replies.
//!
//! The Remote Fetching Paradigm inverts the reply path for small
//! messages: instead of the server posting a Send (doorbell + send
//! completion + client interrupt), it *deposits* the marshalled reply
//! into a per-connection registered ring and the client pulls it with
//! RDMA Read. The server-side cost of a small reply drops to a host
//! memory copy; all wire work moves to the client's Read engine.
//!
//! Each slot is a seqlock frame around the reply bytes:
//!
//! ```text
//! [ gen : u32 ][ xid : u32 ][ len : u32 ][ payload ... ][ gen2 : u32 ]
//! ```
//!
//! * `gen` is the slot's generation word. The writer first stores an
//!   *odd* generation (write-in-progress), copies the payload, then
//!   stores the full frame with the next *even* generation — so a
//!   concurrent reader either sees an odd `gen` (torn, retry) or a
//!   complete frame.
//! * `gen2` trails the payload and must equal `gen`. A fetch that
//!   straddles two deposits sees `gen != gen2` and retries — the
//!   reader never accepts bytes from two different occupants.
//! * `xid` binds the frame to one RPC: slot reuse (`xid % nslots`
//!   collides every `nslots` calls) changes the xid, so a stale
//!   occupant can never satisfy a newer call, and a fresh occupant
//!   never satisfies a retransmitted older one.
//!
//! All words are big-endian, matching the XDR convention of the rest
//! of the wire. The module is pure bytes-in/bytes-out so the encode /
//! tearing / reuse properties can be tested without a simulator.

use bytes::Bytes;
use sim_core::SimDuration;

/// Bytes of seqlock framing per slot on top of the reply payload:
/// `gen + xid + len` ahead of the bytes, `gen2` behind them.
pub const SLOT_OVERHEAD: u64 = 16;

/// Largest wire-format reply (RPC/RDMA header + inline body) the
/// server will deposit into a reply slot; anything bigger takes the
/// Send path. Each ring slot carries [`SLOT_OVERHEAD`] on top of this
/// payload budget.
pub const RFP_SLOT_SIZE: u64 = 512;

/// Fewest slots in a per-connection reply ring. The server builds
/// `RFP_SLOTS.max(credits)` slots, so the ring always covers the
/// credit window and no in-flight call is ever assigned the slot
/// (`xid % nslots`) of another outstanding call.
pub const RFP_SLOTS: u32 = 64;

/// Cap on the client's exponential slot-poll backoff — bounds the
/// worst-case latency added once the reply does land. The server's
/// ring reaper reads it too: a ring must outlive its last deposit by
/// two of these so an honest client's final backed-off fetch is never
/// refused.
pub const RFP_POLL_MAX: SimDuration = SimDuration::from_micros(240);

/// What a fetched slot image decodes to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SlotView {
    /// Generation zero: nothing has ever been deposited here.
    Empty,
    /// A write was in progress (odd generation) or the frame was
    /// inconsistent (`gen != gen2`, bad length): poll again.
    Torn,
    /// A complete deposit.
    Valid {
        /// Even, nonzero generation of the deposit.
        gen: u32,
        /// XID the reply answers.
        xid: u32,
        /// The marshalled reply (RPC/RDMA header + inline body).
        payload: Bytes,
    },
}

/// Encode the *torn marker* image: the first word of a deposit. The
/// server writes this before copying the payload so any fetch that
/// races the copy decodes as [`SlotView::Torn`].
pub fn encode_torn_marker(gen: u32) -> [u8; 4] {
    debug_assert!(gen % 2 == 1, "in-progress marker must be odd");
    gen.to_be_bytes()
}

/// Encode a complete slot frame. `gen` must be even and nonzero;
/// the image is exactly `SLOT_OVERHEAD + payload.len()` bytes.
pub fn encode_slot(gen: u32, xid: u32, payload: &[u8]) -> Vec<u8> {
    debug_assert!(
        gen != 0 && gen.is_multiple_of(2),
        "committed generation is even"
    );
    let mut out = Vec::with_capacity(SLOT_OVERHEAD as usize + payload.len());
    out.extend_from_slice(&gen.to_be_bytes());
    out.extend_from_slice(&xid.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&gen.to_be_bytes());
    out
}

/// Decode a fetched slot image (the client reads the whole slot in
/// one RDMA Read). Never panics: any malformed image is `Torn`.
pub fn decode_slot(image: &[u8]) -> SlotView {
    let word = |off: usize| -> Option<u32> {
        image
            .get(off..off + 4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    };
    let Some(gen) = word(0) else {
        return SlotView::Torn;
    };
    if gen == 0 {
        return SlotView::Empty;
    }
    if gen % 2 == 1 {
        return SlotView::Torn;
    }
    let (Some(xid), Some(len)) = (word(4), word(8)) else {
        return SlotView::Torn;
    };
    let payload_end = 12usize.saturating_add(len as usize);
    if payload_end + 4 > image.len() {
        return SlotView::Torn;
    }
    let Some(gen2) = word(payload_end) else {
        return SlotView::Torn;
    };
    if gen2 != gen {
        return SlotView::Torn;
    }
    SlotView::Valid {
        gen,
        xid,
        payload: Bytes::copy_from_slice(&image[12..payload_end]),
    }
}

/// Server-side ring bookkeeping: slot geometry plus the per-slot
/// generation counters. The backing memory itself lives in a
/// registered [`crate::reg::IoBuf`] owned by the connection.
pub struct RingLayout {
    nslots: u32,
    slot_size: u64,
    gens: Vec<u32>,
}

impl RingLayout {
    /// A ring of `nslots` slots each holding up to `payload_cap`
    /// reply bytes (the slot on the wire is `payload_cap +
    /// SLOT_OVERHEAD` bytes).
    pub fn new(nslots: u32, payload_cap: u64) -> RingLayout {
        assert!(nslots > 0, "ring needs at least one slot");
        RingLayout {
            nslots,
            slot_size: payload_cap + SLOT_OVERHEAD,
            gens: vec![0; nslots as usize],
        }
    }

    /// Slots in the ring.
    pub fn nslots(&self) -> u32 {
        self.nslots
    }

    /// Bytes per slot, framing included.
    pub fn slot_size(&self) -> u64 {
        self.slot_size
    }

    /// Total registered bytes the ring occupies.
    pub fn ring_bytes(&self) -> u64 {
        self.slot_size * self.nslots as u64
    }

    /// Largest reply payload a slot can hold.
    pub fn payload_cap(&self) -> u64 {
        self.slot_size - SLOT_OVERHEAD
    }

    /// The slot a given XID's reply lands in — both sides compute
    /// this independently, nothing is negotiated per call.
    pub fn slot_of(&self, xid: u32) -> u32 {
        xid % self.nslots
    }

    /// Byte offset of a slot within the ring.
    pub fn slot_offset(&self, slot: u32) -> u64 {
        slot as u64 * self.slot_size
    }

    /// Current generation word of a slot. Lets a depositor detect
    /// that a concurrent deposit raced it into the same slot (its
    /// remembered marker no longer matches) and re-begin cleanly.
    pub fn generation(&self, slot: u32) -> u32 {
        self.gens[slot as usize]
    }

    /// Start a deposit into `slot`: returns the odd in-progress
    /// generation to write as the torn marker. The commit generation
    /// is `marker + 1`.
    pub fn begin_deposit(&mut self, slot: u32) -> u32 {
        let g = &mut self.gens[slot as usize];
        *g = g.wrapping_add(1) | 1;
        *g
    }

    /// Finish a deposit: returns the even commit generation.
    pub fn commit_deposit(&mut self, slot: u32) -> u32 {
        let g = &mut self.gens[slot as usize];
        debug_assert!(*g % 2 == 1, "commit without begin");
        *g = g.wrapping_add(1);
        if *g == 0 {
            // Generation wrapped onto the "never written" value; skip
            // it so readers can't confuse a wrapped slot with empty.
            *g = 2;
        }
        *g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_slot_decodes_empty() {
        assert_eq!(decode_slot(&[0u8; 64]), SlotView::Empty);
    }

    #[test]
    fn roundtrip_simple() {
        let img = encode_slot(2, 77, b"hello");
        match decode_slot(&img) {
            SlotView::Valid { gen, xid, payload } => {
                assert_eq!(gen, 2);
                assert_eq!(xid, 77);
                assert_eq!(&payload[..], b"hello");
            }
            v => panic!("expected valid, got {v:?}"),
        }
    }

    #[test]
    fn torn_marker_reads_torn() {
        let mut img = encode_slot(2, 77, b"hello");
        img[..4].copy_from_slice(&encode_torn_marker(3));
        assert_eq!(decode_slot(&img), SlotView::Torn);
    }

    #[test]
    fn gen2_mismatch_reads_torn() {
        // A fetch that straddles two deposits: head from one
        // generation, tail from another.
        let mut img = encode_slot(4, 9, b"abcd");
        let n = img.len();
        img[n - 4..].copy_from_slice(&2u32.to_be_bytes());
        assert_eq!(decode_slot(&img), SlotView::Torn);
    }

    #[test]
    fn layout_generations() {
        let mut ring = RingLayout::new(8, 512);
        assert_eq!(ring.ring_bytes(), 8 * (512 + SLOT_OVERHEAD));
        assert_eq!(ring.slot_of(17), 1);
        let m = ring.begin_deposit(1);
        assert_eq!(m % 2, 1);
        let c = ring.commit_deposit(1);
        assert_eq!(c, m + 1);
        assert_eq!(c % 2, 0);
    }

    proptest! {
        /// Any committed frame round-trips exactly.
        #[test]
        fn roundtrip(gen in (1u32..0x7fff_ffff).prop_map(|g| g * 2),
                     xid in any::<u32>(),
                     payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let img = encode_slot(gen, xid, &payload);
            prop_assert_eq!(img.len() as u64, SLOT_OVERHEAD + payload.len() as u64);
            match decode_slot(&img) {
                SlotView::Valid { gen: g, xid: x, payload: p } => {
                    prop_assert_eq!(g, gen);
                    prop_assert_eq!(x, xid);
                    prop_assert_eq!(&p[..], &payload[..]);
                }
                v => prop_assert!(false, "expected valid, got {:?}", v),
            }
        }

        /// Tearing detection: a reader that catches the slot anywhere
        /// between "torn marker written" and "commit complete" — i.e.
        /// any prefix of the new frame spliced over the old one with
        /// the odd marker in front — never sees a Valid frame.
        #[test]
        fn in_progress_never_valid(
            old_xid in any::<u32>(),
            new_xid in any::<u32>(),
            old_pay in proptest::collection::vec(any::<u8>(), 0..256),
            new_pay in proptest::collection::vec(any::<u8>(), 0..256),
            copied in any::<usize>(),
        ) {
            let slot_bytes = (256u64 + SLOT_OVERHEAD) as usize;
            let mut slot = vec![0u8; slot_bytes];
            let old = encode_slot(2, old_xid, &old_pay);
            slot[..old.len()].copy_from_slice(&old);
            // Writer begins: odd marker lands first.
            slot[..4].copy_from_slice(&encode_torn_marker(3));
            prop_assert_eq!(decode_slot(&slot), SlotView::Torn);
            // Mid-copy: some prefix of the new payload has landed
            // after the marker, the rest is the old occupant.
            let new = encode_slot(4, new_xid, &new_pay);
            let cut = 4 + copied % (new.len().saturating_sub(4) + 1);
            slot[4..cut].copy_from_slice(&new[4..cut]);
            prop_assert_eq!(decode_slot(&slot), SlotView::Torn);
        }

        /// Wrap-around reuse: after a slot is re-deposited for a new
        /// xid, a reader can never extract the *previous* occupant's
        /// bytes — the frame it accepts is exactly the newest deposit.
        #[test]
        fn reuse_never_leaks_previous_occupant(
            xids in proptest::collection::vec(any::<u32>(), 2..6),
            pays in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..128), 2..6),
        ) {
            let n = xids.len().min(pays.len());
            let mut ring = RingLayout::new(1, 128);
            let slot_bytes = ring.slot_size() as usize;
            let mut slot = vec![0u8; slot_bytes];
            let mut last: Option<(u32, Vec<u8>)> = None;
            for i in 0..n {
                ring.begin_deposit(0);
                let gen = ring.commit_deposit(0);
                let img = encode_slot(gen, xids[i], &pays[i]);
                slot[..img.len()].copy_from_slice(&img);
                last = Some((xids[i], pays[i].clone()));
            }
            let (want_xid, want_pay) = last.unwrap();
            match decode_slot(&slot) {
                SlotView::Valid { xid, payload, .. } => {
                    prop_assert_eq!(xid, want_xid);
                    prop_assert_eq!(&payload[..], &want_pay[..]);
                }
                v => prop_assert!(false, "expected valid, got {:?}", v),
            }
        }
    }
}
