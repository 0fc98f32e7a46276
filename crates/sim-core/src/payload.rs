//! Data payloads that can be real or synthetic.
//!
//! Correctness tests move real bytes end to end and verify them.
//! Figure-scale runs move gigabytes of virtual data; carrying real
//! buffers would dominate memory and host time without changing any
//! simulated result, so they use `Synthetic` payloads: a length plus a
//! deterministic pattern seed. Every transport path handles both
//! uniformly via [`Payload::slice`]/[`Payload::concat`], and
//! [`Payload::materialize`] produces the actual bytes of a synthetic
//! payload on demand (tests use this to prove the two representations
//! agree).

use bytes::Bytes;

/// Seed of the all-zeros stream (uninitialized memory reads as zero).
pub const ZERO_SEED: u64 = 0;

/// The byte at `offset` of the synthetic stream with `seed`.
#[inline]
fn synth_byte(seed: u64, offset: u64) -> u8 {
    if seed == ZERO_SEED {
        return 0;
    }
    // Cheap mix; only needs to be deterministic and position-dependent.
    let x = seed
        .wrapping_add(offset.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x >> 56) as u8
}

/// A chunk of data in flight: real bytes or a synthetic description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Actual bytes (zero-copy via `Bytes`).
    Real(Bytes),
    /// `len` bytes of the deterministic pattern stream `seed`, starting
    /// at stream offset `offset`.
    Synthetic {
        /// Pattern stream identifier ([`ZERO_SEED`] is all zeros).
        seed: u64,
        /// Starting offset within the stream.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Payload {
        Payload::Real(Bytes::new())
    }

    /// Wrap real bytes.
    pub fn real(data: impl Into<Bytes>) -> Payload {
        Payload::Real(data.into())
    }

    /// A synthetic payload of `len` bytes at the start of stream `seed`.
    pub fn synthetic(seed: u64, len: u64) -> Payload {
        Payload::Synthetic {
            seed,
            offset: 0,
            len,
        }
    }

    /// `len` zero bytes without allocating them.
    pub fn zeros(len: u64) -> Payload {
        Payload::Synthetic {
            seed: ZERO_SEED,
            offset: 0,
            len,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Real(b) => b.len() as u64,
            Payload::Synthetic { len, .. } => *len,
        }
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range `[start, start+len)`. Panics if out of bounds.
    pub fn slice(&self, start: u64, len: u64) -> Payload {
        assert!(
            start + len <= self.len(),
            "slice {start}+{len} out of bounds for payload of {}",
            self.len()
        );
        match self {
            Payload::Real(b) => Payload::Real(b.slice(start as usize..(start + len) as usize)),
            Payload::Synthetic { seed, offset, .. } => Payload::Synthetic {
                seed: *seed,
                offset: offset + start,
                len,
            },
        }
    }

    /// Concatenate a sequence of payloads. Adjacent synthetic pieces of
    /// the same stream are merged; anything else is materialized.
    pub fn concat(pieces: &[Payload]) -> Payload {
        match pieces {
            [] => Payload::empty(),
            [one] => one.clone(),
            _ => {
                // Merge if all pieces are contiguous synthetic ranges of
                // one stream.
                if let Payload::Synthetic { seed, offset, .. } = pieces[0] {
                    let mut expect = offset;
                    let mut total = 0u64;
                    let mut contiguous = true;
                    for p in pieces {
                        match p {
                            Payload::Synthetic {
                                seed: s,
                                offset: o,
                                len,
                            } if *s == seed && *o == expect => {
                                expect += len;
                                total += len;
                            }
                            _ => {
                                contiguous = false;
                                break;
                            }
                        }
                    }
                    if contiguous {
                        return Payload::Synthetic {
                            seed,
                            offset,
                            len: total,
                        };
                    }
                }
                let mut out = Vec::with_capacity(pieces.iter().map(|p| p.len() as usize).sum());
                for p in pieces {
                    out.extend_from_slice(&p.materialize());
                }
                Payload::Real(Bytes::from(out))
            }
        }
    }

    /// Produce the actual bytes (synthetic payloads are expanded).
    pub fn materialize(&self) -> Bytes {
        match self {
            Payload::Real(b) => b.clone(),
            Payload::Synthetic { seed, offset, len } => {
                let mut v = Vec::with_capacity(*len as usize);
                for i in 0..*len {
                    v.push(synth_byte(*seed, offset + i));
                }
                Bytes::from(v)
            }
        }
    }

    /// Compare contents without necessarily materializing both sides.
    pub fn content_eq(&self, other: &Payload) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self, other) {
            (
                Payload::Synthetic { seed, offset, .. },
                Payload::Synthetic {
                    seed: s2,
                    offset: o2,
                    ..
                },
            ) => {
                // Any two zero streams of equal length are equal.
                (*seed == ZERO_SEED && *s2 == ZERO_SEED) || (seed == s2 && offset == o2)
            }
            _ => self.materialize() == other.materialize(),
        }
    }
}

/// A scatter/gather list: an ordered sequence of [`Payload`] pieces
/// treated as one logical byte range.
///
/// This is the zero-copy spine of the server READ path: the page cache
/// hands out reference-counted page slices, the file system gathers
/// them into an `SgList`, and the transport posts them as the SG
/// entries of a vectored RDMA Write — no piece is ever flattened into a
/// contiguous buffer unless a legacy consumer calls [`SgList::to_payload`].
///
/// A one-piece list — most of them: one extent, one physical run, one
/// WQE — holds its piece inline and never touches the heap; the second
/// piece moves the list into a `Vec`. Equality and `Debug` see only
/// [`SgList::pieces`], never the representation.
#[derive(Clone, Default)]
pub struct SgList {
    pieces: Pieces,
    total: u64,
}

/// Exactly one piece is `One`; none, or two and more, are `Many`.
#[derive(Clone)]
enum Pieces {
    One(Payload),
    Many(Vec<Payload>),
}

impl Default for Pieces {
    fn default() -> Pieces {
        Pieces::Many(Vec::new())
    }
}

impl SgList {
    /// An empty list.
    pub fn new() -> SgList {
        SgList::default()
    }

    /// Build from pieces (empty pieces are dropped). Keeps the `Vec` it
    /// is given: no allocation.
    pub fn from_pieces(mut pieces: Vec<Payload>) -> SgList {
        pieces.retain(|p| !p.is_empty());
        let total = pieces.iter().map(Payload::len).sum();
        let pieces = match pieces.len() {
            1 => Pieces::One(pieces.pop().expect("one piece")),
            _ => Pieces::Many(pieces),
        };
        SgList { pieces, total }
    }

    /// Append a piece (no copy; empty pieces are dropped).
    pub fn push(&mut self, piece: Payload) {
        if piece.is_empty() {
            return;
        }
        self.total += piece.len();
        self.pieces = match std::mem::take(&mut self.pieces) {
            Pieces::Many(v) if v.is_empty() => Pieces::One(piece),
            Pieces::Many(mut v) => {
                v.push(piece);
                Pieces::Many(v)
            }
            // The capacity a `Vec` grows to at its first push.
            Pieces::One(first) => {
                let mut v = Vec::with_capacity(4);
                v.extend([first, piece]);
                Pieces::Many(v)
            }
        };
    }

    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of scatter/gather entries.
    pub fn piece_count(&self) -> usize {
        self.pieces().len()
    }

    /// The pieces, in order.
    pub fn pieces(&self) -> &[Payload] {
        match &self.pieces {
            Pieces::One(p) => std::slice::from_ref(p),
            Pieces::Many(v) => v,
        }
    }

    /// The pieces paired with their byte offset within the list, in
    /// order. Scatter consumers (page-cache placement, log records)
    /// use this to land each piece at its own destination offset
    /// without flattening the list first.
    pub fn pieces_with_offsets(&self) -> impl Iterator<Item = (u64, &Payload)> {
        let mut off = 0u64;
        self.pieces().iter().map(move |p| {
            let at = off;
            off += p.len();
            (at, p)
        })
    }

    /// Append every piece of `other` (zero-copy).
    pub fn append(&mut self, other: SgList) {
        for p in other {
            self.push(p);
        }
    }

    /// Sub-range `[start, start+len)` as a new list, slicing pieces at
    /// the boundaries (zero-copy). Panics if out of bounds.
    pub fn slice(&self, start: u64, len: u64) -> SgList {
        assert!(
            start + len <= self.total,
            "slice {start}+{len} out of bounds for sg list of {}",
            self.total
        );
        let mut out = SgList::new();
        let mut pos = 0u64;
        let end = start + len;
        for p in self.pieces() {
            let p_end = pos + p.len();
            if p_end > start && pos < end {
                let lo = start.max(pos) - pos;
                let hi = end.min(p_end) - pos;
                out.push(p.slice(lo, hi - lo));
            }
            pos = p_end;
            if pos >= end {
                break;
            }
        }
        out
    }

    /// Flatten into a single [`Payload`]. Single-piece lists and
    /// contiguous synthetic runs stay zero-copy (see [`Payload::concat`]).
    pub fn to_payload(&self) -> Payload {
        Payload::concat(self.pieces())
    }

    /// Produce the actual bytes (see [`Payload::materialize`]).
    pub fn materialize(&self) -> Bytes {
        self.to_payload().materialize()
    }
}

/// Consuming iteration yields the pieces, in order, without building a
/// `Vec` for a one-piece list.
impl IntoIterator for SgList {
    type Item = Payload;
    type IntoIter = std::iter::Chain<std::option::IntoIter<Payload>, std::vec::IntoIter<Payload>>;

    fn into_iter(self) -> Self::IntoIter {
        match self.pieces {
            Pieces::One(p) => Some(p).into_iter().chain(Vec::new()),
            Pieces::Many(v) => None.into_iter().chain(v),
        }
    }
}

impl PartialEq for SgList {
    fn eq(&self, other: &SgList) -> bool {
        self.pieces() == other.pieces()
    }
}

impl Eq for SgList {}

impl std::fmt::Debug for SgList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SgList").field(&self.pieces()).finish()
    }
}

impl From<Payload> for SgList {
    fn from(p: Payload) -> SgList {
        let mut sg = SgList::new();
        sg.push(p);
        sg
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        Payload::Real(b)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::Real(Bytes::from(v))
    }
}

impl From<&'static [u8]> for Payload {
    fn from(v: &'static [u8]) -> Payload {
        Payload::Real(Bytes::from_static(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_roundtrip() {
        let p = Payload::real(vec![1, 2, 3, 4]);
        assert_eq!(p.len(), 4);
        assert_eq!(&p.materialize()[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn slice_of_real() {
        let p = Payload::real(vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(&p.slice(2, 3).materialize()[..], &[2, 3, 4]);
    }

    #[test]
    fn synthetic_slice_matches_materialized_slice() {
        let p = Payload::synthetic(77, 100);
        let full = p.materialize();
        let s = p.slice(10, 20);
        assert_eq!(&s.materialize()[..], &full[10..30]);
    }

    #[test]
    fn concat_merges_contiguous_synthetic() {
        let p = Payload::synthetic(5, 100);
        let a = p.slice(0, 40);
        let b = p.slice(40, 60);
        let joined = Payload::concat(&[a, b]);
        assert!(matches!(joined, Payload::Synthetic { len: 100, .. }));
        assert!(joined.content_eq(&p));
    }

    #[test]
    fn concat_mixed_materializes_correctly() {
        let a = Payload::real(vec![1, 2]);
        let b = Payload::synthetic(9, 3);
        let joined = Payload::concat(&[a.clone(), b.clone()]);
        let mut expect = vec![1, 2];
        expect.extend_from_slice(&b.materialize());
        assert_eq!(&joined.materialize()[..], &expect[..]);
    }

    #[test]
    fn concat_non_contiguous_synthetic_still_correct() {
        let p = Payload::synthetic(5, 100);
        let a = p.slice(0, 10);
        let b = p.slice(50, 10);
        let joined = Payload::concat(&[a, b]);
        let full = p.materialize();
        let mut expect = full[0..10].to_vec();
        expect.extend_from_slice(&full[50..60]);
        assert_eq!(&joined.materialize()[..], &expect[..]);
    }

    #[test]
    fn content_eq_synthetic_fast_path() {
        let a = Payload::synthetic(1, 1_000_000_000); // would be 1GB if materialized
        let b = Payload::synthetic(1, 1_000_000_000);
        assert!(a.content_eq(&b));
        let c = Payload::synthetic(2, 1_000_000_000);
        assert!(!a.content_eq(&c));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Payload::real(vec![0; 4]).slice(2, 3);
    }

    #[test]
    fn empty_behaviour() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::concat(&[]).len(), 0);
    }

    #[test]
    fn zeros_materialize_to_zero_bytes() {
        let z = Payload::zeros(16);
        assert_eq!(&z.materialize()[..], &[0u8; 16]);
        assert_eq!(&z.slice(4, 4).materialize()[..], &[0u8; 4]);
    }

    #[test]
    fn zero_streams_compare_equal_regardless_of_offset() {
        let a = Payload::zeros(100).slice(10, 20);
        let b = Payload::zeros(50).slice(0, 20);
        assert!(a.content_eq(&b));
    }

    #[test]
    fn sg_list_basics() {
        let mut sg = SgList::new();
        assert!(sg.is_empty());
        sg.push(Payload::real(vec![1, 2, 3]));
        sg.push(Payload::empty()); // dropped
        sg.push(Payload::synthetic(9, 5));
        assert_eq!(sg.len(), 8);
        assert_eq!(sg.piece_count(), 2);
        let mut expect = vec![1, 2, 3];
        expect.extend_from_slice(&Payload::synthetic(9, 5).materialize());
        assert_eq!(&sg.materialize()[..], &expect[..]);
    }

    #[test]
    fn sg_list_single_piece_to_payload_is_zero_copy() {
        let sg = SgList::from(Payload::synthetic(4, 64));
        // A single synthetic piece must survive flattening unchanged
        // (the stream transport relies on this to stay alloc-free).
        assert!(matches!(
            sg.to_payload(),
            Payload::Synthetic { len: 64, .. }
        ));
    }

    #[test]
    fn sg_list_pieces_with_offsets_and_append() {
        let mut sg =
            SgList::from_pieces(vec![Payload::real(vec![0, 1, 2]), Payload::synthetic(3, 5)]);
        let offs: Vec<u64> = sg.pieces_with_offsets().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0, 3]);
        sg.append(SgList::from(Payload::zeros(4)));
        assert_eq!(sg.len(), 12);
        assert_eq!(sg.piece_count(), 3);
        let offs: Vec<u64> = sg.pieces_with_offsets().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0, 3, 8]);
    }

    #[test]
    fn sg_list_slice_crosses_piece_boundaries() {
        let sg = SgList::from_pieces(vec![
            Payload::real(vec![0, 1, 2, 3]),
            Payload::real(vec![4, 5, 6, 7]),
            Payload::real(vec![8, 9]),
        ]);
        let s = sg.slice(2, 7);
        assert_eq!(s.len(), 7);
        assert_eq!(s.piece_count(), 3);
        assert_eq!(&s.materialize()[..], &[2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sg_list_slice_out_of_bounds_panics() {
        SgList::from(Payload::zeros(4)).slice(2, 3);
    }
}
