//! Sparse extent map backing simulated host memory.
//!
//! Buffers in the simulation can be gigabytes of virtual data; an
//! [`ExtentMap`] stores only the [`Payload`] extents actually written,
//! reading unwritten ranges as zeros. Writes split/overwrite existing
//! extents; reads stitch extents (and zero gaps) back together.

use std::collections::BTreeMap;

use crate::payload::{Payload, SgList};

/// Non-overlapping, offset-keyed payload extents over a fixed length.
#[derive(Clone, Debug, Default)]
pub struct ExtentMap {
    /// start offset -> payload (extents never overlap, never empty).
    extents: BTreeMap<u64, Payload>,
}

impl ExtentMap {
    /// Empty (all-zero) map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// Write `data` at `offset`, replacing anything it overlaps.
    pub fn write(&mut self, offset: u64, data: Payload) {
        let len = data.len();
        if len == 0 {
            return;
        }
        let end = offset + len;

        // Remove every extent overlapping [offset, end), last first.
        while let Some((&start, p)) = self.extents.range_mut(..end).next_back() {
            if start + p.len() <= offset {
                break;
            }
            // Exactly covered (every receive lands on the same posted
            // range): the extent keeps its node in the tree.
            if (start, p.len()) == (offset, len) {
                *p = data;
                return;
            }
            let existing = self.extents.remove(&start).expect("extent vanished");
            let e_end = start + existing.len();
            // Keep the prefix before our write.
            if start < offset {
                self.extents
                    .insert(start, existing.slice(0, offset - start));
            }
            // Keep the suffix after our write.
            if e_end > end {
                self.extents
                    .insert(end, existing.slice(end - start, e_end - end));
            }
        }
        self.extents.insert(offset, data);
    }

    /// Read `len` bytes at `offset`; unwritten gaps read as zeros.
    pub fn read(&self, offset: u64, len: u64) -> Payload {
        self.read_sg(offset, len).to_payload()
    }

    /// Read `len` bytes at `offset` as a scatter list of extent slices
    /// (unwritten gaps appear as zero payloads). Each piece is a
    /// reference-counted slice of the stored extent — nothing is
    /// flattened or copied, which is what lets the server READ path
    /// gather straight out of the page cache. A first walk counts the
    /// pieces, so a list of two or more is one `Vec` of its final size
    /// and a list of one stays inline.
    pub fn read_sg(&self, offset: u64, len: u64) -> SgList {
        let mut count = 0;
        self.walk(offset, len, |_| count += 1);
        if count == 1 {
            let mut sg = SgList::new();
            self.walk(offset, len, |piece| sg.push(piece.payload()));
            return sg;
        }
        let mut pieces = Vec::with_capacity(count);
        self.walk(offset, len, |piece| pieces.push(piece.payload()));
        SgList::from_pieces(pieces)
    }

    /// Visit the pieces of `[offset, offset + len)` in order: one
    /// descent finds the head, one in-order pass the rest.
    fn walk<'a>(&'a self, offset: u64, len: u64, mut visit: impl FnMut(Piece<'a>)) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let mut cursor = offset;

        // The extent that may start before `offset` but reach into it.
        if let Some((start, p)) = self.extents.range(..=offset).next_back() {
            if start + p.len() > offset {
                let take = (start + p.len()).min(end) - offset;
                visit(Piece::Slice(p, offset - start, take));
                cursor = offset + take;
            }
        }

        // Extents whose start lies in [cursor, end), zero-filling gaps
        // between them.
        for (&start, p) in self.extents.range(cursor..end) {
            if start > cursor {
                visit(Piece::Zeros(start - cursor));
            }
            let take = (start + p.len()).min(end) - start;
            visit(Piece::Slice(p, 0, take));
            cursor = start + take;
        }
        if cursor < end {
            visit(Piece::Zeros(end - cursor));
        }
    }

    /// Drop everything at or past `size`; an extent straddling it keeps
    /// its head. Reads past `size` then see zeros.
    pub fn truncate(&mut self, size: u64) {
        self.extents.split_off(&size);
        if let Some((&start, p)) = self.extents.last_key_value() {
            if start + p.len() > size {
                let head = p.slice(0, size - start);
                self.extents.insert(start, head);
            }
        }
    }

    /// Number of stored extents (diagnostic).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }
}

/// One piece of a read, not yet sliced out: counting the pieces
/// touches no payload.
enum Piece<'a> {
    /// `(extent, start within it, length)`.
    Slice(&'a Payload, u64, u64),
    Zeros(u64),
}

impl Piece<'_> {
    fn payload(self) -> Payload {
        match self {
            Piece::Slice(p, start, len) => p.slice(start, len),
            Piece::Zeros(len) => Payload::zeros(len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: &[u8]) -> Payload {
        Payload::real(v.to_vec())
    }

    #[test]
    fn read_unwritten_is_zero() {
        let m = ExtentMap::new();
        assert_eq!(&m.read(10, 4).materialize()[..], &[0, 0, 0, 0]);
    }

    #[test]
    fn write_then_read_back() {
        let mut m = ExtentMap::new();
        m.write(100, bytes(&[1, 2, 3, 4]));
        assert_eq!(&m.read(100, 4).materialize()[..], &[1, 2, 3, 4]);
        // Straddling read picks up zeros around it.
        assert_eq!(&m.read(98, 8).materialize()[..], &[0, 0, 1, 2, 3, 4, 0, 0]);
    }

    #[test]
    fn overwrite_middle_splits() {
        let mut m = ExtentMap::new();
        m.write(0, bytes(&[1; 10]));
        m.write(3, bytes(&[2; 4]));
        assert_eq!(
            &m.read(0, 10).materialize()[..],
            &[1, 1, 1, 2, 2, 2, 2, 1, 1, 1]
        );
        assert_eq!(m.extent_count(), 3);
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut m = ExtentMap::new();
        m.write(0, bytes(&[1; 4]));
        m.write(6, bytes(&[2; 4]));
        m.write(2, bytes(&[3; 6])); // covers tail of first, gap, head of second
        assert_eq!(
            &m.read(0, 10).materialize()[..],
            &[1, 1, 3, 3, 3, 3, 3, 3, 2, 2]
        );
    }

    #[test]
    fn exact_overwrite_replaces() {
        let mut m = ExtentMap::new();
        m.write(5, bytes(&[1; 8]));
        m.write(5, bytes(&[9; 8]));
        assert_eq!(m.extent_count(), 1);
        assert_eq!(&m.read(5, 8).materialize()[..], &[9; 8]);
    }

    #[test]
    fn adjacent_writes_do_not_interfere() {
        let mut m = ExtentMap::new();
        m.write(0, bytes(&[1; 4]));
        m.write(4, bytes(&[2; 4]));
        assert_eq!(&m.read(0, 8).materialize()[..], &[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn synthetic_writes_stay_compact() {
        let mut m = ExtentMap::new();
        m.write(0, Payload::synthetic(7, 1 << 30)); // 1 GiB, no allocation
        assert_eq!(m.extent_count(), 1);
        let s = m.read(12345, 64);
        assert!(s.content_eq(&Payload::synthetic(7, 1 << 30).slice(12345, 64)));
    }

    #[test]
    fn read_across_gap_between_synthetics() {
        let mut m = ExtentMap::new();
        m.write(0, Payload::synthetic(1, 8));
        m.write(16, Payload::synthetic(2, 8));
        let r = m.read(0, 24).materialize();
        let a = Payload::synthetic(1, 8).materialize();
        let b = Payload::synthetic(2, 8).materialize();
        assert_eq!(&r[0..8], &a[..]);
        assert_eq!(&r[8..16], &[0; 8]);
        assert_eq!(&r[16..24], &b[..]);
    }

    #[test]
    fn zero_len_ops_are_noops() {
        let mut m = ExtentMap::new();
        m.write(5, Payload::empty());
        assert_eq!(m.extent_count(), 0);
        assert!(m.read(5, 0).is_empty());
        assert!(m.read_sg(5, 0).is_empty());
    }

    #[test]
    fn truncate_drops_and_trims_extents_past_the_cut() {
        let mut m = ExtentMap::new();
        m.write(0, bytes(&[1; 4]));
        m.write(6, bytes(&[2; 4]));
        m.write(12, bytes(&[3; 2]));
        m.truncate(8);
        assert_eq!(m.extent_count(), 2);
        assert_eq!(
            &m.read(0, 14).materialize()[..],
            &[1, 1, 1, 1, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0]
        );
        // A cut on an extent boundary keeps the extent before it whole.
        m.truncate(4);
        assert_eq!(m.extent_count(), 1);
        assert_eq!(&m.read(0, 8).materialize()[..], &[1, 1, 1, 1, 0, 0, 0, 0]);
        m.truncate(0);
        assert_eq!(m.extent_count(), 0);
    }

    #[test]
    fn read_sg_pieces_match_flat_read() {
        let mut m = ExtentMap::new();
        m.write(0, bytes(&[1; 8]));
        m.write(16, Payload::synthetic(3, 8));
        let sg = m.read_sg(4, 24);
        assert!(
            sg.piece_count() >= 3,
            "head, gap, tail = {}",
            sg.piece_count()
        );
        let total: u64 = sg.pieces().iter().map(|p| p.len()).sum();
        assert_eq!(total, 24);
        assert!(sg.to_payload().content_eq(&m.read(4, 24)));
    }
}
