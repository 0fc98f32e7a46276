//! The RPC/RDMA header (paper Figure 2) and chunk-list encoding.
//!
//! Every message on the RDMA transport is prefixed with this header:
//! transaction id, protocol version, a credit grant, the message type
//! (`RDMA_MSG`, `RDMA_NOMSG`, `RDMA_MSGP`, `RDMA_DONE`), and three
//! chunk lists — Read chunks (peer may RDMA Read these from us), Write
//! chunks (peer should RDMA Write results here) and the Reply chunk
//! (peer should RDMA Write a long RPC reply here). Encoding follows
//! the RFC 8166 style of bool-terminated XDR lists.

use ib_verbs::Rkey;
use xdr::{Decoder, Encoder, Result as XdrResult, XdrCodec, XdrError};

/// RPC/RDMA protocol version.
pub const RPCRDMA_VERSION: u32 = 1;

/// Hard wire-format cap on the segments decoded for any single chunk
/// list (the read list, one write chunk's segment array, or the reply
/// chunk). Checked *before* any allocation, so a hostile length prefix
/// (`u32::MAX` segments) costs the decoder nothing but a typed error.
/// Servers apply their (tighter, configurable) sanitizer on top; this
/// constant only bounds what the codec will ever materialize.
pub const MAX_WIRE_SEGMENTS: u32 = 128;

/// Hard wire-format cap on the number of write chunks in one header.
/// Real RPC/RDMA uses at most one write chunk plus a reply chunk per
/// message; a handful leaves slack for experiments.
pub const MAX_WIRE_CHUNKS: u32 = 8;

/// Message types (paper Figure 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgType {
    /// An RPC call or reply follows inline.
    Msg,
    /// No inline body: the RPC message moves via chunks (long call /
    /// long reply).
    Nomsg,
    /// Inline message with alignment padding (RDMA_MSGP).
    Msgp,
    /// Client signals read-chunk completion so the server may free its
    /// exposed buffers (Read-Read design only).
    Done,
}

impl MsgType {
    fn to_u32(self) -> u32 {
        match self {
            MsgType::Msg => 0,
            MsgType::Nomsg => 1,
            MsgType::Msgp => 2,
            MsgType::Done => 3,
        }
    }

    fn from_u32(v: u32) -> XdrResult<Self> {
        Ok(match v {
            0 => MsgType::Msg,
            1 => MsgType::Nomsg,
            2 => MsgType::Msgp,
            3 => MsgType::Done,
            d => return Err(XdrError::BadDiscriminant(d)),
        })
    }
}

/// One RDMA segment: a steering tag, a length and the remote address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Steering tag authorizing access.
    pub rkey: Rkey,
    /// Length in bytes.
    pub len: u64,
    /// Remote virtual address.
    pub addr: u64,
}

impl XdrCodec for Segment {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.rkey.0)
            .put_u32(self.len as u32)
            .put_u64(self.addr);
    }

    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(Segment {
            rkey: Rkey(dec.get_u32()?),
            len: dec.get_u32()? as u64,
            addr: dec.get_u64()?,
        })
    }
}

/// A read chunk: a segment plus its position in the XDR stream of the
/// RPC message it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadChunk {
    /// Byte position in the RPC message where this chunk's data
    /// belongs.
    pub position: u32,
    /// The data's location at the sender.
    pub segment: Segment,
}

/// The RPC/RDMA header.
///
/// ```
/// use rpcrdma::{RdmaHeader, MsgType, ReadChunk, Segment};
/// use ib_verbs::Rkey;
/// use xdr::XdrCodec;
///
/// let mut hdr = RdmaHeader::new(42, 32, MsgType::Msg);
/// hdr.read_chunks.push(ReadChunk {
///     position: 128,
///     segment: Segment { rkey: Rkey(0xabcd), len: 131072, addr: 0x10000 },
/// });
/// let wire = hdr.to_bytes();
/// assert_eq!(RdmaHeader::from_bytes(&wire).unwrap(), hdr);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RdmaHeader {
    /// Transaction id (mirrors the RPC XID).
    pub xid: u32,
    /// Credit grant / request (flow control field).
    pub credits: u32,
    /// Message type.
    pub msg_type: MsgType,
    /// For `RDMA_MSGP`: (alignment, RPC-message length). The inline
    /// body is padded so the bulk bytes after the RPC message start on
    /// the alignment boundary, letting the receiver place them without
    /// a pull-up copy.
    pub msgp: Option<(u32, u32)>,
    /// Placeholder where the retired RFP reply-slot ring advertisement
    /// was: zero-sized, never `Some`, never on the wire. It stays only
    /// while one struct literal outside the workspace still names it;
    /// ROADMAP 6(i) deletes it once that caller builds its header with
    /// [`RdmaHeader::new`].
    pub rfp_ad: Option<std::convert::Infallible>,
    /// Read chunk list: data the *receiver* of this header may RDMA
    /// Read from the sender.
    pub read_chunks: Vec<ReadChunk>,
    /// Write chunk list: sinks the receiver should RDMA Write bulk
    /// results into. Each chunk is an array of segments.
    pub write_chunks: Vec<Vec<Segment>>,
    /// Reply chunk: sink for a long RPC reply.
    pub reply_chunk: Option<Vec<Segment>>,
}

impl RdmaHeader {
    /// A minimal header with empty chunk lists.
    pub fn new(xid: u32, credits: u32, msg_type: MsgType) -> Self {
        RdmaHeader {
            xid,
            credits,
            msg_type,
            msgp: None,
            rfp_ad: None,
            read_chunks: Vec::new(),
            write_chunks: Vec::new(),
            reply_chunk: None,
        }
    }

    /// Total bytes advertised in the read chunk list.
    pub fn read_chunk_bytes(&self) -> u64 {
        self.read_chunks.iter().map(|c| c.segment.len).sum()
    }

    /// Total bytes available in write chunk `i`.
    pub fn write_chunk_bytes(&self, i: usize) -> u64 {
        self.write_chunks
            .get(i)
            .map(|c| c.iter().map(|s| s.len).sum())
            .unwrap_or(0)
    }
}

/// Decode one counted segment array, rejecting the declared count
/// before reserving space for it.
fn decode_segments(dec: &mut Decoder) -> XdrResult<Vec<Segment>> {
    let n = dec.get_u32()?;
    if n > MAX_WIRE_SEGMENTS {
        return Err(XdrError::LengthOutOfRange(n));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(Segment::decode(dec)?);
    }
    Ok(out)
}

impl XdrCodec for RdmaHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.xid)
            .put_u32(RPCRDMA_VERSION)
            .put_u32(self.credits)
            .put_u32(self.msg_type.to_u32());
        if self.msg_type == MsgType::Msgp {
            let (align, head_len) = self.msgp.expect("RDMA_MSGP without align info");
            enc.put_u32(align).put_u32(head_len);
        }
        // Read list: (bool, chunk)* false
        for c in &self.read_chunks {
            enc.put_bool(true).put_u32(c.position);
            c.segment.encode(enc);
        }
        enc.put_bool(false);
        // Write list: (bool, seg array)* false
        for chunk in &self.write_chunks {
            enc.put_bool(true);
            enc.put_array(chunk, |e, s| s.encode(e));
        }
        enc.put_bool(false);
        // Reply chunk: optional seg array.
        enc.put_option(self.reply_chunk.as_ref(), |e, segs| {
            e.put_array(segs, |e, s| s.encode(e));
        });
    }

    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        let xid = dec.get_u32()?;
        let vers = dec.get_u32()?;
        if vers != RPCRDMA_VERSION {
            return Err(XdrError::BadDiscriminant(vers));
        }
        let credits = dec.get_u32()?;
        let msg_type = MsgType::from_u32(dec.get_u32()?)?;
        let msgp = if msg_type == MsgType::Msgp {
            Some((dec.get_u32()?, dec.get_u32()?))
        } else {
            None
        };
        let mut read_chunks = Vec::new();
        while dec.get_bool()? {
            if read_chunks.len() as u32 >= MAX_WIRE_SEGMENTS {
                return Err(XdrError::LengthOutOfRange(read_chunks.len() as u32 + 1));
            }
            let position = dec.get_u32()?;
            let segment = Segment::decode(dec)?;
            read_chunks.push(ReadChunk { position, segment });
        }
        let mut write_chunks = Vec::new();
        while dec.get_bool()? {
            if write_chunks.len() as u32 >= MAX_WIRE_CHUNKS {
                return Err(XdrError::LengthOutOfRange(write_chunks.len() as u32 + 1));
            }
            write_chunks.push(decode_segments(dec)?);
        }
        let reply_chunk = dec.get_option(decode_segments)?;
        Ok(RdmaHeader {
            msgp,
            read_chunks,
            write_chunks,
            reply_chunk,
            ..RdmaHeader::new(xid, credits, msg_type)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(rkey: u32, len: u64, addr: u64) -> Segment {
        Segment {
            rkey: Rkey(rkey),
            len,
            addr,
        }
    }

    #[test]
    fn minimal_header_roundtrip() {
        let h = RdmaHeader::new(7, 32, MsgType::Msg);
        let got = RdmaHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn full_header_roundtrip() {
        let mut h = RdmaHeader::new(0xabcd, 16, MsgType::Nomsg);
        h.read_chunks = vec![
            ReadChunk {
                position: 0,
                segment: seg(1, 4096, 0x1000),
            },
            ReadChunk {
                position: 128,
                segment: seg(2, 65536, 0x2000),
            },
        ];
        h.write_chunks = vec![
            vec![seg(3, 1 << 20, 0x10_0000)],
            vec![seg(4, 4096, 0x20_0000), seg(5, 4096, 0x30_0000)],
        ];
        h.reply_chunk = Some(vec![seg(6, 32768, 0x40_0000)]);
        let got = RdmaHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn done_message_is_small() {
        let h = RdmaHeader::new(1, 0, MsgType::Done);
        // xid+vers+credits+type + 2 list terminators + option = 28 bytes.
        assert_eq!(h.to_bytes().len(), 28);
    }

    #[test]
    fn chunk_byte_accounting() {
        let mut h = RdmaHeader::new(1, 0, MsgType::Msg);
        h.read_chunks = vec![
            ReadChunk {
                position: 0,
                segment: seg(1, 100, 0),
            },
            ReadChunk {
                position: 100,
                segment: seg(2, 50, 0),
            },
        ];
        h.write_chunks = vec![vec![seg(3, 10, 0), seg(4, 20, 0)]];
        assert_eq!(h.read_chunk_bytes(), 150);
        assert_eq!(h.write_chunk_bytes(0), 30);
        assert_eq!(h.write_chunk_bytes(1), 0);
    }

    /// `h` on the wire with the 32-bit word at byte `at` replaced.
    fn patched(h: &RdmaHeader, at: usize, word: u32) -> Vec<u8> {
        let mut raw = h.to_bytes().to_vec();
        raw[at..at + 4].copy_from_slice(&word.to_be_bytes());
        raw
    }

    /// A retired reply-ring advertisement: type 5, then the segment,
    /// slot count and slot size it carried ahead of the chunk lists.
    fn rfp_ad_wire() -> Vec<u8> {
        let mut raw = patched(&RdmaHeader::new(3, 32, MsgType::Msg), 12, 5);
        let mut ad = Encoder::new();
        seg(0xbeef, 64 * 544, 0x9000).encode(&mut ad);
        ad.put_u32(64).put_u32(544);
        raw.splice(16..16, ad.finish().iter().copied());
        raw
    }

    /// A version or message type outside the four of Figure 2 is no
    /// header.
    #[test]
    fn wrong_version_rejected() {
        let h = RdmaHeader::new(7, 32, MsgType::Msg);
        assert!(RdmaHeader::from_bytes(&patched(&h, 4, 9)).is_err());
        let err = RdmaHeader::from_bytes(&patched(&h, 12, 6)).unwrap_err();
        assert!(matches!(err, XdrError::BadDiscriminant(6)));
    }

    #[test]
    fn rfp_call_encoding_matches_msg_shape() {
        // The retired RFP-marked call was a Msg call with discriminant
        // 4. That shape is refused now; the Msg it mirrored still
        // round-trips at its pre-RFP length.
        let msg = RdmaHeader::new(9, 4, MsgType::Msg);
        assert_eq!(msg.to_bytes().len(), 28);
        assert_eq!(RdmaHeader::from_bytes(&msg.to_bytes()).unwrap(), msg);
        let err = RdmaHeader::from_bytes(&patched(&msg, 12, 4)).unwrap_err();
        assert!(matches!(err, XdrError::BadDiscriminant(4)));
    }

    #[test]
    fn rfp_ad_roundtrip() {
        // A ring advertisement no longer round-trips: the decoder
        // refuses its type word, and no header it yields carries an ad.
        let err = RdmaHeader::from_bytes(&rfp_ad_wire()).unwrap_err();
        assert!(matches!(err, XdrError::BadDiscriminant(5)));
        let h = RdmaHeader::new(3, 32, MsgType::Msg);
        assert!(RdmaHeader::from_bytes(&h.to_bytes())
            .unwrap()
            .rfp_ad
            .is_none());
    }

    #[test]
    fn rfp_ad_truncated_rejected() {
        // Chopped anywhere, inside the old ad body or not, the
        // advertisement errors rather than mis-parsing.
        let wire = rfp_ad_wire();
        for cut in 0..wire.len() {
            assert!(RdmaHeader::from_bytes(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_segment_count_rejected_before_allocation() {
        // A reply chunk declaring u32::MAX segments: the count is the
        // last word, so without the cap the decoder would try to
        // reserve 16 GiB of segments before noticing truncation.
        let mut enc = Encoder::new();
        enc.put_u32(1) // xid
            .put_u32(RPCRDMA_VERSION)
            .put_u32(0) // credits
            .put_u32(0) // RDMA_MSG
            .put_bool(false) // read list
            .put_bool(false) // write list
            .put_bool(true) // reply chunk present
            .put_u32(u32::MAX); // declared segment count
        let err = RdmaHeader::from_bytes(enc.as_slice()).unwrap_err();
        assert!(matches!(err, XdrError::LengthOutOfRange(n) if n == u32::MAX));
    }

    #[test]
    fn unbounded_read_list_rejected() {
        // One more bool-terminated read chunk than the wire cap.
        let mut enc = Encoder::new();
        enc.put_u32(1)
            .put_u32(RPCRDMA_VERSION)
            .put_u32(0)
            .put_u32(0);
        for i in 0..=MAX_WIRE_SEGMENTS {
            enc.put_bool(true).put_u32(0);
            seg(i, 8, 0x1000).encode(&mut enc);
        }
        enc.put_bool(false).put_bool(false).put_bool(false);
        let err = RdmaHeader::from_bytes(enc.as_slice()).unwrap_err();
        assert!(matches!(err, XdrError::LengthOutOfRange(_)));
    }

    #[test]
    fn header_at_wire_caps_roundtrips() {
        let mut h = RdmaHeader::new(5, 1, MsgType::Msg);
        for i in 0..MAX_WIRE_SEGMENTS {
            h.read_chunks.push(ReadChunk {
                position: 4,
                segment: seg(i, 16, 0x1000 + i as u64),
            });
        }
        h.reply_chunk = Some((0..MAX_WIRE_SEGMENTS).map(|i| seg(i, 16, 0)).collect());
        let got = RdmaHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(got, h);
    }

    #[test]
    fn garbage_rejected_without_panic() {
        for n in 0..64 {
            let junk: Vec<u8> = (0..n).map(|i| (i * 37) as u8).collect();
            let _ = RdmaHeader::from_bytes(&junk);
        }
    }
}
