//! Server-side chunk-list sanitization (adversarial hardening).
//!
//! The RPC/RDMA header arrives from an *untrusted* peer, and before
//! this module existed the server trusted every client-advertised
//! chunk list: `pull_chunks` allocated scratch sized by the sum of the
//! client's declared segment lengths, and RDMA Writes followed the
//! client's segment layout blindly. A hostile client could demand
//! gigabytes of server scratch with one 100-byte message, advertise
//! zero-length segments to spin the pull loop, or overlap write
//! segments so the server scribbles over its own placements.
//!
//! [`sanitize_header`] runs on every inbound message before any
//! allocation or RDMA is issued, enforcing the caps from
//! [`RpcRdmaConfig`]. Each rejection is a typed [`ProtocolViolation`];
//! the server's admission control (see `server.rs`) clamps the
//! offender's credit grant, counts the violation under
//! `server.violations.*`, and quarantines the QP once the connection's
//! violation budget is spent — honest clients on other QPs never
//! notice.

use crate::config::RpcRdmaConfig;
use crate::header::{MsgType, RdmaHeader, Segment};
use xdr::XdrCodec;

/// Most bytes a single header may advertise across all its chunk
/// lists. Bounds the scratch memory + RDMA traffic one hostile call can
/// demand from the server; the largest honest transfer is 1 MiB.
pub const MAX_CHUNK_BYTES: u64 = 8 << 20;

/// Most segments the server accepts in any one client-advertised chunk
/// list (read list, one write chunk, reply chunk) before declaring a
/// protocol violation. Sits below the wire-decode cap
/// ([`crate::header::MAX_WIRE_SEGMENTS`]) and comfortably above the
/// honest worst case (an all-physical 1 MiB buffer fans out into ~16
/// runs on the 64 KiB-mean layout).
pub const MAX_CHUNK_SEGMENTS: u32 = 96;

/// A malformed or hostile header, detected before the server spent
/// memory or RDMA on it. The `metric_key` of each variant names its
/// `server.violations.<key>` counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolViolation {
    /// The header failed to decode at all (byte soup, bad version,
    /// truncated chunk lists, or counts beyond the wire caps).
    GarbageHeader,
    /// More segments in one chunk list than [`MAX_CHUNK_SEGMENTS`].
    TooManySegments {
        /// Segments the client advertised.
        count: u32,
        /// The configured cap.
        cap: u32,
    },
    /// The header's chunk lists advertise more total bytes than
    /// [`MAX_CHUNK_BYTES`].
    ChunkBytesExceeded {
        /// Bytes the client advertised across all chunk lists.
        bytes: u64,
        /// The configured cap.
        cap: u64,
    },
    /// A zero-length segment (spins transfer loops, never legitimate).
    ZeroLengthSegment,
    /// Two segments of one write/reply chunk overlap, so server RDMA
    /// Writes would collide.
    OverlappingSegments,
    /// An `RDMA_MSGP` header whose padding arithmetic does not fit the
    /// message it arrived in, or whose data passes
    /// [`RpcRdmaConfig::msgp_max`].
    BadMsgp,
    /// The client's advertised credit request is absurd (beyond any
    /// window this server would ever grant).
    CreditOverflow {
        /// Credits the client asked for.
        requested: u32,
    },
    /// The client ignored its credit grant: more calls in flight than
    /// the window allows. The call is dropped, not dispatched — credit
    /// overcommit must cost the server nothing but this accounting.
    WindowExceeded {
        /// Calls in flight including the rejected one.
        in_flight: u32,
        /// The window the client was granted.
        window: u32,
    },
}

impl ProtocolViolation {
    /// Key under which this violation is counted in the metrics
    /// registry (`server.violations.<key>`).
    pub fn metric_key(self) -> &'static str {
        match self {
            ProtocolViolation::GarbageHeader => "garbage_header",
            ProtocolViolation::TooManySegments { .. } => "too_many_segments",
            ProtocolViolation::ChunkBytesExceeded { .. } => "chunk_bytes",
            ProtocolViolation::ZeroLengthSegment => "zero_len_segment",
            ProtocolViolation::OverlappingSegments => "overlap",
            ProtocolViolation::BadMsgp => "bad_msgp",
            ProtocolViolation::CreditOverflow { .. } => "credit_overflow",
            ProtocolViolation::WindowExceeded { .. } => "window_exceeded",
        }
    }
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolViolation::GarbageHeader => write!(f, "undecodable RPC/RDMA header"),
            ProtocolViolation::TooManySegments { count, cap } => {
                write!(f, "{count} segments in one chunk list (cap {cap})")
            }
            ProtocolViolation::ChunkBytesExceeded { bytes, cap } => {
                write!(f, "{bytes} advertised chunk bytes (cap {cap})")
            }
            ProtocolViolation::ZeroLengthSegment => write!(f, "zero-length segment"),
            ProtocolViolation::OverlappingSegments => write!(f, "overlapping segments"),
            ProtocolViolation::BadMsgp => write!(f, "malformed or oversized RDMA_MSGP"),
            ProtocolViolation::CreditOverflow { requested } => {
                write!(f, "absurd credit request ({requested})")
            }
            ProtocolViolation::WindowExceeded { in_flight, window } => {
                write!(f, "{in_flight} calls in flight (window {window})")
            }
        }
    }
}

/// Largest credit request the server will take seriously. Anything
/// above this is a flow-control probe, not a real window.
const MAX_CREDIT_REQUEST: u32 = 4096;

/// Decode the transport header at the front of `raw` and vet it with
/// [`sanitize_header`]. Bytes that are no header — an unknown version
/// or message type, a truncated list — are
/// [`ProtocolViolation::GarbageHeader`]. On success, returns the header
/// and the offset of the RPC message behind it.
pub fn sanitize_wire(
    raw: &[u8],
    cfg: &RpcRdmaConfig,
) -> Result<(RdmaHeader, usize), ProtocolViolation> {
    let mut dec = xdr::Decoder::new(raw);
    let hdr = RdmaHeader::decode(&mut dec).map_err(|_| ProtocolViolation::GarbageHeader)?;
    sanitize_header(&hdr, cfg)?;
    Ok((hdr, dec.position()))
}

/// Validate every client-advertised chunk list of `hdr` against the
/// server's configured caps. Allocation-free on the honest path (the
/// overlap check is pairwise over the usually-tiny segment arrays).
pub fn sanitize_header(hdr: &RdmaHeader, cfg: &RpcRdmaConfig) -> Result<(), ProtocolViolation> {
    if hdr.credits > MAX_CREDIT_REQUEST {
        return Err(ProtocolViolation::CreditOverflow {
            requested: hdr.credits,
        });
    }
    if hdr.msg_type == MsgType::Msgp {
        // Full placement arithmetic needs the message length; here we
        // reject the statically-absurd shapes (alignment of zero or
        // beyond the receive buffer).
        match hdr.msgp {
            Some((align, _)) if align > 0 && align as u64 <= cfg.recv_size() => {}
            _ => return Err(ProtocolViolation::BadMsgp),
        }
    }
    let cap = MAX_CHUNK_SEGMENTS;
    if hdr.read_chunks.len() as u32 > cap {
        return Err(ProtocolViolation::TooManySegments {
            count: hdr.read_chunks.len() as u32,
            cap,
        });
    }
    let mut total: u64 = 0;
    for c in &hdr.read_chunks {
        check_segment(&c.segment)?;
        total = total.saturating_add(c.segment.len);
    }
    for chunk in &hdr.write_chunks {
        total = total.saturating_add(check_chunk(chunk, cap)?);
    }
    if let Some(chunk) = &hdr.reply_chunk {
        total = total.saturating_add(check_chunk(chunk, cap)?);
    }
    if total > MAX_CHUNK_BYTES {
        return Err(ProtocolViolation::ChunkBytesExceeded {
            bytes: total,
            cap: MAX_CHUNK_BYTES,
        });
    }
    Ok(())
}

fn check_segment(seg: &Segment) -> Result<(), ProtocolViolation> {
    if seg.len == 0 {
        return Err(ProtocolViolation::ZeroLengthSegment);
    }
    Ok(())
}

/// Validate one segment array (a write chunk or the reply chunk):
/// count cap, no zero-length segments, no overlapping address ranges.
/// Returns the chunk's total advertised bytes.
fn check_chunk(segs: &[Segment], cap: u32) -> Result<u64, ProtocolViolation> {
    if segs.len() as u32 > cap {
        return Err(ProtocolViolation::TooManySegments {
            count: segs.len() as u32,
            cap,
        });
    }
    let mut total: u64 = 0;
    for (i, seg) in segs.iter().enumerate() {
        check_segment(seg)?;
        total = total.saturating_add(seg.len);
        let end = seg.addr.saturating_add(seg.len);
        for other in &segs[..i] {
            let other_end = other.addr.saturating_add(other.len);
            if seg.addr < other_end && other.addr < end {
                return Err(ProtocolViolation::OverlappingSegments);
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::ReadChunk;
    use ib_verbs::Rkey;

    fn seg(len: u64, addr: u64) -> Segment {
        Segment {
            rkey: Rkey(7),
            len,
            addr,
        }
    }

    fn cfg() -> RpcRdmaConfig {
        RpcRdmaConfig::default()
    }

    #[test]
    fn honest_headers_pass() {
        let mut h = RdmaHeader::new(1, 32, MsgType::Msg);
        h.read_chunks.push(ReadChunk {
            position: 128,
            segment: seg(128 * 1024, 0x1000),
        });
        h.write_chunks
            .push(vec![seg(64 * 1024, 0x10_0000), seg(64 * 1024, 0x11_0000)]);
        h.reply_chunk = Some(vec![seg(32 * 1024, 0x20_0000)]);
        assert!(sanitize_header(&h, &cfg()).is_ok());
    }

    #[test]
    fn segment_count_capped() {
        let c = cfg();
        let mut h = RdmaHeader::new(1, 1, MsgType::Msg);
        for i in 0..=MAX_CHUNK_SEGMENTS as u64 {
            h.read_chunks.push(ReadChunk {
                position: 0,
                segment: seg(8, i * 8),
            });
        }
        assert!(matches!(
            sanitize_header(&h, &c),
            Err(ProtocolViolation::TooManySegments { .. })
        ));
        let mut h = RdmaHeader::new(1, 1, MsgType::Msg);
        h.write_chunks.push(
            (0..=MAX_CHUNK_SEGMENTS as u64)
                .map(|i| seg(8, i * 8))
                .collect(),
        );
        assert!(matches!(
            sanitize_header(&h, &c),
            Err(ProtocolViolation::TooManySegments { .. })
        ));
    }

    #[test]
    fn total_bytes_capped_without_overflow() {
        let c = cfg();
        let mut h = RdmaHeader::new(1, 1, MsgType::Msg);
        // Three u32::MAX segments sum past 8 MiB (and past u32).
        h.reply_chunk = Some(vec![
            seg(u32::MAX as u64, 0),
            seg(u32::MAX as u64, 1 << 40),
            seg(u32::MAX as u64, 1 << 41),
        ]);
        assert!(matches!(
            sanitize_header(&h, &c),
            Err(ProtocolViolation::ChunkBytesExceeded { .. })
        ));
    }

    #[test]
    fn zero_length_segments_rejected() {
        let mut h = RdmaHeader::new(1, 1, MsgType::Msg);
        h.read_chunks.push(ReadChunk {
            position: 64,
            segment: seg(0, 0x1000),
        });
        assert_eq!(
            sanitize_header(&h, &cfg()),
            Err(ProtocolViolation::ZeroLengthSegment)
        );
    }

    #[test]
    fn overlapping_write_segments_rejected() {
        let mut h = RdmaHeader::new(1, 1, MsgType::Msg);
        h.write_chunks
            .push(vec![seg(4096, 0x1000), seg(4096, 0x1800)]);
        assert_eq!(
            sanitize_header(&h, &cfg()),
            Err(ProtocolViolation::OverlappingSegments)
        );
        // Adjacent (touching) segments are fine.
        let mut h = RdmaHeader::new(1, 1, MsgType::Msg);
        h.write_chunks
            .push(vec![seg(4096, 0x1000), seg(4096, 0x2000)]);
        assert!(sanitize_header(&h, &cfg()).is_ok());
    }

    #[test]
    fn absurd_credit_request_rejected() {
        let h = RdmaHeader::new(1, u32::MAX, MsgType::Msg);
        assert!(matches!(
            sanitize_header(&h, &cfg()),
            Err(ProtocolViolation::CreditOverflow { .. })
        ));
    }

    /// `h` on the wire with its message-type word replaced by `msg_type`.
    fn retyped(h: &RdmaHeader, msg_type: u32) -> Vec<u8> {
        let mut raw = h.to_bytes().to_vec();
        raw[12..16].copy_from_slice(&msg_type.to_be_bytes());
        raw
    }

    #[test]
    fn rfp_call_rejected_when_disabled() {
        // The reply-slot path is gone, so RFP is disabled for good: a
        // call typed 4 (the retired RFP-marked call) is byte soup, while
        // the same header typed as a plain Msg passes.
        let h = RdmaHeader::new(1, 1, MsgType::Msg);
        assert_eq!(
            sanitize_wire(&retyped(&h, 4), &cfg()),
            Err(ProtocolViolation::GarbageHeader)
        );
        let (got, at) = sanitize_wire(&h.to_bytes(), &cfg()).unwrap();
        assert_eq!((got, at), (h.clone(), h.to_bytes().len()));
    }

    #[test]
    fn client_sent_ring_ad_rejected() {
        // A forged reply-ring advertisement: type 5 followed by the
        // body the retired ad carried (segment, slot count, slot size).
        // It is refused at the type word, before any of the body is
        // read.
        let h = RdmaHeader::new(1, 1, MsgType::Msg);
        let mut raw = retyped(&h, 5);
        let mut ad = xdr::Encoder::new();
        seg(4096, 0x8000).encode(&mut ad);
        ad.put_u32(8).put_u32(512);
        raw.splice(16..16, ad.finish().iter().copied());
        assert_eq!(
            sanitize_wire(&raw, &cfg()),
            Err(ProtocolViolation::GarbageHeader)
        );
    }

    #[test]
    fn bad_msgp_alignment_rejected() {
        let mut h = RdmaHeader::new(1, 1, MsgType::Msgp);
        h.msgp = Some((0, 64));
        assert_eq!(sanitize_header(&h, &cfg()), Err(ProtocolViolation::BadMsgp));
        h.msgp = Some((1 << 20, 64));
        assert_eq!(sanitize_header(&h, &cfg()), Err(ProtocolViolation::BadMsgp));
        h.msgp = None;
        assert_eq!(sanitize_header(&h, &cfg()), Err(ProtocolViolation::BadMsgp));
    }
}
