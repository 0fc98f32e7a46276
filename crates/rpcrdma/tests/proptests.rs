//! Property tests for the RPC/RDMA header codec: arbitrary chunk-list
//! shapes round-trip exactly, and no byte soup panics the decoder.

use ib_verbs::Rkey;
use proptest::prelude::*;
use rpcrdma::{MsgType, RdmaHeader, ReadChunk, Segment};
use xdr::XdrCodec;

fn arb_segment() -> impl Strategy<Value = Segment> {
    (any::<u32>(), 0u64..=u32::MAX as u64, any::<u64>()).prop_map(|(rkey, len, addr)| Segment {
        rkey: Rkey(rkey),
        len,
        addr,
    })
}

fn arb_msg_type() -> impl Strategy<Value = MsgType> {
    prop_oneof![
        Just(MsgType::Msg),
        Just(MsgType::Nomsg),
        Just(MsgType::Msgp),
        Just(MsgType::Done),
    ]
}

fn arb_header() -> impl Strategy<Value = RdmaHeader> {
    (
        any::<u32>(),
        any::<u32>(),
        arb_msg_type(),
        proptest::collection::vec((any::<u32>(), arb_segment()), 0..8),
        proptest::collection::vec(proptest::collection::vec(arb_segment(), 1..6), 0..4),
        proptest::option::of(proptest::collection::vec(arb_segment(), 1..6)),
    )
        .prop_map(|(xid, credits, msg_type, reads, writes, reply)| {
            let mut hdr = RdmaHeader::new(xid, credits, msg_type);
            hdr.msgp = (msg_type == MsgType::Msgp).then_some((64, 1024));
            hdr.read_chunks = reads
                .into_iter()
                .map(|(position, segment)| ReadChunk { position, segment })
                .collect();
            hdr.write_chunks = writes;
            hdr.reply_chunk = reply;
            hdr
        })
}

proptest! {
    #[test]
    fn header_roundtrips(hdr in arb_header()) {
        let encoded = hdr.to_bytes();
        let decoded = RdmaHeader::from_bytes(&encoded).unwrap();
        prop_assert_eq!(decoded, hdr);
    }

    #[test]
    fn header_byte_accounting_consistent(hdr in arb_header()) {
        let total: u64 = hdr.read_chunks.iter().map(|c| c.segment.len).sum();
        prop_assert_eq!(hdr.read_chunk_bytes(), total);
        for (i, chunk) in hdr.write_chunks.iter().enumerate() {
            let t: u64 = chunk.iter().map(|s| s.len).sum();
            prop_assert_eq!(hdr.write_chunk_bytes(i), t);
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = RdmaHeader::from_bytes(&bytes);
    }

    /// Truncating a valid header anywhere yields an error, never a
    /// silently-different header.
    #[test]
    fn truncation_detected(hdr in arb_header(), frac in 0.0f64..1.0) {
        let full = hdr.to_bytes();
        if full.len() > 1 {
            let cut = 1 + ((full.len() - 2) as f64 * frac) as usize;
            prop_assert!(RdmaHeader::from_bytes(&full[..cut]).is_err());
        }
    }
}
