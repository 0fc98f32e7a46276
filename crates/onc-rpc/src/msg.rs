//! ONC RPC message formats (RFC 1831 subset: RPC v2, AUTH_NONE).

use bytes::Bytes;
use xdr::{Decoder, Encoder, Result as XdrResult, XdrCodec, XdrError};

/// RPC protocol version implemented.
pub const RPC_VERSION: u32 = 2;

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;

/// Encoded size of a [`CallHeader`]: what a call adds in front of its
/// arguments (AUTH_NONE credential and verifier).
pub const CALL_HEADER_LEN: usize = 40;

/// Header of an RPC call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id, matched in the reply.
    pub xid: u32,
    /// Program number (NFS = 100003).
    pub prog: u32,
    /// Program version (NFSv3 = 3).
    pub vers: u32,
    /// Procedure number.
    pub proc_num: u32,
}

impl XdrCodec for CallHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.xid)
            .put_u32(MSG_CALL)
            .put_u32(RPC_VERSION)
            .put_u32(self.prog)
            .put_u32(self.vers)
            .put_u32(self.proc_num)
            // cred: AUTH_NONE, zero-length body
            .put_u32(0)
            .put_u32(0)
            // verf: AUTH_NONE, zero-length body
            .put_u32(0)
            .put_u32(0);
    }

    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        let xid = dec.get_u32()?;
        let mtype = dec.get_u32()?;
        if mtype != MSG_CALL {
            return Err(XdrError::BadDiscriminant(mtype));
        }
        let rpcvers = dec.get_u32()?;
        if rpcvers != RPC_VERSION {
            return Err(XdrError::BadDiscriminant(rpcvers));
        }
        let prog = dec.get_u32()?;
        let vers = dec.get_u32()?;
        let proc_num = dec.get_u32()?;
        // cred + verf (flavor, opaque body) — accepted and ignored.
        for _ in 0..2 {
            let _flavor = dec.get_u32()?;
            let _body = dec.get_opaque()?;
        }
        Ok(CallHeader {
            xid,
            prog,
            vers,
            proc_num,
        })
    }
}

/// Outcome of an accepted call (subset of RFC 1831 accept_stat).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcceptStat {
    /// Call executed; results follow.
    Success,
    /// Program not registered at the server.
    ProgUnavail,
    /// Procedure number out of range.
    ProcUnavail,
    /// Arguments failed to decode.
    GarbageArgs,
    /// Server could not service the call right now (overload shed).
    /// RFC 5531's SYSTEM_ERR: transient, retryable — transports back
    /// off and retransmit rather than surfacing it to the caller.
    SystemErr,
}

impl AcceptStat {
    fn to_u32(self) -> u32 {
        match self {
            AcceptStat::Success => 0,
            AcceptStat::ProgUnavail => 1,
            AcceptStat::ProcUnavail => 3,
            AcceptStat::GarbageArgs => 4,
            AcceptStat::SystemErr => 5,
        }
    }

    fn from_u32(v: u32) -> XdrResult<Self> {
        Ok(match v {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            5 => AcceptStat::SystemErr,
            d => return Err(XdrError::BadDiscriminant(d)),
        })
    }
}

/// Encoded size of a [`ReplyHeader`]: what an accepted reply adds in
/// front of the program's results. Callers bounding a reply's size for a
/// transport (RPC/RDMA reply chunks) start from it.
pub const REPLY_HEADER_LEN: usize = 24;

/// Header of an (accepted) RPC reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Transaction id echoing the call.
    pub xid: u32,
    /// Accepted-call status.
    pub stat: AcceptStat,
}

impl XdrCodec for ReplyHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.xid)
            .put_u32(MSG_REPLY)
            .put_u32(0) // reply_stat: MSG_ACCEPTED
            // verf: AUTH_NONE
            .put_u32(0)
            .put_u32(0)
            .put_u32(self.stat.to_u32());
    }

    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        let xid = dec.get_u32()?;
        let mtype = dec.get_u32()?;
        if mtype != MSG_REPLY {
            return Err(XdrError::BadDiscriminant(mtype));
        }
        let reply_stat = dec.get_u32()?;
        if reply_stat != 0 {
            return Err(XdrError::BadDiscriminant(reply_stat));
        }
        let _verf_flavor = dec.get_u32()?;
        let _verf_body = dec.get_opaque()?;
        let stat = AcceptStat::from_u32(dec.get_u32()?)?;
        Ok(ReplyHeader { xid, stat })
    }
}

/// Encode a complete call message: header + argument body.
pub fn encode_call(hdr: &CallHeader, args: &Bytes) -> Bytes {
    let mut enc = Encoder::with_capacity(CALL_HEADER_LEN + args.len());
    hdr.encode(&mut enc);
    enc.put_opaque_fixed(args);
    enc.finish()
}

/// Encode a complete reply message: header + result body.
pub fn encode_reply(hdr: &ReplyHeader, results: &Bytes) -> Bytes {
    let mut enc = Encoder::with_capacity(REPLY_HEADER_LEN + results.len());
    hdr.encode(&mut enc);
    enc.put_opaque_fixed(results);
    enc.finish()
}

/// Split a call message into header and argument body.
pub fn decode_call(msg: Bytes) -> XdrResult<(CallHeader, Bytes)> {
    let mut dec = Decoder::new(&msg);
    let hdr = CallHeader::decode(&mut dec)?;
    let at = dec.position();
    let body = msg.slice(at..);
    Ok((hdr, body))
}

/// Split a reply message into header and result body.
pub fn decode_reply(msg: Bytes) -> XdrResult<(ReplyHeader, Bytes)> {
    let mut dec = Decoder::new(&msg);
    let hdr = ReplyHeader::decode(&mut dec)?;
    let at = dec.position();
    let body = msg.slice(at..);
    Ok((hdr, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_roundtrip() {
        let hdr = CallHeader {
            xid: 0x1234,
            prog: 100003,
            vers: 3,
            proc_num: 6,
        };
        let args = Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let msg = encode_call(&hdr, &args);
        let (h2, body) = decode_call(msg).unwrap();
        assert_eq!(h2, hdr);
        assert_eq!(&body[..], &args[..]);
    }

    #[test]
    fn reply_roundtrip_all_stats() {
        for stat in [
            AcceptStat::Success,
            AcceptStat::ProgUnavail,
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
        ] {
            let hdr = ReplyHeader { xid: 9, stat };
            let res = Bytes::from_static(&[0xAA, 0xBB, 0xCC, 0xDD]);
            let msg = encode_reply(&hdr, &res);
            assert_eq!(msg.len(), REPLY_HEADER_LEN + res.len());
            let (h2, body) = decode_reply(msg).unwrap();
            assert_eq!(h2, hdr);
            assert_eq!(&body[..], &res[..]);
        }
    }

    #[test]
    fn reply_is_not_a_call() {
        let hdr = ReplyHeader {
            xid: 9,
            stat: AcceptStat::Success,
        };
        let msg = encode_reply(&hdr, &Bytes::new());
        assert!(decode_call(msg).is_err());
    }

    #[test]
    fn call_is_not_a_reply() {
        let hdr = CallHeader {
            xid: 9,
            prog: 1,
            vers: 1,
            proc_num: 0,
        };
        let msg = encode_call(&hdr, &Bytes::new());
        assert!(decode_reply(msg).is_err());
    }

    #[test]
    fn wrong_rpc_version_rejected() {
        let hdr = CallHeader {
            xid: 1,
            prog: 1,
            vers: 1,
            proc_num: 0,
        };
        let mut raw = encode_call(&hdr, &Bytes::new()).to_vec();
        raw[8..12].copy_from_slice(&9u32.to_be_bytes()); // rpcvers = 9
        assert!(decode_call(Bytes::from(raw)).is_err());
    }
}
