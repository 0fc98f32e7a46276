//! RPC/RDMA transport configuration: only what two callers set
//! differently, the workspace's rule for every configuration struct
//! (DESIGN.md §3, "A setting needs a second value"). Sizes that follow
//! from another field are derived
//! ([`RpcRdmaConfig::recv_size`]), per-op stack costs belong to the
//! modelled host ([`sim_core::CpuCosts`]), everything no caller ever
//! varied is a constant in the module that owns the decision, and what
//! the transport can learn from its own traffic it learns (reply
//! timers, the Read-Read exposure deadline: [`crate::server`]). No
//! field chooses between two implementations of one job.

// A second on/off switch needs a better reason than the first: each
// one doubles the configurations the harnesses have to compose
// (`clippy.toml` sets the bound to one).
#![deny(clippy::struct_excessive_bools)]

use ib_verbs::PAGE_SIZE;
use sim_core::SimDuration;

use crate::client::MSGP_ALIGN;

/// Which bulk-transfer design the transport runs (paper §4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Design {
    /// Callaghan's original: server exposes buffers, client pulls NFS
    /// READ / long-reply data with RDMA Read and sends `RDMA_DONE`.
    ReadRead,
    /// The paper's proposal: client advertises Write/Reply chunks,
    /// server pushes with RDMA Write; no server-side exposure, no
    /// `RDMA_DONE`.
    ReadWrite,
}

/// Transport parameters.
#[derive(Clone, Copy, Debug)]
pub struct RpcRdmaConfig {
    /// Bulk-transfer design.
    pub design: Design,
    /// Messages up to this size travel inline in the Send (paper §3.1).
    /// A WRITE whose RPC head fits rides inline too when its payload
    /// fits [`RpcRdmaConfig::msgp_max`], as `RDMA_MSGP` (the paper's
    /// Figure 2 message type 2): aligned so the receiver places it
    /// without a pull-up copy — no chunk, no registration, no
    /// server-side RDMA Read.
    pub inline_threshold: u64,
    /// Credit window: max outstanding calls per connection; also the
    /// number of pre-posted receive buffers on each side.
    pub credits: u32,
    /// Client zero-copy direct-I/O path for NFS READ (paper §3.1,
    /// "Zero Copy Path for Direct I/O"): the Read-Write design can
    /// RDMA-write straight into the user buffer. The Read-Read design
    /// always copies on the client.
    pub zero_copy_read: bool,
    /// Floor of the per-call reply timeout, and the whole of it until
    /// the connection has timed a reply: attempt `n` waits
    /// `max(call_timeout, srtt + 4·rttvar) << min(n, 6)` plus jitter
    /// before retransmitting, srtt and rttvar being the connection's
    /// RFC 6298 estimate of its reply times.
    pub call_timeout: SimDuration,
    /// Retransmissions allowed per call before it fails with
    /// [`onc_rpc::TransportError::TimedOut`].
    pub max_retransmits: u32,
    /// Service concurrency: calls in service at once, all connections
    /// (`threads` in `nfs.conf`). A call finding every slot busy waits in
    /// the fair dispatch queue ([`crate::qos`]), which sheds what it
    /// cannot hold. `None`, the default, is unbounded: no call waits.
    pub threads: Option<std::num::NonZeroU32>,
}

/// What a receive buffer holds beyond the inline message and the
/// padded `RDMA_MSGP` data behind it: the RPC/RDMA header with the
/// chunk lists of the largest honest call.
const RECV_HEADER_ROOM: u64 = 2048;

impl Default for RpcRdmaConfig {
    /// The paper's transport: Read-Write, 1 KiB inline, 32 credits,
    /// unbounded service concurrency.
    fn default() -> Self {
        RpcRdmaConfig {
            design: Design::ReadWrite,
            inline_threshold: 1024,
            credits: 32,
            zero_copy_read: true,
            call_timeout: SimDuration::from_millis(50),
            max_retransmits: 8,
            threads: None,
        }
    }
}

impl RpcRdmaConfig {
    /// Switch the design.
    pub fn with_design(mut self, design: Design) -> Self {
        self.design = design;
        self
    }

    /// Most WRITE data one `RDMA_MSGP` carries: the inline threshold,
    /// but never less than a page — a page-sized write fits the
    /// message, and one that fits should not buy a registration and a
    /// second round trip. The server refuses MSGP data past it.
    pub fn msgp_max(&self) -> u64 {
        self.inline_threshold.max(PAGE_SIZE)
    }

    /// Size of each pre-posted receive buffer: the largest message an
    /// honest peer sends under this threshold — header, RPC head up to
    /// the threshold, and (`RDMA_MSGP`) padding to the alignment and
    /// data up to [`RpcRdmaConfig::msgp_max`] — rounded up to a page.
    pub fn recv_size(&self) -> u64 {
        let msgp = MSGP_ALIGN as u64 + self.msgp_max();
        (RECV_HEADER_ROOM + self.inline_threshold + msgp).next_multiple_of(PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{MsgType, RdmaHeader, ReadChunk, Segment};
    use crate::sanitize::{sanitize_header, ProtocolViolation};
    use xdr::XdrCodec;

    const ALIGN: u64 = crate::client::MSGP_ALIGN as u64;

    /// What the default says, and what it derives.
    #[test]
    fn profiles() {
        let d = RpcRdmaConfig::default();
        assert_eq!(d.design, Design::ReadWrite);
        assert_eq!(d.with_design(Design::ReadRead).design, Design::ReadRead);
        // A page of MSGP data rides behind a 1 KiB head: two pages.
        assert_eq!(d.recv_size(), 8192);

        // The largest honest headers: a 1 MiB all-physical WRITE with a
        // long reply provisioned (~16 runs on the 64 KiB-mean layout;
        // twice that here), and an MSGP call.
        let seg = |i: u64| Segment {
            rkey: ib_verbs::Rkey(7),
            len: 32 << 10,
            addr: i << 20,
        };
        let mut chunked = RdmaHeader::new(1, d.credits, MsgType::Msg);
        chunked.read_chunks = (0..32)
            .map(|i| ReadChunk {
                position: 128,
                segment: seg(i),
            })
            .collect();
        chunked.write_chunks = vec![(0..32).map(seg).collect()];
        chunked.reply_chunk = Some((0..9).map(seg).collect());
        let msgp = |align: u64| {
            let mut h = RdmaHeader::new(1, d.credits, MsgType::Msgp);
            h.msgp = Some((align as u32, 128));
            h
        };
        let wire_len = |h: &RdmaHeader| h.to_bytes().len() as u64;

        // The MSGP bound: a page, or the threshold once it is larger.
        let bounds = [
            (256, 4096),
            (512, 4096),
            (1024, 4096),
            (4096, 4096),
            (16 << 10, 16 << 10),
        ];
        for (threshold, bound) in bounds {
            let cfg = RpcRdmaConfig {
                inline_threshold: threshold,
                ..d
            };
            assert_eq!(cfg.msgp_max(), bound, "threshold {threshold}");
            let size = cfg.recv_size();
            assert_eq!(size % PAGE_SIZE, 0);
            assert!(wire_len(&chunked) + threshold <= size);
            // Head, padding up to the alignment, data.
            assert!(wire_len(&msgp(ALIGN)) + threshold + ALIGN + bound <= size);
            // The sanitizer's MSGP alignment bound is the same value.
            assert_eq!(sanitize_header(&msgp(size), &cfg), Ok(()));
            let over = sanitize_header(&msgp(size + 1), &cfg);
            assert_eq!(over, Err(ProtocolViolation::BadMsgp));
        }
    }
}
