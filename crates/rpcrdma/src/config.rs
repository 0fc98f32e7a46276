//! RPC/RDMA transport configuration.

use sim_core::SimDuration;

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
    pub inline_threshold: u64,
    /// Credit window: max outstanding calls per connection; also the
    /// number of pre-posted receive buffers on each side.
    pub credits: u32,
    /// Size of each pre-posted receive buffer (must hold the RPC/RDMA
    /// header plus an inline message).
    pub recv_buffer_size: u64,
    /// Serialized per-operation time in the server's RPC task queue
    /// (Figure 1's "server task queue": interrupt handler hand-off,
    /// transport walkers, dispatch). A property of the OS stack, not
    /// the HCA — large on 2007 OpenSolaris, small on Linux.
    pub server_op_serial: SimDuration,
    /// Per-call client CPU (syscall, VFS, RPC marshalling).
    pub per_op_client_cpu: SimDuration,
    /// Per-call server CPU (decode, NFS dispatch bookkeeping).
    pub per_op_server_cpu: SimDuration,
    /// Client zero-copy direct-I/O path for NFS READ (paper §3.1,
    /// "Zero Copy Path for Direct I/O"): the Read-Write design can
    /// RDMA-write straight into the user buffer. The Read-Read design
    /// always copies on the client.
    pub zero_copy_read: bool,
    /// Use `RDMA_MSGP` (padded inline) for bulk sends that fit the
    /// inline threshold: the data rides in the Send, aligned so the
    /// receiver places it without a pull-up copy — no chunk, no
    /// registration, no server-side RDMA Read for small writes.
    pub msgp_small_writes: bool,
    /// FAILURE INJECTION (Read-Read design): never send `RDMA_DONE`,
    /// modelling the paper's §4.1 malicious/malfunctioning client that
    /// pins server buffers indefinitely.
    pub suppress_done: bool,
    /// Server-side shared receive queue: one pool of `2 x credits`
    /// posted buffers serves *all* client connections instead of a full
    /// window per connection — the buffer-management direction of the
    /// paper's future work (and of later Linux NFS/RDMA servers).
    pub server_srq: bool,
    /// Base per-call reply timeout; attempt `n` waits
    /// `call_timeout << min(n, 6)` plus jitter before retransmitting.
    pub call_timeout: SimDuration,
    /// Retransmissions allowed per call before it fails with
    /// [`onc_rpc::TransportError::TimedOut`].
    pub max_retransmits: u32,
    /// ADVERSARIAL HARDENING: how long a Read-Read exposure may sit
    /// un-`RDMA_DONE`d before the server force-revokes the registration
    /// (the ledger records the revocation). `ZERO` disables the reaper
    /// (the paper's original, pin-forever behavior).
    pub exposure_ttl: SimDuration,
    /// Server zero-copy READ pipeline: gather the NFS READ reply
    /// straight from the page-cache slices the file system handed out
    /// (vectored RDMA Write), instead of flattening them into a staging
    /// buffer first. Registration work is identical either way — the
    /// scratch window is still acquired — only the host data movement
    /// disappears. The `Cache` registration strategy always stages (its
    /// pre-registered bounce buffers are the whole point).
    pub server_zero_copy: bool,
    /// Doorbell batch depth for server-side QPs: the server enqueues up
    /// to this many WQEs (RDMA Writes plus the reply Send) before
    /// ringing the doorbell once for the whole batch. `1` rings per
    /// WQE (the paper-era default). The server always schedules a
    /// backstop flush before awaiting a completion, so no depth can
    /// deadlock an op.
    pub server_doorbell_batch: usize,
    /// OVERLOAD CONTROL: route admitted calls through the per-tenant
    /// weighted fair dispatch queue ([`crate::qos`]) instead of
    /// spawning one handler task per call. Off by default — the direct
    /// path reproduces the historical dispatch order exactly.
    pub qos_enabled: bool,
    /// REMOTE FETCHING PARADIGM (RFP): deposit small replies into a
    /// per-connection registered reply-slot ring instead of posting a
    /// Send, and let the *client* pull them with RDMA Read — the
    /// server pays zero doorbells, zero Send completions and zero
    /// interrupts per small reply. Replies that don't fit a slot (or
    /// that carry chunks/exposures) fall back to the Send path
    /// transparently. Off by default: the Send/Send reply path
    /// reproduces the historical figures byte-for-byte.
    pub rfp_enabled: bool,
    /// First client poll of the reply slot fires this long after the
    /// call is posted (roughly the no-load server turnaround for a
    /// metadata op); each subsequent miss doubles the wait.
    pub rfp_poll_initial: SimDuration,
}

impl RpcRdmaConfig {
    /// Defaults for the paper's OpenSolaris/SDR testbed.
    pub fn solaris() -> Self {
        RpcRdmaConfig {
            design: Design::ReadWrite,
            inline_threshold: 1024,
            credits: 32,
            recv_buffer_size: 4096,
            server_op_serial: SimDuration::from_micros(180),
            per_op_client_cpu: SimDuration::from_micros(18),
            per_op_server_cpu: SimDuration::from_micros(12),
            zero_copy_read: true,
            msgp_small_writes: false,
            suppress_done: false,
            server_srq: false,
            call_timeout: SimDuration::from_millis(50),
            max_retransmits: 8,
            exposure_ttl: SimDuration::ZERO,
            server_zero_copy: true,
            server_doorbell_batch: 1,
            qos_enabled: false,
            rfp_enabled: false,
            rfp_poll_initial: SimDuration::from_micros(30),
        }
    }

    /// Defaults for the paper's Linux testbed.
    pub fn linux() -> Self {
        RpcRdmaConfig {
            server_op_serial: SimDuration::from_micros(22),
            per_op_client_cpu: SimDuration::from_micros(10),
            per_op_server_cpu: SimDuration::from_micros(7),
            ..Self::solaris()
        }
    }

    /// Switch the design.
    pub fn with_design(mut self, design: Design) -> Self {
        self.design = design;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles() {
        let s = RpcRdmaConfig::solaris();
        assert_eq!(s.design, Design::ReadWrite);
        let l = RpcRdmaConfig::linux();
        assert!(l.server_op_serial < s.server_op_serial);
        let rr = s.with_design(Design::ReadRead);
        assert_eq!(rr.design, Design::ReadRead);
        // Batching defaults preserve paper-era behavior: one doorbell
        // per WQE; zero-copy gather is on (it changes host copies, not
        // simulated timing).
        assert_eq!(s.server_doorbell_batch, 1);
        assert!(s.server_zero_copy);
        // RFP is opt-in: the Send/Send reply path stays the default so
        // every historical figure reproduces byte-for-byte.
        assert!(!s.rfp_enabled);
        assert_eq!(crate::rfp::RFP_SLOT_SIZE, 512);
        assert!(!l.rfp_enabled);
    }
}
