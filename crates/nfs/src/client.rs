//! The NFSv3 client, usable over either transport.
//!
//! Over RPC/RDMA, READ data lands via the transport's write-chunk path
//! (zero-copy direct I/O when a user buffer is supplied and the
//! Read-Write design is active) and WRITE data leaves via read chunks.
//! Over TCP, bulk data rides the stream behind the XDR head — same
//! wire bytes and CPU costs as inlining it, but the simulation keeps
//! synthetic payloads compact. This is the baseline the paper
//! measures against.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use ib_verbs::Buffer;
use onc_rpc::{RpcError, StreamRpcClient};
use rpcrdma::{BulkParams, RdmaRpcClient};
use sim_core::{Counter, Payload, Sim};
use xdr::{Encoder, XdrCodec};

use crate::proto::*;

/// Re-drive attempts before a COMMIT verifier mismatch becomes an
/// error (each attempt replays every pending write and re-commits).
const MAX_REDRIVE_ROUNDS: u32 = 8;

/// Times a directory listing starts over because the directory changed
/// between two of its pages (`BadCookie`) before the change is reported
/// to the caller: a directory that never holds still must not hold the
/// client in a loop.
const MAX_READDIR_RESTARTS: u32 = 4;

/// Client-visible errors.
#[derive(Debug)]
pub enum NfsError {
    /// Transport/RPC failure.
    Rpc(RpcError),
    /// The server returned an NFS error status.
    Status(NfsStat),
    /// Reply failed to decode.
    Protocol,
}

impl From<RpcError> for NfsError {
    fn from(e: RpcError) -> NfsError {
        NfsError::Rpc(e)
    }
}

impl From<xdr::XdrError> for NfsError {
    fn from(_: xdr::XdrError) -> NfsError {
        NfsError::Protocol
    }
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::Rpc(e) => write!(f, "rpc: {e}"),
            NfsError::Status(s) => write!(f, "nfs status: {s:?}"),
            NfsError::Protocol => write!(f, "protocol decode error"),
        }
    }
}

impl std::error::Error for NfsError {}

/// Result alias.
pub type NfsResult<T> = Result<T, NfsError>;

/// The RPC connection under a mount: NFS and MOUNT calls both go
/// through it.
pub(crate) enum Transport {
    Rdma(RdmaRpcClient),
    Tcp(Rc<StreamRpcClient>),
}

impl Transport {
    /// One call of `(prog, vers, proc_num)`; the reply body and, over
    /// RDMA, the bulk `bulk` asked for. A TCP call sends and returns no
    /// bulk (READ and WRITE move theirs themselves).
    pub(crate) async fn call_as(
        &self,
        prog: u32,
        vers: u32,
        proc_num: u32,
        args: Bytes,
        bulk: BulkParams,
    ) -> Result<(Bytes, Option<Payload>), RpcError> {
        match self {
            Transport::Rdma(c) => {
                let reply = c.call_as(prog, vers, proc_num, args, bulk).await?;
                Ok((reply.body, reply.bulk))
            }
            Transport::Tcp(c) => {
                let (body, _) = c.call_as(prog, vers, proc_num, args, None).await?;
                Ok((body, None))
            }
        }
    }
}

/// One UNSTABLE write awaiting COMMIT, kept so the client can re-drive
/// it if the server's write verifier changes (RFC 1813 §3.3.7: a new
/// verifier means the server rebooted and uncommitted data may be
/// gone).
struct PendingWrite {
    offset: u64,
    buf: Buffer,
    buf_off: u64,
    count: u32,
    /// Snapshot of the written bytes, taken when the WRITE was acked —
    /// the sim's stand-in for the client page cache retaining dirty
    /// pages until COMMIT. The application may scribble on `buf` after
    /// the ack; a re-drive restores this snapshot into the registered
    /// region before resending.
    data: Payload,
}

/// Uncommitted state for one file.
struct PendingFile {
    /// Verifier in force when the first pending write was acked.
    verf: u64,
    writes: Vec<PendingWrite>,
}

/// An NFSv3 client handle (one mount).
pub struct NfsClient {
    transport: Transport,
    /// UNSTABLE writes not yet covered by a matching COMMIT, per file.
    pending: RefCell<HashMap<u64, PendingFile>>,
    /// `nfs.client.redriven_writes` (every mount of a simulation):
    /// UNSTABLE writes re-sent after a COMMIT verifier mismatch.
    redriven_writes: Rc<Counter>,
    /// `nfs.client.verf_mismatches`: COMMIT rounds that observed a
    /// verifier mismatch.
    verf_mismatches: Rc<Counter>,
}

impl NfsClient {
    /// Mount over RPC/RDMA.
    pub fn over_rdma(sim: &Sim, client: RdmaRpcClient) -> NfsClient {
        NfsClient::over(sim, Transport::Rdma(client))
    }

    /// Mount over TCP.
    pub fn over_tcp(sim: &Sim, client: Rc<StreamRpcClient>) -> NfsClient {
        NfsClient::over(sim, Transport::Tcp(client))
    }

    fn over(sim: &Sim, transport: Transport) -> NfsClient {
        let registry = sim.metrics();
        NfsClient {
            transport,
            pending: RefCell::new(HashMap::new()),
            redriven_writes: registry.counter("nfs.client.redriven_writes"),
            verf_mismatches: registry.counter("nfs.client.verf_mismatches"),
        }
    }

    /// The underlying RPC/RDMA client, when mounted over RDMA (fault
    /// injection and transport statistics).
    pub fn rdma(&self) -> Option<&RdmaRpcClient> {
        match &self.transport {
            Transport::Rdma(c) => Some(c),
            Transport::Tcp(_) => None,
        }
    }

    async fn call(
        &self,
        proc_id: NfsProc,
        args: Bytes,
        bulk: BulkParams,
    ) -> NfsResult<(Bytes, Option<Payload>)> {
        let proc_num = proc_id as u32;
        let reply = self
            .transport
            .call_as(NFS_PROGRAM, NFS_VERSION, proc_num, args, bulk);
        Ok(reply.await?)
    }

    /// Simple status+attr result decoder.
    async fn attr_call(&self, proc_id: NfsProc, args: Bytes) -> NfsResult<Fattr> {
        let (body, _) = self.call(proc_id, args, BulkParams::default()).await?;
        match decode_res(body, Fattr::decode)? {
            Ok(a) => Ok(a),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// NULL ping.
    pub async fn null(&self) -> NfsResult<()> {
        let (_, _) = self
            .call(NfsProc::Null, Bytes::new(), BulkParams::default())
            .await?;
        Ok(())
    }

    /// GETATTR.
    pub async fn getattr(&self, fh: FileHandle) -> NfsResult<Fattr> {
        self.attr_call(NfsProc::Getattr, fh.to_bytes()).await
    }

    /// SETATTR (size only).
    pub async fn setattr_size(&self, fh: FileHandle, size: u64) -> NfsResult<Fattr> {
        let mut enc = Encoder::new();
        fh.encode(&mut enc);
        enc.put_u64(size);
        self.attr_call(NfsProc::Setattr, enc.finish()).await
    }

    /// LOOKUP `name` in `dir`.
    pub async fn lookup(&self, dir: FileHandle, name: &str) -> NfsResult<Fattr> {
        let args = DirOpArgs {
            dir,
            name: name.into(),
        };
        self.attr_call(NfsProc::Lookup, args.to_bytes()).await
    }

    /// CREATE a regular file.
    pub async fn create(&self, dir: FileHandle, name: &str) -> NfsResult<Fattr> {
        let args = DirOpArgs {
            dir,
            name: name.into(),
        };
        self.attr_call(NfsProc::Create, args.to_bytes()).await
    }

    /// MKDIR.
    pub async fn mkdir(&self, dir: FileHandle, name: &str) -> NfsResult<Fattr> {
        let args = DirOpArgs {
            dir,
            name: name.into(),
        };
        self.attr_call(NfsProc::Mkdir, args.to_bytes()).await
    }

    /// SYMLINK `name -> target`.
    pub async fn symlink(&self, dir: FileHandle, name: &str, target: &str) -> NfsResult<Fattr> {
        let mut enc = Encoder::new();
        dir.encode(&mut enc);
        enc.put_string(name).put_string(target);
        self.attr_call(NfsProc::Symlink, enc.finish()).await
    }

    /// ACCESS: check permissions; returns the granted bit mask (see
    /// [`crate::proto::access`]).
    pub async fn access(&self, fh: FileHandle, requested: u32) -> NfsResult<u32> {
        let mut enc = Encoder::new();
        fh.encode(&mut enc);
        enc.put_u32(requested);
        let (body, _) = self
            .call(NfsProc::Access, enc.finish(), BulkParams::default())
            .await?;
        match decode_res(body, |d| {
            let _attr = Fattr::decode(d)?;
            d.get_u32()
        })? {
            Ok(granted) => Ok(granted),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// READDIRPLUS: every entry with post-op attributes and handle.
    pub async fn readdirplus(&self, dir: FileHandle) -> NfsResult<Vec<PlusEntry>> {
        self.list_dir(dir, true, decode_plus_entry, |(e, _, _)| e.cookie)
            .await
    }

    /// List `dir` whole, [`NFS_DTSIZE`] bytes of reply at a time, each
    /// call resuming at the last cookie of the one before (over RDMA
    /// each is a long-reply call provisioned for that much). If the
    /// directory changes between two pages the server refuses the stale
    /// cookie and the listing starts over, [`MAX_READDIR_RESTARTS`]
    /// times at most.
    async fn list_dir<E>(
        &self,
        dir: FileHandle,
        plus: bool,
        entry: impl Fn(&mut xdr::Decoder) -> xdr::Result<E>,
        cookie_of: impl Fn(&E) -> u64,
    ) -> NfsResult<Vec<E>> {
        let proc_id = if plus {
            NfsProc::ReaddirPlus
        } else {
            NfsProc::Readdir
        };
        let mut args = ReaddirArgs {
            dir,
            cookie: 0,
            cookieverf: 0,
            dircount: plus.then_some(NFS_DTSIZE),
            count: NFS_DTSIZE,
        };
        let (mut out, mut restarts) = (Vec::new(), 0);
        loop {
            let mut enc = Encoder::new();
            args.encode(&mut enc);
            let bulk = BulkParams {
                reply_max: Some(readdir_reply_max(args.count)),
                ..Default::default()
            };
            let (body, _) = self.call(proc_id, enc.finish(), bulk).await?;
            match decode_res(body, |d| DirList::decode(d, &entry))? {
                Ok(page) => {
                    out.extend(page.entries);
                    if page.eof {
                        return Ok(out);
                    }
                    // A page that is not the last has an entry (the
                    // server answers TooSmall otherwise).
                    args.cookie = out.last().map(&cookie_of).ok_or(NfsError::Protocol)?;
                    args.cookieverf = page.cookieverf;
                }
                Err(NfsStat::BadCookie) if restarts < MAX_READDIR_RESTARTS => {
                    restarts += 1;
                    out.clear();
                    (args.cookie, args.cookieverf) = (0, 0);
                }
                Err(s) => return Err(NfsError::Status(s)),
            }
        }
    }

    /// READLINK (a long-reply procedure over RDMA when the inline
    /// threshold is below [`READLINK_REPLY_MAX`]).
    pub async fn readlink(&self, fh: FileHandle) -> NfsResult<String> {
        let bulk = BulkParams {
            reply_max: Some(READLINK_REPLY_MAX),
            ..Default::default()
        };
        let (body, _) = self.call(NfsProc::Readlink, fh.to_bytes(), bulk).await?;
        match decode_res(body, |d| d.get_string())? {
            Ok(s) => Ok(s),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// REMOVE a file/symlink.
    pub async fn remove(&self, dir: FileHandle, name: &str) -> NfsResult<()> {
        let args = DirOpArgs {
            dir,
            name: name.into(),
        };
        let (body, _) = self
            .call(NfsProc::Remove, args.to_bytes(), BulkParams::default())
            .await?;
        match decode_res(body, |_| Ok(()))? {
            Ok(()) => Ok(()),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// RMDIR.
    pub async fn rmdir(&self, dir: FileHandle, name: &str) -> NfsResult<()> {
        let args = DirOpArgs {
            dir,
            name: name.into(),
        };
        let (body, _) = self
            .call(NfsProc::Rmdir, args.to_bytes(), BulkParams::default())
            .await?;
        match decode_res(body, |_| Ok(()))? {
            Ok(()) => Ok(()),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// RENAME.
    pub async fn rename(
        &self,
        fdir: FileHandle,
        fname: &str,
        tdir: FileHandle,
        tname: &str,
    ) -> NfsResult<()> {
        let mut enc = Encoder::new();
        fdir.encode(&mut enc);
        enc.put_string(fname);
        tdir.encode(&mut enc);
        enc.put_string(tname);
        let (body, _) = self
            .call(NfsProc::Rename, enc.finish(), BulkParams::default())
            .await?;
        match decode_res(body, |_| Ok(()))? {
            Ok(()) => Ok(()),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// READDIR: every entry of `dir`.
    pub async fn readdir(&self, dir: FileHandle) -> NfsResult<Vec<WireDirEntry>> {
        self.list_dir(dir, false, WireDirEntry::decode, |e| e.cookie)
            .await
    }

    /// FSSTAT: (bytes_used, inodes).
    pub async fn fsstat(&self, root: FileHandle) -> NfsResult<(u64, u64)> {
        let (body, _) = self
            .call(NfsProc::Fsstat, root.to_bytes(), BulkParams::default())
            .await?;
        match decode_res(body, |d| Ok((d.get_u64()?, d.get_u64()?)))? {
            Ok(v) => Ok(v),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// One COMMIT on the wire; returns the server's write verifier.
    async fn commit_once(&self, fh: FileHandle) -> NfsResult<u64> {
        let (body, _) = self
            .call(NfsProc::Commit, fh.to_bytes(), BulkParams::default())
            .await?;
        match decode_res(body, CommitRes::decode)? {
            Ok(r) => Ok(r.verf),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// COMMIT unstable writes to stable storage.
    ///
    /// If the reply's write verifier differs from the one seen when the
    /// pending UNSTABLE writes were acked, the server rebooted and may
    /// have lost them: re-drive every pending write for this file and
    /// COMMIT again, until the verifiers agree (bounded by
    /// `MAX_REDRIVE_ROUNDS`).
    pub async fn commit(&self, fh: FileHandle) -> NfsResult<()> {
        let mut verf = self.commit_once(fh).await?;
        for _ in 0..MAX_REDRIVE_ROUNDS {
            let expected = match self.pending.borrow().get(&fh.0) {
                Some(p) => p.verf,
                None => return Ok(()),
            };
            if verf == expected {
                self.pending.borrow_mut().remove(&fh.0);
                return Ok(());
            }
            self.verf_mismatches.inc();
            // Replay the whole pending burst under the new boot
            // instance, then re-commit and re-check.
            let replay: Vec<(u64, Buffer, u64, u32, Payload)> = {
                let pending = self.pending.borrow();
                let p = &pending[&fh.0];
                p.writes
                    .iter()
                    .map(|w| (w.offset, w.buf.clone(), w.buf_off, w.count, w.data.clone()))
                    .collect()
            };
            let mut last_verf = verf;
            for (offset, buf, buf_off, count, data) in replay {
                // Restore the retained dirty bytes into the registered
                // region: the application may have reused the buffer
                // since the original ack.
                buf.write(buf_off, data);
                let r = self
                    .write_once(fh, offset, &buf, buf_off, count, false)
                    .await?;
                self.redriven_writes.inc();
                last_verf = r.verf;
            }
            if let Some(p) = self.pending.borrow_mut().get_mut(&fh.0) {
                p.verf = last_verf;
            }
            verf = self.commit_once(fh).await?;
        }
        Err(NfsError::Protocol)
    }

    /// READ `count` bytes at `offset`. Supplying `user` enables the
    /// zero-copy direct-I/O path over RDMA (data lands in that buffer).
    /// Returns the data and the EOF flag.
    pub async fn read(
        &self,
        fh: FileHandle,
        offset: u64,
        count: u32,
        user: Option<(&Buffer, u64)>,
    ) -> NfsResult<(Payload, bool)> {
        let args = ReadArgs {
            file: fh,
            offset,
            count,
        };
        match &self.transport {
            Transport::Rdma(c) => {
                let bulk = BulkParams {
                    recv_max: Some(count as u64),
                    recv_user: user.map(|(b, off)| (b.clone(), off)),
                    ..Default::default()
                };
                let reply = c.call(NfsProc::Read as u32, args.to_bytes(), bulk).await?;
                let head = match decode_res(reply.body, ReadResHead::decode)? {
                    Ok(h) => h,
                    Err(s) => return Err(NfsError::Status(s)),
                };
                let data = reply.bulk.unwrap_or_else(Payload::empty);
                if data.len() != head.count as u64 {
                    return Err(NfsError::Protocol);
                }
                Ok((data, head.eof))
            }
            Transport::Tcp(c) => {
                let (body, bulk) = c
                    .call_bulk(NfsProc::Read as u32, args.to_bytes(), None)
                    .await?;
                let head = match decode_res(body, ReadResHead::decode)? {
                    Ok(h) => h,
                    Err(s) => return Err(NfsError::Status(s)),
                };
                if bulk.len() != head.count as u64 {
                    return Err(NfsError::Protocol);
                }
                if let Some((buf, off)) = user {
                    buf.write(off, bulk.clone());
                }
                Ok((bulk, head.eof))
            }
        }
    }

    /// One WRITE on the wire, no pending-write bookkeeping.
    async fn write_once(
        &self,
        fh: FileHandle,
        offset: u64,
        buf: &Buffer,
        buf_off: u64,
        count: u32,
        stable: bool,
    ) -> NfsResult<WriteRes> {
        let head = WriteArgsHead {
            file: fh,
            offset,
            count,
            stable,
        };
        let res = match &self.transport {
            Transport::Rdma(c) => {
                let bulk = BulkParams {
                    send: Some((buf.clone(), buf_off, count as u64)),
                    ..Default::default()
                };
                let reply = c.call(NfsProc::Write as u32, head.to_bytes(), bulk).await?;
                decode_res(reply.body, WriteRes::decode)?
            }
            Transport::Tcp(c) => {
                let data = buf.read(buf_off, count as u64);
                let (body, _) = c
                    .call_bulk(NfsProc::Write as u32, head.to_bytes(), Some(data))
                    .await?;
                decode_res(body, WriteRes::decode)?
            }
        };
        match res {
            Ok(r) => Ok(r),
            Err(s) => Err(NfsError::Status(s)),
        }
    }

    /// WRITE `count` bytes from `buf[buf_off..]` at `offset`.
    /// `stable = true` requests FILE_SYNC semantics; `stable = false`
    /// is an UNSTABLE write — it is acked once the server's cache is
    /// dirty, and the client records it for re-drive until a COMMIT
    /// with a matching write verifier confirms durability.
    pub async fn write(
        &self,
        fh: FileHandle,
        offset: u64,
        buf: &Buffer,
        buf_off: u64,
        count: u32,
        stable: bool,
    ) -> NfsResult<u32> {
        let r = self
            .write_once(fh, offset, buf, buf_off, count, stable)
            .await?;
        if stable {
            // FILE_SYNC committed everything pending for this file —
            // but only under the verifier we recorded; a changed
            // verifier means earlier UNSTABLE data may be gone, so
            // keep the ledger for commit() to re-drive.
            let mut pending = self.pending.borrow_mut();
            if pending.get(&fh.0).is_some_and(|p| p.verf == r.verf) {
                pending.remove(&fh.0);
            }
        } else {
            let mut pending = self.pending.borrow_mut();
            let entry = pending.entry(fh.0).or_insert(PendingFile {
                verf: r.verf,
                writes: Vec::new(),
            });
            entry.writes.push(PendingWrite {
                offset,
                buf: buf.clone(),
                buf_off,
                count,
                data: buf.read(buf_off, count as u64),
            });
        }
        Ok(r.count)
    }
}
