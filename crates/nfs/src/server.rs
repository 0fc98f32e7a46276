//! The NFSv3 server: one protocol implementation reachable over both
//! the RPC/RDMA transport (chunk-aware, the paper's subject) and the
//! TCP stream transport (bulk data behind the record, the baseline).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use fs_backend::Fs;
use onc_rpc::{AcceptStat, BulkDispatch, BulkService, CallContext, LocalBoxFuture};
use sim_core::{Counter, FxMap, Payload, SgList, Sim};
use xdr::{Decoder, XdrCodec};

use crate::proto::*;

/// Base of the deterministic write verifier; each (re)boot adds one.
pub(crate) const WRITE_VERF_BASE: u64 = 0xb007_0000_0000_0000;

/// Operation counters: the server's own `nfs.node{N}.*` series (each
/// node's WRITE count is read on its own — a backup applies every
/// WRITE its primary served).
pub struct NfsServerStats {
    /// READ calls served.
    pub reads: Rc<Counter>,
    /// WRITE calls served.
    pub writes: Rc<Counter>,
    /// All other calls served.
    pub others: Rc<Counter>,
    /// Data bytes read from the VFS.
    bytes_read: Rc<Counter>,
    /// Data bytes written to the VFS.
    bytes_written: Rc<Counter>,
    /// UNSTABLE (stable=false) WRITE calls acked from dirty cache.
    unstable_writes: Rc<Counter>,
    /// COMMIT calls that triggered a group commit (the file had dirty
    /// uncommitted data).
    commits: Rc<Counter>,
    /// COMMIT calls answered without touching storage (nothing dirty).
    clean_commits: Rc<Counter>,
}

impl NfsServerStats {
    fn new(sim: &Sim, node: u32) -> NfsServerStats {
        let registry = sim.metrics();
        let series = |name: &str| registry.counter(&format!("nfs.node{node}.{name}"));
        NfsServerStats {
            reads: series("reads"),
            writes: series("writes"),
            others: series("others"),
            bytes_read: series("bytes_read"),
            bytes_written: series("bytes_written"),
            unstable_writes: series("unstable_writes"),
            commits: series("commits"),
            clean_commits: series("clean_commits"),
        }
    }
}

/// The server. Construct once, register with one or both transports.
pub struct NfsServer {
    fs: Rc<Fs>,
    /// Write verifier: boot-instance cookie returned with every WRITE
    /// and COMMIT reply (RFC 1813 §3.3.7). Deterministic — derived from
    /// the boot count, never from wall-clock time.
    verf: Cell<u64>,
    /// Uncommitted (UNSTABLE-written) bytes per file: the dirty side of
    /// the per-file dirty/commit ledger. COMMIT consults it to decide
    /// between a group commit and a free clean-commit reply.
    dirty: RefCell<FxMap<u64, u64>>,
    /// Fenced/failed: a deposed primary stops executing (its replies
    /// would die on errored QPs anyway; this stops zombie mutations).
    dead: Cell<bool>,
    /// When serving as a cluster primary: the replicated-log sequencer
    /// every successful mutation ships through before its reply.
    replicator: RefCell<Option<Rc<crate::cluster::Replicator>>>,
    /// Statistics.
    pub stats: NfsServerStats,
}

/// Internal dispatch result: head plus optional bulk scatter/gather
/// data (READ replies keep cache slices unflattened for the RDMA
/// transport to gather on the wire).
struct OpResult {
    head: Bytes,
    bulk: Option<SgList>,
}

impl NfsServer {
    /// Serve `fs` as fabric node `node`.
    pub fn new(sim: &Sim, node: u32, fs: Rc<Fs>) -> Rc<NfsServer> {
        Rc::new(NfsServer {
            fs,
            verf: Cell::new(WRITE_VERF_BASE + 1),
            dirty: RefCell::new(FxMap::default()),
            dead: Cell::new(false),
            replicator: RefCell::new(None),
            stats: NfsServerStats::new(sim, node),
        })
    }

    /// Install the cluster replicator: from here on, every successful
    /// mutating call is shipped to the backup before its reply, and
    /// COMMIT waits for the backup's marker ack.
    pub fn set_replicator(&self, r: Rc<crate::cluster::Replicator>) {
        *self.replicator.borrow_mut() = Some(r);
    }

    /// Fence or unfence the server (failed nodes stop executing).
    pub fn set_dead(&self, dead: bool) {
        self.dead.set(dead);
    }

    /// Adopt a cluster-assigned boot-instance write verifier (promotion
    /// and rejoin use the [`crate::cluster::ClusterMount`] boot counter
    /// so verifiers stay strictly monotonic across incarnations).
    pub fn install_boot_verf(&self, verf: u64) {
        self.verf.set(verf);
    }

    /// Promotion durability point: group-commit everything pending and
    /// reset the dirty ledger (the replayed prefix is now stable).
    pub async fn force_commit(&self) {
        let root = self.fs.root();
        let _ = self.fs.commit(root).await;
        self.dirty.borrow_mut().clear();
    }

    /// Apply one replicated record on the backup: same protocol engine,
    /// `replicate = false` so the apply path never re-ships.
    pub async fn apply_replicated(self: &Rc<Self>, rec: &crate::cluster::ReplRecord) {
        let bulk = rec.bulk.clone().map(SgList::from);
        let res = self
            .run_op(
                rec.peer,
                rec.xid,
                rec.proc_num,
                rec.args.clone(),
                bulk,
                false,
                rec.trace,
            )
            .await;
        debug_assert!(res.is_ok(), "replicated record failed to apply");
    }

    /// Simulate an NFS server reboot after a power failure: bump the
    /// write verifier to a fresh boot-instance value and forget the
    /// dirty ledger (whatever was uncommitted is gone — the backend's
    /// recovery decides what survived). Clients notice the verifier
    /// change on their next WRITE/COMMIT reply and re-drive everything
    /// pending.
    pub fn server_reboot(&self) {
        self.verf.set(self.verf.get() + 1);
        self.dirty.borrow_mut().clear();
    }

    /// The root file handle clients mount.
    pub fn root_handle(&self) -> FileHandle {
        FileHandle(self.fs.root().0)
    }

    fn fid(fh: FileHandle) -> fs_backend::FileId {
        fs_backend::FileId(fh.0)
    }

    /// Execute one NFS procedure. `bulk_in` carries WRITE data, which
    /// every transport moves out of band (chunks over RDMA, a trailing
    /// segment over TCP). `peer`/`xid`
    /// identify the call for replication (the backup mirrors the DRC
    /// window under them); `replicate = false` marks the backup apply
    /// path, which must never re-ship. `trace` is the service span's
    /// context, stamped on shipped records so the backup apply joins
    /// the client's causal tree.
    #[allow(clippy::too_many_arguments)]
    async fn run_op(
        self: &Rc<Self>,
        peer: u32,
        xid: u32,
        proc_num: u32,
        args: Bytes,
        bulk_in: Option<SgList>,
        replicate: bool,
        trace: sim_core::TraceCtx,
    ) -> Result<OpResult, AcceptStat> {
        if self.dead.get() {
            // Fenced: refuse to execute (the reply dies on an errored
            // QP regardless; this stops zombie mutations).
            return Err(AcceptStat::ProcUnavail);
        }
        let Some(proc_id) = NfsProc::from_u32(proc_num) else {
            return Err(AcceptStat::ProcUnavail);
        };
        let bad = |_e: xdr::XdrError| AcceptStat::GarbageArgs;
        let fs = &self.fs;
        let ok = |head: Bytes| Ok(OpResult { head, bulk: None });

        let repl = if replicate {
            self.replicator.borrow().clone()
        } else {
            None
        };
        // Captured along the WRITE path for the replication hook.
        let mut repl_bulk: Option<Payload> = None;
        let mut repl_marker = false;
        // Markers (COMMIT, stable WRITE) take the sequencing lock
        // *before* their local group commit so every previously
        // sequenced record's WAL appends land inside the marker's
        // committed set — the rejoin-truncation invariant.
        let mut marker_permit = None;

        let result = match proc_id {
            NfsProc::Null => {
                self.stats.others.inc();
                ok(Bytes::new())
            }
            NfsProc::Getattr => {
                self.stats.others.inc();
                let fh = FileHandle::from_bytes(&args).map_err(bad)?;
                let res = fs.getattr(Self::fid(fh));
                ok(match res {
                    Ok(a) => encode_res(NfsStat::Ok, |e| Fattr::from_attr(&a).encode(e)),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Setattr => {
                self.stats.others.inc();
                let mut dec = Decoder::new(&args);
                let fh = FileHandle::decode(&mut dec).map_err(bad)?;
                let size = dec.get_u64().map_err(bad)?;
                let res = fs.setattr_size(Self::fid(fh), size);
                ok(match res {
                    Ok(a) => encode_res(NfsStat::Ok, |e| Fattr::from_attr(&a).encode(e)),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Lookup => {
                self.stats.others.inc();
                let a = DirOpArgs::from_bytes(&args).map_err(bad)?;
                let res = fs.lookup(Self::fid(a.dir), &a.name);
                ok(match res {
                    Ok(attr) => encode_res(NfsStat::Ok, |e| Fattr::from_attr(&attr).encode(e)),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Access => {
                self.stats.others.inc();
                let mut dec = Decoder::new(&args);
                let fh = FileHandle::decode(&mut dec).map_err(bad)?;
                let requested = dec.get_u32().map_err(bad)?;
                let res = fs.getattr(Self::fid(fh));
                ok(match res {
                    Ok(a) => encode_res(NfsStat::Ok, |e| {
                        Fattr::from_attr(&a).encode(e);
                        // AUTH_NONE deployment: grant whatever was asked
                        // within the mode-0644 envelope.
                        e.put_u32(requested & access::ALL);
                    }),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Readlink => {
                self.stats.others.inc();
                let fh = FileHandle::from_bytes(&args).map_err(bad)?;
                let res = fs.readlink(Self::fid(fh));
                ok(match res {
                    Ok(target) => encode_res(NfsStat::Ok, |e| {
                        e.put_string(&target);
                    }),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Read => {
                self.stats.reads.inc();
                let a = ReadArgs::from_bytes(&args).map_err(bad)?;
                let id = Self::fid(a.file);
                match fs.read_sg(id, a.offset, a.count as u64).await {
                    Ok(data) => {
                        let attr = fs.getattr(id).map_err(|_| AcceptStat::GarbageArgs)?;
                        let n = data.len();
                        self.stats.bytes_read.add(n);
                        let eof = a.offset + n >= attr.size;
                        let head = ReadResHead {
                            attr: Fattr::from_attr(&attr),
                            count: n as u32,
                            eof,
                        };
                        Ok(OpResult {
                            head: encode_res(NfsStat::Ok, |e| head.encode(e)),
                            bulk: Some(data),
                        })
                    }
                    Err(e) => ok(encode_res(e.into(), |_| {})),
                }
            }
            NfsProc::Write => {
                self.stats.writes.inc();
                let mut dec = Decoder::new(&args);
                let head = WriteArgsHead::decode(&mut dec).map_err(bad)?;
                let data = bulk_in.ok_or(AcceptStat::GarbageArgs)?;
                if data.len() != head.count as u64 {
                    return Err(AcceptStat::GarbageArgs);
                }
                let id = Self::fid(head.file);
                let n = data.len();
                if let Some(r) = &repl {
                    // Content-preserving capture for the backup ship.
                    repl_bulk = Some(data.to_payload());
                    if head.stable {
                        repl_marker = true;
                        marker_permit = Some(r.begin_marker().await);
                    }
                }
                // Receive-side scatter: each transport piece lands in
                // the file system at its own offset, unflattened.
                match fs.write_sg(id, head.offset, data).await {
                    Ok(written) => {
                        self.stats.bytes_written.add(written);
                        if head.stable {
                            let _ = fs.commit(id).await;
                            self.dirty.borrow_mut().remove(&head.file.0);
                        } else {
                            // UNSTABLE: acked as soon as the pages are
                            // dirty in cache; durability waits for
                            // COMMIT's group commit.
                            self.stats.unstable_writes.inc();
                            *self.dirty.borrow_mut().entry(head.file.0).or_insert(0) += written;
                        }
                        let attr = fs.getattr(id).map_err(|_| AcceptStat::GarbageArgs)?;
                        debug_assert_eq!(written, n);
                        ok(encode_res(NfsStat::Ok, |e| {
                            WriteRes {
                                attr: Fattr::from_attr(&attr),
                                count: written as u32,
                                verf: self.verf.get(),
                            }
                            .encode(e)
                        }))
                    }
                    Err(e) => ok(encode_res(e.into(), |_| {})),
                }
            }
            NfsProc::Create | NfsProc::Mkdir => {
                self.stats.others.inc();
                let a = DirOpArgs::from_bytes(&args).map_err(bad)?;
                let res = if proc_id == NfsProc::Create {
                    fs.create(Self::fid(a.dir), &a.name)
                } else {
                    fs.mkdir(Self::fid(a.dir), &a.name)
                };
                ok(match res {
                    Ok(attr) => encode_res(NfsStat::Ok, |e| Fattr::from_attr(&attr).encode(e)),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Symlink => {
                self.stats.others.inc();
                let mut dec = Decoder::new(&args);
                let dir = FileHandle::decode(&mut dec).map_err(bad)?;
                let name = dec.get_string().map_err(bad)?;
                let target = dec.get_string().map_err(bad)?;
                if target.len() > NFS3_MAXPATHLEN {
                    // READLINK's reply bound rests on this.
                    return ok(encode_res(NfsStat::NameTooLong, |_| {}));
                }
                let res = fs.symlink(Self::fid(dir), &name, &target);
                ok(match res {
                    Ok(attr) => encode_res(NfsStat::Ok, |e| Fattr::from_attr(&attr).encode(e)),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Remove | NfsProc::Rmdir => {
                self.stats.others.inc();
                let a = DirOpArgs::from_bytes(&args).map_err(bad)?;
                let res = if proc_id == NfsProc::Remove {
                    fs.remove(Self::fid(a.dir), &a.name)
                } else {
                    fs.rmdir(Self::fid(a.dir), &a.name)
                };
                ok(match res {
                    Ok(()) => encode_res(NfsStat::Ok, |_| {}),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Rename => {
                self.stats.others.inc();
                let mut dec = Decoder::new(&args);
                let fdir = FileHandle::decode(&mut dec).map_err(bad)?;
                let fname = dec.get_string().map_err(bad)?;
                let tdir = FileHandle::decode(&mut dec).map_err(bad)?;
                let tname = dec.get_string().map_err(bad)?;
                let res = fs.rename(Self::fid(fdir), &fname, Self::fid(tdir), &tname);
                ok(match res {
                    Ok(()) => encode_res(NfsStat::Ok, |_| {}),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Readdir | NfsProc::ReaddirPlus => {
                self.stats.others.inc();
                let plus = proc_id == NfsProc::ReaddirPlus;
                let a = ReaddirArgs::decode(&mut Decoder::new(&args), plus).map_err(bad)?;
                // One page: entries in name order from the cookie on,
                // until the next would push `resok` past the count.
                // READDIRPLUS entries carry post-op attributes and
                // handles, saving the client a GETATTR per name.
                let mut list = DirListEncoder::new(&a);
                let page = fs.readdir_from(
                    Self::fid(a.dir),
                    a.cookie,
                    a.cookieverf,
                    &mut |name, attr| list.push(name, attr.id.0, &Fattr::from_attr(attr)),
                );
                ok(match page {
                    Ok(page) => list.finish(page.verf, page.eof),
                    Err(e) => encode_res(e.into(), |_| {}),
                })
            }
            NfsProc::Fsstat => {
                self.stats.others.inc();
                let _fh = FileHandle::from_bytes(&args).map_err(bad)?;
                let st = fs.fsstat();
                ok(encode_res(NfsStat::Ok, |e| {
                    e.put_u64(st.bytes_used).put_u64(st.inodes);
                }))
            }
            NfsProc::Commit => {
                self.stats.others.inc();
                let fh = FileHandle::from_bytes(&args).map_err(bad)?;
                let was_dirty = self.dirty.borrow_mut().remove(&fh.0).is_some();
                if was_dirty {
                    self.stats.commits.inc();
                } else {
                    self.stats.clean_commits.inc();
                }
                if let Some(r) = &repl {
                    repl_marker = true;
                    marker_permit = Some(r.begin_marker().await);
                }
                // Group commit: the backend flushes every pending
                // uncommitted write (a WAL-backed store drains its whole
                // tail in one sequential burst, not just this file's).
                match fs.commit(Self::fid(fh)).await {
                    Ok(()) => ok(encode_res(NfsStat::Ok, |e| {
                        CommitRes {
                            verf: self.verf.get(),
                        }
                        .encode(e)
                    })),
                    Err(e) => ok(encode_res(e.into(), |_| {})),
                }
            }
        };

        // Replication hook: ship every *successful* mutation to the
        // backup before the reply is released; markers additionally
        // wait for the backup's ack inside `replicate`.
        if let (Some(repl), Ok(res)) = (repl, &result) {
            let mutating = matches!(
                proc_id,
                NfsProc::Setattr
                    | NfsProc::Write
                    | NfsProc::Create
                    | NfsProc::Mkdir
                    | NfsProc::Symlink
                    | NfsProc::Remove
                    | NfsProc::Rmdir
                    | NfsProc::Rename
                    | NfsProc::Commit
            );
            let ok_reply = res.head.len() >= 4 && res.head[..4] == [0u8; 4];
            if mutating && ok_reply {
                repl.replicate(
                    marker_permit.take(),
                    proc_num,
                    peer,
                    xid,
                    args.clone(),
                    res.head.clone(),
                    repl_bulk.take(),
                    repl_marker,
                    trace,
                )
                .await;
            }
        }
        result
    }
}

/// Clonable handle registering the server with either transport.
#[derive(Clone)]
pub struct NfsServerHandle(pub Rc<NfsServer>);

impl BulkService for NfsServerHandle {
    fn program(&self) -> u32 {
        NFS_PROGRAM
    }
    fn version(&self) -> u32 {
        NFS_VERSION
    }
    fn call(
        &self,
        cx: CallContext,
        proc_num: u32,
        args: Bytes,
        bulk_in: Option<SgList>,
    ) -> LocalBoxFuture<BulkDispatch> {
        let server = self.0.clone();
        Box::pin(async move {
            match server
                .run_op(cx.peer, cx.xid, proc_num, args, bulk_in, true, cx.trace)
                .await
            {
                Ok(r) => BulkDispatch::success(r.head, r.bulk),
                Err(stat) => BulkDispatch::error(stat),
            }
        })
    }
}
