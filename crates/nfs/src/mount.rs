//! The MOUNT protocol (RFC 1813 Appendix I, program 100005 v3).
//!
//! Real NFS deployments obtain the root file handle by asking mountd,
//! not by magic. This module implements the subset clients need —
//! `MNT`, `UMNT`, `EXPORT`, `DUMP` — as a [`BulkService`] that shares
//! the transport endpoint with the NFS program via
//! [`onc_rpc::ServiceRegistry`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use onc_rpc::{AcceptStat, BulkDispatch, BulkService, CallContext, LocalBoxFuture};
use xdr::{Decoder, Encoder, XdrCodec};

use crate::client::Transport;
use crate::proto::FileHandle;

/// MOUNT program number.
pub const MOUNT_PROGRAM: u32 = 100_005;
/// MOUNT protocol version served.
pub const MOUNT_VERSION: u32 = 3;

/// MOUNT procedures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum MountProc {
    Null = 0,
    Mnt = 1,
    Dump = 2,
    Umnt = 3,
    Export = 5,
}

/// Mount status codes (subset of mountstat3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum MountStat {
    Ok = 0,
    NoEnt = 2,
    Access = 13,
}

impl MountStat {
    fn from_u32(v: u32) -> xdr::Result<MountStat> {
        Ok(match v {
            0 => MountStat::Ok,
            2 => MountStat::NoEnt,
            13 => MountStat::Access,
            d => return Err(xdr::XdrError::BadDiscriminant(d)),
        })
    }
}

/// The mount daemon: an export table plus the active-mount list that
/// `DUMP` reports.
pub struct Mountd {
    exports: RefCell<HashMap<String, FileHandle>>,
    /// (client node, path) pairs currently mounted.
    mounts: RefCell<Vec<(u32, String)>>,
}

impl Mountd {
    /// A mountd with no exports.
    pub fn new() -> Rc<Mountd> {
        Rc::new(Mountd {
            exports: RefCell::new(HashMap::new()),
            mounts: RefCell::new(Vec::new()),
        })
    }

    /// Export `path` as `root`.
    pub fn export(&self, path: &str, root: FileHandle) {
        self.exports.borrow_mut().insert(path.to_string(), root);
    }

    /// Currently mounted (client, path) pairs.
    pub fn active_mounts(&self) -> Vec<(u32, String)> {
        self.mounts.borrow().clone()
    }

    fn mnt(&self, peer: u32, path: &str) -> Result<FileHandle, MountStat> {
        match self.exports.borrow().get(path) {
            Some(&fh) => {
                self.mounts.borrow_mut().push((peer, path.to_string()));
                Ok(fh)
            }
            None => Err(MountStat::NoEnt),
        }
    }

    fn umnt(&self, peer: u32, path: &str) {
        self.mounts
            .borrow_mut()
            .retain(|(p, pa)| !(*p == peer && pa == path));
    }
}

/// Service handle registering mountd with a transport.
#[derive(Clone)]
pub struct MountdHandle(pub Rc<Mountd>);

impl BulkService for MountdHandle {
    fn program(&self) -> u32 {
        MOUNT_PROGRAM
    }
    fn version(&self) -> u32 {
        MOUNT_VERSION
    }
    fn call(
        &self,
        cx: CallContext,
        proc_num: u32,
        args: Bytes,
        _bulk_in: Option<sim_core::SgList>,
    ) -> LocalBoxFuture<BulkDispatch> {
        let mountd = self.0.clone();
        Box::pin(async move {
            match proc_num {
                0 => BulkDispatch::success(Bytes::new(), None), // NULL
                // MNT: dirpath -> (status, fhandle)
                1 => {
                    let mut dec = Decoder::new(&args);
                    let Ok(path) = dec.get_string() else {
                        return BulkDispatch::error(AcceptStat::GarbageArgs);
                    };
                    let mut enc = Encoder::new();
                    match mountd.mnt(cx.peer, &path) {
                        Ok(fh) => {
                            enc.put_u32(MountStat::Ok as u32);
                            fh.encode(&mut enc);
                            // auth flavors accepted: [AUTH_NONE]
                            enc.put_array(&[0u32], |e, v| {
                                e.put_u32(*v);
                            });
                        }
                        Err(st) => {
                            enc.put_u32(st as u32);
                        }
                    }
                    BulkDispatch::success(enc.finish(), None)
                }
                // DUMP: list of (hostname, dirpath)
                2 => {
                    let mut enc = Encoder::new();
                    let mounts = mountd.active_mounts();
                    enc.put_array(&mounts, |e, (peer, path)| {
                        e.put_string(&format!("client{peer}"));
                        e.put_string(path);
                    });
                    BulkDispatch::success(enc.finish(), None)
                }
                // UMNT: dirpath -> void
                3 => {
                    let mut dec = Decoder::new(&args);
                    let Ok(path) = dec.get_string() else {
                        return BulkDispatch::error(AcceptStat::GarbageArgs);
                    };
                    mountd.umnt(cx.peer, &path);
                    BulkDispatch::success(Bytes::new(), None)
                }
                // EXPORT: list of dirpaths
                5 => {
                    let mut paths: Vec<String> = mountd.exports.borrow().keys().cloned().collect();
                    paths.sort();
                    let mut enc = Encoder::new();
                    enc.put_array(&paths, |e, p| {
                        e.put_string(p);
                    });
                    BulkDispatch::success(enc.finish(), None)
                }
                _ => BulkDispatch::error(AcceptStat::ProcUnavail),
            }
        })
    }
}

/// Client-side mount operations over either transport.
pub struct MountClient {
    transport: Transport,
}

impl MountClient {
    /// Over RPC/RDMA.
    pub fn over_rdma(client: rpcrdma::RdmaRpcClient) -> MountClient {
        MountClient {
            transport: Transport::Rdma(client),
        }
    }

    /// Over TCP.
    pub fn over_tcp(client: Rc<onc_rpc::StreamRpcClient>) -> MountClient {
        MountClient {
            transport: Transport::Tcp(client),
        }
    }

    /// One MOUNT call; the reply body.
    async fn call(&self, proc_num: MountProc, args: Bytes) -> Result<Bytes, crate::NfsError> {
        let (body, _) = self
            .transport
            .call_as(
                MOUNT_PROGRAM,
                MOUNT_VERSION,
                proc_num as u32,
                args,
                Default::default(),
            )
            .await?;
        Ok(body)
    }

    /// Mount `path`, returning the export's root file handle.
    pub async fn mnt(&self, path: &str) -> Result<FileHandle, crate::NfsError> {
        let mut enc = Encoder::new();
        enc.put_string(path);
        let body = self.call(MountProc::Mnt, enc.finish()).await?;
        let mut dec = Decoder::new(&body);
        let stat = MountStat::from_u32(dec.get_u32().map_err(|_| crate::NfsError::Protocol)?)
            .map_err(|_| crate::NfsError::Protocol)?;
        if stat != MountStat::Ok {
            return Err(crate::NfsError::Status(crate::NfsStat::NoEnt));
        }
        let fh = FileHandle::decode(&mut dec).map_err(|_| crate::NfsError::Protocol)?;
        Ok(fh)
    }

    /// Unmount `path`.
    pub async fn umnt(&self, path: &str) -> Result<(), crate::NfsError> {
        let mut enc = Encoder::new();
        enc.put_string(path);
        self.call(MountProc::Umnt, enc.finish()).await?;
        Ok(())
    }

    /// List the server's exports.
    pub async fn exports(&self) -> Result<Vec<String>, crate::NfsError> {
        let body = self.call(MountProc::Export, Bytes::new()).await?;
        let mut dec = Decoder::new(&body);
        dec.get_array(|d| d.get_string())
            .map_err(|_| crate::NfsError::Protocol)
    }

    /// List active mounts (DUMP).
    pub async fn dump(&self) -> Result<Vec<(String, String)>, crate::NfsError> {
        let body = self.call(MountProc::Dump, Bytes::new()).await?;
        let mut dec = Decoder::new(&body);
        dec.get_array(|d| Ok((d.get_string()?, d.get_string()?)))
            .map_err(|_| crate::NfsError::Protocol)
    }
}
