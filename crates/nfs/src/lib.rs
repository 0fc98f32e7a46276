//! # nfs — NFSv3 client and server
//!
//! An NFSv3 implementation (RFC 1813 subset) whose server is reachable
//! over both transports in this workspace: the paper's RPC/RDMA
//! transport (READ/WRITE data via chunks, READDIR/READLINK via reply
//! chunks sized to the reply's bound) and the baseline TCP stream
//! transport (data inline).
//! Procedures round-trip through real XDR ([`proto`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hash order differs per map instance: walking it diverges same-seed runs (DESIGN.md §3).
#![deny(clippy::iter_over_hash_type)]

pub mod client;
pub mod cluster;
pub mod mount;
pub mod proto;
pub mod server;

pub use client::{NfsClient, NfsError, NfsResult};
pub use cluster::{
    promote_backup, run_backup, BackupSession, ClusterMount, ReplRecord, Replicator,
    ReplicatorStats,
};
pub use mount::{MountClient, Mountd, MountdHandle, MOUNT_PROGRAM, MOUNT_VERSION};
pub use proto::{
    DirOpArgs, Fattr, FileHandle, NfsProc, NfsStat, ReadArgs, ReadResHead, WireDirEntry,
    WriteArgsHead, WriteRes, NFS3_MAXPATHLEN, NFS_DTSIZE, NFS_PROGRAM, NFS_VERSION,
};
pub use server::{NfsServer, NfsServerHandle, NfsServerStats};
