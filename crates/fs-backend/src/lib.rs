//! # fs-backend — file systems behind the NFS server
//!
//! The two storage configurations of the paper's evaluation:
//!
//! * **tmpfs** (§5.1/§5.2): a memory file system, so transport costs
//!   dominate — used for the IOzone and FileBench single-client runs.
//! * **XFS on RAID-0** (§5.3): eight 30 MB/s disks behind a server
//!   page cache of 4 or 8 GiB — the multi-client scalability testbed
//!   whose cache-capacity crossover produces Figure 10.
//!
//! Architecture: a shared namespace layer ([`vfs::Fs`]) over a
//! [`vfs::DataStore`] that owns data timing; contents are exact
//! (extent maps), timing is modelled (disk arms, page-cache
//! residency), and the two never disagree. The NFS server calls the
//! one file system it serves directly, as an `Rc<Fs>` whose store sits
//! behind `dyn DataStore`. A store has five methods: gather-read,
//! scatter-write, commit, truncate and delete; a flat write is a
//! one-piece scatter ([`vfs::Fs::write`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hash order differs per map instance: walking it diverges same-seed runs (DESIGN.md §3).
#![deny(clippy::iter_over_hash_type)]

pub mod disk;
pub mod pagecache;
pub mod stores;
pub mod vfs;
pub mod wal;

pub use disk::{Disk, Raid0};
pub use pagecache::PageCache;
pub use stores::{diskfs, diskfs_wal, tmpfs, CachedDiskStore, DiskFs, MemStore, Tmpfs};
pub use vfs::{
    Attr, DataStore, DirEntry, DirPage, FileId, FileKind, Fs, FsError, FsResult, FsStat,
};
pub use wal::{Wal, WalRecord};
