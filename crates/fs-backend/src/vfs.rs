//! The file system the NFS server dispatches into: the shared namespace
//! (inode/dentry) layer both back ends reuse, over a [`DataStore`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::ops::Bound;
use std::pin::Pin;
use std::rc::Rc;

use sim_core::{Payload, SgList, Sim, SimTime};

/// Single-threaded boxed future.
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T> + 'static>>;

/// File identifier (inode number); NFS file handles wrap these.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// File types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// Regular file.
    Regular,
    /// Directory.
    Dir,
    /// Symbolic link.
    Symlink,
}

/// File attributes (the fattr3 subset the workloads need).
#[derive(Clone, Copy, Debug)]
pub struct Attr {
    /// Inode number.
    pub id: FileId,
    /// Type.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u32,
    /// Last modification (virtual time).
    pub mtime: SimTime,
    /// Last attribute change.
    pub ctime: SimTime,
}

/// A directory entry.
#[derive(Clone, Debug)]
pub struct DirEntry {
    /// Entry name.
    pub name: String,
    /// Inode.
    pub id: FileId,
    /// Type.
    pub kind: FileKind,
}

/// Where a [`Fs::readdir_from`] page ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DirPage {
    /// The directory's change stamp when the page was cut. A resume
    /// must present it; any entry added, removed or renamed since
    /// moves it and the resume fails with [`FsError::BadCookie`].
    pub verf: u64,
    /// The page reached the end of the directory.
    pub eof: bool,
}

/// File-system errors (mapped to NFS status codes by the server).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// No such file or directory.
    NotFound,
    /// Name already exists.
    Exists,
    /// Operation requires a directory.
    NotDir,
    /// Operation not valid on a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Stale file id (deleted).
    Stale,
    /// Not a symlink.
    NotSymlink,
    /// Out of space.
    NoSpace,
    /// A directory-listing resume point that no longer names a place
    /// in the directory (it changed since the page was cut).
    BadCookie,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for FsError {}

/// Result alias.
pub type FsResult<T> = Result<T, FsError>;

/// Aggregate file-system statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsStat {
    /// Total bytes of file data stored.
    pub bytes_used: u64,
    /// Number of live inodes.
    pub inodes: u64,
}

/// Where file *data* lives and what it costs to touch it. The
/// namespace above it ([`Fs`]) is shared between tmpfs and the disk
/// back end. Every method does its own work; there are no defaults.
pub trait DataStore {
    /// Read `[off, off+len)` as a scatter/gather list of
    /// reference-counted slices of the stored extents (timing
    /// included) — the zero-copy READ path.
    fn read_sg(&self, file: FileId, off: u64, len: u64) -> LocalBoxFuture<SgList>;
    /// Scatter a gather list at `off` (timing included); returns bytes
    /// written. Each reference-counted piece lands at its own
    /// sub-offset with no flattening copy. [`Fs::write`] comes here
    /// too, as a one-piece list.
    fn write_sg(&self, file: FileId, off: u64, data: SgList) -> LocalBoxFuture<u64>;
    /// Flush dirty state for `file` to stable storage.
    fn commit(&self, file: FileId) -> LocalBoxFuture<()>;
    /// Discard data beyond `size`: a later extension reads zeros there.
    fn truncate(&self, file: FileId, size: u64);
    /// Drop all data for `file`.
    fn delete(&self, file: FileId);
}

struct Inode {
    attr: Attr,
    /// This inode's name in its parent directory (every inode has one
    /// link), shared with the parent's `children` key: it is how a
    /// listing cookie — an inode number — finds its place in name order.
    name: Rc<str>,
    /// Directory contents in name order, for directories.
    children: Option<BTreeMap<Rc<str>, FileId>>,
    /// Directories: bumped whenever an entry comes or goes. The listing
    /// cookie verifier ([`DirPage::verf`]).
    change: u64,
    /// Symlink target.
    target: Option<String>,
}

impl Inode {
    /// An entry of this directory came or went.
    fn dir_changed(&mut self, now: SimTime) {
        self.attr.mtime = now;
        self.change += 1;
    }
}

struct NamespaceInner {
    sim: Sim,
    inodes: RefCell<HashMap<u64, Inode>>,
    next_id: std::cell::Cell<u64>,
    root: FileId,
}

/// A file system: the shared directory-tree / inode-table layer over a
/// [`DataStore`]. The NFS server holds an `Rc<Fs>` (the store behind
/// `dyn DataStore`); an `Rc<Fs<MemStore>>` or
/// `Rc<Fs<CachedDiskStore>>` coerces to it.
///
/// [`MemStore`]: crate::MemStore
/// [`CachedDiskStore`]: crate::CachedDiskStore
pub struct Fs<S: DataStore + ?Sized = dyn DataStore> {
    ns: Rc<NamespaceInner>,
    store: S,
}

impl<S: DataStore> Fs<S> {
    /// Create a file system with an empty root directory.
    pub fn new(sim: &Sim, store: S) -> Self {
        let root = FileId(1);
        let now = sim.now();
        let mut inodes = HashMap::new();
        inodes.insert(
            1,
            Inode {
                attr: Attr {
                    id: root,
                    kind: FileKind::Dir,
                    size: 0,
                    nlink: 2,
                    mtime: now,
                    ctime: now,
                },
                name: Rc::from(""),
                children: Some(BTreeMap::new()),
                change: 0,
                target: None,
            },
        );
        Fs {
            ns: Rc::new(NamespaceInner {
                sim: sim.clone(),
                inodes: RefCell::new(inodes),
                next_id: std::cell::Cell::new(2),
                root,
            }),
            store,
        }
    }
}

impl<S: DataStore + ?Sized> Fs<S> {
    /// The data store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Root directory id.
    pub fn root(&self) -> FileId {
        self.ns.root
    }

    fn now(&self) -> SimTime {
        self.ns.sim.now()
    }

    fn alloc_id(&self) -> FileId {
        let id = self.ns.next_id.get();
        self.ns.next_id.set(id + 1);
        FileId(id)
    }

    /// Attributes of `id`.
    pub fn getattr(&self, id: FileId) -> FsResult<Attr> {
        self.ns
            .inodes
            .borrow()
            .get(&id.0)
            .map(|i| i.attr)
            .ok_or(FsError::Stale)
    }

    /// Truncate or extend a regular file.
    pub fn setattr_size(&self, id: FileId, size: u64) -> FsResult<Attr> {
        let mut inodes = self.ns.inodes.borrow_mut();
        let inode = inodes.get_mut(&id.0).ok_or(FsError::Stale)?;
        if inode.attr.kind != FileKind::Regular {
            return Err(FsError::IsDir);
        }
        inode.attr.size = size;
        inode.attr.mtime = self.ns.sim.now();
        inode.attr.ctime = inode.attr.mtime;
        let attr = inode.attr;
        drop(inodes);
        self.store.truncate(id, size);
        Ok(attr)
    }

    /// Find `name` in directory `dir`.
    pub fn lookup(&self, dir: FileId, name: &str) -> FsResult<Attr> {
        let inodes = self.ns.inodes.borrow();
        let d = inodes.get(&dir.0).ok_or(FsError::Stale)?;
        let children = d.children.as_ref().ok_or(FsError::NotDir)?;
        let id = children.get(name).ok_or(FsError::NotFound)?;
        Ok(inodes[&id.0].attr)
    }

    fn link_new(
        &self,
        dir: FileId,
        name: &str,
        kind: FileKind,
        target: Option<String>,
    ) -> FsResult<Attr> {
        let id = self.alloc_id();
        let now = self.now();
        let mut inodes = self.ns.inodes.borrow_mut();
        let d = inodes.get_mut(&dir.0).ok_or(FsError::Stale)?;
        let children = d.children.as_mut().ok_or(FsError::NotDir)?;
        if children.contains_key(name) {
            return Err(FsError::Exists);
        }
        let name: Rc<str> = Rc::from(name);
        children.insert(name.clone(), id);
        d.dir_changed(now);
        let attr = Attr {
            id,
            kind,
            size: target.as_ref().map(|t| t.len() as u64).unwrap_or(0),
            nlink: if kind == FileKind::Dir { 2 } else { 1 },
            mtime: now,
            ctime: now,
        };
        inodes.insert(
            id.0,
            Inode {
                attr,
                name,
                children: (kind == FileKind::Dir).then(BTreeMap::new),
                change: 0,
                target,
            },
        );
        Ok(attr)
    }

    /// Create a regular file.
    pub fn create(&self, dir: FileId, name: &str) -> FsResult<Attr> {
        self.link_new(dir, name, FileKind::Regular, None)
    }

    /// Create a directory.
    pub fn mkdir(&self, dir: FileId, name: &str) -> FsResult<Attr> {
        self.link_new(dir, name, FileKind::Dir, None)
    }

    /// Create a symlink to `target`.
    pub fn symlink(&self, dir: FileId, name: &str, target: &str) -> FsResult<Attr> {
        self.link_new(dir, name, FileKind::Symlink, Some(target.to_string()))
    }

    /// Read a symlink's target.
    pub fn readlink(&self, id: FileId) -> FsResult<String> {
        let inodes = self.ns.inodes.borrow();
        let inode = inodes.get(&id.0).ok_or(FsError::Stale)?;
        inode.target.clone().ok_or(FsError::NotSymlink)
    }

    /// Remove a non-directory entry.
    pub fn remove(&self, dir: FileId, name: &str) -> FsResult<()> {
        let removed = {
            let mut inodes = self.ns.inodes.borrow_mut();
            let d = inodes.get_mut(&dir.0).ok_or(FsError::Stale)?;
            let children = d.children.as_mut().ok_or(FsError::NotDir)?;
            let id = *children.get(name).ok_or(FsError::NotFound)?;
            if inodes[&id.0].attr.kind == FileKind::Dir {
                return Err(FsError::IsDir);
            }
            let d = inodes.get_mut(&dir.0).unwrap();
            d.children.as_mut().unwrap().remove(name);
            d.dir_changed(self.ns.sim.now());
            inodes.remove(&id.0);
            id
        };
        self.store.delete(removed);
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, dir: FileId, name: &str) -> FsResult<()> {
        let mut inodes = self.ns.inodes.borrow_mut();
        let d = inodes.get(&dir.0).ok_or(FsError::Stale)?;
        let children = d.children.as_ref().ok_or(FsError::NotDir)?;
        let id = *children.get(name).ok_or(FsError::NotFound)?;
        let victim = inodes.get(&id.0).ok_or(FsError::Stale)?;
        let vc = victim.children.as_ref().ok_or(FsError::NotDir)?;
        if !vc.is_empty() {
            return Err(FsError::NotEmpty);
        }
        let d = inodes.get_mut(&dir.0).unwrap();
        d.children.as_mut().unwrap().remove(name);
        d.dir_changed(self.ns.sim.now());
        inodes.remove(&id.0);
        Ok(())
    }

    /// Rename within/between directories.
    pub fn rename(&self, fdir: FileId, fname: &str, tdir: FileId, tname: &str) -> FsResult<()> {
        let mut inodes = self.ns.inodes.borrow_mut();
        let id = {
            let f = inodes.get(&fdir.0).ok_or(FsError::Stale)?;
            let children = f.children.as_ref().ok_or(FsError::NotDir)?;
            *children.get(fname).ok_or(FsError::NotFound)?
        };
        {
            let t = inodes.get(&tdir.0).ok_or(FsError::Stale)?;
            let tc = t.children.as_ref().ok_or(FsError::NotDir)?;
            if tc.contains_key(tname) {
                return Err(FsError::Exists);
            }
        }
        let now = self.ns.sim.now();
        // Both directories and the entry were found above.
        let from = inodes.get_mut(&fdir.0).expect("source directory");
        let children = from.children.as_mut().expect("source is a directory");
        children.remove(fname);
        from.dir_changed(now);
        let tname: Rc<str> = Rc::from(tname);
        let to = inodes.get_mut(&tdir.0).expect("target directory");
        let children = to.children.as_mut().expect("target is a directory");
        children.insert(tname.clone(), id);
        to.dir_changed(now);
        inodes.get_mut(&id.0).expect("renamed inode").name = tname;
        Ok(())
    }

    /// List a directory, whole. See [`Fs::readdir_from`] for listing it
    /// a page at a time.
    pub fn readdir(&self, dir: FileId) -> FsResult<Vec<DirEntry>> {
        let mut out = Vec::new();
        self.readdir_from(dir, 0, 0, &mut |name, attr| {
            out.push(DirEntry {
                name: name.to_string(),
                id: attr.id,
                kind: attr.kind,
            });
            true
        })?;
        Ok(out)
    }

    /// List a directory in name order from a resume point, handing each
    /// entry to `fill` until it declines one (its page is full — that
    /// entry starts the next page) or the directory ends. The cost is
    /// that of the page, `O(log n)` to find the place plus the entries
    /// visited: nothing is cloned or sorted.
    ///
    /// An entry's cookie is its inode number ([`Attr::id`]): `cookie`
    /// 0 starts at the beginning, any other value resumes after the
    /// entry it names and must come with the `verf` of the page that
    /// returned it. `fill` runs with the inode table borrowed and must
    /// not call back into the file system.
    pub fn readdir_from(
        &self,
        dir: FileId,
        cookie: u64,
        verf: u64,
        fill: &mut dyn FnMut(&str, &Attr) -> bool,
    ) -> FsResult<DirPage> {
        let inodes = self.ns.inodes.borrow();
        let d = inodes.get(&dir.0).ok_or(FsError::Stale)?;
        let children = d.children.as_ref().ok_or(FsError::NotDir)?;
        let after = if cookie == 0 {
            Bound::Unbounded
        } else {
            let last = inodes.get(&cookie).ok_or(FsError::BadCookie)?;
            if verf != d.change || children.get(&last.name) != Some(&FileId(cookie)) {
                return Err(FsError::BadCookie);
            }
            Bound::Excluded(&*last.name)
        };
        let mut rest = children.range::<str, _>((after, Bound::Unbounded));
        let eof = !rest.any(|(name, id)| !fill(name, &inodes[&id.0].attr));
        Ok(DirPage {
            verf: d.change,
            eof,
        })
    }

    /// Read file data.
    pub async fn read(&self, id: FileId, off: u64, len: u64) -> FsResult<Payload> {
        Ok(self.read_sg(id, off, len).await?.to_payload())
    }

    /// Read file data as reference-counted pieces (no flattening): the
    /// server READ path gathers these straight onto the wire.
    pub async fn read_sg(&self, id: FileId, off: u64, len: u64) -> FsResult<SgList> {
        let attr = self.getattr(id)?;
        if attr.kind != FileKind::Regular {
            return Err(FsError::IsDir);
        }
        if off >= attr.size {
            return Ok(SgList::new());
        }
        let n = len.min(attr.size - off);
        let _s = self.ns.sim.span("fs", "read");
        Ok(self.store.read_sg(id, off, n).await)
    }

    /// Write file data, extending the size as needed: a one-piece
    /// [`Fs::write_sg`].
    pub async fn write(&self, id: FileId, off: u64, data: Payload) -> FsResult<u64> {
        self.write_sg(id, off, SgList::from(data)).await
    }

    /// Scatter a gather list into the file (no flattening), extending
    /// the size as needed: the server WRITE path hands transport pieces
    /// straight to the store.
    pub async fn write_sg(&self, id: FileId, off: u64, data: SgList) -> FsResult<u64> {
        {
            let mut inodes = self.ns.inodes.borrow_mut();
            let inode = inodes.get_mut(&id.0).ok_or(FsError::Stale)?;
            if inode.attr.kind != FileKind::Regular {
                return Err(FsError::IsDir);
            }
            inode.attr.size = inode.attr.size.max(off + data.len());
            inode.attr.mtime = self.ns.sim.now();
        }
        let _s = self.ns.sim.span("fs", "write");
        Ok(self.store.write_sg(id, off, data).await)
    }

    /// Flush a file to stable storage.
    pub async fn commit(&self, id: FileId) -> FsResult<()> {
        self.getattr(id)?;
        self.store.commit(id).await;
        Ok(())
    }

    /// Aggregate statistics.
    pub fn fsstat(&self) -> FsStat {
        let inodes = self.ns.inodes.borrow();
        FsStat {
            bytes_used: inodes.values().map(|i| i.attr.size).sum(),
            inodes: inodes.len() as u64,
        }
    }
}
