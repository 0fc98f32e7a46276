//! NFSv3 protocol types and XDR codecs (RFC 1813 subset).
//!
//! Arguments and results round-trip through real XDR so protocol tests
//! exercise marshalling. One deliberate transport difference, exactly
//! as in kernel NFS: over TCP the READ/WRITE data is inline in the XDR
//! body; over RPC/RDMA it moves out of band via chunks and only the
//! count appears here.

use bytes::Bytes;
use fs_backend::{Attr, FileKind, FsError};
use onc_rpc::REPLY_HEADER_LEN;
use xdr::{Decoder, Encoder, Result as XdrResult, XdrCodec, XdrError};

/// The NFS program number.
pub const NFS_PROGRAM: u32 = 100_003;
/// NFS version 3.
pub const NFS_VERSION: u32 = 3;

/// The directory transfer size: the `count` (`dircount`/`maxcount`) a
/// client asks of each READDIR/READDIRPLUS, so the most directory
/// listing one reply carries. A listing longer than this takes several
/// calls, each resuming at the last cookie of the one before. Fixed,
/// like the kernel client's `dtsize`; there is no option for it.
pub const NFS_DTSIZE: u32 = 32 * 1024;

/// Longest symlink target the server stores, hence the longest string a
/// READLINK reply carries.
pub const NFS3_MAXPATHLEN: usize = 1024;

/// Upper bound on the encoded RPC reply to a READDIR or READDIRPLUS
/// asking for `count` bytes: `count` bounds the `resok` body, in front
/// of which sit the RPC reply header and the NFS status.
pub const fn readdir_reply_max(count: u32) -> u64 {
    (REPLY_HEADER_LEN + 4) as u64 + count as u64
}

/// Upper bound on the encoded RPC reply to a READLINK: header, status
/// and an XDR string of [`NFS3_MAXPATHLEN`] bytes.
pub const READLINK_REPLY_MAX: u64 =
    (REPLY_HEADER_LEN + 4 + 4 + NFS3_MAXPATHLEN.next_multiple_of(4)) as u64;

/// NFSv3 procedure numbers (RFC 1813).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum NfsProc {
    Null = 0,
    Getattr = 1,
    Setattr = 2,
    Lookup = 3,
    Access = 4,
    Readlink = 5,
    Read = 6,
    Write = 7,
    Create = 8,
    Mkdir = 9,
    Symlink = 10,
    Remove = 12,
    Rmdir = 13,
    Rename = 14,
    Readdir = 16,
    ReaddirPlus = 17,
    Fsstat = 18,
    Commit = 21,
}

impl NfsProc {
    /// Parse a wire procedure number.
    pub fn from_u32(v: u32) -> Option<NfsProc> {
        Some(match v {
            0 => NfsProc::Null,
            1 => NfsProc::Getattr,
            2 => NfsProc::Setattr,
            3 => NfsProc::Lookup,
            4 => NfsProc::Access,
            5 => NfsProc::Readlink,
            6 => NfsProc::Read,
            7 => NfsProc::Write,
            8 => NfsProc::Create,
            9 => NfsProc::Mkdir,
            10 => NfsProc::Symlink,
            12 => NfsProc::Remove,
            13 => NfsProc::Rmdir,
            14 => NfsProc::Rename,
            16 => NfsProc::Readdir,
            17 => NfsProc::ReaddirPlus,
            18 => NfsProc::Fsstat,
            21 => NfsProc::Commit,
            _ => return None,
        })
    }

    /// Protocol name, e.g. for latency-anatomy tables keyed by wire
    /// procedure number.
    pub fn name(self) -> &'static str {
        match self {
            NfsProc::Null => "NULL",
            NfsProc::Getattr => "GETATTR",
            NfsProc::Setattr => "SETATTR",
            NfsProc::Lookup => "LOOKUP",
            NfsProc::Access => "ACCESS",
            NfsProc::Readlink => "READLINK",
            NfsProc::Read => "READ",
            NfsProc::Write => "WRITE",
            NfsProc::Create => "CREATE",
            NfsProc::Mkdir => "MKDIR",
            NfsProc::Symlink => "SYMLINK",
            NfsProc::Remove => "REMOVE",
            NfsProc::Rmdir => "RMDIR",
            NfsProc::Rename => "RENAME",
            NfsProc::Readdir => "READDIR",
            NfsProc::ReaddirPlus => "READDIRPLUS",
            NfsProc::Fsstat => "FSSTAT",
            NfsProc::Commit => "COMMIT",
        }
    }

    /// `name()` for a raw wire procedure number, or `"proc<N>"`-style
    /// fallback via `None` for unknown numbers.
    pub fn name_of(v: u32) -> Option<&'static str> {
        NfsProc::from_u32(v).map(NfsProc::name)
    }
}

/// NFSv3 status codes (subset).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum NfsStat {
    Ok = 0,
    NoEnt = 2,
    Io = 5,
    Exist = 17,
    NotDir = 20,
    IsDir = 21,
    Inval = 22,
    NameTooLong = 63,
    NotEmpty = 66,
    Stale = 70,
    BadCookie = 10003,
    TooSmall = 10005,
}

impl NfsStat {
    /// Parse a wire status.
    pub fn from_u32(v: u32) -> XdrResult<NfsStat> {
        Ok(match v {
            0 => NfsStat::Ok,
            2 => NfsStat::NoEnt,
            5 => NfsStat::Io,
            17 => NfsStat::Exist,
            20 => NfsStat::NotDir,
            21 => NfsStat::IsDir,
            22 => NfsStat::Inval,
            63 => NfsStat::NameTooLong,
            66 => NfsStat::NotEmpty,
            70 => NfsStat::Stale,
            10003 => NfsStat::BadCookie,
            10005 => NfsStat::TooSmall,
            d => return Err(XdrError::BadDiscriminant(d)),
        })
    }
}

impl From<FsError> for NfsStat {
    fn from(e: FsError) -> NfsStat {
        match e {
            FsError::NotFound => NfsStat::NoEnt,
            FsError::Exists => NfsStat::Exist,
            FsError::NotDir => NfsStat::NotDir,
            FsError::IsDir => NfsStat::IsDir,
            FsError::NotEmpty => NfsStat::NotEmpty,
            FsError::Stale => NfsStat::Stale,
            FsError::NotSymlink => NfsStat::Inval,
            FsError::NoSpace => NfsStat::Io,
            FsError::BadCookie => NfsStat::BadCookie,
        }
    }
}

/// An NFS file handle (opaque to clients; wraps the inode number).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileHandle(pub u64);

impl XdrCodec for FileHandle {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_opaque(&self.0.to_be_bytes());
    }

    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        let raw = dec.get_opaque()?;
        if raw.len() != 8 {
            return Err(XdrError::LengthOutOfRange(raw.len() as u32));
        }
        let mut a = [0u8; 8];
        a.copy_from_slice(raw);
        Ok(FileHandle(u64::from_be_bytes(a)))
    }
}

/// fattr3 (subset: the fields the workloads consume).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fattr {
    /// File type.
    pub kind: FileKind,
    /// Link count.
    pub nlink: u32,
    /// Size in bytes.
    pub size: u64,
    /// File id (inode).
    pub fileid: u64,
    /// Modification time, virtual nanoseconds.
    pub mtime_ns: u64,
    /// Change time, virtual nanoseconds.
    pub ctime_ns: u64,
}

impl Fattr {
    /// Build from a VFS attribute record.
    pub fn from_attr(a: &Attr) -> Fattr {
        Fattr {
            kind: a.kind,
            nlink: a.nlink,
            size: a.size,
            fileid: a.id.0,
            mtime_ns: a.mtime.as_nanos(),
            ctime_ns: a.ctime.as_nanos(),
        }
    }

    /// The file handle for this attribute record.
    pub fn handle(&self) -> FileHandle {
        FileHandle(self.fileid)
    }
}

fn kind_to_u32(k: FileKind) -> u32 {
    match k {
        FileKind::Regular => 1,
        FileKind::Dir => 2,
        FileKind::Symlink => 5,
    }
}

fn kind_from_u32(v: u32) -> XdrResult<FileKind> {
    Ok(match v {
        1 => FileKind::Regular,
        2 => FileKind::Dir,
        5 => FileKind::Symlink,
        d => return Err(XdrError::BadDiscriminant(d)),
    })
}

impl XdrCodec for Fattr {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(kind_to_u32(self.kind))
            .put_u32(0o644) // mode
            .put_u32(self.nlink)
            .put_u32(0) // uid
            .put_u32(0) // gid
            .put_u64(self.size)
            .put_u64(self.size) // used
            .put_u64(0) // rdev
            .put_u64(1) // fsid
            .put_u64(self.fileid)
            // atime/mtime/ctime as (secs, nsecs)
            .put_u32((self.mtime_ns / 1_000_000_000) as u32)
            .put_u32((self.mtime_ns % 1_000_000_000) as u32)
            .put_u32((self.mtime_ns / 1_000_000_000) as u32)
            .put_u32((self.mtime_ns % 1_000_000_000) as u32)
            .put_u32((self.ctime_ns / 1_000_000_000) as u32)
            .put_u32((self.ctime_ns % 1_000_000_000) as u32);
    }

    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        let kind = kind_from_u32(dec.get_u32()?)?;
        let _mode = dec.get_u32()?;
        let nlink = dec.get_u32()?;
        let _uid = dec.get_u32()?;
        let _gid = dec.get_u32()?;
        let size = dec.get_u64()?;
        let _used = dec.get_u64()?;
        let _rdev = dec.get_u64()?;
        let _fsid = dec.get_u64()?;
        let fileid = dec.get_u64()?;
        let _at_s = dec.get_u32()?;
        let _at_n = dec.get_u32()?;
        let mt_s = dec.get_u32()?;
        let mt_n = dec.get_u32()?;
        let ct_s = dec.get_u32()?;
        let ct_n = dec.get_u32()?;
        Ok(Fattr {
            kind,
            nlink,
            size,
            fileid,
            mtime_ns: mt_s as u64 * 1_000_000_000 + mt_n as u64,
            ctime_ns: ct_s as u64 * 1_000_000_000 + ct_n as u64,
        })
    }
}

/// A directory entry on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDirEntry {
    /// Inode number.
    pub fileid: u64,
    /// Name.
    pub name: String,
    /// Type.
    pub kind: FileKind,
    /// Resume point: a READDIR passing this cookie (with the listing's
    /// `cookieverf`) continues with the entry after this one.
    pub cookie: u64,
}

/// The wire form of a [`WireDirEntry`], from borrowed parts: the server
/// lists a directory without owning a copy of every name.
fn encode_dir_entry(enc: &mut Encoder, fileid: u64, name: &str, kind: FileKind, cookie: u64) {
    enc.put_u64(fileid)
        .put_string(name)
        .put_u32(kind_to_u32(kind))
        .put_u64(cookie);
}

impl XdrCodec for WireDirEntry {
    fn encode(&self, enc: &mut Encoder) {
        encode_dir_entry(enc, self.fileid, &self.name, self.kind, self.cookie);
    }

    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(WireDirEntry {
            fileid: dec.get_u64()?,
            name: dec.get_string()?,
            kind: kind_from_u32(dec.get_u32()?)?,
            cookie: dec.get_u64()?,
        })
    }
}

/// One READDIRPLUS entry: the name, its post-op attributes and handle.
pub type PlusEntry = (WireDirEntry, Option<Fattr>, FileHandle);

/// Decode the READDIRPLUS additions behind a [`WireDirEntry`].
pub fn decode_plus_entry(dec: &mut Decoder) -> XdrResult<PlusEntry> {
    Ok((
        WireDirEntry::decode(dec)?,
        dec.get_option(Fattr::decode)?,
        FileHandle::decode(dec)?,
    ))
}

/// ACCESS request/response bits (RFC 1813 §3.3.4).
pub mod access {
    /// Read file data or directory contents.
    pub const READ: u32 = 0x0001;
    /// Look up a name in a directory.
    pub const LOOKUP: u32 = 0x0002;
    /// Rewrite existing file data.
    pub const MODIFY: u32 = 0x0004;
    /// Append/extend.
    pub const EXTEND: u32 = 0x0008;
    /// Delete entries from a directory.
    pub const DELETE: u32 = 0x0010;
    /// Execute (files) / search (directories).
    pub const EXECUTE: u32 = 0x0020;
    /// Everything.
    pub const ALL: u32 = 0x003f;
}

// ---------------------------------------------------------------------
// Helpers shared by args/results
// ---------------------------------------------------------------------

/// Encode `(status)` and on success run `f` for the body.
pub fn encode_res(stat: NfsStat, f: impl FnOnce(&mut Encoder)) -> Bytes {
    let mut enc = Encoder::new();
    enc.put_u32(stat as u32);
    if stat == NfsStat::Ok {
        f(&mut enc);
    }
    enc.finish()
}

/// Decode `(status)`; on success run `f` for the body.
pub fn decode_res<T>(
    body: Bytes,
    f: impl FnOnce(&mut Decoder) -> XdrResult<T>,
) -> XdrResult<Result<T, NfsStat>> {
    let mut dec = Decoder::new(&body);
    let stat = NfsStat::from_u32(dec.get_u32()?)?;
    if stat == NfsStat::Ok {
        Ok(Ok(f(&mut dec)?))
    } else {
        Ok(Err(stat))
    }
}

// ---------------------------------------------------------------------
// Typed argument/result records
// ---------------------------------------------------------------------

/// LOOKUP / CREATE / MKDIR / REMOVE / RMDIR arguments: (dir, name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirOpArgs {
    /// Parent directory handle.
    pub dir: FileHandle,
    /// Entry name.
    pub name: String,
}

impl XdrCodec for DirOpArgs {
    fn encode(&self, enc: &mut Encoder) {
        self.dir.encode(enc);
        enc.put_string(&self.name);
    }
    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(DirOpArgs {
            dir: FileHandle::decode(dec)?,
            name: dec.get_string()?,
        })
    }
}

/// READDIR / READDIRPLUS arguments (RFC 1813 §3.3.16-17).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReaddirArgs {
    /// Directory handle.
    pub dir: FileHandle,
    /// Resume after the entry that carried this cookie; 0 = from the
    /// start.
    pub cookie: u64,
    /// The `cookieverf` of the reply `cookie` came from (0 with cookie
    /// 0). The server answers `BadCookie` if the directory changed since.
    pub cookieverf: u64,
    /// READDIRPLUS only (`None` for READDIR): most bytes of names,
    /// fileids and cookies wanted.
    pub dircount: Option<u32>,
    /// Most bytes of `resok` body the reply may carry (READDIR's
    /// `count`, READDIRPLUS's `maxcount`).
    pub count: u32,
}

impl ReaddirArgs {
    /// Encode for READDIR (`dircount: None`) or READDIRPLUS.
    pub fn encode(&self, enc: &mut Encoder) {
        self.dir.encode(enc);
        enc.put_u64(self.cookie).put_u64(self.cookieverf);
        if let Some(dircount) = self.dircount {
            enc.put_u32(dircount);
        }
        enc.put_u32(self.count);
    }

    /// Decode READDIR arguments, or READDIRPLUS ones if `plus`.
    pub fn decode(dec: &mut Decoder, plus: bool) -> XdrResult<Self> {
        Ok(ReaddirArgs {
            dir: FileHandle::decode(dec)?,
            cookie: dec.get_u64()?,
            cookieverf: dec.get_u64()?,
            dircount: plus.then(|| dec.get_u32()).transpose()?,
            count: dec.get_u32()?,
        })
    }
}

/// `resok` bytes around the entries: cookieverf, the list terminator
/// and eof.
const DIRLIST_OVERHEAD: usize = 8 + 4 + 4;

/// Server side of READDIR/READDIRPLUS: builds a `resok` body that never
/// exceeds the `count` the client asked for (RFC 1813's linked-list
/// form: each entry behind a TRUE, then FALSE and `eof`).
pub struct DirListEncoder {
    entries: Encoder,
    /// READDIRPLUS: entries carry attributes and a handle.
    plus: bool,
    /// Most bytes of `resok` the client takes.
    count: usize,
    /// Bytes of names, fileids and cookies it still takes.
    dir_room: usize,
}

impl DirListEncoder {
    /// A list for `args`. However much the client asks for, one reply
    /// carries [`NFS_DTSIZE`] at most (RFC 1813 lets a server return
    /// less than `count`): a caller cannot make the server marshal a
    /// whole directory at once.
    pub fn new(args: &ReaddirArgs) -> DirListEncoder {
        DirListEncoder {
            entries: Encoder::new(),
            plus: args.dircount.is_some(),
            count: args.count.min(NFS_DTSIZE) as usize,
            dir_room: args.dircount.unwrap_or(u32::MAX) as usize,
        }
    }

    /// Append the entry `name` with its resume `cookie`; `false` (and
    /// nothing appended) if it does not fit what is left of the count.
    pub fn push(&mut self, name: &str, cookie: u64, attr: &Fattr) -> bool {
        let dir_info = 8 + 4 + name.len().next_multiple_of(4) + 8;
        let mark = self.entries.len();
        let e = &mut self.entries;
        e.put_bool(true);
        encode_dir_entry(e, attr.fileid, name, attr.kind, cookie);
        if self.plus {
            e.put_bool(true);
            attr.encode(e);
            attr.handle().encode(e);
        }
        if DIRLIST_OVERHEAD + e.len() > self.count || dir_info > self.dir_room {
            e.truncate(mark);
            return false;
        }
        self.dir_room -= dir_info;
        true
    }

    /// The reply body: `Ok` + `resok`, or `TooSmall` when the count has
    /// no room for the first entry of a listing that has one (or for an
    /// empty list).
    pub fn finish(self, cookieverf: u64, eof: bool) -> Bytes {
        let nothing_fit = self.entries.is_empty() && !eof;
        if nothing_fit || DIRLIST_OVERHEAD > self.count {
            return encode_res(NfsStat::TooSmall, |_| {});
        }
        encode_res(NfsStat::Ok, |e| {
            e.put_u64(cookieverf)
                .put_raw(self.entries.as_slice())
                .put_bool(false)
                .put_bool(eof);
        })
    }
}

/// A decoded READDIR/READDIRPLUS `resok`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirList<E> {
    /// Verifier to present with any of these entries' cookies.
    pub cookieverf: u64,
    /// The entries, in directory order.
    pub entries: Vec<E>,
    /// No entries follow the last one.
    pub eof: bool,
}

impl<E> DirList<E> {
    /// Decode, reading each entry with `entry` ([`WireDirEntry::decode`]
    /// for READDIR, [`decode_plus_entry`] for READDIRPLUS).
    pub fn decode(
        dec: &mut Decoder,
        mut entry: impl FnMut(&mut Decoder) -> XdrResult<E>,
    ) -> XdrResult<Self> {
        let cookieverf = dec.get_u64()?;
        let mut entries = Vec::new();
        while dec.get_bool()? {
            entries.push(entry(dec)?);
        }
        Ok(DirList {
            cookieverf,
            entries,
            eof: dec.get_bool()?,
        })
    }
}

/// READ arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadArgs {
    /// File handle.
    pub file: FileHandle,
    /// Byte offset.
    pub offset: u64,
    /// Bytes requested.
    pub count: u32,
}

impl XdrCodec for ReadArgs {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset).put_u32(self.count);
    }
    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(ReadArgs {
            file: FileHandle::decode(dec)?,
            offset: dec.get_u64()?,
            count: dec.get_u32()?,
        })
    }
}

/// READ result head (data travels inline over TCP, via chunks over
/// RDMA).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadResHead {
    /// Post-op attributes.
    pub attr: Fattr,
    /// Bytes returned.
    pub count: u32,
    /// End of file reached.
    pub eof: bool,
}

impl XdrCodec for ReadResHead {
    fn encode(&self, enc: &mut Encoder) {
        self.attr.encode(enc);
        enc.put_u32(self.count).put_bool(self.eof);
    }
    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(ReadResHead {
            attr: Fattr::decode(dec)?,
            count: dec.get_u32()?,
            eof: dec.get_bool()?,
        })
    }
}

/// WRITE argument head (data inline over TCP, via read chunks over
/// RDMA).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteArgsHead {
    /// File handle.
    pub file: FileHandle,
    /// Byte offset.
    pub offset: u64,
    /// Bytes being written.
    pub count: u32,
    /// Stability: false = UNSTABLE (needs COMMIT), true = FILE_SYNC.
    pub stable: bool,
}

impl XdrCodec for WriteArgsHead {
    fn encode(&self, enc: &mut Encoder) {
        self.file.encode(enc);
        enc.put_u64(self.offset)
            .put_u32(self.count)
            .put_bool(self.stable);
    }
    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(WriteArgsHead {
            file: FileHandle::decode(dec)?,
            offset: dec.get_u64()?,
            count: dec.get_u32()?,
            stable: dec.get_bool()?,
        })
    }
}

/// WRITE result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteRes {
    /// Post-op attributes.
    pub attr: Fattr,
    /// Bytes accepted into the file.
    pub count: u32,
    /// Write verifier: the server's boot-instance cookie (RFC 1813
    /// §3.3.7). A client holding UNSTABLE writes compares this across
    /// replies — a change means the server restarted and may have lost
    /// uncommitted data, so everything pending must be re-driven.
    pub verf: u64,
}

impl XdrCodec for WriteRes {
    fn encode(&self, enc: &mut Encoder) {
        self.attr.encode(enc);
        enc.put_u32(self.count).put_u64(self.verf);
    }
    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(WriteRes {
            attr: Fattr::decode(dec)?,
            count: dec.get_u32()?,
            verf: dec.get_u64()?,
        })
    }
}

/// COMMIT result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRes {
    /// Write verifier at commit time. Must match the verifier returned
    /// with the UNSTABLE writes being committed; a mismatch tells the
    /// client the server rebooted in between and the writes must be
    /// re-sent before the commit means anything.
    pub verf: u64,
}

impl XdrCodec for CommitRes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.verf);
    }
    fn decode(dec: &mut Decoder) -> XdrResult<Self> {
        Ok(CommitRes {
            verf: dec.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr() -> Fattr {
        Fattr {
            kind: FileKind::Regular,
            nlink: 1,
            size: 12345,
            fileid: 42,
            mtime_ns: 5_500_000_123,
            ctime_ns: 6_000_000_456,
        }
    }

    #[test]
    fn fattr_roundtrip() {
        let a = attr();
        assert_eq!(Fattr::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn file_handle_roundtrip() {
        let fh = FileHandle(0xdead_beef_0000_0042);
        assert_eq!(FileHandle::from_bytes(&fh.to_bytes()).unwrap(), fh);
    }

    #[test]
    fn args_roundtrip() {
        let a = DirOpArgs {
            dir: FileHandle(1),
            name: "hello.txt".into(),
        };
        assert_eq!(DirOpArgs::from_bytes(&a.to_bytes()).unwrap(), a);

        let r = ReadArgs {
            file: FileHandle(9),
            offset: 1 << 40,
            count: 131072,
        };
        assert_eq!(ReadArgs::from_bytes(&r.to_bytes()).unwrap(), r);

        let w = WriteArgsHead {
            file: FileHandle(9),
            offset: 4096,
            count: 65536,
            stable: false,
        };
        assert_eq!(WriteArgsHead::from_bytes(&w.to_bytes()).unwrap(), w);

        let wr = WriteRes {
            attr: attr(),
            count: 65536,
            verf: 0xb007_0000_0000_0001,
        };
        assert_eq!(WriteRes::from_bytes(&wr.to_bytes()).unwrap(), wr);

        let cr = CommitRes {
            verf: 0xb007_0000_0000_0002,
        };
        assert_eq!(CommitRes::from_bytes(&cr.to_bytes()).unwrap(), cr);
    }

    #[test]
    fn res_encoding_success_and_error() {
        let body = encode_res(NfsStat::Ok, |e| {
            attr().encode(e);
        });
        let got = decode_res(body, Fattr::decode).unwrap();
        assert_eq!(got, Ok(attr()));

        let body = encode_res(NfsStat::NoEnt, |_| unreachable!());
        let got = decode_res(body, Fattr::decode).unwrap();
        assert_eq!(got, Err(NfsStat::NoEnt));
    }

    #[test]
    fn error_mapping() {
        assert_eq!(NfsStat::from(FsError::NotFound), NfsStat::NoEnt);
        assert_eq!(NfsStat::from(FsError::Stale), NfsStat::Stale);
        assert_eq!(NfsStat::from(FsError::NotEmpty), NfsStat::NotEmpty);
    }

    #[test]
    fn proc_numbers_stable() {
        assert_eq!(NfsProc::from_u32(6), Some(NfsProc::Read));
        assert_eq!(NfsProc::from_u32(7), Some(NfsProc::Write));
        assert_eq!(NfsProc::from_u32(4), Some(NfsProc::Access));
        assert_eq!(NfsProc::from_u32(17), Some(NfsProc::ReaddirPlus));
        assert_eq!(NfsProc::from_u32(11), None);
        assert_eq!(NfsProc::from_u32(999), None);
    }

    #[test]
    fn dir_entry_roundtrip() {
        let e = WireDirEntry {
            fileid: 7,
            name: "subdir".into(),
            kind: FileKind::Dir,
            cookie: 9,
        };
        assert_eq!(WireDirEntry::from_bytes(&e.to_bytes()).unwrap(), e);
    }
}
