//! File-system behaviour tests across both back ends.

use fs_backend::{diskfs, diskfs_wal, tmpfs, DataStore, FileKind, Fs, FsError};
use sim_core::{Payload, SgList, Simulation};

#[test]
fn create_write_read_roundtrip_tmpfs() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let fs = tmpfs(&h);
    let root = fs.root();
    sim.block_on(async move {
        let f = fs.create(root, "data.bin").unwrap();
        let n = fs
            .write(f.id, 0, Payload::real(vec![7u8; 1000]))
            .await
            .unwrap();
        assert_eq!(n, 1000);
        let got = fs.read(f.id, 0, 1000).await.unwrap();
        assert_eq!(&got.materialize()[..], &[7u8; 1000]);
        assert_eq!(fs.getattr(f.id).unwrap().size, 1000);
        // Reads past EOF truncate.
        let tail = fs.read(f.id, 900, 500).await.unwrap();
        assert_eq!(tail.len(), 100);
        // Sparse region reads as zeros.
        fs.write(f.id, 5000, Payload::real(vec![1])).await.unwrap();
        let hole = fs.read(f.id, 2000, 10).await.unwrap();
        assert_eq!(&hole.materialize()[..], &[0u8; 10]);
    });
}

#[test]
fn directory_tree_operations() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let fs = tmpfs(&h);
    let root = fs.root();
    sim.block_on(async move {
        let dir = fs.mkdir(root, "sub").unwrap();
        let f1 = fs.create(dir.id, "a").unwrap();
        let _f2 = fs.create(dir.id, "b").unwrap();
        fs.symlink(dir.id, "link", "../a").unwrap();

        assert_eq!(fs.lookup(root, "sub").unwrap().id, dir.id);
        assert_eq!(fs.lookup(dir.id, "a").unwrap().id, f1.id);
        assert_eq!(fs.lookup(dir.id, "zzz").unwrap_err(), FsError::NotFound);
        assert_eq!(
            fs.readlink(fs.lookup(dir.id, "link").unwrap().id).unwrap(),
            "../a"
        );
        assert_eq!(fs.readlink(f1.id).unwrap_err(), FsError::NotSymlink);

        let entries = fs.readdir(dir.id).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "link"]);
        assert_eq!(entries[2].kind, FileKind::Symlink);

        assert_eq!(fs.create(dir.id, "a").unwrap_err(), FsError::Exists);
        assert_eq!(fs.rmdir(root, "sub").unwrap_err(), FsError::NotEmpty);
        fs.remove(dir.id, "a").unwrap();
        fs.remove(dir.id, "b").unwrap();
        fs.remove(dir.id, "link").unwrap();
        fs.rmdir(root, "sub").unwrap();
        assert_eq!(fs.lookup(root, "sub").unwrap_err(), FsError::NotFound);
    });
}

#[test]
fn rename_moves_entries() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let fs = tmpfs(&h);
    let root = fs.root();
    sim.block_on(async move {
        let d1 = fs.mkdir(root, "d1").unwrap();
        let d2 = fs.mkdir(root, "d2").unwrap();
        let f = fs.create(d1.id, "x").unwrap();
        fs.rename(d1.id, "x", d2.id, "y").unwrap();
        assert_eq!(fs.lookup(d1.id, "x").unwrap_err(), FsError::NotFound);
        assert_eq!(fs.lookup(d2.id, "y").unwrap().id, f.id);
    });
}

#[test]
fn stale_ids_rejected_after_remove() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let fs = tmpfs(&h);
    let root = fs.root();
    sim.block_on(async move {
        let f = fs.create(root, "gone").unwrap();
        fs.remove(root, "gone").unwrap();
        assert_eq!(fs.getattr(f.id).unwrap_err(), FsError::Stale);
        assert!(fs.read(f.id, 0, 10).await.is_err());
    });
}

#[test]
fn diskfs_contents_survive_cache_pressure() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    // Tiny cache: 1 MiB, so an 8 MiB file cycles through it.
    let raid = fs_backend::Raid0::paper_array(&h);
    let fs = fs_backend::Fs::new(
        &h,
        fs_backend::CachedDiskStore::new(&h, 0, raid, 1 << 20, 256 * 1024),
    );
    let root = fs.root();
    sim.block_on(async move {
        let f = fs.create(root, "big").unwrap();
        fs.write(f.id, 0, Payload::synthetic(9, 8 << 20))
            .await
            .unwrap();
        fs.commit(f.id).await.unwrap();
        // Read it all back; most will miss.
        let got = fs.read(f.id, 0, 8 << 20).await.unwrap();
        assert!(got.content_eq(&Payload::synthetic(9, 8 << 20)));
        let cache = fs.store().cache();
        assert!(cache.misses() > 0, "expected disk traffic");
    });
}

#[test]
fn diskfs_cached_reads_are_fast_uncached_are_disk_bound() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let fs = std::rc::Rc::new(diskfs(&h, 64 << 20)); // 64 MiB RAM
    let root = fs.root();
    let fs2 = fs.clone();
    let h2 = h.clone();
    let (hot, cold) = sim.block_on(async move {
        let f = fs2.create(root, "file").unwrap();
        fs2.write(f.id, 0, Payload::synthetic(4, 16 << 20))
            .await
            .unwrap();
        // Hot: just written, resident.
        let t0 = h2.now();
        fs2.read(f.id, 0, 16 << 20).await.unwrap();
        let hot = h2.now().saturating_since(t0);
        // Evict by writing a second large file.
        let g = fs2.create(root, "evictor").unwrap();
        fs2.write(g.id, 0, Payload::synthetic(5, 60 << 20))
            .await
            .unwrap();
        let t0 = h2.now();
        fs2.read(f.id, 0, 16 << 20).await.unwrap();
        let cold = h2.now().saturating_since(t0);
        (hot, cold)
    });
    assert!(
        cold.as_nanos() > hot.as_nanos() * 10,
        "cold read ({cold}) should be much slower than hot ({hot})"
    );
}

#[test]
fn commit_is_idempotent_and_durable_timing() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let fs = std::rc::Rc::new(diskfs(&h, 64 << 20));
    let root = fs.root();
    let fs2 = fs.clone();
    let h2 = h.clone();
    sim.block_on(async move {
        let f = fs2.create(root, "f").unwrap();
        fs2.write(f.id, 0, Payload::synthetic(1, 4 << 20))
            .await
            .unwrap();
        let t0 = h2.now();
        fs2.commit(f.id).await.unwrap();
        let first = h2.now().saturating_since(t0);
        assert!(first.as_nanos() > 0, "commit must hit the disks");
        let t0 = h2.now();
        fs2.commit(f.id).await.unwrap();
        let second = h2.now().saturating_since(t0);
        assert_eq!(second.as_nanos(), 0, "clean commit is free");
    });
}

/// Page through `dir` taking `per_page` entries at a time; the names in
/// the order they came.
fn list_paged(fs: &fs_backend::Tmpfs, dir: fs_backend::FileId, per_page: usize) -> Vec<String> {
    let (mut names, mut cookie, mut verf) = (Vec::new(), 0, 0);
    loop {
        let mut taken = 0;
        let page = fs
            .readdir_from(dir, cookie, verf, &mut |name, attr| {
                if taken == per_page {
                    return false;
                }
                taken += 1;
                names.push(name.to_string());
                cookie = attr.id.0;
                true
            })
            .unwrap();
        verf = page.verf;
        if page.eof {
            return names;
        }
        assert_eq!(taken, per_page, "a short page must be the last");
    }
}

#[test]
fn readdir_from_pages_in_name_order_without_gaps_or_repeats() {
    let mut sim = Simulation::new(1);
    let fs = tmpfs(&sim.handle());
    let root = fs.root();
    sim.block_on(async move {
        let dir = fs.mkdir(root, "d").unwrap().id;
        // Created out of name order; one page boundary falls on every
        // entry for per_page = 1.
        for i in [7, 3, 9, 0, 5, 1, 8, 2, 6, 4] {
            fs.create(dir, &format!("n{i}")).unwrap();
        }
        let whole: Vec<String> = fs
            .readdir(dir)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(whole, (0..10).map(|i| format!("n{i}")).collect::<Vec<_>>());
        for per_page in [1, 3, 10, 11] {
            assert_eq!(list_paged(&fs, dir, per_page), whole, "{per_page} per page");
        }
        // An empty directory is one empty page at eof.
        let empty = fs.mkdir(root, "e").unwrap().id;
        let page = fs.readdir_from(empty, 0, 0, &mut |_, _| unreachable!());
        assert!(page.unwrap().eof);
    });
}

#[test]
fn readdir_from_rejects_a_resume_across_a_directory_change() {
    let mut sim = Simulation::new(1);
    let fs = tmpfs(&sim.handle());
    let root = fs.root();
    sim.block_on(async move {
        let dir = fs.mkdir(root, "d").unwrap().id;
        let a = fs.create(dir, "a").unwrap().id;
        fs.create(dir, "b").unwrap();
        let first_only = &mut |_: &str, attr: &fs_backend::Attr| attr.id == a;
        let page = fs.readdir_from(dir, 0, 0, first_only).unwrap();
        assert!(!page.eof);
        let resume = |verf| fs.readdir_from(dir, a.0, verf, &mut |_, _| true);
        assert!(resume(page.verf).unwrap().eof);
        // No simulated time passes here: the verifier is a change
        // count, not a timestamp.
        fs.create(dir, "c").unwrap();
        assert_eq!(resume(page.verf).unwrap_err(), FsError::BadCookie);
        let now = fs.readdir_from(dir, 0, 0, first_only).unwrap().verf;
        assert_ne!(now, page.verf);
        assert!(resume(now).unwrap().eof);
        // A cookie naming an entry of another directory, or nothing.
        assert_eq!(
            fs.readdir_from(dir, dir.0, now, &mut |_, _| true)
                .unwrap_err(),
            FsError::BadCookie
        );
        assert_eq!(
            fs.readdir_from(dir, 9999, now, &mut |_, _| true)
                .unwrap_err(),
            FsError::BadCookie
        );
        // A renamed entry resumes from its new place under the new stamp.
        fs.rename(dir, "a", dir, "z").unwrap();
        let now = fs.readdir_from(dir, 0, 0, &mut |_, _| false).unwrap().verf;
        assert!(
            fs.readdir_from(dir, a.0, now, &mut |_, _| unreachable!())
                .unwrap()
                .eof
        );
    });
}

/// Two sequential streams 64 GiB apart taking turns on one arm:
/// every request follows one from the *other* stream, so every one
/// of them repositions. `Disk::transfer_at` decides seek-or-
/// sequential from `head_pos` when the request is *enqueued* — while
/// the other stream's request is still on the arm and `head_pos`
/// still holds this stream's own last end — so it charges 2 seeks
/// in 200 requests (1 756 ms) instead of 200 (2 548 ms). Fixing it
/// moves `raid_read` and Figure 10; see DESIGN.md §4 "Known model
/// errors".
#[test]
#[ignore = "known defect: seek decided at enqueue, 2 seeks of 200 — see DESIGN.md §4"]
fn interleaved_streams_pay_a_seek_per_switch() {
    const REQUESTS: u64 = 100;
    const BYTES: u64 = 256 << 10;
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let disk = fs_backend::Disk::scsi_30mb(&h, 0);
    for stream in 0..2u64 {
        let disk = disk.clone();
        sim.spawn(async move {
            for i in 0..REQUESTS {
                disk.transfer_at((stream << 36) + i * BYTES, BYTES).await;
            }
        });
    }
    sim.run();
    let each = sim_core::SimDuration::from_millis(4) + sim_core::transfer_time(BYTES, 30_000_000);
    assert_eq!(sim.now().as_nanos(), (each * (2 * REQUESTS)).as_nanos());
}

/// A shrink discards the bytes past the new size: growing the file back
/// reads zeros there, not what was written before the shrink.
#[test]
fn tmpfs_truncate_then_extend_reads_zeros() {
    let mut sim = Simulation::new(1);
    let fs = tmpfs(&sim.handle());
    let root = fs.root();
    sim.block_on(async move {
        let f = fs.create(root, "t").unwrap().id;
        fs.write(f, 0, Payload::real(b"AAAAAAAA".to_vec()))
            .await
            .unwrap();
        fs.setattr_size(f, 0).unwrap();
        fs.setattr_size(f, 8).unwrap();
        let got = fs.read(f, 0, 8).await.unwrap();
        assert_eq!(&got.materialize()[..], &[0u8; 8]);
    });
}

/// The same on the disk store, with the file regrown by a write past
/// the cut: the gap between the cut and the write reads zeros.
#[test]
fn diskfs_truncate_then_write_past_the_cut_leaves_zeros() {
    let mut sim = Simulation::new(1);
    let fs = diskfs(&sim.handle(), 64 << 20);
    let root = fs.root();
    sim.block_on(async move {
        let f = fs.create(root, "t").unwrap().id;
        fs.write(f, 0, Payload::real(b"AAAAAAAA".to_vec()))
            .await
            .unwrap();
        fs.setattr_size(f, 4).unwrap();
        fs.write(f, 7, Payload::real(b"B".to_vec())).await.unwrap();
        let got = fs.read(f, 0, 8).await.unwrap();
        assert_eq!(&got.materialize()[..], b"AAAA\0\0\0B");
    });
}

/// What one run of [`fold_writes`] through one entry point leaves
/// behind: the file's bytes, the `fs.wal.{appends,appended_bytes}`
/// counts of its fresh simulation (`None` without a log) and the
/// instant it finished.
#[derive(Debug, PartialEq)]
struct FoldRun {
    contents: Vec<u8>,
    wal: Option<(u64, u64)>,
    finished_ns: u64,
}

/// Overlapping small writes, one past the 1 MiB WAL flush watermark,
/// a commit between them.
fn fold_writes() -> Vec<(u64, Payload)> {
    vec![
        (0, Payload::real(vec![b'x'; 4096])),
        (1000, Payload::synthetic(3, 2 << 20)),
        (3 << 20, Payload::real(vec![b'y'; 100])),
        (500, Payload::real(vec![b'z'; 10])),
    ]
}

/// Write `writes` into one new file of `fs`, committing halfway and at
/// the end; the file's bytes.
async fn fold_drive<S: DataStore>(fs: Fs<S>, sg: bool, writes: Vec<(u64, Payload)>) -> Vec<u8> {
    let f = fs.create(fs.root(), "f").unwrap().id;
    let half = writes.len() / 2;
    for (i, (off, data)) in writes.into_iter().enumerate() {
        let n = data.len();
        let wrote = if sg {
            fs.write_sg(f, off, SgList::from(data)).await
        } else {
            fs.write(f, off, data).await
        };
        assert_eq!(wrote.unwrap(), n);
        if i == half {
            fs.commit(f).await.unwrap();
        }
    }
    fs.commit(f).await.unwrap();
    let size = fs.getattr(f).unwrap().size;
    fs.read(f, 0, size).await.unwrap().materialize().to_vec()
}

/// Feed `writes` to a fresh tmpfs (`wal` false) or WAL-journaled disk
/// file system, through `Fs::write` or, with `sg`, through
/// `Fs::write_sg` with each payload as a one-piece list.
fn fold_run(wal: bool, sg: bool, writes: Vec<(u64, Payload)>) -> FoldRun {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let registry = h.metrics();
    let counts = move || {
        let get = |name| registry.get(&format!("fs.wal.{name}"));
        get("appends").zip(get("appended_bytes"))
    };
    let contents = if wal {
        let fs = diskfs_wal(&h, 64 << 20);
        sim.block_on(fold_drive(fs, sg, writes))
    } else {
        sim.block_on(fold_drive(tmpfs(&h), sg, writes))
    };
    FoldRun {
        contents,
        wal: counts(),
        finished_ns: h.now().as_nanos(),
    }
}

/// `Fs::write(p)` is `Fs::write_sg` of the one-piece list `[p]`: the
/// same bytes, the same WAL records and the same simulated instant.
#[test]
fn write_is_a_one_piece_write_sg() {
    for wal in [false, true] {
        let flat = fold_run(wal, false, fold_writes());
        let sg = fold_run(wal, true, fold_writes());
        assert_eq!(flat.wal.is_some(), wal);
        assert_eq!(flat, sg, "wal = {wal}");
    }
}

/// An empty payload appends no WAL record through either entry point.
#[test]
fn an_empty_write_appends_no_wal_record() {
    for sg in [false, true] {
        let writes = vec![(0, Payload::real(vec![1; 8])), (4, Payload::empty())];
        assert_eq!(fold_run(true, sg, writes).wal, Some((1, 8)), "sg = {sg}");
    }
}
