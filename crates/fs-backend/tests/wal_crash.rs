//! Crash/recovery tests for the write-ahead log: power failure at a
//! seeded point, replay on restart, committed-survives /
//! uncommitted-cleanly-lost, and same-seed determinism. At the end, a
//! crash-point enumerator power-fails generated sequences at every
//! log-disk transfer boundary and checks each replay against a
//! reference model.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use proptest::prelude::*;

use fs_backend::{diskfs_wal, FileId, Wal, WalRecord};
use sim_core::{ExtentMap, Payload, Sim, SimDuration, SimRng, SimTime, Simulation};

/// Reads the series `fs.wal.{name}` of the simulation behind `h`.
fn wal_count(h: &Sim) -> impl Fn(&str) -> u64 {
    let registry = h.metrics();
    move |name| registry.get(&format!("fs.wal.{name}")).unwrap()
}

#[test]
fn committed_survives_uncommitted_cleanly_lost() {
    let mut sim = Simulation::new(7);
    let h = sim.handle();
    let count = wal_count(&h);
    let fs = std::rc::Rc::new(diskfs_wal(&h, 1 << 30));
    let root = fs.root();
    sim.block_on(async move {
        let a = fs.create(root, "durable").unwrap();
        let b = fs.create(root, "volatile").unwrap();
        let a_data = Payload::synthetic(11, 1 << 20);
        let b_data = Payload::synthetic(22, 1 << 20);
        fs.write(a.id, 0, a_data.clone()).await.unwrap();
        fs.commit(a.id).await.unwrap();
        // B is written UNSTABLE-style: dirty in cache, WAL tail/flushed
        // only, never committed.
        fs.write(b.id, 0, b_data.clone()).await.unwrap();

        fs.store().power_fail_restart().await;

        let got_a = fs.read(a.id, 0, 1 << 20).await.unwrap();
        assert!(got_a.content_eq(&a_data), "committed data must survive");
        let got_b = fs.read(b.id, 0, 1 << 20).await.unwrap();
        assert!(
            got_b.content_eq(&Payload::zeros(1 << 20)),
            "uncommitted data must be cleanly lost (zeros), not torn"
        );
        assert!(count("replayed_records") > 0, "recovery replayed");
        assert!(count("truncated_records") > 0, "tail truncated");
    });
}

#[test]
fn group_commit_covers_all_files_in_one_batch() {
    let mut sim = Simulation::new(9);
    let h = sim.handle();
    let count = wal_count(&h);
    let fs = std::rc::Rc::new(diskfs_wal(&h, 1 << 30));
    let root = fs.root();
    sim.block_on(async move {
        let a = fs.create(root, "a").unwrap();
        let b = fs.create(root, "b").unwrap();
        fs.write(a.id, 0, Payload::synthetic(1, 256 * 1024))
            .await
            .unwrap();
        fs.write(b.id, 0, Payload::synthetic(2, 256 * 1024))
            .await
            .unwrap();
        // Committing ONE file group-commits the whole pending tail.
        fs.commit(a.id).await.unwrap();
        let wal = fs.store().wal().unwrap();
        assert_eq!(count("commits"), 1);
        assert_eq!(wal.committed_records(), 2);
        fs.store().power_fail_restart().await;
        let got_b = fs.read(b.id, 0, 256 * 1024).await.unwrap();
        assert!(
            got_b.content_eq(&Payload::synthetic(2, 256 * 1024)),
            "b rode a's group commit"
        );
    });
}

#[test]
fn clean_commit_costs_no_time_with_wal() {
    let mut sim = Simulation::new(3);
    let h = sim.handle();
    let fs = std::rc::Rc::new(diskfs_wal(&h, 1 << 30));
    let root = fs.root();
    sim.block_on({
        let h = h.clone();
        async move {
            let f = fs.create(root, "x").unwrap();
            fs.write(f.id, 0, Payload::synthetic(5, 64 * 1024))
                .await
                .unwrap();
            fs.commit(f.id).await.unwrap();
            let t0 = h.now();
            fs.commit(f.id).await.unwrap();
            assert_eq!(
                h.now().saturating_since(t0).as_nanos(),
                0,
                "clean commit must be free"
            );
        }
    });
}

/// Drive the seeded mid-commit power failure once; returns observables
/// that must be bit-identical across same-seed runs.
fn seeded_midcommit_run(seed: u64) -> (u64, u64, u64, u64, bool) {
    let mut sim = Simulation::new(seed);
    let h = sim.handle();
    let count = wal_count(&h);
    let fs = std::rc::Rc::new(diskfs_wal(&h, 1 << 30));
    let root = fs.root();
    let out = sim.block_on({
        let h = h.clone();
        async move {
            let f = fs.create(root, "victim").unwrap();
            // 14 x 64 KiB records stay below the 1 MiB flush watermark,
            // so the whole batch flushes inside commit(), not append().
            let rec = 64 * 1024u64;
            for i in 0..14u64 {
                fs.write(f.id, i * rec, Payload::synthetic(77 + i, rec))
                    .await
                    .unwrap();
            }
            let wal = fs.store().wal().unwrap();
            assert_eq!(wal.tail_records(), 14, "nothing flushed early");

            // Power-fail at a seeded point inside the group commit: the
            // ~896 KiB flush takes ~34 ms (4 ms seek + 30 MB/s), so any
            // delay in [1, 26] ms lands mid-commit, before the marker.
            let mut rng = h.fork_rng();
            let delay = SimDuration::from_millis(1 + rng.gen_range(25));
            let store_fs = fs.clone();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(delay).await;
                store_fs.store().power_fail_restart().await;
            });
            // The commit races the failure; it must not panic, and the
            // batch must not be applied.
            fs.commit(f.id).await.unwrap();

            let survived = fs
                .read(f.id, 0, rec)
                .await
                .unwrap()
                .content_eq(&Payload::synthetic(77, rec));
            (
                count("commits"),
                wal.committed_records(),
                count("truncated_records"),
                delay.as_nanos(),
                survived,
            )
        }
    });
    (out.0, out.1, out.2, out.3, out.4)
}

#[test]
fn seeded_power_fail_during_group_commit_is_deterministic() {
    let first = seeded_midcommit_run(0xC4A5);
    let second = seeded_midcommit_run(0xC4A5);
    assert_eq!(first, second, "same seed must replay bit-for-bit");
    let (commits, committed, truncated, _, survived) = first;
    assert_eq!(commits, 0, "the marker never landed");
    assert_eq!(committed, 0, "the whole batch is lost, never torn");
    assert!(truncated > 0);
    assert!(!survived, "mid-commit batch must not survive the failure");
    // A different seed picks a different failure point but the same
    // lost-batch outcome (the window spans the whole flush).
    let other = seeded_midcommit_run(0xBEEF);
    assert_ne!(first.3, other.3, "different seed, different fail point");
    assert_eq!(other.1, 0);
}

#[test]
fn recovery_after_interrupted_commit_then_recommit_survives() {
    let mut sim = Simulation::new(0xD00D);
    let h = sim.handle();
    let fs = std::rc::Rc::new(diskfs_wal(&h, 1 << 30));
    let root = fs.root();
    sim.block_on({
        let h = h.clone();
        async move {
            let f = fs.create(root, "twice").unwrap();
            let data = Payload::synthetic(5, 2 << 20);
            fs.write(f.id, 0, data.clone()).await.unwrap();
            let store_fs = fs.clone();
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(SimDuration::from_millis(5)).await;
                store_fs.store().power_fail_restart().await;
            });
            fs.commit(f.id).await.unwrap();
            // After restart the write is gone; the application layer
            // (NFS client) re-drives it, and the second commit runs
            // with no failure in flight.
            fs.write(f.id, 0, data.clone()).await.unwrap();
            fs.commit(f.id).await.unwrap();
            fs.store().power_fail_restart().await;
            let got = fs.read(f.id, 0, 2 << 20).await.unwrap();
            assert!(got.content_eq(&data), "re-driven commit must survive");
        }
    });
}

#[test]
fn wal_direct_two_phase_semantics() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let wal = Wal::new(&h);
    sim.block_on(async move {
        wal.append(FileId(1), 0, Payload::synthetic(1, 4096)).await;
        wal.append(FileId(1), 4096, Payload::synthetic(2, 4096))
            .await;
        assert_eq!(wal.tail_records(), 2);
        wal.flush().await;
        assert_eq!(wal.tail_records(), 0);
        assert_eq!(wal.flushed_records(), 2, "durable but uncommitted");
        assert_eq!(wal.committed_records(), 0);
        // Power failure here: flushed-but-unmarked records truncate.
        wal.power_fail();
        assert_eq!(wal.flushed_records(), 0);
        assert_eq!(wal.recover().await.len(), 0);
        // A full commit moves records behind the marker.
        wal.append(FileId(1), 0, Payload::synthetic(3, 4096)).await;
        wal.commit().await;
        assert_eq!(wal.committed_records(), 1);
        wal.power_fail();
        assert_eq!(wal.recover().await.len(), 1, "marker makes it durable");
    });
}

/// One generated UNSTABLE write: `(file, block, blocks, seed)`.
type GenWrite = (u64, u64, u64, u64);

fn arb_write() -> impl Strategy<Value = GenWrite> {
    (0u64..3, 0u64..32, 1u64..4, 1u64..1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying the recovered log twice converges to the same
    /// contents as replaying it once (idempotence), for any mix of
    /// overlapping writes across files.
    #[test]
    fn wal_replay_is_idempotent(
        writes in proptest::collection::vec(arb_write(), 1..32),
    ) {
        const BLOCK: u64 = 4096;
        let mut sim = Simulation::new(42);
        let h = sim.handle();
        let wal = Wal::new(&h);
        let replayed = sim.block_on(async move {
            for &(file, block, blocks, seed) in &writes {
                wal.append(
                    FileId(file),
                    block * BLOCK,
                    Payload::synthetic(seed, blocks * BLOCK),
                )
                .await;
            }
            wal.commit().await;
            wal.power_fail();
            wal.recover().await
        });
        let apply = |maps: &mut [ExtentMap; 3], rounds: usize| {
            for _ in 0..rounds {
                for r in &replayed {
                    maps[r.file.0 as usize].write(r.off, r.data.clone());
                }
            }
        };
        let mut once: [ExtentMap; 3] = Default::default();
        let mut twice: [ExtentMap; 3] = Default::default();
        apply(&mut once, 1);
        apply(&mut twice, 2);
        for f in 0..3 {
            let a = once[f].read(0, 36 * BLOCK);
            let b = twice[f].read(0, 36 * BLOCK);
            prop_assert!(a.content_eq(&b), "file {} diverged on re-replay", f);
        }
    }
}

/// The volatile tail flushes on append once it holds the 1 MiB
/// watermark (record framing included) and not one record before:
/// without a COMMIT, nothing else flushes it.
#[test]
fn size_watermark_triggers_flush_on_append() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let count = wal_count(&h);
    let wal = Wal::new(&h);
    sim.block_on(async move {
        // 16 KiB records frame to 16 416 bytes: 63 stay under 1 MiB,
        // the 64th reaches it.
        let record = 16 * 1024;
        for i in 0..63 {
            wal.append(FileId(1), i * record, Payload::synthetic(i, record))
                .await;
        }
        assert_eq!(count("flushes"), 0, "one record under the watermark");
        assert_eq!(wal.tail_records(), 63);
        wal.append(FileId(1), 63 * record, Payload::synthetic(63, record))
            .await;
        assert!(
            count("flushes") >= 1,
            "watermark must flush the tail during appends"
        );
        assert!(wal.tail_records() < 64);
    });
}

/// A truncate reaches the log as well as the contents: after a
/// power-fail, recovery must not replay committed bytes past a later
/// committed cut, whether the cut drops a record whole (0) or trims it
/// (4). The namespace keeps the cut size, so only a regrown file shows
/// the difference.
#[test]
fn a_power_fail_does_not_bring_truncated_bytes_back() {
    for cut in [0u64, 4] {
        let mut sim = Simulation::new(5);
        let fs = diskfs_wal(&sim.handle(), 64 << 20);
        let root = fs.root();
        let got = sim.block_on(async move {
            let f = fs.create(root, "t").unwrap().id;
            fs.write(f, 0, Payload::real(b"AAAAAAAA".to_vec()))
                .await
                .unwrap();
            fs.commit(f).await.unwrap();
            fs.setattr_size(f, cut).unwrap();
            fs.commit(f).await.unwrap();
            fs.store().power_fail_restart().await;
            fs.setattr_size(f, 8).unwrap();
            fs.read(f, 0, 8).await.unwrap().materialize().to_vec()
        });
        let mut want = vec![0u8; 8];
        want[..cut as usize].fill(b'A');
        assert_eq!(got, want, "cut at {cut}");
    }
}

/// A truncate shrinks the volatile tail it cuts: 63 records that sat
/// one under the watermark hold only their framing once their file is
/// cut to 0, so a 64th record no longer flushes.
#[test]
fn a_truncate_shrinks_the_tail_it_cuts() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let count = wal_count(&h);
    let wal = Wal::new(&h);
    sim.block_on(async move {
        let record = 16 * 1024;
        for i in 0..63 {
            wal.append(FileId(1), i * record, Payload::synthetic(i, record))
                .await;
        }
        wal.truncate_file(FileId(1), 0);
        wal.append(FileId(2), 0, Payload::synthetic(63, record))
            .await;
        assert_eq!(count("flushes"), 0);
        assert_eq!(wal.tail_records(), 64, "a cut record keeps its place");
        wal.commit().await;
        let replayed = wal.recover().await;
        assert_eq!(replayed.len(), 64);
        let bytes: u64 = replayed.iter().map(|r| r.data.len()).sum();
        assert_eq!(bytes, record);
    });
}

/// A COMMIT that starts while a watermark flush is on the log disk
/// covers that flush's batch: the 4 KiB record appended before the
/// 1 MiB append that started the flush survives a power failure.
#[test]
fn a_commit_during_a_watermark_flush_covers_its_batch() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let count = wal_count(&h);
    let wal = Wal::new(&h);
    sim.block_on(async move {
        wal.append(FileId(1), 0, Payload::synthetic(1, 4096)).await;
        let flusher = wal.clone();
        h.spawn(async move {
            flusher
                .append(FileId(2), 0, Payload::synthetic(2, 1 << 20))
                .await;
        });
        h.sleep(SimDuration::from_millis(1)).await;
        assert_eq!((wal.tail_records(), wal.flushed_records()), (0, 0));
        wal.commit().await;
        assert_eq!(wal.committed_records(), 2, "the in-flight batch");
        assert_eq!(count("commits"), 1);
        wal.power_fail();
        let replayed = wal.recover().await;
        assert!(
            replayed.iter().any(|r| r.file == FileId(1)),
            "the 4 KiB record acknowledged before the COMMIT was lost"
        );
    });
}

/// A truncate reaches a batch that is on its way to the log disk: the
/// cut bytes are not replayed once the batch is committed.
#[test]
fn a_truncate_during_a_flush_cuts_the_in_flight_batch() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let wal = Wal::new(&h);
    sim.block_on(async move {
        let flusher = wal.clone();
        h.spawn(async move {
            flusher
                .append(FileId(1), 0, Payload::synthetic(1, 1 << 20))
                .await;
        });
        h.sleep(SimDuration::from_millis(1)).await;
        wal.truncate_file(FileId(1), 4096);
        wal.commit().await;
        let replayed = wal.recover().await;
        let bytes: u64 = replayed.iter().map(|r| r.data.len()).sum();
        assert_eq!(bytes, 4096);
    });
}

/// A COMMIT whose batch a marker already queued will commit writes no
/// marker of its own: it waits for that marker, returns when it lands,
/// and the log counts one commit for the one record.
#[test]
fn a_commit_behind_a_queued_marker_writes_none() {
    let mut sim = Simulation::new(1);
    let h = sim.handle();
    let count = wal_count(&h);
    let wal = Wal::new(&h);
    sim.block_on(async move {
        wal.append(FileId(1), 0, Payload::synthetic(1, 4096)).await;
        let first = wal.clone();
        let first_done = Rc::new(Cell::new(None));
        let done = first_done.clone();
        let clock = h.clone();
        h.spawn(async move {
            first.commit().await;
            done.set(Some((clock.now(), first.committed_records())));
        });
        h.sleep(SimDuration::from_micros(10)).await;
        wal.commit().await;
        let second_at = h.now();
        h.sleep(SimDuration::from_millis(100)).await;
        let (first_at, durable) = first_done.get().expect("the first commit returned");
        assert_eq!(
            durable, 1,
            "the first commit returned before its record was durable"
        );
        assert_eq!(
            first_at, second_at,
            "the first commit waited for a marker of its own"
        );
        assert_eq!((count("commits"), count("committed_records")), (1, 1));
    });
}

// ---------------------------------------------------------------------
// Crash-point enumerator: every log-disk transfer boundary of a
// generated sequence is a power failure, checked against a reference
// model of what the log must replay.
// ---------------------------------------------------------------------

/// One step of a generated sequence.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Append `len` bytes at `off` of `file`; `spawn` runs it beside
    /// the steps that follow instead of awaiting it.
    Append {
        file: u64,
        off: u64,
        len: u64,
        spawn: bool,
    },
    /// Group commit, spawned or awaited.
    Commit { spawn: bool },
    /// `file` is truncated to `size`.
    Truncate { file: u64, size: u64 },
    /// A rejoin: cut the committed log to the count a returned commit
    /// saw (`stamp` picks which), then restart and replay.
    Rejoin { stamp: usize },
    /// The sequence waits this many nanoseconds.
    Gap(u64),
}

/// A short sequence of appends (some past the 1 MiB flush watermark),
/// commits, truncates, rejoin cuts and gaps.
fn generate(seed: u64) -> Vec<Step> {
    const LENS: [u64; 4] = [4 << 10, 64 << 10, 512 << 10, 1 << 20];
    const GAPS: [u64; 4] = [10_000, 1_000_000, 10_000_000, 40_000_000];
    let mut rng = SimRng::new(seed);
    let steps = 3 + rng.gen_range(10);
    (0..steps)
        .map(|_| match rng.gen_range(20) {
            0..=6 => Step::Append {
                file: 1 + rng.gen_range(2),
                off: rng.gen_range(64) << 12,
                len: LENS[rng.gen_range(4) as usize],
                spawn: rng.gen_bool(0.5),
            },
            7..=11 => Step::Commit {
                spawn: rng.gen_bool(0.5),
            },
            12..=13 => Step::Truncate {
                file: 1 + rng.gen_range(2),
                size: rng.gen_range(64) << 12,
            },
            14 => Step::Rejoin {
                stamp: rng.gen_range(4) as usize,
            },
            _ => Step::Gap(GAPS[rng.gen_range(4) as usize]),
        })
        .collect()
}

/// The reference model: what the log must hold, and how much of it a
/// crash must leave.
#[derive(Default)]
struct Model {
    /// Every record since the last restart's replay began, in append
    /// order, with the bytes of it no truncate has cut.
    log: Vec<(WalRecord, u64)>,
    /// Records covered by a commit that returned: a crash keeps them.
    durable: usize,
    /// `committed_records()` as each returned commit saw it: the counts
    /// a rejoin may cut to.
    stamps: Vec<u64>,
    /// Rejoin restarts so far; a commit that spans one covers nothing.
    restarts: u64,
    /// Set by the power failure under test: no step starts after it.
    crashed: bool,
}

impl Model {
    fn cut(&mut self, file: FileId, size: u64) {
        for (r, kept) in self.log.iter_mut().filter(|(r, _)| r.file == file) {
            *kept = (*kept).min(size.saturating_sub(r.off));
        }
    }

    /// A restart replays the first `keep` records and nothing else.
    fn restart(&mut self, keep: u64) {
        self.log.truncate(keep as usize);
        self.durable = self.log.len();
        self.stamps = vec![keep];
        self.restarts += 1;
    }

    /// The property `replayed` breaks, if any.
    fn check(&self, replayed: &[WalRecord]) -> Result<(), &'static str> {
        if replayed.len() < self.durable {
            return Err(
                "a record covered by a commit that returned before the crash was not replayed",
            );
        }
        for (i, got) in replayed.iter().enumerate() {
            let Some((want, kept)) = self.log.get(i) else {
                return Err("a record that was never appended was replayed");
            };
            let n = got.data.len().min(want.data.len());
            if (got.file, got.off) != (want.file, want.off)
                || !got.data.slice(0, n).content_eq(&want.data.slice(0, n))
            {
                return Err("a record that was never appended was replayed");
            }
            if got.data.len() > *kept {
                return Err("a byte past a truncate cut was replayed");
            }
            if got.data.len() < *kept {
                return Err("a replayed record lost a byte no truncate cut");
            }
        }
        Ok(())
    }
}

type Shared = Rc<RefCell<Model>>;

/// An append the model records in the poll that the log takes it.
async fn model_append(wal: Rc<Wal>, m: Shared, file: FileId, off: u64, data: Payload) {
    {
        let mut m = m.borrow_mut();
        if m.crashed {
            return;
        }
        let len = data.len();
        let record = WalRecord {
            file,
            off,
            data: data.clone(),
        };
        m.log.push((record, len));
    }
    wal.append(file, off, data).await;
}

/// A commit: once it returns, with no crash or restart since it began,
/// every record appended before it is durable.
async fn model_commit(wal: Rc<Wal>, m: Shared) {
    let (covers, restarts) = {
        let m = m.borrow();
        if m.crashed {
            return;
        }
        (m.log.len(), m.restarts)
    };
    wal.commit().await;
    let mut m = m.borrow_mut();
    if !m.crashed && m.restarts == restarts {
        m.durable = m.durable.max(covers);
        m.stamps.push(wal.committed_records());
    }
}

/// Run `steps` against the log; a failed property panics with `tag`.
async fn drive(h: Sim, wal: Rc<Wal>, m: Shared, steps: Vec<Step>, tag: String) {
    for (i, step) in steps.into_iter().enumerate() {
        if m.borrow().crashed {
            return;
        }
        match step {
            Step::Append {
                file,
                off,
                len,
                spawn,
            } => {
                let data = Payload::synthetic(1 + i as u64, len);
                let op = model_append(wal.clone(), m.clone(), FileId(file), off, data);
                if spawn {
                    h.spawn(op);
                } else {
                    op.await;
                }
            }
            Step::Commit { spawn } => {
                let op = model_commit(wal.clone(), m.clone());
                if spawn {
                    h.spawn(op);
                } else {
                    op.await;
                }
            }
            Step::Truncate { file, size } => {
                wal.truncate_file(FileId(file), size);
                m.borrow_mut().cut(FileId(file), size);
            }
            Step::Rejoin { stamp } => {
                let keep = {
                    let m = m.borrow();
                    m.stamps
                        .get(stamp)
                        .or(m.stamps.last())
                        .copied()
                        .unwrap_or(0)
                };
                wal.truncate_committed_to(keep);
                wal.power_fail();
                m.borrow_mut().restart(keep);
                let replayed = wal.recover().await;
                if let Err(what) = m.borrow().check(&replayed) {
                    panic!("{what} (at the rejoin of step {i}; {tag})");
                }
            }
            Step::Gap(ns) => h.sleep(SimDuration::from_nanos(ns)).await,
        }
    }
}

/// What a crash run leaves: records replayed, the `fs.wal.commits` and
/// `fs.wal.committed_records` series, and restarts before the crash.
#[derive(Clone, Copy, Default)]
struct Crashed {
    replayed: u64,
    commits: u64,
    committed: u64,
    restarts: u64,
}

/// Start `steps` on a fresh log: the driver, and (first, so its timer
/// fires before any other at that instant) a power failure at `crash`.
fn start(steps: &[Step], crash: Option<SimTime>, tag: String) -> (Simulation, Rc<Wal>, Shared) {
    let sim = Simulation::new(1);
    let h = sim.handle();
    let wal = Wal::new(&h);
    let m = Shared::default();
    if let Some(at) = crash {
        let (h2, wal, m) = (h.clone(), wal.clone(), m.clone());
        sim.spawn(async move {
            h2.sleep_until(at).await;
            wal.power_fail();
            m.borrow_mut().crashed = true;
        });
    }
    sim.spawn(drive(h, wal.clone(), m.clone(), steps.to_vec(), tag));
    (sim, wal, m)
}

/// Every instant at which anything happens in an uncrashed run: the
/// start, and each timer that fires. A WAL-only run has no other
/// events, so every log-disk transfer starts and lands at one of them.
fn instants(steps: &[Step], tag: &str) -> Vec<SimTime> {
    let (mut sim, _, _) = start(steps, None, tag.to_string());
    let mut at = vec![SimTime::ZERO];
    sim.run_until(SimTime::ZERO);
    while let Some(t) = sim.next_event() {
        at.push(t);
        sim.run_until(t);
    }
    at.dedup();
    at
}

/// Power-fail at `crash`, let every abandoned operation finish,
/// recover, and check the replay against the model.
fn crash_at(steps: &[Step], crash: SimTime, tag: &str) -> Crashed {
    let tag = format!("{tag}, power failure at {} ns", crash.as_nanos());
    let (mut sim, wal, m) = start(steps, Some(crash), tag.clone());
    sim.run();
    let count = wal_count(&sim.handle());
    let replayed = sim.block_on({
        let wal = wal.clone();
        async move { wal.recover().await }
    });
    let m = m.borrow();
    assert!(m.crashed, "the run ended before the power failure ({tag})");
    if let Err(what) = m.check(&replayed) {
        panic!("{what} ({tag})");
    }
    assert_eq!(
        wal.committed_records(),
        replayed.len() as u64,
        "committed_records disagrees with the records replayed ({tag})"
    );
    Crashed {
        replayed: replayed.len() as u64,
        commits: count("commits"),
        committed: count("committed_records"),
        restarts: m.restarts,
    }
}

/// Every instant at which the log disk starts or lands a transfer is a
/// power failure, just before the instant's events and 1 ns after
/// them, for 1 000 generated sequences. After each, recovery must replay
/// every record a returned commit covered, nothing never appended, no
/// byte past a truncate cut, and as many records as
/// `committed_records` says; and each marker that landed, as the
/// growth of the replay from one instant to the next shows, is one
/// `fs.wal.commits` and commits what that growth was.
#[test]
fn every_transfer_boundary_is_a_safe_crash_point() {
    let one_ns = SimDuration::from_nanos(1);
    for seed in 0..1000 {
        let steps = generate(seed);
        let tag = format!("sequence {seed}: {steps:?}");
        let mut before = Crashed::default();
        for t in instants(&steps, &tag) {
            crash_at(&steps, t, &tag);
            let after = crash_at(&steps, t + one_ns, &tag);
            let landed = after.commits - before.commits;
            let grew = after.replayed > before.replayed;
            let tag = format!("{tag}, instant {} ns", t.as_nanos());
            if after.restarts == before.restarts {
                assert_eq!(
                    landed, grew as u64,
                    "fs.wal.commits disagrees with the markers that landed ({tag})"
                );
                assert_eq!(
                    after.committed - before.committed,
                    after.replayed - before.replayed,
                    "fs.wal.committed_records disagrees with what the markers committed ({tag})"
                );
            } else {
                assert!(landed <= 1, "two markers landed at one instant ({tag})");
            }
            before = after;
        }
    }
}
