//! Workspace-level integration tests: cross-crate invariants that span
//! the whole stack (verbs → rpcrdma → nfs → fs), including determinism,
//! design equivalence, concurrent-client isolation and a deterministic
//! random-operation fuzz against a reference model.

use std::collections::HashMap;
use std::rc::Rc;

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, SimRng, Simulation};
use workloads::{solaris_sdr, Bed, Testbed};

fn bed(sim: &Simulation, design: Design, strategy: StrategyKind, clients: usize) -> Testbed {
    let bed = Bed {
        clients,
        ..Bed::new(&solaris_sdr(), design, strategy)
    };
    bed.build_now(&sim.handle())
}

#[test]
fn same_seed_same_virtual_time() {
    let run = || {
        let mut sim = Simulation::new(1234);
        let h = sim.handle();
        let bed = bed(&sim, Design::ReadWrite, StrategyKind::Fmr, 2);
        sim.block_on(async move {
            let root = bed.server.root_handle();
            for (i, c) in bed.clients.iter().enumerate() {
                let f = c.nfs.create(root, &format!("f{i}")).await.unwrap();
                let buf = c.mem.alloc(256 * 1024);
                buf.write(0, Payload::synthetic(i as u64, 256 * 1024));
                c.nfs
                    .write(f.handle(), 0, &buf, 0, 256 * 1024, false)
                    .await
                    .unwrap();
                let _ = c.nfs.read(f.handle(), 0, 256 * 1024, None).await.unwrap();
            }
            h.now().as_nanos()
        })
    };
    assert_eq!(run(), run(), "simulation must be bit-deterministic");
}

#[test]
fn designs_produce_identical_file_state() {
    // The two transport designs must be observationally equivalent at
    // the file-system level.
    let run = |design: Design| {
        let mut sim = Simulation::new(5);
        let bed = bed(&sim, design, StrategyKind::Dynamic, 1);
        sim.block_on(async move {
            let root = bed.server.root_handle();
            let c = &bed.clients[0];
            let f = c.nfs.create(root, "state").await.unwrap();
            let buf = c.mem.alloc(64 * 1024);
            for i in 0..8u64 {
                buf.write(0, Payload::synthetic(i, 64 * 1024));
                c.nfs
                    .write(f.handle(), i * 64 * 1024, &buf, 0, 64 * 1024, false)
                    .await
                    .unwrap();
            }
            // Overwrite a middle window.
            buf.write(0, Payload::synthetic(99, 10_000));
            c.nfs
                .write(f.handle(), 123_456, &buf, 0, 10_000, true)
                .await
                .unwrap();
            let (data, _) = c.nfs.read(f.handle(), 0, 512 * 1024, None).await.unwrap();
            data.materialize().to_vec()
        })
    };
    assert_eq!(run(Design::ReadRead), run(Design::ReadWrite));
}

#[test]
fn concurrent_clients_are_isolated() {
    let mut sim = Simulation::new(17);
    let h = sim.handle();
    let bed = Rc::new(bed(&sim, Design::ReadWrite, StrategyKind::Cache, 4));
    let bed2 = bed.clone();
    sim.block_on(async move {
        let bed = bed2;
        let root = bed.server.root_handle();
        let done = sim_core::sync::Semaphore::new(0);
        for (i, c) in bed.clients.iter().enumerate() {
            let nfs = c.nfs.clone();
            let mem = c.mem.clone();
            let done = done.clone();
            h.spawn(async move {
                let f = nfs.create(root, &format!("client{i}")).await.unwrap();
                let buf = mem.alloc(128 * 1024);
                for round in 0..16u64 {
                    buf.write(0, Payload::synthetic(i as u64 * 1000 + round, 128 * 1024));
                    nfs.write(f.handle(), round * 131072, &buf, 0, 131072, false)
                        .await
                        .unwrap();
                }
                // Verify every round's data.
                for round in 0..16u64 {
                    let (data, _) = nfs
                        .read(f.handle(), round * 131072, 131072, None)
                        .await
                        .unwrap();
                    assert!(
                        data.content_eq(&Payload::synthetic(i as u64 * 1000 + round, 131072)),
                        "client {i} round {round} corrupted"
                    );
                }
                done.add_permits(1);
            });
        }
        for _ in 0..4 {
            done.acquire().await.forget();
        }
    });
    assert_eq!(bed.server.stats.writes.get(), 64);
    assert_eq!(bed.server.stats.reads.get(), 64);
}

#[test]
fn randomized_ops_match_reference_model() {
    // Deterministic fuzz: a few hundred random operations mirrored
    // against an in-memory model; full contents checked at the end.
    for (seed, design, strategy) in [
        (101u64, Design::ReadWrite, StrategyKind::Dynamic),
        (202, Design::ReadWrite, StrategyKind::Cache),
        (303, Design::ReadRead, StrategyKind::Dynamic),
        (404, Design::ReadWrite, StrategyKind::AllPhysical),
    ] {
        let mut sim = Simulation::new(seed);
        let bed = Rc::new(bed(&sim, design, strategy, 1));
        let bed2 = bed.clone();
        sim.block_on(async move {
            let bed = bed2;
            let root = bed.server.root_handle();
            let c = &bed.clients[0];
            let mut rng = SimRng::new(seed ^ 0xfeed);
            // Model: file name -> expected contents.
            let mut model: HashMap<String, Vec<u8>> = HashMap::new();
            let mut handles: HashMap<String, nfs::FileHandle> = HashMap::new();
            let buf = c.mem.alloc(64 * 1024);

            for _op in 0..300 {
                let which = rng.gen_range(10);
                let name = format!("f{}", rng.gen_range(6));
                match which {
                    0..=1 => {
                        // create (idempotent-ish: ignore EXIST)
                        match c.nfs.create(root, &name).await {
                            Ok(attr) => {
                                handles.insert(name.clone(), attr.handle());
                                model.entry(name).or_default();
                            }
                            Err(nfs::NfsError::Status(nfs::NfsStat::Exist)) => {}
                            Err(e) => panic!("create: {e}"),
                        }
                    }
                    2..=5 => {
                        // write random window
                        if let Some(&fh) = handles.get(&name) {
                            let off = rng.gen_range(64 * 1024);
                            let len = 1 + rng.gen_range(32 * 1024);
                            let pattern: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
                            buf.write(0, Payload::real(pattern.clone()));
                            c.nfs
                                .write(fh, off, &buf, 0, len as u32, false)
                                .await
                                .unwrap();
                            let m = model.get_mut(&name).unwrap();
                            if m.len() < (off + len) as usize {
                                m.resize((off + len) as usize, 0);
                            }
                            m[off as usize..(off + len) as usize].copy_from_slice(&pattern);
                        }
                    }
                    6..=8 => {
                        // read random window and check
                        if let Some(&fh) = handles.get(&name) {
                            let m = &model[&name];
                            if m.is_empty() {
                                continue;
                            }
                            let off = rng.gen_range(m.len() as u64);
                            let len = 1 + rng.gen_range(32 * 1024);
                            let (data, _) = c.nfs.read(fh, off, len as u32, None).await.unwrap();
                            let got = data.materialize();
                            let end = (off as usize + got.len()).min(m.len());
                            assert_eq!(
                                &got[..],
                                &m[off as usize..end],
                                "read mismatch in {name} at {off}+{len} ({design:?}/{strategy:?})"
                            );
                        }
                    }
                    _ => {
                        // remove
                        if handles.contains_key(&name) && rng.gen_bool(0.3) {
                            c.nfs.remove(root, &name).await.unwrap();
                            handles.remove(&name);
                            model.remove(&name);
                        }
                    }
                }
            }
            // Final sweep: every file's full contents must match.
            for (name, m) in &model {
                if m.is_empty() {
                    continue;
                }
                let fh = handles[name];
                let (data, _) = c.nfs.read(fh, 0, m.len() as u32, None).await.unwrap();
                assert_eq!(&data.materialize()[..], &m[..], "final state of {name}");
            }
        });
        // No leaked registrations after the dust settles.
        sim.run();
        for host in std::iter::once(&bed.clients[0].hca)
            .flatten()
            .chain(bed.server_hca.iter())
        {
            assert_eq!(host.reg_stats().leaked_mrs, 0, "{design:?}/{strategy:?}");
        }
    }
}

#[test]
fn server_survives_many_short_sessions() {
    // Sequential bursts from several clients, with the server's task
    // queue and TPT accounting staying consistent throughout.
    let mut sim = Simulation::new(31);
    let bed = bed(&sim, Design::ReadWrite, StrategyKind::Fmr, 3);
    sim.block_on(async move {
        let root = bed.server.root_handle();
        for round in 0..5 {
            for (i, c) in bed.clients.iter().enumerate() {
                let name = format!("r{round}-c{i}");
                let f = c.nfs.create(root, &name).await.unwrap();
                let buf = c.mem.alloc(32 * 1024);
                buf.write(0, Payload::synthetic(round as u64, 32 * 1024));
                c.nfs
                    .write(f.handle(), 0, &buf, 0, 32 * 1024, false)
                    .await
                    .unwrap();
                c.nfs.remove(root, &name).await.unwrap();
            }
        }
        let (bytes_used, inodes) = bed.clients[0].nfs.fsstat(root).await.unwrap();
        assert_eq!(bytes_used, 0, "all files removed");
        assert_eq!(inodes, 1, "only the root remains");
    });
}
