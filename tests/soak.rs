//! Soak test: a long stretch of virtual time under mixed load — reads,
//! writes, metadata churn, credit-grant changes, READDIR sweeps — with
//! global invariants checked at the end: balanced registrations, no
//! leaks, no pending exposures, consistent server counters, and exact
//! file contents.

use std::rc::Rc;

use rpcrdma::{Design, StrategyKind};
use sim_core::{Payload, SimRng, Simulation};
use workloads::{solaris_sdr, Bed};

#[test]
fn mixed_load_soak_leaves_no_residue() {
    for (seed, design, strategy) in [
        (1001u64, Design::ReadWrite, StrategyKind::Fmr),
        (2002, Design::ReadRead, StrategyKind::Dynamic),
        (3003, Design::ReadWrite, StrategyKind::Cache),
    ] {
        let mut sim = Simulation::new(seed);
        let h = sim.handle();
        let bed = Bed {
            clients: 3,
            ..Bed::new(&solaris_sdr(), design, strategy)
        };
        let bed = Rc::new(bed.build_now(&h));
        let bed2 = bed.clone();
        let h2 = h.clone();
        sim.block_on(async move {
            let bed = bed2;
            let root = bed.server.root_handle();
            let done = sim_core::sync::Semaphore::new(0);

            // A grant-churn task exercising dynamic flow control.
            if let Some(rpc) = &bed.rpc_server {
                let rpc = rpc.clone();
                let h3 = h2.clone();
                h2.spawn(async move {
                    for grant in [8u32, 2, 16, 4, 32].iter().cycle().take(20) {
                        h3.sleep(sim_core::SimDuration::from_millis(2)).await;
                        rpc.set_credit_grant(*grant);
                    }
                });
            }

            for (ci, client) in bed.clients.iter().enumerate() {
                let nfs = client.nfs.clone();
                let mem = client.mem.clone();
                let done = done.clone();
                let mut rng = SimRng::new(seed ^ (ci as u64 + 1));
                h2.spawn(async move {
                    let dir = nfs.mkdir(root, &format!("c{ci}")).await.unwrap();
                    let buf = mem.alloc(256 * 1024);
                    let mut files = Vec::new();
                    for round in 0..120u64 {
                        match rng.gen_range(10) {
                            0..=1 => {
                                let f = nfs
                                    .create(dir.handle(), &format!("f{round}"))
                                    .await
                                    .unwrap();
                                files.push((f.handle(), format!("f{round}"), 0u64));
                            }
                            2..=5 if !files.is_empty() => {
                                let i = rng.gen_range(files.len() as u64) as usize;
                                let len = 1024 * (1 + rng.gen_range(128));
                                let seed2 = round * 1000 + ci as u64;
                                buf.write(0, Payload::synthetic(seed2, len));
                                nfs.write(files[i].0, 0, &buf, 0, len as u32, rng.gen_bool(0.2))
                                    .await
                                    .unwrap();
                                files[i].2 = seed2 << 32 | len;
                            }
                            6..=8 if !files.is_empty() => {
                                let i = rng.gen_range(files.len() as u64) as usize;
                                let (seed2, len) = (files[i].2 >> 32, files[i].2 & 0xFFFF_FFFF);
                                if len > 0 {
                                    let (data, _) = nfs
                                        .read(files[i].0, 0, len as u32, Some((&buf, 0)))
                                        .await
                                        .unwrap();
                                    assert!(
                                        data.content_eq(&Payload::synthetic(seed2, len)),
                                        "soak corruption: client {ci} file {}",
                                        files[i].1
                                    );
                                }
                            }
                            _ => {
                                let entries = nfs.readdir(dir.handle()).await.unwrap();
                                assert_eq!(entries.len(), files.len());
                                if !files.is_empty() && rng.gen_bool(0.3) {
                                    let (_, name, _) = files
                                        .swap_remove(rng.gen_range(files.len() as u64) as usize);
                                    nfs.remove(dir.handle(), &name).await.unwrap();
                                }
                            }
                        }
                    }
                    done.add_permits(1);
                });
            }
            for _ in 0..3 {
                done.acquire().await.forget();
            }
        });
        sim.run(); // quiesce every background release

        // --- Invariants. ------------------------------------------------
        let server_hca = bed.server_hca.as_ref().unwrap();
        for (who, hca) in std::iter::once(("server", server_hca)).chain(
            bed.clients
                .iter()
                .map(|c| ("client", c.hca.as_ref().unwrap())),
        ) {
            let stats = hca.reg_stats();
            assert_eq!(
                stats.leaked_mrs, 0,
                "{who} leaked MRs ({design:?}/{strategy:?})"
            );
            if strategy == StrategyKind::Cache {
                // The registration cache parks live registrations in its
                // free lists by design; they may only outnumber
                // deregistrations, never the reverse.
                assert!(
                    stats.dynamic_regs + stats.fmr_maps >= stats.deregs + stats.fmr_unmaps,
                    "{who} deregistered more than it registered"
                );
            } else {
                assert_eq!(
                    stats.dynamic_regs + stats.fmr_maps,
                    stats.deregs + stats.fmr_unmaps,
                    "{who} unbalanced registrations ({design:?}/{strategy:?})"
                );
            }
        }
        // Cache strategy may park registered slabs; all other strategies
        // must leave zero live TPT entries beyond the setup-time ones.
        if strategy != StrategyKind::Cache {
            let report = server_hca.exposure_report();
            assert_eq!(
                report.current_bytes, 0,
                "server still exposes memory after quiesce"
            );
        }
        let rpc = bed.rpc_server.as_ref().unwrap();
        assert_eq!(
            rpc.stats.exposures_pending.get(),
            0,
            "pending RDMA_DONE exposures after quiesce"
        );
        assert_eq!(rpc.stats.inflight.get(), 0, "ops still in flight");
        assert_eq!(
            bed.server.stats.reads.get()
                + bed.server.stats.writes.get()
                + bed.server.stats.others.get(),
            rpc.stats.ops.get(),
            "NFS and RPC op counters disagree"
        );
    }
}
