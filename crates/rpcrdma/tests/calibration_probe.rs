//! Raw transport throughput probe (run with --ignored): 8 concurrent
//! readers of 128 KiB records against the ToyFs-style service, per
//! design/strategy. Used to validate the cost model against the
//! paper's Figure 5/7 targets before the full IOzone harness exists.

use std::rc::Rc;

use bytes::Bytes;
use ib_verbs::{connect, Fabric, Hca, HcaConfig, HostMem, NodeId, PhysLayout};
use onc_rpc::{BulkDispatch, BulkService, CallContext, LocalBoxFuture};
use rpcrdma::{
    BulkParams, Design, RdmaRpcClient, RdmaRpcServer, Registrar, RpcRdmaConfig, StrategyKind,
};
use sim_core::{Cpu, CpuCosts, Payload, Sim, Simulation};

struct Reader;
impl BulkService for Reader {
    fn program(&self) -> u32 {
        100003
    }
    fn version(&self) -> u32 {
        3
    }
    fn call(
        &self,
        _cx: CallContext,
        _p: u32,
        args: Bytes,
        bulk_in: Option<sim_core::SgList>,
    ) -> LocalBoxFuture<BulkDispatch> {
        Box::pin(async move {
            let mut dec = xdr::Decoder::new(&args);
            let len = dec.get_u32().unwrap_or(0) as u64;
            if let Some(data) = bulk_in {
                // write path
                let mut enc = xdr::Encoder::new();
                enc.put_u32(data.len() as u32);
                return BulkDispatch::success(enc.finish(), None);
            }
            let mut enc = xdr::Encoder::new();
            enc.put_u32(len as u32);
            BulkDispatch::success(
                enc.finish(),
                Some(sim_core::SgList::from(Payload::synthetic(9, len))),
            )
        })
    }
}

fn run(design: Design, strategy: StrategyKind, write: bool, threads: u32) -> f64 {
    let mut sim = Simulation::new(11);
    let h: Sim = sim.handle();
    let fabric = Fabric::new(&h);
    let mk = |id: u32| {
        let node = NodeId(id);
        let cpu = Cpu::new(&h, format!("cpu{id}"), 2, CpuCosts::default());
        let mem = Rc::new(HostMem::new(node, PhysLayout::default(), h.fork_rng()));
        let hca = Hca::new(&h, node, HcaConfig::sdr(), cpu, mem.clone(), &fabric);
        (hca, mem)
    };
    let (chca, cmem) = mk(0);
    let (shca, _smem) = mk(1);
    let cfg = RpcRdmaConfig::default().with_design(design);
    let (qc, qs) = connect(&chca, &shca);
    let server = RdmaRpcServer::new(
        &h,
        &shca,
        Rc::new(Reader),
        Registrar::new(&shca, strategy),
        cfg,
    );
    server.serve_connection(qs);
    let client = RdmaRpcClient::new(
        &h,
        &chca,
        qc,
        Registrar::new(&chca, strategy),
        cfg,
        100003,
        3,
    );

    const REC: u64 = 131_072;
    const OPS_PER_THREAD: u64 = 64;
    let done = sim_core::sync::Semaphore::new(0);
    for _ in 0..threads {
        let client = client.clone();
        let done = done.clone();
        let user = cmem.alloc(REC);
        if write {
            user.write(0, Payload::synthetic(5, REC));
        }
        sim.spawn(async move {
            for _ in 0..OPS_PER_THREAD {
                let mut enc = xdr::Encoder::new();
                enc.put_u32(REC as u32);
                let bulk = if write {
                    BulkParams {
                        send: Some((user.clone(), 0, REC)),
                        ..Default::default()
                    }
                } else {
                    BulkParams {
                        recv_max: Some(REC),
                        recv_user: Some((user.clone(), 0)),
                        ..Default::default()
                    }
                };
                client.call(1, enc.finish(), bulk).await.unwrap();
            }
            done.add_permits(1);
        });
    }
    sim.block_on(async move {
        for _ in 0..threads {
            done.acquire().await.forget();
        }
    });
    let bytes = threads as u64 * OPS_PER_THREAD * REC;
    bytes as f64 / 1e6 / sim.now().as_secs_f64()
}

#[test]
#[ignore = "calibration probe; run explicitly"]
fn probe_solaris_read_bandwidth() {
    println!("--- Solaris SDR 128K record, 8 threads ---");
    for (label, design, strategy) in [
        ("RR  Register", Design::ReadRead, StrategyKind::Dynamic),
        ("RW  Register", Design::ReadWrite, StrategyKind::Dynamic),
        ("RW  FMR     ", Design::ReadWrite, StrategyKind::Fmr),
        ("RW  Cache   ", Design::ReadWrite, StrategyKind::Cache),
        ("RW  AllPhys ", Design::ReadWrite, StrategyKind::AllPhysical),
    ] {
        let read = run(design, strategy, false, 8);
        let write = run(design, strategy, true, 8);
        println!("{label}: read {read:7.1} MB/s   write {write:7.1} MB/s");
    }
    for t in [1u32, 2, 4, 8] {
        let rr = run(Design::ReadRead, StrategyKind::Dynamic, false, t);
        let rw = run(Design::ReadWrite, StrategyKind::Dynamic, false, t);
        println!("threads {t}: RR {rr:6.1}  RW {rw:6.1}");
    }
}
