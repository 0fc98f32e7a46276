//! # ib-verbs — a software InfiniBand verbs implementation
//!
//! A behaviourally faithful, deterministic simulation of the InfiniBand
//! Reliable Connection service as seen by a kernel ULP like RPC/RDMA:
//!
//! * **Queue pairs** ([`Qp`]) processing work requests in post order,
//!   with completion queues ([`Cq`]) that charge interrupt costs only
//!   when consumers actually park.
//! * **Memory registration** with a per-HCA Translation & Protection
//!   Table ([`tpt::Tpt`]), 32-bit randomized steering tags, serialized
//!   TPT-engine transactions (the paper's registration bottleneck),
//!   [`FmrPool`] fast registration, and the privileged all-physical
//!   global steering tag.
//! * **Enforced protection**: every RDMA op is validated against the
//!   TPT (tag, bounds, rights) and protocol violations transition the
//!   QP to the error state, exactly like real hardware. The TPT keeps a
//!   security ledger (exposed bytes × time, violation counts) used by
//!   the paper's security comparison.
//! * **IB ordering semantics** the NFS/RDMA designs depend on:
//!   Write→Send placement ordering, *no* Read→Send ordering, IRD/ORD
//!   read-depth limits with head-of-line blocking.
//! * A **cut-through switched fabric** ([`Fabric`]) whose per-port
//!   wires are the contended resources behind every bandwidth curve.
//!
//! The paper's testbed hardware (Mellanox SDR/DDR HCAs) is captured as
//! [`HcaConfig`] profiles; see `DESIGN.md` for the substitution
//! rationale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hash order differs per map instance: walking it diverges same-seed runs (DESIGN.md §3).
#![deny(clippy::iter_over_hash_type)]

pub mod config;
pub mod cq;

pub mod fabric;
pub mod hca;
pub mod memory;
pub mod mr;
pub mod ops;
pub mod qp;
pub mod tpt;
pub mod types;

pub use config::HcaConfig;
pub use cq::{Completion, Cq};
pub use fabric::{Fabric, FaultConfig};
pub use hca::{connect, Hca, RegStats};
pub use memory::{Buffer, HostMem, PhysLayout, PAGE_SIZE};
pub use mr::{FmrPool, Mr};
pub use qp::{Ack, Qp, Sge, WireMsg};
pub use sim_core::extent;
pub use tpt::{ExposureReport, RemoteOp};
pub use types::{Access, NodeId, Opcode, QpNum, Rkey, VerbsError, WrId};
