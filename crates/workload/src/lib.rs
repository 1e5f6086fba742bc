//! # esdb-workload — OLTP benchmark workload generators
//!
//! Deterministic generators for the workloads the keynote's experimental
//! lineage (Shore-MT, DORA, Aether, StagedDB) evaluates on:
//!
//! * [`tatp`] — the TATP telecom benchmark (read-dominated, short
//!   transactions, the canonical "inherently concurrent" workload).
//! * [`tpcb`] — TPC-B-style account/teller/branch debit-credit (update-heavy,
//!   hot branch rows — the lock/log contention stressor).
//! * [`tpcc`] — TPC-C-lite NewOrder + Payment (multi-table, multi-row).
//! * [`ycsb`] — a parameterizable read/update mix with Zipfian skew.
//!
//! All generators implement [`spec::Workload`]: they expose their table
//! definitions, an initial population, and an infinite deterministic stream
//! of [`spec::TxnSpec`]s. Transaction specs are engine-agnostic op lists;
//! `esdb-core` translates them either into conventional 2PL transactions or
//! into DORA action lists, so both execution models run *identical* request
//! streams.

pub mod rng;
pub mod spec;
pub mod tatp;
pub mod tpcb;
pub mod tpcc;
pub mod ycsb;
pub mod zipf;

pub use rng::Rng;
pub use spec::{op_target, TableDef, TxnSpec, Workload, WorkloadOp};
pub use tatp::Tatp;
pub use tpcb::Tpcb;
pub use tpcc::TpccLite;
pub use ycsb::Ycsb;
pub use zipf::Zipf;
