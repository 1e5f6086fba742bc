//! `ycsb-inproc`: YCSB called in-process from two threads, no network.
//!
//! 1,000,000 rows (about 3,400 pages) against a 1,024-frame pool: the data
//! is 3.3 times the cache, so buffer-pool misses and write-backs, B-tree,
//! lock and WAL work dominate. 50% reads, 50% read-modify-writes, Zipf
//! θ = 0.8, four operations per transaction.

use crate::{measure, open, Caller, Clients, Counters, Options, Round};
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_obs::WaitProfile;
use esdb_storage::InMemoryDisk;
use esdb_workload::ycsb::USERTABLE;
use esdb_workload::{TxnSpec, Workload, WorkloadOp, Ycsb};
use std::sync::Arc;
use std::time::Instant;

/// Rows in the table.
pub const RECORDS: u64 = 1_000_000;
/// Buffer-pool frames (8 MiB of 8 KiB pages).
pub const POOL_FRAMES: usize = 1_024;
/// Client threads.
pub const THREADS: usize = 2;
/// Read share, percent.
pub const READ_PCT: u64 = 50;
/// Zipf skew.
pub const THETA: f64 = 0.8;
/// Operations per transaction.
pub const OPS_PER_TXN: usize = 4;

/// A thread calling the engine directly. Traced, each call runs inside an
/// obs profiling scope and its wall time is recorded as the transaction's
/// latency, as the engine's own in-process driver does.
pub struct InProc {
    db: Arc<Database>,
    trace: bool,
}

impl Caller for InProc {
    fn call(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, String> {
        if !self.trace {
            return Ok(self.db.run_spec(spec));
        }
        let (outcome, profile): (SpecOutcome, WaitProfile) =
            esdb_obs::profile_scope(|| self.db.run_spec(spec));
        esdb_obs::record_component(esdb_obs::Component::TxnLatency, profile.wall());
        Ok(outcome)
    }

    fn over_wire(&self) -> bool {
        false
    }

    fn set_trace(&mut self, on: bool) {
        self.trace = on;
    }
}

fn setup() -> (Arc<Database>, Arc<InMemoryDisk>) {
    let (db, disk) = open(EngineConfig {
        buffer_frames: POOL_FRAMES,
        ..EngineConfig::default()
    });
    db.load_population(&Ycsb::new(RECORDS, READ_PCT, THETA, OPS_PER_TXN, 0))
        .expect("load YCSB");
    (db, disk)
}

fn read_modify_writes(spec: &TxnSpec) -> bool {
    spec.ops
        .iter()
        .any(|op| matches!(op, WorkloadOp::Add { .. }))
}

/// Runs one round.
pub fn round(opts: &Options, seed: u64) -> Round {
    let start = Instant::now();
    let (db, disk) = setup();
    let setup_s = start.elapsed().as_secs_f64();
    let mut root = Ycsb::new(RECORDS, READ_PCT, THETA, OPS_PER_TXN, seed);
    let gens = (0..THREADS).map(|_| root.fork()).collect();
    let callers = (0..THREADS)
        .map(|_| {
            Box::new(InProc {
                db: Arc::clone(&db),
                trace: false,
            }) as Box<dyn Caller>
        })
        .collect();
    let mut clients = Clients::new(gens, callers, read_modify_writes);
    let m = measure(opts, &mut clients, &|_| {
        let mut c = Counters::default();
        c.add_database(&db, &disk);
        c.add_process();
        c
    });
    drop(clients);
    // Every committed Add put +1 into column 1, which the load set to 0.
    let mut problems = Vec::new();
    let mut sum = 0i64;
    db.table(USERTABLE)
        .expect("usertable")
        .scan(|_, row| sum += row[1])
        .expect("scan usertable");
    if sum != m.all.adds_committed as i64 {
        problems.push(format!(
            "column 1 sums to {sum}, but {} Add ops committed",
            m.all.adds_committed
        ));
    }
    Round {
        setup_s,
        m,
        wire: false,
        problems,
    }
}
