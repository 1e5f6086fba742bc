//! `tatp-wire`: TATP over loopback TCP, two strict request/response
//! connections against one server with its default reactors.
//!
//! 100,000 subscribers (about 2,700 pages) fit in the default 8,192-frame
//! pool, so storage does almost nothing and the wire and reactor carry
//! most of each transaction's time.

use crate::{connect, measure, open, start_server, Caller, Clients, Counters, Options, Round};
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_net::{Client, Server, ServerConfig};
use esdb_storage::InMemoryDisk;
use esdb_workload::{Tatp, TxnSpec, Workload};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Subscribers in the TATP population.
pub const SUBSCRIBERS: u64 = 100_000;
/// Client connections, one per client thread.
pub const CONNECTIONS: usize = 2;

/// A connection issuing one-shot transactions, one at a time.
pub struct Wire(pub Client);

impl Caller for Wire {
    fn call(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, String> {
        self.0.one_shot(spec).map_err(|e| e.to_string())
    }

    fn over_wire(&self) -> bool {
        true
    }
}

/// Fields drop in order: connections close before the server stops.
struct Env {
    clients: Vec<Client>,
    db: Arc<Database>,
    disk: Arc<InMemoryDisk>,
    server: Server,
    tids: BTreeSet<u64>,
}

fn setup(seed: u64) -> Env {
    let (db, disk) = open(EngineConfig::default());
    db.load_population(&Tatp::new(SUBSCRIBERS, seed))
        .expect("load TATP");
    let (server, tids) = start_server(&db, ServerConfig::default());
    let clients = (0..CONNECTIONS).map(|_| connect(&server)).collect();
    Env {
        clients,
        db,
        disk,
        server,
        tids,
    }
}

fn writes(spec: &TxnSpec) -> bool {
    spec.ops.iter().any(|op| !op.is_read())
}

/// Runs one round.
pub fn round(opts: &Options, seed: u64) -> Round {
    let start = Instant::now();
    let mut env = setup(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let mut root = Tatp::new(SUBSCRIBERS, seed);
    let gens = (0..CONNECTIONS).map(|_| root.fork()).collect();
    let callers = std::mem::take(&mut env.clients)
        .into_iter()
        .map(|c| Box::new(Wire(c)) as Box<dyn Caller>)
        .collect();
    let mut clients = Clients::new(gens, callers, writes);
    let m = measure(opts, &mut clients, &|_| {
        let mut c = Counters::default();
        c.add_database(&env.db, &env.disk);
        c.add_server(&env.server);
        c.add_process();
        c.add_server_threads(&env.tids);
        c
    });
    drop(clients);
    let mut problems = Vec::new();
    let committed = env.server.stats().txns_committed;
    if committed != m.all.committed {
        problems.push(format!(
            "server committed {committed} transactions, clients saw {} commits",
            m.all.committed
        ));
    }
    env.server.shutdown();
    Round {
        setup_s,
        m,
        wire: true,
        problems,
    }
}
