//! `tpcb-2pc`: sharded TPC-B, two shard servers sharing one coordinator
//! decision log, driven by one router thread holding one connection per
//! shard. 25% of transactions move money to an account on the other shard
//! and pay presumed-abort two-phase commit: two prepares, a forced decision
//! and two decides, against one one-shot call for a single-shard one.

use crate::{connect, measure, open, start_server, Caller, Clients, Counters, Options, Round};
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_net::protocol::{encode_request, Request};
use esdb_net::{Server, ServerConfig};
use esdb_shard::{
    load_shard_population, BranchPartitioner, DecisionLog, NetShard, Partitioner, ShardBackend,
    ShardError, ShardRouter, ShardedTpcb,
};
use esdb_storage::InMemoryDisk;
use esdb_workload::tpcb::{ACCOUNTS, BRANCHES, HISTORY, TELLERS};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Branches.
pub const BRANCHES_N: u64 = 16;
/// Accounts per branch.
pub const ACCOUNTS_PER_BRANCH: u64 = 10_000;
/// Percent of transactions that cross shards.
pub const CROSS_PCT: u32 = 25;
/// Shard servers.
pub const SHARDS: usize = 2;

/// Calls and time per 2PC verb, recorded by [`Timed`].
#[derive(Default)]
pub struct ShardTimes {
    trace: AtomicBool,
    counts: [AtomicU64; 3],
    nanos: [AtomicU64; 3],
}

const ONE_SHOT: usize = 0;
const PREPARE: usize = 1;
const DECIDE: usize = 2;

impl ShardTimes {
    fn time<R>(&self, verb: usize, f: impl FnOnce() -> R) -> R {
        self.counts[verb].fetch_add(1, Ordering::Relaxed);
        if !self.trace.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.nanos[verb].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

/// A shard backend that counts and times each call into the one it wraps.
pub struct Timed<B> {
    inner: B,
    times: Arc<ShardTimes>,
}

impl<B: ShardBackend> ShardBackend for Timed<B> {
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        let inner = &mut self.inner;
        self.times.time(ONE_SHOT, || inner.one_shot(spec))
    }

    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
        let inner = &mut self.inner;
        self.times.time(PREPARE, || inner.prepare(gtid, ops))
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError> {
        let inner = &mut self.inner;
        self.times.time(DECIDE, || inner.decide(gtid, commit))
    }
}

/// The router thread's caller.
pub struct Routed {
    router: ShardRouter,
    times: Arc<ShardTimes>,
    part: BranchPartitioner,
}

impl Caller for Routed {
    fn call(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, String> {
        self.router.execute(spec).map_err(|e| e.to_string())
    }

    fn over_wire(&self) -> bool {
        true
    }

    /// A single-shard transaction sends its one-shot frame; a cross-shard
    /// one sends a prepare per shard and a decide per shard.
    fn request_bytes(&self, spec: &TxnSpec, one_shot: &[u8]) -> u64 {
        let mut groups: Vec<(usize, Vec<WorkloadOp>)> = Vec::new();
        for op in &spec.ops {
            let (table, key) = esdb_shard::router::op_target(op);
            let shard = self.part.shard_of(table, key, SHARDS);
            match groups.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, ops)) => ops.push(op.clone()),
                None => groups.push((shard, vec![op.clone()])),
            }
        }
        if groups.len() <= 1 {
            return one_shot.len() as u64;
        }
        let mut buf = Vec::new();
        for (_, ops) in groups {
            encode_request(&Request::ShardPrepare { gtid: 0, ops }, &mut buf);
            encode_request(
                &Request::ShardDecide {
                    gtid: 0,
                    commit: true,
                },
                &mut buf,
            );
        }
        buf.len() as u64
    }

    fn set_trace(&mut self, on: bool) {
        self.times.trace.store(on, Ordering::Relaxed);
    }

    fn add_counters(&self, c: &mut Counters) {
        let s = self.router.stats();
        c.add("shard.single", s.single_shard as f64);
        c.add("shard.cross", s.cross_shard as f64);
        c.add("shard.cross_commits", s.cross_commits as f64);
        let t = &self.times;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        c.add("shard.rpcs", t.counts.iter().map(load).sum());
        c.add("shard.one_shot.n", load(&t.counts[ONE_SHOT]));
        c.add("shard.one_shot.ns", load(&t.nanos[ONE_SHOT]));
        c.add("shard.prepare.n", load(&t.counts[PREPARE]));
        c.add("shard.prepare.ns", load(&t.nanos[PREPARE]));
        c.add("shard.decide.n", load(&t.counts[DECIDE]));
        c.add("shard.decide.ns", load(&t.nanos[DECIDE]));
    }
}

struct Shard {
    db: Arc<Database>,
    disk: Arc<InMemoryDisk>,
    server: Server,
}

/// Fields drop in order: connections close before the servers stop.
struct Env {
    router: Option<Routed>,
    shards: Vec<Shard>,
    tids: BTreeSet<u64>,
}

fn setup(seed: u64) -> Env {
    let w = ShardedTpcb::new(BRANCHES_N, ACCOUNTS_PER_BRANCH, CROSS_PCT, SHARDS, seed);
    let part = w.partitioner();
    let coord = Arc::new(DecisionLog::new());
    let mut tids = BTreeSet::new();
    let shards: Vec<Shard> = (0..SHARDS)
        .map(|idx| {
            let (db, disk) = open(EngineConfig::default());
            load_shard_population(&db, &w, &part, idx, SHARDS).expect("load shard slice");
            let config = ServerConfig {
                decision_source: Some(coord.decision_source()),
                ..ServerConfig::default()
            };
            let (server, t) = start_server(&db, config);
            tids.extend(t);
            Shard { db, disk, server }
        })
        .collect();
    let times = Arc::new(ShardTimes::default());
    let backends = shards
        .iter()
        .map(|s| {
            let net = NetShard(connect(&s.server));
            Box::new(Timed {
                inner: net,
                times: Arc::clone(&times),
            }) as Box<dyn ShardBackend>
        })
        .collect();
    let router = ShardRouter::new(backends, Arc::new(part), coord).expect("router over 2 shards");
    Env {
        router: Some(Routed {
            router,
            times,
            part,
        }),
        shards,
        tids,
    }
}

fn cross_shard(spec: &TxnSpec) -> bool {
    spec.kind == "CrossShard"
}

/// Runs one round.
pub fn round(opts: &Options, seed: u64) -> Round {
    let start = Instant::now();
    let mut env = setup(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let root = ShardedTpcb::new(BRANCHES_N, ACCOUNTS_PER_BRANCH, CROSS_PCT, SHARDS, seed);
    let router = env.router.take().expect("router");
    let mut clients = Clients::new(vec![Box::new(root)], vec![Box::new(router)], cross_shard);
    let m = measure(opts, &mut clients, &|callers| {
        let mut c = Counters::default();
        for s in &env.shards {
            c.add_database(&s.db, &s.disk);
            c.add_server(&s.server);
        }
        c.add_process();
        c.add_server_threads(&env.tids);
        for caller in callers {
            caller.add_counters(&mut c);
        }
        c
    });
    drop(clients);
    let problems = check(&env.shards, m.all.committed);
    for s in env.shards {
        s.server.shutdown();
    }
    Round {
        setup_s,
        m,
        wire: true,
        problems,
    }
}

/// Money is conserved across both shards, every committed transaction left
/// one history row, and no transaction is left prepared.
fn check(shards: &[Shard], committed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let sum = |table: u32, col: usize| -> i64 {
        let mut total = 0;
        for s in shards {
            let t = s.db.table(table).expect("tpcb table");
            t.scan(|_, row| total += row[col]).expect("scan");
        }
        total
    };
    let (branches, tellers, accounts) = (sum(BRANCHES, 0), sum(TELLERS, 1), sum(ACCOUNTS, 1));
    let history = sum(HISTORY, 2);
    if branches != tellers || tellers != accounts || accounts != history {
        problems.push(format!(
            "balances disagree: branches {branches}, tellers {tellers}, accounts {accounts}, \
             history deltas {history}"
        ));
    }
    let rows: u64 = shards
        .iter()
        .map(|s| s.db.table(HISTORY).expect("history").len())
        .sum();
    if rows != committed {
        problems.push(format!(
            "{rows} history rows for {committed} committed transactions"
        ));
    }
    for (i, s) in shards.iter().enumerate() {
        let prepared = s.db.prepared_gtids();
        if !prepared.is_empty() {
            problems.push(format!("shard {i} still holds prepared gtids {prepared:?}"));
        }
    }
    problems
}
