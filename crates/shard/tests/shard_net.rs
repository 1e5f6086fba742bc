//! Loopback cluster smoke: two shard servers behind the wire protocol, a
//! router running mixed single/cross-shard TPC-B, a coordinator crash in
//! the in-doubt window, and resolution over the wire. Phase two is
//! pipelined, so the tests also pin what that must keep: read-your-writes
//! through the router, and no gtid left prepared once the router drops.

use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_net::{Client, Server, ServerConfig};
use esdb_shard::{
    load_shard_population, BranchPartitioner, CrashPoint, DecisionLog, NetShard, Partitioner,
    ShardBackend, ShardRouter, ShardedTpcb,
};
use esdb_workload::{tpcb, TxnSpec, Workload, WorkloadOp};
use std::sync::Arc;

const SHARDS: usize = 2;
const BRANCHES: u64 = 4;
const ACCOUNTS_PER_BRANCH: u64 = 200;

fn connect_shards(servers: &[Server]) -> Vec<Box<dyn ShardBackend>> {
    servers
        .iter()
        .map(|s| {
            Box::new(NetShard(Client::connect(s.local_addr()).unwrap())) as Box<dyn ShardBackend>
        })
        .collect()
}

/// Two loaded shard engines, each served on loopback, sharing `coord` as
/// their decision source.
struct Cluster {
    dbs: Vec<Arc<Database>>,
    servers: Vec<Server>,
    part: BranchPartitioner,
}

fn start_cluster(coord: &Arc<DecisionLog>) -> Cluster {
    let w = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 30, SHARDS, 5);
    let part = w.partitioner();
    let config = EngineConfig { buffer_frames: 512, ..EngineConfig::default() };
    let mut dbs = Vec::new();
    let mut servers = Vec::new();
    for idx in 0..SHARDS {
        let db = Arc::new(Database::open(config.clone()));
        load_shard_population(&db, &w, &part, idx, SHARDS).unwrap();
        let server = Server::start(
            Arc::clone(&db),
            "127.0.0.1:0",
            ServerConfig {
                decision_source: Some(coord.decision_source()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        dbs.push(db);
        servers.push(server);
    }
    Cluster { dbs, servers, part }
}

#[test]
fn loopback_cluster_runs_2pc_crashes_the_coordinator_and_recovers() {
    let coord = Arc::new(DecisionLog::new());
    let Cluster { dbs, servers, part } = start_cluster(&coord);

    // Mixed burst: ~30% of transactions straddle both shards and pay 2PC.
    let mut gen = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 30, SHARDS, 6);
    let mut router =
        ShardRouter::new(connect_shards(&servers), Arc::new(part), Arc::clone(&coord)).unwrap();
    let mut cross = 0;
    for _ in 0..200 {
        let spec = gen.next_txn();
        if spec.kind == "CrossShard" {
            cross += 1;
        }
        assert!(router.execute(&spec).unwrap().is_committed(), "burst txn failed");
    }
    assert!(cross > 20, "30% cross ratio produced only {cross} cross-shard txns");
    let stats = router.stats();
    assert_eq!(stats.cross_shard, cross);
    assert_eq!(stats.cross_commits, cross);
    assert_eq!(stats.single_shard, 200 - cross);

    // Abandon one cross-shard transaction in its in-doubt window and crash
    // the coordinator.
    let victim: TxnSpec = loop {
        let spec = gen.next_txn();
        if spec.kind == "CrossShard" {
            break spec;
        }
    };
    let trace = router.execute_crashing(&victim, CrashPoint::AfterPrepare).unwrap();
    assert_eq!(trace.prepared.len(), 2, "victim must prepare on both shards");
    assert!(trace.decision.is_none());
    let coord = Arc::new(coord.recover());

    // Resolution over the wire: each shard reports its in-doubt set, the
    // recovered coordinator's verdict (presumed abort — no decision was
    // logged) is delivered as a decide frame.
    for server in &servers {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let gtids = client.shard_in_doubt().unwrap();
        assert_eq!(gtids, vec![trace.gtid]);
        // The server-side decision source answers status queries with the
        // same verdict the resolver is about to apply.
        assert!(!client.shard_status(trace.gtid).unwrap());
        for gtid in gtids {
            client.shard_decide(gtid, coord.resolve(gtid)).unwrap();
        }
        assert!(client.shard_in_doubt().unwrap().is_empty());
    }

    // The cluster keeps serving: fresh router, recovered coordinator. The
    // burst ends on a cross-shard commit, whose decides are still owed
    // acks when the router drops.
    drop(router);
    let mut router =
        ShardRouter::new(connect_shards(&servers), Arc::new(part), Arc::clone(&coord)).unwrap();
    let mut executed = 0;
    loop {
        let spec = gen.next_txn();
        assert!(router.execute(&spec).unwrap().is_committed());
        executed += 1;
        if executed >= 50 && spec.kind == "CrossShard" {
            break;
        }
    }
    drop(router);
    // Dropping the router read every owed decide ack, so both participants
    // have applied every verdict by now.
    for (i, db) in dbs.iter().enumerate() {
        assert!(db.prepared_gtids().is_empty(), "shard {i} still prepared after drop");
    }

    // Conservation summed across both shards, read straight off the engines.
    let sum = |table: u32, col: usize| -> i64 {
        let mut total = 0;
        for db in &dbs {
            db.table(table).unwrap().scan(|_, row| total += row[col]).unwrap();
        }
        total
    };
    let b = sum(tpcb::BRANCHES, 0);
    assert_eq!(sum(tpcb::ACCOUNTS, 1), b, "accounts out of conservation");
    assert_eq!(sum(tpcb::TELLERS, 1), b, "tellers out of conservation");
    assert_eq!(sum(tpcb::HISTORY, 2), b, "history out of conservation");
}

/// The balance column of a TPC-B row, read through the router's
/// single-shard fast path.
fn balance(router: &mut ShardRouter, table: u32, key: u64) -> i64 {
    let spec =
        TxnSpec { kind: "read", ops: vec![WorkloadOp::Read { table, key }], may_fail: false };
    let col = if table == tpcb::BRANCHES { 0 } else { 1 };
    match router.execute(&spec).unwrap() {
        SpecOutcome::Committed { reads } => reads[0].as_ref().expect("row exists")[col],
        other => panic!("read failed: {other:?}"),
    }
}

/// A committed cross-shard transfer is visible to the next single-shard read
/// on each participant through the same router: the pipelined decide rides
/// the same connection ahead of the read, so the participant applies the
/// verdict first.
#[test]
fn cross_shard_commit_is_read_by_the_next_single_shard_call() {
    let coord = Arc::new(DecisionLog::new());
    let cluster = start_cluster(&coord);
    let part = cluster.part;
    let mut router =
        ShardRouter::new(connect_shards(&cluster.servers), Arc::new(part), Arc::clone(&coord))
            .unwrap();
    let mut gen = ShardedTpcb::new(BRANCHES, ACCOUNTS_PER_BRANCH, 100, SHARDS, 9);
    for _ in 0..20 {
        let spec = gen.next_txn();
        assert_eq!(spec.kind, "CrossShard");
        // The account lives on the remote shard, the branch on the home one.
        let (account, branch, delta) = match (&spec.ops[0], &spec.ops[2]) {
            (
                WorkloadOp::Add { table: tpcb::ACCOUNTS, key: a, delta, .. },
                WorkloadOp::Add { table: tpcb::BRANCHES, key: b, .. },
            ) => (*a, *b, *delta),
            _ => panic!("unexpected TPC-B shape: {spec:?}"),
        };
        assert_ne!(
            part.shard_of(tpcb::ACCOUNTS, account, SHARDS),
            part.shard_of(tpcb::BRANCHES, branch, SHARDS),
            "the transfer must straddle both shards"
        );
        let account_before = balance(&mut router, tpcb::ACCOUNTS, account);
        let branch_before = balance(&mut router, tpcb::BRANCHES, branch);
        let cross = router.stats().cross_commits;
        assert!(router.execute(&spec).unwrap().is_committed());
        assert_eq!(router.stats().cross_commits, cross + 1, "the transfer ran 2PC");
        assert_eq!(balance(&mut router, tpcb::ACCOUNTS, account), account_before + delta);
        assert_eq!(balance(&mut router, tpcb::BRANCHES, branch), branch_before + delta);
    }
}
