//! Golden wire bytes: one sample of every request and response frame,
//! encoded and compared with hex checked in from a known-good build. Any
//! change to a tag, a field order or a length-prefix width fails here, so a
//! codec refactor that passes this test speaks exactly the same protocol.
//! Each byte string must also decode back to its sample.

use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{ObsSnapshot, StatsSnapshot, OBS_SNAPSHOT_VERSION};
use esdb_net::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ServerStats, WirePlan,
};
use esdb_obs::{HistogramSnapshot, WaitProfile};
use esdb_staged::{AggFunc, CmpOp};
use esdb_workload::WorkloadOp;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn all_ops() -> Vec<WorkloadOp> {
    vec![
        WorkloadOp::Read { table: 1, key: 2 },
        WorkloadOp::Write {
            table: 1,
            key: 2,
            row: vec![-5],
        },
        WorkloadOp::Add {
            table: 2,
            key: 3,
            col: 1,
            delta: -7,
        },
        WorkloadOp::Insert {
            table: 3,
            key: 4,
            row: vec![],
        },
        WorkloadOp::Delete { table: 4, key: 5 },
    ]
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        ("ping", Request::Ping),
        ("stats", Request::Stats),
        ("obs_stats", Request::ObsStats),
        (
            "one_shot/empty",
            Request::OneShot {
                may_fail: false,
                ops: vec![],
            },
        ),
        (
            "one_shot/all_ops",
            Request::OneShot {
                may_fail: true,
                ops: all_ops(),
            },
        ),
        ("begin", Request::Begin),
        (
            "read",
            Request::Read {
                table: 3,
                key: u64::MAX,
            },
        ),
        (
            "update/empty_row",
            Request::Update {
                table: 0,
                key: 1,
                row: vec![],
            },
        ),
        (
            "update",
            Request::Update {
                table: 0,
                key: 1,
                row: vec![i64::MIN, 0, i64::MAX],
            },
        ),
        (
            "insert/empty_row",
            Request::Insert {
                table: 9,
                key: 2,
                row: vec![],
            },
        ),
        (
            "insert",
            Request::Insert {
                table: 9,
                key: 2,
                row: vec![42],
            },
        ),
        ("commit", Request::Commit),
        ("abort", Request::Abort),
        ("repl_snapshot", Request::ReplSnapshot),
        (
            "repl_subscribe",
            Request::ReplSubscribe {
                from: 8,
                term: 1 << 33,
            },
        ),
        (
            "repl_ack",
            Request::ReplAck {
                term: 3,
                lsn: u64::MAX,
            },
        ),
        ("commit_token", Request::CommitToken),
        (
            "read_at",
            Request::ReadAt {
                table: 7,
                key: 11,
                min_lsn: 1 << 40,
            },
        ),
        (
            "shard_prepare/empty",
            Request::ShardPrepare {
                gtid: 0,
                ops: vec![],
            },
        ),
        (
            "shard_prepare",
            Request::ShardPrepare {
                gtid: u64::MAX,
                ops: all_ops(),
            },
        ),
        (
            "shard_decide/commit",
            Request::ShardDecide {
                gtid: 7,
                commit: true,
            },
        ),
        (
            "shard_decide/abort",
            Request::ShardDecide {
                gtid: 8,
                commit: false,
            },
        ),
        ("shard_status", Request::ShardStatus { gtid: 1 << 50 }),
        ("shard_in_doubt", Request::ShardInDoubt),
        (
            "query/agg_filter_index_scan",
            Request::Query {
                min_lsn: 0,
                plan: WirePlan::Aggregate {
                    input: Box::new(WirePlan::Filter {
                        input: Box::new(WirePlan::IndexScan {
                            table: 0,
                            index: 1,
                            lo: i64::MIN,
                            hi: 99,
                        }),
                        col: 2,
                        op: CmpOp::Ne,
                        value: -4,
                    }),
                    group_col: Some(1),
                    agg_col: 2,
                    func: AggFunc::Sum,
                },
            },
        ),
        (
            "query/sort_project_scan",
            Request::Query {
                min_lsn: 7,
                plan: WirePlan::Sort {
                    input: Box::new(WirePlan::Project {
                        input: Box::new(WirePlan::Scan { table: 1 }),
                        cols: vec![2, 0],
                    }),
                    col: 0,
                },
            },
        ),
        (
            "query/agg_no_group_project_empty",
            Request::Query {
                min_lsn: 1 << 33,
                plan: WirePlan::Aggregate {
                    input: Box::new(WirePlan::Project {
                        input: Box::new(WirePlan::Scan { table: 1 }),
                        cols: vec![],
                    }),
                    group_col: None,
                    agg_col: 0,
                    func: AggFunc::Max,
                },
            },
        ),
        (
            "query/filter_ge_count",
            Request::Query {
                min_lsn: 3,
                plan: WirePlan::Aggregate {
                    input: Box::new(WirePlan::Filter {
                        input: Box::new(WirePlan::Scan { table: 2 }),
                        col: 0,
                        op: CmpOp::Ge,
                        value: 5,
                    }),
                    group_col: None,
                    agg_col: 1,
                    func: AggFunc::Count,
                },
            },
        ),
        ("routing_snapshot", Request::RoutingSnapshot),
        (
            "mig_fetch",
            Request::MigFetch {
                table: 7,
                slot: 3,
                slot_count: 16,
            },
        ),
    ]
}

fn sample_snapshot() -> ObsSnapshot {
    let mut lock_wait = HistogramSnapshot::default();
    lock_wait.record(1);
    lock_wait.record(100);
    let mut txn_latency = HistogramSnapshot::default();
    for v in [0u64, 2, 4_096, 1 << 40] {
        txn_latency.record(v);
    }
    ObsSnapshot {
        version: OBS_SNAPSHOT_VERSION,
        stats: StatsSnapshot {
            commits: 10,
            aborts: 1,
            durable_lsn: 900,
            current_lsn: 1000,
            wal_flushes: 4,
        },
        breakdown: WaitProfile {
            useful: 500,
            lock_wait: 40,
            latch_spin: 3,
            log_wait: 70,
            io_retry: 0,
            commit_flush: 120,
        },
        lock_wait,
        wal_flush: HistogramSnapshot::default(),
        pool_miss: HistogramSnapshot::default(),
        txn_latency,
    }
}

fn responses() -> Vec<(&'static str, Response)> {
    vec![
        ("hello", Response::Hello),
        ("busy", Response::Busy),
        ("pong", Response::Pong),
        (
            "stats",
            Response::Stats(ServerStats {
                engine: StatsSnapshot {
                    commits: 1,
                    aborts: 2,
                    durable_lsn: 3,
                    current_lsn: 4,
                    wal_flushes: 5,
                },
                sessions_accepted: 6,
                sessions_shed: 7,
                sessions_active: 8,
                txns_executed: 9,
                txns_committed: 10,
                batches: 11,
            }),
        ),
        ("obs_stats", Response::ObsStats(Box::new(sample_snapshot()))),
        (
            "outcome/committed_empty",
            Response::Outcome(SpecOutcome::Committed { reads: vec![] }),
        ),
        (
            "outcome/committed",
            Response::Outcome(SpecOutcome::Committed {
                reads: vec![None, Some(vec![1, 2, 3]), Some(vec![])],
            }),
        ),
        (
            "outcome/logical",
            Response::Outcome(SpecOutcome::LogicalFailure),
        ),
        (
            "outcome/conflict",
            Response::Outcome(SpecOutcome::ConflictFailure),
        ),
        ("row/empty", Response::Row(vec![])),
        ("row", Response::Row(vec![7, -8])),
        ("ok", Response::Ok),
        ("error/empty", Response::Error(String::new())),
        ("error", Response::Error("no open transaction ✓".into())),
        (
            "snap_begin/empty",
            Response::SnapBegin {
                start_lsn: 0,
                catalog: vec![],
                indexes: vec![],
            },
        ),
        (
            "snap_begin",
            Response::SnapBegin {
                start_lsn: 8192,
                catalog: vec![
                    (0, "accounts".into(), 2, vec![3, 9, 11]),
                    (1, "".into(), 0, vec![]),
                ],
                indexes: vec![
                    (0, 0, "accounts_branch".into(), 1, 0),
                    (0, 1, "accounts_balance".into(), 0, 1),
                ],
            },
        ),
        (
            "snap_page/empty",
            Response::SnapPage {
                page_id: 0,
                bytes: vec![],
            },
        ),
        (
            "snap_page",
            Response::SnapPage {
                page_id: 42,
                bytes: vec![0xAB, 0xCD, 0xEF],
            },
        ),
        ("snap_end", Response::SnapEnd { page_count: 17 }),
        (
            "log_chunk/empty",
            Response::LogChunk {
                term: 0,
                start: 8,
                bytes: vec![],
            },
        ),
        (
            "log_chunk",
            Response::LogChunk {
                term: 1,
                start: 1 << 30,
                bytes: vec![1, 2, 3],
            },
        ),
        ("token", Response::Token { lsn: u64::MAX }),
        ("lagging", Response::Lagging { applied: 99 }),
        (
            "shard_vote/committed",
            Response::ShardVote {
                gtid: 42,
                outcome: SpecOutcome::Committed {
                    reads: vec![None, Some(vec![5, -6])],
                },
            },
        ),
        (
            "shard_vote/conflict",
            Response::ShardVote {
                gtid: 43,
                outcome: SpecOutcome::ConflictFailure,
            },
        ),
        (
            "shard_decision/commit",
            Response::ShardDecision {
                gtid: 9,
                commit: true,
            },
        ),
        (
            "shard_decision/abort",
            Response::ShardDecision {
                gtid: 10,
                commit: false,
            },
        ),
        ("shard_gtids/empty", Response::ShardGtids(vec![])),
        ("shard_gtids", Response::ShardGtids(vec![1, 2, u64::MAX])),
        ("fenced", Response::Fenced { term: u64::MAX }),
        (
            "quorum_timeout",
            Response::QuorumTimeout {
                lsn: 1 << 40,
                acked: 1,
                needed: 2,
            },
        ),
        ("rows/empty", Response::Rows(vec![])),
        (
            "rows",
            Response::Rows(vec![vec![1, 2], vec![], vec![i64::MIN]]),
        ),
        (
            "routing/empty",
            Response::Routing {
                epoch: 0,
                slots: vec![],
            },
        ),
        (
            "routing",
            Response::Routing {
                epoch: u64::MAX,
                slots: vec![0, 1, 2, 1, 0, u32::MAX],
            },
        ),
        ("mig_rows/empty", Response::MigRows { rows: vec![] }),
        (
            "mig_rows",
            Response::MigRows {
                rows: vec![(0, vec![]), (u64::MAX, vec![i64::MIN, 0, i64::MAX])],
            },
        ),
        ("wrong_shard", Response::WrongShard { epoch: 9, hint: 2 }),
    ]
}

const REQUEST_GOLDEN: &[(&str, &str)] = &[
    ("ping", "0100000001"),
    ("stats", "0100000002"),
    ("obs_stats", "0100000004"),
    ("one_shot/empty", "0400000003000000"),
    ("one_shot/all_ops", "5b0000000301050000010000000200000000000000010100000002000000000000000100fbffffffffffffff020200000003000000000000000100f9ffffffffffffff03030000000400000000000000000004040000000500000000000000"),
    ("begin", "0100000010"),
    ("read", "0d0000001103000000ffffffffffffffff"),
    ("update/empty_row", "0f000000120000000001000000000000000000"),
    ("update", "2700000012000000000100000000000000030000000000000000800000000000000000ffffffffffffff7f"),
    ("insert/empty_row", "0f000000130900000002000000000000000000"),
    ("insert", "170000001309000000020000000000000001002a00000000000000"),
    ("commit", "0100000014"),
    ("abort", "0100000015"),
    ("repl_snapshot", "0100000020"),
    ("repl_subscribe", "110000002108000000000000000000000002000000"),
    ("repl_ack", "11000000240300000000000000ffffffffffffffff"),
    ("commit_token", "0100000022"),
    ("read_at", "1500000023070000000b000000000000000000000000010000"),
    ("shard_prepare/empty", "0b0000003000000000000000000000"),
    ("shard_prepare", "6200000030ffffffffffffffff050000010000000200000000000000010100000002000000000000000100fbffffffffffffff020200000003000000000000000100f9ffffffffffffff03030000000400000000000000000004040000000500000000000000"),
    ("shard_decide/commit", "0a00000031070000000000000001"),
    ("shard_decide/abort", "0a00000031080000000000000000"),
    ("shard_status", "09000000320000000000000400"),
    ("shard_in_doubt", "0100000033"),
    ("query/agg_filter_index_scan", "3b0000002500000000000000000402010000000001000000000000000000008063000000000000000200000001fcffffffffffffff01010000000200000000"),
    ("query/sort_project_scan", "1e000000250700000000000000050300010000000200020000000000000000000000"),
    ("query/agg_no_group_project_empty", "18000000250000000002000000040300010000000000000000000003"),
    ("query/filter_ge_count", "230000002503000000000000000402000200000000000000050500000000000000000100000001"),
    ("routing_snapshot", "0100000034"),
    ("mig_fetch", "0d00000035070000000300000010000000"),
];

const RESPONSE_GOLDEN: &[(&str, &str)] = &[
    ("hello", "0100000080"),
    ("busy", "0100000081"),
    ("pong", "0100000082"),
    ("stats", "59000000830100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b00000000000000"),
    ("obs_stats", "9d08000088010000000a0000000000000001000000000000008403000000000000e8030000000000000400000000000000f40100000000000028000000000000000300000000000000460000000000000000000000000000007800000000000000020000000000000065000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000040000000000000002100000000100000100000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"),
    ("outcome/committed_empty", "0400000084000000"),
    ("outcome/committed", "230000008400030000010300010000000000000002000000000000000300000000000000010000"),
    ("outcome/logical", "020000008401"),
    ("outcome/conflict", "020000008402"),
    ("row/empty", "03000000850000"),
    ("row", "130000008502000700000000000000f8ffffffffffffff"),
    ("ok", "0100000086"),
    ("error/empty", "03000000870000"),
    ("error", "1a0000008717006e6f206f70656e207472616e73616374696f6e20e29c93"),
    ("snap_begin/empty", "0d00000090000000000000000000000000"),
    ("snap_begin", "8600000090002000000000000002000000000008006163636f756e74730200000003000000030000000000000009000000000000000b000000000000000100000000000000000000000000020000000000000000000f006163636f756e74735f6272616e63680100000000000000000100000010006163636f756e74735f62616c616e63650000000001"),
    ("snap_page/empty", "0d00000091000000000000000000000000"),
    ("snap_page", "10000000912a0000000000000003000000abcdef"),
    ("snap_end", "09000000921100000000000000"),
    ("log_chunk/empty", "15000000930000000000000000080000000000000000000000"),
    ("log_chunk", "18000000930100000000000000000000400000000003000000010203"),
    ("token", "0900000094ffffffffffffffff"),
    ("lagging", "09000000956300000000000000"),
    ("shard_vote/committed", "20000000962a00000000000000000200000102000500000000000000faffffffffffffff"),
    ("shard_vote/conflict", "0a000000962b0000000000000002"),
    ("shard_decision/commit", "0a00000097090000000000000001"),
    ("shard_decision/abort", "0a000000970a0000000000000000"),
    ("shard_gtids/empty", "050000009800000000"),
    ("shard_gtids", "1d000000980300000001000000000000000200000000000000ffffffffffffffff"),
    ("fenced", "0900000099ffffffffffffffff"),
    ("quorum_timeout", "110000009a00000000000100000100000002000000"),
    ("rows/empty", "050000009b00000000"),
    ("rows", "230000009b03000000020001000000000000000200000000000000000001000000000000000080"),
    ("routing/empty", "0d0000009c000000000000000000000000"),
    ("routing", "250000009cffffffffffffffff060000000000000001000000020000000100000000000000ffffffff"),
    ("mig_rows/empty", "050000009d00000000"),
    ("mig_rows", "310000009d0200000000000000000000000000ffffffffffffffff030000000000000000800000000000000000ffffffffffffff7f"),
    ("wrong_shard", "0d0000009e090000000000000002000000"),
];

/// Compares every sample's encoding with its golden hex and collects every
/// mismatch (not just the first) so one run shows the whole diff.
fn check<T>(
    samples: Vec<(&'static str, T)>,
    golden: &[(&str, &str)],
    encode: impl Fn(&T, &mut Vec<u8>),
) -> Vec<String> {
    let mut diffs = Vec::new();
    for (name, sample) in &samples {
        let mut buf = Vec::new();
        encode(sample, &mut buf);
        let got = hex(&buf);
        match golden.iter().find(|(n, _)| n == name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => diffs.push(format!("{name}: want {want}\n{name}:  got {got}")),
            None => diffs.push(format!("(\"{name}\", \"{got}\"),")),
        }
    }
    assert_eq!(
        samples.len(),
        golden.len(),
        "one golden entry per sample:\n{}",
        diffs.join("\n")
    );
    diffs
}

#[test]
fn every_request_frame_matches_its_golden_bytes() {
    let diffs = check(requests(), REQUEST_GOLDEN, encode_request);
    assert!(
        diffs.is_empty(),
        "request wire bytes changed:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn every_response_frame_matches_its_golden_bytes() {
    let diffs = check(responses(), RESPONSE_GOLDEN, encode_response);
    assert!(
        diffs.is_empty(),
        "response wire bytes changed:\n{}",
        diffs.join("\n")
    );
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn golden_bytes_decode_back_to_their_samples() {
    for ((name, want), (gname, bytes)) in requests().into_iter().zip(REQUEST_GOLDEN) {
        assert_eq!(name, *gname);
        let bytes = unhex(bytes);
        let (got, used) = decode_request(&bytes).unwrap().expect("complete frame");
        assert_eq!(got, want, "{name}");
        assert_eq!(used, bytes.len(), "{name}");
    }
    for ((name, want), (gname, bytes)) in responses().into_iter().zip(RESPONSE_GOLDEN) {
        assert_eq!(name, *gname);
        let bytes = unhex(bytes);
        let (got, used) = decode_response(&bytes).unwrap().expect("complete frame");
        assert_eq!(got, want, "{name}");
        assert_eq!(used, bytes.len(), "{name}");
    }
}

/// Every variant of both enums has a golden sample. The matches are
/// exhaustive, so a new frame fails to compile here until it gets one.
#[test]
fn samples_cover_every_variant() {
    let seen: std::collections::BTreeSet<usize> = requests()
        .iter()
        .map(|(_, req)| match req {
            Request::Ping => 0,
            Request::Stats => 1,
            Request::ObsStats => 2,
            Request::OneShot { .. } => 3,
            Request::Begin => 4,
            Request::Read { .. } => 5,
            Request::Update { .. } => 6,
            Request::Insert { .. } => 7,
            Request::Commit => 8,
            Request::Abort => 9,
            Request::ReplSnapshot => 10,
            Request::ReplSubscribe { .. } => 11,
            Request::ReplAck { .. } => 12,
            Request::CommitToken => 13,
            Request::ReadAt { .. } => 14,
            Request::ShardPrepare { .. } => 15,
            Request::ShardDecide { .. } => 16,
            Request::ShardStatus { .. } => 17,
            Request::ShardInDoubt => 18,
            Request::Query { .. } => 19,
            Request::RoutingSnapshot => 20,
            Request::MigFetch { .. } => 21,
        })
        .collect();
    assert_eq!(seen.len(), 22, "a request variant has no golden sample");
    let seen: std::collections::BTreeSet<usize> = responses()
        .iter()
        .map(|(_, resp)| match resp {
            Response::Hello => 0,
            Response::Busy => 1,
            Response::Pong => 2,
            Response::Stats(_) => 3,
            Response::ObsStats(_) => 4,
            Response::Outcome(_) => 5,
            Response::Row(_) => 6,
            Response::Ok => 7,
            Response::Error(_) => 8,
            Response::SnapBegin { .. } => 9,
            Response::SnapPage { .. } => 10,
            Response::SnapEnd { .. } => 11,
            Response::LogChunk { .. } => 12,
            Response::Token { .. } => 13,
            Response::Lagging { .. } => 14,
            Response::ShardVote { .. } => 15,
            Response::ShardDecision { .. } => 16,
            Response::ShardGtids(_) => 17,
            Response::Fenced { .. } => 18,
            Response::QuorumTimeout { .. } => 19,
            Response::Rows(_) => 20,
            Response::Routing { .. } => 21,
            Response::MigRows { .. } => 22,
            Response::WrongShard { .. } => 23,
        })
        .collect();
    assert_eq!(seen.len(), 24, "a response variant has no golden sample");
}
