//! The conventional runner's contract, pinned once for each way a
//! transaction can finish: commit (`run_spec`), deferred commit
//! (`run_spec_deferred`) and two-phase-commit prepare (`run_spec_prepare`).
//!
//! Every mode must agree on the abort/retry/commit counts in `TxnStats`, on
//! the reads a commit returns, and on leaving no prepared residue behind a
//! failure. Outcomes are compared through their `Debug` form, which every
//! mode's result implements: a commit prints `reads: [..]`, a failure names
//! its kind.

use esdb_core::{Database, EngineConfig};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
enum Finish {
    Commit,
    Deferred,
    Prepare,
}

const FINISHES: [Finish; 3] = [Finish::Commit, Finish::Deferred, Finish::Prepare];

/// Gtid used by every prepare in this file.
const GTID: u64 = 41;

/// A conventional database with table 0 holding keys 1, 2, 3 → 10, 20, 30.
fn setup(retries: usize, lock_timeout: Duration) -> Database {
    let db = Database::open(EngineConfig {
        retries,
        lock_timeout,
        ..EngineConfig::conventional_baseline()
    });
    let t = db.create_table("t", 1).unwrap();
    assert_eq!(t, 0);
    db.execute(|txn| {
        txn.insert(0, 1, &[10])?;
        txn.insert(0, 2, &[20])?;
        txn.insert(0, 3, &[30])
    })
    .unwrap();
    db
}

/// Runs `spec` through `finish` and returns the outcome's `Debug` form.
fn run(db: &Database, finish: Finish, spec: &TxnSpec) -> String {
    match finish {
        Finish::Commit => format!("{:?}", db.run_spec(spec)),
        Finish::Deferred => {
            let (outcome, lsn) = db.run_spec_deferred(spec);
            if let Some(lsn) = lsn {
                db.wal().wait_durable(lsn);
            }
            format!("{outcome:?}")
        }
        Finish::Prepare => format!("{:?}", db.run_spec_prepare(GTID, spec)),
    }
}

fn add(key: u64, delta: i64) -> WorkloadOp {
    WorkloadOp::Add { table: 0, key, col: 0, delta }
}

#[test]
fn missing_key_aborts_once_without_retry_or_commit() {
    for finish in FINISHES {
        let db = setup(8, Duration::from_millis(200));
        let before = db.txn_manager().stats();
        // A buffered write, then an op on a key that does not exist.
        let spec = TxnSpec { kind: "bad", ops: vec![add(1, 7), add(999, 1)], may_fail: true };
        let outcome = run(&db, finish, &spec);
        assert!(outcome.contains("LogicalFailure"), "{finish:?}: {outcome}");
        let after = db.txn_manager().stats();
        assert_eq!(after.aborts, before.aborts + 1, "{finish:?}: exactly one abort");
        assert_eq!(after.commits, before.commits, "{finish:?}: no commit");
        assert_eq!(db.read_committed(0, 1).unwrap(), vec![10], "{finish:?}: write undone");
        assert!(db.prepared_gtids().is_empty(), "{finish:?}: nothing left prepared");
    }
}

#[test]
fn lock_victim_retries_then_fails_as_a_conflict() {
    const RETRIES: usize = 3;
    for finish in FINISHES {
        let db = setup(RETRIES, Duration::from_millis(5));
        // A rival holds the row exclusively for the whole run.
        let mut rival = db.txn_manager().begin();
        rival.update(0, 2, &[21]).unwrap();
        let before = db.txn_manager().stats();
        let spec = TxnSpec { kind: "victim", ops: vec![add(2, 1)], may_fail: true };
        let outcome = run(&db, finish, &spec);
        assert!(outcome.contains("ConflictFailure"), "{finish:?}: {outcome}");
        let after = db.txn_manager().stats();
        assert_eq!(after.aborts, before.aborts + RETRIES as u64 + 1, "{finish:?}: r + 1 aborts");
        assert_eq!(after.commits, before.commits, "{finish:?}: no commit");
        assert!(db.prepared_gtids().is_empty(), "{finish:?}: nothing left prepared");
        rival.abort();
        assert_eq!(db.read_committed(0, 2).unwrap(), vec![20], "{finish:?}");
    }
}

#[test]
fn commit_returns_reads_in_op_order() {
    for finish in FINISHES {
        let db = setup(8, Duration::from_millis(200));
        let before = db.txn_manager().stats();
        let spec = TxnSpec {
            kind: "mixed",
            ops: vec![
                add(3, 1),
                WorkloadOp::Read { table: 0, key: 1 },
                WorkloadOp::Write { table: 0, key: 2, row: vec![22] },
                WorkloadOp::Insert { table: 0, key: 4, row: vec![40] },
                WorkloadOp::Delete { table: 0, key: 1 },
            ],
            may_fail: false,
        };
        let outcome = run(&db, finish, &spec);
        assert!(
            outcome.contains("reads: [Some([30]), Some([10]), None, None, Some([10])]"),
            "{finish:?}: {outcome}"
        );
        let after = db.txn_manager().stats();
        assert_eq!(after.aborts, before.aborts, "{finish:?}: no abort");
        if let Finish::Prepare = finish {
            // A yes-vote counts no commit until the decision lands.
            assert_eq!(db.prepared_gtids(), vec![GTID]);
            assert_eq!(after.commits, before.commits);
            assert!(db.decide(GTID, true));
        } else {
            assert_eq!(after.commits, before.commits + 1, "{finish:?}: one commit");
        }
        assert!(db.prepared_gtids().is_empty(), "{finish:?}");
        assert_eq!(db.txn_manager().stats().commits, before.commits + 1, "{finish:?}");
        assert_eq!(db.read_committed(0, 3).unwrap(), vec![31], "{finish:?}");
        assert_eq!(db.read_committed(0, 2).unwrap(), vec![22], "{finish:?}");
        assert_eq!(db.read_committed(0, 4).unwrap(), vec![40], "{finish:?}");
        assert!(db.read_committed(0, 1).is_err(), "{finish:?}: key 1 deleted");
    }
}
