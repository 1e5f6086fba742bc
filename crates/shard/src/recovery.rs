//! Resolving a crashed participant's in-doubt transactions.
//!
//! ARIES recovery ([`esdb_wal::recovery::recover`]) redoes a prepared
//! transaction's effects but undoes nothing — the durable `Prepare` record
//! promises the coordinator the shard can still commit. What the verdict
//! *is* lives on the coordinator; this module applies it.
//!
//! Resolution must run before the shard admits new traffic: a freshly
//! recovered lock manager holds no locks, so in-doubt rows are unprotected
//! until each one is either kept (commit) or rolled back (abort).

use esdb_core::Database;
use esdb_storage::StorageError;
use esdb_wal::record::LogRecord;
use esdb_wal::recovery::{undo_txn, RecoveryReport};

/// What [`resolve_in_doubt`] did with each in-doubt gtid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolveReport {
    /// Gtids whose effects were kept (coordinator logged commit).
    pub committed: Vec<u64>,
    /// Gtids rolled back (coordinator logged abort, or had no verdict —
    /// presumed abort).
    pub aborted: Vec<u64>,
    /// Gtids left in doubt because `decider` could not answer (coordinator
    /// unreachable). The shard must not serve their rows.
    pub unresolved: Vec<u64>,
}

/// Resolves every in-doubt transaction `report` found in `records` (the
/// crashed shard's durable log, already redone into `db`).
///
/// `decider` is "ask the coordinator": `Some(verdict)` applies it, `None`
/// means the coordinator itself is unreachable and the gtid stays in doubt.
/// A reachable coordinator answers *every* gtid — its
/// [`DecisionLog::resolve`](crate::DecisionLog::resolve) maps "no durable
/// decision" to abort, which is what presumed abort is.
pub fn resolve_in_doubt(
    db: &Database,
    records: &[LogRecord],
    report: &RecoveryReport,
    decider: impl Fn(u64) -> Option<bool>,
) -> Result<ResolveReport, StorageError> {
    let tables = db.txn_manager().tables();
    let mut pairs: Vec<(u64, u64)> = report.in_doubt.iter().map(|(t, g)| (*t, *g)).collect();
    pairs.sort_unstable();
    let mut out = ResolveReport::default();
    // Undo LSNs sit above recovery's own undo range but below the revived
    // WAL's first append, keeping page-LSN ordering monotone.
    let mut lsn = db.wal().start_lsn().saturating_sub(1 << 20);
    for (txn_id, gtid) in pairs {
        match decider(gtid) {
            Some(true) => out.committed.push(gtid),
            Some(false) => {
                let undone = undo_txn(records, &tables, txn_id, lsn)?;
                lsn += undone as u64 + 1;
                out.aborted.push(gtid);
            }
            None => out.unresolved.push(gtid),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_core::EngineConfig;
    use esdb_workload::{TxnSpec, WorkloadOp};

    /// A shard with row `[10]` at key 1 and an in-doubt gtid-77 increment of
    /// +5 on it, crashed after the prepare was durable.
    fn crashed_shard() -> (Database, Vec<LogRecord>, RecoveryReport) {
        let db = Database::open(EngineConfig::default());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();
        let spec = TxnSpec {
            kind: "x",
            ops: vec![WorkloadOp::Add { table: t, key: 1, col: 0, delta: 5 }],
            may_fail: false,
        };
        assert!(db.run_spec_prepare(77, &spec).is_committed());
        let records = db.wal().durable_records();
        let (recovered, report) = db.simulate_crash_with_report(false);
        // The dead instance still holds the PreparedTxn handle; dropping it
        // would roll back against its own dead WAL. Keep the test's crash
        // image pristine instead.
        std::mem::forget(db);
        (recovered, records, report)
    }

    #[test]
    fn commit_verdict_keeps_the_effect() {
        let (db, records, report) = crashed_shard();
        assert_eq!(report.in_doubt.len(), 1);
        let r = resolve_in_doubt(&db, &records, &report, |gtid| {
            assert_eq!(gtid, 77);
            Some(true)
        })
        .unwrap();
        assert_eq!(r, ResolveReport { committed: vec![77], ..Default::default() });
        assert_eq!(db.read_committed(0, 1).unwrap(), vec![15]);
    }

    #[test]
    fn abort_and_no_verdict_both_roll_back() {
        let (db, records, report) = crashed_shard();
        let r = resolve_in_doubt(&db, &records, &report, |_| Some(false)).unwrap();
        assert_eq!(r, ResolveReport { aborted: vec![77], ..Default::default() });
        assert_eq!(db.read_committed(0, 1).unwrap(), vec![10]);
        // The row is fully usable again.
        db.execute(|txn| txn.update(0, 1, &[42])).unwrap();
    }

    #[test]
    fn unreachable_coordinator_leaves_the_gtid_in_doubt() {
        let (db, records, report) = crashed_shard();
        let r = resolve_in_doubt(&db, &records, &report, |_| None).unwrap();
        assert_eq!(r, ResolveReport { unresolved: vec![77], ..Default::default() });
        // Redone but unresolved: the in-doubt effect is still present.
        assert_eq!(db.read_committed(0, 1).unwrap(), vec![15]);
        // Once the coordinator comes back, the same crash image resolves.
        let r2 = resolve_in_doubt(&db, &records, &report, |_| Some(false)).unwrap();
        assert_eq!(r2.aborted, vec![77]);
        assert_eq!(db.read_committed(0, 1).unwrap(), vec![10]);
    }
}
