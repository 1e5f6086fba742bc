//! Executing engine-agnostic transaction specs on either execution model.

use esdb_dora::{Action, ActionOp, DoraError, DoraSystem};
use esdb_txn::manager::is_retryable;
use esdb_txn::{Txn, TxnError, TxnManager, TxnResult};
use esdb_workload::{TxnSpec, WorkloadOp};
use std::sync::Arc;

/// Result of running one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecOutcome {
    /// Committed; `reads[i]` carries the row produced by op `i` (reads and
    /// read-modify-writes), `None` for pure writes.
    Committed {
        /// Per-op results.
        reads: Vec<Option<Vec<i64>>>,
    },
    /// Aborted on a logical error (missing/duplicate key).
    LogicalFailure,
    /// Aborted after exhausting conflict retries.
    ConflictFailure,
}

impl SpecOutcome {
    /// `true` for [`SpecOutcome::Committed`].
    pub fn is_committed(&self) -> bool {
        matches!(self, SpecOutcome::Committed { .. })
    }
}

/// Applies every op of `spec` inside `txn`, collecting per-op read results.
/// `observe(txn_id, table, key, write)` fires after each access succeeds:
/// once per read, write, insert or delete, and twice for an `Add` (after
/// its read-for-update and after its update). Engine callers pass a no-op;
/// the deterministic checker records its conflict history through it.
pub fn apply_ops(
    txn: &mut Txn,
    spec: &TxnSpec,
    mut observe: impl FnMut(u64, u32, u64, bool),
) -> TxnResult<Vec<Option<Vec<i64>>>> {
    let id = txn.id();
    let mut reads: Vec<Option<Vec<i64>>> = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        match op {
            WorkloadOp::Read { table, key } => {
                let row = txn.read(*table, *key)?;
                observe(id, *table, *key, false);
                reads.push(Some(row));
            }
            WorkloadOp::Write { table, key, row } => {
                txn.update(*table, *key, row)?;
                observe(id, *table, *key, true);
                reads.push(None);
            }
            WorkloadOp::Add { table, key, col, delta } => {
                let before = txn.read_for_update(*table, *key)?;
                observe(id, *table, *key, true);
                let mut after = before.clone();
                if *col >= after.len() {
                    return Err(TxnError::Storage(
                        esdb_storage::StorageError::ArityMismatch {
                            expected: after.len(),
                            got: *col + 1,
                        },
                    ));
                }
                after[*col] += delta;
                txn.update(*table, *key, &after)?;
                observe(id, *table, *key, true);
                reads.push(Some(before));
            }
            WorkloadOp::Insert { table, key, row } => {
                txn.insert(*table, *key, row)?;
                observe(id, *table, *key, true);
                reads.push(None);
            }
            WorkloadOp::Delete { table, key } => {
                let before = txn.delete(*table, *key)?;
                observe(id, *table, *key, true);
                reads.push(Some(before));
            }
        }
    }
    Ok(reads)
}

/// Runs `spec` as a conventional 2PL transaction through
/// [`TxnManager::run_with`]: lock victims retry up to `retries` times, a
/// failed attempt aborts exactly once, and the successful attempt is handed
/// to `finish` — [`Txn::commit`], [`Txn::commit_deferred`], or a 2PC
/// prepare — whose result comes back beside the committed outcome.
/// `observe` sees every access, as in [`apply_ops`].
pub fn run_conventional<F>(
    mgr: &Arc<TxnManager>,
    retries: usize,
    spec: &TxnSpec,
    mut observe: impl FnMut(u64, u32, u64, bool),
    finish: impl FnOnce(Txn) -> F,
) -> (SpecOutcome, Option<F>) {
    match mgr.run_with(retries, |txn| apply_ops(txn, spec, &mut observe), finish) {
        Ok((reads, finished)) => (SpecOutcome::Committed { reads }, Some(finished)),
        Err(e) if is_retryable(&e) => (SpecOutcome::ConflictFailure, None),
        Err(_) => (SpecOutcome::LogicalFailure, None),
    }
}

/// Translates one workload op into a DORA action.
fn to_action(op: &WorkloadOp) -> Action {
    match op {
        WorkloadOp::Read { table, key } => Action::read(*table, *key),
        WorkloadOp::Write { table, key, row } => Action::write(*table, *key, row.clone()),
        WorkloadOp::Add { table, key, col, delta } => Action {
            table: *table,
            key: *key,
            op: ActionOp::Add { col: *col, delta: *delta },
        },
        WorkloadOp::Insert { table, key, row } => Action::insert(*table, *key, row.clone()),
        WorkloadOp::Delete { table, key } => Action::delete(*table, *key),
    }
}

/// Runs `spec` through the DORA system.
pub fn run_dora(dora: &DoraSystem, spec: &TxnSpec) -> SpecOutcome {
    let actions: Vec<Action> = spec.ops.iter().map(to_action).collect();
    match dora.execute(actions) {
        Ok(reads) => SpecOutcome::Committed { reads },
        Err(DoraError::Logical) => SpecOutcome::LogicalFailure,
        Err(DoraError::TooManyRetries) => SpecOutcome::ConflictFailure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_translation() {
        let a = to_action(&WorkloadOp::Add { table: 1, key: 2, col: 0, delta: -3 });
        assert_eq!(a.table, 1);
        assert_eq!(a.key, 2);
        assert_eq!(a.op, ActionOp::Add { col: 0, delta: -3 });
    }

    #[test]
    fn outcome_predicates() {
        assert!(SpecOutcome::Committed { reads: vec![] }.is_committed());
        assert!(!SpecOutcome::LogicalFailure.is_committed());
    }
}
