//! The routing layer: single-shard fast path, cross-shard two-phase commit.

use crate::coordinator::DecisionLog;
use crate::partition::Partitioner;
use crate::ShardError;
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::Database;
use esdb_net::Client;
pub use esdb_workload::op_target;
use esdb_workload::{TxnSpec, WorkloadOp};
use std::sync::Arc;

/// One shard engine as the router sees it: a one-shot executor plus the two
/// participant verbs of 2PC.
pub trait ShardBackend: Send {
    /// Runs a whole transaction on this shard (the single-shard fast path).
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError>;
    /// 2PC phase one: execute `ops`, force the Prepare record, vote. A
    /// committed outcome is a yes-vote; the shard then holds its locks
    /// until [`ShardBackend::decide`].
    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError>;
    /// 2PC phase two: apply the coordinator's verdict.
    fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError>;
}

/// An in-process shard: an [`esdb_core::Database`] behind the same verbs the
/// wire protocol exposes. Used by the crash-torture harness, where shards
/// must be crashable and inspectable without sockets.
pub struct LocalShard(pub Arc<Database>);

impl ShardBackend for LocalShard {
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        Ok(self.0.run_spec(spec))
    }

    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
        let spec = TxnSpec { kind: "shard", ops, may_fail: true };
        Ok(self.0.run_spec_prepare(gtid, &spec))
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError> {
        self.0.decide(gtid, commit);
        Ok(())
    }
}

/// A remote shard behind the esdb-net wire protocol.
pub struct NetShard(pub Client);

impl ShardBackend for NetShard {
    fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        Ok(self.0.one_shot(spec)?)
    }

    fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
        Ok(self.0.shard_prepare(gtid, ops)?)
    }

    fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError> {
        Ok(self.0.shard_decide(gtid, commit)?)
    }
}

/// Where [`ShardRouter::execute_crashing`] abandons the protocol, modeling a
/// coordinator failure at each interesting point of the 2PC state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After allocating the gtid, before any participant hears of it.
    BeforePrepare,
    /// After every vote is in, before any decision is logged: the classic
    /// in-doubt window — participants hold locks, nobody knows the verdict.
    AfterPrepare,
    /// After the decision is durable on the coordinator, before any
    /// participant learns it.
    AfterDecision,
}

/// What a (possibly abandoned) cross-shard transaction left behind.
#[derive(Debug)]
pub struct TwoPcTrace {
    /// The allocated global transaction id.
    pub gtid: u64,
    /// Shards that voted yes and are holding locks for this gtid.
    pub prepared: Vec<usize>,
    /// The logged decision, if the protocol got that far.
    pub decision: Option<bool>,
    /// The client-visible outcome, if the protocol ran to completion.
    pub outcome: Option<SpecOutcome>,
}

/// Router-side traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Transactions that touched one shard (fast path, no 2PC).
    pub single_shard: u64,
    /// Transactions that straddled shards (full 2PC).
    pub cross_shard: u64,
    /// Cross-shard transactions that committed.
    pub cross_commits: u64,
    /// Cross-shard transactions that aborted (any participant voted no).
    pub cross_aborts: u64,
    /// `WrongShard` refusals absorbed by a routing refresh + retry.
    pub wrong_shard_retries: u64,
}

/// How a router refreshes a stale routing table after a `WrongShard`
/// refusal — typically a closure over [`esdb_net::Client::routing_snapshot`]
/// against any shard, or over the migration coordinator's shared table.
pub type RoutingRefresh =
    Box<dyn FnMut() -> Result<esdb_core::RoutingTable, ShardError> + Send>;

/// Routes transactions across `N` shard engines. Single-shard transactions
/// go straight to their home shard's one-shot path — byte-for-byte the same
/// execution as an unsharded engine. Cross-shard transactions run
/// presumed-abort 2PC through the [`DecisionLog`].
pub struct ShardRouter {
    shards: Vec<Box<dyn ShardBackend>>,
    part: Arc<dyn Partitioner>,
    coord: Arc<DecisionLog>,
    stats: RouterStats,
    /// Rebalance-aware routing: the live table placement reads, plus the
    /// refresh used to recover from a `WrongShard`. `None` = static
    /// placement (pre-rebalance behavior, refusals surface to the caller).
    routing: Option<Arc<crate::routing::SharedRouting>>,
    refresh: Option<RoutingRefresh>,
}

impl ShardRouter {
    /// Builds a router over `shards` with `part` placement and `coord` as
    /// the 2PC decision log.
    pub fn new(
        shards: Vec<Box<dyn ShardBackend>>,
        part: Arc<dyn Partitioner>,
        coord: Arc<DecisionLog>,
    ) -> Result<ShardRouter, ShardError> {
        if shards.is_empty() {
            return Err(ShardError::NoShards);
        }
        Ok(ShardRouter {
            shards,
            part,
            coord,
            stats: RouterStats::default(),
            routing: None,
            refresh: None,
        })
    }

    /// Builds a rebalance-aware router: placement reads `routing` live (so
    /// an installed cutover redirects subsequent transactions), and a
    /// `WrongShard` refusal triggers one `refresh` + install + retry before
    /// surfacing as [`ShardError::RoutingStale`].
    pub fn with_routing(
        shards: Vec<Box<dyn ShardBackend>>,
        routing: Arc<crate::routing::SharedRouting>,
        coord: Arc<DecisionLog>,
        refresh: Option<RoutingRefresh>,
    ) -> Result<ShardRouter, ShardError> {
        let mut router =
            ShardRouter::new(shards, Arc::clone(&routing) as Arc<dyn Partitioner>, coord)?;
        router.routing = Some(routing);
        router.refresh = refresh;
        Ok(router)
    }

    /// The live routing observation `(epoch, slot → shard map)`, when this
    /// router is rebalance-aware.
    pub fn routing_snapshot(&self) -> Option<(u64, Vec<u32>)> {
        self.routing.as_ref().map(|r| r.snapshot())
    }

    /// Number of shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The coordinator decision log.
    pub fn coordinator(&self) -> &Arc<DecisionLog> {
        &self.coord
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Groups a spec's ops by owning shard, preserving op order within each
    /// group and group order by first touch.
    fn groups(&self, spec: &TxnSpec) -> Vec<(usize, Vec<usize>)> {
        let n = self.shards.len();
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, op) in spec.ops.iter().enumerate() {
            let (table, key) = op_target(op);
            let shard = self.part.shard_of(table, key, n);
            match groups.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((shard, vec![i])),
            }
        }
        groups
    }

    /// Executes one transaction: fast path if it is single-shard, 2PC
    /// otherwise. A [`ShardError::WrongShard`] refusal (a migration cut a
    /// slot over under us) triggers one routing refresh and one retry; a
    /// second refusal surfaces as the typed [`ShardError::RoutingStale`].
    pub fn execute(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        match self.execute_once(spec) {
            Err(ShardError::WrongShard { epoch, hint }) => {
                self.stats.wrong_shard_retries += 1;
                self.refresh_routing(epoch, hint)?;
                match self.execute_once(spec) {
                    Err(ShardError::WrongShard { epoch, .. }) => {
                        Err(ShardError::RoutingStale { epoch })
                    }
                    other => other,
                }
            }
            other => other,
        }
    }

    /// One routing-table attempt at `spec` — [`ShardRouter::execute`]
    /// without the refresh-and-retry envelope. A `WrongShard` from either
    /// path leaves no residue: the fast path refused before executing, and
    /// 2PC aborts its prepared participants before surfacing the error.
    fn execute_once(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
        let groups = self.groups(spec);
        if groups.len() <= 1 {
            self.stats.single_shard += 1;
            let target = groups.first().map_or(0, |(s, _)| *s);
            return self.shards[target].one_shot(spec);
        }
        self.stats.cross_shard += 1;
        let trace = self.two_phase(spec, &groups, None)?;
        let outcome = trace.outcome.expect("2PC without a crash point runs to completion");
        if outcome.is_committed() {
            self.stats.cross_commits += 1;
        } else {
            self.stats.cross_aborts += 1;
        }
        Ok(outcome)
    }

    /// Installs a fresh routing table after a `WrongShard { epoch, hint }`
    /// refusal. With a refresh source, the fetched table is installed into
    /// the shared routing (epoch-fenced — a stale fetch is a no-op and the
    /// retry simply fails again, typed). Without one, but with live shared
    /// routing, the table may already have been advanced by an in-process
    /// migration — nothing to do. A static router cannot recover: the
    /// refusal propagates unchanged.
    fn refresh_routing(&mut self, epoch: u64, hint: u32) -> Result<(), ShardError> {
        match (&self.routing, &mut self.refresh) {
            (Some(routing), Some(refresh)) => {
                let table = refresh()?;
                routing.install(table);
                Ok(())
            }
            (Some(_), None) => Ok(()),
            _ => Err(ShardError::WrongShard { epoch, hint }),
        }
    }

    /// Runs 2PC for `spec` but abandons the protocol dead at `crash` — the
    /// coordinator-failure injection for the crash-torture matrix. The
    /// trace reports exactly how far the protocol got.
    pub fn execute_crashing(
        &mut self,
        spec: &TxnSpec,
        crash: CrashPoint,
    ) -> Result<TwoPcTrace, ShardError> {
        let groups = self.groups(spec);
        self.two_phase(spec, &groups, Some(crash))
    }

    fn two_phase(
        &mut self,
        spec: &TxnSpec,
        groups: &[(usize, Vec<usize>)],
        crash: Option<CrashPoint>,
    ) -> Result<TwoPcTrace, ShardError> {
        let gtid = self.coord.allocate();
        if crash == Some(CrashPoint::BeforePrepare) {
            return Ok(TwoPcTrace { gtid, prepared: vec![], decision: None, outcome: None });
        }
        // Phase one: collect votes in group order, stopping at the first
        // no-vote — later shards would only acquire locks to throw away.
        let mut votes: Vec<(usize, SpecOutcome)> = Vec::new();
        let mut all_yes = true;
        for (shard, idxs) in groups {
            let ops: Vec<WorkloadOp> = idxs.iter().map(|&i| spec.ops[i].clone()).collect();
            let vote = match self.shards[*shard].prepare(gtid, ops) {
                Ok(vote) => vote,
                // No vote (a WrongShard refusal, a dead link), but every
                // earlier shard voted yes and holds locks. Log the abort and
                // deliver it to each of them before surfacing the prepare
                // error — a retry must find no residue. A shard the abort
                // cannot reach resolves it from the log in recovery.
                Err(e) => {
                    self.coord.decide(gtid, false);
                    let yes: Vec<usize> = votes.iter().map(|(s, _)| *s).collect();
                    let _ = self.deliver(gtid, false, &yes);
                    return Err(e);
                }
            };
            let yes = vote.is_committed();
            votes.push((*shard, vote));
            if !yes {
                all_yes = false;
                break;
            }
        }
        let prepared: Vec<usize> = votes
            .iter()
            .filter(|(_, v)| v.is_committed())
            .map(|(s, _)| *s)
            .collect();
        if crash == Some(CrashPoint::AfterPrepare) {
            return Ok(TwoPcTrace { gtid, prepared, decision: None, outcome: None });
        }
        // The decision point: a forced log record for commit, a lazy one
        // for abort (presumed abort makes losing it harmless).
        self.coord.decide(gtid, all_yes);
        if crash == Some(CrashPoint::AfterDecision) {
            return Ok(TwoPcTrace { gtid, prepared, decision: Some(all_yes), outcome: None });
        }
        // Phase two: yes-voters apply the verdict; a no-voter already
        // rolled itself back while voting.
        self.deliver(gtid, all_yes, &prepared)?;
        let outcome = if all_yes {
            let mut reads = vec![None; spec.ops.len()];
            for ((_, idxs), (_, vote)) in groups.iter().zip(&votes) {
                if let SpecOutcome::Committed { reads: shard_reads } = vote {
                    for (&slot, val) in idxs.iter().zip(shard_reads) {
                        reads[slot] = val.clone();
                    }
                }
            }
            SpecOutcome::Committed { reads }
        } else {
            votes.pop().expect("a no-vote ended phase one").1
        };
        Ok(TwoPcTrace { gtid, prepared, decision: Some(all_yes), outcome: Some(outcome) })
    }

    /// Sends the durable verdict for `gtid` to every shard in `shards`, even
    /// past a failing one, so no reachable participant stays prepared.
    /// Returns the first delivery error.
    fn deliver(&mut self, gtid: u64, commit: bool, shards: &[usize]) -> Result<(), ShardError> {
        let mut first = Ok(());
        for &s in shards {
            let sent = self.shards[s].decide(gtid, commit);
            if first.is_ok() {
                first = sent;
            }
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_core::EngineConfig;

    /// Even keys on shard 0, odd keys on shard 1 — placement the tests can
    /// reason about directly.
    struct KeyParity;

    impl Partitioner for KeyParity {
        fn shard_of(&self, _table: u32, key: u64, n: usize) -> usize {
            (key % n.max(1) as u64) as usize
        }
    }

    /// Two shard engines, each holding only its own keys of `0..10`.
    fn two_shards() -> Vec<Arc<Database>> {
        let dbs: Vec<Arc<Database>> =
            (0..2).map(|_| Arc::new(Database::open(EngineConfig::default()))).collect();
        for db in &dbs {
            assert_eq!(db.create_table("t", 1).unwrap(), 0);
        }
        for key in 0..10u64 {
            dbs[(key % 2) as usize]
                .execute(|txn| txn.insert(0, key, &[100]))
                .unwrap();
        }
        dbs
    }

    fn parity_router(shards: Vec<Box<dyn ShardBackend>>) -> ShardRouter {
        ShardRouter::new(shards, Arc::new(KeyParity), Arc::new(DecisionLog::new())).unwrap()
    }

    fn two_shard_router() -> (ShardRouter, Vec<Arc<Database>>) {
        let dbs = two_shards();
        let shards = dbs
            .iter()
            .map(|db| Box::new(LocalShard(Arc::clone(db))) as Box<dyn ShardBackend>)
            .collect();
        (parity_router(shards), dbs)
    }

    /// A shard whose link times out on one 2PC verb; every other call
    /// reaches the engine behind it.
    struct DeadOn {
        shard: LocalShard,
        prepare: bool,
    }

    fn timed_out() -> ShardError {
        ShardError::Net(esdb_net::NetError::Io(std::io::ErrorKind::TimedOut.into()))
    }

    impl ShardBackend for DeadOn {
        fn one_shot(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, ShardError> {
            self.shard.one_shot(spec)
        }

        fn prepare(&mut self, gtid: u64, ops: Vec<WorkloadOp>) -> Result<SpecOutcome, ShardError> {
            if self.prepare {
                return Err(timed_out());
            }
            self.shard.prepare(gtid, ops)
        }

        fn decide(&mut self, gtid: u64, commit: bool) -> Result<(), ShardError> {
            if !self.prepare {
                return Err(timed_out());
            }
            self.shard.decide(gtid, commit)
        }
    }

    fn add(key: u64, delta: i64) -> WorkloadOp {
        WorkloadOp::Add { table: 0, key, col: 0, delta }
    }

    #[test]
    fn single_shard_takes_the_fast_path() {
        let (mut router, dbs) = two_shard_router();
        let spec = TxnSpec { kind: "t", ops: vec![add(2, 5), add(4, -5)], may_fail: false };
        assert!(router.execute(&spec).unwrap().is_committed());
        assert_eq!(router.stats(), RouterStats { single_shard: 1, ..Default::default() });
        assert_eq!(dbs[0].read_committed(0, 2).unwrap(), vec![105]);
        // The fast path never touched the coordinator: no gtid was ever
        // allocated, so a fresh allocation starts the very first batch.
        assert_eq!(router.coordinator().allocate(), 0);
    }

    #[test]
    fn cross_shard_commit_applies_everywhere_and_merges_reads() {
        let (mut router, dbs) = two_shard_router();
        let spec = TxnSpec { kind: "t", ops: vec![add(1, 7), add(2, -7)], may_fail: false };
        let outcome = router.execute(&spec).unwrap();
        // Reads come back in *op* order even though ops ran grouped by shard.
        assert_eq!(
            outcome,
            SpecOutcome::Committed { reads: vec![Some(vec![100]), Some(vec![100])] }
        );
        assert_eq!(dbs[1].read_committed(0, 1).unwrap(), vec![107]);
        assert_eq!(dbs[0].read_committed(0, 2).unwrap(), vec![93]);
        assert_eq!(
            router.stats(),
            RouterStats { cross_shard: 1, cross_commits: 1, ..Default::default() }
        );
    }

    #[test]
    fn one_no_vote_aborts_every_participant() {
        let (mut router, dbs) = two_shard_router();
        // Key 2 exists on shard 0; key 999 (odd → shard 1) does not.
        let spec = TxnSpec { kind: "t", ops: vec![add(2, 9), add(999, 1)], may_fail: true };
        assert_eq!(router.execute(&spec).unwrap(), SpecOutcome::LogicalFailure);
        // The yes-voter rolled back and released its locks: the row is
        // unchanged and immediately writable.
        assert_eq!(dbs[0].read_committed(0, 2).unwrap(), vec![100]);
        dbs[0].execute(|txn| txn.update(0, 2, &[1])).unwrap();
        assert_eq!(
            router.stats(),
            RouterStats { cross_shard: 1, cross_aborts: 1, ..Default::default() }
        );
    }

    #[test]
    fn crash_points_leave_the_documented_residue() {
        let (mut router, dbs) = two_shard_router();
        let spec = TxnSpec { kind: "t", ops: vec![add(1, 3), add(2, 3)], may_fail: false };

        let t = router.execute_crashing(&spec, CrashPoint::BeforePrepare).unwrap();
        assert!(t.prepared.is_empty() && t.decision.is_none());

        let t = router.execute_crashing(&spec, CrashPoint::AfterPrepare).unwrap();
        assert_eq!(t.prepared.len(), 2);
        assert!(t.decision.is_none());
        // Both shards hold the transaction in their prepared registries.
        for db in &dbs {
            assert_eq!(db.prepared_gtids(), vec![t.gtid]);
        }
        // Nothing is visible yet, and the coordinator has no verdict.
        assert_eq!(router.coordinator().decision(t.gtid), None);
        for db in &dbs {
            db.decide(t.gtid, false);
        }

        let t = router.execute_crashing(&spec, CrashPoint::AfterDecision).unwrap();
        assert_eq!(t.decision, Some(true));
        assert_eq!(router.coordinator().decision(t.gtid), Some(true));
        // Deliver the verdict by hand — what recovery would do.
        for db in &dbs {
            assert!(db.decide(t.gtid, true));
        }
        assert_eq!(dbs[1].read_committed(0, 1).unwrap(), vec![103]);
        assert_eq!(dbs[0].read_committed(0, 2).unwrap(), vec![103]);
    }

    #[test]
    fn prepare_error_aborts_the_earlier_yes_voters() {
        let dbs = two_shards();
        let dead = DeadOn { shard: LocalShard(Arc::clone(&dbs[1])), prepare: true };
        let mut router =
            parity_router(vec![Box::new(LocalShard(Arc::clone(&dbs[0]))), Box::new(dead)]);
        // Shard 0 votes yes first; shard 1's prepare then times out.
        let spec = TxnSpec { kind: "t", ops: vec![add(2, 5), add(1, -5)], may_fail: false };
        assert!(matches!(router.execute(&spec), Err(ShardError::Net(_))));
        assert_eq!(router.coordinator().decision(0), Some(false), "abort is logged");
        assert!(dbs[0].prepared_gtids().is_empty(), "the yes-voter was told to abort");
        assert_eq!(dbs[0].read_committed(0, 2).unwrap(), vec![100]);
        dbs[0].execute(|txn| txn.update(0, 2, &[1])).unwrap();
    }

    #[test]
    fn decide_error_still_reaches_every_other_participant() {
        let dbs = two_shards();
        let dead = DeadOn { shard: LocalShard(Arc::clone(&dbs[0])), prepare: false };
        let mut router =
            parity_router(vec![Box::new(dead), Box::new(LocalShard(Arc::clone(&dbs[1])))]);
        // Both vote yes; the commit verdict cannot reach shard 0.
        let spec = TxnSpec { kind: "t", ops: vec![add(2, 5), add(1, -5)], may_fail: false };
        assert!(matches!(router.execute(&spec), Err(ShardError::Net(_))));
        assert_eq!(router.coordinator().decision(0), Some(true));
        assert!(dbs[1].prepared_gtids().is_empty(), "shard 1 got the verdict");
        assert_eq!(dbs[1].read_committed(0, 1).unwrap(), vec![95]);
        // The unreachable shard stays in doubt until recovery resolves it.
        assert_eq!(dbs[0].prepared_gtids(), vec![0]);
        assert!(dbs[0].decide(0, router.coordinator().resolve(0)));
        assert_eq!(dbs[0].read_committed(0, 2).unwrap(), vec![105]);
    }

    #[test]
    fn empty_router_is_rejected() {
        assert!(matches!(
            ShardRouter::new(Vec::new(), Arc::new(KeyParity), Arc::new(DecisionLog::new())),
            Err(ShardError::NoShards)
        ));
    }
}
