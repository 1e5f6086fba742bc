//! The `Database` facade.

use crate::config::{EngineConfig, ExecutionModel};
use crate::metrics::WorkloadReport;
use crate::spec_exec::{self, SpecOutcome};
use esdb_dora::DoraSystem;
use esdb_lock::LockManager;
use esdb_storage::disk::PageStore;
use esdb_storage::heap::HeapFile;
use esdb_storage::schema::{Schema, TableId};
use esdb_storage::{BufferPool, InMemoryDisk, Table};
use esdb_txn::{PreparedTxn, Txn, TxnManager, TxnResult};
use esdb_wal::Wal;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Errors from database administrative operations.
///
/// Kept as a proper enum (rather than panicking) so front-ends such as the
/// network server can turn a misbehaving client's request into an error
/// response instead of crashing the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// DDL arrived after the DORA executors captured the table set.
    TablesFrozen {
        /// Name of the table whose creation was rejected.
        name: String,
    },
    /// A checkpoint or bulk-load page flush hit the page store's error path.
    CheckpointIo(esdb_storage::StorageError),
    /// Checkpointing requires the conventional execution model: DORA
    /// executors log outside the transaction manager, so the redo low-water
    /// mark over active transactions cannot be computed.
    CheckpointUnsupported,
}

impl From<esdb_storage::StorageError> for DbError {
    fn from(e: esdb_storage::StorageError) -> Self {
        DbError::CheckpointIo(e)
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::TablesFrozen { name } => write!(
                f,
                "cannot create table {name:?}: DORA executors already started \
                 (the table set is frozen at executor startup)"
            ),
            DbError::CheckpointIo(e) => write!(f, "checkpoint page flush failed: {e}"),
            DbError::CheckpointUnsupported => write!(
                f,
                "checkpointing requires the conventional execution model \
                 (DORA transactions log outside the transaction manager)"
            ),
        }
    }
}

impl std::error::Error for DbError {}

/// Point-in-time engine counters — what the network server's STATS command
/// serializes. All fields are monotonic over a database's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions (conventional + DORA).
    pub commits: u64,
    /// Aborted transactions (conventional + DORA).
    pub aborts: u64,
    /// Highest durable LSN.
    pub durable_lsn: u64,
    /// End of the allocated log.
    pub current_lsn: u64,
    /// Physical log-device flushes. `commits / wal_flushes` is the average
    /// group-commit batch size.
    pub wal_flushes: u64,
}

/// Version tag carried by [`ObsSnapshot`] wherever it is serialized; decoders
/// must reject snapshots with an unknown version with a typed error.
pub const OBS_SNAPSHOT_VERSION: u32 = 1;

/// The full observability surface: engine counters plus the cycle-accounting
/// breakdown and per-component latency histograms from `esdb-obs`.
///
/// The breakdown and histograms come from the process-global obs aggregate
/// (`esdb_obs::global()`), which every instrumented crate feeds; benchmark
/// drivers reset it between cells via `esdb_obs::global().reset()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Format version ([`OBS_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The coarse monotonic counters (the original STATS surface).
    pub stats: StatsSnapshot,
    /// Where wall time went, summed over all profiled spans and timers.
    pub breakdown: esdb_obs::WaitProfile,
    /// Lock-manager blocked-wait durations (ns).
    pub lock_wait: esdb_obs::HistogramSnapshot,
    /// WAL durability-wait durations (ns).
    pub wal_flush: esdb_obs::HistogramSnapshot,
    /// Buffer-pool miss service times (ns).
    pub pool_miss: esdb_obs::HistogramSnapshot,
    /// Whole-transaction latencies (ns).
    pub txn_latency: esdb_obs::HistogramSnapshot,
}

/// A running esdb database instance.
pub struct Database {
    config: EngineConfig,
    disk: Arc<dyn PageStore>,
    pool: Arc<BufferPool>,
    txn_mgr: Arc<TxnManager>,
    /// DORA executors, spawned lazily on first transaction so tables can be
    /// created first.
    dora: OnceLock<DoraSystem>,
    /// Registered tables by id (also inside `txn_mgr`, kept here for DORA
    /// startup and crash simulation).
    tables: RwLock<HashMap<TableId, Arc<Table>>>,
    next_table: AtomicU64,
    /// DDL fence: once the DORA system started, table creation is frozen.
    frozen: Mutex<bool>,
    /// Prepared-but-undecided participant transactions by gtid — the live
    /// (non-crashed) half of the in-doubt state; the durable half is the
    /// `Prepare` record in the WAL.
    prepared: Mutex<HashMap<u64, PreparedTxn>>,
}

impl Database {
    /// Opens a fresh in-memory database with `config`.
    pub fn open(config: EngineConfig) -> Self {
        Self::open_on(config, Arc::new(InMemoryDisk::new()))
    }

    /// Opens a database on a caller-supplied page store — the hook the
    /// crash-torture harness uses to slide a
    /// [`esdb_storage::FaultInjector`] under the buffer pool.
    pub fn open_on(config: EngineConfig, disk: Arc<dyn PageStore>) -> Self {
        let pool = Arc::new(BufferPool::new(config.buffer_frames, disk.clone()));
        let wal = Arc::new(Wal::new(config.log.into(), config.flush_latency));
        Self::assemble(config, disk, pool, wal)
    }

    /// Wires the pieces together (shared by `open` and `simulate_crash`).
    fn assemble(
        config: EngineConfig,
        disk: Arc<dyn PageStore>,
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
    ) -> Self {
        let lock_partitions = match config.execution {
            ExecutionModel::Conventional { lock_partitions } => lock_partitions,
            ExecutionModel::Dora { .. } => 16,
        };
        let locks = Arc::new(LockManager::with_timeout(lock_partitions, config.lock_timeout));
        let txn_mgr = Arc::new(TxnManager::new(locks, wal.clone(), config.elr));
        // WAL rule: no dirty page reaches the store before its log records.
        {
            let wal = wal.clone();
            pool.set_lsn_barrier(Box::new(move |lsn| wal.wait_durable(lsn)));
        }
        Database {
            config,
            disk,
            pool,
            txn_mgr,
            dora: OnceLock::new(),
            tables: RwLock::new(HashMap::new()),
            next_table: AtomicU64::new(0),
            frozen: Mutex::new(false),
            prepared: Mutex::new(HashMap::new()),
        }
    }

    /// The configuration this database runs.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Creates a table with `arity` value columns; returns its id.
    ///
    /// Fails with [`DbError::TablesFrozen`] after the first transaction on a
    /// DORA-configured database (executors capture the table set at startup).
    pub fn create_table(&self, name: &str, arity: usize) -> Result<TableId, DbError> {
        self.create_table_with_indexes(name, arity, Vec::new())
    }

    /// Creates a table carrying secondary index declarations; returns its
    /// id. The declarations become part of the table's schema, so they are
    /// durable against crash recovery ([`Database::simulate_crash`]) and
    /// travel with replication snapshots ([`Database::index_catalog`]).
    /// Index declarations are create-time only — there is no online index
    /// build.
    pub fn create_table_with_indexes(
        &self,
        name: &str,
        arity: usize,
        indexes: Vec<esdb_storage::IndexDef>,
    ) -> Result<TableId, DbError> {
        for def in &indexes {
            assert!(
                def.col < arity,
                "index {:?} on table {name:?} names column {} but arity is {arity}",
                def.name,
                def.col
            );
        }
        let frozen = self.frozen.lock();
        if *frozen {
            return Err(DbError::TablesFrozen { name: name.to_string() });
        }
        let id = self.next_table.fetch_add(1, Ordering::Relaxed) as TableId;
        let table = Arc::new(Table::create_indexed(id, name, arity, indexes, self.pool.clone()));
        self.txn_mgr.register_table(table.clone());
        self.tables.write().insert(id, table);
        Ok(id)
    }

    /// Looks up a table handle.
    pub fn table(&self, id: TableId) -> Option<Arc<Table>> {
        self.tables.read().get(&id).cloned()
    }

    fn dora(&self) -> &DoraSystem {
        self.dora.get_or_init(|| {
            *self.frozen.lock() = true;
            let partitions = match self.config.execution {
                ExecutionModel::Dora { partitions } => partitions,
                ExecutionModel::Conventional { .. } => {
                    unreachable!("dora() only called for DORA configs")
                }
            };
            DoraSystem::new(
                partitions,
                self.tables.read().clone(),
                Arc::clone(self.txn_mgr.wal()),
                self.config.elr,
            )
        })
    }

    /// Runs `f` as a transaction with commit-on-Ok / abort-on-Err and
    /// automatic retry of lock victims. Only available on the conventional
    /// execution model (DORA transactions are action lists — use
    /// [`Database::run_spec`]).
    pub fn execute<R>(&self, f: impl FnMut(&mut Txn) -> TxnResult<R>) -> TxnResult<R> {
        assert!(
            matches!(self.config.execution, ExecutionModel::Conventional { .. }),
            "closure transactions require the conventional execution model; \
             use run_spec on DORA databases"
        );
        self.txn_mgr.run(self.config.retries, f)
    }

    /// Executes one engine-agnostic transaction spec on whichever execution
    /// model this database is configured with.
    pub fn run_spec(&self, spec: &esdb_workload::TxnSpec) -> SpecOutcome {
        match self.config.execution {
            ExecutionModel::Conventional { .. } => self.run_conventional(spec, Txn::commit).0,
            ExecutionModel::Dora { .. } => spec_exec::run_dora(self.dora(), spec),
        }
    }

    /// Like [`Database::run_spec`], but a committing conventional transaction
    /// appends its commit record *without* waiting for durability and returns
    /// the LSN the caller must pass to `Wal::wait_durable` before
    /// acknowledging the commit. This is the group-commit hook the network
    /// server uses: a pipelined batch of transactions commits deferred, then
    /// one physical flush covers the whole batch.
    ///
    /// `None` means there is nothing to wait on — a read-only commit, an
    /// abort, or DORA execution (whose executors flush internally before
    /// reporting).
    pub fn run_spec_deferred(
        &self,
        spec: &esdb_workload::TxnSpec,
    ) -> (SpecOutcome, Option<esdb_wal::Lsn>) {
        match self.config.execution {
            ExecutionModel::Conventional { .. } => {
                let (outcome, lsn) = self.run_conventional(spec, Txn::commit_deferred);
                (outcome, lsn.flatten())
            }
            ExecutionModel::Dora { .. } => (spec_exec::run_dora(self.dora(), spec), None),
        }
    }

    /// Two-phase-commit participant hook: runs `spec` and, on success,
    /// leaves the transaction *prepared* — `Prepare { gtid }` durable, all
    /// locks held — registered under `gtid` until [`Database::decide`]. A
    /// [`SpecOutcome::Committed`] answer is the yes-vote and carries the
    /// per-op reads; any other outcome is a no-vote, after the run aborted
    /// locally, exactly once.
    ///
    /// Only the conventional engine participates in 2PC; DORA configs vote
    /// no (their executors commit internally and cannot hold a transaction
    /// open across the vote). A gtid already registered here also votes no
    /// — gtids are single-use by the coordinator's contract.
    pub fn run_spec_prepare(&self, gtid: u64, spec: &esdb_workload::TxnSpec) -> SpecOutcome {
        if !matches!(self.config.execution, ExecutionModel::Conventional { .. }) {
            return SpecOutcome::LogicalFailure;
        }
        let (outcome, handle) = self.run_conventional(spec, |txn| txn.prepare(gtid));
        if let Some(handle) = handle {
            let mut reg = self.prepared.lock();
            if reg.contains_key(&gtid) {
                drop(reg);
                handle.abort_decided();
                return SpecOutcome::LogicalFailure;
            }
            reg.insert(gtid, handle);
        }
        outcome
    }

    /// Runs `spec` on the conventional engine, finishing a successful run
    /// with `finish`.
    fn run_conventional<F>(
        &self,
        spec: &esdb_workload::TxnSpec,
        finish: impl FnOnce(Txn) -> F,
    ) -> (SpecOutcome, Option<F>) {
        let retries = self.config.retries;
        spec_exec::run_conventional(&self.txn_mgr, retries, spec, |_, _, _, _| {}, finish)
    }

    /// Delivers the coordinator's decision for `gtid` to the prepared
    /// transaction registered here. Idempotent: an unknown gtid (already
    /// decided, or never prepared on this shard) is a no-op returning
    /// `false` — the decision cannot be applied twice because the handle is
    /// removed from the registry before it is consumed.
    pub fn decide(&self, gtid: u64, commit: bool) -> bool {
        let handle = self.prepared.lock().remove(&gtid);
        match handle {
            Some(h) if commit => h.commit_decided(),
            Some(h) => h.abort_decided(),
            None => return false,
        }
        true
    }

    /// Gtids of transactions prepared on this database and still awaiting a
    /// decision — what a recovering coordinator (or a router re-contacting
    /// a live participant) asks for. Sorted for determinism.
    pub fn prepared_gtids(&self) -> Vec<u64> {
        let mut gtids: Vec<u64> = self.prepared.lock().keys().copied().collect();
        gtids.sort_unstable();
        gtids
    }

    /// Point-in-time engine counters (the STATS command surface).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let t = self.txn_mgr.stats();
        let (mut commits, mut aborts) = (t.commits, t.aborts);
        if let Some(dora) = self.dora.get() {
            let (c, a) = dora.quick_stats();
            commits += c;
            aborts += a;
        }
        let wal = self.wal();
        StatsSnapshot {
            commits,
            aborts,
            durable_lsn: wal.durable_lsn(),
            current_lsn: wal.current_lsn(),
            wal_flushes: wal.flush_count(),
        }
    }

    /// Counters plus the cycle-accounting breakdown and per-component
    /// latency histograms (the versioned STATS surface).
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let g = esdb_obs::global();
        ObsSnapshot {
            version: OBS_SNAPSHOT_VERSION,
            stats: self.stats_snapshot(),
            breakdown: g.profile(),
            lock_wait: g.component(esdb_obs::Component::LockWait),
            wal_flush: g.component(esdb_obs::Component::WalFlush),
            pool_miss: g.component(esdb_obs::Component::PoolMiss),
            txn_latency: g.component(esdb_obs::Component::TxnLatency),
        }
    }

    /// Reads the latest committed row (a tiny read-only transaction on the
    /// conventional path; a direct read on DORA, where readers go through
    /// executors only for transactional reads).
    pub fn read_committed(&self, table: TableId, key: u64) -> TxnResult<Vec<i64>> {
        match self.config.execution {
            ExecutionModel::Conventional { .. } => self.txn_mgr.run(self.config.retries, |t| t.read(table, key)),
            ExecutionModel::Dora { .. } => {
                let outcome = self.run_spec(&esdb_workload::TxnSpec {
                    kind: "read",
                    ops: vec![esdb_workload::WorkloadOp::Read { table, key }],
                    may_fail: true,
                });
                match outcome {
                    SpecOutcome::Committed { mut reads } => Ok(reads.remove(0).unwrap_or_default()),
                    _ => Err(esdb_txn::TxnError::Storage(
                        esdb_storage::StorageError::KeyNotFound(key),
                    )),
                }
            }
        }
    }

    /// Loads a workload's initial population (bulk, unlogged, pre-freeze).
    /// The closing page flush is a real checkpoint: population pages must be
    /// durable before any crash is survivable, and a fault-injecting page
    /// store can legitimately fail it — hence the typed error.
    pub fn load_population(&self, workload: &dyn esdb_workload::Workload) -> Result<(), DbError> {
        for def in workload.tables() {
            let id = self.create_table(&def.name, def.arity)?;
            debug_assert_eq!(id, def.id, "workload table ids must be dense from 0");
        }
        {
            let tables = self.tables.read();
            for (table, key, row) in workload.population() {
                tables[&table]
                    .insert(key, &row)
                    .map_err(DbError::CheckpointIo)?;
            }
        }
        self.pool.flush_all().map_err(DbError::CheckpointIo)
    }

    /// Takes a fuzzy checkpoint: captures the redo low-water mark over the
    /// transactions active right now, flushes every dirty page, then appends
    /// a durable [`esdb_wal::LogBody::Checkpoint`] marker carrying that mark.
    /// Returns the marker's `redo_lsn`.
    ///
    /// Correctness of the mark: any record below it belongs to a transaction
    /// that finished *before* the flush began, so the flush persisted its
    /// page effects; recovery may start redo there, and
    /// [`esdb_wal::Wal::truncate_before`] may reclaim the log prefix below
    /// it. The checkpoint is fuzzy — transactions keep running throughout.
    pub fn checkpoint(&self) -> Result<esdb_wal::Lsn, DbError> {
        if matches!(self.config.execution, ExecutionModel::Dora { .. }) {
            return Err(DbError::CheckpointUnsupported);
        }
        let redo_lsn = self.txn_mgr.checkpoint_redo_floor();
        self.pool.flush_all().map_err(DbError::CheckpointIo)?;
        let wal = self.wal();
        let range = wal.append(
            0,
            esdb_wal::NULL_LSN,
            &esdb_wal::LogBody::Checkpoint { redo_lsn },
        );
        wal.wait_durable(range.end);
        Ok(redo_lsn)
    }

    /// The page store beneath this database (replication snapshots read
    /// checkpointed pages straight off it).
    pub fn disk(&self) -> &Arc<dyn PageStore> {
        &self.disk
    }

    /// The table catalog as plain data: `(id, name, arity, heap page ids)`
    /// per table — what a replica needs to rebuild the same tables over
    /// shipped pages.
    pub fn catalog(&self) -> Vec<(TableId, String, usize, Vec<u64>)> {
        let tables = self.tables.read();
        let mut out: Vec<_> = tables
            .values()
            .map(|t| {
                let s = t.schema();
                (s.id, s.name.clone(), s.arity, t.heap().pages())
            })
            .collect();
        out.sort_by_key(|(id, ..)| *id);
        out
    }

    /// Secondary index declarations per table, sorted by table id; tables
    /// without indexes are omitted. Ships alongside [`Database::catalog`] in
    /// replication snapshots so followers rebuild the same indexes.
    pub fn index_catalog(&self) -> Vec<(TableId, Vec<esdb_storage::IndexDef>)> {
        let tables = self.tables.read();
        let mut out: Vec<_> = tables
            .values()
            .filter(|t| !t.schema().indexes.is_empty())
            .map(|t| (t.id(), t.schema().indexes.clone()))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Rebuilds a database from a shipped snapshot: a page store already
    /// populated with checkpoint-consistent pages plus the primary's
    /// [`Database::catalog`] and [`Database::index_catalog`]. Primary and
    /// secondary indexes are rebuilt from heap scans. The local WAL starts
    /// far past any primary LSN so page-LSN ordering (and the pool's flush
    /// barrier) stay trivially satisfied on the replica.
    pub fn restore_from_snapshot(
        config: EngineConfig,
        disk: Arc<dyn PageStore>,
        catalog: &[(TableId, String, usize, Vec<u64>)],
        index_catalog: &[(TableId, Vec<esdb_storage::IndexDef>)],
    ) -> Result<Database, DbError> {
        let pool = Arc::new(BufferPool::new(config.buffer_frames, disk.clone()));
        let wal = Arc::new(Wal::new_at(1 << 62, config.log.into(), config.flush_latency));
        let db = Self::assemble(config, disk, pool.clone(), wal);
        let mut max_id = 0u64;
        for (id, name, arity, pages) in catalog {
            // A table that was empty at snapshot time ships no pages; give
            // it a fresh heap rather than asserting on the empty page list.
            let heap = if pages.is_empty() {
                HeapFile::create(pool.clone()).map_err(DbError::CheckpointIo)?
            } else {
                HeapFile::from_pages(pool.clone(), pages.clone())
            };
            let indexes = index_catalog
                .iter()
                .find(|(t, _)| t == id)
                .map(|(_, defs)| defs.clone())
                .unwrap_or_default();
            let table = Arc::new(Table::from_heap(
                Schema::with_indexes(*id, name.clone(), *arity, indexes),
                heap,
            ));
            table.rebuild_index().map_err(DbError::CheckpointIo)?;
            table.rebuild_secondaries().map_err(DbError::CheckpointIo)?;
            db.txn_mgr.register_table(table.clone());
            db.tables.write().insert(*id, table);
            max_id = max_id.max(*id as u64 + 1);
        }
        db.next_table.store(max_id, Ordering::Relaxed);
        Ok(db)
    }

    /// Runs `threads` closed-loop workers, each executing `txns_per_thread`
    /// transactions from forks of `workload`. Returns the aggregate report.
    pub fn run_workload(
        self: &Arc<Self>,
        workload: &mut dyn esdb_workload::Workload,
        threads: usize,
        txns_per_thread: u64,
    ) -> WorkloadReport {
        // Warm the DORA system before timing (spawns executors).
        if matches!(self.config.execution, ExecutionModel::Dora { .. }) {
            let _ = self.dora();
        }
        let start = Instant::now();
        let mut handles = Vec::new();
        for _ in 0..threads {
            let mut gen = workload.fork();
            let db = Arc::clone(self);
            handles.push(std::thread::spawn(move || {
                let mut report = WorkloadReport::default();
                for _ in 0..txns_per_thread {
                    let spec = gen.next_txn();
                    let (outcome, profile) = esdb_obs::profile_scope(|| db.run_spec(&spec));
                    report.record(spec.kind, spec.may_fail, &outcome);
                    if esdb_obs::enabled() {
                        let latency = profile.wall();
                        report.observe(latency, &profile);
                        esdb_obs::record_component(esdb_obs::Component::TxnLatency, latency);
                    }
                }
                report
            }));
        }
        let mut report = WorkloadReport::default();
        for h in handles {
            report.merge(h.join().expect("worker"));
        }
        report.elapsed = start.elapsed();
        report
    }

    /// The WAL (metrics, crash simulation).
    pub fn wal(&self) -> &Arc<Wal> {
        self.txn_mgr.wal()
    }

    /// The transaction manager (metrics).
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txn_mgr
    }

    /// The buffer pool (metrics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Simulates a crash: abandons all volatile state (buffer pool contents
    /// beyond what was flushed, indexes, lock tables, executors) and brings
    /// up a fresh instance from the page store + the *durable* log prefix,
    /// running ARIES-style recovery. `flush_pages` controls whether dirty
    /// pages were stolen to the store before the crash.
    pub fn simulate_crash(&self, flush_pages: bool) -> Database {
        self.simulate_crash_with_report(flush_pages).0
    }

    /// Like [`Database::simulate_crash`], also returning the recovery
    /// report (analysis/redo/undo counters).
    pub fn simulate_crash_with_report(
        &self,
        flush_pages: bool,
    ) -> (Database, esdb_wal::recovery::RecoveryReport) {
        if flush_pages {
            self.pool.flush_all().expect("flush");
        }
        // What survives: the page store and the durable log prefix.
        let disk = self.disk.clone();
        let records = self.wal().durable_records();
        let pool = Arc::new(BufferPool::new(self.config.buffer_frames, disk.clone()));
        let mut tables = HashMap::new();
        for (id, table) in self.tables.read().iter() {
            let heap = HeapFile::from_pages(pool.clone(), table.heap().pages());
            // The full schema — index declarations included — survives the
            // crash: it is catalog metadata, not volatile index state.
            tables.insert(*id, Arc::new(Table::from_heap(table.schema().clone(), heap)));
        }
        let report = esdb_wal::recovery::recover(&records, &tables)
            .expect("recovery I/O on the surviving page store");
        let wal = Arc::new(Wal::new_at(
            esdb_wal::resume_lsn(self.wal().durable_lsn()),
            self.config.log.into(),
            self.config.flush_latency,
        ));
        let recovered = Database::assemble(self.config.clone(), disk, pool, wal);
        for (id, table) in tables {
            recovered.txn_mgr.register_table(table.clone());
            recovered.tables.write().insert(id, table);
        }
        recovered
            .next_table
            .store(self.next_table.load(Ordering::Relaxed), Ordering::Relaxed);
        (recovered, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_workload::{TxnSpec, WorkloadOp};

    #[test]
    fn open_create_execute_read() {
        let db = Database::open(EngineConfig::default());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(t, 1, &[42])).unwrap();
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![42]);
    }

    #[test]
    fn spec_execution_on_both_models() {
        for cfg in [EngineConfig::conventional_baseline(), EngineConfig::scalable(4)] {
            let db = Database::open(cfg);
            let t = db.create_table("t", 1).unwrap();
            let insert = TxnSpec {
                kind: "ins",
                ops: vec![WorkloadOp::Insert { table: t, key: 5, row: vec![7] }],
                may_fail: false,
            };
            assert!(matches!(db.run_spec(&insert), SpecOutcome::Committed { .. }));
            assert_eq!(db.read_committed(t, 5).unwrap(), vec![7]);
        }
    }

    #[test]
    fn dora_freezes_ddl() {
        let db = Database::open(EngineConfig::scalable(2));
        let t = db.create_table("t", 1).unwrap();
        let _ = db.run_spec(&TxnSpec {
            kind: "ins",
            ops: vec![WorkloadOp::Insert { table: t, key: 1, row: vec![1] }],
            may_fail: false,
        });
        let err = db.create_table("too-late", 1).unwrap_err();
        assert_eq!(err, DbError::TablesFrozen { name: "too-late".to_string() });
        assert!(err.to_string().contains("too-late"));
        // The rejection is an error, not a crash: the database still works.
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![1]);
    }

    #[test]
    fn workload_runs_end_to_end_conventional() {
        let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
        let mut w = esdb_workload::Ycsb::new(1_000, 50, 0.5, 2, 42);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 200);
        assert_eq!(report.attempts, 400);
        assert_eq!(report.committed + report.failed + report.expected_failures, 400);
        assert!(report.committed > 350, "{report:?}");
    }

    #[test]
    fn workload_runs_end_to_end_dora() {
        let db = Arc::new(Database::open(EngineConfig::scalable(4)));
        let mut w = esdb_workload::Ycsb::new(1_000, 50, 0.5, 2, 42);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 200);
        assert_eq!(report.attempts, 400);
        assert!(report.committed > 350, "{report:?}");
    }

    #[test]
    fn deferred_spec_commit_needs_explicit_wait() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        let spec = TxnSpec {
            kind: "ins",
            ops: vec![WorkloadOp::Insert { table: t, key: 1, row: vec![9] }],
            may_fail: false,
        };
        let (outcome, lsn) = db.run_spec_deferred(&spec);
        assert!(outcome.is_committed());
        let lsn = lsn.expect("writer gets a durability LSN");
        assert!(db.wal().durable_lsn() < lsn, "commit must not auto-flush");
        db.wal().wait_durable(lsn);
        assert!(db.wal().durable_lsn() >= lsn);

        // Read-only specs have nothing to wait on.
        let (outcome, lsn) = db.run_spec_deferred(&TxnSpec {
            kind: "read",
            ops: vec![WorkloadOp::Read { table: t, key: 1 }],
            may_fail: false,
        });
        assert!(outcome.is_committed());
        assert!(lsn.is_none());
    }

    #[test]
    fn stats_snapshot_counts_both_models() {
        for cfg in [EngineConfig::conventional_baseline(), EngineConfig::scalable(2)] {
            let db = Database::open(cfg);
            let t = db.create_table("t", 1).unwrap();
            for k in 0..5 {
                let _ = db.run_spec(&TxnSpec {
                    kind: "ins",
                    ops: vec![WorkloadOp::Insert { table: t, key: k, row: vec![1] }],
                    may_fail: false,
                });
            }
            let snap = db.stats_snapshot();
            assert_eq!(snap.commits, 5, "{snap:?}");
            assert!(snap.current_lsn > 0);
            assert!(snap.durable_lsn <= snap.current_lsn);
        }
    }

    #[test]
    fn obs_snapshot_reflects_profiled_work() {
        let db = Arc::new(Database::open(EngineConfig::conventional_baseline()));
        let mut w = esdb_workload::Ycsb::new(500, 50, 0.5, 2, 7);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 100);
        let snap = db.obs_snapshot();
        assert_eq!(snap.version, OBS_SNAPSHOT_VERSION);
        assert_eq!(snap.stats, db.stats_snapshot());
        // The txn-latency component histogram saw at least this run's
        // transactions (the global aggregate is shared across tests in this
        // process, so ≥, not ==).
        assert!(snap.txn_latency.count >= report.attempts, "{snap:?}");
        // The report-local histogram is exact.
        assert_eq!(report.latency.count, report.attempts);
        assert!(report.waits.wall() > 0);
    }

    #[test]
    fn prepare_decide_commit_roundtrip() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();

        let spec = TxnSpec {
            kind: "xfer",
            ops: vec![WorkloadOp::Add { table: t, key: 1, col: 0, delta: 5 }],
            may_fail: false,
        };
        let vote = db.run_spec_prepare(77, &spec);
        let SpecOutcome::Committed { reads } = vote else {
            panic!("clean prepare must vote commit: {vote:?}")
        };
        assert_eq!(reads, vec![Some(vec![10])]);
        assert_eq!(db.prepared_gtids(), vec![77]);

        assert!(db.decide(77, true));
        assert!(db.prepared_gtids().is_empty());
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![15]);
        // Second delivery of the same decision is a no-op.
        assert!(!db.decide(77, true));
    }

    #[test]
    fn failed_prepare_aborts_exactly_once_on_the_coordinator_error_path() {
        // Regression: the coordinator error path used to be able to abort a
        // vote-no transaction a second time (once inside the prepare run,
        // once when the coordinator delivered its global abort). The undo
        // must run exactly once and the locks release exactly once.
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();
        let aborts_before = db.txn_manager().stats().aborts;

        // Buffered write first, then a logical failure (missing key): the
        // prepare run must roll the write back when it aborts.
        let spec = TxnSpec {
            kind: "bad",
            ops: vec![
                WorkloadOp::Add { table: t, key: 1, col: 0, delta: 7 },
                WorkloadOp::Add { table: t, key: 999, col: 0, delta: 1 },
            ],
            may_fail: true,
        };
        let vote = db.run_spec_prepare(5, &spec);
        assert_eq!(vote, SpecOutcome::LogicalFailure);
        assert_eq!(db.txn_manager().stats().aborts, aborts_before + 1, "exactly one abort");
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![10], "buffered write undone once");
        assert!(db.prepared_gtids().is_empty(), "vote-no is never registered");

        // The coordinator's global abort for the same gtid lands later — it
        // must be a pure no-op, not a second rollback.
        assert!(!db.decide(5, false));
        assert_eq!(db.txn_manager().stats().aborts, aborts_before + 1, "still one abort");
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![10]);

        // Locks were released exactly once: a fresh writer gets through.
        db.execute(|txn| txn.update(t, 1, &[11]).map(|_| ())).unwrap();
    }

    #[test]
    fn duplicate_gtid_votes_abort() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| {
            txn.insert(t, 1, &[0])?;
            txn.insert(t, 2, &[0])
        })
        .unwrap();
        let mk = |key| TxnSpec {
            kind: "w",
            ops: vec![WorkloadOp::Add { table: t, key, col: 0, delta: 1 }],
            may_fail: false,
        };
        assert!(db.run_spec_prepare(9, &mk(1)).is_committed());
        // Same gtid again (different key, so no lock conflict): rejected,
        // and the rejected attempt's work is rolled back.
        assert!(!db.run_spec_prepare(9, &mk(2)).is_committed());
        assert!(db.decide(9, true));
        assert_eq!(db.read_committed(t, 1).unwrap(), vec![1]);
        assert_eq!(db.read_committed(t, 2).unwrap(), vec![0], "duplicate's write undone");
    }

    #[test]
    fn dora_votes_no_on_prepare() {
        let db = Database::open(EngineConfig::scalable(2));
        let t = db.create_table("t", 1).unwrap();
        let spec = TxnSpec {
            kind: "ins",
            ops: vec![WorkloadOp::Insert { table: t, key: 1, row: vec![1] }],
            may_fail: false,
        };
        assert!(!db.run_spec_prepare(1, &spec).is_committed());
    }

    #[test]
    fn in_doubt_txn_survives_crash_and_resolves_both_ways() {
        // Prepared-but-undecided at crash time: recovery reports it in
        // doubt, keeps its effects (they may yet commit), and the
        // coordinator's answer then either keeps or undoes them.
        let mk_crashed = || {
            let db = Database::open(EngineConfig::conventional_baseline());
            let t = db.create_table("t", 1).unwrap();
            db.execute(|txn| txn.insert(t, 1, &[10])).unwrap();
            let spec = TxnSpec {
                kind: "w",
                ops: vec![WorkloadOp::Add { table: t, key: 1, col: 0, delta: 5 }],
                may_fail: false,
            };
            assert!(db.run_spec_prepare(33, &spec).is_committed());
            let records = db.wal().durable_records();
            let (recovered, report) = db.simulate_crash_with_report(false);
            std::mem::forget(db); // crashed processes don't run Drop rollbacks
            (recovered, report, records, t)
        };

        // Coordinator says commit: redone effects stay.
        let (recovered, report, _, t) = mk_crashed();
        assert_eq!(report.in_doubt.values().copied().collect::<Vec<_>>(), vec![33]);
        assert!(report.losers.is_empty());
        assert_eq!(recovered.read_committed(t, 1).unwrap(), vec![15]);

        // Coordinator says abort (or is presumed to): undo_txn rolls back.
        let (recovered, report, records, t) = mk_crashed();
        let (&txn_id, _) = report.in_doubt.iter().next().unwrap();
        let n = esdb_wal::recovery::undo_txn(
            &records,
            &recovered.txn_manager().tables(),
            txn_id,
            recovered.wal().current_lsn(),
        )
        .unwrap();
        assert_eq!(n, 1);
        assert_eq!(recovered.read_committed(t, 1).unwrap(), vec![10]);
    }

    #[test]
    fn crash_recovery_preserves_committed_state() {
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db.create_table("t", 1).unwrap();
        db.execute(|txn| {
            txn.insert(t, 1, &[10])?;
            txn.insert(t, 2, &[20])
        })
        .unwrap();
        db.execute(|txn| txn.update(t, 1, &[11]).map(|_| ())).unwrap();

        let recovered = db.simulate_crash(false);
        assert_eq!(recovered.read_committed(t, 1).unwrap(), vec![11]);
        assert_eq!(recovered.read_committed(t, 2).unwrap(), vec![20]);
        // And the recovered database accepts new transactions.
        recovered.execute(|txn| txn.insert(t, 3, &[30])).unwrap();
        assert_eq!(recovered.read_committed(t, 3).unwrap(), vec![30]);
    }

    #[test]
    fn secondary_index_declarations_survive_crash() {
        use esdb_storage::{IndexDef, IndexKind};
        let db = Database::open(EngineConfig::conventional_baseline());
        let t = db
            .create_table_with_indexes(
                "t",
                2,
                vec![IndexDef { id: 0, name: "by_col0".into(), col: 0, kind: IndexKind::Range }],
            )
            .unwrap();
        db.execute(|txn| {
            txn.insert(t, 1, &[10, 0])?;
            txn.insert(t, 2, &[10, 0])?;
            txn.insert(t, 3, &[20, 0])
        })
        .unwrap();
        assert_eq!(db.index_catalog().len(), 1);

        let recovered = db.simulate_crash(false);
        let table = recovered.table(t).unwrap();
        assert_eq!(table.schema().indexes.len(), 1, "declaration recovered");
        assert_eq!(table.secondary(0).unwrap().lookup_eq(10), vec![1, 2]);
        assert_eq!(table.secondary(0).unwrap().lookup_range(15, 25).unwrap(), vec![3]);
    }

    #[test]
    fn tatp_smoke_on_scalable_config() {
        let db = Arc::new(Database::open(EngineConfig::scalable(4)));
        let mut w = esdb_workload::Tatp::new(200, 7);
        db.load_population(&w).expect("population load");
        let report = db.run_workload(&mut w, 2, 300);
        assert_eq!(report.attempts, 600);
        assert_eq!(report.failed, 0, "only expected failures allowed: {report:?}");
        assert!(report.committed > 300);
    }
}
