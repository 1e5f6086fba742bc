//! # esdb-core — the embarrassingly scalable database engine
//!
//! The system the keynote sketches, assembled from the workspace substrates:
//!
//! * a main-memory storage manager (`esdb-storage`),
//! * a centralized 2PL transaction path (`esdb-lock` + `esdb-txn`) **and** a
//!   data-oriented execution path (`esdb-dora`), selectable per database,
//! * a write-ahead log with serial / decoupled / consolidation-array buffers
//!   and optional early lock release (`esdb-wal`),
//! * staged and Volcano query engines (`esdb-staged`),
//! * a chip-multiprocessor simulator bridge (`esdb-sim`) so every design
//!   choice can be swept to 64+ hardware contexts regardless of the host.
//!
//! The entry point is [`Database`]:
//!
//! ```
//! use esdb_core::{Database, EngineConfig};
//!
//! let db = Database::open(EngineConfig::default());
//! let accounts = db.create_table("accounts", 2).unwrap();
//! db.execute(|txn| {
//!     txn.insert(accounts, 1, &[100, 0])?;
//!     txn.insert(accounts, 2, &[250, 0])?;
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(db.read_committed(accounts, 1).unwrap(), vec![100, 0]);
//! ```

pub mod config;
pub mod db;
pub mod metrics;
pub mod query;
pub mod quorum;
pub mod routing;
pub mod simbridge;
pub mod spec_exec;

pub use config::{EngineConfig, ExecutionModel};
pub use db::{Database, DbError, ObsSnapshot, StatsSnapshot, OBS_SNAPSHOT_VERSION};
pub use quorum::{QuorumError, QuorumPolicy, ReplGroup};
pub use routing::{slot_of, RoutingTable, DEFAULT_SLOTS};
pub use metrics::WorkloadReport;
pub use simbridge::{run_sim_workload, sim_model_config, sim_wait_profile, SimRunConfig};

pub use esdb_txn::{TxnError, TxnResult};
