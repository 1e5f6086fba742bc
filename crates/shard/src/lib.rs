//! # esdb-shard — partitioned scale-out with cross-shard two-phase commit
//!
//! The keynote's "embarrassingly scalable" endgame: once a single engine
//! scales within a socket (DORA, consolidation-array logging), the next
//! multiplier is *partitioning* — N independent engines, each owning a
//! hash slice of every table, with a thin routing layer in front.
//!
//! * [`partition`] — key → shard placement ([`BranchPartitioner`] for TPC-B
//!   branch alignment; [`SharedRouting`]'s slot table for uniform spread).
//! * [`router`] — [`ShardRouter`] classifies each transaction. Single-shard
//!   transactions take the existing one-shot fast path on their home shard,
//!   untouched. Cross-shard transactions run two-phase commit.
//! * [`coordinator`] — [`DecisionLog`]: the coordinator's WAL. Commit
//!   decisions are forced; abort decisions are *presumed* — a crash that
//!   loses them still resolves correctly.
//! * [`recovery`] — resolving a participant's in-doubt transactions after a
//!   crash, from the coordinator's durable verdicts.
//! * [`workload`] — [`ShardedTpcb`]: TPC-B with a tunable cross-shard
//!   transaction ratio, branch-aligned so the partitioner can keep the
//!   common case local.
//!
//! The 2PC protocol is the classic presumed-abort variant:
//!
//! ```text
//! coordinator                         participant
//!   allocate gtid (durable watermark)
//!   PREPARE(gtid, ops)  ─────────────▶  execute, force Prepare record,
//!   ◀─────────────────────  vote        hold locks
//!   all yes: force Decide(commit)
//!   any no:  Decide(abort), no force
//!   DECIDE(gtid, verdict) ───────────▶  commit or roll back, release
//! ```
//!
//! A participant that crashes between Prepare and Decide recovers the
//! transaction *in doubt*: redone, not undone, locks conceptually held. It
//! then asks the coordinator's [`DecisionLog`]; no durable commit verdict
//! means abort.

pub mod coordinator;
pub mod partition;
pub mod recovery;
pub mod router;
pub mod routing;
pub mod workload;

pub use coordinator::DecisionLog;
pub use partition::{BranchPartitioner, Partitioner};
pub use recovery::{resolve_in_doubt, ResolveReport};
pub use router::{CrashPoint, LocalShard, NetShard, ShardBackend, ShardRouter, TwoPcTrace};
pub use routing::{OwnedShard, SharedRouting, ShardOwnership};
pub use workload::{load_shard_population, ShardedTpcb};

/// Errors surfaced by the routing layer.
#[derive(Debug)]
pub enum ShardError {
    /// A network backend failed.
    Net(esdb_net::NetError),
    /// The router was built over zero shards.
    NoShards,
    /// The addressed shard does not own the touched slot: the caller's
    /// routing table is stale. Carries the shard's routing epoch and its
    /// hint at the owner — a router refreshes its table and retries once.
    WrongShard {
        /// The refusing shard's routing epoch.
        epoch: u64,
        /// The shard it believes owns the touched slot.
        hint: u32,
    },
    /// Routing stayed stale across a refresh-and-retry: the refreshed table
    /// *still* sent the transaction to a shard that refused it. Bounded
    /// retry, typed surface — callers decide whether to back off or fail.
    RoutingStale {
        /// The epoch of the second refusal.
        epoch: u64,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Net(e) => write!(f, "shard backend: {e}"),
            ShardError::NoShards => write!(f, "router needs at least one shard"),
            ShardError::WrongShard { epoch, hint } => {
                write!(f, "wrong shard (routing epoch {epoch}, owner hint shard {hint})")
            }
            ShardError::RoutingStale { epoch } => {
                write!(f, "routing still stale after refresh (shard epoch {epoch})")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<esdb_net::NetError> for ShardError {
    fn from(e: esdb_net::NetError) -> Self {
        match e {
            esdb_net::NetError::WrongShard { epoch, hint } => {
                ShardError::WrongShard { epoch, hint }
            }
            e => ShardError::Net(e),
        }
    }
}
