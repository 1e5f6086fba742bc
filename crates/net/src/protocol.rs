//! The esdb wire protocol: length-prefixed binary frames.
//!
//! Every message is one frame: a little-endian `u32` payload length followed
//! by the payload, whose first byte is the message tag. Integers are
//! little-endian throughout; rows are a `u16` column count followed by that
//! many `i64`s.
//!
//! **Each frame is declared once.** A `wire_enum!` declaration names every
//! variant's tag byte and lists its fields in wire order; the macro derives
//! the enum, its encoder and its decoder from that one list, so the two
//! directions cannot drift apart. Each field type knows its own byte form
//! through the `Wire` trait. Length prefixes differ by field, so a list
//! field states its prefix width right in the declaration (`ops:
//! Vec<WorkloadOp> as u16`, `slots: Vec<u32> as u32`); the same `as`
//! narrows a `usize` on the wire. The only lists whose width is not written
//! at the field are the ones with a single form everywhere, stated in their
//! `Wire` impl: rows (`Vec<i64>`, u16), page and gtid lists (`Vec<u64>`,
//! u32), byte blobs (`Vec<u8>`, u32) and strings (u16).
//!
//! Decoding distinguishes **incomplete** input (the frame's bytes have not
//! all arrived — try again after reading more) from **malformed** input (the
//! bytes can never become a valid frame — the connection is beyond repair).
//! A malformed frame is an error value, never a panic: a hostile or buggy
//! client must not be able to take down the server.

use bytes::BufMut;
use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{ObsSnapshot, StatsSnapshot, OBS_SNAPSHOT_VERSION};
use esdb_obs::{HistogramSnapshot, WaitProfile};
use esdb_staged::{AggFunc, CmpOp};
use esdb_workload::{TxnSpec, WorkloadOp};

/// Frame header size: the `u32` payload length.
pub const HEADER_LEN: usize = 4;

/// Upper bound on a frame payload. Anything larger is malformed — the cap
/// keeps a hostile length prefix from making the server allocate gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The payload's structure is invalid (unknown tag, truncated field,
    /// trailing garbage, row too wide).
    Malformed(&'static str),
    /// A versioned snapshot frame from a peer speaking a format this build
    /// does not understand. Typed (not a panic, not `Malformed`) so callers
    /// can distinguish skew from corruption.
    UnsupportedVersion(u32),
    /// The peer stopped sending (or accepting) bytes for longer than the
    /// configured socket timeout while a frame exchange was in flight. Typed
    /// so a hung peer degrades to an error the caller can act on instead of
    /// blocking a thread forever.
    Timeout,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::Malformed(why) => write!(f, "malformed frame: {why}"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "obs snapshot version {v} not supported (this build speaks {OBS_SNAPSHOT_VERSION})")
            }
            FrameError::Timeout => write!(f, "peer stalled past the socket timeout"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Checked cursor over a payload: every read verifies length first, so
/// truncated or lying frames surface as [`FrameError::Malformed`], never as
/// a panic.
struct Reader<'a> {
    buf: &'a [u8],
    /// Boxed [`WirePlan`] inputs entered so far (see [`MAX_PLAN_DEPTH`]).
    depth: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() < n {
            return Err(FrameError::Malformed("truncated field"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes"))
        }
    }
}

/// A value with one byte form on the wire.
trait Wire: Sized {
    /// Appends the value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value from the front of `r`.
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

/// A field whose declaration states an integer width `W` (`field: T as W`):
/// a list carries its element count as a `W`, a `usize` travels as a `W`.
trait WireAs<W>: Sized {
    fn put_as(&self, out: &mut Vec<u8>);
    fn get_as(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

/// An integer type usable as a list's length prefix.
trait Width: Wire {
    fn of(len: usize) -> Self;
    fn to_len(self) -> usize;
}

macro_rules! wire_int {
    ($($T:ty),*) => {$(
        impl Wire for $T {
            fn put(&self, out: &mut Vec<u8>) {
                out.put_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                let bytes = r.take(std::mem::size_of::<$T>())?;
                Ok(<$T>::from_le_bytes(bytes.try_into().expect("took the exact width")))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64, i64);

macro_rules! width {
    ($($W:ty),*) => {$(
        impl Width for $W {
            fn of(len: usize) -> Self {
                debug_assert!(len <= <$W>::MAX as usize);
                len as $W
            }
            fn to_len(self) -> usize {
                self as usize
            }
        }
    )*};
}
width!(u16, u32);

impl<T: Wire, W: Width> WireAs<W> for Vec<T> {
    fn put_as(&self, out: &mut Vec<u8>) {
        W::of(self.len()).put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get_as(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let n = W::get(r)?.to_len();
        // Every element must actually be present (checked per read); the
        // cap keeps a hostile count from pre-allocating gigabytes.
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl WireAs<u16> for usize {
    fn put_as(&self, out: &mut Vec<u8>) {
        (*self as u16).put(out);
    }
    fn get_as(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(u16::get(r)? as usize)
    }
}

/// Strict: any byte but 0 or 1 is malformed.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::Malformed("bad bool")),
        }
    }
}

/// A 0/1 tag byte, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                1u8.put(out);
                v.put(out);
            }
            None => 0u8.put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(FrameError::Malformed("bad option tag")),
        }
    }
}

/// A row: u16 column count, then the columns.
impl Wire for Vec<i64> {
    fn put(&self, out: &mut Vec<u8>) {
        WireAs::<u16>::put_as(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        WireAs::<u16>::get_as(r)
    }
}

/// A page-id or gtid list: u32 count, then the ids.
impl Wire for Vec<u64> {
    fn put(&self, out: &mut Vec<u8>) {
        WireAs::<u32>::put_as(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        WireAs::<u32>::get_as(r)
    }
}

/// A byte blob: u32 length, then the bytes (pages and log spans overflow a
/// u16 prefix).
impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        u32::of(self.len()).put(out);
        out.put_slice(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let len = u32::get(r)?.to_len();
        Ok(r.take(len)?.to_vec())
    }
}

/// UTF-8 with a u16 byte length; longer strings are cut at the limit.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        let bytes = &self.as_bytes()[..self.len().min(u16::MAX as usize)];
        u16::of(bytes.len()).put(out);
        out.put_slice(bytes);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let len = u16::get(r)?.to_len();
        String::from_utf8(r.take(len)?.to_vec())
            .map_err(|_| FrameError::Malformed("non-utf8 string"))
    }
}

impl<T: Wire + Default + Copy, const N: usize> Wire for [T; N] {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let mut a = [T::default(); N];
        for v in &mut a {
            *v = T::get(r)?;
        }
        Ok(a)
    }
}

macro_rules! wire_tuple {
    ($($T:ident),+) => {
        impl<$($T: Wire),+> Wire for ($($T,)+) {
            #[allow(non_snake_case)]
            fn put(&self, out: &mut Vec<u8>) {
                let ($($T,)+) = self;
                $($T.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(($($T::get(r)?,)+))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C, D);
wire_tuple!(A, B, C, D, E);

/// Structs whose wire form is their fields in the order listed.
macro_rules! wire_struct {
    ($($T:ident { $($f:ident),* })*) => {$(
        impl Wire for $T {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok($T { $($f: Wire::get(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    StatsSnapshot { commits, aborts, durable_lsn, current_lsn, wal_flushes }
    WaitProfile { useful, lock_wait, latch_spin, log_wait, io_retry, commit_flush }
    HistogramSnapshot { count, sum, buckets }
    ServerStats {
        engine, sessions_accepted, sessions_shed, sessions_active, txns_executed, txns_committed,
        batches
    }
}

/// Version first: a snapshot from a build speaking another format decodes
/// to a typed error, never a guess at its layout (and never a panic).
impl Wire for ObsSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        self.version.put(out);
        self.stats.put(out);
        self.breakdown.put(out);
        for h in [&self.lock_wait, &self.wal_flush, &self.pool_miss, &self.txn_latency] {
            h.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let version = u32::get(r)?;
        if version != OBS_SNAPSHOT_VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        Ok(ObsSnapshot {
            version,
            stats: Wire::get(r)?,
            breakdown: Wire::get(r)?,
            lock_wait: Wire::get(r)?,
            wal_flush: Wire::get(r)?,
            pool_miss: Wire::get(r)?,
            txn_latency: Wire::get(r)?,
        })
    }
}

impl Wire for Box<ObsSnapshot> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        ObsSnapshot::get(r).map(Box::new)
    }
}

/// Plan inputs are the one recursive field: each level of nesting counts
/// against [`MAX_PLAN_DEPTH`] before its tag is read.
impl Wire for Box<WirePlan> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        r.depth += 1;
        if r.depth >= MAX_PLAN_DEPTH {
            return Err(FrameError::Malformed("plan nested too deeply"));
        }
        let plan = WirePlan::get(r)?;
        r.depth -= 1;
        Ok(Box::new(plan))
    }
}

/// Declares a tagged enum's wire form once. Each variant is written as
/// `TAG_CONST = byte => Variant` followed by its fields in wire order: none,
/// one named tuple field `(name: Type)`, or struct fields `{ name: Type }`.
/// A field may end in `as u16`/`as u32` to state its width (see
/// [`WireAs`]). The macro emits one tag const per variant, a `mod $m` of
/// per-variant encoders taking the fields by reference (so a caller holding
/// borrowed fields, like [`encode_spec`], needs no owned enum), and the
/// enum's [`Wire`] impl, whose decoder rejects unknown tags with `$unknown`.
///
/// `$vis enum Name in m, "..." { .. }` also defines the enum (keeping every
/// attribute and doc comment); `impl Name in m, "..." { .. }` adds the codec
/// to an enum defined elsewhere.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident in $m:ident, $unknown:literal {
            $(
                $(#[$vmeta:meta])*
                $tag:ident = $val:literal => $var:ident
                $(($tb:ident: $tt:ty $(as $tw:ident)?))?
                $({ $($(#[$fmeta:meta])* $f:ident: $ft:ty $(as $fw:ident)?),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Name {
            $(
                $(#[$vmeta])*
                $var $(($tt))? $({ $($(#[$fmeta])* $f: $ft),* })?,
            )*
        }
        wire_enum!(@codec $Name in $m, $unknown {
            $($tag = $val => $var [$($tb: $tt $(as $tw)?)?] {$($($f: $ft $(as $fw)?),*)?})*
        });
    };
    (
        impl $Name:ident in $m:ident, $unknown:literal {
            $(
                $tag:ident = $val:literal => $var:ident
                $({ $($f:ident: $ft:ty $(as $fw:ident)?),* $(,)? })?
            ),* $(,)?
        }
    ) => {
        wire_enum!(@codec $Name in $m, $unknown {
            $($tag = $val => $var [] {$($($f: $ft $(as $fw)?),*)?})*
        });
    };
    (@codec $Name:ident in $m:ident, $unknown:literal {
        $(
            $tag:ident = $val:literal => $var:ident
            [$($tb:ident: $tt:ty $(as $tw:ident)?)?]
            {$($f:ident: $ft:ty $(as $fw:ident)?),*}
        )*
    }) => {
        $(const $tag: u8 = $val;)*

        #[allow(non_snake_case, clippy::ptr_arg, clippy::borrowed_box)]
        mod $m {
            use super::*;
            $(
                pub(super) fn $var($($tb: &$tt,)? $($f: &$ft,)* out: &mut Vec<u8>) {
                    $tag.put(out);
                    $(wire_enum!(@put out, $tb $(as $tw)?);)?
                    $(wire_enum!(@put out, $f $(as $fw)?);)*
                }
            )*
        }

        impl Wire for $Name {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($Name::$var { $(0: $tb)? $($f),* } => $m::$var($($tb,)? $($f,)* out),)*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Ok(match u8::get(r)? {
                    $($tag => $Name::$var {
                        $(0: wire_enum!(@get r $(as $tw)?))?
                        $($f: wire_enum!(@get r $(as $fw)?)),*
                    },)*
                    _ => return Err(FrameError::Malformed($unknown)),
                })
            }
        }
    };
    (@put $out:ident, $v:ident) => { Wire::put($v, $out) };
    (@put $out:ident, $v:ident as $w:ident) => { WireAs::<$w>::put_as($v, $out) };
    (@get $r:ident) => { Wire::get($r)? };
    (@get $r:ident as $w:ident) => { WireAs::<$w>::get_as($r)? };
}

// Payload tags. Requests and responses share one byte space so a tag is
// self-describing in traces.

wire_enum! {
    /// Client → server messages.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request in request, "unknown request tag" {
        /// Liveness probe.
        T_PING = 0x01 => Ping,
        /// Engine + server counters.
        T_STATS = 0x02 => Stats,
        /// Full observability snapshot: counters plus the cycle-accounting
        /// breakdown and per-component latency histograms.
        T_OBS_STATS = 0x04 => ObsStats,
        /// One-shot transaction: the whole op list in one frame. The server
        /// executes, commits (deferred, riding the session batch's single WAL
        /// flush) and replies with an [`Response::Outcome`].
        T_ONE_SHOT = 0x03 => OneShot {
            /// Whether a logical failure is an expected outcome.
            may_fail: bool,
            /// The operations, in order.
            ops: Vec<WorkloadOp> as u16,
        },
        /// Opens an interactive transaction on this session.
        T_BEGIN = 0x10 => Begin,
        /// Reads a row inside the session's open transaction.
        T_READ = 0x11 => Read {
            /// Table id.
            table: u32,
            /// Key.
            key: u64,
        },
        /// Overwrites a row inside the open transaction.
        T_UPDATE = 0x12 => Update {
            /// Table id.
            table: u32,
            /// Key.
            key: u64,
            /// New row.
            row: Vec<i64>,
        },
        /// Inserts a row inside the open transaction.
        T_INSERT = 0x13 => Insert {
            /// Table id.
            table: u32,
            /// Key.
            key: u64,
            /// Row.
            row: Vec<i64>,
        },
        /// Commits the open transaction (acknowledged only once durable).
        T_COMMIT = 0x14 => Commit,
        /// Aborts the open transaction.
        T_ABORT = 0x15 => Abort,
        /// Replica bootstrap: take a checkpoint and stream the page snapshot.
        /// The server answers with one [`Response::SnapBegin`], a
        /// [`Response::SnapPage`] per page, and a closing [`Response::SnapEnd`].
        T_REPL_SNAPSHOT = 0x20 => ReplSnapshot,
        /// Turns this session into a log-shipping feed: the server pushes
        /// [`Response::LogChunk`] frames covering the durable log from `from`
        /// onward until the connection closes. The only request the feed still
        /// reads afterwards is [`Request::ReplAck`]. `term` is the highest
        /// replication term the subscriber has observed: a primary contacted by
        /// a subscriber from a *higher* term knows it has been superseded and
        /// answers [`Response::Fenced`] instead of shipping.
        T_REPL_SUBSCRIBE = 0x21 => ReplSubscribe {
            /// First LSN the subscriber still needs.
            from: u64,
            /// Highest term the subscriber has observed (0 = none).
            term: u64,
        },
        /// Follower → primary on a subscribe feed: "my durable replication
        /// cursor now extends to `lsn`". Carries the follower's term so a
        /// deposed primary learns about its successor even from an ack. This is
        /// the input to semi-sync quorum commit: the primary's group-commit wait
        /// can additionally block until K followers have acked past the commit
        /// LSN.
        T_REPL_ACK = 0x24 => ReplAck {
            /// Highest term the follower has observed.
            term: u64,
            /// The follower's durable cursor end.
            lsn: u64,
        },
        /// Read-your-writes token: the primary's durable LSN right now. A client
        /// that just committed here can hand the token to a replica read.
        T_COMMIT_TOKEN = 0x22 => CommitToken,
        /// Follower read gated on a token: answered with [`Response::Row`] only
        /// once the replica has applied up to `min_lsn`, with
        /// [`Response::Lagging`] if it cannot within its wait budget.
        T_READ_AT = 0x23 => ReadAt {
            /// Table id.
            table: u32,
            /// Key.
            key: u64,
            /// The read-your-writes token (0 = no freshness requirement).
            min_lsn: u64,
        },
        /// Two-phase-commit phase one: execute this shard's slice of a
        /// cross-shard transaction and *prepare* it (durable `Prepare` record,
        /// locks held) instead of committing. Answered with a
        /// [`Response::ShardVote`].
        T_SHARD_PREPARE = 0x30 => ShardPrepare {
            /// Global transaction id (coordinator-allocated, single-use).
            gtid: u64,
            /// This shard's slice of the transaction's operations, in order.
            ops: Vec<WorkloadOp> as u16,
        },
        /// Two-phase-commit phase two: deliver the coordinator's decision for
        /// `gtid` to this participant. Idempotent; answered with
        /// [`Response::Ok`] whether or not the gtid was still registered.
        T_SHARD_DECIDE = 0x31 => ShardDecide {
            /// Global transaction id.
            gtid: u64,
            /// `true` = commit, `false` = abort.
            commit: bool,
        },
        /// Recovering participant → coordinator front-end: what was decided for
        /// `gtid`? Answered with a [`Response::ShardDecision`] (presumed abort
        /// when no durable decision exists) or [`Response::Error`] if this
        /// server has no coordinator decision source configured.
        T_SHARD_STATUS = 0x32 => ShardStatus {
            /// Global transaction id being resolved.
            gtid: u64,
        },
        /// Recovering coordinator → participant: which gtids are prepared here
        /// and still awaiting a decision? Answered with [`Response::ShardGtids`].
        T_SHARD_IN_DOUBT = 0x33 => ShardInDoubt,
        /// Follower OLAP query gated on a token: execute `plan` at a
        /// commit-consistent snapshot no older than `min_lsn`, answered with
        /// [`Response::Rows`] (or [`Response::Lagging`] if the replica cannot
        /// catch up within its wait budget). Only servers with an apply frontier
        /// configured (followers) serve queries; a primary answers a typed
        /// [`Response::Error`].
        T_QUERY = 0x25 => Query {
            /// The read-your-writes token (0 = no freshness requirement).
            min_lsn: u64,
            /// The plan to execute.
            plan: WirePlan,
        },
        /// Routing-table observation: "what slot → shard map are you serving
        /// under, and at which epoch?". Answered with [`Response::Routing`].
        /// Cheap by design — routers poll it to refresh after a
        /// [`Response::WrongShard`], and tests poll it to observe cutover.
        T_ROUTING_SNAPSHOT = 0x34 => RoutingSnapshot,
        /// Migration bulk fetch: stream every committed row of `table` whose
        /// `(table, key)` hashes to `slot` under a `slot_count`-slot ring.
        /// Answered with [`Response::MigRows`]. This is the fuzzy-copy read the
        /// rebalance coordinator drives against a source shard.
        T_MIG_FETCH = 0x35 => MigFetch {
            /// Table id.
            table: u32,
            /// Hash slot whose rows are wanted.
            slot: u32,
            /// Ring size the requester's routing table uses (so both sides
            /// agree on the hash domain even across ring-size reconfigurations).
            slot_count: u32,
        },
    }
}

/// Maximum [`WirePlan`] nesting depth a decoder accepts. Caps recursion so
/// a hostile frame full of `Filter` tags cannot blow the reactor's stack.
pub const MAX_PLAN_DEPTH: usize = 64;

wire_enum! {
    /// A serializable query plan: the wire face of `esdb_staged::PlanNode`,
    /// with tables and secondary indexes referenced by catalog id. The server
    /// resolves ids and validates column offsets against its own catalog and
    /// answers a typed [`Response::Error`] for anything unknown — a stale or
    /// hostile client can never make the execution engine panic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WirePlan in plan, "unknown plan tag" {
        /// Full scan; output rows are `[key, col0, col1, ...]`.
        WP_SCAN = 0 => Scan {
            /// Table id.
            table: u32,
        },
        /// Index-assisted scan: rows whose indexed column lies in `[lo, hi]`
        /// (inclusive), in primary-key order. Same output shape as `Scan`.
        WP_INDEX_SCAN = 1 => IndexScan {
            /// Table id.
            table: u32,
            /// Secondary index id within the table.
            index: u32,
            /// Lower bound (inclusive).
            lo: i64,
            /// Upper bound (inclusive).
            hi: i64,
        },
        /// Keep rows where `row[col] OP value`.
        WP_FILTER = 2 => Filter {
            /// Input plan.
            input: Box<WirePlan>,
            /// Column tested (plan-output offset: 0 is the key for scans).
            col: u32,
            /// Comparison.
            op: CmpOp,
            /// Constant operand.
            value: i64,
        },
        /// Keep only the listed columns, in order.
        WP_PROJECT = 3 => Project {
            /// Input plan.
            input: Box<WirePlan>,
            /// Column offsets to keep.
            cols: Vec<u32> as u16,
        },
        /// Group-by aggregate. Output: `[group, agg]` (or `[agg]` if no group).
        WP_AGGREGATE = 4 => Aggregate {
            /// Input plan.
            input: Box<WirePlan>,
            /// Optional grouping column.
            group_col: Option<u32>,
            /// Aggregated column.
            agg_col: u32,
            /// Function.
            func: AggFunc,
        },
        /// Sort ascending by column.
        WP_SORT = 5 => Sort {
            /// Input plan.
            input: Box<WirePlan>,
            /// Sort column.
            col: u32,
        },
    }
}

/// Server-side counters the STATS command reports alongside the engine's
/// [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Engine counters.
    pub engine: StatsSnapshot,
    /// Sessions admitted.
    pub sessions_accepted: u64,
    /// Connections shed with [`Response::Busy`].
    pub sessions_shed: u64,
    /// Sessions currently open.
    pub sessions_active: u64,
    /// One-shot transactions executed.
    pub txns_executed: u64,
    /// One-shot transactions committed.
    pub txns_committed: u64,
    /// Request batches processed (each batch pays at most one WAL flush).
    pub batches: u64,
}

wire_enum! {
    /// Server → client messages.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response in response, "unknown response tag" {
        /// Greeting: the session was admitted.
        T_HELLO = 0x80 => Hello,
        /// Greeting: the server is at its session cap; retry later. The
        /// connection closes after this frame — structured load shedding, not a
        /// hang or an unbounded queue.
        T_BUSY = 0x81 => Busy,
        /// Ping reply.
        T_PONG = 0x82 => Pong,
        /// STATS reply.
        T_STATS_REPLY = 0x83 => Stats(stats: ServerStats),
        /// OBS_STATS reply: the versioned snapshot (boxed — it carries four
        /// histograms and would otherwise dominate every `Response`'s size).
        T_OBS_REPLY = 0x88 => ObsStats(snap: Box<ObsSnapshot>),
        /// One-shot transaction result.
        T_OUTCOME = 0x84 => Outcome(outcome: SpecOutcome),
        /// A row, from an interactive [`Request::Read`].
        T_ROW = 0x85 => Row(row: Vec<i64>),
        /// Generic success (begin / update / insert / commit / abort).
        T_OK = 0x86 => Ok,
        /// The request failed; the session stays usable.
        T_ERROR = 0x87 => Error(msg: String),
        /// Snapshot header: the checkpoint's start LSN (where the subscriber's
        /// log apply must begin) and the table catalog.
        T_SNAP_BEGIN = 0x90 => SnapBegin {
            /// First LSN the replica must apply after installing the pages.
            start_lsn: u64,
            /// Per table: id, name, arity, heap page ids in heap order.
            catalog: Vec<(u32, String, u32, Vec<u64>)> as u16,
            /// Secondary index declarations, flattened: `(table_id, index_id,
            /// name, column, kind)` with kind as in
            /// `esdb_storage::IndexKind::as_u8`. Index *contents* never ride a
            /// snapshot — they are derived state the replica rebuilds from the
            /// installed heap and keeps current through redo.
            indexes: Vec<(u32, u32, String, u32, u8)> as u16,
        },
        /// One checkpointed page (raw [`esdb_storage`] page bytes).
        T_SNAP_PAGE = 0x91 => SnapPage {
            /// Page id on the primary (replicas install under the same id).
            page_id: u64,
            /// The page image.
            bytes: Vec<u8>,
        },
        /// Snapshot trailer.
        T_SNAP_END = 0x92 => SnapEnd {
            /// Pages streamed, for the replica's sanity check.
            page_count: u64,
        },
        /// A shipped span of the durable log, raw record frames starting at
        /// `start`. The receiver runs its own `decode_stream_checked` over the
        /// accumulated stream — the WAL's CRC framing rides the wire unchanged.
        /// Every chunk is stamped with the shipping primary's term: a receiver
        /// that has adopted a higher term treats the chunk as coming from a
        /// fenced, stale primary and drops the feed.
        T_LOG_CHUNK = 0x93 => LogChunk {
            /// The shipping primary's replication term.
            term: u64,
            /// Stream offset of `bytes[0]`.
            start: u64,
            /// Raw log bytes.
            bytes: Vec<u8>,
        },
        /// A read-your-writes token ([`Request::CommitToken`] reply).
        T_TOKEN = 0x94 => Token {
            /// The primary's durable LSN at token time.
            lsn: u64,
        },
        /// A [`Request::ReadAt`] the replica could not serve freshly enough.
        T_LAGGING = 0x95 => Lagging {
            /// How far the replica had applied when it gave up.
            applied: u64,
        },
        /// A participant's vote on a [`Request::ShardPrepare`]: `Committed`
        /// means *prepared* (yes-vote, reads attached); a failure outcome means
        /// the participant aborted locally and votes no.
        T_SHARD_VOTE = 0x96 => ShardVote {
            /// Global transaction id, echoed for pipelining sanity.
            gtid: u64,
            /// The vote: committed = prepared; failure = aborted locally.
            outcome: SpecOutcome,
        },
        /// The coordinator's (possibly presumed) decision for a
        /// [`Request::ShardStatus`] query.
        T_SHARD_DECISION = 0x97 => ShardDecision {
            /// Global transaction id, echoed.
            gtid: u64,
            /// `true` = commit; `false` = abort (including presumed abort).
            commit: bool,
        },
        /// Prepared-but-undecided gtids on this participant
        /// ([`Request::ShardInDoubt`] reply).
        T_SHARD_GTIDS = 0x98 => ShardGtids(gtids: Vec<u64>),
        /// This server has observed a higher replication term than the
        /// requester's and refuses the operation (a deposed primary must not
        /// ship, a stale subscriber must re-sync). Carries the higher term so
        /// the receiver can adopt it.
        T_FENCED = 0x99 => Fenced {
            /// The highest term this server has observed.
            term: u64,
        },
        /// The transaction *is* durably committed on the primary, but the
        /// semi-sync quorum wait timed out before K followers acked durability
        /// at the commit LSN. A typed degradation, never a hang: the caller
        /// knows the commit's replication guarantee is not yet met.
        T_QUORUM_TIMEOUT = 0x9A => QuorumTimeout {
            /// The commit LSN that was waiting for acks.
            lsn: u64,
            /// Followers that had acked `lsn` when the wait gave up.
            acked: u32,
            /// Acks the quorum policy required.
            needed: u32,
        },
        /// Result rows of a [`Request::Query`]. The whole result is one frame,
        /// so the server bounds result size and answers [`Response::Error`]
        /// when a query would overflow it.
        T_ROWS = 0x9B => Rows(rows: Vec<Vec<i64>> as u32),
        /// The server's current routing table ([`Request::RoutingSnapshot`]
        /// reply): the fencing epoch and the full slot → shard map.
        T_ROUTING = 0x9C => Routing {
            /// Routing epoch this map was installed under.
            epoch: u64,
            /// `slots[s]` is the shard owning slot `s`.
            slots: Vec<u32> as u32,
        },
        /// One batch of migration rows ([`Request::MigFetch`] reply): the
        /// committed `(key, row)` pairs of the requested slot.
        T_MIG_ROWS = 0x9D => MigRows {
            /// The slot's rows, in scan order.
            rows: Vec<(u64, Vec<i64>)> as u32,
        },
        /// This server no longer (or does not yet) own the slot the request
        /// touches — the rebalancing analog of [`Response::Fenced`]. Carries
        /// the server's routing epoch and its best hint at the owning shard so
        /// a stale router can refresh and retry instead of silently reading
        /// from a shard that gave the data away.
        T_WRONG_SHARD = 0x9E => WrongShard {
            /// The server's current routing epoch (greater than the stale
            /// requester's, or the requester would not have come here).
            epoch: u64,
            /// The shard this server believes owns the touched slot.
            hint: u32,
        },
    }
}

wire_enum! {
    impl WorkloadOp in op, "unknown op tag" {
        OP_READ = 0 => Read { table: u32, key: u64 },
        OP_WRITE = 1 => Write { table: u32, key: u64, row: Vec<i64> },
        OP_ADD = 2 => Add { table: u32, key: u64, col: usize as u16, delta: i64 },
        OP_INSERT = 3 => Insert { table: u32, key: u64, row: Vec<i64> },
        OP_DELETE = 4 => Delete { table: u32, key: u64 },
    }
}

// Shared by `Response::Outcome` and `Response::ShardVote`.
wire_enum! {
    impl SpecOutcome in outcome, "unknown outcome tag" {
        OUT_COMMITTED = 0 => Committed { reads: Vec<Option<Vec<i64>>> as u16 },
        OUT_LOGICAL = 1 => LogicalFailure,
        OUT_CONFLICT = 2 => ConflictFailure,
    }
}

wire_enum! {
    impl CmpOp in cmp_op, "unknown comparison tag" {
        CMP_EQ = 0 => Eq,
        CMP_NE = 1 => Ne,
        CMP_LT = 2 => Lt,
        CMP_LE = 3 => Le,
        CMP_GT = 4 => Gt,
        CMP_GE = 5 => Ge,
    }
}

wire_enum! {
    impl AggFunc in agg_func, "unknown aggregate tag" {
        AGG_SUM = 0 => Sum,
        AGG_COUNT = 1 => Count,
        AGG_MIN = 2 => Min,
        AGG_MAX = 3 => Max,
    }
}

/// Appends `put`'s bytes to `out` as one frame, patching in the length.
fn framed(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_slice(&[0; HEADER_LEN]);
    put(out);
    let len = out.len() - at - HEADER_LEN;
    debug_assert!(len <= MAX_FRAME, "encoded frame exceeds MAX_FRAME");
    out[at..at + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Appends one framed request to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    framed(out, |out| req.put(out));
}

/// Encodes a one-shot request straight from a workload spec, borrowing its
/// ops (the `kind` string stays client-side; the client keys its per-kind
/// report off the specs it sent, so the name never crosses the wire).
pub fn encode_spec(spec: &TxnSpec, out: &mut Vec<u8>) {
    framed(out, |out| request::OneShot(&spec.may_fail, &spec.ops, out));
}

/// Appends one framed response to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    framed(out, |out| resp.put(out));
}

/// Result of trying to decode one frame from a byte stream.
pub type Decoded<T> = Result<Option<(T, usize)>, FrameError>;

/// Decodes one frame from the front of `buf`: `Ok(None)` while bytes are
/// still missing, an error if the frame can never parse.
fn decode_frame<T: Wire>(buf: &[u8]) -> Decoded<T> {
    let Some(header) = buf.get(..HEADER_LEN) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header.try_into().expect("header width")) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    if len == 0 {
        return Err(FrameError::Malformed("empty payload"));
    }
    let Some(payload) = buf.get(HEADER_LEN..HEADER_LEN + len) else {
        return Ok(None);
    };
    let mut r = Reader { buf: payload, depth: 0 };
    let frame = T::get(&mut r)?;
    r.finish()?;
    Ok(Some((frame, HEADER_LEN + len)))
}

/// Decodes one request frame from the front of `buf`. Returns the request
/// and the number of bytes consumed, `Ok(None)` if the frame is incomplete,
/// or an error if it can never parse.
pub fn decode_request(buf: &[u8]) -> Decoded<Request> {
    decode_frame(buf)
}

/// Decodes one response frame from the front of `buf` (client side).
pub fn decode_response(buf: &[u8]) -> Decoded<Response> {
    decode_frame(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        let (decoded, consumed) = decode_request(&buf).unwrap().unwrap();
        assert_eq!(decoded, req);
        assert_eq!(consumed, buf.len());
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        let (decoded, consumed) = decode_response(&buf).unwrap().unwrap();
        assert_eq!(decoded, resp);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Begin);
        roundtrip_request(Request::Commit);
        roundtrip_request(Request::Abort);
        roundtrip_request(Request::Read { table: 3, key: u64::MAX });
        roundtrip_request(Request::Update { table: 0, key: 1, row: vec![i64::MIN, 0, i64::MAX] });
        roundtrip_request(Request::Insert { table: 9, key: 2, row: vec![] });
        roundtrip_request(Request::OneShot {
            may_fail: true,
            ops: vec![
                WorkloadOp::Read { table: 1, key: 2 },
                WorkloadOp::Write { table: 1, key: 2, row: vec![-5] },
                WorkloadOp::Add { table: 2, key: 3, col: 1, delta: -7 },
                WorkloadOp::Insert { table: 3, key: 4, row: vec![1, 2] },
                WorkloadOp::Delete { table: 4, key: 5 },
            ],
        });
        roundtrip_request(Request::ReplSnapshot);
        roundtrip_request(Request::ReplSubscribe { from: u64::MAX, term: 0 });
        roundtrip_request(Request::ReplSubscribe { from: 8, term: 1 << 33 });
        roundtrip_request(Request::ReplAck { term: 3, lsn: u64::MAX });
        roundtrip_request(Request::CommitToken);
        roundtrip_request(Request::ReadAt { table: 7, key: 11, min_lsn: 1 << 40 });
    }

    #[test]
    fn query_frames_roundtrip() {
        roundtrip_request(Request::Query {
            min_lsn: 1 << 33,
            plan: WirePlan::Scan { table: 2 },
        });
        roundtrip_request(Request::Query {
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
        });
        roundtrip_request(Request::Query {
            min_lsn: 7,
            plan: WirePlan::Sort {
                input: Box::new(WirePlan::Project {
                    input: Box::new(WirePlan::Scan { table: 1 }),
                    cols: vec![2, 0],
                }),
                col: 0,
            },
        });
        roundtrip_request(Request::Query {
            min_lsn: 7,
            plan: WirePlan::Aggregate {
                input: Box::new(WirePlan::Scan { table: 1 }),
                group_col: None,
                agg_col: 0,
                func: AggFunc::Count,
            },
        });
        roundtrip_response(Response::Rows(vec![]));
        roundtrip_response(Response::Rows(vec![vec![1, 2], vec![], vec![i64::MIN]]));
    }

    #[test]
    fn over_deep_plan_is_malformed_not_a_stack_overflow() {
        let mut plan = WirePlan::Scan { table: 0 };
        for _ in 0..MAX_PLAN_DEPTH + 10 {
            plan = WirePlan::Sort { input: Box::new(plan), col: 0 };
        }
        let mut buf = Vec::new();
        encode_request(&Request::Query { min_lsn: 0, plan }, &mut buf);
        assert_eq!(
            decode_request(&buf),
            Err(FrameError::Malformed("plan nested too deeply"))
        );
    }

    #[test]
    fn shard_request_roundtrips() {
        roundtrip_request(Request::ShardPrepare {
            gtid: u64::MAX,
            ops: vec![
                WorkloadOp::Add { table: 2, key: 3, col: 1, delta: -7 },
                WorkloadOp::Insert { table: 3, key: 4, row: vec![1, 2, 3] },
            ],
        });
        roundtrip_request(Request::ShardPrepare { gtid: 0, ops: vec![] });
        roundtrip_request(Request::ShardDecide { gtid: 7, commit: true });
        roundtrip_request(Request::ShardDecide { gtid: 8, commit: false });
        roundtrip_request(Request::ShardStatus { gtid: 1 << 50 });
        roundtrip_request(Request::ShardInDoubt);
    }

    #[test]
    fn rebalance_frames_roundtrip() {
        roundtrip_request(Request::RoutingSnapshot);
        roundtrip_request(Request::MigFetch { table: 7, slot: 3, slot_count: 16 });
        roundtrip_request(Request::MigFetch { table: u32::MAX, slot: 0, slot_count: 1 });
        roundtrip_response(Response::Routing { epoch: 0, slots: vec![] });
        roundtrip_response(Response::Routing {
            epoch: u64::MAX,
            slots: vec![0, 1, 2, 1, 0, u32::MAX],
        });
        roundtrip_response(Response::MigRows { rows: vec![] });
        roundtrip_response(Response::MigRows {
            rows: vec![(0, vec![]), (u64::MAX, vec![i64::MIN, 0, i64::MAX])],
        });
        roundtrip_response(Response::WrongShard { epoch: 9, hint: 2 });
        roundtrip_response(Response::WrongShard { epoch: u64::MAX, hint: u32::MAX });
    }

    #[test]
    fn shard_response_roundtrips() {
        roundtrip_response(Response::ShardVote {
            gtid: 42,
            outcome: SpecOutcome::Committed { reads: vec![None, Some(vec![5, -6])] },
        });
        roundtrip_response(Response::ShardVote {
            gtid: 43,
            outcome: SpecOutcome::ConflictFailure,
        });
        roundtrip_response(Response::ShardDecision { gtid: 9, commit: true });
        roundtrip_response(Response::ShardDecision { gtid: 10, commit: false });
        roundtrip_response(Response::ShardGtids(vec![]));
        roundtrip_response(Response::ShardGtids(vec![1, 2, u64::MAX]));
    }

    #[test]
    fn shard_decide_rejects_bad_bool() {
        let mut buf = Vec::new();
        encode_request(&Request::ShardDecide { gtid: 1, commit: true }, &mut buf);
        let last = buf.len() - 1;
        buf[last] = 2;
        assert_eq!(decode_request(&buf), Err(FrameError::Malformed("bad bool")));
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Hello);
        roundtrip_response(Response::Busy);
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Row(vec![7, -8]));
        roundtrip_response(Response::Error("no open transaction".into()));
        roundtrip_response(Response::Outcome(SpecOutcome::LogicalFailure));
        roundtrip_response(Response::Outcome(SpecOutcome::ConflictFailure));
        roundtrip_response(Response::Outcome(SpecOutcome::Committed {
            reads: vec![None, Some(vec![1, 2, 3]), Some(vec![])],
        }));
        roundtrip_response(Response::Stats(ServerStats {
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
        }));
        roundtrip_response(Response::SnapBegin {
            start_lsn: 8192,
            catalog: vec![
                (0, "accounts".into(), 2, vec![3, 9, 11]),
                (1, "".into(), 0, vec![]),
            ],
            indexes: vec![
                (0, 0, "accounts_branch".into(), 1, 0),
                (0, 1, "accounts_balance".into(), 0, 1),
            ],
        });
        roundtrip_response(Response::SnapBegin {
            start_lsn: 0,
            catalog: vec![],
            indexes: vec![],
        });
        roundtrip_response(Response::SnapPage { page_id: 42, bytes: vec![0xAB; 8192] });
        roundtrip_response(Response::SnapEnd { page_count: 17 });
        roundtrip_response(Response::LogChunk { term: 1, start: 1 << 30, bytes: vec![1, 2, 3] });
        roundtrip_response(Response::LogChunk { term: 0, start: 8, bytes: vec![] });
        roundtrip_response(Response::Token { lsn: u64::MAX });
        roundtrip_response(Response::Lagging { applied: 99 });
        roundtrip_response(Response::Fenced { term: u64::MAX });
        roundtrip_response(Response::QuorumTimeout { lsn: 1 << 40, acked: 1, needed: 2 });
    }

    fn sample_snapshot() -> ObsSnapshot {
        let mut lock_wait = HistogramSnapshot::default();
        lock_wait.record(1);
        lock_wait.record(100);
        let mut txn_latency = HistogramSnapshot::default();
        for v in [0u64, 1, 2, 4_096, u64::MAX] {
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

    #[test]
    fn obs_frames_roundtrip() {
        roundtrip_request(Request::ObsStats);
        roundtrip_response(Response::ObsStats(Box::new(sample_snapshot())));
    }

    #[test]
    fn unknown_snapshot_version_is_a_typed_error() {
        let mut buf = Vec::new();
        encode_response(&Response::ObsStats(Box::new(sample_snapshot())), &mut buf);
        // Pretend a newer peer sent this: bump the version field (first 4
        // payload bytes after the length prefix and tag).
        let evil = OBS_SNAPSHOT_VERSION + 7;
        buf[5..9].copy_from_slice(&evil.to_le_bytes());
        assert_eq!(decode_response(&buf), Err(FrameError::UnsupportedVersion(evil)));
    }

    #[test]
    fn incomplete_frames_ask_for_more() {
        let mut buf = Vec::new();
        encode_request(&Request::Read { table: 1, key: 2 }, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_request(&buf[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        encode_request(&Request::Ping, &mut buf);
        encode_request(&Request::Stats, &mut buf);
        encode_request(&Request::Commit, &mut buf);
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some((req, used)) = decode_request(&buf[at..]).unwrap() {
            seen.push(req);
            at += used;
        }
        assert_eq!(seen, vec![Request::Ping, Request::Stats, Request::Commit]);
        assert_eq!(at, buf.len());
    }

    #[test]
    fn hostile_length_prefix_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        buf.put_u32_le(u32::MAX);
        buf.put_u8(T_PING);
        assert!(matches!(decode_request(&buf), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn malformed_payloads_error_without_panic() {
        // Unknown tag.
        let mut buf = Vec::new();
        buf.put_u32_le(1);
        buf.put_u8(0x77);
        assert!(decode_request(&buf).is_err());
        // Truncated field inside a complete frame: READ needs 12 more bytes.
        let mut buf = Vec::new();
        buf.put_u32_le(2);
        buf.put_u8(T_READ);
        buf.put_u8(9);
        assert!(decode_request(&buf).is_err());
        // Trailing garbage after a valid PING.
        let mut buf = Vec::new();
        buf.put_u32_le(3);
        buf.put_u8(T_PING);
        buf.put_u16_le(0);
        assert!(decode_request(&buf).is_err());
        // Row claims more columns than the payload holds.
        let mut buf = Vec::new();
        buf.put_u32_le(1 + 4 + 8 + 2);
        buf.put_u8(T_UPDATE);
        buf.put_u32_le(1);
        buf.put_u64_le(1);
        buf.put_u16_le(100);
        assert!(decode_request(&buf).is_err());
        // Zero-length payload.
        let buf = 0u32.to_le_bytes();
        assert!(decode_request(&buf).is_err());
    }
}
