//! The reactor: an epoll-style readiness loop owning nonblocking sessions.
//!
//! Each reactor thread owns a [`minipoll::Poller`] and a private session
//! table — shared-nothing: a session's state is touched by exactly one
//! thread for its whole life, so none of it is behind a lock. The loop is a
//! classic tick:
//!
//! 1. **Wait** for readiness (or a doorbell: new sockets routed by the
//!    acceptor, a sibling reactor announcing a WAL flush, shutdown).
//! 2. **Ingest + execute**: drain every readable socket to `WouldBlock`,
//!    decode complete frames incrementally ([`FrameCursor`]), execute each
//!    session's pipelined batch inline.
//! 3. **Flush once**: every commit LSN produced this tick rides a single
//!    [`esdb_wal::Wal::flush_batch`] — group commit across sessions.
//! 4. **Ship + quorum**: log-subscriber sessions drain follower acks and
//!    stage newly durable chunks; sessions parked on a semi-sync quorum
//!    re-check the ack table.
//! 5. **Write**: push outboxes until `WouldBlock`, arming write interest
//!    only while bytes remain.
//!
//! Each session is a state machine, not a thread:
//!
//! ```text
//!             bytes/frames                batch done, commit LSNs
//!   ReadingFrame ──────────► Executing ───────────────────────► (flush)
//!        ▲                       │ ReadAt lagging   │ quorum configured
//!        │                       ▼                  ▼
//!        │                  AwaitReadAt        AwaitQuorum
//!        │                       │ frontier/deadline │ acks/fence/deadline
//!        └──── WritingResponse ◄─┴───────────────────┘
//! ```
//!
//! (`ReadingFrame` and `Executing` are the inline `Phase::Request` path;
//! the parked states are explicit [`Phase`] variants re-checked per tick.)
//!
//! **Why parked quorum waits are load-bearing:** the follower ack channel is
//! itself a session (the subscribe feed), and fd-hash sharding may place it
//! on the *same* reactor as the committing session. A blocking
//! `wait_quorum` there would deadlock: the commit waits for an ack only its
//! own reactor can drain. Parking the committer as [`Phase::AwaitQuorum`]
//! and re-checking [`esdb_core::ReplGroup::acked`] each tick keeps the ack
//! feed draining no matter where it lives.
//!
//! **Blocking that remains:** request execution (engine calls) runs inline
//! on the reactor. One-shot transactions acquire and release their locks
//! inside one call, but an *interactive* transaction holds locks across
//! round trips, and a conflicting inline wait then stalls every session on
//! that reactor until wait-die, deadlock detection, or the lock-wait
//! timeout resolves it — bounded, but a real convoy. That is the documented
//! cost of inline execution; DORA-style request routing is the paper's
//! answer and stays out of scope here.

use crate::protocol::{
    decode_request, encode_response, FrameError, Request, Response, WirePlan, MAX_FRAME,
};
use crate::server::Shared;
use esdb_core::config::ExecutionModel;
use esdb_core::{Database, QuorumError, ReplGroup};
use esdb_txn::Txn;
use esdb_wal::Lsn;
use esdb_workload::{op_target, TxnSpec, WorkloadOp};
use minipoll::{Event, Interest, Poller, WakeHandle, Waker};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read as IoRead, Write as IoWrite};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token reserved for the reactor's wake pipe.
pub(crate) const WAKER_TOKEN: u64 = 0;
/// Socket read granularity.
const READ_CHUNK: usize = 64 * 1024;
/// Ship-feed outbox bound: chunks staged per tick per subscriber. The next
/// tick continues where this one stopped; backpressure, not truncation.
const MAX_SHIP_CHUNKS_PER_TICK: usize = 8;
/// Tick cap while any session is parked (quorum, read-at, shipping, stall):
/// parked states are re-checked on this cadence even if no fd fires.
const PARKED_TICK: Duration = Duration::from_millis(1);

/// The raw fd a stream registers under (also the acceptor's shard key).
#[cfg(unix)]
pub(crate) fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn raw_fd(_stream: &TcpStream) -> i32 {
    0
}

/// A reactor's cross-thread face: the acceptor routes accepted sockets here,
/// and sibling reactors ring the doorbell after a WAL flush so parked ship
/// feeds notice new durable bytes promptly.
pub(crate) struct ReactorHandle {
    injected: Mutex<Vec<TcpStream>>,
    doorbell: WakeHandle,
}

impl ReactorHandle {
    pub(crate) fn new(doorbell: WakeHandle) -> ReactorHandle {
        ReactorHandle { injected: Mutex::new(Vec::new()), doorbell }
    }

    /// Routes an admitted socket to this reactor and wakes it.
    pub(crate) fn inject(&self, stream: TcpStream) {
        self.injected.lock().push(stream);
        self.doorbell.wake();
    }

    /// Wakes the reactor's poll wait.
    pub(crate) fn wake(&self) {
        self.doorbell.wake();
    }

    fn take_injected(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.injected.lock())
    }
}

/// Incremental, nonblocking frame decoder: feed bytes as the socket delivers
/// them, pop complete requests as they materialize.
///
/// `Ok(None)` means *need more bytes* — the caller must wait for readiness,
/// never re-poll in a loop: with no new input, `next` is a pure function of
/// buffered state (a cheap length check), so the decoder can never busy-spin
/// or consume CPU proportional to wall time. Bytes are consumed exactly once
/// and never reordered, so any split of an input stream into `feed` calls —
/// down to one byte each — yields the same request sequence as one big
/// buffer; the property tests in `reactor_sm.rs` pin this down.
#[derive(Default)]
pub struct FrameCursor {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameCursor {
    /// An empty cursor.
    pub fn new() -> FrameCursor {
        FrameCursor::default()
    }

    /// A cursor pre-seeded with already-received bytes (e.g. ack frames
    /// pipelined behind a subscribe).
    pub fn from_bytes(buf: Vec<u8>) -> FrameCursor {
        FrameCursor { buf, pos: 0 }
    }

    /// Appends newly received bytes. Consumed prefix is compacted here, so
    /// memory is bounded by the unconsumed suffix plus one read chunk.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete request frame, `Ok(None)` when more bytes are
    /// needed, or the decode error on malformed input (the connection is
    /// then unrecoverable — framing is lost).
    pub fn next(&mut self) -> Result<Option<Request>, FrameError> {
        match decode_request(&self.buf[self.pos..]) {
            Ok(Some((req, used))) => {
                self.pos += used;
                Ok(Some(req))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Unconsumed bytes currently buffered (a nonzero value after `next`
    /// returned `Ok(None)` means a partial frame is pending).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes every unconsumed byte out of the cursor (used when a session
    /// flips into a subscribe feed: trailing bytes are ack frames).
    pub fn take_rest(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.pos);
        self.buf.clear();
        self.pos = 0;
        rest
    }
}

/// Where a session is in its state machine. `Request` covers the inline
/// ReadingFrame→Executing→WritingResponse path; the other variants are
/// parked states re-checked every tick.
enum Phase {
    /// Decoding and executing request frames inline.
    Request,
    /// A follower read waiting for the apply frontier (or its deadline).
    AwaitReadAt { table: u32, key: u64, min_lsn: Lsn, deadline: Instant },
    /// A follower OLAP query waiting for the apply frontier (or its
    /// deadline); once fresh, the plan runs pinned under the apply gate.
    AwaitQuery { min_lsn: Lsn, plan: WirePlan, deadline: Instant },
    /// A completed batch whose commit acks wait for the follower quorum.
    AwaitQuorum { lsn: Lsn, deadline: Instant },
    /// A one-way log feed (post-subscribe): ships chunks, drains acks.
    Shipping(Ship),
}

/// Shipping-state fields: the feed cursor, the follower's ack decoder, and
/// its registered slot in the replication group (deregistered on drop).
struct Ship {
    from: Lsn,
    acks: FrameCursor,
    slot: Option<FollowerSlot>,
}

/// One session: a socket plus all of its nonblocking state. Owned by
/// exactly one reactor; nothing here is shared or locked.
struct Conn {
    stream: TcpStream,
    fd: i32,
    token: u64,
    cursor: FrameCursor,
    /// Responses staged for the in-progress batch; encoded only at batch
    /// finalization so quorum failures can rewrite commit acks in place.
    staged: Vec<Response>,
    /// Indices into `staged` acknowledging a durable commit.
    commit_acks: Vec<usize>,
    /// Highest commit LSN this batch produced; joins the tick's group flush.
    flush_to: Option<Lsn>,
    /// Whether the current batch executed at least one frame.
    executed: bool,
    outbox: Vec<u8>,
    out_pos: usize,
    /// At most one open interactive transaction.
    txn: Option<Txn>,
    phase: Phase,
    stalled_since: Option<Instant>,
    fatal: Option<FrameError>,
    /// A decoded subscribe frame: the batch ends and the session flips into
    /// `Shipping` at finalization.
    subscribe: Option<(Lsn, u64)>,
    /// Close once every staged response has been written out.
    close_after_drain: bool,
    closed: bool,
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32, token: u64) -> Conn {
        Conn {
            stream,
            fd,
            token,
            cursor: FrameCursor::new(),
            staged: Vec::new(),
            commit_acks: Vec::new(),
            flush_to: None,
            executed: false,
            outbox: Vec::new(),
            out_pos: 0,
            txn: None,
            phase: Phase::Request,
            stalled_since: None,
            fatal: None,
            subscribe: None,
            close_after_drain: false,
            closed: false,
            want_write: false,
        }
    }

    fn note(&mut self, lsn: Option<Lsn>) {
        if let Some(lsn) = lsn {
            self.flush_to = Some(self.flush_to.map_or(lsn, |m| m.max(lsn)));
        }
    }

    /// Anything pending that finalization would turn into output?
    fn has_output(&self) -> bool {
        self.executed
            || !self.staged.is_empty()
            || self.fatal.is_some()
            || self.subscribe.is_some()
    }

    /// Safe to honor `close_after_drain`: every owed byte has left.
    fn drained_for_close(&self) -> bool {
        self.outbox.len() <= self.out_pos
            && !self.has_output()
            && self.flush_to.is_none()
            && matches!(self.phase, Phase::Request | Phase::Shipping(_))
    }
}

/// A follower's ack slot in the primary's [`ReplGroup`], deregistered
/// however the session ends.
struct FollowerSlot {
    group: Arc<ReplGroup>,
    id: u64,
}

impl Drop for FollowerSlot {
    fn drop(&mut self) {
        self.group.deregister_follower(self.id);
    }
}

/// Reactor entry point, one call per reactor thread.
pub(crate) fn run(
    id: usize,
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    handle: Arc<ReactorHandle>,
    peers: Arc<Vec<Arc<ReactorHandle>>>,
) {
    Reactor {
        id,
        shared,
        poller,
        waker,
        handle,
        peers,
        conns: HashMap::new(),
        next_token: WAKER_TOKEN + 1,
    }
    .run();
}

struct Reactor {
    id: usize,
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    handle: Arc<ReactorHandle>,
    peers: Arc<Vec<Arc<ReactorHandle>>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.tick_timeout();
            let poll_start = Instant::now();
            let _ = self.poller.wait(&mut events, Some(timeout));
            if esdb_obs::enabled() {
                esdb_obs::record_component(
                    esdb_obs::Component::ReactorPoll,
                    poll_start.elapsed().as_nanos() as u64,
                );
            }
            let tick_start = Instant::now();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain_and_exit();
                return;
            }
            if events.iter().any(|e| e.token == WAKER_TOKEN) {
                self.waker.drain();
            }
            for stream in self.handle.take_injected() {
                self.register(stream);
            }
            self.tick(&events, tick_start);
            if esdb_obs::enabled() {
                esdb_obs::record_component(
                    esdb_obs::Component::ReactorTick,
                    tick_start.elapsed().as_nanos() as u64,
                );
            }
        }
    }

    /// The effective poll timeout: the configured interval, shortened to
    /// [`PARKED_TICK`] while any session is in a parked state that only a
    /// tick (not an fd event) can advance.
    fn tick_timeout(&self) -> Duration {
        let base = self.shared.config.poll_interval;
        let parked = self.conns.values().any(|c| {
            matches!(
                c.phase,
                Phase::AwaitQuorum { .. }
                    | Phase::AwaitReadAt { .. }
                    | Phase::AwaitQuery { .. }
                    | Phase::Shipping(_)
            ) || c.stalled_since.is_some()
                || c.outbox.len() > c.out_pos
        });
        if parked {
            base.min(PARKED_TICK)
        } else {
            base
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        // On non-unix the fallback poller keys deletes by fd, so a unique
        // pseudo-fd (the token) keeps registrations independent.
        let fd = if cfg!(unix) { raw_fd(&stream) } else { token as i32 };
        if self.poller.add(fd, token, Interest::READABLE).is_err() {
            self.shared.counters.active.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(token, Conn::new(stream, fd, token));
    }

    /// One reactor tick over `events`.
    fn tick(&mut self, events: &[Event], now: Instant) {
        let shared = Arc::clone(&self.shared);
        let readable: HashSet<u64> = events
            .iter()
            .filter(|e| e.readable && e.token != WAKER_TOKEN)
            .map(|e| e.token)
            .collect();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();

        // Phase A — ingest, park resolution, inline execution.
        let mut tick_flush: Vec<Lsn> = Vec::new();
        let mut flushed: Vec<u64> = Vec::new();
        for &t in &tokens {
            let conn = self.conns.get_mut(&t).expect("conn");
            if conn.closed || matches!(conn.phase, Phase::Shipping(_)) {
                continue;
            }
            if readable.contains(&t) {
                let got = ingest(&mut conn.stream, &mut conn.cursor);
                if got.received {
                    conn.stalled_since = None;
                }
                match got.end {
                    IngestEnd::Open => {}
                    // EOF still owes responses for what was received; close
                    // once the outbox drains.
                    IngestEnd::Eof => conn.close_after_drain = true,
                    IngestEnd::Error => {
                        conn.closed = true;
                        continue;
                    }
                }
            }
            if let Phase::AwaitReadAt { table, key, min_lsn, deadline } = conn.phase {
                resolve_read_at(&shared, conn, table, key, min_lsn, Some(deadline), now);
            }
            if matches!(conn.phase, Phase::AwaitQuery { .. }) {
                // The plan is not Copy: take the phase out, re-park inside
                // resolve_query if the frontier is still short.
                if let Phase::AwaitQuery { min_lsn, plan, deadline } =
                    std::mem::replace(&mut conn.phase, Phase::Request)
                {
                    resolve_query(&shared, conn, min_lsn, plan, Some(deadline), now);
                }
            }
            if matches!(conn.phase, Phase::Request) {
                exec_pending(&shared, conn, now, false);
                // Stall accounting: a partial frame with a quiet peer.
                if conn.fatal.is_none() && conn.subscribe.is_none() {
                    if matches!(conn.phase, Phase::Request) && conn.cursor.buffered() > 0 {
                        let began = *conn.stalled_since.get_or_insert(now);
                        if let Some(budget) = shared.config.stall_timeout {
                            if now.duration_since(began) >= budget {
                                encode_response(
                                    &Response::Error(FrameError::Timeout.to_string()),
                                    &mut conn.outbox,
                                );
                                conn.close_after_drain = true;
                                conn.stalled_since = None;
                            }
                        }
                    } else {
                        conn.stalled_since = None;
                    }
                }
            }
            if matches!(conn.phase, Phase::Request) {
                if let Some(lsn) = conn.flush_to {
                    // Batch complete with commits: joins the tick flush.
                    tick_flush.push(lsn);
                    flushed.push(t);
                } else if conn.has_output() {
                    finalize(&shared, conn);
                }
            }
        }

        // Phase B — the group-commit point: one durability wait covers every
        // batch that completed this tick, across all of this reactor's
        // sessions. Accounted as commit-flush wait; sibling reactors are
        // woken so ship feeds they host notice the new durable bytes.
        if !tick_flush.is_empty() {
            {
                let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::CommitFlush);
                shared.db.wal().flush_batch(tick_flush.iter().copied());
            }
            for (i, peer) in self.peers.iter().enumerate() {
                if i != self.id {
                    peer.wake();
                }
            }
        }

        // Phase C — ship feeds: drain follower acks (feeding the quorum ack
        // table *before* quorum resolution below), then stage newly durable
        // chunks.
        for &t in &tokens {
            let conn = self.conns.get_mut(&t).expect("conn");
            if conn.closed || !matches!(conn.phase, Phase::Shipping(_)) {
                continue;
            }
            let mut phase = std::mem::replace(&mut conn.phase, Phase::Request);
            if let Phase::Shipping(ship) = &mut phase {
                ship_tick(&shared, conn, ship, readable.contains(&t));
            }
            conn.phase = phase;
        }

        // Phase B2 — batches past the flush either park on the quorum or
        // finalize straight away.
        for &t in &flushed {
            let conn = self.conns.get_mut(&t).expect("conn");
            if !conn.closed {
                after_flush(&shared, conn, now);
            }
        }

        // Phase B3 — parked quorum waits re-check acks/fencing/deadline.
        // A session that resolves may have buffered frames that arrived
        // during the wait; execute them now (their commits flush inline —
        // the rare continuation path) so no input ever waits on an fd event
        // that will never fire.
        for &t in &tokens {
            let conn = self.conns.get_mut(&t).expect("conn");
            if conn.closed {
                continue;
            }
            if let Phase::AwaitQuorum { lsn, deadline } = conn.phase {
                if resolve_quorum(&shared, conn, lsn, deadline, now) {
                    exec_pending(&shared, conn, now, false);
                    if matches!(conn.phase, Phase::Request) {
                        if let Some(lsn) = conn.flush_to {
                            let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::CommitFlush);
                            shared.db.wal().wait_durable(lsn);
                            after_flush(&shared, conn, now);
                        } else if conn.has_output() {
                            finalize(&shared, conn);
                        }
                    }
                }
            }
        }

        // Phase D — write pass and interest maintenance, then the sweep.
        for &t in &tokens {
            let conn = self.conns.get_mut(&t).expect("conn");
            flush_outbox(&self.poller, conn);
        }
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.closed)
            .map(|(&t, _)| t)
            .collect();
        for t in dead {
            let conn = self.conns.remove(&t).expect("conn");
            let _ = self.poller.delete(conn.fd);
            self.shared.counters.active.fetch_sub(1, Ordering::SeqCst);
            // Dropping the conn aborts any open interactive transaction and
            // deregisters any follower slot.
        }
    }

    /// Graceful shutdown: one final ingest per session (everything already
    /// received is part of the contract), execute it, one flush covering all
    /// of it, resolve quorum waits with the blocking primitive (no new acks
    /// will route anywhere after the drain, and the feed sessions on this
    /// reactor have already taken their last drain), then write out every
    /// outbox with blocking sockets.
    fn drain_and_exit(&mut self) {
        let shared = Arc::clone(&self.shared);
        let now = Instant::now();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let mut tick_flush: Vec<Lsn> = Vec::new();
        for &t in &tokens {
            let conn = self.conns.get_mut(&t).expect("conn");
            match conn.phase {
                Phase::Shipping(_) => {
                    conn.closed = true;
                    continue;
                }
                Phase::AwaitReadAt { table, key, min_lsn, .. } => {
                    // No more ticks are coming: resolve now or lag now.
                    resolve_read_at(&shared, conn, table, key, min_lsn, None, now);
                }
                Phase::AwaitQuery { .. } => {
                    if let Phase::AwaitQuery { min_lsn, plan, .. } =
                        std::mem::replace(&mut conn.phase, Phase::Request)
                    {
                        resolve_query(&shared, conn, min_lsn, plan, None, now);
                    }
                }
                _ => {}
            }
            if conn.closed {
                continue;
            }
            let got = ingest(&mut conn.stream, &mut conn.cursor);
            if matches!(got.end, IngestEnd::Error) {
                conn.closed = true;
                continue;
            }
            if matches!(conn.phase, Phase::Request) {
                exec_pending(&shared, conn, now, true);
            }
            if let Some(lsn) = conn.flush_to {
                tick_flush.push(lsn);
            }
        }
        if !tick_flush.is_empty() {
            let _wait = esdb_obs::wait_timer(esdb_obs::WaitClass::CommitFlush);
            shared.db.wal().flush_batch(tick_flush);
        }
        for &t in &tokens {
            let conn = self.conns.get_mut(&t).expect("conn");
            if conn.closed {
                continue;
            }
            let quorum_lsn = match conn.phase {
                Phase::AwaitQuorum { lsn, .. } => Some(lsn),
                _ => conn.flush_to.take(),
            };
            if let (Some(lsn), Some(group), Some(policy)) = (
                quorum_lsn,
                shared.config.repl_group.as_ref(),
                shared.config.quorum.as_ref(),
            ) {
                if let Err(e) = group.wait_quorum(lsn, policy) {
                    let downgrade = match e {
                        QuorumError::Timeout { lsn, acked, needed } => {
                            Response::QuorumTimeout { lsn, acked, needed }
                        }
                        QuorumError::Fenced { term } => Response::Fenced { term },
                    };
                    for &i in &conn.commit_acks {
                        conn.staged[i] = downgrade.clone();
                    }
                }
            }
            conn.flush_to = None;
            conn.phase = Phase::Request;
            finalize(&shared, conn);
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn.stream.write_all(&conn.outbox[conn.out_pos..]);
        }
        // Sessions drop here: open transactions abort, follower slots
        // deregister, sockets close.
    }
}

enum IngestEnd {
    Open,
    Eof,
    Error,
}

struct IngestOutcome {
    end: IngestEnd,
    received: bool,
}

/// Reads the socket to `WouldBlock` (the level-triggered contract), feeding
/// every byte into `cursor`.
fn ingest(stream: &mut TcpStream, cursor: &mut FrameCursor) -> IngestOutcome {
    let mut chunk = [0u8; READ_CHUNK];
    let mut received = false;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return IngestOutcome { end: IngestEnd::Eof, received },
            Ok(n) => {
                cursor.feed(&chunk[..n]);
                received = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return IngestOutcome { end: IngestEnd::Open, received }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return IngestOutcome { end: IngestEnd::Error, received },
        }
    }
}

/// Executes every complete frame the cursor holds, stopping at a park, a
/// subscribe, or a decode error. With `immediate` (shutdown drain), a
/// lagging follower read answers `Lagging` now instead of parking.
fn exec_pending(shared: &Arc<Shared>, conn: &mut Conn, now: Instant, immediate: bool) {
    while conn.fatal.is_none()
        && conn.subscribe.is_none()
        && matches!(conn.phase, Phase::Request)
    {
        match conn.cursor.next() {
            Err(e) => conn.fatal = Some(e),
            Ok(None) => break,
            Ok(Some(req)) => {
                conn.executed = true;
                exec_one(shared, conn, req, now, immediate);
            }
        }
    }
}

/// Executes one request inline, staging its response. The port of the
/// threaded server's batch executor, minus everything that blocked: commits
/// only *note* their LSN (the tick flush pays durability), quorum and
/// read-at waits become parked phases.
fn exec_one(shared: &Arc<Shared>, conn: &mut Conn, req: Request, now: Instant, immediate: bool) {
    let db = &shared.db;
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats()),
        Request::ObsStats => Response::ObsStats(Box::new(db.obs_snapshot())),
        Request::OneShot { may_fail, ops } => {
            if let Some(wrong) = ownership_refusal(shared, &ops) {
                conn.staged.push(wrong);
                return;
            }
            shared.counters.txns_executed.fetch_add(1, Ordering::Relaxed);
            let spec = TxnSpec { kind: "net", ops, may_fail };
            // Per-txn profile covers execution only; the tick's shared
            // group-commit flush is accounted once as CommitFlush rather
            // than attributed to any single transaction.
            let ((outcome, lsn), profile) =
                esdb_obs::profile_scope(|| db.run_spec_deferred(&spec));
            if esdb_obs::enabled() {
                esdb_obs::record_component(esdb_obs::Component::TxnLatency, profile.wall());
            }
            if outcome.is_committed() {
                shared.counters.txns_committed.fetch_add(1, Ordering::Relaxed);
                if lsn.is_some() {
                    conn.commit_acks.push(conn.staged.len());
                }
            }
            conn.note(lsn);
            Response::Outcome(outcome)
        }
        Request::Begin => match conn.txn {
            Some(_) => Response::Error("transaction already open".into()),
            None => {
                if matches!(db.config().execution, ExecutionModel::Dora { .. }) {
                    Response::Error(
                        "interactive transactions require the conventional engine; \
                         DORA accepts one-shot TXN frames only"
                            .into(),
                    )
                } else {
                    conn.txn = Some(db.txn_manager().begin());
                    Response::Ok
                }
            }
        },
        Request::Read { table, key } => {
            match conn.txn.as_mut().map(|txn| txn.read(table, key)) {
                None => Response::Error("no open transaction".into()),
                Some(Ok(row)) => Response::Row(row),
                Some(Err(e)) => abort_with(conn, e),
            }
        }
        Request::Update { table, key, row } => {
            match conn.txn.as_mut().map(|txn| txn.update(table, key, &row)) {
                None => Response::Error("no open transaction".into()),
                Some(Ok(_)) => Response::Ok,
                Some(Err(e)) => abort_with(conn, e),
            }
        }
        Request::Insert { table, key, row } => {
            match conn.txn.as_mut().map(|txn| txn.insert(table, key, &row)) {
                None => Response::Error("no open transaction".into()),
                Some(Ok(())) => Response::Ok,
                Some(Err(e)) => abort_with(conn, e),
            }
        }
        Request::Commit => match conn.txn.take() {
            None => Response::Error("no open transaction".into()),
            Some(txn) => {
                let lsn = txn.commit_deferred();
                if lsn.is_some() {
                    conn.commit_acks.push(conn.staged.len());
                }
                conn.note(lsn);
                Response::Ok
            }
        },
        Request::Abort => match conn.txn.take() {
            None => Response::Error("no open transaction".into()),
            Some(txn) => {
                txn.abort();
                Response::Ok
            }
        },
        Request::ReplSnapshot => {
            snapshot_into(db, &mut conn.staged);
            return;
        }
        // A subscribe ends the request/response dialogue: the batch
        // finalizes and the session flips into a log feed. Frames already
        // buffered behind it are ack frames and stay for the feed.
        Request::ReplSubscribe { from, term } => {
            conn.subscribe = Some((from, term));
            return;
        }
        // Acks belong to subscribe feeds; on a request/response session
        // they are a protocol misuse, answered typed rather than fatally.
        Request::ReplAck { .. } => {
            Response::Error("acks are only valid on a subscribe feed".into())
        }
        Request::CommitToken => Response::Token { lsn: db.wal().durable_lsn() },
        Request::ReadAt { table, key, min_lsn } => {
            if let Some(watermark) = &shared.config.applied_watermark {
                let applied = watermark.load(Ordering::Acquire);
                if applied < min_lsn {
                    if immediate || feed_dead(shared) {
                        Response::Lagging { applied }
                    } else {
                        // Park: the reactor keeps serving everyone else
                        // while this session waits for the frontier.
                        conn.phase = Phase::AwaitReadAt {
                            table,
                            key,
                            min_lsn,
                            deadline: now + shared.config.read_at_wait,
                        };
                        return;
                    }
                } else {
                    fresh_read(db, table, key)
                }
            } else {
                // A primary: every read is trivially fresh.
                fresh_read(db, table, key)
            }
        }
        // 2PC phase one: execute the ops, force the Prepare record, and
        // vote. A yes-vote parks the transaction (locks held) in the
        // engine's prepared registry until a ShardDecide arrives.
        Request::ShardPrepare { gtid, ops } => {
            // The gate runs before the prepare executes, so a refused slice
            // registers nothing — the coordinator sees a clean no-vote
            // analog and aborts without an in-doubt participant here.
            if let Some(wrong) = ownership_refusal(shared, &ops) {
                conn.staged.push(wrong);
                return;
            }
            shared.counters.txns_executed.fetch_add(1, Ordering::Relaxed);
            let spec = TxnSpec { kind: "shard", ops, may_fail: true };
            Response::ShardVote { gtid, outcome: db.run_spec_prepare(gtid, &spec) }
        }
        // 2PC phase two: finish a prepared transaction. Unknown gtids are
        // acknowledged too — a retried decision must be idempotent.
        Request::ShardDecide { gtid, commit } => {
            if db.decide(gtid, commit) && commit {
                shared.counters.txns_committed.fetch_add(1, Ordering::Relaxed);
            }
            Response::Ok
        }
        // Participant recovery asks the coordinator's decision log what
        // became of an in-doubt gtid; no durable decision means abort
        // (presumed abort).
        Request::ShardStatus { gtid } => match &shared.config.decision_source {
            Some(source) => Response::ShardDecision {
                gtid,
                commit: (source.0)(gtid).unwrap_or(false),
            },
            None => Response::Error("no coordinator decision source configured".into()),
        },
        Request::ShardInDoubt => Response::ShardGtids(db.prepared_gtids()),
        Request::Query { min_lsn, plan } => {
            if shared.config.applied_watermark.is_some() {
                // Follower: resolve now if fresh, park otherwise (or answer
                // Lagging straight away during a shutdown drain).
                let deadline =
                    if immediate { None } else { Some(now + shared.config.read_at_wait) };
                resolve_query(shared, conn, min_lsn, plan, deadline, now);
                return;
            }
            // A primary never serves plans: its heap has no consistent-cut
            // pin (writers mutate it mid-scan). OLAP is the followers' job —
            // that asymmetry is the HTAP design, not an accident.
            Response::Error("queries are served by followers; connect to a replica".into())
        }
        Request::RoutingSnapshot => match &shared.config.routing_source {
            Some(source) => {
                let (epoch, slots) = (source.0)();
                Response::Routing { epoch, slots }
            }
            None => Response::Error("no routing table configured".into()),
        },
        Request::MigFetch { table, slot, slot_count } => match db.table(table) {
            Some(t) => {
                // Fuzzy by design: the scan runs against the live heap with
                // no pin, so it may carry uncommitted rows — the migration's
                // repeat-history delta catch-up replays the WAL (including
                // abort compensations) and converges the copy regardless.
                let mut rows = Vec::new();
                let mut overflow = false;
                let scan = t.scan(|key, row| {
                    if esdb_core::slot_of(table, key, slot_count) == slot {
                        if rows.len() >= MIG_FETCH_MAX_ROWS {
                            overflow = true;
                        } else {
                            rows.push((key, row.to_vec()));
                        }
                    }
                });
                match scan {
                    Err(e) => Response::Error(format!("migration scan failed: {e}")),
                    Ok(()) if overflow => Response::Error(format!(
                        "slot exceeds {MIG_FETCH_MAX_ROWS} rows; fetch a finer ring"
                    )),
                    Ok(()) => Response::MigRows { rows },
                }
            }
            None => Response::Error(format!("no such table: {table}")),
        },
    };
    conn.staged.push(resp);
}

/// Most rows a [`Request::MigFetch`] answer carries. Keeps the single-frame
/// reply comfortably under [`MAX_FRAME`]; a slot that outgrows the cap is a
/// typed error telling the operator to migrate on a finer ring.
const MIG_FETCH_MAX_ROWS: usize = 8192;

/// Runs the configured ownership gate over every op target, returning the
/// typed [`Response::WrongShard`] refusal for the first key this server
/// does not own (`None` when unsharded or everything is owned).
fn ownership_refusal(shared: &Arc<Shared>, ops: &[WorkloadOp]) -> Option<Response> {
    let check = shared.config.ownership_check.as_ref()?;
    for op in ops {
        let (table, key) = op_target(op);
        if let Some((epoch, hint)) = (check.0)(table, key) {
            return Some(Response::WrongShard { epoch, hint });
        }
    }
    None
}

/// Re-checks a parked follower query (or resolves a fresh one). `deadline:
/// None` means resolve now: run pinned if the frontier arrived, `Lagging`
/// otherwise. Re-parks the session when the frontier is short but the
/// deadline has not passed and the feed is alive.
fn resolve_query(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    min_lsn: Lsn,
    plan: WirePlan,
    deadline: Option<Instant>,
    now: Instant,
) {
    let applied = shared
        .config
        .applied_watermark
        .as_ref()
        .map_or(u64::MAX, |w| w.load(Ordering::Acquire));
    if applied >= min_lsn {
        conn.phase = Phase::Request;
        let resp = run_query(shared, &plan);
        conn.staged.push(resp);
    } else if deadline.map_or(true, |d| now >= d) || feed_dead(shared) {
        conn.phase = Phase::Request;
        conn.staged.push(Response::Lagging { applied });
    } else {
        conn.phase = Phase::AwaitQuery {
            min_lsn,
            plan,
            deadline: deadline.expect("parking requires a deadline"),
        };
    }
}

/// Result-size bounds: the whole result rides one frame, so refuse anything
/// that could overflow [`MAX_FRAME`] instead of truncating it (a truncated
/// result is a wrong answer; a typed error is not).
const MAX_QUERY_ROWS: usize = 16_384;
const MAX_QUERY_CELLS: usize = 100_000;

/// Executes a validated plan pinned under the apply gate. Holding the read
/// side keeps the apply loop out of its write section for the whole plan,
/// so every operator sees the heap at one applied frontier — and the
/// frontier only advances at transaction-consistent cuts.
fn run_query(shared: &Arc<Shared>, plan: &WirePlan) -> Response {
    let _pin = shared.config.apply_gate.as_ref().map(|g| g.read());
    let node = match compile_wire(&shared.db, plan) {
        Ok((node, _)) => node,
        Err(msg) => return Response::Error(msg),
    };
    let rows = esdb_staged::execute_staged(&node, esdb_staged::DEFAULT_BATCH);
    let cells: usize = rows.iter().map(|r| r.len()).sum();
    if rows.len() > MAX_QUERY_ROWS || cells > MAX_QUERY_CELLS {
        return Response::Error(format!(
            "query result too large for one frame ({} rows); aggregate or narrow the plan",
            rows.len()
        ));
    }
    Response::Rows(rows)
}

/// Compiles a wire plan against the server's catalog, returning the plan
/// plus its output row width. Every table id, index id, and column offset
/// is validated here — the execution engines index rows unchecked, so this
/// is the panic barrier between the wire and the engine.
fn compile_wire(
    db: &Arc<Database>,
    plan: &WirePlan,
) -> Result<(esdb_staged::PlanNode, usize), String> {
    use esdb_staged::PlanNode;
    let resolve = |id: u32| {
        db.table(id).ok_or_else(|| format!("unknown table {id}"))
    };
    Ok(match plan {
        WirePlan::Scan { table } => {
            let t = resolve(*table)?;
            let width = t.schema().arity + 1;
            (PlanNode::scan(t), width)
        }
        WirePlan::IndexScan { table, index, lo, hi } => {
            let t = resolve(*table)?;
            if t.secondary(*index).is_none() {
                return Err(format!("unknown index {index} on table {table}"));
            }
            let width = t.schema().arity + 1;
            (PlanNode::index_scan(t, *index, *lo, *hi), width)
        }
        WirePlan::Filter { input, col, op, value } => {
            let (node, width) = compile_wire(db, input)?;
            if *col as usize >= width {
                return Err(format!("filter column {col} out of range (width {width})"));
            }
            (node.filter(*col as usize, *op, *value), width)
        }
        WirePlan::Project { input, cols } => {
            let (node, width) = compile_wire(db, input)?;
            if let Some(bad) = cols.iter().find(|&&c| c as usize >= width) {
                return Err(format!("project column {bad} out of range (width {width})"));
            }
            let cols: Vec<usize> = cols.iter().map(|&c| c as usize).collect();
            let out = cols.len();
            (node.project(cols), out)
        }
        WirePlan::Aggregate { input, group_col, agg_col, func } => {
            let (node, width) = compile_wire(db, input)?;
            if *agg_col as usize >= width {
                return Err(format!("aggregate column {agg_col} out of range (width {width})"));
            }
            if let Some(g) = group_col {
                if *g as usize >= width {
                    return Err(format!("group column {g} out of range (width {width})"));
                }
            }
            let out = if group_col.is_some() { 2 } else { 1 };
            (
                node.aggregate(group_col.map(|g| g as usize), *agg_col as usize, *func),
                out,
            )
        }
        WirePlan::Sort { input, col } => {
            let (node, width) = compile_wire(db, input)?;
            if *col as usize >= width {
                return Err(format!("sort column {col} out of range (width {width})"));
            }
            (node.sort(*col as usize), width)
        }
    })
}

fn feed_dead(shared: &Shared) -> bool {
    shared
        .config
        .feed_live
        .as_ref()
        .is_some_and(|live| !live.load(Ordering::Acquire))
}

/// Re-checks a parked follower read. `deadline: None` (shutdown drain)
/// means resolve now: fresh if the frontier arrived, `Lagging` otherwise.
fn resolve_read_at(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    table: u32,
    key: u64,
    min_lsn: Lsn,
    deadline: Option<Instant>,
    now: Instant,
) {
    let applied = shared
        .config
        .applied_watermark
        .as_ref()
        .map_or(u64::MAX, |w| w.load(Ordering::Acquire));
    if applied >= min_lsn {
        conn.phase = Phase::Request;
        let resp = fresh_read(&shared.db, table, key);
        conn.staged.push(resp);
    } else if deadline.map_or(true, |d| now >= d) || feed_dead(shared) {
        // A dead feed means the frontier will never move: answer Lagging
        // now instead of burning the full bounded wait.
        conn.phase = Phase::Request;
        conn.staged.push(Response::Lagging { applied });
    }
}

/// The fresh half of a follower read: serve the row through a throwaway
/// read-only transaction.
fn fresh_read(db: &Arc<Database>, table: u32, key: u64) -> Response {
    if matches!(db.config().execution, ExecutionModel::Dora { .. }) {
        return Response::Error("follower reads require the conventional engine".into());
    }
    let mut txn = db.txn_manager().begin();
    let resp = match txn.read(table, key) {
        Ok(row) => Response::Row(row),
        Err(e) => Response::Error(format!("read failed: {e}")),
    };
    txn.abort();
    resp
}

/// A flushed batch either parks on the semi-sync quorum or finalizes.
fn after_flush(shared: &Arc<Shared>, conn: &mut Conn, now: Instant) {
    let Some(lsn) = conn.flush_to.take() else {
        if conn.has_output() {
            finalize(shared, conn);
        }
        return;
    };
    if let (Some(_), Some(policy)) =
        (shared.config.repl_group.as_ref(), shared.config.quorum.as_ref())
    {
        conn.phase = Phase::AwaitQuorum { lsn, deadline: now + policy.timeout };
    } else {
        finalize(shared, conn);
    }
}

/// Re-checks a parked quorum wait: fencing first (a deposed primary must
/// not ack), then the ack count, then the deadline. A failed wait never
/// hangs and never lies — every commit ack in the batch is rewritten to the
/// typed degradation (the commit *is* durable locally; only its replication
/// guarantee is unmet). Returns whether the session resumed.
fn resolve_quorum(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    lsn: Lsn,
    deadline: Instant,
    now: Instant,
) -> bool {
    let group = shared.config.repl_group.as_ref().expect("quorum without group");
    let policy = shared.config.quorum.as_ref().expect("quorum without policy");
    let downgrade = if let Some(term) = group.fenced_by() {
        Some(Response::Fenced { term })
    } else if group.acked(lsn) >= policy.k {
        None
    } else if now >= deadline {
        Some(Response::QuorumTimeout { lsn, acked: group.acked(lsn), needed: policy.k })
    } else {
        return false;
    };
    if let Some(resp) = downgrade {
        for &i in &conn.commit_acks {
            conn.staged[i] = resp.clone();
        }
    }
    conn.phase = Phase::Request;
    finalize(shared, conn);
    true
}

/// Batch finalization: encode every staged response into the outbox, count
/// the batch, and apply any pending state transition (fatal close or the
/// flip into shipping).
fn finalize(shared: &Arc<Shared>, conn: &mut Conn) {
    if conn.executed {
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        conn.executed = false;
    }
    for resp in conn.staged.drain(..) {
        encode_response(&resp, &mut conn.outbox);
    }
    conn.commit_acks.clear();
    conn.flush_to = None;
    if let Some(e) = conn.fatal.take() {
        // Protocol desync is unrecoverable: report and close.
        encode_response(&Response::Error(e.to_string()), &mut conn.outbox);
        conn.close_after_drain = true;
        return;
    }
    if let Some((from, term)) = conn.subscribe.take() {
        begin_shipping(shared, conn, from, term);
    }
}

/// Flips a session into a log feed. With a replication group this is the
/// term handshake: a subscriber speaking from a higher term is (or has
/// seen) our successor — record the supersession and refuse to ship a
/// single byte, the fence that keeps a deposed primary from feeding anyone
/// its divergent tail.
fn begin_shipping(shared: &Arc<Shared>, conn: &mut Conn, from: Lsn, sub_term: u64) {
    let mut slot = None;
    if let Some(g) = shared.config.repl_group.as_ref() {
        if sub_term > g.term() {
            g.fence(sub_term);
        }
        if let Some(t) = g.fenced_by() {
            encode_response(&Response::Fenced { term: t }, &mut conn.outbox);
            conn.close_after_drain = true;
            return;
        }
        slot = Some(FollowerSlot { group: Arc::clone(g), id: g.register_follower() });
    }
    // Bytes already buffered behind the subscribe frame are ack frames.
    let acks = FrameCursor::from_bytes(conn.cursor.take_rest());
    conn.phase = Phase::Shipping(Ship { from, acks, slot });
}

/// One tick of a ship feed: drain follower acks into the group's ack table,
/// re-check fencing, then stage newly durable chunks (bounded per tick;
/// an undrained outbox is backpressure and defers shipping).
fn ship_tick(shared: &Arc<Shared>, conn: &mut Conn, ship: &mut Ship, readable: bool) {
    if conn.close_after_drain {
        return;
    }
    if readable {
        let got = ingest(&mut conn.stream, &mut ship.acks);
        if !matches!(got.end, IngestEnd::Open) {
            // The subscriber hung up (or errored): the feed is over.
            conn.closed = true;
            return;
        }
    }
    loop {
        match ship.acks.next() {
            Ok(Some(Request::ReplAck { term, lsn })) => {
                if let Some(s) = &ship.slot {
                    s.group.note_ack(s.id, term, lsn);
                }
            }
            // Non-ack requests on a feed are a contract breach and close it.
            Ok(Some(_)) | Err(_) => {
                conn.closed = true;
                return;
            }
            Ok(None) => break,
        }
    }
    let group = shared.config.repl_group.as_ref();
    if let Some(g) = group {
        if let Some(t) = g.fenced_by() {
            encode_response(&Response::Fenced { term: t }, &mut conn.outbox);
            conn.close_after_drain = true;
            return;
        }
    }
    if conn.outbox.len() > conn.out_pos {
        return;
    }
    let wal = shared.db.wal();
    let durable = wal.durable_lsn();
    if durable <= ship.from {
        return;
    }
    let Some((bytes, start)) = wal.durable_tail(ship.from) else {
        // The log was truncated past this subscriber's cursor; only a fresh
        // snapshot can help it. Closing the feed signals that.
        conn.closed = true;
        return;
    };
    if start != ship.from {
        conn.closed = true;
        return;
    }
    // The store may hold flushed bytes the durable watermark has not
    // published yet; never ship past what the WAL calls durable.
    let avail = ((durable - start) as usize).min(bytes.len());
    if avail == 0 {
        return;
    }
    let chunk_cap = shared.config.ship_chunk.min(MAX_FRAME - 64).max(1);
    let term = group.map_or(0, |g| g.term());
    let mut off = 0;
    let mut chunks = 0;
    while off < avail && chunks < MAX_SHIP_CHUNKS_PER_TICK {
        let n = (avail - off).min(chunk_cap);
        encode_response(
            &Response::LogChunk {
                term,
                start: start + off as u64,
                bytes: bytes[off..off + n].to_vec(),
            },
            &mut conn.outbox,
        );
        off += n;
        chunks += 1;
    }
    ship.from = start + off as u64;
}

/// Writes the outbox until done or `WouldBlock`, arming write interest only
/// while bytes remain so an idle session costs zero wakeups.
fn flush_outbox(poller: &Poller, conn: &mut Conn) {
    if conn.closed {
        return;
    }
    while conn.out_pos < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[conn.out_pos..]) {
            Ok(0) => {
                conn.closed = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.closed = true;
                return;
            }
        }
    }
    if conn.out_pos >= conn.outbox.len() {
        conn.outbox.clear();
        conn.out_pos = 0;
    }
    if conn.close_after_drain && conn.drained_for_close() {
        conn.closed = true;
        return;
    }
    let want = conn.outbox.len() > conn.out_pos;
    if want != conn.want_write {
        let interest = if want { Interest::BOTH } else { Interest::READABLE };
        if poller.modify(conn.fd, conn.token, interest).is_ok() {
            conn.want_write = want;
        }
    }
}

/// Takes a checkpoint and appends the full page snapshot to `responses`:
/// one [`Response::SnapBegin`] carrying the redo start LSN and catalog, a
/// [`Response::SnapPage`] per heap page, and a closing [`Response::SnapEnd`].
/// Pages may be dirtied again while we read them — that is the *fuzzy* part;
/// a page newer than the checkpoint just makes the replica's page-LSN
/// idempotent redo skip the already-applied records.
fn snapshot_into(db: &Arc<Database>, responses: &mut Vec<Response>) {
    let start_lsn = match db.checkpoint() {
        Ok(lsn) => lsn,
        Err(e) => {
            responses.push(Response::Error(format!("snapshot failed: {e}")));
            return;
        }
    };
    let catalog = db.catalog();
    responses.push(Response::SnapBegin {
        start_lsn,
        catalog: catalog
            .iter()
            .map(|(id, name, arity, pages)| (*id, name.clone(), *arity as u32, pages.clone()))
            .collect(),
        // Declarations only — index contents are derived state the replica
        // rebuilds from the installed heap.
        indexes: db
            .index_catalog()
            .into_iter()
            .flat_map(|(tid, defs)| {
                defs.into_iter()
                    .map(move |d| (tid, d.id, d.name, d.col as u32, d.kind.as_u8()))
            })
            .collect(),
    });
    let disk = db.disk();
    let mut page = esdb_storage::page::Page::new();
    let mut page_count = 0u64;
    for (_, _, _, pages) in &catalog {
        for &pid in pages {
            match disk.read(pid, &mut page) {
                Ok(()) => {
                    responses.push(Response::SnapPage {
                        page_id: pid,
                        bytes: page.as_bytes().to_vec(),
                    });
                    page_count += 1;
                }
                Err(e) => {
                    responses.push(Response::Error(format!("snapshot page {pid}: {e:?}")));
                    return;
                }
            }
        }
    }
    responses.push(Response::SnapEnd { page_count });
}

/// An interactive statement failed: abort the open transaction (2PL already
/// released nothing early) and report the error. The session stays usable —
/// the client may BEGIN again.
fn abort_with(conn: &mut Conn, e: esdb_txn::TxnError) -> Response {
    if let Some(txn) = conn.txn.take() {
        txn.abort();
    }
    Response::Error(format!("transaction aborted: {e}"))
}
