//! # esdb-perfbench — the end-to-end benchmark of esdb
//!
//! Three closed-loop workloads against esdb as it ships
//! (`EngineConfig::default()`), each stressing different layers:
//!
//! * `tatp-wire` — TATP over loopback TCP, strict request/response: the
//!   wire and reactor dominate, storage idles.
//! * `ycsb-inproc` — YCSB in-process against a pool a third the size of
//!   the data: buffer pool, B-tree, lock and WAL work, no network at all.
//! * `tpcb-2pc` — sharded TPC-B over two shard servers with 25%
//!   cross-shard two-phase commit.
//!
//! One run sets the workload up several times (reporting the median set-up
//! time), warms up, measures one window and checks the outputs. A traced
//! run measures an untraced window and then a traced one: the traced
//! window times the benchmark's own calls into each layer and reads the
//! counters the layers already expose, and reports the per-layer metrics
//! listed in [`PER_LAYER`]. See `perfbench/NOTES.md`.

pub mod alloc;
mod sys;
mod tatp_wire;
mod tpcb_2pc;
mod ycsb_inproc;

use esdb_core::spec_exec::SpecOutcome;
use esdb_core::{Database, EngineConfig};
use esdb_net::{Client, Server, ServerConfig};
use esdb_obs::Component;
use esdb_storage::InMemoryDisk;
use esdb_workload::{TxnSpec, Workload, WorkloadOp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time limit on every client call over the wire: a stall past it is a
/// failed operation, not a hang.
pub(crate) const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "txn/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("heavy_latency_p50_us", "us"),
    ("completed_share", "share"),
    ("cpu_us_per_txn", "us"),
    ("rss_peak_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run): name and unit. A layer that is not on a
/// workload's path reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_us", "us"),
    ("net.client.call_us", "us"),
    ("net.client.encode_ns", "ns"),
    ("net.client.cpu_us_per_txn", "us"),
    ("net.request_bytes_per_txn", "B"),
    ("net.server.cpu_us_per_txn", "us"),
    ("net.server.sys_share", "share"),
    ("net.reactor.busy_us_per_txn", "us"),
    ("net.reactor.idle_share", "share"),
    ("net.reactor.ticks_per_txn", "count"),
    ("net.reactor.txns_per_batch", "count"),
    ("net.wire_us", "us"),
    ("proc.ctx_switches_per_txn", "count"),
    ("core.txn_us", "us"),
    ("core.share.useful", "share"),
    ("core.share.lock_wait", "share"),
    ("core.share.latch_spin", "share"),
    ("core.share.log_wait", "share"),
    ("core.share.io_retry", "share"),
    ("core.share.commit_flush", "share"),
    ("txn.commit_ratio", "share"),
    ("lock.acquires_per_txn", "count"),
    ("lock.waits_per_txn", "count"),
    ("lock.wait_us_per_txn", "us"),
    ("lock.timeouts", "count"),
    ("lock.deadlocks", "count"),
    ("wal.bytes_per_txn", "B"),
    ("wal.flushes_per_txn", "count"),
    ("wal.commits_per_flush", "count"),
    ("wal.flush_wait_us", "us"),
    ("storage.pool.hit_ratio", "share"),
    ("storage.pool.misses_per_txn", "count"),
    ("storage.pool.writebacks_per_txn", "count"),
    ("storage.pool.miss_us", "us"),
    ("storage.disk.reads_per_txn", "count"),
    ("storage.disk.writes_per_txn", "count"),
    ("storage.disk.pages_per_write_batch", "count"),
    ("shard.cross_share", "share"),
    ("shard.rpcs_per_txn", "count"),
    ("shard.one_shot_us", "us"),
    ("shard.prepare_us", "us"),
    ("shard.decide_us", "us"),
    ("shard.cross_commit_ratio", "share"),
    ("alloc.count_per_txn", "count"),
    ("alloc.bytes_per_txn", "B"),
    ("trace.overhead_share", "share"),
    ("waterfall.observed_us", "us"),
    ("waterfall.client_us", "us"),
    ("waterfall.gap_share", "share"),
];

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["tatp-wire", "ycsb-inproc", "tpcb-2pc"];

/// How long a window lasts.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Wall-clock seconds.
    Secs(f64),
    /// Transactions per client thread (deterministic counts, for tests).
    Txns(u64),
}

/// A closure run once per transaction in the client loop (outside the
/// timed call); tests use it to inject known work.
pub type Hook = Arc<dyn Fn() + Send + Sync>;

/// What one run does.
#[derive(Clone)]
pub struct Options {
    /// Workload seed: the transaction streams derive from it.
    pub seed: u64,
    /// The measured window (in a traced run, each of its two windows).
    pub window: Window,
    /// Warm-up before the measured window.
    pub warmup: Window,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Rounds per run. Each round sets the workload up afresh, warms up
    /// and measures one window; `setup_s` is the median set-up time and the
    /// other metrics pool the rounds' slices.
    pub rounds: usize,
    /// Optional per-transaction hook.
    pub per_txn: Option<Hook>,
}

/// Rounds in a timed run.
pub(crate) const ROUNDS: usize = 5;

impl Options {
    /// The benchmark's settings for `seconds` of measurement, split evenly
    /// over [`ROUNDS`] rounds.
    pub fn timed(seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            seed,
            window: Window::Secs(seconds / ROUNDS as f64),
            warmup: Window::Secs(1.0),
            trace,
            rounds: ROUNDS,
            per_txn: None,
        }
    }

    /// The seed of round `r`: distinct per round, fixed by the run's seed.
    pub(crate) fn round_seed(&self, r: usize) -> u64 {
        self.seed.wrapping_add((r as u64) << 32)
    }
}

/// Opens an engine on a page store the benchmark can read counters from.
pub(crate) fn open(config: EngineConfig) -> (Arc<Database>, Arc<InMemoryDisk>) {
    let disk = Arc::new(InMemoryDisk::new());
    let db = Arc::new(Database::open_on(config, disk.clone()));
    (db, disk)
}

/// Starts a server over `db`; also returns the ids of the threads it added.
pub(crate) fn start_server(db: &Arc<Database>, config: ServerConfig) -> (Server, BTreeSet<u64>) {
    let before = sys::thread_ids();
    let server = Server::start(Arc::clone(db), "127.0.0.1:0", config).expect("start server");
    let tids = sys::thread_ids().difference(&before).copied().collect();
    (server, tids)
}

/// Connects a client with the benchmark's per-call time limit armed.
pub(crate) fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.set_op_timeout(Some(OP_TIMEOUT)).expect("arm op timeout");
    c
}

/// Named raw counters, summed over every engine, server and client of a
/// workload. Snapshots are subtracted to get a window's deltas.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to counter `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_insert(0.0) += v;
    }

    /// Counter `k` (0 when absent).
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }

    /// Adds every counter of `other`.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// `self − earlier`, per counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = self.clone();
        for (k, v) in &earlier.0 {
            *out.0.entry(k).or_insert(0.0) -= v;
        }
        out
    }

    /// Engine counters of one database and the page store beneath it.
    pub fn add_database(&mut self, db: &Database, disk: &InMemoryDisk) {
        let s = db.stats_snapshot();
        self.add("wal.bytes", s.current_lsn as f64);
        self.add("wal.flushes", s.wal_flushes as f64);
        let t = db.txn_manager().stats();
        self.add("txn.commits", t.commits as f64);
        self.add("txn.aborts", t.aborts as f64);
        let l = db.txn_manager().locks().stats();
        self.add("lock.acquires", l.acquisitions as f64);
        self.add("lock.waits", l.waits as f64);
        self.add("lock.wait_ns", l.wait_nanos as f64);
        self.add("lock.timeouts", l.timeouts as f64);
        self.add("lock.deadlocks", l.deadlocks as f64);
        let p = db.pool().stats();
        self.add("pool.hits", p.hits as f64);
        self.add("pool.misses", p.misses as f64);
        self.add("pool.writebacks", p.writebacks as f64);
        let d = disk.stats();
        self.add("disk.reads", d.reads as f64);
        self.add("disk.writes", d.writes as f64);
        self.add("disk.batches", d.batch_writes as f64);
    }

    /// Server-side counters of one server.
    pub fn add_server(&mut self, server: &esdb_net::Server) {
        let s = server.stats();
        self.add("srv.executed", s.txns_executed as f64);
        self.add("srv.batches", s.batches as f64);
    }

    /// CPU of a server's threads.
    pub fn add_server_threads(&mut self, tids: &BTreeSet<u64>) {
        let cpu = sys::threads_cpu(tids);
        self.add("srv.user_us", cpu.user_us);
        self.add("srv.sys_us", cpu.sys_us);
    }

    /// The process-global obs aggregate, process CPU and allocations.
    pub fn add_process(&mut self) {
        let g = esdb_obs::global();
        let p = g.profile();
        let parts = [
            p.useful,
            p.lock_wait,
            p.latch_spin,
            p.log_wait,
            p.io_retry,
            p.commit_flush,
        ];
        for ((key, _, _), v) in PROFILE.iter().zip(parts) {
            self.add(key, v as f64);
        }
        for (c, count, sum) in [
            (Component::TxnLatency, "obs.txn.n", "obs.txn.ns"),
            (Component::WalFlush, "obs.wal_flush.n", "obs.wal_flush.ns"),
            (Component::PoolMiss, "obs.pool_miss.n", "obs.pool_miss.ns"),
            (Component::ReactorTick, "obs.tick.n", "obs.tick.ns"),
            (Component::ReactorPoll, "obs.poll.n", "obs.poll.ns"),
        ] {
            let h = g.component(c);
            self.add(count, h.count as f64);
            self.add(sum, h.sum as f64);
        }
        let cpu = sys::process_cpu();
        self.add("proc.cpu_us", cpu.total_us());
        self.add("proc.ctx_switches", cpu.ctx_switches);
        let (n, bytes) = alloc::counts();
        self.add("alloc.count", n as f64);
        self.add("alloc.bytes", bytes as f64);
    }
}

/// The parts of the obs wait profile: counter, share metric, waterfall
/// stage.
const PROFILE: [(&str, &str, &str); 6] = [
    ("prof.useful", "core.share.useful", "core.useful"),
    ("prof.lock_wait", "core.share.lock_wait", "core.lock_wait"),
    (
        "prof.latch_spin",
        "core.share.latch_spin",
        "core.latch_spin",
    ),
    ("prof.log_wait", "core.share.log_wait", "core.log_wait"),
    ("prof.io_retry", "core.share.io_retry", "core.io_retry"),
    (
        "prof.commit_flush",
        "core.share.commit_flush",
        "core.commit_flush",
    ),
];

/// One client's way of running a transaction against the system.
pub(crate) trait Caller: Send {
    /// Runs `spec`. `Err` is a transport failure or a timeout; the caller is
    /// unusable afterwards.
    fn call(&mut self, spec: &TxnSpec) -> Result<SpecOutcome, String>;
    /// Whether calls cross the wire (the `net.*` metrics apply).
    fn over_wire(&self) -> bool;
    /// Request bytes `spec` puts on the wire, given its one-shot encoding.
    fn request_bytes(&self, _spec: &TxnSpec, one_shot: &[u8]) -> u64 {
        one_shot.len() as u64
    }
    /// Switches the caller's own timers on or off.
    fn set_trace(&mut self, _on: bool) {}
    /// Adds the caller's counters to a snapshot.
    fn add_counters(&self, _c: &mut Counters) {}
}

/// Length of the slices a timed window is cut into. End-to-end rates,
/// latencies and CPU per transaction are computed per slice and reported as
/// the better quartile over slices (see [`better_quartile`]).
pub(crate) const SLICE: Duration = Duration::from_secs(1);

/// Latency recorded for a failed call: it misses every latency limit.
const FAILED_NS: u32 = u32::MAX;

/// What client threads observed in one window, summed over threads.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// Per-slice call latencies, ns (a failed call counts as [`FAILED_NS`]).
    pub lat_ns: Vec<Vec<u32>>,
    /// Per-slice latencies of the workload's heavy transaction class, ns.
    pub heavy_ns: Vec<Vec<u32>>,
    /// Completed transactions per slice.
    pub slices: Vec<u64>,
    /// Process CPU per slice, µs.
    pub slice_cpu_us: Vec<f64>,
    /// Slice length, s.
    pub slice_s: f64,
    /// Client threads that ran.
    pub threads: usize,
    /// Transactions attempted.
    pub attempted: u64,
    /// Committed, or a logical miss the spec expects.
    pub completed: u64,
    /// Committed.
    pub committed: u64,
    /// Errors, timeouts, conflict failures and unexpected logical failures.
    pub failed: u64,
    /// `Add` ops inside committed transactions.
    pub adds_committed: u64,
    /// Traced: time generating transactions, ns.
    pub gen_ns: u64,
    /// Traced: time encoding the one-shot request, ns.
    pub encode_ns: u64,
    /// Traced: time inside the call, ns.
    pub call_ns: u64,
    /// Traced: client-side time outside generation and the call, ns.
    pub side_ns: u64,
    /// Traced: request bytes.
    pub req_bytes: u64,
    /// CPU of the client threads, µs.
    pub client_cpu_us: f64,
    /// Window wall time seen by the coordinating thread, s.
    pub wall_s: f64,
    /// Window wall time times the client threads that ran, s.
    pub thread_s: f64,
}

impl Tally {
    /// Adds another thread's tally of the same window, slice by slice.
    fn merge(&mut self, o: Tally) {
        if self.lat_ns.len() < o.lat_ns.len() {
            self.lat_ns.resize(o.lat_ns.len(), Vec::new());
            self.heavy_ns.resize(o.lat_ns.len(), Vec::new());
            self.slices.resize(o.slices.len(), 0);
        }
        for i in 0..o.lat_ns.len() {
            self.lat_ns[i].extend(&o.lat_ns[i]);
            self.heavy_ns[i].extend(&o.heavy_ns[i]);
            self.slices[i] += o.slices[i];
        }
        self.threads += o.threads;
        self.add_totals(&o);
    }

    /// Appends a later window's tally: its slices follow this one's.
    fn append(&mut self, o: Tally) {
        self.lat_ns.extend(o.lat_ns.iter().cloned());
        self.heavy_ns.extend(o.heavy_ns.iter().cloned());
        self.slices.extend(&o.slices);
        self.slice_cpu_us.extend(&o.slice_cpu_us);
        self.slice_s = o.slice_s;
        self.wall_s += o.wall_s;
        self.thread_s += o.thread_s;
        self.threads = self.threads.max(o.threads);
        self.add_totals(&o);
    }

    fn add_totals(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.committed += o.committed;
        self.failed += o.failed;
        self.adds_committed += o.adds_committed;
        self.gen_ns += o.gen_ns;
        self.encode_ns += o.encode_ns;
        self.call_ns += o.call_ns;
        self.side_ns += o.side_ns;
        self.req_bytes += o.req_bytes;
        self.client_cpu_us += o.client_cpu_us;
    }

    /// Completed transactions per second over the whole window.
    pub fn tps(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }

    /// Completed transactions per second, per slice.
    pub fn slice_tps(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|&c| c as f64 / self.slice_s)
            .collect()
    }

    /// Process CPU per completed transaction, µs, per slice.
    pub fn slice_cpu_us_per_txn(&self) -> Vec<f64> {
        self.slice_cpu_us
            .iter()
            .zip(&self.slices)
            .map(|(cpu, &c)| cpu / c.max(1) as f64)
            .collect()
    }
}

/// The `q` quantile of each non-empty slice of `lat_ns`, µs.
pub(crate) fn slice_latency_us(lat_ns: &[Vec<u32>], q: f64) -> Vec<f64> {
    lat_ns
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| quantile(l.iter().map(|&ns| f64::from(ns)).collect(), q) / 1e3)
        .collect()
}

/// The better quartile of per-slice values: the third quartile when higher
/// is better, the first when lower is. Noise on a shared host (steal time,
/// neighbours' cache and memory traffic) only ever makes a slice slower,
/// so the better quartile estimates the system's undisturbed speed, while
/// a change to the code moves every slice and so moves it too.
pub(crate) fn better_quartile(v: &[f64], higher_is_better: bool) -> f64 {
    quantile(v.to_vec(), if higher_is_better { 0.75 } else { 0.25 })
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Records one finished attempt into slice `slice`; `false` when the
/// caller is now unusable.
fn settle(
    t: &mut Tally,
    slice: usize,
    spec: &TxnSpec,
    heavy: bool,
    lat: u64,
    r: Result<SpecOutcome, String>,
) -> bool {
    t.attempted += 1;
    let lat = lat.min(u64::from(FAILED_NS - 1)) as u32;
    let (ok, usable) = match r {
        Ok(SpecOutcome::Committed { .. }) => {
            t.committed += 1;
            t.adds_committed += spec
                .ops
                .iter()
                .filter(|op| matches!(op, WorkloadOp::Add { .. }))
                .count() as u64;
            (true, true)
        }
        Ok(SpecOutcome::LogicalFailure) => (spec.may_fail, true),
        Ok(SpecOutcome::ConflictFailure) => (false, true),
        Err(e) => {
            eprintln!("client call failed: {e}");
            (false, false)
        }
    };
    if ok {
        t.completed += 1;
        t.slices[slice] += 1;
        t.lat_ns[slice].push(lat);
        if heavy {
            t.heavy_ns[slice].push(lat);
        }
    } else {
        t.failed += 1;
        t.lat_ns[slice].push(FAILED_NS);
    }
    usable
}

/// When a window starts and how it ends.
#[derive(Clone, Copy)]
struct Span {
    start: Instant,
    window: Window,
    slices: usize,
}

impl Span {
    fn new(window: Window) -> Span {
        let slices = match window {
            Window::Secs(s) => ((s / SLICE.as_secs_f64()) as usize).max(1),
            Window::Txns(_) => 1,
        };
        Span {
            start: Instant::now(),
            window,
            slices,
        }
    }

    fn slice_s(&self) -> f64 {
        match self.window {
            Window::Secs(s) => s / self.slices as f64,
            Window::Txns(_) => self.start.elapsed().as_secs_f64(),
        }
    }

    fn slice_of(&self, t: Instant) -> usize {
        let i = (t - self.start).as_secs_f64() / self.slice_s().max(1e-9);
        (i as usize).min(self.slices - 1)
    }

    fn done(&self, attempted: u64, now: Instant) -> bool {
        match self.window {
            Window::Secs(s) => (now - self.start).as_secs_f64() >= s,
            Window::Txns(n) => attempted >= n,
        }
    }
}

/// One client thread's closed loop: generate, call, wait for the answer,
/// repeat until the window ends or the caller breaks.
fn client_loop(
    gen: &mut dyn Workload,
    caller: &mut dyn Caller,
    span: Span,
    trace: bool,
    hook: Option<&Hook>,
    heavy: fn(&TxnSpec) -> bool,
) -> (Tally, bool) {
    let mut t = Tally {
        lat_ns: vec![Vec::new(); span.slices],
        heavy_ns: vec![Vec::new(); span.slices],
        slices: vec![0; span.slices],
        threads: 1,
        ..Tally::default()
    };
    let cpu0 = sys::thread_cpu();
    let wire = caller.over_wire();
    let mut buf = Vec::with_capacity(256);
    let mut now = Instant::now();
    let mut alive = true;
    while alive && !span.done(t.attempted, now) {
        if trace {
            let t0 = now;
            let spec = gen.next_txn();
            let t1 = Instant::now();
            if wire {
                buf.clear();
                esdb_net::protocol::encode_spec(&spec, &mut buf);
                t.encode_ns += ns(t1.elapsed());
                t.req_bytes += caller.request_bytes(&spec, &buf);
            }
            let t2 = Instant::now();
            let r = caller.call(&spec);
            let t3 = Instant::now();
            alive = settle(
                &mut t,
                span.slice_of(t3),
                &spec,
                heavy(&spec),
                ns(t3 - t2),
                r,
            );
            if let Some(h) = hook {
                h();
            }
            now = Instant::now();
            t.gen_ns += ns(t1 - t0);
            t.call_ns += ns(t3 - t2);
            t.side_ns += ns(t2 - t1) + ns(now - t3);
        } else {
            let spec = gen.next_txn();
            let t2 = Instant::now();
            let r = caller.call(&spec);
            now = Instant::now();
            alive = settle(
                &mut t,
                span.slice_of(now),
                &spec,
                heavy(&spec),
                ns(now - t2),
                r,
            );
            if let Some(h) = hook {
                h();
            }
        }
    }
    t.client_cpu_us = sys::thread_cpu().since(&cpu0).total_us();
    (t, alive)
}

/// The clients of one workload: one generator and one caller per thread.
pub(crate) struct Clients {
    /// Transaction generators, one per client thread.
    pub gens: Vec<Box<dyn Workload>>,
    /// Callers, one per client thread.
    pub callers: Vec<Box<dyn Caller>>,
    /// Which transactions form the workload's heavy class.
    pub heavy: fn(&TxnSpec) -> bool,
    alive: Vec<bool>,
}

impl Clients {
    /// Pairs generators with callers.
    pub fn new(
        gens: Vec<Box<dyn Workload>>,
        callers: Vec<Box<dyn Caller>>,
        heavy: fn(&TxnSpec) -> bool,
    ) -> Clients {
        assert_eq!(gens.len(), callers.len());
        let alive = vec![true; gens.len()];
        Clients {
            gens,
            callers,
            heavy,
            alive,
        }
    }

    /// Runs every live client thread for one window. The coordinating
    /// thread reads process CPU at every slice boundary meanwhile.
    fn window(&mut self, window: Window, trace: bool, hook: Option<&Hook>) -> Tally {
        let heavy = self.heavy;
        let alive = &self.alive;
        let mut cpu_marks = vec![sys::process_cpu().total_us()];
        let span = Span::new(window);
        let results: Vec<(usize, Tally, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .gens
                .iter_mut()
                .zip(self.callers.iter_mut())
                .enumerate()
                .filter(|(i, _)| alive[*i])
                .map(|(i, (g, c))| {
                    s.spawn(move || {
                        let (t, ok) = client_loop(g.as_mut(), c.as_mut(), span, trace, hook, heavy);
                        (i, t, ok)
                    })
                })
                .collect();
            if let Window::Secs(_) = window {
                for i in 1..=span.slices {
                    let mark = span.start + Duration::from_secs_f64(i as f64 * span.slice_s());
                    std::thread::sleep(mark.saturating_duration_since(Instant::now()));
                    cpu_marks.push(sys::process_cpu().total_us());
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = span.start.elapsed().as_secs_f64();
        if let Window::Txns(_) = window {
            cpu_marks.push(sys::process_cpu().total_us());
        }
        let slice_cpu_us = cpu_marks.windows(2).map(|m| m[1] - m[0]).collect();
        let mut total = Tally {
            wall_s,
            slice_s: span.slice_s(),
            slice_cpu_us,
            ..Tally::default()
        };
        for (i, t, ok) in results {
            self.alive[i] &= ok;
            total.merge(t);
        }
        total.thread_s = wall_s * total.threads as f64;
        total
    }
}

/// What [`measure`] saw.
pub(crate) struct Measured {
    /// The reported window (the traced one in a traced run).
    pub tally: Tally,
    /// Counter deltas over the reported window.
    pub delta: Counters,
    /// The untraced window of a traced run.
    pub untraced: Option<Tally>,
    /// Sums over every window, warm-up included (for output checks).
    pub all: Tally,
}

/// Reads every counter of the system under test, callers included.
pub(crate) type Snapshot<'a> = dyn Fn(&[Box<dyn Caller>]) -> Counters + 'a;

/// Warms up, then measures: one window, or in a traced run an untraced and
/// then a traced window. `snapshot` reads every counter of the system under
/// test; it runs only while no client thread does.
pub(crate) fn measure(opts: &Options, clients: &mut Clients, snapshot: &Snapshot) -> Measured {
    let hook = opts.per_txn.as_ref();
    // A traced round splits its window between the untraced and the traced
    // half, so traced and untraced runs take equally long.
    let window = match opts.window {
        Window::Secs(s) if opts.trace => Window::Secs(s / 2.0),
        w => w,
    };
    let mut all = Tally::default();
    all.add_totals(&clients.window(opts.warmup, false, hook));
    let mut untraced = None;
    if opts.trace {
        let plain = clients.window(window, false, hook);
        all.add_totals(&plain);
        untraced = Some(plain);
        for c in clients.callers.iter_mut() {
            c.set_trace(true);
        }
        alloc::set_counting(true);
    }
    let before = snapshot(&clients.callers);
    let tally = clients.window(window, opts.trace, hook);
    let delta = snapshot(&clients.callers).since(&before);
    alloc::set_counting(false);
    for c in clients.callers.iter_mut() {
        c.set_trace(false);
    }
    all.add_totals(&tally);
    Measured {
        tally,
        delta,
        untraced,
        all,
    }
}

/// One round of a workload: a fresh set-up, measured, checked, torn down.
pub(crate) struct Round {
    /// Set-up time, s.
    pub setup_s: f64,
    /// What the round measured.
    pub m: Measured,
    /// Whether the clients called over the wire.
    pub wire: bool,
    /// Failed output checks.
    pub problems: Vec<String>,
}

/// Runs `opts.rounds` rounds of `round` and reports them together.
pub(crate) fn run_rounds(opts: &Options, round: fn(&Options, u64) -> Round) -> Report {
    let mut setup_s = Vec::new();
    let mut rss_peak_mb = 0.0;
    let mut problems = Vec::new();
    let mut total: Option<Measured> = None;
    let mut wire = false;
    for r in 0..opts.rounds.max(1) {
        let rd = round(opts, opts.round_seed(r));
        setup_s.push(rd.setup_s);
        // Later rounds inherit heap the earlier ones left fragmented; the
        // first round's peak is one set-up plus one round of serving.
        if r == 0 {
            rss_peak_mb = sys::peak_rss_mb();
        }
        problems.extend(rd.problems.into_iter().map(|p| format!("round {r}: {p}")));
        wire = rd.wire;
        total = Some(match total {
            None => rd.m,
            Some(mut t) => {
                t.tally.append(rd.m.tally);
                t.delta.merge(&rd.m.delta);
                if let (Some(u), Some(v)) = (t.untraced.as_mut(), rd.m.untraced) {
                    u.append(v);
                }
                t
            }
        });
    }
    let m = total.expect("at least one round");
    report(opts, &setup_s, rss_peak_mb, &m, wire, problems)
}

/// The `q` quantile of `v`, interpolating linearly between ranks (0 when
/// `v` is empty).
pub(crate) fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything a finished run reports.
pub struct Report {
    /// Failed output checks; empty means correct.
    pub problems: Vec<String>,
    /// Transactions attempted in the reported window.
    pub attempted: u64,
    /// Transactions failed in the reported window.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the run).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub lines: Vec<String>,
}

/// Largest share by which the waterfall's stages may miss the observed
/// per-transaction time.
pub(crate) const WATERFALL_TOLERANCE: f64 = 0.05;

/// Turns a finished run into its report: end-to-end metrics for an
/// untraced run; per-layer metrics and the waterfall check for a traced one.
pub(crate) fn report(
    opts: &Options,
    setup_s: &[f64],
    rss_peak_mb: f64,
    m: &Measured,
    wire: bool,
    mut problems: Vec<String>,
) -> Report {
    let t = &m.tally;
    let d = &m.delta;
    if t.attempted == 0 {
        problems.push("no transaction was attempted".into());
    }
    let n = t.completed.max(1) as f64;
    let a = t.attempted.max(1) as f64;
    let mut metrics = BTreeMap::new();
    let mut lines = Vec::new();
    lines.push(format!(
        "window {:.3} s: attempted {} completed {} failed {} failed_share {:.6}",
        t.wall_s,
        t.attempted,
        t.completed,
        t.failed,
        t.failed as f64 / a
    ));
    let samples: usize = t.lat_ns.iter().map(Vec::len).sum();
    lines.push(format!(
        "latency samples {samples} in {} slices of {:.3} s (heavy class {}); \
         p99 per slice has {} beyond it",
        t.slices.len(),
        t.slice_s,
        t.heavy_ns.iter().map(Vec::len).sum::<usize>(),
        samples / t.slices.len().max(1) / 100
    ));
    if !opts.trace {
        let per_slice = |v: Vec<f64>| {
            v.iter()
                .map(|x| format!("{x:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        lines.push(format!("per-slice tps: {}", per_slice(t.slice_tps())));
        lines.push(format!(
            "per-slice p99 us: {}",
            per_slice(slice_latency_us(&t.lat_ns, 0.99))
        ));
        metrics.insert("throughput_tps", better_quartile(&t.slice_tps(), true));
        metrics.insert(
            "latency_p50_us",
            better_quartile(&slice_latency_us(&t.lat_ns, 0.5), false),
        );
        metrics.insert(
            "latency_p99_us",
            better_quartile(&slice_latency_us(&t.lat_ns, 0.99), false),
        );
        metrics.insert(
            "heavy_latency_p50_us",
            better_quartile(&slice_latency_us(&t.heavy_ns, 0.5), false),
        );
        metrics.insert("completed_share", t.completed as f64 / a);
        metrics.insert(
            "cpu_us_per_txn",
            better_quartile(&t.slice_cpu_us_per_txn(), false),
        );
        metrics.insert("rss_peak_mb", rss_peak_mb);
        metrics.insert("setup_s", quantile(setup_s.to_vec(), 0.5));
    } else {
        let w = |v: f64| if wire { v } else { 0.0 };
        let core_us = d.get("obs.txn.ns") / a / 1e3;
        let call_us = t.call_ns as f64 / a / 1e3;
        let prof_total: f64 = PROFILE.iter().map(|(k, _, _)| d.get(k)).sum();
        let share = |k: &str| ratio(d.get(k), prof_total);
        let srv_cpu = d.get("srv.user_us") + d.get("srv.sys_us");
        let (tick, poll) = (d.get("obs.tick.ns"), d.get("obs.poll.ns"));
        metrics.insert("workload.gen_us", t.gen_ns as f64 / a / 1e3);
        metrics.insert("net.client.call_us", w(call_us));
        metrics.insert("net.client.encode_ns", w(t.encode_ns as f64 / a));
        metrics.insert("net.client.cpu_us_per_txn", w(t.client_cpu_us / n));
        metrics.insert("net.request_bytes_per_txn", w(t.req_bytes as f64 / n));
        metrics.insert("net.server.cpu_us_per_txn", w(srv_cpu / n));
        metrics.insert(
            "net.server.sys_share",
            w(ratio(d.get("srv.sys_us"), srv_cpu)),
        );
        metrics.insert("net.reactor.busy_us_per_txn", w(tick / n / 1e3));
        metrics.insert("net.reactor.idle_share", w(ratio(poll, poll + tick)));
        metrics.insert("net.reactor.ticks_per_txn", w(d.get("obs.tick.n") / n));
        metrics.insert(
            "net.reactor.txns_per_batch",
            w(ratio(d.get("srv.executed"), d.get("srv.batches"))),
        );
        metrics.insert("net.wire_us", w(call_us - core_us));
        metrics.insert("proc.ctx_switches_per_txn", d.get("proc.ctx_switches") / n);
        metrics.insert("core.txn_us", d.get("obs.txn.ns") / n / 1e3);
        for (key, name, _) in PROFILE {
            metrics.insert(name, share(key));
        }
        let (commits, aborts) = (d.get("txn.commits"), d.get("txn.aborts"));
        metrics.insert("txn.commit_ratio", ratio(commits, commits + aborts));
        metrics.insert("lock.acquires_per_txn", d.get("lock.acquires") / n);
        metrics.insert("lock.waits_per_txn", d.get("lock.waits") / n);
        metrics.insert("lock.wait_us_per_txn", d.get("lock.wait_ns") / n / 1e3);
        metrics.insert("lock.timeouts", d.get("lock.timeouts"));
        metrics.insert("lock.deadlocks", d.get("lock.deadlocks"));
        metrics.insert("wal.bytes_per_txn", d.get("wal.bytes") / n);
        metrics.insert("wal.flushes_per_txn", d.get("wal.flushes") / n);
        metrics.insert(
            "wal.commits_per_flush",
            ratio(commits, d.get("wal.flushes")),
        );
        metrics.insert(
            "wal.flush_wait_us",
            ratio(d.get("obs.wal_flush.ns"), d.get("obs.wal_flush.n")) / 1e3,
        );
        let (hits, misses) = (d.get("pool.hits"), d.get("pool.misses"));
        metrics.insert("storage.pool.hit_ratio", ratio(hits, hits + misses));
        metrics.insert("storage.pool.misses_per_txn", misses / n);
        metrics.insert(
            "storage.pool.writebacks_per_txn",
            d.get("pool.writebacks") / n,
        );
        metrics.insert(
            "storage.pool.miss_us",
            ratio(d.get("obs.pool_miss.ns"), d.get("obs.pool_miss.n")) / 1e3,
        );
        metrics.insert("storage.disk.reads_per_txn", d.get("disk.reads") / n);
        metrics.insert("storage.disk.writes_per_txn", d.get("disk.writes") / n);
        metrics.insert(
            "storage.disk.pages_per_write_batch",
            ratio(d.get("disk.writes"), d.get("disk.batches")),
        );
        let (single, cross) = (d.get("shard.single"), d.get("shard.cross"));
        metrics.insert("shard.cross_share", ratio(cross, single + cross));
        metrics.insert("shard.rpcs_per_txn", d.get("shard.rpcs") / n);
        metrics.insert(
            "shard.one_shot_us",
            ratio(d.get("shard.one_shot.ns"), d.get("shard.one_shot.n")) / 1e3,
        );
        metrics.insert(
            "shard.prepare_us",
            ratio(d.get("shard.prepare.ns"), d.get("shard.prepare.n")) / 1e3,
        );
        metrics.insert(
            "shard.decide_us",
            ratio(d.get("shard.decide.ns"), d.get("shard.decide.n")) / 1e3,
        );
        metrics.insert(
            "shard.cross_commit_ratio",
            ratio(d.get("shard.cross_commits"), cross),
        );
        metrics.insert("alloc.count_per_txn", d.get("alloc.count") / n);
        metrics.insert("alloc.bytes_per_txn", d.get("alloc.bytes") / n);
        let untraced = m.untraced.as_ref().map_or(0.0, Tally::tps);
        metrics.insert("trace.overhead_share", ratio(untraced - t.tps(), untraced));

        // The waterfall: per attempted transaction, generation + client
        // side + wire + core must account for the window's wall time times
        // the client threads, as the coordinating thread clocked it.
        let observed = t.thread_s / a * 1e6;
        let gen = t.gen_ns as f64 / a / 1e3;
        let (wire_us, client_us) = if wire {
            (call_us - core_us, t.side_ns as f64 / a / 1e3)
        } else {
            // In-process, the call is the engine plus the profiling scope's
            // own cost, which belongs to the client side.
            (0.0, t.side_ns as f64 / a / 1e3 + call_us - core_us)
        };
        let stages = [
            ("workload.gen", gen),
            ("client", client_us),
            ("net.wire", wire_us),
        ]
        .into_iter()
        .chain(
            PROFILE
                .iter()
                .map(|(key, _, stage)| (*stage, core_us * share(key))),
        );
        let sum = gen + client_us + wire_us + core_us;
        let gap = ratio(sum - observed, observed);
        metrics.insert("waterfall.observed_us", observed);
        metrics.insert("waterfall.client_us", client_us);
        metrics.insert("waterfall.gap_share", gap);
        lines.push(format!("waterfall (us per txn, observed {observed:.3}):"));
        for (name, v) in stages {
            lines.push(format!(
                "  {name:<18} {v:>10.3}  {:>6.1}%",
                100.0 * ratio(v, observed)
            ));
            if v < -WATERFALL_TOLERANCE * observed {
                problems.push(format!("waterfall stage {name} is negative ({v:.3} us)"));
            }
        }
        lines.push(format!(
            "  {:<18} {sum:>10.3}  gap {:+.2}%",
            "sum",
            100.0 * gap
        ));
        if gap.abs() > WATERFALL_TOLERANCE {
            problems.push(format!(
                "waterfall stages sum to {sum:.3} us but the client loop observed {observed:.3} us per txn"
            ));
        }
    }
    Report {
        problems,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        lines,
    }
}

/// Runs `workload` with `opts`.
pub fn run(workload: &str, opts: &Options) -> Option<Report> {
    let round = match workload {
        "tatp-wire" => tatp_wire::round,
        "ycsb-inproc" => ycsb_inproc::round,
        "tpcb-2pc" => tpcb_2pc::round,
        _ => return None,
    };
    Some(run_rounds(opts, round))
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`, listing exactly the metrics of the run's kind.
pub fn result_json(r: &Report, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = r
                .metrics
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} missing"));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.problems.is_empty(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}
