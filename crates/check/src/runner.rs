//! The check runner: builds the engine, drives virtual threads under a
//! schedule strategy, and evaluates the oracles.
//!
//! One schedule = one fresh `Database` + one OS thread per scenario client,
//! all governed by the installed [`CheckHook`]. The run has two phases:
//!
//! 1. **Setup** (deterministic, untraced): a dedicated init virtual thread
//!    creates tables and loads the population; the scheduler always steps the
//!    smallest-tag ready thread. DORA executors spawned during setup register
//!    themselves and are admitted as daemon virtual threads.
//! 2. **Exploration** (traced): client virtual threads run their scripts
//!    while the strategy picks each step. Every decision is recorded, which
//!    is what makes failing seeds replayable and shrinkable.
//!
//! Teardown detaches every remaining virtual thread (daemons fall back to OS
//! blocking and drain normally when the database drops). A run that makes no
//! progress — every thread blocked, nothing ready — is reported as `Stuck`
//! with the per-thread blocked points; its threads are abandoned rather than
//! joined, a bounded leak on the failing diagnostic path only.

use crate::history::Recorder;
use crate::scenario::{RunView, Scenario};
use crate::schedule::{
    shrink_trace, MinTag, Pct, RandomWalk, ReplaySchedule, Schedule, Strategy, Trace,
};
use crate::vthread::{adopt_and_wait, finish, CheckHook, Cmd, Handshake, Report};
use esdb_core::spec_exec::{self, SpecOutcome};
use esdb_core::{Database, ExecutionModel};
use esdb_txn::Txn;
use esdb_workload::{TxnSpec, WorkloadOp};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Which seeded engine mutation to enable (chaos feature flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `esdb-txn`: release all locks after every operation (breaks 2PL).
    ReleaseLocksEarly,
    /// `esdb-dora`: ignore wait-die conflicts (co-own keys).
    DisableWaitDie,
}

/// Checker configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Number of seeded schedules to explore.
    pub schedules: usize,
    /// Seed of the first schedule (schedule `i` uses `base_seed + i`).
    pub base_seed: u64,
    /// Exploration strategy.
    pub strategy: Strategy,
    /// Hard cap on scheduler steps per schedule.
    pub max_steps: usize,
    /// Engine mutation to enable (mutation smoke tests only).
    pub mutation: Option<Mutation>,
    /// Replay budget for the shrinker.
    pub shrink_budget: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            schedules: 100,
            base_seed: 1,
            strategy: Strategy::RandomWalk,
            max_steps: 50_000,
            mutation: None,
            shrink_budget: 200,
        }
    }
}

/// What a schedule's oracle found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Conflict-graph cycle over the committed history.
    Serializability {
        /// Cycle description.
        detail: String,
    },
    /// A scenario invariant failed.
    Invariant {
        /// Invariant name.
        name: String,
        /// Failure description.
        detail: String,
    },
    /// No runnable thread but clients unfinished (lost wakeup / deadlock
    /// missed by the engine's own detection).
    Stuck {
        /// Per-thread blocked points.
        detail: String,
    },
    /// The schedule exceeded `max_steps` (livelock).
    StepBudget {
        /// The configured cap.
        steps: usize,
    },
    /// A client or setup thread panicked.
    Panic {
        /// Panic payloads.
        detail: String,
    },
}

impl Violation {
    /// Coarse kind label; shrinking preserves the kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Serializability { .. } => "serializability",
            Violation::Invariant { .. } => "invariant",
            Violation::Stuck { .. } => "stuck",
            Violation::StepBudget { .. } => "step-budget",
            Violation::Panic { .. } => "panic",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Serializability { detail } => write!(f, "serializability: {detail}"),
            Violation::Invariant { name, detail } => write!(f, "invariant {name}: {detail}"),
            Violation::Stuck { detail } => write!(f, "stuck: {detail}"),
            Violation::StepBudget { steps } => write!(f, "step budget exceeded ({steps})"),
            Violation::Panic { detail } => write!(f, "panic: {detail}"),
        }
    }
}

/// A failing schedule, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Seed of the failing schedule.
    pub seed: u64,
    /// The violation the oracle reported.
    pub violation: Violation,
    /// Full recorded trace of the failing run.
    pub trace: Trace,
    /// Shrunk trace (same violation kind, minimal same-thread segments).
    pub shrunk: Trace,
    /// Violation observed when replaying the shrunk trace.
    pub shrunk_violation: Violation,
    /// `true` if replaying the original trace reproduced the violation.
    pub replayed: bool,
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "schedule seed {} failed: {}", self.seed, self.violation)?;
        writeln!(
            f,
            "replay: {}",
            if self.replayed { "reproduces byte-identically" } else { "DID NOT reproduce" }
        )?;
        writeln!(f, "shrunk ({} of {} steps): {}", self.shrunk.steps.len(), self.trace.steps.len(), self.shrunk_violation)?;
        write!(f, "minimal yield trace: {}", self.shrunk.render())
    }
}

/// Outcome of a [`check`] run.
#[derive(Debug)]
pub struct CheckReport {
    /// Schedules explored before stopping (== configured unless a failure).
    pub schedules_run: usize,
    /// Committed transactions summed over all clean schedules.
    pub committed_total: u64,
    /// The first failing schedule, if any.
    pub failure: Option<FailureReport>,
}

/// Everything a single schedule produced.
pub(crate) struct ScheduleRun {
    pub violation: Option<Violation>,
    pub trace: Trace,
    pub committed: u64,
}

// The process-global run lock: checked runs install a process-wide hook and
// flip process-wide chaos flags, so they must not overlap.
static RUN_LOCK: Mutex<()> = Mutex::new(());

struct ChaosGuard;

impl ChaosGuard {
    fn set(mutation: Option<Mutation>) -> Self {
        esdb_txn::chaos::set_release_locks_early(mutation == Some(Mutation::ReleaseLocksEarly));
        esdb_dora::chaos::set_disable_wait_die(mutation == Some(Mutation::DisableWaitDie));
        ChaosGuard
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        esdb_txn::chaos::set_release_locks_early(false);
        esdb_dora::chaos::set_disable_wait_die(false);
    }
}

struct HookGuard;

impl Drop for HookGuard {
    fn drop(&mut self) {
        esdb_sync::sched::uninstall();
    }
}

/// Explores `cfg.schedules` seeded schedules of `scenario`, stopping at the
/// first violation (which is then replayed and shrunk).
pub fn check(scenario: &Scenario, cfg: &CheckConfig) -> CheckReport {
    let mut committed_total = 0u64;
    for i in 0..cfg.schedules {
        let seed = cfg.base_seed.wrapping_add(i as u64);
        let schedule: Box<dyn Schedule> = match cfg.strategy {
            Strategy::RandomWalk => Box::new(RandomWalk::new(seed)),
            Strategy::Pct { depth } => Box::new(Pct::new(seed, depth, cfg.max_steps)),
        };
        let run = run_schedule(scenario, schedule, cfg);
        committed_total += run.committed;
        if let Some(violation) = run.violation {
            let kind = violation.kind();
            let replayed = {
                let r = replay(scenario, cfg, &run.trace.choices());
                r.violation.as_ref() == Some(&violation) && r.trace == run.trace
            };
            let shrunk_choices = shrink_trace(
                &run.trace.choices(),
                kind,
                |choices| {
                    replay(scenario, cfg, choices)
                        .violation
                        .map(|v| v.kind().to_string())
                },
                cfg.shrink_budget,
            );
            let shrunk_run = replay(scenario, cfg, &shrunk_choices);
            let shrunk_violation = shrunk_run.violation.unwrap_or_else(|| violation.clone());
            return CheckReport {
                schedules_run: i + 1,
                committed_total,
                failure: Some(FailureReport {
                    seed,
                    violation,
                    trace: run.trace,
                    shrunk: shrunk_run.trace,
                    shrunk_violation,
                    replayed,
                }),
            };
        }
    }
    CheckReport {
        schedules_run: cfg.schedules,
        committed_total,
        failure: None,
    }
}

/// Replays a recorded choice sequence against `scenario`.
pub fn replay(scenario: &Scenario, cfg: &CheckConfig, choices: &[u64]) -> ScheduleRunPublic {
    let run = run_schedule(scenario, Box::new(ReplaySchedule::new(choices.to_vec())), cfg);
    ScheduleRunPublic {
        violation: run.violation,
        trace: run.trace,
        committed: run.committed,
    }
}

/// Public mirror of a schedule result (for replay callers and tests).
#[derive(Debug)]
pub struct ScheduleRunPublic {
    /// Oracle verdict.
    pub violation: Option<Violation>,
    /// Recorded trace of the (re)run.
    pub trace: Trace,
    /// Committed transactions.
    pub committed: u64,
}

// ---------------------------------------------------------------------------
// Single-schedule execution
// ---------------------------------------------------------------------------

const INIT_TAG: u64 = 900;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VtState {
    Ready,
    Blocked,
    Finished,
    Detached,
}

struct Vt {
    daemon: bool,
    hs: Arc<Handshake>,
    state: VtState,
    point: &'static str,
}

struct Sched {
    hook: Arc<CheckHook>,
    vthreads: BTreeMap<u64, Vt>,
    steps: usize,
}

impl Sched {
    fn admit_pending(&mut self) {
        for reg in self.hook.drain_pending() {
            self.vthreads.insert(
                reg.tag,
                Vt {
                    daemon: true,
                    hs: reg.hs,
                    state: VtState::Ready,
                    point: "spawn",
                },
            );
        }
    }

    fn apply_report(vt: &mut Vt, report: Report) {
        match report {
            Report::Paused { point, ready } => {
                vt.state = if ready { VtState::Ready } else { VtState::Blocked };
                vt.point = point.name();
            }
            Report::Finished => {
                vt.state = VtState::Finished;
                vt.point = "finish";
            }
            Report::Detached => {
                vt.state = VtState::Detached;
                vt.point = "detached";
            }
        }
    }

    /// Drives the schedule until every non-daemon thread finished. Records
    /// decisions into `trace` if given.
    fn drive(
        &mut self,
        schedule: &mut dyn Schedule,
        mut trace: Option<&mut Trace>,
        max_steps: usize,
    ) -> Result<(), Violation> {
        loop {
            self.admit_pending();
            // Poll blocked threads: grants/messages produced by the last step
            // may have made them runnable.
            let blocked: Vec<u64> = self
                .vthreads
                .iter()
                .filter(|(_, v)| v.state == VtState::Blocked)
                .map(|(&t, _)| t)
                .collect();
            for tag in blocked {
                let vt = self.vthreads.get_mut(&tag).unwrap();
                let report = vt.hs.command(Cmd::Poll);
                Self::apply_report(vt, report);
            }
            if self
                .vthreads
                .values()
                .filter(|v| !v.daemon)
                .all(|v| v.state == VtState::Finished)
            {
                return Ok(());
            }
            let ready: Vec<u64> = self
                .vthreads
                .iter()
                .filter(|(_, v)| v.state == VtState::Ready)
                .map(|(&t, _)| t)
                .collect();
            if ready.is_empty() {
                let detail = self
                    .vthreads
                    .iter()
                    .filter(|(_, v)| v.state == VtState::Blocked && !v.daemon)
                    .map(|(t, v)| format!("t{t}@{}", v.point))
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(Violation::Stuck {
                    detail: format!("no runnable thread; blocked: [{detail}]"),
                });
            }
            if self.steps >= max_steps {
                return Err(Violation::StepBudget { steps: max_steps });
            }
            let choice = schedule.pick(&ready, self.steps);
            debug_assert!(ready.contains(&choice), "schedule picked a non-ready tag");
            let vt = self.vthreads.get_mut(&choice).unwrap();
            let report = vt.hs.command(Cmd::Step);
            Self::apply_report(vt, report);
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(choice, self.vthreads[&choice].point);
            }
            self.steps += 1;
        }
    }

    /// Detaches every still-governed thread (including never-admitted
    /// registrations). Detached daemons drain on their OS blocking paths.
    fn detach_all(&mut self) {
        let tags: Vec<u64> = self.vthreads.keys().copied().collect();
        for tag in tags {
            let vt = self.vthreads.get_mut(&tag).unwrap();
            if matches!(vt.state, VtState::Ready | VtState::Blocked) {
                let report = vt.hs.command(Cmd::Detach);
                Self::apply_report(vt, report);
            }
        }
        for reg in self.hook.drain_pending() {
            let _ = reg.hs.command(Cmd::Detach);
        }
    }
}

/// Spawns an OS thread that parks immediately and runs `f` under the
/// scheduler once first stepped.
fn spawn_vthread<F, R>(tag: u64, f: F) -> (Arc<Handshake>, JoinHandle<R>)
where
    F: FnOnce() -> R + Send + 'static,
    R: Send + 'static,
{
    let hs = Arc::new(Handshake::new());
    let hs2 = Arc::clone(&hs);
    let handle = std::thread::Builder::new()
        .name(format!("vthread-{tag}"))
        .spawn(move || {
            adopt_and_wait(hs2);
            let r = f();
            finish();
            r
        })
        .expect("spawn vthread");
    (hs, handle)
}

fn run_schedule(scenario: &Scenario, mut schedule: Box<dyn Schedule>, cfg: &CheckConfig) -> ScheduleRun {
    let _run = RUN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _chaos = ChaosGuard::set(cfg.mutation);
    let hook = Arc::new(CheckHook::new());
    esdb_sync::sched::install(hook.clone() as Arc<dyn esdb_sync::SchedHook>);
    let _uninstall = HookGuard;

    let mut trace = Trace::default();
    let db = Arc::new(Database::open(scenario.config.clone()));
    let recorder = Arc::new(Recorder::new());
    let conventional = matches!(scenario.config.execution, ExecutionModel::Conventional { .. });
    let panicked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    let mut sched = Sched {
        hook: Arc::clone(&hook),
        vthreads: BTreeMap::new(),
        steps: 0,
    };

    // Phase 1: setup on a dedicated init vthread (deterministic MinTag
    // stepping, untraced — identical for every schedule of this scenario).
    let (init_hs, init_handle) = {
        let db = Arc::clone(&db);
        let tables = scenario.tables.clone();
        let population = scenario.population.clone();
        let panicked = Arc::clone(&panicked);
        spawn_vthread(INIT_TAG, move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for (i, (name, arity)) in tables.iter().enumerate() {
                    let id = db.create_table(name, *arity).expect("create table");
                    assert_eq!(id, i as u32, "table ids must be creation-ordered");
                }
                if population.is_empty() {
                    return;
                }
                let ops: Vec<WorkloadOp> = population
                    .iter()
                    .map(|(table, key, row)| WorkloadOp::Insert {
                        table: *table,
                        key: *key,
                        row: row.clone(),
                    })
                    .collect();
                let spec = TxnSpec { kind: "setup", ops, may_fail: false };
                let outcome = db.run_spec(&spec);
                assert!(outcome.is_committed(), "population load failed: {outcome:?}");
            }));
            if let Err(p) = result {
                panicked.lock().unwrap().push(panic_message(p));
            }
        })
    };
    sched.vthreads.insert(
        INIT_TAG,
        Vt { daemon: false, hs: init_hs, state: VtState::Ready, point: "spawn" },
    );

    let setup = sched.drive(&mut MinTag, None, cfg.max_steps);
    if let Err(violation) = setup {
        sched.detach_all();
        std::mem::forget(init_handle);
        return ScheduleRun { violation: Some(violation), trace, committed: 0 };
    }
    init_handle.join().expect("init thread");
    if !panicked.lock().unwrap().is_empty() {
        sched.detach_all();
        let detail = panicked.lock().unwrap().join("; ");
        return ScheduleRun { violation: Some(Violation::Panic { detail }), trace, committed: 0 };
    }

    // Phase 2: exploration. One vthread per client, tags 0..n.
    let mut client_handles = Vec::new();
    for (tag, script) in scenario.clients.iter().enumerate() {
        let db = Arc::clone(&db);
        let script = script.clone();
        let recorder = Arc::clone(&recorder);
        let panicked = Arc::clone(&panicked);
        let retries = scenario.config.retries;
        let record = conventional;
        let (hs, handle) = spawn_vthread(tag as u64, move || {
            let mut outcomes = Vec::with_capacity(script.len());
            for spec in &script {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if record {
                        // The engine's own interpreter and retry loop, with
                        // every access and commit stamped into the history.
                        let observe = |id, table, key, write| {
                            recorder.record(id, table, key, write);
                        };
                        let commit = |txn: Txn| {
                            let id = txn.id();
                            txn.commit();
                            recorder.commit(id);
                        };
                        let mgr = db.txn_manager();
                        spec_exec::run_conventional(mgr, retries, spec, observe, commit).0
                    } else {
                        db.run_spec(spec)
                    }
                }));
                match result {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(p) => {
                        panicked.lock().unwrap().push(panic_message(p));
                        break;
                    }
                }
            }
            outcomes
        });
        sched.vthreads.insert(
            tag as u64,
            Vt { daemon: false, hs, state: VtState::Ready, point: "spawn" },
        );
        client_handles.push(handle);
    }

    let explored = sched.drive(schedule.as_mut(), Some(&mut trace), cfg.max_steps);
    sched.detach_all();

    if let Err(violation) = explored {
        // Diagnostic path: abandon unfinished clients (bounded leak) — the
        // database cannot be safely inspected while they still run.
        for handle in client_handles {
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                std::mem::forget(handle);
            }
        }
        return ScheduleRun { violation: Some(violation), trace, committed: 0 };
    }

    let outcomes: Vec<Vec<SpecOutcome>> = client_handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    let committed = outcomes
        .iter()
        .flatten()
        .filter(|o| o.is_committed())
        .count() as u64;

    if !panicked.lock().unwrap().is_empty() {
        let detail = panicked.lock().unwrap().join("; ");
        return ScheduleRun { violation: Some(Violation::Panic { detail }), trace, committed };
    }

    // Oracle 1: a must-succeed transaction may lose a conflict fight (an
    // adversarial schedule can starve it until its retries exhaust — that is
    // wait-die / lock-timeout behaving as documented), but it must never
    // fail *logically*: a missing or duplicate key in these scenarios means
    // isolation broke.
    for (client, script) in scenario.clients.iter().enumerate() {
        for (i, spec) in script.iter().enumerate() {
            if !spec.may_fail && outcomes[client][i] == SpecOutcome::LogicalFailure {
                return ScheduleRun {
                    violation: Some(Violation::Invariant {
                        name: "no-logical-failure".into(),
                        detail: format!(
                            "client {client} txn {i} ({}) failed logically",
                            spec.kind
                        ),
                    }),
                    trace,
                    committed,
                };
            }
        }
    }

    // Oracle 2: conflict-graph serializability (conventional runs record
    // full read/write sets; DORA correctness is covered by invariants).
    if conventional {
        if let Some(detail) = recorder.serializability_violation() {
            return ScheduleRun {
                violation: Some(Violation::Serializability { detail }),
                trace,
                committed,
            };
        }
    }

    // Oracle 3: scenario invariants over the quiesced end state.
    let view = RunView { db: &db, clients: &scenario.clients, outcomes: &outcomes };
    for inv in &scenario.invariants {
        if let Err(detail) = (inv.check)(&view) {
            return ScheduleRun {
                violation: Some(Violation::Invariant { name: inv.name.into(), detail }),
                trace,
                committed,
            };
        }
    }

    ScheduleRun { violation: None, trace, committed }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_string()
    }
}
