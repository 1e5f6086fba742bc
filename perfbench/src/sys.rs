//! What the operating system says about this process: CPU time, context
//! switches, peak resident memory, and per-thread CPU of a set of threads.
//!
//! Read from `getrusage(2)` and `/proc/self`; nothing here needs the engine.

use std::collections::BTreeSet;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;
const SC_CLK_TCK: i32 = 2;
/// Offsets of `ru_nvcsw` / `ru_nivcsw` in [`Rusage::rest`].
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn rusage(who: i32) -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for this target.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

fn micros(t: &Timeval) -> f64 {
    t.sec as f64 * 1e6 + t.usec as f64
}

/// CPU use of the whole process or of the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// User time, µs.
    pub user_us: f64,
    /// System time, µs.
    pub sys_us: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: f64,
}

impl Cpu {
    /// User plus system time, µs.
    pub fn total_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    /// `self − earlier`, field by field.
    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

fn cpu(who: i32) -> Cpu {
    let r = rusage(who);
    Cpu {
        user_us: micros(&r.utime),
        sys_us: micros(&r.stime),
        ctx_switches: (r.rest[NVCSW] + r.rest[NIVCSW]) as f64,
    }
}

/// CPU use of the whole process so far (every thread, live or exited).
pub fn process_cpu() -> Cpu {
    cpu(RUSAGE_SELF)
}

/// CPU use of the calling thread so far.
pub fn thread_cpu() -> Cpu {
    cpu(RUSAGE_THREAD)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Ids of every live thread of this process.
pub fn thread_ids() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Summed user and system time of `tids`, µs, from `/proc/self/task/*/stat`
/// (clock-tick resolution). Threads that have exited count as zero.
pub fn threads_cpu(tids: &BTreeSet<u64>) -> Cpu {
    // SAFETY: sysconf has no memory-safety preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let mut total = Cpu::default();
    for tid in tids {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")) else {
            continue;
        };
        // Fields after the parenthesised name; utime and stime are the
        // 14th and 15th fields of the whole line.
        let rest = &stat[stat.rfind(')').map_or(0, |i| i + 1)..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        total.user_us += tick(11) * 1e6 / hz;
        total.sys_us += tick(12) * 1e6 / hz;
    }
    total
}
