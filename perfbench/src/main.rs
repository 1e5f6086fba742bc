//! The benchmark's command line:
//!
//! ```text
//! esdb-perfbench --workload <tatp-wire|ycsb-inproc|tpcb-2pc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or
//! per-layer metrics with `--trace 1`).

use esdb_perfbench::{alloc::Counting, result_json, run, Options, WORKLOADS};

#[global_allocator]
static ALLOC: Counting = Counting;

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: esdb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = parse(flag, value),
            "--seconds" => seconds = parse(flag, value),
            "--trace" => trace = parse::<u8>(flag, value) == 1,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let opts = Options::timed(seed, seconds, trace);
    let report =
        run(&workload, &opts).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value) in &report.metrics {
        println!("{name:<36} {value:.6}");
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", result_json(&report, trace));
}
