//! Checks of the benchmark itself: the allocation counter sees injected
//! allocations, per-layer work counts repeat exactly for a fixed seed, and
//! `BENCHMARK.json` lists exactly the metrics the binary reports.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use esdb_perfbench::alloc::Counting;
use esdb_perfbench::{run, Hook, Options, Report, Window, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation counting and the obs aggregate are process-wide: one run at
/// a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// A traced tpcb-2pc run over a fixed number of transactions, checked.
fn traced_tpcb(seed: u64, txns: u64, per_txn: Option<Hook>) -> Report {
    let opts = Options {
        seed,
        window: Window::Txns(txns),
        warmup: Window::Txns(200),
        trace: true,
        rounds: 1,
        per_txn,
    };
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = run("tpcb-2pc", &opts).expect("tpcb-2pc is a workload");
    assert!(
        report.problems.is_empty(),
        "output checks failed: {:?}",
        report.problems
    );
    assert_eq!(report.failed, 0);
    report
}

#[test]
fn one_extra_allocation_per_txn_shows_as_one() {
    let base = traced_tpcb(7, 3_000, None);
    let hook: Hook = Arc::new(|| {
        std::hint::black_box(Box::new(std::hint::black_box(0u64)));
    });
    let more = traced_tpcb(7, 3_000, Some(hook));
    let delta = more.metrics["alloc.count_per_txn"] - base.metrics["alloc.count_per_txn"];
    assert!(
        (0.9..=1.1).contains(&delta),
        "one extra allocation per txn moved alloc.count_per_txn by {delta}"
    );
}

#[test]
fn work_counts_repeat_for_a_seed() {
    const EXACT: [&str; 5] = [
        "shard.rpcs_per_txn",
        "wal.bytes_per_txn",
        "wal.flushes_per_txn",
        "lock.acquires_per_txn",
        "shard.cross_share",
    ];
    let a = traced_tpcb(11, 20_000, None);
    let b = traced_tpcb(11, 20_000, None);
    for name in EXACT {
        assert_eq!(
            a.metrics[name], b.metrics[name],
            "{name} differs between two runs of one seed"
        );
    }
    let other = traced_tpcb(12, 20_000, None);
    let (x, y) = (
        a.metrics["shard.cross_share"],
        other.metrics["shard.cross_share"],
    );
    assert!((x - y).abs() <= 0.01, "cross share {x} vs {y} across seeds");
    assert!((x - 0.25).abs() <= 0.02, "cross share {x}, configured 0.25");
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let entries = |section: &str| -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect(section);
        let body = &json[start..start + json[start..].find(']').expect("list end")];
        body.match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &body[i + m.len()..];
                rest[..rest.find('"').expect("name end")].to_string()
            })
            .collect()
    };
    let names =
        |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(
        entries("workloads"),
        WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(entries("end_to_end"), names(END_TO_END));
    assert_eq!(entries("per_layer"), names(PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} must carry unit {unit} in BENCHMARK.json"
        );
    }
}
