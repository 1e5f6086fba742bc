//! TATP — the Telecom Application Transaction Processing benchmark.
//!
//! The canonical workload of the Shore-MT/DORA papers: very short
//! transactions, 80% reads, uniform access over a large subscriber table —
//! "inherently concurrent", so any throughput ceiling is the *engine's*
//! fault, which is exactly the keynote's argument.
//!
//! Standard mix: GetSubscriberData 35%, GetNewDestination 10%, GetAccessData
//! 35%, UpdateSubscriberData 2%, UpdateLocation 14%, InsertCallForwarding 2%,
//! DeleteCallForwarding 2%. Insert/Delete-CallForwarding legitimately fail on
//! key collisions/misses (the spec expects ~30–70% failure for those types).

use crate::rng::Rng;
use crate::spec::{TableDef, TxnSpec, Workload, WorkloadOp};

/// Table ids.
pub const SUBSCRIBER: u32 = 0;
/// Access-info table id.
pub const ACCESS_INFO: u32 = 1;
/// Special-facility table id.
pub const SPECIAL_FACILITY: u32 = 2;
/// Call-forwarding table id.
pub const CALL_FORWARDING: u32 = 3;

/// TATP workload generator.
pub struct Tatp {
    subscribers: u64,
    rng: Rng,
}

impl Tatp {
    /// Creates a generator over `subscribers` subscribers.
    pub fn new(subscribers: u64, seed: u64) -> Self {
        assert!(subscribers >= 1);
        Tatp {
            subscribers,
            rng: Rng::new(seed),
        }
    }

    fn ai_key(s: u64, ai_type: u64) -> u64 {
        s * 4 + ai_type
    }

    fn sf_key(s: u64, sf_type: u64) -> u64 {
        s * 4 + sf_type
    }

    fn cf_key(s: u64, sf_type: u64, start_time: u64) -> u64 {
        (s * 4 + sf_type) * 3 + start_time
    }
}

impl Workload for Tatp {
    fn name(&self) -> &'static str {
        "tatp"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![
            TableDef { id: SUBSCRIBER, name: "subscriber".into(), arity: 4 },
            TableDef { id: ACCESS_INFO, name: "access_info".into(), arity: 2 },
            TableDef { id: SPECIAL_FACILITY, name: "special_facility".into(), arity: 2 },
            TableDef { id: CALL_FORWARDING, name: "call_forwarding".into(), arity: 2 },
        ]
    }

    fn population(&self) -> Vec<(u32, u64, Vec<i64>)> {
        let mut rows = Vec::new();
        // Population layout is part of the benchmark definition: fixed seed.
        let mut rng = Rng::new(0x7A79_0001);
        for s in 0..self.subscribers {
            rows.push((SUBSCRIBER, s, vec![s as i64, 0, 0, 0]));
            // Each subscriber: 1–4 access-info rows, deterministic count.
            let n_ai = 1 + (s % 4);
            for ai in 0..n_ai {
                rows.push((ACCESS_INFO, Self::ai_key(s, ai), vec![ai as i64, 0]));
            }
            // 1–4 special facilities.
            let n_sf = 1 + ((s / 4) % 4);
            for sf in 0..n_sf {
                rows.push((SPECIAL_FACILITY, Self::sf_key(s, sf), vec![sf as i64, 1]));
                // ~1 call-forwarding row for half the facilities.
                if rng.pct(50) {
                    let st = rng.below(3);
                    rows.push((CALL_FORWARDING, Self::cf_key(s, sf, st), vec![st as i64, 0]));
                }
            }
        }
        rows
    }

    fn next_txn(&mut self) -> TxnSpec {
        let s = self.rng.below(self.subscribers);
        let dice = self.rng.below(100);
        if dice < 35 {
            TxnSpec {
                kind: "GetSubscriberData",
                ops: vec![WorkloadOp::Read { table: SUBSCRIBER, key: s }],
                may_fail: false,
            }
        } else if dice < 45 {
            let sf = self.rng.below(4);
            let st = self.rng.below(3);
            TxnSpec {
                kind: "GetNewDestination",
                ops: vec![
                    WorkloadOp::Read { table: SPECIAL_FACILITY, key: Self::sf_key(s, sf) },
                    WorkloadOp::Read { table: CALL_FORWARDING, key: Self::cf_key(s, sf, st) },
                ],
                may_fail: true, // facility/forwarding may not exist
            }
        } else if dice < 80 {
            let ai = self.rng.below(4);
            TxnSpec {
                kind: "GetAccessData",
                ops: vec![WorkloadOp::Read { table: ACCESS_INFO, key: Self::ai_key(s, ai) }],
                may_fail: true, // subscriber may have fewer ai rows
            }
        } else if dice < 82 {
            let sf = self.rng.below(4);
            let bit = self.rng.below(2) as i64;
            TxnSpec {
                kind: "UpdateSubscriberData",
                ops: vec![
                    WorkloadOp::Add { table: SUBSCRIBER, key: s, col: 1, delta: bit },
                    WorkloadOp::Add {
                        table: SPECIAL_FACILITY,
                        key: Self::sf_key(s, sf),
                        col: 1,
                        delta: 1,
                    },
                ],
                may_fail: true,
            }
        } else if dice < 96 {
            let loc = self.rng.below(1 << 30) as i64;
            TxnSpec {
                kind: "UpdateLocation",
                ops: vec![WorkloadOp::Write {
                    table: SUBSCRIBER,
                    key: s,
                    row: vec![s as i64, 0, 0, loc],
                }],
                may_fail: false,
            }
        } else if dice < 98 {
            let sf = self.rng.below(4);
            let st = self.rng.below(3);
            TxnSpec {
                kind: "InsertCallForwarding",
                ops: vec![
                    WorkloadOp::Read { table: SPECIAL_FACILITY, key: Self::sf_key(s, sf) },
                    WorkloadOp::Insert {
                        table: CALL_FORWARDING,
                        key: Self::cf_key(s, sf, st),
                        row: vec![st as i64, 1],
                    },
                ],
                may_fail: true, // duplicate CF key or missing SF
            }
        } else {
            let sf = self.rng.below(4);
            let st = self.rng.below(3);
            TxnSpec {
                kind: "DeleteCallForwarding",
                ops: vec![WorkloadOp::Delete {
                    table: CALL_FORWARDING,
                    key: Self::cf_key(s, sf, st),
                }],
                may_fail: true, // CF row may not exist
            }
        }
    }

    fn fork(&mut self) -> Box<dyn Workload> {
        Box::new(Tatp {
            subscribers: self.subscribers,
            rng: self.rng.split(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_has_all_tables() {
        let w = Tatp::new(100, 1);
        let pop = w.population();
        for t in [SUBSCRIBER, ACCESS_INFO, SPECIAL_FACILITY, CALL_FORWARDING] {
            assert!(pop.iter().any(|(tt, _, _)| *tt == t), "table {t} empty");
        }
        // Exactly one subscriber row per subscriber.
        assert_eq!(pop.iter().filter(|(t, _, _)| *t == SUBSCRIBER).count(), 100);
        // Keys are unique per table.
        let mut keys: Vec<(u32, u64)> = pop.iter().map(|(t, k, _)| (*t, *k)).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn deterministic_stream() {
        let mut a = Tatp::new(1_000, 7);
        let mut b = Tatp::new(1_000, 7);
        for _ in 0..50 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }

    #[test]
    fn mix_ratios_roughly_standard() {
        let mut w = Tatp::new(10_000, 3);
        let mut counts = std::collections::HashMap::new();
        const N: usize = 20_000;
        for _ in 0..N {
            *counts.entry(w.next_txn().kind).or_insert(0usize) += 1;
        }
        let frac = |k: &str| counts.get(k).copied().unwrap_or(0) as f64 / N as f64;
        assert!((0.32..0.38).contains(&frac("GetSubscriberData")));
        assert!((0.32..0.38).contains(&frac("GetAccessData")));
        assert!((0.12..0.16).contains(&frac("UpdateLocation")));
        assert!((0.08..0.12).contains(&frac("GetNewDestination")));
    }

    #[test]
    fn keys_stay_in_domain() {
        let mut w = Tatp::new(50, 9);
        for _ in 0..1_000 {
            for op in w.next_txn().ops {
                let (table, key) = crate::op_target(&op);
                match table {
                    SUBSCRIBER => assert!(key < 50),
                    ACCESS_INFO | SPECIAL_FACILITY => assert!(key < 50 * 4),
                    CALL_FORWARDING => assert!(key < 50 * 4 * 3),
                    _ => panic!("unknown table"),
                }
            }
        }
    }
}
