//! Versioned slot → shard routing, the unit of online rebalancing.
//!
//! Placement is factored through a fixed ring of hash **slots**: a
//! `(table, key)` pair hashes to a slot ([`slot_of`]), and a
//! [`RoutingTable`] maps each slot to its owning shard. Moving data between
//! shards then never changes the hash function — a migration rewrites one
//! slot's entry and bumps the table's **epoch**.
//!
//! The epoch is the fencing token (the rebalancing analog of replication
//! terms): every installed table carries a strictly larger epoch, so a
//! router or client holding a stale table can be detected by comparing
//! epochs and told to refresh with a typed `WrongShard{epoch, hint}` answer
//! instead of being silently served from a shard that no longer owns the
//! key.

/// Default number of hash slots a routing table spreads keys over. Small
/// enough that a slot is a meaningful migration unit, large enough that a
/// single slot is a modest fraction of the data.
pub const DEFAULT_SLOTS: u32 = 16;

/// The slot owning `(table, key)` out of `slots`: a Fibonacci
/// multiplicative hash, so uniform keys spread evenly over the slots.
pub fn slot_of(table: u32, key: u64, slots: u32) -> u32 {
    let x = (u64::from(table) << 56) ^ key;
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) % u64::from(slots.max(1))) as u32
}

/// A versioned slot → shard map. Immutable once built; rebalancing installs
/// a whole new table under a larger [`epoch`](RoutingTable::epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    /// Fencing token: strictly increases with every installed table.
    pub epoch: u64,
    /// `slots[s]` is the shard owning slot `s`.
    pub slots: Vec<u32>,
}

impl RoutingTable {
    /// Round-robin placement of `n_slots` slots over `n_shards` shards at
    /// epoch 0 — the bootstrap table before any rebalancing.
    pub fn uniform(n_shards: u32, n_slots: u32) -> RoutingTable {
        let n = n_shards.max(1);
        RoutingTable {
            epoch: 0,
            slots: (0..n_slots.max(1)).map(|s| s % n).collect(),
        }
    }

    /// Number of slots in the ring.
    pub fn slot_count(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The slot owning `(table, key)` under this table's ring size.
    pub fn slot_for(&self, table: u32, key: u64) -> u32 {
        slot_of(table, key, self.slot_count())
    }

    /// The shard owning `(table, key)`.
    pub fn shard_of(&self, table: u32, key: u64) -> u32 {
        self.slots[self.slot_for(table, key) as usize]
    }

    /// A copy of this table with `slot` moved to `to` and the epoch bumped
    /// — what a migration cutover installs.
    pub fn with_slot_moved(&self, slot: u32, to: u32) -> RoutingTable {
        let mut slots = self.slots.clone();
        slots[slot as usize] = to;
        RoutingTable { epoch: self.epoch + 1, slots }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_spread_and_stay_in_range() {
        let mut seen = vec![0u32; DEFAULT_SLOTS as usize];
        for key in 0..10_000u64 {
            let s = slot_of(2, key, DEFAULT_SLOTS);
            assert!(s < DEFAULT_SLOTS);
            seen[s as usize] += 1;
        }
        for (s, count) in seen.iter().enumerate() {
            assert!(*count > 200, "slot {s} starved: {count}");
        }
    }

    #[test]
    fn uniform_table_covers_every_shard() {
        let t = RoutingTable::uniform(3, 16);
        assert_eq!(t.epoch, 0);
        for shard in 0..3u32 {
            assert!(t.slots.contains(&shard), "shard {shard} owns no slot");
        }
        for key in 0..100u64 {
            assert!(t.shard_of(0, key) < 3);
        }
    }

    #[test]
    fn moving_a_slot_bumps_the_epoch_and_only_that_slot() {
        let t = RoutingTable::uniform(2, 8);
        let moved = t.with_slot_moved(3, 1);
        assert_eq!(moved.epoch, t.epoch + 1);
        for s in 0..8usize {
            if s == 3 {
                assert_eq!(moved.slots[s], 1);
            } else {
                assert_eq!(moved.slots[s], t.slots[s]);
            }
        }
    }

    #[test]
    fn slot_hash_is_deterministic() {
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(slot_of(3, key, 16), slot_of(3, key, 16));
        }
    }
}
