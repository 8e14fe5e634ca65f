//! Seeded inputs: key sets and mixed client batches. The same seed gives
//! the same inputs; the store only ever sees the generated ops.

use store::{shard_of, Op};

/// splitmix64 finaliser: a bijection on `u64`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value the store accepts (`< u64::MAX`).
    pub fn value(&mut self) -> u64 {
        self.next_u64() >> 1
    }
}

/// `n` distinct pseudo-random keys (a bijection of `0..n`).
pub fn distinct_keys(seed: u64, n: usize) -> Vec<u64> {
    let off = mix(seed);
    (0..n as u64).map(|i| mix(i.wrapping_add(off))).collect()
}

/// `per_shard` distinct keys for each of `shards` shards under the
/// store's public key-to-shard hash, so a per-shard live bound can be
/// declared tight.
pub fn balanced_keys(seed: u64, shards: usize, per_shard: usize) -> Vec<u64> {
    let off = mix(seed);
    let mut buckets = vec![Vec::with_capacity(per_shard); shards];
    let mut i = 0u64;
    while buckets.iter().any(|b| b.len() < per_shard) {
        let k = mix(i.wrapping_add(off));
        let b = &mut buckets[shard_of(k, shards)];
        if b.len() < per_shard {
            b.push(k);
        }
        i += 1;
    }
    buckets.concat()
}

/// One mixed client batch over the resident `keys`: half gets, 5/16
/// puts, 1/8 deletes, 1/16 aggregates. Deleted keys come back through
/// later puts, so the live set never exceeds the resident set.
pub fn mixed_batch(rng: &mut Rng, keys: &[u64], n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let key = keys[rng.below(keys.len())];
            match rng.below(16) {
                0..=7 => Op::Get { key },
                8..=12 => Op::Put {
                    key,
                    val: rng.value(),
                },
                13..=14 => Op::Delete { key },
                _ => Op::Aggregate,
            }
        })
        .collect()
}

/// Bulk-load batches: one put per key, in `chunk`-op epochs.
pub fn load_batches(rng: &mut Rng, keys: &[u64], chunk: usize) -> Vec<Vec<Op>> {
    keys.chunks(chunk)
        .map(|c| {
            c.iter()
                .map(|&key| Op::Put {
                    key,
                    val: rng.value(),
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let keys = distinct_keys(1, 64);
        let a = mixed_batch(&mut Rng::new(1, 0), &keys, 32);
        let b = mixed_batch(&mut Rng::new(1, 0), &keys, 32);
        let c = mixed_batch(&mut Rng::new(2, 0), &keys, 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn balanced_keys_fill_every_shard_exactly() {
        let keys = balanced_keys(3, 2, 100);
        assert_eq!(keys.len(), 200);
        for s in 0..2 {
            assert_eq!(keys.iter().filter(|&&k| shard_of(k, 2) == s).count(), 100);
        }
        let mut d = keys.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 200);
    }
}
