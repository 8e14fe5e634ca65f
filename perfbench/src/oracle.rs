//! The correctness oracle: a `BTreeMap` model of the store.
//!
//! `Value` results are checked op by op under sequential semantics
//! (earlier ops of the same epoch are visible). `Stats` results are
//! checked against the model's count and wrapping sum as of the last
//! merge close before the op's epoch: the store refreshes its analytics
//! snapshot only when an epoch merges.

use std::collections::BTreeMap;
use store::{Op, OpResult, StoreStats};

#[derive(Clone, Default)]
pub struct Model {
    map: BTreeMap<u64, u64>,
    sum: u64,
    snap: StoreStats,
}

impl Model {
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            count: self.map.len() as u64,
            sum: self.sum,
        }
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    fn write(&mut self, key: u64, val: Option<u64>) -> Option<u64> {
        let prev = match val {
            Some(v) => {
                self.sum = self.sum.wrapping_add(v);
                self.map.insert(key, v)
            }
            None => self.map.remove(&key),
        };
        if let Some(p) = prev {
            self.sum = self.sum.wrapping_sub(p);
        }
        prev
    }

    /// Apply `ops` without checking anything (the model of what has been
    /// submitted but not yet answered).
    pub fn apply(&mut self, ops: &[Op]) {
        for op in ops {
            match *op {
                Op::Put { key, val } => {
                    self.write(key, Some(val));
                }
                Op::Delete { key } => {
                    self.write(key, None);
                }
                Op::Get { .. } | Op::Aggregate => {}
            }
        }
    }

    /// Apply `ops` in order, checking each of `results` against the model.
    pub fn check(&mut self, ops: &[Op], results: &[store::OpResult]) -> Result<(), String> {
        if ops.len() != results.len() {
            return Err(format!("{} results for {} ops", results.len(), ops.len()));
        }
        for (i, (op, got)) in ops.iter().zip(results).enumerate() {
            let want = match *op {
                Op::Get { key } => OpResult::Value(self.get(key)),
                Op::Put { key, val } => OpResult::Value(self.write(key, Some(val))),
                Op::Delete { key } => OpResult::Value(self.write(key, None)),
                Op::Aggregate => OpResult::Stats(self.snap),
            };
            if *got != want {
                return Err(format!(
                    "op {i} {op:?}: store answered {got:?}, model {want:?}"
                ));
            }
        }
        Ok(())
    }

    /// The epoch just applied closed with a merge: refresh the snapshot.
    pub fn close_merge(&mut self) {
        self.snap = self.stats();
    }

    /// Check a store's analytics snapshot against the model's.
    pub fn check_snapshot(&self, got: StoreStats, what: &str) -> Result<(), String> {
        if got == self.snap {
            Ok(())
        } else {
            Err(format!(
                "{what}: store stats {got:?}, model {:?}",
                self.snap
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_semantics_and_merge_snapshots() {
        let mut m = Model::default();
        let ops = [
            Op::Put { key: 1, val: 10 },
            Op::Get { key: 1 },
            Op::Aggregate,
            Op::Put { key: 1, val: 5 },
            Op::Delete { key: 2 },
        ];
        let res = [
            OpResult::Value(None),
            OpResult::Value(Some(10)),
            OpResult::Stats(StoreStats::default()),
            OpResult::Value(Some(10)),
            OpResult::Value(None),
        ];
        m.check(&ops, &res).unwrap();
        m.close_merge();
        m.check_snapshot(StoreStats { count: 1, sum: 5 }, "after merge")
            .unwrap();
        // A wrong answer is reported, not absorbed.
        assert!(m
            .check(&[Op::Get { key: 1 }], &[OpResult::Value(None)])
            .is_err());
    }
}
