//! Per-layer probes of the traced run: kernel replays at a workload's
//! public merge shape, a standalone ORAM, the fork-join runtime, and one
//! metered epoch for the cost-model counts.

use crate::common::{checked_epoch, ms, Front, Report};
use crate::gen::Rng;
use crate::oracle::Model;
use crate::spans::Recorder;
use crate::stats::{median, ratio};
use fj::{Ctx, Pool, SeqCtx};
use metrics::{measure, CacheConfig, CostReport, ScratchPool, TraceMode, Tracked};
use obliv_core::scan::{scan_in, seg_combine_u64, Schedule, Seg};
use obliv_core::{compact_cells, Engine, TagCell};
use pram::{Opram, OramConfig};
use std::hint::black_box;
use std::time::Instant;
use store::{EpochPath, Op};

/// Timed repetitions of every probe (after one warm-up).
const REPS: usize = 7;

/// The public shape of one of a workload's merge epochs: merge array
/// `m = pow2(capacity + b2)`, op-sort class `b2 = pow2(pending + batch)`,
/// the results window `b` (the padded batch), and the shard count.
pub struct Shape {
    pub m: usize,
    pub b2: usize,
    pub window: usize,
    pub shards: usize,
}

fn timed(mut f: impl FnMut() -> f64) -> f64 {
    f();
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

fn random_cells(rng: &mut Rng, n: usize) -> Vec<TagCell> {
    (0..n)
        .map(|_| TagCell::new(rng.next_u64() as u128, rng.next_u64() as u128))
        .collect()
}

/// Replay the kernels a merge epoch of `shape` runs, on `SeqCtx`, and
/// report each plus their share of `merge_epoch_ms`.
pub fn kernels(seed: u64, shape: &Shape, merge_epoch_ms: f64, r: &mut Report) {
    let c = SeqCtx::new();
    let scratch = ScratchPool::new();
    let mut rng = Rng::new(seed, 40);
    let engine = Engine::BitonicRec;
    let sort_at = |rng: &mut Rng, n: usize| {
        timed(|| {
            let mut cells = random_cells(rng, n);
            let t0 = Instant::now();
            engine.sort_cells(&c, &scratch, &mut Tracked::new(&c, &mut cells));
            ms(t0.elapsed())
        })
    };
    let sort_ms = sort_at(&mut rng, shape.b2);
    let window_ms = sort_at(&mut rng, shape.window);
    // A bitonic input: the resident table ascending, the ops descending.
    let merge_ms = timed(|| {
        let mut cells = random_cells(&mut rng, shape.m);
        let split = shape.m - shape.b2;
        cells[..split].sort_unstable_by_key(|x| x.tag);
        cells[split..].sort_unstable_by_key(|x| std::cmp::Reverse(x.tag));
        let t0 = Instant::now();
        engine.merge_cells(&c, &scratch, &mut Tracked::new(&c, &mut cells));
        ms(t0.elapsed())
    });
    let compact_ms = timed(|| {
        let mut cells: Vec<TagCell> = (0..shape.m)
            .map(|i| {
                if rng.below(2) == 0 {
                    TagCell::filler()
                } else {
                    TagCell::new(i as u128, rng.next_u64() as u128)
                }
            })
            .collect();
        let t0 = Instant::now();
        compact_cells(&c, &scratch, &mut Tracked::new(&c, &mut cells));
        ms(t0.elapsed())
    });
    let combine = seg_combine_u64(u64::wrapping_add);
    let scan_ms = timed(|| {
        let mut segs: Vec<Seg<u64>> = (0..shape.m)
            .map(|i| Seg::new(i == 0 || rng.below(8) == 0, rng.next_u64()))
            .collect();
        let t0 = Instant::now();
        scan_in(
            &c,
            &scratch,
            &mut Tracked::new(&c, &mut segs),
            Seg::new(false, 0),
            &combine,
            true,
            false,
            Schedule::Tree,
        );
        black_box(&segs);
        ms(t0.elapsed())
    });
    // One epoch per shard: op sort, merge, scan, two compactions (results
    // and table rebuild) and the results-window sort.
    let epoch_kernels =
        shape.shards as f64 * (sort_ms + merge_ms + scan_ms + 2.0 * compact_ms + window_ms);
    r.push("core.merge_cells_ms", merge_ms, "ms");
    r.push("core.compact_cells_ms", compact_ms, "ms");
    r.push("core.sort_cells_ms", sort_ms, "ms");
    r.push("core.scan_ms", scan_ms, "ms");
    r.push(
        "core.kernel_share",
        ratio(epoch_kernels, merge_epoch_ms),
        "ratio",
    );
}

/// One `Opram::access` on a 16k address space, in microseconds.
pub fn oram_access_us(seed: u64) -> f64 {
    const SPACE: usize = 16384;
    const BLOCK: usize = 50;
    let c = SeqCtx::new();
    let mut rng = Rng::new(seed, 41);
    let mut oram = Opram::new(SPACE, OramConfig::default(), Engine::BitonicRec, seed);
    timed(|| {
        let reqs: Vec<(u64, Option<u64>)> = (0..BLOCK)
            .map(|_| {
                let a = rng.below(SPACE) as u64;
                (a, (rng.below(2) == 0).then(|| rng.value()))
            })
            .collect();
        let t0 = Instant::now();
        for &(a, w) in &reqs {
            black_box(oram.access(&c, a, w));
        }
        ms(t0.elapsed()) * 1e3 / BLOCK as f64
    })
}

fn fork_tree<C: Ctx>(c: &C, depth: u32) -> u64 {
    if depth == 0 {
        return black_box(1);
    }
    let (a, b) = c.join(|c| fork_tree(c, depth - 1), |c| fork_tree(c, depth - 1));
    a + b
}

/// `fj.pool_run_us` (an empty `Pool::run`) and `fj.join_ns` (per fork of
/// a balanced fork tree run on the pool).
pub fn pool_costs(pool: &Pool, r: &mut Report) {
    const RUNS: usize = 200;
    const DEPTH: u32 = 12;
    let run_us = timed(|| {
        let t0 = Instant::now();
        for _ in 0..RUNS {
            pool.run(|_| black_box(0u64));
        }
        ms(t0.elapsed()) * 1e3 / RUNS as f64
    });
    let join_ns = pool.run(|c| {
        timed(|| {
            let t0 = Instant::now();
            black_box(fork_tree(c, DEPTH));
            ms(t0.elapsed()) * 1e6 / ((1u64 << DEPTH) - 1) as f64
        })
    });
    r.push("fj.pool_run_us", run_us, "us");
    r.push("fj.join_ns", join_ns, "ns");
}

/// The workload's epoch on the pool and on `SeqCtx`, interleaved; each
/// result is checked by the oracle. Pool epochs are recorded under
/// `pool_span`. Returns the pool/seq ratio of medians.
pub fn pool_over_seq<T: Front + Send>(
    pool: &Pool,
    rec: &Recorder,
    scratch: &ScratchPool,
    store: &mut T,
    model: &mut Model,
    mut batch: impl FnMut() -> Vec<Op>,
    pool_span: &'static str,
) -> Result<f64, String> {
    let seq = SeqCtx::new();
    let (mut on_pool, mut on_seq) = (Vec::new(), Vec::new());
    rec.set_on(true);
    for _ in 0..REPS {
        let ops = batch();
        let (res, dt) = pool.run(|c| {
            rec.span(pool_span, || {
                let t0 = Instant::now();
                (store.run_epoch(c, scratch, &ops), t0.elapsed())
            })
        });
        let res = res.map_err(|e| format!("pool epoch: {e}"))?;
        model.check(&ops, &res)?;
        if store.last_path() == Some(EpochPath::Merge) {
            model.close_merge();
        }
        on_pool.push(ms(dt));
        let ops = batch();
        on_seq.push(ms(checked_epoch(&seq, scratch, store, model, &ops)?));
    }
    rec.set_on(false);
    Ok(ratio(median(&on_pool), median(&on_seq)))
}

/// One metered epoch of `ops` (cost model: work, span, misses,
/// comparisons), checked by the oracle.
pub fn metered_epoch<T: Front>(
    scratch: &ScratchPool,
    store: &mut T,
    model: &mut Model,
    ops: &[Op],
) -> Result<CostReport, String> {
    let (res, rep) = measure(CacheConfig::default(), TraceMode::Hash, |c| {
        store.run_epoch(c, scratch, ops)
    });
    let res = res.map_err(|e| format!("metered epoch: {e}"))?;
    model.check(ops, &res)?;
    if store.last_path() == Some(EpochPath::Merge) {
        model.close_merge();
    }
    Ok(rep)
}

/// Definition 1 from outside: two epochs of the same public shape with
/// data from different seeds must give identical model counts. A merge
/// epoch is exactly trace-equal, so its cache misses and trace hash must
/// match too; an ORAM epoch is only trace-length invariant (its paths
/// are fresh random leaves), so there the misses may differ and only
/// work, span, comparisons and trace length are compared.
pub fn push_model(
    a: &CostReport,
    b: &CostReport,
    ops: usize,
    trace_equal: bool,
    r: &mut Report,
) -> Result<(), String> {
    let counts = |x: &CostReport| {
        let mut v = vec![x.work, x.span, x.comparisons, x.trace_len];
        if trace_equal {
            v.extend([x.cache_misses, x.trace_hash]);
        }
        v
    };
    if counts(a) != counts(b) {
        return Err(format!(
            "Definition-1 check: same-shape epochs with different data gave \
             different model counts {:?} vs {:?}",
            counts(a),
            counts(b)
        ));
    }
    let per_op = |x: u64| x as f64 / ops as f64;
    r.push("model.work_per_op", per_op(a.work), "1/op");
    r.push("model.span", a.span as f64, "steps");
    r.push("model.cache_misses_per_op", per_op(a.cache_misses), "1/op");
    r.push("model.comparisons_per_op", per_op(a.comparisons), "1/op");
    Ok(())
}
