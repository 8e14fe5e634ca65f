//! The three workloads. Definition 1 makes every timing a function of
//! public shapes only (table capacity, batch class, path, pending length,
//! shard count), so op mix and key skew are not workload dimensions: the
//! workloads vary shapes and front ends instead.

use crate::common::*;
use crate::gen::{balanced_keys, distinct_keys, load_batches, mixed_batch, Rng};
use crate::oracle::Model;
use crate::probes::{self, Shape};
use crate::spans::ms_of;
use crate::stats::{median, ratio};
use fj::{Pool, SeqCtx};
use metrics::ScratchPool;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{
    size_class, Durability, EpochHandle, Op, OpResult, PipelinedStore, ShardConfig, ShardedStore,
    ShrinkPolicy, Store, StoreConfig, StoreError,
};

const MIB: f64 = 1024.0 * 1024.0;

/// Load every key, timing only the store calls (checks run outside).
fn timed_load<C: fj::Ctx, T: Front>(
    c: &C,
    scratch: &ScratchPool,
    store: &mut T,
    model: &mut Model,
    batches: &[Vec<Op>],
) -> Result<Duration, String> {
    let mut t = Duration::ZERO;
    for ops in batches {
        t += checked_epoch(c, scratch, store, model, ops)?;
    }
    Ok(t)
}

fn expect_ratio(s: &LoopStats, num: u64, den: u64) -> Result<f64, String> {
    if s.merges * den != s.epochs * num {
        return Err(format!(
            "merge/epoch ratio {}/{} differs from the public schedule's {num}/{den}",
            s.merges, s.epochs
        ));
    }
    Ok(ratio(s.merges as f64, s.epochs as f64))
}

/// Layers a workload does not run report 0 there.
fn push_no_pipeline(r: &mut Report, batches: usize, merges: u64) {
    r.push("pipeline.handoff_ms", 0.0, "ms");
    r.push("pipeline.wait_ms", 0.0, "ms");
    r.push("pipeline.read_now_ms", 0.0, "ms");
    r.push(
        "pipeline.batches_per_merge",
        ratio(batches as f64, merges as f64),
        "batches/merge",
    );
    r.push("router.fallbacks", 0.0, "count");
}

fn push_scratch(r: &mut Report, s: &LoopStats, scratch: &ScratchPool) {
    r.push(
        "scratch.fresh_allocs_per_epoch",
        ratio(s.fresh_allocs as f64, s.epochs as f64),
        "1/epoch",
    );
    r.push(
        "scratch.lane_hits_per_epoch",
        ratio(s.lane_hits as f64, s.epochs as f64),
        "1/epoch",
    );
    r.push(
        "scratch.resident_mib",
        scratch.resident_bytes() as f64 / MIB,
        "MiB",
    );
}

fn push_end_to_end(
    r: &mut Report,
    s: &LoopStats,
    setups: &[f64],
    rc: &Recovery,
    disk_bytes_per_op: f64,
) {
    s.push_end_to_end(r);
    r.push("setup_s", median(setups), "s");
    r.push("peak_rss_mib", peak_rss_mib(), "MiB");
    r.push("recovery_s", median(&rc.total_ms) / 1e3, "s");
    r.push("disk_bytes_per_op", disk_bytes_per_op, "B/op");
}

fn start_report(s: &LoopStats) -> Report {
    Report {
        attempted: s.attempted,
        failed: s.failed,
        metrics: Vec::new(),
    }
}

// ---------------------------------------------------------------------------

/// `merge-64k`: in-memory `Store` on `SeqCtx`, a 65,536-key table pinned
/// by the shrink policy, 1024-op mixed epochs. Every epoch merges over a
/// 131,072-cell array (4 MiB of cells plus as much scratch), far beyond a
/// 2 MiB L2: the merge kernels do almost all the work. No I/O, no pool,
/// no ORAM in the timed loop.
pub fn merge_64k(env: &Env) -> Result<Report, String> {
    const KEYS: usize = 65536;
    const BATCH: usize = 1024;
    const DRILL_CYCLE: usize = 8;
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: KEYS,
            snapshot: 0,
        }),
        ..StoreConfig::default()
    };
    let c = SeqCtx::new();
    let keys = distinct_keys(env.seed, KEYS);
    let ((mut store, scratch, mut model), setups) = setups(|| {
        let batches = load_batches(&mut Rng::new(env.seed, 1), &keys, LOAD_CHUNK);
        let scratch = ScratchPool::new();
        let mut model = Model::default();
        let t0 = Instant::now();
        let mut store = Store::new(cfg);
        let open = t0.elapsed();
        let load = timed_load(&c, &scratch, &mut store, &mut model, &batches)?;
        Ok(((store, scratch, model), open + load))
    })?;
    if store.capacity() != KEYS {
        return Err(format!(
            "capacity {} is not pinned at {KEYS}",
            store.capacity()
        ));
    }

    let mut rng = Rng::new(env.seed, 2);
    let dir = fresh_dir(env, "twin");
    let rscratch = ScratchPool::new();
    let open = |c: &SeqCtx, durability| {
        let cfg = StoreConfig { durability, ..cfg };
        Store::recover_with(c, &rscratch, &dir, cfg, Arc::clone(&env.vfs))
    };
    let twin = build_twin(
        &c,
        env,
        &rscratch,
        &model,
        &mut rng,
        &keys,
        BATCH,
        DRILL_CYCLE,
        |c| open(c, Durability::epoch()),
    )?;
    let disk = &twin.disk;
    let mut rc = Recovery::default();
    let stop = StopRule {
        block: 4,
        cycle: 1,
        phase: 0,
        window: 8,
    };
    let s = sync_loop(
        env,
        &scratch,
        &mut store,
        &mut model,
        &mut rng,
        &keys,
        BATCH,
        &stop,
        &mut |_| {
            let probe = &twin.probe;
            rc.recover(&c, env, &rscratch, &twin.model, probe, |c| {
                open(c, Durability::None)
            })
            .map(drop)
        },
    )?;
    remove_dir(&dir);
    let merge_ratio = expect_ratio(&s, 1, 1)?;
    let mut r = start_report(&s);
    if !env.trace {
        push_end_to_end(&mut r, &s, &setups, &rc, disk.bytes_per_op);
        return Ok(r);
    }

    let spans = env.rec.snapshot();
    span_layers(&spans, &mut r);
    r.push("store.merge_epoch_ratio", merge_ratio, "ratio");
    r.push("vfs.syncs_per_epoch", disk.syncs_per_epoch, "1/epoch");
    r.push("vfs.bytes_per_epoch", disk.bytes_per_epoch, "B/epoch");
    rc.push_layers(&mut r);
    let merge_ms = median(&ms_of(&spans, "store.epoch.merge"));
    let shape = Shape {
        m: (KEYS + BATCH).next_power_of_two(),
        b2: BATCH,
        window: BATCH,
        shards: 1,
    };
    probes::kernels(env.seed, &shape, merge_ms, &mut r);
    r.push(
        "pram.oram_access_us",
        probes::oram_access_us(env.seed),
        "us",
    );
    let pool = Pool::new(env.threads);
    probes::pool_costs(&pool, &mut r);
    let mut prng = Rng::new(env.seed, 3);
    let over = probes::pool_over_seq(
        &pool,
        &env.rec,
        &scratch,
        &mut store,
        &mut model,
        || mixed_batch(&mut prng, &keys, BATCH),
        "probe.pool_epoch",
    )?;
    r.push("fj.pool_over_seq", over, "ratio");
    push_no_pipeline(&mut r, s.lat_ms.len(), s.merges);
    push_scratch(&mut r, &s, &scratch);
    let a = mixed_batch(&mut Rng::new(env.seed, 4), &keys, BATCH);
    let b = mixed_batch(&mut Rng::new(env.seed ^ 0x5EED, 4), &keys, BATCH);
    let ra = probes::metered_epoch(&scratch, &mut store, &mut model, &a)?;
    let rb = probes::metered_epoch(&scratch, &mut store, &mut model, &b)?;
    probes::push_model(&ra, &rb, BATCH, true, &mut r)?;
    r.push("trace.overhead_ratio", overhead(&s), "ratio");
    Ok(r)
}

fn overhead(s: &LoopStats) -> f64 {
    ratio(s.ops_per_s(true), s.ops_per_s(false))
}

// ---------------------------------------------------------------------------

/// `durable-oram-16k`: `Store::recover_with` on the benchmark's `Vfs` in a
/// directory of the run, the ORAM path over 16,384 keys with the default
/// threshold (64) and pending limit (512), one fsync per epoch, a
/// snapshot every 4th merge, `SeqCtx`, 32-op epochs. Runs what
/// `merge-64k` bypasses: the ORAM point path on 16 of every 17 epochs, a
/// log append and sync on every epoch, a forced merge on every 17th and
/// a checkpoint on every 4th merge (both in the tail), and the read side
/// of storage in recovery. Its working set fits in cache.
pub fn durable_oram_16k(env: &Env) -> Result<Report, String> {
    const KEYS: usize = 16384;
    const BATCH: usize = 32;
    const SNAPSHOT: u64 = 4;
    let cfg = StoreConfig {
        shrink: Some(ShrinkPolicy {
            every: 1,
            live_bound: KEYS,
            snapshot: SNAPSHOT,
        }),
        durability: Durability::epoch(),
        ..StoreConfig::with_oram(KEYS)
    };
    // ORAM epochs fill the pending log; the one that would overflow it
    // merges, and every SNAPSHOT-th merge checkpoints.
    let merge_every = cfg.pending_limit / size_class(BATCH) + 1;
    let cycle = merge_every * SNAPSHOT as usize;
    let c = SeqCtx::new();
    let keys: Vec<u64> = (0..KEYS as u64).collect();
    let dir = fresh_dir(env, "durable");
    let ((mut store, scratch, mut model), setups) = setups(|| {
        remove_dir(&dir);
        let batches = load_batches(&mut Rng::new(env.seed, 1), &keys, LOAD_CHUNK);
        let scratch = ScratchPool::new();
        let mut model = Model::default();
        let t0 = Instant::now();
        let mut store = Store::recover_with(&c, &scratch, &dir, cfg, Arc::clone(&env.vfs))
            .map_err(|e| format!("open durable store: {e}"))?;
        let open = t0.elapsed();
        let load = timed_load(&c, &scratch, &mut store, &mut model, &batches)?;
        Ok(((store, scratch, model), open + load))
    })?;
    if store.capacity() != KEYS || store.pending_len() != 0 {
        return Err("durable store is not pinned at a merge close after loading".into());
    }

    let mut rng = Rng::new(env.seed, 2);
    // Every epoch is synced, so the directory is a crash image at any
    // batch boundary. Recoveries and the stop are taken half-way through
    // a checkpoint cycle: every image has the same shape (a snapshot plus
    // cycle/2 logged epochs).
    let stop = StopRule {
        block: cycle,
        cycle,
        phase: cycle / 2,
        window: cycle,
    };
    let none = StoreConfig {
        durability: Durability::None,
        ..cfg
    };
    let rscratch = ScratchPool::new();
    let open = |c: &SeqCtx| Store::recover_with(c, &rscratch, &dir, none, Arc::clone(&env.vfs));
    let probe_keys: Vec<u64> = keys.iter().step_by(KEYS / BATCH).copied().collect();
    let mut rc = Recovery::default();
    let s = sync_loop(
        env,
        &scratch,
        &mut store,
        &mut model,
        &mut rng,
        &keys,
        BATCH,
        &stop,
        &mut |m| {
            rc.recover(&c, env, &rscratch, m, &probe_keys, open)
                .map(drop)
        },
    )?;
    let merge_ratio = expect_ratio(&s, 1, merge_every as u64)?;
    let (bytes_per_epoch, syncs_per_epoch) = s.io_per_epoch(cycle)?;
    drop(store);
    let mut r = start_report(&s);
    if !env.trace {
        push_end_to_end(&mut r, &s, &setups, &rc, bytes_per_epoch / BATCH as f64);
        remove_dir(&dir);
        return Ok(r);
    }

    let spans = env.rec.snapshot();
    span_layers(&spans, &mut r);
    r.push("store.merge_epoch_ratio", merge_ratio, "ratio");
    r.push("vfs.syncs_per_epoch", syncs_per_epoch, "1/epoch");
    r.push("vfs.bytes_per_epoch", bytes_per_epoch, "B/epoch");
    rc.push_layers(&mut r);
    let merge_ms = median(&ms_of(&spans, "store.epoch.merge"));
    let b2 = (cfg.pending_limit + size_class(BATCH)).next_power_of_two();
    let shape = Shape {
        m: (KEYS + b2).next_power_of_two(),
        b2,
        window: size_class(BATCH),
        shards: 1,
    };
    probes::kernels(env.seed, &shape, merge_ms, &mut r);
    r.push(
        "pram.oram_access_us",
        probes::oram_access_us(env.seed),
        "us",
    );
    let pool = Pool::new(env.threads);
    probes::pool_costs(&pool, &mut r);
    // The model epoch and the Definition-1 check run on two stores
    // recovered from the same image: identical public state, so the ORAM
    // epochs differ only in their data.
    let mut model_a = model.clone();
    let mut model_b = model.clone();
    let mut st_a = open(&c).map_err(|e| format!("recover: {e}"))?;
    let mut st_b = open(&c).map_err(|e| format!("recover: {e}"))?;
    let a = mixed_batch(&mut Rng::new(env.seed, 4), &keys, BATCH);
    let b = mixed_batch(&mut Rng::new(env.seed ^ 0x5EED, 4), &keys, BATCH);
    let ra = probes::metered_epoch(&scratch, &mut st_a, &mut model_a, &a)?;
    let rb = probes::metered_epoch(&scratch, &mut st_b, &mut model_b, &b)?;
    probes::push_model(&ra, &rb, BATCH, false, &mut r)?;
    drop(st_b);
    remove_dir(&dir);
    let mut prng = Rng::new(env.seed, 3);
    let over = probes::pool_over_seq(
        &pool,
        &env.rec,
        &scratch,
        &mut st_a,
        &mut model_a,
        || mixed_batch(&mut prng, &keys, BATCH),
        "probe.pool_epoch",
    )?;
    r.push("fj.pool_over_seq", over, "ratio");
    push_no_pipeline(&mut r, s.lat_ms.len(), s.merges);
    push_scratch(&mut r, &s, &scratch);
    r.push("trace.overhead_ratio", overhead(&s), "ratio");
    Ok(r)
}

// ---------------------------------------------------------------------------

/// A client batch waiting for its results.
struct Sent {
    ops: Vec<Op>,
    epoch: u64,
    first: usize,
    sent: Instant,
    traced: bool,
}

/// `pipelined-sharded-16k`: `PipelinedStore<ShardedStore>` with 2 shards
/// of a balanced 8,192-key, shrink-pinned slice each (`route_slack = 0`)
/// on an `fj::Pool` of `available_parallelism` workers; 256-op client
/// batches, an open limit of 1024, a 64-key `read_now` consult every 8th
/// batch and `try_commit` after each batch. The client waits on the
/// previous handle whenever a new one is issued and drains at the end.
/// The only workload that runs the pool, detached tasks, the router and
/// the pipeline.
pub fn pipelined_sharded_16k(env: &Env) -> Result<Report, String> {
    const SHARDS: usize = 2;
    const PER_SHARD: usize = 8192;
    const BATCH: usize = 256;
    const OPEN_LIMIT: usize = 1024;
    const CONSULT_EVERY: usize = 8;
    const CONSULT_KEYS: usize = 64;
    const BLOCK: usize = 16;
    const WINDOW: usize = 64;
    const DRILL_CYCLE: usize = 8;
    let cfg = ShardConfig {
        shards: SHARDS,
        route_slack: 0,
        store: StoreConfig {
            shrink: Some(ShrinkPolicy {
                every: 1,
                live_bound: PER_SHARD,
                snapshot: 0,
            }),
            ..StoreConfig::default()
        },
    };
    let keys = balanced_keys(env.seed, SHARDS, PER_SHARD);
    let ((mut p, pool, scratch, mut back), setups) = setups(|| {
        let batches = load_batches(&mut Rng::new(env.seed, 1), &keys, LOAD_CHUNK);
        let scratch = Arc::new(ScratchPool::new());
        let mut model = Model::default();
        let t0 = Instant::now();
        let pool = Pool::new(env.threads);
        let mut store = ShardedStore::new(cfg);
        let open = t0.elapsed();
        let load = pool.run(|c| timed_load(c, &scratch, &mut store, &mut model, &batches))?;
        if store.capacity() != SHARDS * PER_SHARD {
            return Err(format!("capacity {} is not pinned", store.capacity()));
        }
        let t1 = Instant::now();
        let p =
            PipelinedStore::with_scratch(store, Arc::clone(&scratch)).with_open_limit(OPEN_LIMIT);
        Ok(((p, pool, scratch, model), open + load + t1.elapsed()))
    })?;
    let mut rng = Rng::new(env.seed, 2);
    let dir = fresh_dir(env, "twin");
    let rscratch = ScratchPool::new();
    let open = |c: &Pool, durability| {
        let cfg = ShardConfig {
            store: StoreConfig {
                durability,
                ..cfg.store
            },
            ..cfg
        };
        ShardedStore::recover_with(c, &rscratch, &dir, cfg, Arc::clone(&env.vfs))
    };
    let twin = pool.run(|c| {
        build_twin(
            c,
            env,
            &rscratch,
            &back,
            &mut rng,
            &keys,
            OPEN_LIMIT,
            DRILL_CYCLE,
            |c| open(c, Durability::epoch()),
        )
    })?;
    let disk = &twin.disk;
    let mut rc = Recovery::default();
    let mut front = back.clone();
    let mut s = LoopStats::default();
    let (started0, _) = p.epoch_counts();
    let (f0, l0) = (scratch.fresh_allocs(), scratch.lane_hits());

    // Results of engine epoch `epoch`: check every batch it carried, in
    // submission order, then close the merge in the model. Returns the
    // ops acknowledged.
    let settle = |waiting: &mut VecDeque<Sent>,
                  back: &mut Model,
                  s: &mut LoopStats,
                  epoch: u64,
                  res: Result<Vec<OpResult>, StoreError>,
                  at: Instant|
     -> Result<u64, String> {
        let mut acked = 0;
        match res {
            Ok(res) => {
                while waiting.front().is_some_and(|b| b.epoch == epoch) {
                    let b = waiting.pop_front().expect("checked non-empty");
                    let got = res
                        .get(b.first..b.first + b.ops.len())
                        .ok_or_else(|| format!("epoch {epoch}: {} results", res.len()))?;
                    back.check(&b.ops, got)?;
                    s.lat_ms.push(ms(at - b.sent));
                    s.ops[b.traced as usize] += b.ops.len() as u64;
                    acked += b.ops.len() as u64;
                }
                back.close_merge();
            }
            Err(e) => {
                eprintln!("perfbench: epoch {epoch} rejected: {e}");
                while waiting.front().is_some_and(|b| b.epoch == epoch) {
                    let b = waiting.pop_front().expect("checked non-empty");
                    s.failed += b.ops.len() as u64;
                }
            }
        }
        Ok(acked)
    };

    let store = pool.run(|c| -> Result<ShardedStore, String> {
        let mut waiting: VecDeque<Sent> = VecDeque::new();
        let mut prev: Option<EpochHandle> = None;
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let mut pauses = 0;
        let mut win = (0u64, Duration::ZERO);
        let mut i = 0usize;
        loop {
            let traced = env.trace && (i / BLOCK) % 2 == 1;
            let ops = mixed_batch(&mut rng, &keys, BATCH);
            front.apply(&ops);
            let consult: Option<Vec<u64>> = (i % CONSULT_EVERY == CONSULT_EVERY - 1).then(|| {
                (0..CONSULT_KEYS)
                    .map(|_| keys[rng.below(keys.len())])
                    .collect()
            });
            env.rec.set_batch(i as u64);
            env.rec.set_on(traced);
            let sent = Instant::now();
            let first = env.rec.span("pipeline.submit", || {
                let tickets: Vec<_> = ops.iter().map(|&op| p.submit(op)).collect();
                tickets[0]
            });
            let seen = consult
                .as_ref()
                .map(|k| env.rec.span("pipeline.read_now", || p.read_now(c, k)));
            let (h, idx) = env.rec.span_idx("pipeline.commit", || p.try_commit(c));
            if h.is_some() {
                env.rec.rename(idx, "pipeline.handoff");
            }
            let mut answered = None;
            if let Some(pv) = h.and_then(|h| prev.replace(h)) {
                let res = env.rec.span("pipeline.wait", || p.wait(&pv));
                answered = Some((pv.epoch(), res, Instant::now()));
            }
            let busy = sent.elapsed();
            env.rec.set_on(false);
            s.busy[traced as usize] += busy;
            win.1 += busy;
            s.attempted += ops.len() as u64;
            waiting.push_back(Sent {
                ops,
                epoch: first.epoch,
                first: first.index,
                sent,
                traced,
            });
            if let (Some(k), Some(seen)) = (consult, seen) {
                for (key, got) in k.iter().zip(seen) {
                    if got != front.get(*key) {
                        return Err(format!(
                            "read_now({key}) = {got:?}, model {:?}",
                            front.get(*key)
                        ));
                    }
                }
            }
            if let Some((epoch, res, at)) = answered {
                win.0 += settle(&mut waiting, &mut back, &mut s, epoch, res, at)?;
            }
            i += 1;
            if i.is_multiple_of(WINDOW) {
                s.window_rates
                    .push(ratio(win.0 as f64, win.1.as_secs_f64()));
                win = (0, Duration::ZERO);
            }
            let elapsed = (start.elapsed() - paused).as_secs_f64();
            // Recover only right after a commit, once its merge is joined:
            // nothing is in flight or open, so no batch waits on the pause.
            if h.is_some() && pause_due(pauses, elapsed, env.seconds) {
                if let Some(pv) = prev.take() {
                    let t = Instant::now();
                    let res = p.wait(&pv);
                    let at = Instant::now();
                    s.busy[traced as usize] += at - t;
                    win.1 += at - t;
                    win.0 += settle(&mut waiting, &mut back, &mut s, pv.epoch(), res, at)?;
                }
                let t = Instant::now();
                rc.recover(c, env, &rscratch, &twin.model, &twin.probe, |c| {
                    open(c, Durability::None)
                })?;
                paused += t.elapsed();
                pauses += 1;
            }
            if elapsed >= env.seconds && i >= MIN_BATCHES {
                break;
            }
        }
        // Drain: commit what is open, then redeem every outstanding handle.
        let t0 = Instant::now();
        let last = (p.open_len() > 0).then(|| p.commit_async(c));
        let mut answers = Vec::new();
        for h in prev.into_iter().chain(last) {
            answers.push((h.epoch(), p.wait(&h), Instant::now()));
        }
        s.busy[0] += t0.elapsed();
        for (epoch, res, at) in answers {
            settle(&mut waiting, &mut back, &mut s, epoch, res, at)?;
        }
        if !waiting.is_empty() {
            return Err(format!("{} batches never answered", waiting.len()));
        }
        while pauses < RECOVER_REPS {
            rc.recover(c, env, &rscratch, &twin.model, &twin.probe, |c| {
                open(c, Durability::None)
            })?;
            pauses += 1;
        }
        Ok(p.into_inner(c))
    })?;
    remove_dir(&dir);
    s.epochs = store.epoch_counts().0 - started0;
    s.merges = s.epochs;
    s.fresh_allocs = scratch.fresh_allocs() - f0;
    s.lane_hits = scratch.lane_hits() - l0;
    let mut store = store;
    let fallbacks = store.routing_fallbacks();
    let mut r = start_report(&s);
    if !env.trace {
        push_end_to_end(&mut r, &s, &setups, &rc, disk.bytes_per_op);
        return Ok(r);
    }

    // The merge runs in a detached task the client cannot span, so the
    // store-layer figures come from synchronous epochs of the coalesced
    // shape (OPEN_LIMIT ops) on the same pool.
    let mut prng = Rng::new(env.seed, 3);
    let over = probes::pool_over_seq(
        &pool,
        &env.rec,
        &scratch,
        &mut store,
        &mut back,
        || mixed_batch(&mut prng, &keys, OPEN_LIMIT),
        "store.epoch.merge",
    )?;
    let spans = env.rec.snapshot();
    span_layers(&spans, &mut r);
    r.push("store.merge_epoch_ratio", 1.0, "ratio");
    r.push("vfs.syncs_per_epoch", disk.syncs_per_epoch, "1/epoch");
    r.push("vfs.bytes_per_epoch", disk.bytes_per_epoch, "B/epoch");
    rc.push_layers(&mut r);
    let merge_ms = median(&ms_of(&spans, "store.epoch.merge"));
    let shape = Shape {
        m: (PER_SHARD + OPEN_LIMIT).next_power_of_two(),
        b2: OPEN_LIMIT,
        window: OPEN_LIMIT,
        shards: SHARDS,
    };
    probes::kernels(env.seed, &shape, merge_ms, &mut r);
    r.push(
        "pram.oram_access_us",
        probes::oram_access_us(env.seed),
        "us",
    );
    probes::pool_costs(&pool, &mut r);
    r.push("fj.pool_over_seq", over, "ratio");
    let p50 = |name| median(&ms_of(&spans, name));
    r.push("pipeline.handoff_ms", p50("pipeline.handoff"), "ms");
    r.push("pipeline.wait_ms", p50("pipeline.wait"), "ms");
    r.push("pipeline.read_now_ms", p50("pipeline.read_now"), "ms");
    r.push(
        "pipeline.batches_per_merge",
        ratio(s.lat_ms.len() as f64, s.merges as f64),
        "batches/merge",
    );
    r.push("router.fallbacks", fallbacks as f64, "count");
    push_scratch(&mut r, &s, &scratch);
    let a = mixed_batch(&mut Rng::new(env.seed, 4), &keys, OPEN_LIMIT);
    let b = mixed_batch(&mut Rng::new(env.seed ^ 0x5EED, 4), &keys, OPEN_LIMIT);
    let ra = probes::metered_epoch(&scratch, &mut store, &mut back, &a)?;
    let rb = probes::metered_epoch(&scratch, &mut store, &mut back, &b)?;
    probes::push_model(&ra, &rb, OPEN_LIMIT, true, &mut r)?;
    r.push("trace.overhead_ratio", overhead(&s), "ratio");
    Ok(r)
}
