//! What the three workloads share: the run environment, the closed loop
//! over synchronous stores, the restart drill and metric helpers.

use crate::gen::{mixed_batch, Rng};
use crate::oracle::Model;
use crate::spans::{self, Recorder, Span};
use crate::stats::{beyond, median, percentile, ratio};
use crate::vfs::{IoCounters, MeteredVfs};
use fj::{Ctx, SeqCtx};
use metrics::ScratchPool;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::vfs::Vfs;
use store::{EpochPath, EpochTarget, Op, OpResult, ShardedStore, Store, StoreError, StoreStats};

/// Batches a run measures at least, so that ten samples lie beyond p95.
pub const MIN_BATCHES: usize = 200;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Recoveries per run; `recovery_s` is their median.
pub const RECOVER_REPS: usize = 9;
/// Ops per bulk-load epoch.
pub const LOAD_CHUNK: usize = 4096;

pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rec: Arc<Recorder>,
    pub io: Arc<IoCounters>,
    pub vfs: Arc<dyn Vfs>,
    /// Scratch directory of this run, inside the checkout.
    pub root: PathBuf,
    pub threads: usize,
}

impl Env {
    pub fn new(seed: u64, seconds: f64, trace: bool, root: PathBuf) -> Self {
        let rec = Arc::new(Recorder::new());
        let io = Arc::new(IoCounters::default());
        let vfs: Arc<dyn Vfs> = Arc::new(MeteredVfs::new(Arc::clone(&rec), Arc::clone(&io)));
        Env {
            seed,
            seconds,
            trace,
            rec,
            io,
            vfs,
            root,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The two front ends the synchronous loop and the restart drill use.
pub trait Front: EpochTarget {
    fn checkpoint(&mut self) -> Result<(), StoreError>;
    fn stats(&self) -> StoreStats;
    fn last_path(&self) -> Option<EpochPath>;
    fn epoch_counts(&self) -> (u64, u64);
}

impl Front for Store {
    fn checkpoint(&mut self) -> Result<(), StoreError> {
        Store::checkpoint(self)
    }
    fn stats(&self) -> StoreStats {
        Store::stats(self)
    }
    fn last_path(&self) -> Option<EpochPath> {
        Store::last_path(self)
    }
    fn epoch_counts(&self) -> (u64, u64) {
        Store::epoch_counts(self)
    }
}

impl Front for ShardedStore {
    fn checkpoint(&mut self) -> Result<(), StoreError> {
        ShardedStore::checkpoint(self)
    }
    fn stats(&self) -> StoreStats {
        ShardedStore::stats(self)
    }
    fn last_path(&self) -> Option<EpochPath> {
        ShardedStore::last_path(self)
    }
    fn epoch_counts(&self) -> (u64, u64) {
        ShardedStore::epoch_counts(self)
    }
}

fn fail(what: &str, e: StoreError) -> String {
    format!("{what}: {e}")
}

/// Run one epoch and check its results against `model` (outside any
/// timing). Returns the epoch's wall time.
pub fn checked_epoch<C: Ctx, T: Front>(
    c: &C,
    scratch: &ScratchPool,
    store: &mut T,
    model: &mut Model,
    ops: &[Op],
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let res = store.run_epoch(c, scratch, ops);
    let dt = t0.elapsed();
    let res = res.map_err(|e| fail("epoch", e))?;
    model.check(ops, &res)?;
    if store.last_path() == Some(EpochPath::Merge) {
        model.close_merge();
    }
    Ok(dt)
}

/// Run `one` [`SETUP_REPS`] times, dropping each set-up before the next
/// starts; keep the last and return every set-up time in seconds.
pub fn setups<T>(
    mut one: impl FnMut() -> Result<(T, Duration), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (t, d) = one()?;
        times.push(d.as_secs_f64());
        kept = Some(t);
    }
    Ok((kept.expect("SETUP_REPS >= 1"), times))
}

/// Load a fresh store with `model`'s entries (the restart drill's twin).
pub fn load_entries<C: Ctx, T: Front>(
    c: &C,
    scratch: &ScratchPool,
    store: &mut T,
    model: &mut Model,
    entries: &[(u64, u64)],
) -> Result<(), String> {
    for chunk in entries.chunks(LOAD_CHUNK) {
        let ops: Vec<Op> = chunk
            .iter()
            .map(|&(key, val)| Op::Put { key, val })
            .collect();
        checked_epoch(c, scratch, store, model, &ops)?;
    }
    Ok(())
}

/// What the closed loop over a synchronous store measured.
#[derive(Default)]
pub struct LoopStats {
    /// Client-batch latencies, ms.
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged ops and time inside store calls, untraced and traced
    /// blocks separately.
    pub ops: [u64; 2],
    pub busy: [Duration; 2],
    /// Per epoch: bytes written and syncs issued through the `Vfs`.
    pub bytes: Vec<u64>,
    pub syncs: Vec<u64>,
    /// Epochs and merges the store ran during the loop.
    pub epochs: u64,
    pub merges: u64,
    /// Scratch-pool counter deltas over the loop.
    pub fresh_allocs: u64,
    pub lane_hits: u64,
    /// Acknowledged ops ÷ time inside store calls, per window of batches.
    pub window_rates: Vec<f64>,
}

impl LoopStats {
    pub fn ops_per_s(&self, traced: bool) -> f64 {
        let k = traced as usize;
        ratio(self.ops[k] as f64, self.busy[k].as_secs_f64())
    }

    pub fn push_end_to_end(&self, r: &mut Report) {
        r.push("ops_per_s", median(&self.window_rates), "1/s");
        r.push("batch_p50_ms", median(&self.lat_ms), "ms");
        r.push(
            "batch_p95_ms",
            percentile(&self.lat_ms, 95.0).unwrap_or(0.0),
            "ms",
        );
        eprintln!(
            "batches: {} ({} beyond p95)",
            self.lat_ms.len(),
            beyond(&self.lat_ms, 95.0)
        );
    }

    /// Bytes and syncs per epoch over the loop's whole checkpoint cycles,
    /// so the figures repeat exactly. Log records have a size fixed by
    /// the batch class and checkpoints a public cadence, so every epoch
    /// must write what the epoch one cycle earlier wrote; a difference
    /// is an error.
    pub fn io_per_epoch(&self, cycle: usize) -> Result<(f64, f64), String> {
        for i in cycle..self.bytes.len() {
            let (now, then) = (
                (self.bytes[i], self.syncs[i]),
                (self.bytes[i - cycle], self.syncs[i - cycle]),
            );
            if now != then {
                return Err(format!(
                    "epoch {i} wrote (bytes, syncs) {now:?}, one cycle earlier {then:?}"
                ));
            }
        }
        let n = (self.bytes.len() / cycle) * cycle;
        let n = if n == 0 { self.bytes.len() } else { n };
        let b: u64 = self.bytes[..n].iter().sum();
        let s: u64 = self.syncs[..n].iter().sum();
        Ok((ratio(b as f64, n as f64), ratio(s as f64, n as f64)))
    }
}

/// Where a closed loop may stop, and pause for a recovery, once its time
/// is up.
pub struct StopRule {
    /// Alternate untraced and traced blocks of this many batches
    /// (`--trace 1` only).
    pub block: usize,
    /// Stop or pause only when `batches % cycle == phase`, so that the
    /// state the loop leaves behind has the same public shape every time.
    pub cycle: usize,
    pub phase: usize,
    /// Batches per throughput window; `ops_per_s` is the median window.
    pub window: usize,
}

/// A recovery taken during the loop; it sees the loop's oracle.
pub type Pause<'a> = dyn FnMut(&Model) -> Result<(), String> + 'a;

/// Whether the next of [`RECOVER_REPS`] recoveries is due after
/// `elapsed` seconds of loop time: they are spread evenly over the run,
/// so their median samples the host at several points in time.
pub fn pause_due(done: usize, elapsed: f64, seconds: f64) -> bool {
    done < RECOVER_REPS && elapsed >= (done as f64 + 0.5) * seconds / RECOVER_REPS as f64
}

/// The closed loop over a synchronous store: one client thread sends a
/// batch, waits for its results, checks them, and sends the next. Loop
/// time excludes the recoveries `pause` takes.
#[allow(clippy::too_many_arguments)]
pub fn sync_loop<T: Front>(
    env: &Env,
    scratch: &ScratchPool,
    store: &mut T,
    model: &mut Model,
    rng: &mut Rng,
    keys: &[u64],
    batch: usize,
    stop: &StopRule,
    pause: &mut Pause,
) -> Result<LoopStats, String> {
    let c = SeqCtx::new();
    let mut s = LoopStats::default();
    let (e0, m0) = store.epoch_counts();
    let (f0, l0) = (scratch.fresh_allocs(), scratch.lane_hits());
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut pauses = 0;
    let mut win = (0u64, Duration::ZERO);
    let mut i = 0usize;
    loop {
        let traced = env.trace && (i / stop.block) % 2 == 1;
        let ops = mixed_batch(rng, keys, batch);
        let (w0, y0) = (env.io.written(), env.io.syncs());
        env.rec.set_batch(i as u64);
        env.rec.set_on(traced);
        let t0 = Instant::now();
        let (res, idx) = env
            .rec
            .span_idx("store.epoch", || store.run_epoch(&c, scratch, &ops));
        let dt = t0.elapsed();
        env.rec.set_on(false);
        let merged = store.last_path() == Some(EpochPath::Merge);
        env.rec.rename(
            idx,
            if merged {
                "store.epoch.merge"
            } else {
                "store.epoch.oram"
            },
        );
        s.attempted += ops.len() as u64;
        match res {
            Ok(res) => {
                model.check(&ops, &res)?;
                if merged {
                    model.close_merge();
                }
                s.lat_ms.push(ms(dt));
                s.ops[traced as usize] += ops.len() as u64;
                s.busy[traced as usize] += dt;
                s.bytes.push(env.io.written() - w0);
                s.syncs.push(env.io.syncs() - y0);
                win = (win.0 + ops.len() as u64, win.1 + dt);
            }
            Err(e) => {
                eprintln!("perfbench: epoch {i} rejected: {e}");
                s.failed += ops.len() as u64;
                break;
            }
        }
        i += 1;
        if i.is_multiple_of(stop.window) {
            s.window_rates
                .push(ratio(win.0 as f64, win.1.as_secs_f64()));
            win = (0, Duration::ZERO);
        }
        let at_phase = i % stop.cycle == stop.phase;
        let elapsed = (start.elapsed() - paused).as_secs_f64();
        if at_phase && pause_due(pauses, elapsed, env.seconds) {
            let t = Instant::now();
            pause(model)?;
            paused += t.elapsed();
            pauses += 1;
        }
        if elapsed >= env.seconds && i >= MIN_BATCHES && at_phase {
            break;
        }
    }
    while pauses < RECOVER_REPS {
        pause(model)?;
        pauses += 1;
    }
    let (e1, m1) = store.epoch_counts();
    s.epochs = e1 - e0;
    s.merges = m1 - m0;
    s.fresh_allocs = scratch.fresh_allocs() - f0;
    s.lane_hits = scratch.lane_hits() - l0;
    Ok(s)
}

/// Timings of the recoveries of one run.
#[derive(Default)]
pub struct Recovery {
    pub total_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
}

impl Recovery {
    /// Recover once through `open` (a non-durable open, which leaves the
    /// directory untouched), timing it and the `Vfs::read` calls inside
    /// it, and check the recovered store against `model`: its analytics
    /// snapshot, then one `Get` per key of `probe_keys` in one epoch.
    pub fn recover<C: Ctx, T: Front>(
        &mut self,
        c: &C,
        env: &Env,
        scratch: &ScratchPool,
        model: &Model,
        probe_keys: &[u64],
        open: impl FnOnce(&C) -> Result<T, StoreError>,
    ) -> Result<T, String> {
        let was_on = env.rec.is_on();
        env.rec.set_on(true);
        let first = env.rec.snapshot().len();
        let t0 = Instant::now();
        let st = env.rec.span("recovery", || open(c));
        let dt = t0.elapsed();
        env.rec.set_on(was_on);
        let read: f64 = env.rec.snapshot()[first..]
            .iter()
            .filter(|s| s.name == "vfs.read")
            .map(Span::ms)
            .sum();
        self.total_ms.push(ms(dt));
        self.read_ms.push(read);
        let mut st = st.map_err(|e| fail("recover", e))?;
        model.check_snapshot(st.stats(), "recovered store")?;
        let ops: Vec<Op> = probe_keys.iter().map(|&key| Op::Get { key }).collect();
        let res = st
            .run_epoch(c, scratch, &ops)
            .map_err(|e| fail("read after recovery", e))?;
        for (k, r) in probe_keys.iter().zip(&res) {
            let want = OpResult::Value(model.get(*k));
            if *r != want {
                return Err(format!(
                    "key {k} after recovery: store {r:?}, model {want:?}"
                ));
            }
        }
        Ok(st)
    }

    pub fn push_layers(&self, r: &mut Report) {
        let replay: Vec<f64> = self
            .total_ms
            .iter()
            .zip(&self.read_ms)
            .map(|(t, rd)| t - rd)
            .collect();
        r.push("recovery.read_ms", median(&self.read_ms), "ms");
        r.push("recovery.replay_ms", median(&replay), "ms");
    }
}

/// I/O figures of one durable phase.
pub struct DiskUse {
    pub bytes_per_op: f64,
    pub bytes_per_epoch: f64,
    pub syncs_per_epoch: f64,
}

/// The crash image an in-memory workload's restart drill recovers.
pub struct Twin {
    pub disk: DiskUse,
    /// The oracle of the image's contents.
    pub model: Model,
    pub probe: Vec<u64>,
}

/// Build the restart drill's crash image: a durable twin of the
/// workload's store is loaded with the model's entries through the
/// benchmark's `Vfs`, runs `cycle` logged epochs of the workload's batch
/// shape and a checkpoint (the measured I/O cycle), logs `cycle / 2` more
/// epochs and is dropped. The image — a snapshot plus a half-cycle log,
/// the shape the durable workload leaves — is recovered during the loop.
#[allow(clippy::too_many_arguments)]
pub fn build_twin<C: Ctx, T: Front>(
    c: &C,
    env: &Env,
    scratch: &ScratchPool,
    model: &Model,
    rng: &mut Rng,
    keys: &[u64],
    batch: usize,
    cycle: usize,
    open: impl FnOnce(&C) -> Result<T, StoreError>,
) -> Result<Twin, String> {
    let mut twin_model = Model::default();
    let mut twin = open(c).map_err(|e| fail("open twin", e))?;
    load_entries(c, scratch, &mut twin, &mut twin_model, &model.entries())?;
    twin.checkpoint().map_err(|e| fail("twin checkpoint", e))?;
    let (w0, y0) = (env.io.written(), env.io.syncs());
    env.rec.set_on(env.trace);
    let mut per_epoch = Vec::new();
    for _ in 0..cycle {
        let ops = mixed_batch(rng, keys, batch);
        let w = env.io.written();
        env.rec.span("store.drill_epoch", || {
            checked_epoch(c, scratch, &mut twin, &mut twin_model, &ops)
        })?;
        per_epoch.push(env.io.written() - w);
    }
    // Same batch class, same log record: the bytes cannot depend on data.
    if per_epoch.iter().any(|&b| b != per_epoch[0]) {
        return Err(format!(
            "epochs of one batch class wrote {per_epoch:?} bytes"
        ));
    }
    env.rec
        .span("store.checkpoint", || twin.checkpoint())
        .map_err(|e| fail("twin checkpoint", e))?;
    env.rec.set_on(false);
    let (w1, y1) = (env.io.written(), env.io.syncs());
    for _ in 0..cycle / 2 {
        let ops = mixed_batch(rng, keys, batch);
        checked_epoch(c, scratch, &mut twin, &mut twin_model, &ops)?;
    }
    let probe = keys
        .iter()
        .step_by(keys.len() / batch)
        .copied()
        .take(batch)
        .collect();
    Ok(Twin {
        disk: DiskUse {
            bytes_per_op: ratio((w1 - w0) as f64, (cycle * batch) as f64),
            bytes_per_epoch: ratio((w1 - w0) as f64, cycle as f64),
            syncs_per_epoch: ratio((y1 - y0) as f64, cycle as f64),
        },
        model: twin_model,
        probe,
    })
}

/// Per-layer figures read off the spans of the traced blocks.
pub fn span_layers(spans: &[Span], r: &mut Report) {
    let selfs = spans::self_times(spans);
    let of = |name| spans::ms_of(spans, name);
    let merge = of("store.epoch.merge");
    let oram = of("store.epoch.oram");
    let epoch_self: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name.starts_with("store.epoch."))
        .map(|(_, &own)| own as f64 / 1e6)
        .collect();
    r.push("store.merge_epoch_ms", median(&merge), "ms");
    r.push("store.oram_epoch_ms", median(&oram), "ms");
    r.push("store.epoch_self_ms", median(&epoch_self), "ms");
    let us = |xs: Vec<f64>| median(&xs) * 1e3;
    r.push("vfs.append_us", us(of("vfs.append")), "us");
    r.push("vfs.sync_us", us(of("vfs.sync")), "us");
    // One checkpoint = every `vfs.ckpt.*` call under one parent span.
    let mut ckpt: std::collections::BTreeMap<usize, f64> = Default::default();
    for s in spans.iter().filter(|s| s.name.starts_with("vfs.ckpt.")) {
        *ckpt.entry(s.parent).or_default() += s.ms();
    }
    let ckpt: Vec<f64> = ckpt.into_values().collect();
    r.push("vfs.checkpoint_ms", median(&ckpt), "ms");
}

/// Directory of one durable store of this run, emptied first.
pub fn fresh_dir(env: &Env, name: &str) -> PathBuf {
    let d = env.root.join(name);
    remove_dir(&d);
    d
}

pub fn remove_dir(d: &Path) {
    let _ = std::fs::remove_dir_all(d);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_per_epoch_counts_whole_cycles_only() {
        let s = LoopStats {
            bytes: vec![10, 10, 100, 10, 10, 100, 10],
            syncs: vec![1, 1, 2, 1, 1, 2, 1],
            ..LoopStats::default()
        };
        // Two whole 3-epoch cycles; the trailing partial cycle is ignored.
        assert_eq!(s.io_per_epoch(3), Ok((40.0, 4.0 / 3.0)));
        // An epoch that writes other than its phase of the cycle is an error.
        let mut odd = s;
        odd.bytes[4] = 11;
        assert!(odd.io_per_epoch(3).is_err());
    }

    #[test]
    fn recoveries_are_spread_over_the_run() {
        let due: Vec<f64> = (0..RECOVER_REPS)
            .map(|k| {
                (0..=300)
                    .map(|t| t as f64 / 10.0)
                    .find(|&t| pause_due(k, t, 30.0))
                    .unwrap()
            })
            .collect();
        assert_eq!(due.len(), RECOVER_REPS);
        assert!(due.windows(2).all(|w| w[1] - w[0] > 3.0));
        assert!(due[0] > 0.0 && due[RECOVER_REPS - 1] < 30.0);
        assert!(!pause_due(RECOVER_REPS, 1e9, 30.0));
    }
}
