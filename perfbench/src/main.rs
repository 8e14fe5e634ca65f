//! End-to-end and per-layer benchmark of `dob-store`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <merge-64k|durable-oram-16k|pipelined-sharded-16k|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives the store in a closed loop for `--seconds`
//! (and at least 200 batches), checking every result against a
//! `BTreeMap` oracle outside the timed region. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans around the calls into
//! each layer and reports the per-layer metrics instead. Every metric is
//! printed as `metric <name> <value> <unit>`; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Any oracle mismatch exits with code 1. Scratch files live
//! under `.perfbench/` in the working directory; the traced run leaves
//! its spans there (`spans-<workload>-<seed>.jsonl`). See README.md.

mod common;
mod gen;
mod oracle;
mod probes;
mod spans;
mod stats;
mod vfs;
mod workloads;

use common::{Env, Report};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["merge-64k", "durable-oram-16k", "pipelined-sharded-16k"];
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {val}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_one(args: &Args) -> Result<Report, String> {
    let root = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let env = Env::new(args.seed, args.seconds, args.trace, root.clone());
    let result = match args.workload.as_str() {
        "merge-64k" => workloads::merge_64k(&env),
        "durable-oram-16k" => workloads::durable_oram_16k(&env),
        _ => workloads::pipelined_sharded_16k(&env),
    };
    let _ = std::fs::remove_dir_all(&root);
    if args.trace {
        let spans = env.rec.snapshot();
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        spans::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in spans::summary(&spans) {
            eprintln!("{name:<28} {n:>8} {total:>12.3} {own:>12.3}");
        }
        eprintln!("spans written to {}", path.display());
    }
    result
}

/// `(correct, attempted, failed, metrics as (name, value, unit))`.
type Outcome = (bool, u64, u64, Vec<(String, f64, String)>);

/// `--workload all`: run every workload in a child process of its own
/// (so each reports its own peak memory), one after the other.
fn run_all(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("run {w}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        correct &= out.status.success() && text.contains("\"correct\": true");
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["metric", name, value, unit] => {
                    println!("{w:<24} {name:<32} {value:>16} {unit}");
                    let v = value
                        .parse()
                        .map_err(|_| format!("{w}: bad value {value}"))?;
                    metrics.push((format!("{w}.{name}"), v, unit.to_string()));
                }
                ["attempted", n, "failed", m] => {
                    attempted += n.parse::<u64>().unwrap_or(0);
                    failed += m.parse::<u64>().unwrap_or(0);
                }
                _ => {}
            }
        }
    }
    Ok((correct, attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args).map(|r| {
            let m: Vec<(String, f64, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
                .collect();
            for (n, v, u) in &m {
                println!("metric {n} {v:?} {u}");
            }
            println!("attempted {} failed {}", r.attempted, r.failed);
            (true, r.attempted, r.failed, m)
        })
    };
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", json_line(false, 1, 0, &[]));
            ExitCode::from(1)
        }
    }
}
