//! Command line of the served-KV benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--out-dir DIR] [--host NAME] [--commit ID] [--source-digest HEX]
//! ```
//!
//! Prints a human-readable report, a `record` line describing the run
//! (host, cores, commit, features, device model, seed, sample counts),
//! and as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed correctness check prints the finding to stderr, no metrics,
//! and exits 1; a usage error exits 2.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::harness::CLIENTS;
use perfbench::system::{BATCH, QUEUE_CAPACITY, SHARDS, TABLE_CAP, WORKERS};
use perfbench::{run, workload, Metric, BLOCKS, CUTS, SETUPS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    host: String,
    commit: String,
    source_digest: String,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: None,
        host: "unknown".into(),
        commit: "unknown".into(),
        source_digest: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out-dir" => a.out_dir = Some(PathBuf::from(value)),
            "--host" => a.host = value,
            "--commit" => a.commit = value,
            "--source-digest" => a.source_digest = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(a)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run(w, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(finding) = &outcome.finding {
        eprintln!("perfbench: correctness check FAILED: {finding}");
        return ExitCode::from(1);
    }
    println!(
        "check: {} ops attempted, {} failed; history matches KvSpec via check_kv_sharded_gen \
         (no lost acked write, no duplicate effect)",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        match m.samples {
            Some(n) => println!("  {:<36} {:>14.4} {:<8} n={n}", m.name, m.value, m.unit),
            None => println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let samples: Vec<String> = outcome
        .metrics
        .iter()
        .filter_map(|m: &Metric| m.samples.map(|n| format!("{}:{n}", json_str(m.name))))
        .collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"nproc\":{nproc},\
         \"commit\":{},\"source_digest\":{},\"features\":\"pstack-server/telemetry (workspace \
         default: recorder compiled in)\",\"psan\":false,\"telemetry_session\":false,\
         \"device\":{{\"flush_latency_us\":{},\"shard_regions\":{SHARDS},\"control_regions\":1,\
         \"batch\":{BATCH},\"workers\":{WORKERS},\"clients\":{CLIENTS},\"queue_capacity\":\
         {QUEUE_CAPACITY},\"table_cap\":{TABLE_CAP},\"nbuckets_per_shard\":{},\
         \"log_cap_per_shard\":{},\"key_space\":{},\"mix_put_get_delete_cas\":{:?},\
         \"preload_versions\":{},\"cuts\":\"every {}-{} window rounds, {}-{} events in\"}},\
         \"setups\":{SETUPS},\"blocks\":{BLOCKS},\"quiet_blocks\":{},\"warmup_s\":{},\"samples\":{{{}}}}}",
        json_str(w.name),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&args.host),
        json_str(&args.commit),
        json_str(&args.source_digest),
        w.dev.flush_latency.as_micros(),
        w.dev.nbuckets,
        w.dev.log_cap,
        w.traffic.key_space,
        w.traffic.mix,
        w.preload,
        CUTS.every_rounds.0,
        CUTS.every_rounds.1,
        CUTS.countdown.0,
        CUTS.countdown.1,
        outcome.quiet_blocks.map_or("null".into(), |n| n.to_string()),
        json_num(outcome.warmup.as_secs_f64()),
        samples.join(","),
    );
    println!("record {record}");

    if let Some(dir) = &args.out_dir {
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
            std::fs::write(dir.join(format!("{stem}.record.json")), &record)?;
            match &outcome.tracer {
                Some(t) => t.write_csv(&dir.join(format!("{}-spans.csv", w.name))),
                None => Ok(()),
            }
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
