//! Served-KV benchmark: drives the exactly-once KV server (`pstack-server`
//! over `pstack-kv`, `pstack-core`'s `StripedRuntime` and `pstack-nvram`
//! regions) through three workloads, checks every answer against the
//! sequential KV spec, and reports end-to-end metrics (untraced run) or
//! per-layer metrics (traced run).
//!
//! Every layer is measured from outside: the harness times its own calls
//! into each layer's public functions ([`trace`]) and takes NVRAM stats
//! snapshots around them. Nothing is traced inside the program.

pub mod harness;
pub mod system;
pub mod trace;

use std::time::{Duration, Instant};

use pstack_core::PError;
use pstack_kv::shard_of;
use pstack_nvram::StatsSnapshot;
use pstack_verify::{
    check_kv_sharded_gen, KvOp, KvOpKind, KvShardedHistory, KvVerdict, KvWitnessRecord,
};

use harness::{CrashPlan, Harness, Phase, Stop, Traffic};
use system::{DeviceModel, BATCH, SHARDS};
use trace::{self_times, Call};

/// How many times a run sets the system up; `setup_s` is the median.
pub const SETUPS: usize = 5;
/// Power cuts per block of an untraced run (1,000 in all).
pub const CUTS_PER_BLOCK: usize = 100;
/// Blocks an untraced run serves in; each serving metric is the median
/// of the blocks' values.
pub const BLOCKS: usize = 10;
/// Power cuts measured per traced run (for the recovery step split).
const TRACED_RECOVERY_SAMPLES: usize = 40;
/// A block whose host lost more than this share of its CPU time to
/// other guests (hypervisor steal) measured the neighbours, not the
/// program; such blocks are left out while at least half remain.
pub const STEAL_QUIET: f64 = 0.02;
/// Longest wait, serving warm-up probes, for a host that does not steal
/// CPU before a run measures.
const MAX_QUIET_WAIT: Duration = Duration::from_secs(60);
/// One warm-up probe.
const PROBE_SECONDS: f64 = 1.0;
/// Longest traced serving phase: spans are kept in memory and written
/// out, so their number is bounded.
const MAX_TRACED_SECONDS: f64 = 2.0;
/// Cut placement: every 2–6 rounds that run windows, 1–6 shard-region
/// events into a window.
pub const CUTS: CrashPlan = CrashPlan {
    every_rounds: (2, 6),
    countdown: (1, 6),
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Device model and store shape.
    pub dev: DeviceModel,
    /// Client traffic.
    pub traffic: Traffic,
    /// Put versions loaded through `ShardedKvStore::batch` at setup.
    pub preload: usize,
    /// `true`: power is cut while serving, and the serving figures
    /// include the cuts. `false`: the serving phase runs undisturbed and
    /// a tail of cuts under the same traffic follows it.
    pub cuts_while_serving: bool,
}

/// The workloads the benchmark can run (`BENCHMARK.json` names the
/// ones its bounds gate; see the README).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mixed_slow_persist",
        dev: DeviceModel {
            flush_latency: Duration::from_micros(50),
            nbuckets: 1024,
            log_cap: 1 << 16,
        },
        traffic: Traffic {
            key_space: 4096,
            mix: [4, 3, 2, 1],
        },
        preload: 0,
        cuts_while_serving: false,
    },
    Workload {
        name: "read_heavy_fast_persist",
        dev: DeviceModel {
            flush_latency: Duration::ZERO,
            nbuckets: 2048,
            log_cap: 1 << 17,
        },
        traffic: Traffic {
            key_space: 65_536,
            mix: [5, 95, 0, 0],
        },
        preload: 320_000,
        cuts_while_serving: false,
    },
    Workload {
        name: "crash_recovery",
        dev: DeviceModel {
            flush_latency: Duration::from_micros(50),
            nbuckets: 1024,
            log_cap: 1 << 16,
        },
        traffic: Traffic {
            key_space: 4096,
            mix: [4, 3, 2, 1],
        },
        preload: 120_000,
        cuts_while_serving: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a percentile, where the metric is one.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer matched the spec and no acked write was lost or
    /// applied twice.
    pub correct: bool,
    /// Why the check failed, when it did.
    pub finding: Option<String>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not complete exactly once with a real answer.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Spans of the traced run.
    pub tracer: Option<trace::Tracer>,
    /// Blocks the end-to-end metrics used (untraced).
    pub quiet_blocks: Option<usize>,
    /// Warm-up serving before the measurement, waiting for a quiet host.
    pub warmup: Duration,
}

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
fn percentile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Builds the workload's system [`SETUPS`] times and keeps the last;
/// returns it with the preload history and each setup's wall time.
///
/// # Errors
///
/// Propagated setup errors.
pub fn set_up(w: &Workload, seed: u64) -> Result<(Harness, Vec<KvOp>, Vec<f64>), PError> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let b = system::build(&w.dev, w.traffic.key_space, w.preload, seed)?;
        times.push(t.elapsed().as_secs_f64());
        built = Some(b);
    }
    let (sys, preload) = built.expect("at least one setup");
    Ok((Harness::new(sys, w.traffic, seed), preload, times))
}

/// Runs one workload, serving for `seconds`, then checks the whole
/// history. Untraced, serving runs in [`BLOCKS`] blocks; a workload that
/// serves undisturbed alternates them with blocks of power cuts under
/// the same traffic. Traced, only the last [`MAX_TRACED_SECONDS`] of
/// serving are traced, and cuts follow them.
///
/// # Errors
///
/// Propagated setup or serving errors (power cuts are the experiment,
/// not errors).
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, PError> {
    let (mut d, preload, setup) = set_up(w, seed)?;
    let cuts = w.cuts_while_serving.then_some(CUTS);
    let serve = |d: &mut Harness, ph: &mut Phase, secs: f64, cycles: usize| {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let stop = Stop {
            deadline: Some(deadline),
            ops: None,
            cycles,
        };
        d.run_phase(ph, stop, cuts)
    };
    let cut_tail = |d: &mut Harness, ph: &mut Phase, cycles: usize| {
        let stop = Stop {
            cycles,
            ..Stop::default()
        };
        d.run_phase(ph, stop, Some(CUTS))
    };
    // Every phase run, for the totals the correctness gate checks.
    let mut phases = Vec::new();
    let mut quiet = None;
    // Warm up, and wait out a burst of hypervisor steal: serving through
    // it measures the host's other guests, not the program.
    let waited = Instant::now();
    loop {
        let mut probe = Phase::default();
        serve(&mut d, &mut probe, PROBE_SECONDS, 0)?;
        let noisy = probe.steal_frac().is_some_and(|f| f > STEAL_QUIET);
        phases.push(probe);
        if !noisy || waited.elapsed() >= MAX_QUIET_WAIT {
            break;
        }
    }
    let warmup = waited.elapsed();
    let metrics = if traced {
        // `plain`: untraced serving; `timed`: the traced serving the
        // metrics describe; `tail`: the cuts after undisturbed serving.
        let (mut plain, mut timed, mut tail) =
            (Phase::default(), Phase::default(), Phase::default());
        let traced_secs = (seconds / 2.0).min(MAX_TRACED_SECONDS);
        serve(&mut d, &mut plain, seconds - traced_secs, 0)?;
        d.tracer.set_on(true);
        let first_span = d.tracer.spans().len();
        let cycles = if cuts.is_some() {
            TRACED_RECOVERY_SAMPLES
        } else {
            0
        };
        serve(&mut d, &mut timed, traced_secs, cycles)?;
        let timed_spans = first_span..d.tracer.spans().len();
        if !w.cuts_while_serving {
            cut_tail(&mut d, &mut tail, TRACED_RECOVERY_SAMPLES)?;
        }
        let recovered = if w.cuts_while_serving { &timed } else { &tail };
        let m = per_layer(&timed, &plain, recovered, &d.tracer.spans()[timed_spans]);
        phases.extend([plain, timed, tail]);
        m
    } else {
        // Serving runs in blocks (alternating with blocks of cuts when
        // it runs undisturbed) and each serving metric is the median of
        // its per-block values, so a burst of host noise moves a few
        // blocks rather than the result.
        let (mut blocks, mut tails) = (Vec::new(), Vec::new());
        for _ in 0..BLOCKS {
            let (mut block, mut tail) = (Phase::default(), Phase::default());
            let secs = seconds / BLOCKS as f64;
            if w.cuts_while_serving {
                serve(&mut d, &mut block, secs, CUTS_PER_BLOCK)?;
            } else {
                serve(&mut d, &mut block, secs, 0)?;
                cut_tail(&mut d, &mut tail, CUTS_PER_BLOCK)?;
            }
            blocks.push(block);
            tails.push(tail);
        }
        // A block of cuts lasts too few CPU ticks to judge on its own;
        // the serving block just before it stands for it.
        let used = quiet_blocks(&blocks);
        let serving: Vec<&Phase> = used.iter().map(|&i| &blocks[i]).collect();
        let cut_source = if w.cuts_while_serving {
            &blocks
        } else {
            &tails
        };
        let cutting: Vec<&Phase> = used.iter().map(|&i| &cut_source[i]).collect();
        quiet = Some(used.len());
        let m = end_to_end(&serving, &cutting, &setup);
        phases.extend(blocks);
        phases.extend(tails);
        m
    };

    let attempted: u64 = phases.iter().map(|p| p.started).sum();
    let completed: u64 = phases.iter().map(|p| p.completed).sum();
    let log_full: u64 = phases.iter().map(|p| p.log_full).sum();
    let stale: u64 = phases.iter().map(|p| p.clients.stale_signals).sum();
    let finding = check(&d, preload)?
        .or_else(|| (stale > 0).then(|| format!("{stale} requests refused as Stale")))
        .or_else(|| (log_full > 0).then(|| format!("{log_full} puts found the version log full")))
        .or_else(|| {
            (completed != attempted)
                .then(|| format!("{attempted} ops started but {completed} acked"))
        });
    Ok(Outcome {
        correct: finding.is_none(),
        finding,
        attempted,
        failed: attempted.saturating_sub(completed) + log_full,
        metrics,
        tracer: traced.then_some(d.tracer),
        quiet_blocks: quiet,
        warmup,
    })
}

/// The correctness gate: the preload plus every client-observed
/// operation against the store's published chains, through
/// `check_kv_sharded_gen` — answers must follow `KvSpec`, no acked
/// mutation may be missing (lost write) and no tag may be applied twice
/// (duplicate effect). Returns the violation, if any.
///
/// # Errors
///
/// Propagated errors reading the store.
pub fn check(d: &Harness, mut ops: Vec<KvOp>) -> Result<Option<String>, PError> {
    ops.extend(d.observations().cloned());
    let store = d.sys.store();
    let shards = store
        .snapshot_sharded()?
        .into_iter()
        .map(|chains| {
            chains
                .into_iter()
                .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                .collect()
        })
        .collect();
    let history = KvShardedHistory { ops, shards };
    let verdict = check_kv_sharded_gen(&history, |k| shard_of(k, SHARDS), &store.generations()?);
    Ok(match verdict {
        KvVerdict::Linearizable => None,
        v => Some(format!("{v:?}")),
    })
}

/// Indices of the blocks whose host kept its CPU ([`STEAL_QUIET`]), or
/// of all blocks when fewer than half did.
fn quiet_blocks(blocks: &[Phase]) -> Vec<usize> {
    let quiet: Vec<usize> = (0..blocks.len())
        .filter(|&i| blocks[i].steal_frac().map_or(true, |f| f <= STEAL_QUIET))
        .collect();
    if 2 * quiet.len() >= blocks.len() {
        quiet
    } else {
        (0..blocks.len()).collect()
    }
}

/// End-to-end metrics over the quiet blocks. Serving figures are the
/// median of their per-block values, so a burst of host noise moves a
/// few blocks rather than the result. Recovery percentiles pool the
/// cuts: recovery time mixes replay kinds (no frame, a get window, a
/// mutation window) whose shares put the median near a boundary, which
/// a block of 100 cuts cannot place steadily.
fn end_to_end(blocks: &[&Phase], cut_blocks: &[&Phase], setup: &[f64]) -> Vec<Metric> {
    let over_blocks =
        |f: &dyn Fn(&Phase) -> f64| median(&blocks.iter().map(|p| f(p)).collect::<Vec<_>>());
    let mut out = vec![metric(
        "throughput_ops_s",
        over_blocks(&|p| ratio(p.completed as f64, p.wall.as_secs_f64())),
        "ops/s",
    )];
    for (kind, p50, p90) in [
        (KvOpKind::Put, "put_p50_us", "put_p90_us"),
        (KvOpKind::Get, "get_p50_us", "get_p90_us"),
    ] {
        let i = harness::class_index(kind);
        let samples = blocks.iter().map(|p| p.latency[i].len()).sum();
        for (name, q) in [(p50, 0.5), (p90, 0.9)] {
            out.push(Metric {
                samples: Some(samples),
                ..metric(
                    name,
                    over_blocks(&|p| percentile(&p.latency[i], q)) / 1e3,
                    "us",
                )
            });
        }
    }
    let cut_ns: Vec<u64> = cut_blocks
        .iter()
        .flat_map(|p| &p.recoveries)
        .map(|r| r.total.as_nanos() as u64)
        .collect();
    for (name, q) in [("recovery_p50_ms", 0.5), ("recovery_p90_ms", 0.9)] {
        out.push(Metric {
            samples: Some(cut_ns.len()),
            ..metric(name, percentile(&cut_ns, q) / 1e6, "ms")
        });
    }
    out.push(Metric {
        samples: Some(setup.len()),
        ..metric("setup_s", median(setup), "s")
    });
    out
}

/// The persist-economy counts of a phase that repeat exactly for a
/// seed and an operation count (`Stop::ops`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactCounts {
    /// `nvram.persists_per_op`.
    pub persists_per_op: f64,
    /// `nvram.lines_per_op`.
    pub lines_per_op: f64,
    /// `runtime.ops_per_window`.
    pub ops_per_window: f64,
}

impl ExactCounts {
    /// The counts of one phase.
    pub fn of(p: &Phase) -> Self {
        let ops = p.completed as f64;
        ExactCounts {
            persists_per_op: ratio(p.nvram.persists as f64, ops),
            lines_per_op: ratio(p.nvram.lines_persisted as f64, ops),
            ops_per_window: ratio(p.window_ops as f64, p.windows as f64),
        }
    }
}

fn per_op(total_ns: u64, ops: u64) -> f64 {
    ratio(total_ns as f64 / 1e3, ops as f64)
}

fn per_layer(timed: &Phase, plain: &Phase, cuts: &Phase, spans: &[trace::Span]) -> Vec<Metric> {
    let ops = timed.completed;
    let st = self_times(spans);
    let t = |c: Call| st[c as usize];
    let n: &StatsSnapshot = &timed.nvram;
    let ms = |f: &dyn Fn(&harness::Recovery) -> Duration| {
        let v: Vec<f64> = cuts
            .recoveries
            .iter()
            .map(|r| f(r).as_secs_f64() * 1e3)
            .collect();
        median(&v)
    };
    let cycles = cuts.recoveries.len() as f64;
    let covered: u64 = Call::ALL
        .iter()
        .filter(|&&c| c != Call::Round)
        .map(|&c| t(c))
        .sum();
    let wall_ns = timed.wall.as_nanos() as f64;
    let per_op_wall = |p: &Phase| ratio(p.wall.as_secs_f64(), p.completed as f64);
    let exact = ExactCounts::of(timed);
    let failures = timed.clients.overloads
        + timed.clients.stale_signals
        + timed.clients.retry_signals
        + timed.clients.retransmits
        + timed.task_errors;
    vec![
        metric(
            "server.submit_us_per_op",
            per_op(t(Call::Submit), ops),
            "us",
        ),
        metric(
            "server.submit_persists_per_call",
            ratio(
                timed.submit_persists.0 as f64,
                timed.submit_persists.1 as f64,
            ),
            "count",
        ),
        metric("server.ack_us_per_op", per_op(t(Call::Ack), ops), "us"),
        metric(
            "server.ack_persists_per_call",
            ratio(timed.ack_persists.0 as f64, timed.ack_persists.1 as f64),
            "count",
        ),
        Metric {
            samples: Some(timed.queue_wait.len()),
            ..metric(
                "server.queue_wait_us_p50",
                percentile(&timed.queue_wait, 0.5) / 1e3,
                "us",
            )
        },
        Metric {
            samples: Some(timed.queue_wait.len()),
            ..metric(
                "server.queue_wait_us_p99",
                percentile(&timed.queue_wait, 0.99) / 1e3,
                "us",
            )
        },
        metric(
            "server.dedup_answered",
            timed.dedup_answered as f64,
            "count",
        ),
        metric("server.shed", timed.shed as f64, "count"),
        metric("server.stale", timed.stale as f64, "count"),
        metric(
            "server.answers_us_per_op",
            per_op(t(Call::Answers), ops),
            "us",
        ),
        metric(
            "transport.us_per_op",
            per_op(
                t(Call::Send) + t(Call::PollRequest) + t(Call::Respond) + t(Call::Recv),
                ops,
            ),
            "us",
        ),
        metric(
            "client.us_per_op",
            per_op(t(Call::ClientPoll) + t(Call::ClientDeliver), ops),
            "us",
        ),
        metric(
            "client.failed_frac",
            ratio(failures as f64, timed.started as f64),
            "fraction",
        ),
        Metric {
            samples: Some(timed.rounds.len()),
            ..metric(
                "runtime.round_us_p50",
                percentile(&timed.rounds, 0.5) / 1e3,
                "us",
            )
        },
        Metric {
            samples: Some(timed.rounds.len()),
            ..metric(
                "runtime.round_us_p99",
                percentile(&timed.rounds, 0.99) / 1e3,
                "us",
            )
        },
        metric("runtime.us_per_op", per_op(t(Call::RunTasks), ops), "us"),
        metric("runtime.ops_per_window", exact.ops_per_window, "count"),
        metric(
            "runtime.window_fill",
            exact.ops_per_window / BATCH as f64,
            "fraction",
        ),
        metric(
            "runtime.control_persists_per_window",
            ratio(timed.control_persists as f64, timed.windows as f64),
            "count",
        ),
        metric("runtime.task_errors", timed.task_errors as f64, "count"),
        metric(
            "kv.log_slots_per_mutation",
            ratio(timed.log_records as f64, timed.mutations as f64),
            "count",
        ),
        metric(
            "reqtable.live_high_water",
            timed.live_high_water as f64,
            "count",
        ),
        metric("nvram.persists_per_op", exact.persists_per_op, "count"),
        metric("nvram.lines_per_op", exact.lines_per_op, "count"),
        metric(
            "nvram.bytes_written_per_op",
            ratio(n.bytes_written as f64, ops as f64),
            "B",
        ),
        metric(
            "nvram.async_flushes_per_op",
            ratio(n.async_flushes as f64, ops as f64),
            "count",
        ),
        metric(
            "nvram.elided_lines_per_op",
            ratio(n.elided_lines as f64, ops as f64),
            "count",
        ),
        metric(
            "nvram.overlap_fraction",
            if n.async_latency_charged_ns == 0 {
                0.0
            } else {
                1.0 - n.async_latency_waited_ns as f64 / n.async_latency_charged_ns as f64
            },
            "fraction",
        ),
        metric("recovery.reopen_ms", ms(&|r| r.steps[0]), "ms"),
        metric("recovery.attach_ms", ms(&|r| r.steps[1]), "ms"),
        metric("recovery.replay_ms", ms(&|r| r.steps[2]), "ms"),
        metric(
            "recovery.frames_per_cycle",
            ratio(
                cuts.recoveries.iter().map(|r| r.frames as f64).sum(),
                cycles,
            ),
            "count",
        ),
        metric(
            "recovery.persists_per_cycle",
            ratio(
                cuts.recoveries.iter().map(|r| r.persists as f64).sum(),
                cycles,
            ),
            "count",
        ),
        metric(
            "recovery.history_records",
            median(
                &cuts
                    .recoveries
                    .iter()
                    .map(|r| r.history_records as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric(
            "budget.residual_frac",
            ratio(wall_ns - covered as f64, wall_ns),
            "fraction",
        ),
        metric(
            "trace.overhead_frac",
            ratio(per_op_wall(timed), per_op_wall(plain)) - 1.0,
            "fraction",
        ),
    ]
}
