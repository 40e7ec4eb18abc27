//! The §5.2 crash-campaign methodology applied to the **sharded**
//! key-value store: worker threads drive disjoint shard sets over a
//! striped region bundle, group commits batch persists inside each
//! shard, kills land *inside batch windows* (the countdowns are drawn
//! from event windows smaller than a batch's event footprint), a system
//! failure takes every region down together, and recovery runs **in
//! parallel, one scan per shard**. The collected execution is checked
//! by `pstack-verify`'s [`check_kv_sharded`]: per-shard chain
//! witnesses, globally unique operation tags, key-routing validation.
//!
//! The campaign is deterministic per seed even with multiple worker
//! threads: shards are statically assigned to workers (`shard %
//! workers`), every shard's schedule/kill randomness comes from its own
//! seeded RNG, and different shards touch different regions — so no
//! cross-thread interleaving can influence any region's event stream.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pstack_core::{
    CrashRegion, CrashSite, FunctionRegistry, PError, RecoveryMode, RuntimeConfig, StripedRuntime,
};
use pstack_kv::{
    shard_of, KvBatchOp, KvOpTable, KvTaskOp, KvTaskResult, KvVariant, PKvStore, ShardedKvStore,
    ShardedKvTaskFunction, KV_SHARDED_FUNC_ID,
};
use pstack_nvram::{
    FailPlan, PMem, PMemBuilder, PMemStripe, POffset, PsanViolation, StatsSnapshot,
};
use pstack_verify::{
    check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvVerdict, KvWitnessRecord,
};

use pstack_telemetry::{TelemetrySummary, TraceSession};
use std::time::{Duration, Instant};

use crate::kv_campaign::ShardLogUsage;

/// Where each shard region persists its descriptor-table base (inside
/// the 64-byte shard root, past the offsets the store itself uses).
pub(crate) const TABLE_ROOT_OFF: u64 = 40;

/// Configuration of one sharded KV crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedKvCampaignConfig {
    /// Number of KV operations across all shards.
    pub n_ops: usize,
    /// Number of shards (independent regions).
    pub shards: usize,
    /// Worker threads; shard `s` is owned by worker `s % workers`, so
    /// shard schedules are worker-private and deterministic.
    pub workers: usize,
    /// Keys are drawn from `0..key_space`.
    pub key_space: u64,
    /// Inclusive range put/cas values are drawn from.
    pub value_range: (i64, i64),
    /// Probability weights of (put, get, delete) — the remainder are
    /// cas operations.
    pub op_mix: (f64, f64, f64),
    /// Master seed; campaigns are deterministic given the seed.
    pub seed: u64,
    /// Correct NSRL recovery or the no-scan bug.
    pub variant: KvVariant,
    /// `Some(k)`: buffered regions, mutations group-committed in
    /// batches of up to `k`. `None`: eager regions, per-op durability.
    pub group_commit: Option<usize>,
    /// Concurrent mutator threads per shard (default 1). With more,
    /// live rounds drive each chunk's mutations through the lock-free
    /// detectable-publication path instead of a group commit: every
    /// thread reserves, persists and publishes independently, and the
    /// armed fail-point countdowns land *between* those steps.
    /// Recovery rounds always stay on the quiesced evidence-scanning
    /// duals. Per-shard op schedules and kill draws stay seeded, but
    /// the racing threads make each region's exact event interleaving
    /// schedule-dependent — crash placement is windowed, not replayed
    /// bit-for-bit.
    pub mutators_per_shard: usize,
    /// Crashes stop after this many, so the campaign terminates.
    pub max_crashes: usize,
    /// Per-shard fail-point countdown drawn uniformly from this event
    /// window. Keep it smaller than a batch's event footprint and
    /// kills land inside batch windows.
    pub crash_window: (u64, u64),
    /// Probability that a given shard region gets a fail-point armed
    /// in a given round (while the crash budget lasts).
    pub crash_prob: f64,
    /// NVRAM region length *per shard*.
    pub region_len: usize,
    /// Per-shard version-log capacity override; `None` provisions
    /// automatically from the workload.
    pub log_cap_per_shard: Option<u64>,
    /// `true`: drive the descriptors through
    /// [`StripedRuntime::run_tasks`] — every put/get/batch executes as
    /// a persistent-stack task, a crash in any region trips the whole
    /// system, and restart goes through stack-driven recovery
    /// (`reopen_all` + frame replay with per-shard evidence-scan
    /// preludes). `false`: PR 3's direct worker-thread drive, no
    /// persistent stack in the loop.
    pub runtime_driven: bool,
    /// Control-region length for the runtime-driven mode (superblock,
    /// per-worker stacks, heap).
    pub control_region_len: usize,
    /// Probability of arming a kill *inside* each recovery pass
    /// (runtime-driven mode only; bounded by twice the crash budget).
    pub recovery_crash_prob: f64,
    /// Shadow every region (shards and, in the runtime-driven mode,
    /// the control region) with the persist-order sanitizer and
    /// collect its findings in the report. Defaults to the `psan`
    /// crate feature.
    pub psan: bool,
    /// Record the campaign with the flight recorder and attach the
    /// collected summary to the report. Defaults to the `telemetry`
    /// crate feature.
    pub telemetry: bool,
}

impl ShardedKvCampaignConfig {
    /// Defaults: 4 shards × 4 workers over buffered regions with
    /// group commits of 8, 16 hot keys, a 50/25/10/15
    /// put/get/delete/cas mix, and kill countdowns short enough to
    /// land inside batch windows.
    #[must_use]
    pub fn new(n_ops: usize, seed: u64) -> Self {
        ShardedKvCampaignConfig {
            n_ops,
            shards: 4,
            workers: 4,
            key_space: 16,
            value_range: (-100, 100),
            op_mix: (0.5, 0.25, 0.1),
            seed,
            variant: KvVariant::Nsrl,
            group_commit: Some(8),
            mutators_per_shard: 1,
            max_crashes: 8,
            crash_window: (8, 80),
            crash_prob: 0.6,
            region_len: 1 << 19,
            log_cap_per_shard: None,
            runtime_driven: false,
            control_region_len: 1 << 20,
            recovery_crash_prob: 0.35,
            psan: cfg!(feature = "psan"),
            telemetry: cfg!(feature = "telemetry"),
        }
    }

    /// Selects the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Selects the drive mode: `true` routes all traffic through
    /// [`StripedRuntime::run_tasks`] (the persistent stack in the loop).
    #[must_use]
    pub fn runtime_driven(mut self, runtime_driven: bool) -> Self {
        self.runtime_driven = runtime_driven;
        self
    }

    /// Selects the recovery variant.
    #[must_use]
    pub fn variant(mut self, variant: KvVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the commit mode: `Some(batch)` for buffered regions
    /// with group commits, `None` for eager per-op durability.
    #[must_use]
    pub fn group_commit(mut self, batch: Option<usize>) -> Self {
        self.group_commit = batch;
        self
    }

    /// Selects how many concurrent mutator threads drive each shard
    /// (see [`ShardedKvCampaignConfig::mutators_per_shard`]).
    #[must_use]
    pub fn mutators_per_shard(mut self, mutators: usize) -> Self {
        self.mutators_per_shard = mutators.max(1);
        self
    }
}

/// Outcome of a sharded KV campaign.
#[derive(Debug, Clone)]
pub struct ShardedKvCampaignReport {
    /// Rounds executed (≥ 1); each crash adds a recovery round.
    pub rounds: usize,
    /// Crash/recover cycles tripped during normal rounds. (The direct
    /// worker-thread mode also counts its recovery-round kills here;
    /// the runtime-driven mode reports those separately in
    /// [`ShardedKvCampaignReport::recovery_crashes`].)
    pub crashes: usize,
    /// Kills that landed *inside* stack-driven recovery passes
    /// (runtime-driven mode; always 0 for the direct drive).
    pub recovery_crashes: usize,
    /// Frames completed by stack-driven recovery across all cycles
    /// (runtime-driven mode; always 0 for the direct drive).
    pub recovered_frames: usize,
    /// Attribution of each whole-system crash in the runtime-driven
    /// mode: the region that tripped it (shard index or the control
    /// region) plus that region's frozen persistence-event counter —
    /// what campaign logs key kills by.
    pub crash_sites: Vec<CrashSite>,
    /// Individual shard regions whose fail-point actually fired,
    /// summed over all cycles (the remaining regions of a cycle are
    /// taken down by the system failure itself). The runtime-driven
    /// mode counts the tripping shard region of each cycle.
    pub shard_kills: usize,
    /// The collected execution: answers plus per-shard chain witness.
    pub history: KvShardedHistory,
    /// The sharded linearizability verdict.
    pub verdict: KvVerdict,
    /// Per-shard version-log usage — a single hot shard degenerating
    /// to read-only is visible here even when the aggregate is fine.
    pub log_usage: Vec<ShardLogUsage>,
    /// Per-shard completed group commits.
    pub flush_epochs: Vec<u64>,
    /// Aggregate NVRAM statistics across all shard regions and boots
    /// (persists, coalesced lines, …).
    pub stats: StatsSnapshot,
    /// Mutation descriptors in the workload (put/delete/cas — the
    /// denominator of the persists-per-mutation metric).
    pub mutations: usize,
    /// Persist-order sanitizer findings across every region and boot,
    /// attributed to their home shard (empty when PSan is off;
    /// expected empty when it is on — unless the campaign runs a
    /// seeded persist-order bug variant).
    pub psan_violations: Vec<PsanViolation>,
    /// Wall-clock duration of each crash→recovery cycle — from the
    /// whole-system reboot to the recovery pass that succeeded. A kill
    /// *inside* recovery extends the cycle it interrupted rather than
    /// starting a new one.
    pub recovery_durations: Vec<Duration>,
    /// Flight-recorder summary of the whole campaign (spans, persist
    /// economy, crash→recovery timeline); `None` when recording was
    /// off.
    pub telemetry: Option<TelemetrySummary>,
}

impl ShardedKvCampaignReport {
    /// `true` if the execution passed the sharded KV check.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// Total crash/recover cycles the campaign survived (kills in
    /// normal rounds plus kills inside recovery).
    #[must_use]
    pub fn total_crashes(&self) -> usize {
        self.crashes + self.recovery_crashes
    }

    /// See [`ShardLogUsage::all_have_headroom`].
    #[must_use]
    pub fn log_had_headroom(&self) -> bool {
        ShardLogUsage::all_have_headroom(&self.log_usage)
    }

    /// See [`ShardLogUsage::tightest`].
    ///
    /// # Panics
    ///
    /// Panics if the report holds no shards (never produced by
    /// [`run_sharded_kv_campaign`]).
    #[must_use]
    pub fn tightest_shard(&self) -> ShardLogUsage {
        ShardLogUsage::tightest(&self.log_usage)
    }

    /// The shard that triggered — or, run with compaction disabled,
    /// *should* trigger — compaction: the shard whose log headroom
    /// fraction is smallest and below `threshold`. `None` while every
    /// shard keeps at least `threshold` of its log free. This is the
    /// report-side name for the per-shard signal
    /// ([`ShardLogUsage::headroom_fraction`]) the compaction campaign
    /// drives `ShardedKvStore::compact_shard` with.
    #[must_use]
    pub fn compaction_candidate(&self, threshold: f64) -> Option<usize> {
        ShardLogUsage::compaction_candidate(&self.log_usage, threshold)
    }

    /// Persist round-trips per mutation descriptor — the group-commit
    /// headline (compare a `group_commit: Some(k)` run against
    /// `None`).
    #[must_use]
    pub fn persists_per_mutation(&self) -> f64 {
        if self.mutations == 0 {
            0.0
        } else {
            self.stats.persists as f64 / self.mutations as f64
        }
    }
}

/// Generates the workload exactly like the unsharded campaign.
fn generate_ops(cfg: &ShardedKvCampaignConfig, rng: &mut SmallRng) -> Vec<KvTaskOp> {
    generate_kv_ops(cfg.n_ops, cfg.key_space, cfg.value_range, cfg.op_mix, rng)
}

/// The shared workload generator (the compaction campaign reuses it).
pub(crate) fn generate_kv_ops(
    n_ops: usize,
    key_space: u64,
    value_range: (i64, i64),
    op_mix: (f64, f64, f64),
    rng: &mut SmallRng,
) -> Vec<KvTaskOp> {
    let (lo, hi) = value_range;
    let (p_put, p_get, p_del) = op_mix;
    (0..n_ops)
        .map(|_| {
            let key = rng.random_range(0..key_space);
            let roll: f64 = rng.random();
            if roll < p_put {
                KvTaskOp::Put {
                    key,
                    value: rng.random_range(lo..=hi),
                }
            } else if roll < p_put + p_get {
                KvTaskOp::Get { key }
            } else if roll < p_put + p_get + p_del {
                KvTaskOp::Delete { key }
            } else {
                KvTaskOp::Cas {
                    key,
                    expected: rng.random_range(lo..=hi),
                    new: rng.random_range(lo..=hi),
                }
            }
        })
        .collect()
}

/// Runs the pending descriptors of one shard for one round (bounded to
/// `limit` descriptors when given — the compaction campaign bounds
/// rounds so headroom checks interleave with traffic). Returns `true`
/// if the shard's region crashed mid-round.
///
/// Gets resolve immediately; mutations collect into chunks that go
/// through the shard's group commit — `apply_batch` in a normal round,
/// its recovery dual `recover_batch` (evidence scans first, one group
/// commit for the re-executions) after any crash — so kills land
/// inside real multi-op batch windows in *both* kinds of round. Each
/// chunk's answers persist with one coalesced `mark_done_batch`. An
/// eager stripe degenerates to per-op durability inside the same
/// structure.
#[allow(clippy::too_many_arguments)] // an internal drive helper, not an API
pub(crate) fn run_shard_round(
    store: &ShardedKvStore,
    shard: usize,
    table: &KvOpTable,
    batch_size: usize,
    recovery: bool,
    rng: &mut SmallRng,
    limit: Option<usize>,
    mutators: usize,
) -> Result<bool, PError> {
    let crashed = |e: &PError| e.is_crash();
    let mut pending = table.pending()?;
    pending.shuffle(rng);
    if let Some(limit) = limit {
        pending.truncate(limit);
    }
    let pid = shard as u64;
    let pstore = store.shard(shard);

    for chunk in pending.chunks(batch_size.max(1)) {
        let mut answers: Vec<(usize, u32, KvTaskResult)> = Vec::new();
        let mut batch: Vec<(usize, KvBatchOp)> = Vec::new();
        for &idx in chunk {
            let seq = ShardedKvTaskFunction::seq_of(shard as u32, idx);
            let mut step = || -> Result<(), PError> {
                match table.op(idx)? {
                    KvTaskOp::Get { key } => {
                        let got = pstore.get(key)?;
                        answers.push((idx, pid as u32, KvTaskResult::Got(got)));
                    }
                    KvTaskOp::Put { key, value } => batch.push((
                        idx,
                        KvBatchOp::Put {
                            pid,
                            seq,
                            key,
                            value,
                        },
                    )),
                    KvTaskOp::Delete { key } => {
                        batch.push((idx, KvBatchOp::Delete { pid, seq, key }));
                    }
                    KvTaskOp::Cas { key, expected, new } => batch.push((
                        idx,
                        KvBatchOp::Cas {
                            pid,
                            seq,
                            key,
                            expected,
                            new,
                        },
                    )),
                }
                Ok(())
            };
            match step() {
                Ok(()) => {}
                Err(e) if crashed(&e) => return Ok(true),
                Err(e) => return Err(e),
            }
        }
        // The batch window. Recovery passes always run the quiesced
        // evidence-scanning duals; live passes either group-commit the
        // chunk or fan it out over `mutators` lock-free threads, whose
        // reserve → persist → publish steps the armed fail-point
        // countdowns land between.
        if !batch.is_empty() {
            let ops: Vec<KvBatchOp> = batch.iter().map(|&(_, op)| op).collect();
            let result: Result<Vec<bool>, PError> = if recovery {
                pstore
                    .recover_batch(&ops)
                    .map(|o| o.iter().map(|a| a.took_effect()).collect())
            } else if mutators > 1 {
                apply_lock_free(pstore, &ops, mutators)
            } else {
                pstore
                    .apply_batch(&ops)
                    .map(|o| o.iter().map(|a| a.took_effect()).collect())
            };
            let effects = match result {
                Ok(effects) => effects,
                Err(e) if crashed(&e) => return Ok(true),
                Err(e) => return Err(e),
            };
            for (&(idx, op), effect) in batch.iter().zip(effects) {
                let result = match op {
                    KvBatchOp::Put { .. } => KvTaskResult::Stored(effect),
                    KvBatchOp::Delete { .. } => KvTaskResult::Deleted(effect),
                    KvBatchOp::Cas { .. } => KvTaskResult::Swapped(effect),
                };
                answers.push((idx, pid as u32, result));
            }
        }
        match table.mark_done_batch(&answers) {
            Ok(()) => {}
            Err(e) if crashed(&e) => return Ok(true),
            Err(e) => return Err(e),
        }
    }
    Ok(false)
}

/// Applies one chunk's mutations with `mutators` concurrent threads,
/// each through the shard's lock-free detectable-publication path. A
/// crash in any thread surfaces as the first error; outcomes come back
/// in op order.
fn apply_lock_free(
    store: &PKvStore,
    ops: &[KvBatchOp],
    mutators: usize,
) -> Result<Vec<bool>, PError> {
    let mut effects = vec![false; ops.len()];
    let results: Vec<Result<Vec<(usize, bool)>, PError>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..mutators.min(ops.len()))
            .map(|m| {
                let st = store.clone();
                sc.spawn(move || -> Result<Vec<(usize, bool)>, PError> {
                    (m..ops.len())
                        .step_by(mutators)
                        .map(|i| {
                            let ok = match ops[i] {
                                KvBatchOp::Put {
                                    pid,
                                    seq,
                                    key,
                                    value,
                                } => st.put(pid, seq, key, value)?,
                                KvBatchOp::Delete { pid, seq, key } => st.delete(pid, seq, key)?,
                                KvBatchOp::Cas {
                                    pid,
                                    seq,
                                    key,
                                    expected,
                                    new,
                                } => st.cas(pid, seq, key, expected, new)?,
                            };
                            Ok((i, ok))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard mutator panicked"))
            .collect()
    });
    for r in results {
        for (i, ok) in r? {
            effects[i] = ok;
        }
    }
    Ok(effects)
}

pub(crate) fn open_tables(stripe: &PMemStripe) -> Result<Vec<KvOpTable>, PError> {
    (0..stripe.len())
        .map(|s| {
            let base = stripe.region(s).read_u64(POffset::new(TABLE_ROOT_OFF))?;
            KvOpTable::open(stripe.region(s).clone(), POffset::new(base))
        })
        .collect()
}

/// Crash/recover bookkeeping shared by both drive modes.
#[derive(Debug, Default)]
struct CampaignTally {
    rounds: usize,
    crashes: usize,
    recovery_crashes: usize,
    recovered_frames: usize,
    shard_kills: usize,
    crash_sites: Vec<CrashSite>,
    recovery_durations: Vec<Duration>,
    stats: StatsSnapshot,
    psan_violations: Vec<PsanViolation>,
}

/// Builds the final report from a quiescent store (every descriptor
/// answered) and the campaign tally.
fn finalize_report(
    cfg: &ShardedKvCampaignConfig,
    store: &ShardedKvStore,
    tables: &[KvOpTable],
    tally: CampaignTally,
    mutations: usize,
) -> Result<ShardedKvCampaignReport, PError> {
    let history = build_sharded_history(store, tables)?;
    let nshards = cfg.shards;
    // Shards compact independently, so the verdict checks each shard's
    // chains against that shard's real active generation.
    let verdict = check_kv_sharded_gen(
        &history,
        |key| shard_of(key, nshards),
        &store.generations()?,
    );
    let log_usage = store
        .log_reserved_per_shard()?
        .into_iter()
        .zip(store.log_capacities()?)
        .enumerate()
        .map(|(shard, (reserved, capacity))| ShardLogUsage {
            shard,
            reserved,
            capacity,
        })
        .collect();
    Ok(ShardedKvCampaignReport {
        rounds: tally.rounds,
        crashes: tally.crashes,
        recovery_crashes: tally.recovery_crashes,
        recovered_frames: tally.recovered_frames,
        crash_sites: tally.crash_sites,
        shard_kills: tally.shard_kills,
        history,
        verdict,
        log_usage,
        flush_epochs: store.flush_epochs()?,
        stats: tally.stats,
        mutations,
        psan_violations: tally.psan_violations,
        recovery_durations: tally.recovery_durations,
        telemetry: None,
    })
}

/// Builds the verifier history from the quiescent per-shard tables and
/// the sharded store's chain witnesses.
pub(crate) fn build_sharded_history(
    store: &ShardedKvStore,
    tables: &[KvOpTable],
) -> Result<KvShardedHistory, PError> {
    let shards: Vec<Vec<Vec<KvWitnessRecord>>> = store
        .snapshot_sharded()?
        .into_iter()
        .map(|chains| {
            chains
                .into_iter()
                .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                .collect()
        })
        .collect();

    let mut ops = Vec::new();
    for (s, table) in tables.iter().enumerate() {
        for idx in 0..table.len() {
            let answer = table.result(idx)?.ok_or_else(|| {
                PError::Task(format!(
                    "shard {s} descriptor {idx} still pending; campaign incomplete"
                ))
            })?;
            let pid = u64::from(answer.executor);
            let seq = ShardedKvTaskFunction::seq_of(s as u32, idx);
            let (kind, key, value, expected, ans) = match (table.op(idx)?, answer.result) {
                (KvTaskOp::Put { key, value }, KvTaskResult::Stored(ok)) => {
                    (KvOpKind::Put, key, value, 0, KvAnswer::Stored(ok))
                }
                (KvTaskOp::Get { key }, KvTaskResult::Got(v)) => {
                    (KvOpKind::Get, key, 0, 0, KvAnswer::Got(v))
                }
                (KvTaskOp::Delete { key }, KvTaskResult::Deleted(ok)) => {
                    (KvOpKind::Delete, key, 0, 0, KvAnswer::Deleted(ok))
                }
                (KvTaskOp::Cas { key, expected, new }, KvTaskResult::Swapped(ok)) => {
                    (KvOpKind::Cas, key, new, expected, KvAnswer::Swapped(ok))
                }
                (op, res) => {
                    return Err(PError::Task(format!(
                        "shard {s} descriptor {idx}: answer {res:?} does not match op {op:?}"
                    )))
                }
            };
            ops.push(KvOp {
                pid,
                seq,
                kind,
                key,
                value,
                expected,
                answer: ans,
            });
        }
    }
    Ok(KvShardedHistory { ops, shards })
}

/// Runs one full sharded KV crash campaign: stripe the store over
/// `shards` regions, drive the descriptors with `workers` threads (one
/// shard never has two drivers), kill shard regions inside their batch
/// windows, take the whole stripe down on every failure, recover all
/// shards in parallel, and finally verify the collected execution with
/// the sharded witness checker. Deterministic per configuration.
///
/// # Errors
///
/// Propagates setup failures; the crash/restart loop itself handles
/// crashes as part of the experiment.
///
/// # Panics
///
/// Panics if a worker thread panics (assertion failures inside the
/// harness).
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_sharded_kv_campaign, ShardedKvCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_sharded_kv_campaign(&ShardedKvCampaignConfig::new(40, 7))?;
/// assert!(report.is_linearizable());
/// assert_eq!(report.log_usage.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn run_sharded_kv_campaign(
    cfg: &ShardedKvCampaignConfig,
) -> Result<ShardedKvCampaignReport, PError> {
    let session = cfg.telemetry.then(TraceSession::start);
    let mut report = run_sharded_kv_campaign_inner(cfg)?;
    report.telemetry = session.map(|s| s.finish().summary());
    Ok(report)
}

fn run_sharded_kv_campaign_inner(
    cfg: &ShardedKvCampaignConfig,
) -> Result<ShardedKvCampaignReport, PError> {
    assert!(cfg.shards > 0, "at least one shard");
    assert!(cfg.workers > 0, "at least one worker");
    assert!(cfg.key_space > 0, "empty key space");
    let (lo, hi) = cfg.value_range;
    assert!(lo <= hi, "empty value range");

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ops = generate_ops(cfg, &mut rng);
    let mutations = ops
        .iter()
        .filter(|op| !matches!(op, KvTaskOp::Get { .. }))
        .count();

    // Partition by home shard; idle shards get a no-op get on a key
    // they own, so every table is non-empty.
    let per_shard = ShardedKvTaskFunction::partition_ops_padded(&ops, cfg.shards);

    // Provision each shard's log: every descriptor at most one
    // published slot, plus crash orphans (at most one staged batch per
    // cycle survives unpublished — per in-flight worker in the
    // runtime-driven mode, where several workers may run windows of
    // the same shard concurrently), plus retry slack. The runtime mode
    // also spends its crash budget twice (run kills + recovery kills).
    let max_shard_ops = per_shard.iter().map(Vec::len).max().unwrap_or(1) as u64;
    let batch = cfg.group_commit.unwrap_or(1).max(1);
    let orphan_sources = if cfg.runtime_driven {
        cfg.workers as u64 * 2
    } else {
        1
    };
    let log_cap = cfg.log_cap_per_shard.unwrap_or(
        max_shard_ops * 2 + (cfg.max_crashes as u64 + 1) * (batch as u64 + 1) * orphan_sources + 64,
    );
    let nbuckets = cfg.key_space.max(4);

    let mut builder = PMemBuilder::new().len(cfg.region_len).psan(cfg.psan);
    if cfg.group_commit.is_none() {
        builder = builder.eager_flush(true);
    }
    let mut stripe = builder.build_striped(cfg.shards);
    {
        let store = ShardedKvStore::format(stripe.regions(), nbuckets, log_cap, cfg.variant)?;
        for (s, shard_ops) in per_shard.iter().enumerate() {
            let table = KvOpTable::format(stripe.region(s).clone(), store.heap(s), shard_ops)?;
            stripe
                .region(s)
                .write_u64(POffset::new(TABLE_ROOT_OFF), table.base().get())?;
            stripe.region(s).flush(POffset::new(TABLE_ROOT_OFF), 8)?;
        }
    }

    if cfg.runtime_driven {
        return drive_with_runtime(cfg, stripe, mutations, rng, batch);
    }

    let mut tally = CampaignTally::default();
    // Set when a crash rebooted the stripe: the next round (which
    // drives every pending descriptor through its recovery dual) is
    // the recovery pass, and its completion closes the cycle.
    let mut recovery_started: Option<Instant> = None;

    loop {
        tally.rounds += 1;
        let store = ShardedKvStore::open(stripe.regions(), cfg.variant)?;
        let tables = open_tables(&stripe)?;
        if tables
            .iter()
            .map(KvOpTable::pending)
            .collect::<Result<Vec<_>, _>>()?
            .iter()
            .all(Vec::is_empty)
        {
            // Quiescent: fold in this boot's counters and stop. The
            // sanitizer's findings survive every reopen (the shadow
            // state rides the region), so one sweep here sees them all.
            if let Some(started) = recovery_started.take() {
                tally.recovery_durations.push(started.elapsed());
            }
            tally.stats = tally.stats + stripe.aggregate_stats();
            tally.psan_violations = stripe.psan_violations();
            return finalize_report(cfg, &store, &tables, tally, mutations);
        }

        // Arm per-shard fail-points while the crash budget lasts. The
        // draws happen on the main thread, per shard, so worker
        // scheduling cannot perturb them.
        if tally.crashes < cfg.max_crashes {
            for s in 0..cfg.shards {
                if rng.random_bool(cfg.crash_prob) {
                    let countdown = rng.random_range(cfg.crash_window.0..=cfg.crash_window.1);
                    stripe
                        .region(s)
                        .arm_failpoint(FailPlan::after_events(countdown));
                }
            }
        }

        // One worker per shard set; a shard's whole round runs on its
        // owner, seeded per (shard, round). Recovery rounds (after any
        // crash) drive every pending descriptor through its recovery
        // dual — the per-shard evidence scans, in parallel.
        let recovery = tally.crashes > 0;
        let round_seed = cfg.seed ^ (tally.rounds as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let crashed_flags: Vec<Result<bool, PError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.workers)
                .map(|w| {
                    let store = store.clone();
                    let tables = &tables;
                    scope.spawn(move || {
                        let mut any_crash = false;
                        for s in (w..cfg.shards).step_by(cfg.workers) {
                            let mut shard_rng = SmallRng::seed_from_u64(
                                round_seed ^ (s as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95),
                            );
                            match run_shard_round(
                                &store,
                                s,
                                &tables[s],
                                batch,
                                recovery,
                                &mut shard_rng,
                                None,
                                cfg.mutators_per_shard,
                            ) {
                                Ok(true) => any_crash = true,
                                Ok(false) => {}
                                Err(e) => return Err(e),
                            }
                        }
                        Ok(any_crash)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut any_crash = false;
        for flag in crashed_flags {
            any_crash |= flag?;
        }
        // The round after a reboot drove recovery duals over every
        // pending descriptor; it just finished, closing the cycle. A
        // crash *during* that round keeps the cycle open instead.
        if !any_crash {
            if let Some(started) = recovery_started.take() {
                tally.recovery_durations.push(started.elapsed());
            }
        }

        if any_crash {
            tally.crashes += 1;
            tally.shard_kills += stripe.regions().iter().filter(|r| r.is_crashed()).count();
            tally
                .crash_sites
                .extend(stripe.crash_site().map(|(shard, events)| CrashSite {
                    region: CrashRegion::Shard(shard),
                    events,
                }));
            // System failure: every region dies with the killed ones
            // (unflushed lines of buffered regions are lost — survival
            // probability 0 keeps the campaign deterministic).
            tally.stats = tally.stats + stripe.aggregate_stats();
            stripe.crash_all(cfg.seed ^ tally.crashes as u64, 0.0);
            recovery_started.get_or_insert_with(Instant::now);
            let _phase = pstack_telemetry::phase("recovery.reopen");
            stripe = stripe.reopen_all()?;
        } else {
            stripe.disarm_all();
        }
    }
}

/// The runtime-driven drive: every pending descriptor (or batch
/// window) becomes a persistent-stack task executed by
/// [`StripedRuntime::run_tasks`] over the control region + shard
/// stripe. Kills land inside batch windows (shard-region fail-points
/// with window-sized countdowns), inside the runtime's own stack
/// discipline (control-region fail-points), *and* inside the
/// stack-driven recovery passes; every crash trips the whole system,
/// is attributed to the region that fired it, and restart goes through
/// `reopen_all` + frame replay with per-shard evidence-scan preludes.
fn drive_with_runtime(
    cfg: &ShardedKvCampaignConfig,
    mut stripe: PMemStripe,
    mutations: usize,
    mut rng: SmallRng,
    batch: usize,
) -> Result<ShardedKvCampaignReport, PError> {
    // The control region carries the runtime layout: superblock,
    // per-worker persistent stacks, heap. Formatted once; every later
    // boot is an open.
    let mut control = PMemBuilder::new()
        .len(cfg.control_region_len)
        .psan(cfg.psan)
        .build_in_memory();
    {
        let stub = FunctionRegistry::new();
        StripedRuntime::format(
            control.clone(),
            stripe.clone(),
            RuntimeConfig::new(cfg.workers).stack_capacity(8 * 1024),
            &stub,
        )?;
    }

    // Builds the registry of the current boot: one task function
    // re-attached to the freshly opened store and tables. Used both
    // for direct opens and as the `reopen_all_with` registry builder.
    let make_registry =
        |store: &ShardedKvStore, tables: &[KvOpTable]| -> Result<FunctionRegistry, PError> {
            let mut registry = FunctionRegistry::new();
            registry.register(
                KV_SHARDED_FUNC_ID,
                ShardedKvTaskFunction::new(store.clone(), tables.to_vec())
                    .with_mutators(cfg.mutators_per_shard)
                    .into_arc(),
            )?;
            Ok(registry)
        };
    // Re-attaches store, tables, task function and runtime to the
    // current boot's regions.
    let attach = |control: &PMem,
                  stripe: &PMemStripe|
     -> Result<
        (
            ShardedKvStore,
            Vec<KvOpTable>,
            ShardedKvTaskFunction,
            StripedRuntime,
        ),
        PError,
    > {
        let store = ShardedKvStore::open(stripe.regions(), cfg.variant)?;
        let tables = open_tables(stripe)?;
        let registry = make_registry(&store, &tables)?;
        let rt = StripedRuntime::open(control.clone(), stripe.clone(), &registry)?;
        let func = ShardedKvTaskFunction::new(store.clone(), tables.clone());
        Ok((store, tables, func, rt))
    };
    // The multi-region boot path after a whole-system crash: reopen
    // every region together, rebuilding the registry over the fresh
    // handles (the old task function holds dead pre-crash clones).
    let reboot = |rt: &StripedRuntime| -> Result<(PMem, PMemStripe), PError> {
        let next = rt.reopen_all_with(|_, stripe| {
            let store = ShardedKvStore::open(stripe.regions(), cfg.variant)?;
            let tables = open_tables(stripe)?;
            make_registry(&store, &tables)
        })?;
        Ok((next.control().clone(), next.stripe().clone()))
    };

    let mut tally = CampaignTally::default();
    let window = if cfg.group_commit.is_some() { batch } else { 1 };

    loop {
        tally.rounds += 1;
        let (store, tables, func, rt) = attach(&control, &stripe)?;
        let rt =
            rt.crash_seed(cfg.seed ^ (tally.rounds as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut tasks = func.pending_tasks(KV_SHARDED_FUNC_ID, window)?;
        if tasks.is_empty() {
            tally.stats = tally.stats + stripe.aggregate_stats();
            tally.psan_violations = stripe.psan_violations();
            tally.psan_violations.extend(control.psan_violations());
            return finalize_report(cfg, &store, &tables, tally, mutations);
        }
        tasks.shuffle(&mut rng);

        // Arm kills while the budget lasts: per-shard fail-points with
        // countdowns shorter than a batch window's event footprint, and
        // occasionally one in the control region so the persistent
        // stack's own discipline gets hit too.
        if tally.crashes + tally.recovery_crashes < cfg.max_crashes {
            for s in 0..cfg.shards {
                if rng.random_bool(cfg.crash_prob) {
                    let countdown = rng.random_range(cfg.crash_window.0..=cfg.crash_window.1);
                    stripe
                        .region(s)
                        .arm_failpoint(FailPlan::after_events(countdown));
                }
            }
            if rng.random_bool(cfg.crash_prob / 2.0) {
                let countdown = rng.random_range(cfg.crash_window.0..=cfg.crash_window.1);
                control.arm_failpoint(FailPlan::after_events(countdown));
            }
        }

        let report = rt.run_tasks(tasks);
        if !report.crashed {
            stripe.disarm_all();
            control.disarm_failpoint();
            continue;
        }
        tally.crashes += 1;
        if let Some(site) = report.crash_site {
            if matches!(site.region, CrashRegion::Shard(_)) {
                tally.shard_kills += 1;
            }
            tally.crash_sites.push(site);
        }
        tally.stats = tally.stats + stripe.aggregate_stats();
        let recovery_started = Instant::now();
        (control, stripe) = reboot(&rt)?;

        // Stack-driven recovery, possibly killed mid-pass: reopen and
        // retry until a pass completes (idempotence across regions —
        // frames popped by a completed recover dual never replay).
        loop {
            let (store, _tables, _func, rt) = attach(&control, &stripe)?;
            let rt = rt.crash_seed(
                cfg.seed ^ (tally.recovery_crashes as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95),
            );
            if tally.crashes + tally.recovery_crashes < cfg.max_crashes * 2
                && rng.random_bool(cfg.recovery_crash_prob)
            {
                // A kill inside recovery: a random shard region or the
                // control region, with a short countdown so it lands
                // mid-replay.
                let target = rng.random_range(0..=cfg.shards as u64) as usize;
                let countdown = rng.random_range(2..=40);
                let plan = FailPlan::after_events(countdown);
                if target == cfg.shards {
                    control.arm_failpoint(plan);
                } else {
                    stripe.region(target).arm_failpoint(plan);
                }
            }
            let prelude_store = store.clone();
            let result = rt.recover_with(RecoveryMode::Parallel, |shard, _region| {
                // Per-shard evidence fan-out before any frame replays:
                // walk the shard's published chains, the witness the
                // recover duals' tag scans run against.
                prelude_store.shard(shard).snapshot().map(|_| ())
            });
            match result {
                Ok(rep) => {
                    stripe.disarm_all();
                    control.disarm_failpoint();
                    tally.recovered_frames += rep.total_frames();
                    tally.recovery_durations.push(recovery_started.elapsed());
                    break;
                }
                Err(e) if e.is_crash() => {
                    tally.recovery_crashes += 1;
                    if let Some(site) = rt.last_crash_site() {
                        tally.crash_sites.push(site);
                    }
                    tally.stats = tally.stats + stripe.aggregate_stats();
                    (control, stripe) = reboot(&rt)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_verify::check_kv_sharded;

    #[test]
    fn sharded_campaign_is_linearizable_and_crashes_in_batch_windows() {
        let report = run_sharded_kv_campaign(&ShardedKvCampaignConfig::new(80, 21)).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert!(report.shard_kills > 0, "fail-points should actually fire");
        assert_eq!(report.history.shards.len(), 4);
        assert!(report.rounds > 1);
        assert!(report.log_had_headroom(), "{}", report.tightest_shard());
        assert!(
            report.flush_epochs.iter().any(|&e| e > 0),
            "group commits should have completed: {:?}",
            report.flush_epochs
        );
        assert!(
            report.stats.coalesced_lines > 0,
            "group commits should coalesce persists: {:?}",
            report.stats
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
    }

    #[test]
    fn sharded_campaigns_are_deterministic_per_seed() {
        let cfg = ShardedKvCampaignConfig::new(48, 5);
        let a = run_sharded_kv_campaign(&cfg).unwrap();
        let b = run_sharded_kv_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.shard_kills, b.shard_kills);
    }

    #[test]
    fn eager_sharded_campaign_passes_too() {
        let cfg = ShardedKvCampaignConfig::new(60, 9).group_commit(None);
        let report = run_sharded_kv_campaign(&cfg).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert_eq!(
            report.flush_epochs,
            vec![0; 4],
            "eager stores never group-commit"
        );
    }

    #[test]
    fn group_commit_cuts_persists_per_mutation() {
        // Same workload, no crashes: the batched campaign must spend
        // far fewer persist round-trips per mutation than the per-op
        // buffered one — measured straight from the PMem counters.
        let quiet = |batch| {
            let mut cfg = ShardedKvCampaignConfig::new(200, 3).group_commit(batch);
            cfg.max_crashes = 0;
            cfg.key_space = 64;
            run_sharded_kv_campaign(&cfg).unwrap()
        };
        let batched = quiet(Some(16));
        let per_op = quiet(Some(1));
        assert!(batched.is_linearizable() && per_op.is_linearizable());
        assert_eq!(batched.mutations, per_op.mutations);
        assert!(
            batched.persists_per_mutation() * 2.0 < per_op.persists_per_mutation(),
            "batched {:.2} vs per-op {:.2} persists/mutation",
            batched.persists_per_mutation(),
            per_op.persists_per_mutation(),
        );
    }

    #[test]
    fn single_hot_shard_headroom_is_detected_per_shard() {
        // One key → one hot shard. With a tiny per-shard log the hot
        // shard fills while the others stay empty: the per-shard
        // report must expose it (the old global sum would have hidden
        // it behind three idle shards' headroom).
        let mut cfg = ShardedKvCampaignConfig::new(60, 11);
        cfg.key_space = 1;
        cfg.max_crashes = 0;
        cfg.op_mix = (1.0, 0.0, 0.0); // all puts
        cfg.log_cap_per_shard = Some(8);
        let report = run_sharded_kv_campaign(&cfg).unwrap();
        assert!(
            report.is_linearizable(),
            "capacity-rejected puts are legal answers: {:?}",
            report.verdict
        );
        assert!(!report.log_had_headroom(), "hot shard must be flagged");
        let hot = shard_of(0, 4);
        for usage in &report.log_usage {
            assert_eq!(
                usage.has_headroom(),
                usage.shard != hot,
                "only the hot shard fills: {usage}"
            );
            // The trigger signal: 0.0 for the full shard, a healthy
            // fraction for the idle ones.
            if usage.shard == hot {
                assert_eq!(usage.headroom_fraction(), 0.0, "{usage}");
            } else {
                assert!(usage.headroom_fraction() > 0.5, "{usage}");
            }
        }
        assert_eq!(report.tightest_shard().shard, hot);
        // The report names the shard that should trigger compaction.
        assert_eq!(report.compaction_candidate(0.25), Some(hot));
        assert_eq!(
            report.compaction_candidate(0.0),
            None,
            "threshold 0 never fires"
        );
    }

    #[test]
    fn two_hundred_sharded_crash_recover_cycles_lose_nothing() {
        // The sharded acceptance gate: ≥ 200 crash/recover cycles with
        // kills landing inside group-commit batch windows, every
        // campaign recovering all shards in parallel and verifying
        // against the sequential spec — zero lost or torn updates.
        let mut cycles = 0usize;
        let mut campaigns = 0usize;
        for seed in 0.. {
            let mut cfg = ShardedKvCampaignConfig::new(60, 4000 + seed);
            cfg.max_crashes = 14;
            cfg.crash_prob = 0.8;
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: lost or torn update after {} crashes: {:?}",
                report.total_crashes(),
                report.verdict
            );
            assert!(
                report.log_had_headroom(),
                "seed {seed}: {} filled — cycles stopped exercising recovery",
                report.tightest_shard()
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            campaigns += 1;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            cycles >= 200,
            "only {cycles} crash/recover cycles across {campaigns} campaigns"
        );
    }

    #[test]
    fn two_hundred_multi_mutator_cycles_lose_nothing() {
        // The lock-free acceptance gate: ≥ 200 crash/recover cycles
        // with three concurrent mutators per shard racing through
        // reserve → persist → publish, kills landing between those
        // steps, recovery always on the quiesced evidence-scanning
        // duals — zero lost or torn updates and a clean sanitizer.
        let mut cycles = 0usize;
        let mut campaigns = 0usize;
        for seed in 0.. {
            let mut cfg = ShardedKvCampaignConfig::new(60, 7000 + seed).mutators_per_shard(3);
            cfg.max_crashes = 14;
            cfg.crash_prob = 0.8;
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: lost or torn update after {} crashes: {:?}",
                report.total_crashes(),
                report.verdict
            );
            assert!(
                report.log_had_headroom(),
                "seed {seed}: {} filled — cycles stopped exercising recovery",
                report.tightest_shard()
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            campaigns += 1;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            cycles >= 200,
            "only {cycles} crash/recover cycles across {campaigns} campaigns"
        );
    }

    #[test]
    fn pipelined_campaigns_are_deterministic_per_seed() {
        // The async flush pipeline must not leak scheduling into the
        // campaign's observable history: no device thread exists, so
        // two runs of the same seed retire identical flights and crash
        // at identical event counts.
        let cfg = ShardedKvCampaignConfig::new(48, 5).group_commit(Some(16));
        let a = run_sharded_kv_campaign(&cfg).unwrap();
        let b = run_sharded_kv_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.rounds, b.rounds);
        assert!(a.stats.async_flushes > 0, "pipeline never engaged");
    }

    #[test]
    fn two_hundred_pipelined_cycles_lose_nothing() {
        // The flush-pipeline acceptance gate: ≥ 200 crash/recover
        // cycles with group commits riding overlapping async flights,
        // kills landing inside batch windows (including between flight
        // issue and await, while tickets are still queued on the
        // device), recovery keeping exactly the completed-flight
        // prefix — zero lost or torn updates and a clean sanitizer.
        let mut cycles = 0usize;
        let mut campaigns = 0usize;
        let mut async_flushes = 0u64;
        for seed in 0.. {
            let mut cfg = ShardedKvCampaignConfig::new(60, 11_000 + seed).group_commit(Some(16));
            cfg.max_crashes = 14;
            cfg.crash_prob = 0.8;
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: lost or torn update after {} crashes: {:?}",
                report.total_crashes(),
                report.verdict
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            campaigns += 1;
            async_flushes += report.stats.async_flushes;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            cycles >= 200,
            "only {cycles} crash/recover cycles across {campaigns} campaigns"
        );
        assert!(async_flushes > 0, "no campaign ever issued a flight");
    }

    #[test]
    fn psan_flags_the_early_publish_variant_and_names_the_shard() {
        // The seeded persist-order bug as a campaign-level negative
        // control: group commits publish their bucket heads without
        // persisting the staged records first. Without a crash the
        // execution is semantically flawless — the verifier passes —
        // but the sanitizer must flag every buggy publish and attribute
        // it to the home shard and the group-commit op.
        use pstack_nvram::PsanViolationKind;
        let mut cfg = ShardedKvCampaignConfig::new(60, 13).variant(KvVariant::EarlyPublish);
        cfg.max_crashes = 0; // deterministic: violations fire at publish time
        cfg.psan = true;
        let report = run_sharded_kv_campaign(&cfg).unwrap();
        assert!(
            report.is_linearizable(),
            "without crashes the bug is invisible to the verifier: {:?}",
            report.verdict
        );
        let early: Vec<_> = report
            .psan_violations
            .iter()
            .filter(|v| matches!(v.kind, PsanViolationKind::EarlyPublish { .. }))
            .collect();
        assert!(
            !early.is_empty(),
            "the sanitizer must catch what the verifier cannot: {:?}",
            report.psan_violations
        );
        for v in &early {
            assert!(
                v.region.starts_with("shard-"),
                "violation names its home shard: {v:?}"
            );
            assert_eq!(
                v.op_label, "kv.apply_batch",
                "violation names the group-commit op: {v:?}"
            );
        }
    }

    // ---- runtime-driven mode ------------------------------------------

    #[test]
    fn runtime_driven_campaign_puts_the_stack_in_the_loop() {
        let report =
            run_sharded_kv_campaign(&ShardedKvCampaignConfig::new(80, 21).runtime_driven(true))
                .unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "campaign should experience crashes");
        assert!(report.rounds > 1);
        assert!(report.log_had_headroom(), "{}", report.tightest_shard());
        // The batch windows ran as persistent-stack tasks: group
        // commits completed and interrupted frames were replayed.
        assert!(
            report.flush_epochs.iter().any(|&e| e > 0),
            "windows should group-commit: {:?}",
            report.flush_epochs
        );
        assert!(
            report.recovered_frames > 0,
            "stack-driven recovery should replay interrupted frames"
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
        // Every cycle is attributed to the region that tripped it.
        assert!(!report.crash_sites.is_empty());
        assert!(report.crash_sites.len() <= report.total_crashes());
        for site in &report.crash_sites {
            match site.region {
                CrashRegion::Shard(s) => assert!(s < 4, "shard index in range: {site}"),
                CrashRegion::Runtime => {}
            }
            assert!(
                site.events > 0,
                "the op counter freezes at the kill: {site}"
            );
        }
        // Every crash→recovery cycle that completed was timed.
        assert_eq!(report.recovery_durations.len(), report.crashes);
        assert!(report.recovery_durations.iter().all(|d| d.as_nanos() > 0));
        #[cfg(feature = "telemetry")]
        {
            let telemetry = report.telemetry.as_ref().expect("recording was on");
            // The stack-driven recovery path exercises the reopen, the
            // per-shard evidence scan, the frame replay, and the
            // recover duals — the timeline must attribute at least
            // three distinct phases with durations.
            assert!(
                telemetry.distinct_recovery_phases() >= 3,
                "timeline:\n{}",
                telemetry.render()
            );
            assert!(!telemetry.timeline.is_empty());
            assert!(
                telemetry.ops.iter().any(|op| op.count > 0),
                "spans should have latencies: {:?}",
                telemetry.ops
            );
            println!("{}", telemetry.render());
        }
    }

    #[test]
    fn runtime_driven_campaign_is_deterministic_with_one_worker() {
        let mut cfg = ShardedKvCampaignConfig::new(48, 5).runtime_driven(true);
        cfg.workers = 1;
        let a = run_sharded_kv_campaign(&cfg).unwrap();
        let b = run_sharded_kv_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.recovery_crashes, b.recovery_crashes);
        assert_eq!(a.crash_sites, b.crash_sites);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn runtime_driven_eager_campaign_passes_too() {
        let cfg = ShardedKvCampaignConfig::new(60, 9)
            .group_commit(None)
            .runtime_driven(true);
        let report = run_sharded_kv_campaign(&cfg).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert_eq!(
            report.flush_epochs,
            vec![0; 4],
            "eager stores never group-commit"
        );
    }

    #[test]
    fn runtime_driven_two_hundred_crash_recover_cycles_lose_nothing() {
        // The runtime-driven acceptance gate: ≥ 200 crash/recover
        // cycles with every put/get/batch executing as a persistent-
        // stack task, kills landing inside batch windows *and* inside
        // stack-driven recovery, every crash tripping the whole
        // system, and the sharded verifier confirming zero lost or
        // torn updates.
        let mut cycles = 0usize;
        let mut recovery_kills = 0usize;
        let mut batch_window_kills = 0usize;
        let mut frames = 0usize;
        let mut campaigns = 0usize;
        for seed in 0.. {
            let mut cfg = ShardedKvCampaignConfig::new(60, 7000 + seed).runtime_driven(true);
            cfg.max_crashes = 14;
            cfg.crash_prob = 0.8;
            cfg.recovery_crash_prob = 0.5;
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: lost or torn update after {} crashes: {:?}",
                report.total_crashes(),
                report.verdict
            );
            assert!(
                report.log_had_headroom(),
                "seed {seed}: {} filled — cycles stopped exercising recovery",
                report.tightest_shard()
            );
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            cycles += report.total_crashes();
            recovery_kills += report.recovery_crashes;
            batch_window_kills += report.shard_kills;
            frames += report.recovered_frames;
            campaigns += 1;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            cycles >= 200,
            "only {cycles} crash/recover cycles across {campaigns} campaigns"
        );
        assert!(
            recovery_kills > 0,
            "kills must land inside recovery passes too"
        );
        assert!(
            batch_window_kills > 0,
            "kills must land inside shard batch windows"
        );
        assert!(frames > 0, "recovery must replay interrupted frames");
    }

    #[test]
    fn runtime_driven_noscan_is_caught() {
        // The NoScan bug variant driven through `run_tasks`: recovery
        // duals that skip the per-shard evidence scan re-execute
        // already-published operations, and the campaign's verifier
        // must flag the resulting duplicates. Detection is
        // probabilistic per run, so scan seeds.
        let mut detected = 0;
        let mut runs = 0;
        for seed in 0..24 {
            if detected >= 2 {
                break;
            }
            let mut cfg = ShardedKvCampaignConfig::new(80, seed)
                .variant(KvVariant::NoScan)
                .runtime_driven(true);
            cfg.key_space = 4;
            cfg.max_crashes = 30;
            cfg.crash_prob = 0.9;
            cfg.recovery_crash_prob = 0.6;
            cfg.crash_window = (5, 60);
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_linearizable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no sharded KV violation detected in {runs} runtime-driven no-scan runs"
        );
    }

    // ---- multi-region crash-point enumeration -------------------------

    /// Formats a deterministic 2-shard runtime-driven system: buffered
    /// stripe, one store + descriptor table per shard (table bases at
    /// `TABLE_ROOT_OFF`), and a 1-worker runtime over a fresh control
    /// region.
    fn build_enum_system(ops: &[KvTaskOp]) -> (PMem, PMemStripe) {
        let stripe = PMemBuilder::new().len(1 << 19).psan(true).build_striped(2);
        let store = ShardedKvStore::format(stripe.regions(), 8, 128, KvVariant::Nsrl).unwrap();
        let per_shard = ShardedKvTaskFunction::partition_ops_padded(ops, 2);
        for (s, shard_ops) in per_shard.iter().enumerate() {
            let table =
                KvOpTable::format(stripe.region(s).clone(), store.heap(s), shard_ops).unwrap();
            stripe
                .region(s)
                .write_u64(POffset::new(TABLE_ROOT_OFF), table.base().get())
                .unwrap();
            stripe
                .region(s)
                .flush(POffset::new(TABLE_ROOT_OFF), 8)
                .unwrap();
        }
        let control = PMemBuilder::new().len(1 << 20).build_in_memory();
        let stub = FunctionRegistry::new();
        StripedRuntime::format(
            control.clone(),
            stripe.clone(),
            RuntimeConfig::new(1).stack_capacity(8 * 1024),
            &stub,
        )
        .unwrap();
        (control, stripe)
    }

    /// Re-attaches store/tables/function to the current boot.
    fn attach_enum_system(
        control: &PMem,
        stripe: &PMemStripe,
    ) -> (ShardedKvStore, Vec<KvOpTable>, StripedRuntime) {
        let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
        let tables = open_tables(stripe).unwrap();
        let mut registry = FunctionRegistry::new();
        registry
            .register(
                KV_SHARDED_FUNC_ID,
                ShardedKvTaskFunction::new(store.clone(), tables.clone()).into_arc(),
            )
            .unwrap();
        let rt = StripedRuntime::open(control.clone(), stripe.clone(), &registry).unwrap();
        (store, tables, rt)
    }

    /// Runs the 1-worker system to quiescence with no fail-points
    /// (recovering first, since the caller may hand over a state with
    /// an interrupted frame) and checks the execution: verifier-clean,
    /// every key holding its submitted value.
    fn drain_and_check(control: &PMem, stripe: &PMemStripe, ops: &[KvTaskOp], label: &str) {
        for _ in 0..16 {
            let (store, tables, rt) = attach_enum_system(control, stripe);
            rt.recover(RecoveryMode::Parallel).unwrap();
            let func = ShardedKvTaskFunction::new(store.clone(), tables.clone());
            let tasks = func.pending_tasks(KV_SHARDED_FUNC_ID, 4).unwrap();
            if tasks.is_empty() {
                let history = build_sharded_history(&store, &tables).unwrap();
                let verdict = check_kv_sharded(&history, |key| shard_of(key, 2));
                assert!(verdict.is_linearizable(), "{label}: {verdict:?}");
                let contents = store.contents().unwrap();
                for op in ops {
                    if let KvTaskOp::Put { key, value } = op {
                        assert_eq!(contents.get(key), Some(value), "{label}: key {key}");
                    }
                }
                let violations = stripe.psan_violations();
                assert!(violations.is_empty(), "{label}: sanitizer: {violations:?}");
                return;
            }
            let report = rt.run_tasks(tasks);
            assert!(!report.crashed, "{label}: no fail-points are armed");
        }
        panic!("{label}: system failed to drain in 16 rounds");
    }

    #[test]
    fn enumerated_shard_crash_times_recovery_step_boundaries() {
        // The multi-region enumeration: for a 2-shard stripe, crash
        // shard 0's region at *every* event boundary of its batch
        // window, then crash the recovery pass at *every* event
        // boundary of the same region — and from each (crash-moment ×
        // recovery-step) state, recovery must converge with per-bucket
        // all-or-nothing effects and no re-run frames.
        let ops: Vec<KvTaskOp> = (0..8u64)
            .map(|key| KvTaskOp::Put {
                key,
                value: key as i64 + 10,
            })
            .collect();
        let target = 0usize;

        // Clean run: count the target region's events for the whole
        // drive (one worker, unshuffled tasks — fully deterministic).
        let (control, stripe) = build_enum_system(&ops);
        let e0 = stripe.region(target).events();
        {
            let (store, tables, rt) = attach_enum_system(&control, &stripe);
            let func = ShardedKvTaskFunction::new(store, tables);
            let report = rt.run_tasks(func.pending_tasks(KV_SHARDED_FUNC_ID, 4).unwrap());
            assert!(!report.crashed);
        }
        let run_events = stripe.region(target).events() - e0;
        assert!(run_events >= 3, "a window must span several events");

        for k in 0..run_events {
            // Phase 1 (attribution): crash shard 0 after k events of
            // the run; the kill must trip the whole system and be
            // blamed on the armed region.
            {
                let (control, stripe) = build_enum_system(&ops);
                let (store, tables, rt) = attach_enum_system(&control, &stripe);
                stripe
                    .region(target)
                    .arm_failpoint(FailPlan::after_events(k));
                let func = ShardedKvTaskFunction::new(store, tables);
                let report = rt.run_tasks(func.pending_tasks(KV_SHARDED_FUNC_ID, 4).unwrap());
                assert!(report.crashed, "crash at event {k} must fire");
                assert!(rt.all_crashed(), "event {k}: whole system down");
                assert_eq!(
                    report.crash_site.map(|s| s.region),
                    Some(CrashRegion::Shard(target)),
                    "event {k}: kill attributed to the armed shard"
                );
            }

            // Phase 2: enumerate recovery-step boundaries j. Every
            // j below recovery's event footprint crashes the pass; the
            // first j at or past it completes cleanly — an `Ok` means
            // the plan never fired, so the enumeration of this k is
            // done.
            for j in 0.. {
                // Rebuild the identical crash-at-k state from scratch
                // (one worker, unshuffled tasks: fully deterministic).
                let (control, stripe) = build_enum_system(&ops);
                {
                    let (store, tables, rt) = attach_enum_system(&control, &stripe);
                    stripe
                        .region(target)
                        .arm_failpoint(FailPlan::after_events(k));
                    let func = ShardedKvTaskFunction::new(store, tables);
                    let report = rt.run_tasks(func.pending_tasks(KV_SHARDED_FUNC_ID, 4).unwrap());
                    assert!(report.crashed);
                }
                let control = control.reopen().unwrap();
                let stripe = stripe.reopen_all().unwrap();

                // Per-bucket all-or-nothing after the crash: every
                // published record carries an untorn tag and value
                // from the workload.
                let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
                for chains in store.snapshot_sharded().unwrap() {
                    for rec in chains.iter().flatten() {
                        assert!(rec.key < 8, "crash {k}: phantom key {}", rec.key);
                        assert_eq!(
                            rec.value,
                            rec.key as i64 + 10,
                            "crash {k}: torn record value"
                        );
                    }
                }

                let (_, _, rt) = attach_enum_system(&control, &stripe);
                stripe
                    .region(target)
                    .arm_failpoint(FailPlan::after_events(j));
                match rt.recover(RecoveryMode::Parallel) {
                    Ok(rep) => {
                        stripe.disarm_all();
                        // No re-run frames: a completed recovery pass
                        // leaves nothing for a second one.
                        assert!(rep.total_frames() <= 1, "one worker, one frame");
                        assert_eq!(
                            rt.recover(RecoveryMode::Serial).unwrap().total_frames(),
                            0,
                            "crash {k}, step {j}: recovered frames must not re-run"
                        );
                        drain_and_check(&control, &stripe, &ops, &format!("crash {k}, step {j}"));
                        break;
                    }
                    Err(e) => {
                        assert!(e.is_crash(), "crash {k}, step {j}: {e}");
                        assert!(rt.all_crashed(), "recovery crash must trip all regions");
                        let control = control.reopen().unwrap();
                        let stripe = stripe.reopen_all().unwrap();
                        drain_and_check(&control, &stripe, &ops, &format!("crash {k}, step {j}"));
                    }
                }
            }
        }
    }

    // ---- negative controls: deliberately broken recovery --------------

    /// Maps a store's chains into the verifier's witness shape.
    fn witness_of(store: &ShardedKvStore) -> Vec<Vec<Vec<KvWitnessRecord>>> {
        store
            .snapshot_sharded()
            .unwrap()
            .into_iter()
            .map(|chains| {
                chains
                    .into_iter()
                    .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovery_into_the_wrong_shard_is_flagged_as_misrouted() {
        use pstack_verify::KvViolation;
        // Crash a put mid-flight in its home shard, then "recover" it
        // by skipping the home shard's evidence scan and re-executing
        // in the *other* shard's store — the striping invariant breaks
        // and the sharded verifier must say exactly that.
        let stripe = PMemBuilder::new()
            .len(1 << 18)
            .eager_flush(true)
            .build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let key = 0u64;
        let home = kv.shard_of(key);
        let wrong = 1 - home;
        stripe.region(home).arm_failpoint(FailPlan::after_events(1));
        assert!(kv.put(1, 1, key, 42).unwrap_err().is_crash());
        stripe.crash_all(3, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();
        // The bug: recovery re-executes in a shard the router never
        // picked, instead of scanning the home shard.
        assert!(kv2.shard(wrong).recover_put(1, 1, key, 42).unwrap());

        let history = KvShardedHistory {
            ops: vec![KvOp {
                pid: 1,
                seq: 1,
                kind: KvOpKind::Put,
                key,
                value: 42,
                expected: 0,
                answer: KvAnswer::Stored(true),
            }],
            shards: witness_of(&kv2),
        };
        let verdict = check_kv_sharded(&history, |k| shard_of(k, 2));
        match verdict.violation() {
            Some(KvViolation::MisroutedKey { shard, home: h, .. }) => {
                assert_eq!(*shard, wrong);
                assert_eq!(*h, home);
            }
            other => panic!("expected MisroutedKey, got {other:?}"),
        }
    }

    #[test]
    fn skipping_the_recovery_scan_entirely_is_flagged_as_lost_update() {
        use pstack_verify::KvViolation;
        // Crash a put before anything publishes, then "recover" by
        // declaring it done without scanning or re-executing — the
        // answer claims success, no record exists anywhere, and the
        // verifier must report the lost update.
        let stripe = PMemBuilder::new()
            .len(1 << 18)
            .eager_flush(true)
            .build_striped(2);
        let kv = ShardedKvStore::format(stripe.regions(), 8, 64, KvVariant::Nsrl).unwrap();
        let key = 3u64;
        let home = kv.shard_of(key);
        stripe.region(home).arm_failpoint(FailPlan::after_events(0));
        assert!(kv.put(2, 9, key, 77).unwrap_err().is_crash());
        stripe.crash_all(5, 0.0);
        let stripe2 = stripe.reopen_all().unwrap();
        let kv2 = ShardedKvStore::open(stripe2.regions(), KvVariant::Nsrl).unwrap();

        let history = KvShardedHistory {
            ops: vec![KvOp {
                pid: 2,
                seq: 9,
                kind: KvOpKind::Put,
                key,
                value: 77,
                expected: 0,
                answer: KvAnswer::Stored(true), // the skipped-scan lie
            }],
            shards: witness_of(&kv2),
        };
        let verdict = check_kv_sharded(&history, |k| shard_of(k, 2));
        match verdict.violation() {
            Some(KvViolation::LostUpdate { tag }) => assert_eq!(*tag, (2, 9)),
            other => panic!("expected LostUpdate, got {other:?}"),
        }
    }

    #[test]
    fn sharded_noscan_is_caught() {
        // The sharded analogue of the §5.2 matrix-removal experiment:
        // no-scan recovery re-executes operations whose records already
        // published in their home shard; the sharded verifier reports
        // the duplicate tags. Detection is probabilistic per run, so
        // scan seeds.
        let mut detected = 0;
        let mut runs = 0;
        for seed in 0..24 {
            if detected >= 2 {
                break;
            }
            let mut cfg = ShardedKvCampaignConfig::new(80, seed).variant(KvVariant::NoScan);
            cfg.key_space = 4;
            cfg.max_crashes = 30;
            cfg.crash_prob = 0.9;
            cfg.crash_window = (5, 60);
            let report = run_sharded_kv_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_linearizable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no sharded KV violation detected in {runs} no-scan runs"
        );
    }
}
