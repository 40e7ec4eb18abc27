//! The served system under test: four shard regions plus a control
//! region, a sharded store with one request table per shard, the serve
//! function registered on a `StripedRuntime`, and the `ServerCore`
//! front end — built, preloaded and rebooted only through the
//! repository's public API.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pstack_core::{FunctionRegistry, PError, RecoveryMode, RuntimeConfig, StripedRuntime};
use pstack_kv::{KvRequestTable, KvVariant, PKvStore, ShardedKvStore};
use pstack_nvram::{PMem, PMemBuilder, PMemStripe, POffset, StatsSnapshot};
use pstack_server::{KvServeFunction, ServerCore, KV_SERVE_FUNC_ID};
use pstack_verify::{KvAnswer, KvOp, KvOpKind};

/// Shard regions behind the server.
pub const SHARDS: usize = 4;
/// Requests per batch window.
pub const BATCH: usize = 16;
/// Runtime worker threads (`RuntimeConfig::new(WORKERS)`).
pub const WORKERS: usize = 2;
/// Per-shard admission-queue capacity.
pub const QUEUE_CAPACITY: usize = 64;
/// Per-shard request-table slots.
pub const TABLE_CAP: u32 = 64;
/// Control-region length (superblock, worker stacks, heap).
pub const CONTROL_LEN: usize = 1 << 20;
/// Where each shard region keeps its request-table base: inside the
/// 64-byte shard root, past the store's own words (the serving
/// campaign's layout).
const TABLE_ROOT_OFF: u64 = 48;
/// Preload versions are committed in batches of this many puts.
const PRELOAD_CHUNK: usize = 1024;
/// Process id the preload's version records are tagged with (client
/// ids start at 1, so preload tags never collide with served ones).
pub const PRELOAD_PID: u64 = 0;

/// The emulated device and the store's shape.
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel {
    /// Latency of one persist round-trip (`PMemBuilder::flush_latency`).
    pub flush_latency: Duration,
    /// Buckets per shard.
    pub nbuckets: u64,
    /// Version-log capacity per shard, in records.
    pub log_cap: u64,
}

impl DeviceModel {
    fn region_len(&self) -> usize {
        let store = PKvStore::required_len(self.nbuckets, self.log_cap);
        let table = KvRequestTable::required_len(TABLE_CAP);
        // Shard root, heap metadata and allocation slack.
        (store + table + (1 << 16)).next_power_of_two()
    }
}

/// One boot of the serving stack.
pub struct System {
    /// The control region.
    pub control: PMem,
    /// The shard regions.
    pub stripe: PMemStripe,
    /// Store plus request tables (the registered serve function).
    pub exec: KvServeFunction,
    /// The persistent-stack runtime executing batch windows.
    pub rt: StripedRuntime,
    /// The volatile admission front end.
    pub core: ServerCore,
}

impl System {
    /// The sharded store being served.
    pub fn store(&self) -> &ShardedKvStore {
        self.exec.store()
    }

    /// NVRAM counters of every region of this boot, summed.
    pub fn stats(&self) -> StatsSnapshot {
        self.stripe.aggregate_stats() + self.control.stats().snapshot()
    }

    /// Persist round-trips of every region of this boot.
    pub fn persists(&self) -> u64 {
        self.stats().persists
    }

    /// Version-log records reserved across all shards.
    pub fn log_records(&self) -> Result<u64, PError> {
        Ok(self.store().log_reserved_per_shard()?.iter().sum())
    }

    /// The largest request-table occupancy any shard reached this boot.
    pub fn live_high_water(&self) -> u64 {
        self.exec
            .tables()
            .iter()
            .map(KvRequestTable::live_high_water)
            .max()
            .unwrap_or(0)
    }
}

fn registry(store: &ShardedKvStore, tables: &[KvRequestTable]) -> Result<FunctionRegistry, PError> {
    let mut registry = FunctionRegistry::new();
    registry.register(
        KV_SERVE_FUNC_ID,
        KvServeFunction::new(store.clone(), tables.to_vec()).into_arc(),
    )?;
    Ok(registry)
}

fn open_tables(stripe: &PMemStripe) -> Result<Vec<KvRequestTable>, PError> {
    (0..stripe.len())
        .map(|s| {
            let region = stripe.region(s);
            let base = region.read_u64(POffset::new(TABLE_ROOT_OFF))?;
            KvRequestTable::open(region.clone(), POffset::new(base))
        })
        .collect()
}

/// Formats every region, preloads `preload` put versions uniformly over
/// `key_space` through `ShardedKvStore::batch`, and builds the runtime
/// and front end. Returns the system and the preload's history (one
/// answered put per version, tagged `(PRELOAD_PID, n)`).
///
/// # Errors
///
/// Propagated NVRAM, heap and runtime errors.
pub fn build(
    dev: &DeviceModel,
    key_space: u64,
    preload: usize,
    seed: u64,
) -> Result<(System, Vec<KvOp>), PError> {
    let stripe = PMemBuilder::new()
        .len(dev.region_len())
        .flush_latency(dev.flush_latency)
        .build_striped(SHARDS);
    let store =
        ShardedKvStore::format(stripe.regions(), dev.nbuckets, dev.log_cap, KvVariant::Nsrl)?;
    let mut tables = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let region = stripe.region(s);
        let table = KvRequestTable::format(region.clone(), store.heap(s), TABLE_CAP)?;
        region.write_u64(POffset::new(TABLE_ROOT_OFF), table.base().get())?;
        region.flush(POffset::new(TABLE_ROOT_OFF), 8)?;
        tables.push(table);
    }
    let history = preload_store(&store, key_space, preload, seed)?;

    let control = PMemBuilder::new()
        .len(CONTROL_LEN)
        .flush_latency(dev.flush_latency)
        .build_in_memory();
    let rt = StripedRuntime::format(
        control.clone(),
        stripe.clone(),
        RuntimeConfig::new(WORKERS).stack_capacity(8 * 1024),
        &registry(&store, &tables)?,
    )?;
    let exec = KvServeFunction::new(store, tables);
    let core = ServerCore::new(exec.clone(), QUEUE_CAPACITY, BATCH);
    Ok((
        System {
            control,
            stripe,
            exec,
            rt,
            core,
        },
        history,
    ))
}

fn preload_store(
    store: &ShardedKvStore,
    key_space: u64,
    versions: usize,
    seed: u64,
) -> Result<Vec<KvOp>, PError> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5052_454C_4F41_4400);
    let mut history = Vec::with_capacity(versions);
    let mut next = 0u64;
    while (next as usize) < versions {
        let n = PRELOAD_CHUNK.min(versions - next as usize);
        let mut batch = store.batch();
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            next += 1;
            let key = rng.random_range(0..key_space);
            let value = rng.random_range(-1_000..=1_000i64);
            batch.put(PRELOAD_PID, next, key, value);
            ops.push((next, key, value));
        }
        for ((seq, key, value), applied) in ops.into_iter().zip(batch.commit()?) {
            history.push(KvOp {
                pid: PRELOAD_PID,
                seq,
                kind: KvOpKind::Put,
                key,
                value,
                expected: 0,
                answer: KvAnswer::Stored(applied.took_effect()),
            });
        }
    }
    Ok(history)
}

/// When each recovery step ended, and what recovery replayed.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySteps {
    /// `marks[0]` is the start; `marks[i]` the end of step `i`:
    /// 1. `reopen_all_with` (regions reopened, registry rebuilt);
    /// 2. `ShardedKvStore::open`, `KvRequestTable::open`,
    ///    `StripedRuntime::open`;
    /// 3. `StripedRuntime::recover(Parallel)`;
    /// 4. `ServerCore::new`.
    pub marks: [Instant; 5],
    /// Frames replayed by step 3.
    pub frames: usize,
    /// Persist round-trips the new boot paid during steps 1–4.
    pub persists: u64,
}

impl RecoverySteps {
    /// Wall time of step `i` (1-based, as in [`RecoverySteps::marks`]).
    pub fn step(&self, i: usize) -> Duration {
        self.marks[i] - self.marks[i - 1]
    }
}

/// Reboots a crashed system: the four recovery steps, each timed.
///
/// # Errors
///
/// Propagated open or recovery errors (no kills are armed during
/// recovery, so a crash here is a bug).
pub fn recover(crashed: &System) -> Result<(System, RecoverySteps), PError> {
    let t0 = Instant::now();
    let next = crashed.rt.reopen_all_with(|_, stripe| {
        let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl)?;
        registry(&store, &open_tables(stripe)?)
    })?;
    let (control, stripe) = (next.control().clone(), next.stripe().clone());
    drop(next);
    let t1 = Instant::now();
    let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl)?;
    let tables = open_tables(&stripe)?;
    let rt = StripedRuntime::open(control.clone(), stripe.clone(), &registry(&store, &tables)?)?;
    let t2 = Instant::now();
    let report = rt.recover(RecoveryMode::Parallel)?;
    let t3 = Instant::now();
    let exec = KvServeFunction::new(store, tables);
    let core = ServerCore::new(exec.clone(), QUEUE_CAPACITY, BATCH);
    let t4 = Instant::now();
    let sys = System {
        control,
        stripe,
        exec,
        rt,
        core,
    };
    let steps = RecoverySteps {
        marks: [t0, t1, t2, t3, t4],
        frames: report.total_frames(),
        persists: sys.persists(),
    };
    Ok((sys, steps))
}
