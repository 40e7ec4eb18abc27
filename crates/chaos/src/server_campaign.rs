//! The live-load serving campaign: closed-loop clients with timeouts
//! and backoff retries against a [`ServerCore`] whose batch windows run
//! on the [`StripedRuntime`] — and power failures landing mid-flight in
//! the stripe, in the control region, and inside recovery passes.
//!
//! The property under test is **durable linearizability from the
//! client's chair**: across every crash/recover cycle a client observes
//! only `Done`/`Retry`/`Overloaded` responses, every operation it
//! completes took effect **exactly once** in the store, and no ack is
//! ever lost (the campaign terminates with every client finished — the
//! server's answers are durable before they are visible, so a crash
//! between execution and delivery only costs a retry, never an effect).
//!
//! The harness is a discrete-event simulation on the crate's virtual
//! clock ([`VirtualClock`]): client timeouts, backoff jitter and the
//! per-iteration service tick are all virtual nanoseconds, so a whole
//! campaign — schedules, kills, recoveries, SLO percentiles — is
//! reproducible from its seed. A power failure is modeled exactly as
//! the paper's whole-system crash (§2.2): the first region to trip its
//! fail-point takes every other region down, the wire loses all
//! in-flight frames ([`ChannelHub::reset`]), and the clients experience
//! a connection reset ([`ClientSim::on_crash`]) — they back off and
//! retransmit under the retry contract, never abandoning a request.
//!
//! The verdict is built from the **clients' own observations** (their
//! completed ops, tagged `(pid = client_id, seq = req_id)`) against the
//! store's published chain witnesses — the server-side request tables
//! recycle answered slots, so only the clients hold the full history.
//! [`check_kv_sharded_gen`] then enforces exactly-once effects: a
//! duplicated mutation would publish two records under one tag, a lost
//! effect would leave an acked mutation without its record.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pstack_core::{
    CrashRegion, CrashSite, FunctionRegistry, PError, RecoveryMode, RuntimeConfig, StripedRuntime,
};
use pstack_kv::{shard_of, KvRequestTable, KvTaskOp, KvVariant, ShardedKvStore};
use pstack_nvram::{
    FailPlan, PMem, PMemBuilder, PMemStripe, POffset, PsanViolation, StatsSnapshot,
};
use pstack_server::proto::{kind_of, RequestBody, Response};
use pstack_server::{
    ChannelConn, ChannelHub, ClientConfig, ClientSim, ClientStats, Clock, KvServeFunction, OpClass,
    ServerCore, Submission, VirtualClock, KV_SERVE_FUNC_ID,
};
use pstack_telemetry::{TelemetrySummary, TraceSession};
use pstack_verify::{check_kv_sharded_gen, KvShardedHistory, KvVerdict, KvWitnessRecord};

/// Where each shard region persists its request-table base: inside the
/// 64-byte shard root, past the store's own offsets and past the task
/// table's slot at `TABLE_ROOT_OFF` (40).
pub(crate) const SERVE_TABLE_ROOT_OFF: u64 = 48;

const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
const RECOVERY_SALT: u64 = 0xD134_2543_DE82_EF95;

/// Configuration of one serving crash campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCampaignConfig {
    /// Closed-loop clients (ids `1..=clients`).
    pub clients: usize,
    /// Operations each client must complete (done **and** acked).
    pub ops_per_client: usize,
    /// Shards (independent regions) behind the server.
    pub shards: usize,
    /// Runtime worker threads. The default 1 keeps the whole campaign
    /// deterministic per seed; more workers stay correct but reorder
    /// window execution.
    pub workers: usize,
    /// Keys are zipfian ranks over `0..key_space`.
    pub key_space: u64,
    /// Zipf skew of the client key distributions.
    pub zipf_s: f64,
    /// Put/cas values are drawn from `-value_range..=value_range`.
    pub value_range: i64,
    /// Relative weights of (put, get, delete, cas) per client.
    pub op_mix: [u32; 4],
    /// Master seed; campaigns are deterministic given the seed (at
    /// `workers == 1`).
    pub seed: u64,
    /// Correct NSRL recovery or the no-scan bug (negative control).
    pub variant: KvVariant,
    /// Per-shard admission-queue capacity; excess load sheds as
    /// explicit `Overloaded` responses.
    pub queue_capacity: usize,
    /// Batch-window size: requests per group commit.
    pub batch: usize,
    /// Per-shard request-table slots — the bound on outstanding or
    /// unacked requests per shard.
    pub table_cap: u32,
    /// Crashes stop after this many, so the campaign terminates
    /// (recovery kills get their own budget of the same size).
    pub max_crashes: usize,
    /// Fail-point countdowns are drawn uniformly from this event
    /// window — smaller than a batch window's event footprint, so
    /// kills land mid-window.
    pub crash_window: (u64, u64),
    /// Probability a given shard region is armed in a given boot.
    pub crash_prob: f64,
    /// Probability of arming a kill inside each recovery pass.
    pub recovery_crash_prob: f64,
    /// NVRAM region length per shard.
    pub region_len: usize,
    /// Control-region length (superblock, stacks, heap).
    pub control_region_len: usize,
    /// Per-shard version-log capacity override; `None` provisions from
    /// the workload.
    pub log_cap_per_shard: Option<u64>,
    /// Virtual nanoseconds one serve iteration (admission + batch
    /// windows + delivery) takes — the clock clients measure latency
    /// on.
    pub service_tick_ns: u64,
    /// Virtual nanoseconds a reboot + recovery costs the clients —
    /// crash cycles show up in the SLO tail, as they would in
    /// production.
    pub reboot_penalty_ns: u64,
    /// Shadow every region with the persist-order sanitizer.
    pub psan: bool,
    /// Record the campaign with the flight recorder.
    pub telemetry: bool,
}

impl ServerCampaignConfig {
    /// Defaults: 4 shards served in batch windows of 4 over a
    /// 64-slot-per-shard request table, one deterministic worker, and
    /// kills armed aggressively while the crash budget lasts.
    #[must_use]
    pub fn new(clients: usize, ops_per_client: usize, seed: u64) -> Self {
        ServerCampaignConfig {
            clients,
            ops_per_client,
            shards: 4,
            workers: 1,
            key_space: 16,
            zipf_s: 0.99,
            value_range: 100,
            op_mix: [4, 3, 2, 1],
            seed,
            variant: KvVariant::Nsrl,
            queue_capacity: 64,
            batch: 4,
            table_cap: 64,
            max_crashes: 8,
            crash_window: (8, 60),
            crash_prob: 0.5,
            recovery_crash_prob: 0.3,
            region_len: 1 << 21,
            control_region_len: 1 << 20,
            log_cap_per_shard: None,
            service_tick_ns: 100_000,     // 0.1 ms per serve iteration
            reboot_penalty_ns: 3_000_000, // 3 ms per crash cycle
            psan: cfg!(feature = "psan"),
            telemetry: cfg!(feature = "telemetry"),
        }
    }

    /// Selects the recovery variant.
    #[must_use]
    pub fn variant(mut self, variant: KvVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the admission-queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }
}

/// p50/p99/p999 of one op class within one crash cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloStat {
    /// The op class the percentiles describe.
    pub class: OpClass,
    /// Operations of this class completed in the cycle.
    pub count: u64,
    /// Median latency (virtual ns, first send → `Done`).
    pub p50_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// 99.9th percentile latency.
    pub p999_ns: u64,
}

/// The SLO summary of one crash cycle (the ops completed between two
/// consecutive power failures; the last entry covers the tail after
/// the final crash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleSlo {
    /// Cycle index: `0..crashes` are inter-crash windows, the final
    /// entry is the post-recovery tail.
    pub cycle: usize,
    /// Per-class percentiles, in [`OpClass::ALL`] order, classes with
    /// no completions omitted.
    pub ops: Vec<SloStat>,
}

/// Outcome of one serving crash campaign.
#[derive(Debug, Clone)]
pub struct ServerCampaignReport {
    /// Boots of the serving stack (1 + one per crash cycle).
    pub boots: usize,
    /// Whole-system power failures during serving.
    pub crashes: usize,
    /// Kills that landed inside stack-driven recovery passes.
    pub recovery_crashes: usize,
    /// Frames completed by stack-driven recovery across all cycles.
    pub recovered_frames: usize,
    /// Attribution of each crash: the region that tripped it.
    pub crash_sites: Vec<CrashSite>,
    /// The client-observed execution plus the store's chain witnesses.
    pub history: KvShardedHistory,
    /// The sharded exactly-once/linearizability verdict.
    pub verdict: KvVerdict,
    /// Client counters summed over the population.
    pub client_stats: ClientStats,
    /// Requests admitted into shard queues, summed over all boots.
    pub admitted: u64,
    /// Requests shed as explicit `Overloaded`, summed over all boots.
    pub shed: u64,
    /// Per-cycle SLO summaries (p50/p99/p999 per op class).
    pub slo: Vec<CycleSlo>,
    /// Aggregate NVRAM statistics across all regions and boots.
    pub stats: StatsSnapshot,
    /// Persist-order sanitizer findings (expected empty).
    pub psan_violations: Vec<PsanViolation>,
    /// Virtual time the campaign spanned.
    pub virtual_duration_ns: u64,
    /// Flight-recorder summary; `None` when recording was off.
    pub telemetry: Option<TelemetrySummary>,
}

impl ServerCampaignReport {
    /// `true` if the client-observed execution passed the sharded
    /// exactly-once check.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// Total crash/recover cycles (serving kills + recovery kills).
    #[must_use]
    pub fn total_crashes(&self) -> usize {
        self.crashes + self.recovery_crashes
    }

    /// Renders the per-cycle SLO table (the form the campaign test
    /// prints under `--nocapture`).
    #[must_use]
    pub fn render_slo(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<7} {:<8} {:>7} {:>12} {:>12} {:>12}",
            "cycle", "class", "count", "p50", "p99", "p999"
        );
        for cycle in &self.slo {
            for s in &cycle.ops {
                let _ = writeln!(
                    out,
                    "  {:<7} {:<8} {:>7} {:>9.2}ms {:>9.2}ms {:>9.2}ms",
                    cycle.cycle,
                    s.class.label(),
                    s.count,
                    s.p50_ns as f64 / 1e6,
                    s.p99_ns as f64 / 1e6,
                    s.p999_ns as f64 / 1e6,
                );
            }
        }
        out
    }
}

/// Opens the per-shard request tables from their persisted roots.
fn open_req_tables(stripe: &PMemStripe) -> Result<Vec<KvRequestTable>, PError> {
    (0..stripe.len())
        .map(|s| {
            let base = stripe
                .region(s)
                .read_u64(POffset::new(SERVE_TABLE_ROOT_OFF))?;
            KvRequestTable::open(stripe.region(s).clone(), POffset::new(base))
        })
        .collect()
}

/// What ended one boot of the serving stack.
enum BootOutcome {
    /// Every client finished (done and acked) — the campaign is over.
    Quiescent,
    /// A power failure; the whole system is down and attributed.
    Crashed(Option<CrashSite>),
}

/// Exact order statistic from a sorted latency vector.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Folds the latencies each client recorded since its mark into one
/// per-class SLO entry, advancing the marks.
fn capture_cycle_slo(cycle: usize, clients: &[ClientSim], marks: &mut [usize]) -> Option<CycleSlo> {
    let mut by_class: Vec<Vec<u64>> = vec![Vec::new(); OpClass::ALL.len()];
    for (c, mark) in clients.iter().zip(marks.iter_mut()) {
        let lat = c.latencies();
        for &(class, ns) in &lat[*mark..] {
            let i = OpClass::ALL
                .iter()
                .position(|&k| k == class)
                .expect("every class is in ALL");
            by_class[i].push(ns);
        }
        *mark = lat.len();
    }
    let ops: Vec<SloStat> = by_class
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(i, mut v)| {
            v.sort_unstable();
            SloStat {
                class: OpClass::ALL[i],
                count: v.len() as u64,
                p50_ns: percentile(&v, 0.5),
                p99_ns: percentile(&v, 0.99),
                p999_ns: percentile(&v, 0.999),
            }
        })
        .collect();
    (!ops.is_empty()).then_some(CycleSlo { cycle, ops })
}

fn transport_err(e: std::io::Error) -> PError {
    PError::Task(format!("serving transport: {e}"))
}

/// One boot's serving loop: jump the virtual clock to the next client
/// wake, move frames through the hub, admit, execute batch windows on
/// the runtime, deliver. Ends when every client finished or a power
/// failure takes the system down (whichever region observed it first
/// trips all the others, matching §2.2's whole-system model).
#[allow(clippy::too_many_arguments)]
fn serve_boot(
    cfg: &ServerCampaignConfig,
    core: &ServerCore,
    rt: &StripedRuntime,
    stripe: &PMemStripe,
    hub: &ChannelHub,
    conns: &[ChannelConn],
    clients: &mut [ClientSim],
    clock: &VirtualClock,
    cycle_seed: u64,
) -> Result<BootOutcome, PError> {
    // A crash surfacing on the direct admission path (a shard
    // fail-point firing under a descriptor persist) is a power failure
    // like any other: propagate it system-wide and attribute it.
    let trip_direct = || -> BootOutcome {
        let site = stripe.crash_site().map(|(shard, events)| CrashSite {
            region: CrashRegion::Shard(shard),
            events,
        });
        rt.crash_all(cycle_seed, 0.0);
        BootOutcome::Crashed(site)
    };
    // req_id → op for the `kind` echo in deferred Done responses;
    // volatile per boot on purpose — after a crash the retransmission
    // repopulates it.
    let mut in_flight: HashMap<u64, KvTaskOp> = HashMap::new();

    loop {
        // Jump to the earliest instant any client acts.
        let Some(wake) = clients.iter().filter_map(ClientSim::next_wake).min() else {
            return Ok(BootOutcome::Quiescent);
        };
        clock.advance_to(wake);
        let now = clock.now_ns();

        // Clients transmit (fresh ops, retransmissions, acks).
        for (c, conn) in clients.iter_mut().zip(conns) {
            if let Some(req) = c.poll(now) {
                if let RequestBody::Op(op) = req.body {
                    in_flight.insert(req.req_id, op);
                }
                conn.send(&req);
            }
        }

        // Admission: dedup, queue, or shed — every frame gets either an
        // immediate response or a seat in a batch window.
        while let Some(req) = hub.poll_request().map_err(transport_err)? {
            let resp = match req.body {
                RequestBody::Ack => match core.ack(req.req_id) {
                    Ok(_) => Some(Response::AckOk { req_id: req.req_id }),
                    Err(e) if e.is_crash() => return Ok(trip_direct()),
                    Err(e) => return Err(e),
                },
                RequestBody::Op(op) => match core.submit(req.req_id, op) {
                    Ok(Submission::Answered(answer)) => Some(Response::Done {
                        req_id: req.req_id,
                        kind: kind_of(op),
                        answer,
                    }),
                    Ok(Submission::Overloaded) => Some(Response::Overloaded { req_id: req.req_id }),
                    Ok(Submission::Stale) => Some(Response::Stale { req_id: req.req_id }),
                    Ok(Submission::Queued) => None,
                    Err(e) if e.is_crash() => return Ok(trip_direct()),
                    Err(e) => return Err(e),
                },
            };
            if let Some(resp) = resp {
                hub.respond(&resp);
            }
        }

        // Batch windows through the persistent stack: one task per
        // non-idle shard. A crash here lands inside a group commit, a
        // descriptor answer persist, or the stack discipline itself.
        let (tasks, ids) = core.drain_tasks();
        if !tasks.is_empty() {
            let report = rt.run_tasks(tasks);
            if report.crashed {
                return Ok(BootOutcome::Crashed(report.crash_site));
            }
            let answers = match core.answers_for(&ids) {
                Ok(answers) => answers,
                Err(e) if e.is_crash() => return Ok(trip_direct()),
                Err(e) => return Err(e),
            };
            for (req_id, answer) in answers {
                let resp = match answer {
                    Some(answer) => Response::Done {
                        req_id,
                        kind: in_flight.get(&req_id).map_or(0, |&op| kind_of(op)),
                        answer,
                    },
                    // The window did not answer this entry (its task
                    // erred); the client's timeout re-drives it.
                    None => Response::Retry { req_id },
                };
                hub.respond(&resp);
            }
        }

        // Service time passes, then responses land.
        clock.advance(cfg.service_tick_ns);
        let now = clock.now_ns();
        for (c, conn) in clients.iter_mut().zip(conns) {
            while let Some(resp) = conn.try_recv().map_err(transport_err)? {
                c.deliver(now, &resp);
            }
        }
    }
}

/// Runs one live-load serving crash campaign. Deterministic per
/// configuration at `workers == 1`.
///
/// # Errors
///
/// Propagates setup failures; power failures and their recoveries are
/// the experiment, not errors.
///
/// # Panics
///
/// Panics if a runtime worker thread panics.
///
/// # Example
///
/// ```
/// use pstack_chaos::{run_server_campaign, ServerCampaignConfig};
///
/// # fn main() -> Result<(), pstack_core::PError> {
/// let report = run_server_campaign(&ServerCampaignConfig::new(2, 6, 11))?;
/// assert!(report.is_linearizable());
/// assert_eq!(report.client_stats.completed, 12);
/// # Ok(())
/// # }
/// ```
pub fn run_server_campaign(cfg: &ServerCampaignConfig) -> Result<ServerCampaignReport, PError> {
    let session = cfg.telemetry.then(TraceSession::start);
    let mut report = run_server_campaign_inner(cfg)?;
    report.telemetry = session.map(|s| s.finish().summary());
    Ok(report)
}

#[allow(clippy::too_many_lines)]
fn run_server_campaign_inner(cfg: &ServerCampaignConfig) -> Result<ServerCampaignReport, PError> {
    assert!(cfg.clients > 0, "at least one client");
    assert!(cfg.ops_per_client > 0, "clients need work");
    assert!(cfg.shards > 0, "at least one shard");
    assert!(cfg.workers > 0, "at least one worker");
    assert!(cfg.key_space > 0, "empty key space");
    assert!(cfg.batch > 0 && cfg.queue_capacity > 0, "window shape");
    assert!(cfg.table_cap > 0, "request tables need slots");

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let total_ops = (cfg.clients * cfg.ops_per_client) as u64;
    // Every op publishes at most one record; crash orphans add at most
    // one staged batch per window source per cycle (both budgets).
    let log_cap = cfg.log_cap_per_shard.unwrap_or(
        total_ops * 2 + (cfg.max_crashes as u64 * 2 + 1) * (cfg.batch as u64 + 1) * 2 + 64,
    );
    let nbuckets = cfg.key_space.max(4);

    // Buffered regions: descriptor persists are line-atomic and batch
    // windows group-commit, so kills land inside real multi-op windows.
    let mut stripe = PMemBuilder::new()
        .len(cfg.region_len)
        .psan(cfg.psan)
        .build_striped(cfg.shards);
    {
        let store = ShardedKvStore::format(stripe.regions(), nbuckets, log_cap, cfg.variant)?;
        for s in 0..cfg.shards {
            let table =
                KvRequestTable::format(stripe.region(s).clone(), store.heap(s), cfg.table_cap)?;
            stripe
                .region(s)
                .write_u64(POffset::new(SERVE_TABLE_ROOT_OFF), table.base().get())?;
            stripe
                .region(s)
                .flush(POffset::new(SERVE_TABLE_ROOT_OFF), 8)?;
        }
    }
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

    // The boot-time registry builder: the serve function re-attached to
    // the freshly opened store and tables.
    let make_registry =
        |store: &ShardedKvStore, tables: &[KvRequestTable]| -> Result<FunctionRegistry, PError> {
            let mut registry = FunctionRegistry::new();
            registry.register(
                KV_SERVE_FUNC_ID,
                KvServeFunction::new(store.clone(), tables.to_vec()).into_arc(),
            )?;
            Ok(registry)
        };
    let attach = |control: &PMem,
                  stripe: &PMemStripe|
     -> Result<(ShardedKvStore, KvServeFunction, StripedRuntime), PError> {
        let store = ShardedKvStore::open(stripe.regions(), cfg.variant)?;
        let tables = open_req_tables(stripe)?;
        let registry = make_registry(&store, &tables)?;
        let rt = StripedRuntime::open(control.clone(), stripe.clone(), &registry)?;
        let exec = KvServeFunction::new(store.clone(), tables);
        Ok((store, exec, rt))
    };
    let reboot = |rt: &StripedRuntime| -> Result<(PMem, PMemStripe), PError> {
        let next = rt.reopen_all_with(|_, stripe| {
            let store = ShardedKvStore::open(stripe.regions(), cfg.variant)?;
            let tables = open_req_tables(stripe)?;
            make_registry(&store, &tables)
        })?;
        Ok((next.control().clone(), next.stripe().clone()))
    };

    // The client population and its wire.
    let clock = VirtualClock::new();
    let hub = ChannelHub::new();
    let mut clients: Vec<ClientSim> = (0..cfg.clients)
        .map(|i| {
            ClientSim::new(ClientConfig {
                client_id: i as u32 + 1,
                n_ops: cfg.ops_per_client,
                key_space: cfg.key_space,
                zipf_s: cfg.zipf_s,
                value_range: cfg.value_range,
                mix: cfg.op_mix,
                seed: cfg.seed ^ (i as u64 + 1).wrapping_mul(PHI),
                ..ClientConfig::default()
            })
        })
        .collect();
    let conns: Vec<ChannelConn> = (1..=cfg.clients as u32).map(|id| hub.connect(id)).collect();

    let mut boots = 0usize;
    let mut crashes = 0usize;
    let mut recovery_crashes = 0usize;
    let mut recovered_frames = 0usize;
    let mut crash_sites: Vec<CrashSite> = Vec::new();
    let mut stats = StatsSnapshot::default();
    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut slo: Vec<CycleSlo> = Vec::new();
    let mut marks = vec![0usize; clients.len()];

    loop {
        boots += 1;
        let (store, exec, rt) = attach(&control, &stripe)?;
        let rt = rt.crash_seed(cfg.seed ^ (boots as u64).wrapping_mul(PHI));
        // The front end is rebuilt every boot: queues are volatile by
        // design, and the clients' retries re-drive anything lost.
        let core = ServerCore::new(exec, cfg.queue_capacity, cfg.batch);

        // Arm kills while the budget lasts: shard fail-points with
        // window-sized countdowns, occasionally the control region so
        // the stack discipline is hit under live load too.
        if crashes + recovery_crashes < cfg.max_crashes {
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

        let cycle_seed = cfg.seed ^ (crashes as u64 + 1).wrapping_mul(RECOVERY_SALT);
        let outcome = serve_boot(
            cfg,
            &core,
            &rt,
            &stripe,
            &hub,
            &conns,
            &mut clients,
            &clock,
            cycle_seed,
        )?;
        admitted += core.admitted();
        shed += core.shed();

        match outcome {
            BootOutcome::Quiescent => {
                stripe.disarm_all();
                control.disarm_failpoint();
                stats = stats + stripe.aggregate_stats();
                let mut psan_violations = stripe.psan_violations();
                psan_violations.extend(control.psan_violations());
                // The tail since the last crash closes the SLO table.
                slo.extend(capture_cycle_slo(crashes, &clients, &mut marks));

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
                let ops = clients
                    .iter()
                    .flat_map(|c| c.observations().iter().cloned())
                    .collect();
                let history = KvShardedHistory { ops, shards };
                let nshards = cfg.shards;
                let verdict = check_kv_sharded_gen(
                    &history,
                    |key| shard_of(key, nshards),
                    &store.generations()?,
                );
                let mut client_stats = ClientStats::default();
                for c in &clients {
                    let s = c.stats();
                    client_stats.completed += s.completed;
                    client_stats.retransmits += s.retransmits;
                    client_stats.overloads += s.overloads;
                    client_stats.retry_signals += s.retry_signals;
                    client_stats.acks_sent += s.acks_sent;
                    client_stats.stale_signals += s.stale_signals;
                }
                return Ok(ServerCampaignReport {
                    boots,
                    crashes,
                    recovery_crashes,
                    recovered_frames,
                    crash_sites,
                    history,
                    verdict,
                    client_stats,
                    admitted,
                    shed,
                    slo,
                    stats,
                    psan_violations,
                    virtual_duration_ns: clock.now_ns(),
                    telemetry: None,
                });
            }
            BootOutcome::Crashed(site) => {
                crashes += 1;
                crash_sites.extend(site);
                stats = stats + stripe.aggregate_stats();
                slo.extend(capture_cycle_slo(crashes - 1, &clients, &mut marks));
                (control, stripe) = reboot(&rt)?;

                // Stack-driven recovery, possibly killed mid-pass:
                // reopen and retry until one pass completes.
                loop {
                    let (store, _exec, rt) = attach(&control, &stripe)?;
                    let rt = rt.crash_seed(
                        cfg.seed ^ (recovery_crashes as u64 + 1).wrapping_mul(RECOVERY_SALT),
                    );
                    if crashes + recovery_crashes < cfg.max_crashes * 2
                        && rng.random_bool(cfg.recovery_crash_prob)
                    {
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
                        // Per-shard evidence fan-out before any frame
                        // replays — the witness the recover duals' tag
                        // scans run against.
                        prelude_store.shard(shard).snapshot().map(|_| ())
                    });
                    match result {
                        Ok(rep) => {
                            stripe.disarm_all();
                            control.disarm_failpoint();
                            recovered_frames += rep.total_frames();
                            break;
                        }
                        Err(e) if e.is_crash() => {
                            recovery_crashes += 1;
                            crash_sites.extend(rt.last_crash_site());
                            stats = stats + stripe.aggregate_stats();
                            (control, stripe) = reboot(&rt)?;
                        }
                        Err(e) => return Err(e),
                    }
                }

                // The wire dies with the machine; the clients see a
                // reset, back off, and retransmit under the contract.
                hub.reset();
                clock.advance(cfg.reboot_penalty_ns);
                let now = clock.now_ns();
                for c in &mut clients {
                    c.on_crash(now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_campaign_exactly_once_under_live_load() {
        let report = run_server_campaign(&ServerCampaignConfig::new(4, 20, 33)).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "kills must land under live load");
        // Zero lost acks: the campaign only terminates quiescent, and
        // every client completed its full quota.
        assert_eq!(report.client_stats.completed, 80);
        assert_eq!(report.history.ops.len(), 80);
        assert!(
            report.client_stats.acks_sent >= report.client_stats.completed,
            "acks are at-least-once"
        );
        assert!(
            report.client_stats.retry_signals > 0,
            "crashes must be client-visible only as Retry signals"
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
        assert!(!report.slo.is_empty(), "per-cycle SLO summaries expected");
        assert!(
            report.slo.iter().all(|c| !c.ops.is_empty()),
            "every reported cycle carries percentiles"
        );
        println!(
            "server campaign: {} boots, {} crashes (+{} in recovery), {} admitted, {} shed",
            report.boots, report.crashes, report.recovery_crashes, report.admitted, report.shed
        );
        println!("{}", report.render_slo());
    }

    #[test]
    fn server_campaign_two_hundred_live_load_cycles() {
        // The acceptance gate: ≥ 200 live-load crash/recover cycles
        // across seeds — zero lost acks, zero duplicate effects, zero
        // PSan violations, SLO percentiles present in every campaign.
        let mut cycles = 0usize;
        let mut campaigns = 0usize;
        let mut recovery_kills = 0usize;
        for seed in 0u64.. {
            let cfg = ServerCampaignConfig::new(4, 16, 4000 + seed);
            let report = run_server_campaign(&cfg).unwrap();
            assert!(
                report.is_linearizable(),
                "seed {seed}: verdict {:?}",
                report.verdict
            );
            assert_eq!(report.client_stats.completed, 64, "seed {seed}: lost acks");
            assert!(
                report.psan_violations.is_empty(),
                "seed {seed}: sanitizer findings: {:?}",
                report.psan_violations
            );
            assert!(!report.slo.is_empty(), "seed {seed}: no SLO summary");
            cycles += report.total_crashes();
            recovery_kills += report.recovery_crashes;
            campaigns += 1;
            if cycles >= 200 {
                break;
            }
        }
        assert!(
            cycles >= 200,
            "only {cycles} crash cycles across {campaigns} campaigns"
        );
        assert!(
            recovery_kills > 0,
            "kills must land inside recovery passes too"
        );
        println!("server campaign gate: {cycles} cycles across {campaigns} campaigns");
    }

    #[test]
    fn pipelined_server_campaign_exactly_once_under_live_load() {
        // The exactly-once contract with kills landing while batch
        // windows hold un-awaited flush flights (descriptors, records,
        // epoch bumps, answers): the served path's only commit path.
        let cfg = ServerCampaignConfig::new(4, 20, 33);
        let report = run_server_campaign(&cfg).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.crashes > 0, "kills must land under live load");
        assert_eq!(report.client_stats.completed, 80);
        assert!(
            report.stats.async_flushes > 0,
            "batch windows never rode the pipeline"
        );
        assert!(
            report.psan_violations.is_empty(),
            "sanitizer findings: {:?}",
            report.psan_violations
        );
    }

    #[test]
    fn server_campaigns_are_deterministic_per_seed() {
        let cfg = ServerCampaignConfig::new(3, 12, 77);
        let a = run_server_campaign(&cfg).unwrap();
        let b = run_server_campaign(&cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.recovery_crashes, b.recovery_crashes);
        assert_eq!(a.boots, b.boots);
        assert_eq!(a.slo, b.slo);
        assert_eq!(a.client_stats, b.client_stats);
        assert_eq!(a.virtual_duration_ns, b.virtual_duration_ns);
    }

    #[test]
    fn server_campaign_sheds_overload_explicitly() {
        // A queue of 1 under 6 clients: load must shed as Overloaded
        // responses the clients observe — never a drop, never a panic —
        // and still complete exactly once.
        let cfg = ServerCampaignConfig::new(6, 10, 5).queue_capacity(1);
        let report = run_server_campaign(&cfg).unwrap();
        assert!(report.is_linearizable(), "verdict: {:?}", report.verdict);
        assert!(report.shed > 0, "tiny queue must shed");
        assert!(
            report.client_stats.overloads > 0,
            "sheds must surface as Overloaded responses"
        );
        assert_eq!(report.client_stats.completed, 60, "sheds lose nothing");
    }

    #[test]
    fn noscan_server_campaign_is_caught() {
        // Negative control: with the evidence scan removed, a replayed
        // window double-applies mutations whose records were already
        // published — the client-observed history then carries
        // duplicate tags and the checker must say so. Detection is
        // probabilistic per seed, so scan a crash-heavy configuration.
        let mut detected = 0usize;
        let mut runs = 0usize;
        for seed in 0u64..24 {
            if detected >= 2 {
                break;
            }
            let cfg = ServerCampaignConfig {
                max_crashes: 16,
                crash_prob: 0.8,
                crash_window: (4, 40),
                recovery_crash_prob: 0.5,
                ..ServerCampaignConfig::new(4, 16, 6000 + seed)
            }
            .variant(KvVariant::NoScan);
            let report = run_server_campaign(&cfg).unwrap();
            runs += 1;
            if !report.is_linearizable() {
                detected += 1;
            }
        }
        assert!(
            detected > 0,
            "no exactly-once violation detected in {runs} no-scan runs"
        );
    }
}
