//! The closed-loop harness: two `ClientSim`s multiplexed by one thread
//! over the in-process `ChannelHub`, admission through `ServerCore`,
//! batch windows through `StripedRuntime::run_tasks`, and seeded power
//! cuts followed by the four-step recovery.
//!
//! Clients keep their timeouts and backoff on a `VirtualClock` that
//! advances one service tick per loop round, so the operation sequence
//! depends on the seed alone; latencies are taken on the wall clock by
//! the harness, from an operation's first send to the `Done` delivered
//! for it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pstack_core::PError;
use pstack_kv::{shard_of, KvTaskOp};
use pstack_nvram::{FailPlan, StatsSnapshot};
use pstack_server::proto::{kind_of, RequestBody, Response};
use pstack_server::{
    ChannelConn, ChannelHub, ClientConfig, ClientSim, ClientStats, Clock, Submission, VirtualClock,
};
use pstack_verify::{KvAnswer, KvOp, KvOpKind};

use crate::system::{self, System, SHARDS};
use crate::trace::{Call, Tracer};

/// Logical clients.
pub const CLIENTS: usize = 2;
/// Virtual nanoseconds one loop round takes on the clients' clock.
const TICK_NS: u64 = 100_000;
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The traffic the clients generate.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Keys are zipf(0.99) ranks over `0..key_space`.
    pub key_space: u64,
    /// Relative weights of (put, get, delete, cas).
    pub mix: [u32; 4],
}

/// Where and how often power is cut.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Rounds with batch windows between two cuts, drawn uniformly.
    pub every_rounds: (u32, u32),
    /// Shard-region events into the window at which the cut lands,
    /// drawn uniformly (`FailPlan::after_events`).
    pub countdown: (u64, u64),
}

/// When a phase stops issuing fresh operations (it then drains the ones
/// in flight to their acks). Every set condition must hold.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stop {
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Operations started.
    pub ops: Option<u64>,
    /// Power cuts recovered.
    pub cycles: usize,
}

/// One recovery, as measured from outside.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Power cut observed → `ServerCore` rebuilt.
    pub total: Duration,
    /// Steps 1–3 (reopen, attach, replay).
    pub steps: [Duration; 3],
    /// Frames replayed.
    pub frames: usize,
    /// Persist round-trips paid by recovery.
    pub persists: u64,
    /// Version-log records in the store at recovery time.
    pub history_records: u64,
}

/// What a phase measured (one or several `Harness::run_phase` calls).
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time from the first round to the last ack.
    pub wall: Duration,
    /// Operations first sent.
    pub started: u64,
    /// Operations done and acked.
    pub completed: u64,
    /// Done mutations (put, delete, cas).
    pub mutations: u64,
    /// Puts answered `Stored(false)` (version log exhausted).
    pub log_full: u64,
    /// First send → `Done`, wall ns, indexed by [`class_index`].
    pub latency: [Vec<u64>; 4],
    /// Every recovery in the phase.
    pub recoveries: Vec<Recovery>,
    /// NVRAM counters of serving (recovery excluded), all regions.
    pub nvram: StatsSnapshot,
    /// Control-region persists inside `run_tasks`.
    pub control_persists: u64,
    /// Batch windows run.
    pub windows: u64,
    /// Requests carried by those windows.
    pub window_ops: u64,
    /// Wall ns of each `run_tasks` call that completed.
    pub rounds: Vec<u64>,
    /// Runtime task errors.
    pub task_errors: u64,
    /// `Submission::Answered` (retries answered from the table).
    pub dedup_answered: u64,
    /// `Submission::Overloaded`.
    pub shed: u64,
    /// `Submission::Stale`.
    pub stale: u64,
    /// Client counters over the phase.
    pub clients: ClientStats,
    /// Version-log records reserved during the phase.
    pub log_records: u64,
    /// Largest request-table occupancy of any shard.
    pub live_high_water: u64,
    /// `Queued` → the `drain_tasks` that took it, wall ns (traced only).
    pub queue_wait: Vec<u64>,
    /// Persists inside `ServerCore::submit` / calls (traced only).
    pub submit_persists: (u64, u64),
    /// Persists inside `ServerCore::ack` / calls (traced only).
    pub ack_persists: (u64, u64),
    /// Host CPU time stolen by the hypervisor / all CPU time, in
    /// `/proc/stat` ticks, over the phase (`None` where unavailable).
    pub host_steal: Option<(u64, u64)>,
}

impl Phase {
    /// The share of the host's CPU time the hypervisor gave to other
    /// guests during the phase.
    pub fn steal_frac(&self) -> Option<f64> {
        self.host_steal
            .map(|(steal, total)| steal as f64 / total.max(1) as f64)
    }
}

/// The host's (steal, total) CPU ticks from `/proc/stat`, where the
/// platform has one.
fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

enum Round {
    /// Nothing left to do: every client idle and no fresh ops allowed.
    Idle,
    /// A round ran.
    Ran,
    /// Power was cut during the round.
    Cut,
}

/// The benchmark's client population, wire and served system.
pub struct Harness {
    /// The current boot.
    pub sys: System,
    hub: ChannelHub,
    conns: Vec<ChannelConn>,
    clients: Vec<ClientSim>,
    clock: VirtualClock,
    rng: SmallRng,
    crash: Option<CrashPlan>,
    rounds_to_cut: u32,
    /// Wall time of each in-flight op's first send.
    first_sent: HashMap<u64, Instant>,
    ops: HashMap<u64, KvTaskOp>,
    queued_at: HashMap<u64, Instant>,
    /// The span recorder.
    pub tracer: Tracer,
}

fn io(e: std::io::Error) -> PError {
    PError::Task(format!("transport: {e}"))
}

/// Index of an op kind in [`Phase::latency`] (the `OpClass::ALL` order).
pub fn class_index(kind: KvOpKind) -> usize {
    match kind {
        KvOpKind::Put => 0,
        KvOpKind::Get => 1,
        KvOpKind::Delete => 2,
        KvOpKind::Cas => 3,
    }
}

impl Harness {
    /// Connects `CLIENTS` clients with seeds derived from `seed`.
    pub fn new(sys: System, traffic: Traffic, seed: u64) -> Self {
        let hub = ChannelHub::new();
        let clients = (0..CLIENTS)
            .map(|i| {
                ClientSim::new(ClientConfig {
                    client_id: i as u32 + 1,
                    n_ops: usize::MAX,
                    key_space: traffic.key_space,
                    zipf_s: 0.99,
                    mix: traffic.mix,
                    seed: seed ^ (i as u64 + 1).wrapping_mul(PHI),
                    ..ClientConfig::default()
                })
            })
            .collect();
        let conns = (1..=CLIENTS as u32).map(|id| hub.connect(id)).collect();
        Harness {
            sys,
            hub,
            conns,
            clients,
            clock: VirtualClock::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0xC4A5_4C0D_E5EE_D000),
            crash: None,
            rounds_to_cut: 0,
            first_sent: HashMap::new(),
            ops: HashMap::new(),
            queued_at: HashMap::new(),
            tracer: Tracer::new(false),
        }
    }

    /// Every operation the clients completed, tagged as the store's
    /// version records are.
    pub fn observations(&self) -> impl Iterator<Item = &KvOp> {
        self.clients.iter().flat_map(|c| c.observations().iter())
    }

    /// Client counters summed over the population.
    pub fn client_stats(&self) -> ClientStats {
        let mut t = ClientStats::default();
        for c in &self.clients {
            let s = c.stats();
            t.completed += s.completed;
            t.retransmits += s.retransmits;
            t.overloads += s.overloads;
            t.retry_signals += s.retry_signals;
            t.acks_sent += s.acks_sent;
            t.stale_signals += s.stale_signals;
        }
        t
    }

    /// Runs rounds until `stop` holds, then drains the operations in
    /// flight, adding what it measures to `ph`. Power is cut per
    /// `crash` (if any).
    ///
    /// # Errors
    ///
    /// Propagated errors other than the injected power cuts.
    pub fn run_phase(
        &mut self,
        ph: &mut Phase,
        stop: Stop,
        crash: Option<CrashPlan>,
    ) -> Result<(), PError> {
        self.crash = crash;
        self.draw_next_cut();
        let (started0, cuts0) = (ph.started, ph.recoveries.len());
        let clients0 = self.client_stats();
        let records0 = self.sys.log_records()?;
        let mut nvram0 = self.sys.stats();
        let cpu0 = host_cpu();
        let t0 = Instant::now();
        loop {
            let done = stop.deadline.map_or(true, |d| Instant::now() >= d)
                && stop.ops.map_or(true, |n| ph.started - started0 >= n)
                && ph.recoveries.len() - cuts0 >= stop.cycles;
            self.tracer.begin_round();
            let round = self.round(ph, !done);
            self.tracer.end_round();
            match round? {
                Round::Idle => break,
                Round::Ran => {}
                Round::Cut => {
                    ph.nvram = ph.nvram + (self.sys.stats() - nvram0);
                    ph.live_high_water = ph.live_high_water.max(self.sys.live_high_water());
                    self.recover(ph)?;
                    nvram0 = self.sys.stats();
                }
            }
        }
        ph.wall += t0.elapsed();
        if let (Some((s0, t0)), Some((s1, t1))) = (cpu0, host_cpu()) {
            let (steal, total) = ph.host_steal.unwrap_or_default();
            ph.host_steal = Some((steal + s1 - s0, total + t1 - t0));
        }
        ph.nvram = ph.nvram + (self.sys.stats() - nvram0);
        ph.live_high_water = ph.live_high_water.max(self.sys.live_high_water());
        ph.log_records += self.sys.log_records()? - records0;
        let now = self.client_stats();
        let c = &mut ph.clients;
        c.completed += now.completed - clients0.completed;
        c.retransmits += now.retransmits - clients0.retransmits;
        c.overloads += now.overloads - clients0.overloads;
        c.retry_signals += now.retry_signals - clients0.retry_signals;
        c.acks_sent += now.acks_sent - clients0.acks_sent;
        c.stale_signals += now.stale_signals - clients0.stale_signals;
        // A cut armed near the end of the phase may not have fired.
        self.sys.stripe.disarm_all();
        self.sys.control.disarm_failpoint();
        Ok(())
    }

    fn draw_next_cut(&mut self) {
        if let Some(plan) = self.crash {
            self.rounds_to_cut = self
                .rng
                .random_range(plan.every_rounds.0..=plan.every_rounds.1);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn round(&mut self, ph: &mut Phase, issuing: bool) -> Result<Round, PError> {
        // Clients transmit: fresh ops (while issuing), retransmissions
        // and acks. The virtual clock jumps to the earliest client wake.
        let active = |c: &ClientSim| issuing || c.current_req_id().is_some();
        let Some(wake) = self
            .clients
            .iter()
            .filter(|c| active(c))
            .filter_map(ClientSim::next_wake)
            .min()
        else {
            return Ok(Round::Idle);
        };
        self.clock.advance_to(wake);
        let now = self.clock.now_ns();
        for (c, conn) in self.clients.iter_mut().zip(&self.conns) {
            if !active(c) {
                continue;
            }
            let Some(req) = self.tracer.call(Call::ClientPoll, 0, || c.poll(now)) else {
                continue;
            };
            if let RequestBody::Op(op) = req.body {
                if let Entry::Vacant(first) = self.first_sent.entry(req.req_id) {
                    first.insert(Instant::now());
                    self.ops.insert(req.req_id, op);
                    ph.started += 1;
                }
            }
            self.tracer.call(Call::Send, req.req_id, || conn.send(&req));
        }

        // Admission: every frame gets a response or a window seat.
        let traced = self.tracer.is_on();
        let mut window_shards: Vec<usize> = Vec::new();
        loop {
            let hub = &self.hub;
            let Some(req) = self
                .tracer
                .call(Call::PollRequest, 0, || hub.poll_request())
                .map_err(io)?
            else {
                break;
            };
            let id = req.req_id;
            let core = &self.sys.core;
            let before = if traced { self.sys.persists() } else { 0 };
            let resp = match req.body {
                RequestBody::Ack => {
                    let acked = self.tracer.call(Call::Ack, id, || core.ack(id));
                    if traced {
                        ph.ack_persists.0 += self.sys.persists() - before;
                        ph.ack_persists.1 += 1;
                    }
                    match acked {
                        Ok(_) => Some(Response::AckOk { req_id: id }),
                        Err(e) if e.is_crash() => return Ok(self.cut_direct()),
                        Err(e) => return Err(e),
                    }
                }
                RequestBody::Op(op) => {
                    let sub = self.tracer.call(Call::Submit, id, || core.submit(id, op));
                    if traced {
                        ph.submit_persists.0 += self.sys.persists() - before;
                        ph.submit_persists.1 += 1;
                    }
                    match sub {
                        Ok(Submission::Queued) => {
                            if traced {
                                self.queued_at.entry(id).or_insert_with(Instant::now);
                            }
                            window_shards.push(shard_of(op.key(), SHARDS));
                            None
                        }
                        Ok(Submission::Answered(answer)) => {
                            ph.dedup_answered += 1;
                            Some(Response::Done {
                                req_id: id,
                                kind: kind_of(op),
                                answer,
                            })
                        }
                        Ok(Submission::Overloaded) => {
                            ph.shed += 1;
                            Some(Response::Overloaded { req_id: id })
                        }
                        Ok(Submission::Stale) => {
                            ph.stale += 1;
                            Some(Response::Stale { req_id: id })
                        }
                        Err(e) if e.is_crash() => return Ok(self.cut_direct()),
                        Err(e) => return Err(e),
                    }
                }
            };
            if let Some(resp) = resp {
                let hub = &self.hub;
                self.tracer.call(Call::Respond, id, || hub.respond(&resp));
            }
        }

        // Batch windows through the persistent stack.
        let core = &self.sys.core;
        let (tasks, ids) = self.tracer.call(Call::Drain, 0, || core.drain_tasks());
        if traced {
            let taken = Instant::now();
            for id in &ids {
                if let Some(t) = self.queued_at.remove(id) {
                    ph.queue_wait.push((taken - t).as_nanos() as u64);
                }
            }
        }
        if !tasks.is_empty() {
            self.maybe_arm_cut(&window_shards);
            let windows = tasks.len() as u64;
            let control0 = self.sys.control.stats().snapshot().persists;
            let rt = &self.sys.rt;
            let t = Instant::now();
            let report = self.tracer.call(Call::RunTasks, 0, || rt.run_tasks(tasks));
            let took = t.elapsed();
            if report.crashed {
                return Ok(Round::Cut);
            }
            ph.rounds.push(took.as_nanos() as u64);
            ph.windows += windows;
            ph.window_ops += ids.len() as u64;
            ph.task_errors += report.task_errors as u64;
            ph.control_persists += self.sys.control.stats().snapshot().persists - control0;
            let core = &self.sys.core;
            let answers = match self
                .tracer
                .call(Call::Answers, 0, || core.answers_for(&ids))
            {
                Ok(answers) => answers,
                Err(e) if e.is_crash() => return Ok(self.cut_direct()),
                Err(e) => return Err(e),
            };
            for (req_id, answer) in answers {
                let resp = match answer {
                    Some(answer) => Response::Done {
                        req_id,
                        kind: self.ops.get(&req_id).map_or(0, |&op| kind_of(op)),
                        answer,
                    },
                    // The window left it unanswered; the client retries.
                    None => Response::Retry { req_id },
                };
                let hub = &self.hub;
                self.tracer
                    .call(Call::Respond, req_id, || hub.respond(&resp));
            }
        }

        // A service tick passes; responses land.
        self.clock.advance(TICK_NS);
        let now = self.clock.now_ns();
        for (c, conn) in self.clients.iter_mut().zip(&self.conns) {
            while let Some(resp) = self
                .tracer
                .call(Call::Recv, 0, || conn.try_recv())
                .map_err(io)?
            {
                let (seen, done) = (c.observations().len(), c.stats().completed);
                self.tracer
                    .call(Call::ClientDeliver, resp.req_id(), || c.deliver(now, &resp));
                if c.observations().len() > seen {
                    let op = c.observations().last().expect("an op was just observed");
                    let sent = self
                        .first_sent
                        .remove(&op.seq)
                        .expect("every observed op was sent");
                    self.ops.remove(&op.seq);
                    ph.latency[class_index(op.kind)].push(sent.elapsed().as_nanos() as u64);
                    if op.kind != KvOpKind::Get {
                        ph.mutations += 1;
                    }
                    if op.answer == KvAnswer::Stored(false) {
                        ph.log_full += 1;
                    }
                }
                ph.completed += c.stats().completed - done;
            }
        }
        Ok(Round::Ran)
    }

    /// Arms a cut inside one of this round's windows when it is due.
    fn maybe_arm_cut(&mut self, window_shards: &[usize]) {
        let Some(plan) = self.crash else {
            return;
        };
        if window_shards.is_empty() {
            return;
        }
        if self.rounds_to_cut > 0 {
            self.rounds_to_cut -= 1;
            return;
        }
        let shard = window_shards[self.rng.random_range(0..window_shards.len())];
        let countdown = self.rng.random_range(plan.countdown.0..=plan.countdown.1);
        self.sys
            .stripe
            .region(shard)
            .arm_failpoint(FailPlan::after_events(countdown));
        self.rounds_to_cut = u32::MAX; // re-drawn after the recovery
    }

    /// A cut surfaced outside `run_tasks` (an armed region died under a
    /// descriptor or ack persist): take the whole system down.
    fn cut_direct(&mut self) -> Round {
        self.sys.rt.crash_all(self.rng.random(), 0.0);
        Round::Cut
    }

    fn recover(&mut self, ph: &mut Phase) -> Result<(), PError> {
        let cut = Instant::now();
        let (sys, steps) = system::recover(&self.sys)?;
        for (call, i) in [
            (Call::Reopen, 1),
            (Call::Attach, 2),
            (Call::Replay, 3),
            (Call::Front, 4),
        ] {
            self.tracer
                .record(call, steps.marks[i - 1], steps.marks[i], 0);
        }
        self.sys = sys;
        ph.recoveries.push(Recovery {
            total: steps.marks[4] - cut,
            steps: [steps.step(1), steps.step(2), steps.step(3)],
            frames: steps.frames,
            persists: steps.persists,
            history_records: self.sys.log_records()?,
        });
        // The wire dies with the machine; clients see a reset and
        // retransmit under the retry contract.
        self.hub.reset();
        self.queued_at.clear();
        let now = self.clock.now_ns();
        for c in &mut self.clients {
            c.on_crash(now);
        }
        self.draw_next_cut();
        Ok(())
    }
}
