//! The serving core: admission → durable descriptor → batch window →
//! durable answer → ack, with every step crash-safe.
//!
//! # Exactly-once, in two layers
//!
//! A retried request must take effect at most once while its ack is
//! delivered at least once. Two durable mechanisms compose to give
//! that:
//!
//! 1. **The request table** ([`KvRequestTable`], one per shard): a
//!    request's descriptor is durable before its window executes
//!    anything, so a retry of an answered request replays the durable
//!    answer and a retry of a pending request re-enters execution
//!    without a second slot. Admission only *issues* the descriptor's
//!    persist; the window waits for it before its first effect
//!    publishes (PSan checks this), by which time the device latency
//!    has usually passed.
//! 2. **The store's evidence scan**: version records are tagged
//!    `(pid = client_id, seq = req_id)` — a tag stable across retries
//!    and across executing workers. Any execution that *might* be a
//!    re-execution (a retried pending slot, or a window replayed by
//!    stack recovery) runs through the store's `recover_*` duals, which
//!    scan for the tag first and take **no new effect** if the first
//!    execution's record was already published. The table is the fast
//!    path; the evidence scan is the authority.
//!
//! The rule that makes layer 2 sufficient: a window is executed as a
//! plain group commit ([`PKvStore::apply_batch_begin`]) only the
//! *first* time its requests are
//! drained in the boot that admitted them. Every other path — client
//! retries, post-reboot re-admission, persistent-stack frame replay —
//! goes through [`PKvStore::recover_batch`]. Running a never-executed
//! request through the recovery dual is safe (no evidence → executes
//! normally), so the recovery path is a safe superset and a window
//! containing any retried entry simply runs entirely as recovery. A
//! replayed window also carries each entry's request id and skips a
//! slot that no longer holds it: the window's frame can be durable
//! while the crash lost the descriptor's flight.
//!
//! # Round-trips per served mutation
//!
//! On a device where every persist round-trip costs the same latency,
//! a served mutation waits on six, all in its window: two for the
//! persistent-stack CALL, one for its records and log tail (two flights
//! awaited together, which also complete the window's descriptor
//! flights), one for the bucket heads, one for the flush-epoch bump and
//! the answers (two flights awaited together), and one for the RET.
//! Admission waits on none; the client's ack waits on one.
//!
//! [`PKvStore::apply_batch_begin`]: pstack_kv::PKvStore::apply_batch_begin
//! [`PKvStore::recover_batch`]: pstack_kv::PKvStore::recover_batch
//!
//! # Admission control
//!
//! Volatile [`AdmissionQueue`]s (one per shard) sit between the
//! transports and the batch windows. A request is answered
//! [`Submission::Overloaded`] — never silently dropped — when its
//! shard's queue is at capacity **or** its shard's request table has no
//! recyclable slot. Queues are volatile on purpose: a power failure
//! empties them, and the clients' retry loops re-drive every lost
//! request through the dedup path above.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use pstack_core::{
    Admission, AdmissionQueue, PContext, PError, RecoverableFunction, RetBytes, Task,
};
use pstack_kv::{
    KvApplied, KvBatchOp, KvRequestTable, KvTaskAnswer, KvTaskOp, KvTaskResult, ReqSubmit,
    ShardedKvStore,
};
use pstack_nvram::{op_label, FlushTicket};

use crate::proto::{client_of, kind_of, Request, RequestBody, Response};

/// Registry id of [`KvServeFunction`] (0x0FFC..0x0FFE are taken by the
/// KV task/compact functions).
pub const KV_SERVE_FUNC_ID: u64 = 0x0FFB;

/// Outcome of admitting one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// The durable answer already exists (first execution completed —
    /// this was a retry). Respond `Done` immediately.
    Answered(KvTaskAnswer),
    /// The request sits in its shard's queue; the answer arrives after
    /// the next batch window executes.
    Queued,
    /// Shed: the shard's queue or request table is full. Respond
    /// `Overloaded`; the client backs off and retries.
    Overloaded,
    /// Shed: the id was already acked and its slot recycled — a buggy
    /// client broke the retry contract. Respond `Stale`; re-admitting
    /// would re-execute an effect that already ran exactly once.
    Stale,
}

/// One batch window: its shard, whether it must run through the
/// recovery duals, and its `(slot, req_id)` entries.
type Window = (u32, bool, Vec<(u32, u64)>);

/// One queued request, with the execution mode it must use.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    req_id: u64,
    slot: u32,
    /// `true` if this entry *might* have executed before (a retry of a
    /// pending slot) — it and its whole window must run through the
    /// evidence-scanning recovery duals.
    recovery: bool,
}

#[derive(Debug)]
struct ShardQueue {
    queue: AdmissionQueue<WindowEntry>,
    /// Request ids currently sitting in `queue` — dedupes retry
    /// re-enqueues so one request never occupies two queue slots.
    queued: Mutex<HashSet<u64>>,
}

/// The durable half of the server: the sharded store plus one request
/// table per shard. Registered as the recoverable function executing
/// batch windows ([`KV_SERVE_FUNC_ID`]), and shared by [`ServerCore`]
/// for direct (runtime-less) pumping.
#[derive(Clone)]
pub struct KvServeFunction {
    store: ShardedKvStore,
    tables: Vec<KvRequestTable>,
}

impl KvServeFunction {
    /// Bundles a sharded store with one request table per shard.
    ///
    /// # Panics
    ///
    /// Panics if the table count differs from the store's shard count.
    #[must_use]
    pub fn new(store: ShardedKvStore, tables: Vec<KvRequestTable>) -> Self {
        assert_eq!(store.nshards(), tables.len(), "one request table per shard");
        KvServeFunction { store, tables }
    }

    /// Wraps into the `Arc<dyn RecoverableFunction>` shape the registry
    /// wants.
    #[must_use]
    pub fn into_arc(self) -> Arc<dyn RecoverableFunction> {
        Arc::new(self)
    }

    /// The sharded store being served.
    #[must_use]
    pub fn store(&self) -> &ShardedKvStore {
        &self.store
    }

    /// The per-shard request tables.
    #[must_use]
    pub fn tables(&self) -> &[KvRequestTable] {
        &self.tables
    }

    /// Encodes a batch window as task arguments:
    /// `[shard u32][recovery u8][count u32][(slot u32, req_id u64) × count]`.
    /// The request ids let a replayed window tell a slot that still
    /// holds its request from one whose descriptor was lost in the
    /// crash (see [`KvServeFunction::execute_windows`]).
    #[must_use]
    pub fn window_args(shard: u32, recovery: bool, entries: &[(u32, u64)]) -> Vec<u8> {
        let mut b = Vec::with_capacity(9 + entries.len() * 12);
        b.extend_from_slice(&shard.to_le_bytes());
        b.push(u8::from(recovery));
        b.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for &(slot, req_id) in entries {
            b.extend_from_slice(&slot.to_le_bytes());
            b.extend_from_slice(&req_id.to_le_bytes());
        }
        b
    }

    fn parse_args(args: &[u8]) -> Result<Window, PError> {
        if args.len() < 9 {
            return Err(PError::Task(
                "serve window arguments need (shard, recovery, count)".into(),
            ));
        }
        let shard = u32::from_le_bytes(args[..4].try_into().expect("slice length"));
        let recovery = args[4] != 0;
        let count = u32::from_le_bytes(args[5..9].try_into().expect("slice length")) as usize;
        if args.len() != 9 + count * 12 {
            return Err(PError::Task(format!(
                "serve window names {count} slots but carries {} bytes",
                args.len()
            )));
        }
        let entries = args[9..]
            .chunks_exact(12)
            .map(|c| {
                (
                    u32::from_le_bytes(c[..4].try_into().expect("slice length")),
                    u64::from_le_bytes(c[4..].try_into().expect("slice length")),
                )
            })
            .collect();
        Ok((shard, recovery, entries))
    }

    /// Executes one round of batch windows, at most one per shard, and
    /// returns the `(req_id, answer)` pairs they answered.
    ///
    /// Each window skips entries whose slot no longer holds their
    /// request (a frame replayed over a descriptor lost in the crash),
    /// replays already-durable answers, resolves gets against committed
    /// state and group-commits its mutations. Non-recovery windows are
    /// **begun** first — each shard's record/log-tail persists are
    /// issued as flush flights, back to back across the shard regions —
    /// and committed afterwards; each commit waits for its slots'
    /// descriptors ([`KvRequestTable::await_descriptors`]) before its
    /// first bucket-head CAS. Windows with a retried entry run through
    /// the evidence-scanning [`PKvStore::recover_batch`] dual instead,
    /// serially.
    ///
    /// Once a window's heads are durable its flush-epoch bump and its
    /// answers ([`KvRequestTable::issue_answers`]) are issued as two
    /// flights; every flight is awaited before any pair is returned —
    /// answers are durable before they are visible, for one round-trip
    /// per region.
    ///
    /// [`PKvStore::recover_batch`]: pstack_kv::PKvStore::recover_batch
    ///
    /// # Errors
    ///
    /// Shard out of range ([`PError::Task`]), or propagated store/NVRAM
    /// errors.
    pub fn execute_windows(
        &self,
        windows: &[Window],
        executor: u32,
    ) -> Result<Vec<(u64, KvTaskAnswer)>, PError> {
        let _label = op_label("server.window");
        let mut begun = Vec::new();
        let mut committed = Vec::new();
        for (shard, recovery, entries) in windows {
            let stage = self.stage_window(*shard, entries, executor)?;
            let pstore = self.store.shard(stage.shard);
            let ops: Vec<KvBatchOp> = stage.staged.iter().map(|&(_, _, op)| op).collect();
            if *recovery {
                // The evidence-scanning duals stay serial: recovery is
                // off the hot path by design, and mixing scans into an
                // open pipeline would buy nothing.
                let _label = op_label("server.window.recover");
                stage.table.await_descriptors(&stage.mutation_slots())?;
                let outcomes = pstore.recover_batch(&ops)?;
                committed.push((stage, outcomes, None));
            } else {
                begun.push((stage, pstore.apply_batch_begin(&ops)?));
            }
        }
        for (stage, batch) in begun {
            let slots = stage.mutation_slots();
            let (outcomes, epoch) =
                batch.commit_deferred(|| stage.table.await_descriptors(&slots))?;
            committed.push((stage, outcomes, epoch));
        }
        let mut ready = Vec::new();
        let mut flights = Vec::new();
        for (stage, outcomes, epoch) in committed {
            let shard = stage.shard;
            let answered = Self::finish_window(stage, outcomes, &mut ready)?;
            flights.extend(epoch.into_iter().chain(answered).map(|t| (t, shard)));
        }
        // Youngest first: flights complete in issue order, so each
        // region's first await drains the rest of its flights.
        flights.sort_unstable_by(|a, b| b.cmp(a));
        for (ticket, shard) in flights {
            self.store.shard(shard).pmem().await_ticket(&ticket)?;
        }
        Ok(ready)
    }

    /// The read-and-stage half of a window: skips stale entries,
    /// replays already-durable answers, resolves gets against committed
    /// state, and collects the mutations to group-commit.
    fn stage_window(
        &self,
        shard: u32,
        entries: &[(u32, u64)],
        executor: u32,
    ) -> Result<WindowStage<'_>, PError> {
        let table = self.tables.get(shard as usize).ok_or_else(|| {
            PError::Task(format!(
                "shard {shard} out of range ({} shards)",
                self.tables.len()
            ))
        })?;
        let pstore = self.store.shard(shard as usize);
        let mut answers: Vec<(u32, u32, KvTaskResult)> = Vec::new();
        let mut ready: Vec<(u64, KvTaskAnswer)> = Vec::new();
        let mut staged: Vec<(u32, u64, KvBatchOp)> = Vec::new();
        for &(slot, req_id) in entries {
            // A window's frame can be durable while a crash lost its
            // descriptor flight: the slot then holds nothing or its
            // previous occupant, and executing it would run a phantom
            // request. The client's retry re-admits the real one.
            if table.req_id(slot)? != req_id {
                continue;
            }
            if let Some(answer) = table.result(slot)? {
                ready.push((req_id, answer)); // already durable: replay only
                continue;
            }
            let pid = u64::from(client_of(req_id));
            match table.op(slot)? {
                KvTaskOp::Get { key } => {
                    answers.push((slot, executor, KvTaskResult::Got(pstore.get(key)?)));
                }
                KvTaskOp::Put { key, value } => staged.push((
                    slot,
                    req_id,
                    KvBatchOp::Put {
                        pid,
                        seq: req_id,
                        key,
                        value,
                    },
                )),
                KvTaskOp::Delete { key } => staged.push((
                    slot,
                    req_id,
                    KvBatchOp::Delete {
                        pid,
                        seq: req_id,
                        key,
                    },
                )),
                KvTaskOp::Cas { key, expected, new } => staged.push((
                    slot,
                    req_id,
                    KvBatchOp::Cas {
                        pid,
                        seq: req_id,
                        key,
                        expected,
                        new,
                    },
                )),
            }
        }
        Ok(WindowStage {
            shard: shard as usize,
            table,
            executor,
            answers,
            ready,
            staged,
        })
    }

    /// The answer half of a window: maps group-commit outcomes to
    /// results, issues all answers as one coalesced flight
    /// ([`KvRequestTable::issue_answers`]) and appends the `(req_id,
    /// answer)` pairs to `ready`. Returns that flight's ticket, which
    /// the caller must await before showing any pair to a client.
    fn finish_window(
        mut stage: WindowStage<'_>,
        outcomes: Vec<KvApplied>,
        ready: &mut Vec<(u64, KvTaskAnswer)>,
    ) -> Result<Option<FlushTicket>, PError> {
        for (&(slot, _, op), outcome) in stage.staged.iter().zip(outcomes) {
            let result = match op {
                KvBatchOp::Put { .. } => KvTaskResult::Stored(outcome.took_effect()),
                KvBatchOp::Delete { .. } => KvTaskResult::Deleted(outcome.took_effect()),
                KvBatchOp::Cas { .. } => KvTaskResult::Swapped(outcome.took_effect()),
            };
            stage.answers.push((slot, stage.executor, result));
        }
        let answered = stage.table.issue_answers(&stage.answers)?;
        ready.append(&mut stage.ready);
        for &(slot, executor, result) in &stage.answers {
            let req_id = stage.table.req_id(slot)?;
            ready.push((req_id, KvTaskAnswer { executor, result }));
        }
        Ok(answered)
    }
}

/// A batch window read and staged but not yet executed
/// ([`KvServeFunction::stage_window`]): replayed answers in `ready`,
/// get answers in `answers`, mutations awaiting their group commit in
/// `staged`.
struct WindowStage<'a> {
    shard: usize,
    table: &'a KvRequestTable,
    executor: u32,
    answers: Vec<(u32, u32, KvTaskResult)>,
    ready: Vec<(u64, KvTaskAnswer)>,
    staged: Vec<(u32, u64, KvBatchOp)>,
}

impl WindowStage<'_> {
    /// Slots of the staged mutations — the descriptors that must be
    /// durable before the window's first effect publishes.
    fn mutation_slots(&self) -> Vec<u32> {
        self.staged.iter().map(|&(slot, ..)| slot).collect()
    }
}

impl RecoverableFunction for KvServeFunction {
    fn call(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let done = self.execute_windows(&[Self::parse_args(args)?], ctx.pid as u32)?;
        Ok(Self::encode_count(done.len()))
    }

    fn recover(&self, ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<RetBytes>, PError> {
        let (shard, _, entries) = Self::parse_args(args)?;
        // A replayed frame might have executed before the crash: always
        // the evidence-scanning duals.
        let done = self.execute_windows(&[(shard, true, entries)], ctx.pid as u32)?;
        Ok(Self::encode_count(done.len()))
    }
}

impl KvServeFunction {
    fn encode_count(n: usize) -> Option<RetBytes> {
        let mut b = [0u8; 8];
        b[0] = 7; // serve-window marker
        b[1..5].copy_from_slice(&(n as u32).to_le_bytes());
        Some(b)
    }
}

/// The serving front end: per-shard admission queues over the durable
/// [`KvServeFunction`]. Rebuilt from the reopened store/tables after
/// every reboot (all its own state is volatile by design).
#[derive(Clone)]
pub struct ServerCore {
    exec: KvServeFunction,
    shards: Arc<Vec<ShardQueue>>,
    batch: usize,
}

impl ServerCore {
    /// Builds a server over `exec` with per-shard admission queues of
    /// `queue_capacity` and batch windows of at most `batch` requests.
    ///
    /// # Panics
    ///
    /// Panics on zero `queue_capacity` or `batch`.
    #[must_use]
    pub fn new(exec: KvServeFunction, queue_capacity: usize, batch: usize) -> Self {
        assert!(batch > 0, "batch windows need at least one slot");
        let shards = (0..exec.store.nshards())
            .map(|_| ShardQueue {
                queue: AdmissionQueue::new(queue_capacity),
                queued: Mutex::new(HashSet::new()),
            })
            .collect();
        ServerCore {
            exec,
            shards: Arc::new(shards),
            batch,
        }
    }

    /// The durable half (store + tables) this server fronts.
    #[must_use]
    pub fn exec(&self) -> &KvServeFunction {
        &self.exec
    }

    /// Total requests shed across all shards (queue-full + table-full).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.shed()).sum()
    }

    /// Total requests admitted into queues across all shards.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.admitted()).sum()
    }

    /// Admits one operation request. On [`Submission::Queued`] the
    /// descriptor's persist is in flight, not awaited: it is durable
    /// before the request's window executes, which waits for it before
    /// any effect publishes.
    ///
    /// # Errors
    ///
    /// Propagated table/NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if a queue lock is poisoned.
    pub fn submit(&self, req_id: u64, op: KvTaskOp) -> Result<Submission, PError> {
        let _label = op_label("server.submit");
        let shard = self.exec.store.shard_of(op.key());
        let table = &self.exec.tables[shard];
        let sq = &self.shards[shard];
        let (slot, recovery) = match table.submit(req_id, op)? {
            ReqSubmit::Known {
                answer: Some(a), ..
            } => return Ok(Submission::Answered(a)),
            // A retry of a still-pending request: re-enter execution,
            // but only ever through the recovery duals — its first
            // execution may be in flight or already published.
            ReqSubmit::Known { slot, answer: None } => (slot, true),
            ReqSubmit::Fresh(slot) => (slot, false),
            ReqSubmit::Full => return Ok(Submission::Overloaded),
            ReqSubmit::Stale => return Ok(Submission::Stale),
        };
        let mut queued = sq.queued.lock().expect("queued set poisoned");
        if queued.contains(&req_id) {
            return Ok(Submission::Queued); // already awaiting a window
        }
        match sq.queue.offer(WindowEntry {
            req_id,
            slot,
            recovery,
        }) {
            Admission::Admitted { .. } => {
                queued.insert(req_id);
                Ok(Submission::Queued)
            }
            // The slot stays pending; the client's retry re-offers it
            // (as a recovery entry) once the queue has drained.
            Admission::Shed => Ok(Submission::Overloaded),
        }
    }

    /// Records a client ack, searching every shard's table (the
    /// request → shard route is volatile and may be gone). Unknown ids
    /// — e.g. an ack retransmitted after its slot was recycled — are
    /// fine: acks are idempotent and always safe to confirm.
    ///
    /// # Errors
    ///
    /// Propagated table/NVRAM errors.
    pub fn ack(&self, req_id: u64) -> Result<bool, PError> {
        let _label = op_label("server.ack");
        for table in &self.exec.tables {
            if table.ack(req_id)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Drains each shard's queue into at most one batch-window entry
    /// list. Returns `(shard, recovery, (slot, req_id) entries)`
    /// triples; the caller
    /// decides how to execute them (directly, or as runtime tasks).
    ///
    /// # Panics
    ///
    /// Panics if a queue lock is poisoned.
    fn drain(&self) -> Vec<Window> {
        let mut windows = Vec::new();
        for (shard, sq) in self.shards.iter().enumerate() {
            let entries = sq.queue.drain_window(self.batch);
            if entries.is_empty() {
                continue;
            }
            let mut queued = sq.queued.lock().expect("queued set poisoned");
            for e in &entries {
                queued.remove(&e.req_id);
            }
            let recovery = entries.iter().any(|e| e.recovery);
            let entries = entries.iter().map(|e| (e.slot, e.req_id)).collect();
            windows.push((shard as u32, recovery, entries));
        }
        windows
    }

    /// Drains the queues into persistent-stack tasks (one batch window
    /// per non-idle shard) for `StripedRuntime::run_tasks`, plus the
    /// request ids each window will answer. After the run, collect the
    /// durable answers for those ids with [`ServerCore::answers_for`]
    /// (a crashed run simply leaves some pending — their clients retry).
    #[must_use]
    pub fn drain_tasks(&self) -> (Vec<Task>, Vec<u64>) {
        let mut tasks = Vec::new();
        let mut req_ids = Vec::new();
        for (shard, recovery, entries) in self.drain() {
            tasks.push(Task::new(
                KV_SERVE_FUNC_ID,
                KvServeFunction::window_args(shard, recovery, &entries),
            ));
            req_ids.extend(entries.iter().map(|&(_, req_id)| req_id));
        }
        (tasks, req_ids)
    }

    /// The durable answers currently on record for `req_ids` (`None`
    /// entries are still pending — e.g. their window crashed).
    ///
    /// # Errors
    ///
    /// Propagated table/NVRAM errors.
    pub fn answers_for(&self, req_ids: &[u64]) -> Result<Vec<(u64, Option<KvTaskAnswer>)>, PError> {
        let mut out = Vec::with_capacity(req_ids.len());
        for &req_id in req_ids {
            let mut found = None;
            for table in &self.exec.tables {
                if let Some((_, answer)) = table.lookup(req_id)? {
                    found = answer;
                    break;
                }
            }
            out.push((req_id, found));
        }
        Ok(out)
    }

    /// Executes one round of batch windows directly (no runtime): the
    /// transport servers' pump. Returns the newly durable `(req_id,
    /// answer)` pairs, ready to send.
    ///
    /// # Errors
    ///
    /// Propagated store/table/NVRAM errors.
    pub fn pump_direct(&self, executor: u32) -> Result<Vec<(u64, KvTaskAnswer)>, PError> {
        // One call for the whole round: the shards' flush flights
        // overlap across regions.
        self.exec.execute_windows(&self.drain(), executor)
    }

    /// Fully serves one request synchronously: admit, pump until its
    /// answer is durable, respond. The blocking transports use this;
    /// the campaign drives admission and windows separately.
    ///
    /// # Errors
    ///
    /// Propagated store/table/NVRAM errors.
    pub fn handle_sync(&self, req: &Request, executor: u32) -> Result<Response, PError> {
        let req_id = req.req_id;
        match req.body {
            RequestBody::Ack => {
                self.ack(req_id)?;
                Ok(Response::AckOk { req_id })
            }
            RequestBody::Op(op) => match self.submit(req_id, op)? {
                Submission::Overloaded => Ok(Response::Overloaded { req_id }),
                Submission::Stale => Ok(Response::Stale { req_id }),
                Submission::Answered(answer) => Ok(Response::Done {
                    req_id,
                    kind: kind_of(op),
                    answer,
                }),
                Submission::Queued => {
                    loop {
                        let done = self.pump_direct(executor)?;
                        if let Some(&(_, answer)) = done.iter().find(|&&(id, _)| id == req_id) {
                            return Ok(Response::Done {
                                req_id,
                                kind: kind_of(op),
                                answer,
                            });
                        }
                        if done.is_empty() {
                            // Queues drained without answering us — the
                            // request is pending but unqueued (sheds
                            // raced us). Ask the client to come back.
                            return Ok(Response::Retry { req_id });
                        }
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_kv::KvVariant;
    use pstack_nvram::{PMem, PMemBuilder};
    use pstack_verify::KvSpec;

    use crate::proto::req_id_for;

    fn fixture(nshards: usize, table_cap: u32) -> (Vec<PMem>, KvServeFunction) {
        let regions: Vec<PMem> = (0..nshards)
            .map(|_| {
                PMemBuilder::new()
                    .len(1 << 21)
                    .eager_flush(true)
                    .build_in_memory()
            })
            .collect();
        let store = ShardedKvStore::format(&regions, 64, 4096, KvVariant::Nsrl).unwrap();
        let tables: Vec<KvRequestTable> = (0..nshards)
            .map(|s| KvRequestTable::format(regions[s].clone(), store.heap(s), table_cap).unwrap())
            .collect();
        (regions, KvServeFunction::new(store, tables))
    }

    #[test]
    fn serve_put_get_exactly_once_with_retries() {
        let (_regions, exec) = fixture(2, 16);
        let core = ServerCore::new(exec, 32, 8);

        let put = req_id_for(1, 1);
        assert_eq!(
            core.submit(put, KvTaskOp::Put { key: 10, value: 42 })
                .unwrap(),
            Submission::Queued
        );
        // A duplicate delivery before the window runs occupies no
        // second queue slot.
        assert_eq!(
            core.submit(put, KvTaskOp::Put { key: 10, value: 42 })
                .unwrap(),
            Submission::Queued
        );
        let done = core.pump_direct(9).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, put);
        assert_eq!(done[0].1.result, KvTaskResult::Stored(true));

        // A retry after completion replays the durable answer.
        let Submission::Answered(a) = core
            .submit(put, KvTaskOp::Put { key: 10, value: 42 })
            .unwrap()
        else {
            panic!("retry must dedup")
        };
        assert_eq!(a.result, KvTaskResult::Stored(true));

        // The effect happened exactly once: one version record for the
        // key, and a get through the served path observes it.
        let get = req_id_for(1, 2);
        core.submit(get, KvTaskOp::Get { key: 10 }).unwrap();
        let done = core.pump_direct(9).unwrap();
        assert_eq!(done[0].1.result, KvTaskResult::Got(Some(42)));
        assert!(core.ack(put).unwrap());
        assert!(core.ack(get).unwrap());
        assert!(!core.ack(req_id_for(5, 5)).unwrap(), "unknown ids refuse");
        let mut spec = KvSpec::new();
        spec.put(10, 42);
        let served: std::collections::HashMap<u64, i64> = core
            .exec()
            .store()
            .contents()
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(served, *spec.contents());
    }

    #[test]
    fn retry_of_pending_slot_runs_recovery_dual_no_double_effect() {
        let (_regions, exec) = fixture(1, 16);
        let core = ServerCore::new(exec.clone(), 32, 8);
        let req = req_id_for(2, 1);
        core.submit(req, KvTaskOp::Put { key: 3, value: 1 })
            .unwrap();
        let done = core.pump_direct(1).unwrap();
        assert_eq!(done.len(), 1);

        // Simulate "executed but the client never heard": rebuild the
        // front end (volatile queues lost), client retries. The slot is
        // done, so the answer replays without touching the store.
        let core2 = ServerCore::new(exec.clone(), 32, 8);
        let Submission::Answered(a) = core2
            .submit(req, KvTaskOp::Put { key: 3, value: 1 })
            .unwrap()
        else {
            panic!("durable answer survives front-end loss")
        };
        assert_eq!(a.result, KvTaskResult::Stored(true));

        // Now the harder case: descriptor durable, execution never ran
        // (crash between admission and window). The retry re-enters as
        // a recovery entry and executes through the evidence scan.
        let req2 = req_id_for(2, 2);
        core2
            .submit(req2, KvTaskOp::Put { key: 4, value: 9 })
            .unwrap();
        let core3 = ServerCore::new(exec, 32, 8); // queues wiped again
        assert_eq!(
            core3
                .submit(req2, KvTaskOp::Put { key: 4, value: 9 })
                .unwrap(),
            Submission::Queued
        );
        let done = core3.pump_direct(1).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.result, KvTaskResult::Stored(true));
        // Exactly one record for key 4 despite two admissions.
        let snapshot = core3.exec().store.snapshot_sharded().unwrap();
        let records: usize = snapshot
            .iter()
            .flat_map(|buckets| buckets.iter())
            .flat_map(|chain| chain.iter())
            .filter(|r| r.key == 4)
            .count();
        assert_eq!(records, 1, "retry must not publish a second record");
    }

    #[test]
    fn overload_sheds_explicitly_and_recovers() {
        let (_regions, exec) = fixture(1, 64);
        let core = ServerCore::new(exec, 4, 4); // tiny queue
        let mut queued = 0u64;
        let mut shed = 0u64;
        for seq in 1..=32u32 {
            match core
                .submit(
                    req_id_for(3, seq),
                    KvTaskOp::Put {
                        key: u64::from(seq),
                        value: 0,
                    },
                )
                .unwrap()
            {
                Submission::Queued => queued += 1,
                Submission::Overloaded => shed += 1,
                Submission::Answered(_) | Submission::Stale => unreachable!("fresh ids"),
            }
        }
        assert_eq!(queued, 4, "queue admits exactly its capacity");
        assert_eq!(shed, 28, "every excess request sheds explicitly");
        assert_eq!(core.shed(), 28);
        // After a pump the shed requests' retries are admitted.
        core.pump_direct(1).unwrap();
        assert_eq!(
            core.submit(req_id_for(3, 5), KvTaskOp::Put { key: 5, value: 0 })
                .unwrap(),
            Submission::Queued
        );
    }

    #[test]
    fn table_full_maps_to_overloaded() {
        let (_regions, exec) = fixture(1, 2); // two slots only
        let core = ServerCore::new(exec, 32, 8);
        core.submit(req_id_for(4, 1), KvTaskOp::Put { key: 1, value: 1 })
            .unwrap();
        core.submit(req_id_for(4, 2), KvTaskOp::Put { key: 2, value: 2 })
            .unwrap();
        assert_eq!(
            core.submit(req_id_for(4, 3), KvTaskOp::Put { key: 3, value: 3 })
                .unwrap(),
            Submission::Overloaded,
            "no recyclable slot → shed"
        );
        // Answer + ack one → a slot recycles → admission reopens.
        core.pump_direct(1).unwrap();
        assert!(core.ack(req_id_for(4, 1)).unwrap());
        assert_eq!(
            core.submit(req_id_for(4, 3), KvTaskOp::Put { key: 3, value: 3 })
                .unwrap(),
            Submission::Queued
        );
    }

    #[test]
    fn handle_sync_serves_the_wire_types() {
        let (_regions, exec) = fixture(2, 16);
        let core = ServerCore::new(exec, 32, 8);
        let op = KvTaskOp::Cas {
            key: 8,
            expected: 0,
            new: 5,
        };
        let req = Request {
            req_id: req_id_for(6, 1),
            body: RequestBody::Op(op),
        };
        let Response::Done { answer, .. } = core.handle_sync(&req, 2).unwrap() else {
            panic!("cas on missing key still answers Done")
        };
        assert_eq!(answer.result, KvTaskResult::Swapped(false));
        let ack = Request {
            req_id: req.req_id,
            body: RequestBody::Ack,
        };
        assert_eq!(
            core.handle_sync(&ack, 2).unwrap(),
            Response::AckOk { req_id: req.req_id }
        );
    }

    #[test]
    fn window_task_replay_is_idempotent() {
        // The recover() path of the registered function re-executes a
        // window that already ran: answers must replay, not re-apply.
        let (regions, exec) = fixture(1, 16);
        let core = ServerCore::new(exec.clone(), 32, 8);
        let req = req_id_for(7, 1);
        core.submit(req, KvTaskOp::Put { key: 2, value: 3 })
            .unwrap();
        let (tasks, ids) = core.drain_tasks();
        assert_eq!(tasks.len(), 1);
        assert_eq!(ids, vec![req]);

        // Execute the window twice through the function's own paths,
        // mimicking call-then-replay.
        let slot = exec.tables[0].lookup(req).unwrap().unwrap().0;
        exec.execute_windows(&[(0, false, vec![(slot, req)])], 1)
            .unwrap();
        let replay = exec
            .execute_windows(&[(0, true, vec![(slot, req)])], 2)
            .unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(
            replay[0].1.executor, 1,
            "replay returns the original answer"
        );
        let store = ShardedKvStore::open(&regions, KvVariant::Nsrl).unwrap();
        let snapshot = store.snapshot_sharded().unwrap();
        let records: usize = snapshot
            .iter()
            .flat_map(|b| b.iter())
            .flat_map(|c| c.iter())
            .count();
        assert_eq!(records, 1);
    }
}
