//! A **bounded, request-id-keyed** descriptor/answer table — the
//! durable half of exactly-once serving.
//!
//! [`KvOpTable`](crate::KvOpTable) holds a *static* workload: every
//! descriptor is formatted up front and indexed by position. A serving
//! front end cannot do that — requests arrive forever, each tagged with
//! a client-chosen request id, and retried requests must be answered
//! from the durable record of their first execution, never re-executed.
//! [`KvRequestTable`] is the dynamic dual: a fixed-capacity slab of
//! slots, each holding one request's descriptor and (once executed) its
//! answer, looked up by request id.
//!
//! # Lifecycle and recycling
//!
//! A slot moves `Free → Pending → Done → Done+Acked → Free`:
//!
//! * [`KvRequestTable::submit`] claims a free slot, writes the
//!   descriptor and issues its persist without waiting for it, and
//!   returns [`ReqSubmit::Full`] — the admission-control signal — when
//!   no slot is recyclable. The executing window calls
//!   [`KvRequestTable::await_descriptors`] before any effect publishes,
//!   so an effect in the store always has a durable descriptor.
//! * [`KvRequestTable::mark_done`] / [`KvRequestTable::mark_done_batch`]
//!   make the answer payload durable no later than the one-byte done
//!   flag: both live in the slot's one cache line, written payload
//!   first, so one flush persists them together (the static table uses
//!   two ordered persists). A crash before that flush leaves the slot
//!   pending and recovery recomputes the answer through the store's
//!   evidence-scanning duals.
//! * [`KvRequestTable::ack`] records that the client received the
//!   answer. A slot that is both done and acked is **recyclable**: its
//!   next occupant overwrites it. This is what keeps a long-running
//!   server's answer table bounded (the table never grows; it sheds
//!   instead, see `Full` above).
//!
//! # The retry contract
//!
//! Recycling leans on the client contract: *a client never retransmits
//! a request after acknowledging its answer*. A retry of a live
//! request dedupes against the slot (pending → the caller routes it
//! through the recovery duals; done → the durable answer is replayed).
//! The contract is **not trusted blindly**: the table keeps a
//! per-client high-water line of acked sequence numbers, and a
//! retransmission at or below it whose slot has already been recycled
//! is shed as [`ReqSubmit::Stale`] instead of being admitted as a
//! fresh request — a buggy client gets a typed refusal, never a
//! second effect.
//!
//! # Crash safety of recycling
//!
//! Reusing a slot rewrites identity and descriptor fields in a fixed
//! order — completion state first (done/acked/flag cleared), descriptor
//! next, the request id **last** — and each slot is one 64-byte
//! cache-line-aligned extent, so a buffered region persists the whole
//! transition atomically. On an eager region a crash between the
//! individual writes can only produce a slot whose *old* request id
//! fronts a cleared completion state: a leak (its client acked and
//! will never ask again) that the next [`KvRequestTable::open`] counts
//! as live, never a new request paired with a stale answer.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pstack_core::PError;
use pstack_heap::PHeap;
use pstack_nvram::{FlushTicket, PMem, POffset};

use crate::funcs::{KvTaskAnswer, KvTaskOp, KvTaskResult};

const TABLE_MAGIC: u64 = 0x5053_4B56_5251_5431; // "PSKVRQT1"
const HEADER_LEN: u64 = 64; // keeps slot 0 cache-line aligned
const SLOT_STRIDE: u64 = 64; // one slot = one persist line

const KIND_PUT: u8 = 0;
const KIND_GET: u8 = 1;
const KIND_DEL: u8 = 2;
const KIND_CAS: u8 = 3;

const ST_DONE: u8 = 1;

// Slot field offsets (all inside the one 64-byte line).
const F_KIND: u64 = 0;
const F_DONE: u64 = 1;
const F_FLAG: u64 = 2;
const F_ACKED: u64 = 3;
const F_EXEC: u64 = 4;
const F_KEY: u64 = 8;
const F_VALUE: u64 = 16;
const F_EXPECTED: u64 = 24;
const F_GOT: u64 = 32;
const F_REQ_ID: u64 = 40;

/// Outcome of a [`KvRequestTable::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqSubmit {
    /// The request id was unknown; a slot now holds its descriptor
    /// (durable before its window executes) and the operation has
    /// never executed.
    Fresh(u32),
    /// The request id is already in the table — a retry. `answer` is
    /// the durable answer when the first execution completed, `None`
    /// while the slot is still pending (route the retry through the
    /// store's recovery duals).
    Known {
        /// The slot holding the request.
        slot: u32,
        /// The durable answer, if the request already completed.
        answer: Option<KvTaskAnswer>,
    },
    /// Every slot is occupied by a request that is not yet both done
    /// and acked — the admission-control signal (shed the request with
    /// an explicit overload response; never drop it silently).
    Full,
    /// The request id is at or below its client's acknowledged
    /// high-water `seq` but no longer in the table — a retransmission
    /// of an answered-and-acked (possibly recycled) request, which the
    /// retry contract forbids. Shed it with an explicit stale response;
    /// admitting it would hand a buggy client a **second effect** for
    /// an id that already executed.
    Stale,
}

/// Splits a `(client_id << 32) | seq` request id into its halves — the
/// identity convention of the serving layer, which is what makes a
/// per-client high-water line possible.
fn split_id(req_id: u64) -> (u32, u32) {
    ((req_id >> 32) as u32, req_id as u32)
}

/// Volatile bookkeeping rebuilt by [`KvRequestTable::open`]: the
/// request-id index and the recyclable-slot free list.
#[derive(Debug, Default)]
struct ReqIndex {
    /// Request id → slot, for every slot whose identity is still
    /// meaningful (pending, done-unacked, and done+acked slots that
    /// have not been recycled yet — the latter still serve dedup hits).
    by_id: HashMap<u64, u32>,
    /// Slots whose next occupant may overwrite them (never used, or
    /// done + acked).
    free: Vec<u32>,
    /// Slots handed out again after an earlier occupant completed.
    recycled: u64,
    /// High-water mark of live (non-recyclable) slots.
    live_high_water: u64,
    /// Per-client high-water of **acked** sequence numbers — the
    /// server-side guard behind the client's never-retransmit-after-ack
    /// promise. A submit whose `(client, seq)` is at or below this line
    /// and absent from `by_id` is a stale retransmission
    /// ([`ReqSubmit::Stale`]), not a fresh admission. Rebuilt
    /// best-effort by [`KvRequestTable::open`] from the done+acked
    /// slots still present (evidence in recycled slots is gone — the
    /// line re-grows as the client acks again).
    acked_high: HashMap<u32, u32>,
    /// The descriptor flight `submit` last issued for each slot.
    descriptors: HashMap<u32, FlushTicket>,
}

/// A persistent, bounded, request-id-keyed descriptor/answer table.
///
/// # Example
///
/// ```
/// use pstack_nvram::PMemBuilder;
/// use pstack_heap::PHeap;
/// use pstack_kv::{KvRequestTable, KvTaskOp, KvTaskResult, ReqSubmit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pmem = PMemBuilder::new().len(1 << 14).eager_flush(true).build_in_memory();
/// let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 14)?;
/// let table = KvRequestTable::format(pmem, &heap, 4)?;
///
/// // First delivery: a fresh slot.
/// let ReqSubmit::Fresh(slot) = table.submit(0x1_0001, KvTaskOp::Put { key: 9, value: 4 })? else {
///     panic!("fresh request");
/// };
/// table.mark_done(slot, 1, KvTaskResult::Stored(true))?;
///
/// // A retry dedupes against the durable answer instead of re-executing.
/// let ReqSubmit::Known { answer: Some(a), .. } =
///     table.submit(0x1_0001, KvTaskOp::Put { key: 9, value: 4 })? else {
///     panic!("retry must hit the table");
/// };
/// assert_eq!(a.result, KvTaskResult::Stored(true));
///
/// // Ack → the slot becomes recyclable.
/// assert!(table.ack(0x1_0001)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KvRequestTable {
    pmem: PMem,
    base: POffset,
    capacity: u32,
    idx: Arc<Mutex<ReqIndex>>,
}

impl KvRequestTable {
    /// Bytes of NVRAM needed for a `capacity`-slot table.
    #[must_use]
    pub fn required_len(capacity: u32) -> usize {
        (HEADER_LEN + u64::from(capacity) * SLOT_STRIDE) as usize
    }

    /// Allocates and persists an empty table of `capacity` slots.
    ///
    /// # Errors
    ///
    /// Heap or NVRAM errors, or [`PError::InvalidConfig`] for zero
    /// capacity.
    pub fn format(pmem: PMem, heap: &PHeap, capacity: u32) -> Result<Self, PError> {
        if capacity == 0 {
            return Err(PError::InvalidConfig(
                "request table needs at least one slot".into(),
            ));
        }
        let len = Self::required_len(capacity);
        let base = heap.alloc_aligned(len, 64)?;
        pmem.fill(base, 0, len)?;
        pmem.write_u64(base, TABLE_MAGIC)?;
        pmem.write_u64(base + 8u64, u64::from(capacity))?;
        pmem.flush(base, len)?;
        let idx = ReqIndex {
            free: (0..capacity).rev().collect(),
            ..ReqIndex::default()
        };
        Ok(KvRequestTable {
            pmem,
            base,
            capacity,
            idx: Arc::new(Mutex::new(idx)),
        })
    }

    /// Re-attaches to a table created at `base`, rebuilding the
    /// volatile request-id index and free list from the durable slots.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] on a bad magic word, NVRAM errors.
    pub fn open(pmem: PMem, base: POffset) -> Result<Self, PError> {
        let magic = pmem.read_u64(base)?;
        if magic != TABLE_MAGIC {
            return Err(PError::CorruptStack(format!(
                "bad request-table magic {magic:#x} at {base}"
            )));
        }
        let capacity = u32::try_from(pmem.read_u64(base + 8u64)?)
            .map_err(|_| PError::CorruptStack("request-table capacity overflow".into()))?;
        let mut idx = ReqIndex::default();
        for slot in (0..capacity).rev() {
            let e = Self::slot_off(base, slot);
            let req_id = pmem.read_u64(e + F_REQ_ID)?;
            if req_id == 0 {
                idx.free.push(slot);
                continue;
            }
            let done = pmem.read_u8(e + F_DONE)? == ST_DONE;
            let acked = pmem.read_u8(e + F_ACKED)? != 0;
            if done && acked {
                idx.free.push(slot);
                // Best-effort rebuild of the per-client acked
                // high-water line from the evidence still in the table
                // (recycled slots' evidence is gone; the line re-grows
                // as the client acks again).
                let (client, seq) = split_id(req_id);
                let hw = idx.acked_high.entry(client).or_insert(0);
                *hw = (*hw).max(seq);
            }
            // Done+acked slots stay in the index until recycled: a
            // duplicate retry that races the ack still dedupes.
            idx.by_id.insert(req_id, slot);
        }
        idx.live_high_water = u64::from(capacity) - idx.free.len() as u64;
        Ok(KvRequestTable {
            pmem,
            base,
            capacity,
            idx: Arc::new(Mutex::new(idx)),
        })
    }

    fn slot_off(base: POffset, slot: u32) -> POffset {
        base + (HEADER_LEN + u64::from(slot) * SLOT_STRIDE)
    }

    fn slot(&self, slot: u32) -> Result<POffset, PError> {
        if slot >= self.capacity {
            return Err(PError::InvalidConfig(format!(
                "slot {slot} out of range ({} slots)",
                self.capacity
            )));
        }
        Ok(Self::slot_off(self.base, slot))
    }

    /// The table's base offset (persist it to find the table again).
    #[must_use]
    pub fn base(&self) -> POffset {
        self.base
    }

    /// Number of slots — the hard bound on outstanding-or-unacked
    /// requests.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Slots currently holding a request that is not yet recyclable.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    #[must_use]
    pub fn live(&self) -> u64 {
        let idx = self.idx.lock().expect("request-table index poisoned");
        u64::from(self.capacity) - idx.free.len() as u64
    }

    /// High-water mark of live slots since this handle family opened —
    /// the number a bounded-growth assertion checks.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    #[must_use]
    pub fn live_high_water(&self) -> u64 {
        self.idx
            .lock()
            .expect("request-table index poisoned")
            .live_high_water
    }

    /// Slots handed out again after an earlier occupant was answered
    /// and acked.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    #[must_use]
    pub fn recycled(&self) -> u64 {
        self.idx
            .lock()
            .expect("request-table index poisoned")
            .recycled
    }

    /// Admits request `req_id` into the table: dedups against live and
    /// answered slots, sheds stale retransmissions of already-acked
    /// sequence numbers ([`ReqSubmit::Stale`]), claims (possibly
    /// recycling) a slot for a fresh id, and reports
    /// [`ReqSubmit::Full`] when nothing is recyclable. A fresh
    /// descriptor's persist is issued, not awaited: it is durable
    /// before its window executes, through
    /// [`KvRequestTable::await_descriptors`].
    ///
    /// # Errors
    ///
    /// [`PError::InvalidConfig`] for the reserved id 0, NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn submit(&self, req_id: u64, op: KvTaskOp) -> Result<ReqSubmit, PError> {
        if req_id == 0 {
            return Err(PError::InvalidConfig(
                "request id 0 is reserved for free slots".into(),
            ));
        }
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        if let Some(&slot) = idx.by_id.get(&req_id) {
            return Ok(ReqSubmit::Known {
                slot,
                answer: self.result(slot)?,
            });
        }
        // Stale-retransmission guard: the id is gone from the table but
        // its client already acked this seq (or a later one) — the slot
        // was legitimately recycled and re-admitting would re-execute.
        let (client, seq) = split_id(req_id);
        if idx.acked_high.get(&client).is_some_and(|&hw| seq <= hw) {
            return Ok(ReqSubmit::Stale);
        }
        let Some(slot) = idx.free.pop() else {
            return Ok(ReqSubmit::Full);
        };
        let e = self.slot(slot)?;
        let old_id = self.pmem.read_u64(e + F_REQ_ID)?;
        if old_id != 0 {
            idx.by_id.remove(&old_id);
            idx.recycled += 1;
        }
        // Completion state first, identity last (see module docs: an
        // eager-region crash inside this sequence can only leak the old
        // occupant, never marry the new id to stale state).
        self.pmem.write_u8(e + F_DONE, 0)?;
        self.pmem.write_u8(e + F_ACKED, 0)?;
        self.pmem.write_u8(e + F_FLAG, 0)?;
        self.pmem.write_u32(e + F_EXEC, 0)?;
        self.pmem.write_i64(e + F_GOT, 0)?;
        match op {
            KvTaskOp::Put { key, value } => {
                self.pmem.write_u8(e + F_KIND, KIND_PUT)?;
                self.pmem.write_u64(e + F_KEY, key)?;
                self.pmem.write_i64(e + F_VALUE, value)?;
                self.pmem.write_i64(e + F_EXPECTED, 0)?;
            }
            KvTaskOp::Get { key } => {
                self.pmem.write_u8(e + F_KIND, KIND_GET)?;
                self.pmem.write_u64(e + F_KEY, key)?;
                self.pmem.write_i64(e + F_VALUE, 0)?;
                self.pmem.write_i64(e + F_EXPECTED, 0)?;
            }
            KvTaskOp::Delete { key } => {
                self.pmem.write_u8(e + F_KIND, KIND_DEL)?;
                self.pmem.write_u64(e + F_KEY, key)?;
                self.pmem.write_i64(e + F_VALUE, 0)?;
                self.pmem.write_i64(e + F_EXPECTED, 0)?;
            }
            KvTaskOp::Cas { key, expected, new } => {
                self.pmem.write_u8(e + F_KIND, KIND_CAS)?;
                self.pmem.write_u64(e + F_KEY, key)?;
                self.pmem.write_i64(e + F_VALUE, new)?;
                self.pmem.write_i64(e + F_EXPECTED, expected)?;
            }
        }
        self.pmem.write_u64(e + F_REQ_ID, req_id)?;
        let ticket = self.pmem.flush_async(e, SLOT_STRIDE as usize)?;
        idx.descriptors.insert(slot, ticket);
        idx.by_id.insert(req_id, slot);
        let live = u64::from(self.capacity) - idx.free.len() as u64;
        idx.live_high_water = idx.live_high_water.max(live);
        Ok(ReqSubmit::Fresh(slot))
    }

    /// Makes the descriptors of `slots` durable (PSan checks it) — call
    /// it before the first effect of any of these requests publishes.
    /// Flights complete in issue order, so once a later flight on the
    /// region was awaited (a window's records, say) this waits for
    /// nothing.
    ///
    /// # Errors
    ///
    /// Out-of-range slot, or a crash while waiting.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn await_descriptors(&self, slots: &[u32]) -> Result<(), PError> {
        let youngest = {
            let mut idx = self.idx.lock().expect("request-table index poisoned");
            slots
                .iter()
                .filter_map(|slot| idx.descriptors.remove(slot))
                .max()
        };
        if let Some(ticket) = youngest {
            self.pmem.await_ticket(&ticket)?;
        }
        for &slot in slots {
            self.pmem
                .psan_check_durable(self.slot(slot)?, SLOT_STRIDE as usize);
        }
        Ok(())
    }

    /// Looks request `req_id` up without admitting anything.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn lookup(&self, req_id: u64) -> Result<Option<(u32, Option<KvTaskAnswer>)>, PError> {
        let idx = self.idx.lock().expect("request-table index poisoned");
        match idx.by_id.get(&req_id) {
            Some(&slot) => Ok(Some((slot, self.result(slot)?))),
            None => Ok(None),
        }
    }

    /// Reads slot `slot`'s request id (0 for never-used slots).
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn req_id(&self, slot: u32) -> Result<u64, PError> {
        Ok(self.pmem.read_u64(self.slot(slot)? + F_REQ_ID)?)
    }

    /// Reads slot `slot`'s operation.
    ///
    /// # Errors
    ///
    /// Out-of-range slot, an unknown kind byte (corruption), or NVRAM
    /// errors.
    pub fn op(&self, slot: u32) -> Result<KvTaskOp, PError> {
        let e = self.slot(slot)?;
        let key = self.pmem.read_u64(e + F_KEY)?;
        match self.pmem.read_u8(e + F_KIND)? {
            KIND_PUT => Ok(KvTaskOp::Put {
                key,
                value: self.pmem.read_i64(e + F_VALUE)?,
            }),
            KIND_GET => Ok(KvTaskOp::Get { key }),
            KIND_DEL => Ok(KvTaskOp::Delete { key }),
            KIND_CAS => Ok(KvTaskOp::Cas {
                key,
                expected: self.pmem.read_i64(e + F_EXPECTED)?,
                new: self.pmem.read_i64(e + F_VALUE)?,
            }),
            other => Err(PError::CorruptStack(format!(
                "slot {slot} has unknown kind {other}"
            ))),
        }
    }

    /// Reads slot `slot`'s answer, if its execution completed.
    ///
    /// # Errors
    ///
    /// Out-of-range slot, an unknown kind byte (corruption), or NVRAM
    /// errors.
    pub fn result(&self, slot: u32) -> Result<Option<KvTaskAnswer>, PError> {
        let e = self.slot(slot)?;
        if self.pmem.read_u8(e + F_DONE)? != ST_DONE {
            return Ok(None);
        }
        let executor = self.pmem.read_u32(e + F_EXEC)?;
        let flag = self.pmem.read_u8(e + F_FLAG)? != 0;
        let result = match self.pmem.read_u8(e + F_KIND)? {
            KIND_PUT => KvTaskResult::Stored(flag),
            KIND_GET => KvTaskResult::Got(if flag {
                Some(self.pmem.read_i64(e + F_GOT)?)
            } else {
                None
            }),
            KIND_DEL => KvTaskResult::Deleted(flag),
            KIND_CAS => KvTaskResult::Swapped(flag),
            other => {
                return Err(PError::CorruptStack(format!(
                    "slot {slot} has unknown kind {other}"
                )))
            }
        };
        Ok(Some(KvTaskAnswer { executor, result }))
    }

    /// `true` if slot `slot`'s answer was acknowledged by its client.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn acked(&self, slot: u32) -> Result<bool, PError> {
        Ok(self.pmem.read_u8(self.slot(slot)? + F_ACKED)? != 0)
    }

    fn write_answer(
        &self,
        slot: u32,
        executor: u32,
        result: KvTaskResult,
    ) -> Result<POffset, PError> {
        let e = self.slot(slot)?;
        self.pmem.write_u32(e + F_EXEC, executor)?;
        match result {
            KvTaskResult::Stored(ok) | KvTaskResult::Deleted(ok) | KvTaskResult::Swapped(ok) => {
                self.pmem.write_u8(e + F_FLAG, u8::from(ok))?;
            }
            KvTaskResult::Got(None) => {
                self.pmem.write_u8(e + F_FLAG, 0)?;
            }
            KvTaskResult::Got(Some(v)) => {
                self.pmem.write_i64(e + F_GOT, v)?;
                self.pmem.write_u8(e + F_FLAG, 1)?;
            }
        }
        Ok(e)
    }

    /// Persists slot `slot`'s answer: payload strictly before the done
    /// flag, so a crash in between leaves the request pending and
    /// recovery recomputes the answer through the evidence scan.
    ///
    /// Both sit in the slot's one cache line, written payload first,
    /// so a single flush orders them: a buffered region keeps or loses
    /// the whole line, and an eager one persists each write in program
    /// order.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn mark_done(&self, slot: u32, executor: u32, result: KvTaskResult) -> Result<(), PError> {
        self.mark_done_batch(&[(slot, executor, result)])
    }

    /// Persists a whole batch of answers with **one** coalesced persist
    /// — the answer half of a group-commit window, with
    /// [`KvRequestTable::mark_done`]'s per-slot ordering invariant
    /// preserved: each slot's payload and done flag share its line, and
    /// the flush persists whole lines, so a crash mid-flush leaves every
    /// slot either answered or pending, never flagged over a torn
    /// payload.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn mark_done_batch(&self, entries: &[(u32, u32, KvTaskResult)]) -> Result<(), PError> {
        if let Some(ticket) = self.issue_answers(entries)? {
            self.pmem.await_ticket(&ticket)?;
        }
        Ok(())
    }

    /// [`KvRequestTable::mark_done_batch`] without the wait: returns
    /// the ticket of the answers' flight (`None` for no entries), which
    /// must be awaited before any answer is shown to a client. Each
    /// slot's descriptor shares its line, so it rides the same flight.
    ///
    /// # Errors
    ///
    /// Out-of-range slot or NVRAM errors.
    pub fn issue_answers(
        &self,
        entries: &[(u32, u32, KvTaskResult)],
    ) -> Result<Option<FlushTicket>, PError> {
        let Some(&(first, ..)) = entries.first() else {
            return Ok(None);
        };
        let mut lo = Self::slot_off(self.base, first).get();
        let mut hi = lo;
        for &(slot, executor, result) in entries {
            let e = self.write_answer(slot, executor, result)?;
            self.pmem.write_u8(e + F_DONE, ST_DONE)?;
            lo = lo.min(e.get());
            hi = hi.max(e.get());
        }
        let span = (hi - lo + SLOT_STRIDE) as usize;
        Ok(Some(self.pmem.flush_async(POffset::new(lo), span)?))
    }

    /// Records the client's acknowledgement of `req_id`'s answer and
    /// frees the slot for recycling. Returns `false` for unknown ids
    /// (already recycled, or never admitted) and done-less slots
    /// (acks are only valid answers to a durable `Done`).
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    ///
    /// # Panics
    ///
    /// Panics if the volatile index lock is poisoned.
    pub fn ack(&self, req_id: u64) -> Result<bool, PError> {
        let mut idx = self.idx.lock().expect("request-table index poisoned");
        let Some(&slot) = idx.by_id.get(&req_id) else {
            return Ok(false);
        };
        let e = self.slot(slot)?;
        if self.pmem.read_u8(e + F_DONE)? != ST_DONE {
            return Ok(false);
        }
        if self.pmem.read_u8(e + F_ACKED)? == 0 {
            self.pmem.write_u8(e + F_ACKED, 1)?;
            self.pmem.flush(e + F_ACKED, 1)?;
            idx.free.push(slot);
        }
        // Advance the client's acked high-water line: from here on a
        // retransmission of this seq (or below) is shed as Stale once
        // its slot recycles.
        let (client, seq) = split_id(req_id);
        let hw = idx.acked_high.entry(client).or_insert(0);
        *hw = (*hw).max(seq);
        Ok(true)
    }

    /// Slots holding a request whose execution has not completed, in
    /// slot order — what a reboot re-drives through the recovery duals
    /// when the client retries.
    ///
    /// # Errors
    ///
    /// Propagated NVRAM errors.
    pub fn pending_slots(&self) -> Result<Vec<u32>, PError> {
        let mut out = Vec::new();
        for slot in 0..self.capacity {
            let e = self.slot(slot)?;
            if self.pmem.read_u64(e + F_REQ_ID)? != 0 && self.pmem.read_u8(e + F_DONE)? != ST_DONE {
                out.push(slot);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstack_nvram::PMemBuilder;

    fn fixture(capacity: u32) -> (PMem, KvRequestTable) {
        let pmem = PMemBuilder::new()
            .len(1 << 16)
            .eager_flush(true)
            .build_in_memory();
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, capacity).unwrap();
        (pmem, table)
    }

    #[test]
    fn submit_dedup_done_ack_round_trip() {
        let (pmem, table) = fixture(4);
        assert_eq!(table.capacity(), 4);
        assert_eq!(table.live(), 0);

        let op = KvTaskOp::Cas {
            key: 3,
            expected: -1,
            new: 7,
        };
        let ReqSubmit::Fresh(slot) = table.submit(0x7_0001, op).unwrap() else {
            panic!("fresh")
        };
        assert_eq!(table.op(slot).unwrap(), op);
        assert_eq!(table.req_id(slot).unwrap(), 0x7_0001);
        assert_eq!(table.live(), 1);
        assert_eq!(table.pending_slots().unwrap(), vec![slot]);

        // A retry before completion dedupes to the pending slot.
        assert_eq!(
            table.submit(0x7_0001, op).unwrap(),
            ReqSubmit::Known { slot, answer: None }
        );

        table
            .mark_done(slot, 7, KvTaskResult::Swapped(true))
            .unwrap();
        let ReqSubmit::Known {
            answer: Some(ans), ..
        } = table.submit(0x7_0001, op).unwrap()
        else {
            panic!("done retry")
        };
        assert_eq!(ans.executor, 7);
        assert_eq!(ans.result, KvTaskResult::Swapped(true));

        assert!(!table.acked(slot).unwrap());
        assert!(table.ack(0x7_0001).unwrap());
        assert!(table.acked(slot).unwrap());
        assert_eq!(table.live(), 0, "done+acked slots are recyclable");
        // Acks are idempotent; unknown ids are refused.
        assert!(table.ack(0x7_0001).unwrap());
        assert!(!table.ack(0xDEAD).unwrap());
        // Reopen rebuilds the same view.
        let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
        assert_eq!(t2.live(), 0);
        assert_eq!(
            t2.lookup(0x7_0001).unwrap().unwrap().1.unwrap().result,
            KvTaskResult::Swapped(true)
        );
    }

    #[test]
    fn ack_of_pending_slot_is_refused() {
        let (_, table) = fixture(2);
        table.submit(5, KvTaskOp::Get { key: 0 }).unwrap();
        assert!(!table.ack(5).unwrap(), "only durable answers can be acked");
        assert_eq!(table.live(), 1);
    }

    #[test]
    fn full_table_sheds_and_recycling_keeps_it_bounded() {
        // Satellite gate: a long-running server's answer table must not
        // grow without bound. 10× more requests than slots, each
        // answered and acked, all through a 8-slot table.
        let (_, table) = fixture(8);
        for req in 1..=80u64 {
            let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: req }).unwrap()
            else {
                panic!("req {req} should find a recycled slot")
            };
            table.mark_done(slot, 0, KvTaskResult::Got(None)).unwrap();
            assert!(table.ack(req).unwrap());
        }
        assert!(table.live_high_water() <= 8);
        assert_eq!(
            table.recycled(),
            79,
            "every request after the first reused a slot"
        );

        // Un-acked answers pin their slots: the table fills and sheds
        // explicitly instead of growing.
        for req in 100..108u64 {
            let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: 1 }).unwrap()
            else {
                panic!("slots free again")
            };
            table.mark_done(slot, 0, KvTaskResult::Got(None)).unwrap();
        }
        assert_eq!(
            table.submit(999, KvTaskOp::Get { key: 1 }).unwrap(),
            ReqSubmit::Full
        );
        assert_eq!(table.live(), 8);
        // Draining one ack frees exactly one admission.
        assert!(table.ack(100).unwrap());
        assert!(matches!(
            table.submit(999, KvTaskOp::Get { key: 1 }).unwrap(),
            ReqSubmit::Fresh(_)
        ));
    }

    #[test]
    fn recycled_req_id_retransmission_is_shed_as_stale() {
        // Regression: a buggy client that retransmits an id whose slot
        // has been recycled must not be re-admitted as Fresh — the
        // effect already executed and the evidence is gone. The
        // per-client acked high-water line sheds it as `Stale`.
        let id = |client: u32, seq: u32| (u64::from(client) << 32) | u64::from(seq);
        let (pmem, table) = fixture(2);

        // Client 1 runs seq 1 to completion and acks it.
        let ReqSubmit::Fresh(slot) = table.submit(id(1, 1), KvTaskOp::Get { key: 9 }).unwrap()
        else {
            panic!("fresh")
        };
        table.mark_done(slot, 0, KvTaskResult::Got(None)).unwrap();
        assert!(table.ack(id(1, 1)).unwrap());

        // Another client recycles the table until client 1's evidence
        // is overwritten.
        for seq in 1..=4u32 {
            let ReqSubmit::Fresh(s) = table.submit(id(2, seq), KvTaskOp::Get { key: 1 }).unwrap()
            else {
                panic!("recyclable")
            };
            table.mark_done(s, 0, KvTaskResult::Got(None)).unwrap();
            assert!(table.ack(id(2, seq)).unwrap());
        }
        assert!(table.lookup(id(1, 1)).unwrap().is_none(), "evidence gone");

        // The buggy retransmission is shed, not re-executed and not
        // treated as overload.
        assert_eq!(
            table.submit(id(1, 1), KvTaskOp::Get { key: 9 }).unwrap(),
            ReqSubmit::Stale
        );
        // Reopen rebuilds the line from surviving done+acked slots:
        // client 2's latest acked seq still sits in a slot, so its
        // earlier seqs stay shed across a restart. (Shedding writes
        // nothing, so the probe leaves the table untouched.)
        let t2 = KvRequestTable::open(pmem, table.base()).unwrap();
        assert_eq!(
            t2.submit(id(2, 3), KvTaskOp::Get { key: 1 }).unwrap(),
            ReqSubmit::Stale,
            "acked high-water rebuilt from slot evidence"
        );

        // A genuinely new seq from the same client is still admitted.
        assert!(matches!(
            table
                .submit(id(1, 2), KvTaskOp::Put { key: 9, value: 1 })
                .unwrap(),
            ReqSubmit::Fresh(_)
        ));
    }

    #[test]
    fn recycle_is_atomic_on_buffered_regions() {
        // A slot is one aligned persist line: crash at any flush
        // boundary of a recycle leaves either the old occupant (done,
        // acked) or the new one (pending), never a mix.
        use pstack_nvram::FailPlan;
        let build = || {
            let pmem = PMemBuilder::new().len(1 << 16).build_in_memory(); // buffered
            let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
            let table = KvRequestTable::format(pmem.clone(), &heap, 1).unwrap();
            let ReqSubmit::Fresh(slot) =
                table.submit(1, KvTaskOp::Put { key: 4, value: 2 }).unwrap()
            else {
                panic!("fresh")
            };
            table
                .mark_done(slot, 0, KvTaskResult::Stored(true))
                .unwrap();
            table.ack(1).unwrap();
            (pmem, table)
        };
        let (pmem, table) = build();
        let e0 = pmem.events();
        table.submit(2, KvTaskOp::Delete { key: 9 }).unwrap();
        let total = pmem.events() - e0;
        assert!(total >= 1);

        for k in 0..total {
            let (pmem, table) = build();
            pmem.arm_failpoint(FailPlan::after_events(k));
            assert!(table
                .submit(2, KvTaskOp::Delete { key: 9 })
                .unwrap_err()
                .is_crash());
            let pmem2 = pmem.reopen().unwrap();
            let t2 = KvRequestTable::open(pmem2, table.base()).unwrap();
            match t2.req_id(0).unwrap() {
                1 => {
                    // Old occupant intact: done, acked, recyclable.
                    assert_eq!(
                        t2.result(0).unwrap().unwrap().result,
                        KvTaskResult::Stored(true)
                    );
                    assert!(t2.acked(0).unwrap());
                    assert_eq!(t2.live(), 0);
                }
                2 => {
                    // New occupant fully installed and pending.
                    assert_eq!(t2.op(0).unwrap(), KvTaskOp::Delete { key: 9 });
                    assert!(t2.result(0).unwrap().is_none());
                    assert_eq!(t2.pending_slots().unwrap(), vec![0]);
                }
                other => panic!("crash at event {k}: torn identity {other}"),
            }
        }
    }

    #[test]
    fn mark_done_batch_coalesces() {
        let pmem = PMemBuilder::new().len(1 << 16).build_in_memory(); // buffered
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, 8).unwrap();
        let mut entries = Vec::new();
        for req in 1..=8u64 {
            let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: req }).unwrap()
            else {
                panic!("fresh")
            };
            entries.push((slot, 1u32, KvTaskResult::Got(Some(req as i64))));
        }
        // Submits leave their descriptor flights in the air; land them
        // first so the delta below is the answers' alone.
        assert_eq!(pmem.inflight_tickets(), 8);
        let slots: Vec<u32> = entries.iter().map(|&(slot, ..)| slot).collect();
        table.await_descriptors(&slots).unwrap();
        let before = pmem.stats().snapshot();
        table.mark_done_batch(&entries).unwrap();
        let delta = pmem.stats().snapshot() - before;
        assert_eq!(
            delta.persists, 1,
            "payloads and done flags share one persist"
        );
        for (slot, _, expect) in entries {
            assert_eq!(table.result(slot).unwrap().unwrap().result, expect);
        }
        assert!(table.mark_done_batch(&[]).is_ok());
    }

    #[test]
    fn submit_waits_for_nothing_and_the_window_waits_once() {
        let pmem = PMemBuilder::new().len(1 << 16).psan(true).build_in_memory(); // buffered
        let heap = PHeap::format(pmem.clone(), POffset::new(0), 1 << 16).unwrap();
        let table = KvRequestTable::format(pmem.clone(), &heap, 4).unwrap();
        let before = pmem.stats().snapshot();
        let mut slots = Vec::new();
        for req in 1..=3u64 {
            let ReqSubmit::Fresh(slot) = table.submit(req, KvTaskOp::Get { key: req }).unwrap()
            else {
                panic!("fresh")
            };
            slots.push(slot);
        }
        let d = pmem.stats().snapshot() - before;
        assert_eq!(d.round_trip_waits, 0, "submit issues, never waits: {d}");
        assert_eq!(d.async_flushes, 3, "one descriptor flight per submit: {d}");
        assert_eq!(d.persists, 0, "nothing has landed yet: {d}");

        // The window's wait lands all three flights at once; a second
        // wait (the flights already landed) costs nothing.
        table.await_descriptors(&slots).unwrap();
        table.await_descriptors(&slots).unwrap();
        let d = pmem.stats().snapshot() - before;
        assert_eq!(d.round_trip_waits, 1, "{d}");
        assert_eq!(d.persists, 3, "{d}");
        assert!(pmem.psan_violations().is_empty());

        // Unawaited, a descriptor does not outlive a crash that keeps
        // no unflushed line: the slot reopens free.
        table.submit(9, KvTaskOp::Get { key: 9 }).unwrap();
        pmem.crash_now(0, 0.0);
        let t2 = KvRequestTable::open(pmem.reopen().unwrap(), table.base()).unwrap();
        assert!(t2.lookup(9).unwrap().is_none());
        assert_eq!(t2.live(), 3);
    }

    #[test]
    fn rejects_bad_magic_zero_capacity_and_reserved_id() {
        let (pmem, table) = fixture(2);
        let heap = PHeap::format(
            PMemBuilder::new()
                .len(1 << 14)
                .eager_flush(true)
                .build_in_memory(),
            POffset::new(0),
            1 << 14,
        )
        .unwrap();
        assert!(matches!(
            KvRequestTable::format(heap_pmem(&heap), &heap, 0),
            Err(PError::InvalidConfig(_))
        ));
        assert!(matches!(
            KvRequestTable::open(pmem, POffset::new(4096)),
            Err(PError::CorruptStack(_))
        ));
        assert!(matches!(
            table.submit(0, KvTaskOp::Get { key: 1 }),
            Err(PError::InvalidConfig(_))
        ));
        assert!(table.op(99).is_err());
    }

    fn heap_pmem(heap: &PHeap) -> PMem {
        heap.pmem().clone()
    }
}
