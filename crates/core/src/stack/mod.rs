//! Persistent stack variants (§3 and Appendix A of the paper).
//!
//! Three layouts implement the shared [`PersistentStack`] trait:
//!
//! * [`FixedStack`] — a contiguous NVRAM region of constant capacity
//!   (§3.3), the layout the paper's body describes;
//! * [`VecStack`] — a dynamically resizable array (Appendix A.2): one
//!   persistent pointer to a heap block, relocated with a copy and an
//!   atomic 8-byte pointer swing when capacity changes;
//! * [`ListStack`] — a linked list of heap blocks (Appendix A.3) where
//!   pointer frames (`0xB`) chain blocks together.
//!
//! All variants linearize a push at the `0x1 → 0x0` end-marker flip of
//! the previous top frame, and a pop at the `0x0 → 0x1` flip of the
//! penultimate frame — single-byte flushes that are crash-atomic.
//!
//! The persist sequences of both flips live here, once, over
//! [`FrameMeta`] offsets (`link_after` and `unlink_above`); the
//! layouts only decide *where* a frame goes. The same two functions
//! carry the return-slot halves of a persistent `CALL`/`RET` (§4.2), so
//! the slot writes can share a persist with the flip they are ordered
//! against — see the `invoke` module for the per-call cost.
//!
//! Frames are addressed by *index*: index 0 is the dummy frame that the
//! paper introduces so that push and pop always have a predecessor
//! frame to flip; indices `1..=depth` are live invocation frames.

mod dump;
mod fixed;
mod list;
mod vec;

pub use dump::dump_stack;
pub use fixed::FixedStack;
pub use list::ListStack;
pub use vec::VecStack;

use pstack_nvram::{PMem, POffset};

use crate::frame::{
    FrameMeta, MARKER_FRAME_END, MARKER_STACK_END, RET_COMPLETED_UNIT, RET_COMPLETED_VALUE,
    RET_EMPTY,
};
use crate::PError;

/// Alignment of the heap blocks the unbounded layouts keep frames in.
/// A block starts on a cache line, so the dummy frame at its bottom has
/// its return slot and end marker in one line and a root invocation's
/// `RET` always takes [`unlink_above`]'s one-persist path.
pub(crate) const STACK_BLOCK_ALIGN: u64 = 64;

/// Controls which of the paper's two flushing invariants (§3.4, Fig. 6)
/// a stack honours. **Production code always uses the default** (both
/// on); the off switches exist so tests can demonstrate that each
/// invariant is load-bearing — disabling either one makes recovery lose
/// or miss frames, exactly as Fig. 6 predicts (experiment E4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Invariant 1: flush the new frame **before** moving the stack end
    /// forward. If violated, a crash can persist the marker flip but
    /// lose the frame it points at (Fig. 6a).
    pub flush_frame_before_advance: bool,
    /// Invariant 2: flush every end-marker flip immediately. If
    /// violated, a crash can lose the flip, so recovery never sees the
    /// topmost frame (Fig. 6b).
    pub flush_markers: bool,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy {
            flush_frame_before_advance: true,
            flush_markers: true,
        }
    }
}

/// Identifies a stack layout; persisted in the runtime superblock so a
/// recovery boot opens stacks with the layout they were created with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StackKind {
    /// Contiguous fixed-capacity region (§3.3).
    #[default]
    Fixed,
    /// Dynamically resizable array (Appendix A.2).
    Vec,
    /// Linked list of blocks (Appendix A.3).
    List,
}

impl StackKind {
    /// Encodes the kind as one byte for the superblock.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            StackKind::Fixed => 0,
            StackKind::Vec => 1,
            StackKind::List => 2,
        }
    }

    /// Decodes a kind from its superblock byte.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] for an unknown encoding.
    pub fn from_u8(v: u8) -> Result<Self, PError> {
        match v {
            0 => Ok(StackKind::Fixed),
            1 => Ok(StackKind::Vec),
            2 => Ok(StackKind::List),
            other => Err(PError::CorruptStack(format!(
                "unknown stack kind encoding {other}"
            ))),
        }
    }
}

impl std::fmt::Display for StackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StackKind::Fixed => write!(f, "fixed"),
            StackKind::Vec => write!(f, "vec"),
            StackKind::List => write!(f, "list"),
        }
    }
}

/// A copied-out view of one frame: which function it belongs to and the
/// serialized arguments it was invoked with. This is what recovery
/// hands to the function's recover dual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecord {
    /// Registered id of the invoked function.
    pub func_id: u64,
    /// The serialized argument blob.
    pub args: Vec<u8>,
}

/// Content of a frame's return slot (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReturnSlot {
    /// No child completion recorded since the slot was last cleared.
    #[default]
    Empty,
    /// The most recent child completed and returned no value.
    Unit,
    /// The most recent child completed and returned these 8 bytes.
    Value([u8; 8]),
}

impl ReturnSlot {
    /// The child-completion view: `None` if no completion is recorded.
    #[must_use]
    pub fn completion(self) -> Option<Option<[u8; 8]>> {
        match self {
            ReturnSlot::Empty => None,
            ReturnSlot::Unit => Some(None),
            ReturnSlot::Value(v) => Some(Some(v)),
        }
    }
}

/// The persistent program stack of one worker thread.
///
/// Implementations are **not** internally synchronized: the paper gives
/// each thread its own stack, and the runtime upholds that. (They are
/// `Send`, so a recovery thread may adopt another thread's stack.)
pub trait PersistentStack: Send {
    /// The layout of this stack.
    fn kind(&self) -> StackKind;

    /// Pushes a frame for an invocation of `func_id` with serialized
    /// `args`. Linearizes at the end-marker flip of the previous top
    /// frame; a crash before that flip leaves the stack logically
    /// unchanged (the partially written frame is invisible).
    ///
    /// With `clear_ret` the previous top frame's return slot is also
    /// reset to [`ReturnSlot::Empty`] — the first step of a persistent
    /// `CALL` — durably before the flip (see `link_after`).
    ///
    /// # Errors
    ///
    /// [`PError::StackOverflow`] (fixed layout), heap exhaustion
    /// (unbounded layouts), or a propagated crash.
    fn push_frame(&mut self, func_id: u64, args: &[u8], clear_ret: bool) -> Result<(), PError>;

    /// Pops the top frame by flipping the penultimate frame's marker to
    /// stack-end. The dummy frame cannot be popped.
    ///
    /// With `Some(slot)` the penultimate frame's return slot records
    /// `slot` durably before the flip — the persistent `RET` (see
    /// `unlink_above`).
    ///
    /// # Errors
    ///
    /// [`PError::StackEmpty`] if only the dummy frame remains, or a
    /// propagated crash.
    fn pop_frame(&mut self, ret: Option<ReturnSlot>) -> Result<(), PError>;

    /// Pushes a frame without touching any return slot
    /// ([`PersistentStack::push_frame`] without the clear).
    ///
    /// # Errors
    ///
    /// As [`PersistentStack::push_frame`].
    fn push(&mut self, func_id: u64, args: &[u8]) -> Result<(), PError> {
        self.push_frame(func_id, args, false)
    }

    /// Pops the top frame without recording a return value
    /// ([`PersistentStack::pop_frame`] with `None`).
    ///
    /// # Errors
    ///
    /// As [`PersistentStack::pop_frame`].
    fn pop(&mut self) -> Result<(), PError> {
        self.pop_frame(None)
    }

    /// Number of frames including the dummy frame (always ≥ 1).
    fn frame_count(&self) -> usize;

    /// Copies out the function id and arguments of frame `index`
    /// (0 = dummy).
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] if `index` is out of range.
    fn frame_record(&self, index: usize) -> Result<FrameRecord, PError>;

    /// Writes and flushes the return slot of frame `index`, on its own.
    ///
    /// A test and inspection helper, not part of the `CALL`/`RET`
    /// protocol: the runtime clears and records return slots only
    /// through [`PersistentStack::push_frame`] and
    /// [`PersistentStack::pop_frame`], whose persists share the frame's
    /// lines. A new layout must not route the protocol through this.
    ///
    /// # Errors
    ///
    /// Out-of-range index or a propagated crash.
    fn set_ret(&mut self, index: usize, slot: ReturnSlot) -> Result<(), PError>;

    /// Reads the return slot of frame `index`.
    ///
    /// # Errors
    ///
    /// Out-of-range index or a propagated crash.
    fn ret(&self, index: usize) -> Result<ReturnSlot, PError>;

    /// Re-walks the persistent bytes and verifies they describe exactly
    /// the frames this handle believes exist.
    ///
    /// # Errors
    ///
    /// [`PError::CorruptStack`] describing the first mismatch.
    fn check_consistency(&self) -> Result<(), PError>;

    /// Persistent bytes currently occupied by live frames (diagnostic).
    fn used_bytes(&self) -> u64;

    /// Number of live invocation frames (excluding the dummy frame).
    fn depth(&self) -> usize {
        self.frame_count() - 1
    }

    /// Index of the top frame (the dummy frame when the stack is empty).
    fn top_index(&self) -> usize {
        self.frame_count() - 1
    }
}

/// Shared push protocol (§3.4, Fig. 3): writes `link` — the new frame,
/// or the pointer frame leading to it — directly after `top`, makes it
/// durable, then flips `top`'s end marker `0x1 → 0x0`. The flip is one
/// byte in one line, so it is crash-atomic and linearizes the push; a
/// crash before it leaves `link` as invisible data past the stack end.
///
/// With `clear_ret`, `top`'s return flag is reset to [`RET_EMPTY`]
/// first, *without* a flush of its own: the flag sits ten bytes before
/// `link`, so one flush from the flag through the end of `link` makes
/// both durable before the flip. A crash before that flush completes
/// leaves the caller's slot either cleared or holding its previous
/// completion record, with the child not pushed — the same two states
/// a separate clear persist could leave. When `policy` skips the frame
/// flush (the Fig. 6a negative control) the clear falls back to its own
/// flush, issued before `link` is written so that it cannot make any of
/// `link`'s bytes durable.
pub(crate) fn link_after(
    pmem: &PMem,
    top: &FrameMeta,
    link: &[u8],
    clear_ret: bool,
    policy: FlushPolicy,
) -> Result<(), PError> {
    let at = top.end();
    if clear_ret {
        pmem.write_u8(top.ret_flag_off(), RET_EMPTY)?;
        if !policy.flush_frame_before_advance {
            pmem.flush(top.ret_flag_off(), 1)?;
        }
    }
    // Step 1 (Fig. 3b): write past the stack-end marker.
    pmem.write(at, link)?;
    if policy.flush_frame_before_advance {
        let from = if clear_ret { top.ret_flag_off() } else { at };
        pmem.flush(from, (at + link.len() as u64).distance_from(from) as usize)?;
    }
    // Step 2 (Fig. 3c): move the stack end forward.
    pmem.write_u8(top.marker_off(), MARKER_FRAME_END)?;
    if policy.flush_markers {
        pmem.flush(top.marker_off(), 1)?;
    }
    Ok(())
}

/// Shared pop protocol (Fig. 4): flips `caller`'s end marker
/// `0x0 → 0x1`, making every frame above it invalid data past the stack
/// end. `caller` is the penultimate frame.
///
/// With `Some(slot)` the completion is recorded in `caller`'s return
/// slot first (§4.2). The flag, the value and the marker are the last
/// ten bytes of the frame; when they share one cache line the value,
/// the flag and the flip are written in that order and made durable by
/// **one** flush. The region keeps or loses a dirty line as a whole, so
/// a crash leaves either all three or none of them — never a flip
/// without its completion record. When the ten bytes straddle a line
/// boundary the value, the flag and the flip are persisted one after
/// another, as three ordered round-trips.
pub(crate) fn unlink_above(
    pmem: &PMem,
    caller: &FrameMeta,
    ret: Option<ReturnSlot>,
    policy: FlushPolicy,
) -> Result<(), PError> {
    let marker = caller.marker_off();
    if let Some(slot) = ret {
        let line = pmem.line_size() as u64;
        let flag = caller.ret_flag_off();
        if policy.flush_markers && flag.get() / line == marker.get() / line {
            write_ret_slot(pmem, caller, slot, false)?;
            pmem.write_u8(marker, MARKER_STACK_END)?;
            pmem.flush(flag, marker.distance_from(flag) as usize + 1)?;
            return Ok(());
        }
        write_ret_slot(pmem, caller, slot, true)?;
    }
    pmem.write_u8(marker, MARKER_STACK_END)?;
    if policy.flush_markers {
        pmem.flush(marker, 1)?;
    }
    Ok(())
}

/// Shared implementation: write a frame's return slot, value before
/// flag. With `ordered` each is flushed before the next store; without,
/// the caller makes both durable with one flush of their line.
pub(crate) fn write_ret_slot(
    pmem: &PMem,
    meta: &FrameMeta,
    slot: ReturnSlot,
    ordered: bool,
) -> Result<(), PError> {
    let flag = match slot {
        ReturnSlot::Empty => RET_EMPTY,
        ReturnSlot::Unit => RET_COMPLETED_UNIT,
        ReturnSlot::Value(v) => {
            // Value first, then the flag: if the crash splits the two
            // writes the flag still says "empty" and recovery re-runs
            // the child rather than trusting a torn value.
            pmem.write(meta.ret_val_off(), &v)?;
            if ordered {
                pmem.flush(meta.ret_val_off(), 8)?;
            }
            RET_COMPLETED_VALUE
        }
    };
    pmem.write_u8(meta.ret_flag_off(), flag)?;
    if ordered {
        pmem.flush(meta.ret_flag_off(), 1)?;
    }
    Ok(())
}

/// Shared implementation: read a frame's return slot.
pub(crate) fn read_ret_slot(pmem: &PMem, meta: &FrameMeta) -> Result<ReturnSlot, PError> {
    let flag = pmem.read_u8(meta.ret_flag_off())?;
    match flag {
        RET_EMPTY => Ok(ReturnSlot::Empty),
        RET_COMPLETED_UNIT => Ok(ReturnSlot::Unit),
        RET_COMPLETED_VALUE => {
            let mut v = [0u8; 8];
            pmem.read(meta.ret_val_off(), &mut v)?;
            Ok(ReturnSlot::Value(v))
        }
        other => Err(PError::CorruptStack(format!(
            "invalid return-slot flag {other:#x} in frame at {}",
            meta.start
        ))),
    }
}

/// Walks a contiguous run of ordinary frames starting at `start` until
/// a stack-end marker, bounds-checked by `limit`. Used by the fixed and
/// resizable-array layouts, and per block by the linked-list layout.
pub(crate) fn walk_contiguous(
    pmem: &PMem,
    start: POffset,
    limit: POffset,
) -> Result<Vec<FrameMeta>, PError> {
    let mut frames = Vec::new();
    let mut pos = start;
    loop {
        match crate::frame::parse_frame(pmem, pos, limit)? {
            crate::frame::ParsedFrame::Ordinary { meta, marker } => {
                pos = meta.end();
                frames.push(meta);
                if marker == crate::frame::MARKER_STACK_END {
                    return Ok(frames);
                }
            }
            crate::frame::ParsedFrame::Pointer { start, .. } => {
                return Err(PError::CorruptStack(format!(
                    "unexpected pointer frame at {start} in a contiguous stack"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_kind_round_trips() {
        for k in [StackKind::Fixed, StackKind::Vec, StackKind::List] {
            assert_eq!(StackKind::from_u8(k.as_u8()).unwrap(), k);
            assert!(!k.to_string().is_empty());
        }
        assert!(StackKind::from_u8(99).is_err());
    }

    #[test]
    fn return_slot_completion_view() {
        assert_eq!(ReturnSlot::Empty.completion(), None);
        assert_eq!(ReturnSlot::Unit.completion(), Some(None));
        assert_eq!(ReturnSlot::Value([1; 8]).completion(), Some(Some([1; 8])));
    }

    #[test]
    fn default_kind_is_fixed() {
        assert_eq!(StackKind::default(), StackKind::Fixed);
    }
}
