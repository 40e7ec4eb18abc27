//! Property tests for the NVRAM substrate itself: the volatile-cache /
//! persistent-image split against a shadow model, across random
//! write/flush/crash interleavings.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use pstack::nvram::{PMem, PMemBuilder, POffset};

const LEN: usize = 4096;
const LINE: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    Write { off: usize, len: usize, byte: u8 },
    Flush { off: usize, len: usize },
    Fence,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..LEN, 1usize..200, any::<u8>()).prop_map(|(off, len, byte)| Op::Write {
            off: off.min(LEN - 1),
            len,
            byte,
        }),
        3 => (0usize..LEN, 1usize..400).prop_map(|(off, len)| Op::Flush {
            off: off.min(LEN - 1),
            len,
        }),
        1 => Just(Op::Fence),
    ]
}

/// Shadow model: a "cached" byte array (what reads must see) and a
/// "durable" array plus the set of dirty lines.
struct Model {
    cached: Vec<u8>,
    durable: Vec<u8>,
    dirty: HashSet<usize>,
}

impl Model {
    fn new() -> Self {
        Model {
            cached: vec![0; LEN],
            durable: vec![0; LEN],
            dirty: HashSet::new(),
        }
    }

    fn write(&mut self, off: usize, data_len: usize, byte: u8) {
        for i in off..(off + data_len).min(LEN) {
            self.cached[i] = byte;
            self.dirty.insert(i / LINE);
        }
    }

    fn flush(&mut self, off: usize, len: usize) {
        let end = (off + len).min(LEN);
        if off >= end {
            return;
        }
        for li in off / LINE..=(end - 1) / LINE {
            if self.dirty.remove(&li) {
                let s = li * LINE;
                self.durable[s..s + LINE].copy_from_slice(&self.cached[s..s + LINE]);
            }
        }
    }

    /// Crash with survival probability 0 or 1: deterministic outcomes.
    fn crash(&mut self, keep_dirty: bool) {
        if keep_dirty {
            for li in self.dirty.drain() {
                let s = li * LINE;
                self.durable[s..s + LINE].copy_from_slice(&self.cached[s..s + LINE]);
            }
        } else {
            self.dirty.clear();
        }
        self.cached = self.durable.clone();
    }
}

/// What one racing thread observed before the power cut reached it:
/// the last value whose store returned `Ok`, and the last one whose
/// flush returned `Ok` afterwards.
#[derive(Debug, Default, Clone, Copy)]
struct Observed {
    stored: u64,
    flushed: u64,
}

/// Writes 1, 2, 3, … into the `u64` at `off`, flushing each, until the
/// region reports the crash.
fn race_writer(pmem: &PMem, off: POffset, ops: &AtomicU64) -> Observed {
    let mut seen = Observed::default();
    for v in 1.. {
        if pmem.write_u64(off, v).is_err() {
            break;
        }
        seen.stored = v;
        ops.fetch_add(1, Ordering::SeqCst);
        if pmem.flush(off, 8).is_err() {
            break;
        }
        seen.flushed = v;
    }
    seen
}

/// Increments the `u64` at `off` by compare-exchange, flushing each
/// installed value, until the region reports the crash.
fn race_cas(pmem: &PMem, off: POffset, ops: &AtomicU64) -> Observed {
    let mut seen = Observed::default();
    while let Ok(cur) = pmem.read_u64(off) {
        match pmem.compare_exchange(off, &cur.to_le_bytes(), &(cur + 1).to_le_bytes()) {
            Ok(true) => seen.stored = cur + 1,
            Ok(false) => continue,
            Err(_) => break,
        }
        ops.fetch_add(1, Ordering::SeqCst);
        if pmem.flush(off, 8).is_err() {
            break;
        }
        seen.flushed = seen.stored;
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A power cut is a single point in every thread's history: writers
    /// and CAS-ers racing `crash_now` either land before it (their call
    /// returned `Ok`) or not at all. Nothing stored after the crash is
    /// readable after `reopen`, every flush that returned `Ok` is
    /// durable, and the event counter stays frozen at the crash.
    #[test]
    fn post_crash_stores_never_become_durable(
        writers in 1usize..4,
        eager in proptest::bool::ANY,
        survival in 0usize..3,
        crash_after in 0u64..300,
    ) {
        let prob = [0.0, 0.5, 1.0][survival];
        let pmem = PMemBuilder::new()
            .len(LEN)
            .line_size(LINE)
            .eager_flush(eager)
            .build_in_memory();
        let cas_cell = POffset::new((LEN - LINE) as u64);
        let ops = AtomicU64::new(0);
        let (seen, cas_seen, frozen_at) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let (pmem, ops) = (&pmem, &ops);
                    s.spawn(move || race_writer(pmem, POffset::new((w * LINE) as u64), ops))
                })
                .collect();
            let cas = s.spawn(|| race_cas(&pmem, cas_cell, &ops));
            while ops.load(Ordering::SeqCst) < crash_after {
                std::thread::yield_now();
            }
            pmem.crash_now(crash_after, prob);
            let frozen_at = pmem.events();
            let seen: Vec<Observed> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (seen, cas.join().unwrap(), frozen_at)
        });
        prop_assert_eq!(pmem.events(), frozen_at, "events counted after the crash");

        let pmem = pmem.reopen().unwrap();
        let cells = seen
            .iter()
            .enumerate()
            .map(|(w, o)| (POffset::new((w * LINE) as u64), *o))
            .chain(std::iter::once((cas_cell, cas_seen)));
        for (off, o) in cells {
            let got = pmem.read_u64(off).unwrap();
            if eager || prob >= 1.0 {
                // Every store that returned `Ok` reached the image or a
                // surviving line; none after the crash did.
                prop_assert_eq!(got, o.stored, "cell {}: {:?}", off, o);
            } else if prob <= 0.0 {
                prop_assert_eq!(got, o.flushed, "cell {}: {:?}", off, o);
            } else {
                prop_assert!(got == o.flushed || got == o.stored, "cell {}: {} vs {:?}", off, got, o);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reads always see the latest writes; after a crash the surviving
    /// content equals the shadow model's durable image (checked for
    /// both extreme survivor probabilities).
    #[test]
    fn pmem_matches_shadow_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        keep_dirty in proptest::bool::ANY,
    ) {
        let pmem = PMemBuilder::new().len(LEN).line_size(LINE).build_in_memory();
        let mut model = Model::new();

        for op in &ops {
            match *op {
                Op::Write { off, len, byte } => {
                    let len = len.min(LEN - off);
                    if len == 0 { continue; }
                    pmem.write(POffset::new(off as u64), &vec![byte; len]).unwrap();
                    model.write(off, len, byte);
                }
                Op::Flush { off, len } => {
                    let len = len.min(LEN - off);
                    if len == 0 { continue; }
                    pmem.flush(POffset::new(off as u64), len).unwrap();
                    model.flush(off, len);
                }
                Op::Fence => pmem.fence(),
            }
            // Live reads must see the cached view.
            let got = pmem.read_vec(POffset::new(0), LEN).unwrap();
            prop_assert_eq!(&got, &model.cached);
        }

        let prob = if keep_dirty { 1.0 } else { 0.0 };
        pmem.crash_now(99, prob);
        model.crash(keep_dirty);
        let pmem = pmem.reopen().unwrap();
        let got = pmem.read_vec(POffset::new(0), LEN).unwrap();
        prop_assert_eq!(&got, &model.durable);
    }

    /// Eager-flush regions behave like the model with an implicit flush
    /// after every write: nothing is ever lost in a crash.
    #[test]
    fn eager_mode_never_loses_writes(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let pmem = PMemBuilder::new()
            .len(LEN)
            .line_size(LINE)
            .eager_flush(true)
            .build_in_memory();
        let mut shadow = vec![0u8; LEN];
        for op in &ops {
            if let Op::Write { off, len, byte } = *op {
                let len = len.min(LEN - off);
                if len == 0 { continue; }
                pmem.write(POffset::new(off as u64), &vec![byte; len]).unwrap();
                shadow[off..off + len].fill(byte);
            }
        }
        pmem.crash_now(1, 0.0); // survivors irrelevant: nothing is dirty
        let pmem = pmem.reopen().unwrap();
        prop_assert_eq!(pmem.read_vec(POffset::new(0), LEN).unwrap(), shadow);
    }

    /// The event counter advances exactly once per write and once per
    /// line persisted in buffered mode — the contract crash-point
    /// enumeration depends on.
    #[test]
    fn event_accounting_is_exact(
        writes in proptest::collection::vec((0usize..LEN, 1usize..100, any::<u8>()), 1..20),
    ) {
        let pmem = PMemBuilder::new().len(LEN).line_size(LINE).build_in_memory();
        let mut expected = 0u64;
        for (off, len, byte) in writes {
            let off = off.min(LEN - 1);
            let len = len.min(LEN - off);
            if len == 0 { continue; }
            pmem.write(POffset::new(off as u64), &vec![byte; len]).unwrap();
            expected += 1; // one event per write
            let before_lines = pmem.stats().snapshot().lines_persisted;
            pmem.flush(POffset::new(off as u64), len).unwrap();
            let persisted = pmem.stats().snapshot().lines_persisted - before_lines;
            // Every line of the flush counts as an event whether or not
            // it was dirty... no: only the countdown sees all lines; the
            // event counter ticks per *covering line*, dirty or not.
            let first = off / LINE;
            let last = (off + len - 1) / LINE;
            expected += (last - first + 1) as u64;
            prop_assert!(persisted <= (last - first + 1) as u64);
        }
        prop_assert_eq!(pmem.events(), expected);
    }
}
