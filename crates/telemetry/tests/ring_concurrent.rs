//! Concurrency contract of the per-thread event ring: one writer, any
//! number of snapshot readers, no locks. The seqlock slots must never
//! surface a torn event — a reader racing a wrapping writer either
//! sees a slot's complete payload or counts it as dropped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pstack_telemetry::{EventKind, Ring};

const CAPACITY: usize = 256;
const PUSHES: u64 = 200_000;

/// The writer stamps every event so a reader can verify coherence:
/// the i-th push carries `ts == i` and `label == i % 7`. Any slot torn
/// mid-overwrite would decode with mismatched fields.
fn stamped(i: u64) -> EventKind {
    EventKind::SpanEnter {
        label: (i % 7) as u32,
        depth: 0,
    }
}

#[test]
fn wrapping_writer_never_surfaces_a_torn_slot() {
    let ring = Arc::new(Ring::new(CAPACITY));
    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let ring = Arc::clone(&ring);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for i in 0..PUSHES {
                ring.push(i, stamped(i));
            }
            done.store(true, Ordering::Release);
        })
    };

    // Reader: chase the head while the writer laps the ring hundreds
    // of times. Every event handed out must be coherent and in order;
    // everything overwritten under us must be accounted as dropped.
    let mut cursor = 0u64;
    let mut seen = 0u64;
    let mut dropped = 0u64;
    let drain = |cursor: &mut u64, seen: &mut u64, dropped: &mut u64| {
        let read = ring.read_from(*cursor);
        let first = read.head - read.events.len() as u64;
        assert_eq!(
            read.dropped,
            first - *cursor,
            "every skipped position is a drop"
        );
        for (expect, ev) in (first..).zip(read.events.iter()) {
            assert_eq!(ev.pos, expect, "positions are gapless after the drop gap");
            assert_eq!(ev.ts, ev.pos, "the i-th push carries ts == i");
            assert_eq!(
                ev.kind,
                stamped(ev.pos),
                "payload words belong to the same push"
            );
        }
        *seen += read.events.len() as u64;
        *dropped += read.dropped;
        *cursor = read.head;
    };
    while !done.load(Ordering::Acquire) {
        drain(&mut cursor, &mut seen, &mut dropped);
    }
    writer.join().unwrap();
    drain(&mut cursor, &mut seen, &mut dropped);

    assert_eq!(seen + dropped, PUSHES, "every push is seen or accounted");
    assert!(
        seen > 0,
        "the reader kept up with at least part of the stream"
    );
    assert!(
        dropped > 0,
        "{PUSHES} pushes into {CAPACITY} slots must lap the reader"
    );
    assert_eq!(ring.head(), PUSHES);
}

#[test]
fn many_rings_one_collector_pass() {
    // The collector's view: N writer threads each own a ring; a final
    // single pass over all of them (after the writers quiesce, as
    // TraceSession::finish does) sees exactly the last `capacity`
    // events of each, in order.
    const WRITERS: usize = 4;
    let rings: Vec<Arc<Ring>> = (0..WRITERS).map(|_| Arc::new(Ring::new(64))).collect();
    std::thread::scope(|scope| {
        for (w, ring) in rings.iter().enumerate() {
            let ring = Arc::clone(ring);
            scope.spawn(move || {
                for i in 0..1000u64 {
                    ring.push(i, stamped(i.wrapping_add(w as u64)));
                }
            });
        }
    });
    for (w, ring) in rings.iter().enumerate() {
        let read = ring.read_from(0);
        assert_eq!(read.events.len(), 64);
        assert_eq!(read.dropped, 1000 - 64);
        for ev in &read.events {
            assert_eq!(ev.kind, stamped(ev.ts.wrapping_add(w as u64)));
        }
    }
}
