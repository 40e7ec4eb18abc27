//! Sessions started and finished on different threads cut through
//! each other's spans. Every event stays in both traces; validation
//! accepts exactly the cuts that really happened: an exit of a span
//! entered before the window, and a span still open on another running
//! thread when the window closed. A span left open on the collecting
//! thread is still reported. (One test: sessions share the global
//! recorder, and a parallel test would add its own cuts.)
#![cfg(feature = "recorder")]

use std::sync::mpsc;
use std::thread;

use pstack_telemetry::{span, TraceSession};

#[test]
fn sessions_cut_only_through_spans_that_really_cross_them() {
    // Thread A opens a span while only B's session records, so its
    // enter lands before A's own window; A starts its session inside
    // that span, and B finishes while A's next span is still open.
    let (to_a, a_rx) = mpsc::channel::<()>();
    let (to_b, b_rx) = mpsc::channel::<()>();
    let b_session = TraceSession::start();
    let a = thread::spawn(move || {
        let before = span("overlap.before-a");
        let a_session = TraceSession::start();
        let held = span("overlap.held-across-b-finish");
        to_b.send(()).unwrap();
        a_rx.recv().unwrap();
        drop(held);
        drop(before);
        a_session.finish()
    });
    b_rx.recv().unwrap();
    let b = b_session.finish();
    to_a.send(()).unwrap();
    let a = a.join().unwrap();

    b.validate().expect("B's window ends inside A's open spans");
    a.validate()
        .expect("A's window starts inside its own older span");
    let labels = |snap: &pstack_telemetry::TraceSnapshot| -> Vec<String> {
        snap.summary().ops.into_iter().map(|op| op.label).collect()
    };
    assert_eq!(labels(&a), ["overlap.held-across-b-finish"]);
    assert!(labels(&b).is_empty(), "no span closed inside B's window");

    // Last, because the leaked span stays on this thread's ring.
    let session = TraceSession::start();
    std::mem::forget(span("overlap.leaked"));
    let snap = session.finish();
    let errs = snap.validate().unwrap_err();
    assert!(
        errs.iter()
            .any(|e| e.contains("'overlap.leaked' never closed")),
        "{errs:?}"
    );
}
