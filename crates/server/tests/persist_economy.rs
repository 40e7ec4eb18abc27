//! Exact persist economy of the served path, from the regions' own
//! counters: how many persist round-trips each step **waits** on
//! (`round_trip_waits`) and how many flights it leaves in the air.
//! Every figure is a count, so it holds on any host; on a device where
//! each round-trip costs the same latency it is the step's latency in
//! round-trips.
//!
//! A served mutation's window waits on three shard-region round-trips
//! (records + log tail, bucket heads, flush epoch + answers) and three
//! control-region ones (the persistent-stack CALL and RET); a get's
//! window on one (its answer) plus the same three. Admission waits on
//! none: the descriptor's persist is in flight until the window lands
//! it together with its own flights.

mod common;

use pstack_kv::{KvTaskOp, KvTaskResult};
use pstack_nvram::StatsSnapshot;
use pstack_server::proto::req_id_for;
use pstack_server::Submission;

fn shard_stats(sys: &common::Served) -> StatsSnapshot {
    sys.stripe.aggregate_stats()
}

/// Submits `op`, runs its window on the runtime and returns the
/// shard- and control-region deltas of the submit and of the window.
fn serve(
    sys: &common::Served,
    req_id: u64,
    op: KvTaskOp,
) -> (StatsSnapshot, StatsSnapshot, StatsSnapshot, KvTaskResult) {
    let before = shard_stats(sys);
    assert_eq!(sys.core.submit(req_id, op).unwrap(), Submission::Queued);
    let submit = shard_stats(sys) - before;

    let (shard0, control0) = (shard_stats(sys), sys.control.stats().snapshot());
    let (tasks, ids) = sys.core.drain_tasks();
    assert_eq!(tasks.len(), 1, "one window");
    let report = sys.rt.run_tasks(tasks);
    assert!(!report.crashed && report.completed == 1, "{report:?}");
    let window = shard_stats(sys) - shard0;
    let control = sys.control.stats().snapshot() - control0;

    let answers = sys.core.answers_for(&ids).unwrap();
    let answer = answers[0].1.expect("the window answered durably");
    (submit, window, control, answer.result)
}

#[test]
fn served_put_and_get_wait_on_exact_round_trips() {
    let sys = common::format(1);
    for (seq, key) in [(1u32, 3u64), (3, 4)] {
        let (submit, window, control, result) =
            serve(&sys, req_id_for(1, seq), KvTaskOp::Put { key, value: 7 });
        assert_eq!(result, KvTaskResult::Stored(true));
        assert_eq!(submit.round_trip_waits, 0, "submit waits: {submit}");
        assert_eq!(
            submit.async_flushes, 1,
            "submit issues one flight: {submit}"
        );
        assert_eq!(submit.persists, 0, "the descriptor is still in flight");
        assert_eq!(
            window.round_trip_waits, 3,
            "put window: records+tail, heads, epoch+answer: {window}"
        );
        // Six persists land — descriptor, records, tail, heads, epoch,
        // answers — but the descriptor rides the records wait and the
        // epoch the answers wait.
        assert_eq!(window.persists, 6, "{window}");
        assert_eq!(control.round_trip_waits, 3, "CALL + RET: {control}");
        assert_eq!(control.persists, 3, "control persists per window");

        let (submit, window, control, result) =
            serve(&sys, req_id_for(1, seq + 1), KvTaskOp::Get { key });
        assert_eq!(result, KvTaskResult::Got(Some(7)));
        assert_eq!(submit.round_trip_waits, 0, "{submit}");
        assert_eq!(submit.async_flushes, 1, "{submit}");
        assert_eq!(
            window.round_trip_waits, 1,
            "get window: the answer: {window}"
        );
        assert_eq!(window.persists, 2, "descriptor and answer: {window}");
        assert_eq!(control.round_trip_waits, 3, "{control}");
        assert_eq!(control.persists, 3);
    }
    assert_eq!(
        sys.stripe.region(0).inflight_tickets(),
        0,
        "nothing left in flight"
    );
    let violations = sys.stripe.psan_violations();
    assert!(violations.is_empty(), "{violations:?}");
    assert!(sys.control.psan_violations().is_empty());
}

#[test]
fn ack_waits_on_one_round_trip() {
    let sys = common::format(1);
    let id = req_id_for(2, 1);
    serve(&sys, id, KvTaskOp::Delete { key: 5 });
    let before = shard_stats(&sys);
    assert!(sys.core.ack(id).unwrap());
    let d = shard_stats(&sys) - before;
    assert_eq!(d.round_trip_waits, 1, "{d}");
    assert_eq!(d.persists, 1, "{d}");
}
