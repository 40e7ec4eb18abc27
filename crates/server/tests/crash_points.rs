//! Crash-point enumeration of the served path: one window of
//! mutations and a get, killed at every shard-region persistence event
//! from the first `submit` through the window's answer flight, with
//! dirty lines surviving at probability 0, ½ and 1. Each cut is
//! followed by the real restart — every region reopened, the runtime's
//! frames replayed — and then by the clients' retries.
//!
//! Admission only issues a descriptor's persist, so a cut can keep a
//! window's persistent-stack frame while losing the descriptors it
//! names; the replayed frame must then execute nothing for them (the
//! slot holds nothing, or its previous occupant). Whatever the cut:
//!
//! - no durable answer names an effect that was not published;
//! - a frame replayed over a lost descriptor publishes nothing for it;
//! - after the retries, every client's answers and the store's chains
//!   pass `check_kv_sharded_gen`, and PSan saw no ordering violation.

mod common;

use std::collections::{HashMap, HashSet};

use pstack_core::RecoveryMode;
use pstack_kv::{shard_of, KvTaskAnswer, KvTaskOp, KvTaskResult, ShardedKvStore};
use pstack_nvram::{FailPlan, PsanViolationKind};
use pstack_server::proto::{client_of, req_id_for};
use pstack_server::Submission;
use pstack_verify::{
    check_kv_sharded_gen, KvAnswer, KvOp, KvOpKind, KvShardedHistory, KvWitnessRecord,
};

const SEED: u64 = 0x5EED_0D0C;

/// The warm-up request: served and acked before the enumerated window,
/// so the window's first submit recycles its slot.
fn warm_up() -> (u64, KvTaskOp) {
    (req_id_for(1, 1), KvTaskOp::Put { key: 9, value: 5 })
}

/// The enumerated window: two puts, a cas on the warm-up key, a get.
fn window() -> Vec<(u64, KvTaskOp)> {
    vec![
        (req_id_for(2, 1), KvTaskOp::Put { key: 1, value: 10 }),
        (req_id_for(3, 1), KvTaskOp::Put { key: 2, value: 20 }),
        (
            req_id_for(4, 1),
            KvTaskOp::Cas {
                key: 9,
                expected: 5,
                new: 6,
            },
        ),
        (req_id_for(5, 1), KvTaskOp::Get { key: 1 }),
    ]
}

fn tags(store: &ShardedKvStore) -> HashSet<(u64, u64)> {
    store
        .snapshot_sharded()
        .unwrap()
        .into_iter()
        .flatten()
        .flatten()
        .map(|r| (r.pid, r.seq))
        .collect()
}

fn took_effect(result: KvTaskResult) -> bool {
    match result {
        KvTaskResult::Stored(ok) | KvTaskResult::Deleted(ok) | KvTaskResult::Swapped(ok) => ok,
        KvTaskResult::Got(_) => false,
    }
}

fn observed(req_id: u64, op: KvTaskOp, answer: KvTaskAnswer) -> KvOp {
    let (kind, value, expected) = match op {
        KvTaskOp::Put { value, .. } => (KvOpKind::Put, value, 0),
        KvTaskOp::Get { .. } => (KvOpKind::Get, 0, 0),
        KvTaskOp::Delete { .. } => (KvOpKind::Delete, 0, 0),
        KvTaskOp::Cas { expected, new, .. } => (KvOpKind::Cas, new, expected),
    };
    let answer = match answer.result {
        KvTaskResult::Stored(ok) => KvAnswer::Stored(ok),
        KvTaskResult::Got(v) => KvAnswer::Got(v),
        KvTaskResult::Deleted(ok) => KvAnswer::Deleted(ok),
        KvTaskResult::Swapped(ok) => KvAnswer::Swapped(ok),
    };
    KvOp {
        pid: u64::from(client_of(req_id)),
        seq: req_id,
        kind,
        key: op.key(),
        value,
        expected,
        answer,
    }
}

/// Serves `ops` to completion on a live system: each retried until its
/// answer is durable. Returns the answers in `ops` order.
fn serve_until_answered(sys: &common::Served, ops: &[(u64, KvTaskOp)]) -> Vec<KvTaskAnswer> {
    let mut answers: HashMap<u64, KvTaskAnswer> = HashMap::new();
    for _ in 0..4 {
        for &(id, op) in ops {
            if answers.contains_key(&id) {
                continue;
            }
            match sys.core.submit(id, op).unwrap() {
                Submission::Answered(a) => {
                    answers.insert(id, a);
                }
                Submission::Queued => {}
                other => panic!("request {id:#x}: {other:?}"),
            }
        }
        let (tasks, ids) = sys.core.drain_tasks();
        if !tasks.is_empty() {
            let report = sys.rt.run_tasks(tasks);
            assert!(!report.crashed, "no kill is armed");
        }
        for (id, answer) in sys.core.answers_for(&ids).unwrap() {
            answers.extend(answer.map(|a| (id, a)));
        }
        if answers.len() == ops.len() {
            return ops.iter().map(|(id, _)| answers[id]).collect();
        }
    }
    panic!("requests left unanswered: {answers:?}");
}

/// Formats a one-shard system and serves (and acks) the warm-up
/// request.
fn fresh(survival: f64) -> (common::Served, KvOp) {
    let mut sys = common::format(1);
    sys.rt = sys.rt.clone().crash_seed(SEED).crash_survival(survival);
    let (id, op) = warm_up();
    let answer = serve_until_answered(&sys, &[(id, op)])[0];
    assert!(sys.core.ack(id).unwrap());
    (sys, observed(id, op, answer))
}

/// Submits the window and runs it; `true` if a power cut ended it.
fn run_window(sys: &common::Served, survival: f64) -> bool {
    for (id, op) in window() {
        match sys.core.submit(id, op) {
            Ok(Submission::Queued) => {}
            Err(e) if e.is_crash() => {
                sys.rt.crash_all(SEED, survival);
                return true;
            }
            other => panic!("request {id:#x}: {other:?}"),
        }
    }
    let (tasks, _) = sys.core.drain_tasks();
    sys.rt.run_tasks(tasks).crashed
}

#[test]
fn every_cut_from_submit_to_answer_recovers_exactly_once() {
    let mut replays_over_lost = 0usize;
    let mut cuts = 0usize;
    for survival in [0.0, 0.5, 1.0] {
        // Golden run: the shard-region events the window spans.
        let (sys, _) = fresh(survival);
        let e0 = sys.stripe.region(0).events();
        assert!(!run_window(&sys, survival));
        let total = sys.stripe.region(0).events() - e0;
        assert!(total >= 8, "submits, records, tail, heads, epoch, answers");

        for k in 0..total {
            let (sys, warm) = fresh(survival);
            sys.stripe
                .region(0)
                .arm_failpoint(FailPlan::after_events(k).with_survivors(SEED ^ k, survival));
            assert!(run_window(&sys, survival), "cut at event {k} must land");
            cuts += 1;
            let sys = common::reboot(&sys);
            let store = sys.core.exec().store();
            let table = &sys.core.exec().tables()[0];

            // Before recovery: every durable answer names a published
            // effect; record which descriptors the cut lost.
            let published = tags(store);
            let mut lost = HashSet::new();
            for (id, _) in window() {
                match table.lookup(id).unwrap() {
                    None => {
                        lost.insert(id);
                    }
                    Some((_, Some(answer))) if took_effect(answer.result) => assert!(
                        published.contains(&(u64::from(client_of(id)), id)),
                        "survival {survival}, cut {k}: durable answer {answer:?} of \
                         {id:#x} names an unpublished effect"
                    ),
                    Some(_) => {}
                }
            }

            let report = sys.rt.recover(RecoveryMode::Parallel).unwrap();
            let known: HashSet<u64> = window()
                .iter()
                .map(|&(id, _)| id)
                .chain([warm.seq])
                .filter(|id| !lost.contains(id))
                .collect();
            for (pid, seq) in tags(store) {
                assert!(
                    known.contains(&seq) && pid == u64::from(client_of(seq)),
                    "survival {survival}, cut {k}: recovery published ({pid}, {seq:#x}), \
                     which no surviving descriptor names"
                );
            }
            for &id in &lost {
                assert!(
                    table.lookup(id).unwrap().is_none(),
                    "survival {survival}, cut {k}: replay answered lost request {id:#x}"
                );
            }
            if report.total_frames() > 0 && !lost.is_empty() {
                replays_over_lost += 1;
            }

            // The clients retry until answered; the whole execution must
            // be exactly-once and linearizable.
            let ops = window();
            let answers = serve_until_answered(&sys, &ops);
            let mut history: Vec<KvOp> = ops
                .iter()
                .zip(answers)
                .map(|(&(id, op), a)| observed(id, op, a))
                .collect();
            history.push(warm);
            let shards: Vec<Vec<Vec<KvWitnessRecord>>> = store
                .snapshot_sharded()
                .unwrap()
                .into_iter()
                .map(|chains| {
                    chains
                        .into_iter()
                        .map(|chain| chain.into_iter().map(KvWitnessRecord::from).collect())
                        .collect()
                })
                .collect();
            let verdict = check_kv_sharded_gen(
                &KvShardedHistory {
                    ops: history,
                    shards,
                },
                |key| shard_of(key, 1),
                &store.generations().unwrap(),
            );
            assert!(
                verdict.is_linearizable(),
                "survival {survival}, cut {k}: {verdict:?}"
            );
            // A line a cut kept by luck is read back as it survived (a
            // slot, a log tail, a bucket head: either content is a
            // consistent state), which PSan reports as a ghost read.
            // Ordering violations are never expected; ghosts only when
            // no line survives.
            let mut violations = sys.stripe.psan_violations();
            violations.extend(sys.control.psan_violations());
            violations.retain(|v| survival == 0.0 || v.kind != PsanViolationKind::GhostRead);
            assert!(
                violations.is_empty(),
                "survival {survival}, cut {k}: {violations:?}"
            );
        }
    }
    assert!(cuts >= 24, "only {cuts} cuts");
    assert!(
        replays_over_lost > 0,
        "no cut kept a window's frame while losing its descriptors"
    );
}
