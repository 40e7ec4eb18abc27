//! Count-based claims need counts that repeat: two runs of a serving
//! workload with the same seed and the same number of operations must
//! report identical persist and window counts, even with two runtime
//! workers executing windows in parallel.

use perfbench::harness::{Phase, Stop};
use perfbench::{set_up, workload, ExactCounts};

const OPS: u64 = 400;

fn counts(name: &str, seed: u64) -> ExactCounts {
    let w = workload(name).expect("known workload");
    let (mut d, _, _) = set_up(w, seed).expect("setup");
    let mut phase = Phase::default();
    let stop = Stop {
        ops: Some(OPS),
        ..Stop::default()
    };
    d.run_phase(&mut phase, stop, None).expect("serving phase");
    assert!(phase.completed >= OPS, "every started op completes");
    ExactCounts::of(&phase)
}

fn assert_counts_repeat(name: &str) {
    let a = counts(name, 7);
    assert_eq!(a, counts(name, 7), "same seed, same counts");
    assert!(a.persists_per_op > 0.0 && a.ops_per_window >= 1.0, "{a:?}");
    // The counts follow the traffic: another seed gives other ones, so
    // the equality above is not vacuous.
    assert_ne!(a, counts(name, 8), "counts ignore the seed");
}

#[test]
fn mixed_slow_persist_counts_repeat() {
    assert_counts_repeat("mixed_slow_persist");
}

#[test]
fn read_heavy_fast_persist_counts_repeat() {
    assert_counts_repeat("read_heavy_fast_persist");
}
