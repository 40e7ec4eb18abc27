//! A crash-tolerant key-value store serving a mixed workload on the
//! persistent-stack runtime — the repository's first real application
//! on top of the micro-primitives.
//!
//! The demo has three acts:
//!
//! 1. drive the store directly (put/get/cas/delete over emulated
//!    NVRAM) and show the state surviving a power cut;
//! 2. run a full crash campaign: four workers drain a descriptor table
//!    of KV operations, crashes land at random flush boundaries, every
//!    restart recovers the interrupted operations from the persistent
//!    stacks, and the verifier checks the collected execution against
//!    the sequential map specification;
//! 3. re-run with the injected recovery bug ([`KvVariant::NoScan`] —
//!    the KV analogue of §5.2 removing the helping matrix) and watch
//!    the verifier catch the double application;
//! 4. outlive the version log: fill a shard past its formatted
//!    capacity — without compaction the shard bricks (puts start
//!    answering `false`), with the headroom-triggered generational
//!    compaction every mutation lands;
//! 5. pipeline a group commit: the batch's record and log-tail
//!    persists ride overlapping async flights (awaited before the
//!    publish CAS), and the state still survives a power cut.
//!
//! The whole demo runs under a flight-recorder session: the summary
//! (per-op latency percentiles, persist economy, the crash→recovery
//! timeline) prints at the end, and setting `PSTACK_TRACE=<path>`
//! writes the raw trace for `trace-dump` to render or validate.
//!
//! ```sh
//! cargo run --example kv
//! PSTACK_TRACE=/tmp/kv.trace cargo run --example kv
//! cargo run --bin trace-dump -- /tmp/kv.trace --validate
//! ```
//!
//! [`KvVariant::NoScan`]: pstack::kv::KvVariant

use pstack::chaos::{run_kv_campaign, KvCampaignConfig};
use pstack::heap::PHeap;
use pstack::kv::{shard_of, KvVariant, PKvStore, ShardedKvStore};
use pstack::nvram::{PMemBuilder, PMemStripe};
use pstack::telemetry::TraceSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Record the whole demo. With `--no-default-features` the recorder
    // is compiled out and this session collects nothing (for free).
    let session = TraceSession::start();

    // Act 1: the store API over emulated NVRAM, surviving a power cut.
    // The persist-order sanitizer rides along (`.psan(true)`): every
    // act below also proves the demo publishes nothing non-durable.
    let pmem = PMemBuilder::new()
        .len(1 << 18)
        .eager_flush(true)
        .psan(true)
        .build_in_memory();
    let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 18)?;
    let kv = PKvStore::format(pmem.clone(), &heap, 16, 128, KvVariant::Nsrl)?;
    kv.put(0, 1, 1001, 42)?;
    kv.put(0, 2, 1002, 7)?;
    kv.cas(0, 3, 1001, 42, 43)?;
    kv.delete(0, 4, 1002)?;
    pmem.crash_now(0, 0.0); // power cut: eager region, nothing to lose
    let pmem = pmem.reopen()?;
    let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl)?;
    println!(
        "after power cut: key 1001 = {:?}, key 1002 = {:?}",
        kv.get(1001)?,
        kv.get(1002)?
    );
    assert_eq!(kv.get(1001)?, Some(43));
    assert_eq!(kv.get(1002)?, None);
    assert!(
        pmem.psan_violations().is_empty(),
        "sanitizer: {:?}",
        pmem.psan_violations()
    );

    // Act 2: the full §5.2-style loop — the correct store must verify
    // as linearizable no matter where the crashes land.
    let report = run_kv_campaign(&KvCampaignConfig::new(80, 2025))?;
    println!(
        "\ncorrect store: {} ops, {} rounds, {} crashes (+{} during recovery), {} frames recovered",
        report.history.ops.len(),
        report.rounds,
        report.crashes,
        report.recovery_crashes,
        report.recovered_frames,
    );
    let records: usize = report.history.chains.iter().map(Vec::len).sum();
    println!("  chain witness: {records} mutations published");
    println!("  KV verdict: {:?}", report.verdict);
    println!(
        "  sanitizer: {} persist-order violations",
        report.psan_violations.len()
    );
    assert!(
        report.is_linearizable(),
        "the correct store must verify as linearizable"
    );
    assert!(
        report.psan_violations.is_empty(),
        "sanitizer: {:?}",
        report.psan_violations
    );

    // Act 3: the injected bug — recovery without the evidence scan
    // re-executes operations that already linearized; hunt seeds until
    // the verifier catches a double application.
    println!("\nno-scan (buggy) store, hunting for a violation:");
    let mut caught = None;
    for seed in 0.. {
        let cfg = KvCampaignConfig {
            key_space: 4,
            max_crashes: 40,
            crash_window: (10, 80),
            recovery_crash_prob: 0.5,
            access_jitter: Some((0.15, 40)),
            ..KvCampaignConfig::new(80, seed)
        }
        .variant(KvVariant::NoScan);
        let report = run_kv_campaign(&cfg)?;
        if !report.is_linearizable() {
            caught = Some((seed, report));
            break;
        }
        if seed > 200 {
            break; // practically unreachable; keep the demo bounded
        }
    }
    let (seed, report) = caught.expect("the no-scan bug manifests within a few seeds");
    println!(
        "  seed {seed}: NOT linearizable after {} crashes — {:?}",
        report.total_crashes(),
        report.verdict,
    );

    // Act 4: outliving the log — the generational compactor. A sharded
    // store with a deliberately tiny 12-slot log per shard takes 50
    // mutations on one hot shard's keys.
    println!("\ncompaction: 50 mutations into a 12-slot shard log");
    let nshards = 2;
    let log_cap = 12u64;
    let hot_keys: Vec<u64> = (0..)
        .filter(|&k| shard_of(k, nshards) == 0)
        .take(5)
        .collect();
    let build = || -> Result<(PMemStripe, ShardedKvStore), Box<dyn std::error::Error>> {
        let stripe = PMemBuilder::new()
            .len(1 << 20)
            .eager_flush(true)
            .psan(true)
            .build_striped(nshards);
        let kv = ShardedKvStore::format(stripe.regions(), 8, log_cap, KvVariant::Nsrl)?;
        Ok((stripe, kv))
    };

    // Without compaction the shard bricks — loudly.
    let (_, kv) = build()?;
    let mut bricked_at = None;
    for seq in 1..=50u64 {
        let key = hot_keys[(seq % 5) as usize];
        if !kv.put(0, seq, key, seq as i64)? {
            bricked_at = Some(seq);
            break;
        }
    }
    let bricked_at = bricked_at.expect("a 12-slot log cannot absorb 50 mutations");
    println!(
        "  WITHOUT compaction: shard 0 went READ-ONLY at mutation {bricked_at} \
         ({}/{} slots burned) — every further put on its keys fails",
        kv.shard(0).log_reserved()?,
        log_cap,
    );

    // With the headroom signal driving compact_shard, all 50 land.
    let (stripe, kv) = build()?;
    let mut compactions = 0;
    for seq in 1..=50u64 {
        let key = hot_keys[(seq % 5) as usize];
        let shard = kv.shard_of(key);
        if kv.shard(shard).log_reserved()? + 1 >= kv.shard(shard).log_capacity()? {
            let stats = kv.compact_shard(shard)?;
            compactions += 1;
            println!(
                "  compact shard {shard}: generation {} → {}, {} live carried, \
                 {} history slots dropped",
                stats.from_gen, stats.to_gen, stats.carried, stats.dropped,
            );
        }
        assert!(
            kv.put(0, seq, key, seq as i64)?,
            "with compaction no mutation is ever rejected"
        );
    }
    assert!(compactions > 0);
    println!(
        "  WITH compaction: all 50 mutations applied across {} generations; \
         key {} = {:?}",
        kv.generations()?[0] + 1,
        hot_keys[0],
        kv.get(hot_keys[0])?,
    );
    assert!(
        stripe.psan_violations().is_empty(),
        "sanitizer: {:?}",
        stripe.psan_violations()
    );
    println!("  sanitizer: 0 persist-order violations across every act");

    // Act 5: the async flush pipeline. A buffered store commits a
    // batch whose records and log-tail persists ride overlapping
    // flights (`flush.issue`/`flush.await` span pairs
    // in the trace); the awaits land before the publish CAS, so a
    // power cut still keeps the whole window.
    println!("\nflush pipeline: one group commit, two overlapping flights");
    let pmem = PMemBuilder::new().len(1 << 18).psan(true).build_in_memory();
    let heap = PHeap::format(pmem.clone(), 0u64.into(), 1 << 18)?;
    let kv = PKvStore::format(pmem.clone(), &heap, 16, 128, KvVariant::Nsrl)?;
    let ops: Vec<pstack::kv::KvBatchOp> = (0..16)
        .map(|i| pstack::kv::KvBatchOp::Put {
            pid: 9,
            seq: i + 1,
            key: 2000 + i,
            value: i as i64,
        })
        .collect();
    assert!(kv.apply_batch(&ops)?.iter().all(|o| o.took_effect()));
    let d = pmem.stats().snapshot();
    println!(
        "  {} async flights issued, {} redundant line flushes elided",
        d.async_flushes, d.elided_lines
    );
    assert!(d.async_flushes >= 2, "records + tail must ride flights");
    pmem.crash_now(5, 0.0); // power cut: awaited flights are durable
    let pmem = pmem.reopen()?;
    let kv = PKvStore::open(pmem.clone(), kv.base(), KvVariant::Nsrl)?;
    assert_eq!(kv.get(2015)?, Some(15));
    println!("  after power cut: key 2015 = {:?}", kv.get(2015)?);
    assert!(
        pmem.psan_violations().is_empty(),
        "sanitizer: {:?}",
        pmem.psan_violations()
    );

    // The flight recorder saw every act: spans from the op labels,
    // persist round-trips, the crashes and the recovery phases.
    let snapshot = session.finish();
    let summary = snapshot.summary();
    println!("\n{}", summary.render());
    if let Ok(path) = std::env::var("PSTACK_TRACE") {
        snapshot.write_file(&path)?;
        println!("trace written to {path}");
    }

    println!("\nkv example finished");
    Ok(())
}
