//! Exhaustive interleaving checks for the service's lock-free structures,
//! run under the `loom` shim's deterministic DFS scheduler.
//!
//! Build-gated: this file only exists under the model cfg. Run it with
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release -p lc-service --test loom_model -- --nocapture
//! ```
//!
//! Each test prints the number of complete schedules it explored
//! (`loom: explored N complete schedules`); a failure prints the
//! decision trace of the offending schedule first. Two tests here are
//! deliberate *regressions*: they model yesterday's broken orderings
//! (the snapshot that read `documents` before the shard counters; the
//! waker that notified before enqueueing) and assert the model checker
//! actually catches them — proof the properties are live, not
//! vacuously green.

#![cfg(loom)]

use lc_service::metrics::ServiceMetrics;
use lc_service::{high_water_op, MaskOp, SpanRecord};
use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::Arc;

/// A 10-byte document latched on shard 1.
fn shard1_doc() -> SpanRecord {
    SpanRecord {
        doc_bytes: 10,
        shard: 1,
        ..SpanRecord::default()
    }
}

/// The documented cross-counter invariant: because `record_document`
/// increments the global `documents` before the owning shard's `docs`,
/// and `snapshot` reads the shards before the globals, the shard sum can
/// never exceed `documents` at any observable point of a record/snapshot
/// race.
#[test]
fn shard_docs_never_exceed_documents() {
    let mut b = loom::model::Builder::new();
    // The snapshot path is ~90 atomic loads; bound involuntary switches
    // to keep the tree tractable. Two preemptions cover every
    // read-read-write sandwich the invariant could trip over.
    b.preemption_bound = Some(2);
    let schedules = b.check(|| {
        let m = Arc::new(ServiceMetrics::with_topology(vec!["l0".into()], 2));
        let writer = {
            let m = Arc::clone(&m);
            loom::thread::spawn(move || {
                m.record_document(0, 5, &shard1_doc());
            })
        };
        let snap = m.snapshot();
        let shard_sum: u64 = snap.shards.iter().map(|s| s.docs).sum();
        assert!(
            shard_sum <= snap.documents,
            "shard sum {shard_sum} exceeds documents {} in a racing snapshot",
            snap.documents
        );
        writer.join().unwrap();
        let settled = m.snapshot();
        assert_eq!(settled.documents, 1);
        assert_eq!(settled.shards.iter().map(|s| s.docs).sum::<u64>(), 1);
    });
    assert!(
        schedules >= 100,
        "record/snapshot race underexplored: {schedules}"
    );
}

/// Regression: the *old* snapshot order (globals before shards) modeled
/// inline. The checker must find the schedule where a racing reader sees
/// the shard increment but not the `documents` one — proof the
/// `shard_docs_never_exceed_documents` property is live.
#[test]
fn inverted_snapshot_read_order_fails_the_model() {
    let caught = std::panic::catch_unwind(|| {
        let mut b = loom::model::Builder::new();
        b.preemption_bound = Some(2);
        b.check(|| {
            let m = Arc::new(ServiceMetrics::with_topology(vec!["l0".into()], 2));
            let writer = {
                let m = Arc::clone(&m);
                loom::thread::spawn(move || {
                    m.record_document(0, 5, &shard1_doc());
                })
            };
            // Broken read order: global counter first, shards second.
            let documents = m.documents.load(Ordering::Relaxed);
            let shard_sum: u64 = (0..2)
                .map(|i| m.shard(i).unwrap().docs.load(Ordering::Relaxed))
                .sum();
            assert!(shard_sum <= documents, "inverted read order caught");
            writer.join().unwrap();
        });
    });
    assert!(
        caught.is_err(),
        "the model failed to catch the inverted snapshot read order"
    );
}

/// The outbound wake protocol around the real [`high_water_op`] policy:
/// a worker enqueues *then* marks the wake flag; the reactor consumes
/// the flag, flushes, and applies the mask policy to what remains. Under
/// every schedule the quiescent state must satisfy lost-wakeup freedom:
/// either a wake is still pending (a future reactor pass will run), or
/// the queue is empty *and* the connection is unmasked — never bytes (or
/// a mask) stranded with no wake owed.
#[test]
fn masked_connection_never_stranded() {
    let schedules = loom::model(|| {
        run_wake_protocol(/*enqueue_before_notify=*/ true);
    });
    assert!(
        schedules >= 100,
        "wake-protocol race underexplored: {schedules}"
    );
}

/// Regression: flip the worker to notify *before* enqueueing (the
/// classic lost-wakeup order). The reactor can then consume the wake,
/// see an empty queue, and never learn about the bytes — the model must
/// find that schedule.
#[test]
fn notify_before_enqueue_fails_the_model() {
    let caught = std::panic::catch_unwind(|| {
        loom::model(|| {
            run_wake_protocol(/*enqueue_before_notify=*/ false);
        });
    });
    assert!(
        caught.is_err(),
        "the model failed to catch the notify-before-enqueue lost wakeup"
    );
}

/// One worker enqueue racing a reactor that runs up to four flush
/// passes. Pass 0 models a socket that accepts nothing (so the queue
/// crosses the one-byte high-water mark and the policy masks);
/// later passes accept everything (so draining unmasks). `need_pass`
/// models the reactor's own re-poll of a writable socket with queued
/// bytes — progress that needs no eventfd wake, exactly like the real
/// loop's `touched` list.
fn run_wake_protocol(enqueue_before_notify: bool) {
    const HIGH_WATER: usize = 1;
    let pending = Arc::new(AtomicU64::new(0));
    let wake = Arc::new(AtomicBool::new(false));
    let masked = Arc::new(AtomicBool::new(false));

    let worker = {
        let (pending, wake) = (Arc::clone(&pending), Arc::clone(&wake));
        loom::thread::spawn(move || {
            if enqueue_before_notify {
                pending.fetch_add(2, Ordering::Relaxed);
                wake.store(true, Ordering::Relaxed);
            } else {
                wake.store(true, Ordering::Relaxed);
                pending.fetch_add(2, Ordering::Relaxed);
            }
        })
    };
    let reactor = {
        let (pending, wake, masked) =
            (Arc::clone(&pending), Arc::clone(&wake), Arc::clone(&masked));
        loom::thread::spawn(move || {
            let mut need_pass = false;
            for pass in 0..4usize {
                let woke = wake.swap(false, Ordering::Relaxed);
                if !(woke || need_pass) {
                    continue;
                }
                let queued = pending.load(Ordering::Relaxed) as usize;
                let accepted = if pass == 0 { 0 } else { queued };
                if accepted > 0 {
                    pending.fetch_sub(accepted as u64, Ordering::Relaxed);
                }
                let remaining = queued - accepted;
                match high_water_op(remaining, masked.load(Ordering::Relaxed), HIGH_WATER) {
                    MaskOp::Mask => masked.store(true, Ordering::Relaxed),
                    MaskOp::Unmask => masked.store(false, Ordering::Relaxed),
                    MaskOp::Keep => {}
                }
                need_pass = remaining > 0;
            }
        })
    };
    worker.join().unwrap();
    reactor.join().unwrap();
    let wake_owed = wake.load(Ordering::Relaxed);
    let queued = pending.load(Ordering::Relaxed);
    let is_masked = masked.load(Ordering::Relaxed);
    assert!(
        wake_owed || (queued == 0 && !is_masked),
        "stranded: queued={queued} masked={is_masked} with no wake owed"
    );
}
