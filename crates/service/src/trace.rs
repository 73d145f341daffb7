//! Document-granularity trace spans.
//!
//! The metrics layer answers "what is the server doing" with one
//! aggregate snapshot of monotonic counters; a watcher works out rates
//! itself by subtracting two snapshots ([`crate::StatsDelta`]). This
//! module answers the question aggregates cannot: *what happened to
//! this document*.
//!
//! **Spans.** Every document gets one [`SpanRecord`], its stage record,
//! built by its session on one set of clock edges: accept (the Size
//! frame's shard-enqueue stamp), queue wait (its own frames only),
//! classify, latch (a clock read after the classifier's `finish`), and
//! drain (the flush of its response). The same record feeds the stage
//! histograms at latch ([`crate::ServiceMetrics::record_document`]) and
//! its drain at flush ([`SpanSet::finish`]), so a span and the
//! histograms never disagree about a document. Each document gets a
//! `trace_id` — client-supplied via the wire-v2 TraceContext extension
//! on its Size frame (so a balancer tier can propagate its own id across
//! the hop), or derived from `(conn, channel, doc_seq)` with the same
//! splitmix64 finalizer the shard hash uses. Sampling decides only which
//! records are kept: head-based 1-in-N (`--trace-sample N`; 0, the
//! default, keeps none), every document slower than `--trace-slow-us`,
//! and every faulted document, whatever the flags — the interesting
//! documents are exactly the ones a 1-in-N coin flip would usually miss.
//!
//! Kept spans land in a bounded per-shard buffer ([`SpanSet`]),
//! newest-wins: a full buffer drops its *oldest* record so a live
//! `lcbloom trace --follow` always sees current traffic. Spans leave the
//! server via `GetStats(detail=2)` as their own tag/len section — old
//! decoders skip the tag, so the schema stays v1-compatible — and the
//! dump *drains*: each span is reported exactly once. Rate watchers
//! (`lcbloom top`, `lcbloom stats --watch`) poll at detail 0, so they
//! never take spans away from a `trace --follow` reader.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Completed spans kept per shard. Small on purpose: spans are a window
/// onto current traffic, not an archive — a saturated shard wraps in
/// well under a second at full sampling.
pub const SPAN_BUFFER: usize = 256;

/// Span flag: the head-based sampler chose this document.
pub const SPAN_SAMPLED: u8 = 1;
/// Span flag: the trace id came from the client's TraceContext extension.
pub const SPAN_CLIENT_CONTEXT: u8 = 2;
/// Span flag: force-sampled because its end-to-end time crossed
/// `--trace-slow-us`.
pub const SPAN_SLOW: u8 = 4;
/// Span flag: force-sampled because a fault annotated the document.
pub const SPAN_FAULT: u8 = 8;
/// Span flag: at least one of the document's command frames was parked
/// because its shard queue was full (the backpressure path).
pub const SPAN_PARKED: u8 = 16;

/// Fault annotation for a chaos-injected worker delay (the document
/// still classified; the delay was deliberate). Values 1–9 are the wire
/// `ErrorCode` discriminants; this continues past them.
pub const FAULT_WORKER_DELAY: u8 = 10;

/// Stable lower-case name for a span's fault annotation byte: `0` is
/// unannotated ("-"), 1–9 mirror the wire `ErrorCode` taxonomy, 10 is
/// the injected worker delay.
pub fn fault_name(code: u8) -> &'static str {
    match code {
        0 => "-",
        1 => "no-result",
        2 => "size-while-busy",
        3 => "truncated-transfer",
        4 => "unexpected-dma",
        5 => "watchdog-reset",
        6 => "malformed-frame",
        7 => "engine-fault",
        8 => "busy",
        9 => "shutting-down",
        FAULT_WORKER_DELAY => "worker-delay",
        _ => "unknown",
    }
}

/// Derive a document's trace id from its channel identity and sequence
/// number: the same splitmix64-style finalizer `ChannelKey::shard` uses,
/// so ids are well spread and the 1-in-N sample (`trace_id % N == 0`)
/// is unbiased across connections and channels.
pub fn derive_trace_id(conn: u64, channel: u16, doc_seq: u32) -> u64 {
    let mut x = conn
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((u64::from(channel) << 32) | u64::from(doc_seq));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One document's stage record: identity, where it ran, why it was
/// captured, and the stage decomposition. Stage times are disjoint
/// sub-intervals of the document's life, so `queue_us + classify_us +
/// drain_us ≤ total_us` always holds (the CI trace-smoke asserts it on
/// every dumped span).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// The document's trace id (client-propagated or derived).
    pub trace_id: u64,
    /// Connection the document arrived on.
    pub conn: u64,
    /// Channel within the connection.
    pub channel: u16,
    /// Worker shard that classified it.
    pub shard: u16,
    /// The document's 1-based sequence number on its channel.
    pub doc_seq: u32,
    /// Capture-reason flags (`SPAN_SAMPLED`, `SPAN_FAULT`, …).
    pub flags: u8,
    /// Fault annotation (0 = clean; see [`fault_name`]).
    pub fault: u8,
    /// Document payload bytes.
    pub doc_bytes: u32,
    /// When the span completed, in nanoseconds since the span plane's
    /// epoch (orders spans across shards in a dump).
    pub end_ns: u64,
    /// End-to-end time in microseconds: Size accepted at its shard queue
    /// → result latched (what the `latency` histogram records), plus
    /// `drain_us` once the response flushed.
    pub total_us: u64,
    /// Time the document's command frames spent queued for their shard,
    /// each frame after the first counted only from when the previous
    /// one finished applying.
    pub queue_us: u64,
    /// Time feeding payload bytes through the classifier.
    pub classify_us: u64,
    /// Response enqueued → response bytes flushed into the socket.
    pub drain_us: u64,
}

fn unpoisoned<'a, T: ?Sized>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The span plane: the capture policy plus one bounded kept-span buffer
/// per worker shard. Every server has one (inside its
/// [`crate::ServiceMetrics`]); with head sampling and the slow threshold
/// both off it keeps only faulted documents.
#[derive(Debug)]
pub struct SpanSet {
    sample: u32,
    slow_us: u64,
    epoch: Instant,
    buffers: Vec<Mutex<VecDeque<SpanRecord>>>,
    captured: AtomicU64,
    dropped: AtomicU64,
}

impl Default for SpanSet {
    /// A plane for one shard that keeps only faulted documents.
    fn default() -> Self {
        Self::new(0, 0, 0)
    }
}

impl SpanSet {
    /// A span plane for `shards` worker shards sampling 1-in-`sample`
    /// (0 = head sampling off; faults and `slow_us` still force-sample).
    pub fn new(sample: u32, slow_us: u64, shards: usize) -> Self {
        Self {
            sample,
            slow_us,
            epoch: Instant::now(),
            buffers: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            captured: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Head-based sampling decision for a trace id.
    pub fn armed(&self, trace_id: u64) -> bool {
        self.sample != 0 && trace_id.is_multiple_of(u64::from(self.sample))
    }

    /// Nanoseconds since this span plane's epoch (stamps `end_ns`).
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The flush edge of a document's record: fold the measured drain
    /// into it, then keep it if it was head-sampled, slower than the
    /// slow threshold end to end, or fault-annotated.
    pub fn finish(&self, mut record: SpanRecord, drain: Duration) {
        record.drain_us = drain.as_micros() as u64;
        record.total_us += record.drain_us;
        if self.armed(record.trace_id) {
            record.flags |= SPAN_SAMPLED;
        }
        if self.slow_us != 0 && record.total_us > self.slow_us {
            record.flags |= SPAN_SLOW;
        }
        if record.flags & (SPAN_SAMPLED | SPAN_SLOW | SPAN_FAULT) != 0 {
            record.end_ns = self.now_ns();
            self.push(record);
        }
    }

    /// Deposit a completed span into its shard's buffer, evicting the
    /// oldest record when full (live tracing wants the newest traffic).
    fn push(&self, record: SpanRecord) {
        let i = (record.shard as usize).min(self.buffers.len() - 1);
        let mut buf = unpoisoned(self.buffers[i].lock());
        if buf.len() >= SPAN_BUFFER {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
        self.captured.fetch_add(1, Ordering::Relaxed);
    }

    /// Take every buffered span, ordered by completion time. Draining
    /// (not copying) is what lets `lcbloom trace --follow` poll: each
    /// span is reported exactly once.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for buf in &self.buffers {
            out.extend(unpoisoned(buf.lock()).drain(..));
        }
        out.sort_by_key(|s| s.end_ns);
        out
    }

    /// Spans captured over the plane's lifetime.
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Spans evicted unread because a shard buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ids_are_stable_and_spread() {
        assert_eq!(derive_trace_id(1, 2, 3), derive_trace_id(1, 2, 3));
        let ids: std::collections::HashSet<u64> =
            (0..64u32).map(|seq| derive_trace_id(7, 3, seq)).collect();
        assert_eq!(ids.len(), 64, "consecutive documents must not collide");
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let set = SpanSet::new(4, 0, 1);
        let hits = (0..4000u32)
            .filter(|&seq| set.armed(derive_trace_id(9, 1, seq)))
            .count();
        // 1-in-4 over well-mixed ids: allow a generous band.
        assert!((700..=1300).contains(&hits), "got {hits}/4000");
        let off = SpanSet::new(0, 0, 1);
        assert!(!off.armed(0), "sample 0 must never arm");
        let all = SpanSet::new(1, 0, 1);
        assert!((0..100).all(|s| all.armed(derive_trace_id(1, 1, s))));
    }

    #[test]
    fn span_buffer_evicts_oldest_keeping_newest() {
        let set = SpanSet::new(1, 0, 1);
        for seq in 0..(SPAN_BUFFER as u32 + 10) {
            set.push(SpanRecord {
                doc_seq: seq,
                ..SpanRecord::default()
            });
        }
        assert_eq!(set.captured(), SPAN_BUFFER as u64 + 10);
        assert_eq!(set.dropped(), 10);
        let spans = set.drain();
        assert_eq!(spans.len(), SPAN_BUFFER);
        assert_eq!(spans[0].doc_seq, 10, "oldest evicted first");
        // Drained means gone: the next dump starts empty.
        assert!(set.drain().is_empty());
    }

    #[test]
    fn finish_folds_drain_into_total_and_keeps_only_captured_records() {
        // Head sampling off, 1 ms slow threshold: only slow or faulted
        // records are kept.
        let set = SpanSet::new(0, 1_000, 2);
        let record = SpanRecord {
            trace_id: 42,
            shard: 1,
            total_us: 990,
            queue_us: 30,
            classify_us: 50,
            ..SpanRecord::default()
        };
        set.finish(record, Duration::from_micros(5));
        assert!(set.drain().is_empty(), "995 µs is not slow");
        set.finish(record, Duration::from_micros(25));
        let spans = set.drain();
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(s.drain_us, 25);
        assert_eq!(s.total_us, 1_015);
        assert_eq!(s.flags, SPAN_SLOW, "the drain made it slow");
        assert!(s.queue_us + s.classify_us + s.drain_us <= s.total_us);
        let faulted = SpanRecord {
            flags: SPAN_FAULT,
            ..record
        };
        set.finish(faulted, Duration::ZERO);
        assert_eq!(set.drain()[0].flags, SPAN_FAULT);
        let sampled = SpanSet::new(1, 0, 1);
        sampled.finish(record, Duration::ZERO);
        assert_eq!(sampled.drain()[0].flags, SPAN_SAMPLED);
        assert_eq!(set.captured(), 2);
    }

    #[test]
    fn fault_names_are_stable() {
        assert_eq!(fault_name(0), "-");
        assert_eq!(fault_name(7), "engine-fault");
        assert_eq!(fault_name(FAULT_WORKER_DELAY), "worker-delay");
        assert_eq!(fault_name(200), "unknown");
    }
}
