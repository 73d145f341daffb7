//! Lock-free per-server metrics.
//!
//! Everything a serving deployment wants on a dashboard: documents, bytes
//! and n-grams served, per-language wins (which languages the traffic
//! actually is), protocol faults, watchdog resets, connection-level
//! gauges (current/peak connections, accepts rejected at the cap,
//! outbound high-water stalls, slow-consumer resets), reactor-loop
//! telemetry (epoll wakeups, events-per-wake distribution, read/write
//! syscalls, eventfd wakes), per-worker-shard counters, and fixed-bucket
//! latency histograms — the end-to-end document service time (Size
//! accepted → result latched) *decomposed* into queue-wait, classify, and
//! response-drain stages so a throughput cliff can be attributed to
//! queuing vs compute vs the write path. All four are read off each
//! document's one stage record ([`SpanRecord`]), which also feeds the
//! span plane ([`SpanSet`]) at its flush.
//!
//! The counters and histograms are relaxed atomics: recording never
//! takes a lock and never fences, which is what keeps the
//! instrumentation cheap enough to leave on. Only a span the plane keeps
//! (sampled, slow or faulted) takes its shard buffer's lock.
//!
//! Each scalar counter and each shard field is declared once, in the
//! `stat_fields!` tables below, whose order is the StatsReport wire
//! order; every histogram is a [`Histogram`], which owns the only bucket
//! array.

use crate::sync::{AtomicU64, Ordering};
use crate::trace::{SpanRecord, SpanSet};
use std::marker::PhantomData;
use std::time::Duration;

/// Bounds per histogram scale.
const BOUNDS: usize = 8;

/// Buckets per histogram: the bounds plus one overflow bucket.
const BUCKETS: usize = BOUNDS + 1;

/// The bucket bounds a [`Histogram`] counts against: ascending inclusive
/// upper bounds, with one implicit overflow bucket after the last.
pub trait Scale {
    /// The bucket upper bounds.
    const BOUNDS: [u64; BOUNDS];
}

/// Microseconds in half-decade buckets (100 µs … 300 ms). Shared by the
/// end-to-end histogram, all three stage histograms, and the client-side
/// `--timing` histograms, so client and server latency diff
/// bucket-for-bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Micros;

impl Scale for Micros {
    const BOUNDS: [u64; BOUNDS] = [100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000];
}

/// Events delivered per epoll wake, in powers of two. A healthy loaded
/// reactor batches (right-heavy distribution); a distribution stuck at 1
/// event/wake under load means the loop is thrashing on wakeups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventsPerWake;

impl Scale for EventsPerWake {
    const BOUNDS: [u64; BOUNDS] = [1, 2, 4, 8, 16, 32, 64, 128];
}

/// A live fixed-bucket histogram on the bounds of `S`: one relaxed atomic
/// count per bucket.
#[derive(Debug, Default)]
pub struct Histogram<S> {
    buckets: [AtomicU64; BUCKETS],
    scale: PhantomData<S>,
}

impl<S: Scale> Histogram<S> {
    /// Count one sample of `v` in the first bucket whose bound is at least
    /// `v` (the overflow bucket past the last bound).
    pub fn record(&self, v: u64) {
        let i = S::BOUNDS.iter().position(|&b| v <= b).unwrap_or(BOUNDS);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counts.
    pub fn snapshot(&self) -> HistogramSnapshot<S> {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            scale: PhantomData,
        }
    }
}

/// Plain-data copy of a [`Histogram`].
///
/// Its [`Display`](std::fmt::Display) form is the shared percentile line,
/// `n=<samples> p50<b> p95<b> p99<b>`, each percentile read as `≤<bound>`,
/// `><last bound>` in the overflow bucket, or `-` with no samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot<S> {
    buckets: [u64; BUCKETS],
    scale: PhantomData<S>,
}

impl<S: Scale> HistogramSnapshot<S> {
    /// Counts per bucket: one per bound of `S`, then the overflow bucket.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Samples counted.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate percentile: the upper bound of the bucket holding the
    /// `q`-th percentile sample (`q` in `0.0..=1.0`), `u64::MAX` when it
    /// lands in the overflow bucket, or `None` with no samples.
    ///
    /// **Overflow sentinel:** `Some(u64::MAX)` means "beyond the last
    /// bound", *not* a measured value. Renderers must special-case it — as
    /// `> 300000 µs`, or JSON `{"gt_us": 300000}` — never serialize the raw
    /// sentinel (casting it to a signed type produces the misleading `-1`
    /// this note exists to prevent).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(S::BOUNDS.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// The non-empty buckets as (upper bound, count); the overflow
    /// bucket's bound is `None`.
    pub fn nonzero(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(i, &count)| (S::BOUNDS.get(i).copied(), count))
    }
}

impl<S: Scale> std::fmt::Display for HistogramSnapshot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n={}", self.total())?;
        for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            match self.percentile(q) {
                None => write!(f, " {label}-")?,
                Some(u64::MAX) => write!(f, " {label}>{}", S::BOUNDS[BOUNDS - 1])?,
                Some(bound) => write!(f, " {label}≤{bound}")?,
            }
        }
        Ok(())
    }
}

/// Declares a live struct of relaxed `AtomicU64` counters and its
/// plain-data `u64` copy from one field list, whose order is the fields'
/// StatsReport wire order: new fields are appended, never reordered, so
/// old decoders keep reading the prefix they know. Fields that are not
/// counters go in the two structs' own braces.
macro_rules! stat_fields {
    (
        $(#[$live_attr:meta])*
        pub struct $Live:ident { $($live_rest:tt)* }
        $(#[$plain_attr:meta])*
        pub struct $Plain:ident { $($plain_rest:tt)* }
        in wire order {
            $( $(#[$doc:meta])* $field:ident, )+
        }
    ) => {
        $(#[$live_attr])*
        pub struct $Live {
            $( $(#[$doc])* pub $field: AtomicU64, )+
            $($live_rest)*
        }

        $(#[$plain_attr])*
        pub struct $Plain {
            $( $(#[$doc])* pub $field: u64, )+
            $($plain_rest)*
        }

        impl $Live {
            /// Relaxed loads of the listed counters, in wire order.
            fn load_fields(&self, into: &mut $Plain) {
                $( into.$field = self.$field.load(Ordering::Relaxed); )+
            }
        }

        impl $Plain {
            /// How many counters the list declares.
            const FIELDS: usize = [$(stringify!($field)),+].len();

            /// The listed counters in wire order.
            fn fields(&self) -> [u64; Self::FIELDS] {
                [$(self.$field),+]
            }

            /// The listed counters in wire order, for the decoder to fill.
            fn fields_mut(&mut self) -> [&mut u64; Self::FIELDS] {
                [$(&mut self.$field),+]
            }
        }
    };
}

stat_fields! {
    /// One worker shard's live counters (relaxed atomics, updated by the
    /// reactor on enqueue and the shard thread on dequeue/apply).
    #[derive(Debug, Default)]
    pub struct ShardCounters {}

    /// Plain-data copy of one shard's counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ShardStats {}

    in wire order {
        /// Documents whose results latched on this shard. Summed across
        /// shards this equals the global `documents` counter — both are
        /// incremented by the same `record_document` call.
        docs,
        /// Nanoseconds the shard thread spent applying commands (busy time;
        /// compare across shards to see the static-hash imbalance).
        busy_ns,
        /// Jobs currently sitting in the shard's queue. Live, it is a
        /// two's-complement signed count: the reactor counts a job in after
        /// its send succeeded, so the shard thread may count it out first
        /// and take the gauge to -1 for a moment. A snapshot clamps it at 0.
        queue_depth,
        /// Deepest the queue ever got.
        queue_depth_peak,
        /// Commands parked in a connection's stall list because this shard's
        /// queue was full (the reactor's park-and-retry path).
        parked,
        /// Jobs ever enqueued to this shard.
        jobs,
    }
}

impl ShardCounters {
    /// Note a job entering the shard queue.
    pub fn note_enqueued(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let depth = self
            .queue_depth
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1) as i64;
        if depth > 0 {
            self.queue_depth_peak
                .fetch_max(depth as u64, Ordering::Relaxed);
        }
    }

    /// Note a job leaving the shard queue (the shard thread picked it up).
    /// It may run before the job's [`Self::note_enqueued`]; the signed
    /// gauge then dips to -1 and the late increment brings it back, so
    /// enqueues and dequeues stay balanced whatever their order.
    pub fn note_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ShardStats {
        let mut s = ShardStats::default();
        self.load_fields(&mut s);
        s.queue_depth = (s.queue_depth as i64).max(0) as u64;
        s
    }
}

stat_fields! {
    /// Shared counters, updated by connection handlers and workers.
    #[derive(Debug, Default)]
    pub struct ServiceMetrics {
        /// Language names, index-aligned with `lang_wins` (empty when the
        /// metrics were built without names; rendering falls back to
        /// `lang{i}`).
        lang_names: Vec<String>,
        /// Wins per language, index-aligned with the classifier's names.
        lang_wins: Vec<AtomicU64>,
        /// End-to-end latency (Size accepted → result latched).
        latency: Histogram<Micros>,
        /// Queue-wait stage (the document's own frames, shard-enqueued →
        /// worker-dequeued).
        queue_wait: Histogram<Micros>,
        /// Classify stage (time feeding the classifier, `finish` included).
        classify: Histogram<Micros>,
        /// Response-drain stage (response enqueued → its bytes flushed into
        /// the socket).
        response_drain: Histogram<Micros>,
        /// Events-per-epoll-wake distribution.
        events_per_wake: Histogram<EventsPerWake>,
        /// Per-worker-shard counters (empty when built without topology).
        shards: Vec<ShardCounters>,
        /// Classify probe path (`"scalar"`/`"avx2"`), set once at startup from
        /// the classifier's resolved dispatch; empty until then.
        simd: std::sync::OnceLock<String>,
        /// The span plane: keeps the stage records of faulted documents, and
        /// of sampled and slow ones under [`ServiceMetrics::with_span_policy`].
        spans: SpanSet,
    }

    /// Plain-data copy of [`ServiceMetrics`].
    ///
    /// **Consistency:** see [`ServiceMetrics::snapshot`] — individual
    /// counters are exact, cross-counter relationships can tear by the
    /// in-flight window mid-load, and a quiesced snapshot is exact across
    /// all counters.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        /// Language names, index-aligned with `lang_wins`.
        pub lang_names: Vec<String>,
        /// Wins per language.
        pub lang_wins: Vec<u64>,
        /// End-to-end latency histogram.
        pub latency: HistogramSnapshot<Micros>,
        /// Queue-wait stage histogram.
        pub queue_wait: HistogramSnapshot<Micros>,
        /// Classify stage histogram.
        pub classify: HistogramSnapshot<Micros>,
        /// Response-drain stage histogram.
        pub response_drain: HistogramSnapshot<Micros>,
        /// Events-per-epoll-wake distribution.
        pub events_per_wake: HistogramSnapshot<EventsPerWake>,
        /// Per-worker-shard counters.
        pub shards: Vec<ShardStats>,
        /// Trace spans drained by a `GetStats(detail=2)` answer: faulted
        /// documents always, sampled and slow ones per `--trace-sample` /
        /// `--trace-slow-us`; empty in plain snapshots and at lower detail.
        pub spans: Vec<SpanRecord>,
        /// Classify probe path the server selected (`"scalar"`/`"avx2"`);
        /// empty when the server predates the field or never set it.
        pub simd: String,
    }

    in wire order {
        /// Connections accepted over the server's lifetime.
        connections,
        /// Currently open connections.
        connections_current,
        /// Most connections ever open at once.
        connections_peak,
        /// Accepts refused because `connections_current` hit the
        /// `max_connections` cap.
        accepts_rejected,
        /// Times a connection's outbound queue crossed the high-water mark
        /// (its `EPOLLIN` was masked until the queue drained).
        outbound_stalls,
        /// Deepest any single connection's outbound queue ever got, in bytes —
        /// the high-water mark slow-consumer tuning needs to see without a
        /// debugger (compare against `outbound_high_water`).
        outbound_queue_peak,
        /// Connections reset for sitting above high-water past the
        /// slow-consumer deadline.
        slow_consumer_resets,
        /// Channels (independent command streams; a v1 connection is one
        /// channel) currently open across all connections.
        channels_current,
        /// Most channels ever open at once.
        channels_peak,
        /// Reset commands applied to a channel's session (mid-document Resets
        /// discard the in-flight document).
        channel_resets,
        /// Data frames decoded by the reactors.
        data_frames,
        /// Data payloads *copied* between reactor and worker. The zero-copy
        /// frame path keeps this at exactly 0 (payloads travel as refcounted
        /// rope segments); `tests/service_e2e.rs` asserts it.
        payload_copies,
        /// Documents classified (results latched).
        documents,
        /// Document payload bytes classified.
        bytes,
        /// N-grams tested.
        ngrams,
        /// Protocol faults answered with an Error response.
        protocol_errors,
        /// Stalled sessions reset by the watchdog.
        watchdog_resets,
        /// Worker panics caught by the per-document unwind guard (the
        /// document got an `EngineFault` response; the thread survived).
        worker_panics,
        /// Worker shard threads respawned by the pool supervisor after a
        /// panic escaped the per-document guard.
        worker_restarts,
        /// Documents shed with a `Busy` fault: the channel's shard queue was
        /// full while the connection's outbound queue sat over high-water.
        busy_shed,
        /// Documents refused with a `ShuttingDown` fault during drain.
        drain_shed,
        /// Channels torn down early by a `CloseChannel` control frame.
        channels_closed,
        /// Faults injected by an active chaos plan (0 in production).
        faults_injected,
        /// `epoll_wait` returns across all reactor threads.
        reactor_wakeups,
        /// Eventfd wake tokens drained (worker → reactor nudges that landed;
        /// diff against `wake_drop` chaos to see swallowed wakes).
        eventfd_wakes,
        /// Socket read syscalls issued by the reactors.
        read_syscalls,
        /// Socket write passes issued by the reactors (write-through and
        /// queued flushes).
        write_syscalls,
        /// Reads that left a frame mid-reassembly (short-read continuations:
        /// the frame completed only on a later read).
        short_read_continuations,
    }
}

impl ServiceMetrics {
    /// Fresh zeroed metrics for `num_languages` counters (no names, no
    /// shard topology — the test-friendly constructor).
    pub fn new(num_languages: usize) -> Self {
        Self::with_topology((0..num_languages).map(|i| format!("lang{i}")).collect(), 0)
    }

    /// Fresh zeroed metrics carrying the classifier's language names and
    /// `workers` per-shard counter blocks (what `serve` builds).
    pub fn with_topology(lang_names: Vec<String>, workers: usize) -> Self {
        Self {
            lang_wins: (0..lang_names.len()).map(|_| AtomicU64::new(0)).collect(),
            lang_names,
            shards: (0..workers).map(|_| ShardCounters::default()).collect(),
            spans: SpanSet::new(0, 0, workers),
            ..Self::default()
        }
    }

    /// These metrics with the span plane keeping 1-in-`sample` document
    /// records (0 = none) and every record slower than `slow_us` end to
    /// end (0 = off), on top of the faulted ones it always keeps.
    pub fn with_span_policy(mut self, sample: u32, slow_us: u64) -> Self {
        self.spans = SpanSet::new(sample, slow_us, self.shards.len());
        self
    }

    /// The span plane (drained into `GetStats(detail=2)` answers).
    pub fn spans(&self) -> &SpanSet {
        &self.spans
    }

    /// Record the classify probe path (`"scalar"`/`"avx2"`) the server's
    /// classifier actually selected. Set once at startup — dispatch is
    /// decided once per classifier, never per call — so later calls are
    /// ignored.
    pub fn set_simd(&self, level: &str) {
        let _ = self.simd.set(level.to_string());
    }

    /// Shard `i`'s counter block, when the metrics carry a topology.
    pub fn shard(&self, i: usize) -> Option<&ShardCounters> {
        self.shards.get(i)
    }

    /// Record one document at its latch, from its stage record: the
    /// global counters, the winning language, the end-to-end latency
    /// bucket (`total_us`, accept → latch), the queue-wait and classify
    /// buckets, and the owning shard's `docs` — all in the same call so
    /// per-shard docs always sum to the global counter.
    pub fn record_document(&self, winner: usize, ngrams: u64, record: &SpanRecord) {
        self.documents.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(u64::from(record.doc_bytes), Ordering::Relaxed);
        self.ngrams.fetch_add(ngrams, Ordering::Relaxed);
        if let Some(w) = self.lang_wins.get(winner) {
            w.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(s) = self.shards.get(usize::from(record.shard)) {
            s.docs.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(record.total_us);
        self.queue_wait.record(record.queue_us);
        self.classify.record(record.classify_us);
    }

    /// Record a response's drain time (response enqueued → its bytes
    /// flushed into the socket). Recorded by the outbound path, which is
    /// the only place that sees the actual flush — under backpressure
    /// this is the stage that grows.
    pub fn record_drain(&self, drain: Duration) {
        self.response_drain.record(drain.as_micros() as u64);
    }

    /// Record one `epoll_wait` return delivering `events` events. Timeout
    /// ticks (zero events) count as wakeups but stay out of the
    /// events-per-wake histogram, which would otherwise drown in idle
    /// ticks.
    pub fn record_wake(&self, events: usize) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        if events == 0 {
            return;
        }
        self.events_per_wake.record(events as u64);
    }

    /// Point-in-time copy of all counters.
    ///
    /// **Consistency model:** every counter is loaded individually with
    /// `Ordering::Relaxed` and no lock freezes the set, so a snapshot
    /// taken mid-load can *tear across counters* — e.g. `documents`
    /// already incremented for a latching document whose `bytes` add has
    /// not landed yet. Each individual counter is exact (never torn
    /// within itself), monotonic counters never run backwards between
    /// snapshots, and once the server is quiesced (clients drained,
    /// workers idle — or after `shutdown()`) a snapshot is exact across
    /// all counters. Cross-counter invariants (per-shard docs summing to
    /// `documents`, `bytes`/`documents` ratios) therefore hold exactly on
    /// quiesced snapshots and to within the in-flight window mid-load.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Load the per-shard blocks *before* the global counters.
        // `record_document` increments `documents` first and the owning
        // shard's `docs` second, so the documented "shard sum never
        // exceeds `documents`" invariant only holds for a racing reader
        // that observes them in the opposite order: shards first, then
        // the global counter (which can only have grown since). Reading
        // `documents` first (as this method originally did) lets a
        // snapshot catch a smaller `documents` than the shard sum — the
        // loom model test `shard_docs_never_exceed_documents` pins this
        // order.
        let shards: Vec<ShardStats> = self.shards.iter().map(ShardCounters::snapshot).collect();
        let mut counters = MetricsSnapshot::default();
        self.load_fields(&mut counters);
        MetricsSnapshot {
            lang_names: self.lang_names.clone(),
            lang_wins: self
                .lang_wins
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            latency: self.latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            classify: self.classify.snapshot(),
            response_drain: self.response_drain.snapshot(),
            events_per_wake: self.events_per_wake.snapshot(),
            shards,
            spans: Vec::new(),
            simd: self.simd.get().cloned().unwrap_or_default(),
            ..counters
        }
    }
}

/// Failure decoding a [`MetricsSnapshot`] wire blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotDecodeError(&'static str);

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed stats report: {}", self.0)
    }
}

impl std::error::Error for SnapshotDecodeError {}

/// Current wire schema version written by [`MetricsSnapshot::encode`].
pub const STATS_SCHEMA_VERSION: u16 = 1;

// Section tags of the StatsReport schema. Every section is
// `tag: u16, len: u32, body`, so a decoder skips unknown tags by length;
// within a section, arrays are count-prefixed so future appended fields
// are skipped by count. Both are what lets old clients read new servers.
const SEC_COUNTERS: u16 = 1;
const SEC_LANGS: u16 = 2;
const SEC_STAGES: u16 = 3;
const SEC_WAKE_HIST: u16 = 4;
const SEC_SHARDS: u16 = 5;
/// Retired: the per-reactor event-ring dumps of older servers. No server
/// emits it any more and the decoder skips it; never reuse the value.
const SEC_RINGS: u16 = 6;
const SEC_SPANS: u16 = 7;
/// Retired: the server-side time-series history of older servers.
/// Watchers now subtract two counter snapshots ([`StatsDelta`]); the
/// decoder skips the section. Never reuse the value.
const SEC_HISTORY: u16 = 8;
const SEC_SIMD: u16 = 9;

const STAGE_COUNT: usize = 4;
/// Serialized [`SpanRecord`] size; each record is length-prefixed by the
/// section header so a future schema can append fields that old decoders
/// skip per-record.
const SPAN_RECORD_BYTES: usize = 70;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_section(out: &mut Vec<u8>, tag: u16, body: &[u8]) {
    put_u16(out, tag);
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

/// Checked little-endian reader over a decode buffer.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        if self.buf.len() < n {
            return Err(SnapshotDecodeError("section shorter than declared"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotDecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` `u64`s into `slots` in order. Values past the last slot
    /// are fields a newer schema appended: read and dropped.
    fn u64s_into<'s>(
        &mut self,
        n: usize,
        slots: impl IntoIterator<Item = &'s mut u64>,
    ) -> Result<(), SnapshotDecodeError> {
        let mut slots = slots.into_iter();
        for _ in 0..n {
            let v = self.u64()?;
            if let Some(slot) = slots.next() {
                *slot = v;
            }
        }
        Ok(())
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl MetricsSnapshot {
    /// Serialize into the versioned StatsReport wire schema: a `u16`
    /// schema version, then self-describing sections (`tag: u16`,
    /// `len: u32`, body). Unknown sections and appended fields are
    /// skippable by construction, so decoders and encoders can evolve
    /// independently.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        put_u16(&mut out, STATS_SCHEMA_VERSION);

        let counters = self.fields();
        let mut body = Vec::with_capacity(2 + counters.len() * 8);
        put_u16(&mut body, counters.len() as u16);
        for v in counters {
            put_u64(&mut body, v);
        }
        put_section(&mut out, SEC_COUNTERS, &body);

        let mut body = Vec::new();
        put_u16(&mut body, self.lang_wins.len() as u16);
        for (i, &wins) in self.lang_wins.iter().enumerate() {
            let name = self.lang_names.get(i).map(String::as_str).unwrap_or("");
            let b = &name.as_bytes()[..name.len().min(u16::MAX as usize)];
            put_u16(&mut body, b.len() as u16);
            body.extend_from_slice(b);
            put_u64(&mut body, wins);
        }
        put_section(&mut out, SEC_LANGS, &body);

        let mut body = Vec::new();
        put_u16(&mut body, BOUNDS as u16);
        for b in Micros::BOUNDS {
            put_u64(&mut body, b);
        }
        put_u16(&mut body, STAGE_COUNT as u16);
        put_u16(&mut body, BUCKETS as u16);
        for stage in [
            &self.latency,
            &self.queue_wait,
            &self.classify,
            &self.response_drain,
        ] {
            for &count in stage.buckets() {
                put_u64(&mut body, count);
            }
        }
        put_section(&mut out, SEC_STAGES, &body);

        let mut body = Vec::new();
        put_u16(&mut body, BUCKETS as u16);
        for &count in self.events_per_wake.buckets() {
            put_u64(&mut body, count);
        }
        put_section(&mut out, SEC_WAKE_HIST, &body);

        let mut body = Vec::new();
        put_u16(&mut body, self.shards.len() as u16);
        put_u16(&mut body, ShardStats::FIELDS as u16);
        for s in &self.shards {
            for v in s.fields() {
                put_u64(&mut body, v);
            }
        }
        put_section(&mut out, SEC_SHARDS, &body);

        if !self.spans.is_empty() {
            let mut body = Vec::with_capacity(8 + self.spans.len() * SPAN_RECORD_BYTES);
            put_u32(&mut body, self.spans.len() as u32);
            put_u16(&mut body, SPAN_RECORD_BYTES as u16);
            for s in &self.spans {
                put_u64(&mut body, s.trace_id);
                put_u64(&mut body, s.conn);
                put_u16(&mut body, s.channel);
                put_u16(&mut body, s.shard);
                put_u32(&mut body, s.doc_seq);
                body.push(s.flags);
                body.push(s.fault);
                put_u32(&mut body, s.doc_bytes);
                put_u64(&mut body, s.end_ns);
                put_u64(&mut body, s.total_us);
                put_u64(&mut body, s.queue_us);
                put_u64(&mut body, s.classify_us);
                put_u64(&mut body, s.drain_us);
            }
            put_section(&mut out, SEC_SPANS, &body);
        }

        if !self.simd.is_empty() {
            let b = self.simd.as_bytes();
            let b = &b[..b.len().min(u16::MAX as usize)];
            let mut body = Vec::with_capacity(2 + b.len());
            put_u16(&mut body, b.len() as u16);
            body.extend_from_slice(b);
            put_section(&mut out, SEC_SIMD, &body);
        }

        out
    }

    /// Decode a StatsReport blob. Unknown sections are skipped by length
    /// and unknown appended fields by count, so a blob from a *newer*
    /// schema still yields every field this build knows; sections a blob
    /// omits stay at their defaults.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotDecodeError> {
        let mut r = Reader { buf: bytes };
        let _version = r.u16()?; // all versions share the section framing
        let mut snap = MetricsSnapshot::default();
        while !r.is_empty() {
            let tag = r.u16()?;
            let len = r.u32()? as usize;
            let mut body = Reader { buf: r.take(len)? };
            match tag {
                SEC_COUNTERS => {
                    let n = body.u16()? as usize;
                    body.u64s_into(n, snap.fields_mut())?;
                }
                SEC_LANGS => {
                    let n = body.u16()? as usize;
                    let mut names = Vec::with_capacity(n);
                    let mut wins = Vec::with_capacity(n);
                    for _ in 0..n {
                        let len = body.u16()? as usize;
                        let name = std::str::from_utf8(body.take(len)?)
                            .map_err(|_| SnapshotDecodeError("language name not UTF-8"))?;
                        names.push(name.to_string());
                        wins.push(body.u64()?);
                    }
                    snap.lang_names = names;
                    snap.lang_wins = wins;
                }
                SEC_STAGES => {
                    let n_bounds = body.u16()? as usize;
                    for _ in 0..n_bounds {
                        let _ = body.u64()?; // bounds are self-description
                    }
                    let stages = body.u16()? as usize;
                    let buckets = body.u16()? as usize;
                    let mut known = [
                        &mut snap.latency,
                        &mut snap.queue_wait,
                        &mut snap.classify,
                        &mut snap.response_drain,
                    ]
                    .into_iter();
                    for _ in 0..stages {
                        let slots = known.next().into_iter().flat_map(|h| h.buckets.iter_mut());
                        body.u64s_into(buckets, slots)?;
                    }
                }
                SEC_WAKE_HIST => {
                    let buckets = body.u16()? as usize;
                    body.u64s_into(buckets, snap.events_per_wake.buckets.iter_mut())?;
                }
                SEC_SHARDS => {
                    let n = body.u16()? as usize;
                    let fields = body.u16()? as usize;
                    let mut shards = Vec::with_capacity(n);
                    for _ in 0..n {
                        let mut shard = ShardStats::default();
                        body.u64s_into(fields, shard.fields_mut())?;
                        shards.push(shard);
                    }
                    snap.shards = shards;
                }
                // An older server's event-ring dumps or history slots:
                // skipped like an unknown section.
                SEC_RINGS | SEC_HISTORY => {}
                SEC_SPANS => {
                    let n = body.u32()? as usize;
                    let rec_len = body.u16()? as usize;
                    if rec_len < SPAN_RECORD_BYTES {
                        return Err(SnapshotDecodeError("span record shorter than known"));
                    }
                    let mut spans = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        let mut rec = Reader {
                            buf: body.take(rec_len)?,
                        };
                        spans.push(SpanRecord {
                            trace_id: rec.u64()?,
                            conn: rec.u64()?,
                            channel: rec.u16()?,
                            shard: rec.u16()?,
                            doc_seq: rec.u32()?,
                            flags: rec.u8()?,
                            fault: rec.u8()?,
                            doc_bytes: rec.u32()?,
                            end_ns: rec.u64()?,
                            total_us: rec.u64()?,
                            queue_us: rec.u64()?,
                            classify_us: rec.u64()?,
                            drain_us: rec.u64()?,
                        });
                        // Trailing bytes are fields from a newer schema.
                    }
                    snap.spans = spans;
                }
                SEC_SIMD => {
                    let len = body.u16()? as usize;
                    snap.simd = std::str::from_utf8(body.take(len)?)
                        .map_err(|_| SnapshotDecodeError("simd label not UTF-8"))?
                        .to_string();
                }
                _ => {} // a section from a newer schema: skipped by length
            }
        }
        Ok(snap)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {}/{} (peak {}) docs {} bytes {} ngrams {} errors {} watchdog {}",
            self.connections_current,
            self.connections,
            self.connections_peak,
            self.documents,
            self.bytes,
            self.ngrams,
            self.protocol_errors,
            self.watchdog_resets,
        )?;
        write!(
            f,
            " channels {} (peak {})",
            self.channels_current, self.channels_peak
        )?;
        if self.channel_resets > 0 {
            write!(f, " ch-resets {}", self.channel_resets)?;
        }
        if self.accepts_rejected > 0 {
            write!(f, " rejected {}", self.accepts_rejected)?;
        }
        if self.outbound_stalls > 0 {
            write!(
                f,
                " stalls {} (queue-peak {} B)",
                self.outbound_stalls, self.outbound_queue_peak
            )?;
        }
        if self.slow_consumer_resets > 0 {
            write!(f, " slow-resets {}", self.slow_consumer_resets)?;
        }
        if self.channels_closed > 0 {
            write!(f, " ch-closed {}", self.channels_closed)?;
        }
        if self.worker_panics > 0 || self.worker_restarts > 0 {
            write!(
                f,
                " worker-panics {} restarts {}",
                self.worker_panics, self.worker_restarts
            )?;
        }
        if self.busy_shed > 0 {
            write!(f, " busy-shed {}", self.busy_shed)?;
        }
        if self.drain_shed > 0 {
            write!(f, " drain-shed {}", self.drain_shed)?;
        }
        if self.faults_injected > 0 {
            write!(f, " chaos-injected {}", self.faults_injected)?;
        }
        if self.payload_copies > 0 {
            write!(
                f,
                " payload-copies {}/{}",
                self.payload_copies, self.data_frames
            )?;
        }
        // Top-3 languages by win count — the per-language counters were
        // collected from day one but never rendered anywhere.
        let mut wins: Vec<(usize, u64)> = self
            .lang_wins
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w > 0)
            .collect();
        if !wins.is_empty() {
            wins.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            write!(f, " | top")?;
            for &(i, w) in wins.iter().take(3) {
                match self.lang_names.get(i) {
                    Some(name) if !name.is_empty() => write!(f, " {name}:{w}")?,
                    _ => write!(f, " lang{i}:{w}")?,
                }
            }
        }
        write!(f, " | latency(µs)")?;
        for (bound, count) in self.latency.nonzero() {
            match bound {
                Some(b) => write!(f, " ≤{b}:{count}")?,
                None => write!(f, " >{}:{count}", Micros::BOUNDS[BOUNDS - 1])?,
            }
        }
        if !self.simd.is_empty() {
            write!(f, " | simd {}", self.simd)?;
        }
        Ok(())
    }
}

/// One shard's share of a [`StatsDelta`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardDelta {
    /// Documents latched on this shard during the interval.
    pub docs: u64,
    /// Nanoseconds the shard thread spent applying commands.
    pub busy_ns: u64,
    /// Queue depth at the interval's end (a gauge, not a delta).
    pub queue_depth: u64,
}

/// What changed between two snapshots of the same server: counter
/// deltas over the wall-clock interval the reader measured between its
/// two reads. The server exports only monotonic counters; a watcher
/// (`lcbloom top`, `lcbloom stats --watch`) keeps its previous snapshot
/// and works out its own rates, like a Prometheus `rate()`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// The measured wall-clock interval between the two reads.
    pub interval: Duration,
    /// Documents classified during the interval.
    pub docs: u64,
    /// Document payload bytes classified during the interval.
    pub doc_bytes: u64,
    /// Protocol faults answered during the interval.
    pub errors: u64,
    /// Chaos faults injected during the interval.
    pub faults: u64,
    /// Per-shard deltas/gauges, shard-indexed.
    pub shards: Vec<ShardDelta>,
}

impl StatsDelta {
    /// The delta from `prev` to `cur`, read `interval` apart. Counters
    /// are monotonic, but the subtraction saturates anyway so a torn
    /// mid-load snapshot can never produce a wrapped delta.
    pub fn delta(prev: &MetricsSnapshot, cur: &MetricsSnapshot, interval: Duration) -> Self {
        Self {
            interval,
            docs: cur.documents.saturating_sub(prev.documents),
            doc_bytes: cur.bytes.saturating_sub(prev.bytes),
            errors: cur.protocol_errors.saturating_sub(prev.protocol_errors),
            faults: cur.faults_injected.saturating_sub(prev.faults_injected),
            shards: cur
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let p = prev.shards.get(i).copied().unwrap_or_default();
                    ShardDelta {
                        docs: s.docs.saturating_sub(p.docs),
                        busy_ns: s.busy_ns.saturating_sub(p.busy_ns),
                        queue_depth: s.queue_depth,
                    }
                })
                .collect(),
        }
    }

    /// `v` per second of the interval (0 for an empty interval).
    fn per_s(&self, v: f64) -> f64 {
        let secs = self.interval.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            v / secs
        }
    }

    /// Documents per second over the interval.
    pub fn docs_per_s(&self) -> f64 {
        self.per_s(self.docs as f64)
    }

    /// Payload megabytes per second over the interval.
    pub fn mb_per_s(&self) -> f64 {
        self.per_s(self.doc_bytes as f64 / (1024.0 * 1024.0))
    }

    /// Fraction of the interval shard `i` spent busy (0 when unknown).
    pub fn busy_frac(&self, i: usize) -> f64 {
        self.shards
            .get(i)
            .map_or(0.0, |s| self.per_s(s.busy_ns as f64 / 1e9).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(bytes: u32, shard: u16, total_us: u64) -> SpanRecord {
        SpanRecord {
            doc_bytes: bytes,
            shard,
            total_us,
            ..SpanRecord::default()
        }
    }

    #[test]
    fn documents_land_in_the_right_bucket() {
        let m = ServiceMetrics::new(3);
        m.record_document(1, 97, &doc(100, 0, 50));
        m.record_document(1, 197, &doc(200, 0, 2000));
        m.record_document(2, 297, &doc(300, 0, 10_000_000));
        let s = m.snapshot();
        assert_eq!(s.documents, 3);
        assert_eq!(s.bytes, 600);
        assert_eq!(s.ngrams, 591);
        assert_eq!(s.lang_wins, vec![0, 2, 1]);
        assert_eq!(s.latency.buckets()[0], 1); // ≤ 100 µs
        assert_eq!(s.latency.buckets()[3], 1); // ≤ 3 ms
        assert_eq!(s.latency.buckets()[BOUNDS], 1); // overflow
    }

    #[test]
    fn stage_histograms_land_in_the_right_bucket() {
        // Mirrors documents_land_in_the_right_bucket for the per-stage
        // decomposition: each stage buckets independently on the shared
        // bounds.
        let m = ServiceMetrics::new(1);
        m.record_document(
            0,
            5,
            &SpanRecord {
                doc_bytes: 10,
                shard: 0,
                total_us: 250,
                queue_us: 50,
                classify_us: 150,
                ..SpanRecord::default()
            },
        );
        m.record_document(
            0,
            5,
            &SpanRecord {
                doc_bytes: 10,
                shard: 0,
                total_us: 1_000_000,
                queue_us: 950_000,
                classify_us: 100,
                ..SpanRecord::default()
            },
        );
        m.record_drain(Duration::from_micros(90));
        m.record_drain(Duration::from_millis(20));
        let s = m.snapshot();
        assert_eq!(s.latency.buckets()[1], 1); // 250 µs ≤ 300
        assert_eq!(s.latency.buckets()[BOUNDS], 1); // 1 s overflows
        assert_eq!(s.queue_wait.buckets()[0], 1); // 50 µs ≤ 100
        assert_eq!(s.queue_wait.buckets()[BOUNDS], 1); // 950 ms > 300 ms
        assert_eq!(s.classify.buckets()[1], 1); // 150 µs ≤ 300
        assert_eq!(s.classify.buckets()[0], 1); // 100 µs ≤ 100 (exact boundary)
        assert_eq!(s.response_drain.buckets()[0], 1); // 90 µs ≤ 100
        assert_eq!(s.response_drain.buckets()[5], 1); // 20 ms ≤ 30 ms
    }

    #[test]
    fn stage_bucket_boundaries_are_inclusive() {
        for (i, &bound) in Micros::BOUNDS.iter().enumerate() {
            let m = ServiceMetrics::new(1);
            m.record_drain(Duration::from_micros(bound));
            assert_eq!(
                m.snapshot().response_drain.buckets()[i],
                1,
                "bound {bound} µs"
            );
            m.record_drain(Duration::from_micros(bound + 1));
            let next = m.snapshot();
            assert_eq!(
                next.response_drain.buckets()[i + 1],
                1,
                "just past bound {bound} µs lands one bucket up"
            );
        }
    }

    #[test]
    fn shard_docs_sum_to_global_documents() {
        let m = ServiceMetrics::with_topology(vec!["en".into()], 3);
        m.record_document(0, 1, &doc(1, 0, 0));
        m.record_document(0, 1, &doc(1, 2, 0));
        m.record_document(0, 1, &doc(1, 2, 0));
        // Out-of-range shard: counted globally, unattributed per-shard.
        m.record_document(0, 1, &doc(1, u16::MAX, 0));
        let s = m.snapshot();
        assert_eq!(s.documents, 4);
        assert_eq!(s.shards.len(), 3);
        assert_eq!(s.shards[0].docs, 1);
        assert_eq!(s.shards[1].docs, 0);
        assert_eq!(s.shards[2].docs, 2);
    }

    #[test]
    fn shard_queue_gauges_track_depth_and_peak() {
        let m = ServiceMetrics::with_topology(Vec::new(), 1);
        let s = m.shard(0).unwrap();
        s.note_enqueued();
        s.note_enqueued();
        s.note_enqueued();
        s.note_dequeued();
        let snap = m.snapshot();
        assert_eq!(snap.shards[0].jobs, 3);
        assert_eq!(snap.shards[0].queue_depth, 2);
        assert_eq!(snap.shards[0].queue_depth_peak, 3);
        s.note_dequeued();
        s.note_dequeued();
        assert_eq!(m.snapshot().shards[0].queue_depth, 0);
        // A dequeue counted before its enqueue (the shard thread won the
        // race with the reactor) neither wraps the gauge nor leaves it
        // off by one once the enqueue lands.
        s.note_dequeued();
        assert_eq!(m.snapshot().shards[0].queue_depth, 0);
        s.note_enqueued();
        assert_eq!(m.snapshot().shards[0].queue_depth, 0);
        assert_eq!(m.snapshot().shards[0].queue_depth_peak, 3);
        s.note_enqueued();
        assert_eq!(m.snapshot().shards[0].queue_depth, 1);
        assert!(m.shard(1).is_none());
    }

    #[test]
    fn wake_histogram_buckets_event_counts() {
        let m = ServiceMetrics::new(0);
        m.record_wake(1);
        m.record_wake(2);
        m.record_wake(5);
        m.record_wake(200);
        m.record_wake(0); // timeout tick: a wakeup, not a histogram entry
        let s = m.snapshot();
        assert_eq!(s.reactor_wakeups, 5);
        assert_eq!(s.events_per_wake.total(), 4);
        assert_eq!(s.events_per_wake.buckets()[0], 1); // 1
        assert_eq!(s.events_per_wake.buckets()[1], 1); // 2
        assert_eq!(s.events_per_wake.buckets()[3], 1); // 5 ≤ 8
        assert_eq!(s.events_per_wake.buckets()[BOUNDS], 1); // 200
    }

    #[test]
    fn out_of_range_winner_is_ignored() {
        let m = ServiceMetrics::new(2);
        m.record_document(9, 1, &doc(1, 0, 0));
        assert_eq!(m.snapshot().lang_wins, vec![0, 0]);
        assert_eq!(m.snapshot().documents, 1);
    }

    #[test]
    fn snapshot_displays_compactly() {
        let m = ServiceMetrics::new(1);
        m.record_document(0, 7, &doc(10, 0, 80));
        let line = m.snapshot().to_string();
        assert!(line.contains("docs 1"));
        assert!(line.contains("≤100:1"));
        // Zero-valued fault gauges stay out of the line...
        assert!(!line.contains("stalls"));
        assert!(!line.contains("rejected"));
        assert!(!line.contains("slow-resets"));
    }

    #[test]
    fn display_shows_top_three_languages_by_wins() {
        let m = ServiceMetrics::with_topology(
            vec!["en".into(), "fr".into(), "de".into(), "es".into()],
            0,
        );
        for _ in 0..5 {
            m.record_document(1, 1, &doc(1, 0, 0));
        }
        for _ in 0..3 {
            m.record_document(3, 1, &doc(1, 0, 0));
        }
        m.record_document(0, 1, &doc(1, 0, 0));
        m.record_document(2, 1, &doc(1, 0, 0));
        let line = m.snapshot().to_string();
        let top = line.split(" | top").nth(1).expect("top section rendered");
        assert!(top.starts_with(" fr:5 es:3"), "got: {line}");
        // Only three entries render; the 1-win tie breaks by index (en).
        assert!(top.contains(" en:1"));
        assert!(!top.contains("de:1"), "got: {line}");
    }

    #[test]
    fn display_omits_top_section_with_no_wins() {
        let m = ServiceMetrics::new(3);
        assert!(!m.snapshot().to_string().contains("| top"));
    }

    #[test]
    fn connection_gauges_appear_once_nonzero() {
        use std::sync::atomic::Ordering;
        let m = ServiceMetrics::new(1);
        m.connections_current.store(3, Ordering::Relaxed);
        m.connections_peak.store(9, Ordering::Relaxed);
        m.accepts_rejected.store(2, Ordering::Relaxed);
        m.outbound_stalls.store(4, Ordering::Relaxed);
        m.outbound_queue_peak.store(65536, Ordering::Relaxed);
        m.slow_consumer_resets.store(1, Ordering::Relaxed);
        m.channels_current.store(5, Ordering::Relaxed);
        m.channels_peak.store(12, Ordering::Relaxed);
        m.channel_resets.store(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(
            (
                s.connections_current,
                s.connections_peak,
                s.accepts_rejected
            ),
            (3, 9, 2)
        );
        assert_eq!((s.outbound_stalls, s.slow_consumer_resets), (4, 1));
        assert_eq!((s.channels_current, s.channels_peak), (5, 12));
        assert_eq!((s.channel_resets, s.outbound_queue_peak), (2, 65536));
        let line = s.to_string();
        assert!(line.contains("(peak 9)"));
        assert!(line.contains("rejected 2"));
        assert!(line.contains("stalls 4"));
        assert!(line.contains("queue-peak 65536"));
        assert!(line.contains("slow-resets 1"));
        assert!(line.contains("channels 5 (peak 12)"));
        assert!(line.contains("ch-resets 2"));
    }

    #[test]
    fn robustness_gauges_appear_once_nonzero() {
        use std::sync::atomic::Ordering;
        let m = ServiceMetrics::new(1);
        // All zero: none of the fault-path gauges clutter the line.
        let quiet = m.snapshot().to_string();
        assert!(!quiet.contains("worker-panics"));
        assert!(!quiet.contains("busy-shed"));
        assert!(!quiet.contains("drain-shed"));
        assert!(!quiet.contains("ch-closed"));
        assert!(!quiet.contains("chaos-injected"));
        m.worker_panics.store(2, Ordering::Relaxed);
        m.worker_restarts.store(1, Ordering::Relaxed);
        m.busy_shed.store(7, Ordering::Relaxed);
        m.drain_shed.store(3, Ordering::Relaxed);
        m.channels_closed.store(4, Ordering::Relaxed);
        m.faults_injected.store(9, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!((s.worker_panics, s.worker_restarts), (2, 1));
        assert_eq!((s.busy_shed, s.drain_shed), (7, 3));
        assert_eq!((s.channels_closed, s.faults_injected), (4, 9));
        let line = s.to_string();
        assert!(line.contains("worker-panics 2 restarts 1"));
        assert!(line.contains("busy-shed 7"));
        assert!(line.contains("drain-shed 3"));
        assert!(line.contains("ch-closed 4"));
        assert!(line.contains("chaos-injected 9"));
    }

    #[test]
    fn percentiles_read_off_the_buckets() {
        let mut h = HistogramSnapshot::<Micros>::default();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.to_string(), "n=0 p50- p95- p99-");
        h.buckets[0] = 90; // ≤ 100 µs
        h.buckets[2] = 9; // ≤ 1 ms
        h.buckets[BOUNDS] = 1; // overflow
        assert_eq!(h.percentile(0.5), Some(100));
        assert_eq!(h.percentile(0.95), Some(1_000));
        assert_eq!(h.percentile(0.99), Some(1_000));
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
        assert_eq!(h.to_string(), "n=100 p50≤100 p95≤1000 p99≤1000");
        h.buckets[BOUNDS] = 50;
        assert_eq!(h.to_string(), "n=149 p50≤100 p95>300000 p99>300000");
    }

    fn busy_snapshot() -> MetricsSnapshot {
        let m = ServiceMetrics::with_topology(vec!["en".into(), "español".into()], 2);
        m.record_document(
            0,
            500,
            &SpanRecord {
                doc_bytes: 1000,
                shard: 0,
                total_us: 400,
                queue_us: 90,
                classify_us: 250,
                ..SpanRecord::default()
            },
        );
        m.record_document(1, 900, &doc(2000, 1, 5000));
        m.record_drain(Duration::from_micros(40));
        m.record_wake(3);
        m.connections.store(7, Ordering::Relaxed);
        m.read_syscalls.store(41, Ordering::Relaxed);
        m.short_read_continuations.store(2, Ordering::Relaxed);
        m.shard(0).unwrap().note_enqueued();
        m.set_simd("avx2");
        m.set_simd("scalar"); // later calls are ignored: dispatch is set once
        let mut snap = m.snapshot();
        assert_eq!(snap.simd, "avx2");
        snap.spans = vec![
            SpanRecord {
                trace_id: 0xDEAD_BEEF,
                conn: 3,
                channel: 1,
                shard: 0,
                doc_seq: 9,
                flags: 1 | 8,
                fault: 7,
                doc_bytes: 4096,
                end_ns: 1_000_000,
                total_us: 450,
                queue_us: 90,
                classify_us: 250,
                drain_us: 40,
            },
            SpanRecord::default(),
        ];
        snap
    }

    #[test]
    fn snapshot_roundtrips_the_wire_schema() {
        let snap = busy_snapshot();
        let bytes = snap.encode();
        let decoded = MetricsSnapshot::decode(&bytes).expect("decode");
        assert_eq!(decoded, snap);
        // Encoding is deterministic: re-encoding the decoded snapshot is
        // bit-identical.
        assert_eq!(decoded.encode(), bytes);
    }

    /// A snapshot in which every counter, shard field and histogram
    /// bucket that can tell two wire positions apart holds its own value.
    fn golden_snapshot() -> MetricsSnapshot {
        let m = ServiceMetrics::with_topology(vec!["en".into(), "español".into()], 2);
        m.record_document(
            0,
            500,
            &SpanRecord {
                doc_bytes: 1000,
                shard: 0,
                total_us: 400,
                queue_us: 90,
                classify_us: 250,
                ..SpanRecord::default()
            },
        );
        m.record_document(
            1,
            900,
            &SpanRecord {
                doc_bytes: 2000,
                shard: 1,
                total_us: 5000,
                queue_us: 20_000,
                classify_us: 1_000_000,
                ..SpanRecord::default()
            },
        );
        for us in [40, 40, 2000] {
            m.record_drain(Duration::from_micros(us));
        }
        for events in [3, 3, 3, 1, 200] {
            m.record_wake(events);
        }
        let counters = [
            &m.connections,
            &m.connections_current,
            &m.connections_peak,
            &m.accepts_rejected,
            &m.outbound_stalls,
            &m.outbound_queue_peak,
            &m.slow_consumer_resets,
            &m.channels_current,
            &m.channels_peak,
            &m.channel_resets,
            &m.data_frames,
            &m.payload_copies,
            &m.documents,
            &m.bytes,
            &m.ngrams,
            &m.protocol_errors,
            &m.watchdog_resets,
            &m.worker_panics,
            &m.worker_restarts,
            &m.busy_shed,
            &m.drain_shed,
            &m.channels_closed,
            &m.faults_injected,
            &m.reactor_wakeups,
            &m.eventfd_wakes,
            &m.read_syscalls,
            &m.write_syscalls,
            &m.short_read_continuations,
        ];
        for (i, c) in (1u64..).zip(counters) {
            c.store(0x0100 * i + i, Ordering::Relaxed);
        }
        for (s, base) in [(0, 0x1000u64), (1, 0x2000)] {
            let shard = m.shard(s).unwrap();
            let fields = [
                &shard.docs,
                &shard.busy_ns,
                &shard.queue_depth,
                &shard.queue_depth_peak,
                &shard.parked,
                &shard.jobs,
            ];
            for (f, c) in (1u64..).zip(fields) {
                c.store(base + f, Ordering::Relaxed);
            }
        }
        m.set_simd("avx2");
        let mut snap = m.snapshot();
        snap.spans = vec![SpanRecord {
            trace_id: 0xDEAD_BEEF,
            conn: 3,
            channel: 1,
            shard: 0,
            doc_seq: 9,
            flags: 1 | 8,
            fault: 7,
            doc_bytes: 4096,
            end_ns: 1_000_000,
            total_us: 450,
            queue_us: 90,
            classify_us: 250,
            drain_us: 40,
        }];
        snap
    }

    /// The StatsReport bytes of [`golden_snapshot`], as the wire schema
    /// fixed them. Older `lcbloom stats`/`top` builds read exactly these
    /// positions, so a change here breaks them: append, never reorder.
    const GOLDEN_STATS_REPORT: &str = "
        01000100e20000001c0001010000000000000202000000000000030300000000
        0000040400000000000005050000000000000606000000000000070700000000
        0000080800000000000009090000000000000a0a0000000000000b0b00000000
        00000c0c0000000000000d0d0000000000000e0e0000000000000f0f00000000
        0000101000000000000011110000000000001212000000000000131300000000
        0000141400000000000015150000000000001616000000000000171700000000
        0000181800000000000019190000000000001a1a0000000000001b1b00000000
        00001c1c00000000000002002000000002000200656e01000000000000000800
        65737061c3b16f6c010000000000000003006601000008006400000000000000
        2c01000000000000e803000000000000b80b0000000000001027000000000000
        3075000000000000a086010000000000e0930400000000000400090000000000
        0000000000000000000000000100000000000000000000000000000001000000
        0000000000000000000000000000000000000000000000000000000000000000
        0000000001000000000000000000000000000000000000000000000000000000
        0000000000000000000000000100000000000000000000000000000000000000
        0000000000000000000000000000000000000000010000000000000000000000
        0000000000000000000000000000000000000000000000000000000000000000
        0000000000000000000000000100000000000000020000000000000000000000
        0000000000000000000000000100000000000000000000000000000000000000
        0000000000000000000000000000000000000000000000000000000004004a00
        0000090001000000000000000000000000000000030000000000000000000000
        0000000000000000000000000000000000000000000000000000000000000000
        0000000001000000000000000500640000000200060001100000000000000210
        0000000000000310000000000000041000000000000005100000000000000610
        0000000000000120000000000000022000000000000003200000000000000420
        0000000000000520000000000000062000000000000007004c00000001000000
        4600efbeadde0000000003000000000000000100000009000000090700100000
        40420f0000000000c2010000000000005a00000000000000fa00000000000000
        2800000000000000090006000000040061767832
    ";

    #[test]
    fn stats_report_bytes_match_the_golden_encoding() {
        let snap = golden_snapshot();
        let bytes = snap.encode();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden: String = GOLDEN_STATS_REPORT.split_whitespace().collect();
        let rows: Vec<&str> = (0..hex.len())
            .step_by(64)
            .map(|i| &hex[i..(i + 64).min(hex.len())])
            .collect();
        assert!(
            hex == golden,
            "encoding drifted; it now reads:\n{}",
            rows.join("\n")
        );
        let golden_bytes: Vec<u8> = (0..golden.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap())
            .collect();
        let decoded = MetricsSnapshot::decode(&golden_bytes).expect("decode");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn decoder_skips_unknown_sections_and_appended_fields() {
        let snap = busy_snapshot();
        let mut bytes = snap.encode();
        // A future section this build has never heard of.
        put_u16(&mut bytes, 0x7FFF);
        put_u32(&mut bytes, 12);
        bytes.extend_from_slice(&[0xAB; 12]);
        // A retired section: an older server's event-ring dump (one
        // reactor, two 17-byte records of ts, tag, arg).
        let mut body = Vec::new();
        put_u16(&mut body, 1);
        put_u32(&mut body, 2);
        for (ts_ns, tag, arg) in [(17u64, 1u8, 3u64), (90, 7, 0)] {
            put_u64(&mut body, ts_ns);
            body.push(tag);
            put_u64(&mut body, arg);
        }
        put_section(&mut bytes, SEC_RINGS, &body);
        // Another retired section: an older server's history ring (one
        // slot of six counters and one three-field shard entry).
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        put_u16(&mut body, 6);
        put_u16(&mut body, 3);
        for v in [2_000_000u64, 1_000_000, 120, 1 << 20, 1, 0] {
            put_u64(&mut body, v);
        }
        put_u16(&mut body, 1);
        for v in [60u64, 300_000_000, 2] {
            put_u64(&mut body, v);
        }
        put_section(&mut bytes, SEC_HISTORY, &body);
        // A future counters section with extra appended counters: replace
        // nothing, just append a second counters section carrying more
        // fields than we know (later sections overwrite earlier ones).
        let counters = snap.fields();
        let mut body = Vec::new();
        put_u16(&mut body, (counters.len() + 3) as u16);
        for v in &counters {
            put_u64(&mut body, *v);
        }
        for extra in 0..3u64 {
            put_u64(&mut body, 0xDEAD_0000 + extra);
        }
        put_section(&mut bytes, SEC_COUNTERS, &body);
        let decoded = MetricsSnapshot::decode(&bytes).expect("decode with unknowns");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn plain_snapshots_carry_no_span_section() {
        // Detail ≤ 1 answers must stay bit-identical to the original
        // schema: the span section only exists when populated, so a
        // plain snapshot's bytes list exactly the original section tags.
        let mut snap = busy_snapshot();
        snap.spans.clear();
        snap.simd.clear();
        let bytes = snap.encode();
        let mut r = Reader { buf: &bytes[2..] }; // skip the version word
        let mut tags = Vec::new();
        while !r.is_empty() {
            let tag = r.u16().unwrap();
            let len = r.u32().unwrap() as usize;
            let _ = r.take(len).unwrap();
            tags.push(tag);
        }
        assert_eq!(
            tags,
            vec![
                SEC_COUNTERS,
                SEC_LANGS,
                SEC_STAGES,
                SEC_WAKE_HIST,
                SEC_SHARDS
            ]
        );
    }

    #[test]
    fn delta_rates_come_from_the_measured_interval() {
        let m = ServiceMetrics::with_topology(vec!["en".into()], 2);
        // Counts from before the interval must not show in its delta.
        m.record_document(0, 100, &doc(7, 0, 100));
        let prev = m.snapshot();
        for _ in 0..500 {
            m.record_document(0, 100, &doc(2048, 0, 100));
        }
        let cur = m.snapshot();
        let delta = StatsDelta::delta(&prev, &cur, Duration::from_millis(500));
        assert_eq!(delta.docs, 500);
        assert_eq!(delta.doc_bytes, 500 * 2048);
        assert!((delta.docs_per_s() - 1000.0).abs() < 1e-9);
        let mbps = 500.0 * 2048.0 / (1024.0 * 1024.0) * 2.0;
        assert!((delta.mb_per_s() - mbps).abs() < 1e-9);
        assert_eq!(delta.shards.len(), 2);
        assert_eq!(delta.shards[0].docs, 500);
        // An empty interval has no rate, and a later snapshot read as
        // `prev` (a torn read) saturates instead of wrapping.
        let torn = StatsDelta::delta(&cur, &prev, Duration::ZERO);
        assert_eq!(torn.docs, 0);
        assert_eq!(torn.docs_per_s(), 0.0);
        assert_eq!(torn.busy_frac(0), 0.0);
    }

    #[test]
    fn truncated_blob_is_a_typed_error_not_a_panic() {
        let bytes = busy_snapshot().encode();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            let r = MetricsSnapshot::decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail to decode");
        }
    }

    use proptest::prelude::*;

    fn arb_histogram<S: Scale + Copy + std::fmt::Debug>(
    ) -> impl Strategy<Value = HistogramSnapshot<S>> {
        proptest::collection::vec(0u64..1 << 48, BUCKETS).prop_map(|v| HistogramSnapshot {
            buckets: std::array::from_fn(|i| v[i]),
            scale: PhantomData,
        })
    }

    prop_compose! {
        fn arb_snapshot()(
            counters in proptest::collection::vec(0u64..u64::MAX / 2, MetricsSnapshot::FIELDS),
            langs in proptest::collection::vec(
                (proptest::collection::vec(any::<char>(), 0..12), 0u64..1 << 40), 0..6),
            latency in arb_histogram(),
            queue_wait in arb_histogram(),
            classify in arb_histogram(),
            response_drain in arb_histogram(),
            events_per_wake in arb_histogram(),
            shards in proptest::collection::vec(
                proptest::collection::vec(0u64..1 << 40, ShardStats::FIELDS), 0..5),
            spans in proptest::collection::vec(
                (any::<u64>(), 0u64..1 << 40, any::<u16>(), 0u16..64, any::<u32>(),
                 any::<u8>(), 0u8..12, any::<u32>(),
                 proptest::collection::vec(0u64..1 << 40, 5)), 0..6),
            simd in proptest::SampleFn(|rng: &mut proptest::TestRng| {
                ["", "scalar", "avx2"][(rng.next_u64() % 3) as usize].to_string()
            }),
        ) -> MetricsSnapshot {
            let mut snap = MetricsSnapshot {
                simd,
                lang_names: langs.iter().map(|(n, _)| n.iter().collect()).collect(),
                lang_wins: langs.iter().map(|&(_, w)| w).collect(),
                latency,
                queue_wait,
                classify,
                response_drain,
                events_per_wake,
                shards: shards
                    .iter()
                    .map(|v| {
                        let mut shard = ShardStats::default();
                        for (slot, &f) in shard.fields_mut().into_iter().zip(v) {
                            *slot = f;
                        }
                        shard
                    })
                    .collect(),
                spans: spans
                    .iter()
                    .map(
                        |&(trace_id, conn, channel, shard, doc_seq, flags, fault, doc_bytes, ref t)| {
                            SpanRecord {
                                trace_id,
                                conn,
                                channel,
                                shard,
                                doc_seq,
                                flags,
                                fault,
                                doc_bytes,
                                end_ns: t[0],
                                total_us: t[1],
                                queue_us: t[2],
                                classify_us: t[3],
                                drain_us: t[4],
                            }
                        },
                    )
                    .collect(),
                ..MetricsSnapshot::default()
            };
            for (slot, v) in snap.fields_mut().into_iter().zip(counters) {
                *slot = v;
            }
            snap
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any snapshot round-trips the wire schema bit-identically, and
        /// re-encoding the decode reproduces the exact bytes.
        #[test]
        fn any_snapshot_roundtrips_bit_identically(snap in arb_snapshot()) {
            let bytes = snap.encode();
            let decoded = MetricsSnapshot::decode(&bytes).unwrap();
            prop_assert_eq!(&decoded, &snap);
            prop_assert_eq!(decoded.encode(), bytes);
        }

        /// Garbage prefixes never panic the decoder: they decode to
        /// something or fail with a typed error.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = MetricsSnapshot::decode(&bytes);
        }
    }
}
