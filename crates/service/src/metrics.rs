//! Lock-free per-server metrics.
//!
//! Everything a serving deployment wants on a dashboard: documents, bytes
//! and n-grams served, per-language wins (which languages the traffic
//! actually is), protocol faults, watchdog resets, connection-level
//! gauges (current/peak connections, accepts rejected at the cap,
//! outbound high-water stalls, slow-consumer resets), reactor-loop
//! telemetry (epoll wakeups, events-per-wake distribution, read/write
//! syscalls, eventfd wakes), per-worker-shard counters, and fixed-bucket
//! latency histograms — the end-to-end document service time (Size seen →
//! result latched) *decomposed* into queue-wait, classify, and
//! response-drain stages so a throughput cliff can be attributed to
//! queuing vs compute vs the write path.
//!
//! The whole struct is relaxed atomics: recording never takes a lock and
//! never fences, which is what keeps the instrumentation cheap enough to
//! leave on.

use crate::ring::RingEvent;
use crate::sync::{AtomicU64, Ordering};
use crate::trace::{HistoryShard, HistorySlot, SpanRecord};
use std::time::Duration;

/// Upper bounds of the latency histogram buckets, in microseconds; one
/// implicit overflow bucket follows the last bound. Shared by the
/// end-to-end histogram, all three stage histograms, and the client-side
/// `--timing` buckets, so client and server latency diff bucket-for-bucket.
pub const LATENCY_BOUNDS_US: [u64; 8] = [100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000];

/// Upper bounds of the events-per-epoll-wake histogram; one implicit
/// overflow bucket follows. A healthy loaded reactor batches (right-heavy
/// distribution); a distribution stuck at 1 event/wake under load means
/// the loop is thrashing on wakeups.
pub const EVENTS_PER_WAKE_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Histogram length: the shared bounds plus the overflow bucket.
pub const LATENCY_BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// Bucket index for a measured duration under [`LATENCY_BOUNDS_US`].
/// Public so client-side `--timing` fills bucket-compatible histograms.
pub fn latency_bucket(d: Duration) -> usize {
    let us = d.as_micros() as u64;
    LATENCY_BOUNDS_US
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(LATENCY_BOUNDS_US.len())
}

/// Per-document stage timings handed to
/// [`ServiceMetrics::record_document`] when a result latches.
#[derive(Clone, Copy, Debug, Default)]
pub struct DocTimings {
    /// Size decoded → result latched: the end-to-end service time.
    pub total: Duration,
    /// Time the document's command frames spent enqueued in the shard
    /// queue (shard-enqueued → worker-dequeued, summed over its frames).
    pub queue_wait: Duration,
    /// Time spent feeding payload bytes through the classifier.
    pub classify: Duration,
}

/// One worker shard's live counters (relaxed atomics, updated by the
/// reactor on enqueue and the shard thread on dequeue/apply).
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Documents whose results latched on this shard. Summed across
    /// shards this equals the global `documents` counter — both are
    /// incremented by the same `record_document` call.
    pub docs: AtomicU64,
    /// Nanoseconds the shard thread spent applying commands (busy time;
    /// compare across shards to see the static-hash imbalance).
    pub busy_ns: AtomicU64,
    /// Jobs currently sitting in the shard's queue.
    pub queue_depth: AtomicU64,
    /// Deepest the queue ever got.
    pub queue_depth_peak: AtomicU64,
    /// Commands parked in a connection's stall list because this shard's
    /// queue was full (the reactor's park-and-retry path).
    pub parked: AtomicU64,
    /// Jobs ever enqueued to this shard.
    pub jobs: AtomicU64,
}

impl ShardCounters {
    /// Note a job entering the shard queue.
    pub fn note_enqueued(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Note a job leaving the shard queue (the shard thread picked it up).
    pub fn note_dequeued(&self) {
        // Enqueue/dequeue are balanced, but a racing snapshot must never
        // see a wrapped gauge; repair the rare transient underflow.
        if self.queue_depth.fetch_sub(1, Ordering::Relaxed) == 0 {
            self.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ShardStats {
        ShardStats {
            docs: self.docs.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of one shard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Documents latched on this shard.
    pub docs: u64,
    /// Nanoseconds spent applying commands.
    pub busy_ns: u64,
    /// Jobs in the queue at snapshot time.
    pub queue_depth: u64,
    /// Deepest the queue ever got.
    pub queue_depth_peak: u64,
    /// Commands parked because the queue was full.
    pub parked: u64,
    /// Jobs ever enqueued.
    pub jobs: u64,
}

/// Shared counters, updated by connection handlers and workers.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Currently open connections.
    pub connections_current: AtomicU64,
    /// Most connections ever open at once.
    pub connections_peak: AtomicU64,
    /// Accepts refused because `connections_current` hit the cap.
    pub accepts_rejected: AtomicU64,
    /// Times a connection's outbound queue crossed the high-water mark
    /// (its `EPOLLIN` was masked until the queue drained).
    pub outbound_stalls: AtomicU64,
    /// Deepest any single connection's outbound queue ever got, in bytes —
    /// the high-water mark slow-consumer tuning needs to see without a
    /// debugger (compare against `outbound_high_water`).
    pub outbound_queue_peak: AtomicU64,
    /// Connections reset for sitting above high-water past the
    /// slow-consumer deadline.
    pub slow_consumer_resets: AtomicU64,
    /// Channels (independent command streams; a v1 connection is one
    /// channel) currently open across all connections.
    pub channels_current: AtomicU64,
    /// Most channels ever open at once.
    pub channels_peak: AtomicU64,
    /// Reset commands applied to a channel's session (mid-document Resets
    /// discard the in-flight document).
    pub channel_resets: AtomicU64,
    /// Data frames decoded by the reactors.
    pub data_frames: AtomicU64,
    /// Data payloads *copied* between reactor and worker. The zero-copy
    /// frame path keeps this at exactly 0 (payloads travel as refcounted
    /// rope segments); `tests/service_e2e.rs` asserts it.
    pub payload_copies: AtomicU64,
    /// Documents classified (results latched).
    pub documents: AtomicU64,
    /// Document payload bytes classified.
    pub bytes: AtomicU64,
    /// N-grams tested.
    pub ngrams: AtomicU64,
    /// Protocol faults answered with an Error response.
    pub protocol_errors: AtomicU64,
    /// Stalled sessions reset by the watchdog.
    pub watchdog_resets: AtomicU64,
    /// Worker panics caught by the per-document unwind guard (the
    /// document got an `EngineFault` response; the thread survived).
    pub worker_panics: AtomicU64,
    /// Worker shard threads respawned by the pool supervisor after a
    /// panic escaped the per-document guard.
    pub worker_restarts: AtomicU64,
    /// Documents shed with a `Busy` fault: the channel's shard queue was
    /// full while the connection's outbound queue sat over high-water.
    pub busy_shed: AtomicU64,
    /// Documents refused with a `ShuttingDown` fault during drain.
    pub drain_shed: AtomicU64,
    /// Channels torn down early by a `CloseChannel` control frame.
    pub channels_closed: AtomicU64,
    /// Faults injected by an active chaos plan (0 in production).
    pub faults_injected: AtomicU64,
    /// `epoll_wait` returns across all reactor threads.
    pub reactor_wakeups: AtomicU64,
    /// Eventfd wake tokens drained (worker → reactor nudges that landed;
    /// diff against `wake_drop` chaos to see swallowed wakes).
    pub eventfd_wakes: AtomicU64,
    /// Socket read syscalls issued by the reactors.
    pub read_syscalls: AtomicU64,
    /// Socket write passes issued by the reactors (write-through and
    /// queued flushes).
    pub write_syscalls: AtomicU64,
    /// Reads that left a frame mid-reassembly (short-read continuations:
    /// the frame completed only on a later read).
    pub short_read_continuations: AtomicU64,
    /// Language names, index-aligned with `lang_wins` (empty when the
    /// metrics were built without names; rendering falls back to
    /// `lang{i}`).
    lang_names: Vec<String>,
    /// Wins per language, index-aligned with the classifier's names.
    lang_wins: Vec<AtomicU64>,
    /// End-to-end latency histogram: `LATENCY_BOUNDS_US` buckets + overflow.
    latency: [AtomicU64; LATENCY_BUCKETS],
    /// Queue-wait stage histogram (shard-enqueued → worker-dequeued).
    queue_wait: [AtomicU64; LATENCY_BUCKETS],
    /// Classify stage histogram (time feeding the classifier).
    classify: [AtomicU64; LATENCY_BUCKETS],
    /// Response-drain stage histogram (result latched → response bytes
    /// flushed into the socket).
    response_drain: [AtomicU64; LATENCY_BUCKETS],
    /// Events-per-epoll-wake distribution (`EVENTS_PER_WAKE_BOUNDS`).
    events_per_wake: [AtomicU64; LATENCY_BUCKETS],
    /// Per-worker-shard counters (empty when built without topology).
    shards: Vec<ShardCounters>,
    /// Classify probe path (`"scalar"`/`"avx2"`), set once at startup from
    /// the classifier's resolved dispatch; empty until then.
    simd: std::sync::OnceLock<String>,
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
            connections: AtomicU64::new(0),
            connections_current: AtomicU64::new(0),
            connections_peak: AtomicU64::new(0),
            accepts_rejected: AtomicU64::new(0),
            outbound_stalls: AtomicU64::new(0),
            outbound_queue_peak: AtomicU64::new(0),
            slow_consumer_resets: AtomicU64::new(0),
            channels_current: AtomicU64::new(0),
            channels_peak: AtomicU64::new(0),
            channel_resets: AtomicU64::new(0),
            data_frames: AtomicU64::new(0),
            payload_copies: AtomicU64::new(0),
            documents: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            ngrams: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            watchdog_resets: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            busy_shed: AtomicU64::new(0),
            drain_shed: AtomicU64::new(0),
            channels_closed: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            eventfd_wakes: AtomicU64::new(0),
            read_syscalls: AtomicU64::new(0),
            write_syscalls: AtomicU64::new(0),
            short_read_continuations: AtomicU64::new(0),
            lang_wins: (0..lang_names.len()).map(|_| AtomicU64::new(0)).collect(),
            lang_names,
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_wait: std::array::from_fn(|_| AtomicU64::new(0)),
            classify: std::array::from_fn(|_| AtomicU64::new(0)),
            response_drain: std::array::from_fn(|_| AtomicU64::new(0)),
            events_per_wake: std::array::from_fn(|_| AtomicU64::new(0)),
            shards: (0..workers).map(|_| ShardCounters::default()).collect(),
            simd: std::sync::OnceLock::new(),
        }
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

    /// Record one latched document: the global counters, the winning
    /// language, the end-to-end latency bucket, the per-stage buckets,
    /// and the owning shard's `docs` — all in the same call so per-shard
    /// docs always sum to the global counter.
    pub fn record_document(
        &self,
        winner: usize,
        doc_bytes: u64,
        ngrams: u64,
        shard: usize,
        timings: DocTimings,
    ) {
        self.documents.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(doc_bytes, Ordering::Relaxed);
        self.ngrams.fetch_add(ngrams, Ordering::Relaxed);
        if let Some(w) = self.lang_wins.get(winner) {
            w.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(s) = self.shards.get(shard) {
            s.docs.fetch_add(1, Ordering::Relaxed);
        }
        self.latency[latency_bucket(timings.total)].fetch_add(1, Ordering::Relaxed);
        self.queue_wait[latency_bucket(timings.queue_wait)].fetch_add(1, Ordering::Relaxed);
        self.classify[latency_bucket(timings.classify)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a response's drain time (result latched → its bytes flushed
    /// into the socket). Recorded by the outbound path, which is the only
    /// place that sees the actual flush — under backpressure this is the
    /// stage that grows.
    pub fn record_drain(&self, drain: Duration) {
        self.response_drain[latency_bucket(drain)].fetch_add(1, Ordering::Relaxed);
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
        let n = events as u64;
        let bucket = EVENTS_PER_WAKE_BOUNDS
            .iter()
            .position(|&b| n <= b)
            .unwrap_or(EVENTS_PER_WAKE_BOUNDS.len());
        self.events_per_wake[bucket].fetch_add(1, Ordering::Relaxed);
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
        MetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            connections_current: self.connections_current.load(Ordering::Relaxed),
            connections_peak: self.connections_peak.load(Ordering::Relaxed),
            accepts_rejected: self.accepts_rejected.load(Ordering::Relaxed),
            outbound_stalls: self.outbound_stalls.load(Ordering::Relaxed),
            outbound_queue_peak: self.outbound_queue_peak.load(Ordering::Relaxed),
            slow_consumer_resets: self.slow_consumer_resets.load(Ordering::Relaxed),
            channels_current: self.channels_current.load(Ordering::Relaxed),
            channels_peak: self.channels_peak.load(Ordering::Relaxed),
            channel_resets: self.channel_resets.load(Ordering::Relaxed),
            data_frames: self.data_frames.load(Ordering::Relaxed),
            payload_copies: self.payload_copies.load(Ordering::Relaxed),
            documents: self.documents.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            ngrams: self.ngrams.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            watchdog_resets: self.watchdog_resets.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            busy_shed: self.busy_shed.load(Ordering::Relaxed),
            drain_shed: self.drain_shed.load(Ordering::Relaxed),
            channels_closed: self.channels_closed.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            eventfd_wakes: self.eventfd_wakes.load(Ordering::Relaxed),
            read_syscalls: self.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: self.write_syscalls.load(Ordering::Relaxed),
            short_read_continuations: self.short_read_continuations.load(Ordering::Relaxed),
            lang_names: self.lang_names.clone(),
            lang_wins: self
                .lang_wins
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            latency: std::array::from_fn(|i| self.latency[i].load(Ordering::Relaxed)),
            queue_wait: std::array::from_fn(|i| self.queue_wait[i].load(Ordering::Relaxed)),
            classify: std::array::from_fn(|i| self.classify[i].load(Ordering::Relaxed)),
            response_drain: std::array::from_fn(|i| self.response_drain[i].load(Ordering::Relaxed)),
            events_per_wake: std::array::from_fn(|i| {
                self.events_per_wake[i].load(Ordering::Relaxed)
            }),
            shards,
            rings: Vec::new(),
            spans: Vec::new(),
            history: Vec::new(),
            simd: self.simd.get().cloned().unwrap_or_default(),
        }
    }
}

/// Plain-data copy of [`ServiceMetrics`].
///
/// **Consistency:** see [`ServiceMetrics::snapshot`] — individual
/// counters are exact, cross-counter relationships can tear by the
/// in-flight window mid-load, and a quiesced snapshot is exact across
/// all counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Currently open connections.
    pub connections_current: u64,
    /// Most connections ever open at once.
    pub connections_peak: u64,
    /// Accepts refused at the `max_connections` cap.
    pub accepts_rejected: u64,
    /// Outbound queues that crossed the high-water mark.
    pub outbound_stalls: u64,
    /// Deepest any single connection's outbound queue ever got (bytes).
    pub outbound_queue_peak: u64,
    /// Connections reset by the slow-consumer policy.
    pub slow_consumer_resets: u64,
    /// Channels currently open across all connections.
    pub channels_current: u64,
    /// Most channels ever open at once.
    pub channels_peak: u64,
    /// Reset commands applied to channel sessions.
    pub channel_resets: u64,
    /// Data frames decoded.
    pub data_frames: u64,
    /// Data payloads copied on the reactor→worker path (0 = zero-copy).
    pub payload_copies: u64,
    /// Documents classified.
    pub documents: u64,
    /// Document payload bytes classified.
    pub bytes: u64,
    /// N-grams tested.
    pub ngrams: u64,
    /// Protocol faults answered with an Error response.
    pub protocol_errors: u64,
    /// Stalled sessions reset by the watchdog.
    pub watchdog_resets: u64,
    /// Worker panics caught by the per-document unwind guard.
    pub worker_panics: u64,
    /// Worker shard threads respawned by the pool supervisor.
    pub worker_restarts: u64,
    /// Documents shed with a `Busy` fault under dual saturation.
    pub busy_shed: u64,
    /// Documents refused with a `ShuttingDown` fault during drain.
    pub drain_shed: u64,
    /// Channels torn down early by `CloseChannel`.
    pub channels_closed: u64,
    /// Faults injected by an active chaos plan.
    pub faults_injected: u64,
    /// `epoll_wait` returns across all reactors.
    pub reactor_wakeups: u64,
    /// Eventfd wake tokens drained.
    pub eventfd_wakes: u64,
    /// Socket read syscalls issued by the reactors.
    pub read_syscalls: u64,
    /// Socket write passes issued by the reactors.
    pub write_syscalls: u64,
    /// Reads that left a frame mid-reassembly.
    pub short_read_continuations: u64,
    /// Language names, index-aligned with `lang_wins`.
    pub lang_names: Vec<String>,
    /// Wins per language.
    pub lang_wins: Vec<u64>,
    /// End-to-end latency histogram (`LATENCY_BOUNDS_US` + overflow).
    pub latency: [u64; LATENCY_BUCKETS],
    /// Queue-wait stage histogram (same buckets).
    pub queue_wait: [u64; LATENCY_BUCKETS],
    /// Classify stage histogram (same buckets).
    pub classify: [u64; LATENCY_BUCKETS],
    /// Response-drain stage histogram (same buckets).
    pub response_drain: [u64; LATENCY_BUCKETS],
    /// Events-per-epoll-wake distribution (`EVENTS_PER_WAKE_BOUNDS`).
    pub events_per_wake: [u64; LATENCY_BUCKETS],
    /// Per-worker-shard counters.
    pub shards: Vec<ShardStats>,
    /// Per-reactor event-ring dumps (populated only by
    /// `GetStats(detail=1)` answers from a `--trace-ring` server; empty
    /// in plain snapshots).
    pub rings: Vec<Vec<RingEvent>>,
    /// Trace spans drained by a `GetStats(detail=2)` answer from a
    /// tracing server (`--trace-sample`/`--trace-slow-us`); empty in
    /// plain snapshots and at lower detail.
    pub spans: Vec<SpanRecord>,
    /// Time-series history slots attached by a `GetStats(detail=2)`
    /// answer when the server's sampler is running; empty otherwise.
    pub history: Vec<HistorySlot>,
    /// Classify probe path the server selected (`"scalar"`/`"avx2"`);
    /// empty when the server predates the field or never set it.
    pub simd: String,
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
const SEC_RINGS: u16 = 6;
const SEC_SPANS: u16 = 7;
const SEC_HISTORY: u16 = 8;
const SEC_SIMD: u16 = 9;

const SHARD_FIELDS: usize = 6;
const STAGE_COUNT: usize = 4;
/// Serialized [`SpanRecord`] size; each record is length-prefixed by the
/// section header so a future schema can append fields that old decoders
/// skip per-record.
const SPAN_RECORD_BYTES: usize = 70;
/// `u64` fields per history slot (before the per-shard table).
const HISTORY_SLOT_FIELDS: usize = 6;
/// `u64` fields per history-slot shard entry.
const HISTORY_SHARD_FIELDS: usize = 3;

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

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl MetricsSnapshot {
    /// The scalar counters in their fixed wire order. New counters are
    /// appended here (and to `assign_counter`) — never reordered — so old
    /// decoders keep reading the prefix they know.
    fn counter_values(&self) -> Vec<u64> {
        vec![
            self.connections,
            self.connections_current,
            self.connections_peak,
            self.accepts_rejected,
            self.outbound_stalls,
            self.outbound_queue_peak,
            self.slow_consumer_resets,
            self.channels_current,
            self.channels_peak,
            self.channel_resets,
            self.data_frames,
            self.payload_copies,
            self.documents,
            self.bytes,
            self.ngrams,
            self.protocol_errors,
            self.watchdog_resets,
            self.worker_panics,
            self.worker_restarts,
            self.busy_shed,
            self.drain_shed,
            self.channels_closed,
            self.faults_injected,
            self.reactor_wakeups,
            self.eventfd_wakes,
            self.read_syscalls,
            self.write_syscalls,
            self.short_read_continuations,
        ]
    }

    fn assign_counter(&mut self, i: usize, v: u64) {
        match i {
            0 => self.connections = v,
            1 => self.connections_current = v,
            2 => self.connections_peak = v,
            3 => self.accepts_rejected = v,
            4 => self.outbound_stalls = v,
            5 => self.outbound_queue_peak = v,
            6 => self.slow_consumer_resets = v,
            7 => self.channels_current = v,
            8 => self.channels_peak = v,
            9 => self.channel_resets = v,
            10 => self.data_frames = v,
            11 => self.payload_copies = v,
            12 => self.documents = v,
            13 => self.bytes = v,
            14 => self.ngrams = v,
            15 => self.protocol_errors = v,
            16 => self.watchdog_resets = v,
            17 => self.worker_panics = v,
            18 => self.worker_restarts = v,
            19 => self.busy_shed = v,
            20 => self.drain_shed = v,
            21 => self.channels_closed = v,
            22 => self.faults_injected = v,
            23 => self.reactor_wakeups = v,
            24 => self.eventfd_wakes = v,
            25 => self.read_syscalls = v,
            26 => self.write_syscalls = v,
            27 => self.short_read_continuations = v,
            _ => {} // a newer server's counter this build does not know
        }
    }

    /// Serialize into the versioned StatsReport wire schema: a `u16`
    /// schema version, then self-describing sections (`tag: u16`,
    /// `len: u32`, body). Unknown sections and appended fields are
    /// skippable by construction, so decoders and encoders can evolve
    /// independently.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        put_u16(&mut out, STATS_SCHEMA_VERSION);

        let counters = self.counter_values();
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
        put_u16(&mut body, LATENCY_BOUNDS_US.len() as u16);
        for b in LATENCY_BOUNDS_US {
            put_u64(&mut body, b);
        }
        put_u16(&mut body, STAGE_COUNT as u16);
        put_u16(&mut body, LATENCY_BUCKETS as u16);
        for stage in [
            &self.latency,
            &self.queue_wait,
            &self.classify,
            &self.response_drain,
        ] {
            for &count in stage {
                put_u64(&mut body, count);
            }
        }
        put_section(&mut out, SEC_STAGES, &body);

        let mut body = Vec::new();
        put_u16(&mut body, LATENCY_BUCKETS as u16);
        for &count in &self.events_per_wake {
            put_u64(&mut body, count);
        }
        put_section(&mut out, SEC_WAKE_HIST, &body);

        let mut body = Vec::new();
        put_u16(&mut body, self.shards.len() as u16);
        put_u16(&mut body, SHARD_FIELDS as u16);
        for s in &self.shards {
            for v in [
                s.docs,
                s.busy_ns,
                s.queue_depth,
                s.queue_depth_peak,
                s.parked,
                s.jobs,
            ] {
                put_u64(&mut body, v);
            }
        }
        put_section(&mut out, SEC_SHARDS, &body);

        if !self.rings.is_empty() {
            let mut body = Vec::new();
            put_u16(&mut body, self.rings.len() as u16);
            for ring in &self.rings {
                put_u32(&mut body, ring.len() as u32);
                for e in ring {
                    put_u64(&mut body, e.ts_ns);
                    body.push(e.tag);
                    put_u64(&mut body, e.arg);
                }
            }
            put_section(&mut out, SEC_RINGS, &body);
        }

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

        if !self.history.is_empty() {
            let mut body = Vec::new();
            put_u32(&mut body, self.history.len() as u32);
            put_u16(&mut body, HISTORY_SLOT_FIELDS as u16);
            put_u16(&mut body, HISTORY_SHARD_FIELDS as u16);
            for slot in &self.history {
                for v in [
                    slot.ts_ns,
                    slot.interval_us,
                    slot.docs,
                    slot.doc_bytes,
                    slot.errors,
                    slot.faults,
                ] {
                    put_u64(&mut body, v);
                }
                put_u16(&mut body, slot.shards.len() as u16);
                for sh in &slot.shards {
                    put_u64(&mut body, sh.docs);
                    put_u64(&mut body, sh.busy_ns);
                    put_u64(&mut body, sh.queue_depth);
                }
            }
            put_section(&mut out, SEC_HISTORY, &body);
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
                    for i in 0..n {
                        let v = body.u64()?;
                        snap.assign_counter(i, v);
                    }
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
                    for s in 0..stages {
                        for b in 0..buckets {
                            let v = body.u64()?;
                            if b >= LATENCY_BUCKETS {
                                continue;
                            }
                            match s {
                                0 => snap.latency[b] = v,
                                1 => snap.queue_wait[b] = v,
                                2 => snap.classify[b] = v,
                                3 => snap.response_drain[b] = v,
                                _ => {}
                            }
                        }
                    }
                }
                SEC_WAKE_HIST => {
                    let buckets = body.u16()? as usize;
                    for b in 0..buckets {
                        let v = body.u64()?;
                        if b < LATENCY_BUCKETS {
                            snap.events_per_wake[b] = v;
                        }
                    }
                }
                SEC_SHARDS => {
                    let n = body.u16()? as usize;
                    let fields = body.u16()? as usize;
                    let mut shards = Vec::with_capacity(n);
                    for _ in 0..n {
                        let mut vals = [0u64; SHARD_FIELDS];
                        for (f, slot) in vals.iter_mut().enumerate().take(fields.min(SHARD_FIELDS))
                        {
                            let _ = f;
                            *slot = body.u64()?;
                        }
                        for _ in SHARD_FIELDS..fields {
                            let _ = body.u64()?; // fields from a newer schema
                        }
                        shards.push(ShardStats {
                            docs: vals[0],
                            busy_ns: vals[1],
                            queue_depth: vals[2],
                            queue_depth_peak: vals[3],
                            parked: vals[4],
                            jobs: vals[5],
                        });
                    }
                    snap.shards = shards;
                }
                SEC_RINGS => {
                    let n = body.u16()? as usize;
                    let mut rings = Vec::with_capacity(n);
                    for _ in 0..n {
                        let events = body.u32()? as usize;
                        let mut ring = Vec::with_capacity(events.min(crate::ring::RING_ENTRIES));
                        for _ in 0..events {
                            let ts_ns = body.u64()?;
                            let tag = body.u8()?;
                            let arg = body.u64()?;
                            ring.push(RingEvent { ts_ns, tag, arg });
                        }
                        rings.push(ring);
                    }
                    snap.rings = rings;
                }
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
                SEC_HISTORY => {
                    let n = body.u32()? as usize;
                    let slot_fields = body.u16()? as usize;
                    let shard_fields = body.u16()? as usize;
                    if slot_fields < HISTORY_SLOT_FIELDS || shard_fields < HISTORY_SHARD_FIELDS {
                        return Err(SnapshotDecodeError("history slot shorter than known"));
                    }
                    let mut history = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        let mut vals = [0u64; HISTORY_SLOT_FIELDS];
                        for slot in vals.iter_mut() {
                            *slot = body.u64()?;
                        }
                        for _ in HISTORY_SLOT_FIELDS..slot_fields {
                            let _ = body.u64()?; // fields from a newer schema
                        }
                        let shard_count = body.u16()? as usize;
                        let mut shards = Vec::with_capacity(shard_count.min(1024));
                        for _ in 0..shard_count {
                            let docs = body.u64()?;
                            let busy_ns = body.u64()?;
                            let queue_depth = body.u64()?;
                            for _ in HISTORY_SHARD_FIELDS..shard_fields {
                                let _ = body.u64()?;
                            }
                            shards.push(HistoryShard {
                                docs,
                                busy_ns,
                                queue_depth,
                            });
                        }
                        history.push(HistorySlot {
                            ts_ns: vals[0],
                            interval_us: vals[1],
                            docs: vals[2],
                            doc_bytes: vals[3],
                            errors: vals[4],
                            faults: vals[5],
                            shards,
                        });
                    }
                    snap.history = history;
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

/// Approximate percentile over a fixed-bucket latency histogram: returns
/// the upper bound (µs) of the bucket holding the `q`-th percentile
/// sample (`q` in `0.0..=1.0`), `u64::MAX` when it lands in the overflow
/// bucket, or `None` for an empty histogram. Client `--timing` and
/// server stage histograms share this, so the two sides diff cleanly.
///
/// **Overflow sentinel:** `Some(u64::MAX)` means "beyond the last bound"
/// (> `LATENCY_BOUNDS_US.last()`), *not* a measured value. Renderers
/// must special-case it — as `> 300000 µs`, or JSON `{"gt_us": 300000}`
/// — never serialize the raw sentinel (casting it to a signed type
/// produces the misleading `-1` this note exists to prevent).
pub fn histogram_percentile_us(buckets: &[u64; LATENCY_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(LATENCY_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX));
        }
    }
    Some(u64::MAX)
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
        for (i, count) in self.latency.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            match LATENCY_BOUNDS_US.get(i) {
                Some(b) => write!(f, " ≤{b}:{count}")?,
                None => write!(f, " >{}:{count}", LATENCY_BOUNDS_US[i - 1])?,
            }
        }
        if !self.simd.is_empty() {
            write!(f, " | simd {}", self.simd)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_timings(total: Duration) -> DocTimings {
        DocTimings {
            total,
            ..DocTimings::default()
        }
    }

    #[test]
    fn documents_land_in_the_right_bucket() {
        let m = ServiceMetrics::new(3);
        m.record_document(1, 100, 97, 0, doc_timings(Duration::from_micros(50)));
        m.record_document(1, 200, 197, 0, doc_timings(Duration::from_micros(2_000)));
        m.record_document(2, 300, 297, 0, doc_timings(Duration::from_secs(10)));
        let s = m.snapshot();
        assert_eq!(s.documents, 3);
        assert_eq!(s.bytes, 600);
        assert_eq!(s.ngrams, 591);
        assert_eq!(s.lang_wins, vec![0, 2, 1]);
        assert_eq!(s.latency[0], 1); // ≤ 100 µs
        assert_eq!(s.latency[3], 1); // ≤ 3 ms
        assert_eq!(s.latency[LATENCY_BOUNDS_US.len()], 1); // overflow
    }

    #[test]
    fn stage_histograms_land_in_the_right_bucket() {
        // Mirrors documents_land_in_the_right_bucket for the per-stage
        // decomposition: each stage buckets independently on the shared
        // bounds.
        let m = ServiceMetrics::new(1);
        m.record_document(
            0,
            10,
            5,
            0,
            DocTimings {
                total: Duration::from_micros(250),
                queue_wait: Duration::from_micros(50),
                classify: Duration::from_micros(150),
            },
        );
        m.record_document(
            0,
            10,
            5,
            0,
            DocTimings {
                total: Duration::from_secs(1),
                queue_wait: Duration::from_millis(950),
                classify: Duration::from_micros(100),
            },
        );
        m.record_drain(Duration::from_micros(90));
        m.record_drain(Duration::from_millis(20));
        let s = m.snapshot();
        assert_eq!(s.latency[1], 1); // 250 µs ≤ 300
        assert_eq!(s.latency[LATENCY_BOUNDS_US.len()], 1); // 1 s overflows
        assert_eq!(s.queue_wait[0], 1); // 50 µs ≤ 100
        assert_eq!(s.queue_wait[LATENCY_BOUNDS_US.len()], 1); // 950 ms > 300 ms
        assert_eq!(s.classify[1], 1); // 150 µs ≤ 300
        assert_eq!(s.classify[0], 1); // 100 µs ≤ 100 (exact boundary)
        assert_eq!(s.response_drain[0], 1); // 90 µs ≤ 100
        assert_eq!(s.response_drain[5], 1); // 20 ms ≤ 30 ms
    }

    #[test]
    fn stage_bucket_boundaries_are_inclusive() {
        for (i, &bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            let m = ServiceMetrics::new(1);
            m.record_drain(Duration::from_micros(bound));
            assert_eq!(m.snapshot().response_drain[i], 1, "bound {bound} µs");
            m.record_drain(Duration::from_micros(bound + 1));
            let next = m.snapshot();
            assert_eq!(
                next.response_drain[i + 1],
                1,
                "just past bound {bound} µs lands one bucket up"
            );
        }
    }

    #[test]
    fn shard_docs_sum_to_global_documents() {
        let m = ServiceMetrics::with_topology(vec!["en".into()], 3);
        m.record_document(0, 1, 1, 0, DocTimings::default());
        m.record_document(0, 1, 1, 2, DocTimings::default());
        m.record_document(0, 1, 1, 2, DocTimings::default());
        // Out-of-range shard: counted globally, unattributed per-shard.
        m.record_document(0, 1, 1, usize::MAX, DocTimings::default());
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
        // Underflow repair: an unbalanced dequeue never wraps the gauge.
        s.note_dequeued();
        s.note_dequeued();
        s.note_dequeued();
        assert_eq!(m.snapshot().shards[0].queue_depth, 0);
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
        assert_eq!(s.events_per_wake.iter().sum::<u64>(), 4);
        assert_eq!(s.events_per_wake[0], 1); // 1
        assert_eq!(s.events_per_wake[1], 1); // 2
        assert_eq!(s.events_per_wake[3], 1); // 5 ≤ 8
        assert_eq!(s.events_per_wake[EVENTS_PER_WAKE_BOUNDS.len()], 1); // 200
    }

    #[test]
    fn out_of_range_winner_is_ignored() {
        let m = ServiceMetrics::new(2);
        m.record_document(9, 1, 1, 0, DocTimings::default());
        assert_eq!(m.snapshot().lang_wins, vec![0, 0]);
        assert_eq!(m.snapshot().documents, 1);
    }

    #[test]
    fn snapshot_displays_compactly() {
        let m = ServiceMetrics::new(1);
        m.record_document(0, 10, 7, 0, doc_timings(Duration::from_micros(80)));
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
            m.record_document(1, 1, 1, 0, DocTimings::default());
        }
        for _ in 0..3 {
            m.record_document(3, 1, 1, 0, DocTimings::default());
        }
        m.record_document(0, 1, 1, 0, DocTimings::default());
        m.record_document(2, 1, 1, 0, DocTimings::default());
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
        let mut buckets = [0u64; LATENCY_BUCKETS];
        assert_eq!(histogram_percentile_us(&buckets, 0.5), None);
        buckets[0] = 90; // ≤ 100 µs
        buckets[2] = 9; // ≤ 1 ms
        buckets[LATENCY_BUCKETS - 1] = 1; // overflow
        assert_eq!(histogram_percentile_us(&buckets, 0.5), Some(100));
        assert_eq!(histogram_percentile_us(&buckets, 0.95), Some(1_000));
        assert_eq!(histogram_percentile_us(&buckets, 0.99), Some(1_000));
        assert_eq!(histogram_percentile_us(&buckets, 1.0), Some(u64::MAX));
    }

    fn busy_snapshot() -> MetricsSnapshot {
        let m = ServiceMetrics::with_topology(vec!["en".into(), "español".into()], 2);
        m.record_document(
            0,
            1000,
            500,
            0,
            DocTimings {
                total: Duration::from_micros(400),
                queue_wait: Duration::from_micros(90),
                classify: Duration::from_micros(250),
            },
        );
        m.record_document(1, 2000, 900, 1, doc_timings(Duration::from_millis(5)));
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
        snap.rings = vec![vec![
            RingEvent {
                ts_ns: 17,
                tag: 1,
                arg: 3,
            },
            RingEvent {
                ts_ns: 90,
                tag: 7,
                arg: 0,
            },
        ]];
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
        snap.history = vec![HistorySlot {
            ts_ns: 2_000_000,
            interval_us: 1_000_000,
            docs: 120,
            doc_bytes: 1 << 20,
            errors: 1,
            faults: 0,
            shards: vec![
                HistoryShard {
                    docs: 60,
                    busy_ns: 300_000_000,
                    queue_depth: 2,
                },
                HistoryShard::default(),
            ],
        }];
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

    #[test]
    fn decoder_skips_unknown_sections_and_appended_fields() {
        let snap = busy_snapshot();
        let mut bytes = snap.encode();
        // A future section this build has never heard of.
        put_u16(&mut bytes, 0x7FFF);
        put_u32(&mut bytes, 12);
        bytes.extend_from_slice(&[0xAB; 12]);
        // A future counters section with extra appended counters: replace
        // nothing, just append a second counters section carrying more
        // fields than we know (later sections overwrite earlier ones).
        let counters = snap.counter_values();
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
    fn plain_snapshots_carry_no_span_or_history_sections() {
        // Detail ≤ 1 answers must stay bit-identical to the PR 7 schema:
        // the span and history sections only exist when populated, so a
        // plain snapshot's bytes list exactly the original section tags.
        let mut snap = busy_snapshot();
        snap.rings.clear();
        snap.spans.clear();
        snap.history.clear();
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
    fn truncated_blob_is_a_typed_error_not_a_panic() {
        let bytes = busy_snapshot().encode();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            let r = MetricsSnapshot::decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail to decode");
        }
    }

    use proptest::prelude::*;

    fn arb_histogram() -> impl Strategy<Value = [u64; LATENCY_BUCKETS]> {
        proptest::collection::vec(0u64..1 << 48, LATENCY_BUCKETS)
            .prop_map(|v| std::array::from_fn(|i| v[i]))
    }

    prop_compose! {
        fn arb_snapshot()(
            counters in proptest::collection::vec(0u64..u64::MAX / 2, 28),
            langs in proptest::collection::vec(
                (proptest::collection::vec(any::<char>(), 0..12), 0u64..1 << 40), 0..6),
            latency in arb_histogram(),
            queue_wait in arb_histogram(),
            classify in arb_histogram(),
            response_drain in arb_histogram(),
            events_per_wake in arb_histogram(),
            shards in proptest::collection::vec(
                proptest::collection::vec(0u64..1 << 40, SHARD_FIELDS), 0..5),
            rings in proptest::collection::vec(
                proptest::collection::vec((0u64..1 << 40, 0u8..16, 0u64..1 << 40), 0..8), 0..3),
            spans in proptest::collection::vec(
                (any::<u64>(), 0u64..1 << 40, any::<u16>(), 0u16..64, any::<u32>(),
                 any::<u8>(), 0u8..12, any::<u32>(),
                 proptest::collection::vec(0u64..1 << 40, 5)), 0..6),
            history in proptest::collection::vec(
                (proptest::collection::vec(0u64..1 << 40, HISTORY_SLOT_FIELDS),
                 proptest::collection::vec(
                     proptest::collection::vec(0u64..1 << 40, HISTORY_SHARD_FIELDS), 0..4)), 0..4),
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
                    .map(|v| ShardStats {
                        docs: v[0],
                        busy_ns: v[1],
                        queue_depth: v[2],
                        queue_depth_peak: v[3],
                        parked: v[4],
                        jobs: v[5],
                    })
                    .collect(),
                rings: rings
                    .iter()
                    .map(|ring| {
                        ring.iter()
                            .map(|&(ts_ns, tag, arg)| RingEvent { ts_ns, tag, arg })
                            .collect()
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
                history: history
                    .iter()
                    .map(|(vals, shards)| HistorySlot {
                        ts_ns: vals[0],
                        interval_us: vals[1],
                        docs: vals[2],
                        doc_bytes: vals[3],
                        errors: vals[4],
                        faults: vals[5],
                        shards: shards
                            .iter()
                            .map(|v| HistoryShard {
                                docs: v[0],
                                busy_ns: v[1],
                                queue_depth: v[2],
                            })
                            .collect(),
                    })
                    .collect(),
                ..MetricsSnapshot::default()
            };
            for (i, &v) in counters.iter().enumerate() {
                snap.assign_counter(i, v);
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
