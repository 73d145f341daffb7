//! # lc-service — the classification service
//!
//! The paper frames classification as a host↔accelerator service: framed
//! documents stream in under a Size / End-of-Document / Query-Result
//! command flow, replicated match engines chew through many documents
//! concurrently, and a watchdog recovers stalled transfers (§4). This crate
//! is that service over TCP, with an event-driven connection layer in
//! front of the sharded engines:
//!
//! ```text
//!  clients        reactor threads (lc-reactor epoll)      worker shards
//!  ───────        ───────────────────────────────────     (match engines)
//!  Size ──frame──▶ nonblocking read → FrameAccumulator
//!  Data ──frame──▶   decode → try_send ──────────────────▶ Session
//!  EoD  ──frame──▶   (full shard queue ⇒ park command,     ├─ checksum ^= w
//!  Query ─frame──▶    stop reading this conn only)         ├─ Streaming::feed
//!                                                          └─ latch, respond
//!        ◀── flush ── per-conn outbound queue ◀─ enqueue + eventfd wake ──┘
//! ```
//!
//! * **One wire contract, two framings.** Frames carry the exact command
//!   set of the simulated FPGA protocol (`lc_fpga::protocol`); the shared
//!   pieces live in `lc-wire` so the two transports cannot drift. Wire
//!   **v2** adds a channel id to the frame header: one connection
//!   multiplexes many independent command streams — the software image of
//!   an accelerator host's independent DMA channels over one link. Legacy
//!   v1 frames are auto-detected and served as channel 0, so old clients
//!   work unmodified.
//! * **Event-driven connections.** N reactor threads own all socket I/O
//!   through an edge-triggered epoll loop (`lc-reactor`, thin FFI, no
//!   external deps). Reads decode into per-channel `Session` command
//!   streams; writes drain per-connection outbound queues (responses
//!   tagged with their channel) with partial-write resumption.
//! * **Zero-copy frame path.** The read rope hands Data payloads to
//!   workers as refcounted buffer segments (`lc_wire::PayloadBytes`) —
//!   no per-frame payload copy between socket and classifier, proven
//!   live by the `payload_copies` metric.
//! * **Sharded workers.** Each **channel** hashes to a worker shard
//!   ([`ChannelKey::shard`]), so one fat-pipe connection's channels fan
//!   out across all N engines — N software match engines sharing one
//!   programmed `Arc<MultiLanguageClassifier>` (the §3.3 replication:
//!   same filters, independent execution). Workers never touch sockets:
//!   responses are enqueued and the owning reactor woken via eventfd.
//! * **No head-of-line blocking.** A peer that stops reading fills only
//!   its own outbound queue: past the high-water mark its `EPOLLIN` is
//!   masked, and past the slow-consumer deadline it is reset — the shard
//!   keeps serving everyone else throughout. A peer that floods stalls
//!   only its own reads when its shard queue fills (TCP backpressure),
//!   never its reactor siblings.
//! * **Streaming.** Sessions classify as words arrive via
//!   [`lc_core::StreamingSession`]; per-session memory is O(counters),
//!   independent of document size.
//! * **Faults.** Truncated transfers, data-before-Size, short DMA
//!   payloads, and stalled sessions (wall-clock watchdog, swept by the
//!   workers) all map to the same error taxonomy the hardware model uses.
//! * **Chaos-hardened.** A seeded fault-injection plan ([`ChaosConfig`])
//!   can corrupt, truncate, delay, reset, and panic every layer on a
//!   replayable schedule; the stack self-heals (worker unwind guards +
//!   shard respawn, `Busy` shedding under dual saturation, graceful
//!   drain on SIGTERM) and the chaos-soak e2e proves the
//!   one-response-per-document invariant survives all of it.
//!
//! All `unsafe` lives behind `lc-reactor`'s safe wrappers; this crate
//! remains `forbid(unsafe_code)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod metrics;
mod outbound;
mod reactor;
pub mod server;
pub mod session;
pub(crate) mod sync;
pub mod trace;
pub mod worker;

pub use chaos::{ChaosConfig, FaultPlan, FaultSite};
pub use client::{ClassifyClient, ClientError, RetryPolicy, ServedResult};
pub use lc_reactor::{install_termination_handler, raise_nofile_limit, termination_requested};
pub use metrics::{
    EventsPerWake, Histogram, HistogramSnapshot, MetricsSnapshot, Micros, Scale, ServiceMetrics,
    ShardCounters, ShardDelta, ShardStats, SnapshotDecodeError, StatsDelta, STATS_SCHEMA_VERSION,
};
pub use outbound::{high_water_op, MaskOp, ResponseSink};
pub use server::{serve, ServerHandle, ServiceConfig};
pub use session::Session;
pub use trace::{
    derive_trace_id, fault_name, SpanRecord, SpanSet, FAULT_WORKER_DELAY, SPAN_BUFFER,
    SPAN_CLIENT_CONTEXT, SPAN_FAULT, SPAN_PARKED, SPAN_SAMPLED, SPAN_SLOW,
};
pub use worker::{ChannelKey, WorkerPool};
