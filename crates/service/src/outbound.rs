//! Per-connection outbound queues and the worker→reactor wake channel.
//!
//! In the threaded design, worker threads wrote responses straight into
//! the connection's socket — so one peer that stopped reading could wedge
//! a worker (and with it the whole shard) on a blocked write. Now a
//! worker's "write" is an in-memory enqueue: it appends the encoded frame
//! to the connection's [`WriteBuf`] and nudges the owning reactor's
//! eventfd. Only the reactor touches sockets, and it never blocks on one.
//!
//! With multiplexing, one connection's outbound queue is shared by every
//! channel fanned out across the worker shards: each channel's
//! [`ResponseSink`] tags its frames with the channel id (channel 0 encodes
//! as legacy v1 frames, so v1 clients keep working), and per-channel
//! response order is preserved because a channel lives on exactly one
//! worker, which enqueues its responses in submit order. Cross-channel
//! interleaving in the queue is arbitrary — the tags are what let the
//! client demultiplex.
//!
//! Queue growth is bounded operationally, not by the type: a queue over
//! the configured high-water mark masks the connection's `EPOLLIN`, so no
//! new commands are read and no new responses can be generated for it —
//! the overshoot is capped by the jobs already in flight in the worker
//! queues. A queue that *stays* over high-water past the slow-consumer
//! deadline gets the connection reset (see `reactor.rs`). The deepest any
//! queue ever gets is recorded in `outbound_queue_peak`, so slow-consumer
//! tuning is observable without a debugger.
//!
//! **Write-through fast path.** When the queue is empty — the common case,
//! a peer that reads its responses — [`ResponseSink::send`] writes the
//! frame straight into the (nonblocking) socket under the queue lock and
//! never wakes the reactor at all: the direct-write latency of the old
//! threaded design, without its blocking hazard. Order is safe because
//! the write only happens with the queue empty and all writers hold the
//! same lock. Only the part the socket refuses is queued, and only then
//! does the reactor get involved.

use lc_reactor::{EventFd, WriteBuf};
use lc_wire::WireResponse;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::chaos::{FaultPlan, FaultSite};
use crate::metrics::ServiceMetrics;
use crate::sync::Ordering;
use crate::trace::SpanRecord;

/// The `EPOLLIN` mask transition [`high_water_op`] asks the reactor to
/// perform after a flush pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskOp {
    /// Queue crossed above high water while readable: mask `EPOLLIN` so
    /// no new commands (and so no new responses) are generated until the
    /// peer drains what it already owes.
    Mask,
    /// A masked queue drained to empty: restore `EPOLLIN` (and re-poll
    /// eagerly — bytes may have arrived while masked).
    Unmask,
    /// No transition.
    Keep,
}

/// The outbound high-water policy, as a pure function of the queue depth
/// observed *after* a flush pass. Factored out of the reactor's `flush`
/// so the loom model can drive the exact shipping decision procedure
/// against every enqueue/flush interleaving (`tests/loom_model.rs`
/// pins lost-wakeup freedom: a drained connection never stays masked).
///
/// The asymmetry is deliberate: masking triggers strictly above
/// `high_water`, unmasking waits for a *fully empty* queue rather than
/// re-crossing the mark, so a peer oscillating around the threshold
/// cannot flap its interest set on every pass.
pub fn high_water_op(queued: usize, in_masked: bool, high_water: usize) -> MaskOp {
    if queued > high_water {
        if in_masked {
            MaskOp::Keep
        } else {
            MaskOp::Mask
        }
    } else if in_masked && queued == 0 {
        MaskOp::Unmask
    } else {
        MaskOp::Keep
    }
}

/// One connection's outbound state, shared by the worker shards serving
/// its channels (producers) and its reactor (consumer).
#[derive(Debug, Default)]
pub(crate) struct OutboundInner {
    /// Encoded response frames awaiting the socket.
    pub buf: WriteBuf,
    /// Write half of the connection (a dup of the reactor's fd, sharing
    /// its nonblocking file description) for the write-through fast path.
    /// Cleared on teardown so the socket actually closes.
    pub stream: Option<TcpStream>,
    /// Channels whose worker processed their `Close`: once every channel
    /// the reactor opened is counted here, nothing more will be enqueued,
    /// so the reactor may tear the connection down once `buf` drains.
    pub finished_channels: u64,
    /// The reactor tore the connection down: late worker enqueues are
    /// dropped instead of accumulating against a dead socket.
    pub dead: bool,
    /// Total bytes ever pushed into `buf` (monotonic); `pushed -
    /// buf.len()` is the bytes the socket has accepted so far.
    pub pushed: u64,
    /// One `(end offset in the pushed stream, enqueue stamp, stage
    /// record)` per worker response awaiting the socket, FIFO; popped as
    /// write progress passes each offset (the flush is the one place the
    /// real drain time exists).
    pub stamps: VecDeque<(u64, Instant, SpanRecord)>,
}

impl OutboundInner {
    /// Append one encoded frame to the queue. A worker response carries
    /// its document's stage `record`, stamped here so its flush can
    /// measure the drain; reactor-generated frames (Hello, faults, stats)
    /// pass `None`.
    pub fn push_frame(&mut self, bytes: Vec<u8>, record: Option<SpanRecord>) {
        self.pushed += bytes.len() as u64;
        if let Some(record) = record {
            self.stamps.push_back((self.pushed, Instant::now(), record));
        }
        self.buf.push(bytes);
    }

    /// The flush edge: every worker response whose last byte has now left
    /// the queue records its drain time, and its stage record goes to the
    /// span plane, which keeps it if it was sampled, slow or faulted.
    /// Called after any `buf.write_to` progress (write-through fast path
    /// and reactor flush alike).
    pub fn note_flushed(&mut self, metrics: &ServiceMetrics) {
        let flushed = self.pushed - self.buf.len() as u64;
        while self.stamps.front().is_some_and(|&(end, ..)| end <= flushed) {
            if let Some((_, at, record)) = self.stamps.pop_front() {
                let drain = at.elapsed();
                metrics.record_drain(drain);
                metrics.spans().finish(record, drain);
            }
        }
    }
}

/// A freshly accepted connection travelling from the acceptor to the
/// reactor that will own it.
#[derive(Debug)]
pub(crate) struct NewConn {
    pub stream: TcpStream,
    pub conn: u64,
}

/// The reactor's wake channel: an eventfd plus the queues producers fill
/// before notifying. Wakes coalesce; the reactor drains both queues every
/// time it wakes.
#[derive(Debug)]
pub(crate) struct ReactorWaker {
    eventfd: EventFd,
    queue: Mutex<WakeQueue>,
    /// Seeded fault-injection plan (`None` in production): can suppress
    /// the eventfd notify of a dirty-mark, and makes `ResponseSink::send`
    /// skip its write-through fast path — both to prove the reactor's
    /// slow paths recover on their own.
    chaos: Option<(Arc<FaultPlan>, Arc<ServiceMetrics>)>,
}

#[derive(Debug, Default)]
struct WakeQueue {
    /// Connections handed over by the acceptor.
    new_conns: Vec<NewConn>,
    /// Connections whose outbound queue gained data (or finished).
    dirty: Vec<u64>,
}

impl ReactorWaker {
    pub fn new(chaos: Option<(Arc<FaultPlan>, Arc<ServiceMetrics>)>) -> std::io::Result<Self> {
        Ok(Self {
            eventfd: EventFd::new()?,
            queue: Mutex::new(WakeQueue::default()),
            chaos,
        })
    }

    /// The fault plan this waker injects under, if any.
    pub(crate) fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.chaos.as_ref().map(|(p, _)| p)
    }

    /// The eventfd the reactor registers for readable interest.
    pub fn eventfd(&self) -> &EventFd {
        &self.eventfd
    }

    /// Hand a new connection to the reactor.
    pub fn push_conn(&self, conn: NewConn) {
        if let Ok(mut q) = self.queue.lock() {
            q.new_conns.push(conn);
        }
        let _ = self.eventfd.notify();
    }

    /// Flag a connection's outbound queue as having news.
    pub fn mark_dirty(&self, conn: u64) {
        // Adjacent dedup flattens the common enqueue burst (the reactor
        // dedups fully before servicing), and a deduped entry also skips
        // the eventfd syscall: seeing our connection at the tail under the
        // lock proves an earlier push was not yet taken, so its paired
        // notify is still owed and a wake is guaranteed without ours.
        if let Ok(mut q) = self.queue.lock() {
            if q.dirty.last() == Some(&conn) {
                return;
            }
            q.dirty.push(conn);
        }
        // Chaos wake drop: the dirty entry is queued but the eventfd nudge
        // is swallowed — a lost wakeup. The reactor must recover from its
        // idle tick alone (it drains the wake queue every loop pass).
        if let Some((plan, metrics)) = &self.chaos {
            if plan.fire(FaultSite::WakeDrop) {
                metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let _ = self.eventfd.notify();
    }

    /// Wake the reactor with no payload (shutdown).
    pub fn wake(&self) {
        let _ = self.eventfd.notify();
    }

    /// Take everything queued since the last call.
    pub fn take(&self) -> (Vec<NewConn>, Vec<u64>) {
        match self.queue.lock() {
            Ok(mut q) => (
                std::mem::take(&mut q.new_conns),
                std::mem::take(&mut q.dirty),
            ),
            Err(_) => (Vec::new(), Vec::new()),
        }
    }
}

/// Where a worker's responses for one **channel** go: the owning
/// connection's outbound queue, the channel tag its frames carry, and the
/// wake handle of the reactor that flushes the queue.
#[derive(Clone, Debug)]
pub struct ResponseSink {
    out: Arc<Mutex<OutboundInner>>,
    waker: Arc<ReactorWaker>,
    metrics: Arc<ServiceMetrics>,
    conn: u64,
    channel: u16,
}

impl ResponseSink {
    pub(crate) fn new(
        out: Arc<Mutex<OutboundInner>>,
        waker: Arc<ReactorWaker>,
        metrics: Arc<ServiceMetrics>,
        conn: u64,
        channel: u16,
    ) -> Self {
        Self {
            out,
            waker,
            metrics,
            conn,
            channel,
        }
    }

    /// Deliver one encoded response frame, tagged with this sink's channel
    /// (channel 0 rides v1 framing — the legacy-client contract), with the
    /// stage `record` of the document it answers riding along until the
    /// frame's bytes flush and the span plane sees it. Never
    /// blocks on the network; sends to a torn-down connection are silently
    /// dropped (the peer is gone), and so is the record of a frame that
    /// never flushes.
    ///
    /// With an empty queue the frame is written through to the socket
    /// right here (nonblocking); whatever the socket refuses — a peer
    /// falling behind — is queued and the reactor woken to resume it on
    /// the next writable edge.
    pub fn send(&self, resp: &WireResponse, record: SpanRecord) {
        let mut bytes = Vec::with_capacity(64);
        if resp.encode_on(self.channel, &mut bytes).is_err() {
            return; // Vec writes cannot fail; defensive.
        }
        let Ok(mut inner) = self.out.lock() else {
            return;
        };
        if inner.dead {
            return;
        }
        let was_empty = inner.buf.is_empty();
        inner.push_frame(bytes, Some(record));
        self.metrics
            .outbound_queue_peak
            .fetch_max(inner.buf.len() as u64, Ordering::Relaxed);
        // Chaos short write: skip the write-through so the frame takes the
        // reactor's queued slow path (where the clipped-write injection
        // lives) instead of bypassing it.
        let write_through = was_empty
            && !self.waker.plan().is_some_and(|p| {
                let hit = p.fire(FaultSite::ShortWrite);
                if hit {
                    self.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                }
                hit
            });
        if write_through {
            // Split borrow: flush the queue through the same resumable
            // write path the reactor uses. Errors are left for the
            // reactor to discover and act on (the remainder stays queued).
            let OutboundInner { buf, stream, .. } = &mut *inner;
            if let Some(stream) = stream {
                let _ = buf.write_to(stream);
            }
            inner.note_flushed(&self.metrics);
            if inner.buf.is_empty() {
                return; // fast path: the reactor never hears about it
            }
        }
        drop(inner);
        self.waker.mark_dirty(self.conn);
    }

    /// Mark this channel's response stream complete (its worker processed
    /// the `Close`): once every channel has finished and the queue drains,
    /// the reactor may close the socket.
    pub fn finish(&self) {
        if let Ok(mut inner) = self.out.lock() {
            inner.finished_channels += 1;
        }
        self.waker.mark_dirty(self.conn);
    }
}
