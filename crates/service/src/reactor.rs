//! The event-driven connection layer: reactor threads that own all
//! socket I/O.
//!
//! Each reactor runs an edge-triggered epoll loop (`lc-reactor`) over the
//! nonblocking connections assigned to it (`conn % reactors`). Per
//! connection it keeps the read framing (`FrameAccumulator`, a rope of
//! refcounted chunks), the partial-write-resumable outbound queue, the
//! readiness flags the edge-triggered discipline requires, and the
//! **channel table**: wire-v2 frames carry a channel id, and each channel
//! is an independent session routed to the worker shard
//! `ChannelKey::shard` — one connection's channels fan out across the
//! whole pool (legacy v1 frames are channel 0, so old clients are a
//! one-channel special case). Classification never happens here: decoded
//! commands are `try_send`-ed to the channel's worker shard, and worker
//! responses come back through the shared outbound queue — tagged with
//! their channel — with an eventfd wake.
//!
//! The handoff is **zero-copy**: `next_frame_mux` hands Data payloads out
//! as [`lc_wire::PayloadBytes`] — refcounted segments of the very buffers
//! the socket bytes landed in — and the worker feeds those segments
//! straight into the fused classify loop. No per-frame payload copy
//! exists on the path, and the `payload_copies` metric (vs `data_frames`)
//! proves it live.
//!
//! The design goal is the paper's host-interface property: **no peer can
//! block anyone but itself.**
//!
//! * A peer that stops *reading* fills its outbound queue. Past the
//!   high-water mark its `EPOLLIN` is masked (no new commands are read,
//!   so the queue's growth is bounded by the jobs already in flight); a
//!   queue whose socket accepts nothing for the slow-consumer deadline —
//!   at any size — gets the connection reset and counted in
//!   `slow_consumer_resets`. Workers never see any of it.
//! * A peer that *floods* fills its channels' bounded shard queues. The
//!   reactor's `try_send` fails, the decoded command parks in the
//!   connection's `stalled` queue, and that connection alone stops being
//!   read until the shard drains (parked sends are retried on a brisk
//!   tick while any exist) — TCP backpressure reaches the flooding peer
//!   while other connections on the same reactor keep flowing.

use lc_reactor::{Epoll, Events, Interest, WriteBuf};
use lc_wire::{ErrorCode, Fill, FrameAccumulator, WireCommand, WireResponse};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chaos::{FaultPlan, FaultSite};
use crate::metrics::ServiceMetrics;
use crate::outbound::{high_water_op, MaskOp, NewConn, OutboundInner, ReactorWaker, ResponseSink};
use crate::sync::{AtomicBool, Ordering};
use crate::worker::{ChannelKey, Job};

/// Token reserved for the reactor's own eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Events decoded per `epoll_wait` call.
const EVENT_BATCH: usize = 256;

/// The per-reactor slice of the service configuration.
#[derive(Clone, Debug)]
pub(crate) struct ReactorConfig {
    pub read_buffer: usize,
    pub outbound_high_water: usize,
    pub slow_consumer_deadline: Duration,
    pub send_buffer: usize,
    pub max_channels: usize,
}

impl ReactorConfig {
    /// epoll timeout: often enough to observe slow-consumer deadlines
    /// promptly, long enough to stay off the CPU when idle.
    fn tick(&self) -> Duration {
        (self.slow_consumer_deadline / 8)
            .clamp(Duration::from_millis(5), Duration::from_millis(250))
    }
}

/// Close bookkeeping for one channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CloseState {
    /// Channel live; no Close issued.
    Open,
    /// `Job::Close` is parked in the connection's `stalled` queue.
    Queued,
    /// `Job::Close` was delivered to the shard.
    Sent,
}

/// One channel as the reactor sees it: which shard serves it, whether its
/// Close has been issued, and whether it is currently shedding a document
/// (overload or drain answered the Size with a fault, so the document's
/// remaining frames are discarded until the next Size re-arms it — the
/// reactor-side mirror of the session's own draining discipline).
#[derive(Debug)]
struct Channel {
    shard: usize,
    close: CloseState,
    shed: bool,
}

/// One connection as the reactor sees it.
struct Conn {
    stream: TcpStream,
    /// Incremental frame decoder; bytes land here straight off the socket
    /// and payloads leave as refcounted segments of the same buffers.
    acc: FrameAccumulator,
    /// Outbound queue shared by all of this connection's channels.
    out: Arc<Mutex<OutboundInner>>,
    /// Channel table: channel id → shard + close state. Created lazily on
    /// the first frame a channel sends; a v1 client only ever has
    /// channel 0 here.
    channels: HashMap<u16, Channel>,
    /// Edge-triggered readiness flags: set by events. `read_ready` is
    /// cleared on `WouldBlock` or on a short read — a stream-socket read
    /// that returns less than it was offered has emptied the receive
    /// queue (epoll(7)), and the next byte to arrive raises a new edge —
    /// except once `peer_closed`. Caveat: TCP urgent data also stops a
    /// read short, at the urgent mark, with bytes still queued behind it;
    /// the protocol never sends urgent data, and a peer that does stalls
    /// only its own connection until its next segment.
    read_ready: bool,
    write_ready: bool,
    /// An event reported the peer closed its write half (`EPOLLRDHUP` or
    /// `EPOLLHUP`). No edge follows the FIN, so from here on short reads
    /// do not stop reading: the pump reads on to EOF.
    peer_closed: bool,
    /// `EPOLLIN` is currently masked because the outbound queue crossed
    /// the high-water mark.
    in_masked: bool,
    /// Slow-consumer clock: since when the outbound queue has been
    /// non-empty with the socket accepting nothing. Cleared by any write
    /// progress or by draining to empty.
    over_since: Option<Instant>,
    /// Jobs a full shard queue rejected (decoded commands, channel Opens,
    /// deferred Closes), each with its target shard; retried in order on
    /// every wake, and nothing more is decoded until the queue drains
    /// (per-channel command order is sacred, and Opens must precede their
    /// commands).
    stalled: VecDeque<(usize, Job)>,
    /// Peer's write half is done (EOF, or we half-closed after a decode
    /// fault): stop reading, flush what remains, then tear down.
    read_eof: bool,
    /// Close jobs for every channel have been issued (sent or parked).
    closes_enqueued: bool,
    /// Fatal socket state: tear down on next service.
    broken: bool,
    /// Channels retired early by a `CloseChannel` control frame: removed
    /// from the table (so their `max_channels` slot is free) but still
    /// owed a `finished_channels` count by their worker's `finish()`.
    early_closes: u64,
    /// A chaos-clipped write left queued bytes behind on a socket that is
    /// still writable: no EPOLLOUT edge will announce it, so force a
    /// deferred re-service.
    chaos_deferred: bool,
    /// Accumulator stats already folded into the shared metrics.
    data_frames_reported: u64,
    payload_copies_reported: u64,
}

/// Cross-thread control state every reactor shares with the server:
/// shutdown/drain latches and the optional fault-injection plan.
#[derive(Clone)]
pub(crate) struct ReactorControl {
    pub shutdown: Arc<AtomicBool>,
    pub drain: Arc<AtomicBool>,
    pub plan: Option<Arc<FaultPlan>>,
}

/// Spawn one reactor thread.
pub(crate) fn spawn_reactor(
    index: usize,
    waker: Arc<ReactorWaker>,
    senders: Vec<SyncSender<Job>>,
    hello: Arc<Vec<u8>>,
    metrics: Arc<ServiceMetrics>,
    control: ReactorControl,
    cfg: ReactorConfig,
) -> std::io::Result<JoinHandle<()>> {
    let epoll = Epoll::new()?;
    epoll.add(waker.eventfd().raw_fd(), WAKE_TOKEN, Interest::READABLE)?;
    let ReactorControl {
        shutdown,
        drain,
        plan,
    } = control;
    let mut reactor = Reactor {
        epoll,
        waker,
        senders,
        hello,
        metrics,
        shutdown,
        drain,
        plan,
        cfg,
        conns: HashMap::new(),
        deferred: Vec::new(),
    };
    std::thread::Builder::new()
        .name(format!("lc-reactor-{index}"))
        .spawn(move || reactor.run())
}

struct Reactor {
    epoll: Epoll,
    waker: Arc<ReactorWaker>,
    senders: Vec<SyncSender<Job>>,
    hello: Arc<Vec<u8>>,
    metrics: Arc<ServiceMetrics>,
    shutdown: Arc<AtomicBool>,
    /// Graceful-drain flag: while set, every *new* document (Size) is
    /// answered with a `ShuttingDown` fault and shed; documents already in
    /// flight run to completion.
    drain: Arc<AtomicBool>,
    /// Seeded fault-injection plan; `None` in production.
    plan: Option<Arc<FaultPlan>>,
    cfg: ReactorConfig,
    conns: HashMap<u64, Conn>,
    /// Connections that left their last service pass with work no external
    /// event will announce: parked shard sends, or socket bytes left
    /// unread by the fairness budget. Re-serviced every wake; refilled by
    /// [`Reactor::service`], the single place deferred state is evaluated
    /// (no per-wake scan of all connections).
    deferred: Vec<u64>,
}

/// Hand `job` to `senders[shard]`, or park it. `Ok(true)` = delivered,
/// `Ok(false)` = parked in `stalled` (shard full, or earlier jobs already
/// parked — FIFO order is preserved), `Err(())` = pool disconnected
/// (shutdown): tear the connection down. Delivery and parking both land
/// in the shard's counters.
fn enqueue(
    stalled: &mut VecDeque<(usize, Job)>,
    senders: &[SyncSender<Job>],
    metrics: &ServiceMetrics,
    shard: usize,
    mut job: Job,
) -> Result<bool, ()> {
    if !stalled.is_empty() {
        note_parked(metrics, shard);
        mark_parked(&mut job);
        stalled.push_back((shard, job));
        return Ok(false);
    }
    // lint: allow(panic, reason = "shard is assigned modulo the worker count at channel setup")
    match senders[shard].try_send(job) {
        Ok(()) => {
            if let Some(sc) = metrics.shard(shard) {
                sc.note_enqueued();
            }
            Ok(true)
        }
        Err(TrySendError::Full(mut job)) => {
            note_parked(metrics, shard);
            mark_parked(&mut job);
            stalled.push_back((shard, job));
            Ok(false)
        }
        Err(TrySendError::Disconnected(_)) => Err(()),
    }
}

/// A command that waited in a stall list carries the fact into its
/// document's trace span (`SPAN_PARKED`).
fn mark_parked(job: &mut Job) {
    if let Job::Command { parked, .. } = job {
        *parked = true;
    }
}

/// A job parked in a connection's stall list instead of reaching `shard`.
fn note_parked(metrics: &ServiceMetrics, shard: usize) {
    if let Some(sc) = metrics.shard(shard) {
        sc.parked.fetch_add(1, Ordering::Relaxed);
    }
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Events::with_capacity(EVENT_BATCH);
        let idle_tick = self.cfg.tick();
        // When a command is parked on a full shard queue, worker progress
        // is what frees space — but the write-through fast path means
        // responses no longer wake this thread, so poll the retry briskly
        // instead of waiting out the idle tick.
        let retry_tick = Duration::from_millis(1);
        let mut touched: Vec<u64> = Vec::new();
        let mut last_scan = Instant::now();
        // ordering: Acquire pairs with the Release store in
        // ServerHandle::shutdown / serve's error paths — seeing the flag
        // set happens-after everything the setter did before it. The flag
        // is a latch checked on a polling loop; no cross-flag ordering is
        // consumed, so SeqCst buys nothing over Acquire here.
        while !self.shutdown.load(Ordering::Acquire) {
            let tick = if self.deferred.is_empty() {
                idle_tick
            } else {
                retry_tick
            };
            let delivered = self.epoll.wait(&mut events, Some(tick)).unwrap_or(0);
            // ordering: Acquire — same latch as the loop condition.
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.metrics.record_wake(delivered);
            touched.clear();
            for ev in events.iter() {
                if ev.token == WAKE_TOKEN {
                    self.waker.eventfd().drain();
                    self.metrics.eventfd_wakes.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let Some(c) = self.conns.get_mut(&ev.token) else {
                    continue;
                };
                if ev.readable || ev.closed {
                    // A half-close is discovered by reading to EOF.
                    c.read_ready = true;
                }
                c.peer_closed |= ev.closed;
                if ev.writable {
                    c.write_ready = true;
                }
                if ev.error {
                    c.broken = true;
                }
                touched.push(ev.token);
            }

            let (new_conns, dirty) = self.waker.take();
            for nc in new_conns {
                if let Some(conn) = self.register(nc) {
                    touched.push(conn);
                }
            }
            touched.extend(dirty);
            touched.append(&mut self.deferred);

            touched.sort_unstable();
            touched.dedup();
            for &conn in &touched {
                self.service(conn);
            }

            // Deadline enforcement is O(connections); run it at the idle
            // tick cadence, not per wake — deadlines are seconds-scale.
            let now = Instant::now();
            if now.duration_since(last_scan) >= idle_tick {
                last_scan = now;
                self.scan_deadlines(now);
            }
        }
        self.teardown_all();
    }

    /// Full service pass for one connection. Order matters: flush first so
    /// high-water masking reflects reality before reads are pumped, flush
    /// again because pumping can enqueue fault responses. Ends with the
    /// one evaluation of whether this connection still owes deferred work.
    fn service(&mut self, conn: u64) {
        if !self.conns.contains_key(&conn) {
            return;
        }
        // Chaos connection reset: the abrupt-death failure mode clients
        // must survive (reconnect + resubmit). Injected here so a reset
        // can land at any point of a connection's life.
        if let Some(plan) = &self.plan {
            if plan.fire(FaultSite::ConnReset) {
                self.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                return self.teardown(conn);
            }
        }
        // lint: allow(panic, reason = "conn was looked up at the top of handle_readable; teardown paths return early")
        if self.conns[&conn].broken {
            return self.teardown(conn);
        }
        if !self.retry_jobs(conn)
            || !self.flush(conn)
            || !self.pump(conn)
            || !self.enqueue_closes(conn)
            || !self.flush(conn)
        {
            return self.teardown(conn);
        }
        if self.finished(conn) {
            return self.teardown(conn);
        }
        if let Some(c) = self.conns.get_mut(&conn) {
            let chaos_clipped = std::mem::take(&mut c.chaos_deferred);
            if !c.stalled.is_empty()
                || (c.read_ready && !c.in_masked && !c.read_eof)
                || chaos_clipped
            {
                self.deferred.push(conn);
            }
        }
    }

    /// Adopt a connection from the acceptor. Returns its conn id, or
    /// `None` if setup failed (the accept was already counted, so undo).
    fn register(&mut self, nc: NewConn) -> Option<u64> {
        let NewConn { stream, conn } = nc;
        let fd = stream.as_raw_fd();
        let _ = stream.set_nodelay(true);
        if self.cfg.send_buffer > 0 {
            let _ = lc_reactor::set_send_buffer(fd, self.cfg.send_buffer);
        }
        if lc_reactor::set_nonblocking(fd).is_err() {
            self.metrics
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
            return None;
        }

        let mut buf = WriteBuf::new();
        buf.push((*self.hello).clone());
        self.metrics
            .outbound_queue_peak
            .fetch_max(buf.len() as u64, Ordering::Relaxed);
        let out = Arc::new(Mutex::new(OutboundInner {
            // The Hello went straight into `buf`, not through
            // `push_frame`: seed the flushed-offset base to match.
            pushed: buf.len() as u64,
            buf,
            // Write-through handle: a dup sharing the now-nonblocking file
            // description. The Hello above keeps the queue non-empty until
            // the reactor's first flush, so ordering holds from byte one.
            stream: stream.try_clone().ok(),
            finished_channels: 0,
            dead: false,
            stamps: VecDeque::new(),
        }));
        if self
            .epoll
            .add(fd, conn, Interest::READABLE | Interest::WRITABLE)
            .is_err()
        {
            // Kill the outbound dup so dropping `stream` really closes.
            if let Ok(mut inner) = out.lock() {
                inner.dead = true;
                inner.buf.clear();
                inner.stream = None;
            }
            self.metrics
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        self.conns.insert(
            conn,
            Conn {
                stream,
                acc: FrameAccumulator::with_chunk_size(self.cfg.read_buffer),
                out,
                channels: HashMap::new(),
                read_ready: true,
                write_ready: true,
                peer_closed: false,
                in_masked: false,
                over_since: None,
                stalled: VecDeque::new(),
                read_eof: false,
                closes_enqueued: false,
                broken: false,
                early_closes: 0,
                chaos_deferred: false,
                data_frames_reported: 0,
                payload_copies_reported: 0,
            },
        );
        Some(conn)
    }

    /// Retry parked shard sends (commands, Opens, deferred Closes) in
    /// order. `false` means the worker pool is gone (shutdown): tear down.
    fn retry_jobs(&mut self, conn: u64) -> bool {
        let Self {
            senders,
            conns,
            metrics,
            ..
        } = self;
        let Some(c) = conns.get_mut(&conn) else {
            return true;
        };
        while let Some((shard, job)) = c.stalled.pop_front() {
            let close_of = match &job {
                Job::Close { key } => Some(key.channel),
                _ => None,
            };
            // lint: allow(panic, reason = "stalled entries only ever store shards assigned modulo the worker count")
            match senders[shard].try_send(job) {
                Ok(()) => {
                    if let Some(sc) = metrics.shard(shard) {
                        sc.note_enqueued();
                    }
                    if let Some(channel) = close_of {
                        if let Some(ch) = c.channels.get_mut(&channel) {
                            ch.close = CloseState::Sent;
                        }
                    }
                }
                Err(TrySendError::Full(job)) => {
                    c.stalled.push_front((shard, job));
                    break;
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
        true
    }

    /// Push queued outbound bytes while the socket accepts them, then
    /// apply the high-water policy: crossing above masks `EPOLLIN` and
    /// starts the slow-consumer clock; draining to empty unmasks.
    /// `false` means a fatal socket error: tear down.
    fn flush(&mut self, conn: u64) -> bool {
        let Self {
            epoll,
            metrics,
            cfg,
            conns,
            plan,
            ..
        } = self;
        let Some(c) = conns.get_mut(&conn) else {
            return true;
        };
        let (queued, progressed) = {
            let Ok(mut inner) = c.out.lock() else {
                return false;
            };
            let before = inner.buf.len();
            if c.write_ready && !inner.buf.is_empty() {
                metrics.write_syscalls.fetch_add(1, Ordering::Relaxed);
                // Chaos short write: clip the pass after a few bytes and
                // report a synthetic WouldBlock, exercising partial-write
                // resumption. The socket is in truth still writable — no
                // EPOLLOUT edge will follow — so flag a forced deferral
                // instead of clearing `write_ready`.
                let clip = plan
                    .as_ref()
                    .and_then(|p| p.fire_sized(FaultSite::ShortWrite, 256))
                    .map(|amount| amount + 1);
                let res = match clip {
                    Some(limit) => {
                        metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                        let mut w = ClippedWriter {
                            inner: &mut c.stream,
                            remaining: limit,
                        };
                        inner.buf.write_to(&mut w)
                    }
                    None => inner.buf.write_to(&mut c.stream),
                };
                match res {
                    Ok(true) => {}
                    Ok(false) => {
                        if clip.is_none() {
                            c.write_ready = false;
                        } else {
                            c.chaos_deferred = true;
                        }
                    }
                    Err(_) => return false,
                }
            }
            let after = inner.buf.len();
            if after < before {
                inner.note_flushed(metrics);
            }
            (after, after < before)
        };
        let fd = c.stream.as_raw_fd();
        // High-water masking: above the mark no new commands are read, so
        // queue growth is bounded by the jobs already in flight. The
        // decision procedure is the pure `high_water_op` policy, which the
        // loom model drives against every enqueue/flush interleaving.
        match high_water_op(queued, c.in_masked, cfg.outbound_high_water) {
            MaskOp::Mask => {
                if epoll.modify(fd, conn, Interest::WRITABLE).is_err() {
                    return false;
                }
                c.in_masked = true;
                metrics.outbound_stalls.fetch_add(1, Ordering::Relaxed);
            }
            MaskOp::Unmask => {
                if epoll
                    .modify(fd, conn, Interest::READABLE | Interest::WRITABLE)
                    .is_err()
                {
                    return false;
                }
                c.in_masked = false;
                // Bytes may have arrived while masked; the MOD re-arms the
                // edge, but resume eagerly rather than rely on it.
                c.read_ready = true;
            }
            MaskOp::Keep => {}
        }
        // Slow-consumer clock: armed whenever queued bytes are stuck
        // behind a socket that accepts nothing, however small the queue —
        // and *restarted*, never disarmed, by partial progress: this may
        // be the last flush this connection ever gets (a peer that drains
        // a little and goes silent produces no further events), so the
        // clock must be left running for scan_deadlines to find. Only
        // draining to empty disarms it. Queue size alone is deliberately
        // not the trigger: a huge-but-draining queue is a burst, not a
        // slow consumer; a tiny-but-frozen one is a parked fd leak.
        if queued == 0 {
            c.over_since = None;
        } else if !c.write_ready && (progressed || c.over_since.is_none()) {
            c.over_since = Some(Instant::now());
        }
        true
    }

    /// Decode buffered frames into channel-routed worker jobs, then read
    /// more while the socket has bytes. A frame for an unseen channel
    /// opens it: the channel is entered into the table, hashed to its
    /// shard, and a `Job::Open` precedes the command on that shard's
    /// queue. Stops at a short read or `WouldBlock` (clearing
    /// `read_ready`; a short read decodes what it got first, and does not
    /// stop a connection whose peer closed — see `Conn::read_ready`), a
    /// full shard queue (parking jobs in `stalled`), a masked `EPOLLIN`,
    /// EOF, or the per-pass fairness budget — a firehose peer on loopback
    /// can stay readable indefinitely, and its reactor siblings must
    /// still get serviced (`read_ready` stays set, so the next loop
    /// iteration resumes right here). A peer sending one document at a
    /// time costs one read per document. `false` means tear down.
    fn pump(&mut self, conn: u64) -> bool {
        let Self {
            metrics,
            cfg,
            conns,
            senders,
            waker,
            drain,
            plan,
            ..
        } = self;
        let Some(c) = conns.get_mut(&conn) else {
            return true;
        };
        if c.read_eof {
            return true;
        }
        let mut budget = cfg.read_buffer.saturating_mul(32);
        let mut alive = true;
        'outer: loop {
            while c.stalled.is_empty() && !c.in_masked {
                match c.acc.next_frame_mux() {
                    Ok(Some((kind, channel, payload))) => {
                        match WireCommand::decode(kind, payload) {
                            Ok(cmd) => {
                                let key = ChannelKey { conn, channel };
                                // GetStats is answered inline, right here
                                // in the decode loop — it never rides a
                                // worker queue, so a saturated pool (the
                                // very situation worth inspecting) cannot
                                // delay or drop the answer: stats work
                                // mid-load, on any channel, v1 or v2.
                                if let WireCommand::GetStats { detail } = cmd {
                                    let mut snap = metrics.snapshot();
                                    // detail=2 adds the trace plane: the
                                    // span dump *drains* (each span is
                                    // reported once).
                                    if detail >= 2 {
                                        snap.spans = metrics.spans().drain();
                                    }
                                    push_response(
                                        c,
                                        metrics,
                                        channel,
                                        &WireResponse::StatsReport {
                                            payload: snap.encode(),
                                        },
                                    );
                                    continue;
                                }
                                // CloseChannel retires the channel: its
                                // `max_channels` slot frees immediately and
                                // its `Job::Close` rides the shard queue in
                                // FIFO order, so a later reuse of the id
                                // (a fresh Open) is ordered behind the
                                // close. Unknown channel: idempotent no-op.
                                if matches!(cmd, WireCommand::CloseChannel) {
                                    if let Some(ch) = c.channels.remove(&channel) {
                                        if enqueue(
                                            &mut c.stalled,
                                            senders,
                                            metrics,
                                            ch.shard,
                                            Job::Close { key },
                                        )
                                        .is_err()
                                        {
                                            alive = false;
                                            break 'outer;
                                        }
                                        c.early_closes += 1;
                                        metrics.channels_current.fetch_sub(1, Ordering::Relaxed);
                                        metrics.channels_closed.fetch_add(1, Ordering::Relaxed);
                                    }
                                    continue;
                                }
                                let starts_document = matches!(cmd, WireCommand::Size { .. });
                                // A shed channel's document was already
                                // answered with a fault: discard its
                                // remaining frames; only the next Size
                                // re-arms the channel.
                                if !starts_document
                                    && c.channels.get(&channel).is_some_and(|ch| ch.shed)
                                {
                                    continue;
                                }
                                let shard = match c.channels.get_mut(&channel) {
                                    Some(ch) => {
                                        ch.shed = false;
                                        ch.shard
                                    }
                                    None => {
                                        if c.channels.len() >= cfg.max_channels {
                                            fail_malformed(
                                                c,
                                                metrics,
                                                format!(
                                                    "channel limit ({}) exceeded",
                                                    cfg.max_channels
                                                ),
                                            );
                                            break 'outer;
                                        }
                                        let shard = key.shard(senders.len());
                                        c.channels.insert(
                                            channel,
                                            Channel {
                                                shard,
                                                close: CloseState::Open,
                                                shed: false,
                                            },
                                        );
                                        let current = metrics
                                            .channels_current
                                            .fetch_add(1, Ordering::Relaxed)
                                            + 1;
                                        metrics.channels_peak.fetch_max(current, Ordering::Relaxed);
                                        let sink = ResponseSink::new(
                                            Arc::clone(&c.out),
                                            Arc::clone(waker),
                                            Arc::clone(metrics),
                                            conn,
                                            channel,
                                        );
                                        if enqueue(
                                            &mut c.stalled,
                                            senders,
                                            metrics,
                                            shard,
                                            Job::Open { key, sink },
                                        )
                                        .is_err()
                                        {
                                            alive = false;
                                            break 'outer;
                                        }
                                        shard
                                    }
                                };
                                // Chaos payload corruption: flip one byte
                                // of a Data payload, framing intact — the
                                // end-to-end XOR checksum must catch it.
                                let corrupt_at = match (plan.as_ref(), &cmd) {
                                    (Some(p), WireCommand::Data(payload))
                                        if !payload.is_empty() =>
                                    {
                                        p.fire_sized(FaultSite::CorruptPayload, payload.len())
                                    }
                                    _ => None,
                                };
                                let cmd = match (corrupt_at, cmd) {
                                    (Some(at), WireCommand::Data(payload)) => {
                                        metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                                        let mut raw = Vec::with_capacity(payload.len());
                                        for piece in payload.pieces() {
                                            raw.extend_from_slice(piece);
                                        }
                                        // lint: allow(panic, reason = "FaultPlan::fire_sized contracts to return an index below the bound it was given")
                                        raw[at] ^= 0x01;
                                        WireCommand::Data(raw.into())
                                    }
                                    (_, cmd) => cmd,
                                };
                                if starts_document {
                                    // Drain: new documents are refused with
                                    // ShuttingDown (in the document's own
                                    // response slot); in-flight documents
                                    // keep flowing to completion.
                                    // ordering: Acquire pairs with drain()'s
                                    // Release store; a shed decision is a
                                    // one-way latch, no other flag rides on
                                    // its ordering.
                                    if drain.load(Ordering::Acquire) {
                                        if let Some(ch) = c.channels.get_mut(&channel) {
                                            ch.shed = true;
                                        }
                                        metrics.drain_shed.fetch_add(1, Ordering::Relaxed);
                                        push_response(
                                            c,
                                            metrics,
                                            channel,
                                            &WireResponse::Error {
                                                code: ErrorCode::ShuttingDown,
                                                detail: "server draining for shutdown".into(),
                                            },
                                        );
                                        continue;
                                    }
                                    if c.stalled.is_empty() {
                                        // lint: allow(panic, reason = "shard is assigned modulo the worker count at channel setup")
                                        match senders[shard].try_send(Job::Command {
                                            key,
                                            cmd,
                                            enqueued: Instant::now(),
                                            parked: false,
                                        }) {
                                            Ok(()) => {
                                                if let Some(sc) = metrics.shard(shard) {
                                                    sc.note_enqueued();
                                                }
                                            }
                                            Err(TrySendError::Full(job)) => {
                                                // Overload shedding fires
                                                // only under *dual*
                                                // saturation — shard queue
                                                // full AND outbound over
                                                // high water. A full shard
                                                // alone is ordinary
                                                // backpressure: park and
                                                // let TCP push back.
                                                let out_len =
                                                    c.out.lock().map(|i| i.buf.len()).unwrap_or(0);
                                                if out_len > cfg.outbound_high_water {
                                                    if let Some(ch) = c.channels.get_mut(&channel) {
                                                        ch.shed = true;
                                                    }
                                                    metrics
                                                        .busy_shed
                                                        .fetch_add(1, Ordering::Relaxed);
                                                    push_response(
                                                        c,
                                                        metrics,
                                                        channel,
                                                        &WireResponse::Error {
                                                            code: ErrorCode::Busy,
                                                            detail:
                                                                "server saturated; document shed"
                                                                    .into(),
                                                        },
                                                    );
                                                } else {
                                                    note_parked(metrics, shard);
                                                    let mut job = job;
                                                    mark_parked(&mut job);
                                                    c.stalled.push_back((shard, job));
                                                }
                                            }
                                            Err(TrySendError::Disconnected(_)) => {
                                                alive = false;
                                                break 'outer;
                                            }
                                        }
                                    } else {
                                        // A parked Open precedes this Size:
                                        // FIFO order is sacred.
                                        note_parked(metrics, shard);
                                        c.stalled.push_back((
                                            shard,
                                            Job::Command {
                                                key,
                                                cmd,
                                                enqueued: Instant::now(),
                                                parked: true,
                                            },
                                        ));
                                    }
                                } else if enqueue(
                                    &mut c.stalled,
                                    senders,
                                    metrics,
                                    shard,
                                    Job::Command {
                                        key,
                                        cmd,
                                        enqueued: Instant::now(),
                                        parked: false,
                                    },
                                )
                                .is_err()
                                {
                                    alive = false;
                                    break 'outer;
                                }
                            }
                            Err(e) => {
                                fail_malformed(c, metrics, e.to_string());
                                break 'outer;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        fail_malformed(c, metrics, e.to_string());
                        break 'outer;
                    }
                }
            }
            if !c.stalled.is_empty() || c.in_masked || !c.read_ready || budget == 0 {
                break;
            }
            // Chaos short read: clamp this pass's read size to a few
            // bytes, splitting frames at arbitrary boundaries — the rope
            // accumulator must reassemble them bit-exactly.
            let clamp = plan.as_ref().and_then(|p| {
                p.fire_sized(FaultSite::ShortRead, cfg.read_buffer.saturating_sub(1))
            });
            let cap = match clamp {
                Some(amount) => {
                    metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                    amount + 1
                }
                None => cfg.read_buffer,
            };
            metrics.read_syscalls.fetch_add(1, Ordering::Relaxed);
            match c.acc.fill_from(&mut c.stream, cap) {
                Ok(Fill { bytes: 0, .. }) => {
                    // Clean close — unless it cut a frame in half.
                    if c.acc.mid_frame() {
                        metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    c.read_eof = true;
                    break;
                }
                Ok(Fill { bytes, short }) => {
                    budget = budget.saturating_sub(bytes);
                    // The receive queue is empty: decode what arrived and
                    // wait for the next edge instead of reading again into
                    // `WouldBlock`. A chaos clamp the read filled is not
                    // short.
                    if short && !c.peer_closed {
                        c.read_ready = false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    c.read_ready = false;
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        // A frame still mid-reassembly at the end of a read pass is a
        // short-read continuation: it will complete only on a later read.
        if c.acc.mid_frame() && !c.read_eof {
            metrics
                .short_read_continuations
                .fetch_add(1, Ordering::Relaxed);
        }
        // Fold the rope's copy accounting into the shared metrics: data
        // frames decoded, and payloads copied (structurally zero on this
        // path — the e2e tests assert it stays that way).
        let frames = c.acc.data_frames();
        metrics
            .data_frames
            .fetch_add(frames - c.data_frames_reported, Ordering::Relaxed);
        c.data_frames_reported = frames;
        let copies = c.acc.payload_copies();
        metrics
            .payload_copies
            .fetch_add(copies - c.payload_copies_reported, Ordering::Relaxed);
        c.payload_copies_reported = copies;
        alive
    }

    /// Once the peer's write half is done and every buffered frame has
    /// been decoded, issue `Job::Close` for each of the connection's
    /// channels (ordered behind any parked jobs, so per-channel FIFO
    /// holds). `false` means the pool is gone: tear down.
    fn enqueue_closes(&mut self, conn: u64) -> bool {
        let Self {
            senders,
            conns,
            metrics,
            ..
        } = self;
        let Some(c) = conns.get_mut(&conn) else {
            return true;
        };
        if !c.read_eof || c.closes_enqueued {
            return true;
        }
        // Split borrow: `stalled` and `channels` are disjoint fields, so
        // iterating the map entries directly while parking into `stalled`
        // needs no second lookup (the old key-list-then-`get_mut` shape
        // ended in an `.expect()` on the reactor hot path).
        let Conn {
            channels, stalled, ..
        } = c;
        // Deterministic order keeps behaviour reproducible under test.
        let mut entries: Vec<(u16, &mut Channel)> =
            channels.iter_mut().map(|(ch, st)| (*ch, st)).collect();
        entries.sort_unstable_by_key(|(ch, _)| *ch);
        for (channel, ch) in entries {
            let key = ChannelKey { conn, channel };
            match enqueue(stalled, senders, metrics, ch.shard, Job::Close { key }) {
                Ok(true) => ch.close = CloseState::Sent,
                Ok(false) => ch.close = CloseState::Queued,
                Err(()) => return false,
            }
        }
        c.closes_enqueued = true;
        true
    }

    /// Every channel's worker confirmed its `Close` and the last response
    /// left the socket: this connection is complete.
    fn finished(&self, conn: u64) -> bool {
        let Some(c) = self.conns.get(&conn) else {
            return false;
        };
        if !(c.read_eof && c.closes_enqueued) {
            return false;
        }
        if c.channels.values().any(|ch| ch.close != CloseState::Sent) {
            return false;
        }
        match c.out.lock() {
            Ok(inner) => {
                inner.finished_channels == c.channels.len() as u64 + c.early_closes
                    && inner.buf.is_empty()
            }
            Err(_) => true,
        }
    }

    /// Reset connections whose outbound queue has accepted nothing past
    /// the slow-consumer deadline: the head-of-line fix — a peer that
    /// will not read is disconnected instead of parking queued responses,
    /// an fd, and a `max_connections` slot forever.
    fn scan_deadlines(&mut self, now: Instant) {
        let deadline = self.cfg.slow_consumer_deadline;
        let overdue: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.over_since
                    .is_some_and(|since| now.duration_since(since) > deadline)
            })
            .map(|(&conn, _)| conn)
            .collect();
        for conn in overdue {
            self.metrics
                .slow_consumer_resets
                .fetch_add(1, Ordering::Relaxed);
            self.teardown(conn);
        }
    }

    /// Remove a connection: mark its queue dead (late worker enqueues are
    /// dropped), deliver any still-owed channel `Close`s, close the
    /// socket.
    fn teardown(&mut self, conn: u64) {
        let Some(c) = self.conns.remove(&conn) else {
            return;
        };
        if let Ok(mut inner) = c.out.lock() {
            inner.dead = true;
            inner.buf.clear();
            inner.stamps.clear(); // their responses never reached the peer
            inner.stream = None; // drop the dup so the fd really closes
        }
        let _ = self.epoll.delete(c.stream.as_raw_fd());
        // Parked Closes (early channel retirements and EOF closes whose
        // table entry reads Queued) are delivered from the stalled queue;
        // other parked jobs die with the connection.
        for (shard, job) in c.stalled {
            // lint: allow(panic, reason = "stalled entries only ever store shards assigned modulo the worker count")
            if matches!(job, Job::Close { .. }) && self.senders[shard].send(job).is_ok() {
                if let Some(sc) = self.metrics.shard(shard) {
                    sc.note_enqueued();
                }
            }
        }
        for (&channel, ch) in &c.channels {
            if ch.close == CloseState::Open {
                // Blocking send: bounded by worker compute (workers never
                // block on I/O), and per-channel order needs Close last.
                // lint: allow(panic, reason = "ch.shard is assigned modulo the worker count at channel setup")
                let sent = self.senders[ch.shard].send(Job::Close {
                    key: ChannelKey { conn, channel },
                });
                if sent.is_ok() {
                    if let Some(sc) = self.metrics.shard(ch.shard) {
                        sc.note_enqueued();
                    }
                }
            }
        }
        self.metrics
            .channels_current
            .fetch_sub(c.channels.len() as u64, Ordering::Relaxed);
        self.metrics
            .connections_current
            .fetch_sub(1, Ordering::Relaxed);
        // Dropping the stream closes the fd.
    }

    /// Shutdown: drop every connection, and un-count accepts still parked
    /// in the wake queue that never got registered.
    fn teardown_all(&mut self) {
        let conns: Vec<u64> = self.conns.keys().copied().collect();
        for conn in conns {
            self.teardown(conn);
        }
        let (orphans, _) = self.waker.take();
        for _ in orphans {
            self.metrics
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The peer sent bytes that do not decode: answer with the fault, stop
/// reading, and let the flush-then-teardown path close the connection.
fn fail_malformed(c: &mut Conn, metrics: &ServiceMetrics, detail: String) {
    metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let mut bytes = Vec::with_capacity(64);
    let resp = WireResponse::Error {
        code: ErrorCode::MalformedFrame,
        detail,
    };
    if resp.encode(&mut bytes).is_ok() {
        if let Ok(mut inner) = c.out.lock() {
            if !inner.dead {
                inner.push_frame(bytes, None);
                metrics
                    .outbound_queue_peak
                    .fetch_max(inner.buf.len() as u64, Ordering::Relaxed);
            }
        }
    }
    c.read_eof = true;
}

/// Queue a channel-tagged response produced by the reactor itself (Busy
/// and ShuttingDown faults): unlike [`fail_malformed`] the connection
/// keeps flowing — only the one document was refused, in its own response
/// slot. The enclosing service pass's trailing flush sends it.
fn push_response(c: &mut Conn, metrics: &ServiceMetrics, channel: u16, resp: &WireResponse) {
    let mut bytes = Vec::with_capacity(64);
    if resp.encode_on(channel, &mut bytes).is_ok() {
        if let Ok(mut inner) = c.out.lock() {
            if !inner.dead {
                inner.push_frame(bytes, None);
                metrics
                    .outbound_queue_peak
                    .fetch_max(inner.buf.len() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// Chaos helper: a writer that passes through `remaining` bytes and then
/// reports `WouldBlock`, simulating a kernel send buffer with almost no
/// room so partial-write resumption gets exercised on demand.
struct ClippedWriter<'a, W> {
    inner: &'a mut W,
    remaining: usize,
}

impl<W: std::io::Write> std::io::Write for ClippedWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.remaining);
        // lint: allow(panic, reason = "n is min(buf.len(), remaining), so the slice end is in bounds")
        let written = self.inner.write(&buf[..n])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
