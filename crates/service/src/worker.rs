//! The sharded classification worker pool.
//!
//! N workers, each holding an `Arc` of the one programmed
//! [`MultiLanguageClassifier`] (the replicated match engines of §3.3 —
//! same filters, independent execution). The unit of placement is the
//! **channel**, not the connection: a [`ChannelKey`] — `(connection,
//! channel id)` — hashes to the worker `key.shard(N)`, so one multiplexed
//! connection's channels fan out across the whole pool (a v1 connection is
//! exactly one channel, channel 0). Each channel's streaming state lives
//! on one shard and per-channel command order holds because a channel's
//! jobs all flow through its one shard queue in FIFO order. Queues are
//! **bounded**: when a worker falls behind, the reactor's `try_send`
//! fails, that one connection stops being read, and backpressure reaches
//! its client through TCP flow control — the network image of the DMA
//! engine refusing words it has no buffer for.
//!
//! Workers never touch sockets. A response is an enqueue onto the owning
//! connection's outbound queue ([`ResponseSink::send`]), tagged with the
//! channel, plus an eventfd nudge to the reactor that owns the socket, so
//! a peer that stops reading cannot wedge a worker — the head-of-line
//! hazard of the threaded design. The watchdog is likewise worker-driven:
//! between jobs (or every `recv_timeout` tick) the worker sweeps its
//! channel sessions for transfers stalled past the period and emits the
//! reset notice itself.
//!
//! **Self-healing.** A classifier bug (or an injected chaos panic) must
//! not kill a shard forever — that was the pre-chaos failure mode: the
//! thread dies, every channel hashed to it goes silent, and the only
//! recovery is a restart. Two layers fix it:
//!
//! 1. *Per-document unwind guard.* `Session::apply` runs under
//!    `catch_unwind`; a panic costs exactly one document — the session is
//!    replaced (quarantined into the draining state so the poisoned
//!    document's leftover frames are discarded) and the client gets a
//!    channel-tagged `EngineFault` response in that document's slot
//!    (`worker_panics`) — unless the document already has its one
//!    response (the panic hit a frame the quarantine was discarding).
//! 2. *Shard respawn.* The shard's sessions map and job receiver live
//!    outside the thread (in `ShardState`, shared `Arc`s), so if a
//!    panic ever escapes the guard the thread dies but the shard's state
//!    survives. A pool supervisor reaps the dead thread, answers the
//!    document whose apply was in flight (if any) with an `EngineFault`,
//!    and respawns the thread onto the same state (`worker_restarts`) —
//!    queued jobs, open sessions, and response sinks all carry over.

use lc_core::MultiLanguageClassifier;
use lc_wire::{ErrorCode, WireCommand, WireResponse};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chaos::{FaultPlan, FaultSite};
use crate::metrics::ServiceMetrics;
use crate::outbound::ResponseSink;
use crate::session::Session;
use crate::trace::FAULT_WORKER_DELAY;

/// Respawn budget per pool: far above anything a real incident produces,
/// low enough that a deterministic crash loop (a panic on the very job
/// that respawn re-delivers) cannot burn CPU forever.
const MAX_RESPAWNS: u64 = 64;

/// One channel's identity: the connection it rides and its channel id
/// within that connection (0 for legacy v1 peers). Hashing the pair picks
/// the worker shard, so channels of one connection spread across engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChannelKey {
    /// Connection (session) id assigned at accept.
    pub conn: u64,
    /// Channel id within the connection.
    pub channel: u16,
}

impl ChannelKey {
    /// The worker shard this channel is pinned to: a splitmix64-style
    /// finalizer over `(conn, channel)` so consecutive channel ids on one
    /// connection land on well-spread shards.
    pub fn shard(self, workers: usize) -> usize {
        let mut x = self
            .conn
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(self.channel));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % workers.max(1) as u64) as usize
    }
}

/// One unit of work for a worker. The *watchdog* clock is the worker's
/// dequeue stamp, not the reactor's read: a command that waited out a
/// queue backlog cannot carry a stale clock that makes its own healthy
/// session look watchdog-dead. Commands also carry the reactor's
/// *enqueue* stamp: a Size's is its document's accept edge, and each
/// frame's dequeue minus enqueue is its queue wait.
#[derive(Debug)]
pub enum Job {
    /// Register a channel session and its response sink.
    Open {
        /// The channel (also selects the worker shard).
        key: ChannelKey,
        /// The owning connection's outbound queue + reactor wake handle,
        /// tagged with this channel.
        sink: ResponseSink,
    },
    /// Apply a decoded command to a channel session.
    Command {
        /// The channel.
        key: ChannelKey,
        /// The command.
        cmd: WireCommand,
        /// When the reactor enqueued the job (shard-enqueue stamp); the
        /// worker's dequeue time minus this is the command's queue-wait,
        /// folded into the owning document's stage histogram.
        enqueued: Instant,
        /// The reactor parked this command before it fit into the shard
        /// queue (backpressure); annotates the owning document's span.
        parked: bool,
    },
    /// Connection closed (or the channel is being torn down): drop the
    /// session and finish its sink.
    Close {
        /// The channel.
        key: ChannelKey,
    },
}

/// The part of a shard that must survive its thread: sessions (with their
/// response sinks — losing a sink strands a channel's close accounting),
/// the job receiver (losing it disconnects the reactors), and the key
/// whose apply is in flight (the quarantine target after a thread death).
#[derive(Debug)]
struct ShardState {
    index: usize,
    sessions: Mutex<HashMap<ChannelKey, (Session, ResponseSink)>>,
    rx: Mutex<Receiver<Job>>,
    current: Mutex<Option<InFlight>>,
}

/// The command a shard is applying, as much of it as a panic needs.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    key: ChannelKey,
    /// The command's document is still owed its response
    /// ([`owes_response`]).
    owed: bool,
    /// The announced bytes and trace context when the command is a Size
    /// (see [`Session::poisoned_record`]).
    size: Option<(u32, Option<u64>)>,
}

/// Whether a panic applying `cmd` to `s` must be answered with an
/// `EngineFault`: exactly when the panicking command's document is still
/// owed its one response. A Size begins a new document, so it always is.
/// A draining session's frames belong to a document that was already
/// answered (a fault or watchdog notice took its slot), and a Reset has
/// no response slot at all: a fault for either would be a second answer,
/// and the client, pairing responses in FIFO order per channel, would
/// hand it to the next document.
fn owes_response(s: &Session, cmd: &WireCommand) -> bool {
    match cmd {
        WireCommand::Size { .. } => true,
        WireCommand::Reset => false,
        _ => !s.draining(),
    }
}

/// Everything a shard thread (or its respawn) needs, shared pool-wide.
#[derive(Debug)]
struct PoolRuntime {
    classifier: Arc<MultiLanguageClassifier>,
    metrics: Arc<ServiceMetrics>,
    watchdog: Duration,
    tick: Duration,
    chaos: Option<Arc<FaultPlan>>,
}

impl PoolRuntime {
    /// A fresh session attached to `shard` and the channel `key`.
    fn fresh_session(&self, shard: usize, key: ChannelKey) -> Session {
        let mut s = Session::new(&self.classifier, self.watchdog, Instant::now());
        s.attach(shard, key.conn, key.channel);
        s
    }

    /// A panic unwound mid-apply of `in_flight`: the session state is
    /// unknowable. Replace the session with a quarantined one. When the
    /// document is owed a response, copy its record out and answer it in
    /// its slot with an `EngineFault` carrying that record; otherwise its
    /// one response is already out, and the quarantine is silent.
    fn replace_poisoned(
        &self,
        shard: usize,
        in_flight: InFlight,
        s: &mut Session,
        sink: &ResponseSink,
        detail: &str,
    ) {
        let record = in_flight
            .owed
            .then(|| s.poisoned_record(in_flight.size, Instant::now()));
        let mut fresh = self.fresh_session(shard, in_flight.key);
        fresh.quarantine();
        *s = fresh;
        if let Some(record) = record {
            sink.send(
                &WireResponse::Error {
                    code: ErrorCode::EngineFault,
                    detail: detail.into(),
                },
                record,
            );
        }
    }
}

/// A panicked `Mutex` holder cannot corrupt a `HashMap` or a `Receiver`
/// into unsafety — the state is replaced or resumed deliberately — so
/// poisoning is noise here: take the guard either way.
fn unpoisoned<'a, T: ?Sized>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Death notice: sent (via `Drop`, so a panic cannot skip it) when a shard
/// thread exits, flagging whether it exited by panic.
struct Obituary {
    index: usize,
    tx: Sender<(usize, bool)>,
}

impl Drop for Obituary {
    fn drop(&mut self) {
        let _ = self.tx.send((self.index, std::thread::panicking()));
    }
}

fn spawn_shard(
    index: usize,
    generation: u64,
    shard: Arc<ShardState>,
    rt: Arc<PoolRuntime>,
    obituary: Sender<(usize, bool)>,
) -> std::io::Result<JoinHandle<()>> {
    let name = if generation == 0 {
        format!("lc-worker-{index}")
    } else {
        format!("lc-worker-{index}.{generation}")
    };
    std::thread::Builder::new().name(name).spawn(move || {
        let _notice = Obituary {
            index,
            tx: obituary,
        };
        run_shard(&shard, &rt);
    })
}

/// The shard loop. Returns on pool shutdown (every sender dropped); exits
/// by panic only if one escapes the per-document guard — the supervisor
/// respawns onto the same [`ShardState`] then.
fn run_shard(shard: &ShardState, rt: &PoolRuntime) {
    let rx = unpoisoned(shard.rx.lock());
    let mut last_sweep = Instant::now();
    loop {
        match rx.recv_timeout(rt.tick) {
            Ok(job) => {
                let dequeued = Instant::now();
                if let Some(sc) = rt.metrics.shard(shard.index) {
                    sc.note_dequeued();
                }
                let mut sessions = unpoisoned(shard.sessions.lock());
                match job {
                    Job::Open { key, sink } => {
                        sessions.insert(key, (rt.fresh_session(shard.index, key), sink));
                    }
                    Job::Command {
                        key,
                        cmd,
                        enqueued,
                        parked,
                    } => {
                        if let Some((s, sink)) = sessions.get_mut(&key) {
                            s.note_job(enqueued, parked);
                            if let Some(plan) = &rt.chaos {
                                if plan.fire(FaultSite::WorkerDelay) {
                                    std::thread::sleep(plan.worker_delay());
                                    // The document still classifies; the
                                    // annotation keeps its span.
                                    s.trace_fault(FAULT_WORKER_DELAY);
                                }
                            }
                            // A Size that panics still names the document
                            // it began.
                            let in_flight = InFlight {
                                key,
                                owed: owes_response(s, &cmd),
                                size: match &cmd {
                                    WireCommand::Size { bytes, trace, .. } => {
                                        Some((*bytes, *trace))
                                    }
                                    _ => None,
                                },
                            };
                            *unpoisoned(shard.current.lock()) = Some(in_flight);
                            let applied = catch_unwind(AssertUnwindSafe(|| {
                                if let Some(plan) = &rt.chaos {
                                    if plan.fire(FaultSite::WorkerPanic) {
                                        rt.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                                        panic!("chaos: injected worker panic");
                                    }
                                }
                                s.apply(&rt.classifier, &rt.metrics, cmd, dequeued)
                            }));
                            *unpoisoned(shard.current.lock()) = None;
                            if let Some(sc) = rt.metrics.shard(shard.index) {
                                sc.busy_ns.fetch_add(
                                    dequeued.elapsed().as_nanos() as u64,
                                    Ordering::Relaxed,
                                );
                            }
                            match applied {
                                Ok(Some(resp)) => sink.send(&resp, s.record()),
                                Ok(None) => {}
                                Err(_) => {
                                    rt.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                                    rt.replace_poisoned(
                                        shard.index,
                                        in_flight,
                                        s,
                                        sink,
                                        "worker panicked mid-document; session reset",
                                    );
                                }
                            }
                        }
                    }
                    Job::Close { key } => {
                        if let Some((_, sink)) = sessions.remove(&key) {
                            sink.finish();
                        }
                    }
                }
                drop(sessions);
                // Chaos thread kill fires *between* jobs (the received job
                // was fully processed, so no command is lost): the clean
                // respawn path, exercised by the soak test.
                if let Some(plan) = &rt.chaos {
                    if plan.kill_now() {
                        rt.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
                        panic!("chaos: killing worker thread");
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = Instant::now();
        if now.duration_since(last_sweep) >= rt.tick {
            last_sweep = now;
            let mut sessions = unpoisoned(shard.sessions.lock());
            for (s, sink) in sessions.values_mut() {
                if let Some(resp) = s.tick(&rt.metrics, now) {
                    sink.send(&resp, s.record());
                }
            }
        }
    }
}

/// Reap dead shard threads and respawn panicked ones onto their surviving
/// [`ShardState`]. Exits when every shard has exited cleanly (shutdown).
fn supervise(
    mut handles: Vec<Option<JoinHandle<()>>>,
    shards: Vec<Arc<ShardState>>,
    rt: Arc<PoolRuntime>,
    obituary_tx: Sender<(usize, bool)>,
    obituary_rx: Receiver<(usize, bool)>,
) {
    let mut alive = handles.len();
    let mut respawns = 0u64;
    while alive > 0 {
        let Ok((index, panicked)) = obituary_rx.recv() else {
            break;
        };
        if let Some(h) = handles[index].take() {
            let _ = h.join(); // reap; the panic payload is not interesting
        }
        if !panicked {
            alive -= 1;
            continue;
        }
        rt.metrics.worker_restarts.fetch_add(1, Ordering::Relaxed);
        let shard = &shards[index];
        // If an apply was in flight when the thread died, that document's
        // session is poisoned: same quarantine treatment as the in-thread
        // guard, with a fault only if the document is still owed one.
        if let Some(in_flight) = unpoisoned(shard.current.lock()).take() {
            let mut sessions = unpoisoned(shard.sessions.lock());
            if let Some((s, sink)) = sessions.get_mut(&in_flight.key) {
                rt.replace_poisoned(
                    index,
                    in_flight,
                    s,
                    sink,
                    "worker thread died mid-document; shard respawned",
                );
            }
        }
        respawns += 1;
        if respawns > MAX_RESPAWNS {
            eprintln!("lc-service: worker {index} exceeded the respawn budget; shard abandoned");
            alive -= 1;
            continue;
        }
        match spawn_shard(
            index,
            respawns,
            Arc::clone(shard),
            Arc::clone(&rt),
            obituary_tx.clone(),
        ) {
            Ok(h) => handles[index] = Some(h),
            Err(e) => {
                eprintln!("lc-service: failed to respawn worker {index}: {e}; shard abandoned");
                alive -= 1;
            }
        }
    }
}

/// The pool: bounded queues in, supervised worker threads out.
#[derive(Debug)]
pub struct WorkerPool {
    senders: Vec<SyncSender<Job>>,
    supervisor: Option<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads sharing `classifier`, plus the supervisor
    /// that respawns any shard whose thread dies by panic. Thread-spawn
    /// failure (resource exhaustion) is a startup error, not a panic: the
    /// threads already started are shut down cleanly before returning it.
    pub fn new(
        classifier: Arc<MultiLanguageClassifier>,
        metrics: Arc<ServiceMetrics>,
        workers: usize,
        queue_depth: usize,
        watchdog: Duration,
        chaos: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Self> {
        assert!(workers >= 1, "need at least one worker");
        // Sweep often enough for a timely watchdog: the tick granularity
        // bounds how late past its period the watchdog can fire.
        let tick = (watchdog / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
        let rt = Arc::new(PoolRuntime {
            classifier,
            metrics,
            watchdog,
            tick,
            chaos,
        });
        let (obituary_tx, obituary_rx) = channel();
        let mut senders = Vec::with_capacity(workers);
        let mut shards = Vec::with_capacity(workers);
        let mut handles: Vec<Option<JoinHandle<()>>> = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = sync_channel::<Job>(queue_depth.max(1));
            let shard = Arc::new(ShardState {
                index: i,
                sessions: Mutex::new(HashMap::new()),
                rx: Mutex::new(rx),
                current: Mutex::new(None),
            });
            match spawn_shard(
                i,
                0,
                Arc::clone(&shard),
                Arc::clone(&rt),
                obituary_tx.clone(),
            ) {
                Ok(h) => {
                    senders.push(tx);
                    shards.push(shard);
                    handles.push(Some(h));
                }
                Err(e) => {
                    // Unwind: dropping the senders disconnects the spawned
                    // threads; join them so nothing leaks past the error.
                    drop(tx);
                    drop(senders);
                    for h in handles.into_iter().flatten() {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        let supervisor = std::thread::Builder::new()
            .name("lc-worker-supervisor".into())
            .spawn(move || supervise(handles, shards, rt, obituary_tx, obituary_rx));
        let supervisor = match supervisor {
            Ok(h) => h,
            Err(e) => {
                drop(senders);
                // The shard threads exit on disconnect; without a
                // supervisor nobody joins them, but they hold nothing that
                // outlives the error return. Still: fail loudly.
                return Err(e);
            }
        };
        Ok(Self {
            senders,
            supervisor: Some(supervisor),
        })
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// One sender clone per worker, in shard order; the reactors pick the
    /// shard as [`ChannelKey::shard`].
    pub(crate) fn senders(&self) -> Vec<SyncSender<Job>> {
        self.senders.clone()
    }

    /// Drop the pool's own senders and join via the supervisor. Workers
    /// exit once every reactor's sender clone is gone too.
    pub fn shutdown(mut self) {
        drop(std::mem::take(&mut self.senders));
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_keys_spread_one_connection_across_shards() {
        // The whole point of multiplexing: channels of a single connection
        // must fan out over the pool, not pile onto one engine.
        for conn in [0u64, 1, 7, 42, 1_000_003] {
            let shards: std::collections::HashSet<usize> = (0..16u16)
                .map(|channel| ChannelKey { conn, channel }.shard(4))
                .collect();
            assert!(
                shards.len() >= 3,
                "conn {conn}: 16 channels hit only {} of 4 shards",
                shards.len()
            );
        }
    }

    #[test]
    fn shard_is_stable_and_in_range() {
        for conn in 0..50u64 {
            for channel in 0..8u16 {
                let key = ChannelKey { conn, channel };
                let s = key.shard(3);
                assert!(s < 3);
                assert_eq!(s, key.shard(3), "must be deterministic");
            }
        }
        assert_eq!(
            ChannelKey {
                conn: 9,
                channel: 0
            }
            .shard(1),
            0
        );
    }
}
