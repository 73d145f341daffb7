//! Blocking client for the classification service.
//!
//! Speaks the host side of the Size/Data/EoD/QueryResult flow: announce the
//! document, stream its words in bounded bursts, latch, query, and verify
//! the echoed XOR checksum against the locally computed one (the paper's
//! transfer-validation step, performed by the host).
//!
//! [`ClassifyClient::classify_many`] pipelines: it keeps a bounded window
//! of documents in flight on the one connection (the protocol consumes
//! the latch in order, so responses pair with documents positionally),
//! which measures engine capacity rather than round-trip latency and is
//! what the high-concurrency tests and the benchmark drive.
//!
//! [`ClassifyClient::classify_many_mux`] goes further: it **multiplexes**
//! the pipeline over wire-v2 channels ([`ClassifyClient::open_channel`]),
//! so one connection's documents fan out across all of the server's
//! worker shards instead of a single engine — the fat-pipe ceiling lifted.
//! Responses come back channel-tagged in per-channel submit order (the
//! cross-channel interleaving is arbitrary); the client demultiplexes and
//! returns results in document order, each checksum-verified.

use crate::metrics::MetricsSnapshot;
use lc_core::ClassificationResult;
use lc_wire::{
    read_frame, read_frame_mux, write_data_frame_on, ErrorCode, FrameError, WireCommand,
    WireResponse,
};
use std::collections::VecDeque;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::RangeInclusive;
use std::time::Duration;

/// Words per Data frame when streaming (64 KiB payloads).
const CHUNK_WORDS: usize = 8 * 1024;

/// How a hardened client rides out an unreliable server: socket timeouts,
/// a reconnect budget with exponential backoff, and a per-document retry
/// budget for faults the server says are transient (`EngineFault`, `Busy`,
/// `WatchdogReset`) or the checksum says are corruption.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// TCP connect timeout; `None` blocks indefinitely.
    pub connect_timeout: Option<Duration>,
    /// Socket read/write timeout; `None` blocks indefinitely. A timeout
    /// mid-frame desyncs the stream, so any timed-out operation is
    /// followed by a reconnect, never a bare retry.
    pub io_timeout: Option<Duration>,
    /// Reconnect attempts per hardened call before the remaining documents
    /// are failed outright.
    pub max_reconnects: u32,
    /// Resubmissions per document for retriable faults before the fault is
    /// surfaced as that document's outcome.
    pub max_doc_retries: u32,
    /// First backoff step; doubles per consecutive attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(2)),
            io_timeout: Some(Duration::from_secs(2)),
            max_reconnects: 8,
            max_doc_retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (1-based): `base * 2^(attempt-1)`,
    /// capped at [`RetryPolicy::backoff_max`].
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        (self.backoff_base * (1u32 << exp)).min(self.backoff_max)
    }

    /// Whether a server fault is worth resubmitting the document for.
    fn retriable(code: ErrorCode) -> bool {
        matches!(
            code,
            ErrorCode::EngineFault | ErrorCode::Busy | ErrorCode::WatchdogReset
        )
    }
}

/// Everything the engine returns for one document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedResult {
    /// Per-language counters + total n-grams.
    pub result: ClassificationResult,
    /// XOR checksum echoed by the engine (already verified by the client).
    pub checksum: u64,
    /// Engine status bit.
    pub valid: bool,
}

/// Client-visible failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The engine answered with a protocol fault.
    Remote {
        /// Fault class.
        code: ErrorCode,
        /// Engine-provided detail.
        detail: String,
    },
    /// Transfer corruption: the engine's checksum of what it received does
    /// not match the checksum of what was sent.
    ChecksumMismatch {
        /// Checksum of the words the client sent.
        sent: u64,
        /// Checksum the engine echoed.
        received: u64,
    },
    /// The engine said something the protocol does not allow here.
    UnexpectedResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Remote { code, detail } if detail.is_empty() => {
                write!(f, "engine fault: {code}")
            }
            ClientError::Remote { code, detail } => {
                write!(f, "engine fault: {code} ({detail})")
            }
            ClientError::ChecksumMismatch { sent, received } => write!(
                f,
                "transfer corrupted: sent checksum {sent:#018x}, engine saw {received:#018x}"
            ),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response: {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Io(e.into())
    }
}

/// Refuse a document the Size frame cannot announce: both Size fields
/// are `u32`, so the byte length is the binding limit.
fn check_size(len: u64) -> Result<(), ClientError> {
    if len > u64::from(u32::MAX) {
        return Err(ClientError::Io(io::Error::other(
            "document exceeds the 4 GiB Size announcement limit",
        )));
    }
    Ok(())
}

/// A connected classification client.
#[derive(Debug)]
pub struct ClassifyClient {
    stream: TcpStream,
    languages: Vec<String>,
    /// XOR checksum of the words sent for the document in flight.
    checksum: u64,
    /// Next channel id [`ClassifyClient::open_channel`] hands out.
    next_channel: u16,
    /// Peer address, kept for hardened-path reconnects.
    addr: Option<SocketAddr>,
    /// Trace id stamped on every outgoing `Size` frame (wire-v2
    /// TraceContext extension); `None` sends the v1-identical 8-byte form.
    trace_context: Option<u64>,
}

impl ClassifyClient {
    /// Connect and read the server's Hello banner.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::finish_handshake(stream)
    }

    /// Connect under a [`RetryPolicy`]: connect timeout, socket read/write
    /// timeouts. (The retry budgets only apply inside
    /// [`ClassifyClient::classify_many_mux_hardened`]; connecting itself is
    /// one attempt per resolved address.)
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: &RetryPolicy,
    ) -> Result<Self, ClientError> {
        let mut last: Option<io::Error> = None;
        for sockaddr in addr.to_socket_addrs()? {
            match Self::connect_stream(&sockaddr, policy) {
                Ok(stream) => return Self::finish_handshake(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        })))
    }

    fn connect_stream(addr: &SocketAddr, policy: &RetryPolicy) -> io::Result<TcpStream> {
        let stream = match policy.connect_timeout {
            Some(t) => TcpStream::connect_timeout(addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(policy.io_timeout)?;
        stream.set_write_timeout(policy.io_timeout)?;
        Ok(stream)
    }

    fn finish_handshake(stream: TcpStream) -> Result<Self, ClientError> {
        let addr = stream.peer_addr().ok();
        let mut client = Self {
            stream,
            languages: Vec::new(),
            checksum: 0,
            next_channel: 0,
            addr,
            trace_context: None,
        };
        match client.read_response()? {
            WireResponse::Hello { languages } => {
                client.languages = languages;
                Ok(client)
            }
            other => Err(ClientError::UnexpectedResponse(format!(
                "expected Hello banner, got {other:?}"
            ))),
        }
    }

    /// Drop the broken connection and dial the peer again (fresh socket,
    /// fresh Hello). Everything that was in flight is gone — the caller
    /// owns resubmission.
    fn reconnect(&mut self, policy: &RetryPolicy) -> Result<(), ClientError> {
        let addr = self.addr.ok_or_else(|| {
            ClientError::Io(io::Error::other("peer address unknown; cannot reconnect"))
        })?;
        let fresh = Self::connect_stream(&addr, policy)?;
        let fresh = Self::finish_handshake(fresh)?;
        self.stream = fresh.stream;
        self.languages = fresh.languages;
        self.checksum = 0;
        Ok(())
    }

    /// The programmed language names, index-aligned with result counters.
    pub fn languages(&self) -> &[String] {
        &self.languages
    }

    /// Classify one in-memory document.
    pub fn classify(&mut self, doc: &[u8]) -> Result<ServedResult, ClientError> {
        self.classify_reader(&mut io::Cursor::new(doc), doc.len() as u64)
    }

    /// Classify a document streamed from `reader` in bounded chunks; `len`
    /// must be its exact byte length (the Size announcement — the paper's
    /// protocol declares sizes up front). Memory use is O(chunk), not
    /// O(document).
    pub fn classify_reader<R: Read>(
        &mut self,
        reader: &mut R,
        len: u64,
    ) -> Result<ServedResult, ClientError> {
        check_size(len)?;
        if let Err(e) = self.send_document_on(0, reader, len, len.div_ceil(8)) {
            // The server session is mid-transfer; a Reset re-arms it so
            // this client stays usable after a local reader failure.
            let _ = WireCommand::Reset.encode(&mut self.stream);
            return Err(e);
        }
        self.take_result(0, self.checksum)
    }

    /// Classify a batch of in-memory documents over this one connection,
    /// keeping up to `window` documents in flight (a `window` of 1 is the
    /// stop-and-wait [`ClassifyClient::classify`] loop). Results come back
    /// in document order, each checksum-verified.
    pub fn classify_many(
        &mut self,
        docs: &[&[u8]],
        window: usize,
    ) -> Result<Vec<ServedResult>, ClientError> {
        self.pipeline(docs, 0..=0, window)
    }

    /// Stamp `id` as the wire-propagated trace context on every `Size`
    /// frame this client sends until cleared with `None`. The server
    /// adopts the id verbatim for the document's span (marked
    /// client-context) instead of deriving its own, so a caller-chosen id
    /// can be grepped straight out of `lcbloom trace` output.
    pub fn set_trace_context(&mut self, id: Option<u64>) {
        self.trace_context = id;
    }

    /// Hand out the next channel id from this client's counter (1, 2, …;
    /// channel 0 is the connection's implicit legacy/v1 stream). A channel
    /// is not a scarce resource to lock: the server keeps one session per
    /// id, created on its first frame and reusable for any number of
    /// documents — and `&mut self` already serializes everything on this
    /// connection. This counter is only a convenience for manual
    /// [`ClassifyClient::classify_on`] use; note that
    /// [`ClassifyClient::classify_many_mux`] always uses channels
    /// `1..=N` regardless of it (id reuse across calls is safe — every
    /// document on a channel completes before that channel's next one).
    pub fn open_channel(&mut self) -> u16 {
        self.next_channel = self
            .next_channel
            .checked_add(1)
            .expect("channel ids exhausted");
        self.next_channel
    }

    /// Retire a channel's server-side session and free its `max_channels`
    /// slot (wire-v2 `CloseChannel` control frame). Fire-and-forget by
    /// design — the server sends no acknowledgement — and idempotent on
    /// the server. The id may be reused afterwards: the server orders the
    /// reuse behind the close (per-channel frames are FIFO through one
    /// shard queue), creating a fresh session.
    pub fn close_channel(&mut self, channel: u16) -> Result<(), ClientError> {
        WireCommand::CloseChannel.encode_on(channel, &mut self.stream)?;
        Ok(())
    }

    /// Fetch the server's live metrics snapshot over the wire: a wire-v2
    /// `GetStats` control frame, answered inline by the reactor with a
    /// `StatsReport` — the request never rides a worker queue, so a
    /// saturated pool (the very situation worth inspecting) cannot delay
    /// or drop the answer. `detail` 0 and 1 answer the same counters,
    /// histograms and shard table; `detail` 2 or more also drains the
    /// server's trace spans (each span is reported once). A rate watcher
    /// asks for `detail` 0 and subtracts two snapshots
    /// ([`crate::StatsDelta`]), leaving the spans to a trace reader.
    ///
    /// Call it with no documents in flight on this connection — the report
    /// would otherwise interleave with (and be mistaken for) a document
    /// response. `lcbloom stats` uses a dedicated connection for exactly
    /// that reason.
    pub fn stats(&mut self, detail: u8) -> Result<MetricsSnapshot, ClientError> {
        let channel = self.open_channel();
        WireCommand::GetStats { detail }.encode_on(channel, &mut self.stream)?;
        self.stream.flush()?;
        let (resp_channel, resp) = self.read_response_mux()?;
        if resp_channel != channel {
            return Err(ClientError::UnexpectedResponse(format!(
                "stats report on channel {resp_channel}, expected {channel}"
            )));
        }
        match resp {
            WireResponse::StatsReport { payload } => MetricsSnapshot::decode(&payload)
                .map_err(|e| ClientError::UnexpectedResponse(format!("bad stats payload: {e}"))),
            WireResponse::Error { code, detail } => Err(ClientError::Remote { code, detail }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Classify one in-memory document on a specific channel (0 = the
    /// legacy v1 stream). Channels do not share document state, so
    /// interleaving calls across channels is the caller's pipelining.
    pub fn classify_on(&mut self, channel: u16, doc: &[u8]) -> Result<ServedResult, ClientError> {
        let len = doc.len() as u64;
        check_size(len)?;
        if let Err(e) =
            self.send_document_on(channel, &mut io::Cursor::new(doc), len, len.div_ceil(8))
        {
            let _ = WireCommand::Reset.encode_on(channel, &mut self.stream);
            return Err(e);
        }
        self.take_result(channel, self.checksum)
    }

    /// Classify a batch of in-memory documents over this one connection,
    /// **multiplexed across `channels` wire-v2 channels** with up to
    /// `window` documents in flight in total. Document `i` rides channel
    /// `(i % channels) + 1`, so consecutive documents land on different
    /// worker shards and one connection drives the whole pool. Results
    /// come back in document order, each checksum-verified.
    pub fn classify_many_mux(
        &mut self,
        docs: &[&[u8]],
        channels: u16,
        window: usize,
    ) -> Result<Vec<ServedResult>, ClientError> {
        self.pipeline(docs, 1..=channels.max(1), window)
    }

    /// The pipelined batch loop of [`ClassifyClient::classify_many`]
    /// (`lanes` = channel 0 alone) and
    /// [`ClassifyClient::classify_many_mux`] (channels `1..=N`): document
    /// `i` rides channel `lanes.start() + i % lanes.len()`, with up to
    /// `window` documents in flight in total. Results come back in
    /// document order.
    fn pipeline(
        &mut self,
        docs: &[&[u8]],
        lanes: RangeInclusive<u16>,
        window: usize,
    ) -> Result<Vec<ServedResult>, ClientError> {
        let first = *lanes.start();
        let window = window.max(1);
        // Per-channel FIFO of (document index, sent checksum): responses
        // on one channel arrive in that channel's submit order.
        let mut pending: Vec<VecDeque<(usize, u64)>> = lanes.map(|_| VecDeque::new()).collect();
        let mut results: Vec<Option<ServedResult>> = docs.iter().map(|_| None).collect();
        // The responses still owed are exactly the entries left in the
        // lanes — correct on every error path, including a fault response
        // that retired no pending document (a connection-level error
        // consumes no lane entry, so the count stays put).
        let owed = |pending: &[VecDeque<(usize, u64)>]| -> usize {
            pending.iter().map(VecDeque::len).sum()
        };
        for (i, doc) in docs.iter().enumerate() {
            let lane = i % pending.len();
            let channel = first + lane as u16;
            let len = doc.len() as u64;
            if let Err(e) = check_size(len) {
                self.drain_mux(owed(&pending));
                return Err(e);
            }
            if let Err(e) =
                self.send_document_on(channel, &mut io::Cursor::new(doc), len, len.div_ceil(8))
            {
                let _ = WireCommand::Reset.encode_on(channel, &mut self.stream);
                self.drain_mux(owed(&pending));
                return Err(e);
            }
            pending[lane].push_back((i, self.checksum));
            while owed(&pending) >= window {
                if let Err(e) = self.take_result_mux(first, &mut pending, &mut results) {
                    self.drain_mux(owed(&pending));
                    return Err(e);
                }
            }
        }
        while owed(&pending) > 0 {
            if let Err(e) = self.take_result_mux(first, &mut pending, &mut results) {
                self.drain_mux(owed(&pending));
                return Err(e);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every document got its response"))
            .collect())
    }

    /// [`ClassifyClient::classify_many_mux`], hardened for an unreliable
    /// server: every document gets exactly one outcome — a verified result
    /// or the error that finally stuck — and no single failure aborts the
    /// batch.
    ///
    /// * Retriable server faults (`EngineFault` from a worker panic,
    ///   `Busy` from overload shedding, `WatchdogReset` from a stalled
    ///   transfer) and checksum mismatches (payload corruption) resubmit
    ///   the document, up to [`RetryPolicy::max_doc_retries`] times;
    ///   `Busy` backs off exponentially first.
    /// * Transport failures (connection reset, I/O timeout, stream
    ///   desync) reconnect with exponential backoff — up to
    ///   [`RetryPolicy::max_reconnects`] per call — and resubmit every
    ///   un-acknowledged document: the per-channel FIFO lanes are exactly
    ///   the set whose responses are still owed.
    /// * Non-retriable faults (`ShuttingDown`, protocol errors) become
    ///   that document's final outcome immediately.
    ///
    /// Document `i` rides channel `(i % channels) + 1` — preserved across
    /// resubmissions, so placement stays deterministic.
    pub fn classify_many_mux_hardened(
        &mut self,
        docs: &[&[u8]],
        channels: u16,
        window: usize,
        policy: &RetryPolicy,
    ) -> Vec<Result<ServedResult, ClientError>> {
        let channels = channels.max(1);
        let window = window.max(1);
        let mut outcomes: Vec<Option<Result<ServedResult, ClientError>>> =
            docs.iter().map(|_| None).collect();
        let mut retries: Vec<u32> = vec![0; docs.len()];
        let mut pending: Vec<VecDeque<(usize, u64)>> =
            (0..channels).map(|_| VecDeque::new()).collect();
        let mut queue: VecDeque<usize> = (0..docs.len()).collect();
        let mut reconnects = 0u32;
        let owed =
            |pending: &[VecDeque<(usize, u64)>]| pending.iter().map(VecDeque::len).sum::<usize>();
        // Requeue for retry, or surface `err` as the final outcome once
        // the document's budget is spent.
        let retry_or_fail = |queue: &mut VecDeque<usize>,
                             outcomes: &mut Vec<Option<Result<ServedResult, ClientError>>>,
                             retries: &mut Vec<u32>,
                             idx: usize,
                             err: ClientError| {
            if retries[idx] < policy.max_doc_retries {
                retries[idx] += 1;
                queue.push_back(idx);
            } else {
                outcomes[idx] = Some(Err(err));
            }
        };

        loop {
            if queue.is_empty() && owed(&pending) == 0 {
                break;
            }
            // One pass: submit until the window is full, then reap one
            // response. A transport failure anywhere breaks out with the
            // error; recovery (reconnect + resubmit) happens below.
            let failure: Option<ClientError> = 'step: {
                while owed(&pending) < window {
                    let Some(i) = queue.pop_front() else { break };
                    let doc = docs[i];
                    let lane = i % channels as usize;
                    let channel = lane as u16 + 1;
                    let len = doc.len() as u64;
                    if let Err(e) = check_size(len) {
                        outcomes[i] = Some(Err(e));
                        continue;
                    }
                    match self.send_document_on(
                        channel,
                        &mut io::Cursor::new(doc),
                        len,
                        len.div_ceil(8),
                    ) {
                        Ok(()) => pending[lane].push_back((i, self.checksum)),
                        Err(e) => {
                            // Mid-send failure: how much of the document
                            // reached the wire is unknowable, so the whole
                            // connection is suspect.
                            queue.push_front(i);
                            break 'step Some(e);
                        }
                    }
                }
                if owed(&pending) == 0 {
                    break 'step None; // nothing in flight; loop re-checks
                }
                match self.read_response_mux() {
                    Ok((channel, resp)) => {
                        let entry = pending
                            .get_mut(channel.wrapping_sub(1) as usize)
                            .and_then(VecDeque::pop_front);
                        let Some((idx, sent)) = entry else {
                            // Unsolicited — a connection-level fault (the
                            // server answers those on channel 0) or a
                            // demux break: either way this connection's
                            // pairing discipline is gone.
                            break 'step Some(match resp {
                                WireResponse::Error { code, detail } => {
                                    ClientError::Remote { code, detail }
                                }
                                other => ClientError::UnexpectedResponse(format!(
                                    "unsolicited response on channel {channel}: {other:?}"
                                )),
                            });
                        };
                        match Self::pair_result(resp, sent) {
                            Ok(r) => outcomes[idx] = Some(Ok(r)),
                            Err(e) => match &e {
                                ClientError::Remote { code, .. }
                                    if RetryPolicy::retriable(*code) =>
                                {
                                    if *code == ErrorCode::Busy {
                                        std::thread::sleep(policy.backoff(retries[idx] + 1));
                                    }
                                    retry_or_fail(&mut queue, &mut outcomes, &mut retries, idx, e);
                                }
                                ClientError::ChecksumMismatch { .. } => {
                                    retry_or_fail(&mut queue, &mut outcomes, &mut retries, idx, e);
                                }
                                // ShuttingDown, protocol faults, anything
                                // else the server deems final.
                                _ => outcomes[idx] = Some(Err(e)),
                            },
                        }
                    }
                    Err(e) => break 'step Some(e),
                }
                None
            };
            if let Some(err) = failure {
                // Un-acked documents = every lane entry; resubmit them all
                // (plus whatever was still queued), in index order, over a
                // fresh connection.
                let mut back: Vec<usize> = pending
                    .iter_mut()
                    .flat_map(|lane| lane.drain(..))
                    .map(|(i, _)| i)
                    .collect();
                back.extend(queue.drain(..));
                back.sort_unstable();
                queue = back.into();
                loop {
                    if reconnects >= policy.max_reconnects {
                        // Budget spent: the remaining documents share the
                        // fate of the connection.
                        for i in queue.drain(..) {
                            outcomes[i].get_or_insert_with(|| {
                                Err(ClientError::Io(io::Error::other(format!(
                                    "reconnect budget exhausted; last error: {err}"
                                ))))
                            });
                        }
                        break;
                    }
                    reconnects += 1;
                    std::thread::sleep(policy.backoff(reconnects));
                    if self.reconnect(policy).is_ok() {
                        break;
                    }
                }
            }
        }
        outcomes
            .into_iter()
            .map(|o| {
                o.unwrap_or_else(|| {
                    Err(ClientError::Io(io::Error::other(
                        "document never reached the server",
                    )))
                })
            })
            .collect()
    }

    /// Read one channel-tagged response and file it against the oldest
    /// document pending on that channel; `pending[j]` is channel
    /// `first + j`'s queue.
    fn take_result_mux(
        &mut self,
        first: u16,
        pending: &mut [VecDeque<(usize, u64)>],
        results: &mut [Option<ServedResult>],
    ) -> Result<(), ClientError> {
        let (channel, resp) = self.read_response_mux()?;
        let entry = channel
            .checked_sub(first)
            .and_then(|lane| pending.get_mut(usize::from(lane)))
            .and_then(VecDeque::pop_front);
        let Some((idx, sent)) = entry else {
            // No document pending on this channel. Connection-level faults
            // (channel-limit exceeded, malformed frame — the server answers
            // those on channel 0) land here: surface the server's own
            // error rather than burying it under a demux complaint.
            return match resp {
                WireResponse::Error { code, detail } => Err(ClientError::Remote { code, detail }),
                other => Err(ClientError::UnexpectedResponse(format!(
                    "unsolicited response on channel {channel}: {other:?}"
                ))),
            };
        };
        results[idx] = Some(Self::pair_result(resp, sent)?);
        Ok(())
    }

    /// Consume (and discard) the responses still owed for documents in
    /// flight — v1 or channel-tagged alike — so an error mid-pipeline
    /// leaves the connection aligned: every announced document pairs with
    /// exactly one response, and the next classify on this client reads
    /// its own result, not a stale one. Best-effort: a transport error
    /// just stops the drain (the connection is broken anyway).
    fn drain_mux(&mut self, owed: usize) {
        for _ in 0..owed {
            if read_frame_mux(&mut self.stream).is_err() {
                return;
            }
        }
    }

    /// Validate a Result/Error response against the sent checksum.
    fn pair_result(resp: WireResponse, sent: u64) -> Result<ServedResult, ClientError> {
        match resp {
            WireResponse::Result {
                counts,
                total_ngrams,
                checksum: echoed,
                valid,
            } => {
                if echoed != sent {
                    return Err(ClientError::ChecksumMismatch {
                        sent,
                        received: echoed,
                    });
                }
                Ok(ServedResult {
                    result: ClassificationResult::new(counts, total_ngrams),
                    checksum: echoed,
                    valid,
                })
            }
            WireResponse::Error { code, detail } => Err(ClientError::Remote { code, detail }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Blocking-read the next response frame of either wire version,
    /// returning its channel tag (0 for v1 frames).
    fn read_response_mux(&mut self) -> Result<(u16, WireResponse), ClientError> {
        match read_frame_mux(&mut self.stream)? {
            Some((kind, channel, payload)) => Ok((channel, WireResponse::decode(kind, &payload)?)),
            None => Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into())),
        }
    }

    /// Read the next response frame, which must be on `channel`, and pair
    /// it with the document whose sent-words checksum was `sent`.
    fn take_result(&mut self, channel: u16, sent: u64) -> Result<ServedResult, ClientError> {
        let (resp_channel, resp) = self.read_response_mux()?;
        if resp_channel != channel {
            return Err(ClientError::UnexpectedResponse(format!(
                "response on channel {resp_channel}, expected {channel}"
            )));
        }
        Self::pair_result(resp, sent)
    }

    /// Stream Size + Data frames + EoD + Query for one document on
    /// `channel` (0 = v1 framing), leaving the XOR checksum of the sent
    /// words in `self.checksum`.
    fn send_document_on<R: Read>(
        &mut self,
        channel: u16,
        reader: &mut R,
        len: u64,
        words: u64,
    ) -> Result<(), ClientError> {
        self.checksum = 0;
        let mut w = BufWriter::new(&self.stream);
        WireCommand::Size {
            words: words as u32,
            bytes: len as u32,
            trace: self.trace_context,
        }
        .encode_on(channel, &mut w)?;

        let mut remaining = len;
        let mut chunk = vec![0u8; CHUNK_WORDS * 8];
        while remaining > 0 {
            let want = (remaining.min(chunk.len() as u64)) as usize;
            let mut got = 0usize;
            while got < want {
                let n = reader.read(&mut chunk[got..want])?;
                if n == 0 {
                    return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()));
                }
                got += n;
            }
            // Zero-pad the tail of the final word and ship the chunk as
            // one word-aligned Data frame, no repacking.
            let padded = got.next_multiple_of(8);
            chunk[got..padded].fill(0);
            for word in chunk[..padded].chunks_exact(8) {
                self.checksum ^= u64::from_le_bytes(word.try_into().unwrap());
            }
            write_data_frame_on(&mut w, channel, &chunk[..padded])?;
            remaining -= got as u64;
        }
        WireCommand::EndOfDocument.encode_on(channel, &mut w)?;
        WireCommand::QueryResult.encode_on(channel, &mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Send a raw command (testing and diagnostics).
    pub fn send_command(&mut self, cmd: &WireCommand) -> Result<(), ClientError> {
        cmd.encode(&mut self.stream)?;
        Ok(())
    }

    /// Blocking-read the next response frame (testing and diagnostics).
    pub fn read_response(&mut self) -> Result<WireResponse, ClientError> {
        match read_frame(&mut self.stream)? {
            Some((kind, payload)) => Ok(WireResponse::decode(kind, &payload)?),
            None => Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into())),
        }
    }
}
