//! The per-connection protocol state machine.
//!
//! One network session is one simulated match engine: it obeys the same
//! Size / Data / End-of-Document / Query-Result command semantics as
//! `lc_fpga::protocol::FpgaProtocol`, with two differences born of the
//! transport:
//!
//! * TCP delivers commands and data **in order**, so the out-of-order
//!   command queue of the DMA model is unnecessary — an End-of-Document
//!   that arrives before all announced words is a *truncated transfer*
//!   fault, not something to queue behind.
//! * Classification is **streaming**: data words feed an
//!   [`lc_core::StreamingSession`] as they arrive, so a session holds
//!   O(counters) state regardless of document size instead of buffering
//!   whole documents.
//!
//! The watchdog is wall-clock: a session stalled mid-document past the
//! configured period is reset (and the host told so), exactly the recovery
//! path `tests/protocol_faults.rs` exercises against the simulated engine.
//! The owning worker drives it, sweeping its sessions with [`Session::tick`]
//! between jobs (`recv_timeout` granularity bounds how late it can fire).
//! After any mid-document abort — watchdog reset, truncated transfer,
//! excess words — the session *drains*: frames still in flight for the
//! aborted document are discarded silently until the next Size re-arms it,
//! so a pipelined host's one-response-per-document pairing stays intact
//! (the error or unsolicited notice was the aborted document's response).
//!
//! Each document has one stage record ([`SpanRecord`]), kept on one set of
//! clock edges: accept (the Size frame's shard-enqueue stamp), queue wait
//! (the document's own frames, each after the first counted only from when
//! the previous one finished applying), classify, and latch (a clock read
//! after the classifier's `finish`). At latch the record feeds
//! [`ServiceMetrics::record_document`]; the response that answers the
//! document carries a copy ([`Session::record`]) to its flush, where the
//! drain is added. The stages are disjoint sub-intervals of accept →
//! latch, so `queue + classify ≤ total` holds without correction.

use lc_core::{ClassificationResult, MultiLanguageClassifier, StreamingSession};
use lc_wire::{ErrorCode, PayloadBytes, WireCommand, WireResponse};
use std::time::{Duration, Instant};

use crate::metrics::ServiceMetrics;
use crate::trace::{derive_trace_id, SpanRecord, SPAN_CLIENT_CONTEXT, SPAN_FAULT, SPAN_PARKED};

/// A latched Query-Result payload (consumed by the first query, like the
/// hardware latch).
#[derive(Clone, Debug)]
pub struct LatchedResult {
    /// The classification outcome.
    pub result: ClassificationResult,
    /// XOR checksum over the received data words.
    pub checksum: u64,
    /// Status bit: transfer completed and classification valid.
    pub valid: bool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum State {
    Idle,
    Receiving {
        expected_words: u32,
        received_words: u32,
        doc_bytes: u32,
        bytes_fed: u32,
    },
    /// A fault or watchdog reset aborted an in-flight document. The error
    /// (or unsolicited reset notice) already took that document's response
    /// slot, so frames still in flight for it (Data, EoD, Query) are
    /// discarded silently — otherwise each would generate another response
    /// and desynchronize the client's one-response-per-document pairing.
    /// The next Size (or Reset) re-arms the session.
    Draining,
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// One connection's protocol engine, driven by decoded [`WireCommand`]s.
#[derive(Debug)]
pub struct Session {
    state: State,
    stream: StreamingSession,
    checksum: u64,
    latched: Option<LatchedResult>,
    watchdog: Duration,
    last_activity: Instant,
    /// The current (or last) document's stage record. Its identity
    /// fields (`conn`, `channel`, `shard`) are set by [`Session::attach`]
    /// and outlive each document.
    record: SpanRecord,
    /// The document's accept edge.
    accept: Instant,
    /// Queue wait of the document's own frames.
    queue_wait: Duration,
    /// Time feeding the document through the classifier, `finish`
    /// included.
    classify: Duration,
    /// Where the next frame's queue wait may start: the latest frame's
    /// dequeue, or the end of its classify once that ran.
    applied: Instant,
    /// Shard-enqueue stamp and parked flag of the command about to be
    /// applied ([`Session::note_job`]).
    job: Option<(Instant, bool)>,
}

impl Session {
    /// New idle session for one connection.
    pub fn new(classifier: &MultiLanguageClassifier, watchdog: Duration, now: Instant) -> Self {
        Self {
            state: State::Idle,
            stream: StreamingSession::new(classifier),
            checksum: 0,
            latched: None,
            watchdog,
            last_activity: now,
            record: SpanRecord {
                shard: u16::MAX,
                ..SpanRecord::default()
            },
            accept: now,
            queue_wait: Duration::ZERO,
            classify: Duration::ZERO,
            applied: now,
            job: None,
        }
    }

    /// Pin this session to worker shard `shard` and its channel identity
    /// (set by the owning worker at channel open): per-shard docs then sum
    /// to the global counter, and derived trace ids name the channel.
    /// An unattached session (a unit test driving one directly) counts
    /// globally only.
    pub fn attach(&mut self, shard: usize, conn: u64, channel: u16) {
        self.record.shard = u16::try_from(shard).unwrap_or(u16::MAX);
        self.record.conn = conn;
        self.record.channel = channel;
    }

    /// Note the shard-enqueue stamp of the command about to be applied,
    /// and whether the reactor parked it (its shard queue was full). The
    /// worker calls this before [`Session::apply`]; a session driven
    /// directly treats each command as enqueued at its `now`.
    pub fn note_job(&mut self, enqueued: Instant, parked: bool) {
        self.job = Some((enqueued, parked));
    }

    /// Annotate the current document's record with a fault code (first
    /// annotation wins; see [`crate::trace::fault_name`]). A faulted
    /// record is always kept by the span plane.
    pub fn trace_fault(&mut self, code: u8) {
        if self.record.fault == 0 {
            self.record.fault = code;
        }
        self.record.flags |= SPAN_FAULT;
    }

    /// A copy of the current document's stage record: the one the
    /// response just obtained from [`Session::apply`] or [`Session::tick`]
    /// answers, for the sender to carry to its flush.
    pub fn record(&self) -> SpanRecord {
        self.record
    }

    /// The record of the document a worker panic poisoned, annotated as an
    /// engine fault and closed at `now`. `size` is the panicked command's
    /// announced bytes and trace context when it was a Size: with no
    /// document in flight that Size began the poisoned document, so its
    /// record is started here. Otherwise the record is the in-flight (or
    /// last) document's.
    pub fn poisoned_record(
        &mut self,
        size: Option<(u32, Option<u64>)>,
        now: Instant,
    ) -> SpanRecord {
        if let Some((bytes, trace)) = size.filter(|_| !self.busy()) {
            let (enqueued, parked) = self.job.take().unwrap_or((now, false));
            self.begin(trace, bytes, parked, enqueued, now);
        }
        self.seal_fault(ErrorCode::EngineFault as u8, now);
        self.record
    }

    /// Whether a document transfer is in flight.
    pub fn busy(&self) -> bool {
        matches!(self.state, State::Receiving { .. })
    }

    /// Whether the session is discarding the leftover frames of a
    /// document whose response slot a fault already took.
    pub fn draining(&self) -> bool {
        self.state == State::Draining
    }

    /// Put a *fresh* session straight into the draining state. Used when a
    /// worker panic poisoned the previous session mid-document: the
    /// `EngineFault` the worker sends took that document's response slot,
    /// so the replacement session must discard the document's remaining
    /// frames (Data, EoD, Query) instead of answering each with a fault —
    /// exactly the watchdog's discard discipline. The next Size re-arms.
    pub fn quarantine(&mut self) {
        self.abort_document();
        self.latched = None;
    }

    /// Apply one command; returns the response to send, if any. Only
    /// `QueryResult` and faults produce responses — data flow is silent,
    /// like the register interface. `now` is when the worker dequeued the
    /// command.
    pub fn apply(
        &mut self,
        classifier: &MultiLanguageClassifier,
        metrics: &ServiceMetrics,
        cmd: WireCommand,
        now: Instant,
    ) -> Option<WireResponse> {
        let (enqueued, parked) = self.job.take().unwrap_or((now, false));
        if self.busy() {
            // A later frame of the in-flight document. Frames queued
            // together wait over the same interval; charging each only
            // from when its predecessor finished keeps the waits disjoint.
            self.queue_wait += now.saturating_duration_since(enqueued.max(self.applied));
            self.applied = now;
        }
        // A parked frame marks its own document: a Size the one it begins.
        if parked && !matches!(cmd, WireCommand::Size { .. }) {
            self.record.flags |= SPAN_PARKED;
        }
        match cmd {
            WireCommand::Size {
                words,
                bytes,
                trace,
            } => {
                if self.busy() {
                    return Some(self.fault(metrics, ErrorCode::SizeWhileBusy, String::new(), now));
                }
                // A fresh announcement re-arms a draining session.
                self.state = State::Idle;
                self.last_activity = now;
                self.checksum = 0;
                self.begin(trace, bytes, parked, enqueued, now);
                if words == 0 {
                    self.latch(metrics, now);
                } else {
                    self.state = State::Receiving {
                        expected_words: words,
                        received_words: 0,
                        doc_bytes: bytes,
                        bytes_fed: 0,
                    };
                }
                None
            }
            WireCommand::Data(data) => self.accept_words(classifier, metrics, &data, now),
            WireCommand::EndOfDocument => match self.state {
                // All words already in: the latch happened on the final
                // word; EoD is a no-op marker (as in the DMA model).
                State::Idle => None,
                // Leftover frame of a watchdog-aborted document.
                State::Draining => None,
                State::Receiving {
                    expected_words,
                    received_words,
                    ..
                } => {
                    let detail = format!("{received_words}/{expected_words} words");
                    self.abort_document();
                    Some(self.fault(metrics, ErrorCode::TruncatedTransfer, detail, now))
                }
            },
            WireCommand::QueryResult => {
                if self.state == State::Draining {
                    // The aborted document's query; its response slot was
                    // the unsolicited watchdog notice.
                    return None;
                }
                match self.latched.take() {
                    Some(l) => Some(WireResponse::Result {
                        counts: l.result.counts().to_vec(),
                        total_ngrams: l.result.total_ngrams(),
                        checksum: l.checksum,
                        valid: l.valid,
                    }),
                    None => Some(self.fault(metrics, ErrorCode::NoResult, String::new(), now)),
                }
            }
            WireCommand::Reset => {
                metrics
                    .channel_resets
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.reset_document();
                self.latched = None;
                None
            }
            // Channel teardown and stats are connection-layer concerns:
            // the reactor consumes CloseChannel and GetStats frames in its
            // decode loop and never forwards them to a session. Reaching
            // here means a decoder bug, not a client error — treat both as
            // inert no-ops.
            WireCommand::CloseChannel => None,
            WireCommand::GetStats { .. } => None,
        }
    }

    /// Advance wall-clock time with no traffic; fires the watchdog if a
    /// transfer stalled past the period. Returns the reset notice to send.
    pub fn tick(&mut self, metrics: &ServiceMetrics, now: Instant) -> Option<WireResponse> {
        if !self.busy() || now.duration_since(self.last_activity) <= self.watchdog {
            return None;
        }
        self.seal_fault(ErrorCode::WatchdogReset as u8, now);
        self.abort_document();
        self.latched = None;
        metrics
            .watchdog_resets
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(WireResponse::Error {
            code: ErrorCode::WatchdogReset,
            detail: "session stalled mid-document".into(),
        })
    }

    fn accept_words(
        &mut self,
        classifier: &MultiLanguageClassifier,
        metrics: &ServiceMetrics,
        data: &PayloadBytes,
        now: Instant,
    ) -> Option<WireResponse> {
        debug_assert_eq!(data.len() % 8, 0, "decode guarantees whole words");
        let n_words = (data.len() / 8) as u64;
        let State::Receiving {
            expected_words,
            received_words,
            doc_bytes,
            bytes_fed,
        } = self.state
        else {
            // Leftover data of a watchdog-aborted document is dropped
            // silently; data with no announcement at all is a fault.
            if self.state == State::Draining {
                return None;
            }
            return Some(self.fault(
                metrics,
                ErrorCode::UnexpectedDma,
                "data with no Size announcement".into(),
                now,
            ));
        };
        if u64::from(received_words) + n_words > u64::from(expected_words) {
            let detail = format!(
                "{} words announced, {} delivered",
                expected_words,
                u64::from(received_words) + n_words
            );
            self.abort_document();
            return Some(self.fault(metrics, ErrorCode::UnexpectedDma, detail, now));
        }
        self.last_activity = now;

        // The payload arrives as refcounted rope segments (zero-copy from
        // the socket buffer); walk them once. The checksum covers the
        // words as transferred (padding included), carrying a partial word
        // across segment boundaries; the classifier sees only the first
        // `take` real document bytes — the streaming extractor handles
        // arbitrary chunk boundaries natively.
        let take = (data.len() as u32).min(doc_bytes - bytes_fed);
        let mut to_feed = take as usize;
        let classify_started = Instant::now();
        let mut word = 0u64;
        let mut word_off = 0usize;
        for piece in data.pieces() {
            let mut bytes = piece;
            while word_off != 0 && !bytes.is_empty() {
                word |= u64::from(bytes[0]) << (8 * word_off);
                bytes = &bytes[1..];
                word_off = (word_off + 1) % 8;
                if word_off == 0 {
                    self.checksum ^= word;
                    word = 0;
                }
            }
            let mut whole = bytes.chunks_exact(8);
            for w in &mut whole {
                self.checksum ^= u64::from_le_bytes(w.try_into().unwrap());
            }
            for &b in whole.remainder() {
                word |= u64::from(b) << (8 * word_off);
                word_off += 1;
            }
            let feed_now = piece.len().min(to_feed);
            if feed_now > 0 {
                self.stream.feed(classifier, &piece[..feed_now]);
                to_feed -= feed_now;
            }
        }
        debug_assert_eq!(word_off, 0, "payload is whole words");
        let fed = Instant::now();
        self.classify += fed - classify_started;
        self.applied = fed;

        let received_words = received_words + n_words as u32;
        if received_words == expected_words {
            self.state = State::Idle;
            self.latch(metrics, fed);
        } else {
            self.state = State::Receiving {
                expected_words,
                received_words,
                doc_bytes,
                bytes_fed: bytes_fed + take,
            };
        }
        None
    }

    /// End-of-transfer: finish the classification and latch the result,
    /// closing the record's stages on a clock read taken after `finish`
    /// (started at `finish_started`) and recording the document.
    fn latch(&mut self, metrics: &ServiceMetrics, finish_started: Instant) {
        let result = self.stream.finish();
        let latched = Instant::now();
        self.classify += latched.saturating_duration_since(finish_started);
        self.close_record(latched);
        metrics.record_document(result.best(), result.total_ngrams(), &self.record);
        self.latched = Some(LatchedResult {
            result,
            checksum: self.checksum,
            valid: true,
        });
    }

    /// Write the stage accumulators into the record, closing its
    /// end-to-end interval at `end`.
    fn close_record(&mut self, end: Instant) {
        self.record.total_us = micros(end.saturating_duration_since(self.accept));
        self.record.queue_us = micros(self.queue_wait);
        self.record.classify_us = micros(self.classify);
    }

    /// Drop any in-flight document (keeps the latch unless the caller
    /// clears it too). `finish` resets the streaming state in place; the
    /// discarded result is the partial standings of the aborted document.
    fn reset_document(&mut self) {
        self.state = State::Idle;
        self.checksum = 0;
        let _ = self.stream.finish();
    }

    /// A mid-document fault answered by an error (or the watchdog notice)
    /// consumed that document's response slot: drop its state and drain
    /// the frames still in flight for it so response pairing holds.
    fn abort_document(&mut self) {
        self.reset_document();
        self.state = State::Draining;
    }

    fn fault(
        &mut self,
        metrics: &ServiceMetrics,
        code: ErrorCode,
        detail: String,
        now: Instant,
    ) -> WireResponse {
        metrics
            .protocol_errors
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.seal_fault(code as u8, now);
        WireResponse::Error { code, detail }
    }

    /// A fault response takes the document's response slot, so its record
    /// leaves on the error: annotate it and close it at `now`.
    fn seal_fault(&mut self, code: u8, now: Instant) {
        self.trace_fault(code);
        self.close_record(now);
    }

    /// Start the next document's record at its Size frame: a fresh
    /// sequence number, the client's trace id or a derived one, and the
    /// accept edge at the Size's shard-enqueue stamp.
    fn begin(
        &mut self,
        client_trace: Option<u64>,
        bytes: u32,
        parked: bool,
        accept: Instant,
        now: Instant,
    ) {
        let doc_seq = self.record.doc_seq.wrapping_add(1);
        let mut flags = if parked { SPAN_PARKED } else { 0 };
        if client_trace.is_some() {
            flags |= SPAN_CLIENT_CONTEXT;
        }
        let SpanRecord {
            conn,
            channel,
            shard,
            ..
        } = self.record;
        self.record = SpanRecord {
            trace_id: client_trace.unwrap_or_else(|| derive_trace_id(conn, channel, doc_seq)),
            conn,
            channel,
            shard,
            doc_seq,
            flags,
            doc_bytes: bytes,
            ..SpanRecord::default()
        };
        self.accept = accept;
        self.queue_wait = now.saturating_duration_since(accept);
        self.classify = Duration::ZERO;
        self.applied = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, HistogramSnapshot, Micros};
    use crate::trace::{SpanSet, SPAN_SLOW};
    use lc_bloom::BloomParams;
    use lc_core::ClassifierBuilder;
    use lc_ngram::NGramSpec;
    use lc_wire::pack_words;

    fn classifier() -> MultiLanguageClassifier {
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 200);
        b.add_language(
            "en",
            [b"the quick brown fox jumps over the lazy dog".as_slice()],
        );
        b.add_language(
            "fr",
            [b"le renard brun saute par dessus le chien".as_slice()],
        );
        b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 1)
    }

    fn send_doc(
        s: &mut Session,
        c: &MultiLanguageClassifier,
        m: &ServiceMetrics,
        doc: &[u8],
    ) -> LatchedResult {
        let now = Instant::now();
        let words = pack_words(doc);
        assert_eq!(
            s.apply(
                c,
                m,
                WireCommand::size(words.len() as u32, doc.len() as u32),
                now,
            ),
            None
        );
        for chunk in words.chunks(3) {
            assert_eq!(s.apply(c, m, WireCommand::data_words(chunk), now), None);
        }
        assert_eq!(s.apply(c, m, WireCommand::EndOfDocument, now), None);
        match s.apply(c, m, WireCommand::QueryResult, now) {
            Some(WireResponse::Result {
                counts,
                total_ngrams,
                checksum,
                valid,
            }) => LatchedResult {
                result: ClassificationResult::new(counts, total_ngrams),
                checksum,
                valid,
            },
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_matches_direct_classification() {
        let c = classifier();
        let m = ServiceMetrics::new(c.num_languages());
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let doc = b"the quick brown fox and the dog";
        let l = send_doc(&mut s, &c, &m, doc);
        assert!(l.valid);
        assert_eq!(l.checksum, lc_wire::xor_checksum(&pack_words(doc)));
        assert_eq!(l.result, c.classify(doc));
        assert_eq!(m.snapshot().documents, 1);
        assert_eq!(m.snapshot().bytes, doc.len() as u64);
    }

    #[test]
    fn result_is_consumed_once() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let _ = send_doc(&mut s, &c, &m, b"the fox");
        match s.apply(&c, &m, WireCommand::QueryResult, Instant::now()) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::NoResult),
            other => panic!("expected NoResult, got {other:?}"),
        }
    }

    #[test]
    fn eod_before_all_words_is_truncated_transfer() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(100, 800), now);
        s.apply(&c, &m, WireCommand::data_words(&[1, 2, 3]), now);
        match s.apply(&c, &m, WireCommand::EndOfDocument, now) {
            Some(WireResponse::Error { code, detail }) => {
                assert_eq!(code, ErrorCode::TruncatedTransfer);
                assert!(detail.contains("3/100"));
            }
            other => panic!("expected TruncatedTransfer, got {other:?}"),
        }
        // Session recovered: a full document classifies cleanly.
        let doc = b"the quick brown fox jumps";
        assert_eq!(send_doc(&mut s, &c, &m, doc).result, c.classify(doc));
    }

    #[test]
    fn data_without_size_is_unexpected_dma() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        match s.apply(&c, &m, WireCommand::data_words(&[42]), Instant::now()) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::UnexpectedDma),
            other => panic!("expected UnexpectedDma, got {other:?}"),
        }
        assert_eq!(m.snapshot().protocol_errors, 1);
    }

    #[test]
    fn excess_words_are_unexpected_dma() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(2, 16), now);
        match s.apply(&c, &m, WireCommand::data_words(&[1, 2, 3]), now) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::UnexpectedDma),
            other => panic!("expected UnexpectedDma, got {other:?}"),
        }
    }

    #[test]
    fn size_while_busy_is_rejected() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(2, 16), now);
        match s.apply(&c, &m, WireCommand::size(2, 16), now) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::SizeWhileBusy),
            other => panic!("expected SizeWhileBusy, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_resets_stalled_session_and_recovers() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let t0 = Instant::now();
        let mut s = Session::new(&c, Duration::from_millis(10), t0);
        s.apply(&c, &m, WireCommand::size(4, 32), t0);
        s.apply(&c, &m, WireCommand::data_words(&[7]), t0);
        // No traffic past the period.
        assert_eq!(s.tick(&m, t0 + Duration::from_millis(5)), None);
        match s.tick(&m, t0 + Duration::from_millis(11)) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::WatchdogReset),
            other => panic!("expected WatchdogReset, got {other:?}"),
        }
        assert!(!s.busy());
        assert_eq!(m.snapshot().watchdog_resets, 1);
        let doc = b"the quick brown fox";
        assert_eq!(send_doc(&mut s, &c, &m, doc).result, c.classify(doc));
    }

    #[test]
    fn watchdog_drain_keeps_response_pairing() {
        // A pipelined host stalls mid-document, then its remaining frames
        // arrive after the reset. They must be discarded silently — the
        // unsolicited notice was that document's one response — and the
        // next Size must re-arm the session.
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let t0 = Instant::now();
        let mut s = Session::new(&c, Duration::from_millis(10), t0);
        s.apply(&c, &m, WireCommand::size(4, 32), t0);
        s.apply(&c, &m, WireCommand::data_words(&[1]), t0);
        assert!(matches!(
            s.tick(&m, t0 + Duration::from_millis(11)),
            Some(WireResponse::Error {
                code: ErrorCode::WatchdogReset,
                ..
            })
        ));
        // The aborted document's leftovers: all silent.
        let late = t0 + Duration::from_millis(12);
        assert_eq!(
            s.apply(&c, &m, WireCommand::data_words(&[2, 3, 4]), late),
            None
        );
        assert_eq!(s.apply(&c, &m, WireCommand::EndOfDocument, late), None);
        assert_eq!(s.apply(&c, &m, WireCommand::QueryResult, late), None);
        // Next document is served normally.
        let doc = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(send_doc(&mut s, &c, &m, doc).result, c.classify(doc));
        assert_eq!(m.snapshot().protocol_errors, 0);
    }

    #[test]
    fn empty_document_is_legal() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(0, 0), now);
        match s.apply(&c, &m, WireCommand::QueryResult, now) {
            Some(WireResponse::Result {
                total_ngrams,
                checksum,
                ..
            }) => {
                assert_eq!(total_ngrams, 0);
                assert_eq!(checksum, 0);
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn reset_mid_transfer_discards_document() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(3, 24), now);
        s.apply(&c, &m, WireCommand::data_words(&[7]), now);
        assert_eq!(s.apply(&c, &m, WireCommand::Reset, now), None);
        assert!(!s.busy());
        match s.apply(&c, &m, WireCommand::QueryResult, now) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::NoResult),
            other => panic!("expected NoResult, got {other:?}"),
        }
    }

    #[test]
    fn multi_piece_payloads_classify_and_checksum_identically() {
        // A Data payload that spans rope chunks (several refcounted
        // pieces, split anywhere — including mid-word) must classify and
        // checksum exactly like a contiguous one.
        let c = classifier();
        let m = ServiceMetrics::new(c.num_languages());
        let doc = b"the quick brown fox jumps over the lazy dog and keeps on jumping for a while";
        let words = pack_words(doc);

        // Push the whole burst through a tiny-chunk accumulator so the
        // Data payload comes back as many pieces.
        let mut bytes = Vec::new();
        WireCommand::size(words.len() as u32, doc.len() as u32)
            .encode(&mut bytes)
            .unwrap();
        WireCommand::data_words(&words).encode(&mut bytes).unwrap();
        WireCommand::QueryResult.encode(&mut bytes).unwrap();
        let mut acc = lc_wire::FrameAccumulator::with_chunk_size(13);
        acc.push(&bytes);

        let now = Instant::now();
        let mut s = Session::new(&c, Duration::from_secs(1), now);
        let mut result = None;
        while let Some((k, _ch, p)) = acc.next_frame_mux().unwrap() {
            if k == lc_wire::frame::kind::DATA {
                assert!(p.pieces().count() > 1, "payload must span chunks");
            }
            if let Some(resp) = s.apply(&c, &m, WireCommand::decode(k, p).unwrap(), now) {
                result = Some(resp);
            }
        }
        match result {
            Some(WireResponse::Result {
                counts,
                total_ngrams,
                checksum,
                valid,
            }) => {
                assert!(valid);
                assert_eq!(checksum, lc_wire::xor_checksum(&words));
                assert_eq!(
                    ClassificationResult::new(counts, total_ngrams),
                    c.classify(doc)
                );
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn document_record_rides_its_result() {
        let c = classifier();
        let m = ServiceMetrics::new(c.num_languages());
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        s.attach(0, 11, 3);
        let doc = b"the quick brown fox jumps over the lazy dog";
        let words = pack_words(doc);
        let now = Instant::now();
        s.note_job(now, false);
        assert_eq!(
            s.apply(
                &c,
                &m,
                WireCommand::size(words.len() as u32, doc.len() as u32),
                now,
            ),
            None
        );
        assert_eq!(s.apply(&c, &m, WireCommand::data_words(&words), now), None);
        assert!(matches!(
            s.apply(&c, &m, WireCommand::QueryResult, now),
            Some(WireResponse::Result { .. })
        ));
        let r = s.record();
        assert_eq!(r.trace_id, derive_trace_id(11, 3, 1));
        assert_eq!(r.conn, 11);
        assert_eq!(r.channel, 3);
        assert_eq!(r.shard, 0);
        assert_eq!(r.doc_seq, 1);
        assert_eq!(r.flags, 0, "sampling is decided at the flush");
        assert_eq!(r.fault, 0);
        assert_eq!(r.doc_bytes, doc.len() as u32);
        assert!(r.queue_us + r.classify_us <= r.total_us);
        // The histograms read the same record.
        let snap = m.snapshot();
        assert_eq!(snap.bytes, doc.len() as u64);
        let expected = Histogram::default();
        expected.record(r.total_us);
        assert_eq!(snap.latency, expected.snapshot());
    }

    #[test]
    fn client_trace_context_is_adopted() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        s.attach(0, 1, 0);
        let doc = b"the fox";
        let words = pack_words(doc);
        let now = Instant::now();
        s.apply(
            &c,
            &m,
            WireCommand::size_traced(words.len() as u32, doc.len() as u32, 0xDEAD_BEEF),
            now,
        );
        s.apply(&c, &m, WireCommand::data_words(&words), now);
        s.apply(&c, &m, WireCommand::QueryResult, now);
        let r = s.record();
        assert_eq!(r.trace_id, 0xDEAD_BEEF);
        assert_ne!(r.flags & SPAN_CLIENT_CONTEXT, 0);
    }

    #[test]
    fn fault_records_name_the_site_and_are_always_kept() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        s.attach(0, 5, 1);
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(100, 800), now);
        s.apply(&c, &m, WireCommand::data_words(&[1, 2, 3]), now);
        assert!(matches!(
            s.apply(&c, &m, WireCommand::EndOfDocument, now),
            Some(WireResponse::Error {
                code: ErrorCode::TruncatedTransfer,
                ..
            })
        ));
        let r = s.record();
        assert_eq!(r.fault, ErrorCode::TruncatedTransfer as u8);
        assert_ne!(r.flags & SPAN_FAULT, 0);
        assert_eq!(crate::trace::fault_name(r.fault), "truncated-transfer");
        // Head sampling and the slow threshold off: the fault alone keeps it.
        let set = SpanSet::new(0, 0, 1);
        set.finish(r, Duration::ZERO);
        assert_eq!(set.drain()[0].trace_id, r.trace_id);
    }

    #[test]
    fn late_documents_are_kept_as_slow() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let set = SpanSet::new(0, 1_000, 1);
        let t0 = Instant::now() - Duration::from_millis(50);
        let mut s = Session::new(&c, Duration::from_secs(10), t0);
        let doc = b"the quick brown fox";
        let words = pack_words(doc);
        s.apply(
            &c,
            &m,
            WireCommand::size(words.len() as u32, doc.len() as u32),
            t0,
        );
        s.apply(&c, &m, WireCommand::data_words(&words), Instant::now());
        s.apply(&c, &m, WireCommand::QueryResult, Instant::now());
        set.finish(s.record(), Duration::ZERO);
        let r = set.drain()[0];
        assert_ne!(r.flags & SPAN_SLOW, 0);
        assert!(r.total_us >= 50_000);
        // An on-time document with sampling off leaves no span.
        let done = send_doc(&mut s, &c, &m, doc);
        assert!(done.valid);
        set.finish(s.record(), Duration::ZERO);
        assert!(set.drain().is_empty());
    }

    #[test]
    fn latency_latches_after_the_classify_it_contains() {
        // The whole multi-millisecond document rides one Data frame, and
        // each command gets a fresh clock read as its dequeue stamp, as in
        // the worker: the end-to-end bucket cannot sit below the classify
        // bucket it contains.
        let c = classifier();
        let m = ServiceMetrics::new(c.num_languages());
        let mut s = Session::new(&c, Duration::from_secs(60), Instant::now());
        let doc: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
            .iter()
            .copied()
            .cycle()
            .take(256 << 10)
            .collect();
        let words = pack_words(&doc);
        let size = WireCommand::size(words.len() as u32, doc.len() as u32);
        assert_eq!(s.apply(&c, &m, size, Instant::now()), None);
        let data = WireCommand::data_words(&words);
        assert_eq!(s.apply(&c, &m, data, Instant::now()), None);
        let snap = m.snapshot();
        let bucket = |h: &HistogramSnapshot<Micros>| {
            h.buckets()
                .iter()
                .position(|&n| n == 1)
                .expect("one document")
        };
        assert!(bucket(&snap.classify) > 0, "classify must outlast 100 µs");
        assert!(
            bucket(&snap.latency) >= bucket(&snap.classify),
            "latency {:?} below classify {:?}",
            snap.latency,
            snap.classify
        );
    }

    #[test]
    fn frames_queued_together_do_not_share_their_wait() {
        // Size and Data enqueued at one stamp, both dequeued 20 ms later:
        // the Data frame's wait counts only from the Size's apply, so the
        // stages fit inside the end-to-end time with no correction.
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let enqueued = Instant::now() - Duration::from_millis(20);
        let mut s = Session::new(&c, Duration::from_secs(60), enqueued);
        let doc = b"the quick brown fox jumps over the lazy dog";
        let words = pack_words(doc);
        s.note_job(enqueued, false);
        let size = WireCommand::size(words.len() as u32, doc.len() as u32);
        s.apply(&c, &m, size, Instant::now());
        s.note_job(enqueued, false);
        s.apply(&c, &m, WireCommand::data_words(&words), Instant::now());
        let wall = micros(enqueued.elapsed());
        let r = s.record();
        assert!(r.queue_us >= 20_000, "{r:?}");
        assert!(r.queue_us + r.classify_us <= r.total_us, "{r:?}");
        assert!(r.total_us <= wall, "{r:?} spans more than {wall} µs");
    }

    #[test]
    fn padding_is_checksummed_but_not_classified() {
        // A 9-byte document occupies 2 words; the 7 padding zero bytes must
        // not reach the classifier.
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let doc = b"the fox j";
        let l = send_doc(&mut s, &c, &m, doc);
        assert_eq!(l.result, c.classify(doc));
        assert_eq!(l.checksum, lc_wire::xor_checksum(&pack_words(doc)));
    }
}
