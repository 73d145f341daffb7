//! Length-framed messages carrying the Size/EoD/QueryResult command flow,
//! in two wire versions that interoperate on one connection.
//!
//! **v1** (legacy): a 5-byte header (`kind: u8`, `payload_len: u32`
//! little-endian) followed by `payload_len` payload bytes. Implicitly
//! channel 0.
//!
//! **v2** (multiplexed): the kind byte carries [`CHANNEL_FLAG`] (bit 6) and
//! the header grows a little-endian `channel: u16` between kind and length
//! — 7 bytes total. Channels are independent command streams sharing one
//! connection: each channel is its own session state machine, and responses
//! are tagged with the channel they answer. The two framings are
//! distinguished by the flag bit alone, so a decoder accepts any mix on one
//! connection and legacy v1 peers keep working unmodified (their frames are
//! channel 0). By convention channel 0 is always encoded as a v1 frame —
//! that is what makes v1 clients work against a v2 server without a version
//! handshake.
//!
//! | kind | direction | message | payload |
//! |---|---|---|---|
//! | `0x01` | →engine | Size | `words: u32`, `bytes: u32` [, `trace_id: u64`] |
//! | `0x02` | →engine | Data | packed LE 64-bit DMA words (len ≡ 0 mod 8) |
//! | `0x03` | →engine | EndOfDocument | empty |
//! | `0x04` | →engine | QueryResult | empty |
//! | `0x05` | →engine | Reset | empty |
//! | `0x06` | →engine | CloseChannel | empty |
//! | `0x07` | →engine | GetStats | `detail: u8` (0, 1 = counters; ≥ 2 = + spans) |
//! | `0x81` | engine→ | Hello | `count: u16`, then per language `len: u16` + UTF-8 name |
//! | `0x82` | engine→ | Result | `valid: u8`, `checksum: u64`, `total_ngrams: u64`, `p: u16`, `p × count: u64` |
//! | `0x83` | engine→ | Error | `code: u8`, `len: u16` + UTF-8 detail |
//! | `0x84` | engine→ | StatsReport | opaque versioned metrics snapshot (service-layer schema) |
//!
//! (v2 kinds are the same values with bit 6 set: `0x41` = Size on a
//! channel, `0xC2` = Result on a channel, and so on.)
//!
//! Commands flow host→engine, responses engine→host; both directions use
//! the same headers so a single incremental decoder ([`FrameAccumulator`])
//! serves client and server. The accumulator is a **rope of refcounted
//! chunks**: socket bytes land in `Arc`-backed buffers and completed Data
//! payloads are handed out as [`PayloadBytes`] — views into those same
//! buffers — so a payload crosses reader → decoder → worker with zero
//! copies.

use std::io::{self, Read, Write};
use std::sync::Arc;

/// Upper bound on a frame payload; larger announcements are a protocol
/// error (a malicious or corrupted peer), not an allocation request.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Bit 6 of the kind byte: set on v2 (channel-tagged) frames. No v1 kind
/// uses this bit, which is what makes the two framings distinguishable
/// from the first header byte.
pub const CHANNEL_FLAG: u8 = 0x40;

/// Frame kind bytes. Command kinds have the high bit clear, response kinds
/// have it set. These are the *base* kinds; a v2 frame carries
/// `kind | CHANNEL_FLAG` on the wire and decoders strip the flag.
pub mod kind {
    /// Size command.
    pub const SIZE: u8 = 0x01;
    /// Data (DMA words) frame.
    pub const DATA: u8 = 0x02;
    /// End-of-Document command.
    pub const END_OF_DOCUMENT: u8 = 0x03;
    /// Query Result command.
    pub const QUERY_RESULT: u8 = 0x04;
    /// Reset command.
    pub const RESET: u8 = 0x05;
    /// Close-channel control command (v2): tear down this channel's
    /// session server-side without closing the connection, freeing its
    /// `--max-channels` slot for reuse.
    pub const CLOSE_CHANNEL: u8 = 0x06;
    /// Get-stats control command: ask the server for a live metrics
    /// snapshot. Answered inline by the reactor (never queued behind
    /// documents), so it works mid-load.
    pub const GET_STATS: u8 = 0x07;
    /// Hello response (server banner: language names).
    pub const HELLO: u8 = 0x81;
    /// Result response (counters + checksum + status).
    pub const RESULT: u8 = 0x82;
    /// Error response.
    pub const ERROR: u8 = 0x83;
    /// Stats-report response: a versioned, section-length-prefixed binary
    /// metrics snapshot (schema owned by the service layer; opaque here).
    pub const STATS_REPORT: u8 = 0x84;
}

/// Decode-level failures: the byte stream does not form a valid frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Announced payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(u32),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// A Data payload whose length is not a whole number of 64-bit words.
    ShortDmaPayload(usize),
    /// Structurally invalid payload for the frame kind.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::ShortDmaPayload(n) => {
                write!(f, "data payload of {n} bytes is not whole 64-bit words")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Error codes carried by Error response frames. Each mirrors a
/// `lc_fpga::protocol::ProtocolError` variant (or the watchdog event) so
/// the network service and the simulated hardware fail identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Query issued but no result latched.
    NoResult = 1,
    /// Size command while a document is in flight.
    SizeWhileBusy = 2,
    /// EndOfDocument before all announced words arrived.
    TruncatedTransfer = 3,
    /// DMA words with no Size announcement (or beyond the announced count).
    UnexpectedDma = 4,
    /// The watchdog reset a stalled session.
    WatchdogReset = 5,
    /// The peer sent bytes that do not decode as a valid frame.
    MalformedFrame = 6,
    /// The engine worker serving this channel panicked mid-document; the
    /// session was replaced and the in-flight document discarded.
    EngineFault = 7,
    /// The server is saturated (shard queue full with the outbound queue
    /// over high-water): the document was shed, not processed. Retriable
    /// after backoff.
    Busy = 8,
    /// The server is draining for shutdown and accepts no new documents on
    /// this connection.
    ShuttingDown = 9,
}

impl ErrorCode {
    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Result<Self, FrameError> {
        Ok(match b {
            1 => ErrorCode::NoResult,
            2 => ErrorCode::SizeWhileBusy,
            3 => ErrorCode::TruncatedTransfer,
            4 => ErrorCode::UnexpectedDma,
            5 => ErrorCode::WatchdogReset,
            6 => ErrorCode::MalformedFrame,
            7 => ErrorCode::EngineFault,
            8 => ErrorCode::Busy,
            9 => ErrorCode::ShuttingDown,
            _ => return Err(FrameError::Malformed("unknown error code")),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::NoResult => "no latched result to query",
            ErrorCode::SizeWhileBusy => "Size command while document in flight",
            ErrorCode::TruncatedTransfer => "truncated transfer",
            ErrorCode::UnexpectedDma => "DMA data with no Size announcement",
            ErrorCode::WatchdogReset => "watchdog reset a stalled session",
            ErrorCode::MalformedFrame => "malformed frame",
            ErrorCode::EngineFault => "engine worker fault; document discarded",
            ErrorCode::Busy => "server saturated; document shed",
            ErrorCode::ShuttingDown => "server draining for shutdown",
        };
        f.write_str(s)
    }
}

/// One contiguous view into a refcounted accumulator chunk.
#[derive(Clone)]
struct Piece {
    buf: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl Piece {
    fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }
}

/// A frame payload as zero or more refcounted segments of the read buffer
/// — the zero-copy alternative to `Vec<u8>`. The common case is one piece
/// (the whole payload landed inside one read chunk); a payload that
/// straddles a chunk boundary carries one piece per chunk, in order.
/// Consumers stream the pieces ([`PayloadBytes::pieces`]); word-granular
/// users (checksums) carry a partial-word state across piece boundaries.
///
/// Constructing one from a `Vec<u8>` (`From`) wraps the vector in an `Arc`
/// without copying, so owned payloads (client-built frames, tests) ride
/// the same type.
#[derive(Clone, Default)]
pub struct PayloadBytes {
    pieces: Vec<Piece>,
    len: usize,
}

impl PayloadBytes {
    /// Empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total byte length across all pieces.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload's contiguous segments, in order.
    pub fn pieces(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.pieces.iter().map(Piece::as_slice)
    }

    /// The whole payload as one slice, when it is a single segment.
    pub fn contiguous(&self) -> Option<&[u8]> {
        match self.pieces.len() {
            0 => Some(&[]),
            1 => Some(self.pieces[0].as_slice()),
            _ => None,
        }
    }

    /// Copy the payload out into a fresh vector (tests, diagnostics, and
    /// the legacy copying API — never the service hot path).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for p in self.pieces() {
            out.extend_from_slice(p);
        }
        out
    }

    /// Copy the payload into `out`; `out.len()` must equal `self.len()`.
    /// For small fixed-layout payloads (Size is 8 bytes).
    pub fn copy_to(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len, "destination must match payload len");
        let mut at = 0usize;
        for p in self.pieces() {
            out[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
    }

    /// Iterate all payload bytes in order.
    fn iter_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.pieces().flat_map(|p| p.iter().copied())
    }
}

impl From<Vec<u8>> for PayloadBytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        if len == 0 {
            return Self::default();
        }
        Self {
            pieces: vec![Piece {
                buf: Arc::new(v),
                start: 0,
                len,
            }],
            len,
        }
    }
}

impl From<&[u8]> for PayloadBytes {
    fn from(v: &[u8]) -> Self {
        v.to_vec().into()
    }
}

impl PartialEq for PayloadBytes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter_bytes().eq(other.iter_bytes())
    }
}

impl Eq for PayloadBytes {}

impl std::fmt::Debug for PayloadBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PayloadBytes({} bytes", self.len)?;
        if self.pieces.len() > 1 {
            write!(f, " in {} pieces", self.pieces.len())?;
        }
        if self.len <= 32 {
            write!(f, ": {:02x?}", self.to_vec())?;
        }
        f.write_str(")")
    }
}

/// Host-issued commands — the register-interface flow of
/// `lc_fpga::protocol::Command`, carried as network frames. Data words ride
/// inside the same framing (TCP is the DMA channel).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireCommand {
    /// Announce an incoming document: number of 64-bit data words and the
    /// exact byte length (≤ 8 × words).
    Size {
        /// 64-bit words to expect via Data frames.
        words: u32,
        /// Exact document length in bytes.
        bytes: u32,
        /// Optional **TraceContext extension**: a caller-chosen trace id
        /// carried as 8 extra little-endian payload bytes. A balancer (or
        /// any relaying tier) stamps its own id here so the backend's
        /// trace spans correlate across the hop; absent (the 8-byte v1
        /// payload) the server derives one from conn/channel/doc-seq.
        /// Legacy peers never send or see the extension — an 8-byte Size
        /// decodes to `trace: None` and `trace: None` encodes 8 bytes.
        trace: Option<u64>,
    },
    /// A burst of packed document words as word-aligned raw bytes
    /// (`len % 8 == 0`), held as refcounted buffer segments so the payload
    /// crosses client → socket → worker without repacking *or copying*.
    /// [`WireCommand::data_words`] builds one from words; consumers walk
    /// [`PayloadBytes::pieces`].
    Data(PayloadBytes),
    /// Final word of the document has been sent; classify and latch.
    EndOfDocument,
    /// Read back the latched result.
    QueryResult,
    /// Reset the session state machine.
    Reset,
    /// Tear down this channel's session (v2 control frame): the server
    /// drops the session and frees the channel's `max_channels` slot; the
    /// id may be reused (a later frame on it opens a fresh session). No
    /// acknowledgement is sent — per-channel FIFO through the shard queue
    /// already orders a reuse behind the close.
    CloseChannel,
    /// Ask the server for a live metrics snapshot (control frame, answered
    /// by [`WireResponse::StatsReport`] on the same channel). The reactor
    /// answers inline — a GetStats never waits behind queued documents.
    GetStats {
        /// Snapshot detail: 0 and 1 = counters, histograms and the shard
        /// table (1 once also carried event-ring dumps, now retired);
        /// 2 or more adds the trace plane — the server *drains* its kept
        /// spans (each is reported once).
        detail: u8,
    },
}

impl WireCommand {
    /// A Size announcement with no trace context (what a v1 peer sends).
    pub fn size(words: u32, bytes: u32) -> Self {
        WireCommand::Size {
            words,
            bytes,
            trace: None,
        }
    }

    /// A Size announcement carrying a propagated trace id (the wire-v2
    /// TraceContext extension).
    pub fn size_traced(words: u32, bytes: u32, trace_id: u64) -> Self {
        WireCommand::Size {
            words,
            bytes,
            trace: Some(trace_id),
        }
    }

    /// Build a Data frame from 64-bit words (tests and word-level hosts;
    /// the streaming client writes byte payloads directly).
    pub fn data_words(words: &[u64]) -> Self {
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        WireCommand::Data(payload.into())
    }

    /// Write this command as one v1 frame (channel 0).
    pub fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.encode_on(0, w)
    }

    /// Write this command as one frame on `channel` (0 encodes as v1, any
    /// other channel as v2 with the channel in the header).
    pub fn encode_on<W: Write>(&self, channel: u16, w: &mut W) -> io::Result<()> {
        match self {
            WireCommand::Size {
                words,
                bytes,
                trace,
            } => {
                let mut payload = [0u8; 16];
                payload[..4].copy_from_slice(&words.to_le_bytes());
                payload[4..8].copy_from_slice(&bytes.to_le_bytes());
                let len = match trace {
                    Some(id) => {
                        payload[8..].copy_from_slice(&id.to_le_bytes());
                        16
                    }
                    None => 8,
                };
                write_frame_on(w, kind::SIZE, channel, &payload[..len])
            }
            WireCommand::Data(payload) => {
                debug_assert_eq!(payload.len() % 8, 0, "data payload must be whole words");
                write_header_on(w, kind::DATA, channel, payload.len() as u32)?;
                for p in payload.pieces() {
                    w.write_all(p)?;
                }
                Ok(())
            }
            WireCommand::EndOfDocument => write_frame_on(w, kind::END_OF_DOCUMENT, channel, &[]),
            WireCommand::QueryResult => write_frame_on(w, kind::QUERY_RESULT, channel, &[]),
            WireCommand::Reset => write_frame_on(w, kind::RESET, channel, &[]),
            WireCommand::CloseChannel => write_frame_on(w, kind::CLOSE_CHANNEL, channel, &[]),
            WireCommand::GetStats { detail } => {
                write_frame_on(w, kind::GET_STATS, channel, &[*detail])
            }
        }
    }

    /// Decode a command from a frame's base kind byte and payload. Takes
    /// the payload by value: a Data payload is adopted as-is — no
    /// repacking, no copy.
    pub fn decode(frame_kind: u8, payload: impl Into<PayloadBytes>) -> Result<Self, FrameError> {
        let payload: PayloadBytes = payload.into();
        match frame_kind {
            kind::SIZE => {
                // 8 bytes is the v1 layout; 16 adds the TraceContext
                // extension (trailing trace_id: u64). Nothing in between.
                if payload.len() != 8 && payload.len() != 16 {
                    return Err(FrameError::Malformed("Size payload must be 8 or 16 bytes"));
                }
                let mut b = [0u8; 16];
                payload.copy_to(&mut b[..payload.len()]);
                let words = u32::from_le_bytes(b[..4].try_into().unwrap());
                let bytes = u32::from_le_bytes(b[4..8].try_into().unwrap());
                if u64::from(bytes) > u64::from(words) * 8 {
                    return Err(FrameError::Malformed("byte length exceeds announced words"));
                }
                let trace =
                    (payload.len() == 16).then(|| u64::from_le_bytes(b[8..].try_into().unwrap()));
                Ok(WireCommand::Size {
                    words,
                    bytes,
                    trace,
                })
            }
            kind::DATA => {
                if !payload.len().is_multiple_of(8) {
                    return Err(FrameError::ShortDmaPayload(payload.len()));
                }
                Ok(WireCommand::Data(payload))
            }
            kind::END_OF_DOCUMENT => expect_empty(payload, WireCommand::EndOfDocument),
            kind::QUERY_RESULT => expect_empty(payload, WireCommand::QueryResult),
            kind::RESET => expect_empty(payload, WireCommand::Reset),
            kind::CLOSE_CHANNEL => expect_empty(payload, WireCommand::CloseChannel),
            kind::GET_STATS => {
                if payload.len() != 1 {
                    return Err(FrameError::Malformed("GetStats payload must be 1 byte"));
                }
                let mut b = [0u8; 1];
                payload.copy_to(&mut b);
                Ok(WireCommand::GetStats { detail: b[0] })
            }
            other => Err(FrameError::UnknownKind(other)),
        }
    }
}

fn expect_empty(payload: PayloadBytes, cmd: WireCommand) -> Result<WireCommand, FrameError> {
    if payload.is_empty() {
        Ok(cmd)
    } else {
        Err(FrameError::Malformed("command payload must be empty"))
    }
}

/// Engine-issued responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireResponse {
    /// Server banner sent once per connection: the programmed language
    /// names, index-aligned with Result counters.
    Hello {
        /// Language names in counter order.
        languages: Vec<String>,
    },
    /// The Query Result payload: counters + checksum + status, exactly the
    /// fields `lc_fpga::protocol::QueryResult` latches.
    Result {
        /// Per-language match counters.
        counts: Vec<u64>,
        /// Total n-grams tested in the document.
        total_ngrams: u64,
        /// XOR checksum of the received data words.
        checksum: u64,
        /// Status bit: transfer and classification valid.
        valid: bool,
    },
    /// A protocol fault, with the offended rule and a human-readable detail.
    Error {
        /// Which rule was violated.
        code: ErrorCode,
        /// Diagnostic detail.
        detail: String,
    },
    /// Answer to [`WireCommand::GetStats`]: the server's metrics snapshot
    /// in a versioned, section-length-prefixed binary schema. The schema
    /// is owned by the service layer (`MetricsSnapshot::{encode,decode}`);
    /// the wire layer carries it opaquely so schema evolution never needs
    /// a frame-format change.
    StatsReport {
        /// The encoded snapshot bytes.
        payload: Vec<u8>,
    },
}

impl WireResponse {
    /// Write this response as one v1 frame (channel 0).
    pub fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.encode_on(0, w)
    }

    /// Write this response as one frame on `channel` (0 encodes as v1 —
    /// what keeps legacy clients working — any other channel as v2).
    pub fn encode_on<W: Write>(&self, channel: u16, w: &mut W) -> io::Result<()> {
        match self {
            WireResponse::Hello { languages } => {
                let mut payload = Vec::new();
                payload.extend_from_slice(&(languages.len() as u16).to_le_bytes());
                for name in languages {
                    let b = name.as_bytes();
                    payload.extend_from_slice(&(b.len() as u16).to_le_bytes());
                    payload.extend_from_slice(b);
                }
                write_frame_on(w, kind::HELLO, channel, &payload)
            }
            WireResponse::Result {
                counts,
                total_ngrams,
                checksum,
                valid,
            } => {
                let mut payload = Vec::with_capacity(19 + counts.len() * 8);
                payload.push(u8::from(*valid));
                payload.extend_from_slice(&checksum.to_le_bytes());
                payload.extend_from_slice(&total_ngrams.to_le_bytes());
                payload.extend_from_slice(&(counts.len() as u16).to_le_bytes());
                for c in counts {
                    payload.extend_from_slice(&c.to_le_bytes());
                }
                write_frame_on(w, kind::RESULT, channel, &payload)
            }
            WireResponse::Error { code, detail } => {
                let b = detail.as_bytes();
                let mut payload = Vec::with_capacity(3 + b.len());
                payload.push(*code as u8);
                payload.extend_from_slice(&(b.len() as u16).to_le_bytes());
                payload.extend_from_slice(b);
                write_frame_on(w, kind::ERROR, channel, &payload)
            }
            WireResponse::StatsReport { payload } => {
                write_frame_on(w, kind::STATS_REPORT, channel, payload)
            }
        }
    }

    /// Decode a response from a frame's base kind byte and payload.
    pub fn decode(frame_kind: u8, payload: &[u8]) -> Result<Self, FrameError> {
        let mut r = Cursor { buf: payload };
        match frame_kind {
            kind::HELLO => {
                let count = r.u16()?;
                let mut languages = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let len = r.u16()? as usize;
                    let name = std::str::from_utf8(r.take(len)?)
                        .map_err(|_| FrameError::Malformed("language name not UTF-8"))?;
                    languages.push(name.to_string());
                }
                r.done()?;
                Ok(WireResponse::Hello { languages })
            }
            kind::RESULT => {
                let valid = r.u8()? != 0;
                let checksum = r.u64()?;
                let total_ngrams = r.u64()?;
                let p = r.u16()?;
                let mut counts = Vec::with_capacity(p as usize);
                for _ in 0..p {
                    counts.push(r.u64()?);
                }
                r.done()?;
                Ok(WireResponse::Result {
                    counts,
                    total_ngrams,
                    checksum,
                    valid,
                })
            }
            kind::ERROR => {
                let code = ErrorCode::from_byte(r.u8()?)?;
                let len = r.u16()? as usize;
                let detail = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| FrameError::Malformed("error detail not UTF-8"))?
                    .to_string();
                r.done()?;
                Ok(WireResponse::Error { code, detail })
            }
            kind::STATS_REPORT => Ok(WireResponse::StatsReport {
                payload: payload.to_vec(),
            }),
            other => Err(FrameError::UnknownKind(other)),
        }
    }
}

/// Minimal checked reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() < n {
            return Err(FrameError::Malformed("payload shorter than declared"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes in payload"))
        }
    }
}

fn write_header<W: Write>(w: &mut W, frame_kind: u8, len: u32) -> io::Result<()> {
    let mut header = [0u8; 5];
    header[0] = frame_kind;
    header[1..].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)
}

/// Write a frame header for `channel` (v1 when 0, v2 otherwise).
fn write_header_on<W: Write>(w: &mut W, frame_kind: u8, channel: u16, len: u32) -> io::Result<()> {
    debug_assert_eq!(frame_kind & CHANNEL_FLAG, 0, "pass the base kind");
    if channel == 0 {
        return write_header(w, frame_kind, len);
    }
    let mut header = [0u8; 7];
    header[0] = frame_kind | CHANNEL_FLAG;
    header[1..3].copy_from_slice(&channel.to_le_bytes());
    header[3..].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)
}

/// Write one complete v1 frame (channel 0).
pub fn write_frame<W: Write>(w: &mut W, frame_kind: u8, payload: &[u8]) -> io::Result<()> {
    write_frame_on(w, frame_kind, 0, payload)
}

/// Write one complete frame on `channel` (v1 framing when 0, v2 otherwise).
pub fn write_frame_on<W: Write>(
    w: &mut W,
    frame_kind: u8,
    channel: u16,
    payload: &[u8],
) -> io::Result<()> {
    write_header_on(w, frame_kind, channel, payload.len() as u32)?;
    w.write_all(payload)
}

/// Write one Data frame straight from word-aligned payload bytes (the
/// zero-copy path for streaming hosts; `payload.len()` must be a multiple
/// of 8).
pub fn write_data_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    write_data_frame_on(w, 0, payload)
}

/// [`write_data_frame`] on a channel.
pub fn write_data_frame_on<W: Write>(w: &mut W, channel: u16, payload: &[u8]) -> io::Result<()> {
    debug_assert_eq!(payload.len() % 8, 0, "data payload must be whole words");
    write_frame_on(w, kind::DATA, channel, payload)
}

/// Blocking-read one complete v1 frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary; EOF mid-frame is `UnexpectedEof` (a truncated
/// frame). Peers that may send v2 frames need [`read_frame_mux`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    Ok(read_frame_mux(r)?.map(|(kind, _channel, payload)| (kind, payload)))
}

/// Header length for a frame whose first byte is `first` (5 for v1,
/// 7 for channel-flagged v2).
fn header_len(first: u8) -> usize {
    if first & CHANNEL_FLAG != 0 {
        7
    } else {
        5
    }
}

/// Split a complete header (the first `header_len(header[0])` bytes are
/// valid; the rest may be garbage) into base kind, channel, and payload
/// length — the one place the two framings' layouts live, shared by the
/// blocking and incremental decoders.
fn parse_header(header: &[u8; 7]) -> (u8, u16, u32) {
    if header[0] & CHANNEL_FLAG != 0 {
        (
            header[0] & !CHANNEL_FLAG,
            u16::from_le_bytes(header[1..3].try_into().unwrap()),
            u32::from_le_bytes(header[3..7].try_into().unwrap()),
        )
    } else {
        (
            header[0],
            0,
            u32::from_le_bytes(header[1..5].try_into().unwrap()),
        )
    }
}

/// Blocking-read one complete frame of either version, returning the base
/// kind, the channel (0 for v1 frames), and the payload. `Ok(None)` is a
/// clean EOF at a frame boundary.
pub fn read_frame_mux<R: Read>(r: &mut R) -> io::Result<Option<(u8, u16, Vec<u8>)>> {
    let mut header = [0u8; 7];
    // Both header forms are at least 5 bytes, so read 5 up front (no
    // extra syscall on unbuffered streams) and top up to 7 only for v2.
    let mut got = 0usize;
    while got < 5 {
        let n = r.read(&mut header[got..5])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        got += n;
    }
    let hlen = header_len(header[0]);
    while got < hlen {
        let n = r.read(&mut header[got..hlen])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        got += n;
    }
    let (kind, channel, len) = parse_header(&header);
    if len as usize > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversize(len).into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some((kind, channel, payload)))
}

/// What one [`FrameAccumulator::fill_from`] read did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fill {
    /// Bytes read; 0 is EOF.
    pub bytes: usize,
    /// The read returned fewer bytes than it was offered room for. On a
    /// stream socket that means the kernel's receive queue is empty (see
    /// epoll(7)), so an edge-triggered reader can wait for the next edge
    /// instead of reading again into `WouldBlock`.
    pub short: bool,
}

/// One refcounted chunk of the accumulator's rope. `start..filled` is the
/// live window; bytes past `filled` are zeroed at allocation or stale
/// from before a rewind, and are never read before a fill overwrites them.
#[derive(Debug)]
struct Chunk {
    buf: Arc<Vec<u8>>,
    start: usize,
    filled: usize,
}

impl Chunk {
    fn pending(&self) -> usize {
        self.filled - self.start
    }
}

/// Incremental frame decoder for byte streams that arrive in arbitrary
/// pieces (socket reads under a read timeout may split frames anywhere).
/// Push bytes in, pull complete frames out; partial frames stay buffered.
///
/// Internally a **rope of refcounted chunks**: [`FrameAccumulator::fill_from`]
/// reads straight into the tail chunk, and [`FrameAccumulator::next_frame_mux`]
/// hands completed payloads out as [`PayloadBytes`] — `Arc` views into the
/// chunks the bytes already live in, **zero copies per frame**. A chunk
/// stays alive (pinned by the `Arc`) until every payload segment into it is
/// dropped; new bytes never go into a chunk a payload still shares. The
/// rope keeps its fully consumed tail chunk, so once the last payload out
/// of it drops (the worker finished the document) the next fill rewinds
/// and reuses it: a peer sending one document at a time allocates nothing
/// in the steady state. The legacy
/// [`FrameAccumulator::next_frame`] copies payloads out as `Vec`s and
/// counts those copies, so the zero-copy property is *observable*:
/// [`FrameAccumulator::payload_copies`] over [`FrameAccumulator::data_frames`]
/// is the copies-per-frame ratio the service exports.
#[derive(Debug)]
pub struct FrameAccumulator {
    chunks: std::collections::VecDeque<Chunk>,
    chunk_size: usize,
    data_frames: u64,
    payload_copies: u64,
}

/// Default chunk size for the rope (matches the default socket read size).
const DEFAULT_CHUNK: usize = 64 * 1024;

impl Default for FrameAccumulator {
    fn default() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK)
    }
}

impl FrameAccumulator {
    /// Empty accumulator with the default chunk size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty accumulator whose rope chunks hold `chunk_size` bytes each
    /// (sized to the reader's typical burst; payloads larger than a chunk
    /// simply span several pieces).
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        Self {
            chunks: std::collections::VecDeque::new(),
            chunk_size: chunk_size.max(64),
            data_frames: u64::default(),
            payload_copies: u64::default(),
        }
    }

    /// Data frames decoded so far.
    pub fn data_frames(&self) -> u64 {
        self.data_frames
    }

    /// Payloads that were *copied* out (the legacy `next_frame` Vec path).
    /// Stays zero when every frame is pulled via the shared
    /// [`FrameAccumulator::next_frame_mux`] API.
    pub fn payload_copies(&self) -> u64 {
        self.payload_copies
    }

    /// Bytes buffered and not yet consumed by a decoded frame.
    fn available(&self) -> usize {
        self.chunks.iter().map(Chunk::pending).sum()
    }

    /// Make sure the tail chunk can accept new bytes: it must exist, be
    /// uniquely owned (no payload handed out of it is still alive), and
    /// have spare capacity. A consumed tail that is unique again is
    /// rewound in place; one a payload still shares is dropped from the
    /// rope (the payload keeps it alive) and replaced.
    fn ensure_writable(&mut self) {
        if let Some(tail) = self.chunks.back_mut() {
            if Arc::get_mut(&mut tail.buf).is_some() {
                if tail.pending() == 0 {
                    tail.start = 0;
                    tail.filled = 0;
                }
                if tail.filled < tail.buf.len() {
                    return;
                }
            } else if tail.pending() == 0 {
                self.chunks.pop_back();
            }
        }
        self.chunks.push_back(Chunk {
            buf: Arc::new(vec![0u8; self.chunk_size]),
            start: 0,
            filled: 0,
        });
    }

    /// Append freshly received bytes (copying API for pushed inputs; the
    /// socket path uses [`FrameAccumulator::fill_from`]).
    pub fn push(&mut self, data: &[u8]) {
        let mut data = data;
        while !data.is_empty() {
            self.ensure_writable();
            let chunk = self.chunks.back_mut().expect("ensure_writable pushed one");
            let buf = Arc::get_mut(&mut chunk.buf).expect("tail chunk is unique");
            let take = data.len().min(buf.len() - chunk.filled);
            buf[chunk.filled..chunk.filled + take].copy_from_slice(&data[..take]);
            chunk.filled += take;
            data = &data[take..];
        }
    }

    /// Read up to `max` bytes from `r` directly into the rope's tail chunk
    /// — the bytes land where payload segments will point, so Data frames
    /// reach workers without ever being copied. The read is offered the
    /// smaller of `max` and the tail chunk's spare room; [`Fill`] reports
    /// the byte count from `r.read` (0 = EOF) and whether it fell short of
    /// that offer. Read errors (including timeouts) leave the buffer
    /// unchanged.
    pub fn fill_from<R: Read>(&mut self, r: &mut R, max: usize) -> io::Result<Fill> {
        self.ensure_writable();
        let chunk = self.chunks.back_mut().expect("ensure_writable pushed one");
        let buf = Arc::get_mut(&mut chunk.buf).expect("tail chunk is unique");
        let end = buf.len().min(chunk.filled + max);
        let n = r.read(&mut buf[chunk.filled..end])?;
        let short = chunk.filled + n < end;
        chunk.filled += n;
        Ok(Fill { bytes: n, short })
    }

    /// Copy the first `out.len()` buffered bytes into `out` without
    /// consuming; `false` if fewer bytes are buffered. (Headers only —
    /// at most 7 bytes.)
    fn peek_copy(&self, out: &mut [u8]) -> bool {
        let mut at = 0usize;
        for c in &self.chunks {
            let pending = &c.buf[c.start..c.filled];
            let take = pending.len().min(out.len() - at);
            out[at..at + take].copy_from_slice(&pending[..take]);
            at += take;
            if at == out.len() {
                return true;
            }
        }
        false
    }

    /// Drop fully consumed chunks ahead of the tail. The tail chunk stays,
    /// even while payloads still share it: [`FrameAccumulator::fill_from`]
    /// rewinds it once they drop, so the steady state allocates nothing.
    fn trim(&mut self) {
        while self.chunks.len() > 1 && self.chunks.front().is_some_and(|c| c.pending() == 0) {
            self.chunks.pop_front();
        }
    }

    /// Consume `n` buffered bytes (header bytes — discarded, not handed out).
    fn consume(&mut self, n: usize) {
        let mut left = n;
        while left > 0 {
            let front = self.chunks.front_mut().expect("consume within available");
            let take = front.pending().min(left);
            front.start += take;
            left -= take;
            if front.pending() == 0 && left > 0 {
                self.chunks.pop_front();
            }
        }
        self.trim();
    }

    /// Consume `len` buffered bytes as refcounted payload segments.
    fn take_payload(&mut self, len: usize) -> PayloadBytes {
        let mut pieces = Vec::new();
        let mut left = len;
        while left > 0 {
            let front = self.chunks.front_mut().expect("payload within available");
            let take = front.pending().min(left);
            pieces.push(Piece {
                buf: Arc::clone(&front.buf),
                start: front.start,
                len: take,
            });
            front.start += take;
            left -= take;
            if front.pending() == 0 && left > 0 {
                self.chunks.pop_front();
            }
        }
        self.trim();
        PayloadBytes { pieces, len }
    }

    /// Pull the next complete frame of either wire version: base kind,
    /// channel (0 for v1 frames), and the payload as zero-copy segments.
    pub fn next_frame_mux(&mut self) -> Result<Option<(u8, u16, PayloadBytes)>, FrameError> {
        let mut header = [0u8; 7];
        if !self.peek_copy(&mut header[..1]) {
            return Ok(None);
        }
        let hlen = header_len(header[0]);
        if !self.peek_copy(&mut header[..hlen]) {
            return Ok(None);
        }
        let (base_kind, channel, len) = parse_header(&header);
        if len as usize > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversize(len));
        }
        if self.available() < hlen + len as usize {
            return Ok(None);
        }
        self.consume(hlen);
        let payload = self.take_payload(len as usize);
        if base_kind == kind::DATA {
            self.data_frames += 1;
        }
        Ok(Some((base_kind, channel, payload)))
    }

    /// Pull the next complete frame with the payload copied out (legacy
    /// API; drops the channel tag). Each nonempty payload copied here
    /// counts in [`FrameAccumulator::payload_copies`].
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
        match self.next_frame_mux()? {
            Some((frame_kind, _channel, payload)) => {
                if !payload.is_empty() {
                    self.payload_copies += 1;
                }
                Ok(Some((frame_kind, payload.to_vec())))
            }
            None => Ok(None),
        }
    }

    /// Whether a partially received frame is buffered (an EOF now would be
    /// a truncated frame).
    pub fn mid_frame(&self) -> bool {
        self.available() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_cmd(cmd: WireCommand) {
        let mut buf = Vec::new();
        cmd.encode(&mut buf).unwrap();
        let (k, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(WireCommand::decode(k, payload).unwrap(), cmd);
    }

    fn roundtrip_resp(resp: WireResponse) {
        let mut buf = Vec::new();
        resp.encode(&mut buf).unwrap();
        let (k, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(WireResponse::decode(k, &payload).unwrap(), resp);
    }

    #[test]
    fn commands_roundtrip() {
        roundtrip_cmd(WireCommand::size(17, 130));
        roundtrip_cmd(WireCommand::size_traced(17, 130, 0xA5A5_DEAD_BEEF_0001));
        roundtrip_cmd(WireCommand::data_words(&[1, 2, 3, u64::MAX]));
        roundtrip_cmd(WireCommand::data_words(&[]));
        roundtrip_cmd(WireCommand::EndOfDocument);
        roundtrip_cmd(WireCommand::QueryResult);
        roundtrip_cmd(WireCommand::Reset);
        roundtrip_cmd(WireCommand::CloseChannel);
        roundtrip_cmd(WireCommand::GetStats { detail: 0 });
        roundtrip_cmd(WireCommand::GetStats { detail: 1 });
    }

    #[test]
    fn get_stats_roundtrips_on_a_channel() {
        let mut buf = Vec::new();
        WireCommand::GetStats { detail: 1 }
            .encode_on(9, &mut buf)
            .unwrap();
        assert_eq!(buf[0], kind::GET_STATS | CHANNEL_FLAG);
        let (k, ch, payload) = read_frame_mux(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!((k, ch), (kind::GET_STATS, 9));
        assert_eq!(
            WireCommand::decode(k, payload).unwrap(),
            WireCommand::GetStats { detail: 1 }
        );
    }

    #[test]
    fn stats_report_carries_opaque_bytes_on_any_channel() {
        let blob: Vec<u8> = (0..=255u8).collect();
        for channel in [0u16, 7] {
            let mut buf = Vec::new();
            WireResponse::StatsReport {
                payload: blob.clone(),
            }
            .encode_on(channel, &mut buf)
            .unwrap();
            let (k, ch, payload) = read_frame_mux(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!((k, ch), (kind::STATS_REPORT, channel));
            assert_eq!(
                WireResponse::decode(k, &payload).unwrap(),
                WireResponse::StatsReport {
                    payload: blob.clone()
                }
            );
        }
    }

    #[test]
    fn close_channel_roundtrips_on_a_channel() {
        let mut buf = Vec::new();
        WireCommand::CloseChannel.encode_on(42, &mut buf).unwrap();
        assert_eq!(buf[0], kind::CLOSE_CHANNEL | CHANNEL_FLAG);
        let (k, ch, payload) = read_frame_mux(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!((k, ch), (kind::CLOSE_CHANNEL, 42));
        assert_eq!(
            WireCommand::decode(k, payload).unwrap(),
            WireCommand::CloseChannel
        );
    }

    #[test]
    fn every_error_code_roundtrips_the_wire() {
        for code in [
            ErrorCode::NoResult,
            ErrorCode::SizeWhileBusy,
            ErrorCode::TruncatedTransfer,
            ErrorCode::UnexpectedDma,
            ErrorCode::WatchdogReset,
            ErrorCode::MalformedFrame,
            ErrorCode::EngineFault,
            ErrorCode::Busy,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::from_byte(code as u8).unwrap(), code);
            roundtrip_resp(WireResponse::Error {
                code,
                detail: "x".into(),
            });
        }
        assert!(ErrorCode::from_byte(0).is_err());
        assert!(ErrorCode::from_byte(10).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(WireResponse::Hello {
            languages: vec!["en".into(), "fr".into(), "español".into()],
        });
        roundtrip_resp(WireResponse::Result {
            counts: vec![4, 0, 99, u64::MAX],
            total_ngrams: 1234,
            checksum: 0xDEAD_BEEF,
            valid: true,
        });
        roundtrip_resp(WireResponse::Error {
            code: ErrorCode::TruncatedTransfer,
            detail: "3/100 words".into(),
        });
    }

    #[test]
    fn v2_frames_carry_their_channel() {
        let mut buf = Vec::new();
        WireCommand::size(3, 20).encode_on(7, &mut buf).unwrap();
        WireCommand::data_words(&[1, 2, 3])
            .encode_on(513, &mut buf)
            .unwrap();
        WireResponse::Error {
            code: ErrorCode::NoResult,
            detail: String::new(),
        }
        .encode_on(7, &mut buf)
        .unwrap();
        // First header byte: base kind + the channel flag.
        assert_eq!(buf[0], kind::SIZE | CHANNEL_FLAG);

        let mut r = buf.as_slice();
        let (k, ch, payload) = read_frame_mux(&mut r).unwrap().unwrap();
        assert_eq!((k, ch), (kind::SIZE, 7));
        assert_eq!(
            WireCommand::decode(k, payload).unwrap(),
            WireCommand::size(3, 20)
        );
        let (k, ch, payload) = read_frame_mux(&mut r).unwrap().unwrap();
        assert_eq!((k, ch), (kind::DATA, 513));
        assert_eq!(
            WireCommand::decode(k, payload).unwrap(),
            WireCommand::data_words(&[1, 2, 3])
        );
        let (k, ch, payload) = read_frame_mux(&mut r).unwrap().unwrap();
        assert_eq!((k, ch), (kind::ERROR, 7));
        assert!(matches!(
            WireResponse::decode(k, &payload).unwrap(),
            WireResponse::Error {
                code: ErrorCode::NoResult,
                ..
            }
        ));
        assert_eq!(read_frame_mux(&mut r).unwrap(), None);
    }

    #[test]
    fn channel_zero_encodes_as_v1() {
        let mut v1 = Vec::new();
        WireCommand::EndOfDocument.encode(&mut v1).unwrap();
        let mut on0 = Vec::new();
        WireCommand::EndOfDocument.encode_on(0, &mut on0).unwrap();
        assert_eq!(v1, on0);
        assert_eq!(v1.len(), 5); // v1 header, no channel field
    }

    #[test]
    fn short_dma_payload_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind::DATA, &[1, 2, 3, 4, 5]).unwrap();
        let (k, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(
            WireCommand::decode(k, payload),
            Err(FrameError::ShortDmaPayload(5))
        );
    }

    #[test]
    fn untraced_size_is_bit_identical_to_v1() {
        // The TraceContext extension must be invisible when absent: an
        // untraced Size encodes the exact 13 bytes a pre-extension peer
        // sends, so v1 captures stay byte-for-byte valid.
        let mut buf = Vec::new();
        WireCommand::size(17, 130).encode(&mut buf).unwrap();
        assert_eq!(buf.len(), 5 + 8);
        let mut expected = vec![kind::SIZE];
        expected.extend_from_slice(&8u32.to_le_bytes());
        expected.extend_from_slice(&17u32.to_le_bytes());
        expected.extend_from_slice(&130u32.to_le_bytes());
        assert_eq!(buf, expected);
    }

    #[test]
    fn traced_size_roundtrips_on_a_channel() {
        let mut buf = Vec::new();
        WireCommand::size_traced(3, 20, u64::MAX)
            .encode_on(7, &mut buf)
            .unwrap();
        assert_eq!(buf.len(), 7 + 16);
        let (k, ch, payload) = read_frame_mux(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!((k, ch), (kind::SIZE, 7));
        assert_eq!(
            WireCommand::decode(k, payload).unwrap(),
            WireCommand::size_traced(3, 20, u64::MAX)
        );
    }

    #[test]
    fn size_payload_between_8_and_16_bytes_is_rejected() {
        for len in [0usize, 7, 9, 12, 15, 17] {
            let payload = vec![0u8; len];
            assert!(
                WireCommand::decode(kind::SIZE, payload).is_err(),
                "len {len} must be malformed"
            );
        }
    }

    #[test]
    fn size_with_excess_bytes_is_rejected() {
        let mut payload = [0u8; 8];
        payload[..4].copy_from_slice(&2u32.to_le_bytes());
        payload[4..].copy_from_slice(&17u32.to_le_bytes()); // 17 > 2*8
        assert!(WireCommand::decode(kind::SIZE, payload.to_vec()).is_err());
    }

    #[test]
    fn oversize_frame_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_header(&mut buf, kind::DATA, u32::MAX).unwrap();
        assert!(read_frame(&mut buf.as_slice()).is_err());
        let mut acc = FrameAccumulator::new();
        acc.push(&buf);
        assert!(acc.next_frame().is_err());
        // Same guard on the v2 header.
        let mut buf = Vec::new();
        write_header_on(&mut buf, kind::DATA, 9, u32::MAX).unwrap();
        assert!(read_frame_mux(&mut buf.as_slice()).is_err());
        let mut acc = FrameAccumulator::new();
        acc.push(&buf);
        assert!(acc.next_frame_mux().is_err());
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        WireCommand::data_words(&[7, 8, 9])
            .encode(&mut buf)
            .unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(read_frame(&mut [].as_slice()).unwrap(), None);
    }

    #[test]
    fn accumulator_handles_byte_at_a_time_delivery() {
        let mut buf = Vec::new();
        WireCommand::size(3, 20).encode(&mut buf).unwrap();
        WireCommand::data_words(&[10, 20, 30])
            .encode(&mut buf)
            .unwrap();
        WireCommand::EndOfDocument.encode(&mut buf).unwrap();

        let mut acc = FrameAccumulator::new();
        let mut frames = Vec::new();
        for &b in &buf {
            acc.push(&[b]);
            while let Some((k, p)) = acc.next_frame().unwrap() {
                frames.push(WireCommand::decode(k, p).unwrap());
            }
        }
        assert!(!acc.mid_frame());
        assert_eq!(
            frames,
            vec![
                WireCommand::size(3, 20),
                WireCommand::data_words(&[10, 20, 30]),
                WireCommand::EndOfDocument,
            ]
        );
    }

    #[test]
    fn accumulator_fills_directly_from_reader() {
        let mut bytes = Vec::new();
        WireCommand::size(1, 8).encode(&mut bytes).unwrap();
        WireCommand::data_words(&[99]).encode(&mut bytes).unwrap();
        let mut reader = bytes.as_slice();
        let mut acc = FrameAccumulator::new();
        // Tiny reads split frames arbitrarily.
        let mut frames = Vec::new();
        loop {
            let n = acc.fill_from(&mut reader, 3).unwrap().bytes;
            while let Some((k, p)) = acc.next_frame().unwrap() {
                frames.push(WireCommand::decode(k, p).unwrap());
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(
            frames,
            vec![WireCommand::size(1, 8), WireCommand::data_words(&[99])]
        );
        assert!(!acc.mid_frame());
    }

    #[test]
    fn accumulator_reports_mid_frame() {
        let mut buf = Vec::new();
        WireCommand::data_words(&[1, 2]).encode(&mut buf).unwrap();
        let mut acc = FrameAccumulator::new();
        acc.push(&buf[..7]);
        assert_eq!(acc.next_frame().unwrap(), None);
        assert!(acc.mid_frame());
    }

    #[test]
    fn shared_payloads_are_zero_copy_and_counted() {
        // Two Data frames through the mux API: the payload pieces must
        // alias the rope (no copies counted), and the legacy Vec API on the
        // same stream must count its copies.
        let words: Vec<u64> = (0..100).collect();
        let mut buf = Vec::new();
        WireCommand::data_words(&words).encode(&mut buf).unwrap();
        WireCommand::data_words(&words)
            .encode_on(3, &mut buf)
            .unwrap();

        let mut acc = FrameAccumulator::new();
        acc.push(&buf);
        let (k, ch, p) = acc.next_frame_mux().unwrap().unwrap();
        assert_eq!((k, ch), (kind::DATA, 0));
        assert_eq!(
            WireCommand::decode(k, p).unwrap(),
            WireCommand::data_words(&words)
        );
        let (k, ch, p) = acc.next_frame_mux().unwrap().unwrap();
        assert_eq!((k, ch), (kind::DATA, 3));
        assert_eq!(p.len(), 800);
        assert_eq!(acc.data_frames(), 2);
        assert_eq!(acc.payload_copies(), 0);

        let mut acc = FrameAccumulator::new();
        acc.push(&buf);
        let _ = acc.next_frame().unwrap().unwrap();
        let _ = acc.next_frame().unwrap().unwrap();
        assert_eq!(acc.payload_copies(), 2);
    }

    #[test]
    fn payload_spanning_chunks_is_pieced_not_copied() {
        // A chunk far smaller than the payload forces the rope to span:
        // the payload comes back as several pieces whose bytes match.
        let words: Vec<u64> = (500..600).collect();
        let mut buf = Vec::new();
        WireCommand::data_words(&words)
            .encode_on(2, &mut buf)
            .unwrap();
        let mut acc = FrameAccumulator::with_chunk_size(64);
        let mut reader = buf.as_slice();
        loop {
            let n = acc.fill_from(&mut reader, 64).unwrap().bytes;
            if n == 0 {
                break;
            }
        }
        let (k, ch, p) = acc.next_frame_mux().unwrap().unwrap();
        assert_eq!((k, ch), (kind::DATA, 2));
        assert!(p.pieces().count() > 1, "must span chunks");
        assert!(p.contiguous().is_none());
        let mut expect = Vec::new();
        for w in &words {
            expect.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(p.to_vec(), expect);
        assert_eq!(acc.payload_copies(), 0);
    }

    #[test]
    fn rope_reuses_its_tail_chunk_once_payloads_drop() {
        let mut acc = FrameAccumulator::with_chunk_size(4096);
        for round in 0..50u64 {
            let mut buf = Vec::new();
            WireCommand::data_words(&[round; 16])
                .encode_on(1, &mut buf)
                .unwrap();
            acc.push(&buf);
            let (_, _, p) = acc.next_frame_mux().unwrap().unwrap();
            assert_eq!(p.len(), 128);
            drop(p); // releases the chunk for rewind-in-place
        }
        assert!(!acc.mid_frame());
        assert!(
            acc.chunks.len() <= 1,
            "dropped payloads must let the rope rewind, not grow"
        );
    }

    #[test]
    fn rope_keeps_a_shared_tail_chunk_and_reuses_it_once_the_payload_drops() {
        // The service pattern: a worker still holds the Data payload when
        // the reader's pass ends, and releases it before the next
        // document arrives. The rope must wait for it, not replace it.
        let frame = |round: u64| {
            let mut buf = Vec::new();
            WireCommand::data_words(&[round; 16])
                .encode_on(1, &mut buf)
                .unwrap();
            buf
        };
        let mut acc = FrameAccumulator::with_chunk_size(4096);
        let first = frame(1);
        let fill = acc.fill_from(&mut first.as_slice(), 4096).unwrap();
        assert_eq!(fill.bytes, first.len());
        assert!(fill.short, "the reader held less than the room offered");
        let (_, _, held) = acc.next_frame_mux().unwrap().unwrap();
        assert!(!acc.mid_frame());
        assert_eq!(acc.chunks.len(), 1, "the consumed tail chunk stays");
        let chunk = Arc::as_ptr(&acc.chunks[0].buf);
        assert_eq!(chunk, Arc::as_ptr(&held.pieces[0].buf));
        drop(held);
        let second = frame(2);
        let fill = acc.fill_from(&mut second.as_slice(), 4096).unwrap();
        assert_eq!(fill.bytes, second.len());
        assert_eq!(acc.chunks.len(), 1, "one chunk in the rope");
        assert_eq!(
            Arc::as_ptr(&acc.chunks[0].buf),
            chunk,
            "the consumed tail chunk must be rewound and reused"
        );
        let (_, _, p) = acc.next_frame_mux().unwrap().unwrap();
        assert_eq!(p.to_vec(), [2u64.to_le_bytes(); 16].concat());
    }

    #[test]
    fn fill_is_short_only_below_the_room_it_offered() {
        let bytes = [7u8; 100];
        let mut acc = FrameAccumulator::with_chunk_size(64);
        let mut reader = bytes.as_slice();
        // A clamp the reader fills is not short, nor is a read that fills
        // the chunk's spare room below the clamp.
        assert_eq!(
            acc.fill_from(&mut reader, 10).unwrap(),
            Fill {
                bytes: 10,
                short: false
            }
        );
        assert_eq!(
            acc.fill_from(&mut reader, 1000).unwrap(),
            Fill {
                bytes: 54,
                short: false
            }
        );
        // A fresh chunk offers 64 bytes; 36 remain.
        assert_eq!(
            acc.fill_from(&mut reader, 1000).unwrap(),
            Fill {
                bytes: 36,
                short: true
            }
        );
        assert_eq!(
            acc.fill_from(&mut reader, 1000).unwrap(),
            Fill {
                bytes: 0,
                short: true
            }
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any mix of v1 and v2 frames, delivered in arbitrary splits, must
        /// decode to the same (channel, command) sequence it encoded.
        #[test]
        fn mixed_v1_v2_frames_interleave_on_one_stream(
            chans in proptest::collection::vec(0u16..5, 1..12),
            lens in proptest::collection::vec(0usize..40, 1..12),
            split in 1usize..40,
        ) {
            let frames: Vec<(u16, Vec<u64>)> = chans
                .iter()
                .zip(lens.iter().cycle())
                .enumerate()
                .map(|(i, (&ch, &len))| {
                    let words: Vec<u64> = (0..len as u64)
                        .map(|j| (i as u64) << 32 | j.wrapping_mul(0x9E37_79B9))
                        .collect();
                    (ch, words)
                })
                .collect();
            let mut buf = Vec::new();
            for (ch, words) in &frames {
                WireCommand::data_words(words).encode_on(*ch, &mut buf).unwrap();
            }
            let mut acc = FrameAccumulator::with_chunk_size(97);
            let mut decoded = Vec::new();
            for part in buf.chunks(split) {
                acc.push(part);
                while let Some((k, ch, p)) = acc.next_frame_mux().unwrap() {
                    decoded.push((ch, WireCommand::decode(k, p).unwrap()));
                }
            }
            prop_assert!(!acc.mid_frame());
            let expect: Vec<(u16, WireCommand)> = frames
                .iter()
                .map(|(ch, words)| (*ch, WireCommand::data_words(words)))
                .collect();
            prop_assert_eq!(decoded, expect);
        }
    }
}
