//! End-to-end tests of the TCP classification service: concurrent clients
//! over localhost must get results bit-identical to direct in-process
//! classification, and faulty peers (truncated frames, short DMA payloads,
//! stalled sessions) must be answered and recovered from — the
//! `tests/protocol_faults.rs` suite, over a real socket.

use lcbloom::prelude::*;
use lcbloom::service::{serve, ClientError, ServiceConfig};
use lcbloom::wire::{pack_words, read_frame, write_frame, ErrorCode, WireCommand, WireResponse};
use std::io::Write;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::Duration;

fn classifier() -> Arc<MultiLanguageClassifier> {
    static CLASSIFIER: std::sync::OnceLock<Arc<MultiLanguageClassifier>> =
        std::sync::OnceLock::new();
    Arc::clone(CLASSIFIER.get_or_init(|| {
        let corpus = Corpus::generate(CorpusConfig {
            docs_per_language: 12,
            mean_doc_bytes: 2048,
            ..CorpusConfig::default()
        });
        Arc::new(lcbloom::train_bloom_classifier(
            &corpus,
            1000,
            BloomParams::PAPER_CONSERVATIVE,
            21,
        ))
    }))
}

fn test_docs() -> Vec<Vec<u8>> {
    let corpus = Corpus::generate(CorpusConfig {
        docs_per_language: 6,
        mean_doc_bytes: 3000,
        seed: 0xD0C5,
        ..CorpusConfig::default()
    });
    corpus.split().test_all().map(|d| d.text.clone()).collect()
}

fn start(workers: usize, watchdog: Duration) -> lcbloom::service::ServerHandle {
    serve(
        classifier(),
        "127.0.0.1:0",
        ServiceConfig {
            workers,
            watchdog,
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost")
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let c = classifier();
    let server = start(2, Duration::from_secs(5));
    let addr = server.addr();
    let docs = test_docs();
    assert!(docs.len() >= 20, "need enough documents to share around");

    const CLIENTS: usize = 5;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client_id| {
                let docs = &docs;
                let c = &c;
                s.spawn(move || {
                    let mut client = ClassifyClient::connect(addr).expect("connect");
                    assert_eq!(client.languages(), c.names());
                    // Each client classifies an interleaved slice of the
                    // corpus, twice (session reuse across documents).
                    for pass in 0..2 {
                        for doc in docs.iter().skip(client_id).step_by(CLIENTS) {
                            let served = client.classify(doc).expect("classify");
                            assert!(served.valid, "pass {pass}: transfer flagged invalid");
                            assert_eq!(
                                served.result,
                                c.classify(doc),
                                "served result must equal in-process classification"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let snap = server.metrics().snapshot();
    assert_eq!(snap.documents, 2 * docs.len() as u64);
    assert_eq!(snap.connections, CLIENTS as u64);
    assert_eq!(snap.protocol_errors, 0);
    server.shutdown();
}

#[test]
fn subsampled_classifier_is_served_bit_identically() {
    // The seed bug this pins: every streaming consumer hardcoded
    // subsample-1 extraction, so a sub-sampled classifier served over TCP
    // silently returned different counts than whole-buffer classify. The
    // session now inherits the classifier's full extraction config.
    let docs = test_docs();
    for s in [2usize, 3] {
        let mut sub = (*classifier()).clone();
        sub.set_subsampling(s);
        let sub = Arc::new(sub);
        let server = serve(
            Arc::clone(&sub),
            "127.0.0.1:0",
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("bind localhost");
        let mut client = ClassifyClient::connect(server.addr()).expect("connect");
        for doc in docs.iter().take(8) {
            let served = client.classify(doc).expect("classify");
            assert!(served.valid);
            let expected = sub.classify(doc);
            assert_eq!(
                served.result, expected,
                "s={s}: served result must equal whole-buffer classification"
            );
            // The factor visibly thinned the served stream — both sides
            // ignoring the knob would also "agree".
            let full = classifier().classify(doc).total_ngrams();
            assert!(
                served.result.total_ngrams() <= full / s as u64 + 1,
                "s={s}: served {} n-grams, subsample-1 count is {full}",
                served.result.total_ngrams(),
            );
        }
        drop(client);
        server.shutdown();
    }
}

#[test]
fn arbitrary_chunkings_are_equivalent() {
    // The server must be insensitive to how a document is split across
    // Data frames — one word at a time, odd bursts, or one giant frame.
    let c = classifier();
    let server = start(1, Duration::from_secs(5));
    let doc = b"the committee shall deliver its opinion on the draft measures within a time \
                limit which the chairman may lay down according to the urgency of the matter";
    let words = pack_words(doc);
    let expected = c.classify(doc);

    for burst in [1usize, 2, 3, 7, words.len()] {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            WireResponse::decode(kind, &payload).unwrap(),
            WireResponse::Hello { .. }
        ));
        WireCommand::Size {
            words: words.len() as u32,
            bytes: doc.len() as u32,
            trace: None,
        }
        .encode(&mut stream)
        .unwrap();
        for chunk in words.chunks(burst) {
            WireCommand::data_words(chunk).encode(&mut stream).unwrap();
        }
        WireCommand::EndOfDocument.encode(&mut stream).unwrap();
        WireCommand::QueryResult.encode(&mut stream).unwrap();
        let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
        match WireResponse::decode(kind, &payload).unwrap() {
            WireResponse::Result {
                counts,
                total_ngrams,
                checksum,
                valid,
            } => {
                assert!(valid);
                assert_eq!(checksum, lcbloom::wire::xor_checksum(&words));
                assert_eq!(
                    ClassificationResult::new(counts, total_ngrams),
                    expected,
                    "burst size {burst}"
                );
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }
    server.shutdown();
}

/// Raw connection that swallows the Hello banner.
fn raw_conn(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        WireResponse::decode(kind, &payload).unwrap(),
        WireResponse::Hello { .. }
    ));
    stream
}

/// [`raw_conn`] with its receive buffer pinned small, for peers that stop
/// reading. Left to autotune, a silent peer's buffer can grow to the
/// host's `tcp_rmem` maximum and absorb every response, so the server keeps
/// seeing write progress; pinned, it backs the server up after a small
/// backlog on any host.
fn silent_conn(addr: std::net::SocketAddr) -> TcpStream {
    let stream = raw_conn(addr);
    lc_reactor::set_recv_buffer(stream.as_raw_fd(), 4096).expect("SO_RCVBUF");
    stream
}

fn expect_error(stream: &mut TcpStream, want: ErrorCode) {
    let (kind, payload) = read_frame(stream).unwrap().expect("response before EOF");
    match WireResponse::decode(kind, &payload).unwrap() {
        WireResponse::Error { code, .. } => assert_eq!(code, want),
        other => panic!("expected {want:?} error, got {other:?}"),
    }
}

#[test]
fn short_dma_payload_is_answered_as_malformed() {
    let server = start(1, Duration::from_secs(5));
    let mut stream = raw_conn(server.addr());
    // A Data frame whose payload is not a whole number of 64-bit words.
    write_frame(&mut stream, 0x02, &[1, 2, 3, 4, 5]).unwrap();
    expect_error(&mut stream, ErrorCode::MalformedFrame);
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_leaves_server_healthy() {
    let c = classifier();
    let server = start(1, Duration::from_secs(5));
    {
        let mut stream = raw_conn(server.addr());
        // Announce a 100-byte payload, send 4 bytes, vanish.
        stream.write_all(&[0x02, 100, 0, 0, 0]).unwrap();
        stream.write_all(&[9, 9, 9, 9]).unwrap();
    }
    // A well-behaved client is served as if nothing happened.
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    let doc = b"the quick brown fox jumps over the lazy dog";
    assert_eq!(client.classify(doc).unwrap().result, c.classify(doc));
    assert!(server.metrics().snapshot().protocol_errors >= 1);
    server.shutdown();
}

#[test]
fn truncated_transfer_is_reported_and_recovered() {
    let c = classifier();
    let server = start(1, Duration::from_secs(5));
    let mut stream = raw_conn(server.addr());
    WireCommand::Size {
        words: 100,
        bytes: 800,
        trace: None,
    }
    .encode(&mut stream)
    .unwrap();
    WireCommand::data_words(&[1, 2, 3])
        .encode(&mut stream)
        .unwrap();
    WireCommand::EndOfDocument.encode(&mut stream).unwrap();
    expect_error(&mut stream, ErrorCode::TruncatedTransfer);

    // Same connection, clean retransmission.
    let doc = b"le conseil de l'union europeenne a arrete le present reglement";
    let words = pack_words(doc);
    WireCommand::Size {
        words: words.len() as u32,
        bytes: doc.len() as u32,
        trace: None,
    }
    .encode(&mut stream)
    .unwrap();
    WireCommand::data_words(&words).encode(&mut stream).unwrap();
    WireCommand::QueryResult.encode(&mut stream).unwrap();
    let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
    match WireResponse::decode(kind, &payload).unwrap() {
        WireResponse::Result {
            counts,
            total_ngrams,
            ..
        } => assert_eq!(
            ClassificationResult::new(counts, total_ngrams),
            c.classify(doc)
        ),
        other => panic!("expected Result, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn stalled_session_is_watchdog_reset_then_recovers() {
    let c = classifier();
    let server = start(1, Duration::from_millis(150));
    let mut stream = raw_conn(server.addr());
    WireCommand::Size {
        words: 50,
        bytes: 400,
        trace: None,
    }
    .encode(&mut stream)
    .unwrap();
    WireCommand::data_words(&[7]).encode(&mut stream).unwrap();
    // Stall past the watchdog; the server notices via its tick loop and
    // sends the reset notice unprompted.
    expect_error(&mut stream, ErrorCode::WatchdogReset);
    assert_eq!(server.metrics().snapshot().watchdog_resets, 1);

    // The session is reusable afterwards.
    let doc = b"the quick brown fox jumps over the lazy dog again";
    let words = pack_words(doc);
    WireCommand::Size {
        words: words.len() as u32,
        bytes: doc.len() as u32,
        trace: None,
    }
    .encode(&mut stream)
    .unwrap();
    WireCommand::data_words(&words).encode(&mut stream).unwrap();
    WireCommand::QueryResult.encode(&mut stream).unwrap();
    let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
    match WireResponse::decode(kind, &payload).unwrap() {
        WireResponse::Result {
            counts,
            total_ngrams,
            ..
        } => assert_eq!(
            ClassificationResult::new(counts, total_ngrams),
            c.classify(doc)
        ),
        other => panic!("expected Result, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn data_before_size_and_empty_query_are_protocol_errors() {
    let server = start(1, Duration::from_secs(5));
    let mut stream = raw_conn(server.addr());
    WireCommand::data_words(&[0xDEAD])
        .encode(&mut stream)
        .unwrap();
    expect_error(&mut stream, ErrorCode::UnexpectedDma);
    WireCommand::QueryResult.encode(&mut stream).unwrap();
    expect_error(&mut stream, ErrorCode::NoResult);
    server.shutdown();
}

#[test]
fn remote_faults_surface_through_the_client() {
    let server = start(1, Duration::from_secs(5));
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    client.send_command(&WireCommand::QueryResult).unwrap();
    match client.read_response() {
        Ok(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::NoResult),
        other => panic!("expected NoResult error, got {other:?}"),
    }
    // Typed errors from the classify path too: an oversized Size is the
    // server's SizeWhileBusy after a first announcement.
    client
        .send_command(&WireCommand::Size {
            words: 4,
            bytes: 32,
            trace: None,
        })
        .unwrap();
    client
        .send_command(&WireCommand::Size {
            words: 4,
            bytes: 32,
            trace: None,
        })
        .unwrap();
    match client.read_response() {
        Ok(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::SizeWhileBusy),
        other => panic!("expected SizeWhileBusy error, got {other:?}"),
    }
    drop(client);

    // ClientError::Remote carries the code for API users.
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    client.send_command(&WireCommand::data_words(&[1])).unwrap();
    match client.read_response() {
        Ok(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::UnexpectedDma),
        other => panic!("expected UnexpectedDma error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn empty_documents_and_session_reuse() {
    let c = classifier();
    let server = start(2, Duration::from_secs(5));
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    let served = client.classify(b"").expect("empty doc");
    assert_eq!(served.result.total_ngrams(), 0);
    assert_eq!(served.checksum, 0);
    let doc = b"and then a real document follows on the same session";
    assert_eq!(client.classify(doc).unwrap().result, c.classify(doc));
    server.shutdown();
}

/// Build one pipelined document burst (Size + Data + EoD + Query) as raw
/// bytes, for peers that script their own socket behaviour.
fn doc_burst(doc: &[u8], copies: usize) -> Vec<u8> {
    let words = pack_words(doc);
    let mut bytes = Vec::new();
    for _ in 0..copies {
        WireCommand::Size {
            words: words.len() as u32,
            bytes: doc.len() as u32,
            trace: None,
        }
        .encode(&mut bytes)
        .unwrap();
        WireCommand::data_words(&words).encode(&mut bytes).unwrap();
        WireCommand::EndOfDocument.encode(&mut bytes).unwrap();
        WireCommand::QueryResult.encode(&mut bytes).unwrap();
    }
    bytes
}

#[test]
fn high_concurrency_512_clients_bit_identical() {
    // The scenario the thread-per-connection design could not reach: 512
    // concurrent pipelined clients, results bit-identical to in-process
    // classification. 16 threads own 32 connections each; every
    // connection is open before any thread starts classifying, so all 512
    // are simultaneously live.
    lcbloom::service::raise_nofile_limit(8192).expect("raise fd limit");
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            reactors: 2,
            max_connections: 2048,
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();
    let docs = test_docs();

    const THREADS: usize = 16;
    const CONNS_PER_THREAD: usize = 32;
    const DOCS_PER_CONN: usize = 3;
    let all_open = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let docs = &docs;
                let c = &c;
                let all_open = &all_open;
                s.spawn(move || {
                    let mut clients: Vec<_> = (0..CONNS_PER_THREAD)
                        .map(|_| {
                            // Retry: 512 near-simultaneous connects can
                            // transiently overflow the accept backlog.
                            for _ in 0..50 {
                                if let Ok(cl) = ClassifyClient::connect(addr) {
                                    return cl;
                                }
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            panic!("could not connect");
                        })
                        .collect();
                    all_open.wait();
                    for (i, client) in clients.iter_mut().enumerate() {
                        let picks: Vec<&[u8]> = (0..DOCS_PER_CONN)
                            .map(|d| {
                                docs[(t * CONNS_PER_THREAD + i * DOCS_PER_CONN + d) % docs.len()]
                                    .as_slice()
                            })
                            .collect();
                        let served = client.classify_many(&picks, 2).expect("classify_many");
                        for (doc, served) in picks.iter().zip(served) {
                            assert!(served.valid);
                            assert_eq!(
                                served.result,
                                c.classify(doc),
                                "served result must equal in-process classification"
                            );
                        }
                    }
                    clients.len()
                })
            })
            .collect();
        let total: usize = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum();
        assert_eq!(total, 512);
    });

    let snap = server.shutdown();
    assert_eq!(snap.connections, 512);
    assert_eq!(snap.connections_peak, 512, "all 512 must be live at once");
    assert_eq!(snap.documents, 512 * DOCS_PER_CONN as u64);
    assert_eq!(snap.protocol_errors, 0);
    assert_eq!(snap.slow_consumer_resets, 0);
}

#[test]
fn high_concurrency_slow_reader_stalls_only_itself() {
    // One deliberately non-reading peer pipelines thousands of documents
    // into a single-shard server and never reads a response. In the
    // threaded design its shard wedged on a blocked write for up to the
    // 30 s write timeout per response; now its responses pile into its own
    // outbound queue and everyone else on the shard is served at normal
    // latency.
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1, // one shard: the slow peer and the fast client share it
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();

    let mut slow = raw_conn(addr);
    // A live reactor keeps reading this burst; if it died, the write would
    // block forever once the socket buffers filled. Bound it instead.
    slow.set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    const SLOW_DOCS: usize = 3000;
    slow.write_all(&doc_burst(b"the slow peer sends and sends", SLOW_DOCS))
        .unwrap();
    // The slow peer now has thousands of unread responses queued; it stays
    // connected and silent. Everyone else must not notice.
    let fast_docs = test_docs();
    let started = std::time::Instant::now();
    let mut fast = ClassifyClient::connect(addr).expect("connect");
    for doc in fast_docs.iter().take(20) {
        let served = fast.classify(doc).expect("classify behind a slow reader");
        assert_eq!(served.result, c.classify(doc));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "slow reader delayed the shard: 20 docs took {elapsed:?} \
         (the threaded design stalled ~30 s per blocked write)"
    );

    // The slow peer's backlog still classifies to completion (responses
    // pile in its outbound queue; nothing is lost, nobody is blocked).
    let drained = std::time::Instant::now() + Duration::from_secs(30);
    while (server.metrics().snapshot().documents as usize) < SLOW_DOCS + 20
        && std::time::Instant::now() < drained
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(slow);
    let snap = server.shutdown();
    assert_eq!(snap.documents as usize, SLOW_DOCS + 20);
    assert_eq!(snap.protocol_errors, 0);
}

#[test]
fn slow_consumer_is_reset_not_left_stalling() {
    // With a small send buffer, a tight high-water mark and a short
    // deadline, a peer that will not read is disconnected and counted —
    // instead of parking an outbound queue forever.
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            send_buffer: 4096,
            outbound_high_water: 32 * 1024,
            slow_consumer_deadline: Duration::from_millis(300),
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();

    let slow = silent_conn(addr);
    // Nonblocking writes: once the server masks the slow peer's EPOLLIN,
    // nothing drains the socket and a blocking write would deadlock the
    // test itself.
    slow.set_nonblocking(true).unwrap();
    let burst = doc_burst(b"unread responses pile up", 6000);
    let mut written = 0usize;
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    let mut slow = slow;
    while std::time::Instant::now() < deadline {
        if server.metrics().snapshot().slow_consumer_resets >= 1 {
            break;
        }
        if written < burst.len() {
            match slow.write(&burst[written..]) {
                Ok(n) => {
                    written += n;
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {} // reset by the server: also fine
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // A well-behaved client is served throughout and afterwards.
    let mut fast = ClassifyClient::connect(addr).expect("connect");
    let doc = b"the quick brown fox jumps over the lazy dog";
    assert_eq!(fast.classify(doc).unwrap().result, c.classify(doc));

    let snap = server.shutdown();
    assert!(
        snap.outbound_stalls >= 1,
        "outbound queue never crossed high-water: {snap:?}"
    );
    assert!(
        snap.slow_consumer_resets >= 1,
        "slow consumer was never reset: {snap:?}"
    );
}

#[test]
fn slow_consumer_partial_drain_then_silence_is_still_reset() {
    // The sneakiest slow consumer: fill the outbound queue past
    // high-water, read just enough to trigger one more flush (write
    // progress), then go completely silent. The partial drain must
    // restart the slow-consumer clock, not disarm it — a disarmed clock
    // here leaks the connection forever, because a silent peer generates
    // no further events.
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            send_buffer: 4096,
            outbound_high_water: 32 * 1024,
            slow_consumer_deadline: Duration::from_millis(300),
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();

    let slow = silent_conn(addr);
    slow.set_nonblocking(true).unwrap();
    let mut slow = slow;
    let burst = doc_burst(b"drain a little then freeze", 6000);
    let mut written = 0usize;
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    // Phase 1: pump documents until the server masks us (queue > HWM).
    while server.metrics().snapshot().outbound_stalls == 0 && std::time::Instant::now() < deadline {
        if written < burst.len() {
            match slow.write(&burst[written..]) {
                Ok(n) => {
                    written += n;
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.metrics().snapshot().outbound_stalls >= 1,
        "queue never crossed high-water"
    );
    // Phase 2: the partial drain — read ~8 KiB of responses, then freeze.
    let mut drained = 0usize;
    let mut chunk = [0u8; 1024];
    while drained < 8 * 1024 && std::time::Instant::now() < deadline {
        match std::io::Read::read(&mut slow, &mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    assert!(
        drained > 0,
        "peer read nothing; the scenario needs progress"
    );
    // Phase 3: total silence. The reset must still fire.
    let waited = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().snapshot().slow_consumer_resets == 0
        && std::time::Instant::now() < waited
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = server.shutdown();
    assert!(
        snap.slow_consumer_resets >= 1,
        "partial drain disarmed the slow-consumer clock: {snap:?}"
    );
}

#[test]
fn accepts_beyond_max_connections_are_rejected() {
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            max_connections: 4,
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();

    // Fill the cap; reading each Hello proves the connection is counted
    // before the next connect.
    let mut kept: Vec<ClassifyClient> = (0..4)
        .map(|_| ClassifyClient::connect(addr).expect("connect under cap"))
        .collect();
    // Beyond the cap the server accepts and immediately closes: no Hello.
    for _ in 0..3 {
        match ClassifyClient::connect(addr) {
            Err(ClientError::Io(_)) => {}
            Ok(_) => panic!("connection beyond max_connections served a Hello"),
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    // The capped connections still work.
    let doc = b"still serving the connections under the cap";
    for client in &mut kept {
        assert_eq!(client.classify(doc).unwrap().result, c.classify(doc));
    }
    drop(kept);
    let snap = server.shutdown();
    assert_eq!(snap.connections, 4);
    assert!(snap.accepts_rejected >= 3, "{snap:?}");
}

#[test]
fn multiplexed_channels_are_bit_identical_and_zero_copy() {
    // One connection, four channels: every document must classify exactly
    // as in-process, the channel gauges must see the fan-out, and the
    // reactor→worker path must have copied zero Data payloads.
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let docs = test_docs();
    let picks: Vec<&[u8]> = docs.iter().map(|d| d.as_slice()).collect();

    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    let served = client
        .classify_many_mux(&picks, 4, 8)
        .expect("multiplexed classify");
    assert_eq!(served.len(), picks.len());
    for (doc, served) in picks.iter().zip(&served) {
        assert!(served.valid);
        assert_eq!(
            served.result,
            c.classify(doc),
            "multiplexed result must equal in-process classification"
        );
    }
    // Manual channel management rides the same connection: ids from
    // open_channel (including one the batch above already used — reuse is
    // legal) classify one-off documents via classify_on, and channel 0
    // still speaks v1.
    let ch = client.open_channel();
    assert_eq!(ch, 1, "ids start at 1");
    for channel in [ch, client.open_channel(), 0] {
        let served = client
            .classify_on(channel, picks[0])
            .unwrap_or_else(|e| panic!("classify_on channel {channel}: {e}"));
        assert_eq!(served.result, c.classify(picks[0]), "channel {channel}");
    }
    drop(client);

    let snap = server.shutdown();
    assert_eq!(snap.documents, picks.len() as u64 + 3);
    // The batch opened channels 1-4; classify_on reused 1 and 2 (no new
    // sessions) and then touched the v1 stream, channel 0 — five total.
    assert_eq!(
        snap.channels_peak, 5,
        "channels 0-4 must all have been live"
    );
    assert_eq!(
        snap.channels_current, 0,
        "all channels closed with the conn"
    );
    assert_eq!(snap.protocol_errors, 0);
    assert!(snap.data_frames > 0);
    assert_eq!(
        snap.payload_copies, 0,
        "reactor→worker Data path must be zero-copy"
    );
}

#[test]
fn close_channel_frees_its_slot_for_reuse() {
    // With max_channels = 2, a connection that has used channels 1 and 2
    // cannot open a third — unless it retires one first. CloseChannel
    // must free the slot immediately (the reactor removes the table entry
    // in its decode loop, strictly before any later frame), so the
    // follow-up channel is admitted on the same connection.
    let c = classifier();
    let config = ServiceConfig {
        workers: 2,
        max_channels: 2,
        ..ServiceConfig::default()
    };
    let doc = b"the quick brown fox jumps over the lazy dog";
    let expected = c.classify(doc);

    // Control: without the close, the third channel kills the connection.
    let server = serve(Arc::clone(&c), "127.0.0.1:0", config.clone()).expect("bind localhost");
    let mut victim = ClassifyClient::connect(server.addr()).expect("connect");
    victim.classify_on(1, doc).expect("channel 1");
    victim.classify_on(2, doc).expect("channel 2");
    assert!(
        victim.classify_on(3, doc).is_err(),
        "third channel must exceed max_channels = 2"
    );
    drop(victim);

    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    assert_eq!(client.classify_on(1, doc).unwrap().result, expected);
    assert_eq!(client.classify_on(2, doc).unwrap().result, expected);
    client.close_channel(1).expect("close channel 1");
    assert_eq!(
        client
            .classify_on(3, doc)
            .expect("closed slot must be reusable")
            .result,
        expected
    );
    drop(client);

    let snap = server.shutdown();
    assert!(snap.channels_closed >= 1, "{snap:?}");
    assert_eq!(snap.channels_current, 0, "all channels gone with the conns");
    assert!(
        snap.protocol_errors >= 1,
        "the control connection's third channel must have errored"
    );
}

#[test]
fn v1_client_against_v2_server_is_unmodified() {
    // The back-compat contract, pinned explicitly: a peer speaking only
    // 5-byte v1 frames (no channel field anywhere) gets served exactly as
    // before the v2 upgrade — banner, pipelining, results, teardown — and
    // the server accounts it as the single channel 0.
    let c = classifier();
    let server = start(2, Duration::from_secs(5));
    let mut stream = raw_conn(server.addr());
    let docs = test_docs();
    let expected: Vec<_> = docs.iter().take(6).map(|d| c.classify(d)).collect();
    // Hand-built v1 pipeline: all six documents in flight before the
    // first response is read.
    for doc in docs.iter().take(6) {
        stream.write_all(&doc_burst(doc, 1)).unwrap();
    }
    for expect in &expected {
        // Read the raw 5-byte v1 header off the socket ourselves: the
        // convenience readers strip the channel flag, which would make
        // this assertion vacuous. A genuine v1 peer parses exactly these
        // bytes, so the flag bit must be absent *on the wire*.
        let mut header = [0u8; 5];
        std::io::Read::read_exact(&mut stream, &mut header).unwrap();
        let kind = header[0];
        assert_eq!(
            kind & lcbloom::wire::CHANNEL_FLAG,
            0,
            "response must be v1-framed on the wire"
        );
        let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len];
        std::io::Read::read_exact(&mut stream, &mut payload).unwrap();
        match WireResponse::decode(kind, &payload).unwrap() {
            WireResponse::Result {
                counts,
                total_ngrams,
                valid,
                ..
            } => {
                assert!(valid);
                assert_eq!(&ClassificationResult::new(counts, total_ngrams), expect);
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }
    drop(stream);
    let snap = server.shutdown();
    assert_eq!(snap.documents, 6);
    assert_eq!(
        snap.channels_peak, 1,
        "a v1 connection is exactly one channel"
    );
    assert_eq!(snap.protocol_errors, 0);
}

#[test]
fn channel_faults_stay_on_their_channel() {
    // A fault on one channel (data with no Size) must be answered on that
    // channel and leave sibling channels' documents untouched.
    let c = classifier();
    let server = start(2, Duration::from_secs(5));
    let mut stream = raw_conn(server.addr());
    let doc = b"the quick brown fox jumps over the lazy dog";
    let words = pack_words(doc);
    // Channel 3: a healthy document. Channel 5: a protocol fault.
    WireCommand::Size {
        words: words.len() as u32,
        bytes: doc.len() as u32,
        trace: None,
    }
    .encode_on(3, &mut stream)
    .unwrap();
    WireCommand::data_words(&[0xBAD])
        .encode_on(5, &mut stream)
        .unwrap();
    WireCommand::data_words(&words)
        .encode_on(3, &mut stream)
        .unwrap();
    WireCommand::QueryResult.encode_on(3, &mut stream).unwrap();

    let mut got_fault = false;
    let mut got_result = false;
    for _ in 0..2 {
        let (kind, channel, payload) = lcbloom::wire::read_frame_mux(&mut stream)
            .unwrap()
            .expect("response before EOF");
        match WireResponse::decode(kind, &payload).unwrap() {
            WireResponse::Error { code, .. } => {
                assert_eq!(channel, 5, "fault must carry the faulting channel");
                assert_eq!(code, ErrorCode::UnexpectedDma);
                got_fault = true;
            }
            WireResponse::Result {
                counts,
                total_ngrams,
                ..
            } => {
                assert_eq!(channel, 3, "result must carry its channel");
                assert_eq!(
                    ClassificationResult::new(counts, total_ngrams),
                    c.classify(doc)
                );
                got_result = true;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(got_fault && got_result);
    server.shutdown();
}

#[test]
fn graceful_shutdown_joins_all_threads() {
    let server = start(2, Duration::from_secs(5));
    let addr = server.addr();
    let mut client = ClassifyClient::connect(addr).expect("connect");
    let _ = client.classify(b"a short goodbye document").unwrap();
    drop(client);
    server.shutdown();
    // The port no longer accepts work.
    match ClassifyClient::connect(addr) {
        Err(ClientError::Io(_)) => {}
        Ok(_) => {
            // A connect may be accepted by the OS backlog race; but no
            // Hello will ever arrive from a dead server, which surfaces
            // as an Io error above. Reaching Ok means something answered:
            // that would be a bug.
            panic!("server still serving after shutdown");
        }
        Err(e) => panic!("unexpected error class: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Live introspection plane: wire-v2 GetStats / StatsReport.

#[test]
fn wire_stats_match_the_in_process_snapshot_once_quiesced() {
    let server = start(3, Duration::from_secs(5));
    let addr = server.addr();
    let docs = test_docs();
    let refs: Vec<&[u8]> = docs.iter().map(|d| d.as_slice()).collect();
    let mut client = ClassifyClient::connect(addr).expect("connect");
    let served = client
        .classify_many_mux(&refs, 6, 8)
        .expect("classify batch");
    assert_eq!(served.len(), docs.len());

    // Quiesced: every response was received, and a document's counters are
    // all bumped before its response frame is even enqueued — so the
    // report below sees a consistent, final view of the batch. The one
    // exception is the response-drain stage: the write-through fast path
    // makes a response visible to the peer a beat before its drain time is
    // recorded, so give that last record a moment to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server
        .metrics()
        .snapshot()
        .response_drain
        .iter()
        .sum::<u64>()
        < docs.len() as u64
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut stats_conn = ClassifyClient::connect(addr).expect("connect stats");
    let wire = stats_conn.stats(0).expect("stats over the wire");
    let local = server.metrics().snapshot();

    assert_eq!(wire.documents, docs.len() as u64);
    assert_eq!(
        wire.shards.iter().map(|s| s.docs).sum::<u64>(),
        wire.documents,
        "per-shard docs sum to the global document count"
    );
    assert_eq!(wire.shards.len(), 3, "one entry per worker shard");
    assert_eq!(wire.bytes, local.bytes);
    assert_eq!(wire.ngrams, local.ngrams);
    assert_eq!(wire.lang_wins, local.lang_wins);
    assert_eq!(
        wire.lang_wins.iter().sum::<u64>(),
        wire.documents,
        "every document wins exactly one language"
    );
    assert_eq!(wire.latency, local.latency);
    assert_eq!(wire.queue_wait, local.queue_wait);
    assert_eq!(wire.classify, local.classify);
    for (name, hist) in [
        ("latency", &wire.latency),
        ("queue-wait", &wire.queue_wait),
        ("classify", &wire.classify),
        ("response-drain", &wire.response_drain),
    ] {
        assert_eq!(
            hist.iter().sum::<u64>(),
            wire.documents,
            "{name} histogram counts one entry per document"
        );
    }
    assert!(
        wire.shards.iter().map(|s| s.jobs).sum::<u64>() > 0,
        "shard job counters moved"
    );
    assert!(wire.rings.is_empty(), "detail=0 carries no ring dumps");
    server.shutdown();
}

#[test]
fn stats_answer_inline_while_the_pool_is_busy() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let server = start(2, Duration::from_secs(5));
    let addr = server.addr();
    let docs = test_docs();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut client = ClassifyClient::connect(addr).expect("connect load");
            let refs: Vec<&[u8]> = docs.iter().map(|d| d.as_slice()).collect();
            while !stop.load(Ordering::Relaxed) {
                client.classify_many_mux(&refs, 4, 8).expect("load batch");
            }
        });
        // GetStats is answered inline by the reactor's decode loop — never
        // queued behind the documents saturating the shard queues — so the
        // reports keep flowing mid-load.
        let mut stats_conn = ClassifyClient::connect(addr).expect("connect stats");
        let mut last_docs = 0u64;
        for _ in 0..5 {
            let snap = stats_conn.stats(0).expect("mid-load stats");
            assert!(snap.documents >= last_docs, "documents are monotonic");
            last_docs = snap.documents;
            // Snapshots are relaxed per-counter loads: mid-load, the shard
            // sum may tear from the global count by the handful of
            // documents whose increments are mid-flight (bounded by the
            // load client's pipeline window), never by more.
            let sum: u64 = snap.shards.iter().map(|s| s.docs).sum();
            assert!(
                sum.abs_diff(snap.documents) <= 8,
                "shard sum {sum} torn too far from documents {}",
                snap.documents
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(last_docs > 0, "load client classified something");
        stop.store(true, Ordering::Relaxed);
    });
    server.shutdown();
}

#[test]
fn trace_ring_records_reactor_events_and_dumps_over_the_wire() {
    use lcbloom::service::RingTag;
    let server = serve(
        classifier(),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            trace_ring: true,
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();
    let docs = test_docs();
    let refs: Vec<&[u8]> = docs.iter().take(8).map(|d| d.as_slice()).collect();
    let mut client = ClassifyClient::connect(addr).expect("connect");
    client.classify_many(&refs, 4).expect("classify batch");

    let mut stats_conn = ClassifyClient::connect(addr).expect("connect stats");
    let plain = stats_conn.stats(0).expect("stats detail=0");
    assert!(plain.rings.is_empty(), "detail=0 carries no ring dumps");
    let detailed = stats_conn.stats(1).expect("stats detail=1");
    assert!(
        detailed.rings.iter().any(|r| !r.is_empty()),
        "a traced server under traffic has ring events"
    );
    let tags: std::collections::HashSet<u8> =
        detailed.rings.iter().flatten().map(|e| e.tag).collect();
    assert!(
        tags.contains(&(RingTag::ConnOpen as u8)),
        "conn-open traced"
    );
    assert!(tags.contains(&(RingTag::Read as u8)), "socket reads traced");
    assert!(
        tags.contains(&(RingTag::Stats as u8)),
        "the earlier detail=0 probe is itself in the window"
    );
    for ev in detailed.rings.iter().flatten() {
        assert!(ev.ts_ns > 0, "ring timestamps are nonzero");
    }
    server.shutdown();
}

#[test]
fn reactor_loop_counters_move_under_traffic() {
    let server = start(2, Duration::from_secs(5));
    let addr = server.addr();
    let docs = test_docs();
    let refs: Vec<&[u8]> = docs.iter().take(10).map(|d| d.as_slice()).collect();
    let mut client = ClassifyClient::connect(addr).expect("connect");
    client.classify_many(&refs, 4).expect("classify batch");
    let snap = server.metrics().snapshot();
    assert!(snap.reactor_wakeups > 0, "epoll wakeups counted");
    assert!(snap.read_syscalls > 0, "read syscalls counted");
    assert!(snap.write_syscalls > 0, "write passes counted");
    assert!(
        snap.eventfd_wakes > 0,
        "worker responses wake the reactor via eventfd"
    );
    assert!(
        snap.events_per_wake.iter().sum::<u64>() > 0,
        "events-per-wake histogram filled"
    );
    server.shutdown();
}
