//! End-to-end tests of the trace-span plane and of client-side rates:
//! spans sampled server-side must come back over the wire with the stage
//! invariant intact, client-supplied TraceContext ids must be adopted
//! verbatim, chaos-faulted documents must be force-sampled with the fault
//! site named, two counter snapshots must give a watcher its rates — and
//! none of the spans may leak into, or be drained by, what a v1 /
//! `detail<=1` reader sees.

use lcbloom::prelude::*;
use lcbloom::service::{
    fault_name, serve, ChaosConfig, ClientError, FaultPlan, FaultSite, ServiceConfig, StatsDelta,
    FAULT_WORKER_DELAY, SPAN_CLIENT_CONTEXT, SPAN_FAULT, SPAN_SAMPLED,
};
use lcbloom::wire::ErrorCode;
use std::sync::Arc;
use std::time::Instant;

fn classifier() -> Arc<MultiLanguageClassifier> {
    static CLASSIFIER: std::sync::OnceLock<Arc<MultiLanguageClassifier>> =
        std::sync::OnceLock::new();
    Arc::clone(CLASSIFIER.get_or_init(|| {
        let corpus = Corpus::generate(CorpusConfig {
            docs_per_language: 8,
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
        docs_per_language: 4,
        mean_doc_bytes: 2500,
        seed: 0x70AC_ED0C,
        ..CorpusConfig::default()
    });
    corpus.split().test_all().map(|d| d.text.clone()).collect()
}

fn start(config: ServiceConfig) -> lcbloom::service::ServerHandle {
    serve(classifier(), "127.0.0.1:0", config).expect("bind localhost")
}

#[test]
fn sampled_spans_come_back_over_the_wire_with_stages_that_add_up() {
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 1, // every document
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    let docs_ref: Vec<&[u8]> = docs.iter().take(12).map(|d| d.as_slice()).collect();
    let served = client
        .classify_many_mux(&docs_ref, 2, 6)
        .expect("mux batch");
    assert_eq!(served.len(), docs_ref.len());

    let snap = client.stats(2).expect("stats detail=2");
    assert_eq!(
        snap.spans.len(),
        docs_ref.len(),
        "sample=1 must span every document"
    );
    for s in &snap.spans {
        assert_ne!(s.flags & SPAN_SAMPLED, 0, "span not marked sampled: {s:?}");
        assert_eq!(s.flags & SPAN_FAULT, 0, "clean run grew a fault: {s:?}");
        assert_eq!(s.fault, 0);
        assert_ne!(s.shard, u16::MAX, "span never reached a shard: {s:?}");
        assert!(s.doc_bytes > 0);
        assert!(s.end_ns > 0, "span never finished draining: {s:?}");
        // The invariant the whole plane hangs off: stages decompose the
        // end-to-end time, they don't exceed it.
        assert!(
            s.queue_us + s.classify_us + s.drain_us <= s.total_us,
            "stage sum exceeds end-to-end: {s:?}"
        );
    }
    // drain() handed them over: a second detail-2 dump starts empty.
    let again = client.stats(2).expect("stats again");
    assert!(again.spans.is_empty(), "spans must drain exactly once");
    server.shutdown();
}

#[test]
fn client_trace_context_is_adopted_verbatim_end_to_end() {
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 1,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    client.set_trace_context(Some(0xFEED_FACE_CAFE_F00D));
    client.classify(&docs[0]).expect("traced classify");
    client.set_trace_context(None);
    client.classify(&docs[1]).expect("untraced classify");

    let snap = client.stats(2).expect("stats detail=2");
    let traced: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.flags & SPAN_CLIENT_CONTEXT != 0)
        .collect();
    assert_eq!(traced.len(), 1, "exactly one document carried the context");
    assert_eq!(traced[0].trace_id, 0xFEED_FACE_CAFE_F00D);
    // The second document fell back to a server-derived id.
    assert!(snap
        .spans
        .iter()
        .any(|s| s.flags & SPAN_CLIENT_CONTEXT == 0));
    server.shutdown();
}

#[test]
fn chaos_faulted_documents_are_force_sampled_naming_the_site() {
    // Sampling off — only the fault forcing keeps these spans. Every job
    // hits the worker-delay chaos site, so every document must surface a
    // fault-annotated span even though head sampling would keep none.
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 0,
        chaos: Some(ChaosConfig {
            seed: 0xC4A05,
            worker_delay: 1.0,
            worker_delay_ms: 2,
            ..ChaosConfig::default()
        }),
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    for doc in docs.iter().take(4) {
        client.classify(doc).expect("delayed but successful");
    }

    let snap = client.stats(2).expect("stats detail=2");
    assert!(!snap.spans.is_empty(), "chaos faults must force spans");
    for s in &snap.spans {
        assert_ne!(s.flags & SPAN_FAULT, 0, "fault flag missing: {s:?}");
        assert_eq!(s.flags & SPAN_SAMPLED, 0, "head sampling is off");
        assert_eq!(s.fault, FAULT_WORKER_DELAY);
        assert_eq!(fault_name(s.fault), "worker-delay");
        assert!(
            s.queue_us + s.classify_us + s.drain_us <= s.total_us,
            "stage sum exceeds end-to-end: {s:?}"
        );
    }
    server.shutdown();
}

/// A truncated transfer answered by a server started with `config` must
/// surface exactly one fault span, naming the site.
fn assert_protocol_fault_spans(config: ServiceConfig) {
    let server = start(config);
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    // Size promises 64 bytes, EoD arrives after none: TruncatedTransfer.
    client
        .send_command(&lcbloom::wire::WireCommand::size(8, 64))
        .expect("send size");
    client
        .send_command(&lcbloom::wire::WireCommand::EndOfDocument)
        .expect("send eod");
    match client.read_response() {
        Ok(lcbloom::wire::WireResponse::Error { code, .. }) => {
            assert_eq!(code, lcbloom::wire::ErrorCode::TruncatedTransfer);
        }
        other => panic!("expected TruncatedTransfer error, got {other:?}"),
    }
    // The session recovered; a clean document still classifies.
    client.classify(&docs[0]).expect("post-fault classify");

    let snap = client.stats(2).expect("stats detail=2");
    let faulted: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.flags & SPAN_FAULT != 0)
        .collect();
    assert_eq!(faulted.len(), 1, "exactly the truncated document spans");
    assert_eq!(fault_name(faulted[0].fault), "truncated-transfer");
    server.shutdown();
}

#[test]
fn protocol_faults_surface_spans_naming_the_site() {
    // Head sampling keeps (almost) nothing: only the fault path can
    // explain a surfaced span.
    assert_protocol_fault_spans(ServiceConfig {
        workers: 2,
        trace_sample: u32::MAX,
        ..ServiceConfig::default()
    });
}

#[test]
fn protocol_faults_surface_spans_with_default_tracing() {
    // No sampling, no slow threshold, no chaos: faulted documents still
    // get their span.
    assert_protocol_fault_spans(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
}

#[test]
fn worker_panic_span_carries_the_documents_client_trace_id() {
    // Pick the seed whose first four worker-panic draws are
    // (no, yes, no, no): on one worker serving one client, the Size
    // applies, the Data frame panics mid-document, and the quarantined
    // session discards the EoD and Query without panicking again.
    let seed = (0u64..)
        .find(|&seed| {
            let plan = FaultPlan::new(ChaosConfig {
                seed,
                worker_panic: 0.5,
                ..ChaosConfig::default()
            });
            let draws: Vec<bool> = (0..4).map(|_| plan.fire(FaultSite::WorkerPanic)).collect();
            draws == [false, true, false, false]
        })
        .expect("a seed with that draw pattern");
    let server = start(ServiceConfig {
        workers: 1,
        chaos: Some(ChaosConfig {
            seed,
            worker_panic: 0.5,
            ..ChaosConfig::default()
        }),
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    client.set_trace_context(Some(0xFEED_FACE_CAFE_F00D));
    match client.classify(&docs[0]) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::EngineFault),
        other => panic!("expected EngineFault, got {other:?}"),
    }

    let snap = client.stats(2).expect("stats detail=2");
    assert_eq!(snap.worker_panics, 1);
    let panicked: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| fault_name(s.fault) == "engine-fault")
        .collect();
    assert_eq!(panicked.len(), 1, "spans: {:?}", snap.spans);
    let s = panicked[0];
    assert_eq!(s.trace_id, 0xFEED_FACE_CAFE_F00D, "{s:?}");
    assert_ne!(s.flags & SPAN_CLIENT_CONTEXT, 0, "{s:?}");
    assert_eq!(s.doc_seq, 1, "{s:?}");
    assert_eq!(s.doc_bytes as usize, docs[0].len(), "{s:?}");
    server.shutdown();
}

#[test]
fn counter_snapshots_give_rates_over_the_readers_interval() {
    // What `lcbloom top` and `stats --watch` do: two counters-only reads
    // and the interval this side measured between them. The counters are
    // exact once each document's answer is back, so nothing waits on a
    // clock.
    let server = start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    // Traffic before the first read must not show in the delta.
    client.classify(&docs[0]).expect("classify");
    let before = client.stats(0).expect("first snapshot");
    let before_at = Instant::now();
    let sent = 10;
    for doc in docs.iter().skip(1).take(sent) {
        client.classify(doc).expect("classify");
    }
    let after = client.stats(0).expect("second snapshot");
    let delta = StatsDelta::delta(&before, &after, before_at.elapsed());
    assert_eq!(delta.docs, sent as u64);
    let bytes: usize = docs.iter().skip(1).take(sent).map(Vec::len).sum();
    assert_eq!(delta.doc_bytes, bytes as u64);
    assert_eq!(delta.shards.len(), 2);
    assert_eq!(
        delta.shards.iter().map(|s| s.docs).sum::<u64>(),
        sent as u64,
        "shard deltas must sum to the load"
    );
    assert!(delta.docs_per_s() > 0.0);
    assert!(delta.mb_per_s() > 0.0);
    assert_eq!((delta.errors, delta.faults), (0, 0));
    server.shutdown();
}

#[test]
fn watcher_polls_leave_every_span_for_the_trace_drain() {
    // A dashboard polling between documents, as `top` and `stats
    // --watch` do, must not take spans away from a `trace --follow`.
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 1,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    let mut watcher = ClassifyClient::connect(server.addr()).expect("connect watcher");
    let sent = 6;
    for doc in docs.iter().take(sent) {
        client.classify(doc).expect("classify");
        for _ in 0..3 {
            let snap = watcher.stats(0).expect("watcher poll");
            assert!(snap.spans.is_empty(), "a detail-0 poll carried spans");
        }
    }
    // The documents' own connection drains, so every span has finished.
    let snap = client.stats(2).expect("stats detail=2");
    assert_eq!(snap.spans.len(), sent, "watcher polls drained spans");
    server.shutdown();
}

#[test]
fn detail_at_most_one_stays_clean_for_v1_decoders() {
    // A server with spans captured must answer `GetStats(detail<=1)`
    // without them — the PR-7 schema, bit-compatible for old decoders —
    // and the withheld spans must stay buffered, not be silently
    // drained.
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 1,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    for doc in docs.iter().take(3) {
        client.classify(doc).expect("classify");
    }

    for detail in [0u8, 1] {
        let snap = client.stats(detail).expect("low-detail stats");
        assert!(
            snap.spans.is_empty(),
            "detail={detail} leaked spans to a v1-era decoder"
        );
        assert_eq!(snap.documents, 3);
    }
    // Low-detail reads did not consume the span plane.
    let snap = client.stats(2).expect("stats detail=2");
    assert_eq!(snap.spans.len(), 3, "spans must survive low-detail reads");
    server.shutdown();
}
