//! The `service-small` workload: in-process `serve()` with one reactor and
//! one worker, driven open-loop over one connection by a paced sender
//! thread and a receiver thread.
//!
//! Latency is timed from each request's *due* time, so a stall is charged
//! to every request it delays, and the sender's lateness is recorded. The
//! offered rate is a constant of the benchmark, never derived from a
//! capacity measured at run time: a faster program then shows as lower
//! latency and CPU per document at the same load.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_core::{ClassificationResult, MultiLanguageClassifier};
use lc_service::{serve, MetricsSnapshot, ServerHandle, ServiceConfig, ServiceMetrics};
use lc_wire::{pack_words, read_frame, read_frame_mux, write_data_frame_on, xor_checksum};
use lc_wire::{WireCommand, WireResponse};

use crate::fixture::{sample_indices, Doc, Fixture, SetupTimes, SETUP_REPS, UPFRONT_SETUPS};
use crate::gauge::Gauge;
use crate::host::{self, SchedStat, TaskStat};
use crate::inproc;
use crate::report::Report;
use crate::spans::{summarize, Tracer};
use crate::stats::{self, Histogram};

/// Bytes per request: a snippet cut from a paper-configuration test
/// document (a multiple of 8, so the Data frame needs no padding).
const SNIPPET_BYTES: usize = 256;

/// Distinct snippets; requests cycle through them.
const SNIPPETS: usize = 8192;

/// Offered load, documents per second. Well under the single-worker
/// saturation point on a 2-core host (tens of thousands per second), so
/// the queue stays short and latency measures per-request cost.
const OFFERED_RATE: f64 = 12_000.0;

/// Share of each open-loop phase excluded from latency and CPU as warm-up.
const WARMUP_FRAC: f64 = 0.1;

/// How long the receiver waits for any one response, and the sender for
/// any one write, before the rest of the segment counts as timed out.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// Share of `--seconds` spent timing in-process classify of the snippets.
const INPROC_SHARE: f64 = 0.4;

/// Share of a traced run's `--seconds` spent on the in-process layer rows.
const TRACE_INPROC_SHARE: f64 = 0.4;

/// Open-loop segments of an untraced run, each on a fresh server. The
/// latency and CPU metrics are medians over the segments, so a few
/// segments whose threads landed badly on the cores cannot move them.
const SEGMENTS: usize = 40;

/// How the service's latency and CPU per document scale with the host's
/// slowdown ([`stats::at_nominal_with_slope`]): each as its 0.4th power.
/// Forty segments, each gauged only before and after, are too few to fit
/// the slope in every run as the in-process timings do: fitted per run it
/// scattered from 0.1 to 1.0 over ten runs, with a median of 0.37 for
/// latency and 0.40 for CPU.
const SEGMENT_SLOPE: f64 = 0.4;

/// Timer slack for the load generator threads. The default 50 µs slack
/// lets `thread::sleep` overshoot by tens of microseconds, as much as the
/// latency being measured.
const GENERATOR_TIMER_SLACK_NS: u64 = 1;

/// Whether a thread name (`comm`) is a server reactor thread.
fn is_reactor(comm: &str) -> bool {
    comm.starts_with("lc-reactor-")
}

/// Whether a thread name is a worker shard (`lc-worker-<n>`, not the
/// supervisor).
fn is_worker(comm: &str) -> bool {
    comm.strip_prefix("lc-worker-")
        .is_some_and(|rest| rest.starts_with(|ch: char| ch.is_ascii_digit()))
}

/// One request: the snippet, its label, and what the server must answer.
struct Request {
    text: Vec<u8>,
    label: usize,
    expected: ClassificationResult,
    checksum: u64,
}

/// The server configuration: one reactor and one worker, set explicitly
/// rather than by core count, so the load is the same on any host.
fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        reactors: 1,
        ..ServiceConfig::default()
    }
}

/// A started server, the client's connection to it, and its classifier.
type Started = (ServerHandle, TcpStream, Arc<MultiLanguageClassifier>);

/// The program's set-up for this workload: train, program the bank,
/// start the server, connect, and read the Hello banner.
fn start(fx: &Fixture) -> Started {
    let classifier = Arc::new(fx.train_classifier());
    let server =
        serve(Arc::clone(&classifier), "127.0.0.1:0", config()).expect("serve on loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let (kind, payload) = read_frame(&mut stream)
        .expect("read Hello")
        .expect("server sent Hello");
    match WireResponse::decode(kind, &payload) {
        Ok(WireResponse::Hello { languages }) => {
            assert_eq!(languages.len(), classifier.num_languages())
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    (server, stream, classifier)
}

/// Cut `SNIPPETS` seeded snippets from the test documents.
fn snippets(docs: &[Doc], seed: u64) -> Vec<(Vec<u8>, usize)> {
    let picks = sample_indices(seed ^ 0x5119_7E75, docs.len(), SNIPPETS);
    let offsets = sample_indices(seed ^ 0x000F_F5E7, usize::MAX, SNIPPETS);
    picks
        .into_iter()
        .zip(offsets)
        .map(|(d, off)| {
            let doc = &docs[d];
            let room = doc.text.len().saturating_sub(SNIPPET_BYTES).max(1);
            let off = off % room;
            let text = doc.text[off..off + SNIPPET_BYTES].to_vec();
            (text, doc.label)
        })
        .collect()
}

/// Run the workload: end-to-end metrics, or with `trace` the per-layer
/// rows (returning the tracers to write out).
pub fn run(
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: usize,
    epoch: Instant,
    report: &mut Report,
) -> Vec<Tracer> {
    let gauge = Gauge::new();
    let mut setup = SetupTimes::new(&gauge);
    let setup_rep = |setup: &mut SetupTimes| {
        let (server, stream, classifier) = setup.time(|| start(fx));
        drop(stream);
        server.shutdown();
        classifier
    };
    let classifier = (0..UPFRONT_SETUPS)
        .map(|_| setup_rep(&mut setup))
        .last()
        .expect("at least one set-up before measuring");

    let cut = snippets(&fx.docs, seed);
    let texts: Vec<&[u8]> = cut.iter().map(|(t, _)| t.as_slice()).collect();
    let mut expected = inproc::oracle(&classifier, &texts, seed, report);
    inproc::plant_mismatches(&mut expected, plant);
    let requests: Vec<Request> = cut
        .iter()
        .zip(&expected)
        .map(|((text, label), want)| Request {
            text: text.clone(),
            label: *label,
            expected: want.clone(),
            checksum: xor_checksum(&pack_words(text)),
        })
        .collect();

    if trace {
        // The tracing overhead of this workload is the open loop's, below.
        let (mut tracers, _) = crate::layers::inproc_rows(
            &classifier,
            &texts,
            fx.hash_seed,
            Duration::from_secs_f64(seconds * TRACE_INPROC_SHARE),
            epoch,
            report,
        );
        let half = seconds * (1.0 - TRACE_INPROC_SHARE) / 2.0;
        let untraced = segment(fx, &requests, half, false, epoch);
        let traced = segment(fx, &requests, half, true, epoch);
        for p in [&untraced, &traced] {
            report.checks(p.sent, p.failed);
            report.check(p.last.payload_copies == 0);
        }
        service_rows(&untraced, &traced, report);
        tracers.extend(traced.tracers);
        return tracers;
    }

    // In-process classify and the open loop take turns, so both sample
    // the host over the whole run rather than one of them its first part.
    let inproc_slice = Duration::from_secs_f64(seconds * INPROC_SHARE / SEGMENTS as f64);
    let per_segment = seconds * (1.0 - INPROC_SHARE) / SEGMENTS as f64;
    let mut classify = inproc::ClassifyRun::default();
    let (mut hits, mut served) = (0u64, 0u64);
    let (mut p50_us, mut cpu_us_per_doc) = (Vec::new(), Vec::new());
    let mut seg_slowdown = Vec::new();
    for _ in 0..SEGMENTS {
        // The remaining set-up repetitions run between segments, so they
        // sample the host over the whole run.
        if setup.len() < SETUP_REPS {
            setup_rep(&mut setup);
        }
        let single = std::slice::from_ref(&*classifier);
        let run = inproc::measure(
            single,
            &texts,
            &expected,
            inproc_slice,
            &gauge,
            || {},
            report,
        );
        classify.pass_mb_s.extend(run.pass_mb_s);
        classify.pass_slowdown.extend(run.pass_slowdown);
        let (p, slowdown) = gauge.around(|| segment(fx, &requests, per_segment, false, epoch));
        seg_slowdown.push(slowdown);
        report.checks(p.sent, p.failed);
        report.check(p.last.payload_copies == 0);
        hits += p.hits;
        served += p.received;
        p50_us.push(p.latency_us.quantile(0.5));
        let cpu_ns = p.reactor.cpu_ns + p.worker.cpu_ns;
        cpu_us_per_doc.push(stats::ratio(cpu_ns as f64 / 1e3, p.docs as f64));
    }
    while setup.len() < SETUP_REPS {
        setup_rep(&mut setup);
    }
    report.metric("setup_s", setup.nominal_s(), "s");
    let mb_s = classify.at_nominal("classify_mb_s", &classify.pass_mb_s);
    report.metric("classify_mb_s", mb_s, "MB/s");
    report.metric("accuracy", stats::ratio(hits as f64, served as f64), "frac");
    stats::log_profile("segment_slowdown", &seg_slowdown);
    stats::log_profile("latency_p50_us", &p50_us);
    stats::log_profile("cpu_us_per_doc", &cpu_us_per_doc);
    let p50 = stats::at_nominal_with_slope(&p50_us, &seg_slowdown, SEGMENT_SLOPE);
    report.metric("latency_p50_us", p50, "us");
    let cpu = stats::at_nominal_with_slope(&cpu_us_per_doc, &seg_slowdown, SEGMENT_SLOPE);
    report.metric("cpu_us_per_doc", cpu, "us");
    Vec::new()
}

/// One open-loop segment on a freshly started server, which is shut down
/// at the end. Every segment gets new server and generator threads, so a
/// run averages over several placements of them on the cores instead of
/// keeping whichever placement its first server happened to get.
fn segment(fx: &Fixture, requests: &[Request], seconds: f64, trace: bool, epoch: Instant) -> Phase {
    let (server, stream, _) = start(fx);
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(RESPONSE_TIMEOUT)))
        .expect("set socket timeouts");
    let phase = open_loop(&stream, requests, server.metrics(), seconds, trace, epoch);
    drop(stream);
    Phase {
        last: server.shutdown(),
        ..phase
    }
}

/// The per-layer rows of the service, from the traced segment's window and
/// its server's quiesced shutdown snapshot.
fn service_rows(untraced: &Phase, traced: &Phase, report: &mut Report) {
    let last = &traced.last;
    let docs = traced.docs as f64;
    let per_doc_us = |ns: u64| stats::ratio(ns as f64 / 1e3, docs);
    report.metric(
        "service.reactor.cpu_us_per_doc",
        per_doc_us(traced.reactor.cpu_ns),
        "us/doc",
    );
    report.metric(
        "service.reactor.runq_us_per_doc",
        per_doc_us(traced.reactor.runq_ns),
        "us/doc",
    );
    report.metric(
        "service.worker.cpu_us_per_doc",
        per_doc_us(traced.worker.cpu_ns),
        "us/doc",
    );
    report.metric(
        "service.worker.runq_us_per_doc",
        per_doc_us(traced.worker.runq_ns),
        "us/doc",
    );
    report.metric(
        "service.worker.busy_us_per_doc",
        per_doc_us(traced.busy_ns),
        "us/doc",
    );
    let depth_peak = last
        .shards
        .iter()
        .map(|s| s.queue_depth_peak)
        .max()
        .unwrap_or(0);
    let parked: u64 = last.shards.iter().map(|s| s.parked).sum();
    report.metric("service.queue.depth_peak", depth_peak as f64, "count");
    report.metric("service.queue.parked", parked as f64, "count");
    let lifetime = last.documents as f64;
    let per_lifetime_doc = |n: u64| stats::ratio(n as f64, lifetime);
    report.metric(
        "reactor.read_syscalls_per_doc",
        per_lifetime_doc(last.read_syscalls),
        "count/doc",
    );
    report.metric(
        "reactor.wakeups_per_doc",
        per_lifetime_doc(last.reactor_wakeups),
        "count/doc",
    );
    report.metric(
        "reactor.eventfd_wakes_per_doc",
        per_lifetime_doc(last.eventfd_wakes),
        "count/doc",
    );
    report.metric(
        "wire.data_frames_per_doc",
        per_lifetime_doc(last.data_frames),
        "count/doc",
    );
    report.metric("wire.payload_copies", last.payload_copies as f64, "count");
    let sums = summarize(&traced.tracers);
    let mean_ns = |name: &str| {
        sums.get(name)
            .map_or(0.0, |t| stats::ratio(t.total_ns as f64, t.count as f64))
    };
    report.metric("wire.encode_ns_per_doc", mean_ns("wire.encode"), "ns");
    report.metric("wire.decode_ns_per_response", mean_ns("wire.decode"), "ns");
    report.metric(
        "loadgen.lateness_p50_us",
        traced.lateness_us.quantile(0.5),
        "us",
    );
    report.metric("loadgen.lateness_max_us", traced.lateness_us.max(), "us");
    report.metric(
        "client.latency_p99_us",
        traced.latency_us.quantile(0.99),
        "us",
    );
    report.metric("host.steal_frac", traced.steal_frac, "frac");
    report.metric("host.runq_wait_frac", traced.runq_wait_frac, "frac");
    report.metric(
        "trace.overhead_frac",
        stats::ratio(
            traced.latency_us.quantile(0.5),
            untraced.latency_us.quantile(0.5),
        ) - 1.0,
        "frac",
    );
}

/// What one open-loop phase measured. Latency, lateness and the CPU
/// window cover the requests after the warm-up share.
struct Phase {
    sent: u64,
    received: u64,
    failed: u64,
    hits: u64,
    latency_us: Histogram,
    lateness_us: Histogram,
    docs: u64,
    busy_ns: u64,
    reactor: SchedStat,
    worker: SchedStat,
    steal_frac: f64,
    runq_wait_frac: f64,
    tracers: Vec<Tracer>,
    /// The server's shutdown snapshot (filled in by [`segment`]).
    last: MetricsSnapshot,
}

/// Send `rate × seconds` requests on a fixed schedule and check every
/// response.
fn open_loop(
    stream: &TcpStream,
    requests: &[Request],
    metrics: &ServiceMetrics,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Phase {
    let total = ((OFFERED_RATE * seconds) as usize).max(1);
    let warm = (total as f64 * WARMUP_FRAC) as usize;
    let period_ns = 1e9 / OFFERED_RATE;
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = move |i: usize| t0 + Duration::from_nanos((i as f64 * period_ns) as u64);

    std::thread::scope(|s| {
        // Threads inherit the slack of the thread that spawns them: lower
        // it for the two generator threads only, so the server's threads
        // (spawned before and after) keep the default.
        let default_slack = host::timer_slack_ns();
        if let Err(e) = host::set_main_thread_timer_slack(GENERATOR_TIMER_SLACK_NS) {
            eprintln!("perfbench: could not lower the generator's timer slack: {e}");
        }
        let sender = std::thread::Builder::new()
            .name("pb-loadgen".into())
            .spawn_scoped(s, move || {
                let mut tr = Tracer::new("loadgen", epoch, trace);
                let mut lateness_us = Histogram::default();
                let mut buf = Vec::with_capacity(SNIPPET_BYTES + 64);
                let mut w = stream;
                for i in 0..total {
                    let at = due(i);
                    let now = Instant::now();
                    if now < at {
                        std::thread::sleep(at - now);
                    }
                    if i >= warm {
                        lateness_us
                            .record(Instant::now().duration_since(at).as_nanos() as f64 / 1e3);
                    }
                    let req = &requests[i % requests.len()];
                    tr.begin("loadgen.send", i as u64);
                    tr.span("wire.encode", i as u64, || encode(&mut buf, &req.text));
                    let sent = w.write_all(&buf);
                    tr.end();
                    if sent.is_err() {
                        break;
                    }
                }
                (lateness_us, tr)
            });
        let sender = sender.expect("spawn the sender thread");
        let receiver = std::thread::Builder::new()
            .name("pb-client".into())
            .spawn_scoped(s, move || {
                let mut tr = Tracer::new("client", epoch, trace);
                let mut r = BufReader::new(stream);
                let mut out = Received::default();
                for i in 0..total {
                    tr.begin("client.recv", i as u64);
                    let Ok(Some((kind, _channel, payload))) = read_frame_mux(&mut r) else {
                        tr.end();
                        break;
                    };
                    let at = Instant::now();
                    let resp = tr.span("wire.decode", i as u64, || {
                        WireResponse::decode(kind, &payload)
                    });
                    tr.end();
                    if i >= warm {
                        out.latency_us
                            .record(at.duration_since(due(i)).as_nanos() as f64 / 1e3);
                    }
                    out.received += 1;
                    let req = &requests[i % requests.len()];
                    match resp {
                        Ok(WireResponse::Result {
                            counts,
                            total_ngrams,
                            checksum,
                            valid,
                        }) => {
                            let got = ClassificationResult::new(counts, total_ngrams);
                            let ok = valid
                                && checksum == req.checksum
                                && inproc::same(&got, &req.expected);
                            out.failed += u64::from(!ok);
                            out.hits += u64::from(got.best() == req.label);
                        }
                        _ => out.failed += 1,
                    }
                }
                (out, tr)
            });
        let receiver = receiver.expect("spawn the receiver thread");
        if let Some(ns) = default_slack {
            let _ = host::set_main_thread_timer_slack(ns);
        }

        // The CPU window opens when the first measured request is due and
        // closes when the last response is in.
        let now = Instant::now();
        if now < due(warm) {
            std::thread::sleep(due(warm) - now);
        }
        let (tasks0, snap0, ticks0) = (host::tasks(), metrics.snapshot(), host::cpu_ticks());
        let (lateness_us, send_tr) = sender.join().expect("sender thread");
        let (got, recv_tr) = receiver.join().expect("receiver thread");
        let (tasks1, snap1, ticks1) = (host::tasks(), metrics.snapshot(), host::cpu_ticks());
        let window = Window::between(&tasks0, &tasks1);
        let busy = |snap: &MetricsSnapshot| snap.shards.iter().map(|s| s.busy_ns).sum::<u64>();
        stamp(&tasks0, &tasks1, ticks0, ticks1);
        Phase {
            sent: total as u64,
            received: got.received,
            failed: got.failed + (total as u64 - got.received),
            hits: got.hits,
            latency_us: got.latency_us,
            lateness_us,
            docs: snap1.documents - snap0.documents,
            busy_ns: busy(&snap1) - busy(&snap0),
            reactor: window.reactor,
            worker: window.worker,
            steal_frac: host::steal_frac(ticks0, ticks1),
            runq_wait_frac: window.runq_wait_frac,
            tracers: vec![send_tr, recv_tr],
            last: MetricsSnapshot::default(),
        }
    })
}

/// What the receiver thread counted.
#[derive(Default)]
struct Received {
    received: u64,
    failed: u64,
    hits: u64,
    latency_us: Histogram,
}

/// Thread times over one measurement window.
struct Window {
    reactor: SchedStat,
    worker: SchedStat,
    runq_wait_frac: f64,
}

impl Window {
    fn between(before: &[TaskStat], after: &[TaskStat]) -> Self {
        let all = host::all_threads_since(before, after);
        Self {
            reactor: host::threads_since(before, after, is_reactor),
            worker: host::threads_since(before, after, is_worker),
            runq_wait_frac: stats::ratio(all.runq_ns as f64, (all.cpu_ns + all.runq_ns) as f64),
        }
    }
}

/// Encode one document as the client protocol sends it: Size, one Data
/// frame, End-of-Document, Query-Result.
fn encode(buf: &mut Vec<u8>, text: &[u8]) {
    buf.clear();
    let words = text.len().div_ceil(8) as u32;
    let io = WireCommand::size(words, text.len() as u32)
        .encode_on(0, buf)
        .and_then(|()| write_data_frame_on(buf, 0, text))
        .and_then(|()| WireCommand::EndOfDocument.encode_on(0, buf))
        .and_then(|()| WireCommand::QueryResult.encode_on(0, buf));
    io.expect("encoding into a Vec cannot fail");
}

/// The noise stamp of one window: per-thread CPU and run-queue wait.
fn stamp(before: &[TaskStat], after: &[TaskStat], t0: host::CpuTicks, t1: host::CpuTicks) {
    let mut line = format!(
        "perfbench: window steal_ticks={} of {}",
        t1.steal.saturating_sub(t0.steal),
        t1.total.saturating_sub(t0.total)
    );
    for t in after {
        let base = before
            .iter()
            .find(|b| b.tid == t.tid)
            .map(|b| b.sched)
            .unwrap_or_default();
        let d = t.sched.since(base);
        if d.cpu_ns + d.runq_ns > 0 {
            line.push_str(&format!(
                " {}:cpu_ms={:.1},runq_ms={:.2}",
                t.comm,
                d.cpu_ns as f64 / 1e6,
                d.runq_ns as f64 / 1e6
            ));
        }
    }
    eprintln!("{line}");
}
