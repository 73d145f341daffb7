//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (inputs are generated from `--seed`; the program sees only
//! the generated documents):
//!
//! * `inproc-paper8` — the paper's configuration (8 languages, k = 4,
//!   m = 16 Kbit, ~10 KB documents): single-thread `classify`, where
//!   extraction, H3, the u8-mask bank probe and the packed counters do all
//!   the work.
//! * `inproc-wide20` — 20 languages on the compact filters (k = 6,
//!   m = 4 Kbit) with ~2 KB documents: u32 mask rows, 1.5× the hashing per
//!   n-gram and a larger per-call share.
//! * `service-small` — 256-byte snippets of the paper8 test documents
//!   served by one reactor and one worker under a fixed open-loop rate,
//!   where per-request handling outweighs classification.
//!
//! Test documents are contaminated by their confusable partner language,
//! so the classifier makes real mistakes.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics:
//!
//! Every timing is repeated throughout the run, the host's speed is
//! gauged around each repetition with a fixed kernel of the benchmark's
//! own ([`gauge`]), and the metric is what the repetitions read at the
//! gauge's nominal speed ([`stats::at_nominal`]). The host is shared and
//! its speed drifts in phases of seconds to minutes, longer than a run,
//! which moves a plain median by up to half. Each run logs the quantiles
//! behind every timing on standard error.
//!
//! * `setup_s` — wall time of the program's set-up (training the profiles
//!   and programming the bank; for the service also `serve()` until the
//!   client holds the Hello banner), over 40 repetitions. Generating the
//!   corpus is excluded.
//! * `classify_mb_s` — throughput of single-thread passes of
//!   `MultiLanguageClassifier::classify` over the test documents (for the
//!   service, over its snippets).
//! * `accuracy` — share of documents (served snippets) whose best language
//!   is the label.
//! * `peak_rss_mb` — peak resident memory the program adds on top of its
//!   generated inputs.
//! * `latency_p50_us` — in process, the median `classify` call of each
//!   pass; for the service, the median latency of each of 40 open-loop
//!   segments, timed from each request's due time (with a fixed
//!   dependence on the host's speed rather than a fitted one, see
//!   `service::SEGMENT_SLOPE`).
//! * `cpu_us_per_doc` — in process, each pass's CPU time per `classify`
//!   call; for the service, each segment's CPU time of the `lc-reactor-*`
//!   and `lc-worker-*` threads per document (as for its latency).
//!
//! With `--trace 1` it carries the per-layer metrics, measured from spans
//! recorded around the benchmark's own calls into the library crates, from
//! the server's counters and from per-thread `/proc` times. Spans are
//! written to `.perfbench_out/<workload>.spans.jsonl`. A per-layer metric
//! of a layer the workload does not run reads 0.
//!
//! `--plant-mismatch <n>` corrupts `n` expected results, so a self-test
//! can show that wrong results are counted as failed operations.

#![forbid(unsafe_code)]

mod fixture;
mod gauge;
mod host;
mod inproc;
mod layers;
mod report;
mod service;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lc_core::SimdLevel;

use fixture::{Fixture, SetupTimes, SETUP_REPS, UPFRONT_SETUPS};
use report::Report;
use spans::Tracer;

const USAGE: &str = "usage: perfbench --workload <inproc-paper8|inproc-wide20|service-small> \
                     --seed <n> --seconds <s> --trace <0|1> [--plant-mismatch <n>]";

/// Per-layer rows of the service, reported as 0 by the in-process
/// workloads, which never start a server.
const SERVICE_ROWS: [(&str, &str); 19] = [
    ("service.reactor.cpu_us_per_doc", "us/doc"),
    ("service.reactor.runq_us_per_doc", "us/doc"),
    ("service.worker.cpu_us_per_doc", "us/doc"),
    ("service.worker.runq_us_per_doc", "us/doc"),
    ("service.worker.busy_us_per_doc", "us/doc"),
    ("service.queue.depth_peak", "count"),
    ("service.queue.parked", "count"),
    ("reactor.read_syscalls_per_doc", "count/doc"),
    ("reactor.wakeups_per_doc", "count/doc"),
    ("reactor.eventfd_wakes_per_doc", "count/doc"),
    ("wire.data_frames_per_doc", "count/doc"),
    ("wire.payload_copies", "count"),
    ("wire.encode_ns_per_doc", "ns"),
    ("wire.decode_ns_per_response", "ns"),
    ("loadgen.lateness_p50_us", "us"),
    ("loadgen.lateness_max_us", "us"),
    ("client.latency_p99_us", "us"),
    ("host.steal_frac", "frac"),
    ("host.runq_wait_frac", "frac"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant_mismatch: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        plant_mismatch: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--plant-mismatch" => {
                args.plant_mismatch = value.parse().map_err(|_| bad("a count"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match args.workload.as_str() {
        "inproc-paper8" | "service-small" => fixture::PAPER8,
        "inproc-wide20" => fixture::WIDE20,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: host nproc={} avx2={} selected={} kernel={} workload={} seed={} trace={}",
        host::nproc(),
        SimdLevel::cpu_has_avx2(),
        SimdLevel::detect(),
        host::kernel_release(),
        args.workload,
        args.seed,
        u8::from(args.trace),
    );

    let epoch = Instant::now();
    let (tasks0, ticks0) = (host::tasks(), host::cpu_ticks());
    let fx = Fixture::new(spec, args.seed);
    // `peak_rss_mb` is what the program adds on top of its inputs: the
    // input generator runs on several threads and leaves a different
    // amount of freed-but-resident memory behind on every run.
    if let Err(e) = host::reset_peak_rss() {
        eprintln!("perfbench: could not reset the peak RSS: {e}");
    }
    let inputs_rss_mb = host::peak_rss_mb();
    let mut report = Report::default();
    let tracers = if args.workload == "service-small" {
        service::run(
            &fx,
            args.seed,
            args.seconds,
            args.trace,
            args.plant_mismatch,
            epoch,
            &mut report,
        )
    } else {
        run_inproc(&fx, &args, epoch, &mut report)
    };
    let (tasks1, ticks1) = (host::tasks(), host::cpu_ticks());
    let all = host::all_threads_since(&tasks0, &tasks1);
    let runq_wait_frac = stats::ratio(all.runq_ns as f64, (all.cpu_ns + all.runq_ns) as f64);
    let steal_frac = host::steal_frac(ticks0, ticks1);
    // Threads that exited before the end (the service's) are stamped per
    // open-loop window instead.
    eprintln!(
        "perfbench: noise steal_frac={steal_frac:.4} \
         runq_wait_frac(threads alive at exit)={runq_wait_frac:.4}"
    );

    if args.trace {
        if args.workload != "service-small" {
            for (name, unit) in SERVICE_ROWS {
                let value = match name {
                    "host.steal_frac" => steal_frac,
                    "host.runq_wait_frac" => runq_wait_frac,
                    _ => 0.0,
                };
                report.metric(name, value, unit);
            }
        }
        report.metric("host.nproc", host::nproc() as f64, "count");
        report.metric(
            "host.avx2",
            f64::from(u8::from(SimdLevel::cpu_has_avx2())),
            "bool",
        );
        let path = PathBuf::from(".perfbench_out").join(format!("{}.spans.jsonl", args.workload));
        for (name, t) in spans::summarize(&tracers) {
            eprintln!(
                "perfbench: span {name} count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let dropped: u64 = tracers.iter().map(Tracer::dropped).sum();
        match spans::write_jsonl(&path, &tracers) {
            Ok(()) => eprintln!(
                "perfbench: spans written to {} ({dropped} more counted, not kept)",
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    } else {
        report.metric("peak_rss_mb", host::peak_rss_mb() - inputs_rss_mb, "MB");
    }
    if report.failed() > 0 {
        eprintln!("perfbench: {} checked operations failed", report.failed());
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// The in-process workloads: set-up, oracle, then either the timed
/// classify loop or the traced layer rows.
fn run_inproc(fx: &Fixture, args: &Args, epoch: Instant, report: &mut Report) -> Vec<Tracer> {
    let gauge = gauge::Gauge::new();
    let mut setup = SetupTimes::new(&gauge);
    let classifiers: Vec<_> = (0..UPFRONT_SETUPS)
        .map(|_| setup.time(|| fx.train_classifier()))
        .collect();
    let texts: Vec<&[u8]> = fx.docs.iter().map(|d| d.text.as_slice()).collect();
    let mut expected = inproc::oracle(&classifiers[0], &texts, args.seed, report);
    inproc::plant_mismatches(&mut expected, args.plant_mismatch);
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let (tracers, overhead) =
            layers::inproc_rows(&classifiers[0], &texts, fx.hash_seed, budget, epoch, report);
        report.metric("trace.overhead_frac", overhead, "frac");
        return tracers;
    }
    // The remaining set-up repetitions run between measured passes, one
    // about every `every`.
    let every = budget.div_f64((SETUP_REPS - UPFRONT_SETUPS) as f64);
    let mut next = Instant::now() + every;
    let between_passes = || {
        if setup.len() < SETUP_REPS && Instant::now() >= next {
            setup.time(|| fx.train_classifier());
            next += every;
        }
    };
    let run = inproc::measure(
        &classifiers,
        &texts,
        &expected,
        budget,
        &gauge,
        between_passes,
        report,
    );
    while setup.len() < SETUP_REPS {
        setup.time(|| fx.train_classifier());
    }
    stats::log_profile("host_slowdown", &run.pass_slowdown);
    report.metric("setup_s", setup.nominal_s(), "s");
    let mb_s = run.at_nominal("classify_mb_s", &run.pass_mb_s);
    report.metric("classify_mb_s", mb_s, "MB/s");
    report.metric("accuracy", inproc::accuracy(&fx.docs, &expected), "frac");
    let p50 = run.at_nominal("latency_p50_us", &run.pass_p50_us);
    report.metric("latency_p50_us", p50, "us");
    let cpu = run.at_nominal("cpu_us_per_doc", &run.pass_cpu_us_per_call);
    report.metric("cpu_us_per_doc", cpu, "us");
    Vec::new()
}
