//! `lcbloom` — command-line front end for the reproduction.
//!
//! ```text
//! lcbloom generate --out DIR [--docs N] [--bytes N] [--extended] [--seed S]
//! lcbloom train    --out FILE.lcp [--t N] DIR...
//! lcbloom classify --profiles FILE.lcp [--m KBITS] [--k K] FILE...
//! lcbloom simulate --profiles FILE.lcp [--async|--sync] FILE...
//! lcbloom serve    --profiles FILE.lcp [--addr A] [--workers N] [--reactors N]
//!                  [--max-connections N] [--max-channels N]
//!                  [--outbound-high-water BYTES] [--slow-consumer-ms N]
//!                  [--watchdog-ms N] [--stats-interval N] [--drain-deadline-ms N]
//!                  [--chaos-seed S] [--chaos-rate R]
//! lcbloom query    --addr A [--channels N] [--window W] [--timeout-ms N] FILE...
//! lcbloom demo
//! ```
//!
//! * `generate` writes a synthetic corpus to disk, one subdirectory per
//!   language code, `train/` and `test/` splits inside.
//! * `train` builds top-t 4-gram profiles from language-named directories
//!   (each containing text files) and saves them to a profile store.
//! * `classify` programs Bloom filters from a store and labels files
//!   (streamed in bounded chunks — constant memory; `-` reads stdin).
//! * `simulate` streams files through the XD1000 simulator and reports
//!   hardware-model throughput alongside the labels.
//! * `serve` runs the sharded TCP classification service on a profile
//!   store; `query` classifies files against a running server
//!   (`--channels N` multiplexes the batch over N wire-v2 channels on one
//!   connection, fanning it across the server's worker shards).
//! * `serve` drains gracefully on SIGTERM/SIGINT: accepts stop, new
//!   documents get `ShuttingDown` faults, in-flight documents finish
//!   (bounded by `--drain-deadline-ms`), and the final metrics snapshot
//!   prints on exit. `--chaos-rate`/`--chaos-seed` turn on deterministic
//!   fault injection for resilience drills.

use lcbloom::fpga::resources::ClassifierConfig;
use lcbloom::prelude::*;
use lcbloom::profile_store::ProfileStore;
use lcbloom::service::{Histogram, MetricsSnapshot, Micros, StatsDelta};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("simd") => cmd_simd(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try `lcbloom help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "lcbloom — n-gram language classification with (simulated) FPGA Bloom filters\n\
         \n\
         USAGE:\n\
         \x20 lcbloom generate --out DIR [--docs N] [--bytes N] [--extended] [--seed S]\n\
         \x20 lcbloom train    --out FILE.lcp [--t N] DIR...\n\
         \x20 lcbloom classify --profiles FILE.lcp [--m KBITS] [--k K]\n\
         \x20                  [--subsample S] [--timing] [--force-scalar] FILE...\n\
         \x20 lcbloom simulate --profiles FILE.lcp [--sync] FILE...\n\
         \x20 lcbloom serve    --profiles FILE.lcp [--addr HOST:PORT] [--workers N]\n\
         \x20                  [--reactors N] [--max-connections N] [--max-channels N]\n\
         \x20                  [--outbound-high-water BYTES] [--slow-consumer-ms N]\n\
         \x20                  [--watchdog-ms N] [--stats-interval N]\n\
         \x20                  [--m KBITS] [--k K] [--subsample S]\n\
         \x20                  [--trace-sample N] [--trace-slow-us T]\n\
         \x20                  [--drain-deadline-ms N] [--chaos-seed S] [--chaos-rate R]\n\
         \x20                  [--force-scalar]\n\
         \x20 lcbloom query    --addr HOST:PORT [--channels N] [--window W]\n\
         \x20                  [--timeout-ms N] [--timing] [--force-scalar] FILE...\n\
         \x20 lcbloom stats    --addr HOST:PORT [--watch SECS]\n\
         \x20 lcbloom trace    --addr HOST:PORT [--follow] [--interval SECS]\n\
         \x20 lcbloom top      --addr HOST:PORT [--interval SECS] [--once]\n\
         \x20 lcbloom simd\n\
         \x20 lcbloom demo\n\
         \n\
         `train` expects one directory per language, named by its code (en, fr, ...),\n\
         each containing plain-text files. `classify` and `query` accept `-` for stdin.\n\
         `stats` asks a live server for its metrics snapshot over the wire (--watch\n\
         repeats every SECS and prints the rates between the last two snapshots).\n\
         `trace` drains the server's per-document spans (faulted documents always;\n\
         sampled and slow ones with serve --trace-sample N / --trace-slow-us T) and\n\
         renders a stage waterfall per span; --follow polls until interrupted. `top`\n\
         renders sparkline rate tables from the snapshots it polls (--once waits\n\
         one interval for two). `stats` and `top` leave the spans to `trace`.\n\
         `--timing` prints p50/p95/p99 in the server's latency buckets; for `query`\n\
         the times come from server-side sampled spans, so the batch stays pipelined.\n\
         `simd` reports this host's CPU features and which probe path a classifier\n\
         built here would select. `--force-scalar` pins `classify`/`serve` to the\n\
         scalar path for live A/B; on `query` it instead *verifies* the remote\n\
         server is running scalar (the stats plane carries the server's path) and\n\
         fails fast when it is not. `LC_FORCE_SCALAR=1` does the same via the\n\
         environment."
    );
}

/// Minimal flag parser: returns (flags-with-values, positional args).
fn parse_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(std::collections::HashMap<String, String>, Vec<String>), String> {
    let mut flags = std::collections::HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if bool_flags.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
            } else if value_flags.contains(&name) {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name.to_string(), v.clone());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Ok((flags, positional))
}

fn parse_num<T: std::str::FromStr>(
    flags: &std::collections::HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{name}: {v}")),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, &["out", "docs", "bytes", "seed"], &["extended"])?;
    let out = PathBuf::from(flags.get("out").ok_or("generate requires --out DIR")?);
    let docs = parse_num(&flags, "docs", 40usize)?;
    let bytes = parse_num(&flags, "bytes", 4096usize)?;
    let seed = parse_num(&flags, "seed", 0x5EED_1CB1u64)?;
    let langs: &[Language] = if flags.contains_key("extended") {
        &Language::EXTENDED
    } else {
        &Language::ALL
    };

    let config = CorpusConfig {
        docs_per_language: docs,
        mean_doc_bytes: bytes,
        seed,
        ..CorpusConfig::default()
    };
    let corpus = Corpus::generate_for(langs, config);
    let split = corpus.split();
    let mut written = 0usize;
    for &lang in corpus.languages() {
        let groups: [(&str, Vec<&Document>); 2] = [
            ("train", split.train(lang).collect()),
            ("test", split.test(lang).collect()),
        ];
        for (sub, docs_vec) in groups {
            let dir = out.join(lang.code()).join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
            for d in docs_vec {
                let path = dir.join(format!("doc{:05}.txt", d.index));
                std::fs::write(&path, &d.text).map_err(|e| format!("writing {path:?}: {e}"))?;
                written += 1;
            }
        }
    }
    println!(
        "wrote {written} documents ({:.1} MB) for {} languages under {}",
        corpus.total_bytes() as f64 / 1e6,
        corpus.languages().len(),
        out.display()
    );
    Ok(())
}

fn read_dir_texts(dir: &Path) -> Result<Vec<Vec<u8>>, String> {
    let mut texts = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("reading {d:?}: {e}"))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                texts.push(std::fs::read(&path).map_err(|e| format!("reading {path:?}: {e}"))?);
            }
        }
    }
    texts.sort(); // deterministic training order
    Ok(texts)
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let (flags, dirs) = parse_flags(args, &["out", "t"], &[])?;
    let out = PathBuf::from(flags.get("out").ok_or("train requires --out FILE")?);
    let t = parse_num(&flags, "t", 5000usize)?;
    if dirs.is_empty() {
        return Err("train requires at least one language directory".into());
    }

    let mut store = ProfileStore::new();
    for dir in &dirs {
        let dir = PathBuf::from(dir);
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("cannot derive language name from {dir:?}"))?
            .to_string();
        // Prefer a train/ subdirectory when present (generate's layout).
        let train_dir = if dir.join("train").is_dir() {
            dir.join("train")
        } else {
            dir.clone()
        };
        let texts = read_dir_texts(&train_dir)?;
        if texts.is_empty() {
            return Err(format!("no training files under {train_dir:?}"));
        }
        let profile = NGramProfile::build(NGramSpec::PAPER, texts.iter().map(|t| t.as_slice()), t);
        println!(
            "{name}: {} files, {} profile n-grams",
            texts.len(),
            profile.len()
        );
        store.push(name, profile);
    }
    store
        .save(&out)
        .map_err(|e| format!("saving {out:?}: {e}"))?;
    println!(
        "saved {} language profiles to {}",
        store.len(),
        out.display()
    );
    Ok(())
}

fn load_classifier(
    flags: &std::collections::HashMap<String, String>,
) -> Result<(ProfileStore, MultiLanguageClassifier), String> {
    let path = PathBuf::from(
        flags
            .get("profiles")
            .ok_or("this command requires --profiles FILE")?,
    );
    let store = ProfileStore::load(&path).map_err(|e| format!("loading {path:?}: {e}"))?;
    if store.is_empty() {
        return Err("profile store is empty".into());
    }
    let m = parse_num(flags, "m", 16usize)?;
    let k = parse_num(flags, "k", 4usize)?;
    let s = parse_num(flags, "subsample", 1usize)?;
    if s == 0 {
        return Err("--subsample must be >= 1".into());
    }
    let params = bloom_params(m, k)?;
    let mut classifier =
        MultiLanguageClassifier::from_profiles(store.profiles(), NGramSpec::PAPER, params, 42);
    // Propagates everywhere: whole-buffer classify, chunked stdin
    // streaming, and every network session served from this classifier.
    classifier.set_subsampling(s);
    if flags.contains_key("force-scalar") {
        classifier.set_force_scalar(true);
    }
    Ok((store, classifier))
}

/// Largest `--m`: the vector address (`log2(m · 1024)` bits) must fit the
/// 32-bit H3 output.
const MAX_M_KBITS: usize = 1 << 22;

/// Check `--m` (Kbits per vector) and `--k` where they enter, so an
/// out-of-range value is an error naming the flag, not a panic inside
/// [`BloomParams`].
fn bloom_params(m: usize, k: usize) -> Result<BloomParams, String> {
    if !m.is_power_of_two() || m > MAX_M_KBITS {
        return Err(format!(
            "--m must be a power of two in 1..={MAX_M_KBITS} (Kbits), got {m}"
        ));
    }
    if !(1..=BloomParams::MAX_K).contains(&k) {
        return Err(format!(
            "--k must be in 1..={}, got {k}",
            BloomParams::MAX_K
        ));
    }
    Ok(BloomParams::from_kbits(m, k))
}

/// Chunk size for streaming classification: memory use stays constant no
/// matter how large the input is.
const CLASSIFY_CHUNK: usize = 64 * 1024;

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let (flags, files) = parse_flags(
        args,
        &["profiles", "m", "k", "subsample"],
        &["timing", "force-scalar"],
    )?;
    let (_, classifier) = load_classifier(&flags)?;
    if files.is_empty() {
        return Err("classify requires at least one file".into());
    }
    let timing = flags.contains_key("timing");
    let hist = Histogram::<Micros>::default();
    println!(
        "{:<40} {:<8} {:>8} {:>10}",
        "file", "language", "margin", "n-grams"
    );
    let mut session = StreamingClassifier::new(&classifier);
    let mut buf = vec![0u8; CLASSIFY_CHUNK];
    for f in &files {
        let mut reader: Box<dyn std::io::Read> = if f == "-" {
            Box::new(std::io::stdin().lock())
        } else {
            Box::new(std::fs::File::open(f).map_err(|e| format!("reading {f}: {e}"))?)
        };
        let started = Instant::now();
        loop {
            let n = reader
                .read(&mut buf)
                .map_err(|e| format!("reading {f}: {e}"))?;
            if n == 0 {
                break;
            }
            session.feed(&buf[..n]);
        }
        let r = session.finish();
        hist.record(started.elapsed().as_micros() as u64);
        println!(
            "{:<40} {:<8} {:>8.3} {:>10}",
            f,
            classifier.names()[r.best()],
            r.margin(),
            r.total_ngrams()
        );
    }
    if timing {
        println!("timing: {} µs", hist.snapshot());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(
        args,
        &[
            "profiles",
            "m",
            "k",
            "subsample",
            "addr",
            "workers",
            "reactors",
            "max-connections",
            "max-channels",
            "outbound-high-water",
            "slow-consumer-ms",
            "watchdog-ms",
            "stats-interval",
            "drain-deadline-ms",
            "chaos-seed",
            "chaos-rate",
            "trace-sample",
            "trace-slow-us",
        ],
        &["force-scalar"],
    )?;
    let (_, classifier) = load_classifier(&flags)?;
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4004")
        .to_string();
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        workers: parse_num(&flags, "workers", 0usize)?,
        reactors: parse_num(&flags, "reactors", 0usize)?,
        max_connections: parse_num(&flags, "max-connections", defaults.max_connections)?,
        max_channels: parse_num(&flags, "max-channels", defaults.max_channels)?,
        outbound_high_water: parse_num(
            &flags,
            "outbound-high-water",
            defaults.outbound_high_water,
        )?,
        slow_consumer_deadline: std::time::Duration::from_millis(parse_num(
            &flags,
            "slow-consumer-ms",
            defaults.slow_consumer_deadline.as_millis() as u64,
        )?),
        watchdog: std::time::Duration::from_millis(parse_num(&flags, "watchdog-ms", 5000u64)?),
        chaos: {
            // One knob sets a whole fault mix: --chaos-rate r injects
            // short reads/writes at r, lost wakes at r/2, payload
            // corruption and worker panics at r/10, connection resets at
            // r/100 — all on a schedule replayable from --chaos-seed.
            let rate: f64 = match flags.get("chaos-rate") {
                Some(s) => s
                    .parse()
                    .map_err(|e| format!("parsing --chaos-rate: {e}"))?,
                None => 0.0,
            };
            let seed = parse_num(&flags, "chaos-seed", 0xC4A0_5EEDu64)?;
            (rate > 0.0).then(|| lcbloom::service::ChaosConfig {
                seed,
                short_read: rate,
                short_write: rate,
                wake_drop: rate / 2.0,
                corrupt_payload: rate / 10.0,
                conn_reset: rate / 100.0,
                worker_panic: rate / 10.0,
                ..Default::default()
            })
        },
        // --trace-sample N samples every Nth document's span (1 = all,
        // 0 = off) and --trace-slow-us adds the stragglers; faulted
        // documents are always captured.
        trace_sample: parse_num(&flags, "trace-sample", defaults.trace_sample)?,
        trace_slow_us: parse_num(&flags, "trace-slow-us", defaults.trace_slow_us)?,
        ..defaults
    };
    let stats_secs = parse_num(&flags, "stats-interval", 10u64)?;
    let drain_deadline =
        std::time::Duration::from_millis(parse_num(&flags, "drain-deadline-ms", 5000u64)?);
    // Each connection costs two fds (stream + write-through dup); make the
    // process limit match the configured cap, best-effort.
    let _ = lcbloom::service::raise_nofile_limit(2 * config.max_connections as u64 + 64);
    let classifier = std::sync::Arc::new(classifier);
    let handle = lcbloom::service::serve(
        std::sync::Arc::clone(&classifier),
        addr.as_str(),
        config.clone(),
    )
    .map_err(|e| format!("binding {addr}: {e}"))?;
    let auto_or = |n: usize| {
        if n == 0 {
            "auto".to_string()
        } else {
            n.to_string()
        }
    };
    println!(
        "serving {} languages on {} ({} probe path, {} workers, {} reactors, \
         ≤{} connections, {} KiB outbound high-water, {:?} slow-consumer deadline, \
         {:?} watchdog)",
        classifier.num_languages(),
        handle.addr(),
        classifier.simd_level(),
        auto_or(config.workers),
        auto_or(config.reactors),
        config.max_connections,
        config.outbound_high_water / 1024,
        config.slow_consumer_deadline,
        config.watchdog,
    );
    // SIGTERM/SIGINT latch a flag instead of killing the process: the loop
    // below notices within 100ms, drains in-flight documents under the
    // deadline, prints the final snapshot, and exits 0.
    lcbloom::service::install_termination_handler()
        .map_err(|e| format!("installing termination handler: {e}"))?;
    let metrics = std::sync::Arc::clone(handle.metrics());
    let mut last_stats = Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if lcbloom::service::termination_requested() {
            eprintln!("termination signal; draining (deadline {drain_deadline:?})");
            let snapshot = handle.drain(drain_deadline);
            eprintln!("{snapshot}");
            return Ok(());
        }
        if last_stats.elapsed() >= std::time::Duration::from_secs(stats_secs.max(1)) {
            last_stats = Instant::now();
            eprintln!("{}", metrics.snapshot());
        }
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (flags, files) = parse_flags(
        args,
        &["addr", "channels", "window", "timeout-ms"],
        &["timing", "force-scalar"],
    )?;
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4004");
    let channels = parse_num(&flags, "channels", 1u16)?;
    if channels == 0 {
        return Err("--channels must be >= 1".into());
    }
    // --timing reads per-document times from server-side sampled spans, so
    // it rides the pipelined path at full speed instead of forcing
    // stop-and-wait round trips like a client-side stopwatch would.
    let timing = flags.contains_key("timing");
    let window = parse_num(&flags, "window", 4 * channels as usize)?;
    let timeout_ms = parse_num(&flags, "timeout-ms", 0u64)?;
    if files.is_empty() {
        return Err("query requires at least one file".into());
    }
    let mut client = if timeout_ms > 0 {
        let t = std::time::Duration::from_millis(timeout_ms);
        let policy = lcbloom::service::RetryPolicy {
            connect_timeout: Some(t),
            io_timeout: Some(t),
            ..Default::default()
        };
        ClassifyClient::connect_with(addr, &policy)
    } else {
        ClassifyClient::connect(addr)
    }
    .map_err(|e| format!("connecting {addr}: {e}"))?;
    // Classification runs server-side, so `--force-scalar` here cannot pin
    // a path — it *verifies* one: the server advertises its resolved probe
    // path on the stats plane, and a mismatch fails before any document is
    // sent (the live A/B guard deployments script against).
    if flags.contains_key("force-scalar") {
        let snap = client
            .stats(0)
            .map_err(|e| format!("fetching stats from {addr}: {e}"))?;
        match snap.simd.as_str() {
            "scalar" => {}
            "" => {
                return Err(format!(
                    "--force-scalar: server {addr} does not report its probe path \
                     (pre-simd build?)"
                ))
            }
            other => {
                return Err(format!(
                    "--force-scalar: server {addr} is serving the `{other}` path \
                     (restart it with `lcbloom serve --force-scalar`)"
                ))
            }
        }
    }
    println!(
        "{:<40} {:<8} {:>8} {:>10}",
        "file", "language", "margin", "n-grams"
    );
    let print_row = |f: &str, client: &ClassifyClient, served: &lcbloom::service::ServedResult| {
        let r = &served.result;
        println!(
            "{:<40} {:<8} {:>8.3} {:>10}",
            f,
            client.languages()[r.best()],
            r.margin(),
            r.total_ngrams()
        );
    };
    if channels > 1 || timing {
        // Multiplexed: all documents in memory, fanned over wire-v2
        // channels on this one connection so the server's whole worker
        // pool serves the batch.
        if timing {
            // Trace id 0 is divisible by every sample rate, so these
            // documents are sampled whenever the server traces at all.
            client.set_trace_context(Some(QUERY_TRACE_ID));
        }
        let texts: Vec<Vec<u8>> = files
            .iter()
            .map(|f| {
                if f == "-" {
                    let mut text = Vec::new();
                    std::io::stdin()
                        .lock()
                        .read_to_end(&mut text)
                        .map_err(|e| format!("reading stdin: {e}"))?;
                    Ok(text)
                } else {
                    std::fs::read(f).map_err(|e| format!("reading {f}: {e}"))
                }
            })
            .collect::<Result<_, String>>()?;
        let docs: Vec<&[u8]> = texts.iter().map(|t| t.as_slice()).collect();
        let served = client
            .classify_many_mux(&docs, channels, window)
            .map_err(|e| format!("classifying over {channels} channels: {e}"))?;
        for (f, s) in files.iter().zip(&served) {
            print_row(f, &client, s);
        }
        if timing {
            report_span_timing(&mut client)?;
        }
        return Ok(());
    }
    for f in &files {
        let served = if f == "-" {
            let mut text = Vec::new();
            std::io::stdin()
                .lock()
                .read_to_end(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            client.classify(&text)
        } else {
            let mut file = std::fs::File::open(f).map_err(|e| format!("reading {f}: {e}"))?;
            let len = file
                .metadata()
                .map_err(|e| format!("reading {f}: {e}"))?
                .len();
            client.classify_reader(&mut file, len)
        }
        .map_err(|e| format!("classifying {f}: {e}"))?;
        print_row(f, &client, &served);
    }
    Ok(())
}

/// The trace id `query --timing` stamps on its documents: 0 is divisible
/// by every `--trace-sample` rate, so the batch is sampled whenever the
/// server traces at all, while the client-context flag plus this id let
/// the timing report pick exactly its own spans out of the drain.
const QUERY_TRACE_ID: u64 = 0;

/// Fetch the server's sampled spans and report this batch's times from
/// them: percentile bounds in the shared latency buckets plus mean stage
/// splits — all measured server-side, so pipelining cost the numbers
/// nothing.
fn report_span_timing(client: &mut ClassifyClient) -> Result<(), String> {
    let snap = client
        .stats(2)
        .map_err(|e| format!("fetching spans: {e}"))?;
    let spans: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| {
            s.flags & lcbloom::service::SPAN_CLIENT_CONTEXT != 0 && s.trace_id == QUERY_TRACE_ID
        })
        .collect();
    if spans.is_empty() {
        println!("timing: no sampled spans came back (is the server running with --trace-sample?)");
        return Ok(());
    }
    let hist = Histogram::<Micros>::default();
    for s in &spans {
        hist.record(s.total_us);
    }
    println!("timing: {} µs", hist.snapshot());
    let n = spans.len() as u64;
    let mean =
        |pick: fn(&&lcbloom::service::SpanRecord) -> u64| spans.iter().map(pick).sum::<u64>() / n;
    println!(
        "stages (server-side means): queue={}µs classify={}µs drain={}µs",
        mean(|s| s.queue_us),
        mean(|s| s.classify_us),
        mean(|s| s.drain_us)
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, &["addr", "watch"], &[])?;
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4004");
    let watch = parse_num(&flags, "watch", 0u64)?;
    // A dedicated connection: GetStats must not interleave with document
    // responses, and a fresh connection has none in flight by construction.
    let mut client =
        ClassifyClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut prev: Option<(MetricsSnapshot, Instant)> = None;
    loop {
        let (snap, at) = poll_stats(&mut client, addr)?;
        print_snapshot(&snap);
        // --watch: the rates over the interval this loop measured between
        // its last two reads.
        if let Some((p, p_at)) = &prev {
            println!("{}", rate_line(&StatsDelta::delta(p, &snap, at - *p_at)));
        }
        if watch == 0 {
            return Ok(());
        }
        prev = Some((snap, at));
        std::thread::sleep(std::time::Duration::from_secs(watch.max(1)));
        println!();
    }
}

/// A counters-only snapshot (detail 0 drains no spans) and when it was read.
fn poll_stats(c: &mut ClassifyClient, addr: &str) -> Result<(MetricsSnapshot, Instant), String> {
    let snap = c
        .stats(0)
        .map_err(|e| format!("fetching stats from {addr}: {e}"))?;
    Ok((snap, Instant::now()))
}

/// Print a wire-fetched snapshot: the compact one-line summary first, then
/// one greppable `key: value` line per aggregate and one line per shard /
/// stage (what the CI smoke steps and shell pipelines parse).
fn print_snapshot(snap: &MetricsSnapshot) {
    println!("{snap}");
    println!("documents: {}", snap.documents);
    if !snap.simd.is_empty() {
        println!("simd: {}", snap.simd);
    }
    let sum: u64 = snap.shards.iter().map(|s| s.docs).sum();
    println!("shard_docs_sum: {sum}");
    for (i, s) in snap.shards.iter().enumerate() {
        println!(
            "shard[{i}]: docs={} busy_ms={} depth={} peak={} parked={} jobs={}",
            s.docs,
            s.busy_ns / 1_000_000,
            s.queue_depth,
            s.queue_depth_peak,
            s.parked,
            s.jobs
        );
    }
    for (name, hist) in [
        ("latency", &snap.latency),
        ("queue-wait", &snap.queue_wait),
        ("classify", &snap.classify),
        ("response-drain", &snap.response_drain),
    ] {
        println!("stage[{name}]: {hist} µs");
    }
    println!(
        "reactor: wakeups={} eventfd={} reads={} writes={} short-read-continuations={}",
        snap.reactor_wakeups,
        snap.eventfd_wakes,
        snap.read_syscalls,
        snap.write_syscalls,
        snap.short_read_continuations
    );
    let wake_dist: Vec<String> = snap
        .events_per_wake
        .nonzero()
        .map(|(bound, n)| match bound {
            Some(b) => format!("≤{b}:{n}"),
            None => format!("over:{n}"),
        })
        .collect();
    if !wake_dist.is_empty() {
        println!("events-per-wake: {}", wake_dist.join(" "));
    }
}

/// One greppable line of rates between two snapshots, plus per-shard
/// busy fractions and queue depths.
fn rate_line(delta: &StatsDelta) -> String {
    let busy: Vec<String> = (0..delta.shards.len())
        .map(|i| format!("{:.2}", delta.busy_frac(i)))
        .collect();
    let depth: Vec<String> = delta
        .shards
        .iter()
        .map(|s| s.queue_depth.to_string())
        .collect();
    format!(
        "rates over {:.3}s: docs/s={:.1} mb/s={:.2} errors={} faults={} busy=[{}] depth=[{}]",
        delta.interval.as_secs_f64(),
        delta.docs_per_s(),
        delta.mb_per_s(),
        delta.errors,
        delta.faults,
        busy.join(","),
        depth.join(",")
    )
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, &["addr", "interval"], &["follow"])?;
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4004");
    let follow = flags.contains_key("follow");
    let interval = parse_num(&flags, "interval", 1u64)?.max(1);
    let mut client =
        ClassifyClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    loop {
        // detail 2 *drains* the span buffers: each poll renders only what
        // arrived since the previous one, which is exactly what a follow
        // loop wants.
        let snap = client
            .stats(2)
            .map_err(|e| format!("fetching spans from {addr}: {e}"))?;
        if snap.spans.is_empty() && !follow {
            println!(
                "no spans (no document faulted, was sampled or ran slow since the last \
                 drain)"
            );
            return Ok(());
        }
        for s in &snap.spans {
            print_span(s);
        }
        if !follow {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
}

/// Compact letter form of a span's flag bits (greppable: `flags=SF`).
fn span_flags_str(flags: u8) -> String {
    let mut out = String::new();
    for (bit, ch) in [
        (lcbloom::service::SPAN_SAMPLED, 'S'),
        (lcbloom::service::SPAN_CLIENT_CONTEXT, 'C'),
        (lcbloom::service::SPAN_SLOW, 'L'),
        (lcbloom::service::SPAN_FAULT, 'F'),
        (lcbloom::service::SPAN_PARKED, 'P'),
    ] {
        if flags & bit != 0 {
            out.push(ch);
        }
    }
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// One span: a greppable key=value line (what the CI smoke step parses)
/// followed by a stage waterfall scaled to the span's end-to-end time —
/// `░` queue wait, `█` classify, `▓` response drain.
fn print_span(s: &lcbloom::service::SpanRecord) {
    let shard = if s.shard == u16::MAX {
        "-".to_string()
    } else {
        s.shard.to_string()
    };
    println!(
        "span trace={:016x} conn={} ch={} seq={} shard={} bytes={} queue_us={} \
         classify_us={} drain_us={} total_us={} flags={} fault={}",
        s.trace_id,
        s.conn,
        s.channel,
        s.doc_seq,
        shard,
        s.doc_bytes,
        s.queue_us,
        s.classify_us,
        s.drain_us,
        s.total_us,
        span_flags_str(s.flags),
        lcbloom::service::fault_name(s.fault)
    );
    const WIDTH: u64 = 40;
    let total = s.total_us.max(1);
    // Stage cells floor-scaled (min 1 when the stage ran at all), then
    // capped left-to-right so the bar never overruns its WIDTH columns.
    let cells = |us: u64| {
        if us == 0 {
            0
        } else {
            (us * WIDTH / total).max(1)
        }
    };
    let mut left = WIDTH;
    let mut bar = String::new();
    for (us, ch) in [(s.queue_us, '░'), (s.classify_us, '█'), (s.drain_us, '▓')] {
        let n = cells(us).min(left);
        left -= n;
        bar.extend(std::iter::repeat_n(ch, n as usize));
    }
    bar.extend(std::iter::repeat_n(' ', left as usize));
    println!("  |{bar}| {}µs", s.total_us);
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args, &["addr", "interval"], &["once"])?;
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:4004");
    let once = flags.contains_key("once");
    let interval = parse_num(&flags, "interval", 2u64)?.max(1);
    let mut client =
        ClassifyClient::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    // Each interval's rates are the delta between this loop's own two
    // counters-only reads; the newest 60 intervals fit a terminal row.
    let mut window = std::collections::VecDeque::with_capacity(60);
    let (mut prev, mut prev_at) = poll_stats(&mut client, addr)?;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(interval));
        let (snap, at) = poll_stats(&mut client, addr)?;
        if window.len() == 60 {
            window.pop_front();
        }
        window.push_back(StatsDelta::delta(&prev, &snap, at - prev_at));
        (prev, prev_at) = (snap, at);
        if !once {
            // Repaint in place like top(1).
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "lcbloom top — {addr} — {} interval(s) of {interval}s, newest right",
            window.len()
        );
        let last = window.back().expect("an interval was just pushed");
        let docs: Vec<f64> = window.iter().map(|d| d.docs_per_s()).collect();
        let mbs: Vec<f64> = window.iter().map(|d| d.mb_per_s()).collect();
        let fmax = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<8} {}  now {:>8.1}  max {:>8.1}",
            "docs/s",
            sparkline(&docs),
            last.docs_per_s(),
            fmax(&docs)
        );
        println!(
            "{:<8} {}  now {:>8.2}  max {:>8.2}",
            "MB/s",
            sparkline(&mbs),
            last.mb_per_s(),
            fmax(&mbs)
        );
        for (i, shard) in last.shards.iter().enumerate() {
            let busy: Vec<f64> = window.iter().map(|d| d.busy_frac(i)).collect();
            println!(
                "shard[{i}]  {}  busy {:>5.2}  depth {}",
                sparkline(&busy),
                last.busy_frac(i),
                shard.queue_depth
            );
        }
        if once {
            return Ok(());
        }
    }
}

/// Unicode block-element sparkline, scaled to the series' own maximum.
fn sparkline(vals: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    vals.iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                BARS[((v / max * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let (flags, files) = parse_flags(args, &["profiles", "m", "k", "subsample"], &["sync"])?;
    let (store, classifier) = load_classifier(&flags)?;
    if files.is_empty() {
        return Err("simulate requires at least one file".into());
    }
    let texts: Vec<Vec<u8>> = files
        .iter()
        .map(|f| std::fs::read(f).map_err(|e| format!("reading {f}: {e}")))
        .collect::<Result<_, _>>()?;
    let docs: Vec<&[u8]> = texts.iter().map(|t| t.as_slice()).collect();

    let config = ClassifierConfig {
        bloom: classifier.params(),
        languages: store.len(),
        copies: 4,
    };
    let hw = HardwareClassifier::place(classifier, config).with_clock_mhz(194.0);
    let mut sys = Xd1000::new(hw);
    let protocol = if flags.contains_key("sync") {
        HostProtocol::Synchronous
    } else {
        HostProtocol::Asynchronous
    };
    let report = sys.run(&docs, protocol);

    for (f, r) in files.iter().zip(&report.results) {
        println!(
            "{:<40} {}",
            f,
            sys.hardware().classifier().names()[r.best()]
        );
    }
    println!(
        "\n{} documents, {:.2} MB in {:.2} ms simulated ({:?}): {:.0} MB/s",
        report.documents,
        report.total_bytes as f64 / 1e6,
        report.sim_time.as_secs_f64() * 1e3,
        protocol,
        report.throughput_mb_s()
    );
    Ok(())
}

/// Report the host's vector capability and which probe path a classifier
/// built in this process would select — what CI logs so a silent fallback
/// to scalar (new runner, changed env) is visible in the job output.
fn cmd_simd(args: &[String]) -> Result<(), String> {
    let (_, _) = parse_flags(args, &[], &[])?;
    let cpu = SimdLevel::cpu_has_avx2();
    let forced = SimdLevel::force_scalar_requested();
    let selected = SimdLevel::detect();
    println!("cpu avx2: {}", if cpu { "yes" } else { "no" });
    println!("LC_FORCE_SCALAR: {}", if forced { "set" } else { "unset" });
    println!("selected: {selected}");
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    println!("training on a synthetic 10-language corpus...");
    let corpus = Corpus::generate(CorpusConfig::default());
    let classifier =
        lcbloom::train_bloom_classifier(&corpus, 5000, BloomParams::PAPER_CONSERVATIVE, 42);
    let mut correct = 0usize;
    let mut total = 0usize;
    for d in corpus.split().test_all() {
        total += 1;
        correct += usize::from(classifier.classify(&d.text).best() == d.language.index());
    }
    println!(
        "accuracy on {} held-out documents: {:.2}%",
        total,
        correct as f64 / total as f64 * 100.0
    );
    for (&lang, sample) in Language::ALL.iter().zip([
        "tous les êtres humains naissent libres",
        "all human beings are born free and equal",
    ]) {
        let _ = lang;
        let latin1 = lcbloom::corpus::translit::to_latin1(sample);
        println!("  \"{sample}\" -> {}", classifier.identify(&latin1));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_params_rejects_out_of_range_flags() {
        assert_eq!(bloom_params(16, 4), Ok(BloomParams::PAPER_CONSERVATIVE));
        assert_eq!(
            bloom_params(MAX_M_KBITS, BloomParams::MAX_K),
            Ok(BloomParams::new(BloomParams::MAX_K, 32))
        );
        for (m, k, flag) in [
            (12, 4, "--m"),
            (0, 4, "--m"),
            (2 * MAX_M_KBITS, 4, "--m"),
            (16, 0, "--k"),
            (16, BloomParams::MAX_K + 1, "--k"),
        ] {
            let err = bloom_params(m, k).unwrap_err();
            assert!(err.starts_with(flag), "m={m} k={k}: {err}");
        }
    }
}
