//! The traced run's in-process layer rows: extraction, H3, bank probe and
//! count, fused classify, per-call overhead, and probe loops at bank
//! widths the workloads do not reach. Every number comes from spans the
//! benchmark records around its own calls into `lc-ngram`, `lc-hash`,
//! `lc-bloom` and `lc-core`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lc_bloom::{FilterBank, ParallelBloomFilter, SimdLevel};
use lc_core::MultiLanguageClassifier;
use lc_hash::H3Family;
use lc_ngram::NGram;

use crate::fixture::{splitmix64, PROFILE_SIZE};
use crate::report::Report;
use crate::spans::{summarize, Totals, Tracer};
use crate::stats;

/// The two dispatch paths, as `set_force_scalar` selects them.
const PATHS: [(&str, bool); 2] = [("scalar", true), ("avx2", false)];

/// Synthetic bank widths for the probe rows, covering every mask width
/// (u8, u16, u32, u64, multi-word) and both AVX2 engines.
const WIDTHS: [(usize, &str, &str); 5] = [
    (8, "bloom.accumulate.p8", "p8"),
    (16, "bloom.accumulate.p16", "p16"),
    (32, "bloom.accumulate.p32", "p32"),
    (64, "bloom.accumulate.p64", "p64"),
    (128, "bloom.accumulate.p128", "p128"),
];

/// At most this many n-grams feed the synthetic-bank and all-miss rows.
const KEY_CAP: usize = 1 << 18;

/// Classify calls per `core.classify.tiny` span.
const TINY_BATCH: u64 = 1000;

/// Run every in-process row within about `budget`, recording the
/// per-layer metrics into `report`. Returns one tracer per dispatch path
/// (for the span file) and the tracing overhead: the median traced pass
/// of fused classify over the median untraced one, minus 1, on the path
/// the classifier selects.
///
/// `hash.h3_ns_per_gram` times the scalar const-k H3 evaluator, the hash
/// the scalar probe loops run; `bloom.probe_ns_per_gram.*` is the
/// accumulate time minus that hash time. The AVX2 engine hashes eight
/// keys at a time instead, so its probe rows subtract a larger hash cost
/// than the engine pays and read low.
pub fn inproc_rows(
    c: &MultiLanguageClassifier,
    texts: &[&[u8]],
    hash_seed: u64,
    budget: Duration,
    epoch: Instant,
    report: &mut Report,
) -> (Vec<Tracer>, f64) {
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let extractor = c.extractor();
    let mut keys = Vec::new();
    let mut grams = Vec::new();
    for text in texts {
        if keys.len() >= KEY_CAP {
            break;
        }
        extractor.extract_into(text, &mut grams);
        keys.extend(grams.iter().map(|g| g.value()));
    }
    keys.truncate(KEY_CAP);
    let mut banks = synthetic_banks(c, hash_seed);

    let slice = budget.div_f64(PATHS.len() as f64);
    let mut tracers = Vec::new();
    let mut h3_ns_per_gram = Vec::new();
    let mut extract_ns_per_byte = Vec::new();
    let mut layer = LayerWork::default();
    let mut overhead = None;
    for (path, force_scalar) in PATHS {
        let mut cp = c.clone();
        cp.set_force_scalar(force_scalar);
        let level = cp.simd_level();
        let mut tr = Tracer::new(path, epoch, true);

        let (untraced_ns, traced_ns) = fused_ab(&cp, texts, slice.mul_f64(0.3), &mut tr);
        layer = layer_passes(&cp, texts, slice.mul_f64(0.3), &mut tr);
        tiny_calls(&cp, slice.mul_f64(0.1), &mut tr);
        let per_bank = slice.mul_f64(0.3).div_f64(WIDTHS.len() as f64);
        for (bank, (_, span, _)) in banks.iter_mut().zip(WIDTHS) {
            bank.set_simd_level(level);
            bank_passes(bank, &keys, per_bank, span, &mut tr);
        }

        let sums = summarize([&tr]);
        let get = |name: &str| sums.get(name).copied().unwrap_or_default();
        let per = |t: Totals, n: f64| stats::ratio(t.total_ns as f64, n);
        let extract = per(get("ngram.extract"), layer.bytes as f64);
        let h3 = per(get("hash.h3"), layer.grams as f64);
        let accumulate = get("bloom.accumulate");
        let classify = get("core.classify");
        let fused = per(
            classify,
            (classify.count as usize / texts.len().max(1) * bytes) as f64,
        );
        extract_ns_per_byte.push(extract);
        h3_ns_per_gram.push(h3);
        report.metric(
            format!("bloom.probe_ns_per_gram.{path}"),
            per(accumulate, layer.grams as f64) - h3,
            "ns/gram",
        );
        report.metric(format!("core.fused_ns_per_byte.{path}"), fused, "ns/B");
        let two_phase = extract + per(accumulate, layer.bytes as f64);
        report.metric(
            format!("core.fusion_gain.{path}"),
            stats::ratio(two_phase, fused),
            "x",
        );
        let tiny = get("core.classify.tiny");
        report.metric(
            format!("core.call_overhead_ns.{path}"),
            per(tiny, (tiny.count * TINY_BATCH) as f64),
            "ns",
        );
        for (_, span, width) in WIDTHS {
            let t = get(span);
            report.metric(
                format!("bloom.probe_ns_per_gram.{width}.{path}"),
                per(t, t.count as f64 * keys.len() as f64) - h3,
                "ns/gram",
            );
        }
        if level == c.simd_level() && overhead.is_none() {
            overhead =
                Some(stats::ratio(stats::median(&traced_ns), stats::median(&untraced_ns)) - 1.0);
        }
        tracers.push(tr);
    }
    report.metric(
        "ngram.extract_ns_per_byte",
        stats::median(&extract_ns_per_byte),
        "ns/B",
    );
    report.metric(
        "hash.h3_ns_per_gram",
        stats::median(&h3_ns_per_gram),
        "ns/gram",
    );
    report.metric(
        "bloom.match_ratio",
        stats::ratio(
            layer.matches as f64,
            (layer.grams * c.num_languages()) as f64,
        ),
        "frac",
    );
    let all_miss = keys
        .iter()
        .filter(|&&k| c.bank().match_mask(k).iter().all(|&w| w == 0))
        .count();
    report.metric(
        "bloom.all_miss_frac",
        stats::ratio(all_miss as f64, keys.len() as f64),
        "frac",
    );
    (tracers, overhead.unwrap_or(0.0))
}

/// Alternate untraced passes (timed whole) with traced passes (one
/// `core.classify` span per call) over the documents, returning both
/// sides' pass times. The ratio of their medians is the tracing overhead.
fn fused_ab(
    c: &MultiLanguageClassifier,
    texts: &[&[u8]],
    budget: Duration,
    tr: &mut Tracer,
) -> (Vec<f64>, Vec<f64>) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        for text in texts {
            black_box(c.classify(black_box(text)));
        }
        untraced.push(t0.elapsed().as_nanos() as f64);

        let t0 = Instant::now();
        for (i, text) in texts.iter().enumerate() {
            tr.span("core.classify", i as u64, || {
                black_box(c.classify(black_box(text)))
            });
        }
        traced.push(t0.elapsed().as_nanos() as f64);
    }
    (untraced, traced)
}

/// Work counted by the two-phase layer passes.
#[derive(Debug, Default)]
struct LayerWork {
    bytes: usize,
    grams: usize,
    matches: u64,
}

/// Per document: extract the n-grams, hash them all, then probe and count
/// them on the bank, each call under its own span.
fn layer_passes(
    c: &MultiLanguageClassifier,
    texts: &[&[u8]],
    budget: Duration,
    tr: &mut Tracer,
) -> LayerWork {
    let extractor = c.extractor();
    let hashes = c.bank().hashes();
    let mut grams = Vec::new();
    let mut counts = vec![0u64; c.num_languages()];
    let mut work = LayerWork::default();
    let start = Instant::now();
    while work.bytes == 0 || start.elapsed() < budget {
        for (i, text) in texts.iter().enumerate() {
            let req = i as u64;
            tr.begin("doc", req);
            tr.span("ngram.extract", req, || {
                extractor.extract_into(text, &mut grams)
            });
            tr.span("hash.h3", req, || black_box(hash_stream(hashes, &grams)));
            counts.fill(0);
            tr.span("bloom.accumulate", req, || {
                c.accumulate_ngrams(&grams, &mut counts)
            });
            tr.end();
            work.bytes += text.len();
            work.grams += grams.len();
            work.matches += counts.iter().sum::<u64>();
        }
    }
    work
}

/// Evaluate all `k` H3 functions on every n-gram with the const-k fused
/// evaluator the scalar probe loops use, folding the addresses together
/// so none of the work can be skipped.
fn hash_stream(hashes: &H3Family, grams: &[NGram]) -> u32 {
    fn fold<const K: usize>(hashes: &H3Family, grams: &[NGram]) -> u32 {
        let eval = hashes.fused_evaluator_k::<K>();
        grams.iter().fold(0, |acc, g| {
            eval.hash_all_array(g.value())
                .iter()
                .fold(acc, |a, &x| a ^ x)
        })
    }
    match hashes.k() {
        4 => fold::<4>(hashes, grams),
        6 => fold::<6>(hashes, grams),
        k => {
            let mut addrs = vec![0u32; k];
            grams.iter().fold(0, |acc, g| {
                hashes.hash_all_into(g.value(), &mut addrs);
                addrs.iter().fold(acc, |a, &x| a ^ x)
            })
        }
    }
}

/// Classify empty and one-byte documents in batches: what a call costs
/// beyond its bytes.
fn tiny_calls(c: &MultiLanguageClassifier, budget: Duration, tr: &mut Tracer) {
    let start = Instant::now();
    let mut batch = 0u64;
    while batch == 0 || start.elapsed() < budget {
        let text: &[u8] = if batch.is_multiple_of(2) { b"" } else { b"a" };
        tr.span("core.classify.tiny", batch, || {
            for _ in 0..TINY_BATCH {
                black_box(c.classify(black_box(text)));
            }
        });
        batch += 1;
    }
}

/// Probe the whole key stream through `bank`, one span per pass.
fn bank_passes(
    bank: &FilterBank,
    keys: &[u64],
    budget: Duration,
    span: &'static str,
    tr: &mut Tracer,
) {
    let mut counts = vec![0u64; bank.languages()];
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed() < budget {
        tr.span(span, pass, || {
            bank.accumulate_keys(keys.iter().copied(), &mut counts)
        });
        black_box(&counts);
        pass += 1;
    }
}

/// Banks of [`WIDTHS`] languages with the workload's Bloom parameters and
/// hash family, each language programmed with `t` seeded random n-gram
/// keys, so the probe rows see the occupancy a trained profile gives.
fn synthetic_banks(c: &MultiLanguageClassifier, hash_seed: u64) -> Vec<FilterBank> {
    let key_mask = (1u64 << c.spec().bits()) - 1;
    WIDTHS
        .iter()
        .map(|&(p, _, _)| {
            let filters: Vec<ParallelBloomFilter> = (0..p)
                .map(|j| {
                    let mut f = ParallelBloomFilter::new(c.params(), c.spec().bits(), hash_seed);
                    let mut state = hash_seed ^ ((j as u64) << 32);
                    f.program_all((0..PROFILE_SIZE).map(|_| {
                        state = splitmix64(state);
                        state & key_mask
                    }));
                    f
                })
                .collect();
            let mut bank = FilterBank::from_filters(&filters);
            bank.set_simd_level(SimdLevel::Scalar);
            bank
        })
        .collect()
}
