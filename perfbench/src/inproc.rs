//! In-process classify: the oracle every measured result is checked
//! against, and the timed single-thread loop behind `classify_mb_s`,
//! `latency_p50_us` and `cpu_us_per_doc`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lc_core::{ClassificationResult, MultiLanguageClassifier};

use crate::fixture::{sample_indices, Doc};
use crate::gauge::Gauge;
use crate::host;
use crate::report::Report;
use crate::stats;

/// Documents per run on which the fused and pre-extracted paths are also
/// checked against the naive per-language filter walk.
const NAIVE_SAMPLE: usize = 32;

/// The expected result of every document: `classify_ngrams` over the
/// extracted n-grams. Checks, counting each comparison as an operation,
/// that the fused `classify` agrees on every document and that the naive
/// reference agrees on a seeded sample.
pub fn oracle(
    c: &MultiLanguageClassifier,
    texts: &[&[u8]],
    seed: u64,
    report: &mut Report,
) -> Vec<ClassificationResult> {
    let extractor = c.extractor();
    let mut grams = Vec::new();
    let mut expected = Vec::with_capacity(texts.len());
    for text in texts {
        extractor.extract_into(text, &mut grams);
        let banked = c.classify_ngrams(&grams);
        report.check(same(&c.classify(text), &banked));
        expected.push(banked);
    }
    for i in sample_indices(seed ^ 0x005A_3B1E, texts.len(), NAIVE_SAMPLE) {
        extractor.extract_into(texts[i], &mut grams);
        report.check(same(&c.classify_ngrams_naive(&grams), &expected[i]));
    }
    expected
}

/// Whether two results agree on every counter, the n-gram total and the
/// best language.
pub fn same(a: &ClassificationResult, b: &ClassificationResult) -> bool {
    a.counts() == b.counts() && a.total_ngrams() == b.total_ngrams() && a.best() == b.best()
}

/// Make the first `n` expected results wrong on purpose, so a self-test
/// can show that a wrong result is counted as a failed operation.
pub fn plant_mismatches(expected: &mut [ClassificationResult], n: usize) {
    for r in expected.iter_mut().take(n) {
        let mut counts = r.counts().to_vec();
        counts[0] += 1;
        *r = ClassificationResult::new(counts, r.total_ngrams());
    }
}

/// Share of documents whose expected best language is their label.
pub fn accuracy(docs: &[Doc], expected: &[ClassificationResult]) -> f64 {
    let hits = docs
        .iter()
        .zip(expected)
        .filter(|(d, r)| r.best() == d.label)
        .count();
    stats::ratio(hits as f64, docs.len() as f64)
}

/// What the timed loop measured, pass by pass.
#[derive(Debug, Default)]
pub struct ClassifyRun {
    /// Throughput of each full pass over the documents, MB/s.
    pub pass_mb_s: Vec<f64>,
    /// Median wall time of a call in each pass, µs.
    pub pass_p50_us: Vec<f64>,
    /// CPU time of the measuring thread per call in each pass, µs.
    pub pass_cpu_us_per_call: Vec<f64>,
    /// The host's slowdown around each pass.
    pub pass_slowdown: Vec<f64>,
}

impl ClassifyRun {
    /// `values` (one per pass) at the nominal host speed
    /// ([`stats::at_nominal`]), logging their spread as `name`.
    pub fn at_nominal(&self, name: &str, values: &[f64]) -> f64 {
        stats::log_profile(name, values);
        stats::at_nominal(values, &self.pass_slowdown)
    }
}

/// Classify every document once untimed on each classifier, then in full
/// passes for at least `budget`, timing each call and gauging the host
/// before and after each pass; `between_passes` runs after every pass,
/// outside the timing. Passes rotate over the classifiers, which are
/// identical but separately allocated, so one unlucky memory layout cannot
/// set the whole run's speed. Every result is compared with `expected`.
pub fn measure(
    classifiers: &[MultiLanguageClassifier],
    texts: &[&[u8]],
    expected: &[ClassificationResult],
    budget: Duration,
    gauge: &Gauge,
    mut between_passes: impl FnMut(),
    report: &mut Report,
) -> ClassifyRun {
    for c in classifiers {
        for text in texts {
            black_box(c.classify(black_box(text)));
        }
    }
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    let mut run = ClassifyRun::default();
    let mut call_us = Vec::with_capacity(texts.len());
    let mut failed = 0u64;
    let start = Instant::now();
    while run.pass_mb_s.is_empty() || start.elapsed() < budget {
        let c = &classifiers[run.pass_mb_s.len() % classifiers.len()];
        call_us.clear();
        let ((pass_ns, cpu), slowdown) = gauge.around(|| {
            let cpu_before = host::this_thread();
            let mut pass_ns = 0u128;
            for (text, want) in texts.iter().zip(expected) {
                let t0 = Instant::now();
                let got = black_box(c.classify(black_box(text)));
                let ns = t0.elapsed().as_nanos();
                pass_ns += ns;
                call_us.push(ns as f64 / 1e3);
                failed += u64::from(!same(&got, want));
            }
            (pass_ns, host::this_thread().since(cpu_before))
        });
        run.pass_slowdown.push(slowdown);
        run.pass_mb_s
            .push(bytes as f64 * 1e3 / pass_ns.max(1) as f64);
        run.pass_p50_us.push(stats::median(&call_us));
        run.pass_cpu_us_per_call
            .push(stats::ratio(cpu.cpu_ns as f64 / 1e3, texts.len() as f64));
        between_passes();
    }
    report.checks((run.pass_mb_s.len() * texts.len()) as u64, failed);
    run
}
