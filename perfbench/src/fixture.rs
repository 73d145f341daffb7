//! Inputs generated from the seed, and the program's set-up.
//!
//! The corpus is the benchmark's input generator and is never timed;
//! `setup_s` covers only what the program itself does before it can
//! classify: training the profiles and programming the Bloom bank.

use std::time::Instant;

use lc_bloom::BloomParams;
use lc_core::{ClassifierBuilder, MultiLanguageClassifier};
use lc_corpus::{Corpus, CorpusConfig, Language};
use lc_ngram::NGramSpec;

use crate::gauge::Gauge;
use crate::stats;

/// The paper's profile size `t`.
pub const PROFILE_SIZE: usize = 5000;

/// How many times a run repeats the program's set-up. Most repetitions
/// are spread over the measured part of the run, so they sample the host
/// over the whole run rather than over the fraction of a second they
/// would take back to back.
pub const SETUP_REPS: usize = 40;

/// Set-up repetitions before measuring; in process, their classifiers
/// take turns in the measured passes.
pub const UPFRONT_SETUPS: usize = 5;

/// Wall times of the program's set-up repetitions and the host's slowdown
/// around each ([`Gauge::slowdown`]).
pub struct SetupTimes<'g> {
    gauge: &'g Gauge,
    seconds: Vec<f64>,
    slowdown: Vec<f64>,
}

impl<'g> SetupTimes<'g> {
    /// No repetitions yet; `gauge` gauges the host around each.
    pub fn new(gauge: &'g Gauge) -> Self {
        Self {
            gauge,
            seconds: Vec::new(),
            slowdown: Vec::new(),
        }
    }

    /// Run one set-up repetition and record its wall time.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let ((product, seconds), slowdown) = self.gauge.around(|| {
            let start = Instant::now();
            let product = setup();
            (product, start.elapsed().as_secs_f64())
        });
        self.seconds.push(seconds);
        self.slowdown.push(slowdown);
        product
    }

    /// Repetitions recorded so far.
    pub fn len(&self) -> usize {
        self.seconds.len()
    }

    /// `setup_s`: the repetitions' wall time at the nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        stats::log_profile("setup_s", &self.seconds);
        stats::at_nominal(&self.seconds, &self.slowdown)
    }
}

/// One classifier configuration and the documents it is measured on.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Languages, in counter order.
    pub languages: &'static [Language],
    /// Bloom parameters of every language filter.
    pub params: BloomParams,
    /// Mean document length in bytes (lengths vary ±50%).
    pub mean_doc_bytes: usize,
    /// Documents generated per language; 10% train, the rest test.
    pub docs_per_language: usize,
}

/// The paper's configuration: 8 languages, k = 4, m = 16 Kbit, ~10 KB
/// documents.
pub const PAPER8: Spec = Spec {
    languages: &PAPER8_LANGUAGES,
    params: BloomParams::PAPER_CONSERVATIVE,
    mean_doc_bytes: 10 * 1024,
    docs_per_language: 120,
};

const PAPER8_LANGUAGES: [Language; 8] = [
    Language::Czech,
    Language::Slovak,
    Language::Danish,
    Language::Swedish,
    Language::Spanish,
    Language::Portuguese,
    Language::Finnish,
    Language::Estonian,
];

/// Twenty languages on the paper's compact filters (k = 6, m = 4 Kbit)
/// with ~2 KB documents.
pub const WIDE20: Spec = Spec {
    languages: &Language::EXTENDED,
    params: BloomParams::PAPER_COMPACT,
    mean_doc_bytes: 2 * 1024,
    docs_per_language: 120,
};

/// A test document and the index of its true language.
#[derive(Clone, Debug)]
pub struct Doc {
    /// Raw ISO-8859-1 bytes.
    pub text: Vec<u8>,
    /// Index of the language the document was generated from.
    pub label: usize,
}

/// The generated documents of one run: training text per language and
/// labelled test documents.
pub struct Fixture {
    /// Test documents, contaminated by their confusable partner.
    pub docs: Vec<Doc>,
    /// Training documents per language, in counter order.
    train: Vec<(&'static str, Vec<Vec<u8>>)>,
    /// Hash-family seed of the bank.
    pub hash_seed: u64,
    /// Bloom parameters.
    params: BloomParams,
}

impl Fixture {
    /// Generate the corpus for `seed`.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let corpus = Corpus::generate_for(
            spec.languages,
            CorpusConfig {
                docs_per_language: spec.docs_per_language,
                mean_doc_bytes: spec.mean_doc_bytes,
                // Contaminate test documents with their confusable
                // partner as `CorpusConfig::confusable_scale` does, so the
                // Bloom classifier makes real mistakes.
                confusion_mix: CorpusConfig::confusable_scale().confusion_mix,
                seed: splitmix64(seed ^ 0xC0A9_05E5),
                ..CorpusConfig::default()
            },
        );
        let split = corpus.split();
        let label_of = |l: Language| {
            spec.languages
                .iter()
                .position(|&x| x == l)
                .expect("corpus languages are the spec's")
        };
        let docs = split
            .test_all()
            .map(|d| Doc {
                text: d.text.clone(),
                label: label_of(d.language),
            })
            .collect();
        let train: Vec<(&'static str, Vec<Vec<u8>>)> = spec
            .languages
            .iter()
            .map(|&l| (l.code(), split.train(l).map(|d| d.text.clone()).collect()))
            .collect();
        Self {
            docs,
            train,
            hash_seed: splitmix64(seed ^ 0xB100_F11E),
            params: spec.params,
        }
    }

    /// The program's set-up: train one top-`t` profile per language and
    /// program the Bloom bank.
    pub fn train_classifier(&self) -> MultiLanguageClassifier {
        let mut builder = ClassifierBuilder::new(NGramSpec::PAPER, PROFILE_SIZE);
        for (code, docs) in &self.train {
            builder.add_language(*code, docs.iter().map(Vec::as_slice));
        }
        builder.build_bloom(self.params, self.hash_seed)
    }
}

/// SplitMix64: the benchmark's own seed-derivation and sampling stream.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of indices below `n` drawn from `seed`.
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = splitmix64(state);
            (state % n.max(1) as u64) as usize
        })
        .collect()
}
