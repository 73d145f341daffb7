//! # lc-mguesser — the software baseline
//!
//! The paper benchmarks against **Mguesser** (mnogosearch), "an optimized
//! version of the n-gram based text categorization algorithm [Cavnar &
//! Trenkle 1994]", measuring 5.5 MB/s on a 2.4 GHz Opteron with ten
//! languages over 81 MB of cached documents.
//!
//! This crate implements that algorithm class in Rust:
//!
//! * [`CavnarTrenkle`] — the classic rank-order method: build a ranked
//!   n-gram frequency profile of the document, compare it to each language's
//!   ranked profile with the *out-of-place* distance, pick the minimum. This
//!   is the method Mguesser implements (hashed profiles of up to ~4096
//!   n-grams).
//! * [`HashSetClassifier`] — a faster software variant using the same
//!   match-count scoring as the hardware (set membership per n-gram),
//!   provided so benches can separate "algorithm" from "implementation
//!   quality" when comparing software vs simulated hardware.
//!
//! Absolute throughput on a modern CPU is far above 2007's 5.5 MB/s, so the
//! hardware/software comparison keeps the paper's published baseline
//! ([`PAPER_MGUESSER_MB_S`]) alongside ours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lc_ngram::{NGramCounter, NGramProfile, NGramSpec, RankedProfile};

/// Default document-profile size used when ranking a document before the
/// out-of-place comparison (Cavnar–Trenkle use ~300; Mguesser-era tools use
/// more; this is a parameter).
pub const DEFAULT_DOC_PROFILE: usize = 400;

/// The Cavnar–Trenkle rank-order classifier.
#[derive(Clone, Debug)]
pub struct CavnarTrenkle {
    names: Vec<String>,
    profiles: Vec<RankedProfile>,
    spec: NGramSpec,
    doc_profile_size: usize,
}

impl CavnarTrenkle {
    /// Build from named language profiles (rank order is the profile's
    /// frequency order).
    ///
    /// # Panics
    ///
    /// Panics if `named` is empty or shapes are inconsistent.
    pub fn from_profiles(named: &[(String, NGramProfile)]) -> Self {
        assert!(!named.is_empty(), "need at least one language");
        let spec = named[0].1.spec();
        let mut names = Vec::with_capacity(named.len());
        let mut profiles = Vec::with_capacity(named.len());
        for (name, p) in named {
            assert_eq!(p.spec(), spec, "profile n-gram shape mismatch");
            names.push(name.clone());
            profiles.push(RankedProfile::from_profile(p));
        }
        Self {
            names,
            profiles,
            spec,
            doc_profile_size: DEFAULT_DOC_PROFILE,
        }
    }

    /// Set the document profile size (top-N document n-grams compared).
    pub fn with_doc_profile_size(mut self, n: usize) -> Self {
        assert!(n > 0, "document profile size must be positive");
        self.doc_profile_size = n;
        self
    }

    /// Language names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Out-of-place distances of a document to every language (lower =
    /// closer).
    pub fn distances(&self, text: &[u8]) -> Vec<u64> {
        let mut counter = NGramCounter::new(self.spec);
        counter.add_document(text);
        let doc_profile = counter.top_t(self.doc_profile_size);
        self.profiles
            .iter()
            .map(|p| p.out_of_place(&doc_profile))
            .collect()
    }

    /// Index of the closest language.
    pub fn classify(&self, text: &[u8]) -> usize {
        self.distances(text)
            .iter()
            .enumerate()
            .min_by_key(|&(_, d)| d)
            .map(|(i, _)| i)
            .expect("at least one language")
    }

    /// Name of the closest language.
    pub fn identify(&self, text: &[u8]) -> &str {
        &self.names[self.classify(text)]
    }
}

/// Software match-count classifier over hash sets (same scoring rule as the
/// hardware, pure-software implementation).
#[derive(Clone, Debug)]
pub struct HashSetClassifier {
    names: Vec<String>,
    sets: Vec<std::collections::HashSet<u64>>,
    spec: NGramSpec,
}

impl HashSetClassifier {
    /// Build from named profiles.
    ///
    /// # Panics
    ///
    /// Panics if `named` is empty or shapes are inconsistent.
    pub fn from_profiles(named: &[(String, NGramProfile)]) -> Self {
        assert!(!named.is_empty(), "need at least one language");
        let spec = named[0].1.spec();
        let mut names = Vec::with_capacity(named.len());
        let mut sets = Vec::with_capacity(named.len());
        for (name, p) in named {
            assert_eq!(p.spec(), spec, "profile n-gram shape mismatch");
            names.push(name.clone());
            sets.push(p.ngrams().map(|g| g.value()).collect());
        }
        Self { names, sets, spec }
    }

    /// Language names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Per-language match counts and total n-grams.
    pub fn classify(&self, text: &[u8]) -> (Vec<u64>, u64) {
        let extractor = lc_ngram::NGramExtractor::new(self.spec);
        let mut grams = Vec::new();
        extractor.extract_into(text, &mut grams);
        let mut counts = vec![0u64; self.sets.len()];
        for g in &grams {
            for (c, s) in counts.iter_mut().zip(&self.sets) {
                if s.contains(&g.value()) {
                    *c += 1;
                }
            }
        }
        (counts, grams.len() as u64)
    }

    /// Winning language name (argmax of match counts, lowest index wins
    /// ties).
    pub fn identify(&self, text: &[u8]) -> &str {
        let (counts, _) = self.classify(text);
        let mut best = 0;
        for (i, &c) in counts.iter().enumerate() {
            if c > counts[best] {
                best = i;
            }
        }
        &self.names[best]
    }
}

/// The paper's measured Mguesser throughput, for Table 4 comparisons.
pub const PAPER_MGUESSER_MB_S: f64 = 5.5;

#[cfg(test)]
mod tests {
    use super::*;
    use lc_corpus::{Corpus, CorpusConfig};

    fn trained() -> (Vec<(String, NGramProfile)>, Corpus) {
        let corpus = Corpus::generate(CorpusConfig::test_scale());
        let split = corpus.split();
        let named: Vec<(String, NGramProfile)> = corpus
            .languages()
            .iter()
            .map(|&l| {
                let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
                (
                    l.code().to_string(),
                    NGramProfile::build(NGramSpec::PAPER, docs, 2000),
                )
            })
            .collect();
        (named, corpus)
    }

    #[test]
    fn cavnar_trenkle_classifies_synthetic_corpus_well() {
        let (named, corpus) = trained();
        let ct = CavnarTrenkle::from_profiles(&named);
        let mut correct = 0usize;
        let mut total = 0usize;
        for d in corpus.split().test_all().take(60) {
            total += 1;
            if ct.classify(&d.text) == d.language.index() {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "CT accuracy too low: {acc:.2}");
    }

    #[test]
    fn hashset_classifier_matches_ct_on_clear_documents() {
        let (named, corpus) = trained();
        let ct = CavnarTrenkle::from_profiles(&named);
        let hs = HashSetClassifier::from_profiles(&named);
        let mut agree = 0usize;
        let mut total = 0usize;
        for d in corpus.split().test_all().take(40) {
            total += 1;
            if ct.identify(&d.text) == hs.identify(&d.text) {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / total as f64 > 0.85,
            "methods disagree too often: {agree}/{total}"
        );
    }

    #[test]
    fn distances_are_lower_for_true_language() {
        let (named, corpus) = trained();
        let ct = CavnarTrenkle::from_profiles(&named);
        let d = corpus.split().test_all().next().unwrap();
        let dist = ct.distances(&d.text);
        let own = dist[d.language.index()];
        let min = *dist.iter().min().unwrap();
        assert_eq!(own, min, "true language should minimize distance");
    }

    #[test]
    fn doc_profile_size_is_configurable() {
        let (named, _) = trained();
        let ct = CavnarTrenkle::from_profiles(&named).with_doc_profile_size(50);
        // Still classifies; smaller profile = coarser but functional.
        let _ = ct.classify(b"the committee shall deliver its opinion on the draft measures");
    }

    #[test]
    #[should_panic(expected = "at least one language")]
    fn empty_profiles_rejected() {
        let _ = CavnarTrenkle::from_profiles(&[]);
    }
}
