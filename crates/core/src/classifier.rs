//! The multiple-language classifier (§3.2).
//!
//! One Parallel Bloom Filter per language, all sharing the same H3 hash
//! family (the hash circuits are fed by one n-gram register; their outputs
//! fan out to every language's bit-vectors). Document n-grams are tested
//! against every filter "in parallel" and per-language match counters are
//! incremented; at end-of-document the counters are read and the highest
//! count wins.
//!
//! The per-language filters are the canonical representation (the FPGA
//! fabric model places their bit-vectors onto RAM blocks); the classify hot
//! path runs on a bit-sliced [`FilterBank`] transposed from them, so each
//! n-gram costs `k` loads + one AND for **all** languages instead of `p·k`
//! scattered bit-reads — the software image of the hardware's fan-out.

use lc_bloom::{BloomParams, FilterBank, ParallelBloomFilter, SimdLevel};
use lc_ngram::{NGram, NGramExtractor, NGramSpec, StreamingExtractor};
use std::collections::HashSet;

use crate::profile::LanguageProfile;
use crate::result::ClassificationResult;
use crate::streaming::FusedChunk;

/// Bloom-filter-based multi-language classifier — the paper's design.
#[derive(Clone, Debug)]
pub struct MultiLanguageClassifier {
    names: Vec<String>,
    filters: Vec<ParallelBloomFilter>,
    bank: FilterBank,
    spec: NGramSpec,
    extractor: NGramExtractor,
    params: BloomParams,
    seed: u64,
}

impl MultiLanguageClassifier {
    /// Program one filter per profile. All filters share the hash family
    /// derived from `seed` (their bit-vectors are independent).
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or a profile's n-gram shape differs
    /// from `spec`.
    pub fn from_profiles(
        profiles: &[LanguageProfile],
        spec: NGramSpec,
        params: BloomParams,
        seed: u64,
    ) -> Self {
        assert!(!profiles.is_empty(), "need at least one language profile");
        let mut names = Vec::with_capacity(profiles.len());
        let mut filters = Vec::with_capacity(profiles.len());
        for p in profiles {
            assert_eq!(p.profile.spec(), spec, "profile n-gram shape mismatch");
            let mut f = ParallelBloomFilter::new(params, spec.bits(), seed);
            f.program_all(p.profile.ngrams().map(|g| g.value()));
            names.push(p.name.clone());
            filters.push(f);
        }
        let bank = FilterBank::from_filters(&filters);
        Self {
            names,
            filters,
            bank,
            spec,
            extractor: NGramExtractor::new(spec),
            params,
            seed,
        }
    }

    /// Language names, index-aligned with result counters.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of languages `p`.
    pub fn num_languages(&self) -> usize {
        self.filters.len()
    }

    /// The Bloom parameters in use.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// The n-gram shape in use.
    pub fn spec(&self) -> NGramSpec {
        self.spec
    }

    /// The hash-family seed (needed to build hardware replicas that must
    /// agree bit-for-bit).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Use sub-sampled extraction (test every `s`-th n-gram), the HAIL-style
    /// bandwidth fallback of §3.3/§5.2. Propagates to every consumer built
    /// from this classifier afterwards — whole-buffer `classify`, streaming
    /// sessions, and the network service all extract with the same factor.
    pub fn set_subsampling(&mut self, s: usize) {
        self.extractor = NGramExtractor::with_subsampling(self.spec, s);
    }

    /// The sub-sampling factor in use (1 = every n-gram, the default).
    pub fn subsample(&self) -> usize {
        self.extractor.subsample()
    }

    /// The configured whole-buffer extractor (shape **and** sub-sampling).
    pub fn extractor(&self) -> NGramExtractor {
        self.extractor
    }

    /// A streaming extractor carrying this classifier's full extraction
    /// config — what every streaming consumer must use so chunked
    /// classification is bit-identical to [`Self::classify`].
    pub fn streaming_extractor(&self) -> StreamingExtractor {
        self.extractor.streaming()
    }

    /// Borrow the per-language filters (the FPGA fabric model maps their
    /// bit-vectors onto embedded RAM blocks).
    pub fn filters(&self) -> &[ParallelBloomFilter] {
        &self.filters
    }

    /// Borrow the bit-sliced query engine the hot path runs on.
    pub fn bank(&self) -> &FilterBank {
        &self.bank
    }

    /// Pin the probe path to the scalar loops (`true`), or restore the
    /// process-wide runtime dispatch (`false`). The live A/B knob behind
    /// `--force-scalar`: dispatch is per-classifier and decided here, not
    /// per call, so benchmarks can hold a scalar clone and an auto clone of
    /// the same classifier side by side.
    pub fn set_force_scalar(&mut self, force: bool) {
        self.bank.set_simd_level(if force {
            SimdLevel::Scalar
        } else {
            SimdLevel::detect()
        });
    }

    /// The probe path the hot loop actually runs (`avx2` only when the
    /// vector engine is live). Surfaces in bench output and the service
    /// stats plane.
    pub fn simd_level(&self) -> SimdLevel {
        self.bank.simd_level()
    }

    /// Classify a document given as raw ISO-8859-1 bytes.
    ///
    /// Runs the **fused** path: one loop folds each byte, advances the
    /// shift register, applies the sub-sampling phase, and AND-probes the
    /// bit-sliced bank — no intermediate n-gram buffer. This is the same
    /// engine streaming sessions run, so whole-buffer and chunked
    /// classification share exactly one hot loop.
    pub fn classify(&self, text: &[u8]) -> ClassificationResult {
        let mut counts = vec![0u64; self.filters.len()];
        let mut ex = self.extractor.streaming();
        self.bank.accumulate_source(
            FusedChunk {
                extractor: &mut ex,
                chunk: text,
            },
            &mut counts,
        );
        ClassificationResult::new(counts, ex.grams_emitted() as u64)
    }

    /// Classify a pre-extracted n-gram stream on the bit-sliced bank: the
    /// `k` hash addresses are computed once per n-gram and one AND-reduce
    /// tests all languages simultaneously, exactly as the shared n-gram
    /// register feeds every classifier in hardware.
    pub fn classify_ngrams(&self, grams: &[NGram]) -> ClassificationResult {
        let mut counts = vec![0u64; self.filters.len()];
        self.accumulate_ngrams(grams, &mut counts);
        ClassificationResult::new(counts, grams.len() as u64)
    }

    /// Add each n-gram's language matches into `counts` (one counter per
    /// language) without building a result. The pre-extracted probe loop
    /// of [`Self::classify_ngrams`] and the datapath lane model; paths that
    /// see raw bytes (whole-buffer `classify`, streaming sessions) fuse
    /// extraction into the same bank probe instead.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != self.num_languages()`.
    #[inline]
    pub fn accumulate_ngrams(&self, grams: &[NGram], counts: &mut [u64]) {
        self.bank
            .accumulate_keys(grams.iter().map(|g| g.value()), counts);
    }

    /// Reference implementation of [`Self::classify_ngrams`] over the
    /// per-language filters (`p × k` scattered bit-reads per n-gram). Kept
    /// for equivalence property tests; the banked path must produce
    /// identical results for any input.
    pub fn classify_ngrams_naive(&self, grams: &[NGram]) -> ClassificationResult {
        let mut counts = vec![0u64; self.filters.len()];
        let mut addrs = vec![0u32; self.params.k];
        for g in grams {
            self.filters[0].addresses_into(g.value(), &mut addrs);
            for (c, f) in counts.iter_mut().zip(&self.filters) {
                if f.test_with_addresses(&addrs) {
                    *c += 1;
                }
            }
        }
        ClassificationResult::new(counts, grams.len() as u64)
    }

    /// Name of the winning language for a document.
    pub fn identify(&self, text: &[u8]) -> &str {
        &self.names[self.classify(text).best()]
    }
}

/// Exact-membership classifier: direct lookup tables instead of Bloom
/// filters (no false positives). This is the reference against which the
/// Bloom classifier's accuracy loss is measured, and algorithmically what
/// HAIL's off-chip SRAM tables compute.
#[derive(Clone, Debug)]
pub struct ExactClassifier {
    names: Vec<String>,
    sets: Vec<HashSet<u64>>,
    spec: NGramSpec,
    extractor: NGramExtractor,
}

impl ExactClassifier {
    /// Build from trained profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or shapes mismatch.
    pub fn from_profiles(profiles: &[LanguageProfile], spec: NGramSpec) -> Self {
        assert!(!profiles.is_empty(), "need at least one language profile");
        let mut names = Vec::with_capacity(profiles.len());
        let mut sets = Vec::with_capacity(profiles.len());
        for p in profiles {
            assert_eq!(p.profile.spec(), spec, "profile n-gram shape mismatch");
            names.push(p.name.clone());
            sets.push(p.profile.ngrams().map(|g| g.value()).collect());
        }
        Self {
            names,
            sets,
            spec,
            extractor: NGramExtractor::new(spec),
        }
    }

    /// Language names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of languages.
    pub fn num_languages(&self) -> usize {
        self.sets.len()
    }

    /// The n-gram shape in use.
    pub fn spec(&self) -> NGramSpec {
        self.spec
    }

    /// Classify a document.
    pub fn classify(&self, text: &[u8]) -> ClassificationResult {
        let mut grams = Vec::new();
        self.extractor.extract_into(text, &mut grams);
        self.classify_ngrams(&grams)
    }

    /// Classify a pre-extracted n-gram stream.
    pub fn classify_ngrams(&self, grams: &[NGram]) -> ClassificationResult {
        let mut counts = vec![0u64; self.sets.len()];
        for g in grams {
            for (c, s) in counts.iter_mut().zip(&self.sets) {
                if s.contains(&g.value()) {
                    *c += 1;
                }
            }
        }
        ClassificationResult::new(counts, grams.len() as u64)
    }

    /// Name of the winning language.
    pub fn identify(&self, text: &[u8]) -> &str {
        &self.names[self.classify(text).best()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ClassifierBuilder;
    use lc_corpus::{Corpus, CorpusConfig};

    fn tiny_builder() -> ClassifierBuilder {
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 200);
        b.add_language(
            "en",
            [b"the quick brown fox jumps over the lazy dog and the cat sat on the mat with the hat".as_slice()],
        );
        b.add_language(
            "fr",
            [b"le renard brun rapide saute par dessus le chien paresseux et le chat dort sur le tapis".as_slice()],
        );
        b
    }

    #[test]
    fn bloom_classifier_identifies_training_like_text() {
        let b = tiny_builder();
        let c = b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 1);
        assert_eq!(c.identify(b"the fox and the dog sat with the cat"), "en");
        assert_eq!(c.identify(b"le chien et le chat par dessus le tapis"), "fr");
    }

    #[test]
    fn exact_classifier_agrees_with_bloom_at_low_fp() {
        // With 16 Kbit vectors and only ~80 programmed n-grams the FP rate
        // is astronomically small: Bloom and exact counts must be equal.
        let b = tiny_builder();
        let bloom = b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 2);
        let exact = b.build_exact();
        for text in [
            b"the fox jumps over the dog".as_slice(),
            b"le chat et le chien".as_slice(),
            b"completely unrelated zzzz qqqq".as_slice(),
        ] {
            assert_eq!(bloom.classify(text), exact.classify(text));
        }
    }

    #[test]
    fn bloom_counts_never_below_exact_counts() {
        // Bloom filters only add false positives, never remove matches.
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 5000);
        let corpus = Corpus::generate(CorpusConfig::test_scale());
        let split = corpus.split();
        for &l in corpus.languages() {
            let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
            b.add_language(l.code(), docs);
        }
        // Small, FP-prone configuration to make the property interesting.
        let bloom = b.build_bloom(BloomParams::from_kbits(4, 2), 3);
        let exact = b.build_exact();
        for d in split.test_all().take(20) {
            let rb = bloom.classify(&d.text);
            let re = exact.classify(&d.text);
            for (cb, ce) in rb.counts().iter().zip(re.counts()) {
                assert!(cb >= ce, "bloom count {cb} below exact count {ce}");
            }
        }
    }

    #[test]
    fn classifier_reports_shape() {
        let c = tiny_builder().build_bloom(BloomParams::PAPER_COMPACT, 7);
        assert_eq!(c.num_languages(), 2);
        assert_eq!(c.names(), &["en".to_string(), "fr".to_string()]);
        assert_eq!(c.params(), BloomParams::PAPER_COMPACT);
        assert_eq!(c.spec().n(), 4);
    }

    #[test]
    fn subsampling_reduces_tested_ngrams() {
        let b = tiny_builder();
        let mut c = b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 1);
        let full = c.classify(b"the quick brown fox jumps over the lazy dog");
        c.set_subsampling(2);
        let half = c.classify(b"the quick brown fox jumps over the lazy dog");
        assert!(half.total_ngrams() <= full.total_ngrams() / 2 + 1);
        // Decision should be stable for clear-cut text.
        assert_eq!(full.best(), half.best());
    }

    #[test]
    fn empty_document_yields_zero_counts() {
        let c = tiny_builder().build_bloom(BloomParams::PAPER_CONSERVATIVE, 1);
        let r = c.classify(b"");
        assert_eq!(r.total_ngrams(), 0);
        assert!(r.counts().iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "at least one language")]
    fn empty_profile_list_rejected() {
        let _ = MultiLanguageClassifier::from_profiles(
            &[],
            NGramSpec::PAPER,
            BloomParams::PAPER_CONSERVATIVE,
            1,
        );
    }
}
