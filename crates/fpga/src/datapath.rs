//! The cycle-accounted classifier datapath.
//!
//! Functionally this is `lc-core`'s parallel multi-language classifier; the
//! hardware wrapper adds the clock: `2c` n-grams per cycle at the Fmax the
//! resource model predicts for the configuration. One byte of input is one
//! n-gram once the 4-byte window is warm, which is how the paper equates
//! "1,552 million n-grams per second" with 1.4 GB/s (§5.4).

use crate::link::SimTime;
use crate::resources::{estimate_fmax, ClassifierConfig};
use lc_core::{ClassificationResult, MultiLanguageClassifier, ParallelClassifier};

/// Default width of the per-lane match counters, in bits. The paper does
/// not state its counter width; 32 bits never saturates on any realistic
/// document ("files with sizes varying from a few Kilobytes to several
/// Megabytes", §5.4). Narrow the width with
/// [`HardwareClassifier::with_counter_width`] to study saturation (a
/// 16-bit counter clips per-lane counts on documents past ~0.5 MB).
pub const DEFAULT_COUNTER_BITS: u32 = 32;

/// A classifier "placed" on the FPGA: functional datapath + clock model.
#[derive(Clone, Debug)]
pub struct HardwareClassifier {
    datapath: ParallelClassifier,
    config: ClassifierConfig,
    fmax_hz: f64,
    counter_bits: u32,
}

impl HardwareClassifier {
    /// Build from a programmed classifier, using the resource model's Fmax
    /// estimate for the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the classifier's language count or Bloom parameters do not
    /// match `config`.
    pub fn place(classifier: MultiLanguageClassifier, config: ClassifierConfig) -> Self {
        assert_eq!(
            classifier.num_languages(),
            config.languages,
            "language count mismatch between classifier and hardware config"
        );
        assert_eq!(
            classifier.params(),
            config.bloom,
            "Bloom parameter mismatch between classifier and hardware config"
        );
        let fmax_hz = estimate_fmax(&config) * 1e6;
        Self {
            datapath: ParallelClassifier::new(classifier, config.copies),
            config,
            fmax_hz,
            counter_bits: DEFAULT_COUNTER_BITS,
        }
    }

    /// Model physical per-lane match counters of `bits` width (saturating).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    pub fn with_counter_width(mut self, bits: u32) -> Self {
        assert!(
            (1..=64).contains(&bits),
            "counter width must be 1..=64 bits"
        );
        self.counter_bits = bits;
        self
    }

    /// Per-lane counter width in bits.
    pub fn counter_bits(&self) -> u32 {
        self.counter_bits
    }

    /// Override the clock (e.g. to use the paper's placed-and-routed 194 MHz
    /// instead of the model estimate).
    pub fn with_clock_mhz(mut self, mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock must be positive");
        self.fmax_hz = mhz * 1e6;
        self
    }

    /// The hardware configuration.
    pub fn config(&self) -> &ClassifierConfig {
        &self.config
    }

    /// Clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.fmax_hz
    }

    /// Peak input rate in bytes/sec: `fmax × 2c` (one byte per n-gram, `2c`
    /// n-grams per clock). The paper: 194 MHz × 8 = 1,552 Mn-grams/s =
    /// ~1.4 GB/s.
    pub fn peak_bytes_per_sec(&self) -> f64 {
        self.fmax_hz * self.config.ngrams_per_clock() as f64
    }

    /// Classify a document, returning the result and the compute time at
    /// the modelled clock. Per-lane counts saturate at the modelled counter
    /// width before the adder tree merges them, exactly as fixed-width
    /// hardware counters would clip.
    pub fn classify_timed(&self, text: &[u8]) -> (ClassificationResult, SimTime) {
        let result = if self.counter_bits >= 64 {
            self.datapath.classify(text)
        } else {
            let mut grams = Vec::new();
            // The wrapped classifier's full extraction config (including
            // sub-sampling), so the saturating branch cannot diverge from
            // the unsaturated one.
            self.datapath
                .inner()
                .extractor()
                .extract_into(text, &mut grams);
            let cap = (1u64 << self.counter_bits) - 1;
            let mut lanes = self.datapath.lane_counts(&grams);
            for lane in &mut lanes {
                for c in lane.iter_mut() {
                    *c = (*c).min(cap);
                }
            }
            let p = self.datapath.inner().num_languages();
            ClassificationResult::new(ParallelClassifier::adder_tree(lanes, p), grams.len() as u64)
        };
        (result, self.compute_time(text.len()))
    }

    /// Compute time of a `len`-byte document at the modelled clock: the
    /// time half of [`HardwareClassifier::classify_timed`], without the
    /// classification.
    pub fn compute_time(&self, len: usize) -> SimTime {
        let cycles = self.datapath.cycles_for_len(len);
        let ns = cycles as f64 / self.fmax_hz * 1e9;
        SimTime::from_nanos(ns.round() as u64)
    }

    /// The wrapped functional classifier.
    pub fn classifier(&self) -> &MultiLanguageClassifier {
        self.datapath.inner()
    }

    /// Time to program all language profiles plus clear the bit-vectors:
    /// clearing takes `m` cycles per vector (all vectors clear in parallel —
    /// one write port each), programming takes one cycle per profile entry
    /// per copy (entries stream over DMA and fan out to copies), plus a
    /// fixed per-language host/driver setup cost which dominates in practice
    /// (calibrated so that programming ten 5,000-entry profiles costs ~0.25 s,
    /// reproducing the paper's 470 → 378 MB/s amortization example in §5.4).
    pub fn programming_time(&self, entries_per_language: usize) -> SimTime {
        let clear_cycles = self.config.bloom.m_bits() as u64;
        let program_cycles = (self.config.languages * entries_per_language) as u64;
        let hw = (clear_cycles + program_cycles) as f64 / self.fmax_hz * 1e9;
        let driver_per_language = SimTime::from_micros(25_000.0); // 25 ms
        SimTime::from_nanos(hw.round() as u64).saturating_add(SimTime(
            driver_per_language.0 * self.config.languages as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_bloom::BloomParams;
    use lc_core::ClassifierBuilder;
    use lc_corpus::{Corpus, CorpusConfig};
    use lc_ngram::NGramSpec;

    fn hardware() -> (HardwareClassifier, Corpus) {
        let corpus = Corpus::generate(CorpusConfig::test_scale());
        let split = corpus.split();
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 1000);
        for &l in corpus.languages() {
            let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
            b.add_language(l.code(), docs);
        }
        let clf = b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 5);
        let cfg = ClassifierConfig {
            bloom: BloomParams::PAPER_CONSERVATIVE,
            languages: 10,
            copies: 4,
        };
        (HardwareClassifier::place(clf, cfg), corpus)
    }

    #[test]
    fn hardware_results_equal_software_results() {
        let (hw, corpus) = hardware();
        for d in corpus.split().test_all().take(12) {
            let (hw_result, t) = hw.classify_timed(&d.text);
            let sw_result = hw.classifier().classify(&d.text);
            assert_eq!(hw_result, sw_result);
            assert!(t > SimTime::ZERO);
        }
    }

    #[test]
    fn peak_rate_at_paper_clock_is_1_4_gbs() {
        let (hw, _) = hardware();
        let hw = hw.with_clock_mhz(194.0);
        let peak = hw.peak_bytes_per_sec();
        // 194 MHz × 8 = 1.552e9 n-grams/s ≈ 1.4 GiB/s as the paper rounds.
        assert!((peak - 1.552e9).abs() < 1e6, "{peak}");
        assert!((peak / (1 << 30) as f64 - 1.45).abs() < 0.05);
    }

    #[test]
    fn compute_time_matches_cycle_arithmetic() {
        let (hw, _) = hardware();
        let hw = hw.with_clock_mhz(200.0); // 5 ns/cycle for easy numbers
        let doc = vec![b'x'; 8003]; // 8000 n-grams -> 1000 cycles -> 5 µs
        let (_, t) = hw.classify_timed(&doc);
        assert_eq!(t, SimTime::from_micros(5.0));
    }

    #[test]
    fn programming_time_dominated_by_driver_cost() {
        let (hw, _) = hardware();
        let t = hw.programming_time(5000);
        // Ten languages × 25 ms driver cost = 0.25 s, plus microseconds of
        // hardware time.
        let secs = t.as_secs_f64();
        assert!((0.25..0.26).contains(&secs), "{secs}");
    }

    #[test]
    fn default_counter_width_never_saturates_on_corpus_docs() {
        let (hw, corpus) = hardware();
        for d in corpus.split().test_all().take(5) {
            let (r, _) = hw.classify_timed(&d.text);
            assert_eq!(r, hw.classifier().classify(&d.text));
        }
    }

    #[test]
    fn narrow_counters_saturate_on_large_documents() {
        let (hw, _) = hardware();
        // 8-bit lane counters: cap 255 per lane, 8 lanes -> total caps at
        // ~2040 per language. A long self-matching document overflows.
        let narrow = hw.clone().with_counter_width(8);
        let text: Vec<u8> = std::iter::repeat_n(b"the committee shall deliver its opinion ", 2000)
            .flatten()
            .copied()
            .collect();
        let (clipped, _) = narrow.classify_timed(&text);
        let (full, _) = hw.classify_timed(&text);
        let max_clipped = clipped.counts().iter().max().copied().unwrap();
        let max_full = full.counts().iter().max().copied().unwrap();
        assert!(max_full > 2040, "document too small to exercise saturation");
        assert!(
            max_clipped <= 8 * 255,
            "clipped count {max_clipped} above cap"
        );
        assert!(max_clipped < max_full);
    }

    #[test]
    fn saturation_preserves_decisions_for_dominant_language() {
        let (hw, corpus) = hardware();
        let narrow = hw.clone().with_counter_width(12);
        for d in corpus.split().test_all().take(5) {
            let (clipped, _) = narrow.classify_timed(&d.text);
            let (full, _) = hw.classify_timed(&d.text);
            assert_eq!(clipped.best(), full.best());
        }
    }

    #[test]
    #[should_panic(expected = "counter width must be")]
    fn zero_counter_width_rejected() {
        let (hw, _) = hardware();
        let _ = hw.with_counter_width(0);
    }

    #[test]
    #[should_panic(expected = "language count mismatch")]
    fn mismatched_config_rejected() {
        let (hw, _) = hardware();
        let clf = hw.classifier().clone();
        let bad = ClassifierConfig {
            bloom: BloomParams::PAPER_CONSERVATIVE,
            languages: 3,
            copies: 4,
        };
        let _ = HardwareClassifier::place(clf, bad);
    }
}
