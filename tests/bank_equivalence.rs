//! Equivalence of the bit-sliced `FilterBank` classify path with the naive
//! per-language reference path, end to end through the public classifier
//! API: identical `ClassificationResult`s for arbitrary inputs, any
//! chunking, and language counts spanning every mask storage width and the
//! `u32` slice edges (p ∈ {1, 8, 12, 20, 32, 33, 64, 65, 100}).
//!
//! On hosts with AVX2 the bank builds its vector probe engine at every p, so
//! every property here also pins avx2 == naive; the `forced_scalar_*` properties
//! compare the two dispatch paths against each other explicitly, and CI
//! runs the whole suite a second time under `LC_FORCE_SCALAR=1`.

use lcbloom::core::StreamingClassifier;
use lcbloom::ngram::NGramExtractor;
use lcbloom::prelude::*;
use proptest::prelude::*;

/// Deterministic pseudo-text so profiles differ per language without
/// needing a real corpus: a language-seeded LCG over the Latin-1 range.
fn synthetic_doc(lang: usize, bytes: usize) -> Vec<u8> {
    let mut state = (lang as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..bytes)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly letters with some spaces, so extraction finds words.
            let v = (state >> 33) as u8;
            if v.is_multiple_of(7) {
                b' '
            } else {
                b'a' + (v % 26)
            }
        })
        .collect()
}

/// A classifier over `p` synthetic languages. Small vectors (m = 1 Kbit)
/// keep false positives frequent — the regime where the banked and naive
/// paths could plausibly diverge.
fn synthetic_classifier(p: usize) -> MultiLanguageClassifier {
    let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 400);
    for lang in 0..p {
        b.add_language(format!("l{lang}"), [synthetic_doc(lang, 4000).as_slice()]);
    }
    b.build_bloom(BloomParams::from_kbits(1, 3), 1234)
}

fn classifier_for(p: usize) -> &'static MultiLanguageClassifier {
    // One shared instance per boundary-interesting p (16 fills a u16 mask
    // row exactly; 33, 65 and 100 take 2, 3 and 4 u32 slices).
    static BANKS: std::sync::OnceLock<Vec<(usize, MultiLanguageClassifier)>> =
        std::sync::OnceLock::new();
    let banks = BANKS.get_or_init(|| {
        [1usize, 8, 12, 16, 20, 32, 33, 64, 65, 100]
            .into_iter()
            .map(|p| (p, synthetic_classifier(p)))
            .collect()
    });
    &banks.iter().find(|(n, _)| *n == p).expect("known p").1
}

/// Strategy choosing a language count on each side of each slice edge.
fn any_p() -> impl Strategy<Value = usize> {
    PStrategy
}

#[derive(Clone, Copy, Debug)]
struct PStrategy;

impl Strategy for PStrategy {
    type Value = usize;

    fn sample(&self, rng: &mut proptest::TestRng) -> usize {
        [1usize, 8, 12, 20, 32, 33, 64, 65, 100][(rng.next_u64() % 9) as usize]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Banked and naive classification agree exactly on arbitrary documents
    /// for every language count, including p > 32 (sliced masks).
    #[test]
    fn banked_equals_naive_for_arbitrary_documents(
        p in any_p(),
        doc in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let c = classifier_for(p);
        let mut grams = Vec::new();
        NGramExtractor::new(c.spec()).extract_into(&doc, &mut grams);
        prop_assert_eq!(c.classify_ngrams(&grams), c.classify_ngrams_naive(&grams));
    }

    /// The subsampled extractor path feeds the same bank: banked == naive on
    /// whatever gram stream subsampling produces.
    #[test]
    fn banked_equals_naive_under_subsampling(
        p in any_p(),
        s in 1usize..=6,
        doc in proptest::collection::vec(any::<u8>(), 0..1200),
    ) {
        let c = classifier_for(p);
        let mut grams = Vec::new();
        lcbloom::ngram::NGramExtractor::with_subsampling(c.spec(), s)
            .extract_into(&doc, &mut grams);
        prop_assert_eq!(c.classify_ngrams(&grams), c.classify_ngrams_naive(&grams));

        // And end-to-end: a subsampling classifier still matches the naive
        // path over its own extracted stream.
        let mut sub = c.clone();
        sub.set_subsampling(s);
        let banked = sub.classify(&doc);
        prop_assert_eq!(banked, sub.classify_ngrams_naive(&grams));
    }

    /// The fused streaming path (extraction folded into the bank probe)
    /// equals the two-phase reference (extract to a Vec, then probe the
    /// pre-extracted stream) for any chunking and any sub-sampling factor,
    /// at every language count / mask width.
    #[test]
    fn fused_streaming_equals_two_phase(
        p in any_p(),
        s in 1usize..=4,
        doc in proptest::collection::vec(any::<u8>(), 0..900),
        cuts in proptest::collection::vec(0usize..900, 0..5),
    ) {
        let mut sub = classifier_for(p).clone();
        sub.set_subsampling(s);
        let mut cut_points: Vec<usize> = cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
        cut_points.push(0);
        cut_points.push(doc.len());
        cut_points.sort_unstable();
        cut_points.dedup();

        // Fused: bytes stream through the shift register straight into the
        // bank, across arbitrary chunk boundaries.
        let mut sess = StreamingClassifier::new(&sub);
        for w in cut_points.windows(2) {
            sess.feed(&doc[w[0]..w[1]]);
        }
        let fused = sess.finish();

        // Two-phase: materialize the sub-sampled gram stream, then probe.
        let grams = NGramExtractor::with_subsampling(sub.spec(), s).extract(&doc);
        prop_assert_eq!(&fused, &sub.classify_ngrams(&grams));
        prop_assert_eq!(&fused, &sub.classify(&doc));
        prop_assert_eq!(fused, sub.classify_ngrams_naive(&grams));
    }

    /// Streaming (banked) equals whole-buffer (banked) equals naive, for any
    /// chunking of any document, at every language count.
    #[test]
    fn streaming_banked_equals_naive_any_chunking(
        p in any_p(),
        doc in proptest::collection::vec(any::<u8>(), 0..900),
        cuts in proptest::collection::vec(0usize..900, 0..5),
    ) {
        let c = classifier_for(p);
        let mut cut_points: Vec<usize> = cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
        cut_points.push(0);
        cut_points.push(doc.len());
        cut_points.sort_unstable();
        cut_points.dedup();

        let mut s = StreamingClassifier::new(c);
        for w in cut_points.windows(2) {
            s.feed(&doc[w[0]..w[1]]);
        }
        let streamed = s.finish();

        let mut grams = Vec::new();
        NGramExtractor::new(c.spec()).extract_into(&doc, &mut grams);
        prop_assert_eq!(&streamed, &c.classify(&doc));
        prop_assert_eq!(streamed, c.classify_ngrams_naive(&grams));
    }

    /// The runtime-dispatched probe path (AVX2 where the host has it) and
    /// the forced-scalar path agree exactly — and both equal naive — for
    /// any document, any chunking (splits land mid-SIMD-block and mid
    /// n-gram window), any sub-sampling factor s ∈ 1..=4, at every mask
    /// width including the widest packed-counter bank (p = 32).
    #[test]
    fn forced_scalar_equals_auto_dispatch(
        p in any_p(),
        s in 1usize..=4,
        doc in proptest::collection::vec(any::<u8>(), 0..900),
        cuts in proptest::collection::vec(0usize..900, 0..5),
    ) {
        let mut auto = classifier_for(p).clone();
        auto.set_subsampling(s);
        let mut scalar = auto.clone();
        scalar.set_force_scalar(true);

        let mut cut_points: Vec<usize> = cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
        cut_points.push(0);
        cut_points.push(doc.len());
        cut_points.sort_unstable();
        cut_points.dedup();

        let run = |c: &MultiLanguageClassifier| {
            let mut sess = StreamingClassifier::new(c);
            for w in cut_points.windows(2) {
                sess.feed(&doc[w[0]..w[1]]);
            }
            sess.finish()
        };
        let auto_res = run(&auto);
        prop_assert_eq!(&auto_res, &run(&scalar));
        let grams = NGramExtractor::with_subsampling(auto.spec(), s).extract(&doc);
        prop_assert_eq!(auto_res, auto.classify_ngrams_naive(&grams));
    }

    /// Identical bytes at different buffer offsets classify identically:
    /// the blocked extractor and gather-based probe may not depend on the
    /// document's alignment in memory.
    #[test]
    fn classification_is_alignment_invariant(
        p in any_p(),
        off in 0usize..16,
        doc in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let c = classifier_for(p);
        let mut padded = vec![0u8; off];
        padded.extend_from_slice(&doc);
        prop_assert_eq!(c.classify(&padded[off..]), c.classify(&doc));
    }

    /// The lane-split datapath model (which now strides the bank per lane)
    /// stays count-exact against naive classification.
    #[test]
    fn lane_split_banked_equals_naive(
        p in any_p(),
        copies in 1usize..5,
        doc in proptest::collection::vec(any::<u8>(), 0..900),
    ) {
        let c = classifier_for(p);
        let par = ParallelClassifier::new(c.clone(), copies);
        let mut grams = Vec::new();
        NGramExtractor::new(c.spec()).extract_into(&doc, &mut grams);
        prop_assert_eq!(par.classify(&doc), c.classify_ngrams_naive(&grams));
    }
}

/// Every gram-stream length from empty through two full 64-key batches
/// plus a partial one — so every tail not divisible by the 8-lane block,
/// every partial batch, and the lengths on either side of each batch
/// boundary — matches the naive count on both dispatch paths, at every
/// mask-row width.
#[test]
fn block_tail_lengths_match_naive() {
    const MAX_LEN: usize = 2 * 64 + 24;
    for &p in &[8usize, 16, 32, 64, 100] {
        let auto = classifier_for(p);
        let mut scalar = auto.clone();
        scalar.set_force_scalar(true);
        let doc = synthetic_doc(3, 400);
        let mut grams = Vec::new();
        NGramExtractor::new(auto.spec()).extract_into(&doc, &mut grams);
        assert!(
            grams.len() >= MAX_LEN,
            "need {MAX_LEN} grams, got {}",
            grams.len()
        );
        for len in 0..=MAX_LEN {
            let gs = &grams[..len];
            let naive = auto.classify_ngrams_naive(gs);
            assert_eq!(auto.classify_ngrams(gs), naive, "auto p={p} len={len}");
            assert_eq!(scalar.classify_ngrams(gs), naive, "scalar p={p} len={len}");
        }
    }
}

/// Every document length from empty through three 64-byte extraction
/// blocks, streamed in chunk sizes that cut inside the 4-gram warm-up and
/// on both sides of a block edge, classifies exactly like whole-buffer
/// `classify` and the naive path, on both dispatch paths. The bytes mix
/// letters and spaces with the Latin-1 letters 0xC0–0xFF and the bytes
/// the vector fold treats apart (0xD7 ×, 0xDF ß, 0xF7 ÷, 0xFF ÿ), which
/// `synthetic_doc` never emits.
#[test]
fn streamed_lengths_and_chunkings_match_whole_buffer_and_naive() {
    const SPECIAL: [u8; 4] = [0xD7, 0xDF, 0xF7, 0xFF];
    let doc: Vec<u8> = synthetic_doc(5, 200)
        .into_iter()
        .enumerate()
        .map(|(i, b)| match i % 5 {
            1 => 0xC0 + (i * 7 % 64) as u8,
            3 => SPECIAL[i / 5 % 4],
            _ => b,
        })
        .collect();
    for p in [8usize, 20, 33] {
        let auto = classifier_for(p);
        let mut scalar = auto.clone();
        scalar.set_force_scalar(true);
        for len in 0..=doc.len() {
            let doc = &doc[..len];
            let grams = NGramExtractor::new(auto.spec()).extract(doc);
            let naive = auto.classify_ngrams_naive(&grams);
            assert_eq!(auto.classify(doc), naive, "whole p={p} len={len}");
            for c in [auto, &scalar] {
                for size in [1usize, 3, 4, 63, 64, 65, 130] {
                    let mut sess = StreamingClassifier::new(c);
                    for chunk in doc.chunks(size) {
                        sess.feed(chunk);
                    }
                    assert_eq!(
                        sess.finish(),
                        naive,
                        "{} p={p} len={len} chunk={size}",
                        c.simd_level()
                    );
                }
            }
        }
    }
}

/// The AVX2 engine hashes four 8-key blocks (32 keys) per call and pads
/// a batch's last 1–3 whole blocks with zero keys, which it must never
/// probe. Here the zero key is a real n-gram that every language matches:
/// four white-space codes (any four non-letter bytes fold to key 0),
/// trained into every language and frequent in the documents. A counted
/// padding lane would add to every language's count. Key streams and
/// documents whose last batch ends 1, 2 or 3 whole blocks (plus 0–7
/// leftover keys) past its last full 32-key group classify exactly like
/// the forced-scalar and naive paths, at every mask-row width.
#[test]
fn zero_key_padding_blocks_are_never_counted() {
    let spaced = |lang: usize, bytes: usize| -> Vec<u8> {
        let doc = synthetic_doc(lang, bytes).into_iter().enumerate();
        doc.map(|(i, b)| if i % 16 < 5 { b' ' } else { b })
            .collect()
    };
    let text = spaced(7, 200);
    for p in [8usize, 20, 33] {
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 400);
        for lang in 0..p {
            b.add_language(format!("l{lang}"), [spaced(lang, 4000).as_slice()]);
        }
        let auto = b.build_bloom(BloomParams::from_kbits(1, 3), 1234);
        let mut scalar = auto.clone();
        scalar.set_force_scalar(true);
        assert_eq!(
            auto.bank().matching_languages(0),
            (0..p).collect::<Vec<_>>(),
            "every language must match the zero key"
        );
        for batches in 0..2 {
            for blocks in [1usize, 2, 3, 5, 6, 7] {
                for leftover in 0..8 {
                    let keys = 64 * batches + 8 * blocks + leftover;
                    // At n = 4 every byte after the first 3 ends a gram.
                    let doc = &text[..keys + 3];
                    let grams = NGramExtractor::new(auto.spec()).extract(doc);
                    assert_eq!(grams.len(), keys);
                    assert!(
                        grams.iter().any(|g| g.value() == 0),
                        "the zero key must occur"
                    );
                    let naive = auto.classify_ngrams_naive(&grams);
                    for c in [&auto, &scalar] {
                        let level = c.simd_level();
                        assert_eq!(
                            c.classify_ngrams(&grams),
                            naive,
                            "{level} keys p={p} n={keys}"
                        );
                        assert_eq!(c.classify(doc), naive, "{level} doc p={p} n={keys}");
                    }
                }
            }
        }
    }
}

#[test]
fn bank_shape_reflects_language_count() {
    for (p, bits) in [
        (1usize, 8usize),
        (8, 8),
        (12, 16),
        (20, 32),
        (32, 32),
        (33, 64),
        (64, 64),
        (65, 96),
        (100, 128),
    ] {
        let c = classifier_for(p);
        assert_eq!(c.bank().languages(), p);
        assert_eq!(c.bank().mask_entry_bits(), bits, "p={p}");
    }
}

/// Dispatch really selects the vector engine wherever it has one: with AVX2
/// detected (and `LC_FORCE_SCALAR` unset), every bank reports `Avx2` at
/// every `k` and every `p`, sliced (`p > 32`) banks included, while an
/// m = 128 Kbit bank reports `Scalar`. Under `LC_FORCE_SCALAR=1` every bank
/// reports `Scalar`. A regression
/// that silently drops the vector path fails here rather than only
/// showing up as a slower benchmark.
#[test]
fn dispatch_selects_the_vector_path_where_one_exists() {
    use lcbloom::bloom::{FilterBank, ParallelBloomFilter, SimdLevel};

    let vector = SimdLevel::detect() == SimdLevel::Avx2;
    if SimdLevel::force_scalar_requested() {
        assert!(!vector, "LC_FORCE_SCALAR must pin scalar dispatch");
    }
    let expected = if vector {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    };
    for k in 1..=BloomParams::MAX_K {
        let params = BloomParams::from_kbits(1, k);
        for p in [1usize, 8, 12, 20, 32, 33, 64, 65, 100] {
            let filters: Vec<ParallelBloomFilter> = (0..p)
                .map(|_| ParallelBloomFilter::new(params, NGramSpec::PAPER.bits(), 99))
                .collect();
            let bank = FilterBank::from_filters(&filters);
            assert_eq!(bank.simd_level(), expected, "p={p} k={k}");
        }
    }
    // m = 128 Kbit needs 17 address bits, past the two address bytes the
    // vector hash looks up: scalar even where AVX2 exists.
    let filters: Vec<ParallelBloomFilter> = (0..8)
        .map(|_| ParallelBloomFilter::new(BloomParams::new(4, 17), NGramSpec::PAPER.bits(), 99))
        .collect();
    assert_eq!(
        FilterBank::from_filters(&filters).simd_level(),
        SimdLevel::Scalar,
        "m = 128 Kbit"
    );
    for p in [1usize, 8, 12, 20, 32, 33, 64, 65, 100] {
        assert_eq!(classifier_for(p).simd_level(), expected, "classifier p={p}");
    }
}
