//! Sliding-window n-gram extraction.
//!
//! The paper (§3.3): *"An input word containing multiple translated
//! characters is buffered and an n-gram is generated at each character
//! position."* and *"Our implementation is currently oblivious to word
//! boundaries and simply treats the input as a continuous stream of
//! characters."*
//!
//! Two extractors are provided:
//!
//! * [`NGramExtractor`] — whole-buffer extraction: yields one packed n-gram
//!   per input position starting at position `n - 1` (the window must fill
//!   before the first n-gram emerges, exactly like the hardware shift
//!   register warming up).
//! * [`StreamingExtractor`] — carries the shift-register state across chunk
//!   boundaries, so feeding a document in arbitrary 64-bit-word-sized pieces
//!   (as the DMA engine does) yields the identical n-gram sequence.
//!
//! Both support **sub-sampling**: testing only every `s`-th n-gram, the
//! bandwidth-saving fallback the paper inherits from HAIL (§3.3, §5.2).

use crate::alphabet::fold_byte;
use crate::ngram::{NGram, NGramSpec};
use crate::simd;

/// Whole-buffer sliding-window extractor.
#[derive(Clone, Copy, Debug)]
pub struct NGramExtractor {
    spec: NGramSpec,
    /// Emit every `subsample`-th n-gram (1 = all of them, the default).
    subsample: usize,
}

impl NGramExtractor {
    /// Extractor emitting every n-gram (the paper's primary configuration).
    pub fn new(spec: NGramSpec) -> Self {
        Self { spec, subsample: 1 }
    }

    /// Extractor emitting only every `s`-th n-gram (HAIL-style sub-sampling).
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn with_subsampling(spec: NGramSpec, s: usize) -> Self {
        assert!(s >= 1, "subsample factor must be >= 1");
        Self { spec, subsample: s }
    }

    /// The n-gram shape in use.
    pub fn spec(&self) -> NGramSpec {
        self.spec
    }

    /// The sub-sampling factor.
    pub fn subsample(&self) -> usize {
        self.subsample
    }

    /// Extract all (sub-sampled) n-grams of `text` (raw ISO-8859-1 bytes) into
    /// `out`, clearing it first. Returns the number of n-grams produced.
    ///
    /// Reserves exactly [`Self::count_for_len`] slots, so a fresh vector is
    /// sized precisely and a reused workhorse buffer never reallocates
    /// mid-extraction. Runs on the one streaming hot loop
    /// ([`StreamingExtractor::feed_with`]) — whole-buffer extraction is the
    /// single-chunk special case.
    pub fn extract_into(&self, text: &[u8], out: &mut Vec<NGram>) -> usize {
        out.clear();
        out.reserve(self.count_for_len(text.len()));
        self.streaming().feed(text, out)
    }

    /// A [`StreamingExtractor`] carrying this extractor's full configuration
    /// (n-gram shape **and** sub-sampling factor).
    pub fn streaming(&self) -> StreamingExtractor {
        StreamingExtractor::with_subsampling(self.spec, self.subsample)
    }

    /// Convenience: extract into a fresh vector.
    pub fn extract(&self, text: &[u8]) -> Vec<NGram> {
        let mut out = Vec::new();
        self.extract_into(text, &mut out);
        out
    }

    /// Number of n-grams a `len`-byte input produces (before sub-sampling
    /// this is `len - n + 1`; the paper equates bytes and n-grams because
    /// every byte past the warm-up yields one).
    pub fn count_for_len(&self, len: usize) -> usize {
        let n = self.spec.n();
        if len < n {
            0
        } else {
            (len - n + 1).div_ceil(self.subsample)
        }
    }
}

/// Streaming extractor: identical output to [`NGramExtractor`] no matter how
/// the input is chunked. This mirrors the hardware, where the DMA engine
/// delivers 64-bit words and the shift register never "sees" chunk
/// boundaries.
#[derive(Clone, Debug)]
pub struct StreamingExtractor {
    spec: NGramSpec,
    subsample: usize,
    state: u64,
    /// Folded characters consumed so far in the current document.
    chars_seen: usize,
    phase: usize,
}

impl StreamingExtractor {
    /// Create a streaming extractor with no sub-sampling.
    pub fn new(spec: NGramSpec) -> Self {
        Self::with_subsampling(spec, 1)
    }

    /// The n-gram shape this extractor emits.
    pub fn spec(&self) -> NGramSpec {
        self.spec
    }

    /// The sub-sampling factor.
    pub fn subsample(&self) -> usize {
        self.subsample
    }

    /// Create a streaming extractor emitting every `s`-th n-gram.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn with_subsampling(spec: NGramSpec, s: usize) -> Self {
        assert!(s >= 1, "subsample factor must be >= 1");
        Self {
            spec,
            subsample: s,
            state: 0,
            chars_seen: 0,
            phase: 0,
        }
    }

    /// Feed a chunk, pushing each produced n-gram into `sink` as it emerges
    /// from the shift register — **the** scalar extraction hot loop. No
    /// buffer sits between folding and the sink, so a caller that probes a
    /// filter bank per gram fuses extraction and classification into one
    /// pass.
    ///
    /// [`Self::feed`] (Vec-collecting) and the whole-buffer
    /// [`NGramExtractor::extract_into`] are thin wrappers over this.
    #[inline]
    pub fn feed_with<F: FnMut(NGram)>(&mut self, chunk: &[u8], mut sink: F) {
        let n = self.spec.n();
        let mask = self.spec.mask();
        let mut rest = chunk;
        // Warm up: the first n-1 characters of a document emit nothing.
        while self.chars_seen + 1 < n {
            let Some((&b, tail)) = rest.split_first() else {
                return;
            };
            self.state = ((self.state << 5) | u64::from(fold_byte(b))) & mask;
            self.chars_seen += 1;
            rest = tail;
        }
        self.chars_seen += rest.len();
        if self.subsample == 1 {
            // The paper's primary configuration: one n-gram per byte, no
            // phase bookkeeping in the loop.
            for &b in rest {
                self.state = ((self.state << 5) | u64::from(fold_byte(b))) & mask;
                sink(NGram(self.state));
            }
        } else {
            for &b in rest {
                self.state = ((self.state << 5) | u64::from(fold_byte(b))) & mask;
                if self.phase == 0 {
                    sink(NGram(self.state));
                }
                self.phase += 1;
                if self.phase == self.subsample {
                    self.phase = 0;
                }
            }
        }
    }

    /// Feed the front of a chunk in batches of 64 keys, each truncated to
    /// `u32`, and return the bytes left over, which the caller feeds
    /// through [`Self::feed_with`]. The batches followed by `feed_with`'s
    /// keys for the rest are exactly `feed_with`'s keys for the whole
    /// chunk, and the state carries across chunks the same way.
    ///
    /// Only the paper's shape (`n = 4`, no sub-sampling) on a CPU with
    /// AVX2 takes any bytes: the chunk's warm-up, then each whole 64-byte
    /// block, whose 64 keys are built in vector registers with no chain
    /// from one byte to the next (see the `simd` module). Every other
    /// shape or CPU gets the whole chunk back.
    #[must_use = "the bytes left over still have to go through `feed_with`"]
    pub fn feed_batches<'c, F: FnMut(&[u32])>(&mut self, chunk: &'c [u8], mut sink: F) -> &'c [u8] {
        if self.spec.n() != 4 || self.subsample != 1 {
            return chunk;
        }
        let warm = (self.spec.n() - 1).saturating_sub(self.chars_seen);
        let (head, body) = chunk.split_at(warm.min(chunk.len()));
        self.feed_with(head, |_| {});
        let done = simd::keys_by_block(&mut self.state, body, &mut sink);
        self.chars_seen += done;
        &body[done..]
    }

    /// Feed a chunk, appending produced n-grams to `out` (not cleared).
    /// Returns the number of n-grams appended.
    pub fn feed(&mut self, chunk: &[u8], out: &mut Vec<NGram>) -> usize {
        let before = out.len();
        self.feed_with(chunk, |g| out.push(g));
        out.len() - before
    }

    /// Reset for a new document (the hardware's End-of-Document clears the
    /// shift register).
    pub fn reset(&mut self) {
        self.state = 0;
        self.chars_seen = 0;
        self.phase = 0;
    }

    /// Total characters consumed since the last reset.
    pub fn chars_seen(&self) -> usize {
        self.chars_seen
    }

    /// Total n-grams emitted since the last reset. Closed-form from the
    /// consumed length (streaming output is chunking-invariant), so fused
    /// sinks need no side counter: equals
    /// `NGramExtractor::count_for_len(chars_seen)`.
    pub fn grams_emitted(&self) -> usize {
        let n = self.spec.n();
        if self.chars_seen < n {
            0
        } else {
            (self.chars_seen - n + 1).div_ceil(self.subsample)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec4() -> NGramSpec {
        NGramSpec::new(4)
    }

    #[test]
    fn short_input_yields_nothing() {
        let ex = NGramExtractor::new(spec4());
        assert!(ex.extract(b"abc").is_empty());
        assert!(ex.extract(b"").is_empty());
        assert_eq!(ex.extract(b"abcd").len(), 1);
    }

    #[test]
    fn one_ngram_per_position() {
        let ex = NGramExtractor::new(spec4());
        let grams = ex.extract(b"hello world");
        assert_eq!(grams.len(), 11 - 4 + 1);
        // First window is "hell", second "ello".
        assert_eq!(spec4().render(grams[0]), "HELL");
        assert_eq!(spec4().render(grams[1]), "ELLO");
        // Window crossing the space keeps the space code.
        assert_eq!(spec4().render(grams[4]), "O WO");
    }

    #[test]
    fn case_and_accents_fold_before_windowing() {
        let ex = NGramExtractor::new(spec4());
        let a = ex.extract(b"CAFE");
        let b = ex.extract(&[b'c', b'a', b'f', 0xE9]); // "café" in Latin-1
        assert_eq!(a, b);
    }

    #[test]
    fn count_for_len_matches_extraction() {
        for s in [1usize, 2, 3, 4] {
            let ex = NGramExtractor::with_subsampling(spec4(), s);
            for len in 0..40 {
                let text: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
                let grams = ex.extract(&text);
                assert_eq!(grams.len(), ex.count_for_len(len), "len={len}, s={s}");
                // The streaming extractor's closed-form emission count
                // agrees with what was actually emitted.
                let mut st = ex.streaming();
                let mut out = Vec::new();
                st.feed(&text, &mut out);
                assert_eq!(st.grams_emitted(), grams.len(), "len={len}, s={s}");
            }
        }
    }

    #[test]
    fn subsampling_takes_every_sth() {
        let full = NGramExtractor::new(spec4()).extract(b"abcdefghij");
        let half = NGramExtractor::with_subsampling(spec4(), 2).extract(b"abcdefghij");
        let expected: Vec<_> = full.iter().copied().step_by(2).collect();
        assert_eq!(half, expected);
    }

    #[test]
    fn streaming_reset_starts_fresh_document() {
        let mut ex = StreamingExtractor::new(spec4());
        let mut out = Vec::new();
        ex.feed(b"abcdef", &mut out);
        ex.reset();
        let mut out2 = Vec::new();
        ex.feed(b"abcdef", &mut out2);
        // After reset the second document yields the same grams from scratch.
        assert_eq!(out, out2);
        assert_eq!(ex.chars_seen(), 6);
    }

    #[test]
    fn streaming_does_not_bridge_documents_without_reset_awareness() {
        // Feeding two documents *without* reset bridges the boundary —
        // exactly what the hardware avoids via End-of-Document. This test
        // pins the behaviour difference.
        let mut ex = StreamingExtractor::new(spec4());
        let mut bridged = Vec::new();
        ex.feed(b"abcd", &mut bridged);
        ex.feed(b"wxyz", &mut bridged);
        assert_eq!(bridged.len(), 5); // 1 + 4 (bridging windows)
        let mut ex2 = StreamingExtractor::new(spec4());
        let mut clean = Vec::new();
        ex2.feed(b"abcd", &mut clean);
        ex2.reset();
        ex2.feed(b"wxyz", &mut clean);
        assert_eq!(clean.len(), 2);
    }

    /// `feed_batches`' keys for `text` cut at `cuts`, each chunk's
    /// leftover bytes fed through `feed_with`, checking every batch holds
    /// 64 keys.
    fn batched(spec: NGramSpec, s: usize, text: &[u8], cuts: &[usize]) -> Vec<u32> {
        let mut ex = StreamingExtractor::with_subsampling(spec, s);
        let mut keys = Vec::new();
        for w in cuts.windows(2) {
            let rest = ex.feed_batches(&text[w[0]..w[1]], |batch| {
                assert_eq!(batch.len(), 64);
                keys.extend_from_slice(batch);
            });
            ex.feed_with(rest, |g| keys.push(g.value() as u32));
        }
        assert_eq!(ex.chars_seen(), text.len());
        assert_eq!(ex.grams_emitted(), keys.len());
        keys
    }

    /// `feed_with`'s keys for the whole of `text`, truncated as
    /// `feed_batches` truncates them.
    fn unbatched(spec: NGramSpec, s: usize, text: &[u8]) -> Vec<u32> {
        let mut keys = Vec::new();
        StreamingExtractor::with_subsampling(spec, s)
            .feed_with(text, |g| keys.push(g.value() as u32));
        keys
    }

    #[test]
    fn feed_batches_cuts_at_the_warm_up_and_block_edges() {
        // Every byte value, so both vector fold paths and the 0xDF / 0xFF
        // fix-up run inside whole blocks.
        let text: Vec<u8> = (0..300u32).map(|i| (i * 97 + i / 7) as u8).collect();
        let len = text.len();
        // Cuts inside the warm-up (1, 2), right after it (3), on both
        // sides of the first block edge measured from the chunk's start
        // or from the end of the warm-up (63..=67), and past two blocks.
        let singles = [1usize, 2, 3, 4, 63, 64, 65, 66, 67, 68, 127, 128, 131, 200];
        let mut plans: Vec<Vec<usize>> = vec![vec![0, len]];
        plans.extend(singles.iter().map(|&c| vec![0, c, len]));
        plans.extend(singles.iter().flat_map(|&a| {
            singles
                .iter()
                .filter(move |&&b| b > a)
                .map(move |&b| vec![0, a, b, len])
        }));
        plans.push((0..=len).collect());
        for n in 1..=8 {
            for s in 1..=4 {
                let spec = NGramSpec::new(n);
                let expect = unbatched(spec, s, &text);
                for cuts in &plans {
                    assert_eq!(
                        batched(spec, s, &text, cuts),
                        expect,
                        "n={n} s={s} cuts={cuts:?}"
                    );
                }
            }
        }
    }

    proptest! {
        /// Chunked streaming output equals whole-buffer output for any
        /// chunking of any input.
        #[test]
        fn streaming_equals_whole_buffer(
            text in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..8),
            n in 1usize..=8,
            s in 1usize..=4,
        ) {
            let spec = NGramSpec::new(n);
            let whole = NGramExtractor::with_subsampling(spec, s).extract(&text);

            let mut cut_points: Vec<usize> =
                cuts.into_iter().map(|c| c % (text.len() + 1)).collect();
            cut_points.push(0);
            cut_points.push(text.len());
            cut_points.sort_unstable();
            cut_points.dedup();

            let mut streamed = Vec::new();
            let mut ex = StreamingExtractor::with_subsampling(spec, s);
            for w in cut_points.windows(2) {
                ex.feed(&text[w[0]..w[1]], &mut streamed);
            }
            prop_assert_eq!(ex.grams_emitted(), streamed.len());
            prop_assert_eq!(streamed, whole);
        }

        /// The fused sink entry (which `feed` and `extract_into` now wrap,
        /// so they cannot serve as a cross-check) emits exactly the grams
        /// an independently coded reference produces: for each position
        /// `i >= n-1`, fold and pack bytes `i-n+1..=i` from scratch, then
        /// take every `s`-th window. Pins values, not just counts, across
        /// arbitrary chunk boundaries.
        #[test]
        fn feed_with_matches_independent_reference(
            text in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..200, 0..8),
            n in 1usize..=8,
            s in 1usize..=4,
        ) {
            let spec = NGramSpec::new(n);
            let reference: Vec<NGram> = (0..text.len().saturating_sub(n - 1))
                .step_by(s)
                .map(|start| {
                    let mut v = 0u64;
                    for &b in &text[start..start + n] {
                        v = (v << 5) | u64::from(fold_byte(b));
                    }
                    NGram(v)
                })
                .collect();

            let mut cut_points: Vec<usize> =
                cuts.into_iter().map(|c| c % (text.len() + 1)).collect();
            cut_points.push(0);
            cut_points.push(text.len());
            cut_points.sort_unstable();
            cut_points.dedup();

            let mut sunk = Vec::new();
            let mut ex = StreamingExtractor::with_subsampling(spec, s);
            for w in cut_points.windows(2) {
                ex.feed_with(&text[w[0]..w[1]], |g| sunk.push(g));
            }
            prop_assert_eq!(sunk, reference);
            prop_assert_eq!(ex.chars_seen(), text.len());
        }

        /// `feed_batches` and `feed_with` on its leftover emit exactly
        /// `feed_with`'s keys (truncated to `u32`) for any bytes, shape
        /// and chunking.
        #[test]
        fn feed_batches_matches_feed_with(
            text in proptest::collection::vec(any::<u8>(), 0..400),
            cuts in proptest::collection::vec(0usize..400, 0..8),
            n in 1usize..=8,
            s in 1usize..=4,
        ) {
            let spec = NGramSpec::new(n);
            let mut cut_points: Vec<usize> =
                cuts.into_iter().map(|c| c % (text.len() + 1)).collect();
            cut_points.push(0);
            cut_points.push(text.len());
            cut_points.sort_unstable();
            cut_points.dedup();
            prop_assert_eq!(batched(spec, s, &text, &cut_points), unbatched(spec, s, &text));
        }

        /// Every produced gram fits in the spec's bit width.
        #[test]
        fn grams_within_mask(text in proptest::collection::vec(any::<u8>(), 0..100),
                             n in 1usize..=12) {
            let spec = NGramSpec::new(n);
            for g in NGramExtractor::new(spec).extract(&text) {
                prop_assert!(g.value() <= spec.mask());
            }
        }
    }
}
