//! The bit-sliced filter bank: all languages' Bloom vectors fused so one
//! n-gram tests against **every** language with `k` loads and one AND.
//!
//! # Why
//!
//! In the paper's hardware, one n-gram register fans out to every language's
//! bit-vectors simultaneously: testing `p` languages costs the same cycle as
//! testing one. The naive software transcription
//! ([`crate::ParallelBloomFilter`] per language) inverts that shape — each
//! n-gram walks `p` filters × `k` vectors, a scattered random load (plus a
//! bounds check) per *(language, hash)* pair, `p·k` loads per n-gram.
//!
//! # Layout
//!
//! All language filters in a classifier share one [`H3Family`] (the hardware
//! replicates the hash circuits, not the randomness), so the `k` addresses of
//! an n-gram are the same for every language. The bank exploits that: for
//! each hash function `i` it stores ONE address-indexed array `slices[i]`
//! whose entry at address `a` is a `p`-bit **language mask** — bit `j` set
//! iff language `j`'s vector-`i` bit at `a` is set.
//!
//! Mask entries are stored at the narrowest power-of-two width that holds
//! `p` bits (`u8`/`u16`/`u32`/`u64`), which keeps the hot arrays small — the
//! paper's 8-language configuration packs each mask into one byte, an 8×
//! smaller working set than uniform `u64` words, small enough to stay
//! cache-resident. `p > 64` uses `ceil(p/64)` little-endian `u64` words per
//! mask, so any language count works transparently.
//!
//! A membership test of one n-gram against all `p` languages becomes:
//!
//! 1. compute the `k` addresses once (fused H3 evaluation),
//! 2. load `k` masks — one contiguous load per hash function,
//! 3. AND-reduce them (languages whose every per-hash bit was set survive),
//! 4. count the surviving languages. For `p ≤ 32` each mask byte indexes
//!    [`SPREAD8`], and one 64-bit add bumps eight packed byte counters at
//!    once, branch-free; the packed bytes drain into the `u64` counters
//!    before any can wrap. Wider masks scatter-add their set bits
//!    (`trailing_zeros` loop, one increment per matching language).
//!
//! That is `k` loads + one AND per n-gram instead of `p·k` loads — the same
//! fan-out the paper's datapath gets from wiring.
//!
//! # Invariants
//!
//! * Bit-for-bit equivalent to testing each [`crate::ParallelBloomFilter`]
//!   independently (property-tested for every mask width, any `p`, any
//!   input).
//! * Addresses produced by the shared hash family are `< m` by construction
//!   (H3 output width equals the vector address width), so the hot path
//!   performs no per-language assertions.
//! * Every row holds `m · words_per_mask` entries plus
//!   [`MaskWord::GATHER_PAD`] zero entries, so a 4-byte AVX2 gather at the
//!   last address stays inside the row.

use crate::params::BloomParams;
use crate::simd::Avx2Probe;
use crate::ParallelBloomFilter;
use lc_hash::{FusedEvaluatorK, H3Family, SimdLevel};
use std::marker::PhantomData;
use std::ops::BitAnd;

/// Keys per block in [`KeySource::for_each_key_block`] — one AVX2 register
/// of 32-bit keys. Matches `lc_ngram::BLOCK_LANES` (the extractor's block
/// width) by design; the classifier asserts the two agree.
pub const KEY_BLOCK_LANES: usize = 8;

/// A push-style source of query keys — the fused-path analogue of an
/// iterator. `for_each_key` hands every key to `sink` exactly once, in
/// order; the bank monomorphizes its probe loop around the call, so a
/// source that folds bytes through a shift register (n-gram extraction)
/// compiles into **one** loop with the `k` hash evaluations and mask loads
/// — no intermediate key buffer between extraction and probe.
///
/// Every `IntoIterator<Item = u64>` is a `KeySource` (the pre-extracted
/// path); state-machine sources implement the trait directly.
pub trait KeySource {
    /// Push every key into `sink`, in order.
    fn for_each_key(self, sink: impl FnMut(u64));

    /// Push the keys in [`KEY_BLOCK_LANES`]-wide blocks of 32-bit keys
    /// (each key masked by `key_mask`, which the caller guarantees fits
    /// `u32`), with any stragglers delivered singly via
    /// [`KeyBlockSink::key`]. Counts commute, so a source may freely mix
    /// blocks and single keys — the default packs the `for_each_key`
    /// stream; block-native sources (the blocked n-gram extractor)
    /// override it to hand over whole SIMD blocks with no repacking.
    fn for_each_key_block(self, key_mask: u64, sink: &mut impl KeyBlockSink)
    where
        Self: Sized,
    {
        let mut buf = [0u32; KEY_BLOCK_LANES];
        let mut filled = 0usize;
        self.for_each_key(|key| {
            buf[filled] = (key & key_mask) as u32;
            filled += 1;
            if filled == KEY_BLOCK_LANES {
                sink.block(&buf);
                filled = 0;
            }
        });
        for &key in &buf[..filled] {
            sink.key(u64::from(key));
        }
    }
}

/// Receiver for [`KeySource::for_each_key_block`]: whole blocks take the
/// vector path, stragglers (warm-up, chunk joins, tails shorter than a
/// block) take the scalar path. Both must produce identical counts —
/// pinned by the equivalence proptests.
pub trait KeyBlockSink {
    /// Probe a full block of [`KEY_BLOCK_LANES`] pre-masked 32-bit keys.
    fn block(&mut self, keys: &[u32; KEY_BLOCK_LANES]);

    /// Probe one key on the scalar path.
    fn key(&mut self, key: u64);
}

impl<I: IntoIterator<Item = u64>> KeySource for I {
    #[inline]
    fn for_each_key(self, mut sink: impl FnMut(u64)) {
        for key in self {
            sink(key);
        }
    }
}

/// A mask storage element: the bit-sliced arrays hold language masks at the
/// narrowest width that fits `p`.
pub(crate) trait MaskWord: Copy + PartialEq + BitAnd<Output = Self> {
    /// Bits per element.
    const BITS: usize;
    /// All-zero element.
    const ZERO: Self;
    /// Zero entries after each row's last address: an AVX2 gather reads
    /// 4 bytes at an entry's offset, so `u8` rows need 3 more bytes and
    /// `u16` rows 1 more entry; wider entries are read at exact width.
    const GATHER_PAD: usize;
    /// Set bit `j` (`j < BITS`).
    fn set_bit(&mut self, j: usize);
    /// Widen to u64 for counting.
    fn to_u64(self) -> u64;
}

macro_rules! impl_mask_word {
    ($($t:ty => $pad:expr),*) => {$(
        impl MaskWord for $t {
            const BITS: usize = <$t>::BITS as usize;
            const ZERO: Self = 0;
            const GATHER_PAD: usize = $pad;

            #[inline]
            fn set_bit(&mut self, j: usize) {
                *self |= 1 << j;
            }

            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}
impl_mask_word!(u8 => 3, u16 => 1, u32 => 0, u64 => 0);

/// `SPREAD8[m]` has byte `j` equal to bit `j` of `m`: one table load turns
/// eight languages' match bits into eight 0/1 byte increments, so a count
/// update is a single 64-bit add — no per-set-bit branch loop.
static SPREAD8: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut v = 0u64;
        let mut j = 0;
        while j < 8 {
            if m >> j & 1 == 1 {
                v |= 1u64 << (8 * j);
            }
            j += 1;
        }
        t[m] = v;
        m += 1;
    }
    t
};

/// Drain the packed byte counters after this many counted keys. Each byte
/// lane grows by at most 1 per key and a vector block adds 8 keys at once,
/// so draining at 248 (255 rounded down to a block multiple) means no lane
/// ever wraps.
const FLUSH_AT: u32 = 248;

/// The per-language match counter every probe loop feeds, for masks of
/// width `W`. Up to `u32`, language `8w + j` counts in byte `j` of
/// `packed[w]` (one [`SPREAD8`] add per mask byte), drained into `counts`
/// every [`FLUSH_AT`] keys; `u64` masks scatter-add straight into `counts`.
/// Call [`Self::finish`] to drain what is left.
pub(crate) struct Tally<'a, W> {
    counts: &'a mut [u64],
    packed: [u64; 4],
    pending: u32,
    width: PhantomData<W>,
}

impl<'a, W: MaskWord> Tally<'a, W> {
    const PACKED: bool = W::BITS <= 32;

    pub(crate) fn new(counts: &'a mut [u64]) -> Self {
        Self {
            counts,
            packed: [0; 4],
            pending: 0,
            width: PhantomData,
        }
    }

    /// Count word `w` of one key's match mask (bit `b` is language
    /// `64w + b`); packed widths only have word 0. Call [`Self::tick`]
    /// once the key's words are counted.
    #[inline]
    pub(crate) fn count(&mut self, w: usize, mask: u64) {
        if Self::PACKED {
            for (b, lane) in self.packed[..W::BITS / 8].iter_mut().enumerate() {
                *lane = lane.wrapping_add(SPREAD8[(mask >> (8 * b) & 0xFF) as usize]);
            }
        } else {
            let mut mask = mask;
            while mask != 0 {
                self.counts[64 * w + mask.trailing_zeros() as usize] += 1;
                mask &= mask - 1;
            }
        }
    }

    /// Record that `keys` more keys were counted, draining the packed
    /// counters once they could next wrap.
    #[inline]
    pub(crate) fn tick(&mut self, keys: u32) {
        if Self::PACKED {
            self.pending += keys;
            if self.pending >= FLUSH_AT {
                self.flush();
            }
        }
    }

    /// Count one key's single-word match mask.
    #[inline]
    pub(crate) fn add(&mut self, mask: W) {
        self.count(0, mask.to_u64());
        self.tick(1);
    }

    fn flush(&mut self) {
        for (j, c) in self.counts.iter_mut().enumerate() {
            *c += (self.packed[j / 8] >> (8 * (j % 8))) & 0xFF;
        }
        self.packed = [0; 4];
        self.pending = 0;
    }

    /// Drain the packed counters into `counts`.
    pub(crate) fn finish(mut self) {
        if Self::PACKED {
            self.flush();
        }
    }
}

/// Hash `key` and AND-reduce its `K` single-word masks: the one probe step
/// of the scalar loop and of the AVX2 path's leftover keys.
#[inline]
pub(crate) fn probe<const K: usize, W: MaskWord>(
    eval: &FusedEvaluatorK<'_, K>,
    rows: &[&[W]; K],
    key: u64,
) -> W {
    let addrs = eval.hash_all_array(key);
    let mut mask = rows[0][addrs[0] as usize];
    for i in 1..K {
        mask = mask & rows[i][addrs[i] as usize];
    }
    mask
}

/// AND-reduce the `k` per-hash masks at `addrs` into `mask` (one element
/// per mask word); returns whether any language survived.
#[inline]
fn and_reduce<W: MaskWord>(slices: &[Box<[W]>], addrs: &[u32], mask: &mut [W]) -> bool {
    let wpm = mask.len();
    let base = addrs[0] as usize * wpm;
    mask.copy_from_slice(&slices[0][base..base + wpm]);
    let mut alive = mask.iter().any(|&w| w != W::ZERO);
    for (i, &addr) in addrs.iter().enumerate().skip(1) {
        if !alive {
            break;
        }
        let base = addr as usize * wpm;
        alive = false;
        for (m, &s) in mask.iter_mut().zip(&slices[i][base..base + wpm]) {
            *m = *m & s;
            alive |= *m != W::ZERO;
        }
    }
    alive
}

/// Width-specialized bit-sliced arrays (one per hash function).
#[derive(Clone, Debug)]
enum MaskSlices {
    /// `p <= 8`: one byte per (hash, address) entry.
    W8(Vec<Box<[u8]>>),
    /// `p <= 16`.
    W16(Vec<Box<[u16]>>),
    /// `p <= 32`.
    W32(Vec<Box<[u32]>>),
    /// `p <= 64`, or `p > 64` with `ceil(p/64)` words per mask.
    W64(Vec<Box<[u64]>>),
}

/// Bit-sliced multi-language Bloom engine. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FilterBank {
    params: BloomParams,
    hashes: H3Family,
    /// Number of languages `p`.
    languages: usize,
    /// `ceil(p / 64)`: u64 words per language mask in the widened
    /// ([`Self::match_mask`]) representation.
    words_per_mask: usize,
    slices: MaskSlices,
    /// The AVX2 probe engine, built once at construction when runtime
    /// dispatch lands on AVX2 and the bank shape has a vector fast path;
    /// `None` means every accumulate call runs the scalar loops.
    simd: Option<Avx2Probe>,
}

impl FilterBank {
    /// Transpose per-language [`ParallelBloomFilter`]s into the bit-sliced
    /// layout. The filters remain the canonical per-language representation;
    /// the bank is the derived query-optimized image.
    ///
    /// # Panics
    ///
    /// Panics if `filters` is empty, or the filters disagree on parameters or
    /// hash family (all languages must share one family, exactly as all
    /// hardware classifiers are fed by the same hash circuits).
    pub fn from_filters(filters: &[ParallelBloomFilter]) -> Self {
        assert!(!filters.is_empty(), "need at least one language filter");
        let params = filters[0].params();
        let hashes = filters[0].hashes().clone();
        for f in &filters[1..] {
            assert_eq!(f.params(), params, "filters disagree on Bloom parameters");
            assert_eq!(
                f.hashes(),
                &hashes,
                "filters must share one hash family (same seed) to be banked"
            );
        }
        let p = filters.len();
        let words_per_mask = p.div_ceil(64);
        let slices = if p <= 8 {
            MaskSlices::W8(Self::build_slices::<u8>(filters, params, 1))
        } else if p <= 16 {
            MaskSlices::W16(Self::build_slices::<u16>(filters, params, 1))
        } else if p <= 32 {
            MaskSlices::W32(Self::build_slices::<u32>(filters, params, 1))
        } else {
            MaskSlices::W64(Self::build_slices::<u64>(filters, params, words_per_mask))
        };
        let mut bank = Self {
            params,
            hashes,
            languages: p,
            words_per_mask,
            slices,
            simd: None,
        };
        bank.set_simd_level(SimdLevel::detect());
        bank
    }

    /// Build the `k` bit-sliced arrays at element width `W` (`wpm` elements
    /// per address; > 1 only for the u64 multi-word case), each followed by
    /// `W::GATHER_PAD` zero entries.
    fn build_slices<W: MaskWord>(
        filters: &[ParallelBloomFilter],
        params: BloomParams,
        wpm: usize,
    ) -> Vec<Box<[W]>> {
        let m = params.m_bits();
        let mut slices = Vec::with_capacity(params.k);
        for i in 0..params.k {
            let mut slice = vec![W::ZERO; m * wpm + W::GATHER_PAD].into_boxed_slice();
            for (j, f) in filters.iter().enumerate() {
                let (word_idx, bit) = (j / W::BITS, j % W::BITS);
                // Walk the language's set bits word-by-word instead of
                // testing all m addresses: profiles are sparse.
                for (w, &word) in f.vectors()[i].words().iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let a = w * 64 + word.trailing_zeros() as usize;
                        slice[a * wpm + word_idx].set_bit(bit);
                        word &= word - 1;
                    }
                }
            }
            slices.push(slice);
        }
        slices
    }

    /// Bloom parameters shared by every banked language.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of languages `p`.
    pub fn languages(&self) -> usize {
        self.languages
    }

    /// `u64` words per language mask (`ceil(p / 64)`) in the widened
    /// representation returned by [`Self::match_mask`].
    pub fn words_per_mask(&self) -> usize {
        self.words_per_mask
    }

    /// Storage bits per (hash, address) mask entry (8/16/32 for narrow
    /// banks, `64 × words_per_mask` otherwise).
    pub fn mask_entry_bits(&self) -> usize {
        match &self.slices {
            MaskSlices::W8(_) => 8,
            MaskSlices::W16(_) => 16,
            MaskSlices::W32(_) => 32,
            MaskSlices::W64(_) => 64 * self.words_per_mask,
        }
    }

    /// The shared hash family.
    pub fn hashes(&self) -> &H3Family {
        &self.hashes
    }

    /// Choose the probe path. `Avx2` builds the vector engine when the CPU
    /// and the bank shape allow it (silently staying scalar otherwise);
    /// `Scalar` drops any engine. Called once at construction with the
    /// process-wide [`SimdLevel::detect`] choice; tests and the
    /// `--force-scalar` plumbing call it explicitly for live A/B.
    pub fn set_simd_level(&mut self, level: SimdLevel) {
        self.simd = match level {
            SimdLevel::Scalar => None,
            SimdLevel::Avx2 => Avx2Probe::build(self),
        };
    }

    /// The probe path dispatch **actually** selected — `Avx2` only when the
    /// vector engine is live, `Scalar` when the CPU, the environment
    /// (`LC_FORCE_SCALAR`) or the bank shape kept the scalar loops.
    pub fn simd_level(&self) -> SimdLevel {
        if self.simd.is_some() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }

    /// Total bank memory in bits (`k × m × mask_entry_bits`).
    pub fn memory_bits(&self) -> usize {
        self.params.k * self.params.m_bits() * self.mask_entry_bits()
    }

    /// Match mask for one key: word `w`, bit `b` set iff language `64w + b`
    /// matches. Convenience wrapper (allocates); hot paths use
    /// [`Self::accumulate_keys`].
    pub fn match_mask(&self, key: u64) -> Vec<u64> {
        match &self.slices {
            MaskSlices::W8(s) => self.match_mask_in(s, key),
            MaskSlices::W16(s) => self.match_mask_in(s, key),
            MaskSlices::W32(s) => self.match_mask_in(s, key),
            MaskSlices::W64(s) => self.match_mask_in(s, key),
        }
    }

    fn match_mask_in<W: MaskWord>(&self, slices: &[Box<[W]>], key: u64) -> Vec<u64> {
        let addrs = self.hashes.hash_all(key);
        let mut mask = vec![W::ZERO; self.words_per_mask];
        and_reduce(slices, &addrs, &mut mask);
        mask.into_iter().map(MaskWord::to_u64).collect()
    }

    /// Test one key against every language, returning matching indices.
    pub fn matching_languages(&self, key: u64) -> Vec<usize> {
        let mask = self.match_mask(key);
        let mut out = Vec::new();
        for (w, &word) in mask.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        out
    }

    /// The classify hot loop: for every key, increment `counts[j]` for each
    /// matching language `j`. Exactly equivalent to testing each language's
    /// filter independently, but `k` loads + one AND-reduce per key.
    /// Convenience wrapper over [`Self::accumulate_source`] for
    /// pre-extracted key streams.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != self.languages()`.
    pub fn accumulate_keys<I: IntoIterator<Item = u64>>(&self, keys: I, counts: &mut [u64]) {
        self.accumulate_source(keys, counts);
    }

    /// The fused probe entry: drain `src` through the bank, incrementing
    /// `counts[j]` for each key matching language `j`. Dispatches **once**
    /// per batch to a loop monomorphized over the mask width
    /// (u8/u16/u32/u64) and, for single-word masks with `k ≤ 8`, the
    /// compile-time `k` — the source's per-key state machine (e.g. the
    /// n-gram shift register) inlines into that loop, so extraction and
    /// probe fuse into one pass with no intermediate key buffer.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != self.languages()`.
    pub fn accumulate_source<S: KeySource>(&self, src: S, counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            self.languages,
            "one counter per banked language"
        );
        match &self.slices {
            MaskSlices::W8(s) => self.accumulate_width(s, src, counts),
            MaskSlices::W16(s) => self.accumulate_width(s, src, counts),
            MaskSlices::W32(s) => self.accumulate_width(s, src, counts),
            MaskSlices::W64(s) => self.accumulate_width(s, src, counts),
        }
    }

    /// Dispatch once per batch to a loop with `k` fixed at compile time:
    /// the fused hash unrolls and the `k` mask loads issue back-to-back
    /// with no loop-carried control flow. Multi-word masks and `k > 8`
    /// take the runtime-`k` loop (identical results).
    fn accumulate_width<W: MaskWord, S: KeySource>(
        &self,
        slices: &[Box<[W]>],
        src: S,
        counts: &mut [u64],
    ) {
        if self.words_per_mask > 1 {
            return self.accumulate_runtime_k(slices, src, counts);
        }
        match self.params.k {
            1 => self.accumulate_k::<1, W, S>(slices, src, counts),
            2 => self.accumulate_k::<2, W, S>(slices, src, counts),
            3 => self.accumulate_k::<3, W, S>(slices, src, counts),
            4 => self.accumulate_k::<4, W, S>(slices, src, counts),
            5 => self.accumulate_k::<5, W, S>(slices, src, counts),
            6 => self.accumulate_k::<6, W, S>(slices, src, counts),
            7 => self.accumulate_k::<7, W, S>(slices, src, counts),
            8 => self.accumulate_k::<8, W, S>(slices, src, counts),
            _ => self.accumulate_runtime_k(slices, src, counts),
        }
    }

    /// Single-word masks with compile-time `K`: the AVX2 engine when one
    /// was built, else the scalar loop.
    fn accumulate_k<const K: usize, W: MaskWord, S: KeySource>(
        &self,
        slices: &[Box<[W]>],
        src: S,
        counts: &mut [u64],
    ) {
        // Hoist the Vec<Box<..>> double indirection: K flat row views,
        // loaded once per batch instead of twice per key.
        let rows: [&[W]; K] = std::array::from_fn(|i| &*slices[i]);
        // Resolve the const-K fused hash view once per batch: no per-key
        // lazy-init or K == k check inside the loop.
        let eval = self.hashes.fused_evaluator_k::<K>();
        if let Some(engine) = &self.simd {
            return engine.accumulate(&rows, eval, src, counts);
        }
        let mut tally = Tally::<W>::new(counts);
        src.for_each_key(|key| tally.add(probe(&eval, &rows, key)));
        tally.finish();
    }

    /// Runtime `k`, any number of words per mask.
    fn accumulate_runtime_k<W: MaskWord, S: KeySource>(
        &self,
        slices: &[Box<[W]>],
        src: S,
        counts: &mut [u64],
    ) {
        let mut addrs = vec![0u32; self.params.k];
        let mut mask = vec![W::ZERO; self.words_per_mask];
        let hashes = self.hashes.fused_evaluator();
        let mut tally = Tally::<W>::new(counts);
        src.for_each_key(|key| {
            hashes.hash_all_into(key, &mut addrs);
            if and_reduce(slices, &addrs, &mut mask) {
                for (w, &word) in mask.iter().enumerate() {
                    tally.count(w, word.to_u64());
                }
                tally.tick(1);
            }
        });
        tally.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BloomParams;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Build `p` filters over a shared hash family, each programmed with its
    /// own random keys, plus the bank transposed from them.
    fn bank_fixture(
        p: usize,
        params: BloomParams,
        keys_per_lang: usize,
        seed: u64,
    ) -> (Vec<ParallelBloomFilter>, FilterBank) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let filters: Vec<ParallelBloomFilter> = (0..p)
            .map(|_| {
                let mut f = ParallelBloomFilter::new(params, 20, seed);
                f.program_all((0..keys_per_lang).map(|_| rng.gen::<u64>() & 0xF_FFFF));
                f
            })
            .collect();
        let bank = FilterBank::from_filters(&filters);
        (filters, bank)
    }

    fn naive_counts(filters: &[ParallelBloomFilter], keys: &[u64]) -> Vec<u64> {
        let k = filters[0].params().k;
        let mut addrs = vec![0u32; k];
        let mut counts = vec![0u64; filters.len()];
        for &key in keys {
            filters[0].addresses_into(key, &mut addrs);
            for (c, f) in counts.iter_mut().zip(filters) {
                if f.test_with_addresses(&addrs) {
                    *c += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn shape_accessors() {
        let (_, bank) = bank_fixture(8, BloomParams::PAPER_CONSERVATIVE, 100, 1);
        assert_eq!(bank.languages(), 8);
        assert_eq!(bank.words_per_mask(), 1);
        assert_eq!(bank.params(), BloomParams::PAPER_CONSERVATIVE);
        // 8 languages pack into one byte per (hash, address) entry.
        assert_eq!(bank.mask_entry_bits(), 8);
        assert_eq!(bank.memory_bits(), 4 * 16384 * 8);

        // Each width boundary picks the narrowest fitting storage.
        let cases = [(1, 8), (9, 16), (16, 16), (17, 32), (33, 64), (64, 64)];
        for (p, bits) in cases {
            let (_, b) = bank_fixture(p, BloomParams::from_kbits(4, 2), 5, 2);
            assert_eq!(b.mask_entry_bits(), bits, "p = {p}");
        }

        let (_, wide) = bank_fixture(65, BloomParams::from_kbits(4, 2), 10, 2);
        assert_eq!(wide.words_per_mask(), 2);
        assert_eq!(wide.mask_entry_bits(), 128);

        // The width depends on p alone, also beyond the const-k dispatch.
        let (_, k9) = bank_fixture(8, BloomParams::from_kbits(4, 9), 5, 2);
        assert_eq!(k9.mask_entry_bits(), 8);
    }

    #[test]
    fn empty_bank_matches_nothing() {
        let filters = vec![ParallelBloomFilter::new(BloomParams::from_kbits(4, 3), 20, 5); 4];
        let bank = FilterBank::from_filters(&filters);
        for key in 0..1000u64 {
            assert!(bank.matching_languages(key).is_empty());
        }
    }

    #[test]
    fn programmed_keys_match_their_language() {
        let params = BloomParams::PAPER_CONSERVATIVE;
        let mut filters: Vec<ParallelBloomFilter> = (0..5)
            .map(|_| ParallelBloomFilter::new(params, 20, 9))
            .collect();
        for (j, f) in filters.iter_mut().enumerate() {
            f.program_all((0..200u64).map(|i| (i * 5 + j as u64 * 7919) & 0xF_FFFF));
        }
        let bank = FilterBank::from_filters(&filters);
        for (j, f) in filters.iter().enumerate() {
            for i in 0..200u64 {
                let key = (i * 5 + j as u64 * 7919) & 0xF_FFFF;
                assert!(f.test(key));
                assert!(
                    bank.matching_languages(key).contains(&j),
                    "bank lost language {j} for key {key:#x}"
                );
            }
        }
    }

    #[test]
    fn packed_flush_boundary_is_exact() {
        // The packed byte counters drain every FLUSH_AT keys. Every query
        // key is programmed into every language, so every byte lane grows
        // by one per key: streams ending just before, at and after a
        // drain must still equal the naive walk, on both probe paths and
        // across the u8 (8), u16 (12, 16) and u32 (20, 32) rows.
        let params = BloomParams::new(4, 10);
        let mut rng = SmallRng::seed_from_u64(99);
        let shared: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() & 0xF_FFFF).collect();
        for p in [8usize, 12, 16, 20, 32] {
            let (mut filters, _) = bank_fixture(p, params, 200, 7);
            for f in &mut filters {
                f.program_all(shared.iter().copied());
            }
            let mut bank = FilterBank::from_filters(&filters);
            for n in [247usize, 248, 249, 255, 256, 496, 1021] {
                let keys: Vec<u64> = (0..n)
                    .map(|_| shared[rng.gen_range(0..shared.len())])
                    .collect();
                let naive = naive_counts(&filters, &keys);
                assert_eq!(naive, vec![n as u64; p], "every key matches every language");
                for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                    bank.set_simd_level(level);
                    let mut banked = vec![0u64; p];
                    bank.accumulate_keys(keys.iter().copied(), &mut banked);
                    assert_eq!(banked, naive, "p = {p}, n = {n}, {level}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one hash family")]
    fn mismatched_seeds_rejected() {
        let a = ParallelBloomFilter::new(BloomParams::from_kbits(4, 2), 20, 1);
        let b = ParallelBloomFilter::new(BloomParams::from_kbits(4, 2), 20, 2);
        let _ = FilterBank::from_filters(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "disagree on Bloom parameters")]
    fn mismatched_params_rejected() {
        // Same seed stream, different vector sizes.
        let a = ParallelBloomFilter::new(BloomParams::from_kbits(4, 2), 20, 1);
        let b = ParallelBloomFilter::new(BloomParams::from_kbits(8, 2), 20, 1);
        let _ = FilterBank::from_filters(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one language")]
    fn empty_filter_list_rejected() {
        let _ = FilterBank::from_filters(&[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Banked accumulation must equal the naive per-language loop on
        /// both probe paths for any p — every mask width (u8/u16/u32/u64)
        /// and the multi-word boundary (p > 64) — every k (each const-k
        /// arm and the runtime-k loop), any key set, and any query set.
        #[test]
        fn banked_counts_equal_naive(
            p in prop_p(), k in 1usize..=10, seed in any::<u64>(),
            queries in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            // Small vectors (m = 256) so collisions and partial matches are
            // common — the interesting regime for equivalence.
            let params = BloomParams::new(k, 8);
            let (filters, mut bank) = bank_fixture(p, params, 60, seed);
            let naive = naive_counts(&filters, &queries);
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                bank.set_simd_level(level);
                let mut banked = vec![0u64; p];
                bank.accumulate_keys(queries.iter().copied(), &mut banked);
                prop_assert_eq!(&banked, &naive, "{}: {:?} != {:?}", level, banked, naive);
            }
        }

        /// A push-style KeySource (the fused extraction shape) accumulates
        /// identically to the pre-extracted iterator path for every mask
        /// width — the probe loop must not care where keys come from.
        #[test]
        fn source_and_iterator_paths_agree(
            p in prop_p(), seed in any::<u64>(),
            queries in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            struct Pushed<'a>(&'a [u64]);
            impl KeySource for Pushed<'_> {
                fn for_each_key(self, mut sink: impl FnMut(u64)) {
                    for &k in self.0 {
                        sink(k);
                    }
                }
            }
            let params = BloomParams::new(3, 8);
            let (_, bank) = bank_fixture(p, params, 60, seed);
            let mut via_iter = vec![0u64; p];
            bank.accumulate_keys(queries.iter().copied(), &mut via_iter);
            let mut via_source = vec![0u64; p];
            bank.accumulate_source(Pushed(&queries), &mut via_source);
            prop_assert_eq!(via_iter, via_source);
        }

        /// match_mask agrees with per-language test_with_addresses bit by bit.
        #[test]
        fn match_mask_is_exact(p in prop_p(), seed in any::<u64>(), key in any::<u64>()) {
            let params = BloomParams::new(2, 8);
            let (filters, bank) = bank_fixture(p, params, 80, seed);
            let mask = bank.match_mask(key);
            let mut addrs = vec![0u32; params.k];
            filters[0].addresses_into(key, &mut addrs);
            for (j, f) in filters.iter().enumerate() {
                let expect = f.test_with_addresses(&addrs);
                let got = mask[j / 64] >> (j % 64) & 1 == 1;
                prop_assert_eq!(got, expect, "language {} of {}", j, p);
            }
        }
    }

    /// Language counts that exercise every mask representation: u8 (1, 8),
    /// u16 (12), u32 (20), single-word u64 (33, 64), and multi-word
    /// (65..=100).
    fn prop_p() -> impl Strategy<Value = usize> {
        PChoices
    }

    #[derive(Clone, Copy, Debug)]
    struct PChoices;

    impl Strategy for PChoices {
        type Value = usize;

        fn sample(&self, rng: &mut proptest::TestRng) -> usize {
            match rng.next_u64() % 7 {
                0 => 1,
                1 => 8,
                2 => 12,
                3 => 20,
                4 => 33,
                5 => 64,
                _ => 65 + (rng.next_u64() % 36) as usize, // 65..=100
            }
        }
    }
}
